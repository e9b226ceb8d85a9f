from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import jsonschema
import pytest
import yaml

from vulnwp.config import GeneratorConfig
from vulnwp.errors import BundleWriteError
from vulnwp.iac import (
    BUNDLE_FILES,
    EnvironmentPlan,
    SetupStep,
    StepKind,
    app_image_name,
    build_plan,
    emit_bundle,
    provenance_schema,
    render_step_argv,
    render_step_line,
    staging_dir,
    validate_compose_subset,
)
from vulnwp.resolvers import (
    ComponentKind,
    ComponentSource,
    FetchedComponent,
    ImageRef,
    SourceKind,
)
from vulnwp.titles import parse_title
from vulnwp.versions import Version

CONFIG = GeneratorConfig()
IMAGE = ImageRef(repository="wordpress", tag="5.0", resolved_version=Version.parse("5.0"))
STAMP = datetime(2021, 5, 1, tzinfo=timezone.utc)


def make_component(tmp_path: Path, slug: str, kind=ComponentKind.PLUGIN) -> FetchedComponent:
    payload = tmp_path / "payloads" / slug
    payload.mkdir(parents=True, exist_ok=True)
    (payload / f"{slug}.php").write_text(f"<?php // {slug}\n", encoding="utf-8")
    return FetchedComponent(
        kind=kind,
        slug=slug,
        version=Version.parse("1.0"),
        source=ComponentSource(SourceKind.SVN_REPO, f"svn/{slug}/tags/1.0"),
        payload_path=payload,
    )


def files_on_disk(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def core_plan(edb_id: int = 500) -> EnvironmentPlan:
    title = "WordPress Core < 4.7.1 - Content Injection"
    return build_plan(parse_title(title), IMAGE, [], CONFIG, edb_id=edb_id, title=title)


def plugin_plan(tmp_path: Path, edb_id: int = 501) -> EnvironmentPlan:
    title = "WordPress Plugin Sample 1.0 - SQL Injection"
    component = make_component(tmp_path, "sample")
    return build_plan(parse_title(title), IMAGE, [component], CONFIG, edb_id=edb_id, title=title)


class TestBuildPlan:
    def test_core_plan_has_no_components(self):
        plan = core_plan()
        assert plan.components == ()
        assert [s.kind for s in plan.setup_steps] == [
            StepKind.INSTALL_CORE,
            StepKind.CREATE_ADMIN,
        ]

    def test_plugin_plan_copies_then_activates(self, tmp_path):
        plan = plugin_plan(tmp_path)
        assert [s.kind for s in plan.setup_steps] == [
            StepKind.INSTALL_CORE,
            StepKind.CREATE_ADMIN,
            StepKind.COPY_COMPONENT,
            StepKind.ACTIVATE_PLUGIN,
        ]
        assert plan.setup_steps[2].slug == "sample"

    def test_theme_plan_uses_theme_activation(self, tmp_path):
        title = "WordPress Theme Clean Portfolio 1.4 - Arbitrary File Upload"
        component = make_component(tmp_path, "clean-portfolio", kind=ComponentKind.THEME)
        plan = build_plan(parse_title(title), IMAGE, [component], CONFIG, edb_id=502, title=title)
        assert plan.setup_steps[-1].kind is StepKind.ACTIVATE_THEME
        assert plan.component_target(component).endswith("wp-content/themes/clean-portfolio")

    def test_component_target_for_plugins(self, tmp_path):
        plan = plugin_plan(tmp_path)
        assert plan.component_target(plan.components[0]) == (
            "/var/www/html/wp-content/plugins/sample"
        )


class TestPlanInvariants:
    def test_duplicate_slugs_rejected(self, tmp_path):
        component = make_component(tmp_path, "twin")
        with pytest.raises(ValueError, match="unique"):
            build_plan(
                parse_title("WordPress Plugin Twin 1.0 - XSS"),
                IMAGE,
                [component, component],
                CONFIG,
                edb_id=503,
                title="WordPress Plugin Twin 1.0 - XSS",
            )

    def test_slugless_copy_step_rejected(self):
        with pytest.raises(ValueError, match="slug"):
            SetupStep(StepKind.COPY_COMPONENT)

    def test_slug_on_install_step_rejected(self):
        with pytest.raises(ValueError, match="slug"):
            SetupStep(StepKind.INSTALL_CORE, slug="sample")

    def _plan_with_steps(self, tmp_path, steps) -> EnvironmentPlan:
        component = make_component(tmp_path, "sample")
        return EnvironmentPlan(
            edb_id=504,
            title="WordPress Plugin Sample 1.0 - SQL Injection",
            base_image=IMAGE,
            components=(component,),
            database=CONFIG.database,
            site=CONFIG.site,
            setup_steps=tuple(steps),
        )

    def test_admin_before_install_rejected(self, tmp_path):
        steps = [SetupStep(StepKind.CREATE_ADMIN), SetupStep(StepKind.INSTALL_CORE)]
        with pytest.raises(ValueError, match="install"):
            self._plan_with_steps(tmp_path, steps)

    def test_activation_before_copy_rejected(self, tmp_path):
        steps = [
            SetupStep(StepKind.INSTALL_CORE),
            SetupStep(StepKind.CREATE_ADMIN),
            SetupStep(StepKind.ACTIVATE_PLUGIN, "sample"),
            SetupStep(StepKind.COPY_COMPONENT, "sample"),
        ]
        with pytest.raises(ValueError, match="precedes"):
            self._plan_with_steps(tmp_path, steps)

    def test_step_against_unknown_slug_rejected(self, tmp_path):
        steps = [
            SetupStep(StepKind.INSTALL_CORE),
            SetupStep(StepKind.CREATE_ADMIN),
            SetupStep(StepKind.COPY_COMPONENT, "stranger"),
            SetupStep(StepKind.ACTIVATE_PLUGIN, "stranger"),
        ]
        with pytest.raises(ValueError, match="outside"):
            self._plan_with_steps(tmp_path, steps)

    def test_missing_admin_step_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            self._plan_with_steps(tmp_path, [SetupStep(StepKind.INSTALL_CORE)])


class TestStepRendering:
    def test_install_uses_owner_account(self):
        plan = core_plan()
        argv = render_step_argv(SetupStep(StepKind.INSTALL_CORE), plan)
        assert argv[:3] == ["wp", "--allow-root", "--path=/var/www/html"]
        assert "core" in argv and "install" in argv
        assert f"--url={plan.site.url}" in argv
        assert f"--title=edb-{plan.edb_id}" in argv
        assert f"--admin_user={plan.site.owner_user}" in argv
        assert "--skip-email" in argv

    def test_admin_step_creates_scenario_account(self):
        plan = core_plan()
        argv = render_step_argv(SetupStep(StepKind.CREATE_ADMIN), plan)
        assert "user" in argv and "create" in argv
        assert plan.site.admin_user in argv
        assert plan.site.admin_email in argv
        assert "--role=administrator" in argv
        assert plan.site.admin_user != plan.site.owner_user

    def test_copy_step_renders_existence_check(self, tmp_path):
        plan = plugin_plan(tmp_path)
        argv = render_step_argv(plan.setup_steps[2], plan)
        assert argv == ["test", "-e", "/var/www/html/wp-content/plugins/sample"]

    def test_activation_argv(self, tmp_path):
        plan = plugin_plan(tmp_path)
        argv = render_step_argv(plan.setup_steps[3], plan)
        assert argv[-3:] == ["plugin", "activate", "sample"]

    def test_step_line_is_shell_safe(self):
        plan = core_plan()
        line = render_step_line(SetupStep(StepKind.INSTALL_CORE), plan)
        assert "\n" not in line
        assert line.startswith("wp ")


class TestEmitBundle:
    def test_emits_exactly_the_declared_files(self, tmp_path):
        plan = plugin_plan(tmp_path)
        manifest = emit_bundle(plan, tmp_path / "bundle", generated_at=STAMP)
        for name in BUNDLE_FILES:
            assert (tmp_path / "bundle" / name).is_file()
        assert (tmp_path / "bundle" / "components" / "sample" / "sample.php").is_file()
        listed = set(manifest.digest_map())
        assert set(BUNDLE_FILES).issubset(listed)
        assert "components/sample/sample.php" in listed

    def test_setup_script_is_executable(self, tmp_path):
        plan = plugin_plan(tmp_path)
        emit_bundle(plan, tmp_path / "bundle", generated_at=STAMP)
        mode = (tmp_path / "bundle" / "setup.sh").stat().st_mode
        assert mode & 0o111 == 0o111

    def test_dockerfile_copies_each_component(self, tmp_path):
        plan = plugin_plan(tmp_path)
        emit_bundle(plan, tmp_path / "bundle", generated_at=STAMP)
        dockerfile = (tmp_path / "bundle" / "Dockerfile").read_text(encoding="utf-8")
        lines = dockerfile.strip().splitlines()
        assert lines[0] == "FROM wordpress:5.0"
        assert "COPY components/sample /var/www/html/wp-content/plugins/sample" in lines

    def test_core_bundle_has_no_copy_lines(self, tmp_path):
        emit_bundle(core_plan(), tmp_path / "bundle", generated_at=STAMP)
        dockerfile = (tmp_path / "bundle" / "Dockerfile").read_text(encoding="utf-8")
        assert "COPY" not in dockerfile

    def test_compose_matches_plan_settings(self, tmp_path):
        plan = plugin_plan(tmp_path)
        emit_bundle(plan, tmp_path / "bundle", generated_at=STAMP)
        parsed = yaml.safe_load((tmp_path / "bundle" / "docker-compose.yml").read_text())
        services = parsed["services"]
        assert set(services) == {"app", "db"}
        assert services["app"]["image"] == app_image_name(plan.edb_id)
        assert services["app"]["ports"] == [f"{plan.site.http_port}:80"]
        assert services["app"]["depends_on"] == ["db"]
        assert services["db"]["image"] == plan.database.image
        assert services["db"]["environment"]["MYSQL_DATABASE"] == plan.database.name

    def test_setup_script_lines_follow_plan_steps(self, tmp_path):
        plan = plugin_plan(tmp_path)
        emit_bundle(plan, tmp_path / "bundle", generated_at=STAMP)
        body = (tmp_path / "bundle" / "setup.sh").read_text(encoding="utf-8")
        lines = [l for l in body.splitlines() if l and not l.startswith("#") and l != "set -e"]
        assert len(lines) == len(plan.setup_steps)
        assert lines[0] == render_step_line(plan.setup_steps[0], plan)
        assert lines[-1].endswith("plugin activate sample")

    def test_provenance_validates_and_round_trips(self, tmp_path):
        plan = plugin_plan(tmp_path)
        emit_bundle(plan, tmp_path / "bundle", generated_at=STAMP)
        payload = json.loads((tmp_path / "bundle" / "provenance.json").read_text())
        jsonschema.validate(payload, provenance_schema())
        assert payload["edb_id"] == plan.edb_id
        assert payload["image"] == {"repository": "wordpress", "tag": "5.0"}
        assert payload["components"][0]["slug"] == "sample"
        assert payload["generated_at"] == "2021-05-01T00:00:00+00:00"

    def test_emission_is_byte_deterministic(self, tmp_path):
        plan = plugin_plan(tmp_path)
        first = emit_bundle(plan, tmp_path / "one", generated_at=STAMP)
        second = emit_bundle(plan, tmp_path / "two", generated_at=STAMP)
        assert first.digest_map() == second.digest_map()

    def test_timestamp_only_changes_provenance(self, tmp_path):
        plan = plugin_plan(tmp_path)
        first = emit_bundle(plan, tmp_path / "one", generated_at=STAMP)
        later = emit_bundle(
            plan, tmp_path / "two", generated_at=datetime(2022, 1, 1, tzinfo=timezone.utc)
        )
        differing = {
            path
            for path in first.digest_map()
            if first.digest_map()[path] != later.digest_map().get(path)
        }
        assert differing == {"provenance.json"}

    def test_unwritable_target_raises(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        with pytest.raises(BundleWriteError):
            emit_bundle(core_plan(), blocker / "bundle", generated_at=STAMP)


class TestExactAtomicEmission:
    def test_reemit_drops_files_an_earlier_run_left(self, tmp_path):
        bundle = tmp_path / "bundle"
        (bundle / "components" / "old").mkdir(parents=True)
        (bundle / "components" / "old" / "x.php").write_text("<?php // old\n", encoding="utf-8")
        (bundle / "stale.txt").write_text("left over", encoding="utf-8")
        manifest = emit_bundle(plugin_plan(tmp_path), bundle, generated_at=STAMP)
        assert not (bundle / "stale.txt").exists()
        assert not (bundle / "components" / "old").exists()
        assert "stale.txt" not in manifest.digest_map()
        assert "components/old/x.php" not in manifest.digest_map()
        assert files_on_disk(bundle) == set(manifest.digest_map())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "payloads"]

    def test_manifest_matches_the_files_on_disk(self, tmp_path):
        payload = tmp_path / "payloads" / "nested"
        (payload / "inc" / "deep").mkdir(parents=True)
        (payload / "nested.php").write_bytes(b"<?php // top\n")
        (payload / "inc" / "a.php").write_bytes(b"<?php // a\n")
        (payload / "inc-extra.php").write_bytes(b"<?php // sorts after inc/ by path parts\n")
        (payload / "inc" / "deep" / "b.js").write_bytes(bytes(range(256)))
        component = replace(make_component(tmp_path, "nested"), payload_path=payload)
        title = "WordPress Plugin Nested 1.0 - XSS"
        plan = build_plan(parse_title(title), IMAGE, [component], CONFIG, edb_id=7, title=title)
        bundle = tmp_path / "bundle"
        manifest = emit_bundle(plan, bundle, generated_at=STAMP)
        assert files_on_disk(bundle) == set(manifest.digest_map())
        for entry in manifest.files:
            assert entry.sha256 == hashlib.sha256((bundle / entry.path).read_bytes()).hexdigest()
        assert [f.path for f in manifest.files] == sorted(
            (f.path for f in manifest.files), key=lambda path: Path(path).parts
        )

    def test_failed_emission_keeps_the_earlier_bundle(self, tmp_path):
        bundle = tmp_path / "bundle"
        earlier = emit_bundle(plugin_plan(tmp_path), bundle, generated_at=STAMP)
        broken = replace(make_component(tmp_path, "sample"), payload_path=tmp_path / "missing")
        title = "WordPress Plugin Sample 1.0 - SQL Injection"
        plan = build_plan(parse_title(title), IMAGE, [broken], CONFIG, edb_id=501, title=title)
        with pytest.raises(BundleWriteError):
            emit_bundle(plan, bundle, generated_at=datetime(2022, 1, 1, tzinfo=timezone.utc))
        assert not staging_dir(bundle).exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "payloads"]
        for entry in earlier.files:
            assert hashlib.sha256((bundle / entry.path).read_bytes()).hexdigest() == entry.sha256

    def test_leftover_staging_dir_is_cleared_first(self, tmp_path):
        bundle = tmp_path / "bundle"
        (staging_dir(bundle) / "components" / "ghost").mkdir(parents=True)
        (staging_dir(bundle) / "components" / "ghost" / "g.php").write_text("x", encoding="utf-8")
        manifest = emit_bundle(core_plan(), bundle, generated_at=STAMP)
        assert set(manifest.digest_map()) == set(BUNDLE_FILES) == files_on_disk(bundle)
        assert not staging_dir(bundle).exists()

    def test_staged_payload_is_moved_not_copied(self, tmp_path, monkeypatch):
        bundle = tmp_path / "bundle"
        staged = staging_dir(bundle) / "components" / "sample"
        staged.mkdir(parents=True)
        (staged / "sample.php").write_text("<?php // staged\n", encoding="utf-8")
        component = replace(make_component(tmp_path, "sample"), payload_path=staged)
        title = "WordPress Plugin Sample 1.0 - SQL Injection"
        plan = build_plan(parse_title(title), IMAGE, [component], CONFIG, edb_id=501, title=title)
        copies = []
        monkeypatch.setattr("vulnwp.iac.shutil.copytree", lambda *a, **k: copies.append(a))
        manifest = emit_bundle(plan, bundle, generated_at=STAMP)
        assert copies == []
        assert (bundle / "components" / "sample" / "sample.php").read_text() == "<?php // staged\n"
        assert files_on_disk(bundle) == set(manifest.digest_map())
        assert not staging_dir(bundle).exists()


class TestComposeSubset:
    def _emitted(self, tmp_path) -> str:
        emit_bundle(plugin_plan(tmp_path), tmp_path / "bundle", generated_at=STAMP)
        return (tmp_path / "bundle" / "docker-compose.yml").read_text(encoding="utf-8")

    def test_accepts_emitted_compose(self, tmp_path):
        validate_compose_subset(self._emitted(tmp_path))

    def _mutate(self, tmp_path, transform) -> str:
        parsed = yaml.safe_load(self._emitted(tmp_path))
        transform(parsed)
        return yaml.safe_dump(parsed)

    def test_rejects_top_level_version_key(self, tmp_path):
        def add_version(doc):
            doc["version"] = "3.8"

        with pytest.raises(ValueError):
            validate_compose_subset(self._mutate(tmp_path, add_version))

    def test_rejects_third_service(self, tmp_path):
        def add_cache(doc):
            doc["services"]["cache"] = {"image": "redis:6"}

        with pytest.raises(ValueError):
            validate_compose_subset(self._mutate(tmp_path, add_cache))

    def test_rejects_build_key(self, tmp_path):
        def add_build(doc):
            doc["services"]["app"]["build"] = "."

        with pytest.raises(ValueError):
            validate_compose_subset(self._mutate(tmp_path, add_build))

    def test_rejects_malformed_port(self, tmp_path):
        def break_port(doc):
            doc["services"]["app"]["ports"] = [8080]

        with pytest.raises(ValueError):
            validate_compose_subset(self._mutate(tmp_path, break_port))

    def test_rejects_missing_dependency(self, tmp_path):
        def drop_dep(doc):
            del doc["services"]["app"]["depends_on"]

        with pytest.raises(ValueError):
            validate_compose_subset(self._mutate(tmp_path, drop_dep))

    def test_rejects_mutual_dependency(self, tmp_path):
        def add_dep(doc):
            doc["services"]["db"]["depends_on"] = ["app"]

        with pytest.raises(ValueError):
            validate_compose_subset(self._mutate(tmp_path, add_dep))

    def test_rejects_non_mapping_document(self):
        with pytest.raises(ValueError):
            validate_compose_subset("- just\n- a\n- list\n")


def test_app_image_name_is_id_scoped():
    assert app_image_name(103) == "vulnwp-103"
