from __future__ import annotations

import errno
import hashlib
import json
import os
import shlex
import stat
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import jsonschema
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnwp.config import DatabaseSpec, GeneratorConfig
from vulnwp.errors import BundleWriteError
from vulnwp.pipeline import GenerationOutcome, OutcomeStatus
from vulnwp.iac import (
    BUNDLE_FILES,
    BundleManifest,
    EnvironmentPlan,
    FileDigest,
    app_image_name,
    build_plan,
    _render_provenance,
    emit_bundle,
    provenance_schema,
    setup_commands,
    stage_bundle,
    staging_dir,
    validate_compose_subset,
)
from vulnwp.reporting import read_outcomes, write_outcomes
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


def make_component(slug: str, kind=ComponentKind.PLUGIN) -> FetchedComponent:
    return FetchedComponent(
        kind=kind,
        slug=slug,
        version=Version.parse("1.0"),
        source=ComponentSource(SourceKind.SVN_REPO, f"svn/{slug}/tags/1.0"),
    )


def stage(plan: EnvironmentPlan, bundle_dir: Path) -> None:
    """Make bundle_dir's staging dir and fetch each component's payload
    into it, as generate does: one <slug>.php per component."""
    slugs = tuple(c.slug for c in plan.components)
    for slug, dest in zip(slugs, stage_bundle(bundle_dir, slugs)):
        dest.mkdir(parents=True)
        (dest / f"{slug}.php").write_text(f"<?php // {slug}\n", encoding="utf-8")


def emit(plan: EnvironmentPlan, bundle_dir: Path, generated_at: datetime = STAMP) -> BundleManifest:
    """Stage the plan's payloads, then emit its bundle."""
    stage(plan, bundle_dir)
    return emit_bundle(plan, bundle_dir, generated_at=generated_at)


def files_on_disk(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def core_plan(edb_id: int = 500) -> EnvironmentPlan:
    title = "WordPress Core < 4.7.1 - Content Injection"
    return build_plan(parse_title(title), IMAGE, [], CONFIG, edb_id=edb_id, title=title)


def plugin_plan(edb_id: int = 501) -> EnvironmentPlan:
    title = "WordPress Plugin Sample 1.0 - SQL Injection"
    component = make_component("sample")
    return build_plan(parse_title(title), IMAGE, [component], CONFIG, edb_id=edb_id, title=title)


def theme_plan(edb_id: int = 502) -> EnvironmentPlan:
    title = "WordPress Theme Clean Portfolio 1.4 - Arbitrary File Upload"
    component = make_component("clean-portfolio", kind=ComponentKind.THEME)
    return build_plan(parse_title(title), IMAGE, [component], CONFIG, edb_id=edb_id, title=title)


WP = ["wp", "--allow-root", "--path=/var/www/html"]


class TestBuildPlan:
    def test_core_plan_has_no_components(self):
        plan = core_plan()
        assert plan.components == ()
        assert [argv[3:5] for argv in setup_commands(plan)] == [["core", "install"], ["user", "create"]]

    def test_plugin_plan_copies_then_activates(self):
        commands = setup_commands(plugin_plan())
        assert [argv[3:5] for argv in commands[:2]] == [["core", "install"], ["user", "create"]]
        assert commands[2:] == [
            ["test", "-e", "/var/www/html/wp-content/plugins/sample"],
            WP + ["plugin", "activate", "sample"],
        ]

    def test_theme_plan_uses_theme_activation(self):
        plan = theme_plan()
        assert setup_commands(plan)[-1] == WP + ["theme", "activate", "clean-portfolio"]
        assert plan.component_target(plan.components[0]).endswith("wp-content/themes/clean-portfolio")

    def test_component_target_for_plugins(self, tmp_path):
        plan = plugin_plan()
        assert plan.component_target(plan.components[0]) == (
            "/var/www/html/wp-content/plugins/sample"
        )

    def test_components_are_set_up_in_resolution_order(self):
        title = "WordPress Plugin Sample 1.0 - SQL Injection"
        components = [make_component("zeta"), make_component("alpha", kind=ComponentKind.THEME)]
        plan = build_plan(parse_title(title), IMAGE, components, CONFIG, edb_id=505, title=title)
        assert setup_commands(plan)[2:] == [
            ["test", "-e", "/var/www/html/wp-content/plugins/zeta"],
            WP + ["plugin", "activate", "zeta"],
            ["test", "-e", "/var/www/html/wp-content/themes/alpha"],
            WP + ["theme", "activate", "alpha"],
        ]


class TestPlanInvariants:
    def test_duplicate_slugs_rejected(self, tmp_path):
        component = make_component("twin")
        with pytest.raises(ValueError, match="unique"):
            build_plan(
                parse_title("WordPress Plugin Twin 1.0 - XSS"),
                IMAGE,
                [component, component],
                CONFIG,
                edb_id=503,
                title="WordPress Plugin Twin 1.0 - XSS",
            )


class TestStepRendering:
    def test_install_uses_owner_account(self):
        plan = core_plan()
        argv = setup_commands(plan)[0]
        assert argv[:3] == WP
        assert "core" in argv and "install" in argv
        assert f"--url={plan.site.url}" in argv
        assert f"--title=edb-{plan.edb_id}" in argv
        assert f"--admin_user={plan.site.owner_user}" in argv
        assert "--skip-email" in argv

    def test_admin_step_creates_scenario_account(self):
        plan = core_plan()
        argv = setup_commands(plan)[1]
        assert "user" in argv and "create" in argv
        assert plan.site.admin_user in argv
        assert plan.site.admin_email in argv
        assert "--role=administrator" in argv
        assert plan.site.admin_user != plan.site.owner_user

    def test_copy_step_renders_existence_check(self, tmp_path):
        assert setup_commands(plugin_plan())[2] == ["test", "-e", "/var/www/html/wp-content/plugins/sample"]

    def test_activation_argv(self, tmp_path):
        assert setup_commands(plugin_plan())[3][-3:] == ["plugin", "activate", "sample"]

    def test_step_line_is_shell_safe(self, tmp_path):
        site = replace(CONFIG.site, admin_password="pw with 'quotes'; rm -rf /")
        title = "WordPress Core < 4.7.1 - Content Injection"
        plan = build_plan(parse_title(title), IMAGE, [], replace(CONFIG, site=site), edb_id=500, title=title)
        assert setup_commands(plan)[1][-1] == "--user_pass=pw with 'quotes'; rm -rf /"
        emit(plan, tmp_path / "bundle")
        body = (tmp_path / "bundle" / "setup.sh").read_text(encoding="utf-8")
        assert shlex.split(body.split("set -e\n", 1)[1]) == [arg for argv in setup_commands(plan) for arg in argv]


class TestEmitBundle:
    def test_emits_exactly_the_declared_files(self, tmp_path):
        plan = plugin_plan()
        manifest = emit(plan, tmp_path / "bundle")
        for name in BUNDLE_FILES:
            assert (tmp_path / "bundle" / name).is_file()
        assert (tmp_path / "bundle" / "components" / "sample" / "sample.php").is_file()
        listed = set(manifest.digest_map())
        assert set(BUNDLE_FILES).issubset(listed)
        assert "components/sample/sample.php" in listed

    def test_setup_script_is_executable(self, tmp_path):
        plan = plugin_plan()
        emit(plan, tmp_path / "bundle")
        mode = (tmp_path / "bundle" / "setup.sh").stat().st_mode
        assert mode & 0o111 == 0o111

    def test_dockerfile_copies_each_component(self, tmp_path):
        plan = plugin_plan()
        emit(plan, tmp_path / "bundle")
        dockerfile = (tmp_path / "bundle" / "Dockerfile").read_text(encoding="utf-8")
        lines = dockerfile.strip().splitlines()
        assert lines[0] == "FROM wordpress:5.0"
        assert "COPY components/sample /var/www/html/wp-content/plugins/sample" in lines

    def test_core_bundle_has_no_copy_lines(self, tmp_path):
        emit(core_plan(), tmp_path / "bundle")
        dockerfile = (tmp_path / "bundle" / "Dockerfile").read_text(encoding="utf-8")
        assert "COPY" not in dockerfile

    def test_compose_matches_plan_settings(self, tmp_path):
        plan = plugin_plan()
        emit(plan, tmp_path / "bundle")
        parsed = yaml.safe_load((tmp_path / "bundle" / "docker-compose.yml").read_text())
        services = parsed["services"]
        assert set(services) == {"app", "db"}
        assert services["app"]["image"] == app_image_name(plan.edb_id)
        assert services["app"]["ports"] == [f"{plan.site.http_port}:80"]
        assert services["app"]["depends_on"] == ["db"]
        assert services["db"]["image"] == plan.database.image
        assert services["db"]["environment"]["MYSQL_DATABASE"] == plan.database.name

    def test_setup_script_lines_follow_plan_steps(self, tmp_path):
        plan = plugin_plan()
        emit(plan, tmp_path / "bundle")
        body = (tmp_path / "bundle" / "setup.sh").read_text(encoding="utf-8")
        lines = [l for l in body.splitlines() if l and not l.startswith("#") and l != "set -e"]
        assert [shlex.split(line) for line in lines] == setup_commands(plan)
        assert lines[-1].endswith("plugin activate sample")

    def test_provenance_validates_and_round_trips(self, tmp_path):
        plan = plugin_plan()
        emit(plan, tmp_path / "bundle")
        payload = json.loads((tmp_path / "bundle" / "provenance.json").read_text())
        jsonschema.validate(payload, provenance_schema())
        assert payload["edb_id"] == plan.edb_id
        assert payload["image"] == {"repository": "wordpress", "tag": "5.0"}
        assert payload["components"][0]["slug"] == "sample"
        assert payload["generated_at"] == "2021-05-01T00:00:00+00:00"

    def test_emission_is_byte_deterministic(self, tmp_path):
        plan = plugin_plan()
        first = emit(plan, tmp_path / "one")
        second = emit(plan, tmp_path / "two")
        assert first.digest_map() == second.digest_map()

    def test_timestamp_only_changes_provenance(self, tmp_path):
        plan = plugin_plan()
        first = emit(plan, tmp_path / "one")
        later = emit(plan, tmp_path / "two", generated_at=datetime(2022, 1, 1, tzinfo=timezone.utc))
        differing = {
            path
            for path in first.digest_map()
            if first.digest_map()[path] != later.digest_map().get(path)
        }
        assert differing == {"provenance.json"}

    def test_unwritable_target_raises(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        with pytest.raises(OSError):
            stage_bundle(blocker / "bundle")
        with pytest.raises(BundleWriteError):
            emit_bundle(core_plan(), blocker / "bundle", generated_at=STAMP)


_SCRIPT_HEAD = (
    "#!/bin/sh\n"
    "# Post-boot site configuration. Run inside the application container.\n"
    "set -e\n"
)
_WP = "wp --allow-root --path=/var/www/html"
_ADMIN = f"{_WP} user create admin admin@example.test --role=administrator --user_pass=password123\n"


def _install(edb_id: int) -> str:
    return (
        f"{_WP} core install --url=http://localhost:8080 --title=edb-{edb_id} --admin_user=sysop"
        " --admin_password=sysop-install-pw --admin_email=sysop@example.test --skip-email\n"
    )


class TestSetupScriptText:
    """setup.sh byte for byte, for each kind of plan."""

    def script(self, plan: EnvironmentPlan, tmp_path: Path) -> str:
        emit(plan, tmp_path / "bundle")
        return (tmp_path / "bundle" / "setup.sh").read_text(encoding="utf-8")

    def test_core_plan(self, tmp_path):
        assert self.script(core_plan(), tmp_path) == _SCRIPT_HEAD + _install(500) + _ADMIN

    def test_plugin_plan(self, tmp_path):
        assert self.script(plugin_plan(), tmp_path) == (
            _SCRIPT_HEAD + _install(501) + _ADMIN
            + "test -e /var/www/html/wp-content/plugins/sample\n"
            + f"{_WP} plugin activate sample\n"
        )

    def test_theme_plan(self, tmp_path):
        assert self.script(theme_plan(), tmp_path) == (
            _SCRIPT_HEAD + _install(502) + _ADMIN
            + "test -e /var/www/html/wp-content/themes/clean-portfolio\n"
            + f"{_WP} theme activate clean-portfolio\n"
        )


class TestExactAtomicEmission:
    def test_reemit_drops_files_an_earlier_run_left(self, tmp_path):
        bundle = tmp_path / "bundle"
        (bundle / "components" / "old").mkdir(parents=True)
        (bundle / "components" / "old" / "x.php").write_text("<?php // old\n", encoding="utf-8")
        (bundle / "stale.txt").write_text("left over", encoding="utf-8")
        manifest = emit(plugin_plan(), bundle)
        assert not (bundle / "stale.txt").exists()
        assert not (bundle / "components" / "old").exists()
        assert "stale.txt" not in manifest.digest_map()
        assert "components/old/x.php" not in manifest.digest_map()
        assert files_on_disk(bundle) == set(manifest.digest_map())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle"]

    def test_manifest_matches_the_files_on_disk(self, tmp_path):
        bundle = tmp_path / "bundle"
        [payload] = stage_bundle(bundle, ("nested",))
        (payload / "inc" / "deep").mkdir(parents=True)
        (payload / "nested.php").write_bytes(b"<?php // top\n")
        (payload / "inc" / "a.php").write_bytes(b"<?php // a\n")
        (payload / "inc-extra.php").write_bytes(b"<?php // sorts after inc/ by path parts\n")
        (payload / "inc" / "deep" / "b.js").write_bytes(bytes(range(256)))
        title = "WordPress Plugin Nested 1.0 - XSS"
        plan = build_plan(parse_title(title), IMAGE, [make_component("nested")], CONFIG, edb_id=7, title=title)
        manifest = emit_bundle(plan, bundle, generated_at=STAMP)
        assert files_on_disk(bundle) == set(manifest.digest_map())
        for entry in manifest.files:
            assert entry.sha256 == hashlib.sha256((bundle / entry.path).read_bytes()).hexdigest()
        assert [f.path for f in manifest.files] == sorted(
            (f.path for f in manifest.files), key=lambda path: Path(path).parts
        )

    @pytest.mark.parametrize("staged", [(), ("sample", "stranger")], ids=["unstaged", "unplanned"])
    def test_failed_emission_keeps_the_earlier_bundle(self, tmp_path, staged):
        bundle = tmp_path / "bundle"
        emit(plugin_plan(), bundle)
        before = {path: (bundle / path).read_bytes() for path in files_on_disk(bundle)}
        for dest in stage_bundle(bundle, staged):
            dest.mkdir(parents=True)
            (dest / "x.php").write_text("<?php // staged\n", encoding="utf-8")
        with pytest.raises(BundleWriteError, match="staged"):
            emit_bundle(plugin_plan(), bundle, generated_at=datetime(2022, 1, 1, tzinfo=timezone.utc))
        assert not staging_dir(bundle).exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle"]
        assert {path: (bundle / path).read_bytes() for path in files_on_disk(bundle)} == before

    def test_leftover_staging_dir_is_cleared_first(self, tmp_path):
        bundle = tmp_path / "bundle"
        (staging_dir(bundle) / "components" / "ghost").mkdir(parents=True)
        (staging_dir(bundle) / "components" / "ghost" / "g.php").write_text("x", encoding="utf-8")
        manifest = emit(core_plan(), bundle)
        assert set(manifest.digest_map()) == set(BUNDLE_FILES) == files_on_disk(bundle)
        assert not staging_dir(bundle).exists()

    def test_staging_for_a_fetch_makes_only_the_parent(self, tmp_path):
        bundle = tmp_path / "out" / "bundle"
        staging_dir(bundle).mkdir(parents=True)
        (staging_dir(bundle) / "left.txt").write_text("crashed run", encoding="utf-8")
        assert stage_bundle(bundle, ("a", "b")) == [
            staging_dir(bundle) / "components" / "a",
            staging_dir(bundle) / "components" / "b",
        ]
        assert list((tmp_path / "out").iterdir()) == []

    def test_staged_payload_is_moved_not_copied(self, tmp_path, monkeypatch):
        bundle = tmp_path / "bundle"
        [staged] = stage_bundle(bundle, ("sample",))
        assert staged == staging_dir(bundle) / "components" / "sample"
        staged.mkdir(parents=True)
        (staged / "sample.php").write_text("<?php // staged\n", encoding="utf-8")
        copies = []
        monkeypatch.setattr("vulnwp.iac.shutil.copytree", lambda *a, **k: copies.append(a))
        manifest = emit_bundle(plugin_plan(), bundle, generated_at=STAMP)
        assert copies == []
        assert (bundle / "components" / "sample" / "sample.php").read_text() == "<?php // staged\n"
        assert files_on_disk(bundle) == set(manifest.digest_map())
        assert not staging_dir(bundle).exists()


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestRenderedFileWrites:
    def test_modes_under_a_strict_umask(self, tmp_path):
        previous = os.umask(0o077)
        try:
            emit(plugin_plan(), tmp_path / "bundle")
        finally:
            os.umask(previous)
        modes = {name: stat.S_IMODE((tmp_path / "bundle" / name).stat().st_mode) for name in BUNDLE_FILES}
        assert modes == {
            "Dockerfile": 0o600,
            "docker-compose.yml": 0o600,
            "setup.sh": 0o755,
            "provenance.json": 0o600,
        }

    def test_short_writes_give_the_same_bundle(self, tmp_path, monkeypatch):
        plan = plugin_plan()
        normal = emit(plan, tmp_path / "normal")
        real_write = os.write
        calls = []

        def one_byte(fd, data):
            calls.append(fd)
            return real_write(fd, data[:1])

        monkeypatch.setattr("vulnwp.iac.os.write", one_byte)
        short = emit(plan, tmp_path / "short")
        monkeypatch.undo()
        assert short.digest_map() == normal.digest_map()
        rendered = 0
        for name in BUNDLE_FILES:
            body = (tmp_path / "short" / name).read_bytes()
            assert body == (tmp_path / "normal" / name).read_bytes()
            rendered += len(body)
        assert len(calls) >= rendered

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("failing", ["write", "fchmod"])
    def test_no_descriptor_stays_open(self, tmp_path, monkeypatch, failing):
        before = open_descriptors()
        emit(plugin_plan(), tmp_path / "bundle")
        assert open_descriptors() == before

        def fail(*args):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(f"vulnwp.iac.os.{failing}", fail)
        with pytest.raises(BundleWriteError):
            emit(core_plan(), tmp_path / "failed")
        monkeypatch.undo()
        assert open_descriptors() == before
        assert not staging_dir(tmp_path / "failed").exists()


# Printable text, characters outside the BMP included, and values a plain
# YAML scalar would misread: a comment, a key, quotes, a backslash, spaces
# around the value, a number, a bool and null.
_printable = st.text(
    st.characters(whitelist_categories=("L", "M", "N", "P", "S")) | st.just(" "), min_size=1, max_size=12
) | st.sampled_from(
    ["pw #x", "a: b", '"', "'", "\\", " wordpress ", "123", "true", "~", "\U0001f600", "- x", "[x]", "{x}", "&a *a !t %x @x `x"]
)


class TestComposeSubset:
    def _emitted(self, tmp_path) -> str:
        emit(plugin_plan(), tmp_path / "bundle")
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

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({name: _printable for name in DatabaseSpec.__dataclass_fields__}))
    def test_every_database_value_reads_back_as_itself(self, values):
        config = GeneratorConfig(database=DatabaseSpec(**values))
        title = "WordPress Core < 4.7.1 - Content Injection"
        plan = build_plan(parse_title(title), IMAGE, [], config, edb_id=500, title=title)
        with tempfile.TemporaryDirectory() as tmp:
            emit(plan, Path(tmp) / "bundle")
            text = (Path(tmp) / "bundle" / "docker-compose.yml").read_text(encoding="utf-8")
        services = validate_compose_subset(text)["services"]
        assert services["db"]["image"] == values["image"]
        assert services["db"]["environment"] == {
            "MYSQL_DATABASE": values["name"],
            "MYSQL_PASSWORD": values["password"],
            "MYSQL_ROOT_PASSWORD": values["root_password"],
            "MYSQL_USER": values["user"],
        }
        assert services["app"]["environment"] == {
            "WORDPRESS_DB_HOST": "db",
            "WORDPRESS_DB_NAME": values["name"],
            "WORDPRESS_DB_PASSWORD": values["password"],
            "WORDPRESS_DB_USER": values["user"],
        }


def test_app_image_name_is_id_scoped():
    assert app_image_name(103) == "vulnwp-103"


# Text with quotes, backslashes, control characters, non-ASCII letters,
# line separators and lone surrogates, all of which JSON escapes.
_texts = st.text(st.characters(blacklist_categories=()), max_size=10) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u00e9\u65e5\u2028", "\ud800", "a\"b\\c\n"]
)


@st.composite
def provenance_plans(draw) -> EnvironmentPlan:
    slugs = draw(st.lists(_texts.filter(bool), unique=True, max_size=3))
    components = [
        FetchedComponent(
            kind=draw(st.sampled_from(ComponentKind)),
            slug=slug,
            version=draw(st.none() | st.lists(st.integers(0, 10**6), min_size=1, max_size=4).map(
                lambda segments: Version(tuple(segments), ".".join(map(str, segments)))
            )),
            source=ComponentSource(draw(st.sampled_from(SourceKind)), draw(_texts.filter(bool))),
        )
        for slug in slugs
    ]
    image = ImageRef(draw(_texts), draw(_texts), Version.parse("5.0"))
    return build_plan(
        parse_title("WordPress Plugin Sample 1.0 - XSS"),
        image,
        components,
        CONFIG,
        edb_id=draw(st.integers(-(10**12), 10**12)),
        title=draw(_texts),
        unused_app_archive=draw(st.none() | _texts),
    )


def reference_provenance(plan: EnvironmentPlan, generated_at: datetime) -> str:
    payload = {
        "edb_id": plan.edb_id,
        "title": plan.title,
        "generated_at": generated_at.isoformat(),
        "image": {"repository": plan.base_image.repository, "tag": plan.base_image.tag},
        "components": [
            {
                "kind": c.kind.value,
                "slug": c.slug,
                "version": str(c.version) if c.version else None,
                "source": {"kind": c.source.kind.value, "locator": c.source.locator},
            }
            for c in plan.components
        ],
        "unused_app_archive": plan.unused_app_archive,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestProvenanceRendering:
    @settings(max_examples=300, deadline=None)
    @given(provenance_plans(), st.datetimes(timezones=st.none() | st.just(timezone.utc)))
    def test_matches_the_indenting_json_encoder(self, plan, generated_at):
        assert _render_provenance(plan, generated_at) == reference_provenance(plan, generated_at)

    def test_no_components_and_a_null_version(self, tmp_path):
        core = core_plan()
        assert '"components": [],' in _render_provenance(core, STAMP)
        assert _render_provenance(core, STAMP) == reference_provenance(core, STAMP)
        component = replace(make_component("sample"), version=None)
        title = "WordPress Plugin Sample - XSS"
        plan = build_plan(parse_title(title), IMAGE, [component], CONFIG, edb_id=9, title=title)
        assert '"version": null' in _render_provenance(plan, STAMP)
        assert _render_provenance(plan, STAMP) == reference_provenance(plan, STAMP)


class TestBundleManifest:
    @given(st.permutations(["components/a-b/x.php", "Dockerfile", "components/a/y.php", "setup.sh"]))
    def test_files_sort_by_path_parts_whatever_the_insertion_order(self, paths):
        manifest = BundleManifest("out/1", {path: "0" for path in paths})
        assert [f.path for f in manifest.files] == [
            "Dockerfile", "components/a/y.php", "components/a-b/x.php", "setup.sh",
        ]

    @given(st.permutations([("components/a-b/x.php", "11"), ("Dockerfile", "22"), ("setup.sh", "33")]))
    def test_equal_and_hash_equal_whatever_the_insertion_order(self, items):
        manifest = BundleManifest(Path("out/1"), dict(items))
        other = BundleManifest("out/1", dict(reversed(items)))
        assert manifest == other
        assert hash(manifest) == hash(other)
        assert manifest != BundleManifest("out/2", dict(items))
        assert manifest != BundleManifest("out/1", {**dict(items), "setup.sh": "44"})

    def emitted(self, tmp_path) -> BundleManifest:
        bundle = str(tmp_path / "bundle")
        [payload] = stage_bundle(bundle, ("nested",))
        (payload / "a").mkdir(parents=True)
        (payload / "a-b").mkdir()
        (payload / "a-b" / "x.php").write_bytes(b"<?php // x\n")
        (payload / "a" / "y.php").write_bytes(b"<?php // y\n")
        title = "WordPress Plugin Nested 1.0 - XSS"
        plan = build_plan(parse_title(title), IMAGE, [make_component("nested")], CONFIG, edb_id=7, title=title)
        return emit_bundle(plan, bundle, generated_at=STAMP)

    def test_a_manifest_read_back_from_a_row_equals_the_emitted_one(self, tmp_path):
        emitted = self.emitted(tmp_path)
        outcome = GenerationOutcome(
            edb_id=7, status=OutcomeStatus.SUCCESS, elapsed=0.0, manifest=emitted
        )
        path = tmp_path / "outcomes.ndjson"
        write_outcomes([outcome], path)
        [read_back] = [o.manifest for o in read_outcomes(path)]
        assert read_back == emitted
        assert hash(read_back) == hash(emitted)
        paths = [f.path for f in read_back.files]
        assert paths.index("components/nested/a/y.php") < paths.index("components/nested/a-b/x.php")

    def test_bundle_dir_is_kept_as_handed(self, tmp_path):
        emitted = self.emitted(tmp_path)
        row = {"edb_id": 7, "status": "success", "elapsed": 0.0,
               "bundle": {"dir": str(tmp_path / "bundle"), "files": emitted.digest_map()}}
        path = tmp_path / "outcomes.ndjson"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        [read_back] = [o.manifest for o in read_outcomes(path)]
        assert emitted.bundle_dir == tmp_path / "bundle"
        assert type(read_back.bundle_dir) is str
        assert read_back.bundle_dir == row["bundle"]["dir"]
        assert read_back == emitted

    def test_changing_the_digest_map_copy_leaves_the_manifest_alone(self):
        manifest = BundleManifest("out/1", {"Dockerfile": "aa", "setup.sh": "bb"})
        copy = manifest.digest_map()
        copy["Dockerfile"] = "changed"
        copy["extra"] = "cc"
        assert manifest.digest_map() == {"Dockerfile": "aa", "setup.sh": "bb"}
        assert manifest.files == (FileDigest("Dockerfile", "aa"), FileDigest("setup.sh", "bb"))
