from __future__ import annotations

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import vulnwp.pipeline
from vulnwp.bootstrap import ReadinessClient, SimulatedClock
from vulnwp.corpus import load_corpus
from vulnwp.errors import DictionaryUnavailableError
from vulnwp.iac import BUNDLE_FILES, setup_commands, staging_dir
from vulnwp.pipeline import (
    FailureReason,
    GenerationMode,
    GenerationOutcome,
    OutcomeStatus,
    PipelineServices,
    generate,
    resolve,
    resolve_constraint,
)
from vulnwp.reporting import read_outcomes, run_batch, write_outcomes
from vulnwp.resolvers import (
    DiskSvnMirror,
    DockerHubTagIndex,
    FixtureTagIndex,
    HttpSvnMirror,
    LinkDownloader,
    SourceClients,
    SvnMirror,
    TagIndex,
)
from vulnwp.titles import parse_title
from vulnwp.versions import CpeDictionary, FixtureCpeDictionary, Version, VersionConstraint

from conftest import E2E_EXPECTED, make_record
from test_bootstrap import RecordingExecutor, ScriptedClient


def ver(text: str) -> Version:
    return Version.parse(text)


class TestResolveConstraint:
    def _cpe(self, e2e_tree) -> FixtureCpeDictionary:
        return FixtureCpeDictionary(e2e_tree.fixtures_dir / "cpe_dictionary.json")

    def test_title_version_wins_over_everything(self, e2e_tree):
        record = make_record(
            title="WordPress Plugin Sample 1.0 - SQL Injection",
            header={"version": "9.9"},
            cve_ids=("CVE-2015-9999",),
        )
        parsed = parse_title(record.title)
        assert resolve_constraint(record, parsed, self._cpe(e2e_tree)) == (
            VersionConstraint.exact(ver("1.0"))
        )

    def test_poc_fills_in_when_title_is_versionless(self):
        record = make_record(
            title="WordPress Plugin Sample - SQL Injection",
            header={"version": "2.0.1"},
        )
        parsed = parse_title(record.title)
        assert resolve_constraint(record, parsed, None) == VersionConstraint.exact(ver("2.0.1"))

    def test_cpe_consulted_only_when_cves_exist(self, e2e_tree):
        record = make_record(title="WordPress Plugin Quiz Maker - Blind SQL Injection")
        parsed = parse_title(record.title)
        assert resolve_constraint(record, parsed, self._cpe(e2e_tree)) is None

    def test_cpe_resolves_product_matching_versions(self, e2e_tree):
        record = make_record(
            title="WordPress Plugin Quiz Maker - Blind SQL Injection",
            cve_ids=("CVE-2015-9999",),
        )
        parsed = parse_title(record.title)
        assert resolve_constraint(record, parsed, self._cpe(e2e_tree)) == (
            VersionConstraint.exact(ver("2.1"))
        )

    def test_cpe_entries_for_other_products_are_ignored(self, e2e_tree):
        record = make_record(
            title="WordPress Plugin Unrelated Widget - SQL Injection",
            cve_ids=("CVE-2015-9999",),
        )
        parsed = parse_title(record.title)
        assert resolve_constraint(record, parsed, self._cpe(e2e_tree)) is None

    def test_core_record_matches_wordpress_product(self, e2e_tree):
        record = make_record(
            title="WordPress Core - User Enumeration", cve_ids=("CVE-2017-5487",)
        )
        parsed = parse_title(record.title)
        assert resolve_constraint(record, parsed, self._cpe(e2e_tree)) == (
            VersionConstraint.exact(ver("4.7"))
        )

    def test_unknown_cve_downgrades_to_none(self, e2e_tree):
        record = make_record(
            title="WordPress Core - User Enumeration", cve_ids=("CVE-1999-0001",)
        )
        parsed = parse_title(record.title)
        assert resolve_constraint(record, parsed, self._cpe(e2e_tree)) is None

    def test_unavailable_dictionary_downgrades_to_none(self):
        record = make_record(
            title="WordPress Core - User Enumeration", cve_ids=("CVE-2017-5487",)
        )
        parsed = parse_title(record.title)
        assert resolve_constraint(record, parsed, UnavailableCpeDictionary()) is None


class UnavailableCpeDictionary(CpeDictionary):
    def cpes_for(self, cve_id):
        raise DictionaryUnavailableError("dictionary offline")


@pytest.fixture()
def services(e2e_tree, tmp_path):
    return e2e_tree.services(tmp_path / "out", tmp_path / "work")


class UncalledSvnMirror(SvnMirror):
    def export(self, kind, slug, version, dest):
        raise AssertionError(f"SVN export of {slug}")


class UncalledLinkDownloader(LinkDownloader):
    def fetch(self, url, dest):
        raise AssertionError(f"link fetch of {url}")


class UnlistedTagIndex(TagIndex):
    def list_tags(self):
        raise AssertionError("the registry was listed")


class TestResolve:
    @pytest.mark.parametrize("version_expr, expected", [
        ("4.7", "4.7"),
        ("<= 3.4", "3.4"),
        ("4.7.0/4.7.1", "4.7.1"),
        ("< 2.0", None),  # names no vulnerable version, so the checkout is trunk
        (None, None),  # versionless, resolved through its attached archive
    ])
    def test_checkout_version(self, services, tmp_path, version_expr, expected):
        archive = tmp_path / "sample.zip"
        archive.write_bytes(b"")
        title = f"WordPress Plugin Sample {version_expr or ''} - SQL Injection".replace("  ", " ")
        resolution = resolve(make_record(title=title, app_archive=archive), services)
        assert resolution.reason is None
        assert resolution.slug == "sample"
        assert resolution.version == (ver(expected) if expected else None)

    @pytest.mark.parametrize("edb_id", sorted(E2E_EXPECTED))
    def test_decides_without_fetching_or_writing(self, e2e_tree, e2e_corpus, tmp_path, edb_id):
        out_dir = tmp_path / "absent"
        services = replace(
            e2e_tree.services(out_dir, tmp_path / "work"),
            sources=SourceClients(svn=UncalledSvnMirror(), link=UncalledLinkDownloader()),
        )
        resolution = resolve(e2e_corpus.records[edb_id], services)
        status, reason, image, _ = E2E_EXPECTED[edb_id]
        # 106 and 115 find no payload and 116 a corrupt one, all at the fetch.
        if edb_id in (106, 115, 116):
            assert (resolution.reason, str(resolution.image)) == (None, "wordpress:5.0")
        elif status == "success":
            assert (resolution.reason, str(resolution.image)) == (None, image)
        else:
            assert (resolution.reason.value, resolution.image) == (reason, None)
        assert not out_dir.exists()

    @pytest.mark.parametrize("title, archived, reason", [
        ("WordPress Core - Denial of Service", False, FailureReason.UNKNOWN_VERSION),
        ("WordPress Plugin Sample - SQL Injection", False, FailureReason.NO_VULNERABLE_APPLICATION),
        ("WordPress Plugin !!! 1.0 - SQL Injection", False, FailureReason.NO_IMAGE),
        ("WordPress Core 4.7 - Cross-Site Scripting", True, FailureReason.NO_IMAGE),
    ])
    def test_reason_on_an_empty_registry(self, services, tmp_path, title, archived, reason):
        archive = tmp_path / "poc.zip"
        archive.write_bytes(b"")
        record = make_record(title=title, app_archive=archive if archived else None)
        resolution = resolve(record, replace(services, registry=FixtureTagIndex([])))
        assert resolution.reason is reason
        assert resolution.unused_app_archive == (str(archive) if archived else None)


class TestGenerateAcrossCorpus:
    @pytest.mark.parametrize("edb_id", sorted(E2E_EXPECTED))
    def test_record_resolves_as_expected(self, e2e_corpus, services, edb_id):
        outcome = generate(e2e_corpus.records[edb_id], services)
        status, reason, image, sources = E2E_EXPECTED[edb_id]
        assert outcome.status.value == status
        assert (outcome.reason.value if outcome.reason else None) == reason
        assert outcome.image == image
        assert tuple(outcome.sources) == sources
        assert outcome.edb_id == edb_id

    def test_success_leaves_a_complete_bundle(self, e2e_corpus, services):
        outcome = generate(e2e_corpus.records[103], services)
        bundle = services.out_dir / "103"
        for name in BUNDLE_FILES:
            assert (bundle / name).is_file()
        assert outcome.manifest is not None
        assert outcome.manifest.bundle_dir == bundle
        assert (bundle / "components" / "quiz-master" / "quiz-master.php").is_file()

    @pytest.mark.parametrize("edb_id", [102, 106, 107, 108, 115, 116, 117, 119])
    def test_failures_write_no_bundle(self, e2e_corpus, services, edb_id):
        generate(e2e_corpus.records[edb_id], services)
        assert not (services.out_dir / str(edb_id)).exists()

    def test_core_record_with_archive_records_it_unused(self, e2e_corpus, services):
        outcome = generate(e2e_corpus.records[119], services)
        assert outcome.reason is FailureReason.NO_IMAGE
        assert outcome.unused_app_archive is not None
        assert outcome.unused_app_archive.endswith("119.zip")

    def test_extensionless_core_success_has_empty_components(self, e2e_corpus, services):
        outcome = generate(e2e_corpus.records[101], services)
        assert outcome.plan is not None
        assert outcome.plan.components == ()

    def test_versionless_svn_fetch_uses_trunk(self, e2e_corpus, services):
        outcome = generate(e2e_corpus.records[118], services)
        locator = outcome.plan.components[0].source.locator
        assert locator.endswith("trunk")

    def test_exclusive_bound_fetch_skips_tags(self, e2e_corpus, services):
        # "< 2.0" names no vulnerable version, so the SVN lookup goes to
        # trunk, misses, and the attached archive is unpacked instead.
        outcome = generate(e2e_corpus.records[120], services)
        assert outcome.sources == ("exploitdb-app",)

    def test_emission_is_deterministic_across_runs(self, e2e_tree, e2e_corpus, tmp_path):
        first = e2e_tree.services(tmp_path / "out1", tmp_path / "work1")
        second = e2e_tree.services(tmp_path / "out2", tmp_path / "work2")
        a = generate(e2e_corpus.records[103], first)
        b = generate(e2e_corpus.records[103], second)
        assert a.manifest.digest_map() == b.manifest.digest_map()


class TestGenerateEdges:
    def test_all_miss_record_leaves_nothing_under_out_dir(self, e2e_corpus, services, monkeypatch):
        # With no staging directory left over, none is removed either.
        removals = []
        rmtree = shutil.rmtree
        monkeypatch.setattr(shutil, "rmtree", lambda *a, **k: removals.append(a) or rmtree(*a, **k))
        outcome = generate(e2e_corpus.records[106], services)
        assert outcome.reason is FailureReason.NO_VULNERABLE_APPLICATION
        assert not services.out_dir.exists() or not any(services.out_dir.iterdir())
        assert removals == []

    def test_archive_removed_after_load_is_a_fetch_failure(self, e2e_tree, services, tmp_path):
        # The loader's listing settles that the archive is there; 105 has no
        # SVN tree and no software link, so the attached archive is its source.
        corpus_dir = tmp_path / "corpus"
        shutil.copytree(e2e_tree.corpus_dir, corpus_dir)
        corpus = load_corpus(corpus_dir / "files_exploits.csv", corpus_dir)
        (corpus_dir / "apps" / "105.zip").unlink()
        outcome = generate(corpus.records[105], services)
        assert outcome.reason is FailureReason.FETCH_FAILURE
        assert not services.out_dir.exists() or not any(services.out_dir.iterdir())

    def test_unwritable_out_dir_is_a_setup_error(self, e2e_tree, e2e_corpus, tmp_path):
        blocker = tmp_path / "out"
        blocker.write_text("file in the way", encoding="utf-8")
        services = e2e_tree.services(blocker, tmp_path / "work")
        # A core record fails at emission, a plugin record before its fetch.
        for edb_id in (101, 103):
            outcome = generate(e2e_corpus.records[edb_id], services)
            assert outcome.status is OutcomeStatus.FAILURE
            assert outcome.reason is FailureReason.ERROR_DURING_SETUP, edb_id

    def test_bootstrap_mode_requires_clients(self, e2e_corpus, services):
        # Refused before the record is resolved: no registry listing, no
        # bundle and no staging directory.
        services.registry = UnlistedTagIndex()
        with pytest.raises(ValueError):
            generate(e2e_corpus.records[103], services, mode=GenerationMode.EMIT_AND_BOOTSTRAP)
        assert not services.out_dir.exists() or list(services.out_dir.iterdir()) == []

    def test_bootstrap_mode_polls_then_configures(self, e2e_tree, e2e_corpus, tmp_path):
        clock = SimulatedClock()
        services = e2e_tree.services(tmp_path / "out", tmp_path / "work", clock=clock)
        services.readiness = ScriptedClient(clock, ready_at=25.0)
        services.executor = RecordingExecutor()
        outcome = generate(
            e2e_corpus.records[103], services, mode=GenerationMode.EMIT_AND_BOOTSTRAP
        )
        assert outcome.is_success
        assert services.readiness.calls == [0.0, 10.0, 20.0, 30.0]
        # Build and compose up, then one exec per setup command.
        assert len(services.executor.calls) == 2 + len(setup_commands(outcome.plan))
        assert {cwd for _, cwd in services.executor.calls} == {tmp_path / "out" / "103"}

    def test_bootstrap_timeout_is_a_setup_error(self, e2e_tree, e2e_corpus, tmp_path):
        clock = SimulatedClock()
        services = e2e_tree.services(tmp_path / "out", tmp_path / "work", clock=clock)
        services.readiness = ScriptedClient(clock, ready_at=None)
        services.executor = RecordingExecutor()
        outcome = generate(
            e2e_corpus.records[103], services, mode=GenerationMode.EMIT_AND_BOOTSTRAP
        )
        assert outcome.reason is FailureReason.ERROR_DURING_SETUP

    def test_failed_setup_step_is_a_setup_error(self, e2e_tree, e2e_corpus, tmp_path):
        clock = SimulatedClock()
        services = e2e_tree.services(tmp_path / "out", tmp_path / "work", clock=clock)
        services.readiness = ScriptedClient(clock, ready_at=0.0)
        services.executor = RecordingExecutor(fail_on="test")
        outcome = generate(
            e2e_corpus.records[103], services, mode=GenerationMode.EMIT_AND_BOOTSTRAP
        )
        assert outcome.reason is FailureReason.ERROR_DURING_SETUP


class HollowSvnMirror(SvnMirror):
    """Creates the export directory, then finds nothing to put in it."""

    def export(self, kind, slug, version, dest):
        dest.mkdir(parents=True)
        return None


class AdminSvnMirror(SvnMirror):
    """Exports a plugin whose admin/ directory sits beside admin-ajax.php."""

    def export(self, kind, slug, version, dest):
        (dest / "admin").mkdir(parents=True)
        (dest / "admin" / "menu.php").write_text("<?php\n", encoding="utf-8")
        (dest / "admin-ajax.php").write_text("<?php\n", encoding="utf-8")
        return f"admin-fixture/{slug}"


class RefusingSession:
    """A session whose every request fails in transport."""

    calls = 0

    def get(self, url, params=None, timeout=None):
        self.calls += 1
        raise ConnectionError(f"connection to {url} refused")


class TestStagedEmission:
    def test_miss_that_created_dest_leaves_nothing_under_out_dir(self, e2e_corpus, services):
        services.sources.svn = HollowSvnMirror()
        outcome = generate(e2e_corpus.records[106], services)
        assert outcome.reason is FailureReason.NO_VULNERABLE_APPLICATION
        assert not any(services.out_dir.iterdir())

    def test_payload_is_fetched_into_the_staging_dir(self, e2e_corpus, services, monkeypatch):
        dests = []
        fetch = vulnwp.pipeline.fetch_component

        def recording_fetch(**kwargs):
            dests.append(kwargs["dest"])
            return fetch(**kwargs)

        monkeypatch.setattr(vulnwp.pipeline, "fetch_component", recording_fetch)
        outcome = generate(e2e_corpus.records[103], services)
        bundle = services.out_dir / "103"
        slug = outcome.plan.components[0].slug
        assert dests == [staging_dir(bundle) / "components" / slug]
        assert not dests[0].exists()
        assert not staging_dir(bundle).exists()
        on_disk = {p.relative_to(bundle).as_posix() for p in bundle.rglob("*") if p.is_file()}
        assert on_disk == set(outcome.manifest.digest_map())
        assert sorted(p.name for p in services.out_dir.iterdir()) == ["103"]

    def test_regeneration_leaves_no_stale_files(self, e2e_corpus, services):
        first = generate(e2e_corpus.records[103], services)
        bundle = services.out_dir / "103"
        (bundle / "stale.txt").write_text("left over", encoding="utf-8")
        (bundle / "components" / "old").mkdir()
        (bundle / "components" / "old" / "x.php").write_text("<?php\n", encoding="utf-8")
        second = generate(e2e_corpus.records[103], services)
        assert second.manifest.digest_map() == first.manifest.digest_map()
        on_disk = {p.relative_to(bundle).as_posix() for p in bundle.rglob("*") if p.is_file()}
        assert on_disk == set(second.manifest.digest_map())

    def test_leftover_staging_dir_does_not_merge_into_the_payload(self, e2e_corpus, services):
        clean = generate(e2e_corpus.records[103], services)
        slug = clean.plan.components[0].slug
        ghost = staging_dir(services.out_dir / "103") / "components" / slug / "ghost.php"
        ghost.parent.mkdir(parents=True)
        ghost.write_text("<?php // crashed run\n", encoding="utf-8")
        again = generate(e2e_corpus.records[103], services)
        assert again.manifest.digest_map() == clean.manifest.digest_map()

    def test_fetch_failure_keeps_the_earlier_bundle(self, e2e_corpus, services):
        earlier = services.out_dir / "116"
        earlier.mkdir(parents=True)
        (earlier / "Dockerfile").write_text("FROM wordpress:5.0\n", encoding="utf-8")
        outcome = generate(e2e_corpus.records[116], services)
        assert outcome.reason is FailureReason.FETCH_FAILURE
        assert not staging_dir(earlier).exists()
        assert sorted(p.name for p in services.out_dir.iterdir()) == ["116"]
        assert [p.name for p in earlier.iterdir()] == ["Dockerfile"]
        assert (earlier / "Dockerfile").read_text(encoding="utf-8") == "FROM wordpress:5.0\n"

    def test_an_unreachable_svn_server_fails_its_records_and_the_batch_goes_on(self, e2e_corpus, services):
        services.sources.svn = HttpSvnMirror(session=RefusingSession())
        outcomes = {o.edb_id: o for o in run_batch(e2e_corpus, services)}
        assert sorted(outcomes) == sorted(e2e_corpus.records)
        from_svn = [edb_id for edb_id, expected in E2E_EXPECTED.items() if expected[3] == ("svn-repo",)]
        assert from_svn
        assert {outcomes[edb_id].reason for edb_id in from_svn} == {FailureReason.FETCH_FAILURE}

    def test_an_unreachable_registry_fails_its_records_and_the_batch_goes_on(self, tmp_path):
        demo = Path(__file__).resolve().parent.parent / "data" / "demo"
        corpus = load_corpus(demo / "corpus" / "files_exploits.csv", demo / "corpus")
        session = RefusingSession()
        svn = demo / "fixtures" / "svn"
        services = PipelineServices(
            registry=DockerHubTagIndex(session=session),
            sources=SourceClients(svn=DiskSvnMirror(svn / "plugins", svn / "themes")),
            out_dir=tmp_path / "out",
            clock=SimulatedClock(),
        )
        write_outcomes(run_batch(corpus, services), tmp_path / "outcomes.ndjson")
        rows = read_outcomes(tmp_path / "outcomes.ndjson")
        assert [(row.edb_id, row.reason) for row in rows] == [
            (edb_id, FailureReason.NO_IMAGE) for edb_id in sorted(corpus.records)
        ]
        # Nothing was kept from a failed listing, so each record asked again.
        assert session.calls == len(corpus.records)

    def test_bundle_write_error_keeps_the_earlier_bundle(self, e2e_corpus, services, monkeypatch):
        first = generate(e2e_corpus.records[103], services)
        bundle = services.out_dir / "103"

        def failing_swap(staging, target):
            raise OSError("disk full")

        monkeypatch.setattr("vulnwp.iac._swap_into_place", failing_swap)
        outcome = generate(e2e_corpus.records[103], services)
        assert outcome.reason is FailureReason.ERROR_DURING_SETUP
        assert not staging_dir(bundle).exists()
        assert sorted(p.name for p in services.out_dir.iterdir()) == ["103"]
        on_disk = {p.relative_to(bundle).as_posix() for p in bundle.rglob("*") if p.is_file()}
        assert on_disk == set(first.manifest.digest_map())


class TestOutcomeSerialization:
    def test_failure_requires_reason(self):
        with pytest.raises(ValueError):
            GenerationOutcome(edb_id=1, status=OutcomeStatus.FAILURE, elapsed=0.0)

    def test_success_refuses_reason(self):
        with pytest.raises(ValueError):
            GenerationOutcome(
                edb_id=1,
                status=OutcomeStatus.SUCCESS,
                elapsed=0.0,
                reason=FailureReason.NO_IMAGE,
            )

    def test_json_round_trip_preserves_reporting_fields(self, e2e_corpus, services, tmp_path):
        outcomes = [generate(e2e_corpus.records[i], services) for i in (101, 103, 107, 119)]
        services.sources.svn = AdminSvnMirror()
        services.out_dir = tmp_path / "admin-out"
        admin = generate(e2e_corpus.records[103], services)
        component = [f.path for f in admin.manifest.files if f.path.startswith("components/")]
        # Sorted as whole strings, "admin-ajax.php" would come first.
        assert component == [
            "components/quiz-master/admin/menu.php",
            "components/quiz-master/admin-ajax.php",
        ]
        path = tmp_path / "outcomes.ndjson"
        write_outcomes([*outcomes, admin], path)
        for outcome, rebuilt in zip([*outcomes, admin], read_outcomes(path), strict=True):
            assert rebuilt.edb_id == outcome.edb_id
            assert rebuilt.status == outcome.status
            assert rebuilt.reason == outcome.reason
            assert rebuilt.image == outcome.image
            assert rebuilt.sources == outcome.sources
            assert rebuilt.unused_app_archive == outcome.unused_app_archive
            assert rebuilt.manifest == outcome.manifest
            assert rebuilt.manifest == outcome.manifest
