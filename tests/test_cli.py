from __future__ import annotations

import json
import os
import re
import shutil
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import pytest
import yaml

import vulnwp.pipeline
import vulnwp.reporting
from vulnwp.bootstrap import SimulatedClock
from vulnwp.cli import main
from vulnwp.config import DatabaseSpec
from vulnwp.resolvers import DiskSvnMirror
from vulnwp.titles import ExploitCategory, parse_title

from conftest import E2E_RECORDS, E2ETree
from test_bootstrap import RecordingExecutor, ScriptedClient
from test_corpus import poc_reads, refuse_listing, refuse_reading  # noqa: F401  (poc_reads is a fixture)

_DEMO_DIR = Path(__file__).resolve().parent.parent / "data" / "demo"
DEMO = E2ETree(corpus_dir=_DEMO_DIR / "corpus", fixtures_dir=_DEMO_DIR / "fixtures")


STAMP = datetime(2021, 5, 1, tzinfo=timezone.utc)


def without_elapsed(row: str) -> str:
    """An outcome row with its elapsed number cut out."""
    return re.sub(r'"elapsed": [^,]+, ', "", row)


def base_args(e2e_tree, out: Path) -> list[str]:
    return [
        "--corpus",
        str(e2e_tree.corpus_dir),
        "--fixtures",
        str(e2e_tree.fixtures_dir),
        "--out",
        str(out),
    ]


class TestGenerateCommand:
    def test_success_exits_zero_and_writes_bundle(self, e2e_tree, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(base_args(e2e_tree, out) + ["generate", "--edb-id", "103"])
        assert code == 0
        assert (out / "103" / "Dockerfile").is_file()
        stdout = capsys.readouterr().out
        assert "103" in stdout
        assert "wordpress:5.0" in stdout

    def test_failed_generation_exits_two(self, e2e_tree, tmp_path, capsys):
        code = main(base_args(e2e_tree, tmp_path / "out") + ["generate", "--edb-id", "107"])
        assert code == 2
        assert "unparsable-title" in capsys.readouterr().out

    def test_unknown_id_is_a_usage_error(self, e2e_tree, tmp_path, capsys):
        code = main(base_args(e2e_tree, tmp_path / "out") + ["generate", "--edb-id", "424242"])
        assert code == 1
        assert "not in the corpus" in capsys.readouterr().err

    def test_missing_corpus_flag_is_a_usage_error(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "out"), "generate", "--edb-id", "1"])
        assert code == 1
        assert "--corpus" in capsys.readouterr().err

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_one(self, e2e_tree, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(base_args(e2e_tree, tmp_path) + ["generate", "--edb-id", "1", "--frobnicate"])
        assert excinfo.value.code == 1

    def test_json_output_is_the_row_batch_writes(self, e2e_tree, tmp_path, capsys, monkeypatch):
        """Apart from elapsed, generate --json prints for each record the
        outcomes.ndjson line batch writes for it. provenance.json takes its
        time from SOURCE_DATE_EPOCH, so the digests agree."""
        monkeypatch.setenv("SOURCE_DATE_EPOCH", str(int(STAMP.timestamp())))
        out = tmp_path / "out"
        assert main(base_args(e2e_tree, out) + ["batch"]) == 0
        capsys.readouterr()
        rows = {}
        for line in (out / "outcomes.ndjson").read_text(encoding="utf-8").splitlines(keepends=True):
            row = json.loads(line)
            rows[row["edb_id"]] = line
        assert sorted(rows) == sorted(E2E_RECORDS)
        for edb_id, line in rows.items():
            code = main(base_args(e2e_tree, out) + ["--json", "generate", "--edb-id", str(edb_id)])
            printed = capsys.readouterr().out
            assert code == (0 if json.loads(line)["status"] == "success" else 2)
            assert printed.count("\n") == 1
            assert without_elapsed(printed) == without_elapsed(line)

    def test_source_date_epoch_makes_bundles_byte_identical(self, e2e_tree, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        trees = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(base_args(e2e_tree, out) + ["generate", "--edb-id", "103"]) == 0
            files = sorted(p for p in (out / "103").rglob("*") if p.is_file())
            trees.append({p.relative_to(out): p.read_bytes() for p in files})
        assert trees[0] == trees[1]
        provenance = json.loads(trees[0][Path("103", "provenance.json")])
        assert provenance["generated_at"] == "2023-11-14T22:13:20+00:00"

    @pytest.mark.parametrize("value", ["1.5", "-1", " 1700000000", "1e9", "\u0667", "9" * 20])
    @pytest.mark.parametrize("command", [["generate", "--edb-id", "103"], ["batch"]])
    def test_malformed_source_date_epoch_is_a_usage_error(
        self, e2e_tree, tmp_path, capsys, monkeypatch, value, command
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        out = tmp_path / "out"
        assert main(base_args(e2e_tree, out) + command) == 1
        err = capsys.readouterr().err
        assert err == (f"error: SOURCE_DATE_EPOCH must be a whole number of seconds since "
                       f"1970-01-01 UTC, got {value!r}\n")
        assert not out.exists()

    def test_empty_source_date_epoch_is_unset(self, e2e_tree, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "")
        out = tmp_path / "out"
        before = datetime.now(timezone.utc)
        assert main(base_args(e2e_tree, out) + ["generate", "--edb-id", "103"]) == 0
        provenance = json.loads((out / "103" / "provenance.json").read_text(encoding="utf-8"))
        generated_at = datetime.fromisoformat(provenance["generated_at"])
        assert before <= generated_at <= datetime.now(timezone.utc)

    def test_config_override_changes_emitted_port(self, e2e_tree, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"site": {"http_port": 9191}}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            base_args(e2e_tree, out)
            + ["--config", str(config), "generate", "--edb-id", "101"]
        )
        assert code == 0
        compose = yaml.safe_load((out / "101" / "docker-compose.yml").read_text())
        assert compose["services"]["app"]["ports"] == ["9191:80"]

    @pytest.mark.parametrize(
        "key, value",
        [("sitee", {}), ("docroot", "/var/www/html\x00"),
         ("readiness_path", "/wp-admin/install.php\r\n")],
    )
    def test_bad_config_key_is_a_usage_error(self, e2e_tree, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        code = main(
            base_args(e2e_tree, tmp_path / "out")
            + ["--config", str(config), "generate", "--edb-id", "101"]
        )
        assert code == 1
        assert capsys.readouterr() == ("", f"error: unknown config keys: ['{key}']\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            '{"site": {"http_portt": 80}}',
            '{"site": 8080}',
            '{"site": null}',
            '{"database": null}',
            '{"probe_interval": 0}',
            '{"probe_interval": -1}',
            '{"probe_interval": "10"}',
            '{"probe_interval": 20, "probe_timeout": 10}',
            "[]",
            "{not json",
        ],
    )
    def test_unusable_config_is_a_usage_error(self, e2e_tree, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        code = main(
            base_args(e2e_tree, tmp_path / "out")
            + ["--config", str(config), "generate", "--edb-id", "101"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "timing, shown",
        [
            ({"probe_interval": True}, "(True, 300.0)"),
            ({"probe_interval": 0.5, "probe_timeout": True}, "(0.5, True)"),
        ],
    )
    def test_bool_probe_timing_is_refused(self, e2e_tree, tmp_path, capsys, timing, shown):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(timing), encoding="utf-8")
        out = tmp_path / "out"
        code = main(base_args(e2e_tree, out) + ["--config", str(config), "generate", "--edb-id", "101"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: probe_interval and probe_timeout must be numbers, got {shown}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"site": {"http_port": "80:80\n    privileged: true"}},
            {"database": {"password": "wordpress\nMYSQL_ALLOW_EMPTY_PASSWORD: 1"}},
            {"site": {"http_port": "8080"}},
            {"site": {"http_port": True}},
            {"site": {"http_port": 0}},
            {"site": {"http_port": 65536}},
            {"site": {"admin_user": ""}},
        ],
    )
    def test_value_that_would_break_the_bundle_is_refused(
        self, e2e_tree, tmp_path, capsys, overrides
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(overrides), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            base_args(e2e_tree, out) + ["--config", str(config), "generate", "--edb-id", "103"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not out.exists()

    def test_emit_on_fixtures_imports_no_http_library(self, e2e_tree, tmp_path, capsys, monkeypatch):
        # None in sys.modules makes `import requests` raise ImportError.
        monkeypatch.setitem(sys.modules, "requests", None)
        assert main(base_args(e2e_tree, tmp_path / "out") + ["batch"]) == 0

    def test_missing_fixture_registry_is_a_usage_error(self, e2e_tree, tmp_path, capsys):
        code = main(
            [
                "--corpus",
                str(e2e_tree.corpus_dir),
                "--fixtures",
                str(tmp_path / "hollow"),
                "--out",
                str(tmp_path / "out"),
                "generate",
                "--edb-id",
                "103",
            ]
        )
        assert code == 1
        assert "registry" in capsys.readouterr().err


class TestBootstrapMode:
    GENERATE_103 = ["--mode", "bootstrap", "generate", "--edb-id", "103"]

    def fake_stack(self, monkeypatch, fail_on=None):
        executor = RecordingExecutor(fail_on=fail_on)
        readiness = ScriptedClient(SimulatedClock(), ready_at=0.0)
        monkeypatch.setattr("vulnwp.cli.DockerExecutor", lambda: executor)
        monkeypatch.setattr("vulnwp.cli.HttpReadinessClient", lambda session: readiness)
        return executor, readiness

    def test_failing_build_is_a_setup_failure(self, e2e_tree, tmp_path, capsys, monkeypatch):
        executor, readiness = self.fake_stack(monkeypatch, fail_on="build")
        code = main(base_args(e2e_tree, tmp_path / "out") + self.GENERATE_103)
        assert code == 2
        captured = capsys.readouterr()
        assert "103: failed (error-during-setup)" in captured.out
        assert "Traceback" not in captured.err
        assert len(executor.calls) == 1
        assert readiness.calls == []

    def test_passing_stack_is_built_started_and_configured_once(
        self, e2e_tree, tmp_path, capsys, monkeypatch
    ):
        executor, readiness = self.fake_stack(monkeypatch)
        fetches = []
        fetch = vulnwp.pipeline.fetch_component

        def counting_fetch(**kwargs):
            fetches.append(kwargs["slug"])
            return fetch(**kwargs)

        monkeypatch.setattr(vulnwp.pipeline, "fetch_component", counting_fetch)
        out = tmp_path / "out"
        code = main(base_args(e2e_tree, out) + self.GENERATE_103)
        assert code == 0
        argvs = [argv for argv, _ in executor.calls]
        assert argvs[0] == ("build", "-t", "vulnwp-103", ".")
        assert argvs[1] == ("compose", "-p", "vulnwp-103", "up", "-d")
        # A plugin record has four setup steps: install, admin, copy check, activate.
        exec_prefix = ("compose", "-p", "vulnwp-103", "exec", "-T", "app")
        assert [argv[:6] for argv in argvs[2:]] == [exec_prefix] * 4
        assert {cwd for _, cwd in executor.calls} == {out / "103"}
        assert len(readiness.calls) == 1
        assert len(fetches) == 1

    def test_zero_probe_interval_fails_before_any_command(
        self, e2e_tree, tmp_path, capsys, monkeypatch
    ):
        executor, readiness = self.fake_stack(monkeypatch)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"probe_interval": 0}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(base_args(e2e_tree, out) + ["--config", str(config)] + self.GENERATE_103)
        assert code == 1
        assert "error: probe_interval must be positive" in capsys.readouterr().err
        assert executor.calls == []
        assert readiness.calls == []
        assert not out.exists()


class TestBatchAndStats:
    def test_batch_writes_outcomes_and_prints_totals(self, e2e_tree, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(base_args(e2e_tree, out) + ["batch"])
        assert code == 0
        lines = (out / "outcomes.ndjson").read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 20
        stdout = capsys.readouterr().out
        assert "12" in stdout and "20" in stdout

    def test_batch_json_report(self, e2e_tree, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(base_args(e2e_tree, out) + ["--json", "batch"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 20
        assert report["successes"] == 12
        assert report["by_reason"]["no-image"] == 3

    def test_stats_reproduces_the_batch_report(self, e2e_tree, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(base_args(e2e_tree, out) + ["--json", "batch"]) == 0
        batch_report = json.loads(capsys.readouterr().out)
        code = main(
            base_args(e2e_tree, out) + ["--json", "stats", str(out / "outcomes.ndjson")]
        )
        assert code == 0
        stats_report = json.loads(capsys.readouterr().out)
        assert stats_report == batch_report

    def test_stats_on_missing_file_is_a_usage_error(self, e2e_tree, tmp_path, capsys):
        code = main(
            base_args(e2e_tree, tmp_path / "out") + ["stats", str(tmp_path / "absent.ndjson")]
        )
        assert code == 1

    def test_stats_on_a_torn_outcomes_file_is_a_usage_error(self, e2e_tree, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(base_args(e2e_tree, out) + ["batch"]) == 0
        capsys.readouterr()
        outcomes = out / "outcomes.ndjson"
        torn = tmp_path / "torn.ndjson"
        torn.write_bytes(outcomes.read_bytes()[:-20])
        code = main(base_args(e2e_tree, out) + ["stats", str(torn)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {torn} line 20 column ")

    def test_index_row_short_of_columns_is_a_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "files_exploits.csv").write_text(
            "id,file,description,date,author,type,platform,codes\n"
            "1,x.txt,WordPress Core 4.7 - XSS,2017-01-01\n",
            encoding="utf-8",
        )
        code = main(["--corpus", str(corpus), "stats", str(tmp_path / "absent.ndjson")])
        assert code == 1
        assert capsys.readouterr().err == "error: row 2: lacks columns: author, platform, type\n"

    def test_index_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        index = corpus / "files_exploits.csv"
        index.write_bytes(
            b"id,file,description,date,author,type,platform,codes\n"
            b"1,x.txt,WordPress Core 4.7 - XSS \xff,2017-01-01,a,webapps,php,\n"
        )
        code = main(["--corpus", str(corpus), "stats", os.devnull])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: index {index} is not UTF-8 text: invalid start byte\n"
        assert "Traceback" not in captured.err

    def test_apps_that_cannot_be_listed_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        (corpus / "apps").mkdir(parents=True)
        (corpus / "files_exploits.csv").write_text(
            "id,file,description,date,author,type,platform,codes\n"
            "1,x.txt,WordPress Core 4.7 - XSS,2017-01-01,a,webapps,php,\n",
            encoding="utf-8",
        )
        apps = str(corpus / "apps")
        monkeypatch.setattr(os, "scandir", refuse_listing(os.scandir, lambda p: p == apps))
        code = main(["--corpus", str(corpus), "stats", os.devnull])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: [Errno 13] Permission denied: '{apps}'\n")

    @pytest.mark.parametrize(
        "name, text, complaint",
        [
            ("registry_tags.json", "{bad", "is not valid JSON"),
            ("registry_tags.json", '[5, "4.7.0"]', "must hold a JSON list of strings"),
            ("registry_tags.json", '{"a": 1}', "must hold a JSON list of strings"),
            ("links.json", "{bad", "is not valid JSON"),
            ("links.json", '["a"]', "must hold a JSON object mapping URLs to paths"),
            ("cpe_dictionary.json", "{bad", "is not valid JSON"),
            ("cpe_dictionary.json", '["x"]', "must hold a JSON object mapping CVE ids to lists of strings"),
            ("cpe_dictionary.json", '{"CVE-2017-5487": "cpe:2.3:a:wordpress:wordpress:4.7:*:*:*:*:*:*:*"}',
             "must hold a JSON object mapping CVE ids to lists of strings"),
        ],
    )
    def test_malformed_fixture_file_is_a_usage_error(self, tmp_path, capsys, name, text, complaint):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(DEMO.fixtures_dir, fixtures)
        (fixtures / name).write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        tree = E2ETree(corpus_dir=DEMO.corpus_dir, fixtures_dir=fixtures)
        code = main(base_args(tree, out) + ["batch"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and f" {fixtures / name} " in line and complaint in line
        assert not out.exists()


def read_ids(reads: list[str]) -> list[int]:
    """The exploit ids of PoCs read, for trees that name PoCs exploits/<id>.txt."""
    return [int(Path(path).stem) for path in reads]


class TestPocsReadAtFirstUse:
    def test_stats_reads_no_poc(self, e2e_tree, tmp_path, capsys, poc_reads):
        out = tmp_path / "out"
        assert main(base_args(e2e_tree, out) + ["batch"]) == 0
        poc_reads.clear()
        assert main(base_args(e2e_tree, out) + ["stats", str(out / "outcomes.ndjson")]) == 0
        assert poc_reads == []

    @pytest.mark.parametrize("edb_id", sorted(E2E_RECORDS))
    def test_generate_reads_at_most_the_records_own_poc(
        self, e2e_tree, tmp_path, capsys, poc_reads, edb_id
    ):
        main(base_args(e2e_tree, tmp_path / "out") + ["generate", "--edb-id", str(edb_id)])
        assert read_ids(poc_reads) in ([], [edb_id])

    @pytest.mark.parametrize("tree", ["demo", "e2e", "e2e-without-links"])
    def test_batch_reads_only_versionless_or_svn_missed_pocs(
        self, e2e_tree, tmp_path, capsys, monkeypatch, poc_reads, tree
    ):
        links = tree != "e2e-without-links"
        if tree == "demo":
            tree = DEMO
        elif links:
            tree = e2e_tree
        else:
            # With no link client, no software link is followed, so an SVN
            # miss reads no PoC.
            fixtures = tmp_path / "fixtures"
            shutil.copytree(e2e_tree.fixtures_dir, fixtures)
            (fixtures / "links.json").unlink()
            tree = E2ETree(corpus_dir=e2e_tree.corpus_dir, fixtures_dir=fixtures)
        current: list[int] = []
        svn_missed: set[int] = set()
        generate, export = vulnwp.reporting.generate, DiskSvnMirror.export

        def tracking_generate(record, *args, **kwargs):
            current.append(record.edb_id)
            return generate(record, *args, **kwargs)

        def tracking_export(self, *args, **kwargs):
            locator = export(self, *args, **kwargs)
            if locator is None:
                svn_missed.add(current[-1])
            return locator

        monkeypatch.setattr(vulnwp.reporting, "generate", tracking_generate)
        monkeypatch.setattr(DiskSvnMirror, "export", tracking_export)
        assert main(base_args(tree, tmp_path / "out") + ["batch"]) == 0
        corpus = tree.load()
        versionless = set()
        for record in corpus:
            parsed = parse_title(record.title)
            if parsed.category is not ExploitCategory.UNCATEGORIZED and parsed.version_expr is None:
                versionless.add(record.edb_id)
        reads = read_ids(poc_reads)
        assert len(reads) == len(set(reads))
        assert set(reads) == (versionless | svn_missed if links else versionless)
        if tree is not DEMO:
            assert 0 < len(reads) < len(corpus)
            assert svn_missed - versionless

    def test_missing_poc_that_no_command_reads_is_not_reported(
        self, e2e_tree, tmp_path, capsys, caplog, monkeypatch
    ):
        # Record 103's title carries its version and its SVN tag is there, so
        # its PoC is never read: without it every command runs as with it.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        corpus = tmp_path / "corpus"
        shutil.copytree(e2e_tree.corpus_dir, corpus)
        tree = E2ETree(corpus_dir=corpus, fixtures_dir=e2e_tree.fixtures_dir)
        out = tmp_path / "out"
        outcomes = out / "outcomes.ndjson"
        assert main(base_args(tree, out) + ["batch"]) == 0
        full = list(map(without_elapsed, outcomes.read_text(encoding="utf-8").splitlines()))
        (corpus / "exploits" / "103.txt").unlink()
        caplog.clear()
        assert main(base_args(tree, out) + ["batch"]) == 0
        assert list(map(without_elapsed, outcomes.read_text(encoding="utf-8").splitlines())) == full
        # The batch's one warning is record 116's corrupt archive.
        assert [r.name for r in caplog.records] == ["vulnwp.pipeline"]
        capsys.readouterr()
        caplog.clear()
        assert main(base_args(tree, out) + ["stats", str(outcomes)]) == 0
        assert main(base_args(tree, tmp_path / "one") + ["generate", "--edb-id", "101"]) == 0
        assert capsys.readouterr().err == ""
        assert caplog.records == []

    @pytest.mark.parametrize("command", [["generate", "--edb-id", "110"], ["batch"]])
    def test_unreadable_poc_is_a_usage_error(
        self, e2e_tree, tmp_path, capsys, monkeypatch, command
    ):
        # Record 110's title has no version, so its PoC is read.
        poc = os.path.join(e2e_tree.corpus_dir, "exploits", "110.txt")
        refuse_reading(monkeypatch, poc)
        out = tmp_path / "out"
        code = main(base_args(e2e_tree, out) + command)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 13] Permission denied: '{poc}'\n"
        assert "Traceback" not in captured.err
        assert not (out / "outcomes.ndjson").exists()


class TestComposeValuesYamlMisreads:
    @pytest.mark.parametrize(
        "database",
        [
            {"password": "pw #x"},
            {"password": "pw #x", "user": "a: b"},
            {"user": "a: b"},
            {"password": "123"},
            {"root_password": "true"},
            {"name": "~"},
            {"user": " wordpress"},
            {"image": "mysql:5.7 #latest"},
            {"password": 'say "hi" \\ \U0001f600', "name": "- [x]: {y}"},
        ],
    )
    def test_value_yaml_would_misread_unquoted_reads_back(self, tmp_path, capsys, database):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"database": database}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(base_args(DEMO, out) + ["--config", str(config), "batch"]) == 0
        assert capsys.readouterr().err == ""
        compose = yaml.safe_load((out / "201" / "docker-compose.yml").read_text(encoding="utf-8"))
        app, db = compose["services"]["app"], compose["services"]["db"]
        spec = replace(DatabaseSpec(), **database)
        assert db["image"] == spec.image
        assert db["environment"] == {
            "MYSQL_DATABASE": spec.name,
            "MYSQL_PASSWORD": spec.password,
            "MYSQL_ROOT_PASSWORD": spec.root_password,
            "MYSQL_USER": spec.user,
        }
        assert app["environment"] == {
            "WORDPRESS_DB_HOST": "db",
            "WORDPRESS_DB_NAME": spec.name,
            "WORDPRESS_DB_PASSWORD": spec.password,
            "WORDPRESS_DB_USER": spec.user,
        }

    def test_values_yaml_reads_back_pass_and_reach_the_compose_file(self, tmp_path, capsys):
        database = {"password": "pw#x", "user": "a:b", "name": "wp-1.2", "root_password": "x y"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"database": database}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(base_args(DEMO, out) + ["--config", str(config), "batch"]) == 0
        compose = yaml.safe_load((out / "202" / "docker-compose.yml").read_text(encoding="utf-8"))
        environment = compose["services"]["db"]["environment"]
        assert environment["MYSQL_PASSWORD"] == "pw#x"
        assert environment["MYSQL_USER"] == "a:b"
        assert environment["MYSQL_DATABASE"] == "wp-1.2"
        assert environment["MYSQL_ROOT_PASSWORD"] == "x y"
