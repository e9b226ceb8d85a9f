from __future__ import annotations

import json
from pathlib import Path

import pytest
import yaml

import vulnwp.pipeline
from vulnwp.bootstrap import SimulatedClock
from vulnwp.cli import main

from test_bootstrap import RecordingExecutor, ScriptedClient


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

    def test_json_output_is_parseable(self, e2e_tree, tmp_path, capsys):
        code = main(
            base_args(e2e_tree, tmp_path / "out") + ["--json", "generate", "--edb-id", "103"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "success"
        assert payload["image"] == "wordpress:5.0"
        assert payload["sources"] == ["svn-repo"]

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

    def test_bad_config_key_is_a_usage_error(self, e2e_tree, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sitee": {}}), encoding="utf-8")
        code = main(
            base_args(e2e_tree, tmp_path / "out")
            + ["--config", str(config), "generate", "--edb-id", "101"]
        )
        assert code == 1
        assert "error: unknown config keys: ['sitee']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            '{"site": {"http_portt": 80}}',
            '{"site": 8080}',
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
        "overrides",
        [
            {"site": {"http_port": "80:80\n    privileged: true"}},
            {"database": {"password": "wordpress\nMYSQL_ALLOW_EMPTY_PASSWORD: 1"}},
            {"site": {"http_port": "8080"}},
            {"site": {"http_port": True}},
            {"site": {"http_port": 0}},
            {"site": {"http_port": 65536}},
            {"site": {"admin_user": ""}},
            {"docroot": "/var/www/html\x00"},
            {"readiness_path": "/wp-admin/install.php\r\n"},
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
        monkeypatch.setattr("vulnwp.cli.HttpReadinessClient", lambda: readiness)
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
