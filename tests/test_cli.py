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
        with pytest.raises(ValueError):
            main(
                base_args(e2e_tree, tmp_path / "out")
                + ["--config", str(config), "generate", "--edb-id", "101"]
            )

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
