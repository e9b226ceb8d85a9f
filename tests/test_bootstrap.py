from __future__ import annotations

import math
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vulnwp.bootstrap import (
    DockerExecutor,
    ReadinessClient,
    ReadinessProbe,
    SimulatedClock,
    SystemClock,
    bring_up,
    wait_ready,
)
from vulnwp.config import GeneratorConfig
from vulnwp.errors import BootstrapTimeoutError, SetupStepFailedError, VulnwpError
from vulnwp.iac import setup_commands

from test_iac import core_plan, plugin_plan


class ScriptedClient(ReadinessClient):
    """Becomes ready at a fixed moment on the clock it shares with the poller."""

    def __init__(self, clock: SimulatedClock, ready_at: float | None, status: int = 200):
        self.clock = clock
        self.ready_at = ready_at
        self.status = status
        self.calls: list[float] = []

    def get_status(self, url: str) -> int:
        self.calls.append(self.clock.monotonic())
        if self.ready_at is not None and self.clock.monotonic() >= self.ready_at:
            return self.status
        return 503


class FlakyClient(ScriptedClient):
    def get_status(self, url: str) -> int:
        if self.ready_at is None or self.clock.monotonic() < self.ready_at:
            self.calls.append(self.clock.monotonic())
            raise ConnectionError("connection refused")
        return super().get_status(url)


def probe(interval: float = 10.0, timeout: float = 300.0) -> ReadinessProbe:
    return ReadinessProbe(url="http://localhost:8080/wp-admin/install.php",
                          interval=interval, timeout=timeout)


class TestWaitReady:
    def test_first_probe_goes_out_immediately(self):
        clock = SimulatedClock()
        client = ScriptedClient(clock, ready_at=0.0)
        assert wait_ready(probe(), client, clock) == 0.0
        assert client.calls == [0.0]

    def test_readiness_lands_on_the_next_poll(self):
        clock = SimulatedClock()
        client = ScriptedClient(clock, ready_at=25.0)
        assert wait_ready(probe(), client, clock) == 30.0
        assert client.calls == [0.0, 10.0, 20.0, 30.0]

    def test_timeout_raises_at_exactly_the_deadline(self):
        clock = SimulatedClock()
        client = ScriptedClient(clock, ready_at=None)
        with pytest.raises(BootstrapTimeoutError) as excinfo:
            wait_ready(probe(timeout=300.0), client, clock)
        assert excinfo.value.elapsed == 300.0
        assert clock.monotonic() == 300.0

    def test_probe_count_at_timeout(self):
        clock = SimulatedClock()
        client = ScriptedClient(clock, ready_at=None)
        with pytest.raises(BootstrapTimeoutError):
            wait_ready(probe(interval=10.0, timeout=300.0), client, clock)
        assert len(client.calls) == 31

    def test_transport_errors_count_as_not_ready(self):
        clock = SimulatedClock()
        client = FlakyClient(clock, ready_at=15.0)
        assert wait_ready(probe(), client, clock) == 20.0

    def test_wrong_status_is_not_ready(self):
        clock = SimulatedClock()
        client = ScriptedClient(clock, ready_at=0.0, status=302)
        with pytest.raises(BootstrapTimeoutError):
            wait_ready(probe(interval=10.0, timeout=20.0), client, clock)

    def test_success_at_final_probe_beats_timeout(self):
        clock = SimulatedClock()
        client = ScriptedClient(clock, ready_at=20.0)
        assert wait_ready(probe(interval=10.0, timeout=20.0), client, clock) == 20.0

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=30),
    )
    def test_never_ready_probe_count_formula(self, interval_seconds, multiplier):
        # Whole-second schedules keep float sums exact, so the count
        # formula holds with equality.
        interval = float(interval_seconds)
        timeout = interval * multiplier
        clock = SimulatedClock()
        client = ScriptedClient(clock, ready_at=None)
        with pytest.raises(BootstrapTimeoutError):
            wait_ready(probe(interval=interval, timeout=timeout), client, clock)
        assert len(client.calls) == math.floor(timeout / interval) + 1


class TestReadinessProbe:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            ReadinessProbe(url="http://x", interval=0.0)

    def test_rejects_timeout_shorter_than_interval(self):
        with pytest.raises(ValueError):
            ReadinessProbe(url="http://x", interval=10.0, timeout=5.0)

    def test_for_plan_builds_admin_url(self):
        plan = core_plan()
        built = ReadinessProbe.for_plan(plan, GeneratorConfig())
        assert built.url == "http://localhost:8080/wp-admin/install.php"
        assert built.interval == 10.0
        assert built.timeout == 300.0


EXEC_PREFIX = ("compose", "-p", "vulnwp-501", "exec", "-T", "app")


class RecordingExecutor:
    """Records each (argv, cwd); a command carrying the fail_on token exits 1.

    "build" and "up" fail the image build and the stack start; "test" fails
    the check that a component's payload is in place.
    """

    def __init__(self, fail_on: str | None = None):
        self.fail_on = fail_on
        self.calls: list[tuple[tuple[str, ...], Path]] = []

    def run(self, argv: list[str], cwd: Path) -> tuple[int, str]:
        self.calls.append((tuple(argv), cwd))
        if self.fail_on is not None and self.fail_on in argv:
            return 1, "boom"
        return 0, "ok"


class OrderedClient(ScriptedClient):
    """Notes how many commands the executor had run at each probe."""

    def __init__(self, clock, executor, ready_at):
        super().__init__(clock, ready_at)
        self.executor = executor
        self.commands_seen: list[int] = []

    def get_status(self, url: str) -> int:
        self.commands_seen.append(len(self.executor.calls))
        return super().get_status(url)


class TestBringUp:
    def bring_up(self, tmp_path, fail_on=None, ready_at=0.0):
        clock = SimulatedClock()
        self.executor = RecordingExecutor(fail_on=fail_on)
        self.client = OrderedClient(clock, self.executor, ready_at)
        self.plan = plugin_plan()
        return bring_up(self.plan, tmp_path, self.executor, self.client, clock, GeneratorConfig())

    def test_builds_starts_probes_then_configures(self, tmp_path):
        assert self.bring_up(tmp_path, ready_at=25.0) is None
        argvs = [argv for argv, _ in self.executor.calls]
        assert argvs[0] == ("build", "-t", "vulnwp-501", ".")
        assert argvs[1] == ("compose", "-p", "vulnwp-501", "up", "-d")
        assert argvs[2:] == [EXEC_PREFIX + tuple(argv) for argv in setup_commands(self.plan)]
        assert all(cwd == tmp_path for _, cwd in self.executor.calls)
        assert self.client.calls == [0.0, 10.0, 20.0, 30.0]
        assert self.client.commands_seen == [2, 2, 2, 2]

    @pytest.mark.parametrize("fail_on, commands", [("build", 1), ("up", 2)])
    def test_failed_build_or_up_stops_before_the_probe(self, tmp_path, fail_on, commands):
        with pytest.raises(SetupStepFailedError) as excinfo:
            self.bring_up(tmp_path, fail_on=fail_on)
        assert str(excinfo.value) == {
            "build": "docker build -t vulnwp-501 . exited 1: boom",
            "up": "docker compose -p vulnwp-501 up -d exited 1: boom",
        }[fail_on]
        assert len(self.executor.calls) == commands
        assert self.client.calls == []

    def test_every_executor_call_for_a_plugin_plan(self, tmp_path):
        self.bring_up(tmp_path)
        wp = ("wp", "--allow-root", "--path=/var/www/html")
        assert self.executor.calls == [
            (("build", "-t", "vulnwp-501", "."), tmp_path),
            (("compose", "-p", "vulnwp-501", "up", "-d"), tmp_path),
            (EXEC_PREFIX + wp + (
                "core", "install", "--url=http://localhost:8080", "--title=edb-501",
                "--admin_user=sysop", "--admin_password=sysop-install-pw",
                "--admin_email=sysop@example.test", "--skip-email",
            ), tmp_path),
            (EXEC_PREFIX + wp + (
                "user", "create", "admin", "admin@example.test", "--role=administrator",
                "--user_pass=password123",
            ), tmp_path),
            (EXEC_PREFIX + ("test", "-e", "/var/www/html/wp-content/plugins/sample"), tmp_path),
            (EXEC_PREFIX + wp + ("plugin", "activate", "sample"), tmp_path),
        ]

    def test_failing_setup_command_stops_the_run_there(self, tmp_path):
        with pytest.raises(SetupStepFailedError) as excinfo:
            self.bring_up(tmp_path, fail_on="test")
        argvs = [argv for argv, _ in self.executor.calls]
        assert len(argvs) == 5
        assert argvs[-1] == EXEC_PREFIX + ("test", "-e", "/var/www/html/wp-content/plugins/sample")
        assert str(excinfo.value) == (
            "docker compose -p vulnwp-501 exec -T app test -e /var/www/html/wp-content/plugins/sample"
            " exited 1: boom"
        )

    def test_failure_names_the_last_output_line_and_quotes_the_command(self, tmp_path):
        class Failing(RecordingExecutor):
            def run(self, argv, cwd):
                super().run(argv, cwd)
                return (2, "line one\nno such plugin\n") if "activate" in argv else (0, "")

        plan = plugin_plan()
        plan = replace(plan, components=(replace(plan.components[0], slug="a b"),))
        clock = SimulatedClock()
        with pytest.raises(SetupStepFailedError) as excinfo:
            bring_up(plan, tmp_path, Failing(), ScriptedClient(clock, 0.0), clock, GeneratorConfig())
        assert str(excinfo.value).endswith("plugin activate 'a b' exited 2: no such plugin")

    def test_probe_timeout_runs_no_setup_step(self, tmp_path):
        with pytest.raises(BootstrapTimeoutError):
            self.bring_up(tmp_path, ready_at=None)
        assert len(self.executor.calls) == 2


def test_docker_executor_without_binary_answers_127(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    status, output = DockerExecutor().run(["version"], tmp_path)
    assert status == 127
    assert output


class TestSystemClock:
    def test_now_is_the_wall_clock_without_source_date_epoch(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        before = datetime.now(timezone.utc)
        now = SystemClock().now()
        assert before <= now <= datetime.now(timezone.utc)

    @pytest.mark.parametrize(
        "value, now",
        [("0", datetime(1970, 1, 1, tzinfo=timezone.utc)),
         ("1700000000", datetime(2023, 11, 14, 22, 13, 20, tzinfo=timezone.utc))],
    )
    def test_source_date_epoch_is_read_once_when_the_clock_is_made(self, monkeypatch, value, now):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        clock = SystemClock()
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1")
        assert clock.now() == now
        assert clock.now().tzinfo is timezone.utc
        monkeypatch.delenv("SOURCE_DATE_EPOCH")
        assert clock.now() == now

    @pytest.mark.parametrize("value", ["x", "1.0", "+1", "-1", "1 ", "\u0661", "9" * 30])
    def test_malformed_source_date_epoch_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        with pytest.raises(VulnwpError, match="SOURCE_DATE_EPOCH"):
            SystemClock()
