from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vulnwp.bootstrap import (
    DockerExecutor,
    ReadinessClient,
    ReadinessProbe,
    SimulatedClock,
    bring_up,
    run_setup,
    wait_ready,
)
from vulnwp.config import GeneratorConfig
from vulnwp.errors import BootstrapTimeoutError, SetupStepFailedError
from vulnwp.iac import StepKind

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
    the copy-component check.
    """

    def __init__(self, fail_on: str | None = None):
        self.fail_on = fail_on
        self.calls: list[tuple[tuple[str, ...], Path]] = []

    def run(self, argv: list[str], cwd: Path) -> tuple[int, str]:
        self.calls.append((tuple(argv), cwd))
        if self.fail_on is not None and self.fail_on in argv:
            return 1, "boom"
        return 0, "ok"


class TestRunSetup:
    def test_all_steps_run_in_order(self, tmp_path):
        plan = plugin_plan(tmp_path)
        executor = RecordingExecutor()
        report = run_setup(plan, executor, tmp_path)
        assert report.succeeded
        assert len(report.results) == len(plan.setup_steps)
        assert all(argv[:6] == EXEC_PREFIX and cwd == tmp_path for argv, cwd in executor.calls)
        assert executor.calls[0][0][6:8] == ("wp", "--allow-root")

    def test_failure_stops_the_run_and_carries_a_partial_report(self, tmp_path):
        plan = plugin_plan(tmp_path)
        executor = RecordingExecutor(fail_on="test")
        with pytest.raises(SetupStepFailedError) as excinfo:
            run_setup(plan, executor, tmp_path)
        report = excinfo.value.report
        assert excinfo.value.step.kind is StepKind.COPY_COMPONENT
        assert len(report.results) == 3
        assert [r.ok for r in report.results] == [True, True, False]
        assert len(executor.calls) == 3


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
        self.plan = plugin_plan(tmp_path)
        return bring_up(self.plan, tmp_path, self.executor, self.client, clock, GeneratorConfig())

    def test_builds_starts_probes_then_configures(self, tmp_path):
        assert self.bring_up(tmp_path, ready_at=25.0).succeeded
        argvs = [argv for argv, _ in self.executor.calls]
        assert argvs[0] == ("build", "-t", "vulnwp-501", ".")
        assert argvs[1] == ("compose", "-p", "vulnwp-501", "up", "-d")
        assert [argv[:6] for argv in argvs[2:]] == [EXEC_PREFIX] * len(self.plan.setup_steps)
        assert all(cwd == tmp_path for _, cwd in self.executor.calls)
        assert self.client.calls == [0.0, 10.0, 20.0, 30.0]
        assert self.client.commands_seen == [2, 2, 2, 2]

    @pytest.mark.parametrize("fail_on, commands", [("build", 1), ("up", 2)])
    def test_failed_build_or_up_stops_before_the_probe(self, tmp_path, fail_on, commands):
        with pytest.raises(SetupStepFailedError) as excinfo:
            self.bring_up(tmp_path, fail_on=fail_on)
        assert excinfo.value.step is None
        assert excinfo.value.report.results == ()
        assert "boom" in str(excinfo.value)
        assert len(self.executor.calls) == commands
        assert self.client.calls == []

    def test_probe_timeout_runs_no_setup_step(self, tmp_path):
        with pytest.raises(BootstrapTimeoutError):
            self.bring_up(tmp_path, ready_at=None)
        assert len(self.executor.calls) == 2


def test_docker_executor_without_binary_answers_127(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    status, output = DockerExecutor().run(["version"], tmp_path)
    assert status == 127
    assert output
