"""Drive a freshly emitted environment to a configured state.

bring_up does it in one pass from the bundle directory: build the image
`vulnwp-<id>`, start the Compose project of the same name, poll the
installer page every ten seconds until it answers 200 (or a timeout
expires), then run the plan's setup steps in the `app` service one by
one, stopping at the first failure. The command executor, the clock and
the HTTP prober are injected so the whole sequence can be tested without
a container runtime and on simulated time.
"""

from __future__ import annotations

import logging
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .config import GeneratorConfig
from .errors import BootstrapTimeoutError, SetupStepFailedError
from .iac import APP_SERVICE, EnvironmentPlan, SetupStep, app_image_name, render_step_argv

logger = logging.getLogger(__name__)

__all__ = [
    "Clock",
    "SystemClock",
    "SimulatedClock",
    "ReadinessClient",
    "HttpReadinessClient",
    "ReadinessProbe",
    "wait_ready",
    "CommandExecutor",
    "DockerExecutor",
    "StepResult",
    "SetupReport",
    "run_setup",
    "bring_up",
]


class Clock(ABC):
    """Time source used by the poller; swap in a simulated one for tests."""

    @abstractmethod
    def monotonic(self) -> float: ...

    @abstractmethod
    def sleep(self, seconds: float) -> None: ...

    def now(self) -> datetime:
        return datetime.now(timezone.utc)


class SystemClock(Clock):
    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class SimulatedClock(Clock):
    """A clock that only moves when something sleeps."""

    def __init__(self, start: float = 0.0, now: datetime | None = None) -> None:
        self._time = start
        self._now = now or datetime(2021, 5, 1, tzinfo=timezone.utc)

    def monotonic(self) -> float:
        return self._time

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._time += seconds

    def now(self) -> datetime:
        return self._now


class ReadinessClient(ABC):
    """Answers the HTTP status of a GET, or raises on transport trouble."""

    @abstractmethod
    def get_status(self, url: str) -> int: ...


class HttpReadinessClient(ReadinessClient):
    def __init__(self, timeout: float = 5.0, session=None) -> None:
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._timeout = timeout

    def get_status(self, url: str) -> int:
        return self._session.get(url, timeout=self._timeout, allow_redirects=False).status_code


@dataclass(frozen=True)
class ReadinessProbe:
    """What to poll and how patiently."""

    url: str
    interval: float = GeneratorConfig.probe_interval
    timeout: float = GeneratorConfig.probe_timeout

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("probe interval must be positive")
        if self.timeout < self.interval:
            raise ValueError("probe timeout must be at least one interval")

    @classmethod
    def for_plan(cls, plan: EnvironmentPlan, config: GeneratorConfig) -> "ReadinessProbe":
        return cls(url=f"{plan.site.url}{config.readiness_path}",
                   interval=config.probe_interval, timeout=config.probe_timeout)


def wait_ready(probe: ReadinessProbe, http: ReadinessClient, clock: Clock) -> float:
    """Poll until the probe URL answers 200.

    The first request goes out immediately, then one per interval. A non
    matching status and a transport error both count as "not ready yet".
    Returns the elapsed seconds at first success; raises
    BootstrapTimeoutError at exactly the configured timeout, never
    sleeping past it.
    """
    start = clock.monotonic()
    while True:
        elapsed = clock.monotonic() - start
        try:
            status = http.get_status(probe.url)
        except Exception as exc:
            status = None
            logger.debug("probe %s errored after %.0fs: %s", probe.url, elapsed, exc)
        if status == 200:
            logger.info("environment ready after %.0fs", elapsed)
            return elapsed
        if elapsed + probe.interval > probe.timeout:
            remaining = probe.timeout - elapsed
            if remaining > 0:
                clock.sleep(remaining)
            raise BootstrapTimeoutError(
                f"{probe.url} not ready within {probe.timeout:.0f}s", elapsed=probe.timeout
            )
        clock.sleep(probe.interval)


class CommandExecutor(ABC):
    """Runs one container-runtime command from a bundle directory."""

    @abstractmethod
    def run(self, argv: list[str], cwd: Path) -> tuple[int, str]:
        """Return (exit status, captured output)."""


class DockerExecutor(CommandExecutor):
    """Executor that shells out to the `docker` CLI (container runtime required).

    A binary that cannot be started answers status 127, as a shell would.
    """

    def run(self, argv: list[str], cwd: Path) -> tuple[int, str]:
        import subprocess

        try:
            completed = subprocess.run(["docker", *argv], cwd=cwd, capture_output=True, text=True)
        except OSError as exc:
            return 127, str(exc)
        return completed.returncode, completed.stdout + completed.stderr


@dataclass(frozen=True)
class StepResult:
    step: SetupStep
    ok: bool
    output: str


@dataclass(frozen=True)
class SetupReport:
    """Each attempted step with its status, in execution order."""

    results: tuple[StepResult, ...]

    @property
    def succeeded(self) -> bool:
        return all(r.ok for r in self.results)


def run_setup(plan: EnvironmentPlan, executor: CommandExecutor, bundle_dir: Path) -> SetupReport:
    """Run the plan's setup steps in order, stopping at the first failure.

    Each step runs as `compose -p vulnwp-<id> exec -T app <argv>`, so
    Compose finds the service's container whatever it named it. Returns
    the full report when every step exits zero. On a failure the partial
    report (failed step included) travels on the raised
    SetupStepFailedError.
    """
    exec_prefix = ["compose", "-p", app_image_name(plan.edb_id), "exec", "-T", APP_SERVICE]
    results: list[StepResult] = []
    for step in plan.setup_steps:
        status, output = executor.run(exec_prefix + render_step_argv(step, plan), bundle_dir)
        result = StepResult(step=step, ok=status == 0, output=output)
        results.append(result)
        if not result.ok:
            logger.warning("setup step %s failed with status %s", step.kind.value, status)
            raise SetupStepFailedError(
                f"step {step.kind.value} exited {status}",
                step=step,
                report=SetupReport(results=tuple(results)),
            )
    return SetupReport(results=tuple(results))


def bring_up(plan: EnvironmentPlan, bundle_dir: Path, executor: CommandExecutor,
             readiness: ReadinessClient, clock: Clock, config: GeneratorConfig) -> SetupReport:
    """Build, start, probe and configure one emitted bundle, in that order.

    A failing build or `compose up` raises SetupStepFailedError with no
    step and an empty report; a probe timeout raises
    BootstrapTimeoutError; a failing setup step raises as run_setup does.
    """
    name = app_image_name(plan.edb_id)
    for argv in (["build", "-t", name, "."], ["compose", "-p", name, "up", "-d"]):
        status, output = executor.run(argv, bundle_dir)
        if status != 0:
            last_line = output.strip().rpartition("\n")[2]
            raise SetupStepFailedError(
                f"docker {' '.join(argv)} exited {status}: {last_line}",
                step=None,
                report=SetupReport(results=()),
            )
    wait_ready(ReadinessProbe.for_plan(plan, config), readiness, clock)
    return run_setup(plan, executor, bundle_dir)
