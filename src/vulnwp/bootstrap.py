"""Drive a freshly emitted environment to a configured state.

bring_up does it in one pass from the bundle directory: build the image
`vulnwp-<id>`, start the Compose project of the same name, poll the
installer page every ten seconds until it answers 200 (or a timeout
expires), then run each of iac.setup_commands(plan), the lines of the
bundle's setup.sh, as `compose -p vulnwp-<id> exec -T app <argv>`. The
first command that exits non-zero, build and start included, stops the
run with SetupStepFailedError("docker <command> exited <status>: <last
output line>"). The command executor, the clock and the HTTP prober are
injected so the whole sequence can be tested without a container runtime
and on simulated time.
"""

from __future__ import annotations

import logging
import os
import shlex
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .config import GeneratorConfig
from .errors import BootstrapTimeoutError, SetupStepFailedError, VulnwpError
from .iac import APP_SERVICE, EnvironmentPlan, app_image_name, setup_commands

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
    """The machine's clocks, except that now() answers the time
    SOURCE_DATE_EPOCH names when that variable is set and not empty: a
    whole number of seconds since 1970-01-01 UTC, as `date +%s` prints it
    (https://reproducible-builds.org/specs/source-date-epoch/). Bundles
    built from the same inputs then carry the same bytes. The variable is
    read once, when the clock is made; a value that is not ASCII digits,
    or names no representable time, raises VulnwpError."""

    def __init__(self) -> None:
        self._source_date = _source_date_epoch()

    def now(self) -> datetime:
        return super().now() if self._source_date is None else self._source_date

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


def _source_date_epoch() -> datetime | None:
    value = os.environ.get("SOURCE_DATE_EPOCH")
    if not value:
        return None
    try:
        if not (value.isdigit() and value.isascii()):
            raise ValueError
        return datetime.fromtimestamp(int(value), timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise VulnwpError(
            "SOURCE_DATE_EPOCH must be a whole number of seconds since 1970-01-01 UTC, "
            f"got {value!r}"
        ) from None


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
    _TIMEOUT = 5.0

    def __init__(self, session) -> None:
        self._session = session

    def get_status(self, url: str) -> int:
        return self._session.get(url, timeout=self._TIMEOUT, allow_redirects=False).status_code


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
        return cls(url=f"{plan.site.url}/wp-admin/install.php",
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


def bring_up(plan: EnvironmentPlan, bundle_dir: Path, executor: CommandExecutor,
             readiness: ReadinessClient, clock: Clock, config: GeneratorConfig) -> None:
    """Build, start, probe and configure one emitted bundle, in that order.

    Every command runs from bundle_dir; a probe timeout raises
    BootstrapTimeoutError, and the first command that exits non-zero
    raises SetupStepFailedError and runs nothing after it.
    """
    name = app_image_name(plan.edb_id)
    _run(executor, ["build", "-t", name, "."], bundle_dir)
    _run(executor, ["compose", "-p", name, "up", "-d"], bundle_dir)
    wait_ready(ReadinessProbe.for_plan(plan, config), readiness, clock)
    exec_prefix = ["compose", "-p", name, "exec", "-T", APP_SERVICE]
    for argv in setup_commands(plan):
        _run(executor, exec_prefix + argv, bundle_dir)


def _run(executor: CommandExecutor, argv: list[str], cwd: Path) -> None:
    """Run one docker command; a non-zero status raises SetupStepFailedError
    naming the command, the status and the last line of its output."""
    status, output = executor.run(argv, cwd)
    if status != 0:
        last_line = output.strip().rpartition("\n")[2]
        raise SetupStepFailedError(f"docker {shlex.join(argv)} exited {status}: {last_line}")
