"""Generator configuration: credentials, images, ports, probe timing.

Every credential here is a fixed, documented test value. Nothing is
randomized; reproducing the same bundle twice must give identical bytes.
Override any of it with a JSON config file (see GeneratorConfig.from_json)
when the defaults clash with local policy. A config that could not work
(an unknown key, probe timing that cannot poll, a port outside 1-65535,
an empty or non-printable string that would break the emitted files) is
refused when it is built, before anything runs. Printable values may
hold any character: the compose file quotes every value it carries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import VulnwpError

__all__ = ["DatabaseSpec", "SiteSpec", "GeneratorConfig"]


@dataclass(frozen=True)
class DatabaseSpec:
    """The database service and the schema the application connects to."""

    image: str = "mysql:5.7"
    name: str = "wordpress"
    user: str = "wordpress"
    password: str = "wordpress"
    root_password: str = "insecure-root-pw"


@dataclass(frozen=True)
class SiteSpec:
    """The site itself: published port and the two well-known accounts.

    The owner account performs the initial core install; the admin account
    is created afterwards as the scenario's documented login.
    """

    http_port: int = 8080
    admin_user: str = "admin"
    admin_password: str = "password123"
    admin_email: str = "admin@example.test"
    owner_user: str = "sysop"
    owner_password: str = "sysop-install-pw"
    owner_email: str = "sysop@example.test"

    @property
    def url(self) -> str:
        return f"http://localhost:{self.http_port}"


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything the pipeline needs beyond the record and the clients."""

    database: DatabaseSpec = field(default_factory=DatabaseSpec)
    site: SiteSpec = field(default_factory=SiteSpec)
    probe_interval: float = 10.0
    probe_timeout: float = 300.0

    def __post_init__(self) -> None:
        port = self.site.http_port
        if isinstance(port, bool) or not isinstance(port, int) or not 1 <= port <= 65535:
            raise VulnwpError(f"site.http_port must be an integer from 1 to 65535, got {port!r}")
        # These values end up in the bundle, and YAML refuses DEL and C1
        # controls even inside a quoted compose value.
        texts = {}
        for section, spec in (("database", self.database), ("site", self.site)):
            for spec_field in fields(spec):
                if spec_field.name != "http_port":
                    texts[f"{section}.{spec_field.name}"] = getattr(spec, spec_field.name)
        for name, value in texts.items():
            if not isinstance(value, str) or not value or not value.isprintable():
                raise VulnwpError(f"{name} must be a non-empty printable string, got {value!r}")
        timing = (self.probe_interval, self.probe_timeout)
        if not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in timing):
            raise VulnwpError(f"probe_interval and probe_timeout must be numbers, got {timing}")
        if self.probe_interval <= 0:
            raise VulnwpError(f"probe_interval must be positive, got {self.probe_interval}")
        if self.probe_timeout < self.probe_interval:
            raise VulnwpError(
                f"probe_timeout ({self.probe_timeout}) is shorter than probe_interval "
                f"({self.probe_interval})"
            )

    @classmethod
    def from_json(cls, path: Path | str) -> "GeneratorConfig":
        """Build a config from a JSON file of partial overrides.

        Top-level keys "database" and "site" take objects whose fields
        mirror the dataclasses; the remaining keys override the flat
        fields. Unknown keys, a file that is not a JSON object and values
        __post_init__ refuses raise VulnwpError, so typos do not silently
        fall back to defaults.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise VulnwpError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise VulnwpError(f"config {path} must hold a JSON object")
        config = cls()
        for section in ("database", "site"):
            if section not in payload:
                continue
            overrides = payload.pop(section)
            if not isinstance(overrides, dict):
                raise VulnwpError(f"config section {section} must be a JSON object")
            spec = getattr(config, section)
            unknown = set(overrides) - {spec_field.name for spec_field in fields(spec)}
            if unknown:
                raise VulnwpError(f"unknown {section} config keys: {sorted(unknown)}")
            config = replace(config, **{section: replace(spec, **overrides)})
        # Both sections are popped above, so only the flat fields are left to match.
        unknown = set(payload) - {config_field.name for config_field in fields(cls)}
        if unknown:
            raise VulnwpError(f"unknown config keys: {sorted(unknown)}")
        return replace(config, **payload)
