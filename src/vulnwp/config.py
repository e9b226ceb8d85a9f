"""Generator configuration: credentials, images, ports, probe timing.

Every credential here is a fixed, documented test value. Nothing is
randomized; reproducing the same bundle twice must give identical bytes.
Override any of it with a JSON config file (see GeneratorConfig.from_json)
when the defaults clash with local policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

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
    docroot: str = "/var/www/html"
    readiness_path: str = "/wp-admin/install.php"
    probe_interval: float = 10.0
    probe_timeout: float = 300.0

    @classmethod
    def from_json(cls, path: Path | str) -> "GeneratorConfig":
        """Build a config from a JSON file of partial overrides.

        Top-level keys "database" and "site" take objects whose fields
        mirror the dataclasses; the remaining keys override the flat
        fields. Unknown keys raise ValueError so typos do not silently
        fall back to defaults.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        config = cls()
        for section, factory in (("database", DatabaseSpec), ("site", SiteSpec)):
            overrides = payload.pop(section, None)
            if overrides is None:
                continue
            allowed = set(factory.__dataclass_fields__)
            unknown = set(overrides) - allowed
            if unknown:
                raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
            config = replace(config, **{section: replace(getattr(config, section), **overrides)})
        allowed = {"docroot", "readiness_path", "probe_interval", "probe_timeout"}
        unknown = set(payload) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return replace(config, **payload)
