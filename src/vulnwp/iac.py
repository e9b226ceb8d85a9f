"""Turn a resolution result into an on-disk container bundle.

Each bundle directory holds exactly four generated files plus the
component payloads under components/<slug>:

  Dockerfile          image build: FROM the resolved base, COPY components
  docker-compose.yml  two services (app, db) under a strict key subset
  setup.sh            post-boot site configuration, one command per step
  provenance.json     where everything came from, stable key order

A bundle is built in a staging directory beside it, <out>/.<name>.partial,
and renamed into place whole, replacing any earlier bundle of the same
name; a failed emission leaves the earlier bundle as it was. Payloads
fetched straight into the staging directory (see staging_dir) are not
copied again. The rendered files are hashed from memory and only the
payload files are read back.

Emission is byte deterministic: the same plan and the same injected
timestamp always produce identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import shutil
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path

import yaml

from .config import DatabaseSpec, GeneratorConfig, SiteSpec
from .errors import BundleWriteError
from .resolvers import ComponentKind, FetchedComponent, ImageRef
from .titles import ParsedTitle

__all__ = [
    "StepKind",
    "SetupStep",
    "EnvironmentPlan",
    "BundleManifest",
    "FileDigest",
    "build_plan",
    "emit_bundle",
    "staging_dir",
    "render_step_argv",
    "render_step_line",
    "app_image_name",
    "validate_compose_subset",
    "provenance_schema",
]

BUNDLE_FILES = ("Dockerfile", "docker-compose.yml", "setup.sh", "provenance.json")

APP_SERVICE = "app"
DB_SERVICE = "db"

_EXTENSION_DIRS = {ComponentKind.PLUGIN: "plugins", ComponentKind.THEME: "themes"}


class StepKind(Enum):
    INSTALL_CORE = "install-core"
    CREATE_ADMIN = "create-admin"
    COPY_COMPONENT = "copy-component"
    ACTIVATE_PLUGIN = "activate-plugin"
    ACTIVATE_THEME = "activate-theme"


_SLUG_STEPS = {StepKind.COPY_COMPONENT, StepKind.ACTIVATE_PLUGIN, StepKind.ACTIVATE_THEME}
_ACTIVATE_STEPS = {StepKind.ACTIVATE_PLUGIN, StepKind.ACTIVATE_THEME}


@dataclass(frozen=True)
class SetupStep:
    """One post-boot configuration action."""

    kind: StepKind
    slug: str | None = None

    def __post_init__(self) -> None:
        if self.kind in _SLUG_STEPS and not self.slug:
            raise ValueError(f"{self.kind.value} needs a slug")
        if self.kind not in _SLUG_STEPS and self.slug is not None:
            raise ValueError(f"{self.kind.value} takes no slug")


@dataclass(frozen=True)
class EnvironmentPlan:
    """Everything needed to emit one reproducible environment."""

    edb_id: int
    title: str
    base_image: ImageRef
    components: tuple[FetchedComponent, ...]
    database: DatabaseSpec
    site: SiteSpec
    setup_steps: tuple[SetupStep, ...]
    docroot: str = "/var/www/html"
    unused_app_archive: str | None = None

    def __post_init__(self) -> None:
        slugs = [c.slug for c in self.components]
        if len(slugs) != len(set(slugs)):
            raise ValueError("component slugs must be unique within a plan")
        self._check_step_order()
        step_slugs = {s.slug for s in self.setup_steps if s.slug}
        if not step_slugs.issubset(set(slugs)):
            raise ValueError("setup steps reference slugs outside the plan's components")

    def _check_step_order(self) -> None:
        kinds = [s.kind for s in self.setup_steps]
        if kinds.count(StepKind.INSTALL_CORE) != 1 or kinds.count(StepKind.CREATE_ADMIN) != 1:
            raise ValueError("a plan has exactly one install step and one admin step")
        install = kinds.index(StepKind.INSTALL_CORE)
        admin = kinds.index(StepKind.CREATE_ADMIN)
        first_activate = min(
            (i for i, k in enumerate(kinds) if k in _ACTIVATE_STEPS), default=len(kinds)
        )
        if not (install < admin < first_activate):
            raise ValueError("steps must run install, then admin, then activations")
        copies: dict[str, int] = {}
        for i, step in enumerate(self.setup_steps):
            if step.kind is StepKind.COPY_COMPONENT:
                copies[step.slug] = i
            elif step.kind in _ACTIVATE_STEPS:
                if copies.get(step.slug, len(kinds)) > i:
                    raise ValueError(f"activation of {step.slug} precedes its copy step")

    def extension_dir(self, kind: ComponentKind) -> str:
        return f"{self.docroot}/wp-content/{_EXTENSION_DIRS[kind]}"

    def component_target(self, component: FetchedComponent) -> str:
        return f"{self.extension_dir(component.kind)}/{component.slug}"


@dataclass(frozen=True)
class FileDigest:
    path: str
    sha256: str


@dataclass(frozen=True)
class BundleManifest:
    """Relative paths and content digests of everything emitted."""

    bundle_dir: Path
    files: tuple[FileDigest, ...]

    def digest_map(self) -> dict[str, str]:
        return {f.path: f.sha256 for f in self.files}


def app_image_name(edb_id: int) -> str:
    """The tag the bundle's build file is expected to be built as."""
    return f"vulnwp-{edb_id}"


def build_plan(
    parsed: ParsedTitle,
    image: ImageRef,
    components: list[FetchedComponent] | tuple[FetchedComponent, ...],
    config: GeneratorConfig,
    *,
    edb_id: int,
    title: str,
    unused_app_archive: str | None = None,
) -> EnvironmentPlan:
    """Assemble the environment plan for one resolved exploit.

    Steps always open with the core install and the admin account; each
    component then contributes a copy check and its activation, in the
    order the components were resolved.
    """
    steps: list[SetupStep] = [
        SetupStep(StepKind.INSTALL_CORE),
        SetupStep(StepKind.CREATE_ADMIN),
    ]
    for component in components:
        steps.append(SetupStep(StepKind.COPY_COMPONENT, component.slug))
        if component.kind is ComponentKind.PLUGIN:
            steps.append(SetupStep(StepKind.ACTIVATE_PLUGIN, component.slug))
        else:
            steps.append(SetupStep(StepKind.ACTIVATE_THEME, component.slug))
    return EnvironmentPlan(
        edb_id=edb_id,
        title=title,
        base_image=image,
        components=tuple(components),
        database=config.database,
        site=config.site,
        setup_steps=tuple(steps),
        docroot=config.docroot,
        unused_app_archive=unused_app_archive,
    )


def render_step_argv(step: SetupStep, plan: EnvironmentPlan) -> list[str]:
    """Render one setup step as the argv to run inside the app container."""
    wp = ["wp", "--allow-root", f"--path={plan.docroot}"]
    site = plan.site
    if step.kind is StepKind.INSTALL_CORE:
        return wp + [
            "core",
            "install",
            f"--url={site.url}",
            f"--title=edb-{plan.edb_id}",
            f"--admin_user={site.owner_user}",
            f"--admin_password={site.owner_password}",
            f"--admin_email={site.owner_email}",
            "--skip-email",
        ]
    if step.kind is StepKind.CREATE_ADMIN:
        return wp + [
            "user",
            "create",
            site.admin_user,
            site.admin_email,
            "--role=administrator",
            f"--user_pass={site.admin_password}",
        ]
    if step.kind is StepKind.COPY_COMPONENT:
        component = _component_by_slug(plan, step.slug)
        return ["test", "-e", plan.component_target(component)]
    if step.kind is StepKind.ACTIVATE_PLUGIN:
        return wp + ["plugin", "activate", step.slug]
    return wp + ["theme", "activate", step.slug]


def render_step_line(step: SetupStep, plan: EnvironmentPlan) -> str:
    return shlex.join(render_step_argv(step, plan))


def _component_by_slug(plan: EnvironmentPlan, slug: str | None) -> FetchedComponent:
    for component in plan.components:
        if component.slug == slug:
            return component
    raise ValueError(f"no component with slug {slug!r} in plan")


def _render_dockerfile(plan: EnvironmentPlan) -> str:
    lines = [f"FROM {plan.base_image}"]
    for component in plan.components:
        lines.append(f"COPY components/{component.slug} {plan.component_target(component)}")
    return "\n".join(lines) + "\n"


def _render_compose(plan: EnvironmentPlan) -> str:
    db = plan.database
    site = plan.site
    return (
        "services:\n"
        f"  {APP_SERVICE}:\n"
        f"    image: {app_image_name(plan.edb_id)}\n"
        "    environment:\n"
        f"      WORDPRESS_DB_HOST: {DB_SERVICE}\n"
        f"      WORDPRESS_DB_NAME: {db.name}\n"
        f"      WORDPRESS_DB_PASSWORD: {db.password}\n"
        f"      WORDPRESS_DB_USER: {db.user}\n"
        "    ports:\n"
        f"      - \"{site.http_port}:80\"\n"
        "    depends_on:\n"
        f"      - {DB_SERVICE}\n"
        f"  {DB_SERVICE}:\n"
        f"    image: {db.image}\n"
        "    environment:\n"
        f"      MYSQL_DATABASE: {db.name}\n"
        f"      MYSQL_PASSWORD: {db.password}\n"
        f"      MYSQL_ROOT_PASSWORD: {db.root_password}\n"
        f"      MYSQL_USER: {db.user}\n"
    )


def _render_setup_script(plan: EnvironmentPlan) -> str:
    lines = [
        "#!/bin/sh",
        "# Post-boot site configuration. Run inside the application container.",
        "set -e",
    ]
    lines.extend(render_step_line(step, plan) for step in plan.setup_steps)
    return "\n".join(lines) + "\n"


def _render_provenance(plan: EnvironmentPlan, generated_at: datetime) -> str:
    payload = {
        "edb_id": plan.edb_id,
        "title": plan.title,
        "generated_at": generated_at.isoformat(),
        "image": {
            "repository": plan.base_image.repository,
            "tag": plan.base_image.tag,
        },
        "components": [
            {
                "kind": c.kind.value,
                "slug": c.slug,
                "version": str(c.version) if c.version else None,
                "source": {"kind": c.source.kind.value, "locator": c.source.locator},
            }
            for c in plan.components
        ],
        "unused_app_archive": plan.unused_app_archive,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def staging_dir(bundle_dir: Path | str) -> Path:
    """The directory a bundle is built in before it is renamed into place.

    A component fetched into <staging_dir>/components/<slug> becomes part
    of the bundle without another copy.
    """
    bundle_dir = Path(bundle_dir)
    return bundle_dir.with_name(f".{bundle_dir.name}.partial")


def emit_bundle(
    plan: EnvironmentPlan,
    bundle_dir: Path | str,
    *,
    generated_at: datetime,
) -> BundleManifest:
    """Write the bundle for a plan and return the manifest.

    generated_at lands in provenance.json; the same value makes two
    emissions byte identical. The bundle appears whole or not at all and
    holds exactly what the plan names. Raises BundleWriteError when any
    file cannot be written; the staging directory is then removed and an
    earlier bundle stays in place.
    """
    bundle_dir = Path(bundle_dir)
    staging = staging_dir(bundle_dir)
    components_dir = staging / "components"

    rendered = {
        "Dockerfile": _render_dockerfile(plan),
        "docker-compose.yml": _render_compose(plan),
        "setup.sh": _render_setup_script(plan),
        "provenance.json": _render_provenance(plan, generated_at),
    }
    digests = {}
    try:
        staged = {c.slug for c in plan.components if c.payload_path == components_dir / c.slug}
        if not staged:
            _make_empty_dir(staging)
        for name, text in rendered.items():
            data = text.encode("utf-8")
            target = staging / name
            target.write_bytes(data)
            if name == "setup.sh":
                target.chmod(0o755)
            digests[name] = hashlib.sha256(data).hexdigest()
        for component in plan.components:
            if component.slug not in staged:
                shutil.copytree(component.payload_path, components_dir / component.slug)
        if plan.components:
            digests.update(_hash_payloads(staging))
        _swap_into_place(staging, bundle_dir)
    except OSError as exc:
        shutil.rmtree(staging, ignore_errors=True)
        raise BundleWriteError(f"emitting bundle into {bundle_dir} failed: {exc}") from exc

    ordered = sorted(digests, key=lambda path: path.split("/"))
    return BundleManifest(
        bundle_dir=bundle_dir,
        files=tuple(FileDigest(path=path, sha256=digests[path]) for path in ordered),
    )


def _make_empty_dir(path: Path) -> None:
    """Create path, first removing whatever a crashed run left there."""
    try:
        path.mkdir(parents=True)
    except FileExistsError:
        shutil.rmtree(path)
        path.mkdir()


def _hash_payloads(staging: Path) -> dict[str, str]:
    """sha256 of every file under staging/components, keyed by its posix path below staging."""
    digests = {}
    skip = len(str(staging)) + 1
    for folder, _, names in os.walk(staging / "components", onerror=_raise):
        below = folder[skip:].replace(os.sep, "/")
        for name in names:
            with open(os.path.join(folder, name), "rb") as handle:
                digests[f"{below}/{name}"] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def _raise(error: OSError) -> None:
    raise error


def _swap_into_place(staging: Path, bundle_dir: Path) -> None:
    """Rename staging to bundle_dir; an earlier bundle is moved aside, then removed."""
    try:
        os.replace(staging, bundle_dir)
        return
    except OSError:
        if not bundle_dir.is_dir():
            raise
    aside = bundle_dir.with_name(f".{bundle_dir.name}.old")
    shutil.rmtree(aside, ignore_errors=True)
    os.replace(bundle_dir, aside)
    os.replace(staging, bundle_dir)
    shutil.rmtree(aside, ignore_errors=True)


_SERVICE_KEYS = {"image", "environment", "ports", "depends_on"}


def validate_compose_subset(text: str) -> dict:
    """Parse a compose manifest under the supported subset grammar.

    The subset allows a single top-level "services" map with exactly two
    services; each service may carry only image, environment, ports, and
    depends_on. The application service must depend on the database
    service. Raises ValueError on any violation and returns the parsed
    document otherwise.
    """
    document = yaml.safe_load(text)
    if not isinstance(document, dict) or set(document) != {"services"}:
        raise ValueError("compose document must have exactly one top-level key: services")
    services = document["services"]
    if not isinstance(services, dict) or len(services) != 2:
        raise ValueError("compose subset requires exactly two services")
    dependencies = {}
    for name, body in services.items():
        if not isinstance(body, dict):
            raise ValueError(f"service {name} must be a mapping")
        extra = set(body) - _SERVICE_KEYS
        if extra:
            raise ValueError(f"service {name} uses keys outside the subset: {sorted(extra)}")
        if not isinstance(body.get("image"), str) or not body["image"]:
            raise ValueError(f"service {name} needs an image string")
        environment = body.get("environment", {})
        if not isinstance(environment, dict):
            raise ValueError(f"service {name} environment must be a mapping")
        for port in body.get("ports", []):
            if not isinstance(port, str) or ":" not in port:
                raise ValueError(f"service {name} port {port!r} must look like 'host:container'")
        dependencies[name] = list(body.get("depends_on", []))
    names = set(services)
    dependents = {name for name, deps in dependencies.items() if deps}
    if len(dependents) != 1:
        raise ValueError("exactly one service (the application) must declare depends_on")
    app = dependents.pop()
    if set(dependencies[app]) != names - {app}:
        raise ValueError("the application service must depend on the database service")
    return document


def provenance_schema() -> dict:
    """JSON schema the emitted provenance.json validates against."""
    return {
        "type": "object",
        "required": ["edb_id", "title", "generated_at", "image", "components", "unused_app_archive"],
        "additionalProperties": False,
        "properties": {
            "edb_id": {"type": "integer"},
            "title": {"type": "string"},
            "generated_at": {"type": "string"},
            "image": {
                "type": "object",
                "required": ["repository", "tag"],
                "additionalProperties": False,
                "properties": {
                    "repository": {"type": "string"},
                    "tag": {"type": "string"},
                },
            },
            "components": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["kind", "slug", "version", "source"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["plugin", "theme"]},
                        "slug": {"type": "string"},
                        "version": {"type": ["string", "null"]},
                        "source": {
                            "type": "object",
                            "required": ["kind", "locator"],
                            "additionalProperties": False,
                            "properties": {
                                "kind": {"enum": ["svn-repo", "software-link", "exploitdb-app"]},
                                "locator": {"type": "string"},
                            },
                        },
                    },
                },
            },
            "unused_app_archive": {"type": ["string", "null"]},
        },
    }
