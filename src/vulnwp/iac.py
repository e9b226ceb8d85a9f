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
copied again. The four rendered files are written with plain descriptor
writes (os.open, then os.write until every byte is out), and setup.sh
gets its executable mode on its open descriptor; they are hashed from
memory and only the payload files are read back. provenance.json is
laid out from a fixed template whose leaves go through the C string
encoder; the bytes are those of json.dumps(payload, indent=2,
sort_keys=True) plus a newline.

The returned BundleManifest keeps the {relative path: sha256} map as
emission built it and the bundle directory as given. Its files sorted by
path parts, and the directory as a Path, are built only when first read,
so an outcome row that only carries the map to disk costs no sort.

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


class BundleManifest:
    """Relative paths and content digests of everything emitted.

    A manifest holds the {relative path: sha256} map it was made from and
    the bundle directory as it was given (a Path or a string). The sorted
    FileDigest tuple behind .files and the Path behind .bundle_dir are
    built on first read and kept, so a manifest that is only written out
    again, or not looked at, costs no sorting and no Path. Equality,
    hashing and repr go by (bundle_dir, files), as for a frozen dataclass
    of those two fields.
    """

    __slots__ = ("_dir", "_digests", "_files")

    def __init__(self, bundle_dir: Path | str, files: tuple[FileDigest, ...]) -> None:
        """A manifest listing files in the order given; see from_digests."""
        self._dir = bundle_dir
        self._files = tuple(files)
        self._digests = {f.path: f.sha256 for f in self._files}

    @classmethod
    def from_digests(cls, bundle_dir: Path | str, digests: dict[str, str]) -> "BundleManifest":
        """The manifest of digests ({relative path: sha256}), its files
        sorted by path parts, so "a/y" comes before "a-b/x".

        The manifest keeps digests itself rather than a copy; the caller
        hands it over and must not change it afterwards.
        """
        manifest = cls.__new__(cls)
        manifest._dir = bundle_dir
        manifest._digests = digests
        manifest._files = None
        return manifest

    @property
    def bundle_dir(self) -> Path:
        bundle_dir = self._dir
        if not isinstance(bundle_dir, Path):
            bundle_dir = self._dir = Path(bundle_dir)
        return bundle_dir

    @property
    def files(self) -> tuple[FileDigest, ...]:
        files = self._files
        if files is None:
            digests = self._digests
            ordered = sorted(digests, key=lambda path: path.split("/"))
            files = self._files = tuple(FileDigest(path, digests[path]) for path in ordered)
        return files

    def digest_map(self) -> dict[str, str]:
        """A copy of the {relative path: sha256} map."""
        return dict(self._digests)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.bundle_dir, self.files) == (other.bundle_dir, other.files)

    def __hash__(self) -> int:
        return hash((self.bundle_dir, self.files))

    def __repr__(self) -> str:
        return f"BundleManifest(bundle_dir={self.bundle_dir!r}, files={self.files!r})"


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


# The C encoder json.dumps uses for a string when ensure_ascii is set.
_json_string = json.encoder.encode_basestring_ascii


def _render_provenance(plan: EnvironmentPlan, generated_at: datetime) -> str:
    """The provenance payload as json.dumps(payload, indent=2, sort_keys=True)
    plus a newline would write it.

    With indent set, json.dumps runs its pure-Python encoder. The layout
    below is the one it gives this payload, keys in sorted order, and every
    leaf is encoded as it would encode it: strings by the C string encoder,
    the id by int.__repr__, None as null.
    """
    text = _json_string
    components = ",\n".join(
        "    {\n"
        f'      "kind": {text(c.kind.value)},\n'
        f'      "slug": {text(c.slug)},\n'
        '      "source": {\n'
        f'        "kind": {text(c.source.kind.value)},\n'
        f'        "locator": {text(c.source.locator)}\n'
        "      },\n"
        f'      "version": {text(str(c.version)) if c.version else "null"}\n'
        "    }"
        for c in plan.components
    )
    image = plan.base_image
    archive = plan.unused_app_archive
    return (
        "{\n"
        + (f'  "components": [\n{components}\n  ],\n' if components else '  "components": [],\n')
        + f'  "edb_id": {int.__repr__(plan.edb_id)},\n'
        f'  "generated_at": {text(generated_at.isoformat())},\n'
        '  "image": {\n'
        f'    "repository": {text(image.repository)},\n'
        f'    "tag": {text(image.tag)}\n'
        "  },\n"
        f'  "title": {text(plan.title)},\n'
        f'  "unused_app_archive": {"null" if archive is None else text(archive)}\n'
        "}\n"
    )


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
    holds exactly what the plan names. Rendered files are written with
    plain descriptor writes; setup.sh is made 0o755 on its descriptor, the
    others get 0o666 less the umask. Raises BundleWriteError when any file
    cannot be written; the staging directory is then removed and an
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
            _write_file(os.path.join(staging, name), data, executable=name == "setup.sh")
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

    return BundleManifest.from_digests(bundle_dir, digests)


def _write_file(path: str, data: bytes, *, executable: bool) -> None:
    """Create or truncate path and write all of data, looping over short writes."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if executable:
            os.fchmod(fd, 0o755)
    finally:
        os.close(fd)


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
