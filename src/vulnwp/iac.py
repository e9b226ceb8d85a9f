"""Turn a resolution result into an on-disk container bundle.

Each bundle directory holds exactly four generated files plus the
component payloads under components/<slug>:

  Dockerfile          image build: FROM the resolved base, COPY components
  docker-compose.yml  two services (app, db) under a strict key subset
  setup.sh            post-boot site configuration: setup_commands(plan), one per line
  provenance.json     where everything came from, stable key order

setup_commands computes the setup commands from the plan's components;
bootstrap runs the same list in the app container.

A bundle is built in a staging directory beside it, <out>/.<name>.partial,
and renamed into place whole, replacing any earlier bundle of the same
name; a failed emission leaves the earlier bundle as it was. stage_bundle
clears the staging directory and names where each payload is fetched,
<staging>/components/<slug>; emit_bundle adds the rendered files there
and hashes the payloads in place, so no payload is copied. The four
rendered files are written with plain descriptor writes (os.open, then
os.write until every byte is out), and setup.sh gets its executable mode
on its open descriptor; they are hashed from memory and only the payload
files are read back. provenance.json is laid out from a fixed template
whose leaves go through the C string encoder; the bytes are those of
json.dumps(payload, indent=2, sort_keys=True) plus a newline.
docker-compose.yml writes every value as a JSON string, which YAML reads
as a double-quoted scalar equal to the value, so no value can add a key
or read back as a number, a comment or null.

The returned BundleManifest is the bundle directory and the {relative
path: sha256} map emission built.

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
from pathlib import Path

import yaml

from .config import DatabaseSpec, GeneratorConfig, SiteSpec
from .errors import BundleWriteError
from .resolvers import ComponentKind, FetchedComponent, ImageRef
from .titles import ParsedTitle

__all__ = [
    "EnvironmentPlan",
    "BundleManifest",
    "build_plan",
    "stage_bundle",
    "discard_staging",
    "emit_bundle",
    "setup_commands",
    "app_image_name",
    "validate_compose_subset",
    "provenance_schema",
]

BUNDLE_FILES = ("Dockerfile", "docker-compose.yml", "setup.sh", "provenance.json")

APP_SERVICE = "app"
DB_SERVICE = "db"

_EXTENSION_DIRS = {ComponentKind.PLUGIN: "plugins", ComponentKind.THEME: "themes"}


@dataclass(frozen=True)
class EnvironmentPlan:
    """Everything needed to emit one reproducible environment."""

    edb_id: int
    title: str
    base_image: ImageRef
    components: tuple[FetchedComponent, ...]
    database: DatabaseSpec
    site: SiteSpec
    docroot: str
    unused_app_archive: str | None = None

    def __post_init__(self) -> None:
        # A component is staged and installed under its slug, so two with
        # one slug would share a payload directory and a target path.
        if len({c.slug for c in self.components}) != len(self.components):
            raise ValueError("component slugs must be unique within a plan")

    def component_target(self, component: FetchedComponent) -> str:
        return f"{self.docroot}/wp-content/{_EXTENSION_DIRS[component.kind]}/{component.slug}"


@dataclass(frozen=True)
class FileDigest:
    path: str
    sha256: str


class BundleManifest:
    """A bundle directory and the {relative path: sha256} map of every file in it.

    Both are kept as they were handed over: the directory as a Path or a
    string, the map itself rather than a copy, so the caller must not
    change it afterwards. Equality and hashing go by the directory's
    string and the map. .files is the map as FileDigests sorted by path
    parts, so "a/y" comes before "a-b/x"; it is built on each read.
    """

    __slots__ = ("bundle_dir", "_digests")

    def __init__(self, bundle_dir: Path | str, digests: dict[str, str]) -> None:
        self.bundle_dir = bundle_dir
        self._digests = digests

    @property
    def files(self) -> tuple[FileDigest, ...]:
        digests = self._digests
        ordered = sorted(digests, key=lambda path: path.split("/"))
        return tuple(FileDigest(path, digests[path]) for path in ordered)

    def digest_map(self) -> dict[str, str]:
        """A copy of the {relative path: sha256} map."""
        return dict(self._digests)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (os.fspath(self.bundle_dir) == os.fspath(other.bundle_dir)
                and self._digests == other._digests)

    def __hash__(self) -> int:
        return hash((os.fspath(self.bundle_dir), frozenset(self._digests.items())))

    def __repr__(self) -> str:
        return f"BundleManifest({self.bundle_dir!r}, {self._digests!r})"


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
    """Assemble the environment plan for one resolved exploit."""
    return EnvironmentPlan(
        edb_id=edb_id,
        title=title,
        base_image=image,
        components=tuple(components),
        database=config.database,
        site=config.site,
        docroot=config.docroot,
        unused_app_archive=unused_app_archive,
    )


def setup_commands(plan: EnvironmentPlan) -> list[list[str]]:
    """The post-boot commands for a plan, each an argv to run in the app container.

    The core install under the owner account and the scenario's admin
    account come first; then each component, in the order it was
    resolved, gets a check that its payload is in place and its
    activation.
    """
    wp = ["wp", "--allow-root", f"--path={plan.docroot}"]
    site = plan.site
    commands = [
        wp + [
            "core",
            "install",
            f"--url={site.url}",
            f"--title=edb-{plan.edb_id}",
            f"--admin_user={site.owner_user}",
            f"--admin_password={site.owner_password}",
            f"--admin_email={site.owner_email}",
            "--skip-email",
        ],
        wp + [
            "user",
            "create",
            site.admin_user,
            site.admin_email,
            "--role=administrator",
            f"--user_pass={site.admin_password}",
        ],
    ]
    for component in plan.components:
        # ComponentKind's value ("plugin", "theme") is also the wp subcommand.
        commands.append(["test", "-e", plan.component_target(component)])
        commands.append(wp + [component.kind.value, "activate", component.slug])
    return commands


def _render_dockerfile(plan: EnvironmentPlan) -> str:
    lines = [f"FROM {plan.base_image}"]
    for component in plan.components:
        lines.append(f"COPY components/{component.slug} {plan.component_target(component)}")
    return "\n".join(lines) + "\n"


# A JSON string is a YAML double-quoted scalar (YAML 1.2 is a superset of
# JSON) that reads back as the same string. This variant keeps non-ASCII
# characters as they are: the ASCII one writes a character outside the BMP
# as a surrogate-pair escape, which PyYAML reads back as two lone surrogates.
_yaml_string = json.encoder.encode_basestring


def _render_compose(plan: EnvironmentPlan) -> str:
    q = _yaml_string
    db = plan.database
    return (
        "services:\n"
        f"  {APP_SERVICE}:\n"
        f"    image: {q(app_image_name(plan.edb_id))}\n"
        "    environment:\n"
        f"      WORDPRESS_DB_HOST: {q(DB_SERVICE)}\n"
        f"      WORDPRESS_DB_NAME: {q(db.name)}\n"
        f"      WORDPRESS_DB_PASSWORD: {q(db.password)}\n"
        f"      WORDPRESS_DB_USER: {q(db.user)}\n"
        "    ports:\n"
        f"      - {q(f'{plan.site.http_port}:80')}\n"
        "    depends_on:\n"
        f"      - {q(DB_SERVICE)}\n"
        f"  {DB_SERVICE}:\n"
        f"    image: {q(db.image)}\n"
        "    environment:\n"
        f"      MYSQL_DATABASE: {q(db.name)}\n"
        f"      MYSQL_PASSWORD: {q(db.password)}\n"
        f"      MYSQL_ROOT_PASSWORD: {q(db.root_password)}\n"
        f"      MYSQL_USER: {q(db.user)}\n"
    )


def _render_setup_script(plan: EnvironmentPlan) -> str:
    lines = [
        "#!/bin/sh",
        "# Post-boot site configuration. Run inside the application container.",
        "set -e",
    ]
    lines.extend(map(shlex.join, setup_commands(plan)))
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
    """The directory a bundle is built in before it is renamed into place."""
    bundle_dir = _as_path(bundle_dir)
    return bundle_dir.with_name(f".{bundle_dir.name}.partial")


def _as_path(path: Path | str) -> Path:
    """path as a Path; Path(a_path) would parse every part of it again."""
    return path if isinstance(path, Path) else Path(path)


def stage_bundle(bundle_dir: Path | str, slugs: tuple[str, ...] = ()) -> list[Path]:
    """Clear bundle_dir's staging directory and return, for each slug, the
    directory its payload is fetched into, <staging>/components/<slug>.

    The first fetch makes the staging directory, so a record whose sources
    all miss makes none; with no slugs it is made here, empty. Raises
    OSError when it cannot be cleared or made.
    """
    staging = staging_dir(bundle_dir)
    if slugs:
        try:
            shutil.rmtree(staging)
        except FileNotFoundError:
            pass
        staging.parent.mkdir(parents=True, exist_ok=True)
    else:
        try:
            staging.mkdir(parents=True)
        except FileExistsError:
            shutil.rmtree(staging)
            staging.mkdir()
    return [staging / "components" / slug for slug in slugs]


def discard_staging(bundle_dir: Path | str) -> None:
    """Remove bundle_dir's staging directory and everything in it, if it exists."""
    shutil.rmtree(staging_dir(bundle_dir), ignore_errors=True)


def emit_bundle(
    plan: EnvironmentPlan,
    bundle_dir: Path | str,
    *,
    generated_at: datetime,
) -> BundleManifest:
    """Write the bundle for a plan into its staging directory, which
    stage_bundle prepared and the plan's payloads were fetched into,
    rename it into place and return the manifest.

    generated_at lands in provenance.json; the same value makes two
    emissions byte identical. The bundle appears whole or not at all and
    holds exactly what the plan names. Rendered files are written with
    plain descriptor writes; setup.sh is made 0o755 on its descriptor, the
    others get 0o666 less the umask. Raises BundleWriteError when the
    staged components are not the plan's or any file cannot be written;
    the staging directory is then removed and an earlier bundle stays in
    place.
    """
    bundle_dir = _as_path(bundle_dir)
    staging = staging_dir(bundle_dir)
    planned = sorted(c.slug for c in plan.components)

    dockerfile, compose, setup, provenance = BUNDLE_FILES
    rendered = {
        dockerfile: _render_dockerfile(plan),
        compose: _render_compose(plan),
        setup: _render_setup_script(plan),
        provenance: _render_provenance(plan, generated_at),
    }
    digests = {}
    try:
        components = staging / "components"
        staged = sorted(os.listdir(components)) if components.is_dir() else []
        if staged != planned:
            raise BundleWriteError(
                f"bundle {bundle_dir} has components {staged} staged, but its plan names {planned}"
            )
        for name, text in rendered.items():
            data = text.encode("utf-8")
            _write_file(os.path.join(staging, name), data, executable=name == setup)
            digests[name] = hashlib.sha256(data).hexdigest()
        if planned:
            digests.update(_hash_payloads(staging))
        _swap_into_place(staging, bundle_dir)
    except BundleWriteError:
        discard_staging(bundle_dir)
        raise
    except OSError as exc:
        discard_staging(bundle_dir)
        raise BundleWriteError(f"emitting bundle into {bundle_dir} failed: {exc}") from exc

    return BundleManifest(bundle_dir, digests)


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
