"""Resolve base images and fetch vulnerable extension payloads.

Image resolution picks the highest registry tag satisfying a version
constraint, never below 3.1.0 (the oldest core release published to the
container registry, 2011). A tag index fetches its tag list once, on first
use, so a tag pushed to the registry mid-run is seen on the next run. It
keeps the eligible tags sorted with their version keys beside them, and a
lookup binary-searches those keys, so its cost grows with the logarithm
of the number of tags.
Extension payloads are tried in a fixed order: the public SVN mirror first,
then a direct .zip software link from the PoC header, then the archive
attached to the exploit record itself.
"""

from __future__ import annotations

import json
import logging
import os
import posixpath
import re
import zipfile
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import unquote

from .errors import EmptySlugError, FetchError, NoImageError, NoVulnerableApplicationError, VulnwpError
from .versions import DOTTED_NUMERIC, ConstraintKind, Version, VersionConstraint

if TYPE_CHECKING:
    from .corpus import ExploitRecord

logger = logging.getLogger(__name__)

__all__ = [
    "IMAGE_VERSION_FLOOR",
    "ImageRef",
    "ComponentKind",
    "SourceKind",
    "ComponentSource",
    "FetchedComponent",
    "TagIndex",
    "FixtureTagIndex",
    "DockerHubTagIndex",
    "SvnMirror",
    "DiskSvnMirror",
    "HttpSvnMirror",
    "LinkDownloader",
    "FixtureLinkDownloader",
    "HttpLinkDownloader",
    "SourceClients",
    "find_core_image",
    "find_latest_image",
    "derive_slug",
    "fetch_component",
    "extract_archive",
]

# First core release ever published to the hub; older releases have no image.
IMAGE_VERSION_FLOOR = Version(segments=(3, 1, 0))

_SLUG_STRIP = re.compile(r"[^a-z0-9]+")


@dataclass(frozen=True)
class ImageRef:
    """A concrete registry image choice."""

    repository: str
    tag: str

    def __str__(self) -> str:
        return f"{self.repository}:{self.tag}"


class ComponentKind(Enum):
    PLUGIN = "plugin"
    THEME = "theme"


class SourceKind(Enum):
    SVN_REPO = "svn-repo"
    SOFTWARE_LINK = "software-link"
    EXPLOITDB_APP = "exploitdb-app"


@dataclass(frozen=True)
class ComponentSource:
    """Where a component payload came from."""

    kind: SourceKind
    locator: str

    def __post_init__(self) -> None:
        if not self.locator:
            raise ValueError("a component source needs a locator")


@dataclass(frozen=True)
class FetchedComponent:
    """A fetched extension payload and its source; fetch_component's dest holds it."""

    kind: ComponentKind
    slug: str
    version: Version | None
    source: ComponentSource


class TagIndex(ABC):
    """Lists the tags published for one image repository."""

    repository: str = "wordpress"

    @abstractmethod
    def list_tags(self) -> list[str]:
        """Return every known tag name (order is not significant)."""

    @cached_property
    def _image_tags(self) -> list[tuple[Version, str]]:
        """Plain dotted numeric tags at or above the floor, ascending by (version, tag).

        Listed on first use only. Variant tags ("latest", "5.0-php7.2-apache") never pick images.
        """
        pairs = [(Version.parse(tag), tag) for tag in self.list_tags() if DOTTED_NUMERIC.fullmatch(tag)]
        return sorted(pair for pair in pairs if pair[0] >= IMAGE_VERSION_FLOOR)

    @cached_property
    def _image_keys(self) -> list[tuple[int, ...]]:
        """Version.key of each entry of _image_tags, in the same (ascending) order."""
        return [version.key for version, _ in self._image_tags]


class FixtureTagIndex(TagIndex):
    """Tag index backed by a static list, usually read from a JSON file."""

    def __init__(self, tags: list[str]) -> None:
        self._tags = list(tags)

    @classmethod
    def from_json(cls, path: Path | str) -> "FixtureTagIndex":
        """Read a JSON list of tag names.

        Raises VulnwpError naming the file when it is not UTF-8 JSON or does
        not hold a list of strings.
        """
        try:
            tags = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise VulnwpError(f"registry listing {path} is not valid JSON: {exc}") from exc
        if not isinstance(tags, list) or not all(isinstance(tag, str) for tag in tags):
            raise VulnwpError(f"registry listing {path} must hold a JSON list of strings")
        return cls(tags)

    def list_tags(self) -> list[str]:
        return list(self._tags)


class DockerHubTagIndex(TagIndex):
    """Tag index backed by the public hub API (network access required)."""

    _URL = f"https://hub.docker.com/v2/repositories/library/{TagIndex.repository}/tags"
    _PAGE_SIZE = 100

    def __init__(self, session) -> None:
        self._session = session

    def list_tags(self) -> list[str]:
        """Every tag over all pages; any failure, a transport error, an HTTP
        error or a page that is not the expected JSON, raises NoImageError."""
        url = self._URL
        params: dict | None = {"page_size": self._PAGE_SIZE}
        tags: list[str] = []
        try:
            while url:
                response = self._session.get(url, params=params, timeout=30)
                response.raise_for_status()
                payload = response.json()
                tags.extend(item["name"] for item in payload.get("results", []))
                url = payload.get("next")
                params = None
        except Exception as exc:
            raise NoImageError(f"listing {url} failed: {exc}") from exc
        return tags


def find_core_image(constraint: VersionConstraint, index: TagIndex) -> ImageRef:
    """Pick the highest tag satisfying the constraint, at or above the floor.

    Raises NoImageError when nothing qualifies. Tags spelling the same
    version differently ("4.7" and "4.7.0") tie-break on the tag string so
    the choice stays deterministic. The pick is a binary search over the
    index's sorted version keys: a bound takes the last tag below (or at)
    it, and an exact version or a set takes the highest member that is
    the last tag at its own key.
    """
    keys = index._image_keys
    if constraint.kind is ConstraintKind.UPPER_BOUND_EXCLUSIVE:
        at = bisect_left(keys, constraint.versions[0].key) - 1
    elif constraint.kind is ConstraintKind.UPPER_BOUND_INCLUSIVE:
        at = bisect_right(keys, constraint.versions[0].key) - 1
    else:
        at = -1
        for member in constraint.versions:
            i = bisect_right(keys, member.key) - 1
            if i > at and keys[i] == member.key:
                at = i
    if at < 0:
        raise NoImageError(
            f"no {index.repository} tag satisfies {constraint} at or above {IMAGE_VERSION_FLOOR}"
        )
    return ImageRef(repository=index.repository, tag=index._image_tags[at][1])


def find_latest_image(index: TagIndex) -> ImageRef:
    """Pick the highest plainly versioned tag at or above the floor.

    Used for extension scenarios, where the title's version describes the
    extension rather than the core.
    """
    if not index._image_tags:
        raise NoImageError(f"no versioned {index.repository} tag at or above {IMAGE_VERSION_FLOOR}")
    return ImageRef(repository=index.repository, tag=index._image_tags[-1][1])


def derive_slug(product: str) -> str:
    """Reduce a product name to its repository slug.

    Lower cases, collapses every run of non-alphanumerics into one hyphen,
    and strips hyphens from the ends. Raises EmptySlugError when nothing
    remains.
    """
    slug = _SLUG_STRIP.sub("-", product.lower()).strip("-")
    if not slug:
        raise EmptySlugError(f"product {product!r} leaves no slug")
    return slug


class SvnMirror(ABC):
    """Read-only access to the public plugin and theme SVN trees."""

    @abstractmethod
    def export(self, kind: ComponentKind, slug: str, version: Version | None, dest: Path) -> str | None:
        """Copy <slug>/tags/<version>/ (or trunk/ when version is None) into dest.

        Returns the locator exported, or None on a miss: a source that
        cannot be listed, or lists nothing, makes no dest. Otherwise the
        export makes dest, so an existing dest is a FetchError. Every entry
        is copied, dot-names such as .htaccess too, under its decoded name,
        with a new file's or directory's mode and mtime. A name that is "",
        "." or ".." or holds "/", a directory that cannot be listed or lies
        more than _MAX_DEPTH levels down, and any other failure while
        copying raise FetchError.
        """


# A directory nested deeper than this below the exported source is a
# FetchError: a bound against a listing that never ends, far above real trees.
_MAX_DEPTH = 32


def _svn_path(slug: str, version: Version | None) -> str:
    return f"{slug}/tags/{version}" if version is not None else f"{slug}/trunk"


def _export_tree(mirror: DiskSvnMirror | HttpSvnMirror, top: str, dest: Path) -> bool:
    """The walk SvnMirror.export documents; False on a miss. The mirror's
    _list gives a directory's entries as (file system name, locator, is a
    directory), or None when it cannot be listed; its _read a file's bytes."""

    def copy(entries: list[tuple[str, str, bool]], into: str, depth: int) -> None:
        for name, locator, is_dir in entries:
            if name in ("", ".", "..") or "/" in name:
                raise FetchError(f"{locator} is listed under the unsafe name {name!r}")
            target = f"{into}/{name}"
            if not is_dir:
                write_file(target, mirror._read(locator))
                continue
            if depth > _MAX_DEPTH:
                raise FetchError(f"{locator} is nested more than {_MAX_DEPTH} directories deep")
            listed = mirror._list(locator)
            if listed is None:
                raise FetchError(f"{locator} cannot be listed")
            os.mkdir(target)
            copy(listed, target, depth + 1)

    entries = mirror._list(top)
    if not entries:
        return False
    os.makedirs(dest)
    copy(entries, os.fspath(dest), 1)
    return True


class DiskSvnMirror(SvnMirror):
    """SVN mirror served from a local directory tree.

    Layout: <plugins_root>/<slug>/tags/<version>/... and the same under
    <themes_root>. Access is plain directory retrieval, no VCS client: one
    os.scandir per directory. Links are followed, so a link to a file or a
    directory is copied as its content. Anything else (a FIFO, a dangling
    link) raises FetchError, and a FIFO is never opened.
    """

    def __init__(self, plugins_root: Path | str, themes_root: Path | str) -> None:
        # Each root as the prefix str(Path(root) / slug) begins with, so a
        # locator is the string it was when it was built from Paths.
        self._prefixes = {
            ComponentKind.PLUGIN: str(Path(plugins_root) / "_")[:-1],
            ComponentKind.THEME: str(Path(themes_root) / "_")[:-1],
        }

    def export(self, kind: ComponentKind, slug: str, version: Version | None, dest: Path) -> str | None:
        source = self._prefixes[kind] + _svn_path(slug, version)
        try:
            return source if _export_tree(self, source, dest) else None
        except (OSError, FetchError) as exc:
            raise FetchError(f"copying {source} failed: {exc}") from exc

    @staticmethod
    def _list(path: str) -> list[tuple[str, str, bool]] | None:
        try:
            with os.scandir(path) as listing:
                entries = list(listing)
        except OSError:
            return None
        for entry in entries:
            if not entry.is_dir() and not entry.is_file():
                raise FetchError(f"{entry.path} is neither a regular file nor a directory")
        return [(entry.name, entry.path, entry.is_dir()) for entry in entries]

    @staticmethod
    def _read(path: str) -> bytes:
        with open(path, "rb", buffering=0) as handle:
            return handle.readall()


def write_file(path: str, data: bytes, *, executable: bool = False) -> None:
    """Create or truncate path and write all of data, looping over short
    writes; executable makes it 0o755 on its descriptor."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if executable:
            os.fchmod(fd, 0o755)
    finally:
        os.close(fd)


class HttpSvnMirror(SvnMirror):
    """SVN mirror reached over plain HTTP directory listings.

    Works against the public repository front ends, which serve Apache
    style HTML indexes.
    """

    PLUGIN_URL = "https://plugins.svn.wordpress.org"
    THEME_URL = "https://themes.svn.wordpress.org"

    _HREF = re.compile(r'href="([^"?]+)"')
    _TIMEOUT = 30.0

    def __init__(self, session, *, plugin_url: str = PLUGIN_URL, theme_url: str = THEME_URL) -> None:
        self._session = session
        self._urls = {ComponentKind.PLUGIN: plugin_url.rstrip("/"),
                      ComponentKind.THEME: theme_url.rstrip("/")}

    def export(self, kind: ComponentKind, slug: str, version: Version | None, dest: Path) -> str | None:
        """A 404 on the top listing is a miss; any other failure, a
        transport error included, raises FetchError."""
        base = f"{self._urls[kind]}/{_svn_path(slug, version)}/"
        try:
            return base if _export_tree(self, base, dest) else None
        except Exception as exc:
            raise FetchError(f"retrieving {base} failed: {exc}") from exc

    def _list(self, url: str) -> list[tuple[str, str, bool]] | None:
        """The index page's links but the parent and off-tree ones, or None
        on a 404: each named by its href percent-decoded, fetched by it as listed."""
        response = self._session.get(url, timeout=self._TIMEOUT)
        if response.status_code == 404:
            return None
        response.raise_for_status()
        return [(unquote(href.removesuffix("/")), url + href, href.endswith("/"))
                for href in self._HREF.findall(response.text)
                if href != "../" and not href.startswith(("/", "http:", "https:"))]

    def _read(self, url: str) -> bytes:
        response = self._session.get(url, timeout=self._TIMEOUT)
        response.raise_for_status()
        return response.content


class LinkDownloader(ABC):
    """Fetches a software link archive and unpacks it."""

    @abstractmethod
    def fetch(self, url: str, dest: Path) -> bool:
        """Download the archive at url and extract it into dest.

        Returns False on a miss (unknown URL, HTTP 4xx/5xx). Raises
        FetchError when the archive exists but cannot be materialized.
        """


class FixtureLinkDownloader(LinkDownloader):
    """Link downloader backed by a URL-to-local-file map."""

    def __init__(self, mapping: dict[str, Path | str]) -> None:
        self._mapping = {url: Path(p) for url, p in mapping.items()}

    @classmethod
    def from_json(cls, path: Path | str) -> "FixtureLinkDownloader":
        """Read a JSON object mapping URLs to archive paths relative to the file's directory.

        Raises VulnwpError naming the file when it is not UTF-8 JSON or does
        not hold that shape.
        """
        path = Path(path)
        try:
            mapping = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise VulnwpError(f"link map {path} is not valid JSON: {exc}") from exc
        if not isinstance(mapping, dict) or not all(isinstance(rel, str) for rel in mapping.values()):
            raise VulnwpError(f"link map {path} must hold a JSON object mapping URLs to paths")
        return cls({url: path.parent / rel for url, rel in mapping.items()})

    def fetch(self, url: str, dest: Path) -> bool:
        archive = self._mapping.get(url)
        if archive is None or not archive.is_file():
            return False
        extract_archive(archive, dest)
        return True


class HttpLinkDownloader(LinkDownloader):
    """Link downloader that streams the archive over HTTP."""

    _TIMEOUT = 60.0

    def __init__(self, session) -> None:
        self._session = session

    def fetch(self, url: str, dest: Path) -> bool:
        import tempfile

        try:
            response = self._session.get(url, timeout=self._TIMEOUT)
        except Exception as exc:
            raise FetchError(f"downloading {url} failed: {exc}") from exc
        if response.status_code != 200:
            logger.info("software link %s answered %s, treating as a miss", url, response.status_code)
            return False
        with tempfile.NamedTemporaryFile(suffix=".zip") as handle:
            handle.write(response.content)
            handle.flush()
            extract_archive(Path(handle.name), dest)
        return True


@dataclass
class SourceClients:
    """The component sources a pipeline run has configured."""

    svn: SvnMirror | None = None
    link: LinkDownloader | None = None


def extract_archive(archive: Path, dest: Path) -> None:
    """Unpack a zip archive into dest, refusing traversal outside it.

    The check is lexical: a member whose normalized name is absolute, is
    "..", or starts with "../" is refused before anything is extracted.
    Resolving each target gives the same answer as long as dest holds no
    links, as the new directory fetch_component passes does not;
    extraction itself makes none. Raises FetchError for corrupt or empty
    archives, such a member, and extraction failures.
    """
    try:
        os.makedirs(dest, exist_ok=True)
        with zipfile.ZipFile(archive) as bundle:
            members = bundle.infolist()
            if not members:
                raise FetchError(f"archive {archive} is empty")
            for member in members:
                name = posixpath.normpath(member.filename)
                if name == ".." or name.startswith(("/", "../")):
                    raise FetchError(f"archive {archive} escapes its directory: {member.filename}")
            bundle.extractall(dest)
    except (zipfile.BadZipFile, OSError) as exc:
        raise FetchError(f"extracting {archive} failed: {exc}") from exc


def fetch_component(
    kind: ComponentKind,
    slug: str,
    version: Version | None,
    record: "ExploitRecord",
    sources: SourceClients,
    dest: Path,
) -> FetchedComponent:
    """Materialize an extension payload using the fixed source order.

    Order: SVN tree (tags/<version>/ when a version is known, trunk/
    otherwise), then the PoC header's software link when it points
    directly at a .zip, then the archive attached to the record. The PoC
    is read only when a link client is configured. The first source that
    produces a payload wins and creates dest; when all miss, nothing is
    written and NoVulnerableApplicationError is raised.
    """
    if sources.svn is not None:
        locator = sources.svn.export(kind, slug, version, dest)
        if locator is not None:
            logger.info("%s %s fetched from SVN tree %s", kind.value, slug, locator)
            return FetchedComponent(kind, slug, version, ComponentSource(SourceKind.SVN_REPO, locator))

    if sources.link is not None:
        link = record.poc_header.get("software-link", "").strip()
        if link.lower().endswith(".zip") and sources.link.fetch(link, dest):
            logger.info("%s %s fetched from software link %s", kind.value, slug, link)
            return FetchedComponent(kind, slug, version, ComponentSource(SourceKind.SOFTWARE_LINK, link))

    if record.app_archive is not None:
        extract_archive(record.app_archive, dest)
        locator = str(record.app_archive)
        logger.info("%s %s unpacked from attached archive %s", kind.value, slug, locator)
        return FetchedComponent(kind, slug, version, ComponentSource(SourceKind.EXPLOITDB_APP, locator))

    raise NoVulnerableApplicationError(
        f"no source provided {kind.value} {slug}"
        f"{f' {version}' if version else ''} for exploit {record.edb_id}"
    )
