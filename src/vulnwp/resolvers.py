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

import logging
import re
import shutil
import zipfile
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import EmptySlugError, FetchError, NoImageError, NoVulnerableApplicationError
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
IMAGE_VERSION_FLOOR = Version(segments=(3, 1, 0), raw="3.1.0")

_SLUG_STRIP = re.compile(r"[^a-z0-9]+")


@dataclass(frozen=True)
class ImageRef:
    """A concrete registry image choice."""

    repository: str
    tag: str
    resolved_version: Version

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
        import json

        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def list_tags(self) -> list[str]:
        return list(self._tags)


class DockerHubTagIndex(TagIndex):
    """Tag index backed by the public hub API (network access required)."""

    _URL = f"https://hub.docker.com/v2/repositories/library/{TagIndex.repository}/tags"
    _PAGE_SIZE = 100

    def __init__(self, session=None) -> None:
        if session is None:
            import requests

            session = requests.Session()
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
    version, tag = index._image_tags[at]
    return ImageRef(repository=index.repository, tag=tag, resolved_version=version)


def find_latest_image(index: TagIndex) -> ImageRef:
    """Pick the highest plainly versioned tag at or above the floor.

    Used for extension scenarios, where the title's version describes the
    extension rather than the core.
    """
    if not index._image_tags:
        raise NoImageError(f"no versioned {index.repository} tag at or above {IMAGE_VERSION_FLOOR}")
    version, tag = index._image_tags[-1]
    return ImageRef(repository=index.repository, tag=tag, resolved_version=version)


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

        dest does not exist yet; the export creates it, so nothing already
        on disk merges into the payload.

        Returns the locator that was exported on success, None on a miss.
        Unexpected failures while copying an existing tree raise FetchError.
        """


class DiskSvnMirror(SvnMirror):
    """SVN mirror served from a local directory tree.

    Layout: <plugins_root>/<slug>/tags/<version>/... and the same under
    <themes_root>. Access is plain directory retrieval, no VCS client.
    """

    def __init__(self, plugins_root: Path | str, themes_root: Path | str) -> None:
        self._roots = {
            ComponentKind.PLUGIN: Path(plugins_root),
            ComponentKind.THEME: Path(themes_root),
        }

    def export(self, kind: ComponentKind, slug: str, version: Version | None, dest: Path) -> str | None:
        root = self._roots[kind]
        subdir = f"tags/{version}" if version is not None else "trunk"
        source = root / slug / subdir
        if not source.is_dir() or not any(source.iterdir()):
            return None
        try:
            shutil.copytree(source, dest)
        except OSError as exc:
            raise FetchError(f"copying {source} failed: {exc}") from exc
        return str(source)


class HttpSvnMirror(SvnMirror):
    """SVN mirror reached over plain HTTP directory listings.

    Works against the public repository front ends, which serve Apache
    style HTML indexes. Recursion is depth limited as a safety stop.
    """

    PLUGIN_URL = "https://plugins.svn.wordpress.org"
    THEME_URL = "https://themes.svn.wordpress.org"

    _HREF = re.compile(r'href="([^"?]+)"')
    _MAX_DEPTH = 6
    _TIMEOUT = 30.0

    def __init__(self, plugin_url: str = PLUGIN_URL, theme_url: str = THEME_URL, session=None) -> None:
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._urls = {ComponentKind.PLUGIN: plugin_url.rstrip("/"),
                      ComponentKind.THEME: theme_url.rstrip("/")}

    def export(self, kind: ComponentKind, slug: str, version: Version | None, dest: Path) -> str | None:
        """A 404 on the top listing is a miss; any other failure, a
        transport error included, raises FetchError."""
        subdir = f"tags/{version}" if version is not None else "trunk"
        base = f"{self._urls[kind]}/{slug}/{subdir}/"
        try:
            response = self._session.get(base, timeout=self._TIMEOUT)
            if response.status_code == 404:
                return None
            response.raise_for_status()
            self._mirror_dir(base, response.text, dest, self._MAX_DEPTH)
        except Exception as exc:
            raise FetchError(f"retrieving {base} failed: {exc}") from exc
        if not dest.is_dir() or not any(dest.iterdir()):
            return None
        return base

    def _mirror_dir(self, url: str, listing: str, dest: Path, depth: int) -> None:
        """Write the files the listing of url names into dest, and the
        directories it names, depth - 1 levels further down."""
        dest.mkdir(parents=True, exist_ok=True)
        for href in self._HREF.findall(listing):
            if href.startswith((".", "/", "http:", "https:")):
                continue
            if not href.endswith("/"):
                (dest / href).write_bytes(self._get(url + href).content)
            elif depth > 1:
                sub = url + href
                self._mirror_dir(sub, self._get(sub).text, dest / href.rstrip("/"), depth - 1)

    def _get(self, url: str):
        response = self._session.get(url, timeout=self._TIMEOUT)
        response.raise_for_status()
        return response


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

    def fetch(self, url: str, dest: Path) -> bool:
        archive = self._mapping.get(url)
        if archive is None or not archive.is_file():
            return False
        extract_archive(archive, dest)
        return True


class HttpLinkDownloader(LinkDownloader):
    """Link downloader that streams the archive over HTTP."""

    _TIMEOUT = 60.0

    def __init__(self, session=None) -> None:
        if session is None:
            import requests

            session = requests.Session()
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

    Raises FetchError for corrupt or empty archives and extraction
    failures.
    """
    try:
        dest.mkdir(parents=True, exist_ok=True)
        with zipfile.ZipFile(archive) as bundle:
            members = bundle.infolist()
            if not members:
                raise FetchError(f"archive {archive} is empty")
            resolved_dest = dest.resolve()
            for member in members:
                target = (dest / member.filename).resolve()
                if not target.is_relative_to(resolved_dest):
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

    if record.app_archive is not None and record.app_archive.is_file():
        extract_archive(record.app_archive, dest)
        locator = str(record.app_archive)
        logger.info("%s %s unpacked from attached archive %s", kind.value, slug, locator)
        return FetchedComponent(kind, slug, version, ComponentSource(SourceKind.EXPLOITDB_APP, locator))

    raise NoVulnerableApplicationError(
        f"no source provided {kind.value} {slug}"
        f"{f' {version}' if version else ''} for exploit {record.edb_id}"
    )
