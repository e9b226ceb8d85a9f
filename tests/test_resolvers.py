from __future__ import annotations

import os
import random
import re
import stat
import tempfile
import threading
import zipfile
from pathlib import Path
from urllib.parse import quote

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vulnwp.errors import EmptySlugError, FetchError, NoImageError, NoVulnerableApplicationError
from vulnwp.resolvers import (
    _MAX_DEPTH,
    IMAGE_VERSION_FLOOR,
    ComponentKind,
    DiskSvnMirror,
    DockerHubTagIndex,
    FixtureLinkDownloader,
    FixtureTagIndex,
    HttpLinkDownloader,
    HttpSvnMirror,
    SourceClients,
    SourceKind,
    derive_slug,
    extract_archive,
    fetch_component,
    find_core_image,
    find_latest_image,
)
from vulnwp.versions import Version, VersionConstraint, parse_version_expr

from conftest import REGISTRY_TAGS, make_record, write_zip


def ver(text: str) -> Version:
    return Version.parse(text)


# The oracle orders versions as zero-padded int tuples built here, never
# through Version, so a wrong comparison key cannot agree with itself.
_WIDTH = 12


def padded(text: str) -> tuple[int, ...]:
    segments = tuple(int(part) for part in text.split("."))
    assert len(segments) <= _WIDTH
    return segments + (0,) * (_WIDTH - len(segments))


_FLOOR = padded("3.1.0")
_HOLDS = {
    "exact": lambda tag, bounds: tag == bounds[0],
    "lt": lambda tag, bounds: tag < bounds[0],
    "le": lambda tag, bounds: tag <= bounds[0],
    "set": lambda tag, bounds: tag in bounds,
}


def make_constraint(shape: str, texts: list[str]) -> VersionConstraint:
    versions = [ver(text) for text in texts]
    if shape == "exact":
        return VersionConstraint.exact(versions[0])
    if shape == "set":
        return VersionConstraint.version_set(versions)
    return VersionConstraint.upper_bound(versions[0], inclusive=shape == "le")


def oracle_pick(tags: list[str], shape: str | None = None, texts: list[str] = ()) -> str | None:
    """Filter-then-max over every plainly versioned tag by (padded tuple, tag string)."""
    bounds = [padded(text) for text in texts]
    eligible = [
        (padded(tag), tag)
        for tag in tags
        if all(part.isdigit() for part in tag.split("."))
        and padded(tag) >= _FLOOR
        and (shape is None or _HOLDS[shape](padded(tag), bounds))
    ]
    return max(eligible)[1] if eligible else None


# Versions around the 3.1.0 floor: at it in several spellings, just below it,
# and spread above it.
_EDGE_VERSIONS = ["3.1", "3.1.0", "3.1.0.0", "3.0.9", "3.0.9.9", "3.0", "3.1.0.1"]
version_texts = st.one_of(
    st.builds(
        lambda major, minor, patch: ".".join(str(s) for s in (major, minor, *patch)),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.lists(st.integers(min_value=0, max_value=2), max_size=2),
    ),
    st.sampled_from(_EDGE_VERSIONS),
)
# Spellings of one version as tags: zero-padding twins ("4.7"/"4.7.0") and
# multi-zero forms ("4.7.0.0").
_TAG_SPELLINGS = {
    "plain": lambda text: [text],
    "twins": lambda text: [text, text + ".0"],
    "padded": lambda text: [text + ".0"],
    "multi-zero": lambda text: [text + ".0.0", text],
    "variant": lambda text: [text + "-php7.2-apache"],
}
tag_lists = (
    st.lists(st.tuples(version_texts, st.sampled_from(sorted(_TAG_SPELLINGS))), max_size=15)
    .map(lambda picks: [tag for text, shape in picks for tag in _TAG_SPELLINGS[shape](text)])
    .map(lambda tags: tags + tags[: len(tags) // 3] + ["latest", "cli"])  # duplicates, non-versions
    .flatmap(st.permutations)
)
# Bounds are drawn apart from the tags, so most name no tag; some fall
# between tags ("4.6.9", "4.7.0.1") on purpose.
bound_texts = st.one_of(version_texts, st.sampled_from(["4.6.9", "4.7.0.1", "4.7.0.0", "5.0.0.0.1"]))
constraint_specs = st.one_of(
    st.tuples(st.sampled_from(["exact", "lt", "le"]), bound_texts.map(lambda text: [text])),
    st.tuples(st.just("set"), st.lists(bound_texts, min_size=2, max_size=4)),
)


@pytest.fixture()
def registry() -> FixtureTagIndex:
    return FixtureTagIndex(list(REGISTRY_TAGS))


class TestFindCoreImage:
    @pytest.mark.parametrize(
        ("expr", "expected_tag"),
        [
            ("< 4.7.1", "4.7.0"),
            ("<= 4.7.1", "4.7.1"),
            ("4.7.0/4.7.1", "4.7.1"),
            ("4.7", "4.7.0"),
            ("4.6", "4.6"),
            ("< 100", "5.0"),
        ],
    )
    def test_resolves_highest_satisfying_tag(self, registry, expr, expected_tag):
        image = find_core_image(parse_version_expr(expr), registry)
        assert image.repository == "wordpress"
        assert image.tag == expected_tag
        assert str(image) == f"wordpress:{expected_tag}"

    @pytest.mark.parametrize("expr", ["2.0", "3.0", "< 3.1", "0.71"])
    def test_no_candidate_at_or_above_floor_raises(self, registry, expr):
        with pytest.raises(NoImageError):
            find_core_image(parse_version_expr(expr), registry)

    def test_floor_itself_is_eligible(self, registry):
        image = find_core_image(parse_version_expr("3.1.0"), registry)
        assert ver(image.tag) == IMAGE_VERSION_FLOOR

    def test_non_version_tags_are_ignored(self):
        index = FixtureTagIndex(["latest", "cli", "5.0-php7.2-apache"])
        with pytest.raises(NoImageError):
            find_core_image(parse_version_expr("< 100"), index)

    def test_empty_registry_raises(self):
        with pytest.raises(NoImageError):
            find_core_image(parse_version_expr("4.7"), FixtureTagIndex([]))

    def test_agrees_with_filter_then_max_oracle(self, registry):
        rng = random.Random(1805)
        pool = [f"{a}.{b}" for a in range(1, 7) for b in range(0, 10)] + ["4.7.0.0", "3.1.0.0", "3.0.9"]
        tags = registry.list_tags()
        for _ in range(300):
            shape = rng.choice(["exact", "lt", "le", "set"])
            picks = rng.sample(pool, k=2 if shape == "set" else 1)
            expected = oracle_pick(tags, shape, picks)
            if expected is None:
                with pytest.raises(NoImageError):
                    find_core_image(make_constraint(shape, picks), registry)
            else:
                assert find_core_image(make_constraint(shape, picks), registry).tag == expected

    @given(tag_lists, st.lists(constraint_specs, min_size=1, max_size=4))
    def test_cached_listing_agrees_with_filter_then_max_oracle(self, tags, specs):
        index = FixtureTagIndex(tags)
        for shape, texts in specs:  # later picks come from the cached listing
            expected = oracle_pick(tags, shape, texts)
            if expected is None:
                with pytest.raises(NoImageError):
                    find_core_image(make_constraint(shape, texts), index)
            else:
                image = find_core_image(make_constraint(shape, texts), index)
                assert image.tag == expected
        latest = oracle_pick(tags)
        if latest is None:
            with pytest.raises(NoImageError):
                find_latest_image(index)
        else:
            assert find_latest_image(index).tag == latest

    @pytest.mark.parametrize("tag", [" 4.7", "4.7 ", "\t4.7", "4.7\n"])
    def test_tag_with_surrounding_whitespace_is_not_an_image_tag(self, tag):
        index = FixtureTagIndex([tag, "4.6"])
        with pytest.raises(NoImageError):
            find_core_image(parse_version_expr("4.7"), index)
        assert find_core_image(parse_version_expr("< 100"), index).tag == "4.6"
        assert find_latest_image(index).tag == "4.6"

    def test_adding_tags_never_lowers_resolution(self, registry):
        base = find_core_image(parse_version_expr("< 4.7.1"), registry)
        grown = FixtureTagIndex(registry.list_tags() + ["4.6.2"])
        grown_tag = find_core_image(parse_version_expr("< 4.7.1"), grown).tag
        assert ver(grown_tag) >= ver(base.tag)


class TestFindLatestImage:
    def test_resolves_highest_version_tag(self, registry):
        assert find_latest_image(registry).tag == "5.0"

    def test_empty_registry_raises(self):
        with pytest.raises(NoImageError):
            find_latest_image(FixtureTagIndex([]))


class FakeHubResponse:
    def __init__(self, status_code: int, body: str) -> None:
        self.status_code = status_code
        self.body = body

    def raise_for_status(self) -> None:
        if self.status_code >= 400:
            raise RuntimeError(f"HTTP {self.status_code}")

    def json(self):
        import json

        return json.loads(self.body)


class FakeHubSession:
    """Answers each GET with the next of its (status, body) pairs; a
    ConnectionError in their place is raised instead."""

    def __init__(self, *answers) -> None:
        self.answers = list(answers)
        self.urls: list[str] = []

    def get(self, url, params=None, timeout=None):
        self.urls.append(url)
        answer = self.answers.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return FakeHubResponse(*answer)


_HUB = "https://hub.docker.com/v2/repositories/library/wordpress/tags"
_PAGE_TWO = f"{_HUB}?page=2"


class TestDockerHubTagIndex:
    def test_lists_every_page(self):
        session = FakeHubSession(
            (200, f'{{"results": [{{"name": "5.0"}}], "next": "{_PAGE_TWO}"}}'),
            (200, '{"results": [{"name": "4.7.0"}, {"name": "latest"}], "next": null}'),
        )
        assert DockerHubTagIndex(session=session).list_tags() == ["5.0", "4.7.0", "latest"]
        assert session.urls == [_HUB, _PAGE_TWO]

    @pytest.mark.parametrize("answer, cause", [
        (ConnectionError("connection refused"), "connection refused"),
        ((503, ""), "HTTP 503"),
        ((200, "<html>maintenance</html>"), "Expecting value"),
        ((200, '{"results": [{"tag": "5.0"}]}'), "'name'"),
    ], ids=["transport", "http", "not-json", "no-name"])
    def test_a_failed_listing_is_no_image_naming_url_and_cause(self, answer, cause):
        index = DockerHubTagIndex(session=FakeHubSession(answer))
        with pytest.raises(NoImageError, match=f"^{re.escape(f'listing {_HUB} failed: ')}.*{re.escape(cause)}"):
            find_latest_image(index)

    def test_a_failure_on_a_later_page_names_that_page(self):
        session = FakeHubSession(
            (200, f'{{"results": [{{"name": "5.0"}}], "next": "{_PAGE_TWO}"}}'),
            ConnectionError("reset by peer"),
        )
        with pytest.raises(NoImageError, match=f"^{re.escape(f'listing {_PAGE_TWO} failed: reset by peer')}$"):
            find_latest_image(DockerHubTagIndex(session=session))

    def test_a_failed_listing_is_asked_again_and_a_good_one_is_kept(self):
        session = FakeHubSession(
            ConnectionError("connection refused"),
            (200, '{"results": [{"name": "5.0"}], "next": null}'),
        )
        index = DockerHubTagIndex(session=session)
        with pytest.raises(NoImageError):
            find_core_image(parse_version_expr("5.0"), index)
        assert find_core_image(parse_version_expr("5.0"), index).tag == "5.0"
        assert find_latest_image(index).tag == "5.0"
        assert session.urls == [_HUB, _HUB]


class TestDeriveSlug:
    @pytest.mark.parametrize(
        ("product", "slug"),
        [
            ("Quiz Master", "quiz-master"),
            ("WP Statistics", "wp-statistics"),
            ("quiz-master", "quiz-master"),
            ("Rencontre - Dating Site", "rencontre-dating-site"),
            ("  Photo   Album  ", "photo-album"),
            ("C++ Shop", "c-shop"),
            ("Gallery 2", "gallery-2"),
        ],
    )
    def test_known_products(self, product, slug):
        assert derive_slug(product) == slug

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=40))
    def test_idempotent_when_defined(self, text):
        try:
            slug = derive_slug(text)
        except EmptySlugError:
            return
        assert derive_slug(slug) == slug

    @pytest.mark.parametrize("product", ["", "   ", "!!!", "---"])
    def test_no_alphanumerics_raises(self, product):
        with pytest.raises(EmptySlugError):
            derive_slug(product)


def tree_of(root: Path) -> dict[str, bytes | None]:
    """Every entry under root by relative path: a file's bytes, None for a directory."""
    entries = {}
    for folder, dirs, files in os.walk(root):
        for name in dirs:
            entries[os.path.relpath(os.path.join(folder, name), root)] = None
        for name in files:
            path = os.path.join(folder, name)
            entries[os.path.relpath(path, root)] = Path(path).read_bytes()
    return entries


class TestDiskSvnMirror:
    def test_exports_version_tag(self, e2e_tree, tmp_path):
        mirror = DiskSvnMirror(
            e2e_tree.fixtures_dir / "svn" / "plugins", e2e_tree.fixtures_dir / "svn" / "themes"
        )
        dest = tmp_path / "out"
        locator = mirror.export(ComponentKind.PLUGIN, "quiz-master", ver("7.1.3"), dest)
        assert locator is not None
        assert locator.endswith("tags/7.1.3")
        assert (dest / "quiz-master.php").is_file()

    def test_exports_trunk_when_versionless(self, e2e_tree, tmp_path):
        mirror = DiskSvnMirror(
            e2e_tree.fixtures_dir / "svn" / "plugins", e2e_tree.fixtures_dir / "svn" / "themes"
        )
        locator = mirror.export(ComponentKind.PLUGIN, "easy-poll", None, tmp_path / "out")
        assert locator is not None
        assert locator.endswith("trunk")

    def test_misses_return_none(self, e2e_tree, tmp_path):
        mirror = DiskSvnMirror(
            e2e_tree.fixtures_dir / "svn" / "plugins", e2e_tree.fixtures_dir / "svn" / "themes"
        )
        assert mirror.export(ComponentKind.PLUGIN, "quiz-master", ver("9.9"), tmp_path / "a") is None
        assert mirror.export(ComponentKind.PLUGIN, "unknown", ver("1.0"), tmp_path / "b") is None
        assert mirror.export(ComponentKind.THEME, "quiz-master", ver("7.1.3"), tmp_path / "c") is None

    @staticmethod
    def tag_tree(tmp_path: Path) -> tuple[Path, DiskSvnMirror]:
        """An empty plugins/tree/tags/1.0 fixture directory and a mirror over it."""
        tag = tmp_path / "plugins" / "tree" / "tags" / "1.0"
        tag.mkdir(parents=True)
        (tmp_path / "themes").mkdir()
        return tag, DiskSvnMirror(tmp_path / "plugins", tmp_path / "themes")

    def test_links_are_copied_as_their_content(self, tmp_path):
        tag, mirror = self.tag_tree(tmp_path)
        shared = tmp_path / "shared"
        (shared / "lib").mkdir(parents=True)
        (shared / "lib" / "util.php").write_bytes(b"util")
        (shared / "readme.txt").write_bytes(b"readme")
        (tag / "readme.txt").symlink_to(shared / "readme.txt")
        (tag / "lib").symlink_to(shared / "lib")
        dest = tmp_path / "out"
        assert mirror.export(ComponentKind.PLUGIN, "tree", ver("1.0"), dest) == str(tag)
        assert tree_of(dest) == {"lib": None, "lib/util.php": b"util", "readme.txt": b"readme"}
        assert not (dest / "readme.txt").is_symlink() and not (dest / "lib").is_symlink()

    def test_a_dangling_link_is_a_fetch_error(self, tmp_path):
        tag, mirror = self.tag_tree(tmp_path)
        (tag / "tree.php").write_bytes(b"<?php\n")
        (tag / "gone.php").symlink_to(tmp_path / "nowhere.php")
        with pytest.raises(FetchError, match="gone.php"):
            mirror.export(ComponentKind.PLUGIN, "tree", ver("1.0"), tmp_path / "out")

    def test_a_fifo_is_a_fetch_error_and_is_not_opened(self, tmp_path):
        tag, mirror = self.tag_tree(tmp_path)
        os.mkfifo(tag / "pipe")
        raised = []

        def export() -> None:
            try:
                mirror.export(ComponentKind.PLUGIN, "tree", ver("1.0"), tmp_path / "out")
            except FetchError as exc:
                raised.append(exc)

        worker = threading.Thread(target=export, daemon=True)
        worker.start()
        worker.join(10)
        if worker.is_alive():
            # Release the reader the export opened, so the thread can end.
            os.close(os.open(tag / "pipe", os.O_WRONLY | os.O_NONBLOCK))
            worker.join()
            pytest.fail("the export blocked opening the FIFO")
        assert len(raised) == 1 and "pipe" in str(raised[0])

    def test_a_tag_that_is_a_file_is_a_miss_and_makes_no_dest(self, tmp_path):
        tag, mirror = self.tag_tree(tmp_path)
        tag.rmdir()
        tag.write_bytes(b"not a directory")
        dest = tmp_path / "out"
        assert mirror.export(ComponentKind.PLUGIN, "tree", ver("1.0"), dest) is None
        assert not os.path.lexists(dest)


class FakeResponse:
    def __init__(self, status_code: int, content: bytes = b"") -> None:
        self.status_code = status_code
        self.content = content

    @property
    def text(self) -> str:
        return self.content.decode("utf-8")

    def raise_for_status(self) -> None:
        if self.status_code >= 400:
            raise RuntimeError(f"HTTP {self.status_code}")


class FakeSvnSession:
    """Serves Apache-style listings and files from a URL map; any other URL
    answers 404, and a URL in refuse raises a transport error."""

    def __init__(self, pages: dict[str, str | bytes], refuse: tuple[str, ...] = ()) -> None:
        self.pages = pages
        self.refuse = refuse
        self.requests: list[str] = []

    def get(self, url: str, timeout: float | None = None) -> FakeResponse:
        self.requests.append(url)
        if url in self.refuse:
            raise ConnectionError(f"connection to {url} refused")
        page = self.pages.get(url)
        if page is None:
            return FakeResponse(404)
        return FakeResponse(200, page.encode("utf-8") if isinstance(page, str) else page)


def listing(*hrefs: str) -> str:
    return "".join(f'<li><a href="{href}">{href}</a></li>' for href in ("../", *hrefs))


SVN_TAG = f"{HttpSvnMirror.PLUGIN_URL}/gallery/tags/1.2/"


class TestHttpSvnMirror:
    def test_a_one_file_tag_takes_one_listing_and_one_file_request(self, tmp_path):
        session = FakeSvnSession({SVN_TAG: listing("gallery.php"), f"{SVN_TAG}gallery.php": b"<?php\n"})
        dest = tmp_path / "out"
        assert HttpSvnMirror(session=session).export(ComponentKind.PLUGIN, "gallery", ver("1.2"), dest) == SVN_TAG
        assert session.requests == [SVN_TAG, f"{SVN_TAG}gallery.php"]
        assert (dest / "gallery.php").read_bytes() == b"<?php\n"

    def test_each_directory_is_listed_once(self, tmp_path):
        session = FakeSvnSession({
            SVN_TAG: listing("inc/", "gallery.php"),
            f"{SVN_TAG}inc/": listing("db.php"),
            f"{SVN_TAG}inc/db.php": b"db",
            f"{SVN_TAG}gallery.php": b"main",
        })
        dest = tmp_path / "out"
        HttpSvnMirror(session=session).export(ComponentKind.PLUGIN, "gallery", ver("1.2"), dest)
        assert sorted(session.requests) == sorted(session.pages)
        assert (dest / "inc" / "db.php").read_bytes() == b"db"
        assert (dest / "gallery.php").read_bytes() == b"main"

    def test_a_missing_tag_is_a_miss(self, tmp_path):
        session = FakeSvnSession({})
        dest = tmp_path / "out"
        assert HttpSvnMirror(session=session).export(ComponentKind.PLUGIN, "gallery", ver("1.2"), dest) is None
        assert session.requests == [SVN_TAG]
        assert not dest.exists()

    @pytest.mark.parametrize("refused", [SVN_TAG, f"{SVN_TAG}gallery.php"])
    def test_a_transport_error_is_a_fetch_error(self, tmp_path, refused):
        session = FakeSvnSession({SVN_TAG: listing("gallery.php"), f"{SVN_TAG}gallery.php": b"x"}, (refused,))
        with pytest.raises(FetchError, match=f"retrieving {SVN_TAG} failed: connection to {refused} refused"):
            HttpSvnMirror(session=session).export(ComponentKind.PLUGIN, "gallery", ver("1.2"), tmp_path / "out")

    def test_a_name_is_decoded_and_its_url_is_the_href_as_listed(self, tmp_path):
        session = FakeSvnSession({SVN_TAG: listing("read%20me.txt"), f"{SVN_TAG}read%20me.txt": b"readme"})
        dest = tmp_path / "out"
        assert HttpSvnMirror(session=session).export(ComponentKind.PLUGIN, "gallery", ver("1.2"), dest) == SVN_TAG
        assert session.requests == [SVN_TAG, f"{SVN_TAG}read%20me.txt"]
        assert tree_of(dest) == {"read me.txt": b"readme"}

    @pytest.mark.parametrize("href", ["sub/../../escaped.php", "..%2Fescaped.php", "%2E%2E/", "./", "a%2Fb/"])
    def test_an_unsafe_name_is_a_fetch_error_and_writes_nothing_outside_dest(self, tmp_path, href):
        session = FakeSvnSession({
            SVN_TAG: listing("sub/", href),
            f"{SVN_TAG}sub/": listing("a.php"),
            f"{SVN_TAG}sub/a.php": b"a",
            f"{SVN_TAG}{href}": listing("x.php") if href.endswith("/") else b"<?php // escaped\n",
        })
        dest = tmp_path / "out"
        with pytest.raises(FetchError, match=f"retrieving {SVN_TAG} failed: .*unsafe name"):
            HttpSvnMirror(session=session).export(ComponentKind.PLUGIN, "gallery", ver("1.2"), dest)
        assert list(tmp_path.iterdir()) == [dest]
        assert tree_of(dest) == {"sub": None, "sub/a.php": b"a"}


class DiskServer:
    """Serves a tree as plugins/tree/tags/1.0 on disk, every fixture file
    and directory 0o700 and every file's mtime long past, so a copy that
    kept either would show."""

    def __init__(self, root: Path, monkeypatch: pytest.MonkeyPatch) -> None:
        (root / "plugins").mkdir()
        (root / "themes").mkdir()
        self.tag = root / "plugins" / "tree" / "tags" / "1.0"
        self.mirror = DiskSvnMirror(root / "plugins", root / "themes")
        self.locator = str(self.tag)
        self.failed = f"copying {self.locator} failed"
        self.monkeypatch = monkeypatch

    def serve(self, tree: dict[str, bytes | None]) -> None:
        self.tag.mkdir(parents=True)
        for path, data in tree.items():
            target = self.tag / path
            if data is None:
                target.mkdir(parents=True, exist_ok=True)
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
                target.chmod(0o700)
                os.utime(target, (1_000_000_000, 1_000_000_000))
        for folder, _, _ in os.walk(self.tag):
            os.chmod(folder, 0o700)

    def hide(self, path: str) -> None:
        """Make the directory at path refuse to be listed, as an unreadable one does."""
        hidden, scandir = str(self.tag / path), os.scandir

        def refusing(target):
            if os.fspath(target) == hidden:
                raise PermissionError(13, "Permission denied", hidden)
            return scandir(target)

        self.monkeypatch.setattr(os, "scandir", refusing)


class HttpServer:
    """Serves a tree as plugins/tree/tags/1.0 through a FakeSvnSession: one
    Apache-style listing per directory, each name percent-encoded in its href."""

    def __init__(self) -> None:
        self.pages: dict[str, str | bytes] = {}
        self.locator = f"{HttpSvnMirror.PLUGIN_URL}/tree/tags/1.0/"
        self.mirror = HttpSvnMirror(session=FakeSvnSession(self.pages))
        self.failed = f"retrieving {self.locator} failed"

    def serve(self, tree: dict[str, bytes | None]) -> None:
        hrefs: dict[str, list[str]] = {"": []}
        for path, data in tree.items():
            parent, _, name = path.rpartition("/")
            if data is None:
                hrefs.setdefault(path, [])
                hrefs.setdefault(parent, []).append(f"{quote(name)}/")
            else:
                self.pages[self.locator + quote(path)] = data
                hrefs.setdefault(parent, []).append(quote(name))
        for folder, names in hrefs.items():
            self.pages[self.locator + (f"{quote(folder)}/" if folder else "")] = listing(*names)

    def hide(self, path: str) -> None:
        del self.pages[f"{self.locator}{quote(path)}/"]


def nested(levels: int) -> dict[str, bytes | None]:
    """A tree of levels directories, one inside the next, with a file in the deepest."""
    folders = ["/".join(f"d{i}" for i in range(1, n + 1)) for n in range(1, levels + 1)]
    return {**dict.fromkeys(folders), f"{folders[-1]}/leaf.php": b"<?php // leaf\n"}


class TestSvnMirrorContract:
    """What SvnMirror.export promises, met by the disk and the HTTP mirror
    serving the same tree."""

    @pytest.fixture(params=["disk", "http"])
    def server(self, request, tmp_path, monkeypatch) -> DiskServer | HttpServer:
        return DiskServer(tmp_path, monkeypatch) if request.param == "disk" else HttpServer()

    @staticmethod
    def export(server: DiskServer | HttpServer, dest: Path) -> str | None:
        return server.mirror.export(ComponentKind.PLUGIN, "tree", ver("1.0"), dest)

    @pytest.mark.parametrize("shape", ["missing", "empty"])
    def test_a_missing_or_empty_tag_is_a_miss_and_makes_no_dest(self, server, tmp_path, shape):
        if shape == "empty":
            server.serve({})
        dest = tmp_path / "out"
        assert self.export(server, dest) is None
        assert not os.path.lexists(dest)

    def test_nested_and_empty_directories_arrive_with_the_same_bytes(self, server, tmp_path):
        tree = {
            "empty": None,
            "inc": None,
            "inc/deep": None,
            "inc/deep/x.js": b"x" * 70_000,
            "inc/db.php": b"db",
            "tree.php": b"<?php // main\n",
        }
        server.serve(tree)
        dest = tmp_path / "out"
        assert self.export(server, dest) == server.locator
        assert tree_of(dest) == tree

    def test_dot_names_are_copied(self, server, tmp_path):
        tree = {".htaccess": b"Deny from all\n", ".config": None, ".config/a.php": b"a", "tree.php": b"<?php\n"}
        server.serve(tree)
        dest = tmp_path / "out"
        assert self.export(server, dest) == server.locator
        assert tree_of(dest) == tree

    def test_names_arrive_as_the_fixture_spells_them(self, server, tmp_path):
        tree = {"read me.txt": b"readme", "100% safe": None, "100% safe/a#b.php": b"ab"}
        server.serve(tree)
        dest = tmp_path / "out"
        assert self.export(server, dest) == server.locator
        assert tree_of(dest) == tree

    def test_files_get_a_new_files_mode_and_mtime(self, server, tmp_path):
        server.serve({"locked.php": b"<?php // locked\n"})
        fresh = tmp_path / "fresh"
        fresh.write_bytes(b"")
        dest = tmp_path / "out"
        assert self.export(server, dest) == server.locator
        copied = dest / "locked.php"
        assert copied.read_bytes() == b"<?php // locked\n"
        assert stat.S_IMODE(copied.stat().st_mode) == stat.S_IMODE(fresh.stat().st_mode) != 0o700
        assert copied.stat().st_mtime != 1_000_000_000

    def test_directories_get_a_new_directorys_mode(self, server, tmp_path):
        server.serve({"inc": None, "inc/db.php": b"db"})
        dest = tmp_path / "out"
        previous = os.umask(0o027)
        try:
            assert self.export(server, dest) == server.locator
        finally:
            os.umask(previous)
        modes = {path: stat.S_IMODE((dest / path).stat().st_mode) for path in (".", "inc")}
        assert modes == {".": 0o777 & ~0o027, "inc": 0o777 & ~0o027}

    def test_an_existing_dest_is_a_fetch_error(self, server, tmp_path):
        server.serve({"tree.php": b"<?php\n"})
        dest = tmp_path / "out"
        dest.mkdir()
        with pytest.raises(FetchError, match=re.escape(server.failed)):
            self.export(server, dest)
        assert list(dest.iterdir()) == []

    def test_an_unlistable_sub_directory_is_a_fetch_error(self, server, tmp_path):
        server.serve({"inc": None, "inc/db.php": b"db", "tree.php": b"<?php\n"})
        server.hide("inc")
        with pytest.raises(FetchError, match=f"{re.escape(server.failed)}: .*inc.* cannot be listed"):
            self.export(server, tmp_path / "out")

    @pytest.mark.parametrize("levels", [7, _MAX_DEPTH])
    def test_a_deep_tree_is_copied_whole(self, server, tmp_path, levels):
        tree = nested(levels)
        server.serve(tree)
        dest = tmp_path / "out"
        assert self.export(server, dest) == server.locator
        assert tree_of(dest) == tree

    def test_a_tree_past_the_depth_bound_is_a_fetch_error(self, server, tmp_path):
        server.serve(nested(_MAX_DEPTH + 1))
        with pytest.raises(FetchError, match=f"{re.escape(server.failed)}: .*d{_MAX_DEPTH + 1}.* nested more than"):
            self.export(server, tmp_path / "out")


_LINK = "https://downloads.example.test/ajax-store.zip"


class TestHttpLinkDownloader:
    def test_a_zip_answer_is_extracted_into_dest(self, tmp_path):
        archive = tmp_path / "ajax-store.zip"
        write_zip(archive, {"ajax-store/ajax-store.php": "<?php\n"})
        session = FakeSvnSession({_LINK: archive.read_bytes()})
        dest = tmp_path / "dest"
        assert HttpLinkDownloader(session=session).fetch(_LINK, dest) is True
        assert tree_of(dest) == {"ajax-store": None, "ajax-store/ajax-store.php": b"<?php\n"}
        assert session.requests == [_LINK]

    def test_a_404_is_a_miss_and_makes_no_dest(self, tmp_path):
        dest = tmp_path / "dest"
        assert HttpLinkDownloader(session=FakeSvnSession({})).fetch(_LINK, dest) is False
        assert not dest.exists()

    def test_a_transport_error_is_a_fetch_error(self, tmp_path):
        session = FakeSvnSession({}, refuse=(_LINK,))
        with pytest.raises(FetchError, match=f"downloading {_LINK} failed"):
            HttpLinkDownloader(session=session).fetch(_LINK, tmp_path / "dest")

    def test_a_body_that_is_not_a_zip_is_a_fetch_error_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        session = FakeSvnSession({_LINK: "<html>not found</html>"})
        with pytest.raises(FetchError, match="extracting"):
            HttpLinkDownloader(session=session).fetch(_LINK, tmp_path / "dest")
        assert list(temp.iterdir()) == []


class TestExtractArchive:
    def test_extracts_regular_archive(self, tmp_path):
        archive = tmp_path / "ok.zip"
        write_zip(archive, {"plugin/plugin.php": "<?php\n", "plugin/readme.txt": "hi\n"})
        extract_archive(archive, tmp_path / "out")
        assert (tmp_path / "out" / "plugin" / "plugin.php").is_file()

    def test_corrupt_archive_raises(self, tmp_path):
        archive = tmp_path / "bad.zip"
        archive.write_bytes(b"definitely not a zip")
        with pytest.raises(FetchError):
            extract_archive(archive, tmp_path / "out")

    def test_empty_archive_raises(self, tmp_path):
        archive = tmp_path / "empty.zip"
        with zipfile.ZipFile(archive, "w"):
            pass
        with pytest.raises(FetchError):
            extract_archive(archive, tmp_path / "out")

    def test_refuses_path_traversal(self, tmp_path):
        archive = tmp_path / "slip.zip"
        with zipfile.ZipFile(archive, "w") as bundle:
            bundle.writestr("../outside.txt", "escape attempt")
        with pytest.raises(FetchError):
            extract_archive(archive, tmp_path / "out")
        assert not (tmp_path / "outside.txt").exists()

    @pytest.mark.parametrize("name", ["../x", "a/../../x", "/abs/x", ".."])
    def test_refuses_a_member_outside_dest(self, tmp_path, name):
        archive = tmp_path / "slip.zip"
        with zipfile.ZipFile(archive, "w") as bundle:
            bundle.writestr("plugin/ok.php", "<?php\n")
            bundle.writestr(name, "escape attempt")
        dest = tmp_path / "deep" / "out"
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(FetchError, match="escapes its directory"):
            extract_archive(archive, dest)
        assert list(dest.iterdir()) == []
        assert sorted(tmp_path.rglob("*")) == sorted([*before, tmp_path / "deep", dest])
        assert not os.path.lexists("/abs/x")

    @pytest.mark.parametrize("name, lands_at", [("a/../b", "a/b"), ("./a", "a"), ("a//b", "a/b")])
    def test_accepts_a_member_that_stays_inside_dest(self, tmp_path, name, lands_at):
        archive = tmp_path / "odd.zip"
        with zipfile.ZipFile(archive, "w") as bundle:
            bundle.writestr(name, "kept")
        dest = tmp_path / "out"
        extract_archive(archive, dest)
        assert [p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file()] == [lands_at]
        assert (dest / lands_at).read_text() == "kept"

    def test_extracts_into_a_dest_below_a_linked_parent(self, tmp_path):
        archive = tmp_path / "ok.zip"
        write_zip(archive, {"plugin/plugin.php": "<?php\n"})
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real")
        extract_archive(archive, tmp_path / "link" / "out")
        assert (tmp_path / "real" / "out" / "plugin" / "plugin.php").read_text() == "<?php\n"


class TestFetchComponentOrder:
    """Walk all eight availability combinations of the three sources."""

    def _sources(self, tmp_path: Path, svn: bool, link: bool) -> SourceClients:
        plugins = tmp_path / "svn" / "plugins"
        themes = tmp_path / "svn" / "themes"
        if svn:
            tag_dir = plugins / "sample" / "tags" / "1.0"
            tag_dir.mkdir(parents=True)
            (tag_dir / "sample.php").write_text("<?php // from svn\n", encoding="utf-8")
        else:
            plugins.mkdir(parents=True, exist_ok=True)
        themes.mkdir(parents=True, exist_ok=True)
        mapping = {}
        if link:
            payload = tmp_path / "payload.zip"
            write_zip(payload, {"sample/sample.php": "<?php // from link\n"})
            mapping["https://dl.example.test/sample-1.0.zip"] = payload
        return SourceClients(
            svn=DiskSvnMirror(plugins, themes), link=FixtureLinkDownloader(mapping)
        )

    def _record(self, tmp_path: Path, app: bool):
        archive = None
        if app:
            archive = tmp_path / "apps" / "9000.zip"
            write_zip(archive, {"sample/sample.php": "<?php // from app\n"})
        return make_record(
            header={"software-link": "https://dl.example.test/sample-1.0.zip"},
            app_archive=archive,
        )

    @pytest.mark.parametrize(
        ("svn", "link", "app", "expected"),
        [
            (True, True, True, SourceKind.SVN_REPO),
            (True, True, False, SourceKind.SVN_REPO),
            (True, False, True, SourceKind.SVN_REPO),
            (True, False, False, SourceKind.SVN_REPO),
            (False, True, True, SourceKind.SOFTWARE_LINK),
            (False, True, False, SourceKind.SOFTWARE_LINK),
            (False, False, True, SourceKind.EXPLOITDB_APP),
        ],
    )
    def test_first_available_source_wins(self, tmp_path, svn, link, app, expected):
        fetched = fetch_component(
            ComponentKind.PLUGIN,
            "sample",
            ver("1.0"),
            self._record(tmp_path, app),
            self._sources(tmp_path, svn, link),
            tmp_path / "dest",
        )
        assert fetched.source.kind is expected
        assert (tmp_path / "dest" / "sample" / "sample.php").is_file() or (
            tmp_path / "dest" / "sample.php"
        ).is_file()

    def test_all_sources_missing_raises(self, tmp_path):
        with pytest.raises(NoVulnerableApplicationError):
            fetch_component(
                ComponentKind.PLUGIN,
                "sample",
                ver("1.0"),
                self._record(tmp_path, app=False),
                self._sources(tmp_path, svn=False, link=False),
                tmp_path / "work" / "components" / "sample",
            )
        assert not (tmp_path / "work").exists()

    def test_non_zip_link_is_skipped(self, tmp_path):
        record = make_record(header={"software-link": "https://market.example.test/item"})
        with pytest.raises(NoVulnerableApplicationError):
            fetch_component(
                ComponentKind.PLUGIN,
                "sample",
                ver("1.0"),
                record,
                self._sources(tmp_path, svn=False, link=True),
                tmp_path / "dest",
            )

    def test_corrupt_app_archive_raises_fetch_error(self, tmp_path):
        archive = tmp_path / "apps" / "9000.zip"
        archive.parent.mkdir(parents=True)
        archive.write_bytes(b"garbage")
        record = make_record(app_archive=archive)
        with pytest.raises(FetchError):
            fetch_component(
                ComponentKind.PLUGIN,
                "sample",
                ver("1.0"),
                record,
                self._sources(tmp_path, svn=False, link=False),
                tmp_path / "dest",
            )
