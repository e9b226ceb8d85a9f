"""Seeded generator for the benchmark's corpora, fixture trees and expected outcomes.

    python3 perfbench/generate.py --workload core-heavy --seed 1 --out DIR

writes, under DIR:

  corpus/files_exploits.csv, corpus/exploits/<id>.txt, corpus/apps/<id>.zip
  fixtures/registry_tags.json, fixtures/cpe_dictionary.json,
  fixtures/svn/{plugins,themes}/<slug>/{tags/<version>,trunk}/...,
  fixtures/links.json, fixtures/links/*.zip
  expected.json    one expected outcome per record, plus the workload's metadata

The same workload and seed always give byte-identical trees. The expected
outcomes come from the reference logic in this file, written from the
README's "How a record resolves" section; nothing here imports vulnwp, so
comparing the program's outcomes against them is a real check.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import zipfile
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

WORKLOADS = ("core-heavy", "payload-heavy", "triage")

# Record counts and payload shapes per workload. A run goes over the whole
# corpus at least once, so each count keeps one pass well under the run's
# time limit. Every payload has the same number of files, because creating
# a file costs far more than writing its bytes and the cost of a seed's
# corpus should not depend on how many files its payloads happened to get.
SIZES = {
    "core-heavy": {"records": 1200, "payload_files": 2, "payload_bytes": (200, 600)},
    "payload-heavy": {"records": 600, "payload_files": 10, "payload_bytes": (2_000, 32_000)},
    "triage": {"records": 10000, "payload_files": 3, "payload_bytes": (500, 2_000)},
}

HUB_TAG_COUNT = 1600
IMAGE_FLOOR = (3, 1, 0)
BUNDLE_FILES = ("Dockerfile", "docker-compose.yml", "provenance.json", "setup.sh")
_ZIP_TIME = (2020, 1, 1, 0, 0, 0)
_PLAIN_TAG = re.compile(r"\d+(?:\.\d+)*")

ATTACKS = (
    "SQL Injection", "Cross-Site Scripting", "Remote Code Execution", "Arbitrary File Upload",
    "Local File Inclusion", "Authenticated Stored XSS", "Cross-Site Request Forgery",
    "Privilege Escalation", "Directory Traversal", "Information Disclosure",
    "Unauthenticated Arbitrary File Deletion", "Open Redirect",
)
PRODUCT_WORDS = (
    "Simple", "Gallery", "Ultimate", "Contact", "Form", "Easy", "Booking", "Social", "Slider",
    "Smart", "Forms", "Media", "Manager", "Event", "Calendar", "Backup", "Mail", "Photo",
    "Album", "Video", "Player", "Shop", "Cart", "Newsletter", "Poll", "Survey", "Membership",
    "Portfolio", "Download", "Monitor", "Search", "Ajax", "Chat", "Ticket", "Support", "Maps",
    "Store", "Locator", "Import", "Export", "Table", "Press", "Quiz", "Review", "Rating",
)
OTHER_PRODUCTS = (
    "Joomla! Component com_content", "Drupal Module Views", "phpBB", "Apache Struts", "Apache Tomcat",
    "Magento eCommerce", "vBulletin", "MyBB", "OpenCart", "PrestaShop", "Moodle", "Nagios XI",
    "Zabbix", "Jenkins", "Microsoft Windows Kernel", "Linux Kernel", "OpenSSH", "ProFTPD",
    "Cisco IOS", "Oracle WebLogic", "Atlassian Confluence", "GitLab", "Grafana", "Redis",
    "Exim", "Sendmail", "PHP-Nuke", "Mambo CMS", "TYPO3 Extension news", "Webmin",
)
FILLER_WORDS = (
    "the", "request", "parameter", "is", "not", "sanitized", "before", "being", "used", "in",
    "query", "an", "attacker", "can", "send", "crafted", "payload", "to", "endpoint", "and",
    "read", "arbitrary", "data", "from", "database", "admin", "panel", "user", "input", "echo",
    "curl", "post", "get", "cookie", "session", "token", "nonce", "action", "ajax", "response",
)


# ---------------------------------------------------------------------------
# Reference logic (the README's resolution rules, independent of vulnwp)
# ---------------------------------------------------------------------------

def vstr(version: tuple[int, ...]) -> str:
    return ".".join(str(s) for s in version)


def vparse(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split("."))


def vkey(version: tuple[int, ...]) -> tuple[int, ...]:
    """Comparison key: missing segments read as zero."""
    return tuple(version) + (0,) * (8 - len(version))


@dataclass(frozen=True)
class Constraint:
    kind: str  # "exact", "lt", "le" or "set"
    versions: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        if self.kind == "lt":
            return f"< {vstr(self.versions[0])}"
        if self.kind == "le":
            return f"<= {vstr(self.versions[0])}"
        return "/".join(vstr(v) for v in self.versions)

    def satisfies(self, version: tuple[int, ...]) -> bool:
        key = vkey(version)
        if self.kind == "lt":
            return key < vkey(self.versions[0])
        if self.kind == "le":
            return key <= vkey(self.versions[0])
        return any(key == vkey(v) for v in self.versions)

    def checkout(self) -> tuple[int, ...] | None:
        """The SVN tag a constraint points at; None means trunk."""
        if self.kind == "lt":
            return None
        return max(self.versions, key=vkey)


def image_candidates(tags: list[str]) -> list[tuple[tuple[int, ...], str]]:
    """Plain tags at or above the floor, best first.

    Equal versions spelled differently tie-break on the tag string.
    """
    plain = [(vkey(vparse(t)), t) for t in tags if _PLAIN_TAG.fullmatch(t)]
    return sorted((c for c in plain if c[0] >= vkey(IMAGE_FLOOR)), reverse=True)


def best_image(candidates: list[tuple[tuple[int, ...], str]], constraint: Constraint | None) -> str | None:
    """The first candidate satisfying the constraint; any candidate when it is None."""
    for key, tag in candidates:
        if constraint is None or constraint.satisfies(key):
            return tag
    return None


def cpe_constraint(cves: list[str], cpe_map: dict[str, list[str]], product: str) -> Constraint | None:
    """Union of concrete versions the dictionary lists for the product."""
    found: list[tuple[int, ...]] = []
    for cve in cves:
        for raw in cpe_map.get(cve, []):
            parts = raw.split(":")
            if len(parts) != 13 or parts[4] != product or not _PLAIN_TAG.fullmatch(parts[5]):
                continue
            version = vparse(parts[5])
            if all(vkey(version) != vkey(v) for v in found):
                found.append(version)
    if not found:
        return None
    return Constraint("exact" if len(found) == 1 else "set", tuple(found))


def failure(reason: str) -> dict:
    return {"status": "failure", "reason": reason, "image": None, "source": None, "files": None}


def success(tag: str, source: str | None, payload: list[str], slug: str | None) -> dict:
    files = list(BUNDLE_FILES) + [f"components/{slug}/{rel}" for rel in payload]
    return {"status": "success", "reason": None, "image": f"wordpress:{tag}",
            "source": source, "files": sorted(files)}


# ---------------------------------------------------------------------------
# The generated world
# ---------------------------------------------------------------------------

@dataclass
class Record:
    edb_id: int
    title: str
    published: date
    category: str | None  # "core", "plugin", "theme"; None when the title does not parse
    slug: str | None = None
    constraint: Constraint | None = None  # the version the title or PoC gives
    cves: list[str] = field(default_factory=list)
    header: list[tuple[str, str]] = field(default_factory=list)
    body_lines: list[str] = field(default_factory=list)
    poc_bytes: int = 1500
    archive: list[str] | None = None  # attached app archive members; [] writes a corrupt zip


@dataclass
class World:
    rng: random.Random
    tags: list[str] = field(default_factory=list)
    cpe: dict[str, list[str]] = field(default_factory=dict)
    svn: dict[tuple[str, str, str], list[str]] = field(default_factory=dict)  # (kind, slug, dir) -> files
    links: dict[str, list[str] | None] = field(default_factory=dict)  # url -> members, None when corrupt
    records: list[Record] = field(default_factory=list)
    block: str = ""

    def payload(self, sizes: dict) -> list[str]:
        count = sizes["payload_files"]
        dirs = ("", "includes/", "assets/js/", "assets/css/", "admin/", "languages/")
        names = set()
        while len(names) < count:
            names.add(f"{self.rng.choice(dirs)}{self.rng.choice(PRODUCT_WORDS).lower()}-{self.rng.randrange(1000)}.php")
        return sorted(names)

    def expect(self, record: Record, candidates: list) -> dict:
        if record.category is None:
            return failure("unparsable-title")
        constraint = record.constraint
        if constraint is None and record.cves:
            product = "wordpress" if record.category == "core" else record.slug
            constraint = cpe_constraint(record.cves, self.cpe, product)
        if record.category == "core":
            if constraint is None:
                return failure("unknown-version")
            tag = best_image(candidates, constraint)
            return failure("no-image") if tag is None else success(tag, None, [], None)
        has_archive = record.archive is not None
        if constraint is None and not has_archive:
            return failure("no-vulnerable-application")
        tag = best_image(candidates, None)
        if tag is None:
            return failure("no-image")
        checkout = constraint.checkout() if constraint is not None else None
        svn_dir = f"tags/{vstr(checkout)}" if checkout is not None else "trunk"
        files = self.svn.get((record.category, record.slug, svn_dir))
        if files:
            return success(tag, "svn-repo", files, record.slug)
        link = dict(record.header).get("Software Link", "")
        if link.lower().endswith(".zip") and link in self.links:
            members = self.links[link]
            if members is None:
                return failure("fetch-failure")
            return success(tag, "software-link", members, record.slug)
        if has_archive:
            if not record.archive:
                return failure("fetch-failure")
            return success(tag, "exploitdb-app", record.archive, record.slug)
        return failure("no-vulnerable-application")


def _release_versions(rng: random.Random) -> list[tuple[int, ...]]:
    """Core releases shaped like the real history: 3.1 .. 6.4 with patch releases."""
    releases = []
    for major, minors in ((3, range(1, 10)), (4, range(0, 10)), (5, range(0, 10)), (6, range(0, 5))):
        for minor in minors:
            releases.append((major, minor))
            for patch in range(1, rng.randint(2, 12)):
                releases.append((major, minor, patch))
    return releases


def _hub_tags(rng: random.Random, count: int) -> list[str]:
    """A tag list shaped like the hub's wordpress repository, exactly count long."""
    releases = _release_versions(rng)
    plain = [vstr(v) for v in releases] + ["3", "4", "5", "6", "2.9.2", "3.0.5"]
    # A few X.Y.0 spellings alongside X.Y exercise the tie-break on tag strings.
    plain += [f"{vstr(v)}.0" for v in rng.sample([v for v in releases if len(v) == 2], 6)]
    named = ["latest", "apache", "fpm", "fpm-alpine", "cli", "beta", "rc", "php8.2", "php8.1-apache",
             "cli-2.8.1", "cli-2.9.0", "cli-php8.1", "beta-6.5-RC1", "rc-6.5-RC2"]
    variants = []
    for tag in plain:
        major = int(tag.split(".")[0])
        phps = ("5.6", "7.0", "7.1") if major < 5 else ("7.2", "7.3", "7.4", "8.0", "8.1", "8.2")
        variants += [f"{tag}-apache", f"{tag}-fpm", f"{tag}-fpm-alpine"]
        for php in phps:
            variants += [f"{tag}-php{php}", f"{tag}-php{php}-apache", f"{tag}-php{php}-fpm"]
    room = count - len(plain) - len(named)
    if room < 0 or room > len(variants):
        raise ValueError(f"cannot shape {count} hub tags")
    tags = plain + named + rng.sample(variants, room)
    rng.shuffle(tags)
    return tags


def _small_tags(rng: random.Random) -> list[str]:
    releases = [v for v in _release_versions(rng) if len(v) == 2 or v[2] == 1]
    tags = [vstr(v) for v in releases] + ["latest", "cli", "2.9.2"]
    tags += [f"{vstr(v)}-php7.4-apache" for v in releases[-10:]]
    rng.shuffle(tags)
    return tags


def _cpe_string(vendor: str, product: str, version: str) -> str:
    return f"cpe:2.3:a:{vendor}:{product}:{version}:*:*:*:*:*:*:*"


def _cve_pool(world: World, count: int, products: list[str]) -> list[str]:
    """Build CVE ids and their dictionary entries; about one in ten is unknown."""
    rng = world.rng
    releases = [vstr(vparse(t)) for t in world.tags if _PLAIN_TAG.fullmatch(t)]
    pool = []
    while len(pool) < count:
        cve = f"CVE-{rng.randint(2008, 2023)}-{rng.randint(1000, 49999)}"
        if cve in pool:
            continue
        pool.append(cve)
        if rng.random() < 0.1:
            continue
        entries = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if roll < 0.6:
                entries.append(_cpe_string("wordpress", "wordpress", rng.choice(releases + ["2.0.1", "1.5"])))
            elif roll < 0.75:
                entries.append(_cpe_string("wordpress", "wordpress", rng.choice(("*", "-"))))
            else:
                product = rng.choice(products)
                entries.append(_cpe_string(f"{product}_project", product, f"{rng.randint(1, 4)}.{rng.randint(0, 9)}"))
        world.cpe[cve] = entries
    return pool


def _product(rng: random.Random, taken: set[str]) -> tuple[str, str]:
    while True:
        words = rng.sample(PRODUCT_WORDS, rng.randint(2, 3))
        name = " ".join(words)
        slug = "-".join(w.lower() for w in words)
        if slug not in taken:
            taken.add(slug)
            return name, slug


def _ext_version(rng: random.Random) -> tuple[int, ...]:
    if rng.random() < 0.2:
        return (rng.randint(1, 5), rng.randint(0, 12))
    return (rng.randint(0, 5), rng.randint(0, 12), rng.randint(1, 9))


def _plan(rng: random.Random, count: int, shares: dict[str, float]) -> list[str]:
    """count labels in the given shares, exactly, in random order.

    Fixed shares keep a corpus's mix, and so its cost, the same from seed
    to seed; only which record gets which label changes.
    """
    labels = []
    for label, share in shares.items():
        labels += [label] * round(share * count)
    labels = (labels + [label] * count)[:count]  # rounding slack goes to the last label
    rng.shuffle(labels)
    return labels


def _extensions(world: World, count: int, sizes: dict, svn_share: float) -> list[dict]:
    """Plugins and themes; svn_share of them have an SVN tree with tags and a trunk."""
    rng = world.rng
    with_svn = set(rng.sample(range(count), round(svn_share * count)))
    taken: set[str] = set()
    extensions = []
    for i in range(count):
        name, slug = _product(rng, taken)
        kind = "theme" if i % 4 == 3 else "plugin"
        versions: list[tuple[int, ...]] = []
        while len(versions) < rng.randint(2, 4):
            version = _ext_version(rng)
            if all(vkey(version) != vkey(v) for v in versions):
                versions.append(version)
        extensions.append({"name": name, "slug": slug, "kind": kind, "versions": versions})
        if i in with_svn:
            for version in versions:
                world.svn[(kind, slug, f"tags/{vstr(version)}")] = world.payload(sizes)
            world.svn[(kind, slug, "trunk")] = world.payload(sizes)
    return extensions


def _date(rng: random.Random) -> date:
    return date.fromordinal(rng.randint(date(2004, 1, 1).toordinal(), date(2023, 12, 31).toordinal()))


def _ext_title(ext: dict, expr: str | None, attack: str) -> str:
    keyword = "Theme" if ext["kind"] == "theme" else "Plugin"
    version = f" {expr}" if expr else ""
    return f"WordPress {keyword} {ext['name']}{version} - {attack}"


def _pick_constraint(rng: random.Random, versions: list[tuple[int, ...]], missing: float) -> Constraint:
    """A title constraint over an extension's versions; `missing` of them name no SVN tag."""
    version = rng.choice(versions)
    if rng.random() < missing:
        version = version[:2] + (version[2] + 40,) if len(version) == 3 else version + (77,)
    roll = rng.random()
    if roll < 0.6:
        return Constraint("exact", (version,))
    if roll < 0.75:
        return Constraint("le", (version,))
    if roll < 0.9:
        return Constraint("lt", (version,))
    others = [v for v in versions if vkey(v) != vkey(version)]
    return Constraint("set", tuple(sorted({version, rng.choice(others)}, key=vkey)))


def _core_constraint(rng: random.Random, releases: list[tuple[int, ...]]) -> Constraint:
    version = rng.choice(releases)
    roll = rng.random()
    if roll < 0.05:
        version = (2, rng.randint(0, 9), rng.randint(0, 5))  # below the image floor
    elif roll < 0.1:
        version = version[:2] + (37,)  # a release that was never tagged
    kind = rng.choices(("exact", "lt", "le", "set"), weights=(45, 25, 15, 15))[0]
    if kind == "set":
        picks = {version}
        while len(picks) < rng.randint(2, 3):
            picks.add(rng.choice(releases))
        return Constraint("set", tuple(sorted(picks, key=vkey)))
    return Constraint(kind, (version,))


def _core_title(rng: random.Random, constraint: Constraint | None, attack: str) -> str:
    if constraint is None:
        return f"WordPress Core - {attack}"
    keyword = "Core " if rng.random() < 0.8 else ""
    return f"WordPress {keyword}{constraint.render()} - {attack}"


def _link(ext: dict, version: tuple[int, ...] | None) -> str:
    suffix = f".{vstr(version)}" if version else ""
    return f"https://downloads.example.test/{ext['kind']}/{ext['slug']}{suffix}.zip"


def _build_core_heavy(world: World, sizes: dict) -> None:
    rng = world.rng
    world.tags = _hub_tags(rng, HUB_TAG_COUNT)
    releases = [vparse(t) for t in world.tags if _PLAIN_TAG.fullmatch(t) and vkey(vparse(t)) >= vkey(IMAGE_FLOOR)]
    extensions = _extensions(world, 40, sizes, svn_share=1.0)
    cves = _cve_pool(world, 150, [e["slug"] for e in extensions])
    plan = _plan(rng, sizes["records"], {"core": 0.55, "core-cve": 0.15, "core-header": 0.05, "extension": 0.25})
    for label in plan:
        attack = rng.choice(ATTACKS)
        if label == "core":
            constraint = _core_constraint(rng, releases)
            record = Record(0, _core_title(rng, constraint, attack), _date(rng), "core", constraint=constraint)
        elif label == "core-cve":
            # No version anywhere but the CVE codes: the dictionary decides.
            picked = rng.sample(cves, rng.randint(1, 3))
            record = Record(0, _core_title(rng, None, attack), _date(rng), "core", cves=picked)
        elif label == "core-header":
            version = rng.choice(releases)
            record = Record(0, _core_title(rng, None, attack), _date(rng), "core",
                            constraint=Constraint("exact", (version,)),
                            header=[("Version", vstr(version))])
        else:
            ext = rng.choice(extensions)
            constraint = Constraint("exact", (rng.choice(ext["versions"]),))
            record = Record(0, _ext_title(ext, constraint.render(), attack), _date(rng), ext["kind"],
                            slug=ext["slug"], constraint=constraint)
        world.records.append(record)


def _build_payload_heavy(world: World, sizes: dict) -> None:
    rng = world.rng
    world.tags = _small_tags(rng)
    releases = [vparse(t) for t in world.tags if _PLAIN_TAG.fullmatch(t) and vkey(vparse(t)) >= vkey(IMAGE_FLOOR)]
    extensions = _extensions(world, 32, sizes, svn_share=0.75)
    with_svn = [e for e in extensions if (e["kind"], e["slug"], "trunk") in world.svn]
    without_svn = [e for e in extensions if e not in with_svn]
    plan = _plan(rng, sizes["records"], {"core": 0.1, "svn": 0.62, "link": 0.15, "versionless": 0.13})
    for label in plan:
        attack = rng.choice(ATTACKS)
        if label == "core":
            constraint = _core_constraint(rng, releases)
            record = Record(0, _core_title(rng, constraint, attack), _date(rng), "core", constraint=constraint)
        elif label == "svn":
            ext = rng.choice(with_svn)
            constraint = _pick_constraint(rng, ext["versions"], missing=0.05)
            record = Record(0, _ext_title(ext, constraint.render(), attack), _date(rng), ext["kind"],
                            slug=ext["slug"], constraint=constraint)
            record.header.append(("Software Link", _link(ext, constraint.checkout())))
        elif label == "link":
            # Not on SVN: a software link zip, sometimes unmapped or corrupt.
            ext = rng.choice(without_svn)
            version = rng.choice(ext["versions"])
            constraint = Constraint("exact", (version,))
            record = Record(0, _ext_title(ext, constraint.render(), attack), _date(rng), ext["kind"],
                            slug=ext["slug"], constraint=constraint)
            url = _link(ext, version)
            record.header.append(("Software Link", url))
            if url not in world.links:
                fate = rng.random()
                if fate < 0.9:
                    world.links[url] = [f"{ext['slug']}/{rel}" for rel in world.payload(sizes)]
                elif fate < 0.95:
                    world.links[url] = None
            if url not in world.links and rng.random() < 0.5:
                record.archive = [f"{ext['slug']}/{rel}" for rel in world.payload(sizes)]
        else:
            # Versionless: the attached archive, or nothing at all.
            ext = rng.choice(without_svn)
            record = Record(0, _ext_title(ext, None, attack), _date(rng), ext["kind"], slug=ext["slug"])
            fate = rng.random()
            if fate < 0.8:
                record.archive = [f"{ext['slug']}/{rel}" for rel in world.payload(sizes)]
            elif fate < 0.85:
                record.archive = []
        world.records.append(record)


def _build_triage(world: World, sizes: dict) -> None:
    rng = world.rng
    world.tags = _small_tags(rng)
    releases = [vparse(t) for t in world.tags if _PLAIN_TAG.fullmatch(t) and vkey(vparse(t)) >= vkey(IMAGE_FLOOR)]
    extensions = _extensions(world, 400, sizes, svn_share=0.05)
    with_svn = [e for e in extensions if (e["kind"], e["slug"], "trunk") in world.svn]
    without_svn = [e for e in extensions if e not in with_svn]
    cves = _cve_pool(world, 300, [e["slug"] for e in extensions])
    # Extension bundles are the costliest records and set the p99, so their
    # share is fixed: every SVN hit is an "svn-" row, every other row misses.
    plan = _plan(rng, sizes["records"], {
        "other": 0.70, "malformed": 0.05,
        "ext-header": 0.04, "ext-body": 0.035, "ext-archive": 0.0075, "ext-none": 0.06, "ext-title": 0.0525,
        "svn-header": 0.01, "svn-title": 0.01,
        "core-body": 0.012, "core-cve": 0.012, "core-title": 0.008, "core-none": 0.008,
    })
    for label in plan:
        attack = rng.choice(ATTACKS)
        ext = rng.choice(with_svn if label.startswith("svn-") else without_svn)
        if label == "other":
            product = rng.choice(OTHER_PRODUCTS)
            version = f" {rng.randint(1, 9)}.{rng.randint(0, 9)}" if rng.random() < 0.7 else ""
            record = Record(0, f"{product}{version} - {attack}", _date(rng), None)
            if rng.random() < 0.05:
                record.cves = rng.sample(cves, 1)
        elif label == "malformed":
            title = rng.choice((
                f"WordPress Plugin - {attack}",
                f"WordPress Core {ext['name']} - {attack}",
                f"WordPress.com {ext['name']} - {attack}",
                f"WordPressXYZ {ext['name']} 1.0 - {attack}",
                f"WordPress {ext['name']} - {attack}",
            ))
            record = Record(0, title, _date(rng), None)
        elif label in ("ext-header", "ext-body", "ext-archive", "ext-none", "svn-header"):
            # Extension rows without a title version; some carry it in the PoC.
            record = Record(0, _ext_title(ext, None, attack), _date(rng), ext["kind"], slug=ext["slug"])
            version = rng.choice(ext["versions"])
            if label in ("ext-header", "svn-header"):
                record.constraint = Constraint("exact", (version,))
                record.header.append(("Version", vstr(version)))
            elif label == "ext-body":
                record.constraint = Constraint("exact", (version,))
                record.body_lines.append(f"Tested against version {vstr(version)} of the {ext['kind']}")
            elif label == "ext-archive":
                record.archive = [f"{ext['slug']}/{rel}" for rel in world.payload(sizes)]
        elif label in ("ext-title", "svn-title"):
            constraint = _pick_constraint(rng, ext["versions"], missing=0.0)
            record = Record(0, _ext_title(ext, constraint.render(), attack), _date(rng), ext["kind"],
                            slug=ext["slug"], constraint=constraint)
        else:
            record = Record(0, _core_title(rng, None, attack), _date(rng), "core")
            if label == "core-body":
                version = rng.choice(releases)
                record.constraint = Constraint("exact", (version,))
                record.body_lines.append(f"Affected WordPress version {vstr(version)} and earlier")
            elif label == "core-cve":
                record.cves = rng.sample(cves, rng.randint(1, 2))
            elif label == "core-title":
                record.constraint = _core_constraint(rng, releases)
                record.title = _core_title(rng, record.constraint, attack)
        world.records.append(record)


_MAKERS = {
    "core-heavy": _build_core_heavy,
    "payload-heavy": _build_payload_heavy,
    "triage": _build_triage,
}


# ---------------------------------------------------------------------------
# Writing the tree
# ---------------------------------------------------------------------------

def _file_text(world: World, label: str, size: int) -> bytes:
    start = world.rng.randrange(len(world.block) - size)
    return f"<?php\n// {label}\n".encode() + world.block[start:start + size].encode()


def _write_zip(world: World, path: Path, members: list[str] | None, sizes: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if not members:
        path.write_bytes(b"PK\x03\x04 this archive is truncated")
        return
    low, high = sizes["payload_bytes"]
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name in members:
            info = zipfile.ZipInfo(name, date_time=_ZIP_TIME)
            archive.writestr(info, _file_text(world, name, world.rng.randint(low, high)))


def _poc_text(world: World, record: Record, filler: list[str]) -> str:
    rng = world.rng
    lines = [
        f"# Exploit Title: {record.title}",
        f"# Date: {record.published.isoformat()}",
        f"# Exploit Author: {rng.choice(FILLER_WORDS)} {rng.choice(FILLER_WORDS)}",
        "# Vendor Homepage: https://wordpress.org/",
    ]
    lines += [f"# {key}: {value}" for key, value in record.header]
    if record.cves:
        lines.append(f"# CVE: {', '.join(record.cves)}")
    lines += ["", f"Proof of concept for exploit {record.edb_id}.", *record.body_lines, ""]
    size = sum(len(line) + 1 for line in lines)
    while size < record.poc_bytes:
        line = rng.choice(filler)
        lines.append(line)
        size += len(line) + 1
    return "\n".join(lines) + "\n"


def write_tree(workload: str, seed: int, out: Path, records: int | None = None) -> list[dict]:
    """Generate the workload for seed under out and return the expected outcomes.

    records overrides the workload's record count (the tests use small instances).
    """
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = dict(SIZES[workload])
    if records is not None:
        sizes["records"] = records
    rng = random.Random(f"{workload}:{seed}")
    world = World(rng=rng)
    world.block = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz    \n();$=_", k=1 << 18))
    _MAKERS[workload](world, sizes)

    edb_id = 10_000
    for record in world.records:
        edb_id += rng.randint(1, 3)
        record.edb_id = edb_id
        record.poc_bytes = rng.randint(2_000, 6_000) if workload == "triage" else rng.randint(800, 3_000)

    corpus = out / "corpus"
    fixtures = out / "fixtures"
    (corpus / "exploits").mkdir(parents=True, exist_ok=True)
    fixtures.mkdir(parents=True, exist_ok=True)

    filler = [" ".join(rng.choices(FILLER_WORDS, k=rng.randint(6, 14))) for _ in range(400)]
    with (corpus / "files_exploits.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "file", "description", "date", "author", "type", "platform", "codes"])
        for record in world.records:
            rel = f"exploits/{record.edb_id}.txt"
            writer.writerow([record.edb_id, rel, record.title, record.published.isoformat(),
                             "bench", "webapps", "php", ";".join(record.cves)])
            (corpus / rel).write_text(_poc_text(world, record, filler), encoding="utf-8")
            if record.archive is not None:
                _write_zip(world, corpus / "apps" / f"{record.edb_id}.zip", record.archive, sizes)

    low, high = sizes["payload_bytes"]
    for (kind, slug, subdir), files in sorted(world.svn.items()):
        base = fixtures / "svn" / f"{kind}s" / slug / subdir
        for rel in files:
            path = base / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(_file_text(world, f"{slug} {subdir} {rel}", rng.randint(low, high)))
    for kind in ("plugins", "themes"):
        (fixtures / "svn" / kind).mkdir(parents=True, exist_ok=True)

    link_map = {}
    for number, (url, members) in enumerate(sorted(world.links.items())):
        rel = f"links/{number}.zip"
        link_map[url] = rel
        _write_zip(world, fixtures / rel, members, sizes)
    (fixtures / "links.json").write_text(json.dumps(link_map, indent=1, sort_keys=True), encoding="utf-8")
    (fixtures / "registry_tags.json").write_text(json.dumps(world.tags), encoding="utf-8")
    (fixtures / "cpe_dictionary.json").write_text(json.dumps(world.cpe, indent=1, sort_keys=True), encoding="utf-8")

    candidates = image_candidates(world.tags)
    expected = [dict(edb_id=r.edb_id, **world.expect(r, candidates)) for r in world.records]
    meta = {
        "workload": workload,
        "seed": seed,
        "records": len(world.records),
        "clients": "hub" if workload == "core-heavy" else "fixture",
        "tag_count": len(world.tags),
        "expected": expected,
    }
    (out / "expected.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--records", type=int, help="override the workload's record count")
    args = parser.parse_args(argv)
    write_tree(args.workload, args.seed, args.out, args.records)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
