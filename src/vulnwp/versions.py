"""Version values, version constraints, and CVE-to-version resolution.

Versions are dotted numeric sequences compared segment by segment with
missing segments read as zero, so 4.7 equals 4.7.0 and 4.10 sorts above
4.9; each version keeps its segments without trailing zeros as the one
key all comparisons use. Constraints come in four kinds: an exact match,
an exclusive upper bound ("< 4.7.1"), an inclusive upper bound
("<= 2.0.1"), and a slash separated set ("4.7.0/4.7.1").

A CPE dictionary is asked about each CVE id once; its entries, or the fact
that the CVE is unknown, stay on the dictionary instance. An unavailable
dictionary is asked again on the next lookup.
"""

from __future__ import annotations

import json
import logging
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, total_ordering
from pathlib import Path

from .corpus import POC_HEAD_LINES, ExploitRecord
from .errors import DictionaryUnavailableError, UnknownCveError, UnparsableVersionError

logger = logging.getLogger(__name__)

# Dotted numeric text: what a strict version spells in full, and the only
# registry tag spelling that names a core release.
DOTTED_NUMERIC = re.compile(r"\d+(?:\.\d+)*")
# One or more dotted numerics separated by "/": an exact version or a set.
_VERSION_SET = DOTTED_NUMERIC.pattern + r"(?:\s*/\s*" + DOTTED_NUMERIC.pattern + ")*"
_BOUND_EXPR = re.compile(r"(<=|<)\s*(" + DOTTED_NUMERIC.pattern + r")\s*$")
_SET_EXPR = re.compile(_VERSION_SET + r"\s*$")

# Case-insensitive "version" hint in PoC text: the word (not a suffix of a
# longer word such as "conversion"), a colon or whitespace, then an
# expression in the constraint grammar. The corpus loader drops a PoC head
# this cannot match in (corpus._body_scan_can_match); keep the two in step.
_POC_VERSION_HINT = re.compile(
    r"(?<![a-z])version[:\s]\s*((?:<=|<)\s*)?(" + _VERSION_SET + ")",
    re.IGNORECASE,
)


@total_ordering
@dataclass(frozen=True, eq=False)
class Version:
    """A dotted numeric version. Ordering pads the shorter side with zeros.

    key is segments with trailing zeros stripped (at least one segment
    kept), computed once: equal versions have equal keys, and keys order
    as tuples exactly as the versions order. Equality, ordering and the
    hash all compare it.
    """

    segments: tuple[int, ...]
    raw: str
    key: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise UnparsableVersionError("a version needs at least one segment")
        if any(s < 0 for s in self.segments):
            raise UnparsableVersionError("version segments must be non-negative")
        key = self.segments
        while len(key) > 1 and key[-1] == 0:
            key = key[:-1]
        object.__setattr__(self, "key", key)

    @classmethod
    def parse(cls, text: str, strict: bool = True) -> "Version":
        """Parse dotted numeric text into a Version.

        With strict=True the whole string must match the grammar. With
        strict=False a trailing suffix such as "-beta2" or "rc1" is stripped
        with a warning, which is how loosely written PoC values are read.
        """
        raw = text.strip()
        match = DOTTED_NUMERIC.match(raw)
        if match is None:
            raise UnparsableVersionError(f"not a dotted numeric version: {text!r}")
        numeric = match.group(0)
        if numeric != raw:
            if strict:
                raise UnparsableVersionError(f"not a dotted numeric version: {text!r}")
            logger.warning("stripping version suffix %r from %r", raw[len(numeric):], raw)
        return cls(segments=tuple(int(s) for s in numeric.split(".")), raw=raw)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self.key == other.key

    def __lt__(self, other: "Version") -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self.key < other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        return ".".join(str(s) for s in self.segments)

    def __repr__(self) -> str:
        return f"Version({self})"


class ConstraintKind(Enum):
    EXACT = "exact"
    UPPER_BOUND_EXCLUSIVE = "upper-bound-exclusive"
    UPPER_BOUND_INCLUSIVE = "upper-bound-inclusive"
    SET = "set"


@dataclass(frozen=True)
class VersionConstraint:
    """A vulnerable-version condition extracted from a title or PoC."""

    kind: ConstraintKind
    versions: tuple[Version, ...]

    def __post_init__(self) -> None:
        if not self.versions:
            raise ValueError("a constraint carries at least one version")
        if self.kind is not ConstraintKind.SET and len(self.versions) != 1:
            raise ValueError(f"{self.kind.value} takes exactly one version")

    @classmethod
    def exact(cls, version: Version) -> "VersionConstraint":
        return cls(ConstraintKind.EXACT, (version,))

    @classmethod
    def upper_bound(cls, version: Version, inclusive: bool = False) -> "VersionConstraint":
        kind = ConstraintKind.UPPER_BOUND_INCLUSIVE if inclusive else ConstraintKind.UPPER_BOUND_EXCLUSIVE
        return cls(kind, (version,))

    @classmethod
    def version_set(cls, versions: list[Version] | tuple[Version, ...]) -> "VersionConstraint":
        # A one-member set means the same thing as an exact constraint and
        # renders identically, so it is normalized to one.
        if len(versions) == 1:
            return cls.exact(versions[0])
        return cls(ConstraintKind.SET, tuple(versions))

    def satisfies(self, candidate: Version) -> bool:
        if self.kind is ConstraintKind.EXACT:
            return candidate == self.versions[0]
        if self.kind is ConstraintKind.UPPER_BOUND_EXCLUSIVE:
            return candidate < self.versions[0]
        if self.kind is ConstraintKind.UPPER_BOUND_INCLUSIVE:
            return candidate <= self.versions[0]
        return any(candidate == v for v in self.versions)

    def render(self) -> str:
        if self.kind is ConstraintKind.UPPER_BOUND_EXCLUSIVE:
            return f"< {self.versions[0]}"
        if self.kind is ConstraintKind.UPPER_BOUND_INCLUSIVE:
            return f"<= {self.versions[0]}"
        return "/".join(str(v) for v in self.versions)

    def __str__(self) -> str:
        return self.render()


def parse_version_expr(expr: str, lenient: bool = False) -> VersionConstraint:
    """Parse a version expression into a constraint.

    The grammar accepts "< v", "<= v", a single version, or a slash
    separated set. Whitespace around tokens is tolerated. With lenient=True
    a single version may carry a stripped suffix (see Version.parse).
    Raises UnparsableVersionError otherwise.
    """
    text = expr.strip()
    if not text:
        raise UnparsableVersionError("empty version expression")

    bound = _BOUND_EXPR.fullmatch(text)
    if bound is not None:
        version = Version.parse(bound.group(2))
        return VersionConstraint.upper_bound(version, inclusive=bound.group(1) == "<=")

    if _SET_EXPR.fullmatch(text):
        parts = [Version.parse(p.strip()) for p in text.split("/")]
        if len(parts) == 1:
            return VersionConstraint.exact(parts[0])
        return VersionConstraint.version_set(parts)

    if lenient:
        for prefix, inclusive in (("<=", True), ("<", False)):
            if text.startswith(prefix):
                version = Version.parse(text[len(prefix):], strict=False)
                return VersionConstraint.upper_bound(version, inclusive=inclusive)
        return VersionConstraint.exact(Version.parse(text, strict=False))

    raise UnparsableVersionError(f"not a version expression: {expr!r}")


def extract_version_from_poc(record: ExploitRecord) -> VersionConstraint | None:
    """Pull a version constraint out of a PoC, header first.

    The parsed header's "version" value wins when present and parsable.
    Otherwise the first POC_HEAD_LINES (60) lines of the PoC text are
    scanned, case-insensitively, for the word "version" followed by a
    colon or whitespace and an expression in the constraint grammar. A
    loaded record keeps that text only when this scan could match in it
    (a non-ASCII head, or one holding "version" in any case), so an empty
    poc_text gives the same result. Returns None when neither source
    yields one.
    """
    header_value = record.poc_header.get("version")
    if header_value:
        try:
            return parse_version_expr(header_value, lenient=True)
        except UnparsableVersionError:
            logger.debug("header version %r unparsable, falling back to body scan", header_value)

    for line in record.poc_text.splitlines()[:POC_HEAD_LINES]:
        hit = _POC_VERSION_HINT.search(line)
        if hit is None:
            continue
        op = (hit.group(1) or "").strip()
        try:
            return parse_version_expr(f"{op} {hit.group(2)}".strip())
        except UnparsableVersionError:
            continue
    return None


@dataclass(frozen=True)
class CpeEntry:
    """One CPE 2.3 dictionary entry reduced to vendor, product, version."""

    vendor: str
    product: str
    version: Version
    raw_cpe: str


class CpeDictionary(ABC):
    """Maps a CVE id to the CPE strings the dictionary lists for it."""

    @abstractmethod
    def cpes_for(self, cve_id: str) -> list[str]:
        """Return raw CPE 2.3 strings for the CVE.

        Raises UnknownCveError when the dictionary has no entry and
        DictionaryUnavailableError when the dictionary itself cannot be
        consulted.
        """

    @cached_property
    def _resolved(self) -> dict[str, list[CpeEntry] | None]:
        """Parsed entries per upper-cased CVE id looked up so far; None marks an unknown CVE."""
        return {}


class FixtureCpeDictionary(CpeDictionary):
    """Dictionary backed by a local JSON map of CVE id to CPE string list."""

    def __init__(self, path: Path) -> None:
        self._path = Path(path)
        self._entries: dict[str, list[str]] | None = None

    def _load(self) -> dict[str, list[str]]:
        if self._entries is None:
            try:
                raw = json.loads(self._path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise DictionaryUnavailableError(f"cannot load CPE fixture {self._path}: {exc}") from exc
            self._entries = {str(k).upper(): list(v) for k, v in raw.items()}
        return self._entries

    def cpes_for(self, cve_id: str) -> list[str]:
        entries = self._load()
        key = cve_id.upper()
        if key not in entries:
            raise UnknownCveError(f"no dictionary entry for {cve_id}")
        return list(entries[key])


class NvdCpeDictionary(CpeDictionary):
    """Dictionary backed by the NVD CVE API (network access required)."""

    DEFAULT_URL = "https://services.nvd.nist.gov/rest/json/cves/2.0"

    def __init__(self, base_url: str = DEFAULT_URL, timeout: float = 30.0, session=None) -> None:
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._base_url = base_url
        self._timeout = timeout

    def cpes_for(self, cve_id: str) -> list[str]:
        try:
            response = self._session.get(
                self._base_url, params={"cveId": cve_id}, timeout=self._timeout
            )
            response.raise_for_status()
            payload = response.json()
        except Exception as exc:
            raise DictionaryUnavailableError(f"CPE dictionary request failed: {exc}") from exc

        vulnerabilities = payload.get("vulnerabilities") or []
        if not vulnerabilities:
            raise UnknownCveError(f"no dictionary entry for {cve_id}")

        found: list[str] = []
        for item in vulnerabilities:
            for config in item.get("cve", {}).get("configurations", []):
                for node in config.get("nodes", []):
                    for match in node.get("cpeMatch", []):
                        criteria = match.get("criteria")
                        if criteria:
                            found.append(criteria)
        return found


def parse_cpe(raw_cpe: str) -> CpeEntry | None:
    """Parse a CPE 2.3 formatted string into an entry, or None.

    Strings that do not have the 13 colon separated components, or whose
    version component is not a concrete dotted numeric value (wildcards,
    "-" placeholders, suffixed versions), yield None. Escaped colons are
    not handled; full CPE matching semantics are out of scope.
    """
    parts = raw_cpe.split(":")
    if len(parts) != 13 or parts[0] != "cpe" or parts[1] != "2.3":
        logger.debug("skipping malformed CPE string %r", raw_cpe)
        return None
    vendor, product, version_text = parts[3], parts[4], parts[5]
    try:
        version = Version.parse(version_text)
    except UnparsableVersionError:
        return None
    return CpeEntry(vendor=vendor, product=product, version=version, raw_cpe=raw_cpe)


def resolve_versions_from_cve(cve_id: str, dictionary: CpeDictionary) -> list[CpeEntry]:
    """Resolve a CVE id to the concrete vulnerable versions the dictionary lists.

    Entries whose version component is a wildcard or otherwise not a
    concrete dotted numeric value are dropped. Order follows the dictionary.
    An unknown CVE (ids compare case-insensitively) raises UnknownCveError
    on every call but is looked up once per dictionary.
    """
    key = cve_id.upper()
    if key not in dictionary._resolved:
        try:
            raws = dictionary.cpes_for(cve_id)
        except UnknownCveError:
            raws = None  # remember the miss, not the exception: its traceback pins every frame
        dictionary._resolved[key] = None if raws is None else [e for e in map(parse_cpe, raws) if e is not None]
    entries = dictionary._resolved[key]
    if entries is None:
        raise UnknownCveError(f"no dictionary entry for {cve_id}")
    return list(entries)
