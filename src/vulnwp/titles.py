"""Classify exploit titles and pull out product and version fields.

Titles follow the convention "WordPress <Core|Plugin|Theme> [Product]
[Version] - [Attack Type]". Product and version are optional; a missing
keyword with a version expression directly after "WordPress" still means
the core. Anything that does not fit the pattern is Uncategorized.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .versions import DOTTED_NUMERIC

if TYPE_CHECKING:
    from .corpus import Corpus

__all__ = ["ExploitCategory", "ParsedTitle", "parse_title", "classify_corpus"]

_SEPARATOR = re.compile(" - ")
_PREFIX = "wordpress"
# A target's version: all from the leftmost token at which the rest of the
# target is "< v", "<= v" or a "/" separated set. As tokens are one space
# apart, that is the longest token suffix parse_version_expr accepts.
_VERSION_SUFFIX = re.compile(
    r"(?:^| )((?:<=|<) ?{v}|{v}(?: ?/ ?{v})*)\Z".format(v=DOTTED_NUMERIC.pattern)
)


class ExploitCategory(Enum):
    CORE = "core"
    PLUGIN = "plugin"
    THEME = "theme"
    UNCATEGORIZED = "uncategorized"


_KEYWORDS = {
    "core": ExploitCategory.CORE,
    "plugin": ExploitCategory.PLUGIN,
    "theme": ExploitCategory.THEME,
}


@dataclass(frozen=True)
class ParsedTitle:
    """Structured view of one exploit title."""

    category: ExploitCategory
    product: str | None = None
    version_expr: str | None = None
    attack_type: str | None = None


_UNCATEGORIZED = ParsedTitle(category=ExploitCategory.UNCATEGORIZED)


def _parse_target(text: str, attack_type: str) -> ParsedTitle | None:
    """Parse the part between "WordPress" and the attack separator, whose
    tokens are separated by single spaces."""
    first, _, remainder = text.partition(" ")
    keyword = _KEYWORDS.get(first.lower())
    if keyword is not None:
        text = remainder

    hit = _VERSION_SUFFIX.search(text)
    if hit is None:
        product, version_expr = text or None, None
    else:
        product, version_expr = text[: hit.start()] or None, hit.group(1)

    if keyword is ExploitCategory.CORE or keyword is None:
        # Without a keyword only a bare version expression right after the
        # prefix still reads as the core ("WordPress 4.7.0/4.7.1 - ...").
        if product is not None or (keyword is None and version_expr is None):
            return None
        return ParsedTitle(ExploitCategory.CORE, None, version_expr, attack_type)
    if product is None:
        return None
    return ParsedTitle(keyword, product, version_expr, attack_type)


def _after_prefix(title: str) -> str | None:
    """The title, inner whitespace collapsed, past its leading "WordPress"
    (in any case), or None unless that prefix is followed by a space or
    nothing."""
    # The prefix holds no whitespace, so its test needs no collapsed text.
    if title.lstrip()[: len(_PREFIX)].lower() != _PREFIX:
        return None
    rest = " ".join(title.split())[len(_PREFIX):]
    return None if rest and not rest.startswith(" ") else rest


def parse_title(title: str) -> ParsedTitle:
    """Parse one exploit title.

    Matching is case insensitive and inner whitespace is collapsed first.
    A target's version is its longest run of trailing tokens that is a
    version expression ("Gallery 2 3.06" is product "Gallery 2" and version
    "3.06"; "< 4.7.1" is taken whole). With several " - " separators the
    splits are tried right to left: the first whose target has a version
    wins, else the rightmost versionless one, so hyphenated product names
    survive without swallowing the attack type. Returns category
    Uncategorized for anything outside the pattern.
    """
    rest = _after_prefix(title)
    if rest is None:
        return _UNCATEGORIZED
    rest = rest.strip()

    best_versionless: ParsedTitle | None = None
    for match in reversed(list(_SEPARATOR.finditer(rest))):
        attack_type = rest[match.end():].strip()
        if not attack_type:
            continue
        parsed = _parse_target(rest[: match.start()], attack_type)
        if parsed is None:
            continue
        if parsed.version_expr is not None:
            return parsed
        if best_versionless is None:
            best_versionless = parsed
    return best_versionless or _UNCATEGORIZED


def classify_corpus(corpus: "Corpus") -> dict[ExploitCategory, int]:
    """Count titles per category over the records addressed to this CMS.

    Only records whose title starts with the "WordPress" prefix are
    counted; everything else in the corpus is ignored entirely. All four
    categories appear in the result, zero when unseen.
    """
    counts = {category: 0 for category in ExploitCategory}
    for record in corpus:
        if _after_prefix(record.title) is not None:
            counts[parse_title(record.title).category] += 1
    return counts
