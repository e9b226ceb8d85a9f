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

from .errors import UnparsableVersionError
from .versions import parse_version_expr

if TYPE_CHECKING:
    from .corpus import Corpus

__all__ = ["ExploitCategory", "ParsedTitle", "parse_title", "classify_corpus"]

_SEPARATOR = " - "
_PREFIX = "wordpress"


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


def _version_suffix_split(tokens: list[str]) -> tuple[list[str], str | None]:
    """Split tokens into (product tokens, version expression).

    The version expression is anchored at the end: the longest token
    suffix that parses under the version grammar wins, so "Gallery 2 3.06"
    yields product "Gallery 2" and version "3.06" while "< 4.7.1" is
    consumed whole.
    """
    for start in range(len(tokens)):
        candidate = " ".join(tokens[start:])
        try:
            parse_version_expr(candidate)
        except UnparsableVersionError:
            continue
        return tokens[:start], candidate
    return tokens, None


def _parse_target(text: str) -> ParsedTitle | None:
    """Parse the part between "WordPress" and the attack separator."""
    tokens = [t for t in text.split(" ") if t]
    keyword: ExploitCategory | None = None
    if tokens and tokens[0].lower() in _KEYWORDS:
        keyword = _KEYWORDS[tokens[0].lower()]
        tokens = tokens[1:]

    product_tokens, version_expr = _version_suffix_split(tokens)
    product = " ".join(product_tokens) if product_tokens else None

    if keyword is ExploitCategory.CORE:
        if product is not None:
            return None
        return ParsedTitle(ExploitCategory.CORE, None, version_expr)
    if keyword in (ExploitCategory.PLUGIN, ExploitCategory.THEME):
        if product is None:
            return None
        return ParsedTitle(keyword, product, version_expr)
    # No keyword: only a bare version expression right after the prefix
    # still reads as the core ("WordPress 4.7.0/4.7.1 - ...").
    if product is None and version_expr is not None:
        return ParsedTitle(ExploitCategory.CORE, None, version_expr)
    return None


def parse_title(title: str) -> ParsedTitle:
    """Parse one exploit title.

    Matching is case insensitive and inner whitespace is collapsed first.
    When several " - " separators occur the candidate splits are tried
    right to left (the product capture is greedy); a split whose tail
    parses as a version expression is preferred over a versionless one, so
    hyphenated product names survive without swallowing the attack type.
    Returns category Uncategorized for anything outside the pattern.
    """
    text = " ".join(title.split())
    if len(text) < len(_PREFIX) or text[: len(_PREFIX)].lower() != _PREFIX:
        return _UNCATEGORIZED
    rest = text[len(_PREFIX):]
    if rest and not rest.startswith(" "):
        return _UNCATEGORIZED
    rest = rest.strip()

    best_versionless: ParsedTitle | None = None
    for match in reversed(list(re.finditer(re.escape(_SEPARATOR), rest))):
        target_text = rest[: match.start()]
        attack_type = rest[match.end():].strip()
        if not attack_type:
            continue
        target = _parse_target(target_text)
        if target is None:
            continue
        parsed = ParsedTitle(target.category, target.product, target.version_expr, attack_type)
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
        text = " ".join(record.title.split())
        lowered = text.lower()
        if not lowered.startswith(_PREFIX):
            continue
        if len(text) > len(_PREFIX) and text[len(_PREFIX)] != " ":
            continue
        counts[parse_title(record.title).category] += 1
    return counts
