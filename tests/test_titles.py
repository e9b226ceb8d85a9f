from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vulnwp.corpus import Corpus
from vulnwp.titles import ExploitCategory, ParsedTitle, classify_corpus, parse_title

from conftest import make_record

GOLDEN_PATH = Path(__file__).parent / "data" / "title_golden.json"


def load_golden() -> list[dict]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def as_tuple(parsed: ParsedTitle) -> tuple:
    return (parsed.category.value, parsed.product, parsed.version_expr, parsed.attack_type)


def test_golden_corpus_is_large_enough():
    assert len(load_golden()) >= 200


@pytest.mark.parametrize(
    "entry",
    load_golden(),
    ids=lambda entry: entry["title"][:60],
)
def test_golden_titles(entry):
    parsed = parse_title(entry["title"])
    assert as_tuple(parsed) == (
        entry["category"],
        entry["product"],
        entry["version_expr"],
        entry["attack_type"],
    )


@pytest.mark.parametrize(
    ("title", "expected"),
    [
        (
            "WordPress Core < 4.7.1 - Username Enumeration",
            ("core", None, "< 4.7.1", "Username Enumeration"),
        ),
        (
            "WordPress Plugin WP Statistics 12.0.8 - SQL Injection",
            ("plugin", "WP Statistics", "12.0.8", "SQL Injection"),
        ),
        (
            "WordPress Theme My Theme - Arbitrary File Upload",
            ("theme", "My Theme", None, "Arbitrary File Upload"),
        ),
        (
            "WordPress Theme Photocrati 4.x - SQL Injection",
            ("theme", "Photocrati 4.x", None, "SQL Injection"),
        ),
        (
            "WordPress 4.7.0/4.7.1 - Unauthenticated Content Injection",
            ("core", None, "4.7.0/4.7.1", "Unauthenticated Content Injection"),
        ),
        (
            "Joomla Component Foo 1.0 - SQL Injection",
            ("uncategorized", None, None, None),
        ),
    ],
)
def test_reference_titles(title, expected):
    assert as_tuple(parse_title(title)) == expected


class TestTitleEdgeCases:
    def test_multi_dash_product(self):
        parsed = parse_title("WordPress Plugin Rencontre - Dating Site 3.1.2 - Cross-Site Scripting")
        assert parsed.product == "Rencontre - Dating Site"
        assert parsed.version_expr == "3.1.2"
        assert parsed.attack_type == "Cross-Site Scripting"

    def test_multi_dash_attack(self):
        parsed = parse_title("WordPress Plugin Events Manager 5.9 - SQL Injection - Authenticated")
        assert parsed.product == "Events Manager"
        assert parsed.version_expr == "5.9"
        assert parsed.attack_type == "SQL Injection - Authenticated"

    def test_numeric_product_token_stays_in_product(self):
        parsed = parse_title("WordPress Plugin Gallery 2 3.06 - Remote File Inclusion")
        assert parsed.product == "Gallery 2"
        assert parsed.version_expr == "3.06"

    def test_trailing_numeric_token_is_version_when_alone(self):
        parsed = parse_title("WordPress Plugin Gallery 2 - Remote File Inclusion")
        assert parsed.product == "Gallery"
        assert parsed.version_expr == "2"

    def test_keywordless_title_with_version_is_core(self):
        parsed = parse_title("WordPress 4.9 - Cross-Site Scripting")
        assert parsed.category is ExploitCategory.CORE
        assert parsed.product is None
        assert parsed.version_expr == "4.9"

    def test_keywordless_title_with_product_is_uncategorized(self):
        parsed = parse_title("WordPress SomeProduct 4.9 - Cross-Site Scripting")
        assert parsed.category is ExploitCategory.UNCATEGORIZED

    def test_plugin_without_product_is_uncategorized(self):
        parsed = parse_title("WordPress Plugin 1.2 - SQL Injection")
        assert parsed.category is ExploitCategory.UNCATEGORIZED

    def test_case_insensitive_keywords(self):
        parsed = parse_title("wordpress plugin Shopping Cart 1.0 - SQL Injection")
        assert parsed.category is ExploitCategory.PLUGIN
        assert parsed.product == "Shopping Cart"

    def test_whitespace_collapses(self):
        parsed = parse_title("WordPress   Plugin   Quiz  Master   7.1.3 - SQL Injection")
        assert parsed.product == "Quiz Master"
        assert parsed.version_expr == "7.1.3"

    def test_core_without_version_or_attack(self):
        parsed = parse_title("WordPress Core - Denial of Service")
        assert parsed.category is ExploitCategory.CORE
        assert parsed.version_expr is None
        assert parsed.attack_type == "Denial of Service"

    def test_wordpresslike_prefix_does_not_match(self):
        assert parse_title("WordPressy Plugin Foo 1.0 - XSS").category is ExploitCategory.UNCATEGORIZED

    @pytest.mark.parametrize(
        "title",
        ["", "Untitled", "Apache 2.4 - Path Traversal", "WordPress"],
    )
    def test_non_matching_titles_are_uncategorized(self, title):
        assert parse_title(title).category is ExploitCategory.UNCATEGORIZED


product_names = st.sampled_from(
    ["Quiz Master", "Photo Album", "WP Statistics", "Events Manager", "Shopping Cart Pro"]
)
attack_names = st.sampled_from(
    ["SQL Injection", "Cross-Site Scripting", "Arbitrary File Upload", "Remote Code Execution"]
)
version_exprs = st.sampled_from(["1.0", "2.8.1", "< 4.7.1", "<= 3.4", "4.7.0/4.7.1", None])


def render_title(parsed: ParsedTitle) -> str:
    """Render a parsed title in the normalized convention parse_title reads."""
    parts = ["WordPress", parsed.category.value.capitalize(), parsed.product, parsed.version_expr]
    return f"{' '.join(p for p in parts if p)} - {parsed.attack_type}"


@given(
    st.sampled_from([ExploitCategory.PLUGIN, ExploitCategory.THEME]),
    product_names,
    version_exprs,
    attack_names,
)
def test_render_parse_round_trip_for_extensions(category, product, version_expr, attack):
    parsed = ParsedTitle(
        category=category, product=product, version_expr=version_expr, attack_type=attack
    )
    assert parse_title(render_title(parsed)) == parsed


@given(version_exprs, attack_names)
def test_render_parse_round_trip_for_core(version_expr, attack):
    parsed = ParsedTitle(
        category=ExploitCategory.CORE, product=None, version_expr=version_expr, attack_type=attack
    )
    assert parse_title(render_title(parsed)) == parsed


class TestClassifyCorpus:
    def _corpus(self, titles: list[str]) -> Corpus:
        records = {
            1000 + i: make_record(edb_id=1000 + i, title=title) for i, title in enumerate(titles)
        }
        return Corpus(records=records, source_path="test", snapshot_date=None)

    def test_counts_by_category(self):
        corpus = self._corpus(
            [
                "WordPress Core 4.6 - Remote Code Execution",
                "WordPress 4.9 - Cross-Site Scripting",
                "WordPress Plugin Quiz Master 7.1.3 - SQL Injection",
                "WordPress Plugin Photo Album 2.8 - Arbitrary File Upload",
                "WordPress Plugin Ghost Cart 1.2 - SQL Injection",
                "WordPress Theme Clean Portfolio 1.4 - Arbitrary File Upload",
                "WordPress Plugin 1.2 - SQL Injection",
                "Joomla Component Acme 1.0 - SQL Injection",
                "Apache 2.4 - Path Traversal",
                "WordPress Core - Denial of Service",
            ]
        )
        counts = classify_corpus(corpus)
        assert counts[ExploitCategory.CORE] == 3
        assert counts[ExploitCategory.PLUGIN] == 3
        assert counts[ExploitCategory.THEME] == 1
        assert counts[ExploitCategory.UNCATEGORIZED] == 1

    def test_titles_for_other_software_are_ignored(self):
        counts = classify_corpus(self._corpus(["Joomla Component Acme 1.0 - SQL Injection"]))
        assert sum(counts.values()) == 0

    def test_empty_corpus_gives_all_zero(self):
        counts = classify_corpus(self._corpus([]))
        assert set(counts) == set(ExploitCategory)
        assert all(value == 0 for value in counts.values())
