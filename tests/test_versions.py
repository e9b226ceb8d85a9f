from __future__ import annotations

import gc
import json
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vulnwp.errors import (
    DictionaryUnavailableError,
    UnknownCveError,
    UnparsableVersionError,
    VulnwpError,
)
from vulnwp.pipeline import resolve_constraint
from vulnwp.titles import parse_title
from vulnwp.versions import (
    ConstraintKind,
    CpeDictionary,
    FixtureCpeDictionary,
    NvdCpeDictionary,
    Version,
    VersionConstraint,
    extract_version_from_poc,
    parse_cpe,
    parse_version_expr,
    resolve_versions_from_cve,
)

from conftest import make_record
from test_resolvers import FakeHubSession

segment_lists = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4)
# Segment lists ending in zero to three zeros ("4.7", "4.7.0", "4.7.0.0").
zero_tailed_lists = st.builds(
    lambda head, zeros: head + [0] * zeros,
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=3),
)
_WIDTH = 8


def padded(segments: list[int]) -> tuple[int, ...]:
    return tuple(segments) + (0,) * (_WIDTH - len(segments))


def ver(text: str) -> Version:
    return Version.parse(text)


def from_segments(segments: list[int]) -> Version:
    raw = ".".join(str(s) for s in segments)
    return Version.parse(raw)


class TestVersionOrdering:
    def test_missing_segments_read_as_zero(self):
        assert ver("4.7") == ver("4.7.0")
        assert ver("4.7") == ver("4.7.0.0")
        assert hash(ver("4.7")) == hash(ver("4.7.0"))

    def test_segments_compare_numerically_not_lexically(self):
        assert ver("4.10") > ver("4.9")
        assert ver("4.2") < ver("4.11")

    @pytest.mark.parametrize(
        ("left", "right"),
        [
            ("3.1", "3.1.1"),
            ("2.9.2", "3.0"),
            ("4.7.0", "4.7.1"),
            ("0.9", "1.0"),
            ("5", "5.0.1"),
        ],
    )
    def test_strict_order_pairs(self, left, right):
        assert ver(left) < ver(right)
        assert ver(right) > ver(left)
        assert ver(left) != ver(right)

    @given(segment_lists, segment_lists)
    def test_trichotomy(self, a, b):
        va, vb = from_segments(a), from_segments(b)
        relations = [va < vb, va == vb, va > vb]
        assert relations.count(True) == 1

    @given(segment_lists, segment_lists)
    def test_order_matches_padded_tuple_oracle(self, a, b):
        width = max(len(a), len(b))
        pa = tuple(a) + (0,) * (width - len(a))
        pb = tuple(b) + (0,) * (width - len(b))
        va, vb = from_segments(a), from_segments(b)
        assert (va < vb) == (pa < pb)
        assert (va == vb) == (pa == pb)

    @given(zero_tailed_lists, zero_tailed_lists)
    def test_key_agrees_with_padded_tuples(self, a, b):
        pa, pb = padded(a), padded(b)
        va, vb = from_segments(a), from_segments(b)
        assert (va == vb) == (pa == pb)
        assert (va < vb) == (pa < pb)
        if va == vb:
            assert hash(va) == hash(vb)

    @given(st.lists(zero_tailed_lists, max_size=12))
    def test_sorted_agrees_with_padded_tuples(self, lists):
        ordered = sorted(from_segments(segments) for segments in lists)
        assert [padded(list(v.segments)) for v in ordered] == sorted(padded(s) for s in lists)

    def test_constructor_and_text_forms_are_unchanged(self):
        version = Version(segments=(4, 7, 0))
        assert version.segments == (4, 7, 0)
        assert str(version) == "4.7.0"
        assert repr(version) == "Version(4.7.0)"
        assert version == Version(segments=(4, 7))

    @given(segment_lists, segment_lists, segment_lists)
    def test_transitivity(self, a, b, c):
        va, vb, vc = (from_segments(s) for s in (a, b, c))
        if va <= vb and vb <= vc:
            assert va <= vc


class TestVersionParsing:
    @pytest.mark.parametrize("text", ["4.7.1", "3.0", "12", "0.9.8.1"])
    def test_round_trip(self, text):
        assert str(ver(text)) == text
        assert Version.parse(str(ver(text))) == ver(text)

    @pytest.mark.parametrize("text", ["", "abc", "1..2", ".1", "1.", "4.7.1-beta", "v2.0", "1.x"])
    def test_rejects_non_versions(self, text):
        with pytest.raises(UnparsableVersionError):
            Version.parse(text)

    def test_lenient_mode_strips_suffix_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="vulnwp.versions"):
            parsed = Version.parse("2.1.1-beta", strict=False)
        assert parsed == ver("2.1.1")
        assert any("2.1.1-beta" in message for message in caplog.messages)

    def test_lenient_mode_still_rejects_garbage(self):
        with pytest.raises(UnparsableVersionError):
            Version.parse("not a version", strict=False)


class TestConstraints:
    def test_exact_expression(self):
        constraint = parse_version_expr("4.7.1")
        assert constraint.kind is ConstraintKind.EXACT
        assert constraint.versions == (ver("4.7.1"),)

    @pytest.mark.parametrize("expr", ["< 4.7.1", "<4.7.1", "<  4.7.1"])
    def test_exclusive_bound_expression(self, expr):
        constraint = parse_version_expr(expr)
        assert constraint.kind is ConstraintKind.UPPER_BOUND_EXCLUSIVE
        assert constraint.versions == (ver("4.7.1"),)

    def test_inclusive_bound_expression(self):
        constraint = parse_version_expr("<= 3.4")
        assert constraint.kind is ConstraintKind.UPPER_BOUND_INCLUSIVE

    def test_set_expression(self):
        constraint = parse_version_expr("4.7.0/4.7.1")
        assert constraint.kind is ConstraintKind.SET
        assert constraint.versions == (ver("4.7.0"), ver("4.7.1"))

    @pytest.mark.parametrize("expr", ["", ">", "> 4.7", "4.7//4.8", "beta"])
    def test_rejects_malformed_expressions(self, expr):
        with pytest.raises(UnparsableVersionError):
            parse_version_expr(expr)

    def test_lenient_expression_strips_suffix(self):
        constraint = parse_version_expr("2.1-beta", lenient=True)
        assert constraint == VersionConstraint.exact(ver("2.1"))

    @pytest.mark.parametrize(
        ("expr", "candidate", "expected"),
        [
            ("4.7", "4.7.0", True),
            ("4.7", "4.7.1", False),
            ("< 4.7.1", "4.7.0", True),
            ("< 4.7.1", "4.7.1", False),
            ("< 4.7.1", "4.6", True),
            ("<= 4.7.1", "4.7.1", True),
            ("<= 4.7.1", "4.7.2", False),
            ("4.7.0/4.7.1", "4.7.0", True),
            ("4.7.0/4.7.1", "4.7.1", True),
            ("4.7.0/4.7.1", "4.6", False),
        ],
    )
    def test_satisfies(self, expr, candidate, expected):
        assert parse_version_expr(expr).satisfies(ver(candidate)) is expected

    @given(
        st.sampled_from(["exact", "lt", "le", "set"]),
        st.lists(segment_lists, min_size=1, max_size=3),
    )
    def test_render_parse_identity(self, kind, segment_groups):
        versions = [from_segments(s) for s in segment_groups]
        if kind == "exact":
            constraint = VersionConstraint.exact(versions[0])
        elif kind == "lt":
            constraint = VersionConstraint.upper_bound(versions[0])
        elif kind == "le":
            constraint = VersionConstraint.upper_bound(versions[0], inclusive=True)
        else:
            constraint = VersionConstraint.version_set(versions)
        assert parse_version_expr(str(constraint)) == constraint


class TestPocExtraction:
    def test_header_version_wins(self):
        record = make_record(
            header={"version": "2.0.1"},
            poc_text="Affected Version: <= 9.9\n",
        )
        assert extract_version_from_poc(record) == VersionConstraint.exact(ver("2.0.1"))

    def test_header_version_tolerates_suffix(self):
        record = make_record(header={"version": "2.1-beta"})
        assert extract_version_from_poc(record) == VersionConstraint.exact(ver("2.1"))

    def test_body_scan_finds_bounded_expression(self):
        record = make_record(poc_text="intro\nAffected Version: <= 3.4\nmore\n")
        constraint = extract_version_from_poc(record)
        assert constraint == VersionConstraint.upper_bound(ver("3.4"), inclusive=True)

    def test_body_scan_plain_version(self):
        record = make_record(poc_text="Version: 1.8.2\n")
        assert extract_version_from_poc(record) == VersionConstraint.exact(ver("1.8.2"))

    def test_body_scan_limited_to_leading_lines(self):
        body = "\n" * 70 + "Version: 5.5\n"
        assert extract_version_from_poc(make_record(poc_text=body)) is None

    def test_no_hints_yields_none(self):
        record = make_record(poc_text="GET /wp-login.php HTTP/1.1\nHost: target\n")
        assert extract_version_from_poc(record) is None

    def test_unparsable_header_falls_back_to_body(self):
        record = make_record(
            header={"version": "latest stable"},
            poc_text="Tested version: 4.4\n",
        )
        assert extract_version_from_poc(record) == VersionConstraint.exact(ver("4.4"))


class TestCpeDictionary:
    def test_parse_cpe_extracts_product_version(self):
        entry = parse_cpe("cpe:2.3:a:acme:widget:4.7:*:*:*:*:*:*:*")
        assert entry is not None
        assert (entry.product, entry.version) == ("widget", ver("4.7"))

    @pytest.mark.parametrize(
        "raw",
        [
            "cpe:2.3:a:vendor:product:*:*:*:*:*:*:*:*",
            "cpe:2.3:a:vendor:product:-:*:*:*:*:*:*:*",
            "cpe:2.3:a:vendor:product:1.0-rc1:*:*:*:*:*:*:*",
            "cpe:/a:vendor:product:1.0",
            "not a cpe",
        ],
    )
    def test_parse_cpe_drops_non_concrete_entries(self, raw):
        assert parse_cpe(raw) is None

    def test_fixture_dictionary_resolves_known_cve(self, e2e_tree):
        dictionary = FixtureCpeDictionary(e2e_tree.fixtures_dir / "cpe_dictionary.json")
        entries = resolve_versions_from_cve("CVE-2017-5487", dictionary)
        assert [e.version for e in entries] == [ver("4.7")]

    def test_wildcard_entries_are_dropped(self, e2e_tree):
        dictionary = FixtureCpeDictionary(e2e_tree.fixtures_dir / "cpe_dictionary.json")
        entries = resolve_versions_from_cve("CVE-2015-9999", dictionary)
        assert [(e.product, str(e.version)) for e in entries] == [("quiz-maker", "2.1")]

    def test_unknown_cve_raises(self, e2e_tree):
        dictionary = FixtureCpeDictionary(e2e_tree.fixtures_dir / "cpe_dictionary.json")
        with pytest.raises(UnknownCveError):
            dictionary.cpes_for("CVE-1999-0001")

    def test_missing_fixture_is_refused_when_built(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FixtureCpeDictionary(tmp_path / "absent.json")

    @pytest.mark.parametrize("data", [
        b"{not json",
        b"\xff{}",
        b'["x"]',
        b'{"CVE-2017-5487": "cpe:2.3:a:wordpress:wordpress:4.7:*:*:*:*:*:*:*"}',
        b'{"CVE-2017-5487": 5}',
        b'{"CVE-2017-5487": [5]}',
    ])
    def test_malformed_fixture_is_refused_when_built(self, tmp_path, data):
        path = tmp_path / "broken.json"
        path.write_bytes(data)
        with pytest.raises(VulnwpError, match="broken.json"):
            FixtureCpeDictionary(path)

    def test_lookup_is_case_insensitive(self, tmp_path):
        path = tmp_path / "cpes.json"
        path.write_text(
            json.dumps({"cve-2020-1234": ["cpe:2.3:a:acme:widget:1.2:*:*:*:*:*:*:*"]}),
            encoding="utf-8",
        )
        entries = resolve_versions_from_cve("CVE-2020-1234", FixtureCpeDictionary(path))
        assert len(entries) == 1


def nvd_answer(*configurations: list[list[str]]) -> str:
    """An NVD API 2.0 answer for one CVE: each configuration is a list of
    nodes, each node a list of match criteria."""
    configs = [
        {"nodes": [{"cpeMatch": [{"criteria": c} for c in node]} for node in configuration]}
        for configuration in configurations
    ]
    return json.dumps({"vulnerabilities": [{"cve": {"id": "CVE-2020-1234", "configurations": configs}}]})


_CPE = "cpe:2.3:a:acme:{}:{}:*:*:*:*:*:*:*"


class TestNvdCpeDictionary:
    def test_criteria_are_collected_across_configurations_and_nodes_in_order(self):
        first, second, third = (_CPE.format("widget", v) for v in ("1.0", "1.1", "1.2"))
        platform = _CPE.format("platform", "5.0")
        session = FakeHubSession((200, nvd_answer([[first, second], [third]], [[platform]])))
        assert NvdCpeDictionary(session=session).cpes_for("CVE-2020-1234") == [first, second, third, platform]

    @pytest.mark.parametrize("body", ['{"vulnerabilities": []}', "{}"])
    def test_an_answer_with_no_vulnerabilities_is_an_unknown_cve(self, body):
        with pytest.raises(UnknownCveError, match="CVE-2020-1234"):
            NvdCpeDictionary(session=FakeHubSession((200, body))).cpes_for("CVE-2020-1234")

    @pytest.mark.parametrize(
        "answer",
        [ConnectionError("connection refused"), (200, "{not json")],
        ids=["transport", "bad-json"],
    )
    def test_a_transport_error_or_bad_json_is_unavailable(self, answer):
        with pytest.raises(DictionaryUnavailableError, match="request failed"):
            NvdCpeDictionary(session=FakeHubSession(answer)).cpes_for("CVE-2020-1234")


class _UnknownCve(UnknownCveError):
    """Raised only by the counting dictionary below, so live instances can be found."""


class CountingCpeDictionary(CpeDictionary):
    """A CVE map that counts lookups per CVE id and can be switched unavailable."""

    def __init__(self, entries: dict[str, list[str]]) -> None:
        self._entries = entries
        self.calls: dict[str, int] = {}
        self.available = True

    def cpes_for(self, cve_id: str) -> list[str]:
        self.calls[cve_id] = self.calls.get(cve_id, 0) + 1
        if not self.available:
            raise DictionaryUnavailableError("dictionary offline")
        if cve_id.upper() not in self._entries:
            raise _UnknownCve(f"no dictionary entry for {cve_id}")
        return list(self._entries[cve_id.upper()])


class TestCpeLookupsOncePerDictionary:
    CVES = {
        "CVE-2017-5487": ["cpe:2.3:a:wordpress:wordpress:4.7:*:*:*:*:*:*:*"],
        "CVE-2018-0001": ["cpe:2.3:a:wordpress:wordpress:4.9:*:*:*:*:*:*:*"],
    }

    def _resolve_all(self, dictionary: CpeDictionary, cve_lists: list[tuple[str, ...]]) -> list:
        results = []
        for edb_id, cve_ids in enumerate(cve_lists, start=1):
            record = make_record(edb_id=edb_id, title="WordPress Core - User Enumeration", cve_ids=cve_ids)
            results.append(resolve_constraint(record, parse_title(record.title), dictionary))
        return results

    def test_one_lookup_per_distinct_cve_including_unknown(self):
        dictionary = CountingCpeDictionary(self.CVES)
        results = self._resolve_all(dictionary, [
            ("CVE-2017-5487",),
            ("CVE-1999-0001", "CVE-2018-0001"),
            ("CVE-2017-5487", "CVE-1999-0001"),
            ("CVE-1999-0001",),
            ("CVE-2018-0001", "CVE-2017-5487"),
        ])
        assert dictionary.calls == {"CVE-2017-5487": 1, "CVE-1999-0001": 1, "CVE-2018-0001": 1}
        assert results == [
            VersionConstraint.exact(ver("4.7")),
            VersionConstraint.exact(ver("4.9")),
            VersionConstraint.exact(ver("4.7")),
            None,
            VersionConstraint.version_set([ver("4.9"), ver("4.7")]),
        ]

    def test_cached_results_match_a_fresh_dictionary(self):
        dictionary = CountingCpeDictionary(self.CVES)
        first = resolve_versions_from_cve("CVE-2017-5487", dictionary)
        first.clear()  # the caller's list, not the cached one
        assert resolve_versions_from_cve("cve-2017-5487", dictionary) == resolve_versions_from_cve(
            "CVE-2017-5487", CountingCpeDictionary(self.CVES)
        )
        assert dictionary.calls == {"CVE-2017-5487": 1}

    def test_unknown_cve_keeps_raising_without_a_second_lookup(self):
        dictionary = CountingCpeDictionary(self.CVES)
        for _ in range(3):
            with pytest.raises(UnknownCveError):
                resolve_versions_from_cve("CVE-1999-0001", dictionary)
        assert dictionary.calls == {"CVE-1999-0001": 1}

    def test_unknown_cve_is_remembered_without_its_exception(self):
        dictionary = CountingCpeDictionary(self.CVES)
        self._resolve_all(dictionary, [("CVE-1999-0001",), ("CVE-1999-0002",)])
        gc.collect()
        assert not [obj for obj in gc.get_objects() if isinstance(obj, _UnknownCve)]

    def test_unavailable_dictionary_is_asked_again_on_the_next_record(self):
        dictionary = CountingCpeDictionary(self.CVES)
        dictionary.available = False
        assert self._resolve_all(dictionary, [("CVE-2017-5487",), ("CVE-2017-5487",)]) == [None, None]
        assert dictionary.calls == {"CVE-2017-5487": 2}
        dictionary.available = True
        assert self._resolve_all(dictionary, [("CVE-2017-5487",), ("CVE-2017-5487",)]) == [
            VersionConstraint.exact(ver("4.7")),
            VersionConstraint.exact(ver("4.7")),
        ]
        assert dictionary.calls == {"CVE-2017-5487": 3}
