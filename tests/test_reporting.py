from __future__ import annotations

import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnwp.errors import UnknownRecordError, VulnwpError
from vulnwp.iac import BundleManifest, FileDigest
from vulnwp.pipeline import FailureReason, GenerationOutcome, OutcomeStatus
from vulnwp.reporting import (
    parse_report_json,
    read_outcomes,
    render_json,
    render_text,
    run_batch,
    summarize,
    write_outcomes,
)
from vulnwp.resolvers import TagIndex

from conftest import E2E_BY_REASON, E2E_BY_SOURCE, E2E_EXPECTED, E2E_SUCCESS_COUNT


# Path segments mix "-", "." and non-ASCII text with U+2028, which
# str.splitlines (but not a file's line iteration) treats as a line break.
_segments = st.text(
    alphabet=["a", "b", "-", ".", "_", "\u00e9", "\u65e5", "\u2028", '"'], min_size=1, max_size=4
)
_texts = st.none() | st.text(alphabet=["x", "-", ".", "/", ":", "\u00fc", "\u2028", "\\"], max_size=6)


@st.composite
def outcomes(draw) -> GenerationOutcome:
    """Any outcome write_outcomes may be given: successes with manifests in
    emit order, every failure reason, and any elapsed float."""
    reason = draw(st.none() | st.sampled_from(FailureReason))
    manifest = None
    if reason is None and draw(st.booleans()):
        files = draw(st.dictionaries(
            st.lists(_segments, min_size=1, max_size=3).map("/".join),
            st.text(alphabet="0123456789abcdef", min_size=1, max_size=8),
            max_size=5,
        ))
        manifest = BundleManifest(
            bundle_dir=Path(draw(st.lists(_segments, min_size=1, max_size=3).map("/".join))),
            files=tuple(FileDigest(p, files[p]) for p in sorted(files, key=lambda p: p.split("/"))),
        )
    return GenerationOutcome(
        edb_id=draw(st.sampled_from(sorted(E2E_EXPECTED))),
        status=OutcomeStatus.SUCCESS if reason is None else OutcomeStatus.FAILURE,
        elapsed=draw(st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])),
        reason=reason,
        manifest=manifest,
        image=draw(_texts),
        sources=tuple(draw(st.lists(
            st.sampled_from(["svn-repo", "software-link", "attached-archive"]) | st.text(max_size=3),
            max_size=3,
        ))),
        unused_app_archive=draw(_texts),
    )


def encoded(outcome: GenerationOutcome) -> str:
    return json.dumps(outcome.to_json_dict(), sort_keys=True)


class CountingTagIndex(TagIndex):
    """A fixed tag list that counts how often it is listed."""

    def __init__(self, tags: list[str]) -> None:
        self._tags = tags
        self.calls = 0

    def list_tags(self) -> list[str]:
        self.calls += 1
        return list(self._tags)


@pytest.fixture(scope="module")
def batch(e2e_tree, tmp_path_factory):
    root = tmp_path_factory.mktemp("batch")
    corpus = e2e_tree.load()
    services = e2e_tree.services(root / "out", root / "work")
    outcomes = run_batch(corpus, services)
    return corpus, outcomes


class TestRunBatch:
    def test_covers_every_record_in_id_order(self, batch):
        corpus, outcomes = batch
        assert [o.edb_id for o in outcomes] == sorted(corpus.records)

    def test_lists_registry_tags_once_per_batch(self, e2e_tree, tmp_path, batch):
        corpus, expected = batch
        services = e2e_tree.services(tmp_path / "out", tmp_path / "work")
        services.registry = CountingTagIndex(services.registry.list_tags())
        outcomes = run_batch(corpus, services)
        images = {o.image for o in outcomes if o.image}
        assert {"wordpress:4.7.0", "wordpress:4.7.1", "wordpress:5.0"} <= images  # core and plugin records
        assert services.registry.calls == 1
        assert [(o.edb_id, o.status, o.reason, o.image, o.sources) for o in outcomes] == [
            (o.edb_id, o.status, o.reason, o.image, o.sources) for o in expected
        ]


class TestSummarize:
    def test_headline_numbers(self, batch):
        corpus, outcomes = batch
        report = summarize(outcomes, corpus)
        assert report.total == len(corpus)
        assert report.successes == E2E_SUCCESS_COUNT
        assert report.rate == pytest.approx(E2E_SUCCESS_COUNT / len(corpus))

    def test_reason_and_source_breakdowns(self, batch):
        corpus, outcomes = batch
        report = summarize(outcomes, corpus)
        assert report.by_reason == E2E_BY_REASON
        assert report.by_source == E2E_BY_SOURCE

    def test_accounting_identities(self, batch):
        corpus, outcomes = batch
        report = summarize(outcomes, corpus)
        assert report.successes + sum(report.by_reason.values()) == report.total
        for year, stats in report.by_year.items():
            assert stats.submitted == stats.generated + sum(stats.failed_by_reason.values())
        assert sum(s.submitted for s in report.by_year.values()) == report.total
        assert sum(s.generated for s in report.by_year.values()) == report.successes

    def test_year_breakdown_follows_publication_dates(self, batch):
        corpus, outcomes = batch
        report = summarize(outcomes, corpus)
        assert report.by_year[2017].submitted == 4
        assert report.by_year[2017].generated == 4
        assert report.by_year[2005].failed_by_reason == {"no-image": 1}

    def test_order_of_outcomes_does_not_matter(self, batch):
        corpus, outcomes = batch
        report = summarize(outcomes, corpus)
        shuffled = list(outcomes)
        random.Random(7).shuffle(shuffled)
        assert summarize(shuffled, corpus) == report

    def test_unknown_id_raises(self, batch):
        corpus, _ = batch
        stray = GenerationOutcome(edb_id=999999, status=OutcomeStatus.SUCCESS, elapsed=0.0)
        with pytest.raises(UnknownRecordError):
            summarize([stray], corpus)

    def test_empty_outcomes_give_zero_rate(self, batch):
        corpus, _ = batch
        report = summarize([], corpus)
        assert report.total == 0
        assert report.rate == 0.0
        assert report.by_year == {}


class TestReportRendering:
    def test_json_round_trip_is_equal(self, batch):
        corpus, outcomes = batch
        report = summarize(outcomes, corpus)
        assert parse_report_json(render_json(report)) == report

    def test_text_rendering_carries_the_headline(self, batch):
        corpus, outcomes = batch
        text = render_text(summarize(outcomes, corpus))
        assert "20" in text
        assert "12" in text
        assert "no-image" in text
        for year in ("2005", "2017", "2019"):
            assert year in text


class TestOutcomePersistence:
    def test_ndjson_round_trip(self, batch, tmp_path):
        corpus, outcomes = batch
        path = tmp_path / "outcomes.ndjson"
        write_outcomes(outcomes, path)
        loaded = read_outcomes(path)
        assert len(loaded) == len(outcomes)
        assert summarize(loaded, corpus) == summarize(outcomes, corpus)

    def test_rows_are_one_json_object_per_line(self, batch, tmp_path):
        _, outcomes = batch
        path = tmp_path / "outcomes.ndjson"
        write_outcomes(outcomes, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == len(outcomes)
        first = json.loads(lines[0])
        assert first["edb_id"] == outcomes[0].edb_id

    @settings(max_examples=50, deadline=None)
    @given(st.lists(outcomes(), max_size=6))
    def test_file_matches_per_row_json_dumps_byte_for_byte(self, batch, drawn):
        _, outcomes = batch
        extra = GenerationOutcome.from_json_dict(
            {
                "edb_id": 99,
                "status": "success",
                "elapsed": float("nan"),
                "bundle": {"dir": "/out/ü\u2028\"99", "files": {"z": "1", "a": "é"}},
            }
        )
        rows = [*outcomes, extra, *drawn]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "outcomes.ndjson"
            write_outcomes(rows, path)
            written = path.read_bytes()
        expected = "".join(encoded(o) + "\n" for o in rows)
        assert written == expected.encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(outcomes(), max_size=8))
    def test_write_then_read_gives_the_same_rows(self, batch, rows):
        corpus, _ = batch
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "outcomes.ndjson"
            write_outcomes(rows, path)
            loaded = read_outcomes(path)
        assert [encoded(o) for o in loaded] == [encoded(o) for o in rows]
        assert [o.manifest for o in loaded] == [o.manifest for o in rows]
        assert summarize(loaded, corpus) == summarize(rows, corpus)


class TestReadingOtherRows:
    """Rows write_outcomes does not write: what loads as before, and what is
    refused with the file and line."""

    @pytest.fixture
    def rows(self, batch):
        _, outcomes = batch
        return [encoded(o) for o in outcomes[:3]]

    def read(self, tmp_path, text: str | bytes):
        path = tmp_path / "outcomes.ndjson"
        if isinstance(text, str):
            text = text.encode("utf-8")
        path.write_bytes(text)
        return [encoded(o) for o in read_outcomes(path)]

    @pytest.mark.parametrize(
        "layout",
        [
            "{0}\n\n{1}\n   \n{2}\n",  # blank lines
            "{0}\n{1}\n{2}",  # no final newline
            "  {0}\t\n\u00a0{1}\x0c\n\u2028{2}\u3000\n",  # whitespace json.loads alone refuses
            "{0}\r\n{1}\r{2}\r\n\r\n",  # other line endings
        ],
    )
    def test_blank_lines_and_padded_rows_load(self, tmp_path, rows, layout):
        assert self.read(tmp_path, layout.format(*rows)) == rows

    def test_rows_with_only_the_required_keys_or_falsy_optional_ones_load(self, tmp_path):
        path = tmp_path / "outcomes.ndjson"
        path.write_text(
            '{"edb_id": 101, "status": "success", "elapsed": 1}\n'
            '{"edb_id": 102, "status": "success", "elapsed": 2, "reason": "", "bundle": {},'
            ' "sources": []}\n',
            encoding="utf-8",
        )
        assert read_outcomes(path) == [
            GenerationOutcome(edb_id=101, status=OutcomeStatus.SUCCESS, elapsed=1),
            GenerationOutcome(edb_id=102, status=OutcomeStatus.SUCCESS, elapsed=2),
        ]

    def test_elapsed_may_be_an_integer_nan_or_infinite(self, tmp_path):
        path = tmp_path / "outcomes.ndjson"
        path.write_text(
            "".join(
                f'{{"edb_id": 101, "status": "success", "elapsed": {value}}}\n'
                for value in ("3", "NaN", "Infinity", "-Infinity")
            ),
            encoding="utf-8",
        )
        elapsed = [o.elapsed for o in read_outcomes(path)]
        assert elapsed[0] == 3 and type(elapsed[0]) is int
        assert math.isnan(elapsed[1])
        assert elapsed[2:] == [math.inf, -math.inf]

    def test_an_empty_file_loads_no_rows(self, tmp_path):
        assert self.read(tmp_path, "") == []
        assert self.read(tmp_path, "\n \n") == []

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5',
             "line 3 column 50: Expecting ',' delimiter"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5} x', "line 3 column 52: Extra data"),
            ("  {", "line 3 column 4: Expecting property name enclosed in double quotes"),
            ('{"status": "success", "elapsed": 0.5}', "line 3: row lacks 'edb_id'"),
            ('{"edb_id": 1, "status": "ok", "elapsed": 0.5}', "line 3: 'ok' is not a valid OutcomeStatus"),
            ('{"edb_id": 1, "status": "failure", "reason": "nope", "elapsed": 0.5}',
             "line 3: 'nope' is not a valid FailureReason"),
            ('{"edb_id": 1, "status": "failure", "elapsed": 0.5}',
             "line 3: failures carry a reason, successes do not"),
            ('{"edb_id": 1, "status": ["success"], "elapsed": 0.5}',
             "line 3: status must be a string, not list"),
            ('{"edb_id": "202", "status": "success", "elapsed": 0.5}',
             "line 3: edb_id must be an integer, not str"),
            ('{"edb_id": true, "status": "success", "elapsed": 0.5}',
             "line 3: edb_id must be an integer, not bool"),
            ('{"edb_id": 1.0, "status": "success", "elapsed": 0.5}',
             "line 3: edb_id must be an integer, not float"),
            ('{"edb_id": 1, "status": "success", "elapsed": "slow"}',
             "line 3: elapsed must be a number, not str"),
            ('{"edb_id": 1, "status": "success", "elapsed": true}',
             "line 3: elapsed must be a number, not bool"),
            ('{"edb_id": 1, "status": "failure", "reason": 7, "elapsed": 0.5}',
             "line 3: reason must be a string or null, not int"),
            ('{"edb_id": 1, "status": "success", "reason": false, "elapsed": 0.5}',
             "line 3: reason must be a string or null, not bool"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5, "image": 5}',
             "line 3: image must be a string or null, not int"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5, "unused_app_archive": []}',
             "line 3: unused_app_archive must be a string or null, not list"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5, "sources": "ab"}',
             "line 3: sources must be a list of strings, not str"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5, "sources": ["a", 1]}',
             "line 3: sources must be a list of strings, not list"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5, "sources": null}',
             "line 3: sources must be a list of strings, not NoneType"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5, "bundle": ["x"]}',
             "line 3: bundle must be an object or null, not list"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5, "bundle": {"dir": 1, "files": {}}}',
             "line 3: bundle dir must be a string, not int"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5, "bundle": {"dir": "d", "files": []}}',
             "line 3: bundle files must be an object, not list"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5,'
             ' "bundle": {"dir": "d", "files": {"Dockerfile": "ab", "setup.sh": null}}}',
             "line 3: bundle files must map strings to strings"),
            ('{"edb_id": 1, "status": "success", "elapsed": 0.5, "bundle": {"files": {}}}',
             "line 3: row lacks 'dir'"),
            ("[1, 2]", "line 3: a row is a JSON object, not list"),
            ('"row"', "line 3: a row is a JSON object, not str"),
            ("null", "line 3: a row is a JSON object, not NoneType"),
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, rows, bad, message):
        with pytest.raises(VulnwpError) as excinfo:
            self.read(tmp_path, f"{rows[0]}\n\n{bad}\n{rows[1]}\n")
        assert type(excinfo.value) is VulnwpError
        assert str(excinfo.value) == f"{tmp_path / 'outcomes.ndjson'} {message}"

    def test_torn_last_row_names_its_line(self, tmp_path, rows):
        text = "\n".join(rows) + "\n"
        with pytest.raises(VulnwpError, match=r"outcomes\.ndjson line 3 column \d+: "):
            self.read(tmp_path, text[:-20])

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, rows):
        text = f"{rows[0]}\n{rows[1]}\n".encode("utf-8") + b'{"edb_id": 1, "x": "\xff"}\n'
        with pytest.raises(VulnwpError, match=r"outcomes\.ndjson line 3: not UTF-8 text$"):
            self.read(tmp_path, text)
