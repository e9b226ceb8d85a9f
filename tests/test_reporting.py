from __future__ import annotations

import random

import pytest

from vulnwp.errors import UnknownRecordError
from vulnwp.pipeline import GenerationOutcome, OutcomeStatus
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
        import json

        _, outcomes = batch
        path = tmp_path / "outcomes.ndjson"
        write_outcomes(outcomes, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == len(outcomes)
        first = json.loads(lines[0])
        assert first["edb_id"] == outcomes[0].edb_id
