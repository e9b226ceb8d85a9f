"""Batch execution and coverage accounting.

A batch run generates every record in a corpus, one after another, and
returns the outcomes sorted by exploit id. Summarizing produces totals,
a success rate, a per-year breakdown, per-source counts for the
successful extension scenarios, and per-reason failure counts. The
report renders as a text table or as JSON that parses back to an equal
report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .corpus import Corpus
from .errors import UnknownRecordError
from .pipeline import (
    FailureReason,
    GenerationMode,
    GenerationOutcome,
    PipelineServices,
    generate,
)

__all__ = [
    "YearStats",
    "BatchReport",
    "run_batch",
    "summarize",
    "render_text",
    "render_json",
    "parse_report_json",
    "write_outcomes",
    "read_outcomes",
]


@dataclass(frozen=True)
class YearStats:
    """Submissions and results for one publication year."""

    submitted: int
    generated: int
    failed_by_reason: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BatchReport:
    total: int
    successes: int
    rate: float
    by_year: dict[int, YearStats]
    by_source: dict[str, int]
    by_reason: dict[str, int]


def run_batch(
    corpus: Corpus,
    services: PipelineServices,
    mode: GenerationMode = GenerationMode.EMIT_ONLY,
) -> list[GenerationOutcome]:
    """Generate every record in the corpus, one after another.

    All records share the services' clients, so the registry tag list and
    each CVE are fetched once per batch. The returned list is sorted by
    exploit id.
    """
    outcomes = [generate(record, services, mode) for record in corpus]
    return sorted(outcomes, key=lambda o: o.edb_id)


def summarize(outcomes: Iterable[GenerationOutcome], corpus: Corpus) -> BatchReport:
    """Fold outcomes into a report.

    The corpus supplies publication years. Raises UnknownRecordError when
    an outcome references an id the corpus does not hold. The result does
    not depend on the order of the outcomes.
    """
    total = 0
    successes = 0
    by_year: dict[int, dict] = {}
    by_source: dict[str, int] = {}
    by_reason: dict[str, int] = {}

    for outcome in outcomes:
        record = corpus.records.get(outcome.edb_id)
        if record is None:
            raise UnknownRecordError(f"outcome references unknown exploit id {outcome.edb_id}")
        total += 1
        year = record.published.year
        slot = by_year.setdefault(year, {"submitted": 0, "generated": 0, "failed": {}})
        slot["submitted"] += 1
        if outcome.is_success:
            successes += 1
            slot["generated"] += 1
            if outcome.sources:
                kind = outcome.sources[0]
                by_source[kind] = by_source.get(kind, 0) + 1
        else:
            reason = outcome.reason.value
            by_reason[reason] = by_reason.get(reason, 0) + 1
            slot["failed"][reason] = slot["failed"].get(reason, 0) + 1

    return BatchReport(
        total=total,
        successes=successes,
        rate=successes / total if total else 0.0,
        by_year={
            year: YearStats(
                submitted=slot["submitted"],
                generated=slot["generated"],
                failed_by_reason=dict(sorted(slot["failed"].items())),
            )
            for year, slot in sorted(by_year.items())
        },
        by_source=dict(sorted(by_source.items())),
        by_reason=dict(sorted(by_reason.items())),
    )


def render_text(report: BatchReport) -> str:
    """Render the report as a readable fixed-width table."""
    lines = [
        f"total      {report.total}",
        f"generated  {report.successes}",
        f"rate       {report.rate:.1%}",
        "",
        "year  submitted  generated  failures",
    ]
    for year, stats in report.by_year.items():
        failures = ", ".join(f"{reason}={n}" for reason, n in stats.failed_by_reason.items()) or "-"
        lines.append(f"{year}  {stats.submitted:9d}  {stats.generated:9d}  {failures}")
    lines.append("")
    lines.append("source of successful extension scenarios:")
    if report.by_source:
        for kind, count in report.by_source.items():
            lines.append(f"  {kind}  {count}")
    else:
        lines.append("  none")
    lines.append("")
    lines.append("failures by reason:")
    if report.by_reason:
        for reason, count in report.by_reason.items():
            lines.append(f"  {reason}  {count}")
    else:
        lines.append("  none")
    return "\n".join(lines) + "\n"


def render_json(report: BatchReport) -> str:
    payload = {
        "total": report.total,
        "successes": report.successes,
        "rate": report.rate,
        "by_year": {
            str(year): {
                "submitted": stats.submitted,
                "generated": stats.generated,
                "failed_by_reason": stats.failed_by_reason,
            }
            for year, stats in report.by_year.items()
        },
        "by_source": report.by_source,
        "by_reason": report.by_reason,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_report_json(text: str) -> BatchReport:
    payload = json.loads(text)
    return BatchReport(
        total=payload["total"],
        successes=payload["successes"],
        rate=payload["rate"],
        by_year={
            int(year): YearStats(
                submitted=stats["submitted"],
                generated=stats["generated"],
                failed_by_reason=dict(stats["failed_by_reason"]),
            )
            for year, stats in payload["by_year"].items()
        },
        by_source=dict(payload["by_source"]),
        by_reason=dict(payload["by_reason"]),
    )


# json.dumps(..., sort_keys=True) builds a new encoder per call; one
# encoder with the same settings serves every row.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


def write_outcomes(outcomes: Iterable[GenerationOutcome], path: Path | str) -> None:
    """Persist outcomes as newline-delimited JSON, one object per line."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for outcome in outcomes:
            handle.write(_ROW_ENCODER.encode(outcome.to_json_dict()))
            handle.write("\n")


def read_outcomes(path: Path | str) -> list[GenerationOutcome]:
    """Load outcomes written by write_outcomes."""
    outcomes = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                outcomes.append(GenerationOutcome.from_json_dict(json.loads(line)))
    return outcomes
