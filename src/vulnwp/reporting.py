"""Batch execution and coverage accounting.

A batch run generates every record in a corpus, one after another, and
returns the outcomes sorted by exploit id. Summarizing produces totals,
a success rate, a per-year breakdown, per-source counts for the
successful extension scenarios, and per-reason failure counts. The
report renders as a text table or as JSON that parses back to an equal
report.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .corpus import Corpus
from .errors import UnknownRecordError, VulnwpError
from .pipeline import (
    FailureReason,
    GenerationMode,
    GenerationOutcome,
    OutcomeStatus,
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
    # year -> [submitted, generated, {reason: count}]
    by_year: dict[int, list] = {}
    by_source: dict[str, int] = {}
    records = corpus.records
    success = OutcomeStatus.SUCCESS

    for outcome in outcomes:
        record = records.get(outcome.edb_id)
        if record is None:
            raise UnknownRecordError(f"outcome references unknown exploit id {outcome.edb_id}")
        year = record.published.year
        slot = by_year.get(year)
        if slot is None:
            slot = by_year[year] = [0, 0, {}]
        slot[0] += 1
        if outcome.status is success:
            slot[1] += 1
            sources = outcome.sources
            if sources:
                kind = sources[0]
                by_source[kind] = by_source.get(kind, 0) + 1
        else:
            failed = slot[2]
            reason = outcome.reason._value_
            failed[reason] = failed.get(reason, 0) + 1

    total = sum(slot[0] for slot in by_year.values())
    successes = sum(slot[1] for slot in by_year.values())
    by_reason: dict[str, int] = {}
    for _, _, failed in by_year.values():
        for reason, count in failed.items():
            by_reason[reason] = by_reason.get(reason, 0) + count
    return BatchReport(
        total=total,
        successes=successes,
        rate=successes / total if total else 0.0,
        by_year={
            year: YearStats(
                submitted=submitted,
                generated=generated,
                failed_by_reason=dict(sorted(failed.items())),
            )
            for year, (submitted, generated, failed) in sorted(by_year.items())
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


# One decoder reads every row, and one encoder writes every row the template
# below does not: json.dumps and json.loads check their arguments and look
# up a codec on each call. Rows are fresh trees of dicts and lists, so the
# encoder need not look for cycles; that changes no byte it writes.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)
_ROW_DECODER = json.JSONDecoder()
_json_string = json.encoder.encode_basestring_ascii
# float.__repr__ of the floats JSON has no literal for, and what the row
# encoder writes for them.
_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _render_row(outcome: GenerationOutcome) -> str | None:
    """The outcome's row, with its newline, as _ROW_ENCODER writes
    outcome.to_json_dict(); None when a field holds a type the template does
    not cover, which only an API caller can build.

    Keys come in sorted order, and each leaf is encoded as the encoder
    encodes it: strings by the C string encoder, integers by int.__repr__,
    floats by float.__repr__ or as NaN, Infinity and -Infinity, None as
    null, the digest map in sorted key order.
    """
    edb_id = outcome.edb_id
    elapsed = outcome.elapsed
    reason = outcome.reason
    image = outcome.image
    sources = outcome.sources
    archive = outcome.unused_app_archive
    manifest = outcome.manifest
    if type(elapsed) is float:
        number = float.__repr__(elapsed)
        number = _FLOAT_SPECIALS.get(number, number)
    elif type(elapsed) is int:
        number = int.__repr__(elapsed)
    else:
        return None
    if (
        type(edb_id) is not int
        or type(outcome.status) is not OutcomeStatus
        or (reason is not None and type(reason) is not FailureReason)
        or (image is not None and type(image) is not str)
        or (archive is not None and type(archive) is not str)
        or type(sources) is not tuple
        or (sources and not set(map(type, sources)) <= {str})
    ):
        return None
    text = _json_string
    bundle = "null"
    if manifest:
        bundle_dir = str(manifest.bundle_dir)
        files = manifest.digest_map()
        if (
            type(bundle_dir) is not str
            or type(files) is not dict
            or not set(map(type, files)) | set(map(type, files.values())) <= {str}
        ):
            return None
        digests = ", ".join([f"{text(name)}: {text(files[name])}" for name in sorted(files)])
        bundle = f'{{"dir": {text(bundle_dir)}, "files": {{{digests}}}}}'
    return (
        f'{{"bundle": {bundle}, "edb_id": {int.__repr__(edb_id)}, "elapsed": {number}, '
        f'"image": {"null" if image is None else text(image)}, '
        f'"reason": {"null" if reason is None else text(reason._value_)}, '
        f'"sources": [{", ".join(map(text, sources))}], '
        f'"status": {text(outcome.status._value_)}, '
        f'"unused_app_archive": {"null" if archive is None else text(archive)}}}\n'
    )


def write_outcomes(outcomes: Iterable[GenerationOutcome], path: Path | str) -> None:
    """Persist outcomes as newline-delimited JSON, one object per line.

    Each row is GenerationOutcome.to_json_dict() as json.dumps(row,
    sort_keys=True) writes it, ASCII only, followed by a newline. Rows are
    rendered from a fixed template that gives those bytes; an outcome with
    a field of any other type goes through the JSON encoder. The rows are
    streamed into <path>.partial, which then replaces path whole, so path
    holds either its earlier content or every row. On any error the
    partial file is removed and the error raised.
    """
    partial = f"{os.fspath(path)}.partial"
    encode = _ROW_ENCODER.encode
    render = _render_row
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            write = handle.write
            for outcome in outcomes:
                write(render(outcome) or encode(outcome.to_json_dict()) + "\n")
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(partial)
        raise


def read_outcomes(path: Path | str) -> list[GenerationOutcome]:
    """Load outcomes written by write_outcomes, streaming line by line.

    Lines that are only whitespace are skipped, and whitespace around a
    row is allowed. Raises VulnwpError naming the file and the 1-based
    line of the first row that is not an outcome row: text that is not
    UTF-8 or not one JSON value, a value that is not an object, a missing
    key, a field of the wrong type (named in the message), an unknown
    status or reason, or a failure without a reason. Text that is not JSON
    gets json.loads's message and its column on the line. Each row's
    manifest is the row's directory string and digest map, with no Path
    built and nothing sorted.
    """
    path = Path(path)
    raw_decode = _ROW_DECODER.raw_decode
    from_row = GenerationOutcome.from_json_dict
    outcomes = []
    append = outcomes.append
    number, line = 0, ""
    try:
        # Undecodable bytes are kept as surrogates so that they fail on
        # their own line, below, and not in the middle of the iteration.
        with path.open(encoding="utf-8", errors="surrogateescape") as handle:
            for number, line in enumerate(handle, 1):
                row = line.strip()
                if row:
                    # A surrogate is never ASCII.
                    if not row.isascii():
                        row.encode("utf-8")
                    # The row is stripped, so its value starts at 0. What
                    # follows the value is refused as JSONDecoder.decode
                    # refuses it, at the first byte past JSON whitespace.
                    payload, end = raw_decode(row)
                    if end != len(row):
                        rest = row[end:]
                        end += len(rest) - len(rest.lstrip(" \t\n\r"))
                        raise json.JSONDecodeError("Extra data", row, end)
                    if not isinstance(payload, dict):
                        raise TypeError(f"a row is a JSON object, not {type(payload).__name__}")
                    append(from_row(payload))
    except UnicodeEncodeError as exc:
        raise VulnwpError(f"{path} line {number}: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        column = len(line) - len(line.lstrip()) + exc.colno
        raise VulnwpError(f"{path} line {number} column {column}: {exc.msg}") from exc
    except KeyError as exc:
        raise VulnwpError(f"{path} line {number}: row lacks {exc}") from exc
    # from_json_dict's other errors for a row that is not an outcome row.
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise VulnwpError(f"{path} line {number}: {exc}") from exc
    return outcomes
