"""Batch execution and coverage accounting.

A batch run generates every record in a corpus, one after another, and
returns the outcomes sorted by exploit id. Summarizing produces totals,
a success rate, a per-year breakdown, per-source counts for the
successful extension scenarios, and per-reason failure counts. The
report renders as a text table or as JSON that parses back to an equal
report.

This module alone knows the outcome row format of outcomes.ndjson:
render_row is its one writer and read_outcomes its one reader, and the
writer refuses any value the reader would not read back.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Iterable

from .corpus import Corpus
from .errors import UnknownRecordError, VulnwpError
from .iac import BundleManifest, _json_string
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
    "render_row",
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


_ROW_DECODER = json.JSONDecoder()
# float.__repr__ of the floats JSON has no literal for, and what the C
# encoder writes for them.
_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_STATUS_BY_VALUE = {status.value: status for status in OutcomeStatus}
_REASON_BY_VALUE = {reason.value: reason for reason in FailureReason}
_STR_TYPE = {str}
_filled_outcome = GenerationOutcome._filled


def _wrong_type(name: str, wanted: str, value: object) -> TypeError:
    return TypeError(f"{name} must be {wanted}, not {type(value).__name__}")


def render_row(outcome: GenerationOutcome) -> str:
    """The outcome's row in outcomes.ndjson, with its newline.

    The bytes are those json.dumps(row, sort_keys=True) writes for the row
    as a dict: keys in sorted order, strings by the C string encoder (ASCII
    only), integers by int.__repr__, floats by float.__repr__ or as NaN,
    Infinity and -Infinity, None as null, the digest map in sorted key
    order. Subclasses of int, float and str, and sources given as a list,
    get the bytes json.dumps gives them. Raises TypeError naming the field
    for a value read_outcomes would not read back as itself: a bool id or
    elapsed, bytes, a digest map key that is not a string, or any other
    type.
    """
    edb_id = outcome.edb_id
    elapsed = outcome.elapsed
    status = outcome.status
    reason = outcome.reason
    image = outcome.image
    sources = outcome.sources
    archive = outcome.unused_app_archive
    manifest = outcome.manifest
    if not isinstance(edb_id, int) or type(edb_id) is bool:
        raise _wrong_type("edb_id", "an integer", edb_id)
    if isinstance(elapsed, float):
        number = float.__repr__(elapsed)
        number = _FLOAT_SPECIALS.get(number, number)
    elif isinstance(elapsed, int) and type(elapsed) is not bool:
        number = int.__repr__(elapsed)
    else:
        raise _wrong_type("elapsed", "a number", elapsed)
    if not isinstance(status, OutcomeStatus):
        raise _wrong_type("status", "an OutcomeStatus", status)
    if reason is not None and not isinstance(reason, FailureReason):
        raise _wrong_type("reason", "a FailureReason or null", reason)
    if image is not None and not isinstance(image, str):
        raise _wrong_type("image", "a string or null", image)
    if archive is not None and not isinstance(archive, str):
        raise _wrong_type("unused_app_archive", "a string or null", archive)
    if not isinstance(sources, (tuple, list)) or (
        sources and not all(isinstance(s, str) for s in sources)
    ):
        raise _wrong_type("sources", "a list of strings", sources)
    text = _json_string
    bundle = "null"
    if manifest is not None:
        if not isinstance(manifest, BundleManifest):
            raise _wrong_type("manifest", "a BundleManifest or null", manifest)
        bundle_dir = manifest.bundle_dir
        if isinstance(bundle_dir, PurePath):
            bundle_dir = str(bundle_dir)
        elif not isinstance(bundle_dir, str):
            raise _wrong_type("bundle dir", "a string or a path", bundle_dir)
        files = manifest.digest_map()
        # The C string encoder refuses anything but a str.
        try:
            digests = ", ".join([f"{text(name)}: {text(files[name])}" for name in sorted(files)])
        except TypeError:
            raise TypeError("bundle files must map strings to strings") from None
        bundle = f'{{"dir": {text(bundle_dir)}, "files": {{{digests}}}}}'
    return (
        f'{{"bundle": {bundle}, "edb_id": {int.__repr__(edb_id)}, "elapsed": {number}, '
        f'"image": {"null" if image is None else text(image)}, '
        f'"reason": {"null" if reason is None else text(reason._value_)}, '
        f'"sources": [{", ".join(map(text, sources))}], '
        f'"status": {text(status._value_)}, '
        f'"unused_app_archive": {"null" if archive is None else text(archive)}}}\n'
    )


def _from_row(payload: dict) -> GenerationOutcome:
    """Rebuild the outcome a row holds.

    The plan does not round-trip; everything reporting needs (status,
    reason, sources, digests) does. Each field gets one type check, and the
    outcome is built by GenerationOutcome._filled, which checks what the
    constructor checks without running the frozen initializer. The manifest
    is the row's directory string and its digest map itself, not a copy; no
    Path is built and nothing is sorted. Raises KeyError for a missing key,
    TypeError naming the field for a value of the wrong type, and
    ValueError for an unknown status or reason or a failure without a
    reason.
    """
    get = payload.get
    edb_id = payload["edb_id"]
    status = payload["status"]
    elapsed = payload["elapsed"]
    reason = get("reason")
    image = get("image")
    sources = get("sources", [])
    archive = get("unused_app_archive")
    bundle = get("bundle")
    if type(edb_id) is not int:
        raise _wrong_type("edb_id", "an integer", edb_id)
    if type(status) is not str:
        raise _wrong_type("status", "a string", status)
    if type(elapsed) is not float and type(elapsed) is not int:
        raise _wrong_type("elapsed", "a number", elapsed)
    if reason is not None and type(reason) is not str:
        raise _wrong_type("reason", "a string or null", reason)
    if image is not None and type(image) is not str:
        raise _wrong_type("image", "a string or null", image)
    if archive is not None and type(archive) is not str:
        raise _wrong_type("unused_app_archive", "a string or null", archive)
    if type(sources) is not list or (sources and not set(map(type, sources)) <= _STR_TYPE):
        raise _wrong_type("sources", "a list of strings", sources)
    if bundle is not None and type(bundle) is not dict:
        raise _wrong_type("bundle", "an object or null", bundle)
    manifest = None
    if bundle:
        bundle_dir = bundle["dir"]
        files = bundle["files"]
        if type(bundle_dir) is not str:
            raise _wrong_type("bundle dir", "a string", bundle_dir)
        if type(files) is not dict:
            raise _wrong_type("bundle files", "an object", files)
        if not set(map(type, files)) | set(map(type, files.values())) <= _STR_TYPE:
            raise TypeError("bundle files must map strings to strings")
        manifest = BundleManifest(bundle_dir, files)
    # Dict lookups stand in for the enum calls, which still run (and
    # raise) for a value no member has.
    return _filled_outcome(
        edb_id,
        _STATUS_BY_VALUE.get(status) or OutcomeStatus(status),
        elapsed,
        (_REASON_BY_VALUE.get(reason) or FailureReason(reason)) if reason else None,
        manifest,
        image,
        tuple(sources),
        archive,
    )


def write_outcomes(outcomes: Iterable[GenerationOutcome], path: Path | str) -> None:
    """Persist outcomes as newline-delimited JSON, one render_row row per line.

    Every row is one read_outcomes reads back; an outcome with a field it
    would not (see render_row) raises TypeError. The rows are streamed
    into <path>.partial, which then replaces path whole, so path holds
    either its earlier content or every row. On any error the partial
    file is removed and the error raised.
    """
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            handle.writelines(map(render_row, outcomes))
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

    Each row is one call of the decoder's C scanner, which raises
    json.loads's error for text that is not JSON, apart from a row that
    does not start with a JSON value, which raw_decode then refuses with
    its own message.
    """
    path = Path(path)
    scan = _ROW_DECODER.scan_once
    raw_decode = _ROW_DECODER.raw_decode
    from_row = _from_row
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
                    # The row is stripped, so its value starts at 0. The
                    # scanner raises StopIteration when no value starts
                    # there, and raw_decode turns that into its
                    # "Expecting value" error. What follows the value is
                    # refused as JSONDecoder.decode refuses it, at the first
                    # byte past JSON whitespace.
                    try:
                        payload, end = scan(row, 0)
                    except StopIteration:
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
    # _from_row's other errors for a row that is not an outcome row.
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise VulnwpError(f"{path} line {number}: {exc}") from exc
    return outcomes
