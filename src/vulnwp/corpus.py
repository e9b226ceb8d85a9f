"""Load and normalize exploit records from an offline index plus PoC files.

The on-disk layout mirrors a public exploit database dump: a CSV index
(columns id, file, description, date, author, type, platform, and an
optional codes column with semicolon separated CVE ids), PoC files
referenced by relative path, and optional attached application archives
named <edb_id>.zip.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .errors import DuplicateIdError, IndexUnreadableError

logger = logging.getLogger(__name__)

__all__ = [
    "ExploitRecord",
    "Corpus",
    "load_corpus",
    "parse_poc_header",
]

EARLIEST_PUBLICATION = date(1999, 1, 1)

_REQUIRED_COLUMNS = {"id", "file", "description", "date", "author", "type", "platform"}
_CVE_TOKEN = re.compile(r"CVE-\d{4}-\d{4,}", re.IGNORECASE)

# Header lines take the form "# Key: value" or "Key: value" within the
# first lines of a PoC. Keys are short word sequences; the colon must be
# followed by whitespace so URLs ("https://...") never read as keys.
_HEADER_LINE = re.compile(r"^\s*#*\s*([A-Za-z][A-Za-z0-9 _/-]{0,39}?)\s*:\s+(\S.*?)\s*$")
_HEADER_SCAN_LINES = 60


@dataclass(frozen=True)
class ExploitRecord:
    """One exploit: index metadata, PoC text, and any attached archive."""

    edb_id: int
    title: str
    author: str
    vuln_type: str
    published: date
    platform: str
    cve_ids: tuple[str, ...]
    poc_text: str
    poc_header: dict[str, str]
    app_archive: Path | None = None


@dataclass
class Corpus:
    """All records loaded from one index snapshot."""

    records: dict[int, ExploitRecord]
    source_path: str
    snapshot_date: date
    warnings: list[str] = field(default_factory=list, compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records.values())


def _normalize_header_key(key: str) -> str:
    return re.sub(r"\s+", "-", key.strip().lower())


def parse_poc_header(poc_text: str) -> dict[str, str]:
    """Extract the conventional header block from PoC text.

    Scans the first 60 lines for "# Key: value" or "Key: value" lines.
    Keys are normalized to lower case with inner whitespace collapsed to
    single hyphens, so "Software Link", "software link", and
    "software-link" all address the same entry. Unrecognized keys are
    retained; malformed lines are skipped; the first occurrence of a key
    wins.
    """
    header: dict[str, str] = {}
    for line in poc_text.splitlines()[:_HEADER_SCAN_LINES]:
        match = _HEADER_LINE.match(line)
        if match is None:
            continue
        key = _normalize_header_key(match.group(1))
        if key and key not in header:
            header[key] = match.group(2)
    return header


def _parse_cve_codes(codes: str | None) -> tuple[str, ...]:
    if not codes:
        return ()
    found = []
    for token in codes.split(";"):
        token = token.strip()
        if _CVE_TOKEN.fullmatch(token):
            found.append(token.upper())
    return tuple(found)


def _parse_row(row: dict[str, str], row_number: int) -> tuple[int, str, date]:
    try:
        edb_id = int(row["id"])
    except (TypeError, ValueError):
        raise IndexUnreadableError(f"row {row_number}: id {row.get('id')!r} is not an integer")
    try:
        published = date.fromisoformat(row["date"].strip())
    except (AttributeError, ValueError):
        raise IndexUnreadableError(f"row {row_number}: date {row.get('date')!r} is not ISO formatted")
    if published < EARLIEST_PUBLICATION:
        raise IndexUnreadableError(
            f"row {row_number}: published {published} predates {EARLIEST_PUBLICATION}"
        )
    return edb_id, row["file"], published


def load_corpus(index_path: Path | str, files_root: Path | str) -> Corpus:
    """Load a corpus from a CSV index and a tree of PoC files.

    The index's file column is relative to files_root; attached archives
    are read from <files_root>/apps/<edb_id>.zip; the snapshot date is
    today. A row whose PoC file is missing still yields a record (empty
    poc_text) and a corpus warning. Raises IndexUnreadableError for a
    missing or malformed index and DuplicateIdError when two rows share
    an id.
    """
    index_path = Path(index_path)
    files_root = Path(files_root)
    apps_root = files_root / "apps"

    try:
        with index_path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            fieldnames = set(reader.fieldnames or [])
            if not _REQUIRED_COLUMNS.issubset(fieldnames):
                missing = sorted(_REQUIRED_COLUMNS - fieldnames)
                raise IndexUnreadableError(f"index {index_path} lacks columns: {', '.join(missing)}")
            rows = list(reader)
    except OSError as exc:
        raise IndexUnreadableError(f"cannot read index {index_path}: {exc}") from exc
    except csv.Error as exc:
        raise IndexUnreadableError(f"index {index_path} is not valid CSV: {exc}") from exc

    records: dict[int, ExploitRecord] = {}
    warnings: list[str] = []
    for row_number, row in enumerate(rows, start=2):
        edb_id, rel_file, published = _parse_row(row, row_number)
        if edb_id in records:
            raise DuplicateIdError(f"exploit id {edb_id} appears more than once in {index_path}")

        poc_path = files_root / rel_file
        if poc_path.is_file():
            poc_text = poc_path.read_bytes().decode("utf-8", errors="replace")
        else:
            poc_text = ""
            warnings.append(f"{edb_id}: PoC file {rel_file} missing, record loaded without text")
            logger.warning("PoC file %s missing for exploit %s", rel_file, edb_id)

        archive = apps_root / f"{edb_id}.zip"
        records[edb_id] = ExploitRecord(
            edb_id=edb_id,
            title=row["description"].strip(),
            author=row["author"].strip(),
            vuln_type=row["type"].strip(),
            published=published,
            platform=row["platform"].strip(),
            cve_ids=_parse_cve_codes(row.get("codes")),
            poc_text=poc_text,
            poc_header=parse_poc_header(poc_text),
            app_archive=archive if archive.is_file() else None,
        )

    return Corpus(
        records=records,
        source_path=str(index_path),
        snapshot_date=date.today(),
        warnings=warnings,
    )

