"""Load and normalize exploit records from an offline index plus PoC files.

The on-disk layout mirrors a public exploit database dump: a CSV index
(columns id, file, description, date, author, type, platform, and an
optional codes column with semicolon separated CVE ids), PoC files
referenced by relative path, and optional attached application archives
named <edb_id>.zip. Only the head of a PoC is read: the first
POC_HEAD_LINES lines, which are all the header and version scans read.
The header is parsed from the head at load; the head itself is kept only
when the version body scan could match in it (see ExploitRecord).
"""

from __future__ import annotations

import csv
import logging
import os
import re
import stat
import sys
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

# How many leading PoC lines a record keeps; the header scan here and the
# version scan in versions.py read no further.
POC_HEAD_LINES = 60


@dataclass(frozen=True)
class ExploitRecord:
    """One exploit: index metadata, PoC head, and any attached archive.

    poc_header is parsed from the first POC_HEAD_LINES lines of the PoC
    file. poc_text holds those lines, line endings included, when the
    version body scan could match in them: the head is not ASCII, or it
    holds "version" in any case. Otherwise poc_text is empty, which gives
    the same scan result. A non-ASCII head is always kept because the
    case-insensitive scan also matches spellings such as "verſion" or
    "versıon", which lower() does not turn into "version".
    """

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


def parse_poc_header(poc_text: str) -> dict[str, str]:
    """Extract the conventional header block from PoC text.

    Scans the first POC_HEAD_LINES (60) lines for "# Key: value" or
    "Key: value" lines. Keys are normalized to lower case with inner
    whitespace collapsed to single hyphens, so "Software Link", "software
    link", and "software-link" all address the same entry. Unrecognized
    keys are retained; malformed lines are skipped; the first occurrence of
    a key wins.
    """
    return _scan_header(poc_text.splitlines()[:POC_HEAD_LINES])


def _scan_header(lines: list[str]) -> dict[str, str]:
    # A line may keep its line ending: the pattern's trailing \s* takes it.
    header: dict[str, str] = {}
    for line in lines:
        # Most lines have no colon, and the pattern needs one.
        if ":" not in line:
            continue
        match = _HEADER_LINE.match(line)
        if match is None:
            continue
        # The key class allows no whitespace but spaces.
        key = sys.intern("-".join(match.group(1).lower().split()))
        if key not in header:
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


def _parse_row(row: dict[str, str | None], row_number: int) -> tuple[int, str, date]:
    # DictReader fills the columns a short row lacks with None.
    if None in row.values():
        missing = sorted(column for column in _REQUIRED_COLUMNS if row[column] is None)
        if missing:
            raise IndexUnreadableError(f"row {row_number}: lacks columns: {', '.join(missing)}")
    try:
        edb_id = int(row["id"])
    except (TypeError, ValueError):
        raise IndexUnreadableError(f"row {row_number}: id {row.get('id')!r} is not an integer")
    try:
        published = date.fromisoformat(row["date"].strip())
    except ValueError:
        raise IndexUnreadableError(f"row {row_number}: date {row.get('date')!r} is not ISO formatted")
    if published < EARLIEST_PUBLICATION:
        raise IndexUnreadableError(
            f"row {row_number}: published {published} predates {EARLIEST_PUBLICATION}"
        )
    return edb_id, row["file"], published


def _read_poc_head(path: str) -> tuple[str, list[str]] | None:
    """The first POC_HEAD_LINES lines of the PoC at path, line endings kept,
    as one text and as lines, or None when it is not a regular file."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except (OSError, ValueError):
        regular = False
    if not regular:
        # Settle the rare rest as pathlib does: it drops a trailing "/" and
        # raises on stat errors other than a missing or looping path.
        poc = Path(path)
        if not poc.is_file():
            return None
        path = poc
    # The whole file is read in one call, so a read buffer only costs time.
    with open(path, "rb", buffering=0) as handle:
        text = handle.read().decode("utf-8", errors="replace")
    lines = text.splitlines(keepends=True)
    if len(lines) > POC_HEAD_LINES:
        del lines[POC_HEAD_LINES:]
        text = "".join(lines)
    return text, lines


def _body_scan_can_match(head: str) -> bool:
    # The version body scan is case-insensitive, so on ASCII text it can
    # match only where lower() shows "version". It also folds ſ, ı and İ,
    # so a non-ASCII head may match without that; isascii() is O(1).
    return not head.isascii() or "version" in head.lower()


def _list_names(directory: Path) -> set[str]:
    """Entry names in directory; none when it is missing or not a directory."""
    try:
        return set(os.listdir(directory))
    except (FileNotFoundError, NotADirectoryError):
        return set()


def load_corpus(index_path: Path | str, files_root: Path | str) -> Corpus:
    """Load a corpus from a CSV index and a tree of PoC files.

    The index's file column is relative to files_root; attached archives
    are read from <files_root>/apps/<edb_id>.zip, a regular file or a link
    to one; the snapshot date is today. Each record's header is parsed
    from the first POC_HEAD_LINES lines of its PoC, and those lines are
    kept as poc_text only when the version body scan could match in them
    (see ExploitRecord). A row whose PoC file is missing (or is
    not a regular file) still yields a record (empty poc_text) and a corpus
    warning. Raises IndexUnreadableError for a missing or malformed index,
    including a row that lacks a required column, and DuplicateIdError when
    two rows share an id.
    """
    index_path = Path(index_path)
    root = os.fspath(files_root)
    apps_root = Path(root, "apps")

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

    app_names = _list_names(apps_root)
    records: dict[int, ExploitRecord] = {}
    warnings: list[str] = []
    for row_number, row in enumerate(rows, start=2):
        edb_id, rel_file, published = _parse_row(row, row_number)
        if edb_id in records:
            raise DuplicateIdError(f"exploit id {edb_id} appears more than once in {index_path}")

        head = _read_poc_head(os.path.join(root, rel_file))
        if head is None:
            head = "", []
            warnings.append(f"{edb_id}: PoC file {rel_file} missing, record loaded without text")
            logger.warning("PoC file %s missing for exploit %s", rel_file, edb_id)
        head_text, head_lines = head

        archive_name = f"{edb_id}.zip"
        archive = apps_root / archive_name if archive_name in app_names else None
        records[edb_id] = ExploitRecord(
            edb_id=edb_id,
            title=row["description"].strip(),
            author=sys.intern(row["author"].strip()),
            vuln_type=sys.intern(row["type"].strip()),
            published=published,
            platform=sys.intern(row["platform"].strip()),
            cve_ids=_parse_cve_codes(row.get("codes")),
            poc_text=head_text if _body_scan_can_match(head_text) else "",
            poc_header=_scan_header(head_lines),
            app_archive=archive if archive is not None and archive.is_file() else None,
        )

    return Corpus(
        records=records,
        source_path=str(index_path),
        snapshot_date=date.today(),
        warnings=warnings,
    )
