"""Load and normalize exploit records from an offline index plus PoC files.

The on-disk layout mirrors a public exploit database dump: a CSV index
(columns id, file, description, date, author, type, platform, and an
optional codes column with semicolon separated CVE ids), PoC files
referenced by relative path, and optional attached application archives
named <edb_id>.zip. Each PoC is read with one open, and a path that is
not a regular file reads as a missing PoC. Only the head of a PoC is
kept: the first POC_HEAD_LINES lines, which are all the header and
version scans read. The header is parsed from the head at load; the head
itself is kept only when the version body scan could match in it (see
ExploitRecord).
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
# An index date is YYYY-MM-DD in ASCII digits, with optional whitespace
# around it. date.fromisoformat on Python 3.11 and later also reads
# "20180305" and "2018-W10-1", which 3.10 refuses.
_INDEX_DATE = re.compile(r"\s*([0-9]{4}-[0-9]{2}-[0-9]{2})\s*")

# Header lines take the form "# Key: value" or "Key: value" within the
# first lines of a PoC. Keys are short word sequences; the colon must be
# followed by whitespace so URLs ("https://...") never read as keys. Both
# groups are greedy, so a header line matches without backtracking: spaces
# a key takes before the colon vanish when it is normalised, and the value's
# trailing whitespace is stripped after the match (rstrip and \s strip the
# same set).
_HEADER_LINE = re.compile(r"\s*#*\s*([A-Za-z][A-Za-z0-9 _/-]{0,39})\s*:\s+(\S.*)")

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
    # A line may keep its line ending: rstrip takes it.
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
            header[key] = match.group(2).rstrip()
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


def _parse_row(
    row: list[str], columns: dict[str, int], last_required: int, row_number: int
) -> tuple[int, str, date]:
    # A required column at or past the end of a short row is missing;
    # last_required is the highest required position.
    width = len(row)
    if width <= last_required:
        missing = sorted(column for column in _REQUIRED_COLUMNS if columns[column] >= width)
        raise IndexUnreadableError(f"row {row_number}: lacks columns: {', '.join(missing)}")
    # An id is ASCII digits with optional whitespace around it; int() alone
    # also reads "1_000", "+7" and non-ASCII digits.
    raw_id = row[columns["id"]]
    digits = raw_id.strip()
    try:
        if not (digits.isdigit() and digits.isascii()):
            raise ValueError
        # Past 4,300 digits int() raises ValueError too.
        edb_id = int(digits)
    except ValueError:
        raise IndexUnreadableError(f"row {row_number}: id {raw_id!r} is not an integer")
    raw_date = row[columns["date"]]
    match = _INDEX_DATE.fullmatch(raw_date)
    try:
        if match is None:
            raise ValueError
        published = date.fromisoformat(match[1])
    except ValueError:
        raise IndexUnreadableError(f"row {row_number}: date {raw_date!r} is not ISO formatted")
    if published < EARLIEST_PUBLICATION:
        raise IndexUnreadableError(
            f"row {row_number}: published {published} predates {EARLIEST_PUBLICATION}"
        )
    return edb_id, row[columns["file"]], published


def _read_index(index_path: Path) -> tuple[dict[str, int], list[tuple[int, list[str]]]]:
    """The index's column positions by name (the last of duplicate names
    wins) and its non-blank rows, each with the line it starts on."""
    with index_path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        columns = {name: position for position, name in enumerate(next(reader, []))}
        if not _REQUIRED_COLUMNS.issubset(columns):
            missing = sorted(_REQUIRED_COLUMNS - columns.keys())
            raise IndexUnreadableError(f"index {index_path} lacks columns: {', '.join(missing)}")
        rows = []
        line_number = reader.line_num + 1
        for row in reader:
            if row:
                rows.append((line_number, row))
            line_number = reader.line_num + 1
    return columns, rows


def _read_poc_head(path: str) -> tuple[str, list[str]] | None:
    """The first POC_HEAD_LINES lines of the PoC at path, line endings kept,
    as one text and as lines, or None when it is not a regular file."""
    data = _read_regular_file(path)
    if data is None:
        # Settle the rare rest (a failed open, a FIFO, a directory) with
        # stat, then as pathlib does: it drops a trailing "/" and raises on
        # stat errors other than a missing or looping path.
        try:
            regular = stat.S_ISREG(os.stat(path).st_mode)
        except (OSError, ValueError):
            regular = False
        poc: str | Path = path
        if not regular:
            poc = Path(path)
            if not poc.is_file():
                return None
        with open(poc, "rb", buffering=0) as handle:
            data = handle.read()
    text = data.decode("utf-8", errors="replace")
    lines = text.splitlines(keepends=True)
    if len(lines) > POC_HEAD_LINES:
        del lines[POC_HEAD_LINES:]
        text = "".join(lines)
    return text, lines


def _read_regular_file(path: str) -> bytes | None:
    """The bytes of path when one open shows a regular file, else None.

    O_NONBLOCK keeps a FIFO from blocking the open; it does not change
    reads from a regular file."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except (OSError, ValueError):
        return None
    try:
        status = os.fstat(fd)
        if not stat.S_ISREG(status.st_mode):
            return None
        # One byte past the size, so one short read ends a file that has
        # not grown since the fstat.
        want = status.st_size + 1
        chunks = [os.read(fd, want)]
        while len(chunks[-1]) == want:
            chunks.append(os.read(fd, want))
        return b"".join(chunks)
    finally:
        os.close(fd)


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
    (see ExploitRecord). Each PoC is opened once: a path that opens as
    anything but a regular file (a directory, a FIFO, a device) is a
    missing PoC, like a path that does not exist. A row whose PoC file is
    missing still yields a record (empty poc_text) and a corpus warning.
    Blank index lines are skipped. Raises IndexUnreadableError for a
    missing or malformed index, including a row that lacks a required
    column, naming a row by the index line it starts on, and
    DuplicateIdError when two rows share an id.
    """
    index_path = Path(index_path)
    root = os.fspath(files_root)
    apps_root = Path(root, "apps")

    try:
        columns, rows = _read_index(index_path)
    except OSError as exc:
        raise IndexUnreadableError(f"cannot read index {index_path}: {exc}") from exc
    except csv.Error as exc:
        raise IndexUnreadableError(f"index {index_path} is not valid CSV: {exc}") from exc

    last_required = max(columns[column] for column in _REQUIRED_COLUMNS)
    description_at = columns["description"]
    author_at = columns["author"]
    type_at = columns["type"]
    platform_at = columns["platform"]
    codes_at = columns.get("codes")
    app_names = _list_names(apps_root)
    records: dict[int, ExploitRecord] = {}
    warnings: list[str] = []
    for row_number, row in rows:
        edb_id, rel_file, published = _parse_row(row, columns, last_required, row_number)
        if edb_id in records:
            raise DuplicateIdError(f"exploit id {edb_id} appears more than once in {index_path}")

        head = _read_poc_head(os.path.join(root, rel_file))
        if head is None:
            head = "", []
            warnings.append(f"{edb_id}: PoC file {rel_file} missing, record loaded without text")
            logger.warning("PoC file %s missing for exploit %s", rel_file, edb_id)
        head_text, head_lines = head

        codes = row[codes_at] if codes_at is not None and codes_at < len(row) else None
        archive_name = f"{edb_id}.zip"
        archive = apps_root / archive_name if archive_name in app_names else None
        records[edb_id] = ExploitRecord(
            edb_id=edb_id,
            title=row[description_at].strip(),
            author=sys.intern(row[author_at].strip()),
            vuln_type=sys.intern(row[type_at].strip()),
            published=published,
            platform=sys.intern(row[platform_at].strip()),
            cve_ids=_parse_cve_codes(codes),
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
