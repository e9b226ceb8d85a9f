"""Load and normalize exploit records from an offline index plus PoC files.

The on-disk layout mirrors a public exploit database dump: a CSV index
(columns id, file, description, date, author, type, platform, and an
optional codes column with semicolon separated CVE ids), PoC files
referenced by relative path, and optional attached application archives
named <edb_id>.zip. Loading reads the index and lists apps/, and touches
no PoC. A PoC is read, with one open, when its record's poc_text or
poc_header is first used, so a command reads only the PoCs it needs and
the corpus tree must stay in place until the command ends. That read is
the one check of a PoC path: a path that is not a regular file, or a
link to one, reads as an empty head. Only the head of a PoC is kept: the
first POC_HEAD_LINES lines, which are all the header and version scans
read. The header is parsed from the head; the head itself is kept only
when the version body scan could match in it. Loading reads the index in
one pass and fills each record's instance dict directly, in an attribute
order the module keeps shared across records (see ExploitRecord).
"""

from __future__ import annotations

import csv
import logging
import os
import re
import stat
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .errors import DuplicateIdError, IndexUnreadableError

logger = logging.getLogger(__name__)

__all__ = [
    "ExploitRecord",
    "Corpus",
    "load_corpus",
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

    The constructor takes both fields as given. A record from load_corpus
    keeps its PoC path instead and fills both fields the first time
    either is read; after that it equals, and reprs as, a record built
    with the same values. A PoC that is missing or not a regular file
    reads as an empty head, with a logged warning; any other OSError from
    the read propagates to the reader.

    load_corpus sets app_archive only when the apps/ listing shows
    <id>.zip as a regular file, and later steps trust that: the archive
    must stay in place until the command ends.

    load_corpus skips the constructor, whose nine object.__setattr__ calls
    cost more than the rest of a record's build, and stores each field
    straight into the instance dict. CPython shares one table of attribute
    names among a class's instance dicts; a dict filled in another order
    takes a table of its own. So each load first sets a throwaway record's
    names in the loader's order, then the PoC fields in the order
    __getattr__ sets them. On 3.10 that also undoes a constructor call,
    which sets the PoC fields before app_archive and may rebuild the table
    in its order. A loaded record's dict then takes 232 B on 3.10 and 160 B
    on 3.11 to 3.13, before and after its PoC is read; with the table in
    the constructor's order it took 640 B on 3.10.
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

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: on a record that
        # load_corpus built, poc_text and poc_header until the PoC is read.
        # Threads that reach such a record at once may each read the PoC;
        # they store equal values.
        path = getattr(self, "_poc_path", None) if name in _POC_FIELDS else None
        if path is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}",
                                 name=name, obj=self)
        head = _read_poc_head(path)
        if head is None:
            logger.warning("PoC file %s for exploit %s is missing or not a regular file, "
                           "read as empty", path, self.edb_id)
            head = "", []
        text, lines = head
        object.__setattr__(self, "poc_header", _scan_header(lines))
        object.__setattr__(self, "poc_text", text if _body_scan_can_match(text) else "")
        return getattr(self, name)


_POC_FIELDS = ("poc_text", "poc_header")


def _share_field_names() -> None:
    """Set the shared attribute order of ExploitRecord (see its docstring)."""
    record = object.__new__(ExploitRecord)
    for name in ("edb_id", "title", "author", "vuln_type", "published", "platform", "cve_ids",
                 "app_archive", "_poc_path", "poc_header", "poc_text"):
        object.__setattr__(record, name, None)


@dataclass
class Corpus:
    """All records loaded from one index snapshot."""

    records: dict[int, ExploitRecord]
    source_path: str
    snapshot_date: date

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records.values())


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


def _parse_cve_codes(codes: str) -> tuple[str, ...]:
    found = []
    for token in codes.split(";"):
        token = token.strip()
        if _CVE_TOKEN.fullmatch(token):
            found.append(token.upper())
    return tuple(found)


def _parse_date(raw: str, row_number: int) -> date:
    """The date an index date cell holds; raises IndexUnreadableError, naming
    the row, for one that is not YYYY-MM-DD or predates EARLIEST_PUBLICATION."""
    match = _INDEX_DATE.fullmatch(raw)
    try:
        if match is None:
            raise ValueError
        published = date.fromisoformat(match[1])
    except ValueError:
        raise IndexUnreadableError(f"row {row_number}: date {raw!r} is not ISO formatted")
    if published < EARLIEST_PUBLICATION:
        raise IndexUnreadableError(
            f"row {row_number}: published {published} predates {EARLIEST_PUBLICATION}"
        )
    return published


@contextmanager
def _index_faults(index_path: Path) -> Iterator[None]:
    """Turn a failure to read the index, or text that is not UTF-8 CSV, into
    IndexUnreadableError. The text is decoded in chunks, so an undecodable
    byte is not placed on a line."""
    try:
        yield
    except OSError as exc:
        raise IndexUnreadableError(f"cannot read index {index_path}: {exc}") from exc
    except csv.Error as exc:
        raise IndexUnreadableError(f"index {index_path} is not valid CSV: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IndexUnreadableError(f"index {index_path} is not UTF-8 text: {exc.reason}") from exc


def _read_poc_head(path: str) -> tuple[str, list[str]] | None:
    """The first POC_HEAD_LINES lines of the PoC at path, line endings kept,
    as one text and as lines, or None when it is not a regular file."""
    data = _read_regular_file(path)
    if data is None:
        # The rare rest: a failed open, a FIFO, a directory.
        if not _is_regular_file(path):
            return None
        with open(Path(path), "rb", buffering=0) as handle:
            data = handle.read()
    text = data.decode("utf-8", errors="replace")
    lines = text.splitlines(keepends=True)
    if len(lines) > POC_HEAD_LINES:
        del lines[POC_HEAD_LINES:]
        text = "".join(lines)
    return text, lines


def _is_regular_file(path: str) -> bool:
    """Whether path is a regular file or a link to one: by stat, then as
    pathlib decides, which drops a trailing "/" and raises on stat errors
    other than a missing or looping path."""
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            return True
    except (OSError, ValueError):
        pass
    return Path(path).is_file()


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


def _regular_files(folder: str) -> set[str]:
    """The names in folder of regular files and links to one, from one
    listing. A name whose link cannot be followed for a reason other than
    a missing target is left out. Raises OSError or ValueError when folder
    cannot be listed."""
    names = set()
    with os.scandir(folder) as entries:
        for entry in entries:
            # is_file() reads the entry's type from the listing, and
            # stats only a link or an entry of unknown type.
            try:
                if entry.is_file():
                    names.add(entry.name)
            except OSError:
                pass
    return names


def load_corpus(index_path: Path | str, files_root: Path | str) -> Corpus:
    """Load a corpus from a CSV index and a tree of PoC files.

    The index's file column is relative to files_root; attached archives
    are read from <files_root>/apps/<edb_id>.zip, a regular file or a link
    to one; the snapshot date is today. Loading reads the index and lists
    apps/, and nothing else: each record keeps its PoC path, and the PoC is
    read only when its record's poc_text or poc_header is first used (see
    ExploitRecord). The header is parsed from the first POC_HEAD_LINES
    lines, which are kept as poc_text only when the version body scan
    could match in them. A path that is anything but a regular file or a
    link to one (a directory, a FIFO, a device, a dangling link, a path
    that does not exist) reads as an empty head, with a logged warning.
    Blank index lines are skipped. Raises IndexUnreadableError for a
    missing or malformed index, including a row that lacks a required
    column, naming a row by the index line it starts on, and
    DuplicateIdError when two rows share an id. An apps/ that exists but
    cannot be listed raises its OSError. The index is read in one pass, one
    row at a time, and each row is checked as it is read, so of several
    faults the one nearest the top of the index is raised. Each record is
    filled through its instance dict, not its constructor (see
    ExploitRecord).
    """
    index_path = Path(index_path)
    root = os.fspath(files_root)
    apps_root = Path(root, "apps")
    _share_field_names()

    with _index_faults(index_path):
        handle = index_path.open(newline="", encoding="utf-8-sig")
    with handle:
        reader = csv.reader(handle)
        with _index_faults(index_path):
            # The header row is line 1, blank or not. The last of duplicate
            # column names wins.
            columns = {name: position for position, name in enumerate(next(reader, []))}
        if not _REQUIRED_COLUMNS.issubset(columns):
            missing = sorted(_REQUIRED_COLUMNS - columns.keys())
            raise IndexUnreadableError(f"index {index_path} lacks columns: {', '.join(missing)}")
        last_required = max(columns[column] for column in _REQUIRED_COLUMNS)
        id_at, file_at, description_at, date_at, author_at, type_at, platform_at = (
            columns[name] for name in ("id", "file", "description", "date", "author", "type",
                                       "platform"))
        codes_at = columns.get("codes")
        try:
            app_files = _regular_files(apps_root)
        except (FileNotFoundError, NotADirectoryError):
            app_files = set()
        # Each PoC folder, as the text of the file column up to its last "/",
        # maps to os.path.join(root, folder); each date string already
        # accepted maps to its date.
        folders: dict[str, str] = {}
        dates: dict[str, date] = {}
        new_record, intern = object.__new__, sys.intern
        records: dict[int, ExploitRecord] = {}
        ended = reader.line_num
        with _index_faults(index_path):
            # Each row is released once its record is built, so the rows are
            # never all held at once.
            for row in reader:
                # A row starts on the line after the one the last row ended on,
                # so blank lines and multi-line quoted cells keep their numbers.
                row_number, ended = ended + 1, reader.line_num
                width = len(row)
                if width <= last_required:
                    if not width:
                        continue
                    missing = ", ".join(sorted(
                        name for name in _REQUIRED_COLUMNS if columns[name] >= width))
                    raise IndexUnreadableError(f"row {row_number}: lacks columns: {missing}")
                # An id is ASCII digits with optional whitespace around it;
                # int() alone also reads "1_000", "+7" and non-ASCII digits.
                raw_id = row[id_at]
                digits = raw_id.strip()
                try:
                    if not (digits.isdigit() and digits.isascii()):
                        raise ValueError
                    # Past 4,300 digits int() raises ValueError too.
                    edb_id = int(digits)
                except ValueError:
                    raise IndexUnreadableError(f"row {row_number}: id {raw_id!r} is not an integer")
                raw_date = row[date_at]
                published = dates.get(raw_date)
                if published is None:
                    published = dates[raw_date] = _parse_date(raw_date, row_number)
                if edb_id in records:
                    raise DuplicateIdError(f"exploit id {edb_id} appears more than once in "
                                           f"{index_path}")

                head, slash, name = row[file_at].rpartition("/")
                folder_key = head + slash
                folder_path = folders.get(folder_key)
                if folder_path is None:
                    folder_path = folders[folder_key] = os.path.join(root, folder_key)
                codes = row[codes_at] if codes_at is not None and codes_at < width else ""
                archive_name = f"{edb_id}.zip"

                # poc_text and poc_header stay unset, so that their first read
                # fills them from the PoC path (see ExploitRecord).
                record = new_record(ExploitRecord)
                fields = record.__dict__
                fields["edb_id"] = edb_id
                fields["title"] = row[description_at].strip()
                fields["author"] = intern(row[author_at].strip())
                fields["vuln_type"] = intern(row[type_at].strip())
                fields["published"] = published
                fields["platform"] = intern(row[platform_at].strip())
                fields["cve_ids"] = _parse_cve_codes(codes) if codes else ()
                fields["app_archive"] = (apps_root / archive_name if archive_name in app_files
                                         else None)
                # The path os.path.join(root, <file column>) gives.
                fields["_poc_path"] = folder_path + name
                records[edb_id] = record

    return Corpus(records, source_path=str(index_path), snapshot_date=date.today())
