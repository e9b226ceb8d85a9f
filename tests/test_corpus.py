from __future__ import annotations

import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vulnwp.corpus as corpus_module
from vulnwp.corpus import POC_HEAD_LINES, ExploitRecord, load_corpus
from vulnwp.errors import DuplicateIdError, IndexUnreadableError
from vulnwp.versions import Version, VersionConstraint, extract_version_from_poc

from conftest import make_record

INDEX_COLUMNS = ["id", "file", "description", "date", "author", "type", "platform", "codes"]


def write_index(path: Path, rows: list[dict]) -> Path:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=INDEX_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return path


def row(edb_id: int, **overrides) -> dict:
    base = {
        "id": edb_id,
        "file": f"exploits/{edb_id}.txt",
        "description": f"WordPress Plugin Sample {edb_id} 1.0 - SQL Injection",
        "date": "2018-03-05",
        "author": "someone",
        "type": "webapps",
        "platform": "php",
        "codes": "",
    }
    base.update(overrides)
    return base


def write_poc(root: Path, edb_id: int, text: str) -> None:
    path = root / "exploits" / f"{edb_id}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))


@pytest.fixture()
def poc_reads(monkeypatch) -> list[str]:
    """The path of every PoC read while the test runs, in order."""
    reads: list[str] = []
    read = corpus_module._read_poc_head

    def counting_read(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(corpus_module, "_read_poc_head", counting_read)
    return reads


def refuse_reading(monkeypatch, poc: str) -> None:
    """Make opening the PoC at poc fail as a file mode of 000 would for a
    user other than root: both ways the reader opens a file raise."""
    real_os_open = os.open

    def refusing_os_open(path, *args, **kwargs):
        if os.fspath(path) == poc:
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return real_os_open(path, *args, **kwargs)

    def refusing_open(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", os.fspath(path))

    monkeypatch.setattr(os, "open", refusing_os_open)
    monkeypatch.setattr(corpus_module, "open", refusing_open, raising=False)


def read_as_empty(path, edb_id: int = 1) -> str:
    """The warning the first read of a missing PoC logs."""
    return f"PoC file {path} for exploit {edb_id} is missing or not a regular file, read as empty"


def loaded_header(root: Path, text: str) -> dict[str, str]:
    """The poc_header of a one-row corpus under root whose PoC is text."""
    return load_one(root, text).records[1].poc_header


def load_one(root: Path, text: str | None = None, **overrides):
    """Load a one-row corpus under root; text, when given, is the PoC of id 1."""
    if text is not None:
        write_poc(root, 1, text)
    return load_corpus(write_index(root / "files_exploits.csv", [row(1, **overrides)]), root)


class TestLoadCorpus:
    def test_loads_fixture_corpus_completely(self, e2e_tree, caplog):
        corpus = e2e_tree.load()
        assert len(corpus) == 20
        assert all(record.poc_header for record in corpus)
        assert caplog.records == []
        record = corpus.records[103]
        assert record.title == "WordPress Plugin Quiz Master 7.1.3 - SQL Injection"
        assert record.published == date(2018, 6, 12)
        assert record.platform == "php"
        assert record.poc_header["software-link"].endswith("/quiz-master/")

    def test_app_archives_attach_by_id(self, e2e_tree):
        corpus = e2e_tree.load()
        assert corpus.records[105].app_archive is not None
        assert corpus.records[105].app_archive.name == "105.zip"
        assert corpus.records[103].app_archive is None

    def test_codes_column_yields_cve_tuple(self, e2e_tree):
        corpus = e2e_tree.load()
        assert corpus.records[113].cve_ids == ("CVE-2017-5487",)
        assert corpus.records[101].cve_ids == ()

    def test_missing_poc_file_warns_but_loads(self, tmp_path, caplog):
        index = write_index(tmp_path / "files_exploits.csv", [row(1)])
        corpus = load_corpus(index, tmp_path)
        assert len(corpus) == 1
        assert caplog.records == []
        assert corpus.records[1].poc_text == ""
        assert corpus.records[1].poc_header == {}
        poc = os.path.join(tmp_path, "exploits", "1.txt")
        assert [r.getMessage() for r in caplog.records] == [read_as_empty(poc)]

    def test_duplicate_id_raises(self, tmp_path):
        index = write_index(tmp_path / "files_exploits.csv", [row(7), row(7)])
        with pytest.raises(DuplicateIdError):
            load_corpus(index, tmp_path)

    def test_missing_index_raises(self, tmp_path):
        with pytest.raises(IndexUnreadableError):
            load_corpus(tmp_path / "absent.csv", tmp_path)

    def test_missing_columns_raise(self, tmp_path):
        path = tmp_path / "files_exploits.csv"
        path.write_text("id,description\n1,whatever\n", encoding="utf-8")
        with pytest.raises(IndexUnreadableError) as excinfo:
            load_corpus(path, tmp_path)
        assert "date" in str(excinfo.value)

    def test_non_integer_id_raises(self, tmp_path):
        index = write_index(tmp_path / "files_exploits.csv", [row(1, id="seven")])
        with pytest.raises(IndexUnreadableError):
            load_corpus(index, tmp_path)

    def test_bad_date_raises(self, tmp_path):
        index = write_index(tmp_path / "files_exploits.csv", [row(1, date="03/05/2018")])
        with pytest.raises(IndexUnreadableError):
            load_corpus(index, tmp_path)

    @pytest.mark.parametrize(
        "raw_id", ["1_000", "\u0667", "\uff17", "+7", "-7", "7.0", "0x7", "7 7", "7" * 4301]
    )
    def test_id_other_than_ascii_digits_raises(self, tmp_path, raw_id):
        # int() reads the first five as numbers, and refuses the last with
        # a ValueError of its own: it is longer than int()'s digit limit.
        with pytest.raises(IndexUnreadableError) as excinfo:
            load_one(tmp_path, id=raw_id)
        assert str(excinfo.value) == f"row 2: id {raw_id!r} is not an integer"

    @pytest.mark.parametrize(
        "raw_date",
        # Python 3.11's date.fromisoformat reads the first three as 2018-03-05.
        ["20180305", "2018-W10-1", "2018W101", "2018-3-5", "\u0662\u0660\u0661\u0668-03-05",
         "2018-03-5", "2018-03-05T00:00", "2018-03-05 x", "2018-02-30"],
    )
    def test_date_other_than_yyyy_mm_dd_raises(self, tmp_path, raw_date):
        with pytest.raises(IndexUnreadableError) as excinfo:
            load_one(tmp_path, date=raw_date)
        assert str(excinfo.value) == f"row 2: date {raw_date!r} is not ISO formatted"

    @pytest.mark.parametrize(
        "raw_id, raw_date",
        [(" 7 ", " 2018-03-05 "), ("\t007", "2018-03-05\u00a0"), ("7\u3000", "\n2018-03-05")],
    )
    def test_id_and_date_may_carry_surrounding_whitespace(self, tmp_path, raw_id, raw_date):
        index = write_index(tmp_path / "files_exploits.csv", [row(1, id=raw_id, date=raw_date)])
        corpus = load_corpus(index, tmp_path)
        assert list(corpus.records) == [7]
        assert corpus.records[7].published == date(2018, 3, 5)

    def test_ancient_date_raises(self, tmp_path):
        index = write_index(tmp_path / "files_exploits.csv", [row(1, date="1970-01-01")])
        with pytest.raises(IndexUnreadableError):
            load_corpus(index, tmp_path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1998-12-31", "published 1998-12-31 predates 1999-01-01"),
            ("2018-02-30", "date '2018-02-30' is not ISO formatted"),
            ("03/05/2018", "date '03/05/2018' is not ISO formatted"),
        ],
    )
    def test_refused_date_is_refused_however_often_its_string_repeats(
        self, tmp_path, bad, message
    ):
        # A date string is parsed once per load, and only an accepted one is
        # remembered: every load refuses the first row that carries it.
        rows = [row(1), row(2, date=" 2018-03-05"), row(3, date=bad), row(4, date=bad), row(5)]
        index = write_index(tmp_path / "files_exploits.csv", rows)
        good = write_index(tmp_path / "good.csv", [row(1), row(2)])
        for _ in range(2):
            with pytest.raises(IndexUnreadableError) as excinfo:
                load_corpus(index, tmp_path)
            assert str(excinfo.value) == f"row 4: {message}"
            assert [r.published for r in load_corpus(good, tmp_path)] == [date(2018, 3, 5)] * 2

    def test_index_that_is_not_valid_csv_raises(self, tmp_path):
        huge = "x" * (csv.field_size_limit() + 1)
        index = write_index(tmp_path / "files_exploits.csv", [row(1), row(2, description=huge)])
        with pytest.raises(IndexUnreadableError, match="is not valid CSV: field larger than"):
            load_corpus(index, tmp_path)

    @pytest.mark.parametrize(
        "first, error, message",
        [
            (row(2, date="1998-12-31"), IndexUnreadableError, "row 3: published 1998-12-31"),
            (row(1), DuplicateIdError, "exploit id 1 appears more than once"),
        ],
    )
    def test_rows_are_checked_as_they_are_read(self, tmp_path, first, error, message):
        # A faulty row raises before a later row that is not valid CSV is read.
        huge = "x" * (csv.field_size_limit() + 1)
        index = write_index(tmp_path / "files_exploits.csv",
                            [row(1), first, row(3, description=huge)])
        with pytest.raises(error, match=message):
            load_corpus(index, tmp_path)

    def test_repeated_date_strings_give_equal_dates(self, tmp_path):
        dates = ["2018-03-05", "2018-03-05", " 2018-03-05", "2019-12-31", "2018-03-05",
                 "2019-12-31"]
        index = write_index(tmp_path / "files_exploits.csv",
                            [row(i, date=d) for i, d in enumerate(dates, 1)])
        published = [r.published for r in load_corpus(index, tmp_path)]
        assert published == [date(2018, 3, 5)] * 3 + [date(2019, 12, 31), date(2018, 3, 5),
                                                      date(2019, 12, 31)]

    @pytest.mark.parametrize(
        "line, missing",
        [
            ("1,x.txt,WordPress Core 4.7 - XSS,2017-01-01", "author, platform, type"),
            ("1,x.txt", "author, date, description, platform, type"),
        ],
    )
    def test_short_row_names_the_row_and_its_missing_columns(self, tmp_path, line, missing):
        path = tmp_path / "files_exploits.csv"
        full = "1,exploits/1.txt,Title,2018-03-05,a,webapps,php,"
        path.write_text(",".join(INDEX_COLUMNS) + f"\n{full}\n{line}\n", encoding="utf-8")
        with pytest.raises(IndexUnreadableError) as excinfo:
            load_corpus(path, tmp_path)
        assert str(excinfo.value) == f"row 3: lacks columns: {missing}"

    @pytest.mark.parametrize(
        "lines, message",
        [
            # Blank lines after the rows on lines 2 and 4.
            (["", "2,exploits/2.txt,T,2018-03-05,a,webapps,php,", "",
              "x,exploits/x.txt,T,2018-03-05,a,webapps,php,"],
             "row 6: id 'x' is not an integer"),
            # A quoted title spanning lines 3 and 4.
            (['2,exploits/2.txt,"Title,\nspanning",2018-03-05,a,webapps,php,',
              "x,exploits/x.txt,T,2018-03-05,a,webapps,php,"],
             "row 5: id 'x' is not an integer"),
            # The bad row itself starts after a blank line and spans two lines.
            (['2,exploits/2.txt,"T\r\n2",2018-03-05,a,webapps,php,', "",
              '3,exploits/3.txt,"T\n3",03/05/2018,a,webapps,php,'],
             "row 6: date '03/05/2018' is not ISO formatted"),
        ],
    )
    def test_row_number_is_the_index_line_the_row_starts_on(self, tmp_path, lines, message):
        path = tmp_path / "files_exploits.csv"
        full = "1,exploits/1.txt,Title,2018-03-05,a,webapps,php,"
        path.write_text("\n".join([",".join(INDEX_COLUMNS), full, *lines]) + "\n", encoding="utf-8")
        with pytest.raises(IndexUnreadableError) as excinfo:
            load_corpus(path, tmp_path)
        assert str(excinfo.value) == message

    def test_row_without_the_optional_codes_column_loads(self, tmp_path):
        path = tmp_path / "files_exploits.csv"
        path.write_text(",".join(INDEX_COLUMNS) + "\n1,x.txt,Title,2018-03-05,a,webapps,php\n")
        corpus = load_corpus(path, tmp_path)
        assert corpus.records[1].cve_ids == ()

    def test_poc_path_that_is_a_directory_warns_and_loads(self, tmp_path, caplog):
        (tmp_path / "exploits" / "1.txt").mkdir(parents=True)
        corpus = load_one(tmp_path)
        assert caplog.records == []
        assert corpus.records[1].poc_text == ""
        assert corpus.records[1].poc_header == {}
        poc = os.path.join(tmp_path, "exploits", "1.txt")
        assert [r.getMessage() for r in caplog.records] == [read_as_empty(poc)]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_poc_path_that_is_a_fifo_warns_and_loads(self, tmp_path, caplog):
        # Opening a FIFO for reading blocks until a writer comes, so the load
        # and the first read run in a thread that the test gives up on rather
        # than hang.
        fifo = tmp_path / "exploits" / "1.txt"
        fifo.parent.mkdir()
        os.mkfifo(fifo)
        loaded = []

        def load_and_read():
            record = load_one(tmp_path).records[1]
            loaded.append((len(caplog.records), record.poc_text, record.poc_header))

        loader = threading.Thread(target=load_and_read, daemon=True)
        loader.start()
        loader.join(timeout=10)
        if loader.is_alive():
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))  # release the blocked open
            pytest.fail("opening a FIFO named as a PoC blocked the load or the read")
        assert loaded == [(0, "", {})]
        assert [r.getMessage() for r in caplog.records] == [read_as_empty(fifo)]

    def test_record_keeps_the_first_lines_with_their_endings(self, tmp_path):
        # The U+2028 ending makes the head non-ASCII, so it is kept.
        endings = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]
        lines = [f"line {n}: text{endings[n % len(endings)]}" for n in range(200)]
        corpus = load_one(tmp_path, "".join(lines))
        poc_text = corpus.records[1].poc_text
        assert POC_HEAD_LINES == 60
        assert poc_text == "".join(lines[:60])
        assert poc_text.splitlines(keepends=True) == lines[:60]

    def test_header_and_version_hint_on_the_last_kept_line_are_read(self, tmp_path):
        filler = "filler\n" * (POC_HEAD_LINES - 1)
        header = load_one(tmp_path / "a", filler + "# Version: 3.2\n").records[1]
        assert header.poc_header == {"version": "3.2"}
        assert extract_version_from_poc(header) == VersionConstraint.exact(Version.parse("3.2"))
        body = load_one(tmp_path / "b", filler + "tested version 3.2\n").records[1]
        assert body.poc_header == {}
        assert extract_version_from_poc(body) == VersionConstraint.exact(Version.parse("3.2"))

    def test_header_and_version_hint_past_the_kept_lines_are_not(self, tmp_path):
        # A head without "version" is not kept; one with it is kept whole.
        for filler, kept in (("filler\n", ""), ("see the version notes\r\n", None)):
            head = filler * POC_HEAD_LINES
            for sub, hint in (("a", "# Version: 3.2\n"), ("b", "tested version 3.2\n")):
                record = load_one(tmp_path / f"{sub}{len(filler)}", head + hint).records[1]
                assert record.poc_text == (head if kept is None else kept)
                assert record.poc_header == {}
                assert extract_version_from_poc(record) is None

    def test_head_without_version_is_not_kept(self, tmp_path):
        record = load_one(tmp_path, "# Exploit Title: x\n# Tested on: Linux\nvers ion 1.0\n").records[1]
        assert record.poc_text == ""
        assert record.poc_header == {"exploit-title": "x", "tested-on": "Linux"}

    def test_short_poc_is_kept_as_read(self, tmp_path):
        text = "a\r\nVERSION 2.1\rno ending"
        record = load_one(tmp_path, text).records[1]
        assert record.poc_text == text
        assert extract_version_from_poc(record) == VersionConstraint.exact(Version.parse("2.1"))

    @pytest.mark.parametrize("spelling", ["ver\u017fion", "vers\u0131on", "VERS\u0130ON"])
    def test_non_ascii_head_is_kept_although_lower_shows_no_version(self, tmp_path, spelling):
        # The scan folds these letters into "version"; lower() does not, so
        # a check on lower() alone would drop the head and lose the version.
        text = f"Tested on {spelling} 4.2\n"
        assert "version" not in text.lower()
        record = load_one(tmp_path, text).records[1]
        assert record.poc_text == text
        assert extract_version_from_poc(record) == VersionConstraint.exact(Version.parse("4.2"))

    @pytest.mark.parametrize(
        "index_bytes",
        [
            b"id,fi\xffle,description,date,author,type,platform,codes\n"
            b"1,exploits/1.txt,Title,2018-03-05,a,webapps,php,\n",
            b"id,file,description,date,author,type,platform,codes\n"
            b"1,exploits/1.txt,Ti\xfftle,2018-03-05,a,webapps,php,\n",
        ],
        ids=["header", "row"],
    )
    def test_index_that_is_not_utf8_raises_naming_the_index(self, tmp_path, index_bytes):
        path = tmp_path / "files_exploits.csv"
        path.write_bytes(index_bytes)
        with pytest.raises(IndexUnreadableError) as excinfo:
            load_corpus(path, tmp_path)
        assert str(excinfo.value) == f"index {path} is not UTF-8 text: invalid start byte"
        assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)

    def test_utf8_bom_index_loads(self, tmp_path):
        path = tmp_path / "files_exploits.csv"
        body = ",".join(INDEX_COLUMNS) + "\n1,exploits/1.txt,Title,2018-03-05,a,webapps,php,\n"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        corpus = load_corpus(path, tmp_path)
        assert set(corpus.records) == {1}


class TestAppArchives:
    def test_no_apps_dir_means_no_archives(self, tmp_path):
        assert load_one(tmp_path).records[1].app_archive is None

    def test_apps_as_a_file_means_no_archives(self, tmp_path):
        (tmp_path / "apps").write_bytes(b"not a directory")
        assert load_one(tmp_path).records[1].app_archive is None

    def test_zip_name_on_a_directory_is_not_an_archive(self, tmp_path):
        (tmp_path / "apps" / "1.zip").mkdir(parents=True)
        assert load_one(tmp_path).records[1].app_archive is None

    def test_symlinked_zip_is_an_archive(self, tmp_path):
        (tmp_path / "apps").mkdir()
        (tmp_path / "elsewhere.zip").write_bytes(b"PK")
        (tmp_path / "apps" / "1.zip").symlink_to(tmp_path / "elsewhere.zip")
        assert load_one(tmp_path).records[1].app_archive == tmp_path / "apps" / "1.zip"

    def test_dangling_symlink_is_not_an_archive(self, tmp_path):
        (tmp_path / "apps").mkdir()
        (tmp_path / "apps" / "1.zip").symlink_to(tmp_path / "gone.zip")
        assert load_one(tmp_path).records[1].app_archive is None

    def test_only_the_records_own_id_matches(self, tmp_path):
        (tmp_path / "apps").mkdir()
        for name in ("10.zip", "1.zip.bak", "1.ZIP"):
            (tmp_path / "apps" / name).write_bytes(b"PK")
        assert load_one(tmp_path).records[1].app_archive is None

    def test_apps_that_cannot_be_listed_raises_its_oserror(self, tmp_path, monkeypatch):
        # Root may list any folder, so the refusal is made here.
        apps = tmp_path / "apps"
        apps.mkdir()
        monkeypatch.setattr(os, "scandir", refuse_listing(os.scandir, lambda p: p == str(apps)))
        with pytest.raises(OSError) as excinfo:
            load_one(tmp_path, "# Version: 1.0\n")
        assert type(excinfo.value) is PermissionError
        assert excinfo.value.filename == str(apps)


# Reference index reader on csv.DictReader, which skips blank lines, fills
# the columns a short row lacks with None and lets the last of duplicate
# column names win. The loader must load the same records, each with the PoC
# path the file column names, from any index text, or raise the same error;
# row numbers are checked above.
_REQUIRED_INDEX_COLUMNS = INDEX_COLUMNS[:-1]


def reference_load_index(path: Path):
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            fieldnames = set(reader.fieldnames or [])
            missing = sorted(set(_REQUIRED_INDEX_COLUMNS) - fieldnames)
            if missing:
                raise IndexUnreadableError(f"index {path} lacks columns: {', '.join(missing)}")
            records, poc_paths = {}, {}
            # Rows are checked as they are read, as the loader reads them.
            for row in reader:
                missing = sorted(c for c in _REQUIRED_INDEX_COLUMNS if row[c] is None)
                if missing:
                    raise IndexUnreadableError(f"lacks columns: {', '.join(missing)}")
                raw_id = row["id"].strip()
                if not (raw_id.isascii() and raw_id.isdigit()):
                    raise IndexUnreadableError(f"id {row['id']!r} is not an integer")
                edb_id = int(raw_id)
                raw_date = row["date"].strip()
                parts = raw_date[:4], raw_date[5:7], raw_date[8:]
                try:
                    digits = all(p.isascii() and p.isdigit() for p in parts)
                    if not (len(raw_date) == 10 and raw_date[4] == raw_date[7] == "-" and digits):
                        raise ValueError(raw_date)
                    published = date(*map(int, parts))
                except ValueError:
                    raise IndexUnreadableError(f"date {row['date']!r} is not ISO formatted")
                if published < date(1999, 1, 1):
                    raise IndexUnreadableError(f"published {published} predates 1999-01-01")
                if edb_id in records:
                    raise DuplicateIdError(f"exploit id {edb_id} appears more than once in {path}")
                cves = [token.strip().upper() for token in (row.get("codes") or "").split(";")]
                records[edb_id] = (
                    edb_id,
                    row["description"].strip(),
                    row["author"].strip(),
                    row["type"].strip(),
                    published,
                    row["platform"].strip(),
                    tuple(cve for cve in cves if re.fullmatch(r"CVE-\d{4}-\d{4,}", cve)),
                )
                poc_paths[edb_id] = os.path.join(path.parent, row["file"])
    except csv.Error as exc:
        raise IndexUnreadableError(f"index {path} is not valid CSV: {exc}") from exc
    return records, poc_paths


def loaded_index_fields(path: Path):
    corpus = load_corpus(path, path.parent)
    records = {
        edb_id: (r.edb_id, r.title, r.author, r.vuln_type, r.published, r.platform, r.cve_ids)
        for edb_id, r in corpus.records.items()
    }
    poc_paths = {edb_id: r._poc_path for edb_id, r in corpus.records.items()}
    return records, poc_paths


def outcome(load, path: Path):
    """What load gives for path: its result, or the error's type and message
    without the row number."""
    try:
        return load(path)
    except (IndexUnreadableError, DuplicateIdError) as exc:
        return type(exc), re.sub(r"^row \d+: ", "", str(exc))


_free_cells = st.text(alphabet='ab ,"\n\r;\t', max_size=6)
# Cells are mostly valid, so that most indexes load several records.
_index_cells = {
    "id": st.integers(0, 11).flatmap(
        lambda n: st.integers(1, 40).map(str) if n
        else st.sampled_from([" 7 ", "x", "", "1.0", "1_0", "\u0667", "+7", "-7", "\t8\u00a0"])
    ),
    "date": st.integers(0, 11).flatmap(
        lambda n: st.sampled_from(
            ["2018-03-05", " 2020-01-01\n"] if n
            else ["1998-12-31", "03/05/2018", "", "20180305", "2018-W10-1", "2018-02-30",
                  "+018-03-05", "2018-03-5"]
        )
    ),
    "codes": st.sampled_from(
        ["", "CVE-2017-5487", "cve-2017-5487; CVE-2019-9978", "x;CVE-1-2",
         "CVE-2020-1234,CVE-2020-5678"]
    ),
    "file": st.sampled_from(["exploits/1.txt", "a b.txt", "x,y.txt"]),
}


@st.composite
def index_texts(draw) -> str:
    """An index: its columns in any order, codes or not, a duplicate or an
    extra column, now and then a required one dropped; rows full, short or
    long, with quoted commas and newlines, and blank lines between them."""
    header = list(draw(st.permutations(INDEX_COLUMNS)))
    if draw(st.booleans()):
        header.remove("codes")
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(INDEX_COLUMNS + ["extra"]))
        header.insert(draw(st.integers(0, len(header))), name)
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(header)))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=ending)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        buffer.write(draw(st.sampled_from(["", "", "\n", ending, "\n\r\n"])))
        cells = [draw(_index_cells.get(name, _free_cells)) for name in header]
        width = draw(st.integers(0, 19).flatmap(
            lambda n: st.integers(0, len(header) + 2) if n == 0 else st.just(len(header) - (n == 1))
        ))
        writer.writerow((cells + ["extra,cell", "z"])[:width])
    return buffer.getvalue() + draw(st.sampled_from(["", "\n", ending * 2]))


class TestIndexMatchesDictReader:
    @settings(max_examples=200, deadline=None)
    @given(index_texts())
    def test_loaded_index_fields(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "files_exploits.csv"
            path.write_bytes(text.encode("utf-8"))
            assert outcome(loaded_index_fields, path) == outcome(reference_load_index, path)


# Reference header scan: every line goes through the regex and keys are
# normalised with re.sub. The loader's scan must agree with it exactly.
_REFERENCE_HEADER_LINE = re.compile(r"^\s*#*\s*([A-Za-z][A-Za-z0-9 _/-]{0,39}?)\s*:\s+(\S.*?)\s*$")


def reference_parse_poc_header(poc_text: str) -> dict[str, str]:
    header: dict[str, str] = {}
    for line in poc_text.splitlines()[:60]:
        match = _REFERENCE_HEADER_LINE.match(line)
        if match is None:
            continue
        key = re.sub(r"\s+", "-", match.group(1).strip().lower())
        if key and key not in header:
            header[key] = match.group(2)
    return header


_LINE_ENDINGS = ["", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n" * 25]
_header_like_lines = st.tuples(
    st.sampled_from(["", "#", "# ", " \t#", "## ", "\u00a0#"]),
    st.sampled_from(
        ["Version", "Software Link", "software   link", "Tested on", "a/b-c_d", "9bad", "",
         "A" * 39, "B" * 40, "C" * 41, "https", "x y z ",
         # Around the 40-character key limit, with spaces before the colon.
         "D" * 39 + " ", "E" * 39 + "   ", "F" * 40 + " ", "G" * 41 + "  ", "H" * 38 + " i  "]
    ),
    st.sampled_from([":", ": ", " : ", ":\t", ":\u00a0", ":\u3000", ":\x0b", "://", "::", " "]),
    st.sampled_from(
        ["", "7.1.3", " 1.0 ", "//example.test/a:b", "é", "\u2003x", "<= 2.0\t",
         # Values ending in whitespace that is not a line ending, or is one
         # only to splitlines (\x85).
         "7.1.3\x1f", "x\u00a0", "1 2\u3000", "y\x85", "z \x1f\u00a0\u3000"]
    ),
    st.sampled_from(_LINE_ENDINGS),
).map("".join)
_poc_texts = st.lists(
    st.one_of(
        _header_like_lines,
        st.sampled_from(_LINE_ENDINGS),
        st.text(alphabet="#: \t\r\n\x0b\x1cAz9_/-.\u00a0\u2028", max_size=6),
    ),
    max_size=80,
).map("".join)

# Looser than the body scan: a line it does not match, the scan cannot.
_REFERENCE_VERSION_HINT = re.compile(r"version[:\s]", re.IGNORECASE)

# Spellings the case-insensitive body scan reads as "version" (the last
# three fold ſ, ı and İ), mixed with near misses, colons, line endings and
# enough leading lines to push a hint past line 60.
_version_lines = st.tuples(
    st.sampled_from(["", "# ", "Tested ", "x", "#  "]),
    st.sampled_from(
        ["version", "VERSION", "VeRsIoN", "ver\u017fion", "vers\u0131on", "VERS\u0130ON", "vers ion",
         "versions"]
    ),
    st.sampled_from(["", ":", ": ", " ", ":\t", " <= ", ": < ", "\u00a0", "::"]),
    st.sampled_from(["", "4.7", "1.0 / 2.1", "x", "3-beta", "9.9.9"]),
    st.sampled_from(_LINE_ENDINGS),
).map("".join)
_version_texts = st.tuples(
    st.integers(min_value=0, max_value=70).map(lambda n: "filler: x\n" * n),
    st.lists(
        st.one_of(_version_lines, st.sampled_from(_LINE_ENDINGS), st.sampled_from(["a: b", "ver", "sion"])),
        max_size=20,
    ).map("".join),
).map("".join)


class TestHeaderScanMatchesReference:
    @settings(deadline=None)
    @given(st.lists(_poc_texts, min_size=1, max_size=4))
    def test_loaded_headers(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for edb_id, text in enumerate(texts, 1):
                write_poc(root, edb_id, text)
            rows = [row(edb_id) for edb_id in range(1, len(texts) + 1)]
            corpus = load_corpus(write_index(root / "files_exploits.csv", rows), root)
            headers = [record.poc_header for record in corpus]
        assert headers == [reference_parse_poc_header(text) for text in texts]

    @settings(max_examples=60, deadline=None)
    @given(_poc_texts)
    def test_loaded_record(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            record = load_one(Path(tmp), text).records[1]
            assert record.poc_header == reference_parse_poc_header(text)
        head = "".join(text.splitlines(keepends=True)[:60])
        kept = not head.isascii() or "version" in head.lower()
        assert record.poc_text == (head if kept else "")
        if kept:
            assert record.poc_text.splitlines() == text.splitlines()[:60]
        else:
            assert not any(_REFERENCE_VERSION_HINT.search(line) for line in head.splitlines())

    @settings(max_examples=80, deadline=None)
    @given(_version_texts)
    def test_version_scan_reads_as_on_the_full_head(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_one(Path(tmp), text).records[1]
            head = "".join(text.splitlines(keepends=True)[:60])
            full = make_record(edb_id=1, poc_text=head, header=reference_parse_poc_header(text))
            assert extract_version_from_poc(loaded) == extract_version_from_poc(full)


class TestPocHeader:
    """The header a loaded record parses from its PoC."""

    def test_typical_exploitdb_header(self, tmp_path):
        text = (
            "# Exploit Title: WordPress Plugin Quiz Master 7.1.3 - SQL Injection\n"
            "# Date: 2018-06-12\n"
            "# Exploit Author: someone\n"
            "# Vendor Homepage: https://example.test/\n"
            "# Software Link: https://downloads.example.test/quiz-master.7.1.3.zip\n"
            "# Version: 7.1.3\n"
            "# Tested on: Ubuntu 16.04\n"
            "\n"
            "POST /wp-admin/admin-ajax.php HTTP/1.1\n"
        )
        header = loaded_header(tmp_path, text)
        assert header["exploit-title"].startswith("WordPress Plugin Quiz Master")
        assert header["version"] == "7.1.3"
        assert header["software-link"].endswith(".zip")
        assert header["tested-on"] == "Ubuntu 16.04"

    def test_header_without_hash_prefix(self, tmp_path):
        text = "Exploit Title: Something\nVersion: 2.4\n"
        header = loaded_header(tmp_path, text)
        assert header["exploit-title"] == "Something"
        assert header["version"] == "2.4"

    def test_unrelated_code_lines_are_skipped(self, tmp_path):
        text = (
            "# Version: 7.1.3\n"
            "import requests\n"
            "target = 'http://localhost:8080/wp-login.php'\n"
            "payload = {'log': 'admin', 'pwd': 'x'}\n"
        )
        assert loaded_header(tmp_path, text) == {"version": "7.1.3"}

    def test_url_lines_do_not_become_keys(self, tmp_path):
        text = "https://example.test/path\n# Version: 1.0\n"
        header = loaded_header(tmp_path, text)
        assert header == {"version": "1.0"}

    def test_first_occurrence_of_key_wins(self, tmp_path):
        text = "# Version: 1.0\n# version: 2.0\n"
        assert loaded_header(tmp_path, text)["version"] == "1.0"

    def test_key_normalization_variants_collide(self, tmp_path):
        assert loaded_header(tmp_path, "# Software Link: a\n") == {"software-link": "a"}
        assert loaded_header(tmp_path, "#   software   link  : b\n") == {"software-link": "b"}

    def test_scan_stops_after_leading_block(self, tmp_path):
        text = "\n" * 70 + "# Version: 9.9\n"
        assert loaded_header(tmp_path, text) == {}

    def test_render_parse_idempotent(self, tmp_path):
        header = {"exploit-title": "Some Title", "version": "1.2", "tested-on": "Debian 10"}
        assert loaded_header(tmp_path, "\n".join(f"# {k}: {v}" for k, v in header.items())) == header

    def test_empty_text_gives_empty_header(self, tmp_path):
        assert loaded_header(tmp_path, "") == {}


class TestPocReadAtFirstUse:
    def test_load_reads_no_poc_and_first_use_reads_one_once(self, tmp_path, poc_reads):
        for edb_id in (1, 2, 3):
            write_poc(tmp_path, edb_id, f"# Version: {edb_id}.0\n")
        index = write_index(tmp_path / "files_exploits.csv", [row(1), row(2), row(3)])
        corpus = load_corpus(index, tmp_path)
        assert poc_reads == []
        record = corpus.records[2]
        assert record.poc_header == {"version": "2.0"}
        assert record.poc_text == "# Version: 2.0\n"
        assert record.poc_header == {"version": "2.0"}
        assert extract_version_from_poc(record) == VersionConstraint.exact(Version.parse("2.0"))
        assert poc_reads == [os.path.join(tmp_path, "exploits", "2.txt")]

    @pytest.mark.parametrize(
        "text",
        [
            "# Exploit Title: x\n# Version: 1.2\nversion 1.2 is affected\n",
            "# Exploit Title: x\n# Tested on: Linux\n",
            "Tested on ver\u017fion 4.2\n",
            "",
        ],
    )
    def test_record_read_at_first_use_equals_one_built_from_its_head(self, tmp_path, text):
        title = "WordPress Plugin Sample 1.0 - SQL Injection"
        loaded = load_one(
            tmp_path, text, description=title, author="test-author", date="2017-06-01"
        ).records[1]
        kept = text if not text.isascii() or "version" in text.lower() else ""
        built = make_record(edb_id=1, title=title, poc_text=kept, header=reference_parse_poc_header(text))
        assert repr(loaded) == repr(built)
        assert loaded == built and built == loaded
        assert [loaded.poc_text, loaded.poc_header] == [kept, reference_parse_poc_header(text)]

    @pytest.mark.parametrize("change", ["deleted", "directory"])
    def test_poc_gone_after_load_reads_as_empty_and_logs(self, tmp_path, caplog, change):
        corpus = load_one(tmp_path, "# Version: 1.0\n")
        poc = tmp_path / "exploits" / "1.txt"
        poc.unlink()
        if change == "directory":
            poc.mkdir()
        with caplog.at_level("WARNING", logger="vulnwp.corpus"):
            record = corpus.records[1]
            assert record.poc_header == {}
            assert record.poc_text == ""
        (message,) = [r.getMessage() for r in caplog.records]
        assert message == read_as_empty(poc)

    def test_unreadable_poc_raises_at_first_use(self, tmp_path, monkeypatch):
        corpus = load_one(tmp_path, "# Version: 1.0\n")
        refuse_reading(monkeypatch, os.path.join(tmp_path, "exploits", "1.txt"))
        record = corpus.records[1]
        for _ in range(2):
            with pytest.raises(PermissionError):
                record.poc_header
        monkeypatch.undo()
        assert record.poc_header == {"version": "1.0"}

    @pytest.mark.parametrize("kind", ["dangling", "loop"])
    def test_poc_link_that_leads_nowhere_warns_at_first_use(self, tmp_path, caplog, poc_reads,
                                                            kind):
        link = tmp_path / "exploits" / "1.txt"
        link.parent.mkdir()
        link.symlink_to(tmp_path / "gone.txt" if kind == "dangling" else link)
        corpus = load_one(tmp_path)
        assert (caplog.records, poc_reads) == ([], [])
        assert (corpus.records[1].poc_text, corpus.records[1].poc_header) == ("", {})
        assert [r.getMessage() for r in caplog.records] == [read_as_empty(link)]
        assert poc_reads == [str(link)]

    def test_threads_reaching_unread_records_at_once_see_the_same_values(self, tmp_path):
        texts = {edb_id: f"# Version: {edb_id}.0\nversion {edb_id}.0 is affected\n"
                 for edb_id in range(1, 41)}
        for edb_id, text in texts.items():
            write_poc(tmp_path, edb_id, text)
        index = write_index(tmp_path / "files_exploits.csv", [row(i) for i in texts])
        corpus = load_corpus(index, tmp_path)
        seen: list[tuple[int, str, dict]] = []
        lock = threading.Lock()

        def read_all(text_first: bool):
            for record in corpus:
                if text_first:
                    value = (record.edb_id, record.poc_text, record.poc_header)
                else:
                    header = record.poc_header
                    value = (record.edb_id, record.poc_text, header)
                with lock:
                    seen.append(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read_all, args=(n % 2 == 0,)) for n in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 8 * len(texts)
        for edb_id, poc_text, header in seen:
            assert poc_text == texts[edb_id]
            assert header == {"version": f"{edb_id}.0"}

    def test_unknown_attribute_is_an_attribute_error(self, tmp_path, poc_reads):
        record = load_one(tmp_path, "# Version: 1.0\n").records[1]
        with pytest.raises(AttributeError, match="'ExploitRecord' object has no attribute 'poc'"):
            record.poc
        assert not hasattr(record, "_poc_header")
        assert poc_reads == []


class TestLoadedRecordsMatchConstructedOnes:
    """load_corpus builds records without the constructor; each must equal,
    and repr as, the record the constructor builds from the same values,
    field by field, whether it is compared before or after its PoC is read."""

    TEXTS = {
        1: "# Exploit Title: x\n# Version: 1.2\nversion 1.2 is affected\n",  # head kept
        2: "# Exploit Title: x\n# Tested on: Linux\n",  # head dropped
        3: None,  # no PoC file
        4: "Tested on verſion 4.2\n",  # non-ASCII head kept
    }

    def load(self, root: Path):
        for edb_id, text in self.TEXTS.items():
            if text is not None:
                write_poc(root, edb_id, text)
        (root / "apps").mkdir()
        (root / "apps" / "4.zip").write_bytes(b"PK")
        rows = [row(edb_id, codes="CVE-2019-9978" if edb_id % 2 else "") for edb_id in self.TEXTS]
        return load_corpus(write_index(root / "files_exploits.csv", rows), root)

    def constructed(self, root: Path, edb_id: int) -> ExploitRecord:
        text = self.TEXTS[edb_id] or ""
        return ExploitRecord(
            edb_id=edb_id,
            title=f"WordPress Plugin Sample {edb_id} 1.0 - SQL Injection",
            author="someone",
            vuln_type="webapps",
            published=date(2018, 3, 5),
            platform="php",
            cve_ids=("CVE-2019-9978",) if edb_id % 2 else (),
            poc_text=text if not text.isascii() or "version" in text.lower() else "",
            poc_header=reference_parse_poc_header(text),
            app_archive=root / "apps" / "4.zip" if edb_id == 4 else None,
        )

    @pytest.mark.parametrize("first", ["compare", "fields"])
    def test_each_record_matches_before_and_after_its_poc_is_read(
        self, tmp_path, caplog, poc_reads, first
    ):
        corpus = self.load(tmp_path)
        assert poc_reads == []
        for edb_id, loaded in corpus.records.items():
            built = self.constructed(tmp_path, edb_id)
            for _ in range(2):
                if first == "compare":
                    assert loaded == built and built == loaded
                    assert repr(loaded) == repr(built)
                for entry in dataclasses.fields(ExploitRecord):
                    assert getattr(loaded, entry.name) == getattr(built, entry.name), entry.name
                    assert type(getattr(loaded, entry.name)) is type(getattr(built, entry.name))
                assert loaded == built and built == loaded
                assert repr(loaded) == repr(built)
        paths = [os.path.join(tmp_path, "exploits", f"{i}.txt") for i in self.TEXTS]
        assert poc_reads == paths
        assert [r.getMessage() for r in caplog.records] == [read_as_empty(paths[2], 3)]


class TestPocCheckAtFirstRead:
    """Loading checks no PoC path; the read at first use is the one check.
    It must find a PoC exactly where Path.is_file() does, read the path the
    file column names, and warn only when it finds none."""

    def make(self, root: Path, case: str, monkeypatch) -> tuple[str, bool]:
        """Lay out PoC 1 for case under root; its file column, and whether
        that names a regular file."""
        folder = root / "exploits"
        folder.mkdir()
        poc = folder / "1.txt"
        other = root / "elsewhere" / "1.txt"
        other.parent.mkdir()
        other.write_text("# Version: 1.0\n")
        if case == "link":
            poc.symlink_to(other)
        elif case == "dangling link":
            poc.symlink_to(root / "gone.txt")
        elif case == "link loop":
            poc.symlink_to(poc)
        elif case == "directory":
            poc.mkdir()
        elif case == "fifo":
            os.mkfifo(poc)
        else:
            poc.write_text("# Version: 1.0\n")
        if case == "folder with x but not r":
            # A user other than root cannot list it; root can, so the
            # refusal is made here as well.
            folder.chmod(0o100)
            refused = str(folder)
            monkeypatch.setattr(os, "scandir", refuse_listing(os.scandir, lambda p: p == refused))
        files = {
            "trailing /": "exploits/1.txt/",
            "..": "exploits/../exploits/1.txt",
            ".. through a missing folder": "exploits/missing/../1.txt",
            "absolute": str(other),
            "other case": "exploits/1.TXT",
        }
        present = case in ("link", "regular", "folder with x but not r", "trailing /", "..",
                           "absolute")
        return files.get(case, "exploits/1.txt"), present

    @pytest.mark.parametrize(
        "case",
        ["regular", "link", "dangling link", "link loop", "directory",
         pytest.param("fifo", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                                       reason="needs named pipes")),
         "folder with x but not r", "trailing /", "..", ".. through a missing folder",
         "absolute", "other case"],
    )
    def test_first_read_agrees_with_path_is_file(self, tmp_path, case, caplog, poc_reads,
                                                 monkeypatch):
        rel_file, present = self.make(tmp_path, case, monkeypatch)
        path = os.path.join(tmp_path, rel_file)
        try:
            assert Path(path).is_file() is present
            index = write_index(tmp_path / "files_exploits.csv", [row(1, file=rel_file)])
            record = load_corpus(index, tmp_path).records[1]
            assert (caplog.records, poc_reads) == ([], [])
            header = record.poc_header
        finally:
            (tmp_path / "exploits").chmod(0o700)
        logged = [r.getMessage() for r in caplog.records]
        assert poc_reads == [path]
        if present:
            assert (header, logged) == ({"version": "1.0"}, [])
        else:
            assert (header, logged) == ({}, [read_as_empty(path)])

    def test_load_touches_only_the_index_and_apps(self, tmp_path, monkeypatch):
        for edb_id in (1, 2, 3):
            write_poc(tmp_path, edb_id, f"# Version: {edb_id}.0\n")
        (tmp_path / "exploits" / "4.txt").mkdir()
        (tmp_path / "3.txt").write_text("# Version: 3.0\n")
        (tmp_path / "apps").mkdir()
        (tmp_path / "apps" / "2.zip").write_bytes(b"PK")
        rows = [row(i) for i in (1, 2, 3, 4, 5)]
        rows += [row(6, file="3.txt"), row(7, file="exploits/2.txt"),
                 row(8, file="missing/8.txt")]
        index = write_index(tmp_path / "files_exploits.csv", rows)
        touched: list[tuple[str, str]] = []

        def spy(name, call):
            def spying(path, *args, **kwargs):
                if not isinstance(path, int):
                    touched.append((name, os.fspath(path)))
                return call(path, *args, **kwargs)
            return spying

        with monkeypatch.context() as patched:
            for module, name in [(os, "scandir"), (os, "listdir"), (os, "stat"), (os, "lstat"),
                                 (os, "open"), (io, "open")]:
                patched.setattr(module, name, spy(f"{module.__name__}.{name}",
                                                  getattr(module, name)))
            patched.setattr("builtins.open", io.open)
            corpus = load_corpus(index, tmp_path)
            assert {path for _, path in touched} == {str(index), str(tmp_path / "apps")}
            # The spies do see a PoC read.
            touched.clear()
            assert corpus.records[1].poc_header == {"version": "1.0"}
            assert touched == [("os.open", os.path.join(tmp_path, "exploits", "1.txt"))]
        assert [r for r in corpus.records.values() if r.app_archive] == [corpus.records[2]]
        assert [edb_id for edb_id, r in corpus.records.items() if r.poc_header] == [1, 2, 3, 6, 7]


def refuse_listing(scandir, refused):
    """os.scandir, except that it refuses to list a folder whose normalised
    path refused(path) is true for, as it refuses a user who lacks read
    permission on it."""

    def refusing_scandir(path="."):
        if refused(os.path.normpath(os.fspath(path))):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    return refusing_scandir


def test_loaded_records_share_attribute_names(tmp_path):
    """Each loaded record's dict shares its table of attribute names with the
    other records, before and after its PoC is read, so it is smaller than a
    copy of itself. Run in a fresh interpreter that builds and drops one
    record with the constructor first, whose attribute order differs from
    the loader's."""
    TestLoadedRecordsMatchConstructedOnes().load(tmp_path)
    script = (
        "import logging, sys\n"
        "from datetime import date\n"
        "from vulnwp.corpus import ExploitRecord, load_corpus\n"
        "logging.disable()\n"
        "ExploitRecord(0, '', '', '', date(2000, 1, 1), '', (), '', {})\n"
        "records = list(load_corpus(sys.argv[1], sys.argv[2]))\n"
        "def unshared():\n"
        "    return [r.edb_id for r in records\n"
        "            if not sys.getsizeof(vars(r)) < sys.getsizeof(dict(vars(r)))]\n"
        "before = unshared()\n"
        "for record in records:\n"
        "    record.poc_text\n"
        "print(len(records), before, unshared())\n"
    )
    source = os.path.dirname(os.path.dirname(corpus_module.__file__))
    environment = dict(os.environ, PYTHONPATH=source)
    index = tmp_path / "files_exploits.csv"
    result = subprocess.run([sys.executable, "-c", script, str(index), str(tmp_path)],
                            env=environment, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "4 [] []\n"


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                    reason="attribute storage as CPython 3.11 and later lay it out")
def test_loaded_records_keep_compact_attributes_once_filled(tmp_path):
    """Filling a loaded record's PoC fields allocates nothing per record: its
    attributes stay in the compact storage that records of the class share
    rather than moving into a dict of its own. Run in a fresh interpreter, so
    that loaded records are among the first the class sees."""
    write_poc(tmp_path, 1, "# Version: 1.0\n")
    rows = [row(i, file="exploits/1.txt") for i in range(1, 2001)]
    index = write_index(tmp_path / "files_exploits.csv", rows)
    script = (
        "import sys, tracemalloc\n"
        "from vulnwp.corpus import load_corpus\n"
        "records = list(load_corpus(sys.argv[1], sys.argv[2]))\n"
        "header = {}\n"
        "tracemalloc.start()\n"
        "for record in records:\n"
        "    object.__setattr__(record, 'poc_header', header)\n"
        "    object.__setattr__(record, 'poc_text', '')\n"
        "print(tracemalloc.get_traced_memory()[0] / len(records))\n"
    )
    source = os.path.dirname(os.path.dirname(corpus_module.__file__))
    environment = dict(os.environ, PYTHONPATH=source)
    result = subprocess.run([sys.executable, "-c", script, str(index), str(tmp_path)],
                            env=environment, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 16, f"{result.stdout.strip()} bytes per filled record"
