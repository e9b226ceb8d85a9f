from __future__ import annotations

import csv
import re
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnwp.corpus import POC_HEAD_LINES, load_corpus, parse_poc_header
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


def load_one(root: Path, text: str | None = None, **overrides):
    """Load a one-row corpus under root; text, when given, is the PoC of id 1."""
    if text is not None:
        write_poc(root, 1, text)
    return load_corpus(write_index(root / "files_exploits.csv", [row(1, **overrides)]), root)


class TestLoadCorpus:
    def test_loads_fixture_corpus_completely(self, e2e_tree):
        corpus = e2e_tree.load()
        assert len(corpus) == 20
        assert corpus.warnings == []
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

    def test_missing_poc_file_warns_but_loads(self, tmp_path):
        index = write_index(tmp_path / "files_exploits.csv", [row(1)])
        corpus = load_corpus(index, tmp_path)
        assert len(corpus) == 1
        assert corpus.records[1].poc_text == ""
        assert len(corpus.warnings) == 1
        assert "1" in corpus.warnings[0]

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

    def test_ancient_date_raises(self, tmp_path):
        index = write_index(tmp_path / "files_exploits.csv", [row(1, date="1970-01-01")])
        with pytest.raises(IndexUnreadableError):
            load_corpus(index, tmp_path)

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

    def test_row_without_the_optional_codes_column_loads(self, tmp_path):
        path = tmp_path / "files_exploits.csv"
        path.write_text(",".join(INDEX_COLUMNS) + "\n1,x.txt,Title,2018-03-05,a,webapps,php\n")
        corpus = load_corpus(path, tmp_path)
        assert corpus.records[1].cve_ids == ()

    def test_poc_path_that_is_a_directory_warns_and_loads(self, tmp_path):
        (tmp_path / "exploits" / "1.txt").mkdir(parents=True)
        corpus = load_one(tmp_path)
        assert corpus.records[1].poc_text == ""
        assert corpus.records[1].poc_header == {}
        assert corpus.warnings == ["1: PoC file exploits/1.txt missing, record loaded without text"]

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
         "A" * 39, "B" * 40, "C" * 41, "https", "x y z "]
    ),
    st.sampled_from([":", ": ", " : ", ":\t", ":\u00a0", ":\u3000", ":\x0b", "://", "::", " "]),
    st.sampled_from(["", "7.1.3", " 1.0 ", "//example.test/a:b", "é", "\u2003x", "<= 2.0\t"]),
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
    @given(_poc_texts)
    def test_parse_poc_header(self, text):
        assert parse_poc_header(text) == reference_parse_poc_header(text)

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
    def test_typical_exploitdb_header(self):
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
        header = parse_poc_header(text)
        assert header["exploit-title"].startswith("WordPress Plugin Quiz Master")
        assert header["version"] == "7.1.3"
        assert header["software-link"].endswith(".zip")
        assert header["tested-on"] == "Ubuntu 16.04"

    def test_header_without_hash_prefix(self):
        text = "Exploit Title: Something\nVersion: 2.4\n"
        header = parse_poc_header(text)
        assert header["exploit-title"] == "Something"
        assert header["version"] == "2.4"

    def test_unrelated_code_lines_are_skipped(self):
        text = (
            "# Version: 7.1.3\n"
            "import requests\n"
            "target = 'http://localhost:8080/wp-login.php'\n"
            "payload = {'log': 'admin', 'pwd': 'x'}\n"
        )
        assert parse_poc_header(text) == {"version": "7.1.3"}

    def test_url_lines_do_not_become_keys(self):
        text = "https://example.test/path\n# Version: 1.0\n"
        header = parse_poc_header(text)
        assert header == {"version": "1.0"}

    def test_first_occurrence_of_key_wins(self):
        text = "# Version: 1.0\n# version: 2.0\n"
        assert parse_poc_header(text)["version"] == "1.0"

    def test_key_normalization_variants_collide(self):
        assert parse_poc_header("# Software Link: a\n") == {"software-link": "a"}
        assert parse_poc_header("#   software   link  : b\n") == {"software-link": "b"}

    def test_scan_stops_after_leading_block(self):
        text = "\n" * 70 + "# Version: 9.9\n"
        assert parse_poc_header(text) == {}

    def test_render_parse_idempotent(self):
        header = {"exploit-title": "Some Title", "version": "1.2", "tested-on": "Debian 10"}
        assert parse_poc_header("\n".join(f"# {k}: {v}" for k, v in header.items())) == header

    def test_empty_text_gives_empty_header(self):
        assert parse_poc_header("") == {}
