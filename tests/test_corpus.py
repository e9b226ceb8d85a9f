from __future__ import annotations

import csv
from datetime import date
from pathlib import Path

import pytest

from vulnwp.corpus import load_corpus, parse_poc_header
from vulnwp.errors import DuplicateIdError, IndexUnreadableError

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

    def test_utf8_bom_index_loads(self, tmp_path):
        path = tmp_path / "files_exploits.csv"
        body = ",".join(INDEX_COLUMNS) + "\n1,exploits/1.txt,Title,2018-03-05,a,webapps,php,\n"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        corpus = load_corpus(path, tmp_path)
        assert set(corpus.records) == {1}


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
