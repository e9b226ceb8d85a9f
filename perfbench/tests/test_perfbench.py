"""Tests of the benchmark itself, on small instances of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import generate  # noqa: E402
import run  # noqa: E402

CHECKOUT = BENCH_DIR.parent
SMALL = 120


def _benchmark_json() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tree_files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _generate(workload: str, seed: int, out: Path, hash_seed: str) -> None:
    # Separate processes with different string hash seeds, as separate runs have.
    command = [sys.executable, str(BENCH_DIR / "generate.py"), "--workload", workload, "--seed", str(seed),
               "--out", str(out), "--records", str(SMALL)]
    subprocess.run(command, check=True, env={**os.environ, "PYTHONHASHSEED": hash_seed}, timeout=120)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_gives_byte_identical_trees(tmp_path, workload):
    _generate(workload, 7, tmp_path / "a", "1")
    _generate(workload, 7, tmp_path / "b", "2")
    _generate(workload, 8, tmp_path / "c", "1")
    first = _tree_files(tmp_path / "a")
    assert first == _tree_files(tmp_path / "b")
    assert first != _tree_files(tmp_path / "c")


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_small_instance_has_no_wrong_outcome(workload):
    result = run.run(workload, 3, 0, False, records=SMALL, min_records=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= SMALL
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()["end_to_end"]}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = run.run(workload, 5, 0, True, records=SMALL, min_records=0)
    second = run.run(workload, 5, 0, True, records=SMALL, min_records=0)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in _benchmark_json()["per_layer"]}
    counts = {name for name, metric in first["metrics"].items() if metric["unit"] == "count"}
    assert {"http_requests", "versions.cpe_lookups", "iac.files_written", "resolvers.svn_exports"} <= counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_core_heavy_lists_every_hub_tag_per_call():
    metrics = run.run("core-heavy", 9, 0, True, records=SMALL, min_records=0)["metrics"]
    calls = metrics["resolvers.list_tags_calls"]["value"]
    assert calls > 0
    assert metrics["resolvers.tags_listed"]["value"] == calls * generate.HUB_TAG_COUNT
    assert metrics["resolvers.registry_requests"]["value"] == calls * generate.HUB_TAG_COUNT // 100


def test_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"] + _benchmark_json()["per_layer"]}
    for trace in (False, True):
        result = run.run("triage", 4, 0, trace, records=SMALL, min_records=0)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == declared[name], name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = [sys.executable, "perfbench/run.py", "--workload", "triage", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
