"""Offline batch benchmark for vulnwp.

    python3 perfbench/run.py --workload core-heavy --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. It generates the workload's corpus and
fixture tree from the seed (perfbench/generate.py, in a child process),
then makes the same public calls `vulnwp batch` and `vulnwp stats` make:
`load_corpus`, client construction, `run_batch` at parallelism 1,
`write_outcomes`, `read_outcomes`, `summarize` and `render_text`. Every
outcome is checked against the generator's expected outcome. Timings are
in reference seconds (perfbench/refclock.py): wall time corrected for the
machine's own speed, which other tenants' load changes.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics from a
traced pass over the whole corpus, each chunk of it paired with an
untraced run so that the tracing overhead can be reported. Spans are
written to .bench_work/traces/. Generated trees live under .bench_work/
and are removed when the run ends. perfbench/README.md defines every
metric.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
WORK_ROOT = CHECKOUT / ".bench_work"

# Timings are in reference seconds (refclock.py). The repeated set-up and
# stats measurements are spread over the run, so every metric samples the
# same stretch of machine time.
SETUP_REPS = 9
STATS_REPS = 25
# Records a --trace 0 run covers at least.
MIN_RECORDS = 1000
# Records per run_batch call. Each call gets fresh output and work
# directories, kept until the run ends: deleting them between calls adds
# kernel work to the calls that follow.
CHUNK = {"core-heavy": 100, "payload-heavy": 20, "triage": 2000}
MIB = 1024 * 1024


def _import_program():
    """Import vulnwp from this checkout's src/, and from nowhere else."""
    package = SRC / "vulnwp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a vulnwp checkout")
    sys.path.insert(0, str(SRC))
    import vulnwp

    if Path(vulnwp.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported vulnwp from {vulnwp.__file__}, not {package}")
    return vulnwp


vulnwp = _import_program()
sys.path.insert(0, str(BENCH_DIR))

import vulnwp.corpus  # noqa: E402
import vulnwp.pipeline  # noqa: E402
import vulnwp.reporting  # noqa: E402
import vulnwp.resolvers  # noqa: E402
from vulnwp.corpus import Corpus  # noqa: E402
from vulnwp.pipeline import GenerationOutcome, PipelineServices  # noqa: E402
from vulnwp.resolvers import (  # noqa: E402
    DiskSvnMirror,
    DockerHubTagIndex,
    FixtureLinkDownloader,
    FixtureTagIndex,
    SourceClients,
)
from vulnwp.titles import ExploitCategory  # noqa: E402
from vulnwp.versions import FixtureCpeDictionary, NvdCpeDictionary  # noqa: E402

from fakes import (  # noqa: E402
    CountingCpeDictionary,
    CountingLinkDownloader,
    CountingSvnMirror,
    CountingTagIndex,
    Counters,
    FakeHubSession,
    FakeNvdSession,
)
from generate import WORKLOADS  # noqa: E402
from refclock import ReferenceClock  # noqa: E402
from tracing import PROGRAM_CALLS, Tracer  # noqa: E402

# Functions the benchmark itself calls, traced at the module it calls them from.
BENCH_CALLS = (
    ("vulnwp.corpus", "load_corpus"),
    ("vulnwp.reporting", "run_batch"),
    ("vulnwp.reporting", "write_outcomes"),
    ("vulnwp.reporting", "read_outcomes"),
    ("vulnwp.reporting", "summarize"),
)


@dataclass
class Raised:
    """Stands in for the outcome of a `generate` call that raised."""

    edb_id: int
    error: str


@dataclass
class Pass:
    """What one or more passes of run_batch calls measured."""

    records: int = 0
    wrong: int = 0
    rates: list[float] = field(default_factory=list)  # records / reference time, per run_batch call
    wall_rates: list[float] = field(default_factory=list)  # records / wall time, per run_batch call
    medians: list[float] = field(default_factory=list)  # median generate time, per run_batch call
    durations: list[float] = field(default_factory=list)  # per generate call
    first_pass: list = field(default_factory=list)
    out_bytes: int = 0
    work_bytes: int = 0
    files_written: int = 0
    wall_seconds: float = 0.0  # wall seconds in run_batch

    @property
    def records_per_s(self) -> float:
        """Median over the run_batch calls; a call that a stall of the machine hit counts once."""
        return statistics.median(self.rates)

    def record_ms(self) -> tuple[float, float]:
        """record_p50_ms and record_p99_ms."""
        return (statistics.fmean(self.medians) * 1000,
                _quantile([d * 1000 for d in self.durations], 0.99))


def _tree_bytes(path: Path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.stat(os.path.join(root, name)).st_size for name in files)
    return total


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: for q=0.99 over 1,000 values, ten lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _outcome_view(outcome) -> tuple:
    if not isinstance(outcome, GenerationOutcome):
        return ("raised", outcome.error)
    files = sorted(f.path for f in outcome.manifest.files) if outcome.manifest else None
    return (
        outcome.status.value,
        outcome.reason.value if outcome.reason else None,
        outcome.image,
        outcome.sources[0] if outcome.sources else None,
        files,
    )


def _expected_view(expected: dict) -> tuple:
    return (expected["status"], expected["reason"], expected["image"], expected["source"], expected["files"])


class Bench:
    def __init__(self, tree: Path, work: Path, meta: dict) -> None:
        self.tree = tree
        self.work = work
        self.meta = meta
        self.expected = {e["edb_id"]: _expected_view(e) for e in meta["expected"]}
        self.expected_report = (
            len(meta["expected"]),
            sum(1 for e in meta["expected"] if e["status"] == "success"),
            dict(Counter(e["reason"] for e in meta["expected"] if e["reason"])),
            dict(Counter(e["source"] for e in meta["expected"] if e["source"])),
        )
        self.counters = Counters()
        fixtures = tree / "fixtures"
        # The fake servers stand for remote services, so they are built before
        # any timing starts.
        self.hub = FakeHubSession(json.loads((fixtures / "registry_tags.json").read_text()), self.counters)
        self.nvd = FakeNvdSession(json.loads((fixtures / "cpe_dictionary.json").read_text()), self.counters)
        self.corpus: Corpus | None = None
        self.services: PipelineServices | None = None
        self.durations: list[float] = []  # of the generate calls in the current run_batch call
        self.clock = ReferenceClock(work / "probes")
        self.batches = 0

    @contextmanager
    def generate_timer(self):
        """Time each `generate` call that run_batch makes, and keep one that raises from aborting the batch."""
        original = vulnwp.reporting.generate
        durations = self.durations
        clock = time.perf_counter

        def timed_generate(record, services, mode=vulnwp.pipeline.GenerationMode.EMIT_ONLY):
            start = clock()
            try:
                return original(record, services, mode)
            except Exception as exc:  # a defect in the program; counted as a wrong outcome
                return Raised(record.edb_id, f"{type(exc).__name__}: {exc}")
            finally:
                durations.append(clock() - start)

        vulnwp.reporting.generate = timed_generate
        try:
            yield
        finally:
            vulnwp.reporting.generate = original

    def build_clients(self) -> PipelineServices:
        """What `vulnwp batch` builds from --fixtures, with the hub and NVD clients on fake sessions."""
        fixtures = self.tree / "fixtures"
        if self.meta["clients"] == "hub":
            registry = DockerHubTagIndex(session=self.hub)
            cpe = NvdCpeDictionary(session=self.nvd)
        else:
            registry = FixtureTagIndex.from_json(fixtures / "registry_tags.json")
            cpe = FixtureCpeDictionary(fixtures / "cpe_dictionary.json")
        mapping = json.loads((fixtures / "links.json").read_text(encoding="utf-8"))
        svn = DiskSvnMirror(fixtures / "svn" / "plugins", fixtures / "svn" / "themes")
        link = FixtureLinkDownloader({url: fixtures / rel for url, rel in mapping.items()})
        return PipelineServices(
            registry=CountingTagIndex(registry, self.counters),
            sources=SourceClients(
                svn=CountingSvnMirror(svn, self.counters),
                link=CountingLinkDownloader(link, self.counters),
            ),
            out_dir=self.work / "batch" / "out",
            work_dir=self.work / "batch" / "work",
            cpe=CountingCpeDictionary(cpe, self.counters),
        )

    def setup(self):
        """load_corpus plus client construction; returns its Interval."""
        self.corpus = self.services = None
        corpus_dir = self.tree / "corpus"

        def set_up():
            self.corpus = vulnwp.corpus.load_corpus(corpus_dir / "files_exploits.csv", corpus_dir)
            self.services = self.build_clients()

        return self.clock.time(set_up)[1]

    def run_chunk(self, ids: list[int], result: Pass, measure_disk: bool = False) -> list:
        corpus = self.corpus
        chunk = Corpus(
            records={i: corpus.records[i] for i in ids},
            source_path=corpus.source_path,
            snapshot_date=corpus.snapshot_date,
        )
        self.batches += 1
        batch_dir = self.work / "batches" / str(self.batches)
        services = replace(self.services, out_dir=batch_dir / "out", work_dir=batch_dir / "work")
        self.durations.clear()
        outcomes, interval = self.clock.time(vulnwp.reporting.run_batch, chunk, services)
        # Each generate call is scaled by its run_batch call's exchange rate.
        durations = [d * interval.factor for d in self.durations]
        result.wall_seconds += interval.wall
        result.rates.append(len(outcomes) / interval.reference)
        result.wall_rates.append(len(outcomes) / interval.wall)
        result.medians.append(statistics.median(durations))
        result.durations.extend(durations)
        result.records += len(outcomes)
        for outcome in outcomes:
            if _outcome_view(outcome) != self.expected[outcome.edb_id]:
                result.wrong += 1
            elif outcome.manifest is not None:
                result.files_written += len(outcome.manifest.files)
        if measure_disk:
            result.out_bytes += _tree_bytes(services.out_dir)
            result.work_bytes += _tree_bytes(services.work_dir)
        return outcomes

    def chunks(self, workload: str) -> list[list[int]]:
        ids = sorted(self.corpus.records)
        size = CHUNK[workload]
        return [ids[i:i + size] for i in range(0, len(ids), size)]

    def measure(self, workload: str, seconds: float, setup_reps: int, stats_reps: int,
                min_records: int = MIN_RECORDS):
        """Run chunks round the corpus until `seconds` have passed.

        The whole corpus runs at least once and min_records records at
        least. The set-up and stats repetitions are spread evenly over the
        same window, so every metric samples the same stretch of machine
        time. Returns the chunks' Pass, the set-up Intervals and the
        (stats Interval, report ok) pairs.
        """
        setups = [self.setup()]
        chunks = self.chunks(workload)
        result = Pass()
        stats: list[tuple[float, bool]] = []
        outcomes: list = []
        start = time.perf_counter()

        def due(done_reps: int, reps: int) -> bool:
            return time.perf_counter() - start >= seconds * done_reps / reps

        done = 0
        while (done < len(chunks) or result.records < min_records
               or time.perf_counter() - start < seconds):
            batch = self.run_chunk(chunks[done % len(chunks)], result)
            done += 1
            if done <= len(chunks):
                result.first_pass.extend(batch)
            if done == len(chunks):
                outcomes = sorted((o for o in result.first_pass if isinstance(o, GenerationOutcome)),
                                  key=lambda o: o.edb_id)
            if len(setups) < setup_reps and due(len(setups), setup_reps):
                setups.append(self.setup())
            if done >= len(chunks) and len(stats) < stats_reps and due(len(stats), stats_reps):
                stats.append(self.stats(outcomes))
        while len(setups) < setup_reps:
            setups.append(self.setup())
        while len(stats) < stats_reps:
            stats.append(self.stats(outcomes))
        return result, setups, stats

    def stats(self, outcomes: list):
        """write_outcomes + read_outcomes + summarize + render_text; returns (Interval, report ok)."""
        path = self.work / "outcomes.ndjson"

        def stats():
            vulnwp.reporting.write_outcomes(outcomes, path)
            rows = vulnwp.reporting.read_outcomes(path)
            report = vulnwp.reporting.summarize(rows, self.corpus)
            return rows, report, vulnwp.reporting.render_text(report)

        (rows, report, text), interval = self.clock.time(stats)
        seen = (report.total, report.successes, report.by_reason, report.by_source)
        ok = len(rows) == len(outcomes) and seen == self.expected_report and text.startswith("total ")
        return interval, ok

    def traced_run(self, workload: str, seconds: float) -> tuple[dict, int, int, bool, Tracer]:
        """Per-layer metrics from one traced set-up, pass over the corpus and stats.

        Each chunk runs untraced and then traced, back to back, so that the
        tracing overhead compares runs that saw the same machine state.
        After the first pass, further pairs run until `seconds` have passed;
        they add to the overhead ratio only. Returns the metrics, records
        attempted, wrong outcomes, whether the report checked out, and the
        tracer holding the first pass's spans.
        """
        tracer = Tracer()
        targets = [(sys.modules[module], attr) for module, attr in PROGRAM_CALLS + BENCH_CALLS]
        with tracer.patched(targets):
            setup_wall = self.setup().wall
        chunks = self.chunks(workload)
        plain, first, later = Pass(), Pass(), Pass()
        counts: Counter = Counter()
        start = time.perf_counter()
        done = 0
        while done < len(chunks) or time.perf_counter() - start < seconds:
            ids = chunks[done % len(chunks)]
            self.run_chunk(ids, plain)
            if done < len(chunks):
                self.counters.reset()
                with tracer.patched(targets, keep_results=("parse_title",)):
                    first.first_pass.extend(self.run_chunk(ids, first, measure_disk=True))
                counts.update(asdict(self.counters))
            else:
                with Tracer().patched(targets):
                    self.run_chunk(ids, later)
            done += 1
        outcomes = sorted((o for o in first.first_pass if isinstance(o, GenerationOutcome)), key=lambda o: o.edb_id)
        with tracer.patched(targets):
            stats_interval, stats_ok = self.stats(outcomes)

        self_times = tracer.self_times()
        parsed = tracer.results.get("parse_title", [])
        categorized = sum(1 for p in parsed if p.category is not ExploitCategory.UNCATEGORIZED)
        poc_bytes = sum(len(r.poc_text.encode("utf-8")) for r in self.corpus)
        slowdowns = [t / u for t, u in zip(first.rates + later.rates, plain.rates)]
        uncovered = setup_wall + first.wall_seconds + stats_interval.wall - tracer.top_level_time()

        def self_s(*names: str) -> float:
            return sum(self_times.get(name, 0.0) for name in names)

        p50_ms, p99_ms = plain.record_ms()
        metrics = {
            "record_p50_ms": (p50_ms, "ms"),
            "record_p99_ms": (p99_ms, "ms"),
            "corpus.load_s": (self_s("load_corpus"), "s"),
            "corpus.poc_mb": (poc_bytes / MIB, "MiB"),
            "titles.parse_s": (self_s("parse_title"), "s"),
            "titles.calls": (len(parsed), "count"),
            "titles.categorized_ratio": (categorized / len(parsed) if parsed else 0.0, "ratio"),
            "versions.resolve_s": (self_s("resolve_constraint"), "s"),
            "versions.cpe_s": (self_s("resolve_versions_from_cve"), "s"),
            "versions.cpe_lookups": (counts["cpe_lookups"], "count"),
            "pipeline.self_s": (self_s("generate"), "s"),
            "resolvers.image_s": (self_s("find_core_image", "find_latest_image"), "s"),
            "resolvers.tags_listed": (counts["tags_listed"], "count"),
            "resolvers.list_tags_calls": (counts["list_tags_calls"], "count"),
            "resolvers.registry_requests": (counts["registry_requests"], "count"),
            "resolvers.fetch_s": (self_s("fetch_component", "extract_archive"), "s"),
            "resolvers.svn_exports": (counts["svn_exports"], "count"),
            "resolvers.svn_misses": (counts["svn_misses"], "count"),
            "resolvers.link_fetches": (counts["link_fetches"], "count"),
            "resolvers.archive_extracts": (tracer.count("extract_archive"), "count"),
            "resolvers.work_mb": (first.work_bytes / MIB, "MiB"),
            "iac.plan_s": (self_s("build_plan"), "s"),
            "iac.emit_s": (self_s("emit_bundle"), "s"),
            "iac.out_mb": (first.out_bytes / MIB, "MiB"),
            "iac.files_written": (first.files_written, "count"),
            "reporting.batch_self_s": (self_s("run_batch"), "s"),
            "reporting.write_s": (self_s("write_outcomes"), "s"),
            "reporting.read_s": (self_s("read_outcomes"), "s"),
            "reporting.summarize_s": (self_s("summarize"), "s"),
            "http_requests": (counts["registry_requests"] + counts["nvd_requests"], "count"),
            "trace.overhead_ratio": (1.0 - statistics.median(slowdowns), "ratio"),
            "trace.uncovered_s": (uncovered, "s"),
        }
        attempted = plain.records + first.records + later.records
        failed = plain.wrong + first.wrong + later.wrong
        return metrics, attempted, failed, stats_ok, tracer


def _generate_tree(workload: str, seed: int, tree: Path, records: int | None = None) -> dict:
    command = [sys.executable, str(BENCH_DIR / "generate.py"), "--workload", workload, "--seed", str(seed),
               "--out", str(tree)]
    if records is not None:
        command += ["--records", str(records)]
    subprocess.run(command, check=True, stdout=sys.stderr)
    return json.loads((tree / "expected.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: bool,
        records: int | None = None, min_records: int = MIN_RECORDS) -> dict:
    """One benchmark run; records and min_records shrink it for the tests."""
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        meta = _generate_tree(workload, seed, work / "tree", records)
        bench = Bench(work / "tree", work, meta)
        if trace:
            with bench.generate_timer():
                metrics, attempted, failed, stats_ok, tracer = bench.traced_run(workload, seconds)
            tracer.write(WORK_ROOT / "traces" / f"{workload}-seed{seed}.jsonl")
        else:
            with bench.generate_timer():
                untraced, setups, stats_runs = bench.measure(workload, seconds, SETUP_REPS, STATS_REPS, min_records)
            attempted, failed = untraced.records, untraced.wrong
            stats_ok = all(ok for _, ok in stats_runs)
            wall = {
                "setup_s": statistics.median(s.wall for s in setups),
                "records_per_s": statistics.median(untraced.wall_rates),
                "stats_s": statistics.median(s.wall for s, _ in stats_runs),
            }
            # The wall-clock figures and the clock's totals, for comparison;
            # the metrics are in reference seconds.
            print("wall clock:", json.dumps(wall), "clock:", json.dumps(bench.clock.summary()), file=sys.stderr)
            metrics = {
                "setup_s": (statistics.median(s.reference for s in setups), "s"),
                "records_per_s": (untraced.records_per_s, "records/s"),
                "stats_s": (statistics.median(s.reference for s, _ in stats_runs), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0 and stats_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Offline batch benchmark for vulnwp.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the generated tree is removed and the generator is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Same logging setup as the vulnwp command line.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
