"""Spans recorded from outside the program, around calls into each vulnwp module.

A span is [name, parent index, edb_id, start, end]. Spans stay in memory
while the traced pass runs and are written out as JSON lines at the end.
Patching replaces a function at the name its caller looks it up by (for
example `vulnwp.pipeline.find_core_image`), so the program itself is not
changed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) pairs patched for the traced pass: the functions that
# `generate` and `run_batch` call, under the names they call them by.
PROGRAM_CALLS = (
    ("vulnwp.pipeline", "parse_title"),
    ("vulnwp.pipeline", "resolve_constraint"),
    ("vulnwp.pipeline", "resolve_versions_from_cve"),
    ("vulnwp.pipeline", "find_core_image"),
    ("vulnwp.pipeline", "find_latest_image"),
    ("vulnwp.pipeline", "fetch_component"),
    ("vulnwp.pipeline", "build_plan"),
    ("vulnwp.pipeline", "emit_bundle"),
    ("vulnwp.reporting", "generate"),
    # Called inside fetch_component and the link downloader; counts archive extractions.
    ("vulnwp.resolvers", "extract_archive"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.results: dict[str, list] = {}  # span name -> return values, when kept
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep_results: bool = False):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if name == "generate":
                edb_id = args[0].edb_id
            else:
                edb_id = spans[parent][2] if parent is not None else None
            span = [name, parent, edb_id, clock(), 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if keep_results:
                self.results.setdefault(name, []).append(result)
            return result

        return traced

    @contextmanager
    def patched(self, targets, keep_results=()):
        """Replace each (module object, attribute) with a traced wrapper, then restore."""
        saved = []
        try:
            for module, attr in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(attr, original, keep_results=attr in keep_results))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's durations."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, _, _, start, end) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def top_level_time(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, parent, edb_id, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "parent": parent, "edb_id": edb_id,
                                         "start": start, "end": end}) + "\n")
