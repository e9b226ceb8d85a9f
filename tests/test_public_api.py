"""Every name a vulnwp module exports must exist, so a deletion cannot
leave a dangling export behind; nor can a rename leave one of the names
the benchmark's tracer patches behind."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import vulnwp

MODULES = sorted(info.name for info in pkgutil.iter_modules(vulnwp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_defined(name):
    module = importlib.import_module(f"vulnwp.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_tracer_patches_exists():
    # Loaded by path, so the benchmark's runner and its imports stay out.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr in tracing.PROGRAM_CALLS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.PROGRAM_CALLS and missing == []
