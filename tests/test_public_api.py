"""Every name a vulnwp module exports must exist, so a deletion cannot
leave a dangling export behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import vulnwp

MODULES = sorted(info.name for info in pkgutil.iter_modules(vulnwp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_defined(name):
    module = importlib.import_module(f"vulnwp.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_only_existing_names():
    assert len(set(vulnwp.__all__)) == len(vulnwp.__all__), "duplicate names in __all__"
    assert [n for n in vulnwp.__all__ if not hasattr(vulnwp, n)] == []
