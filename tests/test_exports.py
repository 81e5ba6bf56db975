"""Every name a package exports in ``__all__`` must resolve.

Guards against an export left pointing at deleted code: ``from repro.x
import *`` would fail on it while every explicit import still passes.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    *sorted(f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg),
]


def test_every_subpackage_is_listed():
    assert len(PACKAGES) > 10


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    assert exported, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ has duplicates"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
