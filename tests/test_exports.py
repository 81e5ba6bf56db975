"""Every name a package exports in ``__all__`` must resolve.

Guards against an export left pointing at deleted code: ``from repro.x
import *`` would fail on it while every explicit import still passes.
The names, modules and methods of the deleted multi-worker training pool
must stay gone.
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


#: what multi-worker training exported; training is serial now, and a name
#: resurfacing here would be a second training path coming back
DELETED_NAMES = [
    ("repro.engine", "run_hogwild"),
    ("repro.engine", "plan_shards"),
    ("repro.engine", "HogwildRun"),
    ("repro.engine", "WorkerReport"),
    ("repro.embedding", "SharedSkipGramModel"),
    ("repro.embedding", "SharedModelHandle"),
    ("repro.robustness", "CheckpointStore"),
    ("repro.robustness", "ShardCheckpoint"),
    ("repro.robustness", "SupervisorPolicy"),
    ("repro.exceptions", "HogwildDegradedError"),
]

DELETED_MODULES = [
    "repro.engine.hogwild",
    "repro.embedding.shared_model",
    "repro.robustness.checkpoint",
    "repro.analysis.rules.shm",
]


@pytest.mark.parametrize(("package", "name"), DELETED_NAMES, ids=lambda v: v)
def test_deleted_training_pool_names_stay_deleted(package, name):
    module = importlib.import_module(package)
    assert name not in getattr(module, "__all__", ())
    assert not hasattr(module, name)


@pytest.mark.parametrize("name", DELETED_MODULES)
def test_deleted_training_pool_modules_stay_deleted(name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(name)


DELETED_METHODS = [
    ("repro.privacy", "RdpAccountant", "step_shards"),
    ("repro.engine", "IterateAveragingHook", "pooled"),
    ("repro.engine", "StepProfile", "merge"),
    ("repro.embedding", "SkipGramModel", "release"),
]


@pytest.mark.parametrize(("package", "owner", "name"), DELETED_METHODS, ids=lambda v: v)
def test_deleted_training_pool_methods_stay_deleted(package, owner, name):
    assert not hasattr(getattr(importlib.import_module(package), owner), name)
