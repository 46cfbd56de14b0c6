"""Names that users and the benchmark tracer look up must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

import netmoment as nm

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_all_names_resolve():
    missing = [name for name in nm.__all__ if not hasattr(nm, name)]
    assert missing == []


def test_tracer_targets_exist():
    # the tracer wraps these by (module, attribute); it imports only the stdlib
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        (module, attr)
        for sites, _ in tracer.TARGETS.values()
        for module, attr in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("netmoment.graph").Graph.__init__)
