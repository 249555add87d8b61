"""The benchmark's tracer and suite checks find qaclab's functions by name.

``bench/spans.py`` wraps every function named in ``LAYERS``, and
``bench/suites.py`` records every function named in ``RECORDED``.  A
rename in ``src/`` would make either lookup fail only when the benchmark
runs, so this test resolves every name.  The bench modules are imported,
never modified.
"""
import importlib
import inspect
import sys
from pathlib import Path

from qaclab import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_bench_names_resolve_to_qaclab_functions():
    spans, suites = bench_module("spans"), bench_module("suites")
    names = [f"{mod}.{fn}" for mod, fns in spans.LAYERS.items() for fn in fns]
    names += [name for recorded in suites.RECORDED.values() for name in recorded]
    missing = []
    for name in names:
        mod, fn = name.split(".")
        target = getattr(importlib.import_module(f"qaclab.{mod}"), fn, None)
        if not inspect.isfunction(target):
            missing.append(name)
    assert not missing
    assert set(suites.RECORDED) == set(harness.SUITES)
