"""Per-layer tracing from outside ``src/``.

``Tracer.install`` replaces each listed qaclab function with a wrapper
in every qaclab and benchmark module that binds it, and wraps the
``Exact`` arithmetic operators and ``numpy.linalg.svd`` with counters
(a span per scalar operation would cost more than the operation).
While ``active`` is set, a call records a span (function, start, end,
parent span, operation, round) in flat arrays; nothing is written until
``dump``.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: Functions traced with spans, by qaclab module.
LAYERS = {
    "qstate": ("tensor", "separates_at", "is_S_separable", "ones_projection_norm",
               "remove_ones_component"),
    "circuit": ("apply_1q", "apply_multi", "simulate", "classify_simplification",
                "depth_reduce"),
    "multilinear": ("restrict", "evaluate", "is_justifying",
                    "find_justifying_assignment", "sv_partition_test",
                    "bipartition_rank_oracle", "indecomposable_at_every_split",
                    "decompose"),
    "family": ("build_family_P", "check_family_hypotheses",
               "two_block_zero_assignment"),
    "bridge": ("poly_of_state", "separability_decomposability_check"),
    "parity": ("kill_parity_state", "product_initial", "subset_parity_mass",
               "refute_depth1", "verify_certificate", "parse_certificate"),
    "harness": ("run_suite",),
    "cli": ("main",),
    "circuit_io": ("parse_circuit", "serialize_circuit"),
}

#: Counted, not spanned: Exact operators by counter name.
EXACT_OPS = {
    "__mul__": "exact_mul", "__rmul__": "exact_mul",
    "__add__": "exact_add", "__radd__": "exact_add",
    "__sub__": "exact_add", "__rsub__": "exact_add",
    "__truediv__": "exact_div", "__rtruediv__": "exact_div",
}

SPANNED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.round = -1
        self.counts = Counter()
        self._stack = []
        self._fn = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._round = array("i")
        self._start = array("d")
        self._end = array("d")
        self._undo = []

    # ---- wrappers -------------------------------------------------------

    def _spanned(self, idx: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer._fn)
            tracer._fn.append(idx)
            tracer._parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._op.append(tracer.op)
            tracer._round.append(tracer.round)
            tracer._end.append(0.0)
            tracer._stack.append(sid)
            tracer._start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end[sid] = time.perf_counter()
                tracer._stack.pop()
        return wrapper

    def _exact_counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            if tracer.active:
                tracer.counts[name] += 1
                # an Exact operation with a float operand returns a float
                if isinstance(b, (float, complex)):
                    tracer.counts["demotions"] += 1
            return fn(a, b)
        return wrapper

    def _svd_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts["svd"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ---- install / uninstall ---------------------------------------------

    def _rebind(self, holder, attr, new):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self, extra_modules=()):
        """Patch every binding of the traced names in qaclab's modules and
        in ``extra_modules`` (the benchmark's own)."""
        from qaclab.numerics import Exact
        holders = [m for name, m in sys.modules.items()
                   if name == "qaclab" or name.startswith("qaclab.")]
        holders += list(extra_modules)
        for idx, qualname in enumerate(SPANNED):
            mod, fn_name = qualname.split(".")
            original = getattr(importlib.import_module(f"qaclab.{mod}"), fn_name)
            wrapper = self._spanned(idx, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, attr, wrapper)
        for op_name, counter in EXACT_OPS.items():
            self._rebind(Exact, op_name, self._exact_counter(counter, getattr(Exact, op_name)))
        self._rebind(np.linalg, "svd", self._svd_counter(np.linalg.svd))

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    # ---- results ------------------------------------------------------------

    def spans(self) -> dict:
        return {
            "fn": np.frombuffer(self._fn, dtype=np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "op": np.frombuffer(self._op, dtype=np.int32),
            "round": np.frombuffer(self._round, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def metrics(self, rounds: int) -> dict:
        """Per-round calls and self time of each spanned function (median
        over rounds), and per-round counter values."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        has_parent = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        n_fn = len(SPANNED)
        calls = np.bincount(sp["fn"], minlength=n_fn)
        per_round = np.zeros((rounds, n_fn))
        np.add.at(per_round, (sp["round"], sp["fn"]), self_time)
        self_s = np.median(per_round, axis=0)

        def per(count):
            value = count / rounds
            return int(value) if value == int(value) else value

        out = {
            "numerics.exact_mul.calls": per(self.counts["exact_mul"]),
            "numerics.exact_add.calls": per(self.counts["exact_add"]),
            "numerics.exact_div.calls": per(self.counts["exact_div"]),
            "numerics.demotions": per(self.counts["demotions"]),
            "linalg.svd.calls": per(self.counts["svd"]),
        }
        for i, name in enumerate(SPANNED):
            out[f"{name}.calls"] = per(int(calls[i]))
            out[f"{name}.self_s"] = float(self_s[i])
        return out

    def dump(self, path, op_names):
        np.savez_compressed(path, names=np.array(SPANNED),
                            op_names=np.array(op_names), **self.spans())
