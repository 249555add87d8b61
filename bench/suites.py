"""What each verification suite must have done, checked from its calls.

A suite operation returns only the suite's own verdict (instances and
violations), which says nothing when a suite skips work.  In the checked
round the benchmark therefore records every call the suite makes to the
functions it verifies (``recording``), and ``check`` requires:

* the number of calls the suite's loop must make, worked out from the
  recorded inputs (every subset of the variables for ``sv-vs-rank``,
  every bipartition for ``simplify-lemma``, fifty partners for
  ``no-zero-divisors``, ...), so a suite that stops early fails;
* each recorded result to agree with ``reference``, computed apart from
  the program on the recorded inputs.
"""
from __future__ import annotations

import importlib
from contextlib import contextmanager

import numpy as np

import reference as ref
from qaclab import harness

#: The functions recorded for each suite, as "module.function".
RECORDED = {
    "irreducibility-family": ("multilinear.indecomposable_at_every_split",),
    "sv-vs-rank": ("multilinear.variable_partition", "multilinear.sv_partition_test"),
    "entanglement-lemma": ("circuit.classify_simplification", "qstate.is_S_separable"),
    "simplify-lemma": ("circuit.classify_simplification", "qstate.separates_at"),
    "no-zero-divisors": ("circuit.classify_simplification",),
    "kill-parity": ("parity.kill_parity_state",),
    "depth1-refute": ("parity.refute_depth1",),
    "depth-reduce": ("circuit.depth_reduce",),
    "topology-6qubit": ("circuit.classify_simplification", "qstate.separates_at"),
    "tight-parity3": ("circuit.simulate",),
}

#: Partners no-zero-divisors tries against the certified side.
NZD_PARTNERS = 50


def _recorder(fn, log):
    def wrapper(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            log.append((args, exc))
            raise
        log.append((args, out))
        return out
    return wrapper


@contextmanager
def recording(names):
    """Record (positional arguments, result or exception) of every call
    the suites make to the named functions, by name."""
    calls = {name: [] for name in names}
    undo = []
    for name in names:
        mod_name, fn_name = name.split(".")
        # harness calls most functions through its own binding, the
        # polynomial ones through their module (``ml.<name>``)
        holder = (harness if hasattr(harness, fn_name)
                  else importlib.import_module(f"qaclab.{mod_name}"))
        fn = getattr(holder, fn_name)
        undo.append((holder, fn_name, fn))
        setattr(holder, fn_name, _recorder(fn, calls[name]))
    try:
        yield calls
    finally:
        for holder, fn_name, fn in reversed(undo):
            setattr(holder, fn_name, fn)


# ---- per-suite checks ------------------------------------------------------------
# Each takes the recorded calls (and the instance index) and returns None
# or a one-line reason.

def _count(calls, name, want):
    got = len(calls[name])
    return None if got == want else f"{got} {name} calls, expected {want}"


def _raised(calls, name):
    for args, out in calls[name]:
        if isinstance(out, Exception):
            return f"{name} raised {type(out).__name__}: {out}"
    return None


def _classifications(calls):
    for (s, psi, *_), outcome in calls["circuit.classify_simplification"]:
        bad = ref.check_classification(outcome, psi.amps, psi.r, frozenset(s))
        if bad:
            return bad
    return None


def _cuts(calls):
    for (psi, a, b, *_), (flag, _) in calls["qstate.separates_at"]:
        bad = ref.check_cut(flag, psi.amps, psi.r, a, b)
        if bad:
            return bad
    return None


def _irreducibility(calls, k):
    name = "multilinear.indecomposable_at_every_split"
    bad = _count(calls, name, 1) or _raised(calls, name)
    if bad:
        return bad
    (p, *_), out = calls[name][0]
    resid = ref.min_split_residual(p.terms)
    if not (out is True and resid > ref.ENTANGLED_RATIO):
        return f"indecomposable_at_every_split said {out}; reference split residual {resid:g}"
    return None


def _sv_vs_rank(calls, k):
    part, test = "multilinear.variable_partition", "multilinear.sv_partition_test"
    bad = (_count(calls, part, 1) or _raised(calls, part) or _raised(calls, test))
    if bad:
        return bad
    (f, *_), partition = calls[part][0]
    want = ref.finest_partition(f.terms)
    if {frozenset(c) for c in partition} != want:
        return f"variable_partition {sorted(map(sorted, partition))} differs from the reference"
    subsets = {frozenset(args[2]) for args, _ in calls[test]}
    n_vars = len(f.variables())
    if len(calls[test]) != 1 << n_vars or len(subsets) != 1 << n_vars:
        return (f"{len(calls[test])} sv_partition_test calls on {len(subsets)} "
                f"subsets, expected every one of the {1 << n_vars}")
    for (_, _, subset, *_), out in calls[test]:
        union = all(c <= subset or not (c & subset) for c in want)
        if out != union:
            return f"sv_partition_test({sorted(map(str, subset))}) = {out}, reference {union}"
    return None


def _entanglement(calls, k):
    name = "qstate.is_S_separable"
    bad = (_count(calls, "circuit.classify_simplification", 1) or _raised(calls, name)
           or _classifications(calls))
    if bad:
        return bad
    _, outcome = calls["circuit.classify_simplification"][0]
    bad = _count(calls, name, 1 if outcome.kind == "none" else 0)
    if bad:
        return bad
    for (phi, s, *_), out in calls[name]:
        bad = ref.check_separability(out, phi.amps, phi.r, frozenset(s), product=False)
        if bad:
            return bad
    return None


def _simplify(calls, k):
    bad = _count(calls, "circuit.classify_simplification", 1) or _classifications(calls)
    if bad:
        return bad
    (_, psi, *_), _ = calls["circuit.classify_simplification"][0]
    cuts = {frozenset((frozenset(a), frozenset(b)))
            for (_, a, b, *_), _ in calls["qstate.separates_at"]}
    want = (1 << (psi.r - 1)) - 1
    if len(calls["qstate.separates_at"]) != want or len(cuts) != want:
        return (f"{len(calls['qstate.separates_at'])} separates_at calls on "
                f"{len(cuts)} cuts, expected every one of the {want}")
    return _cuts(calls)


def _no_zero_divisors(calls, k):
    bad = _count(calls, "circuit.classify_simplification", 1 + NZD_PARTNERS)
    if bad:
        return bad
    if not all(out.disappears for _, out in calls["circuit.classify_simplification"]):
        return "a classification did not disappear"
    return _classifications(calls)


def _kill_parity(calls, k):
    name = "parity.kill_parity_state"
    made = [(args, out) for args, out in calls[name] if not isinstance(out, Exception)]
    refused = [args for args, out in calls[name] if isinstance(out, Exception)]
    if sorted(args[1] for args, _ in made) != [0, 1]:
        return f"{len(made)} killer states, expected one per parity"
    # every 50th instance also asks for too many constraints
    if len(refused) != (k % 50 == 0):
        return f"{len(refused)} refused calls, expected {int(k % 50 == 0)}"
    for (units, b, *_), psi in made:
        bad = ref.check_killer(psi.amps, units, b)
        if bad:
            return bad
    return None


def _depth1_refute(calls, k):
    name = "parity.refute_depth1"
    bad = _count(calls, name, 1) or _raised(calls, name)
    if bad:
        return bad
    (circuit, ancilla, *_), cert = calls[name][0]
    m = circuit.n_ancillas
    anc = (ref.as_complex(ancilla.amps) if ancilla is not None
           else ref.basis_amps(m, "0" * m) if m else None)
    return ref.check_certificate(cert, circuit, anc)


def _depth_reduce(calls, k):
    name = "circuit.depth_reduce"
    bad = _count(calls, name, 1) or _raised(calls, name)
    if bad:
        return bad
    (circuit, *_), reduced = calls[name][0]
    return ref.check_reduction(reduced, circuit)


def _topology(calls, k):
    return (_count(calls, "circuit.classify_simplification", 1)
            or _count(calls, "qstate.separates_at", 1)
            or _classifications(calls) or _cuts(calls))


def _tight_parity3(calls, k):
    name = "circuit.simulate"
    bad = _count(calls, name, 1) or _raised(calls, name)
    if bad:
        return bad
    (circuit, initial, *_), out = calls[name][0]
    return ref.check_simulation(out, circuit, ref.as_complex(initial.amps), exact=True)


_CHECKS = {
    "irreducibility-family": _irreducibility,
    "sv-vs-rank": _sv_vs_rank,
    "entanglement-lemma": _entanglement,
    "simplify-lemma": _simplify,
    "no-zero-divisors": _no_zero_divisors,
    "kill-parity": _kill_parity,
    "depth1-refute": _depth1_refute,
    "depth-reduce": _depth_reduce,
    "topology-6qubit": _topology,
    "tight-parity3": _tight_parity3,
}


def check(suite: str, k: int, report, calls) -> str | None:
    """None when instance k's report is clean and its recorded calls are
    the ones the suite must make, with results the reference confirms."""
    if report.instances != 1 or report.violations:
        return f"{report.instances} instances, violations {report.violations}"
    return _CHECKS[suite](calls, k)
