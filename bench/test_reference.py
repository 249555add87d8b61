"""Self-test of the benchmark's output checks.

Runs every operation of every workload once, requires its check to
accept the real output, then requires it to reject deliberately
corrupted copies of that output.

    python3 -m pytest bench/test_reference.py -q
"""
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qaclab.circuit import (  # noqa: E402
    DISAPPEARS,
    NO_SIMPLIFICATION,
    Circuit,
    SimplificationOutcome,
)
from qaclab.numerics import Exact  # noqa: E402
from qaclab.parity import RefutationCertificate  # noqa: E402
from qaclab.qstate import StateVector  # noqa: E402


def _state(psi, amps):
    return StateVector(psi.r, amps, psi.normalized)


def _perturbed(psi):
    """psi with its first nonzero amplitude copied onto the next entry."""
    amps = psi.amps.copy()
    i = np.flatnonzero(ref.as_complex(amps))[0]
    amps[(i + 1) % len(amps)] = amps[(i + 1) % len(amps)] + amps[i]
    return _state(psi, amps)


def wrong_result(args, out):
    """A wrong result in place of a recorded call's, by its type."""
    if isinstance(out, bool):
        return not out
    if isinstance(out, tuple):  # (flag, witness or factors)
        return (not out[0], out[1])
    if isinstance(out, SimplificationOutcome):
        return NO_SIMPLIFICATION if out.disappears else DISAPPEARS
    if isinstance(out, StateVector):
        return _perturbed(out)
    if isinstance(out, RefutationCertificate):
        return replace(out, states=[out.states[0], _perturbed(out.states[1])])
    if isinstance(out, Circuit):  # depth_reduce: hand back the input
        return args[0]
    if isinstance(out, list):  # a variable partition
        first = sorted(out[0])
        return ([out[0] | out[1], *out[2:]] if len(out) > 1
                else [frozenset(first[:1]), frozenset(first[1:])])
    raise AssertionError(f"no wrong result for {type(out).__name__}")


def suite_corruptions(out):
    """A dirty report, a suite that stopped one call early, and a wrong
    result in each recorded function's first call."""
    rep, calls = out
    yield replace(rep, violations=["instance=0 corrupted"]), calls
    yield replace(rep, instances=0), calls
    for name, log in calls.items():
        if log:
            yield rep, {**calls, name: log[:-1]}
        done = [i for i, (_, res) in enumerate(log) if not isinstance(res, Exception)]
        if done:
            args, res = log[done[0]]
            bad = list(log)
            bad[done[0]] = (args, wrong_result(args, res))
            yield rep, {**calls, name: bad}


def corruptions(name, out):
    """Wrong variants of an operation's output, by operation kind."""
    kind = name.split(":")[0]
    if "#" in name:
        yield from suite_corruptions(out)
    elif kind == "control":
        yield True
    elif kind == "simulate":
        amps = out.amps.copy()
        amps[0] = amps[0] + (Exact.ONE if out.is_exact else 1e-3)
        yield _state(out, amps)
        if out.is_exact:
            yield out.to_float()
    elif kind == "variable_partition":
        yield [out[0] | out[1], *out[2:]]
        first = sorted(out[0])
        if len(first) > 1:
            yield [frozenset(first[:1]), frozenset(first[1:]), *out[1:]]
    elif kind == "is_S_separable":
        flag, witness = out
        r = 9 if ":r9:" in name else 10
        yield (not flag, witness)
        yield (True, (frozenset({0}), frozenset(range(1, r))))
    elif kind == "classify_simplification":
        yield NO_SIMPLIFICATION if out.disappears else DISAPPEARS
    elif kind == "bridge":
        yield replace(out, separable=not out.separable)
        yield replace(out, poly_rank_le_1=not out.poly_rank_le_1)
    elif kind == "refute_depth1":
        yield wrong_result(None, out)
    elif kind == "verify_certificate":
        yield (not out[0], out[1])
    elif kind == "cli":
        code, text, err = out
        yield (code + 1, text, err)
        yield (code, "", err)
        digit = next((i for i, ch in enumerate(text) if ch in "123456789"), None)
        if digit is not None:
            yield (code, text[:digit] + "0" + text[digit + 1:], err)
    elif kind == "parse_circuit":
        yield Circuit(out.r, out.n_inputs, out.n_ancillas,
                      [{}] + out.single_layers[1:], out.multi_layers)
    elif kind == "serialize_circuit":
        lines = out.splitlines(keepends=True)
        yield "".join(ln for ln in lines if not ln.startswith("u ")) or out + "u 0 X\n"
    else:
        raise AssertionError(f"no corruption for {name}")


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def ops_and_outputs(request, tmp_path_factory):
    ops = workloads.build(request.param, 3, tmp_path_factory.mktemp("work"))
    return [(op, workloads.checked_call(op)) for op in ops]


def test_checks_accept_real_outputs(ops_and_outputs):
    for op, out in ops_and_outputs:
        problem = op.check(out)
        if op.known_fault:
            assert problem is not None, op.name
        else:
            assert problem is None, (op.name, problem)


def test_checks_reject_corrupted_outputs(ops_and_outputs):
    for op, out in ops_and_outputs:
        if op.known_fault:
            continue
        variants = list(corruptions(op.name, out))
        assert variants, op.name
        for bad in variants:
            assert op.check(bad) is not None, op.name


def test_forged_certificates_are_unsound():
    p3 = workloads.circuit.parity3_circuit()
    for cert in workloads.forged_certificates():
        assert ref.check_certificate(cert, p3) is not None, cert.note


def test_family_root_check_rejects_a_moved_root():
    from qaclab import family
    rng = np.random.default_rng(5)
    spec, c, d, alpha = family.random_family_instance("two-block-compact", rng)
    assignment, _, _ = family.two_block_zero_assignment(spec, c, d, alpha)
    assert ref.check_family_root(spec, c, d, alpha, assignment) is None
    key = next(iter(assignment))
    moved = dict(assignment)
    moved[key] = complex(assignment[key]) + 0.5
    assert ref.check_family_root(spec, c, d, alpha, moved) is not None


def test_benchmark_json_lists_every_traced_metric():
    import json
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    printed = spans.Tracer().metrics(rounds=1)
    assert [m["name"] for m in doc["per_layer"]] == list(printed)
    assert all(m["unit"] == ("s" if m["name"].endswith("_s") else "count")
               for m in doc["per_layer"])
