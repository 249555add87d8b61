"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or through the whole
suite); every criterion pins its tolerance and, where stated, its
runtime budget.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from qaclab.circuit_io import CircuitParseError, parse_circuit, serialize_circuit
from qaclab.harness import run_suite

DATA = Path(__file__).parent / "data"


def _report_line(num, name, ok, wall, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {num:2d} {name:22s} {status} ({wall:6.2f}s){suffix}")


def _run(num, name, budget=None, **overrides):
    report = run_suite(name, **overrides)
    ok = report.passed and (budget is None or report.wall_time < budget)
    extra = f"instances={report.instances}"
    if budget is not None:
        extra += f" budget={budget:g}s"
    _report_line(num, name, ok, report.wall_time, extra)
    assert report.passed, report.violations[:5]
    if budget is not None:
        assert report.wall_time < budget, (
            f"{name} took {report.wall_time:.2f}s, budget {budget}s")
    return report


def test_criterion_1_tight_parity3():
    # exact simulation on all 16 basis inputs, zero target residual,
    # state-for-state agreement with the CNOT form, under one second
    _run(1, "tight-parity3", budget=1.0)


def test_criterion_2_entanglement_lemma():
    # 1000 instances, r <= 6, CZ plus three random unit phases, 1e-8
    report = _run(2, "entanglement-lemma", budget=30.0, trials=1000,
                  max_qubits=6)
    assert report.abs_eps == 1e-8


def test_criterion_3_simplify_lemma():
    report = _run(3, "simplify-lemma", trials=500, max_qubits=6)
    assert report.abs_eps == 1e-8


def test_criterion_3_no_zero_divisors():
    report = _run(3, "no-zero-divisors", trials=500, max_qubits=6)
    assert report.abs_eps == 1e-8


def test_criterion_4_irreducibility_family():
    # 200 hypothesis-passing instances per shape, six shapes; the rank
    # oracle certifies every nontrivial bipartition, and the compact
    # two-block shape also verifies the explicit root assignment
    report = _run(4, "irreducibility-family", budget=60.0, trials=200)
    assert report.instances == 1200


def test_criterion_5_sv_vs_rank():
    # 500 random polynomials, at most 8 variables, all variable subsets
    _run(5, "sv-vs-rank", trials=500)


def test_criterion_5_sv_vs_rank_float():
    # the same on the float backend, decided on the coefficient stack:
    # no violation, under three seconds
    _run(5, "sv-vs-rank", budget=3.0, trials=500, backend="float")


def test_criterion_6_kill_parity():
    # 500 instances, r <= 5, k < 2^(r-1), both parities, residuals and
    # parity purity at 1e-10; the precondition rejection also fires
    _run(6, "kill-parity", trials=500, max_qubits=5)


def test_criterion_7_depth1_refutation():
    # 100 random depth-1 circuits, a verified certificate every time
    _run(7, "depth1-refute", trials=100)


def test_criterion_8_depth_reduction():
    # 50 fixtures; the stripped circuit matches the original target on
    # every classical input within 1e-10
    _run(8, "depth-reduce", trials=50)


def test_criterion_9_topology_6qubit():
    # 200 instances, zero occurrences of the forbidden conjunction
    _run(9, "topology-6qubit", trials=200)


def test_criterion_10_parser():
    t0 = time.perf_counter()
    golden = (DATA / "parity3.qac").read_text()
    round_trip = serialize_circuit(parse_circuit(golden)) == golden

    from test_circuit_io import MALFORMED
    classes_ok = True
    count = 0
    for name, text, kind in MALFORMED:
        count += 1
        try:
            parse_circuit(text)
            classes_ok = False
        except CircuitParseError as err:
            if err.kind != kind:
                classes_ok = False
    wall = time.perf_counter() - t0
    ok = round_trip and classes_ok and count >= 20
    _report_line(10, "circuit-parser", ok, wall,
                 f"malformed-fixtures={count}")
    assert round_trip, "golden file does not round-trip byte-exact"
    assert count >= 20
    assert classes_ok, "a malformed fixture raised the wrong error class"
