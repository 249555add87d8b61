from pathlib import Path

import numpy as np
import pytest

from qaclab.circuit import GATE_H, GATE_X, Circuit, CircuitValidationError, Gate1q, cz
from qaclab.circuit_io import CircuitParseError, parse_circuit, serialize_circuit
from qaclab.numerics import make_rng, random_unitary

DATA = Path(__file__).parent / "data"

GOLDEN = DATA / "parity3.qac"


def test_golden_round_trip_byte_exact():
    text = GOLDEN.read_text()
    assert serialize_circuit(parse_circuit(text)) == text


def test_parse_golden_structure():
    c = parse_circuit(GOLDEN.read_text())
    assert (c.r, c.n_inputs, c.n_ancillas, c.depth) == (4, 3, 0, 2)
    assert c.gate1(0, 0).name == "H"
    assert c.multi_at(1, 0).qubits == frozenset({0, 1})
    assert c.multi_at(2, 0).qubits == frozenset({0, 2})
    assert c.gate1(1, 0).name == "I"  # missing gates default to identity


def test_matrix_and_geta_round_trip():
    rng = make_rng(70)
    u = random_unitary(2, rng)
    text = ("qubits 3\ninputs 2\nancillas 0\n"
            "layer 0.5\n"
            f"u 1 matrix {' '.join(repr(float(v)) for e in u.reshape(-1) for v in (e.real, e.imag))}\n"
            "layer 1\n"
            f"geta {repr(0.6)} {repr(0.8)} 0 2\n")
    c = parse_circuit(text)
    assert np.allclose(c.gate1(0, 1).float_mat(), u)
    g = c.multi_at(1, 0)
    assert g.kind == "geta" and abs(g.eta - complex(0.6, 0.8)) < 1e-12
    assert serialize_circuit(parse_circuit(serialize_circuit(c))) == serialize_circuit(c)


def test_round_trip_compares_equal():
    c = parse_circuit(GOLDEN.read_text())
    assert parse_circuit(serialize_circuit(c)) == c
    singles = [{0: GATE_H, 1: Gate1q(random_unitary(2, make_rng(71)))}, {}]
    c = Circuit(3, 2, 0, singles, [[cz(0, 2)]])
    back = parse_circuit(serialize_circuit(c))
    assert back == c and back.gate1(0, 1) is not c.gate1(0, 1)
    assert back != Circuit(3, 2, 0, [singles[0], {1: GATE_H}], [[cz(0, 2)]])


def test_gates_compare_and_hash_by_value():
    copy = Gate1q(GATE_X.mat.copy())
    assert copy == GATE_X and hash(copy) == hash(GATE_X)
    assert GATE_X != GATE_H and GATE_X != "X"
    # an exact entry equals the complex number that is its float value
    floats = Gate1q(GATE_H.float_mat().copy())
    assert floats == GATE_H and hash(floats) == hash(GATE_H)
    assert len({GATE_X, copy, GATE_H, floats}) == 2


def test_s_and_t_round_trip():
    text = ("qubits 3\ninputs 2\nancillas 0\nlayer 0.5\nu 0 H\nu 1 S\n"
            "layer 1\ncz 0 1\nlayer 1.5\nu 0 T\nu 2 S\n")
    c = parse_circuit(text)
    assert [c.gate1(0, 1).name, c.gate1(1, 0).name] == ["S", "T"]
    assert serialize_circuit(c) == text
    assert parse_circuit(serialize_circuit(c)) == c


def test_comments_and_blank_lines_ignored():
    text = GOLDEN.read_text().replace("layer 1\n", "layer 1  # first gates\n\n")
    c = parse_circuit(text)
    assert c.depth == 2


def test_single_qubit_cz_allowed():
    # arity-1 phase gate on an integer layer acts as Z
    c = parse_circuit("qubits 2\ninputs 1\nancillas 0\nlayer 1\ncz 1\n")
    assert c.multi_at(1, 1).qubits == frozenset({1})


# one fixture per documented parse-error class, twenty in all
MALFORMED = [
    ("missing-qubits", "inputs 1\nancillas 0\nlayer 1\ncz 0 1\n", "bad-header"),
    ("duplicate-header", "qubits 2\nqubits 2\ninputs 1\nancillas 0\n", "bad-header"),
    ("layout-mismatch", "qubits 3\ninputs 1\nancillas 0\n", "bad-header"),
    ("header-not-number", "qubits two\ninputs 1\nancillas 0\n", "bad-header"),
    ("header-after-layer", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\nqubits 2\n", "bad-header"),
    ("negative-count", "qubits 2\ninputs -1\nancillas 2\n", "bad-header"),
    ("bad-layer-label", "qubits 2\ninputs 1\nancillas 0\nlayer 0.7\nu 0 H\n", "bad-layer-index"),
    ("layer-out-of-order", "qubits 2\ninputs 1\nancillas 0\nlayer 1\ncz 0 1\nlayer 0.5\nu 0 H\n", "bad-layer-index"),
    ("duplicate-layer", "qubits 2\ninputs 1\nancillas 0\nlayer 1\ncz 0 1\nlayer 1\ncz 0 1\n", "bad-layer-index"),
    ("layer-above-depth-cap", "qubits 2\ninputs 1\nancillas 0\nlayer 1e9\ncz 0 1\n", "bad-layer-index"),
    ("entry-before-layer", "qubits 2\ninputs 1\nancillas 0\nu 0 H\n", "entry-outside-layer"),
    ("unknown-directive", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\nv 0 H\n", "unknown-directive"),
    ("qubit-out-of-range", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\nu 2 H\n", "bad-qubit"),
    ("qubit-not-number", "qubits 2\ninputs 1\nancillas 0\nlayer 1\ncz 0 x\n", "bad-qubit"),
    ("duplicate-1q-gate", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\nu 0 H\nu 0 X\n", "duplicate-qubit"),
    ("qubit-repeated-in-gate", "qubits 2\ninputs 1\nancillas 0\nlayer 1\ncz 0 0\n", "duplicate-qubit"),
    ("u-on-integer-layer", "qubits 2\ninputs 1\nancillas 0\nlayer 1\nu 0 H\n", "layer-kind-mismatch"),
    ("cz-on-half-layer", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\ncz 0 1\n", "layer-kind-mismatch"),
    ("unknown-gate-name", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\nu 0 Q\n", "unknown-gate-name"),
    ("short-matrix", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\nu 0 matrix 1 0 0 0\n", "bad-matrix"),
    ("non-unitary-matrix", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\n"
     "u 0 matrix 1 0 0 0 0 0 2 0\n", "non-unitary"),
    ("geta-bad-modulus", "qubits 2\ninputs 1\nancillas 0\nlayer 1\ngeta 0.5 0 0 1\n", "geta-modulus"),
    ("geta-trivial-phase", "qubits 2\ninputs 1\nancillas 0\nlayer 1\ngeta 1 0 0 1\n", "geta-trivial"),
    ("geta-nan-phase", "qubits 2\ninputs 1\nancillas 0\nlayer 1\ngeta nan 0 0 1\n", "bad-eta"),
    ("nan-matrix-entry", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\n"
     "u 0 matrix 1 0 0 0 0 0 nan 0\n", "bad-matrix"),
    ("inf-matrix-entry", "qubits 2\ninputs 1\nancillas 0\nlayer 0.5\n"
     "u 0 matrix 1 0 0 0 0 0 inf 0\n", "bad-matrix"),
]


@pytest.mark.parametrize("name,text,kind", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_inputs(name, text, kind):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert err.value.kind == kind


def test_malformed_fixture_count():
    assert len(MALFORMED) >= 20


def test_overlapping_gates_rejected_at_validation():
    text = "qubits 3\ninputs 2\nancillas 0\nlayer 1\ncz 0 1\ncz 1 2\n"
    with pytest.raises(CircuitValidationError) as err:
        parse_circuit(text)
    assert err.value.kind == "layer-disjointness"


def test_register_cap():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("qubits 13\ninputs 12\nancillas 0\n")
    assert err.value.kind == "register-too-large"


def test_parse_error_reports_line():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("qubits 2\ninputs 1\nancillas 0\nlayer 0.5\nu 9 H\n")
    assert err.value.line_no == 5


@pytest.mark.parametrize("phase,kind", [
    ("nan 0", "bad-eta"), ("0 inf", "bad-eta"), ("0.5 0", "geta-modulus"),
    ("1 0", "geta-trivial")])
def test_geta_phase_errors_carry_the_line(phase, kind):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(f"qubits 2\ninputs 1\nancillas 0\nlayer 1\ngeta {phase} 0 1\n")
    assert (err.value.kind, err.value.line_no) == (kind, 5)
    assert str(err.value).startswith("line 5: ")


def test_canonical_form_drops_empty_layers():
    c = Circuit(2, 1, 0, single_layers=[{}, {}], multi_layers=[[cz(0, 1)]])
    text = serialize_circuit(c)
    assert "layer 0.5" not in text and "layer 1\n" in text
