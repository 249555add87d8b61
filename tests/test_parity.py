from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaclab.circuit import (
    GATE_H,
    GATE_X,
    Circuit,
    apply_1q,
    classify_simplification,
    cz,
    parity3_circuit,
    simulate,
)
from qaclab.harness import _random_multi_layer, _random_single_layer, run_suite
from qaclab.numerics import Tolerance, make_rng, random_unitary
from qaclab.parity import (
    CertificateParseError,
    CertificateVerificationError,
    KillParityError,
    RefutationCertificate,
    RefutationError,
    format_certificate,
    format_unitaries,
    has_pure_parity,
    kill_parity_state,
    parity_basis,
    parse_certificate,
    parse_unitaries,
    product_initial,
    refute_depth1,
    refute_depth2_structural,
    subset_parity_mass,
    verify_certificate,
)
from qaclab.qstate import StateVector, basis_state, random_state, tensor


def test_parity_basis_small():
    assert parity_basis(2, 0) == ["00", "11"]
    assert parity_basis(2, 1) == ["01", "10"]


def test_parity_basis_dimension():
    for r in range(1, 11):
        for b in (0, 1):
            assert len(parity_basis(r, b)) == 1 << (r - 1)


def test_has_pure_parity_examples():
    assert has_pure_parity(basis_state(2, "00").to_float(), 0)
    bell = StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    assert has_pure_parity(bell, 0)
    assert not has_pure_parity(bell, 1)

    from qaclab.circuit import apply_1q
    half = tensor(apply_1q(basis_state(1, 0), 0, GATE_H), basis_state(1, 0))
    assert not has_pure_parity(half, 0)
    assert not has_pure_parity(half, 1)
    assert abs(np.sqrt(subset_parity_mass(half, (0, 1), 0)) - 1 / np.sqrt(2)) < 1e-12


def test_kill_parity_forced_identity_case():
    psi = kill_parity_state([np.eye(4)], 0)
    assert np.allclose(psi.amps, [1, 0, 0, 0])


def test_kill_parity_hadamard_case():
    h2 = np.kron(GATE_H.float_mat(), GATE_H.float_mat())
    psi = kill_parity_state([h2], 1)
    expected = np.zeros(4, dtype=complex)
    expected[1] = 1 / np.sqrt(2)   # |01>
    expected[2] = -1 / np.sqrt(2)  # |10>
    assert np.allclose(psi.amps, expected)


def test_kill_parity_random_instances():
    rng = make_rng(80)
    for _ in range(50):
        r = int(rng.integers(2, 5))
        k = int(rng.integers(1, 1 << (r - 1)))
        units = [random_unitary(1 << r, rng) for _ in range(k)]
        for b in (0, 1):
            psi = kill_parity_state(units, b)
            assert max(abs(u[-1, :] @ psi.amps) for u in units) <= 1e-10
            assert np.sqrt(subset_parity_mass(psi, range(r), 1 - b)) <= 1e-10


def test_kill_parity_specific_size():
    rng = make_rng(81)
    units = [random_unitary(16, rng) for _ in range(7)]
    for b in (0, 1):
        psi = kill_parity_state(units, b)
        assert max(abs(u[-1, :] @ psi.amps) for u in units) <= 1e-10
        assert has_pure_parity(psi, b, Tolerance(1e-10, 0.0))


def test_kill_parity_precondition():
    rng = make_rng(82)
    units = [random_unitary(4, rng) for _ in range(2)]  # k = 2^(r-1)
    with pytest.raises(KillParityError) as err:
        kill_parity_state(units, 0)
    assert err.value.kind == "precondition"


def test_gate_killing_composition():
    # a gate covering the killer's qubits disappears after any extension
    rng = make_rng(83)
    for _ in range(30):
        r = int(rng.integers(2, 4))
        k = int(rng.integers(1, 1 << (r - 1)))
        units = [random_unitary(1 << r, rng) for _ in range(k)]
        b = int(rng.integers(0, 2))
        psi = kill_parity_state(units, b)
        extra = int(rng.integers(1, 3))
        sigma = random_state(extra, rng)
        for u in units:
            moved = StateVector(r, u @ psi.amps)
            full = tensor(moved, sigma, placement=range(r))
            big_s = set(range(r)) | {r + int(q) for q in
                                     rng.choice(extra, size=int(rng.integers(0, extra + 1)),
                                                replace=False)}
            assert classify_simplification(big_s, full).disappears


# ---- depth-1 refuter -----------------------------------------------------------

def all_h_depth1(n=2, m=0):
    r = 1 + n + m
    return Circuit(r, n, m,
                   single_layers=[{q: GATE_H for q in range(r)},
                                  {q: GATE_H for q in range(r)}],
                   multi_layers=[[cz(*range(1 + n))]])


def test_refute_depth1_kill_route():
    c = all_h_depth1(2)
    cert = refute_depth1(c)
    assert cert.kind == "parity-mismatch"
    ok, detail = verify_certificate(cert, c)
    assert ok, detail
    # equal final targets, different input parities
    assert np.max(np.abs(cert.final_targets[0] - cert.final_targets[1])) < 1e-10


def test_refute_depth1_detached_qubit_route():
    # qubit 2 touches no gate with the target
    c = Circuit(3, 2, 0,
                single_layers=[{0: GATE_H}, {0: GATE_H}],
                multi_layers=[[cz(0, 1)]])
    cert = refute_depth1(c)
    assert cert.kind == "target-independence" and cert.flip_qubit == 2
    ok, detail = verify_certificate(cert, c)
    assert ok, detail


def test_refute_depth1_shape_errors():
    with pytest.raises(RefutationError):
        refute_depth1(parity3_circuit())  # depth 2
    single_input = Circuit(2, 1, 0, single_layers=[{}, {}],
                           multi_layers=[[cz(0, 1)]])
    with pytest.raises(RefutationError):
        refute_depth1(single_input)


def test_refute_depth1_random_circuits():
    rng = make_rng(84)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(0, 3))
        r = 1 + n + m
        c = Circuit(r, n, m,
                    single_layers=[_random_single_layer(rng, r),
                                   _random_single_layer(rng, r)],
                    multi_layers=[_random_multi_layer(rng, r)])
        cert = refute_depth1(c)
        ok, detail = verify_certificate(cert, c)
        assert ok, detail


# ---- depth-2 refuter -----------------------------------------------------------

def test_refute_depth2_three_inputs_decoupled():
    # layer-1 gate on inputs {1,2,3}; the target's layer-2 gate misses
    # qubit 3, which therefore decouples once the killer is in place
    c = Circuit(4, 3, 0,
                single_layers=[{0: GATE_H, 1: GATE_H}, {}, {0: GATE_H}],
                multi_layers=[[cz(1, 2, 3)], [cz(0, 1)]])
    cert = refute_depth2_structural(c)
    assert cert is not None
    assert cert.kind == "target-independence"
    assert cert.flip_qubit in (2, 3)  # both miss the layer-2 gate
    ok, detail = verify_certificate(cert, c)
    assert ok, detail


def test_refute_depth2_three_inputs_double_kill():
    # the target's layer-2 gate covers all three killer qubits, so both
    # gates are switched off by the double constraint
    rng = make_rng(85)
    c = Circuit(5, 4, 0,
                single_layers=[{q: GATE_H for q in range(5)},
                               {q: GATE_H for q in range(5)},
                               {0: GATE_H}],
                multi_layers=[[cz(1, 2, 3)], [cz(0, 1, 2, 3)]])
    cert = refute_depth2_structural(c)
    assert cert is not None and cert.kind == "parity-mismatch"
    ok, detail = verify_certificate(cert, c)
    assert ok, detail
    for psi, b in zip(cert.states, cert.parities):
        assert np.sqrt(subset_parity_mass(psi, range(1, 5), 1 - b)) < 1e-10


def test_refute_depth2_target_two_inputs_equal_targets():
    # target's layer-1 gate grabs two inputs; its layer-2 gate avoids
    # them, so the killed circuit treats both parities identically
    c = Circuit(4, 2, 1,
                single_layers=[{q: GATE_H for q in range(4)},
                               {q: GATE_H for q in range(4)},
                               {0: GATE_H}],
                multi_layers=[[cz(0, 1, 2)], [cz(0, 3)]])
    cert = refute_depth2_structural(c)
    assert cert is not None and cert.kind == "parity-mismatch"
    ok, detail = verify_certificate(cert, c)
    assert ok, detail


def test_refute_depth2_disappearing_side_route():
    # undressed inputs make one killer pin the target's layer-2 gate off
    # from the committed side; the third input is then irrelevant
    c = Circuit(4, 3, 0,
                single_layers=[{0: GATE_H}, {}, {0: GATE_H}],
                multi_layers=[[cz(0, 1, 2)], [cz(0, 1)]])
    cert = refute_depth2_structural(c)
    assert cert is not None
    assert cert.kind == "target-independence" and cert.flip_qubit == 3
    ok, detail = verify_certificate(cert, c)
    assert ok, detail


def test_refute_depth2_not_applicable_on_parity3():
    assert refute_depth2_structural(parity3_circuit()) is None


# ---- certificates --------------------------------------------------------------

def test_certificate_round_trip():
    c = all_h_depth1(2)
    cert = refute_depth1(c)
    text = format_certificate(cert)
    back = parse_certificate(text)
    assert back.kind == cert.kind
    assert back.parities == cert.parities
    ok, detail = verify_certificate(back, c)
    assert ok, detail


def test_certificate_text_round_trips_with_and_without_targets():
    full = format_certificate(refute_depth1(all_h_depth1(2)))
    bare = "".join(line + "\n" for line in full.splitlines()
                   if not line.startswith("target"))
    for text in (full, bare):
        assert format_certificate(parse_certificate(text)) == text


def test_certificate_tampering_detected():
    c = all_h_depth1(2)
    cert = refute_depth1(c)
    # claim the parities are equal
    broken = RefutationCertificate(
        kind=cert.kind, states=cert.states, final_targets=cert.final_targets,
        parities=(0, 0), note=cert.note)
    ok, _ = verify_certificate(broken, c)
    assert not ok
    # swap in a state of the wrong parity
    wrong_state = product_initial(c, {(1,): basis_state(1, 1)})
    broken = RefutationCertificate(
        kind=cert.kind, states=[cert.states[0], wrong_state],
        final_targets=cert.final_targets, parities=(0, 1), note=cert.note)
    ok, _ = verify_certificate(broken, c)
    assert not ok


def test_verifier_rejects_wrong_final_targets():
    c = all_h_depth1(2)
    cert = refute_depth1(c)
    nan = np.full((2, 2), np.nan + 0j)
    for targets in ([np.eye(2), cert.final_targets[1]], [nan, nan]):
        broken = RefutationCertificate(
            kind=cert.kind, states=cert.states, final_targets=targets,
            parities=cert.parities, note=cert.note)
        ok, detail = verify_certificate(broken, c)
        assert not ok
        assert detail == "recorded final target deviates from simulation"


def test_product_initial_layout():
    c = all_h_depth1(2, m=1)
    anc = basis_state(1, 1)
    psi = product_initial(c, {(1,): basis_state(1, 1)}, anc)
    assert psi.amp("0101") == 1


def test_unitaries_round_trip():
    rng = make_rng(86)
    units = [random_unitary(4, rng) for _ in range(3)]
    text = format_unitaries(units)
    back = parse_unitaries(text)
    assert all(np.allclose(u, v) for u, v in zip(units, back))


def test_unitaries_parse_errors():
    from qaclab.parity import UnitariesParseError
    with pytest.raises(UnitariesParseError):
        parse_unitaries("unitary\n1 0 0 0\n")
    with pytest.raises(UnitariesParseError):
        parse_unitaries("qubits 1\nunitary\n1 0 0 0\n2 0 0 0\n")  # not unitary
    for row in ("nan 0 0 0", "1 0 inf 0", "1 0 -inf 0"):
        with pytest.raises(UnitariesParseError, match="line 4: non-finite entry") as err:
            parse_unitaries(f"qubits 1\nunitary\n1 0 0 0\n{row}\n")
        assert err.value.kind == "bad-number"


@pytest.mark.parametrize("qubits", ["-1", "0", "13", "99999"])
def test_unitaries_register_is_bounded(qubits):
    from qaclab.parity import UnitariesParseError
    with pytest.raises(UnitariesParseError, match="line 1: qubits count") as err:
        parse_unitaries(f"qubits {qubits}\nunitary\n1 0\n")
    assert err.value.kind == "bad-header"


# ---- forged certificates ------------------------------------------------------
# None of these refutes parity3_circuit, which computes parity; each must be
# rejected, for the stated reason, without raising.

def _sv4(amps):
    return StateVector(4, np.asarray(amps, dtype=complex))


def _plus_on_1(bits23):
    """|0>|+>|b2>|b3>: an input register with no definite parity."""
    return _sv4((np.eye(16)[int("00" + bits23, 2)]
                 + np.eye(16)[int("01" + bits23, 2)]) / np.sqrt(2))


_TARGET_PLUS = np.kron(np.array([1, 1]) / np.sqrt(2), np.eye(8)[0])
_TARGET_PLUS_FLIPPED = np.kron(np.array([1, 1]) / np.sqrt(2), np.eye(8)[4])

FORGED = {
    "all-nan": (RefutationCertificate(
        "parity-mismatch", [_sv4(np.full(16, np.nan))] * 2, [None, None],
        parities=(0, 1)), "non-finite"),
    "all-zero": (RefutationCertificate(
        "parity-mismatch", [_sv4(np.zeros(16))] * 2, [None, None],
        parities=(0, 1)), "unit norm"),
    "target-starts-in-one": (RefutationCertificate(
        "parity-mismatch", [basis_state(4, "0000"), basis_state(4, "1001")],
        [None, None], parities=(0, 1)), "target qubit"),
    "target-in-plus": (RefutationCertificate(
        "target-independence", [_sv4(_TARGET_PLUS), _sv4(_TARGET_PLUS_FLIPPED)],
        [None, None], flip_qubit=1), "target qubit"),
    "parities-not-binary": (RefutationCertificate(
        "parity-mismatch", [basis_state(4, "0000")] * 2, [None, None],
        parities=(0, 2)), "parities"),
    "wrong-register": (refute_depth1(all_h_depth1(2)), "qubits"),
    # both final targets are diag(1/2, 1/2), yet the flip proves nothing
    "input-without-parity": (RefutationCertificate(
        "target-independence", [_plus_on_1("00"), _plus_on_1("10")],
        [None, None], flip_qubit=2), "definite parity"),
}


@pytest.mark.parametrize("name", sorted(FORGED))
def test_forged_certificates_rejected(name):
    cert, reason = FORGED[name]
    ok, detail = verify_certificate(cert, parity3_circuit())
    assert not ok
    assert reason in detail


#: Input factors; the last three give exactly equal parity masses.
_FACTORS = {"0": (1, 0), "1": (0, 1), "+": (1, 1), "-": (1, -1), "+i": (1, 1j)}


@st.composite
def parity3_initials(draw):
    """Target |0> and a product of ``_FACTORS`` or a random state on the
    three inputs."""
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(sorted(_FACTORS)),
                              min_size=3, max_size=3))
        inputs = reduce(np.kron, [np.array(_FACTORS[x]) / np.linalg.norm(_FACTORS[x])
                                  for x in names])
    else:
        inputs = random_state(3, make_rng(draw(st.integers(0, 2**32 - 1)))).amps
    return _sv4(np.kron([1, 0], inputs))


@st.composite
def depth1_certificates(draw):
    """The certificate ``refute_depth1`` gives for a random 4-qubit
    depth-1 circuit."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    c = Circuit(4, 3, 0,
                single_layers=[_random_single_layer(rng, 4),
                               _random_single_layer(rng, 4)],
                multi_layers=[_random_multi_layer(rng, 4)])
    return refute_depth1(c)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_no_certificate_refutes_parity3(data):
    """parity3_circuit computes parity, so every certificate against it
    must be rejected: drawn states, or a real certificate's states under
    a drawn kind, flip qubit and parities."""
    kind = data.draw(st.sampled_from(("parity-mismatch", "target-independence")))
    parities = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    flip = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        states = data.draw(depth1_certificates()).states
    else:
        first = data.draw(parity3_initials())
        second = (apply_1q(first, flip, GATE_X) if data.draw(st.booleans())
                  else data.draw(parity3_initials()))
        states = [first, second]
    cert = RefutationCertificate(kind, states, [None, None],
                                 parities=parities, flip_qubit=flip)
    ok, detail = verify_certificate(cert, parity3_circuit())
    assert not ok, detail


def test_default_depth1_refute_certificates_verify():
    report = run_suite("depth1-refute")
    assert report.instances == 100 and report.passed, report.violations[:2]


def _cert_text(bits_line, qubits=4):
    return ("kind parity-mismatch\n"
            f"qubits {qubits}\n"
            "parities 0 1\n"
            f"state 0 {bits_line} 1.0 0.0\n"
            "state 1 0001 1.0 0.0\n")


@pytest.mark.parametrize("text,line", [
    (_cert_text("00x0"), 4),
    (_cert_text("000"), 4),
    (_cert_text("00000"), 4),
    (_cert_text("000", qubits=3), 5),
    (_cert_text("0000", qubits=0), 2),
    (_cert_text("0000", qubits=-1), 2),
    (_cert_text("0000", qubits=99), 2),
    ("kind parity-mismatch\nstate 0 0000 1.0 0.0\nqubits 4\n", 2),
    (_cert_text("0000").replace("1.0 0.0", "nan 0.0", 1), 4),
    (_cert_text("0000").replace("1.0 0.0", "1.0 inf", 1), 4),
    (_cert_text("0000") + "target 0 1 0 0 0 0 0 0 nan\n", 6),
])
def test_certificate_parse_errors(text, line):
    with pytest.raises(CertificateParseError, match=f"line {line}:"):
        parse_certificate(text)


@pytest.mark.parametrize("extra", [
    "state 1 0001 0.0 1.0\n",                 # same state, same bitstring
    "qubits 4\n",                             # header key again
    "target 0 1 0 0 0 0 0 0 0\ntarget 0 1 0 0 0 0 0 0 0\n",
])
def test_certificate_lines_must_not_repeat(extra):
    text = _cert_text("0000") + extra
    repeat = len(text.splitlines())
    with pytest.raises(CertificateParseError, match=f"line {repeat}:") as err:
        parse_certificate(text)
    assert err.value.kind == "duplicate-entry"
    parse_certificate(_cert_text("0000") + "state 0 0001 0.0 1.0\n")  # other state
