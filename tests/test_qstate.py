import numpy as np
import pytest

from qaclab.circuit import GATE_H, apply_1q
from qaclab.numerics import Exact, Tolerance, make_rng, to_float
from qaclab.qstate import (
    RegisterSizeError,
    StateVector,
    basis_state,
    bipartitions,
    format_state,
    is_S_separable,
    ones_projection_norm,
    parse_state,
    random_exact_state,
    random_product_state,
    random_state,
    remove_ones_component,
    separates_at,
    target_density,
    tensor,
)


def plus_state():
    return apply_1q(basis_state(1, 0), 0, GATE_H)


def bell_state():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    return StateVector(2, amps)


def ghz_state():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    return StateVector(3, amps)


def test_tensor_basis():
    out = tensor(basis_state(1, 0), basis_state(1, 1), placement={0})
    assert out.amp("01") == Exact.ONE
    assert out.amp("00").is_zero


def test_tensor_placement_routing():
    # u on qubit 1, v on qubits {0, 2}
    u = basis_state(1, 1)
    v = basis_state(2, "10")
    out = tensor(u, v, placement={1})
    assert out.amp("110") == Exact.ONE


def test_tensor_associative_up_to_placement():
    rng = make_rng(30)
    for _ in range(20):
        a, b, c = (random_state(1, rng) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        # oracle: direct 3-way product with np.kron
        direct = np.kron(np.kron(a.amps, b.amps), c.amps)
        assert np.allclose(left.amps, direct)
        assert np.allclose(right.amps, direct)


def test_bell_is_far_from_products():
    rng = make_rng(31)
    bell = bell_state()
    closest = min(np.linalg.norm(bell.amps -
                                 tensor(random_state(1, rng),
                                        random_state(1, rng)).amps)
                  for _ in range(1000))
    assert closest > 0.2


def test_separates_at_examples():
    ok, factors = separates_at(basis_state(2, "01"), {0}, {1})
    assert ok
    fa, fb = factors
    assert abs(abs(fa.amps[0]) - 1) < 1e-12  # |0> on qubit 0
    assert abs(abs(fb.amps[1]) - 1) < 1e-12  # |1> on qubit 1

    ok, _ = separates_at(bell_state(), {0}, {1})
    assert not ok


def test_separates_at_recovers_factors():
    rng = make_rng(32)
    for _ in range(50):
        a = frozenset({0, 2})
        b = frozenset({1, 3})
        ua, ub = random_state(2, rng), random_state(2, rng)
        psi = tensor(ua, ub, placement=a)
        ok, (fa, fb) = separates_at(psi, a, b)
        assert ok
        rebuilt = tensor(fa, fb, placement=a)
        phase = np.vdot(rebuilt.amps, psi.amps)
        phase /= abs(phase)
        assert np.linalg.norm(psi.amps - phase * rebuilt.amps) < 1e-8


def test_separates_symmetry():
    rng = make_rng(33)
    psi = random_state(3, rng)
    for a, b in bipartitions(3):
        assert separates_at(psi, a, b)[0] == separates_at(psi, b, a)[0]


def test_separation_survives_one_sided_gates():
    rng = make_rng(34)
    from qaclab.circuit import Gate1q
    from qaclab.numerics import random_unitary
    for _ in range(30):
        a, b = frozenset({0, 1}), frozenset({2, 3})
        psi = tensor(random_state(2, rng), random_state(2, rng), placement=a)
        q = int(rng.integers(0, 2))  # a qubit inside A
        dressed = apply_1q(psi, q, Gate1q(random_unitary(2, rng)))
        assert separates_at(dressed, a, b)[0]


def test_is_S_separable_examples():
    ok, witness = is_S_separable(basis_state(3, "111").to_float(), {0, 1, 2})
    assert ok

    ok, witness = is_S_separable(ghz_state(), {0, 1, 2})
    assert not ok and witness is None

    rng = make_rng(35)
    ent = bell_state()
    psi = tensor(ent, random_state(1, rng))  # entangled pair on {0,1}
    ok, (a, b) = is_S_separable(psi, {0, 2})
    assert ok
    assert (a, b) == (frozenset({2}), frozenset({0, 1}))


def test_is_S_separable_requires_two_qubits():
    with pytest.raises(ValueError):
        is_S_separable(ghz_state(), {1})


def test_exact_separability_decisions():
    bell_exact = StateVector(2, np.array(
        [Exact.ONE, Exact.ZERO, Exact.ZERO, Exact.ONE], dtype=object),
        normalized=False)
    ok, _ = separates_at(bell_exact, {0}, {1})
    assert not ok
    prod = tensor(basis_state(1, 1), basis_state(1, 0))
    assert separates_at(prod, {0}, {1})[0]


def sparse_exact_state(r, rng):
    """Exact state with Gaussian-integer amplitudes, most of them zero."""
    amps = random_exact_state(r, rng).amps
    amps[rng.random(1 << r) < 0.7] = Exact.ZERO
    return StateVector(r, amps, normalized=False)


def test_exact_separability_with_zero_rows_and_columns():
    # |000> + |011> = |0> (|00> + |11>): the cut matrices have zero rows
    amps = np.array([Exact.ZERO] * 8, dtype=object)
    amps[0b000] = amps[0b011] = Exact.ONE
    psi = StateVector(3, amps, normalized=False)
    assert separates_at(psi, {0}, {1, 2})[0]
    assert not separates_at(psi, {0, 1}, {2})[0]
    assert not separates_at(psi, {1}, {0, 2})[0]

    # sparse states and products of sparse factors against the float rank
    rng = make_rng(48)
    for k in range(60):
        r = int(rng.integers(2, 6))
        if k % 2:
            a = frozenset(int(q) for q in rng.choice(r, int(rng.integers(1, r)),
                                                     replace=False))
            psi = tensor(sparse_exact_state(len(a), rng),
                         sparse_exact_state(r - len(a), rng), placement=a)
            assert separates_at(psi, a, frozenset(range(r)) - a)[0]
        else:
            psi = sparse_exact_state(r, rng)
        for a, b in bipartitions(r):
            mat = psi.axes().transpose(sorted(a) + sorted(b))
            mat = mat.reshape(1 << len(a), 1 << len(b)).astype(complex)
            want = np.linalg.matrix_rank(mat) <= 1
            assert separates_at(psi, a, b)[0] == want


def test_ones_projection_examples():
    assert ones_projection_norm(basis_state(2, "11"), {0, 1}) == 1.0
    assert ones_projection_norm(basis_state(2, "01"), {0, 1}) == 0.0
    pp = tensor(plus_state(), plus_state())
    assert abs(ones_projection_norm(pp, {0, 1}) - 0.5) < 1e-12
    # S empty: the projection is the whole state
    assert abs(ones_projection_norm(pp, set()) - 1.0) < 1e-12


def test_remove_ones_component():
    rng = make_rng(36)
    psi = random_state(3, rng)
    out = remove_ones_component(psi, {0, 2})
    assert ones_projection_norm(out, {0, 2}) < 1e-12
    assert abs(out.norm() - 1) < 1e-12


def test_random_state_norm_and_cap():
    rng = make_rng(37)
    assert abs(random_state(3, rng).norm() - 1) < 1e-12
    with pytest.raises(RegisterSizeError):
        random_state(13, rng)


def test_random_product_state_separates():
    rng = make_rng(38)
    for _ in range(20):
        a, b = frozenset({0, 3}), frozenset({1, 2})
        psi = random_product_state(a, b, rng)
        assert separates_at(psi, a, b)[0]


def test_random_states_usually_fully_entangled():
    rng = make_rng(39)
    entangled = 0
    trials = 1000
    for _ in range(trials):
        psi = random_state(3, rng)
        if not is_S_separable(psi, {0, 1, 2})[0]:
            entangled += 1
    assert entangled / trials >= 0.99


def test_target_density():
    rho = target_density(bell_state())
    assert np.allclose(rho, np.eye(2) / 2)
    rho0 = target_density(basis_state(2, "01").to_float())
    assert np.allclose(rho0, np.diag([1.0, 0.0]))


def test_exact_random_state_flagged():
    rng = make_rng(40)
    psi = random_exact_state(3, rng)
    assert psi.is_exact and not psi.normalized


def test_dump_round_trip():
    rng = make_rng(41)
    psi = random_state(3, rng)
    text = format_state(psi)
    back = parse_state(text)
    assert np.allclose(psi.amps, back.amps)
    lines = text.strip().splitlines()
    assert lines == sorted(lines)  # sorted by bitstring


def test_dump_parse_errors():
    from qaclab.qstate import StateParseError
    with pytest.raises(StateParseError):
        parse_state("01 bad 0\n")
    with pytest.raises(StateParseError):
        parse_state("0a 1 0\n")
    with pytest.raises(StateParseError):
        parse_state("")
    for bad in ("nan 0", "0 inf", "-inf 0", "1 -nan"):
        with pytest.raises(StateParseError, match="line 2: non-finite"):
            parse_state(f"0 1 0\n1 {bad}\n")
