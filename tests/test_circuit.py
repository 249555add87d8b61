import numpy as np
import pytest

from qaclab.circuit import (
    GATE_H,
    GATE_I,
    GATE_X,
    GATE_Y,
    GATE_Z,
    Circuit,
    CircuitValidationError,
    DepthReduceError,
    Gate1q,
    MultiGate,
    apply_1q,
    apply_cnot,
    apply_cz,
    apply_geta,
    apply_multi,
    classify_simplification,
    computes_parity_on_basis,
    cz,
    depth_reduce,
    geta,
    is_semiclassical,
    parity3_circuit,
    parity3_cnot_reference,
    simulate,
    target_is_pass_through,
)
from qaclab.numerics import (
    DEFAULT_TOL,
    Exact,
    Tolerance,
    make_rng,
    random_unitary,
    to_float,
)
from qaclab.qstate import (
    StateVector,
    basis_state,
    ones_projection_norm,
    random_state,
    target_density,
    tensor,
)


def plus():
    return apply_1q(basis_state(1, 0), 0, GATE_H)


def apply_fanout(psi, control, targets):
    """Fanout: copy a classical control into every target."""
    for t in targets:
        psi = apply_cnot(psi, control, t)
    return psi


def apply_parity_gate(psi, target, controls):
    """Parity gate: xor every control into the target."""
    for c in controls:
        psi = apply_cnot(psi, c, target)
    return psi


def replacement_state(outcome, psi, gate):
    """Apply the classified replacement: identity, the smaller gate, or
    the whole gate."""
    if outcome.disappears:
        return psi
    if outcome.simplifies:
        return apply_multi(psi, MultiGate(outcome.t, gate.kind, gate.eta_value))
    return apply_multi(psi, gate)


def test_cz_flips_all_ones():
    out = apply_cz(basis_state(2, "11"), {0, 1})
    assert out.amp("11") == Exact.MINUS_ONE
    out = apply_cz(basis_state(2, "01"), {0, 1})
    assert out.amp("01") == Exact.ONE


def test_cz_empty_set_is_global_minus():
    rng = make_rng(60)
    psi = random_state(2, rng)
    out = apply_cz(psi, set())
    assert np.allclose(out.amps, -psi.amps)


def test_h_gives_exact_amplitudes():
    out = apply_1q(basis_state(1, 0), 0, GATE_H)
    assert out.amps[0] == Exact.INV_SQRT2
    assert out.amps[1] == Exact.INV_SQRT2


def test_geta_validation():
    with pytest.raises(ValueError):
        geta(0.5, 0)  # not unit modulus
    with pytest.raises(ValueError):
        geta(1.0, 0)  # trivial phase
    g = geta(1j, 0, 1)
    out = apply_multi(basis_state(2, "11").to_float(), g)
    assert out.amps[3] == 1j


@pytest.mark.parametrize("eta,kind", [
    (0.5, "geta-modulus"), (float("nan"), "geta-modulus"),
    (complex(float("nan"), 1.0), "geta-modulus"), (float("inf"), "geta-modulus"),
    (1.0, "geta-trivial")])
def test_geta_phase_checks_name_their_kind(eta, kind):
    with pytest.raises(CircuitValidationError) as err:
        geta(eta, 0, 1)
    assert err.value.kind == kind


def test_single_qubit_gate_unitarity_check():
    with pytest.raises(ValueError):
        Gate1q.from_matrix([[1, 0], [0, 2]])


def test_named_gates_square_to_identity():
    for g in (GATE_X, GATE_Y, GATE_Z, GATE_H):
        sq = g.compose_after(g)
        assert sq.mat[0, 0] == Exact.ONE and sq.mat[1, 1] == Exact.ONE
        assert sq.mat[0, 1].is_zero and sq.mat[1, 0].is_zero


def test_s_and_t_are_exact_roots_of_z():
    s, t = Gate1q.named("S"), Gate1q.named("T")
    assert s.is_exact and t.is_exact
    assert (s.compose_after(s).mat == GATE_Z.mat).all()
    assert (t.compose_after(t).mat == s.mat).all()


def test_simulate_with_s_and_t_matches_floats():
    s, t = Gate1q.named("S"), Gate1q.named("T")
    c = Circuit(3, 2, 0,
                single_layers=[{q: GATE_H for q in range(3)},
                               {0: t, 1: s, 2: GATE_H}, {0: GATE_H, 2: t}],
                multi_layers=[[cz(0, 1)], [cz(0, 1, 2)]])
    for bits in ("000", "011", "110"):
        exact = simulate(c, basis_state(3, bits))
        assert exact.is_exact and exact.norm_sq() == 1
        assert exact.approx_equal(simulate(c, basis_state(3, bits).to_float()),
                                  DEFAULT_TOL)


def test_simulate_empty_circuit_is_identity():
    c = Circuit(2, 1, 0, single_layers=[{}], multi_layers=[])
    rng = make_rng(61)
    psi = random_state(2, rng)
    out = simulate(c, psi)
    assert np.allclose(out.amps, psi.amps)


def test_simulate_dimension_mismatch():
    c = parity3_circuit()
    with pytest.raises(ValueError):
        simulate(c, basis_state(3, "000"))


def test_parity3_exact_on_all_basis_inputs():
    c = parity3_circuit()
    for idx in range(16):
        bits = format(idx, "04b")
        final = simulate(c, basis_state(4, bits))
        want = bits.count("1") % 2
        for i in range(16):
            if (i >> 3) != want:
                assert final.amps[i].is_zero
        reference = parity3_cnot_reference(basis_state(4, bits))
        assert all(a == b for a, b in zip(final.amps, reference.amps))


def test_simulate_trace_layer_labels():
    c = parity3_circuit()
    _, steps = simulate(c, basis_state(4, "0000"), trace=True)
    assert [label for label, _ in steps] == [0.5, 1.0, 1.5, 2.0, 2.5]


def test_simulate_twelve_qubits_exact():
    r = 12
    all_h = {q: GATE_H for q in range(r)}
    c = Circuit(r, r - 1, 0, single_layers=[all_h, all_h, all_h],
                multi_layers=[[cz(q, q + 1) for q in range(0, r, 2)],
                              [cz(q, q + 1, q + 2) for q in range(1, r - 2, 3)]])
    bits = "101100111000"
    final = simulate(c, basis_state(r, bits))
    assert final.is_exact and final.norm_sq() == 1
    floats = simulate(c, basis_state(r, bits).to_float())
    assert final.approx_equal(floats, DEFAULT_TOL)


def test_unitarity_of_random_circuits():
    rng = make_rng(62)
    for _ in range(25):
        r = int(rng.integers(2, 5))
        n = r - 1
        singles = [{q: Gate1q(random_unitary(2, rng)) for q in range(r)
                    if rng.random() < 0.7} for _ in range(3)]
        pool = list(range(r))
        rng.shuffle(pool)
        multis = [[cz(*pool[:2])], [cz(*pool[1:3])] if r >= 3 else []]
        c = Circuit(r, n, 0, single_layers=singles, multi_layers=multis)
        psi = random_state(r, rng)
        assert abs(simulate(c, psi).norm() - 1.0) < 1e-10


def test_fanout_parity_fixtures():
    # fanout copies a classical control; parity xors controls into target
    out = apply_fanout(basis_state(3, "100"), 0, [1, 2])
    assert out.amp("111") == Exact.ONE
    out = apply_parity_gate(basis_state(3, "011"), 0, [1, 2])
    assert out.amp("011") == Exact.ONE  # parity of the controls is 0
    out = apply_parity_gate(basis_state(3, "001"), 0, [1, 2])
    assert out.amp("101") == Exact.ONE

    # Hadamard conjugation turns fanout into the parity gate
    rng = make_rng(63)
    psi = random_state(3, rng)
    lhs = apply_parity_gate(psi, 0, [1, 2])
    h_all = psi
    for q in range(3):
        h_all = apply_1q(h_all, q, GATE_H)
    h_all = apply_fanout(h_all, 0, [1, 2])
    for q in range(3):
        h_all = apply_1q(h_all, q, GATE_H)
    assert np.allclose(lhs.amps, h_all.amps, atol=1e-10)


# ---- classification ----------------------------------------------------------

def test_classify_examples():
    rng = make_rng(64)
    psi = tensor(basis_state(1, 0), random_state(1, rng))
    assert classify_simplification({0, 1}, psi).disappears

    psi = tensor(basis_state(1, 1).to_float(), plus().to_float())
    out = classify_simplification({0, 1}, psi)
    assert out.simplifies and out.t == frozenset({1})

    pp = tensor(plus(), plus())
    assert classify_simplification({0, 1}, pp).kind == "none"


def test_classify_all_pinned_reports_global_phase():
    psi = basis_state(2, "11")
    out = classify_simplification({0, 1}, psi)
    assert out.simplifies and out.t == frozenset()


def test_classify_soundness_random():
    # applying the classified replacement matches applying the real gate
    rng = make_rng(65)
    tol = Tolerance(1e-8, 1e-8)
    for k in range(1000):
        r = int(rng.integers(1, 7))
        s = frozenset(int(q) for q in
                      rng.choice(r, size=int(rng.integers(1, r + 1)),
                                 replace=False))
        kind = k % 3
        if kind == 0:
            psi = random_state(r, rng)
        elif kind == 1:
            from qaclab.qstate import remove_ones_component
            psi = remove_ones_component(random_state(r, rng), s)
        else:
            pinned = basis_state(len(s), "1" * len(s)).to_float()
            rest = r - len(s)
            base = random_state(rest, rng) if rest else None
            psi = pinned if base is None else tensor(pinned, base, placement=s)
        gate = cz(*s)
        outcome = classify_simplification(s, psi, tol)
        direct = apply_multi(psi, gate)
        replaced = replacement_state(outcome, psi, gate)
        assert np.allclose(direct.amps, replaced.amps, atol=1e-8)


def test_semiclassical_examples():
    assert is_semiclassical(GATE_Z)
    assert is_semiclassical(GATE_X)
    assert is_semiclassical(GATE_I)
    assert not is_semiclassical(GATE_H)
    rng = make_rng(66)
    for _ in range(20):
        phase = np.exp(2j * np.pi * rng.random())
        g = Gate1q(phase * GATE_X.float_mat())
        assert is_semiclassical(g)


def test_pass_through():
    assert not target_is_pass_through(parity3_circuit())  # final H
    c = Circuit(2, 1, 0, single_layers=[{}, {0: GATE_Z}],
                multi_layers=[[cz(0, 1)]])
    assert target_is_pass_through(c)
    c = Circuit(2, 1, 0, single_layers=[{}, {}], multi_layers=[[cz(0, 1)]])
    assert target_is_pass_through(c)  # implicit identity


# ---- depth reduction ----------------------------------------------------------

def test_depth_reduce_case1():
    # no last-layer gate on the target: stripping the layer preserves the
    # target on every classical input
    rng = make_rng(67)
    for _ in range(10):
        singles = [{q: Gate1q(random_unitary(2, rng)) for q in range(4)}
                   for _ in range(3)]
        c = Circuit(4, 3, 0, single_layers=singles,
                    multi_layers=[[cz(0, 1), cz(2, 3)], [cz(1, 2, 3)]])
        reduced = depth_reduce(c)
        assert reduced.depth == 1
        for idx in range(16):
            bits = format(idx, "04b")
            rho_a = target_density(simulate(c, basis_state(4, bits).to_float()))
            rho_b = target_density(simulate(reduced, basis_state(4, bits).to_float()))
            assert np.max(np.abs(rho_a - rho_b)) < 1e-10


def test_depth_reduce_case2_pass_through():
    # H.CZ{0,1}.H drives the target to |x1|, the second layer's gate on
    # the target then acts classically, X stays semiclassical at the end
    c = Circuit(
        3, 2, 0,
        single_layers=[{0: GATE_H}, {0: GATE_H}, {0: GATE_X}],
        multi_layers=[[cz(0, 1)], [cz(0, 2)]],
    )
    assert target_is_pass_through(c)
    reduced = depth_reduce(c)
    assert reduced.depth == 1
    for idx in range(8):
        bits = format(idx, "03b")
        rho_a = target_density(simulate(c, basis_state(3, bits).to_float()))
        rho_b = target_density(simulate(reduced, basis_state(3, bits).to_float()))
        assert np.max(np.abs(rho_a - rho_b)) < 1e-10
    # the computed bit is preserved: target ends in NOT(x1)
    ok, _ = computes_parity_on_basis(c)
    assert not ok  # it computes the complement, not parity itself


def test_depth_reduce_rejects_parity3():
    with pytest.raises(DepthReduceError):
        depth_reduce(parity3_circuit())


def test_depth_reduce_needs_depth_2():
    c = Circuit(2, 1, 0, single_layers=[{}, {}], multi_layers=[[cz(0, 1)]])
    with pytest.raises(DepthReduceError):
        depth_reduce(c)


# ---- parity checking -----------------------------------------------------------

def test_parity3_computes_parity():
    ok, counterexample = computes_parity_on_basis(parity3_circuit())
    assert ok and counterexample is None


def test_identity_circuit_fails_parity():
    c = Circuit(2, 1, 0, single_layers=[{}, {}], multi_layers=[[]])
    ok, counterexample = computes_parity_on_basis(c)
    assert not ok and counterexample == "1"


def test_parity3_with_deleted_layer_fails():
    c = parity3_circuit()
    broken = Circuit(4, 3, 0,
                     single_layers=c.single_layers[:2] + [{}],
                     multi_layers=[c.multi_layers[0], []])
    ok, counterexample = computes_parity_on_basis(broken)
    assert not ok and counterexample is not None


def test_layer_disjointness_enforced():
    from qaclab.circuit import CircuitValidationError
    with pytest.raises(CircuitValidationError):
        Circuit(3, 2, 0, single_layers=[{}, {}],
                multi_layers=[[cz(0, 1), cz(1, 2)]])


def test_entanglement_lemma_spot_checks():
    # an unsimplified gate on a product state entangles its qubit set
    from qaclab.qstate import is_S_separable
    rng = make_rng(68)
    tol = Tolerance(1e-8, 1e-8)
    hits = 0
    for k in range(200):
        r = int(rng.integers(2, 6))
        s_size = int(rng.integers(2, r + 1))
        s = frozenset(int(q) for q in rng.choice(r, size=s_size, replace=False))
        a = frozenset(q for q in range(r) if rng.random() < 0.5)
        b = frozenset(range(r)) - a
        if not a or not b or not (a & s) or not (b & s):
            continue
        psi = tensor(random_state(len(a), rng), random_state(len(b), rng),
                     placement=a)
        if classify_simplification(s, psi, tol).kind != "none":
            continue
        hits += 1
        phi = apply_multi(psi, cz(*s))
        assert not is_S_separable(phi, s, tol)[0]
        eta = complex(np.exp(2j * np.pi * rng.random()))
        phi_eta = apply_multi(psi, geta(eta, *s))
        assert not is_S_separable(phi_eta, s, tol)[0]
    assert hits > 50
