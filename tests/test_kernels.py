"""The bit-axis state kernels against explicit index loops.

Every reference below walks the 2^r basis indices one by one, reading
qubit q as bit r-1-q of the index, and shares no code with the kernels.
Exact results must be equal under ``==``; float results agree within
``DEFAULT_TOL``.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaclab import circuit as circuit_mod, harness
from qaclab.circuit import (
    DISAPPEARS,
    GATE_H,
    NO_SIMPLIFICATION,
    Circuit,
    Gate1q,
    MultiGate,
    SimplificationOutcome,
    _phase_op,
    apply_1q,
    apply_cnot,
    apply_multi,
    classify_simplification,
    computes_parity_on_basis,
    cz,
    simulate,
    simulate_all,
)
from qaclab.numerics import (
    DEFAULT_TOL,
    INT64_SAFE,
    Exact,
    Tolerance,
    random_unitary,
    widened,
)
from qaclab.parity import product_initial, subset_parity_mass
from qaclab.qstate import (
    _BATCH_AMPS,
    StateVector,
    basis_state,
    bit_index,
    l2,
    ones_component_is_zero,
    ones_projection_norm,
    product_state,
    remove_ones_component,
    tensor,
)

MAX_R = 7


def bit(i, r, q):
    return (i >> (r - 1 - q)) & 1


def sub_index(i, r, qubits):
    """Index within a sub-register: the bits of i at ``qubits``, in order."""
    out = 0
    for q in qubits:
        out = (out << 1) | bit(i, r, q)
    return out


def make_amps(rng, r, exact, zero_prob):
    """Random amplitudes, each zero with probability ``zero_prob``."""
    n = 1 << r
    zero = rng.random(n) < zero_prob
    if exact:
        amps = np.empty(n, dtype=object)
        for i, (a, b, c, d) in enumerate(rng.integers(-2, 3, size=(n, 4))):
            amps[i] = Exact.ZERO if zero[i] else Exact(int(a), Fraction(int(b), 2),
                                                       int(c), int(d))
        return amps
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps[zero] = 0
    return amps


@st.composite
def states(draw, min_r=1, max_r=MAX_R, exact=None):
    r = draw(st.integers(min_r, max_r))
    exact = draw(st.booleans()) if exact is None else exact
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_prob = draw(st.sampled_from((0.0, 0.5)))
    return StateVector(r, make_amps(rng, r, exact, zero_prob), normalized=False)


def phase_gate(eta):
    return Gate1q(np.array([[Exact.ONE, Exact.ZERO], [Exact.ZERO, eta]],
                           dtype=object))


#: Exact phases: i, -i, (1+i)/sqrt2, and (3+4i)/5, whose denominator is
#: not a power of two.
PHASES = (Exact.I, -Exact.I, Exact(0, Fraction(1, 2), 0, Fraction(1, 2)),
          Exact(Fraction(3, 5), 0, Fraction(4, 5)))

#: Factors of the exact products: the named gates and the phase gates.
FACTORS = [Gate1q.named(name) for name in "IXYZHST"] + [phase_gate(e) for e in PHASES]


@st.composite
def exact_gates(draw):
    """A named gate, or a product of up to four exact factors; products
    have entries such as (1 +- i)/2 and (3 + 4i)/(5 sqrt2)."""
    if draw(st.booleans()):
        return Gate1q.named(draw(st.sampled_from("IXYZHST")))
    product = draw(st.lists(st.sampled_from(FACTORS), min_size=2, max_size=4))
    gate = product[0]
    for factor in product[1:]:
        gate = factor.compose_after(gate)
    return gate


@st.composite
def gates(draw):
    if draw(st.booleans()):
        return draw(exact_gates())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Gate1q(random_unitary(2, rng))


def subsets(r):
    return st.lists(st.integers(0, r - 1), unique=True, max_size=r)


def assert_same(got, want):
    """Exact results equal, float results within DEFAULT_TOL."""
    want = list(want)
    assert len(got) == len(want)
    if got.dtype == object:
        assert all(isinstance(w, Exact) for w in want)
        assert all(g == w for g, w in zip(got, want))
    else:
        assert all(DEFAULT_TOL.close(complex(g), complex(w))
                   for g, w in zip(got, want))


def reference_1q(a, r, q, m):
    want = []
    for i in range(1 << r):
        i0 = i & ~(1 << (r - 1 - q))
        i1 = i0 | (1 << (r - 1 - q))
        row = bit(i, r, q)
        want.append(m[row, 0] * a[i0] + m[row, 1] * a[i1])
    return want


def reference_multi(a, r, qubits, eta):
    return [eta * a[i] if all(bit(i, r, q) for q in qubits) else a[i]
            for i in range(1 << r)]


@given(states(), st.data())
@settings(max_examples=80, deadline=None)
def test_apply_1q(psi, data):
    r = psi.r
    q = data.draw(st.integers(0, r - 1))
    gate = data.draw(gates())
    exact = psi.is_exact and gate.is_exact
    m = gate.mat if exact else gate.float_mat()
    a = psi.amps if exact else [complex(x) for x in psi.amps]
    got = apply_1q(psi, q, gate)
    assert got.is_exact == exact
    assert_same(got.amps, reference_1q(a, r, q, m))


@pytest.mark.parametrize("r", (8, 10, 12))
def test_apply_1q_on_wide_float_states(r):
    # the float kernel picks its matmul by where the qubit sits, so every
    # qubit of a wide register is tried, the last one included
    rng = np.random.default_rng(r)
    psi = StateVector(r, make_amps(rng, r, False, 0.0), normalized=False)
    a = [complex(x) for x in psi.amps]
    for gate in (Gate1q(random_unitary(2, rng)), GATE_H):
        for q in range(r):
            got = apply_1q(psi, q, gate)
            assert not got.is_exact
            assert_same(got.amps, reference_1q(a, r, q, gate.float_mat()))


@given(states(exact=False), st.data())
@settings(max_examples=60, deadline=None)
def test_l2_is_numpy_norm(psi, data):
    qubits = data.draw(subsets(psi.r))
    t = psi.axes()
    half = t[bit_index(psi.r, qubits, data.draw(st.integers(0, 1)))]
    for x in (psi.amps, t, t.real, half):
        assert l2(x) == np.linalg.norm(x)


def reference_classify(s, psi, tol):
    """The float rule of ``classify_simplification``, the threshold taken
    anew for the S-ones test and for each qubit's zero half."""
    t = psi.axes()

    def vanishes(qubits, b):
        norm = np.linalg.norm(t[bit_index(psi.r, qubits, b)])
        return norm <= tol.threshold(psi.norm())

    if vanishes(s, 1):
        return DISAPPEARS
    pinned = frozenset(q for q in s if vanishes((q,), 0))
    return SimplificationOutcome("simplifies", frozenset(s) - pinned) if pinned \
        else NO_SIMPLIFICATION


@st.composite
def pinned_and_avoiding(draw):
    """A float state of pinned qubits (|1> plus noise on |0>), maybe a
    2-qubit factor avoiding |11> (plus noise there) and a random rest,
    placed on shuffled labels and scaled; noise sizes straddle the
    thresholds of ``tol`` below."""
    r = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(st.permutations(range(r)))
    n_pinned = draw(st.integers(0, r))
    avoiding = r - n_pinned >= 2 and draw(st.booleans())
    pieces = []
    for q in labels[:n_pinned]:
        noise = draw(st.sampled_from((0.0, 1e-9, 1e-8, 1e-7)))
        pieces.append(([q], StateVector(1, [noise, 1.0], normalized=False)))
    rest = labels[n_pinned:]
    if avoiding:
        amps = make_amps(rng, 2, False, 0.0)
        amps[3] = draw(st.sampled_from((0.0, 1e-9, 1e-8, 1e-7)))
        pieces.append((rest[:2], StateVector(2, amps, normalized=False)))
        rest = rest[2:]
    if rest:
        amps = make_amps(rng, len(rest), False, 0.0)
        pieces.append((rest, StateVector(len(rest), amps, normalized=False)))
    psi = product_state(pieces, normalized=False)
    scale = draw(st.sampled_from((1.0, 1e-3, 40.0)))
    s = draw(st.lists(st.integers(0, r - 1), unique=True, min_size=1, max_size=r))
    return s, StateVector(r, psi.amps * scale, normalized=False)


@given(pinned_and_avoiding())
@settings(max_examples=120, deadline=None)
def test_float_classify_matches_per_qubit_rule(case):
    s, psi = case
    tol = Tolerance(abs_eps=1e-8, rel_eps=1e-8)
    assert classify_simplification(s, psi, tol) == reference_classify(s, psi, tol)


@given(states(), st.data())
@settings(max_examples=80, deadline=None)
def test_apply_multi(psi, data):
    r = psi.r
    qubits = data.draw(subsets(r))
    gate = data.draw(st.sampled_from((
        MultiGate(frozenset(qubits), "cz"),
        MultiGate(frozenset(qubits), "geta", Exact.I),
        MultiGate(frozenset(qubits), "geta", np.exp(0.7j)))))
    eta = gate.eta
    exact = psi.is_exact and isinstance(eta, Exact)
    a = psi.amps if exact else [complex(x) for x in psi.amps]
    got = apply_multi(psi, gate)
    assert got.is_exact == exact
    assert_same(got.amps, reference_multi(a, r, qubits, eta if exact else complex(eta)))


@st.composite
def exact_inputs(draw, r):
    """Exact amplitudes over denominators 1, 2 or 3, some of them zero.
    Scaled, the numerators sit near 2^61, where one gate can leave int64,
    or past 2^64, where the input itself does not fit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    den = draw(st.sampled_from((1, 2, 3)))
    scale = draw(st.sampled_from((1, 2**61 + 3, 2**64 + 1)))
    amps = np.empty(1 << r, dtype=object)
    for i, parts in enumerate(rng.integers(-1, 2, size=(1 << r, 4))):
        amps[i] = Exact(*(Fraction(int(p) * scale, den) for p in parts))
    amps[rng.random(1 << r) < 0.3] = Exact.ZERO
    return StateVector(r, amps, normalized=draw(st.booleans()))


@st.composite
def exact_circuits(draw):
    r = draw(st.integers(1, 6))
    depth = draw(st.integers(0, 3))
    singles = [draw(st.dictionaries(st.integers(0, r - 1), exact_gates(), max_size=r))
               for _ in range(depth + 1)]
    multis = []
    for _ in range(depth):
        order = draw(st.permutations(range(r)))
        cuts = sorted(draw(st.sets(st.integers(1, r), max_size=3)) | {0, r})
        layer = []
        for lo, hi in zip(cuts, cuts[1:]):
            eta = draw(st.sampled_from((None,) + PHASES))
            qubits = frozenset(order[lo:hi])
            layer.append(MultiGate(qubits, "cz") if eta is None
                         else MultiGate(qubits, "geta", eta))
        multis.append(draw(st.lists(st.sampled_from(layer), unique=True)))
    return Circuit(r, r - 1, 0, singles, multis)


@given(exact_circuits(), st.data(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_simulate_exact_matches_index_loops(circuit, data, trace):
    r = circuit.r
    psi = data.draw(exact_inputs(r))
    a = list(psi.amps)
    want = []
    for i in range(circuit.depth + 1):
        for q, gate in sorted(circuit.single_layers[i].items()):
            a = reference_1q(a, r, q, gate.mat)
        want.append((i + 0.5, a))
        if i < circuit.depth:
            for gate in circuit.multi_layers[i]:
                a = reference_multi(a, r, gate.qubits, gate.eta)
            want.append((i + 1.0, a))
    out = simulate(circuit, psi, trace=trace)
    final, steps = out if trace else (out, [])
    for got in [final] + [st_ for _, st_ in steps]:
        assert got.is_exact and got.normalized == psi.normalized
    assert_same(final.amps, a)
    if trace:
        assert [label for label, _ in steps] == [label for label, _ in want]
        for (_, got), (_, amps) in zip(steps, want):
            assert_same(got.amps, amps)


def test_exact_simulation_matches_oracle_on_1000_circuits():
    # seeded circuits of named, phase and product gates, so denominators of
    # 2, sqrt2 and 5 arise, from inputs whose numerators reach past 2^64
    rng = np.random.default_rng(12)
    for k in range(1000):
        r = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 3))
        singles = [{q: FACTORS[int(rng.integers(len(FACTORS)))]
                    for q in range(r) if rng.random() < 0.6} for _ in range(depth + 1)]
        multis = []
        for _ in range(depth):
            qubits = frozenset(q for q in range(r) if rng.random() < 0.6)
            eta = int(rng.integers(len(PHASES) + 1))
            multis.append([MultiGate(qubits, "cz") if eta == len(PHASES)
                           else MultiGate(qubits, "geta", PHASES[eta])])
        circuit = Circuit(r, r - 1, 0, singles, multis)
        scale = (1, 2**61 + 3, 2**64 + 1)[k % 3]
        amps = make_amps(rng, r, True, 0.3) * Exact(scale)
        a = list(amps)
        for i in range(depth + 1):
            for q, gate in sorted(singles[i].items()):
                a = reference_1q(a, r, q, gate.mat)
            if i < depth:
                for gate in multis[i]:
                    a = reference_multi(a, r, gate.qubits, gate.eta)
        assert_same(simulate(circuit, StateVector(r, amps)).amps, a)


# ---- many states in one pass ----------------------------------------------------


@st.composite
def any_circuits(draw):
    """Exact or float circuits of depth 0 to 2 on r <= 7 qubits, up to
    three of them ancillas.  Float ones mix random unitaries with exact
    gates and CZ and geta with eta = e^0.7i."""
    r = draw(st.integers(1, MAX_R))
    m = draw(st.integers(0, min(3, r - 1)))
    exact = draw(st.booleans())
    depth = draw(st.integers(0, 2))
    gate = exact_gates() if exact else gates()
    singles = [draw(st.dictionaries(st.integers(0, r - 1), gate, max_size=r))
               for _ in range(depth + 1)]
    etas = (None,) + PHASES + (() if exact else (np.exp(0.7j),))
    multis = []
    for _ in range(depth):
        order = draw(st.permutations(range(r)))
        cuts = sorted(draw(st.sets(st.integers(1, r), max_size=3)) | {0, r})
        layer = []
        for lo, hi in zip(cuts, cuts[1:]):
            eta = draw(st.sampled_from(etas))
            qubits = frozenset(order[lo:hi])
            layer.append(MultiGate(qubits, "cz") if eta is None
                         else MultiGate(qubits, "geta", eta))
        multis.append(layer)
    return Circuit(r, r - 1 - m, m, singles, multis)


@st.composite
def state_lists(draw, r):
    """1 to 9 states, all exact, all float or mixed.  Exact ones lie over
    denominators 1, 2 or 3 (``exact_inputs``, some past int64) or 2 with
    sqrt2 parts (``make_amps``); normalization flags are mixed."""
    kind = draw(st.sampled_from(("exact", "float", "mixed")))
    out = []
    for _ in range(draw(st.integers(1, 9))):
        exact = kind == "exact" or kind == "mixed" and draw(st.booleans())
        if exact and draw(st.booleans()):
            out.append(draw(exact_inputs(r)))
            continue
        psi = draw(states(min_r=r, max_r=r, exact=exact))
        out.append(StateVector(r, psi.amps, normalized=draw(st.booleans())))
    return out


def assert_identical(got, want):
    """Same kind, register and flag; exact states equal in lowest terms,
    float amplitudes equal bit for bit (signed zeros included)."""
    assert (got.r, got.is_exact, got.normalized) == (want.r, want.is_exact, want.normalized)
    if want.is_exact:
        assert got.den == want.den and got.num.dtype == want.num.dtype
        assert np.array_equal(got.num, want.num)
        assert list(got.amps) == list(want.amps)
    else:
        assert np.array_equal(got.amps, want.amps)
        assert got.amps.tobytes() == want.amps.tobytes()


@given(any_circuits(), st.data())
@settings(max_examples=150, deadline=None)
def test_simulate_all_matches_simulate_state_by_state(circuit, data):
    inputs = data.draw(state_lists(circuit.r))
    got = simulate_all(circuit, inputs)
    assert len(got) == len(inputs)
    for psi, out in zip(inputs, got):
        assert_identical(out, simulate(circuit, psi))
        # an exact circuit keeps each state's kind: never demoted
        assert out.is_exact == (psi.is_exact and circuit.is_exact)


def test_simulate_all_crosses_the_batch_cap(monkeypatch):
    # five r = 12 states exceed the amplitude budget: they run as a batch
    # of four and a batch of one, exact and float alike
    r, rng = 12, np.random.default_rng(12)
    k = (_BATCH_AMPS >> r) + 1
    assert k * (1 << r) > _BATCH_AMPS
    sizes = []
    stacked = circuit_mod._stacked
    monkeypatch.setattr(circuit_mod, "_stacked",
                        lambda states: sizes.append(len(states)) or stacked(states))
    multis = [[MultiGate(frozenset(range(6)), "cz"),
               MultiGate(frozenset(range(6, r)), "geta", PHASES[3])]]
    exact = Circuit(r, r - 3, 2, [{q: FACTORS[q % len(FACTORS)] for q in range(r)},
                                  {q: GATE_H for q in range(0, r, 2)}], multis)
    floats = Circuit(r, r - 3, 2, [{q: Gate1q(random_unitary(2, rng)) for q in range(r)},
                                   {}], multis)
    for circuit, is_exact in ((exact, True), (floats, False)):
        inputs = [StateVector(r, make_amps(rng, r, is_exact, 0.5), normalized=False)
                  for _ in range(k)]
        sizes.clear()
        got = simulate_all(circuit, inputs)
        assert sizes == [k - 1, 1]
        for psi, out in zip(inputs, got):
            assert_identical(out, simulate(circuit, psi))


def parity_counterexample(circuit, ancilla, tol=DEFAULT_TOL):
    """The first classical input, in order, on which the final state has
    weight on the wrong target value: one ``simulate`` per input."""
    n, m = circuit.n_inputs, circuit.n_ancillas
    if ancilla is None and m:
        ancilla = basis_state(m, 0)
    for xi in range(1 << n):
        x = format(xi, f"0{n}b") if n else ""
        front = basis_state(1 + n, "0" + x)
        initial = front if ancilla is None else tensor(front, ancilla,
                                                       placement=range(1 + n))
        final = simulate(circuit, initial)
        wrong = [i for i in range(1 << circuit.r)
                 if bit(i, circuit.r, 0) != x.count("1") % 2]
        if final.is_exact:
            ok = all(final.amps[i] == Exact.ZERO for i in wrong)
        else:
            ok = np.linalg.norm(final.amps[wrong]) <= tol.threshold(1.0)
        if not ok:
            return False, x
    return True, None


#: Gates that map basis states to basis states up to a phase, one of
#: them a float phase gate.
SEMICLASSICAL = [Gate1q.named(name) for name in "IXZST"] + [
    Gate1q(np.diag([1, np.exp(0.3j)]))]


@st.composite
def parity_candidates(draw):
    """Depth-2 circuits on 1 to 3 inputs and 0 to 2 ancillas that keep
    every qubit classical but for the target's H . CZ{0, j} . H gadget
    (which copies x_j onto it, when drawn), so they fail parity on some
    inputs and not on others; with an ancilla state or none."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    r = 1 + n + m
    gate = st.sampled_from(SEMICLASSICAL)
    layers = [draw(st.dictionaries(st.integers(1, r - 1), gate, max_size=r - 1))
              for _ in range(3)]
    first, second = [], []
    if r > 2 and draw(st.booleans()):
        second.append(cz(*draw(st.sets(st.integers(1, r - 1), min_size=2, max_size=3))))
    if draw(st.booleans()):
        layers[0][0] = layers[1][0] = GATE_H
        first.append(cz(0, draw(st.integers(1, r - 1))))
    if draw(st.booleans()):
        layers[2][0] = draw(gate)
    circuit = Circuit(r, n, m, layers, [first, second])
    ancilla = None
    if m and draw(st.booleans()):
        ancilla = basis_state(m, draw(st.integers(0, (1 << m) - 1)),
                              exact=draw(st.booleans()))
    return circuit, ancilla


@given(parity_candidates())
@settings(max_examples=150, deadline=None)
def test_parity_check_finds_the_first_counterexample(case):
    circuit, ancilla = case
    assert computes_parity_on_basis(circuit, ancilla) == parity_counterexample(
        circuit, ancilla)


def test_phase_gates_build_their_constants_once(monkeypatch):
    # across 16 inputs, each geta gate object takes its float phase once
    # (CZ's is a constant) and each phase gate its exact operator once,
    # however many times it is applied
    phase_ops, floats = [], []

    def counted_phase_op(eta):
        phase_ops.append(eta)
        return _phase_op(eta)

    def counted_float(x):
        floats.append(x)
        return complex(x)

    def circuit():
        return Circuit(4, 3, 0, [{0: GATE_H, 2: GATE_H}, {2: GATE_H}, {0: GATE_H}],
                       [[cz(0, 1), MultiGate(frozenset({2, 3}), "geta", PHASES[3])],
                        [MultiGate(frozenset({0, 2}), "geta", Exact.I)]])

    monkeypatch.setattr(circuit_mod, "_phase_op", counted_phase_op)
    monkeypatch.setattr(circuit_mod, "to_float", counted_float)
    exact, floating = circuit(), circuit()
    for bits in range(16):
        simulate(exact, basis_state(4, bits))
        simulate(floating, basis_state(4, bits, exact=False))
    simulate_all(exact, [basis_state(4, bits) for bits in range(16)])
    assert len(phase_ops) == 3 and len(floats) == 4


#: The four units of the numerator components 1, sqrt2, i, i sqrt2.
UNITS = [Exact(*(int(k == c) for k in range(4))) for c in range(4)]

#: (3+4i)/5 to the 30th: a unit phase over 5^30 > 2^64, whose operators
#: hold Python ints.
BIG_PHASE = Exact(1)
for _ in range(30):
    BIG_PHASE = BIG_PHASE * PHASES[3]


def components(x):
    return [x.a, x.b, x.c, x.d]


def named_and_phase_gates():
    return [Gate1q.named(name) for name in "IXYZHST"] + [phase_gate(e) for e in PHASES]


def test_operator_table_matches_exact_products():
    # column (c, b) of a gate's operator is the gate applied to the unit
    # c on bit b, its components over g; a phase's 4x4 operator is eta
    # times each unit
    for gate in named_and_phase_gates():
        op, g, gain = gate._exact_op
        assert op.dtype == np.int64 and not op.flags.writeable
        assert gain == max(sum(abs(int(x)) for x in row) for row in op)
        for c, b in np.ndindex(4, 2):
            for row in range(2):
                parts = components(gate.mat[row, b] * UNITS[c])
                assert [op[2 * k + row, 2 * c + b] for k in range(4)] == [
                    x * g for x in parts]
    for key in (None,) + PHASES:  # None keys CZ's -1
        eta = Exact.MINUS_ONE if key is None else key
        op, g, gain = _phase_op(key)
        assert op.dtype == np.int64 and not op.flags.writeable
        assert gain == max(g, *(sum(abs(int(x)) for x in row) for row in op))
        for c in range(4):
            assert list(op[:, c]) == [x * g for x in components(eta * UNITS[c])]


def near_int64_state(rng, r):
    """An exact int64 state with numerators up to 3 * 2^60 + 3, within a
    factor 2 of ``INT64_SAFE``: a gate of gain >= 2 works on them as
    Python ints, and one of gain >= 3 can leave int64."""
    num = rng.integers(-3, 4, size=(4, 1 << r)) * (INT64_SAFE // 4)
    num += rng.integers(-3, 4, size=num.shape)
    num[rng.integers(4), rng.integers(1 << r)] = 3 * (INT64_SAFE // 4) + 1
    psi = StateVector.from_numerators(r, num, 1, normalized=False)
    assert psi.num.dtype == np.int64
    return psi


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_gates_past_int64_match_index_loops(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    r = data.draw(st.integers(1, 3))
    for gate in named_and_phase_gates() + [data.draw(exact_gates()), phase_gate(BIG_PHASE)]:
        psi = near_int64_state(rng, r)
        assert (widened(psi.num, gate._exact_op[2]).dtype == object) == (
            gate._exact_op[2] > 1)
        q = int(rng.integers(r))
        assert_same(apply_1q(psi, q, gate).amps, reference_1q(psi.amps, r, q, gate.mat))
    qubits = frozenset(q for q in range(r) if rng.random() < 0.6)
    for eta in (Exact.MINUS_ONE, BIG_PHASE) + PHASES:
        psi = near_int64_state(rng, r)
        got = apply_multi(psi, MultiGate(qubits, "cz") if eta is Exact.MINUS_ONE
                          else MultiGate(qubits, "geta", eta))
        assert_same(got.amps, reference_multi(psi.amps, r, qubits, eta))


def test_zero_state_under_large_gain_gates():
    # the operators of BIG_PHASE do not fit int64; the zero state's int64
    # numerators neither wrap nor turn into nonzero entries
    assert _phase_op(BIG_PHASE)[0].dtype == object
    assert phase_gate(BIG_PHASE)._exact_op[0].dtype == object
    zero = StateVector(3, [Exact.ZERO] * 8, normalized=False)
    outs = [apply_1q(zero, q, phase_gate(BIG_PHASE)) for q in range(3)]
    outs.append(apply_multi(zero, MultiGate(frozenset({0, 2}), "geta", BIG_PHASE)))
    for out in outs:
        assert out.num.dtype == np.int64 and not out.num.any() and out.den == 1
        assert all(a == Exact.ZERO for a in out.amps)


def test_tight_parity3_builds_each_operator_once(monkeypatch):
    # across the 16 basis inputs numerators runs at most once per
    # distinct gate object, however many times each gate is applied
    calls, circuits = [], []

    def counted(xs):
        calls.append(1)
        return numerators(xs)

    def recorded():
        circuits.append(parity3_circuit())
        return circuits[-1]

    numerators, parity3_circuit = circuit_mod.numerators, harness.parity3_circuit
    GATE_H.__dict__.pop("_exact_op", None)
    _phase_op.cache_clear()
    monkeypatch.setattr(circuit_mod, "numerators", counted)
    monkeypatch.setattr(harness, "parity3_circuit", recorded)
    assert harness.run_suite("tight-parity3").passed
    gates = {id(g) for c in circuits for layer in c.single_layers for g in layer.values()}
    gates |= {id(g) for c in circuits for layer in c.multi_layers for g in layer}
    assert len(circuits) == 16 and 0 < len(calls) <= len(gates)


def test_exact_zero_tests_never_call_exact_bool(monkeypatch):
    def refuse(self):
        raise AssertionError("Exact.__bool__ called")

    rng = np.random.default_rng(4)
    cases = [StateVector(4, make_amps(rng, 4, True, p)) for p in (0.0, 0.5, 0.9)]
    monkeypatch.setattr(Exact, "__bool__", refuse)
    cases.append(tensor(StateVector(2, make_amps(rng, 2, True, 0.5)),
                        StateVector(2, make_amps(rng, 2, True, 0.0))))
    for psi in cases:
        psi.to_float()
        list(psi.nonzero_items())
        for s in ({0}, {1, 2}, {0, 1, 2, 3}):
            ones_component_is_zero(psi, s)
            classify_simplification(s, psi)


@given(states(), st.data())
@settings(max_examples=60, deadline=None)
def test_apply_cnot(psi, data):
    r = psi.r
    control = data.draw(st.integers(0, r - 1))
    target = data.draw(st.integers(0, r - 1).filter(lambda t: t != control)
                       if r > 1 else st.just(control))
    want = []
    for i in range(1 << r):
        flip = (1 << (r - 1 - target)) if bit(i, r, control) and target != control else 0
        want.append(psi.amps[i ^ flip])
    assert_same(apply_cnot(psi, control, target).amps, want)


@given(states(max_r=4), states(max_r=3), st.data())
@settings(max_examples=80, deadline=None)
def test_tensor_any_placement(u, v, data):
    r = u.r + v.r
    placement = data.draw(st.permutations(range(r)))[:u.r]
    others = [q for q in range(r) if q not in placement]
    exact = u.is_exact and v.is_exact
    ua = u.amps if exact else [complex(x) for x in u.amps]
    va = v.amps if exact else [complex(x) for x in v.amps]
    want = [ua[sub_index(i, r, sorted(placement))] * va[sub_index(i, r, others)]
            for i in range(1 << r)]
    got = tensor(u, v, placement=placement)
    assert got.is_exact == exact
    assert_same(got.amps, want)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_product_initial_out_of_order_commitments(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, MAX_R - 1 - n))
    r = 1 + n + m
    circuit = Circuit(r, n, m, single_layers=[{}], multi_layers=[])
    inputs = data.draw(st.permutations(range(1, 1 + n)))
    committed = {}
    pos = 0
    while pos < len(inputs) and data.draw(st.booleans()):
        size = data.draw(st.integers(1, min(2, len(inputs) - pos)))
        qs = tuple(inputs[pos:pos + size])  # tuples not in increasing order
        committed[qs] = data.draw(states(min_r=size, max_r=size))
        pos += size
    ancilla = data.draw(states(min_r=m, max_r=m)) if m else None

    pieces = [((0,), [Exact.ONE, Exact.ZERO])]
    pieces += [(tuple(sorted(qs)), st_.amps) for qs, st_ in committed.items()]
    taken = {q for qs in committed for q in qs}
    pieces += [((q,), [Exact.ONE, Exact.ZERO]) for q in range(1, 1 + n) if q not in taken]
    if m:
        pieces.append((tuple(range(1 + n, r)), ancilla.amps))
    exact = all(s.is_exact for s in committed.values()) and (ancilla is None
                                                            or ancilla.is_exact)
    want = []
    for i in range(1 << r):
        val = None
        for qs, amps in pieces:
            a = amps[sub_index(i, r, qs)]
            a = a if exact else complex(a)
            val = a if val is None else val * a
        want.append(val)
    got = product_initial(circuit, committed, ancilla)
    assert got.is_exact == exact
    assert_same(got.amps, want)


@given(states(), st.data())
@settings(max_examples=80, deadline=None)
def test_projections(psi, data):
    r = psi.r
    s = data.draw(subsets(r))
    on_ones = [i for i in range(1 << r) if all(bit(i, r, q) for q in s)]
    if data.draw(st.booleans()):
        amps = psi.amps.copy()
        amps[on_ones] = Exact.ZERO if psi.is_exact else 0
        psi = StateVector(r, amps, normalized=False)

    norm = np.sqrt(sum(abs(complex(psi.amps[i])) ** 2 for i in on_ones))
    assert DEFAULT_TOL.close(ones_projection_norm(psi, s), norm)
    if psi.is_exact:
        want_zero = all(psi.amps[i].is_zero for i in on_ones)
    else:
        want_zero = norm <= DEFAULT_TOL.threshold(psi.norm())
    assert ones_component_is_zero(psi, s) == want_zero

    rest = [0j if i in on_ones else complex(psi.amps[i]) for i in range(1 << r)]
    rest_norm = np.sqrt(sum(abs(x) ** 2 for x in rest))
    if rest_norm > 1e-6:
        got = remove_ones_component(psi, s)
        assert not got.is_exact
        assert_same(got.amps, [x / rest_norm for x in rest])


@given(states(), st.data())
@settings(max_examples=80, deadline=None)
def test_subset_parity_mass(psi, data):
    r = psi.r
    qubits = data.draw(subsets(r))
    b = data.draw(st.integers(0, 1))
    want = sum(abs(complex(psi.amps[i])) ** 2 for i in range(1 << r)
               if sum(bit(i, r, q) for q in qubits) % 2 == b)
    got = subset_parity_mass(psi, qubits, b)
    assert DEFAULT_TOL.close(got, want)
    # the same masked sum over a mask built index by index: bit-identical
    mask = [sum(bit(i, r, q) for q in set(qubits)) % 2 == b for i in range(1 << r)]
    probs = np.abs(psi.to_float().axes()) ** 2
    assert got == float(np.sum(probs, where=np.reshape(mask, [2] * r)))
