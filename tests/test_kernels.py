"""The bit-axis state kernels against explicit index loops.

Every reference below walks the 2^r basis indices one by one, reading
qubit q as bit r-1-q of the index, and shares no code with the kernels.
Exact results must be equal under ``==``; float results agree within
``DEFAULT_TOL``.
"""
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from qaclab.circuit import (
    Circuit,
    Gate1q,
    MultiGate,
    apply_1q,
    apply_cnot,
    apply_multi,
)
from qaclab.numerics import DEFAULT_TOL, Exact, random_unitary
from qaclab.parity import product_initial, subset_parity_mass
from qaclab.qstate import (
    StateVector,
    ones_component_is_zero,
    ones_projection_norm,
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


@st.composite
def gates(draw):
    if draw(st.booleans()):
        return Gate1q.named(draw(st.sampled_from("IXYZH")))
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


@given(states(), st.data())
@settings(max_examples=80, deadline=None)
def test_apply_1q(psi, data):
    r = psi.r
    q = data.draw(st.integers(0, r - 1))
    gate = data.draw(gates())
    exact = psi.is_exact and gate.is_exact
    m = gate.mat if exact else gate.float_mat()
    a = psi.amps if exact else [complex(x) for x in psi.amps]
    want = []
    for i in range(1 << r):
        i0 = i & ~(1 << (r - 1 - q))
        i1 = i0 | (1 << (r - 1 - q))
        row = bit(i, r, q)
        want.append(m[row, 0] * a[i0] + m[row, 1] * a[i1])
    got = apply_1q(psi, q, gate)
    assert got.is_exact == exact
    assert_same(got.amps, want)


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
    e = eta if exact else complex(eta)
    want = [e * a[i] if all(bit(i, r, q) for q in qubits) else a[i]
            for i in range(1 << r)]
    got = apply_multi(psi, gate)
    assert got.is_exact == exact
    assert_same(got.amps, want)


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
