from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaclab import qstate
from qaclab.circuit import GATE_H, apply_1q
from qaclab.numerics import DEFAULT_TOL, Exact, Tolerance, make_rng, to_float
from qaclab.qstate import (
    RegisterSizeError,
    StateVector,
    basis_state,
    bipartitions,
    cut_matrix,
    cut_stack,
    dense_rank_le_1,
    format_state,
    is_S_separable,
    linked_classes,
    ones_projection_norm,
    parse_state,
    product_state,
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


def test_cut_matrix_layout():
    # entry [i, j] is t at the bits of i on A and of j on B, least axis
    # most significant on each side
    t = np.arange(16).reshape([2] * 4)
    m = cut_matrix(t, {3, 1}, {0, 2})
    for i in range(4):
        for j in range(4):
            idx = [0] * 4
            idx[1], idx[3] = i >> 1, i & 1
            idx[0], idx[2] = j >> 1, j & 1
            assert m[i, j] == t[tuple(idx)]
    assert cut_matrix(t, set(), range(4)).shape == (1, 16)
    assert cut_matrix(np.array(7), (), ()).tolist() == [[7]]


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


def sweep_bipartitions(r, require_split=None):
    """Reference enumeration: every subset by size, each pair kept once."""
    qubits = frozenset(range(r))
    seen = set()
    for size in range(1, r):
        for combo in combinations(range(r), size):
            a = frozenset(combo)
            key = frozenset((a, qubits - a))
            if key in seen:
                continue
            seen.add(key)
            if require_split is None or (a & require_split
                                         and (qubits - a) & require_split):
                yield a, qubits - a


def sweep_is_S_separable(psi, s, tol=DEFAULT_TOL):
    """Reference: the rank test at every cut splitting S, in order."""
    for a, b in sweep_bipartitions(psi.r, frozenset(s)):
        if separates_at(psi, a, b, tol)[0]:
            return True, (a, b)
    return False, None


def test_bipartitions_order():
    for r in range(2, 11):
        assert list(bipartitions(r)) == list(sweep_bipartitions(r))
        s = frozenset({0, r - 1})
        assert list(bipartitions(r, s)) == list(sweep_bipartitions(r, s))


@st.composite
def separability_cases(draw):
    """Products of 1-3 random factors on shuffled qubits (one factor is a
    Haar or dense exact state), with a random S of two or more qubits."""
    r = draw(st.integers(2, 7))
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_factors = draw(st.integers(1, min(3, r)))
    cuts = sorted(rng.choice(np.arange(1, r), n_factors - 1, replace=False))
    labels = [int(q) for q in rng.permutation(r)]
    pieces = []
    for lo, hi in zip([0, *cuts], [*cuts, r]):
        size = int(hi - lo)
        if not exact:
            factor = random_state(size, rng)
        elif draw(st.booleans()):
            factor = sparse_exact_state(size, rng)
        else:
            factor = random_exact_state(size, rng)
        pieces.append((labels[lo:hi], factor))
    amps = product_state(pieces).amps
    # a float product is also drawn blurred by noise near the tolerance,
    # where the singular-value rule of separates_at flips; the uniform
    # superposition is the noise that moves the pair matrices the most
    noise = 0.0 if exact else draw(st.sampled_from(
        [0.0, 0.0, 1e-10, 5e-10, 1e-9, 2e-9, 5e-9, 1e-8]))
    if noise and draw(st.booleans()):
        amps = amps + noise * random_state(r, rng).amps
    elif noise:
        amps = amps + noise * 2 ** (-r / 2)
    psi = StateVector(r, amps, normalized=False)
    s = frozenset(int(q) for q in rng.choice(r, draw(st.integers(2, r)),
                                             replace=False))
    return psi, s, [frozenset(qs) for qs, _ in pieces], noise


@settings(deadline=None, max_examples=200)
@given(separability_cases())
def test_is_S_separable_matches_sweep(case):
    psi, s, factors, noise = case
    assert is_S_separable(psi, s) == sweep_is_S_separable(psi, s)
    if noise:  # the blurred state need not split along the drawn factors
        return
    classes = linked_classes(psi.axes())
    assert all(any(c <= f for f in factors) for c in classes)
    if not psi.is_exact:  # Haar factors are entangled and linked throughout
        assert sorted(classes, key=min) == sorted(factors, key=min)


def fresh(psi):
    """An equal state that remembers no cut verdicts."""
    if psi.is_exact:
        return StateVector.from_numerators(psi.r, psi.num, psi.den, psi.normalized)
    return StateVector(psi.r, psi.amps, psi.normalized)


@settings(deadline=None, max_examples=150)
@given(separability_cases(), st.data())
def test_cut_verdicts_do_not_depend_on_the_route(case, data):
    # every cut in random order, either side first, now and then at a
    # second tolerance (which replaces the remembered verdicts): its flag,
    # and the factor bytes of a separating cut, are those it gets asked
    # alone of a fresh copy, whether decided alone or in a stacked pass
    psi = case[0]
    tols = [DEFAULT_TOL] * 4 + [Tolerance(1e-8, 1e-8)]
    for a, b in data.draw(st.permutations(list(bipartitions(psi.r)))):
        if data.draw(st.booleans()):
            a, b = b, a
        tol = data.draw(st.sampled_from(tols))
        flag, factors = separates_at(psi, a, b, tol)
        want, want_factors = separates_at(fresh(psi), a, b, tol)
        assert flag == want
        if flag:
            assert ([f.amps.tobytes() for f in factors]
                    == [f.amps.tobytes() for f in want_factors])


def test_exact_cut_tests_never_go_float(exact_stays_exact):
    rng = make_rng(43)
    checked = 0
    while checked < 20:
        psi = random_exact_state(int(rng.integers(2, 7)), rng)
        cuts = list(bipartitions(psi.r))
        if any(dense_rank_le_1(cut_stack(psi.stack(), a, b)) for a, b in cuts):
            continue  # a separating cut's factors come from a float SVD
        assert all(separates_at(psi, a, b) == (False, None) for a, b in cuts)
        s = rng.choice(psi.r, int(rng.integers(2, psi.r + 1)), replace=False)
        assert is_S_separable(psi, s) == (False, None)
        checked += 1
    # the guard is live
    with pytest.raises(AssertionError, match="exact route"):
        basis_state(1, "1").to_float()
    with pytest.raises(AssertionError, match="exact route"):
        complex(Exact.ONE)


def test_linked_classes_threshold():
    # amplitudes [[1, 1], [1, 1 + d]]: det d, against a float bound of 8.4e-9
    for d, linked in ((1e-6, True), (1e-12, False)):
        psi = StateVector(2, np.array([1, 1, 1, 1 + d]), normalized=False)
        assert (len(linked_classes(psi.axes())) == 1) == linked
    tiny = Exact(Fraction(1, 10**12))
    psi = StateVector(2, np.array([Exact.ONE, Exact.ONE, Exact.ONE,
                                   Exact.ONE + tiny], dtype=object))
    assert linked_classes(psi.axes()) == [frozenset({0, 1})]


def test_linked_classes_refuses_a_bare_integer_array():
    # an integer [2]*v array would read axis 0 as the component axis
    t = np.ones([2] * 3, dtype=np.int64)
    with pytest.raises(ValueError, match="stack"):
        linked_classes(t)
    t[1, 1, 1] = 2  # every pair's summed matrix is [[2, 2], [2, 3]]
    assert linked_classes(t[None]) == [frozenset(range(3))]
    assert linked_classes(np.ones([1] + [2] * 3, dtype=object)) == \
        [frozenset({q}) for q in range(3)]


def test_exact_links_widen_past_the_int64_bound():
    # a product with entries near 2^60: its sum (2^21 + 1)^3 passes 2^63,
    # and a wrapped sum would make every pair determinant nonzero
    u = np.array([1 << 20, (1 << 20) + 1], dtype=np.int64)
    t = np.multiply.outer(np.multiply.outer(u, u), u)
    assert linked_classes(t[None]) == [frozenset({q}) for q in range(3)]
    t[1, 1, 1] += 1
    assert linked_classes(t[None]) == [frozenset(range(3))]


def test_float_links_never_hide_a_separating_cut():
    # |00>(c|0> - s|1>) + 1e-9 |11>|+>: the cut {0} | {1, 2} passes the
    # singular-value rule, so det = 1.4e-10 at the all-ones point of the
    # pair (0, 1) is within what that rule lets through and must not link
    c = (0.1 + np.sqrt(1.99)) / 2
    t = np.zeros((2, 2, 2), dtype=complex)
    t[0, 0] = [c, 0.1 - c]
    t[1, 1] = 1e-9 / np.sqrt(2)
    psi = StateVector(3, t.reshape(-1))
    assert separates_at(psi, {0}, {1, 2})[0]
    witness = (frozenset({0}), frozenset({1, 2}))
    assert sweep_is_S_separable(psi, {0, 1}) == (True, witness)
    assert is_S_separable(psi, {0, 1}) == (True, witness)


def record_calls(monkeypatch, name):
    calls = []
    fn = getattr(qstate, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(qstate, name, recorded)
    return calls


def test_missed_links_keep_the_sweep_verdict():
    # |-> on qubit 2 sums to zero, so every pair matrix at the all-ones
    # point vanishes and even the Bell pair on {0, 1} is not linked
    bell = StateVector(2, np.array([Exact.INV_SQRT2, Exact.ZERO, Exact.ZERO,
                                    Exact.INV_SQRT2], dtype=object))
    minus = apply_1q(basis_state(1, 1), 0, GATE_H)
    psi = tensor(bell, minus)
    assert linked_classes(psi.axes()) == [frozenset({q}) for q in range(3)]
    witness = (frozenset({2}), frozenset({0, 1}))
    for state in (psi, psi.to_float()):
        assert is_S_separable(state, {0, 1}) == (False, None)
        assert is_S_separable(state, {0, 2}) == (True, witness)

    # |00> - |11> on {0, 1} sums to zero: the all-ones point links 0 and 1
    # but not the Bell pair on {2, 3}
    anti = StateVector(2, np.array([Exact.ONE, Exact.ZERO, Exact.ZERO,
                                    Exact.MINUS_ONE], dtype=object))
    psi = tensor(anti, bell)
    assert linked_classes(psi.axes()) == [frozenset({0, 1}), frozenset({2}),
                                          frozenset({3})]
    for state in (psi, psi.to_float()):
        for s in ({2, 3}, {1, 2}):
            assert is_S_separable(state, s) == sweep_is_S_separable(state, s)


def test_is_S_separable_twelve_qubits(monkeypatch):
    rng = make_rng(49)
    confirmed = record_calls(monkeypatch, "separates_at")
    assert is_S_separable(random_state(12, rng), {0, 1}) == (False, None)
    assert not confirmed  # S lies in one class: no cut is confirmed

    a = frozenset({0, 3, 4, 7, 9})
    b = frozenset(range(12)) - a
    psi = random_product_state(a, b, rng)
    ok, witness = is_S_separable(psi, {0, 11})
    assert ok and witness == (a, b)
    assert len(confirmed) == 1  # the one union of classes splitting S
    assert separates_at(psi, *witness)[0]


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
    amps = random_exact_state(r, rng).amps.copy()
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


def field_exact_state(r, rng, scale=1):
    """Exact state with sqrt2, i and i sqrt2 components (halves on the
    sqrt2 parts), about half of the amplitudes zero, all times ``scale``."""
    amps = np.empty(1 << r, dtype=object)
    for i, (a, b, c, d) in enumerate(rng.integers(-2, 3, size=(1 << r, 4))):
        amps[i] = Exact(int(a), Fraction(int(b), 2), int(c), Fraction(int(d), 2)) * scale
    amps[rng.random(1 << r) < 0.5] = Exact.ZERO
    return StateVector(r, amps, normalized=False)


def object_rank_le_1(mat):
    """The rank-1 test on an object matrix of ``Exact``: every 2x2 minor
    vanishes."""
    return all((mat[i, j] * mat[k, l] - mat[i, l] * mat[k, j]).is_zero
               for i, k in combinations(range(mat.shape[0]), 2)
               for j, l in combinations(range(mat.shape[1]), 2))


def summed_link_classes(t):
    """Pair links by their definition on an array of ``Exact``: sum t over
    every other axis and link i and j when that 2x2 determinant is not
    zero; the classes are the components of the links."""
    classes = [{q} for q in range(t.ndim)]
    for i, j in combinations(range(t.ndim), 2):
        m = t.sum(axis=tuple(q for q in range(t.ndim) if q not in (i, j)))
        ci, cj = (next(c for c in classes if q in c) for q in (i, j))
        if ci is not cj and not (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).is_zero:
            ci |= cj
            classes.remove(cj)
    return sorted(map(frozenset, classes), key=min)


@settings(deadline=None, max_examples=120)
@given(st.integers(2, 6), st.sampled_from([1, 2**40, 2**70]),
       st.integers(0, 2**32 - 1))
def test_exact_kernels_match_object_arrays(r, scale, seed):
    # tensor, pair links and cut tests run on the integer numerators; the
    # same operations on object arrays of Exact are the reference
    rng = np.random.default_rng(seed)
    a = frozenset(int(q) for q in rng.choice(r, int(rng.integers(1, r)), replace=False))
    u = field_exact_state(len(a), rng, scale)
    v = field_exact_state(r - len(a), rng)
    psi = tensor(u, v, placement=a)
    want = np.moveaxis(np.multiply.outer(u.axes(), v.axes()), range(r),
                       sorted(a) + sorted(frozenset(range(r)) - a))
    assert psi.is_exact and all(x == y for x, y in zip(psi.amps, want.reshape(-1)))
    for state in (psi, field_exact_state(r, rng, scale)):
        assert linked_classes(state) == linked_classes(state.axes()) == \
            summed_link_classes(state.axes())
        for c, d in bipartitions(r):
            assert separates_at(state, c, d)[0] == \
                object_rank_le_1(cut_matrix(state.axes(), c, d))


def test_exact_amps_are_read_only():
    psi = tensor(random_exact_state(2, make_rng(3)), basis_state(1, 1))
    for target in (psi.amps, psi.num):
        with pytest.raises(ValueError):
            target[0] = target[1]
    assert psi.amps is psi.amps  # built once


def test_float_amps_are_read_only_once_a_cut_verdict_is_kept():
    # a write would leave the remembered verdicts stale
    psi = random_state(4, make_rng(4))
    separates_at(psi, {0}, {1, 2, 3})
    for target in (psi.amps, psi.axes(), psi.stack()):
        with pytest.raises(ValueError):
            target.flat[0] = 0


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


def test_float_product_state_matches_index_loop():
    # every arrangement of labels over pieces of sizes (2, 1, 1), among
    # them involutions such as [1, 0, ...], whose argsort is themselves
    rng = make_rng(38)
    pieces_states = [random_state(2, rng), random_state(1, rng),
                     basis_state(1, "1")]  # an exact piece is taken as floats
    for perm in map(list, permutations(range(4))):
        pieces = [(perm[:2], pieces_states[0]), (perm[2:3], pieces_states[1]),
                  (perm[3:], pieces_states[2])]
        # each piece's amplitude at every index, multiplied as arrays:
        # numpy scalar products can round differently from array ones
        factors = [np.array([st_.to_float().amps[int("".join(bits[q] for q in qs), 2)]
                             for bits in (format(idx, "04b") for idx in range(16))])
                   for qs, st_ in pieces]
        want = factors[0] * factors[1] * factors[2]
        got = product_state(pieces)
        assert not got.is_exact and got.amps.tobytes() == want.tobytes()
    # one piece in order: the state's amplitudes, not shared with it
    psi = random_state(3, rng)
    one = product_state([([0, 1, 2], psi)])
    assert one.amps.tobytes() == psi.amps.tobytes()
    assert not np.shares_memory(one.amps, psi.amps)


def test_float_norm_is_l2():
    rng = make_rng(39)
    for r in range(1, 6):
        psi = StateVector(r, 3 * random_state(r, rng).amps, normalized=False)
        assert psi.norm() == qstate.l2(psi.amps)
        assert abs(psi.norm() - np.sqrt(np.sum(np.abs(psi.amps) ** 2))) <= 1e-14


def test_batched_states_and_products_match_single_ones():
    # a batch draws the stream of single draws, and its products with a
    # state on either side of the tensor are the single products, bit for bit
    rng = make_rng(44)
    for r in range(2, 8):
        m = int(rng.integers(1, r))
        seed = int(rng.integers(2**32))
        batch = random_state(m, make_rng(seed), count=5)
        draws = make_rng(seed)
        singles = [random_state(m, draws) for _ in range(5)]
        assert [x.amps.tobytes() for x in batch] == [x.amps.tobytes() for x in singles]
        other = random_state(r - m, rng)
        placement = [int(q) for q in rng.choice(r, m, replace=False)]
        rest = [q for q in range(r) if q not in placement]
        for pairs, want in ((tensor(batch, other, placement),
                             [tensor(x, other, placement) for x in singles]),
                            (tensor(other, batch, rest),
                             [tensor(other, x, rest) for x in singles])):
            assert [x.amps.tobytes() for x in pairs] == [x.amps.tobytes() for x in want]
    with pytest.raises(ValueError, match="float"):
        tensor([basis_state(1, 0)], batch[0])
    with pytest.raises(ValueError, match="one piece"):
        product_state([([0], batch), ([1], batch)])


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
    with pytest.raises(StateParseError, match="line 3: repeated bitstring 0") as err:
        parse_state("0 1 0\n# a comment\n0 0 1\n")
    assert err.value.kind == "duplicate-entry"
