import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qaclab
from qaclab import multilinear as ml
from qaclab.multilinear import (
    _extract_factors,
    _form,
    DecompositionBudgetError,
    MissingVariableError,
    MultilinearPoly,
    NotJustifyingError,
    bipartition_rank_oracle,
    decompose,
    evaluate,
    find_justifying_assignment,
    find_zero_justifying_assignment,
    format_poly,
    indecomposable_at_every_split,
    is_justifying,
    is_union_of_classes,
    mono,
    parse_poly,
    random_disjoint_product,
    random_multilinear_poly,
    restrict,
    sv_partition_test,
    var,
    variable_partition,
    variables_of,
)
from qaclab.numerics import (
    DEFAULT_TOL,
    Exact,
    Tolerance,
    approx_eq,
    make_rng,
    numerator_stack,
    random_scalar,
    sv_rank_le_1,
    to_float,
)
from qaclab.qstate import cut_matrix

X0, X1, X2 = var("x", "0"), var("x", "1"), var("x", "10")
Z0, Z1 = var("z", "0"), var("z", "1")


def poly(entries):
    return MultilinearPoly({frozenset(m): c for m, c in entries.items()})


def depends_on(f, v, probes):
    """Brute-force dependence test: two evaluations differing only at v."""
    for a in probes:
        lo = dict(a)
        hi = dict(a)
        lo[v] = 0
        hi[v] = 1
        if not approx_eq(evaluate(f, lo), evaluate(f, hi)):
            return True
    return False


def brute_force_sum(f, a):
    """Independent evaluation oracle: explicit per-term accumulation in
    float arithmetic, no shared code with evaluate()."""
    total = 0j
    for m, c in f.terms.items():
        term = to_float(c)
        for v in m:
            term *= to_float(a[v])
        total += term
    return total


# the two-input/two-output cross polynomial x0 z0 + x0 z1 + x1 z0 - x1 z1
CROSS = poly({(X0, Z0): Exact.ONE, (X0, Z1): Exact.ONE,
              (X1, Z0): Exact.ONE, (X1, Z1): Exact.MINUS_ONE})


def test_evaluate_examples():
    f = poly({(X0, Z0): Exact.ONE, (X1, Z1): Exact.MINUS_ONE})
    a = {X0: Exact.ONE, Z0: Exact.ONE, X1: Exact.ONE, Z1: Exact.ONE}
    assert evaluate(f, a) == Exact.ZERO

    const = MultilinearPoly.constant(Exact(3))
    assert evaluate(const, {}) == Exact(3)


def test_evaluate_against_independent_oracle():
    rng = make_rng(5)
    for _ in range(50):
        f = random_multilinear_poly(rng, 5, 6, exact=False)
        a = {v: complex(rng.standard_normal(), rng.standard_normal())
             for v in f.variables()}
        assert abs(to_float(evaluate(f, a)) - brute_force_sum(f, a)) < 1e-9


def test_evaluate_missing_variable():
    f = poly({(X0,): Exact.ONE})
    with pytest.raises(MissingVariableError):
        evaluate(f, {})


def test_restrict_examples():
    f = poly({(X0, X1): Exact.ONE})
    assert restrict(f, {X0}, {X0: Exact.ONE}) == poly({(X1,): Exact.ONE})
    assert restrict(f, {X0}, {X0: Exact.ZERO}).is_zero


def test_restrict_composes():
    rng = make_rng(6)
    for _ in range(100):
        f = random_multilinear_poly(rng, 6, 6)
        fvars = sorted(f.variables())
        if len(fvars) < 3:
            continue
        split = len(fvars) // 2
        i_set, j_set = set(fvars[:split]), set(fvars[split:])
        a = {v: Exact(int(rng.integers(-3, 4))) for v in fvars}
        two_step = restrict(restrict(f, i_set, a), j_set, a)
        one_step = restrict(f, i_set | j_set, a)
        assert two_step == one_step


def test_restrict_is_linear():
    rng = make_rng(61)
    for _ in range(25):
        f = random_multilinear_poly(rng, 5, 5)
        g = random_multilinear_poly(rng, 5, 5)
        sub = set(list(f.variables() | g.variables())[:2])
        a = {v: Exact(int(rng.integers(-3, 4))) for v in sub}
        assert restrict(f + g, sub, a) == restrict(f, sub, a) + restrict(g, sub, a)


def test_variables_of():
    f = poly({(X0, X1): Exact.ONE, (X1,): Exact.ONE})
    assert variables_of(f) == frozenset({X0, X1})
    cancel = poly({(X0,): Exact.ONE}) + poly({(X1,): Exact.ONE}) \
        + poly({(X1,): Exact.MINUS_ONE})
    assert variables_of(cancel) == frozenset({X0})


def test_variables_of_matches_dependence_oracle():
    rng = make_rng(7)
    for _ in range(30):
        f = random_multilinear_poly(rng, 5, 5)
        probes = [{v: Exact(int(rng.integers(-3, 4))) for v in f.variables()}
                  for _ in range(12)]
        reported = variables_of(f)
        for v in reported:
            assert depends_on(f, v, probes), f"{v} reported but not observed"


def test_multiplication_rejects_shared_variables():
    f = poly({(X0,): Exact.ONE})
    with pytest.raises(ValueError):
        _ = f * f


# ---- justifying assignments -------------------------------------------------

def test_justifying_product_example():
    f = poly({(X0, X1): Exact.ONE})
    a = {X0: Exact.ONE, X1: Exact.ONE}
    assert is_justifying(f, a)
    zero = {X0: Exact.ZERO, X1: Exact.ZERO}
    assert not is_justifying(f, zero)


def test_find_justifying_assignment():
    rng = make_rng(8)
    f = CROSS
    a = find_justifying_assignment(f, rng)
    assert is_justifying(f, a)


def test_sv_partition_test_examples():
    f = poly({(X0, X1): Exact.ONE})
    a = {X0: Exact.ONE, X1: Exact.ONE}
    assert sv_partition_test(f, a, {X0})

    g = poly({(X0,): Exact.ONE, (X1,): Exact.ONE})
    b = {X0: Exact.ONE, X1: Exact.ONE}
    # oracle: expand (x0+x1)*2 and (1+x0)*(1+x1); they differ at x0=x1=0
    lhs = g * evaluate(g, b)
    rhs = restrict(g, {X0}, b) * restrict(g, {X1}, b)
    zero_pt = {X0: Exact.ZERO, X1: Exact.ZERO}
    assert evaluate(lhs, zero_pt) != evaluate(rhs, zero_pt)
    assert not sv_partition_test(g, b, {X0})


def test_sv_requires_justifying():
    f = poly({(X0, X1): Exact.ONE})
    with pytest.raises(NotJustifyingError):
        sv_partition_test(f, {X0: Exact.ZERO, X1: Exact.ZERO}, {X0})


def test_sv_subset_forms_and_missing_variable():
    # a list with repeats, a generator and variables outside f all name
    # the same subset; a missing variable is named in the error
    f = poly({(X0, X1): Exact.ONE, (X2,): Exact(2)})
    a = {X0: Exact.ONE, X1: Exact(3), X2: Exact.ONE}
    for subset in ({X0}, {X2}, {X0, X1}):
        want = sv_partition_test(f, a, frozenset(subset), assume_justifying=True)
        forms = (list(subset) * 2, (x for x in subset), set(subset) | {Z0})
        assert all(sv_partition_test(f, a, s, assume_justifying=True) == want
                   for s in forms)
    with pytest.raises(MissingVariableError, match="missing"):
        sv_partition_test(f, {X0: Exact.ONE, X2: Exact.ONE}, {X0},
                          assume_justifying=True)


def test_sv_cross_polynomial_never_splits():
    rng = make_rng(10)
    a = find_justifying_assignment(CROSS, rng)
    for subset in ({X0}, {X1}, {Z0}, {Z1}, {X0, X1}, {X0, Z0}, {X0, Z1}):
        assert not sv_partition_test(CROSS, a, subset)


# ---- the restriction identity against its sparse symbolic expansion ---------

def restriction_identity_oracle(f, a, subset):
    """f(a) * f == f|_S * f|_rest, expanded term by term on the sparse map."""
    fvars = f.variables()
    subset = frozenset(subset)
    return (f * evaluate(f, a)
            == restrict(f, subset & fvars, a) * restrict(f, fvars - subset, a))


VARS = [var("x", format(i, "03b")) for i in range(8)]
OUTSIDE = [var("z", "0"), var("z", "1")]
# sqrt2, i, fractions and their mixtures: never real integers
OBJECT_SCALARS = [Exact(0, 1), Exact.I, Exact(Fraction(1, 3)),
                  Exact(1, 0, 0, Fraction(1, 2)), Exact(Fraction(-5, 2), 1)]


@st.composite
def polys(draw, vs, coeff):
    masks = draw(st.lists(st.integers(0, (1 << len(vs)) - 1), min_size=1,
                          max_size=12))
    terms = {}
    for mask in masks:
        m = frozenset(x for i, x in enumerate(vs) if mask >> i & 1)
        terms[m] = terms.get(m, Exact.ZERO) + draw(coeff)
    return MultilinearPoly(terms)


small_ints = st.integers(-5, 5).map(Exact)


def monomials(vs):
    return [frozenset(c) for k in range(len(vs) + 1) for c in combinations(vs, k)]


@st.composite
def identity_points(draw):
    """(f, a) on the int64 route, the object route and either side of the
    int64 bound, on 0 to 8 variables; near-products that only an exact
    compare tells from products; points that are roots of f."""
    kind = draw(st.sampled_from(
        ["constant", "int", "object", "big", "product", "near-product"]))
    vs = VARS[:draw(st.sampled_from(range(1, 9)))] if kind != "constant" else []
    a = None
    if kind in ("constant", "int"):  # a constant may be zero
        f = draw(polys(vs, small_ints))
    elif kind == "object":
        f = draw(polys(vs, st.one_of(small_ints, st.sampled_from(OBJECT_SCALARS))))
    elif kind == "big":  # B^2 >= 2^63: the object route by the bound
        scale = 2 ** draw(st.sampled_from([30, 32]))
        f = draw(polys(vs, small_ints)) * Exact(scale)
    elif kind == "product":
        cut = draw(st.integers(0, len(vs)))
        f = draw(polys(vs[:cut], small_ints)) * draw(polys(vs[cut:], small_ints))
    else:  # a product with every coefficient large, plus one unit term
        cut = draw(st.integers(0, len(vs)))
        scale = draw(st.sampled_from([1000, 20000]))
        big = st.integers(1, 5).map(lambda c: Exact(c * scale))
        g, h = (MultilinearPoly({m: draw(big) for m in monomials(part)})
                for part in (vs[:cut], vs[cut:]))
        f = g * h + poly({draw(st.sampled_from(monomials(vs))): Exact.ONE})
        # a positive point keeps every entry large, so the identity misses
        # by a relative gap far below any float tolerance
        a = {x: Exact(draw(st.integers(1, 7))) for x in vs}
    fvars = sorted(f.variables())
    if kind != "near-product" and fvars and draw(st.booleans()):
        a = find_zero_justifying_assignment(
            f, make_rng(draw(st.integers(0, 99))), attempts=2)
        if a is not None and not all(isinstance(x, Exact) for x in a.values()):
            a = None
    if a is None:
        values = st.integers(-3, 7).map(Exact)
        if draw(st.booleans()):
            values = st.one_of(values, st.sampled_from(OBJECT_SCALARS))
        a = {x: draw(values) for x in fvars}
    return f, a


@st.composite
def identity_cases(draw):
    """``identity_points`` with a subset that is empty, full or reaches
    outside f."""
    f, a = draw(identity_points())
    fvars = sorted(f.variables())
    pick = draw(st.integers(0, 9))
    if pick < 2:
        subset = frozenset(fvars) if pick else frozenset()
    else:
        subset = frozenset(x for x in fvars + OUTSIDE if draw(st.booleans()))
    return f, a, subset


def near_product(s):
    """(s x + s - 1)(s y + s - 1) + 1 at x = y = 1, split at {x}.

    f is indecomposable (its 2x2 minor is s^2) and the point justifying,
    but the identity misses by s^2 on entries near 4 s^4: from s = 20000
    on, a relative gap below 1e-9 that only an exact compare sees.
    """
    x, y = VARS[:2]
    f = poly({(x, y): Exact(s * s), (x,): Exact(s * (s - 1)),
              (y,): Exact(s * (s - 1)), (): Exact((s - 1) ** 2 + 1)})
    return f, {x: Exact.ONE, y: Exact.ONE}, frozenset({x})


X000, X001, X010 = VARS[:3]
# x0 (x1 + x2) at a justifying point, split at {x0, x1}: rows of the cut
# matrix in another order than the Kronecker product u makes it pass
TRANSPOSED = (poly({(X000, X001): Exact.ONE, (X000, X010): Exact.ONE}),
              {X000: Exact.ONE, X001: Exact.ZERO, X010: Exact.ONE},
              frozenset({X000, X001}))
# 2^32 (x0 x1 + 1): every compared entry is a multiple of 2^64, so int64
# arithmetic past the bound wraps them all to 0 and the identity "holds"
OVERFLOWING = (poly({(X000, X001): Exact(2**32), (): Exact(2**32)}),
               {X000: Exact.ONE, X001: Exact.ONE}, frozenset({X000}))


@given(identity_cases())
@example(near_product(20000))  # int64 route
@example(near_product(10**5))  # object route by the bound
@example(TRANSPOSED)
@example(OVERFLOWING)
@settings(max_examples=200, deadline=None)
def test_sv_partition_test_matches_symbolic_oracle(case):
    f, a, subset = case
    dense = sv_partition_test(f, a, subset, assume_justifying=True)
    assert dense == restriction_identity_oracle(f, a, subset)


def exact_values(stack):
    """The values of a stack [k, ...] of numerators over 1, flattened."""
    return [Exact(*c) for c in zip(*stack.reshape(len(stack), -1).tolist())]


def per_subset_identity(t, kron, s_axes, tol=None):
    """The identity at one subset as each call decided it before verdicts
    were batched: f(a) M == outer(M w, u^T M) on the cut matrices, of the
    integers of a real stack and else of ``Exact`` values, or with a tol
    of complex values, each entry by ``tol.close``."""
    def values(stack):
        if len(stack) == 1:
            return stack[0, ...]
        return np.array(exact_values(stack), dtype=object).reshape(stack.shape[1:])
    rest = [q for q in range(t.ndim - 1) if q not in s_axes]
    m = cut_matrix(values(t), s_axes, rest)
    k = cut_matrix(values(kron), s_axes, rest)
    u, w = k[:, 0], k[0, :]
    right, left = m @ w, u @ m
    lhs, rhs = (left @ w) * m, np.multiply.outer(right, left)
    if tol is None:
        return bool(np.array_equal(lhs, rhs))
    return all(map(tol.close, lhs.ravel().tolist(), rhs.ravel().tolist()))


def all_subsets(fvars):
    return [frozenset(c) for k in range(len(fvars) + 1)
            for c in combinations(fvars, k)]


@st.composite
def float_points(draw):
    """(f, a) on the float route: float f, or exact f at a complex point,
    a product of two factors or not, on 1 to 8 variables."""
    rng = make_rng(draw(st.integers(0, 10**6)))
    exact, n = draw(st.booleans()), draw(st.integers(1, 8))
    if n > 1 and draw(st.booleans()):
        g = random_multilinear_poly(rng, n // 2 + n % 2, n, exact, block="x")
        f = g * random_multilinear_poly(rng, n // 2, n, exact, block="y")
    else:
        f = random_multilinear_poly(rng, n, n + 2, exact)
    return f, {x: random_scalar(rng) for x in sorted(f.variables())}


@given(st.one_of(identity_points(), float_points()), st.data())
@settings(max_examples=80, deadline=None)
def test_sweep_matches_per_subset_identity(point, data):
    """A sweep of every subset of a point, in any order and with variables
    outside f, gets each subset's per-subset verdict on the same stacks,
    at float points by ``tol.close`` on complex values over 1."""
    f, a = point
    fvars = sorted(f.variables())
    subsets = data.draw(st.permutations(all_subsets(fvars)))
    got = [sv_partition_test(f, a, s | set(OUTSIDE[:i % 3]),
                             assume_justifying=True)
           for i, s in enumerate(subsets)]
    p = f._point
    assert (p.verdicts is not None) == bool(fvars)  # batched from 2 subsets on
    verdicts = dict(zip(subsets, got))
    if len(fvars) > 6 and (len(p.t) > 1 or len(p.kron) > 1):  # ~3 s for all
        subsets = data.draw(st.lists(st.sampled_from(subsets), min_size=16,
                                     max_size=16))
    assert (p.tol is None) == (p.t.dtype != complex)
    assert p.tol is None or p.den == 1
    for s in subsets:
        s_axes = [q for q, x in enumerate(fvars) if x in s]
        assert verdicts[s] == per_subset_identity(p.t, p.kron, s_axes, p.tol)


def test_exact_poly_at_a_float_point_takes_the_stack(monkeypatch):
    """Exact f at Gaussian points is decided on complex values over 1,
    with no sparse restriction, and the verdicts are partition membership."""
    rng = make_rng(23)
    cases = []
    for _ in range(20):
        f, _ = random_disjoint_product(rng, 2, int(rng.integers(2, 4)))
        a = {x: random_scalar(rng) for x in sorted(f.variables())}
        cases.append((f, a, variable_partition(f)))

    def refuse(*args):
        raise AssertionError("took the sparse route")
    monkeypatch.setattr(ml, "restrict", refuse)
    monkeypatch.setattr(ml, "evaluate", refuse)
    for f, a, partition in cases:
        subsets = all_subsets(sorted(f.variables()))
        assert is_justifying(f, a)
        got = [sv_partition_test(f, a, s, assume_justifying=True) for s in subsets]
        assert f._point.t.dtype == complex and f._point.tol == DEFAULT_TOL
        assert got == [is_union_of_classes(s, partition) for s in subsets]


def test_float_identity_past_16_variables_matches_the_stack(monkeypatch):
    """Float f, and exact f at a complex point, on 17 variables take the
    sparse route, and it gives the verdicts of the stack route on the
    same f and point."""
    rng = make_rng(18)

    def factor(n, exact, block):
        g = MultilinearPoly.constant(Exact.ONE)
        while len(g.variables()) < n:
            g = random_multilinear_poly(rng, n, 4, exact, block=block)
        return g
    for exact in (False, True):
        g, h = factor(9, exact, "x"), factor(8, exact, "y")
        f = g * h
        fvars = sorted(f.variables())
        subsets = [g.variables(), h.variables(), frozenset(fvars[::2]),
                   frozenset(), frozenset(fvars)]
        a = {x: random_scalar(rng) for x in fvars}
        sparse = [sv_partition_test(f, a, s, assume_justifying=True) for s in subsets]
        assert f._point is None
        monkeypatch.setattr(ml, "_DENSE_MAX_VARS", 17)
        dense = [sv_partition_test(f, a, s, assume_justifying=True) for s in subsets]
        monkeypatch.undo()
        assert f._point.t.dtype == complex
        assert sparse == dense == [True, True, False, True, True]


def test_float_point_is_judged_under_its_own_tolerance():
    """One f and point asked at two tolerances get each one's verdicts:
    the prepared point is kept for the tolerance it was judged under."""
    x, y = VARS[:2]
    # (x + 1)(y + 1) + 1e-6 x y: the identity at {x} misses by ~1e-6
    f = poly({(x, y): 1 + 1e-6, (x,): 1.0, (y,): 1.0, (): 1.0})
    a = {x: 1.0 + 0j, y: 1.0 + 0j}
    # at y = -1 + 1e-6, df/dx = 1e-6, nonzero only under the tight tolerance
    b = {x: 1.0 + 0j, y: -1 + 1e-6 + 0j}
    tight, loose = DEFAULT_TOL, Tolerance(1e-3, 1e-3)
    for tol, split in ((tight, False), (loose, True), (tight, False)):
        assert [sv_partition_test(f, a, s, tol=tol, assume_justifying=True)
                for s in ({x}, {y}, {x}, set())] == [split, split, split, True]
        assert f._point.tol == tol
    g = poly({(x, y): 1.0, (x,): 1.0, (y,): 1.0, (): 1.0})
    assert [is_justifying(g, b, tol) for tol in (tight, loose, tight)] == [
        True, False, True]


def test_sweep_runs_the_batched_pass_once_per_point(monkeypatch):
    counts = {"_all_restriction_identities": 0, "_restriction_identity": 0}
    for name in counts:
        def counted(*args, real=getattr(ml, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(ml, name, counted)
    rng = make_rng(4)
    for n_vars, batches in ((6, 2), (9, 0)):  # past 8 variables, per subset
        f = random_multilinear_poly(rng, n_vars, n_vars + 4)
        fvars = sorted(f.variables())
        subsets = all_subsets(fvars)
        for value in (2, 3):
            a = {x: Exact(value) for x in fvars}
            for subset in subsets:
                sv_partition_test(f, a, subset, assume_justifying=True)
        singles = 2 if batches else 2 * len(subsets)
        assert counts == {"_all_restriction_identities": batches,
                          "_restriction_identity": singles}
        counts.update(dict.fromkeys(counts, 0))


def test_exact_identity_past_16_variables_stays_exact(monkeypatch):
    """Exact f on 17 variables has no form stack: the identity is decided
    on its sparse terms, never at random points."""
    rng = make_rng(17)
    g = h = MultilinearPoly.constant(Exact.ONE)
    while len(g.variables()) < 9:
        g = random_multilinear_poly(rng, 9, 4, block="x")
    while len(h.variables()) < 8:
        h = random_multilinear_poly(rng, 8, 4, block="y")
    f = g * h
    assert _form(f).tensor is None

    def refuse(*args):
        raise AssertionError("drew a random point")
    monkeypatch.setattr(ml, "random_scalar", refuse)
    fvars = sorted(f.variables())
    split = frozenset(fvars[::2])
    for value in (Exact(2), Exact(Fraction(1, 3)), Exact(1, 0, 1)):
        a = {x: value + i for i, x in enumerate(fvars)}
        for subset in (g.variables(), h.variables(), split, frozenset()):
            got = sv_partition_test(f, a, subset, assume_justifying=True)
            assert got == restriction_identity_oracle(f, a, subset)
        assert sv_partition_test(f, a, g.variables(), assume_justifying=True)
        assert is_justifying(f, a) == definitional_justifying(f, a)


def definitional_justifying(f, a):
    """Every single-variable restriction of f at a has a nonzero linear
    coefficient, read off ``restrict`` in ``Exact`` arithmetic."""
    fvars = f.variables()
    for v in fvars:
        c1 = restrict(f, fvars - {v}, a).coefficient(mono(v))
        if not isinstance(c1, Exact) or c1.is_zero:
            return False
    return True


@given(st.sampled_from(range(1, 9)).flatmap(lambda n: polys(VARS[:n], small_ints)),
       st.sampled_from([1, 2**31, 2**40, 2**70]), st.data())
@settings(max_examples=200, deadline=None)
def test_integer_justifying_route_matches_restrictions(f, scale, data):
    f = f * Exact(scale)  # scales past 2^31 put B^2 past the int64 bound
    a = {x: Exact(data.draw(st.integers(-3, 3))) for x in sorted(f.variables())}
    assert is_justifying(f, a) == definitional_justifying(f, a)


def float_justifying(f, a, tol=DEFAULT_TOL):
    """The float rule read off ``restrict``: each c0 + c1 v has
    |c1| > tol.threshold(max(1, |c0|))."""
    fvars = f.variables()
    for v in fvars:
        g = restrict(f, fvars - {v}, a)
        c0, c1 = (abs(to_float(g.coefficient(m))) for m in (mono(), mono(v)))
        if c1 <= tol.threshold(max(1.0, c0)):
            return False
    return True


#: 1e5 + x y at y = 1e-5: df/dx is above abs_eps but within rel_eps of
#: |f at x = 0|, the scale of the rule, so the point is not justifying
SCALED_ROOT = (poly({(VARS[0], VARS[1]): 1.0, (): 1e5}),
               {VARS[0]: 1.0 + 0j, VARS[1]: 1e-5 + 0j})


@given(float_points(), st.lists(st.booleans(), min_size=8, max_size=8))
@example(SCALED_ROOT, [False] * 8)
@settings(max_examples=100, deadline=None)
def test_float_justifying_route_matches_restrictions(point, zeroed):
    """On the complex stack, with some coordinates zeroed so that
    derivatives vanish, justifying-ness is the float rule on ``restrict``."""
    f, a = point
    a = {x: 0j if z else c for (x, c), z in zip(a.items(), zeroed)}
    assert is_justifying(f, a) == float_justifying(f, a)


@given(st.sampled_from(range(1, 7)).flatmap(lambda n: polys(VARS[:n], small_ints)),
       st.data())
@settings(max_examples=60, deadline=None)
def test_cached_form_reused_across_the_int64_bound(f, data):
    """One polynomial's cached form serves a point inside the int64 bound
    and one past it, in either order, and is never written."""
    fvars = sorted(f.variables())
    small = {x: Exact(data.draw(st.integers(-3, 3))) for x in fvars}
    large = {x: Exact(data.draw(st.sampled_from([-1, 1])) << 21) for x in fvars}
    points = [small, large] if data.draw(st.booleans()) else [large, small]
    subsets = [frozenset(c) for k in range(len(fvars) + 1)
               for c in combinations(fvars, k)]
    fresh = None
    for a in points + points:
        for subset in subsets:
            got = sv_partition_test(f, a, subset, assume_justifying=True)
            assert got == restriction_identity_oracle(f, a, subset)
        if fvars and fresh is None:
            fresh = f._form.tensor.copy()
    if fvars:
        assert not f._form.tensor.flags.writeable
        assert np.array_equal(f._form.tensor, fresh)
        # a dict changed in place mid-sweep is prepared again, and its
        # verdicts are batched again
        moved = dict(small)
        for subset in subsets[:2]:
            sv_partition_test(f, moved, subset, assume_justifying=True)
        assert f._point.verdicts is not None
        moved[fvars[0]] = Exact(0 if moved[fvars[0]] != 0 else 3)
        for subset in subsets:
            got = sv_partition_test(f, moved, subset, assume_justifying=True)
            assert got == restriction_identity_oracle(f, moved, subset)
        assert f._point.values[0] is moved[fvars[0]]


#: sqrt2, i, (1+i)/sqrt2 and 1/3: each times an integer polynomial keeps
#: its integers in one component of the form stack, or all four
SCALES = [Exact(0, 1), Exact.I, Exact(0, Fraction(1, 2), 0, Fraction(1, 2)),
          Exact(Fraction(1, 3))]


@given(st.sampled_from(range(1, 9)).flatmap(lambda n: polys(VARS[:n], small_ints))
       .filter(lambda f: not f.is_zero), st.sampled_from(SCALES), st.data())
@settings(max_examples=60, deadline=None)
def test_scaled_integer_polys_take_the_integer_route(f, scale, data):
    """Scaled integer polynomials are decided on an int64 form stack: one
    component (the integers themselves) for a real rational scale, four
    for a scale off the rationals, each a multiple of the integers."""
    g = f * scale
    fvars = sorted(f.variables())
    ints, scaled = _form(f).tensor, _form(g).tensor
    assert len(ints) == 1 and len(scaled) == (4 if scale.b or scale.c else 1)
    i = np.flatnonzero(ints)[0]
    for row in scaled.reshape(len(scaled), -1):
        assert np.array_equal(row * ints.flat[i], ints.ravel() * row[i])
    assert scaled.dtype == np.int64
    assert variable_partition(g) == variable_partition(f)
    a = {x: Exact(data.draw(st.integers(-3, 3))) for x in fvars}
    assert is_justifying(g, a) == is_justifying(f, a)
    for subset in all_subsets(fvars):
        assert (sv_partition_test(g, a, subset, assume_justifying=True)
                == sv_partition_test(f, a, subset, assume_justifying=True))
    if fvars:
        assert g._point.t.dtype == np.int64


class Opaque:
    """A coefficient that fails on any use but its type."""
    def __getattr__(self, name):
        raise AssertionError(f"read {name}")


def test_integer_form_of_scalar_multiples():
    def stack(xs):
        num, den = numerator_stack(xs)
        return num.tolist(), den
    assert stack([Exact(2), Exact(4)]) == ([[2, 4]], 1)  # integers as they are
    assert stack([Exact(Fraction(1, 3)), Exact(2)]) == ([[1, 6]], 3)
    assert stack([Exact(0, 2), Exact(0, Fraction(2, 3))]) == (
        [[0, 0], [6, 2], [0, 0], [0, 0]], 3)
    assert stack([Exact(0, 0, Fraction(-1, 2)), Exact.I]) == (
        [[0, 0], [0, 0], [-1, 2], [0, 0]], 2)
    assert stack([Exact(2 ** 70), Exact(1)])[0] == [[2 ** 70, 1]]  # Python ints
    # the stack lays f out as a state's numerators: variable q on axis q + 1
    f = poly({(X0,): Exact(Fraction(1, 2)), (X0, X1): Exact(0, 0, 3)})
    t = _form(f).tensor
    assert t.shape == (4, 2, 2) and not t.flags.writeable
    assert [x * Fraction(1, 2) for x in exact_values(t)] == [
        Exact.ZERO, Exact.ZERO, Exact(Fraction(1, 2)), Exact(0, 0, 3)]
    # a float coefficient leaves f with no stack, before any other is read
    assert _form(MultilinearPoly._of({mono(X0): 0.5, mono(X1): Opaque()})).tensor is None
    assert _form(MultilinearPoly._of({mono(X0): Exact.ONE, mono(X1): 0.5})).tensor is None


@given(st.fractions().filter(bool), st.fractions())
def test_rational_exact_inverse_is_fraction_division(q, p):
    inv = Exact.ONE / Exact(q)
    assert (inv.a, inv.b, inv.c, inv.d) == (1 / q, 0, 0, 0)
    quo = Exact(p) / Exact(q)
    assert (quo.a, quo.b, quo.c, quo.d) == (p / q, 0, 0, 0)
    assert Exact(p) * inv == quo


def test_zero_justifying_assignment():
    rng = make_rng(11)
    g = poly({(X0,): Exact.ONE, (X1,): Exact.ONE})
    a = find_zero_justifying_assignment(g, rng)
    assert a is not None
    assert is_justifying(g, a)
    assert abs(to_float(evaluate(g, a))) < 1e-9

    # a decomposable product admits no justifying root
    f = poly({(X0, X1): Exact.ONE})
    assert find_zero_justifying_assignment(f, rng, attempts=150) is None


def test_zero_justifying_assignment_cross():
    rng = make_rng(12)
    a = find_zero_justifying_assignment(CROSS, rng)
    assert a is not None and is_justifying(CROSS, a)
    assert abs(to_float(evaluate(CROSS, a))) < 1e-9


def test_missing_terms_of_exact_polynomials_are_exact_zero():
    # x0*x1 + x0 at x1 = 2 is 3*x0: no constant term, root x0 = 0
    f = poly({(X0, X1): Exact.ONE, (X0,): Exact.ONE})
    root = ml._solve_single_variable_zero(f, X0, {X1: Exact(2)})
    assert isinstance(root, Exact) and root == Exact.ZERO
    assert isinstance(f.constant_value(), Exact) and isinstance(f.coefficient(mono(X1)), Exact)
    g = poly({(X0,): 1.5 + 0j})
    assert not isinstance(g.constant_value(), Exact) and g.constant_value() == 0


@pytest.mark.parametrize("f", [
    poly({(X0,): Exact(-7)}),
    poly({(): Exact(-5), (X0,): Exact(-1), (X1,): Exact(-5), (X2,): Exact(2),
          (X0, X1): Exact(-1)}),
])
def test_zero_justifying_assignment_of_exact_f_is_exact(f):
    # both have a root whose pivot solves a restriction with no constant
    # term, which used to come back as the complex -0j
    for seed in range(100):
        a = find_zero_justifying_assignment(f, make_rng(seed))
        assert a is not None and all(isinstance(v, Exact) for v in a.values())
        assert is_justifying(f, a) and evaluate(f, a) == Exact.ZERO


def test_zero_justifying_never_certifies_decomposables():
    # soundness: a genuinely decomposable polynomial admits no justifying
    # root, so the search must keep answering unknown
    rng = make_rng(16)
    for _ in range(50):
        f, _ = random_disjoint_product(rng, 2, 2)
        if len(f.variables()) < 4:
            continue
        assert find_zero_justifying_assignment(f, rng, attempts=60) is None


# ---- rank oracle and decomposition -------------------------------------------

def test_rank_oracle_examples():
    expanded = poly({(X0, Z0): Exact.ONE, (X0, Z1): Exact.ONE,
                     (X1, Z0): Exact.ONE, (X1, Z1): Exact.ONE})
    assert bipartition_rank_oracle(expanded, {X0, X1})
    # determinant of [[1,1],[1,-1]] is -2, so the cross does not split
    assert not bipartition_rank_oracle(CROSS, {X0, X1})


def test_rank_oracle_agrees_with_sv(subtests=None):
    rng = make_rng(13)
    for _ in range(60):
        f = random_multilinear_poly(rng, int(rng.integers(2, 6)), 6)
        fvars = sorted(f.variables())
        if len(fvars) < 2:
            continue
        a = find_justifying_assignment(f, rng)
        partition = variable_partition(f)
        for size in range(1, len(fvars)):
            for combo in combinations(fvars, size):
                subset = frozenset(combo)
                split = bipartition_rank_oracle(f, subset)
                union = is_union_of_classes(subset, partition)
                sv = sv_partition_test(f, a, subset)
                assert sv == union
                # a union of classes always splits as a product
                if union:
                    assert split


def reference_cut_matrix(f, subset):
    """The float oracle's matrix filled entry by entry from f's terms
    regrouped by monomial part in subset (row) and outside it (column),
    rows and columns in ``_mono_key`` order."""
    rows = {}
    for m, c in f.terms.items():
        rows.setdefault(m & subset, {})[m - subset] = c
    row_keys = sorted(rows, key=ml._mono_key)
    col_keys = sorted({c for r in rows.values() for c in r}, key=ml._mono_key)
    mat = np.zeros((len(row_keys), len(col_keys)), dtype=complex)
    for i, rk in enumerate(row_keys):
        for j, ck in enumerate(col_keys):
            if ck in rows[rk]:
                mat[i, j] = to_float(rows[rk][ck])
    return mat


def test_float_cut_matrix_matches_entrywise_fill():
    rng = make_rng(17)
    cases = [random_multilinear_poly(rng, int(rng.integers(1, 8)),
                                     int(rng.integers(1, 30)), exact=False,
                                     block="xz"[k % 2])
             for k in range(120)]
    # mixed Exact and float coefficients, variables from two blocks
    cases.append(poly({(X0, Z0): Exact(1, 2, 0, Fraction(1, 3)), (X1,): 0.25 - 2j,
                       (X2, Z1): Exact.MINUS_ONE, (): 1e-13, (X0, X1, Z1): Exact.I}))
    outside = var("y", "0")  # in no monomial: splits nothing
    for f in cases:
        fvars = sorted(f.variables())
        for _ in range(6):
            subset = frozenset(x for x in fvars if rng.random() < 0.5)
            if rng.random() < 0.3:
                subset |= {outside}
            got = ml._cut_matrix(f, subset)[0]
            want = reference_cut_matrix(f, subset)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if got.size:
                s_got = np.linalg.svd(got, compute_uv=False)
                s_want = np.linalg.svd(want, compute_uv=False)
                assert s_got.tobytes() == s_want.tobytes()


def test_decompose_examples():
    expanded = poly({(X0, Z0): Exact.ONE, (X0, Z1): Exact.ONE,
                     (X1, Z0): Exact.ONE, (X1, Z1): Exact.ONE})
    factors = decompose(expanded)
    assert len(factors) == 2
    assert sorted(sorted(map(str, g.variables())) for g in factors) == [
        ["x[0]", "x[1]"], ["z[0]", "z[1]"]]
    product = factors[0] * factors[1]
    assert product == expanded

    assert len(decompose(CROSS)) == 1


def test_decompose_round_trip():
    rng = make_rng(14)
    for k in range(200):
        n_factors = 2 + (k % 2)
        f, built = random_disjoint_product(rng, n_factors, 2)
        factors = decompose(f)
        assert len(factors) >= n_factors or len(f.variables()) < 2 * n_factors
        product = factors[0]
        for g in factors[1:]:
            product = product * g
        assert product == f
        sets = [g.variables() for g in factors]
        assert frozenset().union(*sets) == f.variables()
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not (sets[i] & sets[j])


def test_decompose_budget():
    width = 5
    vs = [var("x", format(i, f"0{width}b")) for i in range(25)]
    f = MultilinearPoly({frozenset(vs): Exact.ONE})
    with pytest.raises(DecompositionBudgetError):
        decompose(f)


def unpruned_decompose(f, tol=DEFAULT_TOL):
    """The minimal-subset search with no pair-link pruning: every subset
    holding the least variable, by size, then in ``combinations`` order."""
    factors = []
    g = f
    while True:
        gvars = sorted(g.variables())
        found = None
        for size in range(len(gvars) - 1):
            subsets = (frozenset((gvars[0], *c)) for c in combinations(gvars[1:], size))
            found = next((s for s in subsets if bipartition_rank_oracle(g, s, tol)), None)
            if found is not None:
                break
        if found is None:
            factors.append(g)
            break
        left, g = _extract_factors(g, found)
        factors.append(left)
    leads = [g.terms[g.leading_monomial()] for g in factors]
    out = [g * (Exact.ONE / c if isinstance(c, Exact) else 1.0 / to_float(c))
           for g, c in zip(factors, leads)]
    residual = leads[0]
    for c in leads[1:]:
        residual = residual * c
    out[0] = out[0] * residual
    return out


float_coeffs = st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                                  allow_nan=False, allow_infinity=False)


#: Exact scalings of integer products: one scalar times integers each.
SCALINGS = [Exact.SQRT2, Exact.I, Exact(0, Fraction(1, 2), 0, Fraction(1, 2)),
            Exact(Fraction(1, 3))]

#: Scaling an integer f with l1 = sum|c| by INT64_L1 // l1 keeps l1^2
#: below 2^63, the int64 route's bound, and by one more reaches it.
INT64_L1 = math.isqrt(2 ** 63 - 1)


@st.composite
def decompose_cases(draw, nudged=False):
    """Products of up to three variable-disjoint factors with integer,
    scaled or float coefficients: an integer content, a factor whose
    coefficients sum to zero (which hides the other factors' pair
    links), integers scaled to either side of the int64 bound, and a
    float product possibly nudged off rank 1 by a term near the
    tolerance (``nudged``: only such products, always nudged)."""
    kind = "float" if nudged else draw(st.sampled_from(
        ["int", "scaled", "zero-sum", "int64-edge", "float"]))
    coeff = float_coeffs if kind == "float" else small_ints
    n = draw(st.integers(1, 8))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    parts = [VARS[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n])]
    f = poly({(): Exact(draw(st.sampled_from([1, 1, -2, 6])))})
    for k, part in enumerate(parts):
        g = draw(polys(part, coeff))
        if kind == "zero-sum" and k == 0:
            g = g - sum(g.terms.values(), Exact.ZERO)
        f = f * g
    if kind == "scaled":
        f = f * draw(st.sampled_from(SCALINGS))
    if kind == "int64-edge" and not f.is_zero:
        f = f * Exact(INT64_L1 // _form(f).l1 + draw(st.sampled_from([0, 1])))
    if kind == "float" and (nudged or draw(st.booleans())):
        eps = draw(st.sampled_from([1e-13, 1e-10, 1e-8, 1e-6]))
        f = f + poly({draw(st.sampled_from(monomials(VARS[:n]))): eps})
    return f


ZERO_SUM = poly({(VARS[0],): Exact(1), (VARS[1],): Exact(-1),
                 (VARS[0], VARS[2]): Exact(2), (VARS[1], VARS[2]): Exact(-2)})

#: A product with l1 = 6, scaled below to either side of the int64 bound.
EDGE = poly({(): Exact(2), (VARS[0],): Exact.ONE}) * poly(
    {(): Exact.ONE, (VARS[1],): Exact.ONE})


@given(decompose_cases())
@example(ZERO_SUM * poly({(VARS[3],): Exact(3), (VARS[4],): Exact.ONE,
                          (VARS[3], VARS[4]): Exact(2), (): Exact(-1)}))
@example(poly({(): Exact.ONE, (VARS[0],): Exact(2)})
         * poly({(VARS[1],): Exact(3), (VARS[2],): Exact(-1),
                 (VARS[1], VARS[2]): Exact(4)}))
@example(EDGE * Exact(INT64_L1 // 6))
@example(EDGE * Exact(INT64_L1 // 6 + 1))
@settings(max_examples=300, deadline=None)
def test_decompose_matches_unpruned_search(f):
    if f.is_zero:
        return
    assert decompose(f) == unpruned_decompose(f)


def counted(monkeypatch, names):
    """Count the calls to these multilinear functions from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _fn=getattr(ml, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ml, name, wrapper)
    return calls


def test_integer_decompose_stays_on_the_tensor(monkeypatch):
    g = poly({(VARS[0],): Exact(2), (): Exact.ONE}) * poly(
        {(VARS[1],): Exact(-3), (): Exact.ONE})
    h = poly({(VARS[2],): Exact.ONE, (VARS[3],): Exact(5)})
    # every exact f stays on its form stack, mixed-field ones too; floats
    # take the sparse route
    cases = [g * h * Exact.SQRT2, g * (h + poly({(VARS[2],): Exact.I})),
             g * h * 0.5]
    want = [unpruned_decompose(f) for f in cases]
    calls = counted(monkeypatch, ["bipartition_rank_oracle", "_extract_factors"])
    assert decompose(cases[0]) == want[0]
    assert decompose(cases[1]) == want[1]
    assert calls == {"bipartition_rank_oracle": 0, "_extract_factors": 0}
    assert decompose(cases[2]) == want[2]
    assert calls == {"bipartition_rank_oracle": 2, "_extract_factors": 2}


def test_evaluate_and_restrict_ignore_the_hash_seed():
    """Float rounding follows the order of the products, which must not
    follow string hashes."""
    code = ("from qaclab.multilinear import MultilinearPoly, evaluate, restrict, var\n"
            "vs = [var('x', format(i, '04b')) for i in range(12)]\n"
            "f = MultilinearPoly({frozenset(vs[i:i + 7]): 0.1 * i + 0.3j "
            "for i in range(6)})\n"
            "a = {x: 0.7 + 0.1 * i - 0.3j * (i % 3) for i, x in enumerate(vs)}\n"
            "print(repr(evaluate(f, a)), restrict(f, vs[1:], a))\n")
    src = str(Path(qaclab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
        outs.add(proc.stdout)
    assert len(outs) == 1


def sweep_matches_oracle(f):
    """Whether the sweep finds f indecomposable exactly when no subset
    holding its least variable passes the oracle."""
    first, *rest = sorted(f.variables()) or [None]
    exhaustive = all(
        not bipartition_rank_oracle(f, frozenset((first, *c)))
        for size in range(len(rest)) for c in combinations(rest, size))
    return indecomposable_at_every_split(f) == exhaustive


def test_indecomposable_at_every_split_matches_oracle():
    rng = make_rng(15)
    # 40 exact polynomials, then 40 with Gaussian float coefficients, then
    # 20 products of variable-disjoint Gaussian factors
    for k in range(100):
        if k < 80:
            f = random_multilinear_poly(rng, int(rng.integers(2, 7)), 7,
                                        exact=k < 40)
        else:
            f, _ = random_disjoint_product(rng, int(rng.integers(2, 4)),
                                           int(rng.integers(1, 3)), exact=False)
        assert sweep_matches_oracle(f)

    # float products nudged off rank 1 by a term of 1e-13 to 1e-6, where
    # the pivot minors alone cannot settle every split
    @given(decompose_cases(nudged=True))
    @settings(max_examples=150, deadline=None)
    def nudged_products(f):
        assert sweep_matches_oracle(f)

    nudged_products()


def test_sweep_splits_a_nearly_rank_1_float_product():
    # (x0 + x1)(z0 + z1) + 1e-13 x0: the split at {x0, x1} is rank 1 up
    # to 1e-13, within the singular-value rule
    f = poly({(X0, Z0): Exact.ONE, (X0, Z1): Exact.ONE, (X1, Z0): Exact.ONE,
              (X1, Z1): Exact.ONE, (X0,): 1e-13})
    assert bipartition_rank_oracle(f, {X0, X1})
    assert not indecomposable_at_every_split(f)
    assert len(decompose(f)) == 2


@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]),
       st.one_of(st.just(0.0), st.floats(0, 1e-7)))
@settings(max_examples=300, deadline=None)
def test_sweep_float_bounds_agree_with_singular_values(seed, scale, noise):
    """On a sparse near-rank-1 complex matrix, a pivot minor above the
    no-split bound means ``sv_rank_le_1`` rejects, and the split bound
    that it accepts."""
    rng = np.random.default_rng(seed)
    rows_n, cols_n = rng.integers(1, 7, size=2)
    def gaussian(*shape):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return x * (rng.random(shape) < 0.7)
    mat = scale * (np.outer(gaussian(rows_n), gaussian(cols_n))
                   + noise * gaussian(rows_n, cols_n))
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat.tolist()]
    rows = [row for row in rows if row]
    if not rows:
        return
    entries = [abs(x) for row in rows for x in row.values()]
    norm, tol = math.hypot(*entries), DEFAULT_TOL
    rho, no_split = ml._float_bounds(norm, len(entries), tol)
    rule = sv_rank_le_1(np.linalg.svd(mat, compute_uv=False), tol)
    if any(abs(x) > no_split for x in ml._pivot_minors(rows)):
        assert not rule
    if ml._split_bound(rows, norm, rho, tol):
        assert rule


# ---- text format --------------------------------------------------------------

def test_exact_approx_eq_compares_exactly():
    """A term missing on one side is an exact zero: exact polynomials
    that differ by 10^-20 are not approximately equal."""
    f = poly({(X0,): Exact.ONE})
    g = poly({(X0,): Exact.ONE, (X1,): Exact(Fraction(1, 10**20))})
    assert f != g and not f.approx_eq(g) and not g.approx_eq(f)
    assert f.approx_eq(poly({(X0,): 1 + 1e-12})) and f.approx_eq(f)


def test_poly_text_round_trip():
    text = format_poly(CROSS)
    back = parse_poly(text)
    assert back.approx_eq(CROSS)


def test_poly_parse_constant_and_comments():
    f = parse_poly("# a constant\n3 0 :\n")
    assert f.is_constant and to_float(f.constant_value()) == 3

    g = parse_poly("1 0 : x[0],z[1]\n-1 0 : x[0],z[1]\n")
    assert g.is_zero


def test_poly_parse_errors():
    from qaclab.multilinear import PolyParseError
    with pytest.raises(PolyParseError):
        parse_poly("1 0 x[0]")  # missing colon
    with pytest.raises(PolyParseError):
        parse_poly("1 : x[0]")  # one coefficient number
    with pytest.raises(PolyParseError):
        parse_poly("1 0 : q[0]")  # unknown block letter


@pytest.mark.parametrize("coeff", ["nan 0", "0 nan", "inf 0", "1 -inf"])
def test_poly_coefficients_must_be_finite(coeff):
    from qaclab.multilinear import PolyParseError
    with pytest.raises(PolyParseError, match="line 2: non-finite coefficient") as err:
        parse_poly(f"1 0 : x[1]\n{coeff} : x[0]\n")
    assert err.value.kind == "bad-number"
