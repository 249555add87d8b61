import numpy as np
import pytest

from qaclab.multilinear import (
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
from qaclab.numerics import Exact, approx_eq, make_rng, to_float

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
    rng = make_rng(9)
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
    assert not sv_partition_test(g, b, {X0}, rng=rng)


def test_sv_requires_justifying():
    f = poly({(X0, X1): Exact.ONE})
    with pytest.raises(NotJustifyingError):
        sv_partition_test(f, {X0: Exact.ZERO, X1: Exact.ZERO}, {X0})


def test_sv_cross_polynomial_never_splits():
    rng = make_rng(10)
    a = find_justifying_assignment(CROSS, rng)
    for subset in ({X0}, {X1}, {Z0}, {Z1}, {X0, X1}, {X0, Z0}, {X0, Z1}):
        assert not sv_partition_test(CROSS, a, subset, rng=rng)


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
    from itertools import combinations
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
                sv = sv_partition_test(f, a, subset, rng=rng)
                assert sv == union
                # a union of classes always splits as a product
                if union:
                    assert split


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


def test_indecomposable_at_every_split_matches_oracle():
    rng = make_rng(15)
    from itertools import combinations
    # 40 exact polynomials, then 40 with Gaussian float coefficients, then
    # 20 products of variable-disjoint Gaussian factors
    for k in range(100):
        if k < 80:
            f = random_multilinear_poly(rng, int(rng.integers(2, 7)), 7,
                                        exact=k < 40)
        else:
            f, _ = random_disjoint_product(rng, int(rng.integers(2, 4)),
                                           int(rng.integers(1, 3)), exact=False)
        fvars = sorted(f.variables())
        if len(fvars) < 2:
            continue
        exhaustive = all(
            not bipartition_rank_oracle(f, frozenset(c))
            for size in range(1, len(fvars))
            for c in combinations(fvars, size))
        assert indecomposable_at_every_split(f) == exhaustive


# ---- text format --------------------------------------------------------------

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
