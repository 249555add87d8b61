import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qaclab.numerics import (
    DEFAULT_TOL,
    Exact,
    Tolerance,
    approx_eq,
    make_rng,
    random_scalar,
    numerator_stack,
    random_unitary,
    sv_rank_le_1,
    to_float,
)
from qaclab import multilinear as ml
from qaclab.qstate import dense_rank_le_1

SQRT2 = 1.4142135623730951


def test_to_float_examples():
    assert to_float(Exact.INV_SQRT2) == complex(0.7071067811865476, 0.0)
    assert to_float(Exact.I) == 1j
    assert to_float(complex(2.5, -1)) == complex(2.5, -1)


def test_approx_eq_examples():
    assert approx_eq(Exact.ONE, Exact(1))
    assert approx_eq(complex(1, 0), complex(1 + 1e-12, 0))
    assert not approx_eq(complex(1, 0), complex(1.001, 0))


def test_exact_vs_exact_is_exact():
    # a float gap far below the tolerance still distinguishes exact values
    assert not approx_eq(Exact(1), Exact(1, Fraction(1, 10**12)))


def test_random_scalar_golden_seed_42():
    rng = np.random.default_rng(42)
    assert random_scalar(rng) == complex(0.30471707975443135, -1.0399841062404955)


def test_random_scalar_draws_distinct():
    rng = make_rng(0)
    assert random_scalar(rng) != random_scalar(rng)


def test_random_scalar_mean_small():
    rng = make_rng(7)
    mean = sum(random_scalar(rng) for _ in range(10**4)) / 10**4
    assert abs(mean) < 0.1


small = st.integers(min_value=-9, max_value=9)
exacts = st.builds(Exact, small, small, small, small)


@given(exacts, exacts)
@settings(max_examples=300, deadline=None)
def test_ring_homomorphism(x, y):
    assert abs(to_float(x + y) - (to_float(x) + to_float(y))) < 1e-12
    assert abs(to_float(x * y) - (to_float(x) * to_float(y))) < 1e-12


def test_ring_homomorphism_bulk():
    rng = make_rng(3)
    for _ in range(10**4):
        x = Exact(*map(int, rng.integers(-5, 6, size=4)))
        y = Exact(*map(int, rng.integers(-5, 6, size=4)))
        assert abs(to_float(x * y) - to_float(x) * to_float(y)) < 1e-12
        assert abs(to_float(x + y) - (to_float(x) + to_float(y))) < 1e-12


@given(exacts)
@settings(max_examples=200, deadline=None)
def test_division_inverts_multiplication(x):
    if x.is_zero:
        return
    y = Exact(3, -1, 2, 5)
    assert (y * x) / x == y


def test_canonical_components_are_reduced():
    # equal values built from unreduced fractions share identical components
    a = Exact(Fraction(2, 4), Fraction(-6, 4))
    b = Exact(Fraction(1, 2), Fraction(-3, 2))
    assert a == b and hash(a) == hash(b)
    assert a.a == Fraction(1, 2)


def test_mixed_backend_demotes_to_float():
    out = Exact(1) + 0.5
    assert isinstance(out, complex)
    assert out == 1.5

    assert isinstance(Exact(2) * Exact(3), Exact)
    assert Exact(2) * Exact(3) == Exact(6)


def test_abs2_and_conjugate():
    x = Exact(1, 1, 2, -1)
    assert abs(to_float(x.abs2()) - abs(to_float(x)) ** 2) < 1e-12
    assert to_float(x.conjugate()) == to_float(x).conjugate()


def test_sqrt2_arithmetic():
    assert Exact.SQRT2 * Exact.SQRT2 == Exact(2)
    assert Exact.INV_SQRT2 * Exact.SQRT2 == Exact.ONE
    assert Exact.ONE / Exact.SQRT2 == Exact.INV_SQRT2


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(-1.0, 0)
    with pytest.raises(ValueError):
        Tolerance(float("nan"), 0)
    assert DEFAULT_TOL.abs_eps == 1e-10
    assert DEFAULT_TOL.rel_eps == 1e-9


def test_random_unitary_is_unitary():
    rng = make_rng(11)
    for dim in (2, 4, 8):
        u = random_unitary(dim, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-10


def qr_haar(rng):
    """The QR-with-phase draw from the same eight normals."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    return q * (phases / np.abs(phases))


def test_closed_form_2x2_haar_matches_qr_with_phase():
    for seed in range(4):
        rng, ref = make_rng(70, seed), make_rng(70, seed)
        for _ in range(250):
            u = random_unitary(2, rng)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12
            assert np.max(np.abs(u - qr_haar(ref))) <= 1e-12
        # the generator is left where the QR draw leaves it
        assert random_unitary(2, rng).tobytes() == random_unitary(2, ref).tobytes()
        assert rng.standard_normal() == ref.standard_normal()


def test_sv_rank_le_1():
    tol = Tolerance(abs_eps=1e-10, rel_eps=1e-9)
    assert sv_rank_le_1(np.array([]), tol) and sv_rank_le_1(np.array([3.0]), tol)
    assert sv_rank_le_1(np.array([2.0, 1e-10 + 2e-9, 0.0]), tol)
    assert not sv_rank_le_1(np.array([2.0, 1e-10 + 2.1e-9]), tol)


# ---- the two rank <= 1 rules --------------------------------------------------

entries = st.integers(min_value=-3, max_value=3)
vectors = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(entries, min_size=n, max_size=n))
dense = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))
# outer products give rank <= 1 often enough to test both answers
outer = st.tuples(vectors, vectors).map(lambda uv: np.outer(*uv).tolist())


def rank_rules(mat):
    """The exact rule twice, ``dense_rank_le_1`` on the numerator stack of
    a matrix (a list of rows of ints or ``Exact``) and the sweep's pivot
    minors on its sparse nonzero rows, then the float rule,
    ``sv_rank_le_1`` on the singular values of its complex entries."""
    shape = (len(mat), len(mat[0]) if mat else 0)
    flat = [x if isinstance(x, Exact) else Exact(x) for row in mat for x in row]
    num, _ = numerator_stack(flat)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in mat]
    sparse = [row for row in sparse if row]
    s = np.linalg.svd(np.array(flat, dtype=complex).reshape(shape), compute_uv=False)
    return (dense_rank_le_1(num.reshape(len(num), *shape)),
            not sparse or not any(ml._pivot_minors(sparse)), sv_rank_le_1(s))


@given(st.one_of(dense, outer), st.data())
@settings(max_examples=400, deadline=None)
def test_rank_le_1_matches_matrix_rank(mat, data):
    want = np.linalg.matrix_rank(np.array(mat, dtype=float)) <= 1
    order = data.draw(st.permutations(range(len(mat))))  # moves the pivot
    assert rank_rules([mat[i] for i in order]) == (want, want, want)


def test_rank_le_1_examples():
    assert rank_rules([]) == (True, True, True)
    assert rank_rules([[0, 2]]) == (True, True, True)
    assert rank_rules([[1, 2], [3, 6]]) == (True, True, True)
    # same support, nonvanishing minor
    assert rank_rules([[1, 2], [3, 5]]) == (False, False, False)
    # a column present in one row only
    assert rank_rules([[1, 0], [1, 1]]) == (False, False, False)
    # an exact minor far below any float tolerance counts for the exact
    # rules only
    tiny = Exact(1, Fraction(1, 10**12))
    assert rank_rules([[1, 1], [1, tiny]]) == (False, False, True)
