from fractions import Fraction

import numpy as np
import pytest

from qaclab.bridge import (
    BlockPartition,
    BlockPartitionError,
    PolyShapeError,
    block_partition,
    poly_of_state,
    separability_decomposability_check,
    state_of_poly,
)
from qaclab.circuit import GATE_H, apply_1q, apply_cz
from qaclab.family import BlockSpec, build_family_P
from qaclab.multilinear import MultilinearPoly, VarId, bipartition_rank_oracle
from qaclab.numerics import Exact, make_rng, scalar_is_zero, to_float
from qaclab.qstate import (
    StateVector,
    basis_state,
    random_exact_state,
    random_product_state,
    random_state,
    tensor,
)

XZ = block_partition(("x", (0,)), ("z", (1,)))


def test_poly_of_basis_state():
    f = poly_of_state(basis_state(2, "11"), XZ)
    assert f == MultilinearPoly(
        {frozenset({VarId("x", "1"), VarId("z", "1")}): Exact.ONE})


def test_poly_of_state_linearity():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    bell = StateVector(2, amps)
    f = poly_of_state(bell, XZ)
    assert abs(to_float(f.coefficient(frozenset({VarId("x", "0"), VarId("z", "0")})))
               - 1 / np.sqrt(2)) < 1e-12
    assert len(f.terms) == 2


def test_poly_of_cz_plus_plus_matches_family_polynomial():
    # the gate output on |+>|+> maps to the two-block family polynomial
    # with unit coefficients and alpha = 2, scaled by 1/2
    plus2 = tensor(apply_1q(basis_state(1, 0), 0, GATE_H),
                   apply_1q(basis_state(1, 0), 0, GATE_H))
    after = apply_cz(plus2, {0, 1})
    f = poly_of_state(after, XZ)
    ones = {"0": Exact.ONE, "1": Exact.ONE}
    p = build_family_P(BlockSpec(x=(1, 0), z=(1, 0)), ones, ones, Exact(2))
    assert f * Exact(2) == p


def test_state_of_poly_inverse():
    f = MultilinearPoly({frozenset({VarId("x", "1"), VarId("z", "1")}): Exact.ONE})
    psi = state_of_poly(f, XZ)
    assert psi.amp("11") == Exact.ONE

    rng = make_rng(50)
    bp = block_partition(("x", (0, 2)), ("z", (1,)))
    for _ in range(100):
        psi = random_state(3, rng)
        back = state_of_poly(poly_of_state(psi, bp), bp)
        assert np.allclose(back.amps.astype(complex), psi.amps)


def test_state_of_poly_shape_errors():
    bad = MultilinearPoly({frozenset({VarId("x", "0")}): Exact.ONE,
                           frozenset({VarId("z", "0")}): Exact.ONE})
    with pytest.raises(PolyShapeError):
        state_of_poly(bad, XZ)
    wrong_len = MultilinearPoly(
        {frozenset({VarId("x", "00"), VarId("z", "1")}): Exact.ONE})
    with pytest.raises(PolyShapeError):
        state_of_poly(wrong_len, XZ)


def test_block_partition_validation():
    with pytest.raises(BlockPartitionError):
        block_partition(("x", (0,)), ("x", (1,)))  # duplicate label
    with pytest.raises(BlockPartitionError):
        block_partition(("x", (0,)), ("z", (0,)))  # overlap
    with pytest.raises(BlockPartitionError):
        BlockPartition(tuple())
    bp = block_partition(("x", (0,)), ("z", (1,)))
    with pytest.raises(BlockPartitionError):
        poly_of_state(basis_state(3, "000"), bp)  # does not cover qubit 2


def test_norm_carries_over():
    rng = make_rng(51)
    psi = random_state(3, rng)
    bp = block_partition(("x", (0,)), ("z", (1, 2)))
    f = poly_of_state(psi, bp)
    coeff_norm = np.sqrt(sum(abs(to_float(c)) ** 2 for c in f.terms.values()))
    assert abs(coeff_norm - 1) < 1e-12


def test_product_state_gives_rank_one():
    rng = make_rng(52)
    bp = block_partition(("x", (0, 1)), ("z", (2, 3)))
    psi = random_product_state({0, 1}, {2, 3}, rng)
    report = separability_decomposability_check(psi, bp, {"x"})
    assert report.separable and report.poly_rank_le_1

    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    bell = tensor(StateVector(2, amps), basis_state(2, "00").to_float())
    report = separability_decomposability_check(
        bell, block_partition(("x", (0,)), ("z", (1, 2, 3))), {"x"})
    assert not report.separable and not report.poly_rank_le_1


def test_separable_implies_rank_one_sweep():
    rng = make_rng(53)
    for k in range(500):
        r = int(rng.integers(2, 5))
        cut = int(rng.integers(1, r))
        bp = block_partition(("x", tuple(range(cut))),
                             ("z", tuple(range(cut, r))))
        if k % 2 == 0:
            psi = random_product_state(set(range(cut)), set(range(cut, r)), rng)
        else:
            psi = random_state(r, rng)
        report = separability_decomposability_check(psi, bp, {"x"})
        assert report.implication_holds
        # for this correspondence the converse holds as well: the
        # coefficient matrix is exactly the reshaped amplitude matrix
        assert report.equivalence_holds


def reference_poly_of_state(psi, bp):
    """poly_of_state term by term: one monomial per basis index, the
    pruning constructor dropping the zero amplitudes."""
    terms = {}
    for i, c in enumerate(psi.amps):
        bits = format(i, f"0{psi.r}b")
        terms[frozenset(VarId(lbl, "".join(bits[q] for q in sorted(qs)))
                        for lbl, qs in bp.blocks)] = c
    return MultilinearPoly(terms)


def random_blocks(r, rng):
    """One to four blocks (at most r) over a random permutation of the qubits."""
    k = int(rng.integers(1, min(4, r) + 1))
    qubits = [int(q) for q in rng.permutation(r)]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, r), k - 1, replace=False))
    return block_partition(*((lbl, tuple(qubits[lo:hi])) for lbl, lo, hi in
                             zip("xyzw", [0, *cuts], [*cuts, r])))


def sparse_state(r, rng, exact):
    """A state with about half its amplitudes zero (at least one not)."""
    keep = rng.random(1 << r) < 0.5
    keep[int(rng.integers(0, 1 << r))] = True
    if exact:
        amps = random_exact_state(r, rng).amps.copy()
        amps[~keep] = Exact.ZERO
        if all(a == Exact.ZERO for a in amps):
            amps[np.flatnonzero(keep)[0]] = Exact(1, 1, 0, Fraction(1, 3))
        return StateVector(r, amps, normalized=False)
    amps = (rng.standard_normal(1 << r) + 1j * rng.standard_normal(1 << r)) * keep
    return StateVector(r, amps, normalized=False)


def test_poly_of_state_matches_term_by_term_reference():
    rng = make_rng(54)
    seen_blocks = set()
    for k in range(300):
        r = int(rng.integers(1, 7))
        exact = k % 2 == 0
        psi = sparse_state(r, rng, exact)
        bp = random_blocks(r, rng)
        seen_blocks.add(len(bp.blocks))
        f = poly_of_state(psi, bp)
        want = reference_poly_of_state(psi, bp)
        assert f.terms == want.terms
        assert len(f.terms) == int(psi.support().sum())
        assert not any(scalar_is_zero(c) for c in f.terms.values())
        assert all(isinstance(c, Exact) == exact for c in f.terms.values())
        if exact:
            back = state_of_poly(f, bp)
            assert back.den == psi.den and np.array_equal(back.num, psi.num)
    assert seen_blocks == {1, 2, 3, 4}

