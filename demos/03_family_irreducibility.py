# The irreducible family T1*T2 - alpha * (all-ones-lead terms).
#
# T1 and T2 are bilinear forms on disjoint variable blocks; subtracting
# an alpha-multiple of every product term whose leading sub-indices are
# all ones makes the product indecomposable, as long as the coefficient
# hypotheses hold (a surviving all-ones term on each side plus at least
# one term off the all-ones lead per block).
#
# For the compact two-block shape there is a constructive witness: scan
# A over {0,...,4}, solve for the unique B making P vanish, and check
# the two excluded values per side; some A always survives, giving a
# justifying root of P.  Exact inputs give an exact root.

from qaclab import (
    BlockSpec,
    build_family_P,
    check_family_hypotheses,
    evaluate,
    two_block_zero_assignment,
)
from qaclab.family import FAMILY_SHAPES, random_family_instance
from qaclab.multilinear import indecomposable_at_every_split, is_justifying
from qaclab.numerics import Exact, make_rng

# the smallest instance: k = m = 1, unit coefficients, alpha = 2
spec = BlockSpec(x=(1, 0), z=(1, 0))
ones = {"0": Exact.ONE, "1": Exact.ONE}
p = build_family_P(spec, ones, ones, Exact(2))
print("P =", p)
print("hypotheses:", check_family_hypotheses(spec, ones, ones).as_dict())

assignment, a_val, b_val = two_block_zero_assignment(spec, ones, ones, Exact(2))
print(f"explicit witness: A = {a_val}, B = {b_val}")  # exact inputs, exact B
print("  justifying:", is_justifying(p, assignment))
print("  P(a)      :", evaluate(p, assignment))
print("  no rank-1 split:", indecomposable_at_every_split(p))

# random instances of all six shapes stay indecomposable
rng = make_rng(7)
print()
for shape in FAMILY_SHAPES:
    spec, c, d, alpha = random_family_instance(shape, rng)
    q = build_family_P(spec, c, d, alpha)
    print(f"{shape:22s} vars={len(q.variables()):2d} "
          f"terms={len(q.terms):3d} "
          f"indecomposable={indecomposable_at_every_split(q)}")
