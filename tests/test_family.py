import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qaclab.family import (
    FAMILY_SHAPES,
    BlockSpec,
    FamilyShapeError,
    NoZeroAssignmentError,
    build_family_P,
    build_t1,
    build_t2,
    check_family_hypotheses,
    random_family_instance,
    two_block_zero_assignment,
)
from qaclab.multilinear import (
    MultilinearPoly,
    VarId,
    decompose,
    evaluate,
    find_zero_justifying_assignment,
    indecomposable_at_every_split,
    is_justifying,
)
from qaclab.numerics import Exact, is_exact, make_rng, to_float

ONES = {"1": Exact.ONE, "0": Exact.ONE}


def test_two_block_compact_hand_expansion():
    # k = m = 1, c = d = (1, 1), alpha = 2:
    # (x0 + x1)(z0 + z1) - 2 x1 z1 = x0 z0 + x0 z1 + x1 z0 - x1 z1
    spec = BlockSpec(x=(1, 0), z=(1, 0))
    p = build_family_P(spec, ONES, ONES, Exact(2))
    expected = MultilinearPoly({
        frozenset({VarId("x", "0"), VarId("z", "0")}): Exact.ONE,
        frozenset({VarId("x", "0"), VarId("z", "1")}): Exact.ONE,
        frozenset({VarId("x", "1"), VarId("z", "0")}): Exact.ONE,
        frozenset({VarId("x", "1"), VarId("z", "1")}): Exact.MINUS_ONE,
    })
    assert p == expected


def test_degenerate_coefficients_flagged():
    spec = BlockSpec(x=(1, 0), z=(1, 0))
    c = {"1": Exact.ONE}
    p = build_family_P(spec, c, c, Exact(2))
    assert p == MultilinearPoly(
        {frozenset({VarId("x", "1"), VarId("z", "1")}): Exact.MINUS_ONE})
    hyp = check_family_hypotheses(spec, c, c)
    assert not hyp.c_off_ones_first
    assert not hyp.all_hold


def test_zero_alpha_rejected():
    spec = BlockSpec(x=(1, 0), z=(1, 0))
    with pytest.raises(ValueError):
        build_family_P(spec, ONES, ONES, Exact.ZERO)


def test_key_length_mismatch_rejected():
    spec = BlockSpec(x=(1, 0), z=(1, 0))
    with pytest.raises(FamilyShapeError):
        build_family_P(spec, {"11": Exact.ONE}, ONES, Exact(2))


def test_four_block_against_expansion_oracle():
    # k = l = m = n = 1, all coefficients 1, alpha = 2: a 16-term product
    # with the all-ones term flipped to -1
    spec = BlockSpec(x=(1, 0), z=(1, 0), y=(1, 0), w=(1, 0))
    c = {"00": Exact.ONE, "01": Exact.ONE, "10": Exact.ONE, "11": Exact.ONE}
    p = build_family_P(spec, c, c, Exact(2))
    # independent oracle: direct nested expansion
    terms = {}
    for s in "01":
        for t in "01":
            for u in "01":
                for v in "01":
                    m = frozenset({VarId("x", s), VarId("y", t),
                                   VarId("z", u), VarId("w", v)})
                    coeff = Exact.ONE
                    if s == t == u == v == "1":
                        coeff = Exact.ONE - Exact(2)
                    terms[m] = coeff
    assert p == MultilinearPoly(terms)
    assert len(p.terms) == 16
    assert p.coefficient(frozenset({VarId("x", "1"), VarId("y", "1"),
                                    VarId("z", "1"), VarId("w", "1")})) == Exact(-1)


def test_hypotheses_hold_for_random_draws():
    rng = make_rng(20)
    for _ in range(100):
        spec, c, d, alpha = random_family_instance("four-block-split", rng)
        assert check_family_hypotheses(spec, c, d).all_hold


def test_two_block_zero_assignment_reference_case():
    # c = d = (1, 1), alpha = 2: A = 2 is the first admissible value and
    # forces B = 2/(1*(1+2)) - 1 = -1/3
    spec = BlockSpec(x=(1, 0), z=(1, 0))
    assignment, a_val, b_val = two_block_zero_assignment(spec, ONES, ONES, Exact(2))
    assert a_val == 2
    assert b_val == Exact(Fraction(-1, 3))
    p = build_family_P(spec, ONES, ONES, Exact(2))
    assert is_justifying(p, assignment)
    assert evaluate(p, assignment) == Exact.ZERO


def test_two_block_zero_assignment_feeds_indecomposability_witness():
    spec = BlockSpec(x=(1, 0), z=(1, 0))
    p = build_family_P(spec, ONES, ONES, Exact(2))
    assignment, _, _ = two_block_zero_assignment(spec, ONES, ONES, Exact(2))
    rng = make_rng(21)
    witness = find_zero_justifying_assignment(p, rng, candidates=[assignment])
    assert witness is not None


def test_two_block_zero_assignment_needs_compact_shape():
    with pytest.raises(FamilyShapeError):
        two_block_zero_assignment(BlockSpec(x=(1, 1), z=(1, 0)), ONES, ONES, Exact(2))


def test_two_block_zero_assignment_random_instances():
    rng = make_rng(22)
    for _ in range(40):
        spec, c, d, alpha = random_family_instance("two-block-compact", rng)
        p = build_family_P(spec, c, d, alpha)
        assignment, a_val, _ = two_block_zero_assignment(spec, c, d, alpha)
        assert 0 <= a_val <= 4
        assert is_justifying(p, assignment)
        assert abs(to_float(evaluate(p, assignment))) < 1e-8


@pytest.mark.parametrize("shape", FAMILY_SHAPES)
def test_family_members_indecomposable(shape):
    rng = make_rng(23)
    for _ in range(10):
        spec, c, d, alpha = random_family_instance(shape, rng, max_vars=10)
        p = build_family_P(spec, c, d, alpha)
        assert indecomposable_at_every_split(p)


@pytest.mark.parametrize("shape", FAMILY_SHAPES)
def test_family_members_decompose_to_one_factor(shape):
    # multilinear + indecomposable means the exhaustive decomposition
    # returns the polynomial itself
    rng = make_rng(24)
    spec, c, d, alpha = random_family_instance(shape, rng, max_vars=10)
    p = build_family_P(spec, c, d, alpha)
    factors = decompose(p)
    assert len(factors) == 1
    assert factors[0].variables() == p.variables()


def _gaussian_integer_instance(shape, rng):
    """A float instance's shape with Gaussian-integer c, d and alpha,
    drawn again until the hypotheses hold and alpha is not 0 or 1."""
    spec, keys_c, keys_d, _ = random_family_instance(shape, rng, max_vars=10)
    def draw():
        return Exact(int(rng.integers(-9, 10)), 0, int(rng.integers(-9, 10)))
    while True:
        c, d, alpha = {k: draw() for k in keys_c}, {k: draw() for k in keys_d}, draw()
        if check_family_hypotheses(spec, c, d).all_hold and alpha not in (0, 1):
            return spec, c, d, alpha


@pytest.mark.parametrize("shape", FAMILY_SHAPES)
def test_exact_family_stays_exact(exact_stays_exact, shape):
    """Exact members, their T1*T2 controls and the explicit root are
    decided with no float conversion."""
    rng = make_rng(28, FAMILY_SHAPES.index(shape))
    spec, c, d, alpha = _gaussian_integer_instance(shape, rng)
    p = build_family_P(spec, c, d, alpha)
    assert all(map(is_exact, p.terms.values()))
    assert indecomposable_at_every_split(p)
    assert decompose(p) == [p]
    control = build_t1(spec, c) * build_t2(spec, d)
    assert not indecomposable_at_every_split(control)
    factors = decompose(control)
    assert len(factors) >= 2 and math.prod(factors[1:], start=factors[0]) == control
    witness = find_zero_justifying_assignment(p, rng)
    assert witness is not None and all(map(is_exact, witness.values()))
    assert evaluate(p, witness) == Exact.ZERO
    if shape == "two-block-compact":
        assignment, _, b_val = two_block_zero_assignment(spec, c, d, alpha)
        assert is_exact(b_val) and all(map(is_exact, assignment.values()))
        assert evaluate(p, assignment) == Exact.ZERO and is_justifying(p, assignment)
        assert find_zero_justifying_assignment(p, rng, candidates=[assignment]) is assignment


def test_t1_t2_shapes():
    spec = BlockSpec(x=(1, 1), z=(1, 0), w=(1, 0))
    c = {"00": Exact.ONE, "11": Exact(2)}
    t1 = build_t1(spec, c)
    assert t1.variables() == frozenset({VarId("x", "00"), VarId("x", "11")})
    d = {"11": Exact.ONE, "01": Exact(3)}
    t2 = build_t2(spec, d)
    assert t2.variables() == frozenset({VarId("z", "1"), VarId("w", "1"),
                                        VarId("z", "0")})


# ---- golden family outputs -----------------------------------------------------
# ``PYTHONPATH=src python tests/test_family.py`` rewrites the file from the
# current code.

GOLDEN = Path(__file__).parent / "data" / "family_golden.json"
GOLDEN_FLOAT = 5    # float instances per shape
GOLDEN_ZERO = 40    # extra float two-block-compact instances for the root
GOLDEN_EXACT = 3    # exact instances per shape


def _hex(z) -> list:
    z = complex(z)
    return [z.real.hex(), z.imag.hex()]


def _exact_draw(rng):
    """A small element of Q(i, sqrt2)."""
    return Exact(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))),
                 int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))


def _exact_instance(shape, rng):
    """A float instance's shape with exact coefficients (hypotheses may
    fail) and a nonzero exact alpha."""
    spec, c, d, _ = random_family_instance(shape, rng)
    c = {key: _exact_draw(rng) for key in c}
    d = {key: _exact_draw(rng) for key in d}
    alpha = _exact_draw(rng)
    while alpha.is_zero:
        alpha = _exact_draw(rng)
    return spec, c, d, alpha


def _value(z):
    return repr(z) if isinstance(z, Exact) else _hex(z)


def _golden_outcome(spec, c, d, alpha, with_b) -> dict:
    """P's terms in order, then the root's assignment, A and (for float
    inputs) B, or the error raised."""
    p = build_family_P(spec, c, d, alpha)
    out = {"P": [[" ".join(map(str, sorted(m))), _value(v)] for m, v in p.terms.items()]}
    try:
        assignment, a_val, b_val = two_block_zero_assignment(spec, c, d, alpha)
    except (FamilyShapeError, NoZeroAssignmentError) as exc:
        out["root"] = f"{type(exc).__name__}: {exc}"
        return out
    out["root"] = {"assignment": [[str(v), _value(z)] for v, z in assignment.items()],
                   "A": a_val}
    if with_b:
        out["root"]["B"] = _hex(b_val)
    return out


def _golden_cases():
    """(name, spec, c, d, alpha) for every golden instance."""
    cases = []
    for i, shape in enumerate(FAMILY_SHAPES):
        for k in range(GOLDEN_FLOAT):
            cases.append((f"float/{shape}/{k}",
                          *random_family_instance(shape, make_rng(25, i, k))))
        for k in range(GOLDEN_EXACT):
            cases.append((f"exact/{shape}/{k}",
                          *_exact_instance(shape, make_rng(26, i, k))))
    for k in range(GOLDEN_ZERO):
        cases.append((f"float/witness/{k}",
                      *random_family_instance("two-block-compact", make_rng(27, k))))
    return cases


def _golden_results() -> dict:
    # an exact input's B is pinned as the assignment's z entry
    return {name: _golden_outcome(*inst, with_b=name.startswith("float"))
            for name, *inst in _golden_cases()}


def test_family_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    results = _golden_results()
    assert sorted(results) == sorted(golden)
    for name, expected in golden.items():
        assert results[name] == expected, name


if __name__ == "__main__":
    data = _golden_results()
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(data[name], separators=(',', ':'))}"
        for name in sorted(data)) + "\n}\n")
    sys.stdout.write(f"wrote {len(data)} cases to {GOLDEN}\n")
