"""Golden results of the polynomial layer on a fixed corpus.

Seeded integer polynomials, and the same polynomials scaled by sqrt2, i,
(1+i)/sqrt2, 1/3 and 1+sqrt2, with one coefficient moved off the real
line by +i, scaled to either side of the int64 bound and past it, and
with float coefficients.  For each: the reprs of ``decompose``, the
``variable_partition``, and at integer, 1/3, sqrt2 and 1+i points
``is_justifying`` and every subset's ``sv_partition_test`` verdict.
``tests/data/poly_golden.json`` holds the results; regenerate it with

    PYTHONPATH=src python tests/test_poly_corpus.py
"""
import json
import math
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from qaclab import multilinear as ml
from qaclab.multilinear import (
    MultilinearPoly,
    decompose,
    is_justifying,
    random_disjoint_product,
    random_multilinear_poly,
    sv_partition_test,
    variable_partition,
)
from qaclab.numerics import Exact, make_rng

GOLDEN = Path(__file__).parent / "data" / "poly_golden.json"

#: Scaling an integer f with l1 = sum|c| by INT64_L1 // l1 keeps l1^2
#: below 2^63, and by one more reaches it.
INT64_L1 = math.isqrt(2 ** 63 - 1)

SCALES = {"sqrt2": Exact.SQRT2, "i": Exact.I,
          "unit": Exact(0, Fraction(1, 2), 0, Fraction(1, 2)),
          "third": Exact(Fraction(1, 3)), "one-plus-sqrt2": Exact(1, 1)}

#: Each point draws one value per variable.
POINTS = {"int": lambda rng: Exact(int(rng.integers(1, 8))),
          "int-with-zeros": lambda rng: Exact(int(rng.integers(-2, 3))),
          "third": lambda rng: Exact(Fraction(int(rng.integers(-4, 8)), 3)),
          "sqrt2": lambda rng: Exact(int(rng.integers(-3, 4)), 1),
          "one-plus-i": lambda rng: Exact(int(rng.integers(-3, 4)), 0, 1)}


def bases():
    """Products, indecomposables and a product whose first factor's
    coefficients sum to zero, which hides the pair links of the others."""
    x = [ml.var("x", str(i)) for i in range(5)]
    zero_sum = MultilinearPoly(
        {ml.mono(x[0]): Exact(1), ml.mono(x[1]): Exact(-1),
         ml.mono(x[0], x[2]): Exact(2), ml.mono(x[1], x[2]): Exact(-2)})
    zero_sum = zero_sum * MultilinearPoly(
        {ml.mono(x[3]): Exact(3), ml.mono(x[4]): Exact(1),
         ml.mono(x[3], x[4]): Exact(2), ml.mono(): Exact(-1)})
    return {"prod2x3": random_disjoint_product(make_rng(1), 2, 3)[0],
            "rand5": random_multilinear_poly(make_rng(2), 5, 9),
            "prod3x2": random_disjoint_product(make_rng(3), 3, 2)[0],
            "rand7": random_multilinear_poly(make_rng(5), 7, 11),
            "zero-sum": zero_sum}


def variants(f):
    """The corpus polynomials built from one integer polynomial f."""
    out = {"int": f}
    out.update((name, f * s) for name, s in SCALES.items())
    lead = min(f.terms, key=ml._mono_key)
    out["mixed"] = f + MultilinearPoly({lead: Exact.I})
    l1 = sum(abs(c.a) for c in f.terms.values())
    out["int64-below"] = f * Exact(INT64_L1 // l1)
    out["int64-above"] = f * Exact(INT64_L1 // l1 + 1)
    out["huge"] = f * Exact(2 ** 70)
    out["float"] = MultilinearPoly({m: complex(c) for m, c in f.terms.items()})
    return out


def corpus():
    """(name, f, points) for every corpus case; float polynomials only at
    the integer and 1/3 points."""
    cases = []
    for base, f in bases().items():
        for kind, g in variants(f).items():
            fvars = sorted(g.variables())
            rng = make_rng(17, len(cases))
            points = {name: {x: draw(rng) for x in fvars}
                      for name, draw in POINTS.items()
                      if kind != "float" or name in ("int", "third")}
            cases.append((f"{base}/{kind}", g, points))
    return cases


def results(f, points) -> dict:
    fvars = sorted(f.variables())
    subsets = [frozenset(c) for k in range(len(fvars) + 1)
               for c in combinations(fvars, k)]
    out = {"poly": repr(f),
           "decompose": [repr(g) for g in decompose(f)],
           "partition": [sorted(map(str, c)) for c in variable_partition(f)],
           "points": {}}
    for name, a in points.items():
        sv = "".join(str(int(sv_partition_test(f, a, s, assume_justifying=True)))
                     for s in subsets)
        out["points"][name] = {"justifying": is_justifying(f, a), "sv": sv}
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


CASES = corpus()


@pytest.mark.parametrize("name, f, points", CASES, ids=[c[0] for c in CASES])
def test_corpus_matches_golden(name, f, points, golden):
    assert results(f, points) == golden[name]


def test_exact_corpus_never_goes_float(monkeypatch, golden):
    """Exact cases are decided with no float conversion or random point."""
    def refuse(*args):
        raise AssertionError("exact case reached the float route")
    monkeypatch.setattr(ml, "to_float", refuse)
    monkeypatch.setattr(ml, "random_scalar", refuse)
    for name, f, points in CASES:
        if not name.endswith("/float"):
            assert results(f, points) == golden[name], name


if __name__ == "__main__":
    data = {name: results(f, points) for name, f, points in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(data)} cases to {GOLDEN}\n")
