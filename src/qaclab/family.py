"""Generators for the irreducible multilinear family T1*T2 - alpha*(...).

The family is parameterized by up to four variable blocks.  T1 is a
bilinear form in the x (and optionally y) blocks, T2 in the z (and
optionally w) blocks, and the correction term removes an alpha-multiple
of every product term whose leading sub-index is all ones:

    P = T1*T2 - alpha * sum over {s1=1..1, t1=1..1, u1=1..1, v1=1..1}
                         c[s,t] d[u,v] x_s y_t z_u w_v

Each block index splits into a leading part of length k1 (resp. l1, m1,
n1) and a trailing part of length k2 (and so on); a trailing length of
zero collapses the sum onto the single all-ones index of that block.
Under the coefficient hypotheses reported by ``check_family_hypotheses``
every member is indecomposable, which the verification suites certify
split by split.

For the two-block shape with no trailing parts there is a constructive
witness: an assignment that is justifying and a root of P, found by
scanning A over {0,...,4} and solving for the matching B.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .multilinear import Assignment, MultilinearPoly, VarId
from .numerics import Exact, is_exact, random_scalar, scalar_is_zero, to_float

#: In the candidate scan of ``two_block_zero_assignment``, T1 or T2 this
#: close to 0, or to alpha times its ones coefficient, rejects the
#: candidate.
_DEGENERATE = 1e-12


class FamilyShapeError(ValueError):
    """Block lengths or coefficient keys do not match the requested shape."""


@dataclass(frozen=True)
class BlockSpec:
    """Leading/trailing index lengths per block; y and w are optional."""

    x: tuple[int, int]
    z: tuple[int, int]
    y: tuple[int, int] | None = None
    w: tuple[int, int] | None = None

    def __post_init__(self):
        for name in ("x", "z", "y", "w"):
            pair = getattr(self, name)
            if pair is None:
                continue
            lead, trail = pair
            if lead < 1 or trail < 0:
                raise FamilyShapeError(
                    f"block {name}: leading length must be >= 1, trailing >= 0")

    @property
    def has_y(self) -> bool:
        return self.y is not None

    @property
    def has_w(self) -> bool:
        return self.w is not None

    def t1_lengths(self) -> tuple[tuple[int, int], ...]:
        return (self.x, self.y) if self.has_y else (self.x,)

    def t2_lengths(self) -> tuple[tuple[int, int], ...]:
        return (self.z, self.w) if self.has_w else (self.z,)

    def n_variables_upper(self) -> int:
        total = 0
        for lead, trail in (*self.t1_lengths(), *self.t2_lengths()):
            total += 1 << (lead + trail)
        return total


def _indices(length: int):
    return ["".join(bits) for bits in product("01", repeat=length)]


def _split_key(key: str, lengths) -> tuple[str, ...]:
    total = sum(a + b for a, b in lengths)
    if len(key) != total or set(key) - {"0", "1"}:
        raise FamilyShapeError(
            f"coefficient key {key!r} must be a bitstring of length {total}")
    parts = []
    pos = 0
    for lead, trail in lengths:
        parts.append(key[pos:pos + lead + trail])
        pos += lead + trail
    return tuple(parts)


def _term_poly(coeffs: dict, lengths, letters: str) -> MultilinearPoly:
    terms = {}
    for key, c in coeffs.items():
        parts = _split_key(key, lengths)
        m = frozenset(VarId(letters[i], parts[i]) for i in range(len(parts)))
        terms[m] = terms[m] + c if m in terms else c
    return MultilinearPoly(terms)


def build_t1(spec: BlockSpec, c: dict) -> MultilinearPoly:
    return _term_poly(c, spec.t1_lengths(), "xy")


def build_t2(spec: BlockSpec, d: dict) -> MultilinearPoly:
    return _term_poly(d, spec.t2_lengths(), "zw")


def _leading_all_ones(key: str, lengths) -> bool:
    pos = 0
    for lead, trail in lengths:
        if key[pos:pos + lead] != "1" * lead:
            return False
        pos += lead + trail
    return True


def build_family_P(spec: BlockSpec, c: dict, d: dict, alpha) -> MultilinearPoly:
    """The family polynomial T1*T2 minus alpha times the all-ones-lead sum."""
    if scalar_is_zero(alpha):
        raise ValueError("alpha must be nonzero")
    t1 = build_t1(spec, c)
    t2 = build_t2(spec, d)
    p = t1 * t2
    correction = {}
    for ckey, cval in c.items():
        if not _leading_all_ones(ckey, spec.t1_lengths()):
            continue
        for dkey, dval in d.items():
            if not _leading_all_ones(dkey, spec.t2_lengths()):
                continue
            parts1 = _split_key(ckey, spec.t1_lengths())
            parts2 = _split_key(dkey, spec.t2_lengths())
            m = frozenset(
                list(VarId("xy"[i], s) for i, s in enumerate(parts1))
                + list(VarId("zw"[i], s) for i, s in enumerate(parts2)))
            val = alpha * cval * dval
            correction[m] = correction[m] + val if m in correction else val
    return p - MultilinearPoly(correction)


@dataclass(frozen=True)
class FamilyHypotheses:
    """Which coefficient hypotheses of the irreducibility family hold."""

    c_ones_lead: bool       # some c key with all leading parts = 1..1
    d_ones_lead: bool
    c_off_ones_first: bool  # some c key whose first-block lead has a 0
    d_off_ones_first: bool
    c_off_ones_second: bool | None  # second T1 block, when present
    d_off_ones_second: bool | None

    @property
    def all_hold(self) -> bool:
        checks = [self.c_ones_lead, self.d_ones_lead,
                  self.c_off_ones_first, self.d_off_ones_first]
        if self.c_off_ones_second is not None:
            checks.append(self.c_off_ones_second)
        if self.d_off_ones_second is not None:
            checks.append(self.d_off_ones_second)
        return all(checks)

    def as_dict(self) -> dict:
        return {
            "c_ones_lead": self.c_ones_lead,
            "d_ones_lead": self.d_ones_lead,
            "c_off_ones_first": self.c_off_ones_first,
            "d_off_ones_first": self.d_off_ones_first,
            "c_off_ones_second": self.c_off_ones_second,
            "d_off_ones_second": self.d_off_ones_second,
        }


def _hypotheses_side(coeffs: dict, lengths) -> tuple[bool, bool, bool | None]:
    ones_lead = False
    off_first = False
    off_second = None if len(lengths) == 1 else False
    for key, val in coeffs.items():
        if scalar_is_zero(val):
            continue
        parts = _split_key(key, lengths)
        if _leading_all_ones(key, lengths):
            ones_lead = True
        lead0 = lengths[0][0]
        if parts[0][:lead0] != "1" * lead0:
            off_first = True
        if len(lengths) > 1:
            lead1 = lengths[1][0]
            if parts[1][:lead1] != "1" * lead1:
                off_second = True
    return ones_lead, off_first, off_second


def check_family_hypotheses(spec: BlockSpec, c: dict, d: dict) -> FamilyHypotheses:
    c_ones, c_off1, c_off2 = _hypotheses_side(c, spec.t1_lengths())
    d_ones, d_off1, d_off2 = _hypotheses_side(d, spec.t2_lengths())
    return FamilyHypotheses(c_ones, d_ones, c_off1, d_off1, c_off2, d_off2)


class NoZeroAssignmentError(RuntimeError):
    """The five-candidate scan found no admissible (A, B) pair."""


def two_block_zero_assignment(spec: BlockSpec, c: dict, d: dict,
                              alpha) -> tuple[Assignment, int, complex]:
    """Justifying root assignment for the compact two-block shape.

    Requires x and z blocks only, with no trailing parts.  Sets
    ``x[ones] = 1`` and ``z[ones] = 1``, picks witnesses s0 != ones with
    ``c[s0] != 0`` and u0 != ones with ``d[u0] != 0``, zeroes every other
    variable, and scans A in {0,...,4}: B is then forced by requiring
    P to vanish,

        B = alpha*c1*d1 / (d[u0]*(c1 + c[s0]*A)) - d1/d[u0],

    and a candidate is kept when T1, T2 are nonzero and avoid the two
    values that would flatten a single-variable restriction.
    """
    if spec.has_y or spec.has_w or spec.x[1] != 0 or spec.z[1] != 0:
        raise FamilyShapeError("explicit root construction needs the compact "
                               "two-block shape (no y/w, no trailing parts)")
    k, m = spec.x[0], spec.z[0]
    ones_s, ones_u = "1" * k, "1" * m
    c1 = c.get(ones_s, 0)
    d1 = d.get(ones_u, 0)
    s0 = next((s for s in sorted(c) if s != ones_s and not scalar_is_zero(c[s])), None)
    u0 = next((u for u in sorted(d) if u != ones_u and not scalar_is_zero(d[u])), None)
    if scalar_is_zero(c1) or scalar_is_zero(d1) or s0 is None or u0 is None:
        raise NoZeroAssignmentError("coefficient hypotheses do not hold")

    c1f, d1f = to_float(c1), to_float(d1)
    cs0, du0 = to_float(c[s0]), to_float(d[u0])
    alphaf = to_float(alpha)

    exact_inputs = all(is_exact(v) for v in (*c.values(), *d.values())) and is_exact(alpha)

    for a_val in range(5):
        t1 = c1f + cs0 * a_val
        if abs(t1) < _DEGENERATE or abs(t1 - alphaf * c1f) < _DEGENERATE:
            continue
        b_val = alphaf * c1f * d1f / (du0 * t1) - d1f / du0
        t2 = d1f + du0 * b_val
        if abs(t2) < _DEGENERATE or abs(t2 - alphaf * d1f) < _DEGENERATE:
            continue
        if exact_inputs:
            a_s = Exact(a_val)
            b_s = (alpha * c1 * d1) / (d[u0] * (c1 + c[s0] * Exact(a_val))) - d1 / d[u0]
        else:
            a_s, b_s = complex(a_val), b_val
        assignment = {}
        for s in _indices(k):
            if s == s0:
                assignment[VarId("x", s)] = a_s
            elif s == ones_s:
                assignment[VarId("x", s)] = Exact.ONE if exact_inputs else 1.0 + 0j
            else:
                assignment[VarId("x", s)] = Exact.ZERO if exact_inputs else 0j
        for u in _indices(m):
            if u == u0:
                assignment[VarId("z", u)] = b_s
            elif u == ones_u:
                assignment[VarId("z", u)] = Exact.ONE if exact_inputs else 1.0 + 0j
            else:
                assignment[VarId("z", u)] = Exact.ZERO if exact_inputs else 0j
        return assignment, a_val, b_val
    raise NoZeroAssignmentError("no A in {0..4} gave an admissible B")


#: The six family shapes exercised by the verification suites, named by
#: block structure: "compact" shapes have no trailing index parts.
FAMILY_SHAPES = (
    "two-block-compact",
    "three-block-compact",
    "four-block-compact",
    "two-block-split",
    "three-block-split",
    "four-block-split",
)


def random_family_instance(shape: str, rng: np.random.Generator,
                           max_vars: int = 12):
    """Sample (spec, c, d, alpha) for a shape, with hypotheses holding.

    Compact shapes have no trailing index parts; split shapes put a
    trailing part on at least one block (the general form allows any
    block's trailing length to be zero).  Gaussian coefficients satisfy
    the hypotheses almost surely; alpha is resampled until it is bounded
    away from 0 and 1 so no correction coefficient nearly cancels.
    """
    if shape not in FAMILY_SHAPES:
        raise ValueError(f"unknown family shape {shape!r}")
    split = shape.endswith("split")
    n_blocks = {"two": 2, "three": 3, "four": 4}[shape.split("-")[0]]
    while True:
        leads = [int(rng.integers(1, 3)) for _ in range(n_blocks)]
        if split:
            trails = [int(rng.integers(0, 2)) for _ in range(n_blocks)]
            if not any(trails):
                trails[int(rng.integers(0, n_blocks))] = 1
        else:
            trails = [0] * n_blocks
        pairs = list(zip(leads, trails))
        x, z = pairs[0], pairs[1]
        y = pairs[3] if n_blocks == 4 else None
        w = pairs[2] if n_blocks >= 3 else None
        spec = BlockSpec(x=x, z=z, y=y, w=w)
        if spec.n_variables_upper() <= max_vars:
            break
    c_len = sum(a + b for a, b in spec.t1_lengths())
    d_len = sum(a + b for a, b in spec.t2_lengths())
    c = {key: random_scalar(rng) for key in _indices(c_len)}
    d = {key: random_scalar(rng) for key in _indices(d_len)}
    alpha = random_scalar(rng)
    while abs(alpha) < 0.5 or abs(alpha - 1) < 0.5:
        alpha = random_scalar(rng)
    return spec, c, d, alpha
