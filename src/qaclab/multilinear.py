"""Sparse multilinear polynomial algebra and decomposability testing.

A polynomial is stored as a map from monomials to coefficients, where a
monomial is a frozenset of variables (multilinear: each variable occurs
with degree at most one).  Variables are tagged with a block letter and
a bitstring index, e.g. ``x[01]``, so that polynomials read off quantum
states keep their register structure visible.

Exact f on at most 16 variables has one coefficient form (``_form``):
its numerators over their common denominator as a [k, 2, ..., 2] stack,
variable q on axis q + 1 as qubit q of ``StateVector.stack``, with
k = 1 for real rationals and k = 4 (the components of 1, sqrt2, i and
i sqrt2) otherwise.  Every exact decision runs on it, in int64 while no
entry can overflow and on Python ints past that, never float:
``sv_partition_test`` checks the restriction identity
``f(a) * f == f|_I * f|_complement(I)``, which at a justifying a holds
exactly when I is a union of variable-partition classes, and
``is_justifying`` the partial derivatives, both at a point prepared
once.  A float f or point makes both complex, compared entrywise by
``Tolerance.close``.  ``decompose`` tests rank <= 1 on the splits that
are unions of pair-link classes (``qstate.linked_classes``).
``bipartition_rank_oracle`` decides a split by one rule per field
(exact minors, float singular values), which the sweep
``indecomposable_at_every_split`` follows; the suites cross-check both.
"""
from __future__ import annotations

import functools
import math
import operator
import re
from typing import Iterable, NamedTuple

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    INT64_SAFE,
    Exact,
    Tolerance,
    approx_eq,
    four_components,
    is_exact,
    numerator_stack,
    random_scalar,
    scalar_is_zero,
    stack_mul,
    stack_size,
    sv_rank_le_1,
    to_float,
)
from .qstate import cut_stack, dense_rank_le_1, first_nonzero, linked_classes
from .textio import ParseError, content_lines, format_complexes, parse_complexes


class VarId(NamedTuple):
    block: str
    index: str

    def __str__(self):
        return f"{self.block}[{self.index}]"


Monomial = frozenset
Assignment = dict


class MissingVariableError(ValueError):
    """An assignment does not cover a variable it is applied to."""


class JustifyingSearchError(RuntimeError):
    """No justifying assignment found within the attempt budget."""


class NotJustifyingError(ValueError):
    """An operation required a verified justifying assignment."""


class DecompositionBudgetError(ValueError):
    """Too many variables for the exhaustive bipartition search."""


def var(block: str, index) -> VarId:
    return VarId(block, str(index))


def mono(*vars_: VarId) -> Monomial:
    return frozenset(vars_)


def _mono_key(m: Monomial):
    return (len(m), tuple(sorted(m)))


class MultilinearPoly:
    """Multilinear polynomial as a pruned {monomial: coefficient} map."""

    __slots__ = ("terms", "_form", "_point")

    def __init__(self, terms=None):
        pruned = {}
        for m, c in (terms or {}).items():
            if not scalar_is_zero(c):
                pruned[frozenset(m)] = c
        self.terms = pruned
        self._form = None
        self._point = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def _of(cls, terms: dict) -> "MultilinearPoly":
        """A polynomial keeping ``terms``, a fresh {frozenset: nonzero
        coefficient} dict, unchecked and uncopied."""
        f = object.__new__(cls)
        f.terms, f._form, f._point = terms, None, None
        return f

    @classmethod
    def constant(cls, c) -> "MultilinearPoly":
        return cls({frozenset(): c})

    @classmethod
    def variable(cls, v: VarId) -> "MultilinearPoly":
        return cls({frozenset([v]): Exact.ONE})

    # ---- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def constant_value(self):
        return self.coefficient(frozenset())

    def variables(self) -> frozenset:
        return frozenset().union(*self.terms)

    def coefficient(self, m: Monomial):
        """The coefficient of m; a missing term is ``Exact.ZERO`` when every
        coefficient is exact (so exact f stays exact), else 0."""
        m = frozenset(m)
        if m in self.terms:
            return self.terms[m]
        return Exact.ZERO if all(map(is_exact, self.terms.values())) else 0

    def leading_monomial(self) -> Monomial:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=_mono_key)

    # ---- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultilinearPoly):
            other = MultilinearPoly.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return MultilinearPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultilinearPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultilinearPoly):
            other = MultilinearPoly.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultilinearPoly):
            return MultilinearPoly({m: c * other for m, c in self.terms.items()})
        # Only variable-disjoint products keep the result multilinear.
        if not self.is_constant and not other.is_constant:
            if self.variables() & other.variables():
                raise ValueError("product of polynomials with shared variables "
                                 "is not multilinear")
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 | m2
                c = c1 * c2
                out[m] = out[m] + c if m in out else c
        return MultilinearPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def approx_eq(self, other: "MultilinearPoly", tol: Tolerance = DEFAULT_TOL) -> bool:
        keys = set(self.terms) | set(other.terms)
        return all(approx_eq(self.terms.get(m, Exact.ZERO),
                             other.terms.get(m, Exact.ZERO), tol) for m in keys)

    def __repr__(self):
        if self.is_zero:
            return "<poly 0>"
        parts = []
        for m in sorted(self.terms, key=_mono_key):
            vs = "*".join(str(v) for v in sorted(m)) or "1"
            parts.append(f"({self.terms[m]})*{vs}")
        return "<poly " + " + ".join(parts) + ">"


def variables_of(f: MultilinearPoly) -> frozenset:
    """Variables f depends on; for a pruned multilinear map this is the
    union of the monomial supports."""
    return f.variables()


def evaluate(f: MultilinearPoly, a: Assignment):
    """Full substitution of a into f."""
    total = None
    for m, c in f.terms.items():
        val = c
        for v in sorted(m):  # not hash order: float rounding depends on it
            if v not in a:
                raise MissingVariableError(f"assignment is missing {v}")
            val = val * a[v]
        total = val if total is None else total + val
    if total is None:
        return Exact.ZERO
    return total


def restrict(f: MultilinearPoly, subset: Iterable[VarId], a: Assignment) -> MultilinearPoly:
    """Substitute a[v] for each v in subset, leaving other variables free."""
    subset = frozenset(subset)
    for v in subset:
        if v not in a:
            raise MissingVariableError(f"assignment is missing {v}")
    out = {}
    for m, c in f.terms.items():
        val = c
        for v in sorted(m & subset):
            val = val * a[v]
        rest = m - subset
        out[rest] = out[rest] + val if rest in out else val
    return MultilinearPoly(out)


# ---- justifying assignments -------------------------------------------

def is_justifying(f: MultilinearPoly, a: Assignment,
                  tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every single-variable restriction of f at a is non-constant.

    Each restriction is univariate multilinear, c0 + c1*v; it counts as
    non-constant when c1 = df/dv(a) is nonzero: exactly when f and a are
    exact, else when |c1| > tol.threshold(max(1, |c0|)), relative to the
    restriction's own scale, so that an assignment annihilating a whole
    factor is rejected even when rounding leaves residues of order 1e-17.
    Past 16 variables, on ``restrict``; else on the prepared point.
    """
    if (prepared := _prepared(f, _form(f), a, tol)) is not None:
        return prepared.justifying()
    fvars = f.variables()
    for v in fvars:
        g = restrict(f, fvars - {v}, a)
        c1 = g.coefficient(mono(v))  # 0 if pruned: exactly zero
        if scalar_is_zero(c1) or not is_exact(c1) and abs(c1) <= tol.threshold(
                max(1.0, abs(to_float(g.constant_value())))):
            return False
    return True


def find_justifying_assignment(f: MultilinearPoly,
                               rng: np.random.Generator,
                               attempts: int = 200) -> Assignment:
    """Random search for a justifying assignment, verified definitionally.

    Small positive integers are tried first so exact-backend polynomials
    get exact witnesses; later attempts fall back to complex Gaussians.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no justifying assignment")
    fvars = sorted(f.variables())
    for attempt in range(attempts):
        if attempt < max(attempts // 2, 1):
            a = {v: Exact(int(rng.integers(1, 8))) for v in fvars}
        else:
            a = {v: random_scalar(rng) for v in fvars}
        if is_justifying(f, a):
            return a
    raise JustifyingSearchError(
        f"no justifying assignment in {attempts} attempts")


#: Exact f on more variables has no form stack.
_DENSE_MAX_VARS = 16

#: A pivot coefficient at most this large counts as zero when
#: ``_solve_single_variable_zero`` solves along one variable.
_PIVOT_EPS = 1e-12

#: |f(a)| at most this counts as a root in the zero-justifying search.
_ROOT_EPS = 1e-9


class _Form(NamedTuple):
    """Sorted variables, the bit of each (v-1-q for ``fvars[q]``), a
    bitmask per term; for exact f its (k, terms) ``numerator_stack`` less
    the denominator, which no decision needs, and on at most 16 variables
    that stack read-only as [k, 2, ..., 2] and l1, its ``stack_size``."""
    fvars: list
    bit: dict
    masks: list
    values: np.ndarray | None
    tensor: np.ndarray | None
    l1: int


def _form(f: MultilinearPoly) -> _Form:
    """f's form, built once: nothing writes ``terms`` after construction."""
    if f._form is None:
        fvars = sorted(f.variables())
        v = len(fvars)
        bit = {x: 1 << (v - 1 - q) for q, x in enumerate(fvars)}
        masks = [sum(map(bit.__getitem__, m)) for m in f.terms]
        coeffs, values, tensor, l1 = list(f.terms.values()), None, None, 0
        if all(map(is_exact, coeffs)):
            values, _ = numerator_stack(coeffs)
            if v <= _DENSE_MAX_VARS:
                l1, tensor = sum(stack_size(values)), _dense(masks, values, [2] * v)
                tensor.flags.writeable = False
        f._form = _Form(fvars, bit, masks, values, tensor, l1)
    return f._form


def _dense(flat, values: np.ndarray, shape) -> np.ndarray:
    """The (k, n) values at their flat indices in a zero (k, *shape) stack."""
    t = np.zeros((len(values), math.prod(shape)), dtype=values.dtype)
    t[:, flat] = values
    return t.reshape(len(values), *shape)


def _complex_tensor(f: MultilinearPoly, form: _Form) -> np.ndarray:
    """f's coefficients as complex values in a [1, 2, ..., 2] stack."""
    values = np.array([list(map(to_float, f.terms.values()))], dtype=complex)
    return _dense(form.masks, values, [2] * len(form.fvars))


def _close(x, y, tol: Tolerance | None, scale=None) -> np.ndarray:
    """x == y entrywise: exactly without tol, else ``tol.close`` or at a given scale."""
    if tol is None:
        return x == y
    return abs(x - y) <= tol.threshold(np.maximum(abs(x), abs(y)) if scale is None else scale)


#: A sweep on at most this many variables is decided for every subset in
#: one batch; its index table holds 4^v int16 entries.
_BATCH_MAX_VARS = 8

#: The batched pass compares this many entries at a time: whole-table
#: transients (2^15 at v = 8) raised a sweep run's peak RSS by 0.9 MB.
_BATCH_BLOCK = 1 << 12


class _Point:
    """A point prepared for f (``_prepared``): the values it was built
    from, f's stack t, the point's denominator D, its (k, v) stack of
    numerators n_q, the [k, 2, ..., 2] Kronecker product of the axis
    weights (D, n_q) and the tol it compares by (None: exactly); then the
    first subset's bitmask, every verdict and justifying-ness once asked."""

    __slots__ = ("values", "t", "den", "num", "kron", "tol", "first", "verdicts", "justified")

    def __init__(self, values, t, den, num, kron, tol):
        self.values, self.t, self.den, self.num, self.kron = values, t, den, num, kron
        self.tol, self.first, self.verdicts, self.justified = tol, None, None, None

    def verdict(self, mask: int) -> bool:
        """The restriction identity at the subset of this bitmask: alone at
        first, then every subset in one batch at a second one (v <= 8)."""
        if self.verdicts is None:
            if (self.first is None or self.first == mask
                    or len(self.values) > _BATCH_MAX_VARS):
                self.first = mask
                return _restriction_identity(self.t, self.kron, mask, self.tol)
            self.verdicts = _all_restriction_identities(self.t, self.den, self.num, self.tol)
        return self.verdicts[mask]

    def justifying(self) -> bool:
        """Whether every partial derivative of f is nonzero here: along
        axis q, the sum over x holding q of t[x] times kron at x less q
        (``_axis_pairs``), where q weighs D, not n_q: scaled by D^v."""
        if self.justified is None:
            has, lacks = _axis_pairs(len(self.values))
            t, kron = (x.reshape(len(x), -1) for x in (self.t, self.kron))
            part = stack_mul(t[:, has], kron[:, lacks]).sum(axis=2)
            scale = None if self.tol is None else np.maximum(  # max(1, |f at x_q = 0|)
                abs((t[:, lacks] * kron[:, lacks]).sum(axis=2)), 1.0)
            self.justified = not _close(part, 0, self.tol, scale).all(axis=0).any()
        return self.justified


@functools.cache
def _axis_pairs(v: int) -> tuple:
    """Row q: the flat indices of a [2]*v array whose bit for axis q
    (v-1-q) is set, in order, and the same with that bit clear."""
    x, bit = np.arange(1 << v), 1 << np.arange(v - 1, -1, -1)[:, None]
    has = np.nonzero(x & bit)[1].reshape(v, (1 << v) // 2)
    has.flags.writeable = False
    return has, has ^ bit


def _prepared(f: MultilinearPoly, form: _Form, a: Assignment, tol) -> _Point | None:
    """f prepared at a, None past 16 variables.  Exact f at an exact point
    is a stack over the point's denominator D, so axis q weighs f by
    (D, n_q), not (1, n_q / D): a partial evaluation is scaled by D per
    axis it substitutes.  B = l1 prod_q max(D, size of n_q) bounds every
    entry computed, so they run in int64 if B^2 < ``INT64_SAFE``, else on
    Python ints.  Others are complex (k = 1) over D = 1, so the tol kept
    sees true values.  The last point is kept on f, keyed on its tol and
    the identity of its values (immutable, and held, so no other object
    takes their ids): a sweep prepares a point once, and a dict changed
    in place is prepared again, with no verdicts."""
    try:
        point = [a[x] for x in form.fvars]
    except KeyError as exc:
        raise MissingVariableError(f"assignment is missing {exc.args[0]}") from None
    if (p := f._point) and p.tol in (None, tol) and all(map(operator.is_, p.values, point)):
        return p
    if len(point) > _DENSE_MAX_VARS:
        return None
    if form.tensor is not None and all(map(is_exact, point)):
        num, den = numerator_stack(point)
        bound = form.l1 * math.prod(max(den, s) for s in stack_size(num))
        dtype = np.int64 if bound * bound < INT64_SAFE else object
        t, num, tol = form.tensor.astype(dtype, copy=False), num.astype(dtype), None
        if len(num) == 4:
            t = four_components(t)
    else:
        t, den = _complex_tensor(f, form), 1
        num = np.array([list(map(to_float, point))], dtype=complex)
    kron = np.eye(len(num), 1, dtype=t.dtype)  # the value 1; axis 0 comes last, on top
    for n_q in num.T[::-1, :, None]:
        kron = np.concatenate([kron * den, stack_mul(kron, n_q)], axis=1)
    f._point = _Point(point, t, den, num, kron.reshape([len(num)] + [2] * len(point)), tol)
    return f._point


def _restriction_identity(t: np.ndarray, kron: np.ndarray, mask: int, tol) -> bool:
    """f(a) * f == f|_S * f|_rest on the stack t of f, for the subset S
    of axes q with bit v-1-q of mask set.  With M the cut matrix (rows:
    monomials in S) and u, w the first column and row of ``kron``'s
    (the weights over S, over the rest, and D each on the other side),
    M w is f|_rest, u^T M is f|_S and u^T M w is f(a), each scaled by
    D^v: the identity reads f(a) M == outer(M w, u^T M), by ``_close``."""
    v = t.ndim - 1
    s_axes = [q for q in range(v) if mask >> (v - 1 - q) & 1]
    rest = [q for q in range(v) if not mask >> (v - 1 - q) & 1]
    m = cut_stack(t, s_axes, rest)
    k = cut_stack(kron, s_axes, rest)
    u, w = k[:, :, :1], k[:, :1, :]
    right = stack_mul(m, w).sum(axis=2, keepdims=True)
    left = stack_mul(u, m).sum(axis=1, keepdims=True)
    fa = stack_mul(left, w).sum(axis=2, keepdims=True)
    return bool(_close(stack_mul(fa, m), stack_mul(right, left), tol).all())


@functools.cache
def _ternary_index(v: int) -> np.ndarray:
    """Read-only int16 table over subset masks S (rows) and monomial
    masks x (columns): the flat index into the [3]*v table of digit x_q
    on the axes in S and digit 2 on the others.  Each bit adds its own
    digit (row s, column x of [[2, 2], [0, 1]]) times its weight, so the
    table is built from the one on v - 1 bits."""
    if v == 0:
        table = np.zeros((1, 1), np.int16)
    else:
        top = np.array([[2, 2], [0, 1]], np.int16) * 3 ** (v - 1)
        low = _ternary_index(v - 1)
        table = (top[:, None, :, None] + low[None, :, None, :]).reshape(
            1 << v, 1 << v)
    table.flags.writeable = False
    return table


def _all_restriction_identities(t: np.ndarray, den: int, num: np.ndarray, tol) -> list:
    """``_restriction_identity`` for every subset S, indexed by its mask.

    T3 is the [3]*v table of partial evaluations: digit 2 on axis q holds
    D t[.., 0, ..] + n_q t[.., 1, ..].  f|_rest is T3 with digit 2 off S,
    f|_S with digit 2 on S and f(a) is T3[2, .., 2], so at S the identity
    reads f(a) t[x] == T3[x on S, 2 off S] * T3[x off S, 2 on S], both
    sides scaled by D^v.  S and its complement swap the two factors: the
    rows of the first half of the masks decide every subset.
    """
    k, v = len(t), t.ndim - 1
    t3 = t.reshape(k, 1, -1)
    for q, n_q in enumerate(num.T[:, :, None, None]):
        t3 = t3.reshape(k, 3 ** q, 2, -1)
        lo, hi = t3[:, :, 0], t3[:, :, 1]
        t3 = np.stack([lo, hi, (lo * den if den != 1 else lo) + stack_mul(hi, n_q)],
                      axis=2)
    t3, table = t3.reshape(k, -1), _ternary_index(v)
    fa_t, n = stack_mul(t.reshape(k, 1, -1), t3[:, None, -1:]), len(table)
    ok, step = [], _BATCH_BLOCK // n
    for i in range(0, (n + 1) // 2, step):
        rows = table[i:i + step]
        comp = table[n - i - len(rows):n - i][::-1]
        prod = stack_mul(t3.take(rows, axis=1), t3.take(comp, axis=1))
        ok += _close(fa_t, prod, tol).all(axis=(0, 2)).tolist()
    return ok + ok[::-1][n % 2:]  # the one subset of v = 0 is its own complement


def sv_partition_test(f: MultilinearPoly,
                      a: Assignment,
                      subset: Iterable[VarId],
                      tol: Tolerance = DEFAULT_TOL,
                      assume_justifying: bool = False) -> bool:
    """Decide whether f(a)*f == f|_subset * f|_rest as polynomials.

    With a justifying a this holds iff subset is a union of classes of
    the variable-partition of f.  Exact f and a are decided exactly, any
    other by ``tol.close(f(a) c_x, f|_subset[x] f|_rest[x])`` for every
    monomial x: on f's stack at the point prepared from a (``_prepared``),
    where the first call checks its subset alone and the second distinct
    one, for v <= 8, gets every subset's verdict in one batched pass
    (``_all_restriction_identities``); past 16 variables, on the sparse
    terms (``MultilinearPoly.approx_eq``).  Callers sweeping many subsets
    against one assignment can verify it once and pass ``assume_justifying``.
    """
    if not assume_justifying and not is_justifying(f, a, tol):
        raise NotJustifyingError("assignment is not justifying for f")
    form = _form(f)
    if (prepared := _prepared(f, form, a, tol)) is not None:
        return prepared.verdict(sum(map(form.bit.get, form.bit.keys() & subset)))
    subset, fvars = frozenset(subset), f.variables()
    return (evaluate(f, a) * f).approx_eq(
        restrict(f, subset & fvars, a) * restrict(f, fvars - subset, a), tol)


def _solve_single_variable_zero(f: MultilinearPoly, pivot: VarId,
                                others: Assignment):
    """Value for pivot making f vanish when the others are fixed, or None."""
    g = restrict(f, f.variables() - {pivot}, others)
    c1 = g.coefficient(mono(pivot))
    c0 = g.constant_value()
    if scalar_is_zero(c1, _PIVOT_EPS):
        return None
    if is_exact(c0) and is_exact(c1):
        return -c0 / c1
    return -to_float(c0) / to_float(c1)


def find_zero_justifying_assignment(f: MultilinearPoly,
                                    rng: np.random.Generator,
                                    attempts: int = 200,
                                    candidates: Iterable[Assignment] = ()) -> Assignment | None:
    """Search for a justifying assignment on the zero set of f.

    A non-None result certifies that f is indecomposable; None means
    unknown (never "decomposable").  Explicit candidate assignments,
    e.g. from a structured family construction, are verified first.
    Generic search fixes all variables but one at random and solves the
    remaining linear equation.
    """
    if f.is_constant:
        raise ValueError("need a non-constant polynomial")
    for a in candidates:
        if (scalar_is_zero(evaluate(f, a), _ROOT_EPS) and is_justifying(f, a)):
            return a
    fvars = sorted(f.variables())
    for attempt in range(attempts):
        pivot = fvars[int(rng.integers(0, len(fvars)))]
        if attempt < max(attempts // 2, 1):
            others = {v: Exact(int(rng.integers(1, 8))) for v in fvars if v != pivot}
        else:
            others = {v: random_scalar(rng) for v in fvars if v != pivot}
        val = _solve_single_variable_zero(f, pivot, others)
        if val is None:
            continue
        a = dict(others)
        a[pivot] = val
        if is_justifying(f, a) and scalar_is_zero(evaluate(f, a), _ROOT_EPS):
            return a
    return None


# ---- rank-based splitting ----------------------------------------------

def _cut_matrix(f: MultilinearPoly, subset) -> np.ndarray:
    """f's coefficient matrix at the split (subset, rest), a (k, rows,
    cols) stack of ``_form``'s numerators or (k = 1) complex floats; rows
    and columns in ``_mono_key`` order, which on term bitmasks is by bit
    count, then by decreasing mask (variable 0 is the top bit)."""
    form = _form(f)
    values = (form.values if form.values is not None
              else np.array([list(f.terms.values())], dtype=complex))
    sub = sum(b for x, b in form.bit.items() if x in subset)
    rows = [m & sub for m in form.masks]
    cols = [m ^ row for m, row in zip(form.masks, rows)]
    row_pos, col_pos = (
        {m: i for i, m in enumerate(sorted(set(x), key=lambda m: (m.bit_count(), -m)))}
        for x in (rows, cols))
    flat = [row_pos[row] * len(col_pos) + col_pos[col] for row, col in zip(rows, cols)]
    return _dense(flat, values, (len(row_pos), len(col_pos)))


def bipartition_rank_oracle(f: MultilinearPoly,
                            subset: Iterable[VarId],
                            tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff f factors as g(subset) * h(complement): the coefficient
    matrix of the split (``_cut_matrix``, no zero row or column) has rank
    <= 1, on exact numerators by having no zero entry and vanishing 2x2
    minors (``dense_rank_le_1``), on floats by ``sv_rank_le_1``."""
    m = _cut_matrix(f, subset)
    if m.dtype.kind == "c":
        return sv_rank_le_1(np.linalg.svd(m[0], compute_uv=False), tol)
    return m[0].size == len(f.terms) and dense_rank_le_1(m)


def _pivot_minors(rows):
    """The minors M[r, c] p - M[r, c0] M[0, c] of sparse rows {column:
    nonzero entry} against p = M[0, c0], the first entry (others are 0)."""
    others = iter(rows)
    pivot = next(others)
    c0, p = next(iter(pivot.items()))
    for other in others:
        q = other.get(c0, 0)
        for col, x in other.items():
            yield x * p - q * pivot.get(col, 0)
        if q and other.keys() != pivot.keys():
            for col in pivot.keys() - other.keys():
                yield -q * pivot[col]


def _float_bounds(norm: float, n: int, tol: Tolerance) -> tuple[float, float]:
    """Slack rho = 4 n eps F and no-split bound F (tau(F + rho) + rho), n entries, norm F."""
    rho = 4 * n * math.ulp(1.0) * norm
    return rho, norm * (tol.threshold(norm + rho) + rho)


def _split_bound(rows, norm: float, rho: float, tol: Tolerance) -> bool:
    """Whether float rows of norm F, slack rho, split: their minors against
    p have l2 norm at most |p| (tau(|p| - rho) - rho) - rho (|p| + F)."""
    p = abs(next(iter(next(iter(rows)).values())))
    return (math.hypot(*map(abs, _pivot_minors(rows))) * (1 + math.ulp(1.0))
            + rho * (p + norm) <= p * (tol.threshold(p - rho) - rho))


def indecomposable_at_every_split(f: MultilinearPoly,
                                  tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exhaustive sweep: no nontrivial variable bipartition passes
    ``bipartition_rank_oracle``.

    Each subset holding the least variable is tested on the sparse
    coefficient matrix M of its split (monomials as bitmasks) by its
    minors against the pivot p (``_pivot_minors``): exact f splits where
    all vanish.  On floats they settle the oracle's rule s_2 <= tau(s_1),
    tau = tol.threshold: no split if one exceeds F tau(F), as a minor is
    at most s_1 s_2 and s_1 <= F, the l2 norm of the n coefficients; a
    split if sqrt(sum |minor|^2) / |p| <= tau(|p|), as that is |M - R|_F
    >= s_2 for the rank-1 R through p's row and column, and |p| <= s_1.
    Both carry a slack rho = 4 n eps F for rounding, LAPACK's within a
    small multiple of eps s_1; the oracle decides the rest.
    """
    fvars = sorted(f.variables())
    v = len(fvars)
    if v <= 1:
        return True
    if v > 24:
        raise DecompositionBudgetError(f"{v} variables exceeds the 24-variable cap")
    bit = {x: 1 << i for i, x in enumerate(fvars)}
    masks = [sum(map(bit.__getitem__, m)) for m in f.terms]
    coeffs = list(f.terms.values())
    if not (exact := all(map(is_exact, coeffs))):
        coeffs = [to_float(c) for c in coeffs]
        norm = math.hypot(*map(abs, coeffs))
        rho, no_split = _float_bounds(norm, len(coeffs), tol)
    # Subsets holding variable 0 but not all enumerate each bipartition once.
    for sub in range((1 << (v - 1)) - 1):
        cut = sub << 1 | 1
        rows = {}
        for m, c in zip(masks, coeffs):
            rows.setdefault(m & cut, {})[m & ~cut] = c
        rows = rows.values()
        if exact:
            if not any(_pivot_minors(rows)):
                return False
        elif not any(map(no_split.__lt__, map(abs, _pivot_minors(rows)))) and (
                _split_bound(rows, norm, rho, tol) or bipartition_rank_oracle(
                    f, [x for x in fvars if cut & bit[x]], tol)):
            return False
    return True


def _extract_factors(f: MultilinearPoly, subset: frozenset):
    """Split f, of rank 1 at (subset, rest), into its pivot column g and
    pivot row h over the pivot, the first entry in ``_mono_key`` order."""
    rows = {}
    for m, c in f.terms.items():
        rows.setdefault(m & subset, {})[m - subset] = c
    pivot = rows[min(rows, key=_mono_key)]
    col = min(pivot, key=_mono_key)
    g = MultilinearPoly({r: row[col] for r, row in rows.items() if col in row})
    h = MultilinearPoly({c: x / pivot[col] for c, x in pivot.items()})
    return g, h


def _anchored_unions(classes: list, n: int):
    """The proper subsets of range(n) that hold 0 and are unions of
    ``classes`` (a partition of range(n)), by size and within a size in
    ``combinations`` order, lexicographic in the sorted positions.

    Classes are picked in order of their least position, so two unions
    of one size first differ at the least position of a class that only
    the earlier one holds, which is where their sorted positions first
    differ too.
    """
    if n < 2:
        return
    first, *rest = sorted(classes, key=min)

    def unions(start, need, held):
        if not need:
            yield held
            return
        for c in range(start, len(rest)):
            if len(rest[c]) <= need:
                yield from unions(c + 1, need - len(rest[c]), held | rest[c])

    for size in range(len(first), n):
        yield from unions(0, size - len(first), first)


def _decompose_tensor(f: MultilinearPoly, form: _Form) -> list[MultilinearPoly]:
    """``decompose`` on f's form stack: ``dense_rank_le_1`` decides each
    candidate cut, and the search goes on in the pivot row."""
    t, axes = form.tensor, list(range(len(form.fvars)))
    classes, pieces = linked_classes(t), []
    while True:
        n, local = len(axes), {q: p for p, q in enumerate(axes)}
        for s in _anchored_unions([frozenset(map(local.get, c))
                                   for c in classes if min(c) in local], n):
            rest = [q for q in range(n) if q not in s]
            m = cut_stack(t, s, rest)
            i, j = at = first_nonzero(m)
            if dense_rank_le_1(m, at):
                break
        else:
            pieces.append((axes, t.reshape(len(t), -1)))
            break
        pieces.append(([axes[q] for q in sorted(s)], m[:, :, j]))
        axes, t = [axes[q] for q in rest], m[:, i].reshape([len(m)] + [2] * len(rest))

    factors, leads, others = [], frozenset(), frozenset()
    for ax, vec in pieces[1:]:
        k = len(ax)
        terms = {frozenset(form.fvars[ax[q]] for q in range(k)
                           if x >> (k - 1 - q) & 1): Exact(*c)
                 for x, c in enumerate(vec.T.tolist()) if any(c)}
        lead = min(terms, key=_mono_key)
        inv = Exact.ONE / terms[lead]
        factors.append(MultilinearPoly._of({m: c * inv for m, c in terms.items()}))
        leads, others = leads | lead, others | {form.fvars[q] for q in ax}
    return [MultilinearPoly._of({m - leads: c for m, c in f.terms.items()
                                 if m & others == leads}), *factors]


def decompose(f: MultilinearPoly,
              tol: Tolerance = DEFAULT_TOL,
              max_vars: int = 24) -> list[MultilinearPoly]:
    """Variable-disjoint indecomposable factors of f.

    Exhaustive minimal-bipartition search (exponential in the variable
    count, capped at ``max_vars``): the first factor holds the least
    variable and the smallest subset holding it whose split has rank
    <= 1, and the search goes on in the quotient.  Pair-linked variables
    lie in one factor, so only subsets that are unions of link classes
    are tested (``_anchored_unions``), in the order of the full search:
    the factors are those of the full search.

    Factors are normalized so that the leading-monomial coefficient is
    1, with the residual scalar attached to the first factor; their
    product equals f.  So factor i >= 1 is any scalar multiple of it
    over its leading coefficient, and factor 0 is f's coefficients at
    the other factors' leading monomials.  Exact f with a form stack is
    decided on it (``_decompose_tensor``).  Float f and exact f past 16
    variables take the sparse route, ``bipartition_rank_oracle`` on each
    candidate and ``_extract_factors`` on the split found; float f on at
    most 16 variables is linked on its complex tensor in each quotient.
    """
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    form = _form(f)
    if len(form.fvars) > max_vars:
        raise DecompositionBudgetError(
            f"{len(form.fvars)} variables exceeds the {max_vars}-variable cap")
    if form.tensor is not None:
        return _decompose_tensor(f, form)

    factors, g = [], f
    while len(gvars := sorted(g.variables())) > 1:
        form, classes = _form(g), [frozenset([q]) for q in range(len(gvars))]
        if form.tensor is None and len(gvars) <= _DENSE_MAX_VARS:  # float g
            classes = linked_classes(_complex_tensor(g, form)[0], tol)
        subsets = (frozenset(gvars[q] for q in s)
                   for s in _anchored_unions(classes, len(gvars)))
        found = next((s for s in subsets
                      if bipartition_rank_oracle(g, s, tol)), None)
        if found is None:
            break
        left, g = _extract_factors(g, found)
        factors.append(left)  # minimal split: left is one class
    factors.append(g)

    # normalize: unit leading coefficients, residual scalar on factor 0
    residual, normalized = None, []
    for g in factors:
        lead = g.terms[g.leading_monomial()]
        normalized.append(g * (Exact.ONE / lead if is_exact(lead)
                               else 1.0 / to_float(lead)))
        residual = lead if residual is None else residual * lead
    normalized[0] = normalized[0] * residual
    return normalized


def variable_partition(f: MultilinearPoly,
                       tol: Tolerance = DEFAULT_TOL) -> list[frozenset]:
    """Variable sets of the indecomposable factors of f."""
    return [g.variables() for g in decompose(f, tol) if g.variables()]


def is_union_of_classes(subset: frozenset, partition: list[frozenset]) -> bool:
    return all(cls <= subset or not (cls & subset) for cls in partition)


# ---- random instances ---------------------------------------------------

def random_multilinear_poly(rng: np.random.Generator,
                            n_vars: int,
                            n_terms: int,
                            exact: bool = True,
                            block: str = "x") -> MultilinearPoly:
    """Sparse random polynomial on ``n_vars`` variables; exact instances
    draw small nonzero integer coefficients, float ones Gaussians."""
    width = max(1, (n_vars - 1).bit_length())
    vs = [var(block, format(i, f"0{width}b")) for i in range(n_vars)]
    terms = {}
    for _ in range(n_terms):
        m = frozenset(v for v in vs if rng.random() < 0.5)
        if exact:
            c = Exact(int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1))
        else:
            c = random_scalar(rng)
        terms[m] = terms[m] + c if m in terms else c
    f = MultilinearPoly(terms)
    if f.is_zero:
        f = MultilinearPoly({frozenset([vs[0]]): Exact.ONE})
    return f


def random_disjoint_product(rng: np.random.Generator,
                            n_factors: int,
                            vars_per_factor: int,
                            exact: bool = True) -> tuple[MultilinearPoly, list[MultilinearPoly]]:
    """Product of variable-disjoint random factors plus the factor list."""
    blocks = "xyzw"
    factors = []
    for i in range(n_factors):
        g = random_multilinear_poly(rng, vars_per_factor,
                                    vars_per_factor + 2, exact,
                                    block=blocks[i % len(blocks)])
        # make sure the factor actually uses its variables
        while g.is_constant:
            g = random_multilinear_poly(rng, vars_per_factor,
                                        vars_per_factor + 2, exact,
                                        block=blocks[i % len(blocks)])
        factors.append(g)
    prod = factors[0]
    for g in factors[1:]:
        prod = prod * g
    return prod, factors


# ---- text format --------------------------------------------------------

class PolyParseError(ParseError):
    pass


def format_poly(f: MultilinearPoly) -> str:
    """One term per line: ``coeff_re coeff_im : var[,var...]``."""
    lines = []
    for m in sorted(f.terms, key=_mono_key):
        vs = ",".join(str(v) for v in sorted(m))
        lines.append(f"{format_complexes([to_float(f.terms[m])])} : {vs}")
    return "\n".join(lines) + "\n"


def parse_poly(text: str) -> MultilinearPoly:
    """Read one term per line; repeated monomials are summed, and a
    variable repeated within a term is an error."""
    terms = {}
    for ln, parts in content_lines(text):
        head, colon, tail = " ".join(parts).partition(":")
        if not colon:
            raise PolyParseError("expected 'coeff_re coeff_im : vars'", ln)
        c, = parse_complexes(head.split(), 1, ln, PolyParseError,
                             what="coefficient")
        toks = [tok.strip() for tok in tail.split(",")] if tail.strip() else []
        for tok in toks:
            if not re.fullmatch(r"[xyzw]\[[01]+\]", tok):
                raise PolyParseError(f"bad variable {tok!r}", ln, "bad-variable")
        m = frozenset(VarId(tok[0], tok[2:-1]) for tok in toks)
        if len(m) < len(toks):  # x^2 is not multilinear
            raise PolyParseError("variable repeated in a term", ln,
                                 "repeated-variable")
        terms[m] = terms[m] + c if m in terms else c
    return MultilinearPoly(terms)
