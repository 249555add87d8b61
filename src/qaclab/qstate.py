"""Statevectors over labeled qubits, separability analysis, projections.

Qubit 0 is the most significant position of a basis-state index, so the
amplitude of |q0 q1 ... q_{r-1}> sits at index int(bits, 2).  Equivalently,
qubit q is axis q of ``amps.reshape([2] * r)`` (``StateVector.axes``):
gates, projections and tensor products are slices, outer products and
axis moves on that view, never loops over the 2^r indices.  A float
state holds complex128 amplitudes, which its kernels reshape to the few
axes a call needs (a 1-qubit gate sees (2^q, 2, rest)); ``l2`` is their
norm.  An exact state holds amplitude j as
(n0 + n1 sqrt2 + i (n2 + n3 sqrt2)) / den, column j of an integer array
``num`` over one den > 0, in lowest terms (equal states, equal arrays):
int64 while every entry is below 2^62, Python ints past it.  Gates,
tensor products, pair links, cut and zero tests run on ``num`` with no
rounding; ``amps`` of an exact state is an ``Exact`` view built on
first use.  ``StateVector.stack`` lays ``num`` out as [4, 2, ..., 2],
qubit q on axis q + 1: the stack layout (``numerics``) that exact
multilinear polynomials share as their coefficient form, so
``linked_classes``, ``cut_stack`` and ``dense_rank_le_1`` serve both.

Separation of a state at a bipartition {A, B} is decided through the
Schmidt rank of the amplitude matrix reshaped along the cut: rank one
means the state is a tensor product across it.  On the floating backend
the rank is read off singular values; on the exact backend it is decided
by vanishing 2x2 minors, with no tolerance involved.  A float state
remembers its cut verdicts, so a state asked many cuts (the
``simplify-lemma`` suite asks all 2^(r-1) - 1 of one state) pays one
stacked ``compute_uv=False`` SVD per cut size, over a gather of its
amplitudes of at most ``_BATCH_AMPS``, the cap ``circuit.simulate_all``
batches by too.  Its amplitudes are read-only from its first verdict on.

``random_state``, ``tensor`` and ``product_state`` also take a batch, a
list of float states riding on a leading axis: many partners of one
factor are drawn in one call and formed in one outer product.

Which cuts can separate at all is read off pairs of qubits.  Read the
amplitudes as a multilinear polynomial f with qubit q as variable x_q
and write f = x_i x_j A + x_i B + x_j C + D: qubits i and j lie in one
tensor factor iff AD - BC != 0 (the pair criterion of Shpilka and
Volkovich).  Summing the amplitude tensor over every other axis
evaluates [[D, C], [B, A]] at the all-ones point, so a determinant
there that no separable cut between i and j could produce links them;
union-find closes the links into classes (``linked_classes``) and only
a cut that is a union of classes can separate.  The point can miss a
link (a factor whose amplitudes sum to zero zeroes every determinant)
but not invent one, so the classes are at worst too fine and every
separable cut stays a candidate; ``is_S_separable`` confirms candidates
with the rank test above.  On exact states a determinant links when it
is exactly nonzero.  On floats it links only when it is larger than
any cut that passes the singular-value rule could make it; see
``linked_classes``.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Exact,
    Tolerance,
    field_mul,
    four_components,
    lowest_terms,
    narrowed,
    numerator_stack,
    numerators_to_complex,
    numerators_to_exact,
    stack_mul,
    sv_rank_le_1,
    to_float,
    widened,
)
from .textio import (
    ParseError,
    content_lines,
    format_complexes,
    parse_bits,
    parse_complexes,
)

#: Desk-scale register cap; larger registers are out of scope.
MAX_QUBITS = 12

#: Below this norm, what is left after projecting out the S-ones
#: component is rounding noise, and renormalizing would magnify it.
_EMPTY_NORM = 1e-12

#: A parsed state dump whose norm is within this of 1 counts as normalized.
_NORMALIZED = 1e-6

#: Most amplitudes one batched pass carries: states times 2^r through
#: ``circuit.simulate_all``, cuts times 2^r through a stacked cut decision
#: (``_cut_verdict``); a larger batch runs in chunks.
_BATCH_AMPS = 1 << 14


class RegisterSizeError(ValueError):
    pass


def _field_outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (4, len x, len y) outer product of (4, n) numerator arrays."""
    x = widened(x, 6 * int(np.abs(y).max()))
    return stack_mul(x[:, :, None], y.astype(x.dtype)[:, None, :])


def first_nonzero(m: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of a (k, rows, cols) stack's first nonzero, or None."""
    nonzero = np.flatnonzero(m.any(axis=0))
    return divmod(int(nonzero[0]), m.shape[-1]) if nonzero.size else None


def dense_rank_le_1(m: np.ndarray, at: tuple[int, int] | None = None) -> bool:
    """Whether the exact matrix of a (k, rows, cols) stack has rank <= 1:
    every entry times the pivot (``at``, by default ``first_nonzero(m)``)
    equals the pivot row's entry times the pivot column's."""
    if (at := at or first_nonzero(m)) is None:
        return True
    i, j = at
    m = widened(m, 6 * int(np.abs(m).max()))
    return bool((stack_mul(m, m[:, i, j, None, None])
                 == stack_mul(m[:, :, j, None], m[:, None, i, :])).all())


class StateVector:
    """2^r amplitudes over qubits 0..r-1 (qubit 0 most significant), from
    complex values or an object array of ``Exact`` (an exact state)."""

    __slots__ = ("r", "normalized", "num", "den", "_amps", "_cuts")

    def __init__(self, r: int, amps, normalized: bool = True):
        amps = np.asarray(amps)
        if amps.shape != (1 << r,):
            raise ValueError(f"expected {1 << r} amplitudes, "
                             f"got shape {amps.shape}")
        self.r, self.normalized = r, normalized
        if amps.dtype == object:
            num, den = numerator_stack(amps.tolist())
            self._set_exact(four_components(num), den)
        else:
            self.num = self.den = self._cuts = None
            self._amps = amps.astype(complex)

    @classmethod
    def _of(cls, r: int, amps: np.ndarray, normalized: bool = True) -> "StateVector":
        """A float state keeping ``amps``, a fresh complex array, uncopied."""
        psi = object.__new__(cls)
        psi.r, psi.normalized, psi._amps = r, normalized, amps
        psi.num = psi.den = psi._cuts = None
        return psi

    @classmethod
    def from_numerators(cls, r: int, num: np.ndarray, den: int = 1,
                        normalized: bool = True) -> "StateVector":
        """The exact state num / den from a (4, 2^r) integer array in
        lowest terms with den > 0; ``num`` is kept and made read-only."""
        psi = object.__new__(cls)
        psi.r, psi.normalized = r, normalized
        psi._set_exact(num, den)
        return psi

    def _set_exact(self, num: np.ndarray, den: int):
        num = narrowed(num)
        num.flags.writeable = False
        self.num, self.den, self._amps = num, den, None

    # ---- basics -------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.num is not None

    @property
    def amps(self) -> np.ndarray:
        """The amplitudes: complex128, or read-only ``Exact`` objects
        built once from ``num``."""
        if self._amps is None:
            amps = np.full(1 << self.r, Exact.ZERO, dtype=object)
            idx = np.flatnonzero(self.support())
            amps[idx] = numerators_to_exact(self.num[:, idx], self.den)
            amps.flags.writeable = False
            self._amps = amps
        return self._amps

    def axes(self) -> np.ndarray:
        """The amplitudes as a [2]*r array in which qubit q is axis q."""
        return self.amps.reshape([2] * self.r)

    def stack(self) -> np.ndarray:
        """A [k, 2, ..., 2] array in which qubit q is axis q + 1: k = 4
        numerators of an exact state, k = 1 complex amplitudes."""
        flat = self.num if self.is_exact else self._amps[None]
        return flat.reshape([len(flat)] + [2] * self.r)

    def support(self) -> np.ndarray:
        """[2]*r booleans: which amplitudes are nonzero, exactly."""
        nonzero = (self.num != 0).any(axis=0) if self.is_exact else self._amps != 0
        return nonzero.reshape([2] * self.r)

    def to_float(self) -> "StateVector":
        if not self.is_exact:
            return self
        return StateVector._of(self.r, numerators_to_complex(self.num, self.den),
                               self.normalized)

    def norm_sq(self):
        if self.is_exact:
            # the sum of z * conj(z), whose i and i sqrt2 parts are 0
            a, b, c, d = self.num.astype(object)
            re, root2, _, _ = field_mul((a, b, c, d), (a, b, -c, -d))
            den2 = self.den * self.den
            return Exact(Fraction(int(re.sum()), den2), Fraction(int(root2.sum()), den2))
        return float(np.sum(np.abs(self._amps) ** 2))

    def norm(self) -> float:
        if self.is_exact:
            return float(np.sqrt(to_float(self.norm_sq()).real))
        return l2(self._amps)

    def amp(self, bits: str):
        if len(bits) != self.r:
            raise ValueError("bitstring length does not match register")
        return self.amps[int(bits, 2)]

    def nonzero_items(self):
        for i in np.flatnonzero(self.support()):
            yield format(i, f"0{self.r}b"), self.amps[i]

    def approx_equal(self, other: "StateVector", tol: Tolerance = DEFAULT_TOL,
                     up_to_phase: bool = False) -> bool:
        if self.r != other.r:
            return False
        if self.is_exact and other.is_exact and not up_to_phase:
            return self.den == other.den and np.array_equal(self.num, other.num)
        u = self.to_float().amps
        v = other.to_float().amps
        if up_to_phase:
            ip = np.vdot(v, u)
            if abs(ip) > tol.abs_eps:
                u = u * (abs(ip) / ip)
        return bool(np.linalg.norm(u - v) <= tol.threshold(1.0))

    def __repr__(self):
        entries = ", ".join(f"|{b}>:{to_float(a):.4g}"
                            for b, a in list(self.nonzero_items())[:6])
        return f"<state r={self.r} {entries}>"


def l2(x: np.ndarray) -> float:
    """The l2 norm of an array, bit for bit as ``np.linalg.norm`` sums it
    (real and imaginary dot products of the flattened entries)."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def basis_state(r: int, bits, exact: bool = True) -> StateVector:
    """Computational basis state |bits>, exact by default."""
    if isinstance(bits, str):
        idx = int(bits, 2) if bits else 0
    else:
        idx = int(bits)
    if not exact:
        amps = np.zeros(1 << r, dtype=complex)
        amps[idx] = 1
        return StateVector(r, amps)
    num = np.zeros((4, 1 << r), dtype=np.int64)
    num[0, idx] = 1
    return StateVector.from_numerators(r, num)


def bit_index(r: int, qubits, bit: int) -> tuple:
    """Index into a [2]*r view holding ``bit`` on every qubit of ``qubits``.

    Pinned axes keep length 1, so indexing yields an array with r axes
    (a view, which assignment writes through), never a scalar."""
    idx = [slice(None)] * r
    for q in qubits:
        if q < 0 or q >= r:
            raise ValueError(f"qubit {q} outside register")
        idx[q] = slice(bit, bit + 1)
    return tuple(idx)


def product_state(pieces, normalized: bool = True) -> StateVector | list[StateVector]:
    """Tensor product of ``(labels, state)`` pieces.

    Each state's qubits go, in its own order, to the listed labels; the
    labels of all pieces together must be 0..r-1, each once.  The result
    is exact when every piece is, else complex.

    One piece may hold a batch instead of a state: a list of K float
    states on one register.  The result is then the list of the K
    products, formed in one outer product and one transpose with the
    batch on a leading axis, each bit for bit the product of its own
    pieces.
    """
    labels = [q for qs, _ in pieces for q in qs]
    batch = [len(st) for _, st in pieces if isinstance(st, list)]
    if batch or not all(st.is_exact for _, st in pieces):
        if len(batch) > 1:
            raise ValueError("at most one piece may hold a batch")
        prod = functools.reduce(np.multiply.outer, [_float_amps(st) for _, st in pieces])
        # the product's axes, each piece's batch axis (-1) and then its
        # qubits, moved into label order with the batch first; copied, as
        # a lone piece's product is still its state's array
        axes = [q for qs, st in pieces for q in ([-1, *qs] if isinstance(st, list) else qs)]
        moved = prod.reshape([2 if q >= 0 else batch[0] for q in axes]).transpose(
            sorted(range(len(axes)), key=axes.__getitem__)).copy()
        if not batch:
            return StateVector._of(len(labels), moved.reshape(-1), normalized)
        return [StateVector._of(len(labels), amps, normalized)
                for amps in moved.reshape(batch[0], -1)]
    order = sorted(range(len(labels)), key=labels.__getitem__)
    prod, den = None, 1
    for _, st in pieces:
        den *= st.den
        prod = st.num if prod is None else _field_outer(prod, st.num).reshape(4, -1)
    moved = prod.reshape([4] + [2] * len(labels)).transpose([0] + [k + 1 for k in order])
    num, den = lowest_terms(moved.reshape(4, -1), den)
    return StateVector.from_numerators(len(labels), num, den, normalized)


def _float_amps(st) -> np.ndarray:
    """A state's complex amplitudes, or a batch's as (K, 2^r) rows."""
    if not isinstance(st, list):
        return st.to_float().amps
    if any(psi.is_exact for psi in st):
        raise ValueError("a batch holds float states only")
    return np.stack([psi.amps for psi in st])


# ---- tensor structure ---------------------------------------------------

def tensor(u, v, placement=None) -> StateVector | list[StateVector]:
    """Tensor product with u's qubits routed to ``placement`` labels.

    ``placement`` lists the labels (within the combined register) that
    receive u's qubits, in u's own qubit order after sorting; the
    remaining labels receive v's qubits in order.  Default: u occupies
    the leading labels.  One of u and v may be a batch, a list of float
    states (``product_state``); the result is then a list.
    """
    us, vs = (x if isinstance(x, list) else [x] for x in (u, v))
    r = us[0].r + vs[0].r
    if placement is None:
        placement = range(us[0].r)
    placement = sorted(placement)
    taken = set(placement)
    if len(placement) != us[0].r or any(p < 0 or p >= r for p in placement):
        raise ValueError("placement must list u.r distinct labels within range")
    if len(taken) != us[0].r:
        raise ValueError("placement labels must be distinct")
    others = [q for q in range(r) if q not in taken]
    return product_state([(placement, u), (others, v)],
                         all(psi.normalized for psi in us + vs))


def validate_bipartition(r: int, a, b) -> tuple[frozenset, frozenset]:
    a, b = frozenset(a), frozenset(b)
    if not a or not b or (a & b) or (a | b) != frozenset(range(r)):
        raise ValueError("need two nonempty disjoint sets covering the register")
    return a, b


def cut_stack(t: np.ndarray, a, b) -> np.ndarray:
    """Each component of a [k, 2, ..., 2] stack reshaped to 2^|A| x 2^|B|
    along the cut {A, B} of its axes after the first.  Rows run over the
    axes of A, columns over those of B, each in increasing order with the
    least axis most significant; either side may be empty (one row or
    one column)."""
    perm = [0] + [q + 1 for q in sorted(a) + sorted(b)]
    return t.transpose(perm).reshape(len(t), 1 << len(a), 1 << len(b))


def cut_matrix(t: np.ndarray, a, b) -> np.ndarray:
    """``cut_stack`` of a single [2]*v array."""
    return cut_stack(t[None], a, b)[0]


def separates_at(psi: StateVector, a, b, tol: Tolerance = DEFAULT_TOL):
    """Schmidt-rank-1 test across {A, B}; factors returned on success.

    Returns (flag, (state_A, state_B) or None).  The factors are unit
    vectors from the full SVD of the cut matrix (floating backend), unique
    up to phase.  An exact state is decided by vanishing minors, with no
    tolerance, one call per cut.  A float state is decided by the
    singular-value rule on its cut matrix's singular values
    (``compute_uv=False``, the call ``multilinear.bipartition_rank_oracle``
    makes) and remembers its verdicts at ``tol`` (``_cut_verdict``): a
    state asked many cuts pays one stacked SVD per cut size, and each
    flag is the one the cut gets when asked alone.
    """
    a, b = validate_bipartition(psi.r, a, b)
    if not (dense_rank_le_1(cut_stack(psi.stack(), a, b)) if psi.is_exact
            else _cut_verdict(psi, a, b, tol)):
        return False, None
    u, _, vh = np.linalg.svd(cut_matrix(psi.to_float().axes(), a, b))
    return True, (StateVector(len(a), u[:, 0]), StateVector(len(b), vh[0, :]))


def _cut_verdict(psi: StateVector, a: frozenset, b: frozenset, tol: Tolerance) -> bool:
    """Whether the float state psi passes the singular-value rule at the
    cut {A, B}, remembered on psi at ``tol`` (a verdict at another tol
    replaces them all, as a prepared ``multilinear`` point is replaced).

    A cut is read with the side ``bipartitions`` lists first as rows, so
    its matrix, and with it the flag, does not depend on how it is asked.
    The first cut asked of a state is decided alone, as most states are
    asked one cut.  A later cut not yet known decides every cut of its
    size: one ``compute_uv=False`` SVD over the stack that ``_cut_gather``
    gathers from the amplitudes, per chunk of at most ``_BATCH_AMPS``.  A
    stacked SVD runs the lone call's LAPACK routine on each matrix, and a
    known verdict is kept.  The amplitudes become read-only with the first
    verdict, so no write can leave one stale.
    """
    side = a if len(a) < len(b) or (len(a) == len(b) and 0 in a) else b
    cuts = psi._cuts
    if cuts is None or (cuts[0] is not tol and cuts[0] != tol):
        cuts = psi._cuts = (tol, {})
    verdicts = cuts[1]
    if side not in verdicts:
        if not verdicts:
            psi._amps.flags.writeable = False
            m = cut_matrix(psi.axes(), side, a if side is b else b)
            verdicts[side] = sv_rank_le_1(np.linalg.svd(m, compute_uv=False), tol)
        else:
            sides, table = _cut_gather(psi.r, len(side))
            step = max(1, _BATCH_AMPS >> psi.r)
            for lo in range(0, len(sides), step):
                stacked = np.linalg.svd(psi._amps[table[lo:lo + step]], compute_uv=False)
                for cut, s in zip(sides[lo:lo + step], stacked):
                    verdicts.setdefault(cut, sv_rank_le_1(s, tol))
    return verdicts[side]


@functools.cache
def _cut_gather(r: int, size: int) -> tuple[list, np.ndarray]:
    """The cuts of r qubits with |A| = size, by their side A in
    ``bipartitions`` order, and a read-only (cuts, 2^size, 2^(r-size))
    uint16 table whose entry k is ``cut_stack`` of cut k on the flat
    amplitude indices: amplitudes indexed by it are the stack of their
    cut matrices.  uint16 holds every index up to ``MAX_QUBITS``: the
    tables of every cut size at r = 12 take 17 MB, against 67 MB in intp."""
    index = np.arange(1 << r, dtype=np.uint16).reshape([1] + [2] * r)
    cuts = [(a, b) for a, b in bipartitions(r) if len(a) == size]
    table = np.stack([cut_stack(index, a, b)[0] for a, b in cuts])
    table.flags.writeable = False
    return [a for a, _ in cuts], table


def bipartitions(r: int, require_split=None):
    """All unordered bipartitions {A, B}, ordered by |A| then lexicographic
    A, each pair listed once with the smaller side first.

    ``require_split`` restricts to bipartitions where both sides meet the
    given qubit set.
    """
    everyone = frozenset(range(r))
    s = None if require_split is None else frozenset(require_split)
    for size in range(1, r // 2 + 1):
        for combo in combinations(range(r), size):
            # an equal-sized pair is listed once, by the side holding qubit 0
            if 2 * size == r and combo[0] != 0:
                continue
            a = frozenset(combo)
            b = everyone - a
            if s is not None and (not (a & s) or not (b & s)):
                continue
            yield a, b


def linked_classes(t, tol: Tolerance = DEFAULT_TOL):
    """Classes of the axes of a [2]*v array or stack, or of the qubits of
    a state, joined by pair links.

    Axes i and j are linked when the 2x2 matrix M left after summing
    ``t`` over every other axis has det M = s b_ij - r_i r_j, from t's
    moments (``_moment_bits``), != 0.  Exact input, a stack of integer
    numerators with k = 1 or 4 (not a bare [2]*v array; exact states and
    [2]*v arrays of ``Exact`` are read through theirs), links when det M
    is exactly nonzero.  Float entries link only when |det M| exceeds
    2 c tau (|M|_F + 16 d + c tau) + 8 d a, with tau = tol.threshold(|t|_F),
    c = 2^((v-2)/2), a = sum |Re t| + |Im t| and d = 2^v eps a: a cut
    between i and j that passes the singular-value rule (of ``separates_at``
    and ``multilinear.bipartition_rank_oracle``) leaves t within tau of a
    product in the spectral norm, the two summing maps have norm c
    together, and a 2x2 matrix within c tau of a rank-1 one has |det| at
    most c tau (|M|_F + 2 c tau); the rest is slack for rounding, as each
    moment is within d of its value, M's entries within 6 d, |M|_F within
    16 d and det M within 8 d a, all with room for a's own rounding.
    Linked axes therefore lie in one tensor factor, and on one side of
    every cut that the rule lets separate, so the classes returned,
    sorted by least axis, are never coarser than either.
    """
    if isinstance(t, StateVector):
        t = t.stack() if t.is_exact else t.axes()
    elif t.dtype == object and isinstance(t.flat[0], Exact):
        t = numerator_stack(t.ravel().tolist())[0].reshape((-1,) + t.shape)
    elif t.dtype.kind in "Oiu" and (t.ndim == 0 or len(t) not in (1, 4)):
        raise ValueError("integer input must be a [k, 2, ..., 2] stack, k = 1 or 4")
    exact = t.dtype.kind in "Oiu"
    v = t.ndim - exact
    parent = list(range(v))

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    if exact:  # moments of four components each, as field_mul reads them
        t, bits = widened(t, 1 << v), np.int64

        def linked(s, r_i, r_j, b):
            return field_mul(s, b) != field_mul(r_i, r_j)
    else:  # moments of two components each, real and imaginary
        norm, t, bits = float(np.linalg.norm(t)), np.stack([t.real, t.imag]), float
        c_tau, a = 2.0 ** ((v - 2) / 2) * tol.threshold(norm), float(np.abs(t).sum())
        d = 2.0 ** v * math.ulp(1.0) * a

        def linked(*moments):
            s, r_i, r_j, b = (complex(*z) for z in moments)
            m_norm = math.hypot(abs(b), abs(r_i - b), abs(r_j - b), abs(s - r_i - r_j + b))
            return (abs(s * b - r_i * r_j)
                    > 2 * c_tau * (m_norm + 16 * d + c_tau) + 8 * d * a)

    def moments(x, w):
        m = x.reshape(len(x), -1) @ _moment_bits(w, bits)
        return (four_components(m) if exact else m).T.tolist()

    (s, *r), row = moments(t, v), None
    for i, j in combinations(range(v), 2):
        if find(i) == find(j):
            continue
        if row != i:  # b_ij, j > i: moments of the half where axis i is 1
            row, b = i, moments(np.take(t, 1, axis=i + 1), v - 1)
        if linked(s, r[i], r[j], b[j]):
            parent[find(j)] = find(i)
    joined = {}
    for q in range(v):
        joined.setdefault(find(q), []).append(q)
    return [frozenset(c) for c in joined.values()]


@functools.cache
def _moment_bits(v: int, dtype=np.int64) -> np.ndarray:
    """Read-only (2^v, v + 1) ``dtype`` table: 1, then the bit of axis q
    (v-1-q), per flat index of a [2]*v array.  t's moments over it are
    its sum s and its sums r_i where axis i is 1; those of t's half where
    axis i is 1 over the table for v - 1 are r_i and the b_ij, j > i."""
    bits = (np.arange(1 << v)[:, None] >> np.arange(v, -1, -1) & 1).astype(dtype)
    bits[:, 0] = 1
    bits.flags.writeable = False
    return bits


def is_S_separable(psi: StateVector, s, tol: Tolerance = DEFAULT_TOL):
    """Search for a bipartition splitting S at which psi separates.

    Returns (True, (A, B)) with the first witness in ``bipartitions``
    order, or (False, None) meaning psi is S-entangled.

    Pair links at the all-ones point (``linked_classes``) come first: if
    S lies inside one class, no cut splitting S can separate.  Otherwise
    only the cuts that are unions of classes are confirmed, in order,
    with ``separates_at``; a missed link only makes the classes finer,
    so the first confirmed cut is the first separating one, on exact
    states and under the float singular-value rule alike.
    """
    s = frozenset(s)
    if len(s) < 2:
        raise ValueError("S must contain at least two qubits")
    classes = linked_classes(psi, tol)
    if any(s <= c for c in classes):
        return False, None
    for a, b in bipartitions(psi.r, require_split=s):
        if (all(c <= a or c.isdisjoint(a) for c in classes)
                and separates_at(psi, a, b, tol)[0]):
            return True, (a, b)
    return False, None


# ---- projections ---------------------------------------------------------

def ones_projection_norm(psi: StateVector, s) -> float:
    """l2 norm of the projection onto basis states with 1s throughout S."""
    return l2(psi.to_float().axes()[bit_index(psi.r, s, 1)])


def ones_component_is_zero(psi: StateVector, s, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact states: every S-ones amplitude is exactly zero; float states:
    projection norm below threshold scaled by the state norm."""
    if psi.is_exact:
        return not psi.support()[bit_index(psi.r, s, 1)].any()
    return ones_projection_norm(psi, s) <= tol.threshold(psi.norm())


def remove_ones_component(psi: StateVector, s) -> StateVector:
    """Project out the S-ones component and renormalize (floating backend)."""
    out = psi.to_float().amps.copy()
    out.reshape([2] * psi.r)[bit_index(psi.r, s, 1)] = 0
    n = l2(out)
    if n < _EMPTY_NORM:
        raise ValueError("state is entirely supported on the S-ones subspace")
    return StateVector._of(psi.r, out / n)


def target_density(psi: StateVector) -> np.ndarray:
    """Reduced 2x2 density matrix of qubit 0."""
    a = psi.to_float().amps.reshape(2, -1)
    return a @ a.conj().T


# ---- random states -------------------------------------------------------

def random_state(r: int, rng: np.random.Generator,
                 count: int | None = None) -> StateVector | list[StateVector]:
    """Normalized Gaussian (Haar-like) state; register capped at 12.

    With ``count``, a batch of that many (a list): one draw of all their
    real and imaginary parts, which reads the generator's stream as
    ``count`` single draws do, each state bit for bit the single draw's.
    """
    if r > MAX_QUBITS:
        raise RegisterSizeError(f"register cap is {MAX_QUBITS} qubits")
    draw = rng.standard_normal((1 if count is None else count, 2, 1 << r))
    amps = np.empty((len(draw), 1 << r), dtype=complex)
    amps.real, amps.imag = draw[:, 0], draw[:, 1]
    states = [StateVector._of(r, row / l2(row)) for row in amps]
    return states[0] if count is None else states


def random_product_state(a, b, rng: np.random.Generator) -> StateVector:
    """Tensor of independent Gaussian factors across the bipartition."""
    a, b = frozenset(a), frozenset(b)
    r = len(a) + len(b)
    if (a | b) != frozenset(range(r)) or (a & b):
        raise ValueError("bipartition must partition the register")
    return tensor(random_state(len(a), rng), random_state(len(b), rng),
                  placement=a)


def random_exact_state(r: int, rng: np.random.Generator) -> StateVector:
    """Unnormalized exact state with Gaussian-integer amplitudes, each
    part in -2..2.

    Separability and simplification classification are scale invariant,
    so the exact suites use these without normalizing (flagged)."""
    if r > MAX_QUBITS:
        raise RegisterSizeError(f"register cap is {MAX_QUBITS} qubits")
    while True:
        # scalar draws in amplitude order, real part then imaginary: a
        # vector draw would consume the stream differently
        parts = [int(rng.integers(-2, 3)) for _ in range(2 << r)]
        if any(parts):
            break
    num = np.zeros((4, 1 << r), dtype=np.int64)
    num[0::2] = np.reshape(parts, (-1, 2)).T
    return StateVector.from_numerators(r, num, normalized=False)


# ---- dump format ----------------------------------------------------------

class StateParseError(ParseError):
    pass


def format_state(psi: StateVector) -> str:
    """One line per nonzero amplitude: ``bitstring re im``, sorted; a
    single newline for the zero vector."""
    return "".join(f"{bits} {format_complexes([a])}\n"
                   for bits, a in psi.to_float().nonzero_items()) or "\n"


class _AmplitudeLines:
    """The ``bits re im`` lines of one r-qubit state, read in order; a
    bitstring may appear on one line only (else "repeated <label> <bits>")."""

    def __init__(self, r: int, label: str = "bitstring"):
        self.r, self.label, self.entries = r, label, {}

    def read(self, tokens, ln, error) -> None:
        bits, *re_im = tokens
        i = parse_bits(bits, self.r, ln, error)
        if i in self.entries:
            raise error(f"repeated {self.label} {bits}", ln, "duplicate-entry")
        self.entries[i], = parse_complexes(re_im, 1, ln, error, what="amplitude")

    def amps(self) -> np.ndarray:
        amps = np.zeros(1 << self.r, dtype=complex)
        amps[list(self.entries)] = list(self.entries.values())
        return amps


def parse_state(text: str) -> StateVector:
    """Read a state dump; a bitstring may appear on one line only."""
    lines = None
    for ln, parts in content_lines(text):
        if len(parts) != 3:
            raise StateParseError("expected 'bitstring re im'", ln)
        if lines is None:
            if len(parts[0]) > MAX_QUBITS:
                raise StateParseError(f"more than {MAX_QUBITS} qubits", ln,
                                      "register-too-large")
            lines = _AmplitudeLines(len(parts[0]))
        lines.read(parts, ln, StateParseError)
    if lines is None:
        raise StateParseError("empty state dump", None, "empty")
    r, amps = lines.r, lines.amps()
    n = np.linalg.norm(amps)
    return StateVector(r, amps, normalized=bool(abs(n - 1.0) <= _NORMALIZED))
