"""Statevectors over labeled qubits, separability analysis, projections.

Qubit 0 is the most significant position of a basis-state index, so the
amplitude of |q0 q1 ... q_{r-1}> sits at index int(bits, 2).  Equivalently,
qubit q is axis q of ``amps.reshape([2] * r)`` (``StateVector.axes``):
gates, projections and tensor products are slices, outer products and
axis moves on that view, never loops over the 2^r indices.  Amplitude
arrays come in two flavours: complex128 (floating backend) and object
arrays of ``Exact`` scalars; the same array code serves both, and on the
latter every operation is performed without rounding.  Gates are the
exception: ``circuit`` applies them to an exact state on integer
numerators over one denominator, and ``amps`` is again ``Exact`` when it
hands the state back.

Separation of a state at a bipartition {A, B} is decided through the
Schmidt rank of the amplitude matrix reshaped along the cut: rank one
means the state is a tensor product across it.  On the floating backend
the rank is read off singular values; on the exact backend it is decided
by vanishing 2x2 minors, with no tolerance involved.

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

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Exact,
    Tolerance,
    abs2_scalar,
    rank_le_1,
    to_float,
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


class RegisterSizeError(ValueError):
    pass


@dataclass
class StateVector:
    """2^r amplitudes over qubits 0..r-1 (qubit 0 most significant)."""

    r: int
    amps: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        self.amps = np.asarray(self.amps)
        if self.amps.dtype != object:
            self.amps = self.amps.astype(complex)
        if self.amps.shape != (1 << self.r,):
            raise ValueError(f"expected {1 << self.r} amplitudes, "
                             f"got shape {self.amps.shape}")

    # ---- basics -------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.amps.dtype == object

    def axes(self) -> np.ndarray:
        """The amplitudes as a [2]*r array in which qubit q is axis q."""
        return self.amps.reshape([2] * self.r)

    def to_float(self) -> "StateVector":
        if not self.is_exact:
            return self
        out = np.zeros(len(self.amps), dtype=complex)
        idx = np.flatnonzero(self.amps)
        out[idx] = [complex(a) for a in self.amps[idx].tolist()]
        return StateVector(self.r, out, self.normalized)

    def norm_sq(self):
        if self.is_exact:
            total = Exact.ZERO
            for a in self.amps:
                total = total + abs2_scalar(a)
            return total
        return float(np.sum(np.abs(self.amps) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(to_float(self.norm_sq()).real))

    def amp(self, bits: str):
        if len(bits) != self.r:
            raise ValueError("bitstring length does not match register")
        return self.amps[int(bits, 2)]

    def nonzero_items(self):
        for i in np.flatnonzero(self.amps):
            yield format(i, f"0{self.r}b"), self.amps[i]

    def approx_equal(self, other: "StateVector", tol: Tolerance = DEFAULT_TOL,
                     up_to_phase: bool = False) -> bool:
        if self.r != other.r:
            return False
        if self.is_exact and other.is_exact and not up_to_phase:
            return all(a == b for a, b in zip(self.amps, other.amps))
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


def basis_state(r: int, bits, exact: bool = True) -> StateVector:
    """Computational basis state |bits>, exact by default."""
    if isinstance(bits, str):
        idx = int(bits, 2) if bits else 0
    else:
        idx = int(bits)
    amps = np.empty(1 << r, dtype=object)
    amps[:] = Exact.ZERO
    amps[idx] = Exact.ONE
    sv = StateVector(r, amps)
    return sv if exact else sv.to_float()


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


def product_amplitudes(pieces) -> np.ndarray:
    """Flat amplitudes of the tensor product of ``(labels, state)`` pieces.

    Each state's qubits go, in its own order, to the listed labels; the
    labels of all pieces together must be 0..r-1, each once.  The result
    is exact when every piece is, else complex.
    """
    exact = all(st.is_exact for _, st in pieces)
    prod = None
    for _, st in pieces:
        amps = (st if exact else st.to_float()).axes()
        prod = amps if prod is None else np.multiply.outer(prod, amps)
    labels = [q for qs, _ in pieces for q in qs]
    return np.moveaxis(prod, range(len(labels)), labels).reshape(-1)


# ---- tensor structure ---------------------------------------------------

def tensor(u: StateVector, v: StateVector, placement=None) -> StateVector:
    """Tensor product with u's qubits routed to ``placement`` labels.

    ``placement`` lists the labels (within the combined register) that
    receive u's qubits, in u's own qubit order after sorting; the
    remaining labels receive v's qubits in order.  Default: u occupies
    the leading labels.
    """
    r = u.r + v.r
    if placement is None:
        placement = range(u.r)
    placement = sorted(placement)
    if len(placement) != u.r or any(p < 0 or p >= r for p in placement):
        raise ValueError("placement must list u.r distinct labels within range")
    if len(set(placement)) != u.r:
        raise ValueError("placement labels must be distinct")
    others = [q for q in range(r) if q not in set(placement)]
    return StateVector(r, product_amplitudes([(placement, u), (others, v)]),
                       u.normalized and v.normalized)


def validate_bipartition(r: int, a, b) -> tuple[frozenset, frozenset]:
    a, b = frozenset(a), frozenset(b)
    if not a or not b or (a & b) or (a | b) != frozenset(range(r)):
        raise ValueError("need two nonempty disjoint sets covering the register")
    return a, b


def cut_matrix(t: np.ndarray, a, b) -> np.ndarray:
    """A [2]*v array reshaped to 2^|A| x 2^|B| along the cut {A, B} of its
    axes.  Rows run over the axes of A, columns over those of B, each in
    increasing order with the least axis most significant; either side
    may be empty (one row or one column)."""
    perm = sorted(a) + sorted(b)
    return t.transpose(perm).reshape(1 << len(a), 1 << len(b))


def separates_at(psi: StateVector, a, b, tol: Tolerance = DEFAULT_TOL):
    """Schmidt-rank-1 test across {A, B}; factors returned on success.

    Returns (flag, (state_A, state_B) or None).  The factors are unit
    vectors from the SVD of the cut matrix (floating backend), unique up
    to phase; the yes/no decision itself is exact for exact states.
    """
    a, b = validate_bipartition(psi.r, a, b)
    mat = cut_matrix(psi.axes(), a, b)
    if psi.is_exact:
        rows = {}
        for i, j in zip(*np.nonzero(mat)):
            rows.setdefault(i, {})[j] = mat[i, j]
        if not rank_le_1(rows):
            return False, None
        u, s, vh = np.linalg.svd(mat.astype(complex))
        return True, (StateVector(len(a), u[:, 0]), StateVector(len(b), vh[0, :]))
    u, s, vh = np.linalg.svd(mat.astype(complex))
    if len(s) > 1 and s[1] > tol.threshold(s[0]):
        return False, None
    return True, (StateVector(len(a), u[:, 0]), StateVector(len(b), vh[0, :]))


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


def linked_classes(t: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Classes of the axes of a [2]*v array joined by pair links.

    Axes i and j are linked when the 2x2 matrix M left after summing
    ``t`` over every other axis has det M != 0.  Object and integer
    arrays are exact: they link when det M is exactly nonzero (int64
    needs (sum|t|)^2 < 2^63, which bounds |det M|).  Float entries link
    only when |det M| exceeds 2 k tau (|M|_F + k tau), with
    tau = tol.threshold(|t|_F) and k = 2^((v-2)/2): a cut between i and
    j that passes the singular-value rule s_2 <= tol.threshold(s_1) (of
    ``separates_at`` and ``multilinear.bipartition_rank_oracle``)
    leaves t within tau of a product in the spectral norm, the two
    summing maps have norm k together, and a 2x2 matrix within k tau of
    a rank-1 one has |det| at most k tau (|M|_F + 2 k tau); the doubled
    first term is slack for rounding.  Linked axes therefore lie in one
    tensor factor, and on one side of every cut that the rule lets
    separate, so the classes returned, sorted by least axis, are never
    coarser than either.
    """
    v = t.ndim
    parent = list(range(v))

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    exact = t.dtype.kind in "Oiu"
    if not exact:
        k = 2.0 ** ((v - 2) / 2)
        k_tau = k * tol.threshold(float(np.linalg.norm(t)))
    for i, j in combinations(range(v), 2):
        if find(i) == find(j):
            continue
        m = t.sum(axis=tuple(q for q in range(v) if q != i and q != j))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if exact:
            linked = det != 0
        else:
            linked = abs(det) > 2 * k_tau * (np.linalg.norm(m) + k_tau)
        if linked:
            parent[find(j)] = find(i)
    joined = {}
    for q in range(v):
        joined.setdefault(find(q), []).append(q)
    return [frozenset(c) for c in joined.values()]


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
    classes = linked_classes(psi.axes(), tol)
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
    ones = psi.axes()[bit_index(psi.r, s, 1)]
    return float(np.linalg.norm(ones.astype(complex)))


def ones_component_is_zero(psi: StateVector, s, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact states: every S-ones amplitude is exactly zero; float states:
    projection norm below threshold scaled by the state norm."""
    if psi.is_exact:
        return not np.count_nonzero(psi.axes()[bit_index(psi.r, s, 1)])
    return ones_projection_norm(psi, s) <= tol.threshold(psi.norm())


def remove_ones_component(psi: StateVector, s) -> StateVector:
    """Project out the S-ones component and renormalize (floating backend)."""
    out = psi.to_float().amps.copy()
    out.reshape([2] * psi.r)[bit_index(psi.r, s, 1)] = 0
    n = np.linalg.norm(out)
    if n < _EMPTY_NORM:
        raise ValueError("state is entirely supported on the S-ones subspace")
    return StateVector(psi.r, out / n)


def target_density(psi: StateVector) -> np.ndarray:
    """Reduced 2x2 density matrix of qubit 0."""
    a = psi.to_float().amps.reshape(2, -1)
    return a @ a.conj().T


# ---- random states -------------------------------------------------------

def random_state(r: int, rng: np.random.Generator) -> StateVector:
    """Normalized Gaussian (Haar-like) state; register capped at 12."""
    if r > MAX_QUBITS:
        raise RegisterSizeError(f"register cap is {MAX_QUBITS} qubits")
    amps = rng.standard_normal(1 << r) + 1j * rng.standard_normal(1 << r)
    return StateVector(r, amps / np.linalg.norm(amps))


def random_product_state(a, b, rng: np.random.Generator) -> StateVector:
    """Tensor of independent Gaussian factors across the bipartition."""
    a, b = frozenset(a), frozenset(b)
    r = len(a) + len(b)
    if (a | b) != frozenset(range(r)) or (a & b):
        raise ValueError("bipartition must partition the register")
    return tensor(random_state(len(a), rng), random_state(len(b), rng),
                  placement=a)


def random_exact_state(r: int, rng: np.random.Generator,
                       span: int = 2) -> StateVector:
    """Unnormalized exact state with small Gaussian-integer amplitudes.

    Separability and simplification classification are scale invariant,
    so the exact suites use these without normalizing (flagged)."""
    if r > MAX_QUBITS:
        raise RegisterSizeError(f"register cap is {MAX_QUBITS} qubits")
    amps = np.empty(1 << r, dtype=object)
    while True:
        for i in range(1 << r):
            amps[i] = Exact(int(rng.integers(-span, span + 1)), 0,
                            int(rng.integers(-span, span + 1)), 0)
        if not all(a.is_zero for a in amps):
            break
    return StateVector(r, amps, normalized=False)


# ---- dump format ----------------------------------------------------------

class StateParseError(ParseError):
    pass


def format_state(psi: StateVector) -> str:
    """One line per nonzero amplitude: ``bitstring re im``, sorted; a
    single newline for the zero vector."""
    return "".join(f"{bits} {format_complexes([a])}\n"
                   for bits, a in psi.to_float().nonzero_items()) or "\n"


def parse_state(text: str) -> StateVector:
    """Read a state dump; a bitstring may appear on one line only."""
    entries = {}
    r = None
    for ln, parts in content_lines(text):
        if len(parts) != 3:
            raise StateParseError("expected 'bitstring re im'", ln)
        r = len(parts[0]) if r is None else r
        if r > MAX_QUBITS:
            raise StateParseError(f"more than {MAX_QUBITS} qubits", ln,
                                  "register-too-large")
        i = parse_bits(parts[0], r, ln, StateParseError)
        if i in entries:
            raise StateParseError(f"repeated bitstring {parts[0]}", ln,
                                  "duplicate-entry")
        entries[i], = parse_complexes(parts[1:], 1, ln, StateParseError,
                                      what="amplitude")
    if r is None:
        raise StateParseError("empty state dump", None, "empty")
    amps = np.zeros(1 << r, dtype=complex)
    amps[list(entries)] = list(entries.values())
    n = np.linalg.norm(amps)
    return StateVector(r, amps, normalized=bool(abs(n - 1.0) <= _NORMALIZED))
