"""Layered circuits of 1-qubit gates and multiqubit phase gates.

A depth-d circuit alternates d+1 layers of single-qubit gates with d
layers of multiqubit gates; only the multiqubit layers count toward the
depth.  Layers are addressed with half-integer labels 0.5, 1, 1.5, ...,
d+0.5 (stored internally as two parallel lists), the leftmost 1-qubit
layer applied first.  Qubit 0 is the target, qubits 1..n the inputs,
n+1..n+m the ancillas.

The multiqubit gates multiply the amplitude of basis states that carry a
1 on every incident qubit by a phase: -1 for a CZ gate, an arbitrary
unit phase eta != 1 for its generalization.  A CZ on the empty qubit set
is -identity by convention.

``classify_simplification`` decides how such a gate acts on a concrete
state: it disappears (acts as identity) exactly when the state has no
component with 1s throughout the gate's qubits; it acts like the smaller
gate on T = S minus the qubits pinned to |1> when such qubits exist; and
otherwise it does not simplify.

Gates on an exact state run on integer numerators over one shared
denominator (``_ExactKernel``): every exact gate entry lies in
Q(i, sqrt2), and those of H/X/Y/Z, CZ and the phases +-i and
(1+-i)/sqrt2 even in Z[1/sqrt2, i] (Giles and Selinger, PRA 2013).  The
amplitudes callers see stay ``Exact``: ``simulate`` converts in once and
out once (once per layer with ``trace``), the single-gate functions
once each way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import attrgetter

import numpy as np

from .numerics import DEFAULT_TOL, Exact, Tolerance, is_exact, to_float
from .qstate import (
    MAX_QUBITS,
    StateVector,
    basis_state,
    bit_index,
    ones_component_is_zero,
    tensor,
)

# ---- gates -----------------------------------------------------------------

#: A geta phase needs |eta| within this of 1, and eta farther than
#: ``_ETA_TRIVIAL`` from 1 (closer, the gate is the identity).
_ETA_MODULUS = 1e-9
_ETA_TRIVIAL = 1e-12


class CircuitValidationError(ValueError):
    def __init__(self, message, kind="invalid"):
        self.kind = kind
        super().__init__(message)


def _exact_mat(entries) -> np.ndarray:
    m = np.empty((2, 2), dtype=object)
    for i in range(2):
        for j in range(2):
            m[i, j] = entries[i][j]
    return m


_NAMED_1Q = {
    "I": _exact_mat([[Exact.ONE, Exact.ZERO], [Exact.ZERO, Exact.ONE]]),
    "X": _exact_mat([[Exact.ZERO, Exact.ONE], [Exact.ONE, Exact.ZERO]]),
    "Y": _exact_mat([[Exact.ZERO, -Exact.I], [Exact.I, Exact.ZERO]]),
    "Z": _exact_mat([[Exact.ONE, Exact.ZERO], [Exact.ZERO, Exact.MINUS_ONE]]),
    "H": _exact_mat([[Exact.INV_SQRT2, Exact.INV_SQRT2],
                     [Exact.INV_SQRT2, -Exact.INV_SQRT2]]),
}


@dataclass(frozen=True)
class Gate1q:
    """A 2x2 unitary; named gates carry exact entries."""

    mat: np.ndarray
    name: str | None = None

    @classmethod
    def named(cls, name: str) -> "Gate1q":
        if name not in _NAMED_1Q:
            raise CircuitValidationError(f"unknown gate {name!r}", "unknown-gate-name")
        return cls(_NAMED_1Q[name], name)

    @classmethod
    def from_matrix(cls, entries, tol: Tolerance = DEFAULT_TOL) -> "Gate1q":
        m = np.asarray(entries, dtype=complex).reshape(2, 2)
        if not unitary_close(m, tol):
            raise CircuitValidationError("matrix is not unitary", "non-unitary")
        return cls(m)

    @property
    def is_exact(self) -> bool:
        return self.mat.dtype == object

    def float_mat(self) -> np.ndarray:
        if not self.is_exact:
            return self.mat
        return np.array([[to_float(self.mat[i, j]) for j in range(2)]
                         for i in range(2)], dtype=complex)

    def compose_after(self, first: "Gate1q") -> "Gate1q":
        """Gate equal to applying ``first`` and then self."""
        a, b = self.mat, first.mat
        if self.is_exact and first.is_exact:
            out = np.empty((2, 2), dtype=object)
            for i in range(2):
                for j in range(2):
                    out[i, j] = a[i, 0] * b[0, j] + a[i, 1] * b[1, j]
            return Gate1q(out)
        return Gate1q(self.float_mat() @ first.float_mat())

    def __repr__(self):
        return f"Gate1q({self.name or 'matrix'})"


GATE_I = Gate1q.named("I")
GATE_X = Gate1q.named("X")
GATE_Y = Gate1q.named("Y")
GATE_Z = Gate1q.named("Z")
GATE_H = Gate1q.named("H")


def unitary_close(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(2))) <= tol.threshold(1.0))


def is_semiclassical(g: Gate1q, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Diagonal or antidiagonal matrix (two zero entries); such gates map
    basis states to basis states up to phase, and the property is closed
    under taking adjoints."""
    m = g.float_mat()
    thr = tol.threshold(float(np.max(np.abs(m))))
    diag = abs(m[0, 1]) <= thr and abs(m[1, 0]) <= thr
    anti = abs(m[0, 0]) <= thr and abs(m[1, 1]) <= thr
    return diag or anti


@dataclass(frozen=True)
class MultiGate:
    """Phase gate on a qubit set: CZ (eta = -1) or a general unit phase."""

    qubits: frozenset[int]
    kind: str = "cz"  # "cz" | "geta"
    eta_value: object = None

    def __post_init__(self):
        if self.kind not in ("cz", "geta"):
            raise ValueError(f"unknown multiqubit gate kind {self.kind!r}")
        if self.kind == "geta":
            if self.eta_value is None:
                raise ValueError("geta needs a phase")
            e = to_float(self.eta_value)
            if not abs(abs(e) - 1.0) <= _ETA_MODULUS:  # NaN fails too
                raise CircuitValidationError("geta phase must have modulus 1",
                                             "geta-modulus")
            if abs(e - 1.0) <= _ETA_TRIVIAL:
                raise CircuitValidationError("geta phase must differ from 1",
                                             "geta-trivial")

    @property
    def eta(self):
        return Exact.MINUS_ONE if self.kind == "cz" else self.eta_value

    def __repr__(self):
        qs = ",".join(map(str, sorted(self.qubits)))
        if self.kind == "cz":
            return f"CZ({qs})"
        return f"G_eta({to_float(self.eta):.3g};{qs})"


def cz(*qubits) -> MultiGate:
    return MultiGate(frozenset(qubits), "cz")


def geta(eta, *qubits) -> MultiGate:
    return MultiGate(frozenset(qubits), "geta", eta)


# ---- gate application ------------------------------------------------------

#: The exact kernel stays on int64 while every entry it can produce is
#: below this; numpy int64 wraps silently, so the bound is taken first.
_INT64_SAFE = 1 << 62


_PARTS = attrgetter("a", "b", "c", "d")


def _numerators(xs) -> tuple[list, int]:
    """The components of each ``Exact`` in xs, four per value in order,
    as integer numerators over their least common denominator, and that
    denominator."""
    flat = [c for x in xs for c in _PARTS(x)]
    den = math.lcm(*{c.denominator for c in flat})
    return [c.numerator * (den // c.denominator) for c in flat], den


def _times(n) -> list:
    """Multiplication by n0 + n1 sqrt2 + i (n2 + n3 sqrt2) as an integer
    matrix on the components (1, sqrt2, i, i sqrt2)."""
    n0, n1, n2, n3 = n
    return [[n0, 2 * n1, -n2, -2 * n3],
            [n1, n0, -n3, -n2],
            [n2, 2 * n3, n0, 2 * n1],
            [n3, n2, n1, n0]]


def _gain(*mats) -> int:
    """Largest absolute row sum of the matrices placed side by side: the
    factor by which one output entry can exceed the largest input."""
    return max(sum(abs(x) for m in mats for x in m[k]) for k in range(4))


class _ExactKernel:
    """An exact state as integer numerators over one denominator.

    Column j of the (4, 2^r) array ``n`` holds amplitude j as
    (n0 + n1 sqrt2 + i (n2 + n3 sqrt2)) / den with den > 0.  Every exact
    gate entry lies in Q(i, sqrt2), so a gate acts on the components as
    an integer matrix over the entry's own denominator, which ``den``
    absorbs; after each gate, ``n`` and ``den`` are divided by their gcd.
    ``n`` is int64 while the bound taken before each gate keeps every
    entry below 2^62, and an object array of Python ints past it.
    Converting in skips the amplitudes that are the shared ``Exact.ZERO``;
    converting out writes it at every zero column.  Neither uses a float.
    """

    def __init__(self, psi: StateVector):
        self.r, self.normalized = psi.r, psi.normalized
        # a zero that is not the shared Exact.ZERO becomes a zero column
        amps = psi.amps.tolist()
        idx = [j for j, x in enumerate(amps) if x is not Exact.ZERO]
        nums, self.den = _numerators([amps[j] for j in idx])
        big = max(map(abs, nums), default=0)
        self.n = np.zeros((4, 1 << self.r),
                          dtype=np.int64 if big < _INT64_SAFE else object)
        self.n[:, idx] = np.array(nums, dtype=self.n.dtype).reshape(-1, 4).T

    def _axes(self, qubits, bit) -> tuple:
        return (slice(None),) + bit_index(self.r, qubits, bit)

    def _fit(self, gain: int):
        if (self.n.dtype != object
                and int(np.abs(self.n).max()) * gain >= _INT64_SAFE):
            self.n = self.n.astype(object)

    def _reduce(self):
        if self.den != 1:
            g = math.gcd(self.den, int(np.gcd.reduce(self.n, axis=None)))
            if g != 1:
                self.n //= g
                self.den //= g

    def apply_1q(self, qubit: int, gate: Gate1q):
        nums, g = _numerators(gate.mat.flat)
        m00, m01, m10, m11 = (_times(nums[k:k + 4]) for k in range(0, 16, 4))
        rows = [(m00, m01), (m10, m11)]
        self._fit(max(_gain(*row) for row in rows))
        t = self.n.reshape([4] + [2] * self.r)
        parts = [self._axes((qubit,), 0), self._axes((qubit,), 1)]
        out = np.empty_like(t)
        for part, row in zip(parts, rows):
            out[part] = sum(np.tensordot(np.array(m, dtype=t.dtype), t[src], 1)
                            for m, src in zip(row, parts) if any(map(any, m)))
        self.n = out.reshape(4, -1)
        self.den *= g
        self._reduce()

    def apply_multi(self, gate: MultiGate):
        e, g = _numerators([gate.eta])
        m = _times(e)
        self._fit(max(g, _gain(m)))
        t = self.n.reshape([4] + [2] * self.r)
        ones = self._axes(gate.qubits, 1)
        phased = np.tensordot(np.array(m, dtype=t.dtype), t[ones], 1)
        if g != 1:
            self.n *= g
            self.den *= g
        t[ones] = phased
        self._reduce()

    def vector(self) -> StateVector:
        amps = np.full(1 << self.r, Exact.ZERO, dtype=object)
        idx = np.flatnonzero((self.n != 0).any(axis=0))
        # each distinct numerator becomes one Fraction, shared
        values, where = np.unique(self.n[:, idx], return_inverse=True)
        fracs = [Fraction(v, self.den) for v in values.tolist()]
        a, b, c, d = ([fracs[i] for i in row]
                      for row in where.reshape(4, -1).tolist())
        amps[idx] = list(map(Exact._fast, a, b, c, d))
        return StateVector(self.r, amps, self.normalized)


class _FloatKernel:
    """A state on the floating backend, with the exact kernel's methods."""

    def __init__(self, psi: StateVector):
        self.psi = psi.to_float()

    def apply_1q(self, qubit: int, gate: Gate1q):
        src, m = self.psi.axes(), gate.float_mat()
        lo = bit_index(self.psi.r, (qubit,), 0)
        hi = bit_index(self.psi.r, (qubit,), 1)
        a0, a1 = src[lo], src[hi]
        out = np.empty_like(src)
        out[lo] = a0 * m[0, 0] + a1 * m[0, 1]
        out[hi] = a0 * m[1, 0] + a1 * m[1, 1]
        self.psi = StateVector(self.psi.r, out.reshape(-1), self.psi.normalized)

    def apply_multi(self, gate: MultiGate):
        ones = bit_index(self.psi.r, gate.qubits, 1)
        out = self.psi.axes().copy()
        out[ones] = out[ones] * to_float(gate.eta)
        self.psi = StateVector(self.psi.r, out.reshape(-1), self.psi.normalized)

    def vector(self) -> StateVector:
        return self.psi


def _kernel(psi: StateVector, gates_exact: bool):
    if gates_exact and psi.is_exact:
        return _ExactKernel(psi)
    return _FloatKernel(psi)


def apply_1q(psi: StateVector, qubit: int, gate: Gate1q) -> StateVector:
    if qubit < 0 or qubit >= psi.r:
        raise ValueError(f"qubit {qubit} outside register")
    k = _kernel(psi, gate.is_exact)
    k.apply_1q(qubit, gate)
    return k.vector()


def apply_multi(psi: StateVector, gate: MultiGate) -> StateVector:
    k = _kernel(psi, is_exact(gate.eta))
    k.apply_multi(gate)
    return k.vector()


def apply_cz(psi: StateVector, qubits) -> StateVector:
    return apply_multi(psi, MultiGate(frozenset(qubits), "cz"))


def apply_geta(psi: StateVector, qubits, eta) -> StateVector:
    return apply_multi(psi, MultiGate(frozenset(qubits), "geta", eta))


# The classical CNOT, a reference fixture only (not a circuit primitive
# here): it flips the target on the control's |1> half.

def apply_cnot(psi: StateVector, control: int, target: int) -> StateVector:
    on = bit_index(psi.r, (control,), 1)
    out = psi.axes().copy()
    out[on] = np.flip(psi.axes()[on], axis=target)
    return StateVector(psi.r, out.reshape(-1), psi.normalized)


# ---- circuits --------------------------------------------------------------

@dataclass
class Circuit:
    """r qubits: target 0, inputs 1..n, ancillas n+1..n+m."""

    r: int
    n_inputs: int
    n_ancillas: int
    single_layers: list  # list[dict[int, Gate1q]], length depth + 1
    multi_layers: list   # list[list[MultiGate]], length depth

    def __post_init__(self):
        self.validate()

    @property
    def depth(self) -> int:
        return len(self.multi_layers)

    def validate(self):
        if self.r > MAX_QUBITS:
            raise CircuitValidationError(
                f"register cap is {MAX_QUBITS} qubits", "register-too-large")
        if self.r != 1 + self.n_inputs + self.n_ancillas:
            raise CircuitValidationError(
                "qubits must equal 1 + inputs + ancillas", "bad-layout")
        if len(self.single_layers) != len(self.multi_layers) + 1:
            raise CircuitValidationError(
                "need depth+1 single-qubit layers", "bad-layer-count")
        for layer in self.single_layers:
            for q in layer:
                if q < 0 or q >= self.r:
                    raise CircuitValidationError(
                        f"qubit {q} outside register", "bad-qubit")
        for layer in self.multi_layers:
            seen = set()
            for g in layer:
                for q in g.qubits:
                    if q < 0 or q >= self.r:
                        raise CircuitValidationError(
                            f"qubit {q} outside register", "bad-qubit")
                if seen & g.qubits:
                    raise CircuitValidationError(
                        "multiqubit gates within a layer must be disjoint",
                        "layer-disjointness")
                seen.update(g.qubits)

    # layer labels: single layer i <-> label i + 0.5, multi layer i <-> i + 1

    def gate1(self, layer_index: int, qubit: int) -> Gate1q:
        """Single-qubit gate at layer label layer_index + 0.5 (I if absent)."""
        return self.single_layers[layer_index].get(qubit, GATE_I)

    def multi_at(self, layer: int, qubit: int) -> MultiGate | None:
        """Multiqubit gate incident to a qubit on integer layer 1..depth."""
        for g in self.multi_layers[layer - 1]:
            if qubit in g.qubits:
                return g
        return None

    @property
    def is_exact(self) -> bool:
        for layer in self.single_layers:
            if any(not g.is_exact for g in layer.values()):
                return False
        for layer in self.multi_layers:
            if any(not is_exact(g.eta) for g in layer):
                return False
        return True

    def input_qubits(self) -> range:
        return range(1, 1 + self.n_inputs)

    def ancilla_qubits(self) -> range:
        return range(1 + self.n_inputs, self.r)


def simulate(circuit: Circuit, initial: StateVector, trace: bool = False):
    """Apply layers 0.5, 1, 1.5, ..., depth + 0.5 in order.

    With ``trace`` the return value is (final, [(layer_label, state)...])
    exposing the state after each layer.
    """
    if initial.r != circuit.r:
        raise ValueError("state register does not match circuit")
    k = _kernel(initial, circuit.is_exact)
    steps = []
    for i in range(circuit.depth + 1):
        for q in sorted(circuit.single_layers[i]):
            k.apply_1q(q, circuit.single_layers[i][q])
        if trace:
            steps.append((i + 0.5, k.vector()))
        if i < circuit.depth:
            for g in circuit.multi_layers[i]:
                k.apply_multi(g)
            if trace:
                steps.append((i + 1.0, k.vector()))
    if trace:
        return steps[-1][1], steps
    return k.vector()


# ---- simplification classification ----------------------------------------

@dataclass(frozen=True)
class SimplificationOutcome:
    """disappears | simplifies-to-T (T a proper subset, possibly empty,
    with the empty set meaning a global -1 phase) | none."""

    kind: str           # "disappears" | "simplifies" | "none"
    t: frozenset | None = None

    @property
    def disappears(self) -> bool:
        return self.kind == "disappears"

    @property
    def simplifies(self) -> bool:
        return self.kind == "simplifies"

    def __repr__(self):
        if self.kind == "simplifies":
            return f"SimplifiesTo({{{','.join(map(str, sorted(self.t)))}}})"
        return {"disappears": "Disappears", "none": "NoSimplification"}[self.kind]


DISAPPEARS = SimplificationOutcome("disappears")
NO_SIMPLIFICATION = SimplificationOutcome("none")


def _pinned_to_one(psi: StateVector, qubit: int, tol: Tolerance) -> bool:
    """True iff every amplitude with a 0 at the qubit vanishes."""
    zeros = psi.axes()[bit_index(psi.r, (qubit,), 0)]
    if psi.is_exact:
        return not np.count_nonzero(zeros)
    return bool(np.linalg.norm(zeros) <= tol.threshold(psi.norm()))


def classify_simplification(s, psi: StateVector,
                            tol: Tolerance = DEFAULT_TOL) -> SimplificationOutcome:
    """How a phase gate on the qubit set S acts on psi.

    Disappears when the S-ones component vanishes.  Otherwise the gate
    acts exactly like the gate on T = S minus the qubits pinned to |1>;
    the maximal pinned set is removed, so the returned T is minimal.
    T = empty set reports a pure global phase.  Exact states are decided
    exactly.
    """
    s = frozenset(s)
    if ones_component_is_zero(psi, s, tol):
        return DISAPPEARS
    pinned = frozenset(q for q in s if _pinned_to_one(psi, q, tol))
    if pinned:
        return SimplificationOutcome("simplifies", s - pinned)
    return NO_SIMPLIFICATION


# ---- target structure ------------------------------------------------------

def target_is_pass_through(circuit: Circuit, tol: Tolerance = DEFAULT_TOL) -> bool:
    """The target's final 1-qubit gate is semiclassical (a missing gate
    counts as the identity, which is semiclassical)."""
    return is_semiclassical(circuit.gate1(circuit.depth, 0), tol)


class DepthReduceError(ValueError):
    pass


def depth_reduce(circuit: Circuit, tol: Tolerance = DEFAULT_TOL) -> Circuit:
    """Strip the last multiqubit layer.

    Two situations allow it: the target meets no multiqubit gate on the
    last layer (its last-layer gate is then at most a 1-qubit Z, and
    everything beyond the previous layer that acts on other qubits
    cannot influence the target's reduced state); or the target is
    pass-through, in which case on computing fixtures the target holds a
    basis state across the last layer and the gate acts trivially on it.
    The target's surviving 1-qubit gates are collapsed into the new
    final layer.
    """
    d = circuit.depth
    if d < 2:
        raise DepthReduceError("need depth >= 2")
    target_gate = circuit.multi_at(d, 0)
    target_multi = target_gate is not None and len(target_gate.qubits) > 1

    singles = [dict(layer) for layer in circuit.single_layers]
    multis = [list(layer) for layer in circuit.multi_layers]

    if not target_multi:
        # collapse target's last-half-layer gates; a 1-qubit CZ on the
        # target is the Z gate
        g = circuit.gate1(d, 0)
        if target_gate is not None:
            g = g.compose_after(GATE_Z)
        g = g.compose_after(circuit.gate1(d - 1, 0))
        new_final = {0: g}
        new_singles = singles[:d - 1] + [new_final]
        new_multis = multis[:d - 1]
    elif target_is_pass_through(circuit, tol):
        g = circuit.gate1(d, 0).compose_after(circuit.gate1(d - 1, 0))
        new_final = {q: gq for q, gq in singles[d - 1].items() if q != 0}
        new_final[0] = g
        new_singles = singles[:d - 1] + [new_final]
        new_multis = multis[:d - 1]
    else:
        raise DepthReduceError(
            "target meets a multiqubit gate on the last layer and is not "
            "pass-through")
    return Circuit(circuit.r, circuit.n_inputs, circuit.n_ancillas,
                   new_singles, new_multis)


# ---- parity on the computational basis -------------------------------------

def computes_parity_on_basis(circuit: Circuit,
                             ancilla: StateVector | None = None,
                             tol: Tolerance = DEFAULT_TOL):
    """Check C(|0> (x) |x> (x) ancilla) = |parity x> (x) anything for
    every classical input x; returns (ok, first counterexample or None)."""
    n, m = circuit.n_inputs, circuit.n_ancillas
    if ancilla is None:
        ancilla = basis_state(m, 0) if m else None
    elif ancilla.r != m:
        raise ValueError("ancilla register size mismatch")
    for bits in product("01", repeat=n):
        x = "".join(bits)
        front = basis_state(1 + n, "0" + x)
        initial = front if ancilla is None else tensor(front, ancilla,
                                                       placement=range(1 + n))
        final = simulate(circuit, initial)
        # the component with target != parity(x) must vanish
        wrong = final.axes()[bit_index(circuit.r, (0,), 1 - x.count("1") % 2)]
        if final.is_exact:
            ok = not np.count_nonzero(wrong)
        else:
            ok = np.linalg.norm(wrong) <= tol.threshold(1.0)
        if not ok:
            return False, x
    return True, None


# ---- the tight 3-input example ---------------------------------------------

def parity3_circuit() -> Circuit:
    """Depth-2 circuit on 4 qubits computing the parity of inputs 1..3.

    Layers: H on qubits 0 and 2; CZ{0,1} and CZ{2,3}; H on qubit 2;
    CZ{0,2}; H on qubit 0.  Equivalent to CNOT(1->0), CNOT(3->2),
    CNOT(2->0).
    """
    return Circuit(
        r=4, n_inputs=3, n_ancillas=0,
        single_layers=[{0: GATE_H, 2: GATE_H}, {2: GATE_H}, {0: GATE_H}],
        multi_layers=[[cz(0, 1), cz(2, 3)], [cz(0, 2)]],
    )


def parity3_cnot_reference(initial: StateVector) -> StateVector:
    """The same map as parity3_circuit, built from CNOT fixtures."""
    out = apply_cnot(initial, 1, 0)
    out = apply_cnot(out, 3, 2)
    return apply_cnot(out, 2, 0)
