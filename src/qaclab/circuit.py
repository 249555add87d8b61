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

Gates on an exact state run on its integer numerators over one shared
denominator (``StateVector.num``), with no conversion to or from
``Exact`` amplitudes: each exact gate caches its integer operator on the
numerator components (``_exact_op``, ``_phase_op``), which ``_gate_1q``
and ``_gate_multi`` apply in one matmul.  Every exact gate entry lies in
Q(i, sqrt2), and those of H/X/Y/Z, CZ and the phases +-i and
(1+-i)/sqrt2 even in Z[1/sqrt2, i] (Giles and Selinger, PRA 2013).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    INT64_SAFE,
    Exact,
    Tolerance,
    is_exact,
    numerators,
    to_float,
    widened,
)
from .qstate import (
    MAX_QUBITS,
    StateVector,
    basis_state,
    bit_index,
    l2,
    ones_component_is_zero,
    ones_projection_norm,
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


_NAMED_1Q = {name: np.array(m, dtype=object) for name, m in {
    "I": [[Exact.ONE, Exact.ZERO], [Exact.ZERO, Exact.ONE]],
    "X": [[Exact.ZERO, Exact.ONE], [Exact.ONE, Exact.ZERO]],
    "Y": [[Exact.ZERO, -Exact.I], [Exact.I, Exact.ZERO]],
    "Z": [[Exact.ONE, Exact.ZERO], [Exact.ZERO, Exact.MINUS_ONE]],
    "H": [[Exact.INV_SQRT2, Exact.INV_SQRT2], [Exact.INV_SQRT2, -Exact.INV_SQRT2]],
    "S": [[Exact.ONE, Exact.ZERO], [Exact.ZERO, Exact.I]],
    "T": [[Exact.ONE, Exact.ZERO],
          [Exact.ZERO, Exact.INV_SQRT2 * (Exact.ONE + Exact.I)]],
}.items()}


@dataclass(frozen=True, eq=False)
class Gate1q:
    """A 2x2 unitary; named gates carry exact entries.  Gates with equal
    entries are equal, whatever their names (``Exact`` == its float)."""

    mat: np.ndarray
    name: str | None = None

    @classmethod
    @functools.cache  # one gate per name, so its operators are built once
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
        return self._float_mat if self.is_exact else self.mat

    @functools.cached_property
    def _float_mat(self) -> np.ndarray:
        m = self.mat.astype(complex)
        m.flags.writeable = False
        return m

    @functools.cached_property
    def _exact_op(self) -> tuple:
        """``_operator`` of the gate on (component, bit) pairs 2 c + b."""
        nums, g = numerators(self.mat.flat)
        blocks = np.array([_times(nums[k:k + 4]) for k in range(0, 16, 4)], object)
        return _operator(blocks.reshape(2, 2, 4, 4).transpose(2, 0, 3, 1).reshape(8, 8), g)

    def compose_after(self, first: "Gate1q") -> "Gate1q":
        """Gate equal to applying ``first`` and then self."""
        if self.is_exact and first.is_exact:
            return Gate1q(self.mat @ first.mat)
        return Gate1q(self.float_mat() @ first.float_mat())

    def __eq__(self, other):
        if not isinstance(other, Gate1q):
            return NotImplemented
        return bool((self.mat == other.mat).all())

    def __hash__(self):
        return hash(tuple(self.float_mat().ravel().tolist()))

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

def _times(n) -> list:
    """Multiplication by n0 + n1 sqrt2 + i (n2 + n3 sqrt2) as an integer
    matrix on the components (1, sqrt2, i, i sqrt2)."""
    n0, n1, n2, n3 = n
    return [[n0, 2 * n1, -n2, -2 * n3],
            [n1, n0, -n3, -n2],
            [n2, 2 * n3, n0, 2 * n1],
            [n3, n2, n1, n0]]


def _gain(m) -> int:
    """Largest absolute row sum of m: the most an output exceeds max|input| by."""
    return max(sum(map(abs, row)) for row in m)


def _operator(op: np.ndarray, g: int, gain: int = 1) -> tuple:
    """(op, g, gain) for an integer matrix over g, its gain at least
    ``gain``: op read-only, int64 unless the gain reaches ``INT64_SAFE``."""
    gain = max(gain, _gain(op))
    op = op if gain >= INT64_SAFE else op.astype(np.int64)
    op.flags.writeable = False
    return op, g, gain


@functools.lru_cache(maxsize=64)
def _phase_op(eta) -> tuple:
    """``_operator`` of an exact phase, once per value (None for CZ's -1,
    a key with no ``Exact`` hash to take); other amplitudes scale by g."""
    e, g = numerators([Exact.MINUS_ONE if eta is None else eta])
    return _operator(np.array(_times(e), dtype=object), g, g)


def _gate_1q(psi: StateVector, qubit: int, gate: Gate1q) -> StateVector:
    """psi after a 1-qubit gate, exactly if psi is exact (then so is the
    gate).  Float amplitudes form a (2^q, 2, rest) view with qubit q in
    the middle, and the 2x2 gate m acts in one matmul picked by shape:
    ``m @ view`` batched over 2^q <= rest blocks, ``view @ m.T`` on the
    rows of the last qubit, else m times the view with its middle axis
    moved to the front.  Exact numerators: the gate's cached 8x8 operator
    acts on their (component, bit) pairs over a g the state's den absorbs."""
    if not psi.is_exact:
        m, lead, rest = gate.float_mat(), 1 << qubit, 1 << (psi.r - 1 - qubit)
        view = psi.amps.reshape(lead, 2, rest)
        if rest == 1:
            out = view.reshape(lead, 2) @ m.T
        elif lead <= rest:
            out = m @ view
        else:
            out = (m @ view.transpose(1, 0, 2).reshape(2, -1)).reshape(
                2, lead, rest).transpose(1, 0, 2)
        return StateVector._of(psi.r, out.reshape(-1), psi.normalized)
    op, g, gain = gate._exact_op
    t = widened(psi.num, gain).reshape(4, 1 << qubit, 2, -1).transpose(0, 2, 1, 3)
    out = (op @ t.reshape(8, -1)).reshape(t.shape).transpose(0, 2, 1, 3)
    return psi.restacked(out, psi.den * g)


def _gate_multi(psi: StateVector, gate: MultiGate) -> StateVector:
    """psi after a phase gate, exactly if psi is exact (then so is eta):
    eta's cached operator on the S-ones numerators, the rest times g."""
    ones = bit_index(psi.r, gate.qubits, 1)
    if not psi.is_exact:
        out = psi.axes().copy()
        out[ones] *= to_float(gate.eta)
        return StateVector._of(psi.r, out.reshape(-1), psi.normalized)
    op, g, gain = _phase_op(None if gate.kind == "cz" else gate.eta)
    t = widened(psi.num, gain).reshape([4] + [2] * psi.r)
    out = t.copy() if g == 1 else t * np.array(g)  # object past int64: no wrap
    ones = (slice(None),) + ones
    out[ones] = (op @ t[ones].reshape(4, -1)).reshape(out[ones].shape)
    return psi.restacked(out, psi.den * g)


def apply_1q(psi: StateVector, qubit: int, gate: Gate1q) -> StateVector:
    if qubit < 0 or qubit >= psi.r:
        raise ValueError(f"qubit {qubit} outside register")
    return _gate_1q(psi if gate.is_exact else psi.to_float(), qubit, gate)


def apply_multi(psi: StateVector, gate: MultiGate) -> StateVector:
    return _gate_multi(psi if is_exact(gate.eta) else psi.to_float(), gate)


def apply_cz(psi: StateVector, qubits) -> StateVector:
    return apply_multi(psi, MultiGate(frozenset(qubits), "cz"))


def apply_geta(psi: StateVector, qubits, eta) -> StateVector:
    return apply_multi(psi, MultiGate(frozenset(qubits), "geta", eta))


# The classical CNOT, a reference fixture only (not a circuit primitive
# here): it flips the target on the control's |1> half.

def apply_cnot(psi: StateVector, control: int, target: int) -> StateVector:
    t = psi.stack()
    on = (slice(None),) + bit_index(psi.r, (control,), 1)
    out = t.copy()
    out[on] = np.flip(t[on], axis=1 + target)
    return psi.restacked(out)


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
        return (all(g.is_exact for layer in self.single_layers for g in layer.values())
                and all(is_exact(g.eta) for layer in self.multi_layers for g in layer))

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
    psi = initial if circuit.is_exact else initial.to_float()
    steps = []
    for i in range(circuit.depth + 1):
        for q in sorted(circuit.single_layers[i]):
            psi = _gate_1q(psi, q, circuit.single_layers[i][q])
        if trace:
            steps.append((i + 0.5, psi))
        if i < circuit.depth:
            for g in circuit.multi_layers[i]:
                psi = _gate_multi(psi, g)
            if trace:
                steps.append((i + 1.0, psi))
    return (psi, steps) if trace else psi


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


def classify_simplification(s, psi: StateVector,
                            tol: Tolerance = DEFAULT_TOL) -> SimplificationOutcome:
    """How a phase gate on the qubit set S acts on psi.

    Disappears when the S-ones component vanishes.  Otherwise the gate
    acts exactly like the gate on T = S minus the qubits pinned to |1>;
    the maximal pinned set is removed, so the returned T is minimal.
    T = empty set reports a pure global phase.  Exact states are decided
    exactly; on floats a qubit is pinned when the l2 norm of its 0 half
    is at most ``tol.threshold(psi.norm())``, as is the S-ones component
    of a gate that disappears.
    """
    s = frozenset(s)
    if psi.is_exact:
        if ones_component_is_zero(psi, s):
            return DISAPPEARS
        support = psi.support()
        pinned = frozenset(q for q in s if not support[bit_index(psi.r, (q,), 0)].any())
    else:
        bound, t = tol.threshold(psi.norm()), psi.axes()
        if ones_projection_norm(psi, s) <= bound:
            return DISAPPEARS
        pinned = frozenset(q for q in s if l2(t[bit_index(psi.r, (q,), 0)]) <= bound)
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
        wrong = bit_index(circuit.r, (0,), 1 - x.count("1") % 2)
        ok = (not final.support()[wrong].any() if final.is_exact
              else l2(final.axes()[wrong]) <= tol.threshold(1.0))
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
