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
numerator components (``_exact_op``), which ``_gate_1q`` and
``_gate_multi`` apply in one matmul.  Every exact gate entry lies in
Q(i, sqrt2), and those of H/X/Y/Z, CZ and the phases +-i and
(1+-i)/sqrt2 even in Z[1/sqrt2, i] (Giles and Selinger, PRA 2013).

The two kernels act on a batch of states along a leading axis:
``simulate_all`` runs one circuit on many inputs in one pass, and
``simulate``, ``apply_1q`` and ``apply_multi`` are the batch of one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    INT64_SAFE,
    Exact,
    Tolerance,
    is_exact,
    lowest_terms,
    narrowed,
    numerators,
    to_float,
    widened,
)
from .qstate import (
    _BATCH_AMPS,
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
_CZ_FLOAT_ETA = to_float(Exact.MINUS_ONE)


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
        e = _CZ_FLOAT_ETA
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
        # the float phase, which the check above needs anyway, kept for
        # the float kernel (set past the frozen __setattr__; not a field)
        object.__setattr__(self, "_float_eta", e)

    @property
    def eta(self):
        return Exact.MINUS_ONE if self.kind == "cz" else self.eta_value

    @functools.cached_property
    def _exact_op(self) -> tuple:
        """``_phase_op`` of the gate's phase, on the first exact use."""
        return _phase_op(None if self.kind == "cz" else self.eta)

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


# A batch is K states of one register and kind in one array, the state
# index on a leading axis: (stack, den) with stack the (K, 2^r) complex
# amplitudes and den None, or the (4, K, 2^r) numerators (``StateVector.num``
# of each) over one common denominator den, in lowest terms together.
# The kernels map a batch to a batch; a single state is the batch K = 1.

def _stacked(states) -> tuple:
    """The batch of ``states``, all float or all exact (a view for one
    state: the kernels never write to their input)."""
    if len(states) == 1:
        psi = states[0]
        return (psi.num[:, None], psi.den) if psi.is_exact else (psi.amps[None], None)
    if not states[0].is_exact:
        return np.stack([psi.amps for psi in states]), None
    den = math.lcm(*(psi.den for psi in states))
    return np.stack([psi.num if psi.den == den
                     else widened(psi.num, den // psi.den) * (den // psi.den)
                     for psi in states], axis=1), den


def _unstacked(batch: tuple, like) -> list:
    """The states of a batch, each with the register and normalization
    flag of its entry in ``like``; exact ones each in lowest terms (a
    batch of one is already)."""
    stack, den = batch
    if den is None:
        return [StateVector._of(psi.r, amps, psi.normalized)
                for psi, amps in zip(like, stack)]
    if len(like) == 1:
        return [StateVector.from_numerators(like[0].r, stack[:, 0], den, like[0].normalized)]
    return [StateVector.from_numerators(psi.r, *lowest_terms(stack[:, k], den),
                                        psi.normalized)
            for k, psi in enumerate(like)]


def _reduced(num: np.ndarray, den: int) -> tuple:
    """A kernel's exact result in lowest terms, back in int64 where it
    fits (an int64 result came from inputs ``widened`` left in int64, so
    its entries stay below ``INT64_SAFE``)."""
    num, den = lowest_terms(num, den)
    return (narrowed(num) if num.dtype == object else num), den


def _gate_1q(batch: tuple, qubit: int, gate: Gate1q) -> tuple:
    """A batch after a 1-qubit gate, exactly if the batch is exact (then
    so is the gate).  Float amplitudes form a (K, 2^q, 2, rest) view with
    qubit q third, and the 2x2 gate m acts in one matmul picked by the
    state's shape alone, so that each state's products are those of K = 1:
    ``m @ view`` batched over K 2^q blocks when 2^q <= rest, ``view @ m.T``
    on the rows of the last qubit, else m times each state's view with its
    qubit axis moved to the front.  Exact numerators: the gate's cached
    8x8 operator acts on their (component, bit) pairs over a g the
    batch's den absorbs."""
    stack, den = batch
    if den is None:
        m, k = gate.float_mat(), len(stack)
        lead, rest = 1 << qubit, stack.shape[1] >> (qubit + 1)
        view = stack.reshape(k, lead, 2, rest)
        if rest == 1:
            out = view.reshape(k, lead, 2) @ m.T
        elif lead <= rest:
            out = m @ view
        else:
            out = (m @ view.transpose(0, 2, 1, 3).reshape(k, 2, -1)).reshape(
                k, 2, lead, rest).transpose(0, 2, 1, 3)
        return out.reshape(k, -1), None
    op, g, gain = gate._exact_op
    t = widened(stack, gain).reshape(4, stack.shape[1] << qubit, 2, -1).transpose(0, 2, 1, 3)
    out = (op @ t.reshape(8, -1)).reshape(t.shape).transpose(0, 2, 1, 3)
    return _reduced(out.reshape(stack.shape), den * g)


def _gate_multi(batch: tuple, gate: MultiGate) -> tuple:
    """A batch after a phase gate, exactly if the batch is exact (then so
    is eta): eta's cached operator on the S-ones numerators, the rest
    times g.  Float S-ones amplitudes are multiplied by eta in numpy's
    vector loop, which rounds as it does for a single state; a gate on
    the whole register leaves one amplitude per state, which numpy
    multiplies alone without fused multiply-adds, so its product is
    spelled out in real parts as that scalar loop rounds it."""
    stack, den = batch
    r = stack.shape[-1].bit_length() - 1
    ones = (slice(None), slice(None)) + bit_index(r, gate.qubits, 1)
    if den is None:
        out = stack.reshape((-1,) + (2,) * r).copy()
        z, eta = out[ones[1:]], gate._float_eta
        if len(gate.qubits) < r:
            z *= eta
        else:
            z.real, z.imag = (z.real * eta.real - z.imag * eta.imag,
                              z.real * eta.imag + z.imag * eta.real)
        return out.reshape(stack.shape), None
    op, g, gain = gate._exact_op
    t = widened(stack, gain).reshape((4, -1) + (2,) * r)
    out = t.copy() if g == 1 else t * np.array(g)  # object past int64: no wrap
    out[ones] = (op @ t[ones].reshape(4, -1)).reshape(out[ones].shape)
    return _reduced(out.reshape(stack.shape), den * g)


def apply_1q(psi: StateVector, qubit: int, gate: Gate1q) -> StateVector:
    if qubit < 0 or qubit >= psi.r:
        raise ValueError(f"qubit {qubit} outside register")
    psi = psi if gate.is_exact else psi.to_float()
    return _unstacked(_gate_1q(_stacked([psi]), qubit, gate), [psi])[0]


def apply_multi(psi: StateVector, gate: MultiGate) -> StateVector:
    psi = psi if is_exact(gate.eta) else psi.to_float()
    return _unstacked(_gate_multi(_stacked([psi]), gate), [psi])[0]


def apply_cz(psi: StateVector, qubits) -> StateVector:
    return apply_multi(psi, MultiGate(frozenset(qubits), "cz"))


def apply_geta(psi: StateVector, qubits, eta) -> StateVector:
    return apply_multi(psi, MultiGate(frozenset(qubits), "geta", eta))


# The classical CNOT, a reference fixture only (not a circuit primitive
# here): it flips the target on the control's |1> half.

def apply_cnot(psi: StateVector, control: int, target: int) -> StateVector:
    stack, den = _stacked([psi])
    t = stack.reshape((-1,) + (2,) * psi.r)
    on = (slice(None),) + bit_index(psi.r, (control,), 1)
    out = t.copy()
    out[on] = np.flip(t[on], axis=1 + target)
    return _unstacked((out.reshape(stack.shape), den), [psi])[0]


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


def _layers(circuit: Circuit, batch: tuple):
    """Yield (layer label, batch) after each of layers 0.5, 1, ..., depth + 0.5."""
    for i in range(circuit.depth + 1):
        layer = circuit.single_layers[i]
        for q in sorted(layer):
            batch = _gate_1q(batch, q, layer[q])
        yield i + 0.5, batch
        if i < circuit.depth:
            for g in circuit.multi_layers[i]:
                batch = _gate_multi(batch, g)
            yield i + 1.0, batch


def _final(circuit: Circuit, batch: tuple) -> tuple:
    for _, batch in _layers(circuit, batch):
        pass
    return batch


def simulate(circuit: Circuit, initial: StateVector, trace: bool = False):
    """Apply layers 0.5, 1, 1.5, ..., depth + 0.5 in order.

    With ``trace`` the return value is (final, [(layer_label, state)...])
    exposing the state after each layer.
    """
    if initial.r != circuit.r:
        raise ValueError("state register does not match circuit")
    psi = initial if circuit.is_exact else initial.to_float()
    if not trace:
        return _unstacked(_final(circuit, _stacked([psi])), [psi])[0]
    steps = [(label, _unstacked(batch, [psi])[0])
             for label, batch in _layers(circuit, _stacked([psi]))]
    return steps[-1][1], steps


def simulate_all(circuit: Circuit, states) -> list[StateVector]:
    """``[simulate(circuit, psi) for psi in states]``, equal state for
    state (floats bit for bit), in one pass per batch of at most
    ``qstate._BATCH_AMPS`` amplitudes.  An exact circuit keeps each
    state's kind, the exact and the float states running as separate
    batches; any other circuit runs them all on floats."""
    exact = circuit.is_exact
    states = [psi if exact else psi.to_float() for psi in states]
    if any(psi.r != circuit.r for psi in states):
        raise ValueError("state register does not match circuit")
    out = [None] * len(states)
    size = max(1, _BATCH_AMPS >> circuit.r)
    for kind in (True, False):
        picked = [i for i, psi in enumerate(states) if psi.is_exact == kind]
        for lo in range(0, len(picked), size):
            part = picked[lo:lo + size]
            like = [states[i] for i in part]
            for i, psi in zip(part, _unstacked(_final(circuit, _stacked(like)), like)):
                out[i] = psi
    return out


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

    def initial(x):
        front = basis_state(1 + n, "0" + x)
        return front if ancilla is None else tensor(front, ancilla,
                                                    placement=range(1 + n))

    inputs = ["".join(bits) for bits in product("01", repeat=n)]

    def finals():
        # input 0 alone first: a circuit that fails mostly fails there,
        # and then the other inputs need no simulating
        yield simulate(circuit, initial(inputs[0]))
        yield from simulate_all(circuit, map(initial, inputs[1:]))

    for x, final in zip(inputs, finals()):
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
