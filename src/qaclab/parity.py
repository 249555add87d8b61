"""Parity subspaces, gate-killer states, and constructive refuters.

The even/odd subspace of an r-qubit register is spanned by the basis
states of Hamming parity b and has dimension 2^(r-1).  Given k < 2^(r-1)
unitaries U_1..U_k there is always a pure-parity-b state psi with
``<1..1| U_i |psi> = 0`` for every i: each condition is one linear
constraint on the 2^(r-1) coordinates, so the constraint matrix has a
nontrivial nullspace.  Such a state switches off any phase gate whose
qubit set covers the register, no matter what the remaining qubits hold.

The refuters turn this into checkable evidence that a concrete circuit
does not compute parity for the supplied ancilla state.  A certificate
records two initial states plus the simulated final target densities and
is re-verified by simulation alone:

* parity-mismatch: the input registers carry pure parity 0 and 1
  respectively, yet the final target states agree;
* target-independence: the first input register has one definite parity
  and the second state is the first with a designated input qubit
  flipped, so of the other parity, yet the final target states agree.

Either way a circuit computing parity would have to end with target
|0> against target |1>, so agreement refutes it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    GATE_X,
    Circuit,
    apply_1q,
    classify_simplification,
    simulate,
    simulate_all,
)
from .numerics import DEFAULT_TOL, Tolerance, kron_all
from .qstate import (
    MAX_QUBITS,
    StateVector,
    basis_state,
    format_state,
    ones_projection_norm,
    product_state,
    target_density,
)
from .textio import (
    ParseError,
    content_lines,
    format_complexes,
    parse_bits,
    parse_complexes,
    parse_int,
)

#: The nullspace vector's phase is fixed on its first coordinate whose
#: modulus exceeds this.
_PHASE_PIVOT = 1e-12


def parity_basis(r: int, b: int) -> list[str]:
    """All bitstrings of length r with Hamming parity b, sorted."""
    if r < 1:
        raise ValueError("need at least one qubit")
    return [format(i, f"0{r}b") for i in range(1 << r)
            if bin(i).count("1") % 2 == b]


def subset_parity_mass(psi: StateVector, qubits, b: int) -> float:
    """Probability mass of basis components whose bits at ``qubits`` have
    parity b."""
    return _parity_masses(psi, qubits, (b,))[0]


def _parity_masses(psi: StateVector, qubits, parities=(0, 1)) -> list[float]:
    """``subset_parity_mass`` for each of ``parities``, read off one array."""
    r = psi.r
    sel = sum(1 << (r - 1 - q) for q in set(qubits))
    parity = (np.bitwise_count(np.arange(1 << r) & sel) & 1).reshape([2] * r)
    probs = np.abs(psi.to_float().axes()) ** 2
    return [float(np.sum(probs, where=parity == b)) for b in parities]


def has_pure_parity(psi: StateVector, b: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Projection onto the opposite-parity span is below threshold."""
    off = subset_parity_mass(psi, range(psi.r), 1 - b)
    return bool(np.sqrt(off) <= tol.threshold(psi.norm()))


class KillParityError(ValueError):
    def __init__(self, message, kind):
        self.kind = kind
        super().__init__(message)


def _nullspace_vector_last_free(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Unit nullspace vector of a wide complex matrix.

    Gaussian elimination with partial pivoting to reduced row echelon
    form; the last free column's variable is set to 1 and the pivots are
    back-substituted, which fixes the vector deterministically.
    """
    m, n = a.shape
    r = a.astype(complex).copy()
    scale = max(float(np.max(np.abs(r))), 1.0)
    thr = tol.threshold(scale)
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        p = row + int(np.argmax(np.abs(r[row:, col])))
        if abs(r[p, col]) <= thr:
            continue
        r[[row, p]] = r[[p, row]]
        r[row] = r[row] / r[row, col]
        for other in range(m):
            if other != row:
                r[other] = r[other] - r[other, col] * r[row]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise KillParityError("constraint matrix has full column rank",
                              "degenerate")
    c_star = free[-1]
    x = np.zeros(n, dtype=complex)
    x[c_star] = 1.0
    for i, col in enumerate(pivots):
        x[col] = -r[i, c_star]
    x = x / np.linalg.norm(x)
    # phase convention: first nonzero coordinate positive real
    first_nonzero = next(v for v in x if abs(v) > _PHASE_PIVOT)
    x = x * (abs(first_nonzero) / first_nonzero)
    return x


def kill_parity_state(unitaries, b: int,
                      tol: Tolerance = DEFAULT_TOL) -> StateVector:
    """Pure-parity-b unit state orthogonal to ``<1..1| U_i`` for every i.

    Requires fewer unitaries than 2^(r-1).  The constraint rows are the
    all-ones row of each U_i restricted to the parity-b basis; any unit
    nullspace vector works and the last-free-column choice makes the
    result deterministic.
    """
    if not unitaries:
        raise KillParityError("need at least one unitary", "precondition")
    mats = [np.asarray(u, dtype=complex) for u in unitaries]
    dim = mats[0].shape[0]
    r = int(np.log2(dim))
    if 1 << r != dim or any(u.shape != (dim, dim) for u in mats):
        raise KillParityError("unitaries must share a 2^r x 2^r shape",
                              "precondition")
    k = len(mats)
    if k >= 1 << (r - 1):
        raise KillParityError(
            f"{k} constraints with r={r}: need k < 2^(r-1) = {1 << (r - 1)}",
            "precondition")
    basis = parity_basis(r, b)
    ones_row = dim - 1
    a = np.array([[u[ones_row, int(bits, 2)] for bits in basis] for u in mats])
    v = _nullspace_vector_last_free(a, tol)
    amps = np.zeros(dim, dtype=complex)
    for coeff, bits in zip(v, basis):
        amps[int(bits, 2)] = coeff
    psi = StateVector(r, amps)
    worst = max(abs(u[ones_row, :] @ psi.amps) for u in mats)
    if worst > tol.threshold(1.0) * 100:
        raise KillParityError(f"constraint residual {worst:g} too large",
                              "degenerate")
    return psi


# ---- certificates -----------------------------------------------------------


class RefutationError(RuntimeError):
    pass


class CertificateVerificationError(RefutationError):
    """A constructed certificate failed its own simulation check."""


@dataclass
class RefutationCertificate:
    """Self-verifying evidence that a circuit does not compute parity.

    ``states`` are full-register initial states; ``final_targets`` the
    2x2 reduced target densities the constructor observed.  For kind
    parity-mismatch, ``parities`` gives the pure input parities of the
    two states; for target-independence, ``flip_qubit`` names the input
    qubit on which the two states differ.
    """

    kind: str  # "parity-mismatch" | "target-independence"
    states: list
    final_targets: list
    parities: tuple | None = None
    flip_qubit: int | None = None
    note: str = ""


def verify_certificate(cert: RefutationCertificate, circuit: Circuit,
                       tol: Tolerance = DEFAULT_TOL):
    """Re-check a certificate by direct simulation.

    Returns (ok, detail).  Shares only the simulation, ``simulate_all``
    on both states in one pass, with the refuters.
    """
    if len(cert.states) != 2:
        return False, "certificate needs exactly two states"
    inputs = list(circuit.input_qubits())
    thr = tol.threshold(1.0)
    for psi in cert.states:
        if psi.r != circuit.r:
            return False, f"state has {psi.r} qubits, circuit has {circuit.r}"
        amps = psi.to_float().amps
        if not np.all(np.isfinite(amps)):
            return False, "state has a non-finite amplitude"
        if abs(np.linalg.norm(amps) - 1.0) > thr:
            return False, "state is not unit norm"
        # a parity circuit acts on target |0>; from |1> it ends flipped
        if ones_projection_norm(psi, {0}) > thr:
            return False, "target qubit is not |0>"

    if cert.kind == "parity-mismatch":
        if cert.parities is None or sorted(cert.parities) != [0, 1]:
            return False, "parities must be 0 and 1"
        for psi, b in zip(cert.states, cert.parities):
            off = subset_parity_mass(psi, inputs, 1 - b)
            if np.sqrt(off) > thr:
                return False, f"input register is not pure parity {b}"
    elif cert.kind == "target-independence":
        q = cert.flip_qubit
        if q is None or q not in inputs:
            return False, "flip qubit must be an input qubit"
        # the flip then moves the input register to the other parity
        if min(_parity_masses(cert.states[0], inputs)) > thr**2:
            return False, "input register has no definite parity"
        flipped = apply_1q(cert.states[0], q, GATE_X)
        if not flipped.approx_equal(cert.states[1], tol):
            return False, "states do not differ by a flip of the designated qubit"
    else:
        return False, f"unknown certificate kind {cert.kind!r}"

    densities = []
    for final, recorded in zip(simulate_all(circuit, cert.states), cert.final_targets):
        rho = target_density(final)
        densities.append(rho)
        # written so that a NaN in the recorded target fails the check
        if recorded is not None and not np.max(np.abs(rho - recorded)) <= 100 * thr:
            return False, "recorded final target deviates from simulation"
    gap = float(np.max(np.abs(densities[0] - densities[1])))
    if gap > thr:
        return False, f"final target states differ by {gap:g}"
    return True, "ok"


# ---- refuter plumbing --------------------------------------------------------


def product_initial(circuit: Circuit, committed: dict,
                    ancilla: StateVector | None = None) -> StateVector:
    """Full-register initial state: target |0>, ancillas in ``ancilla``
    (default |0..0>), inputs from ``committed`` mapping qubit tuples to
    states, every unassigned input |0>."""
    r = circuit.r
    pieces = [((0,), basis_state(1, 0))]
    taken = {0}
    for qs, st in committed.items():
        qs = tuple(sorted(qs))
        if st.r != len(qs):
            raise ValueError("committed state size mismatch")
        if taken & set(qs):
            raise ValueError("overlapping committed qubits")
        pieces.append((qs, st))
        taken.update(qs)
    for q in circuit.input_qubits():
        if q not in taken:
            pieces.append(((q,), basis_state(1, 0)))
            taken.add(q)
    anc = list(circuit.ancilla_qubits())
    if anc:
        if ancilla is None:
            ancilla = basis_state(len(anc), 0)
        if ancilla.r != len(anc):
            raise ValueError("ancilla register size mismatch")
        pieces.append((tuple(anc), ancilla))
        taken.update(anc)
    if taken != set(range(r)):
        raise ValueError("pieces do not cover the register")

    return product_state(pieces)


def _dressing_unitary(circuit: Circuit, layer_index: int, qubits) -> np.ndarray:
    """Tensor product of the layer's 1-qubit gates on the given qubits,
    most significant qubit first."""
    return kron_all(circuit.gate1(layer_index, q).float_mat()
                    for q in sorted(qubits))


def _finish(cert: RefutationCertificate, circuit: Circuit,
            tol: Tolerance) -> RefutationCertificate:
    ok, detail = verify_certificate(cert, circuit, tol)
    if not ok:
        raise CertificateVerificationError(
            f"constructed certificate failed verification: {detail}")
    return cert


def _targets_for(circuit: Circuit, states) -> list:
    return [target_density(final) for final in simulate_all(circuit, states)]


def refute_depth1(circuit: Circuit, ancilla: StateVector | None = None,
                  tol: Tolerance = DEFAULT_TOL) -> RefutationCertificate:
    """Certificate that a depth-1 circuit does not compute parity.

    If some input qubit shares no gate with the target, the final target
    state cannot depend on it.  Otherwise the target's gate covers
    inputs 1 and 2, and committing them to the two pure-parity killer
    states (one constraint: the leading dressing on qubits 1 and 2)
    switches that gate off for both parities, leaving the target's
    evolution parity-independent.
    """
    if circuit.depth != 1:
        raise RefutationError("refuter needs a depth-1 circuit")
    n = circuit.n_inputs
    if n < 2:
        raise RefutationError("need at least two input qubits")
    g0 = circuit.multi_at(1, 0)
    detached = [j for j in circuit.input_qubits()
                if g0 is None or j not in g0.qubits]
    if detached:
        q = detached[0]
        states = [product_initial(circuit, {}, ancilla),
                  product_initial(circuit, {(q,): basis_state(1, 1)}, ancilla)]
        cert = RefutationCertificate(
            kind="target-independence", states=states,
            final_targets=_targets_for(circuit, states),
            flip_qubit=q, note="input shares no gate with the target")
        return _finish(cert, circuit, tol)

    u1 = _dressing_unitary(circuit, 0, (1, 2))
    states = []
    for b in (0, 1):
        psi_b = kill_parity_state([u1], b, tol)
        states.append(product_initial(circuit, {(1, 2): psi_b}, ancilla))
    cert = RefutationCertificate(
        kind="parity-mismatch", states=states,
        final_targets=_targets_for(circuit, states),
        parities=(0, 1), note="killer states switch off the target's gate")
    return _finish(cert, circuit, tol)


def refute_depth2_structural(circuit: Circuit,
                             ancilla: StateVector | None = None,
                             tol: Tolerance = DEFAULT_TOL) -> RefutationCertificate | None:
    """Best-effort refuter for structurally constrained depth-2 circuits.

    Tactics, in order:

    1. some first-layer gate touches three input qubits: kill it with a
       two-qubit killer (when the target's second-layer gate misses one
       of the three, that qubit decouples) or with the double killer on
       all three (when the second-layer gate covers them, both gates
       switch off and the final target is parity-independent);
    2. the target's first-layer gate touches two input qubits: commit
       them to killer states; either the two simulated target states
       already agree, or the second-layer gate demonstrably disappears
       from the committed side alone, making the target independent of
       every other input.

    Returns None when no tactic applies; this is an honest third outcome,
    not evidence that the circuit computes parity.
    """
    if circuit.depth != 2:
        raise RefutationError("refuter needs a depth-2 circuit")
    n = circuit.n_inputs
    inputs = set(circuit.input_qubits())

    # tactic 1: a first-layer gate with at least three input qubits
    if n >= 3:
        for gate in sorted(circuit.multi_layers[0],
                           key=lambda g: min(g.qubits) if g.qubits else -1):
            touched = sorted(q for q in gate.qubits if q in inputs)
            if len(touched) < 3:
                continue
            trio = touched[:3]
            s_gate = circuit.multi_at(2, 0)
            s_qubits = s_gate.qubits if s_gate is not None else frozenset()
            outside = [q for q in trio if q not in s_qubits]
            if outside:
                q3 = outside[0]
                qa, qb = [q for q in trio if q != q3][:2]
                psi = kill_parity_state([_dressing_unitary(circuit, 0, (qa, qb))],
                                        0, tol)
                states = [
                    product_initial(circuit, {(qa, qb): psi}, ancilla),
                    product_initial(circuit, {(qa, qb): psi,
                                              (q3,): basis_state(1, 1)}, ancilla),
                ]
                cert = RefutationCertificate(
                    kind="target-independence", states=states,
                    final_targets=_targets_for(circuit, states),
                    flip_qubit=q3,
                    note="first-layer gate killed; third input decoupled")
                return _finish(cert, circuit, tol)
            u1 = _dressing_unitary(circuit, 0, trio)
            u2 = _dressing_unitary(circuit, 1, trio) @ u1
            states = []
            for b in (0, 1):
                psi_b = kill_parity_state([u1, u2], b, tol)
                states.append(product_initial(circuit, {tuple(trio): psi_b},
                                              ancilla))
            cert = RefutationCertificate(
                kind="parity-mismatch", states=states,
                final_targets=_targets_for(circuit, states),
                parities=(0, 1),
                note="double killer switches off both layers on three inputs")
            return _finish(cert, circuit, tol)

    # tactic 2: the target's first-layer gate touches two input qubits
    g01 = circuit.multi_at(1, 0)
    if g01 is not None:
        touched = sorted(q for q in g01.qubits if q in inputs)
        if len(touched) >= 2:
            q1, q2 = touched[:2]
            u1 = _dressing_unitary(circuit, 0, (q1, q2))
            killers = {b: kill_parity_state([u1], b, tol) for b in (0, 1)}
            states = [product_initial(circuit, {(q1, q2): killers[b]}, ancilla)
                      for b in (0, 1)]
            targets = _targets_for(circuit, states)
            if np.max(np.abs(targets[0] - targets[1])) <= tol.threshold(1.0):
                cert = RefutationCertificate(
                    kind="parity-mismatch", states=states,
                    final_targets=targets, parities=(0, 1),
                    note="killer states leave the target parity-independent")
                return _finish(cert, circuit, tol)
            # the simulated targets differ; see whether the second-layer
            # gate demonstrably disappears from the committed side alone
            s_gate = circuit.multi_at(2, 0)
            if s_gate is not None and len(s_gate.qubits) > 1 and n >= 3:
                committed_side = s_gate.qubits & {0, q1, q2}
                q3 = min(q for q in inputs if q not in (q1, q2))
                for b in (0, 1):
                    _, steps = simulate(circuit, states[b], trace=True)
                    after_dressing = [st for lbl, st in steps if lbl == 1.5]
                    phi = after_dressing[0]
                    outcome = classify_simplification(s_gate.qubits, phi, tol)
                    if not outcome.disappears or not committed_side:
                        continue
                    if ones_projection_norm(phi, committed_side) > tol.threshold(1.0):
                        continue
                    flip_states = [
                        states[b],
                        product_initial(circuit, {(q1, q2): killers[b],
                                                  (q3,): basis_state(1, 1)},
                                        ancilla),
                    ]
                    cert = RefutationCertificate(
                        kind="target-independence", states=flip_states,
                        final_targets=_targets_for(circuit, flip_states),
                        flip_qubit=q3,
                        note="second-layer gate disappears from the committed side")
                    try:
                        return _finish(cert, circuit, tol)
                    except CertificateVerificationError:
                        continue
    return None


# ---- text formats -------------------------------------------------------------


class UnitariesParseError(ParseError):
    pass


#: Largest entry of U U^dagger - I that a parsed unitary may show.
_UNITARITY = 1e-6


def format_unitaries(unitaries) -> str:
    mats = [np.asarray(u, dtype=complex) for u in unitaries]
    r = int(np.log2(mats[0].shape[0]))
    lines = [f"qubits {r}"]
    for u in mats:
        lines.append("unitary")
        lines.extend(format_complexes(row) for row in u)
    return "\n".join(lines) + "\n"


def parse_unitaries(text: str) -> list[np.ndarray]:
    lines = list(content_lines(text))
    ln, parts = lines[0] if lines else (None, [])
    if len(parts) != 2 or parts[0] != "qubits":
        raise UnitariesParseError("first line must be 'qubits <r>'", ln, "bad-header")
    r = parse_int(parts[1], ln, UnitariesParseError, lo=1, hi=MAX_QUBITS,
                  what="qubits count", kind="bad-header")
    dim = 1 << r
    out = []
    for start in range(1, len(lines), 1 + dim):
        ln, parts = lines[start]
        if parts != ["unitary"]:
            raise UnitariesParseError("expected 'unitary'", ln)
        block = lines[start + 1:start + 1 + dim]
        if len(block) < dim:
            raise UnitariesParseError("truncated unitary block", ln, "truncated")
        u = np.array([parse_complexes(row, dim, row_ln, UnitariesParseError,
                                      what="entry") for row_ln, row in block])
        if np.max(np.abs(u @ u.conj().T - np.eye(dim))) > _UNITARITY:
            raise UnitariesParseError("matrix is not unitary", ln, "non-unitary")
        out.append(u)
    if not out:
        raise UnitariesParseError("no unitary blocks", None, "empty")
    return out


class CertificateParseError(ParseError):
    pass


#: Field count after each certificate key (``note`` takes any).
_CERT_FIELDS = {"kind": 1, "note": None, "qubits": 1, "parities": 2,
                "flip-qubit": 1, "state": 4, "target": 9}


def format_certificate(cert: RefutationCertificate) -> str:
    r = cert.states[0].r
    lines = [f"kind {cert.kind}", f"note {cert.note}", f"qubits {r}"]
    if cert.parities is not None:
        lines.append(f"parities {cert.parities[0]} {cert.parities[1]}")
    if cert.flip_qubit is not None:
        lines.append(f"flip-qubit {cert.flip_qubit}")
    for idx, psi in enumerate(cert.states):
        lines.extend(f"state {idx} {line}" for line in format_state(psi).splitlines()
                     if line)
    for idx, rho in enumerate(cert.final_targets):
        if rho is not None:  # a parsed certificate may lack target lines
            lines.append(f"target {idx} {format_complexes(np.asarray(rho).reshape(-1))}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> RefutationCertificate:
    """Read a certificate; header keys, ``state <idx> <bits>`` pairs and
    ``target <idx>`` lines may each appear once."""
    err = CertificateParseError
    header = {}
    state_amps = {}
    targets = {}
    for ln, parts in content_lines(text):
        key, args = parts[0], parts[1:]
        if key in header:
            raise err(f"repeated {key!r} line", ln, "duplicate-entry")
        if key not in _CERT_FIELDS:
            raise err(f"unknown key {key!r}", ln, "unknown-directive")
        if _CERT_FIELDS[key] not in (None, len(args)):
            raise err(f"{key} needs {_CERT_FIELDS[key]} fields", ln)
        if key == "note":
            header[key] = " ".join(args)
        elif key == "kind":
            header[key] = args[0]
        elif key == "qubits":
            header[key] = parse_int(args[0], ln, err, lo=1, hi=MAX_QUBITS,
                                    what="qubits count", kind="bad-header")
        elif key == "parities":
            header[key] = tuple(parse_int(a, ln, err, what="parity") for a in args)
        elif key == "flip-qubit":
            header[key] = parse_int(args[0], ln, err, what="flip qubit")
        elif key == "state":
            if "qubits" not in header:
                raise err("state line before the qubits line", ln, "bad-header")
            idx = parse_int(args[0], ln, err, what="state index")
            i = parse_bits(args[1], header["qubits"], ln, err)
            amps = state_amps.setdefault(idx, {})
            if i in amps:
                raise err(f"repeated amplitude of state {idx} {args[1]}", ln,
                          "duplicate-entry")
            amps[i], = parse_complexes(args[2:], 1, ln, err, what="amplitude")
        else:
            idx = parse_int(args[0], ln, err, what="target index")
            if idx in targets:
                raise err(f"repeated target {idx}", ln, "duplicate-entry")
            targets[idx] = np.array(parse_complexes(
                args[1:], 4, ln, err, what="target entry")).reshape(2, 2)
    if not {"kind", "qubits"} <= header.keys() or not state_amps:
        raise err("certificate is missing kind/qubits/states", None, "incomplete")
    states = []
    for idx in sorted(state_amps):
        amps = np.zeros(1 << header["qubits"], dtype=complex)
        amps[list(state_amps[idx])] = list(state_amps[idx].values())
        states.append(StateVector(header["qubits"], amps))
    final_targets = [targets.get(i) for i in range(len(states))]
    return RefutationCertificate(kind=header["kind"], states=states,
                                 final_targets=final_targets,
                                 parities=header.get("parities"),
                                 flip_qubit=header.get("flip-qubit"),
                                 note=header.get("note", ""))
