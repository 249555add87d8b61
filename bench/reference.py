"""Reference computations the benchmark checks qaclab's outputs against.

Everything here is written with plain numpy and itertools, apart from
the program: a statevector simulator built on ``np.einsum``, singular
values over every cut, dense polynomial coefficient tensors and a
certificate checker that requires every precondition of a sound
refutation.  Each ``check_*`` function returns ``None`` when the output
is right and a one-line reason when it is not.
"""
from __future__ import annotations

import itertools

import numpy as np

# Tolerances of the reference side.  Product states and exact results
# sit at rounding level (~1e-15), Haar-random states are entangled by a
# wide margin, so these thresholds separate the cases with room to spare.
ATOL = 1e-9
RANK1_RATIO = 1e-8
ENTANGLED_RATIO = 1e-5
# Cuts handled per batch: bounds the memory the checks take, which
# peak_rss_mb would show (a 10-qubit sweep stacked whole takes 8 MB).
SVD_CHUNK = 64

_LETTERS = "abcdefghijklmnopqrstuvwxy"

_NAMED = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


def as_complex(amps) -> np.ndarray:
    """Amplitudes of a StateVector (complex or Exact object array) as
    complex128, converting each exact entry on its own."""
    amps = np.asarray(amps)
    if amps.dtype == object:
        return np.array([complex(a) for a in amps], dtype=complex)
    return amps.astype(complex)


# ---- statevector simulation -------------------------------------------------

def gate_matrix(gate) -> np.ndarray:
    if gate.name in _NAMED:
        return _NAMED[gate.name]
    return np.array([[complex(x) for x in row] for row in gate.mat], dtype=complex)


def apply_1q(psi: np.ndarray, q: int, u: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to axis q of a [2]*r amplitude tensor."""
    idx = _LETTERS[:psi.ndim]
    out = idx[:q] + "z" + idx[q + 1:]
    return np.einsum(f"z{idx[q]},{idx}->{out}", u, psi)


def apply_phase(psi: np.ndarray, qubits, eta: complex) -> np.ndarray:
    """Multiply the amplitudes with 1 on every qubit of the set by eta."""
    psi = psi.copy()
    sel = tuple(1 if q in qubits else slice(None) for q in range(psi.ndim))
    psi[sel] *= eta
    return psi


def simulate(circuit, amps) -> np.ndarray:
    """Final amplitudes (flat, complex) of a qaclab Circuit on ``amps``."""
    r = circuit.r
    psi = as_complex(amps).reshape([2] * r)
    for i in range(circuit.depth + 1):
        for q, g in circuit.single_layers[i].items():
            psi = apply_1q(psi, q, gate_matrix(g))
        if i < circuit.depth:
            for g in circuit.multi_layers[i]:
                eta = -1.0 if g.kind == "cz" else complex(g.eta_value)
                psi = apply_phase(psi, g.qubits, eta)
    return psi.reshape(-1)


def basis_amps(r: int, bits: str) -> np.ndarray:
    out = np.zeros(1 << r, dtype=complex)
    out[int(bits, 2) if bits else 0] = 1.0
    return out


def target_density(amps: np.ndarray) -> np.ndarray:
    a = amps.reshape(2, -1)
    return a @ a.conj().T


def check_simulation(state, circuit, initial_amps, exact: bool) -> str | None:
    if state.r != circuit.r:
        return f"register {state.r} != {circuit.r}"
    got = as_complex(state.amps)
    want = simulate(circuit, initial_amps)
    err = float(np.max(np.abs(got - want)))
    if not err <= ATOL:
        return f"amplitudes differ from the reference by {err:g}"
    if exact:
        if not state.is_exact:
            return "exact circuit on an exact input gave a float state"
        if not state.norm_sq() == 1:
            return f"exact norm_sq is {state.norm_sq()!r}, not exactly 1"
    return None


# ---- cuts and separability ---------------------------------------------------

def splitting_cuts(r: int, s):
    """Every unordered bipartition {A, B} of range(r) with both sides
    meeting s, A holding qubit 0."""
    s = frozenset(s)
    rest = list(range(1, r))
    for size in range(0, r - 1):
        for combo in itertools.combinations(rest, size):
            a = frozenset((0, *combo))
            b = frozenset(range(r)) - a
            if a & s and b & s:
                yield a, b


def cut_ratio(amps: np.ndarray, r: int, a, b) -> float:
    """Second over first singular value of the amplitudes across {A, B}."""
    a, b = sorted(a), sorted(b)
    mat = amps.reshape([2] * r).transpose(a + b).reshape(1 << len(a), 1 << len(b))
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[1] / s[0]) if len(s) > 1 else 0.0


def min_cut_ratio(amps: np.ndarray, r: int, s) -> float:
    """Smallest second/first singular-value ratio over every cut splitting
    s, with the SVDs batched by cut size."""
    by_size = {}
    for a, b in splitting_cuts(r, s):
        by_size.setdefault(len(a), []).append((sorted(a), sorted(b)))
    tensor_view = amps.reshape([2] * r)
    best = np.inf
    for size, cuts in by_size.items():
        for i in range(0, len(cuts), SVD_CHUNK):
            stack = np.stack([tensor_view.transpose(a + b).reshape(1 << size, -1)
                              for a, b in cuts[i:i + SVD_CHUNK]])
            sv = np.linalg.svd(stack, compute_uv=False)
            best = min(best, float(np.min(sv[:, 1] / sv[:, 0])))
    return best


def check_cut(flag, amps, r: int, a, b) -> str | None:
    """separates_at's flag at {A, B}: a rank-1 cut must separate, a cut
    entangled by a clear margin must not; between, either answer holds."""
    ratio = cut_ratio(as_complex(amps), r, a, b)
    if (ratio <= RANK1_RATIO and not flag) or (ratio > ENTANGLED_RATIO and flag):
        return f"separates_at {sorted(a)}|{sorted(b)} = {flag}, reference ratio {ratio:g}"
    return None


def check_separability(result, amps, r: int, s, product: bool) -> str | None:
    """``result`` is is_S_separable's (flag, witness).  A product state
    across a cut splitting s must be reported separable at a cut whose
    matrix has rank 1; a Haar-random state must be reported entangled,
    and the reference must find no rank-1 cut."""
    flag, witness = result
    amps = as_complex(amps)
    if product:
        if not flag:
            return "product state reported S-entangled"
        a, b = map(frozenset, witness)
        if a & b or (a | b) != frozenset(range(r)) or not (a & s and b & s):
            return f"witness {sorted(a)}|{sorted(b)} does not split S"
        ratio = cut_ratio(amps, r, a, b)
        if not ratio <= RANK1_RATIO:
            return f"witness cut has singular-value ratio {ratio:g}"
        return None
    ratio = min_cut_ratio(amps, r, s)
    if not ratio > ENTANGLED_RATIO:
        return f"reference found a near-rank-1 cut (ratio {ratio:g})"
    if flag:
        return f"entangled state reported separable at {witness}"
    return None


def classify(amps, r: int, s):
    """(kind, T) of a phase gate on s: disappears when the s-ones
    component vanishes, simplifies to s minus the qubits pinned to |1>
    when there are any, none otherwise."""
    t = as_complex(amps).reshape([2] * r)
    thr = ATOL * np.linalg.norm(t)
    ones = t[tuple(1 if q in s else slice(None) for q in range(r))]
    if np.linalg.norm(ones) <= thr:
        return "disappears", None
    pinned = {q for q in s if np.linalg.norm(np.take(t, 0, axis=q)) <= thr}
    if pinned:
        return "simplifies", frozenset(s) - pinned
    return "none", None


def check_classification(outcome, amps, r: int, s) -> str | None:
    kind, t = classify(amps, r, s)
    got_t = outcome.t if outcome.kind == "simplifies" else None
    if outcome.kind != kind or got_t != t:
        return f"classified {outcome!r}, reference {kind} {sorted(t or ())}"
    return None


def check_bridge(report, amps, r: int, a) -> str | None:
    """For the state/polynomial map, separability across the block split
    and a rank-1 coefficient split are the same fact."""
    separable = cut_ratio(as_complex(amps), r, a, set(range(r)) - set(a)) <= RANK1_RATIO
    if bool(report.separable) != separable or bool(report.poly_rank_le_1) != separable:
        return f"{report!r}, reference separable={separable}"
    return None


# ---- polynomials ---------------------------------------------------------------

def dense_coefficients(terms: dict, variables: list) -> np.ndarray:
    """Coefficient tensor of shape [2]*v, axis i for variables[i]."""
    pos = {v: i for i, v in enumerate(variables)}
    out = np.zeros([2] * len(variables), dtype=complex)
    for mono, c in terms.items():
        idx = [0] * len(variables)
        for v in mono:
            idx[pos[v]] = 1
        out[tuple(idx)] += complex(c)
    return out


def finest_partition(terms: dict) -> set:
    """Variable sets of the indecomposable factors, by brute force: two
    variables share a class iff no rank-1 split of the dense coefficient
    tensor separates them."""
    variables = sorted({v for mono in terms for v in mono})
    coeffs = dense_coefficients(terms, variables)
    n = len(variables)
    scale = float(np.max(np.abs(coeffs)))
    apart = set()
    for size in range(1, n):
        for combo in itertools.combinations(range(1, n), size - 1):
            a = [0, *combo]
            b = [i for i in range(n) if i not in a]
            mat = coeffs.transpose(a + b).reshape(1 << len(a), 1 << len(b))
            if np.linalg.matrix_rank(mat, tol=1e-9 * scale) <= 1:
                apart.update((min(i, j), max(i, j)) for i in a for j in b)
    classes = []
    for i in range(n):
        for cls in classes:
            if all((min(i, j), max(i, j)) not in apart for j in cls):
                cls.append(i)
                break
        else:
            classes.append([i])
    return {frozenset(variables[i] for i in cls) for cls in classes}


def min_split_residual(terms: dict) -> float:
    """How far the polynomial is from splitting anywhere: over every
    variable bipartition {A, B}, the distance of the coefficient matrix
    M (rows indexed by A, columns by B) from the rank-1 matrix C R / M[p]
    through its largest entry M[p] (C its column, R its row), relative to
    ||M||_F; the smallest of these.  It is 0 at a split of rank <= 1 and
    at least sigma_2 / ||M||_F otherwise, and with the largest entry as
    pivot at most 2 sqrt(mn) sigma_2 / ||M||_F.

    A 12-variable sweep is 2047 matrices of 4096 entries, too many for a
    check made in every run, but the polynomials have few terms.  With x
    a monomial's bit mask, ||M - C R / M[p]||^2 is the sum over the terms
    of |M[x] - C R / M[p]|^2 - |C R / M[p]|^2, plus ||C||^2 ||R||^2 / |M[p]|^2."""
    variables = sorted({v for mono in terms for v in mono})
    n = len(variables)
    dense = dense_coefficients(terms, variables).reshape(-1)
    support = np.flatnonzero(dense)
    t = dense[support]
    weight = np.abs(t) ** 2
    p = int(support[np.argmax(weight)])
    pivot = dense[p]
    # masks of A holding the first variable (the top bit): each split once
    masks = np.arange(1 << (n - 1), (1 << n) - 1)
    best = np.inf
    for i in range(0, len(masks), SVD_CHUNK):
        a = masks[i:i + SVD_CHUNK, None]
        b = ~a
        rank1 = dense[(support & a) | (p & b)] * dense[(support & b) | (p & a)] / pivot
        on_support = (np.abs(t - rank1) ** 2 - np.abs(rank1) ** 2).sum(axis=1)
        col_sq = (weight * ((support & b) == (p & b))).sum(axis=1)
        row_sq = (weight * ((support & a) == (p & a))).sum(axis=1)
        resid = on_support + col_sq * row_sq / abs(pivot) ** 2
        best = min(best, float(resid.min()))
    return float(np.sqrt(max(best, 0.0) / weight.sum()))


def check_partition(partition, product_terms: dict, factor_terms: list) -> str | None:
    """variable_partition on a product of variable-disjoint factors must
    give the generator's factor variable sets, each refined only where
    that factor itself splits (found by brute force)."""
    got = {frozenset(p) for p in partition}
    want = set()
    for terms in factor_terms:
        want |= finest_partition(terms)
    if got != want:
        return f"partition {sorted(map(sorted, got))} != {sorted(map(sorted, want))}"
    if finest_partition(product_terms) != want:
        return "brute-force partition of the product disagrees with its factors"
    return None


def check_family_root(spec, c: dict, d: dict, alpha, assignment: dict) -> str | None:
    """The compact two-block family P = T1*T2 - alpha*c1*d1*x1*z1 evaluated
    densely at the explicit assignment: P must vanish and every partial
    derivative must not (the assignment is a justifying root)."""
    k, m = spec.x[0], spec.z[0]
    ones_s, ones_u = "1" * k, "1" * m
    xs = sorted(c)
    zs = sorted(d)
    x = np.array([complex(assignment[("x", s)]) for s in xs])
    z = np.array([complex(assignment[("z", u)]) for u in zs])
    cv = np.array([complex(c[s]) for s in xs])
    dv = np.array([complex(d[u]) for u in zs])
    corr = complex(alpha) * complex(c[ones_s]) * complex(d[ones_u])
    t1, t2 = cv @ x, dv @ z
    x1, z1 = x[xs.index(ones_s)], z[zs.index(ones_u)]
    value = t1 * t2 - corr * x1 * z1
    scale = max(1.0, abs(t1 * t2), abs(corr * x1 * z1))
    if not abs(value) <= 1e-8 * scale:
        return f"P(a) = {value:.3g}, not a root"
    dx = cv * t2 - np.where(np.array(xs) == ones_s, corr * z1, 0)
    dz = dv * t1 - np.where(np.array(zs) == ones_u, corr * x1, 0)
    if not np.min(np.abs(np.concatenate([dx, dz]))) > 1e-9 * scale:
        return "a partial derivative vanishes: the root is not justifying"
    return None


# ---- parity states and reductions ---------------------------------------------------

def check_killer(amps, units, b: int) -> str | None:
    """A killer state is a unit vector of pure parity b with
    ``<1..1| U |psi> = 0`` for every unitary U."""
    psi = as_complex(amps)
    if not abs(np.linalg.norm(psi) - 1) <= ATOL:
        return "killer state is not unit norm"
    residual = max(abs(np.asarray(u, dtype=complex)[-1] @ psi) for u in units)
    if not residual <= ATOL:
        return f"killer state misses a constraint by {residual:g}"
    parity = np.array([bin(i).count("1") % 2 for i in range(len(psi))])
    off = float(np.linalg.norm(psi[parity != b]))
    if not off <= ATOL:
        return f"killer state has {off:g} weight of parity {1 - b}"
    return None


def check_reduction(reduced, circuit) -> str | None:
    """depth_reduce must drop one multiqubit layer and leave the target's
    final state unchanged on every classical input (ancillas |0>)."""
    if reduced.depth != circuit.depth - 1 or reduced.r != circuit.r:
        return f"depth {circuit.depth} reduced to {reduced.depth}"
    n, m = circuit.n_inputs, circuit.n_ancillas
    for bits in itertools.product("01", repeat=n):
        amps = basis_amps(circuit.r, "0" + "".join(bits) + "0" * m)
        gap = float(np.max(np.abs(target_density(simulate(circuit, amps))
                                  - target_density(simulate(reduced, amps)))))
        if not gap <= ATOL:
            return f"input {''.join(bits)}: target densities differ by {gap:g}"
    return None


# ---- certificates ----------------------------------------------------------------

def certificate_defect(kind, states, parities, flip_qubit, circuit,
                       ancilla=None) -> str | None:
    """None when the two states form a sound refutation of "the circuit
    computes parity", else the first failed precondition.

    Requires finite unit-norm states on the circuit's register, the
    target in |0>, each state a product of target+inputs and ancillas
    with the same ancilla factor in both (equal to ``ancilla`` when one
    is given), pure and distinct input parities (parity-mismatch) or a
    flip of one input qubit (target-independence), and equal final
    target densities under the reference simulation."""
    r, n = circuit.r, circuit.n_inputs
    if len(states) != 2:
        return "needs exactly two states"
    vecs = [as_complex(s) for s in states]
    if any(v.shape != (1 << r,) for v in vecs):
        return "state size does not match the circuit"
    if not all(np.all(np.isfinite(v)) for v in vecs):
        return "non-finite amplitude"
    if not all(abs(np.linalg.norm(v) - 1) <= ATOL for v in vecs):
        return "state is not unit norm"
    if any(np.linalg.norm(v.reshape(2, -1)[1]) > ATOL for v in vecs):
        return "target qubit is not |0>"
    m = circuit.n_ancillas
    if m:
        factors = []
        for v in vecs:
            u, s, vh = np.linalg.svd(v.reshape(1 << (1 + n), 1 << m))
            if len(s) > 1 and s[1] > ATOL:
                return "input and ancilla registers are entangled"
            factors.append(vh[0])
        if ancilla is not None:
            factors.append(as_complex(ancilla) / np.linalg.norm(as_complex(ancilla)))
        if any(abs(abs(np.vdot(factors[0], f)) - 1) > ATOL for f in factors[1:]):
            return "ancilla factors differ"
    if kind == "parity-mismatch":
        if parities is None or sorted(parities) != [0, 1]:
            return "parities must be 0 and 1"
        for v, b in zip(vecs, parities):
            t = v.reshape([2] * r)
            for bits in itertools.product((0, 1), repeat=n):
                if sum(bits) % 2 != b:
                    block = t[(0, *bits)]
                    if np.linalg.norm(block) > ATOL:
                        return f"input register is not pure parity {b}"
    elif kind == "target-independence":
        if flip_qubit not in range(1, 1 + n):
            return "flip qubit is not an input qubit"
        flipped = np.flip(vecs[0].reshape([2] * r), axis=flip_qubit).reshape(-1)
        if np.max(np.abs(flipped - vecs[1])) > ATOL:
            return "states do not differ by the flip"
    else:
        return f"unknown kind {kind!r}"
    rho = [target_density(simulate(circuit, v)) for v in vecs]
    gap = float(np.max(np.abs(rho[0] - rho[1])))
    if not gap <= ATOL:
        return f"final target densities differ by {gap:g}"
    return None


def check_certificate(cert, circuit, ancilla=None) -> str | None:
    if cert is None:
        return "no certificate"
    defect = certificate_defect(cert.kind, [s.amps for s in cert.states],
                                cert.parities, cert.flip_qubit, circuit, ancilla)
    return None if defect is None else f"unsound certificate: {defect}"


def check_verdict(result, cert, circuit) -> str | None:
    """verify_certificate's (ok, detail) must match the reference."""
    ok, detail = result
    defect = certificate_defect(cert.kind, [s.amps for s in cert.states],
                                cert.parities, cert.flip_qubit, circuit)
    if bool(ok) != (defect is None):
        return f"verifier said {bool(ok)} ({detail}); reference: {defect or 'sound'}"
    return None


def computes_parity(circuit, ancilla_amps=None) -> bool:
    """Whether every classical input ends with the target holding its
    parity, by reference simulation."""
    n, m = circuit.n_inputs, circuit.n_ancillas
    anc = basis_amps(m, "0" * m) if ancilla_amps is None else as_complex(ancilla_amps)
    for bits in itertools.product("01", repeat=n):
        front = basis_amps(1 + n, "0" + "".join(bits))
        final = simulate(circuit, np.kron(front, anc)).reshape(2, -1)
        wrong = final[1 - sum(map(int, bits)) % 2]
        if np.linalg.norm(wrong) > ATOL:
            return False
    return True


# ---- text outputs ------------------------------------------------------------------

def parse_amplitude_lines(lines, r: int) -> np.ndarray:
    """``bits re im`` lines (the state dump format) into a flat vector."""
    out = np.zeros(1 << r, dtype=complex)
    for line in lines:
        bits, re, im = line.split()
        if len(bits) != r:
            raise ValueError(f"bitstring {bits!r} is not {r} bits")
        out[int(bits, 2)] = complex(float(re), float(im))
    return out


def parse_certificate_text(text: str, r: int) -> dict:
    """The fields of a certificate document that the soundness check uses."""
    doc = {"kind": None, "qubits": None, "parities": None, "flip_qubit": None,
           "states": {}}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "kind":
            doc["kind"] = parts[1]
        elif parts[0] == "qubits":
            doc["qubits"] = int(parts[1])
        elif parts[0] == "parities":
            doc["parities"] = (int(parts[1]), int(parts[2]))
        elif parts[0] == "flip-qubit":
            doc["flip_qubit"] = int(parts[1])
        elif parts[0] == "state":
            doc["states"].setdefault(int(parts[1]), []).append(" ".join(parts[2:]))
    doc["states"] = [parse_amplitude_lines(doc["states"][i], r)
                     for i in sorted(doc["states"])]
    return doc
