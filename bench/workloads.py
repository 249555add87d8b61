"""The benchmark's three workloads as seeded lists of operations.

Each operation is a zero-argument call into qaclab's public API plus a
check of its output against ``reference``.  Calls look functions up on
their module at call time, so the tracer's patched bindings are the
ones that run.

Suite instances are picked by size: the benchmark replays the draws a
suite makes from its per-instance generator (seeded by
``(seed, crc32(suite), instance)`` as ``qaclab.harness`` documents) and
takes a fixed number of instances per size (per step of a cost ladder
for ``sv-vs-rank``).  Every seed then gives the same mix of sizes, so
the seed changes the inputs but not the amount of work.  Generated
circuits and states have fixed sizes and gate counts for the same
reason.
"""
from __future__ import annotations

import io
import math
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
import suites
from qaclab import bridge, circuit, circuit_io, cli, family, harness
from qaclab import multilinear as ml
from qaclab import parity, qstate
from qaclab.numerics import make_rng, random_unitary

WORKLOADS = ("family-irreducible", "exact-backend", "float-states")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    known_fault: bool = False  # fails today because of a named program fault
    record: tuple = ()  # functions whose calls the check reads (suites.RECORDED)


def checked_call(op: Op):
    """Call ``op`` once and return what its check takes: the output, or
    (output, recorded calls) for an operation that records calls."""
    if not op.record:
        return op.call()
    with suites.recording(op.record) as calls:
        out = op.call()
    return out, calls


# ---- suite instances ------------------------------------------------------------

def _suite_rng(suite: str, seed: int, k: int) -> np.random.Generator:
    return make_rng(seed, zlib.crc32(suite.encode()), k)


def _pick(suite, seed, key, quotas, candidates):
    """Instances from ``candidates`` filling ``quotas`` {stratum: count},
    in index order; ``key(k, rng)`` gives instance k's stratum."""
    left = dict(quotas)
    picked = []
    for k in candidates:
        stratum = key(k, _suite_rng(suite, seed, k))
        if left.get(stratum, 0) > 0:
            left[stratum] -= 1
            picked.append(k)
            if not any(left.values()):
                return picked
    raise RuntimeError(f"{suite}: strata {left} not filled within "
                       f"{len(candidates)} instances")


def _suite_op(cfg, k, extra_check=None) -> Op:
    def check(result):
        rep, calls = result
        return (suites.check(cfg.suite, k, rep, calls)
                or (extra_check(rep) if extra_check else None))
    return Op(f"{cfg.suite}#{k}",
              lambda: harness.run_suite(cfg.suite, cfg, only_instance=k), check,
              record=suites.RECORDED[cfg.suite])


def _suite_ops(suite, seed, key, quotas, **overrides) -> list[Op]:
    cfg = harness.default_config(suite, seed=seed, **overrides)
    ks = _pick(suite, seed, key, quotas, range(cfg.trials))
    return [_suite_op(cfg, k) for k in ks]


def _first_draw(lo):
    """Size of suites whose first draw is r = integers(lo, 7), with the
    default max_qubits of 6."""
    return lambda k, rng: int(rng.integers(lo, 7))


# ---- family-irreducible ------------------------------------------------------------

# {shape: {variable count: instances}}; the 12-variable instances, with
# their 2^11 split sweep, make up the tail.
FAMILY_QUOTAS = {
    "two-block-compact": {4: 4, 6: 6, 8: 5},
    "three-block-compact": {6: 3, 8: 4, 10: 5, 12: 3},
    "four-block-compact": {8: 3, 10: 5, 12: 7},
    "two-block-split": {6: 3, 8: 4, 10: 3, 12: 5},
    "three-block-split": {8: 3, 10: 5, 12: 7},
    "four-block-split": {10: 4, 12: 11},
}


def _root_check(spec, c, d, alpha):
    def check(rep):
        assignment, _, _ = family.two_block_zero_assignment(spec, c, d, alpha)
        return ref.check_family_root(spec, c, d, alpha, assignment)
    return check


def _family_ops(seed: int, workdir: Path) -> list[Op]:
    suite = "irreducibility-family"
    cfg = harness.default_config(suite, seed=seed)
    ops, controls = [], []
    for si, shape in enumerate(family.FAMILY_SHAPES):
        left = dict(FAMILY_QUOTAS[shape])
        for j in range(cfg.trials):
            k = si * cfg.trials + j
            spec, c, d, alpha = family.random_family_instance(
                shape, _suite_rng(suite, seed, k), max_vars=12)
            v = spec.n_variables_upper()
            if left.get(v, 0) == 0:
                continue
            if left[v] == FAMILY_QUOTAS[shape][v]:
                controls.append((f"control:{shape}:v{v}",
                                 family.build_t1(spec, c) * family.build_t2(spec, d)))
            left[v] -= 1
            ops.append(_suite_op(cfg, k, _root_check(spec, c, d, alpha)
                                 if shape == "two-block-compact" else None))
            if not any(left.values()):
                break
        else:
            raise RuntimeError(f"{shape}: strata {left} not filled")
    tol = cfg.tol
    for name, f in controls:
        ops.append(Op(name, lambda f=f: ml.indecomposable_at_every_split(f, tol),
                      lambda out: None if out is False
                      else "T1*T2 reported indecomposable"))
    return ops


# ---- exact-backend ---------------------------------------------------------------------

def _sv_costs(seed: int, trials: int):
    """(k, kind, log2 of 2^variables * terms) for each sv-vs-rank instance.

    Replays the suite's draws for instance k with the public generators.
    The suite tests the restriction identity on every subset of the
    variables, so 2^v * terms predicts an instance's time closely (log
    residual ~0.12 over 120 instances); picking instances by it gives
    every seed the same cost profile."""
    for k in range(trials):
        rng = _suite_rng("sv-vs-rank", seed, k)
        if k % 2 == 0:
            n_vars = int(rng.integers(3, 9))
            f = ml.random_multilinear_poly(rng, n_vars, n_vars + 2, True)
        else:
            n_factors = 2 if rng.random() < 0.7 else 3
            per = 2 if n_factors == 3 else int(rng.integers(2, 4))
            f, _ = ml.random_disjoint_product(rng, n_factors, per, True)
        yield k, "random" if k % 2 == 0 else "product", \
            len(f.variables()) + math.log2(len(f.terms))


# log2 cost targets per kind: quarter octaves from 5 (~1.5 ms) to 10
# (~50 ms), eighths around the median and the 90th percentile of the
# workload so that those percentiles fall among many close costs.  The
# top is 10, so eight-variable polynomials (~0.2 s) stay out: operations
# that fit many times into a run measure steadier.
SV_LADDER = sorted({*np.arange(5, 10.01, 0.25), *np.arange(5.5, 7.51, 0.125),
                    *np.arange(9, 10.01, 0.125)})


def _sv_ops(seed: int) -> list[Op]:
    cfg = harness.default_config("sv-vs-rank", seed=seed)
    pool = list(_sv_costs(seed, cfg.trials))
    picked = []
    for kind in ("random", "product"):
        for target in SV_LADDER:
            best = min((c for c in pool if c[1] == kind),
                       key=lambda c: (abs(c[2] - target), c[0]))
            pool.remove(best)
            picked.append(best[0])
    return [_suite_op(cfg, k) for k in sorted(picked)]


def _cz_layer(rng, qubits, size=None) -> list:
    """Disjoint CZ gates on a random grouping of the qubits, of the given
    size or of random sizes 2 to 4."""
    pool = [int(q) for q in rng.permutation(list(qubits))]
    gates = []
    while len(pool) >= (size or 2):
        k = size or int(rng.integers(2, min(4, len(pool)) + 1))
        gates.append(circuit.cz(*pool[:k]))
        pool = pool[k:]
    return gates


def exact_circuit(rng, r: int, with_pauli: bool) -> circuit.Circuit:
    """Depth-2 circuit of CZ pairs with an H on a different qubit in each
    1-qubit layer, plus X, Y and Z (one per layer, on other qubits)
    ``with_pauli``.  The gate counts are fixed and three H gates on
    distinct qubits leave exactly 8 nonzero amplitudes, so the cost
    depends on r only."""
    h_qubits = [int(q) for q in rng.choice(r, size=3, replace=False)]
    singles = []
    for hq, pauli in zip(h_qubits, "XYZ"):
        layer = {hq: circuit.GATE_H}
        if with_pauli:
            layer[int(rng.choice([q for q in range(r) if q != hq]))] = \
                circuit.Gate1q.named(pauli)
        singles.append(layer)
    return circuit.Circuit(r, r - 1, 0, singles,
                           [_cz_layer(rng, range(r), 2), _cz_layer(rng, range(r), 2)])


def _bits(rng, r: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=r))


def _simulate_op(name, c, initial, exact) -> Op:
    init_amps = ref.as_complex(initial.amps)
    return Op(name, lambda: circuit.simulate(c, initial),
              lambda out: ref.check_simulation(out, c, init_amps, exact))


def _r_and_s(k, rng):
    """entanglement-lemma's first two draws, r and |S|, which set an
    instance's cost."""
    r = int(rng.integers(2, 7))
    return r, int(rng.integers(2, r + 1))


ENT_EXACT_QUOTAS = {(2, 2): 6, (3, 2): 4, (3, 3): 4, (4, 2): 3, (4, 3): 3, (4, 4): 3,
                    (5, 2): 2, (5, 3): 2, (5, 4): 2, (5, 5): 2}


def _exact_ops(seed: int, workdir: Path) -> list[Op]:
    ops = _sv_ops(seed)
    ops += _suite_ops("entanglement-lemma", seed, _r_and_s, ENT_EXACT_QUOTAS,
                      backend="exact")
    cfg = harness.default_config("tight-parity3", seed=seed)
    ops += [_suite_op(cfg, idx) for idx in range(16)]
    rng = make_rng(seed, zlib.crc32(b"bench:exact-simulate"))
    for r in (6, 6, 7, 7, 8, 8, 9, 10):
        c = exact_circuit(rng, r, with_pauli=r <= 8)
        initial = qstate.basis_state(r, _bits(rng, r))
        ops.append(_simulate_op(f"simulate:exact:r{r}", c, initial, True))
    rng = make_rng(seed, zlib.crc32(b"bench:partition"))
    tol = harness.default_config("sv-vs-rank").tol
    for n_factors, per in [(2, 2), (2, 3), (3, 2), (3, 3)] * 5:
        # redrawn until every variable occurs, so the cost is set by the size
        f, factors = ml.random_disjoint_product(rng, n_factors, per, exact=True)
        while len(f.variables()) < n_factors * per:
            f, factors = ml.random_disjoint_product(rng, n_factors, per, exact=True)
        ops.append(Op(f"variable_partition:{n_factors}x{per}",
                      lambda f=f: ml.variable_partition(f, tol),
                      lambda out, f=f, factors=factors: ref.check_partition(
                          out, f.terms, [g.terms for g in factors])))
    return ops


# ---- float-states -------------------------------------------------------------------------

def float_circuit(rng, r: int, n_inputs: int, multi_layers):
    """Random-unitary dressing on every qubit around the given multiqubit
    layers."""
    singles = [{q: circuit.Gate1q(random_unitary(2, rng)) for q in range(r)}
               for _ in range(len(multi_layers) + 1)]
    return circuit.Circuit(r, n_inputs, r - 1 - n_inputs, singles, multi_layers)


def depth1_circuit(rng, n: int, m: int, detached: bool):
    """Depth-1 circuit; with ``detached`` the last input shares no gate
    with the target, otherwise the target's gate covers every input."""
    r = 1 + n + m
    inputs = list(range(1, 1 + n))
    ancillas = list(range(1 + n, r))
    group = [0] + (inputs[:-1] if detached else inputs) + ancillas[:1]
    rest = [q for q in range(r) if q not in group]
    return float_circuit(rng, r, n, [[circuit.cz(*group)] + _cz_layer(rng, rest)])


def random_amps(rng, r: int) -> np.ndarray:
    z = rng.standard_normal(1 << r) + 1j * rng.standard_normal(1 << r)
    return z / np.linalg.norm(z)


def flip_certificate(c, ancilla_amps) -> parity.RefutationCertificate:
    """Target-independence certificate built apart from the refuter: the
    last input is detached from the target's gate, so flipping it cannot
    change the final target state."""
    n = c.n_inputs
    front = [ref.basis_amps(1 + n, "0" * (1 + n)),
             ref.basis_amps(1 + n, "0" * n + "1")]
    states = [np.kron(f, ancilla_amps) for f in front]
    return parity.RefutationCertificate(
        kind="target-independence",
        states=[qstate.StateVector(c.r, s) for s in states],
        final_targets=[ref.target_density(ref.simulate(c, s)) for s in states],
        flip_qubit=n, note="last input detached from the target's gate")


def _format_cert(cert) -> str:
    lines = [f"kind {cert.kind}", f"note {cert.note}", f"qubits {cert.states[0].r}",
             f"flip-qubit {cert.flip_qubit}"]
    for idx, st in enumerate(cert.states):
        for i, a in enumerate(st.amps):
            if a != 0:
                lines.append(f"state {idx} {i:0{st.r}b} {float(a.real)!r} {float(a.imag)!r}")
    for idx, rho in enumerate(cert.final_targets):
        nums = " ".join(f"{float(v)!r}" for e in rho.reshape(-1) for v in (e.real, e.imag))
        lines.append(f"target {idx} {nums}")
    return "\n".join(lines) + "\n"


def _format_amps(amps, r) -> str:
    return "".join(f"{i:0{r}b} {float(a.real)!r} {float(a.imag)!r}\n"
                   for i, a in enumerate(amps) if a != 0)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_cli_simulate(c, bits):
    want = ref.simulate(c, ref.basis_amps(c.r, bits))

    def check(result):
        code, out, err = result
        if code != 0 or "# final state\n" not in out:
            return f"exit {code}: {err.strip()}"
        lines = out.split("# final state\n")[1].splitlines()
        got = ref.parse_amplitude_lines(lines, c.r)
        if not np.max(np.abs(got - want)) <= ref.ATOL:
            return "printed state differs from the reference"
        return None
    return check


def _check_cli_parity(c, ancilla_amps):
    yes = ref.computes_parity(c, ancilla_amps)

    def check(result):
        code, out, err = result
        expected = (0, "computes-parity: yes") if yes else (1, "computes-parity: no")
        if code != expected[0] or not out.startswith(expected[1]):
            return f"exit {code} {out.strip()!r}, expected {expected}"
        return None
    return check


def _check_cli_refute(c, ancilla_amps):
    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        doc = ref.parse_certificate_text(out, c.r)
        if doc["qubits"] != c.r:
            return f"certificate declares {doc['qubits']} qubits, circuit has {c.r}"
        defect = ref.certificate_defect(doc["kind"], doc["states"], doc["parities"],
                                        doc["flip_qubit"], c, ancilla_amps)
        return None if defect is None else f"unsound certificate: {defect}"
    return check


def _check_cli_verify(expected_ok):
    def check(result):
        code, out, err = result
        want = (0, "certificate: valid") if expected_ok else (1, "certificate: INVALID")
        if code != want[0] or not out.startswith(want[1]):
            return f"exit {code} {out.strip()!r}, expected {want}"
        return None
    return check


def _cli_ops(rng, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    p3 = circuit.parity3_circuit()
    p3_path = workdir / "parity3.qac"
    p3_path.write_text(circuit_io.serialize_circuit(p3))
    bits = "0" + _bits(rng, 3)
    ops.append(Op("cli:simulate:parity3",
                  lambda b=bits: run_cli(["simulate", "-c", str(p3_path), "-i", b]),
                  _check_cli_simulate(p3, bits)))
    ops.append(Op("cli:check-parity:parity3",
                  lambda: run_cli(["check-parity", "-c", str(p3_path)]),
                  _check_cli_parity(p3, None)))
    for i, (n, m) in enumerate([(2, 1), (3, 1), (3, 2)]):
        c = depth1_circuit(rng, n, m, detached=True)
        anc = random_amps(rng, m)
        cpath, apath, certpath = (workdir / f"d1_{i}.qac", workdir / f"anc_{i}.state",
                                  workdir / f"cert_{i}.txt")
        cpath.write_text(circuit_io.serialize_circuit(c))
        apath.write_text(_format_amps(anc, m))
        cert = flip_certificate(c, anc)
        certpath.write_text(_format_cert(cert))
        sound = ref.check_certificate(cert, c, anc) is None
        bits = "0" + _bits(rng, n + m)
        ops += [
            Op(f"cli:simulate:d1_{i}",
               lambda p=cpath, b=bits: run_cli(["simulate", "-c", str(p), "-i", b]),
               _check_cli_simulate(c, bits)),
            Op(f"cli:check-parity:d1_{i}",
               lambda p=cpath, a=apath: run_cli(["check-parity", "-c", str(p),
                                                 "--ancilla", str(a)]),
               _check_cli_parity(c, anc)),
            Op(f"cli:refute:d1_{i}",
               lambda p=cpath, a=apath: run_cli(["refute", "-c", str(p),
                                                 "--ancilla", str(a)]),
               _check_cli_refute(c, anc)),
            Op(f"cli:verify-cert:d1_{i}",
               lambda p=cpath, q=certpath: run_cli(["verify-cert", "-c", str(p),
                                                    "--cert", str(q)]),
               _check_cli_verify(sound)),
        ]
    return ops


def _io_ops(rng) -> list[Op]:
    ops = []
    for i, c in enumerate([depth1_circuit(rng, 3, 2, detached=False),
                           exact_circuit(rng, 6, with_pauli=True)]):
        text = circuit_io.serialize_circuit(c)
        bits = _bits(rng, c.r)
        want = ref.simulate(c, ref.basis_amps(c.r, bits))

        def same_circuit(parsed, bits=bits, want=want):
            got = ref.simulate(parsed, ref.basis_amps(parsed.r, bits))
            if parsed.r != len(bits) or not np.max(np.abs(got - want)) <= ref.ATOL:
                return "round trip changed the circuit"
            return None
        ops.append(Op(f"parse_circuit:{i}", lambda t=text: circuit_io.parse_circuit(t),
                      same_circuit))
        ops.append(Op(f"serialize_circuit:{i}",
                      lambda c=c: circuit_io.serialize_circuit(c),
                      lambda out, same=same_circuit: same(circuit_io.parse_circuit(out))))
    return ops


def forged_certificates() -> list[parity.RefutationCertificate]:
    """Four documents that are not refutations of parity3_circuit (which
    computes parity), yet pass verify_certificate's checks today."""
    def sv(amps):
        return qstate.StateVector(4, np.asarray(amps, dtype=complex))

    def basis(bits):
        return sv(ref.basis_amps(4, bits))
    plus = np.kron(np.array([1, 1]) / np.sqrt(2), ref.basis_amps(3, "000"))
    plus_flipped = np.kron(np.array([1, 1]) / np.sqrt(2), ref.basis_amps(3, "100"))
    mk = parity.RefutationCertificate
    return [
        mk("parity-mismatch", [sv(np.full(16, np.nan)), sv(np.full(16, np.nan))],
           [None, None], parities=(0, 1), note="all-NaN amplitudes"),
        mk("parity-mismatch", [sv(np.zeros(16)), sv(np.zeros(16))],
           [None, None], parities=(0, 1), note="all-zero amplitudes"),
        mk("parity-mismatch", [basis("0000"), basis("1001")],
           [None, None], parities=(0, 1), note="target starts in |1>"),
        mk("target-independence", [sv(plus), sv(plus_flipped)],
           [None, None], flip_qubit=1, note="target in |+> on both sides"),
    ]


def _wide_ops(rng) -> list[Op]:
    """Operations on r = 8 to 12 qubits.  There are more of them than a
    tenth of the workload, so op_p90_ms falls among these fixed-size
    operations rather than at a seed-dependent edge of the small ones."""
    ops = []
    for r in (10, 10, 10, 10, 10, 11, 11, 12):
        c = float_circuit(rng, r, r - 1, [_cz_layer(rng, range(r)), _cz_layer(rng, range(r))])
        initial = qstate.basis_state(r, _bits(rng, r)).to_float()
        ops.append(_simulate_op(f"simulate:float:r{r}", c, initial, False))
    # is_S_separable: Haar-random states (entangled) and products across a
    # known cut meeting S on both sides (separable)
    for r, s_size, product in ((9, 9, False), (9, 3, False), (10, 2, False),
                               (9, 9, True), (9, 4, True)):
        s = frozenset(int(q) for q in rng.choice(r, size=s_size, replace=False))
        if product:
            a0, b0 = (int(q) for q in rng.choice(sorted(s), size=2, replace=False))
            others = [q for q in range(r) if q not in (a0, b0)]
            a = {a0} | {int(q) for q in rng.choice(others, size=r // 2 - 1,
                                                   replace=False)}
            psi = qstate.tensor(qstate.random_state(len(a), rng),
                                qstate.random_state(r - len(a), rng), placement=a)
        else:
            psi = qstate.StateVector(r, random_amps(rng, r))
        ops.append(Op(f"is_S_separable:r{r}:{'product' if product else 'haar'}",
                      lambda psi=psi, s=s: qstate.is_S_separable(psi, s),
                      lambda out, psi=psi, r=r, s=s, p=product:
                      ref.check_separability(out, psi.amps, r, s, p)))
    # classify_simplification: a gate that disappears, one that shrinks
    # onto unpinned qubits, and one that does not simplify
    for r, case in ((9, "none"), (10, "pinned"), (11, "avoid"), (12, "none"),
                    (12, "pinned")):
        s = frozenset(int(q) for q in rng.choice(r, size=4, replace=False))
        t = random_amps(rng, r).reshape([2] * r)
        if case == "pinned":
            for q in sorted(s)[:2]:
                t[tuple(0 if p == q else slice(None) for p in range(r))] = 0
        elif case == "avoid":
            t[tuple(1 if p in s else slice(None) for p in range(r))] = 0
        psi = qstate.StateVector(r, t.reshape(-1) / np.linalg.norm(t))
        ops.append(Op(f"classify_simplification:r{r}:{case}",
                      lambda psi=psi, s=s: circuit.classify_simplification(s, psi),
                      lambda out, psi=psi, r=r, s=s:
                      ref.check_classification(out, psi.amps, r, s)))
    # the state/polynomial bridge across a block split
    for r, product in ((10, False), (10, True), (11, False), (11, True),
                       (12, False), (12, True)):
        half = r // 2
        bp = bridge.block_partition(("x", tuple(range(half))),
                                    ("z", tuple(range(half, r))))
        amps = (np.kron(random_amps(rng, half), random_amps(rng, r - half))
                if product else random_amps(rng, r))
        psi = qstate.StateVector(r, amps)
        ops.append(Op(f"bridge:r{r}:{'product' if product else 'haar'}",
                      lambda psi=psi, bp=bp: bridge.separability_decomposability_check(
                          psi, bp, ["x"]),
                      lambda out, amps=amps, r=r, half=half:
                      ref.check_bridge(out, amps, r, set(range(half)))))
    # depth-1 refutation with ancillas, and verification of certificates
    # built apart from the refuter
    for n, m in ((3, 4), (3, 5), (3, 5), (3, 5), (3, 6)):
        c = depth1_circuit(rng, n, m, detached=False)
        anc = qstate.StateVector(m, random_amps(rng, m))
        ops.append(Op(f"refute_depth1:r{c.r}",
                      lambda c=c, anc=anc: parity.refute_depth1(c, anc),
                      lambda out, c=c, anc=anc: ref.check_certificate(out, c, anc.amps)))
        c2 = depth1_circuit(rng, n, m, detached=True)
        cert = flip_certificate(c2, random_amps(rng, m))
        ops.append(Op(f"verify_certificate:r{c2.r}",
                      lambda c=c2, cert=cert: parity.verify_certificate(cert, c),
                      lambda out, c=c2, cert=cert: ref.check_verdict(out, cert, c)))
    return ops


def _float_ops(seed: int, workdir: Path) -> list[Op]:
    ops = _suite_ops("entanglement-lemma", seed, _first_draw(2),
                     {r: 5 for r in range(2, 7)})
    ops += _suite_ops("simplify-lemma", seed, _first_draw(3),
                      {r: 6 for r in range(3, 7)})
    ops += _suite_ops("no-zero-divisors", seed, _first_draw(2),
                      {r: 5 for r in range(2, 7)})
    ops += _suite_ops("kill-parity", seed, lambda k, rng: int(rng.integers(2, 6)),
                      {r: 6 for r in range(2, 6)})
    ops += _suite_ops("depth1-refute", seed,
                      lambda k, rng: (int(rng.integers(2, 4)), int(rng.integers(0, 3))),
                      {(n, m): 3 for n in (2, 3) for m in (0, 1, 2)})
    ops += _suite_ops("depth-reduce", seed,
                      lambda k, rng: (k % 2, int(rng.integers(1, 4)) + int(rng.integers(0, 3))),
                      {(p, nm): 2 for p in (0, 1) for nm in range(1, 6)}, trials=200)
    ops += _suite_ops("topology-6qubit", seed, lambda k, rng: 0, {0: 14})
    rng = make_rng(seed, zlib.crc32(b"bench:float-states"))
    ops += _cli_ops(rng, workdir)
    ops += _io_ops(rng)
    p3 = circuit.parity3_circuit()
    for cert in forged_certificates():
        ops.append(Op(f"verify_certificate:forged:{cert.note}",
                      lambda cert=cert: parity.verify_certificate(cert, p3),
                      lambda out, cert=cert: ref.check_verdict(out, cert, p3),
                      known_fault=True))
    ops += _wide_ops(rng)
    return ops


_BUILDERS = {
    "family-irreducible": _family_ops,
    "exact-backend": _exact_ops,
    "float-states": _float_ops,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operation list of a workload; the same seed gives the same list."""
    return _BUILDERS[workload](seed, workdir)
