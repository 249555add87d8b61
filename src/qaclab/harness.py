"""Seeded verification suites with deterministic, replayable reports.

A suite is a generator ``_suite_x(cfg, k)`` over one instance k: it
draws the instance from its own generator, seeded by
``(seed, crc32(suite), k)``, and yields that instance's violation
messages without a prefix.  ``run_suite`` owns the rest: the instance
count (``trials``, except 16 basis inputs for tight-parity3 and
``trials`` per shape for irreducibility-family), the selection of one
instance (``only_instance``, CLI ``--instance``), the ``instance=k``
prefix of each message and the report's instance count.  So a report is
a pure function of (suite, config), and any recorded violation can be
replayed on its own.  A config names only a backend its suite runs
(``_BACKENDS``), so a report never says exact for float work.

Machine-format reports are line-oriented ``key=value`` text with a fixed
field order and no timing information, so identical configurations
produce byte-identical documents; wall time appears only in the text
format.
"""
from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import family as fam
from . import multilinear as ml
from .circuit import (
    GATE_H,
    Circuit,
    Gate1q,
    apply_multi,
    classify_simplification,
    cz,
    depth_reduce,
    geta,
    parity3_cnot_reference,
    parity3_circuit,
    simulate,
    simulate_all,
)
from .numerics import Exact, Tolerance, make_rng, random_unitary, to_float
from .parity import (
    KillParityError,
    kill_parity_state,
    refute_depth1,
    subset_parity_mass,
    verify_certificate,
)
from .qstate import (
    basis_state,
    bipartitions,
    is_S_separable,
    ones_projection_norm,
    random_exact_state,
    random_state,
    remove_ones_component,
    separates_at,
    target_density,
    tensor,
)
from .textio import ParseError

#: The explicit root assignment of ``irreducibility-family`` must make
#: |P(a)| at most this.
_ROOT_RESIDUAL = 1e-8

#: A ``kill-parity`` state must leave every killed row, and the parity it
#: must avoid, at most this in absolute value (rows) and norm (parity).
_KILL_RESIDUAL = 1e-10

#: ``depth-reduce`` compares the target densities of the full and the
#: reduced circuit entrywise against this.
_TARGET_DEVIATION = 1e-10


class SuiteConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    trials: int
    max_qubits: int
    seed: int = 0
    abs_eps: float = 1e-10
    rel_eps: float = 1e-9
    backend: str = "float"

    def __post_init__(self):
        if self.trials < 1:
            raise SuiteConfigError("trials must be >= 1")
        if self.seed < 0:
            raise SuiteConfigError("seed must be >= 0")
        low = _MIN_QUBITS.get(self.suite, 1)
        if not low <= self.max_qubits <= 12:
            raise SuiteConfigError(f"suite {self.suite} takes max_qubits "
                                   f"within {low}..12")
        backends = _BACKENDS.get(self.suite, ("float",))
        if self.backend not in backends:
            raise SuiteConfigError(f"suite {self.suite} takes backend "
                                   f"{' or '.join(backends)}, not {self.backend!r}")

    @cached_property
    def tol(self) -> Tolerance:
        return Tolerance(self.abs_eps, self.rel_eps)


#: The backends a suite has a route for: tight-parity3 checks exact
#: amplitudes only, and the suites not named here run floats only.
_BACKENDS = {"tight-parity3": ("exact",),
             "entanglement-lemma": ("float", "exact"),
             "sv-vs-rank": ("float", "exact")}

#: The smallest register a suite draws, where it is more than one qubit.
_MIN_QUBITS = {"sv-vs-rank": 3, "simplify-lemma": 3, "entanglement-lemma": 2,
               "kill-parity": 2, "no-zero-divisors": 2}

_DEFAULTS = {
    "tight-parity3": dict(trials=1, max_qubits=4, backend="exact"),
    "entanglement-lemma": dict(trials=1000, max_qubits=6,
                               abs_eps=1e-8, rel_eps=1e-8),
    "simplify-lemma": dict(trials=500, max_qubits=6, abs_eps=1e-8, rel_eps=1e-8),
    "no-zero-divisors": dict(trials=500, max_qubits=6, abs_eps=1e-8, rel_eps=1e-8),
    "irreducibility-family": dict(trials=200, max_qubits=12,
                                  abs_eps=1e-10, rel_eps=1e-9),
    "sv-vs-rank": dict(trials=500, max_qubits=8, backend="exact"),
    "kill-parity": dict(trials=500, max_qubits=5, abs_eps=1e-10, rel_eps=0.0),
    "depth1-refute": dict(trials=100, max_qubits=6, abs_eps=1e-9, rel_eps=1e-9),
    "depth-reduce": dict(trials=50, max_qubits=6, abs_eps=1e-10, rel_eps=0.0),
    "topology-6qubit": dict(trials=200, max_qubits=6, abs_eps=1e-8, rel_eps=1e-8),
}


def default_config(suite: str, **overrides) -> SuiteConfig:
    if suite not in _DEFAULTS:
        raise SuiteConfigError(f"unknown suite {suite!r}")
    kwargs = dict(_DEFAULTS[suite])
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return SuiteConfig(suite=suite, **kwargs)


@dataclass
class SuiteReport:
    suite: str
    trials: int
    max_qubits: int
    seed: int
    abs_eps: float
    rel_eps: float
    backend: str
    instances: int
    violations: list
    wall_time: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return not self.violations


def _rng(cfg: SuiteConfig, instance: int, sub: int = 0) -> np.random.Generator:
    return make_rng(cfg.seed, zlib.crc32(cfg.suite.encode()), instance, sub)


# ---- individual suites ------------------------------------------------------


def _suite_tight_parity3(cfg, k):
    """The 4-qubit depth-2 circuit computes 3-input parity exactly and
    matches its CNOT form on basis input k."""
    bits = format(k, "04b")
    initial = basis_state(4, bits)
    final = simulate(parity3_circuit(), initial)
    want_target = (bits.count("1") % 2)
    for i in np.flatnonzero(final.support()):
        if (i >> 3) != want_target:
            yield f"input={bits} target residual at {i:04b}"
            break
    if not final.approx_equal(parity3_cnot_reference(initial)):
        yield f"input={bits} differs from the CNOT form"


def _random_split_meeting(rng, r, s):
    """Random bipartition {A, B} with both sides meeting s."""
    while True:
        a = frozenset(q for q in range(r) if rng.random() < 0.5)
        b = frozenset(range(r)) - a
        if a and b and (a & s) and (b & s):
            return a, b


#: The exact backend's phases for instances k % 4 = 1, 2, 3: i, -i, (1+i)/sqrt2.
_EXACT_ETAS = (Exact.I, -Exact.I, Exact(0, Fraction(1, 2), 0, Fraction(1, 2)))


def _suite_entanglement(cfg, k):
    """A phase gate on S applied to an S-separable product state either
    simplifies or leaves the result S-entangled."""
    rng = _rng(cfg, k)
    r = int(rng.integers(2, cfg.max_qubits + 1))
    s_size = int(rng.integers(2, r + 1))
    s = frozenset(map(int, rng.choice(r, size=s_size, replace=False)))
    a, b = _random_split_meeting(rng, r, s)
    if cfg.backend == "exact":
        psi = tensor(random_exact_state(len(a), rng),
                     random_exact_state(len(b), rng), placement=a)
        etas = _EXACT_ETAS
    else:
        psi = tensor(random_state(len(a), rng),
                     random_state(len(b), rng), placement=a)
        eta_rng = _rng(cfg, 10**6)
        etas = [complex(np.exp(2j * np.pi * eta_rng.random())) for _ in range(3)]
    gate = cz(*s) if k % 4 == 0 else geta(etas[k % 4 - 1], *s)
    outcome = classify_simplification(s, psi, cfg.tol)
    if outcome.kind != "none":
        return
    phi = apply_multi(psi, gate)
    separable, witness = is_S_separable(phi, s, cfg.tol)
    if separable:
        yield (f"r={r} S={sorted(s)} split={sorted(a)} "
               f"gate={gate!r}: unsimplified gate left a separable state "
               f"at {tuple(sorted(witness[0]))}")


def _local_positions(group, qubits):
    group = sorted(group)
    return [group.index(q) for q in sorted(qubits)]


def _random_factor_avoiding_ones(rng, size, ones_local):
    """Random state on `size` qubits with no component carrying all ones
    at the given local positions."""
    psi = random_state(size, rng)
    return remove_ones_component(psi, ones_local)


def _random_factor_pinned(rng, size, pinned_local):
    """Random state with the given local positions pinned to |1>."""
    free = size - len(pinned_local)
    base = random_state(free, rng) if free else basis_state(0, 0, exact=False)
    ones = basis_state(len(pinned_local), "1" * len(pinned_local), exact=False)
    return tensor(ones, base, placement=pinned_local)


def _suite_simplify(cfg, k):
    """Whenever the gate's output separates somewhere, the gate either
    disappears or acts as a gate confined to one side of the input or
    output split."""
    rng = _rng(cfg, k)
    r = int(rng.integers(3, cfg.max_qubits + 1))
    s_size = int(rng.integers(2, r + 1))
    s = frozenset(map(int, rng.choice(r, size=s_size, replace=False)))
    a = frozenset(q for q in range(r) if rng.random() < 0.5)
    while not a or len(a) == r:
        a = frozenset(q for q in range(r) if rng.random() < 0.5)
    b = frozenset(range(r)) - a
    case = k % 3
    if case == 0:
        # force disappearance from one side
        side = a if (s & a) else b
        other = b if side is a else a
        psi_side = _random_factor_avoiding_ones(
            rng, len(side), _local_positions(side, s & side))
        psi = tensor(psi_side, random_state(len(other), rng), placement=side)
    elif case == 1 and (s & b):
        # pin the b side of S so the gate shrinks onto a
        psi_b = _random_factor_pinned(rng, len(b),
                                      _local_positions(b, s & b))
        psi = tensor(random_state(len(a), rng), psi_b, placement=a)
    else:
        psi = tensor(random_state(len(a), rng),
                     random_state(len(b), rng), placement=a)
    outcome = classify_simplification(s, psi, cfg.tol)
    phi = apply_multi(psi, cz(*s))
    for c, d in bipartitions(r):
        sep, _ = separates_at(phi, c, d, cfg.tol)
        if not sep:
            continue
        if outcome.disappears:
            continue
        if outcome.simplifies:
            t = outcome.t
            if any(t <= side for side in (a, b, c, d)):
                continue
        else:
            if any(s <= side for side in (a, b, c, d)):
                continue
        yield (f"r={r} S={sorted(s)} outcome={outcome!r} "
               f"in-split={sorted(a)} out-split={sorted(c)}")
        return


def _suite_no_zero_divisors(cfg, k):
    """A disappearing gate on a product state is switched off by one
    factor alone, for any partner on the other side."""
    rng = _rng(cfg, k)
    r = int(rng.integers(2, cfg.max_qubits + 1))
    s_size = int(rng.integers(1, r + 1))
    s = frozenset(map(int, rng.choice(r, size=s_size, replace=False)))
    a = frozenset(q for q in range(r) if rng.random() < 0.5)
    while not a or len(a) == r:
        a = frozenset(q for q in range(r) if rng.random() < 0.5)
    b = frozenset(range(r)) - a
    sides = [side for side in (a, b) if s & side]
    zero_side = sides[k % len(sides)]
    other = b if zero_side is a else a
    psi_zero = _random_factor_avoiding_ones(
        rng, len(zero_side), _local_positions(zero_side, s & zero_side))
    psi_other = random_state(len(other), rng)
    psi = tensor(psi_zero, psi_other, placement=zero_side)
    outcome = classify_simplification(s, psi, cfg.tol)
    if not outcome.disappears:
        yield f"construction failed: {outcome!r}"
        return
    thr = cfg.tol.threshold(1.0)
    norm_a = ones_projection_norm(psi_zero, _local_positions(zero_side, s & zero_side))
    norm_b = ones_projection_norm(psi_other, _local_positions(other, s & other)) \
        if (s & other) else 1.0
    if norm_a > thr and norm_b > thr:
        yield "no factor certifies disappearance"
        return
    certified = zero_side if norm_a <= thr else other
    certified_state = psi_zero if norm_a <= thr else psi_other
    partner_side = b if certified is a else a
    partners = random_state(len(partner_side), _rng(cfg, k, 1), count=50)
    pairs = tensor(certified_state, partners, placement=certified)
    for j, pair in enumerate(pairs):
        if not classify_simplification(s, pair, cfg.tol).disappears:
            yield f"partner={j}: certified side failed"
            return


def _suite_irreducibility(cfg, k):
    """Every hypothesis-passing family instance is indecomposable at all
    splits; the compact two-block shape also yields the explicit
    justifying root assignment.  Instances run ``trials`` per shape."""
    shape = fam.FAMILY_SHAPES[k // cfg.trials]
    rng = _rng(cfg, k)
    spec, c, d, alpha = fam.random_family_instance(shape, rng, max_vars=12)
    hyp = fam.check_family_hypotheses(spec, c, d)
    if not hyp.all_hold:
        yield f"shape={shape} hypotheses failed for a Gaussian draw"
        return
    p = fam.build_family_P(spec, c, d, alpha)
    if not ml.indecomposable_at_every_split(p, cfg.tol):
        yield f"shape={shape} found a rank-1 split"
        return
    if shape != "two-block-compact":
        return
    try:
        assignment, a_val, _ = fam.two_block_zero_assignment(spec, c, d, alpha)
    except fam.NoZeroAssignmentError as exc:
        yield f"shape={shape} no explicit root: {exc}"
        return
    if not ml.is_justifying(p, assignment):
        yield f"A={a_val} explicit assignment is not justifying"
        return
    value = ml.evaluate(p, assignment)
    if abs(to_float(value)) > _ROOT_RESIDUAL:
        yield f"A={a_val} P(a) != 0"


def _suite_sv_vs_rank(cfg, k):
    """The restriction-identity split test agrees with membership in the
    factor-variable partition computed by exhaustive decomposition."""
    max_vars = min(cfg.max_qubits, 8)
    rng = _rng(cfg, k)
    exact = cfg.backend == "exact"
    if k % 2 == 0:
        n_vars = int(rng.integers(3, max_vars + 1))
        f = ml.random_multilinear_poly(rng, n_vars, n_vars + 2, exact)
    else:
        n_factors = 2 if rng.random() < 0.7 else 3
        per = 2 if n_factors == 3 else int(rng.integers(2, 4))
        f, _ = ml.random_disjoint_product(rng, n_factors, per, exact)
    fvars = sorted(f.variables())
    if len(fvars) < 2:
        return
    try:
        partition = ml.variable_partition(f, cfg.tol)
        a = ml.find_justifying_assignment(f, rng)
    except (ml.JustifyingSearchError, ml.DecompositionBudgetError) as exc:
        yield f"setup failed: {exc}"
        return
    if not ml.is_justifying(f, a):
        yield "search returned a non-justifying assignment"
        return
    subsets = (frozenset(combo) for size in range(len(fvars) + 1)
               for combo in combinations(fvars, size))
    for subset in subsets:
        expected = ml.is_union_of_classes(subset, partition)
        actual = ml.sv_partition_test(f, a, subset, tol=cfg.tol,
                                      assume_justifying=True)
        if actual != expected:
            yield (f"subset={sorted(map(str, subset))} "
                   f"identity={actual} partition-membership={expected}")
            return


def _suite_kill_parity(cfg, k):
    """Killer states satisfy every constraint and have pure parity; the
    too-many-constraints precondition is rejected."""
    rng = _rng(cfg, k)
    r = int(rng.integers(2, cfg.max_qubits + 1))
    k_max = (1 << (r - 1)) - 1
    n_units = int(rng.integers(1, k_max + 1))
    units = [random_unitary(1 << r, rng) for _ in range(n_units)]
    for b in (0, 1):
        try:
            psi = kill_parity_state(units, b, cfg.tol)
        except KillParityError as exc:
            yield f"b={b} construction failed: {exc}"
            continue
        residual = max(abs(u[-1, :] @ psi.amps) for u in units)
        if residual > _KILL_RESIDUAL:
            yield f"b={b} residual={residual:g}"
        off = float(np.sqrt(subset_parity_mass(psi, range(r), 1 - b)))
        if off > _KILL_RESIDUAL:
            yield f"b={b} parity residual={off:g}"
    if k % 50 == 0:
        extra = units + [random_unitary(1 << r, rng)
                         for _ in range((1 << (r - 1)) - n_units)]
        try:
            kill_parity_state(extra, 0, cfg.tol)
            yield "precondition not rejected"
        except KillParityError:
            pass


def _random_1q(rng) -> Gate1q:
    return Gate1q(random_unitary(2, rng))


def _random_semiclassical(rng) -> Gate1q:
    phases = np.exp(2j * np.pi * rng.random(2))
    if rng.random() < 0.5:
        return Gate1q(np.diag(phases))
    return Gate1q(np.array([[0, phases[0]], [phases[1], 0]], dtype=complex))


def _random_single_layer(rng, r, density=0.8) -> dict:
    return {q: _random_1q(rng) for q in range(r) if rng.random() < density}


def _random_multi_layer(rng, r, qubits=None):
    pool = list(qubits if qubits is not None else range(r))
    rng.shuffle(pool)
    gates = []
    while len(pool) >= 2:
        size = int(rng.integers(2, min(4, len(pool)) + 1))
        group, pool = pool[:size], pool[size:]
        if rng.random() < 0.85:
            gates.append(cz(*group))
    return gates


def _suite_depth1_refute(cfg, k):
    """Every random depth-1 circuit earns a verified certificate."""
    rng = _rng(cfg, k)
    n = int(rng.integers(2, 4))
    m = int(rng.integers(0, 3))
    r = 1 + n + m
    circuit = Circuit(
        r, n, m,
        single_layers=[_random_single_layer(rng, r),
                       _random_single_layer(rng, r)],
        multi_layers=[_random_multi_layer(rng, r)],
    )
    ancilla = random_state(m, rng) if (m and k % 2) else None
    try:
        cert = refute_depth1(circuit, ancilla, cfg.tol)
    except Exception as exc:  # any failure to refute is a violation
        yield f"refuter failed: {exc}"
        return
    ok, detail = verify_certificate(cert, circuit, cfg.tol)
    if not ok:
        yield f"verification failed: {detail}"


def _case1_fixture(rng, n, m):
    r = 1 + n + m
    return Circuit(
        r, n, m,
        single_layers=[_random_single_layer(rng, r),
                       _random_single_layer(rng, r),
                       _random_single_layer(rng, r)],
        multi_layers=[_random_multi_layer(rng, r),
                      _random_multi_layer(rng, r, qubits=range(1, r))],
    )


def _case2_fixture(rng, n, m):
    """Pass-through target with a second-layer gate on it: the target is
    driven to a classical value before that layer, so the gate acts
    classically on it and stripping the layer preserves the target."""
    r = 1 + n + m
    j = int(rng.integers(1, n + 1))
    layer05 = _random_single_layer(rng, r)
    layer15 = _random_single_layer(rng, r)
    layer25 = {0: _random_semiclassical(rng)}
    if rng.random() < 0.5:
        # parity gadget: H . CZ{0,j} . H with qubit j kept classical
        layer05[0] = GATE_H
        layer15[0] = GATE_H
        layer05[j] = _random_semiclassical(rng)
        layer1 = [cz(0, j)] + _random_multi_layer(
            rng, r, qubits=[q for q in range(1, r) if q != j])
    else:
        # target stays classical through layer 1
        layer05[0] = _random_semiclassical(rng)
        layer15[0] = _random_semiclassical(rng)
        layer1 = _random_multi_layer(rng, r, qubits=range(1, r))
    others = [q for q in range(1, r)]
    rng.shuffle(others)
    s = [0] + others[:int(rng.integers(1, min(3, r - 1) + 1))]
    layer2 = [cz(*s)] + _random_multi_layer(
        rng, r, qubits=[q for q in range(1, r) if q not in s])
    return Circuit(r, n, m,
                   single_layers=[layer05, layer15, layer25],
                   multi_layers=[layer1, layer2])


def _suite_depth_reduce(cfg, k):
    """Stripping the last layer preserves the target's final state on
    every classical input, for both admissible shapes."""
    rng = _rng(cfg, k)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(0, 3))
    if 1 + n + m > cfg.max_qubits:
        m = max(0, cfg.max_qubits - 1 - n)
    circuit = _case1_fixture(rng, n, m) if k % 2 == 0 else _case2_fixture(rng, n, m)
    try:
        reduced = depth_reduce(circuit, cfg.tol)
    except Exception as exc:
        yield f"reduction failed: {exc}"
        return
    inputs = ["0" + format(xi, f"0{n}b") + "0" * m for xi in range(1 << n)]
    initials = [basis_state(circuit.r, bits, exact=False) for bits in inputs]
    for bits, full, red in zip(inputs, simulate_all(circuit, initials),
                               simulate_all(reduced, initials)):
        gap = float(np.max(np.abs(target_density(full) - target_density(red))))
        if gap > _TARGET_DEVIATION:
            yield f"input={bits} target deviation {gap:g}"
            return


def _topology_circuit(rng) -> Circuit:
    """Six qubits, three layers: gates {0,1,2} and {3,4,5}, the middle
    gate {1,2,3}, then {0,1} and {2,3,4}, with random dressing."""
    return Circuit(
        6, 5, 0,
        single_layers=[_random_single_layer(rng, 6, density=1.0),
                       _random_single_layer(rng, 6, density=1.0),
                       {}, {}],
        multi_layers=[[cz(0, 1, 2), cz(3, 4, 5)],
                      [cz(1, 2, 3)],
                      [cz(0, 1), cz(2, 3, 4)]],
    )


def _suite_topology(cfg, k):
    """The forbidden conjunction never occurs: the middle gate fails to
    simplify while its output separates at {{0,1},{2,3,4,5}}."""
    middle = frozenset({1, 2, 3})
    rng = _rng(cfg, k)
    circuit = _topology_circuit(rng)
    bits = format(int(rng.integers(0, 64)), "06b")
    initial = basis_state(6, bits, exact=False)
    _, steps = simulate(circuit, initial, trace=True)
    phi = next(st for lbl, st in steps if lbl == 1.5)
    outcome = classify_simplification(middle, phi, cfg.tol)
    after = apply_multi(phi, cz(*middle))
    sep, _ = separates_at(after, {0, 1}, {2, 3, 4, 5}, cfg.tol)
    if outcome.kind == "none" and sep:
        yield f"input={bits}: unsimplified middle gate with separable output"


_SUITE_FNS = {
    "tight-parity3": _suite_tight_parity3,
    "entanglement-lemma": _suite_entanglement,
    "simplify-lemma": _suite_simplify,
    "no-zero-divisors": _suite_no_zero_divisors,
    "irreducibility-family": _suite_irreducibility,
    "sv-vs-rank": _suite_sv_vs_rank,
    "kill-parity": _suite_kill_parity,
    "depth1-refute": _suite_depth1_refute,
    "depth-reduce": _suite_depth_reduce,
    "topology-6qubit": _suite_topology,
}
SUITES = tuple(_SUITE_FNS)


def _instance_count(cfg: SuiteConfig) -> int:
    """The number of instances in a full run of ``cfg.suite``."""
    if cfg.suite == "tight-parity3":
        return 16
    if cfg.suite == "irreducibility-family":
        return len(fam.FAMILY_SHAPES) * cfg.trials
    return cfg.trials


def run_suite(name: str, cfg: SuiteConfig | None = None,
              only_instance: int | None = None, **overrides) -> SuiteReport:
    if name not in _SUITE_FNS:
        raise SuiteConfigError(f"unknown suite {name!r}")
    if cfg is None:
        cfg = default_config(name, **overrides)
    elif cfg.suite != name:
        cfg = replace(cfg, suite=name)
    count = _instance_count(cfg)
    if only_instance is not None and not 0 <= only_instance < count:
        raise SuiteConfigError(f"instance {only_instance} is outside "
                               f"0..{count - 1} of suite {name}")
    ks = range(count) if only_instance is None else (only_instance,)
    suite = _SUITE_FNS[name]
    start = time.perf_counter()
    violations = [f"instance={k} {msg}" for k in ks for msg in suite(cfg, k)]
    wall = time.perf_counter() - start
    return SuiteReport(
        suite=name, trials=cfg.trials, max_qubits=cfg.max_qubits,
        seed=cfg.seed, abs_eps=cfg.abs_eps, rel_eps=cfg.rel_eps,
        backend=cfg.backend, instances=len(ks),
        violations=violations, wall_time=wall)


# ---- reports ----------------------------------------------------------------


def emit_report(report: SuiteReport, fmt: str = "text") -> str:
    if fmt == "machine":
        lines = [
            f"suite={report.suite}",
            f"trials={report.trials}",
            f"max_qubits={report.max_qubits}",
            f"seed={report.seed}",
            f"abs_eps={report.abs_eps!r}",
            f"rel_eps={report.rel_eps!r}",
            f"backend={report.backend}",
            f"instances={report.instances}",
            f"violations={len(report.violations)}",
        ]
        lines.extend(f"violation_{i}={v}" for i, v in enumerate(report.violations))
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    status = "PASS" if report.passed else "FAIL"
    lines = [
        f"suite {report.suite}: {status}",
        f"  instances run : {report.instances}",
        f"  violations    : {len(report.violations)}",
        f"  wall time     : {report.wall_time:.3f} s",
        f"  config        : trials={report.trials} max_qubits={report.max_qubits} "
        f"seed={report.seed} backend={report.backend} "
        f"tol=({report.abs_eps!r},{report.rel_eps!r})",
    ]
    for i, v in enumerate(report.violations):
        lines.append(f"  violation[{i}]  : {v}")
        instance = v.split()[0]
        if instance.startswith("instance="):
            lines.append(f"    replay      : qaclab verify {report.suite} "
                         f"--seed {report.seed} --trials {report.trials} "
                         f"--qubits {report.max_qubits} --backend {report.backend} "
                         f"--instance {instance.split('=')[1]}")
    return "\n".join(lines) + "\n"


class ReportParseError(ParseError):
    pass


def parse_machine_report(text: str) -> SuiteReport:
    # '#' is data in a report, so the shared comment-stripping reader is not used
    fields = {}
    violations = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ReportParseError("expected key=value", ln)
        key, value = line.split("=", 1)
        if key.startswith("violation_"):
            violations.append(value)
        else:
            fields[key] = value
    try:
        declared = int(fields.pop("violations"))
        report = SuiteReport(
            suite=fields["suite"], trials=int(fields["trials"]),
            max_qubits=int(fields["max_qubits"]), seed=int(fields["seed"]),
            abs_eps=float(fields["abs_eps"]), rel_eps=float(fields["rel_eps"]),
            backend=fields["backend"], instances=int(fields["instances"]),
            violations=violations)
    except (KeyError, ValueError) as exc:
        raise ReportParseError(f"missing or bad field: {exc}", None,
                               "bad-field") from None
    if declared != len(violations):
        raise ReportParseError("violation count mismatch", None,
                               "count-mismatch")
    return report
