"""Linear correspondence between states and homogeneous multilinear polynomials.

A block partition groups the register's qubits into one to four labeled
blocks.  Each basis state maps to the product of one variable per block,
``|s> (x) |u>  ->  x_s * z_u``, extended linearly.  The map is one-to-one
and sends a product state across a block split to a product of
polynomials on disjoint variables, so Schmidt-rank-1 separability on the
state side shows up as a rank-1 coefficient split on the polynomial side
(``bipartition_rank_oracle``); for this map the two matrices coincide,
making the implication an equivalence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multilinear import MultilinearPoly, VarId, bipartition_rank_oracle
from .numerics import DEFAULT_TOL, Exact, Tolerance
from .qstate import StateVector, separates_at


class BlockPartitionError(ValueError):
    pass


class PolyShapeError(ValueError):
    """A polynomial is not in the image of the state-to-polynomial map."""


@dataclass(frozen=True)
class BlockPartition:
    """Ordered labeled blocks of qubits covering a register."""

    blocks: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if not 1 <= len(self.blocks) <= 4:
            raise BlockPartitionError("between one and four blocks")
        labels = [lbl for lbl, _ in self.blocks]
        if len(set(labels)) != len(labels):
            raise BlockPartitionError("block labels must be distinct")
        seen = set()
        for lbl, qs in self.blocks:
            if not qs:
                raise BlockPartitionError(f"block {lbl!r} is empty")
            if seen & set(qs):
                raise BlockPartitionError("blocks must be disjoint")
            seen.update(qs)

    @property
    def r(self) -> int:
        return sum(len(qs) for _, qs in self.blocks)

    def check_covers(self, r: int):
        covered = set()
        for _, qs in self.blocks:
            covered.update(qs)
        if covered != set(range(r)):
            raise BlockPartitionError("blocks must cover qubits 0..r-1")

    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.blocks)


def block_partition(*blocks) -> BlockPartition:
    """Convenience: block_partition(("x", (0, 1)), ("z", (2,)))."""
    return BlockPartition(tuple((lbl, tuple(sorted(qs))) for lbl, qs in blocks))


def poly_of_state(psi: StateVector, bp: BlockPartition) -> MultilinearPoly:
    """Map each basis state to one variable per block, extended linearly."""
    bp.check_covers(psi.r)
    idx = np.flatnonzero(psi.support())
    factors = []
    for lbl, qs in bp.blocks:
        # the block's bits of each basis index, in qubit order, as an int
        value = sum(((idx >> (psi.r - 1 - q)) & 1) << (len(qs) - 1 - p)
                    for p, q in enumerate(sorted(qs)))
        names = [VarId(lbl, format(k, f"0{len(qs)}b")) for k in range(1 << len(qs))]
        factors.append([names[k] for k in value.tolist()])
    # support() has dropped the zero amplitudes, so no term needs pruning
    return MultilinearPoly._of(dict(zip(map(frozenset, zip(*factors)),
                                        psi.amps[idx].tolist())))


def state_of_poly(f: MultilinearPoly, bp: BlockPartition) -> StateVector:
    """Inverse of poly_of_state on its image."""
    r = bp.r
    exact = all(isinstance(c, Exact) for c in f.terms.values())
    amps = np.empty(1 << r, dtype=object if exact else complex)
    amps[:] = Exact.ZERO if exact else 0j
    labels = bp.labels()
    for m, c in f.terms.items():
        by_label = {}
        for v in m:
            if v.block in by_label:
                raise PolyShapeError(f"two variables from block {v.block!r} "
                                     "in one monomial")
            by_label[v.block] = v.index
        if set(by_label) != set(labels):
            raise PolyShapeError("each monomial needs exactly one variable "
                                 "per block")
        bits = ["?"] * r
        for lbl, qs in bp.blocks:
            sub = by_label[lbl]
            qs_sorted = sorted(qs)
            if len(sub) != len(qs_sorted):
                raise PolyShapeError(f"index length of {lbl}[{sub}] does not "
                                     f"match block size {len(qs_sorted)}")
            for q, bit in zip(qs_sorted, sub):
                bits[q] = bit
        amps[int("".join(bits), 2)] = c
    return StateVector(r, amps, normalized=False)


@dataclass(frozen=True)
class SeparabilityReport:
    separable: bool
    poly_rank_le_1: bool

    @property
    def implication_holds(self) -> bool:
        """separable => polynomial splits (rank <= 1)."""
        return (not self.separable) or self.poly_rank_le_1

    @property
    def equivalence_holds(self) -> bool:
        return self.separable == self.poly_rank_le_1


def separability_decomposability_check(psi: StateVector,
                                       bp: BlockPartition,
                                       left_labels,
                                       tol: Tolerance = DEFAULT_TOL) -> SeparabilityReport:
    """Compare state separability with the polynomial-side rank test
    across the designated split of the blocks."""
    bp.check_covers(psi.r)
    left_labels = set(left_labels)
    if not left_labels or not (set(bp.labels()) - left_labels):
        raise BlockPartitionError("split must leave blocks on both sides")
    a = {q for lbl, qs in bp.blocks if lbl in left_labels for q in qs}
    b = set(range(psi.r)) - a
    sep, _ = separates_at(psi, a, b, tol)
    f = poly_of_state(psi, bp)
    left_vars = {v for v in f.variables() if v.block in left_labels}
    rank1 = bipartition_rank_oracle(f, left_vars, tol)
    return SeparabilityReport(sep, rank1)
