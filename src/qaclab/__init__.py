"""qaclab: exact simulation and algebraic analysis of shallow phase-gate circuits.

Subpackages by concern:

* ``numerics``    exact Q(i, sqrt2) scalars, tolerances, seeded randomness
* ``multilinear`` sparse multilinear polynomials and decomposability tests
* ``family``      the irreducible polynomial family and its witnesses
* ``qstate``      statevectors, separability, projections
* ``bridge``      the state <-> polynomial correspondence
* ``circuit``     layered circuits, simulation, simplification analysis
* ``circuit_io``  the circuit text format
* ``parity``      parity subspaces, gate killers, refuters, certificates
* ``harness``     seeded verification suites and reports
"""

from .numerics import DEFAULT_TOL, Exact, Tolerance, approx_eq, to_float
from .multilinear import (
    MultilinearPoly,
    VarId,
    bipartition_rank_oracle,
    decompose,
    evaluate,
    find_justifying_assignment,
    find_zero_justifying_assignment,
    restrict,
    sv_partition_test,
)
from .family import (
    BlockSpec,
    build_family_P,
    check_family_hypotheses,
    two_block_zero_assignment,
)
from .qstate import (
    StateVector,
    basis_state,
    is_S_separable,
    ones_projection_norm,
    random_product_state,
    random_state,
    separates_at,
    tensor,
)
from .bridge import BlockPartition, block_partition, poly_of_state, state_of_poly
from .circuit import (
    Circuit,
    Gate1q,
    MultiGate,
    classify_simplification,
    computes_parity_on_basis,
    cz,
    depth_reduce,
    geta,
    is_semiclassical,
    parity3_circuit,
    simulate,
    simulate_all,
    target_is_pass_through,
)
from .circuit_io import parse_circuit, serialize_circuit
from .parity import (
    RefutationCertificate,
    has_pure_parity,
    kill_parity_state,
    parity_basis,
    refute_depth1,
    refute_depth2_structural,
    verify_certificate,
)
from .harness import SuiteConfig, SuiteReport, emit_report, run_suite

__version__ = "0.1.0"
