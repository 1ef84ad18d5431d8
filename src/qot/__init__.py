"""Quantum optimal transport costs as semidefinite programs.

The package computes the coupling-based transport cost between quantum
states, its dual certificate, the derived Wasserstein-type semi-distance,
and the channel-monotone stabilized variant, and reproduces the explicit
4x4 witness construction showing the base cost is not monotone under
partial traces.
"""

from .quantum import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    KrausChannel,
    PureState,
    apply_channel,
    flip_operator,
    hermitian_basis,
    max_eig,
    partial_trace,
    proj_asym,
    proj_asym_reshuffled,
    proj_sym,
    random_density_matrix,
    random_kraus_channel,
    random_pure_state,
    random_unitary,
    tensor,
    twirl,
)
from .sdp import SdpSolution, SolverFailure, feasibility_margin, solve
from .transport import (
    DualWitness,
    StabilizedResult,
    TransportResult,
    dual_value,
    stabilized_cost,
    stabilized_cost_via_tensoring,
    tensored_cost,
    transport_cost,
    wasserstein,
)
from .counterexample import (
    EquivalenceCheck,
    ViolationReport,
    chain_values,
    embed_witness,
    extract_violating_state,
    reference_witness,
    search_witness,
    symmetric_excess,
    tensor_feasibility_equivalence,
    violation_report,
)

__version__ = "0.1.0"
