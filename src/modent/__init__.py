"""Desk-scale simulator for detecting single-particle mode entanglement."""

from .hilbert import (
    BosonicMode,
    DensityOp,
    FermionicMode,
    LinearOp,
    PureState,
    SystemLayout,
    TwoLevel,
    basis_state,
    coherent_mode_state,
    compose_layout,
    default_coherent_cutoff,
    reduced_density,
    superpose,
    tensor,
)
from .dynamics import (
    CouplingSpec,
    evolve,
    jc_hamiltonian,
)
from .entanglement import (
    CorrelationTensor,
    chsh_violated,
    concurrence,
    correlation_tensor,
    fidelity,
    horodecki_m,
    state_overlap,
    target_pair_density,
    trace_distance,
)
from .protocols import (
    ExperimentResult,
    FermionProtocolParams,
    RotationProtocolParams,
    Table1Row,
    coherent_field_rotation,
    massive_fermion_protocol,
    massless_absorption,
    optimize_angles,
    rotated_target_state,
    sequential_rotation,
    simultaneous_coupling_check,
    single_ancilla_rotation,
    table1_summary,
)

__version__ = "0.1.0"
