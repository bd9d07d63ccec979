"""Quantum state discrimination toolkit.

Build discrimination instances, solve minimum-error / unambiguous /
error-tolerant POVM optimization problems with an in-package conic solver,
dilate the resulting POVMs into projective measurements with as few ancilla
qubits as the POVM ranks allow, and simulate the measurements.
"""

__version__ = "0.1.0"

from .dilation import (
    RESIDUAL,
    DilationReport,
    DilationResult,
    MeasurementResult,
    Rank1Decomposition,
    Rank1Term,
    build_isometry,
    build_isometry_generic,
    complete_to_unitary,
    decompose_rank1,
    dilate,
    dilated_joint_distribution,
    simulate_measurement,
    truncate,
    verify_dilation,
)
from .metrics import (
    JointDistribution,
    OutcomeStats,
    confidences,
    error_to_success,
    joint_distribution,
    lp_distance,
    outcome_stats,
)
from .oracles import frio_two_pure, helstrom_two_state, uqsd_two_pure
from .schemes import (
    AT_LEAST,
    AT_MOST,
    SCHEME_NAMES,
    DecodeError,
    SchemeProgram,
    SchemeResult,
    build_crossqsd,
    build_fit_meco,
    build_fit_min_lp,
    build_frio,
    build_hybrid,
    build_med,
    build_med_plus,
    build_scheme,
    build_uqsd,
    decode_povm,
    scheme_value,
    solve_scheme,
    uqsd_reference,
)
from .solver import (
    INFEASIBLE,
    MAX_ITERS,
    OPTIMAL,
    ConeProgram,
    FreeCone,
    NonNegCone,
    PsdCone,
    Solution,
    psd_project,
    smat,
    solve,
    svec,
)
from .states import (
    INCONCLUSIVE,
    DensityMatrix,
    DepolarizingChannel,
    Povm,
    ProblemSpec,
    PureState,
    apply_depolarizing,
    density_of,
    depolarize,
    make_benchmark_two_qubit_states,
    make_coherent_state,
    make_single_qubit_pair,
)
