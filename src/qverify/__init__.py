"""Optimal local verification of entangled states.

Builds the measurement strategies that verify Bell, two qubit, and
stabilizer targets with locally implementable tests, evaluates their
exact worst case performance and the copy counts that follow from it,
certifies optimality claims by independent brute force sweeps, and
simulates the sequential accept/reject protocol against adversarial
sources.
"""

from . import _env

_env.configure_threads()

__version__ = "0.1.0"

from .errors import (
    BadDimError,
    DegenerateStrategyError,
    DependentGeneratorsError,
    InconsistentSignsError,
    NonCommutingError,
    NonHermitianError,
    NotUnitaryError,
    QVerifyError,
    ThetaNearSpecialValueError,
    ThetaOutOfDomainError,
    UndefinedDivergenceError,
    ValidationError,
)
from .qcore import (
    MAX_QUBITS,
    TOL_DERIVED,
    TOL_INPUT,
    HermitianOperator,
    Ket,
    basis_ket,
    haar_random_ket,
    identity,
    orthocomplement_basis,
    partial_transpose_qubit2,
    tensor,
)
from .samplecount import (
    FIG1_COLUMNS,
    FIG2_COLUMNS,
    Fig1Row,
    Fig2Row,
    HypothesisSpec,
    SampleCountReport,
    StrategyMetrics,
    asymptotic_count,
    check_theta,
    chernoff_stein_count,
    default_theta_grid,
    exact_count,
    family_metrics,
    figure1_data,
    figure2_data,
    optimal_q,
    relative_entropy,
    theta_family,
)
from .strategy import (
    Locality,
    MeasurementSetting,
    Strategy,
    StrategyKind,
    alpha_weight,
    annihilating_product_states,
    bell_strategy,
    exact_sample_count,
    from_json_dict,
    local_transport,
    metrics,
    product_state_strategy,
    target_state,
    to_json_dict,
    two_qubit_optimal,
)
from .stabilizer import (
    MAX_DENSE_QUBITS,
    ParityCheck,
    PauliStrategy,
    PauliString,
    PauliTest,
    StabilizerGroup,
    SubsetReport,
    all_zeros_group,
    cluster_group,
    full_strategy,
    generator_strategy,
    ghz_group,
    group_from_json,
    preset_group,
    strategy_from_json,
    subset_strategy,
)
from .adversary import (
    HULL_COLUMNS,
    LANDSCAPE_COLUMNS,
    AdversaryState,
    CertificateReport,
    GameValue,
    LandscapeReport,
    LandscapeRow,
    certify_optimality,
    hilbert_schmidt_mixed_state,
    hull_boundary,
    landscape,
    ppt_lower_bound,
    ridge_alpha,
    ridge_q,
    shift_fidelity,
    strategy_game_value,
    top_orthogonal_eigenvector,
    worst_case_state,
)
from .protocol import (
    DeviceModel,
    EnsembleStats,
    RunResult,
    estimate_power,
    honest_device,
    iid_adversary,
    predicted_acceptance,
    run_protocol,
    varying_adversary,
    wilson_interval,
)

# the names imported above, without the submodules that importing them binds
__all__ = [n for n, v in vars().items() if n[0] != "_" and not isinstance(v, type(_env))]
