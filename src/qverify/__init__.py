"""Optimal local verification of entangled states.

Builds the measurement strategies that verify Bell, two qubit, and
stabilizer targets with locally implementable tests, evaluates their
exact worst case performance and the copy counts that follow from it,
certifies optimality claims by independent brute force sweeps, and
simulates the sequential accept/reject protocol against adversarial
sources.

Importing the package loads no submodule but `_env`. Each exported name
imports the submodule that defines it on first use (PEP 562), so a
caller pays only for the modules it reaches; `import qverify.strategy`
or `from qverify import strategy` loads a submodule itself.
"""

from . import _env

_env.configure_threads()

__version__ = "0.1.0"

# Every exported name, by the submodule that defines it.
_EXPORTS = {
    "errors": (
        "BadDimError", "DegenerateStrategyError", "DependentGeneratorsError",
        "InconsistentSignsError", "NonCommutingError", "NonHermitianError",
        "NotUnitaryError", "QVerifyError", "ThetaNearSpecialValueError",
        "ThetaOutOfDomainError", "UndefinedDivergenceError", "ValidationError",
    ),
    "qcore": (
        "MAX_QUBITS", "TOL_DERIVED", "TOL_INPUT", "HermitianOperator", "Ket",
        "basis_ket", "haar_random_ket", "identity", "orthocomplement_basis",
        "partial_transpose_qubit2", "tensor",
    ),
    "samplecount": (
        "FIG1_COLUMNS", "FIG2_COLUMNS", "Fig1Row", "Fig2Row", "HypothesisSpec",
        "SampleCountReport", "StrategyMetrics", "asymptotic_count", "check_theta",
        "chernoff_stein_count", "default_theta_grid", "exact_count", "family_metrics",
        "figure1_data", "figure2_data", "optimal_q", "relative_entropy", "theta_family",
    ),
    "strategy": (
        "Locality", "MeasurementSetting", "Strategy", "StrategyKind", "alpha_weight",
        "annihilating_product_states", "bell_strategy", "exact_sample_count",
        "local_transport", "metrics", "product_state_strategy", "target_state",
        "to_json_dict", "two_qubit_optimal",
    ),
    "stabilizer": (
        "MAX_DENSE_QUBITS", "ParityCheck", "PauliStrategy", "PauliString", "PauliTest",
        "StabilizerGroup", "SubsetReport", "all_zeros_group", "cluster_group",
        "full_strategy", "generator_strategy", "ghz_group", "group_from_json",
        "preset_group", "strategy_from_json", "subset_strategy",
    ),
    "adversary": (
        "HULL_COLUMNS", "LANDSCAPE_COLUMNS", "AdversaryState", "CertificateReport",
        "GameValue", "LandscapeReport", "LandscapeRow", "certify_optimality",
        "hilbert_schmidt_mixed_state", "hull_boundary", "landscape", "ppt_lower_bound",
        "ridge_alpha", "ridge_q", "shift_fidelity", "strategy_game_value",
        "top_orthogonal_eigenvector", "worst_case_state",
    ),
    "protocol": (
        "DeviceModel", "EnsembleStats", "RunResult", "estimate_power", "honest_device",
        "iid_adversary", "predicted_acceptance", "run_protocol", "varying_adversary",
        "wilson_interval",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
