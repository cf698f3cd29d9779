"""The error contract over the whole public API.

Every callable that `qverify` exports, and every method below that takes
an argument, is called with valid arguments from the tables below, then
with each argument in turn swapped for each junk value. A call must
return or raise a QVerifyError: a wrong Python type is bad input, never a
bare TypeError, ValueError or AttributeError. A value outside a closed
form's domain raises its QVerifyError too, never a Python math error or
a nan.
"""

import enum
import math
import types
import warnings

import numpy as np
import pytest

import qverify
from qverify import (
    BadDimError,
    HermitianOperator,
    HypothesisSpec,
    Ket,
    MeasurementSetting,
    PauliString,
    SampleCountReport,
    StabilizerGroup,
    Strategy,
    ThetaOutOfDomainError,
    ValidationError,
    alpha_weight,
    annihilating_product_states,
    Locality,
    StrategyKind,
    basis_ket,
    bell_strategy,
    certify_optimality,
    default_theta_grid,
    full_strategy,
    haar_random_ket,
    honest_device,
    identity,
    local_transport,
    ppt_lower_bound,
    preset_group,
    ridge_alpha,
    ridge_q,
    target_state,
    to_json_dict,
    two_qubit_optimal,
    wilson_interval,
    worst_case_state,
)
from qverify.errors import QVerifyError
from qverify.protocol import _build_plan

JUNK = {
    "none": None,
    "str": "a",
    "bool": True,
    "float": 0.5,
    "list": [],
    "object": object(),
    "array": np.zeros(3),
    "nan": math.nan,
}

# Records that hold what a checked computation produced and check nothing
# themselves; exception classes and enums are exempt as well.
EXEMPT = {
    "CertificateReport",
    "Fig1Row",
    "Fig2Row",
    "GameValue",
    "LandscapeReport",
    "LandscapeRow",
    "PauliTest",
    "StrategyMetrics",
    "SubsetReport",
}

BELL = bell_strategy()
GHZ = preset_group("ghz3")
KET = basis_ket(2, 0)
HONEST = honest_device(BELL.target)
WORST = worst_case_state(BELL, 0.1)

# Valid keyword arguments of every checked callable.
VALID = {
    "AdversaryState": dict(state=KET, fidelity=1.0),
    "DeviceModel": dict(target=BELL.target, sigma=BELL.target, supplier=None, epsilon=None),
    "EnsembleStats": dict(
        trials=10, accept_rate=0.5, wilson_low=0.2, wilson_high=0.8, predicted_acceptance=None
    ),
    "HermitianOperator": dict(entries=np.eye(2)),
    "HypothesisSpec": dict(p0=0.9, p1=0.5),
    "Ket": dict(amplitudes=[1.0, 0.0]),
    "MeasurementSetting": dict(
        projector=identity(4), weight=1.0, label="all", locality=Locality.NONLOCAL
    ),
    "ParityCheck": dict(group=GHZ),
    "PauliStrategy": dict(group=GHZ, indices=(1, 2, 4), kind=StrategyKind.CUSTOM),
    "PauliString": dict(num_qubits=2, x=3, z=0, phase=0),
    "RunResult": dict(n_copies=10, first_failure_index=None, rng_seed=0),
    "SampleCountReport": dict(
        delta=0.1, delta_eps=0.1, n_exact=22, n_asymptotic=23.0, method_label="x",
        epsilon=None, q=None, p0=1.0,
    ),
    "StabilizerGroup": dict(generators=GHZ.generators),
    "Strategy": dict(
        target=BELL.target, settings=BELL.settings, kind=StrategyKind.BELL, theta=None
    ),
    "all_zeros_group": dict(num_qubits=2),
    "alpha_weight": dict(theta=0.6),
    "annihilating_product_states": dict(theta=0.6),
    "asymptotic_count": dict(delta_eps=0.1, delta=0.1),
    "basis_ket": dict(dim=4, index=1),
    "bell_strategy": dict(),
    "certify_optimality": dict(theta=0.6, resolution=8, refine_resolution=8),
    "check_theta": dict(theta=0.6),
    "chernoff_stein_count": dict(spec=HypothesisSpec(0.9, 0.5), delta=0.1),
    "cluster_group": dict(num_qubits=3),
    "default_theta_grid": dict(points=8),
    "estimate_power": dict(
        strategy=BELL, device=HONEST, n=5, trials=4, seed=1, sink=[].append, record_labels=True
    ),
    "exact_count": dict(delta_eps=0.1, delta=0.1),
    "exact_sample_count": dict(strategy=BELL, epsilon=0.1, delta=0.1),
    "family_metrics": dict(family="two-qubit-optimal", theta=0.6),
    "figure1_data": dict(epsilon=0.1, delta=0.1, thetas=[0.3, 0.6]),
    "figure2_data": dict(theta=0.6, delta=0.1, epsilons=[0.1, 0.2]),
    "full_strategy": dict(group=GHZ),
    "generator_strategy": dict(group=GHZ),
    "ghz_group": dict(num_qubits=3),
    "group_from_json": dict(labels=["XX", "ZZ"]),
    "haar_random_ket": dict(dim=4, seed=1),
    "hilbert_schmidt_mixed_state": dict(dim=4, rng=np.random.default_rng(0)),
    "honest_device": dict(target=BELL.target),
    "hull_boundary": dict(theta=0.6, points=4),
    "identity": dict(dim=4),
    "iid_adversary": dict(target=BELL.target, state=WORST, epsilon=0.1),
    "landscape": dict(theta=0.6, alphas=[0.0, 0.5], phis=[0.3, 0.6]),
    "local_transport": dict(strategy=two_qubit_optimal(0.6), u=np.eye(2), v=np.eye(2)),
    "metrics": dict(strategy=BELL),
    "optimal_q": dict(theta=0.6),
    "orthocomplement_basis": dict(state=KET),
    "partial_transpose_qubit2": dict(op=identity(4)),
    "ppt_lower_bound": dict(theta=0.6),
    "predicted_acceptance": dict(strategy=BELL, device=HONEST, n=5),
    "preset_group": dict(name="ghz3"),
    "product_state_strategy": dict(which="zero"),
    "relative_entropy": dict(a=0.5, b=0.3),
    "ridge_alpha": dict(big_p=0.5, big_t=0.3),
    "ridge_q": dict(big_p=[0.5, 1.0], big_t=0.3),
    "run_protocol": dict(strategy=BELL, device=HONEST, n=5, seed=1, trial=0),
    "shift_fidelity": dict(rho=np.eye(4) / 4, target=BELL.target, epsilon=0.1),
    "strategy_from_json": dict(doc=to_json_dict(full_strategy(GHZ))),
    "strategy_game_value": dict(strategy=BELL, epsilon=0.1),
    "subset_strategy": dict(group=GHZ, element_indices=[1, 2]),
    "target_state": dict(theta=0.6),
    "tensor": dict(a=KET, b=KET),
    "theta_family": dict(theta=0.6),
    "to_json_dict": dict(strategy=BELL),
    "top_orthogonal_eigenvector": dict(strategy=BELL),
    "two_qubit_optimal": dict(theta=0.6),
    "varying_adversary": dict(target=BELL.target, supplier=lambda i: WORST, epsilon=0.1),
    "wilson_interval": dict(successes=3, trials=10, z=2.0),
    "worst_case_state": dict(strategy=BELL, epsilon=0.1),
}


def _checked_callables() -> list[str]:
    names = []
    for name in qverify.__all__:
        obj = getattr(qverify, name)
        if not callable(obj) or name in EXEMPT:
            continue
        if isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum)):
            continue
        names.append(name)
    return sorted(names)


def _cases():
    for name in _checked_callables():
        for arg in VALID.get(name) or [None]:
            yield pytest.param(name, arg, id=f"{name}-{arg}")


def test_no_export_is_a_module():
    assert not [n for n in qverify.__all__ if isinstance(getattr(qverify, n), types.ModuleType)]


@pytest.mark.parametrize("name,arg", list(_cases()))
def test_junk_arguments_raise_only_domain_errors(name, arg):
    assert name in VALID, f"{name} has no row of valid arguments"
    fn, valid = getattr(qverify, name), VALID[name]
    fn(**valid)
    if arg is None:  # a callable without arguments
        return
    escapes = []
    for label, junk in JUNK.items():
        try:
            fn(**{**valid, arg: junk})
        except QVerifyError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escape is what is recorded
            escapes.append(f"{arg}={label}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)


# Methods of the public types, each with its valid argument.
METHODS = {
    "Ket.inner": (KET.inner, KET),
    "Ket.normalized": (Ket.normalized, KET.amplitudes),
    "Ket.fidelity": (KET.fidelity, KET),
    "HermitianOperator.expectation": (identity(2).expectation, KET),
    "Strategy.pass_probabilities": (BELL.pass_probabilities, BELL.target),
    "PauliStrategy.pass_probabilities": (full_strategy(GHZ).pass_probabilities, np.eye(8) / 8),
}


@pytest.mark.parametrize("name", sorted(METHODS))
def test_junk_method_arguments_raise_only_domain_errors(name):
    method, valid = METHODS[name]
    method(valid)
    escapes = []
    for label, junk in JUNK.items():
        try:
            method(junk)
        except QVerifyError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escape is what is recorded
            escapes.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)


# Values of the right type outside a closed form's domain. The two-qubit
# family's angle is finite, and in [0, pi/2] where a formula needs it; the
# ridge's P = tan^2 phi > 0 and T = tan^2 theta >= 0 are finite.
WRONG_VALUES = [
    (target_state, (math.inf,), ThetaOutOfDomainError),
    (alpha_weight, (math.inf,), ThetaOutOfDomainError),
    (alpha_weight, (-math.inf,), ThetaOutOfDomainError),
    (alpha_weight, (math.nan,), ThetaOutOfDomainError),
    (ppt_lower_bound, (math.inf,), ThetaOutOfDomainError),
    (ppt_lower_bound, (-math.inf,), ThetaOutOfDomainError),
    (ppt_lower_bound, (math.nan,), ThetaOutOfDomainError),
    (ppt_lower_bound, (-math.pi / 4,), ThetaOutOfDomainError),
    (annihilating_product_states, (0.0,), ThetaOutOfDomainError),
    (annihilating_product_states, (-0.3,), ThetaOutOfDomainError),
    (annihilating_product_states, (-1.0,), ThetaOutOfDomainError),
    (annihilating_product_states, (2.0,), ThetaOutOfDomainError),
    (ridge_alpha, (0.0, 0.0), ValidationError),
    (ridge_alpha, (-1.0, 0.5), ValidationError),
    (ridge_alpha, (1.0, -1.0), ValidationError),
    (ridge_alpha, (math.inf, 0.5), ValidationError),
    (ridge_q, ([0.0], 0.0), ValidationError),
    (wilson_interval, (3, 10, -1.0), ValidationError),
    (wilson_interval, (3, 10, 0.0), ValidationError),
    (wilson_interval, (3, 10, math.nan), ValidationError),
    (wilson_interval, (3, 10, math.inf), ValidationError),
]


@pytest.mark.parametrize(
    "fn,args,error", WRONG_VALUES, ids=[f"{fn.__name__}{args}" for fn, args, _ in WRONG_VALUES]
)
def test_wrong_values_raise_domain_errors(fn, args, error):
    with pytest.raises(error):
        fn(*args)


def _one_qubit_strategy():
    zero = MeasurementSetting(HermitianOperator(np.diag([1.0, 0.0])), 1.0, "0", Locality.NONLOCAL)
    return Strategy(basis_ket(2, 0), (zero,), StrategyKind.CUSTOM)


# Guards of a value that has the right type but the wrong size: each row
# names the raise it reaches by its message.
WRONG_SIZES = [
    ("expectation-ket-dim", lambda: identity(2).expectation(basis_ket(4, 0)),
     BadDimError, "matching dimensions"),
    ("haar-dim-zero", lambda: haar_random_ket(0, 1), BadDimError, "dim >= 1"),
    ("ket-13-qubits", lambda: Ket(np.eye(1, 2**13)[0]), BadDimError, "exceeds the dense limit"),
    ("setting-dim", lambda: Strategy(basis_ket(2, 0), BELL.settings, StrategyKind.CUSTOM),
     ValidationError, "does not match target dimension 2"),
    ("transport-one-qubit", lambda: local_transport(_one_qubit_strategy(), np.eye(2), np.eye(2)),
     BadDimError, "two qubit strategies"),
    ("plan-device-dim", lambda: _build_plan(BELL, honest_device(basis_ket(2, 0)), 5),
     ValidationError, "dimensions differ"),
    ("partner-qubits", lambda: PauliString.from_label("XX").commutes(PauliString.from_label("X")),
     BadDimError, "qubit counts differ"),
    ("generator-qubits", lambda: StabilizerGroup(
        (PauliString.from_label("XX"), PauliString.from_label("Z"))),
     BadDimError, "different qubit counts"),
    ("preset-ghz13", lambda: preset_group("ghz13"), BadDimError, r"in \[2, 12\]"),
    ("theta-grid-3", lambda: default_theta_grid(3), ValidationError, "at least 4 points"),
    ("report-n-exact-0", lambda: SampleCountReport(0.1, 0.1, 0, 1.0, "exact"),
     ValidationError, "n_exact=0 must be positive"),
    ("certify-resolution-7", lambda: certify_optimality(0.5, resolution=7),
     ValidationError, "resolution must be at least 8"),
]


@pytest.mark.parametrize(
    "build,error,match", [row[1:] for row in WRONG_SIZES], ids=[row[0] for row in WRONG_SIZES]
)
def test_wrong_sizes_raise_domain_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_normalized_rejects_a_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="non-finite"):
            Ket.normalized([1.0, math.nan])
