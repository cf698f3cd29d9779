import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify.errors import (
    BadDimError,
    DegenerateStrategyError,
    NotUnitaryError,
    ThetaNearSpecialValueError,
    ThetaOutOfDomainError,
    ValidationError,
)
from qverify.qcore import HermitianOperator, Ket, identity
from qverify.samplecount import THETA_SPECIAL_TOL, theta_family
from qverify.stabilizer import strategy_from_json
from qverify.strategy import (
    Locality,
    MeasurementSetting,
    Strategy,
    StrategyKind,
    alpha_weight,
    annihilating_product_states,
    bell_strategy,
    check_theta,
    exact_sample_count,
    invariant_defect,
    local_transport,
    metrics,
    optimal_q,
    product_state_strategy,
    target_state,
    to_json_dict,
    two_qubit_optimal,
)

from oracles import dense_metrics, trace3_closed_form, two_qubit_closed_form

INTERIOR_THETAS = [0.1, math.pi / 12, math.pi / 8, math.pi / 5, 0.7, 3 * math.pi / 8, 1.45]


def test_bell_strategy_exact_worst_case():
    built = bell_strategy()
    for m in (metrics(built), dense_metrics(built)):
        assert abs(m.q - 1.0 / 3.0) < 1e-12
        assert abs(m.delta_eps(0.01) - 0.02 / 3.0) < 1e-14
        assert abs(m.trace - 2.0) < 1e-12


def test_bell_strategy_operator_form():
    # uniform mixture of the three parity projectors fixing the Bell state
    strat = bell_strategy()
    bell = Ket.normalized([1.0, 0.0, 0.0, 1.0])
    assert np.max(np.abs(strat.omega @ bell.amplitudes - bell.amplitudes)) < 1e-12
    labels = [s.label for s in strat.settings]
    assert labels == ["XX", "-YY", "ZZ"]
    assert all(abs(s.weight - 1.0 / 3.0) < 1e-15 for s in strat.settings)
    # the remaining eigenvalue is exactly 1/3 on the whole complement
    vals = np.linalg.eigvalsh(strat.omega)
    assert np.allclose(sorted(vals), [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 1.0])


def test_check_theta_domain():
    with pytest.raises(ThetaOutOfDomainError):
        check_theta(-0.1)
    with pytest.raises(ThetaOutOfDomainError):
        check_theta(math.pi / 2.0 + 0.1)
    for near_special in (1e-12, math.pi / 4.0 + 1e-12, math.pi / 2.0 - 1e-12):
        with pytest.raises(ThetaNearSpecialValueError):
            check_theta(near_special)
    check_theta(0.3)


def test_non_finite_theta_is_out_of_domain():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ThetaOutOfDomainError, match=r"outside \[0, pi/2\]"):
            check_theta(theta)
    with pytest.raises(ThetaOutOfDomainError):
        theta_family(math.nan)


def _near_special_angles():
    offsets = [0.0]
    for scale in (1.0, 1.0 - 1e-6, 1.0 + 1e-6):
        offsets += [scale * THETA_SPECIAL_TOL, -scale * THETA_SPECIAL_TOL]
    angles = {
        min(max(special + offset, 0.0), math.pi / 2)
        for special in (0.0, math.pi / 4, math.pi / 2)
        for offset in offsets
    }
    return sorted(angles)


@pytest.mark.parametrize("theta", _near_special_angles())
def test_check_theta_agrees_with_theta_family(theta):
    if theta_family(theta) == "two-qubit-optimal":
        check_theta(theta)
        two_qubit_optimal(theta)
    else:
        with pytest.raises(ThetaNearSpecialValueError):
            check_theta(theta)


def test_target_state():
    theta = math.pi / 8.0
    psi = target_state(theta)
    assert abs(psi.amplitudes[0] - math.sin(theta)) < 1e-15
    assert abs(psi.amplitudes[3] - math.cos(theta)) < 1e-15
    assert psi.amplitudes[1] == 0.0 and psi.amplitudes[2] == 0.0


def test_alpha_and_q_closed_forms():
    theta = math.pi / 8.0
    s2 = math.sin(2.0 * theta)
    assert abs(alpha_weight(theta) - (2.0 - s2) / (4.0 + s2)) < 1e-15
    assert abs(optimal_q(theta) - (2.0 + s2) / (4.0 + s2)) < 1e-15
    assert abs(alpha_weight(theta) - 0.2746683427664977) < 1e-15
    assert abs(optimal_q(theta) - 0.5751105524111674) < 1e-15


@pytest.mark.parametrize("theta", INTERIOR_THETAS)
def test_annihilating_states_are_product_and_orthogonal(theta):
    psi = target_state(theta)
    for phi in annihilating_product_states(theta):
        assert abs(phi.inner(psi)) < 1e-12
        # product check: reshaped amplitude matrix has rank one
        mat = phi.amplitudes.reshape(2, 2)
        svals = np.linalg.svd(mat, compute_uv=False)
        assert svals[1] < 1e-12


@pytest.mark.parametrize("theta", INTERIOR_THETAS)
def test_two_qubit_strategy_matches_closed_forms(theta):
    strat = two_qubit_optimal(theta)
    assert np.max(np.abs(strat.omega - two_qubit_closed_form(theta))) < 1e-10
    assert abs(dense_metrics(strat).q - optimal_q(theta)) < 1e-10


@pytest.mark.parametrize("theta", INTERIOR_THETAS)
def test_trace3_part_matches_closed_form(theta):
    strat = two_qubit_optimal(theta)
    rejectors = [s for s in strat.settings if s.label != "ZZ"]
    assert len(rejectors) == 3
    part = sum(s.projector.entries for s in rejectors) / 3.0
    assert np.max(np.abs(part - trace3_closed_form(theta))) < 1e-10


def test_two_qubit_setting_structure():
    strat = two_qubit_optimal(math.pi / 8.0)
    assert strat.kind is StrategyKind.TWO_QUBIT_OPTIMAL
    assert len(strat.settings) == 4
    zz = strat.settings[0]
    assert zz.label == "ZZ"
    assert abs(zz.weight - alpha_weight(math.pi / 8.0)) < 1e-15
    for s in strat.settings[1:]:
        assert abs(s.weight - (1.0 - zz.weight) / 3.0) < 1e-15
        assert s.locality is Locality.PRODUCT_PROJECTOR


def test_two_qubit_rejects_special_angles():
    with pytest.raises(ThetaNearSpecialValueError):
        two_qubit_optimal(math.pi / 4.0)
    with pytest.raises(ThetaOutOfDomainError):
        two_qubit_optimal(2.0)


@given(st.floats(min_value=0.02, max_value=math.pi / 2.0 - 0.02))
@settings(max_examples=40, deadline=None)
def test_optimal_q_bounds_and_symmetry(theta):
    if abs(theta - math.pi / 4.0) < 1e-6:
        return
    q = optimal_q(theta)
    assert 0.5 < q <= 0.6
    assert abs(q - optimal_q(math.pi / 2.0 - theta)) < 1e-12


def test_product_state_strategies():
    zero = product_state_strategy("zero")
    one = product_state_strategy("one")
    assert metrics(zero).q == 0.0
    assert metrics(one).q == 0.0
    assert zero.settings[0].label == "00"
    assert one.settings[0].label == "11"
    assert exact_sample_count(zero, 0.01, 0.1).n_exact == 230
    with pytest.raises(ValidationError):
        product_state_strategy("plus")


def test_measurement_setting_validation():
    good = basis_projector = HermitianOperator(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    MeasurementSetting(projector=good, weight=0.5, label="P", locality=Locality.PRODUCT_PROJECTOR)
    not_projector = HermitianOperator(0.5 * np.eye(4, dtype=complex))
    with pytest.raises(ValidationError):
        MeasurementSetting(
            projector=not_projector, weight=0.5, label="P",
            locality=Locality.PRODUCT_PROJECTOR,
        )
    with pytest.raises(ValidationError):
        MeasurementSetting(
            projector=good, weight=0.0, label="P",
            locality=Locality.PRODUCT_PROJECTOR,
        )
    with pytest.raises(ValidationError):
        MeasurementSetting(
            projector=good, weight=0.5, label="",
            locality=Locality.PRODUCT_PROJECTOR,
        )


def test_measurement_setting_rejects_entangled_projector_marked_local():
    bell = Ket.normalized([1.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValidationError):
        MeasurementSetting(
            projector=bell.density(), weight=1.0, label="bell",
            locality=Locality.PRODUCT_PROJECTOR,
        )
    # explicitly nonlocal settings skip the separability screen
    MeasurementSetting(
        projector=bell.density(), weight=1.0, label="bell",
        locality=Locality.NONLOCAL,
    )


def test_strategy_requires_weights_summing_to_one():
    psi = Ket.normalized([1.0, 0.0, 0.0, 1.0])
    setting = MeasurementSetting(
        projector=identity(4), weight=0.5, label="I",
        locality=Locality.NONLOCAL,
    )
    with pytest.raises(ValidationError):
        Strategy(target=psi, settings=(setting,), kind=StrategyKind.CUSTOM)


def test_strategy_requires_fixing_target():
    psi = Ket.normalized([1.0, 0.0, 0.0, 1.0])
    wrong = MeasurementSetting(
        projector=Ket.normalized([0.0, 1.0, 1.0, 0.0]).density(),
        weight=1.0,
        label="wrong",
        locality=Locality.NONLOCAL,
    )
    with pytest.raises(ValidationError):
        Strategy(target=psi, settings=(wrong,), kind=StrategyKind.CUSTOM)


def test_strategy_omega_read_only():
    strat = bell_strategy()
    with pytest.raises(ValueError):
        strat.omega[0, 0] = 5.0


@pytest.mark.parametrize("theta", [math.pi / 8.0, 0.7])
def test_local_transport_preserves_worst_case(theta):
    strat = two_qubit_optimal(theta)
    rng = np.random.default_rng(7)

    def random_unitary():
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(raw)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u, v = random_unitary(), random_unitary()
    moved = local_transport(strat, u, v)
    m0, m1 = metrics(strat), metrics(moved)
    assert abs(m0.q - m1.q) < 1e-10
    assert abs(m0.trace - m1.trace) < 1e-10
    joint = np.kron(u, v)
    assert np.max(np.abs(moved.omega - joint @ strat.omega @ joint.conj().T)) < 1e-10


def test_local_transport_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        local_transport(bell_strategy(), np.eye(2) * 2.0, np.eye(2))
    with pytest.raises(BadDimError):
        local_transport(bell_strategy(), np.eye(4), np.eye(2))


def test_exact_sample_count_validation():
    strat = bell_strategy()
    with pytest.raises(ValidationError):
        exact_sample_count(strat, 0.0, 0.1)
    with pytest.raises(ValidationError):
        exact_sample_count(strat, 0.01, 1.0)
    report = exact_sample_count(strat, 0.01, 0.1)
    assert report.n_exact == 345
    assert report.method_label == "bell strategy"
    assert report.p0 == 1.0


def test_exact_sample_count_rejects_degenerate():
    psi = Ket.normalized([1.0, 0.0, 0.0, 1.0])
    lazy = MeasurementSetting(
        projector=identity(4), weight=1.0, label="I", locality=Locality.NONLOCAL
    )
    strat = Strategy(target=psi, settings=(lazy,), kind=StrategyKind.CUSTOM)
    assert metrics(strat).degenerate
    with pytest.raises(DegenerateStrategyError):
        exact_sample_count(strat, 0.01, 0.1)


@pytest.mark.parametrize(
    "build",
    [bell_strategy, lambda: two_qubit_optimal(0.6), lambda: product_state_strategy("zero")],
)
def test_json_round_trip(build):
    strat = build()
    doc = to_json_dict(strat)
    again = strategy_from_json(doc)
    assert again.kind is strat.kind
    assert np.array_equal(again.target.amplitudes, strat.target.amplitudes)
    assert np.max(np.abs(again.omega - strat.omega)) < 1e-14
    assert [s.label for s in again.settings] == [s.label for s in strat.settings]
    assert to_json_dict(again) == doc


def test_from_json_rejects_tampered_weights():
    doc = to_json_dict(bell_strategy())
    doc["settings"][0]["weight"] = 0.9
    with pytest.raises(ValidationError):
        strategy_from_json(doc)


def test_from_json_rejects_a_document_without_settings():
    doc = to_json_dict(bell_strategy())
    doc["settings"] = []
    with pytest.raises(ValidationError, match="strategy needs at least one setting"):
        strategy_from_json(doc)


@pytest.mark.parametrize("theta", ["abc", [1, 2], {"x": 1}])
def test_from_json_rejects_non_numeric_theta(theta):
    doc = to_json_dict(two_qubit_optimal(0.6))
    doc["theta"] = theta
    with pytest.raises(ValidationError):
        strategy_from_json(doc)


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_from_json_rejects_non_finite_theta(theta):
    doc = to_json_dict(two_qubit_optimal(0.6))
    doc["theta"] = theta
    with pytest.raises(ValidationError):
        strategy_from_json(doc)


@pytest.mark.parametrize(
    "kind,theta",
    [
        (StrategyKind.BELL, math.nan),
        (StrategyKind.BELL, math.inf),
        (StrategyKind.BELL, -math.inf),
        (StrategyKind.BELL, "0.6"),
        ("bell", None),
        (None, None),
    ],
)
def test_strategy_rejects_a_bad_kind_or_theta(kind, theta):
    built = bell_strategy()
    with pytest.raises(ValidationError):
        Strategy(target=built.target, settings=built.settings, kind=kind, theta=theta)


@pytest.mark.parametrize("theta", [np.float32(0.3), np.float64(0.3), np.int64(1), 1])
def test_strategy_reads_a_numpy_theta_as_a_python_float(theta):
    built = bell_strategy()
    strat = Strategy(target=built.target, settings=built.settings, kind=StrategyKind.BELL, theta=theta)
    assert type(strat.theta) is float
    assert strat.theta == float(theta)


def test_from_json_theta_is_a_float_or_none():
    doc = to_json_dict(two_qubit_optimal(0.6))
    doc["theta"] = "0.6"
    assert strategy_from_json(doc).theta == 0.6
    doc["theta"] = None
    assert strategy_from_json(doc).theta is None


@pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0, -0.1, float("nan")])
def test_delta_eps_rejects_epsilon_outside_open_unit_interval(epsilon):
    with pytest.raises(ValidationError):
        metrics(bell_strategy()).delta_eps(epsilon)


def test_invariant_defect_respects_tolerance():
    built = bell_strategy()
    assert invariant_defect(built.target, built.omega) is None
    shifted = built.omega + 3e-11 * np.eye(4)
    assert invariant_defect(built.target, shifted) is None
    # TOL_DERIVED is 1e-10
    assert "residual" in invariant_defect(built.target, built.omega + 3e-10 * np.eye(4))
    # still fixes |00>, but its orthogonal eigenvalues drift below 0
    product = product_state_strategy("zero")
    low = product.omega - 3e-11 * (np.eye(4) - product.omega)
    assert invariant_defect(product.target, low) is None
    lower = product.omega - 3e-10 * (np.eye(4) - product.omega)
    assert "escapes [0, 1]" in invariant_defect(product.target, lower)
