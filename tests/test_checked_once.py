"""Each check on the warm analysis path runs once, and each rewrite that
made it so gives the bits of the route it replaced.

Three routes are covered:

* a dense strategy's own checks (strategy._check_strategy): a builder runs
  them once, after its settings' checks; a directly built Strategy runs
  them once, before its settings' checks;
* the certainty-count report: epsilon, delta and the gap are checked
  once, the count is computed once, and the report is assembled from
  those checked fields. oracles.count_report is the former route, which
  built a fully validated SampleCountReport;
* the certificate polish: T and the P at both ends of the phi window are
  checked once per certificate, and the golden-section search then
  evaluates unchecked. oracles.alpha_minimized is the former step, which
  checked P and T through ridge_alpha and ridge_q at every evaluation.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qverify import adversary, samplecount, strategy
from qverify.adversary import certify_optimality
from qverify.errors import QVerifyError, ValidationError
from qverify.qcore import PAULI_X, PAULI_Z, HermitianOperator, Ket
from qverify.samplecount import StrategyMetrics, certainty_count_report, check_theta
from qverify.strategy import (
    Locality,
    MeasurementSetting,
    Strategy,
    StrategyKind,
    bell_strategy,
    local_transport,
    product_state_strategy,
    to_json_dict,
    two_qubit_optimal,
)


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _outcome(fn, *args):
    """("ok", value) of fn(*args), or the type and message of its error."""
    try:
        return "ok", fn(*args)
    except QVerifyError as exc:
        return type(exc), str(exc)


# ------------------------------------------------------------ dense strategies

_BASE = two_qubit_optimal(0.6)
_BUILDS = {
    "bell": bell_strategy,
    "two-qubit": lambda: two_qubit_optimal(0.6),
    "product": lambda: product_state_strategy("one"),
    "transport": lambda: local_transport(_BASE, PAULI_X, PAULI_Z),
    "json": lambda: strategy._from_json_dict(to_json_dict(_BASE)),
    "direct": lambda: Strategy(_BASE.target, _BASE.settings, _BASE.kind, _BASE.theta),
}


@pytest.mark.parametrize("route", sorted(_BUILDS))
def test_the_strategy_checks_run_once_per_build(route, monkeypatch):
    calls = _counted(monkeypatch, strategy, "_check_strategy")
    built = _BUILDS[route]()
    assert len(calls) == 1
    target, settings_, kind, theta = calls[0]
    assert target is built.target and kind is built.kind
    assert settings_ == built.settings


def test_a_lone_setting_runs_no_strategy_check(monkeypatch):
    calls = _counted(monkeypatch, strategy, "_check_strategy")
    s = _BASE.settings[0]
    MeasurementSetting(s.projector, s.weight, s.label, s.locality)
    assert calls == []


@pytest.mark.parametrize("theta", [np.float64(0.3), 1, 0.3])
def test_builders_store_the_checked_float_theta(theta):
    assert type(check_theta(theta)) is float
    built = two_qubit_optimal(theta)
    assert type(built.theta) is float and built.theta == float(theta)
    assert type(local_transport(built, PAULI_X, PAULI_Z).theta) is float
    assert type(Strategy(built.target, built.settings, built.kind, theta).theta) is float
    assert type(certify_optimality(theta, 8, 1).theta) is float


def _one_qubit_weights(weights):
    """(document, settings) of settings diag(1, 0) with these weights on
    target |0>: Omega = (sum of weights) |0><0| fixes |0> and keeps its
    spectrum in [0, 1] within TOL_DERIVED for any sum within 1e-10 of 1."""
    projector = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    doc = {
        "kind": "custom",
        "target": [[1.0, 0.0], [0.0, 0.0]],
        "settings": [
            {"label": f"s{i}", "weight": w, "locality": "nonlocal", "projector": projector}
            for i, w in enumerate(weights)
        ],
    }
    settings_ = tuple(
        MeasurementSetting(HermitianOperator(np.diag([1.0, 0.0])), w, f"s{i}", Locality.NONLOCAL)
        for i, w in enumerate(weights)
    )
    return doc, settings_


def _direct(settings_):
    return Strategy(Ket(np.array([1.0, 0.0])), settings_, StrategyKind.CUSTOM)


@pytest.mark.parametrize("entry", ["builder", "direct"])
def test_the_weight_sum_is_checked_within_tol_input(entry):
    # 2e-12 over is rejected by the sum check alone: Omega still fixes the
    # target and keeps its spectrum within TOL_DERIVED of [0, 1]
    build = strategy._from_json_dict if entry == "builder" else _direct
    inside, outside = (_one_qubit_weights([0.5, 0.5 + off]) for off in (0.9e-12, 2e-12))
    build(inside[0] if entry == "builder" else inside[1])
    with pytest.raises(ValidationError, match="setting weights sum to"):
        build(outside[0] if entry == "builder" else outside[1])


def test_each_entry_keeps_its_first_error_order():
    # a bad weight sum and a non-projector setting: a builder reports the
    # setting first, a direct Strategy its own check first
    doc, _ = _one_qubit_weights([0.5, 0.6])
    doc["settings"][1]["projector"] = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValidationError, match="is not a projector"):
        strategy._from_json_dict(doc)
    half = MeasurementSetting.__new__(MeasurementSetting)
    half.__dict__.update(projector=HermitianOperator(np.diag([0.5, 0.0])), weight=0.6,
                         label="s1", locality=Locality.NONLOCAL)
    _, good = _one_qubit_weights([0.5])
    with pytest.raises(ValidationError, match="setting weights sum to"):
        _direct(good + (half,))


# -------------------------------------------------------- certainty counts


@st.composite
def dyadic_ties(draw):
    """(q, epsilon, delta) with (1 - epsilon (1 - q))**n == delta exactly for
    some n, or delta one ulp beside such a power: the exact count's ties."""
    b, d = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    epsilon = draw(st.integers(1, 2**b - 1)) / 2**b
    q = draw(st.integers(0, 2**d - 1)) / 2**d
    delta = 1.0
    for _ in range(draw(st.integers(1, 53 // (b + d)))):
        delta *= 1.0 - epsilon * (1.0 - q)  # exact: at most 53 significant bits
    side = draw(st.sampled_from([0.0, 1.0]))
    delta = draw(st.sampled_from([delta, math.nextafter(delta, side)]))
    return q, epsilon, delta


probabilities = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
anything = st.floats(-0.5, 1.5) | st.sampled_from([math.nan, math.inf, 0.0, 1.0, 1.0 - 1e-10])
cases = dyadic_ties() | st.tuples(st.floats(0.0, 1.0), probabilities, probabilities) | st.tuples(
    anything, anything, anything)


@given(case=cases)
@settings(max_examples=300, deadline=None)
@example(case=(0.0, 0.5, 2.0**-29))  # the golden samplecount-tie case
@example(case=(1.0 / 3.0, 0.01, 0.1))  # the Bell count: eps - eps q has other bits
@example(case=(-0.5, 0.9, 0.1))  # a gap above 1
@example(case=(math.nan, 0.5, 0.1))
def test_certainty_count_report_equals_the_validated_report(case):
    q, epsilon, delta = case
    metrics = StrategyMetrics(q=q, trace=1.0 + 3.0 * q)
    ours = _outcome(certainty_count_report, metrics, epsilon, delta, "label")
    theirs = _outcome(oracles.count_report, metrics, epsilon, delta, "label")
    assert ours[0] == theirs[0]
    if ours[0] != "ok":
        assert ours == theirs
        return
    assert ours[1] == theirs[1]
    for f in dataclasses.fields(samplecount.SampleCountReport):
        mine, other = getattr(ours[1], f.name), getattr(theirs[1], f.name)
        assert type(mine) is type(other) and repr(mine) == repr(other), f.name


def test_one_exact_count_per_report(monkeypatch):
    inner = _counted(monkeypatch, samplecount, "_exact_count")
    outer = _counted(monkeypatch, samplecount, "exact_count")
    report = certainty_count_report(StrategyMetrics(1.0 / 3.0, 2.0), 0.01, 0.1, "bell")
    assert report.n_exact == 345
    assert len(inner) == 1 and outer == []


def test_the_figure_tables_count_each_row_once(monkeypatch):
    inner = _counted(monkeypatch, samplecount, "_exact_count")
    rows = samplecount.figure1_data(0.01, 0.1)
    assert len(inner) == len(rows)
    inner.clear()
    rows = samplecount.figure2_data(math.pi / 8, 0.1)
    assert len(inner) == 2 * len(rows)  # n_local and n_global


# ---------------------------------------------------- the certificate polish

_THETAS = [t for t in np.linspace(0.0, math.pi / 2, 41)[1:-1].tolist()
           if abs(t - math.pi / 4) > 1e-3]
_THETAS += [math.pi / 12, math.pi / 8, math.pi / 5, 3 * math.pi / 8]  # the benchmark's


@pytest.mark.parametrize("theta", _THETAS)
def test_the_polish_gives_the_former_routes_bits(theta, monkeypatch):
    ours = certify_optimality(theta)
    assert all(type(v) in (float, int) for v in dataclasses.astuple(ours))
    monkeypatch.setattr(adversary, "_alpha_minimized", oracles.alpha_minimized)
    assert repr(ours) == repr(certify_optimality(theta))


@given(phi=st.floats(1e-9, math.pi / 2 - 1e-9), theta=st.floats(0.0, math.pi / 2 - 1e-9))
@settings(max_examples=300, deadline=None)
@example(phi=0.05, theta=1.2)  # off the ridge: alpha = 0
def test_each_polish_step_gives_the_former_steps_bits(phi, theta):
    big_p, big_t = math.tan(phi) ** 2, math.tan(theta) ** 2
    assert repr(adversary._alpha_minimized(big_p, big_t)) == repr(
        oracles.alpha_minimized(big_p, big_t))


_CERTIFICATES = [(0.3, 8, 1), (0.3, 80, 320), (1.1, 400, 4000), (0.7, 30, 7), (0.2, 400, 10)]


@pytest.mark.parametrize("theta,resolution,refine", _CERTIFICATES)
def test_the_ridge_is_checked_once_per_certificate(theta, resolution, refine, monkeypatch):
    # one _check_ridge call however many golden-section steps the window takes
    checks = _counted(monkeypatch, adversary, "_check_ridge")
    steps = _counted(monkeypatch, adversary, "_alpha_minimized")
    certify_optimality(theta, resolution, refine)
    assert len(checks) == 1
    assert len(steps) > 20


def test_the_golden_steps_vary_with_the_window(monkeypatch):
    counts = set()
    for resolution in (8, 400):
        steps = _counted(monkeypatch, adversary, "_alpha_minimized")
        certify_optimality(0.3, resolution, 10)
        counts.add(len(steps))
        monkeypatch.undo()
    assert len(counts) == 2


@pytest.mark.parametrize("theta,resolution,refine", _CERTIFICATES)
def test_the_window_check_covers_every_polish_step(theta, resolution, refine, monkeypatch):
    # the one check reads T and the P at both window ends; every P the
    # golden-section search evaluates lies between them
    checks = _counted(monkeypatch, adversary, "_check_ridge")
    steps = _counted(monkeypatch, adversary, "_alpha_minimized")
    certify_optimality(theta, resolution, refine)
    (ends, big_t), = checks
    assert len(ends) == 2 and big_t == math.tan(theta) ** 2
    assert all(ends[0] <= p <= ends[1] and t == big_t for p, t in steps)
    assert min(p for p, _ in steps) == ends[0] and max(p for p, _ in steps) == ends[1]
