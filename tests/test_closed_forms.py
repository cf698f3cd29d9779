"""The closed-form home of the Bell, product and two-qubit figures.

samplecount.family_metrics gives q and trace without building a
strategy, and the strategies of bell_strategy, product_state_strategy
and two_qubit_optimal hold it as their metrics, so the library, the
figure tables and the CLI print the same bits. The dense eigenproblem of
the built strategy's omega (oracles.dense_metrics) is its oracle, and
the retired per-angle dense dispatch of the figure tables is the oracle
of their errors. Any other strategy, even one whose kind names a family,
reports its own dense metrics. The two-qubit q and trace must be the
correctly rounded values of the exact rationals in the float
s = sin 2theta, which Fraction arithmetic gives independently.
"""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify import qcore, samplecount, stabilizer, strategy
from qverify.cli import main
from qverify.errors import ThetaNearSpecialValueError, ThetaOutOfDomainError, ValidationError
from qverify.samplecount import (
    default_theta_grid,
    family_metrics,
    figure1_data,
    figure2_data,
    optimal_q,
    theta_family,
)
from qverify.strategy import (
    MeasurementSetting,
    Strategy,
    StrategyKind,
    exact_sample_count,
    metrics,
)

from oracles import dense_metrics

angles = st.floats(0.0, math.pi / 2)


def dense_strategy(theta):
    """The strategy the figure tables built per angle before the closed form."""
    family = theta_family(theta)
    if family == "product":
        which = "zero" if abs(theta) <= math.pi / 4 else "one"
        return strategy.product_state_strategy(which)
    if family == "bell":
        return strategy.bell_strategy()
    return strategy.two_qubit_optimal(theta)


def assert_matches_dense(theta):
    closed = family_metrics(theta_family(theta), theta)
    built = dense_strategy(theta)
    dense = dense_metrics(built)
    assert abs(closed.q - dense.q) <= 1e-12
    assert abs(closed.trace - dense.trace) <= 1e-12
    assert abs(closed.second_eigenvalue_gap - dense.second_eigenvalue_gap) <= 1e-12
    assert metrics(built) == closed


def test_closed_form_matches_dense_on_the_theta_grid():
    grid = default_theta_grid()
    assert {theta_family(float(t)) for t in grid} == {"product", "bell", "two-qubit-optimal"}
    for theta in grid:
        assert_matches_dense(float(theta))


@given(theta=angles)
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_dense_at_drawn_angles(theta):
    assert_matches_dense(theta)


def test_special_families_are_exact():
    bell, product = family_metrics("bell"), family_metrics("product")
    assert (bell.q, bell.trace, bell.second_eigenvalue_gap) == (1 / 3, 2.0, 1 - 1 / 3)
    assert (product.q, product.trace, product.second_eigenvalue_gap) == (0.0, 1.0, 1.0)
    # the dense route reads the same bits for these two
    assert dense_metrics(strategy.bell_strategy()) == bell
    for which in ("zero", "one"):
        assert dense_metrics(strategy.product_state_strategy(which)) == product


def _rationals(theta):
    s = Fraction(math.sin(2.0 * theta))
    return float((2 + s) / (4 + s)), float((10 + 4 * s) / (4 + s))


def test_two_qubit_q_and_trace_are_correctly_rounded_on_the_grid():
    for theta in default_theta_grid():
        theta = float(theta)
        if theta_family(theta) != "two-qubit-optimal":
            continue
        q, trace = _rationals(theta)
        m = family_metrics("two-qubit-optimal", theta)
        assert (optimal_q(theta), m.q, m.trace) == (q, q, trace)


@given(theta=angles.filter(lambda t: theta_family(t) == "two-qubit-optimal"))
@settings(max_examples=200, deadline=None)
def test_two_qubit_q_and_trace_are_correctly_rounded(theta):
    q, trace = _rationals(theta)
    m = family_metrics("two-qubit-optimal", theta)
    assert (optimal_q(theta), m.q, m.trace) == (q, q, trace)


def test_family_metrics_checks_its_family_and_angle():
    with pytest.raises(ThetaNearSpecialValueError):
        family_metrics("two-qubit-optimal", math.pi / 4)
    with pytest.raises(ThetaOutOfDomainError):
        family_metrics("two-qubit-optimal", math.nan)
    with pytest.raises(ValidationError, match="has no closed form"):
        family_metrics("stabilizer-full", 0.3)


def test_figures_build_no_strategy_and_solve_no_eigenproblem(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the figure tables took a dense route")

    for name in ("two_qubit_optimal", "bell_strategy", "product_state_strategy", "metrics"):
        monkeypatch.setattr(strategy, name, refuse)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert len(figure1_data(0.01, 0.1)) == 200
    for theta in (0.0, 0.3, math.pi / 8, math.pi / 4, math.pi / 2):
        assert len(figure2_data(theta, 0.1)) == 61
    for which in ("fig1", "fig2"):
        assert main(["figure", "--which", which, "--out", str(tmp_path / which)]) == 0


def dense_report(theta, epsilon, delta):
    found = dense_metrics(dense_strategy(float(theta)))
    return samplecount.certainty_count_report(found, epsilon, delta, "dense")


def test_figure1_counts_match_the_dense_route():
    # every copy count is unchanged; n_asymptotic moves only in its last bits
    rows = figure1_data(0.01, 0.1)
    for row in rows:
        report = dense_report(row.theta, 0.01, 0.1)
        assert row.n_exact == report.n_exact
        assert math.isclose(row.n_asymptotic, report.n_asymptotic, rel_tol=1e-12)


def dense_figure1(epsilon, delta, thetas):
    return [dense_report(t, epsilon, delta) for t in thetas]


def dense_figure2(theta, delta):
    return dense_report(theta, 0.01, delta)


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
        return type(exc), str(exc)
    raise AssertionError("no error raised")


@pytest.mark.parametrize(
    "theta", [math.nan, -0.1, -1e-9 - 1e-12, -3.0, math.pi / 2 + 1e-8, 2.0, math.inf, -math.inf]
)
def test_figure_errors_match_the_dense_route(theta):
    thetas = np.array([0.3, theta])
    expected = _raised(lambda: dense_figure1(0.01, 0.1, thetas))
    assert _raised(lambda: figure1_data(0.01, 0.1, thetas)) == expected
    expected = _raised(lambda: dense_figure2(theta, 0.1))
    assert _raised(lambda: figure2_data(theta, 0.1)) == expected


def test_samplecount_module_imports_nothing_inside_functions():
    tree = ast.parse(Path(samplecount.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not inner, getattr(node, "name", "lambda")
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "strategy" not in modules


BUILDER_FLAGS = {
    "bell": (["--bell"], "bell", None),
    "product-zero": (["--product-zero"], "product", None),
    "product-one": (["--product-one"], "product", None),
    "two-qubit-0.6": (["--two-qubit", "--theta", "0.6"], "two-qubit-optimal", 0.6),
    "two-qubit-pi/8": (["--two-qubit", "--theta", "pi/8"], "two-qubit-optimal", math.pi / 8),
}


@pytest.mark.parametrize("case", sorted(BUILDER_FLAGS))
def test_builder_flags_print_the_closed_form(case, monkeypatch, capsys):
    flags, family, theta = BUILDER_FLAGS[case]
    expected = family_metrics(family, theta)
    # the dense route's orthocomplement block is never formed
    monkeypatch.setattr(
        qcore, "orthocomplement_basis", lambda *a: pytest.fail("dense metrics read")
    )
    assert main(["strategy", *flags, "--epsilon", "0.05", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["q"], result["trace"], result["second_eigenvalue_gap"]) == (
        expected.q, expected.trace, expected.second_eigenvalue_gap,
    )
    assert result["delta_eps"] == expected.delta_eps(0.05)
    assert main(["samplecount", *flags, "--epsilon", "0.05", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["q"], result["delta_eps"]) == (expected.q, expected.delta_eps(0.05))


@pytest.mark.parametrize("command", ["strategy", "samplecount"])
def test_builder_flags_still_build_and_strictly_verify(command, capsys):
    assert main([command, "--two-qubit", "--theta", "pi/4"]) == 2
    assert "ThetaNearSpecialValueError" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["2.0", "-0.5", "nan"])
def test_fig2_out_of_domain_angle_exits_2(theta, capsys):
    assert main(["figure", "--which", "fig2", "--theta", theta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ThetaOutOfDomainError: theta=")


AGREEMENT_CASES = {
    "bell": (["--bell"], math.pi / 4, strategy.bell_strategy),
    "product-zero": (["--product-zero"], 0.0, lambda: strategy.product_state_strategy("zero")),
    "product-one": (["--product-one"], math.pi / 2, lambda: strategy.product_state_strategy("one")),
    **{
        f"two-qubit-{arg}": (
            ["--two-qubit", "--theta", arg], theta, lambda t=theta: strategy.two_qubit_optimal(t)
        )
        for arg, theta in (("pi/8", math.pi / 8), ("0.3", 0.3), ("0.6", 0.6), ("1.1", 1.1))
    },
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_library_figures_and_cli_agree_bitwise(case, capsys):
    flags, theta, build = AGREEMENT_CASES[case]
    built = build()
    closed = family_metrics(built.kind.value, built.theta)
    assert metrics(built) == closed
    report = exact_sample_count(built, 0.01, 0.1)
    (row,) = figure1_data(0.01, 0.1, np.array([theta]))
    assert row.family == built.kind.value
    assert (row.n_exact, row.n_asymptotic) == (report.n_exact, report.n_asymptotic)
    assert report.q == closed.q
    if case == "two-qubit-pi/8":  # the value the CI job checks
        assert report.n_asymptotic == 541.9256952745664
    assert main(["samplecount", *flags, "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)["result"]
    assert (printed["q"], printed["delta_eps"], printed["n_exact"], printed["n_asymptotic"]) == (
        report.q, report.delta_eps, report.n_exact, report.n_asymptotic,
    )
    assert printed["method"] == report.method_label
    assert main(["strategy", *flags, "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)["result"]
    assert (printed["q"], printed["trace"], printed["second_eigenvalue_gap"]) == (
        closed.q, closed.trace, closed.second_eigenvalue_gap,
    )


def test_only_a_builder_strategy_holds_the_closed_form(monkeypatch):
    bell, optimum = strategy.bell_strategy(), strategy.two_qubit_optimal(0.6)
    doc = strategy.to_json_dict(strategy.product_state_strategy("zero"))
    doc["settings"][0]["projector"][0] = [1.0 + 3e-11, 0.0]  # drift below TOL_DERIVED
    # from here on, a strategy whose kind names a family must solve its own omega
    monkeypatch.setattr(strategy, "family_metrics", lambda *a: pytest.fail("closed form read"))
    from_file = stabilizer.strategy_from_json(json.loads(json.dumps(doc)))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    moved = strategy.local_transport(optimum, hadamard, np.diag([1.0, 1j]))
    # the Bell kind and target with the XX and ZZ parity checks alone: q = 1/2
    halves = [
        MeasurementSetting(s.projector, 0.5, s.label, s.locality) for s in bell.settings[::2]
    ]
    direct = Strategy(target=bell.target, settings=halves, kind=StrategyKind.BELL)
    for other in (from_file, moved, direct):
        assert metrics(other) == dense_metrics(other)
        assert exact_sample_count(other, 0.01, 0.1).q == dense_metrics(other).q
    assert from_file.kind is StrategyKind.PRODUCT_STATE
    assert metrics(from_file).trace == 1.0 + 3e-11 != family_metrics("product").trace
    assert (moved.kind, moved.theta) == (StrategyKind.TWO_QUBIT_OPTIMAL, 0.6)
    assert abs(metrics(moved).q - optimal_q(0.6)) <= 1e-12
    assert abs(metrics(direct).q - 0.5) <= 1e-12
