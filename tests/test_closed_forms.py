"""The closed-form home of the Bell, product and two-qubit figures.

samplecount.family_metrics gives q, trace and gap without building a
strategy. The dense eigenproblem (strategy.metrics of the built
strategy) is its oracle, and the retired per-angle dense dispatch of the
figure tables is the oracle of their errors. The two-qubit q and trace
must be the correctly rounded values of the exact rationals in the float
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

from qverify import samplecount, strategy
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
from qverify.strategy import exact_sample_count, metrics

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
    dense = metrics(dense_strategy(theta))
    assert abs(closed.q - dense.q) <= 1e-12
    assert abs(closed.trace - dense.trace) <= 1e-12
    assert abs(closed.second_eigenvalue_gap - dense.second_eigenvalue_gap) <= 1e-12
    assert closed.second_eigenvalue_gap == 1.0 - closed.q


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
    assert metrics(strategy.bell_strategy()) == bell
    for which in ("zero", "one"):
        assert metrics(strategy.product_state_strategy(which)) == product


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
    assert m.second_eigenvalue_gap == 1.0 - q


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


def test_figure1_counts_match_the_dense_route():
    # every copy count is unchanged; n_asymptotic moves only in its last bits
    rows = figure1_data(0.01, 0.1)
    for row in rows:
        report = exact_sample_count(dense_strategy(row.theta), 0.01, 0.1)
        assert row.n_exact == report.n_exact
        assert math.isclose(row.n_asymptotic, report.n_asymptotic, rel_tol=1e-12)


def dense_figure1(epsilon, delta, thetas):
    return [exact_sample_count(dense_strategy(float(t)), epsilon, delta) for t in thetas]


def dense_figure2(theta, delta):
    found = metrics(dense_strategy(float(theta)))
    return samplecount.certainty_count_report(found, 0.01, delta, "dense")


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
    monkeypatch.setattr(strategy, "metrics", lambda s: pytest.fail("dense metrics read"))
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
