import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify.errors import UndefinedDivergenceError, ValidationError
from qverify.samplecount import (
    FIG1_COLUMNS,
    FIG2_COLUMNS,
    HypothesisSpec,
    SampleCountReport,
    asymptotic_count,
    chernoff_stein_count,
    default_theta_grid,
    exact_count,
    figure1_data,
    figure2_data,
    relative_entropy,
    theta_family,
)
from oracles import float_exact_count, fraction_exact_count


def test_exact_count_frozen_values():
    # global bound at the headline operating point, and the Bell count
    assert exact_count(0.01, 0.1) == 230
    assert exact_count(0.01 * 2.0 / 3.0, 0.1) == 345


def test_asymptotic_count_frozen_values():
    assert abs(asymptotic_count(0.01, 0.1) - 230.25850929940455) < 1e-12
    assert abs(asymptotic_count(0.01 * 2.0 / 3.0, 0.1) - 345.3877639491067) < 1e-12


def test_exact_count_validation():
    for bad_gap in (0.0, 1.5, -0.1):
        with pytest.raises(ValidationError):
            exact_count(bad_gap, 0.1)
    for bad_delta in (0.0, 1.0):
        with pytest.raises(ValidationError):
            exact_count(0.01, bad_delta)


def test_exact_count_rejects_a_gap_whose_count_overflows():
    # log(delta) / log1p(-5e-324) is infinite: no float holds the count
    with pytest.raises(ValidationError):
        exact_count(5e-324, 0.5)
    assert exact_count(1e-300, 0.5) == math.ceil(math.log(2.0) / 1e-300)


def test_exact_count_certain_gap():
    # gap 1 means a single copy rejects with certainty
    assert exact_count(1.0, 0.1) == 1


def _dyadic_ties():
    """(delta_eps, delta, n) with delta = (1 - delta_eps)**n exactly, a
    normal double below 1, for delta_eps in 1/2, 1/4, 3/4, 1/8, 3/8, 1/16."""
    ties = []
    for gap in (0.5, 0.25, 0.75, 0.125, 0.375, 0.0625):
        ratio = power = 1 - Fraction(gap)
        for n in range(1, 1023):
            if Fraction(float(power)) == power and float(power) >= sys.float_info.min:
                ties.append((gap, float(power), n))
            power *= ratio
    return ties


def test_exact_count_decides_dyadic_ties():
    # at a tie n copies suffice exactly; the float route misses some (344
    # of these 1,619 with glibc), e.g. (1/2)**29, where it returns 30
    ties = _dyadic_ties()
    assert len(ties) == 1619
    assert all(exact_count(gap, delta) == n for gap, delta, n in ties)
    assert all(fraction_exact_count(gap, delta) == n for gap, delta, n in ties)
    assert exact_count(0.5, 2.0**-29) == 29 and float_exact_count(0.5, 2.0**-29) == 30
    assert any(float_exact_count(gap, delta) != n for gap, delta, n in ties)


def test_exact_count_matches_the_fraction_oracle_next_to_powers():
    # delta = float((1 - delta_eps)**n) and its two neighbours: the float
    # route is off by one on about a third of these
    rng = np.random.default_rng(31)
    float_misses = 0
    for _ in range(250):
        gap, n = float(10 ** rng.uniform(-3.0, -0.001)), int(rng.integers(1, 400))
        power = float((1 - Fraction(gap)) ** n)
        for delta in (np.nextafter(power, 0.0), power, np.nextafter(power, 1.0)):
            delta = float(delta)
            if 0.0 < delta < 1.0:
                expected = fraction_exact_count(gap, delta)
                assert exact_count(gap, delta) == expected
                float_misses += float_exact_count(gap, delta) != expected
    assert float_misses > 0


@given(
    gap=st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
    delta=st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
)
@settings(max_examples=60, deadline=None)
def test_exact_count_matches_the_fraction_oracle(gap, delta):
    assert exact_count(gap, delta) == fraction_exact_count(gap, delta)


@given(
    gap=st.floats(min_value=1e-6, max_value=0.999),
    delta=st.floats(min_value=1e-6, max_value=0.999),
)
@settings(max_examples=60, deadline=None)
def test_exact_count_meets_target(gap, delta):
    n = exact_count(gap, delta)
    assert (1.0 - gap) ** n <= delta + 1e-12
    if n > 1:
        assert (1.0 - gap) ** (n - 1) > delta * (1.0 - 1e-12)


@given(
    gap=st.floats(min_value=1e-6, max_value=0.5),
    delta=st.floats(min_value=1e-6, max_value=0.9),
    shrink=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=40, deadline=None)
def test_exact_count_monotone_in_gap_and_delta(gap, delta, shrink):
    base = exact_count(gap, delta)
    assert exact_count(gap * shrink, delta) >= base
    assert exact_count(gap, delta * shrink) >= base


@given(
    gap=st.floats(min_value=1e-8, max_value=0.01),
    delta=st.floats(min_value=1e-6, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_asymptotic_within_two_percent_for_small_gaps(gap, delta):
    exact = exact_count(gap, delta)
    approx = asymptotic_count(gap, delta)
    assert abs(approx - exact) / exact <= 0.02


def test_sample_count_report_validates_consistency():
    with pytest.raises(ValidationError):
        SampleCountReport(
            delta=0.1,
            delta_eps=0.01,
            n_exact=123,  # wrong on purpose: exact formula gives 230
            n_asymptotic=230.3,
            method_label="broken",
            p0=1.0,
        )


def test_hypothesis_spec_validation():
    with pytest.raises(ValidationError):
        HypothesisSpec(p0=0.5, p1=0.6)
    spec = HypothesisSpec.from_gap(1.0, 0.25)
    assert spec.p0 == 1.0 and spec.p1 == 0.75


def test_relative_entropy_endpoints():
    assert abs(relative_entropy(1.0, 0.25) - math.log(4.0)) < 1e-12
    assert relative_entropy(0.5, 0.5) == 0.0
    with pytest.raises(UndefinedDivergenceError):
        relative_entropy(0.5, 0.0)
    for b in (1e-9, 0.3, 0.75):
        assert relative_entropy(0.0, b) == pytest.approx(-math.log(1.0 - b), rel=1e-12)
    assert relative_entropy(0.0, 0.0) == relative_entropy(1.0, 1.0) == 0.0


def test_relative_entropy_positive_off_diagonal():
    assert relative_entropy(0.9, 0.5) > 0.0
    assert relative_entropy(0.2, 0.6) > 0.0


def test_chernoff_stein_linear_regime_matches_exact_count():
    # with certain acceptance of the target the test is one-sided and
    # the count reproduces the exact geometric formula
    for gap in (0.01, 0.003, 2.0 / 300.0, 1.0):
        report = chernoff_stein_count(HypothesisSpec.from_gap(1.0, gap), 0.1)
        assert report.n_exact == exact_count(gap, 0.1)
        assert "linear" in report.method_label


def test_chernoff_stein_perfect_test():
    # p1 = 0: the divergence is infinite and one copy decides
    report = chernoff_stein_count(HypothesisSpec.from_gap(1.0, 1.0), 0.1)
    assert report.n_exact == exact_count(1.0, 0.1) == 1
    assert report.n_asymptotic == 0.0
    with pytest.raises(UndefinedDivergenceError):
        chernoff_stein_count(HypothesisSpec(p0=0.5, p1=0.0), 0.1)


def test_chernoff_stein_quadratic_regime_label():
    report = chernoff_stein_count(HypothesisSpec(p0=0.5, p1=0.49), 0.1)
    assert "quadratic" in report.method_label
    direct = math.log(1.0 / 0.1) / relative_entropy(0.5, 0.49)
    assert abs(report.n_asymptotic - direct) < 1e-9


@given(
    p0=st.floats(min_value=0.2, max_value=0.99),
    gap=st.floats(min_value=0.001, max_value=0.1),
)
@settings(max_examples=40, deadline=None)
def test_chernoff_stein_sandwich(p0, gap):
    # D(p0 || p0 - gap) >= gap**2 / something positive, and the count is
    # finite and at least 1
    spec = HypothesisSpec(p0=p0, p1=p0 - gap)
    report = chernoff_stein_count(spec, 0.1)
    assert report.n_exact >= 1
    assert report.n_asymptotic > 0.0
    assert relative_entropy(p0, p0 - gap) > 0.0


def test_regime_slopes_on_log_grid():
    gaps = np.logspace(-4, -2, 20)
    ns_linear = [
        chernoff_stein_count(HypothesisSpec.from_gap(1.0, g), 0.1).n_asymptotic
        for g in gaps
    ]
    ns_quad = [
        chernoff_stein_count(HypothesisSpec(p0=0.5, p1=0.5 - g), 0.1).n_asymptotic
        for g in gaps
    ]
    slope_lin = np.polyfit(np.log(gaps), np.log(ns_linear), 1)[0]
    slope_quad = np.polyfit(np.log(gaps), np.log(ns_quad), 1)[0]
    assert abs(slope_lin + 1.0) < 0.02
    assert abs(slope_quad + 2.0) < 0.05


def test_default_theta_grid_snaps_to_special_angles():
    grid = default_theta_grid()
    assert len(grid) == 200
    assert grid[0] == 0.0
    assert grid[-1] == math.pi / 2.0
    assert np.all(np.diff(grid) >= 0.0)


def test_theta_family_dispatch():
    assert theta_family(0.0) == "product"
    assert theta_family(math.pi / 2.0) == "product"
    assert theta_family(math.pi / 4.0) == "bell"
    assert theta_family(0.3) == "two-qubit-optimal"


def test_figure1_endpoints_and_bell_row():
    rows = figure1_data(0.01, 0.1)
    assert len(rows) == 200
    assert rows[0].n_exact == 230 and rows[0].family == "product"
    assert rows[-1].n_exact == 230 and rows[-1].family == "product"
    bell_rows = [r for r in rows if r.family == "bell"]
    assert len(bell_rows) == 1
    assert bell_rows[0].n_exact == 345
    assert len(rows[0]) == len(FIG1_COLUMNS)


def test_figure1_symmetric_in_theta():
    # q(theta) = q(pi/2 - theta), so counts over an explicitly mirrored
    # grid coincide (the default grid snaps pi/4 to one side and is not
    # itself mirror symmetric)
    thetas = np.array([0.3, 0.7, math.pi / 2.0 - 0.7, math.pi / 2.0 - 0.3])
    rows = figure1_data(0.01, 0.1, thetas=thetas)
    counts = [r.n_exact for r in rows]
    assert counts == counts[::-1]


def test_figure2_columns_and_reference_scaling():
    rows = figure2_data(math.pi / 8.0, 0.1, epsilons=np.array([1e-3, 1e-2]))
    assert len(rows) == 2
    assert len(rows[0]) == len(FIG2_COLUMNS)
    # reference curves are pure 1/eps^2 with unit constants
    assert abs(rows[0].n_tomo_ref - 1e6) < 1e-6
    assert abs(rows[1].n_tomo_ref - 1e4) < 1e-8
    # local beats nothing but stays within a constant of global
    assert rows[0].n_local >= rows[0].n_global


def test_figure2_frozen_local_count():
    rows = figure2_data(math.pi / 8.0, 0.1, epsilons=np.array([0.01]))
    assert rows[0].n_local == 541


def test_figure_rows_are_python_tuples_in_column_order():
    fig1 = figure1_data(0.01, 0.1, thetas=np.array([0.0, 0.3, math.pi / 4]))
    fig2 = figure2_data(math.pi / 8.0, 0.1, epsilons=np.array([1e-3, 1e-2]))
    for rows, columns in ((fig1, FIG1_COLUMNS), (fig2, FIG2_COLUMNS)):
        for row in rows:
            assert isinstance(row, tuple) and row._fields == columns
            assert tuple(getattr(row, c) for c in columns) == tuple(row)
            assert {type(v) for v in row} <= {float, int, str}
