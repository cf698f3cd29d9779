"""Sample counts for sequential accept/reject verification.

A strategy that accepts the target with certainty and any orthogonal
state with probability at most q detects an eps-far state with
probability at least delta_eps = eps * (1 - q) per copy. Rejecting all
n copies of an honest device never happens, so the verifier needs

    n_exact = ceil( ln(1/delta) / ln(1/(1 - delta_eps)) )

copies to reach confidence 1 - delta, with the familiar asymptotic
n ~ (1/delta_eps) ln(1/delta). The same counts follow from binary
hypothesis testing: the best achievable type II exponent for
distinguishing per-copy acceptance p0 from p1 is the relative entropy
D(p0 || p1), and certainty acceptance (p0 = 1) collapses D to
ln(1/p1). For p0 < 1 the exponent degrades to roughly
delta_eps**2 / (2 p0 (1 - p0)), which is the quadratic cost of
frequency estimation versus the linear cost of certainty protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateStrategyError, ThetaOutOfDomainError
from .errors import UndefinedDivergenceError, ValidationError

THETA_SPECIAL_TOL = 1e-9
SPECIAL_THETAS = (0.0, math.pi / 4, math.pi / 2)


def check_probability(name: str, value: float, open_zero=True, open_one=True):
    """Raise ValidationError unless value lies in (0, 1), closed where asked."""
    lo_ok = value > 0.0 if open_zero else value >= 0.0
    hi_ok = value < 1.0 if open_one else value <= 1.0
    if not (lo_ok and hi_ok):
        interval = f"{'(' if open_zero else '['}0, 1{')' if open_one else ']'}"
        raise ValidationError(f"{name}={value!r} outside {interval}")


def exact_count(delta_eps: float, delta: float) -> int:
    """Copies needed so (1 - delta_eps)**n <= delta, exactly."""
    check_probability("delta_eps", delta_eps, open_one=False)
    check_probability("delta", delta)
    if delta_eps == 1.0:
        return 1
    return math.ceil(-math.log(delta) / -math.log1p(-delta_eps))


def asymptotic_count(delta_eps: float, delta: float) -> float:
    """First order approximation ln(1/delta) / delta_eps."""
    check_probability("delta_eps", delta_eps, open_one=False)
    check_probability("delta", delta)
    return -math.log(delta) / delta_eps


@dataclass(frozen=True)
class SampleCountReport:
    """Copy counts for one verification setup.

    For certainty accepting protocols (p0 == 1) the exact count obeys
    the closed form above and this is validated on construction.
    epsilon and q are None when the report came from a bare hypothesis
    test rather than a strategy.
    """

    delta: float
    delta_eps: float
    n_exact: int
    n_asymptotic: float
    method_label: str
    epsilon: float | None = None
    q: float | None = None
    p0: float = 1.0

    def __post_init__(self):
        check_probability("delta", self.delta)
        check_probability("delta_eps", self.delta_eps, open_one=False)
        if self.n_exact < 1:
            raise ValidationError(f"n_exact={self.n_exact} must be positive")
        if self.p0 == 1.0:
            expected = exact_count(self.delta_eps, self.delta)
            if self.n_exact != expected:
                raise ValidationError(
                    f"n_exact={self.n_exact} disagrees with the exact "
                    f"formula value {expected} for a certainty protocol"
                )


def certainty_count_report(
    metrics, epsilon: float, delta: float, method_label: str
) -> SampleCountReport:
    """Copies needed to reject every eps-far state with confidence 1 - delta.

    metrics are the StrategyMetrics of a strategy that accepts its
    target with certainty. Raises ValidationError for epsilon or delta
    outside (0, 1) and DegenerateStrategyError when some orthogonal
    state is accepted with certainty.
    """
    check_probability("epsilon", epsilon)
    check_probability("delta", delta)
    if metrics.degenerate:
        raise DegenerateStrategyError(
            "strategy accepts an orthogonal state with certainty; "
            "no copy count rejects the worst case"
        )
    gap = metrics.delta_eps(epsilon)
    return SampleCountReport(
        delta=delta,
        delta_eps=gap,
        n_exact=exact_count(gap, delta),
        n_asymptotic=asymptotic_count(gap, delta),
        method_label=method_label,
        epsilon=epsilon,
        q=metrics.q,
        p0=1.0,
    )


@dataclass(frozen=True)
class HypothesisSpec:
    """Binary hypothesis test between per-copy acceptance p0 and p1.

    p0 lies in (0, 1] and p1 in [0, p0). The asymptotic count depends
    only on D(p0 || p1), so no type I error level is carried.
    """

    p0: float
    p1: float

    def __post_init__(self):
        check_probability("p0", self.p0, open_one=False)
        check_probability("p1", self.p1, open_zero=False)
        if self.p1 >= self.p0:
            raise ValidationError(
                f"p1={self.p1!r} must lie strictly below p0={self.p0!r}"
            )

    @classmethod
    def from_gap(cls, p0: float, delta_eps: float) -> "HypothesisSpec":
        return cls(p0=p0, p1=p0 - delta_eps)


def relative_entropy(a: float, b: float) -> float:
    """Binary relative entropy D(a || b) in nats.

    The endpoint limits are taken exactly: D(1 || b) = ln(1/b) and
    D(0 || b) = ln(1/(1-b)). Evaluating at b in {0, 1} with a != b
    diverges and raises UndefinedDivergenceError.
    """
    if not 0.0 <= a <= 1.0:
        raise ValidationError(f"a={a!r} outside [0, 1]")
    if not 0.0 <= b <= 1.0:
        raise ValidationError(f"b={b!r} outside [0, 1]")
    if b in (0.0, 1.0):
        if a == b:
            return 0.0
        raise UndefinedDivergenceError(f"D({a} || {b}) diverges")
    if a == 1.0:
        return -math.log(b)
    if a == 0.0:
        return -math.log1p(-b)
    return a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))


def chernoff_stein_count(spec: HypothesisSpec, delta: float) -> SampleCountReport:
    """Copies needed to push type II error below delta for spec.

    n_exact = ceil(ln(1/delta) / D(p0 || p1)). For p0 == 1 the
    divergence is -log1p(-delta_eps), the exact a -> 1 limit, and the
    count is exact_count's certainty count; a perfect test (p1 = 0)
    has infinite divergence, one copy and n_asymptotic 0.
    """
    check_probability("delta", delta)
    gap = spec.p0 - spec.p1
    log_conf = -math.log(delta)
    if spec.p0 == 1.0:
        divergence = math.inf if gap == 1.0 else -math.log1p(-gap)
        n_exact = exact_count(gap, delta)
        regime = "linear regime"
    else:
        divergence = relative_entropy(spec.p0, spec.p1)
        n_exact = math.ceil(log_conf / divergence)
        regime = "quadratic regime"
    return SampleCountReport(
        delta=delta,
        delta_eps=gap,
        n_exact=n_exact,
        n_asymptotic=log_conf / divergence,
        method_label=f"chernoff-stein ({regime})",
        p0=spec.p0,
    )


class Fig1Row(NamedTuple):
    """One figure 1 table row; the fields are the CSV columns in order."""

    theta: float
    epsilon: float
    n_exact: int
    n_asymptotic: float
    family: str


class Fig2Row(NamedTuple):
    """One figure 2 table row; the fields are the CSV columns in order."""

    epsilon: float
    n_local: int
    n_global: int
    n_tomo_ref: float


FIG1_COLUMNS = Fig1Row._fields
FIG2_COLUMNS = Fig2Row._fields


def default_theta_grid(points: int = 200) -> np.ndarray:
    """Evenly spaced theta grid over [0, pi/2] with special values present.

    The grid point nearest each of {0, pi/4, pi/2} is snapped to the
    special value exactly (ties resolve to the lower index) so the grid
    always contains one row per special family.
    """
    if points < 4:
        raise ValidationError("theta grid needs at least 4 points")
    grid = np.linspace(0.0, math.pi / 2, points)
    for special in SPECIAL_THETAS:
        idx = int(np.argmin(np.abs(grid - special)))
        grid[idx] = special
    return grid


def theta_family(theta: float) -> str:
    """Which construction serves a given target angle."""
    if math.isnan(theta):
        raise ThetaOutOfDomainError(f"theta={theta!r} is not an angle")
    if abs(theta) <= THETA_SPECIAL_TOL or abs(theta - math.pi / 2) <= THETA_SPECIAL_TOL:
        return "product"
    if abs(theta - math.pi / 4) <= THETA_SPECIAL_TOL:
        return "bell"
    return "two-qubit-optimal"


def _strategy_for_theta(theta: float):
    # Imported here: the strategy module depends on this module's report
    # types, so the figure helpers resolve their dependency lazily.
    from . import strategy

    family = theta_family(theta)
    if family == "product":
        which = "zero" if abs(theta) <= math.pi / 4 else "one"
        return strategy.product_state_strategy(which), family
    if family == "bell":
        return strategy.bell_strategy(), family
    return strategy.two_qubit_optimal(theta), family


def figure1_data(
    epsilon: float, delta: float, thetas: np.ndarray | None = None
) -> list[Fig1Row]:
    """Copy counts across target angles, with per-family dispatch.

    Angles within THETA_SPECIAL_TOL of {0, pi/4, pi/2} use their
    special construction (product projector or the three setting parity
    strategy), everything else the four setting optimum, so the table
    exhibits the discontinuous drops at the special angles.
    """
    from .strategy import exact_sample_count

    if thetas is None:
        thetas = default_theta_grid()
    rows = []
    for theta in np.asarray(thetas, dtype=float):
        built, family = _strategy_for_theta(float(theta))
        report = exact_sample_count(built, epsilon, delta)
        rows.append(
            Fig1Row(
                theta=float(theta),
                epsilon=epsilon,
                n_exact=report.n_exact,
                n_asymptotic=report.n_asymptotic,
                family=family,
            )
        )
    return rows


def figure2_data(
    theta: float, delta: float, epsilons: np.ndarray | None = None
) -> list[Fig2Row]:
    """Local versus global counts over an epsilon sweep at fixed theta.

    n_local uses the per-theta dispatch of figure1_data; n_global is the
    count for the best strategy with no locality restriction, whose pass
    operator is the target projector itself (delta_eps = epsilon). The
    reference column n_tomo_ref is the illustrative curve 1/eps**2, not
    a measured cost.
    """
    if epsilons is None:
        epsilons = np.logspace(-4, -1, 61)
    built, _ = _strategy_for_theta(float(theta))
    from .strategy import metrics

    # one eigenproblem serves the whole sweep
    found, label = metrics(built), f"{built.kind.value} strategy"
    rows = []
    for eps in np.asarray(epsilons, dtype=float):
        eps = float(eps)
        local = certainty_count_report(found, eps, delta, label)
        rows.append(
            Fig2Row(
                epsilon=eps,
                n_local=local.n_exact,
                n_global=exact_count(eps, delta),
                n_tomo_ref=1.0 / eps**2,
            )
        )
    return rows
