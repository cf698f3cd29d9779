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

It is also the one closed-form home of q and trace for the Bell,
product and two-qubit optimal strategies (family_metrics, optimal_q):
the figure tables read it without building a strategy, and the
strategies those three builders make hold it as their metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateStrategyError, ThetaNearSpecialValueError
from .errors import ThetaOutOfDomainError, UndefinedDivergenceError, ValidationError
from .qcore import TOL_DERIVED, _assembled, _integer, _real, _reals

THETA_SPECIAL_TOL = 1e-9
SPECIAL_THETAS = (0.0, math.pi / 4, math.pi / 2)


def check_probability(name: str, value: float, open_zero=True, open_one=True):
    """Raise ValidationError unless value is a real in (0, 1), closed where asked."""
    _real(name, value)
    lo_ok = value > 0.0 if open_zero else value >= 0.0
    hi_ok = value < 1.0 if open_one else value <= 1.0
    if not (lo_ok and hi_ok):
        interval = f"{'(' if open_zero else '['}0, 1{')' if open_one else ']'}"
        raise ValidationError(f"{name}={value!r} outside {interval}")


@dataclass(frozen=True)
class StrategyMetrics:
    """Worst-case figures of one strategy.

    q is the largest acceptance probability among states orthogonal to
    the target.
    """

    q: float
    trace: float

    @property
    def second_eigenvalue_gap(self) -> float:
        """1 - q, the spectral gap below the target's eigenvalue 1."""
        return 1.0 - self.q

    def delta_eps(self, epsilon: float) -> float:
        """Per-copy detection gap for infidelity epsilon in (0, 1)."""
        check_probability("epsilon", epsilon)
        return epsilon * (1.0 - self.q)

    @property
    def degenerate(self) -> bool:
        """True when some orthogonal state is accepted with certainty."""
        return self.q >= 1.0 - TOL_DERIVED


def exact_count(delta_eps: float, delta: float) -> int:
    """Copies needed so (1 - delta_eps)**n <= delta, exactly below 2**46: n
    is the ceiling of log(delta) / log1p(-delta_eps), and an exact power
    decides where an integer lies within the float quotient's error."""
    check_probability("delta_eps", delta_eps, open_one=False)
    check_probability("delta", delta)
    return _exact_count(delta_eps, delta)


def _exact_count(delta_eps: float, delta: float) -> int:  # of checked arguments
    if delta_eps == 1.0:
        return 1
    quotient = math.log(delta) / math.log1p(-delta_eps)
    if quotient == math.inf:
        raise ValidationError(f"delta_eps={delta_eps!r} needs more copies than a float holds")
    # its error bound: 16 ulps per logarithm (C libraries document 1 or 2), 1 per rounding
    low, high = math.ceil(quotient * (1.0 - 2.0**-47)), math.ceil(quotient * (1.0 + 2.0**-47))
    if low == high or high >= 2**46:  # no run can use 2**46 copies
        return math.ceil(quotient)
    return low if _power_at_most(delta_eps, low, delta) else high


def _power_at_most(delta_eps: float, n: int, delta: float) -> bool:
    """(1 - delta_eps)**n <= delta, exactly. With 1 - delta_eps = a / 2**b and
    delta = c / 2**e, [low, high] * 2**s brackets a**n / 2**(b*n - e), rounded to
    p = 64, 128, ... bits until c is not in [low, high) (exact once p holds a**n)."""
    (m, d), (c, e) = float(delta_eps).as_integer_ratio(), float(delta).as_integer_ratio()
    a, p = d - m, 64
    while True:
        low, high, s = a, a, 0
        for bit in bin(n)[3:]:
            low, high, s = low * low * a ** int(bit), high * high * a ** int(bit), 2 * s
            drop = max(high.bit_length() - p, 0)
            low, high, s = low >> drop, -(-high >> drop), s + drop
        s += e.bit_length() - 1 - (d.bit_length() - 1) * n
        # decided unless low * 2**s <= c < high * 2**s
        low_in, high_in = (x << max(s, 0) <= c << max(-s, 0) for x in (low, high))
        if low_in == high_in:
            return high_in
        p *= 2


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
        if _integer("n_exact", self.n_exact) < 1:
            raise ValidationError(f"n_exact={self.n_exact} must be positive")
        if _real("p0", self.p0) == 1.0:
            expected = _exact_count(self.delta_eps, self.delta)
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
    gap = epsilon * (1.0 - metrics.q)  # metrics.delta_eps(epsilon), epsilon checked once
    check_probability("delta_eps", gap, open_one=False)
    # assembled, not constructed: each field SampleCountReport checks is checked above
    return _assembled(
        SampleCountReport, delta=delta, delta_eps=gap, n_exact=_exact_count(gap, delta),
        n_asymptotic=-math.log(delta) / gap, method_label=method_label, epsilon=epsilon,
        q=metrics.q, p0=1.0,
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
    check_probability("a", a, open_zero=False, open_one=False)
    check_probability("b", b, open_zero=False, open_one=False)
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
    if not isinstance(spec, HypothesisSpec):
        raise ValidationError(f"spec must be a HypothesisSpec, got {spec!r}")
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
    if _integer("points", points) < 4:
        raise ValidationError("theta grid needs at least 4 points")
    grid = np.linspace(0.0, math.pi / 2, points)
    for special in SPECIAL_THETAS:
        idx = int(np.argmin(np.abs(grid - special)))
        grid[idx] = special
    return grid


def check_angle(theta: float, family: bool = False) -> float:
    """theta as a float; ThetaOutOfDomainError unless it is finite and, for
    a family angle, in [0, pi/2], the family's domain."""
    theta = _real("theta", theta)
    if not (0.0 <= theta <= math.pi / 2 if family else math.isfinite(theta)):
        domain = "[0, pi/2]" if family else "the finite reals"
        raise ThetaOutOfDomainError(f"theta={theta!r} outside {domain}")
    return theta


def theta_family(theta: float) -> str:
    """Which construction serves a given finite target angle."""
    return _family(check_angle(theta))


def _family(theta: float) -> str:  # of a checked theta
    if abs(theta) <= THETA_SPECIAL_TOL or abs(theta - math.pi / 2) <= THETA_SPECIAL_TOL:
        return "product"
    if abs(theta - math.pi / 4) <= THETA_SPECIAL_TOL:
        return "bell"
    return "two-qubit-optimal"


def check_theta(theta: float) -> float:
    """theta as a float, if it is a target angle of the four setting construction.

    Angles outside the closed interval [0, pi/2] are out of domain; inside
    it, every angle that theta_family assigns to a special construction
    is rejected as near special.
    """
    checked = check_angle(theta, family=True)
    if _family(checked) != "two-qubit-optimal":
        raise ThetaNearSpecialValueError(
            f"theta={theta!r} is within {THETA_SPECIAL_TOL} of a special angle "
            "(0, pi/4, pi/2); use product_state_strategy or bell_strategy"
        )
    return checked


def _two_qubit_q_trace(theta: float) -> tuple[float, float]:
    # q = (2 + s)/(4 + s) and trace = 1 + 3q = (10 + 4s)/(4 + s) for the
    # float s = sin 2theta = n/d; each int / int division rounds correctly
    n, d = math.sin(2.0 * theta).as_integer_ratio()
    return (2 * d + n) / (4 * d + n), (10 * d + 4 * n) / (4 * d + n)


def optimal_q(theta: float) -> float:
    """Worst-case orthogonal acceptance (2 + s)/(4 + s), s = sin 2theta, of
    the optimal local strategy, correctly rounded from the float s."""
    return _two_qubit_q_trace(check_angle(theta))[0]


def family_metrics(family: str, theta: float | None = None) -> StrategyMetrics:
    """Closed-form metrics of the strategy serving a theta_family family:
    "bell" q = 1/3, trace 2; "product" q = 0, trace 1; "two-qubit-optimal"
    q = optimal_q(theta), trace 1 + 3q, correctly rounded, at a theta that
    check_theta accepts (no other family reads theta)."""
    if not isinstance(family, str):
        raise ValidationError(f"family={family!r} has no closed form")
    if family == "bell":
        q, trace = 1.0 / 3.0, 2.0
    elif family == "product":
        q, trace = 0.0, 1.0
    elif family == "two-qubit-optimal":
        q, trace = _two_qubit_q_trace(check_theta(theta))
    else:
        raise ValidationError(f"family={family!r} has no closed form")
    return StrategyMetrics(q=q, trace=trace)


def figure1_data(
    epsilon: float, delta: float, thetas: np.ndarray | None = None
) -> list[Fig1Row]:
    """Copy counts across target angles, with per-family dispatch.

    Angles within THETA_SPECIAL_TOL of {0, pi/4, pi/2} use their
    special construction (product projector or the three setting parity
    strategy), everything else the four setting optimum, so the table
    exhibits the discontinuous drops at the special angles. Each row
    reads family_metrics; no strategy is built.
    """
    thetas = default_theta_grid() if thetas is None else _reals("thetas", thetas)
    rows = []
    for theta in thetas.ravel().tolist():
        family = theta_family(theta)
        report = certainty_count_report(
            family_metrics(family, theta), epsilon, delta, f"{family} strategy"
        )
        rows.append(
            Fig1Row(
                theta=theta,
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
    epsilons = np.logspace(-4, -1, 61) if epsilons is None else _reals("epsilons", epsilons)
    family = theta_family(theta)
    found, label = family_metrics(family, theta), f"{family} strategy"
    rows = []
    for eps in epsilons.ravel().tolist():
        local = certainty_count_report(found, eps, delta, label)  # checks eps and delta
        rows.append(Fig2Row(eps, local.n_exact, _exact_count(eps, delta), 1.0 / eps**2))
    return rows
