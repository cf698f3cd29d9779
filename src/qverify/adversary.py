"""Adversarial analysis: worst-case states and optimality certification.

Two independent roads to the same optimum are implemented for the
two qubit targets sin(theta)|00> + cos(theta)|11>:

* A parametrized family sweep. Any one-copy local strategy can be
  symmetrized (phase twirl, qubit swap, complex conjugation) without
  hurting its worst case, which reduces the search to mixtures of a ZZ
  parity check (weight alpha) with complements of product states
  orthogonal to the target whose first factor has polar angle phi.
  The two relevant orthogonal acceptance eigenvalues lambda1, lambda2
  are closed forms in alpha, P = tan(phi)^2, T = tan(theta)^2.
  Minimizing max(lambda1, lambda2) over an (alpha, phi) grid, with one
  refinement pass, certifies that nothing in the family beats the
  closed-form optimum q = (2 + sin 2theta)/(4 + sin 2theta). At fixed
  phi the computed lambda1 weakly rises and lambda2 weakly falls in
  alpha, so each phi column's minimum sits at their crossing, read from
  the equalizing ridge and checked instead of evaluating every grid cell.

* A direct game value. For a strategy that fixes its target the paper's
  identity gives the most favorable state at infidelity at least
  epsilon: the best acceptance is 1 - epsilon (1 - q), attained by
  sqrt(1 - epsilon)|psi> + sqrt(epsilon)|w>, w the worst orthogonal
  state. The dual multiplier 1 - q certifies it; a strategy read from a
  file fixes its target only within TOL_DERIVED, and its bound is
  widened by that defect.

Each strategy's metrics are its one source of q and of degeneracy. The
worst orthogonal state is picked by one rule that reads only the
strategy operator, not the eigensolver's basis (top_orthogonal_eigenvector),
from the top orthogonal eigenspace's projector that each strategy type
builds (orthogonal_projector; a PauliStrategy's needs no eigenproblem and
no 2^N x 2^N array). Pure worst-case states are kept as Kets
that the protocol simulator can feed to a device model directly; a
Hilbert-Schmidt mixed state sampler with exact fidelity shifting supports
randomized sufficiency checks (a mixed state at the fidelity boundary
never beats the pure worst case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import qcore
from .errors import (
    DegenerateStrategyError,
    ThetaOutOfDomainError,
    ValidationError,
)
from .qcore import TOL_DERIVED, HermitianOperator, Ket
from .samplecount import check_angle, check_probability, check_theta, optimal_q
from .strategy import Strategy, _strategy, alpha_weight

if TYPE_CHECKING:  # annotations only: a dense caller loads no stabilizer module
    from .stabilizer import PauliStrategy

# certify_optimality: a sound sweep finds nothing below the closed form
# by more than SOUNDNESS_TOL; a located one lands within VALUE_TOL of it
# in q and LOCATION_TOL in alpha and P = tan(phi)^2
SOUNDNESS_TOL = 1e-9
VALUE_TOL = 1e-6
LOCATION_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class AdversaryState:
    """A device output candidate: the Ket of a pure one or the checked
    density of a mixed one, plus target fidelity; sigma, the density
    matrix, is built from a Ket only when read."""

    state: Ket | HermitianOperator
    fidelity: float

    def __post_init__(self):
        qcore._state("adversary state", self.state)
        if not -TOL_DERIVED <= qcore._real("fidelity", self.fidelity) <= 1 + TOL_DERIVED:
            raise ValidationError(f"fidelity {self.fidelity!r} outside [0, 1]")

    @cached_property
    def sigma(self) -> HermitianOperator:
        return self.state.density() if isinstance(self.state, Ket) else self.state


def top_orthogonal_eigenvector(strategy: Strategy | PauliStrategy) -> tuple[float, Ket]:
    """(q, state): the top acceptance q among states orthogonal to the
    target, and the state Pi|b> / sqrt(Pi_bb) that attains it.

    q is the strategy's metrics.q. Its orthogonal_projector() gives every
    Pi_bb and the columns of Pi; b is the lowest index with the largest
    Pi_bb (within TOL_DERIVED). When every orthogonal eigenvalue ties (Bell,
    two-qubit, product, full stabilizer), Pi reads only the target, so the
    state does not depend on the eigensolver's basis.
    """
    weights, column = _strategy(strategy).orthogonal_projector()
    b = int(np.argmax(weights >= weights.max() - TOL_DERIVED))
    return strategy.metrics.q, Ket(column(b) / math.sqrt(weights[b]))


def _eps_far(strategy: Strategy | PauliStrategy, epsilon: float, top: Ket) -> AdversaryState:
    """sqrt(1 - eps)|psi> + sqrt(eps)|top>, top orthogonal to the target."""
    ket = Ket(
        math.sqrt(1.0 - epsilon) * strategy.target.amplitudes
        + math.sqrt(epsilon) * top.amplitudes
    )
    return AdversaryState(ket, ket.fidelity(strategy.target))


def worst_case_state(strategy: Strategy | PauliStrategy, epsilon: float) -> AdversaryState:
    """The eps-far pure state an accept-always strategy likes most.

    sqrt(1 - eps)|psi> + sqrt(eps)|worst orthogonal>, accepted with
    probability exactly 1 - eps (1 - q). This is the hardest admissible
    device output: no state (pure or mixed) at fidelity <= 1 - eps does
    better: strategy_game_value certifies it with the dual multiplier 1 - q.
    """
    check_probability("epsilon", epsilon)
    if _strategy(strategy).metrics.degenerate:
        raise DegenerateStrategyError(
            "strategy accepts an orthogonal state with certainty"
        )
    return _eps_far(strategy, epsilon, top_orthogonal_eigenvector(strategy)[1])


def hilbert_schmidt_mixed_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix from the Hilbert-Schmidt measure.

    Partial trace of a Haar random pure state on a doubled space,
    realized as G G^dag / tr(G G^dag) for a complex Gaussian G.
    """
    if qcore._integer("dim", dim) < 1:
        raise ValidationError(f"dim {dim} must be at least 1")
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"expected a numpy Generator, got {rng!r}")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def shift_fidelity(rho: np.ndarray, target: Ket, epsilon: float) -> AdversaryState:
    """Mix a density matrix to sit exactly at fidelity 1 - epsilon.

    rho is read by qcore._state, so a rho that is no density matrix is
    bad input that names rho. Mixes with the target projector to raise
    fidelity, or with the normalized orthocomplement projector to lower
    it; either direction keeps the state a valid density matrix.
    """
    check_probability("epsilon", epsilon)
    rho = qcore._state("rho", rho, qcore._ket("target", target).dim)
    if isinstance(rho, Ket):
        raise ValidationError(f"rho must be a density matrix, got {rho!r}")
    psi = target.amplitudes
    proj = np.outer(psi, psi.conj())
    f0 = rho.expectation(target)
    goal = 1.0 - epsilon
    if f0 <= goal:
        lam = (goal - f0) / (1.0 - f0)
        mixed = (1.0 - lam) * rho.entries + lam * proj
    else:
        comp = (np.eye(target.dim, dtype=complex) - proj) / (target.dim - 1)
        lam = 1.0 - goal / f0
        mixed = (1.0 - lam) * rho.entries + lam * comp
    return AdversaryState(HermitianOperator(mixed), goal)


def lambda1(alpha, big_p, big_t):
    """Acceptance on the orthogonal state inside span{|00>, |11>}."""
    alpha = np.asarray(alpha, dtype=float)
    big_p = np.asarray(big_p, dtype=float)
    return 1.0 - big_p * (1.0 - alpha) * (1.0 + big_t) / (
        (1.0 + big_p) * (big_p + big_t)
    )


def lambda2(alpha, big_p, big_t):
    """Acceptance on |01> and |10> (degenerate after symmetrization)."""
    alpha = np.asarray(alpha, dtype=float)
    big_p = np.asarray(big_p, dtype=float)
    return (1.0 - alpha) * (
        1.0 - (big_t + big_p**2) / (2.0 * (1.0 + big_p) * (big_p + big_t))
    )


def _check_ridge(big_p, big_t: float) -> None:
    """Reject P (a float or a float array) and T unless every P > 0 and T >= 0
    are finite, as the family makes them: P = tan^2 phi and T = tan^2 theta."""
    inside = (big_p > 0.0) & (big_p < math.inf)
    if not (0.0 <= big_t < math.inf and (inside if isinstance(inside, bool) else inside.all())):
        raise ValidationError(f"big_p={big_p!r} and big_t={big_t!r} need finite P > 0, T >= 0")


def ridge_alpha(big_p: float, big_t: float) -> float | None:
    """ZZ weight equalizing lambda1 and lambda2 at fixed phi, if any.

    Along the equalizing ridge the worst case is minimal in alpha.
    Returns None when the balance point would need alpha < 0, in which
    case lambda2 dominates for every admissible alpha. P > 0 and T >= 0.
    """
    big_p, big_t = qcore._real("big_p", big_p), qcore._real("big_t", big_t)
    _check_ridge(big_p, big_t)
    balance = _ridge_sum(big_p, big_t)
    return None if balance < 1.0 else 1.0 - 1.0 / balance


def _ridge_sum(big_p, big_t):
    """x + y: lambda1 = 1 - x (1 - alpha) and lambda2 = y (1 - alpha) meet at 1 - 1/(x + y)."""
    x = big_p * (1.0 + big_t) / ((1.0 + big_p) * (big_p + big_t))
    y = 1.0 - (big_t + big_p**2) / (2.0 * (1.0 + big_p) * (big_p + big_t))
    return x + y


def ridge_q(big_p, big_t):
    """Worst case along the equalizing ridge as a function of P.

    Equals 1/2 + (T + P^2) / (2 (T + P^2 + 4 P (1 + T))), minimized at
    P = sqrt(T), where it reaches (2 + sin 2theta)/(4 + sin 2theta).
    Every P > 0 and T >= 0.
    """
    big_p, big_t = qcore._reals("big_p", big_p), qcore._real("big_t", big_t)
    _check_ridge(big_p, big_t)
    core = big_t + big_p**2
    return 0.5 + core / (2.0 * (core + 4.0 * big_p * (1.0 + big_t)))


def ppt_lower_bound(theta: float) -> float:
    """Floor on the in-plane acceptance of any separable trace three part.

    Any mixture of product state complements that fixes the target and
    has trace three accepts the orthogonal state in span{|00>, |11>}
    with probability at least sin(2 theta) / (1 + sin(2 theta)); the
    optimal construction meets it with equality. theta lies in [0, pi/2].
    """
    s = math.sin(2.0 * check_angle(theta, family=True))
    return s / (1.0 + s)


HULL_COLUMNS = ("lambda1", "lambda2", "part")


def hull_boundary(
    theta: float, points: int = 200
) -> list[tuple[float, float, str]]:
    """Boundary of the reachable (lambda1, lambda2) region at fixed theta.

    A trace three part pins its eigenvalue pair to the locus
    lambda2 = 1 - lambda1/2, and positivity under partial transposition
    cuts that locus off below the floor from ppt_lower_bound. The weight
    on the in-plane parity projector contributes the single point
    (1, 0). Every strategy of the two part form lands in the convex
    hull of the admissible locus segment and that point; the rows here
    trace the hull boundary for plotting, tagged by which constraint
    each piece comes from.
    """
    if not 0.0 < qcore._real("theta", theta) < math.pi / 2.0:
        raise ThetaOutOfDomainError(
            f"theta {theta!r} outside the open interval (0, pi/2)"
        )
    if qcore._integer("points", points) < 2:
        raise ValidationError("points must be at least 2")
    floor = ppt_lower_bound(theta)
    rows: list[tuple[float, float, str]] = [
        (floor, 1.0 - floor / 2.0, "ppt-cutoff"),
        (1.0, 0.0, "zz-point"),
    ]
    for lam1 in np.linspace(floor, 1.0, points):
        rows.append((float(lam1), 1.0 - float(lam1) / 2.0, "trace3-locus"))
    return rows


class LandscapeRow(NamedTuple):
    """One landscape table row; the fields are the CSV columns in order."""

    alpha: float
    phi: float
    lambda1: float
    lambda2: float
    qmax: float


LANDSCAPE_COLUMNS = LandscapeRow._fields


@dataclass(frozen=True, eq=False)
class LandscapeReport:
    """Sampled landscape plus its discrete minimizer."""

    theta: float
    rows: tuple[LandscapeRow, ...]
    argmin_alpha: float
    argmin_phi: float
    min_qmax: float


def landscape(
    theta: float,
    alphas: np.ndarray | None = None,
    phis: np.ndarray | None = None,
) -> LandscapeReport:
    """Closed-form landscape samples for plotting and export.

    Rows run over alphas (outer) and phis (inner) and hold Python
    scalars. The minimizer is the first grid cell in that order with
    the least qmax, the tie rule of the certification sweep. Any
    finite theta is accepted; a non-finite one raises
    ThetaOutOfDomainError. Grid entries outside alpha in [0, 1] or phi
    in (0, pi/2), nan included, raise ValidationError.
    """
    check_angle(theta)
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 121)
    if phis is None:
        phis = np.linspace(0.0, math.pi / 2, 123)[1:-1]
    alphas, phis = qcore._reals("alphas", alphas), qcore._reals("phis", phis)
    for name, grid in (("alphas", alphas), ("phis", phis)):
        if grid.ndim != 1 or grid.size == 0:
            raise ValidationError(f"{name} must be a nonempty 1-D array")
    if not np.all((alphas >= 0.0) & (alphas <= 1.0)):  # also rejects nan
        raise ValidationError("alphas must lie in [0, 1]")
    if not np.all((phis > 0.0) & (phis < math.pi / 2)):
        raise ValidationError("phis must lie in the open interval (0, pi/2)")
    big_t = math.tan(theta) ** 2
    big_p = np.tan(phis) ** 2
    l1 = lambda1(alphas[:, None], big_p, big_t)
    l2 = lambda2(alphas[:, None], big_p, big_t)
    qm = np.maximum(l1, l2)
    i, j = np.unravel_index(np.argmin(qm), qm.shape)
    grid = np.broadcast_arrays(alphas[:, None], phis, l1, l2, qm)
    rows = tuple(map(LandscapeRow._make, zip(*(a.ravel().tolist() for a in grid))))
    return LandscapeReport(
        theta=theta,
        rows=rows,
        argmin_alpha=float(alphas[i]),
        argmin_phi=float(phis[j]),
        min_qmax=float(qm[i, j]),
    )


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the grid certification of the two qubit optimum.

    q_grid is the family minimum found by the swept grid (after one
    refinement pass); gap = q_grid - q_closed_form. The polished values
    come from a golden-section search in phi over the refinement window
    around the coarse argmin, with alpha eliminated exactly through the
    equalizing ridge, which pins the minimizer location far more tightly
    than the flat valley lets a lattice argmin do. A sound sweep has
    gap >= -SOUNDNESS_TOL (nothing in the family beats the optimum) and
    a located one has gap and polished q within VALUE_TOL, and polished
    alpha and P within LOCATION_TOL, of the closed form.
    """

    theta: float
    resolution: int
    q_closed_form: float
    q_grid: float
    alpha_polished: float
    phi_polished: float
    q_polished: float
    alpha_closed_form: float
    phi_closed_form: float
    gap: float
    ppt_bound: float

    @property
    def big_p_polished(self) -> float:
        return math.tan(self.phi_polished) ** 2

    @property
    def big_p_closed_form(self) -> float:
        return math.tan(self.phi_closed_form) ** 2

    @property
    def alpha_error(self) -> float:
        return abs(self.alpha_polished - self.alpha_closed_form)

    @property
    def big_p_error(self) -> float:
        return abs(self.big_p_polished - self.big_p_closed_form)

    @property
    def sound(self) -> bool:
        return self.gap >= -SOUNDNESS_TOL

    @property
    def located(self) -> bool:
        return (
            self.gap <= VALUE_TOL
            and abs(self.q_polished - self.q_closed_form) <= VALUE_TOL
            and self.alpha_error <= LOCATION_TOL
            and self.big_p_error <= LOCATION_TOL
        )

    @property
    def passed(self) -> bool:
        return self.sound and self.located


def _alpha_minimized(big_p: float, big_t: float) -> tuple[float, float]:
    """Exact minimum over alpha of the family worst case at fixed phi.

    lambda1 rises and lambda2 falls in alpha, so the minimum of their
    maximum sits on the equalizing ridge when admissible and at
    alpha = 0 otherwise.
    """
    a_star = ridge_alpha(big_p, big_t)
    if a_star is None:
        return 0.0, float(lambda1(0.0, big_p, big_t))
    return a_star, float(ridge_q(big_p, big_t))


def _first_true(pred, hi: np.ndarray, guess: np.ndarray | None = None) -> np.ndarray:
    """Per column, the least row k in [0, hi] with pred(k), else hi.

    pred maps one row index per column to one bool per column and must
    be monotone (false, then true) down each column. A column keeps its
    guess g (clipped to [0, hi]) when pred(g - 1) is false or g = 0, and
    pred(g) is true or g = hi; the other columns are binary-searched.
    """
    lo = np.zeros_like(hi)
    if guess is not None:
        g = np.clip(guess, 0, hi)
        kept = ((g == hi) | pred(g)) & ((g == 0) | ~pred(g - 1))
        lo, hi = np.where(kept, g, lo), np.where(kept, g, hi)
    while np.any(active := lo < hi):
        mid = (lo + hi) // 2
        hit = pred(mid)
        hi = np.where(active & hit, mid, hi)
        lo = np.where(active & ~hit, mid + 1, lo)
    return lo


def _grid_min(theta: float, alphas: np.ndarray, phis: np.ndarray):
    """Least max(lambda1, lambda2) on the grid and its first cell in alpha-major order.

    alphas must ascend. A column's least value is lambda1 at the first
    row k with lambda1 >= lambda2, or lambda2 on the plateau ending at
    row k - 1, whose first row is found by a second search. The first
    search's guess is the row of the equalizing ridge, the second's k - 1.
    """
    big_t = math.tan(theta) ** 2
    big_p = np.tan(phis) ** 2
    rows = len(alphas)

    def at(fn, k):
        return fn(alphas[np.minimum(k, rows - 1)], big_p, big_t)

    ridge = np.searchsorted(alphas, 1.0 - 1.0 / _ridge_sum(big_p, big_t))
    k = _first_true(lambda r: at(lambda1, r) >= at(lambda2, r), np.full(len(phis), rows), ridge)
    right = np.where(k < rows, at(lambda1, k), np.inf)
    left_end = np.maximum(k - 1, 0)
    left = np.where(k > 0, at(lambda2, left_end), np.inf)
    left_start = _first_true(lambda r: at(lambda2, r) <= left, left_end, k - 1)
    col_min = np.minimum(left, right)
    col_row = np.where(left <= right, left_start, k)
    # stable: among equal (value, row) pairs the first column comes first
    j = np.lexsort((col_row, col_min))[0]
    return float(col_min[j]), int(col_row[j]), int(j)


def certify_optimality(
    theta: float,
    resolution: int = 400,
    refine_resolution: int = 4000,
) -> CertificateReport:
    """Sweep the symmetrized family and compare with the closed form.

    Coarse resolution x resolution grid over alpha in [0, 1] and phi in
    the open interval (0, pi/2), then one refinement grid around the
    coarse argmin, then a local polish. Neither grid is swept cell by
    cell: down a phi column the computed lambda1 weakly rises and
    lambda2 weakly falls (each is a chain of correctly rounded
    operations monotone in 1 - alpha), so their crossing row, read from
    the equalizing ridge alpha* = 1 - 1/(x + y) and checked by two
    evaluations (a binary search where the check fails), gives the
    column minimum with the first-cell tie rule of a full sweep. The
    landscape valley is much
    flatter along phi than along alpha (the equalizing ridge), so
    the refinement window spans three coarse cells in alpha but ten in
    phi: the coarse argmin can wander several cells along the valley
    floor without leaving it. The polish is a golden-section search in
    phi over that refinement window, with alpha eliminated exactly,
    because a lattice argmin cannot pin the minimizer of so flat a
    valley to LOCATION_TOL.
    """
    check_theta(theta)
    if qcore._integer("resolution", resolution) < 8:
        raise ValidationError("resolution must be at least 8")
    if qcore._integer("refine_resolution", refine_resolution) < 1:
        raise ValidationError("refine_resolution must be at least 1")
    big_t = math.tan(theta) ** 2
    alphas = np.linspace(0.0, 1.0, resolution)
    phis = np.linspace(0.0, math.pi / 2, resolution + 2)[1:-1]
    q_coarse, i, j = _grid_min(theta, alphas, phis)

    alpha_step = alphas[1] - alphas[0]
    phi_step = phis[1] - phis[0]
    alpha_lo = max(0.0, alphas[i] - 3.0 * alpha_step)
    alpha_hi = min(1.0, alphas[i] + 3.0 * alpha_step)
    phi_lo = max(phis[0] / 2.0, phis[j] - 10.0 * phi_step)
    phi_hi = min(math.pi / 2 - phis[0] / 2.0, phis[j] + 10.0 * phi_step)
    fine_alphas = np.linspace(alpha_lo, alpha_hi, refine_resolution)
    fine_phis = np.linspace(phi_lo, phi_hi, refine_resolution)
    q_fine = _grid_min(theta, fine_alphas, fine_phis)[0]
    q_grid = min(q_coarse, q_fine)

    def ridge_profile(phi: float) -> float:
        return _alpha_minimized(math.tan(phi) ** 2, big_t)[1]

    phi_pol, _ = _golden_max(lambda phi: -ridge_profile(phi), phi_lo, phi_hi)
    alpha_pol, q_pol = _alpha_minimized(math.tan(phi_pol) ** 2, big_t)

    q_closed = optimal_q(theta)
    return CertificateReport(
        theta=theta,
        resolution=resolution,
        q_closed_form=q_closed,
        q_grid=q_grid,
        alpha_polished=float(alpha_pol),
        phi_polished=float(phi_pol),
        q_polished=float(q_pol),
        alpha_closed_form=alpha_weight(theta),
        phi_closed_form=math.atan(math.sqrt(math.tan(theta))),
        gap=q_grid - q_closed,
        ppt_bound=ppt_lower_bound(theta),
    )


@dataclass(frozen=True, eq=False)
class GameValue:
    """Best adversarial acceptance at infidelity at least epsilon.

    maximizer is an admissible state (fidelity at most 1 - epsilon) and
    accept_prob its acceptance tr(Omega sigma); epsilon_star is its
    infidelity. upper_bound is the Lagrangian dual at the multiplier
    1 - q, 1 - epsilon (1 - q), widened by the strategy's invariant
    defect and the eigensolver's rounding, so the true game value lies
    in [accept_prob, upper_bound]. evaluations counts the eigensolves
    the call ran: 0 for a PauliStrategy, 1 for a dense Strategy, and 2 for
    one whose metrics this call solved (no builder made it, and nothing
    read them before).
    """

    accept_prob: float
    upper_bound: float
    epsilon_star: float
    maximizer: AdversaryState
    evaluations: int


def _golden_max(fn, lo: float, hi: float):
    """Golden section maximization to a 1e-10 bracket, tracking the best point."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_v = lo, fn(lo)
    v_hi = fn(hi)
    if v_hi > best_v:
        best_x, best_v = hi, v_hi
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-10:
        if fc > best_v:
            best_x, best_v = c, fc
        if fd > best_v:
            best_x, best_v = d, fd
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return best_x, best_v


# the eigensolver's rounding per dimension: widens a bound so that error
# in q's last digits cannot put it below a feasible acceptance
_ROUNDING = 4.0 * float(np.finfo(float).eps)


def strategy_game_value(strategy: Strategy | PauliStrategy, epsilon: float) -> GameValue:
    """Best acceptance at infidelity at least epsilon against the
    strategy's own target, by the paper's identity.

    The maximizer is worst_case_state's, and eps (1 - q) the strategy's
    metrics.delta_eps. If Omega fixes psi, mu = 1 - q is an exact dual
    multiplier: D(mu) = lmax(Omega - mu |psi><psi|) + mu (1 - eps) =
    1 - eps (1 - q), the maximizer's acceptance. A dense Omega fixes psi
    only within d = |Omega psi - psi|, which bounds both |<psi|Omega|psi> - 1|
    and the coupling of psi to its orthocomplement, so lmax, and the bound,
    move by at most 2 d. A PauliStrategy fixes its target exactly (d = 0)
    and needs no eigenproblem; its acceptance is the closed form.
    """
    check_probability("epsilon", epsilon)
    dense = isinstance(strategy, Strategy)
    # a dense orthogonal_projector runs one eigh, and metrics one on their first read
    evaluations = 2 - ("metrics" in vars(strategy)) if dense else 0
    state = _eps_far(strategy, epsilon, top_orthogonal_eigenvector(strategy)[1])
    value = accept = 1.0 - strategy.metrics.delta_eps(epsilon)
    drift = 0.0
    if dense:
        omega, psi, x = strategy.omega, strategy.target.amplitudes, state.state.amplitudes
        accept = float(np.vdot(x, omega @ x).real)
        drift = float(np.linalg.norm(omega @ psi - psi))
    return GameValue(
        accept_prob=accept,
        upper_bound=value + 2.0 * drift + _ROUNDING * strategy.dim,
        epsilon_star=1.0 - state.fidelity,
        maximizer=state,
        evaluations=evaluations,
    )
