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
  alpha, so each phi column's minimum sits at their crossing, found by
  binary search instead of evaluating every grid cell.

* A direct game value. For a fixed strategy operator, the most
  favorable state at infidelity at least epsilon is found exactly by
  Lagrangian duality: bisection on the multiplier of the fidelity
  constraint, one eigensolve per step, returns an admissible maximizer
  together with a dual upper bound that certifies it. For strategies
  that fix the target the value is 1 - epsilon (1 - q), attained at
  infidelity exactly epsilon.

The worst orthogonal state is picked by one rule that reads only the
strategy operator, not the eigensolver's basis (top_orthogonal_eigenvector),
from the top orthogonal eigenspace's projector that each strategy type
builds (orthogonal_projector; a PauliStrategy's needs no eigenproblem and
no 2^N x 2^N array). A PauliStrategy's game value is the closed form with
the exact dual multiplier 1 - q. Pure worst-case states are kept as Kets
that the protocol simulator can feed to a device model directly; a
Hilbert-Schmidt mixed state sampler with exact fidelity shifting supports
randomized sufficiency checks (a mixed state at the fidelity boundary
never beats the pure worst case).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import qcore
from .errors import (
    DegenerateStrategyError,
    ThetaOutOfDomainError,
    ValidationError,
)
from .qcore import TOL_DERIVED, HermitianOperator, Ket
from .samplecount import check_probability, check_theta, optimal_q
from .stabilizer import PauliStrategy
from .strategy import Strategy, alpha_weight

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
        if isinstance(self.state, HermitianOperator):
            qcore.check_density(self.state.entries, "density matrix")
        elif not isinstance(self.state, Ket):
            raise ValidationError("an adversary state is a Ket or a HermitianOperator")
        fid = self.fidelity
        if not (isinstance(fid, numbers.Real) and -TOL_DERIVED <= fid <= 1 + TOL_DERIVED):
            raise ValidationError(f"fidelity {self.fidelity!r} outside [0, 1]")

    @cached_property
    def sigma(self) -> HermitianOperator:
        return self.state.density() if isinstance(self.state, Ket) else self.state


def pure_adversary_state(amplitudes: np.ndarray, target: Ket) -> AdversaryState:
    ket = Ket(np.asarray(amplitudes, dtype=complex))
    return AdversaryState(ket, ket.fidelity(target))


def _operator_entries(omega, dim: int, what: str) -> np.ndarray:
    """omega's matrix, dim x dim like its what: a Strategy's omega, a
    HermitianOperator's entries, or an array checked as a HermitianOperator."""
    if isinstance(omega, PauliStrategy):
        raise ValidationError("a PauliStrategy holds no operator matrix; use "
                              "strategy_game_value or protocol.predicted_acceptance")
    if isinstance(omega, Strategy):
        mat = omega.omega
    elif isinstance(omega, HermitianOperator):
        mat = omega.entries
    else:
        mat = HermitianOperator(np.asarray(omega, dtype=complex)).entries
    if mat.shape[0] != dim:
        raise ValidationError(f"operator and {what} dimensions differ ({mat.shape[0]} != {dim})")
    return mat


def acceptance_probability(omega, state: AdversaryState) -> float:
    """Per copy acceptance tr(Omega sigma) of a device output."""
    if not isinstance(state, AdversaryState):
        raise ValidationError(f"expected an AdversaryState, got {state!r}")
    mat = _operator_entries(omega, state.sigma.dim, "state")
    return float(np.trace(mat @ state.sigma.entries).real)


def top_orthogonal_eigenvector(strategy: Strategy | PauliStrategy) -> tuple[float, Ket]:
    """(q, state): the top acceptance q among states orthogonal to the
    target, and the state Pi|b> / sqrt(Pi_bb) that attains it.

    The strategy's orthogonal_projector() gives q, every Pi_bb and the
    columns of Pi; b is the lowest index with the largest Pi_bb (within
    TOL_DERIVED). When every orthogonal eigenvalue ties (Bell, two-qubit,
    product, full stabilizer), Pi reads only the target, so the state
    does not depend on the eigensolver's basis.
    """
    if not isinstance(strategy, (Strategy, PauliStrategy)):
        raise ValidationError(f"expected a Strategy or PauliStrategy, got {strategy!r}")
    q, weights, column = strategy.orthogonal_projector()
    b = int(np.argmax(weights >= weights.max() - TOL_DERIVED))
    return q, Ket(column(b) / math.sqrt(weights[b]))


def _eps_far(strategy: Strategy | PauliStrategy, epsilon: float, top: Ket) -> AdversaryState:
    """sqrt(1 - eps)|psi> + sqrt(eps)|top>, top orthogonal to the target."""
    amps = (
        math.sqrt(1.0 - epsilon) * strategy.target.amplitudes
        + math.sqrt(epsilon) * top.amplitudes
    )
    return pure_adversary_state(amps, strategy.target)


def worst_case_state(strategy: Strategy | PauliStrategy, epsilon: float) -> AdversaryState:
    """The eps-far pure state an accept-always strategy likes most.

    sqrt(1 - eps)|psi> + sqrt(eps)|worst orthogonal>, accepted with
    probability exactly 1 - eps (1 - q). This is the hardest admissible
    device output: no state (pure or mixed) at fidelity <= 1 - eps does
    better, which game_value verifies independently.
    """
    check_probability("epsilon", epsilon)
    q, top = top_orthogonal_eigenvector(strategy)
    if q >= 1.0 - TOL_DERIVED:
        raise DegenerateStrategyError(
            "strategy accepts an orthogonal state with certainty"
        )
    return _eps_far(strategy, epsilon, top)


def hilbert_schmidt_mixed_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix from the Hilbert-Schmidt measure.

    Partial trace of a Haar random pure state on a doubled space,
    realized as G G^dag / tr(G G^dag) for a complex Gaussian G.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def shift_fidelity(rho: np.ndarray, target: Ket, epsilon: float) -> AdversaryState:
    """Mix a density matrix to sit exactly at fidelity 1 - epsilon.

    Mixes with the target projector to raise fidelity, or with the
    normalized orthocomplement projector to lower it; either direction
    keeps the state a valid density matrix.
    """
    check_probability("epsilon", epsilon)
    rho = np.asarray(rho, dtype=complex)
    psi = target.amplitudes
    proj = np.outer(psi, psi.conj())
    f0 = float(np.real(np.vdot(psi, rho @ psi)))
    goal = 1.0 - epsilon
    if f0 <= goal:
        lam = (goal - f0) / (1.0 - f0)
        mixed = (1.0 - lam) * rho + lam * proj
    else:
        comp = (np.eye(target.dim, dtype=complex) - proj) / (target.dim - 1)
        lam = 1.0 - goal / f0
        mixed = (1.0 - lam) * rho + lam * comp
    return AdversaryState(HermitianOperator(mixed), goal)


def tau_state(theta: float, phi: float, eta: float) -> Ket:
    """Product state orthogonal to sin(theta)|00> + cos(theta)|11>.

    (cos phi |0> + e^(i eta) sin phi |1>) on the first qubit and
    (tan phi |0> - e^(-i eta) tan theta |1>)/sqrt(D) on the second,
    D = tan(phi)^2 + tan(theta)^2. Orthogonal to the target for every
    eta; as phi -> 0 it tends to |01>. Every product state orthogonal
    to the target is of this form up to qubit order and global phase.
    """
    if not 0.0 < phi < math.pi / 2:
        raise ValidationError(f"phi={phi!r} outside (0, pi/2)")
    t_phi = math.tan(phi)
    t_theta = math.tan(theta)
    root_d = math.hypot(t_phi, t_theta)
    first = np.array([math.cos(phi), np.exp(1j * eta) * math.sin(phi)])
    second = np.array([t_phi / root_d, -np.exp(-1j * eta) * t_theta / root_d])
    return Ket(np.kron(first, second))


def twirl_average(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize a 4x4 operator over the target's invariance group.

    Averages over the phase family diag(1, e^(i zeta)) (x)
    diag(1, e^(-i zeta)), the qubit swap, and complex conjugation, all
    of which fix sin(theta)|00> + cos(theta)|11> for every theta. Only
    the entries (0,0), (0,3), (3,0), (3,3), (1,1), (2,2) survive, all
    real, with (1,1) = (2,2); the phase average is evaluated exactly
    rather than numerically.
    """
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (4, 4):
        raise ValidationError("twirl_average expects a 4x4 matrix")
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = arr[0, 0].real
    out[3, 3] = arr[3, 3].real
    off = (arr[0, 3].real + arr[3, 0].real) / 2.0
    out[0, 3] = out[3, 0] = off
    mid = (arr[1, 1].real + arr[2, 2].real) / 2.0
    out[1, 1] = out[2, 2] = mid
    return out


def family_trace3(theta: float, phi: float) -> np.ndarray:
    """Trace three symmetrized mixture of orthogonal product complements.

    Equal mixture over six product states: tau_state at the three
    balanced phases eta in {2pi/3, 4pi/3, 0} and their qubit swapped
    partners. The three phase average kills every oscillating entry
    exactly, so this equals the full phase twirl of one complement.
    """
    etas = (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0, 0.0)
    acc = np.zeros((4, 4), dtype=complex)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    for eta in etas:
        tau = tau_state(theta, phi, eta).amplitudes
        proj = np.outer(tau, tau.conj())
        acc += proj + swap @ proj @ swap
    return np.eye(4, dtype=complex) - acc / 6.0


def family_omega(theta: float, alpha: float, phi: float) -> np.ndarray:
    """Strategy operator of the symmetrized candidate family."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha={alpha!r} outside [0, 1]")
    p_zz = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    return alpha * p_zz + (1.0 - alpha) * family_trace3(theta, phi)


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


def family_qmax(alpha, big_p, big_t):
    """Worst-case orthogonal acceptance of a family member."""
    return np.maximum(lambda1(alpha, big_p, big_t), lambda2(alpha, big_p, big_t))


def ridge_alpha(big_p: float, big_t: float) -> float | None:
    """ZZ weight equalizing lambda1 and lambda2 at fixed phi, if any.

    Along the equalizing ridge the worst case is minimal in alpha.
    Returns None when the balance point would need alpha < 0, in which
    case lambda2 dominates for every admissible alpha.
    """
    x = big_p * (1.0 + big_t) / ((1.0 + big_p) * (big_p + big_t))
    y = 1.0 - (big_t + big_p**2) / (2.0 * (1.0 + big_p) * (big_p + big_t))
    if x + y < 1.0:
        return None
    return 1.0 - 1.0 / (x + y)


def ridge_q(big_p, big_t):
    """Worst case along the equalizing ridge as a function of P.

    Equals 1/2 + (T + P^2) / (2 (T + P^2 + 4 P (1 + T))), minimized at
    P = sqrt(T), where it reaches (2 + sin 2theta)/(4 + sin 2theta).
    """
    big_p = np.asarray(big_p, dtype=float)
    core = big_t + big_p**2
    return 0.5 + core / (2.0 * (core + 4.0 * big_p * (1.0 + big_t)))


def ppt_lower_bound(theta: float) -> float:
    """Floor on the in-plane acceptance of any separable trace three part.

    Any mixture of product state complements that fixes the target and
    has trace three accepts the orthogonal state in span{|00>, |11>}
    with probability at least sin(2 theta) / (1 + sin(2 theta)); the
    optimal construction meets it with equality.
    """
    s = math.sin(2.0 * theta)
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
    if not 0.0 < theta < math.pi / 2.0:
        raise ThetaOutOfDomainError(
            f"theta {theta!r} outside the open interval (0, pi/2)"
        )
    if points < 2:
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
    if not math.isfinite(theta):
        raise ThetaOutOfDomainError(f"theta={theta!r} is not a finite angle")
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 121)
    if phis is None:
        phis = np.linspace(0.0, math.pi / 2, 123)[1:-1]
    alphas = np.asarray(alphas, dtype=float)
    phis = np.asarray(phis, dtype=float)
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


def _first_true(pred, hi: np.ndarray) -> np.ndarray:
    """Per column, the least row k in [0, hi] with pred(k), else hi.

    pred maps one row index per column to one bool per column and must
    be monotone (false, then true) down each column.
    """
    lo = np.zeros_like(hi)
    while np.any(active := lo < hi):
        mid = (lo + hi) // 2
        hit = pred(mid)
        hi = np.where(active & hit, mid, hi)
        lo = np.where(active & ~hit, mid + 1, lo)
    return lo


def _grid_min(theta: float, alphas: np.ndarray, phis: np.ndarray):
    """Least family_qmax on the grid and its first cell in alpha-major order.

    alphas must ascend. A column's least value is lambda1 at the first
    row k with lambda1 >= lambda2, or lambda2 on the plateau ending at
    row k - 1, whose first row is found by a second search.
    """
    big_t = math.tan(theta) ** 2
    big_p = np.tan(phis) ** 2
    rows = len(alphas)

    def at(k):
        alpha = alphas[np.minimum(k, rows - 1)]
        return lambda1(alpha, big_p, big_t), lambda2(alpha, big_p, big_t)

    k = _first_true(lambda r: np.greater_equal(*at(r)), np.full(len(phis), rows))
    right = np.where(k < rows, at(k)[0], np.inf)
    left_end = np.maximum(k - 1, 0)
    left = np.where(k > 0, at(left_end)[1], np.inf)
    left_start = _first_true(lambda r: at(r)[1] <= left, left_end)
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
    operations monotone in 1 - alpha), so a binary search for their
    crossing finds the column minimum in O(log R) evaluations, with the
    first-cell tie rule of a full sweep. The landscape valley is much
    flatter along phi than along alpha (the equalizing ridge), so
    the refinement window spans three coarse cells in alpha but ten in
    phi: the coarse argmin can wander several cells along the valley
    floor without leaving it. The polish is a golden-section search in
    phi over that refinement window, with alpha eliminated exactly,
    because a lattice argmin cannot pin the minimizer of so flat a
    valley to LOCATION_TOL.
    """
    check_theta(theta)
    if resolution < 8:
        raise ValidationError("resolution must be at least 8")
    if refine_resolution < 1:
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
    accept_prob its acceptance; epsilon_star is its infidelity.
    upper_bound is the Lagrangian dual D(mu) at the upper end of the
    final bisection bracket (for a PauliStrategy, at the exact multiplier
    1 - q), widened by the eigensolver's rounding, so the true game value
    lies in [accept_prob, upper_bound]. evaluations counts eigensolves.
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


# The dual bracket is closed once its width is at most this times
# max(1, mu): relative for large multipliers, absolute near mu = 0, where
# a degenerate top eigenspace can put the optimal multiplier.
_MU_TOL = 1e-15
_ROUNDING = 4.0 * np.finfo(float).eps


def _mix_to_fidelity(inside: np.ndarray, outside: np.ndarray, psi: np.ndarray,
                     goal: float) -> np.ndarray:
    """Unit vector in span{inside, outside} with fidelity exactly goal.

    inside has fidelity above goal and outside at most goal. The part of
    outside orthogonal to inside is phased so its overlap with psi
    opposes inside's; the fidelity then falls monotonically along the
    great circle from inside, and the crossing has a closed form.
    """
    u = outside - np.vdot(inside, outside) * inside
    u = u / np.linalg.norm(u)
    a = np.vdot(psi, inside)
    b = np.vdot(psi, u)
    if abs(b) > 0.0:
        u = u * (-(a / abs(a)) * (b.conjugate() / abs(b)))
    radius = math.hypot(abs(a), abs(b))
    t = math.acos(min(1.0, math.sqrt(goal) / radius)) - math.atan2(abs(b), abs(a))
    return math.cos(t) * inside + math.sin(t) * u


def game_value(omega, target: Ket, epsilon: float) -> GameValue:
    """Exact best adversarial acceptance at infidelity at least epsilon.

    Maximizes <x|Omega|x> over unit x with |<psi|x>|^2 <= 1 - epsilon;
    the operator need not fix the target. The Lagrangian dual
    D(mu) = lmax(Omega - mu |psi><psi|) + mu (1 - epsilon) is convex in
    mu >= 0 with subgradient (1 - epsilon) - |<v(mu)|psi>|^2, v(mu) the
    top eigenvector, and has no duality gap because the joint numerical
    range of two Hermitian forms is convex (Toeplitz-Hausdorff). The
    minimizing mu is bracketed by doubling from 1 and bisected on the
    sign of the subgradient; the top eigenvectors at the two ends of the
    bracket are then mixed to fidelity exactly 1 - epsilon. When the top
    eigenvector at mu = 0 is already admissible it is the answer.
    """
    if not isinstance(target, Ket):
        raise ValidationError(f"expected a target Ket, got {target!r}")
    mat = _operator_entries(omega, target.dim, "target")
    check_probability("epsilon", epsilon)

    psi = target.amplitudes
    proj = np.outer(psi, psi.conj())
    goal = 1.0 - epsilon
    evals = 0

    def top(mu: float) -> tuple[np.ndarray, np.ndarray, bool]:
        nonlocal evals
        evals += 1
        vals, vecs = np.linalg.eigh(mat - mu * proj)
        vec = vecs[:, -1]
        return vals, vec, abs(np.vdot(psi, vec)) ** 2 <= goal

    lo = hi = 0.0
    vals_hi, x, admissible = top(hi)
    if not admissible:
        vec_lo, hi = x, 1.0
        while not (found := top(hi))[2]:
            lo, vec_lo = hi, found[1]
            hi *= 2.0
        vals_hi, vec_hi, _ = found
        while hi - lo > _MU_TOL * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            vals, vec, admissible = top(mid)
            if admissible:
                hi, vals_hi, vec_hi = mid, vals, vec
            else:
                lo, vec_lo = mid, vec
        x = _mix_to_fidelity(vec_lo, vec_hi, psi, goal)

    chi = x / np.linalg.norm(x)
    state = pure_adversary_state(chi, target)
    # widened by the eigensolver's backward error, so that rounding in the
    # last digits cannot put the bound below a feasible acceptance
    rounding = _ROUNDING * target.dim * (float(np.max(np.abs(vals_hi))) + hi)
    return GameValue(
        accept_prob=float(np.real(np.vdot(chi, mat @ chi))),
        upper_bound=float(vals_hi[-1]) + hi * goal + rounding,
        epsilon_star=1.0 - state.fidelity,
        maximizer=state,
        evaluations=evals,
    )


def strategy_game_value(strategy: Strategy | PauliStrategy, epsilon: float) -> GameValue:
    """game_value of a strategy against its own target.

    A PauliStrategy fixes its target and its orthogonal top eigenvalue is
    q, so mu = 1 - q is an exact dual multiplier: D(mu) = 1 - eps (1 - q)
    is both accept_prob and, before the rounding widening, upper_bound,
    attained by the worst-case state. No eigenproblem is solved.
    """
    if isinstance(strategy, Strategy):
        return game_value(strategy, strategy.target, epsilon)
    check_probability("epsilon", epsilon)
    q, top = top_orthogonal_eigenvector(strategy)
    state = _eps_far(strategy, epsilon, top)
    value = 1.0 - epsilon * (1.0 - q)
    return GameValue(
        accept_prob=value,
        # game_value's widening: max |eigenvalue of Omega - mu P| + mu = q + (1 - q)
        upper_bound=value + _ROUNDING * strategy.dim,
        epsilon_star=1.0 - state.fidelity,
        maximizer=state,
        evaluations=0,
    )
