"""Adversarial analysis: worst-case states and optimality certification.

Two independent roads to the same optimum are implemented for the
two qubit targets sin(theta)|00> + cos(theta)|11>:

* A parametrized family sweep. Any one-copy local strategy can be
  symmetrized (phase twirl, qubit swap, complex conjugation) without
  hurting its worst case, which reduces the search to mixtures of a ZZ
  parity check (weight alpha) with complements of product states
  orthogonal to the target whose first factor has polar angle phi.
  The two relevant orthogonal acceptance eigenvalues lambda1, lambda2
  are closed forms in alpha, P = tan(phi)^2, T = tan(theta)^2, and
  minimizing max(lambda1, lambda2) over a dense (alpha, phi) grid with
  one refinement pass certifies that nothing in the family beats the
  closed-form optimum q = (2 + sin 2theta)/(4 + sin 2theta).

* A direct game value. For a fixed strategy operator, the most
  favorable state at infidelity at least epsilon is found exactly by
  Lagrangian duality: bisection on the multiplier of the fidelity
  constraint, one eigensolve per step, returns an admissible maximizer
  together with a dual upper bound that certifies it. For strategies
  that fix the target the value is 1 - epsilon (1 - q), attained at
  infidelity exactly epsilon.

Worst-case states are packaged as density matrices so the protocol
simulator can feed them to a device model directly; a Hilbert-Schmidt
mixed state sampler with exact fidelity shifting supports randomized
sufficiency checks (a mixed state at the fidelity boundary never beats
the pure worst case).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import (
    DegenerateStrategyError,
    ThetaOutOfDomainError,
    ValidationError,
)
from .qcore import TOL_DERIVED, HermitianOperator, Ket
from .samplecount import check_probability
from .strategy import Strategy, alpha_weight, check_theta, optimal_q

LANDSCAPE_COLUMNS = ("alpha", "phi", "lambda1", "lambda2", "qmax")


class AdversaryKind(enum.Enum):
    WORST_CASE_PURE = "worst-case-pure"
    RANDOM_PURE = "random-pure"
    RANDOM_MIXED = "random-mixed"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class AdversaryState:
    """A device output candidate: density matrix plus target fidelity."""

    sigma: HermitianOperator
    fidelity: float
    kind: AdversaryKind

    def __post_init__(self):
        qcore.check_density(self.sigma.entries, "density matrix")
        if not -TOL_DERIVED <= self.fidelity <= 1.0 + TOL_DERIVED:
            raise ValidationError(f"fidelity {self.fidelity!r} outside [0, 1]")


def pure_adversary_state(
    amplitudes: np.ndarray, target: Ket, kind: AdversaryKind
) -> AdversaryState:
    ket = Ket(np.asarray(amplitudes, dtype=complex))
    return AdversaryState(
        sigma=ket.density(), fidelity=ket.fidelity(target), kind=kind
    )


def acceptance_probability(omega, state: AdversaryState) -> float:
    """Per copy acceptance tr(Omega sigma) of a device output."""
    mat = omega.entries if isinstance(omega, HermitianOperator) else np.asarray(omega)
    return float(np.trace(mat @ state.sigma.entries).real)


def top_orthogonal_eigenvector(strategy: Strategy) -> tuple[float, Ket]:
    """Largest acceptance eigenpair among states orthogonal to the target.

    Deterministic under eigenvalue ties thanks to the ordered
    eigendecomposition's lexicographic tie break.
    """
    basis, block = qcore.orthocomplement_block(strategy.target, strategy.omega)
    vals, vecs = qcore.ordered_eigh(block)
    vec = basis @ vecs[:, 0]
    return float(vals[0]), Ket(vec / np.linalg.norm(vec))


def worst_case_state(strategy: Strategy, epsilon: float) -> AdversaryState:
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
    amps = (
        math.sqrt(1.0 - epsilon) * strategy.target.amplitudes
        + math.sqrt(epsilon) * top.amplitudes
    )
    return pure_adversary_state(
        amps, strategy.target, AdversaryKind.WORST_CASE_PURE
    )


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
    return AdversaryState(
        sigma=HermitianOperator(mixed),
        fidelity=goal,
        kind=AdversaryKind.RANDOM_MIXED,
    )


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


def trace3_orthogonal_top(theta: float) -> float:
    """In-plane orthogonal acceptance of the optimal trace three part."""
    t = math.tan(theta)
    return 1.0 - (1.0 + t * t) / (1.0 + t) ** 2


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


@dataclass(frozen=True)
class LandscapeRow:
    alpha: float
    phi: float
    lambda1: float
    lambda2: float
    qmax: float


@dataclass(frozen=True, eq=False)
class LandscapeReport:
    """Sampled landscape plus its discrete minimizer and ridge curve."""

    theta: float
    rows: tuple[LandscapeRow, ...]
    argmin_alpha: float
    argmin_phi: float
    min_qmax: float
    ridge: tuple[tuple[float, float, float], ...]


def landscape(
    theta: float,
    alphas: np.ndarray | None = None,
    phis: np.ndarray | None = None,
) -> LandscapeReport:
    """Closed-form landscape samples for plotting and export.

    The ridge entries are (phi, equalizing alpha, worst case there) for
    every sampled phi at which the equalizing weight is admissible.
    Any finite theta is accepted; a non-finite one raises
    ThetaOutOfDomainError.
    """
    if not math.isfinite(theta):
        raise ThetaOutOfDomainError(f"theta={theta!r} is not a finite angle")
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 121)
    if phis is None:
        phis = np.linspace(0.0, math.pi / 2, 123)[1:-1]
    alphas = np.asarray(alphas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    big_t = math.tan(theta) ** 2
    big_p = np.tan(phis) ** 2
    rows = []
    best = None
    for alpha in alphas:
        l1 = lambda1(alpha, big_p, big_t)
        l2 = lambda2(alpha, big_p, big_t)
        qm = np.maximum(l1, l2)
        j = int(np.argmin(qm))
        if best is None or qm[j] < best[0]:
            best = (float(qm[j]), float(alpha), float(phis[j]))
        for k, phi in enumerate(phis):
            rows.append(
                LandscapeRow(
                    alpha=float(alpha),
                    phi=float(phi),
                    lambda1=float(l1[k]),
                    lambda2=float(l2[k]),
                    qmax=float(qm[k]),
                )
            )
    ridge = []
    for phi, p_val in zip(phis, big_p):
        a_star = ridge_alpha(float(p_val), big_t)
        if a_star is not None:
            ridge.append((float(phi), a_star, float(ridge_q(p_val, big_t))))
    return LandscapeReport(
        theta=theta,
        rows=tuple(rows),
        argmin_alpha=best[1],
        argmin_phi=best[2],
        min_qmax=best[0],
        ridge=tuple(ridge),
    )


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the grid certification of the two qubit optimum.

    q_grid is the family minimum found by the swept grid (after one
    refinement pass); gap = q_grid - q_closed_form. The polished values
    come from a local descent started at the grid argmin (exact in
    alpha through the equalizing ridge, golden section in phi), which
    pins the minimizer location far more tightly than the flat valley
    lets a lattice argmin do. A sound sweep has gap >= -soundness_tol
    (nothing in the family beats the optimum) and a successful one has
    gap <= value_tol and polished coordinates within location_tol of
    the closed form.
    """

    theta: float
    resolution: int
    q_closed_form: float
    q_grid: float
    alpha_grid: float
    phi_grid: float
    alpha_polished: float
    phi_polished: float
    q_polished: float
    alpha_closed_form: float
    phi_closed_form: float
    gap: float
    ppt_bound: float
    soundness_tol: float
    value_tol: float
    location_tol: float

    @property
    def big_p_grid(self) -> float:
        return math.tan(self.phi_grid) ** 2

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
        return self.gap >= -self.soundness_tol

    @property
    def located(self) -> bool:
        return (
            self.gap <= self.value_tol
            and abs(self.q_polished - self.q_closed_form) <= self.value_tol
            and self.alpha_error <= self.location_tol
            and self.big_p_error <= self.location_tol
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


def _grid_min(theta: float, alphas: np.ndarray, phis: np.ndarray, chunk: int = 512):
    big_t = math.tan(theta) ** 2
    big_p = np.tan(phis) ** 2
    best_val = math.inf
    best_i = best_j = 0
    for lo in range(0, len(alphas), chunk):
        block = alphas[lo : lo + chunk]
        qm = family_qmax(block[:, None], big_p[None, :], big_t)
        flat = int(np.argmin(qm))
        i, j = np.unravel_index(flat, qm.shape)
        if qm[i, j] < best_val:
            best_val = float(qm[i, j])
            best_i, best_j = lo + int(i), int(j)
    return best_val, best_i, best_j


def certify_optimality(
    theta: float,
    resolution: int = 400,
    refine_resolution: int = 4000,
    soundness_tol: float = 1e-9,
    value_tol: float = 1e-6,
    location_tol: float = 1e-4,
) -> CertificateReport:
    """Sweep the symmetrized family and compare with the closed form.

    Coarse resolution x resolution grid over alpha in [0, 1] and phi in
    the open interval (0, pi/2), then one dense refinement pass around
    the coarse argmin, then a local polish. The landscape valley is
    much flatter along phi than along alpha (the equalizing ridge), so
    the refinement window spans three coarse cells in alpha but ten in
    phi: the coarse argmin can wander several cells along the valley
    floor without leaving it. The polish descends from the refined
    argmin with alpha eliminated exactly and phi narrowed by golden
    section, because a lattice argmin cannot pin the minimizer of so
    flat a valley to the requested location tolerance.
    """
    check_theta(theta)
    if resolution < 8:
        raise ValidationError("resolution must be at least 8")
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
    q_fine, fi, fj = _grid_min(theta, fine_alphas, fine_phis)

    if q_fine <= q_coarse:
        q_grid, alpha_at, phi_at = q_fine, fine_alphas[fi], fine_phis[fj]
    else:
        q_grid, alpha_at, phi_at = q_coarse, alphas[i], phis[j]

    def ridge_profile(phi: float) -> float:
        return _alpha_minimized(math.tan(phi) ** 2, big_t)[1]

    phi_pol, _ = _golden_max(
        lambda phi: -ridge_profile(phi), phi_lo, phi_hi, tol=1e-10
    )
    alpha_pol, q_pol = _alpha_minimized(math.tan(phi_pol) ** 2, big_t)

    q_closed = optimal_q(theta)
    return CertificateReport(
        theta=theta,
        resolution=resolution,
        q_closed_form=q_closed,
        q_grid=q_grid,
        alpha_grid=float(alpha_at),
        phi_grid=float(phi_at),
        alpha_polished=float(alpha_pol),
        phi_polished=float(phi_pol),
        q_polished=float(q_pol),
        alpha_closed_form=alpha_weight(theta),
        phi_closed_form=math.atan(math.sqrt(math.tan(theta))),
        gap=q_grid - q_closed,
        ppt_bound=ppt_lower_bound(theta),
        soundness_tol=soundness_tol,
        value_tol=value_tol,
        location_tol=location_tol,
    )


@dataclass(frozen=True, eq=False)
class GameValue:
    """Best adversarial acceptance at infidelity at least epsilon.

    maximizer is an admissible state (fidelity at most 1 - epsilon) and
    accept_prob its acceptance; epsilon_star is its infidelity.
    upper_bound is the Lagrangian dual D(mu) at the upper end of the
    final bisection bracket, widened by the eigensolver's rounding, so
    the true game value lies in [accept_prob, upper_bound].
    evaluations counts eigensolves.
    """

    accept_prob: float
    upper_bound: float
    epsilon_star: float
    maximizer: AdversaryState
    evaluations: int


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-6):
    """Golden section maximization tracking the best evaluated point."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_v = lo, fn(lo)
    v_hi = fn(hi)
    if v_hi > best_v:
        best_x, best_v = hi, v_hi
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
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
    if isinstance(omega, Strategy):
        mat = omega.omega
    elif isinstance(omega, HermitianOperator):
        mat = omega.entries
    else:
        mat = HermitianOperator(np.asarray(omega, dtype=complex)).entries
    check_probability("epsilon", epsilon)
    if mat.shape[0] != target.dim:
        raise ValidationError("operator and target dimensions differ")

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
    state = pure_adversary_state(chi, target, AdversaryKind.WORST_CASE_PURE)
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


def strategy_game_value(strategy: Strategy, epsilon: float) -> GameValue:
    return game_value(strategy, strategy.target, epsilon)
