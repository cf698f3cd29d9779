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
  favorable state at infidelity at least epsilon is found exactly:
  at fixed infidelity the maximization over the orthogonal component
  is a trust region subproblem solved through its secular equation,
  and the outer one dimensional search over infidelity is bracketed on
  a grid and polished by golden section. For strategies that fix the
  target the value is 1 - epsilon (1 - q), attained at infidelity
  exactly epsilon.

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
    """
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

    phi_pol, _, _ = _golden_max(
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

    accept_prob is the acceptance of the best admissible state,
    maximizer the state itself, epsilon_star the infidelity at which
    the maximum is attained.
    """

    accept_prob: float
    epsilon_star: float
    maximizer: AdversaryState
    evaluations: int


def _secular_root(eigs: np.ndarray, abs2: np.ndarray, lo: float, hi: float) -> float:
    """The lam in [lo, hi] with sum abs2 / (lam - eigs)^2 = 1.

    Newton's method on the Moré-Sorensen form 1 - 1/||x(lam)|| of the
    secular equation, x(lam) = beta / (lam - eigs). That function is
    convex and decreasing above the top eigenvalue, so iterates started
    at lo rise monotonically to the root; a step that leaves the
    bracket is replaced by bisection all the same.
    """
    lam = lo
    for _ in range(100):
        inv = 1.0 / (lam - eigs)
        norm = math.sqrt(float(np.sum(abs2 * inv**2)))
        if norm > 1.0:
            lo = lam
        else:
            hi = lam
        step = (norm - 1.0) * norm**2 / float(np.sum(abs2 * inv**3))
        tol = 1e-15 + 8.9e-16 * abs(lam)
        if abs(step) <= tol or hi - lo <= tol:
            return min(max(lam + step, lo), hi)
        lam = lam + step if lo < lam + step < hi else 0.5 * (lo + hi)
    return lam


def _sphere_max(eigs: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize x^dag M x + 2 Re(b^dag x) over the unit sphere.

    Works in the eigenbasis of M: eigs are its eigenvalues, beta the
    coefficients of b. Solves the secular equation
    sum |beta_i|^2 / (lambda - m_i)^2 = 1 for lambda above the top
    eigenvalue; when b has no component on the top eigenspace and the
    remaining terms cannot reach norm one, the top eigenvector absorbs
    the slack (the degenerate branch of the subproblem).
    """
    norm_b = float(np.linalg.norm(beta))
    m_top = float(eigs[-1])
    if norm_b < 1e-14:
        x = np.zeros(len(eigs), dtype=complex)
        x[-1] = 1.0
        return m_top, x
    top_mask = eigs >= m_top - 1e-12
    beta_top = float(np.linalg.norm(beta[top_mask]))
    abs2 = np.abs(beta) ** 2
    if beta_top > 1e-13 * norm_b:
        lo = m_top + beta_top * (1.0 - 1e-12)
        hi = m_top + norm_b * (1.0 + 1e-12)
    else:
        # b is nonzero, so some weight, and with it some eigenvalue, lies
        # below the top eigenspace
        rest = abs2[~top_mask]
        rest_eigs = eigs[~top_mask]
        perp_sq = float(np.sum(rest / (m_top - rest_eigs) ** 2))
        if perp_sq <= 1.0:
            x = np.zeros(len(eigs), dtype=complex)
            x[~top_mask] = beta[~top_mask] / (m_top - rest_eigs)
            idx_top = int(np.nonzero(top_mask)[0][-1])
            x[idx_top] = math.sqrt(max(0.0, 1.0 - perp_sq))
            return m_top + float(np.sum(rest / (m_top - rest_eigs))), x
        lo = m_top + 1e-13 * max(1.0, abs(m_top))
        hi = m_top + norm_b * (1.0 + 1e-12)
    x = beta / (_secular_root(eigs, abs2, lo, hi) - eigs)
    nx = float(np.linalg.norm(x))
    if nx > 0:
        x = x / nx
    value = float(np.real(np.vdot(x, eigs * x)) + 2.0 * np.real(np.vdot(beta, x)))
    return value, x


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-6):
    """Golden section maximization tracking the best evaluated point."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_v = lo, fn(lo)
    evals = 1
    v_hi = fn(hi)
    evals += 1
    if v_hi > best_v:
        best_x, best_v = hi, v_hi
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    evals += 2
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
        evals += 1
    return best_x, best_v, evals


def game_value(
    omega, target: Ket, epsilon: float, grid_points: int = 1000
) -> GameValue:
    """Exact best adversarial acceptance at infidelity at least epsilon.

    The operator need not fix the target. The infidelity range
    [epsilon, 1] is scanned on a grid; at each value the orthogonal
    component is optimized exactly, and the best bracket is polished by
    golden section. The best state over every evaluation is returned,
    so a maximum attained at the boundary epsilon is reported at
    exactly that infidelity.
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
    basis, block = qcore.orthocomplement_block(target, mat)
    a_val = float(np.real(np.vdot(psi, mat @ psi)))
    w = basis.conj().T @ (mat @ psi)
    eigs, vecs = np.linalg.eigh(block)
    w_rot = vecs.conj().T @ w

    def value_at(eps_bar: float) -> tuple[float, np.ndarray]:
        scale = math.sqrt(max(eps_bar * (1.0 - eps_bar), 0.0))
        val, x = _sphere_max(eps_bar * eigs, scale * w_rot)
        return (1.0 - eps_bar) * a_val + val, x

    evals = 0
    best = None
    grid = np.linspace(epsilon, 1.0, grid_points)
    values = []
    for eps_bar in grid:
        v, x = value_at(float(eps_bar))
        evals += 1
        values.append(v)
        if best is None or v > best[0]:
            best = (v, float(eps_bar), x)
    i = int(np.argmax(values))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, grid_points - 1)])

    def scalar(eps_bar: float) -> float:
        return value_at(eps_bar)[0]

    gx, gv, gevals = _golden_max(scalar, lo, hi, tol=1e-6)
    evals += gevals
    if gv > best[0]:
        best = (gv, gx, value_at(gx)[1])
        evals += 1

    value, eps_star, x = best
    chi = math.sqrt(1.0 - eps_star) * psi + math.sqrt(eps_star) * (
        basis @ (vecs @ x)
    )
    chi = chi / np.linalg.norm(chi)
    return GameValue(
        accept_prob=float(value),
        epsilon_star=float(eps_star),
        maximizer=pure_adversary_state(chi, target, AdversaryKind.WORST_CASE_PURE),
        evaluations=evals,
    )


def strategy_game_value(
    strategy: Strategy, epsilon: float, grid_points: int = 1000
) -> GameValue:
    return game_value(strategy, strategy.target, epsilon, grid_points)
