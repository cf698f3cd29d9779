"""Test-only helpers over the library's checked internals.

The library has no caller for these; tests read a single projector
check, a device's per-copy state, a dense strategy's eigenproblem and
the game value's Lagrangian dual sweep through them.
"""

import math

import numpy as np

from qverify.adversary import _ROUNDING, AdversaryState, GameValue, _operator_entries
from qverify.errors import ValidationError
from qverify.qcore import TOL_DERIVED, HermitianOperator, Ket, _projector_defects
from qverify.qcore import orthocomplement_block
from qverify.samplecount import StrategyMetrics, check_probability


def is_projector(op: HermitianOperator) -> bool:
    """True when op is idempotent with eigenvalues in {0, 1} within
    TOL_DERIVED, by the library's stacked check on a stack of one."""
    return not _projector_defects(op.entries[None], TOL_DERIVED)[0]


def density_at(device, copy_index: int) -> np.ndarray:
    """Copy copy_index's density matrix: a fixed device's sigma, or the
    supplier's state checked as the protocol checks it; a pure state,
    which the device keeps as its Ket, is densified."""
    state = device.sigma
    if state is None:
        state = device._supplied_state(device.supplier(copy_index), copy_index)
    return state.density().entries if isinstance(state, Ket) else state


def dense_metrics(strategy) -> StrategyMetrics:
    """q and trace solved from a dense strategy's own omega, whatever its
    metrics hold: q is the top eigenvalue of omega on the target's
    orthocomplement, clamped to [0, 1]. The oracle of every closed form."""
    _, block = orthocomplement_block(strategy.target, strategy.omega)
    top = float(np.linalg.eigvalsh(block)[-1])
    return StrategyMetrics(min(max(top, 0.0), 1.0), float(np.trace(strategy.omega).real))


# The dual bracket is closed once its width is at most this times
# max(1, mu): relative for large multipliers, absolute near mu = 0, where
# a degenerate top eigenspace can put the optimal multiplier.
_MU_TOL = 1e-15


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
    """Exact best adversarial acceptance at infidelity at least epsilon,
    by a Lagrangian dual sweep: the independent route that checks
    strategy_game_value's closed form.

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
    mat = _operator_entries(omega, target.dim)
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
    ket = Ket(chi)
    state = AdversaryState(ket, ket.fidelity(target))
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
