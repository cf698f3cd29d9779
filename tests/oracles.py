"""Test-only helpers over the library's checked internals.

The library has no caller for these; tests read a single projector
check, a device's per-copy state, a dense strategy's eigenproblem, the
game value's Lagrangian dual sweep, a dense acceptance tr(Omega sigma),
the dense closed forms of the two-qubit optimum and of the symmetrized
candidate family, the GHZ state, and the float and Fraction routes to an
exact copy count through them.
"""

import math
from fractions import Fraction

import numpy as np

from qverify.adversary import _ROUNDING, AdversaryState, GameValue, lambda1, lambda2
from qverify.errors import ValidationError
from qverify.qcore import TOL_DERIVED, HermitianOperator, Ket, _projector_defects
from qverify.qcore import orthocomplement_basis
from qverify.samplecount import StrategyMetrics, check_probability
from qverify.stabilizer import PauliStrategy, StabilizerGroup
from qverify.strategy import Strategy, alpha_weight


def is_projector(op: HermitianOperator) -> bool:
    """True when op is idempotent with eigenvalues in {0, 1} within
    TOL_DERIVED, by the library's stacked check on a stack of one."""
    return not _projector_defects(op.entries[None], TOL_DERIVED)[0]


def density_at(device, copy_index: int, supplied=None) -> np.ndarray:
    """Copy copy_index's density matrix: a fixed device's sigma, or the
    supplier's state (supplied, when the caller has drawn it already)
    checked as the protocol checks it; a pure state, which the device
    keeps as its Ket, is densified."""
    state = device.sigma
    if state is None:
        obj = device.supplier(copy_index) if supplied is None else supplied
        state = device._supplied_state(obj, copy_index)
    return state.density().entries if isinstance(state, Ket) else state


def dense_metrics(strategy) -> StrategyMetrics:
    """q and trace solved from a dense strategy's own omega, whatever its
    metrics hold: q is the top eigenvalue of omega on the target's
    orthocomplement, clamped to [0, 1], by eigvalsh of the block
    basis^dagger omega basis. The oracle of every closed form and of a dense
    Strategy's own solve."""
    basis = orthocomplement_basis(strategy.target)
    top = float(np.linalg.eigvalsh(basis.conj().T @ strategy.omega @ basis)[-1])
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


def _operator_entries(omega, dim: int) -> np.ndarray:
    """omega's matrix, dim x dim like the state it scores: a Strategy's
    omega, a HermitianOperator's entries, or an array checked as a
    HermitianOperator."""
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
        raise ValidationError(f"operator and state dimensions differ ({mat.shape[0]} != {dim})")
    return mat


def acceptance_probability(omega, state: AdversaryState) -> float:
    """Per copy acceptance tr(Omega sigma) of a device output, from a dense
    operator: the second route to protocol.predicted_acceptance's."""
    if not isinstance(state, AdversaryState):
        raise ValidationError(f"expected an AdversaryState, got {state!r}")
    mat = _operator_entries(omega, state.sigma.dim)
    return float(np.trace(mat @ state.sigma.entries).real)


def ghz_state(num_qubits: int) -> Ket:
    """(|0...0> + |1...1>)/sqrt(2), written down directly."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return Ket(amps)


def group_to_json(group: StabilizerGroup) -> list[str]:
    """Generator labels; parseable back with group_from_json."""
    return [g.label for g in group.generators]


def trace3_closed_form(theta: float) -> np.ndarray:
    """Closed form of the trace three part of the optimal strategy.

    Equals identity minus 1/(1+t)^2 times the rank two pattern
    [[1,0,0,-t],[0,t,0,0],[0,0,t,0],[-t,0,0,t^2]] with t = tan(theta),
    and also equals the equal weight mixture of the three complement
    projectors of annihilating_product_states.
    """
    t = math.tan(theta)
    pattern = np.array(
        [
            [1.0, 0.0, 0.0, -t],
            [0.0, t, 0.0, 0.0],
            [0.0, 0.0, t, 0.0],
            [-t, 0.0, 0.0, t * t],
        ],
        dtype=complex,
    )
    return np.eye(4, dtype=complex) - pattern / (1.0 + t) ** 2


def two_qubit_closed_form(theta: float) -> np.ndarray:
    """Closed form strategy operator of the four setting optimum."""
    alpha = alpha_weight(theta)
    p_zz = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    return alpha * p_zz + (1.0 - alpha) * trace3_closed_form(theta)


# The symmetrized candidate family that adversary.certify_optimality sweeps
# through its closed-form eigenvalues lambda1 and lambda2, built densely.


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


def family_qmax(alpha, big_p, big_t):
    """Worst-case orthogonal acceptance of a family member."""
    return np.maximum(lambda1(alpha, big_p, big_t), lambda2(alpha, big_p, big_t))


def float_exact_count(delta_eps: float, delta: float) -> int:
    """The float route exact_count had: the ceiling of the float quotient
    log(delta) / log1p(-delta_eps), which can miss by one near a tie."""
    return math.ceil(-math.log(delta) / -math.log1p(-delta_eps))


def fraction_exact_count(delta_eps: float, delta: float) -> int:
    """The least n >= 1 with (1 - delta_eps)**n <= delta in Fraction
    arithmetic, searched from the float route's count."""
    ratio, bound = 1 - Fraction(delta_eps), Fraction(delta)
    n = float_exact_count(delta_eps, delta)
    while ratio**n > bound:
        n += 1
    while n > 1 and ratio ** (n - 1) <= bound:
        n -= 1
    return n
