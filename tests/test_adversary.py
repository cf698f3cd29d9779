import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify.errors import (
    DegenerateStrategyError,
    ThetaOutOfDomainError,
    ValidationError,
)
from qverify.adversary import (
    HULL_COLUMNS,
    LANDSCAPE_COLUMNS,
    AdversaryKind,
    acceptance_probability,
    certify_optimality,
    family_omega,
    family_qmax,
    family_trace3,
    game_value,
    hilbert_schmidt_mixed_state,
    hull_boundary,
    lambda1,
    lambda2,
    landscape,
    ppt_lower_bound,
    ridge_alpha,
    ridge_q,
    shift_fidelity,
    strategy_game_value,
    tau_state,
    top_orthogonal_eigenvector,
    trace3_orthogonal_top,
    twirl_average,
    worst_case_state,
)
from qverify.qcore import HermitianOperator, Ket, basis_ket, haar_random_ket, identity
from qverify.strategy import (
    MeasurementSetting,
    Locality,
    Strategy,
    StrategyKind,
    alpha_weight,
    bell_strategy,
    metrics,
    local_transport,
    optimal_q,
    product_state_strategy,
    target_state,
    two_qubit_optimal,
)
from qverify.stabilizer import (
    full_strategy,
    generator_strategy,
    preset_group,
    subset_strategy,
)

CERT_THETAS = [math.pi / 12, math.pi / 8, math.pi / 5, 3 * math.pi / 8]


def test_top_orthogonal_eigenvector_bell():
    value, state = top_orthogonal_eigenvector(bell_strategy())
    assert abs(value - 1.0 / 3.0) < 1e-12
    bell = Ket.normalized([1.0, 0.0, 0.0, 1.0])
    assert abs(state.inner(bell)) < 1e-10


def test_worst_case_state_acceptance():
    strat = bell_strategy()
    for eps in (0.01, 0.1, 0.5):
        adv = worst_case_state(strat, eps)
        assert adv.kind is AdversaryKind.WORST_CASE_PURE
        assert abs(adv.fidelity - (1.0 - eps)) < 1e-12
        accept = acceptance_probability(strat.omega, adv)
        assert abs(accept - (1.0 - eps * (1.0 - 1.0 / 3.0))) < 1e-12


def test_worst_case_state_validation():
    with pytest.raises(ValidationError):
        worst_case_state(bell_strategy(), 0.0)
    lazy = Strategy(
        target=Ket.normalized([1.0, 0.0, 0.0, 1.0]),
        settings=(
            MeasurementSetting(
                projector=identity(4),
                weight=1.0,
                label="I",
                locality=Locality.NONLOCAL,
            ),
        ),
        kind=StrategyKind.CUSTOM,
    )
    with pytest.raises(DegenerateStrategyError):
        worst_case_state(lazy, 0.1)


def test_hilbert_schmidt_states_are_densities():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rho = hilbert_schmidt_mixed_state(4, rng)
        assert abs(float(np.trace(rho).real) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_shift_fidelity_exact():
    rng = np.random.default_rng(3)
    target = target_state(0.6)
    for eps in (0.05, 0.3, 0.8):
        rho = hilbert_schmidt_mixed_state(4, rng)
        adv = shift_fidelity(rho, target, eps)
        achieved = float(
            np.real(
                np.vdot(target.amplitudes, adv.sigma.entries @ target.amplitudes)
            )
        )
        assert abs(achieved - (1.0 - eps)) < 1e-12
        assert abs(adv.fidelity - (1.0 - eps)) < 1e-12


@given(
    phi=st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
    eta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    theta=st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
)
@settings(max_examples=50, deadline=None)
def test_tau_states_annihilate_target(phi, eta, theta):
    tau = tau_state(theta, phi, eta)
    psi = target_state(theta)
    assert abs(tau.inner(psi)) < 1e-12
    mat = tau.amplitudes.reshape(2, 2)
    assert np.linalg.svd(mat, compute_uv=False)[1] < 1e-12


def test_twirl_average_survivors():
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sym = twirl_average(raw)
    surviving = {(0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (2, 2)}
    for i in range(4):
        for j in range(4):
            if (i, j) not in surviving:
                assert sym[i, j] == 0.0
    assert np.max(np.abs(sym.imag)) == 0.0
    assert sym[1, 1] == sym[2, 2]
    assert sym[0, 3] == sym[3, 0]


def test_twirl_is_idempotent_projection():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    once = twirl_average(raw)
    assert np.max(np.abs(twirl_average(once) - once)) < 1e-14


def test_family_trace3_fixes_target_and_has_trace_three():
    theta, phi = 0.5, 0.8
    part = family_trace3(theta, phi)
    psi = target_state(theta).amplitudes
    assert np.max(np.abs(part @ psi - psi)) < 1e-12
    assert abs(float(np.trace(part).real) - 3.0) < 1e-12
    assert np.max(np.abs(part - twirl_average(part))) < 1e-12


@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    phi=st.floats(min_value=0.1, max_value=math.pi / 2 - 0.1),
    theta=st.floats(min_value=0.1, max_value=math.pi / 2 - 0.1),
)
@settings(max_examples=50, deadline=None)
def test_lambda_formulas_match_dense_eigenvalues(alpha, phi, theta):
    omega = family_omega(theta, alpha, phi)
    psi = target_state(theta).amplitudes
    basis = np.linalg.qr(
        np.column_stack([psi, np.eye(4, dtype=complex)[:, :3]])
    )[0][:, 1:]
    block = basis.conj().T @ omega @ basis
    vals = np.linalg.eigvalsh(block)
    big_p = math.tan(phi) ** 2
    big_t = math.tan(theta) ** 2
    l1 = lambda1(alpha, big_p, big_t)
    l2 = lambda2(alpha, big_p, big_t)
    assert abs(max(vals) - max(l1, l2)) < 1e-9
    assert abs(family_qmax(alpha, big_p, big_t) - max(vals)) < 1e-9


def test_ridge_alpha_equalizes_eigenvalues():
    big_t = math.tan(0.5) ** 2
    big_p = math.sqrt(big_t)
    alpha = ridge_alpha(big_p, big_t)
    assert alpha is not None
    l1 = lambda1(alpha, big_p, big_t)
    l2 = lambda2(alpha, big_p, big_t)
    assert abs(l1 - l2) < 1e-12
    assert abs(ridge_q(big_p, big_t) - l1) < 1e-12


def test_ridge_minimum_matches_closed_form():
    for theta in CERT_THETAS:
        big_t = math.tan(theta) ** 2
        big_p = math.sqrt(big_t)
        assert abs(ridge_q(big_p, big_t) - optimal_q(theta)) < 1e-12


def test_ppt_bound_equals_trace3_orthogonal_top():
    for theta in CERT_THETAS:
        assert abs(ppt_lower_bound(theta) - trace3_orthogonal_top(theta)) < 1e-10


def test_ppt_bound_frozen_value():
    assert abs(ppt_lower_bound(math.pi / 8.0) - 0.41421356237309503) < 1e-15


def test_hull_boundary_structure():
    rows = hull_boundary(math.pi / 8.0, points=50)
    assert len(rows) == 52
    parts = {part for _, _, part in rows}
    assert parts == {"ppt-cutoff", "zz-point", "trace3-locus"}
    floor = ppt_lower_bound(math.pi / 8.0)
    for lam1, lam2, part in rows:
        if part == "trace3-locus":
            assert lam1 >= floor - 1e-12
            assert abs(lam2 - (1.0 - lam1 / 2.0)) < 1e-12
        elif part == "zz-point":
            assert (lam1, lam2) == (1.0, 0.0)
    assert len(HULL_COLUMNS) == 3


def test_hull_boundary_validation():
    with pytest.raises(ThetaOutOfDomainError):
        hull_boundary(0.0)
    with pytest.raises(ValidationError):
        hull_boundary(0.5, points=1)


def test_landscape_report_contains_ridge_and_argmin():
    report = landscape(0.5, alphas=np.linspace(0.0, 1.0, 21),
                       phis=np.linspace(0.1, 1.4, 19))
    assert len(report.rows) == 21 * 19
    assert report.min_qmax <= min(r.qmax for r in report.rows) + 1e-15
    assert len(LANDSCAPE_COLUMNS) == 5
    assert report.min_qmax >= optimal_q(0.5) - 1e-12
    for phi, alpha_star, q_here in report.ridge:
        assert 0.0 <= alpha_star <= 1.0
        assert q_here >= optimal_q(0.5) - 1e-12


@pytest.mark.parametrize("theta", CERT_THETAS)
def test_certification_quick(theta):
    # coarse pass only: soundness plus a loose location check; the
    # acceptance suite runs the full resolution
    cert = certify_optimality(
        theta, resolution=120, refine_resolution=600,
        value_tol=1e-4, location_tol=5e-3,
    )
    assert cert.sound
    assert cert.passed
    assert cert.gap >= -1e-9
    assert abs(cert.q_polished - optimal_q(theta)) < 1e-9
    assert abs(cert.alpha_polished - alpha_weight(theta)) < 1e-6
    assert abs(cert.phi_polished - math.atan(math.sqrt(math.tan(theta)))) < 1e-6


def test_certificate_reports_ppt_floor():
    cert = certify_optimality(
        math.pi / 8, resolution=80, refine_resolution=320,
        value_tol=1e-3, location_tol=1e-2,
    )
    assert abs(cert.ppt_bound - ppt_lower_bound(math.pi / 8)) < 1e-15
    assert cert.resolution == 80


def test_game_value_bell_frozen():
    result = strategy_game_value(bell_strategy(), 0.01)
    assert abs(result.accept_prob - 0.9933333333333331) < 1e-12
    assert abs(result.epsilon_star - 0.01) < 1e-12
    assert result.maximizer.fidelity <= 0.99 + 1e-10


@pytest.mark.parametrize(
    "build,theta",
    [(bell_strategy, None), (two_qubit_optimal, math.pi / 8), (two_qubit_optimal, 0.7)],
)
def test_game_value_matches_worst_case_formula(build, theta):
    strat = build() if theta is None else build(theta)
    eps = 0.1
    q = metrics(strat).q
    result = strategy_game_value(strat, eps)
    assert abs(result.accept_prob - (1.0 - eps * (1.0 - q))) < 1e-8
    assert abs(result.epsilon_star - eps) < 1e-5
    accept = acceptance_probability(strat.omega, result.maximizer)
    assert accept <= result.accept_prob + 1e-10


def test_game_value_epsilon_validation():
    with pytest.raises(ValidationError):
        strategy_game_value(bell_strategy(), 0.0)
    with pytest.raises(ValidationError):
        strategy_game_value(bell_strategy(), 1.0)


def test_mixed_states_never_beat_pure_worst_case():
    # spot version of the acceptance sweep: 100 random mixed states at
    # fixed fidelity stay below the pure worst case bound
    strat = two_qubit_optimal(0.6)
    q = metrics(strat).q
    eps = 0.1
    bound = 1.0 - eps * (1.0 - q)
    rng = np.random.default_rng(123)
    for _ in range(100):
        rho = hilbert_schmidt_mixed_state(4, rng)
        adv = shift_fidelity(rho, strat.target, eps)
        assert acceptance_probability(strat.omega, adv) <= bound + 1e-10


# game_value on operators that do not fix the target: the top
# eigenvector moves continuously with the dual multiplier here, while
# for every strategy above it jumps between the target and its
# orthocomplement.


def _unit_spectrum_operator(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, _ = np.linalg.qr(raw)
    return (unitary * rng.uniform(0.0, 1.0, dim)) @ unitary.conj().T


def _check_maximizer(result, omega, target, epsilon):
    assert result.maximizer.fidelity <= 1.0 - epsilon + 1e-10
    accept = acceptance_probability(omega, result.maximizer)
    assert abs(accept - result.accept_prob) < 1e-10


def _dual_upper_bound(omega, target, epsilon):
    # weak duality: for every mu >= 0 and every state x with
    # |<psi|x>|^2 <= 1 - eps, <x|omega|x> <= lmax(omega - mu P) + mu (1 - eps)
    proj = np.outer(target.amplitudes, target.amplitudes.conj())
    return min(
        float(np.linalg.eigvalsh(omega - mu * proj)[-1]) + mu * (1.0 - epsilon)
        for mu in np.linspace(0.0, 4.0, 4001)
    )


@pytest.mark.parametrize(
    "seed,epsilon", [(1, 0.05), (2, 0.3), (3, 0.6), (4, 0.15), (5, 0.9)]
)
def test_game_value_dim2_matches_exhaustive_grid(seed, epsilon):
    omega = _unit_spectrum_operator(2, seed)
    target = haar_random_ket(2, seed=100 + seed)
    assert np.linalg.norm(omega @ target.amplitudes - target.amplitudes) > 1e-3
    result = game_value(omega, target, epsilon)
    psi = target.amplitudes
    perp = np.array([-psi[1].conj(), psi[0].conj()])
    polar = np.linspace(math.asin(math.sqrt(epsilon)), math.pi / 2, 801)
    phase = np.linspace(0.0, 2.0 * math.pi, 801)
    states = (
        np.cos(polar)[:, None, None] * psi
        + (np.exp(1j * phase)[None, :, None] * np.sin(polar)[:, None, None]) * perp
    )
    oracle = float(np.einsum("abi,ij,abj->ab", states.conj(), omega, states).real.max())
    assert oracle - 1e-9 <= result.accept_prob <= oracle + 1e-5
    assert result.accept_prob <= _dual_upper_bound(omega, target, epsilon) + 1e-9
    _check_maximizer(result, omega, target, epsilon)


def _feasible_lower_bound(omega, target, epsilon, rng, samples=4000):
    dim = target.dim
    psi = target.amplitudes
    best = -math.inf
    for _ in range(samples):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        perp = raw - np.vdot(psi, raw) * psi
        perp /= np.linalg.norm(perp)
        infidelity = rng.uniform(epsilon, 1.0) if rng.random() < 0.5 else epsilon
        x = math.sqrt(1.0 - infidelity) * psi + math.sqrt(infidelity) * perp
        best = max(best, float(np.real(np.vdot(x, omega @ x))))
    return best


def _coupled_to_lower_eigenvector():
    # target |00>; the coupling omega|psi> - <psi|omega|psi>|psi> lies on
    # |01> while the orthogonal block's top eigenvector is |11>, so the
    # coupling has no weight on the block's top eigenspace
    omega = np.diag([0.6, 0.3, 0.1, 0.8]).astype(complex)
    omega[0, 1] = omega[1, 0] = 0.25
    return omega


@pytest.mark.parametrize(
    "name,epsilon",
    [("random", 0.1), ("random", 0.5), ("coupled-low", 0.05), ("coupled-low", 0.4)],
)
def test_game_value_dim4_against_feasible_states(name, epsilon):
    target = basis_ket(4, 0) if name == "coupled-low" else haar_random_ket(4, seed=7)
    omega = _coupled_to_lower_eigenvector() if name == "coupled-low" else (
        _unit_spectrum_operator(4, 8)
    )
    result = game_value(HermitianOperator(omega), target, epsilon)
    lower = _feasible_lower_bound(omega, target, epsilon, np.random.default_rng(9))
    assert result.accept_prob >= lower - 1e-12
    assert result.accept_prob <= _dual_upper_bound(omega, target, epsilon) + 1e-9
    _check_maximizer(result, omega, target, epsilon)


def _haar_unitary(rng):
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _game_strategy(name, theta, seed):
    if name == "bell":
        return bell_strategy()
    if name == "two-qubit":
        return two_qubit_optimal(theta)
    if name == "product":
        return product_state_strategy("one")
    if name == "transported":
        rng = np.random.default_rng(seed)
        return local_transport(two_qubit_optimal(theta), _haar_unitary(rng),
                               _haar_unitary(rng))
    if name == "subset-degenerate":
        return subset_strategy(preset_group("ghz3"), [1, 3]).strategy
    scheme, preset = name.split("-")
    build = full_strategy if scheme == "full" else generator_strategy
    return build(preset_group(preset))


@given(
    name=st.sampled_from([
        "bell", "two-qubit", "product", "transported", "subset-degenerate",
        "full-ghz3", "generators-ghz3", "full-cluster3", "generators-cluster3",
    ]),
    theta=st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    epsilon=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
@settings(max_examples=80, deadline=None)
def test_game_value_is_certified_worst_case(name, theta, seed, epsilon):
    strat = _game_strategy(name, theta, seed)
    result = strategy_game_value(strat, epsilon)
    q = metrics(strat).q
    assert abs(result.accept_prob - (1.0 - epsilon * (1.0 - q))) <= 1e-9
    assert result.maximizer.fidelity <= 1.0 - epsilon + 1e-12
    assert 0.0 <= result.upper_bound - result.accept_prob <= 1e-9


EDGE_VALUES = {
    "identity": lambda eps: 1.0,
    "zero": lambda eps: 0.0,
    "target-projector": lambda eps: 1.0 - eps,
    "half-identity-plus-target": lambda eps: 1.0 - eps / 2.0,
}


@pytest.mark.parametrize("target_name", ["ket-11", "haar"])
@pytest.mark.parametrize("epsilon", [1e-9, 0.01, 0.3, 0.9])
@pytest.mark.parametrize("op_name", sorted(EDGE_VALUES))
def test_game_value_edge_operators(op_name, target_name, epsilon):
    # at the target |11> the top eigenvector of omega at mu = 0 is the
    # target itself even for omega = I or 0, so the optimal multiplier
    # mu* = 0 is reached only in the limit and the bisection must stop
    # on an absolute width
    target = basis_ket(4, 3) if target_name == "ket-11" else haar_random_ket(4, seed=21)
    proj = np.outer(target.amplitudes, target.amplitudes.conj())
    omega = {
        "identity": np.eye(4),
        "zero": np.zeros((4, 4)),
        "target-projector": proj,
        "half-identity-plus-target": (np.eye(4) + proj) / 2.0,
    }[op_name]
    result = game_value(omega, target, epsilon)
    assert result.evaluations <= 100
    assert abs(result.accept_prob - EDGE_VALUES[op_name](epsilon)) <= 1e-12
    assert 0.0 <= result.upper_bound - result.accept_prob <= 1e-9
    _check_maximizer(result, omega, target, epsilon)
