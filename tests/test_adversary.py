import dataclasses
import functools
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
from qverify import adversary
from qverify.adversary import (
    HULL_COLUMNS,
    LANDSCAPE_COLUMNS,
    LandscapeRow,
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
    trace3_closed_form,
    two_qubit_optimal,
)
from qverify.stabilizer import (
    full_strategy,
    generator_strategy,
    preset_group,
    subset_strategy,
)
from stabilizer_oracles import as_dense

CERT_THETAS = [math.pi / 12, math.pi / 8, math.pi / 5, 3 * math.pi / 8]


def test_top_orthogonal_eigenvector_bell():
    value, state = top_orthogonal_eigenvector(bell_strategy())
    assert abs(value - 1.0 / 3.0) < 1e-12
    bell = Ket.normalized([1.0, 0.0, 0.0, 1.0])
    assert abs(state.inner(bell)) < 1e-10


FULL_PRESETS = [f"{family}{n}" for family in ("ghz", "cluster") for n in range(2, 7)]
SPLIT_PRESETS = [f"{family}{n}" for family in ("ghz", "cluster") for n in range(3, 7)]


def _nondegenerate_subsets(name):
    # the generators plus the all-ones mask, and the prefix masks 1, 11, 111, ...
    k = preset_group(name).num_generators
    return [[1 << j for j in range(k)] + [(1 << k) - 1], [(1 << j) - 1 for j in range(1, k + 1)]]


# Strategies whose orthogonal eigenvalues all tie, so the worst state's
# projector reads only the target.
TIED = {
    "bell": bell_strategy,
    "two-qubit-0.3": lambda: two_qubit_optimal(0.3),
    "two-qubit-pi/8": lambda: two_qubit_optimal(math.pi / 8),
    "two-qubit-0.7": lambda: two_qubit_optimal(0.7),
    "product-zero": lambda: product_state_strategy("zero"),
    "product-one": lambda: product_state_strategy("one"),
    **{
        f"full-{name}": (lambda name=name: full_strategy(preset_group(name)))
        for name in FULL_PRESETS
    },
}
# Strategies with orthogonal eigenvalues below q.
SPLIT = {
    **{
        f"generators-{name}": (lambda name=name: generator_strategy(preset_group(name)))
        for name in SPLIT_PRESETS
    },
    **{
        f"subset-{name}-{i}": (
            lambda name=name, idx=idx: subset_strategy(preset_group(name), idx).strategy
        )
        for name in SPLIT_PRESETS
        for i, idx in enumerate(_nondegenerate_subsets(name))
    },
}


# The stabilizer strategies again as their dense oracles, whose worst
# state the eigensolver route picks.
for _table in (TIED, SPLIT):
    _table.update({
        f"dense-{name}": (lambda build=build: as_dense(build()))
        for name, build in list(_table.items())
        if name.startswith(("full-", "generators-", "subset-"))
    })


@functools.cache
def _strategy(name):
    return {**TIED, **SPLIT}[name]()


def _rotating_eigh(seed):
    """np.linalg.eigh with each cluster of tied eigenvectors (within 1e-10)
    turned by its own random unitary: another valid answer of the solver."""
    backend = np.linalg.eigh
    rng = np.random.default_rng(seed)

    def eigh(matrix):
        vals, vecs = backend(matrix)
        vecs = vecs.astype(complex)
        edges = np.flatnonzero(np.diff(vals) > 1e-10) + 1
        for lo, hi in zip(np.r_[0, edges], np.r_[edges, len(vals)]):
            size = hi - lo
            raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            vecs[:, lo:hi] = vecs[:, lo:hi] @ np.linalg.qr(raw)[0]
        return vals, vecs

    return eigh


def _rotated_top(strategy, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", _rotating_eigh(seed))
        return top_orthogonal_eigenvector(strategy)


def test_subset_cases_are_nondegenerate():
    for name in SPLIT_PRESETS:
        for idx in _nondegenerate_subsets(name):
            assert not subset_strategy(preset_group(name), idx).degenerate, (name, idx)


@pytest.mark.parametrize("name", sorted(TIED))
@given(seed=st.integers(0, 2**63 - 1))
@settings(max_examples=5, deadline=None)
def test_tied_worst_state_ignores_the_eigensolver_basis(name, seed):
    strat = _strategy(name)
    q, state = top_orthogonal_eigenvector(strat)
    rotated_q, rotated = _rotated_top(strat, seed)
    assert rotated_q == q
    assert np.array_equal(rotated.amplitudes, state.amplitudes)


@given(
    theta=st.floats(0.02, math.pi / 2 - 0.02).filter(lambda t: abs(t - math.pi / 4) > 1e-3),
    seed=st.integers(0, 2**63 - 1),
)
@settings(max_examples=25, deadline=None)
def test_two_qubit_worst_state_ignores_the_eigensolver_basis(theta, seed):
    strat = two_qubit_optimal(theta)
    q, state = top_orthogonal_eigenvector(strat)
    rotated_q, rotated = _rotated_top(strat, seed)
    assert rotated_q == q
    assert np.array_equal(rotated.amplitudes, state.amplitudes)
    assert np.array_equal(state.amplitudes, basis_ket(4, 1).amplitudes)


@pytest.mark.parametrize("name", sorted(SPLIT))
@given(seed=st.integers(0, 2**63 - 1))
@settings(max_examples=5, deadline=None)
def test_split_worst_state_barely_feels_the_eigensolver_basis(name, seed):
    strat = _strategy(name)
    q, state = top_orthogonal_eigenvector(strat)
    rotated_q, rotated = _rotated_top(strat, seed)
    assert rotated_q == q
    assert np.abs(rotated.amplitudes - state.amplitudes).max() < 1e-12


@pytest.mark.parametrize(
    "name,index",
    [
        ("bell", 1),
        ("two-qubit-0.3", 1),
        ("two-qubit-pi/8", 1),
        ("two-qubit-0.7", 1),
        ("product-zero", 1),
        ("product-one", 0),
    ],
)
def test_two_qubit_worst_state_closed_form(name, index):
    # sqrt(1 - eps)|psi> + sqrt(eps)|01>, or |00> when the target is |11>
    strat = _strategy(name)
    _, top = top_orthogonal_eigenvector(strat)
    assert np.array_equal(top.amplitudes, basis_ket(4, index).amplitudes)
    eps = 0.1
    amps = math.sqrt(1.0 - eps) * strat.target.amplitudes
    amps[index] += math.sqrt(eps)
    sigma = worst_case_state(strat, eps).sigma.entries
    assert np.abs(sigma - np.outer(amps, amps.conj())).max() < 1e-12


@pytest.mark.parametrize("theta", [0.3, math.pi / 8, 0.7])
def test_two_qubit_worst_pass_row(theta):
    # the ZZ test always fails |01>; the three product tests fail it with
    # probability t/(1+t)^2 each
    strat = two_qubit_optimal(theta)
    eps = 0.1
    adv = worst_case_state(strat, eps)
    row = [acceptance_probability(s.projector, adv) for s in strat.settings]
    t = math.tan(theta)
    expected = [1.0 - eps] + [1.0 - eps * t / (1.0 + t) ** 2] * 3
    assert np.abs(np.array(row) - expected).max() < 1e-12


@pytest.mark.parametrize("scheme", ["generators", "full"])
@pytest.mark.parametrize("name", SPLIT_PRESETS)
def test_stabilizer_worst_state_spreads_evenly_over_agreeing_syndromes(name, scheme):
    group = preset_group(name)
    k = group.num_generators
    rows = group._joint_eigenvectors(np.arange(2**k))  # row s: syndrome s
    # the syndromes accepted with probability q: one failed generator, or any
    tops = 1 << np.arange(k) if scheme == "generators" else np.arange(1, 2**k)
    proj = rows[tops].T @ rows[tops].conj()
    weights = proj.diagonal().real
    b = int(np.argmax(weights >= weights.max() - 1e-10))
    agree = [s for s in tops if abs(rows[s, b]) > 1e-12]
    expected = np.zeros(2**k)
    expected[agree] = 1.0 / len(agree)
    # the count route and the dense oracle's eigensolver route
    for route in ("", "dense-"):
        _, top = top_orthogonal_eigenvector(_strategy(f"{route}{scheme}-{name}"))
        # the same state, rebuilt from the syndrome basis by the same rule
        assert np.abs(top.amplitudes - proj[:, b] / math.sqrt(weights[b])).max() < 1e-12
        assert np.abs(np.abs(rows.conj() @ top.amplitudes) ** 2 - expected).max() < 1e-12


def test_worst_case_state_acceptance():
    for name in sorted(TIED) + sorted(SPLIT):
        strat = _strategy(name)
        q = metrics(strat).q
        omega = as_dense(strat).omega
        for eps in (0.01, 0.1, 0.5):
            adv = worst_case_state(strat, eps)
            assert abs(adv.fidelity - (1.0 - eps)) < 1e-12, name
            accept = acceptance_probability(omega, adv)
            assert abs(accept - (1.0 - eps * (1.0 - q))) < 1e-12, name


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
    # <phi|T3|phi> for the in-plane orthogonal state phi = cos|00> - sin|11>
    for theta in CERT_THETAS:
        phi = np.array([math.cos(theta), 0.0, 0.0, -math.sin(theta)])
        in_plane = float(np.real(phi @ trace3_closed_form(theta) @ phi))
        assert abs(ppt_lower_bound(theta) - in_plane) < 1e-10


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


def landscape_oracle(theta, alphas, phis):
    """Per-alpha reference: rows cell by cell, running first-minimum."""
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
                (float(alpha), float(phi), float(l1[k]), float(l2[k]), float(qm[k]))
            )
    return rows, best


def assert_landscape_matches_oracle(theta, alphas, phis):
    report = landscape(theta, alphas=alphas, phis=phis)
    rows, best = landscape_oracle(theta, alphas, phis)
    # bitwise: repr of a Python float round-trips every bit
    assert [repr(tuple(r)) for r in report.rows] == [repr(r) for r in rows]
    assert (report.min_qmax, report.argmin_alpha, report.argmin_phi) == best


@pytest.mark.parametrize("theta", CERT_THETAS + [0.6])
def test_landscape_matches_per_cell_oracle(theta):
    alphas = np.linspace(0.0, 1.0, 121)
    phis = np.linspace(0.0, math.pi / 2, 123)[1:-1]
    assert_landscape_matches_oracle(theta, alphas, phis)


@given(
    theta=st.floats(min_value=-2.0, max_value=2.0),
    alphas=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    phis=st.lists(st.floats(min_value=0.01, max_value=1.56), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_landscape_matches_oracle_on_small_grids(theta, alphas, phis):
    assert_landscape_matches_oracle(theta, np.array(alphas), np.array(phis))


@pytest.mark.parametrize(
    "alphas,phis",
    [
        # at alpha = 1 every cell has qmax exactly 1
        ([1.0, 1.0], [0.9, 0.4, 1.2]),
        # repeated alphas and phis tie exactly
        ([0.7, 0.2, 0.7, 0.2, 0.5], [0.9, 0.4, 0.9, 0.4]),
    ],
)
def test_landscape_ties_resolve_to_first_cell(alphas, phis):
    alphas, phis = np.array(alphas), np.array(phis)
    assert_landscape_matches_oracle(0.5, alphas, phis)
    report = landscape(0.5, alphas=alphas, phis=phis)
    qmax = [r.qmax for r in report.rows]
    assert qmax.count(min(qmax)) > 1
    first = report.rows[qmax.index(min(qmax))]
    assert (report.argmin_alpha, report.argmin_phi) == first[:2]


def test_landscape_rows_are_python_tuples_in_column_order():
    report = landscape(math.pi / 8, alphas=np.linspace(0.0, 1.0, 3),
                       phis=np.array([0.3, 1.1]))
    assert LANDSCAPE_COLUMNS == LandscapeRow._fields
    for row in report.rows:
        assert type(row) is LandscapeRow
        assert tuple(getattr(row, c) for c in LANDSCAPE_COLUMNS) == tuple(row)
        assert {type(v) for v in row} == {float}
    for value in (report.argmin_alpha, report.argmin_phi, report.min_qmax):
        assert type(value) is float


@pytest.mark.parametrize(
    "theta,alphas,phis,error",
    [
        (math.nan, None, None, ThetaOutOfDomainError),
        (0.5, np.array([]), None, ValidationError),
        (0.5, None, np.array([]), ValidationError),
        (0.5, np.linspace(0.0, 1.0, 4).reshape(2, 2), None, ValidationError),
        (0.5, None, np.array([[0.3, 1.1]]), ValidationError),
        (0.5, np.array(0.5), None, ValidationError),
        (0.5, np.array([np.nan, 0.5]), np.array([0.4, 0.9]), ValidationError),
        (0.5, np.array([2.0, -1.0]), None, ValidationError),
        (0.5, np.array([0.5, 1.0 + 1e-12]), None, ValidationError),
        (0.5, np.array([-0.0, -1e-300]), None, ValidationError),
        (0.5, np.array([0.5, np.inf]), None, ValidationError),
        (0.5, None, np.array([0.4, np.nan]), ValidationError),
        (0.5, None, np.array([0.0, 0.4]), ValidationError),
        (0.5, None, np.array([0.4, math.pi / 2]), ValidationError),
        (0.5, None, np.array([-0.4, 0.4]), ValidationError),
        (0.5, None, np.array([0.4, -np.inf]), ValidationError),
    ],
)
def test_landscape_rejects_bad_input(theta, alphas, phis, error):
    with pytest.raises(error):
        landscape(theta, alphas=alphas, phis=phis)


@pytest.mark.parametrize("theta", CERT_THETAS)
def test_certification_quick(theta):
    # coarse pass only: soundness plus a loose location check; the
    # acceptance suite runs the full resolution
    cert = certify_optimality(theta, resolution=120, refine_resolution=600)
    assert cert.sound
    assert cert.gap <= 1e-4
    assert abs(cert.q_polished - cert.q_closed_form) <= 1e-4
    assert cert.alpha_error <= 5e-3
    assert cert.big_p_error <= 5e-3
    assert cert.gap >= -1e-9
    assert abs(cert.q_polished - optimal_q(theta)) < 1e-9
    assert abs(cert.alpha_polished - alpha_weight(theta)) < 1e-6
    assert abs(cert.phi_polished - math.atan(math.sqrt(math.tan(theta)))) < 1e-6


def test_certificate_reports_ppt_floor():
    cert = certify_optimality(math.pi / 8, resolution=80, refine_resolution=320)
    assert abs(cert.ppt_bound - ppt_lower_bound(math.pi / 8)) < 1e-15
    assert cert.resolution == 80


@pytest.mark.parametrize("refine_resolution", [0, -3])
def test_certification_rejects_empty_refinement(refine_resolution):
    with pytest.raises(ValidationError):
        certify_optimality(math.pi / 8, resolution=8,
                           refine_resolution=refine_resolution)


# Full-sweep oracle for the certification's per-column crossing search:
# every cell evaluated, a first-minimum argmin over alpha-row blocks.
_SWEEP_CHUNK = 512


def grid_min_full_sweep(theta, alphas, phis):
    big_t = math.tan(theta) ** 2
    big_p = np.tan(phis) ** 2
    best_val = math.inf
    best_i = best_j = 0
    for lo in range(0, len(alphas), _SWEEP_CHUNK):
        block = alphas[lo : lo + _SWEEP_CHUNK]
        qm = family_qmax(block[:, None], big_p[None, :], big_t)
        i, j = np.unravel_index(int(np.argmin(qm)), qm.shape)
        if qm[i, j] < best_val:
            best_val = float(qm[i, j])
            best_i, best_j = lo + int(i), int(j)
    return best_val, best_i, best_j


def assert_grid_min_matches_sweep(theta, alphas, phis):
    found = adversary._grid_min(theta, alphas, phis)
    swept = grid_min_full_sweep(theta, alphas, phis)
    # the value's bits, not only its equality
    assert (found[0].hex(), *found[1:]) == (swept[0].hex(), *swept[1:])


@pytest.mark.parametrize("theta", CERT_THETAS)
def test_certificate_matches_full_sweep_bitwise(theta, monkeypatch):
    found = certify_optimality(theta)
    monkeypatch.setattr(adversary, "_grid_min", grid_min_full_sweep)
    swept = certify_optimality(theta)
    assert found.passed
    # repr of a Python float round-trips every bit, -0.0 included
    assert repr(dataclasses.astuple(found)) == repr(dataclasses.astuple(swept))


@given(
    theta=st.floats(min_value=0.01, max_value=math.pi / 2 - 0.01),
    resolution=st.integers(min_value=8, max_value=40),
    refine_resolution=st.integers(min_value=1, max_value=40),
    alpha_window=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    phi_window=st.tuples(
        st.floats(1e-3, math.pi / 2 - 1e-3), st.floats(1e-3, math.pi / 2 - 1e-3)
    ).map(sorted),
)
@settings(max_examples=100, deadline=None)
def test_grid_min_matches_full_sweep(
    theta, resolution, refine_resolution, alpha_window, phi_window
):
    # the coarse grid of certify_optimality, then a refinement window
    alphas = np.linspace(0.0, 1.0, resolution)
    phis = np.linspace(0.0, math.pi / 2, resolution + 2)[1:-1]
    assert_grid_min_matches_sweep(theta, alphas, phis)
    fine_alphas = np.linspace(*alpha_window, refine_resolution)
    fine_phis = np.linspace(*phi_window, refine_resolution)
    assert_grid_min_matches_sweep(theta, fine_alphas, fine_phis)


@pytest.mark.parametrize(
    "theta,lambda2_side", [(0.3, False), (0.6, True), (1.2, True)]
)
def test_grid_min_ties_resolve_to_first_cell(theta, lambda2_side):
    # every alpha row twice and every phi column twice: the minimum is
    # attained at least four times, and only the first cell in
    # alpha-major order may be reported, on either side of the crossing
    alphas = np.repeat(np.linspace(0.0, 1.0, 13), 2)
    phis = np.tile(np.linspace(0.2, 1.4, 7), 2)
    value, i, j = adversary._grid_min(theta, alphas, phis)
    assert (value, i, j) == grid_min_full_sweep(theta, alphas, phis)
    assert i % 2 == 0 and j < 7
    big_p, big_t = np.tan(phis) ** 2, math.tan(theta) ** 2
    qm = family_qmax(alphas[:, None], big_p[None, :], big_t)
    assert np.count_nonzero(qm == value) >= 4
    side = lambda2(alphas[i], big_p[j], big_t) > lambda1(alphas[i], big_p[j], big_t)
    assert side == lambda2_side


def test_grid_min_tie_across_the_crossing_takes_the_left_row():
    # lambda2 at the first alpha equals lambda1 at the second, bit for
    # bit, and the two alphas straddle the crossing: both cells attain
    # the column minimum from opposite sides
    theta, alphas, phis = 0.5, np.array([0.22, 0.2605552917958495]), np.array([0.6])
    big_p, big_t = np.tan(phis) ** 2, math.tan(theta) ** 2
    l1, l2 = lambda1(alphas, big_p, big_t), lambda2(alphas, big_p, big_t)
    assert l1[0] < l2[0] == l1[1] and l2[1] <= l1[1]
    assert adversary._grid_min(theta, alphas, phis) == (float(l2[0]), 0, 0)
    assert grid_min_full_sweep(theta, alphas, phis) == (float(l2[0]), 0, 0)


@given(
    theta=st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3),
    phi=st.floats(min_value=1e-6, max_value=math.pi / 2 - 1e-6),
    alphas=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                    max_size=40).map(sorted),
)
@settings(max_examples=200, deadline=None)
def test_computed_lambdas_are_monotone_in_alpha(theta, phi, alphas):
    # the crossing search is exact only because rounding keeps these
    # orders: lambda1 = 1 - c (1 - alpha), lambda2 = (1 - alpha) d, c, d >= 0
    alphas = np.array(alphas)
    big_p = np.tan(np.array([phi])) ** 2
    big_t = math.tan(theta) ** 2
    assert np.all(np.diff(lambda1(alphas, big_p, big_t)) >= 0.0)
    assert np.all(np.diff(lambda2(alphas, big_p, big_t)) <= 0.0)


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
