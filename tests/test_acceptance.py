"""End to end acceptance checks, one printed verdict per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every check uses the tolerances stated in its verdict and fails loudly,
never silently: the PASS/FAIL line is printed before the assertion so
a red run still reports which criterion broke.
"""

import math
import time

import numpy as np
import pytest

from qverify.adversary import (
    certify_optimality,
    hilbert_schmidt_mixed_state,
    ppt_lower_bound,
    shift_fidelity,
    strategy_game_value,
)
from qverify.protocol import (
    estimate_power,
    honest_device,
    iid_adversary,
    predicted_acceptance,
    run_protocol,
    wilson_interval,
)
from qverify.adversary import worst_case_state
from qverify.samplecount import (
    HypothesisSpec,
    chernoff_stein_count,
    figure1_data,
    figure2_data,
)
from qverify.stabilizer import (
    full_strategy,
    generator_strategy,
    preset_group,
    subset_strategy,
)
from qverify.strategy import (
    alpha_weight,
    exact_sample_count,
    bell_strategy,
    metrics,
    optimal_q,
    two_qubit_optimal,
)
from oracles import acceptance_probability, dense_metrics, trace3_closed_form
from oracles import two_qubit_closed_form
from stabilizer_oracles import as_dense, full_strategy_q, generator_strategy_q, pauli_matrix

CERT_THETAS = (math.pi / 12, math.pi / 8, math.pi / 5, 3 * math.pi / 8)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_bell_optimum():
    strat = bell_strategy()
    m = metrics(strat)
    ok = abs(m.q - 1.0 / 3.0) <= 1e-12 and abs(dense_metrics(strat).q - 1.0 / 3.0) <= 1e-12
    for eps in (0.01, 0.1, 0.37):
        ok = ok and abs(eps * (1.0 - m.q) - 2.0 * eps / 3.0) <= 1e-12
    exact_sample_count(strat, 0.01, 0.1)  # warm the code path before timing
    start = time.perf_counter()
    report = exact_sample_count(strat, 0.01, 0.1)
    elapsed = time.perf_counter() - start
    ok = ok and report.n_exact == 345 and elapsed < 1e-3
    _verdict(
        1, ok,
        "bell strategy has q = 1/3 and per-copy detection 2eps/3 to 1e-12; "
        "n(0.01, 0.1) = 345 in under 1 ms",
    )


def test_criterion_02_two_qubit_closed_form():
    thetas = np.linspace(0.02, math.pi / 2 - 0.02, 200)
    start = time.perf_counter()
    worst = 0.0
    for theta in thetas:
        strat = two_qubit_optimal(theta)
        worst = max(worst, float(np.max(np.abs(
            strat.omega - two_qubit_closed_form(theta)
        ))))
        worst = max(worst, abs(
            dense_metrics(strat).q
            - (2.0 + math.sin(2 * theta)) / (4.0 + math.sin(2 * theta))
        ))
        rejectors = [
            s.projector.entries for s in strat.settings if s.label != "ZZ"
        ]
        part = sum(rejectors) / 3.0
        worst = max(worst, float(np.max(np.abs(
            part - trace3_closed_form(theta)
        ))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(
        2, ok,
        f"two-qubit strategy matches its closed forms at 200 angles "
        f"(worst residual {worst:.2e}, {elapsed:.2f} s)",
    )


def test_criterion_03_landscape_certification():
    start = time.perf_counter()
    ok = True
    worst_loc = 0.0
    worst_val = 0.0
    for theta in CERT_THETAS:
        cert = certify_optimality(theta)
        ok = ok and cert.sound and cert.passed
        worst_loc = max(worst_loc, cert.alpha_error, cert.big_p_error)
        worst_val = max(
            worst_val, abs(cert.q_polished - cert.q_closed_form), abs(cert.gap)
        )
    elapsed = time.perf_counter() - start
    ok = ok and worst_loc <= 1e-4 and worst_val <= 1e-6 and elapsed < 30.0
    _verdict(
        3, ok,
        f"grid sweep certifies the optimum at four angles: minimizer within "
        f"1e-4 ({worst_loc:.2e}), value within 1e-6 ({worst_val:.2e}), "
        f"{elapsed:.1f} s",
    )


def test_criterion_04_ppt_boundary():
    # phi = cos(theta)|00> - sin(theta)|11> is the in-plane state
    # orthogonal to the target; its acceptance is read off the matrix
    def in_plane(theta):
        phi = np.array([math.cos(theta), 0.0, 0.0, -math.sin(theta)])
        return float(np.real(phi @ trace3_closed_form(theta) @ phi))

    worst = max(
        abs(in_plane(theta) - ppt_lower_bound(theta)) for theta in CERT_THETAS
    )
    _verdict(
        4, worst <= 1e-10,
        f"three-outcome in-plane orthogonal acceptance equals the separability "
        f"floor sin2t/(1+sin2t) within 1e-10 ({worst:.2e})",
    )


def test_criterion_05_stabilizer_laws():
    start = time.perf_counter()
    ok = True
    for preset in ("bell", "ghz3", "ghz4", "cluster4"):
        group = preset_group(preset)
        n = group.num_qubits
        psi = group.state()
        avg = sum(pauli_matrix(e) for e in group.elements) / len(group.elements)
        residual = float(np.max(np.abs(
            avg - np.outer(psi.amplitudes, psi.amplitudes.conj())
        )))
        ok = ok and residual <= 1e-10
        ok = ok and abs(
            metrics(full_strategy(group)).q - full_strategy_q(n)
        ) <= 1e-10
        ok = ok and abs(
            metrics(generator_strategy(group)).q - generator_strategy_q(n)
        ) <= 1e-10
        for dropped in range(n):
            indices = [1 << j for j in range(n) if j != dropped]
            report = subset_strategy(group, indices)
            ok = ok and report.degenerate
            ok = ok and report.fooling_acceptance >= 1.0 - 1e-10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(
        5, ok,
        f"four presets satisfy the group-average identity, both closed-form "
        f"q values, and generator-dropped subsets are degenerate with a "
        f"fooling state ({elapsed:.1f} s)",
    )


def test_criterion_06_adversary_oracles():
    start = time.perf_counter()
    builds = (
        bell_strategy(),
        two_qubit_optimal(math.pi / 8),
        two_qubit_optimal(0.7),
        full_strategy(preset_group("ghz3")),
    )
    rng = np.random.default_rng(2024)
    eps = 0.1
    ok = True
    for strat in builds:
        q = metrics(strat).q
        bound = 1.0 - eps * (1.0 - q)
        for _ in range(1000):
            rho = hilbert_schmidt_mixed_state(strat.dim, rng)
            adv = shift_fidelity(rho, strat.target, eps)
            omega = as_dense(strat).omega  # the stabilizer strategy's dense oracle
            ok = ok and acceptance_probability(omega, adv) <= bound + 1e-10
        for game_eps in (0.01, 0.1):
            result = strategy_game_value(strat, game_eps)
            ok = ok and abs(result.epsilon_star - game_eps) <= 1e-5
            ok = ok and abs(
                result.accept_prob - (1.0 - game_eps * (1.0 - q))
            ) <= 1e-8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(
        6, ok,
        f"1000 random mixed states per strategy never beat the pure worst "
        f"case, and the best adversarial value is 1 - eps(1-q) attained at "
        f"the promise boundary ({elapsed:.1f} s)",
    )


def test_criterion_07_protocol_statistics():
    start = time.perf_counter()
    strat = bell_strategy()
    ok = True
    for eps, n in ((0.1, 100), (0.05, 300)):
        device = iid_adversary(
            strat.target, worst_case_state(strat, eps), eps
        )
        trials = 100_000
        stats = estimate_power(strat, device, n=n, trials=trials, seed=7)
        predicted = (1.0 - 2.0 * eps / 3.0) ** n
        assert abs(predicted_acceptance(strat, device, n) - predicted) < 1e-12
        successes = round(stats.accept_rate * trials)
        low, high = wilson_interval(successes, trials, z=3.0)
        ok = ok and low <= predicted <= high
    honest = honest_device(strat.target)
    run = run_protocol(strat, honest, 1_000_000, seed=1)
    ok = ok and run.accepted and predicted_acceptance(strat, honest, 10) == 1.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(
        7, ok,
        f"10^5-trial empirical acceptance matches (1 - 2eps/3)^n within 3 "
        f"Wilson sigma at (0.1, 100) and (0.05, 300); honest run of 10^6 "
        f"copies accepts with certainty ({elapsed:.1f} s)",
    )


def test_criterion_08_scaling_separation():
    start = time.perf_counter()
    gaps = np.logspace(-4, -2, 25)
    slopes = {}
    for p0 in (1.0, 0.5):
        counts = [
            chernoff_stein_count(HypothesisSpec.from_gap(p0, g), 0.1).n_exact
            for g in gaps
        ]
        slopes[p0] = float(np.polyfit(np.log(gaps), np.log(counts), 1)[0])
    elapsed = time.perf_counter() - start
    ok = (
        abs(slopes[1.0] + 1.0) <= 0.02
        and abs(slopes[0.5] + 2.0) <= 0.05
        and elapsed < 1.0
    )
    _verdict(
        8, ok,
        f"copy count scales as 1/gap for certainty-accepting strategies "
        f"(slope {slopes[1.0]:.3f}) and 1/gap^2 otherwise "
        f"(slope {slopes[0.5]:.3f})",
    )


def test_criterion_09_figure_reproduction():
    rows = figure1_data(0.01, 0.1)
    ok = rows[0].n_exact == 230 and rows[-1].n_exact == 230
    bell_rows = [r for r in rows if r.family == "bell"]
    ok = ok and len(bell_rows) == 1 and bell_rows[0].n_exact == 345
    interior = [r for r in rows if r.family == "two-qubit-optimal"]
    peak = max(r.n_exact for r in interior)
    peak_asym = max(r.n_asymptotic for r in interior)
    ok = ok and 570 <= peak <= 582 and abs(peak_asym - 575.64) <= 1.0
    # the maximum sits against the central discontinuity
    argpeak = max(interior, key=lambda r: r.n_exact)
    ok = ok and abs(argpeak.theta - math.pi / 4) < 0.05

    eps = np.logspace(-4, -1, 16)
    fig2 = figure2_data(math.pi / 8, 0.1, epsilons=eps)
    log_eps = np.log(eps)

    def slope(values):
        return float(np.polyfit(log_eps, np.log(values), 1)[0])

    ok = ok and abs(slope([r.n_local for r in fig2]) + 1.0) <= 0.02
    ok = ok and abs(slope([r.n_global for r in fig2]) + 1.0) <= 0.02
    ok = ok and abs(slope([r.n_tomo_ref for r in fig2]) + 2.0) <= 1e-9
    _verdict(
        9, ok,
        "copy-count curve over theta has 230 endpoints, a 345 point at the "
        "bell angle, and an interior peak near 576; count-vs-eps curves "
        "slope -1 against a 1/eps^2 reference",
    )
