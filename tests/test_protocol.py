import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify.errors import ValidationError
from qverify.adversary import AdversaryKind, AdversaryState, worst_case_state
from qverify.protocol import (
    CERTAINTY_TOL,
    WILSON_Z99,
    DeviceMode,
    EnsembleStats,
    RunResult,
    custom_device,
    estimate_power,
    honest_device,
    iid_adversary,
    predicted_acceptance,
    run_protocol,
    varying_adversary,
    wilson_interval,
)
from qverify.qcore import HermitianOperator, Ket
from qverify.strategy import bell_strategy, two_qubit_optimal


BELL = Ket.normalized([1.0, 0.0, 0.0, 1.0])


def worst_iid_device(epsilon):
    strat = bell_strategy()
    return strat, iid_adversary(BELL, worst_case_state(strat, epsilon), epsilon)


def test_honest_always_accepts():
    strat = bell_strategy()
    device = honest_device(BELL)
    result = run_protocol(strat, device, 10_000, seed=7)
    assert result.accepted
    assert result.first_failure_index is None
    assert predicted_acceptance(strat, device, 10_000) == 1.0


def test_replay_is_bit_identical():
    strat, device = worst_iid_device(0.1)
    a = run_protocol(strat, device, 500, seed=42, trial=3)
    b = run_protocol(strat, device, 500, seed=42, trial=3)
    assert a == b
    c = run_protocol(strat, device, 500, seed=42, trial=4)
    d = run_protocol(strat, device, 500, seed=43, trial=3)
    # different trial or seed keys must decouple the stream; identical
    # failure indices here would be a one in ~n coincidence, tolerated
    assert (a != c) or (a != d)


def test_predicted_matches_closed_form():
    strat, device = worst_iid_device(0.1)
    for n in (1, 10, 100):
        predicted = predicted_acceptance(strat, device, n)
        assert abs(predicted - (1.0 - 0.2 / 3.0) ** n) < 1e-13


def test_estimate_power_within_wilson_of_prediction():
    strat, device = worst_iid_device(0.1)
    stats = estimate_power(strat, device, n=20, trials=4000, seed=9)
    predicted = predicted_acceptance(strat, device, 20)
    assert stats.wilson_low <= predicted <= stats.wilson_high
    assert stats.trials == 4000


def test_varying_adversary_prediction_and_determinism():
    strat = bell_strategy()
    states = [
        worst_case_state(strat, 0.05),
        worst_case_state(strat, 0.2),
        worst_case_state(strat, 0.4),
    ]
    device = varying_adversary(BELL, lambda k: states[k], epsilon=0.05)
    assert device.mode is DeviceMode.VARYING_ADVERSARY
    predicted = predicted_acceptance(strat, device, 3)
    expected = math.prod(1.0 - e * (2.0 / 3.0) for e in (0.05, 0.2, 0.4))
    assert abs(predicted - expected) < 1e-12
    assert run_protocol(strat, device, 3, seed=1) == run_protocol(
        strat, device, 3, seed=1
    )


def test_varying_adversary_supplier_indexed_by_copy():
    strat = bell_strategy()
    states = [worst_case_state(strat, 0.1), worst_case_state(strat, 0.3)]
    device = varying_adversary(BELL, lambda k: states[k % 2], epsilon=0.1)
    per_copy = [1.0 - 0.1 * 2.0 / 3.0, 1.0 - 0.3 * 2.0 / 3.0]
    expected = math.prod(per_copy[k % 2] for k in range(5))
    assert abs(predicted_acceptance(strat, device, 5) - expected) < 1e-12


def test_varying_adversary_promise_enforced_per_copy():
    strat = bell_strategy()
    good = worst_case_state(strat, 0.2)
    near_honest = worst_case_state(strat, 1e-6)
    device = varying_adversary(
        BELL, lambda k: near_honest if k == 2 else good, epsilon=0.1
    )
    with pytest.raises(ValidationError):
        predicted_acceptance(strat, device, 5)


def test_promise_enforcement():
    strat = bell_strategy()
    honest_sigma = worst_case_state(strat, 1e-6)
    with pytest.raises(ValidationError):
        iid_adversary(BELL, honest_sigma, epsilon=0.1)
    # custom devices carry no promise, so the same state is fine there
    device = custom_device(BELL, lambda k: honest_sigma)
    assert device.mode is DeviceMode.CUSTOM
    assert run_protocol(strat, device, 10, seed=0).accepted in (True, False)


def test_custom_device_supplier_indexed_by_copy():
    strat = bell_strategy()
    seen = []

    def supplier(k):
        seen.append(k)
        return worst_case_state(strat, 0.2)

    device = custom_device(BELL, supplier)
    predicted_acceptance(strat, device, 4)
    assert seen == [0, 1, 2, 3]


def test_sink_records_trials():
    strat, device = worst_iid_device(0.3)
    records = []
    stats = estimate_power(
        strat, device, n=5, trials=40, seed=2, sink=records.append
    )
    assert len(records) == 40
    assert [r["trial"] for r in records] == list(range(40))
    for r in records:
        assert r["n"] == 5
        assert r["accepted"] == (r["first_failure_index"] is None)
        assert "setting_labels_drawn" not in r
    accepted = sum(r["accepted"] for r in records)
    assert stats.accept_rate == accepted / 40


def test_sink_label_recording():
    strat, device = worst_iid_device(0.3)
    records = []
    estimate_power(
        strat, device, n=6, trials=20, seed=5,
        sink=records.append, record_labels=True,
    )
    valid = {"XX", "-YY", "ZZ"}
    for r in records:
        labels = r["setting_labels_drawn"]
        assert set(labels) <= valid
        if r["accepted"]:
            assert len(labels) == 6
        else:
            assert len(labels) == r["first_failure_index"] + 1


def test_labels_do_not_perturb_stream():
    strat, device = worst_iid_device(0.3)
    bare = estimate_power(strat, device, n=6, trials=50, seed=5)
    recorded = estimate_power(
        strat, device, n=6, trials=50, seed=5,
        sink=lambda r: None, record_labels=True,
    )
    assert bare.accept_rate == recorded.accept_rate


def test_chunk_boundary():
    # the sampler works in blocks of 65536 copies; straddle one edge
    strat = bell_strategy()
    device = honest_device(BELL)
    result = run_protocol(strat, device, (1 << 16) + 17, seed=1)
    assert result.accepted
    assert result.n_copies == (1 << 16) + 17


def test_wilson_interval_edges():
    low, high = wilson_interval(0, 10)
    assert low == 0.0 and 0.0 < high < 1.0
    low, high = wilson_interval(10, 10)
    assert high <= 1.0 and low > 0.0
    with pytest.raises(ValidationError):
        wilson_interval(11, 10)
    with pytest.raises(ValidationError):
        wilson_interval(-1, 10)
    with pytest.raises(ValidationError):
        wilson_interval(0, 0)
    assert abs(WILSON_Z99 - 2.5758293035489004) < 1e-15


@given(
    successes=st.integers(min_value=0, max_value=200),
    trials=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_wilson_interval_contains_point_estimate(successes, trials):
    if successes > trials:
        successes = trials
    low, high = wilson_interval(successes, trials)
    assert 0.0 <= low <= successes / trials <= high <= 1.0


def test_run_result_validation():
    with pytest.raises(ValidationError):
        RunResult(n_copies=5, accepted=True, first_failure_index=2, rng_seed=0)
    with pytest.raises(ValidationError):
        RunResult(n_copies=5, accepted=False, first_failure_index=None, rng_seed=0)
    with pytest.raises(ValidationError):
        RunResult(n_copies=5, accepted=False, first_failure_index=7, rng_seed=0)


def test_ensemble_stats_validation():
    with pytest.raises(ValidationError):
        EnsembleStats(trials=10, accept_rate=0.9, wilson_low=0.1, wilson_high=0.5)


def test_protocol_input_validation():
    strat = bell_strategy()
    device = honest_device(BELL)
    with pytest.raises(ValidationError):
        run_protocol(strat, device, 0, seed=0)
    with pytest.raises(ValidationError):
        estimate_power(strat, device, n=5, trials=0, seed=0)
    with pytest.raises(ValidationError):
        estimate_power(strat, device, n=0, trials=5, seed=0)


def test_device_target_must_match_strategy():
    strat = two_qubit_optimal(0.6)
    device = honest_device(BELL)
    with pytest.raises(ValidationError):
        run_protocol(strat, device, 10, seed=0)


def test_density_coercion_rejects_junk():
    with pytest.raises(ValidationError):
        iid_adversary(BELL, np.eye(4), epsilon=0.5)  # trace 4
    lopsided = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        iid_adversary(BELL, lopsided, epsilon=0.5)


def test_certainty_clamp_keeps_probabilities_in_range():
    # the optimal two qubit strategy gives pass probabilities within
    # CERTAINTY_TOL of 1 on the honest state; clamping must keep the
    # honest run deterministic
    strat = two_qubit_optimal(math.pi / 8)
    device = honest_device(strat.target)
    assert predicted_acceptance(strat, device, 1000) == 1.0
    assert run_protocol(strat, device, 1000, seed=3).accepted
    assert CERTAINTY_TOL == 1e-10


@pytest.mark.parametrize(
    "diagonal",
    [
        [1.5, -0.5, 0.0, 0.0],  # unit trace, negative eigenvalue
        [0.5, 0.5, 0.5, 0.5],  # positive, trace 2
    ],
)
def test_device_states_and_adversary_states_share_one_density_check(diagonal):
    sigma = np.diag(np.array(diagonal, dtype=complex))
    with pytest.raises(ValidationError):
        AdversaryState(
            sigma=HermitianOperator(sigma), fidelity=0.5, kind=AdversaryKind.CUSTOM
        )
    with pytest.raises(ValidationError):
        iid_adversary(BELL, sigma)
    device = custom_device(BELL, lambda k: sigma)
    with pytest.raises(ValidationError):
        predicted_acceptance(bell_strategy(), device, 2)
