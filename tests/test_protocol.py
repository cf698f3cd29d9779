import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qverify.protocol as protocol
from qverify.cli import main
from qverify.errors import BadDimError, NonHermitianError, ValidationError
from qverify.adversary import (
    AdversaryState,
    hilbert_schmidt_mixed_state,
    shift_fidelity,
    worst_case_state,
)
from qverify.protocol import (
    _CHUNK,
    _FIRST_CHUNK,
    WILSON_Z99,
    DeviceModel,
    EnsembleStats,
    RunResult,
    _build_plan,
    _clamp_certainties,
    estimate_power,
    honest_device,
    iid_adversary,
    predicted_acceptance,
    run_protocol,
    varying_adversary,
    wilson_interval,
)
from qverify.qcore import TOL_DERIVED, HermitianOperator, Ket, basis_ket
from qverify.stabilizer import full_strategy, preset_group
from qverify.strategy import Strategy, StrategyKind, bell_strategy, two_qubit_optimal
from oracles import density_at


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
    # the pure target is kept as its Ket; the per-copy oracle densifies it
    psi = BELL.amplitudes
    assert device.sigma is BELL
    assert np.array_equal(density_at(device, 5), np.outer(psi, psi.conj()))


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
    # a device without epsilon carries no promise, so the same state is fine there
    device = varying_adversary(BELL, lambda k: honest_sigma)
    assert run_protocol(strat, device, 10, seed=0).accepted in (True, False)


def test_custom_device_supplier_indexed_by_copy():
    strat = bell_strategy()
    seen = []

    def supplier(k):
        seen.append(k)
        return worst_case_state(strat, 0.2)

    device = varying_adversary(BELL, supplier)
    predicted_acceptance(strat, device, 4)
    assert seen == [0, 1, 2, 3]


def per_copy_probs(strat, device, n):
    """The plan's pass table built one copy at a time, each copy's state
    read and checked through the density_at oracle."""
    stack = np.stack([s.projector.entries for s in strat.settings])
    rows = [np.einsum("kij,ji->k", stack, density_at(device, i)) for i in range(n)]
    return _clamp_certainties(np.real(rows))


@pytest.mark.parametrize("wrap", ["adversary-state", "operator", "ket"])
def test_plan_of_cycling_frozen_states_matches_per_copy_oracle(wrap):
    strat = bell_strategy()
    states = [worst_case_state(strat, eps) for eps in (0.05, 0.2, 0.4)]
    if wrap == "operator":
        states = [s.sigma for s in states]
    if wrap == "ket":
        states = [Ket.normalized([1.0, 0.0, 0.0, e]) for e in (0.1, 0.5, -2.0)]
    calls = []

    def supplier(k):
        calls.append(k)
        return states[k % 3]

    device = varying_adversary(BELL, supplier)
    n = 50
    plan = _build_plan(strat, device, n)
    assert calls == list(range(n))  # the supplier still sees every copy
    assert plan.probs.tobytes() == per_copy_probs(strat, device, n).tobytes()


def test_frozen_state_breaking_the_promise_names_its_first_copy():
    strat = bell_strategy()
    good, near = worst_case_state(strat, 0.2), worst_case_state(strat, 1e-6)
    device = varying_adversary(
        BELL, lambda k: near if k >= 4 and k % 2 == 0 else good, epsilon=0.1
    )
    with pytest.raises(ValidationError, match="copy 4 "):
        predicted_acceptance(strat, device, 9)


def test_plan_rechecks_a_raw_array_on_every_copy():
    # one ndarray handed over on every copy may change in between, so
    # each copy reads and checks it again
    strat = bell_strategy()
    sigma = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)

    def supplier(k):
        if k == 5:
            sigma[:] = np.diag([1.5, -0.5, 0.0, 0.0])  # trace 1, not positive
        return sigma

    with pytest.raises(ValidationError, match="eigenvalue"):
        predicted_acceptance(strat, varying_adversary(BELL, supplier), 8)

    flipped = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)

    def changing(k):
        if k == 3:
            flipped[:] = np.diag([0.0, 0.5, 0.5, 0.0])
        return flipped

    plan = _build_plan(strat, varying_adversary(BELL, changing), 6)
    assert not np.array_equal(plan.probs[2], plan.probs[3])
    assert np.array_equal(plan.probs[3], plan.probs[5])


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
        RunResult(n_copies=5, first_failure_index=7, rng_seed=0)
    assert RunResult(5, None, 0).accepted and not RunResult(5, 4, 0).accepted


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
    with pytest.raises(ValidationError):
        predicted_acceptance(strat, device, 0)


@pytest.mark.parametrize("bad", [2.5, 1.5, np.float64(3.0), True, np.True_, None, "x"])
def test_integer_arguments_reject_non_integers(bad):
    strat, device = worst_iid_device(0.1)
    with pytest.raises(ValidationError):
        predicted_acceptance(strat, device, bad)
    for args in ({"n": bad}, {"seed": bad}, {"trial": bad}):
        with pytest.raises(ValidationError):
            run_protocol(strat, device, **{"n": 5, "seed": 0, **args})
    for args in ({"n": bad}, {"trials": bad}, {"seed": bad}):
        with pytest.raises(ValidationError):
            estimate_power(strat, device, **{"n": 5, "trials": 5, "seed": 0, **args})
    for args in ((bad, 10), (3, bad)):
        with pytest.raises(ValidationError):
            wilson_interval(*args)


def test_numpy_integer_counts_give_plain_results():
    strat, device = worst_iid_device(0.1)
    records = []
    stats = estimate_power(
        strat, device, n=np.int64(7), trials=np.uint16(9), seed=np.int32(3),
        sink=records.append, record_labels=True,
    )
    assert type(stats.trials) is int and stats.trials == 9
    assert all(type(r["n"]) is int for r in records)
    json.dumps(records)
    assert predicted_acceptance(strat, device, np.int64(7)) == predicted_acceptance(strat, device, 7)


def test_wrong_object_types_are_bad_input_before_sampling():
    strat, device = worst_iid_device(0.1)
    for build in (
        lambda: honest_device(5),
        lambda: iid_adversary(None, np.eye(4) / 4),
        lambda: iid_adversary(BELL, "x"),
        lambda: iid_adversary(BELL, [[1.0, 0.0], [0.0]]),
        lambda: iid_adversary(BELL, worst_case_state(strat, 0.1), epsilon="x"),
        lambda: varying_adversary(BELL, 5),
        lambda: estimate_power(None, device, n=5, trials=5, seed=0),
        lambda: estimate_power(strat, None, n=5, trials=5, seed=0),
        lambda: run_protocol(strat, "device", 5, seed=0),
        lambda: predicted_acceptance(np.eye(4), device, 5),
    ):
        with pytest.raises(ValidationError):
            build()
    supplied = []

    def supplier(i):
        supplied.append(i)
        return BELL

    watched = varying_adversary(BELL, supplier)
    with pytest.raises(ValidationError):
        estimate_power(strat, watched, n=5, trials=5, seed=0, sink=5)
    assert supplied == []  # refused before the plan reads a single copy


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


FLIPPED = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"sigma": BELL, "supplier": lambda k: BELL},
        *(
            {shape: value, "epsilon": epsilon}
            for epsilon in (math.nan, -0.5, 0.0, 1.0, 2.0)
            # |01> keeps every promise an epsilon in (0, 1] can make
            for shape, value in (("sigma", FLIPPED), ("supplier", lambda k: FLIPPED))
        ),
        {"sigma": np.eye(4, dtype=complex)},  # trace 4
        {"sigma": np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)},
        # fidelity 0.25 with the Bell target, above the promised 0.1
        {"sigma": np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), "epsilon": 0.9},
    ],
)
def test_device_model_rejects_broken_invariants(fields):
    with pytest.raises(ValidationError):
        DeviceModel(target=BELL, **fields)


@pytest.mark.parametrize(
    "make",
    [
        lambda: iid_adversary(BELL, basis_ket(8, 0)),
        lambda: predicted_acceptance(
            bell_strategy(), varying_adversary(BELL, lambda k: basis_ket(8, 0)), 2
        ),
    ],
    ids=["fixed", "supplier"],
)
def test_a_device_state_of_another_dimension_is_bad_input(make):
    # a three-qubit ket is a valid state, but not of the two-qubit target's space
    with pytest.raises(BadDimError, match="of dimension 8 is no 4 dimensional state"):
        make()


def test_certainty_clamp_keeps_probabilities_in_range():
    # the optimal two qubit strategy gives pass probabilities within
    # TOL_DERIVED of 1 on the honest state; clamping must keep the
    # honest run deterministic
    strat = two_qubit_optimal(math.pi / 8)
    device = honest_device(strat.target)
    assert predicted_acceptance(strat, device, 1000) == 1.0
    assert run_protocol(strat, device, 1000, seed=3).accepted
    edges = np.array([1.0 - TOL_DERIVED / 2, TOL_DERIVED / 2])
    assert _clamp_certainties(edges).tolist() == [1.0, 0.0]


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
        AdversaryState(state=HermitianOperator(sigma), fidelity=0.5)
    with pytest.raises(ValidationError):
        iid_adversary(BELL, sigma)
    device = varying_adversary(BELL, lambda k: sigma)
    with pytest.raises(ValidationError):
        predicted_acceptance(bell_strategy(), device, 2)


# Both strategy types read a state through qcore._state, as the plan does:
# a dense one (2 qubits) and a PauliStrategy (3 qubits).
STATE_READERS = {"dense": bell_strategy(), "pauli": full_strategy(preset_group("ghz3"))}


@pytest.mark.parametrize("kind", sorted(STATE_READERS))
def test_pass_probabilities_reject_a_ket_of_another_dimension(kind):
    strat = STATE_READERS[kind]
    for dim in (strat.dim // 2, 2 * strat.dim):
        with pytest.raises(BadDimError, match=f"of dimension {dim} is no {strat.dim}"):
            strat.pass_probabilities(basis_ket(dim, 0))


@pytest.mark.parametrize("kind", sorted(STATE_READERS))
def test_pass_probabilities_reject_a_non_hermitian_matrix(kind):
    strat = STATE_READERS[kind]
    upper = np.triu(np.ones((strat.dim, strat.dim))) / strat.dim  # unit trace
    with pytest.raises(NonHermitianError, match="^state deviates from Hermitian"):
        strat.pass_probabilities(upper)


@pytest.mark.parametrize("kind", sorted(STATE_READERS))
@pytest.mark.parametrize(
    "head,rest,match",
    [
        ([1.5, -0.5], 0.0, "^state has eigenvalue -0.5"),  # unit trace
        ([2.0], 0.0, "^state trace 2.0 is not 1"),
        ([0.5], 0.0, "^state trace 0.5 is not 1"),
        ([], 5.0, "^state trace"),  # 5 I, positive
    ],
)
def test_pass_probabilities_reject_a_matrix_that_is_no_density(kind, head, rest, match):
    strat = STATE_READERS[kind]
    sigma = np.diag(head + [rest] * (strat.dim - len(head)))
    for value in (sigma, HermitianOperator(sigma)):
        with pytest.raises(ValidationError, match=match):
            strat.pass_probabilities(value)


def test_a_checked_state_is_eigen_solved_once_however_often_it_is_read(monkeypatch):
    strat = bell_strategy()
    rho = hilbert_schmidt_mixed_state(4, np.random.default_rng(5))
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a, *args, **kw: solves.append(1) or eigvalsh(a, *args, **kw)
    )
    state = shift_fidelity(rho, BELL, 0.3)
    assert len(solves) == 1  # when the AdversaryState is made
    for obj in (state, state.sigma):
        predicted_acceptance(strat, iid_adversary(BELL, obj, epsilon=0.3), 3)
        predicted_acceptance(strat, varying_adversary(BELL, lambda k: obj, epsilon=0.3), 5)
        strat.pass_probabilities(state.sigma)
    assert len(solves) == 1
    # a raw array may change between reads: it is solved on every one
    raw = state.sigma.entries.copy()
    predicted_acceptance(strat, varying_adversary(BELL, lambda k: raw), 5)
    assert len(solves) == 6
    iid_adversary(BELL, raw)
    strat.pass_probabilities(raw)
    assert len(solves) == 8


# ---------------------------------------------------------------- stream
# The replay contract, checked against an oracle that shares no code with
# the sampler: trial t of seed s reads one uninterrupted
# Generator(Philox(key=[s mod 2^64, t mod 2^64])).random(2n), copy i uses
# doubles 2i (setting) and 2i + 1 (outcome), and the run stops at the
# first copy whose outcome double is not below its pass probability.

MASK64 = (1 << 64) - 1
SEEDS = (0, (1 << 63) + 5)
# short runs and runs at and around the chunk edges (copies 32, 96, 224)
ORACLE_NS = (1, 2, 3, 15, 16, 17, 31, 32, 33, 95, 96, 97, 225, 257)


def oracle_table(strat, device, n):
    """Cumulative setting weights and clamped pass probabilities by copy.

    Each distinct supplied object is densified once, keyed by identity
    and kept referenced while the table is built; an ndarray may change
    between copies, so it is read on every copy.
    """
    cumulative = np.cumsum([s.weight for s in strat.settings])
    cumulative[-1] = 1.0
    projectors = np.array([s.projector.entries for s in strat.settings])
    sigmas, which, seen = [], [], {}
    for i in range(n):
        obj = device.supplier(i) if device.sigma is None else device.sigma
        if isinstance(obj, np.ndarray) or id(obj) not in seen:
            seen[id(obj)] = obj, len(sigmas)
            sigmas.append(density_at(device, i, obj))
        which.append(seen[id(obj)][1])
    probs = np.real(np.einsum("kij,cji->ck", projectors, np.array(sigmas)))[which]
    probs[np.abs(probs - 1.0) <= TOL_DERIVED] = 1.0
    probs[np.abs(probs) <= TOL_DERIVED] = 0.0
    return cumulative, probs


def oracle_run(strat, table, n, seed, trial):
    """(first failure or None, drawn labels through the stop) for one trial."""
    cumulative, probs = table
    key = np.array([seed & MASK64, trial & MASK64], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(2 * n)
    picks = np.searchsorted(cumulative, u[0::2], side="right")
    fails = u[1::2] >= probs[np.arange(n) % len(probs), picks]
    failure = int(np.argmax(fails)) if fails.any() else None
    stop = n if failure is None else failure + 1
    return failure, [strat.settings[j].label for j in picks[:stop]]


def oracle_devices(strat=None):
    strat = bell_strategy() if strat is None else strat
    bad = [worst_case_state(strat, eps) for eps in (0.05, 0.2, 0.4)]
    near = worst_case_state(strat, 1e-5)
    return strat, {
        "honest": honest_device(BELL),
        "iid": iid_adversary(BELL, worst_case_state(strat, 0.3), 0.3),
        "varying": varying_adversary(BELL, lambda i: bad[i % 3], epsilon=0.05),
        # passes with certainty or near certainty most of the way, so
        # trials live into late chunks of the per-copy table
        "custom": varying_adversary(BELL, lambda i: bad[2] if i % 97 == 96 else near),
    }


def assert_matches_oracle(strat, device, n, trials, seed, replay=True):
    per_copy = device.sigma is None
    table = oracle_table(strat, device, n if per_copy else 1)
    records, bare = [], []
    stats = estimate_power(
        strat, device, n=n, trials=trials, seed=seed,
        sink=records.append, record_labels=True,
    )
    estimate_power(strat, device, n=n, trials=trials, seed=seed, sink=bare.append)
    for t, (record, plain) in enumerate(zip(records, bare)):
        failure, labels = oracle_run(strat, table, n, seed, t)
        assert record["first_failure_index"] == failure, (n, seed, t)
        assert record["setting_labels_drawn"] == labels, (n, seed, t)
        assert plain == {k: v for k, v in record.items() if k != "setting_labels_drawn"}
        if replay:
            run = run_protocol(strat, device, n, seed, trial=t)
            assert run.first_failure_index == failure
    assert [r["trial"] for r in records] == list(range(trials))
    assert stats.accept_rate == sum(r["accepted"] for r in records) / trials
    return records


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["honest", "iid", "varying", "custom"])
def test_stream_contract_against_oracle(kind, seed):
    strat, devices = oracle_devices()
    for n in ORACLE_NS:
        assert_matches_oracle(strat, devices[kind], n, 24, seed)


@pytest.mark.parametrize(
    "kind,seed",
    # a per-copy plan builds one density per copy, so at this n the
    # varying and custom devices run at one seed each
    [(kind, seed) for kind in ("honest", "iid") for seed in SEEDS]
    + [("varying", SEEDS[0]), ("custom", SEEDS[1])],
)
def test_stream_contract_past_one_chunk(kind, seed):
    strat, devices = oracle_devices()
    n = _CHUNK + 17
    records = assert_matches_oracle(strat, devices[kind], n, 2, seed, replay=False)
    if kind == "honest":
        assert all(len(r["setting_labels_drawn"]) == n for r in records)


@pytest.mark.parametrize("kind", ["honest", "iid", "varying", "custom"])
def test_stream_contract_across_trial_batches(kind):
    # the first chunk of _FIRST_CHUNK copies batches _CHUNK // _FIRST_CHUNK
    # trials at a time, and a run that records labels takes _CHUNK // n
    # trials per block
    strat, devices = oracle_devices()
    trials = _CHUNK // _FIRST_CHUNK + 50
    assert_matches_oracle(strat, devices[kind], 40, trials, SEEDS[1], replay=False)


@pytest.mark.parametrize("kind", ["iid", "varying"])
def test_stream_contract_with_dyadic_weights(kind):
    # cumulative weights 1/2, 3/4, 1 lie on guide-table bucket edges, so
    # the table alone picks each setting; Bell's 1/3 weights never do
    bell = bell_strategy()
    weights = (0.5, 0.25, 0.25)
    settings = tuple(dataclasses.replace(s, weight=w) for s, w in zip(bell.settings, weights))
    strat, devices = oracle_devices(Strategy(BELL, settings, StrategyKind.CUSTOM))
    for n in ORACLE_NS:
        assert_matches_oracle(strat, devices[kind], n, 24, SEEDS[1])


TINY = 1e-20  # below the ulp of any cumulative weight past 1/16
PICK_TABLES = {
    # 20000 settings reach the cap of 2^16 buckets
    **{f"equal-{k}": np.full(k, 1.0 / k) for k in (1, 2, 3, 4, 7, 64, 4095, 20000)},
    # cumulative weights on bucket edges: no weight strictly inside a bucket
    "dyadic-edges": np.array([0.5, 0.25, 0.125, 0.125]),
    "dyadic-quarters": np.full(4, 0.25),
    "dyadic-bell": np.array([0.5, 0.25, 0.25]),
    "dyadic-edge-repeats": np.array([0.5, TINY, TINY, 0.25, 0.25]),
    "random-5": np.random.default_rng(1).dirichlet(np.ones(5)),
    "random-50": np.random.default_rng(2).dirichlet(np.ones(50)),
    "random-1000": np.random.default_rng(3).dirichlet(np.full(1000, 0.3)),
    # several cumulative weights inside one bucket, and repeated ones
    "skewed-head": np.array([0.01, 0.01, 0.01, 0.97]),
    "skewed-repeats": np.array([0.3, TINY, TINY, 0.7 - 2 * TINY]),
    "skewed-subnormal": np.array([5e-324, 5e-324, 1e-300, 0.5, 0.5]),
    "skewed-tail": np.concatenate([[1.0 - 6e-3], np.full(6, 1e-3)]),
    # exactly m cumulative weights strictly inside the first or the last
    # bucket, for m = 2^j and its neighbours: the pick's binary lifting
    # climbs steps of 2^j down to 1
    **{
        f"crowded-{m}-{end}": np.concatenate(parts if end == "head" else parts[::-1])
        for m in sorted({2**j + d for j in (1, 2, 3, 4, 5, 8) for d in (-1, 0, 1)})
        for parts in [[np.full(m, 1e-6), [1.0 - m * 1e-6]]]
        for end in ("head", "tail")
    },
}


@pytest.mark.parametrize("name", sorted(PICK_TABLES))
def test_guide_table_pick_matches_searchsorted(name):
    # the sampler's pick against the binary search the stream contract
    # states, at every cumulative weight and its neighbours, at every
    # bucket edge and just below it, and at random doubles
    cumulative = np.cumsum(PICK_TABLES[name])
    cumulative[-1] = 1.0
    size = 4  # buckets: the least power of two >= 4k, at most 2^16
    while size < min(4 * cumulative.size, 1 << 16):
        size *= 2
    edges = np.arange(size) / size
    probes = np.concatenate([
        cumulative,
        np.nextafter(cumulative, 0.0),
        np.nextafter(cumulative, 1.0),
        edges,
        np.nextafter(edges, -1.0),
        np.random.default_rng(len(name)).random(10**5),
    ])
    probes = probes[(probes >= 0.0) & (probes < 1.0)]
    pick = protocol._picker(cumulative)
    assert pick(probes).tobytes() == np.searchsorted(cumulative, probes, side="right").tobytes()
    # a (rows, copies) view with a stride, as the sampler passes its draws
    draws = np.random.default_rng(7).random((300, 64))[:, 0::2]
    assert pick(draws).tobytes() == np.searchsorted(cumulative, draws, side="right").tobytes()
    # each table is the case its name says: by bucket, the cumulative
    # weights strictly inside it
    scaled = cumulative * size
    inside = np.floor(scaled[scaled != np.ceil(scaled)]).astype(np.intp)
    if name.startswith("dyadic"):
        assert inside.size == 0
    if name.startswith("skewed"):
        assert np.bincount(inside).max() >= 3
    if name.startswith("crowded"):
        assert np.bincount(inside).max() == int(name.split("-")[1])


def test_trial_index_is_taken_mod_2_64():
    strat, devices = oracle_devices()
    device = devices["iid"]
    table = oracle_table(strat, device, 1)
    for trial in (-1, 1 << 64, (1 << 64) + 3):
        failure, _ = oracle_run(strat, table, 50, 9, trial)
        assert run_protocol(strat, device, 50, 9, trial=trial).first_failure_index == failure


def test_numpy_integer_seed_and_trial_replay_python_ints():
    strat, devices = oracle_devices()
    device = devices["iid"]
    table = oracle_table(strat, device, 1)
    for numpy_seed in (np.uint64((1 << 63) + 5), np.int64(-1)):
        seed = int(numpy_seed)
        by_type = []
        for s in (numpy_seed, seed):
            records = []
            estimate_power(
                strat, device, n=40, trials=20, seed=s,
                sink=records.append, record_labels=True,
            )
            by_type.append(records)
        assert by_type[0] == by_type[1]
        for numpy_trial in (np.uint64((1 << 63) + 5), np.int64(-1), np.int32(7)):
            trial = int(numpy_trial)
            run = run_protocol(strat, device, 40, numpy_seed, trial=numpy_trial)
            assert run == run_protocol(strat, device, 40, seed, trial=trial)
            assert run.first_failure_index == oracle_run(strat, table, 40, seed, trial)[0]
            assert type(run.rng_seed) is int


def test_honest_labels_come_from_the_stream():
    # a certain plan draws nothing unless labels are asked for; then it
    # draws them from the same stream as any other plan
    strat, devices = oracle_devices()
    table = oracle_table(strat, devices["honest"], 1)
    records = []
    stats = estimate_power(
        strat, devices["honest"], n=30, trials=20, seed=4,
        sink=records.append, record_labels=True,
    )
    assert stats.accept_rate == 1.0
    for t, record in enumerate(records):
        assert record["setting_labels_drawn"] == oracle_run(strat, table, 30, 4, t)[1]
    assert len({tuple(r["setting_labels_drawn"]) for r in records}) == 20


def test_one_uncertain_cell_is_sampled():
    # every copy passes with certainty except the last, where the ZZ test
    # always fails on |01>; the sampler must draw to find those failures
    strat = bell_strategy()
    target = np.outer(BELL.amplitudes, BELL.amplitudes.conj())
    flipped = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    n = 20
    device = varying_adversary(BELL, lambda i: flipped if i == n - 1 else target)
    assert predicted_acceptance(strat, device, n) < 1.0
    records = assert_matches_oracle(strat, device, n, 60, 3)
    failures = {r["first_failure_index"] for r in records}
    assert failures == {None, n - 1}


def test_sink_records_hold_plain_values():
    strat, devices = oracle_devices()
    for kind in ("honest", "iid"):
        for labels in (False, True):
            records = []
            estimate_power(
                strat, devices[kind], n=40, trials=30, seed=1,
                sink=records.append, record_labels=labels,
            )
            for record in records:
                assert type(record["trial"]) is int
                assert type(record["n"]) is int
                assert type(record["accepted"]) is bool
                assert type(record["first_failure_index"]) in (int, type(None))
                for label in record.get("setting_labels_drawn", []):
                    assert type(label) is str
                json.dumps(record)


@pytest.mark.parametrize("device_name", ["honest", "worst-iid"])
def test_estimate_power_reports_its_own_plan_prediction(device_name, monkeypatch, capsys):
    strat, device = worst_iid_device(0.1)
    if device_name == "honest":
        device = honest_device(BELL)
    stats = estimate_power(strat, device, 20, 50, seed=7)
    assert stats.predicted_acceptance == predicted_acceptance(strat, device, 20)
    # simulate builds its plan once and prints the prediction of that plan
    plans = []

    def counted(*args):
        plans.append(_build_plan(*args))
        return plans[-1]

    monkeypatch.setattr(protocol, "_build_plan", counted)
    argv = ["simulate", "--bell", "--device", device_name, "--n", "20", "--trials", "50"]
    assert main(argv + (["--epsilon", "0.1"] if device_name == "worst-iid" else [])) == 0
    assert len(plans) == 1
    assert f"predicted_acceptance,{stats.predicted_acceptance!r}" in capsys.readouterr().out
