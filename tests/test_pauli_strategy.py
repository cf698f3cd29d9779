"""Stabilizer strategies without projectors, against the dense oracle.

A stabilizer.PauliStrategy holds its group, element indices, kind and
syndrome counts, and builds no pass projector. The dense strategy it
replaced lives on as stabilizer_oracles.equal_mixture (reached through
as_dense): one checked 2^N x 2^N projector per element. Every number the
library now reads from counts, joint eigenvectors or element
permutations must match what the oracle's eigenproblems and projectors
give: metrics, worst-case state, game value, protocol plan and predicted
acceptance.
"""

import json
import tracemalloc

import numpy as np
import pytest

from qverify.adversary import (
    hilbert_schmidt_mixed_state,
    shift_fidelity,
    strategy_game_value,
    top_orthogonal_eigenvector,
    worst_case_state,
)
from qverify.cli import main
from qverify.errors import DegenerateStrategyError, ValidationError
from qverify.protocol import (
    _build_plan,
    estimate_power,
    honest_device,
    iid_adversary,
    predicted_acceptance,
    varying_adversary,
)
from qverify.qcore import Ket
from qverify.stabilizer import (
    _PHASES,
    PauliStrategy,
    _act,
    full_strategy,
    generator_strategy,
    group_from_json,
    preset_group,
    strategy_from_json,
    subset_strategy,
)
from qverify.strategy import Strategy, StrategyKind, metrics, to_json_dict
from oracles import group_to_json
from stabilizer_oracles import (
    _gf2_rank,
    as_dense,
    full_strategy_q,
    random_group,
    scheme_metrics_law,
)

EPS = 0.1
SCHEME_PRESETS = [f"{family}{n}" for family in ("ghz", "cluster", "zeros") for n in range(2, 7)]
BUILDERS = {"full": full_strategy, "generators": generator_strategy}
# element index subsets of the four-qubit groups: GF(2) rank below 4, and 4
DEGENERATE = [[1], [1, 2, 4], [3, 5, 6], [1, 2, 3], [5, 10]]
SOUND = [[1, 2, 4, 8], [1, 2, 4, 8, 15], [3, 6, 12, 8], [1, 3, 7, 15], list(range(1, 16))]


def _negated(group):
    return group_from_json(["-" + label for label in group_to_json(group)])


def _bits(m):
    return np.array([m.q, m.trace, m.second_eigenvalue_gap]).tobytes()


def _devices(target, worst, dim):
    rng = np.random.default_rng(dim)
    states = [
        shift_fidelity(hilbert_schmidt_mixed_state(dim, rng), target, EPS) for _ in range(3)
    ]
    return {
        "honest": honest_device(target),
        "worst-iid": iid_adversary(target, worst, epsilon=EPS),  # kept as its Ket
        "worst-iid-density": iid_adversary(target, worst.sigma, epsilon=EPS),
        "varying": varying_adversary(target, lambda i: states[i % 3], epsilon=EPS),
    }


def assert_matches_dense_oracle(pauli, expected_metrics, bitwise_state):
    """Every syndrome-count result of pauli against its dense oracle's."""
    dense = as_dense(pauli)
    assert isinstance(pauli, PauliStrategy) and isinstance(dense, Strategy)
    assert _bits(metrics(pauli)) == _bits(expected_metrics)
    eigen = metrics(dense)
    for ours, theirs in zip(
        (pauli.metrics.q, pauli.metrics.trace, pauli.metrics.second_eigenvalue_gap),
        (eigen.q, eigen.trace, eigen.second_eigenvalue_gap),
    ):
        assert abs(ours - theirs) <= 1e-12

    (q, top), (dense_q, dense_top) = (top_orthogonal_eigenvector(s) for s in (pauli, dense))
    assert abs(q - dense_q) <= 1e-12
    assert np.abs(top.amplitudes - dense_top.amplitudes).max() <= 1e-12
    if bitwise_state:
        assert top.amplitudes.tobytes() == dense_top.amplitudes.tobytes()
    if metrics(pauli).q < 1.0:
        sigma, dense_sigma = (worst_case_state(s, EPS).sigma.entries for s in (pauli, dense))
        assert np.abs(sigma - dense_sigma).max() <= 1e-12
        if bitwise_state:
            assert sigma.tobytes() == dense_sigma.tobytes()
    else:
        for s in (pauli, dense):
            with pytest.raises(DegenerateStrategyError):
                worst_case_state(s, EPS)

    game, dense_game = (strategy_game_value(s, EPS) for s in (pauli, dense))
    assert abs(game.accept_prob - dense_game.accept_prob) <= 1e-12
    assert game.upper_bound >= dense_game.accept_prob - 1e-12
    assert game.upper_bound >= game.accept_prob and game.evaluations == 0
    assert game.maximizer.fidelity <= 1.0 - EPS + 1e-12

    worst = dense_game.maximizer  # the worst-case state, degenerate or not
    for name, device in _devices(pauli.target, worst, pauli.dim).items():
        plan, dense_plan = (_build_plan(s, device, 7) for s in (pauli, dense))
        assert plan.labels == dense_plan.labels
        assert plan.weights.tobytes() == dense_plan.weights.tobytes()
        assert plan.cumulative.tobytes() == dense_plan.cumulative.tobytes()
        assert np.abs(plan.probs - dense_plan.probs).max() <= 1e-12, name
        predicted, dense_predicted = (predicted_acceptance(s, device, 7) for s in (pauli, dense))
        assert abs(predicted - dense_predicted) <= 1e-12 * dense_predicted, name


@pytest.mark.parametrize("negated", [False, True], ids=["plus", "minus"])
@pytest.mark.parametrize("scheme", ["full", "generators"])
@pytest.mark.parametrize("preset", SCHEME_PRESETS)
def test_schemes_match_the_dense_oracle(preset, scheme, negated):
    group = preset_group(preset)
    group = _negated(group) if negated else group
    built = BUILDERS[scheme](group)
    assert_matches_dense_oracle(
        built, scheme_metrics_law(group.num_qubits, scheme), bitwise_state=scheme == "full"
    )


@pytest.mark.parametrize("indices", DEGENERATE + SOUND, ids=str)
@pytest.mark.parametrize("preset", ["ghz4", "cluster4"])
def test_subsets_match_the_dense_oracle(preset, indices):
    group = preset_group(preset)
    report = subset_strategy(group, indices)
    assert report.degenerate is (_gf2_rank(indices) < 4) is (indices in DEGENERATE)
    assert report.strategy.kind is StrategyKind.CUSTOM
    assert_matches_dense_oracle(report.strategy, report.strategy.metrics, bitwise_state=False)


def _random_subset(group, rng):
    size = 2**group.num_qubits
    return sorted(set(rng.integers(1, size, int(rng.integers(1, size))).tolist()))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("num_qubits", range(2, 7))
def test_random_groups_match_the_dense_oracle(num_qubits, seed):
    rng = np.random.default_rng([num_qubits, seed])
    group, amplitudes = random_group(num_qubits, rng)
    # the group's own state is the circuit's, up to a global phase
    assert abs(abs(np.vdot(group.state().amplitudes, amplitudes)) - 1.0) <= 1e-12
    for scheme, build in BUILDERS.items():
        assert_matches_dense_oracle(
            build(group), scheme_metrics_law(num_qubits, scheme), bitwise_state=scheme == "full"
        )
    subset = subset_strategy(group, _random_subset(group, rng)).strategy
    assert_matches_dense_oracle(subset, subset.metrics, bitwise_state=False)


def test_random_groups_hold_y_letters():
    # the presets hold no Y; the drawn groups exercise +-i products
    drawn = [random_group(n, np.random.default_rng([n, seed]))[0]
             for n in range(2, 7) for seed in range(3)]
    assert sum(any("Y" in g.label for g in group.generators) for group in drawn) >= 10


@pytest.mark.parametrize("num_qubits", range(7, 13))
def test_random_groups_keep_the_syndrome_identities(num_qubits):
    rng = np.random.default_rng([num_qubits, 0])
    group, _ = random_group(num_qubits, rng)
    psi, cols = group.state().amplitudes, np.arange(2**num_qubits)
    xs, zs, phases = group.table
    for lo in range(0, xs.size, 256):  # every element fixes the target
        part = slice(lo, lo + 256)
        images, coeffs = _act(xs[part, None], zs[part, None], _PHASES[phases[part]][:, None], cols)
        assert np.abs(psi[images] - coeffs * psi).max() <= 1e-12
    built = [build(group) for build in BUILDERS.values()]
    built.append(subset_strategy(group, _random_subset(group, rng)).strategy)
    for scheme, strategy in zip((*BUILDERS, "subset"), built):
        counts, k = strategy.counts, len(strategy.indices)
        assert counts[0] == k and counts.sum() == k * 2 ** (num_qubits - 1)
        if scheme != "subset":
            assert _bits(strategy.metrics) == _bits(scheme_metrics_law(num_qubits, scheme))
        q = strategy.metrics.q
        if q == 1.0:
            with pytest.raises(DegenerateStrategyError):
                worst_case_state(strategy, EPS)
            continue
        device = iid_adversary(strategy.target, worst_case_state(strategy, EPS), epsilon=EPS)
        expected = (1.0 - EPS * (1.0 - q)) ** 20
        assert abs(predicted_acceptance(strategy, device, 20) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("family", ["ghz", "cluster", "zeros"])
def test_metrics_equal_the_scheme_counts_bitwise_to_twelve_qubits(family):
    # the counted metrics are the exact laws, correctly rounded
    for n in range(2, 13):
        group = preset_group(f"{family}{n}")
        for scheme, build in BUILDERS.items():
            assert _bits(metrics(build(group))) == _bits(scheme_metrics_law(n, scheme))


def test_no_eigenproblem_is_solved(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for name in ("ghz6", "cluster6"):
        group = preset_group(name)
        for scheme, build in BUILDERS.items():
            built = build(group)
            q = metrics(built).q
            assert q == scheme_metrics_law(6, scheme).q
            state = worst_case_state(built, EPS)
            assert abs(state.fidelity - (1.0 - EPS)) <= 1e-12
            game = strategy_game_value(built, EPS)
            assert game.accept_prob == 1.0 - EPS * (1.0 - q)
            assert game.evaluations == 0
            assert game.maximizer.sigma.entries.tobytes() == state.sigma.entries.tobytes()


def test_ghz12_full_strategy_lists_every_element():
    group = preset_group("ghz12")
    built = full_strategy(group)
    assert len(built.settings) == 4095 and built.dim == 4096
    assert [s.index for s in built.settings] == list(range(1, 4096))
    assert built.settings[-1].label == group.elements[4095].label
    assert {s.weight for s in built.settings} == {1.0 / 4095}


def test_settings_assemble_only_the_chosen_elements():
    group = _negated(preset_group("cluster12"))
    built = subset_strategy(group, [4095, 3, 1024]).strategy
    labels = [s.label for s in built.settings]
    assert "elements" not in vars(group)  # the 4096 strings were never assembled
    assert labels == [group.elements[m].label for m in (3, 1024, 4095)]


def test_worst_case_game_value_and_plan_work_beyond_six_qubits():
    built = full_strategy(preset_group("ghz8"))
    q = built.metrics.q
    state = worst_case_state(built, EPS)
    assert isinstance(state.state, Ket) and abs(state.fidelity - (1.0 - EPS)) <= 1e-12
    assert strategy_game_value(built, EPS).accept_prob == 1.0 - EPS * (1.0 - q)
    assert np.all(_build_plan(built, honest_device(built.target), 5).probs == 1.0)
    plan = _build_plan(built, iid_adversary(built.target, state, epsilon=EPS), 5)
    assert abs(plan.probs @ plan.weights - (1.0 - EPS * (1.0 - q))).max() <= 1e-12


@pytest.mark.parametrize("preset", ["ghz12", "cluster12"])
@pytest.mark.parametrize("scheme", ["full", "generators"])
def test_twelve_qubit_plans_predict_the_closed_form(scheme, preset):
    built = BUILDERS[scheme](preset_group(preset))
    q = built.metrics.q
    assert q == scheme_metrics_law(12, scheme).q
    tracemalloc.start()
    try:
        game = strategy_game_value(built, EPS)
        device = iid_adversary(built.target, worst_case_state(built, EPS), epsilon=EPS)
        per_copy = predicted_acceptance(built, device, 1)
        stats = estimate_power(built, device, 20, 50, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20  # one 4096 x 4096 complex array alone is 256 MiB
    assert game.accept_prob == 1.0 - EPS * (1.0 - q)
    assert abs(per_copy - game.accept_prob) <= 1e-12 and stats.trials == 50
    assert predicted_acceptance(built, honest_device(built.target), 10) == 1.0


def test_a_directly_built_pauli_strategy_computes_and_checks_its_counts():
    group = preset_group("ghz3")
    direct = PauliStrategy(group, (1, 2, 4), StrategyKind.STABILIZER_GENERATORS)
    assert direct.counts.tobytes() == generator_strategy(group).counts.tobytes()
    assert _bits(direct.metrics) == _bits(scheme_metrics_law(3, "generators"))
    single = PauliStrategy(group, [1], StrategyKind.CUSTOM)
    assert single.indices == (1,) and not single.counts.flags.writeable
    assert single.metrics.q == 1.0
    for built in (direct, single):
        counts, k = built.counts, len(built.indices)  # c(0) = k, 0 <= c <= k
        assert counts[0] == k and counts.min() >= 0 and counts.max() <= k
    with pytest.raises(TypeError):
        PauliStrategy(group, (1,), StrategyKind.CUSTOM, np.zeros(8, int))
    for indices, kind in (
        ((2, 1), StrategyKind.CUSTOM),
        ((1, 1), StrategyKind.CUSTOM),
        ((1.0,), StrategyKind.CUSTOM),
        ((1, 2), StrategyKind.STABILIZER_GENERATORS),
        ((1, 2, 4), StrategyKind.BELL),
        ((1,), "custom"),
        (5, StrategyKind.CUSTOM),
        (None, StrategyKind.CUSTOM),
    ):
        with pytest.raises(ValidationError, match="element indices"):
            PauliStrategy(group, indices, kind)
    with pytest.raises(ValidationError, match="outside"):
        PauliStrategy(group, (8,), StrategyKind.CUSTOM)
    with pytest.raises(ValidationError, match="needs a StabilizerGroup, not a list"):
        PauliStrategy(["XX", "ZZ"], (1,), StrategyKind.CUSTOM)


# ------------------------------------------------------------------ JSON


@pytest.mark.parametrize(
    "build",
    [
        lambda: full_strategy(preset_group("ghz3")),
        lambda: generator_strategy(_negated(preset_group("cluster8"))),
        lambda: subset_strategy(preset_group("ghz4"), [3, 5, 6]).strategy,
        lambda: full_strategy(preset_group("zeros12")),
    ],
    ids=["full-ghz3", "generators-cluster8", "subset-ghz4", "full-zeros12"],
)
def test_pauli_json_round_trip(build):
    built = build()
    doc = json.loads(json.dumps(to_json_dict(built)))
    assert doc == {
        "kind": built.kind.value,
        "group": group_to_json(built.group),
        "indices": list(built.indices),
    }
    back = strategy_from_json(doc)
    assert isinstance(back, PauliStrategy)
    assert (back.kind, back.indices) == (built.kind, built.indices)
    assert back.group.generators == built.group.generators
    assert back.counts.tobytes() == built.counts.tobytes()


HALF_IDENTITY = [[0.5 * (i % 9 == 0), 0.0] for i in range(64)]  # 0.5 I on ghz3


def _dense_document():
    """What output versions before 5 wrote for a ghz3 generator strategy."""
    return to_json_dict(as_dense(generator_strategy(preset_group("ghz3"))))


def test_a_dense_stabilizer_document_still_loads_as_a_dense_strategy():
    doc = json.loads(json.dumps(_dense_document()))
    back = strategy_from_json(doc)
    assert type(back) is Strategy and back.kind is StrategyKind.STABILIZER_GENERATORS
    oracle = as_dense(generator_strategy(preset_group("ghz3")))
    assert back.omega.tobytes() == oracle.omega.tobytes()


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda doc: doc["settings"][1].update(projector=HALF_IDENTITY),
         "setting 'ZZI' is not a projector"),
        (lambda doc: doc["settings"][2].update(weight=0.0), "setting weight 0.0 outside (0, 1]"),
        (lambda doc: doc["settings"][0].update(label=""), "setting label must be nonempty"),
        (lambda doc: doc.pop("target"), "malformed strategy document: KeyError: 'target'"),
        (lambda doc: doc["target"].pop(), "projector must be a list of 49 [re, im] pairs"),
    ],
    ids=["not-projector", "weight-zero", "empty-label", "no-target", "short-target"],
)
def test_a_dense_stabilizer_document_keeps_its_checks_and_messages(corrupt, message):
    doc = _dense_document()
    corrupt(doc)
    with pytest.raises(ValidationError) as caught:
        strategy_from_json(doc)
    assert type(caught.value) is ValidationError and str(caught.value) == message


@pytest.mark.parametrize(
    "doc,match",
    [
        ({"kind": "stabilizer-full", "group": ["XX", "ZZ"], "indices": [1, 2]}, "element indices"),
        ({"kind": "stabilizer-generators", "group": ["XX", "ZZ"], "indices": [2, 1]}, "indices"),
        ({"kind": "custom", "group": ["XX", "ZZ"], "indices": [3, 1]}, "element indices"),
        ({"kind": "custom", "group": ["XX", "ZZ"], "indices": [1.0]}, "element indices"),
        ({"kind": "custom", "group": ["XX", "ZZ"], "indices": [True]}, "element indices"),
        ({"kind": "bell", "group": ["XX", "ZZ"], "indices": [1, 2, 3]}, "element indices"),
        ({"kind": "custom", "group": ["XX", "ZZ"], "indices": [0, 1]}, "outside"),
        ({"kind": "custom", "group": ["XX", "ZZ"], "indices": []}, "at least one"),
        ({"kind": "custom", "group": ["ZZ"], "indices": [1]}, "do not pin down a single state"),
        ({"kind": "custom", "group": ["XX", "ZQ"], "indices": [1]}, "bad Pauli letter"),
        ({"kind": "custom", "group": None, "indices": [1]}, "malformed"),
        ({"kind": "custom", "group": ["XX", "ZZ"]}, "malformed"),
        ({"kind": "stabilizer-half", "group": ["XX", "ZZ"], "indices": [1]}, "malformed"),
        (np.zeros(3), "malformed"),
    ],
)
def test_malformed_pauli_documents_are_bad_input(doc, match):
    with pytest.raises(ValidationError, match=match):
        strategy_from_json(doc)


# ------------------------------------------------------------------- CLI


def test_stabilizer_json_is_small(capsys):
    assert main(["strategy", "--stabilizer-full", "--preset", "ghz6", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 10_000
    assert json.loads(out)["strategy"]["indices"] == list(range(1, 64))


def test_strategy_lists_every_setting_beyond_six_qubits(capsys):
    assert main(["strategy", "--stabilizer-full", "--preset", "ghz8"]) == 0
    out = capsys.readouterr().out
    assert out.count(",stabilizer-pauli") == 255
    q = float(full_strategy_q(8))
    assert f"# q: {q!r}\n" in out


@pytest.mark.parametrize("device", ["honest", "worst-iid"])
def test_simulate_beyond_six_qubits_exits_0(device, capsys):
    args = ["simulate", "--stabilizer-full", "--preset", "ghz8", "--device", device,
            "--n", "5", "--trials", "10"]
    assert main(args) == 0
    out = capsys.readouterr().out
    predicted = float(out.split("predicted_acceptance,")[1].split()[0])
    q = float(full_strategy_q(8))
    expected = 1.0 if device == "honest" else (1.0 - EPS * (1.0 - q)) ** 5
    assert abs(predicted - expected) <= 1e-12 * expected


def test_simulate_reads_a_pauli_strategy_file(tmp_path, capsys):
    for preset in ("ghz3", "ghz8"):
        path = tmp_path / f"{preset}.json"
        path.write_text(json.dumps(to_json_dict(full_strategy(preset_group(preset)))))
        args = ["simulate", "--strategy-file", str(path), "--n", "5", "--trials", "10"]
        assert main(args) == 0, preset
        assert "accept_rate,1.0" in capsys.readouterr().out
