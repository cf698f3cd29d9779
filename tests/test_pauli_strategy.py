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

import numpy as np
import pytest

from qverify import protocol, stabilizer
from qverify.adversary import (
    hilbert_schmidt_mixed_state,
    shift_fidelity,
    strategy_game_value,
    top_orthogonal_eigenvector,
    worst_case_state,
)
from qverify.cli import main
from qverify.errors import BadDimError, DegenerateStrategyError, ValidationError
from qverify.protocol import (
    _build_plan,
    honest_device,
    iid_adversary,
    predicted_acceptance,
    varying_adversary,
)
from qverify.stabilizer import (
    PauliStrategy,
    _gf2_rank,
    full_strategy,
    generator_strategy,
    group_from_json,
    group_to_json,
    preset_group,
    stabilizer_metrics,
    strategy_from_json,
    subset_strategy,
)
from qverify.strategy import Strategy, StrategyKind, from_json_dict, metrics, to_json_dict
from stabilizer_oracles import as_dense

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
        "worst-iid": iid_adversary(target, worst, epsilon=EPS),
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
        built, stabilizer_metrics(group, scheme), bitwise_state=scheme == "full"
    )


@pytest.mark.parametrize("indices", DEGENERATE + SOUND, ids=str)
@pytest.mark.parametrize("preset", ["ghz4", "cluster4"])
def test_subsets_match_the_dense_oracle(preset, indices):
    group = preset_group(preset)
    report = subset_strategy(group, indices)
    assert report.degenerate is (_gf2_rank(indices) < 4) is (indices in DEGENERATE)
    assert report.strategy.kind is StrategyKind.CUSTOM
    assert_matches_dense_oracle(report.strategy, report.strategy.metrics, bitwise_state=False)


@pytest.mark.parametrize("family", ["ghz", "cluster"])
def test_metrics_equal_the_scheme_counts_bitwise_to_twelve_qubits(family):
    for n in range(2, 13):
        group = preset_group(f"{family}{n}")
        for scheme, build in BUILDERS.items():
            assert _bits(metrics(build(group))) == _bits(stabilizer_metrics(group, scheme))


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
            assert q == stabilizer_metrics(group, scheme).q
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


def test_dense_results_stop_beyond_six_qubits():
    built = full_strategy(preset_group("ghz8"))
    for dense in (
        lambda: worst_case_state(built, EPS),
        lambda: strategy_game_value(built, EPS),
        lambda: _build_plan(built, honest_device(built.target), 5),
    ):
        with pytest.raises(BadDimError, match="limited to 6 qubits"):
            dense()


def test_invariant_defect_reads_the_counts(monkeypatch):
    built = generator_strategy(preset_group("ghz3"))
    assert built.invariant_defect() is None
    assert not built.counts.flags.writeable
    counted = stabilizer._pass_counts
    for where, value in ((0, 2), (5, 4), (6, -1)):

        def edited(indices, num_qubits):
            counts = counted(indices, num_qubits)
            counts[where] = value
            return counts

        monkeypatch.setattr(stabilizer, "_pass_counts", edited)
        broken = PauliStrategy(built.group, built.indices, built.kind)
        assert "pass counts" in broken.invariant_defect()


def test_a_directly_built_pauli_strategy_computes_and_checks_its_counts():
    group = preset_group("ghz3")
    direct = PauliStrategy(group, (1, 2, 4), StrategyKind.STABILIZER_GENERATORS)
    assert direct.counts.tobytes() == generator_strategy(group).counts.tobytes()
    assert _bits(direct.metrics) == _bits(stabilizer_metrics(group, "generators"))
    single = PauliStrategy(group, [1], StrategyKind.CUSTOM)
    assert single.indices == (1,) and not single.counts.flags.writeable
    assert single.metrics.q == 1.0 and single.invariant_defect() is None
    with pytest.raises(TypeError):
        PauliStrategy(group, (1,), StrategyKind.CUSTOM, np.zeros(8, int))
    for indices, kind in (
        ((2, 1), StrategyKind.CUSTOM),
        ((1, 1), StrategyKind.CUSTOM),
        ((1.0,), StrategyKind.CUSTOM),
        ((1, 2), StrategyKind.STABILIZER_GENERATORS),
        ((1, 2, 4), StrategyKind.BELL),
        ((1,), "custom"),
    ):
        with pytest.raises(ValidationError, match="element indices"):
            PauliStrategy(group, indices, kind)
    with pytest.raises(ValidationError, match="outside"):
        PauliStrategy(group, (8,), StrategyKind.CUSTOM)


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
    with pytest.raises(ValidationError, match="strategy_from_json"):
        from_json_dict(doc)


HALF_IDENTITY = [[0.5 * (i % 9 == 0), 0.0] for i in range(64)]  # 0.5 I on ghz3


def _dense_document():
    """What output versions before 5 wrote for a ghz3 generator strategy."""
    return to_json_dict(as_dense(generator_strategy(preset_group("ghz3"))))


def test_a_dense_stabilizer_document_still_loads_as_a_dense_strategy():
    doc = json.loads(json.dumps(_dense_document()))
    back = strategy_from_json(doc)
    assert type(back) is Strategy and back.kind is StrategyKind.STABILIZER_GENERATORS
    oracle = as_dense(generator_strategy(preset_group("ghz3")))
    assert back.omega.tobytes() == from_json_dict(doc).omega.tobytes()
    assert back.omega.tobytes() == oracle.omega.tobytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc["settings"][1].update(projector=HALF_IDENTITY),
        lambda doc: doc["settings"][2].update(weight=0.0),
        lambda doc: doc["settings"][0].update(label=""),
        lambda doc: doc.pop("target"),
        lambda doc: doc["target"].pop(),
    ],
    ids=["not-projector", "weight-zero", "empty-label", "no-target", "short-target"],
)
def test_a_dense_stabilizer_document_keeps_its_checks_and_messages(corrupt):
    doc = _dense_document()
    corrupt(doc)
    with pytest.raises(ValidationError) as expected:
        from_json_dict(doc)
    with pytest.raises(type(expected.value)) as caught:
        strategy_from_json(doc)
    assert str(caught.value) == str(expected.value)


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
        ({"kind": "custom", "group": ["ZZ"], "indices": [1]}, "maximal group"),
        ({"kind": "custom", "group": ["XX", "ZQ"], "indices": [1]}, "bad Pauli letter"),
        ({"kind": "custom", "group": None, "indices": [1]}, "malformed"),
        ({"kind": "custom", "group": ["XX", "ZZ"]}, "malformed"),
        ({"kind": "stabilizer-half", "group": ["XX", "ZZ"], "indices": [1]}, "malformed"),
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
    q = stabilizer_metrics(preset_group("ghz8"), "full").q
    assert f"# q: {q!r}\n" in out


@pytest.mark.parametrize("device", ["honest", "worst-iid"])
def test_simulate_beyond_six_qubits_exits_2_before_any_device(device, monkeypatch, capsys):
    built = []
    monkeypatch.setattr(protocol, "DeviceModel", lambda *a, **k: built.append(1))
    args = ["simulate", "--stabilizer-full", "--preset", "ghz8", "--device", device,
            "--n", "5", "--trials", "10"]
    assert main(args) == 2
    assert built == []
    assert "limited to 6 qubits" in capsys.readouterr().err


def test_simulate_reads_a_pauli_strategy_file(tmp_path, capsys):
    for preset, code in (("ghz3", 0), ("ghz8", 2)):
        path = tmp_path / f"{preset}.json"
        path.write_text(json.dumps(to_json_dict(full_strategy(preset_group(preset)))))
        args = ["simulate", "--strategy-file", str(path), "--n", "5", "--trials", "10"]
        assert main(args) == code, preset
    assert "accept_rate,1.0" in capsys.readouterr().out


def test_strict_profile_checks_the_counts(monkeypatch, capsys):
    args = ["strategy", "--stabilizer-generators", "--preset", "ghz3",
            "--tolerance-profile", "strict"]
    assert main(args) == 0
    counted = stabilizer._pass_counts

    def off_by_one(indices, num_qubits):
        counts = counted(indices, num_qubits)
        counts[3] += len(counts)  # above k: outside the spectrum [0, 1]
        return counts

    monkeypatch.setattr(stabilizer, "_pass_counts", off_by_one)
    assert main(args[:-2]) == 0
    capsys.readouterr()
    assert main(args) == 3
    assert "strict re-verification failed: pass counts" in capsys.readouterr().err
