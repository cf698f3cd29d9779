import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qverify
from qverify import strategy
from qverify.cli import COMMANDS, _parsers, build_parser, cmd_figure, main, parse_angle
from qverify.errors import ValidationError
from qverify.adversary import HULL_COLUMNS, LANDSCAPE_COLUMNS, hull_boundary, landscape
from qverify.samplecount import (
    FIG1_COLUMNS,
    FIG2_COLUMNS,
    default_theta_grid,
    figure1_data,
    figure2_data,
)
from stabilizer_oracles import full_strategy_q, generator_strategy_q


@pytest.mark.parametrize(
    "text,value",
    [
        ("pi/8", math.pi / 8),
        ("3pi/8", 3 * math.pi / 8),
        ("2*pi/5", 2 * math.pi / 5),
        ("-pi/12", -math.pi / 12),
        ("pi", math.pi),
        ("0.5", 0.5),
        ("  pi / 4 ", math.pi / 4),
        (".25pi", 0.25 * math.pi),
    ],
)
def test_parse_angle(text, value):
    assert abs(parse_angle(text) - value) < 1e-15


@pytest.mark.parametrize("text", ["eight", "pi/0", "pi/", "twopi", ""])
def test_parse_angle_rejects(text):
    with pytest.raises(ValidationError):
        parse_angle(text)


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


def test_strategy_bell_csv(tmp_path):
    code, text = run_cli(["strategy", "--bell"], tmp_path)
    assert code == 0
    assert text.startswith("# tool: qverify")
    assert "# command: qverify strategy --bell" in text
    header, rows = csv_rows(text)
    assert header == ["label", "weight", "locality"]
    assert [r[0] for r in rows] == ["XX", "-YY", "ZZ"]
    assert "# q: 0.3333333333333333" in text


def test_strategy_json_payload(tmp_path):
    code, text = run_cli(
        ["strategy", "--two-qubit", "--theta", "pi/8", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["metadata"]["tool"].startswith("qverify ")
    assert doc["metadata"]["seed"] == "0"
    assert abs(doc["result"]["q"] - 0.5751105524111674) < 1e-12
    assert abs(doc["result"]["theta"] - math.pi / 8) < 1e-15
    assert {"target", "settings"} <= set(doc["strategy"])


def test_byte_identical_reruns(tmp_path):
    args = ["samplecount", "--bell", "--epsilon", "0.01", "--delta", "0.1"]
    _, first = run_cli(args, tmp_path, "a.csv")
    _, second = run_cli(args, tmp_path, "a.csv")
    assert first == second


def test_samplecount_bell(tmp_path):
    code, text = run_cli(
        ["samplecount", "--bell", "--format", "json"], tmp_path
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["n_exact"] == 345
    assert abs(doc["result"]["n_asymptotic"] - 345.3877639491067) < 1e-10


def test_samplecount_counts_a_tie_exactly(tmp_path):
    # delta = 2**-29 = (1 - 0.5)**29: 29 copies suffice
    code, text = run_cli(
        ["samplecount", "--product-zero", "--epsilon", "0.5", "--delta", "1.862645149230957e-09"],
        tmp_path,
    )
    assert code == 0
    assert "\nn_exact,29\n" in text and "n_chernoff_stein" not in text


def test_samplecount_stabilizer_closed_form(tmp_path):
    code, text = run_cli(
        [
            "samplecount", "--stabilizer-generators", "--preset", "ghz3",
            "--format", "json",
        ],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["n_exact"] == 690


def test_figure_fig1_columns(tmp_path):
    code, text = run_cli(
        ["figure", "--which", "fig1", "--points", "9"], tmp_path
    )
    assert code == 0
    header, rows = csv_rows(text)
    assert header == list(FIG1_COLUMNS)
    assert len(rows) == 9
    assert rows[0][2] == "230" and rows[-1][2] == "230"


def test_figure_fig2_columns(tmp_path):
    code, text = run_cli(
        ["figure", "--which", "fig2", "--theta", "pi/8", "--points", "7"],
        tmp_path,
    )
    assert code == 0
    header, rows = csv_rows(text)
    assert header == list(FIG2_COLUMNS)
    assert len(rows) == 7


def test_figure_figS1_hull(tmp_path):
    code, text = run_cli(
        ["figure", "--which", "figS1", "--theta", "pi/8", "--points", "11"],
        tmp_path,
    )
    assert code == 0
    header, rows = csv_rows(text)
    assert header == list(HULL_COLUMNS)
    parts = {r[2] for r in rows}
    assert parts == {"ppt-cutoff", "zz-point", "trace3-locus"}


def test_figure_figS2_landscape_grid(tmp_path):
    code, text = run_cli(
        ["figure", "--which", "figS2", "--theta", "0.6"], tmp_path
    )
    assert code == 0
    header, rows = csv_rows(text)
    assert header == list(LANDSCAPE_COLUMNS)
    assert len(rows) == 121 * 121


@pytest.mark.parametrize(
    "argv,library_rows",
    [
        (
            ["--which", "fig1", "--points", "9"],
            lambda cfg: figure1_data(cfg.epsilon, cfg.delta, default_theta_grid(9)),
        ),
        (
            ["--which", "fig2", "--theta", "pi/8", "--points", "7"],
            lambda cfg: figure2_data(math.pi / 8, cfg.delta, np.logspace(-4, -1, 7)),
        ),
        (["--which", "figS2", "--theta", "0.6"], lambda cfg: landscape(0.6).rows),
        # no --points: the library's default 200 locus rows and the two end points
        (["--which", "figS1"], lambda cfg: hull_boundary(math.pi / 8)),
    ],
)
def test_figure_passes_library_rows_unconverted(argv, library_rows):
    cfg = build_parser().parse_args(["figure"] + argv)
    rows = cmd_figure(cfg)["rows"]
    expected = library_rows(cfg)
    assert type(rows[0]) is type(expected[0])
    assert list(rows) == list(expected)


def test_landscape_certificate(tmp_path):
    code, text = run_cli(
        [
            "landscape", "--theta", "pi/8", "--resolution", "80",
            "--refine-resolution", "320", "--format", "json",
        ],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    record = doc["result"]
    assert record["sound"] is True
    assert abs(record["q_closed_form"] - 0.5751105524111674) < 1e-12


def test_simulate_deterministic_with_transcript(tmp_path):
    transcript = tmp_path / "runs.jsonl"
    args = [
        "simulate", "--bell", "--device", "worst-iid", "--epsilon", "0.3",
        "--n", "10", "--trials", "200", "--seed", "11",
        "--transcript", str(transcript), "--format", "json",
    ]
    code, text = run_cli(args, tmp_path, "sim.json")
    assert code == 0
    doc = json.loads(text)
    record = doc["result"]
    assert record["trials"] == 200
    assert record["wilson_low"] <= record["predicted_acceptance"]
    assert record["predicted_acceptance"] <= record["wilson_high"]
    lines = transcript.read_text().splitlines()
    assert len(lines) == 200
    first = json.loads(lines[0])
    assert first["trial"] == 0 and first["n"] == 10

    code2, text2 = run_cli(args, tmp_path, "sim.json")
    assert text == text2


# The transcript formatter: the CLI writes each line itself, and its bytes
# must be json.dumps(record) + "\n" over the records estimate_power gives.
def _records(built, device, epsilon, n, trials, seed, record_labels):
    """The records estimate_power hands a sink, for the device cmd_simulate builds."""
    from qverify import adversary, protocol
    if device == "honest":
        model = protocol.honest_device(built.target)
    else:
        worst = adversary.worst_case_state(built, epsilon)
        model = protocol.iid_adversary(built.target, worst, epsilon=epsilon)
    records = []
    protocol.estimate_power(
        built, model, n=n, trials=trials, seed=seed, sink=records.append,
        record_labels=record_labels,
    )
    return records


def _transcript(tmp_path, strategy_args, device, epsilon, n, trials, seed, record_labels):
    """The bytes of the CLI's --transcript for the same run."""
    path = tmp_path / "runs.jsonl"
    code, _ = run_cli(
        ["simulate", *strategy_args, "--device", device, "--epsilon", repr(epsilon),
         "--n", str(n), "--trials", str(trials), "--seed", str(seed), "--transcript", str(path)]
        + ["--record-labels"] * record_labels,
        tmp_path,
    )
    assert code == 0
    return path.read_bytes()


def _dumped(records):
    return "".join(json.dumps(record) + "\n" for record in records).encode()


def _ghz4_generators():
    from qverify import stabilizer
    return stabilizer.generator_strategy(stabilizer.preset_group("ghz4"))


@pytest.mark.parametrize("record_labels", [False, True], ids=["plain", "labels"])
@pytest.mark.parametrize(
    "strategy_args,build,device,epsilon,n,trials,seed",
    [
        pytest.param(["--bell"], strategy.bell_strategy, "worst-iid", 0.3, 10, 200, 11, id="bell"),
        pytest.param(["--two-qubit", "--theta", "pi/8"],
                     lambda: strategy.two_qubit_optimal(math.pi / 8),
                     "worst-iid", 0.1, 20, 200, 7, id="two-qubit"),
        pytest.param(["--stabilizer-generators", "--preset", "ghz4"], _ghz4_generators,
                     "worst-iid", 0.1, 50, 200, 11, id="ghz4-generators"),
        pytest.param(["--two-qubit", "--theta", "pi/8"],
                     lambda: strategy.two_qubit_optimal(math.pi / 8),
                     "honest", 0.1, 30, 100, 3, id="honest-all-accept"),
        pytest.param(["--bell"], strategy.bell_strategy, "worst-iid", 0.3, 1, 300, 5, id="n1"),
    ],
)
def test_transcript_is_json_dumps_of_the_sink_records(
    tmp_path, strategy_args, build, device, epsilon, n, trials, seed, record_labels
):
    records = _records(build(), device, epsilon, n, trials, seed, record_labels)
    written = _transcript(tmp_path, strategy_args, device, epsilon, n, trials, seed, record_labels)
    assert written == _dumped(records)
    rejected = sum(not record["accepted"] for record in records)
    if device == "honest":
        assert rejected == 0 and written.count(b'"first_failure_index": null') == trials
    else:  # both verdicts, so a formatter that prints one of them shows
        assert 0 < rejected < trials
    assert (b'"setting_labels_drawn": [' in written) == record_labels


# label characters JSON must escape, or that take two UTF-16 units
_LABEL_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028\ud83d\U0001f7ff'),
    st.characters(min_codepoint=0x10000),
    st.characters(),
)


@pytest.fixture(scope="module")
def label_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("labels")


@given(
    labels=st.lists(st.text(_LABEL_CHARS, min_size=1, max_size=6), min_size=3, max_size=3),
    record_labels=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_transcript_of_custom_setting_labels_is_json_dumps_of_the_records(
    label_dir, labels, record_labels
):
    from qverify import stabilizer
    doc = strategy.to_json_dict(strategy.bell_strategy())
    for setting, label in zip(doc["settings"], labels):
        setting["label"] = label
    path = label_dir / "labelled.json"
    path.write_text(json.dumps(doc))
    built = stabilizer.strategy_from_json(json.loads(path.read_text()))
    assert [s.label for s in built.settings] == labels
    records = _records(built, "worst-iid", 0.3, 5, 30, 2, record_labels)
    written = _transcript(label_dir, ["--strategy-file", str(path)], "worst-iid", 0.3, 5, 30, 2,
                          record_labels)
    assert written == _dumped(records)


def test_simulate_strategy_file_round_trip(tmp_path):
    code, text = run_cli(
        ["strategy", "--two-qubit", "--theta", "0.6", "--format", "json"],
        tmp_path, "strat.json",
    )
    assert code == 0
    payload = json.loads(text)["strategy"]
    strat_file = tmp_path / "two_qubit.json"
    strat_file.write_text(json.dumps(payload))
    code, text = run_cli(
        [
            "simulate", "--strategy-file", str(strat_file),
            "--device", "honest", "--n", "50", "--trials", "20",
            "--format", "json",
        ],
        tmp_path, "sim2.json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["accept_rate"] == 1.0
    assert doc["result"]["predicted_acceptance"] == 1.0


def test_stabilizer_inspection(tmp_path):
    code, text = run_cli(
        ["stabilizer", "--preset", "ghz3", "--format", "json"], tmp_path
    )
    assert code == 0
    record = json.loads(text)["result"]
    assert record["num_qubits"] == 3
    assert record["generators"] == "XXX ZZI IZZ"
    # every group is maximal: N generators, 2^N elements, so none is printed
    assert not {"num_generators", "num_elements", "is_maximal"} & set(record)
    assert abs(record["q_full"] - 3.0 / 7.0) < 1e-12


def test_stabilizer_parity_check(tmp_path):
    code, text = run_cli(
        ["stabilizer", "--preset", "bell", "--parity-check"], tmp_path
    )
    assert code == 0
    header, rows = csv_rows(text)
    assert header[0] == "generator"
    assert rows[0][0] == "XX" and rows[1][0] == "ZZ"
    assert "special_columns" in text


@pytest.mark.parametrize("preset,num_qubits", [("ghz8", 8), ("ghz12", 12)])
def test_stabilizer_parity_check_beyond_dense_cap(tmp_path, preset, num_qubits):
    code, text = run_cli(["stabilizer", "--preset", preset, "--parity-check"], tmp_path)
    assert code == 0
    header, rows = csv_rows(text)
    assert len(header) == 1 + 2**num_qubits and len(rows) == num_qubits
    # generator j fails exactly the columns with bit N-1-j set
    for j, row in enumerate(rows):
        bits = [int(v) for v in row[1:]]
        assert bits == [1 - ((k >> (num_qubits - 1 - j)) & 1) for k in range(2**num_qubits)]
    expected = " ".join(str(1 << j) for j in range(num_qubits))
    assert f"# special_columns: {expected}" in text


def test_stabilizer_subset(tmp_path):
    code, text = run_cli(
        [
            "stabilizer", "--preset", "ghz3", "--subset", "3,5,6",
            "--format", "json",
        ],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["degenerate"] is True
    assert doc["result"]["fooling_acceptance"] >= 1.0 - 1e-9


@pytest.mark.parametrize(
    "preset,subset,dimension,q",
    [
        ("ghz4", "1,2,4", 2, 1.0),
        ("ghz8", "1,2", 2**6, 1.0),
        ("ghz8", "1,2,4,8,16,32,64,128", 1, 7 / 8),
        ("ghz12", "1,2,4", 2**9, 1.0),
        ("cluster12", "1,2,4", 2**9, 1.0),
    ],
)
def test_stabilizer_subset_counts_syndromes(tmp_path, preset, subset, dimension, q):
    # every field comes from the pass counts, so no dense cap applies
    code, text = run_cli(
        ["stabilizer", "--preset", preset, "--subset", subset, "--format", "json"],
        tmp_path,
    )
    assert code == 0
    result = json.loads(text)["result"]
    assert result["stabilized_dimension"] == dimension
    assert result["degenerate"] is (dimension > 1)
    assert result["q"] == q
    if dimension > 1:
        assert result["fooling_acceptance"] == 1.0
    else:
        assert "fooling_acceptance" not in result


def _printed_q(args, tmp_path):
    code, text = run_cli(args, tmp_path)
    assert code == 0
    for line in text.splitlines():
        for prefix in ("# q: ", "q,"):
            if line.startswith(prefix):
                return line[len(prefix) :]
    raise AssertionError(f"no q in {text!r}")


@pytest.mark.parametrize(
    "preset",
    ["bell"] + [f"ghz{n}" for n in range(2, 7)] + [f"cluster{n}" for n in range(3, 7)],
)
def test_stabilizer_q_bits_agree_across_commands(tmp_path, preset):
    group = ["--preset", preset]
    code, text = run_cli(["stabilizer", *group], tmp_path)
    assert code == 0
    body = [line for line in text.splitlines() if not line.startswith("#")]
    record = dict(line.split(",", 1) for line in body[1:])
    n = int(record["num_qubits"])
    for scheme, exact in (
        ("full", full_strategy_q(n)),
        ("generators", generator_strategy_q(n)),
    ):
        kind = [f"--stabilizer-{scheme}", *group]
        printed = {
            _printed_q(["strategy", *kind], tmp_path),
            _printed_q(["samplecount", *kind], tmp_path),
            record[f"q_{scheme}"],
        }
        assert printed == {repr(float(exact))}, (scheme, printed)


def test_stabilizer_subset_reports_indices_used(tmp_path):
    # repeated and unordered indices build the strategy from {1, 3}
    code, text = run_cli(
        ["stabilizer", "--preset", "ghz3", "--subset", "3,1,1", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    assert json.loads(text)["result"]["indices"] == "1 3"


def test_config_precedence(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"theta": "pi/5", "format": "json"}))
    code, text = run_cli(
        ["strategy", "--two-qubit", "--config", str(config)], tmp_path
    )
    assert code == 0
    doc = json.loads(text)
    assert abs(doc["result"]["theta"] - math.pi / 5) < 1e-15

    code, text = run_cli(
        [
            "strategy", "--two-qubit", "--config", str(config),
            "--theta", "pi/8",
        ],
        tmp_path,
    )
    doc = json.loads(text)
    assert abs(doc["result"]["theta"] - math.pi / 8) < 1e-15


def test_config_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"thetaa": "pi/5"}))
    code = main(["strategy", "--two-qubit", "--config", str(config)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_domain_error_exits_2(capsys):
    code = main(["strategy", "--two-qubit", "--theta", "pi/4"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "ThetaNearSpecialValueError" in err


def test_missing_required_n_exits_2(capsys):
    code = main(["simulate", "--bell", "--device", "honest"])
    assert code == 2
    capsys.readouterr()


def test_stdout_when_no_out_flag(capsys):
    code = main(["strategy", "--bell"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# tool: qverify")


@pytest.mark.parametrize("error", [KeyError, ValueError, OSError, TypeError])
def test_internal_error_exits_3(monkeypatch, capsys, error):
    def broken(*args):
        raise error("internal failure")

    # the Bell builder gives its strategy the closed-form metrics
    monkeypatch.setattr(strategy, "family_metrics", broken)
    assert main(["strategy", "--bell"]) == 3
    err = capsys.readouterr().err
    assert f"internal: {error.__name__}" in err
    assert "Traceback" in err


def _bad_input_cases(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "no_target.json").write_text(json.dumps({"kind": "bell", "settings": []}))
    (tmp_path / "text.json").write_text(json.dumps("bell"))
    (tmp_path / "bad_n.json").write_text(json.dumps({"n": "ten"}))
    # json writes and reads the NaN token, so such files do reach the library
    nan_target = strategy.to_json_dict(strategy.bell_strategy())
    nan_target["target"][0] = [math.nan, 0.0]
    (tmp_path / "nan_target.json").write_text(json.dumps(nan_target))
    nan_theta = strategy.to_json_dict(strategy.two_qubit_optimal(0.6))
    nan_theta["theta"] = math.nan
    (tmp_path / "nan_theta.json").write_text(json.dumps(nan_theta))
    two_qubit = strategy.to_json_dict(strategy.two_qubit_optimal(0.6))
    (tmp_path / "two_qubit.json").write_text(json.dumps(two_qubit))
    (tmp_path / "kind_bell.json").write_text(json.dumps({"kind": "bell"}))
    (tmp_path / "list.json").write_text(json.dumps(["bell"]))
    (tmp_path / "points_x.json").write_text(json.dumps({"points": "x"}))
    missing = str(tmp_path / "missing.json")
    no_dir = str(tmp_path / "no_dir" / "out.txt")
    return {
        "config-missing": ["strategy", "--bell", "--config", missing],
        "config-bad-json": ["strategy", "--bell", "--config", str(tmp_path / "bad.json")],
        "config-bad-number": [
            "simulate", "--bell", "--config", str(tmp_path / "bad_n.json"),
        ],
        "strategy-file-missing": ["simulate", "--strategy-file", missing, "--n", "3"],
        "strategy-file-bad-json": [
            "simulate", "--strategy-file", str(tmp_path / "bad.json"), "--n", "3",
        ],
        "strategy-file-no-target": [
            "simulate", "--strategy-file", str(tmp_path / "no_target.json"), "--n", "3",
        ],
        "strategy-file-not-object": [
            "simulate", "--strategy-file", str(tmp_path / "text.json"), "--n", "3",
        ],
        "strategy-file-nan-amplitude": [
            "simulate", "--strategy-file", str(tmp_path / "nan_target.json"),
            "--n", "5", "--trials", "10",
        ],
        "strategy-file-nan-theta": [
            "simulate", "--strategy-file", str(tmp_path / "nan_theta.json"),
            "--n", "5", "--trials", "10",
        ],
        "strategy-file-with-builder-flag": [
            "simulate", "--bell", "--strategy-file", str(tmp_path / "two_qubit.json"),
            "--n", "5", "--trials", "10",
        ],
        "strategy-file-with-config-kind": [
            "simulate", "--strategy-file", str(tmp_path / "two_qubit.json"),
            "--config", str(tmp_path / "kind_bell.json"), "--n", "5", "--trials", "10",
        ],
        "config-list": ["strategy", "--bell", "--config", str(tmp_path / "list.json")],
        "config-points-not-integer": ["figure", "--config", str(tmp_path / "points_x.json")],
        "strategy-no-builder": ["strategy"],
        "two-qubit-no-theta": ["strategy", "--two-qubit"],
        "stabilizer-full-no-group": ["strategy", "--stabilizer-full"],
        "preset-with-generators": ["stabilizer", "--preset", "ghz3", "--generators", "XX,ZZ"],
        "generators-not-maximal": ["stabilizer", "--generators", "+ZZ"],
        "subset-not-integer": ["stabilizer", "--preset", "ghz3", "--subset", "1,x"],
        "subset-with-parity-check": [
            "stabilizer", "--preset", "ghz3", "--subset", "1,2", "--parity-check",
        ],
        "figS2-theta-nan": ["figure", "--which", "figS2", "--theta", "nan"],
        "figS2-theta-inf": ["figure", "--which", "figS2", "--theta", "inf"],
        "out-unwritable": ["strategy", "--bell", "--out", no_dir],
        "transcript-unwritable": [
            "simulate", "--bell", "--n", "3", "--trials", "2",
            "--transcript", no_dir, "--out", str(tmp_path / "sim.txt"),
        ],
    }


@pytest.mark.parametrize(
    "case",
    [
        "config-missing", "config-bad-json", "config-bad-number",
        "strategy-file-missing", "strategy-file-bad-json",
        "strategy-file-no-target", "strategy-file-not-object",
        "strategy-file-nan-amplitude", "strategy-file-nan-theta",
        "strategy-file-with-builder-flag", "strategy-file-with-config-kind",
        "config-list", "config-points-not-integer",
        "strategy-no-builder", "two-qubit-no-theta", "stabilizer-full-no-group",
        "preset-with-generators", "generators-not-maximal",
        "subset-not-integer", "subset-with-parity-check",
        "figS2-theta-nan", "figS2-theta-inf",
        "out-unwritable", "transcript-unwritable",
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, case):
    code = main(_bad_input_cases(tmp_path)[case])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Error: " in err


@pytest.mark.parametrize(
    "build,field,value",
    [
        ("product", "weight", True), ("product", "weight", "1.0"),
        ("two-qubit", "theta", True), ("two-qubit", "theta", "0.6"),
    ],
)
def test_a_strategy_file_weight_or_theta_must_be_a_real_number(
    tmp_path, capsys, build, field, value
):
    # the product strategy's one setting has weight 1: true or "1.0" would
    # read as that weight; theta true would read as 1.0
    doc = strategy.to_json_dict(
        strategy.product_state_strategy("zero") if build == "product"
        else strategy.two_qubit_optimal(0.6)
    )
    path = tmp_path / "s.json"
    args = ["simulate", "--strategy-file", str(path), "--n", "5", "--trials", "10", "--seed", "1"]
    path.write_text(json.dumps(doc))
    assert main(args) == 0
    capsys.readouterr()
    (doc["settings"][0] if field == "weight" else doc)[field] = value
    path.write_text(json.dumps(doc))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValidationError: {field} must be a real number, got {value!r}\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["stabilizer", "--preset", "ghz3", "--subset="], "need at least one element index"),
        (["stabilizer", "--preset", "ghz3", "--subset=", "--parity-check"], "mutually exclusive"),
        (["stabilizer", "--preset=", "--generators", "XX,ZZ"], "mutually exclusive"),
        (["stabilizer", "--generators="], "need at least one generator"),
        (["simulate", "--bell", "--n", "3", "--trials", "2", "--transcript="], "cannot write ''"),
        (["simulate", "--bell", "--strategy-file=", "--n", "3"], "mutually exclusive"),
        (["strategy", "--bell", "--out="], "cannot write ''"),
    ],
    ids=[
        "subset", "subset-with-parity-check", "preset-with-generators", "generators",
        "transcript", "strategy-file-with-bell", "out",
    ],
)
def test_an_option_given_an_empty_value_is_read(tmp_path, monkeypatch, capsys, args, message):
    # an explicit "" is a value, not an absent option: it is checked, never skipped
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def _run_with_config(tmp_path, args, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return main(list(args) + ["--config", str(path)])


SIM = ["simulate", "--n", "3", "--trials", "2"]


@pytest.mark.parametrize(
    "config,args",
    [
        pytest.param({"which": "fig9"}, ["figure"], id="which-fig9"),
        pytest.param({"record_labels": "false"}, SIM + ["--bell"], id="switch-string"),
        pytest.param(
            {"parity_check": "false"}, ["stabilizer", "--preset", "bell"],
            id="parity-check-string",
        ),
        pytest.param(
            {"parity_check": True}, ["stabilizer", "--preset", "ghz3", "--subset", "1,2"],
            id="parity-check-with-subset",
        ),
        pytest.param({"seed": 1.7}, ["strategy", "--bell"], id="seed-float"),
        pytest.param({"format": "xml"}, ["strategy", "--bell"], id="format-xml"),
        pytest.param({"device": "bogus"}, SIM + ["--bell"], id="device-bogus"),
        pytest.param({"kind": "bogus"}, ["strategy"], id="kind-bogus"),
        pytest.param({"kind": "record-labels"}, SIM, id="kind-not-a-strategy"),
        pytest.param({"config": "x.json"}, ["strategy", "--bell"], id="nested-config"),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, config, args):
    assert _run_with_config(tmp_path, args, config) == 2
    assert capsys.readouterr().err.startswith("error: ValidationError")


@pytest.mark.parametrize(
    "config,args,flags",
    [
        pytest.param(
            {"kind": "two-qubit", "theta": "pi/8"},
            ["strategy"],
            ["strategy", "--two-qubit", "--theta", "pi/8"],
            id="kind-and-theta",
        ),
        pytest.param(
            {"generators": ["+XX", "+ZZ"]},
            ["stabilizer"],
            ["stabilizer", "--generators", "+XX,+ZZ"],
            id="generators-list",
        ),
        pytest.param(
            {"subset": [1, 2]},
            ["stabilizer", "--preset", "ghz3"],
            ["stabilizer", "--preset", "ghz3", "--subset", "1,2"],
            id="subset-list",
        ),
        pytest.param(
            {"record_labels": True},
            ["simulate", "--bell", "--n", "5", "--trials", "20", "--transcript", "t.jsonl"],
            ["simulate", "--bell", "--n", "5", "--trials", "20", "--transcript", "t.jsonl",
             "--record-labels"],
            id="switch-true",
        ),
        pytest.param(
            {"which": "figS2", "theta": "-0.3"},
            ["figure"],
            ["figure", "--which", "figS2", "--theta", "-0.3"],
            id="negative-theta",
        ),
    ],
)
def test_config_matches_flags(tmp_path, monkeypatch, capsys, config, args, flags):
    monkeypatch.chdir(tmp_path)

    def output(code):
        assert code == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        transcript = tmp_path / "t.jsonl"
        written = transcript.read_text() if transcript.exists() else ""
        transcript.unlink(missing_ok=True)
        return [l for l in lines if not l.startswith("# command:")], written

    from_config = output(_run_with_config(tmp_path, args, config))
    assert from_config == output(main(flags))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_subcommand_help_exits_0(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: qverify {command}")


@pytest.mark.parametrize(
    "args",
    [
        ["strategy", "--bell", "--epsilon", "2"],
        ["figure", "--which", "fig1", "--points", "0"],
        ["figure", "--which", "fig2", "--points", "-3"],
        ["figure", "--points", "x"],
        ["landscape", "--refine-resolution", "-3"],
        ["landscape", "--refine-resolution", "0"],
    ],
)
def test_out_of_range_number_exits_2(capsys, args):
    assert main(args) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["landscape", "--theta", "nan", "--resolution", "20", "--refine-resolution", "40"],
        ["strategy", "--two-qubit", "--theta", "nan"],
    ],
)
def test_nan_theta_exits_2(capsys, args):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ThetaOutOfDomainError: theta=nan outside")


def test_strategy_file_exit_codes(tmp_path, capsys):
    # the constructor's one check, at TOL_DERIVED, decides: drift below it
    # is accepted, drift above it is bad input
    path = tmp_path / "drift.json"
    args = ["simulate", "--strategy-file", str(path), "--n", "3", "--trials", "2"]

    def run(drift, *extra):
        doc = strategy.to_json_dict(strategy.product_state_strategy("zero"))
        doc["settings"][0]["projector"][0] = [1.0 + drift, 0.0]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        return main(args + list(extra))

    assert run(1e-9) == 2
    assert capsys.readouterr().err.startswith("error: ValidationError:")
    assert run(3e-11) == 0
    # the removed option is unknown, as a flag and as a config key
    assert run(3e-11, "--tolerance-profile", "strict") == 2
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tolerance_profile": "strict"}))
    assert run(3e-11, "--config", str(config)) == 2
    assert "is no option" in capsys.readouterr().err


# The process entry, cli.run: main in a fresh interpreter, whose exit
# skips the interpreter's teardown once stdout and stderr are flushed.
# stdout is block-buffered there, as by default, so a lost flush shows.
_SRC = str(Path(qverify.__file__).resolve().parents[1])
_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
_ENV["PYTHONPATH"] = _SRC


def _fresh(args, code=None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """python -m qverify.cli args, or python -c code args, in a fresh interpreter."""
    head = ["-m", "qverify.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *head, *args], env=_ENV, stdout=stdout, stderr=subprocess.PIPE
    )


_SHORT_AND_LONG_OUTPUT = pytest.mark.parametrize(
    "args",
    [["strategy", "--bell"], ["strategy", "--stabilizer-full", "--preset", "ghz12"]],
    ids=["bell", "ghz12-full"],
)


def _in_process(capsysbinary, args):
    code = main(list(args))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


@_SHORT_AND_LONG_OUTPUT
def test_process_entry_writes_the_in_process_stdout_bytes(capsysbinary, args):
    code, out, err = _in_process(capsysbinary, args)
    assert (code, err) == (0, b"")
    done = _fresh(args)
    assert (done.returncode, done.stdout, done.stderr) == (0, out, b"")
    if "ghz12" in args:
        assert len(out) > 200_000  # beyond the pipe's and io's buffers


def test_process_entry_writes_the_in_process_files(capsysbinary, tmp_path):
    out, transcript = tmp_path / "out.csv", tmp_path / "runs.jsonl"
    args = [
        "simulate", "--bell", "--device", "worst-iid", "--n", "20", "--trials", "200",
        "--seed", "7", "--out", str(out), "--transcript", str(transcript), "--record-labels",
    ]
    assert _in_process(capsysbinary, args) == (0, b"", b"")
    expected = out.read_bytes(), transcript.read_bytes()
    out.unlink()
    transcript.unlink()
    done = _fresh(args)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert (out.read_bytes(), transcript.read_bytes()) == expected
    assert len(expected[1].splitlines()) == 200


@pytest.mark.parametrize(
    "args", [["strategy", "--two-qubit"], ["strategy", "--bell", "--no-such-flag"]]
)
def test_process_entry_reports_bad_input_as_in_process(capsysbinary, args):
    code, out, err = _in_process(capsysbinary, args)
    done = _fresh(args)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    assert code == 2 and err


def test_process_entry_reports_an_internal_error_with_its_traceback():
    code = (
        "from qverify import cli\n"
        "def boom(cfg):\n"
        "    raise RuntimeError('boom')\n"
        "cli.COMMANDS['strategy'] = boom\n"
        "cli.run()\n"
    )
    done = _fresh(["strategy", "--bell"], code)
    assert done.returncode == 3
    assert done.stdout == b""
    err = done.stderr.decode()
    assert err.startswith("Traceback (most recent call last):")
    assert 'File "<string>", line 3, in boom' in err
    assert err.endswith("internal: RuntimeError: boom\n")


@_SHORT_AND_LONG_OUTPUT
def test_process_entry_never_exits_0_into_a_closed_pipe(args):
    # a short output meets the gone reader in run's flush, a long one in
    # main's write; both exit 141 (128 + SIGPIPE) with no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _fresh(args, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_main_returns_141_when_stdout_meets_a_closed_pipe(capsys):
    # in process: the long output's write meets the gone reader, and main
    # points fd 1 at os.devnull, so flushing what stdout still buffers
    # cannot raise again
    read_end, write_end = os.pipe()
    os.close(read_end)
    saved_fd, saved_stdout = os.dup(1), sys.stdout
    os.dup2(write_end, 1)
    os.close(write_end)
    try:
        sys.stdout = open(1, "w", closefd=False)
        code = main(["strategy", "--stabilizer-full", "--preset", "ghz12"])
        on_devnull = os.path.samestat(os.fstat(1), os.stat(os.devnull))
        sys.stdout.close()
    finally:
        sys.stdout = saved_stdout
        os.dup2(saved_fd, 1)
        os.close(saved_fd)
    assert (code, on_devnull) == (141, True)
    assert capsys.readouterr().err == ""


# Junk argument vectors: every subcommand's options, each given a value
# from a junk pool, must exit 0 or 2, and a 2 says one error line.
_SUBPARSERS = _parsers()[1]
_JUNK = (
    "", " ", "x", "-1", "0", "1", "3", "1.5", "nan", "inf", "-inf", "1e999", "0x10",
    "pi/0", "pi/8", "-pi/3", "2*pi", ",", "1,,2", "+XX,ZZ", "-XX", "XZ,ZX", "IIX",
    "bell", "ghz3", "ghz99", "cluster0", "zeros2", "csv", "json", "fig1", "figS1",
    "honest", "worst-iid", "--bell",
)  # no "figS2": its landscape grid alone takes about 0.2 s
_WRITTEN = ("--out", "--transcript")
_READ = ("--config", "--strategy-file")
_NO_FILES = ("", "/", "/nonexistent-qverify/x", os.devnull)
_FILE_TEXTS = (
    "{", "[]", "{}", '{"seed": "x"}', '{"nope": 1}', '{"config": "c.json"}',
    '{"kind": "two-qubit", "theta": "pi/0"}', '{"kind": "bell", "n": 0}',
    json.dumps(strategy.to_json_dict(strategy.bell_strategy())),
)


def _options(command):
    """(switches, options that take a value) of one subcommand, but --help."""
    switches, valued = [], []
    for action in _SUBPARSERS[command]._actions:
        if action.option_strings and action.dest != "help":
            (switches if action.nargs == 0 else valued).append(action.option_strings[-1])
    return switches, valued


@pytest.fixture(scope="module")
def junk_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("junk")
    paths = []
    for i, text in enumerate(_FILE_TEXTS):
        paths.append(root / f"junk{i}.json")
        paths[-1].write_text(text)
    return tuple(str(path) for path in paths)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_junk_argument_vectors_exit_0_or_2_with_one_error_line(junk_files, data):
    command = data.draw(st.sampled_from(sorted(_SUBPARSERS)))
    switches, valued = _options(command)
    argv = [command, *data.draw(st.lists(st.sampled_from(switches), max_size=2) if switches
                                else st.just([]))]
    for option in data.draw(st.lists(st.sampled_from(valued), max_size=4)):
        pool = _NO_FILES if option in _WRITTEN else _NO_FILES + junk_files
        value = data.draw(st.sampled_from(pool if option in _WRITTEN + _READ else _JUNK))
        attached = data.draw(st.booleans())
        argv.extend([f"{option}={value}"] if attached else [option, value])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in (0, 2), (argv, err.getvalue())
    assert len(errors) == (code == 2), (argv, err.getvalue())
