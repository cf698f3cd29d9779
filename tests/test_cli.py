import json
import math

import pytest

from qverify import strategy
from qverify.cli import COMMANDS, main, parse_angle
from qverify.errors import ValidationError
from qverify.adversary import HULL_COLUMNS, LANDSCAPE_COLUMNS
from qverify.samplecount import FIG1_COLUMNS, FIG2_COLUMNS


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
    assert record["num_generators"] == 3
    assert record["num_elements"] == 8
    assert record["is_maximal"] is True
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


def test_strict_profile_accepts_exact_strategies(tmp_path):
    code, text = run_cli(
        ["strategy", "--bell", "--tolerance-profile", "strict"], tmp_path
    )
    assert code == 0
    assert "# tolerance-profile: strict" in text


def test_stdout_when_no_out_flag(capsys):
    code = main(["strategy", "--bell"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# tool: qverify")


@pytest.mark.parametrize("error", [KeyError, ValueError, OSError, TypeError])
def test_internal_error_exits_3(monkeypatch, capsys, error):
    def broken(built):
        raise error("internal failure")

    monkeypatch.setattr(strategy, "metrics", broken)
    assert main(["strategy", "--bell"]) == 3
    err = capsys.readouterr().err
    assert f"internal: {error.__name__}" in err
    assert "Traceback" in err


def _bad_input_cases(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "no_target.json").write_text(json.dumps({"kind": "bell", "settings": []}))
    (tmp_path / "text.json").write_text(json.dumps("bell"))
    (tmp_path / "bad_n.json").write_text(json.dumps({"n": "ten"}))
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
        "subset-not-integer": ["stabilizer", "--preset", "ghz3", "--subset", "1,x"],
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
        "subset-not-integer", "figS2-theta-nan", "figS2-theta-inf",
        "out-unwritable", "transcript-unwritable",
    ],
)
def test_bad_input_exits_2(tmp_path, capsys, case):
    code = main(_bad_input_cases(tmp_path)[case])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Error: " in err


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


def test_strict_profile_drift_exits_3(tmp_path, capsys):
    doc = strategy.to_json_dict(strategy.product_state_strategy("zero"))
    doc["settings"][0]["projector"][0] = [1.0 + 3e-11, 0.0]
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    args = ["simulate", "--strategy-file", str(path), "--n", "3", "--trials", "2"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--tolerance-profile", "strict"]) == 3
    assert "strict re-verification failed" in capsys.readouterr().err
