"""Command line surface over the verification library.

Subcommands cover strategy construction and inspection, copy count
tables, figure data generation, protocol simulation, landscape
certification, and stabilizer tooling. Outputs carry a metadata header
(tool version, output version, command line and seed) and are byte
stable: the same invocation always produces identical bytes.

Every option is declared once, in `_parsers`, with its type, choices
and default. A `--config` file is read by turning its entries into
`--key=value` tokens for the same subcommand parser, so config values
get the flags' conversions and checks; they then stand in for the
defaults, and explicit flags still win. An option given an empty value
(`--out=`) is read as that value, not as an absent option.

Each command imports the submodules it calls when it runs, so a fresh
process loads only those: `strategy --bell` needs no stabilizer,
adversary or protocol module, `landscape` or a dense `simulate` no
stabilizer module, and only `simulate` loads the protocol.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import QVerifyError, ValidationError

PROG = "qverify"

OUTPUT_VERSION = 9  # moves with every intended change to any output's bytes

# Strategy builder flags and their help. Each flag stores its name in
# `kind`, and a config file names one the same way ("kind": "bell").
STRATEGY_KINDS = {
    "bell": "three setting parity strategy for the Bell state",
    "two-qubit": "four setting optimum for sin(theta)|00> + cos(theta)|11>",
    "product-zero": "single projector strategy for |00>",
    "product-one": "single projector strategy for |11>",
    "stabilizer-full": "uniform strategy over all nontrivial group elements",
    "stabilizer-generators": "uniform strategy over the generators only",
}

_ANGLE = re.compile(
    r"(?i)^\s*([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*([+-]?\d+\.?\d*))?\s*$"
)


def parse_angle(value) -> float:
    """Radians from a number's text or a `pi/8`-style fraction string."""
    text = str(value)
    m = _ANGLE.match(text)
    if m:
        num, den = m.groups()
        coeff = float(num + "1" if num in ("", "+", "-") else num)
        if den is not None and float(den) == 0.0:
            raise ValidationError(f"angle {text!r} divides by zero")
        return coeff * math.pi / (1.0 if den is None else float(den))
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"cannot parse angle {text!r}") from None


def _positive_int(text: str) -> int:
    """Grid sizes: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _parsers(**options) -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name.

    options go to every subcommand parser; the config reader passes
    exit_on_error=False, allow_abbrev=False and add_help=False.
    """
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Optimal local verification of entangled states: "
        "strategies, copy counts, figure data, certification, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--seed", type=int, default=0, help="base RNG seed (default %(default)s)"
        )
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default %(default)s)",
        )
        p.add_argument(
            "--config", help="JSON file of option values; explicit flags win"
        )

    def add_group(p):
        p.add_argument(
            "--preset", help="stabilizer preset: bell, ghzN, clusterN, zerosN"
        )
        p.add_argument(
            "--generators", help="comma separated Pauli labels, e.g. +XX,+ZZ; attach a "
            "value led by - with =, as --generators=-XX,ZZ",
        )

    def add_kind(p):
        g = p.add_mutually_exclusive_group()
        for kind, text in STRATEGY_KINDS.items():
            g.add_argument(
                f"--{kind}", dest="kind", action="store_const", const=kind, help=text
            )
        p.add_argument(
            "--theta",
            help="target angle for --two-qubit; accepts pi fractions like pi/8; attach "
            "a value led by - with =",
        )
        add_group(p)

    p = sub.add_parser(
        "strategy", help="construct and inspect a strategy", **options
    )
    add_kind(p)
    p.add_argument(
        "--epsilon", type=float, help="also report delta_eps at this epsilon"
    )
    add_common(p)

    p = sub.add_parser(
        "samplecount", help="copies needed for (epsilon, delta)", **options
    )
    add_kind(p)
    p.add_argument(
        "--epsilon",
        type=float,
        default=0.01,
        help="infidelity promise (default %(default)s)",
    )
    p.add_argument(
        "--delta",
        type=float,
        default=0.1,
        help="confidence target (default %(default)s)",
    )
    add_common(p)

    p = sub.add_parser("figure", help="emit plot-ready data tables", **options)
    p.add_argument(
        "--which",
        choices=("fig1", "fig2", "figS1", "figS2"),
        default="fig1",
        help="fig1: counts vs theta; fig2: counts vs epsilon; "
        "figS1: reachable-region boundary; figS2: landscape grid "
        "(default %(default)s)",
    )
    p.add_argument(
        "--theta",
        default="pi/8",
        help="angle for fig2/figS1/figS2 (default %(default)s); attach a value led by - with =",
    )
    p.add_argument(
        "--epsilon",
        type=float,
        default=0.01,
        help="promise for fig1 (default %(default)s)",
    )
    p.add_argument(
        "--delta",
        type=float,
        default=0.1,
        help="confidence for fig1/fig2 (default %(default)s)",
    )
    p.add_argument(
        "--points",
        type=_positive_int,
        help="grid size for fig1/fig2/figS1 (library defaults otherwise)",
    )
    add_common(p)

    p = sub.add_parser("simulate", help="run the sequential protocol", **options)
    add_kind(p)
    p.add_argument(
        "--strategy-file",
        help="load the strategy from a JSON file instead of a builder flag",
    )
    p.add_argument(
        "--device",
        choices=("honest", "worst-iid"),
        default="honest",
        help="source model (default %(default)s)",
    )
    p.add_argument(
        "--epsilon",
        type=float,
        default=0.1,
        help="infidelity of the worst-iid device (default %(default)s)",
    )
    p.add_argument("--n", type=int, help="copies per trial (required)")
    p.add_argument(
        "--trials",
        type=int,
        default=10000,
        help="independent trials (default %(default)s)",
    )
    p.add_argument("--transcript", help="write per-trial JSON lines to this path")
    p.add_argument(
        "--record-labels",
        action="store_true",
        help="include drawn setting labels in the transcript",
    )
    add_common(p)

    p = sub.add_parser(
        "landscape", help="certify the two qubit optimum by sweep", **options
    )
    p.add_argument(
        "--theta", default="pi/8",
        help="target angle (default %(default)s); attach a value led by - with =",
    )
    p.add_argument(
        "--resolution",
        type=int,
        default=400,
        help="coarse grid size (default %(default)s)",
    )
    p.add_argument(
        "--refine-resolution",
        type=_positive_int,
        default=4000,
        help="refinement grid size (default %(default)s)",
    )
    add_common(p)

    p = sub.add_parser("stabilizer", help="inspect groups and parity checks", **options)
    add_group(p)
    p.add_argument(
        "--parity-check",
        action="store_true",
        help="dump the generator/syndrome pass table",
    )
    p.add_argument(
        "--subset",
        help="comma separated element indices; reports the subset strategy",
    )
    add_common(p)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The qverify command line parser."""
    return _parsers()[0]


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def _open_output(path: str):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from exc


def _config_values(command: str, path: str) -> dict:
    """Every option value of command, with the config file's entries applied.

    Each entry becomes one `--key=value` token: a true switch is the bare
    flag, a list is joined with commas and a strategy kind is its flag.
    """
    loaded = _read_json(path, "config file")
    if not isinstance(loaded, dict):
        raise ValidationError("config file must hold a JSON object")
    tokens = []
    for key, value in loaded.items():
        flag = "--" + str(key).replace("_", "-")
        if flag == "--kind" and isinstance(value, str) and value in STRATEGY_KINDS:
            flag, value = f"--{value}", True
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list):
            tokens.append(f"{flag}={','.join(str(v) for v in value)}")
        else:
            tokens.append(f"{flag}={value}")
    parsers = _parsers(exit_on_error=False, allow_abbrev=False, add_help=False)[1]
    try:
        values, unknown = parsers[command].parse_known_args(tokens)
    except argparse.ArgumentError as exc:
        raise ValidationError(f"config file {path!r}: {exc}") from None
    if unknown:
        raise ValidationError(
            f"config file {path!r}: {unknown[0]!r} is no option of {command!r}"
        )
    if values.config is not None:
        raise ValidationError(f"config file {path!r} may not name another config")
    return vars(values)


def _metadata(cfg: argparse.Namespace) -> tuple[tuple[str, str], ...]:
    return (
        ("tool", f"{PROG} {__version__}"),
        ("output-version", str(OUTPUT_VERSION)),
        ("command", " ".join((PROG, *cfg.argv))),
        ("seed", str(cfg.seed)),
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render(cfg: argparse.Namespace, doc: dict) -> str:
    meta = _metadata(cfg)
    if cfg.format == "json":
        payload: dict = {"metadata": dict(meta)}
        if "record" in doc:
            payload["result"] = dict(doc["record"])
        if "columns" in doc:
            payload["columns"] = list(doc["columns"])
            payload["rows"] = [list(row) for row in doc["rows"]]
        payload.update(doc.get("extra_json", {}))
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key}: {value}" for key, value in meta]
    if "columns" in doc:
        for key, value in doc.get("record", ()):
            lines.append(f"# {key}: {_cell(value)}")
        lines.append(",".join(doc["columns"]))
        lines.extend(",".join(_cell(v) for v in row) for row in doc["rows"])
    else:
        lines.append("key,value")
        lines.extend(f"{key},{_cell(value)}" for key, value in doc["record"])
    return "\n".join(lines) + "\n"


def _write(cfg: argparse.Namespace, text: str) -> None:
    if cfg.out is not None:
        with _open_output(cfg.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_group(cfg: argparse.Namespace):
    from . import stabilizer
    if cfg.preset is not None and cfg.generators is not None:
        raise ValidationError("--preset and --generators are mutually exclusive")
    if cfg.preset is not None:
        return stabilizer.preset_group(cfg.preset)
    if cfg.generators is not None:
        labels = [part.strip() for part in cfg.generators.split(",") if part.strip()]
        return stabilizer.group_from_json(labels)
    raise ValidationError("a stabilizer group needs --preset or --generators")


def _build_strategy(cfg: argparse.Namespace):
    from . import strategy
    path = getattr(cfg, "strategy_file", None)
    kind = cfg.kind
    if path is not None and kind is not None:
        raise ValidationError(f"--strategy-file and --{kind} are mutually exclusive")
    if path is not None:
        from . import stabilizer
        built = stabilizer.strategy_from_json(_read_json(path, "strategy file"))
    elif kind is None:
        raise ValidationError(
            "choose a strategy: " + ", ".join(f"--{k}" for k in STRATEGY_KINDS)
        )
    elif kind == "bell":
        built = strategy.bell_strategy()
    elif kind == "two-qubit":
        if cfg.theta is None:
            raise ValidationError("--two-qubit requires --theta")
        built = strategy.two_qubit_optimal(parse_angle(cfg.theta))
    elif kind == "product-zero":
        built = strategy.product_state_strategy("zero")
    elif kind == "product-one":
        built = strategy.product_state_strategy("one")
    else:
        from . import stabilizer
        if kind == "stabilizer-full":
            built = stabilizer.full_strategy(_build_group(cfg))
        else:  # stabilizer-generators
            built = stabilizer.generator_strategy(_build_group(cfg))
    return built


def cmd_strategy(cfg: argparse.Namespace) -> dict:
    from . import strategy
    built = _build_strategy(cfg)
    m = built.metrics
    record = [
        ("kind", built.kind.value),
        ("settings", len(built.settings)),
        ("dim", built.dim),
        ("q", m.q),
        ("trace", m.trace),
        ("second_eigenvalue_gap", m.second_eigenvalue_gap),
    ]
    if built.theta is not None:
        record.insert(1, ("theta", built.theta))
    if cfg.epsilon is not None:
        record.append(("epsilon", cfg.epsilon))
        record.append(("delta_eps", m.delta_eps(cfg.epsilon)))
    rows = [(s.label, s.weight, s.locality.value) for s in built.settings]
    doc = {"record": record, "columns": ("label", "weight", "locality"), "rows": rows}
    if cfg.format == "json":
        doc["extra_json"] = {"strategy": strategy.to_json_dict(built)}
    return doc


def cmd_samplecount(cfg: argparse.Namespace) -> dict:
    from . import strategy
    epsilon, delta = cfg.epsilon, cfg.delta
    report = strategy.exact_sample_count(_build_strategy(cfg), epsilon, delta)
    record = [
        ("method", report.method_label),
        ("epsilon", epsilon),
        ("delta", delta),
        ("q", report.q),
        ("delta_eps", report.delta_eps),
        ("n_exact", report.n_exact),
        ("n_asymptotic", report.n_asymptotic),
    ]
    return {"record": record}


def cmd_figure(cfg: argparse.Namespace) -> dict:
    from . import samplecount
    points = cfg.points
    if cfg.which == "fig1":
        thetas = None if points is None else samplecount.default_theta_grid(points)
        rows = samplecount.figure1_data(cfg.epsilon, cfg.delta, thetas)
        return {"columns": samplecount.FIG1_COLUMNS, "rows": rows}
    theta = parse_angle(cfg.theta)
    if cfg.which == "fig2":
        epsilons = None if points is None else np.logspace(-4, -1, points)
        rows = samplecount.figure2_data(theta, cfg.delta, epsilons)
        return {"columns": samplecount.FIG2_COLUMNS, "rows": rows}
    from . import adversary
    if cfg.which == "figS1":
        if points is None:
            rows = adversary.hull_boundary(theta)
        else:
            rows = adversary.hull_boundary(theta, points)
        return {"columns": adversary.HULL_COLUMNS, "rows": rows}
    report = adversary.landscape(theta)  # figS2
    record = [
        ("theta", report.theta),
        ("argmin_alpha", report.argmin_alpha),
        ("argmin_phi", report.argmin_phi),
        ("min_qmax", report.min_qmax),
    ]
    return {
        "record": record,
        "columns": adversary.LANDSCAPE_COLUMNS,
        "rows": report.rows,
    }


def cmd_simulate(cfg: argparse.Namespace) -> dict:
    from . import adversary, protocol
    if cfg.n is None:
        raise ValidationError("simulate requires --n")
    built = _build_strategy(cfg)
    record = [("device", cfg.device), ("n", cfg.n), ("trials", cfg.trials)]
    if cfg.device == "honest":
        device = protocol.honest_device(built.target)
    else:  # worst-iid
        worst = adversary.worst_case_state(built, cfg.epsilon)
        device = protocol.iid_adversary(built.target, worst, epsilon=cfg.epsilon)
        record.append(("epsilon", cfg.epsilon))

    sink = None
    transcript_file = None
    if cfg.transcript is not None:
        transcript_file = _open_output(cfg.transcript)

        def sink(entry):
            transcript_file.write(json.dumps(entry) + "\n")

    try:
        stats = protocol.estimate_power(
            built,
            device,
            n=cfg.n,
            trials=cfg.trials,
            seed=cfg.seed,
            sink=sink,
            record_labels=cfg.record_labels,
        )
    finally:
        if transcript_file is not None:
            transcript_file.close()
    record += [
        ("accept_rate", stats.accept_rate),
        ("wilson_low", stats.wilson_low),
        ("wilson_high", stats.wilson_high),
        ("predicted_acceptance", stats.predicted_acceptance),
    ]
    return {"record": record}


def cmd_landscape(cfg: argparse.Namespace) -> dict:
    from . import adversary
    cert = adversary.certify_optimality(
        parse_angle(cfg.theta),
        resolution=cfg.resolution,
        refine_resolution=cfg.refine_resolution,
    )
    fields = (
        "theta", "resolution", "q_closed_form", "q_grid", "q_polished", "gap",
        "alpha_closed_form", "alpha_polished", "phi_closed_form", "phi_polished",
        "ppt_bound", "sound", "located", "passed",
    )
    return {"record": [(name, getattr(cert, name)) for name in fields]}


def cmd_stabilizer(cfg: argparse.Namespace) -> dict:
    from . import stabilizer, strategy
    if cfg.subset is not None and cfg.parity_check:
        raise ValidationError("--subset and --parity-check are mutually exclusive")
    group = _build_group(cfg)
    n = group.num_qubits
    if cfg.subset is not None:
        try:
            indices = [int(part) for part in cfg.subset.split(",") if part.strip()]
        except ValueError:
            raise ValidationError(
                f"--subset needs comma separated integers, got {cfg.subset!r}"
            ) from None
        report = stabilizer.subset_strategy(group, indices)
        record = [
            ("num_qubits", n),
            ("indices", " ".join(str(i) for i in report.strategy.indices)),
            ("degenerate", report.degenerate),
            ("stabilized_dimension", report.stabilized_dimension),
            ("q", report.strategy.metrics.q),
        ]
        extra: dict = {}
        if report.degenerate:
            record.append(("fooling_acceptance", report.fooling_acceptance))
            extra["fooling_state"] = strategy._complex_pairs(report.fooling_state.amplitudes)
        return {"record": record, "extra_json": extra}
    if cfg.parity_check:
        check = stabilizer.ParityCheck.build(group)
        table = check.matrix
        columns = ("generator",) + tuple(f"s{k}" for k in range(check.dim))
        rows = [
            (group.generators[j].label,) + tuple(int(v) for v in table[j])
            for j in range(n)
        ]
        record = [
            ("num_qubits", n),
            ("special_columns", " ".join(str(k) for k in check.special_columns)),
        ]
        return {"record": record, "columns": columns, "rows": rows}
    full = stabilizer.full_strategy(group).metrics
    gens = stabilizer.generator_strategy(group).metrics
    record = [
        ("num_qubits", n),
        ("generators", " ".join(g.label for g in group.generators)),
        ("q_full", full.q),
        ("q_generators", gens.q),
        ("trace", full.trace),
    ]
    return {"record": record}


COMMANDS = {
    "strategy": cmd_strategy,
    "samplecount": cmd_samplecount,
    "figure": cmd_figure,
    "simulate": cmd_simulate,
    "landscape": cmd_landscape,
    "stabilizer": cmd_stabilizer,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = _parsers()
    try:
        cfg = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if cfg.config is not None:
            # Precedence: defaults < config file < flags.
            values = _config_values(cfg.command, cfg.config)
            commands[cfg.command].set_defaults(**values)
            cfg = parser.parse_args(argv)
        cfg.argv = tuple(argv)
        doc = COMMANDS[cfg.command](cfg)
        _write(cfg, _render(cfg, doc))
        return 0
    except QVerifyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input
        sys.excepthook(type(exc), exc, exc.__traceback__)
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
