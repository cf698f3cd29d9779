"""Command line surface over the verification library.

Subcommands cover strategy construction and inspection, copy count
tables, figure data generation, protocol simulation, landscape
certification, and stabilizer tooling. Outputs carry a metadata header
(tool version, command line, seed, tolerance profile) and are byte
stable: the same invocation always produces identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, adversary, protocol, samplecount, stabilizer, strategy
from .errors import QVerifyError, ValidationError

PROG = "qverify"

GLOBAL_DEFAULTS = {
    "seed": 0,
    "out": None,
    "format": "csv",
    "tolerance_profile": "default",
}

SUBCOMMAND_DEFAULTS = {
    "strategy": {
        "kind": None,
        "theta": None,
        "preset": None,
        "generators": None,
        "epsilon": None,
    },
    "samplecount": {
        "kind": None,
        "theta": None,
        "preset": None,
        "generators": None,
        "epsilon": 0.01,
        "delta": 0.1,
    },
    "figure": {
        "which": "fig1",
        "theta": "pi/8",
        "epsilon": 0.01,
        "delta": 0.1,
        "points": None,
    },
    "simulate": {
        "kind": None,
        "theta": None,
        "preset": None,
        "generators": None,
        "strategy_file": None,
        "device": "honest",
        "epsilon": 0.1,
        "n": None,
        "trials": 10000,
        "transcript": None,
        "record_labels": False,
    },
    "landscape": {
        "theta": "pi/8",
        "resolution": 400,
        "refine_resolution": 4000,
    },
    "stabilizer": {
        "preset": None,
        "generators": None,
        "parity_check": False,
        "subset": None,
    },
}

# Config values for numeric options, converted where the config is read.
_CONFIG_NUMBERS = {
    "seed": int,
    "n": int,
    "trials": int,
    "points": int,
    "resolution": int,
    "refine_resolution": int,
    "epsilon": float,
    "delta": float,
}

_ANGLE = re.compile(
    r"(?i)^\s*([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*([+-]?\d+\.?\d*))?\s*$"
)


def parse_angle(value) -> float:
    """Radians from a float or a `pi/8`-style fraction string."""
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value)
    m = _ANGLE.match(text)
    if m:
        num, den = m.groups()
        if num in ("", "+"):
            coeff = 1.0
        elif num == "-":
            coeff = -1.0
        else:
            coeff = float(num)
        result = coeff * math.pi
        if den is not None:
            denom = float(den)
            if denom == 0.0:
                raise ValidationError(f"angle {text!r} divides by zero")
            result /= denom
        return result
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"cannot parse angle {text!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Effective options for one invocation: defaults < config file < flags."""

    command: str
    seed: int
    out: str | None
    format: str
    tolerance_profile: str
    params: dict
    argv: tuple[str, ...]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Optimal local verification of entangled states: "
        "strategies, copy counts, figure data, certification, simulation.",
        argument_default=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument(
            "--format", choices=("csv", "json"), help="output format (default csv)"
        )
        p.add_argument(
            "--tolerance-profile",
            dest="tolerance_profile",
            choices=("strict", "default"),
            help="strict re-verifies constructed operators at 1e-11",
        )
        p.add_argument(
            "--config", help="JSON file of option defaults; explicit flags win"
        )

    def add_kind(p, with_product=True):
        g = p.add_mutually_exclusive_group()
        g.add_argument(
            "--bell",
            dest="kind",
            action="store_const",
            const="bell",
            help="three setting parity strategy for the Bell state",
        )
        g.add_argument(
            "--two-qubit",
            dest="kind",
            action="store_const",
            const="two-qubit",
            help="four setting optimum for sin(theta)|00> + cos(theta)|11>",
        )
        if with_product:
            g.add_argument(
                "--product-zero",
                dest="kind",
                action="store_const",
                const="product-zero",
                help="single projector strategy for |00>",
            )
            g.add_argument(
                "--product-one",
                dest="kind",
                action="store_const",
                const="product-one",
                help="single projector strategy for |11>",
            )
        g.add_argument(
            "--stabilizer-full",
            dest="kind",
            action="store_const",
            const="stabilizer-full",
            help="uniform strategy over all nontrivial group elements",
        )
        g.add_argument(
            "--stabilizer-generators",
            dest="kind",
            action="store_const",
            const="stabilizer-generators",
            help="uniform strategy over the generators only",
        )
        p.add_argument(
            "--theta",
            help="target angle for --two-qubit; accepts pi fractions like pi/8",
        )
        p.add_argument(
            "--preset", help="stabilizer preset: bell, ghzN, clusterN, zerosN"
        )
        p.add_argument(
            "--generators",
            help="comma separated Pauli labels, e.g. +XX,+ZZ",
        )

    p = sub.add_parser(
        "strategy",
        help="construct and inspect a strategy",
        argument_default=argparse.SUPPRESS,
    )
    add_kind(p)
    p.add_argument(
        "--epsilon", type=float, help="also report delta_eps at this epsilon"
    )
    add_common(p)

    p = sub.add_parser(
        "samplecount",
        help="copies needed for (epsilon, delta)",
        argument_default=argparse.SUPPRESS,
    )
    add_kind(p)
    p.add_argument("--epsilon", type=float, help="infidelity promise (default 0.01)")
    p.add_argument("--delta", type=float, help="confidence target (default 0.1)")
    add_common(p)

    p = sub.add_parser(
        "figure",
        help="emit plot-ready data tables",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument(
        "--which",
        choices=("fig1", "fig2", "figS1", "figS2"),
        help="fig1: counts vs theta; fig2: counts vs epsilon; "
        "figS1: reachable-region boundary; figS2: landscape grid",
    )
    p.add_argument("--theta", help="angle for fig2/figS1/figS2 (default pi/8)")
    p.add_argument("--epsilon", type=float, help="promise for fig1 (default 0.01)")
    p.add_argument("--delta", type=float, help="confidence for fig1/fig2 (default 0.1)")
    p.add_argument(
        "--points",
        type=int,
        help="grid size for fig1/fig2/figS1 (library defaults otherwise)",
    )
    add_common(p)

    p = sub.add_parser(
        "simulate",
        help="run the sequential protocol",
        argument_default=argparse.SUPPRESS,
    )
    add_kind(p)
    p.add_argument(
        "--strategy-file",
        dest="strategy_file",
        help="load the strategy from a JSON file instead of a builder flag",
    )
    p.add_argument(
        "--device",
        choices=("honest", "worst-iid"),
        help="source model (default honest)",
    )
    p.add_argument(
        "--epsilon", type=float, help="infidelity of the worst-iid device (default 0.1)"
    )
    p.add_argument("--n", type=int, help="copies per trial (required)")
    p.add_argument("--trials", type=int, help="independent trials (default 10000)")
    p.add_argument("--transcript", help="write per-trial JSON lines to this path")
    p.add_argument(
        "--record-labels",
        dest="record_labels",
        action="store_true",
        help="include drawn setting labels in the transcript",
    )
    add_common(p)

    p = sub.add_parser(
        "landscape",
        help="certify the two qubit optimum by sweep",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--theta", help="target angle (default pi/8)")
    p.add_argument("--resolution", type=int, help="coarse grid size (default 400)")
    p.add_argument(
        "--refine-resolution",
        dest="refine_resolution",
        type=int,
        help="refinement grid size (default 4000)",
    )
    add_common(p)

    p = sub.add_parser(
        "stabilizer",
        help="inspect groups and parity checks",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument(
        "--preset", help="stabilizer preset: bell, ghzN, clusterN, zerosN"
    )
    p.add_argument(
        "--generators", help="comma separated Pauli labels, e.g. +XX,+ZZ"
    )
    p.add_argument(
        "--parity-check",
        dest="parity_check",
        action="store_true",
        help="dump the generator/syndrome pass table",
    )
    p.add_argument(
        "--subset",
        help="comma separated element indices; reports the subset strategy",
    )
    add_common(p)

    return parser


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


def _effective_config(ns: argparse.Namespace, argv) -> RunConfig:
    provided = dict(vars(ns))
    command = provided.pop("command")
    config_path = provided.pop("config", None)
    merged = {**GLOBAL_DEFAULTS, **SUBCOMMAND_DEFAULTS[command]}
    if config_path is not None:
        loaded = _read_json(config_path, "config file")
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        for key, value in loaded.items():
            norm = str(key).replace("-", "_")
            if norm not in merged:
                raise ValidationError(
                    f"unknown config key {key!r} for command {command!r}"
                )
            if norm in _CONFIG_NUMBERS and value is not None:
                try:
                    value = _CONFIG_NUMBERS[norm](value)
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"config key {key!r} needs a number, got {value!r}"
                    ) from None
            merged[norm] = value
    merged.update(provided)
    if merged["format"] not in ("csv", "json"):
        raise ValidationError(f"format {merged['format']!r} must be csv or json")
    if merged["tolerance_profile"] not in ("strict", "default"):
        raise ValidationError(
            f"tolerance profile {merged['tolerance_profile']!r} "
            "must be strict or default"
        )
    params = {k: v for k, v in merged.items() if k not in GLOBAL_DEFAULTS}
    return RunConfig(
        command=command,
        seed=int(merged["seed"]),
        out=merged["out"],
        format=str(merged["format"]),
        tolerance_profile=str(merged["tolerance_profile"]),
        params=params,
        argv=tuple(argv),
    )


def _metadata(cfg: RunConfig) -> tuple[tuple[str, str], ...]:
    return (
        ("tool", f"{PROG} {__version__}"),
        ("command", " ".join((PROG, *cfg.argv))),
        ("seed", str(cfg.seed)),
        ("tolerance-profile", cfg.tolerance_profile),
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    item = getattr(value, "item", None)
    return item() if callable(item) else value


def _render(cfg: RunConfig, doc: dict) -> str:
    meta = _metadata(cfg)
    if cfg.format == "json":
        payload: dict = {"metadata": dict(meta)}
        if "record" in doc:
            payload["result"] = {k: _jsonable(v) for k, v in doc["record"]}
        if "columns" in doc:
            payload["columns"] = list(doc["columns"])
            payload["rows"] = [[_jsonable(v) for v in row] for row in doc["rows"]]
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


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with _open_output(cfg.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strict_verify(cfg: RunConfig, built) -> None:
    """Extra invariant pass under --tolerance-profile strict.

    A failure here means a constructed operator drifted past 1e-11,
    which no supported input should produce; it surfaces as exit 3.
    """
    if cfg.tolerance_profile != "strict":
        return
    omega = built.omega
    psi = built.target.amplitudes
    residual = float(np.linalg.norm(omega @ psi - psi))
    vals = np.linalg.eigvalsh(omega)
    if residual > 1e-11 or vals[0] < -1e-11 or vals[-1] > 1.0 + 1e-11:
        raise RuntimeError(
            f"strict re-verification failed: fixing residual {residual!r}, "
            f"eigenvalue range [{float(vals[0])!r}, {float(vals[-1])!r}]"
        )


def _build_group(params: dict):
    preset = params.get("preset")
    labels = params.get("generators")
    if preset and labels:
        raise ValidationError("--preset and --generators are mutually exclusive")
    if preset:
        return stabilizer.preset_group(str(preset))
    if labels:
        if isinstance(labels, str):
            labels = [part.strip() for part in labels.split(",") if part.strip()]
        return stabilizer.group_from_json(labels)
    raise ValidationError("a stabilizer group needs --preset or --generators")


def _build_strategy(cfg: RunConfig):
    params = cfg.params
    path = params.get("strategy_file")
    if path:
        built = strategy.from_json_dict(_read_json(path, "strategy file"))
        _strict_verify(cfg, built)
        return built
    kind = params.get("kind")
    if kind is None:
        raise ValidationError(
            "choose a strategy: --bell, --two-qubit, --product-zero, "
            "--product-one, --stabilizer-full, or --stabilizer-generators"
        )
    if kind == "bell":
        built = strategy.bell_strategy()
    elif kind == "two-qubit":
        if params.get("theta") is None:
            raise ValidationError("--two-qubit requires --theta")
        built = strategy.two_qubit_optimal(parse_angle(params["theta"]))
    elif kind == "product-zero":
        built = strategy.product_state_strategy("zero")
    elif kind == "product-one":
        built = strategy.product_state_strategy("one")
    elif kind == "stabilizer-full":
        built = stabilizer.full_strategy(_build_group(params))
    elif kind == "stabilizer-generators":
        built = stabilizer.generator_strategy(_build_group(params))
    else:
        raise ValidationError(f"unknown strategy kind {kind!r}")
    _strict_verify(cfg, built)
    return built


def cmd_strategy(cfg: RunConfig) -> dict:
    built = _build_strategy(cfg)
    m = strategy.metrics(built)
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
    epsilon = cfg.params.get("epsilon")
    if epsilon is not None:
        record.append(("epsilon", float(epsilon)))
        record.append(("delta_eps", m.delta_eps(float(epsilon))))
    rows = [(s.label, s.weight, s.locality.value) for s in built.settings]
    return {
        "record": record,
        "columns": ("label", "weight", "locality"),
        "rows": rows,
        "extra_json": {"strategy": strategy.to_json_dict(built)},
    }


def cmd_samplecount(cfg: RunConfig) -> dict:
    params = cfg.params
    epsilon = float(params["epsilon"])
    delta = float(params["delta"])
    kind = params.get("kind")
    if kind in ("stabilizer-full", "stabilizer-generators"):
        group = _build_group(params)
        scheme = "full" if kind == "stabilizer-full" else "generators"
        report = stabilizer.stabilizer_sample_count(group, scheme, epsilon, delta)
    else:
        built = _build_strategy(cfg)
        report = strategy.exact_sample_count(built, epsilon, delta)
    stein = samplecount.chernoff_stein_count(
        samplecount.HypothesisSpec.from_gap(1.0, report.delta_eps), delta
    )
    record = [
        ("method", report.method_label),
        ("epsilon", epsilon),
        ("delta", delta),
        ("q", report.q),
        ("delta_eps", report.delta_eps),
        ("n_exact", report.n_exact),
        ("n_asymptotic", report.n_asymptotic),
        ("regime", stein.method_label),
        ("n_chernoff_stein", stein.n_exact),
    ]
    return {"record": record}


def cmd_figure(cfg: RunConfig) -> dict:
    params = cfg.params
    which = params["which"]
    points = params.get("points")
    if which == "fig1":
        thetas = (
            samplecount.default_theta_grid(int(points)) if points else None
        )
        rows = samplecount.figure1_data(
            float(params["epsilon"]), float(params["delta"]), thetas
        )
        return {
            "columns": samplecount.FIG1_COLUMNS,
            "rows": samplecount.fig1_csv_rows(rows),
        }
    theta = parse_angle(params["theta"])
    if which == "fig2":
        epsilons = np.logspace(-4, -1, int(points)) if points else None
        rows = samplecount.figure2_data(theta, float(params["delta"]), epsilons)
        return {
            "columns": samplecount.FIG2_COLUMNS,
            "rows": samplecount.fig2_csv_rows(rows),
        }
    if which == "figS1":
        rows = adversary.hull_boundary(theta, int(points) if points else 200)
        return {"columns": adversary.HULL_COLUMNS, "rows": rows}
    report = adversary.landscape(theta)
    record = [
        ("theta", report.theta),
        ("argmin_alpha", report.argmin_alpha),
        ("argmin_phi", report.argmin_phi),
        ("min_qmax", report.min_qmax),
    ]
    rows = [
        (r.alpha, r.phi, r.lambda1, r.lambda2, r.qmax) for r in report.rows
    ]
    return {
        "record": record,
        "columns": adversary.LANDSCAPE_COLUMNS,
        "rows": rows,
    }


def cmd_simulate(cfg: RunConfig) -> dict:
    params = cfg.params
    if params.get("n") is None:
        raise ValidationError("simulate requires --n")
    n = int(params["n"])
    trials = int(params["trials"])
    built = _build_strategy(cfg)
    device_name = str(params["device"])
    record = [("device", device_name), ("n", n), ("trials", trials)]
    if device_name == "honest":
        device = protocol.honest_device(built.target)
    elif device_name == "worst-iid":
        epsilon = float(params["epsilon"])
        worst = adversary.worst_case_state(built, epsilon)
        device = protocol.iid_adversary(built.target, worst, epsilon=epsilon)
        record.append(("epsilon", epsilon))
    else:
        raise ValidationError(f"unknown device {device_name!r}")

    transcript_path = params.get("transcript")
    sink = None
    transcript_file = None
    if transcript_path:
        transcript_file = _open_output(transcript_path)

        def sink(entry):
            transcript_file.write(json.dumps(entry) + "\n")

    try:
        stats = protocol.estimate_power(
            built,
            device,
            n=n,
            trials=trials,
            seed=cfg.seed,
            sink=sink,
            record_labels=bool(params.get("record_labels")),
        )
    finally:
        if transcript_file is not None:
            transcript_file.close()
    record += [
        ("accept_rate", stats.accept_rate),
        ("wilson_low", stats.wilson_low),
        ("wilson_high", stats.wilson_high),
        ("predicted_acceptance", protocol.predicted_acceptance(built, device, n)),
    ]
    return {"record": record}


def cmd_landscape(cfg: RunConfig) -> dict:
    params = cfg.params
    theta = parse_angle(params["theta"])
    cert = adversary.certify_optimality(
        theta,
        resolution=int(params["resolution"]),
        refine_resolution=int(params["refine_resolution"]),
    )
    record = [
        ("theta", cert.theta),
        ("resolution", cert.resolution),
        ("q_closed_form", cert.q_closed_form),
        ("q_grid", cert.q_grid),
        ("q_polished", cert.q_polished),
        ("gap", cert.gap),
        ("alpha_closed_form", cert.alpha_closed_form),
        ("alpha_polished", cert.alpha_polished),
        ("phi_closed_form", cert.phi_closed_form),
        ("phi_polished", cert.phi_polished),
        ("ppt_bound", cert.ppt_bound),
        ("sound", cert.sound),
        ("located", cert.located),
        ("passed", cert.passed),
    ]
    return {"record": record}


def cmd_stabilizer(cfg: RunConfig) -> dict:
    params = cfg.params
    group = _build_group(params)
    n = group.num_qubits
    subset = params.get("subset")
    if subset:
        parts = subset.split(",") if isinstance(subset, str) else subset
        try:
            indices = [int(part) for part in parts if str(part).strip()]
        except (TypeError, ValueError):
            raise ValidationError(
                f"--subset needs comma separated integers, got {subset!r}"
            ) from None
        report = stabilizer.subset_strategy(group, indices)
        record = [
            ("num_qubits", n),
            ("indices", " ".join(str(i) for i in indices)),
            ("degenerate", report.degenerate),
            ("stabilized_dimension", report.stabilized_dimension),
            ("q", strategy.metrics(report.strategy).q),
        ]
        extra: dict = {}
        if report.degenerate:
            record.append(("fooling_acceptance", report.fooling_acceptance))
            amps = report.fooling_state.amplitudes
            extra["fooling_state"] = [[float(a.real), float(a.imag)] for a in amps]
        return {"record": record, "extra_json": extra}
    if params.get("parity_check"):
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
    record = [
        ("num_qubits", n),
        ("num_generators", group.num_generators),
        ("num_elements", 1 << group.num_generators),
        ("is_maximal", group.is_maximal),
        ("generators", " ".join(g.label for g in group.generators)),
    ]
    if group.is_maximal:
        record += [
            ("q_full", stabilizer.full_strategy_q(n)),
            ("q_generators", stabilizer.generator_strategy_q(n)),
            ("trace", 2 ** (n - 1)),
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
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _effective_config(ns, argv)
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
