"""qverify benchmark: three workloads against the library and CLI in src/.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Workloads (perfbench/README.md says why each exists):
  cli-cold        mostly fresh `python -m qverify.cli` processes
  protocol-mc     mostly estimate_power blocks in a warm process
  exact-analysis  mostly analysis passes in a warm process

This process uses the standard library only. All qverify work runs in
child processes started one at a time (closed loop, one client), each with
QVERIFY_THREADS=1. Every output is checked. The last stdout line is one
JSON object: end-to-end metrics with --trace 0, per-layer metrics of the
traced run with --trace 1. Exit code 1 means a check failed or a child
process broke; 2 means the checkout holds no qverify sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

sys.dont_write_bytecode = True

from measure import Checks, median, tail  # noqa: E402
from procs import (  # noqa: E402
    COLD_REF_NOMINAL_S,
    OUT_DIR,
    SRC,
    WARM_REF_NOMINAL_S,
    cold_reference_s,
    run_python,
)

WORKLOADS = ("cli-cold", "protocol-mc", "exact-analysis")
PRIMARY = {"protocol-mc": "mc", "exact-analysis": "analysis"}
# set-ups timed per run; setup_s is their median
SETUPS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cli_call_p50_s": "s",
    "cli_call_tail_s": "s",
    "mc_trials_per_s": "trials/s",
    "mc_varying_trials_per_s": "trials/s",
    "mc_transcript_trials_per_s": "trials/s",
    "analysis_pass_s": "s",
}
LAYER_UNITS = {
    "cli.output_bytes": "bytes",
    "protocol.ns_per_copy": "ns",
    "trace.overhead_frac": "fraction",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if "_us" in name:
        return "us"
    return "count"


def cold_import() -> float:
    start = time.perf_counter()
    done = run_python(["-c", "import qverify"])
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"import qverify failed: {done.stderr.decode()[-400:]}")
    return elapsed


def run_worker(seed: int, args: list[str]) -> dict:
    t0 = time.monotonic()
    done = run_python(["perfbench/worker.py", "--seed", str(seed), "--t0", repr(t0), *args])
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args} failed: {done.stderr.decode()[-800:]}")
    return json.loads(lines[-1])


def peak_rss_mib() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def scaled(samples: list[float], refs: list[float], nominal: float, rate: bool = False) -> list[float]:
    """Samples scaled to nominal reference speed, each by the reference timed with it."""
    if rate:
        return [v * r / nominal for v, r in zip(samples, refs, strict=True)]
    return [v * nominal / r for v, r in zip(samples, refs, strict=True)]


def end_to_end(workload: str, seed: int, seconds: float, chk: Checks) -> tuple[dict, dict]:
    mix_args = ["--mix", workload, "--seconds", repr(seconds)]
    setup_refs, setup, results = [], [], []
    for k in range(SETUPS):
        setup_refs.append(cold_reference_s())
        if workload == "cli-cold":
            setup.append(cold_import())
        else:
            results.append(run_worker(seed, mix_args if k == SETUPS - 1 else ["--setup", PRIMARY[workload]]))
            setup.append(results[-1]["setup_s"])
    if workload == "cli-cold":
        results.append(run_worker(seed, mix_args))
    for result in results:
        chk.merge(result["checks"])
    mix = results[-1]
    samples, refs = mix["samples"], mix["refs"]
    calls = scaled(samples["cli.call_s"], refs["cli"], COLD_REF_NOMINAL_S)
    tail_s, tail_pct = tail(calls)
    values = {
        # three set-ups are too few to pair one by one: scale by their median reference
        "setup_s": median(setup) * COLD_REF_NOMINAL_S / median(setup_refs),
        "peak_rss_mib": peak_rss_mib(),
        "cli_call_p50_s": median(calls),
        "cli_call_tail_s": tail_s,
    }
    for name, key in (
        ("mc_trials_per_s", "mc.main"),
        ("mc_varying_trials_per_s", "mc.varying"),
        ("mc_transcript_trials_per_s", "mc.transcript"),
    ):
        values[name] = median(scaled(samples[key], refs["mc"], WARM_REF_NOMINAL_S, rate=True))
    values["analysis_pass_s"] = median(scaled(samples["analysis.pass_s"], refs["analysis"], WARM_REF_NOMINAL_S))
    raw = {
        "setup_s": median(setup),
        "cli_call_p50_s": median(samples["cli.call_s"]),
        "mc_trials_per_s": median(samples["mc.main"]),
        "analysis_pass_s": median(samples["analysis.pass_s"]),
    }
    notes = {
        "rounds": mix["rounds"],
        "setups": len(setup),
        "cli_calls": len(calls),
        "cli_tail_percentile": round(tail_pct, 1),
        "mc_cycles": len(samples["mc.main"]),
        "analysis_passes": len(samples["analysis.pass_s"]),
        "speed_cold": COLD_REF_NOMINAL_S / median(setup_refs + refs["cli"]),
        "speed_warm": WARM_REF_NOMINAL_S / median(refs["mc"] + refs["analysis"]),
        "unscaled": raw,
    }
    return values, {"notes": notes, "env": mix["env"]}


def import_profile() -> dict[str, float]:
    """Seconds by package from `python -X importtime -c "import qverify"`."""
    done = run_python(["-X", "importtime", "-c", "import qverify"])
    if done.returncode != 0:
        raise RuntimeError(f"import qverify failed: {done.stderr.decode()[-400:]}")
    self_us: dict[str, int] = {}
    total_us = 0
    for line in done.stderr.decode().splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        package = name.split(".")[0]
        self_us[package] = self_us.get(package, 0) + int(fields[0])
        if name == "qverify":
            total_us = int(fields[1])
    return {
        "import.total_s": total_us / 1e6,
        "import.scipy_s": self_us.get("scipy", 0) / 1e6,
        "import.numpy_s": self_us.get("numpy", 0) / 1e6,
        "import.qverify_self_s": self_us.get("qverify", 0) / 1e6,
    }


def traced(workload: str, seed: int, chk: Checks) -> tuple[dict, dict]:
    profiles = [import_profile() for _ in range(SETUPS)]
    values = {key: median(p[key] for p in profiles) for key in profiles[0]}
    result = run_worker(seed, ["--layers", workload])
    chk.merge(result["checks"])
    values.update(result["layers"])
    OUT_DIR.mkdir(exist_ok=True)
    trace = {"workload": workload, "seed": seed, "env": result["env"], "layers": values, "spans": result["spans"]}
    (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(trace))
    return values, {"notes": {}, "env": result["env"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qverify" / "__init__.py").is_file():
        print(f"error: no qverify sources under {SRC}", file=sys.stderr)
        return 2

    chk = Checks()
    try:
        if args.trace:
            values, info = traced(args.workload, args.seed, chk)
            units = {name: layer_unit(name) for name in values}
        else:
            values, info = end_to_end(args.workload, args.seed, args.seconds, chk)
            units = END_TO_END_UNITS
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(info["env"], nproc=len(os.sched_getaffinity(0)))
    env.update({name: os.environ.get(name) for name in BLAS_VARS})
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} {json.dumps(info['notes'])}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {chk.failed / max(chk.attempted, 1):.6g} ({chk.failed} of {chk.attempted} operations failed)")
    for name, count in sorted(chk.failures.items()):
        print(f"FAILED {name} x{count}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": chk.failed == 0, "attempted": chk.attempted, "failed": chk.failed, "metrics": metrics}))
    return 0 if chk.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
