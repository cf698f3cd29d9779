"""Warm qverify process of the benchmark.

Started by run.py, one process at a time. It imports qverify from the
checkout's src/, builds its inputs from the workload seed, warms up, runs
and prints one JSON result line on stdout. Set-up time runs from --t0, the
time.monotonic() reading taken by run.py just before starting this
process; on Linux that clock is system-wide.

  --setup KIND     import, inputs and one warm-up operation of KIND, then exit
  --mix WORKLOAD   set-up, then rounds of the workload's operation mix for
                   --seconds (at least two rounds)
  --layers WORKLOAD
                   the traced run: every layer once with spans and
                   numpy.linalg wrapped, plus the workload's own warm body
                   three times untraced and three times traced
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from procs import ROOT, SRC, cold_reference_s

sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qverify  # noqa: E402
from qverify import adversary, cli, protocol, samplecount, stabilizer, strategy  # noqa: E402

import cli_cases  # noqa: E402
from measure import (  # noqa: E402
    Checks,
    binomial_plausible,
    full_q,
    generator_q,
    median,
    two_qubit_q,
)
from spans import NullRecorder, Recorder, wrap_linalg  # noqa: E402

ANGLES = 200
CERT_THETAS = (math.pi / 12, math.pi / 8, math.pi / 5, 3 * math.pi / 8)
GAME_EPSILONS = (0.01, 0.1)
VARYING_EPS = 0.1
VARYING_STATES = 16
REPLAYS_PER_BLOCK = 2
# trials per estimate_power block, by block kind; one cycle of all ten
# blocks takes about a second on one core
TRIALS = {"honest": 2000, "iid": 2000, "varying": 2000, "transcript": 2000}
OVERHEAD_TRIALS = 4000
LONG_N = 2000
LONG_TRIALS = 300

NULL = NullRecorder()
_REF_MATRIX = np.arange(64, dtype=float).reshape(8, 8) % 7.0
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T


def warm_reference_s() -> float:
    """Seconds for a fixed numpy + Python loop that runs no qverify code.

    Small LAPACK calls, Philox draws, sorting and dict work: the same mix
    of interpreter and small-array cost as the warm workloads. The cyclic
    garbage collector is paused, so the time does not depend on how many
    objects the operations before it left on the heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(7))
        acc = 0.0
        for i in range(300):
            acc += float(np.linalg.eigvalsh(_REF_MATRIX)[0])
            acc += float(np.searchsorted(np.sort(rng.random(64)), 0.5))
            acc += sum({j: j * i for j in range(20)}.values())
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Reference timings taken between the timed segments of an operation.

    A warm operation (an MC cycle, an analysis pass) times only its
    segments (blocks, task groups) and calls mark() between them, so its
    reference samples the machine's speed throughout it.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []

    def mark(self) -> None:
        self.refs.append(warm_reference_s())

    def take(self) -> float:
        """Median reference since the last take()."""
        value = median(self.refs)
        self.refs = []
        return value


class NoProbe:
    def mark(self) -> None:
        pass


NO_PROBE = NoProbe()


# ---------------------------------------------------------------- protocol-mc


@dataclass
class Block:
    kind: str
    label: str
    strategy: object
    device: object
    n: int
    predicted: float
    sink: bool = False

    @property
    def trials(self) -> int:
        return TRIALS[self.kind]


def mc_inputs(seed: int, rec, chk: Checks) -> list[Block]:
    rng = np.random.default_rng([seed, 1])
    built = {
        "bell": (strategy.bell_strategy(), 1.0 / 3.0),
        "pi8": (strategy.two_qubit_optimal(math.pi / 8), two_qubit_q(math.pi / 8)),
    }
    blocks = []
    for label, (s, _) in built.items():
        blocks.append(
            Block("honest", f"honest-{label}", s, protocol.honest_device(s.target), 100, 1.0)
        )
    for eps, n in ((0.1, 100), (0.05, 300)):
        for label, (s, q) in built.items():
            with rec.span("adversary.worst_case_state"):
                worst = adversary.worst_case_state(s, eps)
            device = protocol.iid_adversary(s.target, worst, epsilon=eps)
            blocks.append(
                Block("iid", f"iid-{label}-{eps}-{n}", s, device, n, (1.0 - eps * (1.0 - q)) ** n)
            )
    for label, (s, _) in built.items():
        states = [
            adversary.shift_fidelity(
                adversary.hilbert_schmidt_mixed_state(s.dim, rng), s.target, VARYING_EPS
            )
            for _ in range(VARYING_STATES)
        ]
        device = protocol.varying_adversary(
            s.target, lambda i, st=states: st[i % len(st)], epsilon=VARYING_EPS
        )
        omega = sum(setting.weight * setting.projector.entries for setting in s.settings)
        per_state = [float(np.real(np.trace(omega @ st.sigma.entries))) for st in states]
        predicted = math.prod(per_state[i % VARYING_STATES] for i in range(100))
        blocks.append(Block("varying", f"varying-{label}", s, device, 100, predicted))
    for label, (s, q) in built.items():
        with rec.span("adversary.worst_case_state"):
            worst = adversary.worst_case_state(s, 0.1)
        device = protocol.iid_adversary(s.target, worst, epsilon=0.1)
        blocks.append(
            Block("transcript", f"transcript-{label}", s, device, 100, (1.0 - 0.1 * (1.0 - q)) ** 100, sink=True)
        )
    for block in blocks:
        got = protocol.predicted_acceptance(block.strategy, block.device, block.n)
        ok = got == 1.0 if block.kind == "honest" else abs(got - block.predicted) <= 1e-9 * block.predicted
        chk.record(f"mc.predicted.{block.label}", {"closed_form": ok})
    return blocks


def block_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, 2, index]).generate_state(1, np.uint64)[0])


def run_block(block: Block, seed: int, rec, chk: Checks, tally: dict | None = None) -> float:
    """Time one estimate_power block and check its outcome; returns seconds."""
    lines: list[str] = []
    sink = None
    sink_time = [0.0]
    if block.sink:
        clock = time.perf_counter

        def sink(record):
            start = clock()
            lines.append(json.dumps(record))
            sink_time[0] += clock() - start

    with rec.span(f"protocol.estimate_power.{block.kind}"):
        start = time.perf_counter()
        stats = protocol.estimate_power(
            block.strategy, block.device, n=block.n, trials=block.trials,
            seed=seed, sink=sink, record_labels=block.sink,
        )
        elapsed = time.perf_counter() - start
    accepted = round(stats.accept_rate * block.trials)
    if block.kind == "honest":
        checks = {"accept_exactly_one": stats.accept_rate == 1.0}
    else:
        checks = {"binomial": binomial_plausible(accepted, block.trials, block.predicted)}
    if block.sink:
        records = [json.loads(line) for line in lines]
        stops = [r["n"] if r["accepted"] else r["first_failure_index"] + 1 for r in records]
        checks["transcript_trials"] = [r["trial"] for r in records] == list(range(block.trials))
        checks["transcript_accepted"] = sum(r["accepted"] for r in records) == accepted
        checks["labels"] = all(
            len(r["setting_labels_drawn"]) == stop for r, stop in zip(records, stops)
        )
        replay_rng = np.random.default_rng([seed, 3])
        replays = [
            (protocol.run_protocol(block.strategy, block.device, block.n, seed, trial=int(t)), records[int(t)])
            for t in replay_rng.integers(0, block.trials, REPLAYS_PER_BLOCK)
        ]
        checks["replay"] = all(
            run.accepted == r["accepted"] and run.first_failure_index == r["first_failure_index"]
            for run, r in replays
        )
        if tally is not None:
            tally["copies_measured"] += sum(stops)
            tally["sink_s"] += sink_time[0]
    chk.record(f"mc.{block.label}", checks)
    return elapsed


class MonteCarlo:
    """protocol-mc body: one cycle runs one block of each configuration."""

    def __init__(self, seed: int, rec, chk: Checks) -> None:
        self.seed = seed
        self.blocks = mc_inputs(seed, rec, chk)
        self.index = 0
        self.samples: dict[str, list[float]] = {"main": [], "varying": [], "transcript": []}

    def cycle(self, rec, chk: Checks, tally: dict | None = None, probe=NO_PROBE) -> None:
        spent: dict[str, float] = {}
        trials: dict[str, int] = {}
        with rec.span("mc.cycle"):
            for block in self.blocks:
                elapsed = run_block(block, block_seed(self.seed, self.index), rec, chk, tally)
                probe.mark()
                self.index += 1
                spent[block.kind] = spent.get(block.kind, 0.0) + elapsed
                trials[block.kind] = trials.get(block.kind, 0) + block.trials
        main_t = spent["honest"] + spent["iid"]
        self.samples["main"].append((trials["honest"] + trials["iid"]) / main_t)
        self.samples["varying"].append(trials["varying"] / spent["varying"])
        self.samples["transcript"].append(trials["transcript"] / spent["transcript"])


# ---------------------------------------------------------- exact-analysis


def analysis_angles(seed: int) -> list[float]:
    """Angles in (0, pi/2), at least 1e-3 from the special values."""
    rng = np.random.default_rng([seed, 4])
    out = []
    while len(out) < ANGLES:
        theta = float(rng.uniform(0.0, math.pi / 2))
        if min(abs(theta - s) for s in (0.0, math.pi / 4, math.pi / 2)) >= 1e-3:
            out.append(theta)
    return out


def _ket_close(amps: np.ndarray, expected: np.ndarray) -> bool:
    return float(np.max(np.abs(amps - expected))) <= 1e-10


class Analysis:
    """exact-analysis body: one pass over the fixed analysis tasks."""

    def __init__(self, seed: int) -> None:
        self.angles = analysis_angles(seed)
        self.samples: dict[str, list[float]] = {"pass_s": []}

    def run_pass(self, rec, chk: Checks, probe=NO_PROBE) -> None:
        """One pass; its time is the sum of its task groups' times."""
        total = 0.0
        with rec.span("analysis.pass"):
            for group in (
                self._two_qubit, self._bell, self._certify, self._game_values,
                self._dense_stabilizer, self._subsets, self._big_groups, self._figures,
            ):
                start = time.perf_counter()
                group(rec, chk)
                total += time.perf_counter() - start
                probe.mark()
        self.samples["pass_s"].append(total)

    def _two_qubit(self, rec, chk):
        for theta in self.angles:
            with rec.span("strategy.build"):
                built = strategy.two_qubit_optimal(theta)
            rec.add("strategy.settings_built", len(built.settings))
            with rec.span("strategy.metrics"):
                m = strategy.metrics(built)
            chk.record("analysis.two_qubit", {"q_closed_form": abs(m.q - two_qubit_q(theta)) <= 1e-10})

    def _bell(self, rec, chk):
        with rec.span("strategy.build"):
            built = strategy.bell_strategy()
        rec.add("strategy.settings_built", len(built.settings))
        with rec.span("strategy.metrics"):
            m = strategy.metrics(built)
        with rec.span("strategy.exact_sample_count"):
            report = strategy.exact_sample_count(built, 0.01, 0.1)
        chk.record(
            "analysis.bell",
            {"q_one_third": abs(m.q - 1.0 / 3.0) <= 1e-10, "copies_345": report.n_exact == 345},
        )

    def _certify(self, rec, chk):
        for theta in CERT_THETAS:
            with rec.span("adversary.certify_optimality"):
                cert = adversary.certify_optimality(theta)
            chk.record(
                "analysis.certify",
                {
                    "passed": cert.passed,
                    "q_closed_form": abs(cert.q_closed_form - two_qubit_q(theta)) <= 1e-12,
                },
            )

    def _game_values(self, rec, chk):
        cases = []
        with rec.span("strategy.build"):
            cases.append((strategy.bell_strategy(), 1.0 / 3.0))
            cases.append((strategy.two_qubit_optimal(math.pi / 8), two_qubit_q(math.pi / 8)))
        with rec.span("stabilizer.dense_strategy"):
            cases.append((stabilizer.full_strategy(stabilizer.preset_group("ghz3")), full_q(3)))
        rec.add("strategy.settings_built", sum(len(s.settings) for s, _ in cases))
        for built, q in cases:
            for eps in GAME_EPSILONS:
                with rec.span("adversary.game_value"):
                    game = adversary.strategy_game_value(built, eps)
                rec.add("adversary.game_value_evals", game.evaluations)
                chk.record(
                    "analysis.game_value",
                    {"closed_form": abs(game.accept_prob - (1.0 - eps * (1.0 - q))) <= 1e-8},
                )

    def _dense_stabilizer(self, rec, chk):
        for name in ("ghz6", "cluster6"):
            with rec.span("stabilizer.group"):
                group = stabilizer.preset_group(name)
            with rec.span("stabilizer.dense_strategy"):
                full = stabilizer.full_strategy(group)
                gens = stabilizer.generator_strategy(group)
            rec.add("strategy.settings_built", len(full.settings) + len(gens.settings))
            with rec.span("strategy.metrics"):
                m_full = strategy.metrics(full)
                m_gens = strategy.metrics(gens)
            with rec.span("stabilizer.parity_check"):
                check = stabilizer.ParityCheck.build(group)
            target = full.target.amplitudes
            chk.record(
                f"analysis.stabilizer.{name}",
                {
                    "q_full_law": abs(m_full.q - full_q(6)) <= 1e-10,
                    "q_generators_law": abs(m_gens.q - generator_q(6)) <= 1e-10,
                    "special_columns": check.special_columns == (1, 2, 4, 8, 16, 32),
                    "syndrome_zero_is_target": abs(abs(np.vdot(check.eigenbasis[:, 0], target)) - 1.0)
                    <= 1e-10,
                },
            )

    def _subsets(self, rec, chk):
        for name in ("ghz4", "cluster4"):
            with rec.span("stabilizer.group"):
                group = stabilizer.preset_group(name)
            with rec.span("stabilizer.dense_strategy"):
                report = stabilizer.subset_strategy(group, [1, 2, 3])
            rec.add("strategy.settings_built", len(report.strategy.settings))
            chk.record(
                f"analysis.subset.{name}",
                {
                    "degenerate": report.degenerate,
                    "stabilized_dimension": report.stabilized_dimension == 4,
                    "fooling_acceptance": report.fooling_acceptance is not None
                    and report.fooling_acceptance >= 1.0 - 1e-10,
                },
            )

    def _big_groups(self, rec, chk):
        dim = 2**12
        ghz = np.zeros(dim, dtype=complex)
        ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
        for name in ("ghz12", "cluster12"):
            with rec.span("stabilizer.group"):
                group = stabilizer.preset_group(name)
                elements = group.elements
                amps = group.state().amplitudes
            rec.add("stabilizer.elements", len(elements))
            checks = {"elements": len(elements) == dim}
            if name == "ghz12":
                checks["state"] = _ket_close(amps, ghz)
            else:
                checks["state"] = float(np.max(np.abs(np.abs(amps) - 1.0 / 64.0))) <= 1e-10
            chk.record(f"analysis.group.{name}", checks)

    def _figures(self, rec, chk):
        with rec.span("samplecount.figure"):
            fig1 = samplecount.figure1_data(0.01, 0.1)
            fig2 = samplecount.figure2_data(math.pi / 8, 0.1)
        rec.add("samplecount.rows", len(fig1) + len(fig2))
        bell_rows = [r.n_exact for r in fig1 if r.family == "bell"]
        local = [r.n_local for r in fig2]
        chk.record(
            "analysis.figure1",
            {"endpoints_230": fig1[0].n_exact == 230 and fig1[-1].n_exact == 230, "bell_345": bell_rows == [345]},
        )
        chk.record(
            "analysis.figure2",
            {
                "n_local_monotone": all(a >= b for a, b in zip(local, local[1:])),
                "local_above_global": all(r.n_local >= r.n_global for r in fig2),
            },
        )


# ------------------------------------------------------------ in-process CLI


class InProcessCli:
    """qverify.cli.main over the cli-cold list, in this warm process."""

    def __init__(self, seed: int) -> None:
        self.cases = cli_cases.cases(seed)
        (ROOT / cli_cases.OUT_DIR).mkdir(parents=True, exist_ok=True)
        self.samples: dict[str, list[float]] = {"call_s": []}
        self.output_bytes = 0

    def run_round(self, rec, chk: Checks) -> None:
        total = 0
        with rec.span("cli.round"):
            for case in self.cases:
                out, err = io.StringIO(), io.StringIO()
                with rec.span("cli.main"):
                    call_start = time.perf_counter()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(list(case.argv))
                    self.samples["call_s"].append(time.perf_counter() - call_start)
                files = cli_cases.read_outputs(case)
                text = out.getvalue()
                total += len(text.encode()) + sum(len(b) for b in files.values())
                checks = {"exit_code": code == 0}
                checks.update(cli_cases.check_output(case, text, files))
                chk.record(f"cli.{case.name}", checks)
        self.output_bytes = total


# ---------------------------------------------------------------------- main

PRIMARY = {"cli-cold": "cli", "protocol-mc": "mc", "exact-analysis": "analysis"}
# The warm workloads' CLI side probe repeats one call of their own domain,
# so its few samples per run are alike; cli-cold cycles through the list.
CLI_PROBE = {"protocol-mc": "simulate-transcript", "exact-analysis": "landscape"}
# One round of each workload's mix. Every workload runs every operation
# kind, so every end-to-end metric exists on every workload, and the kinds
# are interleaved so that drifts in machine speed during a run reach them
# alike. The workload's own kind takes most of the round.
ROUNDS = {
    "cli-cold": ("cli", "cli", "cli", "mc", "cli", "cli", "cli", "analysis"),
    "protocol-mc": ("mc", "mc", "analysis", "mc", "mc", "cli"),
    "exact-analysis": ("analysis", "analysis", "mc", "analysis", "cli"),
}
MIN_ROUNDS = 2


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qverify_threads": os.environ.get("QVERIFY_THREADS"),
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def make_body(kind: str, seed: int, chk: Checks, cli_case: str | None = None):
    """(body, step) for one operation kind; step(rec, chk) runs one operation."""
    if kind == "mc":
        body = MonteCarlo(seed, NULL, chk)
        return body, body.cycle
    if kind == "analysis":
        body = Analysis(seed)
        return body, body.run_pass
    body = cli_cases.ColdCli(seed, cli_case)
    return body, lambda rec, chk: body.call(chk)


def setup_mode(kind: str, seed: int, t0: float) -> dict:
    """Import, input generation and one warm-up operation, then stop."""
    chk = Checks()
    _, step = make_body(kind, seed, chk)
    step(NULL, chk)
    return {"setup_s": time.monotonic() - t0, "checks": chk.as_dict()}


def mix_mode(workload: str, seed: int, seconds: float, t0: float) -> dict:
    chk = Checks()
    order = [PRIMARY[workload]] + [k for k in ("mc", "analysis", "cli") if k != PRIMARY[workload]]
    bodies, steps = {}, {}
    setup_s = None
    for kind in order:
        bodies[kind], steps[kind] = make_body(kind, seed, chk, CLI_PROBE.get(workload))
        if kind != "cli":
            steps[kind](NULL, chk)
        if setup_s is None:
            setup_s = time.monotonic() - t0
    for kind in ("mc", "analysis"):
        for values in bodies[kind].samples.values():
            values.clear()
    refs = {"mc": [], "analysis": [], "cli": []}
    probe = SpeedProbe()
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for kind in ROUNDS[workload]:
            if kind == "cli":
                refs["cli"].append(cold_reference_s())
                bodies["cli"].call(chk)
            else:
                steps[kind](NULL, chk, probe=probe)
                refs[kind].append(probe.take())
        rounds += 1
    samples = {"cli.call_s": bodies["cli"].call_s, "analysis.pass_s": bodies["analysis"].samples["pass_s"]}
    samples.update({f"mc.{k}": v for k, v in bodies["mc"].samples.items()})
    return {"setup_s": setup_s, "rounds": rounds, "samples": samples, "refs": refs, "checks": chk.as_dict()}


def layers_mode(seed: int, workload: str) -> dict:
    """The traced run: every layer body traced once, the workload's own
    warm body three times untraced and three times traced."""
    chk = Checks()
    setup_rec = Recorder()
    cold = cli_cases.ColdCli(seed)
    cold_rec = Recorder()
    with cold_rec.span("cli.cold_round"):
        for _ in cold.cases:
            with cold_rec.span("cli.cold_call"):
                cold.call(chk)
    bodies = {"cli": InProcessCli(seed), "analysis": Analysis(seed), "mc": MonteCarlo(seed, setup_rec, chk)}
    steps = {"cli": bodies["cli"].run_round, "analysis": bodies["analysis"].run_pass, "mc": bodies["mc"].cycle}
    for step in steps.values():
        step(NULL, chk)

    recorders = {}
    tallies = {"copies_measured": 0, "sink_s": 0.0}
    timed = {"untraced": [], "traced": []}
    own = PRIMARY[workload]
    def untraced(kind):
        start = time.perf_counter()
        steps[kind](NULL, chk)
        timed["untraced"].append(time.perf_counter() - start)

    for kind, step in steps.items():
        for rep in range(3 if kind == own else 1):
            # the untraced run goes first, then last, then first again
            if kind == own and rep != 1:
                untraced(kind)
            rec = Recorder()
            start = time.perf_counter()
            with wrap_linalg(rec):
                if kind == "mc":
                    bodies["mc"].cycle(rec, chk, tallies if rep == 0 else None)
                else:
                    step(rec, chk)
            if kind == own:
                timed["traced"].append(time.perf_counter() - start)
                if rep == 1:
                    untraced(kind)
            recorders.setdefault(kind, rec)

    mc_body = bodies["mc"]
    mc_rec = recorders["mc"]
    honest = mc_body.blocks[0]
    for n, trials in ((1, OVERHEAD_TRIALS), (LONG_N, LONG_TRIALS)):
        with mc_rec.span(f"protocol.estimate_power.honest-n{n}"):
            protocol.estimate_power(honest.strategy, honest.device, n=n, trials=trials, seed=seed)
    for block in mc_body.blocks:
        with mc_rec.span("protocol.plan"):
            protocol.predicted_acceptance(block.strategy, block.device, block.n)

    metrics = layer_metrics(recorders, setup_rec, mc_body, bodies["cli"], tallies)
    metrics["cli.cold_overhead_s"] = median(cold.call_s) - median(bodies["cli"].samples["call_s"])
    metrics["trace.overhead_frac"] = median(timed["traced"]) / median(timed["untraced"]) - 1.0
    spans = {kind: rec.dump() for kind, rec in recorders.items()}
    spans["mc-setup"] = setup_rec.dump()
    spans["cli-cold"] = cold_rec.dump()
    return {"layers": metrics, "spans": spans, "checks": chk.as_dict()}


def layer_metrics(recorders, setup_rec, mc_body, cli_body, tallies) -> dict:
    analysis = recorders["analysis"]
    a_tot = analysis.totals()
    m_tot = recorders["mc"].totals()

    def total(totals, name):
        return totals.get(name, {}).get("total_s", 0.0)

    def per_trial_us(name, trials):
        return 1e6 * total(m_tot, name) / trials

    overhead_us = per_trial_us("protocol.estimate_power.honest-n1", OVERHEAD_TRIALS)
    long_us = per_trial_us(f"protocol.estimate_power.honest-n{LONG_N}", LONG_TRIALS)
    out = {
        "cli.main_warm_s": total(recorders["cli"].totals(), "cli.round"),
        "cli.output_bytes": cli_body.output_bytes,
        "qcore.eigensolves": analysis.counters["qcore.eigensolves"],
        "qcore.eigensolve_s": analysis.counters["qcore.eigensolve_s"],
        "qcore.qr_calls": analysis.counters["qcore.qr_calls"],
        "strategy.build_s": total(a_tot, "strategy.build"),
        "strategy.settings_built": analysis.counters["strategy.settings_built"],
        "strategy.metrics_s": total(a_tot, "strategy.metrics"),
        "strategy.sample_count_s": total(a_tot, "strategy.exact_sample_count"),
        "samplecount.figure_s": total(a_tot, "samplecount.figure"),
        "samplecount.rows": analysis.counters["samplecount.rows"],
        "stabilizer.group_s": total(a_tot, "stabilizer.group"),
        "stabilizer.elements": analysis.counters["stabilizer.elements"],
        "stabilizer.dense_strategy_s": total(a_tot, "stabilizer.dense_strategy"),
        "stabilizer.parity_check_s": total(a_tot, "stabilizer.parity_check"),
        "adversary.certify_s": total(a_tot, "adversary.certify_optimality"),
        "adversary.game_value_s": total(a_tot, "adversary.game_value"),
        "adversary.game_value_evals": analysis.counters["adversary.game_value_evals"],
        "adversary.worst_case_s": total(setup_rec.totals(), "adversary.worst_case_state"),
        "protocol.trial_overhead_us": overhead_us,
        "protocol.ns_per_copy": 1e3 * (long_us - overhead_us) / (LONG_N - 1),
        "protocol.copies_measured": tallies["copies_measured"],
        "protocol.plan_s": total(m_tot, "protocol.plan"),
        "protocol.sink_s": tallies["sink_s"],
    }
    for kind in ("honest", "iid", "varying", "transcript"):
        trials = sum(b.trials for b in mc_body.blocks if b.kind == kind)
        out[f"protocol.trial_us.{kind}"] = per_trial_us(f"protocol.estimate_power.{kind}", trials)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, help="time.monotonic() when the parent started this process")
    parser.add_argument("--seconds", type=float, default=0.0)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup", choices=("mc", "analysis"))
    mode.add_argument("--mix", choices=sorted(PRIMARY))
    mode.add_argument("--layers", choices=sorted(PRIMARY))
    args = parser.parse_args()
    if not Path(qverify.__file__).resolve().is_relative_to(SRC):
        print(f"qverify imported from {qverify.__file__}, not this checkout", file=sys.stderr)
        return 2
    t0 = time.monotonic() if args.t0 is None else args.t0
    if args.setup:
        result = setup_mode(args.setup, args.seed, t0)
    elif args.mix:
        result = mix_mode(args.mix, args.seed, args.seconds, t0)
    else:
        result = layers_mode(args.seed, args.layers)
    result["env"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
