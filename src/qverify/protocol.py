"""Monte Carlo simulation of the sequential accept/reject protocol.

One copy at a time, the verifier draws a measurement setting j with
probability mu_j, applies its binary test to the copy the device
supplied, and rejects the whole run at the first failed test. For a
device emitting sigma_i on copy i the acceptance probability is the
product of tr(Omega sigma_i); for the worst eps-far IID device this is
(1 - delta_eps)^n, the quantity the copy counts are calibrated
against.

Devices: a DeviceModel is either one fixed state handed over on every
copy (the honest device emits the target, an IID adversary one sigma)
or a per-copy supplier (a varying adversary). Every state, fixed or
supplied, is read by qcore._state and, when epsilon is given, held to
the promise fidelity <= 1 - epsilon: a frozen state object once per
plan, with its density verdict solved once per operator, and a raw array
on every copy.

Reproducibility: trial t of a run with seed s reads the Philox4x64-10
stream with key (s mod 2^64, t mod 2^64) and counter 0, that is the
doubles of Generator(Philox(key=[s, t])).random(2n). Copy i's setting is
the number of cumulative weights <= double 2i, the last set to exactly 1
(a guide table, _picker, computes it); copy i fails when double 2i + 1 >=
that setting's clamped pass probability. The sampler draws in chunks
that start at even copies: a chunk from copy c begins block c/2 of four
doubles, so setting the counter to c/2 resumes the stream where one
uninterrupted draw would be. Chunking, batching across trials and early
rejection cannot shift any copy's draws: results are bit identical per
(seed, trial). The sampler keeps one Philox state dict of plain Python
ints and rewrites its key per trial, because the state setter converts
Python ints far faster than numpy scalars.

Arguments: n, trials, seed and trial are Python or numpy integers, not
bool, and every other argument has its documented type; anything else
raises ValidationError before any sampling.

Pass probabilities: each strategy type gives its own rows
(pass_probabilities); a PauliStrategy's, (1 + Re <P_m>)/2, build no
2^N x 2^N array for a pure device state up to MAX_QUBITS.

Exactness at the edges: pass probabilities within qcore.TOL_DERIVED of
0 or 1 are clamped to exactly 0 or 1 before sampling. An honest device
therefore never fails a strategy that fixes its target, no matter how
many copies are measured; floating point noise in the projectors cannot
produce spurious rejections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .adversary import AdversaryState
from .errors import ValidationError
from .qcore import TOL_DERIVED, TOL_INPUT, HermitianOperator, Ket, _integer, _ket, _real, _state
from .samplecount import check_probability
from .strategy import Strategy, _strategy

if TYPE_CHECKING:  # annotations only: a dense caller loads no stabilizer module
    from .stabilizer import PauliStrategy

WILSON_Z99 = 2.5758293035489004
_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 16
_FIRST_CHUNK = 32  # even, so every chunk starts at an even copy


@dataclass(frozen=True, eq=False)
class DeviceModel:
    """What the device hands over on each copy.

    A device is one fixed state or a per-copy supplier, never both:
    sigma is the state of every copy (a Ket, or a mixed one's checked
    HermitianOperator), and supplier(copy_index) gives copy copy_index's
    state, read as it is drawn, so runs replay exactly. When epsilon in
    (0, 1) is given, every state must keep the promise fidelity <= 1 -
    epsilon; without it no promise is checked.
    """

    target: Ket
    sigma: Ket | HermitianOperator | None = None
    supplier: Callable[[int], object] | None = None
    epsilon: float | None = None

    def __post_init__(self):
        _ket("device target", self.target)
        if (self.sigma is None) == (self.supplier is None):
            raise ValidationError("a device needs exactly one of sigma and supplier")
        if self.supplier is not None and not callable(self.supplier):
            raise ValidationError("a device supplier must be callable")
        if self.epsilon is not None:
            check_probability("epsilon", self.epsilon)
        if self.sigma is not None:
            object.__setattr__(self, "sigma", self._read(self.sigma, "device state"))

    def _read(self, obj, where: str) -> Ket | HermitianOperator:
        """obj, or an AdversaryState's state, read by _state and held to the promise."""
        state = obj.state if isinstance(obj, AdversaryState) else obj
        state = _state(where, state, self.target.dim)
        if self.epsilon is None:
            return state
        pure = isinstance(state, Ket)
        fid = state.fidelity(self.target) if pure else state.expectation(self.target)
        if fid > 1.0 - self.epsilon + TOL_INPUT:
            raise ValidationError(
                f"{where} has fidelity {fid!r} above the promised 1 - epsilon"
            )
        return state


def honest_device(target: Ket) -> DeviceModel:
    return DeviceModel(target=target, sigma=target)


def iid_adversary(target: Ket, state, epsilon: float | None = None) -> DeviceModel:
    return DeviceModel(target=target, sigma=state, epsilon=epsilon)


def varying_adversary(
    target: Ket, supplier: Callable[[int], object], epsilon: float | None = None
) -> DeviceModel:
    return DeviceModel(target=target, supplier=supplier, epsilon=epsilon)


@dataclass(frozen=True)
class RunResult:
    """One protocol run: n_copies measured unless rejected earlier, at
    first_failure_index; accepted means no copy failed."""

    n_copies: int
    first_failure_index: int | None
    rng_seed: int

    def __post_init__(self):
        if self.first_failure_index is not None and not (
            0 <= _integer("first_failure_index", self.first_failure_index)
            < _integer("n_copies", self.n_copies)
        ):
            raise ValidationError("failure index outside [0, n_copies)")

    @property
    def accepted(self) -> bool:
        return self.first_failure_index is None


@dataclass(frozen=True)
class EnsembleStats:
    """Acceptance frequency over independent trials with a 99% interval,
    and the run plan's predicted_acceptance (None when not given)."""

    trials: int
    accept_rate: float
    wilson_low: float
    wilson_high: float
    predicted_acceptance: float | None = None

    def __post_init__(self):
        _integer("trials", self.trials)
        low, high = _real("wilson_low", self.wilson_low), _real("wilson_high", self.wilson_high)
        if not low - TOL_INPUT <= _real("accept_rate", self.accept_rate) <= high + TOL_INPUT:
            raise ValidationError("accept rate escapes its Wilson interval")


def wilson_interval(
    successes: int, trials: int, z: float = WILSON_Z99
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    successes, trials = _integer("successes", successes), _integer("trials", trials)
    z = _real("z", z)
    if not 0.0 < z < math.inf:
        raise ValidationError(f"z must be finite and positive, got {z!r}")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ValidationError("successes outside [0, trials]")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    # at the endpoints the interval reaches 0 or 1 exactly; evaluate
    # there directly so rounding cannot exclude the point estimate
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _clamp_certainties(probs: np.ndarray) -> np.ndarray:
    out = np.array(probs, dtype=float)
    out[np.abs(out - 1.0) <= TOL_DERIVED] = 1.0
    out[np.abs(out) <= TOL_DERIVED] = 0.0
    if np.any(out < 0.0) or np.any(out > 1.0):
        raise ValidationError("pass probability outside [0, 1]")
    return out


@dataclass(frozen=True, eq=False)
class _Plan:
    """Precomputed sampling tables shared by all trials of a run."""

    cumulative: np.ndarray
    weights: np.ndarray
    probs: np.ndarray
    labels: tuple[str, ...]
    pick: Callable[[np.ndarray], np.ndarray]  # setting index of each choice double


def _picker(cumulative: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """searchsorted(cumulative, u, side="right") of doubles u in [0, 1)
    by Devroye's guide table (1986, III.2.4) over G buckets, a power of
    two >= 4k for k settings. guide[b] counts the weights <= b/G. G is a
    power of two, so u*G truncates exactly to u's bucket; at most
    lookahead weights lie strictly inside one bucket, and cumulative[-1]
    = 1 > u, so stepping past the next weights <= u is exact, ties too:
    by binary lifting, steps of 2^j down to 1 covering the lookahead.
    """
    size = min(1 << 16, 1 << max(2, (4 * cumulative.size - 1).bit_length()))
    scaled = cumulative * size  # exact: size is a power of two
    edges = np.ceil(scaled).astype(np.intp)
    inside = np.floor(scaled[scaled != edges]).astype(np.intp)
    guide = np.cumsum(np.bincount(edges))[:size]
    lookahead = int(np.bincount(inside, minlength=1).max())
    lifts, last = [1 << j for j in range(lookahead.bit_length() - 1, 0, -1)], cumulative.size - 1

    def pick(u: np.ndarray) -> np.ndarray:
        picks = guide.take((u * size).astype(np.intp))
        for step in lifts:
            picks += step * (u >= cumulative.take(np.minimum(picks + step - 1, last)))
        if lookahead:
            picks += u >= cumulative.take(picks)
        return picks

    return pick


def _build_plan(strategy: Strategy | PauliStrategy, device: DeviceModel, n: int) -> _Plan:
    _strategy(strategy)
    if not isinstance(device, DeviceModel):
        raise ValidationError(f"device must be a DeviceModel, got {device!r}")
    if n < 1:
        raise ValidationError("n must be at least 1")
    if device.target.dim != strategy.dim:
        raise ValidationError("device target and strategy dimensions differ")
    if float(np.max(np.abs(device.target.amplitudes - strategy.target.amplitudes))) > 0:
        raise ValidationError("device target differs from strategy target")
    weights = np.array([s.weight for s in strategy.settings], dtype=float)
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    # pass probabilities by copy and setting; one row serves every copy
    # of a fixed-state device
    if device.sigma is not None:
        rows, which = [strategy.pass_probabilities(device.sigma)], [0]
    else:
        rows, which = _supplied_rows(device, n, strategy.pass_probabilities)
    return _Plan(
        cumulative=cum,
        weights=weights,
        probs=_clamp_certainties(rows)[which],
        labels=tuple(s.label for s in strategy.settings),
        pick=_picker(cum),
    )


def _supplied_rows(device: DeviceModel, n: int, row) -> tuple[list, list[int]]:
    """(distinct rows, row index of each copy) of a supplier device's plan.

    A frozen state (AdversaryState, HermitianOperator, Ket) is checked
    and turned into a row once, at its first copy: it is keyed by
    identity and kept referenced while the plan is built, so no other
    object takes over its id. An ndarray may change between copies, so
    it is checked and read on every copy.
    """
    rows, which, seen = [], [], {}
    for i in range(n):
        obj = device.supplier(i)
        hit = seen.get(id(obj))
        if hit is not None:
            which.append(hit[1])
            continue
        which.append(len(rows))
        rows.append(row(device._read(obj, f"supplied state for copy {i}")))
        if isinstance(obj, (AdversaryState, HermitianOperator, Ket)):
            seen[id(obj)] = obj, which[-1]
    return rows, which


def _first_failures(
    plan: _Plan, n: int, seed: int, trials: np.ndarray, record: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """First failing copy of each trial (n when all n pass) and, when
    record is set, a (trials, n) table of drawn setting indices, filled
    through each trial's stop.

    Follows the stream contract in the module docstring; seed is already
    reduced mod 2^64. The first chunk is _FIRST_CHUNK (32) copies and
    chunks double after that; only trials that have not failed draw the
    next one, at most _CHUNK trial-copy cells at a time.
    """
    stops = np.full(trials.size, n, dtype=np.int64)
    drawn = np.empty((trials.size, n), dtype=np.intp) if record else None
    if not record and np.all(plan.probs == 1.0):
        return stops, drawn  # random() < 1, so no copy can fail
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # fresh, so its buffer is empty; ints from here on
    key, counter = [seed, 0], [0, 0, 0, 0]
    state.update(state={"counter": counter, "key": key}, buffer=[0, 0, 0, 0])
    live = np.arange(trials.size)
    buffer = np.empty(2 * min(_CHUNK, trials.size * min(n, _CHUNK)))  # largest batch
    start, width = 0, _FIRST_CHUNK
    while start < n and live.size:
        width = min(width, _CHUNK, n - start)
        counter[0] = start // 2
        rows_per_batch = max(1, _CHUNK // width)
        for lo in range(0, live.size, rows_per_batch):
            rows = live[lo : lo + rows_per_batch]
            u = buffer[: rows.size * 2 * width].reshape(rows.size, 2 * width)
            for row, t in zip(u, trials[rows].tolist()):
                key[1] = t
                bitgen.state = state
                gen.random(out=row)
            picks = plan.pick(u[:, 0::2])
            # copy i reads row i of a per-copy plan, row 0 of a one-row plan
            offsets = np.arange(start, start + width) % len(plan.probs) * plan.weights.size
            fails = u[:, 1::2] >= plan.probs.take(picks + offsets)
            first = fails.argmax(axis=1)
            hit = fails[np.arange(rows.size), first]
            stops[rows[hit]] = start + first[hit]
            if record:
                drawn[rows, start : start + width] = picks
        live = live[stops[live] == n]
        start, width = start + width, 2 * width
    return stops, drawn


def run_protocol(
    strategy: Strategy | PauliStrategy, device: DeviceModel, n: int, seed: int, trial: int = 0
) -> RunResult:
    """Simulate one sequential run of n copies, stopping at first failure."""
    n, seed = _integer("n", n), _integer("seed", seed) & _MASK64
    trials = np.array([_integer("trial", trial) & _MASK64], dtype=np.uint64)
    plan = _build_plan(strategy, device, n)
    stop = int(_first_failures(plan, n, seed, trials)[0][0])
    return RunResult(
        n_copies=n,
        first_failure_index=None if stop == n else stop,
        rng_seed=seed,
    )


def estimate_power(
    strategy: Strategy | PauliStrategy,
    device: DeviceModel,
    n: int,
    trials: int,
    seed: int,
    sink: Callable[[dict], None] | None = None,
    record_labels: bool = False,
) -> EnsembleStats:
    """Acceptance frequency over independent trials.

    Each trial t replays run_protocol(..., trial=t) exactly. When sink
    is given it receives one JSON ready dict per trial, keyed trial, n,
    accepted, first_failure_index (None if accepted) and, on request as
    they dominate transcript size, setting_labels_drawn; the CLI formats
    these records itself, so their key order is part of the contract.
    The result carries predicted_acceptance of the same plan.
    """
    n, trials = _integer("n", n), _integer("trials", trials)
    seed = _integer("seed", seed) & _MASK64
    if sink is not None and not callable(sink):
        raise ValidationError("sink must be callable")
    if not isinstance(record_labels, (bool, np.bool_)):
        raise ValidationError(f"record_labels must be a bool, got {record_labels!r}")
    plan = _build_plan(strategy, device, n)
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    record = sink is not None and record_labels
    labels = np.array(plan.labels, dtype=object)
    # trials go in blocks, so memory stays bounded; drawn labels wait
    # for their records, so a recording block holds at most _CHUNK copies
    step = max(1, _CHUNK // n) if record else _CHUNK
    accepted_count = 0
    for first in range(0, trials, step):
        block = np.arange(first, min(first + step, trials), dtype=np.uint64)
        stops, drawn = _first_failures(plan, n, seed, block, record)
        accepted_count += int(np.count_nonzero(stops == n))
        if sink is None:
            continue
        for i, stop in enumerate(stops.tolist()):
            entry = {
                "trial": first + i,
                "n": n,
                "accepted": stop == n,
                "first_failure_index": None if stop == n else stop,
            }
            if record:
                entry["setting_labels_drawn"] = labels[drawn[i, : stop + 1]].tolist()
            sink(entry)
    low, high = wilson_interval(accepted_count, trials)
    return EnsembleStats(
        trials=trials,
        accept_rate=accepted_count / trials,
        wilson_low=low,
        wilson_high=high,
        predicted_acceptance=_predicted(plan, n),
    )


def predicted_acceptance(
    strategy: Strategy | PauliStrategy, device: DeviceModel, n: int
) -> float:
    """Closed form product of per copy acceptances tr(Omega sigma_i).

    Uses the same clamped tables as the sampler, so an honest device
    predicts exactly 1 and the worst case IID adversary predicts
    exactly (1 - delta_eps)^n.
    """
    n = _integer("n", n)
    return _predicted(_build_plan(strategy, device, n), n)


def _predicted(plan: _Plan, n: int) -> float:
    """The product over n copies of plan's per copy acceptances."""
    # the sampler forces its cumulative table to end at 1, so weight
    # rounding cannot push a certain accept below (or above) certainty;
    # clamp the aggregate the same way
    per_copy = _clamp_certainties(plan.probs @ plan.weights)
    # a fixed-state plan has one row, which stands for all n copies
    return float(np.prod(per_copy)) ** (n // len(per_copy))
