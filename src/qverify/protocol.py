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
or a per-copy supplier (a varying adversary). Its one constructor
checks epsilon, the fixed state's density and, when epsilon is given,
the promise fidelity <= 1 - epsilon; a supplier's states get the same
checks as the plan reads them, once per plan for a frozen state object
and on every copy for a raw array.

Reproducibility: trial t of a run with seed s reads the Philox4x64-10
stream with key (s mod 2^64, t mod 2^64) and counter 0, that is the
doubles of Generator(Philox(key=[s, t])).random(2n). Copy i uses
doubles 2i (setting choice) and 2i + 1 (outcome). The sampler draws in
chunks that start at even copies: a chunk from copy c begins block c/2
of four doubles, so setting the counter to c/2 resumes the stream where
one uninterrupted draw would be. Chunking, batching across trials and
early rejection cannot shift any copy's draws: results are bit
identical per (seed, trial).

Stabilizer strategies: a PauliStrategy's pass probabilities are
(1 + Re tr(sigma P_m))/2, read from sigma's entries at each element's
permutation of the basis, with no projector built; its plan, like every
dense density, is limited to stabilizer.MAX_DENSE_QUBITS.

Exactness at the edges: pass probabilities within 1e-10 of 0 or 1 are
clamped to exactly 0 or 1 before sampling. An honest device therefore
never fails a strategy that fixes its target, no matter how many
copies are measured; floating point noise in the projectors cannot
produce spurious rejections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adversary import AdversaryState
from .errors import ValidationError
from .qcore import TOL_INPUT, HermitianOperator, Ket, check_density
from .samplecount import check_probability
from .stabilizer import PauliStrategy
from .strategy import Strategy

CERTAINTY_TOL = 1e-10
WILSON_Z99 = 2.5758293035489004
_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 16


def _as_density(obj, dim: int) -> np.ndarray:
    if isinstance(obj, AdversaryState):
        arr = obj.sigma.entries
        if arr.shape[0] != dim:
            raise ValidationError("device state dimension mismatch")
        return arr
    if isinstance(obj, Ket):
        obj = obj.density()
    if isinstance(obj, HermitianOperator):
        arr = obj.entries
    else:
        arr = HermitianOperator(np.asarray(obj, dtype=complex)).entries
    if arr.shape[0] != dim:
        raise ValidationError("device state dimension mismatch")
    check_density(arr, "device state")
    return arr


@dataclass(frozen=True, eq=False)
class DeviceModel:
    """What the device hands over on each copy.

    A device is one fixed state or a per-copy supplier, never both:
    sigma is the state of every copy (stored as a checked density
    matrix), and supplier(copy_index) deterministically gives copy
    copy_index's state, checked as it is read, so runs replay exactly.
    When epsilon in (0, 1) is given, every state must keep the promise
    fidelity <= 1 - epsilon; without it no promise is checked.
    """

    target: Ket
    sigma: np.ndarray | None = None
    supplier: Callable[[int], object] | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if (self.sigma is None) == (self.supplier is None):
            raise ValidationError("a device needs exactly one of sigma and supplier")
        if self.epsilon is not None:
            check_probability("epsilon", self.epsilon)
        if self.sigma is not None:
            arr = _as_density(self.sigma, self.target.dim)
            self._check_promise(arr, "device state")
            object.__setattr__(self, "sigma", arr)

    def _check_promise(self, arr: np.ndarray, where: str) -> None:
        if self.epsilon is None:
            return
        psi = self.target.amplitudes
        fid = float(np.real(np.vdot(psi, arr @ psi)))
        if fid > 1.0 - self.epsilon + TOL_INPUT:
            raise ValidationError(
                f"{where} has fidelity {fid!r} above the promised 1 - epsilon"
            )

    def _supplied_density(self, obj, copy_index: int) -> np.ndarray:
        arr = _as_density(obj, self.target.dim)
        self._check_promise(arr, f"supplied state for copy {copy_index}")
        return arr


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
    """One protocol run: n_copies measured unless rejected earlier."""

    n_copies: int
    accepted: bool
    first_failure_index: int | None
    rng_seed: int

    def __post_init__(self):
        if self.accepted != (self.first_failure_index is None):
            raise ValidationError("accepted must mean no failure index")
        if self.first_failure_index is not None and not (
            0 <= self.first_failure_index < self.n_copies
        ):
            raise ValidationError("failure index outside [0, n_copies)")


@dataclass(frozen=True)
class EnsembleStats:
    """Acceptance frequency over independent trials with a 99% interval."""

    trials: int
    accept_rate: float
    wilson_low: float
    wilson_high: float

    def __post_init__(self):
        low, high = self.wilson_low - TOL_INPUT, self.wilson_high + TOL_INPUT
        if not low <= self.accept_rate <= high:
            raise ValidationError("accept rate escapes its Wilson interval")


def wilson_interval(
    successes: int, trials: int, z: float = WILSON_Z99
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
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
    out[np.abs(out - 1.0) <= CERTAINTY_TOL] = 1.0
    out[np.abs(out) <= CERTAINTY_TOL] = 0.0
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


def _build_plan(strategy: Strategy | PauliStrategy, device: DeviceModel, n: int) -> _Plan:
    if n < 1:
        raise ValidationError("n must be at least 1")
    if device.target.dim != strategy.dim:
        raise ValidationError("device target and strategy dimensions differ")
    if float(np.max(np.abs(device.target.amplitudes - strategy.target.amplitudes))) > 0:
        raise ValidationError("device target differs from strategy target")
    weights = np.array([s.weight for s in strategy.settings], dtype=float)
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    if isinstance(strategy, PauliStrategy):
        strategy.check_dense("the protocol plan")
        row = strategy.pass_probabilities
    else:
        stack = np.stack([s.projector.entries for s in strategy.settings])

        def row(arr):
            return np.einsum("kij,ji->k", stack, arr)

    # pass probabilities by copy and setting; one row serves every copy
    # of a fixed-state device
    if device.sigma is not None:
        rows, which = [row(device.sigma)], [0]
    else:
        rows, which = _supplied_rows(device, n, row)
    return _Plan(
        cumulative=cum,
        weights=weights,
        probs=_clamp_certainties(np.real(rows))[which],
        labels=tuple(s.label for s in strategy.settings),
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
        rows.append(row(device._supplied_density(obj, i)))
        if isinstance(obj, (AdversaryState, HermitianOperator, Ket)):
            seen[id(obj)] = obj, which[-1]
    return rows, which


def _first_failures(
    plan: _Plan, n: int, seed: int, trials: np.ndarray, record: bool = False
) -> tuple[np.ndarray, list | None]:
    """First failing copy of each trial (n when all n pass) and, when
    record is set, each trial's drawn setting indices in chunks.

    Follows the stream contract in the module docstring. The first chunk
    is 16 copies and chunks double after that; only trials that have not
    failed draw the next one, at most _CHUNK trial-copy cells at a time.
    """
    stops = np.full(trials.size, n, dtype=np.int64)
    drawn = [[] for _ in range(trials.size)] if record else None
    if not record and np.all(plan.probs == 1.0):
        return stops, drawn  # random() < 1, so no copy can fail
    bitgen = np.random.Philox(key=int(seed) & _MASK64)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key, counter = state["state"]["key"], state["state"]["counter"]
    live = np.arange(trials.size)
    buffer = np.empty(2 * min(_CHUNK, trials.size * min(n, _CHUNK)))  # largest batch
    start, width = 0, 16
    while start < n and live.size:
        width = min(width, _CHUNK, n - start)
        counter[0] = start // 2
        rows_per_batch = max(1, _CHUNK // width)
        for lo in range(0, live.size, rows_per_batch):
            rows = live[lo : lo + rows_per_batch]
            u = buffer[: rows.size * 2 * width].reshape(rows.size, 2 * width)
            for row, t in zip(u, trials[rows]):
                key[1] = t
                bitgen.state = state
                gen.random(out=row)
            picks = np.searchsorted(plan.cumulative, u[:, 0::2], side="right")
            # copy i reads row i of a per-copy plan, row 0 of a one-row plan
            copy_rows = np.arange(start, start + width) % len(plan.probs)
            fails = u[:, 1::2] >= plan.probs[copy_rows, picks]
            hit = fails.any(axis=1)
            stops[rows[hit]] = start + fails[hit].argmax(axis=1)
            if record:
                for i, chunk in zip(rows, picks):
                    drawn[i].append(chunk)
        live = live[stops[live] == n]
        start, width = start + width, 2 * width
    return stops, drawn


def run_protocol(
    strategy: Strategy | PauliStrategy, device: DeviceModel, n: int, seed: int, trial: int = 0
) -> RunResult:
    """Simulate one sequential run of n copies, stopping at first failure."""
    plan = _build_plan(strategy, device, n)
    trials = np.array([int(trial) & _MASK64], dtype=np.uint64)
    stop = int(_first_failures(plan, n, seed, trials)[0][0])
    return RunResult(
        n_copies=n,
        accepted=stop == n,
        first_failure_index=None if stop == n else stop,
        rng_seed=int(seed) & _MASK64,
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
    is given it receives one JSON ready dict per trial; setting labels
    are recorded only on request because they dominate transcript size.
    """
    plan = _build_plan(strategy, device, n)
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    record = sink is not None and record_labels
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
                picks = np.concatenate(drawn[i])[: stop + 1].tolist()
                entry["setting_labels_drawn"] = [plan.labels[j] for j in picks]
            sink(entry)
    low, high = wilson_interval(accepted_count, trials)
    return EnsembleStats(
        trials=trials,
        accept_rate=accepted_count / trials,
        wilson_low=low,
        wilson_high=high,
    )


def predicted_acceptance(
    strategy: Strategy | PauliStrategy, device: DeviceModel, n: int
) -> float:
    """Closed form product of per copy acceptances tr(Omega sigma_i).

    Uses the same clamped tables as the sampler, so an honest device
    predicts exactly 1 and the worst case IID adversary predicts
    exactly (1 - delta_eps)^n.
    """
    plan = _build_plan(strategy, device, n)
    # the sampler forces its cumulative table to end at 1, so weight
    # rounding cannot push a certain accept below (or above) certainty;
    # clamp the aggregate the same way
    per_copy = _clamp_certainties(plan.probs @ plan.weights)
    # a fixed-state plan has one row, which stands for all n copies
    return float(np.prod(per_copy)) ** (n // len(per_copy))
