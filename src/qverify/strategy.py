"""Verification strategies built from weighted projective tests.

A strategy specifies, for each received copy, a random choice of
measurement setting j (with probability mu_j) whose pass outcome is a
projector P_j. The device passes a copy when the sampled setting
accepts it, and the verifier accepts only if every copy passes. The
strategy operator Omega = sum_j mu_j P_j must fix the target state,
Omega |psi> = |psi>, so an honest device is never rejected. The largest
acceptance among orthogonal states, q = || Pi Omega Pi || with
Pi = 1 - |psi><psi|, gives the per-copy detection gap eps (1 - q).

Constructions provided here:

* bell_strategy: for (|00> + |11>)/sqrt(2), the uniform mixture of the
  parity checks XX, -YY, ZZ; q = 1/3, the best one-copy local value.
* two_qubit_optimal: for sin(theta)|00> + cos(theta)|11> away from the
  special angles, a ZZ parity check with weight
  alpha = (2 - sin 2theta) / (4 + sin 2theta) plus the complements of
  three product states with equal weights; the optimal
  q = (2 + sin 2theta) / (4 + sin 2theta).
* product_state_strategy: for |00> or |11>, the single product
  projector onto the target, q = 0.

Every dense strategy and setting is checked in one complex (k + L + 1,
d, d) buffer (_buffer) of its k pass projectors, the partial transposes
of its L locality claims at d = 4, and Omega: builders write their
projectors into it, every other route copies them in. One eigvalsh solves
the whole buffer, which is then frozen under every projector and Omega.
Setting errors come first, in setting order, then the strategy's.

A strategy's metrics property is its one route to q, degeneracy and
trace: the builders' strategies hold their closed form (family_metrics);
any other Strategy solves its orthocomplement block.

Stabilizer strategies are stabilizer.PauliStrategy values, which hold
syndrome counts and no projectors. metrics and to_json_dict take either
type, and stabilizer.strategy_from_json reads every document, handing a
dense one to _from_json_dict. Both types give orthogonal_projector (the
diagonal and columns of the top orthogonal eigenspace's projector, no q)
for adversary's worst case and pass_probabilities for protocol's plan.
Strategy and its settings mean a dense strategy only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import qcore
from .errors import BadDimError, NotUnitaryError, ThetaOutOfDomainError, ValidationError
from .qcore import TOL_DERIVED, TOL_INPUT, HermitianOperator, Ket, _assembled
from .samplecount import (
    SampleCountReport,
    StrategyMetrics,
    certainty_count_report,
    check_angle,
    check_theta,  # re-exported beside the two-qubit constructors
    family_metrics,
    optimal_q,  # re-exported beside the two-qubit constructors
)


class Locality(enum.Enum):
    """How a setting's pass outcome is realized by the two parties.

    PRODUCT_PROJECTOR: the measured projector is a product state (the
    pass outcome is either that projector or its complement).
    CORRELATION_TWO_OUTCOME: accept/reject depends on agreement of two
    local binary outcomes.
    STABILIZER_PAULI: a joint eigenvalue measurement of a signed Pauli
    string, one local Pauli per qubit.
    NONLOCAL: no locality certificate claimed.
    """

    PRODUCT_PROJECTOR = "product-projector"
    CORRELATION_TWO_OUTCOME = "correlation-two-outcome"
    STABILIZER_PAULI = "stabilizer-pauli"
    NONLOCAL = "nonlocal"


class StrategyKind(enum.Enum):
    BELL = "bell"
    TWO_QUBIT_OPTIMAL = "two-qubit-optimal"
    PRODUCT_STATE = "product"
    STABILIZER_FULL = "stabilizer-full"
    STABILIZER_GENERATORS = "stabilizer-generators"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """One weighted pass projector of a strategy.

    The label must be nonempty and the weight in (0, 1]. The projector
    must be idempotent with {0, 1} eigenvalues within TOL_DERIVED. For
    two qubit settings that claim locality, the pass operator must stay
    positive under partial transposition, which certifies separability
    for the low rank operators used here. For more than two qubits only
    the STABILIZER_PAULI tag carries a locality claim; full separability
    testing is out of scope. A setting built directly is a stack of one.
    """

    projector: HermitianOperator
    weight: float
    label: str
    locality: Locality

    def __post_init__(self):
        if not isinstance(self.projector, HermitianOperator):
            raise ValidationError(f"setting projector {self.projector!r} is no HermitianOperator")
        _settings(self.projector.entries[None], (self.weight,), (self.label,), (self.locality,))


def _field_defect(weight: float, label: str, locality: Locality) -> ValidationError | None:
    if not isinstance(label, str):
        return ValidationError(f"setting label {label!r} is not a str")
    if not label:
        return ValidationError("setting label must be nonempty")
    try:
        if not 0.0 < qcore._real("setting weight", weight) <= 1.0 + TOL_INPUT:
            return ValidationError(f"setting weight {weight!r} outside (0, 1]")
    except ValidationError as error:
        return error
    if not isinstance(locality, Locality):
        return ValidationError(f"setting locality {locality!r} is not a Locality")
    return None


def _buffer(localities, shape=(4, 4)) -> np.ndarray:
    """An empty complex (k + L + 1, d, d) buffer: k pass projectors of shape (d, d),
    the partial transposes of the L locality claims at d = 4, then Omega."""
    claims = shape == (4, 4) and sum(loc is not Locality.NONLOCAL for loc in localities)
    return np.empty((len(localities) + claims + 1, *shape), dtype=complex)


def _check_settings(buf: np.ndarray, weights, labels, localities):
    """Check the k settings whose pass projectors fill rows [0, k) of a
    _buffer, fill its tail rows, solve and freeze it; raise the first invalid
    setting's error, else return Omega's spectrum (None if k = 0).

    A setting's checks run in order: the HermitianOperator checks, the label,
    the weight, the locality, then idempotence and a {0, 1} spectrum within
    TOL_DERIVED and, for d = 4 with a locality claim, a partial transpose
    eigenvalue >= -TOL_DERIVED. A walk finds the first setting failing a check
    without an eigensolve; its row, later ones and Omega's are then zeroed.
    """
    k = len(localities)
    if not k:
        return None
    rows = buf[:k]
    defects, idempotence = qcore._operator_defects(rows, "operator", squares=True)
    cheap, end = None, k
    for i, defect in enumerate(defects):
        cheap = defect or _field_defect(weights[i], labels[i], localities[i])
        if cheap is not None:
            end = i
            break
    if not end:
        raise cheap  # the first setting's: no setting before it to solve
    if cheap is not None:
        buf[end:k] = buf[-1] = 0.0
    # the L rows after the settings: every locality claim at d = 4, none otherwise
    local = [i for i in range(k) if localities[i] is not Locality.NONLOCAL][: len(buf) - k - 1]
    if local:
        qcore._partial_transposes(rows if len(local) == k else rows[local], out=buf[k:-1])
    if cheap is None:
        _omega(weights, rows, out=buf[-1])
    vals = np.linalg.eigvalsh(buf)
    buf.setflags(write=False)
    bad = qcore._projector_defects(rows, TOL_DERIVED, vals[:k], idempotence)
    pt_min = dict(zip(local, vals[k:-1, 0].tolist()))
    for i in range(end):
        if bad[i]:
            raise ValidationError(f"setting {labels[i]!r} is not a projector")
        if pt_min.get(i, 0.0) < -TOL_DERIVED:
            raise ValidationError(
                f"setting {labels[i]!r} claims locality but its partial "
                f"transpose has eigenvalue {pt_min[i]!r}"
            )
    if cheap is not None:
        raise cheap
    return vals[-1]


def _omega(weights, stack: np.ndarray, out=None) -> np.ndarray:
    """sum_j w_j P_j of a (k, d, d) stack, added in order onto zeros."""
    terms = np.asarray(weights, dtype=float)[:, None, None] * stack
    return np.add.reduce(terms, axis=0, initial=0.0, out=out)


def _settings(projectors, weights, labels, localities):
    """(Omega, its spectrum) of k settings, their projectors copied into a _buffer."""
    stack = np.array([*projectors], dtype=complex)
    buf = _buffer(localities, stack.shape[1:])
    buf[: len(stack)] = stack
    return buf[-1], _check_settings(buf, weights, labels, localities)


def invariant_defect(target: Ket, omega: np.ndarray, vals=None) -> str | None:
    """Why omega is no strategy operator for target, or None.

    A strategy operator fixes its target and has its spectrum in [0, 1],
    both within TOL_DERIVED. vals is omega's spectrum, if already solved.
    """
    psi = target.amplitudes
    drift = omega @ psi - psi
    residual = math.sqrt(drift.real.dot(drift.real) + drift.imag.dot(drift.imag))  # its 2-norm
    if residual > TOL_DERIVED:
        return f"strategy does not fix its target (residual {residual!r})"
    vals = np.linalg.eigvalsh(omega) if vals is None else vals
    if vals[0] < -TOL_DERIVED or vals[-1] > 1.0 + TOL_DERIVED:
        return f"strategy operator spectrum [{vals[0]!r}, {vals[-1]!r}] escapes [0, 1]"
    return None


@dataclass(frozen=True, eq=False)
class Strategy:
    """A convex mixture of pass projectors fixing a target state; omega is
    the strategy operator sum_j mu_j P_j (read only array)."""

    target: Ket
    settings: tuple[MeasurementSetting, ...]
    kind: StrategyKind
    theta: float | None = None
    omega: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, spectrum=None):
        """Check the strategy; spectrum is Omega's, if _checked solved it."""
        if not isinstance(self.kind, StrategyKind):
            raise ValidationError(f"strategy kind {self.kind!r} is not a StrategyKind")
        if self.theta is not None:
            object.__setattr__(self, "theta", qcore._real("strategy theta", self.theta))
            if not math.isfinite(self.theta):
                raise ValidationError(f"strategy theta {self.theta!r} is not a finite number")
        qcore._ket("strategy target", self.target)
        settings = tuple(self.settings) if np.iterable(self.settings) else (self.settings,)
        if not all(isinstance(s, MeasurementSetting) for s in settings):
            raise ValidationError("strategy settings must be MeasurementSettings")
        object.__setattr__(self, "settings", settings)
        if not self.settings:
            raise ValidationError("strategy needs at least one setting")
        wrong = [s for s in settings if s.projector.dim != self.target.dim]
        if wrong:
            raise ValidationError(f"setting {wrong[0].label!r} dimension {wrong[0].projector.dim} "
                                  f"does not match target dimension {self.target.dim}")
        total = math.fsum(s.weight for s in self.settings)
        if abs(total - 1.0) > TOL_INPUT:
            raise ValidationError(f"setting weights sum to {total!r}, not 1")
        if spectrum is None:  # built directly: its settings fill a buffer of their own
            fields = zip(*((s.projector.entries, s.weight, s.label, s.locality) for s in settings))
            omega, spectrum = _settings(*fields)
            object.__setattr__(self, "omega", omega)
        defect = invariant_defect(self.target, self.omega, spectrum)
        if defect is not None:
            raise ValidationError(defect)

    @property
    def dim(self) -> int:
        return self.target.dim

    def _orthocomplement_eigh(self):
        """(basis, vals, vecs): one eigh of basis^dagger Omega basis, Omega on
        the target's orthocomplement, solved anew on every call."""
        basis = qcore.orthocomplement_basis(self.target)
        return basis, *np.linalg.eigh(basis.conj().T @ self.omega @ basis)

    @cached_property
    def metrics(self) -> StrategyMetrics:
        """q, the top eigenvalue of Omega on the target's orthocomplement,
        and trace Omega; a builder's strategy holds its closed form."""
        top = float(self._orthocomplement_eigh()[1][-1])
        return StrategyMetrics(q=min(max(top, 0.0), 1.0), trace=float(np.trace(self.omega).real))

    def orthogonal_projector(self):
        """(every Pi_bb, b -> Pi|b>) of Pi = I - |psi><psi| minus the
        orthocomplement eigenvectors below its top eigenvalue - TOL_DERIVED."""
        basis, vals, vecs = self._orthocomplement_eigh()
        low, psi = basis @ vecs[:, vals < vals[-1] - TOL_DERIVED], self.target.amplitudes
        proj = np.eye(psi.size) - np.outer(psi, psi.conj()) - low @ low.conj().T
        return proj.diagonal().real, lambda b: proj[:, b]

    def pass_probabilities(self, state: Ket | HermitianOperator | np.ndarray) -> np.ndarray:
        """tr(P_j sigma) for each setting j; a Ket is read as its density."""
        state = qcore._state("state", state, self.dim)
        sigma = (state.density() if isinstance(state, Ket) else state).entries
        stack = np.stack([s.projector.entries for s in self.settings])
        return np.einsum("kij,ji->k", stack, sigma).real


def _checked(target: Ket, kind: StrategyKind, theta, buf, weights, labels, localities,
             closed=None) -> Strategy:
    """The Strategy over the pass projectors in rows [0, k) of a _buffer, for
    every builder, local_transport and _from_json_dict. A builder's closed
    form (family_metrics) fills the metrics cache; no other Strategy's is."""
    spectrum = _check_settings(buf, weights, labels, localities)
    settings = tuple(
        _assembled(MeasurementSetting, projector=_assembled(HermitianOperator, entries=p),
                   weight=w, label=lab, locality=loc)
        for p, w, lab, loc in zip(buf, weights, labels, localities)
    )
    built = _assembled(Strategy, target=target, settings=settings, kind=kind, theta=theta,
                       omega=buf[-1])
    built.__post_init__(spectrum)
    if closed is not None:
        built.__dict__["metrics"] = closed
    return built


def _strategy(value):
    """value, if it is a strategy: a Strategy or a stabilizer PauliStrategy,
    the types whose kind is a StrategyKind (both constructors check it)."""
    if not isinstance(getattr(value, "kind", None), StrategyKind):
        raise ValidationError(f"expected a Strategy or PauliStrategy, got {value!r}")
    return value


def metrics(strategy) -> StrategyMetrics:
    """Exact worst-case metrics of a Strategy or a PauliStrategy."""
    return _strategy(strategy).metrics


def bell_strategy() -> Strategy:
    """Uniform parity checks XX, -YY, ZZ for (|00> + |11>)/sqrt(2).

    Each setting accepts when the two local Pauli outcomes multiply to
    the listed sign. Worst-case orthogonal acceptance is q = 1/3, so
    delta_eps = 2 eps / 3.
    """
    target = Ket(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0))
    specs = [(qcore.PAULI_X, +1.0), (qcore.PAULI_Y, -1.0), (qcore.PAULI_Z, +1.0)]
    eye, localities = np.eye(4, dtype=complex), (Locality.STABILIZER_PAULI,) * 3
    buf = _buffer(localities)
    buf[:3] = [(eye + sign * np.kron(p, p)) / 2.0 for p, sign in specs]
    return _checked(
        target, StrategyKind.BELL, None, buf, (1.0 / 3.0,) * 3, ("XX", "-YY", "ZZ"), localities,
        family_metrics(StrategyKind.BELL.value),
    )


def target_state(theta: float) -> Ket:
    """sin(theta)|00> + cos(theta)|11>, theta a finite angle."""
    return Ket(_target_amplitudes(check_angle(theta)))


def _target_amplitudes(theta: float) -> list[float]:
    return [math.sin(theta), 0.0, 0.0, math.cos(theta)]


def alpha_weight(theta: float) -> float:
    """Weight of the ZZ setting in the optimal four setting strategy."""
    return _alpha(check_angle(theta))


def _alpha(theta) -> float:  # of a checked theta
    return (2.0 - math.sin(2.0 * theta)) / (4.0 + math.sin(2.0 * theta))


_ZZ_PASS = np.diag([1.0, 0.0, 0.0, 1.0])  # the ZZ parity check's pass projector
_EYE = np.eye(4)

# The two factors of each annihilating product state, one row per state,
# before their |0> and |1> amplitudes: 1 on |0> and a unit phase on |1>,
# (2pi/3, pi/3), (4pi/3, 5pi/3), (0, pi).
_PRODUCT_PHASES = np.array(
    [
        [[1.0, np.exp(1j * pa)], [1.0, np.exp(1j * pb)]]
        for pa, pb in (
            (2.0 * math.pi / 3.0, math.pi / 3.0),
            (4.0 * math.pi / 3.0, 5.0 * math.pi / 3.0),
            (0.0, math.pi),
        )
    ]
)


def _annihilating_amplitudes(theta: float, out: np.ndarray) -> np.ndarray:
    """Amplitudes of annihilating_product_states (norms unchecked), into (3, 4) out."""
    tan = math.tan(theta)
    amplitudes = np.array([1.0 / math.sqrt(1.0 + tan), 1.0 / math.sqrt(1.0 + 1.0 / tan)])
    factors = _PRODUCT_PHASES * amplitudes  # row s: the two factors of state s
    return np.multiply(factors[:, 0, :, None], factors[:, 1, None, :], out=out.reshape(3, 2, 2))


def annihilating_product_states(theta: float) -> tuple[Ket, Ket, Ket]:
    """Three product states orthogonal to the target with balanced phases.

    Each factor carries amplitude 1/sqrt(1 + tan theta) on |0> and a unit
    phase times 1/sqrt(1 + cot theta) on |1>. The per-state phase pairs
    (2pi/3, pi/3), (4pi/3, 5pi/3), (0, pi) multiply to -1, which makes
    each state orthogonal to sin(theta)|00> + cos(theta)|11>. Their equal
    weight mixture of complements is the trace three part of the optimal
    strategy. theta lies in (0, pi/2]: cot theta diverges at 0.
    """
    theta = check_angle(theta, family=True)
    if theta == 0.0:
        raise ThetaOutOfDomainError("theta=0 has no annihilating product states: cot 0 diverges")
    rows = _annihilating_amplitudes(theta, np.empty((3, 4), dtype=complex)).reshape(3, 4)
    return tuple(Ket(row) for row in rows)


def two_qubit_optimal(theta: float) -> Strategy:
    """Optimal four setting strategy for sin(theta)|00> + cos(theta)|11>.

    One ZZ parity check with weight alpha_weight(theta) plus the
    complements of the three annihilating product states, each with
    weight (1 - alpha)/3. Achieves q = optimal_q(theta); no one-copy
    local strategy for this target does better. Raises
    ThetaNearSpecialValueError within 1e-9 of {0, pi/4, pi/2} where the
    dedicated constructions apply instead.
    """
    closed = family_metrics(StrategyKind.TWO_QUBIT_OPTIMAL.value, theta)  # theta's one check
    alpha = _alpha(theta)
    # the three product kets and the target, their norms checked as one (4, 4) array
    kets = np.empty((4, 4), dtype=complex)
    _annihilating_amplitudes(theta, kets[:3])
    kets[3] = _target_amplitudes(theta)
    qcore._check_unit_norms(kets, "ket")
    kets.setflags(write=False)
    states, localities = kets[:3], (Locality.STABILIZER_PAULI,) + (Locality.PRODUCT_PROJECTOR,) * 3
    buf = _buffer(localities)
    buf[0] = _ZZ_PASS
    np.multiply(states[:, :, None], states.conj()[:, None, :], out=buf[1:4])
    np.subtract(_EYE, buf[1:4], out=buf[1:4])  # the complements I - |s><s|
    rest = (1.0 - alpha) / 3.0
    return _checked(
        _assembled(Ket, amplitudes=kets[3]), StrategyKind.TWO_QUBIT_OPTIMAL, theta, buf,
        (alpha, rest, rest, rest),
        ("ZZ", "reject-product-1", "reject-product-2", "reject-product-3"),
        localities, closed,
    )


def product_state_strategy(which: str) -> Strategy:
    """Single projector strategy for the product targets |00> or |11>.

    Accepting only the target projector gives q = 0: every orthogonal
    state is rejected with certainty, so delta_eps = epsilon.
    """
    if not (isinstance(which, str) and which in ("zero", "one")):
        raise ValidationError(f"which={which!r} must be 'zero' or 'one'")
    index = 0 if which == "zero" else 3
    target = qcore.basis_ket(4, index)
    amps, localities = target.amplitudes, (Locality.PRODUCT_PROJECTOR,)
    buf = _buffer(localities)
    buf[0] = np.outer(amps, amps.conj())
    return _checked(
        target, StrategyKind.PRODUCT_STATE, None, buf, (1.0,),
        ("00" if which == "zero" else "11",), localities,
        family_metrics(StrategyKind.PRODUCT_STATE.value),
    )


def _check_unitary(matrix: np.ndarray, name: str) -> np.ndarray:
    arr = qcore._matrix(name, matrix, 2)
    residual = float(np.max(np.abs(arr.conj().T @ arr - np.eye(2))))
    if residual > TOL_INPUT:
        raise NotUnitaryError(f"{name} deviates from unitary by {residual!r}")
    return arr


def local_transport(strategy: Strategy, u, v) -> Strategy:
    """Conjugate a two qubit strategy by a product unitary u (x) v.

    The transported strategy fixes (u (x) v)|target> and has the same
    worst-case metrics up to rounding, so optimality travels with the
    target under local unitaries; it reads them from its own projectors.
    """
    if not isinstance(strategy, Strategy):
        raise ValidationError(f"local_transport moves a dense Strategy, got {strategy!r}")
    if strategy.dim != 4:
        raise BadDimError("local_transport handles two qubit strategies")
    u = _check_unitary(u, "u")
    v = _check_unitary(v, "v")
    big = np.kron(u, v)
    old = strategy.settings
    localities = [s.locality for s in old]
    buf = _buffer(localities)
    buf[: len(old)] = [big @ s.projector.entries @ big.conj().T for s in old]
    return _checked(
        Ket(big @ strategy.target.amplitudes), strategy.kind, strategy.theta, buf,
        [s.weight for s in old], [s.label for s in old], localities,
    )


def exact_sample_count(strategy, epsilon: float, delta: float) -> SampleCountReport:
    """Copies needed to reject every eps-far state with confidence 1 - delta."""
    strategy = _strategy(strategy)
    return certainty_count_report(
        strategy.metrics, epsilon, delta, f"{strategy.kind.value} strategy"
    )


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values).ravel()
    return np.stack([flat.real, flat.imag], axis=1).tolist()


def _pairs_to_array(pairs, length: int, what: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape != (length, 2):
        raise ValidationError(f"{what} must be a list of {length} [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def to_json_dict(strategy) -> dict:
    """Lossless JSON document for a strategy.

    Amplitudes and projector entries are stored as [re, im] pairs whose
    repr round-trips doubles exactly; projectors are flattened row major.
    A stabilizer PauliStrategy writes its kind, generator labels and
    element indices instead. stabilizer.strategy_from_json reads both.
    """
    if not isinstance(_strategy(strategy), Strategy):
        labels = [g.label for g in strategy.group.generators]
        return {"kind": strategy.kind.value, "group": labels, "indices": list(strategy.indices)}
    doc: dict = {"kind": strategy.kind.value}
    if strategy.theta is not None:
        doc["theta"] = strategy.theta
    doc["target"] = _complex_pairs(strategy.target.amplitudes)
    doc["settings"] = [
        {
            "label": s.label,
            "weight": float(s.weight),
            "locality": s.locality.value,
            "projector": _complex_pairs(s.projector.entries),
        }
        for s in strategy.settings
    ]
    return doc


def _from_json_dict(doc) -> Strategy:
    """Rebuild a dense strategy from to_json_dict output, revalidating everything.

    A document with a missing key, a value of the wrong type or shape,
    or a non-finite theta raises ValidationError.
    """
    try:
        kind = StrategyKind(doc["kind"])
        target_amps = _pairs_to_array(doc["target"], len(doc["target"]), "target")
        dim = len(target_amps)
        fields = [
            (
                _pairs_to_array(item["projector"], dim * dim, "projector"),
                qcore._real("weight", item["weight"]),
                str(item["label"]),
                Locality(item["locality"]),
            )
            for item in doc["settings"]
        ]
        theta = doc.get("theta")
        theta = None if theta is None else qcore._real("theta", theta)
    except (LookupError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"malformed strategy document: {type(exc).__name__}: {exc}"
        ) from exc
    target = Ket(target_amps)
    projectors, weights, labels, localities = zip(*fields) if fields else ((),) * 4
    buf = _buffer(localities, (dim, dim))
    buf[: len(projectors)] = np.reshape(projectors, (-1, dim, dim))
    return _checked(target, kind, theta, buf, weights, labels, localities)
