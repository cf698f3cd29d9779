"""Verification strategies built from weighted projective tests.

A strategy specifies, for each received copy, a random choice of
measurement setting j (with probability mu_j) whose pass outcome is a
projector P_j. The device passes a copy when the sampled setting
accepts it, and the verifier accepts only if every copy passes. The
whole procedure is captured by the strategy operator

    Omega = sum_j mu_j P_j,

which must fix the target state, Omega |psi> = |psi>, so an honest
device is never rejected. Performance against the worst eps-far state
is controlled by the largest acceptance among orthogonal states,

    q = || Pi Omega Pi ||   with  Pi = 1 - |psi><psi|,

giving a per-copy detection gap delta_eps = eps (1 - q).

Constructions provided here:

* bell_strategy: for (|00> + |11>)/sqrt(2), the uniform mixture of the
  parity checks XX, -YY, ZZ. Achieves q = 1/3, the best possible for
  that target with one-copy local measurements.
* two_qubit_optimal: for sin(theta)|00> + cos(theta)|11> away from the
  special angles, a ZZ parity check with weight
  alpha = (2 - sin 2theta) / (4 + sin 2theta) plus the complements of
  three product states with equal weights. Achieves the optimal
  q = (2 + sin 2theta) / (4 + sin 2theta).
* product_state_strategy: for |00> or |11>, the single product
  projector onto the target, q = 0.

Every constructor here, local_transport and _from_json_dict hand their
projectors to _settings, which copies them into one (k, d, d) stack and
runs each MeasurementSetting check once over it, at the same tolerance.
It raises the error of the first invalid setting in order; a setting
built directly is the stack of one.

A strategy's metrics property is its one route to q, degeneracy and
trace. The three builders' strategies hold their closed form
(family_metrics); any other Strategy, even one whose kind names a family
(a document, local_transport, direct construction), solves its
orthocomplement block.

Stabilizer strategies are stabilizer.PauliStrategy values, which hold
syndrome counts and no projectors. metrics and to_json_dict take either
type: a PauliStrategy reads its counts and writes its group and element
indices. stabilizer.strategy_from_json reads every document; it hands a
dense one to _from_json_dict. Both types give orthogonal_projector (the
diagonal and columns of the top orthogonal eigenspace's projector, no q),
which adversary's worst case reads, and pass_probabilities, which
protocol's plan reads. Strategy and its settings mean a dense strategy only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qcore
from .errors import BadDimError, NotUnitaryError, ThetaOutOfDomainError, ValidationError
from .qcore import TOL_DERIVED, TOL_INPUT, HermitianOperator, Ket
from .samplecount import (
    SampleCountReport,
    StrategyMetrics,
    certainty_count_report,
    check_angle,
    check_theta,
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
    testing is out of scope. A setting built directly is checked as a
    stack of one (see _check_settings).
    """

    projector: HermitianOperator
    weight: float
    label: str
    locality: Locality

    def __post_init__(self):
        if not isinstance(self.projector, HermitianOperator):
            raise ValidationError(f"setting projector {self.projector!r} is no HermitianOperator")
        _check_settings(
            self.projector.entries[None], (self.weight,), (self.label,), (self.locality,)
        )


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


def _check_settings(stack: np.ndarray, weights, labels, localities) -> None:
    """Raise the error of the first invalid setting of a (k, d, d) stack.

    A setting's checks run in order: the HermitianOperator checks, the
    label, the weight, the locality, then idempotence and a {0, 1} spectrum
    within TOL_DERIVED and, for d = 4 with a locality claim, a partial
    transpose eigenvalue >= -TOL_DERIVED. One walk finds the first setting
    failing a check without an eigensolve (eigvalsh takes no non-finite
    matrix); one stacked pass per eigen check covers the settings before it.
    """
    cheap, end = None, len(stack)
    for i, defect in enumerate(qcore._operator_defects(stack, "operator")):
        cheap = defect or _field_defect(weights[i], labels[i], localities[i])
        if cheap is not None:
            end = i
            break
    if end:
        head = stack[:end]
        bad = qcore._projector_defects(head, TOL_DERIVED)
        pt_min = np.zeros(end)
        local = [i for i in range(end) if localities[i] is not Locality.NONLOCAL]
        if stack.shape[1] == 4 and local:
            pt_min[local] = np.linalg.eigvalsh(qcore._partial_transposes(head[local]))[:, 0]
        failed = bad | (pt_min < -TOL_DERIVED)
        if failed.any():
            i = int(failed.argmax())
            if bad[i]:
                raise ValidationError(f"setting {labels[i]!r} is not a projector")
            raise ValidationError(
                f"setting {labels[i]!r} claims locality but its partial "
                f"transpose has eigenvalue {float(pt_min[i])!r}"
            )
    if cheap is not None:
        raise cheap


def _settings(projectors, weights, labels, localities) -> tuple[MeasurementSetting, ...]:
    """Checked settings over one stack of pass projectors: projectors yields
    the k (d, d) pass projectors in order, copied into one (k, d, d) stack
    that _check_settings checks and that is then frozen; each setting's
    projector is a read-only view of it.
    """
    stack = np.array([*projectors], dtype=complex)
    _check_settings(stack, weights, labels, localities)
    stack.setflags(write=False)
    return tuple(
        qcore._assembled(
            MeasurementSetting,
            projector=qcore._assembled(HermitianOperator, entries=entries),
            weight=weight,
            label=label,
            locality=locality,
        )
        for entries, weight, label, locality in zip(stack, weights, labels, localities)
    )


def invariant_defect(target: Ket, omega: np.ndarray) -> str | None:
    """Why omega is no strategy operator for target, or None.

    A strategy operator fixes its target and has its spectrum in [0, 1],
    both within TOL_DERIVED.
    """
    psi = target.amplitudes
    residual = float(np.linalg.norm(omega @ psi - psi))
    if residual > TOL_DERIVED:
        return f"strategy does not fix its target (residual {residual!r})"
    vals = np.linalg.eigvalsh(omega)
    if vals[0] < -TOL_DERIVED or vals[-1] > 1.0 + TOL_DERIVED:
        return f"strategy operator spectrum [{vals[0]!r}, {vals[-1]!r}] escapes [0, 1]"
    return None


@dataclass(frozen=True, eq=False)
class Strategy:
    """A convex mixture of pass projectors fixing a target state."""

    target: Ket
    settings: tuple[MeasurementSetting, ...]
    kind: StrategyKind
    theta: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, StrategyKind):
            raise ValidationError(f"strategy kind {self.kind!r} is not a StrategyKind")
        theta = self.theta
        if theta is not None and not (isinstance(theta, (int, float)) and math.isfinite(theta)):
            raise ValidationError(f"strategy theta {theta!r} is not a finite number")
        qcore._ket("strategy target", self.target)
        settings = tuple(self.settings) if np.iterable(self.settings) else (self.settings,)
        if not all(isinstance(s, MeasurementSetting) for s in settings):
            raise ValidationError("strategy settings must be MeasurementSettings")
        object.__setattr__(self, "settings", settings)
        if not self.settings:
            raise ValidationError("strategy needs at least one setting")
        for setting in self.settings:
            if setting.projector.dim != self.target.dim:
                raise ValidationError(
                    f"setting {setting.label!r} dimension {setting.projector.dim} "
                    f"does not match target dimension {self.target.dim}"
                )
        total = math.fsum(s.weight for s in self.settings)
        if abs(total - 1.0) > TOL_INPUT:
            raise ValidationError(f"setting weights sum to {total!r}, not 1")
        defect = invariant_defect(self.target, self.omega)
        if defect is not None:
            raise ValidationError(defect)

    @cached_property
    def omega(self) -> np.ndarray:
        """The strategy operator sum_j mu_j P_j (read only array)."""
        out = np.zeros((self.target.dim, self.target.dim), dtype=complex)
        for setting in self.settings:
            out += setting.weight * setting.projector.entries
        out.setflags(write=False)
        return out

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
        return StrategyMetrics(
            q=min(max(top, 0.0), 1.0), trace=float(np.trace(self.omega).real)
        )

    def orthogonal_projector(self):
        """(every Pi_bb, b -> Pi|b>) of Pi = I - |psi><psi| minus the
        orthocomplement eigenvectors below its top eigenvalue - TOL_DERIVED."""
        basis, vals, vecs = self._orthocomplement_eigh()
        low, psi = basis @ vecs[:, vals < vals[-1] - TOL_DERIVED], self.target.amplitudes
        proj = np.eye(psi.size) - np.outer(psi, psi.conj()) - low @ low.conj().T
        return proj.diagonal().real, lambda b: proj[:, b]

    def pass_probabilities(self, state: Ket | np.ndarray) -> np.ndarray:
        """tr(P_j sigma) for each setting j; a Ket is read as its density."""
        pure = isinstance(state, Ket)
        sigma = state.density().entries if pure else qcore._matrix("state", state, self.dim)
        stack = np.stack([s.projector.entries for s in self.settings])
        return np.einsum("kij,ji->k", stack, sigma).real


def _built(target: Ket, settings, kind: StrategyKind, theta=None) -> Strategy:
    """A builder's Strategy, its metrics cache filled with the closed form
    family_metrics(kind.value, theta); no other Strategy's cache is."""
    built = Strategy(target=target, settings=settings, kind=kind, theta=theta)
    built.__dict__["metrics"] = family_metrics(kind.value, theta)
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
    specs = [
        (qcore.PAULI_X, +1.0),
        (qcore.PAULI_Y, -1.0),
        (qcore.PAULI_Z, +1.0),
    ]
    eye = np.eye(4, dtype=complex)
    settings = _settings(
        [(eye + sign * np.kron(p, p)) / 2.0 for p, sign in specs],
        (1.0 / 3.0,) * 3,
        ("XX", "-YY", "ZZ"),
        (Locality.STABILIZER_PAULI,) * 3,
    )
    return _built(target, settings, StrategyKind.BELL)


def target_state(theta: float) -> Ket:
    """sin(theta)|00> + cos(theta)|11>, theta a finite angle."""
    theta = check_angle(theta)
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sin(theta)
    amps[3] = math.cos(theta)
    return Ket(amps)


def alpha_weight(theta: float) -> float:
    """Weight of the ZZ setting in the optimal four setting strategy."""
    s = math.sin(2.0 * check_angle(theta))
    return (2.0 - s) / (4.0 + s)


# Unit phases on |1> of the two factors of each annihilating product
# state, one row per state: (2pi/3, pi/3), (4pi/3, 5pi/3), (0, pi).
_PRODUCT_PHASES = np.array(
    [
        [np.exp(1j * pa), np.exp(1j * pb)]
        for pa, pb in (
            (2.0 * math.pi / 3.0, math.pi / 3.0),
            (4.0 * math.pi / 3.0, 5.0 * math.pi / 3.0),
            (0.0, math.pi),
        )
    ]
)


def _annihilating_amplitudes(theta: float) -> np.ndarray:
    """Rows: amplitudes of annihilating_product_states, norms checked."""
    factors = np.empty((3, 2, 2), dtype=complex)
    factors[:, :, 0] = 1.0 / math.sqrt(1.0 + math.tan(theta))
    factors[:, :, 1] = _PRODUCT_PHASES * (1.0 / math.sqrt(1.0 + 1.0 / math.tan(theta)))
    # row s is kron(first factor, second factor) of state s
    states = (factors[:, 0, :, None] * factors[:, 1, None, :]).reshape(3, 4)
    qcore._check_unit_norms(states, "ket")
    return states


def annihilating_product_states(theta: float) -> tuple[Ket, Ket, Ket]:
    """Three product states orthogonal to the target with balanced phases.

    Each is (|0> + w_a tan(theta)^(1/2) ... ) up to normalization: the
    first factor carries amplitude 1/sqrt(1 + tan theta) on |0> and a
    unit phase times 1/sqrt(1 + cot theta) on |1>, and the per-state
    phase pairs (2pi/3, pi/3), (4pi/3, 5pi/3), (0, pi) multiply to -1,
    which makes each product state orthogonal to
    sin(theta)|00> + cos(theta)|11>. Their equal weight mixture of
    complements is the trace three part of the optimal strategy. theta
    lies in (0, pi/2]: cot theta diverges at 0.
    """
    theta = check_angle(theta, family=True)
    if theta == 0.0:
        raise ThetaOutOfDomainError("theta=0 has no annihilating product states: cot 0 diverges")
    return tuple(Ket(row) for row in _annihilating_amplitudes(theta))


def two_qubit_optimal(theta: float) -> Strategy:
    """Optimal four setting strategy for sin(theta)|00> + cos(theta)|11>.

    One ZZ parity check with weight alpha_weight(theta) plus the
    complements of the three annihilating product states, each with
    weight (1 - alpha)/3. Achieves q = optimal_q(theta); no one-copy
    local strategy for this target does better. Raises
    ThetaNearSpecialValueError within 1e-9 of {0, pi/4, pi/2} where the
    dedicated constructions apply instead.
    """
    check_theta(theta)
    alpha = alpha_weight(theta)
    states = _annihilating_amplitudes(theta)
    complements = np.eye(4) - states[:, :, None] * states.conj()[:, None, :]
    rest = (1.0 - alpha) / 3.0
    settings = _settings(
        [np.diag([1.0, 0.0, 0.0, 1.0]), *complements],
        (alpha, rest, rest, rest),
        ("ZZ", "reject-product-1", "reject-product-2", "reject-product-3"),
        (Locality.STABILIZER_PAULI,) + (Locality.PRODUCT_PROJECTOR,) * 3,
    )
    return _built(target_state(theta), settings, StrategyKind.TWO_QUBIT_OPTIMAL, theta)


def product_state_strategy(which: str) -> Strategy:
    """Single projector strategy for the product targets |00> or |11>.

    Accepting only the target projector gives q = 0: every orthogonal
    state is rejected with certainty, so delta_eps = epsilon.
    """
    if not (isinstance(which, str) and which in ("zero", "one")):
        raise ValidationError(f"which={which!r} must be 'zero' or 'one'")
    index = 0 if which == "zero" else 3
    target = qcore.basis_ket(4, index)
    amps = target.amplitudes
    settings = _settings(
        [np.outer(amps, amps.conj())],
        (1.0,),
        ("00" if which == "zero" else "11",),
        (Locality.PRODUCT_PROJECTOR,),
    )
    return _built(target, settings, StrategyKind.PRODUCT_STATE)


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
    new_settings = _settings(
        [big @ s.projector.entries @ big.conj().T for s in old],
        [s.weight for s in old],
        [s.label for s in old],
        [s.locality for s in old],
    )
    return Strategy(
        target=Ket(big @ strategy.target.amplitudes),
        settings=new_settings,
        kind=strategy.kind,
        theta=strategy.theta,
    )


def exact_sample_count(
    strategy, epsilon: float, delta: float
) -> SampleCountReport:
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
        doc["theta"] = float(strategy.theta)
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
                float(item["weight"]),
                str(item["label"]),
                Locality(item["locality"]),
            )
            for item in doc["settings"]
        ]
        theta = doc.get("theta")
        theta = None if theta is None else float(theta)
    except (LookupError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"malformed strategy document: {type(exc).__name__}: {exc}"
        ) from exc
    target = Ket(target_amps)
    projectors, weights, labels, localities = zip(*fields) if fields else ((),) * 4
    settings = _settings(
        (flat.reshape(dim, dim) for flat in projectors), weights, labels, localities
    )
    return Strategy(target=target, settings=settings, kind=kind, theta=theta)
