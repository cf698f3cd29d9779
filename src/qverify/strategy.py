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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qcore
from .errors import (
    BadDimError,
    NotUnitaryError,
    ThetaNearSpecialValueError,
    ThetaOutOfDomainError,
    ValidationError,
)
from .qcore import (
    TOL_DERIVED,
    TOL_INPUT,
    HermitianOperator,
    Ket,
    is_projector,
    partial_transpose_qubit2,
)
from .samplecount import (
    THETA_SPECIAL_TOL,
    SampleCountReport,
    certainty_count_report,
    check_probability,
    theta_family,
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

    The projector must be idempotent with {0, 1} eigenvalues within
    TOL_DERIVED. For two qubit settings that claim locality, the pass
    operator must stay positive under partial transposition, which
    certifies separability for the low rank operators used here. For
    more than two qubits only the STABILIZER_PAULI tag carries a
    locality claim; full separability testing is out of scope.
    """

    projector: HermitianOperator
    weight: float
    label: str
    locality: Locality

    def __post_init__(self):
        if not self.label:
            raise ValidationError("setting label must be nonempty")
        if not 0.0 < self.weight <= 1.0 + TOL_INPUT:
            raise ValidationError(f"setting weight {self.weight!r} outside (0, 1]")
        if not is_projector(self.projector):
            raise ValidationError(f"setting {self.label!r} is not a projector")
        if self.projector.dim == 4 and self.locality is not Locality.NONLOCAL:
            pt_min = float(
                np.linalg.eigvalsh(partial_transpose_qubit2(self.projector).entries)[0]
            )
            if pt_min < -TOL_DERIVED:
                raise ValidationError(
                    f"setting {self.label!r} claims locality but its partial "
                    f"transpose has eigenvalue {pt_min!r}"
                )


def invariant_defect(target: Ket, omega: np.ndarray, tol: float) -> str | None:
    """Why omega is no strategy operator for target at tolerance tol, or None.

    A strategy operator fixes its target and has its spectrum in [0, 1].
    """
    psi = target.amplitudes
    residual = float(np.linalg.norm(omega @ psi - psi))
    if residual > tol:
        return f"strategy does not fix its target (residual {residual!r})"
    vals = np.linalg.eigvalsh(omega)
    if vals[0] < -tol or vals[-1] > 1.0 + tol:
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
        object.__setattr__(self, "settings", tuple(self.settings))
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
        defect = invariant_defect(self.target, self.omega, TOL_DERIVED)
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


@dataclass(frozen=True)
class StrategyMetrics:
    """Worst-case figures of one strategy.

    q is the largest acceptance probability among states orthogonal to
    the target; second_eigenvalue_gap = 1 - q is the spectral gap below
    the target's eigenvalue of the strategy operator.
    """

    q: float
    trace: float
    second_eigenvalue_gap: float

    def delta_eps(self, epsilon: float) -> float:
        """Per-copy detection gap for infidelity epsilon in (0, 1)."""
        check_probability("epsilon", epsilon)
        return epsilon * (1.0 - self.q)

    @property
    def degenerate(self) -> bool:
        """True when some orthogonal state is accepted with certainty."""
        return self.q >= 1.0 - TOL_DERIVED


def metrics(strategy: Strategy) -> StrategyMetrics:
    """Exact worst-case metrics via the orthocomplement eigenproblem."""
    _, block = qcore.orthocomplement_block(strategy.target, strategy.omega)
    top = float(np.linalg.eigvalsh(block)[-1])
    q = min(max(top, 0.0), 1.0)
    return StrategyMetrics(
        q=q,
        trace=float(np.trace(strategy.omega).real),
        second_eigenvalue_gap=1.0 - q,
    )


def _correlation_projector(a: np.ndarray, b: np.ndarray, sign: float) -> HermitianOperator:
    return HermitianOperator((np.eye(4, dtype=complex) + sign * np.kron(a, b)) / 2.0)


def bell_strategy() -> Strategy:
    """Uniform parity checks XX, -YY, ZZ for (|00> + |11>)/sqrt(2).

    Each setting accepts when the two local Pauli outcomes multiply to
    the listed sign. Worst-case orthogonal acceptance is q = 1/3, so
    delta_eps = 2 eps / 3.
    """
    target = Ket(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0))
    specs = [
        ("XX", qcore.PAULI_X, qcore.PAULI_X, +1.0),
        ("-YY", qcore.PAULI_Y, qcore.PAULI_Y, -1.0),
        ("ZZ", qcore.PAULI_Z, qcore.PAULI_Z, +1.0),
    ]
    settings = tuple(
        MeasurementSetting(
            projector=_correlation_projector(a, b, sign),
            weight=1.0 / 3.0,
            label=label,
            locality=Locality.STABILIZER_PAULI,
        )
        for label, a, b, sign in specs
    )
    return Strategy(target=target, settings=settings, kind=StrategyKind.BELL)


def check_theta(theta: float) -> None:
    """Validate a target angle for the four setting construction.

    Angles outside the closed interval [0, pi/2] are out of domain; inside
    it, every angle that theta_family assigns to a special construction
    is rejected as near special.
    """
    if not 0.0 <= theta <= math.pi / 2:  # also rejects nan
        raise ThetaOutOfDomainError(f"theta={theta!r} outside [0, pi/2]")
    if theta_family(theta) != StrategyKind.TWO_QUBIT_OPTIMAL.value:
        raise ThetaNearSpecialValueError(
            f"theta={theta!r} is within {THETA_SPECIAL_TOL} of a special angle "
            "(0, pi/4, pi/2); use product_state_strategy or bell_strategy"
        )


def target_state(theta: float) -> Ket:
    """sin(theta)|00> + cos(theta)|11>."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sin(theta)
    amps[3] = math.cos(theta)
    return Ket(amps)


def alpha_weight(theta: float) -> float:
    """Weight of the ZZ setting in the optimal four setting strategy."""
    s = math.sin(2.0 * theta)
    return (2.0 - s) / (4.0 + s)


def optimal_q(theta: float) -> float:
    """Worst-case orthogonal acceptance of the optimal local strategy."""
    s = math.sin(2.0 * theta)
    return (2.0 + s) / (4.0 + s)


def annihilating_product_states(theta: float) -> tuple[Ket, Ket, Ket]:
    """Three product states orthogonal to the target with balanced phases.

    Each is (|0> + w_a tan(theta)^(1/2) ... ) up to normalization: the
    first factor carries amplitude 1/sqrt(1 + tan theta) on |0> and a
    unit phase times 1/sqrt(1 + cot theta) on |1>, and the per-state
    phase pairs (2pi/3, pi/3), (4pi/3, 5pi/3), (0, pi) multiply to -1,
    which makes each product state orthogonal to
    sin(theta)|00> + cos(theta)|11>. Their equal weight mixture of
    complements is the trace three part of the optimal strategy.
    """
    amp0 = 1.0 / math.sqrt(1.0 + math.tan(theta))
    amp1 = 1.0 / math.sqrt(1.0 + 1.0 / math.tan(theta))
    phase_pairs = (
        (2.0 * math.pi / 3.0, math.pi / 3.0),
        (4.0 * math.pi / 3.0, 5.0 * math.pi / 3.0),
        (0.0, math.pi),
    )
    states = []
    for pa, pb in phase_pairs:
        first = np.array([amp0, np.exp(1j * pa) * amp1])
        second = np.array([amp0, np.exp(1j * pb) * amp1])
        states.append(Ket(np.kron(first, second)))
    return tuple(states)


def trace3_closed_form(theta: float) -> np.ndarray:
    """Closed form of the trace three part of the optimal strategy.

    Equals identity minus 1/(1+t)^2 times the rank two pattern
    [[1,0,0,-t],[0,t,0,0],[0,0,t,0],[-t,0,0,t^2]] with t = tan(theta),
    and also equals the equal weight mixture of the three complement
    projectors of annihilating_product_states.
    """
    t = math.tan(theta)
    pattern = np.array(
        [
            [1.0, 0.0, 0.0, -t],
            [0.0, t, 0.0, 0.0],
            [0.0, 0.0, t, 0.0],
            [-t, 0.0, 0.0, t * t],
        ],
        dtype=complex,
    )
    return np.eye(4, dtype=complex) - pattern / (1.0 + t) ** 2


def two_qubit_closed_form(theta: float) -> np.ndarray:
    """Closed form strategy operator of the four setting optimum."""
    alpha = alpha_weight(theta)
    p_zz = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    return alpha * p_zz + (1.0 - alpha) * trace3_closed_form(theta)


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
    eye = np.eye(4, dtype=complex)
    settings = [
        MeasurementSetting(
            projector=HermitianOperator(np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)),
            weight=alpha,
            label="ZZ",
            locality=Locality.STABILIZER_PAULI,
        )
    ]
    for k, state in enumerate(annihilating_product_states(theta), start=1):
        complement = eye - np.outer(state.amplitudes, state.amplitudes.conj())
        settings.append(
            MeasurementSetting(
                projector=HermitianOperator(complement),
                weight=(1.0 - alpha) / 3.0,
                label=f"reject-product-{k}",
                locality=Locality.PRODUCT_PROJECTOR,
            )
        )
    return Strategy(
        target=target_state(theta),
        settings=tuple(settings),
        kind=StrategyKind.TWO_QUBIT_OPTIMAL,
        theta=theta,
    )


def product_state_strategy(which: str) -> Strategy:
    """Single projector strategy for the product targets |00> or |11>.

    Accepting only the target projector gives q = 0: every orthogonal
    state is rejected with certainty, so delta_eps = epsilon.
    """
    if which not in ("zero", "one"):
        raise ValidationError(f"which={which!r} must be 'zero' or 'one'")
    index = 0 if which == "zero" else 3
    target = qcore.basis_ket(4, index)
    setting = MeasurementSetting(
        projector=target.density(),
        weight=1.0,
        label="00" if which == "zero" else "11",
        locality=Locality.PRODUCT_PROJECTOR,
    )
    return Strategy(target=target, settings=(setting,), kind=StrategyKind.PRODUCT_STATE)


def _check_unitary(matrix: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (2, 2):
        raise BadDimError(f"{name} must be a 2x2 matrix")
    residual = float(np.max(np.abs(arr.conj().T @ arr - np.eye(2))))
    if residual > TOL_INPUT:
        raise NotUnitaryError(f"{name} deviates from unitary by {residual!r}")
    return arr


def local_transport(strategy: Strategy, u, v) -> Strategy:
    """Conjugate a two qubit strategy by a product unitary u (x) v.

    The transported strategy fixes (u (x) v)|target> and has identical
    worst-case metrics, so optimality travels with the target under
    local unitaries.
    """
    if strategy.dim != 4:
        raise BadDimError("local_transport handles two qubit strategies")
    u = _check_unitary(u, "u")
    v = _check_unitary(v, "v")
    big = np.kron(u, v)
    new_settings = tuple(
        MeasurementSetting(
            projector=HermitianOperator(big @ s.projector.entries @ big.conj().T),
            weight=s.weight,
            label=s.label,
            locality=s.locality,
        )
        for s in strategy.settings
    )
    return Strategy(
        target=Ket(big @ strategy.target.amplitudes),
        settings=new_settings,
        kind=strategy.kind,
        theta=strategy.theta,
    )


def exact_sample_count(
    strategy: Strategy, epsilon: float, delta: float
) -> SampleCountReport:
    """Copies needed to reject every eps-far state with confidence 1 - delta."""
    return certainty_count_report(
        metrics(strategy), epsilon, delta, f"{strategy.kind.value} strategy"
    )


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]


def _pairs_to_array(pairs, length: int, what: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape != (length, 2):
        raise ValidationError(f"{what} must be a list of {length} [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def to_json_dict(strategy: Strategy) -> dict:
    """Lossless JSON document for a strategy.

    Amplitudes and projector entries are stored as [re, im] pairs whose
    repr round-trips doubles exactly; projectors are flattened row major.
    """
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


def from_json_dict(doc: dict) -> Strategy:
    """Rebuild a strategy from to_json_dict output, revalidating everything.

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
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"malformed strategy document: {type(exc).__name__}: {exc}"
        ) from exc
    if theta is not None and not math.isfinite(theta):
        raise ValidationError(f"strategy document theta {theta!r} is not finite")
    target = Ket(target_amps)
    settings = tuple(
        MeasurementSetting(
            projector=HermitianOperator(flat.reshape(dim, dim)),
            weight=weight,
            label=label,
            locality=locality,
        )
        for flat, weight, label, locality in fields
    )
    return Strategy(target=target, settings=settings, kind=kind, theta=theta)
