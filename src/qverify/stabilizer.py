"""Signed Pauli strings, stabilizer groups, and their verification strategies.

A stabilizer state on n qubits is fixed by a maximal abelian group of
2^n signed Pauli strings (not containing -identity). Measuring a group
element M and accepting on outcome +1 realizes the pass projector
(1 + M)/2 with one local Pauli measurement per qubit. Two mixtures are
provided:

* full_strategy: all 2^n - 1 non-identity elements, equal weights.
  Worst-case orthogonal acceptance q = (2^(n-1) - 1)/(2^n - 1), which
  approaches 1/2 from below as n grows.
* generator_strategy: only the n generators, equal weights. q = 1 - 1/n,
  approaching 1. Fewer distinct settings, but the copy count grows
  linearly in n.

Pauli strings are encoded symplectically: bit vectors x, z (qubit 0 is
the leftmost letter and the most significant bit of a basis index) with
a sign, the operator being sign times the tensor product of
i^(x_k z_k) X^(x_k) Z^(z_k) over qubits, so (1,1) is Y exactly. As
integer masks it is i^phase X^x Z^z: basis index b goes to b ^ x with
coefficient i^phase (-1)^|b & z|.

Syndromes. Tests built from group elements are diagonal in the joint
eigenbasis. Element index m holds generator j at bit j (least significant
first), as does a syndrome s in element-index order, whose bit j is set
when generator j has eigenvalue -1. Element m passes (eigenvalue +1)
exactly when |m & s| is even. ParityCheck columns hold generator j at
bit N-1-j (most significant first); _pass_table alone converts.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qcore
from .errors import (
    BadDimError,
    DependentGeneratorsError,
    InconsistentSignsError,
    NonCommutingError,
    ValidationError,
)
from .qcore import MAX_QUBITS, TOL_DERIVED, HermitianOperator, Ket
from .samplecount import SampleCountReport, certainty_count_report
from .strategy import (
    Locality,
    MeasurementSetting,
    Strategy,
    StrategyKind,
    StrategyMetrics,
)

MAX_DENSE_QUBITS = 6

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {bits: letter for letter, bits in _LETTER_TO_BITS.items()}

# i^phase for phase = 0, 1, 2, 3.
_PHASES = np.array([1, 1j, -1, -1j])


def _parity(values):
    """Parity of the set bits of each entry (entries below 2^32)."""
    v = np.asarray(values, dtype=np.int64)
    for shift in (16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def _act(x, z, coeff, index):
    """(image, coefficient) of basis index (or index array) under coeff X^x Z^z."""
    return index ^ x, coeff * (1 - 2 * _parity(index & z))


@dataclass(frozen=True)
class PauliString:
    """A signed n qubit Pauli operator in symplectic encoding."""

    x: tuple[int, ...]
    z: tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if len(self.x) != len(self.z):
            raise ValidationError("x and z bit vectors differ in length")
        if not self.x:
            raise ValidationError("empty Pauli string")
        if len(self.x) > MAX_QUBITS:
            raise BadDimError(f"more than {MAX_QUBITS} qubits")
        if not set(self.x + self.z) <= {0, 1}:
            raise ValidationError("x and z must hold 0/1 bits")
        if self.sign not in (1, -1):
            raise ValidationError(f"sign must be +1 or -1, got {self.sign!r}")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse labels like 'XXI', '-YZ', '+ZZ'."""
        sign = 1
        body = label
        if body.startswith(("+", "-")):
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise ValidationError(f"no Pauli letters in {label!r}")
        try:
            bits = [_LETTER_TO_BITS[ch] for ch in body]
        except KeyError as exc:
            raise ValidationError(f"bad Pauli letter in {label!r}: {exc}") from exc
        return cls(
            x=tuple(b[0] for b in bits), z=tuple(b[1] for b in bits), sign=sign
        )

    @cached_property
    def _masks(self) -> tuple[int, int, int]:
        """(x, z, phase): the operator is i^phase X^x Z^z, qubit 0 the top bit."""
        x = int("".join(str(int(b)) for b in self.x), 2)
        z = int("".join(str(int(b)) for b in self.z), 2)
        return x, z, ((x & z).bit_count() + (1 - self.sign)) % 4

    @property
    def num_qubits(self) -> int:
        return len(self.x)

    @property
    def label(self) -> str:
        letters = "".join(_BITS_TO_LETTER[xz] for xz in zip(self.x, self.z))
        return ("-" if self.sign < 0 else "") + letters

    @property
    def is_identity_letters(self) -> bool:
        return not any(self.x) and not any(self.z)

    def weight(self) -> int:
        """Number of non-identity letters."""
        x, z, _ = self._masks
        return (x | z).bit_count()

    def commutes(self, other: "PauliString") -> bool:
        if other.num_qubits != self.num_qubits:
            raise BadDimError("qubit counts differ")
        xa, za, _ = self._masks
        xb, zb, _ = other._masks
        return ((xa & zb) ^ (za & xb)).bit_count() % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product; the result must again be Hermitian."""
        if other.num_qubits != self.num_qubits:
            raise BadDimError("qubit counts differ")
        xa, za, pa = self._masks
        xb, zb, pb = other._masks
        x, z = xa ^ xb, za ^ zb
        # Z^za X^xb = (-1)^|za & xb| X^xb Z^za
        phase = (pa + pb + 2 * (za & xb).bit_count()) % 4
        sign_phase = (phase - (x & z).bit_count()) % 4
        if sign_phase % 2:
            raise InconsistentSignsError(
                f"product of {self.label} and {other.label} is anti-Hermitian"
            )
        out = PauliString(
            x=tuple(map(operator.xor, self.x, other.x)),
            z=tuple(map(operator.xor, self.z, other.z)),
            sign=1 if sign_phase == 0 else -1,
        )
        out.__dict__["_masks"] = (x, z, phase)  # cached: no re-derivation
        return out

    def apply_to_index(self, index: int) -> tuple[int, complex]:
        """Image of a computational basis state: M|index> = coeff |new_index>."""
        x, z, phase = self._masks
        new_index, coeff = _act(x, z, _PHASES[phase], index)
        return int(new_index), complex(coeff)

    def matrix(self) -> np.ndarray:
        """Dense matrix; guarded to keep memory bounded."""
        n = self.num_qubits
        if n > MAX_DENSE_QUBITS + 2:
            raise BadDimError(
                f"dense Pauli matrix limited to {MAX_DENSE_QUBITS + 2} qubits"
            )
        x, z, phase = self._masks
        cols = np.arange(2**n)
        rows, coeffs = _act(x, z, _PHASES[phase], cols)
        out = np.zeros((2**n, 2**n), dtype=complex)
        out[rows, cols] = coeffs
        return out


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    pool = list(rows)
    while pool:
        pivot = max(pool)
        if pivot == 0:
            break
        rank += 1
        top_bit = pivot.bit_length() - 1
        pool = [r ^ pivot if (r >> top_bit) & 1 else r for r in pool if r != pivot]
    return rank


def _pass_table(num_qubits: int) -> np.ndarray:
    """Entry (m, k) is 1 iff element m has eigenvalue +1 on ParityCheck column k.

    Reversing k's N bits gives syndrome s in element-index order; element
    m passes exactly when |m & s| is even.
    """
    n = num_qubits
    k = np.arange(2**n)
    s = sum(((k >> (n - 1 - j)) & 1) << j for j in range(n))
    return (1 - _parity(k[:, None] & s)).astype(np.int8)


@dataclass(frozen=True, eq=False)
class StabilizerGroup:
    """Abelian group generated by independent signed Pauli strings."""

    generators: tuple[PauliString, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValidationError("need at least one generator")
        n = self.generators[0].num_qubits
        for g in self.generators:
            if g.num_qubits != n:
                raise BadDimError("generators act on different qubit counts")
            if g.is_identity_letters:
                raise DependentGeneratorsError(f"{g.label} is the identity")
        for a, b in itertools.combinations(self.generators, 2):
            if not a.commutes(b):
                raise NonCommutingError(f"{a.label} and {b.label} anticommute")
        rows = [(g._masks[0] << n) | g._masks[1] for g in self.generators]
        if _gf2_rank(rows) != len(rows):
            raise DependentGeneratorsError(
                "generators are dependent as a GF(2) system"
            )

    @property
    def num_qubits(self) -> int:
        return self.generators[0].num_qubits

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def is_maximal(self) -> bool:
        return self.num_generators == self.num_qubits

    @cached_property
    def elements(self) -> tuple[PauliString, ...]:
        """All 2^k products; index m multiplies the generators in m's bits.

        Bit j of m (j = 0 is the first generator) selects generator j.
        Element 0 is the identity with sign +1.
        """
        n = self.num_qubits
        identity = PauliString(x=(0,) * n, z=(0,) * n, sign=1)
        out = [identity]
        for j, g in enumerate(self.generators):
            out.extend([prev * g for prev in out[: 1 << j]])
        for elem in out[1:]:
            if elem.is_identity_letters:
                raise InconsistentSignsError(
                    "group contains -identity; no state is stabilized"
                )
        return tuple(out)

    def _joint_eigenvector(self, eigenvalues) -> np.ndarray:
        """Unit vector on which element m has eigenvalue eigenvalues[m] (+-1).

        Projects basis vectors with (1/2^k) sum_m eigenvalues[m] g_m, for
        syndrome s the projector (1/2^k) sum_m (-1)^|m & s| g_m; the first
        nonzero projection (an exact dyadic sum) is used, phase fixed.
        """
        xs, zs, phases = np.array([e._masks for e in self.elements]).T
        weighted = np.asarray(eigenvalues) * _PHASES[phases] / len(xs)
        dim = 2**self.num_qubits
        batch = max(1, 2**MAX_QUBITS // len(xs))  # starts projected at once
        for first in range(0, dim, batch):
            starts = np.arange(first, min(first + batch, dim))[:, None]
            rows, terms = _act(xs, zs, weighted, starts)
            amps = np.zeros((len(starts), dim), dtype=complex)
            np.add.at(amps, (np.arange(len(starts))[:, None], rows), terms)
            for vec in amps:
                norm = float(np.linalg.norm(vec))
                if norm > TOL_DERIVED:
                    return qcore._fix_phase(vec / norm)
        raise InconsistentSignsError("group projects every basis state to zero")

    def state(self) -> Ket:
        """The unique stabilized state of a maximal group (syndrome 0)."""
        if not self.is_maximal:
            raise ValidationError(
                f"{self.num_generators} generators on {self.num_qubits} qubits "
                "do not pin down a single state"
            )
        return Ket(self._joint_eigenvector(np.ones(len(self.elements))))


def ghz_group(num_qubits: int) -> StabilizerGroup:
    """Stabilizer group of (|0...0> + |1...1>)/sqrt(2): X...X and ZZ pairs."""
    if not 2 <= num_qubits <= MAX_QUBITS:
        raise BadDimError(f"num_qubits must be in [2, {MAX_QUBITS}]")
    gens = [PauliString.from_label("X" * num_qubits)]
    for k in range(num_qubits - 1):
        label = "I" * k + "ZZ" + "I" * (num_qubits - k - 2)
        gens.append(PauliString.from_label(label))
    return StabilizerGroup(generators=tuple(gens))


def ghz_state(num_qubits: int) -> Ket:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return Ket(amps)


def cluster_group(num_qubits: int) -> StabilizerGroup:
    """Linear cluster state: X on each site flanked by Z on its neighbors."""
    if not 2 <= num_qubits <= MAX_QUBITS:
        raise BadDimError(f"num_qubits must be in [2, {MAX_QUBITS}]")
    gens = []
    for k in range(num_qubits):
        letters = ["I"] * num_qubits
        letters[k] = "X"
        if k > 0:
            letters[k - 1] = "Z"
        if k < num_qubits - 1:
            letters[k + 1] = "Z"
        gens.append(PauliString.from_label("".join(letters)))
    return StabilizerGroup(generators=tuple(gens))


def all_zeros_group(num_qubits: int) -> StabilizerGroup:
    """Stabilizer group of |0...0>: one Z per qubit."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise BadDimError(f"num_qubits must be in [1, {MAX_QUBITS}]")
    gens = []
    for k in range(num_qubits):
        letters = ["I"] * num_qubits
        letters[k] = "Z"
        gens.append(PauliString.from_label("".join(letters)))
    return StabilizerGroup(generators=tuple(gens))


def preset_group(name: str) -> StabilizerGroup:
    """Named group presets: 'bell', 'ghzN', 'clusterN', 'zerosN'."""
    lowered = name.strip().lower()
    if lowered == "bell":
        return ghz_group(2)
    for prefix, builder in (
        ("ghz", ghz_group),
        ("cluster", cluster_group),
        ("zeros", all_zeros_group),
    ):
        if lowered.startswith(prefix) and lowered[len(prefix) :].isdigit():
            return builder(int(lowered[len(prefix) :]))
    raise ValidationError(
        f"unknown preset {name!r}; use bell, ghzN, clusterN, or zerosN"
    )


def group_to_json(group: StabilizerGroup) -> list[str]:
    """Generator labels; parseable back with group_from_json."""
    return [g.label for g in group.generators]


def group_from_json(labels) -> StabilizerGroup:
    return StabilizerGroup(
        generators=tuple(PauliString.from_label(str(lab)) for lab in labels)
    )


def full_strategy_q(num_qubits: int) -> float:
    """Worst-case orthogonal acceptance of the all-elements mixture."""
    return (2 ** (num_qubits - 1) - 1) / (2**num_qubits - 1)


def generator_strategy_q(num_generators: int) -> float:
    """Worst-case orthogonal acceptance of the generators-only mixture."""
    return 1.0 - 1.0 / num_generators


def _pass_setting(elem: PauliString, weight: float) -> MeasurementSetting:
    projector = HermitianOperator(
        (np.eye(2**elem.num_qubits, dtype=complex) + elem.matrix()) / 2.0
    )
    return MeasurementSetting(
        projector=projector,
        weight=weight,
        label=elem.label,
        locality=Locality.STABILIZER_PAULI,
    )


def _require_dense(group: StabilizerGroup, what: str) -> None:
    if not group.is_maximal:
        raise ValidationError(f"{what} needs a maximal group")
    if group.num_qubits > MAX_DENSE_QUBITS:
        raise BadDimError(
            f"{what} materializes dense projectors; "
            f"limited to {MAX_DENSE_QUBITS} qubits. "
            "Use stabilizer_metrics / stabilizer_sample_count instead."
        )


def full_strategy(group: StabilizerGroup) -> Strategy:
    """Equal mixture of all non-identity element pass tests (dense)."""
    _require_dense(group, "full_strategy")
    elems = group.elements[1:]
    weight = 1.0 / len(elems)
    settings = tuple(_pass_setting(e, weight) for e in elems)
    return Strategy(
        target=group.state(), settings=settings, kind=StrategyKind.STABILIZER_FULL
    )


def generator_strategy(group: StabilizerGroup) -> Strategy:
    """Equal mixture of the generator pass tests (dense)."""
    _require_dense(group, "generator_strategy")
    weight = 1.0 / group.num_generators
    settings = tuple(_pass_setting(g, weight) for g in group.generators)
    return Strategy(
        target=group.state(),
        settings=settings,
        kind=StrategyKind.STABILIZER_GENERATORS,
    )


def stabilizer_metrics(group: StabilizerGroup, scheme: str) -> StrategyMetrics:
    """Closed-form metrics for either scheme, any qubit count up to the cap.

    Every orthogonal eigenstate of the joint measurement fails at least
    one group element; counting passed elements per syndrome gives the
    exact worst case without dense algebra.
    """
    if not group.is_maximal:
        raise ValidationError("stabilizer_metrics needs a maximal group")
    n = group.num_qubits
    if scheme == "full":
        q = full_strategy_q(n)
    elif scheme == "generators":
        q = generator_strategy_q(n)
    else:
        raise ValidationError(f"scheme={scheme!r} must be 'full' or 'generators'")
    return StrategyMetrics(q=q, trace=2 ** (n - 1), second_eigenvalue_gap=1.0 - q)


def stabilizer_sample_count(
    group: StabilizerGroup, scheme: str, epsilon: float, delta: float
) -> SampleCountReport:
    """Copy count for a stabilizer scheme from the closed-form gap."""
    return certainty_count_report(
        stabilizer_metrics(group, scheme),
        epsilon,
        delta,
        f"stabilizer-{scheme} strategy",
    )


@dataclass(frozen=True, eq=False)
class ParityCheck:
    """Joint eigenbasis of a maximal group, indexed by syndrome.

    Column k of eigenbasis is the joint eigenvector on which generator j
    has eigenvalue -1 exactly when bit N-1-j of k is set (generator 0 is
    the most significant bit). Column 0 is the stabilized state.
    """

    group: StabilizerGroup
    eigenbasis: np.ndarray

    @classmethod
    def build(cls, group: StabilizerGroup) -> "ParityCheck":
        if not group.is_maximal:
            raise ValidationError("parity check needs a maximal group")
        n = group.num_qubits
        if n > MAX_DENSE_QUBITS:
            raise BadDimError(
                f"dense parity check limited to {MAX_DENSE_QUBITS} qubits"
            )
        columns = [group._joint_eigenvector(2 * p - 1) for p in _pass_table(n).T]
        basis = np.column_stack(columns)
        residual = float(np.max(np.abs(basis.conj().T @ basis - np.eye(2**n))))
        if residual > TOL_DERIVED:
            raise ValidationError(
                f"syndrome eigenbasis not orthonormal (residual {residual!r})"
            )
        basis.setflags(write=False)
        return cls(group=group, eigenbasis=basis)

    @property
    def dim(self) -> int:
        return self.eigenbasis.shape[0]

    def eigenvalue(self, generator_index: int, syndrome: int) -> int:
        return 1 if self.matrix[generator_index, syndrome] else -1

    @property
    def matrix(self) -> np.ndarray:
        """Binary pass table: entry (j, k) is 1 iff generator j fixes column k."""
        n = self.group.num_qubits
        return _pass_table(n)[1 << np.arange(n)]

    def weighted_pass(self, weights) -> np.ndarray:
        """Per column acceptance E_k = sum_j mu_j [generator j passes k]."""
        mu = np.asarray(weights, dtype=float)
        if mu.shape != (self.group.num_qubits,):
            raise ValidationError("one weight per generator required")
        return mu @ self.matrix

    @property
    def special_columns(self) -> tuple[int, ...]:
        """Columns failing exactly one generator; there are always N of them.

        Under uniform weights these are the best fooling candidates:
        each is accepted with probability 1 - 1/N, which is what makes
        the generator strategy's worst case exactly that value.
        """
        failures = self.group.num_qubits - self.matrix.sum(axis=0)
        return tuple(int(k) for k in np.flatnonzero(failures == 1))


@dataclass(frozen=True, eq=False)
class SubsetReport:
    """A strategy built from chosen group elements, with degeneracy evidence.

    When the chosen elements do not generate the whole group, some
    state orthogonal to the target passes every chosen test with
    certainty; strategy remains well formed, but no number of copies
    can reject the fooling state, and degenerate is True. indices are
    the sorted distinct element indices the strategy was built from.
    """

    indices: tuple[int, ...]
    strategy: Strategy
    degenerate: bool
    stabilized_dimension: int
    fooling_state: Ket | None
    fooling_acceptance: float | None


def subset_strategy(group: StabilizerGroup, element_indices) -> SubsetReport:
    """Equal-weight strategy from a subset of non-identity elements.

    element_indices index into group.elements. The GF(2) rank of the
    chosen index masks determines the subgroup they generate: rank N
    gives a sound strategy, rank r < N leaves a 2^(N-r) dimensional
    stabilized space and the report certifies a fooling state from the
    joint eigenbasis.
    """
    _require_dense(group, "subset_strategy")
    n = group.num_qubits
    indices = sorted(set(int(k) for k in element_indices))
    if not indices:
        raise ValidationError("need at least one element index")
    for k in indices:
        if not 1 <= k < len(group.elements):
            raise ValidationError(
                f"element index {k} outside [1, {len(group.elements) - 1}]"
            )
    rank = _gf2_rank(list(indices))
    weight = 1.0 / len(indices)
    settings = tuple(_pass_setting(group.elements[k], weight) for k in indices)
    strategy = Strategy(
        target=group.state(), settings=settings, kind=StrategyKind.CUSTOM
    )
    if rank == n:
        return SubsetReport(
            indices=tuple(indices),
            strategy=strategy,
            degenerate=False,
            stabilized_dimension=1,
            fooling_state=None,
            fooling_acceptance=None,
        )
    table = _pass_table(n)
    passing = np.flatnonzero(table[indices].all(axis=0))
    if passing.size < 2:
        raise ValidationError("rank deficit without a fooling syndrome")
    # passing[0] is syndrome 0, the target itself
    fooling = Ket(group._joint_eigenvector(2 * table[:, passing[1]] - 1))
    acceptance = float(
        np.vdot(fooling.amplitudes, strategy.omega @ fooling.amplitudes).real
    )
    return SubsetReport(
        indices=tuple(indices),
        strategy=strategy,
        degenerate=True,
        stabilized_dimension=2 ** (n - rank),
        fooling_state=fooling,
        fooling_acceptance=acceptance,
    )
