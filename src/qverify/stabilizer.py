"""Signed Pauli strings, stabilizer groups, and their verification strategies.

A stabilizer state on n qubits is fixed by a maximal abelian group of
2^n signed Pauli strings (not containing -identity). Measuring a group
element M and accepting on outcome +1 realizes the pass projector
(1 + M)/2 with one local Pauli measurement per qubit. Two mixtures are
provided:

* full_strategy: all 2^n - 1 non-identity elements, equal weights.
  Worst-case orthogonal acceptance q = (2^(n-1) - 1)/(2^n - 1), which
  approaches 1/2 from below as n grows.
* generator_strategy: only the n generators, equal weights. q = (n-1)/n,
  approaching 1. Fewer distinct settings, but the copy count grows
  linearly in n.

A Pauli string is the operator i^phase X^x Z^z, with x and z integer
bit masks; qubit 0 is the leftmost letter and the most significant bit
of a mask and of a basis index. Basis index b goes to b ^ x with
coefficient i^phase (-1)^|b & z|. XZ = -iY, so a Y letter adds 1 to the
phase, and a label's sign is -1 exactly when phase is |x & z| + 2 mod 4.

Syndromes. Tests built from group elements are diagonal in the joint
eigenbasis. Element index m holds generator j at bit j (least significant
first), as does a syndrome s, whose bit j is set when generator j has
eigenvalue -1. Element m passes (eigenvalue +1) exactly when |m & s| is
even. An equal mixture of k chosen elements is sum_s c(s)/k |s><s|, c(s)
counting the chosen elements that pass s: _pass_counts finds each c(s) by
one integer Walsh-Hadamard transform, and q, trace and degeneracy are read
from it. ParityCheck columns hold generator j at bit N-1-j (most
significant first); _column_syndromes alone converts.

Element table. StabilizerGroup.table holds every element's (x, z, phase)
as one read-only int64 array, built by doubling once per generator, and
every stabilizer number is derived from it by array arithmetic: the
PauliString elements (all checked as one stack), the joint eigenvectors
(all requested syndromes in one pass: each start index is read off a
GF(2) basis of the diagonal elements, and the signed terms are summed
exactly by np.bincount) and each element's permutation of the basis,
which the protocol plan reads a device's density at.

Every strategy here, full, generators or a chosen subset, is a
PauliStrategy made by _report inside its SubsetReport: group, element
indices, kind and pass counts, and no projector. _checked_counts is the
one place its group and element indices are checked, and
stabilizer_metrics reads the counts without a report. Metrics, the
worst-case state and game value (adversary) and the protocol plan read
the counts, the joint eigenvectors or the element table; only those
that are dense 2^N x 2^N results stop at MAX_DENSE_QUBITS. A
ParityCheck checks its group on construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import qcore
from .errors import (
    BadDimError,
    DependentGeneratorsError,
    InconsistentSignsError,
    NonCommutingError,
    QVerifyError,
    ValidationError,
)
from .qcore import MAX_QUBITS, TOL_DERIVED, Ket
from .samplecount import StrategyMetrics
from .strategy import Locality, Strategy, StrategyKind, from_json_dict

# Dense results stop here: a PauliStrategy's worst-case state, game value
# and protocol plan, and the ParityCheck eigenbasis.
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


def _pauli_defect(n, x, z, phase) -> QVerifyError | None:
    """The error of the first PauliString check these fields fail, or None."""
    if not all(isinstance(v, int) for v in (n, x, z, phase)):
        return ValidationError("Pauli string fields must be ints")
    if not 1 <= n <= MAX_QUBITS:
        return BadDimError(f"num_qubits must be in [1, {MAX_QUBITS}]")
    if min(x, z) < 0 or (x | z) >> n:
        return ValidationError(f"x and z masks must lie in [0, 2^{n})")
    if phase not in (0, 1, 2, 3):
        return ValidationError(f"phase must be 0, 1, 2 or 3, got {phase!r}")
    if (phase - (x & z).bit_count()) % 2:
        return InconsistentSignsError(
            f"i^{phase} X^{x:0{n}b} Z^{z:0{n}b} is anti-Hermitian"
        )
    return None


@dataclass(frozen=True)
class PauliString:
    """The n qubit operator i^phase X^x Z^z, x and z integer bit masks.

    Qubit 0 is the leftmost letter and the most significant mask bit. The
    operator is Hermitian, so phase has the parity of |x & z|.
    """

    num_qubits: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        error = _pauli_defect(self.num_qubits, self.x, self.z, self.phase)
        if error is not None:
            raise error

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse labels like 'XXI', '-YZ', '+ZZ'."""
        body = label[1:] if label.startswith(("+", "-")) else label
        if not body:
            raise ValidationError(f"no Pauli letters in {label!r}")
        x = z = 0
        for ch in body:
            if ch not in _LETTER_TO_BITS:
                raise ValidationError(f"bad Pauli letter in {label!r}: {ch!r}")
            xb, zb = _LETTER_TO_BITS[ch]
            x, z = x << 1 | xb, z << 1 | zb
        negative = label.startswith("-")
        return cls(len(body), x, z, ((x & z).bit_count() + 2 * negative) % 4)

    @property
    def sign(self) -> int:
        return 1 if self.phase == (self.x & self.z).bit_count() % 4 else -1

    @property
    def label(self) -> str:
        bits = ((self.x >> k & 1, self.z >> k & 1) for k in range(self.num_qubits))
        letters = "".join(_BITS_TO_LETTER[xz] for xz in bits)[::-1]
        return ("-" if self.sign < 0 else "") + letters

    @property
    def is_identity_letters(self) -> bool:
        return self.x == self.z == 0

    def weight(self) -> int:
        """Number of non-identity letters."""
        return (self.x | self.z).bit_count()

    def commutes(self, other: "PauliString") -> bool:
        if other.num_qubits != self.num_qubits:
            raise BadDimError("qubit counts differ")
        return ((self.x & other.z) ^ (self.z & other.x)).bit_count() % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product; the constructor rejects an anti-Hermitian one."""
        if other.num_qubits != self.num_qubits:
            raise BadDimError("qubit counts differ")
        # Z^za X^xb = (-1)^|za & xb| X^xb Z^za
        phase = self.phase + other.phase + 2 * (self.z & other.x).bit_count()
        return PauliString(
            self.num_qubits, self.x ^ other.x, self.z ^ other.z, phase % 4
        )


def _gf2_reduce(rows: list[int], low_bits: int = 0) -> tuple[int, list[int]]:
    """(rank, rest) of GF(2) elimination pivoting only on bits >= low_bits;
    rest holds the reduced rows left without such bits."""
    rank, pool = 0, list(rows)
    while pool and max(pool) >> low_bits:
        pivot = max(pool)
        rank += 1
        top_bit = pivot.bit_length() - 1
        pool = [r ^ pivot if (r >> top_bit) & 1 else r for r in pool if r != pivot]
    return rank, pool


def _gf2_rank(rows: list[int]) -> int:
    return _gf2_reduce(rows)[0]


def _column_syndromes(num_qubits: int) -> np.ndarray:
    """Syndrome of each ParityCheck column: column k's N bits reversed."""
    n = num_qubits
    k = np.arange(2**n)
    return sum(((k >> (n - 1 - j)) & 1) << j for j in range(n))


def _pass_rows(masks, num_qubits: int) -> np.ndarray:
    """Entry (i, k) is 1 iff element masks[i] has eigenvalue +1 on column k."""
    m = np.asarray(masks)[:, None]
    return (1 - _parity(m & _column_syndromes(num_qubits))).astype(np.int8)


def _pass_counts(indices, num_qubits: int) -> np.ndarray:
    """Entry s counts the chosen element indices m with |m & s| even.

    (H 1_S)(s) = sum_{m in S} (-1)^|m & s|, the Walsh-Hadamard transform of
    the indicator of the k chosen indices, is passes minus failures at s.
    """
    counts = np.zeros(2**num_qubits, dtype=np.int64)
    counts[np.asarray(indices, dtype=np.int64)] = 1
    half = 1
    while half < counts.size:
        low, high = counts.reshape(-1, 2, half).transpose(1, 0, 2)
        low += high  # (a, b) -> (a + b, a - b)
        high *= -2
        high += low
        half *= 2
    return (counts[0] + counts) // 2  # (k + passes - failures) / 2, k = H 1_S(0)


def _count_metrics(counts: np.ndarray) -> StrategyMetrics:
    """q, trace and gap of the equal mixture with these pass counts (counts[0] = k)."""
    k = int(counts[0])
    q = int(counts[1:].max()) / k
    return StrategyMetrics(q, int(counts.sum()) / k, 1.0 - q)


def _checked_strings(n: int, table: np.ndarray) -> tuple[PauliString, ...]:
    """The PauliStrings on n qubits whose (x, z, phase) are table's columns.

    Every PauliString check runs once over the whole table, and the first
    failing column raises the error its constructor would; the strings
    are then assembled without checking each a second time.
    """
    xs, zs, phases = table
    bad = np.ones(table.shape[1], dtype=bool)
    if isinstance(n, int) and 1 <= n <= MAX_QUBITS and table.dtype.kind == "i":
        bad = (
            (np.minimum(xs, zs) < 0)
            | ((xs | zs) >> n > 0)
            | (phases & ~3 != 0)
            | ((phases ^ _parity(xs & zs)) & 1 == 1)
        )
    if bad.any():
        raise _pauli_defect(n, *table[:, int(bad.argmax())].tolist())
    return tuple(
        qcore._assembled(PauliString, num_qubits=n, x=x, z=z, phase=phase)
        for x, z, phase in zip(*table.tolist())
    )


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
        # Independent (x, z) rows also keep -identity out of the group: a
        # nonempty product with identity letters would XOR rows to zero.
        rows = [(g.x << n) | g.z for g in self.generators]
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
    def table(self) -> np.ndarray:
        """Read-only int64 rows (xs, zs, phases); column m holds element m.

        Built by doubling: the 2^j columns from generators 0..j-1, each
        times generator j, by PauliString.__mul__'s rule.
        """
        xs, zs, phases = table = np.zeros((3, 1 << self.num_generators), dtype=np.int64)
        for j, g in enumerate(self.generators):
            lo, hi = slice(0, 1 << j), slice(1 << j, 2 << j)
            xs[hi] = xs[lo] ^ g.x
            zs[hi] = zs[lo] ^ g.z
            # Z^za X^xb = (-1)^|za & xb| X^xb Z^za
            phases[hi] = (phases[lo] + g.phase + 2 * _parity(zs[lo] & g.x)) % 4
        table.setflags(write=False)
        return table

    @cached_property
    def elements(self) -> tuple[PauliString, ...]:
        """All 2^k products; index m multiplies the generators in m's bits.

        Bit j of m (j = 0 is the first generator) selects generator j.
        Element 0 is the identity with sign +1. The strings are the
        table's columns, each given every PauliString check as one stack.
        """
        return _checked_strings(self.num_qubits, self.table)

    def _joint_eigenvectors(self, syndromes) -> np.ndarray:
        """Row i: unit vector on which element m has eigenvalue (-1)^|m & syndromes[i]|.

        Row i projects one basis vector b with (1/2^k) sum_m (-1)^|m & s| g_m.
        The projection is nonzero exactly when every diagonal element
        (x_m = 0) has on b the eigenvalue s asks of it, which is checked on
        a GF(2) basis of them; the first such b is used. The amplitudes are
        exact dyadic sums, so their order does not matter. Each row is
        then normalized and its phase fixed.
        """
        xs, zs, phases = self.table
        dim = 2**self.num_qubits
        syndromes = np.asarray(syndromes, dtype=np.int64)
        k = self.num_generators
        # eliminating the x bits of rows (x_j, e_j) leaves a basis of {m : x_m = 0}
        rows = [(g.x << k) | (1 << j) for j, g in enumerate(self.generators)]
        diagonal = np.array(_gf2_reduce(rows, k)[1], dtype=np.int64)
        place = 1 << np.arange(len(diagonal))
        # the eigenvalue bits, one per diagonal basis element, that each
        # basis index b shows ((-1)^(phase_m / 2 + |b & z_m|)) and each
        # syndrome asks for ((-1)^|m & s|)
        shown = _parity(np.arange(dim)[:, None] & zs[diagonal])
        shown = (shown ^ (phases[diagonal] >> 1)) @ place
        asked = _parity(syndromes[:, None] & diagonal) @ place
        starts = (shown == asked[:, None]).argmax(axis=1)
        if (shown[starts] != asked).any():
            raise InconsistentSignsError("group projects every basis state to zero")
        # (-1)^|m & s| from the projector times (-1)^|b & z_m| from g_m on b
        signs = 1 - 2 * _parity(
            (syndromes[:, None] & np.arange(len(xs))) ^ (starts[:, None] & zs)
        )
        flat = (np.arange(len(starts)) * dim)[:, None] + (starts[:, None] ^ xs)
        amps = np.empty((len(starts), dim), dtype=complex)
        for part, unit in ((amps.real, _PHASES.real), (amps.imag, _PHASES.imag)):
            weights = (signs * unit[phases] / len(xs)).ravel()
            part[:] = np.bincount(flat.ravel(), weights, amps.size).reshape(amps.shape)
        rows = [qcore._fix_phase(v / float(np.linalg.norm(v))) for v in amps]
        return np.array(rows, dtype=complex).reshape(len(starts), dim)

    def state(self) -> Ket:
        """The unique stabilized state of a maximal group (syndrome 0)."""
        if not self.is_maximal:
            raise ValidationError(
                f"{self.num_generators} generators on {self.num_qubits} qubits "
                "do not pin down a single state"
            )
        return Ket(self._joint_eigenvectors([0])[0])


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


_SCHEMES = {"full": StrategyKind.STABILIZER_FULL, "generators": StrategyKind.STABILIZER_GENERATORS}


def _scheme_indices(group: StabilizerGroup, kind: StrategyKind) -> np.ndarray:
    k = group.num_generators
    return np.arange(1, 1 << k) if kind is StrategyKind.STABILIZER_FULL else 1 << np.arange(k)


def full_strategy(group: StabilizerGroup) -> "PauliStrategy":
    """Equal mixture of all non-identity element pass tests."""
    kind = StrategyKind.STABILIZER_FULL
    return _report(group, _scheme_indices(group, kind).tolist(), kind).strategy


def generator_strategy(group: StabilizerGroup) -> "PauliStrategy":
    """Equal mixture of the generator pass tests."""
    kind = StrategyKind.STABILIZER_GENERATORS
    return _report(group, _scheme_indices(group, kind).tolist(), kind).strategy


def stabilizer_metrics(group: StabilizerGroup, scheme: str) -> StrategyMetrics:
    """Exact metrics of the 'full' or 'generators' scheme from syndrome counts.

    Works up to MAX_QUBITS; samplecount.certainty_count_report turns them
    into copy counts.
    """
    if scheme not in _SCHEMES:
        raise ValidationError(f"scheme={scheme!r} must be 'full' or 'generators'")
    return _count_metrics(_checked_counts(group, _scheme_indices(group, _SCHEMES[scheme])))


@dataclass(frozen=True, eq=False)
class ParityCheck:
    """Pass bits and joint eigenbasis of a maximal group, indexed by column.

    Column k is the joint eigenvector on which generator j has eigenvalue
    -1 exactly when bit N-1-j of k is set (generator 0 is the most
    significant bit); column 0 is the stabilized state. matrix and
    special_columns work in syndrome space up to MAX_QUBITS; matrix and
    the dense eigenbasis are built on first access and kept read-only,
    the eigenbasis limited to MAX_DENSE_QUBITS.
    """

    group: StabilizerGroup

    def __post_init__(self):
        if not self.group.is_maximal:
            raise ValidationError("parity check needs a maximal group")

    @classmethod
    def build(cls, group: StabilizerGroup) -> "ParityCheck":
        return cls(group=group)

    @cached_property
    def eigenbasis(self) -> np.ndarray:
        """Dense joint eigenbasis, one column per syndrome column k."""
        n = self.group.num_qubits
        if n > MAX_DENSE_QUBITS:
            raise BadDimError(
                f"dense parity-check eigenbasis limited to {MAX_DENSE_QUBITS} qubits"
            )
        rows = self.group._joint_eigenvectors(_column_syndromes(n))
        basis = np.ascontiguousarray(rows.T)
        residual = float(np.max(np.abs(basis.conj().T @ basis - np.eye(2**n))))
        if residual > TOL_DERIVED:
            raise ValidationError(
                f"syndrome eigenbasis not orthonormal (residual {residual!r})"
            )
        basis.setflags(write=False)
        return basis

    @property
    def dim(self) -> int:
        return 2**self.group.num_qubits

    def eigenvalue(self, generator_index: int, column: int) -> int:
        """Eigenvalue of generator generator_index on ParityCheck column column."""
        qcore.check_index("generator index", generator_index, self.group.num_qubits)
        qcore.check_index("column", column, self.dim)
        return 1 if self.matrix[generator_index, column] else -1

    @cached_property
    def matrix(self) -> np.ndarray:
        """Binary pass table: entry (j, k) is 1 iff generator j fixes column k."""
        n = self.group.num_qubits
        table = _pass_rows(1 << np.arange(n), n)
        table.setflags(write=False)
        return table

    @property
    def special_columns(self) -> tuple[int, ...]:
        """Columns failing exactly one generator; there are always N of them.

        Under uniform weights these are the best fooling candidates:
        each is accepted with probability 1 - 1/N, which is what makes
        the generator strategy's worst case exactly that value.
        """
        passed = self.matrix.sum(axis=0)
        return tuple(int(k) for k in np.flatnonzero(passed == self.group.num_qubits - 1))


class PauliTest(NamedTuple):
    """One setting of a PauliStrategy: the pass test (1 + M)/2 of group
    element index, with no matrix."""

    label: str
    weight: float
    locality: Locality
    index: int


@dataclass(frozen=True, eq=False)
class PauliStrategy:
    """Equal mixture of the pass tests (1 + P_m)/2 of chosen group elements.

    It holds its group, the element indices, its kind and the pass
    counts (counts[s] = c(s), read-only) it computes from them, and no
    projector: Omega = sum_s c(s)/k |s><s| in the joint eigenbasis, so
    metrics read the counts. A full or generators strategy must list
    that scheme's indices, a custom one sorted distinct integers; the
    group must be maximal. target, settings and metrics are made on
    first read. The dense results built from it (adversary's worst-case
    state and game value, protocol's plan) are limited to
    MAX_DENSE_QUBITS; see check_dense.
    """

    group: StabilizerGroup
    indices: tuple[int, ...]
    kind: StrategyKind
    counts: np.ndarray = field(init=False, repr=False)
    theta = None

    def __post_init__(self):
        indices, kind = list(self.indices), self.kind
        ints = all(type(m) is int for m in indices)
        if kind in _SCHEMES.values():
            expected = _scheme_indices(self.group, kind).tolist()
        else:
            expected = sorted(set(indices)) if ints and kind is StrategyKind.CUSTOM else None
        if not ints or indices != expected:
            name = kind.value if isinstance(kind, StrategyKind) else repr(kind)
            raise ValidationError(f"{indices} are not the element indices of a {name} strategy")
        counts = _checked_counts(self.group, indices)
        counts.setflags(write=False)
        object.__setattr__(self, "indices", tuple(indices))
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return 2**self.group.num_qubits

    @cached_property
    def target(self) -> Ket:
        return self.group.state()

    @cached_property
    def settings(self) -> tuple[PauliTest, ...]:
        """One test per chosen element; only those k elements are assembled."""
        weight, group = 1.0 / len(self.indices), self.group
        chosen = _checked_strings(group.num_qubits, group.table[:, list(self.indices)])
        return tuple(
            PauliTest(p.label, weight, Locality.STABILIZER_PAULI, m)
            for p, m in zip(chosen, self.indices)
        )

    @cached_property
    def metrics(self) -> StrategyMetrics:
        return _count_metrics(self.counts)

    def invariant_defect(self) -> str | None:
        """Why the counts make no strategy operator, or None: Omega fixes the
        target when c(0) = k, and its spectrum c/k lies in [0, 1] when
        0 <= c <= k."""
        k, c = len(self.indices), self.counts
        if c[0] != k or c.min() < 0 or c.max() > k:
            return f"pass counts in [{c.min()}, {c.max()}] with c(0) = {c[0]}, k = {k}"
        return None

    def check_dense(self, what: str) -> None:
        """Raise BadDimError if what, a dense result, exceeds MAX_DENSE_QUBITS."""
        if self.group.num_qubits > MAX_DENSE_QUBITS:
            raise BadDimError(
                f"{what} of a {self.kind.value} strategy is dense and limited to "
                f"{MAX_DENSE_QUBITS} qubits"
            )

    def pass_probabilities(self, sigma: np.ndarray) -> np.ndarray:
        """(1 + Re tr(sigma P_m))/2 for each chosen element m, in O(k 2^N):
        P_m|b> = coefficient |image>, so tr(sigma P_m) sums
        sigma[b, image] coefficient over b."""
        xs, zs, phases = self.group.table[:, np.asarray(self.indices)]
        cols = np.arange(self.dim)
        images, coeffs = _act(xs[:, None], zs[:, None], _PHASES[phases][:, None], cols)
        return (1.0 + (sigma[cols, images] * coeffs).sum(axis=1).real) / 2.0


@dataclass(frozen=True, eq=False)
class SubsetReport:
    """Equal mixture of chosen group elements, with degeneracy evidence.

    If the chosen elements do not generate the group, an orthogonal state
    passes every chosen test: degenerate is True, metrics.q is 1, and no
    number of copies rejects the fooling state. strategy holds the group,
    the sorted distinct element indices, the kind of strategy they make
    and their pass counts. Every field is read from syndrome counts and
    works to MAX_QUBITS.
    """

    strategy: PauliStrategy
    degenerate: bool
    stabilized_dimension: int
    fooling_state: Ket | None
    fooling_acceptance: float | None


def _checked_counts(group: StabilizerGroup, indices) -> np.ndarray:
    """_pass_counts of these element indices; the one place a stabilizer
    strategy's group and element indices are checked."""
    if not group.is_maximal:
        raise ValidationError("a stabilizer strategy needs a maximal group")
    n = group.num_qubits
    chosen = np.asarray(indices)
    if not chosen.size:
        raise ValidationError("need at least one element index")
    bad = (chosen < 1) | (chosen >= 2**n)
    if bad.any():
        raise ValidationError(f"element index {indices[bad.argmax()]} outside [1, {2**n - 1}]")
    return _pass_counts(chosen, n)


def _report(group: StabilizerGroup, indices, kind: StrategyKind) -> SubsetReport:
    """Report of the equal mixture of these sorted distinct element indices."""
    built = PauliStrategy(group, tuple(indices), kind)
    counts, n = built.counts, group.num_qubits
    k = int(counts[0])
    stabilized = int(np.count_nonzero(counts == k))
    fooling = acceptance = None
    if stabilized > 1:
        # the first passing column after column 0, which is the target itself
        syndromes = _column_syndromes(n)
        syndrome = int(syndromes[np.flatnonzero(counts[syndromes] == k)[1]])
        fooling = Ket(group._joint_eigenvectors([syndrome])[0])
        acceptance = int(counts[syndrome]) / k
    return SubsetReport(
        built, degenerate=stabilized > 1, stabilized_dimension=stabilized,
        fooling_state=fooling, fooling_acceptance=acceptance,
    )


def subset_strategy(group: StabilizerGroup, element_indices) -> SubsetReport:
    """Equal-weight mixture of a subset of non-identity elements.

    element_indices index into group.elements. The joint eigenvectors
    passing every chosen test span the stabilized space: chosen masks of
    GF(2) rank r leave 2^(N-r) of them. Rank N gives a sound strategy;
    below it the report certifies the first passing eigenvector after the
    target as a fooling state.
    """
    indices = sorted(set(int(k) for k in element_indices))
    return _report(group, indices, StrategyKind.CUSTOM)


def strategy_from_json(doc) -> Strategy | PauliStrategy:
    """Rebuild a strategy from strategy.to_json_dict output.

    A document that names a group ({"kind", "group", "indices"}) is a
    PauliStrategy, which checks its kind and indices. Any other document, such as a dense one
    written before output version 5, is read by strategy.from_json_dict.
    """
    if not (isinstance(doc, dict) and "group" in doc):
        return from_json_dict(doc)
    try:
        kind, indices = StrategyKind(doc["kind"]), tuple(doc["indices"])
        group = group_from_json(doc["group"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"malformed strategy document: {type(exc).__name__}: {exc}"
        ) from exc
    return PauliStrategy(group, indices, kind)
