"""Signed Pauli strings, stabilizer groups, and their verification strategies.

A stabilizer state on n qubits is fixed by a maximal abelian group of
2^n signed Pauli strings (not containing -identity); a StabilizerGroup is
always such a group, as its constructor alone checks. Measuring a group
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
PauliString elements, each element's permutation of the basis, which the
protocol plan reads a device's state at, and every stabilizer vector:
each is a column of a signed element sum sum_m c(m) P_m with dyadic c,
whose diagonal and columns _signed_sums gives for a batch of
coefficient rows at once. Only the PauliString constructor checks a
string's fields: the elements and settings are assembled from table
columns unchecked, as products of checked, pairwise commuting Hermitian
Pauli strings are valid Hermitian Pauli strings.

Every strategy here, full, generators or a chosen subset, is a
PauliStrategy: group, element indices, kind and pass counts, and no
projector. Its constructor is the one place a stabilizer strategy's
group, kind and element indices are checked; subset_strategy wraps the
one it builds in a SubsetReport. Metrics, the worst-case state and game
value (adversary) and the protocol plan read the counts, the joint
eigenvectors or the element table and build no 2^N x 2^N array, so they
work to MAX_QUBITS; only the dense ParityCheck eigenbasis stops at
MAX_DENSE_QUBITS.
"""

from __future__ import annotations

import itertools
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
    ValidationError,
)
from .qcore import MAX_QUBITS, TOL_DERIVED, HermitianOperator, Ket
from .samplecount import StrategyMetrics
from .strategy import Locality, Strategy, StrategyKind, _from_json_dict

# The dense ParityCheck eigenbasis stops here.
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
    """The n qubit operator i^phase X^x Z^z, x and z integer bit masks.

    Qubit 0 is the leftmost letter and the most significant mask bit. The
    operator is Hermitian, so phase has the parity of |x & z|. This
    constructor is the one check of a Pauli string's fields.
    """

    num_qubits: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        n, x, z, phase = self.num_qubits, self.x, self.z, self.phase
        if not all(isinstance(v, int) for v in (n, x, z, phase)):
            raise ValidationError("Pauli string fields must be ints")
        if not 1 <= n <= MAX_QUBITS:
            raise BadDimError(f"num_qubits must be in [1, {MAX_QUBITS}]")
        if min(x, z) < 0 or (x | z) >> n:
            raise ValidationError(f"x and z masks must lie in [0, 2^{n})")
        if phase not in (0, 1, 2, 3):
            raise ValidationError(f"phase must be 0, 1, 2 or 3, got {phase!r}")
        if (phase - (x & z).bit_count()) % 2:
            raise InconsistentSignsError(f"i^{phase} X^{x:0{n}b} Z^{z:0{n}b} is anti-Hermitian")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse labels like 'XXI', '-YZ', '+ZZ'."""
        if not isinstance(label, str):
            raise ValidationError(f"a Pauli label is a str, got {label!r}")
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

    def _check_partner(self, other) -> None:
        if not isinstance(other, PauliString):
            raise ValidationError(f"a PauliString's partner is a PauliString, got {other!r}")
        if other.num_qubits != self.num_qubits:
            raise BadDimError("qubit counts differ")

    def commutes(self, other: "PauliString") -> bool:
        self._check_partner(other)
        return ((self.x & other.z) ^ (self.z & other.x)).bit_count() % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product; the constructor rejects an anti-Hermitian one."""
        self._check_partner(other)
        # Z^za X^xb = (-1)^|za & xb| X^xb Z^za
        phase = self.phase + other.phase + 2 * (self.z & other.x).bit_count()
        return PauliString(
            self.num_qubits, self.x ^ other.x, self.z ^ other.z, phase % 4
        )


def _column_syndromes(num_qubits: int) -> np.ndarray:
    """Syndrome of each ParityCheck column: column k's N bits reversed."""
    n = num_qubits
    k = np.arange(2**n)
    return sum(((k >> (n - 1 - j)) & 1) << j for j in range(n))


def _pass_rows(masks, num_qubits: int) -> np.ndarray:
    """Entry (i, k) is 1 iff element masks[i] has eigenvalue +1 on column k."""
    m = np.asarray(masks)[:, None]
    return (1 - _parity(m & _column_syndromes(num_qubits))).astype(np.int8)


def _walsh(values: np.ndarray) -> np.ndarray:
    """v transformed in place along its last axis, a contiguous power of two,
    to (H v)(s) = sum_m v(m) (-1)^|m & s|."""
    half = 1
    while half < values.shape[-1]:
        low, high = values.reshape(-1, 2, half).transpose(1, 0, 2)
        low += high  # (a, b) -> (a + b, a - b)
        high *= -2
        high += low
        half *= 2
    return values


def _pass_counts(indices, num_qubits: int) -> np.ndarray:
    """Entry s counts the chosen element indices m with |m & s| even.

    (H 1_S)(s), the Walsh-Hadamard transform of the indicator of the k
    chosen indices, is passes minus failures at s.
    """
    counts = np.zeros(2**num_qubits, dtype=np.int64)
    counts[np.asarray(indices, dtype=np.int64)] = 1
    counts = _walsh(counts)
    return (counts[0] + counts) // 2  # (k + passes - failures) / 2, k = H 1_S(0)


def _signed_sums(table: np.ndarray, coeffs: np.ndarray, dim: int):
    """(diagonal, columns) of A_i = sum_m coeffs[i, m] P_m for each row i
    of dyadic coefficients over table's elements.

    Only x_m = 0 elements reach the diagonal, so row i of it is one
    Walsh-Hadamard transform of their signed coefficients placed at z_m.
    columns(starts) gives row i = A_i|starts[i]>: one batched _act and one
    np.bincount into interleaved real and imaginary slots. The terms are
    exact dyadics, so their order does not matter.
    """
    xs, zs, phases = table
    signed = coeffs * (1 - (phases & 2))  # c(m) i^phase_m = signed(m) i^(phase_m & 1)
    diagonal = xs == 0
    placed = np.zeros((len(coeffs), dim))
    placed[:, zs[diagonal]] = signed[:, diagonal]

    def columns(starts) -> np.ndarray:
        images, terms = _act(xs, zs, signed, np.asarray(starts)[:, None])
        slots = 2 * (images + dim * np.arange(len(coeffs))[:, None]) + (phases & 1)
        sums = np.bincount(slots.ravel(), terms.ravel(), 2 * dim * len(coeffs))
        return sums.view(complex).reshape(len(coeffs), dim)

    return _walsh(placed), columns


def _count_metrics(counts: np.ndarray) -> StrategyMetrics:
    """q and trace of the equal mixture with these pass counts (counts[0] = k)."""
    k = int(counts[0])
    return StrategyMetrics(int(counts[1:].max()) / k, int(counts.sum()) / k)


def _products(n: int, table: np.ndarray) -> tuple[PauliString, ...]:
    """The PauliStrings on n qubits whose (x, z, phase) are columns of a
    checked group's table: products of its generators, not checked again."""
    return tuple(
        qcore._assembled(PauliString, num_qubits=n, x=x, z=z, phase=phase)
        for x, z, phase in zip(*table.tolist())
    )


@dataclass(frozen=True, eq=False)
class StabilizerGroup:
    """The group of one stabilizer state: N independent, commuting signed
    Pauli strings on N qubits. Its constructor holds every group rule."""

    generators: tuple[PauliString, ...]

    def __post_init__(self):
        gens = tuple(self.generators) if np.iterable(self.generators) else (self.generators,)
        if not all(isinstance(g, PauliString) for g in gens):
            raise ValidationError(f"generators must be PauliStrings, got {self.generators!r}")
        object.__setattr__(self, "generators", gens)
        if not self.generators:
            raise ValidationError("need at least one generator")
        n = self.generators[0].num_qubits
        for g in self.generators:
            if g.num_qubits != n:
                raise BadDimError("generators act on different qubit counts")
            if g.is_identity_letters:
                raise DependentGeneratorsError(f"{g.label} is the identity")
        # Commuting (x, z) rows span at most n dimensions. Checked first,
        # so an oversized list costs neither the pairwise commutation loop
        # nor the table's 2^k columns.
        k = len(self.generators)
        if k > n:
            raise DependentGeneratorsError(f"{k} generators on {n} qubits are dependent")
        for a, b in itertools.combinations(self.generators, 2):
            if not a.commutes(b):
                raise NonCommutingError(f"{a.label} and {b.label} anticommute")
        if k < n:
            raise ValidationError(f"{k} generators on {n} qubits do not pin down a single state")
        # A nonempty product with identity letters means dependent (x, z)
        # rows, or -identity in the group.
        xs, zs, _ = self.table
        if not (xs[1:] | zs[1:]).all():
            raise DependentGeneratorsError("generators are dependent as a GF(2) system")

    @property
    def num_qubits(self) -> int:
        return self.generators[0].num_qubits

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only int64 rows (xs, zs, phases); column m holds element m.

        Built by doubling: the 2^j columns from generators 0..j-1, each
        times generator j, by PauliString.__mul__'s rule.
        """
        xs, zs, phases = table = np.zeros((3, 1 << self.num_qubits), dtype=np.int64)
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
        table's columns, assembled by _products without a second check.
        """
        return _products(self.num_qubits, self.table)

    def _joint_eigenvectors(self, syndromes) -> np.ndarray:
        """Row i: unit vector on which element m has eigenvalue (-1)^|m & syndromes[i]|.

        Row i is the column of the syndrome projector
        (1/2^N) sum_m (-1)^|m & s| P_m at the lowest basis index with the
        largest diagonal, normalized and its phase fixed.
        """
        syndromes = np.asarray(syndromes, dtype=np.int64)
        dim = 2**self.num_qubits
        coeffs = (1 - 2 * _parity(syndromes[:, None] & np.arange(dim))) / dim
        diagonal, columns = _signed_sums(self.table, coeffs, dim)
        rows = [qcore._fix_phase(v / float(np.linalg.norm(v)))
                for v in columns(diagonal.argmax(axis=1))]
        return np.array(rows, dtype=complex).reshape(len(syndromes), dim)

    def state(self) -> Ket:
        """The unique stabilized state (syndrome 0)."""
        return Ket(self._joint_eigenvectors([0])[0])


def _preset_size(num_qubits, low: int) -> int:
    """A preset's qubit count as a Python int in [low, MAX_QUBITS]."""
    n = qcore._integer("num_qubits", num_qubits)
    if not low <= n <= MAX_QUBITS:
        raise BadDimError(f"num_qubits must be in [{low}, {MAX_QUBITS}]")
    return n


def ghz_group(num_qubits: int) -> StabilizerGroup:
    """Stabilizer group of (|0...0> + |1...1>)/sqrt(2): X...X and ZZ pairs."""
    n = _preset_size(num_qubits, 2)
    pairs = (PauliString(n, 0, 0b11 << (n - 2 - k)) for k in range(n - 1))
    return StabilizerGroup((PauliString(n, (1 << n) - 1, 0), *pairs))


def cluster_group(num_qubits: int) -> StabilizerGroup:
    """Linear cluster state: X on each site flanked by Z on its neighbors."""
    n = _preset_size(num_qubits, 2)
    sites = (1 << (n - 1 - k) for k in range(n))  # X on qubit k, Z beside it
    return StabilizerGroup(tuple(PauliString(n, x, (x << 1 | x >> 1) % (1 << n)) for x in sites))


def all_zeros_group(num_qubits: int) -> StabilizerGroup:
    """Stabilizer group of |0...0>: one Z per qubit."""
    n = _preset_size(num_qubits, 1)
    return StabilizerGroup(tuple(PauliString(n, 0, 1 << (n - 1 - k)) for k in range(n)))


def preset_group(name: str) -> StabilizerGroup:
    """Named group presets: 'bell', 'ghzN', 'clusterN', 'zerosN'."""
    lowered = name.strip().lower() if isinstance(name, str) else ""
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


def group_from_json(labels) -> StabilizerGroup:
    if not np.iterable(labels):
        raise ValidationError(f"malformed group document {labels!r}: not a list of labels")
    return StabilizerGroup(
        generators=tuple(PauliString.from_label(str(lab)) for lab in labels)
    )


def _scheme_indices(group: StabilizerGroup, kind) -> list[int] | None:
    """The element indices a full or generators strategy lists, else None;
    a non-group lists no index, and PauliStrategy rejects it."""
    k = group.num_qubits if isinstance(group, StabilizerGroup) else 0
    if kind is StrategyKind.STABILIZER_FULL:
        return list(range(1, 1 << k))
    return [1 << j for j in range(k)] if kind is StrategyKind.STABILIZER_GENERATORS else None


def full_strategy(group: StabilizerGroup) -> "PauliStrategy":
    """Equal mixture of all non-identity element pass tests."""
    kind = StrategyKind.STABILIZER_FULL
    return PauliStrategy(group, _scheme_indices(group, kind), kind)


def generator_strategy(group: StabilizerGroup) -> "PauliStrategy":
    """Equal mixture of the generator pass tests."""
    kind = StrategyKind.STABILIZER_GENERATORS
    return PauliStrategy(group, _scheme_indices(group, kind), kind)


@dataclass(frozen=True, eq=False)
class ParityCheck:
    """Pass bits and joint eigenbasis of a group, indexed by column.

    Column k is the joint eigenvector on which generator j has eigenvalue
    -1 exactly when bit N-1-j of k is set (generator 0 is the most
    significant bit); column 0 is the stabilized state. matrix and
    special_columns work in syndrome space up to MAX_QUBITS; matrix and
    the dense eigenbasis are built on first access and kept read-only,
    the eigenbasis limited to MAX_DENSE_QUBITS.
    """

    group: StabilizerGroup

    def __post_init__(self):
        if not isinstance(self.group, StabilizerGroup):
            raise ValidationError("a parity check needs a StabilizerGroup")

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
        return tuple(1 << j for j in range(self.group.num_qubits))


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
    group must be a StabilizerGroup. target, settings and
    metrics are made on first read. Every result built from it
    (adversary's worst-case state and game value, protocol's plan) works
    to MAX_QUBITS with no 2^N x 2^N array.
    """

    group: StabilizerGroup
    indices: tuple[int, ...]
    kind: StrategyKind
    counts: np.ndarray = field(init=False, repr=False)
    theta = None

    def __post_init__(self):
        group, indices, kind = self.group, self.indices, self.kind
        if not isinstance(group, StabilizerGroup):
            name = type(group).__name__
            raise ValidationError(f"a stabilizer strategy needs a StabilizerGroup, not a {name}")
        try:
            indices = list(indices)
            ints = all(type(m) is int for m in indices)
        except TypeError:  # not iterable
            ints = False
        expected = _scheme_indices(group, kind)
        if ints and kind is StrategyKind.CUSTOM:
            expected = sorted(set(indices))
        if not ints or indices != expected:
            name = kind.value if isinstance(kind, StrategyKind) else repr(kind)
            raise ValidationError(f"{indices} are not the element indices of a {name} strategy")
        if not indices:
            raise ValidationError("need at least one element index")
        n, chosen = group.num_qubits, np.asarray(indices)
        bad = (chosen < 1) | (chosen >= 2**n)
        if bad.any():
            raise ValidationError(f"element index {indices[bad.argmax()]} outside [1, {2**n - 1}]")
        counts = _pass_counts(chosen, n)
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
        chosen = _products(group.num_qubits, group.table[:, list(self.indices)])
        return tuple(
            PauliTest(p.label, weight, Locality.STABILIZER_PAULI, m)
            for p, m in zip(chosen, self.indices)
        )

    @cached_property
    def metrics(self) -> StrategyMetrics:
        return _count_metrics(self.counts)

    def orthogonal_projector(self):
        """(every Pi_bb, b -> Pi|b>) of Pi = I - |psi><psi| - R, the
        projector onto the nonzero syndromes with c(s) = q k: R, read by
        _signed_sums, is 2^-N sum_m r(m) P_m, r the Walsh-Hadamard transform
        of the other nonzero syndromes' indicator (0 for the full scheme)."""
        counts, dim, psi = self.counts, self.dim, self.target.amplitudes
        r = _walsh((counts < counts[1:].max()).astype(np.int64))  # c(0) = k is never below
        diagonal, columns = _signed_sums(self.group.table, r[None] / dim, dim)

        def column(b: int) -> np.ndarray:
            return np.eye(1, dim, b)[0] - psi * psi[b].conj() - columns([b])[0]

        return 1.0 - (psi * psi.conj()).real - diagonal[0], column

    def pass_probabilities(self, state: Ket | HermitianOperator | np.ndarray) -> np.ndarray:
        """(1 + Re <P_m>)/2 for each chosen element m: with P_m|b> = coeff |image>,
        <P_m> sums coeff x_b conj(x_image) (a Ket x) or coeff sigma[b, image], in
        O(k 2^N) after _state's O(8^N) density check (per operator, or per array)."""
        state = qcore._state("state", state, self.dim)
        cols = np.arange(self.dim)
        ket = state.amplitudes if isinstance(state, Ket) else None
        means = np.empty(len(self.indices))
        for i, (x, z, phase) in enumerate(self.group.table[:, list(self.indices)].T.tolist()):
            image, coeff = _act(x, z, _PHASES[phase], cols)
            pairs = state.entries[cols, image] if ket is None else ket * ket[image].conj()
            means[i] = (pairs * coeff).sum().real
        return (1.0 + means) / 2.0


@dataclass(frozen=True, eq=False)
class SubsetReport:
    """Equal mixture of chosen group elements, with degeneracy evidence.

    If the chosen elements do not generate the group, an orthogonal state
    passes every chosen test: degenerate is True, metrics.q is 1, and no
    number of copies rejects the fooling state. strategy is the custom
    PauliStrategy of the chosen indices. Every field is read from its
    syndrome counts and works to MAX_QUBITS.
    """

    strategy: PauliStrategy
    degenerate: bool
    stabilized_dimension: int
    fooling_state: Ket | None
    fooling_acceptance: float | None


def subset_strategy(group: StabilizerGroup, element_indices) -> SubsetReport:
    """Equal-weight mixture of a subset of non-identity elements.

    element_indices, Python or numpy integers, index into group.elements.
    The joint eigenvectors passing every chosen test span the stabilized
    space: chosen masks of GF(2) rank r leave 2^(N-r) of them. Rank N
    gives a sound strategy; below it the report certifies the first
    passing eigenvector after the target as a fooling state.
    """
    indices = element_indices  # PauliStrategy rejects a non-iterable
    if np.iterable(indices):
        indices = [int(m) if isinstance(m, np.integer) else m for m in indices]
        if all(type(m) is int for m in indices):
            indices = sorted(set(indices))
    built = PauliStrategy(group, indices, StrategyKind.CUSTOM)
    counts, k = built.counts, len(built.indices)
    stabilized = int(np.count_nonzero(counts == k))
    fooling = acceptance = None
    if built.metrics.degenerate:
        # the first passing column after column 0, which is the target itself
        syndromes = _column_syndromes(group.num_qubits)
        syndrome = int(syndromes[np.flatnonzero(counts[syndromes] == k)[1]])
        fooling = Ket(group._joint_eigenvectors([syndrome])[0])
        acceptance = int(counts[syndrome]) / k
    return SubsetReport(
        built, degenerate=built.metrics.degenerate, stabilized_dimension=stabilized,
        fooling_state=fooling, fooling_acceptance=acceptance,
    )


def strategy_from_json(doc) -> Strategy | PauliStrategy:
    """Rebuild a strategy from strategy.to_json_dict output, of either type.

    A document that names a group ({"kind", "group", "indices"}) is a
    PauliStrategy, which checks its kind and indices. Any other document is
    a dense Strategy (a stabilizer one, if written before output version 5).
    """
    if not (isinstance(doc, dict) and "group" in doc):
        return _from_json_dict(doc)
    try:
        kind, indices = StrategyKind(doc["kind"]), tuple(doc["indices"])
        group = group_from_json(doc["group"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"malformed strategy document: {type(exc).__name__}: {exc}"
        ) from exc
    return PauliStrategy(group, indices, kind)
