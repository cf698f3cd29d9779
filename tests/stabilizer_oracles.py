"""Oracles for the stabilizer layer.

The closed-form worst cases of the equal-weight stabilizer schemes are
exact rationals, so a test can demand the library's correctly rounded
float bit for bit: float(Fraction) rounds correctly. scheme_metrics_law
gives a scheme's q and trace that way.
equal_mixture is the dense stabilizer strategy, one checked 2^N x 2^N
projector per element, which the library's PauliStrategy replaced; it
is the oracle of every number the library now reads from syndrome
counts. The retired element-at-a-time routes, which the element table
replaced, must be matched bit for bit as well, and so must the retired
per-scheme routes that each checked and counted on its own before the
PauliStrategy constructor became the one place a stabilizer strategy is
checked. The GF(2) joint-eigenvector route and the syndrome-count
worst-case projector, which the signed-element-sum primitive replaced,
are kept here too, and the primitive must match them bit for bit. So
are the label-built presets, which the mask-built ones replaced, and the
GF(2) rank of generator rows, which the element table's test of
independence replaced. The array passes replaced three more loops, kept
here: the per-row normalization and phase fix of the joint eigenvectors
(bitwise equal), the letter-by-letter label (equal), and the
element-at-a-time pass probabilities, which the local-Clifford frame
matches within a bound, as its sums run in another order.
"""

import math
from fractions import Fraction

import numpy as np

from qverify import qcore
from qverify.errors import BadDimError, ValidationError
from qverify.qcore import MAX_QUBITS, TOL_DERIVED, TOL_INPUT, Ket
from qverify.samplecount import StrategyMetrics
from qverify.stabilizer import (
    _PHASES,
    MAX_DENSE_QUBITS,
    PauliString,
    _act,
    _column_syndromes,
    _count_metrics,
    _parity,
    _pass_counts,
    _signed_sums,
    _walsh,
    group_from_json,
)
from qverify.strategy import Locality, Strategy, _buffer, _checked


def full_strategy_q(num_qubits: int) -> Fraction:
    """Worst-case orthogonal acceptance of the all-elements mixture."""
    return Fraction(2 ** (num_qubits - 1) - 1, 2**num_qubits - 1)


def generator_strategy_q(num_generators: int) -> Fraction:
    """Worst-case orthogonal acceptance of the generators-only mixture."""
    return 1 - Fraction(1, num_generators)


def scheme_metrics_law(num_qubits: int, scheme: str) -> StrategyMetrics:
    """Metrics of the 'full' or 'generators' scheme of a maximal group:
    q correctly rounded from its closed form and the trace 2^(N-1) (each
    pass test has rank 2^(N-1)), as StrategyMetrics."""
    law = {"full": full_strategy_q, "generators": generator_strategy_q}[scheme]
    return StrategyMetrics(float(law(num_qubits)), float(2 ** (num_qubits - 1)))


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of integer bit rows."""
    rank, pool = 0, list(rows)
    while pool and max(pool):
        pivot = max(pool)
        rank += 1
        top_bit = pivot.bit_length() - 1
        pool = [r ^ pivot if (r >> top_bit) & 1 else r for r in pool if r != pivot]
    return rank


def pauli_matrix(pauli):
    """Dense matrix of a Pauli string, one entry per column."""
    cols = np.arange(2**pauli.num_qubits)
    rows, coeffs = _act(pauli.x, pauli.z, _PHASES[pauli.phase], cols)
    out = np.zeros((cols.size, cols.size), dtype=complex)
    out[rows, cols] = coeffs
    return out


def apply_to_index(pauli, index):
    """Image of a computational basis state: M|index> = coeff |new_index>."""
    qcore.check_index("basis index", index, 2**pauli.num_qubits)
    new_index, coeff = _act(pauli.x, pauli.z, _PHASES[pauli.phase], index)
    return int(new_index), complex(coeff)


# ---------------------------------------------------------- random groups

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_PHASE_GATE = np.diag([1.0, 1.0j])
_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def random_group(num_qubits, rng, gates=None):
    """(group, amplitudes): a random maximal group and, by an independent
    route, the state it stabilizes.

    Random H, S and CNOT gates act on the tableau of the Z-basis group
    (generator j is Z on qubit j) by Aaronson & Gottesman's rules (PRA 70,
    052328, 2004), signs included, and on the dense vector |0...0> as
    matrices; qubit 0 is the most significant bit, as in the library.
    """
    n = num_qubits
    xs, zs = np.zeros((n, n), dtype=bool), np.eye(n, dtype=bool)
    signs = np.zeros(n, dtype=bool)
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for _ in range(5 * n * n if gates is None else gates):
        kind, a = rng.integers(3), int(rng.integers(n))
        if kind < 2 or n == 1:  # H or S on qubit a
            signs ^= xs[:, a] & zs[:, a]
            if kind == 0:
                xs[:, a], zs[:, a] = zs[:, a].copy(), xs[:, a].copy()
            else:
                zs[:, a] ^= xs[:, a]
            gate = _HADAMARD if kind == 0 else _PHASE_GATE
            psi = np.moveaxis(np.tensordot(gate, psi, axes=(1, a)), 0, a)
        else:  # CNOT, control a, target b
            b = (a + 1 + int(rng.integers(n - 1))) % n
            signs ^= xs[:, a] & zs[:, b] & ~(xs[:, b] ^ zs[:, a])
            xs[:, b] ^= xs[:, a]
            zs[:, a] ^= zs[:, b]
            flipped = psi.copy()
            ones = tuple(slice(None) if q != a else 1 for q in range(n))
            flipped[ones] = np.flip(psi[ones], axis=b - (b > a))
            psi = flipped
    labels = [
        ("-" if sign else "") + "".join(_LETTERS[int(x), int(z)] for x, z in zip(xr, zr))
        for xr, zr, sign in zip(xs, zs, signs)
    ]
    return group_from_json(labels), psi.ravel()


# ------------------------------------------------------------ retired routes


def fix_phase(column):
    """Rotate a vector's global phase so its largest amplitude is real positive.

    Ties on magnitude (within TOL_INPUT) resolve to the lowest index.
    """
    mags = np.abs(column)
    top = float(mags.max())
    pivot = int(np.flatnonzero(mags >= top - TOL_INPUT)[0])
    phase = column[pivot] / abs(column[pivot])
    return column / phase


def unit_rows_one_at_a_time(rows):
    """Each row divided by its np.linalg.norm, then phase fixed by fix_phase."""
    fixed = [fix_phase(v / float(np.linalg.norm(v))) for v in rows]
    return np.array(fixed, dtype=complex).reshape(np.shape(rows))


def joint_eigenvectors_by_rows(group, syndromes):
    """Row i: the signed-sum column of syndrome i's projector at its largest
    diagonal entry, as StabilizerGroup._joint_eigenvectors reads it, made a
    unit vector row by row (unit_rows_one_at_a_time)."""
    syndromes = np.asarray(syndromes, dtype=np.int64)
    dim = 2**group.num_qubits
    coeffs = (1 - 2 * _parity(syndromes[:, None] & np.arange(dim))) / dim
    diagonal, columns = _signed_sums(group.table, coeffs, dim)
    return unit_rows_one_at_a_time(columns(diagonal.argmax(axis=1)))


_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def label_by_letters(pauli):
    """A PauliString's label, one letter per qubit from its mask bits."""
    bits = ((pauli.x >> k & 1, pauli.z >> k & 1) for k in range(pauli.num_qubits))
    letters = "".join(_BITS_TO_LETTER[xz] for xz in bits)[::-1]
    return ("-" if pauli.sign < 0 else "") + letters


def pass_probabilities_by_elements(strategy, state):
    """(1 + Re <P_m>)/2 for each chosen element m of a PauliStrategy, one
    element at a time: with P_m|b> = coeff |image>, <P_m> sums
    coeff x_b conj(x_image) (a Ket x) or coeff sigma[b, image]."""
    state = qcore._state("state", state, strategy.dim)
    cols = np.arange(strategy.dim)
    ket = state.amplitudes if isinstance(state, Ket) else None
    means = np.empty(len(strategy.indices))
    for i, (x, z, phase) in enumerate(strategy.group.table[:, list(strategy.indices)].T.tolist()):
        image, coeff = _act(x, z, _PHASES[phase], cols)
        pairs = state.entries[cols, image] if ket is None else ket * ket[image].conj()
        means[i] = (pairs * coeff).sum().real
    return (1.0 + means) / 2.0


def elements_by_products(group):
    """All 2^k elements by a PauliString.__mul__ chain, in element-index order."""
    out = [PauliString(group.num_qubits, 0, 0)]
    for j, g in enumerate(group.generators):
        out.extend([prev * g for prev in out[: 1 << j]])
    return tuple(out)


def joint_eigenvector(group, syndrome):
    """One syndrome's joint eigenvector: the first basis vector whose
    projection by (1/2^k) sum_m (-1)^|m & s| g_m is nonzero, summed by
    np.add.at, normalized and phase fixed."""
    elements = elements_by_products(group)
    xs, zs, phases = np.array([(e.x, e.z, e.phase) for e in elements]).T
    signs = 1 - 2 * _parity(np.arange(len(xs)) & syndrome)
    weighted = signs * _PHASES[phases] / len(xs)
    dim = 2**group.num_qubits
    batch = max(1, 2**MAX_QUBITS // len(xs))  # starts projected at once
    for first in range(0, dim, batch):
        starts = np.arange(first, min(first + batch, dim))[:, None]
        rows, terms = _act(xs, zs, weighted, starts)
        amps = np.zeros((len(starts), dim), dtype=complex)
        np.add.at(amps, (np.arange(len(starts))[:, None], rows), terms)
        for vec in amps:
            norm = float(np.linalg.norm(vec))
            if norm > TOL_DERIVED:
                return fix_phase(vec / norm)
    raise AssertionError("group projects every basis state to zero")


def pass_projectors(group, indices):
    """(I + P_m)/2 for each indexed element, from its dense matrix()."""
    elements = elements_by_products(group)
    eye = np.eye(2**group.num_qubits, dtype=complex)
    return [(eye + pauli_matrix(elements[m])) / 2.0 for m in indices]


SCHEME_INDICES = {
    "full": lambda n: np.arange(1, 2**n),
    "generators": lambda n: 1 << np.arange(n),
}


def equal_mixture(group, indices, kind, what):
    """Dense equal-weight strategy over the pass tests of the indexed elements."""
    if group.num_qubits > MAX_DENSE_QUBITS:
        raise BadDimError(f"{what} materializes dense projectors")
    xs, zs, phases = group.table[:, np.asarray(indices)]
    cols = np.arange(2**group.num_qubits)
    images, halves = _act(xs[:, None], zs[:, None], _PHASES[phases][:, None] / 2.0, cols)

    k = len(indices)
    localities = (Locality.STABILIZER_PAULI,) * k
    buf = _buffer(localities, (cols.size, cols.size))
    for out, image, half in zip(buf, images, halves):
        out[...] = 0.0
        out[cols, cols] = 0.5
        out[image, cols] += half
    return _checked(
        group.state(), kind, None, buf,
        (1.0 / k,) * k,
        [group.elements[m].label for m in indices],
        localities,
    )


def as_dense(strategy):
    """A Strategy as it is; a PauliStrategy as the dense equal_mixture of
    its group, element indices and kind."""
    if isinstance(strategy, Strategy):
        return strategy
    return equal_mixture(strategy.group, strategy.indices, strategy.kind, strategy.kind.value)


def scheme_metrics(group, scheme):
    """Metrics of the 'full' or 'generators' scheme from syndrome counts."""
    if scheme not in SCHEME_INDICES:
        raise ValidationError(f"scheme={scheme!r} must be 'full' or 'generators'")
    n = group.num_qubits
    return _count_metrics(_pass_counts(SCHEME_INDICES[scheme](n), n))


def subset_report_fields(group, element_indices):
    """The counted SubsetReport fields, with the fooling state's amplitudes."""
    n = group.num_qubits
    indices = sorted(set(int(k) for k in element_indices))
    if not indices:
        raise ValidationError("need at least one element index")
    for k in indices:
        if not 1 <= k < 2**n:
            raise ValidationError(f"element index {k} outside [1, {2**n - 1}]")
    counts = _pass_counts(indices, n)
    syndromes = _column_syndromes(n)
    passing = np.flatnonzero(counts[syndromes] == len(indices))
    fooling = acceptance = None
    if passing.size > 1:
        syndrome = int(syndromes[passing[1]])
        fooling = Ket(group._joint_eigenvectors([syndrome])[0]).amplitudes
        acceptance = int(counts[syndrome]) / len(indices)
    return {
        "indices": tuple(indices),
        "metrics": _count_metrics(counts),
        "degenerate": passing.size > 1,
        "stabilized_dimension": int(passing.size),
        "fooling_state": fooling,
        "fooling_acceptance": acceptance,
    }


def _gf2_low_rest(rows, low_bits):
    """The rows GF(2) elimination leaves without bits >= low_bits, when it
    pivots only on those bits."""
    pool = list(rows)
    while pool and max(pool) >> low_bits:
        pivot = max(pool)
        top_bit = pivot.bit_length() - 1
        pool = [r ^ pivot if (r >> top_bit) & 1 else r for r in pool if r != pivot]
    return pool


def gf2_joint_eigenvectors(group, syndromes):
    """Row i: unit vector on which element m has eigenvalue (-1)^|m & syndromes[i]|.

    Row i projects one basis vector b with (1/2^k) sum_m (-1)^|m & s| g_m.
    The projection is nonzero exactly when every diagonal element
    (x_m = 0) has on b the eigenvalue s asks of it, which is checked on
    a GF(2) basis of them; the first such b is used. Each row is summed
    exactly by np.bincount, then normalized and its phase fixed.
    """
    xs, zs, phases = group.table
    dim = 2**group.num_qubits
    syndromes = np.asarray(syndromes, dtype=np.int64)
    k = group.num_qubits
    # eliminating the x bits of rows (x_j, e_j) leaves a basis of {m : x_m = 0}
    rows = [(g.x << k) | (1 << j) for j, g in enumerate(group.generators)]
    diagonal = np.array(_gf2_low_rest(rows, k), dtype=np.int64)
    place = 1 << np.arange(len(diagonal))
    # the eigenvalue bits, one per diagonal basis element, that each
    # basis index b shows ((-1)^(phase_m / 2 + |b & z_m|)) and each
    # syndrome asks for ((-1)^|m & s|)
    shown = _parity(np.arange(dim)[:, None] & zs[diagonal])
    shown = (shown ^ (phases[diagonal] >> 1)) @ place
    asked = _parity(syndromes[:, None] & diagonal) @ place
    starts = (shown == asked[:, None]).argmax(axis=1)
    assert (shown[starts] == asked).all(), "group projects every basis state to zero"
    # (-1)^|m & s| from the projector times (-1)^|b & z_m| from g_m on b
    signs = 1 - 2 * _parity(
        (syndromes[:, None] & np.arange(len(xs))) ^ (starts[:, None] & zs)
    )
    flat = (np.arange(len(starts)) * dim)[:, None] + (starts[:, None] ^ xs)
    amps = np.empty((len(starts), dim), dtype=complex)
    for part, unit in ((amps.real, _PHASES.real), (amps.imag, _PHASES.imag)):
        weights = (signs * unit[phases] / len(xs)).ravel()
        part[:] = np.bincount(flat.ravel(), weights, amps.size).reshape(amps.shape)
    return unit_rows_one_at_a_time(amps)


def syndrome_projector(strategy):
    """(q, every Pi_bb, b -> Pi|b>) of a PauliStrategy. The top syndromes
    have the most passing elements, c(s) = q k, and Pi = I - |psi><psi| - R:
    R = 2^-N sum_m r(m) P_m, exactly dyadic, sums the other nonzero
    syndromes' projectors, r the Walsh-Hadamard transform of their
    indicator (0 for the full scheme). R_bb is one more transform of
    r(m) (-1)^(phase_m / 2) at z_m over the x_m = 0 elements."""
    counts, (xs, zs, phases), dim = strategy.counts, strategy.group.table, strategy.dim
    r = _walsh((counts < counts[1:].max()).astype(np.int64))  # c(0) = k is never below
    diagonal = xs == 0
    placed = np.bincount(zs[diagonal], r[diagonal] * (1 - phases[diagonal]), dim)
    psi = strategy.target.amplitudes
    weights = 1.0 - (psi * psi.conj()).real - _walsh(placed) / dim
    terms = np.flatnonzero(r)
    coeffs = _PHASES[phases[terms]] * r[terms] / dim

    def column(b):
        out = np.zeros(dim, dtype=complex)
        out[b] = 1.0
        out -= psi * psi[b].conj()
        images, parts = _act(xs[terms], zs[terms], coeffs, b)
        out.real -= np.bincount(images, parts.real, dim)
        out.imag -= np.bincount(images, parts.imag, dim)
        return out

    return strategy.metrics.q, weights, column


def syndrome_worst_state(strategy):
    """(q, amplitudes) of the worst orthogonal state by syndrome_projector
    and the lowest-index rule of adversary.top_orthogonal_eigenvector."""
    q, weights, column = syndrome_projector(strategy)
    b = int(np.argmax(weights >= weights.max() - TOL_DERIVED))
    return q, Ket(column(b) / math.sqrt(weights[b])).amplitudes


def label_presets(family, num_qubits):
    """The generators of a 'ghz', 'cluster' or 'zeros' preset, each parsed
    from its label by PauliString.from_label."""
    n = num_qubits
    if family == "ghz":
        labels = ["X" * n] + ["I" * k + "ZZ" + "I" * (n - k - 2) for k in range(n - 1)]
    else:
        labels = []
        for k in range(n):
            letters = ["I"] * n
            letters[k] = "X" if family == "cluster" else "Z"
            if family == "cluster" and k > 0:
                letters[k - 1] = "Z"
            if family == "cluster" and k < n - 1:
                letters[k + 1] = "Z"
            labels.append("".join(letters))
    return tuple(PauliString.from_label(label) for label in labels)
