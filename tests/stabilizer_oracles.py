"""Oracles for the stabilizer layer.

The closed-form worst cases of the equal-weight stabilizer schemes are
exact rationals, so a test can demand the library's correctly rounded
float bit for bit: float(Fraction) rounds correctly. equal_mixture is
the dense stabilizer strategy, one checked 2^N x 2^N projector per
element, which the library's PauliStrategy replaced; it is the oracle of
every number the library now reads from syndrome counts. The retired
element-at-a-time routes, which the element table replaced, must be
matched bit for bit as well, and so must the retired per-scheme routes
that each checked and counted on its own before every stabilizer
strategy became a SubsetReport.
"""

from fractions import Fraction

import numpy as np

from qverify import qcore
from qverify.errors import BadDimError, ValidationError
from qverify.qcore import MAX_QUBITS, TOL_DERIVED, Ket, _fix_phase
from qverify.stabilizer import (
    _PHASES,
    MAX_DENSE_QUBITS,
    PauliString,
    _act,
    _column_syndromes,
    _count_metrics,
    _parity,
    _pass_counts,
)
from qverify.strategy import Locality, Strategy, _settings


def full_strategy_q(num_qubits: int) -> Fraction:
    """Worst-case orthogonal acceptance of the all-elements mixture."""
    return Fraction(2 ** (num_qubits - 1) - 1, 2**num_qubits - 1)


def generator_strategy_q(num_generators: int) -> Fraction:
    """Worst-case orthogonal acceptance of the generators-only mixture."""
    return 1 - Fraction(1, num_generators)


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


# ------------------------------------------------------------ retired routes


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
                return _fix_phase(vec / norm)
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
    if not group.is_maximal:
        raise ValidationError(f"{what} needs a maximal group")
    if group.num_qubits > MAX_DENSE_QUBITS:
        raise BadDimError(f"{what} materializes dense projectors")
    xs, zs, phases = group.table[:, np.asarray(indices)]
    cols = np.arange(2**group.num_qubits)
    images, halves = _act(xs[:, None], zs[:, None], _PHASES[phases][:, None] / 2.0, cols)

    def projectors():
        for image, half in zip(images, halves):
            out = np.zeros((cols.size, cols.size), dtype=complex)
            out[cols, cols] = 0.5
            out[image, cols] += half
            yield out

    k = len(indices)
    settings = _settings(
        projectors(),
        (1.0 / k,) * k,
        [group.elements[m].label for m in indices],
        (Locality.STABILIZER_PAULI,) * k,
    )
    return Strategy(target=group.state(), settings=settings, kind=kind)


def as_dense(strategy):
    """A Strategy as it is; a PauliStrategy as the dense equal_mixture of
    its group, element indices and kind."""
    if isinstance(strategy, Strategy):
        return strategy
    return equal_mixture(strategy.group, strategy.indices, strategy.kind, strategy.kind.value)


def scheme_metrics(group, scheme):
    """Metrics of the 'full' or 'generators' scheme from syndrome counts."""
    if not group.is_maximal:
        raise ValidationError("stabilizer_metrics needs a maximal group")
    if scheme not in SCHEME_INDICES:
        raise ValidationError(f"scheme={scheme!r} must be 'full' or 'generators'")
    n = group.num_qubits
    return _count_metrics(_pass_counts(SCHEME_INDICES[scheme](n), n))


def subset_report_fields(group, element_indices):
    """The counted SubsetReport fields, with the fooling state's amplitudes."""
    if not group.is_maximal:
        raise ValidationError("subset_strategy needs a maximal group")
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
