"""Oracles for the stabilizer layer.

The closed-form worst cases of the equal-weight stabilizer schemes are
exact rationals, so a test can demand the library's correctly rounded
float bit for bit: float(Fraction) rounds correctly. The retired
element-at-a-time routes, which the element table replaced, must be
matched bit for bit as well.
"""

from fractions import Fraction

import numpy as np

from qverify.qcore import MAX_QUBITS, TOL_DERIVED, _fix_phase
from qverify.stabilizer import _PHASES, PauliString, _act, _parity


def full_strategy_q(num_qubits: int) -> Fraction:
    """Worst-case orthogonal acceptance of the all-elements mixture."""
    return Fraction(2 ** (num_qubits - 1) - 1, 2**num_qubits - 1)


def generator_strategy_q(num_generators: int) -> Fraction:
    """Worst-case orthogonal acceptance of the generators-only mixture."""
    return 1 - Fraction(1, num_generators)


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
    return [(eye + elements[m].matrix()) / 2.0 for m in indices]
