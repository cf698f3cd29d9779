"""The signed-element-sum primitive against the routes it replaced.

stabilizer._signed_sums gives the diagonal and columns of
A = sum_m c(m) P_m over a group's element table; the joint eigenvectors
(state, parity-check eigenbasis, fooling states) and a PauliStrategy's
worst-case projector are read from it. The GF(2) joint-eigenvector route
and the syndrome-count projector it replaced live on in
stabilizer_oracles, and every vector must match them bit for bit, on the
presets and on random groups of 2 to 9 qubits, most holding Y letters.
The primitive itself is checked against a dense sum of Pauli matrices.
"""

import math

import numpy as np
import pytest

from qverify.adversary import top_orthogonal_eigenvector, worst_case_state
from qverify.stabilizer import (
    ParityCheck,
    _column_syndromes,
    _signed_sums,
    full_strategy,
    generator_strategy,
    preset_group,
    subset_strategy,
)
from stabilizer_oracles import (
    gf2_joint_eigenvectors,
    pauli_matrix,
    random_group,
    syndrome_projector,
    syndrome_worst_state,
)

PRESETS = ["bell"] + [f"{family}{n}" for family in ("ghz", "cluster", "zeros") for n in range(2, 10)]
RANDOM = [(n, seed) for n in range(2, 10) for seed in range(6)]


def _group(case):
    if isinstance(case, str):
        return preset_group(case)
    n, seed = case
    return random_group(n, np.random.default_rng([n, seed, 24]))[0]


def _ids(case):
    return case if isinstance(case, str) else f"random{case[0]}-{case[1]}"


def _holds_y(group):
    return any("Y" in g.label for g in group.generators)


CASES = pytest.mark.parametrize("case", PRESETS + RANDOM, ids=_ids)
# dense sums stop at 6 qubits
Y_CASES = [case for case in RANDOM if case[0] <= 6 and _holds_y(_group(case))]


def _degenerate_subset(group, rng):
    """A few element indices of GF(2) rank below N, so a fooling state exists."""
    n = group.num_qubits
    return rng.integers(1, 2**n, int(rng.integers(1, n))).tolist()


def test_random_cases_hold_y_letters():
    assert sum(_holds_y(_group(case)) for case in RANDOM) >= 40
    assert len(Y_CASES) >= 20


@CASES
def test_joint_eigenvectors_match_the_gf2_route(case):
    group = _group(case)
    n = group.num_qubits
    syndromes = np.arange(2**n)
    rows = group._joint_eigenvectors(syndromes)
    assert rows.tobytes() == gf2_joint_eigenvectors(group, syndromes).tobytes()
    assert group.state().amplitudes.tobytes() == rows[0].tobytes()
    if n <= 6:
        basis = ParityCheck.build(group).eigenbasis
        assert basis.tobytes() == np.ascontiguousarray(rows[_column_syndromes(n)].T).tobytes()


@CASES
def test_fooling_states_match_the_gf2_route(case):
    group = _group(case)
    rng = np.random.default_rng(group.num_qubits)
    for _ in range(3):
        report = subset_strategy(group, _degenerate_subset(group, rng))
        assert report.degenerate
        # the fooling state's syndrome: every chosen element passes it
        syndromes = _column_syndromes(group.num_qubits)
        passing = syndromes[report.strategy.counts[syndromes] == len(report.strategy.indices)]
        expected = gf2_joint_eigenvectors(group, passing[1:2])[0]
        assert report.fooling_state.amplitudes.tobytes() == expected.tobytes()


@CASES
def test_worst_case_projector_matches_the_syndrome_route(case):
    group = _group(case)
    rng = np.random.default_rng(group.num_qubits)
    subset = subset_strategy(group, rng.integers(1, 2**group.num_qubits, 3 * group.num_qubits))
    for strategy in (full_strategy(group), generator_strategy(group), subset.strategy):
        q, (weights, column) = strategy.metrics.q, strategy.orthogonal_projector()
        old_q, old_weights, old_column = syndrome_projector(strategy)
        assert q == old_q
        assert weights.tobytes() == old_weights.tobytes()
        b = int(np.argmax(weights))
        assert column(b).tobytes() == old_column(b).tobytes()
        top_q, top = top_orthogonal_eigenvector(strategy)
        old_top = syndrome_worst_state(strategy)[1]
        assert top_q == q
        assert top.amplitudes.tobytes() == old_top.tobytes()
        if q < 1.0:
            eps, psi = 0.1, strategy.target.amplitudes
            old = math.sqrt(1.0 - eps) * psi + math.sqrt(eps) * old_top
            assert worst_case_state(strategy, eps).state.amplitudes.tobytes() == old.tobytes()


@pytest.mark.parametrize("case", Y_CASES, ids=_ids)
def test_signed_sums_match_a_dense_sum(case):
    group = _group(case)
    n, size = group.num_qubits, 1 << group.num_qubits
    rng = np.random.default_rng(case)
    coeffs = rng.integers(-8, 9, (4, size)) / 2.0 ** rng.integers(0, 2 * n, (4, 1))
    diagonal, columns = _signed_sums(group.table, coeffs, 2**n)
    matrices = np.array([pauli_matrix(p) for p in group.elements])
    starts = rng.integers(0, 2**n, len(coeffs))
    for i, row in enumerate(coeffs):
        dense = np.tensordot(row, matrices, axes=1)
        assert np.array_equal(diagonal[i], dense.diagonal().real)
        assert not dense.diagonal().imag.any()
        assert np.array_equal(columns(starts)[i], dense[:, starts[i]])
