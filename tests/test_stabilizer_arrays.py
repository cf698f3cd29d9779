"""The stabilizer layer's array passes against the loops they replaced.

StabilizerGroup._joint_eigenvectors normalizes and phase-fixes every row
at once (stabilizer._unit_rows), StabilizerGroup.elements and
PauliStrategy.settings assemble their strings and labels in one pass each
(_products, _labels), and PauliStrategy.pass_probabilities reads the
group's local-Clifford frame in place of one pass per element. The loops
live on in stabilizer_oracles: the first passes must match them exactly,
the frame within 1e-14, as its sums run in another order. The groups are
random signed ones, most holding Y letters, and the presets.
"""

import numpy as np
import pytest

from qverify.adversary import hilbert_schmidt_mixed_state, top_orthogonal_eigenvector
from qverify.qcore import TOL_INPUT, HermitianOperator, haar_random_ket
from qverify.stabilizer import (
    _labels,
    _unit_rows,
    full_strategy,
    generator_strategy,
    group_from_json,
    preset_group,
    subset_strategy,
)
from stabilizer_oracles import (
    elements_by_products,
    joint_eigenvectors_by_rows,
    label_by_letters,
    pass_probabilities_by_elements,
    random_group,
    unit_rows_one_at_a_time,
)

# the frame's sums run in another order than the element loop's
FRAME_BOUND = 1e-14


def _signed_random_group(num_qubits, seed):
    """A random group with a random subset of its generators negated."""
    rng = np.random.default_rng([num_qubits, seed, 39])
    group, _ = random_group(num_qubits, rng)
    flips = rng.integers(0, 2, num_qubits)
    labels = [g.label for g in group.generators]
    return group_from_json(
        [(label[1:] if label.startswith("-") else "-" + label) if flip else label
         for label, flip in zip(labels, flips)]
    )


RANDOM = [(n, seed) for n in range(1, 8) for seed in range(8)]
PRESETS = ["bell", "ghz3", "ghz5", "cluster4", "cluster6", "zeros3"]


def _group(case):
    return preset_group(case) if isinstance(case, str) else _signed_random_group(*case)


def _ids(case):
    return case if isinstance(case, str) else f"random{case[0]}-{case[1]}"


CASES = pytest.mark.parametrize("case", PRESETS + RANDOM, ids=_ids)


def test_random_groups_hold_y_letters_and_minus_signs():
    groups = [_group(case) for case in RANDOM]
    assert sum(any("Y" in g.label for g in group.generators) for group in groups) >= 40
    assert sum(any(g.sign < 0 for g in group.generators) for group in groups) >= 40


@CASES
def test_joint_eigenvectors_match_the_row_route_bitwise(case):
    # every row's sums are exact dyadics, so the order of summation is moot
    group = _group(case)
    syndromes = np.arange(2**group.num_qubits)
    rows = group._joint_eigenvectors(syndromes)
    assert rows.tobytes() == joint_eigenvectors_by_rows(group, syndromes).tobytes()


def test_unit_rows_break_magnitude_ties_as_the_row_route():
    # entry 2 is larger than entry 1 by less, then by more, than TOL_INPUT:
    # the first is a tie and picks the lowest index, the second not. Each
    # row's norm is one rounding of a^2 + b^2 on both routes.
    rows = np.zeros((4, 8), dtype=complex)
    rows[:, 1] = [-0.75, 0.75j, 3.0, -3.0j]
    rows[:, 2] = rows[:, 1] * 1j * (1.0 + TOL_INPUT * np.array([0.05, 0.05, 20.0, 20.0]))
    ours = _unit_rows(rows)
    assert ours.tobytes() == unit_rows_one_at_a_time(rows).tobytes()
    assert (ours[:2, 1].real > 0).all() and (ours[:2, 1].imag == 0).all()
    assert (ours[2:, 2].real > 0).all() and (ours[2:, 2].imag == 0).all()


@pytest.mark.parametrize("case", [(n, seed) for n in range(1, 9) for seed in range(4)], ids=_ids)
def test_elements_and_labels_match_the_product_chain(case):
    group = _group(case)
    expected = elements_by_products(group)
    assert group.elements == expected
    labels = [label_by_letters(p) for p in expected]
    assert _labels(group.num_qubits, group.table) == labels
    assert [p.label for p in group.elements] == labels
    chosen = sorted({1, 2**group.num_qubits - 1, 2 ** (group.num_qubits // 2)})
    settings = subset_strategy(group, chosen).strategy.settings
    assert [s.label for s in settings] == [labels[m] for m in chosen]


def _states(strategy, rng):
    """A Haar ket, the target, the worst orthogonal state and, up to five
    qubits, a mixed state as an operator and as an array."""
    dim = strategy.dim
    yield haar_random_ket(dim, int(rng.integers(1 << 30)))
    yield strategy.target
    if strategy.metrics.q < 1.0:
        yield top_orthogonal_eigenvector(strategy)[1]
    if dim <= 32:
        mixed = hilbert_schmidt_mixed_state(dim, rng)
        yield HermitianOperator(mixed)
        yield mixed


@CASES
def test_pass_probabilities_match_the_element_loop(case):
    group = _group(case)
    rng = np.random.default_rng(group.num_qubits)
    subset = rng.integers(1, 2**group.num_qubits, 2 * group.num_qubits)
    custom = subset_strategy(group, subset).strategy
    for strategy in (full_strategy(group), generator_strategy(group), custom):
        for state in _states(strategy, rng):
            ours = strategy.pass_probabilities(state)
            expected = pass_probabilities_by_elements(strategy, state)
            assert ours.shape == expected.shape
            assert np.abs(ours - expected).max() <= FRAME_BOUND, (strategy.kind, type(state))


@pytest.mark.parametrize("preset", ["ghz12", "cluster12"])
def test_twelve_qubit_pass_probabilities_match_the_element_loop(preset):
    group = preset_group(preset)
    state = haar_random_ket(2**12, 39)
    for strategy in (full_strategy(group), generator_strategy(group)):
        ours = strategy.pass_probabilities(state)
        assert np.abs(ours - pass_probabilities_by_elements(strategy, state)).max() <= FRAME_BOUND


def test_the_frame_is_built_once_per_group_on_first_use():
    group = preset_group("cluster5")
    full, gens = full_strategy(group), generator_strategy(group)
    assert full.metrics.q < 1.0 and len(full.settings) == 31
    assert "_frame" not in vars(group)
    full.pass_probabilities(full.target)
    frame = group._frame
    gens.pass_probabilities(HermitianOperator(np.eye(32) / 32.0))
    assert group._frame is frame
