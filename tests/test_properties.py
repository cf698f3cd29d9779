"""Invariants of every strategy constructor, drawn by hypothesis.

The checks here are written out in the test, independent of the
library's own runtime validation (the stacked projector check,
invariant_defect and the partial transpose check in
MeasurementSetting), and use the same TOL_DERIVED:

* Omega fixes the target and its spectrum lies in [0, 1];
* every setting is a projector, and every two-qubit setting that claims
  locality stays positive under partial transposition (a stabilizer
  PauliStrategy holds no projectors: its counts must satisfy c(0) = k
  and 0 <= c <= k, and its dense oracle, with the same settings, these);
* local transport by Haar unitaries preserves q;
* the JSON round trip rebuilds the same strategy;
* the exact copy count never rises with epsilon or delta.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify.qcore import TOL_DERIVED
from qverify.samplecount import certainty_count_report
from qverify.stabilizer import (
    PauliStrategy,
    full_strategy,
    generator_strategy,
    preset_group,
    strategy_from_json,
    subset_strategy,
)
from qverify.strategy import (
    Locality,
    bell_strategy,
    local_transport,
    metrics,
    product_state_strategy,
    to_json_dict,
    two_qubit_optimal,
)
from stabilizer_oracles import as_dense

PRESETS = ["bell", "zeros3"] + [
    f"{family}{n}" for family in ("ghz", "cluster") for n in range(3, 7)
]

thetas = st.floats(0.02, math.pi / 2 - 0.02).filter(
    lambda t: abs(t - math.pi / 4) > 1e-3
)


def _haar_unitary(rng):
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _two_qubit(draw):
    return BUILDERS[draw(st.sampled_from(["bell", "two-qubit", "product"]))](draw)


def _subset(draw):
    group = preset_group(draw(st.sampled_from(PRESETS)))
    top = 2**group.num_qubits - 1
    indices = draw(st.lists(st.integers(1, top), min_size=1, max_size=6))
    return subset_strategy(group, indices).strategy


def _transported(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return local_transport(_two_qubit(draw), _haar_unitary(rng), _haar_unitary(rng))


BUILDERS = {
    "bell": lambda draw: bell_strategy(),
    "two-qubit": lambda draw: two_qubit_optimal(draw(thetas)),
    "product": lambda draw: product_state_strategy(
        draw(st.sampled_from(["zero", "one"]))
    ),
    "stabilizer-full": lambda draw: full_strategy(
        preset_group(draw(st.sampled_from(PRESETS)))
    ),
    "stabilizer-generators": lambda draw: generator_strategy(
        preset_group(draw(st.sampled_from(PRESETS)))
    ),
    "stabilizer-subset": _subset,
    "transported": _transported,
}


def _partial_transpose(entries):
    """Transpose on the second qubit of a 4 x 4 operator."""
    return entries.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_constructor_invariants(name, data):
    built = BUILDERS[name](data.draw)
    if isinstance(built, PauliStrategy):
        counts, k = built.counts, len(built.indices)  # c(0) = k, 0 <= c <= k
        assert counts[0] == k and counts.min() >= 0 and counts.max() <= k
        dense = as_dense(built)
        assert [(s.label, s.weight, s.locality) for s in dense.settings] == [
            (s.label, s.weight, s.locality) for s in built.settings
        ]
        built = dense
    psi = built.target.amplitudes
    assert np.linalg.norm(built.omega @ psi - psi) <= TOL_DERIVED
    spectrum = np.linalg.eigvalsh(built.omega)
    assert spectrum[0] >= -TOL_DERIVED and spectrum[-1] <= 1.0 + TOL_DERIVED
    for setting in built.settings:
        p = setting.projector.entries
        assert np.max(np.abs(p @ p - p)) <= TOL_DERIVED
        assert np.max(np.abs(p - p.conj().T)) <= TOL_DERIVED
        if built.dim == 4 and setting.locality is not Locality.NONLOCAL:
            pt_min = np.linalg.eigvalsh(_partial_transpose(p))[0]
            assert pt_min >= -TOL_DERIVED, setting.label


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_local_transport_preserves_q(data):
    built = _two_qubit(data.draw)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    moved = local_transport(built, _haar_unitary(rng), _haar_unitary(rng))
    assert abs(metrics(moved).q - metrics(built).q) <= TOL_DERIVED


@pytest.mark.parametrize("name", sorted(BUILDERS))
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_json_round_trip(name, data):
    built = BUILDERS[name](data.draw)
    doc = json.loads(json.dumps(to_json_dict(built)))
    back = strategy_from_json(doc)
    assert type(back) is type(built)
    assert (back.kind, back.theta) == (built.kind, built.theta)
    assert back.target.amplitudes.tobytes() == built.target.amplitudes.tobytes()
    assert [(s.label, s.weight, s.locality) for s in back.settings] == [
        (s.label, s.weight, s.locality) for s in built.settings
    ]
    if isinstance(built, PauliStrategy):
        assert back.group.generators == built.group.generators
        assert back.indices == built.indices
        assert np.array_equal(back.counts, built.counts)
    else:
        assert back.omega.tobytes() == built.omega.tobytes()


probabilities = st.floats(1e-6, 1.0 - 1e-6)


@pytest.mark.parametrize("name", sorted(set(BUILDERS) - {"stabilizer-subset"}))
@given(
    data=st.data(),
    eps=st.lists(probabilities, min_size=2, max_size=2),
    delta=st.lists(probabilities, min_size=2, max_size=2),
)
@settings(max_examples=10, deadline=None)
def test_exact_count_is_monotone(name, data, eps, delta):
    m = metrics(BUILDERS[name](data.draw))
    (e_lo, e_hi), (d_lo, d_hi) = sorted(eps), sorted(delta)

    def count(e, d):
        return certainty_count_report(m, e, d, name).n_exact

    assert count(e_lo, d_lo) >= count(e_hi, d_lo) >= count(e_hi, d_hi)
    assert count(e_lo, d_lo) >= count(e_lo, d_hi) >= count(e_hi, d_hi)
