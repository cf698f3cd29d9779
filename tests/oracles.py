"""Test-only helpers over the library's checked internals.

The library has no caller for these; tests read a single projector
check, a device's per-copy state and a dense strategy's eigenproblem
through them.
"""

import numpy as np

from qverify.qcore import TOL_DERIVED, HermitianOperator, Ket, _projector_defects
from qverify.qcore import orthocomplement_block
from qverify.samplecount import StrategyMetrics


def is_projector(op: HermitianOperator) -> bool:
    """True when op is idempotent with eigenvalues in {0, 1} within
    TOL_DERIVED, by the library's stacked check on a stack of one."""
    return not _projector_defects(op.entries[None], TOL_DERIVED)[0]


def density_at(device, copy_index: int) -> np.ndarray:
    """Copy copy_index's density matrix: a fixed device's sigma, or the
    supplier's state checked as the protocol checks it; a pure state,
    which the device keeps as its Ket, is densified."""
    state = device.sigma
    if state is None:
        state = device._supplied_state(device.supplier(copy_index), copy_index)
    return state.density().entries if isinstance(state, Ket) else state


def dense_metrics(strategy) -> StrategyMetrics:
    """q and trace solved from a dense strategy's own omega, whatever its
    metrics hold: q is the top eigenvalue of omega on the target's
    orthocomplement, clamped to [0, 1]. The oracle of every closed form."""
    _, block = orthocomplement_block(strategy.target, strategy.omega)
    top = float(np.linalg.eigvalsh(block)[-1])
    return StrategyMetrics(min(max(top, 0.0), 1.0), float(np.trace(strategy.omega).real))
