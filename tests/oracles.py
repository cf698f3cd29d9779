"""Test-only helpers over the library's checked internals.

The library has no caller for these; tests read a single projector
check and a device's per-copy state through them.
"""

import numpy as np

from qverify.qcore import TOL_DERIVED, HermitianOperator, _projector_defects


def is_projector(op: HermitianOperator) -> bool:
    """True when op is idempotent with eigenvalues in {0, 1} within
    TOL_DERIVED, by the library's stacked check on a stack of one."""
    return not _projector_defects(op.entries[None], TOL_DERIVED)[0]


def density_at(device, copy_index: int) -> np.ndarray:
    """Copy copy_index's density matrix: a fixed device's sigma, or the
    supplier's state checked as the protocol checks it."""
    if device.sigma is not None:
        return device.sigma
    return device._supplied_density(device.supplier(copy_index), copy_index)
