"""Dense complex linear algebra for small multi-qubit systems.

States are unit vectors in a 2**N dimensional complex space and
observables are Hermitian matrices over the same space. Everything is
double precision, dense, and immutable after construction; dimensions
stay small (N <= 12) so exact methods (full eigendecomposition,
Kronecker products) remain cheap and well conditioned.

Two tolerances are used throughout the package: TOL_INPUT for structural
checks on directly constructed values (norms, Hermiticity, weights) and
TOL_DERIVED for quantities that went through arithmetic (eigenvalues,
assembled operators, acceptance probabilities).

The operator, norm and projector checks are written once, for a stack
of k matrices or vectors; a single HermitianOperator or Ket is checked
as a stack of one, and strategy settings as one stack per strategy.
Eigenvectors are used as LAPACK returns them, with no tie-breaking.

Public entry points read each argument kind through one reader here:
_integer, _real, _reals (a float array), _ket, _matrix (a finite d x d
array) and _state (a Ket, or a density matrix checked once per operator);
a value of the wrong type raises ValidationError.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadDimError,
    NonHermitianError,
    NormalizationError,
    QVerifyError,
    ValidationError,
)

TOL_INPUT = 1e-12
TOL_DERIVED = 1e-10

# Dense operations are meant for at most this many qubits.
MAX_QUBITS = 12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_MATRICES = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _frozen_array(values, what: str) -> np.ndarray:
    """A read-only complex copy of values; anything that is not an array of
    finite numbers is bad input."""
    try:
        arr = np.array(values, dtype=complex)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be an array of numbers, got {values!r}") from None
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} has a non-finite entry")
    arr.setflags(write=False)
    return arr


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_dense_dim(dim: int, what: str) -> None:
    if not _is_power_of_two(dim):
        raise BadDimError(f"{what} dimension {dim} is not a power of two")
    if dim > 2**MAX_QUBITS:
        raise BadDimError(
            f"{what} dimension {dim} exceeds the dense limit of {MAX_QUBITS} qubits"
        )


def _operator_defects(stack: np.ndarray, what: str) -> list[QVerifyError | None]:
    """The HermitianOperator error of each matrix of a stack, or None: a
    non-finite entry, else max |H - H^dagger| > TOL_INPUT. A non-finite
    first matrix and a bad shape (square, a power of two within the dense
    limit, one for the whole stack) come before any other check of any
    matrix, so they are raised at once. An operator is the stack of one.
    """
    k = len(stack)
    if not k:
        return []
    finite = np.isfinite(stack.reshape(k, -1)).all(axis=1).tolist()
    if not finite[0]:
        raise ValidationError(f"{what} has a non-finite entry")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise BadDimError(f"{what} entries must form a square matrix")
    _check_dense_dim(stack.shape[1], what)
    if not all(finite):
        stack = np.where(np.array(finite)[:, None, None], stack, 0.0)
    residuals = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)).tolist()
    return [
        ValidationError(f"{what} has a non-finite entry") if not ok
        else NonHermitianError(f"{what} deviates from Hermitian by {r!r} (> {TOL_INPUT})")
        if r > TOL_INPUT else None
        for ok, r in zip(finite, residuals)
    ]


def _check_unit_norms(rows: np.ndarray, what: str) -> None:
    """Reject a (k, d) stack of amplitudes unless every row has norm 1 within TOL_INPUT."""
    norms = np.linalg.norm(rows, axis=1)
    off = np.abs(norms - 1.0) > TOL_INPUT
    if off.any():
        raise NormalizationError(
            f"{what} norm {float(norms[off.argmax()])!r} deviates from 1 by more than {TOL_INPUT}"
        )


_new, _set = object.__new__, object.__setattr__


def _assembled(cls, **fields):
    """An instance of a frozen dataclass from fields a stacked check has
    already validated together, without running its per-instance checks
    a second time."""
    obj = _new(cls)
    for name, value in fields.items():
        _set(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class Ket:
    """A unit vector over a 2**N dimensional complex space.

    The amplitude array is copied on construction and frozen; every
    amplitude must be finite and the L2 norm must equal 1 within
    TOL_INPUT. Use Ket.normalized to build from an unnormalized vector.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.amplitudes, "ket")
        if arr.ndim != 1:
            raise BadDimError("ket amplitudes must form a flat vector")
        object.__setattr__(self, "amplitudes", arr)
        _check_dense_dim(arr.shape[0], "ket")
        _check_unit_norms(arr[None], "ket")

    @classmethod
    def normalized(cls, amplitudes) -> "Ket":
        arr = _frozen_array(amplitudes, "ket")
        norm = float(np.linalg.norm(arr))
        if norm < TOL_INPUT:
            raise NormalizationError("cannot normalize a (near) zero vector")
        return cls(arr / norm)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.shape[0])

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def inner(self, other: "Ket") -> complex:
        """<self|other>."""
        if _ket("other", other).dim != self.dim:
            raise BadDimError("inner product needs matching dimensions")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "Ket") -> float:
        return float(abs(self.inner(other)) ** 2)

    def density(self) -> "HermitianOperator":
        """The rank one density matrix |self><self|."""
        return HermitianOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A Hermitian matrix over a 2**N dimensional space.

    Entries are copied and frozen and must be finite; max |H - H^dagger|
    must be at most TOL_INPUT or construction fails with NonHermitianError.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries, "operator")
        defect = _operator_defects(arr[None], "operator")[0]
        if defect is not None:
            raise defect
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def expectation(self, state: Ket) -> float:
        """<state|self|state>, guaranteed real for Hermitian entries."""
        if _ket("state", state).dim != self.dim:
            raise BadDimError("expectation needs matching dimensions")
        val = np.vdot(state.amplitudes, self.entries @ state.amplitudes)
        return float(val.real)

    @cached_property
    def _density_defect(self) -> str | None:
        """Why self is no density matrix, or None: an eigenvalue below
        -TOL_DERIVED, or a trace off 1 by more than TOL_INPUT."""
        low = float(np.linalg.eigvalsh(self.entries)[0])
        if low < -TOL_DERIVED:
            return f"has eigenvalue {low!r}"
        if abs(self.trace() - 1.0) > TOL_INPUT:
            return f"trace {self.trace()!r} is not 1"
        return None


def identity(dim: int) -> HermitianOperator:
    _check_dense_dim(_integer("dim", dim), "identity")
    return HermitianOperator(np.eye(dim, dtype=complex))


def _reals(name: str, value) -> np.ndarray:
    """value as a float array; anything numpy cannot read as reals is bad input."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an array of reals, got {value!r}") from None


def _ket(name: str, value) -> Ket:
    """value, if it is a Ket; anything else is bad input."""
    if not isinstance(value, Ket):
        raise ValidationError(f"{name} must be a Ket, got {value!r}")
    return value


def _matrix(name: str, value, dim: int) -> np.ndarray:
    """value as a finite complex dim x dim array (read-only); a
    HermitianOperator passes its entries through. A value that is no 2-D
    array is bad input, a matrix of another size a BadDimError."""
    arr = value.entries if isinstance(value, HermitianOperator) else _frozen_array(value, name)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a matrix, got {value!r}")
    if arr.shape != (dim, dim):
        raise BadDimError(f"{name} of shape {arr.shape} is no {dim} x {dim} matrix")
    return arr


def _state(name: str, value, dim: int | None = None) -> Ket | HermitianOperator:
    """value as a Ket, or a density matrix (an operator, or an array if dim is
    given) as its checked HermitianOperator, of dimension dim if given."""
    if not isinstance(value, (Ket, HermitianOperator)):
        if dim is None:
            raise ValidationError(f"{name} {value!r} is no Ket or HermitianOperator")
        arr = _matrix(name, value, dim)
        defect = _operator_defects(arr[None], name)[0]
        if defect is not None:
            raise defect
        value = _assembled(HermitianOperator, entries=arr)
    if dim is not None and value.dim != dim:
        raise BadDimError(f"{name} of dimension {value.dim} is no {dim} dimensional state")
    if isinstance(value, HermitianOperator) and value._density_defect is not None:
        raise ValidationError(f"{name} {value._density_defect}")
    return value


def _integer(name: str, value) -> int:
    """value as a Python int; a bool or any non-integer is bad input."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """value as a float; anything that is not a real number is bad input."""
    if type(value) is not float and not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_index(what: str, index: int, size: int) -> None:
    if not 0 <= _integer(what, index) < size:
        raise BadDimError(f"{what} {index} outside [0, {size})")


def basis_ket(dim: int, index: int) -> Ket:
    check_index("basis index", index, _integer("dim", dim))
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return Ket(amps)


def tensor(a, b):
    """Kronecker product of two kets or two operators (never a mix)."""
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.entries, b.entries))
    raise ValidationError("tensor takes two Kets or two HermitianOperators")


def _fix_phase(column: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest amplitude is real positive.

    Ties on magnitude (within TOL_INPUT) resolve to the lowest index.
    """
    mags = np.abs(column)
    top = float(mags.max())
    pivot = int(np.flatnonzero(mags >= top - TOL_INPUT)[0])
    phase = column[pivot] / abs(column[pivot])
    return column / phase


def partial_transpose_qubit2(op: HermitianOperator) -> HermitianOperator:
    """Transpose the second tensor factor of a two qubit operator.

    Entry <ij|M|kl> moves to <il|M|kj>. The result of transposing one
    factor of a Hermitian matrix is again Hermitian. Raises BadDimError
    unless dim == 4.
    """
    return HermitianOperator(_partial_transposes(_matrix("op", op, 4)[None])[0])


def _partial_transposes(stack: np.ndarray) -> np.ndarray:
    """partial_transpose_qubit2 of each matrix of a (k, 4, 4) stack."""
    m = stack.reshape(-1, 2, 2, 2, 2)
    return m.transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)


def _projector_defects(stack: np.ndarray, tol: float) -> np.ndarray:
    """For each matrix of a nonempty finite Hermitian (k, d, d) stack, True
    unless it is idempotent (max |P^2 - P| <= tol) with every eigenvalue
    within tol of 0 or 1.
    """
    idempotence = np.abs(stack @ stack - stack).max(axis=(1, 2))
    vals = np.linalg.eigvalsh(stack)
    spread = np.minimum(np.abs(vals), np.abs(vals - 1.0)).max(axis=1)
    return (idempotence > tol) | ~(spread <= tol)


def haar_random_ket(dim: int, seed: int) -> Ket:
    """A Haar distributed pure state; identical seed gives identical output."""
    if _integer("dim", dim) < 1:
        raise BadDimError("haar_random_ket needs dim >= 1")
    rng = np.random.default_rng(_integer("seed", seed))
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Ket.normalized(v)


def orthocomplement_basis(state: Ket) -> np.ndarray:
    """Columns forming an orthonormal basis of the subspace orthogonal to state.

    Deterministic: QR of [state, e_0, ..., e_{d-2}] and drop the first
    column. Shape (d, d-1).
    """
    d = _ket("state", state).dim
    stacked = np.zeros((d, d), dtype=complex)
    stacked[:, 0] = state.amplitudes
    stacked[:, 1:] = np.eye(d, dtype=complex)[:, : d - 1]
    q, _ = np.linalg.qr(stacked)
    return q[:, 1:]
