import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify import qcore
from qverify.errors import BadDimError, NonHermitianError, QVerifyError, ValidationError
from qverify.qcore import (
    PAULI_MATRICES,
    PAULI_X,
    PAULI_Z,
    HermitianOperator,
    Ket,
    basis_ket,
    haar_random_ket,
    identity,
    orthocomplement_basis,
    partial_transpose_qubit2,
    tensor,
)
from oracles import is_projector


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


def test_ket_requires_unit_norm():
    Ket(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        Ket(np.array([1.0, 1.0], dtype=complex))


def test_ket_norm_errors_are_domain_errors():
    # bad input, so the command line reports it as exit 2, not as a bug
    with pytest.raises(QVerifyError):
        Ket(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(QVerifyError):
        Ket.normalized([0.0, 0.0])


def test_ket_requires_power_of_two_dim():
    with pytest.raises(BadDimError):
        Ket(np.array([0.0, 1.0, 0.0], dtype=complex) / 1.0)


def test_ket_normalized_constructor():
    k = Ket.normalized([3.0, 4.0])
    assert k.dim == 2
    assert abs(np.linalg.norm(k.amplitudes) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        Ket.normalized([0.0, 0.0])


def test_ket_amplitudes_frozen():
    k = basis_ket(4, 2)
    with pytest.raises(ValueError):
        k.amplitudes[0] = 1.0


def test_ket_inner_and_fidelity():
    zero = basis_ket(2, 0)
    one = basis_ket(2, 1)
    plus = Ket.normalized([1.0, 1.0])
    assert zero.inner(one) == 0.0
    assert abs(plus.fidelity(zero) - 0.5) < 1e-15
    with pytest.raises(BadDimError):
        zero.inner(basis_ket(4, 0))


def test_density_is_projector():
    k = haar_random_ket(8, seed=5)
    rho = k.density()
    assert is_projector(rho)
    assert abs(rho.trace() - 1.0) < 1e-12
    assert abs(rho.expectation(k) - 1.0) < 1e-12


def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(BadDimError):
        HermitianOperator(np.zeros((2, 3), dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_constructors_reject_non_finite_entries(bad):
    # a NaN compares false against every tolerance, so only an explicit
    # check keeps it out
    with pytest.raises(ValidationError):
        Ket(np.array([bad, 0.0], dtype=complex))
    with pytest.raises(ValidationError):
        HermitianOperator(np.diag([bad, 1.0]).astype(complex))
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[1.0, bad], [bad, 0.0]], dtype=complex))


def test_pauli_matrices_square_to_identity():
    for name, mat in PAULI_MATRICES.items():
        assert np.allclose(mat @ mat, np.eye(2)), name
        assert np.allclose(mat, mat.conj().T), name


def test_tensor_rejects_mixed_arguments():
    with pytest.raises(ValidationError):
        tensor(basis_ket(2, 0), identity(2))


def test_tensor_kets_matches_kron():
    a = haar_random_ket(2, seed=1)
    b = haar_random_ket(4, seed=2)
    joint = tensor(a, b)
    assert np.allclose(joint.amplitudes, np.kron(a.amplitudes, b.amplitudes))
    assert joint.num_qubits == 3


def test_tensor_operators_matches_kron():
    a = HermitianOperator(PAULI_X)
    b = HermitianOperator(np.diag([1.0, 0.0, 0.0, 1.0]))
    joint = tensor(a, b)
    assert np.array_equal(joint.entries, np.kron(a.entries, b.entries))
    assert joint.num_qubits == 3


def test_fix_phase_convention():
    # the row pass of the joint eigenvectors: each row a unit vector whose
    # largest amplitude is real positive; a tie on magnitude picks the lowest index
    from qverify.stabilizer import _unit_rows
    _, vecs = np.linalg.eigh(random_hermitian(8, seed=11))
    rows = _unit_rows(2.0 * vecs.T)
    for row, vec in zip(rows, vecs.T):
        pivot = row[int(np.argmax(np.abs(row)))]
        assert abs(pivot.imag) < 1e-12
        assert pivot.real > 0
        assert np.allclose(np.abs(row), np.abs(vec))
    tied = _unit_rows(np.array([[-1j, 1.0, 0.0, 0.0], [0.0, 2.0, -2j * (1.0 + 1e-13), 0.0]]))
    assert np.array_equal(tied[0], np.array([1.0, 1j, 0.0, 0.0]) / np.sqrt(2.0))
    assert tied[1][1] > 0  # within TOL_INPUT of the largest: still a tie


def test_partial_transpose_swaps_second_factor():
    a = random_hermitian(2, seed=21)
    b = random_hermitian(2, seed=22)
    joint = HermitianOperator(np.kron(a, b))
    swapped = partial_transpose_qubit2(joint)
    assert np.allclose(swapped.entries, np.kron(a, b.T))
    with pytest.raises(BadDimError):
        partial_transpose_qubit2(identity(8))


def test_partial_transpose_detects_entanglement():
    bell = Ket.normalized([1.0, 0.0, 0.0, 1.0])
    vals = np.linalg.eigvalsh(partial_transpose_qubit2(bell.density()).entries)
    assert vals[0] < -0.49


def test_is_projector():
    assert is_projector(basis_ket(4, 1).density())
    assert is_projector(identity(4))
    assert not is_projector(HermitianOperator(0.5 * np.eye(4, dtype=complex)))


def test_haar_random_ket_seeded():
    a = haar_random_ket(8, seed=42)
    b = haar_random_ket(8, seed=42)
    c = haar_random_ket(8, seed=43)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_orthocomplement_basis_spans_orthogonal_subspace(seed):
    state = haar_random_ket(8, seed)
    basis = orthocomplement_basis(state)
    assert basis.shape == (8, 7)
    overlaps = basis.conj().T @ state.amplitudes
    assert np.max(np.abs(overlaps)) < 1e-10
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(7))) < 1e-10


def test_basis_ket_bounds():
    with pytest.raises(BadDimError):
        basis_ket(4, 4)


def test_expectation_of_parity():
    zz = HermitianOperator(np.kron(PAULI_Z, PAULI_Z))
    bell = Ket.normalized([1.0, 0.0, 0.0, 1.0])
    assert abs(zz.expectation(bell) - 1.0) < 1e-12
    xx = HermitianOperator(np.kron(PAULI_X, PAULI_X))
    assert abs(xx.expectation(bell) - 1.0) < 1e-12


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_a_bool_is_no_real_number_as_it_is_no_integer(value):
    for read, wording in ((qcore._real, "real number"), (qcore._integer, "integer")):
        with pytest.raises(ValidationError, match=f"x must be an? {wording}, got "):
            read("x", value)


@pytest.mark.parametrize(
    "value",
    [True, np.False_, np.array([True, False]), [0.5, True], (1.0, np.True_), [[0.5], [True]],
     np.array([0.5, True], dtype=object)],
)
def test_a_bool_in_an_array_of_reals_is_bad_input(value):
    from qverify.adversary import ridge_alpha, ridge_q
    with pytest.raises(ValidationError, match="x must be an array of reals, got "):
        qcore._reals("x", value)
    # the array reader and the scalar one agree
    for call in (lambda: ridge_q(value, 1.0), lambda: ridge_alpha(value, 1.0)):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize(
    "value",
    ["0.5", b"0.5", [np.array(True), 0.5], ["0.3", "0.5"], np.array(["0.5"]), [0.5, None],
     np.array([0.5 + 0j])],
    ids=["str", "bytes", "0-d-bool-array-in-list", "str-list", "str-array", "none", "complex"],
)
def test_an_array_of_reals_holds_only_real_cells(value):
    from qverify.adversary import ridge_q
    from qverify.samplecount import figure1_data
    with pytest.raises(ValidationError, match="x must be an array of reals, got "):
        qcore._reals("x", value)
    with pytest.raises(ValidationError, match="big_p must be an array of reals, got "):
        ridge_q(value, 1.0)
    with pytest.raises(ValidationError, match="thetas must be an array of reals, got "):
        figure1_data(0.01, 0.1, value)


def test_an_array_of_reals_reads_ints_floats_and_nested_lists():
    assert qcore._reals("x", 0.25).tolist() == 0.25
    assert qcore._reals("x", [1, 2.5, np.float32(0.5)]).tolist() == [1.0, 2.5, 0.5]
    assert qcore._reals("x", np.arange(3)).dtype == float
    assert qcore._reals("x", [[1, 2], [3, 4]]).shape == (2, 2)
    assert qcore._reals("x", [np.array(0.5), np.float32(0.25), np.array([1, 2])[0]]).tolist() == [
        0.5, 0.25, 1.0]


@pytest.mark.parametrize("value", [True, np.True_])
def test_a_bool_angle_or_probability_is_bad_input(value):
    from qverify import samplecount
    from qverify.strategy import Strategy, StrategyKind, bell_strategy
    bell = bell_strategy()
    for call in (
        lambda: Strategy(bell.target, bell.settings, StrategyKind.BELL, theta=value),
        lambda: samplecount.check_angle(value),
        lambda: samplecount.exact_count(value, 0.1),
    ):
        with pytest.raises(ValidationError, match="must be a real number, got "):
            call()
