import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify.errors import (
    BadDimError,
    DegenerateStrategyError,
    DependentGeneratorsError,
    InconsistentSignsError,
    NonCommutingError,
    ValidationError,
)
from qverify.qcore import (
    MAX_QUBITS,
    PAULI_MATRICES,
    TOL_DERIVED,
    Ket,
    basis_ket,
    identity,
)
from qverify.cli import main
from qverify.stabilizer import (
    ParityCheck,
    PauliStrategy,
    PauliString,
    StabilizerGroup,
    all_zeros_group,
    cluster_group,
    full_strategy,
    generator_strategy,
    ghz_group,
    group_from_json,
    preset_group,
    subset_strategy,
    _column_syndromes,
    _pass_counts,
    _pass_rows,
)
from qverify.adversary import (
    AdversaryState,
    certify_optimality,
    hilbert_schmidt_mixed_state,
    hull_boundary,
    landscape,
    shift_fidelity,
    strategy_game_value,
    worst_case_state,
)
from qverify.samplecount import certainty_count_report
from qverify.strategy import MeasurementSetting, StrategyKind, bell_strategy, metrics
from qverify.strategy import two_qubit_optimal
from oracles import ghz_state, group_to_json
from stabilizer_oracles import (
    _gf2_rank,
    apply_to_index,
    as_dense,
    elements_by_products,
    equal_mixture,
    fix_phase,
    full_strategy_q,
    generator_strategy_q,
    joint_eigenvector,
    label_by_letters,
    label_presets,
    random_group,
    SCHEME_INDICES,
    pass_projectors,
    pauli_matrix,
    scheme_metrics,
    scheme_metrics_law,
    subset_report_fields,
)

PRESETS = ["bell", "ghz3", "ghz4", "cluster4"]

pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=4)


def test_pauli_label_round_trip():
    # positive sign renders bare, negative keeps its prefix
    for label in ("XX", "-YZ", "IZXI", "-Y"):
        p = PauliString.from_label(label)
        assert p.label == label
    assert PauliString.from_label("+XX").label == "XX"
    with pytest.raises(ValidationError):
        PauliString.from_label("+AB")
    with pytest.raises(ValidationError):
        PauliString.from_label("")


@given(a=pauli_labels, b=pauli_labels)
@settings(max_examples=60, deadline=None)
def test_symplectic_product_consistency(a, b):
    # pad to equal length
    width = max(len(a), len(b))
    a = a.ljust(width, "I")
    b = b.ljust(width, "I")
    pa = PauliString.from_label(a)
    pb = PauliString.from_label(b)
    if pa.commutes(pb):
        prod = pa * pb
        assert np.max(np.abs(pauli_matrix(prod) - pauli_matrix(pa) @ pauli_matrix(pb))) < 1e-12
    else:
        with pytest.raises(InconsistentSignsError):
            pa * pb


def test_anticommuting_pair_raises_on_product():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    assert not x.commutes(z)
    with pytest.raises(InconsistentSignsError):
        x * z


def test_apply_to_index_matches_matrix():
    for label in ("+XZ", "-YY", "+ZI", "-XY", "+YZXI"):
        p = PauliString.from_label(label)
        mat = pauli_matrix(p)
        dim = 2 ** len(label.lstrip("+-"))
        for col in range(dim):
            new_index, coeff = apply_to_index(p, col)
            expected = mat[:, col]
            assert abs(expected[new_index] - coeff) < 1e-12
            assert np.count_nonzero(expected) == 1
        for col in (-1, dim):
            with pytest.raises(BadDimError):
                apply_to_index(p, col)


def test_pauli_weight():
    assert PauliString.from_label("+XIZ").weight() == 2
    assert PauliString.from_label("+III").weight() == 0
    assert PauliString.from_label("+III").is_identity_letters


def test_group_rejects_non_commuting():
    with pytest.raises(NonCommutingError):
        StabilizerGroup(
            (PauliString.from_label("XI"), PauliString.from_label("ZI"))
        )


def test_group_rejects_dependent_generators():
    with pytest.raises(DependentGeneratorsError):
        StabilizerGroup(
            (
                PauliString.from_label("XX"),
                PauliString.from_label("ZZ"),
                PauliString.from_label("-YY"),
            )
        )


def test_signed_generators_stabilize_the_other_bell_state():
    # {-XX, ZZ} is a consistent group; its fixed state is
    # (|00> - |11>)/sqrt(2)
    group = StabilizerGroup(
        (PauliString.from_label("-XX"), PauliString.from_label("ZZ"))
    )
    psi = group.state()
    expect = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / math.sqrt(2.0)
    assert np.max(np.abs(psi.amplitudes - expect)) < 1e-12


def test_group_rejects_identity_generator():
    with pytest.raises(DependentGeneratorsError):
        StabilizerGroup((PauliString.from_label("+II"),))


def test_ghz_group_elements():
    group = ghz_group(3)
    assert group.num_qubits == 3
    assert len(group.elements) == 8
    assert group.elements[0].label == "III"


def test_ghz_state_matches_group_fixed_point():
    for n in (2, 3, 4):
        group = ghz_group(n)
        psi = group.state()
        expect = np.zeros(2**n, dtype=complex)
        expect[0] = expect[-1] = 1.0 / math.sqrt(2.0)
        assert np.max(np.abs(psi.amplitudes - expect)) < 1e-12
        assert np.max(np.abs(psi.amplitudes - ghz_state(n).amplitudes)) < 1e-15
        # every element fixes the state
        for element in group.elements:
            mat = pauli_matrix(element)
            assert np.max(np.abs(mat @ psi.amplitudes - psi.amplitudes)) < 1e-12


def test_cluster_and_zeros_states():
    cluster = cluster_group(4)
    psi = cluster.state()
    for g in cluster.generators:
        assert np.max(np.abs(pauli_matrix(g) @ psi.amplitudes - psi.amplitudes)) < 1e-12
    zeros = all_zeros_group(3)
    assert np.max(np.abs(zeros.state().amplitudes - basis_ket(8, 0).amplitudes)) < 1e-15


def test_preset_group_names():
    assert preset_group("bell").num_qubits == 2
    assert preset_group("ghz5").num_qubits == 5
    assert preset_group("cluster3").num_qubits == 3
    assert preset_group("zeros2").num_qubits == 2
    with pytest.raises(ValidationError):
        preset_group("w4")


def test_group_json_round_trip():
    group = cluster_group(3)
    labels = group_to_json(group)
    again = group_from_json(labels)
    assert group_to_json(again) == labels
    assert again.num_qubits == 3


@pytest.mark.parametrize("preset", PRESETS)
def test_hein_identity(preset):
    # averaging all group elements projects onto the stabilized state
    group = preset_group(preset)
    psi = group.state()
    total = sum(pauli_matrix(e) for e in group.elements) / len(group.elements)
    assert np.max(np.abs(total - np.outer(psi.amplitudes, psi.amplitudes.conj()))) <= 1e-10


@pytest.mark.parametrize("preset", PRESETS)
def test_full_strategy_two_eigenvalue_form(preset):
    group = preset_group(preset)
    strat = full_strategy(group)
    n = group.num_qubits
    q = float(full_strategy_q(n))
    psi = group.state().amplitudes
    expected = np.outer(psi, psi.conj()) * (1.0 - q) + q * np.eye(2**n)
    assert np.max(np.abs(as_dense(strat).omega - expected)) < 1e-12
    assert abs(metrics(strat).q - q) < 1e-10


@pytest.mark.parametrize("preset", PRESETS)
def test_generator_strategy_worst_case(preset):
    group = preset_group(preset)
    strat = generator_strategy(group)
    n = group.num_qubits
    assert abs(metrics(strat).q - generator_strategy_q(n)) < 1e-10
    assert abs(metrics(strat).q - (1.0 - 1.0 / n)) < 1e-10


def test_closed_form_q_values():
    # the oracles, and the library's correctly rounded reading of them
    assert full_strategy_q(2) == Fraction(1, 3)
    assert full_strategy_q(3) == Fraction(3, 7)
    assert generator_strategy_q(3) == Fraction(2, 3)
    assert generator_strategy_q(1) == 0
    assert full_strategy(ghz_group(3)).metrics.q == 3 / 7
    assert generator_strategy(ghz_group(3)).metrics.q == 2 / 3
    assert generator_strategy(all_zeros_group(1)).metrics.q == 0.0


def test_full_strategy_matches_bell_strategy():
    direct = bell_strategy()
    via_group = full_strategy(preset_group("bell"))
    assert sorted(s.label for s in via_group.settings) == sorted(s.label for s in direct.settings)
    assert np.max(np.abs(direct.omega - as_dense(via_group).omega)) == 0.0


def test_stabilizer_metrics_closed_form():
    group = ghz_group(5)
    m = full_strategy(group).metrics
    assert m.q == float(full_strategy_q(5))
    assert m.trace == 2**4 and type(m.trace) is float
    assert m.second_eigenvalue_gap == 1.0 - m.q


def test_stabilizer_sample_count_frozen_values():
    group = ghz_group(3)
    full, gens = (
        certainty_count_report(build(group).metrics, 0.01, 0.1, scheme)
        for scheme, build in (("full", full_strategy), ("generators", generator_strategy))
    )
    assert full.n_exact == 402
    assert abs(full.n_asymptotic - 402.95239127395797) < 1e-9
    assert gens.n_exact == 690
    assert abs(gens.n_asymptotic - 690.7755278982138) < 1e-9


def test_stabilizer_sample_count_beyond_dense_limit():
    # syndrome counts keep working where dense construction would not; the
    # strategy holds no matrices, and its worst-case state is a Ket
    group = ghz_group(10)
    built = full_strategy(group)
    report = certainty_count_report(metrics(built), 0.01, 0.1, "full")
    assert report.n_exact >= 1
    assert len(built.settings) == 2**10 - 1
    assert _metric_bits(metrics(built)) == _metric_bits(scheme_metrics_law(10, "full"))
    worst = worst_case_state(built, 0.1)
    assert worst.state.dim == 2**10 and abs(worst.fidelity - 0.9) <= 1e-12


def test_parity_check_columns():
    group = ghz_group(3)
    check = ParityCheck.build(group)
    n = group.num_qubits
    table = check.matrix
    assert table.shape == (n, 2**n)
    # column 0 passes everything; each syndrome appears exactly once
    assert np.all(table[:, 0] == 1)
    patterns = {tuple(int(v) for v in table[:, k]) for k in range(2**n)}
    assert len(patterns) == 2**n
    # exactly n columns fail exactly one generator
    sums = table.sum(axis=0)
    assert int(np.sum(sums == n - 1)) == n
    assert check.special_columns == (1, 2, 4)


def test_parity_check_beyond_dense_cap():
    # pass bits stay in syndrome space; only the eigenbasis is dense
    n = 12
    check = ParityCheck.build(ghz_group(n))
    k = np.arange(2**n)
    expected = np.array([1 - ((k >> (n - 1 - j)) & 1) for j in range(n)])
    assert check.matrix.shape == (n, 2**n)
    assert np.array_equal(check.matrix, expected)
    assert check.dim == 2**n
    assert check.special_columns == tuple(1 << j for j in range(n))
    with pytest.raises(BadDimError):
        check.eigenbasis
    # the strategies build and, but for a degenerate subset, give a state
    for build, size in (
        (full_strategy, 2**n - 1),
        (generator_strategy, n),
        (lambda g: subset_strategy(g, [1, 2]).strategy, 2),
    ):
        built = build(check.group)
        assert len(built.settings) == size
        if size == 2:
            with pytest.raises(DegenerateStrategyError):
                worst_case_state(built, 0.1)
        else:
            assert abs(worst_case_state(built, 0.1).fidelity - 0.9) <= 1e-12
        game = strategy_game_value(built, 0.1)
        assert game.accept_prob == 1.0 - 0.1 * (1.0 - built.metrics.q)


def test_parity_check_matrix_cached_read_only():
    n = 12
    check = ParityCheck.build(ghz_group(n))
    table = check.matrix
    assert check.matrix is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    for j in (0, 5, n - 1):
        for k in (0, 1, 100, 2**n - 1):
            assert check.eigenvalue(j, k) == 1 - 2 * ((k >> (n - 1 - j)) & 1)


def test_parity_check_eigenbasis_orthonormal():
    group = cluster_group(3)
    check = ParityCheck.build(group)
    basis = check.eigenbasis
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-10


def test_parity_check_uniform_weights_bound():
    group = ghz_group(4)
    check = ParityCheck.build(group)
    n = group.num_qubits
    counts = _pass_counts([1 << j for j in range(n)], n)[_column_syndromes(n)]
    acceptance = counts / n
    assert acceptance[0] == 1.0
    # away from the stabilized state the best fooling column reaches 1 - 1/n,
    # and the special columns are the ones that do
    assert max(acceptance[1:]) == float(generator_strategy_q(n))
    assert tuple(np.flatnonzero(counts == n - 1)) == check.special_columns


def test_parity_check_eigenvalue_signs():
    group = ghz_group(3)
    check = ParityCheck.build(group)
    for j in range(3):
        for s in range(8):
            expected = -1 if (s >> (2 - j)) & 1 else 1
            assert check.eigenvalue(j, s) == expected
    # generator -1 would read generator 2's row; 3 and 8 are past the ends
    for j, s in ((-1, 0), (3, 0), (0, -1), (0, 8)):
        with pytest.raises(BadDimError):
            check.eigenvalue(j, s)


@pytest.mark.parametrize("preset", PRESETS)
def test_all_generator_subset_is_complete(preset):
    group = preset_group(preset)
    n = group.num_qubits
    indices = [1 << j for j in range(n)]
    report = subset_strategy(group, indices)
    assert not report.degenerate
    assert report.stabilized_dimension == 1
    assert report.fooling_state is None
    assert abs(metrics(report.strategy).q - generator_strategy_q(n)) < 1e-10
    assert report.strategy.metrics.q == float(generator_strategy_q(n))


@pytest.mark.parametrize("preset", PRESETS)
def test_every_generator_drop_is_degenerate(preset):
    group = preset_group(preset)
    n = group.num_qubits
    psi = group.state()
    for dropped in range(n):
        indices = [1 << j for j in range(n) if j != dropped]
        report = subset_strategy(group, indices)
        assert report.degenerate
        assert report.stabilized_dimension == 2
        assert report.strategy.metrics.q == report.fooling_acceptance == 1.0
        fooling = report.fooling_state
        assert fooling is not None
        assert report.fooling_acceptance >= 1.0 - 1e-10
        assert abs(fooling.inner(psi)) < 1e-10


def test_subset_strategy_bell_single_element():
    group = preset_group("bell")
    report = subset_strategy(group, [1])
    assert report.degenerate
    fooling = report.fooling_state
    expect = np.zeros(4, dtype=complex)
    expect[1] = expect[2] = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(fooling.amplitudes - expect)) < 1e-12


def test_subset_strategy_validates_indices():
    group = preset_group("bell")
    with pytest.raises(ValidationError):
        subset_strategy(group, [])
    with pytest.raises(ValidationError):
        subset_strategy(group, [0])
    with pytest.raises(ValidationError):
        subset_strategy(group, [4])
    # duplicate indices are normalized away rather than rejected
    deduped = subset_strategy(group, [1, 1])
    assert deduped.degenerate


def test_subset_strategy_redundant_but_complete():
    # three elements of the bell group with full rank: any two of
    # {XX, ZZ, -YY} generate, adding the third keeps it complete
    group = preset_group("bell")
    report = subset_strategy(group, [1, 2, 3])
    assert not report.degenerate
    assert abs(metrics(report.strategy).q - 1.0 / 3.0) < 1e-10


def test_subset_strategy_dependent_pair_degenerate():
    # {XX, -YY} generate only a rank-2... both present: element 3 = XX*ZZ
    # indices {1, 3} give generators XX and -YY whose product is ZZ: rank 2
    group = preset_group("bell")
    report = subset_strategy(group, [1, 3])
    assert not report.degenerate


def test_mixed_element_subsets_of_ghz3():
    group = preset_group("ghz3")
    # elements 3 = g0*g1 and 5 = g0*g2 and 6 = g1*g2: their masks are
    # dependent (3 ^ 5 = 6), rank 2 < 3, so the subset is degenerate
    report = subset_strategy(group, [3, 5, 6])
    assert report.degenerate
    assert report.fooling_acceptance >= 1.0 - 1e-10
    # adding any single generator completes the basis
    report2 = subset_strategy(group, [3, 5, 6, 1])
    assert not report2.degenerate


def _dense_pauli(p):
    """Sign times the Kronecker product of the letter matrices."""
    mat = np.array([[p.sign]], dtype=complex)
    for letter in p.label.lstrip("-"):
        mat = np.kron(mat, PAULI_MATRICES[letter])
    return mat


def _dense_eigenbasis(group):
    """Reference joint eigenbasis from dense products of generator projectors.

    Column s multiplies (1 +- g_j)/2 over the generators (minus when bit
    N-1-j of s is set) and normalizes the first nonzero column of that
    product, so it shares no code with the syndrome-space route.
    """
    n = group.num_qubits
    dim = 2**n
    matrices = [_dense_pauli(g) for g in group.generators]
    eye = np.eye(dim, dtype=complex)
    basis = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        proj = eye
        for j, mat in enumerate(matrices):
            outcome = (s >> (n - 1 - j)) & 1
            proj = proj @ (eye + (-1.0) ** outcome * mat) / 2.0
        norms = np.linalg.norm(proj, axis=0)
        start = int(np.flatnonzero(norms > TOL_DERIVED)[0])
        column = proj[:, start]
        basis[:, s] = fix_phase(column / float(np.linalg.norm(column)))
    return basis


def _sign_flips(n):
    """No flips, every generator flipped, and alternate generators flipped."""
    return [(), tuple(range(n)), tuple(range(0, n, 2))]


ORACLE_PRESETS = ["bell"] + [
    f"{family}{n}" for family in ("ghz", "cluster", "zeros") for n in range(2, 7)
]


@pytest.mark.parametrize("preset", ORACLE_PRESETS)
def test_eigenbasis_and_state_match_dense_oracle_bitwise(preset):
    # every sum on both routes is an exact dyadic rational, so even signed
    # zeros must agree
    labels = group_to_json(preset_group(preset))
    for flipped in _sign_flips(len(labels)):
        group = group_from_json(
            [("-" + lab if j in flipped else lab) for j, lab in enumerate(labels)]
        )
        expected = _dense_eigenbasis(group)
        basis = ParityCheck.build(group).eigenbasis
        assert basis.tobytes() == expected.tobytes(), (preset, flipped)
        assert group.state().amplitudes.tobytes() == expected[:, 0].tobytes()
        n = group.num_qubits
        if 2 <= n <= 4:
            # without generator 0 the first fooling column sets only its bit
            kept = [1 << j for j in range(1, n)]
            fooling = subset_strategy(group, kept).fooling_state.amplitudes
            assert fooling.tobytes() == expected[:, 1 << (n - 1)].tobytes()


def _flipped_group(preset, flipped):
    labels = group_to_json(preset_group(preset))
    return group_from_json(
        [("-" + lab if j in flipped else lab) for j, lab in enumerate(labels)]
    )


def _column_pass_bit(num_qubits, mask, column):
    """1 iff element mask passes column: bits reversed into a syndrome, even overlap."""
    syndrome = int(format(column, f"0{num_qubits}b")[::-1], 2)
    return 1 - bin(mask & syndrome).count("1") % 2


@pytest.mark.parametrize("preset", ORACLE_PRESETS)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_subset_report_matches_dense_omega(preset, data):
    n = preset_group(preset).num_qubits
    drawn = data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=6))
    indices = sorted(set(drawn))
    rank = _gf2_rank(indices)
    for flipped in _sign_flips(n):
        group = _flipped_group(preset, flipped)
        basis = ParityCheck.build(group).eigenbasis
        report = subset_strategy(group, drawn)
        dense_strategy = as_dense(report.strategy)
        diag = basis.conj().T @ dense_strategy.omega @ basis
        passed = [
            sum(_column_pass_bit(n, m, k) for m in indices) for k in range(2**n)
        ]
        shares = [p / len(indices) for p in passed]
        assert np.max(np.abs(diag - np.diag(shares))) <= 1e-12
        # count route: exact shares; dense route within 1e-12
        assert report.strategy.metrics.q == max(shares[1:])
        assert report.strategy.metrics.trace == float(Fraction(sum(passed), len(indices)))
        assert metrics(report.strategy) == report.strategy.metrics
        dense = metrics(dense_strategy)
        assert abs(report.strategy.metrics.q - dense.q) <= 1e-12
        assert abs(report.strategy.metrics.trace - dense.trace) <= 1e-12
        # the GF(2) rank of the chosen masks stays the oracle for the count
        assert report.stabilized_dimension == 2 ** (n - rank)
        assert report.degenerate == (rank < n)
        if report.degenerate:
            first = next(k for k in range(1, 2**n) if shares[k] == 1.0)
            assert report.fooling_state.amplitudes.tobytes() == basis[:, first].tobytes()
            assert report.fooling_acceptance == 1.0
        else:
            assert report.fooling_state is None


def _worst_syndrome_acceptance(num_qubits, masks):
    """Largest share of masks passing a nonzero syndrome s: |mask & s| even."""
    parity = np.zeros(1, dtype=np.uint8)
    for _ in range(num_qubits):
        parity = np.concatenate([parity, parity ^ 1])
    masks = np.asarray(masks)
    syndromes = np.arange(1, 2**num_qubits)
    best = 0
    for chunk in np.array_split(syndromes, max(1, len(syndromes) // 512)):
        passed = (parity[chunk[:, None] & masks[None, :]] == 0).sum(axis=1)
        best = max(best, int(passed.max()))
    return best / len(masks)


def test_closed_form_q_is_worst_syndrome_acceptance():
    # brute force, closed form and count route agree bit for bit
    for n in range(2, 13):
        full = _worst_syndrome_acceptance(n, range(1, 2**n))
        gens = _worst_syndrome_acceptance(n, [1 << j for j in range(n)])
        for family in ("ghz", "cluster", "zeros"):
            group = preset_group(f"{family}{n}")
            k = group.num_qubits
            assert full == float(full_strategy_q(k))
            assert gens == float(generator_strategy_q(k))
            assert full_strategy(group).metrics.q == full
            assert generator_strategy(group).metrics.q == gens


@pytest.mark.parametrize("family", ["ghz", "cluster", "zeros"])
def test_stabilizer_command_prints_the_exact_laws(family, capsys):
    for n in range(2, 13):
        assert main(["stabilizer", "--preset", f"{family}{n}"]) == 0
        lines = capsys.readouterr().out.splitlines()
        record = dict(line.split(",", 1) for line in lines if not line.startswith("#"))
        full, gens = (scheme_metrics_law(n, scheme) for scheme in ("full", "generators"))
        assert record["q_full"] == repr(full.q)
        assert record["q_generators"] == repr(gens.q)
        assert record["trace"] == repr(full.trace)


@given(
    n=st.integers(1, 8),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_pass_counts_match_pass_rows(n, data):
    drawn = data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=12))
    indices = sorted(set(drawn))
    counts = _pass_counts(indices, n)
    assert counts.dtype == np.int64 and counts.shape == (2**n,)
    expected = _pass_rows(indices, n).sum(axis=0)
    assert np.array_equal(counts[_column_syndromes(n)], expected)


def test_count_route_builds_no_pass_table():
    # a k x 2^N table for the 4095 elements of ghz12 would take 16 MiB;
    # the count route holds a few arrays of 2^N integers
    group = ghz_group(12)
    tracemalloc.start()
    try:
        full = full_strategy(group).metrics
        report = subset_strategy(group, range(1, 2**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert full.q == report.strategy.metrics.q == float(full_strategy_q(12))
    assert not report.degenerate and report.stabilized_dimension == 1


@pytest.mark.parametrize(
    "preset,indices,dimension",
    [
        ("ghz8", [1, 2, 4], 2**5),
        ("ghz12", [1, 2], 2**10),
        ("cluster12", [1, 2, 4], 2**9),
        ("cluster12", [1 << j for j in range(12)], 1),
    ],
)
def test_subset_report_beyond_dense_cap(preset, indices, dimension):
    group = preset_group(preset)
    n = group.num_qubits
    report = subset_strategy(group, indices)
    assert report.stabilized_dimension == dimension
    assert report.degenerate == (dimension > 1)
    if report.degenerate:
        assert report.strategy.metrics.q == report.fooling_acceptance == 1.0
        fooling = report.fooling_state.amplitudes
        assert abs(np.vdot(group.state().amplitudes, fooling)) <= 1e-10
    else:
        assert report.strategy.metrics.q == float(generator_strategy_q(n))
    assert report.strategy.metrics.trace == 2.0 ** (n - 1)
    # the strategy holds no matrices; a sound one has a worst-case state
    assert [s.index for s in report.strategy.settings] == list(indices)
    if report.degenerate:
        with pytest.raises(DegenerateStrategyError):
            worst_case_state(report.strategy, 0.1)
    else:
        assert abs(worst_case_state(report.strategy, 0.1).fidelity - 0.9) <= 1e-12


def test_subset_report_strategy_is_cached_and_read_only():
    report = subset_strategy(preset_group("ghz3"), [1, 2])
    built = report.strategy
    assert report.strategy is built
    assert [s.label for s in built.settings] == ["XXX", "ZZI"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.strategy = built


@pytest.mark.parametrize(
    "fields,error",
    [
        ((0, 0, 0, 0), BadDimError),
        ((MAX_QUBITS + 1, 0, 0, 0), BadDimError),
        ((2, -1, 0, 0), ValidationError),
        ((2, 0, -2, 0), ValidationError),
        ((2, 0b100, 0, 0), ValidationError),
        ((2, 0, 0b110, 0), ValidationError),
        ((2, 0, 0, 4), ValidationError),
        ((2, 0, 0, -2), ValidationError),
        ((2, 1.0, 0, 0), ValidationError),
        ((2, np.int64(1), 0, 0), ValidationError),
        # XZ = -iY needs an odd phase; the identity an even one
        ((1, 1, 1, 0), InconsistentSignsError),
        ((1, 1, 1, 2), InconsistentSignsError),
        ((3, 0, 0, 1), InconsistentSignsError),
        ((3, 0b011, 0b110, 2), InconsistentSignsError),
    ],
)
def test_pauli_string_constructor_rejects(fields, error):
    with pytest.raises(error):
        PauliString(*fields)


def test_pauli_string_holds_four_ints():
    p = PauliString.from_label("-XYZ")
    assert dataclasses.astuple(p) == (3, 0b110, 0b011, 3)
    assert {type(v) for v in dataclasses.astuple(p)} == {int}
    assert (p.sign, p.label) == (-1, "-XYZ")
    assert PauliString(1, 1, 1, 1).label == "Y"
    assert PauliString(2, 0, 0, 2).label == "-II"
    assert PauliString(2, 0b10, 0b01).label == "XZ"


def _signed_labels(max_qubits):
    for n in range(1, max_qubits + 1):
        for letters in itertools.product("IXYZ", repeat=n):
            for sign in ("", "-"):
                yield sign + "".join(letters)


def test_every_signed_label_round_trips_and_matches_kronecker():
    for label in _signed_labels(3):
        p = PauliString.from_label(label)
        assert p.label == label
        if not label.startswith("-"):
            assert PauliString.from_label("+" + label) == p
        # bitwise once signed zeros are normalized: kron writes -0.0
        # off the diagonal of a negative string
        assert (pauli_matrix(p) + 0.0).tobytes() == (_dense_pauli(p) + 0.0).tobytes()


@pytest.mark.parametrize("preset", ORACLE_PRESETS)
def test_elements_match_dense_generator_products(preset):
    for flipped in _sign_flips(preset_group(preset).num_qubits):
        group = _flipped_group(preset, flipped)
        dense = [_dense_pauli(g) for g in group.generators]
        eye = np.eye(2**group.num_qubits, dtype=complex)
        for m, element in enumerate(group.elements):
            expected = eye
            for j, mat in enumerate(dense):
                if (m >> j) & 1:
                    expected = expected @ mat
            # _dense_pauli reads only the label, matrix() only the masks
            assert np.array_equal(_dense_pauli(element), expected), (preset, m)
            assert np.array_equal(pauli_matrix(element), expected), (preset, m)


# ------------------------------------------------------------ element table


SIGNED_SETS = [["-XX", "ZZ"], ["XX", "-YY"], ["-ZZ", "-XX"], ["YY", "-XX"], ["-XZ", "ZX"]]


def _table_oracle_groups():
    for preset in ["zeros1"] + ORACLE_PRESETS:
        for flipped in _sign_flips(preset_group(preset).num_qubits):
            yield _flipped_group(preset, flipped)
    for labels in SIGNED_SETS:
        yield group_from_json(labels)


def _assert_elements_match_products(group):
    # every assembled column, element and setting label, equals the
    # __mul__ chain and the checked constructor's string of its fields
    n = group.num_qubits
    expected = elements_by_products(group)
    checked = tuple(PauliString(n, *(int(v) for v in column)) for column in group.table.T)
    assert group.elements == expected == checked
    for ours in group.elements:
        assert {type(v) for v in dataclasses.astuple(ours)} == {int}
    for build in (full_strategy, generator_strategy):
        settings = build(group).settings
        labels = [s.label for s in settings]
        assert labels == [checked[s.index].label for s in settings]
        assert labels == [label_by_letters(expected[s.index]) for s in settings]


def test_table_routes_match_the_element_oracle_bitwise():
    # elements, state, eigenbasis and both dense strategies' projectors,
    # against the __mul__ chain, the per-syndrome eigenvector and
    # per-element matrix() projectors
    for group in _table_oracle_groups():
        n = group.num_qubits
        _assert_elements_match_products(group)
        state = joint_eigenvector(group, 0)
        assert group.state().amplitudes.tobytes() == state.tobytes()
        columns = [joint_eigenvector(group, int(s)) for s in _column_syndromes(n)]
        expected = np.column_stack(columns)
        basis = ParityCheck.build(group).eigenbasis
        assert basis.flags.c_contiguous and not basis.flags.writeable
        assert basis.tobytes() == expected.tobytes(), group_to_json(group)
        for build, indices in (
            (full_strategy, range(1, 2**n)),
            (generator_strategy, [1 << j for j in range(n)]),
        ):
            built = build(group)
            assert [s.label for s in built.settings] == [
                group.elements[m].label for m in indices
            ]
            ours = [s.projector.entries for s in as_dense(built).settings]
            theirs = pass_projectors(group, indices)
            assert [p.tobytes() for p in ours] == [p.tobytes() for p in theirs]


@pytest.mark.parametrize("num_qubits", range(2, MAX_QUBITS + 1))
def test_random_group_elements_match_the_element_oracle(num_qubits):
    group, _ = random_group(num_qubits, np.random.default_rng([num_qubits, 25]))
    _assert_elements_match_products(group)


@pytest.mark.parametrize(
    "family,sizes",
    [("ghz", range(2, 13)), ("cluster", range(2, 13)), ("zeros", range(1, 13))],
)
def test_mask_built_presets_match_the_label_built_ones(family, sizes):
    for n in sizes:
        ours, theirs = preset_group(f"{family}{n}").generators, label_presets(family, n)
        assert [dataclasses.astuple(g) + (g.label,) for g in ours] == [
            dataclasses.astuple(g) + (g.label,) for g in theirs
        ], (family, n)


def test_numpy_integer_preset_sizes_read_as_python_ints():
    for build in (ghz_group, cluster_group, all_zeros_group):
        ours = build(np.int64(3)).generators
        assert ours == build(3).generators
        assert {type(v) for g in ours for v in dataclasses.astuple(g)} == {int}


@pytest.mark.parametrize(
    "preset", [f"{family}{n}" for family in ("ghz", "cluster") for n in range(7, 13)]
)
def test_big_group_elements_and_state_match_the_element_oracle(preset):
    group = preset_group(preset)
    _assert_elements_match_products(group)
    expected = joint_eigenvector(group, 0)
    assert group.state().amplitudes.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "preset,indices",
    [
        ("ghz4", [1, 2, 3]),
        ("ghz4", [2, 4, 8]),
        ("cluster4", [1, 2, 3]),
        ("cluster4", [5, 10]),
        ("ghz6", [1, 2, 4]),
        ("ghz6", [3, 12, 48, 63]),
    ],
)
def test_fooling_state_matches_the_element_oracle(preset, indices):
    n = preset_group(preset).num_qubits
    for flipped in _sign_flips(n):
        group = _flipped_group(preset, flipped)
        report = subset_strategy(group, indices)
        assert report.degenerate
        column = next(
            k for k in range(1, 2**n)
            if all(_column_pass_bit(n, m, k) for m in indices)
        )
        syndrome = int(_column_syndromes(n)[column])
        expected = joint_eigenvector(group, syndrome)
        assert report.fooling_state.amplitudes.tobytes() == expected.tobytes()


def test_element_table_is_read_only_int64_in_element_order():
    group = preset_group("cluster3")
    table = group.table
    assert table.dtype == np.int64 and table.shape == (3, 8)
    assert not table.flags.writeable
    assert group.table is table
    xs, zs, phases = table
    for m, element in enumerate(elements_by_products(group)):
        assert (xs[m], zs[m], phases[m]) == (element.x, element.z, element.phase)


REPORT_PRESETS = ["bell", "zeros1"] + [
    f"{family}{n}" for family in ("ghz", "cluster", "zeros") for n in range(2, 7)
]


def _metric_bits(m):
    return np.array([m.q, m.trace, m.second_eigenvalue_gap]).tobytes()


@pytest.mark.parametrize("negated", [False, True], ids=["plus", "minus"])
@pytest.mark.parametrize("preset", REPORT_PRESETS)
def test_report_routes_match_the_retired_scheme_routes_bitwise(preset, negated):
    group = preset_group(preset)
    if negated:
        group = group_from_json(["-" + label for label in group_to_json(group)])
    n = group.num_qubits
    for build, scheme, kind, what in (
        (full_strategy, "full", StrategyKind.STABILIZER_FULL, "full_strategy"),
        (
            generator_strategy,
            "generators",
            StrategyKind.STABILIZER_GENERATORS,
            "generator_strategy",
        ),
    ):
        ours = build(group)
        theirs = equal_mixture(group, SCHEME_INDICES[scheme](n), kind, what)
        assert ours.kind is theirs.kind is kind
        assert ours.target.amplitudes.tobytes() == theirs.target.amplitudes.tobytes()
        assert [(s.label, s.weight, s.locality) for s in ours.settings] == [
            (s.label, s.weight, s.locality) for s in theirs.settings
        ]
        assert list(ours.indices) == SCHEME_INDICES[scheme](n).tolist()
        assert _metric_bits(metrics(ours)) == _metric_bits(scheme_metrics(group, scheme))


@pytest.mark.parametrize("scheme", ["full", "generators"])
@pytest.mark.parametrize(
    "preset", [f"{family}{n}" for family in ("ghz", "cluster") for n in range(2, 13)]
)
def test_scheme_metrics_match_the_report_bitwise(preset, scheme):
    # a scheme strategy, the custom subset report of the same indices and
    # the exact law give the same metric bits
    group = preset_group(preset)
    built = {"full": full_strategy, "generators": generator_strategy}[scheme](group)
    report = subset_strategy(group, SCHEME_INDICES[scheme](group.num_qubits))
    assert report.strategy.kind is StrategyKind.CUSTOM and not report.degenerate
    assert report.strategy.indices == built.indices
    assert report.strategy.counts.tobytes() == built.counts.tobytes()
    assert _metric_bits(built.metrics) == _metric_bits(report.strategy.metrics)
    assert _metric_bits(built.metrics) == _metric_bits(
        scheme_metrics_law(group.num_qubits, scheme)
    )


@pytest.mark.parametrize(
    "preset,indices,degenerate",
    [
        ("ghz4", [1, 2, 3], True),
        ("ghz4", [3, 5, 6, 9], True),
        ("ghz4", [1, 2, 4, 8], False),
        ("ghz4", range(1, 16), False),
        ("cluster4", [5, 10], True),
        ("cluster4", [3, 6, 12, 8], False),
        ("ghz8", [1, 2, 4], True),
        ("ghz8", [1 << j for j in range(8)], False),
        ("ghz12", [1, 2], True),
        ("ghz12", range(1, 2**12), False),
        # numpy integers are read as Python ints
        ("ghz4", np.array([8, 1, 2, 4, 1]), False),
        ("ghz4", [np.int32(6), np.uint8(5), 3], True),
    ],
)
def test_subset_reports_match_the_retired_route(preset, indices, degenerate):
    group = preset_group(preset)
    report = subset_strategy(group, indices)
    expected = subset_report_fields(group, indices)
    assert expected["degenerate"] is degenerate
    assert report.strategy.group is group and report.strategy.kind is StrategyKind.CUSTOM
    assert report.strategy.indices == expected["indices"]
    assert {type(k) for k in report.strategy.indices} == {int}
    assert _metric_bits(report.strategy.metrics) == _metric_bits(expected["metrics"])
    assert report.degenerate is expected["degenerate"]
    assert report.stabilized_dimension == expected["stabilized_dimension"]
    assert report.fooling_acceptance == expected["fooling_acceptance"]
    if degenerate:
        fooling = report.fooling_state.amplitudes
        assert fooling.tobytes() == expected["fooling_state"].tobytes()
    else:
        assert report.fooling_state is expected["fooling_state"] is None


@pytest.mark.parametrize("indices", [[], [0], [4], [0, 4], [3, 9, -1]])
def test_subset_strategy_rejects_indices_with_the_retired_messages(indices):
    group = preset_group("bell")
    with pytest.raises(ValidationError) as expected:
        subset_report_fields(group, indices)
    with pytest.raises(ValidationError) as caught:
        subset_strategy(group, indices)
    assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize(
    "indices", [[1.7, 2], ["3"], [True, 2], [2, np.float64(1.0)], [1, None]], ids=str
)
def test_subset_strategy_rejects_non_integer_indices(indices):
    group = preset_group("ghz3")
    with pytest.raises(ValidationError) as expected:
        PauliStrategy(group, tuple(indices), StrategyKind.CUSTOM)
    with pytest.raises(ValidationError) as caught:
        subset_strategy(group, indices)
    assert str(caught.value) == str(expected.value)
    assert str(caught.value).endswith("are not the element indices of a custom strategy")


def test_subset_strategy_names_an_index_too_wide_for_int64():
    with pytest.raises(ValidationError, match=f"element index {2**70} outside"):
        subset_strategy(preset_group("ghz3"), [1, 2**70])
    with pytest.raises(ValidationError, match=r"element index -1 outside"):
        subset_strategy(preset_group("ghz3"), [2**63, -1])


@pytest.mark.parametrize(
    "labels,error,match",
    [
        (["ZZ"], ValidationError, "1 generators on 2 qubits do not pin down a single state"),
        (["ZZI", "XXI"], ValidationError, "2 generators on 3 qubits do not pin down"),
        (["XX", "ZZ", "-YY"], DependentGeneratorsError, "3 generators on 2 qubits are dependent"),
        (["Z", "-Z"], DependentGeneratorsError, "2 generators on 1 qubits are dependent"),
        # 2^70 table columns: the count is checked before the table is built
        (["Z"] * 70, DependentGeneratorsError, "70 generators on 1 qubits are dependent"),
        # anticommuting pairs: the count is checked before the pairwise loop
        (["XX", "ZI", "IZ"], DependentGeneratorsError, "3 generators on 2 qubits are dependent"),
    ],
    ids=[
        "one-on-two", "two-on-three", "three-on-two", "two-on-one", "seventy-on-one",
        "three-anticommuting-on-two",
    ],
)
def test_group_needs_one_generator_per_qubit(labels, error, match):
    generators = tuple(PauliString.from_label(label) for label in labels)
    with pytest.raises(error, match=match):
        StabilizerGroup(generators)
    with pytest.raises(error, match=match):
        group_from_json(labels)


@pytest.mark.parametrize("seed", range(4))
def test_table_independence_matches_the_rank_oracle(seed):
    # a random group with one generator swapped for a product of a random
    # subset of them, and random sign flips: the constructor raises
    # DependentGeneratorsError exactly when the (x, z) rows have GF(2)
    # rank below N, -identity in the generated group included
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(1, 7))
        generators = list(random_group(n, rng, gates=2 * n * n)[0].generators)
        j, chosen = int(rng.integers(n)), rng.integers(2, size=n)
        product = PauliString(n, 0, 0)
        for g in itertools.compress(generators, chosen):
            product = product * g
        generators[j] = product
        flips = rng.integers(2, size=n)
        generators = [
            PauliString(n, g.x, g.z, (g.phase + 2 * int(flip)) % 4)
            for g, flip in zip(generators, flips)
        ]
        dependent = _gf2_rank([g.x << n | g.z for g in generators]) < n
        # made of others, generator j times them has identity letters: it
        # is -identity when an odd number of those factors was flipped
        made_of_others = chosen.any() and not chosen[j]
        minus_identity = bool(made_of_others and (flips[j] + flips @ chosen) % 2)
        if dependent:
            with pytest.raises(DependentGeneratorsError):
                StabilizerGroup(tuple(generators))
        else:
            assert StabilizerGroup(tuple(generators)).num_qubits == n
        seen.add((dependent, minus_identity))
    assert {(False, False), (True, False), (True, True)} <= seen


BELL = bell_strategy()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: AdversaryState(basis_ket(2, 0), "x"), id="fidelity-str"),
        pytest.param(lambda: AdversaryState(basis_ket(2, 0), None), id="fidelity-none"),
        pytest.param(lambda: AdversaryState(np.eye(2) / 2, 0.5), id="adversary-state-array"),
        pytest.param(lambda: StabilizerGroup(5), id="group-int"),
        pytest.param(lambda: StabilizerGroup(("XX", "ZZ")), id="group-labels"),
        pytest.param(lambda: preset_group(5), id="preset-int"),
        pytest.param(lambda: PauliString.from_label(None), id="label-none"),
        pytest.param(lambda: ParityCheck(5), id="parity-check-int"),
        pytest.param(lambda: full_strategy(5), id="full-int"),
        pytest.param(lambda: generator_strategy(5), id="generators-int"),
        pytest.param(lambda: worst_case_state(5, 0.1), id="worst-case-int"),
        pytest.param(lambda: subset_strategy(preset_group("ghz3"), 5), id="subset-int"),
        pytest.param(lambda: group_from_json(5), id="group-json-int"),
        pytest.param(lambda: PauliString.from_label("XX") * 5, id="product-int"),
        pytest.param(lambda: PauliString.from_label("XX").commutes(5), id="commutes-int"),
        pytest.param(lambda: basis_ket(4, "a"), id="basis-index-str"),
        pytest.param(
            lambda: ParityCheck(preset_group("ghz3")).eigenvalue("a", 0), id="eigenvalue-str"
        ),
        pytest.param(lambda: ghz_group("3"), id="ghz-str"),
        pytest.param(lambda: cluster_group(2.0), id="cluster-float"),
        pytest.param(lambda: ghz_group(True), id="ghz-bool"),
        pytest.param(lambda: strategy_game_value(5, 0.1), id="game-value-strategy-int"),
        pytest.param(lambda: certify_optimality("a"), id="certify-theta-str"),
        pytest.param(lambda: certify_optimality(0.5, 400.5), id="certify-resolution-float"),
        pytest.param(lambda: two_qubit_optimal("a"), id="two-qubit-theta-str"),
        pytest.param(
            lambda: MeasurementSetting(identity(4), 1.0, "all", "x"), id="setting-locality-str"
        ),
        pytest.param(lambda: landscape("a"), id="landscape-theta-str"),
        pytest.param(lambda: hull_boundary("a"), id="hull-theta-str"),
        pytest.param(lambda: hull_boundary(0.5, "a"), id="hull-points-str"),
        pytest.param(lambda: shift_fidelity(5, BELL.target, 0.1), id="shift-rho-int"),
        pytest.param(lambda: shift_fidelity(BELL.target, BELL.target, 0.1), id="shift-rho-ket"),
        pytest.param(lambda: shift_fidelity(np.eye(4) / 4, "x", 0.1), id="shift-target-str"),
        pytest.param(lambda: hilbert_schmidt_mixed_state("a", None), id="hilbert-schmidt-dim-str"),
        pytest.param(
            lambda: hilbert_schmidt_mixed_state(-1, np.random.default_rng(0)),
            id="hilbert-schmidt-dim-negative",
        ),
        pytest.param(
            lambda: hilbert_schmidt_mixed_state(0, np.random.default_rng(0)),
            id="hilbert-schmidt-dim-zero",
        ),
    ],
)
def test_wrong_types_raise_validation_error(build, monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("bad input reached an eigensolve")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_eigensolve)
    with pytest.raises(ValidationError):
        build()
