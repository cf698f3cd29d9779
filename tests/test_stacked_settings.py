"""The stacked setting checks against the per-setting route they replaced.

Strategy settings are validated as one (k, d, d) stack by
strategy._settings. The per-setting route it replaced lives on here as
an oracle: `oracle_setting` is the former MeasurementSetting and
HermitianOperator validation, one setting at a time, and the oracle
builders are the former constructors, one HermitianOperator per
projector and one Ket per annihilating product state. The stacked route
must build bitwise the same projectors, Omega, metrics and JSON bytes,
and reject a bad setting with the same exception type and message.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify import qcore, strategy
from qverify.errors import BadDimError, NonHermitianError, ValidationError
from qverify.qcore import (
    MAX_QUBITS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TOL_DERIVED,
    TOL_INPUT,
    HermitianOperator,
    Ket,
)
from qverify.samplecount import theta_family
from qverify.stabilizer import full_strategy, generator_strategy, preset_group
from qverify.strategy import (
    Locality,
    MeasurementSetting,
    Strategy,
    StrategyKind,
    _settings,
    alpha_weight,
    bell_strategy,
    from_json_dict,
    local_transport,
    metrics,
    product_state_strategy,
    target_state,
    to_json_dict,
    two_qubit_optimal,
)
from oracles import is_projector
from stabilizer_oracles import as_dense, pauli_matrix

# ------------------------------------------------------------------ oracle


def oracle_operator(values):
    """The former HermitianOperator checks; returns the frozen copy."""
    arr = np.array(values, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValidationError("operator has a non-finite entry")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise BadDimError("operator entries must form a square matrix")
    dim = arr.shape[0]
    if not (dim >= 1 and dim & (dim - 1) == 0):
        raise BadDimError(f"operator dimension {dim} is not a power of two")
    if dim > 2**MAX_QUBITS:
        raise BadDimError(
            f"operator dimension {dim} exceeds the dense limit of {MAX_QUBITS} qubits"
        )
    residual = float(np.max(np.abs(arr - arr.conj().T)))
    if residual > TOL_INPUT:
        raise NonHermitianError(
            f"operator deviates from Hermitian by {residual!r} (> {TOL_INPUT})"
        )
    arr.setflags(write=False)
    return arr


def oracle_is_projector(mat, tol=TOL_DERIVED):
    if float(np.max(np.abs(mat @ mat - mat))) > tol:
        return False
    vals = np.linalg.eigvalsh(mat)
    return bool(np.all(np.minimum(np.abs(vals), np.abs(vals - 1.0)) <= tol))


def oracle_setting(values, weight, label, locality):
    """The former per-setting route: operator checks, then MeasurementSetting's."""
    mat = oracle_operator(values)
    if not label:
        raise ValidationError("setting label must be nonempty")
    if not 0.0 < weight <= 1.0 + TOL_INPUT:
        raise ValidationError(f"setting weight {weight!r} outside (0, 1]")
    if not oracle_is_projector(mat):
        raise ValidationError(f"setting {label!r} is not a projector")
    if mat.shape[0] == 4 and locality is not Locality.NONLOCAL:
        transposed = mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        pt_min = float(np.linalg.eigvalsh(transposed)[0])
        if pt_min < -TOL_DERIVED:
            raise ValidationError(
                f"setting {label!r} claims locality but its partial "
                f"transpose has eigenvalue {pt_min!r}"
            )
    return mat


def oracle_strategy(target, specs, kind, theta=None):
    """A strategy whose settings passed oracle_setting one at a time."""
    checked = [(oracle_setting(*spec), *spec[1:]) for spec in specs]
    return Strategy(
        target=target,
        settings=tuple(
            MeasurementSetting(
                projector=HermitianOperator(mat),
                weight=weight,
                label=label,
                locality=locality,
            )
            for mat, weight, label, locality in checked
        ),
        kind=kind,
        theta=theta,
    )


def oracle_two_qubit_optimal(theta):
    strategy.check_theta(theta)
    alpha = alpha_weight(theta)
    amp0 = 1.0 / math.sqrt(1.0 + math.tan(theta))
    amp1 = 1.0 / math.sqrt(1.0 + 1.0 / math.tan(theta))
    phase_pairs = (
        (2.0 * math.pi / 3.0, math.pi / 3.0),
        (4.0 * math.pi / 3.0, 5.0 * math.pi / 3.0),
        (0.0, math.pi),
    )
    eye = np.eye(4, dtype=complex)
    specs = [
        (np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex), alpha, "ZZ", Locality.STABILIZER_PAULI)
    ]
    for k, (pa, pb) in enumerate(phase_pairs, start=1):
        first = np.array([amp0, np.exp(1j * pa) * amp1])
        second = np.array([amp0, np.exp(1j * pb) * amp1])
        state = Ket(np.kron(first, second)).amplitudes
        complement = eye - np.outer(state, state.conj())
        specs.append(
            (complement, (1.0 - alpha) / 3.0, f"reject-product-{k}", Locality.PRODUCT_PROJECTOR)
        )
    return oracle_strategy(
        target_state(theta), specs, StrategyKind.TWO_QUBIT_OPTIMAL, theta=theta
    )


def oracle_bell():
    eye = np.eye(4, dtype=complex)
    specs = [
        ("XX", PAULI_X, PAULI_X, +1.0),
        ("-YY", PAULI_Y, PAULI_Y, -1.0),
        ("ZZ", PAULI_Z, PAULI_Z, +1.0),
    ]
    return oracle_strategy(
        Ket(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)),
        [
            ((eye + sign * np.kron(a, b)) / 2.0, 1.0 / 3.0, label, Locality.STABILIZER_PAULI)
            for label, a, b, sign in specs
        ],
        StrategyKind.BELL,
    )


def oracle_product(which):
    built = product_state_strategy(which)
    amps = built.target.amplitudes
    spec = (np.outer(amps, amps.conj()), 1.0, "00" if which == "zero" else "11",
            Locality.PRODUCT_PROJECTOR)
    return oracle_strategy(built.target, [spec], StrategyKind.PRODUCT_STATE)


def oracle_transport(built, u, v):
    big = np.kron(u, v)
    specs = [
        (big @ s.projector.entries @ big.conj().T, s.weight, s.label, s.locality)
        for s in built.settings
    ]
    target = Ket(big @ built.target.amplitudes)
    return oracle_strategy(target, specs, built.kind, theta=built.theta)


def oracle_from_json(doc):
    dim = len(doc["target"])
    specs = [
        (strategy._pairs_to_array(item["projector"], dim * dim, "projector").reshape(dim, dim),
         float(item["weight"]), str(item["label"]), Locality(item["locality"]))
        for item in doc["settings"]
    ]
    target = Ket(strategy._pairs_to_array(doc["target"], dim, "target"))
    theta = doc.get("theta")
    return oracle_strategy(
        target, specs, StrategyKind(doc["kind"]), theta=None if theta is None else float(theta)
    )


def oracle_stabilizer(group, indices, kind):
    eye = np.eye(2**group.num_qubits, dtype=complex)
    specs = [
        ((eye + pauli_matrix(group.elements[m])) / 2.0, 1.0 / len(indices),
         group.elements[m].label, Locality.STABILIZER_PAULI)
        for m in indices
    ]
    return oracle_strategy(group.state(), specs, kind)


def assert_same(built, oracle):
    assert built.kind is oracle.kind and built.theta == oracle.theta
    assert built.target.amplitudes.tobytes() == oracle.target.amplitudes.tobytes()
    assert len(built.settings) == len(oracle.settings)
    for ours, theirs in zip(built.settings, oracle.settings):
        assert ours.projector.entries.tobytes() == theirs.projector.entries.tobytes()
        assert not ours.projector.entries.flags.writeable
        assert (ours.weight, ours.label, ours.locality) == (
            theirs.weight, theirs.label, theirs.locality
        )
    assert built.omega.tobytes() == oracle.omega.tobytes()
    assert metrics(built) == metrics(oracle)
    assert json.dumps(to_json_dict(built)) == json.dumps(to_json_dict(oracle))


# --------------------------------------------------------- same strategies

thetas = st.floats(0.0, math.pi / 2).filter(
    lambda t: theta_family(t) == "two-qubit-optimal"
)


@given(theta=thetas)
@settings(max_examples=60, deadline=None)
def test_two_qubit_optimal_matches_per_setting_route(theta):
    assert_same(two_qubit_optimal(theta), oracle_two_qubit_optimal(theta))


def test_closed_form_strategies_match_per_setting_route():
    assert_same(bell_strategy(), oracle_bell())
    for which in ("zero", "one"):
        assert_same(product_state_strategy(which), oracle_product(which))


def _haar_unitary(rng):
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@given(theta=thetas, seed=st.integers(0, 2**32 - 1), base=st.sampled_from(["bell", "two", "zero"]))
@settings(max_examples=30, deadline=None)
def test_transport_and_json_match_per_setting_route(theta, seed, base):
    built = {
        "bell": bell_strategy,
        "two": lambda: two_qubit_optimal(theta),
        "zero": lambda: product_state_strategy("zero"),
    }[base]()
    rng = np.random.default_rng(seed)
    u, v = _haar_unitary(rng), _haar_unitary(rng)
    moved = local_transport(built, u, v)
    assert_same(moved, oracle_transport(built, u, v))
    doc = json.loads(json.dumps(to_json_dict(moved)))
    assert_same(from_json_dict(doc), oracle_from_json(doc))


@pytest.mark.parametrize("name", [f"{f}{n}" for f in ("ghz", "cluster") for n in range(3, 7)])
def test_stabilizer_strategies_match_per_setting_route(name):
    group = preset_group(name)
    n = group.num_generators
    full = oracle_stabilizer(group, range(1, 2**n), StrategyKind.STABILIZER_FULL)
    gens = oracle_stabilizer(group, [1 << j for j in range(n)], StrategyKind.STABILIZER_GENERATORS)
    assert_same(as_dense(full_strategy(group)), full)
    assert_same(as_dense(generator_strategy(group)), gens)


# ------------------------------------------------------------ same errors

_BASE = two_qubit_optimal(0.6)
_BASE_SPECS = [
    (s.projector.entries, s.weight, s.label, s.locality) for s in _BASE.settings
]
_P00 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
_NAN = _P00.copy()
_NAN[1, 2] = np.nan
_INF = _P00.copy()
_INF[0, 0] = np.inf
_BELL_PROJECTOR = np.zeros((4, 4), dtype=complex)
_BELL_PROJECTOR[np.ix_([0, 3], [0, 3])] = 0.5

BAD = {
    "non-finite": [(_NAN, 0.5, "nan", Locality.PRODUCT_PROJECTOR)],
    "infinite": [(_INF, 0.5, "inf", Locality.NONLOCAL)],
    "non-hermitian": [(np.triu(np.ones((4, 4))), 0.5, "upper", Locality.NONLOCAL)],
    "empty-label": [(_P00, 0.5, "", Locality.PRODUCT_PROJECTOR)],
    "weight-zero": [(_P00, 0.0, "w0", Locality.PRODUCT_PROJECTOR)],
    "weight-above-one": [(_P00, 1.5, "w15", Locality.PRODUCT_PROJECTOR)],
    "weight-nan": [(_P00, math.nan, "wnan", Locality.PRODUCT_PROJECTOR)],
    "half-identity": [(0.5 * np.eye(4), 0.5, "half", Locality.NONLOCAL)],
    "entangled-claims-local": [(_BELL_PROJECTOR, 0.5, "bell", Locality.PRODUCT_PROJECTOR)],
    "not-projector-then-nan": [
        (0.5 * np.eye(4), 0.5, "half", Locality.NONLOCAL),
        (_NAN, 0.5, "nan", Locality.PRODUCT_PROJECTOR),
    ],
    "non-hermitian-then-nan": [
        (np.triu(np.ones((4, 4))), 0.5, "upper", Locality.NONLOCAL),
        (_NAN, 0.5, "nan", Locality.PRODUCT_PROJECTOR),
    ],
    "nan-with-empty-label": [(_NAN, 0.5, "", Locality.PRODUCT_PROJECTOR)],
    "empty-label-then-non-hermitian": [
        (_P00, 0.5, "", Locality.PRODUCT_PROJECTOR),
        (np.triu(np.ones((4, 4))), 0.5, "upper", Locality.NONLOCAL),
    ],
}


def _first_oracle_error(specs):
    for spec in specs:
        try:
            oracle_setting(*spec)
        except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
            return exc
    raise AssertionError("the oracle accepted every setting")


@pytest.mark.parametrize("position", ["first", "second", "last"])
@pytest.mark.parametrize("case", sorted(BAD))
def test_stacked_errors_match_per_setting_route(case, position):
    specs = list(_BASE_SPECS)
    at = {"first": 0, "second": 1, "last": len(specs)}[position]
    specs[at:at] = BAD[case]
    expected = _first_oracle_error(specs)
    with pytest.raises(type(expected)) as caught:
        _settings(
            np.array([spec[0] for spec in specs], dtype=complex),
            *(tuple(spec[i] for spec in specs) for i in (1, 2, 3)),
        )
    assert type(caught.value) is type(expected)
    assert str(caught.value) == str(expected)


@pytest.mark.parametrize("case", ["half-identity", "entangled-claims-local", "empty-label"])
def test_json_and_direct_settings_report_the_oracle_error(case):
    projector, weight, label, locality = BAD[case][0]
    expected = _first_oracle_error(BAD[case])
    with pytest.raises(type(expected)) as caught:
        MeasurementSetting(
            projector=HermitianOperator(projector),
            weight=weight, label=label, locality=locality,
        )
    assert str(caught.value) == str(expected)
    doc = to_json_dict(_BASE)
    doc["settings"][2].update(
        label=label, weight=weight, locality=locality.value,
        projector=[[float(z.real), float(z.imag)] for z in np.ravel(projector)],
    )
    with pytest.raises(type(expected)) as caught:
        from_json_dict(doc)
    assert str(caught.value) == str(expected)


def _dense(diagonal_head, fill=None):
    mat = np.zeros((64, 64), dtype=complex)
    mat[np.arange(len(diagonal_head)), np.arange(len(diagonal_head))] = diagonal_head
    if fill is not None:
        mat[fill] = np.nan if fill == (0, 1) else 1.0
    return mat


@pytest.mark.parametrize(
    "bad",
    [
        [(_dense([0.5] * 64), 0.25, "half", Locality.NONLOCAL)],
        [(_dense([1.0], fill=(0, 1)), 0.25, "nan", Locality.STABILIZER_PAULI)],
        [(_dense([1.0], fill=(2, 3)), 0.25, "upper", Locality.STABILIZER_PAULI)],
        [
            (_dense([0.5] * 64), 0.25, "half", Locality.NONLOCAL),
            (_dense([1.0], fill=(0, 1)), 0.25, "nan", Locality.STABILIZER_PAULI),
        ],
    ],
)
def test_dense_settings_checked_one_stack_at_a_time_report_the_oracle_error(bad):
    # 64x64 projectors are stacked one at a time; the first invalid
    # setting across stacks still decides the error
    good = [(_dense([1.0] * k), 0.25, f"P{k}", Locality.STABILIZER_PAULI) for k in (1, 2, 3)]
    for at in (0, 1, 3):
        specs = good[:at] + bad + good[at:]
        expected = _first_oracle_error(specs)
        with pytest.raises(type(expected)) as caught:
            _settings(
                (spec[0] for spec in specs),
                *(tuple(spec[i] for spec in specs) for i in (1, 2, 3)),
            )
        assert str(caught.value) == str(expected)


def test_bad_stack_shapes_report_the_oracle_error():
    for values in (np.ones((1, 3, 3)), np.ones((2, 4, 2))):
        expected = _first_oracle_error([(values[0], 0.5, "s", Locality.NONLOCAL)])
        with pytest.raises(BadDimError) as caught:
            _settings(values, (0.5,) * len(values), ("s",) * len(values),
                      (Locality.NONLOCAL,) * len(values))
        assert str(caught.value) == str(expected)


# ------------------------------------------------------------ eigensolves


def _count_eigvalsh(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("theta", [math.pi / 8, 0.6, 1.2])
def test_two_qubit_optimal_solves_at_most_three_eigenproblems(theta, monkeypatch):
    # one stacked spectrum check, one stacked partial transpose check and
    # one check of Omega; the per-setting route made nine
    calls = _count_eigvalsh(monkeypatch)
    two_qubit_optimal(theta)
    assert len(calls) <= 3


def test_bell_strategy_solves_at_most_three_eigenproblems(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    bell_strategy()
    assert len(calls) <= 3


# ------------------------------------------------------------ real route


def _record_eigvalsh(monkeypatch):
    """(dtype, shape) of every eigvalsh input while the test runs."""
    inputs = []
    real = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        inputs.append((np.asarray(a).dtype, np.shape(a)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return inputs


def test_real_projectors_are_checked_in_real_arithmetic(monkeypatch):
    group = preset_group("ghz6")
    inputs = _record_eigvalsh(monkeypatch)
    as_dense(full_strategy(group))
    checks = [dtype for dtype, shape in inputs if shape == (1, 64, 64)]
    assert checks == [np.dtype(np.float64)] * 63


def test_complex_projectors_are_checked_in_complex_arithmetic(monkeypatch):
    inputs = _record_eigvalsh(monkeypatch)
    two_qubit_optimal(0.6)
    assert len(inputs) <= 3
    assert all(dtype == np.complex128 for dtype, shape in inputs if len(shape) == 3)


def test_one_tiny_imaginary_entry_takes_the_complex_route(monkeypatch):
    mat = np.zeros((4, 4), dtype=complex)
    mat[np.ix_([0, 3], [0, 3])] = 0.5
    mat[0, 3] += 1e-300j
    mat[3, 0] -= 1e-300j
    inputs = _record_eigvalsh(monkeypatch)
    assert is_projector(HermitianOperator(mat))
    assert inputs == [(np.dtype(np.complex128), (1, 4, 4))]
    inputs.clear()
    assert is_projector(HermitianOperator(mat.real))
    assert inputs == [(np.dtype(np.float64), (1, 4, 4))]


def _real_symmetric(rng, dim, vals):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    mat = (q * vals) @ q.T
    return (mat + mat.T) / 2.0


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8, 16, 64]))
@settings(max_examples=40, deadline=None)
def test_real_and_complex_routes_agree_near_the_tolerance(seed, dim):
    # spectra within 0.1 tol of {0, 1} pass, within 10 tol fail, on both routes
    rng = np.random.default_rng(seed)
    ones = rng.integers(0, 2, dim).astype(float)
    for scale, defect in ((0.1, False), (10.0, True)):
        push = scale * TOL_DERIVED * rng.choice([-1.0, 1.0], dim)
        stack = _real_symmetric(rng, dim, ones + push)[None].astype(complex)
        assert qcore._projector_defects(stack, TOL_DERIVED)[0] == defect
        assert oracle_is_projector(stack[0]) is not defect


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8]))
@settings(max_examples=40, deadline=None)
def test_real_hermitian_residual_matches_the_complex_oracle(seed, dim):
    # the same bits, so the same verdict and message on either side of TOL_INPUT
    rng = np.random.default_rng(seed)
    for scale, hermitian in ((0.5, True), (2.0, False)):
        mat = _real_symmetric(rng, dim, rng.integers(0, 2, dim).astype(float))
        mat[0, -1] += scale * TOL_INPUT * rng.uniform(0.75, 1.0)
        expected = None
        try:
            oracle_operator(mat)
        except NonHermitianError as exc:
            expected = str(exc)
        assert (expected is None) is hermitian
        defect = qcore._first_operator_defect(mat[None].astype(complex), "operator")
        assert (defect and str(defect[1])) == expected


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 4, 8]))
@settings(max_examples=20, deadline=None)
def test_imaginary_parts_keep_the_complex_residual(seed, dim):
    # a real symmetric part plus a symmetric imaginary part is not
    # Hermitian; only the complex residual sees that
    rng = np.random.default_rng(seed)
    mat = _real_symmetric(rng, dim, rng.integers(0, 2, dim).astype(float))
    mat = mat + 1j * _real_symmetric(rng, dim, rng.uniform(0.1, 1.0, dim))
    with pytest.raises(NonHermitianError) as expected:
        oracle_operator(mat)
    index, error = qcore._first_operator_defect(mat[None], "operator")
    assert (index, type(error), str(error)) == (0, NonHermitianError, str(expected.value))


@pytest.mark.parametrize(
    "build",
    [
        bell_strategy,
        lambda: two_qubit_optimal(0.6),
        lambda: as_dense(full_strategy(preset_group("ghz6"))),
        lambda: as_dense(full_strategy(preset_group("cluster6"))),
    ],
    ids=["bell", "two-qubit-0.6", "ghz6", "cluster6"],
)
def test_json_bytes_match_per_entry_pairs(build):
    # compared as dumped text, because == on lists takes -0.0 for 0.0
    built = build()

    def pairs(values):
        return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]

    doc = {"kind": built.kind.value}
    if built.theta is not None:
        doc["theta"] = float(built.theta)
    doc["target"] = pairs(built.target.amplitudes)
    doc["settings"] = [
        {
            "label": s.label,
            "weight": float(s.weight),
            "locality": s.locality.value,
            "projector": pairs(s.projector.entries),
        }
        for s in built.settings
    ]
    assert json.dumps(to_json_dict(built)).encode() == json.dumps(doc).encode()
