import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qverify
from qverify import _env


def _run_fresh(code: str, *args: str) -> str:
    """stdout of code run in a fresh interpreter on this checkout's package."""
    src = str(Path(qverify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter must not
    # pull scipy in through any module of the package, so every submodule
    # and every exported name is loaded before the check
    code = (
        "import importlib, pkgutil, sys, qverify\n"
        "for info in pkgutil.iter_modules(qverify.__path__):\n"
        "    importlib.import_module('qverify.' + info.name)\n"
        "for name in qverify.__all__:\n"
        "    getattr(qverify, name)\n"
        "assert 'qverify.protocol' in sys.modules and 'qverify.cli' in sys.modules\n"
        "assert 'scipy' not in sys.modules"
    )
    _run_fresh(code)


# The qverify.* modules each command loads in a fresh process, beside
# qverify._env, qverify.cli and qverify.errors. The submodule graph is
# the chain qcore -> samplecount -> strategy, on which stabilizer and
# adversary each build, and protocol, which builds on adversary.
# adversary and protocol name stabilizer.PauliStrategy in annotations
# only, so a dense command never loads stabilizer.
_CHAIN = ("qcore", "samplecount", "strategy")
_LOADED = {
    "strategy --bell": _CHAIN,
    "strategy --stabilizer-full --preset ghz3": (*_CHAIN, "stabilizer"),
    "samplecount --stabilizer-full --preset ghz12": (*_CHAIN, "stabilizer"),
    "figure --which fig1 --points 5": _CHAIN[:2],
    "figure --which figS1 --points 5": (*_CHAIN, "adversary"),
    "figure --which figS2": (*_CHAIN, "adversary"),
    "stabilizer --preset ghz3": (*_CHAIN, "stabilizer"),
    "landscape --resolution 40 --refine-resolution 40": (*_CHAIN, "adversary"),
    "simulate --bell --device worst-iid --n 5 --trials 10": (*_CHAIN, "adversary", "protocol"),
    "simulate --stabilizer-full --preset ghz3 --n 5 --trials 10": (
        *_CHAIN, "stabilizer", "adversary", "protocol",
    ),
}


def _loaded_modules(code: str, *args: str) -> list:
    code += "\nprint(sorted(m for m in sys.modules if m.startswith('qverify.')))"
    return ast.literal_eval(_run_fresh(code, *args).splitlines()[-1])


def test_import_loads_only_the_environment_module():
    assert _loaded_modules("import sys, qverify") == ["qverify._env"]


@pytest.mark.parametrize("argv", list(_LOADED))
def test_cli_command_loads_only_the_modules_it_calls(argv):
    code = (
        "import contextlib, io, sys\n"
        "from qverify import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[1:]) == 0"
    )
    expected = ["_env", "cli", "errors", *_LOADED[argv]]
    assert _loaded_modules(code, *argv.split()) == sorted(f"qverify.{m}" for m in expected)


# The package's 99 exports by defining submodule, in the order of
# qverify.__all__: loading them lazily keeps the surface of the eager
# imports it replaced.
PUBLIC_NAMES = {
    "errors": (
        "BadDimError DegenerateStrategyError DependentGeneratorsError "
        "InconsistentSignsError NonCommutingError NonHermitianError NotUnitaryError "
        "QVerifyError ThetaNearSpecialValueError ThetaOutOfDomainError "
        "UndefinedDivergenceError ValidationError"
    ).split(),
    "qcore": (
        "MAX_QUBITS TOL_DERIVED TOL_INPUT HermitianOperator Ket basis_ket haar_random_ket "
        "identity orthocomplement_basis partial_transpose_qubit2 tensor"
    ).split(),
    "samplecount": (
        "FIG1_COLUMNS FIG2_COLUMNS Fig1Row Fig2Row HypothesisSpec SampleCountReport "
        "StrategyMetrics asymptotic_count check_theta chernoff_stein_count "
        "default_theta_grid exact_count family_metrics figure1_data figure2_data "
        "optimal_q relative_entropy theta_family"
    ).split(),
    "strategy": (
        "Locality MeasurementSetting Strategy StrategyKind alpha_weight "
        "annihilating_product_states bell_strategy exact_sample_count local_transport "
        "metrics product_state_strategy target_state to_json_dict two_qubit_optimal"
    ).split(),
    "stabilizer": (
        "MAX_DENSE_QUBITS ParityCheck PauliStrategy PauliString PauliTest StabilizerGroup "
        "SubsetReport all_zeros_group cluster_group full_strategy generator_strategy "
        "ghz_group group_from_json preset_group strategy_from_json subset_strategy"
    ).split(),
    "adversary": (
        "HULL_COLUMNS LANDSCAPE_COLUMNS AdversaryState CertificateReport GameValue "
        "LandscapeReport LandscapeRow certify_optimality hilbert_schmidt_mixed_state "
        "hull_boundary landscape ppt_lower_bound ridge_alpha ridge_q shift_fidelity "
        "strategy_game_value top_orthogonal_eigenvector worst_case_state"
    ).split(),
    "protocol": (
        "DeviceModel EnsembleStats RunResult estimate_power honest_device iid_adversary "
        "predicted_acceptance run_protocol varying_adversary wilson_interval"
    ).split(),
}


def test_public_names_keep_their_order_and_objects():
    assert qverify.__all__ == [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(qverify.__all__) == 99
    for module, names in PUBLIC_NAMES.items():
        owner = importlib.import_module(f"qverify.{module}")
        for name in names:
            assert getattr(qverify, name) is getattr(owner, name), name
    assert set(qverify.__all__) <= set(dir(qverify))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qverify.no_such_name
    assert not hasattr(qverify, "ParityChecks")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qverify import *", namespace)
    assert all(namespace[name] is getattr(qverify, name) for name in qverify.__all__)


def test_submodules_import_by_name():
    from qverify import adversary, cli, protocol, samplecount, stabilizer, strategy

    for module in (adversary, cli, protocol, samplecount, stabilizer, strategy):
        assert sys.modules[module.__name__] is module
        assert getattr(qverify, module.__name__.rsplit(".", 1)[1]) is module


def _clear_thread_variables(monkeypatch):
    # set first, so that monkeypatch restores each variable configure_threads writes
    for name in ("QVERIFY_THREADS",) + _env._THREAD_VARS:
        monkeypatch.setenv(name, "")
        monkeypatch.delenv(name)


@pytest.mark.parametrize("requested", [None, "", "many", "2.5"])
def test_configure_threads_ignores_an_unset_or_unparsable_request(monkeypatch, requested):
    _clear_thread_variables(monkeypatch)
    if requested is not None:
        monkeypatch.setenv("QVERIFY_THREADS", requested)
    _env.configure_threads()
    assert not [name for name in _env._THREAD_VARS if name in os.environ]


def test_configure_threads_caps_every_pool_but_an_exported_one(monkeypatch):
    _clear_thread_variables(monkeypatch)
    monkeypatch.setenv("QVERIFY_THREADS", "0")  # at least one thread
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    _env.configure_threads()
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert all(os.environ[name] == "1" for name in _env._THREAD_VARS[1:])
