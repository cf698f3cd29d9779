import os
import subprocess
import sys
from pathlib import Path

import pytest

import qverify
from qverify import _env


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter must not
    # pull scipy in through any module of the package
    src = str(Path(qverify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import qverify, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


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
