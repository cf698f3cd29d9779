import os
import subprocess
import sys
from pathlib import Path

import qverify


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter must not
    # pull scipy in through any module of the package
    src = str(Path(qverify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import qverify, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
