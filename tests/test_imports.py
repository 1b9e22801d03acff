"""Start-up stays light: importing the package or its CLI loads no numpy."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["hyperstruct", "hyperstruct.cli"])
def test_import_does_not_load_numpy(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
