"""Scripts run in a fresh Python interpreter.

What a process imports, and what its first call into the package does,
cannot be seen from the test process, which has imported everything
already.
"""

import os
import subprocess
import sys
from pathlib import Path

import recruitcast


def run_python(script: str, *args: str, cwd=None) -> str:
    """The stdout of ``python -c script args...`` in a fresh interpreter
    that imports this package from where the test process does."""
    path = [str(Path(recruitcast.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert done.returncode == 0, done.stderr
    return done.stdout
