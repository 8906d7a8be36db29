"""Shared fixtures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def fresh_python():
    """run(code, *args): run `code` with `args` as sys.argv[1:] in a fresh
    interpreter that imports this checkout's `src`, assert that it exits 0,
    and return the JSON value of the last line it prints.  For what one
    process sees alone: the modules it imports, its traced memory."""
    def run(code: str, *args: str, timeout: float = 300):
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=timeout)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])
    return run
