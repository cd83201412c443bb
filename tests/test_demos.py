"""Every demo script runs to completion and prints what it always printed."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))

# sha256 of each demo's stdout; the demos are deterministic, so any change to
# what they print is a change to the library's output
STDOUT_SHA256 = {
    "01_defects_and_smoothness": "0bffe4b3837ec03145bc8a76537f746a8c6d80853685e334d343161b81094062",
    "02_reduction_calculus": "434a0a4a731a9d4631ea09aebdbb139e0ee818cd42a5669eff1946aa501ee55d",
    "03_enumerate_singular_types": "7734e41b0e17dc8c5ef9cef35b1f5ebdcefad908b6d9de79d6ef81cf3bb5b9ad",
    "04_conifold_moduli_flop": "0ee799ee3d451570271d38b2f5d009efc2073a12139296bdd64cb1e9e0f446f7",
    "05_conifold_algebra": "81bd2c4cbde102de939aac2c15533a4d69ed3d60fd06364c3784ae46f538f6d8",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_error(demo):
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
