"""The maintenance scripts under scripts/ still import what they use.

They run outside the test suite, so a script that imports a retired
name would otherwise only fail when someone next runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_calibrate_follower_help():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "calibrate_follower.py"), "--help"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "K_HEADING" in done.stdout
