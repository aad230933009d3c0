"""Only the commands that read a capture into columns import numpy.

Each check runs the CLI in a fresh interpreter, because the test process
itself has numpy loaded long before any of these commands runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CHILD = """
import contextlib, io, json, sys
from evsim import cli

loaded = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded[name] = [code, "numpy" in sys.modules]
print(json.dumps(loaded))
"""


def _run_fresh(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_that_read_no_capture_leave_numpy_unloaded(tmp_path):
    hold = tmp_path / "hold.json"
    hold.write_text(json.dumps({"duration_s": 1.0, "speed_ref_mph": 5.0}))
    trace = tmp_path / "capture.txt"
    trace.write_text("0 75 8 00 00 00 00 00 00 B0 D4\n"
                     "5 200 1 07\n"
                     "10 75 8 00 00 00 00 00 00 B1 06\n")
    loaded = _run_fresh([
        ["make-oval", ["make-oval", "--scenario", str(tmp_path / "oval.json")]],
        ["simulate", ["simulate", str(hold), "--outdir", str(tmp_path / "out")]],
        ["design-gains", ["design-gains", "--tau-car", "7", "--tau-cl", "0.5"]],
        ["packet", ["packet"]],
        ["live inject", ["inject", "--duration", "1", "--ramp", "0:10:1"]],
        ["correlate", ["correlate", "--trace", str(trace)]],
    ])
    assert loaded == {
        "make-oval": [0, False],
        "simulate": [0, False],
        "design-gains": [0, False],
        "packet": [0, False],
        "live inject": [0, False],
        # the guard is not vacuous: reading a capture does load numpy
        "correlate": [0, True],
    }
