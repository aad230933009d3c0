"""The maintenance scripts under scripts/ still import what they use.

They run outside the test suite, so a script that imports a retired
name would otherwise only fail when someone next runs it.  The
calibration script's lap errors are checked against the golden oval's
metrics.json.  The golden regenerator's report runs against a manifest
under a temporary directory, never the real one.
"""

import importlib.util
import json
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


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_follower_reads_the_reference_oval_laps():
    calibrate = _load_script("calibrate_follower")
    follower = calibrate.follower
    # lap 1 and lap 2 means and the lap 2 maximum of the golden oval's metrics.json
    assert calibrate.lap2_error(follower.K_HEADING, follower.PREVIEW_S) == (
        0.2914256699874433, 0.12474197738307019, 0.6710649060962399)


def test_regen_golden_names_the_digests_that_moved(tmp_path, monkeypatch, capsys):
    regen = _load_script("regen_golden")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"platform": {}, "digests": {
        "kept": "1", "moved": "2", "gone": "3"}}), encoding="ascii")
    new = {"kept": "1", "moved": "4", "new": "5"}
    monkeypatch.setattr(regen.test_golden, "MANIFEST", manifest)
    monkeypatch.setattr(regen.test_golden, "compute_digests", lambda tmp: dict(new))
    assert regen.main() == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "dropped gone", "changed moved", "added new"]
    assert json.loads(manifest.read_text(encoding="ascii"))["digests"] == new

    assert regen.main() == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["no digest changed"]
