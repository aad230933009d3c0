"""Golden digests: the reference runs must reproduce byte for byte.

Each case runs the ``evsim`` CLI in-process on a fixed input and hashes
what it wrote: the three scenario logs, the ``inject --out`` traces and
the stdout of every command, with the temporary directory replaced by
``<tmp>`` so the echoed output paths do not vary between runs.  The
digests live in ``tests/golden/manifest.json`` together with the
platform that produced them; ``scripts/regen_golden.py`` rewrites that
file, and only a change that means to alter the reference output should
run it.

The logs go through libm ``sin``, ``cos``, ``tan``, ``atan``, ``atan2``,
``exp``, ``expm1`` and ``hypot``, so a mismatch on a platform other than
the recorded one is a finding about cross-machine reproducibility, not a
reason to loosen the digests.  The manifest's platform holds a libm
fingerprint, a digest of those functions on a fixed grid, and a mismatch
says whether libm or the Python version differs from the recorded one.  ``metrics.json`` does not depend on the
Python version's float ``sum()``: its path error statistics are plain
left-to-right sums, taken as the run goes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import platform
from contextlib import redirect_stdout
from pathlib import Path

from evsim import canbus, cli, recordings

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

RAMP = "0:200:5"


#: Headings over two laps either way, and the steering angles, tick
#: exponents and small differences the runs take, both in radians.
_LIBM_GRID = [i / 32.0 for i in range(-512, 513)] + [i / 4096.0 for i in range(-512, 513)]


def libm_fingerprint() -> str:
    """SHA-256 of float.hex of every libm function the logs use, over _LIBM_GRID."""
    values = []
    for x in _LIBM_GRID:
        values += (math.sin(x), math.cos(x), math.tan(x), math.atan(x), math.exp(x),
                   math.expm1(x), math.atan2(x, 0.75), math.atan2(-0.75, x), math.hypot(x, 0.75))
    return _sha256(" ".join(map(float.hex, values)).encode("ascii"))


def platform_stamp() -> dict:
    """Where the digests were produced; libm ships with the C library."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "libm": " ".join(platform.libc_ver()).strip() or "unknown",
        "libm_fingerprint": libm_fingerprint(),
    }


def platform_drift(recorded: dict, now: dict) -> list[str]:
    """What differs between the recorded platform and now that can move a digest."""
    causes = []
    if recorded.get("libm_fingerprint") != now["libm_fingerprint"]:
        causes.append("libm differs from the recorded platform")
    if recorded.get("python") != now["python"]:
        causes.append("Python differs")
    return causes


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(argv: list[str], tmp: Path) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"evsim {' '.join(argv)} exited with {status}")
    return buf.getvalue().replace(str(tmp), "<tmp>").encode("ascii")


def compute_digests(tmp: Path) -> dict[str, str]:
    """Run every golden case under tmp and return name -> SHA-256."""
    tmp = Path(tmp)
    digests: dict[str, str] = {}

    def simulate(name: str, scenario_file: Path) -> None:
        outdir = tmp / name
        digests[f"{name}/stdout"] = _sha256(
            _run_cli(["simulate", str(scenario_file), "--outdir", str(outdir)], tmp))
        for log in ("state.csv", "trace.txt", "metrics.json"):
            digests[f"{name}/{log}"] = _sha256((outdir / log).read_bytes())

    # the README two-lap oval
    oval_json = tmp / "oval.json"
    _run_cli(["make-oval", "--path", str(tmp / "oval.txt"), "--scenario", str(oval_json)], tmp)
    simulate("oval", oval_json)

    hold_json = tmp / "hold.json"
    hold_json.write_text(json.dumps({"name": "hold", "duration_s": 2.0, "speed_ref_mph": 10.0}))
    simulate("hold", hold_json)

    press = tmp / "press.txt"
    canbus.save_trace(recordings.press_recording(), press)
    digests["press/capture.txt"] = _sha256(press.read_bytes())

    for mode in ("shadow", "tap"):
        for rig, source in (("live", ["--duration", "1", "--target-period-ms", "10"]),
                            ("replay", ["--trace", str(press)])):
            out = tmp / f"{rig}-{mode}.txt"
            name = f"inject-{rig}-{mode}"
            digests[f"{name}/stdout"] = _sha256(_run_cli(
                ["inject", *source, "--ramp", RAMP, "--mode", mode, "--out", str(out)], tmp))
            digests[f"{name}/out.txt"] = _sha256(out.read_bytes())

    digests["isolate/stdout"] = _sha256(_run_cli(["isolate"], tmp))

    corr = tmp / "corr.txt"
    canbus.save_trace(recordings.correlation_recording()[0], corr)
    digests["correlate/capture.txt"] = _sha256(corr.read_bytes())
    digests["correlate/stdout"] = _sha256(
        _run_cli(["correlate", "--trace", str(corr), "--top", "10"], tmp))
    return digests


def write_manifest(tmp: Path, path: Path = MANIFEST) -> dict:
    manifest = {"platform": platform_stamp(), "digests": compute_digests(tmp)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return manifest


def test_golden_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="ascii"))
    actual = compute_digests(tmp_path)
    changed = sorted(name for name in manifest["digests"]
                     if actual.get(name) != manifest["digests"][name])
    assert set(actual) == set(manifest["digests"]), "golden case list changed"
    if changed:
        now = platform_stamp()
        causes = platform_drift(manifest["platform"], now) or [
            "libm and Python match the recorded platform, so the code moved them"]
        raise AssertionError(
            f"outputs differ from the golden manifest: {changed}; {'; '.join(causes)} "
            f"(recorded on {manifest['platform']}, now {now})")


def test_platform_drift_names_the_cause():
    now = platform_stamp()
    assert platform_drift(dict(now), now) == []
    assert platform_drift(dict(now, libm_fingerprint="0" * 64), now) == [
        "libm differs from the recorded platform"]
    assert platform_drift(dict(now, python="3.0.0"), now) == ["Python differs"]
    assert platform_drift({}, now) == ["libm differs from the recorded platform",
                                       "Python differs"]

