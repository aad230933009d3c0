"""Workload inputs, CLI invocations and correctness checks for the benchmark.

Each workload is a list of ``evsim`` CLI invocations that together make one
operation.  Inputs are generated from the benchmark seed before any timing
starts; the program only ever sees the generated files.

Captures are drawn from ``evsim.recordings`` and held to the size of the
default-seed capture: for benchmark seed ``s`` the candidates are capture
seeds ``base + s + 1000 * k`` for k = 0, 1, ..., and the first candidate whose
frame count lies within ``SIZE_TOLERANCE`` of the default capture (and, for
the press capture, whose bisection takes the same number of oracle calls) is
used.  Seed 0 therefore gives the default captures 2024 and 77.  Without this,
capture sizes spread from 36k to 98k frames across seeds, and the run-to-run
spread would measure the inputs instead of the program.

Run as a script, this module is the set-up probe.  It finds the capture seed
for a benchmark seed, or times importing evsim plus generating one workload's
inputs in a fresh interpreter; the search for the capture seed is not part of
that time.

    python3 perfbench/workloads.py <workload> <seed>
    python3 perfbench/workloads.py <workload> <seed> <capture seed|-> <outdir>
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

WORKLOADS = ("oval", "isolate", "correlate", "inject")

DEFAULT_SEED = 0

PRESS_BASE_SEED = 2024
PRESS_DURATION_S = 6.0
PRESS_FRAMES = 41_220
PRESS_ORACLE_CALLS = 9
CORR_BASE_SEED = 77
CORR_DURATION_S = 60.0
CORR_FRAMES = 66_600
SIZE_TOLERANCE = 0.03
MAX_CANDIDATES = 500
PROBE_S = 1.0

OVAL_STEPS = 7_280
OVAL_FRAMES = 29_848
OVAL_COLUMNS = 16

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def import_evsim():
    """Import evsim from this checkout's ``src``, never from anywhere else."""
    if not (SRC_DIR / "evsim" / "cli.py").is_file():
        raise RuntimeError(f"no evsim sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import evsim
    import evsim.cli
    if Path(evsim.__file__).resolve().parent != SRC_DIR / "evsim":
        raise RuntimeError(f"imported evsim from {evsim.__file__}, not from {SRC_DIR}")
    return evsim


def _candidates(base: int, seed: int):
    for k in range(MAX_CANDIDATES):
        yield base + seed + 1000 * k


def _near(n: int, reference: int) -> bool:
    return abs(n - reference) <= SIZE_TOLERANCE * reference


def _bisection_calls(trace) -> int:
    """Oracle calls `evsim isolate` makes on this capture, found without replays."""
    from evsim import canbus, revtools

    def moves(subset) -> bool:
        return any(f.arbitration_id == canbus.THROTTLE_ID for f in subset)

    return revtools.isolate_control_id(trace, moves, confirm=True).oracle_calls


def _predicted(make, capture_seed: int, duration_s: float):
    """Capture of the first PROBE_S seconds, and the full capture's frame count.

    Every source in the recordings is periodic with a period that divides
    PROBE_S, so the full capture holds duration_s / PROBE_S times as many
    frames.  The prediction only skips candidates; a chosen capture is
    checked in full.
    """
    trace = make(capture_seed, PROBE_S)
    return trace, round(len(trace) * duration_s / PROBE_S)


def find_capture_seed(workload: str, seed: int) -> int | None:
    """First candidate capture seed whose capture matches the default's size."""
    if workload == "oval":
        return None
    import_evsim()
    from evsim import recordings
    if workload == "correlate":
        def make(capture_seed, duration_s=CORR_DURATION_S):
            return recordings.correlation_recording(duration_s=duration_s, seed=capture_seed)[0]
        base, frames, duration, calls = CORR_BASE_SEED, CORR_FRAMES, CORR_DURATION_S, None
    else:
        def make(capture_seed, duration_s=PRESS_DURATION_S):
            return recordings.press_recording(duration_s=duration_s, seed=capture_seed)
        base, frames, duration, calls = (PRESS_BASE_SEED, PRESS_FRAMES, PRESS_DURATION_S,
                                         PRESS_ORACLE_CALLS)
    for capture_seed in _candidates(base, seed):
        # the probe holds every id in the full capture's first-seen order
        short, predicted = _predicted(make, capture_seed, duration)
        if not _near(predicted, frames):
            continue
        if calls is not None and _bisection_calls(short) != calls:
            continue
        full = make(capture_seed)
        if _near(len(full), frames) and (calls is None or _bisection_calls(full) == calls):
            return capture_seed
    raise RuntimeError(f"no {workload} capture of the default size for seed {seed}")


def make_inputs(workload: str, seed: int, capture_seed: int | None, outdir: Path) -> dict:
    """Write the workload's input files into outdir; returns their description."""
    import_evsim()
    from evsim import canbus, cli, recordings

    outdir.mkdir(parents=True, exist_ok=True)
    meta: dict = {"workload": workload, "seed": seed, "capture_seed": capture_seed}
    if workload == "oval":
        # the README's two-lap oval; it has no random input
        path = outdir / "oval.json"
        with redirect_stdout(io.StringIO()):
            cli.main(["make-oval", "--scenario", str(path)])
        meta["scenario"] = str(path)
    elif workload in ("isolate", "inject"):
        trace = recordings.press_recording(seed=capture_seed)
        path = outdir / "press.txt"
        canbus.save_trace(trace, path)
        meta.update(frames=len(trace), trace=str(path))
    elif workload == "correlate":
        trace, key = recordings.correlation_recording(seed=capture_seed)
        path = outdir / "corr.txt"
        canbus.save_trace(trace, path)
        planted_id, planted_byte = key["planted"]
        meta.update(frames=len(trace), trace=str(path),
                    planted_id=planted_id, planted_byte=planted_byte)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (outdir / "inputs.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return meta


def commands(meta: dict, outdir: Path) -> list[list[str]]:
    """CLI argument lists that make up one operation of the workload."""
    workload = meta["workload"]
    if workload == "oval":
        return [["simulate", meta["scenario"], "--outdir", str(outdir / "logs")]]
    if workload == "isolate":
        return [["isolate", "--trace", meta["trace"]]]
    if workload == "correlate":
        return [["correlate", "--trace", meta["trace"], "--top", "10"]]
    ramp = ["--ramp", "0:200:5"]
    return [
        ["inject", "--duration", "20", *ramp, "--target-period-ms", "10"],
        ["inject", "--trace", meta["trace"], *ramp],
        ["inject", "--trace", meta["trace"], *ramp, "--mode", "tap"],
    ]


def output_files(meta: dict, outdir: Path) -> list[Path]:
    """Files an operation writes, in a fixed order, for the determinism digest."""
    if meta["workload"] != "oval":
        return []
    logs = outdir / "logs"
    return [logs / "state.csv", logs / "trace.txt", logs / "metrics.json"]


def digest(meta: dict, outdir: Path, stdouts: list[str]) -> str:
    h = hashlib.sha256()
    for text in stdouts:
        # the work directory differs between runs; the rest must not
        h.update(text.replace(str(outdir), "<work>").encode())
        h.update(b"\0")
    for path in output_files(meta, outdir):
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


# --- correctness checks ---------------------------------------------------------
# Semantic invariants, not pinned bytes, so that planned additions to
# metrics.json do not turn into benchmark failures.  Each returns a list of
# problems; an empty list means the operation is correct.

def _find(pattern: str, text: str) -> re.Match | None:
    return re.search(pattern, text, re.MULTILINE)


def _check_oval(meta, outdir, stdouts) -> list[str]:
    out = stdouts[0]
    problems = []
    m = _find(r"(\d+) control steps, (\d+) frames on the bus", out)
    if not m or (int(m[1]), int(m[2])) != (OVAL_STEPS, OVAL_FRAMES):
        problems.append(f"expected {OVAL_STEPS} steps and {OVAL_FRAMES} frames")
    m = _find(r"lap 2: mean error ([0-9.]+) m", out)
    if not m or float(m[1]) > 0.2:
        problems.append("lap-2 mean error missing or above 0.2 m")
    m = _find(r"final speed ([0-9.]+) mph", out)
    if not m or abs(float(m[1]) - 20.0) > 1.0:
        problems.append("final speed missing or more than 1 mph from 20")
    state, trace, metrics = output_files(meta, outdir)
    with open(state, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != OVAL_STEPS + 1 or any(len(r) != OVAL_COLUMNS for r in rows):
        problems.append(f"state.csv is not {OVAL_STEPS} rows of {OVAL_COLUMNS} columns")
    frames, last_t = 0, -1
    for line in trace.read_text(encoding="ascii").splitlines():
        tokens = line.split()
        t = int(tokens[0])
        if len(tokens) != 3 + int(tokens[2]) or t < last_t:
            problems.append(f"malformed trace.txt line {line!r}")
            break
        frames, last_t = frames + 1, t
    if frames != OVAL_FRAMES:
        problems.append(f"trace.txt holds {frames} frames, not {OVAL_FRAMES}")
    m = json.loads(metrics.read_text(encoding="ascii"))
    if (m.get("control_steps"), m.get("frames_on_bus")) != (OVAL_STEPS, OVAL_FRAMES):
        problems.append("metrics.json counts disagree")
    return problems


def _check_isolate(meta, outdir, stdouts) -> list[str]:
    out = stdouts[0]
    problems = []
    if not _find(r"^control id: 0x11A$", out):
        problems.append("control id is not 0x11A")
    if not _find(r"^confirmed alone: True$", out):
        problems.append("0x11A not confirmed alone")
    m = _find(r"oracle calls: (\d+) \(budget (\d+) \+", out)
    if not m or int(m[1]) > int(m[2]) + 1:
        problems.append("oracle calls missing or above the budget plus 1")
    return problems


def _check_correlate(meta, outdir, stdouts) -> list[str]:
    m = _find(r"^\s*1\s+([0-9A-F]+)\s+(\d+)\s", stdouts[0])
    if not m or (int(m[1], 16), int(m[2]) - 1) != (meta["planted_id"], meta["planted_byte"]):
        return ["the planted speed byte does not rank first"]
    return []


def _check_inject(meta, outdir, stdouts) -> list[str]:
    live, shadow, tap = stdouts
    problems = []
    if not _find(r"^dominance: 39/40 = ", live):
        problems.append("live dominance is not 39/40")
    m = _find(r"^dominance: \d+/\d+ = ([0-9.]+)$", shadow)
    if not m or float(m[1]) <= 0.99:
        problems.append("replay shadow dominance missing or not above 0.99")
    if not _find(r"^rig speed after run: ", tap):
        problems.append("tap replay printed no rig speed")
    return problems


CHECKS = {
    "oval": _check_oval,
    "isolate": _check_isolate,
    "correlate": _check_correlate,
    "inject": _check_inject,
}


def check(meta: dict, outdir: Path, stdouts: list[str]) -> list[str]:
    return CHECKS[meta["workload"]](meta, outdir, stdouts)


def _probe(argv: list[str]) -> int:
    """``<workload> <seed>`` prints the capture seed the benchmark seed selects;
    ``<workload> <seed> <capture seed|-> <outdir>`` generates the inputs and
    prints the seconds taken to import evsim and generate them."""
    t0 = time.perf_counter()
    workload, seed = argv[0], int(argv[1])
    if len(argv) == 2:
        print(json.dumps({"capture_seed": find_capture_seed(workload, seed)}))
        return 0
    capture_seed = None if argv[2] == "-" else int(argv[2])
    make_inputs(workload, seed, capture_seed, Path(argv[3]))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(_probe(sys.argv[1:]))
