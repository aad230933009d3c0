"""End-to-end benchmark of the evsim command line.

Drives ``evsim.cli.main([...])`` in this process and thread as a closed loop
with one client: each operation is one workload's CLI invocations, started
only after the previous operation finished.  Workloads, seeds and the layer
table are described in perfbench/README.md.

    python3 perfbench/run.py --workload oval --seed 0 --seconds 20 --trace 0

``--trace 0`` times untraced operations and reports the end-to-end metrics.
``--trace 1`` times untraced operations for half the run and traced ones for
the other half, and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object.  A result file
(and, when traced, the spans of the last traced operation) is written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Cold set-ups per untraced run, spread over its length; setup_s is their median.
SETUP_REPEATS = 5
#: A capture search or set-up takes a few seconds; a hung one fails the run.
SETUP_TIMEOUT_S = 30


class _Particle:
    """State of the reference work; one is allocated per step."""

    __slots__ = ("x", "v")

    def __init__(self, x: float, v: float):
        self.x = x
        self.v = v

    def step(self, u: float, dt: float) -> "_Particle":
        return _Particle(self.x + self.v * dt, self.v + (u - self.v) * 0.1)


def reference_work(n: int = 40_000) -> int:
    """Fixed pure-Python work, about 35 ms, timed between operations.

    Host speed on a shared machine swings by up to 2x within seconds and
    drifts by 20-50% over minutes, CPU time included.  This work runs the interpreter paths evsim spends its time in
    (method calls, small allocations, float math, dict stores, string
    formatting), so dividing an operation's wall time by it cancels most of
    the drift.  See perfbench/README.md for the measurements.
    """
    p = _Particle(0.0, 0.0)
    last: dict[int, _Particle] = {}
    lines = []
    for i in range(n):
        p = p.step(math.sin(i * 0.01), 0.001)
        last[i & 1023] = p
        if i % 7 == 0:
            lines.append(f"{i} {p.x:.6f}")
    return len(lines)


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


@dataclass
class Op:
    seconds: float
    ref_seconds: float = 0.0  # mean of the reference runs just before and after
    problems: list[str] = field(default_factory=list)
    digest: str = ""


class Bench:
    """Runs and checks operations of one workload against the generated inputs."""

    def __init__(self, cli, meta: dict, workdir: Path):
        self.cli = cli
        self.meta = meta
        self.workdir = workdir
        self.commands = wl.commands(meta, workdir)
        self.reference_digest: str | None = None

    def run_op(self) -> Op:
        gc.collect()
        stdouts: list[str] = []
        error = None
        t0 = time.perf_counter()
        try:
            for argv in self.commands:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    rc = self.cli.main(argv)  # looked up per call, so tracing sees it
                stdouts.append(buf.getvalue())
                if rc != 0:
                    error = f"evsim {argv[0]} exited with {rc}"
                    break
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"evsim {argv[0]} raised {type(exc).__name__}: {exc}"
        except SystemExit as exc:
            error = f"evsim {argv[0]} exited with {exc.code}"
        op = Op(time.perf_counter() - t0)
        if error:
            op.problems.append(error)
            return op
        try:
            op.problems.extend(wl.check(self.meta, self.workdir, stdouts))
            op.digest = wl.digest(self.meta, self.workdir, stdouts)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op.problems.append(f"output check failed: {type(exc).__name__}: {exc}")
            return op
        if self.reference_digest is None:
            self.reference_digest = op.digest
        elif op.digest != self.reference_digest:
            op.problems.append("outputs differ from the first operation's")
        return op

    def loop(self, seconds: float, min_ops: int = 1, pauses: int = 0, pause=None) -> list[Op]:
        """Untraced operations for `seconds`, each between two reference runs.

        `pause` is called `pauses` times, spread evenly over the run; its time
        does not count towards `seconds`.
        """
        ops: list[Op] = []
        done = 0
        elapsed = 0.0
        ref_before = timed_reference()
        while len(ops) < min_ops or elapsed < seconds:
            while done < pauses and elapsed >= seconds * (done + 1) / (pauses + 1):
                pause()
                done += 1
                ref_before = timed_reference()
            t0 = time.perf_counter()
            op = self.run_op()
            ref_after = timed_reference()
            elapsed += time.perf_counter() - t0
            op.ref_seconds = (ref_before + ref_after) / 2
            ref_before = ref_after
            ops.append(op)
        for _ in range(pauses - done):
            pause()
        return ops


def _probe(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class ColdSetup:
    """Generates a workload's inputs in fresh interpreters and times each set-up.

    The first set-up writes the inputs the operations read.  Each repeat
    writes a second copy, which must equal the first byte for byte, and
    deletes it.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        capture_seed = _probe(workload, seed)["capture_seed"]
        self.args = (workload, seed, "-" if capture_seed is None else capture_seed)
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.times: list[float] = []
        self.problems: list[str] = []
        self._timed(self.inputs)
        self.meta = json.loads((self.inputs / "inputs.json").read_text())

    def _timed(self, outdir: Path) -> None:
        self.times.append(_probe(*self.args, outdir)["setup_s"])

    def repeat(self) -> None:
        again = self.workdir / "setup-again"
        try:
            self._timed(again)
            for path in self.inputs.iterdir():
                if path.name == "inputs.json":
                    continue  # it names the directory; the data files must match
                if (again / path.name).read_bytes() != path.read_bytes():
                    self.problems.append(f"set-ups of one seed wrote different {path.name}")
        finally:
            shutil.rmtree(again, ignore_errors=True)


def tail_note(n: int) -> str:
    """Name the highest percentile with at least ten samples beyond it, if any."""
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}"
    return ""


def environment(seed: int, meta: dict, n_ops: int) -> dict:
    import numpy
    from evsim import _kernels
    return {
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "capture_seed": meta.get("capture_seed"),
        "operations": n_ops,
    }


def end_to_end(ops: list[Op], frames_per_op: int,
               setup_times: list[float]) -> tuple[dict, list[str]]:
    """Gated metrics, and report lines for the raw host timings behind them."""
    walls = sorted(op.seconds for op in ops)
    wall = statistics.median(walls)
    tail = tail_note(len(walls))
    tail_text = (f"{tail} {statistics.quantiles(walls, n=100)[int(tail[1:]) - 1]:.4f} s"
                 if tail else "no tail percentile: fewer than 10 samples beyond p90")
    metrics = {
        "wall_ratio": (statistics.median(op.seconds / op.ref_seconds for op in ops), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    lines = [
        ("wall_ratio", "operation over reference wall time, median of per-operation ratios"),
        ("setup_s", f"median of {len(setup_times)} cold set-ups: "
         + ", ".join(f"{t:.4f}" for t in setup_times)),
        ("peak_rss_mb", "peak resident set of this process"),
        ("wall_s", f"{wall:.6g} s, median of {len(walls)} operations; {tail_text}"),
        ("frames_per_s", f"{frames_per_op / wall:.6g} 1/s, {frames_per_op} frames per operation"),
        ("reference_s", f"{statistics.median(op.ref_seconds for op in ops):.6g} s, "
         "median of the reference work"),
    ]
    return metrics, lines


def traced_phase(bench: Bench, workload: str, seconds: float) -> tuple[list[Op], dict, list[str], tracing.Tracer]:
    """Traced operations; returns them, per-layer metrics and run-level problems."""
    tracer = tracing.Tracer()
    ops: list[Op] = []
    per_op: list[dict] = []
    counted: list[tuple] = []
    start = time.perf_counter()
    while len(ops) < 2 or time.perf_counter() - start < seconds:
        tracer.reset()
        with tracer.installed():
            op = bench.run_op()
        self_s, total_s = tracer.span_times()
        layer = tracing.layer_metrics(tracer.calls, tracer.counts, self_s, total_s)
        layer["trace.unattributed_s"] = op.seconds - sum(self_s.values())
        ops.append(op)
        per_op.append(layer)
        counted.append((dict(tracer.calls),
                        {k: tracer.counts[k] for k in tracing.DETERMINISTIC_COUNTS}))
    problems = [f"{name} recorded no calls" for name in tracing.REQUIRED[workload]
                if counted[0][0].get(name, 0) == 0]
    if any(c != counted[0] for c in counted[1:]):
        problems.append("deterministic counts differ between traced operations")
    # times are medians per operation; counts and their ratios repeat exactly
    layer = {name: statistics.median(m[name] for m in per_op) if name.endswith("_s")
             else per_op[0][name] for name in per_op[0]}
    return ops, layer, problems, tracer


def run(args, workdir: Path) -> int:
    setup = ColdSetup(args.workload, args.seed, workdir)
    meta = setup.meta
    wl.import_evsim()
    from evsim import cli

    bench = Bench(cli, meta, workdir)
    # warm-up, untimed: fills caches and counts the frames an operation handles
    counter = tracing.Tracer(spans=False)
    with counter.installed():
        warm = bench.run_op()
    frames_per_op = (counter.counts["canbus.frames_delivered"]
                     + counter.counts["canbus.parse_trace.frames"])

    run_problems: list[str] = []
    if args.trace:
        untraced = bench.loop(args.seconds / 2, min_ops=3)
        traced, layer, run_problems, tracer = traced_phase(bench, args.workload, args.seconds / 2)
        layer["trace.overhead_s"] = (statistics.median(op.seconds for op in traced)
                                     - statistics.median(op.seconds for op in untraced))
        ops = [warm, *untraced, *traced]
        metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
        lines = []
    else:
        untraced = bench.loop(args.seconds, pauses=SETUP_REPEATS - 1, pause=setup.repeat)
        ops = [warm, *untraced]
        run_problems = setup.problems
        metrics, lines = end_to_end(untraced, frames_per_op, setup.times)

    failed = sum(1 for op in ops if op.problems)
    env = environment(args.seed, meta, len(ops))
    print(f"evsim CLI benchmark: workload {args.workload}, "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    notes = dict(lines)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<12} {notes.pop(name, '')}".rstrip())
    for name, text in notes.items():
        print(f"  {name:<40} {text}")
    print(f"  {'error_rate':<40} {failed / len(ops):>14.6g} {'ratio':<12} "
          f"{failed} failed of {len(ops)} attempted")
    print(f"  outputs sha256 {bench.reference_digest}")
    problems = sorted({p for op in ops for p in op.problems} | set(run_problems))
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}.csv")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "environment": env, "inputs": meta, "problems": problems,
              "setup_s": setup.times, "wall_s": [op.seconds for op in ops],
              "reference_s": [op.ref_seconds for op in ops],
              "digest": bench.reference_digest}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC_DIR / "evsim" / "cli.py").is_file():
        print(f"perfbench: no evsim sources under {wl.SRC_DIR}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
