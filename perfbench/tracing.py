"""Per-layer tracing of evsim from outside the package.

``Tracer.installed()`` replaces public functions and methods of each evsim
module with wrappers that record a span (name, start, end, parent) and a few
counts, and puts the originals back on exit.  Each name is patched in the
namespace where callers look it up: ``revtools`` imports ``select_ids`` by
name, ``scenario`` reaches ``serial_link.encode_packet`` and
``lowlevel.deadband_compensate`` through the module, and methods are
patched on their class.  Nothing under ``src/`` changes.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

#: Spans a workload must record at least one call of; the layers that the
#: workload exercises according to the benchmark's layer table.
REQUIRED = {
    "oval": ("cli.main", "scenario.run_scenario", "scenario.emit_logs", "canbus.step",
             "canbus.next_due_us", "canbus.trace", "canbus.serialize_trace",
             "plant.advance", "lowlevel.lon_step", "lowlevel.lat_step",
             "lowlevel.deadband", "follower.step", "serial_link.encode_packet",
             "serial_link.feed"),
    "isolate": ("cli.main", "canbus.parse_trace", "canbus.step", "canbus.inject_at",
                "plant.advance", "injection.receiver", "injection.select_ids",
                "revtools.isolate_control_id", "recordings.oracle"),
    "correlate": ("cli.main", "canbus.parse_trace", "revtools.correlate_bytes"),
    "inject": ("cli.main", "canbus.parse_trace", "canbus.step", "canbus.inject_at",
               "canbus.trace", "plant.advance", "injection.receiver", "injection.shadow",
               "injection.dominance", "scenario.injection_rig"),
}

#: Counts that must repeat exactly between traced operations.
DETERMINISTIC_COUNTS = ("canbus.frames_delivered", "canbus.parse_trace.frames",
                        "plant.ticks", "revtools.oracle_calls", "scenario.log_bytes",
                        "injection.forged_frames", "serial_link.packets")

#: Span names whose self time is reported.
SELF_TIMES = (
    "canbus.step", "canbus.next_due_us", "canbus.trace", "canbus.parse_trace",
    "canbus.serialize_trace", "plant.advance", "lowlevel.lon_step", "lowlevel.lat_step",
    "lowlevel.deadband", "follower.step", "serial_link.encode_packet", "serial_link.feed",
    "injection.receiver", "injection.shadow", "injection.select_ids", "injection.dominance",
    "revtools.isolate_control_id", "revtools.correlate_bytes", "recordings.oracle",
    "scenario.run_scenario", "scenario.emit_logs", "scenario.injection_rig", "cli.main",
)
CALL_COUNTS = (
    "canbus.step", "canbus.inject_at", "plant.advance", "lowlevel.lon_step",
    "lowlevel.lat_step", "lowlevel.deadband", "follower.step", "injection.receiver",
)


def _frames_delivered(counts, args, kwargs, result):
    counts["canbus.frames_delivered"] += len(result)


def _frames_parsed(counts, args, kwargs, result):
    counts["canbus.parse_trace.frames"] += len(result)


def _forged_by(shadow_source: str):
    def hook(counts, args, kwargs, result):
        source = kwargs.get("source", args[3] if len(args) > 3 else None)
        if source == shadow_source:
            counts["injection.forged_frames"] += 1
    return hook


def _ticks(counts, args, kwargs, result):
    counts["plant.ticks"] += kwargs["n_ticks"] if "n_ticks" in kwargs else args[4]


def _packets(counts, args, kwargs, result):
    counts["serial_link.packets"] += len(result)


def _log_bytes(counts, args, kwargs, result):
    counts["scenario.log_bytes"] += sum(Path(p).stat().st_size for p in result.values())


def _budget(counts, args, kwargs, result):
    counts["revtools.isolation_budget"] = result


def patch_points():
    """(owner, attribute, span name, count hook) for every wrapped callable."""
    from evsim import (canbus, cli, follower, injection, lowlevel, plant, recordings,
                       revtools, scenario, serial_link)
    return [
        (cli, "main", "cli.main", None),
        (canbus.CanBus, "step", "canbus.step", _frames_delivered),
        (canbus.CanBus, "next_due_us", "canbus.next_due_us", None),
        (canbus.CanBus, "inject_at", "canbus.inject_at",
         _forged_by(injection.ShadowInjector.SOURCE)),
        (canbus.CanBus, "trace", "canbus.trace", None),
        (canbus, "parse_trace", "canbus.parse_trace", _frames_parsed),
        (canbus, "serialize_trace", "canbus.serialize_trace", None),
        (plant.VehiclePlant, "advance", "plant.advance", _ticks),
        (lowlevel.LongitudinalController, "step", "lowlevel.lon_step", None),
        (lowlevel.LateralController, "step", "lowlevel.lat_step", None),
        (lowlevel, "deadband_compensate", "lowlevel.deadband", None),
        (follower.PathFollower, "step", "follower.step", None),
        (serial_link, "encode_packet", "serial_link.encode_packet", None),
        (serial_link.StreamDecoder, "feed", "serial_link.feed", _packets),
        (injection.ThrottleReceiver, "__call__", "injection.receiver", None),
        # bound as a bus listener when the injector is built, inside the operation
        (injection.ShadowInjector, "_on_frame", "injection.shadow", None),
        (injection, "select_ids", "injection.select_ids", None),
        (revtools, "select_ids", "injection.select_ids", None),
        (injection, "dominance_fraction", "injection.dominance", None),
        (revtools, "isolate_control_id", "revtools.isolate_control_id", None),
        (revtools, "isolation_budget", "revtools.isolation_budget", _budget),
        (revtools, "correlate_bytes", "revtools.correlate_bytes", None),
        (scenario, "run_scenario", "scenario.run_scenario", None),
        (scenario, "emit_logs", "scenario.emit_logs", _log_bytes),
        (scenario, "run_live_injection", "scenario.injection_rig", None),
        (scenario, "run_replay_injection", "scenario.injection_rig", None),
    ]


class Tracer:
    """Records spans and counts while installed; ``spans=False`` keeps counts only."""

    def __init__(self, spans: bool = True):
        self.record_spans = spans
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [-1]

    def reset(self) -> None:
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, hook=None):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if self.record_spans:
                spans, stack = self.spans, self._stack
                rec = [name, clock(), 0, stack[-1]]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_oracle_factory(self, factory):
        def traced_factory(*args, **kwargs):
            return self.wrap("recordings.oracle", factory(*args, **kwargs))
        return traced_factory

    @contextmanager
    def installed(self):
        from evsim import recordings
        points = [(owner, attr, self.wrap(name, vars(owner)[attr], hook))
                  for owner, attr, name, hook in patch_points()]
        points.append((recordings, "throttle_effect_oracle",
                       self._wrap_oracle_factory(recordings.throttle_effect_oracle)))
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in points]
        try:
            for owner, attr, wrapper in points:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds of self time and of total time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered) / 1e9
            total_s[name] = total_s.get(name, 0.0) + (end - start) / 1e9
        return self_s, total_s

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric produced by layer_metrics or the trace itself."""
    if name.endswith("_s"):
        return "s"
    return {"plant.ticks_per_call": "ticks/call",
            "serial_link.packets_per_feed": "packets/call",
            "revtools.oracle_calls_per_budget": "ratio",
            "scenario.log_bytes": "bytes"}.get(name, "count")


def layer_metrics(calls: Counter, counts: Counter, self_s: dict[str, float],
                  total_s: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced operation, named as in BENCHMARK.json."""
    out: dict[str, float] = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = calls[name]
    out["canbus.frames_delivered"] = counts["canbus.frames_delivered"]
    out["canbus.parse_trace.frames"] = counts["canbus.parse_trace.frames"]
    out["plant.ticks"] = counts["plant.ticks"]
    advances = calls["plant.advance"]
    out["plant.ticks_per_call"] = counts["plant.ticks"] / advances if advances else 0.0
    feeds = calls["serial_link.feed"]
    out["serial_link.packets_per_feed"] = counts["serial_link.packets"] / feeds if feeds else 0.0
    out["injection.forged_frames"] = counts["injection.forged_frames"]
    oracle_calls = calls["recordings.oracle"]
    out["revtools.oracle_calls"] = oracle_calls
    # the CLI asks for the single-id confirmation, which may cost one call
    budget = counts["revtools.isolation_budget"]
    out["revtools.oracle_calls_per_budget"] = oracle_calls / (budget + 1) if budget else 0.0
    out["recordings.oracle.mean_s"] = (total_s.get("recordings.oracle", 0.0) / oracle_calls
                                       if oracle_calls else 0.0)
    out["scenario.log_bytes"] = counts["scenario.log_bytes"]
    return out
