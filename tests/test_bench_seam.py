"""The seam perfbench/tracing.py patches from outside the package.

The traced benchmark run wraps evsim callables by module or class
attribute and reads two of their arguments by position.  A rename or a
signature change there only shows up as a broken traced run, so these
tests pin what the tracer relies on.
"""

import importlib.util
import inspect
import io
from collections import Counter
from pathlib import Path

import pytest

from evsim import canbus, cli, injection, plant, recordings, revtools, scenario, serial_link

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_points_resolve():
    points = _tracing().patch_points()
    assert points
    for owner, attr, name, _ in points:
        assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr} is gone"


def test_hooks_find_their_arguments():
    # _ticks reads n_ticks as args[4], _forged_by reads source as args[3]
    assert list(inspect.signature(plant.VehiclePlant.advance).parameters)[4] == "n_ticks"
    assert list(inspect.signature(canbus.CanBus.inject_at).parameters)[3] == "source"


def test_oracle_factory_takes_no_arguments():
    assert callable(recordings.throttle_effect_oracle())


def test_load_trace_calls_parse_trace_through_the_module(tmp_path, monkeypatch):
    # the tracer counts canbus.parse_trace.frames by replacing the attribute
    path = tmp_path / "t.txt"
    path.write_text("0 10 0\n")
    parse = canbus.parse_trace
    seen = []
    monkeypatch.setattr(canbus, "parse_trace", lambda text: seen.append(text) or parse(text))
    assert len(canbus.load_trace(path)) == 1
    assert seen == [b"0 10 0\n"]  # the file's bytes, undecoded


def test_save_trace_calls_serialize_trace_through_the_module(tmp_path, monkeypatch):
    # the traced oval requires the canbus.serialize_trace span, recorded by
    # replacing the attribute
    path = tmp_path / "t.txt"
    trace = canbus.CanTrace([canbus.CanFrame(0, 0x10, b"")])
    serialize = canbus.serialize_trace
    seen = []
    monkeypatch.setattr(canbus, "serialize_trace",
                        lambda trace: seen.append(trace) or serialize(trace))
    canbus.save_trace(trace, path)
    assert len(seen) == 1 and seen[0] is trace
    assert path.read_bytes() == b"0 10 0\n"


def test_simulate_spans_see_complete_logs(tmp_path, monkeypatch, capsys):
    # the traced oval requires both spans, recorded by replacing the module
    # attributes, and _log_bytes stats the three paths the moment emit_logs
    # returns, while the state.csv formatter child may still be exiting
    tracing = _tracing()
    assert {"scenario.run_scenario", "scenario.emit_logs"} <= set(tracing.REQUIRED["oval"])
    run, emit = scenario.run_scenario, scenario.emit_logs
    seen = {}

    def traced_run(*args, **kwargs):
        seen["result"] = run(*args, **kwargs)
        return seen["result"]

    def traced_emit(*args, **kwargs):
        paths = emit(*args, **kwargs)
        seen["at_return"] = {kind: path.read_bytes() for kind, path in paths.items()}
        counts = Counter()
        tracing._log_bytes(counts, args, kwargs, paths)
        seen["log_bytes"] = counts["scenario.log_bytes"]
        return paths

    monkeypatch.setattr(scenario, "run_scenario", traced_run)
    monkeypatch.setattr(scenario, "emit_logs", traced_emit)
    scn_file = tmp_path / "oval.json"
    oval = scenario.OvalSpec(10.0, 10.0, 10.0)
    scenario.save_scenario(scenario.Scenario("oval", 12.0, oval=oval), scn_file)
    outdir = tmp_path / "logs"
    assert cli.main(["simulate", str(scn_file), "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    final = {kind: (outdir / name).read_bytes() for kind, name in
             (("state", "state.csv"), ("trace", "trace.txt"), ("metrics", "metrics.json"))}
    assert seen["at_return"] == final
    assert seen["log_bytes"] == sum(map(len, final.values()))
    expected = io.StringIO(newline="")
    scenario.write_state_csv(expected, seen["result"].rows)
    assert final["state"] == expected.getvalue().encode("ascii")


def test_len_of_a_parsed_trace_builds_no_frame(monkeypatch):
    # the tracer counts canbus.parse_trace.frames with len(result), inside
    # the parse span of a correlate run that never builds a frame
    def no_frames(columns):
        raise AssertionError("frames built")

    monkeypatch.setattr(canbus, "_frames_of", no_frames)
    # in the written spelling, as a capture is, so the columnar pass reads it
    assert len(canbus.parse_trace("0 10 0\n5 7FF 1 AA\n6 10 1 BB\n")) == 3


def test_inject_replay_builds_only_target_frames_and_keeps_its_spans(tmp_path, monkeypatch,
                                                                      capsys):
    # a traced inject or isolate run requires these spans, so the rows the
    # receiver reads must still reach it through feed_replay and inject_at
    spans = {"canbus.inject_at": (canbus.CanBus, "inject_at"),
             "canbus.trace": (canbus.CanBus, "trace"),
             "injection.receiver": (injection.ThrottleReceiver, "__call__"),
             "injection.shadow": (injection.ShadowInjector, "_on_frame"),
             "injection.dominance": (injection, "dominance_fraction")}
    required = _tracing().REQUIRED
    assert set(spans) <= set(required["inject"])
    assert {"canbus.inject_at", "injection.receiver"} <= set(required["isolate"])
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, (owner, attr) in spans.items():
        monkeypatch.setattr(owner, attr, counted(name, vars(owner)[attr]))
    built = []
    frames_of = canbus._frames_of

    def recorded_frames_of(columns):
        frames = frames_of(columns)
        built.extend(frames)
        return frames

    monkeypatch.setattr(canbus, "_frames_of", recorded_frames_of)
    ids = (0x10, 0x75, canbus.THROTTLE_ID, 0x7FF)
    path = tmp_path / "capture.txt"
    canbus.save_trace(canbus.CanTrace([canbus.CanFrame(t, arb_id, bytes(8))
                                       for t in range(10_000, 210_000, 10_000)
                                       for arb_id in ids]), path)
    out = tmp_path / "out.txt"
    assert cli.main(["inject", "--trace", str(path), "--ramp", "0:200:1", "--out", str(out)]) == 0
    assert "injected 20 frames (100 total on the bus)" in capsys.readouterr().out
    # the merged trace is written from its columns
    assert [f.arbitration_id for f in built] == [canbus.THROTTLE_ID] * 20
    assert all(calls[name] for name in spans), calls
    assert len(canbus.load_trace(out)) == 100


@pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
@pytest.mark.parametrize("mode", ["live", "shadow", "tap"])
def test_inject_reads_its_bus_trace_and_merges_only_for_out(tmp_path, monkeypatch, capsys,
                                                            mode, out):
    # a traced inject run requires canbus.trace, and a shadow run injection.dominance,
    # in each of its three commands; a replay merges the capture's other rows
    # into its trace only for --out, since nothing else reads that trace
    spans = {"canbus.trace": (canbus.CanBus, "trace"),
             "injection.dominance": (injection, "dominance_fraction"),
             "canbus._merged": (canbus, "_merged")}
    assert {"canbus.trace", "injection.dominance"} <= set(_tracing().REQUIRED["inject"])
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, (owner, attr) in spans.items():
        monkeypatch.setattr(owner, attr, counted(name, vars(owner)[attr]))
    path = tmp_path / "capture.txt"
    canbus.save_trace(canbus.CanTrace([canbus.CanFrame(t, arb_id, bytes(8))
                                       for t in range(10_000, 210_000, 10_000)
                                       for arb_id in (0x10, 0x75, canbus.THROTTLE_ID)]), path)
    argv = ["inject", "--ramp", "0:200:1"]
    argv += ["--duration", "0.5"] if mode == "live" else ["--trace", str(path), "--mode", mode]
    if out:
        argv += ["--out", str(tmp_path / "out.txt")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls["canbus.trace"] >= 1
    assert calls["injection.dominance"] >= (mode != "tap")
    assert calls["canbus._merged"] == (out and mode != "live")


def test_isolate_keeps_its_spans_and_skips_probes_with_no_throttle_row(tmp_path, monkeypatch,
                                                                        capsys):
    # a traced isolate run requires these spans; only a probe that holds a
    # throttle row builds a bus and moves a rig, and only the first probe
    # with given throttle rows and window does
    spans = {"canbus.step": (canbus.CanBus, "step"),
             "canbus.inject_at": (canbus.CanBus, "inject_at"),
             "plant.advance": (plant.VehiclePlant, "advance"),
             "injection.receiver": (injection.ThrottleReceiver, "__call__"),
             "CanBus.__init__": (canbus.CanBus, "__init__")}
    assert set(spans) - {"CanBus.__init__"} <= set(_tracing().REQUIRED["isolate"])
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    path = tmp_path / "press.txt"
    canbus.save_trace(recordings.press_recording(duration_s=2.5), path)
    for name, (owner, attr) in spans.items():
        monkeypatch.setattr(owner, attr, counted(name, vars(owner)[attr]))
    probes = []
    factory = recordings.throttle_effect_oracle

    def recorded_factory():
        oracle = factory()

        def recorded(subset):
            before = Counter(calls)
            verdict = oracle(subset)
            used = calls - before
            rows = [f for f in subset if f.arbitration_id == canbus.THROTTLE_ID]
            probes.append((rows, scenario.replay_ms(subset), used, verdict))
            return verdict
        return recorded

    monkeypatch.setattr(recordings, "throttle_effect_oracle", recorded_factory)
    assert cli.main(["isolate", "--trace", str(path)]) == 0
    assert "control id: 0x11A" in capsys.readouterr().out
    assert all(calls[name] for name in spans), calls
    skipped = [used for rows, _, used, _ in probes if not rows]
    assert skipped and not any(used["CanBus.__init__"] or used["plant.advance"]
                               for used in skipped)
    (rows, n_ms, first, _), *repeats = [probe for probe in probes if probe[0]]
    assert first["CanBus.__init__"] == 1 and first["plant.advance"]
    assert repeats and all(
        (repeat_rows, repeat_ms) == (rows, n_ms)
        and not (used["CanBus.__init__"] or used["plant.advance"])
        for repeat_rows, repeat_ms, used, _ in repeats)
    assert all(verdict for rows, _, _, verdict in probes if rows)


def test_isolate_reaches_select_ids_through_revtools_once_per_oracle_call(monkeypatch):
    # the tracer times injection.select_ids by replacing revtools.select_ids,
    # and a traced isolate run requires that span
    assert "injection.select_ids" in _tracing().REQUIRED["isolate"]
    select = revtools.select_ids
    selections = []
    monkeypatch.setattr(revtools, "select_ids",
                        lambda trace, ids: selections.append(ids) or select(trace, ids))
    trace = canbus.CanTrace([canbus.CanFrame(k, arb_id, b"")
                             for k, arb_id in enumerate((0x10, 0x20, 0x30, 0x40, 0x50))])
    oracle_calls = []

    def oracle(subset):
        oracle_calls.append(subset)
        return 0x50 in subset.ids()

    result = revtools.isolate_control_id(trace, oracle, confirm=True)
    assert result.arb_id == 0x50 and result.confirmed
    assert len(selections) == len(oracle_calls) == result.oracle_calls


def test_revtools_select_ids_is_the_injection_function():
    # the tracer patches both names; two functions would time only one of them
    assert revtools.select_ids is injection.select_ids


# The tracer counts canbus.frames_delivered and serial_link.packets from
# len() of what CanBus.step and StreamDecoder.feed return: the step, the
# range of the trace rows it appended, and the feed, a list of its own
# holding exactly what it decoded.

@pytest.mark.parametrize("listen", [False, True])
def test_step_returns_the_frames_it_appended_to_the_trace(listen):
    bus = canbus.CanBus()
    bus.add_periodic(0x75, 3_000, lambda now: bytes(8))
    bus.add_periodic(0x10, 5_000, lambda now: bytearray(2))
    bus.feed_replay(canbus.CanFrame(t, 0x20, b"\x01") for t in (2_500, 5_000, 9_000))
    seen = []
    if listen:
        bus.add_listener(lambda frame, source: seen.append(frame))
    returned = []
    for now in (0, 2_000, 5_000, 5_000, 12_000, 20_000):
        before = len(bus.trace())
        delivered = bus.step(now)
        assert delivered == range(before, len(bus.trace()))
        returned.append(delivered)
    assert sum(map(len, returned)) == len(bus.trace()) == 13
    assert seen == (bus.trace().frames if listen else [])


def test_feed_returns_the_packets_it_decoded():
    wire = [serial_link.encode_packet(x / 10, 0.0, 0.5) for x in range(4)]
    packets = [serial_link.decode_packet(w) for w in wire]
    bad = bytearray(wire[0])
    bad[5] ^= 0xFF
    dec = serial_link.StreamDecoder()
    results = [
        dec.feed(wire[0]),                # one whole frame into an empty buffer
        dec.feed(bytes(bad)),             # a whole but corrupt frame: resync scan
        dec.feed(wire[1]),
        dec.feed(wire[2][:4]),            # a partial frame waits in the buffer
        dec.feed(wire[2][4:] + wire[3]),  # and completes with the next one
        dec.feed(wire[0]),
        dec.feed(b"\x00\x01\x02\x03" + wire[1][:6]),  # 10 bytes, a frame starts inside
        dec.feed(wire[1][6:]),
    ]
    assert results == [[packets[0]], [], [packets[1]], [], packets[2:], [packets[0]], [],
                       [packets[1]]]
    assert len({id(r) for r in results}) == len(results)
