"""Command-line front end.

Subcommands mirror the library surface: closed-loop simulation, trace
injection and analysis, gain design, track generation, and the serial
packet codec.  Arbitration ids are hex (no 0x prefix) and byte
positions are 1-indexed on the command line, matching the way captures
are usually annotated; the library itself indexes from 0.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import canbus, follower, injection, lowlevel, recordings, revtools, scenario, serial_link
from .plant import MPH_TO_MPS


# Argument types: each rejects what the command cannot run with, so argparse
# reports it in one line and exits 2 before any work starts.

def _finite_number(accept, wanted: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    return parse


_positive = _finite_number(lambda v: v > 0.0, "a finite number > 0")
_non_negative = _finite_number(lambda v: v >= 0.0, "a finite number >= 0")
_fraction = _finite_number(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_run_seconds = _finite_number(lambda v: 0.0 < v <= scenario.MAX_RUN_S,
                              f"a number > 0 and <= {scenario.MAX_RUN_S:g}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _parse_speed(text: str) -> float:
    """Positive speed with unit suffix: '20mph', '8.94mps', or bare m/s."""
    t = text.strip().lower()
    if t.endswith("mph"):
        return _positive(t[:-3]) * MPH_TO_MPS
    if t.endswith("mps"):
        return _positive(t[:-3])
    return _positive(t)


def _parse_ramp(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ramp must be start:end:step")
    try:
        start, end, step = (int(p, 0) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("ramp fields must be integers") from None
    try:
        scenario.ramp_bytes(start, end, step)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return start, end, step


def _hex_id(text: str) -> int:
    value = int(text, 16)
    if not 0 <= value <= 0x7FF:
        raise argparse.ArgumentTypeError(f"id {text} is outside the 11-bit range 0..7FF")
    return value


def _byte_1idx(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 8:
        raise argparse.ArgumentTypeError("byte position must be 1..8")
    return value


def cmd_simulate(args) -> int:
    scn = scenario.load_scenario(args.scenario)
    result = scenario.run_scenario(scn)
    outdir = Path(args.outdir) if args.outdir else Path("out") / scn.name
    paths = scenario.emit_logs(result, outdir)
    m = result.metrics
    print(f"scenario '{scn.name}': {m['control_steps']} control steps, "
          f"{m['frames_on_bus']} frames on the bus")
    if "lap_errors" in m:
        for lap, stats in m["lap_errors"].items():
            print(f"  lap {lap}: mean error {stats['mean_err_m']:.3f} m, "
                  f"max {stats['max_err_m']:.3f} m ({stats['samples']} samples)")
    if "final_speed_mph" in m:
        print(f"  final speed {m['final_speed_mph']:.2f} mph")
    for kind, path in paths.items():
        print(f"  {kind}: {path}")
    return 0


def cmd_inject(args) -> int:
    start, end, step = args.ramp
    value_fn = scenario.ramp_bytes(start, end, step)
    byte_index = args.byte - 1
    if args.trace:
        trace = canbus.load_trace(args.trace)
        result = scenario.run_replay_injection(
            trace, value_fn, target_id=args.id, byte_index=byte_index,
            mode=args.mode, delay_us=args.delay_us)
    else:
        schedule = None
        if args.target_period_ms is not None:
            schedule = dict(canbus.DEFAULT_SCHEDULE)
            schedule[args.id] = args.target_period_ms * 1000
        result = scenario.run_live_injection(
            args.duration, value_fn, target_id=args.id, byte_index=byte_index,
            mode=args.mode, delay_us=args.delay_us, schedule=schedule)
    m = result.metrics()
    print(f"injected {m['injected_frames']} frames "
          f"({m['frames_on_bus']} total on the bus)")
    if "dominance" in m:
        d = m["dominance"]
        print(f"dominance: {d['exact']} = {d['value']:.4f}")
    print(f"rig speed after run: {m['final_speed_mph']:.2f} mph")
    if result.speed_series:
        first, last = result.speed_series[0][1], result.speed_series[-1][1]
        print(f"broadcast speed: {first:.2f} -> {last:.2f} mph")
    if args.out:
        canbus.save_trace(result.trace, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_isolate(args) -> int:
    if args.trace:
        trace = canbus.load_trace(args.trace)
        scenario.replay_ms(trace)  # a capture too long to replay fails here
    else:
        print("no trace given; using the built-in pedal-press capture")
        trace = recordings.press_recording()
    oracle = recordings.throttle_effect_oracle()
    n = len(trace.ids())
    try:
        result = revtools.isolate_control_id(trace, oracle, confirm=not args.no_confirm)
    except revtools.NoEffectError:
        print("no effect: the full capture does not move the rig")
        return 1
    except revtools.AmbiguousError as exc:
        print(f"ambiguous: {exc}")
        return 1
    budget = revtools.isolation_budget(n)
    extra = 1 if not args.no_confirm else 0
    print(f"control id: 0x{result.arb_id:X}")
    print(f"oracle calls: {result.oracle_calls} "
          f"(budget {budget} + {extra} confirmation) over {n} candidate ids")
    print(f"confirmed alone: {result.confirmed}")
    return 0


def cmd_correlate(args) -> int:
    trace = canbus.load_trace(args.trace)
    report = revtools.correlate_bytes(trace, speed_id=args.speed_id, signed=args.signed)
    print(f"speed reference 0x{report.speed_id:X}: {report.n_speed_samples} samples")
    print(f"{'rank':>4} {'id':>5} {'byte':>4} {'r':>9} {'samples':>8}")
    for c in report.top(args.top):
        print(f"{c.rank:>4} {c.arb_id:>5X} {c.byte_index + 1:>4} {c.r:>+9.4f} {c.n_samples:>8}")
    print(f"({len(report.ranked)} ranked, {len(report.excluded)} excluded)")
    return 0


def cmd_design_gains(args) -> int:
    spec = lowlevel.LoopSpec(args.tau_car, args.zeta, args.tau_cl)
    gains = lowlevel.design_pi(spec)
    poles = lowlevel.closed_loop_poles(gains, spec.tau_channel_s)
    print(f"kp = {gains.kp!r}")
    print(f"ki = {gains.ki!r}")
    print(f"closed-loop poles: {poles[0]:.6g}, {poles[1]:.6g}")
    if gains.kp == 0.0:
        print("setpoint weight for first-order tracking: none (kp = 0)")
    else:
        print(f"setpoint weight for first-order tracking: "
              f"b = {gains.ki * spec.tau_target_s / gains.kp!r}")
    return 0


def cmd_make_oval(args) -> int:
    speed_mps = args.speed
    path = follower.make_oval(args.straight, args.radius, speed_mps)
    print(f"oval: {len(path)} samples, lap {path.period_s:.4f} s "
          f"at {speed_mps / MPH_TO_MPS:.2f} mph")
    if args.path:
        follower.save_path(path, args.path)
        print(f"wrote {args.path}")
    if args.scenario:
        period = path.period_s
        duration = int(args.laps * period / 0.1) * 0.1
        scn = scenario.Scenario(
            name=Path(args.scenario).stem, duration_s=round(duration, 6),
            oval=scenario.OvalSpec(args.straight, args.radius, speed_mps / MPH_TO_MPS))
        scn.validate()
        scenario.save_scenario(scn, args.scenario)
        print(f"wrote {args.scenario} ({args.laps} laps, {duration:.1f} s)")
    return 0


def cmd_packet(args) -> int:
    if args.decode:
        try:
            raw = bytes.fromhex(args.decode.replace(" ", ""))
        except ValueError:
            raise serial_link.FrameError(
                f"--decode needs hex bytes, got {args.decode!r}") from None
        try:
            pkt = serial_link.decode_packet(raw)
        except serial_link.FrameError as exc:
            print(f"bad frame: {exc}")
            return 1
        print(f"app = {pkt.app!r}")
        print(f"bpp = {pkt.bpp!r}")
        print(f"steer = {pkt.steer!r}")
        return 0
    wire = serial_link.encode_packet(args.app, args.bpp, args.steer)
    print(" ".join(f"{b:02X}" for b in wire))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in the same one line as main's user errors."""

    def error(self, message: str):
        self.exit(2, f"evsim: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evsim",
        description="CAN-actuated EV conversion simulator and bus analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a closed-loop scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--outdir", help="log directory (default out/<name>)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("inject", help="override a broadcast byte and watch the rig")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="recorded trace to replay")
    src.add_argument("--duration", type=_run_seconds, metavar="SECONDS",
                     help="live run length against the stock broadcasts")
    p.add_argument("--id", type=_hex_id, default=canbus.THROTTLE_ID,
                   help="target arbitration id, hex (default 11A)")
    p.add_argument("--byte", type=_byte_1idx, default=canbus.THROTTLE_BYTE_INDEX + 1,
                   help="byte position 1..8 (default 4)")
    p.add_argument("--ramp", type=_parse_ramp, required=True, metavar="START:END:STEP",
                   help="byte value ramp, advancing per target frame")
    p.add_argument("--mode", choices=("shadow", "tap"), default="shadow")
    p.add_argument("--delay-us", type=_positive_int, default=250,
                   help="shadow frame delay after each genuine frame")
    p.add_argument("--target-period-ms", type=_positive_int,
                   help="live mode: broadcast period for the target id")
    p.add_argument("--out", help="write the resulting bus trace here")
    p.set_defaults(fn=cmd_inject)

    p = sub.add_parser("isolate", help="bisect a capture down to the actuating id")
    p.add_argument("--trace", help="capture file (default: built-in press capture)")
    p.add_argument("--no-confirm", action="store_true",
                   help="skip the single-id confirmation replay")
    p.set_defaults(fn=cmd_isolate)

    p = sub.add_parser("correlate", help="rank payload bytes against broadcast speed")
    p.add_argument("--trace", required=True, help="capture file")
    p.add_argument("--speed-id", type=_hex_id, default=canbus.SPEED_ID,
                   help="speed broadcast id, hex (default 75)")
    p.add_argument("--top", type=_positive_int, default=20, help="rows to print")
    p.add_argument("--signed", action="store_true",
                   help="rank by signed r, most positive first")
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("design-gains", help="PI gains from channel lag and targets")
    p.add_argument("--tau-car", type=_positive, required=True,
                   help="identified channel time constant, seconds")
    p.add_argument("--zeta", type=_positive, default=1.0, help="damping ratio")
    p.add_argument("--tau-cl", type=_positive, required=True,
                   help="target closed-loop time constant, seconds")
    p.set_defaults(fn=cmd_design_gains)

    p = sub.add_parser("make-oval", help="generate the stadium track table")
    p.add_argument("--straight", type=_non_negative, default=100.0, help="straight length, m")
    p.add_argument("--radius", type=_positive, default=20.0, help="turn radius, m")
    p.add_argument("--speed", type=_parse_speed, default="20mph",
                   help="target speed ('20mph', '8.94mps', or m/s)")
    p.add_argument("--path", help="write the target table here")
    p.add_argument("--scenario", help="write a ready-to-run scenario JSON here")
    p.add_argument("--laps", type=_positive_int, default=2,
                   help="laps for the scenario duration")
    p.set_defaults(fn=cmd_make_oval)

    p = sub.add_parser("packet", help="encode or decode a serial command packet")
    p.add_argument("--app", type=_fraction, default=0.0, help="accelerator, 0..1")
    p.add_argument("--bpp", type=_fraction, default=0.0, help="brake, 0..1")
    p.add_argument("--steer", type=_fraction, default=0.5, help="steering duty, 0..1")
    p.add_argument("--decode", metavar="HEX", help="decode a hex frame instead")
    p.set_defaults(fn=cmd_packet)

    return parser


#: Errors caused by what the user passed in; main reports them in one line.
_USER_ERRORS = (scenario.ConfigError, canbus.TraceParseError, canbus.ShortFrameError,
                serial_link.FrameError, revtools.EmptyTraceError, follower.OvalError,
                injection.DelayError, lowlevel.GainsNotFiniteError, OSError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _USER_ERRORS as exc:
        print(f"evsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
