"""Closed-loop scenario runner and injection rigs.

A scenario wires the full stack together on one clock hierarchy:

  physics tick (1 kHz)  plant integration
  control period (100 Hz)  the three PI loops and the serial hop
  follower period (10 Hz)  target replay and the flatness law

Each control period the loops read the true plant state, their duties
ride the serial link (encode, CRC, decode) exactly as they would to the
gateway board, the steering duty passes through deadband compensation,
and the plant integrates to the next boundary.  Bus frames fall due on
their own schedule and are delivered at their own microsecond, between
physics ticks too; the plant moves only on ticks, so a frame due
between ticks takes effect at the next one.  Everything is
integer-microsecond bookkeeping, so runs are deterministic and replays
byte-identical.

run_until is the one loop that runs a bus and a plant together.  It
advances the plant in chunks of held inputs and steps the bus only at
the due time of a frame; an inputs() that returns None ends the run at
that chunk boundary.  run_scenario calls it once per control period.
The injection rigs run a receiver that obeys the last throttle command
seen on the wire, against either live broadcasts plus a shadow/tap
override or a recorded trace; rig_loop drives that rig through
run_until, and the replay oracle in recordings shares it; both replays
put only the rows the receiver reads on the bus.  The injection rigs
run the whole window; the oracle passes rig_loop a reach_mph, so its
replay ends once the rig's top speed reaches it.  The press and
correlation captures in recordings run their pedal phases through
run_until too.

write_state_csv formats state.csv in process, chunk by chunk; it is what
library callers and the tests use.  evsim simulate moves that float repr
off the run's critical path: a StateFormatter forks one child before the
run, run_scenario hands it each chunk of rows as it completes, the child
formats them with write_state_csv's own chunk code on another core, and
emit_logs copies the finished text into state.csv.  The bytes are the
same either way.
"""

from __future__ import annotations

import json
import marshal
import math
import numbers
import os
import shutil
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from . import canbus
from . import follower as fl
from . import injection as inj
from . import lowlevel as ll
from . import serial_link
from .plant import MPH_TO_MPS, MPS_TO_MPH, SimulatedEcus, VehiclePlant


class ConfigError(ValueError):
    """Scenario description is inconsistent or incomplete."""


#: Longest run of simulated time (one day) a scenario, a live injection or a
#: replayed capture may ask for; longer ones would run for hours or never end.
MAX_RUN_S = 86_400.0


#: Most physics ticks a scenario may ask for: a day at the default 1 ms tick.
#: MAX_RUN_S alone bounds simulated time, not work: a day at a 1 us tick
#: would run for days.
MAX_PHYSICS_TICKS = round(MAX_RUN_S * 1000)


#: Farthest a path file's sample may lie from the origin: past any frame
#: fixed to the Earth (UTM and ECEF coordinates included), and near enough
#: that no path error, nor the sum of a run's errors, overflows a float.
MAX_PATH_RANGE_M = 1e9


def _check_run_s(seconds: float, what: str) -> None:
    if not seconds <= MAX_RUN_S:
        raise ConfigError(f"{what} {seconds:g} s is too long: the limit is {MAX_RUN_S:g} s")


def _finite(value, name: str) -> None:
    """Reject anything but a finite real number (bools and ints too big for a float included)."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value))
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _to_us(seconds: float, name: str) -> int:
    us = seconds * 1e6
    rounded = round(us) if math.isfinite(us) else 0
    if rounded <= 0 or abs(us - rounded) > 1e-3:
        raise ConfigError(f"{name} must be a positive whole number of microseconds, got {seconds}")
    return rounded


@dataclass(frozen=True)
class OvalSpec:
    straight_m: float = 100.0
    radius_m: float = 20.0
    speed_mph: float = 20.0


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one closed-loop run."""

    name: str
    duration_s: float
    physics_dt_s: float = 0.001
    control_period_s: float = 0.01
    follower_period_s: float = 0.1
    oval: OvalSpec | None = None
    path_file: str | None = None
    speed_ref_mph: float | None = None
    heading_mode: str = "relative"
    q: float = 1.0
    r: float = 1.0
    k_heading: float = fl.K_HEADING
    preview_s: float = fl.PREVIEW_S

    def validate(self) -> None:
        # the name is the log directory under out/, so it must stay one plain component
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or any(c in self.name for c in "/\\\0")):
            raise ConfigError("name must be one plain directory name: a non-empty string "
                              f"with no '/', '\\' or NUL, not '.' or '..'; got {self.name!r}")
        for name in ("duration_s", "physics_dt_s", "control_period_s", "follower_period_s",
                     "k_heading", "preview_s"):
            _finite(getattr(self, name), name)
        if self.preview_s < 0:
            raise ConfigError(f"preview_s must be non-negative, got {self.preview_s}")
        _check_run_s(self.preview_s, "preview_s")
        if self.speed_ref_mph is not None:
            _finite(self.speed_ref_mph, "speed_ref_mph")
        for name in ("q", "r"):
            weight = getattr(self, name)
            for w in weight if isinstance(weight, (list, tuple)) else (weight,):
                _finite(w, name)
        try:
            fl.lqr_gain(self.q, self.r)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.oval is not None:
            for name, value in asdict(self.oval).items():
                _finite(value, f"oval.{name}")
            if self.oval.straight_m < 0 or self.oval.radius_m <= 0 or self.oval.speed_mph <= 0:
                raise ConfigError("oval needs straight_m >= 0, radius_m > 0 and speed_mph > 0")
            if self.oval.speed_mph > canbus.MAX_SPEED_MPH:
                raise ConfigError(f"oval.speed_mph {self.oval.speed_mph:g} is above the "
                                  f"{canbus.MAX_SPEED_MPH:.1f} mph the speed broadcast carries")
            try:
                fl.oval_lap_s(self.oval.straight_m, self.oval.radius_m,
                              self.oval.speed_mph * MPH_TO_MPS)
            except fl.OvalError as exc:
                raise ConfigError(f"oval: {exc}") from exc
        if self.path_file is not None and not isinstance(self.path_file, str):
            raise ConfigError(f"path_file must be a string, got {self.path_file!r}")
        if self.duration_s <= 0:
            raise ConfigError("duration must be positive")
        _check_run_s(self.duration_s, "duration")
        phys = _to_us(self.physics_dt_s, "physics_dt_s")
        ctl = _to_us(self.control_period_s, "control_period_s")
        hl = _to_us(self.follower_period_s, "follower_period_s")
        ticks = round(self.duration_s * 1e6) // phys
        if ticks > MAX_PHYSICS_TICKS:
            raise ConfigError(f"{ticks} physics ticks of {phys} us are too many: "
                              f"the limit is {MAX_PHYSICS_TICKS}")
        if _control_steps(self.duration_s, ctl) == 0:
            raise ConfigError(
                f"duration {self.duration_s} s is shorter than one control period {ctl} us")
        if ctl % phys:
            raise ConfigError(
                f"control period {ctl} us must be a multiple of the physics tick {phys} us")
        if hl % ctl:
            raise ConfigError(
                f"follower period {hl} us must be a multiple of the control period {ctl} us")
        sources = sum(x is not None for x in (self.oval, self.path_file, self.speed_ref_mph))
        if sources != 1:
            raise ConfigError("exactly one of oval, path_file, speed_ref_mph is required")
        if self.heading_mode not in ("relative", "absolute"):
            raise ConfigError(f"heading_mode must be 'relative' or 'absolute', got {self.heading_mode!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        if not isinstance(raw, dict):
            raise ConfigError(f"a scenario must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        if raw.get("duration_s") is None:
            raise ConfigError("duration_s is required")
        raw = {"name": "scenario", **raw}
        oval = raw.get("oval")
        if oval is not None:
            if not isinstance(oval, dict):
                raise ConfigError(f"oval must be an object, got {oval!r}")
            unknown = set(oval) - set(asdict(OvalSpec()))
            if unknown:
                raise ConfigError(f"unknown oval keys: {sorted(unknown)}")
            raw["oval"] = OvalSpec(**oval)
        scn = cls(**raw)
        scn.validate()
        return scn

    def to_dict(self) -> dict:
        """Every field, the unused reference sources left out."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return Scenario.from_dict(raw)


def save_scenario(scn: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scn.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


LOG_COLUMNS = (
    "t_s", "speed_mph", "steer_counts", "heading_rad", "p_n", "p_e",
    "app_pct", "bpp_pct", "steer_duty_raw", "steer_duty_plant",
    "speed_ref_mph", "counts_ref", "target_n", "target_e",
    "path_err_m", "speed_err_mph",
)


#: One state.csv line: %r writes a float as repr does, which is what csv writes.
_ROW_FORMAT = ",".join(["%r"] * len(LOG_COLUMNS)) + "\r\n"
_STATE_HEADER = ",".join(LOG_COLUMNS) + "\r\n"
#: Rows formatted and written per file write; a chunk holds about 270 kB.
_ROWS_PER_WRITE = 1024


def _state_lines(rows) -> str:
    """The state.csv lines of rows, byte for byte as csv.writer writes them.

    csv writes a float through repr and None as an empty field.  %r writes
    None as "None", which no number's repr contains, so deleting it from
    the formatted lines leaves csv's empty field.
    """
    return "".join([_ROW_FORMAT % row for row in rows]).replace("None", "")


def write_state_csv(fh, rows) -> None:
    """Write the header and rows to the text file fh, byte for byte as csv.writer does.

    Rows go out in chunks, so the whole file is never held as one string.
    """
    fh.write(_STATE_HEADER)
    for i in range(0, len(rows), _ROWS_PER_WRITE):
        fh.write(_state_lines(rows[i:i + _ROWS_PER_WRITE]))


#: Bytes of the size that leads each marshalled chunk of rows; a size of 0 ends the rows.
_SIZE_BYTES = 8


def _format_rows(rows_fd: int, text_fd: int) -> None:
    """The formatter child's work: format each chunk of rows read from rows_fd,
    then, once the rows have ended, write the whole state.csv text to text_fd."""
    text = [_STATE_HEADER.encode("ascii")]
    with open(rows_fd, "rb") as rows_in:
        while True:
            size = rows_in.read(_SIZE_BYTES)
            if len(size) < _SIZE_BYTES:  # the parent closed the pipe early: the run failed
                raise EOFError("the rows ended without their end frame")
            if not any(size):
                break
            chunk = marshal.loads(rows_in.read(int.from_bytes(size, "little")))
            text.append(_state_lines(chunk).encode("ascii"))
    with open(text_fd, "wb") as text_out:
        text_out.writelines(text)


def _other_cpus() -> set[int]:
    """The CPUs this process may run on besides the one it runs on now; empty off Linux."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (AttributeError, OSError):
        return set()


class StateFormatter:
    """A forked child that formats state.csv while a run goes on (POSIX).

    send() hands the child one chunk of rows as a marshal frame, which
    keeps a float's bits, an int and None exactly; the child formats it
    with write_state_csv's chunk code while the parent runs on.  end()
    ends the rows, and write_to() copies the child's finished text,
    header included, into a binary file in bounded pieces and reaps the
    child.  The child writes nothing before it has read the end of the
    rows, so neither pipe can fill while the other waits; it opens no
    file and always ends through os._exit.  close(), also on leaving a
    with block, ends a child that still runs (its rows end, its text
    loses its reader) and reaps it.

    The child moves off the CPU its parent runs on: a kernel that
    balances no load between CPUs, as under a cpuset with
    sched_load_balance off, would keep it there, and the two would take
    turns instead of running side by side.
    """

    def __init__(self):
        others = _other_cpus()
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        rows_in, rows_out, text_in, text_out = fds
        if self.pid == 0:
            status = 1
            try:
                os.close(rows_out)
                os.close(text_in)
                if others:
                    os.sched_setaffinity(0, others)
                _format_rows(rows_in, text_out)
                status = 0
            finally:
                os._exit(status)
        os.close(rows_in)
        os.close(text_out)
        self._rows = open(rows_out, "wb")
        self._text = open(text_in, "rb")

    def send(self, rows) -> None:
        data = marshal.dumps(rows)
        self._rows.write(len(data).to_bytes(_SIZE_BYTES, "little"))
        self._rows.write(data)
        self._rows.flush()

    def end(self) -> None:
        """Tell the child that every row has been sent."""
        self._rows.write(bytes(_SIZE_BYTES))
        self._rows.close()

    def write_to(self, fh) -> None:
        """Copy the child's state.csv text into the binary file fh and reap the child.

        Call end() first.  A child that failed may have cut its text short.
        """
        shutil.copyfileobj(self._text, fh)
        status = self._reap()
        if status:
            raise ChildProcessError(f"the state.csv formatter exited with status {status}")

    def _reap(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        return os.waitstatus_to_exitcode(status)

    def close(self) -> None:
        try:
            self._text.close()
            self._rows.close()  # flushes what a failed send left, which may fail again
        finally:
            if self.pid:
                self._reap()

    def __enter__(self) -> "StateFormatter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class ScenarioResult:
    scenario: Scenario
    rows: list[tuple]
    trace: canbus.CanTrace
    metrics: dict
    path: fl.TargetPath | None = None


def _control_steps(duration_s: float, ctl_us: int) -> int:
    """Whole control periods in a run of duration_s seconds."""
    return round(duration_s * 1e6) // ctl_us


def _build_path(scn: Scenario) -> fl.TargetPath | None:
    if scn.oval is not None:
        return fl.make_oval(scn.oval.straight_m, scn.oval.radius_m,
                            scn.oval.speed_mph * MPH_TO_MPS)
    if scn.path_file is not None:
        try:
            path = fl.load_path(scn.path_file)
        except ValueError as exc:  # malformed table, NonMonotoneTimeError included
            raise ConfigError(f"path_file {scn.path_file}: {exc}") from exc
        for sample in path.samples:
            if math.hypot(sample.v_n, sample.v_e) * MPS_TO_MPH > canbus.MAX_SPEED_MPH:
                raise ConfigError(
                    f"path_file {scn.path_file}: the speed at t = {sample.t_s:g} s is above "
                    f"the {canbus.MAX_SPEED_MPH:.1f} mph the speed broadcast carries")
            if not math.hypot(sample.p_n, sample.p_e) <= MAX_PATH_RANGE_M:
                raise ConfigError(
                    f"path_file {scn.path_file}: the position at t = {sample.t_s:g} s is more "
                    f"than {MAX_PATH_RANGE_M:g} m from the origin")
        return path
    return None


def run_until(bus: canbus.CanBus, plant: VehiclePlant, inputs, t_us: int, end_us: int,
              phys_us: int, dt: float) -> int:
    """Run the bus and the plant from t_us to end_us; returns the physics ticks run.

    Frames due at or before t_us are delivered first.  Then the plant
    advances, with the inputs() read just before each advance, to the
    physics boundary at or after the next due frame, where the bus
    delivers it.  The bus steps at each due time, so every frame is
    delivered at its own timestamp, between ticks too, and a listener
    may queue a frame for any later microsecond; the plant moves only
    on ticks.  Nothing is delivered at end_us itself: a frame due there
    is left to the next call or to a final bus.step.  t_us and end_us
    lie on the physics grid.  An inputs() that returns None ends the run
    there, before that chunk: the frames due by then are delivered and
    the plant stays where it is.
    """
    ticks = 0
    while t_us < end_us:
        due = bus.next_due_us()
        if due is not None and due <= t_us:
            bus.step(due)
            continue
        held = inputs()
        if held is None:
            break
        boundary = end_us if due is None else min(end_us, -(-due // phys_us) * phys_us)
        n = (boundary - t_us) // phys_us
        plant.advance(*held, n, dt)
        ticks += n
        t_us = boundary
    return ticks


def run_scenario(scn: Scenario, on_chunk=None) -> ScenarioResult:
    """Run scn closed loop; on_chunk, if given, gets each _ROWS_PER_WRITE rows
    as they complete and then the shorter last chunk, if there is one."""
    scn.validate()
    phys_us = _to_us(scn.physics_dt_s, "physics_dt_s")
    ctl_us = _to_us(scn.control_period_s, "control_period_s")
    hl_us = _to_us(scn.follower_period_s, "follower_period_s")
    n_ctl = _control_steps(scn.duration_s, ctl_us)
    dt = scn.physics_dt_s

    plant = VehiclePlant()
    bus = canbus.CanBus()
    ecus = SimulatedEcus(plant)
    ecus.attach(bus)

    lon = ll.LongitudinalController()
    lat = ll.LateralController()
    decoder = serial_link.StreamDecoder()

    path = _build_path(scn)
    pilot = None
    if path is not None:
        gains = fl.FollowerGains.from_weights(scn.q, scn.r, scn.k_heading, scn.preview_s)
        pilot = fl.PathFollower(path, gains, scn.heading_mode,
                                counts_limits=lat.achievable_counts())

    rows: list[tuple] = []
    speed_ref = scn.speed_ref_mph or 0.0
    counts_ref = 0.0
    serial_roundtrips = 0
    follower_steps = 0
    physics_ticks = 0
    # path error totals, each a plain += from the int 0 in row order as rows complete:
    # the same floats on every Python, where sum() is compensated from 3.12 on
    period = path.period_s if path is not None else None
    laps: dict[int, list] = {}  # lap index -> [samples, error sum, max error]
    err_sum = 0

    for c in range(n_ctl):
        start_us = c * ctl_us
        if pilot is not None and start_us % hl_us == 0:
            cmd = pilot.step(start_us / 1e6, plant.state.p_n, plant.state.p_e,
                             plant.state.heading_rad)
            speed_ref, counts_ref = cmd.speed_mph, cmd.steer_counts
            follower_steps += 1

        app_pct, bpp_pct = lon.step(speed_ref, plant.state.speed_mph, scn.control_period_s)
        duty_raw = lat.step(counts_ref, plant.state.steer_counts, scn.control_period_s)

        # the command hop to the actuation board and back
        wire = serial_link.encode_packet(app_pct / 100.0, bpp_pct / 100.0, duty_raw / 100.0)
        packets = decoder.feed(wire)
        if len(packets) != 1:
            raise RuntimeError("serial link dropped a command frame")
        pkt = packets[0]
        serial_roundtrips += 1
        app_rx, bpp_rx = pkt.app * 100.0, pkt.bpp * 100.0
        duty_plant = ll.deadband_compensate(pkt.steer * 100.0)

        end_us = start_us + ctl_us
        physics_ticks += run_until(bus, plant, lambda: (app_rx, bpp_rx, duty_plant),
                                   start_us, end_us, phys_us, dt)

        t_s = end_us / 1e6
        st = plant.state
        if path is not None:
            tgt_n, tgt_e = path.position_at(t_s, held=False)
            path_err = math.hypot(st.p_n - tgt_n, st.p_e - tgt_e)
            err_sum += path_err
            lap = int(t_s / period)
            totals = laps.get(lap)
            if totals is None:
                totals = laps[lap] = [0, 0, path_err]
            totals[0] += 1
            totals[1] += path_err
            if path_err > totals[2]:
                totals[2] = path_err
        else:
            tgt_n = tgt_e = path_err = None
        row = (t_s, st.speed_mph, st.steer_counts, st.heading_rad, st.p_n,
               st.p_e, app_pct, bpp_pct, duty_raw, duty_plant, speed_ref,
               counts_ref, tgt_n, tgt_e, path_err,
               speed_ref - st.speed_mph)
        rows.append(row)
        if on_chunk is not None and len(rows) % _ROWS_PER_WRITE == 0:
            on_chunk(rows[-_ROWS_PER_WRITE:])
    if on_chunk is not None and len(rows) % _ROWS_PER_WRITE:
        on_chunk(rows[-(len(rows) % _ROWS_PER_WRITE):])
    bus.step(n_ctl * ctl_us)  # frames due at the last boundary

    trace = bus.trace()
    metrics: dict = {
        "name": scn.name,
        "duration_s": scn.duration_s,
        "physics_ticks": physics_ticks,
        "control_steps": n_ctl,
        "follower_steps": follower_steps,
        "serial_roundtrips": serial_roundtrips,
        "frames_on_bus": len(trace),
        "final_speed_mph": row[1],
        "final_p_n": row[4],
        "final_p_e": row[5],
    }
    if path is not None:
        metrics["lap_period_s"] = period
        metrics["laps_completed"] = int(row[0] / period)
        metrics["lap_errors"] = {
            str(lap + 1): {"samples": n, "mean_err_m": total / n, "max_err_m": top}
            for lap, (n, total, top) in laps.items()}
        metrics["mean_err_m"] = err_sum / n_ctl
        metrics["max_err_m"] = max(top for _, _, top in laps.values())
    return ScenarioResult(scn, rows, trace, metrics, path)


def emit_logs(result: ScenarioResult, outdir,
              formatter: StateFormatter | None = None) -> dict[str, Path]:
    """Write state.csv, trace.txt, and metrics.json; returns the paths.

    Floats are written through repr, so reruns of a deterministic
    scenario produce byte-identical files.  state.csv is formatted here,
    or copied from formatter, which was sent every row of the run.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "state": outdir / "state.csv",
        "trace": outdir / "trace.txt",
        "metrics": outdir / "metrics.json",
    }
    if formatter is not None:  # the child formats its last rows while these logs are written
        formatter.end()
    canbus.save_trace(result.trace, paths["trace"])
    with open(paths["metrics"], "w", encoding="ascii") as fh:
        json.dump(result.metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if formatter is None:
        with open(paths["state"], "w", newline="", encoding="ascii") as fh:
            write_state_csv(fh, result.rows)
    else:
        with open(paths["state"], "wb") as fh:
            formatter.write_to(fh)
    return paths


# --- injection rigs ---------------------------------------------------------------

def ramp_bytes(start: int, end: int, step: int):
    """Byte value advancing by step per call, clamped at end (inclusive)."""
    if not (0 <= start <= 255 and 0 <= end <= 255):
        raise ValueError("ramp endpoints must fit one byte")
    if step == 0:
        raise ValueError("ramp step must be nonzero")
    if (end - start) * step < 0:
        raise ValueError("ramp step points away from its end value")
    counter = {"n": 0}

    def value_fn(now_us: int) -> int:
        value = start + step * counter["n"]
        counter["n"] += 1
        if step > 0:
            return min(value, end)
        return max(value, end)

    return value_fn


@dataclass
class InjectionResult:
    trace: canbus.CanTrace
    dominance: Fraction | None
    injected: int
    deliveries: list[tuple[int, str, float]]
    speed_series: list[tuple[int, float]] = field(default_factory=list)
    final_speed_mph: float = 0.0

    def metrics(self) -> dict:
        out = {
            "injected_frames": self.injected,
            "frames_on_bus": len(self.trace),
            "final_speed_mph": self.final_speed_mph,
        }
        if self.dominance is not None:
            out["dominance"] = {
                "exact": f"{self.dominance.numerator}/{self.dominance.denominator}",
                "value": float(self.dominance),
            }
        if self.speed_series:
            out["speed_first_mph"] = self.speed_series[0][1]
            out["speed_last_mph"] = self.speed_series[-1][1]
        return out


def rig_loop(bus: canbus.CanBus, rig: VehiclePlant, rx: inj.ThrottleReceiver,
             n_ms: int, reach_mph: float = math.inf) -> float:
    """Run the bus and a rig that obeys rx's throttle for n_ms 1 ms ticks.

    The rig runs one tick behind the bus: the frames due up to k ms
    set the throttle of the tick that follows, and no frame due after
    n_ms ms is delivered.  The brake stays released and the steering
    centred, so within a run_until chunk of held throttle the speed
    approaches app_k(throttle) monotonically and its peak lies at a
    chunk end.  Returns the top rig speed in mph over every tick run.

    The run ends early, at the first chunk end where the top speed has
    reached reach_mph: from there a running maximum stays at or above
    it, so a caller that only asks whether the rig reached reach_mph
    gets the answer of the whole window.  The default never ends a run
    early.
    """
    top_speed = 0.0

    def inputs():  # read at each chunk start, which is the previous chunk's end
        nonlocal top_speed
        top_speed = max(top_speed, rig.state.speed_mph)
        if top_speed >= reach_mph:
            return None
        return rx.app_pct, 0.0, 50.0

    run_until(bus, rig, inputs, 1000, (n_ms + 1) * 1000, 1000, 0.001)
    return max(top_speed, rig.state.speed_mph)


#: Rig time run past the last replayed frame, so a late press still shows.
REPLAY_SETTLE_S = 1.0


def replay_ms(trace: canbus.CanTrace) -> int:
    """Rig ticks that cover a replayed trace plus REPLAY_SETTLE_S after its last frame."""
    last_us = trace.last_us() if len(trace) else 0
    if last_us > MAX_RUN_S * 1e6:  # integer timestamps of any size compare exactly
        raise ConfigError(f"capture runs to {last_us} us, past the limit of {MAX_RUN_S:g} s")
    return last_us // 1000 + round(REPLAY_SETTLE_S * 1000.0)


def _injection_rig(mode: str, target_id: int, byte_index: int, value_fn):
    """Fresh rig plant, bus, throttle receiver and override rule for an injection run."""
    if mode not in ("shadow", "tap"):
        raise ValueError(f"mode must be 'shadow' or 'tap', got {mode!r}")
    bus = canbus.CanBus()
    rx = inj.ThrottleReceiver(target_id, byte_index)
    bus.add_listener(rx, ids=(target_id,))
    return VehiclePlant(), bus, rx, inj.FilterRule(target_id, byte_index, value_fn)


def _run_injection(bus: canbus.CanBus, rig: VehiclePlant, rx: inj.ThrottleReceiver,
                   injector: inj.ShadowInjector | None, n_ms: int) -> InjectionResult:
    """Run the rig loop, then measure dominance over the genuine deliveries."""
    rig_loop(bus, rig, rx, n_ms)
    genuine = [t for t, src, _ in rx.deliveries if src != inj.ShadowInjector.SOURCE]
    dominance = None
    if injector is not None and len(genuine) >= 2:
        dominance = inj.dominance_fraction([(t, s) for t, s, _ in rx.deliveries],
                                           genuine[0], genuine[-1])
    return InjectionResult(bus.trace(), dominance, injector.injected if injector else 0,
                           list(rx.deliveries), [], rig.state.speed_mph)


def run_live_injection(duration_s: float, value_fn, target_id: int = canbus.THROTTLE_ID,
                       byte_index: int = canbus.THROTTLE_BYTE_INDEX,
                       mode: str = "shadow", delay_us: int = 250,
                       schedule: dict[int, int] | None = None) -> InjectionResult:
    """Live broadcasts with an override riding on the throttle command id.

    The rig plant obeys the last 0x11A byte it saw, the driver pedal
    stays released, and the stock modules keep broadcasting, so the
    rig's own speed frames show the override taking physical effect.
    schedule overrides the broadcast periods (microseconds per id).  A
    target_id that no scheduled stock broadcast carries, or a run shorter
    than one 1 ms rig tick, is a ConfigError.
    """
    _check_run_s(duration_s, "duration")
    n_ms = round(duration_s * 1000.0)
    if n_ms == 0:
        raise ConfigError(f"duration {duration_s:g} s is shorter than one 1 ms rig tick")
    scheduled = canbus.DEFAULT_SCHEDULE if schedule is None else schedule
    if target_id not in scheduled or target_id not in canbus.DEFAULT_SCHEDULE:
        raise ConfigError(f"target id 0x{target_id:X} is not a scheduled stock broadcast id")
    rig, bus, rx, rule = _injection_rig(mode, target_id, byte_index, value_fn)
    ecus = SimulatedEcus(rig, pedal_fn=lambda: (0.0, 0.0), schedule=schedule)
    injector = None
    if mode == "shadow":
        injector = inj.ShadowInjector(bus, rule, delay_us=delay_us,
                                      period_us=ecus.schedule.get(target_id))
    else:  # the tap sits between the target id's module and the wire
        ecus.payload_fns[target_id] = rule.tap(ecus.payload_fns[target_id])
    ecus.attach(bus)

    result = _run_injection(bus, rig, rx, injector, n_ms)
    result.speed_series = [(f.timestamp_us, canbus.decode_speed(f))
                           for f in result.trace if f.arbitration_id == canbus.SPEED_ID]
    return result


def run_replay_injection(trace: canbus.CanTrace, value_fn,
                         target_id: int = canbus.THROTTLE_ID,
                         byte_index: int = canbus.THROTTLE_BYTE_INDEX,
                         mode: str = "shadow", delay_us: int = 250) -> InjectionResult:
    """Replay a recording into the rig with the override applied.

    Shadow mode forges delayed copies of the replayed target frames; tap
    mode rewrites them up front, as if the tap had been in place when
    the recording was made.  A target frame too short for byte_index
    raises ShortFrameError before the run, in both modes.  Only the target
    rows, the ones the receiver and the injector read, go on the bus; the
    rest merge back into its trace in the order it would deliver them.
    """
    rig, bus, rx, rule = _injection_rig(mode, target_id, byte_index, value_fn)
    n_ms = replay_ms(trace)
    timestamps, ids, dlc, _ = trace.columns()
    target = ids == target_id
    short = target & (dlc <= byte_index)
    if short.any():
        row = short.argmax()
        raise canbus.ShortFrameError(
            f"0x{target_id:X} frame at {timestamps[row]} us has {dlc[row]} data bytes, "
            f"too short for byte {byte_index + 1}")
    replayed = trace.select(target)
    injector = None
    if mode == "shadow":
        deltas = canbus.np.sort(canbus.np.diff(timestamps[target]))
        period = int(deltas[len(deltas) // 2]) if len(deltas) else None
        injector = inj.ShadowInjector(bus, rule, delay_us=delay_us, period_us=period)
        bus.feed_replay(replayed)
    else:
        bus.feed_replay(map(rule.apply, replayed))

    result = _run_injection(bus, rig, rx, injector, n_ms)
    result.trace = canbus._merged(result.trace, trace.select(~target))
    return result
