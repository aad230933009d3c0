"""CAN frame model, trace text format, speed codec, and the bus scheduler.

Arbitration IDs are 11-bit; payloads are at most 8 bytes.  Timestamps are
integer microseconds since scenario start.  Byte positions are stored
0-indexed internally; user-facing text (CLI, reports) counts bytes 1-8 the
way the vehicle documentation does, and every seam that converts says so.

The road-speed broadcast (default ID 0x75) carries speed in bytes 7 and 8
of the 1-indexed convention, i.e. ``data[6]`` high / ``data[7]`` low:

    speed_mph = ((data[6] << 8) + data[7] - 45268) / 54

so 0 mph sits at 0xB0D4 and each count is 1/54 mph.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

SPEED_ID = 0x75
SPEED_OFFSET = 45268
SPEED_COUNTS_PER_MPH = 54

THROTTLE_ID = 0x11A
APP_ID = 0x204
BPP_ID = 0x7D
STEERING_ID = 0x10

# Throttle command scaling on 0x11A byte 4 (1-indexed): percent * 2.55 -> 0..255.
THROTTLE_BYTE_INDEX = 3  # 0-indexed position of "byte 4"
PCT_TO_BYTE = 2.55


class WrongIdError(ValueError):
    """Frame has a different arbitration ID than the codec expects."""


class ShortFrameError(ValueError):
    """Frame payload is too short for the field being decoded."""


class OutOfRangeError(ValueError):
    """Value outside the range its field or input accepts (plant and lowlevel raise it too)."""


class TraceParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class CanFrame:
    """One classical CAN data frame as seen on the wire.

    ``dlc`` is ``len(data)``.  The constructor takes any bytes-like data,
    checks the fields (timestamp >= 0, 11-bit id, at most 8 data bytes)
    and raises ValueError; code that already holds valid fields builds
    frames with ``_frame`` instead.  Frames are values, equal and hashed
    by their three fields.  Nothing assigns to a frame once it is built;
    the class does not block it, because a guard would slow every build.
    """

    __slots__ = ("timestamp_us", "arbitration_id", "data")

    def __init__(self, timestamp_us: int, arbitration_id: int, data: bytes):
        if timestamp_us < 0:
            raise ValueError(f"negative timestamp {timestamp_us}")
        if not 0 <= arbitration_id <= 0x7FF:
            raise ValueError(f"arbitration id 0x{arbitration_id:X} outside 11-bit range")
        if not isinstance(data, bytes):
            data = bytes(data)
        if len(data) > 8:
            raise ValueError(f"dlc {len(data)} outside 0..8")
        self.timestamp_us = timestamp_us
        self.arbitration_id = arbitration_id
        self.data = data

    @property
    def dlc(self) -> int:
        return len(self.data)

    def _key(self) -> tuple[int, int, bytes]:
        return (self.timestamp_us, self.arbitration_id, self.data)

    def __eq__(self, other):
        if other.__class__ is not CanFrame:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"CanFrame(timestamp_us={self.timestamp_us!r}, "
                f"arbitration_id={self.arbitration_id!r}, data={self.data!r})")


def _frame(timestamp_us: int, arbitration_id: int, data: bytes) -> CanFrame:
    """Unchecked CanFrame for producers whose fields are valid by construction."""
    frame = object.__new__(CanFrame)
    frame.timestamp_us = timestamp_us
    frame.arbitration_id = arbitration_id
    frame.data = data
    return frame


#: Default broadcast periods. The throttle command is slower than the
#: status broadcasts; all of it is scenario-configurable.
DEFAULT_SCHEDULE = {
    SPEED_ID: 10_000,
    STEERING_ID: 10_000,
    APP_ID: 10_000,
    BPP_ID: 10_000,
    THROTTLE_ID: 100_000,
}


@dataclass
class CanTrace:
    """A time-ordered list of frames.

    The constructor checks the order and raises ValueError; code that
    builds its list in order already (the parser, the bus, id selection)
    uses ``_ordered_trace`` instead.
    """

    frames: list[CanFrame] = field(default_factory=list)

    def __post_init__(self):
        last = -1
        for f in self.frames:
            if f.timestamp_us < last:
                raise ValueError("trace timestamps must be non-decreasing")
            last = f.timestamp_us

    def __len__(self):
        return len(self.frames)

    def __iter__(self) -> Iterator[CanFrame]:
        return iter(self.frames)

    def ids(self) -> list[int]:
        """Distinct arbitration ids in first-seen order."""
        seen: dict[int, None] = {}
        for f in self.frames:
            seen.setdefault(f.arbitration_id, None)
        return list(seen)


# --- speed codec -----------------------------------------------------------

def decode_speed_raw(raw: int) -> float:
    """Road speed in mph from the 16-bit field value."""
    return (raw - SPEED_OFFSET) / SPEED_COUNTS_PER_MPH


def decode_speed(frame: CanFrame, arb_id: int = SPEED_ID) -> float:
    """Road speed in mph from a speed broadcast frame.

    arb_id overrides the expected id for recordings whose speed
    broadcast lives elsewhere; the field layout is unchanged.
    """
    if frame.arbitration_id != arb_id:
        raise WrongIdError(f"expected 0x{arb_id:X}, got 0x{frame.arbitration_id:X}")
    if frame.dlc < 8:
        raise ShortFrameError(f"speed frame needs 8 bytes, got {frame.dlc}")
    return decode_speed_raw((frame.data[6] << 8) + frame.data[7])


def speed_data(speed_mph: float) -> bytes:
    """The 8 data bytes of a speed broadcast; bytes other than 7/8 are zero."""
    raw = round(SPEED_OFFSET + SPEED_COUNTS_PER_MPH * speed_mph)
    if not 0 <= raw <= 0xFFFF:
        raise OutOfRangeError(f"speed {speed_mph} mph does not fit the 16-bit field")
    return bytes((0, 0, 0, 0, 0, 0, raw >> 8, raw & 0xFF))


def encode_speed(speed_mph: float, timestamp_us: int = 0) -> CanFrame:
    """Build a full speed broadcast frame."""
    return _frame(timestamp_us, SPEED_ID, speed_data(speed_mph))


# --- trace text format ------------------------------------------------------

def serialize_trace(trace: CanTrace) -> str:
    """Candump-like text: ``<timestamp_us> <ID hex> <dlc> <bytes...>`` per line.

    IDs are uppercase hex without prefix, the dlc is the number of data
    bytes, and each data byte is two uppercase hex digits.  A frame with
    no data ends its line after the dlc.
    """
    lines = [f"{f.timestamp_us} {f.arbitration_id:X} {len(f.data)} {f.data.hex(' ').upper()}"
             if f.data else f"{f.timestamp_us} {f.arbitration_id:X} 0"
             for f in trace]
    return "\n".join(lines) + ("\n" if lines else "")


def _ordered_trace(frames: list[CanFrame]) -> CanTrace:
    """CanTrace over frames the caller built in time order; the order is not re-checked."""
    trace = object.__new__(CanTrace)
    trace.frames = frames
    return trace


def _data_bytes(line_no: int, tokens: list[str]) -> bytes:
    """The data bytes of a trace line; each token is one byte in int(tok, 16) syntax.

    int(tok, 16) also takes "F", "0x1F", "+F" and "1_0"; a value above 0xFF
    or a token it rejects is a bad data byte.
    """
    try:
        return bytes(int(tok, 16) for tok in tokens[3:])
    except ValueError:
        raise TraceParseError(line_no, "bad data byte") from None


def parse_trace(text: str | bytes) -> CanTrace:
    """Parse the text trace format; blank lines and '#' comments are skipped.

    Each line is ``<timestamp> <id> <dlc> <bytes...>``: a decimal
    timestamp, a hex id, a decimal dlc equal to the number of byte
    tokens, and one hex token per byte.  Raises TraceParseError with the
    1-indexed line number on malformed input, including timestamps that
    go backwards, a negative timestamp, an id beyond 11 bits and more
    than 8 bytes.  Each frame is built once, unchecked, after the line
    passed these checks.

    A line in the form serialize_trace writes (single spaces, two hex
    digits per byte) is read with one split and one bytes.fromhex call;
    any other line is split on whitespace and read token by token.  Both
    branches give the same frames and the same errors.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    frames: list[CanFrame] = []
    append = frames.append
    new = object.__new__
    fromhex = bytes.fromhex
    last_t = -1
    for line_no, line in enumerate(text.splitlines(), start=1):
        parts = line.split(" ", 3)
        try:
            t = int(parts[0])
            arb_id = int(parts[1], 16)
            dlc = int(parts[2])
            rest = parts[3] if len(parts) == 4 else ""
            data = fromhex(rest)
            # fromhex also reads "AABB", " AA BB" and "AA BB ": only the
            # written spelling, one space between byte pairs, stays here
            canonical = len(data) == dlc and rest[2::3] == " " * (dlc - 1)
        except (ValueError, IndexError):
            canonical = False
        if not canonical:
            tokens = line.split()
            if not tokens or tokens[0][0] == "#":
                continue
            if len(tokens) < 3:
                raise TraceParseError(line_no, "expected '<timestamp> <id> <dlc> <bytes...>'")
            try:
                t = int(tokens[0])
            except ValueError:
                raise TraceParseError(line_no, f"bad timestamp {tokens[0]!r}") from None
            try:
                arb_id = int(tokens[1], 16)
            except ValueError:
                raise TraceParseError(line_no, f"bad arbitration id {tokens[1]!r}") from None
            try:
                dlc = int(tokens[2])
            except ValueError:
                raise TraceParseError(line_no, f"bad dlc {tokens[2]!r}") from None
            if len(tokens) - 3 != dlc:
                raise TraceParseError(line_no, f"dlc {dlc} but {len(tokens) - 3} data bytes")
            data = _data_bytes(line_no, tokens)
        if t != last_t:
            if t < last_t:
                raise TraceParseError(line_no, f"timestamp {t} goes backwards")
            # frames of one timestamp share its int object, 32 of the 144
            # bytes an 8-byte frame holds
            last_t = t
        if t < 0:
            raise TraceParseError(line_no, f"negative timestamp {t}")
        if not 0 <= arb_id <= 0x7FF:
            raise TraceParseError(line_no, f"arbitration id 0x{arb_id:X} outside 11-bit range")
        if dlc > 8:
            raise TraceParseError(line_no, f"dlc {dlc} outside 0..8")
        frame = new(CanFrame)
        frame.timestamp_us = last_t
        frame.arbitration_id = arb_id
        frame.data = data
        append(frame)
    return _ordered_trace(frames)


def load_trace(path) -> CanTrace:
    with open(path, "r", encoding="ascii") as fh:
        return parse_trace(fh.read())


def save_trace(trace: CanTrace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_trace(trace))


# --- bus scheduler -----------------------------------------------------------

PayloadFn = Callable[[int], bytes]
Listener = Callable[[CanFrame, str], None]


class _Periodic:
    """One periodic source: emit payload(due) on arb_id at next_due, then every period."""

    __slots__ = ("arb_id", "period", "payload", "source", "next_due")

    def __init__(self, arb_id: int, period: int, payload: PayloadFn, source: str,
                 next_due: int):
        self.arb_id = arb_id
        self.period = period
        self.payload = payload
        self.source = source
        self.next_due = next_due


class CanBus:
    """Single-threaded bus scheduler with deterministic arbitration.

    Periodic sources emit at k*period for k >= 1; one added after the bus
    stepped to t starts at the first multiple after t (and after every
    frame already delivered).  Frames that fall due in
    the window covered by one ``step`` call are delivered sorted by
    (timestamp, arbitration id, enqueue sequence): lower IDs win
    simultaneous arbitration, and an injected frame scheduled at the same
    microsecond as an observed one lands after it because its sequence
    number is larger.  Tap rules rewrite periodic-source frames between
    the producing module and the wire; injected and replayed frames enter
    at the connector and are not tapped.

    Injected frames wait in one list kept in that order.  A replayed
    capture is already in time order, so each of its frames is appended
    at the tail; ``step`` takes the due ones as one slice from the head.
    """

    def __init__(self):
        # called in insertion order: payload functions may share a seeded
        # RNG, so the order of the calls shows in the frames
        self._periodic: list[_Periodic] = []
        self._periodic_due: int | None = None  # earliest next_due of the sources
        self._taps: list = []  # injection.FilterRule: .apply(frame) -> frame
        self._listeners: list[Listener] = []
        # entries (due, arb_id, origin, seq, frame, source), sorted; origin 1
        # ranks injected frames after periodic ones on a timestamp+id tie, and
        # seq is unique, so no comparison reaches the frame.  The rest of a
        # batch a listener broke off comes back with its id less 0x800, ahead
        # of the frames injected during that step.  Entries before _head are
        # delivered; step drops them once they are half the list.
        self._pending: list[tuple[int, int, int, int, CanFrame, str]] = []
        self._head = 0
        self._seq = 0
        self._now = 0
        # due time of the latest frame delivered or in delivery; every frame
        # carries its due time, so the trace is in time order
        self._last_us = -1
        self._trace: list[CanFrame] = []

    # -- wiring --------------------------------------------------------------

    def add_periodic(self, arb_id: int, period_us: int, payload_fn: PayloadFn,
                     source: str = "ecu") -> None:
        """Emit payload_fn(due) on arb_id every period_us; the payload holds at most 8 bytes."""
        if not 0 <= arb_id <= 0x7FF:
            raise ValueError(f"arbitration id 0x{arb_id:X} outside 11-bit range")
        if period_us <= 0:
            raise ValueError("period must be positive")
        # after the latest frame delivered too, which a step that a listener
        # broke off leaves past the bus time
        first_due = (max(self._now, self._last_us) // period_us + 1) * period_us
        self._periodic.append(_Periodic(arb_id, period_us, payload_fn, source, first_due))
        if self._periodic_due is None or first_due < self._periodic_due:
            self._periodic_due = first_due

    def add_tap(self, rule) -> None:
        """Pass each periodic frame through rule.apply, which keeps its timestamp."""
        self._taps.append(rule)

    def add_listener(self, fn: Listener) -> None:
        self._listeners.append(fn)

    def inject_at(self, due_us: int, frame: CanFrame, source: str = "inject") -> None:
        """Queue a frame stamped due_us for delivery once the bus reaches due_us.

        Raises ValueError for a due time earlier than a frame already
        delivered, or in delivery by the current ``step``: the frame would
        reach the wire after that later one and break the trace order.
        """
        if frame.timestamp_us != due_us:
            raise ValueError(f"frame stamped {frame.timestamp_us} us queued for {due_us} us")
        if due_us < self._last_us:
            raise ValueError(
                f"frame due at {due_us} us would follow one stamped {self._last_us} us")
        item = (due_us, frame.arbitration_id, 1, self._seq, frame, source)
        self._seq += 1
        pending = self._pending
        if not pending or pending[-1] < item:
            pending.append(item)
        else:
            bisect.insort(pending, item, lo=self._head)

    def feed_replay(self, frames: Iterable[CanFrame]) -> None:
        """Queue recorded frames at their own timestamps, tagged "replay"."""
        for f in frames:
            self.inject_at(f.timestamp_us, f, "replay")

    # -- time ------------------------------------------------------------------

    def next_due_us(self) -> int | None:
        """Earliest pending emission time, or None when nothing is scheduled."""
        due = self._periodic_due
        if self._head < len(self._pending):
            injected = self._pending[self._head][0]
            if due is None or injected < due:
                return injected
        return due

    def step(self, now_us: int) -> list[CanFrame]:
        """Deliver every frame due in (previous now, now_us].

        When a listener raises, the error propagates after the frame it was
        handed is in the trace; the frames due after that one stay queued,
        and the next step delivers them first, ahead of every frame queued
        since at the same time.
        """
        if now_us < self._now:
            raise ValueError("bus time must not go backwards")
        batch: list[tuple[int, int, int, int, CanFrame, str]] = []
        if self._periodic_due is not None and self._periodic_due <= now_us:
            taps = self._taps
            append = batch.append
            earliest = None
            seq = self._seq
            try:
                for src in self._periodic:
                    due = src.next_due
                    if due <= now_us:
                        arb_id, period, payload_fn, source = (src.arb_id, src.period,
                                                              src.payload, src.source)
                        while due <= now_us:
                            payload = payload_fn(due)
                            if payload.__class__ is not bytes:
                                payload = bytes(payload)
                            if len(payload) > 8:
                                raise ValueError(f"dlc {len(payload)} outside 0..8")
                            frame = _frame(due, arb_id, payload)
                            for tap in taps:
                                frame = tap.apply(frame)
                            append((due, frame.arbitration_id, 0, seq, frame, source))
                            seq += 1
                            # kept per frame: a payload that raises leaves the
                            # frames before it emitted and their source advanced
                            due = src.next_due = due + period
                    if earliest is None or due < earliest:
                        earliest = due
            except BaseException:
                # a payload or tap raised: the sources stay advanced up to it
                self._periodic_due = min(src.next_due for src in self._periodic)
                raise
            finally:
                self._seq = seq
            self._periodic_due = earliest
        pending = self._pending
        head = self._head
        if head < len(pending) and pending[head][0] <= now_us:
            end = bisect.bisect_right(pending, (now_us + 1,), head)
            batch += pending[head:end]
            # drop delivered entries: a drained list is cleared, and a
            # delivered prefix is cut once it is more than half the list
            if end == len(pending):
                pending.clear()
                end = 0
            elif end > len(pending) // 2:
                del pending[:end]
                end = 0
            self._head = end
        if not batch:
            self._now = now_us
            return []
        batch.sort()
        self._last_us = batch[-1][0]
        delivered = [item[4] for item in batch]
        listeners = self._listeners
        if listeners:
            trace = self._trace
            trace_append = trace.append
            start = len(trace)
            try:
                for _, _, _, _, frame, source in batch:
                    trace_append(frame)
                    for listener in listeners:
                        listener(frame, source)
            except BaseException:
                # a listener raised: the trace ends at the frame in delivery,
                # and the frames after it go back to the head of the queue in
                # their order, so that the next step delivers them first.
                # Every other pending frame is due at the batch's last due
                # time or later, and the negative id ranks them before one
                # a listener injected at that time.
                traced = len(trace) - start
                self._last_us = batch[traced - 1][0]
                head = self._head
                pending[head:head] = [(due, arb_id - 0x800, origin, seq, frame, source)
                                      for due, arb_id, origin, seq, frame, source
                                      in batch[traced:]]
                raise
        else:
            self._trace += delivered
        self._now = now_us
        return delivered

    def trace(self) -> CanTrace:
        """Every frame delivered so far, in delivery order, which is time order."""
        return _ordered_trace(list(self._trace))
