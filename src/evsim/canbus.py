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

import heapq
import struct
from array import array
from functools import partial
from itertools import repeat
from operator import attrgetter, itemgetter, lt
from typing import Callable, Iterable, Iterator, NamedTuple


class _Numpy:
    """numpy, imported on first use.

    The package's one route to numpy: canbus, revtools and scenario read it
    through the ``np`` instance below, and each attribute is imported
    and cached on first access.  Only reading a capture into columns
    touches it (``parse_trace``'s columnar pass, ``CanTrace.columns``,
    ``ids`` and ``select``, ``select_ids``, ``correlate_bytes`` and the
    replay's row split and merge), so ``simulate``, a live ``inject``,
    ``make-oval``, ``design-gains``, ``packet`` and building the synthetic
    captures never import numpy, which is most of a cold start's import
    time and about 11 MiB of resident memory.
    """

    def __getattr__(self, name):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


SPEED_ID = 0x75
SPEED_OFFSET = 45268
SPEED_COUNTS_PER_MPH = 54
#: Fastest road speed the broadcast carries, at the field's top count 0xFFFF (about 375.3 mph).
MAX_SPEED_MPH = (0xFFFF - SPEED_OFFSET) / SPEED_COUNTS_PER_MPH

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


class BusStoppedError(RuntimeError):
    """The bus stopped when a payload function (a live tap wraps one) or listener raised."""


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


class TraceColumns(NamedTuple):
    """A trace's columns as numpy arrays, with one row per frame."""

    timestamps: np.ndarray  # int64 microseconds
    ids: np.ndarray  # uint16 arbitration ids
    dlc: np.ndarray  # uint8 payload lengths
    data: np.ndarray  # (n, 8) uint8 payloads; the bytes past a row's dlc are zero


#: Zero bytes that pad a payload of each length to 8.
_PAD = [bytes(8 - d) for d in range(9)]


class CanTrace:
    """A time-ordered sequence of frames, held as four columns and nothing else.

    One row per frame: int64 timestamps, uint16 ids, uint8 dlc, and 8
    payload bytes, zero past the dlc.  The bus and ``CanTrace(frames)``
    hold ``array``s, the payloads flat; the columnar pass of parse_trace,
    ``select`` and ``_merged`` numpy arrays, the payloads (n, 8).
    ``CanTrace(frames)`` raises ValueError out of time order and
    OutOfRangeError past int64.  ``frames``, iteration and ``==`` build
    new frames on each use; ``len``, ``last_us`` and serialize_trace
    build none.  Only ``columns()`` and what uses it import numpy.
    """

    __slots__ = ("_columns",)

    def __init__(self, frames: Iterable[CanFrame] = ()):
        self._columns = _columns_of(list(frames))

    @property
    def frames(self) -> list[CanFrame]:
        """The frames in time order, built from the columns."""
        return _frames_of(self._columns)

    def columns(self) -> TraceColumns:
        """The columns as numpy arrays; numpy-held ones come back as they are held."""
        timestamps, ids, dlc, data = self._columns
        return TraceColumns(np.asarray(timestamps), np.asarray(ids), np.asarray(dlc),
                            np.asarray(data).reshape(-1, 8))

    def __len__(self):
        return len(self._columns[0])

    def __iter__(self) -> Iterator[CanFrame]:
        return iter(self.frames)

    def __eq__(self, other):
        if not isinstance(other, CanTrace):
            return NotImplemented
        return self.frames == other.frames

    __hash__ = None

    def __repr__(self):
        return f"CanTrace(frames={self.frames!r})"

    def last_us(self) -> int:
        """Timestamp of the last frame."""
        return int(self._columns[0][-1])

    def ids(self) -> list[int]:
        """Distinct arbitration ids in first-seen order."""
        return _id_groups(self.columns().ids)[1].tolist()

    def select(self, rows) -> CanTrace:
        """The frames at rows (a boolean mask or row indices), in order, as numpy columns."""
        rows = np.asarray(rows)
        idx = np.flatnonzero(rows) if rows.dtype == bool else rows.astype(np.intp, copy=False)
        return _columnar_trace(TraceColumns(*(np.take(c, idx, axis=0) for c in self.columns())))


def _id_groups(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the id column grouped by id, in first-seen order of the ids.

    Returns (order, group_ids, starts, stops): order[starts[k]:stops[k]]
    are the rows of id group_ids[k], in time order.  The sort is stable,
    and numpy sorts a uint16 column by radix.
    """
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids)
    present = np.flatnonzero(counts)
    stops = np.cumsum(counts[present])
    starts = stops - counts[present]
    seen = np.argsort(order[starts])
    return order, present[seen], starts[seen], stops[seen]


def _merged(first: CanTrace, second: CanTrace) -> CanTrace:
    """Both traces' rows as columns, stably sorted by (timestamp, id): first's lead on a tie.

    One int64 key, timestamp * 2048 + id, sorts both: ids are below
    2048, and the key stays below 2**48 for any capture a replay accepts
    (scenario.MAX_RUN_S).
    """
    columns = [np.concatenate(pair) for pair in zip(first.columns(), second.columns())]
    key = columns[0] << 11
    key |= columns[1]
    order = np.argsort(key, kind="stable")
    del key  # the gather below sets the peak; a live key would raise it by n * 8 B
    return _columnar_trace(TraceColumns(*(col[order] for col in columns)))


def _columnar_trace(columns: tuple) -> CanTrace:
    """CanTrace over four columns in time order; the order is not re-checked."""
    trace = object.__new__(CanTrace)
    trace._columns = columns
    return trace


def _columns_of(frames: list[CanFrame]) -> tuple[array, array, array, array]:
    """The array columns of frames; ValueError out of time order, OutOfRangeError past int64."""
    times = list(map(attrgetter("timestamp_us"), frames))
    if any(map(lt, times[1:], times)):
        raise ValueError("trace timestamps must be non-decreasing")
    try:
        timestamps = array("q", times)
    except OverflowError:
        raise OutOfRangeError("a trace timestamp does not fit 64 bits") from None
    datas = list(map(attrgetter("data"), frames))
    return (timestamps, array("H", map(attrgetter("arbitration_id"), frames)),
            array("B", map(len, datas)), array("B", b"".join(d + _PAD[len(d)] for d in datas)))


def _frames_of(columns: tuple) -> list[CanFrame]:
    """The frames of columns, built unchecked."""
    timestamps, ids, dlc, data = columns
    flat = bytes(data)  # row i's payload starts at 8 * i
    return [_frame(t, arb_id, flat[i:i + d]) for t, arb_id, i, d in
            zip(timestamps.tolist(), ids.tolist(), range(0, len(flat), 8), dlc.tolist())]


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


#: Six zero bytes, then the speed field big-endian in bytes 7 and 8.
_SPEED = struct.Struct(">6xH")


def speed_data(speed_mph: float) -> bytes:
    """The 8 data bytes of a speed broadcast; bytes other than 7/8 are zero."""
    raw = round(SPEED_OFFSET + SPEED_COUNTS_PER_MPH * speed_mph)
    if not 0 <= raw <= 0xFFFF:
        raise OutOfRangeError(f"speed {speed_mph} mph does not fit the 16-bit field")
    return _SPEED.pack(raw)


def encode_speed(speed_mph: float, timestamp_us: int = 0) -> CanFrame:
    """Build a full speed broadcast frame."""
    return _frame(timestamp_us, SPEED_ID, speed_data(speed_mph))


def _speed_ends(trace: CanTrace) -> tuple[float, float] | None:
    """The mph of the first and last speed broadcasts, each read as decode_speed reads it.

    None for a trace with no speed broadcast.  Only the two rows are
    decoded, and only they are checked for a short frame.
    """
    timestamps, ids, dlc, data = trace._columns
    first = next((row for row, arb_id in enumerate(ids) if arb_id == SPEED_ID), None)
    if first is None:
        return None
    last = next(row for row in range(len(ids) - 1, first - 1, -1) if ids[row] == SPEED_ID)
    for row in (first, last):
        if dlc[row] < 8:
            raise ShortFrameError(f"speed frame needs 8 bytes, got {dlc[row]}")
    return tuple(decode_speed_raw(_SPEED.unpack_from(data, 8 * row)[0]) for row in (first, last))


# --- trace text format ------------------------------------------------------

def serialize_trace(trace: CanTrace) -> str:
    """Candump-like text: ``<timestamp_us> <ID hex> <dlc> <bytes...>`` per line.

    IDs are uppercase hex without prefix, the dlc is the number of data
    bytes, and each data byte is two uppercase hex digits.  A frame with
    no data ends its line after the dlc.  One loop writes the rows of
    the columns, with no frame built.  Each distinct (id, payload) tail
    is formatted once, and a timestamp's text is reused while it repeats.
    """
    timestamps, ids, dlc, data = trace._columns
    flat = bytes(data)  # row i's payload starts at 8 * i
    # one row at a time: no list of every row's fields is held
    rows = zip(memoryview(timestamps), memoryview(ids),
               (flat[i:i + d] for i, d in zip(range(0, len(flat), 8), memoryview(dlc))))
    tails = {}
    lines = []
    last_t = None
    for t, arb_id, payload in rows:
        if t != last_t:
            last_t = t
            stamp = f"{t} "
        tail = tails.get((arb_id, payload))
        if tail is None:
            tail = tails[arb_id, payload] = (
                f"{arb_id:X} {len(payload)} {payload.hex(' ').upper()}\n" if payload
                else f"{arb_id:X} 0\n")
        lines.append(stamp + tail)
    del tails  # the join's peak holds the lines and the text, not the table
    return "".join(lines)


#: Each byte's code: a hex digit's value, 16 for a space, 255 for any other byte.
_CODE = bytes(int(chr(b), 16) if chr(b) in "0123456789ABCDEFabcdef" else 16 if b == 32 else 255
              for b in range(256))

#: Bytes of text the columnar pass reads at a time; its temporaries scale with it.
#: One block's temporaries, about 1.2 MiB at this size, still fit in L2.
_BLOCK = 1 << 18

#: Most timestamp digits the columnar pass reads; 18 digits always fit an int64.
_MAX_TIME_DIGITS = 18
_INT64_MAX = 2**63 - 1


def _number(code: np.ndarray, last: np.ndarray, widths: np.ndarray, base: int):
    """Per row, the widths digits that end at last, in base, as int64; None for a non-digit.

    Reads one digit column at a time, right to left; a row's column past
    its width reads as 0.
    """
    value = np.zeros(len(last), np.int64)
    fixed = int(widths.min())
    for k in range(int(widths.max())):
        digit = code.take(last - k, mode="clip")
        if k >= fixed:
            digit *= widths > k
        if digit.max() >= base:
            return None
        value += digit * np.int64(base) ** k
    return value


def _scan(buf: np.ndarray, code: np.ndarray) -> TraceColumns | None:
    """The columns of an ASCII text whose every line ends in "\n", or None.

    code is buf through _CODE.  None unless every line is in the
    spelling serialize_trace writes (1-18 decimal digits, 1-3 hex
    digits, a dlc digit and dlc pairs of hex digits, each field after
    one space) with an id up to 7FF and a dlc up to 8.  Every byte is
    checked, and the order of the rows is not.  Positions are int32 for
    a text under 2 GiB.  The timestamp and the id are read one digit
    column at a time, and the payload one pair column at a time, each
    with np.take on code; a decimal digit is a code up to 9.
    """
    pos = np.int32 if len(buf) < 2**31 else np.int64
    ends = np.flatnonzero(buf == 10).astype(pos)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # a line of dlc d holds d + 2 spaces and ends in the digit d and d pairs
    # (a count past 255 wraps round, and the checks below reject that line)
    dlc = np.add.reduceat(code == 16, starts, dtype=np.uint8).astype(pos) - 2
    if dlc.min() < 0 or dlc.max() > 8:
        return None
    at_dlc = ends - 3 * dlc - 1
    # reads before the text's start land on lines that fail a later check
    take = partial(code.take, mode="clip")
    # the space ahead of the id, which is 1 to 3 hex digits
    at_id = np.where(take(at_dlc - 3) == 16, at_dlc - 3,
                     np.where(take(at_dlc - 4) == 16, at_dlc - 4, at_dlc - 5))
    n_time = at_id - starts
    if not ((take(at_dlc) == dlc) & (take(at_dlc - 1) == 16) & (take(at_id) == 16)
            & (n_time >= 1) & (n_time <= _MAX_TIME_DIGITS)).all():
        return None

    # every field lies inside its line
    timestamps = _number(code, at_id - 1, n_time, 10)
    ids = _number(code, at_dlc - 2, at_dlc - 2 - at_id, 16)
    if timestamps is None or ids is None or ids.max() > 0x7FF:
        return None
    # a line holds dlc + 2 spaces, two of them ahead of the dlc, and every
    # other byte ahead of the payload is a checked digit: so once each pair
    # holds two hex digits, the dlc bytes left are the spaces between them
    data = np.zeros((len(ends), 8), np.uint8)
    fixed = int(dlc.min())
    for j in range(int(dlc.max())):
        high, low = take(at_dlc + 3 * j + 2), take(at_dlc + 3 * j + 3)
        digits = high | low
        pair = high << 4 | low
        if j >= fixed:
            live = dlc > j
            digits *= live
            pair *= live
        if digits.max() > 15:
            return None
        data[:, j] = pair
    return TraceColumns(timestamps, ids.astype(np.uint16), dlc.astype(np.uint8), data)


def _columnar(data: bytes) -> CanTrace | None:
    """The columnar pass over ASCII data, _BLOCK bytes of lines at a time.

    Each block is translated once through _CODE, so the temporaries
    scale with _BLOCK and not with the text.  None unless _scan reads
    every block and the rows keep time order.  "\r\n" reads as "\n", and
    a missing final "\n" is appended, as splitlines reads them.  It reads
    the written spelling or declines, and never raises for what it
    declines: naming a fault is _per_line's.
    """
    if b"\r" in data:  # a one-byte search; replace alone scans for the pair far slower
        data = data.replace(b"\r\n", b"\n")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    out = None
    n_rows = lo = 0
    while lo < len(data):
        # whole lines of about _BLOCK bytes, or one longer line
        hi = data.rfind(b"\n", lo, lo + _BLOCK) + 1 or data.find(b"\n", lo) + 1
        text = data[lo:hi]
        block = _scan(np.frombuffer(text, np.uint8),
                      np.frombuffer(text.translate(_CODE), np.uint8))
        if block is None:
            return None
        rows = slice(n_rows, n_rows + len(block.ids))
        if out is None or rows.stop > len(out.ids):
            # the columns are allocated ahead of the later blocks' temporaries,
            # with room for the rest of the text at the line density read so
            # far and an eighth more; a denser block moves them once more
            size = rows.stop + (len(data) - hi) * rows.stop * 9 // (8 * hi)
            grown = TraceColumns(*(np.empty((size, *part.shape[1:]), part.dtype)
                                   for part in block))
            for column, old in zip(grown, out or ()):
                column[:n_rows] = old[:n_rows]
            out = grown
        for column, part in zip(out, block):
            column[rows] = part
        n_rows = rows.stop
        lo = hi
    if out is None:
        return _columnar_trace(_columns_of([]))
    out = TraceColumns(*(column[:n_rows] for column in out))
    t = out.timestamps
    return None if (t[1:] < t[:-1]).any() else _columnar_trace(out)


def _per_line(text: str) -> CanTrace:
    """Every line of text read token by token into frames, in file order.

    A blank line, or one whose first token starts with "#", is skipped.
    The timestamp and dlc are read by int(token), the id and each data
    byte by int(token, 16), so a byte may also be "F", "0x1F" or "+F".
    Raises TraceParseError for the first faulty line.  A non-ASCII byte,
    which parse_trace decodes to a lone surrogate, fails its line before
    the tokens are read, and a malformed token before the frame's order
    and range are checked.  CanFrame checks the sign, id and dlc, and its
    ValueError message is the TraceParseError's reason.
    """
    frames = []
    last_t = -1
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.isascii():
            byte = ord(next(c for c in line if c > "\x7f")) - 0xDC00
            raise TraceParseError(line_no, f"non-ASCII byte 0x{byte:02X}")
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
        try:
            payload = bytes(map(int, tokens[3:], repeat(16)))
        except ValueError:  # a token int() rejects, or a value above 0xFF
            raise TraceParseError(line_no, "bad data byte") from None
        if t < last_t:
            raise TraceParseError(line_no, f"timestamp {t} goes backwards")
        if t > _INT64_MAX:
            raise TraceParseError(line_no, f"timestamp {t} does not fit 64 bits")
        try:
            frames.append(CanFrame(t, arb_id, payload))
        except ValueError as exc:  # its sign, id or dlc check
            raise TraceParseError(line_no, str(exc)) from None
        last_t = t
    return CanTrace(frames)


def parse_trace(text: str | bytes) -> CanTrace:
    """Parse the text trace format; blank lines and '#' comments are skipped.

    Each line is ``<timestamp> <id> <dlc> <bytes...>``: a decimal
    timestamp, a hex id, a decimal dlc equal to the number of byte
    tokens, and one hex token per byte.  A str is read as its UTF-8
    bytes.  Raises TraceParseError with the 1-indexed number of the first
    faulty line: a malformed token, a timestamp that goes backwards, is
    negative or does not fit 64 bits, an id beyond 11 bits, more than 8
    bytes, or a byte that is not ASCII.

    The columnar pass reads an ASCII text in the spelling serialize_trace
    writes, with its rows in time order, straight into the columns of a
    CanTrace, or declines it; it never rejects a text.  Every other text
    goes whole through _per_line, which reads it token by token into
    frames and is the one reader that raises TraceParseError.  So a
    faulty capture in the written spelling pays for one full per-line
    read before its error.
    """
    # surrogatepass: a lone surrogate is a non-ASCII byte, not an encode error
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    trace = _columnar(data) if data.isascii() else None
    return _per_line(data.decode("ascii", "surrogateescape")) if trace is None else trace


def load_trace(path) -> CanTrace:
    with open(path, "rb") as fh:
        return parse_trace(fh.read())


def save_trace(trace: CanTrace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_trace(trace))


# --- bus scheduler -----------------------------------------------------------

PayloadFn = Callable[[int], bytes]
Listener = Callable[[CanFrame, str], None]


class _Periodic:
    """One periodic source: emit payload(due) on arb_id at next_due, then every period."""

    __slots__ = ("arb_id", "period", "payload", "source", "next_due", "rank")

    def __init__(self, arb_id: int, period: int, payload: PayloadFn, source: str,
                 next_due: int):
        self.arb_id = arb_id
        self.period = period
        self.payload = payload
        self.source = source
        self.next_due = next_due
        self.rank = 0  # position in the bus's (arb_id, insertion) order


class _Routes(dict):
    """Listeners per arbitration id, each route built on first use from the wiring."""

    __slots__ = ("listeners",)

    def __init__(self, listeners: list[tuple[Listener, frozenset[int] | None]]):
        super().__init__()
        self.listeners = listeners

    def __missing__(self, arb_id: int) -> tuple[Listener, ...]:
        route = self[arb_id] = tuple(fn for fn, ids in self.listeners
                                     if ids is None or arb_id in ids)
        return route


class CanBus:
    """Single-threaded bus scheduler with deterministic arbitration.

    Periodic sources emit at k*period for k >= 1; one added after or while
    the bus steps to t starts at the first multiple after t.  ``step``
    delivers one due time at a time, in time order, so a step to t does
    what steps to each due time up to t in turn would.  The frames of one
    due time go out by arbitration id: lower IDs win simultaneous
    arbitration, and an injected frame scheduled at the same microsecond
    and id as an observed one lands after it.  A tap-point filter wraps
    its module's payload function (``injection.FilterRule.tap``).  Every
    frame leaves ``step`` through one loop, which appends it to the
    trace's columns and builds a periodic frame as a CanFrame only for
    its id's listeners.

    A listener names the ids it reads, as a node's acceptance filter
    does (SocketCAN's ``CAN_RAW_FILTER``, python-can's ``set_filters``);
    one that names none reads every frame.  The listeners of each id are
    kept as one tuple, in the order they were added, built when a frame
    of that id first meets the current wiring.

    Injected frames wait in one heap keyed by (due, id, enqueue
    sequence): ``inject_at`` pushes the frame, and ``step`` pops the due
    ones and hands their listeners that very frame, so an injected frame
    is built once, by whoever queued it.  A replay queues only the rows
    its receiver reads, so the heap stays short.

    The bus is fail-stop.  When a payload function or listener raises,
    the error propagates from ``step`` and the trace ends at the frame in
    delivery; from then on every ``step``, ``inject_at`` and
    ``add_periodic`` raises BusStoppedError, and ``trace()`` still reads.
    A ValueError from a check that changes nothing (a bad id or period, a
    step back in time, a mis-stamped or late ``inject_at`` outside a
    step) leaves the bus running.
    """

    def __init__(self):
        # called in insertion order: payload functions may share a seeded
        # RNG, so the order of the calls shows in the frames
        self._periodic: list[_Periodic] = []
        # the sources' ids and names in (arb_id, insertion) order, which is the
        # order their frames of one due time go out in; None until a step needs it
        self._ranked: tuple[list[int], list[str]] | None = None
        self._periodic_due: int | None = None  # earliest next_due of the sources
        self._listeners: list[tuple[Listener, frozenset[int] | None]] = []
        self._routes = _Routes(self._listeners)
        # heap of injected entries (due, arb_id, seq, frame, source); seq is
        # unique, so no comparison reaches the frame
        self._pending: list[tuple[int, int, int, CanFrame, str]] = []
        self._seq = 0
        self._now = 0
        # earliest due time inject_at accepts: the due time in delivery during
        # a step, else the bus time; so the trace stays in time order
        self._floor_us = 0
        # the trace's columns, and their appends bound once: a step reads them as locals
        timestamps, ids, dlc, data = self._trace = (array("q"), array("H"), array("B"), array("B"))
        self._appends = (timestamps.append, ids.append, dlc.append, data.frombytes)
        self._stopped: str | None = None  # the BusStoppedError message once stopped

    # -- wiring --------------------------------------------------------------

    def add_periodic(self, arb_id: int, period_us: int, payload_fn: PayloadFn,
                     source: str = "ecu") -> None:
        """Emit payload_fn(due) on arb_id every period_us; the payload holds at most 8 bytes."""
        if self._stopped is not None:
            raise BusStoppedError(self._stopped)
        if not 0 <= arb_id <= 0x7FF:
            raise ValueError(f"arbitration id 0x{arb_id:X} outside 11-bit range")
        if period_us <= 0:
            raise ValueError("period must be positive")
        first_due = (self._now // period_us + 1) * period_us
        self._periodic.append(_Periodic(arb_id, period_us, payload_fn, source, first_due))
        self._ranked = None
        if self._periodic_due is None or first_due < self._periodic_due:
            self._periodic_due = first_due

    def add_listener(self, fn: Listener, ids: Iterable[int] | None = None) -> None:
        """Call fn(frame, source) for every delivered frame whose id is in ids.

        ids=None reads every id.  A listener added while a step delivers
        reads the frames after the one in delivery.
        """
        self._listeners.append((fn, None if ids is None else frozenset(ids)))
        self._routes.clear()

    def inject_at(self, due_us: int, frame: CanFrame, source: str = "inject") -> None:
        """Queue a frame stamped due_us for delivery once the bus reaches due_us.

        Its listeners are handed this frame object, so it must not change
        while it waits.
        Raises ValueError for a due time the bus has passed: before the bus
        time, or during a step before the due time in delivery.  The frame
        would break the trace order, or wait for a step back in time.
        """
        if self._stopped is not None:
            raise BusStoppedError(self._stopped)
        if frame.timestamp_us != due_us:
            raise ValueError(f"frame stamped {frame.timestamp_us} us queued for {due_us} us")
        if due_us < self._floor_us:
            last = self._trace[0][-1] if self._trace[0] else -1
            raise ValueError(
                f"frame due at {due_us} us would follow one stamped {last} us" if due_us < last
                else f"frame due at {due_us} us is before the bus time, {self._floor_us} us")
        heapq.heappush(self._pending,
                       (due_us, frame.arbitration_id, self._seq, frame, source))
        self._seq += 1

    def feed_replay(self, frames: Iterable[CanFrame]) -> None:
        """Queue recorded frames at their own timestamps, tagged "replay"."""
        for f in frames:
            self.inject_at(f.timestamp_us, f, "replay")

    # -- time ------------------------------------------------------------------

    def next_due_us(self) -> int | None:
        """Earliest pending emission time, or None if nothing is scheduled or the bus stopped."""
        if self._stopped is not None:
            return None
        due = self._periodic_due
        if self._pending:
            injected = self._pending[0][0]
            if due is None or injected < due:
                return injected
        return due

    def step(self, now_us: int) -> range:
        """Deliver every frame due in (previous now, now_us], one due time at a time.

        At each due time the due sources' payload functions are called in
        insertion order, after the listeners of every earlier frame have
        run, and then that time's frames go out through one loop.
        Periodic frames alone go out in the sources' (arb_id, insertion)
        order, and injected frames alone in the order they leave the
        heap; only a time with both sorts its frames, stably by id.  A
        frame a listener queues for a time up to now_us goes out in this
        step, so afterwards the next due time is past now_us.  A payload
        function or listener that raises stops the bus.  Returns the rows
        of ``trace()`` that this step appended.
        """
        if self._stopped is not None:
            raise BusStoppedError(self._stopped)
        if now_us < self._now:
            raise ValueError("bus time must not go backwards")
        self._now = now_us
        pending = self._pending
        routes = self._routes
        timestamps = self._trace[0]
        start = len(timestamps)
        append_t, append_id, append_dlc, extend_data = self._appends
        try:
            while True:
                due = self._periodic_due
                if pending and (due is None or pending[0][0] < due):
                    due = pending[0][0]
                if due is None or due > now_us:
                    break
                self._floor_us = due
                for arb_id, payload, source, frame in self._emit(due):
                    if payload is None:  # a source not due at this time
                        continue
                    dlc = len(payload)
                    append_t(due)
                    append_id(arb_id)
                    append_dlc(dlc)
                    extend_data(payload if dlc == 8 else payload + _PAD[dlc])
                    route = routes[arb_id]
                    if route:
                        if frame is None:  # a periodic frame: built only for its listeners
                            frame = _frame(due, arb_id, payload)
                        for listener in route:
                            listener(frame, source)
        except BaseException as exc:
            self._stopped = f"bus stopped in the step to {now_us} us by {exc!r}"
            raise
        self._floor_us = now_us
        return range(start, len(timestamps))

    def _emit(self, now_us: int) -> Iterable[tuple[int, bytes | None, str, CanFrame | None]]:
        """(arb_id, payload, source, frame) per row of due time now_us, in delivery order.

        now_us is the earliest due time, so each due source emits once:
        its next frame falls after now_us.  With no injected frame due,
        the rows are a lazy zip over the sources in rank order, the
        payload None for a source not due and the frame None throughout.
        Otherwise they are a list: the due periodic rows, with frame None,
        then the injected frames as they leave the heap, in (id,
        sequence) order, each with its frame; a stable sort by id merges
        the two only when both are present.
        """
        pending = self._pending
        periodic = self._periodic_due == now_us
        if periodic:
            ids, names = self._ranked or self._rank()
            slots = [None] * len(names)
            earliest = None
            for src in self._periodic:
                due = src.next_due
                if due == now_us:
                    payload = src.payload(due)
                    if payload.__class__ is not bytes:
                        payload = bytes(payload)
                    if len(payload) > 8:
                        raise ValueError(f"dlc {len(payload)} outside 0..8")
                    slots[src.rank] = payload
                    due += src.period
                    src.next_due = due
                if earliest is None or due < earliest:
                    earliest = due
            self._periodic_due = earliest
            rows = zip(ids, slots, names, repeat(None))
            if not (pending and pending[0][0] == now_us):
                return rows
            batch = [row for row in rows if row[1] is not None]
        else:
            batch = []
        while pending and pending[0][0] == now_us:
            _, arb_id, _, frame, source = heapq.heappop(pending)
            batch.append((arb_id, frame.data, source, frame))
        if periodic:
            batch.sort(key=itemgetter(0))
        return batch

    def _rank(self) -> tuple[list[int], list[str]]:
        """Rank the sources in (arb_id, insertion) order; returns their ids and names in it."""
        ranked = sorted(self._periodic, key=attrgetter("arb_id"))  # stable: insertion on a tie
        for rank, src in enumerate(ranked):
            src.rank = rank
        self._ranked = ([src.arb_id for src in ranked], [src.source for src in ranked])
        return self._ranked

    def trace(self) -> CanTrace:
        """Every frame delivered so far, in delivery (and so time) order, in copied columns."""
        return _columnar_trace(tuple(column[:] for column in self._trace))
