"""Tools for locating actuation traffic in a recorded bus trace.

isolate_control_id finds which arbitration id triggers a physical
effect by replaying id subsets against a caller-supplied oracle,
halving the candidate set each round.  Only the first half of each
split is replayed; a negative result implies the effect lives in the
second half, which costs no oracle call, so the total is at most
1 + ceil(log2(n)) calls for n candidate ids (paths through the
smaller halves of odd splits finish sooner).  The saving has a blind
spot: when two ids only trigger the effect together, the inferred half
can be wrong.  confirm=True spends one extra call replaying the final
candidate alone and raises Ambiguous if it does not reproduce the
effect on its own.

correlate_bytes ranks every payload byte in a trace by the strength of
its linear relationship to the decoded speed broadcast, which surfaces
status bytes that mirror physical state.  Command bytes rank poorly
against a slow plant: the state they cause lags far behind them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import canbus
from .canbus import CanTrace, np
from .injection import select_ids


class EmptyTraceError(ValueError):
    """The trace has no frames usable for the requested analysis."""


class NoEffectError(ValueError):
    """Replaying the full trace does not trigger the oracle."""


class AmbiguousError(ValueError):
    """The isolated id does not trigger the effect alone."""


@dataclass(frozen=True)
class IsolationResult:
    arb_id: int
    oracle_calls: int
    confirmed: bool


def isolation_budget(n_ids: int) -> int:
    """Worst-case oracle calls for n candidate ids (excluding confirm)."""
    if n_ids < 1:
        raise ValueError("need at least one candidate id")
    return 1 + (n_ids - 1).bit_length()


def isolate_control_id(trace: CanTrace, oracle, confirm: bool = False) -> IsolationResult:
    """Bisect the trace's ids down to the one the oracle reacts to.

    oracle takes a CanTrace (a subset of the recording, timestamps
    preserved) and returns truthy when the physical effect appears.
    """
    ids = trace.ids()
    if not ids:
        raise EmptyTraceError("trace has no frames")
    calls = 0

    def probe(subset: list[int]) -> bool:
        nonlocal calls
        calls += 1
        return bool(oracle(select_ids(trace, subset)))

    if not probe(ids):
        raise NoEffectError("full recording does not trigger the effect")
    confirmed = len(ids) == 1
    current = ids
    while len(current) > 1:
        half = len(current) // 2
        first, second = current[:half], current[half:]
        if probe(first):
            current = first
            confirmed = len(first) == 1
        else:
            current = second
            confirmed = False
    winner = current[0]
    if confirm and not confirmed:
        if not probe([winner]):
            raise AmbiguousError(
                f"0x{winner:X} does not trigger the effect alone; "
                "the effect likely needs several ids together")
        confirmed = True
    return IsolationResult(winner, calls, confirmed)


# --- byte-vs-speed correlation ------------------------------------------------

@dataclass(frozen=True)
class ByteCorrelation:
    arb_id: int
    byte_index: int
    r: float
    n_samples: int
    rank: int


@dataclass(frozen=True)
class CorrelationReport:
    speed_id: int
    n_speed_samples: int
    ranked: tuple[ByteCorrelation, ...]
    excluded: tuple[tuple[int, int, str], ...]

    def top(self, n: int) -> tuple[ByteCorrelation, ...]:
        return self.ranked[:n]

    def find(self, arb_id: int, byte_index: int) -> ByteCorrelation | None:
        for c in self.ranked:
            if c.arb_id == arb_id and c.byte_index == byte_index:
                return c
        return None


def correlate_bytes(trace: CanTrace, speed_id: int = canbus.SPEED_ID,
                    signed: bool = False) -> CorrelationReport:
    """Rank every payload byte of every non-reference id against speed.

    Speed is resampled onto each frame's timestamp by holding the most
    recent broadcast (frames before the first broadcast take its value).
    Bytes beyond a frame's dlc count as zero.  Bytes with no variation,
    every byte when the speed never changes, and every byte of an id
    whose frames all see one held speed are reported in ``excluded``
    instead of being ranked, so no r is NaN.  The default ranking uses
    |r| so inverse relationships surface too; signed=True ranks by the
    signed coefficient, most positive first.
    """
    timestamps, ids, dlc, data = trace.columns()
    speed_rows = np.flatnonzero(ids == speed_id)
    if not len(speed_rows):
        raise EmptyTraceError(f"no frames of the speed id 0x{speed_id:X} in the trace")
    if len(speed_rows) == len(ids):
        raise EmptyTraceError("no candidate ids besides the speed reference")
    short = np.flatnonzero(dlc[speed_rows] < 8)
    if len(short):
        raise canbus.ShortFrameError(
            f"speed frame needs 8 bytes, got {int(dlc[speed_rows[short[0]]])}")
    speed_t = timestamps[speed_rows]
    speed_v = canbus.decode_speed_raw((data[speed_rows, 6].astype(np.int64) << 8)
                                      + data[speed_rows, 7])
    flat_speed = bool(np.all(speed_v == speed_v[0]))
    ranked: list[ByteCorrelation] = []
    excluded: list[tuple[int, int, str]] = []
    for arb_id in trace.ids():
        if arb_id == speed_id:
            continue
        rows = np.flatnonzero(ids == arb_id)
        block = data[rows]
        varies = (block != block[0]).any(axis=0)
        idx = np.clip(np.searchsorted(speed_t, timestamps[rows], side="right") - 1,
                      0, len(speed_t) - 1)
        v = speed_v[idx]
        flat_here = bool(np.all(v == v[0]))
        for b in range(8):
            if not varies[b]:
                excluded.append((arb_id, b, "constant byte"))
            elif flat_speed:
                excluded.append((arb_id, b, "speed reference is constant"))
            elif flat_here:
                excluded.append((arb_id, b, "speed constant over this id's frames"))
            else:
                r = float(np.corrcoef(block[:, b].astype(np.float64), v)[0, 1])
                ranked.append(ByteCorrelation(arb_id, b, r, len(rows), rank=0))

    if signed:
        ranked.sort(key=lambda c: (-c.r, c.arb_id, c.byte_index))
    else:
        ranked.sort(key=lambda c: (-abs(c.r), c.arb_id, c.byte_index))
    ranked = [ByteCorrelation(c.arb_id, c.byte_index, c.r, c.n_samples, i + 1)
              for i, c in enumerate(ranked)]
    return CorrelationReport(speed_id, len(speed_rows), tuple(ranked), tuple(excluded))
