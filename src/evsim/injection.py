"""Frame injection, filtering, id selection, and dominance measurement.

A FilterRule names the byte to override and a value_fn that maps the
genuine frame's timestamp to the forged byte.  It overrides a broadcast
in one of two ways:

* As a tap it sits between a producing module and the wire and rewrites
  matching frames in place (a man-in-the-middle tap).  Receivers never
  see the genuine payload.  It wraps a live module's payload function
  (``tap``), or passes each recorded frame through ``apply`` before replay.
* A ShadowInjector built on it leaves genuine frames alone and
  schedules a forged copy a fixed delay after each one.  Receivers that
  act on the most recent frame then spend delay/period of each cycle on
  the genuine value and the rest on the forged one.

Dominance is that duty cycle measured on a receiver's delivery
timeline, kept exact as a Fraction of integer microseconds.

The shadow injector and the throttle receiver each read one id, and
each is wired to the bus with that id as its acceptance filter
(``CanBus.add_listener``'s ids), so neither tests a frame's id itself.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import canbus
from .canbus import CanBus, CanFrame, CanTrace, np


#: Each byte value as a one-byte bytes object.
_ONE_BYTE = [bytes((value,)) for value in range(256)]


class UnknownIdError(ValueError):
    """Requested arbitration id never appears in the trace."""


class DelayError(ValueError):
    """Shadow delay that is not positive or not shorter than the genuine period."""


@dataclass(frozen=True)
class FilterRule:
    """Override of one payload byte on one arbitration id.

    value_fn maps the genuine frame's timestamp to the forged byte.  It
    is called exactly once per frame the rule rewrites (tap) or copies
    (shadow), so a stateful ramp advances once per genuine target frame.
    """

    arb_id: int
    byte_index: int
    value_fn: Callable[[int], int]

    def __post_init__(self):
        if not 0 <= self.byte_index <= 7:
            raise ValueError(f"byte_index {self.byte_index} outside 0..7")

    def forged_payload(self, frame: CanFrame) -> bytes:
        """frame's payload with the byte set to value_fn(frame's timestamp)."""
        data, index = frame.data, self.byte_index
        if index >= len(data):
            raise ValueError(f"byte_index {index} outside dlc {len(data)}")
        value = self.value_fn(frame.timestamp_us)
        if not 0 <= value <= 0xFF:
            raise ValueError(f"value {value} outside one byte")
        return data[:index] + _ONE_BYTE[value] + data[index + 1:]

    def apply(self, frame: CanFrame) -> CanFrame:
        """Tap rewrite: matching frames too short for the byte pass unchanged."""
        if frame.arbitration_id != self.arb_id or self.byte_index >= frame.dlc:
            return frame
        data = self.forged_payload(frame)
        if data == frame.data:
            return frame
        return canbus._frame(frame.timestamp_us, frame.arbitration_id, data)

    def tap(self, payload_fn: Callable[[int], bytes]) -> Callable[[int], bytes]:
        """payload_fn of the module that broadcasts arb_id, behind this rule as a tap."""
        def tapped(due_us: int) -> bytes:
            return self.apply(canbus._frame(due_us, self.arb_id, payload_fn(due_us))).data
        return tapped


class ShadowInjector:
    """Forge a copy of each genuine rule.arb_id frame a fixed delay later.

    The copy carries the rule's forged byte; a genuine frame too short
    for that byte raises ValueError.  The delay must be shorter than the
    genuine period (DelayError otherwise), or the forged frame would land
    after (or with) the next genuine one and lose the last-writer race it
    is meant to win.
    The injector listens to rule.arb_id only, and it tags its own frames
    and skips them when listening, so it never chases itself.  injected
    counts the forged frames the bus delivered, not those still queued.
    The bus holds the injector, as a listener; the injector holds the bus
    only through a weak proxy, so the two form no reference cycle and the
    bus is freed as soon as its run lets go of it.
    """

    SOURCE = "shadow"

    def __init__(self, bus: CanBus, rule: FilterRule, delay_us: int = 250,
                 period_us: int | None = None):
        if delay_us <= 0:
            raise DelayError("delay must be positive")
        if period_us is not None and delay_us >= period_us:
            raise DelayError(
                f"delay {delay_us} us must be shorter than the genuine period {period_us} us")
        self.bus = weakref.proxy(bus)
        self.rule = rule
        self.delay_us = delay_us
        self.injected = 0
        bus.add_listener(self._on_frame, ids=(rule.arb_id,))

    def _on_frame(self, frame: CanFrame, source: str) -> None:
        if source == self.SOURCE:
            self.injected += 1
            return
        due = frame.timestamp_us + self.delay_us
        payload = self.rule.forged_payload(frame)
        self.bus.inject_at(due, canbus._frame(due, frame.arbitration_id, payload),
                           source=self.SOURCE)


# --- receiver-side bookkeeping ---------------------------------------------------

class ThrottleReceiver:
    """Drive-module view of the throttle command: last frame wins.

    Keeps the full delivery log so dominance can be measured afterwards.
    It reads every frame it is handed that is long enough for its byte,
    so wire it with ``bus.add_listener(rx, ids=(rx.arb_id,))``.
    """

    def __init__(self, arb_id: int = canbus.THROTTLE_ID,
                 byte_index: int = canbus.THROTTLE_BYTE_INDEX):
        self.arb_id = arb_id
        self.byte_index = byte_index
        self.app_pct = 0.0
        self.deliveries: list[tuple[int, str, float]] = []

    def __call__(self, frame: CanFrame, source: str) -> None:
        if len(frame.data) <= self.byte_index:
            return
        self.app_pct = frame.data[self.byte_index] / canbus.PCT_TO_BYTE
        self.deliveries.append((frame.timestamp_us, source, self.app_pct))


def dominance_fraction(deliveries: Sequence[tuple[int, str]], start_us: int,
                       end_us: int, source: str = ShadowInjector.SOURCE) -> Fraction:
    """Fraction of [start, end) during which the last delivery came from source.

    Time before the first delivery counts as not dominated.  Exact
    integer-microsecond arithmetic; returns a Fraction.
    """
    if end_us <= start_us:
        raise ValueError("end must be after start")
    total = end_us - start_us
    dominated = 0
    current: str | None = None
    prev = start_us
    for t, src in deliveries:
        if t >= end_us:
            break
        if t > prev:
            if current == source:
                dominated += t - prev
            prev = t
        # multiple deliveries in the same microsecond: last one wins
        current = src
    if current == source and end_us > prev:
        dominated += end_us - prev
    return Fraction(dominated, total)


# --- id selection -----------------------------------------------------------------

def select_ids(trace: CanTrace, ids: Iterable[int]) -> CanTrace:
    """Subset of a trace containing only the given ids, order preserved, as columns.

    When every row of the trace is wanted the trace itself comes back,
    not a copy: a trace is not changed once built.
    """
    wanted = set(ids)
    rows = np.isin(trace.columns().ids, list(wanted))
    subset = trace if rows.all() else trace.select(rows)
    missing = wanted.difference(np.flatnonzero(np.bincount(subset.columns().ids)).tolist())
    if missing:
        raise UnknownIdError(
            "ids not in trace: " + ", ".join(f"0x{i:X}" for i in sorted(missing)))
    return subset
