"""Synthetic bus recordings for exercising the analysis tools.

Both generators run the vehicle plant behind the stock broadcast set
and bury it in filler traffic, producing the kind of capture the
analysis tools are meant to chew through: a pedal-press capture for id
isolation, and a longer drive with planted speed mirrors for byte
correlation.  Fixed seeds make the traces reproducible.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from . import canbus
from .canbus import CanBus, CanTrace
from .injection import ThrottleReceiver
from .plant import VehiclePlant, SimulatedEcus
from .scenario import replay_ms, rig_loop, run_until

REAL_IDS = (canbus.STEERING_ID, canbus.SPEED_ID, canbus.BPP_ID,
            canbus.APP_ID, canbus.THROTTLE_ID)

_FILLER_PERIODS_US = (5_000, 10_000, 20_000, 25_000, 50_000, 100_000)

# press capture: one accelerator press among filler ids
PRESS_START_S = 2.0
PRESS_END_S = 5.0
PRESS_APP_PCT = 15.0
N_FILLER = 97

# correlation drive: square-wave accelerator plus random-walk filler ids
SQUARE_PERIOD_S = 20.0
APP_LO_PCT = 10.0
APP_HI_PCT = 20.0
N_WALKERS = 6

#: Top rig speed that counts as the replayed traffic moving the car.
MIN_GAIN_MPH = 1.0


def _filler_ids(rng: random.Random, count: int) -> list[int]:
    pool = [i for i in range(0x20, 0x800) if i not in REAL_IDS]
    return rng.sample(pool, count)


def _walker_payload(rng: random.Random) -> Callable[[int], bytes]:
    """Payload with a few random-walking bytes and the rest constant."""
    state = bytearray(rng.randrange(256) for _ in range(8))
    moving = rng.sample(range(8), rng.randrange(1, 4))

    def payload(now_us: int) -> bytes:
        for b in moving:
            state[b] = (state[b] + rng.choice((-1, 0, 1))) % 256
        return bytes(state)

    return payload


def _drive(bus: CanBus, plant: VehiclePlant, pedal: list[tuple[int, float]],
           n_ms: int) -> None:
    """Run the bus and the plant n_ms 1 ms ticks, then deliver the frames due at the end.

    pedal lists (from_ms, app_pct) in time order, the first from 0; app_pct
    holds from the tick ending at from_ms, so the phase before ends 1 ms earlier.
    """
    end_us = n_ms * 1000
    ends = [min(end_us, from_ms * 1000 - 1000) for from_ms, _ in pedal[1:]] + [end_us]
    t_us = 0
    for (_, app_pct), phase_end_us in zip(pedal, ends):
        run_until(bus, plant, lambda: (app_pct, 0.0, 50.0), t_us, phase_end_us, 1000, 0.001)
        t_us = phase_end_us
    bus.step(end_us)


def press_recording(duration_s: float = 6.0, seed: int = 2024) -> CanTrace:
    """Capture of a single accelerator press among heavy filler traffic.

    The five stock broadcasts run against a live plant while 97 filler
    ids chatter, so the capture holds 102 distinct ids and only one of
    them actually moves the car.
    """
    rng = random.Random(seed)
    plant = VehiclePlant()
    bus = CanBus()
    SimulatedEcus(plant).attach(bus)
    for arb_id in _filler_ids(rng, N_FILLER):
        bus.add_periodic(arb_id, rng.choice(_FILLER_PERIODS_US),
                         _walker_payload(rng), source="filler")
    _drive(bus, plant, [(0, 0.0), (round(PRESS_START_S * 1000.0), PRESS_APP_PCT),
                        (round(PRESS_END_S * 1000.0), 0.0)], round(duration_s * 1000.0))
    return bus.trace()


def throttle_effect_oracle() -> Callable[[CanTrace], bool]:
    """Replay oracle: does this traffic make a fresh test rig gain speed?

    The rig is a plant whose accelerator obeys the last throttle
    command seen on the bus.  The replayed frames keep their recorded
    timestamps; the rig runs a little past the last frame so a press at
    the end still shows up in the speed.

    The answer is the one a run over that whole window gives, but the
    rig runs only while the run can still change it.  A subset with no
    frame of the receiver's id is answered False with no bus and no rig:
    nothing then moves the throttle off 0, where app_k is 0, so the rig
    stays at rest.  A replay ends once the rig's top speed reaches
    MIN_GAIN_MPH, which makes the answer True.

    Only the throttle rows and the window reach the rig, so each oracle
    keeps the top speed of every replay it ran, keyed by the window in
    ms and the bytes of those rows' four columns.  A subset that repeats
    both is answered from that table, with no bus and no rig; the
    answer is still whether the top speed reached MIN_GAIN_MPH.
    """
    tops: dict[tuple[int, bytes], float] = {}

    def oracle(subset: CanTrace) -> bool:
        n_ms = replay_ms(subset)
        rx = ThrottleReceiver()
        target = subset.columns().ids == rx.arb_id
        if not target.any():  # the throttle, and so the rig, stays at rest
            return False
        # only the rows the receiver reads go on the bus, as in a replayed
        # injection; the rig still runs past the subset's last frame
        replayed = subset.select(target)
        key = (n_ms, b"".join(column.tobytes() for column in replayed.columns()))
        top = tops.get(key)
        if top is None:
            bus = CanBus()
            bus.add_listener(rx, ids=(rx.arb_id,))
            bus.feed_replay(replayed)
            top = tops[key] = rig_loop(bus, VehiclePlant(), rx, n_ms, reach_mph=MIN_GAIN_MPH)
        return top >= MIN_GAIN_MPH
    return oracle


def _lag_payload(plant: VehiclePlant, period_us: int, tau_s: float,
                 affine: list[tuple[float, int]]) -> Callable[[int], bytes]:
    """Status bytes: affine copies of a first-order lag of the speed, stepped per frame."""
    gain = -math.expm1(-period_us / 1e6 / tau_s)  # exact over one period
    lag = 0.0

    def payload(now_us: int) -> bytes:
        nonlocal lag
        lag += (plant.state.speed_mph - lag) * gain
        data = bytearray(8)
        for spot, (scale, offset) in enumerate(affine):
            data[spot] = max(0, min(255, round(scale * lag + offset)))
        return bytes(data)
    return payload


def correlation_recording(duration_s: float = 60.0,
                          seed: int = 77) -> tuple[CanTrace, dict]:
    """Drive capture with speed mirrors planted for the correlator.

    The accelerator follows a square wave, so the command byte and the
    lagging speed decorrelate.  One filler byte carries a fine-grained
    affine copy of the true speed (the needle the correlator should
    rank first), 16 status bytes carry coarser lightly filtered affine
    copies, a couple of ids never change, and the walkers are noise.
    Each status id keeps its own first-order lag of the speed, stepped
    in its payload function at each frame's due time.

    Returns the trace plus a key describing what was planted where.
    """
    rng = random.Random(seed)
    plant = VehiclePlant()
    bus = CanBus()
    SimulatedEcus(plant).attach(bus)

    ids = _filler_ids(rng, N_WALKERS + 7)
    walker_ids, rest = ids[:N_WALKERS], ids[N_WALKERS:]
    planted_id, const_a, const_b = rest[0], rest[1], rest[2]
    status_ids = rest[3:7]
    for arb_id in walker_ids:
        bus.add_periodic(arb_id, rng.choice(_FILLER_PERIODS_US),
                         _walker_payload(rng), source="filler")
    bus.add_periodic(const_a, 20_000, lambda now: bytes([0x42] * 8), source="filler")
    bus.add_periodic(const_b, 50_000, lambda now: b"\x10\x20\x30\x40\x00\x00\x00\x00",
                     source="filler")

    # lightly filtered speed copies: 4 status ids x 4 affine bytes each
    status_key = []
    for i, (arb_id, tau_s) in enumerate(zip(status_ids, (0.05, 0.08, 0.12, 0.2))):
        affine = [(2.0 + 0.5 * (4 * i + b) / 4.0, rng.randrange(0, 20)) for b in range(4)]
        status_key.extend((arb_id, b) for b in range(4))
        period_us = rng.choice((10_000, 20_000, 25_000))
        bus.add_periodic(arb_id, period_us, _lag_payload(plant, period_us, tau_s, affine),
                         source="filler")

    # finest affine scale that stays inside one byte at the speeds this
    # drive reaches (~56 mph), so the copy never clips
    planted_byte = 2
    planted_scale = 4.0

    def planted_payload(now_us: int) -> bytes:
        data = bytearray(8)
        data[planted_byte] = max(0, min(255, round(plant.state.speed_mph * planted_scale)))
        data[5] = 0x7F
        return bytes(data)

    bus.add_periodic(planted_id, 10_000, planted_payload, source="filler")

    half_ms = round(SQUARE_PERIOD_S * 500.0)
    n_ms = round(duration_s * 1000.0)
    _drive(bus, plant, [(k * half_ms, APP_HI_PCT if k % 2 else APP_LO_PCT)
                        for k in range(n_ms // half_ms + 1)], n_ms)

    key = {
        "planted": (planted_id, planted_byte),
        "actuator": (canbus.THROTTLE_ID, canbus.THROTTLE_BYTE_INDEX),
        "status": status_key,
        "constant_ids": (const_a, const_b),
        "walkers": tuple(walker_ids),
    }
    return bus.trace(), key
