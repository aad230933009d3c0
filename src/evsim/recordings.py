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
    end_us = round(duration_s * 1000.0) * 1000
    # the tick ending at k ms is pressed for PRESS_START_S * 1000 <= k < PRESS_END_S * 1000
    press_lo_us = min(end_us, round(PRESS_START_S * 1000.0) * 1000 - 1000)
    press_hi_us = min(end_us, round(PRESS_END_S * 1000.0) * 1000 - 1000)
    t_us = 0
    for phase_end_us, app_pct in ((press_lo_us, 0.0), (press_hi_us, PRESS_APP_PCT),
                                  (end_us, 0.0)):
        run_until(bus, plant, lambda: (app_pct, 0.0, 50.0), t_us, phase_end_us, 1000, 0.001)
        t_us = phase_end_us
    bus.step(end_us)
    return bus.trace()


def throttle_effect_oracle() -> Callable[[CanTrace], bool]:
    """Replay oracle: does this traffic make a fresh test rig gain speed?

    The rig is a plant whose accelerator obeys the last throttle
    command seen on the bus.  The replayed frames keep their recorded
    timestamps; the rig runs a little past the last frame so a press at
    the end still shows up in the speed.
    """
    def oracle(subset: CanTrace) -> bool:
        bus = CanBus()
        rx = ThrottleReceiver()
        bus.add_listener(rx)
        # the receiver ignores every other id; the rig still runs the whole subset
        bus.feed_replay(subset.select(subset.columns().ids == rx.arb_id))
        top_speed = rig_loop(bus, VehiclePlant(), rx, replay_ms(subset))
        return top_speed >= MIN_GAIN_MPH
    return oracle


def _ema_status_payload(statuses: list[dict], ema: list[float]) -> Callable[[int], bytes]:
    def payload(now_us: int) -> bytes:
        data = bytearray(8)
        for spot, st in enumerate(statuses):
            raw = round(st["scale"] * ema[st["ema"]] + st["offset"])
            data[spot] = max(0, min(255, raw))
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

    Returns the trace plus a key describing what was planted where.
    """
    rng = random.Random(seed)
    plant = VehiclePlant()
    pedal = {"app": APP_LO_PCT}
    bus = CanBus()
    ecus = SimulatedEcus(plant, pedal_fn=lambda: (pedal["app"], 0.0))
    ecus.attach(bus)

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
    taus = [0.05, 0.08, 0.12, 0.2]
    ema_gains = [1.0 - math.exp(-0.001 / tau) for tau in taus]
    ema = [0.0, 0.0, 0.0, 0.0]
    status_key = []
    for i, arb_id in enumerate(status_ids):
        statuses = []
        for b in range(4):
            statuses.append({"ema": i, "scale": 2.0 + 0.5 * (4 * i + b) / 4.0,
                             "offset": rng.randrange(0, 20)})
            status_key.append((arb_id, b))
        bus.add_periodic(arb_id, rng.choice((10_000, 20_000, 25_000)),
                         _ema_status_payload(statuses, ema), source="filler")

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
    n_ticks = round(duration_s * 1000.0)
    # per tick, not through run_until: the EMA speed mirrors read the speed
    # every tick, and the benchmark gates this capture's build time (setup_s).
    # Every period is a multiple of 5 ms, so most ticks have nothing to step.
    due_us = bus.next_due_us()
    for ms in range(1, n_ticks + 1):
        pedal["app"] = APP_HI_PCT if (ms // half_ms) % 2 == 1 else APP_LO_PCT
        plant.advance(pedal["app"], 0.0, 50.0, 1, 0.001)
        speed_mph = plant.state.speed_mph
        for i, gain in enumerate(ema_gains):
            ema[i] += (speed_mph - ema[i]) * gain
        now_us = ms * 1000
        if due_us <= now_us:
            bus.step(now_us)
            due_us = bus.next_due_us()

    key = {
        "planted": (planted_id, planted_byte),
        "actuator": (canbus.THROTTLE_ID, canbus.THROTTLE_BYTE_INDEX),
        "status": status_key,
        "constant_ids": (const_a, const_b),
        "walkers": tuple(walker_ids),
    }
    return bus.trace(), key
