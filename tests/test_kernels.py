"""The per-tick vehicle update, VehiclePlant.advance.

The golden digests pin its floats end to end; these tests pin the
properties the plant relies on: a fused span equals the same ticks run
one at a time, speed floors at zero, the deadband holds the angle, and
advance, which computes once per chunk what held inputs fix, equals the
plain per-tick loop below on every float, signed zeros and non-finite
values included.  A chunk at rest, where a tick changes no bit, runs one
tick and skips the rest, and a straight, unbraked chunk whose brake
channel has settled skips its brake update.
"""

import dataclasses
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from evsim import _kernels
from evsim.plant import (
    APP_TAU_S,
    BPP_TAU_S,
    BRAKE_ACTIVE_PCT,
    COUNTS_PER_RAD,
    DEADBAND_HI,
    DEADBAND_LO,
    DECEL_TO_MPH_S,
    MPH_TO_MPS,
    STEER_DUTY_MAX,
    STEER_DUTY_MIN,
    STEER_RATIO,
    STEER_TAU_S,
    WHEELBASE_M,
    VehiclePlant,
    VehicleState,
    app_k,
    bpp_k,
    steer_k,
)

INF, NAN = math.inf, math.nan


def reference_advance(state: VehicleState, app_pct: float, bpp_pct: float,
                      steer_duty: float, n_ticks: int, dt: float) -> VehicleState:
    """The plain per-tick loop: every tick tests the steering and takes tan, cos and sin."""
    app_pct, bpp_pct, steer_duty = (min(100.0, max(0.0, u)) if not 0.0 <= u <= 100.0 else u
                                    for u in (app_pct, bpp_pct, steer_duty))
    alpha_app = -math.expm1(-dt / APP_TAU_S)
    alpha_bpp = -math.expm1(-dt / BPP_TAU_S)
    alpha_steer = -math.expm1(-dt / STEER_TAU_S)
    k_app = app_k(app_pct)
    k_bpp = bpp_k(bpp_pct)
    braking = bpp_pct > BRAKE_ACTIVE_PCT
    if steer_duty > DEADBAND_HI:
        steer_target = steer_k(min(STEER_DUTY_MAX, max(STEER_DUTY_MIN, steer_duty)))
    elif steer_duty < DEADBAND_LO:
        steer_target = -steer_k(min(STEER_DUTY_MAX, max(STEER_DUTY_MIN, 100.0 - steer_duty)))
    else:
        steer_target = None

    speed, decel, counts = state.speed_mph, state.decel, state.steer_counts
    heading, p_n, p_e = state.heading_rad, state.p_n, state.p_e
    for _ in range(n_ticks):
        decel = decel + alpha_bpp * (k_bpp - decel)
        if braking:
            speed = speed + decel * DECEL_TO_MPH_S * dt
        else:
            speed = speed + alpha_app * (k_app - speed)
        if speed < 0.0:
            speed = 0.0
        if steer_target is not None:
            counts = counts + alpha_steer * (steer_target - counts)
        v_ms = speed * MPH_TO_MPS
        delta = counts / COUNTS_PER_RAD / STEER_RATIO
        heading = heading + v_ms / WHEELBASE_M * math.tan(delta) * dt
        p_n = p_n + v_ms * math.cos(heading) * dt
        p_e = p_e + v_ms * math.sin(heading) * dt
    return VehicleState(speed, decel, counts, heading, p_n, p_e)


def _outcome(run):
    """float.hex of the six state fields, or the type of the error raised."""
    try:
        s = run()
    except ValueError as exc:  # tan or cos of an infinite angle
        return type(exc)
    return tuple(float.hex(x) for x in (s.speed_mph, s.decel, s.steer_counts,
                                        s.heading_rad, s.p_n, s.p_e))


_EDGES = st.sampled_from([0.0, -0.0, 1e308, -1e308, INF, -INF, NAN])
_STATE = st.builds(
    VehicleState,
    speed_mph=st.one_of(st.floats(0.0, 400.0), _EDGES),
    # bpp_k(0.0) is the released brake's settled decel, where a rest chunk is a fixed point
    decel=st.one_of(st.floats(-20.0, 5.0), _EDGES, st.just(bpp_k(0.0))),
    # a zero or a subnormal count is a straight wheel: its tan is a zero
    steer_counts=st.one_of(st.floats(-4000.0, 4000.0),
                           st.sampled_from([0.0, -0.0, 5e-324, -5e-324, INF, NAN])),
    heading_rad=st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, INF, NAN])),
    p_n=st.one_of(st.floats(-1e4, 1e4), _EDGES),
    p_e=st.one_of(st.floats(-1e4, 1e4), _EDGES),
)
# pedals off, pressed, braking and out of range; duties held, steering both ways, out of range
_PEDAL = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 100.0, -5.0, 150.0, NAN]),
                   st.floats(0.0, 100.0))
_DUTY = st.one_of(st.sampled_from([50.0, 45.0, 55.0, 44.9, 55.1, 64.0, 36.0, -1.0, 120.0, NAN]),
                  st.floats(0.0, 100.0))
_DT = st.sampled_from([0.001, 0.0005, 0.002, 0.01, 0.1, 0.0, -1.0, INF, NAN])
#: straight wheels drawn on purpose: a zero count and a held duty
_STRAIGHT = st.tuples(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(45.0, 55.0))


@settings(deadline=None, max_examples=1000)
@given(state=_STATE, app=_PEDAL, bpp=_PEDAL, duty=_DUTY, n_ticks=st.integers(0, 60), dt=_DT,
       straight=st.one_of(st.none(), _STRAIGHT))
# straight wheels: -0.0 heading, -0.0 and 0.0 counts, moving and at rest
@example(state=VehicleState(10.0, -0.3768, -0.0, -0.0, 0.0, 0.0),
         app=20.0, bpp=0.0, duty=50.0, n_ticks=5, dt=0.001, straight=None)
@example(state=VehicleState(10.0, -0.3768, 0.0, -0.0, -0.0, -0.0),
         app=20.0, bpp=0.0, duty=50.0, n_ticks=5, dt=0.001, straight=None)
@example(state=VehicleState(0.0, -0.3768, -0.0, -0.0, -0.0, -0.0),
         app=0.0, bpp=0.0, duty=50.0, n_ticks=5, dt=0.001, straight=None)
# non-finite speed, decel and dt on straight wheels
@example(state=VehicleState(INF, -0.3768, 0.0, 0.5, 0.0, 0.0),
         app=20.0, bpp=0.0, duty=50.0, n_ticks=3, dt=0.001, straight=None)
@example(state=VehicleState(NAN, -0.3768, 0.0, 0.5, 0.0, 0.0),
         app=20.0, bpp=0.0, duty=50.0, n_ticks=3, dt=0.001, straight=None)
@example(state=VehicleState(10.0, INF, 0.0, 0.5, 0.0, 0.0),
         app=0.0, bpp=30.0, duty=50.0, n_ticks=3, dt=0.001, straight=None)
@example(state=VehicleState(10.0, NAN, 0.0, 0.5, 0.0, 0.0),
         app=0.0, bpp=30.0, duty=50.0, n_ticks=3, dt=0.001, straight=None)
@example(state=VehicleState(10.0, 1e308, 0.0, 0.5, 0.0, 0.0),  # speed overflows mid-chunk
         app=0.0, bpp=30.0, duty=50.0, n_ticks=10, dt=0.001, straight=None)
@example(state=VehicleState(10.0, -0.3768, 0.0, 0.5, 0.0, 0.0),
         app=20.0, bpp=0.0, duty=50.0, n_ticks=3, dt=INF, straight=None)
@example(state=VehicleState(10.0, -0.3768, 0.0, 0.5, 0.0, 0.0),
         app=20.0, bpp=0.0, duty=50.0, n_ticks=3, dt=NAN, straight=None)
@example(state=VehicleState(INF, -0.3768, 0.0, INF, 0.0, 0.0),  # cos(inf) is never reached
         app=20.0, bpp=0.0, duty=50.0, n_ticks=3, dt=0.001, straight=None)
@example(state=VehicleState(10.0, -0.3768, 0.0, INF, 0.0, 0.0),
         app=20.0, bpp=0.0, duty=50.0, n_ticks=3, dt=0.001, straight=None)
@example(state=VehicleState(10.0, -0.3768, INF, 0.0, 0.0, 0.0),
         app=20.0, bpp=0.0, duty=50.0, n_ticks=0, dt=0.001, straight=None)
# 60-tick chunks at rest, where a tick that changes no bit ends the chunk:
# a -0.0 speed turns 0.0 on the first tick, and so does a -0.0 position
# where the step v * cos * dt is +0.0; a nan decel; a throttle that
# clamps to a settle speed of 0 (2.0) beside one that moves (3.0); braking
@example(state=VehicleState(-0.0, -0.3768, 0.0, 0.0, 0.0, 0.0),
         app=0.0, bpp=0.0, duty=50.0, n_ticks=60, dt=0.001, straight=None)
@example(state=VehicleState(0.0, -0.3768, 0.0, 0.0, -0.0, -0.0),
         app=0.0, bpp=0.0, duty=50.0, n_ticks=60, dt=0.001, straight=None)
@example(state=VehicleState(0.0, -0.3768, 0.0, 3.0, -0.0, -0.0),
         app=0.0, bpp=0.0, duty=50.0, n_ticks=60, dt=0.001, straight=None)
@example(state=VehicleState(0.0, NAN, 0.0, 0.0, 0.0, 0.0),
         app=0.0, bpp=0.0, duty=50.0, n_ticks=60, dt=0.001, straight=None)
@example(state=VehicleState(0.0, -0.3768, 0.0, 0.0, 0.0, 0.0),
         app=2.0, bpp=0.0, duty=50.0, n_ticks=60, dt=0.001, straight=None)
@example(state=VehicleState(0.0, -0.3768, 0.0, 0.0, 0.0, 0.0),
         app=3.0, bpp=0.0, duty=50.0, n_ticks=60, dt=0.001, straight=None)
@example(state=VehicleState(0.0, -0.3768, 0.0, 0.0, 0.0, 0.0),
         app=0.0, bpp=30.0, duty=50.0, n_ticks=60, dt=0.001, straight=None)
# straight and unbraked with the brake channel settled, decel == k_bpp, where a
# tick leaves decel as it is: released at rest and moving, a light brake below
# BRAKE_ACTIVE_PCT and one at it; then decel one ulp off k_bpp, which a tick
# moves once alpha_bpp is past one half (dt 0.5 s)
@example(state=VehicleState(0.0, bpp_k(0.0), 0.0, 0.0, 0.0, 0.0),
         app=30.0, bpp=0.0, duty=50.0, n_ticks=60, dt=0.001, straight=None)
@example(state=VehicleState(12.0, bpp_k(0.0), 0.0, 0.7, 3.0, -4.0),
         app=30.0, bpp=0.0, duty=50.0, n_ticks=60, dt=0.001, straight=None)
@example(state=VehicleState(12.0, bpp_k(0.5), 0.0, 0.7, 3.0, -4.0),
         app=30.0, bpp=0.5, duty=50.0, n_ticks=60, dt=0.001, straight=None)
@example(state=VehicleState(12.0, bpp_k(BRAKE_ACTIVE_PCT), 0.0, 0.7, 3.0, -4.0),
         app=30.0, bpp=BRAKE_ACTIVE_PCT, duty=50.0, n_ticks=60, dt=0.01, straight=None)
@example(state=VehicleState(12.0, math.nextafter(bpp_k(0.0), 0.0), 0.0, 0.7, 3.0, -4.0),
         app=30.0, bpp=0.0, duty=50.0, n_ticks=3, dt=0.5, straight=None)
def test_advance_equals_the_per_tick_loop(state, app, bpp, duty, n_ticks, dt, straight):
    if straight is not None:
        state.steer_counts, duty = straight
    plant = VehiclePlant(dataclasses.replace(state))
    expected = _outcome(lambda: reference_advance(state, app, bpp, duty, n_ticks, dt))
    assert _outcome(lambda: plant.advance(app, bpp, duty, n_ticks, dt)) == expected


@pytest.mark.parametrize("duty, counts, speed, app",
                         [(58.0, 0.0, 12.0, 40.0), (50.0, 1234.5, 12.0, 40.0),
                          (50.0, 0.0, 12.0, 40.0), (50.0, 0.0, 0.0, 2.0)],
                         ids=["steering", "held", "straight", "rest"])
def test_fused_equals_split(duty, counts, speed, app):
    # one advance(n=500) must equal 500 single steps exactly
    start = VehicleState(speed, -0.3768, counts, 0.3, 0.0, 0.0)
    a = VehiclePlant(dataclasses.replace(start))
    b = VehiclePlant(dataclasses.replace(start))
    a.advance(app, 0.0, duty, 500, 0.001)
    for _ in range(500):
        b.advance(app, 0.0, duty, 1, 0.001)
    assert _outcome(lambda: a.state) == _outcome(lambda: b.state)
    if speed:
        assert a.state.p_n != start.p_n
    else:  # a fixed point: nothing moves, to the bit
        assert _outcome(lambda: a.state) == _outcome(lambda: start)


def _advance_lines(plant: VehiclePlant, *args) -> int:
    """Line events VehiclePlant.advance traces over one call with args."""
    code, lines = VehiclePlant.advance.__code__, 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code is not code:
            return None
        lines += event == "line"
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        plant.advance(*args)
    finally:
        sys.settrace(old)
    return lines


def test_a_rest_chunk_costs_one_tick():
    # at rest under a throttle that cannot move the car, a 1,000-tick chunk
    # runs the lines a 2-tick one does, and still ends where 1,000 ticks do
    short, long = VehiclePlant(), VehiclePlant()
    assert _advance_lines(long, 2.0, 0.0, 50.0, 1000, 0.001) == \
        _advance_lines(short, 2.0, 0.0, 50.0, 2, 0.001)
    expected = _outcome(lambda: reference_advance(VehicleState.at_rest(), 2.0, 0.0, 50.0,
                                                  1000, 0.001))
    assert _outcome(lambda: long.state) == expected == _outcome(lambda: VehicleState.at_rest())
    # a throttle that moves the car runs every tick
    moving = VehiclePlant()
    assert _advance_lines(moving, 3.0, 0.0, 50.0, 1000, 0.001) > 1000


def test_backend_reported():
    assert _kernels.BACKEND == "pure"


def test_speed_floor():
    plant = VehiclePlant(VehicleState(0.5, -0.3768, 0.0, 0.0, 0.0, 0.0))
    out = plant.advance(0.0, 80.0, 50.0, 5000, 0.001)
    assert out.speed_mph == 0.0


def test_deadband_freezes_counts():
    plant = VehiclePlant(VehicleState(10.0, -0.3768, 1234.5, 0.0, 0.0, 0.0))
    out = plant.advance(20.0, 0.0, 50.0, 100, 0.001)
    assert out.steer_counts == 1234.5
