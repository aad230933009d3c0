"""Vehicle plant: first-order actuator channels, pose, sensors, stock ECUs.

Each actuated channel was identified as a first-order lag toward a
steady-state map K of the command:

  accelerator  K(app%)  = 3.65*app - 9.7        [mph]   tau = 7 s
  brake        K(bpp%)  = -0.0018*bpp^2 + 0.029*bpp - 0.3768  tau = 0.3 s
  steering     K(duty%) = 59.4*d^2 - 6802.7*d + 195084.5 [counts] tau = 0.2 s

The accelerator map clamps at zero (settle speed cannot be negative); the
brake map is a deceleration, independent of current speed; the steering
map is the fit above the torque deadband, valid from its vertex
(duty ~57.26) to 64, and the plant mirrors it for duties below the
deadband since the two PWM torque signals are complementary.  Commanded
duty inside the deadband [45, 55] holds the current angle.

State integrates on a fixed physics tick with the exact discretization
x += (1 - exp(-dt/tau)) * (K(u) - x), so constant-input trajectories
match the analytic exponential to rounding error at any tick size.

Pose is a kinematic bicycle: road-wheel angle = counts / counts_per_rad
/ steer_ratio, heading rate = v * tan(delta) / wheelbase.  The counts
scale is 2000 counts per half-turn of the steering wheel.

The calibration below was identified once on the test vehicle; every
module reads it from here, and VehiclePlant.advance reads it directly.
The float expressions in advance keep a fixed form and order: the
golden digests in tests/golden/manifest.json pin every value they
produce, so a reordered product or sum shows up there.

advance moves a chunk of ticks with held inputs, and computes once per
chunk what those inputs fix: the tan of a held steering angle, and with
straight wheels the cos and sin of a heading that cannot turn.  Each is
the value every tick would compute from the same operands, so the
result is bit for bit that of the plain per-tick loop, which
tests/test_kernels.py keeps as the reference.

A chunk on straight wheels can also sit at a fixed point: at rest under
a throttle whose settle speed is 0, with the brake released and its
channel settled, a tick gives back the very bits it was given.  With
the heading held, such a tick is a pure function of decel, speed, p_n
and p_e and of values the chunk fixes, so once one tick leaves those
four bit for bit unchanged (-0.0 is not 0.0), every later tick would
too, and advance skips them.  A chunk that starts at speed 0 runs one
tick alone to find out; a tick that changes anything sends the chunk on
as usual.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from typing import Callable

from . import canbus
from .canbus import OutOfRangeError

log = logging.getLogger(__name__)

MPH_TO_MPS = 0.44704
MPS_TO_MPH = 1.0 / MPH_TO_MPS


class OutOfDomainError(ValueError):
    """Input outside the identified curve's valid region."""


# --- identified calibration of the test vehicle -----------------------------

APP_GAIN = 3.65
APP_OFFSET = -9.7
APP_TAU_S = 7.0

BPP_QUAD = -0.0018
BPP_LIN = 0.029
BPP_CONST = -0.3768
BPP_TAU_S = 0.3
#: Brake position at the vertex of the brake curve: its weakest braking.
BPP_VERTEX_PCT = -BPP_LIN / (2.0 * BPP_QUAD)

STEER_QUAD = 59.4
STEER_LIN = -6802.7
STEER_CONST = 195084.5
STEER_TAU_S = 0.2
STEER_DUTY_MAX = 64.0
#: Vertex of the steering curve; below it the fit is not monotone.
STEER_DUTY_MIN = -STEER_LIN / (2.0 * STEER_QUAD)

#: Torque duty window the steering rack ignores.
DEADBAND_LO = 45.0
DEADBAND_HI = 55.0
#: Brake positions above this percent hand the speed to the brake channel.
BRAKE_ACTIVE_PCT = 1.0
#: The brake map's deceleration is in m/s^2; speed integrates in mph/s.
DECEL_TO_MPH_S = MPS_TO_MPH

WHEELBASE_M = 2.7
STEER_RATIO = 15.0
COUNTS_PER_RAD = 2000.0 / math.pi


@dataclass
class VehicleState:
    speed_mph: float = 0.0
    decel: float = 0.0
    steer_counts: float = 0.0
    heading_rad: float = 0.0
    p_n: float = 0.0
    p_e: float = 0.0

    @classmethod
    def at_rest(cls) -> "VehicleState":
        """Rest state: pedals released long enough for the channels to settle."""
        return cls(decel=bpp_k(0.0))


# --- steady-state maps -------------------------------------------------------

def app_k(app_pct: float) -> float:
    """Settle speed in mph for a held accelerator position, clamped at 0."""
    v = APP_GAIN * app_pct + APP_OFFSET
    return v if v > 0.0 else 0.0


def bpp_k(bpp_pct: float) -> float:
    """Settle deceleration for a held brake position (speed-independent)."""
    return (BPP_QUAD * bpp_pct) * bpp_pct + BPP_LIN * bpp_pct + BPP_CONST


def steer_k(duty_pct: float) -> float:
    """Settle steering angle in counts for a held torque duty.

    Valid only on the monotone branch of the identified curve, from the
    vertex (~57.26%) to the calibration maximum.
    """
    if not STEER_DUTY_MIN <= duty_pct <= STEER_DUTY_MAX:
        raise OutOfDomainError(f"steer duty {duty_pct} outside identified branch "
                               f"[{STEER_DUTY_MIN:.4f}, {STEER_DUTY_MAX}]")
    return (STEER_QUAD * duty_pct) * duty_pct + STEER_LIN * duty_pct + STEER_CONST


class FirstOrderChannel:
    """One first-order lag x -> K(u) with exact per-step discretization.

    Deliberately plain: this is the reference the fused VehiclePlant.advance
    is checked against in the tests.
    """

    def __init__(self, k_map: Callable[[float], float], tau_s: float, state: float = 0.0):
        if tau_s <= 0:
            raise ValueError("tau must be positive")
        self.k_map = k_map
        self.tau_s = tau_s
        self.state = state

    def step(self, u: float, dt: float) -> float:
        alpha = -math.expm1(-dt / self.tau_s)
        self.state = self.state + alpha * (self.k_map(u) - self.state)
        return self.state


# --- integrated plant ---------------------------------------------------------

#: decel, speed, p_n and p_e as bytes: equal bytes are the same float bits,
#: so -0.0 is not 0.0, and a nan matches only a nan with the same bits
_HELD_FIELDS = struct.Struct("4d")


class VehiclePlant:
    """Holds the vehicle state and advances it on the physics tick.

    advance runs a chunk of ticks with held inputs, with the three
    channel lags (alphas) cached per tick size, since a scenario sets
    its own physics_dt_s, and the terms the chunk holds fixed computed
    once per call.
    dynamics_step runs it and then restores the pose; pose_step is a
    plain pose update, kept as the reference that advance's fused pose
    arithmetic is tested against.
    """

    def __init__(self, state: VehicleState | None = None):
        self.state = state if state is not None else VehicleState.at_rest()
        self.last_inputs = (0.0, 0.0, 50.0)
        self._alpha_cache: dict[float, tuple] = {}

    def reset(self, state: VehicleState | None = None) -> None:
        self.state = state if state is not None else VehicleState.at_rest()
        self.last_inputs = (0.0, 0.0, 50.0)

    def _clamped_inputs(self, app_pct: float, bpp_pct: float, steer_duty: float) -> tuple:
        clamped = []
        for name, value in (("app_pct", app_pct), ("bpp_pct", bpp_pct),
                            ("steer_duty", steer_duty)):
            if not 0.0 <= value <= 100.0:
                fixed = min(100.0, max(0.0, value))
                log.warning("%s=%g outside [0, 100], clamped to %g", name, value, fixed)
                value = fixed
            clamped.append(value)
        return tuple(clamped)

    def advance(self, app_pct: float, bpp_pct: float, steer_duty: float,
                n_ticks: int, dt: float) -> VehicleState:
        """Advance n physics ticks with held inputs (the hot path).

        Each tick applies the exact first-order channel updates and then
        the kinematic bicycle pose update using the post-update speed
        and steering angle.  The loop runs in one of three bodies, chosen
        by what the held inputs fix for the whole chunk:

        - steering duty outside the deadband: every tick moves the
          angle, so it takes tan, cos and sin;
        - duty inside the deadband: the angle holds, so tan(delta) is
          the same every tick and is computed once.  If it is a zero
          (straight wheels) and the brake is off, the speed only blends
          toward the accelerator's settle speed, so from a finite speed
          and a finite dt >= 0 it stays finite; then the heading step
          v / wheelbase * tan * dt is a signed zero, and adding a zero
          leaves every heading but -0.0 as it is.  So for such a
          chunk cos and sin of the heading are computed once, and a tick
          updates only decel, speed, p_n and p_e.  Any other held chunk
          steps the heading every tick as written;
        - that straight, unbraked chunk with the brake channel settled
          (decel == k_bpp, the settle deceleration of the held brake):
          bpp_k is negative on [0, 100], so decel is no zero, and with
          0 <= alpha_bpp < 1 a tick's decel + alpha_bpp * 0.0 is decel.
          The channel stays put for the whole chunk, and a tick updates
          only speed, p_n and p_e.  An injection rig, whose brake
          stays released and whose wheels stay straight, runs every
          tick in this body.

        A tick of that last body is a pure function of decel, speed,
        p_n and p_e, so a chunk of it that starts at speed 0 runs one
        tick first: if that tick leaves all four bit for bit as they
        were, it is a fixed point, and the chunk's other ticks are
        skipped, since each would leave them as they are.  A rig at
        rest under a throttle that cannot move it costs one tick a
        chunk.
        """
        if not (0.0 <= app_pct <= 100.0 and 0.0 <= bpp_pct <= 100.0
                and 0.0 <= steer_duty <= 100.0):
            app_pct, bpp_pct, steer_duty = self._clamped_inputs(app_pct, bpp_pct, steer_duty)
        alphas = self._alpha_cache.get(dt)
        if alphas is None:
            alphas = (-math.expm1(-dt / APP_TAU_S), -math.expm1(-dt / BPP_TAU_S),
                      -math.expm1(-dt / STEER_TAU_S))
            if dt == dt:  # a nan key never matches, so storing it would add one per call
                self._alpha_cache[dt] = alphas
        alpha_app, alpha_bpp, alpha_steer = alphas

        k_app = APP_GAIN * app_pct + APP_OFFSET  # app_k and bpp_k, inlined
        if not k_app > 0.0:
            k_app = 0.0
        k_bpp = (BPP_QUAD * bpp_pct) * bpp_pct + BPP_LIN * bpp_pct + BPP_CONST
        braking = bpp_pct > BRAKE_ACTIVE_PCT
        if steer_duty > DEADBAND_HI:
            steer_target = steer_k(min(STEER_DUTY_MAX, max(STEER_DUTY_MIN, steer_duty)))
        elif steer_duty < DEADBAND_LO:
            steer_target = -steer_k(min(STEER_DUTY_MAX, max(STEER_DUTY_MIN, 100.0 - steer_duty)))
        else:
            steer_target = None  # inside the deadband the angle holds

        decel_to_mph_s, mph_to_ms, wheelbase = DECEL_TO_MPH_S, MPH_TO_MPS, WHEELBASE_M
        sin, cos = math.sin, math.cos
        st = self.state
        speed, decel, counts = st.speed_mph, st.decel, st.steer_counts
        heading, p_n, p_e = st.heading_rad, st.p_n, st.p_e
        if steer_target is not None:
            tan, counts_per_rad, steer_ratio = math.tan, COUNTS_PER_RAD, STEER_RATIO
            for _ in range(n_ticks):
                decel = decel + alpha_bpp * (k_bpp - decel)
                if braking:
                    speed = speed + decel * decel_to_mph_s * dt
                else:
                    speed = speed + alpha_app * (k_app - speed)
                if speed < 0.0:
                    speed = 0.0
                counts = counts + alpha_steer * (steer_target - counts)
                v_ms = speed * mph_to_ms
                delta = counts / counts_per_rad / steer_ratio
                heading = heading + v_ms / wheelbase * tan(delta) * dt
                p_n = p_n + v_ms * cos(heading) * dt
                p_e = p_e + v_ms * sin(heading) * dt
        elif n_ticks > 0:
            tan_delta = math.tan(counts / COUNTS_PER_RAD / STEER_RATIO)
            # speed - speed is 0.0 only for a finite speed; copysign tells 0.0
            # from -0.0 (cos of an infinite heading raises here, as on a tick)
            turning = not (tan_delta == 0.0 and not braking and 0.0 <= dt < math.inf
                           and speed - speed == 0.0
                           and (heading or math.copysign(1.0, heading) > 0.0))
            if not turning:
                cos_h, sin_h = cos(heading), sin(heading)
            # straight and unbraked, a settled brake channel stays put: k_bpp < 0,
            # so decel is not a zero, and decel + alpha_bpp * 0.0 is decel
            settled = not turning and decel == k_bpp
            # at rest on straight wheels, run one tick alone: if it leaves every
            # bit of decel, speed, p_n and p_e as it was, so would all the rest
            probe = not turning and speed == 0.0 and n_ticks > 1
            if probe:
                before = _HELD_FIELDS.pack(decel, speed, p_n, p_e)
            while n_ticks:
                span = 1 if probe else n_ticks
                if settled:
                    for _ in range(span):
                        speed = speed + alpha_app * (k_app - speed)
                        if speed < 0.0:
                            speed = 0.0
                        v_ms = speed * mph_to_ms
                        p_n = p_n + v_ms * cos_h * dt
                        p_e = p_e + v_ms * sin_h * dt
                else:
                    for _ in range(span):
                        decel = decel + alpha_bpp * (k_bpp - decel)
                        if braking:
                            speed = speed + decel * decel_to_mph_s * dt
                        else:
                            speed = speed + alpha_app * (k_app - speed)
                        if speed < 0.0:
                            speed = 0.0
                        v_ms = speed * mph_to_ms
                        if turning:
                            heading = heading + v_ms / wheelbase * tan_delta * dt
                            cos_h, sin_h = cos(heading), sin(heading)
                        p_n = p_n + v_ms * cos_h * dt
                        p_e = p_e + v_ms * sin_h * dt
                n_ticks -= span
                if probe:
                    if _HELD_FIELDS.pack(decel, speed, p_n, p_e) == before:
                        break
                    probe = False

        self.state = VehicleState(speed, decel, counts, heading, p_n, p_e)
        self.last_inputs = (app_pct, bpp_pct, steer_duty)
        return self.state

    def step(self, app_pct: float, bpp_pct: float, steer_duty: float,
             dt: float) -> VehicleState:
        """Single full tick: actuator dynamics then pose."""
        return self.advance(app_pct, bpp_pct, steer_duty, 1, dt)

    def dynamics_step(self, app_pct: float, bpp_pct: float, steer_duty: float,
                      dt: float) -> VehicleState:
        """Actuator channels only; position and heading stay put."""
        pose = (self.state.heading_rad, self.state.p_n, self.state.p_e)
        self.step(app_pct, bpp_pct, steer_duty, dt)
        self.state.heading_rad, self.state.p_n, self.state.p_e = pose
        return self.state

    def pose_step(self, dt: float) -> VehicleState:
        """Pose only, using current speed and steering angle."""
        v_ms = self.state.speed_mph * MPH_TO_MPS
        delta = self.state.steer_counts / COUNTS_PER_RAD / STEER_RATIO
        self.state.heading_rad = self.state.heading_rad + v_ms / WHEELBASE_M * math.tan(delta) * dt
        self.state.p_n = self.state.p_n + v_ms * math.cos(self.state.heading_rad) * dt
        self.state.p_e = self.state.p_e + v_ms * math.sin(self.state.heading_rad) * dt
        return self.state


# --- pedal and steering sensors ----------------------------------------------

# Emulated sensor spans; rest values match the unpressed pedals.
APP_V2_REST = 0.4
APP_V2_FULL = 2.0
BPP_DUTY_REST = 89.0
BPP_DUTY_SLOPE = 0.7
BPP_FREQ1_HZ = 533.0
BPP_FREQ2_HZ = 482.0
STEER_FREQ_HZ = 2150.0


@dataclass(frozen=True)
class SensorSignals:
    """Electrical picture the stock modules see for one command set."""

    app_v1: float
    app_v2: float
    bpp_duty1: float
    bpp_duty2: float
    steer_duty1: float
    steer_duty2: float
    bpp_freq1_hz: float
    bpp_freq2_hz: float
    steer_freq_hz: float


def sensors_from_inputs(app_pct: float, bpp_pct: float, steer_duty: float) -> SensorSignals:
    """Emulated sensor outputs for a command set.

    The accelerator is two DC voltages with channel 1 exactly twice
    channel 2; the brake is a complementary PWM pair resting at 89/11;
    steering torque is a complementary PWM pair resting at 50/50.  Both
    duty pairs sum to exactly 100 by construction.
    """
    for name, value in (("app_pct", app_pct), ("bpp_pct", bpp_pct),
                        ("steer_duty", steer_duty)):
        if not 0.0 <= value <= 100.0:
            raise OutOfRangeError(f"{name}={value} outside [0, 100]")
    v2 = APP_V2_REST + app_pct / 100.0 * (APP_V2_FULL - APP_V2_REST)
    bpp_duty1 = BPP_DUTY_REST - BPP_DUTY_SLOPE * bpp_pct
    return SensorSignals(
        app_v1=2.0 * v2,
        app_v2=v2,
        bpp_duty1=bpp_duty1,
        bpp_duty2=100.0 - bpp_duty1,
        steer_duty1=steer_duty,
        steer_duty2=100.0 - steer_duty,
        bpp_freq1_hz=BPP_FREQ1_HZ,
        bpp_freq2_hz=BPP_FREQ2_HZ,
        steer_freq_hz=STEER_FREQ_HZ,
    )


# --- stock ECU broadcasts ------------------------------------------------------

def _pct_byte(pct: float) -> int:
    """The byte of a pedal percentage, clamped to 0..255 by compares, cheaper than min/max."""
    value = round(pct * canbus.PCT_TO_BYTE)
    return value if 0 <= value <= 255 else (0 if value < 0 else 255)


#: The payloads of the pedal broadcasts (byte 1) and of the throttle command
#: (byte 4), one for each value of that byte; every other byte is zero.
_PEDAL_PAYLOADS = tuple(bytes([b]) + bytes(7) for b in range(256))
_THROTTLE_PAYLOADS = tuple(bytes(canbus.THROTTLE_BYTE_INDEX) + bytes([b])
                           + bytes(7 - canbus.THROTTLE_BYTE_INDEX) for b in range(256))
#: Steering counts as a signed big-endian 16-bit field, then six zero bytes.
_STEERING = struct.Struct(">h6x")


class SimulatedEcus:
    """Payload builders for the periodic broadcasts of the stock modules.

    The throttle command frame carries the driver pedal position, not the
    value the drive module ends up applying, so injected traffic never
    echoes back into the genuine broadcast.
    """

    def __init__(self, plant: VehiclePlant,
                 pedal_fn: Callable[[], tuple[float, float]] | None = None,
                 schedule: dict[int, int] | None = None):
        self.plant = plant
        pedal_fn = self.pedal_fn = pedal_fn or (
            lambda: (plant.last_inputs[0], plant.last_inputs[1]))
        self.schedule = dict(schedule) if schedule is not None else dict(canbus.DEFAULT_SCHEDULE)

        # payload builders (the now_us argument keeps the bus source signature);
        # closures over plant and pedal_fn, since bound methods in payload_fns
        # would make the ECUs a reference cycle that outlives every run
        def speed_payload(now_us: int) -> bytes:
            return canbus.speed_data(plant.state.speed_mph)

        def steering_payload(now_us: int) -> bytes:
            counts = round(plant.state.steer_counts)
            if not -32768 <= counts <= 32767:
                counts = -32768 if counts < 0 else 32767
            return _STEERING.pack(counts)

        def app_payload(now_us: int) -> bytes:
            return _PEDAL_PAYLOADS[_pct_byte(pedal_fn()[0])]

        def bpp_payload(now_us: int) -> bytes:
            return _PEDAL_PAYLOADS[_pct_byte(pedal_fn()[1])]

        def throttle_payload(now_us: int) -> bytes:
            return _THROTTLE_PAYLOADS[_pct_byte(pedal_fn()[0])]

        self.speed_payload = speed_payload
        self.steering_payload = steering_payload
        self.app_payload = app_payload
        self.bpp_payload = bpp_payload
        self.throttle_payload = throttle_payload
        #: what attach wires per id; wrap an entry (a tap, say) before attaching
        self.payload_fns: dict[int, Callable[[int], bytes]] = {
            canbus.SPEED_ID: speed_payload,
            canbus.STEERING_ID: steering_payload,
            canbus.APP_ID: app_payload,
            canbus.BPP_ID: bpp_payload,
            canbus.THROTTLE_ID: throttle_payload,
        }
        unknown = set(self.schedule) - set(self.payload_fns)
        if unknown:
            raise ValueError("no stock payload for scheduled id "
                             + ", ".join(f"0x{i:X}" for i in sorted(unknown)))

    def attach(self, bus: canbus.CanBus) -> None:
        for arb_id, period in self.schedule.items():
            bus.add_periodic(arb_id, period, self.payload_fns[arb_id], source="ecu")
