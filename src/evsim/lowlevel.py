"""PI gain design and the three actuation loops.

Each loop wraps one identified first-order channel.  Gains come from
pole placement on the closed loop

  kp = 2*zeta*omega_n*tau_channel - 1,  ki = tau_channel*omega_n**2

with omega_n = 1 / (zeta * tau_target), so a critically damped design
(zeta = 1) puts both poles at -1/tau_target.

The speed loop uses setpoint weighting on the proportional term
(weight b = ki*tau_target/kp, integral still acts on the true error).
With b = 1 the closed loop (kp*s + ki) / (tau*(s + 1/tau_target)^2) has
a zero that produces overshoot and an early 63.2% crossing; the chosen
b cancels that zero against one pole so the reference response is
exactly first order with time constant tau_target.  The brake and
steering loops drive a channel that is not the controlled output
itself, where the cancellation does not apply, so they stay plain PI.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import plant as plant_mod
from .canbus import OutOfRangeError
from .plant import PlantParams, DEFAULT_PARAMS, app_k, bpp_k, steer_k


class UnachievableError(ValueError):
    """Demand outside what the actuator map can reach."""


@dataclass(frozen=True)
class LoopSpec:
    """Channel lag plus the target closed-loop damping and time constant."""

    tau_channel_s: float
    zeta: float
    tau_target_s: float


@dataclass(frozen=True)
class PiGains:
    kp: float
    ki: float


def design_pi(spec: LoopSpec) -> PiGains:
    omega_n = 1.0 / (spec.zeta * spec.tau_target_s)
    kp = 2.0 * spec.zeta * omega_n * spec.tau_channel_s - 1.0
    ki = spec.tau_channel_s * omega_n * omega_n
    return PiGains(kp, ki)


def closed_loop_poles(gains: PiGains, tau_channel_s: float) -> tuple[complex, complex]:
    """Roots of tau*s^2 + (1 + kp)*s + ki."""
    b = 1.0 + gains.kp
    disc = cmath.sqrt(b * b - 4.0 * tau_channel_s * gains.ki)
    return ((-b + disc) / (2.0 * tau_channel_s),
            (-b - disc) / (2.0 * tau_channel_s))


ACCEL_SPEC = LoopSpec(7.0, 1.0, 0.5)
BRAKE_SPEC = LoopSpec(0.3, 1.0, 0.5)
STEER_SPEC = LoopSpec(0.2, 1.0, 1.0 / 3.0)

ACCEL_GAINS = design_pi(ACCEL_SPEC)   # (27, 28)
BRAKE_GAINS = design_pi(BRAKE_SPEC)   # (0.2, 1.2)
STEER_GAINS = design_pi(STEER_SPEC)   # (0.2, 1.8)


def pi_step(error: float, integral: float, gains: PiGains, dt: float,
            out_lo: float, out_hi: float,
            p_error: float | None = None) -> tuple[float, float]:
    """One PI update with clamping anti-windup.

    When the output saturates, the integral is back-calculated so the
    unsaturated sum sits exactly on the limit.  p_error, when given,
    feeds only the proportional term (setpoint weighting); the integral
    always accumulates the true error.
    """
    if p_error is None:
        p_error = error
    integral = integral + error * dt
    out = gains.kp * p_error + gains.ki * integral
    if out > out_hi:
        integral = (out_hi - gains.kp * p_error) / gains.ki
        out = out_hi
    elif out < out_lo:
        integral = (out_lo - gains.kp * p_error) / gains.ki
        out = out_lo
    return out, integral


class PiLoop:
    """Stateful wrapper around pi_step."""

    def __init__(self, gains: PiGains, output_limits: tuple[float, float]):
        lo, hi = output_limits
        if lo >= hi:
            raise ValueError("output limits must satisfy lo < hi")
        self.gains = gains
        self.output_limits = output_limits
        self.integral = 0.0
        self.last_output = 0.0

    def reset(self) -> None:
        self.integral = 0.0
        self.last_output = 0.0

    def step(self, error: float, dt: float, p_error: float | None = None) -> float:
        lo, hi = self.output_limits
        out, self.integral = pi_step(error, self.integral, self.gains, dt, lo, hi, p_error)
        self.last_output = out
        return out


# --- actuator map inversions --------------------------------------------------

def invert_k_app(settle_mph: float, params: PlantParams = DEFAULT_PARAMS) -> float:
    """Accelerator position whose settle speed is the demand, clamped to [0, 100]."""
    pct = (settle_mph - params.app_offset) / params.app_gain
    return min(100.0, max(0.0, pct))


def invert_k_bpp(decel: float, params: PlantParams = DEFAULT_PARAMS) -> float:
    """Brake position for a demanded deceleration (larger quadratic root).

    The identified curve peaks (weakest braking) at its vertex; demands
    weaker than that are unreachable by any pedal position and raise.
    Demands stronger than the 100% value also raise.
    """
    a, b, c = params.bpp_quad, params.bpp_lin, params.bpp_const
    disc = b * b - 4.0 * a * (c - decel)
    if disc < 0.0:
        # demands at the exact vertex can land a rounding error below zero
        if disc < -1e-12:
            raise UnachievableError(f"deceleration {decel} weaker than any brake press")
        disc = 0.0
    pct = (b + math.sqrt(disc)) / (2.0 * -a)
    if pct > 100.0:
        raise UnachievableError(f"deceleration {decel} beyond full brake")
    return pct


def invert_k_steer(counts: float, params: PlantParams = DEFAULT_PARAMS) -> float:
    """Torque duty settling at the demanded counts, on the rising branch.

    Demands below the curve floor saturate to the vertex duty; demands
    above the 64% value saturate to 64.  Negative targets belong to the
    mirrored branch and are handled by steer_duty_command.
    """
    a, b, c = params.steer_quad, params.steer_lin, params.steer_const
    lo = params.steer_duty_min
    floor = steer_k(lo, params)
    ceil = steer_k(params.steer_duty_max, params)
    counts = min(ceil, max(floor, counts))
    disc = max(b * b - 4.0 * a * (c - counts), 0.0)  # exact-floor rounding guard
    duty = (-b + math.sqrt(disc)) / (2.0 * a)
    return min(params.steer_duty_max, max(lo, duty))


# --- torque deadband ------------------------------------------------------------

@dataclass(frozen=True)
class DeadbandParams:
    """Working duty window and the dead zone the rack ignores."""

    duty_min: float = 37.0
    duty_max: float = 64.0
    dead_lo: float = 45.0
    dead_hi: float = 55.0
    center: float = 50.0


DEFAULT_DEADBAND = DeadbandParams()


def deadband_compensate(duty_pct: float, db: DeadbandParams = DEFAULT_DEADBAND) -> float:
    """Remap a commanded duty so the torque deadband is skipped.

    Commands above center stretch linearly onto (dead_hi, duty_max];
    commands below center onto [duty_min, dead_lo); center passes
    through unchanged, preserving the hold-angle behavior.
    """
    if not db.duty_min <= duty_pct <= db.duty_max:
        raise OutOfRangeError(f"duty {duty_pct} outside [{db.duty_min}, {db.duty_max}]")
    if duty_pct > db.center:
        span = db.duty_max - db.center
        return db.dead_hi + (duty_pct - db.center) / span * (db.duty_max - db.dead_hi)
    if duty_pct < db.center:
        span = db.center - db.duty_min
        return db.dead_lo - (db.center - duty_pct) / span * (db.dead_lo - db.duty_min)
    return db.center


# --- longitudinal (speed) controller --------------------------------------------

class LongitudinalController:
    """Speed loop with a latched accelerator/brake mode switch.

    The accelerator PI demands a settle speed and the brake PI a
    deceleration; each demand is pushed through the inverse actuator map
    to a pedal position.  The mode latch switches only when the speed
    error crosses the hysteresis band, and both integrators reset on a
    switch so the incoming loop starts clean.
    """

    def __init__(self, params: PlantParams = DEFAULT_PARAMS,
                 accel_gains: PiGains = ACCEL_GAINS,
                 brake_gains: PiGains = BRAKE_GAINS,
                 hysteresis_mph: float = 0.5,
                 accel_spec: LoopSpec = ACCEL_SPEC):
        self.params = params
        self.hysteresis_mph = hysteresis_mph
        self.accel_pi = PiLoop(accel_gains, (params.app_offset,
                                             app_k(100.0, params)))
        brake_floor = bpp_k(100.0, params)
        brake_vertex_pct = -params.bpp_lin / (2.0 * params.bpp_quad)
        self.brake_pi = PiLoop(brake_gains, (brake_floor,
                                             bpp_k(brake_vertex_pct, params)))
        # weight that cancels the accel loop's closed-loop zero
        self.accel_b = accel_gains.ki * accel_spec.tau_target_s / accel_gains.kp
        self.mode = "accel"

    def reset(self) -> None:
        self.accel_pi.reset()
        self.brake_pi.reset()
        self.mode = "accel"

    def step(self, speed_ref_mph: float, speed_mph: float, dt: float) -> tuple[float, float]:
        """Returns (app_pct, bpp_pct); exactly one of them is nonzero."""
        error = speed_ref_mph - speed_mph
        if self.mode == "accel" and error < -self.hysteresis_mph:
            self.mode = "brake"
            self.accel_pi.reset()
            self.brake_pi.reset()
        elif self.mode == "brake" and error > self.hysteresis_mph:
            self.mode = "accel"
            self.accel_pi.reset()
            self.brake_pi.reset()
        if self.mode == "accel":
            p_error = self.accel_b * speed_ref_mph - speed_mph
            u = self.accel_pi.step(error, dt, p_error)
            return invert_k_app(u, self.params), 0.0
        u = self.brake_pi.step(error, dt)
        return 0.0, invert_k_bpp(u, self.params)


# --- lateral (steering) controller -----------------------------------------------

class LateralController:
    """Steering-angle loop commanding raw duty ahead of the compensator.

    The PI demands settle counts; steer_duty_command maps the demand to
    the duty whose deadband-compensated image settles there, so the
    compensator and the command map cancel to rounding error.
    """

    def __init__(self, params: PlantParams = DEFAULT_PARAMS,
                 gains: PiGains = STEER_GAINS,
                 db: DeadbandParams = DEFAULT_DEADBAND):
        self.params = params
        self.db = db
        hi = steer_k(params.steer_duty_max, params)
        # mirrored branch is narrower: duty_min maps to 100 - duty_min
        lo = -steer_k(100.0 - db.duty_min, params)
        self.pi = PiLoop(gains, (lo, hi))

    def reset(self) -> None:
        self.pi.reset()

    def achievable_counts(self) -> tuple[float, float]:
        return self.pi.output_limits

    def steer_duty_command(self, counts_demand: float) -> float:
        """Raw duty (pre-compensation) whose settle counts match the demand."""
        db = self.db
        if counts_demand == 0.0:
            return db.center
        if counts_demand > 0.0:
            duty_active = invert_k_steer(counts_demand, self.params)
            span = db.duty_max - db.center
            return db.center + (duty_active - db.dead_hi) / (db.duty_max - db.dead_hi) * span
        duty_active = min(invert_k_steer(-counts_demand, self.params), 100.0 - db.duty_min)
        mirrored = 100.0 - duty_active
        span = db.center - db.duty_min
        return db.center - (db.dead_lo - mirrored) / (db.dead_lo - db.duty_min) * span

    def step(self, counts_ref: float, counts: float, dt: float) -> float:
        """Returns the raw steering duty to put on the wire."""
        u = self.pi.step(counts_ref - counts, dt)
        return self.steer_duty_command(u)
