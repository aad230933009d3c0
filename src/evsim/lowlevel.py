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

from .canbus import OutOfRangeError
from .plant import (APP_GAIN, APP_OFFSET, BPP_CONST, BPP_LIN, BPP_QUAD, BPP_VERTEX_PCT,
                    DEADBAND_HI, DEADBAND_LO, STEER_CONST, STEER_DUTY_MAX, STEER_DUTY_MIN,
                    STEER_LIN, STEER_QUAD, app_k, bpp_k, steer_k)


class UnachievableError(ValueError):
    """Demand outside what the actuator map can reach."""


class GainsNotFiniteError(ValueError):
    """The loop spec is so extreme that a designed gain overflows."""


@dataclass(frozen=True)
class LoopSpec:
    """Channel lag plus the target closed-loop damping and time constant."""

    tau_channel_s: float
    zeta: float
    tau_target_s: float

    def __post_init__(self):
        for name in ("tau_channel_s", "zeta", "tau_target_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")


@dataclass(frozen=True)
class PiGains:
    kp: float
    ki: float


def design_pi(spec: LoopSpec) -> PiGains:
    # zeta * tau_target may underflow to 0; the gains then overflow below
    damping_time = spec.zeta * spec.tau_target_s
    omega_n = 1.0 / damping_time if damping_time else math.inf
    kp = 2.0 * spec.zeta * omega_n * spec.tau_channel_s - 1.0
    ki = spec.tau_channel_s * omega_n * omega_n
    if not (math.isfinite(kp) and math.isfinite(ki)):
        raise GainsNotFiniteError(
            f"gains overflow for tau_channel_s={spec.tau_channel_s!r}, zeta={spec.zeta!r}, "
            f"tau_target_s={spec.tau_target_s!r}: kp = {kp!r}, ki = {ki!r}")
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

#: Setpoint weight that cancels the accel loop's closed-loop zero.
ACCEL_B = ACCEL_GAINS.ki * ACCEL_SPEC.tau_target_s / ACCEL_GAINS.kp
#: Speed error that must be crossed before the pedal mode switches.
HYSTERESIS_MPH = 0.5


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

def invert_k_app(settle_mph: float) -> float:
    """Accelerator position whose settle speed is the demand, clamped to [0, 100]."""
    pct = (settle_mph - APP_OFFSET) / APP_GAIN
    return min(100.0, max(0.0, pct))


def invert_k_bpp(decel: float) -> float:
    """Brake position for a demanded deceleration (larger quadratic root).

    The identified curve peaks (weakest braking) at its vertex; demands
    weaker than that are unreachable by any pedal position and raise.
    Demands stronger than the 100% value also raise.
    """
    a, b, c = BPP_QUAD, BPP_LIN, BPP_CONST
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


#: Settle counts at the ends of the steering curve's rising branch.
STEER_COUNTS_FLOOR = steer_k(STEER_DUTY_MIN)
STEER_COUNTS_CEIL = steer_k(STEER_DUTY_MAX)


def invert_k_steer(counts: float) -> float:
    """Torque duty settling at the demanded counts, on the rising branch.

    Demands below the curve floor saturate to the vertex duty; demands
    above the 64% value saturate to 64.  Negative targets belong to the
    mirrored branch and are handled by steer_duty_command.
    """
    a, b, c = STEER_QUAD, STEER_LIN, STEER_CONST
    counts = min(STEER_COUNTS_CEIL, max(STEER_COUNTS_FLOOR, counts))
    disc = max(b * b - 4.0 * a * (c - counts), 0.0)  # exact-floor rounding guard
    duty = (-b + math.sqrt(disc)) / (2.0 * a)
    return min(STEER_DUTY_MAX, max(STEER_DUTY_MIN, duty))


# --- torque deadband ------------------------------------------------------------

#: Working duty window of the compensator.  Its top is the plant's duty
#: ceiling and the dead zone it skips is the plant's DEADBAND_LO..DEADBAND_HI.
DUTY_MIN = 37.0
DUTY_CENTER = 50.0


def deadband_compensate(duty_pct: float) -> float:
    """Remap a commanded duty so the torque deadband is skipped.

    Commands above center stretch linearly onto (DEADBAND_HI,
    STEER_DUTY_MAX]; commands below center onto [DUTY_MIN, DEADBAND_LO);
    center passes through unchanged, preserving the hold-angle behavior.
    """
    if not DUTY_MIN <= duty_pct <= STEER_DUTY_MAX:
        raise OutOfRangeError(f"duty {duty_pct} outside [{DUTY_MIN}, {STEER_DUTY_MAX}]")
    if duty_pct > DUTY_CENTER:
        span = STEER_DUTY_MAX - DUTY_CENTER
        return DEADBAND_HI + (duty_pct - DUTY_CENTER) / span * (STEER_DUTY_MAX - DEADBAND_HI)
    if duty_pct < DUTY_CENTER:
        span = DUTY_CENTER - DUTY_MIN
        return DEADBAND_LO - (DUTY_CENTER - duty_pct) / span * (DEADBAND_LO - DUTY_MIN)
    return DUTY_CENTER


# --- longitudinal (speed) controller --------------------------------------------

class LongitudinalController:
    """Speed loop with a latched accelerator/brake mode switch.

    The accelerator PI demands a settle speed and the brake PI a
    deceleration; each demand is pushed through the inverse actuator map
    to a pedal position.  The mode latch switches only when the speed
    error crosses the hysteresis band, and both integrators reset on a
    switch so the incoming loop starts clean.
    """

    def __init__(self):
        self.accel_pi = PiLoop(ACCEL_GAINS, (APP_OFFSET, app_k(100.0)))
        self.brake_pi = PiLoop(BRAKE_GAINS, (bpp_k(100.0), bpp_k(BPP_VERTEX_PCT)))
        self.mode = "accel"

    def step(self, speed_ref_mph: float, speed_mph: float, dt: float) -> tuple[float, float]:
        """Returns (app_pct, bpp_pct); exactly one of them is nonzero."""
        error = speed_ref_mph - speed_mph
        if self.mode == "accel" and error < -HYSTERESIS_MPH:
            self.mode = "brake"
            self.accel_pi.reset()
            self.brake_pi.reset()
        elif self.mode == "brake" and error > HYSTERESIS_MPH:
            self.mode = "accel"
            self.accel_pi.reset()
            self.brake_pi.reset()
        if self.mode == "accel":
            p_error = ACCEL_B * speed_ref_mph - speed_mph
            u = self.accel_pi.step(error, dt, p_error)
            return invert_k_app(u), 0.0
        u = self.brake_pi.step(error, dt)
        return 0.0, invert_k_bpp(u)


# --- lateral (steering) controller -----------------------------------------------

class LateralController:
    """Steering-angle loop commanding raw duty ahead of the compensator.

    The PI demands settle counts; steer_duty_command maps the demand to
    the duty whose deadband-compensated image settles there, so the
    compensator and the command map cancel to rounding error.
    """

    def __init__(self):
        hi = STEER_COUNTS_CEIL
        # mirrored branch is narrower: DUTY_MIN maps to 100 - DUTY_MIN
        lo = -steer_k(100.0 - DUTY_MIN)
        self.pi = PiLoop(STEER_GAINS, (lo, hi))

    def achievable_counts(self) -> tuple[float, float]:
        return self.pi.output_limits

    def steer_duty_command(self, counts_demand: float) -> float:
        """Raw duty (pre-compensation) whose settle counts match the demand."""
        if counts_demand == 0.0:
            return DUTY_CENTER
        if counts_demand > 0.0:
            duty_active = invert_k_steer(counts_demand)
            span = STEER_DUTY_MAX - DUTY_CENTER
            return DUTY_CENTER + (duty_active - DEADBAND_HI) / (STEER_DUTY_MAX - DEADBAND_HI) * span
        duty_active = min(invert_k_steer(-counts_demand), 100.0 - DUTY_MIN)
        mirrored = 100.0 - duty_active
        span = DUTY_CENTER - DUTY_MIN
        return DUTY_CENTER - (DEADBAND_LO - mirrored) / (DEADBAND_LO - DUTY_MIN) * span

    def step(self, counts_ref: float, counts: float, dt: float) -> float:
        """Returns the raw steering duty to put on the wire."""
        u = self.pi.step(counts_ref - counts, dt)
        return self.steer_duty_command(u)
