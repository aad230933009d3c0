"""Flatness-based path follower.

The planar kinematics are differentially flat in the position outputs:
commanding a ground velocity u makes position a single integrator, so a
target trajectory (position + velocity) can be followed with

  u = u_target - K * (p - p_target)

where K comes from an LQR on the integrator error dynamics.  The
velocity command splits into a speed demand |u| for the longitudinal
loop and a heading demand atan2(u_e, u_n); the steering-angle target is
a gain on the heading error.

Targets replay from a fixed-rate table with sample-and-hold, wrapping
at the table period, so a closed path loops forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .plant import COUNTS_PER_RAD, MPS_TO_MPH, STEER_RATIO, WHEELBASE_M

#: Nominal slot of a generated oval table: the follower's 10 Hz period.
OVAL_SLOT_S = 0.1
#: Largest oval table make_oval builds: a 10,000 s lap, about 0.4 s to build.
MAX_OVAL_SAMPLES = 100_000

#: Steering shaping calibrated on the reference two-lap 20 mph oval by
#: scripts/calibrate_follower.py: counts per radian of heading error, and
#: how far ahead the turn-rate feedforward reads the target table.
K_HEADING = 6000.0
PREVIEW_S = 0.5


class NonMonotoneTimeError(ValueError):
    """Target sample times must be strictly increasing and evenly spaced."""


class SingularRError(ValueError):
    """Control weight R must be positive definite."""


class OvalError(ValueError):
    """Oval geometry that no target table can be built for."""


def wrap_to_pi(angle_rad: float) -> float:
    """Wrap an angle to [-pi, pi]."""
    return math.atan2(math.sin(angle_rad), math.cos(angle_rad))


@dataclass(frozen=True)
class TargetSample:
    t_s: float
    p_n: float
    p_e: float
    v_n: float
    v_e: float


class TargetPath:
    """Evenly sampled target trajectory replayed with sample-and-hold.

    The replay period is N*dt (one slot per sample), so the wrap is
    seamless when the path closes on itself.
    """

    def __init__(self, samples: Sequence[TargetSample]):
        samples = list(samples)
        if not samples:
            raise ValueError("target path needs at least one sample")
        if samples[0].t_s != 0.0:
            raise NonMonotoneTimeError("target path must start at t = 0")
        if len(samples) > 1:
            dt = samples[1].t_s - samples[0].t_s
            if dt <= 0:
                raise NonMonotoneTimeError("sample times must be strictly increasing")
            for i in range(1, len(samples)):
                step = samples[i].t_s - samples[i - 1].t_s
                if step <= 0:
                    raise NonMonotoneTimeError(
                        f"sample times must be strictly increasing at index {i}")
                if abs(step - dt) > 1e-9 * max(1.0, dt):
                    raise NonMonotoneTimeError(
                        f"sample spacing must be even: {step} vs {dt} at index {i}")
            self.dt_s = dt
        else:
            self.dt_s = 0.1
        self.samples = samples

    def __len__(self):
        return len(self.samples)

    @property
    def period_s(self) -> float:
        return len(self.samples) * self.dt_s

    def sample_at(self, t_s: float) -> TargetSample:
        """Held sample for time t, wrapping at the period."""
        if t_s < 0:
            raise ValueError("replay time must be non-negative")
        idx = int(t_s / self.dt_s) % len(self.samples)
        return self.samples[idx]

    def position_at(self, t_s: float, held: bool = True) -> tuple[float, float]:
        """Target position at t; held=False interpolates within the slot."""
        s = self.sample_at(t_s)
        if held:
            return (s.p_n, s.p_e)
        frac = t_s % self.period_s - s.t_s
        return (s.p_n + s.v_n * frac, s.p_e + s.v_e * frac)


def save_path(path: TargetPath, file) -> None:
    """Write ``t p_n p_e v_n v_e`` rows; repr keeps the floats exact."""
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    fh = open(file, "w", encoding="ascii") if own else file
    try:
        fh.write("# t_s p_n p_e v_n v_e\n")
        for s in path.samples:
            fh.write(f"{s.t_s!r} {s.p_n!r} {s.p_e!r} {s.v_n!r} {s.v_e!r}\n")
    finally:
        if own:
            fh.close()


def load_path(file) -> TargetPath:
    """Read the save_path format; commas and extra whitespace are tolerated.

    Raises ValueError naming the line of a malformed row, nan and inf included.
    """
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    fh = open(file, "r", encoding="ascii") if own else file
    try:
        samples = []
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.replace(",", " ").split()
            if len(fields) != 5:
                raise ValueError(f"line {line_no}: expected 5 fields, got {len(fields)}")
            try:
                values = [float(x) for x in fields]
            except ValueError:
                raise ValueError(f"line {line_no}: bad number") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"line {line_no}: a value is not finite")
            samples.append(TargetSample(*values))
        return TargetPath(samples)
    finally:
        if own:
            fh.close()


def oval_lap_s(straight_m: float, radius_m: float, speed_mps: float) -> float:
    """Lap time of the stadium track; OvalError if it cannot be tabulated."""
    if straight_m < 0 or radius_m <= 0 or speed_mps <= 0:
        raise OvalError("straight >= 0, radius > 0, speed > 0 required")
    perimeter = 2.0 * straight_m + 2.0 * math.pi * radius_m
    lap_s = perimeter / speed_mps
    if not lap_s / OVAL_SLOT_S <= MAX_OVAL_SAMPLES:
        raise OvalError(f"lap time {lap_s:g} s is too long: {perimeter:g} m at {speed_mps:g} m/s"
                        f" needs more than {MAX_OVAL_SAMPLES} samples")
    return lap_s


def make_oval(straight_m: float, radius_m: float, speed_mps: float) -> TargetPath:
    """Stadium track: two straights joined by semicircles, driven clockwise.

    Starts at the origin heading north (+n).  The sample count is the
    nearest integer to lap_time / OVAL_SLOT_S and dt is stretched so the
    table period equals the lap time exactly, making the wrap seamless.
    """
    lap_s = oval_lap_s(straight_m, radius_m, speed_mps)
    n = max(1, round(lap_s / OVAL_SLOT_S))
    dt = lap_s / n
    s1 = straight_m
    s2 = straight_m + math.pi * radius_m
    s3 = 2.0 * straight_m + math.pi * radius_m
    samples = []
    for k in range(n):
        t = k * dt
        s = speed_mps * t
        if s < s1:
            pn, pe, psi = s, 0.0, 0.0
        elif s < s2:
            phi = (s - s1) / radius_m
            pn = s1 + radius_m * math.sin(phi)
            pe = radius_m - radius_m * math.cos(phi)
            psi = phi
        elif s < s3:
            d = s - s2
            pn, pe, psi = s1 - d, 2.0 * radius_m, math.pi
        else:
            phi = (s - s3) / radius_m
            pn = -radius_m * math.sin(phi)
            pe = radius_m + radius_m * math.cos(phi)
            psi = math.pi + phi
        samples.append(TargetSample(t, pn, pe,
                                    speed_mps * math.cos(psi),
                                    speed_mps * math.sin(psi)))
    return TargetPath(samples)


# --- LQR on the flat error dynamics ------------------------------------------

def _as_pair(value, name: str) -> tuple[float, float]:
    if isinstance(value, (int, float)):
        return (float(value), float(value))
    pair = tuple(float(x) for x in value)
    if len(pair) != 2:
        raise ValueError(f"{name} must be a scalar or a pair of diagonal entries")
    return pair


def care_solution(q, r) -> tuple[float, float]:
    """Riccati solution for the planar integrator (A = 0, B = I).

    With diagonal weights the equation reduces to Q = P R^-1 P per axis,
    so P_ii = sqrt(Q_ii * R_ii) in closed form.
    """
    qd = _as_pair(q, "q")
    rd = _as_pair(r, "r")
    if min(rd) <= 0.0:
        raise SingularRError(f"control weight must be positive definite, got {rd}")
    if min(qd) < 0.0:
        raise ValueError(f"state weight must be non-negative, got {qd}")
    return (math.sqrt(qd[0] * rd[0]), math.sqrt(qd[1] * rd[1]))


def riccati_residual(p, q, r) -> float:
    """Max-abs residual of Q - P R^-1 P (the steady equation for A=0, B=I)."""
    pd = _as_pair(p, "p")
    qd = _as_pair(q, "q")
    rd = _as_pair(r, "r")
    if min(rd) <= 0.0:
        raise SingularRError(f"control weight must be positive definite, got {rd}")
    return max(abs(qd[i] - pd[i] * pd[i] / rd[i]) for i in range(2))


def lqr_gain(q=1.0, r=1.0) -> tuple[float, float]:
    """Feedback gain K = R^-1 P per axis; identity weights give K = I."""
    p = care_solution(q, r)
    rd = _as_pair(r, "r")
    return (p[0] / rd[0], p[1] / rd[1])


def error_dynamics_check(gain: float = 1.0, duration_s: float = 5.0,
                         dt_s: float = 0.001) -> float:
    """Forward-Euler decay of the closed error dynamics vs the exponential.

    Integrates e' = -gain*e from 1 at the physics tick and returns the
    worst relative deviation from exp(-gain*t) over the run.
    """
    if gain <= 0:
        raise ValueError("gain must be positive for stable error dynamics")
    e = 1.0
    worst = 0.0
    steps = round(duration_s / dt_s)
    for k in range(1, steps + 1):
        e = e - gain * e * dt_s
        exact = math.exp(-gain * k * dt_s)
        worst = max(worst, abs(e - exact) / exact)
    return worst


# --- the follower --------------------------------------------------------------

@dataclass(frozen=True)
class FollowerGains:
    """Position feedback gains (per axis) and the steering-demand shaping.

    preview_s leads the turn-rate feedforward to cover the steering
    stage's response lag, so corners begin on time instead of late.
    """

    k_n: float = 1.0
    k_e: float = 1.0
    k_heading: float = K_HEADING
    preview_s: float = PREVIEW_S

    @classmethod
    def from_weights(cls, q=1.0, r=1.0, k_heading: float = K_HEADING,
                     preview_s: float = PREVIEW_S) -> "FollowerGains":
        k = lqr_gain(q, r)
        return cls(k[0], k[1], k_heading, preview_s)


@dataclass(frozen=True)
class FollowerCommand:
    speed_mph: float
    steer_counts: float


class PathFollower:
    """Velocity-field follower over a replayed target table.

    The steering demand is a turn-rate feedforward plus a proportional
    heading correction.  The feedforward inverts the bicycle kinematics
    for the target's own turn rate, recovered by differencing the
    velocity directions of adjacent samples, so a constant-curvature
    segment needs no standing heading error to hold its arc.

    heading_mode "relative" corrects the wrapped heading error (the
    normal closed-loop choice); "absolute" scales the raw demanded
    heading instead, for rigs whose steering stage closes its own
    heading loop.
    """

    def __init__(self, path: TargetPath, gains: FollowerGains = FollowerGains(),
                 heading_mode: str = "relative",
                 counts_limits: tuple[float, float] | None = None):
        if heading_mode not in ("relative", "absolute"):
            raise ValueError(f"heading_mode must be 'relative' or 'absolute', got {heading_mode!r}")
        self.path = path
        self.gains = gains
        self.heading_mode = heading_mode
        self.counts_limits = counts_limits

    def _feedforward_counts(self, t_s: float) -> float:
        lead = self.path.sample_at(t_s + self.gains.preview_s)
        nxt = self.path.sample_at(t_s + self.gains.preview_s + self.path.dt_s)
        speed = math.hypot(lead.v_n, lead.v_e)
        if speed <= 0.0 or nxt is lead:
            return 0.0
        turn = wrap_to_pi(math.atan2(nxt.v_e, nxt.v_n)
                          - math.atan2(lead.v_e, lead.v_n))
        rate = turn / self.path.dt_s
        delta = math.atan(WHEELBASE_M * rate / speed)
        return delta * STEER_RATIO * COUNTS_PER_RAD

    def step(self, t_s: float, p_n: float, p_e: float, heading_rad: float) -> FollowerCommand:
        target = self.path.sample_at(t_s)
        # the held sample's position is up to one slot stale by now; its
        # velocity carries it forward to the actual query time
        anchor_n, anchor_e = self.path.position_at(t_s, held=False)
        u_n = target.v_n - self.gains.k_n * (p_n - anchor_n)
        u_e = target.v_e - self.gains.k_e * (p_e - anchor_e)
        speed_mph = math.hypot(u_n, u_e) * MPS_TO_MPH
        heading_d = math.atan2(u_e, u_n)
        if self.heading_mode == "relative":
            counts = self.gains.k_heading * wrap_to_pi(heading_d - heading_rad)
        else:
            counts = self.gains.k_heading * heading_d
        counts += self._feedforward_counts(t_s)
        if self.counts_limits is not None:
            lo, hi = self.counts_limits
            counts = min(hi, max(lo, counts))
        return FollowerCommand(speed_mph, counts)
