"""Per-tick vehicle update: the plant's hot loop.

``advance`` runs the first-order actuator channels and the kinematic
bicycle pose for a span of physics ticks with held inputs.  Its
expression ordering is part of the reference output: the golden digests
in ``tests/golden/manifest.json`` pin every float it produces, so a
reordered product or sum shows up there.
"""

from math import tan, sin, cos

# params tuple layout, packed by VehiclePlant._kernel_params:
#  0 app_gain         1 app_offset
#  2 bpp_quad         3 bpp_lin          4 bpp_const
#  5 steer_quad       6 steer_lin        7 steer_const
#  8 steer_duty_lo    9 steer_duty_hi
# 10 deadband_lo     11 deadband_hi
# 12 brake_active    13 alpha_app       14 alpha_bpp      15 alpha_steer
# 16 decel_to_mph_s  17 dt_s
# 18 counts_per_rad  19 steer_ratio     20 wheelbase_m    21 mph_to_ms


def advance(state, app_pct, bpp_pct, steer_duty, n, params):
    """Advance the six-element vehicle state by n physics ticks.

    state = (speed_mph, decel, steer_counts, heading_rad, p_n, p_e) with
    the three actuator inputs held constant across the span.  Each tick
    applies the exact first-order channel updates and then the kinematic
    bicycle pose update using the post-update speed and steering angle.
    """
    speed = state[0]
    decel = state[1]
    counts = state[2]
    heading = state[3]
    p_n = state[4]
    p_e = state[5]

    app_gain = params[0]
    app_offset = params[1]
    bpp_quad = params[2]
    bpp_lin = params[3]
    bpp_const = params[4]
    steer_quad = params[5]
    steer_lin = params[6]
    steer_const = params[7]
    steer_duty_lo = params[8]
    steer_duty_hi = params[9]
    deadband_lo = params[10]
    deadband_hi = params[11]
    brake_active = params[12]
    alpha_app = params[13]
    alpha_bpp = params[14]
    alpha_steer = params[15]
    decel_to_mph_s = params[16]
    dt = params[17]
    counts_per_rad = params[18]
    steer_ratio = params[19]
    wheelbase = params[20]
    mph_to_ms = params[21]

    k_app = app_gain * app_pct + app_offset
    if k_app < 0.0:
        k_app = 0.0
    k_bpp = (bpp_quad * bpp_pct) * bpp_pct + bpp_lin * bpp_pct + bpp_const
    braking = bpp_pct > brake_active

    if steer_duty > deadband_hi:
        d = steer_duty
        if d < steer_duty_lo:
            d = steer_duty_lo
        if d > steer_duty_hi:
            d = steer_duty_hi
        steer_target = (steer_quad * d) * d + steer_lin * d + steer_const
        steer_mode = 1
    elif steer_duty < deadband_lo:
        d = 100.0 - steer_duty
        if d < steer_duty_lo:
            d = steer_duty_lo
        if d > steer_duty_hi:
            d = steer_duty_hi
        steer_target = -((steer_quad * d) * d + steer_lin * d + steer_const)
        steer_mode = 1
    else:
        steer_target = 0.0
        steer_mode = 0

    for _ in range(n):
        decel = decel + alpha_bpp * (k_bpp - decel)
        if braking:
            speed = speed + decel * decel_to_mph_s * dt
        else:
            speed = speed + alpha_app * (k_app - speed)
        if speed < 0.0:
            speed = 0.0
        if steer_mode:
            counts = counts + alpha_steer * (steer_target - counts)
        v_ms = speed * mph_to_ms
        delta = counts / counts_per_rad / steer_ratio
        heading = heading + v_ms / wheelbase * tan(delta) * dt
        p_n = p_n + v_ms * cos(heading) * dt
        p_e = p_e + v_ms * sin(heading) * dt

    return (speed, decel, counts, heading, p_n, p_e)


#: Name of the kernel implementation, stamped into benchmark reports.
BACKEND = "pure"

__all__ = ["advance", "BACKEND"]
