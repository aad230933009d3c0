"""The paper's step test, repeated on what the bus carries.

The paper identified each actuated channel of the test vehicle as a
first-order lag from a step test, and designed the speed and steering
loops from those lags.  Here an accelerator step and a steering step run
through run_until, as press_recording drives its pedal phases, and the
response is read back from the broadcasts alone: the speed from the 0x75
frames with decode_speed, the steering angle from the 0x10 counts.  A
least-squares fit of K * (1 - exp(-t / tau)) must give back the plant's
calibration, and design_pi on the fitted lag the designed gains.

The tolerance.  A reading is the plant's value rounded to the broadcast's
quantum q (1/54 mph for the speed, one count for the steering), so it is
off by at most q/2.  To first order, reading errors e move the fitted
parameters by P @ e, where P is the pseudo-inverse of the fit's Jacobian
at the frame times; over every |e_i| <= q/2 the worst case is
q/2 * sum(|P_row|).  That bound is the tolerance of each parameter.  The
frames come every h = 10 ms, and a reading one frame late delays the
whole response by h, which moves the fitted tau by about h.  So the tau
bound must stay under h/2: the step test then places the lag to within
half a frame period, and a broadcast that reads the plant late fails it.
design_pi is linear in tau (kp = 2*zeta*omega*tau - 1, ki = omega**2 * tau,
omega = 1 / (zeta * tau_target)), so the gains' tolerances are the tau
bound times 2*zeta*omega and omega**2.
"""

import struct

import numpy as np
import pytest
from scipy.optimize import least_squares

from evsim import canbus
from evsim.canbus import CanBus, decode_speed
from evsim.lowlevel import (ACCEL_GAINS, ACCEL_SPEC, STEER_GAINS, STEER_SPEC, LoopSpec,
                            design_pi)
from evsim.plant import APP_TAU_S, STEER_TAU_S, SimulatedEcus, VehiclePlant, app_k, steer_k
from evsim.scenario import run_until

FRAME_US = 10_000
STEP_AT_US = 1_000_000
PHYS_US = 1_000


def _step_test(arb_id, before, after, end_us, read):
    """Readings of arb_id's broadcast from the step on, as (seconds since the step, value).

    The plant holds the inputs before until STEP_AT_US and after from
    then to end_us, on 1 ms physics ticks; arb_id is the one broadcast.
    """
    plant = VehiclePlant()
    bus = CanBus()
    SimulatedEcus(plant, schedule={arb_id: FRAME_US}).attach(bus)
    readings = []
    bus.add_listener(lambda frame, source: readings.append((frame.timestamp_us, read(frame))),
                     ids=(arb_id,))
    run_until(bus, plant, lambda: before, 0, STEP_AT_US, PHYS_US, PHYS_US / 1e6)
    run_until(bus, plant, lambda: after, STEP_AT_US, end_us, PHYS_US, PHYS_US / 1e6)
    bus.step(end_us)
    t_us = np.array([t for t, _ in readings])
    values = np.array([value for _, value in readings], float)
    since = t_us >= STEP_AT_US
    return (t_us[since] - STEP_AT_US) / 1e6, values[since]


def _fit_lag(t_s, y, quantum):
    """(k, tau) of k * (1 - exp(-t / tau)) fitted to y, and each one's worst-case shift
    from reading errors of up to quantum / 2, to first order."""
    def lag(k, tau):
        return -k * np.expm1(-t_s / tau)

    # started from the readings alone: the final value, and the time to 63% of it
    start = (y[-1], t_s[np.argmax(y >= 0.63 * y[-1])])
    k, tau = least_squares(lambda p: lag(*p) - y, start).x
    jacobian = np.column_stack([-np.expm1(-t_s / tau), -k * t_s / tau**2 * np.exp(-t_s / tau)])
    return (k, tau), quantum / 2 * np.abs(np.linalg.pinv(jacobian)).sum(axis=1)


def _check_lag_and_gains(fitted, bounds, k, tau, spec, gains):
    (k_fit, tau_fit), (k_tol, tau_tol) = fitted, bounds
    assert tau_tol < FRAME_US / 1e6 / 2, "the step test does not resolve half a frame period"
    assert abs(k_fit - k) <= k_tol
    assert abs(tau_fit - tau) <= tau_tol
    omega = 1.0 / (spec.zeta * spec.tau_target_s)
    redesigned = design_pi(LoopSpec(tau_fit, spec.zeta, spec.tau_target_s))
    assert abs(redesigned.kp - gains.kp) <= 2.0 * spec.zeta * omega * tau_tol
    assert abs(redesigned.ki - gains.ki) <= omega**2 * tau_tol


class TestStepTest:
    def test_accelerator_step_recovers_the_lag_and_the_speed_gains(self):
        # a 30% press settles near 100 mph; a smaller one leaves the tau bound
        # above half a frame period (0.0087 s for the recordings' 15% press)
        app_pct = 30.0
        t_s, mph = _step_test(canbus.SPEED_ID, (0.0, 0.0, 50.0), (app_pct, 0.0, 50.0),
                              STEP_AT_US + 35_000_000, decode_speed)
        # every reading lies on the 1/54 mph grid the tolerance rests on
        counts = mph * 54
        assert np.abs(counts - np.round(counts)).max() < 1e-6
        _check_lag_and_gains(*_fit_lag(t_s, mph, 1 / 54), app_k(app_pct), APP_TAU_S,
                             ACCEL_SPEC, ACCEL_GAINS)
        assert (ACCEL_GAINS.kp, ACCEL_GAINS.ki) == pytest.approx((27.0, 28.0))

    def test_steering_step_recovers_the_lag_and_the_steering_gains(self):
        duty = 60.0
        t_s, counts = _step_test(canbus.STEERING_ID, (0.0, 0.0, 50.0), (0.0, 0.0, duty),
                                 STEP_AT_US + 1_500_000,
                                 lambda frame: struct.unpack(">h6x", frame.data)[0])
        _check_lag_and_gains(*_fit_lag(t_s, counts, 1), steer_k(duty), STEER_TAU_S,
                             STEER_SPEC, STEER_GAINS)
        assert (STEER_GAINS.kp, STEER_GAINS.ki) == pytest.approx((0.2, 1.8))
