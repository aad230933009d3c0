"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they appear.  Each test prints its verdict with the key measured
numbers before asserting, so a red criterion still reports what it saw.
"""

import math
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from evsim import canbus, follower, lowlevel, recordings, revtools, scenario, serial_link
from evsim.canbus import CanFrame, CanTrace
from evsim.plant import VehiclePlant, VehicleState, bpp_k


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- 1. gain-table reproduction ----------------------------------------------

def test_criterion_01_gain_table():
    t0 = perf_counter()
    table = [
        (lowlevel.ACCEL_SPEC, (27.0, 28.0)),
        (lowlevel.BRAKE_SPEC, (0.2, 1.2)),
        (lowlevel.STEER_SPEC, (0.2, 1.8)),
    ]
    worst = 0.0
    for spec, (kp, ki) in table:
        gains = lowlevel.design_pi(spec)
        worst = max(worst, abs(gains.kp - kp), abs(gains.ki - ki))
    elapsed = perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"max gain deviation {worst:.2e} over 3 loops in {elapsed:.3f} s")


# --- 2. open-loop plant fidelity ---------------------------------------------

def test_criterion_02_plant_fidelity():
    t0 = perf_counter()
    dt = 1e-3

    # accelerator: 15% step from rest, settle speed within 1% by 35 s
    plant = VehiclePlant()
    plant.advance(15.0, 0.0, 50.0, 35_000, dt)
    v35 = plant.state.speed_mph
    app_ok = abs(v35 - 45.05) <= 0.01 * 45.05

    # brake: 15% step, decel settles at -0.3468 with a 0.3 s time constant
    plant = VehiclePlant()
    d0 = plant.state.decel
    plant.advance(0.0, 15.0, 50.0, 300, dt)
    d_tau = plant.state.decel
    expected_tau = -0.3468 + (d0 - -0.3468) * math.exp(-1.0)
    plant.advance(0.0, 15.0, 50.0, 4_700, dt)
    d_final = plant.state.decel
    bpp_ok = (abs(d_final - -0.3468) <= 1e-6
              and abs(d_tau - expected_tau) <= 1e-9 * abs(expected_tau))

    # decel trajectory must not depend on the speed it started from
    traces = []
    for v0 in (5.0, 10.0, 15.0, 20.0, 25.0):
        plant = VehiclePlant(state=VehicleState(speed_mph=v0, decel=bpp_k(0.0)))
        samples = []
        for _ in range(10):
            plant.advance(0.0, 15.0, 50.0, 500, dt)
            samples.append(plant.state.decel)
        traces.append(samples)
    spread = max(max(col) - min(col) for col in zip(*traces))

    elapsed = perf_counter() - t0
    ok = app_ok and bpp_ok and spread <= 1e-9 and elapsed < 5.0
    _report(2, ok, f"APP15 settles {v35:.3f} mph (45.05 +/-1%), "
                   f"decel {d_final:.7f} (-0.3468 +/-1e-6), "
                   f"speed-independence spread {spread:.1e}, {elapsed:.2f} s")


# --- 3. closed-loop speed step -----------------------------------------------

def test_criterion_03_closed_loop_step():
    plant = VehiclePlant()
    lon = lowlevel.LongitudinalController()
    dt = 0.01
    history = []
    for k in range(1200):
        app, bpp = lon.step(10.0, plant.state.speed_mph, dt)
        plant.step(app, bpp, 50.0, dt)
        history.append(((k + 1) * dt, plant.state.speed_mph))

    t63 = next(t for t, v in history if v >= 6.32)
    peak = max(v for _, v in history)
    tail_err = max(abs(10.0 - v) for t, v in history if t >= 10.0)
    ok = 0.45 <= t63 <= 0.55 and peak <= 10.0 + 1e-6 and tail_err < 0.01
    _report(3, ok, f"63.2% at {t63:.2f} s (0.5 +/-10%), peak {peak:.6f} mph "
                   f"(no overshoot), |e| max {tail_err:.2e} after 10 s")


# --- 4. deadband compensation ------------------------------------------------

def test_criterion_04_deadband():
    f = lowlevel.deadband_compensate
    exact = f(64.0) == 64.0 and f(37.0) == 37.0 and f(57.0) == 59.5 and f(43.5) == 41.0

    rng = random.Random(77)
    xs = sorted(rng.uniform(37.0, 64.0) for _ in range(10_000))
    ys = [f(x) for x in xs]
    monotone = all(y2 > y1 for (x1, y1), (x2, y2) in zip(zip(xs, ys), zip(xs[1:], ys[1:]))
                   if x2 > x1)
    ok = exact and monotone
    _report(4, ok, "endpoints 64/37 fixed, 57->59.5 and 43.5->41.0 exact, "
                   "strictly monotone over 10000 samples")


# --- 5. shadow-injection dominance -------------------------------------------

def test_criterion_05_injection_dominance():
    t0 = perf_counter()
    fast = dict(canbus.DEFAULT_SCHEDULE)
    fast[canbus.THROTTLE_ID] = 10_000  # 10 ms target period
    result = scenario.run_live_injection(
        2.0, scenario.ramp_bytes(0, 200, 5), delay_us=250, schedule=fast)
    speeds = [v for _, v in result.speed_series]
    nondecreasing = all(b >= a for a, b in zip(speeds, speeds[1:]))
    rising = speeds[-1] > speeds[0]
    elapsed = perf_counter() - t0
    ok = (result.dominance == Fraction(39, 40) and nondecreasing and rising
          and elapsed < 5.0)
    _report(5, ok, f"dominance {result.dominance} (= 97.5% of each 10 ms period), "
                   f"broadcast speed {speeds[0]:.2f} -> {speeds[-1]:.2f} mph "
                   f"nondecreasing, {elapsed:.2f} s")


# --- 6. bisection isolation --------------------------------------------------

def test_criterion_06_bisection():
    rng = random.Random(2024)
    hits = 0
    for _ in range(200):
        n = rng.randint(1, 128)
        ids = rng.sample(range(1, 0x7FF), n)
        planted = rng.choice(ids)
        trace = CanTrace([CanFrame(i, arb, b"\x00") for i, arb in enumerate(ids)])
        result = revtools.isolate_control_id(
            trace, lambda tr, p=planted: p in set(tr.ids()), confirm=False)
        if result.arb_id == planted and result.oracle_calls <= revtools.isolation_budget(n):
            hits += 1

    capture = recordings.press_recording()
    n_ids = len(capture.ids())
    e2e = revtools.isolate_control_id(
        capture, recordings.throttle_effect_oracle(), confirm=False)
    budget = revtools.isolation_budget(n_ids)
    e2e_ok = e2e.arb_id == canbus.THROTTLE_ID and e2e.oracle_calls <= budget

    ok = hits == 200 and e2e_ok
    _report(6, ok, f"{hits}/200 randomized instances within ceil(log2 n)+1 calls, "
                   f"end-to-end 0x{e2e.arb_id:X} from {n_ids} ids in "
                   f"{e2e.oracle_calls} calls (budget {budget})")


# --- 7. byte correlation ranking ---------------------------------------------

def test_criterion_07_correlation():
    trace, key = recordings.correlation_recording()
    report = revtools.correlate_bytes(trace)

    top = report.ranked[0]
    planted_ok = (top.arb_id, top.byte_index) == key["planted"] and abs(top.r) > 0.999

    excluded = {(i, b) for i, b, _ in report.excluded}
    constants_ok = all((cid, b) in excluded
                       for cid in key["constant_ids"] for b in range(8))

    actuator_rank = next(c.rank for c in report.ranked
                         if (c.arb_id, c.byte_index) == key["actuator"])
    ok = planted_ok and constants_ok and actuator_rank > 10
    _report(7, ok, f"planted 0x{top.arb_id:X}[{top.byte_index}] rank 1 "
                   f"r={top.r:+.5f}, constant ids fully excluded, "
                   f"slow-plant actuator byte rank {actuator_rank}")


# --- 8. serial frame integrity -----------------------------------------------

def _crc16_shift_register(data: bytes, init: int = 0xFFFF) -> int:
    crc = init
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def test_criterion_08_serial_protocol():
    check = serial_link.crc16_ccitt(b"123456789")
    crc_ok = check == 0x29B1 == _crc16_shift_register(b"123456789")

    rng = random.Random(4242)
    flips = 0
    detected = 0
    worst_err = 0.0
    for _ in range(100):
        app, bpp, steer = (rng.random() for _ in range(3))
        wire = serial_link.encode_packet(app, bpp, steer)
        back = serial_link.decode_packet(wire)
        worst_err = max(worst_err, abs(back.app - app), abs(back.bpp - bpp),
                        abs(back.steer - steer))
        for pos in range(len(wire)):
            for bit in range(8):
                corrupt = bytearray(wire)
                corrupt[pos] ^= 1 << bit
                flips += 1
                try:
                    serial_link.decode_packet(bytes(corrupt))
                except serial_link.FrameError:
                    detected += 1

    ok = crc_ok and detected == flips and worst_err <= 1.0 / 65535
    _report(8, ok, f"crc check 0x{check:04X} vs bitwise oracle, "
                   f"{detected}/{flips} single-bit flips detected, "
                   f"round-trip field error {worst_err:.2e} (<= 1/65535)")


# --- 9. LQR solution and ideal error decay -----------------------------------

def test_criterion_09_lqr():
    rng = random.Random(99)
    worst_residual = 0.0
    worst_scipy = 0.0
    for _ in range(100):
        q = (rng.uniform(0.1, 50.0), rng.uniform(0.1, 50.0))
        r = (rng.uniform(0.1, 50.0), rng.uniform(0.1, 50.0))
        p = follower.care_solution(q, r)
        worst_residual = max(worst_residual, follower.riccati_residual(p, q, r))
        ref = solve_continuous_are(np.zeros((2, 2)), np.eye(2), np.diag(q), np.diag(r))
        worst_scipy = max(worst_scipy,
                          abs(ref[0, 0] - p[0]), abs(ref[1, 1] - p[1]),
                          abs(ref[0, 1]), abs(ref[1, 0]))

    decay_dev = follower.error_dynamics_check(1.0, 5.0, 0.001)
    ok = worst_residual < 1e-9 and worst_scipy < 1e-9 and decay_dev < 0.01
    _report(9, ok, f"max Riccati residual {worst_residual:.1e}, "
                   f"max diff vs scipy ARE {worst_scipy:.1e}, "
                   f"error decay within {decay_dev:.4f} of exp(-t) (< 1%)")


# --- 10/11. two-lap track run and determinism --------------------------------

OVAL = scenario.Scenario("acceptance-oval", 72.8,
                         oval=scenario.OvalSpec(100.0, 20.0, 20.0))


@pytest.fixture(scope="module")
def oval_runs():
    t0 = perf_counter()
    first = scenario.run_scenario(OVAL)
    elapsed = perf_counter() - t0
    second = scenario.run_scenario(OVAL)
    return first, second, elapsed


def test_criterion_10_two_lap_tracking(oval_runs):
    first, _, elapsed = oval_runs
    laps = first.metrics["lap_errors"]
    lap1, lap2 = laps["1"]["mean_err_m"], laps["2"]["mean_err_m"]
    ok = lap2 <= lap1 and lap2 <= 0.5 and elapsed < 60.0
    _report(10, ok, f"lap means {lap1:.3f} m -> {lap2:.3f} m "
                    f"(improving, lap 2 <= 0.5 m), max {laps['2']['max_err_m']:.3f} m, "
                    f"{elapsed:.1f} s wall")


def _identical_logs(result_a, result_b, base: Path) -> bool:
    paths_a = scenario.emit_logs(result_a, base / "a")
    paths_b = scenario.emit_logs(result_b, base / "b")
    return all(paths_a[k].read_bytes() == paths_b[k].read_bytes() for k in paths_a)


def test_criterion_11_determinism(oval_runs, tmp_path):
    first, second, _ = oval_runs
    oval_ok = _identical_logs(first, second, tmp_path / "oval")

    hold = scenario.Scenario("acceptance-hold", 2.0, speed_ref_mph=10.0)
    hold_ok = _identical_logs(scenario.run_scenario(hold),
                              scenario.run_scenario(hold), tmp_path / "hold")

    def injection():
        return scenario.run_live_injection(1.0, scenario.ramp_bytes(0, 200, 10))

    run_a, run_b = injection(), injection()
    pa, pb = tmp_path / "inj_a.txt", tmp_path / "inj_b.txt"
    canbus.save_trace(run_a.trace, pa)
    canbus.save_trace(run_b.trace, pb)
    inj_ok = pa.read_bytes() == pb.read_bytes() and run_a.metrics() == run_b.metrics()

    ok = oval_ok and hold_ok and inj_ok
    _report(11, ok, "oval, speed-hold, and injection scenarios rerun "
                    "byte-identical (state.csv, trace.txt, metrics.json)")
