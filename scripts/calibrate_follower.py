#!/usr/bin/env python3
"""Calibrate the follower's steering shaping on the reference oval.

Grid-search the heading gain and feedforward preview for the lowest
second-lap mean path error on the two-lap 20 mph oval, refine around
the winner, and print the values to set as follower.K_HEADING and
follower.PREVIEW_S.

Run from the repository root:

    PYTHONPATH=src python3 scripts/calibrate_follower.py
"""

import argparse
import json
import sys

from evsim import follower
from evsim import scenario as sc

OVAL = sc.OvalSpec(straight_m=100.0, radius_m=20.0, speed_mph=20.0)
DURATION_S = 72.8  # two laps of the reference oval at 10 Hz replay


def lap2_error(k_heading: float, preview_s: float) -> tuple[float, float, float]:
    scn = sc.Scenario(name="calibration", duration_s=DURATION_S, oval=OVAL,
                      k_heading=k_heading, preview_s=preview_s)
    m = sc.run_scenario(scn).metrics
    lap1 = m["lap_errors"]["1"]["mean_err_m"]
    lap2 = m["lap_errors"]["2"]
    return lap1, lap2["mean_err_m"], lap2["max_err_m"]


def search(verbose: bool = True) -> dict:
    coarse_k = (2000.0, 4000.0, 6000.0, 8000.0, 12000.0)
    coarse_p = (0.0, 0.2, 0.3, 0.4, 0.5, 0.6)
    best = None
    if verbose:
        print(f"{'k_heading':>10} {'preview_s':>10} {'lap1':>7} {'lap2':>7} {'max2':>7}")
    for k in coarse_k:
        for p in coarse_p:
            lap1, lap2, max2 = lap2_error(k, p)
            if verbose:
                print(f"{k:>10} {p:>10} {lap1:7.3f} {lap2:7.3f} {max2:7.3f}")
            if best is None or lap2 < best["lap2_mean_err_m"]:
                best = {"k_heading": k, "preview_s": p, "lap1_mean_err_m": lap1,
                        "lap2_mean_err_m": lap2, "lap2_max_err_m": max2}

    # refine around the coarse winner
    k0, p0 = best["k_heading"], best["preview_s"]
    for k in (k0 * f for f in (0.75, 0.875, 1.125, 1.25)):
        for p in (p0 - 0.1, p0 - 0.05, p0, p0 + 0.05, p0 + 0.1):
            if p < 0:
                continue
            lap1, lap2, max2 = lap2_error(k, p)
            if verbose:
                print(f"{k:>10} {round(p, 3):>10} {lap1:7.3f} {lap2:7.3f} {max2:7.3f}")
            if lap2 < best["lap2_mean_err_m"]:
                best = {"k_heading": k, "preview_s": round(p, 3),
                        "lap1_mean_err_m": lap1, "lap2_mean_err_m": lap2,
                        "lap2_max_err_m": max2}
    return best


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    best = search()
    print("\nwinner:", json.dumps(best, indent=2))
    print("\nset in src/evsim/follower.py "
          f"(now {follower.K_HEADING!r} and {follower.PREVIEW_S!r}):")
    print(f"K_HEADING = {best['k_heading']!r}")
    print(f"PREVIEW_S = {best['preview_s']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
