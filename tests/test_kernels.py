"""The per-tick vehicle update, VehiclePlant.advance.

The golden digests pin its floats end to end; these tests pin the
properties the plant relies on: a fused span equals the same ticks run
one at a time, speed floors at zero, and the deadband holds the angle.
"""

from evsim import _kernels
from evsim.plant import VehiclePlant, VehicleState


def test_fused_equals_split():
    # one advance(n=500) must equal 500 single steps exactly
    a = VehiclePlant()
    b = VehiclePlant()
    a.advance(40.0, 0.0, 58.0, 500, 0.001)
    for _ in range(500):
        b.advance(40.0, 0.0, 58.0, 1, 0.001)
    assert a.state == b.state


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
