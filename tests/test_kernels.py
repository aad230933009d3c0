"""Backend equivalence for the per-tick vehicle update.

The compiled extension must be a drop-in for the pure module: identical
floats, not merely close ones, so scenario logs stay byte-stable no
matter which backend got imported.
"""

import math
import os
import random
import subprocess
import sys

import pytest

from evsim import _kernels
from evsim._kernels import pure
from evsim.plant import DEFAULT_PARAMS, VehiclePlant

try:
    from evsim._kernels import _speedups as compiled
except ImportError:
    compiled = None

#: Backends present in this build; the pure one always is.
IMPLS = (pure,) if compiled is None else (pure, compiled)

needs_compiled = pytest.mark.skipif(compiled is None, reason="compiled kernel not built")


def _random_inputs(rng):
    app = rng.uniform(0.0, 100.0)
    bpp = rng.choice([0.0, rng.uniform(0.0, 100.0)])
    duty = rng.uniform(37.0, 64.0) if rng.random() < 0.8 else 50.0
    return app, bpp, duty


@needs_compiled
def test_bit_identity_random_walks():
    plant = VehiclePlant()
    params = plant._kernel_params(0.001)
    rng = random.Random(1234)
    state_a = (0.0, -0.3768, 0.0, 0.0, 0.0, 0.0)
    state_b = state_a
    for _ in range(200):
        app, bpp, duty = _random_inputs(rng)
        n = rng.randint(1, 50)
        state_a = pure.advance(state_a, app, bpp, duty, n, params)
        state_b = compiled.advance(state_b, app, bpp, duty, n, params)
        assert state_a == state_b  # exact, not approx

    # states must also be reproducible bit-for-bit from the repr strings
    assert tuple(float(repr(x)) for x in state_a) == state_a


@needs_compiled
def test_bit_identity_across_dt():
    plant = VehiclePlant()
    rng = random.Random(99)
    for dt in (0.001, 0.01, 0.025):
        params = plant._kernel_params(dt)
        state = (12.0, -1.0, 400.0, 0.3, 5.0, -2.0)
        for _ in range(50):
            app, bpp, duty = _random_inputs(rng)
            assert pure.advance(state, app, bpp, duty, 7, params) == \
                compiled.advance(state, app, bpp, duty, 7, params)
            state = pure.advance(state, app, bpp, duty, 7, params)


def test_fused_equals_split():
    # one advance(n=500) must equal 500 single steps exactly
    a = VehiclePlant()
    b = VehiclePlant()
    a.advance(40.0, 0.0, 58.0, 500, 0.001)
    for _ in range(500):
        b.advance(40.0, 0.0, 58.0, 1, 0.001)
    assert a.state.as_tuple() == b.state.as_tuple()


def test_pure_env_override():
    code = (
        "from evsim import _kernels; print(_kernels.BACKEND)"
    )
    env = dict(os.environ, EVSIM_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "pure"


def test_backend_reported():
    assert _kernels.BACKEND in ("pure", "compiled")


def test_speed_floor_in_both():
    plant = VehiclePlant()
    params = plant._kernel_params(0.001)
    state = (0.5, -0.3768, 0.0, 0.0, 0.0, 0.0)
    for impl in IMPLS:
        out = impl.advance(state, 0.0, 80.0, 50.0, 5000, params)
        assert out[0] == 0.0


def test_deadband_freezes_counts_in_both():
    plant = VehiclePlant()
    params = plant._kernel_params(0.001)
    state = (10.0, -0.3768, 1234.5, 0.0, 0.0, 0.0)
    for impl in IMPLS:
        out = impl.advance(state, 20.0, 0.0, 50.0, 100, params)
        assert out[2] == 1234.5
