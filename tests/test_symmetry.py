"""Exact symmetries of the discrete flow on fixed cases.

The reduced equations commute with a rotation and a reflection of the
base circle and with the scaling (f, g, t) -> (lam f, lam g, lam^4 t).
The discrete flow keeps all three bit for bit: the stencil sees a
rotated grid as the same grid, the centred difference of a reversed
array is the reversed difference negated (so w changes sign, and w^2 and
D w do not), and for lam = 2 every scaling is a power of two, exact in
floating point (w and D w do not change, the right-hand side scales by
2^-3 and stable_dt by 2^4). So a rotated, reflected or scaled run must
end on the rotated, reflected or scaled final state exactly, after the
same number of steps. Unlike a comparison with stored outputs, this
guard survives any change to the stencil or the step rule that keeps the
symmetries.
"""

import functools

import numpy as np
import pytest

from xcflow import BundleKind, FlowConfig, MetricProfile, evolve

from conftest import TWO_PI

N = 128
SHIFT = 37
SCALE = 2.0  # t scales by SCALE**4 = 16
# (kind, epsilon, t_end, record_every)
CASES = {
    "sphere": (BundleKind.SPHERE, 0.0, 3.0, 0.03),
    "torus-eps0": (BundleKind.TORUS, 0.0, 1.0, 0.01),
    "torus-eps1e-2": (BundleKind.TORUS, 1e-2, 1.0, 0.01),
}


def initial(scale=1.0, shift=0):
    x = np.arange(N) * (TWO_PI / N)
    f = 1.0 + 0.05 * np.cos(2.0 * x)
    g = 2.0 + 0.1 * np.sin(x) + 0.03 * np.cos(3.0 * x)
    return MetricProfile(N, TWO_PI, 0.0, scale * np.roll(f, -shift), scale * np.roll(g, -shift))


def run(case, profile, time_scale=1.0):
    """(final profile, steps) of the case's run from profile, its times scaled."""
    kind, eps, t_end, every = CASES[case]
    config = FlowConfig(kind=kind, t_end=time_scale * t_end, epsilon=eps,
                        record_every=time_scale * every)
    final, summary = evolve(profile, config)
    return final, summary.steps


@functools.cache
def base_run(case):
    return run(case, initial())


@pytest.mark.parametrize("case", CASES)
def test_rotation_is_exact(case):
    final, steps = base_run(case)
    rotated, rotated_steps = run(case, initial(shift=SHIFT))
    assert rotated_steps == steps
    assert np.array_equal(rotated.f, np.roll(final.f, -SHIFT))
    assert np.array_equal(rotated.g, np.roll(final.g, -SHIFT))


@pytest.mark.parametrize("case", CASES)
def test_reflection_is_exact(case):
    final, steps = base_run(case)
    start = initial()
    reflected, reflected_steps = run(
        case, MetricProfile(N, TWO_PI, 0.0, start.f[::-1], start.g[::-1])
    )
    assert reflected_steps == steps
    assert np.array_equal(reflected.f, final.f[::-1])
    assert np.array_equal(reflected.g, final.g[::-1])


@pytest.mark.parametrize("case", CASES)
def test_scaling_is_exact(case):
    final, steps = base_run(case)
    scaled, scaled_steps = run(case, initial(scale=SCALE), time_scale=SCALE**4)
    assert scaled_steps == steps
    assert scaled.t == SCALE**4 * final.t
    assert np.array_equal(scaled.f, SCALE * final.f)
    assert np.array_equal(scaled.g, SCALE * final.g)
