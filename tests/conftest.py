import math

import numpy as np
import pytest

from xcflow import BundleKind, FlowConfig, MetricProfile, sinusoid_profile

TWO_PI = 2.0 * math.pi


def make_profile(n=256, period=TWO_PI, f=1.0, g=2.0, t=0.0):
    """Profile with scalar or array f/g samples."""
    f_arr = np.full(n, float(f)) if np.isscalar(f) else np.asarray(f, dtype=float)
    g_arr = np.full(n, float(g)) if np.isscalar(g) else np.asarray(g, dtype=float)
    return MetricProfile(n=n, period=period, t=t, f=f_arr, g=g_arr)


def random_trig_profile(rng, n=None, base_f=1.5, base_g=2.0, amp=0.1, modes=3):
    """Smooth positive periodic profile from a low-order trig polynomial."""
    if n is None:
        n = int(rng.integers(64, 257))
    x = np.arange(n) * (TWO_PI / n)

    def series(base):
        v = np.full(n, base)
        for k in range(1, modes + 1):
            a, b = rng.uniform(-amp / modes, amp / modes, 2)
            v += a * np.sin(k * x) + b * np.cos(k * x)
        return v

    return MetricProfile(n=n, period=TWO_PI, t=0.0, f=series(base_f), g=series(base_g))


def torus_fuzz_case(rng, sizes=(32, 64, 128)):
    """(profile, FlowConfig) of one harsh torus draw, the rng's calls in this order: n from
    sizes; g of five sine modes of random amplitude and phase, shifted to a minimum in
    [0.01, 0.5); f = 1 + a cos(kx), k in 1..3; eps in {0, 1e-3, 1e-1}; t_end in [0.05, 1)
    with ten record gaps."""
    n = int(rng.choice(sizes))
    x = np.arange(n) * (TWO_PI / n)
    g = np.zeros(n)
    for k in range(1, 6):
        g += rng.normal() * np.sin(k * x + rng.uniform(0.0, TWO_PI)) / k
    g += rng.uniform(0.01, 0.5) - g.min()
    f = 1.0 + rng.uniform(0.0, 0.5) * np.cos(rng.integers(1, 4) * x)
    eps = float(rng.choice([0.0, 1e-3, 1e-1]))
    t_end = float(rng.uniform(0.05, 1.0))
    cfg = FlowConfig(kind=BundleKind.TORUS, t_end=t_end, epsilon=eps, record_every=t_end / 10)
    return MetricProfile(n=n, period=TWO_PI, t=0.0, f=f, g=g), cfg


@pytest.fixture
def profile_a():
    """Torus test profile: f = 1, g = 2 + 0.1 sin x on the standard grid."""
    return sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1)


@pytest.fixture
def profile_b():
    """Same profile, used under the sphere family."""
    return sinusoid_profile(256, TWO_PI, 2.0, 0.1, 1)


@pytest.fixture(params=[BundleKind.TORUS, BundleKind.SPHERE])
def kind(request):
    return request.param
