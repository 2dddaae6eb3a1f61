"""Classical RK4 at the stencil's bound: the time-accurate reference for the RKL2 steps.

`rk4_step` is one fused four-stage Runge-Kutta step. `rk4_run` runs
`evolve` with each of its steps replaced by equal RK4 steps no longer
than `stable_dt` at the step's start. There RK4 resolves time far below
the grid error, and records land at the same times as under RKL2, so
the two record streams compare row by row.
"""

import math

import numpy as np
import pytest

import xcflow.flow as flow_mod
from xcflow import MetricProfile, StepFailureError, evolve


def rk4_step(profile, kind, epsilon, dt):
    """Advance (f, g) together by one classical Runge-Kutta step."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    t, state = profile.t, flow_mod._StepState(profile, kind, epsilon)
    y0 = np.array((profile.f, profile.g))
    k, y, acc = np.empty_like(y0), np.empty_like(y0), np.empty_like(y0)

    def stage(y):
        if y.min() <= 0.0:
            raise StepFailureError(t, dt, "positivity lost at an internal stage")
        flow_mod._rhs_arrays(state, y[0], y[1], t, k)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        stage(y0)
        np.copyto(acc, k)
        # stage inputs y0 + c k, and acc sums k1 + 2 k2 + 2 k3 + k4 in order
        for c, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
            np.multiply(k, c, out=y)
            y += y0
            stage(y)
            acc += weight * k
        acc *= dt / 6.0
        acc += y0
        ok = acc.min() > 0.0 and acc.max() < math.inf
    if not ok:
        raise StepFailureError(t, dt)
    return MetricProfile._trusted(profile.n, profile.period, t + dt, acc[0], acc[1])


def rk4_run(profile, config):
    """(records, final profile, RK4 steps) of `evolve` with RK4 steps of at most stable_dt."""
    records, count = [], [0]

    def substeps(prof, kind, epsilon, dt, state):
        # m equal steps of at most the bound at the start, which evolve's state holds
        t_end, m = prof.t + dt, max(1, math.ceil(dt / state.bound))
        for _ in range(m):
            prof = rk4_step(prof, kind, epsilon, dt / m)
        count[0] += m
        return MetricProfile._trusted(prof.n, prof.period, t_end, prof.f, prof.g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_mod, "step", substeps)
        final, _ = evolve(profile, config, sink=lambda rec, _: records.append(rec))
    return records, final, count[0]
