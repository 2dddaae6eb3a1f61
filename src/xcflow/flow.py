"""Explicit time stepping for the reduced metric flows.

In the fixed x-chart both flows close as coupled systems for (f, g).
With w = g_x/f:

    torus:   f_t =  (d/dx w)^2 / (f g^2)
             g_t =  (w^2 + eps) (d/dx w) / (f g^2)
    sphere:  f_t = -(d/dx w)^2 / (f g^2)
             g_t = -(w^2 - 1) (d/dx w) / (f g^2)

In arc length these are g_t = (1/g^2)(g_s^2 + eps) g_ss for the torus
and g_t = (1/g^2)(1 - g_s^2) g_ss for the sphere, so the diffusion
coefficient is (w^2 + eps)/g^2 resp. (1 - w^2)/g^2. The torus equation
degenerates where g_s vanishes; eps > 0 restores uniform parabolicity
and eps = 0 is still steppable explicitly because the right-hand side
stays continuous. The sphere coefficient is uniformly positive under
the preserved slope bound sup|g_s| <= 1/4, so eps is ignored there.

Evolving (f, g) jointly in the fixed chart keeps the bookkeeping of the
drifting arc-length parametrisation automatic: along any run,
d/dt log f = +/- (1/g^2) g_ss^2 (+ torus, - sphere) holds node-wise up
to discretisation error.

Steps are classical 4-stage Runge-Kutta at the parabolic stability
bound dt = min(f dx)^2 / D_max, shortened only to land on the next
record time; `stable_dt` derives why that bound stays well inside RK4's
stability interval for this stencil. Derivatives use the periodic
operator of `_periodic` that geometry and diagnostics share. `step` is
one fused kernel: one np.errstate block, stage sums updated in place,
positivity checked by reductions, and the result built by the trusted
`MetricProfile._trusted`. Its work buffers are allocated per call and no
array is written once returned or handed to a sink, so distinct runs
share no state and may execute in parallel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .claims import ClaimTolerances, FieldError, SLOPE_BOUND
from ._periodic import ddx, first_nonfinite
from .diagnostics import DiagnosticsRecord, functionals
from .geometry import BundleKind, MetricProfile, NumericOverflowError, s_derivative

__all__ = [
    "FlowConfig",
    "RunSummary",
    "SlopeConditionError",
    "StationaryFlowWarning",
    "StepFailureError",
    "validate_initial",
    "rhs",
    "stable_dt",
    "step",
    "next_record_index",
    "evolve",
]

MAX_STEP_RETRIES = 10

RecordSink = Callable[[DiagnosticsRecord, MetricProfile], None]


class StationaryFlowWarning(UserWarning):
    """The initial data is a fixed point of the flow."""


class SlopeConditionError(ValueError):
    """Initial slope condition for the sphere family is violated."""

    def __init__(self, sup_gs: float, bound: float):
        self.sup_gs = sup_gs
        self.bound = bound
        super().__init__(
            f"sphere runs require sup|g_s| <= {bound} initially, got {sup_gs!r}"
        )


class StepFailureError(RuntimeError):
    """A time step lost positivity of f or g."""

    def __init__(self, t: float, dt: float, detail: str = "positivity lost"):
        self.t = t
        self.dt = dt
        super().__init__(f"step of dt={dt!r} from t={t!r} failed: {detail}")


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters for `evolve`.

    record_every defaults to 0.01 * t_end. t_end is an absolute flow
    time, so resumed runs evolve from the profile's stored t to t_end.
    """

    kind: BundleKind
    t_end: float
    epsilon: float = 0.0
    record_every: float | None = None
    tolerances: ClaimTolerances = field(default_factory=ClaimTolerances)

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not self.epsilon >= 0.0:
            raise FieldError(f"epsilon must be >= 0, got {self.epsilon!r}", "epsilon")
        if not self.t_end > 0.0:
            raise FieldError(f"t_end must be positive, got {self.t_end!r}", "t_end")
        if self.record_every is None:
            object.__setattr__(self, "record_every", 0.01 * self.t_end)
        if not self.record_every > 0.0:
            raise FieldError(
                f"record_every must be positive, got {self.record_every!r}", "record_every"
            )
        # inf would fail later, far from its key
        for name in ("t_end", "epsilon", "record_every"):
            if getattr(self, name) == math.inf:
                raise FieldError(f"{name} must be finite, got inf", name)


@dataclass
class RunSummary:
    steps: int = 0
    retries: int = 0
    records: int = 0
    t_final: float = math.nan


def validate_initial(profile: MetricProfile, kind: BundleKind) -> MetricProfile:
    """Check the initial profile against the family's standing hypotheses.

    Sphere runs are rejected unless sup|g_s| <= 1/4. Torus runs always
    pass, but constant g is flagged with a StationaryFlowWarning since
    the flow then never moves.
    """
    w = s_derivative(profile, profile.g)
    sup = float(np.max(np.abs(w)))
    if kind is BundleKind.SPHERE and sup > SLOPE_BOUND:
        raise SlopeConditionError(sup, SLOPE_BOUND)
    if kind is BundleKind.TORUS and float(np.ptp(profile.g)) == 0.0:
        warnings.warn(
            "initial g is constant: the torus flow is stationary",
            StationaryFlowWarning,
            stacklevel=2,
        )
    return profile


def _shift(kind: BundleKind, epsilon: float) -> float:
    """c in the g-equation's diffusion coefficient flow_sign (w^2 + c) / g^2."""
    return epsilon if kind is BundleKind.TORUS else -1.0


def _rhs_arrays(
    f: np.ndarray,
    g: np.ndarray,
    dx: float,
    kind: BundleKind,
    epsilon: float,
    t: float,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(df/dt, dg/dt) per node, into the rows of a (2, n) out if given; call under np.errstate."""
    if out is None:
        out = np.empty((2, f.size))
    w = ddx(g, dx) / f
    dxw = ddx(w, dx)
    den = kind.flow_sign * f * g * g  # +/- f g^2; the sign is exact
    df = np.divide(dxw * dxw, den, out=out[0])
    dg = np.divide((w * w + _shift(kind, epsilon)) * dxw, den, out=out[1])
    for name, arr in (("df/dt", df), ("dg/dt", dg)):
        node = first_nonfinite(arr)
        if node is not None:
            raise NumericOverflowError(name, node, t)
    return df, dg


def rhs(
    profile: MetricProfile, kind: BundleKind, epsilon: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (df/dt, dg/dt) of the reduced system per node.

    epsilon regularises the torus diffusion coefficient (w^2 + eps) and
    is ignored for the sphere family.
    """
    # overflow is detected and reported with the node; silence numpy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _rhs_arrays(profile.f, profile.g, profile.dx, kind, epsilon, profile.t)


def stable_dt(profile: MetricProfile, kind: BundleKind, epsilon: float = 0.0) -> float:
    """Diffusion-limited explicit step size.

    dt = min(f dx)^2 / D_max with D_max the largest diffusion coefficient
    max(flow_sign (w^2 + c), 0) / g^2 over the grid, c as in `_shift`
    (the sphere's turns negative where |w| > 1); inf when it vanishes
    everywhere, as on a constant torus profile.

    Why this is stable: linearised, the flow is g_t = D g_ss with g_ss
    the centred difference applied twice, a 2dx-wide stencil
    (g[i+2] - 2 g[i] + g[i-2]) / (2 ds)^2. Gershgorin bounds its
    spectral radius rho by D_max / ds_min^2, so dt * rho <= 1, at most
    36% of RK4's real-axis stability interval (-2.785, 0). This holds
    for this stencil only: a compact second difference has a 4x larger
    radius, and the bound must be derived again for it
    (tests/test_flow.py measures dt * |lambda| on the Jacobian).
    """
    coeff = ddx(profile.g, profile.dx)  # updated in place, saving temporaries every step
    coeff /= profile.f  # w
    coeff *= coeff
    coeff += _shift(kind, epsilon)
    coeff *= kind.flow_sign
    coeff /= profile.g * profile.g
    d_max = max(float(np.max(coeff)), 0.0)  # clipping the max clips every node
    if d_max == 0.0:
        return math.inf
    ds_min = float(np.min(profile.f)) * profile.dx
    return ds_min * ds_min / d_max


def step(
    profile: MetricProfile, kind: BundleKind, epsilon: float, dt: float
) -> MetricProfile:
    """Advance (f, g) together by one classical Runge-Kutta step.

    Raises StepFailureError if f or g loses positivity at any stage or
    is not finite and positive in the result; the caller may retry with
    a smaller dt.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    dx, t = profile.dx, profile.t
    y0 = np.array((profile.f, profile.g))
    k, y, acc = np.empty_like(y0), np.empty_like(y0), np.empty_like(y0)

    def stage(y):
        if y.min() <= 0.0:
            raise StepFailureError(t, dt, "positivity lost at an internal stage")
        _rhs_arrays(y[0], y[1], dx, kind, epsilon, t, out=k)

    # overflow is detected in _rhs_arrays and reported with the node; silence numpy
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


def next_record_index(t: float, every: float) -> int:
    """Index k of the first record time k * every after t (or 1e-9 gaps before it).

    Record times are global multiples of `every`, so a resumed run lands
    on exactly the grid of the original run.
    """
    k = math.floor(t / every + 1e-9) + 1
    while k * every <= t:  # t / every can round low at long horizons
        k += 1
    return k


def evolve(
    profile: MetricProfile,
    config: FlowConfig,
    sink: RecordSink | None = None,
    stop_when: Callable[[DiagnosticsRecord], bool] | None = None,
) -> tuple[MetricProfile, RunSummary]:
    """Run the flow from the profile's time up to config.t_end.

    The sink is invoked with (record, profile) at the start time, at
    every global multiple of record_every, and at t_end; clamping steps
    to those boundaries makes the record stream deterministic and
    bit-reproducible across resumes. stop_when, if given, is evaluated
    on each record and ends the run early at that record's time.

    Steps that lose positivity are retried with halved dt up to 10
    times; the final failure propagates with the last good time in the
    message.
    """
    validate_initial(profile, config.kind)
    summary = RunSummary()
    t_end, every = config.t_end, config.record_every
    k = next_record_index(profile.t, every)
    eps_t = 1e-12 * max(1.0, abs(t_end))

    def emit(prof: MetricProfile) -> DiagnosticsRecord:
        rec = functionals(prof, config.kind)
        summary.records += 1
        if sink is not None:
            sink(rec, prof)
        return rec

    rec = emit(profile)
    stopped = stop_when is not None and stop_when(rec)

    while not stopped and t_end - profile.t > eps_t:
        target = min(k * every, t_end)
        gap = target - profile.t
        dt = min(gap, stable_dt(profile, config.kind, config.epsilon))
        for attempt in range(MAX_STEP_RETRIES + 1):
            try:
                advanced = step(profile, config.kind, config.epsilon, dt)
                break
            except StepFailureError:
                summary.retries += 1
                if attempt == MAX_STEP_RETRIES:
                    raise StepFailureError(
                        profile.t, dt,
                        f"still failing after {MAX_STEP_RETRIES} halvings; "
                        f"last good t={profile.t!r}",
                    ) from None
                dt *= 0.5
        summary.steps += 1
        # a step that the bound or a retry shortened can still land by rounding
        if dt == gap or advanced.t >= target:
            # assign the boundary time exactly so record times stay on the
            # global grid regardless of floating-point accumulation
            profile = MetricProfile._trusted(
                advanced.n, advanced.period, target, advanced.f, advanced.g
            )
            k += 1
            rec = emit(profile)
            stopped = stop_when is not None and stop_when(rec)
        else:
            profile = advanced

    summary.t_final = profile.t
    return profile, summary
