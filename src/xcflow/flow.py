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

Steps are s-stage RKL2 super-steps (Meyer, Balsara & Aslam 2014,
J. Comput. Phys. 257, 594-626): second order in time, and stable for
dt * rho <= (s^2 + s - 2)/2, where `stable_dt` derives why 1 / stable_dt
bounds the spectral radius rho for this stencil. A step spans
dt = min(record gap, 20 stable_dt) and takes the fewest stages s >= 2
that cover it. The cap of S = 6 stages, (S^2 + S - 2)/2 = 20, is the
largest that keeps the sphere run's time error within 5% of its grid
difference at n = 256 (TestStageCap in tests/test_flow.py); at a fixed
cap the time error falls as dx^4 against the grid's dx^2. The step's
first RHS evaluation also gives D_max, so w is formed once per step,
and s and dt depend only on the state at the step's start.

Derivatives use the periodic operator of `_periodic` that geometry and
diagnostics share. `step` is one fused kernel: stage combinations summed
in place in rotating buffers, positivity checked by reductions, and the
result built by the trusted `MetricProfile._trusted`.
Buffers: every RHS evaluation and step runs in a `_StepState`, whose
buffers hold the start of a step, the RHS scratch rows and the stages.
`evolve` keeps one per call and enters one np.errstate block per step,
around its start, the step and its retries; while the records of a
landing are made in the same process, the buffers are freed and made
again for the next step. The public `rhs`, `stable_dt` and `step` make
a state of their own per call and hold np.errstate themselves. A step
reads `start` and Y_0 without writing them, takes Y_0 from the array of
the last step's result rather than stacking it again, and allocates only
its result, whose rows it returns. No array handed to a profile or a
sink is written again, so distinct runs share no state and may run in
parallel, as `cli.epsilon_sweep`'s members do, and a landed profile can
be recorded after later steps or elsewhere: `evolve` with `landed` hands
each one out unrecorded, and `record_landings`, the one record stage,
makes the records wherever they are made, as `cli.run_scenario`'s forked
record process does.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .claims import ClaimTolerances, SLOPE_BOUND
from ._periodic import ddx, first_nonfinite
from .diagnostics import DiagnosticsRecord, functionals
from .geometry import BundleKind, MetricProfile, NumericOverflowError, require, s_derivative

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
    "record_landings",
    "evolve",
]

MAX_STEP_RETRIES = 10
# RKL2 stage cap S: a step spans at most (S^2 + S - 2)/2 = 20 units of
# stable_dt. TestStageCap in tests/test_flow.py pins it against the grid error.
_MAX_STAGES = 6
_RECORD_NODES = 4096  # evolve evaluates up to this many grid nodes of records per batch

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

    def __reduce__(self):  # rebuilt from its arguments, not from its message
        return type(self), (self.sup_gs, self.bound), self.__dict__


class StepFailureError(RuntimeError):
    """A time step lost positivity of f or g."""

    field = node = None  # "f" or "g" and the node where, when a positivity check found it

    def __init__(self, t: float, dt: float, detail: str = "positivity lost"):
        self.t = t
        self.dt = dt
        self.detail = detail
        super().__init__(f"step of dt={dt!r} from t={t!r} failed: {detail}")

    def __reduce__(self):  # rebuilt from its arguments, not from its message
        return type(self), (self.t, self.dt, self.detail), self.__dict__


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
        require(self.epsilon >= 0.0, "epsilon", "be >= 0", self.epsilon)
        require(self.t_end > 0.0, "t_end", "be positive", self.t_end)
        if self.record_every is None:
            object.__setattr__(self, "record_every", 0.01 * self.t_end)
        require(self.record_every > 0.0, "record_every", "be positive", self.record_every)
        # inf would fail later, far from its key
        for name in ("t_end", "epsilon", "record_every"):
            require(getattr(self, name) < math.inf, name, "be finite", getattr(self, name))


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


def _rhs_arrays(
    f: np.ndarray,
    g: np.ndarray,
    dx: float,
    kind: BundleKind,
    epsilon: float,
    t: float,
    out: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """(df/dt, dg/dt) per node, into the first two rows of out; call under np.errstate.

    A (3, n) out also gets the diffusion coefficient flow_sign (w^2 + c) / g^2
    in its last row, which `stable_dt` reduces; c is eps on the torus and
    -1 on the sphere. w, D w and the denominator go into the three (n,)
    rows of scratch: a step's state passes its own, and other callers may
    leave it out for fresh ones.
    """
    sphere = kind is BundleKind.SPHERE
    shift = -1.0 if sphere else epsilon
    w, dxw, den = scratch or np.empty((3, f.size))
    ddx(g, dx, w)
    w /= f
    ddx(w, dx, dxw)
    np.multiply(f, g, out=den)  # flow_sign f g^2; the sign is exact
    den *= g
    if sphere:
        np.negative(den, out=den)
    shifted = np.multiply(w, w, out=w)  # w is not needed past here
    if shift != 0.0:  # w^2 + 0.0 is w^2 bit for bit
        shifted += shift
    np.divide(np.multiply(dxw, dxw, out=out[0]), den, out=out[0])
    np.divide(np.multiply(shifted, dxw, out=out[1]), den, out=out[1])
    if len(out) == 3:
        np.multiply(g, g, out=den)
        np.divide(shifted, den, out=out[2])
        if sphere:  # -(a / b) is (-a) / b bit for bit
            np.negative(out[2], out=out[2])
    bad = first_nonfinite(out[:2])  # one scan; df/dt's row comes first
    if bad is not None:
        row, node = divmod(bad, f.size)
        raise NumericOverflowError(("df/dt", "dg/dt")[row], node, t)
    return out[0], out[1]


def rhs(
    profile: MetricProfile, kind: BundleKind, epsilon: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (df/dt, dg/dt) of the reduced system per node.

    epsilon regularises the torus diffusion coefficient (w^2 + eps) and
    is ignored for the sphere family.
    """
    return tuple(_own_start(profile, kind, epsilon)[0])


def stable_dt(
    profile: MetricProfile, kind: BundleKind, epsilon: float = 0.0,
    coeff: np.ndarray | None = None,
) -> float:
    """Diffusion-limited explicit step size: one unit of RKL2's stable span.

    dt = min(f dx)^2 / D_max with D_max the largest diffusion coefficient
    max(flow_sign (w^2 + c), 0) / g^2 over the grid, c as in `_rhs_arrays`
    (the sphere's turns negative where |w| > 1); inf when it vanishes
    everywhere, as on a constant torus profile. coeff is that coefficient
    per node when the caller has it from an RHS evaluation at this
    profile (the last row of a (3, n) `_rhs_arrays` out); otherwise one
    RHS evaluation, in a step state of its own, forms it here.

    Why this is the unit: linearised, the flow is g_t = D g_ss with g_ss
    the centred difference applied twice, a 2dx-wide stencil
    (g[i+2] - 2 g[i] + g[i-2]) / (2 ds)^2. Gershgorin bounds its
    spectral radius rho by D_max / ds_min^2, so dt * rho <= 1, and an
    s-stage RKL2 step is stable up to (s^2 + s - 2)/2 such units. On the
    Jacobian of the full (f, g) system dt * |lambda| measures at most
    0.99 at n = 64 and 128 (tests/test_flow.py checks RKL2's stability
    polynomial there at every step evolve picks). This holds for this
    stencil only: a compact second difference has a 4x larger radius,
    and the bound must be derived again for it.
    """
    if coeff is None:
        return _own_start(profile, kind, epsilon)[1]
    d_max = max(float(np.maximum.reduce(coeff)), 0.0)  # clipping the max clips every node
    if d_max == 0.0:
        return math.inf
    ds_min = float(np.minimum.reduce(profile.f)) * profile.dx
    return ds_min * ds_min / d_max


@functools.cache
def _rkl2_coefficients(s: int) -> tuple[float, tuple[tuple, ...]]:
    """(mu~_1, ((mu_j, nu_j, 1 - mu_j - nu_j, mu~_j, gamma~_j) for j = 2..s)) of s-stage RKL2.

    Meyer, Balsara & Aslam 2014, J. Comput. Phys. 257, eqs. 16-17, with
    w1 = 4 / (s^2 + s - 2) and b_0 = b_1 = b_2 = 1/3. The three weights
    that take no factor dt come as read-only 0-d arrays: numpy multiplies
    by one without converting a Python float, and the product is the same.
    """
    w1 = 4.0 / (s * s + s - 2)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(3, s + 1)]
    rows = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        mu_w = mu * w1
        weights = np.array((mu, nu, 1.0 - mu - nu))
        weights.flags.writeable = False
        rows.append((*(weights[i, ...] for i in range(3)), mu_w, -(1.0 - b[j - 1]) * mu_w))
    return b[1] * w1, tuple(rows)


def _span(s: int) -> float:
    """Stable span of s-stage RKL2 in units of stable_dt: dt * rho <= (s^2 + s - 2)/2."""
    return (s * s + s - 2) / 2


def _stages(dt: float, bound: float) -> int:
    """Fewest s >= 2 whose span covers dt at this stable_dt bound; at most _MAX_STAGES."""
    s = 2
    while s < _MAX_STAGES and _span(s) * bound < dt:
        s += 1
    return s


class _StepState:
    """The buffers of the steps of one `evolve` call, or of one public call.

    start holds L(Y0) and the diffusion coefficient of the step's start,
    scratch `_rhs_arrays`' rows for w, D w and the denominator, k the stage
    scratch, and stages Y_1 ... Y_{s-1} of a step in rotation. y0 is the
    (2, n) array whose rows f and g the last step returned: the next step
    reads its Y0 from there instead of stacking the profile's rows again.
    y0 is only read, and no other buffer is handed out. A state starts
    released: `allocate`, which `_start_of_step` calls, makes the buffers,
    and `release` frees all but y0. evolve frees them at each landing whose
    records its own process makes, so that the records' temporaries can
    take the memory.
    """

    __slots__ = ("n", "start", "k0", "coeff", "scratch", "k", "stages", "y0", "f", "g")

    def __init__(self, n: int):
        self.n = n
        self.y0 = self.f = self.g = None
        self.release()

    def allocate(self) -> None:
        n = self.n
        self.start = np.empty((3, n))
        self.k0, self.coeff = self.start[:2], self.start[2]
        self.scratch = tuple(np.empty((3, n)))
        self.k = np.empty((2, n))
        self.stages = tuple(np.empty((2, n)) for _ in range(3))

    def release(self) -> None:
        self.start = self.k0 = self.coeff = self.scratch = self.k = self.stages = None


def _start_of_step(
    profile: MetricProfile, kind: BundleKind, epsilon: float, state: _StepState
) -> tuple:
    """(L(Y0) as a (2, n) array, stable_dt, state) of the profile from one RHS evaluation.

    L(Y0) goes into the state's buffers, which are made here when the
    state is released; the caller holds np.errstate.
    """
    if state.k is None:  # a new state, or one released at a landing
        state.allocate()
    _rhs_arrays(profile.f, profile.g, profile.dx, kind, epsilon, profile.t,
                out=state.start, scratch=state.scratch)
    return state.k0, stable_dt(profile, kind, epsilon, state.coeff), state


def _own_start(profile: MetricProfile, kind: BundleKind, epsilon: float) -> tuple:
    """`_start_of_step` in a state of its own, under np.errstate held here, for a public call."""
    # overflow is detected in _rhs_arrays and reported with the node; silence numpy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _start_of_step(profile, kind, epsilon, _StepState(profile.n))


def _failure(y: np.ndarray, t: float, dt: float, detail: str) -> StepFailureError:
    """The StepFailureError of a (2, n) y that failed a check, naming the row and node
    of its first NaN or smallest entry, or of its largest if all are positive (an inf)."""
    at = np.argmin(y) if not np.minimum.reduce(y, axis=None) > 0.0 else np.argmax(y)
    row, node = divmod(int(at), y.shape[1])
    field = ("f", "g")[row]
    error = StepFailureError(t, dt, f"{detail}: {field} at node {node}")
    error.field, error.node = field, node
    return error


def step(
    profile: MetricProfile,
    kind: BundleKind,
    epsilon: float,
    dt: float,
    start: tuple | None = None,
) -> MetricProfile:
    """Advance (f, g) together by one RKL2 super-step of dt.

    It takes s stages, the fewest s >= 2 whose stable span
    (s^2 + s - 2)/2 * stable_dt covers dt, and at most _MAX_STAGES: a dt
    past that cap's span is not stable. start, if given, is
    `_start_of_step` of this profile: (L(Y0) as a (2, n) array, stable_dt,
    the `_StepState` it was made in), and the caller holds np.errstate.
    L(Y0) is read and never written; evolve forms it once per step and
    reuses it on a retry. Y0 is the state's y0 when the profile holds the
    state's last result, the stages run in the state's buffers, and the
    result is the step's one allocation. Without a start, the step makes a
    state of its own and holds np.errstate itself.

    Raises StepFailureError, naming f or g and a node, if f or g loses
    positivity at any stage or is not finite and positive in the result;
    the caller may retry with a smaller dt.
    """
    require(0.0 < dt < math.inf, "dt", "be finite and positive", dt)
    if start is None:  # a step of its own: its own state, under its own np.errstate
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return step(profile, kind, epsilon, dt, _own_start(profile, kind, epsilon))
    k0, bound, state = start
    dx, t, k, stages = profile.dx, profile.t, state.k, state.stages
    if profile.f is state.f and profile.g is state.g:
        y0 = state.y0  # the last step's result, stacked as it was made
    else:
        y0 = np.array((profile.f, profile.g))
    if np.minimum.reduce(y0, axis=None) <= 0.0:
        raise _failure(y0, t, dt, "positivity lost at an internal stage")
    mu_1, rows = _rkl2_coefficients(_stages(dt, bound))
    last = len(rows) - 1
    y_prev2, y_prev = y0, np.multiply(k0, mu_1 * dt, out=stages[0])  # Y_1
    y_prev += y0
    # Y_j = mu Y_{j-1} + nu Y_{j-2} + (1 - mu - nu) Y_0
    #       + mu~ dt L(Y_{j-1}) + gamma~ dt L(Y_0), summed in y with k as scratch.
    # Row i makes Y_j, j = i + 2, in stages[(j - 1) % 3], which holds neither
    # Y_{j-1} nor Y_{j-2}; Y_s goes to a fresh array
    for i, (mu, nu, c0, mu_w, gamma_w) in enumerate(rows):
        if np.minimum.reduce(y_prev, axis=None) <= 0.0:
            raise _failure(y_prev, t, dt, "positivity lost at an internal stage")
        _rhs_arrays(y_prev[0], y_prev[1], dx, kind, epsilon, t, out=k, scratch=state.scratch)
        k *= mu_w * dt
        y = np.multiply(y_prev, mu, out=None if i == last else stages[(i + 1) % 3])
        y += k
        np.multiply(y_prev2, nu, out=k)
        y += k
        np.multiply(y0, c0, out=k)
        y += k
        np.multiply(k0, gamma_w * dt, out=k)
        y += k
        y_prev2, y_prev = y_prev, y
    if not (np.minimum.reduce(y_prev, axis=None) > 0.0
            and np.maximum.reduce(y_prev, axis=None) < math.inf):
        raise _failure(y_prev, t, dt, "positivity lost")
    state.y0, (state.f, state.g) = y_prev, y_prev
    return MetricProfile._trusted(profile.n, profile.period, t + dt, state.f, state.g)


def _reached(t: float, target: float) -> bool:
    """Whether flow time t has reached target, up to 1e-12 * max(1, |target|).

    The one time rule: it decides record landings, the end of a run and
    (through `next_record_index`) snapshot crossings. The tolerance is far
    above the rounding of t + dt, so a step of dt = target - t lands.
    """
    return t >= target - 1e-12 * max(1.0, abs(target))


def next_record_index(t: float, every: float) -> int:
    """Index k of the first grid time k * every that t has not reached.

    Record times are global multiples of `every`, so a resumed run lands
    on exactly the grid of the original run. A t within the tolerance of
    `_reached` below a grid time counts as at it. With every = inf, k is 1:
    no finite t reaches inf.
    """
    k = math.floor(t / every) + 1
    while _reached(t, k * every):  # t / every can round low at long horizons, too
        k += 1
    return k


def record_landings(
    landings: Iterable[MetricProfile],
    kind: BundleKind,
    sink: RecordSink | None = None,
    stop_when: Callable[[DiagnosticsRecord], bool] | None = None,
) -> int:
    """Evaluate the records of landed profiles and hand them to the sink in order.

    Records are evaluated in batches of up to 4096 grid nodes, so the sink
    gets each one up to one batch after its landing arrives. stop_when, if
    given, is evaluated on each record as its landing arrives (batches of
    one) and ends the stage at the first record it holds for. A
    NumericOverflowError of a record reaches the caller once the sink has
    seen every record before it. If the landings raise, the records of the
    landings before reach the sink first, and an error of those records or
    of the sink wins. Returns the number of records handed to the sink.
    """
    pending: list[MetricProfile] = []  # landings whose records the sink has not seen yet
    count = 0

    def emit() -> bool:
        """Hand the pending records to the sink in order; True if stop_when ends the stage."""
        nonlocal count
        profiles, pending[:] = pending[:], []
        try:
            records = functionals(profiles, kind)
        except NumericOverflowError:  # one at a time: the sink sees every good record
            records = (functionals([prof], kind)[0] for prof in profiles)
        for rec, prof in zip(records, profiles):
            count += 1
            if sink is not None:
                sink(rec, prof)
        return stop_when is not None and stop_when(rec)  # a batch of one when set

    try:
        for prof in landings:
            pending.append(prof)
            batch = 1 if stop_when is not None else max(1, _RECORD_NODES // prof.n)
            if len(pending) == batch and emit():
                break
    finally:
        if pending:  # the records made before a failing landing reach the sink before its error
            emit()
    return count


def evolve(
    profile: MetricProfile,
    config: FlowConfig,
    sink: RecordSink | None = None,
    stop_when: Callable[[DiagnosticsRecord], bool] | None = None,
    landed: Callable[[MetricProfile], object] | None = None,
) -> tuple[MetricProfile, RunSummary]:
    """Run the flow from the profile's time up to config.t_end.

    The sink is invoked with (record, profile) at the start time, at
    every global multiple of record_every, and at t_end; clamping steps
    to those boundaries makes the record stream deterministic and
    bit-reproducible across resumes. One rule, `_reached`, decides
    whether a time has reached another: a step that reaches its boundary
    lands on it, taking the boundary time exactly, and the run ends once
    the profile's time reaches t_end. So the profile returned is always
    the last one the sink was given. `record_landings` makes the records:
    in batches of up to 4096 grid nodes, so the sink gets them in order,
    up to one batch after the step that made them. stop_when, if given,
    is evaluated on each record right after its step (batches of one)
    and ends the run early at that record's time.

    landed, if given, takes the place of sink and stop_when: it gets each
    landed profile right after its step, and no record is evaluated here.
    A caller that makes the records elsewhere passes the profiles on to
    `record_landings`; summary.records then counts landings.

    Steps that lose positivity are retried with halved dt up to 10
    times; the final failure propagates with the last good time in the
    message, the last attempt's error as its cause, and that error's
    field and node, once the sink has seen every record made before it.
    """
    if landed is not None and (sink is not None or stop_when is not None):
        raise TypeError("landed takes the place of sink and stop_when")
    validate_initial(profile, config.kind)
    summary = RunSummary()
    t_end, every = config.t_end, config.record_every
    state = _StepState(profile.n)  # this call's buffers: runs share nothing

    def landings() -> Iterator[MetricProfile]:
        """The start profile, then each profile that lands on a record time or t_end."""
        nonlocal profile
        k = next_record_index(profile.t, every)
        yield profile
        while not _reached(profile.t, t_end):
            target = min(k * every, t_end)
            # one block for the start, the step and its retries: overflow is
            # detected in _rhs_arrays and reported with the node; silence numpy
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                start = _start_of_step(profile, config.kind, config.epsilon, state)
                dt = min(target - profile.t, _span(_MAX_STAGES) * start[1])
                for attempt in range(MAX_STEP_RETRIES + 1):
                    try:
                        advanced = step(profile, config.kind, config.epsilon, dt, start)
                        break
                    except StepFailureError as exc:
                        summary.retries += 1
                        if attempt == MAX_STEP_RETRIES:  # the last attempt's error is its cause
                            failure = StepFailureError(
                                profile.t, dt,
                                f"still failing after {MAX_STEP_RETRIES} halvings; "
                                f"last good t={profile.t!r}",
                            )
                            failure.field, failure.node = exc.field, exc.node
                            raise failure from exc
                        dt *= 0.5
            summary.steps += 1
            # a step that the bound or a retry shortened can still land
            if _reached(advanced.t, target):
                # assign the boundary time exactly so record times stay on the
                # global grid regardless of floating-point accumulation
                profile = MetricProfile._trusted(
                    advanced.n, advanced.period, target, advanced.f, advanced.g
                )
                k += 1
                if landed is None:  # its records are made in this process, maybe now
                    state.release()
                yield profile
            else:
                profile = advanced

    if landed is None:
        summary.records = record_landings(landings(), config.kind, sink, stop_when)
    else:
        for prof in landings():
            landed(prof)
            summary.records += 1
    summary.t_final = profile.t
    return profile, summary
