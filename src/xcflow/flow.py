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
dt = min(time to the next landing, 20 stable_dt, 0.75 / R), with R the
largest relative rate |L(y)| / y of f or g at its start, and takes the
fewest stages s >= 2 that cover its dt in units of stable_dt. The
third term keeps every stage positive (`stable_dt` derives why): the
continuous flow keeps f and g positive, so no step is repaired
afterwards, and one that still loses positivity fails the run. The
cap of S = 6 stages, (S^2 + S - 2)/2 = 20, is the largest that keeps
the sphere run's time error within 5% of its grid difference at
n = 256 (TestStageCap in tests/test_flow.py); at a fixed cap the time
error falls as dx^4 against the grid's dx^2. The step's first RHS
evaluation also gives D_max and R, so w is formed once per step, and s
and dt depend only on the state at the step's start.

Landings: `evolve` lands on every K-th record time (K = 1 by default)
and on t_end. A step that passes over record times gives each the cubic
Hermite interpolant of (y, L(y)) at its two ends (Hairer, Norsett &
Wanner, Solving ODEs I, section II.6), so a record-bound run takes one
step per landing gap instead of one per record gap. L at the step's
end is the next step's start, begun there once.

w and D w come from `_periodic.slope`, the slope kernel that geometry's
curvature kernel, and so the records, read too. `step` is one fused
kernel: stage combinations summed in place in rotating buffers,
positivity checked by reductions, and the result built by the trusted
`MetricProfile._trusted`.
Buffers: every RHS evaluation and step runs in a `_StepState`, the
step kernel, which binds the run's dx and the flow's sign and shift, and
whose `begin` sets a step's bound and span at its start. Its
buffers are 16 rows of n floats in one layout: L at a step's start
(l0), the start (L(Y_0) in k0 and the diffusion coefficient), the RHS
scratch rows, k and the stages. `evolve` keeps one per call and enters
one np.errstate block per step, around its start, the step and the
step's end. When it makes the records itself, the state is the head of
its one arena per call, and `record_landings` evaluates each batch of
records in it while the landings wait at a yield between two steps.
With K = 1 the records start at row 0 and the next step makes its
start again; with K > 1 they skip l0 and k0, which keep L at
a step's two ends, so such a run evaluates one record fewer per batch
(one at n = 2048) and its arena is no larger than a record-bound run's.
With `landed`, and in the public `rhs`, `stable_dt` and `step`, which
hold np.errstate themselves, the buffers are the state's own. A step
that passes over record times copies its start's L into l0 and takes
the interpolants' scratch from k, so a run allocates its working memory
once, and a step no more than its result and its interpolants. A step
reads its start and Y_0 without writing them, leaves the Y_0 it read in
the state, and allocates only its result, which it makes read-only and
whose rows it returns. When the next step starts from that result, Y_0
is that array, taken without stacking or checking it again, and the
minima of f and g are the ones its final check took; a profile that the
state did not make is stacked and checked. No array
handed to a profile or a sink is written again, and a sink that tries
raises, so distinct runs share no state and may run in parallel, as
`cli.epsilon_sweep`'s members do, and a landed profile can be recorded
after later steps or elsewhere: `evolve` with `landed` hands each one
out unrecorded, landed or interpolated, and `record_landings`, the one
record stage, makes the records wherever they are made, as
`cli.run_scenario`'s forked record process does.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .claims import ClaimTolerances, SLOPE_BOUND
from ._periodic import first_nonfinite, slope
from .diagnostics import WORK_SLOTS, DiagnosticsRecord, functionals
from .geometry import BundleKind, MetricProfile, NumericOverflowError, number, require, s_derivative

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

# RKL2 stage cap S: a step spans at most (S^2 + S - 2)/2 = 20 units of
# stable_dt. TestStageCap in tests/test_flow.py pins it against the grid error.
_MAX_STAGES = 6
# a step spans at most this many units of 1 / R, R the largest relative rate |L(y)| / y at
# its start: the least z* of stable_dt's positivity derivation, 0.752 at s = 6
_RATE_SPAN = 0.75
_RECORD_NODES = 4096  # evolve evaluates up to this many grid nodes of records per batch
_STATE_ROWS = 16  # rows of n floats in a step state: l0 2, start 3, scratch 3, k 2, stages 3 x 2
# rows of n floats at a state's head that a dense run's records do not write, taken from
# their slots: L at a step's start (l0), then at its end (the state's k0)
_KEPT_ROWS = 4

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
    """A time step lost positivity of f or g, or its result is not finite.

    The continuous flow keeps f and g positive, so this is the scheme's
    fault; `evolve` raises the failing step's own error, once, naming the
    field and node where the check found them and the step's start time.
    """

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

    t_end, epsilon and record_every pass `geometry.number` (a real number,
    not a bool or a str) and are stored as floats; record_every defaults
    to 0.01 * t_end. t_end is an absolute flow time, so resumed runs
    evolve from the profile's stored t to t_end.
    """

    kind: BundleKind
    t_end: float
    epsilon: float = 0.0
    record_every: float | None = None
    tolerances: ClaimTolerances = field(default_factory=ClaimTolerances)

    def __post_init__(self):
        require(isinstance(self.kind, BundleKind), "kind", "be a BundleKind", self.kind)
        t_end = number(self.t_end, "t_end")
        every = 0.01 * t_end if self.record_every is None else self.record_every
        vars(self).update(t_end=t_end, epsilon=number(self.epsilon, "epsilon"),
                          record_every=number(every, "record_every"))  # frozen: not setattr
        require(self.epsilon >= 0.0, "epsilon", "be >= 0", self.epsilon)
        require(self.t_end > 0.0, "t_end", "be positive", self.t_end)
        require(self.record_every > 0.0, "record_every", "be positive", self.record_every)
        # inf would fail later, far from its key
        for name in ("t_end", "epsilon", "record_every"):
            require(getattr(self, name) < math.inf, name, "be finite", getattr(self, name))


@dataclass
class RunSummary:
    steps: int = 0
    records: int = 0
    t_final: float = math.nan


def validate_initial(profile: MetricProfile, kind: BundleKind) -> MetricProfile:
    """Check the initial profile against the family's standing hypotheses.

    Sphere runs are rejected unless sup|g_s| <= 1/4. Torus runs always
    pass, but constant g is flagged with a StationaryFlowWarning since
    the flow then never moves.
    """
    require(isinstance(kind, BundleKind), "kind", "be a BundleKind", kind)
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


def _rhs_arrays(state: _StepState, f: np.ndarray, g: np.ndarray, t: float, out: np.ndarray) -> None:
    """(df/dt, dg/dt) per node into the first two rows of out; call under np.errstate.

    The state gives dx, the flow's sign and shift c (eps on the torus, -1
    on the sphere) and its scratch rows for w and D w, which
    `_periodic.slope` writes, and the denominator. A (3, n) out also gets
    the diffusion coefficient flow_sign (w^2 + c) / g^2 in its last row,
    which `stable_dt` reduces.
    """
    (w, dxw, den), f_t, g_t = state.scratch, out[0], out[1]
    slope(f, g, state.dx, w, dxw)
    np.multiply(f, g, out=den)  # flow_sign f g^2; the sign is exact
    den *= g
    if state.sphere:
        np.negative(den, out=den)
    shifted = np.multiply(w, w, out=w)  # w is not needed past here
    if state.shift is not None:  # w^2 + 0.0 is w^2 bit for bit
        shifted += state.shift
    np.divide(np.multiply(dxw, dxw, out=f_t), den, out=f_t)
    np.divide(np.multiply(shifted, dxw, out=g_t), den, out=g_t)
    if len(out) == 3:
        np.multiply(g, g, out=den)
        np.divide(shifted, den, out=out[2])
        if state.sphere:  # -(a / b) is (-a) / b bit for bit
            np.negative(out[2], out=out[2])
    bad = first_nonfinite(out[:2])  # one scan; df/dt's row comes first
    if bad is not None:
        row, node = divmod(bad, f.size)
        raise NumericOverflowError(("df/dt", "dg/dt")[row], node, t)


def rhs(
    profile: MetricProfile, kind: BundleKind, epsilon: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (df/dt, dg/dt) of the reduced system per node.

    epsilon regularises the torus diffusion coefficient (w^2 + eps) and
    is ignored for the sphere family.
    """
    k0 = _StepState.started(profile, kind, epsilon).k0
    return k0[0], k0[1]


def stable_dt(
    profile: MetricProfile, kind: BundleKind, epsilon: float = 0.0,
    state: _StepState | None = None,
) -> float:
    """Diffusion-limited explicit step size: one unit of RKL2's stable span.

    dt = min(f dx)^2 / D_max with D_max the largest diffusion coefficient
    max(flow_sign (w^2 + c), 0) / g^2 over the grid, c as in `_rhs_arrays`
    (the sphere's turns negative where |w| > 1); inf when it vanishes
    everywhere, as on a constant torus profile. state, if given, is a
    `_StepState` whose `begin` at this profile calls here: it holds that
    coefficient's maximum and min f. Otherwise one RHS evaluation, in a
    state of its own, forms the coefficient here.

    Why this is the unit: linearised, the flow is g_t = D g_ss with g_ss
    the centred difference applied twice, a 2dx-wide stencil
    (g[i+2] - 2 g[i] + g[i-2]) / (2 ds)^2. Gershgorin bounds its
    spectral radius rho by D_max / ds_min^2, so dt * rho <= 1, and an
    s-stage RKL2 step is stable up to (s^2 + s - 2)/2 such units. On the
    Jacobian of the full (f, g) system dt * |lambda| measures at most
    0.99 at n = 64 and 128 (tests/test_flow.py checks RKL2's stability
    polynomial there at every step evolve picks). This holds for this
    stencil only: a compact second difference, which would replace D w in
    `_periodic.slope` and so reach the records too, has a 4x larger
    radius, and the bound must be derived again for it.

    Why a step also spans at most 0.75 / R (`_StepState.begin`), R the
    largest relative rate |L(y)| / y of f or g at its start: take, per
    node, a row that grows there, z = dt L(Y_0) / Y_0 > 0, and set its
    rates at the internal stages to zero. That is the worst case, as every mu~_j
    is positive and every gamma~_j negative (`_rkl2_coefficients`): the
    stages keep only the pull of gamma~_j dt L(Y_0). They are linear in z
    and stay positive up to z* = 2.000, 0.923, 0.787, 0.755 and 0.752 for
    s = 2 ... 6, so 0.75 covers every s. A decaying row, its rate frozen
    at the start (L = -r y), follows the stability polynomial's stages
    a_j + b_j P_j with b_j < 1/2, which stay positive over the whole
    stable span, >= 2 for every s.
    """
    if state is None:
        return _StepState.started(profile, kind, epsilon).bound
    d_max = max(state.start_max[2], 0.0)  # clipping the max clips every node
    if d_max == 0.0:
        return math.inf
    ds_min = state.y0_min[0] * state.dx
    return ds_min * ds_min / d_max


@functools.cache
def _rkl2_coefficients(s: int) -> tuple[float, tuple[tuple, ...]]:
    """(mu~_1, ((mu_j, nu_j, 1 - mu_j - nu_j, mu~_j, gamma~_j) for j = 2..s)) of s-stage RKL2.

    Meyer, Balsara & Aslam 2014, J. Comput. Phys. 257, eqs. 16-17, with
    w1 = 4 / (s^2 + s - 2) and b_0 = b_1 = b_2 = 1/3. The three weights
    that take no factor dt come as read-only 0-d arrays: numpy multiplies
    by one without converting a Python float, and the product is the same.
    The Y_0 weight 1 - mu_j - nu_j is exactly 0 at j = 2 and comes as None:
    its term would add +0.0 to a positive sum, and `step` skips it.
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
        c0 = weights[2, ...] if weights[2] != 0.0 else None
        rows.append((weights[0, ...], weights[1, ...], c0, mu_w, -(1.0 - b[j - 1]) * mu_w))
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
    """The step kernel of one `evolve` call, or of one public call: constants and buffers.

    It binds the run's kind and epsilon, which it checks, n, dx, the
    flow's sign and its shift c of `_rhs_arrays` (a 0-d array, None when c
    is 0). Its buffers are _STATE_ROWS rows of n floats, at the head of
    the arena it is given or of its own, in one layout. l0 holds L at the
    start of a step whose interpolants are made after it, copied there
    from k0. `begin` evaluates a step's start into start: L(Y0) in k0 and
    the diffusion coefficient in coeff, with the maximum of each of those
    three rows in start_max and the minima of f and g in y0_min, which
    `stable_dt` reads; bound is that step's stable_dt and span the most
    it may span. scratch holds `_rhs_arrays`' rows for w, D w and the
    denominator, k the stage scratch, and stages Y_1 ... Y_{s-1} in
    rotation. l0 and k0, the first _KEPT_ROWS rows, outlive the records
    that a dense `evolve` makes beyond them between steps; nothing else
    outlives a step: those records write over it, coeff included. y0 is
    the Y0 that the last step read, y1 its read-only (2, n) result, whose
    rows f and g it returned, and y_min the minima of f and g that its
    final check took: the next step from it reads Y0, and `begin` those
    minima, from there without a scan.
    """

    __slots__ = ("kind", "epsilon", "n", "dx", "sphere", "shift", "bound", "span", "l0", "start",
                 "k0", "coeff", "scratch", "k", "stages", "start_max", "y0_min", "y0", "y1", "f",
                 "g", "y_min")

    def __init__(self, profile: MetricProfile, kind: BundleKind, epsilon: float,
                 arena: np.ndarray | None = None):
        require(isinstance(kind, BundleKind), "kind", "be a BundleKind", kind)
        self.kind, self.epsilon = kind, number(epsilon, "epsilon")
        require(0.0 <= self.epsilon < math.inf, "epsilon", "be finite and >= 0", self.epsilon)
        self.n, self.dx, self.sphere = profile.n, profile.dx, kind is BundleKind.SPHERE
        shift = -1.0 if self.sphere else self.epsilon
        self.shift = np.array(shift) if shift != 0.0 else None  # only read
        self.y0 = self.y1 = self.f = self.g = self.y_min = None
        size = _STATE_ROWS * self.n
        rows = (np.empty(size) if arena is None else arena[:size]).reshape(_STATE_ROWS, self.n)
        self.l0, self.start, self.k = rows[:2], rows[2:5], rows[8:10]
        self.scratch = tuple(rows[5:8])
        self.k0, self.coeff = self.start[:2], self.start[2]
        self.stages = rows[10:12], rows[12:14], rows[14:16]

    def begin(self, profile: MetricProfile) -> None:
        """Begin a step at the profile: all that its start needs; under np.errstate.

        It evaluates the start and its extremes and takes the minima of f
        and g, those the last step's final check took when the profile is
        that step's result. bound is then `stable_dt`, and span
        min(20 bound, _RATE_SPAN / R), R = max |L| / min y of each row,
        which bounds the largest relative rate |L(y)| / y from above; the
        rate term is inf where L vanishes.
        """
        _rhs_arrays(self, profile.f, profile.g, profile.t, self.start)
        self.start_max = np.maximum.reduce(self.start, axis=1).tolist()
        # those of the last step's final check if the profile is its result: a minimum is exact
        self.y0_min = (self.y_min if profile.f is self.f and profile.g is self.g
                       else [float(np.minimum.reduce(y)) for y in (profile.f, profile.g)])
        self.bound = stable_dt(profile, self.kind, self.epsilon, self)
        (f_top, g_top, _), (f_min, g_min) = self.start_max, self.y0_min
        f_low, g_low = np.minimum.reduce(self.k0, axis=1).tolist()
        rate = max(max(f_top, -f_low) / f_min, max(g_top, -g_low) / g_min)
        cap = _span(_MAX_STAGES) * self.bound
        self.span = min(cap, _RATE_SPAN / rate) if rate > 0.0 else cap

    @classmethod
    def started(cls, profile: MetricProfile, kind: BundleKind, epsilon: float) -> _StepState:
        """A state of its own for a public call, begun at the profile."""
        state = cls(profile, kind, epsilon)
        # overflow is detected in _rhs_arrays and reported with the node; silence numpy
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            state.begin(profile)
        return state


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
    state: _StepState | None = None,
) -> MetricProfile:
    """Advance (f, g) together by one RKL2 super-step of dt.

    It takes s stages, the fewest s >= 2 whose stable span
    (s^2 + s - 2)/2 * stable_dt covers dt, and at most _MAX_STAGES: a dt
    past that cap's span is not stable. state, if given, is the
    `_StepState` begun at this profile, and the caller holds np.errstate;
    kind and epsilon are then the state's. L(Y0) is read and never
    written. Y0 is the state's y1 when the profile holds its last
    result; the step leaves Y0 in y0, runs its stages in the state's
    buffers and allocates only its result, read-only. Without a state,
    the step makes one of its own and holds np.errstate itself.

    Raises StepFailureError, naming f or g and a node, if f or g loses
    positivity at any stage or is not finite and positive in the result.
    """
    dt = number(dt, "dt")
    require(0.0 < dt < math.inf, "dt", "be finite and positive", dt)
    if state is None:  # a step of its own: its own state, under its own np.errstate
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return step(profile, kind, epsilon, dt, _StepState.started(profile, kind, epsilon))
    t, k0, k, stages = profile.t, state.k0, state.k, state.stages
    if profile.f is state.f and profile.g is state.g:
        y0 = state.y1  # the last step's result, checked by its final check
    else:
        y0 = np.array((profile.f, profile.g))
        if np.minimum.reduce(y0, axis=None) <= 0.0:
            raise _failure(y0, t, dt, "positivity lost at an internal stage")
    state.y0 = y0  # the start of the interpolants of the records that the step passes over
    mu_1, rows = _rkl2_coefficients(_stages(dt, state.bound))
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
        _rhs_arrays(state, y_prev[0], y_prev[1], t, k)
        k *= mu_w * dt
        y = np.multiply(y_prev, mu, out=None if i == last else stages[(i + 1) % 3])
        y += k
        np.multiply(y_prev2, nu, out=k)
        y += k
        if c0 is not None:  # None at j = 2, every stage of an s = 2 step
            np.multiply(y0, c0, out=k)
            y += k
        np.multiply(k0, gamma_w * dt, out=k)
        y += k
        y_prev2, y_prev = y_prev, y
    low = np.minimum.reduce(y_prev, axis=1)  # NaN fails both comparisons
    if not (low[0] > 0.0 and low[1] > 0.0 and np.maximum.reduce(y_prev, axis=None) < math.inf):
        raise _failure(y_prev, t, dt, "positivity lost")
    y_prev.flags.writeable = False  # a sink that writes into a landed profile raises
    state.y1, state.f, state.g, state.y_min = y_prev, y_prev[0], y_prev[1], low.tolist()
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


def _next_landing(k: int, gaps: float) -> float:
    """Index of the first landing at or after record index k: the next multiple of gaps.

    The one landing rule of `evolve` with landing_gaps=gaps; inf when gaps
    is inf, as such a run lands on t_end only.
    """
    return math.inf if gaps == math.inf else -(-k // gaps) * gaps


def _lands(t: float, every: float, gaps: float, t_end: float) -> bool:
    """Whether `evolve` with landing_gaps=gaps lands on the record time t or ends there.

    A record time is k * every, and t / every rounds to k: it is a landing
    when `_next_landing` gives k itself. The others are interpolated.
    """
    k = round(t / every)
    return _next_landing(k, gaps) == k or _reached(t, t_end)


def _batch_rows(n: int, stop_when: Callable | None, work: np.ndarray | None = None) -> int:
    """Records per batch at grid size n: up to _RECORD_NODES nodes and, if given, as many as
    work holds, but at least one; one with stop_when."""
    rows = 1 if stop_when is not None else max(1, _RECORD_NODES // n)
    return rows if work is None else max(1, min(rows, work.size // (WORK_SLOTS * n)))


def record_landings(
    landings: Iterable[MetricProfile],
    kind: BundleKind,
    sink: RecordSink | None = None,
    stop_when: Callable[[DiagnosticsRecord], bool] | None = None,
    work: np.ndarray | None = None,
) -> int:
    """Evaluate the records of a run's profiles and hand them to the sink in order.

    The landings are the profiles to record, landed or interpolated, as
    `evolve` makes them. Records are evaluated in batches of up to 4096
    grid nodes, and of no more than work holds, so the sink gets each one
    up to one batch after its profile arrives. stop_when, if given, is
    evaluated on each record as its landing arrives (batches of one) and
    ends the stage at the first record it holds for. A
    NumericOverflowError of a record reaches the caller once the sink has
    seen every record before it. If the landings raise, the records of the
    landings before reach the sink first, and an error of those records or
    of the sink wins. Returns the number of records handed to the sink.

    work is the float64 workspace that `functionals` evaluates every batch
    in, WORK_SLOTS floats per node of a batch; without it, the first batch
    makes one for the stage.
    """
    pending: list[MetricProfile] = []  # landings whose records the sink has not seen yet
    count = 0

    def emit() -> bool:
        """Hand the pending records to the sink in order; True if stop_when ends the stage."""
        nonlocal count, work
        profiles, pending[:] = pending[:], []
        if work is None:
            n = profiles[0].n
            work = np.empty(WORK_SLOTS * _batch_rows(n, stop_when) * n)
        try:
            records = functionals(profiles, kind, work)
        except NumericOverflowError:  # one at a time: the sink sees every good record
            records = (functionals([prof], kind, work)[0] for prof in profiles)
        for rec, prof in zip(records, profiles):
            count += 1
            if sink is not None:
                sink(rec, prof)
        return stop_when is not None and stop_when(rec)  # a batch of one when set

    try:
        for prof in landings:
            pending.append(prof)
            del prof  # else it would outlive its record while the next landing is made
            if len(pending) == _batch_rows(pending[0].n, stop_when, work) and emit():
                break
    finally:
        if pending:  # the records made before a failing landing reach the sink before its error
            emit()
    return count


def _hermite(y0: np.ndarray, y1: np.ndarray, l0: np.ndarray, l1: np.ndarray,
             theta: float, dt: float, k: np.ndarray) -> np.ndarray:
    """The cubic Hermite interpolant of (y, L(y)) at a step's two ends, at theta of its dt.

    Hairer, Norsett & Wanner, Solving ODEs I, section II.6: y0 and y1 are
    the (2, n) states at the step's start and end, l0 and l1 their slopes.
    It is summed term by term with elementwise ufuncs, k (2, n) as
    scratch, into a fresh (2, n) array, which it makes read-only.
    """
    t2 = theta * theta
    t3 = t2 * theta
    y = np.multiply(y0, 2.0 * t3 - 3.0 * t2 + 1.0)
    y += np.multiply(y1, 3.0 * t2 - 2.0 * t3, out=k)
    y += np.multiply(l0, (t3 - 2.0 * t2 + theta) * dt, out=k)
    y += np.multiply(l1, (t3 - t2) * dt, out=k)
    y.flags.writeable = False  # as a step's result: a sink that writes into it raises
    return y


def evolve(
    profile: MetricProfile,
    config: FlowConfig,
    sink: RecordSink | None = None,
    stop_when: Callable[[DiagnosticsRecord], bool] | None = None,
    landed: Callable[[MetricProfile], object] | None = None,
    landing_gaps: float = 1,
) -> tuple[MetricProfile, RunSummary]:
    """Run the flow from the profile's time up to config.t_end.

    The sink is invoked with (record, profile) at the start time, at
    every global multiple of record_every, and at t_end. Steps land on
    every landing_gaps-th record time, a whole number K of record gaps,
    and on t_end; with K = inf, on t_end only. Landing times are global
    multiples too, so the record stream is deterministic and
    bit-reproducible across resumes from a landed profile. With K = 1,
    the default, every record time is a landing. One rule, `_reached`,
    decides whether a time has reached another: a step that reaches its
    landing lands on it, taking that time exactly, and the run ends once
    the profile's time reaches t_end. So the profile returned is always
    the last one the sink was given. A step that passes over record times
    on its way gives each of them the cubic Hermite interpolant of
    (y, L(y)) at its two ends (`_hermite`): such a profile is not a state
    of the discrete flow, and no step starts from it. L at a step's end
    is then the next step's start, evaluated once. `record_landings`
    makes the records: in batches of up to 4096 grid nodes, with K > 1
    one record fewer, so the sink gets them in order, up to one batch
    after the step that made them.
    stop_when, if given, is evaluated on each record right after its step
    (batches of one) and ends the run early at that record's time; it
    needs K = 1, as every record is then a landing.

    landed, if given, takes the place of sink and stop_when: it gets each
    profile to record, landed or interpolated, right after its step, and
    no record is evaluated here. A caller that makes the records
    elsewhere passes the profiles on to `record_landings`. summary.records
    counts records either way, not landings.

    A step spans dt = min(time to its landing, 20 stable_dt, 0.75 / R),
    R the largest relative rate of f or g at its start; the last two
    terms are the span that `_StepState.begin` sets. It is not retried:
    a step that loses positivity raises its own
    StepFailureError, naming the field, the node and the time it started
    from, once the sink has seen every record made before it.
    """
    if landed is not None and (sink is not None or stop_when is not None):
        raise TypeError("landed takes the place of sink and stop_when")
    landing_gaps = number(landing_gaps, "landing_gaps")
    if stop_when is not None and landing_gaps != 1:
        raise TypeError("stop_when needs a landing at every record time: landing_gaps = 1")
    require(landing_gaps == math.inf or (landing_gaps >= 1 and landing_gaps.is_integer()),
            "landing_gaps", "be a whole number >= 1 or inf", landing_gaps)
    validate_initial(profile, config.kind)
    summary = RunSummary()
    t_end, every = config.t_end, config.record_every
    gaps = landing_gaps if landing_gaps == math.inf else int(landing_gaps)
    arena = work = None  # the step state's own buffers when the records are made elsewhere
    if landed is None:  # one arena for the steps and, between them, the records
        # rows of n: a dense run's records skip l0 and k0, which outlive them, and make one
        # record fewer per batch, but at least one; the state's rows lie among their slots
        head = _KEPT_ROWS if gaps > 1 else 0
        records = max(1, (WORK_SLOTS * _batch_rows(profile.n, stop_when) - head) // WORK_SLOTS)
        arena = np.empty(max(_STATE_ROWS, head + WORK_SLOTS * records) * profile.n)
        work = arena[head * profile.n:]  # its size sets a batch's records
    state = _StepState(profile, config.kind, config.epsilon, arena)  # runs share no kernel

    def landings() -> Iterator[MetricProfile]:
        """The start profile, then the profile of each record time in order, and t_end's."""
        nonlocal profile
        k = next_record_index(profile.t, every)  # the next record time's index
        begun = False  # whether the state's start is the profile's, from the last step's end
        yield profile
        while not _reached(profile.t, t_end):
            landing = _next_landing(k, gaps)  # a record index
            target = min(landing * every, t_end)
            # one block for the start, the step and the step's end: overflow is
            # detected in _rhs_arrays and reported with the node; silence numpy
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                if not begun:
                    state.begin(profile)
                dt = min(target - profile.t, state.span)
                advanced = step(profile, state.kind, state.epsilon, dt, state)
                summary.steps += 1
                passed = k  # record times before the target that the step has reached
                while (passed < landing and _reached(advanced.t, passed * every)
                       and not _reached(passed * every, target)):
                    passed += 1
                begun = passed > k  # their interpolants need L at the step's end
                if begun:  # which the next step starts from: the start's L moves to l0 first
                    np.copyto(state.l0, state.k0)
                    state.begin(advanced)
            if begun:
                for j in range(k, passed):  # the records made here write over the state
                    theta = (j * every - profile.t) / dt
                    y = _hermite(state.y0, state.y1, state.l0, state.k0, theta, dt, state.k)
                    # a cubic between two positive ends can undershoot where f or g falls fast
                    if not np.minimum.reduce(y, axis=None) > 0.0:  # NaN fails too
                        raise _failure(y, profile.t, dt, f"interpolant at t={j * every!r} "
                                       "lost positivity")
                    yield MetricProfile._trusted(profile.n, profile.period, j * every, y[0], y[1])
                    del y  # else it would outlive its record while the next one is made
                k = passed
            # a step that a bound shortened can still land
            if _reached(advanced.t, target):
                # assign the landing time exactly so record times stay on the
                # global grid regardless of floating-point accumulation
                profile = MetricProfile._trusted(
                    advanced.n, advanced.period, target, advanced.f, advanced.g
                )
                k += 1
                yield profile  # the records made here write over the state
            else:
                profile = advanced

    if landed is None:
        summary.records = record_landings(landings(), config.kind, sink, stop_when, work)
    else:
        for prof in landings():
            landed(prof)
            summary.records += 1
    summary.t_final = profile.t
    return profile, summary
