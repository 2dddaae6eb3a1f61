"""Per-claim verdicts over an ordered stream of diagnostics records.

Each claim converts one qualitative statement about the flow into a
finite-horizon, threshold-based check. Torus-family claims:

  T-L2  extrema of the fibre size stay fixed in time
  T-L3  sup|g_s| never increases
  T-L4  sup|g_ss| grows at most exponentially (bounded log-slope)
  T-L5  orbit length L never decreases, and its measured rate matches
        the closed-form dL/dt
  T-T6  growth proxy: L gains at least delta_L by the end and dL/dt
        stays positive over the final quarter of the run
  T-C7  bundle volume V never decreases and V(end) >= g_min(0)^2 L(end)
  T-R   the number of sign changes of g_s is constant along the run

Sphere-family claims:

  S-L8   g_max never increases and g_min never decreases
  S-L9   sup|g_s| stays below 1/4
  S-L10  sup|g_ss| grows at most exponentially
  S-L12  orbit length L never increases
  S-L13  the l2 norm of g_ss decays to at most theta of its start value
  S-T14  the fibre size flattens: its spread decays to at most theta of
         the start value, and the limit estimate alpha_hat is sandwiched
         by the initial extrema
  S-L15  the l2 norm of g_sss decays to at most theta of its start value
  S-K    end-state curvature limits: sup|K12| small, K23 nearly
         constant, R_mean close to 2 K23_mean and K23_mean close to
         1/alpha_hat^2

Simple claims report a raw worst violation against a raw threshold.
Compound claims (several conditions under one id) report the largest
violation-to-tolerance ratio of their components against a tolerance of
1.0, so the pass rule `measured <= tolerance` holds uniformly and
tightening any component tolerance can only flip pass to fail.

Monotonicity checks tolerate per-step violations up to
(mono_base + mono_dx2 * dx^2) scaled by the quantity's magnitude, since
spatial truncation error perturbs extrema on coarse grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .diagnostics import DiagnosticsRecord
from .geometry import BundleKind

__all__ = [
    "ClaimTolerances",
    "ClaimVerdict",
    "FieldError",
    "InsufficientDataError",
    "TORUS_CLAIMS",
    "SPHERE_CLAIMS",
    "ALL_CLAIMS",
    "evaluate_claims",
]

TORUS_CLAIMS = ("T-L2", "T-L3", "T-L4", "T-L5", "T-T6", "T-C7", "T-R")
SPHERE_CLAIMS = ("S-L8", "S-L9", "S-L10", "S-L12", "S-L13", "S-T14", "S-L15", "S-K")
ALL_CLAIMS = TORUS_CLAIMS + SPHERE_CLAIMS

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

SLOPE_BOUND = 0.25


class InsufficientDataError(ValueError):
    """Fewer records than the claim checker needs."""


class FieldError(ValueError):
    """A configuration value is out of range; `keys` name the fields involved,
    the most specific first."""

    def __init__(self, message: str, *keys: str):
        self.keys = keys
        super().__init__(message)


@dataclass(frozen=True)
class ClaimTolerances:
    """Named thresholds used by the claim checker.

    dx is the spatial grid spacing of the run that produced the records;
    it enters the monotonicity slack (mono_base + mono_dx2 * dx^2).
    Every field is finite and >= 0; dx and rate_abs are divisors and must
    be positive, and theta lies in (0, 1]. NaN fails every check.
    """

    dx: float = 2.0 * math.pi / 256.0
    mono_base: float = 1e-8
    mono_dx2: float = 1e-2
    extrema_drift: float = 1e-4
    growth_cap: float = 10.0
    delta_l_frac: float = 0.005
    theta: float = 0.1
    rate_rel: float = 1e-3
    rate_abs: float = 1e-6
    tol_k: float = 1e-2
    tol_r_pair: float = 1e-3
    tol_alpha_k23: float = 1e-2

    def __post_init__(self):
        for f in fields(self):
            value = float(getattr(self, f.name))
            if f.name == "theta":
                ok, rule = 0.0 < value <= 1.0, "be in (0, 1]"
            elif f.name in ("dx", "rate_abs"):
                ok, rule = 0.0 < value < math.inf, "be finite and positive"
            else:
                ok, rule = 0.0 <= value < math.inf, "be finite and >= 0"
            if not ok:
                raise FieldError(f"{f.name} must {rule}, got {value!r}", f.name)

    def mono_tol(self, scale: float) -> float:
        return (self.mono_base + self.mono_dx2 * self.dx**2) * abs(scale)


@dataclass(frozen=True)
class ClaimVerdict:
    claim_id: str
    status: str  # pass | fail | not-applicable
    measured: float
    tolerance: float
    note: str


def _ratio(violation: float, tol: float) -> float:
    """Violation normalised by its tolerance; 0 when there is none."""
    if violation <= 0.0:
        return 0.0
    if tol <= 0.0:
        return math.inf
    return violation / tol


def _max(*values: float) -> float:
    """Python's max, except that any NaN argument makes the result NaN."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _worst_increase(values: np.ndarray) -> float:
    return _max(0.0, float(np.max(np.diff(values))))


def _worst_decrease(values: np.ndarray) -> float:
    return _max(0.0, float(-np.min(np.diff(values))))


def _max_log_slope(t: np.ndarray, values: np.ndarray) -> float:
    """Largest forward slope of log(values); -inf when never defined."""
    if np.isnan(values).any():
        return math.nan
    worst = -math.inf
    for k in range(len(values) - 1):
        a, b = values[k], values[k + 1]
        if a > 0.0 and b > 0.0:
            worst = max(worst, (math.log(b) - math.log(a)) / (t[k + 1] - t[k]))
    return worst


def _rate_residual_ratio(
    t: np.ndarray, values: np.ndarray, formula: np.ndarray, tol: ClaimTolerances
) -> float:
    """Worst centred-difference mismatch against the closed-form rate.

    Each interior record contributes |FD - formula| / max(rate_rel *
    |formula|, rate_abs); the claim passes while the worst ratio is <= 1.
    """
    fd = (values[2:] - values[:-2]) / (t[2:] - t[:-2])
    allowed = np.maximum(tol.rate_rel * np.abs(formula[1:-1]), tol.rate_abs)
    return _max(0.0, float(np.max(np.abs(fd - formula[1:-1]) / allowed)))


def _verdict(claim_id: str, measured: float, tolerance: float, note: str) -> ClaimVerdict:
    measured, tolerance = float(measured), float(tolerance)
    ok = measured <= tolerance  # NaN compares false and therefore fails
    return ClaimVerdict(claim_id, PASS if ok else FAIL, measured, tolerance, note)


def _na(claim_id: str, note: str) -> ClaimVerdict:
    return ClaimVerdict(claim_id, NOT_APPLICABLE, math.nan, math.nan, note)


def evaluate_claims(
    records: Sequence[DiagnosticsRecord],
    kind: BundleKind,
    tolerances: ClaimTolerances | None = None,
) -> list[ClaimVerdict]:
    """Turn an ordered record stream into one verdict per claim.

    Claims of the other bundle family are reported not-applicable, as is
    T-L2/T-T6 when the initial fibre size is constant (the flow is then
    stationary and the statements are vacuous). Requires at least 3
    records at strictly increasing times.
    """
    tol = tolerances if tolerances is not None else ClaimTolerances()
    if len(records) < 3:
        raise InsufficientDataError(
            f"claim evaluation needs at least 3 records, got {len(records)}"
        )
    t, L, V, g_max, g_min, sup_gs, sup_gss, l2_gss, l2_gsss, zc, dL_formula = (
        np.array([getattr(r, name) for r in records])
        for name in ("t", "L", "V", "g_max", "g_min", "sup_gs", "sup_gss",
                     "l2_gss", "l2_gsss", "zero_count", "dL_dt_formula")
    )
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("records must be ordered by strictly increasing t")

    gap0 = g_max[0] - g_min[0]
    constant_initial = gap0 <= 1e-12 * max(1.0, abs(g_max[0]))
    alpha_hat = float(0.5 * (g_max[-1] + g_min[-1]))

    out: list[ClaimVerdict] = []  # in ALL_CLAIMS order: the torus family, then the sphere's

    # --- torus family ---
    if kind is BundleKind.TORUS:
        if constant_initial:
            out.append(_na("T-L2", "initial fibre size is constant; extrema claim is vacuous"))
        else:
            drift = _max(
                float(np.max(np.abs(g_max - g_max[0]))),
                float(np.max(np.abs(g_min - g_min[0]))),
            )
            out.append(_verdict(
                "T-L2", drift, tol.extrema_drift,
                "worst drift of g_max/g_min from their start values",
            ))

        out.append(_verdict(
            "T-L3", _worst_increase(sup_gs), tol.mono_tol(np.max(sup_gs)),
            "worst per-record increase of sup|g_s|",
        ))

        out.append(_verdict(
            "T-L4", _max_log_slope(t, sup_gss), tol.growth_cap,
            "largest log-slope of sup|g_ss| (exponential bound proxy)",
        ))

        mono = _ratio(_worst_decrease(L), tol.mono_tol(np.max(L)))
        resid = _rate_residual_ratio(t, L, dL_formula, tol)
        out.append(_verdict(
            "T-L5", _max(mono, resid), 1.0,
            "max of L-monotonicity and dL/dt rate-identity violation ratios",
        ))

        if constant_initial:
            out.append(_na("T-T6", "initial fibre size is constant; growth proxy is vacuous"))
        else:
            delta = float(tol.delta_l_frac * L[0])
            shortfall = (L[0] + delta) - L[-1]
            # any positive shortfall against the required gain must fail
            growth = 0.0 if shortfall <= 0.0 else 1.0 + _ratio(shortfall, delta)
            tail = dL_formula[t >= t[0] + 0.75 * (t[-1] - t[0])]
            min_rate = float(np.min(tail)) if tail.size else math.nan
            positive = 0.0 if min_rate > 0.0 else 2.0 + _ratio(-min_rate, tol.rate_abs)
            out.append(_verdict(
                "T-T6", _max(growth, positive), 1.0,
                f"finite-horizon growth proxy (delta_L={delta!r}, final-quarter min dL/dt={min_rate!r})",
            ))

        v_mono = _ratio(_worst_decrease(V), tol.mono_tol(np.max(V)))
        v_bound = _ratio(g_min[0] ** 2 * L[-1] - V[-1], tol.mono_tol(np.max(V)))
        out.append(_verdict(
            "T-C7", _max(v_mono, v_bound), 1.0,
            "V must not decrease and must end at or above g_min(0)^2 L(end)",
        ))

        zc_drift = float(np.max(np.abs(zc - zc[0])))
        out.append(_verdict(
            "T-R", zc_drift, 0.0,
            "sign-change count of g_s must stay constant",
        ))
    else:
        out.extend(_na(cid, "applies to torus runs only") for cid in TORUS_CLAIMS)

    # --- sphere family ---
    if kind is BundleKind.SPHERE:
        up = _ratio(_worst_increase(g_max), tol.mono_tol(np.max(g_max)))
        down = _ratio(_worst_decrease(g_min), tol.mono_tol(np.max(g_max)))
        out.append(_verdict(
            "S-L8", _max(up, down), 1.0,
            "g_max must not increase and g_min must not decrease",
        ))

        out.append(_verdict(
            "S-L9", float(np.max(sup_gs)), SLOPE_BOUND,
            "sup|g_s| must stay within the initial slope bound",
        ))

        out.append(_verdict(
            "S-L10", _max_log_slope(t, sup_gss), tol.growth_cap,
            "largest log-slope of sup|g_ss| (exponential bound proxy)",
        ))

        out.append(_verdict(
            "S-L12", _worst_increase(L), tol.mono_tol(np.max(L)),
            "worst per-record increase of the orbit length",
        ))

        out.append(_verdict(
            "S-L13", float(l2_gss[-1]), tol.theta * float(l2_gss[0]),
            "final l2 norm of g_ss against theta times its start value",
        ))

        flat = _ratio(float(g_max[-1] - g_min[-1]), tol.theta * gap0)
        slack = tol.mono_tol(g_max[0])
        sandwich = _ratio(_max(g_min[0] - alpha_hat, alpha_hat - g_max[0]), slack)
        out.append(_verdict(
            "S-T14", _max(flat, sandwich), 1.0,
            f"fibre size flattens toward alpha_hat={alpha_hat!r} inside the initial extrema",
        ))

        out.append(_verdict(
            "S-L15", float(l2_gsss[-1]), tol.theta * float(l2_gsss[0]),
            "final l2 norm of g_sss against theta times its start value",
        ))

        rec = records[-1]
        parts = (
            _ratio(rec.K12_sup, tol.tol_k),
            _ratio(rec.K23_spread, tol.tol_k),
            _ratio(abs(rec.R_mean - 2.0 * rec.K23_mean), tol.tol_r_pair),
            _ratio(abs(rec.K23_mean - 1.0 / alpha_hat**2), tol.tol_alpha_k23),
        )
        out.append(_verdict(
            "S-K", _max(*parts), 1.0,
            "end-state curvature limits; the limit of K23 is read as 1/alpha_hat^2 "
            "(the flat-fibre-size reading of the limit constant)",
        ))
    else:
        out.extend(_na(cid, "applies to sphere runs only") for cid in SPHERE_CLAIMS)
    return out
