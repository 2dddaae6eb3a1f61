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
  S-L12  orbit length L never increases, and its measured rate matches
         the closed-form dL/dt
  S-L13  the l2 norm of g_ss decays to at most theta of its start value
  S-T14  the fibre size flattens: its spread decays to at most theta of
         the start value, and the limit estimate alpha_hat is sandwiched
         by the initial extrema
  S-L15  the l2 norm of g_sss decays to at most theta of its start value
  S-K    end-state curvature limits: sup|K12| small, K23 nearly
         constant, R_mean close to 2 K23_mean and K23_mean close to
         1/alpha_hat^2

The two families share two claims, each computed once: T-L4 and S-L10
are one growth bound, and T-L5 and S-L12 one length claim. L moves with
the flow's sign (`BundleKind.flow_sign`), so the length claim's
monotonicity violation is the worst rise of -flow_sign * L: the sign is
an argument of the one worst-rise helper.

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

from .diagnostics import SERIES_FIELDS, DiagnosticsRecord, series_table
from .geometry import BundleKind, number, require

__all__ = [
    "ClaimTolerances",
    "ClaimVerdict",
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


@dataclass(frozen=True)
class ClaimTolerances:
    """Named thresholds used by the claim checker.

    dx is the spatial grid spacing of the run that produced the records;
    it enters the monotonicity slack (mono_base + mono_dx2 * dx^2).
    Every field passes `geometry.number`, the one number rule (a real
    number, not a str or a bool), and is stored as a float. Every field
    is finite and >= 0; dx and rate_abs are divisors and must be
    positive, and theta lies in (0, 1]. NaN fails every check.
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
            value = number(getattr(self, f.name), f.name)
            object.__setattr__(self, f.name, value)
            if f.name == "theta":
                require(0.0 < value <= 1.0, f.name, "be in (0, 1]", value)
            elif f.name in ("dx", "rate_abs"):
                require(0.0 < value < math.inf, f.name, "be finite and positive", value)
            else:
                require(0.0 <= value < math.inf, f.name, "be finite and >= 0", value)

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


def _worst_rise(values: np.ndarray, sign: float = 1.0) -> float:
    """Largest rise of sign * values between consecutive values, 0 when none.

    A fall of v is a rise of -v. The sign scales the differences in place:
    the result is that of sign * values, with no array of sign * values
    (such arrays raised a run's peak memory).
    """
    rises = np.diff(values)
    rises *= sign
    return _max(0.0, float(np.max(rises)))


def _max_log_slope(t: np.ndarray, values: np.ndarray) -> float:
    """Largest forward slope of log(values) between consecutive positive values.

    NaN slopes (inf - inf) are skipped; -inf when no slope is left, NaN
    when a value is NaN. Each log is `math.log`'s, and of equal largest
    slopes the first counts, which gives a zero its sign.
    """
    if np.isnan(values).any():
        return math.nan
    positive = values > 0.0
    logs = np.zeros(len(values))
    # one value at a time into an array of the right size: a list of them, or an
    # array that grows as it fills, fragments the heap and raises a run's peak memory
    logs[positive] = np.fromiter(map(math.log, values[positive]), float,
                                 np.count_nonzero(positive))
    slopes = np.diff(logs)
    slopes /= np.diff(t)
    slopes = slopes[positive[:-1] & positive[1:] & ~np.isnan(slopes)]
    if not slopes.size:
        return -math.inf
    worst = float(np.max(slopes))
    return worst if worst != 0.0 else float(slopes[slopes == 0.0][0])


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


# a non-finite cell makes its claim's measure NaN, which fails; silence numpy
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def evaluate_claims(
    records: Sequence[DiagnosticsRecord] | np.ndarray,
    kind: BundleKind,
    tolerances: ClaimTolerances | None = None,
) -> list[ClaimVerdict]:
    """Turn an ordered record stream into one verdict per claim.

    `records` is a sequence of DiagnosticsRecord or a series table: a
    float64 array of shape (rows, len(SERIES_FIELDS)), its columns in
    SERIES_FIELDS order, as `read_series` returns it. Both give the same
    verdicts. Claims of the other bundle family are reported
    not-applicable, as is T-L2/T-T6 when the initial fibre size is
    constant (the flow is then stationary and the statements are
    vacuous). Requires at least 3 records at strictly increasing finite
    times, and a BundleKind: a string such as "torus" is rejected.
    """
    require(isinstance(kind, BundleKind), "kind", "be a BundleKind", kind)
    tol = tolerances if tolerances is not None else ClaimTolerances()
    table = records if isinstance(records, np.ndarray) else series_table(records)
    if table.ndim != 2 or table.shape[1] != len(SERIES_FIELDS):
        raise ValueError(
            f"a series table has {len(SERIES_FIELDS)} columns, got shape {table.shape}"
        )
    if len(table) < 3:
        raise InsufficientDataError(
            f"claim evaluation needs at least 3 records, got {len(table)}"
        )
    t, L, V, g_max, g_min, sup_gs, sup_gss, l2_gss, l2_gsss, zc, dL_formula = (
        table[:, SERIES_FIELDS.index(name)]
        for name in ("t", "L", "V", "g_max", "g_min", "sup_gs", "sup_gss",
                     "l2_gss", "l2_gsss", "zero_count", "dL_dt_formula")
    )
    if not (np.isfinite(t).all() and (np.diff(t) > 0.0).all()):
        raise ValueError("records must be ordered by strictly increasing finite t")

    gap0 = g_max[0] - g_min[0]
    constant_initial = gap0 <= 1e-12 * max(1.0, abs(g_max[0]))
    vacuous = "initial fibre size is constant; {} is vacuous"

    # each claim is (measured, tolerance, note), or the note of a vacuous claim
    growth = (_max_log_slope(t, sup_gss), tol.growth_cap,
              "largest log-slope of sup|g_ss| (exponential bound proxy)")
    l_against_flow = _worst_rise(L, -kind.flow_sign)  # L rises on the torus, falls on the sphere
    length = (_max(_ratio(l_against_flow, tol.mono_tol(np.max(L))),
                   _rate_residual_ratio(t, L, dL_formula, tol)),
              1.0, "max of L-monotonicity and dL/dt rate-identity violation ratios")
    if kind is BundleKind.TORUS:
        other = "sphere"
        growth_proxy = vacuous.format("growth proxy")
        if not constant_initial:
            delta = float(tol.delta_l_frac * L[0])
            shortfall = (L[0] + delta) - L[-1]
            # any positive shortfall against the required gain must fail
            gain = 0.0 if shortfall <= 0.0 else 1.0 + _ratio(shortfall, delta)
            tail = dL_formula[t >= t[0] + 0.75 * (t[-1] - t[0])]
            min_rate = float(np.min(tail)) if tail.size else math.nan
            positive = 0.0 if min_rate > 0.0 else 2.0 + _ratio(-min_rate, tol.rate_abs)
            growth_proxy = (_max(gain, positive), 1.0, "finite-horizon growth proxy "
                            f"(delta_L={delta!r}, final-quarter min dL/dt={min_rate!r})")
        drift = _max(float(np.max(np.abs(g_max - g_max[0]))),
                     float(np.max(np.abs(g_min - g_min[0]))))
        v_tol = tol.mono_tol(np.max(V))
        v_bound = _ratio(g_min[0] ** 2 * L[-1] - V[-1], v_tol)
        claims = {
            "T-L2": vacuous.format("extrema claim") if constant_initial else (
                drift, tol.extrema_drift, "worst drift of g_max/g_min from their start values"),
            "T-L3": (_worst_rise(sup_gs), tol.mono_tol(np.max(sup_gs)),
                     "worst per-record increase of sup|g_s|"),
            "T-L4": growth,
            "T-L5": length,
            "T-T6": growth_proxy,
            "T-C7": (_max(_ratio(_worst_rise(V, -1.0), v_tol), v_bound), 1.0,
                     "V must not decrease and must end at or above g_min(0)^2 L(end)"),
            "T-R": (float(np.max(np.abs(zc - zc[0]))), 0.0,
                    "sign-change count of g_s must stay constant"),
        }
    else:
        other = "torus"
        alpha_hat = float(0.5 * (g_max[-1] + g_min[-1]))
        g_tol = tol.mono_tol(np.max(g_max))
        sandwich = _max(g_min[0] - alpha_hat, alpha_hat - g_max[0])
        k12_sup, k23_mean, k23_spread, r_mean = (
            float(table[-1, SERIES_FIELDS.index(name)])
            for name in ("K12_sup", "K23_mean", "K23_spread", "R_mean")
        )
        claims = {
            "S-L8": (_max(_ratio(_worst_rise(g_max), g_tol),
                          _ratio(_worst_rise(g_min, -1.0), g_tol)),
                     1.0, "g_max must not increase and g_min must not decrease"),
            "S-L9": (float(np.max(sup_gs)), SLOPE_BOUND,
                     "sup|g_s| must stay within the initial slope bound"),
            "S-L10": growth,
            "S-L12": length,
            "S-L13": (float(l2_gss[-1]), tol.theta * float(l2_gss[0]),
                      "final l2 norm of g_ss against theta times its start value"),
            "S-T14": (_max(_ratio(float(g_max[-1] - g_min[-1]), tol.theta * gap0),
                           _ratio(sandwich, tol.mono_tol(g_max[0]))), 1.0,
                      f"fibre size flattens toward alpha_hat={alpha_hat!r} "
                      "inside the initial extrema"),
            "S-L15": (float(l2_gsss[-1]), tol.theta * float(l2_gsss[0]),
                      "final l2 norm of g_sss against theta times its start value"),
            "S-K": (_max(_ratio(k12_sup, tol.tol_k), _ratio(k23_spread, tol.tol_k),
                         _ratio(abs(r_mean - 2.0 * k23_mean), tol.tol_r_pair),
                         _ratio(abs(k23_mean - 1.0 / alpha_hat**2), tol.tol_alpha_k23)),
                    1.0, "end-state curvature limits; the limit of K23 is read as 1/alpha_hat^2 "
                    "(the flat-fibre-size reading of the limit constant)"),
        }
    out = []
    for cid in ALL_CLAIMS:
        claim = claims.get(cid, f"applies to {other} runs only")
        out.append(_na(cid, claim) if isinstance(claim, str) else _verdict(cid, *claim))
    return out
