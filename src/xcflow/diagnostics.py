"""Geometric functionals, norms, and closed-form rates along the flows.

Integrals over the base circle are taken against arc length, ds = f dx,
by the periodic trapezoid rule (node weights f[i] * dx; midpoint and
trapezoid coincide on a uniform periodic grid). Higher arc-length
derivatives are built by repeated application of the first-derivative
stencil. `functionals` evaluates a stack of records in one pass on
(records, n) arrays; every sum and extremum runs along the contiguous
last axis, so each row is bit-identical to a one-record call. The rate
integrands are written once, in `_rates`, which `rate_formulas` shares.

`DiagnosticsRecord` states the record schema once: its fields in order,
less the in-memory `E2_rate_formula`, are the `series.csv` columns
(`SERIES_FIELDS`), each of its field's declared type.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from ._periodic import ddx
from .geometry import BundleKind, MetricProfile, NumericOverflowError, curvature_field, s_derivative
from .geometry import _curvature

__all__ = [
    "DiagnosticsRecord",
    "SERIES_FIELDS",
    "RateFormulas",
    "functionals",
    "rate_formulas",
    "integrate_ds",
    "count_sign_changes",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time-stamped row of geometric functionals.

    dV_dt_formula is NaN for sphere runs (no closed-form volume rate is
    available for that family). E2_rate_formula is carried in memory but
    is not part of the CSV row schema; rows loaded back from CSV have it
    set to NaN.
    """

    t: float
    L: float
    V: float
    g_max: float
    g_min: float
    sup_gs: float
    sup_gss: float
    E2: float
    l2_gss: float
    l2_gsss: float
    zero_count: int
    dL_dt_formula: float
    dV_dt_formula: float
    K12_sup: float
    K23_mean: float
    K23_spread: float
    R_mean: float
    E2_rate_formula: float = math.nan


_RECORD_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))
# the series.csv columns, in order
SERIES_FIELDS = tuple(name for name in _RECORD_FIELDS if name != "E2_rate_formula")


@dataclass(frozen=True)
class RateFormulas:
    """Closed-form time derivatives of the monitored functionals.

    Entries are None where no closed form is available for the family:
    dV_dt for the sphere, l2_gsss_rate for the torus.
    """

    dL_dt: float
    dV_dt: float | None
    e2_rate: float
    l2_gsss_rate: float | None


def _integrate(values, f: np.ndarray, dx: float) -> np.ndarray:
    """integrate_ds of each row of (..., n) stacks, summed along the contiguous last axis."""
    return np.add.reduce(values * f, axis=-1) * dx


def integrate_ds(values: np.ndarray, profile: MetricProfile) -> float:
    """Periodic trapezoid quadrature of node samples against ds = f dx."""
    return float(_integrate(np.asarray(values), profile.f, profile.dx))


def count_sign_changes(values: np.ndarray) -> int:
    """Sign changes of periodic samples around the circle.

    Exact zeros are skipped: a node where the value vanishes without the
    neighbours changing sign contributes nothing. The count is always
    even for a periodic sequence.
    """
    s = np.sign(np.asarray(values, dtype=float))
    s = s[s != 0.0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[1:] != s[:-1])) + int(s[0] != s[-1])


def _rates(g, f, dx, kind, w, gss, gsss, gssss=None):
    """(dL/dt, dV/dt, dE2/dt, d/dt l2_gsss) per row of (..., n) stacks, as in `rate_formulas`.

    The last needs g_ssss and is None without it; call under np.errstate.
    """
    # every power is formed once; each rate integrand is a polynomial in
    # 1/g, evaluated by Horner's rule from its highest power of 1/g down
    w2, gss2, gsss2 = w * w, gss * gss, gsss * gsss
    gss3 = gss2 * gss
    gss4 = gss2 * gss2
    g2 = g * g
    inv_g4 = 1.0 / (g2 * g2)
    dL = kind.flow_sign * _integrate(gss2 / g2, f, dx)
    if kind is BundleKind.TORUS:
        w4 = w2 * w2
        dV = _integrate((2.0 / 3.0) * w4 / g2 + gss2, f, dx)
        e2 = inv_g4 * ((12.0 * w4 * gss2 / g - (38.0 / 3.0) * w2 * gss3) / g
                       - gss4 / 3.0 - 2.0 * w2 * gsss2)
        return dL, dV, _integrate(e2, f, dx), None
    one_m_w2 = 1.0 - w2
    e2 = inv_g4 * ((12.0 * w2 * one_m_w2 * gss2 / g + ((38.0 / 3.0) * w2 - 6.0) * gss3) / g
                   + gss4 / 3.0 - 2.0 * one_m_w2 * gsss2)
    if gssss is None:
        return dL, None, _integrate(e2, f, dx), None
    gss_gsss = gss * gsss
    # coefficients of g^-6 ... g^-2
    c6 = -120.0 * w2 * w2 * one_m_w2 * gss2
    c5 = 248.0 * w2 * (15.0 / 31.0 - w2) * gss3
    c4 = 24.0 * w2 * one_m_w2 * gsss2 - 96.0 * (1.0 / 8.0 - w2) * gss4
    c3 = gss_gsss * (32.0 * w * gss2 - 44.0 * (3.0 / 11.0 - w2) * gsss)
    c2 = -2.0 * one_m_w2 * gssss * gssss + gss_gsss * gss_gsss + 8.0 * w * gss_gsss * gssss
    l3 = ((((c6 / g + c5) / g + c4) / g + c3) / g + c2) / g2
    return dL, None, _integrate(e2, f, dx), _integrate(l3, f, dx)


def rate_formulas(profile: MetricProfile, kind: BundleKind) -> RateFormulas:
    """Evaluate the closed-form rates of L, V, E2 and the l2 norm of g_sss.

    Each rate is the quadrature of a pointwise integrand in g and its
    arc-length derivatives up to fourth order:

      dL/dt  = +/- integral of (1/g^2) g_ss^2 ds  (+ torus, - sphere)
      dV/dt  (torus) = integral of (2/3)(1/g^2) g_s^4 + g_ss^2 ds
      dE2/dt (torus) = integral of -(38/3) g^-5 g_s^2 g_ss^3
                       - (1/3) g^-4 g_ss^4 - 2 g^-4 g_s^2 g_sss^2
                       + 12 g^-6 g_s^4 g_ss^2 ds
      dE2/dt (sphere) = integral of -2 g^-4 (1-g_s^2) g_sss^2
                        + (1/3) g^-4 g_ss^4 + g^-5 ((38/3) g_s^2 - 6) g_ss^3
                        + 12 g^-6 g_s^2 (1-g_s^2) g_ss^2 ds
      d/dt l2_gsss (sphere) = nine-term integrand in g_s..g_ssss.

    `functionals` stores all but the last, from the same arithmetic.
    """
    w = s_derivative(profile, profile.g)
    gss = s_derivative(profile, w)
    gsss = s_derivative(profile, gss)
    rates = _rates(profile.g, profile.f, profile.dx, kind, w, gss, gsss,
                   s_derivative(profile, gsss))
    return RateFormulas(*(None if r is None else float(r) for r in rates))


def functionals(profiles: Sequence[MetricProfile], kind: BundleKind) -> list[DiagnosticsRecord]:
    """One diagnostics row per profile, in order, for profiles on one grid.

    The volume is the ds-integral of the fibre area: g^2 on the torus,
    and the round-fibre area 4 pi g^2 on the sphere, an extension beyond
    the torus-only definition (see README).

    Raises NumericOverflowError for the first profile with a non-finite
    row: as `curvature_field` does when its curvature is not finite, else
    naming the first non-finite field in field order (the sphere's
    dV_dt_formula is NaN by design and exempt).
    """
    dx = profiles[0].dx
    f = np.array([p.f for p in profiles])
    g = np.array([p.g for p in profiles])
    # a non-finite row is reported below by name; silence numpy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        field = _curvature(f, g, dx, kind.kappa)
        w, gss = field.w, field.w_s
        gsss = ddx(gss, dx) / f
        dL, dV, e2_rate, _ = _rates(g, f, dx, kind, w, gss, gsss)
        vol = _integrate(g * g, f, dx)
        columns = dict(  # by field name; the record's field order is the only order
            t=np.array([p.t for p in profiles]),
            L=_integrate(1.0, f, dx),
            V=vol if kind is BundleKind.TORUS else 4.0 * math.pi * vol,
            g_max=g.max(axis=-1),
            g_min=g.min(axis=-1),
            sup_gs=np.abs(w).max(axis=-1),
            sup_gss=np.abs(gss).max(axis=-1),
            E2=kind.flow_sign * dL,  # dL/dt = +/- E2: one sum, sign flip exact
            l2_gss=_integrate(gss * gss, f, dx),
            l2_gsss=_integrate(gsss * gsss, f, dx),
            zero_count=np.array([count_sign_changes(row) for row in w]),
            dL_dt_formula=dL,
            dV_dt_formula=np.full(len(profiles), math.nan) if dV is None else dV,
            K12_sup=np.abs(field.K12).max(axis=-1),
            K23_mean=field.K23.mean(axis=-1),
            K23_spread=field.K23.max(axis=-1) - field.K23.min(axis=-1),
            R_mean=field.R.mean(axis=-1),
            E2_rate_formula=e2_rate,
        )
        values = [columns[name] for name in _RECORD_FIELDS]
        finite = np.isfinite(np.array(values))  # (fields, rows)
    if kind is BundleKind.SPHERE:
        finite[_RECORD_FIELDS.index("dV_dt_formula")] = True  # NaN by design
    if not finite.all():
        row = int(np.argmin(finite.all(axis=0)))  # the first row with a non-finite field
        curvature_field(profiles[row], kind)  # raises first when the curvature is not finite
        name = _RECORD_FIELDS[int(np.argmin(finite[:, row]))]
        raise NumericOverflowError(f"record field {name}", None, profiles[row].t)
    # tolist gives builtin floats and ints, whose repr is the series text
    return [DiagnosticsRecord(*row) for row in zip(*(v.tolist() for v in values))]
