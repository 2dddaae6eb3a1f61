"""Geometric functionals, norms, and closed-form rates along the flows.

Integrals over the base circle are taken against arc length, ds = f dx,
by the periodic trapezoid rule (node weights f[i] * dx; midpoint and
trapezoid coincide on a uniform periodic grid). Higher arc-length
derivatives are built by repeated application of the first-derivative
stencil, once per record: `functionals` takes g_s and g_ss from the
curvature field and passes the whole chain on to `rate_formulas`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BundleKind, MetricProfile, NumericOverflowError, curvature_field, s_derivative

__all__ = [
    "DiagnosticsRecord",
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


def integrate_ds(values: np.ndarray, profile: MetricProfile) -> float:
    """Periodic trapezoid quadrature of node samples against ds = f dx."""
    return float(np.sum(np.asarray(values) * profile.f) * profile.dx)


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


def _derivative_chain(
    profile: MetricProfile,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g_s, g_ss, g_sss, g_ssss by repeated first-derivative passes."""
    w = s_derivative(profile, profile.g)
    gss = s_derivative(profile, w)
    gsss = s_derivative(profile, gss)
    gssss = s_derivative(profile, gsss)
    return w, gss, gsss, gssss


def rate_formulas(
    profile: MetricProfile,
    kind: BundleKind,
    chain: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> RateFormulas:
    """Evaluate the closed-form rates of L, V, E2 and the l2 norm of g_sss.

    chain = (g_s, g_ss, g_sss, g_ssss) lets a caller that already holds
    the derivatives skip their recomputation.

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
    """
    w, gss, gsss, gssss = _derivative_chain(profile) if chain is None else chain
    g = profile.g
    # every power is formed once; each rate integrand is a polynomial in
    # 1/g, evaluated by Horner's rule from its highest power of 1/g down
    w2, gss2, gsss2 = w * w, gss * gss, gsss * gsss
    gss3 = gss2 * gss
    gss4 = gss2 * gss2
    g2 = g * g
    inv_g4 = 1.0 / (g2 * g2)
    e2 = integrate_ds(gss2 / g2, profile)
    dL = kind.flow_sign * e2
    if kind is BundleKind.TORUS:
        w4 = w2 * w2
        dV = integrate_ds((2.0 / 3.0) * w4 / g2 + gss2, profile)
        e2_rate = integrate_ds(
            inv_g4 * ((12.0 * w4 * gss2 / g - (38.0 / 3.0) * w2 * gss3) / g
                      - gss4 / 3.0 - 2.0 * w2 * gsss2),
            profile,
        )
        l3_rate = None
    else:
        dV = None
        one_m_w2 = 1.0 - w2
        e2_rate = integrate_ds(
            inv_g4 * ((12.0 * w2 * one_m_w2 * gss2 / g + ((38.0 / 3.0) * w2 - 6.0) * gss3) / g
                      + gss4 / 3.0 - 2.0 * one_m_w2 * gsss2),
            profile,
        )
        gss_gsss = gss * gsss
        # coefficients of g^-6 ... g^-2
        c6 = -120.0 * w2 * w2 * one_m_w2 * gss2
        c5 = 248.0 * w2 * (15.0 / 31.0 - w2) * gss3
        c4 = 24.0 * w2 * one_m_w2 * gsss2 - 96.0 * (1.0 / 8.0 - w2) * gss4
        c3 = gss_gsss * (32.0 * w * gss2 - 44.0 * (3.0 / 11.0 - w2) * gsss)
        c2 = (-2.0 * one_m_w2 * gssss * gssss + gss_gsss * gss_gsss
              + 8.0 * w * gss_gsss * gssss)
        l3_rate = integrate_ds(
            ((((c6 / g + c5) / g + c4) / g + c3) / g + c2) / g2, profile
        )
    return RateFormulas(dL_dt=dL, dV_dt=dV, e2_rate=e2_rate, l2_gsss_rate=l3_rate)


def functionals(profile: MetricProfile, kind: BundleKind) -> DiagnosticsRecord:
    """Compute one diagnostics row for the current profile.

    The torus bundle volume is the ds-integral of the fibre area g^2;
    the sphere family uses the round-fibre area 4 pi g^2, an extension
    beyond the torus-only definition (see README).

    Raises NumericOverflowError naming the first non-finite field in
    series order; the sphere's dV_dt_formula is NaN by design and exempt.
    """
    # a non-finite field is reported below by name; silence numpy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        field = curvature_field(profile, kind)
        g = profile.g
        w, gss = field.w, field.w_s
        gsss = s_derivative(profile, gss)
        vol = integrate_ds(g * g, profile)
        if kind is BundleKind.SPHERE:
            vol *= 4.0 * math.pi
        rates = rate_formulas(profile, kind, (w, gss, gsss, s_derivative(profile, gsss)))
        rec = DiagnosticsRecord(
            t=profile.t,
            L=integrate_ds(np.ones(profile.n), profile),
            V=vol,
            g_max=float(np.max(g)),
            g_min=float(np.min(g)),
            sup_gs=float(np.max(np.abs(w))),
            sup_gss=float(np.max(np.abs(gss))),
            E2=kind.flow_sign * rates.dL_dt,  # dL/dt = +/- E2: one sum, sign flip exact
            l2_gss=integrate_ds(gss**2, profile),
            l2_gsss=integrate_ds(gsss**2, profile),
            zero_count=count_sign_changes(w),
            dL_dt_formula=rates.dL_dt,
            dV_dt_formula=math.nan if rates.dV_dt is None else rates.dV_dt,
            K12_sup=float(np.max(np.abs(field.K12))),
            K23_mean=float(np.mean(field.K23)),
            K23_spread=float(np.max(field.K23) - np.min(field.K23)),
            R_mean=float(np.mean(field.R)),
            E2_rate_formula=rates.e2_rate,
        )
    exempt = "dV_dt_formula" if kind is BundleKind.SPHERE else None
    for name in DiagnosticsRecord.__match_args__:  # the fields in series order
        if not math.isfinite(getattr(rec, name)) and name != exempt:
            raise NumericOverflowError(f"record field {name}", None, profile.t)
    return rec
