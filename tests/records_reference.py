"""The diagnostics records in expression form: every operation makes a fresh array.

`diagnostics.functionals` evaluates the same operations in the same order,
in place, in the slots of a workspace; the tests require its records to
equal these by repr. The periodic difference is spelled with np.roll, which
`tests/test_geometry.py` pins to `_periodic.ddx` bit for bit.
"""

import math

import numpy as np

from xcflow import BundleKind, DiagnosticsRecord, count_sign_changes


def _ddx(v, dx):
    return (np.roll(v, -1, axis=-1) - np.roll(v, 1, axis=-1)) / (2.0 * dx)


def _integrate(values, f, dx):
    return np.add.reduce(values * f, axis=-1) * dx


def reference_records(profiles, kind):
    """One record per profile, as one (rows, n) expression per quantity evaluates it."""
    dx, n = profiles[0].dx, profiles[0].n
    f = np.array([p.f for p in profiles])
    g = np.array([p.g for p in profiles])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = _ddx(g, dx) / f
        gss = _ddx(w, dx) / f
        k12 = -gss / g
        k23 = -(w * w - kind.kappa) / (g * g)
        gsss = _ddx(gss, dx) / f
        g2, gss2, gsss2 = g * g, gss * gss, gsss * gsss
        w2, gss3, gss4, inv_g4 = w * w, gss2 * gss, gss2 * gss2, 1.0 / (g2 * g2)
        e2_density = _integrate(gss2 / g2, f, dx)
        vol = _integrate(g2, f, dx)
        if kind is BundleKind.TORUS:
            w4 = w2 * w2
            dv = _integrate((2.0 / 3.0) * w4 / g2 + gss2, f, dx)
            e2 = inv_g4 * ((12.0 * w4 * gss2 / g - (38.0 / 3.0) * w2 * gss3) / g
                           - gss4 / 3.0 - 2.0 * w2 * gsss2)
        else:
            dv = np.full(len(profiles), math.nan)
            one_m_w2 = 1.0 - w2
            e2 = inv_g4 * ((12.0 * w2 * one_m_w2 * gss2 / g
                            + ((38.0 / 3.0) * w2 - 6.0) * gss3) / g
                           + gss4 / 3.0 - 2.0 * one_m_w2 * gsss2)
        columns = dict(
            L=np.add.reduce(f, axis=-1) * dx,
            V=vol if kind is BundleKind.TORUS else 4.0 * math.pi * vol,
            g_max=np.maximum.reduce(g, axis=-1),
            g_min=np.minimum.reduce(g, axis=-1),
            sup_gs=np.maximum.reduce(np.abs(w), axis=-1),
            sup_gss=np.maximum.reduce(np.abs(gss), axis=-1),
            E2=e2_density,
            l2_gss=_integrate(gss2, f, dx),
            l2_gsss=_integrate(gsss2, f, dx),
            dL_dt_formula=kind.flow_sign * e2_density,
            dV_dt_formula=dv,
            K12_sup=np.maximum.reduce(np.abs(k12), axis=-1),
            K23_mean=np.add.reduce(k23, axis=-1) / n,
            K23_spread=np.maximum.reduce(k23, axis=-1) - np.minimum.reduce(k23, axis=-1),
            R_mean=np.add.reduce(4.0 * k12 + 2.0 * k23, axis=-1) / n,
            E2_rate_formula=_integrate(e2, f, dx),
        )
    return [
        DiagnosticsRecord(t=p.t, zero_count=count_sign_changes(w[row]),
                          **{name: float(values[row]) for name, values in columns.items()})
        for row, p in enumerate(profiles)
    ]
