"""Geometric functionals, norms, and closed-form rates along the flows.

Integrals over the base circle are taken against arc length, ds = f dx,
by the periodic trapezoid rule (node weights f[i] * dx; midpoint and
trapezoid coincide on a uniform periodic grid). Higher arc-length
derivatives are built by repeated application of the first-derivative
stencil. `functionals` evaluates a stack of records in one pass on
(records, n) arrays; every sum and extremum runs along the contiguous
last axis, so each row is bit-identical to a one-record call. The
closed-form rates are written once, in `rate_formulas`, and
`functionals` is its only caller.

`DiagnosticsRecord` states the record schema once: its fields in order,
less the in-memory `E2_rate_formula`, are the `series.csv` columns
(`SERIES_FIELDS`), each of its field's declared type. The series codec
after it is the one place of the series format: the header line, each
column's cell type, a row's text, a row's packed float64 cells, and the
float64 table view of packed rows, of shape (rows, len(SERIES_FIELDS)).
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from ._periodic import ddx
from .geometry import BundleKind, MetricProfile, NumericOverflowError, curvature_field
from .geometry import _curvature, s_derivative  # noqa: F401  s_derivative: perfbench/tracer.py wraps it

__all__ = [
    "DiagnosticsRecord",
    "SERIES_FIELDS",
    "functionals",
    "count_sign_changes",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time-stamped row of geometric functionals.

    dV_dt_formula is NaN for sphere runs (no closed-form volume rate is
    available for that family). E2_rate_formula is carried in memory but
    is not part of the CSV row schema: the series table that `read_series`
    loads has no column for it.
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

    @classmethod
    def _trusted(cls, values: list) -> DiagnosticsRecord:
        """A record of every field's value in field order, as `functionals` makes them; no checks."""
        self = object.__new__(cls)
        vars(self).update(zip(_RECORD_FIELDS, values))
        return self


_RECORD_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))
_ZERO_COUNT = _RECORD_FIELDS.index("zero_count")
_FLOAT_FIELDS = tuple(name for name in _RECORD_FIELDS if name != "zero_count")  # in order
# the series codec: the series.csv columns, in order, and their header line
SERIES_FIELDS = tuple(name for name in _RECORD_FIELDS if name != "E2_rate_formula")
SERIES_HEADER = ",".join(SERIES_FIELDS)
# each column's cell type, in column order: its field's declared type
_SERIES_TYPES = {name: float if name in _FLOAT_FIELDS else int for name in SERIES_FIELDS}
_series_values = operator.attrgetter(*SERIES_FIELDS)  # one record's series values
_SERIES_ROW = struct.Struct(f"{len(SERIES_FIELDS)}d")  # one row's cells, packed float64


def _series_row(values: tuple) -> str:
    """One record's series values as a series.csv row; `functionals` gives builtin
    floats and ints, whose repr is already the shortest round-trip form."""
    return ",".join(map(repr, values))


def _packed_rows(records: Sequence[DiagnosticsRecord]) -> bytes:
    """The records' series values as packed rows."""
    return b"".join(_SERIES_ROW.pack(*_series_values(rec)) for rec in records)


def _series_table(rows) -> np.ndarray:
    """Packed rows as the series table: a (rows, len(SERIES_FIELDS)) float64 view."""
    return np.frombuffer(rows, dtype=float).reshape(-1, len(SERIES_FIELDS))


def _integrate(values, f: np.ndarray, dx: float) -> np.ndarray:
    """ds = f dx quadrature of each row of (..., n) stacks, along the contiguous last axis."""
    return np.add.reduce(values * f, axis=-1) * dx


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


def rate_formulas(g, f, dx, kind, w, gss, g2, gss2, gsss2):
    """(dL/dt, dV/dt, dE2/dt) per row of (..., n) stacks; dV/dt is None on the sphere.

    Each rate is the quadrature of a pointwise integrand in g and its
    arc-length derivatives w = g_s, gss = g_ss and gsss = g_sss; g2, gss2
    and gsss2 are the squares of g, gss and gsss, which `functionals`
    integrates as well (call under np.errstate):

      dL/dt  = +/- integral of (1/g^2) g_ss^2 ds  (+ torus, - sphere)
      dV/dt  (torus) = integral of (2/3)(1/g^2) g_s^4 + g_ss^2 ds
      dE2/dt (torus) = integral of -(38/3) g^-5 g_s^2 g_ss^3
                       - (1/3) g^-4 g_ss^4 - 2 g^-4 g_s^2 g_sss^2
                       + 12 g^-6 g_s^4 g_ss^2 ds
      dE2/dt (sphere) = integral of -2 g^-4 (1-g_s^2) g_sss^2
                        + (1/3) g^-4 g_ss^4 + g^-5 ((38/3) g_s^2 - 6) g_ss^3
                        + 12 g^-6 g_s^2 (1-g_s^2) g_ss^2 ds
    """
    # every power is formed once; each rate integrand is a polynomial in
    # 1/g, evaluated by Horner's rule from its highest power of 1/g down
    w2 = w * w
    gss3 = gss2 * gss
    gss4 = gss2 * gss2
    inv_g4 = 1.0 / (g2 * g2)
    dL = kind.flow_sign * _integrate(gss2 / g2, f, dx)
    if kind is BundleKind.TORUS:
        w4 = w2 * w2
        dV = _integrate((2.0 / 3.0) * w4 / g2 + gss2, f, dx)
        e2 = inv_g4 * ((12.0 * w4 * gss2 / g - (38.0 / 3.0) * w2 * gss3) / g
                       - gss4 / 3.0 - 2.0 * w2 * gsss2)
        return dL, dV, _integrate(e2, f, dx)
    one_m_w2 = 1.0 - w2
    e2 = inv_g4 * ((12.0 * w2 * one_m_w2 * gss2 / g + ((38.0 / 3.0) * w2 - 6.0) * gss3) / g
                   + gss4 / 3.0 - 2.0 * one_m_w2 * gsss2)
    return dL, None, _integrate(e2, f, dx)


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
    dx, n = profiles[0].dx, profiles[0].n
    f = np.array([p.f for p in profiles])
    g = np.array([p.g for p in profiles])
    # a non-finite row is reported below by name; silence numpy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        field = _curvature(f, g, dx, kind.kappa)
        w, gss, k23 = field.w, field.w_s, field.K23
        gsss = ddx(gss, dx) / f
        g2, gss2, gsss2 = g * g, gss * gss, gsss * gsss
        dL, dV, e2_rate = rate_formulas(g, f, dx, kind, w, gss, g2, gss2, gsss2)
        vol = _integrate(g2, f, dx)
        # ufunc reductions throughout; a mean is add.reduce / n, the bits of np.mean
        columns = dict(  # by field name; the record's field order is the only order
            t=[p.t for p in profiles],
            L=np.add.reduce(f, axis=-1) * dx,  # the integral of 1 ds
            V=vol if kind is BundleKind.TORUS else 4.0 * math.pi * vol,
            g_max=np.maximum.reduce(g, axis=-1),
            g_min=np.minimum.reduce(g, axis=-1),
            sup_gs=np.maximum.reduce(np.abs(w), axis=-1),
            sup_gss=np.maximum.reduce(np.abs(gss), axis=-1),
            E2=kind.flow_sign * dL,  # dL/dt = +/- E2: one sum, sign flip exact
            l2_gss=_integrate(gss2, f, dx),
            l2_gsss=_integrate(gsss2, f, dx),
            dL_dt_formula=dL,
            dV_dt_formula=np.full(len(profiles), math.nan) if dV is None else dV,
            K12_sup=np.maximum.reduce(np.abs(field.K12), axis=-1),
            K23_mean=np.add.reduce(k23, axis=-1) / n,
            K23_spread=np.maximum.reduce(k23, axis=-1) - np.minimum.reduce(k23, axis=-1),
            R_mean=np.add.reduce(field.R, axis=-1) / n,
            E2_rate_formula=e2_rate,
        )
        values = np.array([columns[name] for name in _FLOAT_FIELDS])  # (fields, rows)
        finite = np.isfinite(values)
    if kind is BundleKind.SPHERE:
        finite[_FLOAT_FIELDS.index("dV_dt_formula")] = True  # NaN by design
    if not finite.all():
        row = int(np.argmin(finite.all(axis=0)))  # the first row with a non-finite field
        curvature_field(profiles[row], kind)  # raises first when the curvature is not finite
        name = _FLOAT_FIELDS[int(np.argmin(finite[:, row]))]
        raise NumericOverflowError(f"record field {name}", None, profiles[row].t)
    records = values.T.tolist()  # builtin floats, whose repr is the series text
    for row, w_row in zip(records, w):  # zero_count, an int and always finite
        row.insert(_ZERO_COUNT, count_sign_changes(w_row))
    return [DiagnosticsRecord._trusted(row) for row in records]
