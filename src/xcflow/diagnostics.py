"""Geometric functionals, norms, and closed-form rates along the flows.

Integrals over the base circle are taken against arc length, ds = f dx,
by the periodic trapezoid rule (node weights f[i] * dx; midpoint and
trapezoid coincide on a uniform periodic grid). Higher arc-length
derivatives are built by repeated application of the first-derivative
stencil. w, g_ss and the sectional curvatures come from geometry's
`curvature_arrays`, the kernel that `curvature_field` evaluates too, so
a record reduces the bits of the `xcf curvature` table. `functionals`
evaluates a stack of records in one pass on (records, n) arrays; every
sum and extremum runs along the contiguous last axis, so each row is
bit-identical to a one-record call. The closed-form rates are written
once, in `rate_formulas`, and `functionals` is its only caller.

Workspace: every (records, n) array of that pass is one of WORK_SLOTS
slots of a float64 workspace that the caller may hand in, as `evolve`
does with its arena; the operations run in place, in the order of the
expressions they spell, so a record's bits do not depend on it. The six
ds-integrands sit side by side and are summed in one reduction.

`DiagnosticsRecord` states the record schema once: its fields in order,
less the in-memory `E2_rate_formula`, are the `series.csv` columns
(`SERIES_FIELDS`), each of its field's declared type. The series codec
after it is the one place of the series format: the header line, each
column's cell type, a row's text and its packed float64 cells, which the
writer `write_series_row` makes; `series_table`, the float64 table view
of packed rows or of records, of shape (rows, len(SERIES_FIELDS)); and
the reader `read_series`, which loads a series.csv as such a table.
"""

from __future__ import annotations

import csv
import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._periodic import ddx
from .geometry import BundleKind, MetricProfile, NumericOverflowError, curvature_arrays
from .geometry import curvature_field
from .geometry import s_derivative  # noqa: F401  perfbench/tracer.py wraps it

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
    is not part of the CSV row schema: the series table has no column for
    it.
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


def write_series_row(series, rec: DiagnosticsRecord, rows: bytearray | None = None) -> None:
    """Write the record's series.csv row, a line, to series, a text file, and, if rows is
    given, append its packed cells there. `functionals` gives builtin floats and ints,
    whose repr is already the shortest round-trip form."""
    values = _series_values(rec)
    if rows is not None:
        rows.extend(_SERIES_ROW.pack(*values))
    series.write(",".join(map(repr, values)) + "\n")


def series_table(rows) -> np.ndarray:
    """The series table of packed rows (a bytes-like object) or of a sequence of records:
    a (rows, len(SERIES_FIELDS)) float64 array, a view of packed rows."""
    if not isinstance(rows, (bytes, bytearray, memoryview)):
        rows = b"".join(_SERIES_ROW.pack(*_series_values(rec)) for rec in rows)
    return np.frombuffer(rows, dtype=float).reshape(-1, len(SERIES_FIELDS))


def read_series(path: str | Path) -> np.ndarray:
    """Load a series CSV into a series table.

    The table is a float64 view of shape (rows, len(SERIES_FIELDS)) of the
    file's packed rows, its columns in SERIES_FIELDS order whatever the
    file's column order; each cell parses as its field's declared type
    (zero_count as an int). A malformed row or cell is a ValueError naming
    the file, its line and, for a cell, its column.
    """
    rows = bytearray()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = [name for name in SERIES_FIELDS if name not in header]
        if missing:
            raise ValueError(f"{path}: series has no column {missing[0]!r}")
        at = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        columns = [(name, at[name], parse) for name, parse in _SERIES_TYPES.items()]  # field order
        for row in filter(None, reader):  # blank lines skipped
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num}: row has {len(row)} cells, "
                                 f"header has {len(header)}")
            cells = []
            for name, i, parse in columns:
                try:
                    cells.append(float(parse(row[i])))
                except (ValueError, OverflowError) as exc:  # OverflowError: a huge integer
                    raise ValueError(
                        f"{path}: line {reader.line_num}: column {name!r}: {exc}"
                    ) from None
            rows += _SERIES_ROW.pack(*cells)
    return series_table(rows)


def count_sign_changes(values: np.ndarray) -> int:
    """Sign changes of periodic samples around the circle.

    Exact zeros are skipped: a node where the value vanishes without the
    neighbours changing sign contributes nothing. The count is always
    even for a periodic sequence.
    """
    return _sign_changes(np.sign(np.asarray(values, dtype=float)))


def _sign_changes(s: np.ndarray) -> int:
    """`count_sign_changes` of the samples' signs s."""
    s = s[s != 0.0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[1:] != s[:-1])) + int(s[0] != s[-1])


def rate_formulas(kind, g, w, gss, g2, gss2, gsss2, out) -> None:
    """The ds-integrands of E2 = +/- dL/dt, dE2/dt and dV/dt into out[0], out[1] and out[2].

    Each rate is the quadrature of a pointwise integrand in g and its
    arc-length derivatives w = g_s, gss = g_ss and gsss = g_sss; g2, gss2
    and gsss2 are the squares of g, gss and gsss. All are (..., n) stacks
    of one shape, and out stacks three more. w and gss are overwritten
    with w^2 and gss^3; on the sphere, which has no dV/dt, out[2] is
    scratch. Call under np.errstate:

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
    # 1/g, evaluated by Horner's rule from its highest power of 1/g down.
    # The integrands are formed in place, one operation at a time in the
    # order of the expressions in the comments, so every bit is theirs
    scratch, e2, last = out
    w2, gss3 = np.multiply(w, w, out=w), np.multiply(gss2, gss, out=gss)
    if kind is BundleKind.TORUS:
        # inv_g4 ((12 w4 gss2 / g - (38/3) w2 gss3) / g - gss4 / 3 - 2 w2 gsss2)
        w4 = np.multiply(w2, w2, out=last)
        np.multiply(w4, 12.0, out=e2)
        e2 *= gss2
        e2 /= g
        e2 -= np.multiply(np.multiply(w2, 38.0 / 3.0, out=scratch), gss3, out=scratch)
        e2 /= g
        e2 -= np.divide(np.multiply(gss2, gss2, out=scratch), 3.0, out=scratch)
        e2 -= np.multiply(np.multiply(w2, 2.0, out=scratch), gsss2, out=scratch)
        # (2/3) w4 / g2 + gss2
        w4 *= 2.0 / 3.0
        w4 /= g2
        w4 += gss2
    else:
        # inv_g4 ((12 w2 (1 - w2) gss2 / g + ((38/3) w2 - 6) gss3) / g + gss4 / 3
        #         - 2 (1 - w2) gsss2)
        one_m_w2 = np.subtract(1.0, w2, out=last)
        np.multiply(w2, 12.0, out=e2)
        e2 *= one_m_w2
        e2 *= gss2
        e2 /= g
        np.multiply(w2, 38.0 / 3.0, out=scratch)
        scratch -= 6.0
        e2 += np.multiply(scratch, gss3, out=scratch)
        e2 /= g
        e2 += np.divide(np.multiply(gss2, gss2, out=scratch), 3.0, out=scratch)
        e2 -= np.multiply(np.multiply(one_m_w2, 2.0, out=scratch), gsss2, out=scratch)
    e2 *= np.divide(1.0, np.multiply(g2, g2, out=scratch), out=scratch)  # inv_g4 = 1 / (g2 g2)
    np.divide(gss2, g2, out=scratch)


# (rows, n) arrays that `functionals` evaluates a batch of rows in: f, g, w,
# g_ss, then the ds-integrands of V, l2_gss, l2_gsss, E2, dE2/dt and dV/dt
WORK_SLOTS = 10


def functionals(
    profiles: Sequence[MetricProfile], kind: BundleKind, work: np.ndarray | None = None
) -> list[DiagnosticsRecord]:
    """One diagnostics row per profile, in order, for profiles on one grid.

    The volume is the ds-integral of the fibre area: g^2 on the torus,
    and the round-fibre area 4 pi g^2 on the sphere, an extension beyond
    the torus-only definition (see README).

    work, if given, is a float64 array of at least WORK_SLOTS * rows * n
    elements, and every (rows, n) array of the evaluation is one of its
    slots; without it, the call makes its own. The records do not depend
    on it.

    Raises NumericOverflowError for the first profile with a non-finite
    row: as `curvature_field` does when its curvature is not finite, else
    naming the first non-finite field in field order (the sphere's
    dV_dt_formula is NaN by design and exempt).
    """
    dx, n, rows = profiles[0].dx, profiles[0].n, len(profiles)
    size = WORK_SLOTS * rows * n
    slots = (np.empty(size) if work is None else work[:size]).reshape(WORK_SLOTS, rows, n)
    f, g, w, gss = slots[:4]
    torus = kind is BundleKind.TORUS
    integrands = slots[4:] if torus else slots[4:-1]  # the sphere has no dV/dt
    g2, gss2, gsss2, spare = slots[4], slots[5], slots[6], slots[7:]
    for row, p in enumerate(profiles):
        f[row], g[row] = p.f, p.g
    # a non-finite row is reported below by name; silence numpy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k12, k23, scratch = spare
        curvature_arrays(f, g, dx, kind.kappa, w, gss, k12, k23, g2)  # gss = w_s = g_ss
        # reductions throughout; a mean is add.reduce / n, the bits of np.mean
        columns = dict(  # by field name; the record's field order is the only order
            t=[p.t for p in profiles],
            L=np.add.reduce(f, axis=-1) * dx,  # the integral of 1 ds
            g_max=np.maximum.reduce(g, axis=-1),
            g_min=np.minimum.reduce(g, axis=-1),
            sup_gs=np.maximum.reduce(np.abs(w, out=scratch), axis=-1),
            sup_gss=np.maximum.reduce(np.abs(gss, out=scratch), axis=-1),
            K12_sup=np.maximum.reduce(np.abs(k12, out=scratch), axis=-1),
            K23_mean=np.add.reduce(k23, axis=-1) / n,
            K23_spread=np.maximum.reduce(k23, axis=-1) - np.minimum.reduce(k23, axis=-1),
        )
        zero_counts = [_sign_changes(s) for s in np.sign(w, out=scratch)]  # ints, always finite
        k12 *= 4.0  # R = 4 K12 + 2 K23
        k23 *= 2.0
        columns["R_mean"] = np.add.reduce(np.add(k12, k23, out=k12), axis=-1) / n
        gsss = ddx(gss, dx, k12)
        gsss /= f
        np.multiply(gss, gss, out=gss2)
        np.multiply(gsss, gsss, out=gsss2)
        rate_formulas(kind, g, w, gss, g2, gss2, gsss2, spare)
        # the six ds = f dx quadratures at once, each along the contiguous last axis;
        # a broadcast product would buffer, so each integrand takes its f alone
        for integrand in integrands:
            integrand *= f
        integrals = np.add.reduce(integrands, axis=-1) * dx
        vol, columns["l2_gss"], columns["l2_gsss"], e2, columns["E2_rate_formula"] = integrals[:5]
        columns["V"] = vol if torus else 4.0 * math.pi * vol
        columns["E2"] = e2
        columns["dL_dt_formula"] = kind.flow_sign * e2  # dL/dt = +/- E2: the sign flip is exact
        columns["dV_dt_formula"] = integrals[5] if torus else np.full(rows, math.nan)
        values = np.array([columns[name] for name in _FLOAT_FIELDS])  # (fields, rows)
        finite = np.isfinite(values)
    if not torus:
        finite[_FLOAT_FIELDS.index("dV_dt_formula")] = True  # NaN by design
    if not finite.all():
        row = int(np.argmin(finite.all(axis=0)))  # the first row with a non-finite field
        curvature_field(profiles[row], kind)  # raises first when the curvature is not finite
        name = _FLOAT_FIELDS[int(np.argmin(finite[:, row]))]
        raise NumericOverflowError(f"record field {name}", None, profiles[row].t)
    records = values.T.tolist()  # builtin floats, whose repr is the series text
    for row, zero_count in zip(records, zero_counts):
        row.insert(_ZERO_COUNT, zero_count)
    return [DiagnosticsRecord._trusted(row) for row in records]
