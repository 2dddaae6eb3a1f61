"""The centred periodic difference and the non-finite scan that every layer shares."""

from __future__ import annotations

import math

import numpy as np


def ddx(values: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Centred x-derivative (values[i+1] - values[i-1]) / (2 dx) along the last axis, modulo n.

    out, if given, is an array of values' shape that does not overlap values; it is returned.
    """
    if out is None:
        out = np.empty_like(values)
    # the last axis first; (n,) arrays, which every step differentiates, skip the views
    v, o = (values.T, out.T) if values.ndim > 1 else (values, out)
    if values.ndim > 1 and values.flags.c_contiguous and out.flags.c_contiguous:
        # the rows laid end to end: one flat difference, which numpy does not
        # buffer as it does a strided one, right but at each row's two ends
        np.subtract(values.reshape(-1)[2:], values.reshape(-1)[:-2], out=out.reshape(-1)[1:-1])
    else:
        np.subtract(v[2:], v[:-2], out=o[1:-1])
    o[0] = v[1] - v[-1]
    o[-1] = v[0] - v[-2]
    out /= 2.0 * dx
    return out


def first_nonfinite(arr: np.ndarray) -> int | None:
    """Flat (C-order) index of the first non-finite sample of any shape, or None.

    Call it under np.errstate: the sum may overflow or meet inf - inf.
    """
    if math.isfinite(np.add.reduce(arr, axis=None)):  # one non-finite sample spoils the sum
        return None
    bad = np.flatnonzero(~np.isfinite(arr))
    return int(bad[0]) if bad.size else None
