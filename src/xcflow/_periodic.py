"""The centred periodic difference and the non-finite scan that every layer shares."""

from __future__ import annotations

import math

import numpy as np


def ddx(values: np.ndarray, dx: float) -> np.ndarray:
    """Centred x-derivative (values[i+1] - values[i-1]) / (2 dx), indices modulo n."""
    out = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    out[0] = values[1] - values[-1]
    out[-1] = values[0] - values[-2]
    out /= 2.0 * dx
    return out


def first_nonfinite(arr: np.ndarray) -> int | None:
    """Index of the first non-finite sample, or None when all are finite.

    Call it under np.errstate: the sum may overflow or meet inf - inf.
    """
    if math.isfinite(np.add.reduce(arr)):  # one non-finite sample spoils the sum
        return None
    bad = np.flatnonzero(~np.isfinite(arr))
    return int(bad[0]) if bad.size else None
