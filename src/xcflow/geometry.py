"""Closed-form curvature of circle-symmetric warped metrics on a periodic grid.

Two families of 3-manifolds fibering over a circle are supported, each
reduced to two positive profiles f(x), g(x) of the base coordinate x:

    square torus fibre:  ds^2 = f^2 dx^2 + g^2 (dy^2 + dz^2)
    round sphere fibre:  ds^2 = f^2 dx^2 + g^2 (dy^2 + cos^2(y) dz^2)

Arc length on the base is ds = f dx, so the arc-length derivative is
d/ds = (1/f) d/dx. Every curvature quantity is algebraic in

    w   = g_x / f          (= dg/ds)
    w_s = (1/f) d/dx w     (= d^2 g/ds^2)

and in the fibre curvature constant kappa (0 for the flat square torus,
1 for the round sphere). In the orthonormal frame adapted to the
splitting:

    K12 = K13 = -w_s / g                  sectional curvature, mixed planes
    K23       = -(w^2 - kappa) / g^2      sectional curvature, fibre plane
    Ric11 = 2 K12,  Ric22 = Ric33 = K12 + K23
    R = 4 K12 + 2 K23
    P11 = -K23,  P22 = P33 = -K12         Einstein tensor eigenvalues
    h11 = K12^2,  h22 = h33 = K12 * K23   cross curvature eigenvalues

The cross curvature is the adjugate of the Einstein tensor P
(Chow & Hamilton 2004); with P diagonal, its eigenvalue along a frame
direction is the product of the sectional curvatures of the two
coordinate planes containing that direction. This product form needs no
inversion of P, so it stays valid where P is singular. `CurvatureField`
stores K12 and K23 and spells every other row of the table as a
property. tests/metric_oracle.py derives the whole table from the metric
with sympy, independently of this module.

Profiles are sampled on the uniform periodic grid x_i = i * period / n;
all index arithmetic is modulo n. Derivatives use the centred
second-order difference of `_periodic`, which flow and diagnostics share;
w and D w come from its slope kernel, which the flow's right-hand side
reads too, and `curvature_arrays` here is the one spelling of
w_s = D w / f, K12 and K23: `curvature_field` evaluates it on fresh
arrays and `diagnostics.functionals` in its workspace.
`MetricProfile(...)` copies and validates its samples at the API edges;
the stepper, which has checked its fresh result arrays already, builds
profiles through the trusted `MetricProfile._trusted` instead. No buffer
is shared: the package never writes an array that a profile holds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._periodic import ddx, first_nonfinite, slope

__all__ = [
    "BundleKind",
    "MetricProfile",
    "CurvatureField",
    "FieldError",
    "NumericOverflowError",
    "s_derivative",
    "curvature_field",
]

MIN_N = 8  # the coarsest grid: MetricProfile.n, grid.n and `check --n`


class BundleKind(Enum):
    """Which fibre the 3-manifold carries over the base circle."""

    TORUS = "torus"
    SPHERE = "sphere"

    @property
    def kappa(self) -> float:
        """Curvature constant of the unwarped fibre (0 flat torus, 1 round sphere)."""
        return 0.0 if self is BundleKind.TORUS else 1.0

    @property
    def flow_sign(self) -> float:
        """Sign of the metric flow: +1 for the torus family, -1 for the sphere family."""
        return 1.0 if self is BundleKind.TORUS else -1.0


class FieldError(ValueError):
    """A configuration value is out of range; `keys` name the fields involved,
    the most specific first."""

    def __init__(self, message: str, *keys: str):
        self.keys = keys
        super().__init__(message)


def require(ok: bool, key: str, rule: str, value: object) -> None:
    """Raise FieldError(f"{key} must {rule}, got {value!r}", key) unless ok.

    Write `ok` as the comparison that valid values pass, such as `x > 0.0`
    rather than `not x <= 0.0`: NaN compares false, so it fails every check.
    """
    if not ok:
        raise FieldError(f"{key} must {rule}, got {value!r}", key)


def number(value: object, key: str) -> float:
    """The one number rule of the API's real-valued inputs: value as a float if it is a
    real number, not a bool or a str (float() takes either); else FieldError naming key."""
    require(isinstance(value, numbers.Real) and type(value) is not bool, key, "be a number", value)
    return float(value)


class NumericOverflowError(ArithmeticError):
    """A pointwise expression produced a non-finite value at a grid node.

    node is None for a quantity that is not pointwise, such as an integral.
    """

    def __init__(self, what: str, node: int | None, t: float | None = None):
        self.what = what
        self.node = node
        self.t = t
        msg = f"non-finite {what}"
        if node is not None:
            msg += f" at node {node}"
        if t is not None:
            msg += f" (t={t!r})"
        super().__init__(msg)

    def __reduce__(self):  # rebuilt from its arguments, not from its message
        return type(self), (self.what, self.node, self.t), self.__dict__


@dataclass(frozen=True)
class MetricProfile:
    """Periodic samples of the two metric profiles on a uniform x-grid.

    f scales the base direction (ds = f dx) and g is the fibre size.
    Instances are immutable: the flow produces new profiles rather than
    mutating old ones, so values are safe to share across threads.
    """

    n: int
    period: float
    t: float
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        require(int(self.n) == self.n >= MIN_N, "n", f"be an integer >= {MIN_N}", self.n)
        period, t = number(self.period, "period"), number(self.t, "flow time")
        require(0.0 < period < math.inf, "period", "be finite and positive", period)
        require(-math.inf < t < math.inf, "flow time", "be finite", t)
        f = np.array(self.f, dtype=float)
        g = np.array(self.g, dtype=float)
        for name, arr in (("f", f), ("g", g)):
            require(arr.shape == (self.n,), name, f"have shape ({self.n},)", arr.shape)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")
            if np.any(arr <= 0.0):
                raise ValueError(f"{name} must be strictly positive everywhere")
        vars(self).update(n=int(self.n), period=period, t=t, f=f, g=g)  # frozen: not setattr

    @classmethod
    def _trusted(
        cls, n: int, period: float, t: float, f: np.ndarray, g: np.ndarray
    ) -> MetricProfile:
        """A profile of checked (n,) arrays that nothing writes afterwards; no copy."""
        self = object.__new__(cls)
        vars(self).update(n=n, period=period, t=t, f=f, g=g)
        return self

    @property
    def dx(self) -> float:
        return self.period / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx


@dataclass(frozen=True)
class CurvatureField:
    """Per-node curvature package of a metric profile, or of a (..., n) stack of them.

    Only w, w_s, the two sectional curvatures and the source f, g
    samples are stored; Ricci, scalar, Einstein and cross curvature are
    read-only properties spelled from K12 and K23 as in the module
    table. The omitted third components repeat the second ones:
    K13 = K12, Ric33 = Ric22, P33 = P22, h33 = h22.
    """

    w: np.ndarray
    w_s: np.ndarray
    K12: np.ndarray
    K23: np.ndarray
    f: np.ndarray
    g: np.ndarray

    Ric11 = property(lambda self: 2.0 * self.K12)
    Ric22 = property(lambda self: self.K12 + self.K23)
    R = property(lambda self: 4.0 * self.K12 + 2.0 * self.K23)
    P11 = property(lambda self: -self.K23)
    P22 = property(lambda self: -self.K12)
    h11 = property(lambda self: self.K12 * self.K12)
    h22 = property(lambda self: self.K12 * self.K23)


def s_derivative(profile: MetricProfile, values: np.ndarray) -> np.ndarray:
    """Arc-length derivative (1/f) d/dx of periodic samples.

    Uses the centred stencil (values[i+1] - values[i-1]) / (2 dx) with
    indices modulo n, then divides by f node-wise. Second-order accurate
    for smooth periodic data.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (profile.n,):
        raise ValueError(f"expected {profile.n} periodic samples, got shape {v.shape}")
    return ddx(v, profile.dx) / profile.f


def curvature_arrays(f, g, dx, kappa, w, w_s, k12, k23, g2) -> None:
    """w = g_s, w_s = g_ss, K12, K23 and g^2 of (..., n) stacks of f and g samples into
    w, w_s, k12, k23 and g2, arrays of g's shape that overlap no other argument; unchecked,
    call under np.errstate. The module table's one spelling of w_s, K12 and K23."""
    slope(f, g, dx, w, w_s)  # w and D w; w_s = D w / f
    w_s /= f
    np.divide(np.negative(w_s, out=k12), g, out=k12)
    np.subtract(np.multiply(w, w, out=k23), kappa, out=k23)  # K23 = -(w^2 - kappa) / g^2
    np.divide(np.negative(k23, out=k23), np.multiply(g, g, out=g2), out=k23)


def curvature_field(profile: MetricProfile, kind: BundleKind) -> CurvatureField:
    """Evaluate w, w_s and the sectional curvatures node-wise, by `curvature_arrays`.

    Raises NumericOverflowError naming the first offending node if any
    of the four stored arrays fails to be finite. The derived properties
    are not scanned: a product such as h11 = K12^2 can still overflow,
    and a caller that writes them out checks them itself.
    """
    rows = np.empty((5, profile.n))  # w, w_s, K12, K23 and g^2, which the field does not keep
    # overflow is detected below and reported with the node; silence numpy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        curvature_arrays(profile.f, profile.g, profile.dx, kind.kappa, *rows)
        bad = first_nonfinite(rows[:4])  # one scan; the fields' rows in field order
    if bad is not None:
        row, node = divmod(bad, profile.n)
        name = ("w", "w_s", "K12", "K23")[row]
        raise NumericOverflowError(f"curvature component {name}", node, profile.t)
    return CurvatureField(*rows[:4], profile.f, profile.g)
