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

The cross curvature eigenvalue along a frame direction is the product of
the sectional curvatures of the two coordinate planes containing that
direction. This product form needs no inversion of the Einstein tensor,
so it stays valid where P is singular, and it doubles as an evaluation
path independent of the P-based route (`cross_curvature_oracle`).

Profiles are sampled on the uniform periodic grid x_i = i * period / n;
all index arithmetic is modulo n. Derivatives use the centred
second-order difference of `_periodic`, which flow and diagnostics share.
`MetricProfile(...)` copies and validates its samples at the API edges;
the stepper, which has checked its fresh result arrays already, builds
profiles through the trusted `MetricProfile._trusted` instead. No buffer
is shared: the package never writes an array that a profile holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._periodic import ddx, first_nonfinite

__all__ = [
    "BundleKind",
    "MetricProfile",
    "CurvatureField",
    "NumericOverflowError",
    "s_derivative",
    "curvature_field",
    "cross_curvature",
    "cross_curvature_oracle",
]


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


class NumericOverflowError(ArithmeticError):
    """A pointwise expression produced a non-finite value at a grid node."""

    def __init__(self, what: str, node: int, t: float | None = None):
        self.what = what
        self.node = node
        self.t = t
        msg = f"non-finite {what} at node {node}"
        if t is not None:
            msg += f" (t={t!r})"
        super().__init__(msg)


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
        if int(self.n) != self.n or self.n < 8:
            raise ValueError(f"need an integer node count >= 8, got {self.n!r}")
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be positive and finite, got {self.period!r}")
        if not np.isfinite(self.t):
            raise ValueError(f"flow time must be finite, got {self.t!r}")
        f = np.array(self.f, dtype=float)
        g = np.array(self.g, dtype=float)
        for name, arr in (("f", f), ("g", g)):
            if arr.shape != (self.n,):
                raise ValueError(
                    f"{name} must have shape ({self.n},), got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")
            if np.any(arr <= 0.0):
                raise ValueError(f"{name} must be strictly positive everywhere")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

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
    """Per-node curvature package of a metric profile.

    The omitted third components repeat the second ones: K13 = K12,
    Ric33 = Ric22, P33 = P22, h33 = h22. The source f, g samples are
    kept so natural-coordinate components can be formed on demand.
    """

    w: np.ndarray
    w_s: np.ndarray
    K12: np.ndarray
    K23: np.ndarray
    Ric11: np.ndarray
    Ric22: np.ndarray
    R: np.ndarray
    P11: np.ndarray
    P22: np.ndarray
    h11: np.ndarray
    h22: np.ndarray
    f: np.ndarray
    g: np.ndarray


def s_derivative(profile: MetricProfile, values: np.ndarray) -> np.ndarray:
    """Arc-length derivative (1/f) d/dx of periodic samples.

    Uses the centred stencil (values[i+1] - values[i-1]) / (2 dx) with
    indices modulo n, then divides by f node-wise. Second-order accurate
    for smooth periodic data.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (profile.n,):
        raise ValueError(
            f"expected {profile.n} periodic samples, got shape {v.shape}"
        )
    return ddx(v, profile.dx) / profile.f


def curvature_field(profile: MetricProfile, kind: BundleKind) -> CurvatureField:
    """Evaluate all curvature quantities of the warped metric node-wise.

    Raises NumericOverflowError naming the first offending node if any
    intermediate fails to be finite.
    """
    f, g = profile.f, profile.g
    # overflow is detected below and reported with the node; silence numpy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = s_derivative(profile, g)
        dxw = ddx(w, profile.dx)
        w_s = dxw / f
        K12 = -w_s / g
        K23 = -(w * w - kind.kappa) / (g * g)
        Ric11 = 2.0 * K12
        Ric22 = K12 + K23
        R = 4.0 * K12 + 2.0 * K23
        P11 = -K23
        P22 = dxw / (f * g)
        h11 = (w_s / g) ** 2
        h22 = (w * w - kind.kappa) * w_s / g**3
        field = CurvatureField(
            w=w, w_s=w_s, K12=K12, K23=K23, Ric11=Ric11, Ric22=Ric22, R=R,
            P11=P11, P22=P22, h11=h11, h22=h22, f=f, g=g,
        )
        for name in ("w", "w_s", "K12", "K23", "Ric11", "Ric22", "R", "P11", "P22", "h11", "h22"):
            node = first_nonfinite(getattr(field, name))
            if node is not None:
                raise NumericOverflowError(f"curvature component {name}", node, profile.t)
    return field


def cross_curvature(
    field: CurvatureField, natural: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Cross curvature eigenvalue samples (h11, h22) of a curvature field.

    With natural=True the components are returned in the coordinate
    basis instead of the orthonormal frame: h(dx, dx) = f^2 h11 and
    h(dy, dy) = g^2 h22. For the sphere family the z-component also
    carries the fibre area factor cos^2(y) and is not representable per
    x-node, so only the x and y components are reported.
    """
    if natural:
        return field.f**2 * field.h11, field.g**2 * field.h22
    return field.h11, field.h22


def cross_curvature_oracle(
    field: CurvatureField,
) -> tuple[np.ndarray, np.ndarray]:
    """Cross curvature from sectional curvatures only.

    h11 = K12 * K13 = K12^2 and h22 = K12 * K23, evaluated without
    touching the Einstein tensor route. Agrees with `cross_curvature`
    up to floating-point reassociation on every valid profile.
    """
    return field.K12 * field.K12, field.K12 * field.K23
