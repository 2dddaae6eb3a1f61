"""Curvature of the warped metrics, derived symbolically from the metric itself.

A test-side oracle for `xcflow.geometry`, which shares none of its
algebra. It starts from the 3x3 metric

    diag(f(x)^2, g(x)^2, g(x)^2 c(y)^2),  c = 1 (torus), cos y (sphere),

and computes with sympy the Christoffel symbols, the Riemann tensor,
Ricci and scalar curvature, then the Einstein tensor P = Ric - (R/2) g
in the orthonormal frame, and takes the cross curvature h as the
cofactor matrix (adjugate) of P (Chow & Hamilton 2004). Sectional
curvatures are Rm(X, Y, Y, X) / (|X|^2 |Y|^2) of coordinate planes.

Each component is then written in the package's variables by
substituting g_x = f w and w_x = f w_s. The derivation checks that f_x
and y drop out, that P is diagonal and that the third frame direction
repeats the second, and it lambdifies every component in (f, g, w, w_s),
so the oracle can be fed the discrete w and w_s of a curvature field.
The derivation takes about a second per family and is cached, so a
timed check calls `components` once before it starts the clock.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
import sympy as sp

from xcflow import BundleKind

COMPONENTS = ("K12", "K23", "Ric11", "Ric22", "R", "P11", "P22", "h11", "h22")


@functools.cache
def derive(kind: BundleKind) -> dict[str, sp.Expr]:
    """The nine components as sympy expressions in the symbols f, g, w, w_s."""
    x, y, _ = coords = sp.symbols("x y z", real=True)
    f, g = (sp.Function(name, positive=True)(x) for name in ("f", "g"))
    w, w_s = (sp.Function(name, real=True)(x) for name in ("w", "w_s"))
    c = sp.Integer(1) if kind is BundleKind.TORUS else sp.cos(y)
    metric = sp.diag(f**2, g**2, g**2 * c**2)
    inverse = metric.inv()
    dim = range(3)

    # Gamma[l][i][j] = Gamma^l_ij = (1/2) g^lm (d_i g_mj + d_j g_mi - d_m g_ij)
    gamma = [[[
        sum(inverse[l, m] * (sp.diff(metric[m, j], coords[i]) + sp.diff(metric[m, i], coords[j])
                             - sp.diff(metric[i, j], coords[m])) for m in dim) / 2
        for j in dim] for i in dim] for l in dim]

    def riemann_up(l, i, j, k):
        """R^l_ijk, the l-component of R(d_i, d_j) d_k."""
        return (sp.diff(gamma[l][j][k], coords[i]) - sp.diff(gamma[l][i][k], coords[j])
                + sum(gamma[l][i][m] * gamma[m][j][k] - gamma[l][j][m] * gamma[m][i][k]
                      for m in dim))

    def sectional(i, j):
        """Rm(d_i, d_j, d_j, d_i) / (|d_i|^2 |d_j|^2) of the orthogonal pair d_i, d_j."""
        rm = sum(metric[i, m] * riemann_up(m, i, j, j) for m in dim)
        return rm / (metric[i, i] * metric[j, j])

    ric = sp.Matrix(3, 3, lambda j, k: sum(riemann_up(i, i, j, k) for i in dim))
    scalar = sum(inverse[j, k] * ric[j, k] for j in dim for k in dim)
    frame = [sp.sqrt(metric[i, i]) for i in dim]  # |d_i|, the orthonormal rescaling
    ric_on = sp.Matrix(3, 3, lambda i, j: ric[i, j] / (frame[i] * frame[j]))
    p_on = ric_on - scalar / 2 * sp.eye(3)
    h_on = p_on.adjugate()

    def reduce(expr):
        expr = expr.subs(sp.Derivative(g, (x, 2)), sp.diff(f * w, x))
        expr = expr.subs(sp.Derivative(g, x), f * w).subs(sp.Derivative(w, x), f * w_s)
        return sp.simplify(expr)

    raw = {
        "K12": sectional(0, 1), "K13": sectional(0, 2), "K23": sectional(1, 2),
        "Ric11": ric_on[0, 0], "Ric22": ric_on[1, 1], "Ric33": ric_on[2, 2], "R": scalar,
        "P11": p_on[0, 0], "P22": p_on[1, 1], "P33": p_on[2, 2],
        "h11": h_on[0, 0], "h22": h_on[1, 1], "h33": h_on[2, 2],
    }
    raw.update({f"P{i + 1}{j + 1}": p_on[i, j] for i in dim for j in dim if i != j})
    exprs = {name: reduce(expr) for name, expr in raw.items()}

    for name, expr in exprs.items():
        if expr.has(y) or expr.has(sp.Derivative):
            raise AssertionError(f"{name} still depends on y or on f_x: {expr}")
    for name in ("P12", "P13", "P21", "P23", "P31", "P32"):
        if exprs[name] != 0:
            raise AssertionError(f"Einstein tensor is not diagonal: {name} = {exprs[name]}")
    for third, second in (("K13", "K12"), ("Ric33", "Ric22"), ("P33", "P22"), ("h33", "h22")):
        if sp.simplify(exprs[third] - exprs[second]) != 0:
            raise AssertionError(f"{third} differs from {second}")

    symbols = dict(zip((f, g, w, w_s), sp.symbols("f g w w_s", real=True)))
    return {name: exprs[name].subs(symbols) for name in COMPONENTS}


@functools.cache
def components(kind: BundleKind) -> dict[str, Callable]:
    """The nine components as numpy functions of (f, g, w, w_s); derived on first call."""
    args = sp.symbols("f g w w_s", real=True)
    return {name: sp.lambdify(args, expr, "numpy") for name, expr in derive(kind).items()}


def evaluate(kind: BundleKind, f, g, w, w_s) -> dict[str, np.ndarray]:
    """Every component at the given node values."""
    return {name: fn(f, g, w, w_s) for name, fn in components(kind).items()}


def worst_mismatch(field, kind: BundleKind) -> dict[str, float]:
    """Largest pointwise relative difference, per component, of a field and the oracle.

    The oracle is fed the field's own f, g, w and w_s, so only the
    closed forms are compared, never the discretisation. The relative
    difference at a node is |a - b| / max(|a|, |b|), and 0 where both
    are 0.
    """
    expected = evaluate(kind, field.f, field.g, field.w, field.w_s)
    worst = {}
    for name in COMPONENTS:
        a, b = getattr(field, name), expected[name]
        denom = np.maximum(np.abs(a), np.abs(b))
        worst[name] = float(np.max(np.abs(a - b) / np.where(denom > 0.0, denom, 1.0)))
    return worst
