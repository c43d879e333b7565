"""Test-only reference evaluator: a plain recursive walk of one expression tree.

Every occurrence of a shared subtree is evaluated again, exactly as written,
so its results are an independent oracle for the planned single pass in
`hesslab.jets.evaluate` (same jet arithmetic, no sharing, no plan).

Domain errors are checked here, before each op that has a domain, and raise:
run on one row alone, the reference raises exactly where a planned pass
marks that row in its jets' faults, with the message the fault keeps. With
``strict`` off the checks are skipped, and only what the planned pass also
raises (an exponent that does not resolve, a coordinate the points lack) is
raised.
"""

from __future__ import annotations

import numpy as np

from hesslab import expr as ex
from hesslab.expr import DomainError
from hesslab.jets import Jet, VariableDimensionError, offsets


def jet_from_parts(order: int, value, grad=None, hess=None) -> Jet:
    """A full-degree jet whose parts, indexed sample axis first in any memory
    order, are copied into one buffer."""
    parts = (value, grad, hess)[:order + 1]
    m = value.shape[0]
    n = grad.shape[1] if order else 0
    off = offsets(n)
    buf = np.empty((off[order + 1], m))
    for k, part in enumerate(parts):
        buf[off[k]:off[k + 1]].reshape((n,) * k + (m,))[...] = np.moveaxis(part, 0, -1)
    return Jet(order, order, n, buf)


def _check(strict: bool, bad, message: str) -> None:
    if strict and np.any(bad):
        raise DomainError(message)


def _recip(u: Jet, strict: bool) -> Jet:
    _check(strict, u.value == 0.0, "division by zero")
    return u.reciprocal()


def _call(func: str, u: Jet, strict: bool) -> Jet:
    if func in ("log", "sqrt"):
        v = u.value
        _check(strict, v <= 0.0, f"{func} of non-positive value (min {v.min():g})")
    return getattr(u, func)()


def reference_evaluate(tree: ex.Expression, pts, order: int, strict: bool = True) -> Jet:
    pts = np.asarray(pts, float)
    m, n = pts.shape

    def walk(node):
        return reference_evaluate(node, pts, order, strict)

    if isinstance(tree, ex.Num):
        return Jet.constant(tree.value, m, n, order)
    if isinstance(tree, ex.Var):
        if tree.index >= n:
            raise VariableDimensionError(tree.index, n)
        return Jet.coordinate(tree.index, pts, order)
    if isinstance(tree, ex.Neg):
        return -walk(tree.arg)
    if isinstance(tree, ex.Add):
        return walk(tree.left) + walk(tree.right)
    if isinstance(tree, ex.Sub):
        return walk(tree.left) - walk(tree.right)
    if isinstance(tree, ex.Mul):
        return walk(tree.left) * walk(tree.right)
    if isinstance(tree, ex.Div):
        return walk(tree.left) * _recip(walk(tree.right), strict)
    if isinstance(tree, ex.Pow):
        k = ex.constant_value(tree.exponent)
        base = walk(tree.base)
        if k is not None:
            if k == round(k):
                k = int(round(k))
                return _recip(base.powi(-k), strict) if k < 0 else base.powi(k)
            v = base.value
            _check(strict, v <= 0.0, f"power {k:g} of non-positive base (min {v.min():g})")
            return base.powf(k)
        exponent = walk(tree.exponent)
        return (exponent * _call("log", base, strict)).exp()
    if isinstance(tree, ex.Call):
        return _call(tree.func, walk(tree.arg), strict)
    if isinstance(tree, ex.Gauge):
        jet = tree.source.jet(pts, order)
        _check(strict, jet.fault is not None, "" if jet.fault is None else jet.fault.first[2])
        return jet
    raise TypeError(f"not an expression node: {tree!r}")
