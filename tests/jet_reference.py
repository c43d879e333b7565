"""Test-only reference evaluator: a plain recursive walk of one expression tree.

Every occurrence of a shared subtree is evaluated again, exactly as written,
so its results are an independent oracle for the planned single pass in
`hesslab.jets.evaluate` (same jet arithmetic, no sharing, no plan).
"""

from __future__ import annotations

import numpy as np

from hesslab import expr as ex
from hesslab.jets import Jet, VariableDimensionError


def reference_evaluate(tree: ex.Expression, pts, order: int) -> Jet:
    pts = np.asarray(pts, float)
    m, n = pts.shape
    if isinstance(tree, ex.Num):
        return Jet.constant(tree.value, m, n, order)
    if isinstance(tree, ex.Var):
        if tree.index >= n:
            raise VariableDimensionError(tree.index, n)
        return Jet.coordinate(tree.index, pts, order)
    if isinstance(tree, ex.Neg):
        return -reference_evaluate(tree.arg, pts, order)
    if isinstance(tree, ex.Add):
        return reference_evaluate(tree.left, pts, order) + reference_evaluate(tree.right, pts, order)
    if isinstance(tree, ex.Sub):
        return reference_evaluate(tree.left, pts, order) - reference_evaluate(tree.right, pts, order)
    if isinstance(tree, ex.Mul):
        return reference_evaluate(tree.left, pts, order) * reference_evaluate(tree.right, pts, order)
    if isinstance(tree, ex.Div):
        return reference_evaluate(tree.left, pts, order) / reference_evaluate(tree.right, pts, order)
    if isinstance(tree, ex.Pow):
        k = ex.constant_value(tree.exponent)
        base = reference_evaluate(tree.base, pts, order)
        if k is not None:
            if k == round(k):
                return base.powi(int(round(k)))
            return base.powf(k)
        exponent = reference_evaluate(tree.exponent, pts, order)
        return (exponent * base.log()).exp()
    if isinstance(tree, ex.Call):
        u = reference_evaluate(tree.arg, pts, order)
        return getattr(u, tree.func)()
    if isinstance(tree, ex.Gauge):
        return tree.source.jet(pts, order)
    raise TypeError(f"not an expression node: {tree!r}")
