"""Test-only reference for the affine residual of a vector field: nabla xi is
built as expression trees and differentiated once more by its jets.

`hesslab.lch._affine_residual` takes the same tensor from the jets of xi at
order 2 and of Gamma at order 1, with no tree built, so this symbolic route
is an independent check of its index bookkeeping. It cannot take a field
with a gauge leaf, which has no symbolic derivative.
"""

from __future__ import annotations

import numpy as np

from hesslab import expr as ex
from hesslab.geomcore import rel_residual
from hesslab.jets import evaluate


def reference_affine_residual(conn, xi, pts) -> float:
    """Worst (nabla nabla xi) relative to |nabla xi|, via trees of
    T^i_j = d_j xi^i + Gamma^i_{jk} xi^k."""
    n = conn.chart.dim
    xtrees = list(xi.entries)
    terms = [
        ex.sum_of([ex.diff(xtrees[i], j)]
                  + [ex.mul(conn.entries[i, j, k], xtrees[k]) for k in range(n)])
        for i in range(n)
        for j in range(n)
    ]
    jets = evaluate(terms, pts, 1)
    m = pts.shape[0]
    tval = np.stack([j.value for j in jets], axis=1).reshape(m, n, n)
    td1 = np.stack([j.grad for j in jets], axis=1).reshape(m, n, n, n)
    c = conn.eval(pts, 0).value
    second = td1 + np.einsum("aikl,alj->aijk", c, tval)
    second = second - np.einsum("alkj,ail->aijk", c, tval)
    return float(np.max(rel_residual(second, tval)))
