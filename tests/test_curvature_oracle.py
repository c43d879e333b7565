"""`curvature_batch` against a Riemann tensor derived by sympy.

The metrics are random and of non-constant curvature, so a swapped index
or a dropped term of the curvature formula cannot hide behind the symmetry
of a constant-curvature model. sympy derives Gamma and R from the entry
strings by itself; only the strings and the sample points are shared. For a
Levi-Civita connection Gamma^u_{jk} = Gamma^u_{kj}, so the lower indices of
the second Gamma in the quadratic term may be read in either order; a
random connection with torsion pins that order too.
"""

from __future__ import annotations

import numpy as np
import pytest

from hesslab.geomcore import (
    Chart,
    ConnectionField,
    MetricField,
    SamplePlan,
    curvature_batch,
    levi_civita,
)

sympy = pytest.importorskip("sympy")

BOX = 0.4
TERMS = ("x{p}", "x{p}*x{q}", "sin(x{p})", "exp(x{p})")


def _random_entry(rng, dim: int) -> str:
    """One small term, at most 0.3 * e^0.4 < 0.45 in size on the box."""
    num = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    term = TERMS[rng.integers(len(TERMS))].format(p=rng.integers(dim), q=rng.integers(dim))
    return f"({num}/10)*{term}"


def _random_metric(dim: int, seed: int) -> list[list[str]]:
    """Symmetric entries: 2 plus one small term on the diagonal, one small
    term off it. The diagonal dominates (2 - 0.45 > 2 * 0.45): positive
    definite."""
    rng = np.random.default_rng(seed)
    rows = [[""] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            entry = _random_entry(rng, dim)
            rows[i][j] = rows[j][i] = f"2 + {entry}" if i == j else entry
    return rows


def _parse(text: str, xs):
    return sympy.sympify(text, locals={f"x{i}": x for i, x in enumerate(xs)})


def _riemann(gamma, xs, pts: np.ndarray) -> np.ndarray:
    """R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{iu} G^u_{jk} - G^l_{ju} G^u_{ik}
    of the sympy symbols gamma[l][j][k] at each point, in `curvature_batch`'s
    (m, l, i, j, k) layout."""
    span = range(len(xs))
    riemann = [
        gamma[l][j][k].diff(xs[i]) - gamma[l][i][k].diff(xs[j])
        + sum(gamma[l][i][u] * gamma[u][j][k] - gamma[l][j][u] * gamma[u][i][k]
              for u in span)
        for l in span for i in span for j in span for k in span
    ]
    f = sympy.lambdify(xs, riemann, modules="numpy", cse=True)
    cols = [np.broadcast_to(np.asarray(v, float), pts.shape[:1]) for v in f(*pts.T)]
    return np.stack(cols, axis=1).reshape((len(pts),) + (len(xs),) * 4)


def _levi_civita_riemann(rows: list[list[str]], pts: np.ndarray) -> np.ndarray:
    dim = len(rows)
    xs = sympy.symbols(f"x0:{dim}")
    g = sympy.Matrix(dim, dim, lambda i, j: _parse(rows[i][j], xs))
    ginv = g.adjugate() / g.det()
    span = range(dim)
    gamma = [[[sum(ginv[l, m] * (g[m, k].diff(xs[j]) + g[m, j].diff(xs[k])
                                 - g[j, k].diff(xs[m])) for m in span) / 2
               for k in span] for j in span] for l in span]
    return _riemann(gamma, xs, pts)


def _assert_close(got: np.ndarray, want: np.ndarray) -> None:
    scale = np.max(np.abs(want))
    # a curvature that varies over the box: not a constant-curvature model
    assert np.max(np.ptp(want, axis=0)) > 1e-2 * scale > 0
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


@pytest.mark.parametrize("dim,seed", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_levi_civita_curvature_matches_sympy(dim, seed):
    rows = _random_metric(dim, seed)
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    g = MetricField(chart, rows)
    pts = chart.sample(SamplePlan(count=40, seed=seed))
    assert np.linalg.eigvalsh(g.eval(pts, 0).value).min() > 1.0
    _assert_close(curvature_batch(levi_civita(g), pts), _levi_civita_riemann(rows, pts))


@pytest.mark.parametrize("dim,seed", [(2, 4), (3, 5)])
def test_curvature_with_torsion_matches_sympy(dim, seed):
    rng = np.random.default_rng(seed)
    entries = [[[_random_entry(rng, dim) for _ in range(dim)] for _ in range(dim)]
               for _ in range(dim)]
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    pts = chart.sample(SamplePlan(count=40, seed=seed))
    xs = sympy.symbols(f"x0:{dim}")
    gamma = [[[_parse(e, xs) for e in row] for row in plane] for plane in entries]
    assert any(gamma[l][j][k] != gamma[l][k][j] for l in range(dim)
               for j in range(dim) for k in range(dim))
    _assert_close(curvature_batch(ConnectionField(chart, entries), pts),
                  _riemann(gamma, xs, pts))
