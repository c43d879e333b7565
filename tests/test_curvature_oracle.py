"""The curvature kernel's pair slices (`curvature_slices`, gathered into
the whole R by `conftest.curvature_tensor`), the flatness term,
`covariant_hessian_trees`, the covariant derivatives of a one-form, a vector
field and a metric, the Lie derivative of a metric and the pullback of (g,
Gamma, theta) by a map against tensors derived by sympy.

The metrics are random and of non-constant curvature, so a swapped index
or a dropped term of the curvature formula cannot hide behind the symmetry
of a constant-curvature model. sympy derives Gamma, R and the covariant
derivatives from the entry strings by itself; only the strings and the
sample points are shared. For a Levi-Civita connection Gamma^u_{jk} =
Gamma^u_{kj}, so the lower indices of the second Gamma in the quadratic term
may be read in either order; a random connection with torsion pins that
order too, and so it does for nabla theta of a one-form that is not closed,
for nabla xi and for nabla g. A random vector field has a Jacobian that is
not symmetric, so L_xi g cannot read it transposed, and neither can the
pullback by an affine map whose matrix is not symmetric.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import curvature_tensor
from hesslab import expr as ex
from hesslab.geomcore import (
    Chart,
    ConnectionField,
    MetricField,
    OneFormField,
    SamplePlan,
    VectorFieldT,
    covariant_derivative_metric_batch,
    covariant_derivative_oneform_batch,
    covariant_derivative_vector_batch,
    covariant_hessian_trees,
    flatness_residual,
    levi_civita,
    lie_derivative_metric_batch,
)
from hesslab.lch import LCHStructure, check_symmetry

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


def _random_connection(rng, dim: int) -> list:
    """Christoffel entry strings Gamma^l_{jk}, one small term each: no
    symmetry in the lower indices, so the connection has torsion."""
    return [[[_random_entry(rng, dim) for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)]


def _random_components(rng, dim: int) -> list[str]:
    """One entry string per coordinate, 1 plus two small terms."""
    return [f"1 + {_random_entry(rng, dim)} + {_random_entry(rng, dim)}" for _ in range(dim)]


def _parse(text: str, xs):
    return sympy.sympify(text, locals={f"x{i}": x for i, x in enumerate(xs)})


def _riemann(gamma, xs, pts: np.ndarray) -> np.ndarray:
    """R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{iu} G^u_{jk} - G^l_{ju} G^u_{ik}
    of the sympy symbols gamma[l][j][k] at each point, in
    `conftest.curvature_tensor`'s (m, l, i, j, k) layout."""
    span = range(len(xs))
    riemann = [
        gamma[l][j][k].diff(xs[i]) - gamma[l][i][k].diff(xs[j])
        + sum(gamma[l][i][u] * gamma[u][j][k] - gamma[l][j][u] * gamma[u][i][k]
              for u in span)
        for l in span for i in span for j in span for k in span
    ]
    return _values(riemann, xs, pts, 4)


def _values(exprs, xs, pts: np.ndarray, rank: int) -> np.ndarray:
    """The sympy expressions ``exprs``, listed in C order of a tensor of
    this rank, at each point: an (m, dim, ..., dim) array."""
    f = sympy.lambdify(xs, exprs, modules="numpy", cse=True)
    cols = [np.broadcast_to(np.asarray(v, float), pts.shape[:1]) for v in f(*pts.T)]
    return np.stack(cols, axis=1).reshape((len(pts),) + (len(xs),) * rank)


def _levi_civita_gamma(rows: list[list[str]], xs):
    dim = len(rows)
    g = sympy.Matrix(dim, dim, lambda i, j: _parse(rows[i][j], xs))
    ginv = g.adjugate() / g.det()
    span = range(dim)
    return [[[sum(ginv[l, m] * (g[m, k].diff(xs[j]) + g[m, j].diff(xs[k])
                                - g[j, k].diff(xs[m])) for m in span) / 2
              for k in span] for j in span] for l in span]


def _levi_civita_riemann(rows: list[list[str]], pts: np.ndarray) -> np.ndarray:
    xs = sympy.symbols(f"x0:{len(rows)}")
    return _riemann(_levi_civita_gamma(rows, xs), xs, pts)


def _assert_close(got: np.ndarray, want: np.ndarray) -> None:
    scale = np.max(np.abs(want))
    # a curvature that varies over the box: not a constant-curvature model
    assert np.max(np.ptp(want, axis=0)) > 1e-2 * scale > 0
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


def _assert_flatness_close(conn, pts, riemann: np.ndarray) -> None:
    """The flatness term folded from curvature slices against max |R| / (1 + max |Gamma|)
    of sympy's R, each sample to the curvature's rounding."""
    m = len(pts)
    gamma = conn.eval(pts, 0).value.reshape(m, -1)
    want = np.abs(riemann.reshape(m, -1)).max(axis=1) / (1.0 + np.abs(gamma).max(axis=1))
    assert np.max(np.abs(flatness_residual(conn, pts) - want)) <= 1e-10 * np.max(want)


@pytest.mark.parametrize("dim,seed", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_levi_civita_curvature_matches_sympy(dim, seed):
    rows = _random_metric(dim, seed)
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    g = MetricField(chart, rows)
    pts = chart.sample(SamplePlan(count=40, seed=seed))
    assert np.linalg.eigvalsh(g.eval(pts, 0).value).min() > 1.0
    riemann = _levi_civita_riemann(rows, pts)
    _assert_close(curvature_tensor(levi_civita(g), pts), riemann)
    _assert_flatness_close(levi_civita(g), pts, riemann)


@pytest.mark.parametrize("dim,seed", [(2, 4), (3, 5)])
def test_curvature_with_torsion_matches_sympy(dim, seed):
    rng = np.random.default_rng(seed)
    entries = _random_connection(rng, dim)
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    pts = chart.sample(SamplePlan(count=40, seed=seed))
    xs = sympy.symbols(f"x0:{dim}")
    gamma = [[[_parse(e, xs) for e in row] for row in plane] for plane in entries]
    assert any(gamma[l][j][k] != gamma[l][k][j] for l in range(dim)
               for j in range(dim) for k in range(dim))
    conn, riemann = ConnectionField(chart, entries), _riemann(gamma, xs, pts)
    _assert_close(curvature_tensor(conn, pts), riemann)
    _assert_flatness_close(conn, pts, riemann)


@pytest.mark.parametrize("dim,seed", [(2, 6), (3, 7)])
def test_covariant_hessian_matches_sympy(dim, seed):
    # Hess phi = d_i d_j phi - Gamma^k_{ij} d_k phi on a curved Levi-Civita
    # connection, built as trees from the gradient of phi
    rows = _random_metric(dim, seed)
    rng = np.random.default_rng(seed)
    phi = " + ".join(_random_entry(rng, dim) for _ in range(2 * dim))
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    pts = chart.sample(SamplePlan(count=40, seed=seed))
    conn = levi_civita(MetricField(chart, rows))
    tree = ex.parse_expression(phi, dim)
    hess = MetricField(chart, covariant_hessian_trees(
        conn, [ex.diff(tree, a) for a in range(dim)]))

    xs = sympy.symbols(f"x0:{dim}")
    gamma = _levi_civita_gamma(rows, xs)
    f = _parse(phi, xs)
    span = range(dim)
    drop = _values([sum(gamma[k][i][j] * f.diff(xs[k]) for k in span)
                    for i in span for j in span], xs, pts, 2)
    want = _values([f.diff(xs[i], xs[j]) for i in span for j in span], xs, pts, 2) - drop
    # the connection term is not negligible: dropping it would fail the bound
    assert np.max(np.abs(drop)) > 1e-3 * np.max(np.abs(want))
    _assert_close(hess.eval(pts, 0).value, want)


@pytest.mark.parametrize("dim,seed", [(2, 8), (3, 9)])
def test_covariant_derivative_of_a_oneform_with_torsion_matches_sympy(dim, seed):
    # (nabla theta)_{ij} = d_i theta_j - Gamma^k_{ij} theta_k with Gamma^k_{ij}
    # != Gamma^k_{ji} and d theta != 0, so neither the lower indices of Gamma
    # nor those of d theta may be read in the other order
    rng = np.random.default_rng(seed)
    entries = _random_connection(rng, dim)
    theta = _random_components(rng, dim)
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    pts = chart.sample(SamplePlan(count=40, seed=seed))
    xs = sympy.symbols(f"x0:{dim}")
    gamma = [[[_parse(e, xs) for e in row] for row in plane] for plane in entries]
    t = [_parse(c, xs) for c in theta]
    span = range(dim)
    assert any(gamma[k][i][j] != gamma[k][j][i] for k in span for i in span for j in span)
    assert any(t[j].diff(xs[i]) != t[i].diff(xs[j]) for i in span for j in span)
    want = _values([t[j].diff(xs[i]) - sum(gamma[k][i][j] * t[k] for k in span)
                    for i in span for j in span], xs, pts, 2)
    got = covariant_derivative_oneform_batch(
        ConnectionField(chart, entries), OneFormField(chart, theta), pts)
    _assert_close(got, want)


@pytest.mark.parametrize("dim,seed", [(2, 10), (3, 11)])
def test_covariant_derivative_of_a_vector_with_torsion_matches_sympy(dim, seed):
    # (nabla xi)^i_j = d_j xi^i + Gamma^i_{jk} xi^k with Gamma^i_{jk} !=
    # Gamma^i_{kj}: reading the lower indices of Gamma in the other order
    # moves the result by far more than the bound
    rng = np.random.default_rng(seed)
    entries, xi = _random_connection(rng, dim), _random_components(rng, dim)
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    pts = chart.sample(SamplePlan(count=40, seed=seed))
    xs = sympy.symbols(f"x0:{dim}")
    gamma = [[[_parse(e, xs) for e in row] for row in plane] for plane in entries]
    v = [_parse(c, xs) for c in xi]
    span = range(dim)

    def nabla(term):
        return _values([v[i].diff(xs[j]) + sum(term(i, j, k) * v[k] for k in span)
                        for i in span for j in span], xs, pts, 2)

    want = nabla(lambda i, j, k: gamma[i][j][k])
    swapped = nabla(lambda i, j, k: gamma[i][k][j])
    assert np.max(np.abs(swapped - want)) > 1e-2 * np.max(np.abs(want))
    got = covariant_derivative_vector_batch(
        ConnectionField(chart, entries), VectorFieldT(chart, xi), pts)
    _assert_close(got, want)


@pytest.mark.parametrize("dim,seed", [(2, 12), (3, 13)])
def test_covariant_derivative_of_a_metric_with_torsion_matches_sympy(dim, seed):
    # (nabla g)_{ijk} = d_i g_jk - Gamma^l_{ij} g_lk - Gamma^l_{ik} g_jl on a
    # curved metric: with torsion, neither Gamma term may read its lower
    # indices in the other order
    rows = _random_metric(dim, seed)
    rng = np.random.default_rng(seed)
    entries = _random_connection(rng, dim)
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    pts = chart.sample(SamplePlan(count=40, seed=seed))
    xs = sympy.symbols(f"x0:{dim}")
    gamma = [[[_parse(e, xs) for e in row] for row in plane] for plane in entries]
    g = [[_parse(e, xs) for e in row] for row in rows]
    span = range(dim)

    def nabla(first, second):
        return _values([g[j][k].diff(xs[i]) - sum(first(l, i, j) * g[l][k]
                                                  + second(l, i, k) * g[j][l] for l in span)
                        for i in span for j in span for k in span], xs, pts, 3)

    def read(l, a, b):
        return gamma[l][a][b]

    def swap(l, a, b):
        return gamma[l][b][a]

    want = nabla(read, read)
    for wrong in (nabla(swap, read), nabla(read, swap)):
        assert np.max(np.abs(wrong - want)) > 1e-2 * np.max(np.abs(want))
    got = covariant_derivative_metric_batch(
        ConnectionField(chart, entries), MetricField(chart, rows), pts)
    _assert_close(got, want)


@pytest.mark.parametrize("dim,seed", [(2, 14), (3, 15)])
def test_lie_derivative_of_a_metric_matches_sympy(dim, seed):
    # (L_xi g)_{ij} = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k on a curved
    # metric and a field whose Jacobian d_j xi^i is not symmetric: reading it
    # transposed in either Jacobian term moves the result by far more than
    # the bound
    rows = _random_metric(dim, seed)
    rng = np.random.default_rng(seed)
    xi = _random_components(rng, dim)
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    pts = chart.sample(SamplePlan(count=40, seed=seed))
    xs = sympy.symbols(f"x0:{dim}")
    g = [[_parse(e, xs) for e in row] for row in rows]
    v = [_parse(c, xs) for c in xi]
    span = range(dim)

    def lie(jac):
        return _values([sum(v[k] * g[i][j].diff(xs[k]) + g[k][j] * jac(k, i)
                            + g[i][k] * jac(k, j) for k in span)
                        for i in span for j in span], xs, pts, 2)

    want = lie(lambda k, i: v[k].diff(xs[i]))
    transposed = lie(lambda k, i: v[i].diff(xs[k]))
    assert np.max(np.abs(transposed - want)) > 1e-2 * np.max(np.abs(want))
    got = lie_derivative_metric_batch(VectorFieldT(chart, xi), MetricField(chart, rows), pts)
    _assert_close(got, want)


@pytest.mark.parametrize("dim,seed", [(2, 16), (3, 17)])
def test_pullback_by_an_affine_map_matches_sympy(dim, seed):
    # phi(x) = A x + b pulls back g to A^T g(phi) A, theta to A^T theta(phi)
    # and Gamma to A^{-1} Gamma(phi)(A., A.); `check_symmetry` reports each
    # against the field itself as max |phi^* T - T| / (1 + max |T|), the
    # worst over the samples. A is positive below its diagonal and negative
    # above it, so reading the Jacobian transposed moves each term by far
    # more than the 1e-10 the report is held to
    rows = _random_metric(dim, seed)
    rng = np.random.default_rng(seed)
    gamma_rows = _random_connection(rng, dim)
    theta_rows = _random_components(rng, dim)
    a = sympy.Matrix(dim, dim, lambda c, u: 1 if c == u else sympy.Rational(
        int(rng.integers(1, 4)) * (1 if c > u else -1), 10))
    b = [sympy.Rational(int(rng.integers(-2, 3)), 10) for _ in range(dim)]
    mapping = [" + ".join([f"({a[c, u]})*x{u}" for u in range(dim)] + [f"({b[c]})"])
               for c in range(dim)]
    chart = Chart(dim, ((-BOX, BOX),) * dim)
    plan = SamplePlan(count=40, seed=seed)
    pts = chart.sample(plan)
    xs = sympy.symbols(f"x0:{dim}")
    g = sympy.Matrix(dim, dim, lambda i, j: _parse(rows[i][j], xs))
    theta = sympy.Matrix([_parse(c, xs) for c in theta_rows])
    gamma = [sympy.Matrix(dim, dim, lambda j, k: _parse(gamma_rows[l][j][k], xs))
             for l in range(dim)]
    image = dict(zip(xs, a * sympy.Matrix(xs) + sympy.Matrix(b)))
    span = range(dim)

    def term(pulled, own, rank):
        delta = np.abs(_values(list(pulled - own), xs, pts, rank)).reshape(len(pts), -1)
        scale = np.abs(_values(list(own), xs, pts, rank)).reshape(len(pts), -1)
        return float(np.max(delta.max(axis=1) / (1.0 + scale.max(axis=1))))

    def residuals(jac):  # the pullback by phi, read through the Jacobian ``jac``
        inner = [jac.T * gamma[l].xreplace(image) * jac for l in span]
        inv = jac.inv()
        return {
            "metric": term(jac.T * g.xreplace(image) * jac, g, 2),
            "connection": term(
                sympy.Matrix([sum(inv[u, l] * inner[l][j, k] for l in span)
                              for u in span for j in span for k in span]),
                sympy.Matrix([gamma[u][j, k] for u in span for j in span for k in span]), 3),
            "lee_form": term(jac.T * theta.xreplace(image), theta, 1),
        }

    want, transposed = residuals(a), residuals(a.T)
    for key, value in want.items():
        assert abs(transposed[key] - value) > 1e-6 * value > 0, key
    struct = LCHStructure(chart, ConnectionField(chart, gamma_rows), MetricField(chart, rows),
                          OneFormField(chart, theta_rows))
    got = check_symmetry(struct, mapping, plan).extra
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-10), key
