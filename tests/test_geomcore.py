"""Tensor-calculus primitives: derivatives, curvature, residuals, sampling."""

from __future__ import annotations

import ast
import itertools
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from hesslab import expr as ex
from hesslab.expr import DomainError, parse_expression
from hesslab.geomcore import (
    Chart,
    ChartError,
    CheckReport,
    ConnectionField,
    LineIntegralGauge,
    MetricField,
    OneFormField,
    PD_FLOOR,
    SamplePlan,
    ScalarField,
    VectorFieldT,
    as_entry,
    closedness_residual,
    covariant_derivative_metric_batch,
    covariant_derivative_oneform_batch,
    covariant_derivative_vector_batch,
    curvature_batch,
    definiteness_gap,
    euler_field,
    exterior_derivative_oneform_batch,
    flat_connection,
    gauged,
    inverse_metric_expressions,
    levi_civita,
    lie_derivative_metric_batch,
    make_report,
    held_result,
    max_abs,
    definiteness,
    eigenvalue_definiteness,
    positive_definite,
    sample_check,
    total_symmetry_residual_batch,
)
from hesslab.jets import evaluate

PLAN = SamplePlan(count=60, seed=7)


# ---------------------------------------------------------------------------
# chart / plan / report plumbing
# ---------------------------------------------------------------------------

def test_chart_validation():
    with pytest.raises(ChartError):
        Chart(0, ())
    with pytest.raises(ChartError):
        Chart(2, ((0, 1),))
    with pytest.raises(ChartError):
        Chart(1, ((2.0, 1.0),))
    with pytest.raises(ChartError):
        Chart(1, ((-1.0, 1.0),), positive=(True,))
    chart = Chart(2, ((0.0, 1.0), (-1.0, 1.0)), positive=(True, False))
    assert chart.contains((0.5, 0.0))
    assert not chart.contains((1.5, 0.0))


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(count=0)
    with pytest.raises(ValueError):
        SamplePlan(margin=0.5)
    with pytest.raises(ValueError):
        SamplePlan(margin=-0.1)


def test_sampling_respects_margin_and_seed():
    chart = Chart(1, ((0.0, 1.0),))
    plan = SamplePlan(count=500, seed=11, margin=0.1)
    pts = chart.sample(plan)
    assert pts.min() >= 0.1 and pts.max() <= 0.9
    again = chart.sample(plan)
    assert np.array_equal(pts, again)


def test_sample_plan_needs_an_integer_seed():
    with pytest.raises(ValueError):
        SamplePlan(seed=None)
    with pytest.raises(ValueError):
        SamplePlan(seed=1.5)
    assert SamplePlan(seed=np.int64(3)) == SamplePlan(seed=3)


def test_max_abs_keeps_nan_and_unsigned_zero():
    arr = np.array([[-3.0, 2.0], [-0.0, -0.0], [1.0, np.nan], [-np.inf, 0.0]])
    got = max_abs(arr)
    assert got[:2].tolist() == [3.0, 0.0]
    assert not np.signbit(got[1])
    assert np.isnan(got[2]) and got[3] == np.inf


def _two_sided_max_abs(a):
    """The row-wise reduction max_abs replaced: the largest entry against the
    negated smallest one, + 0.0 for an unsigned zero."""
    a = a.reshape(a.shape[0], -1)
    return np.maximum(a.max(axis=1), -a.min(axis=1)) + 0.0


@pytest.mark.parametrize("m", [1, 200, 20_000])
@pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 27, 81])
def test_max_abs_is_bit_identical_to_the_two_sided_reduction(m, k):
    rng = np.random.default_rng(100 * m + k)
    a = rng.normal(size=(m, k)) * 10.0 ** rng.integers(-8, 9, (m, k))
    pick = rng.random((m, k))
    a[pick < 0.03] = np.nan
    a[(pick >= 0.03) & (pick < 0.06)] = np.inf
    a[(pick >= 0.06) & (pick < 0.09)] = -np.inf
    a[(pick >= 0.09) & (pick < 0.3)] = -0.0
    a[(pick >= 0.3) & (pick < 0.4)] = 0.0
    a[m // 2] = -0.0  # a row of signed zeros only
    assert max_abs(a).tobytes() == _two_sided_max_abs(a).tobytes()
    # a NaN with its sign bit set (as inf - inf gives on x86) comes out
    # unsigned; the reduction kept or dropped that sign depending on k
    a[pick < 0.03] = np.copysign(np.nan, -1.0)
    got, want = max_abs(a), _two_sided_max_abs(a)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("shape", [(8,), (2, 2, 2, 2), (3, 3, 3), (3, 3, 3, 3)])
def test_max_abs_takes_no_input_sized_temporary(shape):
    m = 20_000
    a = np.random.default_rng(5).normal(size=(m,) + shape)
    assert max_abs(a).tobytes() == _two_sided_max_abs(a).tobytes()
    tracemalloc.start()
    try:
        max_abs(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 2
    assert peak <= 2 * m * a.itemsize + 16384  # the result and one column buffer


def test_subbox():
    chart = Chart(2, ((0.0, 2.0), (0.0, 2.0)))
    sub = chart.subbox((1.0, 0.2), 0.2)
    assert sub.box[0] == (0.8, 1.2)
    assert sub.box[1][0] == 0.0  # clipped to the parent box


def test_report_invariant():
    with pytest.raises(ValueError):
        CheckReport("x", 1.0, 1.0, 0.5, True, 1)
    rep = make_report("x", [0.1, 0.3], 0.5)
    assert rep.passed and rep.max_residual == 0.3 and rep.mean_residual == 0.2
    assert make_report("x", [1.0], 0.5).passed is False
    # a non-finite worst residual never passes, whatever the tolerance
    inf = float("inf")
    assert make_report("x", [0.1, inf], inf).passed is False
    assert make_report("x", [float("nan")], inf).passed is False
    assert make_report("x", [1e300], inf).passed is True
    with pytest.raises(ValueError):
        CheckReport("x", inf, inf, inf, True, 1)


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def test_metric_symmetry_enforced():
    chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        MetricField(chart, [["1", "x0"], ["x1", "1"]])
    MetricField(chart, [["1", "x0"], ["x0", "1"]])  # fine


def test_flat_is_read_from_the_symbols():
    chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
    assert flat_connection(chart).flat
    symbols = [[["0"] * 2 for _ in range(2)] for _ in range(2)]
    assert ConnectionField(chart, symbols).flat
    symbols[1][0][1] = "x0"
    assert not ConnectionField(chart, symbols).flat
    with pytest.raises(AttributeError):
        flat_connection(chart).flat = False


def test_scalar_field_entry():
    chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
    phi = ScalarField(chart, "x0*x1")
    assert phi.entry is parse_expression("x0*x1", 2)


# ---------------------------------------------------------------------------
# covariant derivatives
# ---------------------------------------------------------------------------

def test_nabla_metric_constant_is_zero():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
    out = covariant_derivative_metric_batch(
        flat_connection(chart), MetricField(chart, np.eye(chart.dim)), np.array([(0.2, 0.3)])
    )[0]
    assert np.allclose(out, 0.0)


def test_nabla_metric_quartic_potential():
    # g = Hess(x0^4) = 12 x0^2 on the line; (nabla g)_000 = 24 x0 at x0=1
    chart = Chart(1, ((0.5, 2.0),))
    g = MetricField(chart, [["12*x0^2"]])
    out = covariant_derivative_metric_batch(flat_connection(chart), g, np.array([(1.0,)]))[0]
    assert out[0, 0, 0] == pytest.approx(24.0, rel=1e-12)


def test_nabla_oneform_examples():
    chart = Chart(1, ((0.5, 3.0),))
    flat = flat_connection(chart)
    p = np.array([(2.0,)])
    assert covariant_derivative_oneform_batch(flat, OneFormField(chart, ["1"]), p)[0, 0, 0] == 0.0
    assert covariant_derivative_oneform_batch(flat, OneFormField(chart, ["x0"]), p)[
        0, 0, 0
    ] == pytest.approx(1.0)


def test_nabla_oneform_hopf_lee_form():
    chart, flat, _, theta, _ = conftest.hopf_structure()
    out = covariant_derivative_oneform_batch(flat, theta, np.array([(1.0, 0.0)]))[0]
    assert out == pytest.approx(np.array([[2.0, 0.0], [0.0, -2.0]]), abs=1e-12)


def test_nabla_vector_euler_and_scaled():
    chart = Chart(3, ((0.1, 1.0),) * 3)
    flat = flat_connection(chart)
    p = np.array([(0.3, 0.5, 0.7)])
    out = covariant_derivative_vector_batch(flat, euler_field(chart), p)[0]
    assert np.allclose(out, np.eye(3))
    scaled = VectorFieldT(chart, ["-2*x0", "-2*x1", "-2*x2"])
    out = covariant_derivative_vector_batch(flat, scaled, p)[0]
    assert np.allclose(out, -2 * np.eye(3))


def test_nabla_vector_e67_not_proportional_to_identity():
    chart, flat, _, _, xi = conftest.e67_structure()
    out = covariant_derivative_vector_batch(flat, xi, np.array([(0.0, 0.0)]))[0]
    # d_x xi^x = exp(-x/2)/2 = 0.5 at the origin, but off-diagonal stays 0,
    # so no mu makes nabla xi = mu * Id false... it IS diagonal here; the
    # failure of radiance is that the diagonal varies from point to point.
    assert out == pytest.approx(np.diag([0.5, 0.5]), abs=1e-12)
    out2 = covariant_derivative_vector_batch(flat, xi, np.array([(1.0, 0.0)]))[0]
    assert out2[0, 0] != pytest.approx(out2[1, 1], rel=1e-3)


# ---------------------------------------------------------------------------
# Lie derivative
# ---------------------------------------------------------------------------

def test_lie_euler_flat_metric():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
    out = lie_derivative_metric_batch(
        euler_field(chart), MetricField(chart, np.eye(chart.dim)), np.array([(0.3, -0.2)])
    )[0]
    assert np.allclose(out, 2 * np.eye(2))


def test_lie_halfplane_dilation_is_isometry():
    chart = conftest.halfplane_chart()
    g = conftest.halfplane_metric(chart)
    dilation = VectorFieldT(chart, ["x0", "x1"])
    pts = chart.sample(PLAN)
    out = lie_derivative_metric_batch(dilation, g, pts)
    assert np.max(np.abs(out)) < 1e-12


def test_lie_e67_lee_field_is_killing():
    chart, _, g, _, xi = conftest.e67_structure()
    pts = chart.sample(PLAN)
    out = lie_derivative_metric_batch(xi, g, pts)
    gval = g.eval(pts, 0).value
    rel = np.abs(out).max() / (1 + np.abs(gval).max())
    assert rel < 1e-6


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def _constant_curvature_model(gval, c):
    d = gval.shape[-1]
    eye = np.eye(d)
    # R^l_{ijk} = c (g_{jk} delta^l_i - g_{ik} delta^l_j)
    return c * (
        np.einsum("ajk,li->alijk", gval, eye) - np.einsum("aik,lj->alijk", gval, eye)
    )


def test_curvature_flat_zero():
    chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
    assert np.allclose(curvature_batch(flat_connection(chart), np.array([(0.5, 0.5)]))[0], 0.0)


def test_curvature_halfplane_is_minus_one():
    chart = conftest.halfplane_chart()
    g = conftest.halfplane_metric(chart)
    lc = levi_civita(g)
    pts = chart.sample(PLAN)
    r = curvature_batch(lc, pts)
    model = _constant_curvature_model(g.eval(pts, 0).value, -1.0)
    assert np.max(np.abs(r - model)) / (1 + np.max(np.abs(model))) < 1e-10


def test_curvature_sphere_is_plus_one():
    chart = conftest.sphere_chart()
    g = conftest.sphere_metric(chart)
    lc = levi_civita(g)
    pts = chart.sample(PLAN)
    r = curvature_batch(lc, pts)
    model = _constant_curvature_model(g.eval(pts, 0).value, 1.0)
    assert np.max(np.abs(r - model)) / (1 + np.max(np.abs(model))) < 1e-9


def test_levi_civita_halfplane_christoffels_and_metricity():
    chart = conftest.halfplane_chart()
    g = conftest.halfplane_metric(chart)
    lc = levi_civita(g)
    p = np.array([[0.8, 0.1]])
    c = lc.eval(p, 0).value[0]
    x0 = 0.8
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = -1 / x0
    expected[0, 1, 1] = 1 / x0
    expected[1, 0, 1] = expected[1, 1, 0] = -1 / x0
    assert c == pytest.approx(expected, abs=1e-12)
    pts = chart.sample(PLAN)
    nabla = covariant_derivative_metric_batch(lc, g, pts)
    assert np.max(np.abs(nabla)) < 1e-10


def test_levi_civita_sphere_metricity():
    g = conftest.sphere_metric()
    lc = levi_civita(g)
    pts = g.chart.sample(PLAN)
    nabla = covariant_derivative_metric_batch(lc, g, pts)
    assert np.max(np.abs(nabla)) < 1e-10


def test_inverse_metric_expressions():
    chart = Chart(2, ((0.2, 1.5), (0.2, 1.5)))
    g = MetricField(chart, [["1+x0*x0", "x0*x1/2"], ["x0*x1/2", "2+x1*x1"]])
    ginv_rows = inverse_metric_expressions(g)
    pts = chart.sample(PLAN)
    gv = g.eval(pts, 0).value
    ginv = np.stack(
        [
            np.stack([evaluate(e, pts, 0).value for e in row], axis=1)
            for row in ginv_rows
        ],
        axis=1,
    )
    prod = np.einsum("aij,ajk->aik", gv, ginv)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# exterior derivative and symmetry residuals
# ---------------------------------------------------------------------------

def test_exterior_derivative_examples():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
    exact = OneFormField(chart, ["x1", "x0"])  # d(x0 x1)
    assert np.allclose(exterior_derivative_oneform_batch(exact, np.array([(0.3, 0.4)]))[0], 0.0)
    not_closed = OneFormField(chart, ["x1", "0"])
    d = exterior_derivative_oneform_batch(not_closed, np.array([(0.3, 0.4)]))[0]
    assert d[1, 0] == pytest.approx(1.0) and d[0, 1] == pytest.approx(-1.0)


def test_exterior_derivative_cone_lee_form():
    chart = Chart(2, ((0.1, 1.0), (0.5, 2.5)), positive=(False, True))
    theta = OneFormField(chart, ["0", "-2/s"])
    pts = chart.sample(PLAN)
    tj = theta.eval(pts, 1)
    d = tj.d1.transpose(0, 2, 1) - tj.d1.transpose(0, 2, 1).transpose(0, 2, 1)
    assert np.allclose(exterior_derivative_oneform_batch(theta, np.array([(0.5, 1.0)]))[0], 0.0)
    assert d.shape == (PLAN.count, 2, 2)


def test_total_symmetry_residual_values():
    assert total_symmetry_residual_batch(np.zeros((1, 2, 2, 2)))[0] == 0.0
    t = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            t[0, i, j] = 1.0 if i == j else 0.0  # T_ijk = x_i delta_jk at x=(1,0)
    assert total_symmetry_residual_batch(np.array([t]))[0] == pytest.approx(0.5)


def test_total_symmetry_of_hessian_metric_gradient():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
    g = MetricField(chart, [["exp(x0)", "0"], ["0", "exp(x1)"]])  # Hess(e^x0+e^x1)
    pts = chart.sample(PLAN)
    nabla = covariant_derivative_metric_batch(flat_connection(chart), g, pts)
    assert np.max(total_symmetry_residual_batch(nabla)) < 1e-14


@given(st.integers(0, 5))
@settings(max_examples=20)
def test_total_symmetry_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(3, 3, 3))
    base = total_symmetry_residual_batch(np.array([t]))[0]
    import itertools as it

    for perm in it.permutations((0, 1, 2)):
        permuted = total_symmetry_residual_batch(np.array([np.transpose(t, perm)]))[0]
        assert permuted == pytest.approx(base, rel=1e-12)


def _total_symmetry_with_identity(t):
    """The residual over all six permutations, the identity included."""
    worst = np.zeros(t.shape[0])
    for perm in itertools.permutations((1, 2, 3)):
        worst = np.maximum(worst, max_abs(t - np.transpose(t, (0,) + perm)))
    return worst / (1.0 + max_abs(t))


def test_total_symmetry_skipping_the_identity_changes_no_result():
    # Finite tensors of mixed magnitudes read the same bits; a tensor with an
    # inf, -inf or NaN entry still reads NaN, as t - t made it before.
    rng = np.random.default_rng(11)
    m = 20_000
    t = rng.normal(size=(m, 3, 3, 3)) * 10.0 ** rng.integers(-8, 9, (m, 1, 1, 1))
    t[: m // 4] = np.maximum(t[: m // 4], t[: m // 4].transpose(0, 2, 1, 3))
    bad = rng.random(m) < 0.5
    flat = t.reshape(m, -1)
    for _ in range(3):
        rows = np.flatnonzero(bad & (rng.random(m) < 0.6))
        flat[rows, rng.integers(0, 27, rows.size)] = rng.choice(
            [np.inf, -np.inf, np.nan], rows.size)
    bad = ~np.isfinite(flat).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf
        got, want = total_symmetry_residual_batch(t), _total_symmetry_with_identity(t)
    assert bad.any() and not bad.all()
    assert np.isnan(got[bad]).all() and np.isnan(want[bad]).all()
    assert got[~bad].tobytes() == want[~bad].tobytes()
    assert np.isfinite(got[~bad]).all()


# ---------------------------------------------------------------------------
# positive definiteness
# ---------------------------------------------------------------------------

def test_definiteness_gap():
    mats = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.diag([1e-12, 1.0])])
    gap = definiteness_gap(mats)
    assert gap[0] == 0.0
    assert gap[1] >= 1.0
    assert gap[2] >= 1.0  # below the floor counts as failed


def test_positive_definite_needs_a_finite_eigenvalue_above_the_floor():
    smallest = np.array([1.0, 2e-9, 1e-9, 0.0, -1.0, np.inf, -np.inf, np.nan])
    assert positive_definite(smallest).tolist() == [True, True] + [False] * 6


def test_definiteness_gap_fails_an_infinite_eigenvalue():
    gap = definiteness_gap(np.array([[[np.inf]], [[1.0]], [[np.nan]]]))
    assert np.isnan(gap[0]) and gap[1] == 0.0 and np.isnan(gap[2])


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("diagonal", [True, False])
def test_a_non_finite_entry_reads_a_nan_gap(dim, bad, diagonal):
    # LAPACK fails to converge on some such matrices (a NaN or inf at
    # (0, d-1) for d = 3, 5) and returns a finite eigenvalue for others (a
    # NaN on the diagonal); neither may hide the non-finite sample
    mats = np.stack([np.eye(dim), np.diag(np.arange(1.0, dim + 1)), np.eye(dim)])
    mats[1, 0, 0 if diagonal else dim - 1] = bad
    smallest, gap = eigenvalue_definiteness(mats)
    assert np.isnan(smallest[1]) and np.isnan(gap[1])
    assert smallest[[0, 2]].tolist() == [1.0, 1.0] and gap[[0, 2]].tolist() == [0.0, 0.0]
    for got in (definiteness(mats)[0], definiteness_gap(mats)):
        assert np.isnan(got[1]) and got[[0, 2]].tolist() == [0.0, 0.0]


def _eigenvalue_rule(mats):
    """The definiteness rule on every sample's eigenvalues, one matrix at a
    time, with a NaN eigenvalue for a symmetric part that is not finite:
    (smallest eigenvalue, gap)."""
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    smallest = np.array([np.linalg.eigvalsh(s)[0] if np.isfinite(s).all() else np.nan
                         for s in sym])
    ok = np.isfinite(smallest) & (smallest > PD_FLOOR)
    return smallest, np.where(ok, 0.0, np.maximum(1.0, PD_FLOOR - smallest))


_SPECIAL = (np.inf, -np.inf, np.nan, -0.0)


@st.composite
def _sample_matrix(draw, dim):
    """One d x d matrix: a rotated diagonal with its smallest eigenvalue
    well inside, at or just across PD_FLOOR, or negative, at a scale of 1,
    1e-150 or 1e150, maybe skewed and maybe with a non-finite or -0.0 entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spd", "indefinite", "above", "below", "at"]))
    lam = rng.uniform(0.1, 10.0, dim)
    if kind == "indefinite":
        lam[rng.integers(dim)] = -rng.uniform(1e-12, 10.0)
    elif kind != "spd":
        lam[0] = PD_FLOOR * {"above": 1.0 + 1e-6, "below": 1.0 - 1e-6, "at": 1.0}[kind]
    lam *= draw(st.sampled_from([1.0, 1e-150, 1e150]))
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        mat = (q * lam) @ q.T
    else:
        mat = np.diag(lam)
    if draw(st.booleans()):  # the rule reads the symmetric part only
        skew = rng.standard_normal((dim, dim)) * lam.max()
        mat = mat + skew - skew.T
    if draw(st.booleans()):
        i, j = rng.integers(dim), rng.integers(dim)
        mat[i, j] = draw(st.sampled_from(_SPECIAL))
        if draw(st.booleans()):
            mat[j, i] = mat[i, j]
    return mat


@st.composite
def _matrix_batches(draw):
    dim = draw(st.integers(1, 5))
    mats = np.stack(draw(st.lists(_sample_matrix(dim), min_size=1, max_size=6)))
    if draw(st.booleans()):  # sample axis at unit stride, as field tensors are
        mats = np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)
    return mats


@given(_matrix_batches())
@settings(max_examples=400, deadline=None)
def test_definiteness_matches_the_eigenvalue_rule_bit_for_bit(mats):
    with np.errstate(all="ignore"):
        smallest, want = _eigenvalue_rule(mats)
        gap, rest, open_smallest = definiteness(mats)
    assert gap.tobytes() == want.tobytes()
    assert definiteness_gap(mats).tobytes() == want.tobytes()
    # never certified where the rule fails, and the open samples' eigenvalues
    # are the ones the whole batch gives them
    assert set(np.flatnonzero(want != 0.0)) <= set(rest.tolist())
    assert open_smallest.tobytes() == smallest[rest].tobytes()


def _counting_eigvalsh(monkeypatch):
    """Patch np.linalg.eigvalsh to record the number of rows of each call."""
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return rows


def test_a_certified_batch_computes_no_eigenvalue(monkeypatch):
    rows = _counting_eigvalsh(monkeypatch)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((500, 3, 3))
    mats = np.einsum("aij,akj->aik", a, a) + 0.5 * np.eye(3)
    gap, rest, smallest = definiteness(mats)
    assert rows == [] and rest.size == 0 and smallest.size == 0
    assert gap.tobytes() == np.zeros(500).tobytes()


def test_a_mixed_batch_computes_only_the_uncertified_eigenvalues(monkeypatch):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((300, 3, 3))
    mats = np.einsum("aij,akj->aik", a, a) + 0.5 * np.eye(3)
    bad = np.sort(rng.choice(300, 40, replace=False))
    mats[bad, 2, 2] -= 20.0  # indefinite
    mats[bad[:5]] = np.diag([2.0, 1.0, PD_FLOOR * (1.0 + 1e-6)])  # above the floor
    want_smallest, want = _eigenvalue_rule(mats)
    rows = _counting_eigvalsh(monkeypatch)
    gap, rest, smallest = definiteness(mats)
    assert rows == [40]
    assert rest.tolist() == bad.tolist()
    assert gap.tobytes() == want.tobytes()
    assert smallest.tobytes() == want_smallest[bad].tobytes()
    assert (gap[bad[:5]] == 0.0).all() and (gap[bad[5:]] >= 1.0).all()


def test_a_wide_pass_computes_eigenvalues_once(monkeypatch):
    # hopf and sphere_cone at 20 000 samples: every metric gate is certified;
    # only the Koszul check of an indefinite nabla theta (expected to fail)
    # reads eigenvalues, and its mean residual needs every one of them
    from hesslab.scenes import load_example, run_suite

    rows = _counting_eigvalsh(monkeypatch)
    plan = SamplePlan(count=20_000, seed=11)
    reports = [run_suite(load_example(name), plan) for name in ("hopf", "sphere_cone")]
    assert all(report.all_ok for report in reports)
    assert rows == [20_000]


_SYMMETRIC_EIGENSOLVERS = {"eigvalsh", "eigh"}


def _eigensolver_sites(tree, function=None):
    """The enclosing function of every reference to a symmetric eigensolver
    (an attribute, a bare name or an import of one) under an AST node."""
    for node in ast.iter_child_nodes(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in _SYMMETRIC_EIGENSOLVERS:
            yield function
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _eigensolver_sites(node, inner)


def test_eigenvalues_have_one_call_site():
    # every positive-definiteness decision goes through definiteness(), or
    # reads every eigenvalue through its fallback eigenvalue_definiteness(),
    # which holds the package's only eigvalsh
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "hesslab"
    sites = [(path.name, fn) for path in sorted(src.glob("*.py"))
             for fn in _eigensolver_sites(ast.parse(path.read_text()))]
    assert sites == [("geomcore.py", "eigenvalue_definiteness")]


# ---------------------------------------------------------------------------
# sample_check
# ---------------------------------------------------------------------------

def test_sample_check_zero_and_constant():
    chart = Chart(1, ((0.0, 1.0),))
    rep = sample_check(lambda pts: np.zeros(len(pts)), chart, PLAN, 1e-6, name="zero")
    assert rep.passed and rep.max_residual == 0.0 and rep.samples == PLAN.count
    rep = sample_check(lambda pts: np.ones(len(pts)), chart, PLAN, 0.5, name="one")
    assert not rep.passed


def test_sample_check_hopf_metric_without_theta_fails():
    chart, flat, g, _, _ = conftest.hopf_structure()

    def residual(pts):
        nabla = covariant_derivative_metric_batch(flat, g, pts)
        return total_symmetry_residual_batch(nabla)

    rep = sample_check(residual, chart, SamplePlan(), 1e-6, name="hopf-bare")
    assert not rep.passed
    assert rep.max_residual > 1e-2  # bounded away from zero, not roundoff


def test_sample_check_deterministic():
    chart, flat, g, _, _ = conftest.hopf_structure()

    def residual(pts):
        nabla = covariant_derivative_metric_batch(flat, g, pts)
        return total_symmetry_residual_batch(nabla)

    a = sample_check(residual, chart, SamplePlan(), 1e-6)
    b = sample_check(residual, chart, SamplePlan(), 1e-6)
    assert a.max_residual == b.max_residual and a.mean_residual == b.mean_residual


def test_sample_check_domain_error_fallback():
    chart = Chart(1, ((-1.0, 1.0),))
    tree = parse_expression("log(x0)", 1)

    def residual(pts):
        return evaluate(tree, pts, 0).value

    rep = sample_check(residual, chart, SamplePlan(count=50, seed=3), 1e-6, name="log")
    assert not rep.passed
    assert any("domain error" in n for n in rep.notes)
    assert rep.max_residual == np.inf


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

def test_line_integral_matches_potential():
    # theta = d(x0^2 * x1): integral from base to p is the potential difference
    theta = [parse_expression("2*x0*x1", 2), parse_expression("x0*x0", 2)]
    base = (0.5, 0.5)
    gauge = LineIntegralGauge(theta, base)
    pts = np.array([[1.0, 1.0], [0.7, 1.3], [1.5, 0.6]])
    want = pts[:, 0] ** 2 * pts[:, 1] - 0.25 * 0.5
    got = gauge.values(pts)
    assert got == pytest.approx(want, rel=1e-12)


def test_gauge_detects_path_dependence():
    # x1 dx0 is not closed, so its line integral depends on the path; the
    # closedness residual is what `lch.local_hessian_gauge` rejects it by
    chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
    pts = chart.sample(PLAN)
    bad = OneFormField(chart, ["x1", "0"])
    assert np.min(closedness_residual(bad, pts)) > 0.1
    good = OneFormField(chart, ["2*x0*x1", "x0*x0"])
    assert np.max(closedness_residual(good, pts)) < 1e-12
    gauge = LineIntegralGauge(good.entries, (0.2, 0.2))
    assert gauge.values(pts) == pytest.approx(pts[:, 0] ** 2 * pts[:, 1] - 0.2**3, rel=1e-12)


def test_gauged_entry_jets_match_explicit_factor():
    # exp(-f) * x0 with f = x0^2 x1 - const should match the explicit tree
    chart = Chart(2, ((0.3, 1.2), (0.3, 1.2)))
    theta = [parse_expression("2*x0*x1", 2), parse_expression("x0*x0", 2)]
    base = (0.5, 0.5)
    gauge = LineIntegralGauge(theta, base)
    entry = gauged(gauge, -1.0, parse_expression("x0", 2))
    explicit = parse_expression("exp(-(x0*x0*x1 - 0.125)) * x0", 2)
    pts = chart.sample(SamplePlan(count=40, seed=5))
    got = evaluate(entry, pts, 2)
    want = evaluate(explicit, pts, 2)
    assert np.allclose(got.value, want.value, rtol=1e-11, atol=1e-13)
    assert np.allclose(got.grad, want.grad, rtol=1e-10, atol=1e-12)
    assert np.allclose(got.hess, want.hess, rtol=1e-9, atol=1e-11)


def _count_gauge_jets(monkeypatch):
    """Record, for each `_eval_entries` call, the gauges whose jet it took."""
    import hesslab.geomcore as gc

    calls: list[list] = []
    real_eval, real_jet = gc._eval_entries, LineIntegralGauge.jet

    def eval_entries(entries, pts, order):
        calls.append([])
        return real_eval(entries, pts, order)

    def jet(self, pts, order):
        calls[-1].append(self)
        return real_jet(self, pts, order)

    monkeypatch.setattr(gc, "_eval_entries", eval_entries)
    monkeypatch.setattr(LineIntegralGauge, "jet", jet)
    return calls


def test_field_evaluation_takes_each_gauge_jet_once(monkeypatch):
    chart = Chart(2, ((0.3, 1.2), (0.3, 1.2)))
    theta = [parse_expression("2*x0*x1", 2), parse_expression("x0*x0", 2)]
    gauge = LineIntegralGauge(theta, (0.5, 0.5))
    inner = [[parse_expression(src, 2) for src in row] for row in (("x0", "x1"), ("x0*x1", "1"))]
    entries = [[gauged(gauge, -2.0, inner[i][j]) for j in range(2)] for i in range(2)]
    field = ConnectionField(chart, [entries, entries])
    pts = chart.sample(SamplePlan(count=20, seed=3))
    calls = _count_gauge_jets(monkeypatch)
    got = field.eval(pts, 3)
    assert calls == [[gauge]]
    monkeypatch.undo()
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want = evaluate(entries[i][j], pts, 3)
                assert np.array_equal(got.value[:, k, i, j], want.value)
                assert np.array_equal(got.d3[:, k, i, j], want.third)


@pytest.mark.parametrize("name", ["lee_perturbation_torus", "torus_quotient"])
def test_example_gauge_jets_once_per_field_evaluation(monkeypatch, name):
    from hesslab.scenes import run_example

    calls = _count_gauge_jets(monkeypatch)
    run_example(name)
    taken = [g for per_call in calls for g in per_call]
    assert taken
    assert len(taken) == sum(len(set(map(id, per_call))) for per_call in calls)


# ---------------------------------------------------------------------------
# the held point set: each field evaluated once per sampled array
# ---------------------------------------------------------------------------

def _sphere_scene(dim: int) -> dict:
    """The round sphere metric 4 Q / (1 + y^T Q y)^2 in a dense linear chart,
    with its Levi-Civita connection: the shape of a dense-curvature scene."""
    a = np.eye(dim) + 0.3 * np.random.default_rng(dim).uniform(0.0, 1.0, (dim, dim))
    q = a.T @ a
    q = q.tolist()
    quad = " + ".join(f"({q[i][j]!r})*x{i}*x{j}" for i in range(dim) for j in range(dim))
    entries = [[f"4*({q[i][j]!r})/(1 + {quad})^2" for j in range(dim)] for i in range(dim)]
    return {
        "name": f"sphere-d{dim}",
        "chart": {"dim": dim, "box": [[-0.5, 0.5]] * dim},
        "fields": {
            "g": {"type": "metric", "entries": entries},
            "D": {"type": "connection", "levi_civita_of": "g"},
            "flat": {"type": "connection", "flat": True},
        },
        "structures": {"S": {"type": "statistical", "conn": "D", "metric": "g"}},
        "checks": [
            {"op": "statistical", "structure": "S"},
            {"op": "curvature", "structure": "S", "expect": {"c": [0.99999, 1.00001]}},
            {"op": "hessian", "conn": "flat", "metric": "g", "expect_fail": True},
        ],
    }


def test_run_suite_evaluates_each_field_once_per_point_set(monkeypatch):
    # statistical evaluates D and g at order 1, curvature and the hessian
    # gate read both as prefixes, and the hessian gate evaluates the flat
    # connection: 3 tensor evaluations per scene where each gate evaluating
    # its own fields took 9.
    import hesslab.geomcore as gc
    from hesslab.scenes import run_suite, scene_from_dict

    calls = []
    real = gc._eval_entries

    def eval_entries(entries, pts, order):
        calls.append(order)
        return real(entries, pts, order)

    monkeypatch.setattr(gc, "_eval_entries", eval_entries)
    for dim in (2, 3):
        report = run_suite(scene_from_dict(_sphere_scene(dim)), SamplePlan(count=50, seed=4))
        assert report.all_ok
    assert len(calls) == 6


def test_run_suite_plans_the_levi_civita_field_once(monkeypatch):
    # statistical reads D at order 0 and curvature at order 1 on the same
    # points; the field's plan serves both, and trees are hash-consed, so the
    # Christoffel trees built here are the scene's own objects.
    import hesslab.jets as jets
    from hesslab.scenes import run_suite, scene_from_dict

    data = _sphere_scene(3)
    lc = levi_civita(MetricField(Chart(3, ((-0.5, 0.5),) * 3), data["fields"]["g"]["entries"]))
    christoffel = {id(entry) for entry in lc.entries.flat}
    planned = []
    real = jets._plan

    def plan(trees):
        trees = list(trees)
        planned.append(sum(id(t) in christoffel for t in trees))
        return real(trees)

    monkeypatch.setattr(jets, "_plan", plan)
    report = run_suite(scene_from_dict(data), SamplePlan(count=50, seed=4))
    assert report.all_ok
    assert [n for n in planned if n] == [27]


def test_levi_civita_shares_each_symmetric_pair():
    g = MetricField(Chart(3, ((-0.5, 0.5),) * 3), _sphere_scene(3)["fields"]["g"]["entries"])
    conn = levi_civita(g)
    for k, i, j in np.ndindex(conn.entries.shape):
        assert conn.entries[k, i, j] is conn.entries[k, j, i]
    again = levi_civita(g)  # equal trees are one object
    assert all(a is b for a, b in zip(conn.entries.flat, again.entries.flat))


@pytest.mark.parametrize("dim", [4, 5])
def test_dense_levi_civita_at_dims_4_and_5(dim):
    from hesslab.scenes import run_suite, scene_from_dict

    data = _sphere_scene(dim)
    data["checks"] = data["checks"][:2]  # statistical, curvature
    report = run_suite(scene_from_dict(data), SamplePlan(count=200, seed=dim))
    statistical, curvature = report.checks
    assert statistical["ok"] and statistical["reports"][0]["passed"]
    assert curvature["ok"]
    assert 0.99999 <= curvature["reports"][0]["extra"]["c"] <= 1.00001


def test_a_dropped_scene_leaves_no_interned_node():
    import gc

    from hesslab.scenes import run_suite, scene_from_dict

    gc.collect()
    before = len(ex._INTERNED)
    scene = scene_from_dict(_sphere_scene(3))
    assert run_suite(scene, SamplePlan(count=20, seed=1)).all_ok
    assert len(ex._INTERNED) > before
    del scene
    gc.collect()  # a derivative memo refers back to its node: a cycle
    assert len(ex._INTERNED) == before


@pytest.mark.parametrize("dim", [2, 3])
def test_curvature_matches_the_closed_formula_bit_for_bit(dim):
    # curvature_batch forms A^l_{ijk} = Gamma^l_{iu} Gamma^u_{jk} + d_i Gamma^l_{jk}
    # one upper index at a time and takes A^l_{ijk} - A^l_{jik}; written out
    # here, the same formula must round exactly as the kernel does
    chart = Chart(dim, ((-0.5, 0.5),) * dim)
    lc = levi_civita(MetricField(chart, _sphere_scene(dim)["fields"]["g"]["entries"]))
    pts = chart.sample(SamplePlan(count=40, seed=9))
    cj = lc.eval(pts.copy(), 1)
    term1 = cj.d1.transpose(0, 1, 4, 2, 3)  # (m, l, i, j, k) = d_i Gamma^l_{jk}
    want = np.empty_like(term1)
    for l in range(dim):
        a = np.einsum("aiu,aujk->aijk", cj.value[:, l], cj.value) + term1[:, l]
        want[:, l] = a - a.transpose(0, 2, 1, 3)
    got = curvature_batch(lc, pts)
    assert got.tobytes() == want.tobytes()
    # the whole-tensor einsum formula sums in another order: equal to rounding
    quad = np.einsum("aliu,aujk->alijk", cj.value, cj.value)
    old = term1 - term1.transpose(0, 1, 3, 2, 4) + quad - quad.transpose(0, 1, 3, 2, 4)
    assert np.max(np.abs(got - old)) <= 1e-13 * np.max(np.abs(old))


def test_curvature_scratch_is_one_slice():
    # with Gamma held, one call allocates the output and one (m, d, d, d)
    # slice at a time, 4/3 of the output at dim 3; a kernel over the whole
    # 5-index tensor would need about three outputs' worth
    chart = Chart(3, ((-0.5, 0.5),) * 3)
    lc = levi_civita(MetricField(chart, _sphere_scene(3)["fields"]["g"]["entries"]))
    pts = chart.sample(SamplePlan(count=20_000, seed=4))
    lc.eval(pts, 1)
    tracemalloc.start()
    try:
        out = curvature_batch(lc, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes


def test_lower_order_is_a_bit_identical_prefix():
    chart = Chart(3, ((-0.5, 0.5),) * 3)
    g = MetricField(chart, _sphere_scene(3)["fields"]["g"]["entries"])
    pts = chart.sample(SamplePlan(count=30, seed=8))
    assert chart.sample(SamplePlan(count=30, seed=8)) is pts
    high = g.eval(pts, 1)
    low = g.eval(pts, 0)
    assert low.d1 is None and low.value is high.value
    fresh = g.eval(pts.copy(), 0)  # another array: evaluated, not held
    assert fresh.value.flags.writeable
    assert fresh.value.tobytes() == low.value.tobytes()


def test_held_arrays_are_read_only():
    chart = Chart(2, ((0.5, 1.5),) * 2)
    g = MetricField(chart, [["1/x0", "0"], ["0", "1/x1"]])
    pts = chart.sample(SamplePlan(count=10, seed=2))
    held = g.eval(pts, 1)
    with pytest.raises(ValueError):
        held.value[0, 0, 0] += 1.0
    with pytest.raises(ValueError):
        held.d1[...] = 0.0
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    assert g.eval(pts, 1).value.tobytes() == g.eval(pts.copy(), 1).value.tobytes()


def test_sampling_another_point_set_drops_held_tensors():
    chart = Chart(2, ((0.5, 1.5),) * 2)
    g = MetricField(chart, [["1/x0", "0"], ["0", "1/x1"]])
    pts = chart.sample(SamplePlan(count=10, seed=2))
    value = weakref.ref(g.eval(pts, 1).value)
    points = weakref.ref(pts)
    del pts
    assert value() is not None and points() is not None
    other = chart.sample(SamplePlan(count=10, seed=3))
    assert value() is None and points() is None
    assert g.eval(other, 1).d1.tobytes() == g.eval(other.copy(), 1).d1.tobytes()


def test_domain_error_is_never_held():
    chart = Chart(1, ((-1.0, 1.0),))
    bad = ScalarField(chart, "log(x0)")
    good = ScalarField(chart, "x0*x0")
    pts = chart.sample(SamplePlan(count=20, seed=6))
    for _ in range(2):
        with pytest.raises(DomainError):
            bad.eval(pts, 1)
    assert np.array_equal(good.eval(pts, 0).value, pts[:, 0] * pts[:, 0])


def test_held_results_are_read_only_and_dropped_with_the_point_set():
    chart = Chart(2, ((0.5, 1.5),) * 2)
    pts = chart.sample(SamplePlan(count=10, seed=2))
    computed = []

    def compute():
        computed.append(1)
        return pts[:, 0] * 2.0

    kept = held_result(("double", chart), pts, compute)
    assert held_result(("double", chart), pts, compute) is kept
    assert len(computed) == 1
    with pytest.raises(ValueError):
        kept[0] = 0.0
    copy = held_result(("double", chart), pts.copy(), compute)  # not held
    assert copy.flags.writeable and copy is not kept and len(computed) == 2
    kept = weakref.ref(kept)
    other = chart.sample(SamplePlan(count=10, seed=3))
    assert kept() is None
    held_result(("double", chart), other, compute)
    assert len(computed) == 3


def test_a_raising_result_is_never_held():
    chart = Chart(1, ((-1.0, 1.0),))
    bad = ScalarField(chart, "log(x0)")
    pts = chart.sample(SamplePlan(count=20, seed=6))
    import hesslab.geomcore as gc

    for _ in range(2):
        with pytest.raises(DomainError):
            held_result(("value", bad), pts, lambda: bad.eval(pts, 0).value[:, 0])
        assert ("value", bad) not in gc._held.results


# ---------------------------------------------------------------------------
# field tensors written from the jet pass
# ---------------------------------------------------------------------------

def _field_cases():
    chart = Chart(3, ((0.5, 1.5),) * 3)
    sym = [["exp(x0*x1)", "x0*x2", "2"], ["x0*x2", "x1^2", "0"], ["2", "0", "sin(x2)/x0"]]
    gauge = LineIntegralGauge([ex.Var(1), ex.Var(0), ex.ONE], np.full(3, 1.0))
    scaled = [[gauged(gauge, -1.0, as_entry(e, 3)) for e in row] for row in sym]
    return chart, [MetricField(chart, sym), MetricField(chart, scaled),
                   levi_civita(MetricField(chart, [["x0", "0", "0"], ["0", "x1", "0"],
                                                   ["0", "0", "1"]])),
                   OneFormField(chart, ["1", "x2", "x0*x0*x1"])]


@pytest.mark.parametrize("case", range(4))
def test_field_tensor_is_the_stacked_entry_jets(case):
    # mirrored entries (g_ij = g_ji) are copies, known-zero orders read 0.0,
    # and every row holds the bits of its entry's jet
    chart, fields = _field_cases()
    field = fields[case]
    pts = chart.sample(SamplePlan(count=40, seed=2)).copy()  # not the held array
    for order in range(4):
        got = field.eval(pts, order)
        jets = evaluate(list(field.entries.flat), pts, order)
        parts = (got.value, got.d1, got.d2, got.d3)
        for k, name in enumerate(("value", "grad", "hess", "third")):
            if k > order:
                assert parts[k] is None
                continue
            want = np.stack([getattr(j, name) for j in jets], axis=1)
            want = want.reshape((len(pts),) + field.entries.shape + want.shape[2:])
            assert parts[k].tobytes() == want.tobytes()
            assert parts[k].strides[0] == 8


def test_field_pass_drops_each_entry_jet_once_written():
    # 10 distinct order-3 entries: holding every root jet until the pass
    # ends would keep 10 of them beside the tensor; writing each root as it
    # finishes keeps a handful.
    dim, m = 4, 5000
    chart = Chart(dim, ((0.5, 1.5),) * dim)
    entries = [[f"exp(x{min(i, j)}*x{max(i, j)}) + x{min(i, j)}*x{max(i, j)}^2"
                for j in range(dim)] for i in range(dim)]
    g = MetricField(chart, entries)
    pts = np.random.default_rng(0).uniform(0.5, 1.5, (m, dim))
    g.eval(pts, 3)
    one_jet = m * 8 * (1 + dim + dim**2 + dim**3)
    tracemalloc.start()
    try:
        tensor = g.eval(pts, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = sum(a.nbytes for a in (tensor.value, tensor.d1, tensor.d2, tensor.d3))
    assert peak - written < 8 * one_jet
