"""Tensor-calculus primitives: derivatives, curvature, residuals, sampling."""

from __future__ import annotations

import ast
import itertools
import pathlib
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import curvature_tensor
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
    definiteness_gap,
    drop_held_points,
    euler_field,
    exterior_derivative_oneform_batch,
    flat_connection,
    flatness_residual,
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
    rel_residual,
    sample_check,
    samples_first,
    torsion_residual,
    total_symmetry_residual_batch,
)
from hesslab.jets import Jet, evaluate

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
    # a non-finite interval used to sample NaN points
    for box in (((1.0, np.inf),), ((-np.inf, 0.0),), ((-1e308, 1e308),), ((np.nan, 1.0),)):
        with pytest.raises(ChartError):
            Chart(1, box)
    assert Chart(1, ((-1e307, 1e307),)).box == ((-1e307, 1e307),)
    assert Chart(2, ((0.0, 1.0), (-1.0, 1.0)), positive=(True, False)).positive == (True, False)
    # a float or bool dim is not a dimension: it used to fail with a bare TypeError
    for dim in (2.0, True):
        with pytest.raises(ChartError, match="integer"):
            Chart(dim, ((0, 1), (0, 1)))
    assert Chart(np.int64(2), ((0, 1), (0, 1))).positive == (False, False)


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(count=0)
    with pytest.raises(ValueError):
        SamplePlan(margin=0.5)
    with pytest.raises(ValueError):
        SamplePlan(margin=-0.1)
    # a fractional count used to fail inside numpy at the first Chart.sample,
    # and a bool count or seed was taken as 1 or 0
    for kwargs in ({"count": 200.5}, {"count": 200.0}, {"count": "200"},
                   {"count": True, "seed": False}, {"seed": False}, {"seed": -1},
                   {"seed": np.int64(-3)}):
        with pytest.raises(ValueError, match="integer"):
            SamplePlan(**kwargs)
    plan = SamplePlan(count=np.int64(5), seed=np.int32(3))
    assert Chart(1, ((0.0, 1.0),)).sample(plan).shape == (5, 1)


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
    """The two-sided rule on the flattened components, reduced per sample:
    the largest entry against the negated smallest one, + 0.0 for an
    unsigned zero."""
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


def _spoil_max_abs_input(a, rng):
    """NaN, +-inf and signed zeros at random entries, and one sample of
    signed zeros only, in a multi-block input."""
    pick = rng.random(a.shape)
    a[pick < 0.01] = np.nan
    a[(pick >= 0.01) & (pick < 0.02)] = np.inf
    a[(pick >= 0.02) & (pick < 0.03)] = -np.inf
    a[(pick >= 0.03) & (pick < 0.2)] = -0.0
    a[(pick >= 0.2) & (pick < 0.3)] = 0.0
    a[12_345] = -0.0
    return a


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (3, 3)])
@pytest.mark.parametrize("layout", ["sample-first", "C"])
def test_max_abs_reads_a_multi_block_input_bit_for_bit(shape, layout):
    # 20 000 samples fold hi and lo over blocks of samples; every byte is the
    # two-sided reduction's, NaN, +-inf and -0.0 included
    import hesslab.geomcore as gc

    m = 20_000
    assert m > 2 * gc._MAX_ABS_ROWS
    rng = np.random.default_rng(len(shape))
    a = rng.normal(size=(m,) + shape) * 10.0 ** rng.integers(-8, 9, (m,) + shape)
    if layout == "sample-first":
        a = samples_first(np.moveaxis(a, 0, -1).copy())
    a = _spoil_max_abs_input(a, rng)
    assert a.flags.c_contiguous == (layout == "C")
    got = max_abs(a)
    assert got.tobytes() == _two_sided_max_abs(a).tobytes()
    assert not np.signbit(got[12_345]) and got[12_345] == 0.0
    assert np.isnan(got).any() and np.isinf(got).any()


@pytest.mark.parametrize("extra", [0, 1])
def test_max_abs_at_the_block_boundary(extra):
    # one whole block, and one block and a single sample
    import hesslab.geomcore as gc

    m = gc._MAX_ABS_ROWS + extra
    rng = np.random.default_rng(extra)
    a = rng.normal(size=(m, 3, 3))
    a[-1] = [[-0.0, np.nan, 1.0], [np.inf, 2.0, -0.0], [0.0, 0.0, 0.0]]
    a[-2] = -0.0
    assert max_abs(a).tobytes() == _two_sided_max_abs(a).tobytes()


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
# nabla g and L_xi g: one contraction and its transpose
# ---------------------------------------------------------------------------

class _Given:
    """A field whose jet at every point set is the given value and gradient."""

    flat = False

    def __init__(self, value, grad=None):
        self.jet = types.SimpleNamespace(value=value, grad=grad)

    def eval(self, pts, order=0):
        return self.jet


@pytest.mark.parametrize("layout", ["sample-first", "C"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_symmetric_terms_are_the_two_contractions_bit_for_bit(d, layout):
    # nabla g and L_xi g take their second g term as the transpose of the
    # first; on a bitwise symmetric g that is what contracting it gives
    rng = np.random.default_rng(d)
    for m in (1, 7, 200):
        def given(*shape, symmetric=False):
            arr = rng.standard_normal((m,) + shape)
            if symmetric:
                arr = arr + arr.swapaxes(1, 2)
            if layout == "C":
                return np.ascontiguousarray(arr)
            return samples_first(np.ascontiguousarray(np.moveaxis(arr, 0, -1)))

        g = _Given(given(d, d, symmetric=True), given(d, d, d, symmetric=True))
        gamma, xi = given(d, d, d), _Given(given(d), given(d, d))
        value, grad = g.jet.value, g.jet.grad
        want = np.copy(grad.transpose(0, 3, 1, 2))
        want -= np.einsum("alij,alk->aijk", gamma, value)
        want -= np.einsum("alik,ajl->aijk", gamma, value)
        got = covariant_derivative_metric_batch(_Given(gamma), g, None)
        assert got.tobytes() == want.tobytes()
        want = np.einsum("ak,aijk->aij", xi.jet.value, grad)
        want += np.einsum("akj,aki->aij", value, xi.jet.grad)
        want += np.einsum("aik,akj->aij", value, xi.jet.grad)
        assert lie_derivative_metric_batch(xi, g, None).tobytes() == want.tobytes()


def test_every_bundled_metric_is_bitwise_symmetric(monkeypatch):
    # the invariant the single contractions above rest on: a metric's (i, j)
    # and (j, i) entries are one node, so their jets are the same bits
    import hesslab.geomcore as gc
    from hesslab.scenes import EXAMPLES, run_example

    metrics = {}
    real = gc._eval_entries

    def record(field, pts, order, *args, **kwargs):
        if isinstance(field, MetricField):
            metrics.setdefault(id(field), (field, pts))
        return real(field, pts, order, *args, **kwargs)

    monkeypatch.setattr(gc, "_eval_entries", record)
    for name in EXAMPLES:
        run_example(name, SamplePlan(count=200, seed=5))
    monkeypatch.undo()
    assert len(metrics) >= 10
    assert {field.chart.dim for field, _ in metrics.values()} >= {2, 3}
    for field, pts in metrics.values():
        jet = gc._eval_entries(field, pts, 1)
        for part in (jet.value, jet.grad):
            assert part.tobytes() == part.swapaxes(1, 2).tobytes()
    drop_held_points()


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
    assert np.allclose(curvature_tensor(flat_connection(chart), np.array([(0.5, 0.5)]))[0], 0.0)


def test_curvature_halfplane_is_minus_one():
    chart = conftest.halfplane_chart()
    g = conftest.halfplane_metric(chart)
    lc = levi_civita(g)
    pts = chart.sample(PLAN)
    r = curvature_tensor(lc, pts)
    model = _constant_curvature_model(g.eval(pts, 0).value, -1.0)
    assert np.max(np.abs(r - model)) / (1 + np.max(np.abs(model))) < 1e-10


def test_curvature_sphere_is_plus_one():
    chart = conftest.sphere_chart()
    g = conftest.sphere_metric(chart)
    lc = levi_civita(g)
    pts = chart.sample(PLAN)
    r = curvature_tensor(lc, pts)
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
    d = tj.grad.transpose(0, 2, 1) - tj.grad.transpose(0, 2, 1).transpose(0, 2, 1)
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


def _symmetry_by_permutations(t):
    """The permutation rule: max |t - t o s| over S_3 but the identity."""
    scale = 1.0 + max_abs(t)
    worst = np.zeros(t.shape[0])
    for perm in itertools.permutations((1, 2, 3)):
        if perm != (1, 2, 3):
            worst = np.maximum(worst, max_abs(t - np.transpose(t, (0,) + perm)))
    return worst / scale


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_total_symmetry_matches_the_permutation_rule(d):
    # the same value bit for bit, NaN exactly where the rule gives NaN (only
    # a NaN's sign bit may differ); the (i, i, i) entries keep a lone inf
    # from reading 0 against an inf scale
    rng = np.random.default_rng(d)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308])
    with np.errstate(all="ignore"):
        for trial in range(60):
            t = rng.normal(size=(40, d, d, d))
            if trial % 3 == 0:  # symmetrized: differences at rounding level
                t = sum(np.transpose(t, (0,) + p) for p in itertools.permutations((1, 2, 3)))
            salt = rng.random(t.shape) < 0.03 * (trial % 4)
            t[salt] = rng.choice(specials, size=int(salt.sum()))
            t[0] = 0.0
            t[0, 0, 0, 0] = np.inf
            t[1] = -0.0
            want = _symmetry_by_permutations(t)
            got = total_symmetry_residual_batch(t)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
    assert np.isnan(got[0])


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


def _symmetry_by_orbit_pairs(t):
    """The pairwise fold the orbit extremes replaced: |t[a] - t[b]| for
    every pair of distinct triples in one S_3-orbit, and (a, a) for a lone
    triple (i, i, i), folded one (m,) row at a time."""
    pairs = []
    for rep in itertools.combinations_with_replacement(range(t.shape[1]), 3):
        orbit = sorted(set(itertools.permutations(rep)))
        pairs += itertools.combinations(orbit, 2) if len(orbit) > 1 else [(rep, rep)]
    worst = np.zeros(t.shape[0])
    diff = np.empty_like(worst)
    for a, b in pairs:
        np.abs(np.subtract(t[(slice(None),) + a], t[(slice(None),) + b], out=diff), out=diff)
        np.maximum(worst, diff, out=worst)
    return worst / (1.0 + max_abs(t))


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])


def _symmetrized(arr, count, axes):
    """``arr`` with its first ``count`` samples made symmetric in ``axes``."""
    head = arr[:count]
    arr[:count] = head + np.swapaxes(head, *axes)
    return arr


def _spoiled(rng, shape):
    """A random sample-first array of mixed magnitudes, with NaN, +-inf and
    signed zeros at random entries and three samples of signed zeros only."""
    arr = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, shape)
    pick = rng.random(shape) < 0.01
    arr[pick] = rng.choice(SPECIALS, size=int(pick.sum()))
    m = shape[0]
    arr[m // 2 : m // 2 + 3] = rng.choice([-0.0, 0.0], size=(3,) + shape[1:])
    return samples_first(np.ascontiguousarray(np.moveaxis(arr, 0, -1)))


class _GivenConnection(ConnectionField):
    """A (curved) connection whose order-1 tensor is given."""

    def __init__(self, value, d1):
        m, d = value.shape[:2]
        super().__init__(Chart(d, ((0.0, 1.0),) * d), np.full((d, d, d), "x0", dtype=object))
        buf = np.empty((d, d, d, 1 + d, m))  # each entry's value row, then its d1 rows
        buf[..., 0, :] = np.moveaxis(value, 0, -1)
        buf[..., 1:, :] = np.moveaxis(d1, 0, -1)
        self.tensor = Jet(1, 1, d, buf)

    def eval(self, pts, order=0):
        return self.tensor.prefix(order)


def _same_bits_or_nan(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_folded_residuals_match_the_whole_tensor_formulas(d):
    # flatness against max|R| of the curvature tensor, torsion against
    # max|Gamma - Gamma^T|, symmetry against the pairwise fold; each bit for
    # bit, with NaN at the same samples, on random connections with NaN,
    # +-inf (so inf - inf) and signed zeros injected
    rng = np.random.default_rng(d)
    m = 200
    with np.errstate(all="ignore"):
        for trial in range(6):
            # a quarter of the samples torsion-free, and with trial % 2 flat
            # too: zero Gamma, d_i Gamma^l_{jk} symmetric in i and j
            value = _symmetrized(_spoiled(rng, (m, d, d, d)), m // 4, (2, 3))
            d1 = _spoiled(rng, (m, d, d, d, d))
            if trial % 2:
                value[: m // 4] = 0.0
                _symmetrized(d1, m // 4, (2, 4))
            conn = _GivenConnection(value, d1)
            pts = np.zeros((m, d))
            assert not conn.flat
            _same_bits_or_nan(flatness_residual(conn, pts),
                              rel_residual(curvature_tensor(conn, pts), value))
            _same_bits_or_nan(torsion_residual(conn, pts),
                              rel_residual(value - value.transpose(0, 1, 3, 2), value))
            t = _spoiled(rng, (m, d, d, d))  # a quarter totally symmetric
            t[: m // 4] = sum(np.transpose(t[: m // 4], (0,) + p)
                              for p in itertools.permutations((1, 2, 3)))
            _same_bits_or_nan(total_symmetry_residual_batch(t), _symmetry_by_orbit_pairs(t))
        assert np.isnan(flatness_residual(conn, pts)).any()


def test_folded_residuals_of_a_flat_connection_are_zero_unevaluated(monkeypatch):
    import hesslab.geomcore as gc

    def refuse(*args):
        raise AssertionError("a flat connection was evaluated")

    monkeypatch.setattr(gc, "_eval_entries", refuse)
    conn = flat_connection(Chart(3, ((0.0, 1.0),) * 3))
    pts = np.full((7, 3), 0.5)
    for residual in (torsion_residual, flatness_residual):
        got = residual(conn, pts)
        assert got.tobytes() == np.zeros(7).tobytes()


def _fold_scratch(measure, d, counts):
    """measure(lc, pts) on the dense dim-d sphere at each sample count, with
    Gamma held at order 0, as the fold's rule holds it above one block:
    (result, tracemalloc peak) per count."""
    import hesslab.geomcore as gc

    chart = Chart(d, ((-0.5, 0.5),) * d)
    out = []
    for m in counts:
        lc = levi_civita(MetricField(chart, _sphere_scene(d)["fields"]["g"]["entries"]))
        pts = chart.sample(SamplePlan(count=m, seed=4))
        try:
            assert gc._fold_step(lc, m, d) < m  # the fold spans more than one block
            lc.eval(pts, 0)
            tracemalloc.start()
            try:
                got = measure(lc, pts)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            out.append((got, peak))
            assert gc._held.get((lc,), pts).order == 0  # Gamma's order 1 was never held whole
        finally:
            drop_held_points()
    return out


def test_flatness_scratch_is_one_curvature_slice():
    # Gamma held at order 0: the flatness term folds one slice of one row
    # block of Gamma's order-1 jets at a time, so its scratch is one block
    # (under the fold's budget) and a few (m,) rows, at 20 000 and at 40 000
    # samples alike
    import hesslab.geomcore as gc

    d = 3
    (a, peak_a), (b, peak_b) = _fold_scratch(flatness_residual, d, (20_000, 40_000))
    for got, m in ((a, 20_000), (b, 40_000)):
        chart = Chart(d, ((-0.5, 0.5),) * d)
        lc = levi_civita(MetricField(chart, _sphere_scene(d)["fields"]["g"]["entries"]))
        pts = chart.sample(SamplePlan(count=m, seed=4)).copy()
        want = rel_residual(curvature_tensor(lc, pts), lc.eval(pts, 0).value)
        assert got.tobytes() == want.tobytes()
    assert max(peak_a, peak_b) <= gc._SCRATCH_BUDGET + 3 * 40_000 * 8
    assert abs(peak_b - peak_a) <= 3 * 20_000 * 8


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
    1e-300, 1e-150, 1e-130, 1e150 or 1e300, maybe skewed and maybe with a
    non-finite or -0.0 entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spd", "indefinite", "above", "below", "at"]))
    lam = rng.uniform(0.1, 10.0, dim)
    if kind == "indefinite":
        lam[rng.integers(dim)] = -rng.uniform(1e-12, 10.0)
    elif kind != "spd":
        lam[0] = PD_FLOOR * {"above": 1.0 + 1e-6, "below": 1.0 - 1e-6, "at": 1.0}[kind]
    lam *= draw(st.sampled_from([1.0, 1e-300, 1e-150, 1e-130, 1e150, 1e300]))
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


def _counting_open_rows(monkeypatch):
    """Patch geomcore.eigenvalue_definiteness, which `definiteness` sends the
    samples its certificate leaves open, to record the rows of each call."""
    import hesslab.geomcore as gc

    rows = []
    real = gc.eigenvalue_definiteness

    def counted(mats):
        rows.append(len(mats))
        return real(mats)

    monkeypatch.setattr(gc, "eigenvalue_definiteness", counted)
    return rows


def test_a_certified_batch_computes_no_eigenvalue(monkeypatch):
    rows = _counting_open_rows(monkeypatch)
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
    rows = _counting_open_rows(monkeypatch)
    gap, rest, smallest = definiteness(mats)
    assert rows == [40]
    assert rest.tolist() == bad.tolist()
    assert gap.tobytes() == want.tobytes()
    assert smallest.tobytes() == want_smallest[bad].tobytes()
    assert (gap[bad[:5]] == 0.0).all() and (gap[bad[5:]] >= 1.0).all()


def test_a_wide_pass_computes_eigenvalues_once(monkeypatch):
    # hopf and sphere_cone at 20 000 samples: every metric gate is certified;
    # only the Koszul check of an indefinite nabla theta (expected to fail)
    # reads eigenvalues, and its mean residual needs every one of them. They
    # are 2 x 2, so none of them reaches eigvalsh
    from hesslab.scenes import load_example, run_suite

    rows = _counting_open_rows(monkeypatch)
    lapack_rows = _counting_eigvalsh(monkeypatch)
    plan = SamplePlan(count=20_000, seed=11)
    reports = [run_suite(load_example(name), plan) for name in ("hopf", "sphere_cone")]
    assert all(report.all_ok for report in reports)
    assert rows == [20_000]
    assert lapack_rows == []


def _two_by_two_matrices(rng, n=8_000):
    """About 10^5 symmetric 2 x 2 matrices [[a, b], [b, c]], in groups of n:
    each branch of LAPACK's 2 x 2 eigenvalue path (see
    `geomcore._smallest_2x2`), the edges of the window it runs unscaled in,
    and matrices outside it. Returns the matrices and the rows of the groups
    that lie outside (largest |entry| 1e-130, 1e-300, 1e300, 0)."""
    def normal(scale=1.0):
        return tuple(rng.standard_normal(n) * scale for _ in range(3))

    groups = [normal(10.0 ** rng.uniform(-120, 145, n))]  # QL and QR
    a, b, c = normal()
    groups.append((a, b * 10.0 ** rng.uniform(-20, -15, n), c))  # e splits off
    # |b| a few ulps either side of the split test's bound: split or deflated
    a, b, c = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-3, 3, (3, n))
    b = np.sqrt(np.abs(a)) * np.sqrt(np.abs(c)) * 2.0**-53
    for step in range(3):
        k = rng.integers(-3, 4, n)
        b = np.where(k > step, np.nextafter(b, np.inf), np.where(k < -step, np.nextafter(b, 0), b))
    groups.append((a, b * rng.choice([-1.0, 1.0], n), c))
    a, b, _ = normal()
    groups += [(a, b, -a), (a, b, a)]  # sm = 0; |a| = |c|
    # adf = ab: |a - c| = |2b| on dyadic entries
    a, b = rng.integers(-8, 9, (2, n)) / 4.0
    groups.append((a, b, a - 2.0 * b * rng.choice([-1.0, 1.0], n)))
    # small integers and signed zeros
    a, b, c = rng.integers(-2, 3, (3, n)).astype(float)
    a, b, c = (np.where(rng.random(n) < 0.4, -0.0 * x, x) for x in (a, b, c))
    groups.append((a, b, c))
    # smallest eigenvalue at and across PD_FLOOR, rotated
    lam = PD_FLOOR * rng.choice([1.0 - 1e-6, 1.0, 1.0 + 1e-6], n)
    big = rng.uniform(0.1, 10.0, n)
    t = rng.uniform(0.0, np.pi, n)
    cs, sn = np.cos(t), np.sin(t)
    groups.append((lam * cs * cs + big * sn * sn, (lam - big) * cs * sn, lam * sn * sn + big * cs * cs))
    # largest |entry| exactly at either edge of the window, and one float out
    a, b, c = normal()
    top = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    edge = rng.choice([2.0**-405, 2.0**485, np.nextafter(2.0**-405, 0), np.nextafter(2.0**485, np.inf)], n)
    groups.append((a / top * edge, b / top * edge, c / top * edge))
    outside = len(groups) * n
    for scale in (1e-130, 1e-300, 1e300):
        groups.append(normal(scale))
    groups.append(tuple(rng.choice([0.0, -0.0], n) for _ in range(3)))
    a, b, c = (np.concatenate(x) for x in zip(*groups))
    sym = np.moveaxis(np.array([[a, b], [b, c]]), -1, 0)
    return sym, np.arange(outside, len(a))


def test_the_2x2_eigenvalues_are_eigvalsh_bit_for_bit(monkeypatch):
    # the 2 x 2 samples inside LAPACK's unscaled window take a numpy copy of
    # its path; every branch of it is taken below, and every other sample
    # goes to the one eigvalsh call
    sym, outside = _two_by_two_matrices(np.random.default_rng(36))
    a, b, c = sym[:, 0, 0], sym[:, 1, 0], sym[:, 1, 1]
    scale = max_abs(sym)
    window = (scale >= 2.0**-405) & (scale <= 2.0**485)
    with np.errstate(all="ignore"):
        split = np.abs(b) <= np.sqrt(np.abs(a)) * np.sqrt(np.abs(c)) * 2.0**-53
        deflated = ~split & (b * b <= 2.0**-106 * np.abs(a * c))
    solved = window & ~split & ~deflated
    branches = {
        "split": window & split,
        "deflated": window & deflated,
        "QL": solved & ~(np.abs(c) < np.abs(a)),
        "QR": solved & (np.abs(c) < np.abs(a)),
        "sm = 0": solved & (a + c == 0.0),
        "adf = ab": solved & (np.abs(a - c) == np.abs(b + b)),
        "signed zero": window & (np.signbit(sym) & (sym == 0.0)).any(axis=(1, 2)),
        "lowest edge": scale == 2.0**-405,
        "highest edge": scale == 2.0**485,
        "below the window": scale == np.nextafter(2.0**-405, 0),
        "above the window": scale == np.nextafter(2.0**485, np.inf),
        "zero matrix": scale == 0.0,
    }
    assert all(rows.sum() >= 20 for rows in branches.values()), {
        name: rows.sum() for name, rows in branches.items()}
    assert not window[outside].any()
    want = np.linalg.eigvalsh(sym)[:, 0]
    sent = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda mats: sent.append(mats) or eigvalsh(mats))
    smallest, gap = eigenvalue_definiteness(sym)
    assert smallest.tobytes() == want.tobytes()
    assert gap.tobytes() == np.where(positive_definite(want), 0.0,
                                     np.maximum(1.0, PD_FLOOR - want)).tobytes()
    (lapack,) = sent
    assert lapack.tobytes() == sym[~window].tobytes()


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


def test_sample_check_marks_faulty_samples_inf():
    chart = Chart(1, ((-1.0, 1.0),))
    field = ScalarField(chart, "log(x0)")
    plan = SamplePlan(count=50, seed=3)

    def residual(pts):
        value = field.eval(pts, 0).value
        return {"log": np.abs(value), "square": pts[:, 0] ** 2}

    rep = sample_check(residual, chart, plan, 1e-6, name="log")
    x = chart.sample(plan)[:, 0]
    bad = x <= 0.0
    first = int(np.argmax(bad))
    assert not rep.passed and rep.max_residual == np.inf
    assert rep.notes == (f"{bad.sum()} of 50 samples hit domain errors: "
                         f"log of non-positive value (min {x[first]:g})",)
    # the term that reads the field is inf; the other keeps its own worst
    assert rep.extra == {"log": np.inf, "square": float(np.max(x**2))}
    assert rep.mean_residual == np.inf


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------

def test_line_integral_matches_potential():
    # theta = d(x0^2 * x1): integral from base to p is the potential difference
    theta = [parse_expression("2*x0*x1", 2), parse_expression("x0*x0", 2)]
    base = (0.5, 0.5)
    gauge = LineIntegralGauge(OneFormField(Chart(2, ((0.0, 2.0),) * 2), theta), base)
    pts = np.array([[1.0, 1.0], [0.7, 1.3], [1.5, 0.6]])
    want = pts[:, 0] ** 2 * pts[:, 1] - 0.25 * 0.5
    got = gauge.jet(pts, 0).value
    assert got == pytest.approx(want, rel=1e-12)


def test_gauge_value_of_a_row_does_not_depend_on_the_rows_beside_it():
    # the quadrature terms of each row are added node by node at every row
    # count: a pass over one row gives the bits of the same row in a pass
    # over many (a pairwise sum of one row's terms would not)
    form = OneFormField(Chart(2, ((0.5, 2.0),) * 2), ["x1*exp(x0)", "x0 + 2*x1"])
    gauge = LineIntegralGauge(form, (1.0, 1.0))
    pts = np.random.default_rng(0).uniform(0.5, 2.0, (50, 2))
    many = gauge.jet(pts, 1)
    for order in (0, 1):
        ones = [gauge.jet(pts[i:i + 1], order).value for i in range(len(pts))]
        assert np.concatenate(ones).tobytes() == many.value.tobytes()


def test_a_gauge_plans_its_form_once(monkeypatch):
    # the quadrature pass and the derivative rows both run the form's own
    # plan, built on the first jet and reused at every order
    import hesslab.jets as jet_module

    real, planned = jet_module._plan, []

    def plan(trees):
        planned.append(trees)
        return real(trees)

    monkeypatch.setattr(jet_module, "_plan", plan)
    form = OneFormField(Chart(2, ((0.5, 2.0),) * 2), ["x1*exp(x0)", "x0 + 2*x1"])
    gauge = LineIntegralGauge(form, (1.0, 1.0))
    pts = np.random.default_rng(1).uniform(0.5, 2.0, (30, 2))
    for order in (0, 1, 2, 1):
        gauge.jet(pts, order)
    assert len(planned) == 1


_COLD_START = """
import sys
import numpy
preloaded = "numpy.polynomial" in sys.modules  # numpy 1.x imports it itself
import hesslab
from hesslab import cli
assert cli.main(["example", "hopf", "--samples", "20"]) == 0
assert ("numpy.polynomial" in sys.modules) == preloaded, "loaded before any gauge"
from hesslab.geomcore import Chart, LineIntegralGauge, OneFormField
form = OneFormField(Chart(1, ((0.0, 3.0),)), ["1"])
assert LineIntegralGauge(form, (0.0,)).jet(numpy.array([[2.0]]), 0).value[0] == 2.0
assert "numpy.polynomial" in sys.modules
"""


def test_gauss_legendre_table_is_built_on_first_use():
    import os
    import subprocess
    import sys

    import hesslab

    src = str(pathlib.Path(hesslab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_gauge_detects_path_dependence():
    # x1 dx0 is not closed, so its line integral depends on the path; the
    # closedness residual is what `lch.metric_from_lee` and the openness
    # probe reject it by
    chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
    pts = chart.sample(PLAN)
    bad = OneFormField(chart, ["x1", "0"])
    assert np.min(closedness_residual(bad, pts)) > 0.1
    good = OneFormField(chart, ["2*x0*x1", "x0*x0"])
    assert np.max(closedness_residual(good, pts)) < 1e-12
    gauge = LineIntegralGauge(good, (0.2, 0.2))
    assert gauge.jet(pts, 0).value == pytest.approx(pts[:, 0] ** 2 * pts[:, 1] - 0.2**3, rel=1e-12)


def test_gauged_entry_jets_match_explicit_factor():
    # exp(-f) * x0 with f = x0^2 x1 - const should match the explicit tree
    chart = Chart(2, ((0.3, 1.2), (0.3, 1.2)))
    theta = OneFormField(chart, ["2*x0*x1", "x0*x0"])
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
    """Record, for each `_eval_entries` call outside a gauge's jet (which
    reads its form through one), the gauges whose jet it took."""
    import hesslab.geomcore as gc

    calls: list[list] = []
    inside = []
    real_eval, real_jet = gc._eval_entries, LineIntegralGauge.jet

    def eval_entries(entries, pts, order):
        if not inside:
            calls.append([])
        return real_eval(entries, pts, order)

    def jet(self, pts, order):
        calls[-1].append(self)
        inside.append(self)
        try:
            return real_jet(self, pts, order)
        finally:
            inside.pop()

    monkeypatch.setattr(gc, "_eval_entries", eval_entries)
    monkeypatch.setattr(LineIntegralGauge, "jet", jet)
    return calls


def test_field_evaluation_takes_each_gauge_jet_once(monkeypatch):
    chart = Chart(2, ((0.3, 1.2), (0.3, 1.2)))
    gauge = LineIntegralGauge(OneFormField(chart, ["2*x0*x1", "x0*x0"]), (0.5, 0.5))
    inner = [[parse_expression(src, 2) for src in row] for row in (("x0", "x1"), ("x0*x1", "1"))]
    entries = [[gauged(gauge, -2.0, inner[i][j]) for j in range(2)] for i in range(2)]
    field = ConnectionField(chart, [entries, entries])
    pts = chart.sample(SamplePlan(count=20, seed=3))
    calls = _count_gauge_jets(monkeypatch)
    got = field.eval(pts, 2)
    assert calls == [[gauge]]
    monkeypatch.undo()
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want = evaluate(entries[i][j], pts, 2)
                assert np.array_equal(got.value[:, k, i, j], want.value)
                assert np.array_equal(got.hess[:, k, i, j], want.hess)


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

_sphere_scene = conftest.dense_sphere_scene


def test_run_suite_evaluates_each_field_once_per_point_set(monkeypatch):
    # statistical evaluates D and g at order 1, curvature and the hessian
    # gate read both as prefixes, and the hessian gate never evaluates the
    # flat connection, whose torsion and flatness are 0: 2 tensor
    # evaluations per scene where each gate evaluating its own fields took 9.
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
    assert len(calls) == 4


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


def test_a_dropped_scene_leaves_no_parsed_tree():
    import gc

    from hesslab.scenes import run_suite, scene_from_dict

    gc.collect()
    before = len(ex._PARSED)
    scene = scene_from_dict(_sphere_scene(3))
    assert run_suite(scene, SamplePlan(count=20, seed=1)).all_ok
    assert len(ex._PARSED) > before
    del scene
    gc.collect()
    assert len(ex._PARSED) == before


def test_a_dense_load_parses_each_distinct_entry_once(monkeypatch):
    from hesslab.scenes import scene_from_dict

    data = _sphere_scene(3)
    entries = [e for row in data["fields"]["g"]["entries"] for e in row]
    assert len(entries) == 9 and len(set(entries)) == 6  # g_ij = g_ji
    parsed = []

    class CountingParser(ex._Parser):
        def __init__(self, src, dim):
            parsed.append((src, dim))
            super().__init__(src, dim)

    monkeypatch.setattr(ex, "_Parser", CountingParser)
    monkeypatch.setattr(ex, "_PARSED", weakref.WeakValueDictionary())  # no earlier load's trees
    g = scene_from_dict(data).fields["g"]
    assert sorted(parsed) == sorted({(e, 3) for e in entries})
    assert g.entries[0, 1] is g.entries[1, 0]


def test_a_parse_is_memoized_per_text_and_dimension():
    assert parse_expression("x0 * s", 2) is parse_expression("x0 * s", 2)
    assert parse_expression("x0 * s", 2) == ex.Mul(ex.Var(0), ex.Var(1))
    assert parse_expression("x0 * s", 3) == ex.Mul(ex.Var(0), ex.Var(2))
    for _ in range(2):  # a failed parse is not remembered
        with pytest.raises(ex.VariableRangeError):
            parse_expression("x0 * x2", 2)


@pytest.mark.parametrize("dim", [2, 3])
def test_curvature_matches_the_closed_formula_bit_for_bit(dim):
    # the curvature fold forms the slice R^l_{ijk} of each pair i < j as
    # Gamma^l_{iu} Gamma^u_{jk} - Gamma^l_{ju} Gamma^u_{ik} + d_i Gamma^l_{jk}
    # - d_j Gamma^l_{ik}, in this order, plus 0 times the sum of the rows
    # d_i Gamma^l_{ik}, and the rest of R as R^l_{jik} = -R^l_{ijk} and
    # R^l_{iik} = 0; written out here, the same formula must round exactly
    # as the kernel does
    chart = Chart(dim, ((-0.5, 0.5),) * dim)
    lc = levi_civita(MetricField(chart, _sphere_scene(dim)["fields"]["g"]["entries"]))
    pts = chart.sample(SamplePlan(count=40, seed=9))
    cj = lc.eval(pts.copy(), 1)
    term1 = cj.grad.transpose(0, 1, 4, 2, 3)  # (m, l, i, j, k) = d_i Gamma^l_{jk}
    guard = 0.0 * np.sum(np.diagonal(term1, axis1=2, axis2=3), axis=(1, 2, 3))
    want = np.zeros_like(term1)
    for i, j in itertools.combinations(range(dim), 2):
        gi, gj = cj.value[:, :, i], cj.value[:, :, j]
        r = np.einsum("alu,auk->alk", gi, gj) - np.einsum("alu,auk->alk", gj, gi)
        r = r + term1[:, :, i, j] - term1[:, :, j, i] + guard[:, None, None]
        want[:, :, i, j], want[:, :, j, i] = r, -r
    got = curvature_tensor(lc, pts)
    assert got.tobytes() == want.tobytes()
    # the whole-tensor einsum formula sums in another order: equal to rounding
    quad = np.einsum("aliu,aujk->alijk", cj.value, cj.value)
    old = term1 - term1.transpose(0, 1, 3, 2, 4) + quad - quad.transpose(0, 1, 3, 2, 4)
    assert np.max(np.abs(got - old)) <= 1e-13 * np.max(np.abs(old))


def test_curvature_scratch_is_one_slice():
    # Gamma held at order 0: besides its output, the whole curvature takes
    # one row block of Gamma's order-1 jets and one slice at a time, the
    # same scratch at 20 000 and 40 000 samples
    import hesslab.geomcore as gc

    (a, peak_a), (b, peak_b) = _fold_scratch(curvature_tensor, 3, (20_000, 40_000))
    extra_a, extra_b = peak_a - a.nbytes, peak_b - b.nbytes
    assert max(extra_a, extra_b) <= gc._SCRATCH_BUDGET
    assert abs(extra_b - extra_a) <= 20_000 * 8


def test_lower_order_is_a_bit_identical_prefix():
    chart = Chart(3, ((-0.5, 0.5),) * 3)
    g = MetricField(chart, _sphere_scene(3)["fields"]["g"]["entries"])
    pts = chart.sample(SamplePlan(count=30, seed=8))
    assert chart.sample(SamplePlan(count=30, seed=8)) is pts
    high = g.eval(pts, 1)
    low = g.eval(pts, 0)
    assert low.grad is None and np.shares_memory(low.buf, high.buf)
    fresh = g.eval(pts.copy(), 0)  # another array: evaluated, not held
    assert fresh.buf.flags.writeable and not fresh.value.flags.writeable
    assert fresh.value.tobytes() == low.value.tobytes()


def test_held_arrays_are_read_only():
    chart = Chart(2, ((0.5, 1.5),) * 2)
    g = MetricField(chart, [["1/x0", "0"], ["0", "1/x1"]])
    pts = chart.sample(SamplePlan(count=10, seed=2))
    held = g.eval(pts, 1)
    with pytest.raises(ValueError):
        held.value[0, 0, 0] += 1.0
    with pytest.raises(ValueError):
        held.grad[...] = 0.0
    with pytest.raises(ValueError):
        held.buf[...] = 0.0
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    assert g.eval(pts, 1).value.tobytes() == g.eval(pts.copy(), 1).value.tobytes()


def test_sampling_another_point_set_drops_held_tensors():
    chart = Chart(2, ((0.5, 1.5),) * 2)
    g = MetricField(chart, [["1/x0", "0"], ["0", "1/x1"]])
    pts = chart.sample(SamplePlan(count=10, seed=2))
    buf = weakref.ref(g.eval(pts, 1).buf)
    points = weakref.ref(pts)
    del pts
    assert buf() is not None and points() is not None
    other = chart.sample(SamplePlan(count=10, seed=3))
    assert buf() is None and points() is None
    assert g.eval(other, 1).buf.tobytes() == g.eval(other.copy(), 1).buf.tobytes()


def test_a_faulty_tensor_raises_on_every_read_outside_a_check():
    import hesslab.geomcore as gc

    chart = Chart(1, ((-1.0, 1.0),))
    bad = ScalarField(chart, "log(x0)")
    good = ScalarField(chart, "x0*x0")
    pts = chart.sample(SamplePlan(count=20, seed=6))
    for _ in range(2):
        with pytest.raises(DomainError, match="log of non-positive value"):
            bad.eval(pts, 1)
    assert np.array_equal(good.eval(pts, 0).value, pts[:, 0] * pts[:, 0])
    # it is held with its fault, and a check records the fault instead
    held = gc._held.get((bad,), pts)
    assert np.array_equal(held.fault.rows, pts[:, 0] <= 0.0)
    assert np.isnan(held.value[held.fault.rows]).all()
    tensor, fault = gc._recorded(lambda: bad.eval(pts, 0))
    assert np.shares_memory(tensor.buf, held.buf) and fault is held.fault


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
    # each call after a raise computes again, and a compute that returns is
    # then held under the same key
    chart = Chart(1, ((-1.0, 1.0),))
    field = ScalarField(chart, "x0")
    pts = chart.sample(SamplePlan(count=20, seed=6))
    calls = []

    def value():
        calls.append(1)
        raise ZeroDivisionError("no value")

    for n in (1, 2):
        with pytest.raises(ZeroDivisionError):
            held_result(("value", field), pts, value)
        assert len(calls) == n
    kept = held_result(("value", field), pts, lambda: calls.append(1) or pts[:, 0])
    assert held_result(("value", field), pts, value) is kept and len(calls) == 3


def test_a_result_with_a_domain_error_is_held_with_its_fault():
    # computed once: every later read raises its error outside a check, and
    # inside one hands the fault to the check
    import hesslab.geomcore as gc

    chart = Chart(1, ((-1.0, 1.0),))
    bad = ScalarField(chart, "log(x0)")
    pts = chart.sample(SamplePlan(count=20, seed=6))
    calls = []

    def value():
        calls.append(1)
        return bad.eval(pts, 0).value

    for _ in range(2):
        with pytest.raises(DomainError, match="log of non-positive value"):
            held_result(("value", bad), pts, value)
    assert len(calls) == 1
    kept, fault = gc._recorded(lambda: held_result(("value", bad), pts, value))
    assert np.array_equal(fault.rows, pts[:, 0] <= 0.0) and np.isnan(kept[fault.rows]).all()
    assert len(calls) == 1 and not kept.flags.writeable


def test_a_held_tensor_dies_with_its_field():
    import gc

    chart = Chart(2, ((0.5, 1.5),) * 2)
    g = MetricField(chart, [["1/x0", "0"], ["0", "1/x1"]])
    pts = chart.sample(SamplePlan(count=10, seed=2))
    buf = weakref.ref(g.eval(pts, 1).buf)
    assert buf() is not None  # held while g lives
    del g
    gc.collect()
    assert buf() is None


def test_a_held_result_keeps_neither_its_field_nor_itself_alive():
    import gc

    chart = Chart(1, ((0.5, 1.5),))
    theta = OneFormField(chart, ["x0"])
    pts = chart.sample(SamplePlan(count=10, seed=2))
    kept = held_result(("double", theta, None), pts, lambda: pts[:, 0] * 2.0)
    assert held_result(("double", theta, None), pts, lambda: None) is kept
    field, kept = weakref.ref(theta), weakref.ref(kept)
    del theta
    gc.collect()
    assert field() is None and kept() is None


def test_a_dead_fields_result_is_not_returned_for_a_new_field():
    # CPython gives a field made right after another died the dead one's
    # memory, so the same id(): the result died with the old field, and the
    # new one computes its own
    chart = Chart(1, ((0.5, 1.5),))
    pts = chart.sample(SamplePlan(count=10, seed=2))
    calls = []
    reused = 0
    for k in range(10):
        old = ScalarField(chart, "x0")
        address = id(old)
        held_result(("value", old), pts, lambda: calls.append(1) or pts[:, 0] * k)
        del old
        new = ScalarField(chart, "x0")
        reused += id(new) == address
        got = held_result(("value", new), pts, lambda: calls.append(1) or pts[:, 0] * -1.0)
        assert len(calls) == 2 * (k + 1)
        assert got.tobytes() == (pts[:, 0] * -1.0).tobytes()
        del new
    assert reused


# ---------------------------------------------------------------------------
# field tensors written from the jet pass
# ---------------------------------------------------------------------------

def _field_cases():
    chart = Chart(3, ((0.5, 1.5),) * 3)
    sym = [["exp(x0*x1)", "x0*x2", "2"], ["x0*x2", "x1^2", "0"], ["2", "0", "sin(x2)/x0"]]
    gauge = LineIntegralGauge(OneFormField(chart, [ex.Var(1), ex.Var(0), ex.ONE]), np.full(3, 1.0))
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
    for order in range(3):
        got = field.eval(pts, order)
        jets = evaluate(list(field.entries.flat), pts, order)
        parts = (got.value, got.grad, got.hess)
        for k, name in enumerate(("value", "grad", "hess")):
            if k > order:
                assert parts[k] is None
                continue
            want = np.stack([getattr(j, name) for j in jets], axis=1)
            want = want.reshape((len(pts),) + field.entries.shape + want.shape[2:])
            assert parts[k].tobytes() == want.tobytes()
            assert parts[k].strides[0] == 8


def test_field_eval_rejects_an_order_out_of_range():
    # on unheld points the order used to raise a bare IndexError, and on
    # the held points an order of -1 read a prefix of the held tensor
    chart, fields = _field_cases()
    field = fields[0]
    held = chart.sample(SamplePlan(count=40, seed=2))
    try:
        field.eval(held, 2)
        for pts in (held.copy(), held):
            for order in (3, 4, -1):
                with pytest.raises(ValueError, match="order must be between 0 and 2"):
                    field.eval(pts, order)
    finally:
        drop_held_points()


def test_field_pass_drops_each_entry_jet_once_written():
    # 10 distinct order-2 entries: holding every root jet until the pass
    # ends would keep 10 of them beside the tensor; writing each root as it
    # finishes keeps a handful.
    dim, m = 4, 5000
    chart = Chart(dim, ((0.5, 1.5),) * dim)
    entries = [[f"exp(x{min(i, j)}*x{max(i, j)}) + x{min(i, j)}*x{max(i, j)}^2"
                for j in range(dim)] for i in range(dim)]
    g = MetricField(chart, entries)
    pts = np.random.default_rng(0).uniform(0.5, 1.5, (m, dim))
    g.eval(pts, 2)
    one_jet = m * 8 * (1 + dim + dim**2)
    tracemalloc.start()
    try:
        tensor = g.eval(pts, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = tensor.buf.nbytes
    assert peak - written < 8 * one_jet
