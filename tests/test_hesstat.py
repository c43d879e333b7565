"""Hessian/radiant/statistical checks and the cone correspondence."""

from __future__ import annotations

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import conftest
from conftest import curvature_tensor
from hesslab import expr as ex
from hesslab.geomcore import (
    Chart,
    ConnectionField,
    MetricField,
    OneFormField,
    SamplePlan,
    VectorFieldT,
    as_entry,
    covariant_hessian_trees,
    drop_held_points,
    euler_field,
    flat_connection,
    flatness_residual,
    levi_civita,
    rel_residual,
)
from hesslab.hesstat import (
    ConeConstructionError,
    ConeStructure,
    DegenerateLambdaError,
    StatisticalStructure,
    SurfaceConstraintError,
    TransversalityError,
    build_cone_structure,
    check_hessian_structure,
    check_potential_field,
    check_radiant,
    check_self_similar,
    check_statistical,
    dual_connection,
    duality_residual_batch,
    estimate_constant_curvature,
    level_set_statistical,
    potential_identity_residual,
    restrict_cone,
    structure_terms,
)
from hesslab.scenes import strict_json

PLAN = SamplePlan(count=80, seed=3)
LAMBDA_HALFPLANE = 1.0 + math.sqrt(2.0)


def halfplane_statistical():
    chart = conftest.halfplane_chart()
    g = conftest.halfplane_metric(chart)
    return StatisticalStructure(chart, levi_civita(g), g)


def sphere_statistical():
    g = conftest.sphere_metric()
    return StatisticalStructure(g.chart, levi_civita(g), g)


# ---------------------------------------------------------------------------
# covariant Hessians
# ---------------------------------------------------------------------------

def hessian_values(conn, phi, pts):
    """Hess phi at each sample, built by `covariant_hessian_trees` from the
    gradient trees of phi and evaluated as a metric field."""
    n = conn.chart.dim
    tree = as_entry(phi, n)
    hess = MetricField(conn.chart, covariant_hessian_trees(
        conn, [ex.diff(tree, a) for a in range(n)]))
    return hess.eval(pts, 0).value


def test_hessian_of_half_square_norm():
    chart = Chart(3, ((-1.0, 1.0),) * 3)
    out = hessian_values(flat_connection(chart), "(x0^2 + x1^2 + x2^2)/2",
                         np.array([(0.2, -0.4, 0.9)]))[0]
    assert np.allclose(out, np.eye(3))


def test_hessian_of_exponential_potential_at_origin():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    out = hessian_values(flat_connection(chart), "exp(x0) + exp(x1)", np.array([(0.0, 0.0)]))[0]
    assert np.allclose(out, np.eye(2))


def test_hessian_of_cone_potential_recovers_cone_metric():
    cone = build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE, plan=PLAN)
    phi = f"s^2 / {4.0 - 2.0 * LAMBDA_HALFPLANE!r}"
    p = (0.9, 0.2, 1.3)
    hess = hessian_values(cone.conn, phi, np.array([p]))[0]
    gval = cone.metric.eval(np.array([p]), 0).value[0]
    assert np.allclose(hess, gval, rtol=1e-10)


# ---------------------------------------------------------------------------
# check_hessian_structure
# ---------------------------------------------------------------------------

def test_gates_read_a_curved_connection_once_at_order_1(monkeypatch):
    # The hessian, statistical, l.c.H. and cone-flatness gates take gamma from
    # the order-1 tensor that the curvature fold reads, so each evaluates the
    # connection once; the l.c.H. gate reads g and theta at order 1 first.
    import hesslab.geomcore as gc
    from hesslab.lch import LCHStructure, check_lch

    orders: dict = {}
    real = gc._eval_entries

    def eval_entries(field, pts, order):
        orders.setdefault(field, []).append(order)
        return real(field, pts, order)

    monkeypatch.setattr(gc, "_eval_entries", eval_entries)
    sphere = sphere_statistical()
    check_hessian_structure(sphere.conn, sphere.metric, PLAN)
    assert orders.pop(sphere.conn) == [1]
    sphere = sphere_statistical()  # new fields: nothing held for them yet
    theta = OneFormField(sphere.chart, ["0", "0"])
    check_lch(LCHStructure(sphere.chart, sphere.conn, sphere.metric, theta), PLAN)
    assert orders.pop(sphere.conn) == [1]
    assert orders.pop(sphere.metric) == [1]
    assert orders.pop(theta) == [1]
    sphere = sphere_statistical()
    check_statistical(sphere, PLAN)
    assert orders[sphere.conn] == [1]
    estimate_constant_curvature(sphere, PLAN)  # curvature reads the same points
    assert orders.pop(sphere.conn) == [1]
    cone = build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE, plan=PLAN)
    assert orders[cone.conn] == [1]


def test_hessian_gate_flat_euclidean():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    rep = check_hessian_structure(flat_connection(chart), MetricField(chart, np.eye(chart.dim)), PLAN)
    assert rep.passed and rep.max_residual == 0.0


def test_hessian_gate_exponential_metric():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    g = MetricField(chart, [["exp(x0)", "0"], ["0", "exp(x1)"]])
    rep = check_hessian_structure(flat_connection(chart), g, PLAN)
    assert rep.passed


def test_hessian_gate_rejects_hopf_metric():
    chart, flat, g, _, _ = conftest.hopf_structure()
    rep = check_hessian_structure(flat, g, PLAN)
    assert not rep.passed
    assert rep.max_residual > 1e-2
    assert rep.extra["symmetry"] > 1e-2
    assert rep.extra["definiteness"] == 0.0  # the metric itself is fine


def test_hessian_gate_rejects_curved_connection():
    struct = halfplane_statistical()
    rep = check_hessian_structure(struct.conn, struct.metric, PLAN)
    assert not rep.passed and rep.extra["flatness"] > 1e-2
    assert rep.extra["torsion"] == 0.0


# ---------------------------------------------------------------------------
# check_radiant / check_self_similar / check_potential_field
# ---------------------------------------------------------------------------

def test_radiant_euler_field():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    rep = check_radiant(flat_connection(chart), euler_field(chart), PLAN)
    assert rep.passed and rep.extra["lambda"] == pytest.approx(1.0)


def test_radiant_scaled_euler():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    xi = VectorFieldT(chart, ["-2*x0", "-2*x1"])
    rep = check_radiant(flat_connection(chart), xi, PLAN)
    assert rep.passed and rep.extra["lambda"] == pytest.approx(-2.0)


def test_radiant_rejects_e67_field():
    chart, flat, _, _, xi = conftest.e67_structure()
    rep = check_radiant(flat, xi, PLAN)
    assert not rep.passed


def test_radiant_rejects_anisotropic_linear_field():
    # constant Jacobian diag(-2, 0): no single constant fits
    chart, flat, _, _, xi = conftest.poincare_structure()
    rep = check_radiant(flat, xi, PLAN)
    assert not rep.passed
    assert rep.extra["lambda"] == pytest.approx(-1.0)
    assert rep.max_residual == pytest.approx(0.5)


def test_self_similar_euler():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    rep = check_self_similar(MetricField(chart, np.eye(chart.dim)), euler_field(chart), PLAN)
    assert rep.passed and rep.max_residual < 1e-15


def test_self_similar_translation_fails():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    xi = VectorFieldT(chart, ["1", "0"])
    rep = check_self_similar(MetricField(chart, np.eye(chart.dim)), xi, PLAN)
    assert not rep.passed


def test_self_similar_on_cone():
    cone = build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE, plan=PLAN)
    rep = check_self_similar(cone.metric, cone.radial, PLAN)
    assert rep.passed


def test_potential_field_euler():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    rep = check_potential_field(MetricField(chart, np.eye(chart.dim)), euler_field(chart), PLAN)
    assert rep.passed
    assert rep.extra["eigenvalue_0"] == pytest.approx(1.0)
    assert rep.extra["eigenvalue_1"] == pytest.approx(1.0)


def test_potential_field_diagonal_weights():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    xi = VectorFieldT(chart, ["x0", "2*x1"])
    rep = check_potential_field(MetricField(chart, np.eye(chart.dim)), xi, PLAN)
    assert rep.passed
    assert rep.extra["eigenvalue_0"] == pytest.approx(1.0)
    assert rep.extra["eigenvalue_1"] == pytest.approx(2.0)


def test_potential_field_twisted_cylinder_fails():
    # self-similar but not a cone: the radial one-form is not closed
    chart = Chart(2, ((0.0, 6.0), (0.5, 2.5)), positive=(False, True))
    g = MetricField(chart, [["s^2", "s/2"], ["s/2", "1"]])
    xi = VectorFieldT(chart, ["0", "s"])
    assert check_self_similar(g, xi, PLAN).passed
    rep = check_potential_field(g, xi, PLAN)
    assert not rep.passed
    assert rep.extra["eigenvalue_0"] == pytest.approx(0.0)
    assert rep.extra["eigenvalue_1"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# dual connections
# ---------------------------------------------------------------------------

def test_levi_civita_is_self_dual():
    struct = halfplane_statistical()
    dual = dual_connection(struct.conn, struct.metric)
    pts = struct.chart.sample(PLAN)
    delta = dual.eval(pts, 0).value - struct.conn.eval(pts, 0).value
    assert np.max(np.abs(delta)) < 1e-12
    res = duality_residual_batch(struct.conn, dual, struct.metric, pts)
    assert np.max(res) < 1e-12


def test_dual_of_flat_exponential_metric():
    # g = Hess(e^x0 + e^x1): the dual Christoffels are third derivatives of
    # the potential raised by the inverse metric, here exactly delta_{ikl}
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    g = MetricField(chart, [["exp(x0)", "0"], ["0", "exp(x1)"]])
    flat = flat_connection(chart)
    dual = dual_connection(flat, g)
    pts = chart.sample(PLAN)
    vals = dual.eval(pts, 0).value
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[1, 1, 1] = 1.0
    assert np.max(np.abs(vals - expected)) < 1e-12
    res = duality_residual_batch(flat, dual, g, pts)
    assert np.max(res) < 1e-12


def test_dual_connection_is_involutive():
    chart = Chart(2, ((0.2, 1.5), (0.2, 1.5)))
    g = MetricField(chart, [["1 + x0^2", "x0*x1/3"], ["x0*x1/3", "2 + x1^2"]])
    conn = levi_civita(MetricField(chart, np.eye(chart.dim)))  # flat, zero
    first = dual_connection(conn, g)
    second = dual_connection(first, g)
    pts = chart.sample(PLAN)
    delta = second.eval(pts, 0).value - conn.eval(pts, 0).value
    assert np.max(np.abs(delta)) < 1e-10


# ---------------------------------------------------------------------------
# check_statistical
# ---------------------------------------------------------------------------

def test_statistical_levi_civita_pair():
    rep = check_statistical(halfplane_statistical(), PLAN)
    assert rep.passed


def test_statistical_rejects_hopf_pair():
    chart, flat, g, _, _ = conftest.hopf_structure()
    rep = check_statistical(StatisticalStructure(chart, flat, g), PLAN)
    assert not rep.passed


def test_nan_components_stay_nan_in_extra():
    # exp(800*x0) overflows on part of the chart: d g is inf and the
    # symmetry residual inf - inf is NaN, which must not read as 0.0.
    chart = Chart(2, ((0.5, 1.5), (0.5, 1.5)))
    g = MetricField(chart, [["exp(800*x0)", "0"], ["0", "1"]])
    flat = flat_connection(chart)
    with np.errstate(all="ignore"):
        reports = [check_hessian_structure(flat, g, PLAN),
                   check_statistical(StatisticalStructure(chart, flat, g), PLAN)]
    for rep in reports:
        assert not rep.passed and math.isnan(rep.max_residual)
        assert math.isnan(rep.extra["symmetry"])
        assert rep.extra["torsion"] == 0.0


def test_statistical_one_dimensional_always_symmetric():
    chart = Chart(1, ((0.5, 2.0),))
    conn = ConnectionField(chart, [[["x0"]]])
    g = MetricField(chart, [["1 + x0^2"]])
    rep = check_statistical(StatisticalStructure(chart, conn, g), PLAN)
    assert rep.passed


def test_statistical_requires_shared_chart():
    chart = Chart(1, ((0.5, 2.0),))
    other = Chart(1, ((0.1, 0.9),))
    with pytest.raises(ValueError):
        StatisticalStructure(chart, flat_connection(other), MetricField(chart, np.eye(chart.dim)))


# ---------------------------------------------------------------------------
# constant curvature estimation
# ---------------------------------------------------------------------------

def test_curvature_halfplane():
    est = estimate_constant_curvature(halfplane_statistical(), PLAN)
    assert est.c == pytest.approx(-1.0, abs=1e-9)
    assert est.residual <= 1e-6


def test_curvature_sphere():
    est = estimate_constant_curvature(sphere_statistical(), PLAN)
    assert est.c == pytest.approx(1.0, abs=1e-9)
    assert est.residual <= 1e-6


def test_curvature_flat_is_zero():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    g = MetricField(chart, [["exp(x0)", "0"], ["0", "exp(x1)"]])
    est = estimate_constant_curvature(StatisticalStructure(chart, flat_connection(chart), g), PLAN)
    assert est.c == 0.0 and est.residual == 0.0


def _fit_with_the_model_tensor(struct, plan):
    """The least-squares fit with the model tensor built whole."""
    pts = struct.chart.sample(plan)
    r = curvature_tensor(struct.conn, pts)
    g = struct.metric.eval(pts, 0).value
    eye = np.eye(struct.chart.dim)
    basis = np.einsum("ajk,li->alijk", g, eye) - np.einsum("aik,lj->alijk", g, eye)
    c = float(np.sum(r * basis) / np.sum(basis * basis))
    return c, float(np.max(rel_residual(r - c * basis, c * basis)))


@pytest.mark.parametrize("metric", [
    [["1 + x0^2", "x0*x1"], ["x0*x1", "exp(x1)"]],
    [["2 + x1", "0.3*x0", "x2"], ["0.3*x0", "1 + x0^2", "0"], ["x2", "0", "3 + x1*x2"]],
])
def test_curvature_fit_matches_the_model_tensor(metric):
    # metrics of non-constant curvature: the misfit is large and every
    # component of the model enters it
    dim = len(metric)
    g = MetricField(Chart(dim, ((0.2, 0.9),) * dim), metric)
    struct = StatisticalStructure(g.chart, levi_civita(g), g)
    est = estimate_constant_curvature(struct, PLAN)
    c, residual = _fit_with_the_model_tensor(struct, PLAN)
    assert est.c == pytest.approx(c, rel=1e-12)
    assert est.residual == pytest.approx(residual, rel=1e-12)
    assert est.residual > 1e-2


def test_curvature_fit_scratch_is_under_half_a_curvature_tensor():
    # dense dim-3 sphere with Gamma and g held at order 0, as the fold's rule
    # holds them above one block: the fit folds R one row block at a time and
    # keeps 2 d^2 + 2 (m,) rows (sums and extremes), so its peak is one block
    # and a few more rows, and what grows with m is under half a curvature
    # tensor (d^4 rows)
    import hesslab.geomcore as gc

    d = 3
    q = np.array([[1.3, 0.2, 0.1], [0.2, 1.1, 0.3], [0.1, 0.3, 1.2]])
    quad = " + ".join(f"{q[i, j]}*x{i}*x{j}" for i in range(d) for j in range(d))
    rows = 2 * d**2 + 4
    peaks = []
    for m in (20_000, 40_000):
        g = MetricField(Chart(d, ((-0.5, 0.5),) * d),
                        [[f"4*{q[i, j]}/(1 + {quad})^2" for j in range(d)] for i in range(d)])
        struct = StatisticalStructure(g.chart, levi_civita(g), g)
        plan = SamplePlan(count=m, seed=1)
        pts = g.chart.sample(plan)
        assert gc._fold_step(struct.conn, m, d) < m
        struct.conn.eval(pts, 0)
        g.eval(pts, 0)
        tracemalloc.start()
        try:
            est = estimate_constant_curvature(struct, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            drop_held_points()
        assert est.c == pytest.approx(1.0, abs=1e-9) and est.residual <= 1e-9
        assert peak <= gc._SCRATCH_BUDGET + rows * m * 8
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= rows * 20_000 * 8 < 0.5 * d**4 * 20_000 * 8


def test_curvature_one_dimensional_trivial():
    chart = Chart(1, ((0.5, 2.0),))
    struct = StatisticalStructure(chart, flat_connection(chart), MetricField(chart, [["1"]]))
    est = estimate_constant_curvature(struct, PLAN)
    assert est == type(est)(0.0, 0.0)


def test_a_nan_metric_fits_a_nan_curvature():
    # g_00 is inf - inf = NaN where x0 > 0.2 + 709/3000, so the fit's sums
    # are NaN: c reads NaN, not 0.0, and the NaN stays in the report
    from hesslab.scenes import run_suite, scene_from_dict

    nan = "(exp(3000*(x0 - 0.2)) - exp(3000*(x0 - 0.2)))"
    sphere = "4/(1 + x0^2 + x1^2)^2"
    scene = scene_from_dict({
        "chart": {"dim": 2, "box": [[-0.5, 0.5]] * 2},
        "fields": {"g": {"type": "metric", "entries": [[f"{sphere} + {nan}", "0"],
                                                       ["0", sphere]]},
                   "D": {"type": "connection", "levi_civita_of": "g"}},
        "structures": {"S": {"type": "statistical", "conn": "D", "metric": "g"}},
        "checks": [{"op": "curvature", "structure": "S"}],
    })
    with np.errstate(all="ignore"):
        report = run_suite(scene, PLAN).to_dict()["checks"][0]["reports"][0]
        est = estimate_constant_curvature(StatisticalStructure(
            scene.chart, scene.fields["D"], scene.fields["g"]), PLAN)
    assert math.isnan(report["max_residual"]) and math.isnan(report["extra"]["c"])
    assert math.isnan(est.c) and math.isnan(est.residual)


def _one_symbol_connection(chart: Chart, entry: str) -> ConnectionField:
    """Gamma^0_{00} = ``entry``, every other symbol 0."""
    d = chart.dim
    entries = np.full((d, d, d), "0", dtype=object)
    entries[0, 0, 0] = entry
    return ConnectionField(chart, entries)


def test_an_inf_derivative_in_no_index_pair_reads_nan():
    # x0 is subnormal, so Gamma^0_{00} = exp(1.7e308 x0) is about 1.3 and
    # d_0 Gamma^0_{00} = 1.7e308 Gamma^0_{00} is inf. That row enters no
    # slice R^l_{ij.} with i < j, whose entries are all 0 here: the fold must
    # still read NaN at every sample, in the flatness term, the curvature fit
    # and a hessian gate
    chart = Chart(2, ((1e-309, 2e-309), (0.0, 1.0)))
    conn = _one_symbol_connection(chart, "exp(1.7e308*x0)")
    g = MetricField(chart, [["1", "0"], ["0", "1"]])
    try:
        with np.errstate(all="ignore"):
            pts = chart.sample(PLAN)
            cj = conn.eval(pts, 1)
            assert np.isfinite(cj.value).all() and np.isinf(cj.grad[:, 0, 0, 0, 0]).all()
            flatness = flatness_residual(conn, pts)
            est = estimate_constant_curvature(StatisticalStructure(chart, conn, g), PLAN)
            report = check_hessian_structure(conn, g, PLAN)
    finally:
        drop_held_points()
    assert np.isnan(flatness).all()
    assert math.isnan(est.c) and math.isnan(est.residual)
    assert not report.passed and math.isnan(report.extra["flatness"])


def test_a_one_dimensional_chart_has_no_curvature_to_fold():
    chart = Chart(1, ((0.5, 2.0),))
    conn = _one_symbol_connection(chart, "x0^3")
    struct = StatisticalStructure(chart, conn, MetricField(chart, [["1 + x0^2"]]))
    try:
        pts = chart.sample(PLAN)
        assert flatness_residual(conn, pts).tobytes() == np.zeros(PLAN.count).tobytes()
        est = estimate_constant_curvature(struct, PLAN)
        assert (est.c, est.residual) == (0.0, 0.0)
    finally:
        drop_held_points()


# ---------------------------------------------------------------------------
# cone construction
# ---------------------------------------------------------------------------

def test_cone_over_halfplane_passes_postconditions():
    cone = build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE, plan=PLAN)
    assert len(cone.reports) == 5
    for rep in cone.reports:
        assert rep.passed, rep.name
        assert rep.max_residual <= 1e-5


def test_cone_over_sphere_is_flat_euclidean():
    cone = build_cone_structure(sphere_statistical(), 1.0, plan=PLAN)
    by_name = {rep.name: rep for rep in cone.reports}
    assert by_name["cone-flatness"].max_residual <= 1e-6
    assert by_name["cone-potential"].passed


def test_cone_rejects_nonconstant_curvature_base():
    chart = Chart(2, ((0.2, 1.5), (0.2, 1.5)))
    g = MetricField(chart, [["1", "0"], ["0", "1 + x0^2"]])
    base = StatisticalStructure(chart, levi_civita(g), g)
    with pytest.raises(ConeConstructionError):
        build_cone_structure(base, 1.0, plan=PLAN)


def test_cone_rejects_degenerate_lambda():
    base = halfplane_statistical()
    with pytest.raises(DegenerateLambdaError):
        build_cone_structure(base, 0.0, plan=PLAN)
    with pytest.raises(DegenerateLambdaError):
        build_cone_structure(base, 2.0, plan=PLAN)
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(DegenerateLambdaError, match="finite"):
            build_cone_structure(base, lam, plan=PLAN)


def test_cone_rejects_mismatched_lambda():
    with pytest.raises(ConeConstructionError):
        build_cone_structure(halfplane_statistical(), 1.0, plan=PLAN)


def _scaled_base(chart, conf: str, k: float) -> StatisticalStructure:
    # k * conf * delta: the Levi-Civita connection is that of conf * delta, and
    # the curvature constant c of conf * delta becomes c / k
    g = MetricField(chart, [[f"{k}*{conf}", "0"], ["0", f"{k}*{conf}"]])
    return StatisticalStructure(chart, levi_civita(g), g)


@pytest.mark.parametrize("chart,conf,k,c", [
    (conftest.halfplane_chart, "1/(x0*x0)", 1.0 / 3.0, -3.0),
    (conftest.halfplane_chart, "1/(x0*x0)", 4.0, -0.25),
    (conftest.sphere_chart, "4/((1+x0*x0+x1*x1)^2)", 4.0 / 3.0, 0.75),
    (conftest.sphere_chart, "4/((1+x0*x0+x1*x1)^2)", 1.0, 1.0),
], ids=["halfplane-c=-3", "halfplane-c=-1/4", "sphere-c=3/4", "sphere-c=1"])
def test_cone_lifts_the_base_by_either_root_of_its_curvature(chart, conf, k, c):
    # lambda (2 - lambda) = c has the roots 1 +- sqrt(1 - c), which sum to 2
    # and multiply to c; c = 1 is the double root 1. Both roots lift the base
    # and a lambda off them by 0.05 is refused
    base = _scaled_base(chart(), conf, k)
    half = math.sqrt(1.0 - c)
    for lam in {1.0 + half, 1.0 - half}:
        cone = build_cone_structure(base, lam, plan=PLAN)
        assert cone.lam == lam and all(rep.passed for rep in cone.reports)
        assert estimate_constant_curvature(restrict_cone(cone, PLAN), PLAN).c == \
            pytest.approx(c, abs=1e-5)
        with pytest.raises(ConeConstructionError, match="does not match"):
            build_cone_structure(base, lam + 0.05, plan=PLAN)


def test_cone_rejects_nonpositive_radial_interval():
    with pytest.raises(ValueError):
        build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE,
                             s_interval=(0.0, 1.0), plan=PLAN)


def test_potential_identity_detects_corruption():
    cone = build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE, plan=PLAN)
    entries = np.array(cone.conn.entries, dtype=object, copy=True)
    # perturb an entry the potential actually contracts against: the upper
    # index must be the radial one, since the potential depends only on s
    entries[2, 0, 0] = ex.add(entries[2, 0, 0], ex.parse_expression("s/20", 3))
    bad_conn = ConnectionField(cone.chart, entries)
    bad = ConeStructure(cone.chart, bad_conn, cone.metric, cone.radial, cone.lam,
                        base=cone.base)
    rep = potential_identity_residual(bad, PLAN)
    assert not rep.passed


def test_cone_structure_requires_its_base():
    # restrict_cone and check_monodromy read base.chart: a cone without its
    # base, or over a base of the wrong dimension, is refused when built
    cone = build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE, plan=PLAN)
    fields = (cone.chart, cone.conn, cone.metric, cone.radial, cone.lam)
    with pytest.raises(TypeError, match="base"):
        ConeStructure(*fields)
    with pytest.raises(ValueError, match="base statistical structure"):
        ConeStructure(*fields, None)
    with pytest.raises(ValueError, match="one dimension lower"):
        ConeStructure(*fields, StatisticalStructure(cone.chart, cone.conn, cone.metric))


# ---------------------------------------------------------------------------
# level-set restriction
# ---------------------------------------------------------------------------

def _ambient_r3():
    return Chart(3, ((-1.5, 1.5),) * 3)


def test_unit_sphere_restriction_has_curvature_one():
    amb = _ambient_r3()
    chart = Chart(2, ((0.6, 1.2), (0.2, 1.0)))
    surface = ["sin(x0)*cos(x1)", "sin(x0)*sin(x1)", "cos(x0)"]
    struct, h = level_set_statistical(
        flat_connection(amb), "(x0^2 + x1^2 + x2^2)/2", surface, chart,
        euler_field(amb), plan=PLAN,
    )
    assert check_statistical(struct, PLAN).passed
    est = estimate_constant_curvature(struct, PLAN)
    assert est.c == pytest.approx(1.0, abs=1e-8)
    assert est.residual <= 1e-6
    pts = chart.sample(PLAN)
    hval = h.eval(pts, 0).value
    gval = struct.metric.eval(pts, 0).value
    assert np.max(np.abs(hval + gval)) < 1e-10  # h = -(1/E(phi)) g with E(phi) = 1


def test_orthant_surface_statistical_with_negative_curvature():
    amb = Chart(3, ((0.05, 4.0),) * 3, positive=(True, True, True))
    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)))
    surface = ["exp(x0)", "exp(x1)", "exp(-x0 - x1)"]
    phi = "-(log(x0) + log(x1) + log(x2))"
    struct, h = level_set_statistical(
        flat_connection(amb), phi, surface, chart, euler_field(amb), plan=PLAN,
    )
    assert check_statistical(struct, PLAN).passed
    est = estimate_constant_curvature(struct, PLAN)
    assert est.c < 0
    assert est.c == pytest.approx(-1.0 / 3.0, abs=1e-8)
    assert est.residual <= 1e-6
    pts = chart.sample(PLAN)
    hval = h.eval(pts, 0).value
    gval = struct.metric.eval(pts, 0).value
    # E(phi) = -3 along Euler, so h = g/3
    assert np.max(np.abs(hval - gval / 3.0)) < 1e-10


def test_hyperbola_restriction_is_one_dimensional():
    amb = Chart(2, ((0.05, 4.0),) * 2, positive=(True, True))
    chart = Chart(1, ((-0.5, 0.5),))
    surface = ["exp(x0)", "exp(-x0)"]
    phi = "-(log(x0) + log(x1))"
    struct, _ = level_set_statistical(
        flat_connection(amb), phi, surface, chart, euler_field(amb), plan=PLAN,
    )
    assert check_statistical(struct, PLAN).passed
    est = estimate_constant_curvature(struct, PLAN)
    assert est.c == 0.0 and est.residual == 0.0


def test_restriction_rejects_tangent_transversal():
    amb = Chart(2, ((-1.5, 1.5),) * 2)
    chart = Chart(1, ((0.2, 1.2),))
    surface = ["cos(x0)", "sin(x0)"]
    tangent = VectorFieldT(amb, ["-x1", "x0"])
    with pytest.raises(TransversalityError):
        level_set_statistical(
            flat_connection(amb), "(x0^2 + x1^2)/2", surface, chart, tangent,
            plan=PLAN,
        )


def test_restriction_rejects_off_level_surface():
    amb = Chart(2, ((-2.5, 2.5),) * 2)
    chart = Chart(1, ((0.2, 1.2),))
    surface = ["2*cos(x0)", "sin(x0)"]  # ellipse: r^2/2 is not constant
    with pytest.raises(SurfaceConstraintError):
        level_set_statistical(
            flat_connection(amb), "(x0^2 + x1^2)/2", surface, chart,
            euler_field(amb), plan=PLAN,
        )


def test_restriction_requires_codimension_one():
    amb = _ambient_r3()
    chart = Chart(1, ((0.2, 1.2),))
    with pytest.raises(ValueError):
        level_set_statistical(
            flat_connection(amb), "x0", ["x0", "x0", "x0"], chart,
            euler_field(amb), plan=PLAN,
        )


# ---------------------------------------------------------------------------
# round trip: base -> cone -> restriction at s = 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build_base,lam", [
    (halfplane_statistical, LAMBDA_HALFPLANE),
    (halfplane_statistical, 1.0 - math.sqrt(2.0)),
    (sphere_statistical, 1.0),
])
def test_cone_round_trip_recovers_base(build_base, lam):
    base = build_base()
    struct = restrict_cone(build_cone_structure(base, lam, plan=PLAN), PLAN)
    pts = base.chart.sample(PLAN)
    delta = struct.metric.eval(pts, 0).value - base.metric.eval(pts, 0).value
    scale = 1.0 + np.max(np.abs(base.metric.eval(pts, 0).value))
    assert np.max(np.abs(delta)) / scale < 1e-5
    est = estimate_constant_curvature(struct, PLAN)
    assert est.c == pytest.approx(lam * (2.0 - lam), abs=1e-5)
    assert est.residual <= 1e-5
    dd = struct.conn.eval(pts, 0).value - base.conn.eval(pts, 0).value
    assert np.max(np.abs(dd)) < 1e-8


def test_the_fit_of_a_flat_connection_is_exactly_0_and_reads_no_gamma(monkeypatch):
    # a flat connection's curvature is 0 without evaluating Gamma: c and the
    # residual are +0.0, whatever the metric
    import hesslab.geomcore as gc

    chart = Chart(3, ((0.2, 0.9),) * 3)
    conn = flat_connection(chart)
    g = MetricField(chart, [["1 + x0^2", "0.1*x1", "0"], ["0.1*x1", "2 + x2", "-0.2*x0"],
                            ["0", "-0.2*x0", "3"]])
    evaluated = []
    real = gc._eval_entries

    def eval_entries(field, *args, **kwargs):
        evaluated.append(field)
        return real(field, *args, **kwargs)

    monkeypatch.setattr(gc, "_eval_entries", eval_entries)
    try:
        est = estimate_constant_curvature(StatisticalStructure(chart, conn, g), PLAN)
    finally:
        drop_held_points()
    assert np.array([est.c, est.residual]).tobytes() == np.zeros(2).tobytes()
    assert g in evaluated and conn not in evaluated


# ---------------------------------------------------------------------------
# residual terms kept with the held point set
# ---------------------------------------------------------------------------

def _count_curvature(monkeypatch) -> list:
    """Every (connection, points) pair whose curvature slices are built: the
    kernel the curvature fit and the flatness term share, wrapped in every
    module that binds it."""
    import hesslab
    import hesslab.geomcore as gc

    calls = []
    real = gc.curvature_slices

    def curvature_slices(conn, pts, take):
        calls.append((conn, pts))
        return real(conn, pts, take)

    for module in vars(hesslab).values():
        if getattr(module, "curvature_slices", None) is real:
            monkeypatch.setattr(module, "curvature_slices", curvature_slices)
    return calls


def test_sphere_cone_takes_each_curvature_once_per_point_set(monkeypatch):
    # the base curvature serves the curvature op and the cone precondition;
    # the cone's serves cone-flatness and the flatness term of cone-hessian
    from hesslab.scenes import run_example

    calls = _count_curvature(monkeypatch)
    assert run_example("sphere_cone", SamplePlan(count=20_000, seed=42)).all_ok
    pairs = [(id(conn), id(pts)) for conn, pts in calls]
    assert len(pairs) == len(set(pairs)) == 2


def test_stored_terms_are_read_only_and_shared():
    sphere = sphere_statistical()
    pts = sphere.chart.sample(PLAN)
    terms = structure_terms(sphere.conn, sphere.metric, pts)
    again = structure_terms(sphere.conn, sphere.metric, pts)
    assert set(terms) == {"torsion", "flatness", "symmetry", "definiteness"}
    for key, arr in terms.items():
        assert again[key] is arr and arr.shape == (PLAN.count,)
        with pytest.raises(ValueError):
            arr[0] = 1.0
    fresh = structure_terms(sphere.conn, sphere.metric, pts.copy())  # not held
    for key, arr in fresh.items():
        assert arr.flags.writeable
        assert arr.tobytes() == terms[key].tobytes()


def test_sampling_another_plan_drops_the_stored_terms(monkeypatch):
    calls = _count_curvature(monkeypatch)
    sphere = sphere_statistical()
    for _ in range(2):
        check_hessian_structure(sphere.conn, sphere.metric, PLAN)
    assert len(calls) == 1
    flatness = weakref.ref(
        structure_terms(sphere.conn, sphere.metric, sphere.chart.sample(PLAN))["flatness"])
    other = SamplePlan(count=PLAN.count, seed=PLAN.seed + 1)
    sphere.chart.sample(other)
    assert flatness() is None
    check_hessian_structure(sphere.conn, sphere.metric, other)
    check_hessian_structure(sphere.conn, sphere.metric, PLAN)
    assert len(calls) == 3


def test_a_domain_error_runs_the_residual_once(monkeypatch):
    import hesslab.geomcore as gc
    import hesslab.hesstat as hs

    chart = Chart(1, ((-1.0, 1.0),))
    conn = ConnectionField(chart, [[["x0"]]])
    g = MetricField(chart, [["5 + log(x0)"]])  # off its domain where x0 <= 0
    plan = SamplePlan(count=40, seed=3)
    x = chart.sample(plan)[:, 0]
    calls, computed = [], []
    real_check, real_held = gc.sample_check, gc.held_result

    def sample_check(residual_fn, *args, **kwargs):
        return real_check(lambda pts: calls.append(len(pts)) or residual_fn(pts),
                          *args, **kwargs)

    def held_result(key, pts, compute):
        return real_held(key, pts, lambda: computed.append(key[0]) or compute())

    monkeypatch.setattr(hs, "sample_check", sample_check)
    for mod in (gc, hs):  # torsion and flatness keep themselves in geomcore
        monkeypatch.setattr(mod, "held_result", held_result)
    report = check_hessian_structure(conn, g, plan)
    assert calls == [40]  # one pass over every sample, no per-point rerun
    note = (f"{np.count_nonzero(x <= 0)} of 40 samples hit domain errors: "
            f"log of non-positive value (min {x[np.argmax(x <= 0)]:g})")
    assert not report.passed and report.notes == (note,)
    # the terms that read g are inf; those of the connection alone are not
    assert report.extra["symmetry"] == report.extra["definiteness"] == math.inf
    assert report.extra["torsion"] == report.extra["flatness"] == 0.0
    # a second gate reads the terms back with their faults: same note, and
    # nothing computed again
    stat = check_statistical(StatisticalStructure(chart, conn, g), plan)
    assert calls == [40, 40] and stat.notes == (note,)
    assert sorted(computed) == ["definiteness", "flatness", "symmetry", "torsion"]


def test_suites_in_turn_repeat_their_bytes_and_keep_nothing(monkeypatch):
    # run_suite drops the point set with its stored terms, so a scene run
    # again computes its terms again and prints the same bytes; hopf's
    # connection is flat, so it builds no curvature slice at all
    from hesslab.scenes import run_example

    calls = _count_curvature(monkeypatch)
    plan = SamplePlan(count=500, seed=42)
    texts, counts = [], []
    for name in ("sphere_cone", "hopf", "sphere_cone"):
        before = len(calls)
        texts.append(run_example(name, plan).to_json())
        counts.append(len(calls) - before)
    assert texts[0] == texts[2]
    assert counts == [2, 0, 2]


def test_cone_build_evaluates_each_field_once_on_the_held_points(monkeypatch):
    # The metric-form postcondition reads the cone metric at order 1, the
    # order the cone-hessian gate needs on the same held array.
    import hesslab.geomcore as gc
    from hesslab.scenes import load_example

    calls: list = []
    real = gc._eval_entries

    def eval_entries(field, pts, order):
        if pts is gc._held.pts:
            calls.append((field, pts))
        return real(field, pts, order)

    monkeypatch.setattr(gc, "_eval_entries", eval_entries)
    scene = load_example("sphere_cone")
    base = StatisticalStructure(scene.chart, scene.fields["D"], scene.fields["g"])
    cone = build_cone_structure(base, 1.0, plan=SamplePlan(count=60, seed=42),
                                tolerance=1e-6)
    assert all(rep.passed for rep in cone.reports)
    per_field = {}
    for field, pts in calls:
        per_field.setdefault((id(field), id(pts)), []).append(field)
    assert {len(v) for v in per_field.values()} == {1}
    assert sum(field is cone.metric for field, _ in calls) == 1


def test_an_overflowing_metric_entry_still_fails():
    # 2*exp(800*x0) is inf on part of the chart. Its product with the
    # constant 2 no longer adds the 0*inf = NaN of the constant's zero
    # gradient, so d g reads inf there, not NaN; the gate must still fail
    # with a non-finite residual and name the term.
    chart = Chart(1, ((0.5, 1.5),))
    g = MetricField(chart, [["2*exp(800*x0)"]])
    pts = chart.sample(PLAN)
    with np.errstate(all="ignore"):
        d1 = g.eval(pts, 1).grad[:, 0, 0, 0]
        rep = check_hessian_structure(flat_connection(chart), g, PLAN)
    assert np.isinf(d1).any() and not np.isnan(d1).any()
    assert not rep.passed and not math.isfinite(rep.max_residual)
    assert not math.isfinite(rep.extra["symmetry"])
    assert json.loads(strict_json(rep.as_dict()))["extra"]["symmetry"] in ("NaN", "Infinity")
