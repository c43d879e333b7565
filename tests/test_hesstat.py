"""Hessian/radiant/statistical checks and the cone correspondence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from hesslab import expr as ex
from hesslab.geomcore import (
    Chart,
    ConnectionField,
    MetricField,
    SamplePlan,
    VectorFieldT,
    euclidean_metric,
    euler_field,
    flat_connection,
    levi_civita,
)
from hesslab.hesstat import (
    ConeConstructionError,
    ConeStructure,
    DegenerateLambdaError,
    NoRealSolutionError,
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
    hessian_of,
    level_set_statistical,
    potential_identity_residual,
    solve_lambda,
)

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
# hessian_of
# ---------------------------------------------------------------------------

def test_hessian_of_half_square_norm():
    chart = Chart(3, ((-1.0, 1.0),) * 3)
    out = hessian_of(flat_connection(chart), "(x0^2 + x1^2 + x2^2)/2", (0.2, -0.4, 0.9))
    assert np.allclose(out, np.eye(3))


def test_hessian_of_exponential_potential_at_origin():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    out = hessian_of(flat_connection(chart), "exp(x0) + exp(x1)", (0.0, 0.0))
    assert np.allclose(out, np.eye(2))


def test_hessian_of_cone_potential_recovers_cone_metric():
    cone = build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE, plan=PLAN)
    phi = f"s^2 / {4.0 - 2.0 * LAMBDA_HALFPLANE!r}"
    p = (0.9, 0.2, 1.3)
    hess = hessian_of(cone.conn, phi, p)
    gval = cone.metric.eval(np.array([p]), 0).value[0]
    assert np.allclose(hess, gval, rtol=1e-10)


# ---------------------------------------------------------------------------
# check_hessian_structure
# ---------------------------------------------------------------------------

def test_hessian_gate_flat_euclidean():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    rep = check_hessian_structure(flat_connection(chart), euclidean_metric(chart), PLAN)
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
    rep = check_self_similar(euclidean_metric(chart), euler_field(chart), PLAN)
    assert rep.passed and rep.max_residual < 1e-15


def test_self_similar_translation_fails():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    xi = VectorFieldT(chart, ["1", "0"])
    rep = check_self_similar(euclidean_metric(chart), xi, PLAN)
    assert not rep.passed


def test_self_similar_on_cone():
    cone = build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE, plan=PLAN)
    rep = check_self_similar(cone.metric, cone.radial, PLAN)
    assert rep.passed


def test_potential_field_euler():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    rep = check_potential_field(euclidean_metric(chart), euler_field(chart), PLAN)
    assert rep.passed
    assert rep.extra["eigenvalue_0"] == pytest.approx(1.0)
    assert rep.extra["eigenvalue_1"] == pytest.approx(1.0)


def test_potential_field_diagonal_weights():
    chart = Chart(2, ((-1.0, 1.0),) * 2)
    xi = VectorFieldT(chart, ["x0", "2*x1"])
    rep = check_potential_field(euclidean_metric(chart), xi, PLAN)
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
    conn = levi_civita(euclidean_metric(chart))  # flat, zero
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
        StatisticalStructure(chart, flat_connection(other), euclidean_metric(chart))


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


def test_curvature_one_dimensional_trivial():
    chart = Chart(1, ((0.5, 2.0),))
    struct = StatisticalStructure(chart, flat_connection(chart), MetricField(chart, [["1"]]))
    est = estimate_constant_curvature(struct, PLAN)
    assert est == type(est)(0.0, 0.0)


# ---------------------------------------------------------------------------
# solve_lambda
# ---------------------------------------------------------------------------

def test_solve_lambda_examples():
    assert solve_lambda(1.0).roots == (1.0,)
    roots = solve_lambda(-1.0)
    assert roots.roots[0] == pytest.approx(1.0 + math.sqrt(2.0))
    assert roots.roots[1] == pytest.approx(1.0 - math.sqrt(2.0))
    assert not roots.degenerate
    with pytest.raises(NoRealSolutionError):
        solve_lambda(2.0)


def test_solve_lambda_degenerate_pair():
    roots = solve_lambda(0.0)
    assert roots.degenerate
    assert set(roots) == {0.0, 2.0}


@given(st.floats(min_value=-3.0, max_value=1.0))
@settings(max_examples=200)
def test_solve_lambda_root_identities(c):
    roots = list(solve_lambda(c))
    if len(roots) == 1:
        roots = roots * 2
    assert roots[0] + roots[1] == 2.0
    assert roots[0] * roots[1] == pytest.approx(c, abs=1e-12)
    for lam in roots:
        assert lam * (2.0 - lam) == pytest.approx(c, abs=1e-12)


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


def test_cone_rejects_mismatched_lambda():
    with pytest.raises(ConeConstructionError):
        build_cone_structure(halfplane_statistical(), 1.0, plan=PLAN)


def test_cone_rejects_nonpositive_radial_interval():
    with pytest.raises(ValueError):
        build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE,
                             s_interval=(0.0, 1.0), plan=PLAN)


def test_potential_identity_detects_corruption():
    cone = build_cone_structure(halfplane_statistical(), LAMBDA_HALFPLANE, plan=PLAN)
    from hesslab.geomcore import entry_tree

    entries = np.array(cone.conn.entries, dtype=object, copy=True)
    # perturb an entry the potential actually contracts against: the upper
    # index must be the radial one, since the potential depends only on s
    entries[2, 0, 0] = ex.add(entry_tree(entries[2, 0, 0]), ex.parse_expression("s/20", 3))
    bad_conn = ConnectionField(cone.chart, entries)
    bad = ConeStructure(cone.chart, bad_conn, cone.metric, cone.radial, cone.lam)
    rep = potential_identity_residual(bad, PLAN)
    assert not rep.passed


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
    cone = build_cone_structure(base, lam, plan=PLAN)
    n = base.chart.dim
    surface = [ex.Var(a) for a in range(n)] + [ex.ONE]
    transversal = VectorFieldT(
        cone.chart,
        [ex.ZERO] * n + [ex.div(ex.Var(n), ex.const(2.0 - lam))],
    )
    phi = ex.div(
        ex.powi(ex.Var(n), 2), ex.const(4.0 - 2.0 * lam)
    )
    struct, h = level_set_statistical(
        cone.conn, phi, surface, base.chart, transversal, plan=PLAN,
    )
    pts = base.chart.sample(PLAN)
    delta = struct.metric.eval(pts, 0).value - base.metric.eval(pts, 0).value
    scale = 1.0 + np.max(np.abs(base.metric.eval(pts, 0).value))
    assert np.max(np.abs(delta)) / scale < 1e-5
    est = estimate_constant_curvature(struct, PLAN)
    assert est.c == pytest.approx(lam * (2.0 - lam), abs=1e-5)
    assert est.residual <= 1e-5
    dd = struct.conn.eval(pts, 0).value - base.conn.eval(pts, 0).value
    assert np.max(np.abs(dd)) < 1e-8
