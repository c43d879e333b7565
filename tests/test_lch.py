"""Locally conformally Hessian structures, Lee fields, tori, and the probe."""

from __future__ import annotations

import ast
import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from affine_reference import reference_affine_residual
from conftest import (
    e67_structure,
    halfplane_chart,
    halfplane_metric,
    hopf_structure,
    poincare_structure,
    sphere_chart,
    sphere_metric,
)
from hesslab import expr as ex
from hesslab import lch
from hesslab.cones import LorentzCone, OrthantCone, cone_lch_structure
from hesslab.geomcore import (
    Chart,
    ChartError,
    LineIntegralGauge,
    MetricField,
    OneFormField,
    SamplePlan,
    VectorFieldT,
    flat_connection,
    gauged,
    levi_civita,
    definiteness_gap,
    eigenvalue_definiteness,
    lie_derivative_metric_batch,
    rel_residual,
    total_symmetry_residual_batch,
)
from hesslab.hesstat import (
    DegenerateLambdaError,
    StatisticalStructure,
    estimate_constant_curvature,
    level_set_statistical,
)
from hesslab.lch import (
    LCHStructure,
    LeeConstants,
    MappingTorusError,
    MappingTorusSpec,
    MonodromyCharacter,
    NotPositiveDefiniteError,
    _affine_residual,
    _require_closed,
    build_mapping_torus,
    check_lch,
    check_symmetry,
    koszul_check,
    lee_constants,
    lee_identity_residual,
    lee_perturbation_probe,
    lee_vector_field,
    local_hessian_gauge,
    metric_from_lee,
    monodromy_rank,
    perturbed_structure,
)
from hesslab.scenes import _Context, load_example, run_suite

PLAN = SamplePlan(count=70, seed=5)
LAM = 1.0 + math.sqrt(2.0)


def hopf_lch() -> LCHStructure:
    chart, conn, g, theta, _ = hopf_structure()
    return LCHStructure(chart, conn, g, theta)


def poincare_lch() -> LCHStructure:
    chart, conn, g, theta, _ = poincare_structure()
    return LCHStructure(chart, conn, g, theta)


def e67_lch() -> LCHStructure:
    chart, conn, g, theta, _ = e67_structure()
    return LCHStructure(chart, conn, g, theta)


def halfplane_base() -> StatisticalStructure:
    chart = halfplane_chart()
    g = halfplane_metric(chart)
    return StatisticalStructure(chart, levi_civita(g), g)


def halfplane_torus(q=2.0, lam=LAM, automorphism=("x0", "x1")):
    spec = MappingTorusSpec(halfplane_base(), automorphism, q, lam)
    return build_mapping_torus(spec, plan=PLAN)


# ---------------------------------------------------------------------------
# check_lch
# ---------------------------------------------------------------------------

def test_check_lch_hopf_passes():
    rep = check_lch(hopf_lch(), PLAN)
    assert rep.passed and rep.max_residual < 1e-12


def test_check_lch_e67_passes():
    assert check_lch(e67_lch(), PLAN).passed


def test_check_lch_poincare_passes():
    assert check_lch(poincare_lch(), PLAN).passed


def test_check_lch_fails_without_theta():
    chart, conn, g, _, _ = hopf_structure()
    bare = LCHStructure(chart, conn, g, OneFormField(chart, ["0", "0"]))
    rep = check_lch(bare, PLAN)
    assert not rep.passed
    assert rep.max_residual > 1e-2
    assert rep.extra["symmetry"] > 1e-2
    assert rep.extra["definiteness"] == 0.0


def test_check_lch_keeps_nan_components():
    chart = Chart(2, ((0.5, 1.5), (0.5, 1.5)))
    g = MetricField(chart, [["exp(800*x0)", "0"], ["0", "1"]])
    theta = OneFormField(chart, ["0", "0"])
    with np.errstate(all="ignore"):
        rep = check_lch(LCHStructure(chart, flat_connection(chart), g, theta))
    assert not rep.passed
    assert math.isnan(rep.extra["symmetry"])
    assert rep.extra["closedness"] == 0.0


def test_lch_structure_requires_shared_chart():
    chart, conn, g, theta, _ = hopf_structure()
    other = Chart(2, ((0.5, 1.5), (0.5, 1.5)))
    with pytest.raises(ValueError, match="share"):
        LCHStructure(other, conn, g, theta)


def test_cone_lch_structures_pass_check():
    for cone in (OrthantCone(2), OrthantCone(3), LorentzCone(2)):
        struct = cone_lch_structure(cone)
        assert check_lch(struct, PLAN).passed


# ---------------------------------------------------------------------------
# Lee vector and constants
# ---------------------------------------------------------------------------

def test_lee_vector_hopf_point_value():
    chart, conn, g, theta, _ = hopf_structure()
    xi = lee_vector_field(g, theta)
    assert np.allclose(xi.eval(np.array([(1.0, 0.0)]), 0).value[0], [-2.0, 0.0])
    assert np.allclose(xi.eval(np.array([(0.6, 1.1)]), 0).value[0], [-1.2, -2.2])


def test_lee_vector_field_matches_closed_form():
    chart, conn, g, theta, xi = hopf_structure()
    field = lee_vector_field(g, theta)
    pts = chart.sample(PLAN)
    assert np.allclose(field.eval(pts, 0).value, xi.eval(pts, 0).value, atol=1e-12)


def test_lee_constants_hopf():
    c = lee_constants(hopf_lch(), PLAN)
    assert c.a == pytest.approx(4.0, abs=1e-10)
    assert c.mu == pytest.approx(-2.0, abs=1e-10)
    assert c.u == -(c.mu + c.a)
    assert c.killing_residual < 1e-12
    assert c.radiant_residual < 1e-12
    assert c.affine_residual < 1e-12
    assert c.admissible()


def test_lee_constants_poincare_affine_not_killing():
    c = lee_constants(poincare_lch(), PLAN)
    assert c.affine_residual <= 1e-10
    assert c.killing_residual >= 1e-2
    # nabla xi = diag(-2, 0): best single multiple of Id is -1, misfit 1/(1+2)
    assert c.mu == pytest.approx(-1.0, abs=1e-10)
    assert c.radiant_residual == pytest.approx(0.5, abs=1e-10)


def test_lee_constants_e67_killing_not_radiant():
    c = lee_constants(e67_lch(), PLAN)
    assert c.killing_residual <= 1e-6
    assert c.radiant_residual >= 1e-2


def test_lee_constants_invariant():
    with pytest.raises(ValueError, match="u must equal"):
        LeeConstants(4.0, -2.0, 5.0, 0.0, 0.0, 0.0)
    flat = LeeConstants(4.0, -4.0, 0.0, 0.0, 0.0, 0.0)
    assert not flat.admissible()  # mu = -a
    still = LeeConstants(4.0, 0.0, -4.0, 0.0, 0.0, 0.0)
    assert not still.admissible()  # mu = 0


def _bundled_structure(example: str, name: str):
    scene = load_example(example)
    return _Context(scene, PLAN, 1).structure(name)


BUNDLED_LCH = [("hopf", "S"), ("poincare", "S"), ("torus_quotient", "S"), ("e67", "S"),
               ("lee_perturbation_torus", "S"), ("orthant_cone", "L"),
               ("lorentz_cone", "L"), ("mapping_torus_halfplane", "T")]


def _assert_affine_matches_reference(conn, xi, pts):
    got = _affine_residual(conn, xi, pts)
    want = reference_affine_residual(conn, xi, pts)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    return want


@pytest.mark.parametrize("example,name", BUNDLED_LCH)
def test_affine_residual_matches_tree_reference(example, name):
    struct = _bundled_structure(example, name)
    xi = lee_vector_field(struct.metric, struct.lee_form)
    _assert_affine_matches_reference(struct.conn, xi, struct.chart.sample(PLAN))


def test_affine_residual_matches_tree_reference_off_zero():
    # a Levi-Civita connection, far from flat, and a field far from affine
    chart = sphere_chart()
    conn = levi_civita(sphere_metric(chart))
    assert not conn.flat
    xi = VectorFieldT(chart, ["x0*x1 + exp(x0)", "x0^2 - sin(x1)"])
    want = _assert_affine_matches_reference(conn, xi, chart.sample(PLAN))
    assert want >= 1e-2


def test_lee_constants_of_gauged_perturbed_structure():
    # eps = 5 along dx1 takes the conformal route: the metric carries a gauge
    # leaf, which has jets but no symbolic derivative
    scene = load_example("lee_perturbation_torus")
    struct = _bundled_structure("lee_perturbation_torus", "S")
    perturbed = perturbed_structure(struct, scene.fields["alpha1"], 5.0, PLAN)
    with pytest.raises(TypeError, match="no symbolic derivative"):
        ex.diff(perturbed.metric.entries[0, 0], 0)
    c = lee_constants(perturbed, PLAN)
    assert all(math.isfinite(v) for v in (c.a, c.mu, c.u, c.killing_residual,
                                          c.radiant_residual, c.affine_residual))


# ---------------------------------------------------------------------------
# Lee identity and metric reconstruction
# ---------------------------------------------------------------------------

def test_lee_identity_hopf():
    struct = hopf_lch()
    c = lee_constants(struct, PLAN)
    rep = lee_identity_residual(struct, c, PLAN)
    assert rep.passed and rep.max_residual <= 1e-8
    assert rep.extra["u"] == pytest.approx(-2.0)


def test_lee_identity_rejects_wrong_u():
    struct = hopf_lch()
    # doctored mu keeps the u = -(mu+a) invariant while flipping u's sign
    wrong = LeeConstants(4.0, -6.0, 2.0, 0.0, 0.0, 0.0)
    rep = lee_identity_residual(struct, wrong, PLAN)
    assert not rep.passed


def test_lee_identity_requires_radiant_killing_field():
    struct = poincare_lch()
    c = lee_constants(struct, PLAN)
    with pytest.raises(ValueError, match="Killing"):
        lee_identity_residual(struct, c, PLAN)


@pytest.mark.parametrize("killing,radiant", [(math.nan, 0.0), (0.0, math.nan)])
def test_lee_identity_rejects_a_nan_hypothesis(killing, radiant):
    consts = LeeConstants(4.0, -2.0, -2.0, killing, radiant, 0.0)
    with pytest.raises(ValueError, match="Killing"):
        lee_identity_residual(hopf_lch(), consts, PLAN)


def test_metric_from_lee_round_trip():
    chart, conn, g, theta, _ = hopf_structure()
    rebuilt = metric_from_lee(conn, theta, -2.0, PLAN)
    pts = chart.sample(PLAN)
    assert np.max(np.abs(rebuilt.eval(pts, 0).value - g.eval(pts, 0).value)) <= 1e-8
    assert check_lch(LCHStructure(chart, conn, rebuilt, theta), PLAN).passed


def test_metric_from_lee_wrong_sign_rejected():
    chart, conn, g, theta, _ = hopf_structure()
    with pytest.raises(NotPositiveDefiniteError) as err:
        metric_from_lee(conn, theta, 2.0, PLAN)
    assert err.value.point is not None and len(err.value.point) == 2
    assert err.value.eigenvalue < 0


def test_metric_from_lee_degenerate_form_rejected():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
    theta = OneFormField(chart, ["1", "0"])  # nabla theta - theta x theta = -dx0^2
    for u in (1.0, -1.0):
        with pytest.raises(NotPositiveDefiniteError):
            metric_from_lee(flat_connection(chart), theta, u, PLAN)
    with pytest.raises(ValueError, match="nonzero"):
        metric_from_lee(flat_connection(chart), theta, 0.0, PLAN)


def test_metric_from_lee_requires_closed_form():
    chart = Chart(2, ((0.5, 1.5), (0.5, 1.5)))
    theta = OneFormField(chart, ["x1", "0"])
    with pytest.raises(ValueError, match="closed"):
        metric_from_lee(flat_connection(chart), theta, 1.0, PLAN)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_closedness_residual_is_not_closed():
    # exp(800 x0) overflows, so theta and its jets are inf - inf = NaN
    chart = Chart(1, ((1.0, 2.0),))
    theta = OneFormField(chart, ["exp(800*x0) - exp(800*x0) + 1/x0"])
    with pytest.raises(ValueError, match="closed"):
        _require_closed(theta, chart.sample(PLAN), 1e-4, "the Lee form")
    with pytest.raises(ValueError, match="closed"):
        metric_from_lee(flat_connection(chart), theta, 1.0, PLAN)


def test_metric_from_lee_reports_what_every_eigenvalue_would(monkeypatch):
    # u^{-1} (nabla theta - theta (x) theta) = I - x x^T for theta = x on a flat
    # chart: positive definite inside the unit disc only. The certificate
    # settles the inside; the error must name the point and eigenvalue that
    # eigenvalues on every sample name.
    chart = Chart(2, ((-1.2, 1.2), (-1.2, 1.2)))
    theta = OneFormField(chart, ["x0", "x1"])
    plan = SamplePlan(count=400, seed=2)

    def raised():
        with pytest.raises(NotPositiveDefiniteError) as err:
            metric_from_lee(flat_connection(chart), theta, 1.0, plan)
        return err.value

    rows = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: rows.append(len(a)) or eigvalsh(a))
    certified = raised()

    def every_sample(mats):
        smallest, gap = eigenvalue_definiteness(mats)
        return gap, np.arange(gap.size), smallest

    monkeypatch.setattr(lch, "definiteness", every_sample)
    uncertified = raised()
    assert 0 < rows[0] < plan.count and rows[1:] == [plan.count]
    assert str(certified) == str(uncertified)
    assert certified.point.tobytes() == uncertified.point.tobytes()
    assert np.float64(certified.eigenvalue).tobytes() == np.float64(
        uncertified.eigenvalue).tobytes()
    assert certified.eigenvalue < 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_metric_from_lee_rejects_a_nan_eigenvalue():
    # closed (constant) theta whose square overflows: the candidate holds inf
    # next to finite entries, and its smallest eigenvalue is NaN
    chart = Chart(2, ((1.0, 2.0), (1.0, 2.0)))
    theta = OneFormField(chart, ["1e160", "1"])
    with pytest.raises(NotPositiveDefiniteError) as err:
        metric_from_lee(flat_connection(chart), theta, -1.0, PLAN)
    assert math.isnan(err.value.eigenvalue)


def _rejected_lee_form(entries) -> NotPositiveDefiniteError:
    dim = len(entries)
    chart = Chart(dim, ((1.0, 2.0),) * dim)
    with pytest.raises(NotPositiveDefiniteError) as err:
        metric_from_lee(flat_connection(chart), OneFormField(chart, entries), -1.0, PLAN)
    # every sample is non-finite, so the first one is named
    point = chart.sample(PLAN)[0]
    assert np.array_equal(err.value.point, point) and f"at {point.tolist()}" in str(err.value)
    return err.value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_metric_from_lee_rejects_an_infinite_eigenvalue():
    # theta (x) theta = 1e320 overflows: the candidate metric is +inf, and
    # a non-finite sample reads a NaN eigenvalue
    assert math.isnan(_rejected_lee_form(["1e160"]).eigenvalue)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_metric_from_lee_rejects_an_infinite_entry_off_the_diagonal():
    # at dim 3, +inf at (0, 2) as well: LAPACK does not converge on it
    assert math.isnan(_rejected_lee_form(["1e160", "0", "1e160"]).eigenvalue)


@pytest.mark.parametrize("name", ["e67", "lee_perturbation_torus"])
def test_lee_field_is_built_once_per_structure_in_a_suite(monkeypatch, name):
    # the lee_constants ops and every probe step on one structure read the
    # constants kept with the held point set
    import hesslab.lch as lch
    from hesslab.scenes import run_example

    built = []
    real = lch.lee_vector_field

    def lee_vector_field(metric, theta):
        built.append((metric, theta))
        return real(metric, theta)

    monkeypatch.setattr(lch, "lee_vector_field", lee_vector_field)
    assert run_example(name).all_ok
    assert len(built) == 1


def test_closedness_is_computed_once_per_point_set(monkeypatch):
    # the l.c.H. gate and the closedness precondition read one kept term
    import hesslab.geomcore as geomcore
    from hesslab.hesstat import structure_terms

    built = []
    real = geomcore.exterior_derivative_oneform_batch

    def exterior_derivative_oneform_batch(theta, pts):
        built.append(theta)
        return real(theta, pts)

    monkeypatch.setattr(geomcore, "exterior_derivative_oneform_batch",
                        exterior_derivative_oneform_batch)
    struct = hopf_lch()
    pts = struct.chart.sample(PLAN)
    terms = structure_terms(struct.conn, struct.metric, pts, theta=struct.lee_form)
    _require_closed(struct.lee_form, pts, 1e-6, "theta")
    assert len(built) == 1
    assert not terms["closedness"].flags.writeable


# ---------------------------------------------------------------------------
# local Hessian gauge
# ---------------------------------------------------------------------------

def test_gauge_hopf_log_potential():
    struct = hopf_lch()
    base = np.array([1.0, 0.5])
    target = np.array([1.4, 0.8])
    f, rep = local_hessian_gauge(struct, base, target, plan=PLAN)
    expected = -2.0 * math.log(np.hypot(*target) / np.hypot(*base))
    assert f == pytest.approx(expected, abs=1e-10)
    assert rep.passed and rep.max_residual < 1e-10


def test_gauge_e67_recovers_hessian_metric():
    struct = e67_lch()
    f, rep = local_hessian_gauge(struct, (0.0, 0.0), plan=PLAN)
    assert f == 0.0
    assert rep.passed


def test_gauge_rejects_points_outside_chart():
    struct = hopf_lch()
    with pytest.raises(ChartError, match="base"):
        local_hessian_gauge(struct, (5.0, 5.0), plan=PLAN)
    with pytest.raises(ChartError, match="target"):
        local_hessian_gauge(struct, (1.0, 0.5), (5.0, 5.0), plan=PLAN)


def test_gauge_detects_non_closed_form():
    chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
    g = MetricField(chart, np.eye(chart.dim))
    fuzz = LCHStructure(chart, flat_connection(chart), g, OneFormField(chart, ["x1", "0"]))
    with pytest.raises(ValueError, match="Lee form must be closed"):
        local_hessian_gauge(fuzz, (0.2, 0.2), plan=PLAN)
    # d(x0^2 x1) is closed: the gauge is its potential from the base
    exact = LCHStructure(chart, flat_connection(chart), g,
                         OneFormField(chart, ["2*x0*x1", "x0*x0"]))
    f, _ = local_hessian_gauge(exact, (0.2, 0.2), (0.7, 0.4), plan=PLAN)
    assert f == pytest.approx(0.7**2 * 0.4 - 0.2**3, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gauge_rejects_a_nan_lee_form():
    # exp(800 x0) overflows, so theta is inf - inf = NaN on the whole chart
    chart = Chart(1, ((1.0, 2.0),))
    g = MetricField(chart, np.eye(chart.dim))
    nan_form = OneFormField(chart, ["exp(800*x0) - exp(800*x0) + 1/x0"])
    struct = LCHStructure(chart, flat_connection(chart), g, nan_form)
    with pytest.raises(ValueError, match="Lee form must be closed"):
        local_hessian_gauge(struct, (1.5,), plan=PLAN)


# ---------------------------------------------------------------------------
# Koszul check
# ---------------------------------------------------------------------------

def test_koszul_flat_radial_potential():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
    theta = OneFormField(chart, ["x0", "x1"])  # d(r^2/2), nabla theta = delta
    rep = koszul_check(flat_connection(chart), theta, PLAN)
    assert rep.passed and rep.max_residual < 1e-12


def test_koszul_torus_sign_depends_on_root():
    struct, _ = halfplane_torus(lam=LAM)
    good = koszul_check(struct.conn, struct.lee_form, PLAN)
    assert good.passed  # u = 2*lam - 4 > 0

    other, _ = halfplane_torus(lam=1.0 - math.sqrt(2.0))
    bad = koszul_check(other.conn, other.lee_form, PLAN)
    assert not bad.passed
    assert bad.extra["definiteness"] >= 1.0
    assert bad.extra["closedness"] < 1e-12


def test_koszul_mean_residual_is_a_mean_over_samples():
    # hopf at 200 samples: the mean over samples of the worst term (1.18)
    scene = load_example("hopf")
    plan = SamplePlan(count=200, seed=42)
    checks = run_suite(scene, plan).checks
    rep = next(c for c in checks if c["op"] == "koszul")["reports"][0]
    pts = scene.chart.sample(plan)
    tj = scene.fields["theta"].eval(pts, 2)
    g = tj.d1.transpose(0, 2, 1)  # the flat connection: nabla theta = d_i theta_j
    worst = np.maximum.reduce([
        total_symmetry_residual_batch(tj.d2),  # d_k g_ij = d_k d_i theta_j
        definiteness_gap(g),
        rel_residual(g - g.transpose(0, 2, 1), tj.value),
    ])
    assert rep["mean_residual"] == pytest.approx(float(np.mean(worst)), rel=1e-9)
    assert rep["max_residual"] == pytest.approx(float(np.max(worst)), rel=1e-9)


def test_koszul_domain_error_in_theta_fails_those_samples():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
    theta = OneFormField(chart, ["log(x0)", "0"])
    rep = koszul_check(flat_connection(chart), theta, PLAN)
    assert not rep.passed and rep.max_residual == math.inf
    assert "samples hit domain errors: log of non-positive value" in rep.notes[0]
    assert rep.extra["closedness"] == 0.0
    # an infinite residual fails under an infinite tolerance too
    rep = koszul_check(flat_connection(chart), theta, PLAN, tolerance=math.inf)
    assert not rep.passed and rep.max_residual == math.inf


# ---------------------------------------------------------------------------
# mapping torus
# ---------------------------------------------------------------------------

def test_mapping_torus_halfplane():
    struct, reports = halfplane_torus()
    names = [r.name for r in reports]
    assert names[:2] == ["mapping-torus-automorphism", "mapping-torus-seam"]
    assert all(r.passed for r in reports)
    assert reports[1].max_residual <= 1e-6
    assert check_lch(struct, PLAN).passed

    c = lee_constants(struct, PLAN)
    assert c.a == pytest.approx(4.0, abs=1e-6)
    assert c.mu == pytest.approx(-2.0 * LAM, abs=1e-6)
    assert c.u == pytest.approx(2.0 * LAM - 4.0, abs=1e-6)
    assert c.killing_residual < 1e-8 and c.radiant_residual < 1e-8

    ident = lee_identity_residual(struct, c, PLAN)
    assert ident.passed


def test_mapping_torus_translation_automorphism():
    struct, reports = halfplane_torus(q=3.0, automorphism=("x0", "x1 + 1"))
    assert all(r.passed for r in reports)
    assert check_lch(struct, PLAN).passed


def test_mapping_torus_rejects_non_isometry():
    with pytest.raises(MappingTorusError, match="preserve"):
        halfplane_torus(automorphism=("2*x0", "x1"))


@pytest.mark.parametrize("x1_image, bad", [("log(x1 - 2)", "all"),  # x1 < 1
                                            ("x1 + 0*log(x1)", "of")])  # identity where x1 > 0
def test_mapping_torus_rejects_a_map_off_its_domain(x1_image, bad):
    # the points where the map raises count as failed samples of the gate
    with pytest.raises(MappingTorusError, match="preserve") as err:
        halfplane_torus(automorphism=("x0", x1_image))
    note = f"{bad} {PLAN.count} samples hit domain errors: log of non-positive value"
    assert note in str(err.value)


def test_symmetry_map_needs_one_component_per_coordinate():
    with pytest.raises(ValueError, match="mapping needs 2 components, got 1"):
        check_symmetry(hopf_lch(), ["x0"], PLAN)


def test_symmetry_mean_is_over_samples():
    # (1.1 x0, x1) moves the Hopf metric and Lee form but not the flat
    # connection; mean_residual is the mean over samples of the worst term,
    # not the mean of the terms' worst values
    struct = hopf_lch()
    plan = SamplePlan(seed=42)
    rep = check_symmetry(struct, ["1.1*x0", "x1"], plan)
    x0, x1 = struct.chart.sample(plan).T
    r2, r2_at = x0 * x0 + x1 * x1, 1.21 * x0 * x0 + x1 * x1
    metric = np.maximum(np.abs(1.21 / r2_at - 1 / r2), np.abs(1 / r2_at - 1 / r2)) / (1 + 1 / r2)
    lee = np.maximum(np.abs(-2.42 * x0 / r2_at + 2 * x0 / r2),
                     np.abs(-2 * x1 / r2_at + 2 * x1 / r2))
    lee = lee / (1 + 2 * np.maximum(np.abs(x0), np.abs(x1)) / r2)
    assert not rep.passed
    assert rep.extra["connection"] == 0.0
    assert rep.extra["metric"] == pytest.approx(metric.max(), rel=1e-12)
    assert rep.extra["lee_form"] == pytest.approx(lee.max(), rel=1e-12)
    assert rep.mean_residual == pytest.approx(np.maximum(metric, lee).mean(), rel=1e-12)
    assert rep.mean_residual < np.mean(list(rep.extra.values())) - 1e-3


def test_mapping_torus_spec_validation():
    base = halfplane_base()
    with pytest.raises(ValueError, match="positive"):
        MappingTorusSpec(base, ("x0", "x1"), -1.0, LAM)
    with pytest.raises(ValueError, match="differ from 1"):
        MappingTorusSpec(base, ("x0", "x1"), 1.0, LAM)
    with pytest.raises(DegenerateLambdaError):
        MappingTorusSpec(base, ("x0", "x1"), 2.0, 2.0)
    with pytest.raises(ValueError, match="components"):
        MappingTorusSpec(base, ("x0",), 2.0, LAM)


def test_mapping_torus_fiber_recovery():
    base = halfplane_base()
    struct, _ = halfplane_torus()
    n = base.chart.dim
    surface = [ex.Var(a) for a in range(n)] + [ex.ONE]
    transversal = VectorFieldT(
        struct.chart,
        [ex.ZERO] * n + [ex.div(ex.Var(n), ex.const(2.0 - LAM))],
    )
    phi = ex.div(ex.powi(ex.Var(n), 2), ex.const(4.0 - 2.0 * LAM))
    recovered, _ = level_set_statistical(
        struct.conn, phi, surface, base.chart, transversal, plan=PLAN,
    )
    pts = base.chart.sample(PLAN)
    gv = base.metric.eval(pts, 0).value
    dev = np.max(np.abs(recovered.metric.eval(pts, 0).value - gv)) / (1.0 + np.max(np.abs(gv)))
    assert dev <= 1e-5
    est = estimate_constant_curvature(recovered, PLAN)
    assert est.c == pytest.approx(-1.0, abs=1e-4)


@pytest.mark.parametrize("build,c_sign", [
    (lambda: halfplane_torus(lam=1.0 + math.sqrt(2.0)), -1),
    (lambda: halfplane_torus(lam=1.0 - math.sqrt(2.0)), -1),
    (lambda: build_mapping_torus(
        MappingTorusSpec(
            StatisticalStructure(
                sphere_chart(), levi_civita(sphere_metric()), sphere_metric()
            ),
            ("x0", "x1"), 2.0, 1.0,
        ),
        plan=PLAN,
    ), +1),
])
def test_mapping_torus_curvature_sign_rule(build, c_sign):
    # c < 0 exactly when mu leaves [-a, 0]
    struct, _ = build()
    c = lee_constants(struct, PLAN)
    outside = c.mu < -c.a - 1e-9 or c.mu > 1e-9
    assert outside == (c_sign < 0)
    assert c.a == pytest.approx(4.0, abs=1e-6)


# ---------------------------------------------------------------------------
# identity closure across the example structures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    hopf_lch,
    lambda: halfplane_torus()[0],
    lambda: cone_lch_structure(OrthantCone(2)),
    lambda: cone_lch_structure(OrthantCone(3)),
    lambda: cone_lch_structure(LorentzCone(2)),
])
def test_radiant_structures_close_under_the_identity(build):
    struct = build()
    assert check_lch(struct, PLAN).passed
    c = lee_constants(struct, PLAN)
    assert c.killing_residual <= 1e-6 and c.radiant_residual <= 1e-6
    assert lee_identity_residual(struct, c, PLAN).passed
    rebuilt = metric_from_lee(struct.conn, struct.lee_form, c.u, PLAN)
    pts = struct.chart.sample(PLAN)
    gv = struct.metric.eval(pts, 0).value
    dev = np.max(np.abs(rebuilt.eval(pts, 0).value - gv)) / (1.0 + np.max(np.abs(gv)))
    assert dev <= 1e-6


def test_orthant_cone_lee_constants_match_closed_form():
    for n in (2, 3):
        struct = cone_lch_structure(OrthantCone(n))
        c = lee_constants(struct, PLAN)
        assert c.mu == pytest.approx(1.0 / (n + 1), abs=1e-9)
        assert c.a == pytest.approx(n / (n + 1.0), abs=1e-9)
        assert c.u == pytest.approx(-1.0, abs=1e-9)


def test_lee_field_is_determined_up_to_scale():
    # a symmetry field with the same invariances must be a multiple of xi
    chart, conn, g, theta, _ = hopf_structure()
    xi = lee_vector_field(g, theta)
    zeta = VectorFieldT(chart, ["x0", "x1"])  # Euler field: -xi/2
    pts = chart.sample(PLAN)
    xv = xi.eval(pts, 0).value
    zv = zeta.eval(pts, 0).value
    kappa = float(np.sum(xv * zv) / np.sum(xv * xv))
    assert kappa == pytest.approx(-0.5, abs=1e-12)
    assert np.max(np.abs(zv - kappa * xv)) <= 1e-10


def test_minimal_covering_scaling():
    # with the gauge potential removed, -(2/a) xi is an exact homothety field
    struct, _ = halfplane_torus()
    chart = struct.chart
    n = chart.dim
    center = 0.5 * (chart.lo() + chart.hi())
    gauge = LineIntegralGauge(struct.lee_form.entries, center)
    descended = MetricField(chart, [[gauged(gauge, -1.0, g_ij) for g_ij in row]
                                    for row in struct.metric.entries])
    scaled = VectorFieldT(chart, [ex.ZERO] * (n - 1) + [ex.Var(n - 1)])  # -(2/a) xi
    pts = chart.sample(PLAN)
    lie = lie_derivative_metric_batch(scaled, descended, pts)
    gv = descended.eval(pts, 0).value
    assert np.max(np.abs(lie - 2.0 * gv)) / (1.0 + np.max(np.abs(gv))) <= 1e-8


# ---------------------------------------------------------------------------
# monodromy rank
# ---------------------------------------------------------------------------

def test_monodromy_rank_examples():
    assert monodromy_rank(MonodromyCharacter((1,))) == 1
    assert monodromy_rank([0, 0, 0]) == 0
    assert monodromy_rank([1, Fraction(1, 2), 3]) == 1
    assert monodromy_rank(["1/2", "2/3"]) == 1
    assert monodromy_rank([]) == 0


def test_monodromy_rejects_floats():
    with pytest.raises(TypeError, match="exact"):
        MonodromyCharacter((0.5,))


@given(st.lists(st.fractions(), max_size=8))
def test_monodromy_rank_is_zero_one(exps):
    rank = monodromy_rank(exps)
    assert rank == (1 if any(e != 0 for e in exps) else 0)


# ---------------------------------------------------------------------------
# openness probe
# ---------------------------------------------------------------------------

def test_probe_torus_structure():
    struct = poincare_lch()
    alpha = OneFormField(struct.chart, ["0", "1"])
    eps = lee_perturbation_probe(struct, alpha, PLAN)
    assert eps >= 1e-3
    half = perturbed_structure(struct, alpha, eps / 2.0, PLAN)
    assert check_lch(half, PLAN).passed


def test_probe_zero_perturbation_hits_ceiling():
    struct = poincare_lch()
    zero = OneFormField(struct.chart, ["0", "0"])
    assert lee_perturbation_probe(struct, zero, PLAN, eps_hi=4.0) == 4.0


def test_probe_rescaling_theta():
    struct = hopf_lch()
    eps = lee_perturbation_probe(struct, struct.lee_form, PLAN)
    assert eps > 0.0
    scaled = perturbed_structure(struct, struct.lee_form, min(eps, 1.0) / 2.0, PLAN)
    assert check_lch(scaled, PLAN).passed


def test_probe_requires_closed_alpha():
    struct = hopf_lch()
    alpha = OneFormField(struct.chart, ["x1", "0"])
    with pytest.raises(ValueError, match="closed"):
        lee_perturbation_probe(struct, alpha, PLAN)


def test_probe_returns_zero_for_broken_structure():
    chart, conn, g, _, _ = hopf_structure()
    broken = LCHStructure(chart, conn, g, OneFormField(chart, ["0", "0"]))
    alpha = OneFormField(chart, ["0", "1"])
    assert lee_perturbation_probe(broken, alpha, PLAN) == 0.0


def test_perturbed_structure_raises_when_rejected():
    chart, conn, g, _, _ = hopf_structure()
    broken = LCHStructure(chart, conn, g, OneFormField(chart, ["0", "0"]))
    alpha = OneFormField(chart, ["0", "1"])
    with pytest.raises(NotPositiveDefiniteError):
        perturbed_structure(broken, alpha, 0.0, PLAN)


def _metric_pullback_call():
    """The spec and operand names of the metric pullback in `_pullback_residuals`."""
    tree = ast.parse(inspect.getsource(lch._pullback_residuals))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "pull_g"):
            spec, *names = node.value.args
            return spec.value, [n.id for n in names]
    raise AssertionError("no metric pullback found")


def test_metric_pullback_builds_no_intermediate():
    # 20 000 samples of a dim-3 map: the pullback's scratch, its (m, 3, 3)
    # result included, stays below one (m, 3, 3, 3) array, so no product of
    # two of its three operands is formed
    m = 20_000
    chart = Chart(3, ((0.5, 1.5),) * 3)
    g = MetricField(chart, [["1 + x0^2", "x1", "0"], ["x1", "2", "x0*x2"],
                            ["0", "x0*x2", "3 + x1"]])
    phi = VectorFieldT(chart, ["x1 + 0.1*x0^2", "x2*x0", "x0 - x1*x2"])
    pts = np.random.default_rng(4).uniform(0.5, 1.5, (m, 3))
    pj = phi.eval(pts, 2)
    jac = pj.d1
    operands = {"jac": jac, "g_at": g.eval(pj.value, 0).value}
    spec, names = _metric_pullback_call()
    tracemalloc.start()
    try:
        pulled = np.einsum(spec, *[operands[n] for n in names])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = np.einsum("acu,acd,adv->auv", jac, operands["g_at"], jac)
    assert np.allclose(pulled, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    assert peak < m * 27 * 8
