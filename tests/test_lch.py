"""Locally conformally Hessian structures, Lee fields, tori, and the probe."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from hesslab.cones import LorentzCone, OrthantCone, cone_lch_structure
from hesslab.geomcore import (
    Chart,
    ChartError,
    LineIntegralGauge,
    MetricField,
    OneFormField,
    PathDependenceError,
    SamplePlan,
    VectorFieldT,
    entry_tree,
    euclidean_metric,
    flat_connection,
    levi_civita,
    lie_derivative_metric_batch,
)
from hesslab.geomcore import GaugedEntry
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
    build_mapping_torus,
    check_lch,
    koszul_check,
    lee_constants,
    lee_identity_residual,
    lee_perturbation_probe,
    lee_vector,
    lee_vector_field,
    local_hessian_gauge,
    metric_from_lee,
    monodromy_rank,
    perturbed_structure,
)

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
    assert np.allclose(lee_vector(g, theta, (1.0, 0.0)), [-2.0, 0.0])
    assert np.allclose(lee_vector(g, theta, (0.6, 1.1)), [-1.2, -2.2])


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
    chart = Chart(2, ((0.5, 1.5), (0.5, 1.5)))
    g = euclidean_metric(chart)
    fuzz = LCHStructure(chart, flat_connection(chart), g, OneFormField(chart, ["x1", "0"]))
    with pytest.raises(PathDependenceError):
        local_hessian_gauge(fuzz, (1.0, 1.0), plan=PLAN)


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
    ttrees = [entry_tree(struct.lee_form.entries[i]) for i in range(n)]
    center = 0.5 * (chart.lo() + chart.hi())
    gauge = LineIntegralGauge(ttrees, center)
    entries = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            entry = GaugedEntry(gauge, -1.0, struct.metric.entries[i, j])
            entries[i, j] = entry
            entries[j, i] = entry
    descended = MetricField(chart, entries)
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
