"""End-to-end acceptance checks, one test per criterion.

Each test computes its quantities at the stated tolerance, records a single
PASS/FAIL line (printed in the terminal summary), and then asserts.
"""

import math

import numpy as np

import conftest
from conftest import (
    e67_structure,
    halfplane_metric,
    hopf_structure,
    poincare_structure,
    sphere_metric,
)

from hesslab.cones import (
    characteristic_function,
    cone_from_spec,
    surface_statistical_structure,
)
from hesslab.geomcore import (
    Chart,
    MetricField,
    OneFormField,
    SamplePlan,
    flat_connection,
    levi_civita,
)
from hesslab.hesstat import (
    StatisticalStructure,
    build_cone_structure,
    check_hessian_structure,
    check_statistical,
    estimate_constant_curvature,
    restrict_cone,
)
from hesslab.lch import (
    LCHStructure,
    build_mapping_torus,
    check_lch,
    check_monodromy,
    koszul_check,
    lee_constants,
    lee_identity_residual,
    lee_perturbation_probe,
    metric_from_lee,
    perturbed_structure,
)
from hesslab.scenes import list_examples, run_example

PLAN = SamplePlan()  # 200 samples, seed 42
TOL = 1e-6
LAM = 1.0 + math.sqrt(2.0)


def record(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_RESULTS.append(f"criterion {num:02d}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def halfplane_base() -> StatisticalStructure:
    g = halfplane_metric()
    return StatisticalStructure(g.chart, levi_civita(g), g)


def unit_slice_restriction(cone, plan):
    """Recovered statistical structure on {s = 1} plus its metric deviation."""
    recovered = restrict_cone(cone, plan)
    pts = cone.base.chart.sample(plan)
    gv = cone.base.metric.eval(pts, 0).value
    dev = float(
        np.max(np.abs(recovered.metric.eval(pts, 0).value - gv))
        / (1.0 + np.abs(gv).max())
    )
    return recovered, dev


def test_criterion_01_hessian_gate():
    chart = Chart(2, ((-1.0, 1.0), (-1.0, 1.0)))
    g = MetricField(chart, [["exp(x0)", "0"], ["0", "exp(x1)"]])
    good = check_hessian_structure(flat_connection(chart), g, PLAN, TOL)
    hchart, hconn, hg, _, _ = hopf_structure()
    bad = check_hessian_structure(hconn, hg, PLAN, TOL)
    ok = good.passed and not bad.passed and bad.max_residual > 1e-2
    record(1, ok,
           f"exponential Hessian metric passes ({good.max_residual:.1e}); "
           f"cylinder metric without its Lee term fails "
           f"({bad.max_residual:.1e} > 1e-2)")


def test_criterion_02_curvature_oracle():
    gh = halfplane_metric()
    est_h = estimate_constant_curvature(
        StatisticalStructure(gh.chart, levi_civita(gh), gh), PLAN)
    gs = sphere_metric()
    est_s = estimate_constant_curvature(
        StatisticalStructure(gs.chart, levi_civita(gs), gs), PLAN)
    ok = abs(est_h.c + 1.0) <= 1e-5 and abs(est_s.c - 1.0) <= 1e-5
    record(2, ok,
           f"half-plane c = {est_h.c:.8f}, sphere c = {est_s.c:.8f} "
           f"(targets -1 and +1, tolerance 1e-5)")


def test_criterion_03_cone_round_trip():
    cone = build_cone_structure(halfplane_base(), LAM, plan=PLAN, tolerance=1e-5)
    worst = max(r.max_residual for r in cone.reports)
    recovered, dev = unit_slice_restriction(cone, PLAN)
    est = estimate_constant_curvature(recovered, PLAN)
    ok = (all(r.passed for r in cone.reports) and worst <= 1e-5
          and dev <= 1e-5 and abs(est.c + 1.0) <= 1e-4)
    record(3, ok,
           f"cone postconditions worst {worst:.1e} <= 1e-5; unit-slice metric "
           f"deviation {dev:.1e} <= 1e-5; recovered c = {est.c:.6f}")


def test_criterion_04_sphere_cone_is_flat():
    gs = sphere_metric()
    base = StatisticalStructure(gs.chart, levi_civita(gs), gs)
    cone = build_cone_structure(base, 1.0, plan=PLAN, tolerance=1e-6)
    flat = next(r for r in cone.reports if r.name == "cone-flatness")
    ok = flat.passed and flat.max_residual <= 1e-6
    record(4, ok,
           f"lambda = 1 cone over the sphere has curvature residual "
           f"{flat.max_residual:.1e} <= 1e-6")


def test_criterion_05_characteristic_function():
    cone = cone_from_spec("orthant(2)")
    exact = characteristic_function(cone, (2.0, 3.0))
    mc = characteristic_function(cone, (2.0, 3.0), "monte_carlo",
                                 samples=1_000_000, seed=42)
    x = np.array([2.0, 3.0])
    drift = max(
        abs(characteristic_function(cone, t * x).value * t ** 2 - exact.value)
        for t in (0.5, 2.0, 7.0)
    )
    ok = (exact.value == 1.0 / 6.0
          and abs(mc.value - 1.0 / 6.0) <= 3.0 * mc.stderr
          and drift <= 1e-9)
    record(5, ok,
           f"psi(2,3) = 1/6 exactly; Monte Carlo {mc.value:.6f} within "
           f"3 x {mc.stderr:.1e}; homogeneity drift {drift:.1e} <= 1e-9")


def test_criterion_06_surface_statistics():
    cone = cone_from_spec("orthant(3)")
    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)))
    struct = surface_statistical_structure(
        cone, ["exp(x0)", "exp(x1)", "exp(-x0 - x1)"], chart, plan=PLAN)
    rep = check_statistical(struct, PLAN, TOL)
    est = estimate_constant_curvature(struct, PLAN)
    ok = rep.passed and est.residual <= 1e-4 and est.c < 0.0
    record(6, ok,
           f"hypersurface structure passes ({rep.max_residual:.1e}); curvature "
           f"fit residual {est.residual:.1e} <= 1e-4 with c = {est.c:.6f} < 0")


def test_criterion_07_lee_identity():
    chart, conn, g, theta, _ = hopf_structure()
    struct = LCHStructure(chart, conn, g, theta)
    c = lee_constants(struct, PLAN)
    ident = lee_identity_residual(struct, c, PLAN, 1e-8)
    rebuilt = metric_from_lee(conn, theta, c.u, PLAN)
    pts = chart.sample(PLAN)
    gv = g.eval(pts, 0).value
    dev = float(np.max(np.abs(rebuilt.eval(pts, 0).value - gv))
                / (1.0 + np.abs(gv).max()))
    ok = (abs(c.a - 4.0) <= 1e-8 and abs(c.mu + 2.0) <= 1e-8
          and abs(c.u + 2.0) <= 1e-8 and ident.passed and dev <= 1e-6)
    record(7, ok,
           f"a = {c.a:.10f}, mu = {c.mu:.10f}, u = {c.u:.10f}; identity "
           f"residual {ident.max_residual:.1e} <= 1e-8; metric round trip "
           f"{dev:.1e} <= 1e-6")


def test_criterion_08_mapping_torus():
    struct = build_mapping_torus(halfplane_base(), ("x0", "x1"), 2.0, LAM,
                                 plan=PLAN, tolerance=1e-6)
    gate = check_lch(struct, PLAN, TOL)
    c = lee_constants(struct, PLAN)
    seam = next(r for r in struct.reports if r.name == "mapping-torus-seam")
    kos = koszul_check(struct.conn, struct.lee_form, PLAN, TOL)
    recovered, _ = unit_slice_restriction(struct.cone, PLAN)
    est = estimate_constant_curvature(recovered, PLAN)
    mono = check_monodromy(struct, 1, PLAN, TOL)
    chi, rank = mono.extra["character"], mono.extra["rank"]
    ok = (gate.passed and abs(c.mu + 2.0 * LAM) <= 1e-6
          and abs(c.a - 4.0) <= 1e-6 and seam.max_residual <= 1e-6
          and kos.passed and abs(est.c + 1.0) <= 1e-4 and mono.passed
          and abs(chi - 2.0 * math.log(2.0)) <= 1e-9 and rank == 1)
    record(8, ok,
           f"gate passes; mu = {c.mu:.8f} (target {-2.0 * LAM:.8f}), "
           f"a = {c.a:.8f}; seam {seam.max_residual:.1e} <= 1e-6; Koszul "
           f"passes (u = {c.u:.4f} > 0); fiber c = {est.c:.6f}; "
           f"monodromy character {chi:.12f} (2 log 2), rank {rank:g}")


def test_criterion_09_killing_affine_separation():
    echart, econn, eg, etheta, _ = e67_structure()
    ce = lee_constants(LCHStructure(echart, econn, eg, etheta), PLAN)
    pchart, pconn, pg, ptheta, _ = poincare_structure()
    cp = lee_constants(LCHStructure(pchart, pconn, pg, ptheta), PLAN)
    ok = (ce.killing_residual <= 1e-6 and ce.radiant_residual >= 1e-2
          and cp.affine_residual <= 1e-10 and cp.killing_residual >= 1e-2)
    record(9, ok,
           f"Killing-not-radiant: {ce.killing_residual:.1e} <= 1e-6 vs "
           f"{ce.radiant_residual:.1e} >= 1e-2; affine-not-Killing: "
           f"{cp.affine_residual:.1e} <= 1e-10 vs {cp.killing_residual:.1e} >= 1e-2")


def test_criterion_10_openness_probe():
    chart, conn, g, theta, _ = poincare_structure()
    struct = LCHStructure(chart, conn, g, theta)
    alpha = OneFormField(chart, ["0", "1"])
    eps = lee_perturbation_probe(struct, alpha, PLAN, TOL)
    half = perturbed_structure(struct, alpha, eps / 2.0, PLAN, TOL)
    rep = check_lch(half, PLAN, TOL)
    ok = eps >= 1e-3 and rep.passed
    record(10, ok,
           f"bisection accepts eps_max = {eps:g} >= 1e-3; the structure at "
           f"eps_max/2 passes ({rep.max_residual:.1e})")


def test_criterion_11_determinism():
    mismatched = [
        name for name in list_examples()
        if run_example(name).to_json() != run_example(name).to_json()
    ]
    ok = not mismatched
    record(11, ok,
           "all 10 registry examples repeat byte-identically" if ok
           else f"reports differ for: {', '.join(mismatched)}")
