"""Cone membership, characteristic functions, and barrier structures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hesslab.cones import (
    LATTICE_SHIFTS,
    PSI_SAMPLES,
    LorentzCone,
    MonteCarloDivergenceError,
    NoClosedFormError,
    OrthantCone,
    OutsideConeError,
    PolyhedralCone,
    ProductCone,
    PsiValue,
    characteristic_function,
    cone_from_spec,
    cone_lch_structure,
    log_psi_metric,
    sample_interior,
    surface_statistical_structure,
)
from hesslab.geomcore import (
    Chart,
    SamplePlan,
    covariant_derivative_metric_batch,
    eigenvalue_definiteness,
    total_symmetry_residual_batch,
)
from hesslab.hesstat import check_statistical, estimate_constant_curvature
from mc_reference import reference_psi, uniform_ball

PLAN = SamplePlan(count=60, seed=9)
MC_N = 200_000


def lorentz_psi_oracle(x):
    """psi for any Lorentz cone, via boost invariance: the integral only
    depends on q = sqrt(x0^2 - |xbar|^2), and at (q, 0, ..., 0) it separates
    into a radial Gamma integral times the unit-ball volume."""
    x = np.asarray(x, float)
    n = len(x)
    q2 = x[0] ** 2 - np.dot(x[1:], x[1:])
    ball = math.pi ** ((n - 1) / 2.0) / math.gamma((n + 1) / 2.0)
    return ball * math.gamma(n) / q2 ** (n / 2.0)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_orthant_membership():
    cone = OrthantCone(2)
    assert cone.contains((1, 1))
    assert not cone.contains((1, -1))
    assert not cone.contains((1, 0))  # boundary is out, strictly
    assert cone.dual_contains((0.3, 2.0))


def test_lorentz_membership():
    cone = LorentzCone(2)
    assert cone.contains((1, 0))
    assert cone.dual_contains((1, 0))
    assert not cone.contains((1, 1))
    assert not cone.contains((1, 1.2))


def test_polyhedral_membership_and_duality():
    cone = PolyhedralCone([[1, 0], [1, 1]])
    assert not cone.dual_contains((0, 1))  # pairs to zero with (1,0): boundary
    assert cone.dual_contains((1, 0.5))
    assert cone.contains((1, 0.5))
    assert not cone.contains((1, 0))
    assert not cone.contains((0, 1))
    assert not cone.contains((1, 1))


def test_polyhedral_validation():
    with pytest.raises(ValueError, match="span"):
        PolyhedralCone([[1, 0], [2, 0]])
    with pytest.raises(ValueError, match="straight line"):
        PolyhedralCone([[1, 0], [-1, 0], [0, 1]])


_COLD_START = """
import sys
import hesslab
from hesslab import cli
assert cli.main(["example", "hopf", "--samples", "20"]) == 0
assert "scipy.optimize" not in sys.modules, "scipy.optimize loaded by a hopf run"
cone = hesslab.PolyhedralCone([[1, 0], [0, 1]])
assert cone.contains((1, 2)) is True
assert "scipy.optimize" in sys.modules
"""


_COLD_CONE_SCENES = """
import sys
from hesslab import cli
for name in ("orthant_cone", "lorentz_cone"):
    assert cli.main(["example", name, "--samples", "20"]) == 0
assert not [m for m in sys.modules if m.startswith("scipy")], "scipy loaded by a cone scene"
from hesslab.cones import LorentzCone, characteristic_function
characteristic_function(LorentzCone(3), (2.0, 0.5, 0.3), "monte_carlo", samples=64)
assert "scipy.special" in sys.modules
"""


def _run_cold(script):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hesslab

    src = str(Path(hesslab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_scipy_optimize_loads_only_for_a_polyhedral_cone():
    _run_cold(_COLD_START)


def test_bundled_cone_scenes_load_no_scipy():
    # Monte Carlo psi of orthant(2) and lorentz(2) needs only numpy; the
    # normal variates of a Lorentz ball of dimension >= 2 load scipy.special
    _run_cold(_COLD_CONE_SCENES)


def test_self_duality_on_random_points():
    rng = np.random.default_rng(4)
    for cone in (OrthantCone(3), LorentzCone(3)):
        inside = sample_interior(cone, 50, seed=5)
        outside = rng.normal(size=(50, 3)) * 3.0
        for p in np.vstack([inside, outside]):
            assert cone.contains(p) == cone.dual_contains(p)


def test_product_membership():
    cone = ProductCone([OrthantCone(1), LorentzCone(2)])
    assert cone.contains((1.0, 1.0, 0.2))
    assert not cone.contains((-1.0, 1.0, 0.2))
    assert not cone.contains((1.0, 0.5, 0.9))
    assert cone.dual_contains((2.0, 1.0, 0.0))


def test_sample_interior_lands_inside():
    for cone in (OrthantCone(2), LorentzCone(3),
                 PolyhedralCone([[1, 0], [1, 1]]),
                 ProductCone([OrthantCone(1), LorentzCone(2)])):
        pts = sample_interior(cone, 40, seed=11)
        assert pts.shape == (40, cone.dim)
        assert all(cone.contains(p) for p in pts)


# ---------------------------------------------------------------------------
# characteristic function: closed forms
# ---------------------------------------------------------------------------

def test_orthant_closed_form():
    psi = characteristic_function(OrthantCone(2), (2, 3))
    assert psi.value == 1.0 / 6.0
    assert psi.stderr == 0.0 and psi.method == "closed_form"


def test_lorentz_closed_form():
    psi = characteristic_function(LorentzCone(2), (1, 0))
    assert psi.value == 2.0
    psi = characteristic_function(LorentzCone(2), (2.0, 0.5))
    assert psi.value == pytest.approx(2.0 / (4.0 - 0.25), rel=1e-15)
    assert psi.value == pytest.approx(lorentz_psi_oracle((2.0, 0.5)), rel=1e-12)


def test_simplicial_polyhedral_closed_form():
    # substitute z = G y in the dual integral: psi = 1/(|det G| * prod <w, x>)
    cone = PolyhedralCone([[1, 0], [1, 1]])
    psi = characteristic_function(cone, (2.0, 0.5))
    assert psi.value == pytest.approx(1.0 / ((2.0 - 0.5) * 0.5), rel=1e-12)


def test_product_closed_form_multiplies():
    cone = ProductCone([OrthantCone(2), LorentzCone(2)])
    psi = characteristic_function(cone, (2.0, 3.0, 1.0, 0.0))
    assert psi.value == pytest.approx((1.0 / 6.0) * 2.0, rel=1e-14)


def test_no_closed_form_for_big_lorentz():
    with pytest.raises(NoClosedFormError):
        characteristic_function(LorentzCone(3), (1, 0, 0))


def test_outside_point_rejected():
    with pytest.raises(OutsideConeError):
        characteristic_function(OrthantCone(2), (-1.0, 2.0))
    with pytest.raises(OutsideConeError):
        characteristic_function(OrthantCone(2), (0.0, 2.0))


def test_psi_value_invariants():
    with pytest.raises(ValueError):
        PsiValue(0.0, 0.0, "closed_form")
    with pytest.raises(ValueError):
        PsiValue(1.0, -0.1, "closed_form")
    with pytest.raises(ValueError, match="standard error must be >= 0, not nan"):
        PsiValue(1.0, math.nan, "monte_carlo")


# ---------------------------------------------------------------------------
# characteristic function: Monte Carlo
# ---------------------------------------------------------------------------

def test_orthant_monte_carlo_matches_closed_form():
    cone = OrthantCone(2)
    exact = characteristic_function(cone, (2, 3)).value
    psi = characteristic_function(cone, (2, 3), "monte_carlo", samples=MC_N, seed=42)
    assert psi.stderr > 0.0
    assert abs(psi.value - exact) <= 3.0 * psi.stderr


def test_lorentz_monte_carlo_matches_closed_form():
    cone = LorentzCone(2)
    for x in [(1.0, 0.0), (2.0, 0.7)]:
        exact = characteristic_function(cone, x).value
        psi = characteristic_function(cone, x, "monte_carlo", samples=MC_N, seed=7)
        assert abs(psi.value - exact) <= 3.0 * psi.stderr


def test_lorentz3_monte_carlo_against_boost_oracle():
    cone = LorentzCone(3)
    for x in [(1.0, 0.0, 0.0), (2.0, 0.4, -0.6)]:
        psi = characteristic_function(cone, x, "monte_carlo", samples=MC_N, seed=13)
        assert abs(psi.value - lorentz_psi_oracle(x)) <= 3.0 * psi.stderr


def test_simplicial_polyhedral_monte_carlo():
    cone = PolyhedralCone([[1, 0], [1, 1]])
    x = (2.0, 0.5)
    exact = characteristic_function(cone, x).value
    psi = characteristic_function(cone, x, "monte_carlo", samples=MC_N, seed=21)
    assert abs(psi.value - exact) <= 3.0 * psi.stderr


def test_square_cone_monte_carlo_against_quadrature():
    # dual of the cone over the unit square is {y0 >= |y1| + |y2|}; slicing at
    # fixed y0 gives area 2*y0^2, so psi(1,0,0) = int e^{-t} 2 t^2 dt = 4
    cone = PolyhedralCone([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]])
    with pytest.raises(NoClosedFormError):
        characteristic_function(cone, (1.0, 0.0, 0.0))
    psi = characteristic_function(cone, (1.0, 0.0, 0.0), "monte_carlo",
                                  samples=MC_N, seed=3)
    assert abs(psi.value - 4.0) <= 3.0 * psi.stderr
    off = (1.5, 0.2, -0.3)
    psi_off = characteristic_function(cone, off, "monte_carlo", samples=MC_N, seed=5)
    assert psi_off.stderr / psi_off.value < 0.05


def test_redundant_generator_changes_nothing():
    lean = PolyhedralCone([[1, 0], [1, 1]])
    fat = PolyhedralCone([[1, 0], [1, 1], [2, 1]])
    x = (2.0, 0.5)
    exact = characteristic_function(lean, x).value
    psi = characteristic_function(fat, x, "monte_carlo", samples=MC_N, seed=17)
    assert abs(psi.value - exact) <= 3.0 * psi.stderr


def test_product_monte_carlo():
    cone = ProductCone([OrthantCone(1), LorentzCone(2)])
    x = (1.5, 2.0, 0.3)
    exact = (1.0 / 1.5) * lorentz_psi_oracle((2.0, 0.3))
    psi = characteristic_function(cone, x, "monte_carlo", samples=MC_N, seed=29)
    assert psi.stderr > 0.0
    assert abs(psi.value - exact) <= 3.0 * psi.stderr


def test_monte_carlo_agreement_rate():
    # seeded 3-sigma agreement on a batch of interior points
    cone = OrthantCone(3)
    pts = sample_interior(cone, 20, seed=31)
    exact = [characteristic_function(cone, p).value for p in pts]
    hits = 0
    for k, p in enumerate(pts):
        psi = characteristic_function(cone, p, "monte_carlo", samples=20_000, seed=100 + k)
        hits += abs(psi.value - exact[k]) <= 3.0 * psi.stderr
    assert hits >= 19  # at least 95%


def test_monte_carlo_is_deterministic():
    cone = LorentzCone(3)
    a = characteristic_function(cone, (1.5, 0.2, 0.1), "monte_carlo", samples=50_000, seed=8)
    b = characteristic_function(cone, (1.5, 0.2, 0.1), "monte_carlo", samples=50_000, seed=8)
    assert a.value == b.value and a.stderr == b.stderr


MC_REFERENCE_CONES = {
    "orthant2": (OrthantCone(2), (2.0, 3.0)),
    "orthant3": (OrthantCone(3), (1.0, 2.0, 0.5)),
    "lorentz2": (LorentzCone(2), (1.5, 0.5)),
    "lorentz3": (LorentzCone(3), (2.0, 0.5, 0.3)),
    "simplicial": (PolyhedralCone([[1, 0, 0], [1, 1, 0], [1, 1, 1]]), (3.0, 0.5, 0.2)),
    "square": (PolyhedralCone([[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]),
               (1.5, 0.2, -0.3)),
    "product": (ProductCone([OrthantCone(1), LorentzCone(2)]), (1.5, 2.0, 0.3)),
}


# a shift of the lattice is a chunk of budget // LATTICE_SHIFTS points: the
# default budget fills 32 chunks of 8192, 250 001 leaves 17 points unused,
# and a budget of 32 gives each shift one point
@pytest.mark.parametrize("total", [PSI_SAMPLES, 250_001, LATTICE_SHIFTS],
                         ids=["full-chunks", "partial-last-chunk", "under-one-chunk"])
@pytest.mark.parametrize("name", list(MC_REFERENCE_CONES))
def test_monte_carlo_matches_the_plain_reference_bit_for_bit(name, total):
    # same lattice, same shifts, same floating-point operations
    cone, x = MC_REFERENCE_CONES[name]
    psi = characteristic_function(cone, x, "monte_carlo", samples=total, seed=42)
    value, stderr = reference_psi(cone, x, total, seed=42)
    assert psi.value == value and psi.stderr == stderr


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_lorentz_interior_samples_match_the_plain_reference(dim):
    rng = np.random.default_rng(np.random.SeedSequence(42))
    x0 = rng.uniform(1.0, 3.0, size=50)
    xbar = uniform_ball(rng, 50, dim - 1) * (0.8 * x0)[:, None]
    expected = np.column_stack([x0, xbar])
    assert sample_interior(LorentzCone(dim), 50).tobytes() == expected.tobytes()


def test_monte_carlo_divergence_near_boundary():
    cone = LorentzCone(2)
    with pytest.raises(MonteCarloDivergenceError):
        characteristic_function(cone, (1.0, 1.0 - 1e-7), "monte_carlo",
                                samples=20_000, seed=2)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        characteristic_function(OrthantCone(1), (1.0,), "quadrature")


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cone,x", [
    (OrthantCone(2), (2.0, 3.0)),
    (OrthantCone(3), (0.7, 1.3, 2.9)),
    (LorentzCone(2), (1.9, -0.4)),
    (PolyhedralCone([[1, 0], [1, 1]]), (2.0, 0.5)),
    (ProductCone([OrthantCone(1), LorentzCone(2)]), (0.8, 1.7, 0.2)),
])
def test_homogeneity_closed_form(cone, x):
    base = characteristic_function(cone, x).value
    for t in (0.5, 2.0, 7.0):
        scaled = characteristic_function(cone, tuple(t * v for v in x)).value
        assert abs(scaled * t ** cone.dim - base) <= 1e-9 * (1.0 + base)


def test_homogeneity_monte_carlo():
    cone = LorentzCone(3)
    x = np.array([1.4, 0.3, -0.2])
    base = characteristic_function(cone, x, "monte_carlo", samples=50_000, seed=6)
    for t in (0.5, 2.0, 7.0):
        scaled = characteristic_function(cone, t * x, "monte_carlo",
                                         samples=50_000, seed=6)
        tol = max(1e-9, 3.0 * math.hypot(base.stderr, scaled.stderr * t ** cone.dim))
        assert abs(scaled.value * t ** cone.dim - base.value) <= tol


# ---------------------------------------------------------------------------
# barrier metric
# ---------------------------------------------------------------------------

def _fd_hessian(f, x, h=1e-5):
    x = np.asarray(x, float)
    n = len(x)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            e_i = np.zeros(n); e_i[i] = h
            e_j = np.zeros(n); e_j[j] = h
            out[i, j] = (
                f(x + e_i + e_j) - f(x + e_i - e_j)
                - f(x - e_i + e_j) + f(x - e_i - e_j)
            ) / (4.0 * h * h)
    return out


def test_log_psi_metric_orthant_values():
    out = log_psi_metric(OrthantCone(2), np.array([(1.0, 2.0)]))[0]
    assert np.allclose(out, np.diag([1.0, 0.25]))


def test_log_psi_metric_lorentz_values():
    out = log_psi_metric(LorentzCone(2), np.array([(1.0, 0.0)]))[0]
    assert np.allclose(out, np.diag([2.0, 2.0]))


@pytest.mark.parametrize("cone,x", [
    (OrthantCone(3), (0.9, 1.7, 0.5)),
    (LorentzCone(2), (1.7, 0.4)),
    (PolyhedralCone([[1, 0], [1, 1]]), (2.0, 0.5)),
])
def test_log_psi_metric_against_finite_differences(cone, x):
    exact = log_psi_metric(cone, np.array([x]))[0]

    def lnpsi(p):
        return math.log(characteristic_function(cone, p).value)

    fd = _fd_hessian(lnpsi, x)
    assert np.allclose(exact, fd, rtol=1e-4, atol=1e-5)


def _sympy_psi(kind: str, xs):
    """psi as sympy builds it from the cone's definition: the orthant's
    prod 1/x_i, the 2-d Lorentz cone's 2 / (x0^2 - x1^2), and for generator
    rows G the integral over the dual {G y >= 0}, which u = G y turns into
    1 / (|det G| prod (G^-T x)_i)."""
    import sympy

    if kind == "orthant":
        return sympy.Mul(*[1 / x for x in xs])
    if kind == "lorentz":
        return 2 / (xs[0] ** 2 - xs[1] ** 2)
    g = sympy.Matrix(_SIMPLICIAL)
    return 1 / (abs(g.det()) * sympy.Mul(*(g.inv().T * sympy.Matrix(xs))))


_SIMPLICIAL = [[1, 0, 0], [1, 2, 0], [1, 1, 3]]
_ORACLE_CONES = {  # the cone, and the (kind, dim) of each factor
    "orthant(3)": (OrthantCone(3), [("orthant", 3)]),
    "lorentz(2)": (LorentzCone(2), [("lorentz", 2)]),
    "simplicial": (PolyhedralCone(_SIMPLICIAL), [("simplicial", 3)]),
    "product": (ProductCone([LorentzCone(2), OrthantCone(1), PolyhedralCone(_SIMPLICIAL)]),
                [("lorentz", 2), ("orthant", 1), ("simplicial", 3)]),
}


@pytest.mark.parametrize("name", list(_ORACLE_CONES))
def test_log_psi_metric_matches_sympys_hessian(name):
    # Hess(ln psi) from the jets of psi's tree against sympy's Hessian of
    # ln psi, built from each cone's definition and evaluated at 30 digits
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    cone, factors = _ORACLE_CONES[name]
    xs = sympy.symbols(f"x0:{cone.dim}")
    log_psi, start = 0, 0
    for kind, dim in factors:
        log_psi += sympy.log(_sympy_psi(kind, xs[start:start + dim]))
        start += dim
    fn = sympy.lambdify(xs, sympy.hessian(log_psi, xs), modules="mpmath")
    pts = sample_interior(cone, 12, seed=31)
    with mpmath.workdps(30):
        want = np.array([np.array(fn(*map(mpmath.mpf, p)).tolist(), float) for p in pts])
    error = np.max(np.abs(log_psi_metric(cone, pts) - want), axis=(1, 2))
    assert np.all(error <= 1e-13 * np.max(np.abs(want), axis=(1, 2)))


def test_log_psi_metric_positive_definite_on_samples():
    for cone in (OrthantCone(2), OrthantCone(4), LorentzCone(2),
                 PolyhedralCone([[1, 0], [1, 1]])):
        pts = sample_interior(cone, 40, seed=23)
        mats = log_psi_metric(cone, pts)
        assert eigenvalue_definiteness(mats)[0].min() > 0.0


def test_log_psi_metric_needs_closed_form():
    with pytest.raises(NoClosedFormError):
        log_psi_metric(LorentzCone(3), np.array([(1.0, 0.0, 0.0)]))


def test_log_psi_metric_rejects_outside_points():
    with pytest.raises(OutsideConeError):
        log_psi_metric(OrthantCone(2), np.array([(1.0, -1.0)]))


# ---------------------------------------------------------------------------
# characteristic surface
# ---------------------------------------------------------------------------

def test_surface_structure_orthant3():
    chart = Chart(2, ((-0.5, 0.5), (-0.5, 0.5)))
    struct = surface_statistical_structure(
        OrthantCone(3), ["exp(x0)", "exp(x1)", "exp(-x0 - x1)"], chart, plan=PLAN,
    )
    assert check_statistical(struct, PLAN).passed
    est = estimate_constant_curvature(struct, PLAN)
    assert est.c < 0 and est.residual <= 1e-6


def test_surface_structure_orthant2_is_one_dimensional():
    chart = Chart(1, ((-0.5, 0.5),))
    struct = surface_statistical_structure(
        OrthantCone(2), ["exp(x0)", "exp(-x0)"], chart, plan=PLAN,
    )
    assert check_statistical(struct, PLAN).passed
    est = estimate_constant_curvature(struct, PLAN)
    assert (est.c, est.residual) == (0.0, 0.0)


def test_surface_structure_lorentz2_hyperbola():
    # {psi = 1} is x0^2 - x1^2 = 2, parametrized by scaled hyperbolic angle
    chart = Chart(1, ((-0.6, 0.6),))
    r = math.sqrt(2.0)
    surface = [
        f"{r!r} * (exp(x0) + exp(-x0)) / 2",
        f"{r!r} * (exp(x0) - exp(-x0)) / 2",
    ]
    struct = surface_statistical_structure(LorentzCone(2), surface, chart, plan=PLAN)
    assert check_statistical(struct, PLAN).passed


# ---------------------------------------------------------------------------
# cone l.c.H. structure
# ---------------------------------------------------------------------------

def test_cone_lch_orthant2_fields():
    struct = cone_lch_structure(OrthantCone(2))
    pts = struct.chart.sample(PLAN)
    gval = struct.metric.eval(pts, 0).value
    x = pts
    expected = np.empty_like(gval)
    for i in range(2):
        for j in range(2):
            expected[:, i, j] = (1.0 + (i == j)) / (x[:, i] * x[:, j])
    assert np.allclose(gval, expected, rtol=1e-12)
    tval = struct.lee_form.eval(pts, 0).value
    assert np.allclose(tval, 1.0 / x, rtol=1e-12)


def test_cone_lch_metric_is_gauge_symmetric():
    # nabla g - theta (x) g equals the third derivative tensor of psi over psi,
    # which is totally symmetric; verify on samples for two cones
    for cone in (OrthantCone(3), LorentzCone(2)):
        struct = cone_lch_structure(cone)
        pts = struct.chart.sample(PLAN)
        nabla = covariant_derivative_metric_batch(struct.conn, struct.metric, pts)
        gval = struct.metric.eval(pts, 0).value
        tval = struct.lee_form.eval(pts, 0).value
        twisted = nabla - np.einsum("ai,ajk->aijk", tval, gval)
        assert np.max(total_symmetry_residual_batch(twisted)) < 1e-11
        assert eigenvalue_definiteness(gval)[0].min() > 0.0


def test_cone_lch_rejects_conefull_without_chart():
    cone = PolyhedralCone([[1, 0], [1, 1]])
    with pytest.raises(ValueError, match="chart"):
        cone_lch_structure(cone)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def test_cone_from_spec_forms():
    assert cone_from_spec("orthant(3)").dim == 3
    assert cone_from_spec("lorentz(2)").kind == "lorentz"
    assert cone_from_spec({"kind": "orthant", "dim": 2}).dim == 2
    poly = cone_from_spec({"kind": "polyhedral", "generators": [[1, 0], [1, 1]]})
    assert poly.kind == "polyhedral"
    prod = cone_from_spec({
        "kind": "product",
        "factors": [{"kind": "orthant", "dim": 1}, {"kind": "lorentz", "dim": 2}],
    })
    assert prod.dim == 3
    assert cone_from_spec('{"kind": "orthant", "dim": 4}').dim == 4


def test_cone_from_spec_errors():
    with pytest.raises(ValueError, match="cannot parse"):
        cone_from_spec("cube(3)")
    with pytest.raises(ValueError, match="kind"):
        cone_from_spec({"dim": 3})
    with pytest.raises(ValueError, match="unknown cone kind"):
        cone_from_spec({"kind": "icecream", "dim": 3})
    with pytest.raises(ValueError, match="dict or string, got list"):
        cone_from_spec([1, 2])
    with pytest.raises(ValueError, match="dict or string"):
        cone_from_spec('[1, 2]')
    for spec in ({"kind": "orthant"}, {"kind": "orthant", "dim": None},
                 {"kind": "lorentz", "dim": 2.5}, {"kind": "lorentz", "dim": "2"},
                 {"kind": "orthant", "dim": True}):
        with pytest.raises(ValueError, match="integer 'dim'"):
            cone_from_spec(spec)
    for factors in (3, "orthant(2)", {"kind": "orthant", "dim": 1}):
        with pytest.raises(ValueError, match="list of 'factors'"):
            cone_from_spec({"kind": "product", "factors": factors})


def test_dimension_mismatch_message():
    with pytest.raises(ValueError, match="dimension 2"):
        OrthantCone(2).contains((1.0, 1.0, 1.0))
