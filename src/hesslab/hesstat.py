"""Hessian, radiant, self-similar, and statistical structures on flat charts.

Two kinds of verbs live here.  ``check_*`` functions sample a chart and return
a :class:`~hesslab.geomcore.CheckReport`; builders (``build_cone_structure``,
``level_set_statistical``, ``dual_connection``) assemble new fields, gating
them behind numerical preconditions and postconditions where the construction
is derived rather than copied from a closed form.

The central construction is the cone correspondence: a statistical structure
(D, g_M) of constant curvature c on a base chart lifts to a flat radiant
structure on base x (0, inf) with metric s^2 g_M + ds^2, and restricting that
cone back to {s = 1} recovers the base.  ``build_cone_structure`` and
``restrict_cone`` (through ``level_set_statistical``) are the two directions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import expr as ex
from .expr import Expression, Value
from .geomcore import (
    DEFAULT_TOLERANCE,
    Chart,
    ChartError,
    CheckReport,
    ConnectionField,
    MetricField,
    OneFormField,
    SamplePlan,
    ScalarField,
    VectorFieldT,
    adjugate_expressions,
    as_entry,
    closedness_residual,
    covariant_derivative_metric_batch,
    covariant_derivative_vector_batch,
    covariant_hessian_trees,
    curvature_slices,
    definiteness_gap,
    det_expression,
    flatness_residual,
    held_result,
    in_domain,
    inverse_metric_expressions,
    lie_derivative_metric_batch,
    max_abs,
    rel_residual,
    residual_passes,
    samples_first,
    sample_check,
    torsion_residual,
    total_symmetry_residual_batch,
)
from .jets import clean, evaluate

__all__ = [
    "StatisticalStructure",
    "ConeStructure",
    "CurvatureEstimate",
    "ConeConstructionError",
    "DegenerateLambdaError",
    "TransversalityError",
    "SurfaceConstraintError",
    "nondegenerate_lambda",
    "structure_terms",
    "check_hessian_structure",
    "check_radiant",
    "check_self_similar",
    "check_potential_field",
    "dual_connection",
    "duality_residual_batch",
    "check_statistical",
    "estimate_constant_curvature",
    "block_metric",
    "build_cone_structure",
    "restrict_cone",
    "level_set_statistical",
    "potential_identity_residual",
]


class ConeConstructionError(ValueError):
    """A cone precondition or postcondition did not hold numerically."""


class DegenerateLambdaError(ConeConstructionError):
    """lambda in {0, 2} or not finite: radiance degenerates at 0 and the cone
    potential s^2/(4 - 2*lambda) is undefined at 2, so no such value admits
    a cone."""


def nondegenerate_lambda(lam) -> float:
    """``lam`` as a float; raises DegenerateLambdaError when it is not
    finite or lies near 0 or 2."""
    lam = float(lam)
    if not math.isfinite(lam) or abs(lam) <= 1e-9 or abs(lam - 2.0) <= 1e-9:
        raise DegenerateLambdaError(
            "lambda must be finite and stay away from 0 and 2: radiance "
            "degenerates at 0 and the potential s^2/(4-2*lambda) is undefined at 2"
        )
    return lam


class TransversalityError(ValueError):
    """The transversal field became tangent to the surface at a sample."""


class SurfaceConstraintError(ValueError):
    """The parametrized surface left the level set it was declared to lie on."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class StatisticalStructure(Value):
    """A torsion-free connection D and metric g with Dg totally symmetric."""

    __slots__ = __match_args__ = ("chart", "conn", "metric")

    def __init__(self, chart: Chart, conn: ConnectionField, metric: MetricField):
        if conn.chart != chart or metric.chart != chart:
            raise ValueError("statistical structure fields must share one chart")
        self._set(chart, conn, metric)


class ConeStructure(Value):
    """Flat radiant structure on base x (0, inf): g = s^2 g_M + ds^2.

    ``lam`` is the radiance constant: nabla(s d/ds) = lam * Id.  ``base`` is
    the statistical structure the cone lies over, on the first dim - 1
    coordinates.  ``reports`` holds the postconditions when the structure came
    out of ``build_cone_structure``; hand-built instances may leave it empty.
    """

    __slots__ = __match_args__ = ("chart", "conn", "metric", "radial", "lam", "base", "reports")

    def __init__(self, chart: Chart, conn: ConnectionField, metric: MetricField,
                 radial: VectorFieldT, lam: float, base: StatisticalStructure,
                 reports: tuple = ()):
        if chart.dim < 2:
            raise ValueError("a cone chart needs at least one base dimension")
        if not chart.positive[-1] or chart.box[-1][0] <= 0:
            raise ChartError("the radial coordinate must stay strictly positive")
        nondegenerate_lambda(lam)
        if not isinstance(base, StatisticalStructure) or base.chart.dim != chart.dim - 1:
            raise ValueError("a cone needs its base statistical structure, one dimension lower")
        for f in (conn, metric, radial):
            if f.chart != chart:
                raise ValueError("cone fields must share the cone chart")
        self._set(chart, conn, metric, radial, lam, base, reports)


class CurvatureEstimate(Value):
    """Least-squares fit of Theta(X,Y)Z = c (g(Y,Z)X - g(X,Z)Y)."""

    __slots__ = __match_args__ = ("c", "residual")

    def __init__(self, c: float, residual: float):
        if residual < 0:
            raise ValueError("curvature residual must be nonnegative")
        self._set(c, residual)


def _tree(obj, dim: int) -> Expression:
    return obj.entry if isinstance(obj, ScalarField) else as_entry(obj, dim)


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------


def structure_terms(conn: ConnectionField, g: MetricField, pts, *,
                    flatness: bool = True, theta=None) -> dict:
    """Named (m,) residual terms of the nested definitions.

    A statistical structure has torsion-free D with Dg totally symmetric and
    g positive definite; a Hessian structure adds flatness of D; an l.c.H.
    structure adds a closed Lee form theta and twists the symmetry to
    Dg - theta (x) g. Each term is kept with the held point set under the
    fields it reads (`held_result`), so a gate that repeats a term of an
    earlier gate on the same points reads it back. Every field is read at
    its top order first, so the lower-order reads on the same points are
    prefixes of one tensor. The flatness term comes before torsion: above
    one block its pass holds the values of Gamma that torsion reads. A flat
    connection's torsion and flatness are 0, and its Christoffel symbols are
    never evaluated.
    """
    terms = {"flatness": flatness_residual(conn, pts)} if flatness else {}
    terms["torsion"] = torsion_residual(conn, pts)
    if theta is not None:
        terms["closedness"] = closedness_residual(theta, pts)

    def symmetry():
        nabla = covariant_derivative_metric_batch(conn, g, pts)
        if theta is not None:
            nabla -= np.einsum("ai,ajk->aijk", theta.eval(pts, 0).value,
                               g.eval(pts, 0).value)
        return total_symmetry_residual_batch(nabla)

    terms["symmetry"] = held_result(("symmetry", conn, g, theta), pts, symmetry)
    terms["definiteness"] = held_result(("definiteness", g), pts,
                                        lambda: definiteness_gap(g.eval(pts, 0).value))
    return terms


def check_hessian_structure(conn: ConnectionField, g: MetricField, plan=None,
                            tolerance: float = DEFAULT_TOLERANCE,
                            name: str = "hessian-structure") -> CheckReport:
    """Torsion-freeness, flatness, total symmetry of nabla g, and positivity.

    The report's ``extra`` carries the worst residual of each ingredient so a
    failure can be attributed.
    """

    def residual(pts):
        return structure_terms(conn, g, pts)

    return sample_check(residual, conn.chart, plan or SamplePlan(), tolerance, name=name)


def check_radiant(conn: ConnectionField, xi: VectorFieldT, plan=None,
                  tolerance: float = DEFAULT_TOLERANCE, name: str = "radiant",
                  lam: float | None = None) -> CheckReport:
    """Does nabla xi = lam * Id hold for a single constant lam?

    When ``lam`` is not supplied it is estimated as the sample mean of
    trace(nabla xi)/dim over the samples in the fields' domain (NaN when
    there are none) and reported under ``extra["lambda"]``.
    """
    d = conn.chart.dim
    extra = {}

    def residual(pts):
        jac = covariant_derivative_vector_batch(conn, xi, pts)
        mu = lam
        if mu is None:
            trace = in_domain(np.trace(jac, axis1=1, axis2=2))
            mu = float(np.mean(trace)) / d if trace.size else math.nan
        extra["lambda"] = mu = float(mu)
        return max_abs(jac - mu * np.eye(d)) / (1.0 + abs(mu))

    return sample_check(residual, conn.chart, plan or SamplePlan(), tolerance, name=name,
                        extra=extra)


def check_self_similar(g: MetricField, xi: VectorFieldT, plan=None,
                       tolerance: float = DEFAULT_TOLERANCE,
                       name: str = "self-similar") -> CheckReport:
    """Lie derivative test: L_xi g = 2 g."""
    plan = plan or SamplePlan()

    def residual(pts):
        lie = lie_derivative_metric_batch(xi, g, pts)
        gval = g.eval(pts, 0).value
        return rel_residual(lie - 2.0 * gval, 2.0 * gval)

    return sample_check(residual, g.chart, plan, tolerance, name=name)


def check_potential_field(g: MetricField, xi: VectorFieldT, plan=None,
                          tolerance: float = DEFAULT_TOLERANCE,
                          name: str = "potential-field") -> CheckReport:
    """Is the one-form g(xi, .) closed?

    When the coordinate Jacobian of xi is constant across the samples in
    its domain, its eigenvalues are reported (``extra["eigenvalue_k"]``):
    for a potential field these are the scaling weights on the eigenspace
    decomposition.
    """
    d = g.chart.dim
    omega = OneFormField(g.chart, [
        ex.sum_of(ex.mul(xi.entries[k], g.entries[k, j]) for k in range(d))
        for j in range(d)])
    extra: dict[str, float] = {}

    def residual(pts):
        residuals = closedness_residual(omega, pts)
        jac = in_domain(xi.eval(pts, 1).grad)  # (sample, component, derivative)
        if not len(jac):
            return residuals
        jmean = jac.mean(axis=0)
        deviation = float(np.max(np.abs(jac - jmean)))
        if deviation <= 1e-8 * (1.0 + float(np.max(np.abs(jmean)))):
            eigs = np.linalg.eigvals(jmean)
            if float(np.max(np.abs(eigs.imag))) <= 1e-9:
                for k, val in enumerate(sorted(eigs.real)):
                    extra[f"eigenvalue_{k}"] = float(val)
        return residuals

    return sample_check(residual, g.chart, plan or SamplePlan(), tolerance, name=name,
                        extra=extra)


def check_statistical(struct: StatisticalStructure, plan=None,
                      tolerance: float = DEFAULT_TOLERANCE,
                      name: str = "statistical") -> CheckReport:
    """Torsion-freeness of D, total symmetry of Dg, positivity of g."""

    def residual(pts):
        return structure_terms(struct.conn, struct.metric, pts, flatness=False)

    return sample_check(residual, struct.chart, plan or SamplePlan(), tolerance, name=name)


# ---------------------------------------------------------------------------
# Dual connections
# ---------------------------------------------------------------------------


def dual_connection(conn: ConnectionField, g: MetricField) -> ConnectionField:
    """Connection D-bar with d_i g_{jl} = Gamma^m_{ij} g_{ml} + Gbar^m_{il} g_{jm}.

    Built symbolically through the inverse metric, so the result can feed any
    downstream check.  Entries must have a symbolic form (no gauge leaves);
    a singular metric surfaces as a division domain error at evaluation time.
    """
    chart = g.chart
    d = chart.dim
    rows, gam = g.entries, conn.entries
    ginv = inverse_metric_expressions(g)
    dual = np.empty((d, d, d), dtype=object)
    for k in range(d):
        for i in range(d):
            for l in range(d):
                terms = []
                for j in range(d):
                    inner = ex.diff(rows[j, l], i)
                    for m in range(d):
                        inner = ex.sub(inner, ex.mul(gam[m, i, j], rows[m, l]))
                    terms.append(ex.mul(ginv[j][k], inner))
                dual[k, i, l] = ex.sum_of(terms)
    return ConnectionField(chart, dual)


def duality_residual_batch(conn: ConnectionField, dual: ConnectionField,
                           g: MetricField, pts) -> np.ndarray:
    """Per-sample defect of the pairing identity defining dual connections."""
    gj = g.eval(pts, 1)
    gamma = conn.eval(pts, 0).value
    gammabar = dual.eval(pts, 0).value
    lhs = gj.grad.transpose(0, 3, 1, 2)  # (a, i, j, l) = d_i g_{jl}
    lhs = lhs - np.einsum("amij,aml->aijl", gamma, gj.value)
    lhs = lhs - np.einsum("amil,ajm->aijl", gammabar, gj.value)
    return rel_residual(lhs, gj.value)


# ---------------------------------------------------------------------------
# Constant curvature and the lambda equation
# ---------------------------------------------------------------------------


def estimate_constant_curvature(struct: StatisticalStructure, plan=None) -> CurvatureEstimate:
    """Fit c in Theta(X,Y)Z = c (g(Y,Z)X - g(X,Z)Y) by least squares.

    The fit runs over every curvature component at every sample; the residual
    is the worst relative deviation from the fitted model.  One-dimensional
    charts carry no curvature, so they report (0, 0). The estimate is kept
    with the held point set under (conn, metric).
    """
    plan = plan or SamplePlan()
    chart = struct.chart
    if chart.dim == 1:
        return CurvatureEstimate(0.0, 0.0)
    pts = chart.sample(plan)

    def fit():
        # The model is c * B with B^l_{ijk} = delta^l_i g_jk - delta^l_j g_ik,
        # never built: sum(R * B) is twice the trace T_jk = sum_l R^l_{ljk}
        # against g, and sum(B * B) = 2 (d - 1) |g|^2 at each sample. R's pair
        # slices (`curvature_slices`) are folded into (m,) rows, one row block
        # at a time. B reaches R^l_{ljk} and R^l_{jlk} = -R^l_{ljk} (l != j),
        # and x -> x - c g_jk is monotone under rounding, so the largest misfit
        # |R - c B| there is at the largest or smallest R^l_{ljk} over l != j:
        # the fold keeps those two, and max |R| over slice rows l not in {i, j}.
        d, m = chart.dim, len(pts)
        g = struct.metric.eval(pts, 0).value
        along, rest = np.empty(m), np.zeros(m)  # sum(R * B); max |R| where B = 0
        hi, lo = (samples_first(np.full((d, d, m), v)) for v in (-np.inf, np.inf))
        block = []  # the row block's T

        def take(rows, i, j, r):
            # R^i_{ijk} is a term of T_jk, R^j_{jik} = -R^j_{ijk} one of T_ik;
            # T_jk adds them from +0.0 in increasing l, as np.trace would
            if (i, j) == (0, 1):
                block.append(samples_first(np.zeros((d, d, len(r)))))
            for row, term in ((j, r[:, i]), (i, np.negative(r[:, j]))):
                block[0][:, row] += term
                np.maximum(hi[rows, row], term, out=hi[rows, row])
                np.minimum(lo[rows, row], term, out=lo[rows, row])
            r[:, (i, j)] = 0.0
            np.maximum(rest[rows], max_abs(r), out=rest[rows])
            if (i, j) == (d - 2, d - 1):
                trace = block.pop()
                along[rows] = np.einsum("ajk,ajk->a", trace + trace, g[rows])

        if struct.conn.flat:  # its slices are 0, and Gamma is never evaluated
            for i, j in itertools.combinations(range(d), 2):
                take(slice(None), i, j, samples_first(np.zeros((d, d, m))))
        else:
            curvature_slices(struct.conn, pts, take)
        denom = 2.0 * (d - 1) * float(np.sum(np.einsum("ajk,ajk->a", g, g)))
        c = float(np.sum(along)) / denom if denom != 0.0 else 0.0  # a NaN sum stays NaN
        # every g_jk appears in B, so max|c B| = max|c g|
        cg = c * g
        misfit = np.maximum(rest, max_abs(hi - cg))
        np.maximum(misfit, max_abs(lo - cg), out=misfit)
        residual = float(np.max(misfit / (1.0 + max_abs(cg))))
        return CurvatureEstimate(c, residual)

    return held_result(("curvature_estimate", struct.conn, struct.metric), pts, fit)


# ---------------------------------------------------------------------------
# Cone construction (base -> cone)
# ---------------------------------------------------------------------------


def build_cone_structure(base: StatisticalStructure, lam: float, *,
                         s_interval: tuple[float, float] = (0.5, 2.0),
                         plan=None,
                         tolerance: float = DEFAULT_TOLERANCE) -> ConeStructure:
    """Lift a constant-curvature statistical base to a flat radiant cone.

    The Christoffel symbols below are a derived closed form, not a quoted one,
    so the function verifies all of its own postconditions (flatness, radiance
    with the given lam, the metric block form, the potential identity, and the
    full Hessian-structure gate) and refuses to return a structure that fails
    any of them.  The result carries the reports.
    """
    plan = plan or SamplePlan()
    lam = nondegenerate_lambda(lam)
    stat = check_statistical(base, plan, tolerance)
    if not stat.passed:
        raise ConeConstructionError(
            f"base structure is not statistical: residual {stat.max_residual:.3e} "
            f"exceeds {tolerance:.1e}"
        )
    est = estimate_constant_curvature(base, plan)
    if not residual_passes(est.residual, tolerance):
        raise ConeConstructionError(
            f"base curvature is not constant: residual {est.residual:.3e} "
            f"exceeds {tolerance:.1e}"
        )
    if not residual_passes(abs(lam * (2.0 - lam) - est.c),
                           max(tolerance, 10.0 * est.residual)):
        raise ConeConstructionError(
            f"lambda*(2-lambda) = {lam * (2.0 - lam):.8f} does not match the "
            f"base curvature c = {est.c:.8f}"
        )
    lo, hi = float(s_interval[0]), float(s_interval[1])
    if lo <= 0:
        raise ValueError("the radial interval must stay strictly positive")

    n = base.chart.dim
    chart = Chart(n + 1, base.chart.box + ((lo, hi),),
                  positive=base.chart.positive + (True,))
    s = ex.Var(n)
    gm = base.metric.entries

    gamma = np.full((n + 1, n + 1, n + 1), ex.ZERO, dtype=object)
    gamma[:n, :n, :n] = base.conn.entries
    for a in range(n):
        for b in range(a, n):
            gamma[n, a, b] = gamma[n, b, a] = ex.mul(ex.const(lam - 2.0), ex.mul(s, gm[a, b]))
    mixed = ex.div(ex.const(lam), s)
    for a in range(n):
        gamma[a, a, n] = mixed
        gamma[a, n, a] = mixed
    gamma[n, n, n] = ex.div(ex.const(lam - 1.0), s)
    conn = ConnectionField(chart, gamma)

    metric = block_metric(chart, base.metric, ex.powi(s, 2), ex.ONE)
    radial = VectorFieldT(chart, [ex.ZERO] * n + [s])

    cone = ConeStructure(chart, conn, metric, radial, lam, base)
    reports = _cone_postcondition_reports(cone, base, plan, tolerance)
    failed = [rep.name for rep in reports if not rep.passed]
    if failed:
        raise ConeConstructionError("cone postconditions failed: " + ", ".join(failed))
    return ConeStructure(chart, conn, metric, radial, lam, base, tuple(reports))


def block_metric(chart: Chart, base_metric: MetricField, scale: Expression,
                 last: Expression) -> MetricField:
    """The metric scale * g_M + last * ds^2 on base x (s-interval): the cone
    metric s^2 g_M + ds^2, or the torus metric g_M + ds^2 / s^2 (a ``scale``
    of 1 keeps g_M's own trees)."""
    n = base_metric.chart.dim
    entries = np.full((n + 1, n + 1), ex.ZERO, dtype=object)
    for a in range(n):
        for b in range(a, n):
            entries[a, b] = entries[b, a] = ex.mul(scale, base_metric.entries[a, b])
    entries[n, n] = last
    return MetricField(chart, entries)


def _cone_postcondition_reports(cone: ConeStructure, base: StatisticalStructure,
                                plan: SamplePlan, tolerance: float) -> list[CheckReport]:
    chart = cone.chart
    n = chart.dim - 1

    # the flatness term of the cone-hessian gate below, computed once
    flatness = sample_check(lambda pts: flatness_residual(cone.conn, pts), chart, plan,
                            tolerance, name="cone-flatness")
    radiance = check_radiant(cone.conn, cone.radial, plan, tolerance,
                             name="cone-radiance", lam=cone.lam)

    def form_res(pts):
        gval = cone.metric.eval(pts, 1).value  # the order the cone-hessian gate reads
        base_val = base.metric.eval(np.ascontiguousarray(pts[:, :n]), 0).value
        s = pts[:, n]
        expected = np.zeros_like(gval)
        expected[:, :n, :n] = (s ** 2)[:, None, None] * base_val
        expected[:, n, n] = 1.0
        return rel_residual(gval - expected, expected)

    form = sample_check(form_res, chart, plan, tolerance, name="cone-metric-form")
    potential = potential_identity_residual(cone, plan, tolerance)
    hessian = check_hessian_structure(cone.conn, cone.metric, plan, tolerance,
                                      name="cone-hessian")
    return [flatness, radiance, form, potential, hessian]


def potential_identity_residual(cone: ConeStructure, plan=None,
                                tolerance: float = DEFAULT_TOLERANCE,
                                name: str = "cone-potential") -> CheckReport:
    """Residual of g = Hess( g(xi, xi) / (4 - 2*lambda) ) with xi = s d/ds."""
    plan = plan or SamplePlan()
    d = cone.chart.dim
    phi = _cone_potential(cone)
    hess = MetricField(cone.chart, covariant_hessian_trees(
        cone.conn, [ex.diff(phi, a) for a in range(d)]))

    def residual(pts):
        gval = cone.metric.eval(pts, 0).value
        return rel_residual(hess.eval(pts, 0).value - gval, gval)

    return sample_check(residual, cone.chart, plan, tolerance, name=name)


def _cone_potential(cone: ConeStructure) -> Expression:
    """phi = g(xi, xi) / (4 - 2*lambda) from the cone's radial field xi."""
    xi, g, d = cone.radial.entries, cone.metric.entries, cone.chart.dim
    terms = (ex.mul(g[i, j], ex.mul(xi[i], xi[j])) for i in range(d) for j in range(d))
    return ex.div(ex.sum_of(terms), ex.const(4.0 - 2.0 * cone.lam))


# ---------------------------------------------------------------------------
# Level-set restriction (cone -> base, and general hypersurfaces)
# ---------------------------------------------------------------------------


def restrict_cone(cone: ConeStructure, plan=None) -> StatisticalStructure:
    """The statistical structure induced on the unit slice s = 1 of a cone
    from ``build_cone_structure``, the inverse of the lift: the level set of
    phi = g(xi, xi) / (4 - 2*lambda) with transversal xi / (2 - lambda)."""
    surface = [ex.Var(a) for a in range(cone.chart.dim - 1)] + [ex.ONE]
    transversal = VectorFieldT(cone.chart, [ex.div(c, ex.const(2.0 - cone.lam))
                                            for c in cone.radial.entries])
    struct, _ = level_set_statistical(cone.conn, _cone_potential(cone), surface,
                                      cone.base.chart, transversal, plan=plan)
    return struct


def level_set_statistical(conn: ConnectionField, phi, surface, surface_chart: Chart,
                          transversal: VectorFieldT, *, plan=None,
                          tolerance: float = DEFAULT_TOLERANCE):
    """Induced statistical structure on a parametrized level set of phi.

    ``surface`` maps the surface chart into the ambient chart (one expression
    per ambient coordinate).  The ambient covariant derivative of the
    parametrization decomposes along tangents J and the transversal xi:

        d2x + Gamma(J, J) = D(.,.) J + h(.,.) xi

    which is solved symbolically through the adjugate of [J | xi], so the
    returned connection D and second fundamental form h are expression trees.
    The metric on the surface is the pullback of Hess(phi).

    Returns ``(StatisticalStructure, h)`` where h is a symmetric form (not
    necessarily definite).
    """
    plan = plan or SamplePlan()
    amb = conn.chart
    n = amb.dim
    k = surface_chart.dim
    if k != n - 1:
        raise ValueError(
            f"surface parametrization must have codimension 1: ambient dim {n}, "
            f"surface dim {k}"
        )
    xmap = [_tree(c, k) for c in surface]
    if len(xmap) != n:
        raise ValueError(f"surface needs {n} component expressions, got {len(xmap)}")
    subs = dict(enumerate(xmap))
    phi_tree = _tree(phi, n)

    jac = [[ex.diff(xmap[a], al) for al in range(k)] for a in range(n)]
    xi_sub = [ex.substitute(transversal.entries[c], subs) for c in range(n)]
    rows = [jac[c] + [xi_sub[c]] for c in range(n)]
    det = det_expression(rows)
    adj = adjugate_expressions(rows)

    pts = surface_chart.sample(plan)
    vals = clean(evaluate(ex.substitute(phi_tree, subs), pts, 0)).value
    spread = float(vals.max() - vals.min())
    if not residual_passes(spread, tolerance * (1.0 + abs(float(np.mean(vals))))):
        raise SurfaceConstraintError(
            f"parametrization does not stay on a level set of the potential: "
            f"values spread by {spread:.3e}"
        )
    detvals = clean(evaluate(det, pts, 0)).value
    if not np.min(np.abs(detvals)) > 1e-12 * (1.0 + np.max(np.abs(detvals))):
        raise TransversalityError(
            "transversal field becomes tangent to the surface on the chart"
        )

    gamma_sub = [
        [[ex.substitute(conn.entries[c, a, b], subs) for b in range(n)] for a in range(n)]
        for c in range(n)
    ]

    rhs = [[[ex.ZERO] * k for _ in range(k)] for _ in range(n)]
    for c in range(n):
        for al in range(k):
            for be in range(al, k):
                terms = [ex.diff(jac[c][al], be)]
                for a in range(n):
                    for b in range(n):
                        terms.append(ex.mul(gamma_sub[c][a][b],
                                            ex.mul(jac[a][al], jac[b][be])))
                tree = ex.sum_of(terms)
                rhs[c][al][be] = tree
                rhs[c][be][al] = tree

    dentries = np.empty((k, k, k), dtype=object)
    hentries = np.empty((k, k), dtype=object)
    for al in range(k):
        for be in range(al, k):
            col = [rhs[c][al][be] for c in range(n)]
            for gi in range(k):
                tree = ex.div(
                    ex.sum_of(ex.mul(adj[gi][c], col[c]) for c in range(n)), det
                )
                dentries[gi, al, be] = tree
                dentries[gi, be, al] = tree
            htree = ex.div(
                ex.sum_of(ex.mul(adj[k][c], col[c]) for c in range(n)), det
            )
            hentries[al, be] = htree
            hentries[be, al] = htree

    hess_amb = covariant_hessian_trees(conn, [ex.diff(phi_tree, a) for a in range(n)])
    hess_sub = [
        [ex.substitute(hess_amb[a, b], subs) for b in range(n)] for a in range(n)
    ]
    gentries = np.empty((k, k), dtype=object)
    for al in range(k):
        for be in range(al, k):
            tree = ex.sum_of(ex.mul(hess_sub[a][b], ex.mul(jac[a][al], jac[b][be]))
                             for a in range(n) for b in range(n))
            gentries[al, be] = tree
            gentries[be, al] = tree

    struct = StatisticalStructure(
        surface_chart,
        ConnectionField(surface_chart, dentries),
        MetricField(surface_chart, gentries),
    )
    return struct, MetricField(surface_chart, hentries)
