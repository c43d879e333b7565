"""Locally conformally Hessian structures on flat charts.

An l.c.H. triple (nabla, g, theta) has a flat torsion-free connection, a
closed one-form, and the twisted symmetry condition: nabla g - theta (x) g is
totally symmetric.  Locally e^{-f} g is Hessian whenever theta = df.  This
module verifies such triples, analyses the Lee field xi = theta-sharp and its
constants (a, mu, u), rebuilds the metric from the Lee form, constructs
mapping tori over constant-curvature statistical bases, and runs the
openness probe that perturbs theta by a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .geomcore import (
    Chart,
    ChartError,
    CheckReport,
    ConnectionField,
    DEFAULT_TOLERANCE,
    GaugedEntry,
    LineIntegralGauge,
    MetricField,
    OneFormField,
    PD_FLOOR,
    SamplePlan,
    VectorFieldT,
    component_fold,
    covariant_derivative_metric_batch,
    covariant_derivative_oneform_batch,
    covariant_derivative_vector_batch,
    curvature_batch,
    definiteness_gap,
    entry_tree,
    exterior_derivative_oneform_batch,
    flat_connection,
    inverse_metric_expressions,
    lie_derivative_metric_batch,
    make_report,
    max_abs,
    rel_residual,
    sample_check,
    smallest_eigenvalues,
    total_symmetry_residual_batch,
)
from .hesstat import (
    DegenerateLambdaError,
    StatisticalStructure,
    build_cone_structure,
    check_hessian_structure,
    check_radiant,
)
from .jets import evaluate

__all__ = [
    "LCHStructure",
    "LeeConstants",
    "MappingTorusSpec",
    "MappingTorusError",
    "MonodromyCharacter",
    "NotPositiveDefiniteError",
    "build_mapping_torus",
    "check_lch",
    "check_symmetry",
    "koszul_check",
    "lee_constants",
    "lee_identity_residual",
    "lee_perturbation_probe",
    "lee_vector",
    "lee_vector_field",
    "local_hessian_gauge",
    "metric_from_lee",
    "monodromy_rank",
    "perturbed_structure",
]

# gate used when deciding whether a structure carries a radiant Killing Lee
# field (a structural yes/no, looser than the numerical check tolerances)
RADIANT_GATE = 1e-4


class NotPositiveDefiniteError(ValueError):
    """Candidate metric failed the positivity check; carries a witness."""

    def __init__(self, message, point=None, eigenvalue=None):
        super().__init__(message)
        self.point = None if point is None else np.asarray(point, float)
        self.eigenvalue = eigenvalue


class MappingTorusError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LCHStructure:
    """Flat connection, metric, and closed Lee form on one chart."""

    chart: Chart
    conn: ConnectionField
    metric: MetricField
    lee_form: OneFormField

    def __post_init__(self):
        for f in (self.conn, self.metric, self.lee_form):
            if f.chart != self.chart:
                raise ValueError("l.c.H. fields must share one chart")


@dataclass(frozen=True)
class LeeConstants:
    """Constants of a radiant Killing Lee field, with the residuals that
    justify calling them constants.

    ``a`` is the mean of g(xi, xi) over samples; its max deviation is folded
    into ``killing_residual`` (a is constant exactly when xi is Killing).
    ``mu`` is the fitted proportionality of nabla(xi) = mu * Id and
    ``radiant_residual`` the worst misfit.  ``affine_residual`` measures the
    second covariant derivative of xi, which vanishes for affine fields.
    """

    a: float
    mu: float
    u: float
    killing_residual: float
    radiant_residual: float
    affine_residual: float

    def __post_init__(self):
        if self.u != -(self.mu + self.a):
            raise ValueError("u must equal -(mu + a)")

    def admissible(self, gap: float = 1e-9) -> bool:
        """mu away from 0 and -a, the degenerate values for radiant fields."""
        return abs(self.mu) > gap and abs(self.mu + self.a) > gap


@dataclass(eq=False)
class MappingTorusSpec:
    """Base for a mapping torus: statistical fiber, automorphism, scale q.

    The automorphism is given as one expression per base coordinate; it must
    preserve the base metric and connection (checked by the builder).  The
    scale q > 0, q != 1 fixes the deck transformation (m, s) -> (phi(m), qs),
    and ``lam`` picks a root of lam*(2 - lam) = c for the cone lift.
    """

    base: StatisticalStructure
    automorphism: tuple
    scale: float
    lam: float

    def __post_init__(self):
        q = float(self.scale)
        if q <= 0.0:
            raise ValueError("the scale q must be positive")
        if abs(q - 1.0) <= 1e-9:
            raise ValueError("the scale q must differ from 1 (q = 1 glues nothing)")
        self.scale = q
        self.lam = float(self.lam)
        if abs(self.lam) <= 1e-9 or abs(self.lam - 2.0) <= 1e-9:
            raise DegenerateLambdaError(
                "lambda must stay away from 0 and 2: radiance degenerates at 0 "
                "and the potential s^2/(4-2*lambda) is undefined at 2"
            )
        dim = self.base.chart.dim
        comps = tuple(self.automorphism)
        if len(comps) != dim:
            raise ValueError(
                f"automorphism needs {dim} components, got {len(comps)}"
            )
        self.automorphism = tuple(
            c if isinstance(c, ex.Expression) else ex.parse_expression(c, dim)
            for c in comps
        )


@dataclass(frozen=True)
class MonodromyCharacter:
    """Multiplicative character values q^{r_i}, stored as exact exponents."""

    exponents: tuple

    def __post_init__(self):
        coerced = []
        for e in self.exponents:
            if isinstance(e, float):
                raise TypeError(
                    "monodromy exponents must be exact rationals (int, str or "
                    "Fraction), not floats"
                )
            coerced.append(Fraction(e))
        object.__setattr__(self, "exponents", tuple(coerced))


# ---------------------------------------------------------------------------
# Structure check
# ---------------------------------------------------------------------------


def check_lch(struct: LCHStructure, plan=None,
              tolerance: float = DEFAULT_TOLERANCE,
              name: str = "lch-structure") -> CheckReport:
    """Flatness, torsion, closedness of theta, twisted symmetry, positivity.

    The twisted symmetry condition is total symmetry of
    nabla g - theta (x) g; component residuals land in ``extra``.
    """
    plan = plan or SamplePlan()
    comps: dict[str, float] = {}
    _fold = component_fold(comps)

    conn, g, theta = struct.conn, struct.metric, struct.lee_form

    def residual(pts):
        gamma = conn.eval(pts, 0).value
        torsion = _fold("torsion", rel_residual(gamma - gamma.transpose(0, 1, 3, 2), gamma))
        flatness = _fold("flatness", rel_residual(curvature_batch(conn, pts), gamma))
        tval = theta.eval(pts, 0).value
        closed = _fold("closedness",
                       rel_residual(exterior_derivative_oneform_batch(theta, pts), tval))
        gval = g.eval(pts, 0).value
        twisted = covariant_derivative_metric_batch(conn, g, pts)
        twisted -= np.einsum("ai,ajk->aijk", tval, gval)
        symmetry = _fold("symmetry", total_symmetry_residual_batch(twisted))
        definite = _fold("definiteness", definiteness_gap(gval))
        return np.maximum.reduce([torsion, flatness, closed, symmetry, definite])

    return sample_check(residual, struct.chart, plan, tolerance, name=name, extra=comps)


# ---------------------------------------------------------------------------
# Lee field and its constants
# ---------------------------------------------------------------------------


def lee_vector_field(metric: MetricField, theta: OneFormField) -> VectorFieldT:
    """xi = theta-sharp as expression trees: xi^i = g^{ij} theta_j."""
    n = metric.chart.dim
    inv = inverse_metric_expressions(metric)
    ttrees = [entry_tree(theta.entries[i]) for i in range(n)]
    comps = []
    for i in range(n):
        terms = [
            ex.mul(inv[i][j], ttrees[j])
            for j in range(n)
            if inv[i][j] != ex.ZERO and ttrees[j] != ex.ZERO
        ]
        comps.append(ex.sum_of(terms))
    return VectorFieldT(metric.chart, comps)


def lee_vector(metric: MetricField, theta: OneFormField, p) -> np.ndarray:
    """Pointwise Lee vector: solve g(p) xi = theta(p)."""
    pt = np.asarray(p, float).reshape(1, -1)
    gval = metric.eval(pt, 0).value[0]
    tval = theta.eval(pt, 0).value[0]
    return np.linalg.solve(gval, tval)


def lee_constants(struct: LCHStructure, plan=None) -> LeeConstants:
    """Estimate (a, mu, u) of the Lee field together with the residuals that
    decide whether the field is Killing, radiant, and affine."""
    plan = plan or SamplePlan()
    chart = struct.chart
    pts = chart.sample(plan)
    xi = lee_vector_field(struct.metric, struct.lee_form)

    gval = struct.metric.eval(pts, 0).value
    xival = xi.eval(pts, 0).value
    avals = np.einsum("aij,ai,aj->a", gval, xival, xival)
    a = float(np.mean(avals))
    a_dev = float(np.max(np.abs(avals - a))) / (1.0 + abs(a))

    lie = lie_derivative_metric_batch(xi, struct.metric, pts)
    killing = float(np.max(rel_residual(lie, gval)))
    killing = max(killing, a_dev)

    radiant_report = check_radiant(struct.conn, xi, plan)
    mu = float(radiant_report.extra["lambda"])
    radiant = float(radiant_report.max_residual)

    affine = _affine_residual(struct.conn, xi, pts)
    return LeeConstants(
        a=a,
        mu=mu,
        u=-(mu + a),
        killing_residual=killing,
        radiant_residual=radiant,
        affine_residual=affine,
    )


def _affine_residual(conn: ConnectionField, xi: VectorFieldT, pts) -> float:
    """Worst second covariant derivative of xi, relative to |nabla xi|."""
    n = conn.chart.dim
    xtrees = [entry_tree(xi.entries[i]) for i in range(n)]
    gtrees = None
    if not conn.flat:
        gtrees = [
            [[entry_tree(conn.entries[k, i, j]) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]

    # T^i_j = nabla_j xi^i as trees, then one more covariant derivative
    terms = []
    for i in range(n):
        for j in range(n):
            term = ex.diff(xtrees[i], j)
            if gtrees is not None:
                term = ex.sum_of(
                    [term]
                    + [
                        ex.mul(gtrees[i][j][k], xtrees[k])
                        for k in range(n)
                        if gtrees[i][j][k] != ex.ZERO and xtrees[k] != ex.ZERO
                    ]
                )
            terms.append(term)
    jets = evaluate(terms, pts, 1)
    m = pts.shape[0]
    tval = np.stack([j.value for j in jets], axis=1).reshape(m, n, n)
    td1 = np.stack([j.grad for j in jets], axis=1).reshape(m, n, n, n)

    second = td1
    if not conn.flat:
        c = conn.eval(pts, 0).value
        second = second + np.einsum("aikl,alj->aijk", c, tval)
        second = second - np.einsum("alkj,ail->aijk", c, tval)
    return float(np.max(rel_residual(second, tval)))


def lee_identity_residual(struct: LCHStructure, constants: LeeConstants,
                          plan=None, tolerance: float = DEFAULT_TOLERANCE,
                          name: str = "lee-identity") -> CheckReport:
    """Residual of u*g = nabla(theta) - theta (x) theta over samples.

    The identity holds for radiant Killing Lee fields, so those residuals are
    treated as hypotheses: violating them is an error, not a failed report.
    """
    gate = max(tolerance, RADIANT_GATE)
    if constants.killing_residual > gate or constants.radiant_residual > gate:
        raise ValueError(
            "the identity u*g = nabla(theta) - theta(x)theta assumes a Killing "
            f"radiant Lee field; residuals (killing {constants.killing_residual:.3g}, "
            f"radiant {constants.radiant_residual:.3g}) exceed {gate:.3g}"
        )
    plan = plan or SamplePlan()
    u = constants.u
    conn, g, theta = struct.conn, struct.metric, struct.lee_form

    def residual(pts):
        gval = g.eval(pts, 0).value
        tval = theta.eval(pts, 0).value
        rhs = covariant_derivative_oneform_batch(conn, theta, pts)
        rhs -= np.einsum("ai,aj->aij", tval, tval)
        return rel_residual(u * gval - rhs, u * gval)

    return sample_check(residual, struct.chart, plan, tolerance, name=name,
                        extra={"u": u})


# ---------------------------------------------------------------------------
# Metric reconstruction and the Koszul check
# ---------------------------------------------------------------------------


def _nabla_theta_trees(conn: ConnectionField, ttrees) -> np.ndarray:
    """(nabla theta)_{ij} as a mirrored tree matrix (valid once d(theta) = 0)."""
    n = len(ttrees)
    gtrees = None
    if not conn.flat:
        gtrees = [
            [[entry_tree(conn.entries[k, i, j]) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            term = ex.diff(ttrees[j], i)
            if gtrees is not None:
                drop = [
                    ex.mul(gtrees[k][i][j], ttrees[k])
                    for k in range(n)
                    if gtrees[k][i][j] != ex.ZERO and ttrees[k] != ex.ZERO
                ]
                if drop:
                    term = ex.sub(term, ex.sum_of(drop))
            out[i, j] = term
            out[j, i] = term
    return out


def _require_closed(theta: OneFormField, pts, tolerance, what: str):
    tval = theta.eval(pts, 0).value
    res = float(np.max(rel_residual(exterior_derivative_oneform_batch(theta, pts), tval)))
    if res > tolerance:
        raise ValueError(f"{what} must be closed; d residual {res:.3g} > {tolerance:.3g}")


def metric_from_lee(conn: ConnectionField, theta: OneFormField, u: float,
                    plan=None, tolerance: float = DEFAULT_TOLERANCE) -> MetricField:
    """Candidate metric u^{-1} (nabla theta - theta (x) theta).

    Rejects a candidate that is not positive definite at the sampled points,
    reporting the witnessing point and its smallest eigenvalue.
    """
    u = float(u)
    if u == 0.0:
        raise ValueError("u must be nonzero")
    plan = plan or SamplePlan()
    chart = conn.chart
    pts = chart.sample(plan)
    _require_closed(theta, pts, max(tolerance, RADIANT_GATE), "the Lee form")

    n = chart.dim
    ttrees = [entry_tree(theta.entries[i]) for i in range(n)]
    trees = _nabla_theta_trees(conn, ttrees)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            tree = ex.sub(trees[i, j], ex.mul(ttrees[i], ttrees[j]))
            if u != 1.0:
                tree = ex.div(tree, ex.const(u))
            out[i, j] = tree
            out[j, i] = tree
    candidate = MetricField(chart, out)

    vals = candidate.eval(pts, 0).value
    mins = smallest_eigenvalues(vals)
    worst = int(np.argmin(mins))
    if mins[worst] <= PD_FLOOR:
        raise NotPositiveDefiniteError(
            "candidate metric from the Lee form is not positive definite: "
            f"smallest eigenvalue {mins[worst]:.3g} at {pts[worst].tolist()}",
            point=pts[worst],
            eigenvalue=float(mins[worst]),
        )
    return candidate


def koszul_check(conn: ConnectionField, theta: OneFormField, plan=None,
                 tolerance: float = DEFAULT_TOLERANCE,
                 name: str = "koszul") -> CheckReport:
    """Is nabla(theta) a Hessian metric for this connection?

    Aggregates closedness of theta with the full Hessian-structure gate
    (torsion, flatness, total symmetry, positive definiteness) applied to
    g = nabla theta.
    """
    plan = plan or SamplePlan()
    chart = conn.chart
    n = chart.dim
    ttrees = [entry_tree(theta.entries[i]) for i in range(n)]
    candidate = MetricField(chart, _nabla_theta_trees(conn, ttrees))
    inner = check_hessian_structure(conn, candidate, plan, tolerance, name=name)

    pts = chart.sample(plan)
    tval = theta.eval(pts, 0).value
    closed = float(np.max(rel_residual(
        exterior_derivative_oneform_batch(theta, pts), tval)))
    extra = dict(inner.extra)
    extra["closedness"] = closed
    worst = max(inner.max_residual, closed)
    return make_report(name, [worst, inner.mean_residual], tolerance,
                       samples=inner.samples, extra=extra, notes=inner.notes)


def local_hessian_gauge(struct: LCHStructure, base_point, p=None, *,
                        plan=None, tolerance: float = DEFAULT_TOLERANCE,
                        fraction: float = 0.5):
    """Gauge potential f with df = theta, plus the Hessian check of e^{-f} g.

    f is the line integral of theta from ``base_point`` along straight
    segments (the chart box is convex, so segments stay inside); a two-path
    comparison rejects non-closed forms.  Returns ``(f(p), report)`` where the
    report runs the Hessian gate for e^{-f} g on a sub-box around the base.
    """
    chart = struct.chart
    base = np.asarray(base_point, float)
    if not chart.contains(base):
        raise ChartError("gauge base point lies outside the chart box")
    target = base if p is None else np.asarray(p, float)
    if not chart.contains(target):
        raise ChartError(
            "gauge target point lies outside the chart box; the integration "
            "segment would exit the chart"
        )
    n = chart.dim
    ttrees = [entry_tree(struct.lee_form.entries[i]) for i in range(n)]
    gauge = LineIntegralGauge(ttrees, base)
    gauge.check_closed(chart, max(tolerance, RADIANT_GATE))
    f_p = float(gauge.values(target.reshape(1, -1))[0])

    sub = chart.subbox(base, fraction)
    entries = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            entry = GaugedEntry(gauge, -1.0, struct.metric.entries[i, j])
            entries[i, j] = entry
            entries[j, i] = entry
    gauged = MetricField(sub, entries)
    conn = struct.conn
    sub_conn = (
        flat_connection(sub)
        if conn.flat
        else ConnectionField(sub, conn.entries)
    )
    report = check_hessian_structure(sub_conn, gauged, plan or SamplePlan(),
                                     tolerance, name="hessian-gauge")
    return f_p, report


# ---------------------------------------------------------------------------
# Mapping torus
# ---------------------------------------------------------------------------


def _map_jets(map_trees, pts):
    jets = evaluate(map_trees, pts, 2)
    image = np.stack([j.value for j in jets], axis=1)
    jac = np.stack([j.grad for j in jets], axis=1)        # (m, c, u) = d_u phi^c
    hess = np.stack([j.hess for j in jets], axis=1)       # (m, c, u, v)
    return image, jac, hess


def _pullback_residuals(map_trees, conn, metric, theta, pts):
    """Residuals of phi^* (g, Gamma, theta) against the fields themselves."""
    image, jac, hess = _map_jets(map_trees, pts)

    gval = metric.eval(pts, 0).value
    g_at = metric.eval(image, 0).value
    pull_g = np.einsum("acu,adv,acd->auv", jac, jac, g_at)
    res = {"metric": float(np.max(rel_residual(pull_g - gval, gval)))}

    cval = conn.eval(pts, 0).value
    c_at = conn.eval(image, 0).value
    inner = np.einsum("acde,adu,aev->acuv", c_at, jac, jac) + hess
    m, n = pts.shape
    pulled = np.linalg.solve(jac, inner.reshape(m, n, n * n)).reshape(m, n, n, n)
    res["connection"] = float(np.max(rel_residual(pulled - cval, cval)))

    if theta is not None:
        tval = theta.eval(pts, 0).value
        t_at = theta.eval(image, 0).value
        pull_t = np.einsum("ac,acu->au", t_at, jac)
        res["lee_form"] = float(np.max(rel_residual(pull_t - tval, tval)))
    return res


def check_symmetry(struct: LCHStructure, mapping, plan=None,
                   tolerance: float = DEFAULT_TOLERANCE,
                   name: str = "symmetry") -> CheckReport:
    """Does a coordinate map pull (g, nabla, theta) back to themselves?

    ``mapping`` gives one expression per coordinate.  Sample points are mapped
    through it, so the image must stay inside the fields' domain (not
    necessarily inside the chart box).
    """
    plan = plan or SamplePlan()
    n = struct.chart.dim
    trees = tuple(
        c if isinstance(c, ex.Expression) else ex.parse_expression(c, n)
        for c in mapping
    )
    if len(trees) != n:
        raise ValueError(f"mapping needs {n} components, got {len(trees)}")
    pts = struct.chart.sample(plan)
    res = _pullback_residuals(trees, struct.conn, struct.metric,
                              struct.lee_form, pts)
    return make_report(name, list(res.values()), tolerance,
                       samples=pts.shape[0], extra=res)


def build_mapping_torus(spec: MappingTorusSpec, *, plan=None,
                        tolerance: float = DEFAULT_TOLERANCE):
    """L.c.H. structure on the fundamental domain M x [1, q] of a mapping torus.

    The total metric is g_M + ds^2/s^2 (the cone metric rescaled by 1/s^2),
    the Lee form is -2 ds/s, and the connection is the flat radiant cone
    connection over the base.  Precondition: the automorphism preserves the
    base metric and connection.  The returned gluing report certifies that
    the deck map (m, s) -> (phi(m), q s) pulls all three fields back to
    themselves across the seam.

    Returns ``(structure, reports)`` with the automorphism, seam, and cone
    postcondition reports.
    """
    plan = plan or SamplePlan()
    base = spec.base
    k = base.chart.dim
    q = spec.scale

    base_pts = base.chart.sample(plan)
    auto = _pullback_residuals(spec.automorphism, base.conn, base.metric, None, base_pts)
    worst_auto = max(auto.values())
    if worst_auto > tolerance:
        raise MappingTorusError(
            "automorphism does not preserve the base structure "
            f"(metric residual {auto['metric']:.3g}, "
            f"connection residual {auto['connection']:.3g})"
        )
    auto_report = make_report("mapping-torus-automorphism",
                              list(auto.values()), tolerance,
                              samples=plan.count, extra=auto)

    lo, hi = min(1.0, q), max(1.0, q)
    cone = build_cone_structure(base, spec.lam, s_interval=(lo, hi),
                                plan=plan, tolerance=tolerance)
    chart = cone.chart
    n = k + 1
    s = ex.Var(k)

    entries = np.empty((n, n), dtype=object)
    for a in range(k):
        for b in range(a, k):
            tree = entry_tree(base.metric.entries[a, b])
            entries[a, b] = tree
            entries[b, a] = tree
        entries[a, k] = ex.ZERO
        entries[k, a] = ex.ZERO
    entries[k, k] = ex.div(ex.ONE, ex.powi(s, 2))
    metric = MetricField(chart, entries)

    theta = OneFormField(
        chart, [ex.ZERO] * k + [ex.neg(ex.div(ex.const(2.0), s))]
    )
    struct = LCHStructure(chart, cone.conn, metric, theta)

    seam_map = list(spec.automorphism) + [ex.mul(ex.const(q), s)]
    seam_pts = np.hstack([base_pts, np.ones((base_pts.shape[0], 1))])
    seam = _pullback_residuals(seam_map, cone.conn, metric, theta, seam_pts)
    worst_seam = max(seam.values())
    if worst_seam > tolerance:
        raise MappingTorusError(
            f"seam residual {worst_seam:.3g} exceeds {tolerance:.3g}: the deck "
            "map does not glue the structure"
        )
    seam_report = make_report("mapping-torus-seam", list(seam.values()),
                              tolerance, samples=seam_pts.shape[0], extra=seam)

    return struct, (auto_report, seam_report) + cone.reports


# ---------------------------------------------------------------------------
# Monodromy rank
# ---------------------------------------------------------------------------


def _rational_rank(rows) -> int:
    """Rank of a matrix of Fractions by exact Gaussian elimination."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(rank + 1, len(work)):
            if work[r][col] != 0:
                factor = work[r][col] / lead
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def monodromy_rank(char) -> int:
    """Rank over the rationals of the group generated by the exponents."""
    if not isinstance(char, MonodromyCharacter):
        char = MonodromyCharacter(tuple(char))
    return _rational_rank([(e,) for e in char.exponents])


# ---------------------------------------------------------------------------
# Openness probe
# ---------------------------------------------------------------------------


def _theta_plus(theta_trees, alpha_trees, eps: float, chart: Chart) -> OneFormField:
    if eps == 0.0:
        return OneFormField(chart, list(theta_trees))
    comps = []
    for t, a in zip(theta_trees, alpha_trees):
        if a == ex.ZERO:
            comps.append(t)
        else:
            comps.append(ex.add(t, ex.mul(ex.const(eps), a)))
    return OneFormField(chart, comps)


def _probe_candidate_factory(struct: LCHStructure, alpha: OneFormField,
                             plan, tolerance):
    """Candidate builder for one epsilon of the openness probe.

    Route one rebuilds the metric from the perturbed Lee form (the
    reconstruction identity), using the structure's own u when a radiant
    Killing Lee field is present and a unit factor otherwise.  When the
    structure is not of that reconstructible form, route two rescales the
    existing metric by the conformal factor exp(eps * F) with dF = alpha,
    which keeps the twisted symmetry exactly.
    """
    chart = struct.chart
    n = chart.dim
    ttrees = [entry_tree(struct.lee_form.entries[i]) for i in range(n)]
    atrees = [entry_tree(alpha.entries[i]) for i in range(n)]

    consts = lee_constants(struct, plan)
    radiant = (
        consts.killing_residual <= RADIANT_GATE
        and consts.radiant_residual <= RADIANT_GATE
        and consts.admissible()
    )
    u_options = (consts.u,) if radiant else (1.0, -1.0)

    center = 0.5 * (chart.lo() + chart.hi())
    gauge = LineIntegralGauge(atrees, center)

    def candidate(eps: float):
        theta_eps = _theta_plus(ttrees, atrees, eps, chart)
        for u in u_options:
            try:
                g_eps = metric_from_lee(struct.conn, theta_eps, u, plan, tolerance)
            except NotPositiveDefiniteError:
                continue
            trial = LCHStructure(chart, struct.conn, g_eps, theta_eps)
            if check_lch(trial, plan, tolerance).passed:
                return trial
        entries = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                entry = GaugedEntry(gauge, eps, struct.metric.entries[i, j])
                entries[i, j] = entry
                entries[j, i] = entry
        trial = LCHStructure(chart, struct.conn, MetricField(chart, entries), theta_eps)
        if check_lch(trial, plan, tolerance).passed:
            return trial
        return None

    return candidate


def lee_perturbation_probe(struct: LCHStructure, alpha: OneFormField,
                           plan=None, tolerance: float = DEFAULT_TOLERANCE,
                           eps_hi: float = 10.0, iters: int = 40) -> float:
    """Largest eps in [0, eps_hi] with theta + eps*alpha still l.c.H.-compatible.

    Bisection against the candidate acceptance of ``perturbed_structure``;
    returns 0.0 when even the unperturbed structure fails and eps_hi when no
    breakdown is found.
    """
    plan = plan or SamplePlan()
    pts = struct.chart.sample(plan)
    _require_closed(alpha, pts, max(tolerance, RADIANT_GATE),
                    "the perturbation one-form")
    candidate = _probe_candidate_factory(struct, alpha, plan, tolerance)
    if candidate(eps_hi) is not None:
        return float(eps_hi)
    if candidate(0.0) is None:
        return 0.0
    lo, hi = 0.0, float(eps_hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if candidate(mid) is not None:
            lo = mid
        else:
            hi = mid
    return lo


def perturbed_structure(struct: LCHStructure, alpha: OneFormField, eps: float,
                        plan=None, tolerance: float = DEFAULT_TOLERANCE) -> LCHStructure:
    """The accepted l.c.H. structure at one probe value of eps.

    Raises ``NotPositiveDefiniteError`` when no candidate is accepted there.
    """
    plan = plan or SamplePlan()
    pts = struct.chart.sample(plan)
    _require_closed(alpha, pts, max(tolerance, RADIANT_GATE),
                    "the perturbation one-form")
    out = _probe_candidate_factory(struct, alpha, plan, tolerance)(float(eps))
    if out is None:
        raise NotPositiveDefiniteError(
            f"no l.c.H. structure accepted at eps = {eps}"
        )
    return out
