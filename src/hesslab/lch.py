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
    LineIntegralGauge,
    MetricField,
    OneFormField,
    SamplePlan,
    VectorFieldT,
    closedness_residual,
    covariant_derivative_oneform_batch,
    covariant_derivative_vector_batch,
    definiteness,
    gauged,
    held_result,
    inverse_metric_expressions,
    lie_derivative_metric_batch,
    positive_definite,
    rel_residual,
    residual_passes,
    sample_check,
)
from .hesstat import (
    StatisticalStructure,
    build_cone_structure,
    check_hessian_structure,
    check_radiant,
    nondegenerate_lambda,
    structure_terms,
)

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

    The automorphism is given as one expression per base coordinate and kept
    as a vector field on the base chart; it must preserve the base metric and
    connection (checked by the builder).  The scale q > 0, q != 1 fixes the
    deck transformation (m, s) -> (phi(m), qs), and ``lam`` picks a root of
    lam*(2 - lam) = c for the cone lift.
    """

    base: StatisticalStructure
    automorphism: VectorFieldT
    scale: float
    lam: float

    def __post_init__(self):
        q = float(self.scale)
        if q <= 0.0:
            raise ValueError("the scale q must be positive")
        if abs(q - 1.0) <= 1e-9:
            raise ValueError("the scale q must differ from 1 (q = 1 glues nothing)")
        self.scale = q
        self.lam = nondegenerate_lambda(self.lam)
        dim = self.base.chart.dim
        comps = list(self.automorphism)
        if len(comps) != dim:
            raise ValueError(
                f"automorphism needs {dim} components, got {len(comps)}"
            )
        self.automorphism = VectorFieldT(self.base.chart, comps)


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

    def residual(pts):
        return structure_terms(struct.conn, struct.metric, pts, theta=struct.lee_form)

    return sample_check(residual, struct.chart, plan or SamplePlan(), tolerance, name=name)


# ---------------------------------------------------------------------------
# Lee field and its constants
# ---------------------------------------------------------------------------


def lee_vector_field(metric: MetricField, theta: OneFormField) -> VectorFieldT:
    """xi = theta-sharp as expression trees: xi^i = g^{ij} theta_j."""
    inv = inverse_metric_expressions(metric)
    comps = [ex.sum_of(ex.mul(g_ij, t_j) for g_ij, t_j in zip(row, theta.entries))
             for row in inv]
    return VectorFieldT(metric.chart, comps)


def lee_constants(struct: LCHStructure, plan=None) -> LeeConstants:
    """Estimate (a, mu, u) of the Lee field together with the residuals that
    decide whether the field is Killing, radiant, and affine. The constants
    are kept with the held point set under (conn, metric, lee_form), so the
    ops and probe steps asking for them on one structure build the Lee field
    once."""
    plan = plan or SamplePlan()
    pts = struct.chart.sample(plan)

    def estimate():
        xi = lee_vector_field(struct.metric, struct.lee_form)
        # xi at order 2 first, so every later read of xi is a prefix; then g
        # at order 1 first, so the order-0 reads of g below are prefixes
        affine = _affine_residual(struct.conn, xi, pts)
        lie = lie_derivative_metric_batch(xi, struct.metric, pts)
        gval = struct.metric.eval(pts, 0).value
        xival = xi.eval(pts, 0).value
        avals = np.einsum("aij,ai,aj->a", gval, xival, xival)
        a = float(np.mean(avals))
        a_dev = float(np.max(np.abs(avals - a))) / (1.0 + abs(a))

        killing = float(np.max(rel_residual(lie, gval)))
        killing = max(killing, a_dev)

        radiant_report = check_radiant(struct.conn, xi, plan)
        mu = float(radiant_report.extra["lambda"])
        radiant = float(radiant_report.max_residual)
        return LeeConstants(
            a=a,
            mu=mu,
            u=-(mu + a),
            killing_residual=killing,
            radiant_residual=radiant,
            affine_residual=affine,
        )

    return held_result(("lee_constants", struct.conn, struct.metric, struct.lee_form),
                       pts, estimate)


def _affine_residual(conn: ConnectionField, xi: VectorFieldT, pts) -> float:
    """Worst second covariant derivative of xi, relative to |nabla xi|.

    T^i_j = (nabla xi)^i_j and its derivative d_k T^i_j both come from the
    jets of xi (order 2) and Gamma (order 1); the order-1 and order-0 reads
    inside `covariant_derivative_vector_batch` are prefixes of those."""
    xj = xi.eval(pts, 2)
    cj = None if conn.flat else conn.eval(pts, 1)
    tval = covariant_derivative_vector_batch(conn, xi, pts)
    second = xj.d2  # (m, i, j, k) = d_k d_j xi^i
    if cj is not None:
        c = cj.value
        # d_k (Gamma^i_{jl} xi^l), then the two Gamma terms of nabla_k T
        second = second + np.einsum("aijlk,al->aijk", cj.d1, xj.value)
        second += np.einsum("aijl,alk->aijk", c, xj.d1)
        second += np.einsum("aikl,alj->aijk", c, tval)
        second -= np.einsum("alkj,ail->aijk", c, tval)
    return float(np.max(rel_residual(second, tval)))


def lee_identity_residual(struct: LCHStructure, constants: LeeConstants,
                          plan=None, tolerance: float = DEFAULT_TOLERANCE,
                          name: str = "lee-identity") -> CheckReport:
    """Residual of u*g = nabla(theta) - theta (x) theta over samples.

    The identity holds for radiant Killing Lee fields, so those residuals are
    treated as hypotheses: violating them is an error, not a failed report.
    """
    gate = max(tolerance, RADIANT_GATE)
    if not (residual_passes(constants.killing_residual, gate)
            and residual_passes(constants.radiant_residual, gate)):
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
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            drop = ex.sum_of(ex.mul(conn.entries[k, i, j], ttrees[k]) for k in range(n))
            out[i, j] = out[j, i] = ex.sub(ex.diff(ttrees[j], i), drop)
    return out


def _require_closed(theta: OneFormField, pts, tolerance, what: str):
    res = float(np.max(closedness_residual(theta, pts)))
    if not residual_passes(res, tolerance):
        raise ValueError(f"{what} must be closed; d residual {res:.3g} is not "
                         f"within {tolerance:.3g}")


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
    ttrees = list(theta.entries)
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

    _, rest, mins = definiteness(candidate.eval(pts, 0).value)
    bad = ~positive_definite(mins)  # a certified sample is positive definite
    if bad.any():
        k = int(np.argmin(mins[bad]))
        worst, eig = int(rest[bad][k]), float(mins[bad][k])
        raise NotPositiveDefiniteError(
            "candidate metric from the Lee form is not positive definite: "
            f"smallest eigenvalue {eig:.3g} at {pts[worst].tolist()}",
            point=pts[worst],
            eigenvalue=eig,
        )
    return candidate


def koszul_check(conn: ConnectionField, theta: OneFormField, plan=None,
                 tolerance: float = DEFAULT_TOLERANCE,
                 name: str = "koszul") -> CheckReport:
    """Is nabla(theta) a Hessian metric for this connection?

    Closedness of theta together with the full Hessian-structure terms
    (torsion, flatness, total symmetry, positive definiteness) of
    g = nabla theta, in one gate.
    """
    candidate = MetricField(conn.chart, _nabla_theta_trees(conn, list(theta.entries)))

    def residual(pts):
        terms = structure_terms(conn, candidate, pts)
        terms["closedness"] = closedness_residual(theta, pts)
        return terms

    return sample_check(residual, conn.chart, plan or SamplePlan(), tolerance, name=name)


def local_hessian_gauge(struct: LCHStructure, base_point, p=None, *,
                        plan=None, tolerance: float = DEFAULT_TOLERANCE,
                        fraction: float = 0.5):
    """Gauge potential f with df = theta, plus the Hessian check of e^{-f} g.

    f is the line integral of theta from ``base_point`` along straight
    segments (the chart box is convex, so segments stay inside), once
    d(theta) = 0 at the plan's points.  Returns ``(f(p), report)`` where the
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
    plan = plan or SamplePlan()
    _require_closed(struct.lee_form, chart.sample(plan), max(tolerance, RADIANT_GATE),
                    "the Lee form")
    gauge = LineIntegralGauge(struct.lee_form.entries, base)
    f_p = float(gauge.values(target.reshape(1, -1))[0])

    sub = chart.subbox(base, fraction)
    rescaled = MetricField(sub, [[gauged(gauge, -1.0, g_ij) for g_ij in row]
                                 for row in struct.metric.entries])
    sub_conn = ConnectionField(sub, struct.conn.entries)
    report = check_hessian_structure(sub_conn, rescaled, plan,
                                     tolerance, name="hessian-gauge")
    return f_p, report


# ---------------------------------------------------------------------------
# Mapping torus
# ---------------------------------------------------------------------------


def _pullback_residuals(phi: VectorFieldT, conn, metric, theta, pts) -> dict:
    """Named (m,) residuals of phi^* (g, Gamma, theta) against the fields
    themselves. The map's jet gives the image points, the Jacobian
    jac[m, c, u] = d_u phi^c and the Hessian hess[m, c, u, v]."""
    pj = phi.eval(pts, 2)
    image, jac, hess = pj.value, pj.d1, pj.d2

    gval = metric.eval(pts, 0).value
    g_at = metric.eval(image, 0).value
    pull_g = np.einsum("acu,adv,acd->auv", jac, jac, g_at)
    res = {"metric": rel_residual(pull_g - gval, gval)}

    cval = conn.eval(pts, 0).value
    c_at = conn.eval(image, 0).value
    inner = np.einsum("acde,adu,aev->acuv", c_at, jac, jac) + hess
    m, n = pts.shape
    pulled = np.linalg.solve(jac, inner.reshape(m, n, n * n)).reshape(m, n, n, n)
    res["connection"] = rel_residual(pulled - cval, cval)

    if theta is not None:
        tval = theta.eval(pts, 0).value
        t_at = theta.eval(image, 0).value
        pull_t = np.einsum("ac,acu->au", t_at, jac)
        res["lee_form"] = rel_residual(pull_t - tval, tval)
    return res


def check_symmetry(struct: LCHStructure, mapping, plan=None,
                   tolerance: float = DEFAULT_TOLERANCE,
                   name: str = "symmetry") -> CheckReport:
    """Does a coordinate map pull (g, nabla, theta) back to themselves?

    ``mapping`` gives one expression per coordinate.  Sample points are mapped
    through it, so the image must stay inside the fields' domain (not
    necessarily inside the chart box).
    """
    n = struct.chart.dim
    mapping = list(mapping)
    if len(mapping) != n:
        raise ValueError(f"mapping needs {n} components, got {len(mapping)}")
    phi = VectorFieldT(struct.chart, mapping)

    def residual(pts):
        return _pullback_residuals(phi, struct.conn, struct.metric, struct.lee_form, pts)

    return sample_check(residual, struct.chart, plan or SamplePlan(), tolerance, name=name)


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

    def auto_residual(pts):
        return _pullback_residuals(spec.automorphism, base.conn, base.metric, None, pts)

    auto_report = sample_check(auto_residual, base.chart, plan, tolerance,
                               name="mapping-torus-automorphism")
    if not auto_report.passed:
        raise MappingTorusError(
            "automorphism does not preserve the base structure "
            f"(metric residual {auto_report.extra.get('metric', np.inf):.3g}, "
            f"connection residual {auto_report.extra.get('connection', np.inf):.3g})"
            + "".join(f"; {note}" for note in auto_report.notes)
        )

    lo, hi = min(1.0, q), max(1.0, q)
    cone = build_cone_structure(base, spec.lam, s_interval=(lo, hi),
                                plan=plan, tolerance=tolerance)
    chart = cone.chart
    n = k + 1
    s = ex.Var(k)

    entries = np.empty((n, n), dtype=object)
    for a in range(k):
        for b in range(a, k):
            tree = base.metric.entries[a, b]
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

    seam_map = VectorFieldT(chart, [*spec.automorphism.entries, ex.mul(ex.const(q), s)])

    def seam_residual(pts):  # base points on the s = 1 slice
        seam_pts = np.hstack([pts, np.ones((pts.shape[0], 1))])
        return _pullback_residuals(seam_map, cone.conn, metric, theta, seam_pts)

    seam_report = sample_check(seam_residual, base.chart, plan, tolerance,
                               name="mapping-torus-seam")
    if not seam_report.passed:
        raise MappingTorusError(
            f"seam residual {seam_report.max_residual:.3g} exceeds {tolerance:.3g}: "
            "the deck map does not glue the structure"
        )

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
    return OneFormField(chart, [ex.add(t, ex.mul(ex.const(eps), a))
                                for t, a in zip(theta_trees, alpha_trees)])


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
    ttrees = list(struct.lee_form.entries)
    atrees = list(alpha.entries)

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
        rescaled = [[gauged(gauge, eps, g_ij) for g_ij in row] for row in struct.metric.entries]
        trial = LCHStructure(chart, struct.conn, MetricField(chart, rescaled), theta_eps)
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
