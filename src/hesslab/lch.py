"""Locally conformally Hessian structures on flat charts.

An l.c.H. triple (nabla, g, theta) has a flat torsion-free connection, a
closed one-form, and the twisted symmetry condition: nabla g - theta (x) g is
totally symmetric.  Locally e^{-f} g is Hessian whenever theta = df.  This
module verifies such triples, analyses the Lee field xi = theta-sharp and its
constants (a, mu, u), rebuilds the metric from the Lee form, builds a
mapping torus from its two parts (a constant-curvature statistical fiber and
the monodromy automorphism), measures the character by which a torus's deck
map multiplies the Hessian metric of its cover, and runs the openness probe
that perturbs theta by a closed form. Its structures are `expr.Value`
records.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .geomcore import (
    Chart,
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
    covariant_hessian_trees,
    covariant_derivative_vector_batch,
    definiteness,
    gauged,
    held_result,
    in_domain,
    inverse_metric_expressions,
    lie_derivative_metric_batch,
    positive_definite,
    rel_residual,
    residual_passes,
    sample_check,
)
from .hesstat import (
    ConeStructure,
    StatisticalStructure,
    block_metric,
    build_cone_structure,
    check_radiant,
    nondegenerate_lambda,
    structure_terms,
)

__all__ = [
    "LCHStructure",
    "LeeConstants",
    "MappingTorus",
    "MappingTorusError",
    "NotPositiveDefiniteError",
    "build_mapping_torus",
    "check_lch",
    "check_monodromy",
    "check_symmetry",
    "koszul_check",
    "lee_constants",
    "lee_identity_residual",
    "lee_perturbation_probe",
    "lee_vector_field",
    "metric_from_lee",
    "perturbed_structure",
    "torus_scale",
]

# gate used when deciding whether a structure carries a radiant Killing Lee
# field (a structural yes/no, looser than the numerical check tolerances)
RADIANT_GATE = 1e-4

# how far mu must stay from 0 and from -a, its degenerate values
ADMISSIBLE_GAP = 1e-9


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


class LCHStructure(ex.Value):
    """Flat connection, metric, and closed Lee form on one chart."""

    __slots__ = __match_args__ = ("chart", "conn", "metric", "lee_form")

    def __init__(self, chart: Chart, conn: ConnectionField, metric: MetricField,
                 lee_form: OneFormField):
        for f in (conn, metric, lee_form):
            if f.chart != chart:
                raise ValueError("l.c.H. fields must share one chart")
        self._set(chart, conn, metric, lee_form)


class LeeConstants(ex.Value):
    """Constants of a radiant Killing Lee field, with the residuals that
    justify calling them constants.

    ``a`` is the mean of g(xi, xi) over samples; its max deviation is folded
    into ``killing_residual`` (a is constant exactly when xi is Killing).
    ``mu`` is the fitted proportionality of nabla(xi) = mu * Id and
    ``radiant_residual`` the worst misfit.  ``affine_residual`` measures the
    second covariant derivative of xi, which vanishes for affine fields.
    """

    __slots__ = __match_args__ = ("a", "mu", "u", "killing_residual", "radiant_residual",
                                  "affine_residual")

    def __init__(self, a: float, mu: float, u: float, killing_residual: float,
                 radiant_residual: float, affine_residual: float):
        if u != -(mu + a):
            raise ValueError("u must equal -(mu + a)")
        self._set(a, mu, u, killing_residual, radiant_residual, affine_residual)

    def admissible(self) -> bool:
        """mu away from 0 and -a, the degenerate values for radiant fields,
        by more than `ADMISSIBLE_GAP`."""
        return abs(self.mu) > ADMISSIBLE_GAP and abs(self.mu + self.a) > ADMISSIBLE_GAP

    def radiant_killing(self, gate: float = RADIANT_GATE) -> bool:
        """Is the Lee field Killing and radiant, both residuals within ``gate``?"""
        return (residual_passes(self.killing_residual, gate)
                and residual_passes(self.radiant_residual, gate))


def torus_scale(q) -> float:
    """``q`` as a float, once it is a finite scale q > 0 other than 1."""
    q = float(q)
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError("the scale q must be finite and positive")
    if abs(q - 1.0) <= 1e-9:
        raise ValueError("the scale q must differ from 1 (q = 1 glues nothing)")
    return q


class MappingTorus(LCHStructure):
    """An l.c.H. structure on a torus's fundamental domain, with what glued
    it: the deck map (m, s) -> (phi(m), qs), the cone it is cut from (its
    metric h = s^2 g is the cover's Hessian metric), and the reports."""

    __slots__ = ("deck_map", "cone", "reports")
    __match_args__ = LCHStructure.__match_args__ + __slots__

    def __init__(self, chart: Chart, conn: ConnectionField, metric: MetricField,
                 lee_form: OneFormField, deck_map: VectorFieldT, cone: ConeStructure,
                 reports: tuple):
        super().__init__(chart, conn, metric, lee_form)
        self._set(chart, conn, metric, lee_form, deck_map, cone, reports)


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
    second = xj.hess  # (m, i, j, k) = d_k d_j xi^i
    if cj is not None:
        c = cj.value
        # d_k (Gamma^i_{jl} xi^l), then the two Gamma terms of nabla_k T
        second = second + np.einsum("aijlk,al->aijk", cj.grad, xj.value)
        second += np.einsum("aijl,alk->aijk", c, xj.grad)
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
    if not constants.radiant_killing(gate):
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
    t = theta.entries
    out = covariant_hessian_trees(conn, t)
    for i in range(n):
        for j in range(i, n):
            tree = ex.sub(out[i, j], ex.mul(t[i], t[j]))
            if u != 1.0:
                tree = ex.div(tree, ex.const(u))
            out[i, j] = out[j, i] = tree
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
    candidate = MetricField(conn.chart, covariant_hessian_trees(conn, theta.entries))

    def residual(pts):
        terms = structure_terms(conn, candidate, pts)
        terms["closedness"] = closedness_residual(theta, pts)
        return terms

    return sample_check(residual, conn.chart, plan or SamplePlan(), tolerance, name=name)


# ---------------------------------------------------------------------------
# Mapping torus
# ---------------------------------------------------------------------------


def _pullback_metric(pj, metric: MetricField, pts) -> tuple:
    """(phi^* g, g) at ``pts``, from the map's jet ``pj`` there."""
    jac, g_at = pj.grad, metric.eval(pj.value, 0).value
    pull_g = np.einsum("acu,adv,acd->auv", jac, jac, g_at)
    return pull_g, metric.eval(pts, 0).value


def _pullback_residuals(phi: VectorFieldT, conn, metric, theta, pts) -> dict:
    """Named (m,) residuals of phi^* (g, Gamma, theta) against the fields
    themselves. The map's jet gives the image points, the Jacobian
    jac[m, c, u] = d_u phi^c and the Hessian hess[m, c, u, v]."""
    pj = phi.eval(pts, 2)
    image, jac, hess = pj.value, pj.grad, pj.hess

    pull_g, gval = _pullback_metric(pj, metric, pts)
    res = {"metric": rel_residual(pull_g - gval, gval)}

    cval = conn.eval(pts, 0).value
    c_at = conn.eval(image, 0).value
    inner = np.einsum("acde,adu,aev->acuv", c_at, jac, jac) + hess
    m, n = pts.shape
    pulled = np.linalg.solve(jac, inner.reshape(m, n, n * n)).reshape(m, n, n, n)
    res["connection"] = rel_residual(np.subtract(pulled, cval, out=np.empty_like(cval)), cval)

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


def _seam(pts):
    """Base points on the s = 1 slice of a torus's fundamental domain."""
    return np.hstack([pts, np.ones((len(pts), 1))])


def build_mapping_torus(base: StatisticalStructure, automorphism, scale: float, lam: float, *,
                        plan=None, tolerance: float = DEFAULT_TOLERANCE) -> MappingTorus:
    """L.c.H. structure on the fundamental domain M x [1, q] of a mapping torus
    with statistical fiber ``base`` and monodromy ``automorphism``.

    The automorphism is one expression per base coordinate, kept as a vector
    field on the base chart; it must preserve the base metric and connection.
    The scale q > 0, q != 1 fixes the deck transformation (m, s) -> (phi(m), qs)
    (see ``torus_scale``), and ``lam`` picks a root of lam*(2 - lam) = c for
    the cone lift. Scale, ``lam`` and the automorphism's length are checked
    before any work.

    The total metric is g_M + ds^2/s^2 (the cone metric rescaled by 1/s^2),
    the Lee form is -2 ds/s, and the connection is the flat radiant cone
    connection over the base.  The returned gluing report certifies that
    the deck map pulls all three fields back to themselves across the seam.

    The ``MappingTorus`` returned carries the cone and the automorphism,
    seam, and cone postcondition reports.
    """
    q = torus_scale(scale)
    lam = nondegenerate_lambda(lam)
    k = base.chart.dim
    comps = list(automorphism)
    if len(comps) != k:
        raise ValueError(f"automorphism needs {k} components, got {len(comps)}")
    automorphism = VectorFieldT(base.chart, comps)
    plan = plan or SamplePlan()

    def auto_residual(pts):
        return _pullback_residuals(automorphism, base.conn, base.metric, None, pts)

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
    cone = build_cone_structure(base, lam, s_interval=(lo, hi),
                                plan=plan, tolerance=tolerance)
    chart = cone.chart
    s = ex.Var(k)
    metric = block_metric(chart, base.metric, ex.ONE, ex.div(ex.ONE, ex.powi(s, 2)))

    theta = OneFormField(
        chart, [ex.ZERO] * k + [ex.neg(ex.div(ex.const(2.0), s))]
    )
    deck_map = VectorFieldT(chart, [*automorphism.entries, ex.mul(ex.const(q), s)])

    def seam_residual(pts):
        return _pullback_residuals(deck_map, cone.conn, metric, theta, _seam(pts))

    seam_report = sample_check(seam_residual, base.chart, plan, tolerance,
                               name="mapping-torus-seam")
    if not seam_report.passed:
        raise MappingTorusError(
            f"seam residual {seam_report.max_residual:.3g} exceeds {tolerance:.3g}: "
            "the deck map does not glue the structure"
        )
    return MappingTorus(chart, cone.conn, metric, theta, deck_map, cone,
                        (auto_report, seam_report) + cone.reports)


def check_monodromy(torus: MappingTorus, expect_rank: int, plan=None,
                    tolerance: float = DEFAULT_TOLERANCE,
                    name: str = "monodromy-character") -> CheckReport:
    """The deck map's character: gamma^* h = c h fitted by least squares on
    the seam samples in the fields' domain. ``extra`` carries log c (2 log q
    for a torus) and the rank of its image, 1 when |log c| exceeds the
    tolerance. The residual is the worst of |gamma^* h - c h| / (1 + |c h|)
    and |rank - expect_rank|; a sample out of the domain reads inf, with a
    note (`sample_check`)."""
    extra: dict[str, float] = {}

    def residual(pts):
        seam = _seam(pts)
        pulled, h = _pullback_metric(torus.deck_map.eval(seam, 1), torus.cone.metric, seam)
        fit_pulled, fit_h = in_domain(pulled), in_domain(h)
        with np.errstate(invalid="ignore"):  # c is NaN when no sample is in the domain
            c = float(np.sum(fit_pulled * fit_h) / np.sum(fit_h * fit_h))
        extra["character"] = character = math.log(c)
        extra["rank"] = rank = int(abs(character) > tolerance)
        return np.maximum(rel_residual(pulled - c * h, c * h), abs(rank - expect_rank))

    return sample_check(residual, torus.cone.base.chart, plan or SamplePlan(), tolerance,
                        name=name, extra=extra)


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
    _require_closed(alpha, chart.sample(plan), max(tolerance, RADIANT_GATE),
                    "the perturbation one-form")
    ttrees = list(struct.lee_form.entries)
    atrees = list(alpha.entries)

    consts = lee_constants(struct, plan)
    radiant = consts.radiant_killing() and consts.admissible()
    u_options = (consts.u,) if radiant else (1.0, -1.0)

    center = 0.5 * (chart.lo() + chart.hi())
    gauge = LineIntegralGauge(alpha, center)

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


PROBE_EPS_HI = 10.0  # the openness probe's ceiling on eps
PROBE_STEPS = 40  # bisection steps of the openness probe: 10 / 2^40 < 1e-11


def lee_perturbation_probe(struct: LCHStructure, alpha: OneFormField,
                           plan=None, tolerance: float = DEFAULT_TOLERANCE) -> float:
    """Largest eps in [0, PROBE_EPS_HI] with theta + eps*alpha still
    l.c.H.-compatible.

    Bisection against the candidate acceptance of ``perturbed_structure``;
    returns 0.0 when even the unperturbed structure fails and PROBE_EPS_HI
    when no breakdown is found.
    """
    plan = plan or SamplePlan()
    candidate = _probe_candidate_factory(struct, alpha, plan, tolerance)
    if candidate(PROBE_EPS_HI) is not None:
        return PROBE_EPS_HI
    if candidate(0.0) is None:
        return 0.0
    lo, hi = 0.0, PROBE_EPS_HI
    for _ in range(PROBE_STEPS):
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
    out = _probe_candidate_factory(struct, alpha, plan, tolerance)(float(eps))
    if out is None:
        raise NotPositiveDefiniteError(
            f"no l.c.H. structure accepted at eps = {eps}"
        )
    return out
