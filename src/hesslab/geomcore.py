"""Chart-based tensor calculus over expression-valued fields.

Index conventions (all in chart coordinates):

    (nabla g)_{ijk} = d_i g_{jk} - Gamma^l_{ij} g_{lk} - Gamma^l_{ik} g_{jl}
    (nabla theta)_{ij} = d_i theta_j - Gamma^k_{ij} theta_k
    (nabla xi)^i_j = d_j xi^i + Gamma^i_{jk} xi^k
    (L_xi g)_{ij} = xi^k d_k g_{ij} + g_{kj} d_i xi^k + g_{ik} d_j xi^k
    R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}

Residuals are relative: a deviation tensor Delta measured against a scale
tensor S contributes max|Delta| / (1 + max|S|) at each sample point, so
tolerances stay meaningful when metric entries range over orders of
magnitude across the box.

Evaluation is batched: fields evaluate all their entries at an (m, n)
array of sample points at once, returning stacked value/derivative arrays
with the derivative axes last (value[m, i, j], d1[m, i, j, a] = d_a g_ij).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .expr import DomainError, Expression
from .jets import Jet, evaluate

Array = np.ndarray

PD_FLOOR = 1e-9
DEFAULT_TOLERANCE = 1e-6


class ChartError(ValueError):
    pass


class PathDependenceError(ValueError):
    """Line integrals along two different paths disagreed: the form is not closed."""


# ---------------------------------------------------------------------------
# Chart and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """An open coordinate box: the single affine patch everything lives on."""

    dim: int
    box: tuple[tuple[float, float], ...]
    positive: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ChartError("chart dimension must be positive")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if len(box) != self.dim:
            raise ChartError(f"box has {len(box)} intervals for dimension {self.dim}")
        for lo, hi in box:
            if not lo < hi:
                raise ChartError(f"empty interval ({lo}, {hi})")
        pos = tuple(self.positive) if self.positive else (False,) * self.dim
        if len(pos) != self.dim:
            raise ChartError("positivity flags must match dimension")
        for (lo, _), flag in zip(box, pos):
            if flag and lo < 0:
                raise ChartError(f"coordinate flagged positive but interval starts at {lo}")
        object.__setattr__(self, "positive", pos)

    def lo(self) -> Array:
        return np.array([b[0] for b in self.box])

    def hi(self) -> Array:
        return np.array([b[1] for b in self.box])

    def contains(self, p) -> bool:
        p = np.asarray(p, float)
        return bool(np.all(p > self.lo()) and np.all(p < self.hi()))

    def sample(self, plan: "SamplePlan") -> Array:
        lo, hi = self.lo(), self.hi()
        width = hi - lo
        lo = lo + plan.margin * width
        hi = hi - plan.margin * width
        rng = np.random.default_rng(plan.seed)
        return lo + rng.random((plan.count, self.dim)) * (hi - lo)

    def subbox(self, center, fraction: float) -> "Chart":
        """A smaller chart around ``center`` spanning ``fraction`` of each width."""
        center = np.asarray(center, float)
        lo, hi = self.lo(), self.hi()
        half = 0.5 * fraction * (hi - lo)
        new_lo = np.maximum(lo, center - half)
        new_hi = np.minimum(hi, center + half)
        return Chart(self.dim, tuple(zip(new_lo, new_hi)), self.positive)


@dataclass(frozen=True)
class SamplePlan:
    count: int = 200
    seed: int = 42
    margin: float = 0.05

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not 0 <= self.margin < 0.5:
            raise ValueError("margin must lie in [0, 0.5)")


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    samples: int
    extra: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        ok = bool(self.max_residual <= self.tolerance)
        if self.passed != ok:
            raise ValueError("CheckReport invariant violated: passed must equal max<=tol")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": float(self.max_residual),
            "mean_residual": float(self.mean_residual),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "samples": int(self.samples),
            "extra": {k: float(v) for k, v in sorted(self.extra.items())},
            "notes": list(self.notes),
        }


def make_report(name, residuals, tolerance, samples=None, extra=None, notes=()) -> CheckReport:
    residuals = np.atleast_1d(np.asarray(residuals, float))
    mx = float(np.max(residuals))
    mean = float(np.mean(residuals))
    return CheckReport(
        name=name,
        max_residual=mx,
        mean_residual=mean,
        tolerance=float(tolerance),
        passed=bool(mx <= tolerance),
        samples=int(samples if samples is not None else residuals.size),
        extra=dict(extra or {}),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Entries: things a field component can be
# ---------------------------------------------------------------------------

class ExprEntry:
    """Field entry backed by an expression tree."""

    __slots__ = ("tree",)

    def __init__(self, tree: Expression):
        self.tree = tree

    def jet(self, pts: Array, order: int) -> Jet:
        return evaluate(self.tree, pts, order)

    def __eq__(self, other):
        return isinstance(other, ExprEntry) and self.tree == other.tree

    def __hash__(self):
        return hash(self.tree)

    def __repr__(self):
        return f"ExprEntry({ex.to_source(self.tree)})"


ZERO_ENTRY = ExprEntry(ex.ZERO)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_GL_T = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


class LineIntegralGauge:
    """f(p) = integral of a (closed) 1-form along the straight segment base -> p.

    Because the form is closed on the convex box, f is a potential for it:
    grad f = the form itself, so all derivative tensors of f come from jets
    of the components and only the value needs quadrature.
    """

    def __init__(self, components, base_point):
        self.components = tuple(components)
        self.base = np.asarray(base_point, float)
        if len(self.components) != self.base.size:
            raise ValueError("gauge form components must match base point dimension")

    def values(self, pts: Array) -> Array:
        pts = np.asarray(pts, float)
        m, n = pts.shape
        diffs = pts - self.base
        stacked = self.base + _GL_T[:, None, None] * diffs  # (q, m, n)
        flat = stacked.reshape(-1, n)
        total = np.zeros(m)
        for k, jet in enumerate(evaluate(self.components, flat, 0)):
            vals = jet.value.reshape(len(_GL_T), m)
            total += (_GL_W[:, None] * vals).sum(axis=0) * diffs[:, k]
        return total

    def values_staircase(self, pts: Array) -> Array:
        """Same integral along axis-aligned legs (coordinate j moves on leg j)."""
        pts = np.asarray(pts, float)
        m, n = pts.shape
        total = np.zeros(m)
        for j in range(n):
            start = np.concatenate(
                [pts[:, :j], np.broadcast_to(self.base[j:], (m, n - j))], axis=1
            )
            delta = pts[:, j] - self.base[j]
            legs = np.repeat(start[None, :, :], len(_GL_T), axis=0)
            legs[:, :, j] = self.base[j] + _GL_T[:, None] * delta
            vals = evaluate(self.components[j], legs.reshape(-1, n), 0).value
            vals = vals.reshape(len(_GL_T), m)
            total += (_GL_W[:, None] * vals).sum(axis=0) * delta
        return total

    def check_closed(self, chart: Chart, tolerance: float = 1e-6):
        lo, hi = chart.lo(), chart.hi()
        lo = lo + 0.1 * (hi - lo)
        hi = hi - 0.1 * (hi - lo)
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        probes = np.vstack([corners, 0.5 * (lo + hi)])
        straight = self.values(probes)
        stairs = self.values_staircase(probes)
        gap = np.max(np.abs(straight - stairs)) / (1.0 + np.max(np.abs(straight)))
        if gap > tolerance:
            raise PathDependenceError(
                f"line integral is path-dependent (two-path disagreement {gap:.3g}); "
                "the gauge form is not closed on this chart"
            )

    def jet(self, pts: Array, order: int) -> Jet:
        pts = np.asarray(pts, float)
        m, n = pts.shape
        value = self.values(pts)
        grad = hess = third = None
        if order >= 1:
            comp_jets = evaluate(self.components, pts, order - 1)
            grad = np.stack([j.value for j in comp_jets], axis=1)
        if order >= 2:
            dform = np.stack([j.grad for j in comp_jets], axis=1)  # (m, k, i) = d_i w_k
            hess = 0.5 * (dform + dform.transpose(0, 2, 1))
        if order >= 3:
            d2 = np.stack([j.hess for j in comp_jets], axis=1)  # (m, k, i, j)
            t = d2.transpose(0, 2, 3, 1)  # (m, i, j, k) = d_i d_j w_k
            third = sum(
                np.transpose(t, (0,) + perm) for perm in itertools.permutations((1, 2, 3))
            ) / 6.0
        return Jet(order, value, grad, hess, third)


class GaugedEntry:
    """Entry of the form exp(sign * f) * inner with f a line-integral gauge."""

    __slots__ = ("gauge", "sign", "inner")

    def __init__(self, gauge: LineIntegralGauge, sign: float, inner):
        self.gauge = gauge
        self.sign = float(sign)
        self.inner = inner

    def jet(self, pts: Array, order: int) -> Jet:
        f = self.gauge.jet(pts, order)
        if self.sign != 1.0:
            f = _scale_jet(f, self.sign)
        factor = f.exp()
        return factor * self.inner.jet(pts, order)

    def __eq__(self, other):
        return (
            isinstance(other, GaugedEntry)
            and self.gauge is other.gauge
            and self.sign == other.sign
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((id(self.gauge), self.sign))


def _scale_jet(jet: Jet, c: float) -> Jet:
    o = jet.order
    return Jet(
        o,
        c * jet.value,
        c * jet.grad if o >= 1 else None,
        c * jet.hess if o >= 2 else None,
        c * jet.third if o >= 3 else None,
    )


def as_entry(obj, dim: int):
    if isinstance(obj, (ExprEntry, GaugedEntry)):
        return obj
    if isinstance(obj, Expression):
        return ExprEntry(obj)
    if isinstance(obj, str):
        return ExprEntry(ex.parse_expression(obj, dim))
    if isinstance(obj, (int, float)):
        return ExprEntry(ex.const(float(obj)))
    raise TypeError(f"cannot interpret {obj!r} as a field entry")


def entry_tree(entry) -> Expression:
    """The expression tree of a symbolic entry; gauged entries are rejected."""
    if isinstance(entry, ExprEntry):
        return entry.tree
    raise TypeError("operation needs symbolic (expression) entries, got a gauged entry")


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class EvaluatedTensor:
    """Stacked entry jets: value (m, *shape), d1 (m, *shape, n), etc."""

    __slots__ = ("value", "d1", "d2", "d3")

    def __init__(self, value, d1=None, d2=None, d3=None):
        self.value = value
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3


def _eval_entries(entries: Array, pts: Array, order: int) -> EvaluatedTensor:
    """Stack the entry jets. The trees of all expression entries share one
    `evaluate` pass; each distinct gauged entry is evaluated on its own."""
    m, n = pts.shape
    shape = entries.shape
    value = np.empty((m,) + shape)
    d1 = np.empty((m,) + shape + (n,)) if order >= 1 else None
    d2 = np.empty((m,) + shape + (n, n)) if order >= 2 else None
    d3 = np.empty((m,) + shape + (n, n, n)) if order >= 3 else None
    symbolic = [idx for idx in np.ndindex(shape) if isinstance(entries[idx], ExprEntry)]
    jets = dict(zip(symbolic, evaluate([entries[idx].tree for idx in symbolic], pts, order)))
    gauged: dict = {}
    for idx in np.ndindex(shape):
        jet = jets.pop(idx, None)
        if jet is None:
            entry = entries[idx]
            if entry not in gauged:
                gauged[entry] = entry.jet(pts, order)
            jet = gauged[entry]
        sel = (slice(None),) + idx
        value[sel] = jet.value
        if order >= 1:
            d1[sel] = jet.grad
        if order >= 2:
            d2[sel] = jet.hess
        if order >= 3:
            d3[sel] = jet.third
    return EvaluatedTensor(value, d1, d2, d3)


class _Field:
    shape: tuple[int, ...]

    def __init__(self, chart: Chart, entries):
        self.chart = chart
        arr = np.empty(self.shape_for(chart.dim), dtype=object)
        entries = np.asarray(entries, dtype=object)
        if entries.shape != arr.shape:
            raise ValueError(
                f"{type(self).__name__} expected entries of shape {arr.shape}, got {entries.shape}"
            )
        for idx in np.ndindex(arr.shape):
            arr[idx] = as_entry(entries[idx], chart.dim)
        self.entries = arr

    @classmethod
    def shape_for(cls, dim: int) -> tuple[int, ...]:
        raise NotImplementedError

    def eval(self, pts: Array, order: int = 0) -> EvaluatedTensor:
        return _eval_entries(self.entries, pts, order)


class MetricField(_Field):
    """Symmetric (0,2) field: metrics, candidate metrics, second fundamental forms."""

    @classmethod
    def shape_for(cls, dim):
        return (dim, dim)

    def __init__(self, chart, entries):
        super().__init__(chart, entries)
        for i in range(chart.dim):
            for j in range(i):
                if self.entries[i, j] != self.entries[j, i]:
                    raise ValueError(f"metric entries ({i},{j}) and ({j},{i}) differ")


class ConnectionField(_Field):
    """Christoffel symbols Gamma^k_{ij}, stored as entries[k][i][j]."""

    @classmethod
    def shape_for(cls, dim):
        return (dim, dim, dim)

    def __init__(self, chart, christoffel=None, flat: bool = False):
        if christoffel is None:
            if not flat:
                raise ValueError("non-flat connection needs christoffel entries")
            christoffel = np.full(self.shape_for(chart.dim), ex.ZERO, dtype=object)
        super().__init__(chart, christoffel)
        self.flat = bool(flat)
        if self.flat:
            for idx in np.ndindex(self.entries.shape):
                entry = self.entries[idx]
                if not (isinstance(entry, ExprEntry) and entry.tree == ex.ZERO):
                    raise ValueError("flat connection must have all-zero christoffel entries")


class OneFormField(_Field):
    @classmethod
    def shape_for(cls, dim):
        return (dim,)


class VectorFieldT(_Field):
    @classmethod
    def shape_for(cls, dim):
        return (dim,)


class ScalarField(_Field):
    @classmethod
    def shape_for(cls, dim):
        return ()

    def __init__(self, chart, entry):
        super().__init__(chart, np.asarray(entry, dtype=object))

    @property
    def entry(self):
        return self.entries[()]


def flat_connection(chart: Chart) -> ConnectionField:
    return ConnectionField(chart, flat=True)


def euclidean_metric(chart: Chart) -> MetricField:
    rows = [
        [ex.ONE if i == j else ex.ZERO for j in range(chart.dim)] for i in range(chart.dim)
    ]
    return MetricField(chart, rows)


def euler_field(chart: Chart) -> VectorFieldT:
    return VectorFieldT(chart, [ex.Var(i) for i in range(chart.dim)])


# ---------------------------------------------------------------------------
# Tensor calculus (batched; pointwise wrappers below)
# ---------------------------------------------------------------------------

def covariant_derivative_metric_batch(conn: ConnectionField, g: MetricField, pts) -> Array:
    gj = g.eval(pts, 1)
    nabla = gj.d1.transpose(0, 3, 1, 2).copy()  # (m, i, j, k) = d_i g_jk
    if not conn.flat:
        c = conn.eval(pts, 0).value
        nabla -= np.einsum("alij,alk->aijk", c, gj.value)
        nabla -= np.einsum("alik,ajl->aijk", c, gj.value)
    return nabla


def covariant_derivative_oneform_batch(conn: ConnectionField, theta: OneFormField, pts) -> Array:
    tj = theta.eval(pts, 1)
    nabla = tj.d1.transpose(0, 2, 1).copy()  # (m, i, j) = d_i theta_j
    if not conn.flat:
        c = conn.eval(pts, 0).value
        nabla -= np.einsum("akij,ak->aij", c, tj.value)
    return nabla


def covariant_derivative_vector_batch(conn: ConnectionField, xi: VectorFieldT, pts) -> Array:
    xj = xi.eval(pts, 1)
    nabla = xj.d1.copy()  # (m, i, j) = d_j xi^i
    if not conn.flat:
        c = conn.eval(pts, 0).value
        nabla += np.einsum("aijk,ak->aij", c, xj.value)
    return nabla


def lie_derivative_metric_batch(xi: VectorFieldT, g: MetricField, pts) -> Array:
    gj = g.eval(pts, 1)
    xj = xi.eval(pts, 1)
    out = np.einsum("ak,aijk->aij", xj.value, gj.d1)
    out += np.einsum("akj,aki->aij", gj.value, xj.d1)
    out += np.einsum("aik,akj->aij", gj.value, xj.d1)
    return out


def curvature_batch(conn: ConnectionField, pts) -> Array:
    pts = np.asarray(pts, float)
    m = pts.shape[0]
    d = conn.chart.dim
    if conn.flat:
        return np.zeros((m, d, d, d, d))
    cj = conn.eval(pts, 1)
    dgamma = cj.d1  # (m, l, j, k, i) with last axis the derivative
    term1 = dgamma.transpose(0, 1, 4, 2, 3)  # (m, l, i, j, k) = d_i Gamma^l_{jk}
    term2 = term1.transpose(0, 1, 3, 2, 4)
    quad1 = np.einsum("aliu,aujk->alijk", cj.value, cj.value)
    quad2 = quad1.transpose(0, 1, 3, 2, 4)
    return term1 - term2 + quad1 - quad2


def exterior_derivative_oneform_batch(theta: OneFormField, pts) -> Array:
    tj = theta.eval(pts, 1)
    d = tj.d1.transpose(0, 2, 1)  # (m, i, j) = d_i theta_j
    return d - d.transpose(0, 2, 1)


def _single(p, dim=None):
    p = np.asarray(p, float).reshape(1, -1)
    return p


def covariant_derivative_metric(conn, g, p) -> Array:
    return covariant_derivative_metric_batch(conn, g, _single(p))[0]


def covariant_derivative_oneform(conn, theta, p) -> Array:
    return covariant_derivative_oneform_batch(conn, theta, _single(p))[0]


def covariant_derivative_vector(conn, xi, p) -> Array:
    return covariant_derivative_vector_batch(conn, xi, _single(p))[0]


def lie_derivative_metric(xi, g, p) -> Array:
    return lie_derivative_metric_batch(xi, g, _single(p))[0]


def curvature(conn, p) -> Array:
    return curvature_batch(conn, _single(p))[0]


def exterior_derivative_oneform(theta, p) -> Array:
    return exterior_derivative_oneform_batch(theta, _single(p))[0]


# ---------------------------------------------------------------------------
# Residual helpers
# ---------------------------------------------------------------------------

def max_abs(arr: Array) -> Array:
    """Per-sample max-norm: collapses all axes but the first."""
    a = np.abs(np.asarray(arr, float))
    return a.reshape(a.shape[0], -1).max(axis=1)


def rel_residual(delta: Array, scale: Array) -> Array:
    """Per-sample |delta| / (1 + |scale|), both reduced by max-norm."""
    return max_abs(delta) / (1.0 + max_abs(scale))


def component_fold(comps: dict):
    """``fold(key, arr)`` keeps the worst value of ``arr`` under ``key`` in
    ``comps`` and returns ``arr``. A NaN sticks (``max(0.0, nan)`` is 0.0)."""

    def fold(key, arr):
        comps[key] = float(np.maximum(comps.get(key, 0.0), np.max(arr)))
        return arr

    return fold


def total_symmetry_residual(t: Array) -> float:
    """Max over the 6 permutations of |T - sigma(T)|, normalized by (1 + |T|)."""
    t = np.asarray(t, float)
    if t.ndim != 3:
        raise ValueError("total_symmetry_residual expects a (0,3) tensor value")
    scale = 1.0 + np.max(np.abs(t))
    worst = 0.0
    for perm in itertools.permutations((0, 1, 2)):
        worst = max(worst, float(np.max(np.abs(t - np.transpose(t, perm)))))
    return worst / scale


def total_symmetry_residual_batch(t: Array) -> Array:
    scale = 1.0 + max_abs(t)
    worst = np.zeros(t.shape[0])
    for perm in itertools.permutations((1, 2, 3)):
        worst = np.maximum(worst, max_abs(t - np.transpose(t, (0,) + perm)))
    return worst / scale


def definiteness_gap(mats: Array, floor: float = PD_FLOOR) -> Array:
    """0 where the symmetric matrix is positive definite (smallest eigenvalue
    above ``floor``); otherwise a residual of at least 1 so the check fails."""
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    smallest = np.linalg.eigvalsh(sym)[:, 0]
    gap = np.where(smallest > floor, 0.0, np.maximum(1.0, floor - smallest))
    return gap


def smallest_eigenvalues(mats: Array) -> Array:
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    return np.linalg.eigvalsh(sym)[:, 0]


# ---------------------------------------------------------------------------
# Check runner
# ---------------------------------------------------------------------------

def sample_check(residual_fn, chart: Chart, plan: SamplePlan, tolerance: float,
                 name: str = "check", extra=None, notes=()) -> CheckReport:
    """Evaluate a batched residual function over sampled points.

    ``residual_fn`` takes an (m, n) array of points and returns (m,) residuals.
    Domain errors fall back to per-point evaluation; points that cannot be
    evaluated count as infinite residuals and are recorded in the notes.
    """
    pts = chart.sample(plan)
    notes = list(notes)
    try:
        residuals = np.asarray(residual_fn(pts), float)
    except DomainError:
        residuals = np.empty(plan.count)
        bad = 0
        first_error = ""
        for k in range(plan.count):
            try:
                residuals[k] = float(residual_fn(pts[k : k + 1])[0])
            except DomainError as err:
                residuals[k] = np.inf
                bad += 1
                if not first_error:
                    first_error = str(err)
        if bad == plan.count:
            notes.append(f"all {plan.count} samples hit domain errors: {first_error}")
        else:
            notes.append(f"{bad} of {plan.count} samples hit domain errors: {first_error}")
    if residuals.shape != (plan.count,):
        raise ValueError("residual function must return one residual per sample")
    return make_report(name, residuals, tolerance, samples=plan.count, extra=extra, notes=notes)


# ---------------------------------------------------------------------------
# Symbolic matrix algebra (determinants, inverse metric, Levi-Civita)
# ---------------------------------------------------------------------------

def det_expression(rows) -> Expression:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total: Expression = ex.ZERO
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = ex.mul(rows[0][j], det_expression(minor))
        total = ex.add(total, term) if j % 2 == 0 else ex.sub(total, term)
    return total


def adjugate_expressions(rows) -> list[list[Expression]]:
    n = len(rows)
    if n == 1:
        return [[ex.ONE]]
    adj = [[ex.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof = det_expression(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else ex.neg(cof)
    return adj


def metric_trees(g: MetricField) -> list[list[Expression]]:
    d = g.chart.dim
    return [[entry_tree(g.entries[i, j]) for j in range(d)] for i in range(d)]


def inverse_metric_expressions(g: MetricField) -> list[list[Expression]]:
    rows = metric_trees(g)
    det = det_expression(rows)
    adj = adjugate_expressions(rows)
    return [[ex.div(adj[i][j], det) for j in range(len(rows))] for i in range(len(rows))]


def levi_civita(g: MetricField) -> ConnectionField:
    """Levi-Civita Christoffel symbols as expression trees."""
    d = g.chart.dim
    rows = metric_trees(g)
    ginv = inverse_metric_expressions(g)
    dg = [[[ex.diff(rows[j][k], i) for k in range(d)] for j in range(d)] for i in range(d)]
    # dg[i][j][k] = d_i g_{jk}
    gamma = np.empty((d, d, d), dtype=object)
    for k in range(d):
        for i in range(d):
            for j in range(d):
                total: Expression = ex.ZERO
                for l in range(d):
                    bracket = ex.sub(ex.add(dg[i][j][l], dg[j][i][l]), dg[l][i][j])
                    total = ex.add(total, ex.mul(ginv[k][l], bracket))
                gamma[k, i, j] = ex.mul(ex.const(0.5), total)
    return ConnectionField(g.chart, gamma)
