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
Every field entry is a hash-consed expression tree, so a field is
evaluated on one path: its trees form one shared DAG, planned once on the
first evaluation and run as one jet pass at every order and on every point
set. A line-integral gauge f (df = theta, for the l.c.H. metric e^{-f} g)
is a `Gauge` leaf of that DAG: its value comes from quadrature along a
segment and its derivatives from jets of theta. exp(sign * f) is then one
node, shared by every entry it scales.

Memory order: the sample axis is at unit stride in every jet, field tensor
and residual intermediate. Each array is indexed as above, sample axis first,
but is a transposed view of a buffer with the sample axis last
(`samples_first`), so a component such as value[:, i, j] is one contiguous
row of m samples. A point set is an m x n array and n is 2 to 5, so every
elementwise operation, contraction and reduction runs over rows of m rather
than over loops of length n. numpy keeps the order through ufuncs, einsum,
`np.copy` and `np.zeros_like` (their default order is 'K');
`ndarray.copy()`, `np.empty((m, ...))` and `np.stack(..., axis=1)` would
not, so the code here uses none of them on sample arrays. Values never
depend on the layout, up to the sign and payload of a NaN. Every contraction
is one `np.einsum` call without ``optimize``, so a three-operand spec forms
no intermediate product, and einsum raises no floating-point warning: NaN and
inf propagate to the gates that judge them.

Positive definiteness is decided by a certificate first (`definiteness`): a
Cholesky factorization of S - t I, one (m,) row per entry, whose pivots are
all positive proves a smallest eigenvalue above PD_FLOOR (`CERT_SLACK`).
Eigenvalues are computed only for the samples it leaves open, by the rule
that decided every sample before (`eigenvalue_definiteness`, the one
``eigvalsh`` call), so the gaps, eigenvalues and reports are the same bytes.

The most recently sampled point set is held, read-only, together with every
field tensor evaluated on exactly that array, so the checks of one structure
evaluate each field once. A lower-order request reads a prefix of a stored
higher-order tensor. The held point set also keeps small results derived on
exactly that array (`held_result`), keyed on (operator, fields): the (m,)
residual terms of `hesstat.structure_terms` (closedness is kept by
`closedness_residual` itself, for every caller), the constant-curvature fit
and the Lee constants. Only (m,) arrays and scalars are kept, never a
derived tensor such as the curvature or nabla g: at 20 000 samples a dim-3
curvature is 12.4 MiB, its flatness term 156 KiB. Sampling a different
(chart, plan) drops everything held.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import jets
from .expr import DomainError, Expression
from .jets import Jet, evaluate

Array = np.ndarray

PD_FLOOR = 1e-9
DEFAULT_TOLERANCE = 1e-6


class ChartError(ValueError):
    pass


class FieldShapeError(ValueError):
    """A field's entries do not have the shape its chart dimension asks for."""


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
        """The plan's points, read-only. An equal (chart, plan) sampled again
        gets the same array back while no other point set was sampled since."""
        global _held
        key = (self, plan)
        held = _held
        if held.key != key:
            lo, hi = self.lo(), self.hi()
            width = hi - lo
            lo = lo + plan.margin * width
            hi = hi - plan.margin * width
            rng = np.random.default_rng(plan.seed)
            pts = lo + rng.random((plan.count, self.dim)) * (hi - lo)
            pts.flags.writeable = False
            held = _held = _PointSet(key, pts)
        return held.pts

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
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer, so that sampling is reproducible")
        if not 0 <= self.margin < 0.5:
            raise ValueError("margin must lie in [0, 0.5)")


def residual_passes(max_residual: float, tolerance: float) -> bool:
    """A check passes when its worst residual is finite and within tolerance;
    an inf or NaN residual fails even under an infinite tolerance."""
    return bool(np.isfinite(max_residual) and max_residual <= tolerance)


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
        if self.passed != residual_passes(self.max_residual, self.tolerance):
            raise ValueError(
                "CheckReport invariant violated: passed must equal finite max <= tol"
            )

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
        passed=residual_passes(mx, tolerance),
        samples=int(samples if samples is not None else residuals.size),
        extra=dict(extra or {}),
        notes=tuple(notes),
    )


def samples_first(buf: Array) -> Array:
    """A (..., m) buffer viewed as (m, ...): the sample axis first in the
    index and at unit stride in memory."""
    return buf.transpose((buf.ndim - 1,) + tuple(range(buf.ndim - 1)))


# ---------------------------------------------------------------------------
# Entries: expression trees, with a line-integral gauge as a leaf
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
_GL_T = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


class LineIntegralGauge:
    """f(p) = integral of a (closed) 1-form along the straight segment base -> p.

    Where the form is closed (`lch.local_hessian_gauge` checks dθ = 0 first),
    f is a potential for it on the convex box:
    grad f = the form itself, so all derivative tensors of f come from jets
    of the components and only the value needs quadrature. A field entry
    reads f through an `ex.Gauge` leaf, as `gauged` builds it.
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

    def jet(self, pts: Array, order: int) -> Jet:
        pts = np.asarray(pts, float)
        m, n = pts.shape
        value = self.values(pts)
        grad = hess = third = None
        # each stack is a (k, ..., m) buffer, viewed sample axis first
        if order >= 1:
            comp_jets = evaluate(self.components, pts, order - 1)
            grad = samples_first(np.stack([j.value for j in comp_jets]))  # (m, k) = w_k
        if order >= 2:
            dform = samples_first(np.stack([j.grad.T for j in comp_jets]))  # (m, k, i) = d_i w_k
            hess = 0.5 * (dform + dform.transpose(0, 2, 1))
        if order >= 3:
            d2 = samples_first(np.stack([j.hess.transpose(1, 2, 0) for j in comp_jets]))
            t = d2.transpose(0, 2, 3, 1)  # (m, i, j, k) = d_i d_j w_k
            third = sum(
                np.transpose(t, (0,) + perm) for perm in itertools.permutations((1, 2, 3))
            ) / 6.0
        return Jet(order, value, grad, hess, third)


def gauged(gauge: LineIntegralGauge, sign: float, entry) -> Expression:
    """exp(sign * f) * entry, with f the gauge as a `Gauge` leaf. The factor
    is one node per (gauge, sign), so the entries scaled by it share it."""
    factor = ex.call("exp", ex.mul(ex.const(sign), ex.Gauge(gauge)))
    return ex.mul(factor, entry)


def as_entry(obj, dim: int) -> Expression:
    """An expression tree, parsed from a string or made from a number."""
    if isinstance(obj, Expression):
        return obj
    if isinstance(obj, str):
        return ex.parse_expression(obj, dim)
    if isinstance(obj, (int, float)):
        return ex.const(float(obj))
    raise TypeError(f"cannot interpret {obj!r} as a field entry")


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

    @property
    def order(self) -> int:
        return sum(a is not None for a in (self.d1, self.d2, self.d3))

    def prefix(self, order: int) -> "EvaluatedTensor":
        """The same arrays truncated at ``order``: lower-order jet
        coefficients do not depend on the higher ones."""
        parts = (self.d1, self.d2, self.d3)[:order]
        return EvaluatedTensor(self.value, *parts)


class _PointSet:
    """A sampled point set, the field tensors evaluated on that array and
    the small results derived on it."""

    __slots__ = ("key", "pts", "tensors", "results")

    def __init__(self, key=None, pts=None):
        self.key = key
        self.pts = pts
        self.tensors: dict = {}  # field -> read-only EvaluatedTensor
        self.results: dict = {}  # (operator, *fields) -> read-only (m,) array or scalar


_held = _PointSet()


def drop_held_points() -> None:
    """Forget the held point set and every tensor evaluated on it."""
    global _held
    _held = _PointSet()


def held_result(key: tuple, pts: Array, compute):
    """``compute()``, kept with the held point set when ``pts`` is its array.

    ``key`` names the operator and the fields it reads, so the result must
    depend on nothing else. Keep only (m,) arrays and scalars here; an array
    comes back read-only. Any other array (a slice, a copy, the single points
    of `sample_check`'s fallback) neither reads nor writes the store, and a
    ``compute`` that raises stores nothing."""
    held = _held
    if pts is not held.pts:
        return compute()
    out = held.results.get(key)
    if out is None:
        out = compute()
        if isinstance(out, np.ndarray):
            out.flags.writeable = False
        held.results[key] = out
    return out


_JET_PARTS = ("value", "grad", "hess", "third")


def _eval_entries(field: _Field, pts: Array, order: int) -> EvaluatedTensor:
    """Stack the entry jets, all taken in one `evaluate` pass over the
    field's plan, so a subtree shared by several entries (a gauge factor
    among them) is evaluated once. Each distinct entry's value and
    derivatives are written as rows of m contiguous samples when its slot
    finishes, a known-zero order as 0.0, and the pass then drops its jet
    unless a later slot reads it; an entry that is the same node as an
    earlier one (g_ij = g_ji) copies the rows already written."""
    m, n = pts.shape
    shape = field.entries.shape
    parts = [samples_first(np.empty(shape + (n,) * k + (m,))) for k in range(order + 1)]
    index = list(np.ndindex(shape))

    def write(positions, jet):
        first = (slice(None),) + index[positions[0]]
        for k, out in enumerate(parts):
            out[first] = getattr(jet, _JET_PARTS[k]) if k <= jet.degree else 0.0
            for r in positions[1:]:
                out[(slice(None),) + index[r]] = out[first]

    evaluate(jets.Feed(field.jet_plan(), write), pts, order)
    return EvaluatedTensor(*parts)


class _Field:
    shape: tuple[int, ...]

    def __init__(self, chart: Chart, entries):
        self.chart = chart
        arr = np.empty(self.shape_for(chart.dim), dtype=object)
        entries = np.asarray(entries, dtype=object)
        if entries.shape != arr.shape:
            raise FieldShapeError(
                f"{type(self).__name__} expected entries of shape {arr.shape}, got {entries.shape}"
            )
        for idx in np.ndindex(arr.shape):
            arr[idx] = as_entry(entries[idx], chart.dim)
        self.entries = arr
        self._jet_plan = None

    def jet_plan(self) -> jets.Plan:
        """The jet plan of the entries in C order, built on the first call
        and reused at every order and on every point set."""
        if self._jet_plan is None:
            self._jet_plan = jets._plan(self.entries.flat)
        return self._jet_plan

    @classmethod
    def shape_for(cls, dim: int) -> tuple[int, ...]:
        raise NotImplementedError

    def eval(self, pts: Array, order: int = 0) -> EvaluatedTensor:
        """Jets of every entry at ``pts``. On the held sampled array the
        result is read-only and shared with later calls on the same array."""
        held = _held
        if pts is not held.pts:
            return _eval_entries(self, pts, order)
        stored = held.tensors.get(self)
        if stored is None or stored.order < order:
            stored = _eval_entries(self, pts, order)
            for arr in (stored.value, stored.d1, stored.d2, stored.d3):
                if arr is not None:
                    arr.flags.writeable = False
            held.tensors[self] = stored
        return stored.prefix(order)


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

    def __init__(self, chart, christoffel):
        super().__init__(chart, christoffel)
        self._flat = all(entry == ex.ZERO for entry in self.entries.flat)

    @property
    def flat(self) -> bool:
        """Every Christoffel symbol is the zero node, so the batch operators
        may skip the Gamma terms."""
        return self._flat


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
    return ConnectionField(chart, np.full((chart.dim,) * 3, ex.ZERO, dtype=object))


def euler_field(chart: Chart) -> VectorFieldT:
    return VectorFieldT(chart, [ex.Var(i) for i in range(chart.dim)])


# ---------------------------------------------------------------------------
# Tensor calculus (batched)
# ---------------------------------------------------------------------------

def covariant_derivative_metric_batch(conn: ConnectionField, g: MetricField, pts) -> Array:
    gj = g.eval(pts, 1)
    nabla = np.copy(gj.d1.transpose(0, 3, 1, 2))  # (m, i, j, k) = d_i g_jk
    if not conn.flat:
        c = conn.eval(pts, 0).value
        nabla -= np.einsum("alij,alk->aijk", c, gj.value)
        nabla -= np.einsum("alik,ajl->aijk", c, gj.value)
    return nabla


def covariant_derivative_oneform_batch(conn: ConnectionField, theta: OneFormField, pts) -> Array:
    tj = theta.eval(pts, 1)
    nabla = np.copy(tj.d1.transpose(0, 2, 1))  # (m, i, j) = d_i theta_j
    if not conn.flat:
        c = conn.eval(pts, 0).value
        nabla -= np.einsum("akij,ak->aij", c, tj.value)
    return nabla


def covariant_derivative_vector_batch(conn: ConnectionField, xi: VectorFieldT, pts) -> Array:
    xj = xi.eval(pts, 1)
    nabla = np.copy(xj.d1)  # (m, i, j) = d_j xi^i
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
        return samples_first(np.zeros((d, d, d, d, m)))
    cj = conn.eval(pts, 1)
    gamma = cj.value
    dgamma = cj.d1.transpose(0, 1, 4, 2, 3)  # (m, l, i, j, k) = d_i Gamma^l_{jk}
    out = samples_first(np.empty((d, d, d, d, m)))
    for l in range(d):  # one upper index at a time, so scratch is one slice
        a = np.einsum("aiu,aujk->aijk", gamma[:, l], gamma)
        a += dgamma[:, l]  # A^l_{ijk} = Gamma^l_{iu} Gamma^u_{jk} + d_i Gamma^l_{jk}
        np.subtract(a, a.transpose(0, 2, 1, 3), out=out[:, l])
        del a  # before the next slice is allocated: scratch stays one slice
    return out


def exterior_derivative_oneform_batch(theta: OneFormField, pts) -> Array:
    tj = theta.eval(pts, 1)
    d = tj.d1.transpose(0, 2, 1)  # (m, i, j) = d_i theta_j
    return d - d.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# Residual helpers
# ---------------------------------------------------------------------------

def max_abs(arr: Array) -> Array:
    """Per-sample max-norm: collapses all axes but the first.

    Folds the components one (m,) row at a time, taking ``abs`` into one
    reused buffer, so its scratch is two (m,) arrays whatever the layout: a
    reduction over a short last axis pays a loop per sample, and ``abs`` of
    the whole array would copy it. The component axes are walked in memory
    order, so on a sample-first array each row is contiguous, and any array
    whose components merge into one axis (a C-ordered array, any transpose
    of a dense buffer, which covers every field tensor and residual) is read
    without a copy. NaN propagates (unsigned, as ``abs`` leaves it) and -0.0
    reads 0.0."""
    a = np.asarray(arr, float)
    m = a.shape[0]
    axes = sorted(range(1, a.ndim), key=a.strides.__getitem__, reverse=True)
    rows = a.transpose(axes + [0]).reshape(-1, m)
    out = np.abs(rows[0])
    buf = np.empty_like(out)
    for row in rows[1:]:
        np.maximum(out, np.abs(row, out=buf), out=out)
    return out


def rel_residual(delta: Array, scale: Array) -> Array:
    """Per-sample |delta| / (1 + |scale|), both reduced by max-norm."""
    return max_abs(delta) / (1.0 + max_abs(scale))


def closedness_residual(theta: OneFormField, pts) -> Array:
    """Per-sample |d theta| / (1 + |theta|), kept with the held point set
    (`held_result`). Reads theta at order 1 first, so the value is a prefix
    of the same tensor."""
    def compute():
        dtheta = exterior_derivative_oneform_batch(theta, pts)
        return rel_residual(dtheta, theta.eval(pts, 0).value)

    return held_result(("closedness", theta), pts, compute)


# The permutations of S_3 but the identity and one of the two 3-cycles:
# max|t - t o s| = max|t - t o s^-1| (the second is the first with its indices
# relabelled by s^-1), and the 3-cycles (2, 3, 1) and (3, 1, 2) are inverses.
_SYMMETRY_PERMS = ((1, 3, 2), (2, 1, 3), (3, 2, 1), (2, 3, 1))


def total_symmetry_residual_batch(t: Array) -> Array:
    """Worst deviation of ``t`` from its index permutations, relative to t.
    The identity is skipped: ``t - t`` is 0 where t is finite, and where it
    is not, ``scale`` is inf or NaN, so the result is NaN either way."""
    scale = 1.0 + max_abs(t)
    worst = np.zeros(t.shape[0])
    for perm in _SYMMETRY_PERMS:
        worst = np.maximum(worst, max_abs(t - np.transpose(t, (0,) + perm)))
    return worst / scale


def positive_definite(smallest: Array) -> Array:
    """Whether a smallest eigenvalue certifies a positive definite matrix:
    finite and above ``PD_FLOOR``. An inf or NaN eigenvalue certifies nothing."""
    return np.isfinite(smallest) & (smallest > PD_FLOOR)


def eigenvalue_definiteness(mats: Array) -> tuple[Array, Array]:
    """The eigenvalue rule on every sample: the smallest eigenvalue of each
    symmetric part (NaN where it is not finite), and its definiteness gap, 0
    where `positive_definite`, otherwise max(1, PD_FLOOR - eigenvalue) (NaN
    for a NaN eigenvalue), so a check on it fails. The only ``eigvalsh`` call
    in the package: gates reach it through `definiteness`, which sends it
    only the samples the Cholesky certificate leaves open."""
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    bad = ~np.isfinite(max_abs(sym))
    sym[bad] = 0.0  # LAPACK may not converge on an inf or NaN entry
    smallest = np.linalg.eigvalsh(sym)[:, 0]
    smallest[bad] = np.nan
    return smallest, np.where(positive_definite(smallest), 0.0,
                              np.maximum(1.0, PD_FLOOR - smallest))


# Relative shift of the Cholesky certificate. `_cholesky_certified` factors
# S - t I with t = PD_FLOOR + CERT_SLACK * ||S||_F, S a d x d symmetric part;
# the figures below are for d <= 5. A factorization that completes in
# floating point (u = 2^-53) gives L L^T = S - t I + E with
# |E| <= gamma_{d+1} |L| |L^T| and gamma_k = k u / (1 - k u) (Demmel, LAPACK
# Working Note 14, 1989; Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., Thm 10.3). As ||L||_F^2 = tr(L L^T) <= tr(S) /
# (1 - gamma_{d+1}) <= sqrt(d) ||S||_F (to first order), ||E||_2 <=
# gamma_{d+1} sqrt(d) ||S||_F <= 1.5e-15 ||S||_F, and rounding S_jj - t adds
# u (|S_jj| + t). L L^T is positive semidefinite, so lambda_min(S) >=
# PD_FLOOR (1 - u) + (CERT_SLACK - 1.7e-15) ||S||_F. LAPACK's eigvalsh
# returns the eigenvalues of S + F with ||F||_2 = O(d u ||S||_2), a few
# 1e-15 ||S||_F here. Both errors are far below 1e-10 ||S||_F; they grow as
# d^1.5 u and d u, so they stay below 1e-12 ||S||_F up to d = 100. So the
# computed smallest eigenvalue of a certified sample is finite (its entries
# are, as ||S||_F is) and above PD_FLOOR: its gap is 0, as the eigenvalue
# rule would give. Certifying needs ||S||_F > PD_FLOOR, which dwarfs the
# u PD_FLOOR term.
CERT_SLACK = 1e-10


def _cholesky_certified(sym: Array) -> Array:
    """Samples whose symmetric matrix is certified positive definite with a
    smallest eigenvalue above PD_FLOOR (see CERT_SLACK): ||S||_F is finite and
    every pivot of the Cholesky factorization of S - t I is > 0 (a NaN pivot
    is not). The factor is built one (m,) row per entry, so on a
    sample-contiguous array every operation runs over a contiguous row."""
    d = sym.shape[1]
    a = [[sym[:, i, j] for j in range(d)] for i in range(d)]
    low = [[None] * d for _ in range(d)]
    with np.errstate(all="ignore"):
        scale = np.zeros(sym.shape[0])
        for row in a:
            for entry in row:
                scale += entry * entry
        np.sqrt(scale, out=scale)
        shift = PD_FLOOR + CERT_SLACK * scale
        certified = np.isfinite(scale)
        for j in range(d):
            pivot = a[j][j] - shift
            for k in range(j):
                pivot -= low[j][k] * low[j][k]
            certified &= pivot > 0.0
            root = np.sqrt(pivot)
            for i in range(j + 1, d):
                entry = a[i][j]
                for k in range(j):
                    entry = entry - low[i][k] * low[j][k]
                low[i][j] = entry / root
    return certified


def definiteness(mats: Array) -> tuple[Array, Array, Array]:
    """Positive definiteness of each sample's symmetric part, by the Cholesky
    certificate first and by eigenvalues only where it leaves a sample open.

    Returns ``(gap, rest, smallest)``: the definiteness gap of every sample
    (as `eigenvalue_definiteness` defines it), the indices of the samples the
    certificate left open, and their smallest eigenvalues. A certified
    sample's gap is 0, the value the eigenvalue rule gives it (CERT_SLACK).
    The open samples are symmetrized from ``mats`` again, elementwise, and
    LAPACK factors each matrix of a batch on its own, so every gap and
    eigenvalue is the one `eigenvalue_definiteness` computes on all samples.
    When every sample is certified, no eigenvalue is computed."""
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    rest = np.flatnonzero(~_cholesky_certified(sym))
    gap = np.zeros(sym.shape[0])
    smallest = np.empty(0)
    if rest.size:
        smallest, gap[rest] = eigenvalue_definiteness(mats[rest])
    return gap, rest, smallest


def definiteness_gap(mats: Array) -> Array:
    """0 where the symmetric part is positive definite; otherwise a residual
    of at least 1 (NaN for a NaN eigenvalue) so the check fails."""
    return definiteness(mats)[0]


# ---------------------------------------------------------------------------
# Check runner
# ---------------------------------------------------------------------------

def sample_check(residual_fn, chart: Chart, plan: SamplePlan, tolerance: float,
                 name: str = "check", extra=None, notes=()) -> CheckReport:
    """Evaluate a batched residual function over sampled points.

    ``residual_fn`` takes an (m, n) array of points and returns (m,)
    residuals, or a dict of named (m,) residual terms. For terms, the
    residual at a sample is the worst term there, and ``extra`` keeps each
    term's worst value over the samples under its name; a NaN sticks
    (``np.maximum`` propagates it where ``max`` would drop it).

    Domain errors fall back to per-point evaluation; points that cannot be
    evaluated count as infinite residuals and are recorded in the notes.
    A call that raises folds none of its terms into ``extra``.
    """
    pts = chart.sample(plan)
    notes = list(notes)
    extra = dict(extra or {})

    def residuals_at(p):
        out = residual_fn(p)
        if not isinstance(out, dict):
            return out
        for key, arr in out.items():
            extra[key] = float(np.maximum(extra.get(key, 0.0), np.max(arr)))
        return np.maximum.reduce(list(out.values()))

    try:
        residuals = np.asarray(residuals_at(pts), float)
    except DomainError:
        residuals = np.empty(plan.count)
        bad = 0
        first_error = ""
        for k in range(plan.count):
            try:
                residuals[k] = float(residuals_at(pts[k : k + 1])[0])
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


def inverse_metric_expressions(g: MetricField) -> list[list[Expression]]:
    rows = g.entries
    det = det_expression(rows)
    adj = adjugate_expressions(rows)
    return [[ex.div(adj[i][j], det) for j in range(len(rows))] for i in range(len(rows))]


def levi_civita(g: MetricField) -> ConnectionField:
    """Levi-Civita Christoffel symbols as expression trees.

    Gamma^k_{ij} = Gamma^k_{ji}: each symbol is built once, for i <= j, and
    the pair shares it, as the symmetric pair d_l g_{ij} = d_l g_{ji} shares
    one derivative. The bracket for (j, i) would differ from the one for
    (i, j) only in the order of an addition, so the values are unchanged."""
    d = g.chart.dim
    ginv = inverse_metric_expressions(g)
    # dg[i][j][k] = d_i g_{jk}, one derivative per symmetric pair
    dg = [[[ex.diff(g.entries[min(j, k), max(j, k)], i) for k in range(d)] for j in range(d)]
          for i in range(d)]
    gamma = np.empty((d, d, d), dtype=object)
    for i in range(d):
        for j in range(i, d):
            brackets = [ex.sub(ex.add(dg[i][j][l], dg[j][i][l]), dg[l][i][j]) for l in range(d)]
            for k in range(d):
                total: Expression = ex.ZERO
                for l in range(d):
                    total = ex.add(total, ex.mul(ginv[k][l], brackets[l]))
                gamma[k, i, j] = gamma[k, j, i] = ex.mul(ex.const(0.5), total)
    return ConnectionField(g.chart, gamma)
