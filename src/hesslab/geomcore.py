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
array of sample points at once, returning the `jets.Jet` of the entries,
its parts with the derivative axes last (value[m, i, j], grad[m, i, j, a] =
d_a g_ij). Every field entry is a hash-consed expression tree, so a field
is evaluated on one path: its trees form one shared DAG, planned once on
the first evaluation and run as one jet pass per row block (below) at every
order and on every point set. A line-integral gauge f (df = theta, for the
l.c.H. metric e^{-f} g) is a `Gauge` leaf of that DAG: its value comes from
quadrature along a segment and its derivatives from theta's own jet.
exp(sign * f) is then one node, shared by every entry it scales.

Memory order: the sample axis is at unit stride in every jet, field tensor
and residual intermediate. Each array is indexed as above, sample axis first,
but is a transposed view of a buffer with the sample axis last (a field
tensor's is (*shape, k, m), see `jets`; `samples_first`), so a component
such as value[:, i, j] is one contiguous row of m samples. A point set is an
m x n array and n is 2 to 5, so every elementwise operation, contraction and
reduction runs over rows of m rather than over loops of length n. numpy
keeps the order through ufuncs, einsum, `np.copy` and `np.zeros_like` (their
default order is 'K'); `ndarray.copy()`, `np.empty((m, ...))`,
`np.stack(..., axis=1)` and indexing the sample axis with an index array
would not, so the code here uses none of them on sample arrays. Values never depend on the layout, up to the sign and
payload of a NaN. Every contraction is one `np.einsum` call without
``optimize``, so a three-operand spec forms no intermediate product, and
einsum raises no floating-point warning: NaN and inf propagate to the gates
that judge them. No residual builds a tensor only to reduce it (`max_abs`,
`torsion_residual`, `flatness_residual`, `total_symmetry_residual_batch`).

Positive definiteness is decided by a certificate first (`definiteness`): a
Cholesky factorization of S - t I, one (m,) row per entry, whose pivots are
all positive proves a smallest eigenvalue above PD_FLOOR (`CERT_SLACK`).
Eigenvalues are computed only for the samples it leaves open, by the rule
that decided every sample before (`eigenvalue_definiteness`), so the gaps,
eigenvalues and reports are the same bytes. The eigenvalues are LAPACK's
bits: a 2 x 2 sample runs a numpy copy of eigvalsh's own 2 x 2 path, branch
for branch (`_smallest_2x2`), and every other sample goes to the one
``eigvalsh`` call. In the bundled scenes every sample that reaches the
rule is 2 x 2.

Blocked passes: a field's plan runs over row blocks of the points
(`_eval_entries`), each block one jet pass written into its rows of the
field tensor. Block rows come from the plan and one fixed scratch budget
(`_SCRATCH_BUDGET`, `_block_rows`): the most jets a pass holds at once, their
width at the order, and what the consumer of the rows keeps per row. Jets
are computed per sample, so a blocked pass gives the whole pass's bytes. At
200 samples every bundled field runs in one block. The curvature kernel
(`curvature_slices`) is the one consumer that takes the rows as they come:
it hands each block's pair slices R^l_{ijk}, i < j, to the flatness term or
to the constant-curvature fit, which fold them into (m,) rows, so no code
builds R beyond one (b, d, d) slice. Above one block Gamma is held at order
0 only (`_holds_order_1`), so its derivative jets are never held whole.

The most recently sampled point set is held, read-only (`_PointSet`), with
each field's tensor on exactly that array, so the checks of one structure
evaluate each field once and a lower-order request reads a prefix of a
higher-order tensor. It also keeps small results derived on that array
(`held_result`), keyed on (operator, fields): the (m,) residual terms (the
flatness, torsion and closedness residuals keep themselves, for every
caller), the constant-curvature fit and the Lee constants; never a derived
tensor such as nabla g. Held data lives exactly as long as the fields it was
computed from: every field is a weak key, so a throwaway field's tensors (an
openness-probe candidate's, say) die with it, the store keeps no field
alive, and a new field never reads a dead one's entries. Sampling a
different (chart, plan) drops everything held.
"""

from __future__ import annotations

import functools
import itertools
import weakref

import numpy as np

from . import expr as ex
from . import jets
from .expr import Expression, Value
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

def _is_integer(x) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class Chart(Value):
    """An open coordinate box: the single affine patch everything lives on.
    ``box`` holds one (lo, hi) pair of floats per coordinate and ``positive``
    one flag per coordinate (all False when not given)."""

    __slots__ = __match_args__ = ("dim", "box", "positive")

    def __init__(self, dim: int, box, positive=()):
        if not _is_integer(dim):
            raise ChartError(f"chart dimension must be an integer, not {dim!r}")
        if dim < 1:
            raise ChartError("chart dimension must be positive")
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != dim:
            raise ChartError(f"box has {len(box)} intervals for dimension {dim}")
        for lo, hi in box:
            if not lo < hi:
                raise ChartError(f"empty interval ({lo}, {hi})")
            if not np.isfinite(hi - lo):
                raise ChartError(f"interval ({lo}, {hi}) is not finite")
        pos = tuple(positive) if positive else (False,) * dim
        if len(pos) != dim:
            raise ChartError("positivity flags must match dimension")
        for (lo, _), flag in zip(box, pos):
            if flag and lo < 0:
                raise ChartError(f"coordinate flagged positive but interval starts at {lo}")
        self._set(dim, box, pos)

    def lo(self) -> Array:
        return np.array([b[0] for b in self.box])

    def hi(self) -> Array:
        return np.array([b[1] for b in self.box])

    def sample(self, plan: "SamplePlan") -> Array:
        """The plan's points, read-only. An equal (chart, plan) sampled again
        gets the same array back while no other point set was sampled since."""
        global _held
        if _held.key != (self, plan):
            lo, hi = self.lo(), self.hi()
            width = hi - lo
            lo = lo + plan.margin * width
            hi = hi - plan.margin * width
            rng = np.random.default_rng(plan.seed)
            pts = lo + rng.random((plan.count, self.dim)) * (hi - lo)
            pts.flags.writeable = False
            _held = _PointSet((self, plan), pts)
        return _held.pts


class SamplePlan(Value):
    """``count`` points drawn uniformly from the chart's box shrunk by
    ``margin`` of its width on each side, by a generator seeded with
    ``seed``."""

    __slots__ = __match_args__ = ("count", "seed", "margin")

    def __init__(self, count: int = 200, seed: int = 42, margin: float = 0.05):
        if not _is_integer(count) or count < 1:
            raise ValueError(f"count must be an integer >= 1, not {count!r}")
        if not _is_integer(seed) or seed < 0:
            raise ValueError("seed must be an integer >= 0, so that sampling is reproducible")
        if not 0 <= margin < 0.5:
            raise ValueError("margin must lie in [0, 0.5)")
        self._set(count, seed, margin)


def residual_passes(max_residual: float, tolerance: float) -> bool:
    """A check passes when its worst residual is finite and within tolerance;
    an inf or NaN residual fails even under an infinite tolerance."""
    return bool(np.isfinite(max_residual) and max_residual <= tolerance)


class CheckReport(Value):
    """One check's residuals over its samples, with ``passed`` equal to
    `residual_passes` of the worst one; ``extra`` holds named component
    residuals and ``notes`` remarks such as how many samples hit domain
    errors."""

    __slots__ = __match_args__ = ("name", "max_residual", "mean_residual", "tolerance",
                                  "passed", "samples", "extra", "notes")

    def __init__(self, name: str, max_residual: float, mean_residual: float,
                 tolerance: float, passed: bool, samples: int,
                 extra: dict | None = None, notes: tuple[str, ...] = ()):
        if passed != residual_passes(max_residual, tolerance):
            raise ValueError(
                "CheckReport invariant violated: passed must equal finite max <= tol"
            )
        self._set(name, max_residual, mean_residual, tolerance, passed, samples,
                  {} if extra is None else extra, notes)

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

@functools.cache
def _gauss_legendre() -> tuple[Array, Array]:
    """The 48 Gauss-Legendre nodes and weights on [0, 1], built on first use:
    an interpreter that integrates no gauge never loads `numpy.polynomial`."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(48)
    return 0.5 * (nodes + 1.0), 0.5 * weights


class LineIntegralGauge:
    """f(p) = integral of a (closed) 1-form along the straight segment base -> p.

    Where the form is closed (the openness probe in `lch` checks dθ = 0
    first), f is a potential for it on the convex box: grad f = the form
    itself, so the derivative rows of f's jet are the rows of the form's
    own jet one order lower, and only the value needs quadrature. A field
    entry reads f through an `ex.Gauge` leaf, as `gauged` builds it.
    """

    def __init__(self, form: OneFormField, base_point):
        self.form = form
        self.base = np.asarray(base_point, float)
        if form.chart.dim != self.base.size:
            raise ValueError("gauge form components must match base point dimension")

    def jet(self, pts: Array, order: int) -> Jet:
        pts = np.asarray(pts, float)
        m, n = pts.shape
        nodes, weights = _gauss_legendre()
        q = len(nodes)
        diffs = pts - self.base
        # each point's segment in turn, so the first faulty quadrature point
        # is the lowest faulty point's first faulty node
        flat = (self.base + nodes[:, None] * diffs[:, None, :]).reshape(-1, n)
        integrals = [None] * n
        fault = None

        def integrate(positions, jet):
            nonlocal fault
            fault = jets.join(fault, jet.fault)
            # the (q, m) terms, added over the nodes in turn at every m (a sum
            # would add one row's terms pairwise), so a row's value does not
            # depend on the rows evaluated with it
            terms = np.multiply(weights[:, None], jet.buf[0].reshape(m, q).T, order="C")
            total = np.add.accumulate(terms, out=terms)[-1]
            for k in positions:
                integrals[k] = total * diffs[:, k]

        # one quadrature pass; the pass drops each component's jet once emitted
        evaluate(jets.Feed(self.form.jet_plan(), integrate), flat, 0)
        if fault is not None:
            row, seq, why = fault.first
            fault = jets.Fault(fault.rows.reshape(m, q).any(axis=1), (row // q, seq, why))
        off = jets.offsets(n)
        buf = np.empty((off[order + 1], m))
        buf[0] = sum(integrals)  # 0 + w_0 term + w_1 term + ..., in component order
        if order:
            form = _eval_entries(self.form, pts, order - 1)
            fault = jets.join(fault, form.fault)
            rows = form.buf  # (k, row, m): the jet rows of w_k
            buf[1:off[2]] = rows[:, 0]
        if order == 2:
            dform = rows[:, 1:]  # (k, i, m) = d_i w_k
            hess = buf[off[2]:].reshape(n, n, m)
            np.add(dform, dform.transpose(1, 0, 2), out=hess)
            hess *= 0.5
        return Jet(order, order, n, buf, fault)


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

class _PointSet:
    """The held point set and what was computed on it (see the module
    docstring), field tensors under (field,) and small results with their
    faults under (operator, *fields). Only these methods read the store."""

    __slots__ = ("key", "pts", "_store", "_forget", "__weakref__")

    def __init__(self, key=None, pts=None):
        self.key, self.pts = key, pts
        self._store: dict = {}  # (field,) -> tensor; (operator, *fields) -> (result, fault)
        this = weakref.ref(self)  # a strong one would keep a dropped point set in a cycle

        def forget(dead):
            held = this()
            for key in [key for key in held._store if dead in key] if held else ():
                held._store.pop(key, None)

        self._forget = forget

    def get(self, key: tuple, pts: Array):
        """What is held under ``key`` on exactly ``pts``, or None."""
        return self._store.get(tuple(map(_weak, key))) if pts is self.pts else None

    def put(self, key: tuple, pts: Array, value):
        """``value``, held read-only under ``key`` when ``pts`` is the held array."""
        if pts is self.pts:
            for arr in (value.buf,) if isinstance(value, Jet) else value:
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
            self._store[tuple(_weak(part, self._forget) for part in key)] = value
        return value


def _weak(part, forget=None):
    """A field as a weak reference, which hashes and compares as the field
    while it lives; any other part of a key as itself."""
    return weakref.ref(part, forget) if isinstance(part, _Field) else part


_held = _PointSet()


def drop_held_points() -> None:
    """Forget the held point set and everything computed on it."""
    global _held
    _held = _PointSet()


# The fault of what a running `sample_check` or `held_result` has read, in a
# one-item list; None where neither runs.
_recording: list | None = None


def _note(fault: jets.Fault | None) -> None:
    """Record the fault of a tensor or result just read; raise its
    `DomainError` where nothing records."""
    if fault is not None:
        if _recording is None:
            raise fault.error()
        _recording[0] = jets.join(_recording[0], fault)


def _recorded(compute) -> tuple:
    """``(compute(), fault)``, with the faults it reads recorded, not raised."""
    global _recording
    outer, _recording = _recording, [None]
    try:
        return compute(), _recording[0]
    finally:
        _recording = outer


def held_result(key: tuple, pts: Array, compute):
    """``compute()``, kept with the held point set when ``pts`` is its array.

    ``key`` names the operator and the fields it reads, so the result must
    depend on nothing else; it lives as long as the point set and every one
    of those fields, and no other field reads it. Keep only (m,) arrays and
    scalars here; an array comes back read-only. Any other array (a slice,
    a copy) neither reads nor writes the store, and a ``compute`` that raises
    stores nothing. A read notes the fault of what ``compute`` read."""
    out = _held.get(key, pts)
    if out is None:
        out = _held.put(key, pts, _recorded(compute))
    _note(out[1])
    return out[0]


# Bytes of scratch one blocked field pass may hold (`_block_rows`). At 200
# samples every field of every bundled scene and of the dense round-sphere
# scenes up to dim 5, and the curvature fold of their connections, fit one
# block, so such passes run as one.
_SCRATCH_BUDGET = 32 << 20


def _block_rows(field: _Field, m: int, n: int, order: int, keep: int = 0) -> int:
    """Rows per block of a pass over the field's plan at m n-dim points and
    ``order``: the most jets the pass holds at once (`jets.live_peak`), each
    of 1 + n + ... + n^order numbers per row, and ``keep`` bytes per row that
    the consumer of the rows holds, stay under `_SCRATCH_BUDGET`. When m rows
    fit even with every slot's jet held, that is m, and the peak is not
    counted."""
    jet = 8 * sum(n**k for k in range(order + 1))
    if m * (jet * len(field.jet_plan().slots) + keep) <= _SCRATCH_BUDGET:
        return m
    return max(1, _SCRATCH_BUDGET // (jet * field.live_peak() + keep))


def _eval_rows(field: _Field, pts: Array, order: int, out: Array) -> jets.Fault | None:
    """One `evaluate` pass over the field's plan at ``pts``, written into
    ``out``, a (*shape, k, len(pts)) buffer of jet rows: a subtree shared by
    several entries (a gauge factor among them) is evaluated once. Each
    distinct entry's jet buffer is copied when its slot finishes, its rows
    above the jet's degree set to 0.0, and the pass then drops the jet unless
    a later slot reads it; an entry that is the same node as an earlier one
    (g_ij = g_ji) copies the rows already written. Returns the entries'
    fault."""
    index = list(itertools.product(*map(range, field.entries.shape)))
    fault = None

    def write(positions, jet):
        nonlocal fault
        fault = jets.join(fault, jet.fault)
        first = out[index[positions[0]]]
        first[:len(jet.buf)] = jet.buf
        first[len(jet.buf):] = 0.0
        for r in positions[1:]:
            out[index[r]] = first

    evaluate(jets.Feed(field.jet_plan(), write), pts, order)
    return fault


def _eval_entries(field: _Field, pts: Array, order: int, take=None, keep: int = 0,
                  whole: int | None = None) -> Jet:
    """The jet of the field's entries at ``pts``, taken one row block at a
    time (`_block_rows`): each block is one `_eval_rows` pass at the rows
    ``pts[rows]``, written into those rows. Jets are computed per sample,
    so the blocks give the whole pass's numbers and fault bit for bit.

    The jet returned has the first ``whole`` orders (all by default) at
    all m rows: its order is ``whole`` - 1. The orders above are held one
    block at a time. ``take(rows, jet)``, if given, sees each block's jet at
    every order as it finishes; ``keep`` is the bytes per row that it and
    the block's own buffer keep."""
    m, n = pts.shape
    shape = field.entries.shape
    off = jets.offsets(n)
    whole = order + 1 if whole is None else whole
    buf = np.empty(shape + (off[whole], m))
    step = _block_rows(field, m, n, order, keep)
    fault = None
    for start in range(0, m, step):
        rows = slice(start, min(start + step, m))
        block = buf[..., rows]
        if whole <= order:  # the block's own rows, the first orders copied out
            block = np.empty(shape + (off[order + 1], rows.stop - start))
        found = _eval_rows(field, pts[rows], order, block)
        if whole <= order:
            buf[..., rows] = block[..., :off[whole], :]
        if found is not None and step < m:  # as a fault of all m rows
            bad = np.zeros(m, bool)
            bad[rows] = found.rows
            found = jets.Fault(bad, (found.first[0] + start,) + found.first[1:])
        fault = jets.join(fault, found)
        if take is not None:
            take(rows, Jet(order, order, n, block))
    return Jet(whole - 1, whole - 1, n, buf, fault)


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
        self._live_peak = None

    def jet_plan(self) -> jets.Plan:
        """The jet plan of the entries in C order, built on the first call
        and reused at every order and on every point set."""
        if self._jet_plan is None:
            self._jet_plan = jets._plan(self.entries.flat)
        return self._jet_plan

    def live_peak(self) -> int:
        """The most jets one pass over the plan holds at once, counted on
        the first call."""
        if self._live_peak is None:
            self._live_peak = jets.live_peak(self.jet_plan())
        return self._live_peak

    @classmethod
    def shape_for(cls, dim: int) -> tuple[int, ...]:
        raise NotImplementedError

    def eval(self, pts: Array, order: int = 0) -> Jet:
        """The jet of the entries at ``pts``. On the held sampled array its
        buffer is read-only and shared with later calls on the same array.
        Every read notes the tensor's fault (`_note`)."""
        jets.check_order(order)
        stored = _held.get((self,), pts)
        if stored is None or stored.order < order:
            stored = _held.put((self,), pts, _eval_entries(self, pts, order))
        _note(stored.fault)
        return stored if stored.order == order else stored.prefix(order)


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
    nabla = np.copy(gj.grad.transpose(0, 3, 1, 2))  # (m, i, j, k) = d_i g_jk
    if not conn.flat:
        # Gamma^l_ik g_jl is the (j, k) transpose of Gamma^l_ij g_lk: g's
        # value tensor is bitwise symmetric (`MetricField`)
        c = conn.eval(pts, 0).value
        t = np.einsum("alij,alk->aijk", c, gj.value)
        nabla -= t
        nabla -= t.transpose(0, 1, 3, 2)
    return nabla


def covariant_derivative_oneform_batch(conn: ConnectionField, theta: OneFormField, pts) -> Array:
    tj = theta.eval(pts, 1)
    nabla = np.copy(tj.grad.transpose(0, 2, 1))  # (m, i, j) = d_i theta_j
    if not conn.flat:
        c = conn.eval(pts, 0).value
        nabla -= np.einsum("akij,ak->aij", c, tj.value)
    return nabla


def covariant_derivative_vector_batch(conn: ConnectionField, xi: VectorFieldT, pts) -> Array:
    xj = xi.eval(pts, 1)
    nabla = np.copy(xj.grad)  # (m, i, j) = d_j xi^i
    if not conn.flat:
        c = conn.eval(pts, 0).value
        nabla += np.einsum("aijk,ak->aij", c, xj.value)
    return nabla


def lie_derivative_metric_batch(xi: VectorFieldT, g: MetricField, pts) -> Array:
    gj = g.eval(pts, 1)
    xj = xi.eval(pts, 1)
    out = np.einsum("ak,aijk->aij", xj.value, gj.grad)
    # g_ik d_j xi^k is the transpose of g_kj d_i xi^k (g is bitwise symmetric)
    t = np.einsum("akj,aki->aij", gj.value, xj.grad)
    out += t
    out += t.transpose(0, 2, 1)
    return out


def _fold_keep(d: int) -> int:
    """Bytes per row that one block of the curvature fold reserves besides
    the jets' scratch: Gamma's value and derivative rows, a pair's slice and
    the fit's trace need d^4 + d^3 + 3 d^2. The value was sized for a block
    of the whole R and stays, as it sets the fold's block rows: that smaller
    count gives larger blocks, more peak RSS and page faults at 20 000 samples."""
    return 8 * (2 * d**4 + 2 * d**3 + 2 * d**2)


def _fold_step(conn: ConnectionField, m: int, n: int) -> int:
    """Rows per block of the curvature fold of ``conn`` on m n-dim points."""
    return _block_rows(conn, m, n, 1, _fold_keep(n))


def _holds_order_1(conn: ConnectionField, pts) -> bool:
    """The one rule for holding Gamma's order-1 tensor: held when the points
    fit one block of the curvature fold (or held already), else Gamma is held
    at order 0 and the fold takes its order-1 jets block by block. Torsion
    reads Gamma at the order held and the flatness scale reads the values
    the fold leaves held, so no term evaluates Gamma twice."""
    stored = _held.get((conn,), pts)
    m, n = pts.shape
    return (stored is not None and stored.order >= 1) or _fold_step(conn, m, n) >= m


def curvature_slices(conn: ConnectionField, pts, take) -> None:
    """``take(rows, i, j, r)`` for each row block and index pair i < j, with
    r the fresh slice (b, l, k) = R^l_{ijk} = Gamma^l_{iu} Gamma^u_{jk} -
    Gamma^l_{ju} Gamma^u_{ik} + d_i Gamma^l_{jk} - d_j Gamma^l_{ik} at those
    rows. The rows d_i Gamma^l_{ik} enter no pair, so each slice adds 0 times
    their sum: NaN where one is not finite (or the sum overflows). The
    slices are all of R: R^l_{jik} = -R^l_{ijk} and R^l_{iik} = 0. The
    flatness term and the constant-curvature fit read R from them alone.

    Where `_holds_order_1` holds Gamma's order-1 tensor the blocks are rows
    of it. Otherwise Gamma's order-1 jets are taken one block at a time and
    dropped once folded; on the held points, unless Gamma's values are held
    there already, their value rows are written into one (m, d, d, d)
    tensor that is then held at order 0. The scratch is one block of
    Gamma's jets and one slice, at any number of points."""
    d = conn.chart.dim

    def fold(rows, cj):
        gamma, dgamma = cj.value, cj.grad  # dgamma (b, l, j, k, i) = d_i Gamma^l_{jk}
        guard = 0.0 * np.sum(np.diagonal(dgamma, axis1=2, axis2=4), axis=(1, 2, 3))
        for i, j in itertools.combinations(range(d), 2):
            r = np.einsum("alu,auk->alk", gamma[:, :, i], gamma[:, :, j])
            r -= np.einsum("alu,auk->alk", gamma[:, :, j], gamma[:, :, i])
            r += dgamma[:, :, j, :, i]
            r -= dgamma[:, :, i, :, j]
            r += guard[:, None, None]
            take(rows, i, j, r)

    if _holds_order_1(conn, pts):
        cj = conn.eval(pts, 1)
        step = _fold_step(conn, len(pts), d)
        for start in range(0, len(pts), step):
            rows = slice(start, start + step)
            fold(rows, cj.prefix(1, rows))
        return
    hold = pts is _held.pts and _held.get((conn,), pts) is None
    values = _eval_entries(conn, pts, 1, fold, _fold_keep(d), whole=int(hold))
    if hold:
        _held.put((conn,), pts, values)
    _note(values.fault)


def exterior_derivative_oneform_batch(theta: OneFormField, pts) -> Array:
    tj = theta.eval(pts, 1)
    d = tj.grad.transpose(0, 2, 1)  # (m, i, j) = d_i theta_j
    return d - d.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# Residual helpers
# ---------------------------------------------------------------------------

# Samples per block of `max_abs`. Its largest inputs, such as nabla g, hold
# d^3 entries per sample: a block is 0.4 MiB at dim 3 and 1 MiB at dim 4, so
# it stays in a 2 MiB L2 cache from the maximum's reduction to the
# minimum's, and each reduction still runs over rows of 2048 samples.
_MAX_ABS_ROWS = 2048


def max_abs(arr: Array) -> Array:
    """Per-sample max-norm: collapses all axes but the first, by
    ``np.maximum.reduce`` and ``np.minimum.reduce`` (|max(hi, -lo)|), so the
    scratch is two (m,) arrays. Both reduce one block of `_MAX_ABS_ROWS`
    samples before the next, so the input is read from memory once; max and
    min are exact, so blocks change no bit. Each reduction runs along rows of
    samples on a sample-first array; on a C-ordered one it loops per sample
    over a short axis. NaN propagates (unsigned, as ``abs`` leaves it); -0.0
    reads 0.0."""
    a = np.asarray(arr, float)
    axes = tuple(range(1, a.ndim))
    m = a.shape[0]
    hi, lo = np.empty(m), np.empty(m)
    for start in range(0, m, _MAX_ABS_ROWS):
        rows = slice(start, start + _MAX_ABS_ROWS)
        np.maximum.reduce(a[rows], axis=axes, out=hi[rows])
        np.minimum.reduce(a[rows], axis=axes, out=lo[rows])
    np.maximum(hi, np.negative(lo, out=lo), out=hi)
    return np.abs(hi, out=hi)


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


def torsion_residual(conn: ConnectionField, pts) -> Array:
    """Per-sample |Gamma^k_{ij} - Gamma^k_{ji}| / (1 + |Gamma|), kept with
    the held point set (`held_result`), folded over i <= j one (m, d, d - i)
    block at a time: i > j repeats j < i up to sign, and i = j keeps a
    non-finite Gamma as NaN. 0 for a flat connection, which is not
    evaluated."""
    def compute():
        worst = np.zeros(len(pts))
        if conn.flat:
            return worst
        gamma = conn.eval(pts, int(_holds_order_1(conn, pts))).value
        for i in range(conn.chart.dim):
            np.maximum(worst, max_abs(gamma[:, :, i, i:] - gamma[:, :, i:, i]), out=worst)
        return worst / (1.0 + max_abs(gamma))

    return held_result(("torsion", conn), pts, compute)


def flatness_residual(conn: ConnectionField, pts) -> Array:
    """Per-sample |R| / (1 + |Gamma|), kept with the held point set
    (`held_result`), without the curvature tensor: the largest max |R^l_{ij.}|
    over the pair slices i < j (`curvature_slices`), which hold every entry
    of R up to sign. 0 for a flat connection, not evaluated, and on a 1-dim
    chart."""
    def compute():
        worst = np.zeros(len(pts))
        if conn.flat:
            return worst

        curvature_slices(conn, pts, lambda rows, i, j, r: np.maximum(
            worst[rows], max_abs(r), out=worst[rows]))
        return worst / (1.0 + max_abs(conn.eval(pts, 0).value))

    return held_result(("flatness", conn), pts, compute)


@functools.cache
def _symmetry_orbits(d: int) -> tuple:
    """The S_3-orbits of index triples as row indices ``(:, i, j, k)``."""
    return tuple(tuple((slice(None),) + p for p in sorted(set(itertools.permutations(rep))))
                 for rep in itertools.combinations_with_replacement(range(d), 3))


def total_symmetry_residual_batch(t: Array) -> Array:
    """Worst deviation of ``t`` from its index permutations, relative to t:
    the largest |t[a] - t[b]| over triples a, b of one S_3-orbit, as max - min
    of the orbit in two (m,) rows. Rounding is monotone, so fl(max - min) is
    the largest fl|t[a] - t[b]|, bit for bit; a lone (i, i, i) gives t - t, 0
    where t is finite. A NaN, or inf - inf, gives NaN either way, and so does
    a scale that is inf or NaN."""
    scale = 1.0 + max_abs(t)
    worst = np.zeros(t.shape[0])
    hi, lo = np.empty_like(worst), np.empty_like(worst)
    for orbit in _symmetry_orbits(t.shape[1]):
        np.maximum(t[orbit[0]], t[orbit[-1]], out=hi)
        np.minimum(t[orbit[0]], t[orbit[-1]], out=lo)
        for row in orbit[1:-1]:
            np.maximum(hi, t[row], out=hi)
            np.minimum(lo, t[row], out=lo)
        np.maximum(worst, np.subtract(hi, lo, out=hi), out=worst)
    return np.abs(worst, out=worst) / scale


def positive_definite(smallest: Array) -> Array:
    """Whether a smallest eigenvalue certifies a positive definite matrix:
    finite and above ``PD_FLOOR``. An inf or NaN eigenvalue certifies nothing."""
    return np.isfinite(smallest) & (smallest > PD_FLOOR)


# The 2 x 2 path of ``np.linalg.eigvalsh`` (Anderson et al., LAPACK Users'
# Guide, 3rd ed., SIAM 1999): dsyevd -> dsytrd, which leaves a 2 x 2 matrix
# as it is (diagonal d = (a, c), off-diagonal e = b, lower triangle) ->
# dsterf -> dlae2, and dlasrt sorts the pair. `_smallest_2x2` takes each of
# their branches as a mask and each operation in their order, with dlamch's
# eps = 2^-53, so it gives eigvalsh's bits on every matrix neither routine
# rescales: dsyevd rescales a largest |entry| outside [2^-485, 2^485]
# (sqrt(tiny / (2 eps))^{+-1}) and dsterf one outside [sqrt(tiny) / eps^2,
# sqrt(1 / tiny) / 3] = [2^-405, 2^509.4]. Matrices outside `_UNSCALED`,
# the zero matrix among them, go to eigvalsh.
_EPS = 2.0 ** -53
_UNSCALED = (2.0 ** -405, 2.0 ** 485)


def _smallest_2x2(sym: Array) -> Array:
    """The smallest eigenvalue of each symmetric 2 x 2 matrix of ``sym``,
    bit for bit as eigvalsh computes it inside `_UNSCALED` (see above)."""
    a, b, c = sym[:, 0, 0], sym[:, 1, 0], sym[:, 1, 1]
    with np.errstate(all="ignore"):
        # dsterf: e splits off, or e^2 deflates, and d is the spectrum
        aa, ac = np.abs(a), np.abs(c)
        kept = np.abs(b) <= np.sqrt(aa) * np.sqrt(ac) * _EPS
        e2 = b * b
        kept |= e2 <= _EPS * _EPS * (aa * ac)  # |a c|, the same bits
        # QR iteration when |c| < |a|: dlae2(c, |e|, a), else QL: dlae2(a, |e|, c)
        qr = ac < aa
        rte = np.sqrt(e2)
        sm = a + c
        adf = np.abs(a - c)
        ab = rte + rte  # |2 rte|, as rte >= 0
        big = np.maximum(adf, ab)
        ratio = np.minimum(adf, ab) / big
        rt = big * np.sqrt(1.0 + ratio * ratio)  # adf = ab: ratio 1, ab sqrt(2)
        rt1 = 0.5 * (sm + np.where(sm < 0.0, -rt, rt))
        # acmx and acmn: the entry of the larger |.| and the other, c on a tie
        rt2 = (np.where(qr, a, c) / rt1) * np.where(qr, c, a) - (rte / rt1) * rte
        rt2 = np.where(sm == 0.0, -0.5 * rt, rt2)
        # dlasrt's insertion sort of d, which QL leaves (rt1, rt2) and QR
        # (rt2, rt1). Both orders sort to the same bits: the entries are
        # finite, and |rt1| >= rt / 2 > 0, so equal rt1 and rt2 are not a
        # pair of signed zeros
        first = np.where(kept, a, rt1)
        second = np.where(kept, c, rt2)
        return np.where(second < first, second, first)


def eigenvalue_definiteness(mats: Array) -> tuple[Array, Array]:
    """The eigenvalue rule on every sample: the smallest eigenvalue of each
    symmetric part (NaN where it is not finite), and its definiteness gap, 0
    where `positive_definite`, otherwise max(1, PD_FLOOR - eigenvalue) (NaN
    for a NaN eigenvalue), so a check on it fails. The eigenvalues are
    eigvalsh's bits: 2 x 2 samples inside `_UNSCALED` are `_smallest_2x2`'s,
    and the package's only ``eigvalsh`` call takes every other sample. Gates
    reach this through `definiteness`, which sends it only the samples the
    Cholesky certificate leaves open."""
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    scale = max_abs(sym)
    bad = ~np.isfinite(scale)
    sym[bad] = 0.0  # LAPACK may not converge on an inf or NaN entry
    if sym.shape[1] == 2:
        smallest = _smallest_2x2(sym)
        lapack = ~((scale >= _UNSCALED[0]) & (scale <= _UNSCALED[1]))
    else:
        smallest = np.empty(sym.shape[0])
        lapack = np.ones(sym.shape[0], bool)
    if lapack.any():
        smallest[lapack] = np.linalg.eigvalsh(sym[lapack])[:, 0]
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
    LAPACK and `_smallest_2x2` take each matrix of a batch on its own, so
    every gap and eigenvalue is the one `eigenvalue_definiteness` computes on
    all samples.
    When every sample is certified, no eigenvalue is computed."""
    sym = 0.5 * (mats + mats.transpose(0, 2, 1))
    rest = np.flatnonzero(~_cholesky_certified(sym))
    gap = np.zeros(sym.shape[0])
    smallest = np.empty(0)
    if rest.size:
        open_mats = samples_first(np.take(np.moveaxis(mats, 0, -1), rest, axis=-1))
        smallest, gap[rest] = eigenvalue_definiteness(open_mats)
    return gap, rest, smallest


def definiteness_gap(mats: Array) -> Array:
    """0 where the symmetric part is positive definite; otherwise a residual
    of at least 1 (NaN for a NaN eigenvalue) so the check fails."""
    return definiteness(mats)[0]


# ---------------------------------------------------------------------------
# Check runner
# ---------------------------------------------------------------------------

def in_domain(values: Array) -> Array:
    """The rows of ``values`` (one per sample) that no fault the running
    check has recorded marks."""
    fault = None if _recording is None else _recording[0]
    return values if fault is None else values[~fault.rows]


def sample_check(residual_fn, chart: Chart, plan: SamplePlan, tolerance: float,
                 name: str = "check", extra=None) -> CheckReport:
    """Evaluate a batched residual function over sampled points, in one call.

    ``residual_fn`` takes an (m, n) array of points and returns (m,)
    residuals, or a dict of named (m,) residual terms. For terms, the
    residual at a sample is the worst term there, and ``extra`` keeps each
    term's worst value over the samples under its name; a NaN sticks
    (``np.maximum`` propagates it where ``max`` would drop it). ``extra`` is
    copied after the call, so ``residual_fn`` may add to it.

    The faults the call reads are recorded (`_recorded`). A faulty sample is
    an infinite residual, and so is a term that is NaN there: a faulty row is
    NaN in every tensor computed from it, so a term reads inf where its own
    inputs are faulty. A note counts them and gives the lowest one's message.
    """
    pts = chart.sample(plan)
    out, fault = _recorded(lambda: residual_fn(pts))
    notes = ()
    extra = dict(extra or {})
    bad = None if fault is None else fault.rows
    if isinstance(out, dict):
        terms = [np.asarray(arr, float) for arr in out.values()]
        if bad is not None:
            terms = [np.where(bad & np.isnan(arr), np.inf, arr) for arr in terms]
        for key, arr in zip(out, terms):
            extra[key] = float(np.maximum(extra.get(key, 0.0), np.max(arr)))
        out = np.maximum.reduce(terms)
    residuals = np.asarray(out, float)
    if residuals.shape != (plan.count,):
        raise ValueError("residual function must return one residual per sample")
    if bad is not None:
        residuals = np.where(bad, np.inf, residuals)
        k = int(np.count_nonzero(bad))
        share = f"all {k}" if k == plan.count else f"{k} of {plan.count}"
        notes = (f"{share} samples hit domain errors: {fault.first[2]}",)
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


def covariant_hessian_trees(conn: ConnectionField, theta) -> Array:
    """(nabla theta)_{ij} = d_j theta_i - Gamma^k_{ij} theta_k as a mirrored
    (n, n) tree matrix, built for i <= j from the component trees ``theta``.

    With theta = d(phi) this is the covariant Hessian of phi. For a closed
    theta and a torsion-free connection it is nabla theta; it is not, in
    general, otherwise: the mirror drops any antisymmetric part."""
    n = conn.chart.dim
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            drop = ex.sum_of(ex.mul(conn.entries[k, i, j], theta[k]) for k in range(n))
            out[i, j] = out[j, i] = ex.sub(ex.diff(theta[i], j), drop)
    return out
