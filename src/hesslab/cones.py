"""Convex cones, their characteristic functions, and derived structures.

A pointed open convex cone V carries the integral

    psi(x) = integral over the dual cone of exp(-<x, y>) dy,

positive and homogeneous of degree -dim on the interior.  ``hesslab`` uses
psi three ways: as a scalar invariant (closed forms where safe, importance-
sampled Monte Carlo otherwise), through the barrier metric Hess(ln psi), and
through the characteristic surface {psi = 1} whose induced structure is
statistical of negative curvature.

Monte Carlo proposals are exponential tilts detuned by a factor 1.5 from the
optimal rate.  The exact rate would make the orthant weights constant and the
reported standard error identically zero, which breaks the error bar as a
diagnostic; the detuned proposal keeps a known, honest variance.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import expr as ex
from .expr import Expression
from .geomcore import (
    DEFAULT_TOLERANCE,
    Chart,
    MetricField,
    OneFormField,
    covariant_hessian_trees,
    euler_field,
    flat_connection,
)
from .hesstat import StatisticalStructure, level_set_statistical
from .jets import evaluate

__all__ = [
    "ConeSpec",
    "OrthantCone",
    "LorentzCone",
    "PolyhedralCone",
    "ProductCone",
    "PsiValue",
    "ConeError",
    "OutsideConeError",
    "NoClosedFormError",
    "MonteCarloDivergenceError",
    "cone_from_spec",
    "characteristic_function",
    "log_psi_metric",
    "surface_statistical_structure",
    "cone_lch_structure",
    "sample_interior",
]

MC_CHUNK = 100_000


class ConeError(ValueError):
    pass


class OutsideConeError(ConeError):
    """The point is not strictly inside the (open) cone."""


class NoClosedFormError(ConeError):
    """psi has no implemented closed form for this cone."""


class MonteCarloDivergenceError(ConeError):
    """The estimator's relative error exceeded 0.5; the point is too close
    to the boundary for the sample budget."""


@dataclass(frozen=True)
class PsiValue:
    """A characteristic-function value with its uncertainty."""

    value: float
    stderr: float
    method: str

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("psi values are positive on the open cone")
        if self.stderr < 0:
            raise ValueError("standard error cannot be negative")


def _ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _uniform_ball(rng, ball: np.ndarray, radii: np.ndarray, squares=None) -> None:
    """Fill the (count, d) ``ball`` with uniform samples in the unit d-ball.

    ``radii`` is (count,) scratch and ``squares`` (count, d) scratch, needed
    for d > 1. The draws and the arithmetic are numpy's own: ``uniform(-1, 1)``
    is -1 + 2u, and the normalizing norm is ``np.linalg.norm``'s sum of
    squares; the columns are scaled one at a time, not by a broadcast over
    the short last axis."""
    d = ball.shape[1]
    if d == 1:
        rng.random(out=ball)
        ball *= 2.0
        ball -= 1.0
        return
    rng.standard_normal(out=ball)
    np.add.reduce(np.multiply(ball, ball, out=squares), axis=1, out=radii)
    np.sqrt(radii, out=radii)
    for j in range(d):
        ball[:, j] /= radii
    rng.random(out=radii)
    radii **= 1.0 / d  # the operator, so numpy picks the same power path as `**`
    for j in range(d):
        ball[:, j] *= radii


def _chunk_buffers(*specs):
    """``take(count)``: one array of ``count`` rows per (trailing shape, dtype)
    in ``specs``, the leading rows of buffers allocated at the first call's
    size and reused by every later call that fits. `_mc_mean`'s first chunk
    is its largest, so a sampler allocates its scratch once per estimate."""
    held = []

    def take(count):
        if not held or len(held[0]) < count:
            held[:] = [np.empty((count,) + shape, dtype) for shape, dtype in specs]
        return [a[:count] for a in held]

    return take


def _mc_mean(total: int, seed_seq: np.random.SeedSequence, sampler):
    """Chunked, reproducible Monte Carlo mean with standard error.

    Chunk k draws from child k of ``seed_seq``'s spawn, so the result does not
    depend on chunk boundaries being hit in order. ``sampler(rng, out)``
    writes a chunk's weights into ``out``, a slice of one buffer reused by
    every chunk, as is the buffer of their squares.
    """
    nchunks = (total + MC_CHUNK - 1) // MC_CHUNK
    children = seed_seq.spawn(nchunks)
    weights = np.empty(min(total, MC_CHUNK))
    squares = np.empty_like(weights)
    sum_w = 0.0
    sum_w2 = 0.0
    done = 0
    for k in range(nchunks):
        count = min(MC_CHUNK, total - done)
        w = weights[:count]
        sampler(np.random.default_rng(children[k]), w)
        sum_w += float(w.sum())
        sum_w2 += float(np.multiply(w, w, out=squares[:count]).sum())
        done += count
    mean = sum_w / total
    variance = max(sum_w2 / total - mean * mean, 0.0)
    stderr = math.sqrt(variance / max(total - 1, 1))
    return mean, stderr


# ---------------------------------------------------------------------------
# Cone kinds
# ---------------------------------------------------------------------------


class ConeSpec:
    """Base type: a pointed open convex cone in R^dim."""

    kind: str
    dim: int

    def _point(self, x) -> np.ndarray:
        p = np.asarray(x, float).ravel()
        if p.shape != (self.dim,):
            raise ValueError(
                f"{self.describe()} expects points of dimension {self.dim}, "
                f"got {p.shape[0]}"
            )
        return p

    def describe(self) -> str:
        return f"{self.kind}({self.dim})"

    def contains(self, x) -> bool:
        raise NotImplementedError

    def dual_contains(self, y) -> bool:
        raise NotImplementedError

    def psi_expression(self) -> Expression:
        raise NoClosedFormError(f"{self.describe()} has no closed-form psi")

    def _mc_sampler(self, x: np.ndarray):
        raise NotImplementedError

    def default_chart(self) -> Chart | None:
        """A box chart strictly inside the cone, when one is canonical."""
        return None

    def _sample_interior(self, rng, count: int) -> np.ndarray:
        raise NotImplementedError


class OrthantCone(ConeSpec):
    """The positive orthant {x : x_i > 0}; self-dual; psi = prod 1/x_i."""

    kind = "orthant"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("orthant dimension must be at least 1")
        self.dim = int(dim)

    def contains(self, x) -> bool:
        return bool(np.all(self._point(x) > 0.0))

    def dual_contains(self, y) -> bool:
        return self.contains(y)

    def psi_expression(self) -> Expression:
        return reduce(ex.mul, (ex.div(ex.ONE, ex.Var(i)) for i in range(self.dim)))

    def _mc_sampler(self, x):
        rates = 1.5 * x
        norm = float(np.prod(rates))
        scales = 1.0 / rates
        take = _chunk_buffers(((self.dim,), float))

        def sampler(rng, out):
            y, = take(len(out))
            # scale * standard draws is how numpy draws exponential(scale)
            rng.standard_exponential(out=y)
            for j in range(self.dim):
                y[:, j] *= scales[j]
            np.matmul(y, x, out=out)
            out *= 0.5
            np.exp(out, out=out)
            out /= norm

        return sampler

    def default_chart(self) -> Chart:
        return Chart(self.dim, ((0.3, 2.5),) * self.dim, positive=(True,) * self.dim)

    def _sample_interior(self, rng, count):
        return rng.uniform(0.2, 3.0, size=(count, self.dim))


class LorentzCone(ConeSpec):
    """The forward cone {x : x_0 > |(x_1..x_{n-1})|}; self-dual.

    The closed form is implemented for ambient dimension 2 only; larger
    Lorentz cones go through Monte Carlo.
    """

    kind = "lorentz"

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("a Lorentz cone needs ambient dimension at least 2")
        self.dim = int(dim)

    def contains(self, x) -> bool:
        p = self._point(x)
        return bool(p[0] > np.linalg.norm(p[1:]))

    def dual_contains(self, y) -> bool:
        return self.contains(y)

    def psi_expression(self) -> Expression:
        if self.dim != 2:
            raise NoClosedFormError(
                f"lorentz({self.dim}) psi is only evaluated by Monte Carlo; "
                "the closed form is implemented for dimension 2"
            )
        q = ex.sub(ex.powi(ex.Var(0), 2), ex.powi(ex.Var(1), 2))
        return ex.div(ex.const(2.0), q)

    def _mc_sampler(self, x):
        x0 = float(x[0])
        xbar = x[1:]
        gap = x0 - float(np.linalg.norm(xbar))
        d = self.dim - 1
        vol = _ball_volume(d)
        scale = 1.0 / gap
        take = _chunk_buffers(((), float), ((), float), ((d,), float),
                              *([((d,), float)] if d > 1 else []))

        def sampler(rng, out):
            y0, aux, ybar, *squares = take(len(out))
            rng.standard_exponential(out=y0)
            y0 *= scale
            _uniform_ball(rng, ybar, aux, *squares)
            for j in range(d):
                ybar[:, j] *= y0
            if d == 1:  # a one-term reduction is its product
                np.multiply(ybar[:, 0], xbar[0], out=aux)
            else:
                np.matmul(ybar, xbar, out=aux)
            inner = np.multiply(y0, x0, out=out)
            inner += aux
            # proposal density: gap * e^{-gap*y0} uniform over the y0-ball;
            # the weight is e^{gap*y0 - inner} * vol * y0^d / gap
            np.subtract(np.multiply(y0, gap, out=aux), inner, out=out)
            np.exp(out, out=out)
            out *= vol
            if d > 1:
                np.copyto(aux, y0)
                aux **= d  # the operator, so numpy picks the same power path as `**`
                out *= aux
            else:
                out *= y0
            out /= gap

        return sampler

    def default_chart(self) -> Chart:
        half = 0.8 / math.sqrt(self.dim - 1)
        box = ((1.5, 3.0),) + ((-half, half),) * (self.dim - 1)
        return Chart(self.dim, box, positive=(True,) + (False,) * (self.dim - 1))

    def _sample_interior(self, rng, count):
        x0 = rng.uniform(1.0, 3.0, size=count)
        d = self.dim - 1
        xbar = np.empty((count, d))
        _uniform_ball(rng, xbar, np.empty(count), np.empty((count, d)))
        return np.column_stack([x0, xbar * (0.8 * x0)[:, None]])


class PolyhedralCone(ConeSpec):
    """Conic hull of finitely many generator rows.

    The generators must span the ambient space and the hull must be pointed
    (no full straight line); both are validated at construction, the latter
    through feasibility of G y >= 1, which characterizes a full-dimensional
    dual.  Membership in the interior is an exact linear program: x is
    interior iff <x, y> stays positive on a compact base of the dual cone.
    """

    kind = "polyhedral"

    def __init__(self, generators):
        try:
            lengths = [len(row) for row in generators]
        except TypeError:  # not rows at all: the ndim check below says so
            lengths = []
        if len(set(lengths)) > 1:
            raise ValueError(
                f"generators must be rows of one length; found rows of lengths {lengths}"
            )
        g = np.asarray(generators, float)
        if g.ndim != 2 or g.shape[0] < 1:
            raise ValueError("generators must form a nonempty matrix")
        m, d = g.shape
        if np.linalg.matrix_rank(g) < d:
            raise ValueError("generators do not span the ambient space")
        # imported here: scipy.optimize costs most of `import hesslab`, and
        # only polyhedral cones need it
        from scipy.optimize import linprog

        feas = linprog(
            np.zeros(d), A_ub=-g, b_ub=-np.ones(m), bounds=(None, None)
        )
        if feas.status != 0:
            raise ValueError(
                "generators span a cone containing a full straight line "
                "(dual cone has empty interior)"
            )
        self.generators = g
        self.dim = d

    def describe(self) -> str:
        return f"polyhedral({self.generators.shape[0]} generators in R^{self.dim})"

    def contains(self, x) -> bool:
        p = self._point(x)
        g = self.generators
        from scipy.optimize import linprog

        res = linprog(
            p,
            A_ub=-g,
            b_ub=np.zeros(g.shape[0]),
            A_eq=g.sum(axis=0)[None, :],
            b_eq=[1.0],
            bounds=(None, None),
        )
        if res.status != 0:
            raise ConeError(f"interior test failed: {res.message}")
        return bool(res.fun > 1e-9 * (1.0 + float(np.linalg.norm(p))))

    def dual_contains(self, y) -> bool:
        p = self._point(y)
        return bool(np.all(self.generators @ p > 0.0))

    def _simplicial(self):
        return self.generators.shape[0] == self.dim

    def psi_expression(self) -> Expression:
        if not self._simplicial():
            raise NoClosedFormError(
                "psi of a non-simplicial polyhedral cone has no implemented "
                "closed form; use Monte Carlo"
            )
        g = self.generators
        absdet = abs(float(np.linalg.det(g)))
        ginv_t = np.linalg.inv(g).T
        factors = []
        for i in range(self.dim):
            w = ex.sum_of(
                ex.mul(ex.const(float(ginv_t[i, j])), ex.Var(j))
                for j in range(self.dim)
                if ginv_t[i, j] != 0.0
            )
            factors.append(w)
        denom = reduce(ex.mul, factors)
        return ex.div(ex.const(1.0 / absdet), denom)

    def _tilt_basis(self, x):
        """A full-rank generator subset whose simplicial cone holds x deepest."""
        from itertools import combinations

        g = self.generators
        m, d = g.shape
        best = None
        best_margin = -np.inf
        for idx in combinations(range(m), d):
            sub = g[list(idx)]
            if abs(np.linalg.det(sub)) < 1e-12:
                continue
            coeff = np.linalg.solve(sub.T, x)
            margin = float(coeff.min() / (1.0 + np.linalg.norm(coeff)))
            if margin > best_margin:
                best_margin = margin
                best = (sub, coeff)
        # by Caratheodory an interior point always admits a nonnegative basis
        # expansion, but it can sit on a subcone wall (margin exactly zero)
        if best is None or best_margin < -1e-12:
            raise OutsideConeError(
                "no simplicial subcone contains the point"
            )
        return best

    def _mc_sampler(self, x):
        sub, coeff = self._tilt_basis(x)
        coeff = np.maximum(coeff, 0.0)
        # a vanishing coefficient would give a flat proposal direction; the
        # floor keeps every rate positive while staying mild enough that the
        # squared weights remain integrable over the dual cone
        rates = np.maximum(1.5 * coeff, 0.25 * float(coeff.mean()))
        absdet = abs(float(np.linalg.det(sub)))
        norm = absdet * float(np.prod(rates))
        subinv_t = np.linalg.inv(sub).T
        gt = self.generators.T
        scales = 1.0 / rates
        tilt = rates - coeff
        d, m = gt.shape
        take = _chunk_buffers(((d,), float), ((d,), float), ((m,), float),
                              ((), bool), ((), bool))

        def sampler(rng, out):
            z, y, pairings, inside, positive = take(len(out))
            # scale * standard draws is how numpy draws exponential(scale)
            rng.standard_exponential(out=z)
            for j in range(d):
                z[:, j] *= scales[j]
            np.matmul(np.matmul(z, subinv_t, out=y), gt, out=pairings)
            np.greater(pairings[:, 0], 0.0, out=inside)
            for k in range(1, m):
                inside &= np.greater(pairings[:, k], 0.0, out=positive)
            np.matmul(z, tilt, out=out)
            np.exp(out, out=out)
            out *= inside
            out /= norm

        return sampler

    def _sample_interior(self, rng, count):
        m = self.generators.shape[0]
        coeff = rng.uniform(0.2, 2.0, size=(count, m))
        return coeff @ self.generators


class ProductCone(ConeSpec):
    """Direct product of cones; psi multiplies across factors."""

    kind = "product"

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("a product cone needs at least two factors")
        if not all(isinstance(f, ConeSpec) for f in factors):
            raise TypeError("product factors must be cones")
        self.factors = factors
        self.dim = sum(f.dim for f in factors)

    def describe(self) -> str:
        return "product(" + ", ".join(f.describe() for f in self.factors) + ")"

    def _slices(self):
        start = 0
        for f in self.factors:
            yield f, slice(start, start + f.dim)
            start += f.dim

    def contains(self, x) -> bool:
        p = self._point(x)
        return all(f.contains(p[s]) for f, s in self._slices())

    def dual_contains(self, y) -> bool:
        p = self._point(y)
        return all(f.dual_contains(p[s]) for f, s in self._slices())

    def psi_expression(self) -> Expression:
        parts = []
        for f, s in self._slices():
            shift = {i: ex.Var(i + s.start) for i in range(f.dim)}
            parts.append(ex.substitute(f.psi_expression(), shift))
        return reduce(ex.mul, parts)

    def default_chart(self) -> Chart | None:
        charts = [f.default_chart() for f in self.factors]
        if any(c is None for c in charts):
            return None
        box = sum((c.box for c in charts), ())
        positive = sum((c.positive for c in charts), ())
        return Chart(self.dim, box, positive=positive)

    def _sample_interior(self, rng, count):
        return np.column_stack(
            [f._sample_interior(rng, count) for f in self.factors]
        )


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _psi(cone: ConeSpec, x: np.ndarray, method: str, samples: int,
         seed_seq: np.random.SeedSequence) -> PsiValue:
    if method == "closed_form":
        value = float(evaluate(cone.psi_expression(), x[None, :], 0).value[0])
        return PsiValue(value, 0.0, "closed_form")
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}: use closed_form or monte_carlo")
    if samples < 2:
        raise ValueError("monte carlo needs at least two samples")
    if isinstance(cone, ProductCone):
        children = seed_seq.spawn(len(cone.factors))
        parts = [
            _psi(f, x[s], method, samples, child)
            for (f, s), child in zip(cone._slices(), children)
        ]
        value = math.prod(p.value for p in parts)
        rel2 = sum((p.stderr / p.value) ** 2 for p in parts)
        return PsiValue(value, value * math.sqrt(rel2), "monte_carlo")
    mean, stderr = _mc_mean(samples, seed_seq, cone._mc_sampler(x))
    if mean <= 0.0:
        raise MonteCarloDivergenceError(
            "no proposal samples landed in the dual cone; the point is too "
            "close to the boundary for this sample budget"
        )
    if stderr > 0.5 * mean:
        raise MonteCarloDivergenceError(
            f"estimate {mean:.6g} has relative error {stderr / mean:.2f} > 0.5; "
            "the point is too close to the boundary for this sample budget"
        )
    return PsiValue(mean, stderr, "monte_carlo")


def characteristic_function(cone: ConeSpec, x, method: str = "closed_form",
                            samples: int = 1_000_000, seed: int = 42) -> PsiValue:
    """Evaluate psi(x) strictly inside the cone.

    ``closed_form`` uses the cone's exact expression (an error where none is
    implemented); ``monte_carlo`` importance-samples the dual cone with the
    given budget and seed, reporting a standard error, and refuses estimates
    whose relative error passes 0.5.
    """
    p = cone._point(x)
    if not cone.contains(p):
        raise OutsideConeError(
            f"point {list(map(float, p))} is not strictly inside {cone.describe()}"
        )
    return _psi(cone, p, method, int(samples), np.random.SeedSequence(seed))


def log_psi_metric(cone: ConeSpec, pts) -> np.ndarray:
    """Hess(ln psi) at each row of an (m, dim) array of interior points,
    stacked as (m, dim, dim); positive definite there.

    Requires a closed-form psi: Monte Carlo values cannot be differentiated
    to the needed accuracy.
    """
    pts = np.asarray(pts, float)
    if pts.ndim != 2 or pts.shape[1] != cone.dim:
        raise ValueError(
            f"{cone.describe()} expects an (m, {cone.dim}) array of points, got {pts.shape}"
        )
    for p in pts:
        if not cone.contains(p):
            raise OutsideConeError(
                f"point {list(map(float, p))} is not strictly inside {cone.describe()}"
            )
    tree = ex.call("log", cone.psi_expression())
    return evaluate(tree, pts, 2).hess


def surface_statistical_structure(cone: ConeSpec, surface, surface_chart: Chart, *,
                                  ambient_chart: Chart | None = None,
                                  plan=None,
                                  tolerance: float = DEFAULT_TOLERANCE) -> StatisticalStructure:
    """Statistical structure induced on a parametrized patch of {psi = const}.

    The ambient data is the flat connection, the barrier potential ln psi,
    and the position field as transversal (it always crosses the level sets:
    it differentiates ln psi to the constant -dim).
    """
    chart = ambient_chart or cone.default_chart()
    if chart is None:
        raise ValueError(
            f"{cone.describe()} has no canonical interior box; pass ambient_chart"
        )
    phi = ex.call("log", cone.psi_expression())
    struct, _ = level_set_statistical(
        flat_connection(chart), phi, surface, surface_chart, euler_field(chart),
        plan=plan, tolerance=tolerance,
    )
    return struct


def cone_lch_structure(cone: ConeSpec, chart: Chart | None = None):
    """Flat connection, metric Hess(psi)/psi, and Lee form -d(ln psi).

    The metric splits as Hess(ln psi) + theta x theta, so it is positive
    definite on the interior, and d(nabla g - theta x g) vanishes identically
    for this pair; the returned structure passes the full check.
    """
    from .lch import LCHStructure

    chart = chart or cone.default_chart()
    if chart is None:
        raise ValueError(
            f"{cone.describe()} has no canonical interior box; pass a chart"
        )
    if chart.dim != cone.dim:
        raise ValueError("chart dimension must match the cone dimension")
    psi = cone.psi_expression()
    conn = flat_connection(chart)
    dpsi = [ex.diff(psi, i) for i in range(cone.dim)]
    hess = covariant_hessian_trees(conn, dpsi)
    return LCHStructure(
        chart,
        conn,
        MetricField(chart, [[ex.div(h, psi) for h in row] for row in hess]),
        OneFormField(chart, [ex.neg(ex.div(t, psi)) for t in dpsi]),
    )


def sample_interior(cone: ConeSpec, count: int, seed: int = 42) -> np.ndarray:
    """Deterministic batch of strictly interior points (for property tests)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return cone._sample_interior(rng, int(count))


# ---------------------------------------------------------------------------
# Spec parsing (scene files and the command line)
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^\s*(orthant|lorentz)\s*\(\s*(\d+)\s*\)\s*$")


def cone_from_spec(spec) -> ConeSpec:
    """Build a cone from a JSON-style dict or a compact string.

    Accepted forms: ``{"kind": "orthant", "dim": 3}``, ``{"kind": "lorentz",
    "dim": 2}``, ``{"kind": "polyhedral", "generators": [[...], ...]}``,
    ``{"kind": "product", "factors": [spec, ...]}``, the strings
    ``orthant(n)`` / ``lorentz(n)``, or a JSON string of a dict form.
    """
    if isinstance(spec, ConeSpec):
        return spec
    if isinstance(spec, str):
        m = _NAME_RE.match(spec)
        if m:
            kind, n = m.group(1), int(m.group(2))
            return OrthantCone(n) if kind == "orthant" else LorentzCone(n)
        try:
            parsed = json.loads(spec)
        except json.JSONDecodeError:
            raise ValueError(
                f"cannot parse cone spec {spec!r}: expected orthant(n), "
                "lorentz(n), or a JSON object"
            ) from None
        return cone_from_spec(parsed)
    if not isinstance(spec, dict):
        raise ValueError(f"cone spec must be a dict or string, got {type(spec).__name__}")
    if "kind" not in spec:
        raise ValueError("cone spec needs a 'kind' field")
    kind = spec["kind"]
    if kind in ("orthant", "lorentz"):
        dim = spec.get("dim")
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise ValueError(f"{kind} cone spec needs an integer 'dim', got {dim!r}")
        return OrthantCone(dim) if kind == "orthant" else LorentzCone(dim)
    if kind == "polyhedral":
        if "generators" not in spec:
            raise ValueError("polyhedral cone spec needs 'generators'")
        return PolyhedralCone(spec["generators"])
    if kind == "product":
        if not isinstance(spec.get("factors"), list):
            raise ValueError("product cone spec needs a list of 'factors'")
        return ProductCone([cone_from_spec(f) for f in spec["factors"]])
    raise ValueError(f"unknown cone kind {kind!r}")
