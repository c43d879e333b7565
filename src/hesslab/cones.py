"""Convex cones, their characteristic functions, and derived structures.

A pointed open convex cone V carries the integral

    psi(x) = integral over the dual cone of exp(-<x, y>) dy,

positive and homogeneous of degree -dim on the interior.  ``hesslab`` uses
psi three ways: as a scalar invariant (closed forms for orthants, Lorentz
cones, simplicial polyhedral cones and their products; importance-sampled
Monte Carlo for every cone), through the barrier metric Hess(ln psi), and
through the characteristic surface {psi = 1} whose induced structure is
statistical of negative curvature.

Monte Carlo psi is one randomized quasi-Monte Carlo estimator for every cone
kind: each cone maps points u of the unit cube to importance weights (the
exponential proposals by their inverse CDF), and the points are a rank-1
lattice under LATTICE_SHIFTS independent uniform shifts (`_lattice_mean`).
The shift means are independent and unbiased, so their spread is an honest
standard error with LATTICE_SHIFTS - 1 degrees of freedom.

Every proposal draws its exponentials at 0.75 of the rate at which the
integrand decays. The exact rate would make the orthant weights constant and
the reported standard error identically zero, which breaks the error bar as a
diagnostic. A slower rate gives the proposal a heavier tail than the
integrand, so every weight is bounded: a shift that puts a lattice point near
the cube's far face moves its mean by a bounded amount. A faster rate, such
as 1.5 times the decay rate, gives orthant weights that grow like
(1 - u)^(-1/3) there; the shift means are then skewed, and |t| passes its
1 % quantile about three times as often as the band assumes.
"""

from __future__ import annotations

import json
import math
import re
from functools import reduce
from itertools import combinations

import numpy as np

from . import expr as ex
from .expr import Expression, Value
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
from .jets import clean, evaluate

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

# Monte Carlo psi: the budget buys LATTICE_SHIFTS random shifts of one rank-1
# lattice of budget // LATTICE_SHIFTS points; PSI_SAMPLES is the default budget
LATTICE_SHIFTS = 32
PSI_SAMPLES = LATTICE_SHIFTS * 8192
# A shift's lattice points are made and weighed this many at a time, so the
# scratch of a larger budget stays that of the default one (a single block)
LATTICE_BLOCK = 8192
# x is interior to a polyhedral cone when it pairs with every unit facet
# normal above INTERIOR_MARGIN * (1 + |x|)
INTERIOR_MARGIN = 1e-9


class ConeError(ValueError):
    pass


class OutsideConeError(ConeError):
    """The point is not strictly inside the (open) cone."""


class NoClosedFormError(ConeError):
    """psi has no implemented closed form for this cone."""


class MonteCarloDivergenceError(ConeError):
    """The estimator's relative error exceeded 0.5 (or was not finite); the
    point is too close to the boundary for the sample budget."""


class PsiValue(Value):
    """A characteristic-function value with its uncertainty and the number
    of points it rests on (1 for a closed form)."""

    __slots__ = __match_args__ = ("value", "stderr", "method", "samples")

    def __init__(self, value: float, stderr: float, method: str, samples: int = 1):
        if not value > 0:
            raise ValueError("psi values are positive on the open cone")
        if not stderr >= 0:
            raise ValueError(f"standard error must be >= 0, not {stderr}")
        self._set(value, stderr, method, samples)


def _ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _uniform_ball(rng, count: int, d: int) -> np.ndarray:
    """(count, d) uniform samples in the unit d-ball."""
    if d == 1:
        return rng.uniform(-1.0, 1.0, size=(count, 1))
    z = rng.standard_normal((count, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * (rng.random(count) ** (1.0 / d))[:, None]


def _lattice(n: int, k: int) -> np.ndarray:
    """The generator z of the rank-1 lattice {i z / n mod 1 : 0 <= i < n} in
    the unit k-cube: Korobov's (1, a, a^2, ...) mod n, with a the integer
    nearest n / phi (phi the golden ratio) that is coprime to n, so that
    every coordinate of the lattice runs through all of {0, 1/n, ...}. For
    k = 2 this is the Fibonacci lattice's rule, at any n."""
    target = n * (math.sqrt(5.0) - 1.0) / 2.0
    a = min((c for c in range(round(target) - 64, round(target) + 65)
             if math.gcd(c, n) == 1), key=lambda c: abs(c - target))
    return np.array([pow(a, j, n) for j in range(k)], dtype=np.int64)


def _lattice_mean(budget: int, seed_seq: np.random.SeedSequence, k: int, weights):
    """Randomized-QMC mean of ``weights`` over the unit k-cube, with its
    standard error.

    The points are the n = budget // LATTICE_SHIFTS points of one rank-1
    lattice, moved mod 1 by each of LATTICE_SHIFTS uniform shifts drawn from
    ``default_rng(seed_seq)`` (Cranley & Patterson). Every shifted point is
    uniform, so each shift's mean is an unbiased estimate; the estimate is
    the mean of the shift means, and its standard error is their sample
    standard deviation (ddof 1) over sqrt(LATTICE_SHIFTS), with
    LATTICE_SHIFTS - 1 degrees of freedom. ``weights(u)`` maps a (k, b)
    array of points, one row per variate, to their (b,) weights; it is
    called on blocks of at most LATTICE_BLOCK points, each block's points
    made once for all shifts, and a shift's mean is the sum of its blocks'
    weight sums over n.
    """
    n = budget // LATTICE_SHIFTS
    z = _lattice(n, k)[:, None]
    shifts = np.random.default_rng(seed_seq).random((LATTICE_SHIFTS, k))
    sums = np.zeros(LATTICE_SHIFTS)
    for start in range(0, n, LATTICE_BLOCK):
        points = z * np.arange(start, min(start + LATTICE_BLOCK, n)) % n / n
        for r, shift in enumerate(shifts):
            u = points + shift[:, None]
            u -= np.floor(u)  # mod 1, exactly, and far cheaper than np.mod
            sums[r] += weights(u).sum()
    means = sums / n
    return float(means.mean()), float(means.std(ddof=1)) / math.sqrt(LATTICE_SHIFTS)


def _exponentials(u: np.ndarray, rates) -> np.ndarray:
    """Exponential variates of the given rates (a column for rows of u), by
    the inverse CDF of u."""
    return -np.log1p(-u) / rates


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
        if not np.all(np.isfinite(p)):
            raise ValueError(f"{self.describe()} expects finite coordinates, got {p.tolist()}")
        return p

    def describe(self) -> str:
        return f"{self.kind}({self.dim})"

    def contains(self, x) -> bool:
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

    def psi_expression(self) -> Expression:
        return reduce(ex.mul, (ex.div(ex.ONE, ex.Var(i)) for i in range(self.dim)))

    def _mc_sampler(self, x):
        rates = 0.75 * x
        norm = float(np.prod(rates))

        def weights(u):
            return np.exp((rates - x) @ _exponentials(u, rates[:, None])) / norm

        return self.dim, weights

    def default_chart(self) -> Chart:
        return Chart(self.dim, ((0.3, 2.5),) * self.dim, positive=(True,) * self.dim)

    def _sample_interior(self, rng, count):
        return rng.uniform(0.2, 3.0, size=(count, self.dim))


class LorentzCone(ConeSpec):
    """The forward cone {x : x_0 > |(x_1..x_{n-1})|}; self-dual; psi =
    2^(n-1) Gamma(n/2) pi^((n-2)/2) (x_0^2 - |xbar|^2)^(-n/2), (n - 1)! times
    the volume of the unit (n - 1)-ball over that power (Faraut & Koranyi,
    Analysis on Symmetric Cones, ch. I), so 2 / (x_0^2 - x_1^2) at n = 2."""

    kind = "lorentz"

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("a Lorentz cone needs ambient dimension at least 2")
        self.dim = int(dim)

    def contains(self, x) -> bool:
        p = self._point(x)
        return bool(p[0] > np.linalg.norm(p[1:]))

    def psi_expression(self) -> Expression:
        n = self.dim
        q = ex.sub(ex.powi(ex.Var(0), 2), ex.sum_of(ex.powi(ex.Var(i), 2) for i in range(1, n)))
        c = 2.0 ** (n - 1) * math.gamma(n / 2.0) * math.pi ** ((n - 2) / 2.0)
        return ex.div(ex.const(c), ex.powi(q, n / 2.0))

    def _mc_sampler(self, x):
        # y0 exponential of rate r = 0.75 (x0 - |xbar|), and ybar = y0 b with
        # b uniform in the unit d-ball: the weight e^{-<x, y>} / density is
        # e^{-y0 (x0 - r + <b, xbar>)} vol y0^d / r, where the bracket is at
        # least 0.25 (x0 - |xbar|) > 0, so the weight is bounded
        xbar = x[1:]
        rate = 0.75 * (float(x[0]) - float(np.linalg.norm(xbar)))
        slack = float(x[0]) - rate
        d = self.dim - 1
        vol = _ball_volume(d)
        pairs = (d + 1) // 2  # Box-Muller makes two normals of each pair of variates

        def weights(u):
            if d == 1:
                b = 2.0 * u[1:] - 1.0
            else:  # a normal direction scaled to a radius of density ~ r^(d-1)
                r = np.sqrt(-2.0 * np.log1p(-u[1:pairs + 1]))
                angle = 2.0 * math.pi * u[pairs + 1:2 * pairs + 1]
                z = np.vstack((r * np.cos(angle), r * np.sin(angle)))[:d]
                b = z / np.linalg.norm(z, axis=0) * u[-1] ** (1.0 / d)
            y0 = _exponentials(u[0], rate)
            return np.exp(-y0 * (slack + xbar @ b)) * vol * y0 ** d / rate

        return (2 if d == 1 else 2 * pairs + 2), weights

    def default_chart(self) -> Chart:
        half = 0.8 / math.sqrt(self.dim - 1)
        box = ((1.5, 3.0),) + ((-half, half),) * (self.dim - 1)
        return Chart(self.dim, box, positive=(True,) + (False,) * (self.dim - 1))

    def _sample_interior(self, rng, count):
        x0 = rng.uniform(1.0, 3.0, size=count)
        d = self.dim - 1
        xbar = _uniform_ball(rng, count, d) * (0.8 * x0)[:, None]
        return np.column_stack([x0, xbar])


class PolyhedralCone(ConeSpec):
    """Conic hull of finitely many finite generator rows.

    The generators must span the ambient space, and the hull must be pointed
    (no full straight line): its unit inward facet normals, found at
    construction, must span R^d, so that the dual cone has an interior. x is
    interior when <n, x> > INTERIOR_MARGIN * (1 + |x|) for every normal n.
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
        if not np.all(np.isfinite(g)):
            raise ValueError("generators must be finite")
        m, d = g.shape
        if np.linalg.matrix_rank(g) < d:
            raise ValueError("generators do not span the ambient space")
        # a facet normal: the null vector of d - 1 generators of rank d - 1
        # that has every generator on its side
        if d == 1:
            candidates = np.ones((1, 1))
        else:  # rank d - 1 by the rule of np.linalg.matrix_rank
            _, s, vt = np.linalg.svd(g[np.array(list(combinations(range(m), d - 1)))])
            candidates = vt[s[:, -1] > s[:, 0] * d * np.finfo(float).eps, -1]
        slack = INTERIOR_MARGIN * (1.0 + np.linalg.norm(g, axis=1))
        normals = []
        for n in candidates:
            n = -n if np.all(g @ n <= slack) else n
            if np.all(g @ n >= -slack) and all(k @ n < 1.0 - INTERIOR_MARGIN for k in normals):
                normals.append(n)  # once for a facet of more than d - 1 generators
        if len(normals) < d or np.linalg.matrix_rank(np.array(normals)) < d:
            raise ValueError("generators span a cone containing a full straight line "
                             "(dual cone has empty interior)")
        self.generators = g
        self.dim = d
        self.normals = np.array(normals)

    def describe(self) -> str:
        return f"polyhedral({self.generators.shape[0]} generators in R^{self.dim})"

    def contains(self, x) -> bool:
        p = self._point(x)
        return bool(np.all(self.normals @ p > INTERIOR_MARGIN * (1.0 + np.linalg.norm(p))))

    def psi_expression(self) -> Expression:
        if self.generators.shape[0] != self.dim:
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
        rates = np.maximum(0.75 * coeff, 0.25 * float(coeff.mean()))
        norm = abs(float(np.linalg.det(sub))) * float(np.prod(rates))
        # y = sub^-1 z pairs with the subcone's generators to z; it lies in
        # the dual cone when it pairs positively with every generator
        pairings = self.generators @ np.linalg.inv(sub)

        def weights(u):
            z = _exponentials(u, rates[:, None])
            inside = np.all(pairings @ z > 0.0, axis=0)
            return np.exp((rates - coeff) @ z) * inside / norm

        return self.dim, weights

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
        value = float(clean(evaluate(cone.psi_expression(), x[None, :], 0)).value[0])
        return PsiValue(value, 0.0, "closed_form")
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}: use closed_form or monte_carlo")
    if samples < LATTICE_SHIFTS:
        raise ValueError(f"monte carlo needs at least {LATTICE_SHIFTS} samples, "
                         "one per lattice shift")
    points = samples // LATTICE_SHIFTS * LATTICE_SHIFTS
    if isinstance(cone, ProductCone):
        children = seed_seq.spawn(len(cone.factors))
        parts = [
            _psi(f, x[s], method, samples, child)
            for (f, s), child in zip(cone._slices(), children)
        ]
        value = math.prod(p.value for p in parts)
        rel2 = sum((p.stderr / p.value) ** 2 for p in parts)
        return PsiValue(value, value * math.sqrt(rel2), "monte_carlo", points)
    with np.errstate(all="ignore"):  # a weight that is not finite is reported below
        mean, stderr = _lattice_mean(samples, seed_seq, *cone._mc_sampler(x))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise MonteCarloDivergenceError(
            f"non-finite weights: the estimate is {mean:.6g} with standard error "
            f"{stderr:.6g}; the importance weights at this point are not "
            "representable in floating point"
        )
    if mean <= 0.0:
        raise MonteCarloDivergenceError(
            "no proposal samples landed in the dual cone; the point is too "
            "close to the boundary for this sample budget"
        )
    if not stderr <= 0.5 * mean:  # NaN too
        raise MonteCarloDivergenceError(
            f"estimate {mean:.6g} has relative error {stderr / mean:.2f} > 0.5; "
            "the point is too close to the boundary for this sample budget"
        )
    return PsiValue(mean, stderr, "monte_carlo", points)


def characteristic_function(cone: ConeSpec, x, method: str = "closed_form",
                            samples: int = PSI_SAMPLES, seed: int = 42) -> PsiValue:
    """Evaluate psi(x) strictly inside the cone.

    ``closed_form`` uses the cone's exact expression (an error where none is
    implemented); ``monte_carlo`` importance-samples the dual cone on a
    randomly shifted lattice with the given budget (at least LATTICE_SHIFTS)
    and seed (an integer >= 0), reporting a standard error, and refuses
    estimates whose relative error passes 0.5.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, not {seed!r}")
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
    return clean(evaluate(ex.call("log", cone.psi_expression()), pts, 2)).hess


def surface_statistical_structure(cone: ConeSpec, surface, surface_chart: Chart, *,
                                  plan=None,
                                  tolerance: float = DEFAULT_TOLERANCE) -> StatisticalStructure:
    """Statistical structure induced on a parametrized patch of {psi = const}.

    The ambient data is the flat connection, the barrier potential ln psi,
    and the position field as transversal (it always crosses the level sets:
    it differentiates ln psi to the constant -dim).
    """
    chart = cone.default_chart()
    if chart is None:
        raise ValueError(f"{cone.describe()} has no canonical interior box")
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
