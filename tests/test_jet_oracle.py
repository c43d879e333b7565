"""`expr.diff` and order-2 jets against sympy, on random trees.

Trees are drawn from the whole grammar: numbers, coordinates, negation, the
four operations, integer, real and variable powers, and exp, log, sqrt, sin
and cos. Divisors, the arguments of log and sqrt and the bases of real and
variable powers are built positive, and the sample points come close to the
edge of those domains: coordinates run down to 1e-3, and g^2 + 1e-3 is a
positive argument that comes within 1e-3 of zero where g does. sympy
differentiates its own copy of each tree, and its derivatives are evaluated
at 50 digits (mpmath), so both the symbolic derivative trees of `expr.diff`
and the jets of `jets.evaluate` through order 2 meet an independent oracle.

Near those edges the terms of a jet reach 1e12 and may cancel to a small
result, so the tolerance of each entry is a running error bound (Wilkinson):
the same arithmetic on magnitudes, where every term of every sum, product
and chain rule is taken in absolute value (`_magnitude`). Rounding leaves an
error of a few hundred ulps of that bound at most; a wrong coefficient in a
rule moves an entry by a fair fraction of it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hesslab import expr as ex
from hesslab.jets import MAX_ORDER, Jet, evaluate

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

DIM = 2
XS = sympy.symbols(f"x0:{DIM}")
LO, HI = 1e-3, 1.5
ULPS = 1e-12  # about 4500 ulps of the magnitude bound
DIGITS = 50


# ---------------------------------------------------------------------------
# random trees and their sympy twins
# ---------------------------------------------------------------------------

def _num(v: float):
    return ex.const(v), sympy.Float(v, 30)


def _leaf(rng, positive: bool):
    if rng.random() < 0.6:
        i = int(rng.integers(DIM))
        return ex.Var(i), XS[i]  # coordinates are positive on the box
    v = float(rng.choice([0.5, 1.5, 2.0, 3.25]))
    return _num(v if positive or rng.random() < 0.5 else -v)


def _unary(name, pair):
    tree, sym = pair
    return ex.Call(name, tree), getattr(sympy, name)(sym)


def _tame(rng):
    """A tree of at most |5| on the box, with no division and no power: the
    argument of exp and the exponent of a variable power, far from overflow."""
    a = _leaf(rng, False)
    kind = rng.integers(4)
    if kind == 0:
        return a
    if kind == 1:
        return _unary("sin", a)
    b, sb = _leaf(rng, False)
    return (ex.Mul(a[0], b), a[1] * sb) if kind == 2 else (ex.Sub(a[0], b), a[1] - sb)


def _tree(rng, depth: int, positive: bool = False):
    """A random tree and its sympy twin. A ``positive`` tree is positive on
    the box."""
    if depth == 0 or rng.random() < 0.2:
        return _leaf(rng, positive)
    sub = depth - 1
    kinds = ["add", "mul", "div", "exp", "sqrt", "powi", "powf", "pow", "edge"]
    if not positive:
        kinds += ["sub", "neg", "log", "sin", "cos"]
    kind = kinds[rng.integers(len(kinds))]
    if kind in ("add", "sub", "mul"):
        (a, sa), (b, sb) = _tree(rng, sub, positive), _tree(rng, sub, positive)
        if kind == "add":
            return ex.Add(a, b), sa + sb
        if kind == "sub":
            return ex.Sub(a, b), sa - sb
        return ex.Mul(a, b), sa * sb
    if kind == "div":
        (a, sa), (b, sb) = _tree(rng, sub, positive), _tree(rng, sub, True)
        return ex.Div(a, b), sa / sb
    if kind == "neg":
        a, sa = _tree(rng, sub)
        return ex.Neg(a), -sa
    if kind == "exp":
        return _unary("exp", _tame(rng))
    if kind in ("log", "sqrt"):
        return _unary(kind, _tree(rng, sub, True))
    if kind in ("sin", "cos"):
        return _unary(kind, _tree(rng, sub))
    if kind == "powi":
        k = int(rng.integers(-2, 5))
        a, sa = _tree(rng, min(sub, 2), positive or k < 0)
        return ex.Pow(a, ex.const(k)), sa ** k
    if kind == "powf":
        r = float(rng.choice([0.5, 1.5, -0.5, 2.25, -1.75]))
        a, sa = _tree(rng, min(sub, 2), True)
        return ex.Pow(a, ex.const(r)), sa ** sympy.Float(r, 30)
    if kind == "pow":  # a variable exponent: exp(e log u), as the jets take it
        (a, sa), (e, se) = _tree(rng, min(sub, 2), True), _tame(rng)
        return ex.Pow(a, e), sympy.exp(se * sympy.log(sa))
    # "edge": g^2 + 1e-3 comes within 1e-3 of zero where g vanishes
    g, sg = _tree(rng, min(sub, 2))
    eps, seps = _num(1e-3)
    return ex.Add(ex.Mul(g, g), eps), sg * sg + seps


def _points(rng, m: int = 5) -> np.ndarray:
    pts = rng.uniform(LO, HI, (m, DIM))
    pts[0] = LO  # the corner nearest the domain edges
    pts[1, 0] = 2 * LO
    return pts


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def _index_tuples(order: int):
    return list(itertools.product(range(DIM), repeat=order))


def _sympy_derivatives(sym, pts: np.ndarray) -> dict[tuple, np.ndarray]:
    """Every partial derivative through order 2 at each point, keyed on the
    differentiation indices, at 50 digits."""
    keys = [k for order in range(MAX_ORDER + 1) for k in _index_tuples(order)]
    exprs = []
    for key in keys:
        d = sym
        for i in key:
            d = sympy.diff(d, XS[i])
        exprs.append(d)
    fn = sympy.lambdify(XS, exprs, modules="mpmath")
    with mpmath.workdps(DIGITS):
        rows = [[float(v) for v in fn(*[mpmath.mpf(float(c)) for c in p])] for p in pts]
    table = np.array(rows)
    return {key: table[:, n] for n, key in enumerate(keys)}


def _compose(b: Jet, *f) -> Jet:
    """The bound of a chain rule f(u) with coefficients f0..f3 at u's value:
    each coefficient also carries the error that u's value passes to it,
    |f_{k+1}| times u's bound (first order)."""
    u_err = b.value
    return b.compose(*[np.abs(f[k]) + np.abs(f[k + 1]) * u_err for k in range(b.order + 1)])


def _magnitude(tree, pts, order, memo):
    """``(value, bound)``: the tree's value at each point, and a jet whose
    every entry is the sum of the absolute values of the terms the jet
    arithmetic adds up for that entry, and of the error each chain rule
    inherits from its argument's value. Built with the same rules on
    non-negative jets, where no term can cancel."""
    got = memo.get(id(tree))
    if got is not None:
        return got
    m, n = pts.shape
    kind = type(tree)
    if kind is ex.Num:
        v, b = np.full(m, tree.value), Jet.constant(abs(tree.value), m, n, order)
    elif kind is ex.Var:
        v, b = pts[:, tree.index], Jet.coordinate(tree.index, np.abs(pts), order)
    elif kind is ex.Neg:
        v, b = _magnitude(tree.arg, pts, order, memo)
        v = -v
    elif kind is ex.Call:
        u, bu = _magnitude(tree.arg, pts, order, memo)
        v, b = _chain(tree.func, u, bu)
    elif kind is ex.Pow:
        u, bu = _magnitude(tree.base, pts, order, memo)
        k = ex.constant_value(tree.exponent)
        if k is None:  # exp(e log u)
            e, be = _magnitude(tree.exponent, pts, order, memo)
            log_u, b_log = _chain("log", u, bu)
            v, b = _chain("exp", e * log_u, be * b_log)
        elif k == round(k):
            v, b = u ** k, bu.powi(abs(int(k)))
            if k < 0:  # the reciprocal of u^|k|
                b = _compose(b, *_reciprocal(u ** -k))
        else:
            v = u ** k
            b = _compose(bu, *[math.prod(k - j for j in range(i)) * u ** (k - i)
                               for i in range(4)])
    else:
        (a, ba), (c, bc) = (_magnitude(t, pts, order, memo) for t in (tree.left, tree.right))
        if kind is ex.Div:
            v, b = a / c, ba * _compose(bc, *_reciprocal(c))
        else:
            v = {ex.Add: a + c, ex.Sub: a - c, ex.Mul: a * c}[kind]
            b = ba * bc if kind is ex.Mul else ba + bc
    memo[id(tree)] = v, b
    return v, b


def _reciprocal(w):
    """The derivatives of 1/w, orders 0 to 3."""
    return [math.factorial(i) * w ** -(i + 1.0) for i in range(4)]


def _chain(func, u, bu):
    """The value of func(u) and the bound of its chain rule."""
    if func == "exp":
        e = np.exp(u)
        return e, _compose(bu, e, e, e, e)
    if func == "log":
        return np.log(u), _compose(bu, np.log(u), *_reciprocal(u)[:3])
    if func == "sqrt":
        r = np.sqrt(u)
        return r, _compose(bu, r, 0.5 / r, 0.25 / (r * u), 0.375 / (r * u * u))
    v = np.sin(u) if func == "sin" else np.cos(u)
    one = np.ones_like(u)
    return v, _compose(bu, v, one, one, one)


def _assert_close(got, want, bound, what: str):
    """Within ULPS of the magnitude bound of each entry. An infinite bound
    would accept any value but NaN, so it fails."""
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(bound)), what
    bad = ~(np.abs(got - want) <= ULPS * bound)
    assert not bad.any(), (what, got[bad], want[bad], bound[bad])


def _comparisons(tree, sym, pts) -> list[tuple]:
    """``(got, exact, bound, what)`` for every order of the jet and every
    symbolic derivative tree, against sympy. A bound may overflow to inf."""
    want = _sympy_derivatives(sym, pts)
    jet = evaluate(tree, pts, MAX_ORDER)
    checks = []
    with np.errstate(over="ignore"):
        _, bound = _magnitude(tree, pts, MAX_ORDER, {})
        for order, part in enumerate(("value", "grad", "hess")):
            keys = _index_tuples(order)
            exact = np.stack([want[k] for k in keys], axis=1)
            entries = [(slice(None),) + k for k in keys]
            got = np.stack([getattr(jet, part)[e] for e in entries], axis=1)
            scale = np.stack([getattr(bound, part)[e] for e in entries], axis=1)
            checks.append((got, exact, scale, f"order-{order} jet of {ex.to_source(tree)}"))
            # the symbolic derivative trees, evaluated as values
            for key in keys:
                d = tree
                for i in key:
                    d = ex.diff(d, i)
                value, b = _magnitude(d, pts, 0, {})
                checks.append((value, want[key], b.value, f"diff {key} of {ex.to_source(tree)}"))
    return checks


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_trees_match_sympy(seed):
    rng = np.random.default_rng(seed)
    tree, sym = _tree(rng, 3)
    checks = _comparisons(tree, sym, _points(rng))
    assume(all(np.isfinite(bound).all() for _, _, bound, _ in checks))
    for check in checks:
        _assert_close(*check)


@pytest.mark.parametrize("source", [
    "sqrt(x0*x1 + x0^3)",
    "sqrt(x0)",
    "log(x0*x0*x1 + 0.001)",
    "x0^0.5 * x1^(-1.75)",
    "pow(x0 + x1, x0*x1)",
    "exp(sin(x0)*x1) / (x0 + 0.001)",
    "cos(x0^3 - x1) * (x1 - x0)^4",
    "x1^(-2) - 3/x0",
])
def test_named_trees_match_sympy(source):
    tree = ex.parse_expression(source, DIM)
    sym = sympy.sympify(source.replace("^", "**"),
                        locals={f"x{i}": x for i, x in enumerate(XS)})
    for check in _comparisons(tree, sym, _points(np.random.default_rng(0))):
        _assert_close(*check)
