"""The planned jet pass against a recursive reference, plus plan-key edge cases."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jet_reference import reference_evaluate

from hesslab import expr as ex
from hesslab.geomcore import Chart, LineIntegralGauge, MetricField, gauged, levi_civita
from hesslab.jets import _plan, evaluate

PARTS = ("value", "grad", "hess", "third")


def _outcome(fn):
    """``("ok", jets)`` or ``("raised", type, message)``."""
    try:
        with np.errstate(all="ignore"):
            return ("ok", fn())
    except Exception as err:  # compared, not swallowed
        return ("raised", type(err), str(err))


def _reference_all(trees, pts, order):
    # The trees one after another: the first error raised is the outcome.
    return [reference_evaluate(t, pts, order) for t in trees]


def _assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for part in PARTS:
            a, b = getattr(g, part), getattr(w, part)
            assert (a is None) == (b is None), part
            if a is not None:
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), part


def _assert_same_outcome(trees, pts, order):
    got = _outcome(lambda: evaluate(trees, pts, order))
    want = _outcome(lambda: _reference_all(trees, pts, order))
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        _assert_bit_identical(got[1], want[1])
    else:
        assert got[1:] == want[1:]


# ---------------------------------------------------------------------------
# random forests with shared subtrees
# ---------------------------------------------------------------------------

def _copy(tree, memo=None):
    """``tree`` rebuilt node by node through the constructors, which, nodes
    being hash-consed, hand back ``tree``'s own nodes."""
    memo = {} if memo is None else memo
    hit = memo.get(id(tree))
    if hit is not None:
        return hit
    if isinstance(tree, (ex.Num, ex.Var)):
        out = type(tree)(tree.value if isinstance(tree, ex.Num) else tree.index)
    elif isinstance(tree, ex.Call):
        out = ex.Call(tree.func, _copy(tree.arg, memo))
    elif isinstance(tree, ex.Neg):
        out = ex.Neg(_copy(tree.arg, memo))
    elif isinstance(tree, ex.Pow):
        out = ex.Pow(_copy(tree.base, memo), _copy(tree.exponent, memo))
    else:
        out = type(tree)(_copy(tree.left, memo), _copy(tree.right, memo))
    memo[id(tree)] = out
    return out


LEAF_CONSTANTS = (0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0, 1.5)

EXPONENTS = (
    ex.const(2), ex.const(3), ex.const(-1), ex.const(-2), ex.const(0),
    ex.const(0.5), ex.const(1.5), ex.Num(-0.0),
    ex.call("log", ex.neg(ex.ONE)),      # the constant exponent itself fails
    ex.Num(math.inf), ex.Num(math.nan),  # no integer test for these
)

KINDS = ("add", "sub", "mul", "div", "neg", "pow", "powvar",
         "exp", "log", "sqrt", "sin", "cos")


@st.composite
def forests(draw):
    dim = draw(st.integers(1, 3))
    pool = [ex.Var(i) for i in range(dim)]
    pool += [ex.Num(c) if c == 0.0 else ex.const(c) for c in LEAF_CONSTANTS]

    def pick():
        node = draw(st.sampled_from(pool))
        return _copy(node) if draw(st.booleans()) else node

    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(KINDS))
        a, b = pick(), pick()
        if kind in ("add", "sub", "mul", "div"):
            node = getattr(ex, kind)(a, b)
        elif kind == "neg":
            node = ex.neg(a)
        elif kind == "pow":
            node = ex.Pow(a, draw(st.sampled_from(EXPONENTS)))
        elif kind == "powvar":
            node = ex.Pow(a, b)
        else:
            node = ex.call(kind, a)
        pool.append(node)
    trees = draw(st.lists(st.sampled_from(pool[dim:]), min_size=1, max_size=5))
    trees = [_copy(t) if draw(st.booleans()) else t for t in trees]
    coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    rows = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                         min_size=1, max_size=4))
    return trees, np.array(rows, float)


@given(forest=forests(), order=st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_planned_pass_matches_reference(forest, order):
    trees, pts = forest
    _assert_same_outcome(trees, pts, order)


# Potentials F of the gauge forms dF, one per forest dimension.
POTENTIALS = {1: "x0^3 + 2*x0", 2: "x0*x0*x1 + sin(x1)", 3: "x0*x1*x2 + x2^2"}


@st.composite
def gauge_forests(draw):
    """A forest whose trees are all scaled by one exp(sign * f), f a gauge
    leaf, with the bare leaf as a tree of its own."""
    trees, pts = draw(forests())
    dim = pts.shape[1]
    potential = ex.parse_expression(POTENTIALS[dim], dim)
    gauge = LineIntegralGauge([ex.diff(potential, i) for i in range(dim)], np.full(dim, 0.25))
    sign = draw(st.sampled_from((-1.0, 1.0, -2.0, 0.5)))
    return [gauged(gauge, sign, t) for t in trees] + [ex.Gauge(gauge)], pts


@given(forest=gauge_forests(), order=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_planned_pass_matches_reference_with_a_shared_gauge(forest, order):
    trees, pts = forest
    _assert_same_outcome(trees, pts, order)
    # the gauge leaf is one slot, however many trees use it
    slots, _ = _plan(trees)
    assert sum(op == "gauge" for op, _, _ in slots) == 1


def test_gauge_leaves_are_interned_on_their_source():
    f = LineIntegralGauge([ex.ONE], (0.0,))
    g = LineIntegralGauge([ex.ONE], (0.0,))
    assert ex.Gauge(f) is ex.Gauge(f)
    assert ex.Gauge(f) is not ex.Gauge(g) and ex.Gauge(f) != ex.Gauge(g)
    factor = gauged(f, -1.0, ex.ONE)  # exp(-f), shared by every entry it scales
    assert gauged(f, -1.0, ex.Var(0)).left is factor is gauged(f, -1.0, ex.Var(1)).left
    with pytest.raises(TypeError, match="Gauge has no symbolic derivative"):
        ex.diff(gauged(f, -1.0, ex.Var(0)), 0)
    for reject in (lambda t: ex.substitute(t, {}), ex.to_source):
        with pytest.raises(TypeError):
            reject(ex.Gauge(f))


@given(forest=forests())
@settings(max_examples=100, deadline=None)
def test_rebuilt_trees_are_the_same_nodes(forest):
    trees, _ = forest
    assert all(_copy(t) is t for t in trees)


def test_reference_agreement_covers_domain_errors():
    x = ex.Var(0)
    trees = [ex.call("sqrt", x), ex.call("log", ex.neg(x)), ex.div(ex.ONE, x)]
    pts = np.array([[1.0], [-1.0]])
    _assert_same_outcome(trees, pts, 2)
    # the failing constant exponent is reached before its base's sqrt error
    bad = ex.Pow(ex.call("sqrt", ex.neg(x)), ex.call("log", ex.neg(ex.ONE)))
    _assert_same_outcome([ex.add(ex.call("exp", x), bad)], pts, 1)
    got = _outcome(lambda: evaluate([bad], pts, 1))
    assert got[0] == "raised" and "log of non-positive value (min -1)" in got[2]
    # so is a constant exponent that overflows
    huge = ex.Pow(ex.call("sqrt", ex.neg(x)), ex.call("exp", ex.const(1000)))
    _assert_same_outcome([ex.add(ex.call("exp", x), huge)], pts, 1)
    got = _outcome(lambda: evaluate([huge], pts, 1))
    assert got[0] == "raised" and issubclass(got[1], ArithmeticError)
    # an inf or nan exponent fails only after its base has been evaluated
    for k in (math.inf, math.nan):
        _assert_same_outcome([ex.Pow(x, ex.Num(k))], pts, 1)
        _assert_same_outcome([ex.Pow(ex.call("sqrt", ex.neg(x)), ex.Num(k))], pts, 1)


def test_single_tree_returns_a_jet_and_a_sequence_a_list():
    tree = ex.mul(ex.Var(0), ex.Var(0))
    pts = np.array([[3.0]])
    assert evaluate(tree, pts, 1).grad[0, 0] == 6.0
    jets = evaluate((tree, tree), pts, 1)
    assert isinstance(jets, list) and len(jets) == 2
    assert evaluate([], pts, 1) == []


def _dense_metric(dim: int) -> MetricField:
    """Round sphere metric 4 Q / (1 + y^T Q y)^2 pulled back by a fixed map."""
    rng = np.random.default_rng(7)
    a = np.eye(dim) + 0.3 * rng.uniform(0.0, 1.0, (dim, dim))
    q = a.T @ a
    quad = " + ".join(f"({float(q[i, j])!r})*x{i}*x{j}" for i in range(dim) for j in range(dim))
    entries = [[f"4*({float(q[i, j])!r})/(1 + {quad})^2" for j in range(dim)]
               for i in range(dim)]
    return MetricField(Chart(dim, ((-0.5, 0.5),) * dim), entries)


def test_dense_levi_civita_matches_reference():
    conn = levi_civita(_dense_metric(3))
    trees = list(conn.entries.flat)
    pts = np.random.default_rng(1).uniform(-0.45, 0.45, (6, 3))
    _assert_same_outcome(trees, pts, 2)

    # hash-consed trees: the planner visits one object per slot, and adds one
    # reciprocal slot for each of the 3 distinct divisors of the 33 divisions
    slots, _ = _plan(trees)
    objects = {}
    stack = list(trees)
    while stack:
        node = stack.pop()
        if id(node) not in objects:
            objects[id(node)] = node
            stack.extend(getattr(node, f) for f in node.__dataclass_fields__
                         if isinstance(getattr(node, f), ex.Expression))
    assert len(objects) == 313
    assert sum(isinstance(node, ex.Div) for node in objects.values()) == 33
    assert sum(op == "recip" for op, _, _ in slots) == 3
    assert len(slots) == 316


def test_jets_are_freed_after_their_last_use():
    # A chain of 300 distinct nodes: keeping every jet alive would hold
    # hundreds of order-3 jets; freeing at last use holds a handful.
    x, y = ex.Var(0), ex.Var(1)
    tree = x
    for k in range(100):
        tree = ex.add(ex.mul(tree, ex.const(1.0 + k / 1000)), y)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (2000, 2))
    one_jet = pts.shape[0] * 8 * (1 + 2 + 4 + 8)
    tracemalloc.start()
    try:
        evaluate(tree, pts, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * one_jet


# ---------------------------------------------------------------------------
# plan keys: pairs that must never share a slot
# ---------------------------------------------------------------------------

U = ex.add(ex.Var(0), ex.Num(0.25))

DISTINCT_PAIRS = {
    "signed zeros": (ex.Num(0.0), ex.Num(-0.0)),
    "sin and cos": (ex.Call("sin", U), ex.Call("cos", U)),
    "constant and variable exponent": (ex.Pow(U, ex.Num(2.0)), ex.Pow(U, ex.Var(1))),
    "two fractional exponents": (ex.Pow(U, ex.Num(0.5)), ex.Pow(U, ex.Num(1.5))),
    "swapped subtraction": (ex.Sub(U, ex.Var(1)), ex.Sub(ex.Var(1), U)),
}


@pytest.mark.parametrize("name", sorted(DISTINCT_PAIRS))
def test_pairs_never_share_a_slot(name):
    a, b = DISTINCT_PAIRS[name]
    _, (slot_a, slot_b, slot_copy) = _plan([a, b, _copy(a)])
    assert slot_a != slot_b
    assert slot_copy == slot_a  # equal copies do share
    pts = np.array([[1.25, 2.0]])
    ja, jb = evaluate([a, b], pts, 1)
    assert (ja.value.tobytes(), ja.grad.tobytes()) != (jb.value.tobytes(), jb.grad.tobytes())


def test_signed_zero_survives_the_plan():
    ja, jb = evaluate([ex.Num(0.0), ex.Num(-0.0)], np.array([[1.0]]), 0)
    assert not np.signbit(ja.value[0]) and np.signbit(jb.value[0])
    assert ex.Num(0.0) == ex.Num(-0.0)  # why the key uses the bit pattern
