"""The planned jet pass against a recursive reference, plus plan-key edge cases.

The reference runs on each row alone and raises at a domain error; the
planned pass runs on all rows and marks such rows in its jets' faults."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jet_reference import reference_evaluate

from hesslab import expr as ex
from hesslab import jets
from hesslab.expr import DomainError
from hesslab.geomcore import Chart, LineIntegralGauge, MetricField, OneFormField, gauged, levi_civita
from hesslab.jets import _plan, evaluate

PARTS = ("value", "grad", "hess")


def _outcome(fn):
    """``("ok", jets)`` or ``("raised", type, message)``."""
    try:
        with np.errstate(all="ignore"):
            return ("ok", fn())
    except Exception as err:  # compared, not swallowed
        return ("raised", type(err), str(err))


def _reference_all(trees, pts, order, strict=True):
    # The trees one after another: the first error raised is the outcome.
    return [reference_evaluate(t, pts, order, strict) for t in trees]


def _assert_same_outcome(trees, pts, order):
    """The planned pass over every row against the reference on each row
    alone. A pass that raises (an exponent that does not resolve) raises
    what the reference raises without its domain checks. Otherwise each
    tree's jet is faulty at exactly the rows where the reference raises a
    DomainError for that tree, its fault keeps the message of the lowest of
    them, and every other row agrees bit for bit with the reference run on
    every row without its checks (a gauge's quadrature sums in an order
    that depends on the number of rows)."""
    got = _outcome(lambda: evaluate(trees, pts, order))
    want = _outcome(lambda: _reference_all(trees, pts, order, strict=False))
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1:] == want[1:]
        return
    assert len(got[1]) == len(trees)
    for tree, jet, whole in zip(trees, got[1], want[1]):
        rows = [_outcome(lambda: reference_evaluate(tree, pts[k:k + 1], order))
                for k in range(len(pts))]
        faulty = [k for k, row in enumerate(rows) if row[0] == "raised"]
        assert all(rows[k][1] is DomainError for k in faulty), rows
        if not faulty:
            assert jet.fault is None
        else:
            assert np.flatnonzero(jet.fault.rows).tolist() == faulty
            row, _, message = jet.fault.first
            assert (row, message) == (faulty[0], rows[faulty[0]][2])
        clean = [k for k, row in enumerate(rows) if row[0] == "ok"]
        for part in PARTS:
            a, b = getattr(jet, part), getattr(whole, part)
            assert (a is None) == (b is None), part
            if a is not None:
                assert a[clean].tobytes() == b[clean].tobytes(), part


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


@given(forest=forests(), order=st.integers(0, 2))
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
    form = OneFormField(Chart(dim, ((0.0, 1.0),) * dim), [ex.diff(potential, i) for i in range(dim)])
    gauge = LineIntegralGauge(form, np.full(dim, 0.25))
    sign = draw(st.sampled_from((-1.0, 1.0, -2.0, 0.5)))
    return [gauged(gauge, sign, t) for t in trees] + [ex.Gauge(gauge)], pts


@given(forest=gauge_forests(), order=st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_planned_pass_matches_reference_with_a_shared_gauge(forest, order):
    trees, pts = forest
    _assert_same_outcome(trees, pts, order)
    plan = _outcome(lambda: _plan(trees))
    if plan[0] == "ok":  # the gauge leaf is one slot, however many trees use it
        assert sum(op == "gauge" for op, _, _ in plan[1].slots) == 1


def test_gauge_leaves_are_interned_on_their_source():
    form = OneFormField(Chart(1, ((0.0, 1.0),)), [ex.ONE])
    f = LineIntegralGauge(form, (0.0,))
    g = LineIntegralGauge(form, (0.0,))
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
    sqrt, log, _ = evaluate(trees, pts, 2)
    assert sqrt.fault.rows.tolist() == [False, True] and np.isnan(sqrt.hess[1]).all()
    assert log.fault.first[::2] == (0, "log of non-positive value (min -1)")
    # a row off two domains keeps the first op the walk reaches there: the
    # sqrt, a slot before the log
    both = ex.add(ex.call("sqrt", ex.sub(x, ex.const(2))), ex.call("log", x))
    (jet,) = evaluate([both], np.array([[3.0], [-1.0], [1.0]]), 1)
    assert jet.fault.rows.tolist() == [False, True, True]
    assert jet.fault.first[::2] == (1, "sqrt of non-positive value (min -3)")
    # the failing constant exponent raises as it is planned, whatever its base
    bad = ex.Pow(ex.call("sqrt", ex.neg(x)), ex.call("log", ex.neg(ex.ONE)))
    _assert_same_outcome([ex.add(ex.call("exp", x), bad)], pts, 1)
    got = _outcome(lambda: evaluate([bad], pts, 1))
    assert got[0] == "raised" and "log of non-positive value (min -1)" in got[2]
    # so is a constant exponent that overflows
    huge = ex.Pow(ex.call("sqrt", ex.neg(x)), ex.call("exp", ex.const(1000)))
    _assert_same_outcome([ex.add(ex.call("exp", x), huge)], pts, 1)
    got = _outcome(lambda: evaluate([huge], pts, 1))
    assert got[0] == "raised" and issubclass(got[1], ArithmeticError)
    # so does an inf or nan exponent
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
    slots = _plan(trees).slots
    objects = {}
    stack = list(trees)
    while stack:
        node = stack.pop()
        if id(node) not in objects:
            objects[id(node)] = node
            stack.extend(getattr(node, f) for f in node.__match_args__
                         if isinstance(getattr(node, f), ex.Expression))
    assert len(objects) == 313
    assert sum(isinstance(node, ex.Div) for node in objects.values()) == 33
    assert sum(op == "recip" for op, _, _ in slots) == 3
    assert len(slots) == 316


def _recursive_plan(trees):
    """The plan `_plan` must build, written as a recursive post-order:
    children left to right, each distinct node once, and a division's
    reciprocal slot made just before the division's product."""
    slots, by_id, recips = [], {}, {}

    def visit(node):
        if id(node) not in by_id:
            op, arg, kids = jets._describe(node)
            kids = tuple(visit(k) for k in kids)
            if op == "div":
                u, v = kids
                if v not in recips:
                    recips[v] = len(slots)
                    slots.append(("recip", None, (v,)))
                op, kids = "mul", (u, recips[v])
            by_id[id(node)] = len(slots)
            slots.append((op, arg, kids))
        return by_id[id(node)]

    roots = [visit(t) for t in trees]
    return slots, roots


def _assert_same_plan(trees):
    got = _outcome(lambda: _plan(trees))
    want = _outcome(lambda: _recursive_plan(trees))
    assert got[0] == want[0]
    if got[0] == "raised":  # the first exponent that does not resolve
        assert got[1:] == want[1:]
        return
    (slots, roots, last), (want_slots, want_roots) = got[1], want[1]
    assert roots == want_roots
    # a slot's jet is dropped by its last reader, or at once when unread
    assert last == [max([s for s, (_, _, kids) in enumerate(want_slots) if k in kids],
                        default=k) for k in range(len(want_slots))]
    assert [(op, kids) for op, _, kids in slots] == [(op, kids) for op, _, kids in want_slots]
    for (op, arg, _), (_, want, _) in zip(slots, want_slots):
        assert arg is want or arg == want or (arg != arg and want != want)


@given(forest=forests())
@settings(max_examples=300, deadline=None)
def test_plan_is_the_recursive_post_order(forest):
    _assert_same_plan(forest[0])


def test_plan_describes_each_node_once(monkeypatch):
    conn = levi_civita(_dense_metric(3))
    trees = list(conn.entries.flat) + list(conn.entries.flat)[::-1]
    _assert_same_plan(trees)
    described = []
    real = jets._describe

    def describe(node):
        described.append(id(node))
        return real(node)

    monkeypatch.setattr(jets, "_describe", describe)
    slots = _plan(trees).slots
    assert len(described) == len(set(described)) == len(slots) - 3  # 3 reciprocals


def test_jets_are_freed_after_their_last_use():
    # A chain of 300 distinct nodes: keeping every jet alive would hold
    # hundreds of jets; freeing at last use holds a handful.
    x, y = ex.Var(0), ex.Var(1)
    tree = x
    for k in range(100):
        tree = ex.add(ex.mul(tree, ex.const(1.0 + k / 1000)), y)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (2000, 2))
    one_jet = pts.shape[0] * 8 * (1 + 2 + 4)
    tracemalloc.start()
    try:
        evaluate(tree, pts, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * one_jet


def test_live_peak_of_a_small_plan():
    # x0, x1, x0 * x1 (both leaves still read), then x0 * x1 + x0 frees all
    x, y = ex.Var(0), ex.Var(1)
    plan = _plan([ex.add(ex.mul(x, y), x)])
    assert [op for op, _, _ in plan.slots] == ["var", "var", "mul", "add"]
    assert jets.live_peak(plan) == 3


@given(forest=forests())
@settings(max_examples=200, deadline=None)
def test_live_peak_counts_the_jets_a_pass_holds(forest):
    # a slot's jet is held from its slot until the last slot that reads it;
    # while slot s is made, the jets of earlier slots that s or a later slot
    # reads are held, and s's own
    trees, _ = forest
    plan = _outcome(lambda: _plan(trees))
    if plan[0] == "raised":  # an exponent that does not resolve: no plan
        return
    plan = plan[1]
    last = {}
    for s, (_, _, kids) in enumerate(plan.slots):
        for k in kids:
            last[k] = s
    want = max(1 + sum(1 for k, end in last.items() if k < s <= end)
               for s in range(len(plan.slots)))
    assert jets.live_peak(plan) == want


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
    slot_a, slot_b, slot_copy = _plan([a, b, _copy(a)]).roots
    assert slot_a != slot_b
    assert slot_copy == slot_a  # equal copies do share
    pts = np.array([[1.25, 2.0]])
    ja, jb = evaluate([a, b], pts, 1)
    assert (ja.value.tobytes(), ja.grad.tobytes()) != (jb.value.tobytes(), jb.grad.tobytes())


def test_signed_zero_survives_the_plan():
    ja, jb = evaluate([ex.Num(0.0), ex.Num(-0.0)], np.array([[1.0]]), 0)
    assert not np.signbit(ja.value[0]) and np.signbit(jb.value[0])
    assert ex.Num(0.0) == ex.Num(-0.0)  # why the key uses the bit pattern
