"""Memory order: the sample axis at unit stride from jet to residual.

Every jet, field tensor and residual intermediate is indexed sample axis
first and stored with that axis at unit stride; a jet's parts are views of
its one (k, m) buffer, and a field tensor's of its one (*shape, k, m)
buffer. These tests pin the layout of each producer, check
that jet arithmetic gives the same bits whatever the layout of the parts a
jet is built from, and bound the scratch of `max_abs` on either layout.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curvature_tensor
from jet_reference import jet_from_parts
from hesslab import expr as ex
from hesslab.geomcore import (
    Chart,
    LineIntegralGauge,
    MetricField,
    OneFormField,
    SamplePlan,
    ScalarField,
    VectorFieldT,
    covariant_derivative_metric_batch,
    covariant_derivative_oneform_batch,
    covariant_derivative_vector_batch,
    drop_held_points,
    flat_connection,
    gauged,
    levi_civita,
    lie_derivative_metric_batch,
    max_abs,
    samples_first,
)
from hesslab.jets import MAX_ORDER, Feed, Jet, _plan, evaluate, offsets

CHART = Chart(2, ((0.4, 2.1), (0.3, 1.9)))


def unit_stride(arr) -> bool:
    return arr.shape[0] == 1 or arr.strides[0] == arr.itemsize


def sample_contiguous_copy(arr):
    """The same values, sample axis first, stored sample axis last."""
    return samples_first(np.ascontiguousarray(np.moveaxis(arr, 0, -1)))


def _metric() -> MetricField:
    r2 = "(x0*x0 + x1*x1)"
    return MetricField(CHART, [[f"1/{r2} + x0", "x0*x1"], ["x0*x1", f"exp(x1)/{r2}"]])


def _fields():
    g = _metric()
    gauge = LineIntegralGauge(OneFormField(CHART, ["x1", "x0 + 2*x1"]), (1.0, 1.0))
    gauged_metric = MetricField(CHART, [[gauged(gauge, -1.0, e) for e in row]
                                        for row in g.entries])
    return {
        "metric": g,
        "gauged-metric": gauged_metric,
        "connection": levi_civita(g),
        "one-form": OneFormField(CHART, ["sin(x0)*x1", "log(x0 + x1)"]),
        "vector": VectorFieldT(CHART, ["x0^2 - x1", "sqrt(x0)*x1"]),
        "scalar": ScalarField(CHART, "x0^3*x1 + cos(x1)"),
    }


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
@pytest.mark.parametrize("kind", sorted(_fields()))
def test_field_tensors_have_the_sample_axis_at_unit_stride(kind, order):
    field = _fields()[kind]
    loose = np.random.default_rng(3).uniform(0.5, 1.8, (40, 2))
    held = CHART.sample(SamplePlan(count=40, seed=5))
    try:
        for pts in (loose, held):
            tensor = field.eval(pts, order)
            arrays = (tensor.value, tensor.grad, tensor.hess)[:order + 1]
            for arr in arrays:
                assert arr.shape[:1] == (40,)
                assert unit_stride(arr), arr.strides
    finally:
        drop_held_points()


@pytest.mark.parametrize("kind", sorted(_fields()))
def test_a_field_tensor_is_views_of_one_read_only_buffer(kind):
    # the held tensor is one (*shape, k, m) buffer; value, grad and hess read
    # its rows in place, entry by entry, and a lower order is a prefix of it
    field = _fields()[kind]
    pts = CHART.sample(SamplePlan(count=40, seed=5))
    try:
        tensor = field.eval(pts, 2)
        shape = field.entries.shape
        assert tensor.buf.shape == shape + (offsets(2)[3], 40)
        assert not tensor.buf.flags.writeable
        for r, part in enumerate((tensor.value, tensor.grad, tensor.hess)):
            assert part.shape == (40,) + shape + (2,) * r
            assert np.shares_memory(part, tensor.buf) and not part.flags.writeable
            rows = tensor.buf[..., offsets(2)[r]:offsets(2)[r + 1], :]
            assert np.array_equal(np.moveaxis(part, 0, -1).reshape(rows.shape), rows)
        assert np.shares_memory(field.eval(pts, 0).buf, tensor.buf)
    finally:
        drop_held_points()


def test_batch_operators_have_the_sample_axis_at_unit_stride():
    g = _metric()
    conn = levi_civita(g)
    theta = OneFormField(CHART, ["x1", "x0*x1"])
    xi = VectorFieldT(CHART, ["x0 + x1^2", "x0*x1"])
    pts = np.random.default_rng(1).uniform(0.5, 1.8, (30, 2))
    for c in (conn, flat_connection(CHART)):
        outputs = [
            curvature_tensor(c, pts),
            covariant_derivative_metric_batch(c, g, pts),
            covariant_derivative_oneform_batch(c, theta, pts),
            covariant_derivative_vector_batch(c, xi, pts),
        ]
        for out in outputs:
            assert unit_stride(out), out.strides
    assert unit_stride(lie_derivative_metric_batch(xi, g, pts))


# ---------------------------------------------------------------------------
# jets: one buffer each
# ---------------------------------------------------------------------------

X0, X1 = ex.Var(0), ex.Var(1)
U = ex.add(ex.mul(X0, X1), ex.call("sin", X1))  # read by every tree below
READERS = [ex.mul(U, U), ex.add(U, X0), ex.sub(X1, U), ex.Neg(U), ex.div(X0, U),
           ex.Pow(U, ex.const(3.0)), ex.Pow(U, ex.const(0.5)), ex.call("exp", U),
           ex.call("log", U), ex.call("sqrt", U), ex.mul(ex.const(2.0), U)]


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_every_part_of_a_jet_is_a_view_of_its_buffer(order):
    pts = np.random.default_rng(4).uniform(0.5, 1.8, (40, 2))
    trees = [ex.const(1.5), X0, ex.mul(X0, X1)] + READERS
    for tree, jet in zip(trees, evaluate(trees, pts, order)):
        k = offsets(2)[jet.degree + 1]
        assert jet.buf.shape == (k, 40) and jet.buf.flags.c_contiguous
        for r, part in enumerate((jet.value, jet.grad, jet.hess)[:order + 1]):
            assert part.shape == (40,) + (2,) * r and unit_stride(part)
            if r <= jet.degree:  # stored: a read-only view of the buffer's rows
                assert np.shares_memory(part, jet.buf) and not part.flags.writeable
            else:  # known zero: fresh zeros
                assert not np.shares_memory(part, jet.buf) and not part.any()
        if order >= 1 and jet.degree >= 1:
            assert jet.grad.strides == (8, 8 * 40)


def test_a_linear_combination_of_coordinates_stores_no_hessian_rows():
    pts = np.random.default_rng(5).uniform(0.5, 1.8, (30, 2))
    jet = evaluate(ex.add(ex.mul(ex.const(3.0), X0), X1), pts, 2)
    assert jet.degree == 1 and jet.buf.shape == (1 + 2, 30)
    assert jet.hess.shape == (30, 2, 2) and not jet.hess.any()
    assert np.array_equal(jet.grad, np.tile([3.0, 1.0], (30, 1)))


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_a_jet_read_by_many_slots_is_written_by_none(order):
    # U's jet is emitted as its slot finishes, before any reader runs; it is
    # then made read-only, so a reader that wrote into it would raise
    pts = np.random.default_rng(6).uniform(0.5, 1.8, (25, 2))
    plan = _plan([U] + READERS)
    assert plan.last[plan.roots[0]] == plan.roots[-1]  # the last tree reads U last
    seen = {}

    def emit(positions, jet):
        if 0 in positions:
            seen["buf"], seen["bytes"] = jet.buf, jet.buf.tobytes()
            jet.buf.flags.writeable = False
        seen.setdefault("roots", []).extend(positions)

    evaluate(Feed(plan, emit), pts, order)
    assert sorted(seen["roots"]) == list(range(len(READERS) + 1))
    assert seen["buf"].tobytes() == seen["bytes"]


# ---------------------------------------------------------------------------
# jet arithmetic: the same bits on either layout
# ---------------------------------------------------------------------------

SPOILERS = (np.nan, np.inf, -np.inf, 0.0)
UNARY = ("neg", "exp", "log", "sqrt", "sin", "cos", "reciprocal", "powi", "powf")
BINARY = ("add", "sub", "mul")


def same_bits(a, b) -> bool:
    """Equal shapes, NaN at the same entries and the same bits elsewhere.
    A NaN's sign and payload are not compared: which operand's NaN a binary
    ufunc propagates depends on the inner loop numpy picks for the layout,
    and nothing reads them."""
    if a.shape != b.shape:
        return False
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def _random_parts(rng, m, n, order, spoil):
    value = rng.uniform(0.05, 2.0, m) * rng.choice([1.0, 1.0, -1.0], m)
    parts = [value] + [rng.standard_normal((m,) + (n,) * r) for r in range(1, order + 1)]
    for v in spoil:  # NaN, +-inf and zeros at random entries of random parts
        part = parts[rng.integers(len(parts))].reshape(-1)
        part[rng.integers(part.size)] = v
    return parts


def _apply(op, arg, u, v=None):
    if op == "powi":
        return u.powi(arg)
    if op == "powf":
        return u.powf(arg)
    if op in BINARY:
        return getattr(u, f"__{op}__")(v)
    if op == "neg":
        return -u
    return getattr(u, op)()


def _run_program(program, leaves, order):
    """Each step applies an op to jets of the pool and adds its result; the
    step's outcome is where the result's fault is (None for none)."""
    pool = [jet_from_parts(order, *parts) for parts in leaves]
    outcomes = []
    for op, arg, i, j in program:
        u, v = pool[i % len(pool)], pool[j % len(pool)]
        with np.errstate(all="ignore"):
            pool.append(_apply(op, arg, u, v))
        fault = pool[-1].fault
        outcomes.append(fault and (fault.rows.tobytes(), fault.first[0], fault.first[2]))
    return pool, outcomes


STEP = st.tuples(
    st.sampled_from(UNARY + BINARY),
    st.sampled_from([-2, -1, 0, 1, 2, 3, 0.5, -1.5, 2.25]),
    st.integers(0, 50),
    st.integers(0, 50),
).map(lambda s: (s[0], int(s[1]) if s[0] == "powi" else float(s[1]), s[2], s[3]))


@settings(max_examples=80, deadline=None)
@given(order=st.integers(0, MAX_ORDER), n=st.integers(1, 3),
       m=st.sampled_from([1, 5, 33]), seed=st.integers(0, 2**32 - 1),
       spoil=st.lists(st.sampled_from(SPOILERS), max_size=3),
       program=st.lists(STEP, min_size=1, max_size=10))
def test_jet_arithmetic_is_bit_identical_on_either_layout(order, n, m, seed, spoil,
                                                          program):
    # the leaves are built from parts stored point-major and sample-major
    rng = np.random.default_rng(seed)
    leaves = [_random_parts(rng, m, n, order, spoil) for _ in range(3)]
    c_leaves = [[np.ascontiguousarray(p) for p in parts] for parts in leaves]
    s_leaves = [[p if p.ndim == 1 else sample_contiguous_copy(p) for p in parts]
                for parts in leaves]
    c_pool, c_outcomes = _run_program(program, c_leaves, order)
    s_pool, s_outcomes = _run_program(program, s_leaves, order)
    assert c_outcomes == s_outcomes
    for c_jet, s_jet in zip(c_pool, s_pool):
        for part in ("value", "grad", "hess"):
            a, b = getattr(c_jet, part), getattr(s_jet, part)
            assert (a is None) == (b is None)
            if a is not None:
                assert same_bits(a, b), part
                if a.ndim > 1 and b.shape[0] > 1 and part != "value":
                    assert unit_stride(b)  # the order carries through


# ---------------------------------------------------------------------------
# max_abs: two (m,) arrays of scratch, whatever the layout
# ---------------------------------------------------------------------------

def test_max_abs_peak_is_two_rows_on_either_layout():
    m = 20_000
    rng = np.random.default_rng(0)
    point_major = rng.standard_normal((m, 3, 3, 3))
    point_major[17, 2, 1, 0] = np.nan
    point_major[5, 0, 0, 1] = -np.inf
    want = np.max(np.abs(point_major.reshape(m, -1)), axis=1)
    layouts = {
        "point-major": point_major,
        "sample-contiguous": sample_contiguous_copy(point_major),
        "permuted": sample_contiguous_copy(point_major).transpose(0, 3, 1, 2),
    }
    for name, arr in layouts.items():
        tracemalloc.start()
        try:
            got = max_abs(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * m * 8 + 4096, (name, peak)
        if name == "permuted":
            want_here = np.max(np.abs(arr.reshape(m, -1)), axis=1)
        else:
            want_here = want
        assert got.tobytes() == want_here.tobytes(), name


def test_max_abs_reads_components_that_do_not_merge():
    arr = np.random.default_rng(2).standard_normal((50, 4, 4))[:, ::2, 1:]
    assert max_abs(arr).tobytes() == np.max(np.abs(arr.reshape(50, -1)), axis=1).tobytes()
    assert max_abs(arr[:, 0, 0]).tobytes() == np.abs(arr[:, 0, 0]).tobytes()
