"""Blocked field passes against whole ones, bit for bit.

A field pass runs its plan over row blocks sized from one scratch budget
(`geomcore._SCRATCH_BUDGET`). These tests shrink the budget so that a pass
over 200 points spans at least three blocks, the last one partial, and
compare every array, term, fit and report with the one-block pass."""

from __future__ import annotations

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import conftest
import hesslab.geomcore as gc
from conftest import curvature_tensor
from hesslab import expr as ex
from hesslab.geomcore import (
    Chart,
    ConnectionField,
    LineIntegralGauge,
    MetricField,
    OneFormField,
    SamplePlan,
    closedness_residual,
    drop_held_points,
    flatness_residual,
    gauged,
    levi_civita,
    max_abs,
    sample_check,
    torsion_residual,
)
from hesslab.hesstat import StatisticalStructure, estimate_constant_curvature, structure_terms
from hesslab.scenes import EXAMPLES, load_example, run_example, run_suite, scene_from_dict

M = 200
ROWS = 64  # 200 = 3 * 64 + 8: three full blocks and a partial one


def _shrink(mp, field, order, rows=ROWS, keep=0):
    """Set the budget so that a pass over ``field`` at ``order`` whose
    consumer keeps ``keep`` bytes per row takes ``rows`` rows per block."""
    n = field.chart.dim
    width = sum(n**k for k in range(order + 1))
    mp.setattr(gc, "_SCRATCH_BUDGET", rows * (8 * width * field.live_peak() + keep))
    assert gc._block_rows(field, M, n, order, keep) == rows


def _points(chart, m=M, seed=0):
    lo, hi = chart.lo(), chart.hi()
    return lo + (0.05 + 0.9 * np.random.default_rng(seed).random((m, chart.dim))) * (hi - lo)


def _outcome(field, pts, order):
    """The bytes of every array of a pass, then its fault: the faulty rows,
    the lowest of them and its message (None for no fault)."""
    t = gc._eval_entries(field, pts, order)
    fault = t.fault and (t.fault.rows.tobytes(), t.fault.first[0], t.fault.first[2])
    return (t.buf.tobytes(), fault)


@functools.cache
def _fields_of(name):
    """Every field the bundled scene evaluates at 200 samples: its own and
    those its checks build (cones, slices, probe candidates, maps)."""
    fields = {}
    real = gc._eval_entries

    def record(field, pts, order, *args, **kwargs):
        fields.setdefault(id(field), field)
        return real(field, pts, order, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gc, "_eval_entries", record)
        run_example(name, SamplePlan(count=M, seed=3))
    drop_held_points()
    return tuple(fields.values())


def _dense_fields(dim):
    g = MetricField(Chart(dim, ((-0.5, 0.5),) * dim),
                    conftest.dense_sphere_scene(dim)["fields"]["g"]["entries"])
    return g, levi_civita(g)


@pytest.mark.parametrize("name", EXAMPLES)
def test_every_bundled_field_fits_one_block_at_200_samples(name):
    # so at 200 samples every pass, and every curvature fold, runs as one
    for field in _fields_of(name):
        n = field.chart.dim
        for order in range(3):
            assert gc._block_rows(field, M, n, order) >= M
        if isinstance(field, ConnectionField):
            assert gc._fold_step(field, M, n) >= M


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_dense_fields_fit_one_block_at_200_samples(dim):
    g, lc = _dense_fields(dim)
    for field in (g, lc):
        for order in range(3):
            assert gc._block_rows(field, M, dim, order) >= M
    assert gc._fold_step(lc, M, dim) >= M


@pytest.mark.parametrize("name", EXAMPLES)
def test_blocked_pass_matches_the_whole_pass_for_every_bundled_field(name, monkeypatch):
    fields = _fields_of(name)
    assert fields
    for k, field in enumerate(fields):
        pts = _points(field.chart, seed=k)
        for order in range(3):
            whole = _outcome(field, pts, order)
            with monkeypatch.context() as mp:
                _shrink(mp, field, order)
                assert _outcome(field, pts, order) == whole


def test_blocked_pass_of_a_gauged_field_with_a_one_row_last_block(monkeypatch):
    # 200 = 199 + 1: the last block integrates the gauge of one row alone,
    # and gives the bits the whole pass gives that row
    chart = Chart(2, ((0.4, 2.1), (0.3, 1.9)))
    gauge = LineIntegralGauge(OneFormField(chart, ["x1*exp(x0)", "x0 + 2*x1"]), (1.0, 1.0))
    entries = [["1 + x0*x0", "x0*x1"], ["x0*x1", "2 + x1*x1"]]
    g = MetricField(chart, [[gauged(gauge, -1.0, ex.parse_expression(e, 2)) for e in row]
                            for row in entries])
    pts = _points(chart)
    for order in range(3):
        whole = _outcome(g, pts, order)
        with monkeypatch.context() as mp:
            _shrink(mp, g, order, rows=M - 1)
            assert _outcome(g, pts, order) == whole


@pytest.mark.parametrize("dim", [3, 5])
def test_blocked_pass_matches_the_whole_pass_for_dense_fields(dim, monkeypatch):
    for field in _dense_fields(dim):
        pts = _points(field.chart, seed=dim)
        for order in range(3):
            whole = _outcome(field, pts, order)
            assert whole[-1] is None
            with monkeypatch.context() as mp:
                _shrink(mp, field, order)
                assert _outcome(field, pts, order) == whole


def _fit_on_the_whole_tensor(r, g):
    """The constant-curvature fit on the whole curvature tensor ``r``,
    changed in place, and the metric values ``g``."""
    d = g.shape[1]
    traces = np.trace(r, axis1=1, axis2=2) - np.trace(r, axis1=1, axis2=3)
    along = float(np.sum(np.einsum("ajk,ajk->a", traces, g)))
    denom = 2.0 * (d - 1) * float(np.sum(np.einsum("ajk,ajk->a", g, g)))
    c = along / denom if denom != 0.0 else 0.0
    cg = c * g
    for l in range(d):
        for i in range(d):
            if i != l:
                r[:, l, l, i] -= cg[:, i]
                r[:, l, i, l] += cg[:, i]
    return c, float(np.max(max_abs(r) / (1.0 + max_abs(cg))))


def _terms(struct, plan):
    """Torsion and flatness, then the fit, on the held points; the orders of
    the passes that evaluated Gamma for each, and the order Gamma is held at
    after the terms."""
    passes = []
    real = gc._eval_entries

    def count(field, pts, order, *args, **kwargs):
        if field is struct.conn:
            passes[-1].append(order)
        return real(field, pts, order, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gc, "_eval_entries", count)
        pts = struct.chart.sample(plan)
        try:
            passes.append([])
            terms = structure_terms(struct.conn, struct.metric, pts)
            held = gc._held.get((struct.conn,), pts).order
            passes.append([])
            est = estimate_constant_curvature(struct, plan)
        finally:
            drop_held_points()
    out = {key: terms[key].tobytes() for key in ("torsion", "flatness")}
    return out, (est.c, est.residual), passes, held


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("metric", ["dense", "non-constant"])
def test_blocked_fold_matches_the_whole_fold(dim, metric, monkeypatch):
    if metric == "dense":
        g, lc = _dense_fields(dim)
    else:  # curvature far from constant: the fit's misfit is large
        chart = Chart(dim, ((0.2, 0.9),) * dim)
        g = MetricField(chart, [[f"{1 + i} + x{i}*x{j}" if i == j
                                 else f"0.1*x{min(i, j)}*x{max(i, j)}"
                                 for j in range(dim)] for i in range(dim)])
        lc = levi_civita(g)
    struct = StatisticalStructure(g.chart, lc, g)
    plan = SamplePlan(count=M, seed=dim)
    whole, fit, passes, order = _terms(struct, plan)
    assert passes == [[1], []] and order == 1  # one block: Gamma's order 1 held
    # the fit on the whole tensor R, as it was built before, to the last bit
    pts = g.chart.sample(plan).copy()
    assert fit == _fit_on_the_whole_tensor(curvature_tensor(lc, pts), g.eval(pts, 0).value)
    drop_held_points()
    with monkeypatch.context() as mp:
        _shrink(mp, lc, 1, keep=gc._fold_keep(dim))
        blocked, blocked_fit, passes, order = _terms(struct, plan)
    # flatness first: its blocked pass holds Gamma's values, which torsion
    # reads, so the terms evaluate Gamma once and hold it at order 0 only;
    # the fit folds another blocked pass
    assert passes == [[1], [1]] and order == 0
    assert blocked == whole
    assert blocked_fit == fit


@pytest.mark.parametrize("spoil", [None, np.inf, -np.inf, np.nan, "diagonal"])
def test_fit_fold_matches_the_whole_tensor_fit_on_a_given_curvature(spoil, monkeypatch):
    # a random curvature R = A - A^T(ij) handed to the fit as its pair
    # slices, in blocks of ROWS rows, against the whole-tensor fit on the
    # same R: the same c and residual bytes, with an inf or NaN at entries
    # the model misses (i, j != l), where only the residual sees it, or an
    # inf in A^l_{llk}, whose R^l_{llk} = inf - inf enters no slice: the
    # slices carry it as the kernel's guard, NaN in every slice of that
    # sample, and c reads NaN, as it does on the whole tensor
    import hesslab.hesstat as hs

    d = 3
    g, lc = _dense_fields(d)
    struct = StatisticalStructure(g.chart, lc, g)
    plan = SamplePlan(count=M, seed=6)
    a = gc.samples_first(np.random.default_rng(6).normal(size=(d,) * 4 + (M,)))
    if spoil == "diagonal":
        a[150, 1, 1, 1, 2] = np.inf
    elif spoil is not None:
        a[17, 0, 1, 2, 0] = a[150, 2, 0, 1, 1] = spoil
    with np.errstate(invalid="ignore"):
        r = a - a.transpose(0, 1, 3, 2, 4)
        guard = 0.0 * np.sum(np.diagonal(r, axis1=2, axis2=3), axis=(1, 2, 3))

    def given(conn, pts, take):
        for start in range(0, M, ROWS):
            rows = slice(start, start + ROWS)
            for i, j in itertools.combinations(range(d), 2):
                take(rows, i, j, r[rows, :, i, j] + guard[rows, None, None])

    try:
        monkeypatch.setattr(hs, "curvature_slices", given)
        est = estimate_constant_curvature(struct, plan)
        want = _fit_on_the_whole_tensor(np.copy(r), g.eval(g.chart.sample(plan), 0).value)
    finally:
        drop_held_points()
    got = np.array([est.c, est.residual])
    if spoil == "diagonal":
        assert np.isnan(got).all() and np.isnan(want).all()
        return
    assert got.tobytes() == np.array(want).tobytes()
    assert np.isfinite(est.c)
    if spoil is not None:
        assert not np.isfinite(est.residual)


def test_the_fit_on_a_dim_2_chart_is_the_whole_tensor_fit():
    # on a dim-2 chart every R^l_{ijk} with i != j has l in {i, j}, where the
    # model reaches it, so the misfit is read at those entries alone; a
    # connection that is no Levi-Civita one, its curvature far from c B
    chart = Chart(2, ((0.2, 0.9),) * 2)
    conn = ConnectionField(chart, [[["x0*x1", "1 + x1^2"], ["x0 - x1", "0.5*x0"]],
                                   [["x1^3", "-x0"], ["2*x0*x1", "1 - x1"]]])
    g = MetricField(chart, [["1 + x0^2", "0.1*x0*x1"], ["0.1*x0*x1", "2 + x1"]])
    plan = SamplePlan(count=M, seed=4)
    try:
        est = estimate_constant_curvature(StatisticalStructure(chart, conn, g), plan)
        pts = chart.sample(plan).copy()
        want = _fit_on_the_whole_tensor(curvature_tensor(conn, pts), g.eval(pts, 0).value)
    finally:
        drop_held_points()
    assert (est.c, est.residual) == want
    assert est.residual > 0.1


def test_fold_reads_a_held_order_1_tensor_by_blocks(monkeypatch):
    # Gamma's order 1 held whole (a caller asked for it): the fold takes
    # row blocks of it and evaluates nothing
    g, lc = _dense_fields(3)
    pts = g.chart.sample(SamplePlan(count=M, seed=5))
    try:
        flatness, torsion = flatness_residual(lc, pts.copy()), torsion_residual(lc, pts.copy())
        lc.eval(pts, 1)
        with monkeypatch.context() as mp:
            _shrink(mp, lc, 1, keep=gc._fold_keep(3))
            mp.setattr(gc, "_eval_entries", None)
            assert flatness_residual(lc, pts).tobytes() == flatness.tobytes()
            assert torsion_residual(lc, pts).tobytes() == torsion.tobytes()
    finally:
        drop_held_points()


def _late_domain_error(rows):
    """A one-form whose entry log(x0 - t) is undefined at the two points of
    smallest x0, the smallest in the last block of ``rows`` and the other in
    a middle one, on a plan whose sampled points put them there."""
    chart = Chart(2, ((0.0, 1.0), (0.0, 1.0)))
    for seed in range(1000):
        plan = SamplePlan(count=M, seed=seed)
        x0 = chart.sample(plan)[:, 0].copy()
        first, second, third = np.argsort(x0)[:3]
        if first >= M - M % rows and rows <= second < M - M % rows:
            t = float(0.5 * (x0[second] + x0[third]))
            return chart, plan, OneFormField(chart, [f"log(x0 - {t!r})", "x1"])
    raise AssertionError("no seed puts the bad points in later blocks")


def test_a_domain_error_reports_one_note_and_mask_in_one_block_or_many(monkeypatch):
    chart, plan, theta = _late_domain_error(ROWS)
    calls = []

    def residual(pts):
        calls.append(len(pts))
        return closedness_residual(theta, pts)

    def run():
        calls.clear()
        try:
            pts = chart.sample(plan)
            report = sample_check(residual, chart, plan, 1e-6, name="late").as_dict()
            return _outcome(theta, pts, 1), report, list(calls)
        finally:
            drop_held_points()

    whole = run()
    pts = chart.sample(plan)
    bad = np.flatnonzero(np.frombuffer(whole[0][-1][0], bool))
    # the two points, the lower row in a middle block, the other in the last
    assert len(bad) == 2 and ROWS <= bad[0] < M - M % ROWS <= bad[1]
    assert whole[0][-1][1] == bad[0]
    value = pts[bad[0], 0] - theta.entries[0].arg.right.value
    assert whole[1]["notes"] == [
        f"2 of 200 samples hit domain errors: log of non-positive value (min {value:g})"]
    assert whole[1]["max_residual"] == np.inf and whole[2] == [M]  # one call
    drop_held_points()
    with monkeypatch.context() as mp:
        _shrink(mp, theta, 1)
        assert run() == whole


def test_sphere_cone_at_20k_holds_no_order_1_connection_whole():
    # the cone's flatness gate folds Gamma's order-1 jets one block at a time;
    # holding them whole, as one pass over 20 000 points did, peaked at
    # 34-35 MiB
    scene = load_example("sphere_cone")
    run_suite(scene, SamplePlan(count=50, seed=1))  # plans built outside the trace
    drop_held_points()
    tracemalloc.start()
    try:
        report = run_suite(scene, SamplePlan(count=20_000, seed=11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        drop_held_points()
    assert report.all_ok
    assert peak <= 28 * 2**20


def _blocks_of(rows):
    def block_rows(field, m, n, order, keep=0):
        return rows

    return block_rows


@pytest.mark.parametrize("name", EXAMPLES + ("dense-d3",))
def test_reports_match_with_every_pass_blocked(name, monkeypatch):
    # the whole suite with every pass and fold in blocks of ROWS rows
    def scene():
        if name == "dense-d3":
            return scene_from_dict(conftest.dense_sphere_scene(3))
        return load_example(name)

    plan = SamplePlan(count=M, seed=2)
    try:
        whole = run_suite(scene(), plan).to_json()
        monkeypatch.setattr(gc, "_block_rows", _blocks_of(ROWS))
        assert run_suite(scene(), plan).to_json() == whole
    finally:
        drop_held_points()
