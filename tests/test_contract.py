"""The tensor contractions of the residual algebra, as `np.einsum` calls.

`geomcore`, `hesstat` and `lch` contract by calling ``np.einsum(spec, *ops)``
directly. Every such call is found in the source: each must spell out a plain
contraction (explicit output, every summed index shared by two operands) and
run without ``optimize``, and each spec keeps the sample axis at unit stride.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hesslab"
RESIDUAL_MODULES = ("geomcore.py", "hesstat.py", "lch.py")


def _is_np_einsum(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "einsum"
            and isinstance(node.value, ast.Name) and node.value.id == "np")


def _einsum_calls(module: str) -> tuple[list[ast.Call], int]:
    """Every ``np.einsum(...)`` call in ``module``, and the number of
    ``np.einsum`` references there (a reference that is not called would
    hide a contraction from this search)."""
    nodes = list(ast.walk(ast.parse((SRC / module).read_text())))
    calls = [n for n in nodes if isinstance(n, ast.Call) and _is_np_einsum(n.func)]
    return calls, sum(_is_np_einsum(n) for n in nodes)


SPECS = sorted({call.args[0].value for module in RESIDUAL_MODULES
                for call in _einsum_calls(module)[0]})


def test_every_call_site_is_found():
    assert "alu,auk->alk" in SPECS  # the curvature kernel
    assert "acde,adu,aev->acuv" in SPECS  # three operands
    # the AST search finds every call the source spells out
    for module in RESIDUAL_MODULES:
        calls, _ = _einsum_calls(module)
        assert len(calls) == (SRC / module).read_text().count("np.einsum("), module


@pytest.mark.parametrize("spec", SPECS)
def test_contract_keeps_the_sample_axis_at_unit_stride(spec):
    # every spec names the sample axis "a"; operands stored sample axis last
    m, n = 50, 3
    lhs, out = spec.split("->")
    rng = np.random.default_rng(0)
    ops = [np.moveaxis(rng.standard_normal((n,) * (len(sub) - 1) + (m,)), -1, sub.index("a"))
           for sub in lhs.split(",")]
    got = np.einsum(spec, *ops)
    assert got.strides[out.index("a")] == got.itemsize


def _summed(spec: str) -> set[str]:
    lhs, out = spec.split("->")
    return set(lhs) - set(out) - {","}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_residual_algebra_has_one_contraction_path(module):
    calls, refs = _einsum_calls(module)
    assert refs == len(calls)
    if module not in RESIDUAL_MODULES + ("jets.py",):
        assert not calls
    for call in calls:
        # no keyword: without optimize, einsum forms no intermediate product
        assert not call.keywords
        spec = call.args[0]
        assert isinstance(spec, ast.Constant) and isinstance(spec.value, str)
        lhs, arrow, out = spec.value.partition("->")
        subs = lhs.split(",")
        assert arrow and len(subs) == len(call.args) - 1 >= 2, spec.value
        # no trace, no implicit output, no sum within one operand
        assert all(s.isalpha() and len(set(s)) == len(s) for s in subs + [out]), spec.value
        assert set(out) <= set(lhs), spec.value
        assert all(sum(c in s for s in subs) >= 2 for c in _summed(spec.value)), spec.value
        if module == "jets.py":  # the jets' products of derivatives are outer products
            assert {s[0] for s in subs} == {out[0]}, spec.value
            assert out == out[0] + "".join(s[1:] for s in subs), spec.value


def _unit_stride(arr) -> bool:
    arr = np.asarray(arr)
    return arr.shape[0] == 1 or arr.strides[0] == arr.itemsize


def test_max_abs_reads_every_input_sample_axis_first(monkeypatch):
    # max_abs reduces along rows of m; on a C-ordered input it would loop
    # per sample over a short axis. Every bundled scene at 2 000 samples
    # hands it arrays with the sample axis at unit stride.
    import hesslab
    from hesslab import geomcore
    from hesslab.scenes import EXAMPLES, run_example

    real = geomcore.max_abs
    shapes, strided = [], []

    def max_abs(arr):
        (shapes if _unit_stride(arr) else strided).append(np.shape(arr))
        return real(arr)

    for module in vars(hesslab).values():
        if getattr(module, "max_abs", None) is real:
            monkeypatch.setattr(module, "max_abs", max_abs)
    for name in EXAMPLES:
        run_example(name, geomcore.SamplePlan(count=2_000, seed=42))
    assert not strided
    # no input holds the whole curvature (5 axes); nabla g has 4
    assert len(shapes) > 100 and any(len(s) == 4 for s in shapes)
    assert not any(len(s) == 5 for s in shapes)


def test_the_samples_left_open_reach_the_eigenvalues_sample_first(monkeypatch):
    from hesslab import geomcore

    received = []
    real = geomcore.eigenvalue_definiteness

    def eigenvalue_definiteness(mats):
        received.append(mats)
        return real(mats)

    monkeypatch.setattr(geomcore, "eigenvalue_definiteness", eigenvalue_definiteness)
    m = 2_000
    mats = np.moveaxis(np.tile(np.eye(2)[:, :, None], m), -1, 0)  # sample-first
    mats[::3, 1, 1] = -1.0  # every third sample indefinite
    gap, rest, smallest = geomcore.definiteness(mats)
    (open_mats,) = received
    assert rest.tolist() == list(range(0, m, 3))
    assert _unit_stride(open_mats) and open_mats.shape == (rest.size, 2, 2)
    assert (smallest == -1.0).all() and (gap[rest] >= 1.0).all()
