"""`geomcore.contract`, the one contraction path of the residual algebra.

Every spec string the package passes to `contract` is checked against
np.einsum on random shapes, with and without non-finite entries, and for the
memory order of its result.
"""

from __future__ import annotations

import ast
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesslab.geomcore import contract

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hesslab"


def _specs_in_source() -> list[str]:
    specs = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "contract" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                specs.add(node.args[0].value)
    return sorted(specs)


SPECS = _specs_in_source()


def test_every_call_site_is_found():
    assert "aiu,aujk->aijk" in SPECS  # the curvature kernel
    assert "acde,adu,aev->acuv" in SPECS  # three operands
    assert len(SPECS) >= 20


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, 0.0])


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([1, 7, 200]),
       lengths=st.lists(st.integers(1, 4), min_size=26, max_size=26),
       seed=st.integers(0, 2**32 - 1),
       spoil=st.lists(NON_FINITE, max_size=4))
def test_contract_matches_einsum(spec, m, lengths, seed, spoil):
    size = dict(zip("abcdefghijklmnopqrstuvwxyz", lengths))
    size["a"] = m
    rng = np.random.default_rng(seed)
    subs = spec.split("->")[0].split(",")
    ops = [rng.standard_normal([size[c] for c in sub]) for sub in subs]
    for value in spoil:  # NaN, +-inf and exact zeros at random entries
        flat = ops[rng.integers(len(ops))].reshape(-1)
        flat[rng.integers(flat.size)] = value
    with np.errstate(all="ignore"):
        want = np.einsum(spec, *ops)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # NaN and inf pass silently
        got = contract(spec, *ops)
    # one einsum call: the same sums in the same order, NaN and inf included
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("spec", SPECS)
def test_contract_keeps_the_sample_axis_at_unit_stride(spec):
    # every spec names the sample axis "a"; operands stored sample axis last
    m, n = 50, 3
    lhs, out = spec.split("->")
    rng = np.random.default_rng(0)
    ops = [np.moveaxis(rng.standard_normal((n,) * (len(sub) - 1) + (m,)), -1, sub.index("a"))
           for sub in lhs.split(",")]
    got = contract(spec, *ops)
    assert got.strides[out.index("a")] == got.itemsize


@pytest.mark.parametrize("spec,shapes", [
    ("aii,ai->a", [(4, 3, 3), (4, 3)]),  # a letter repeated within one operand
    ("ai,ai", [(4, 3), (4, 3)]),  # no explicit output
    ("ab,ac->a", [(4, 3), (4, 2)]),  # a sum within one operand
    ("ai,aj->aik", [(4, 3), (4, 3)]),  # an output letter no operand has
    ("ai,ai->a", [(4, 3), (4, 2)]),  # one letter, two lengths
    ("aij,ai->aj", [(4, 3), (4, 3)]),  # a subscript of the wrong length
    ("ai->ai", [(4, 3)]),  # a single operand
])
def test_contract_rejects_what_it_cannot_lower(spec, shapes):
    with pytest.raises(ValueError, match="cannot lower"):
        contract(spec, *[np.ones(s) for s in shapes])


def _einsum_sites(tree, where="") -> list[str]:
    """The enclosing function of every ``np.einsum`` reference."""
    if (isinstance(tree, ast.Attribute) and tree.attr == "einsum"
            and isinstance(tree.value, ast.Name) and tree.value.id == "np"):
        return [where]
    if isinstance(tree, ast.FunctionDef):
        where = tree.name
    return [site for child in ast.iter_child_nodes(tree)
            for site in _einsum_sites(child, where)]


@pytest.mark.parametrize("module", ["geomcore.py", "hesstat.py", "lch.py"])
def test_residual_algebra_has_one_contraction_path(module):
    sites = _einsum_sites(ast.parse((SRC / module).read_text()))
    assert sites == (["contract"] if module == "geomcore.py" else [])
