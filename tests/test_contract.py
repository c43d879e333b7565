"""`geomcore.contract`, the one contraction path of the residual algebra.

Every spec string the package passes to `contract` is checked against
np.einsum on random shapes, with and without non-finite entries.
"""

from __future__ import annotations

import ast
import pathlib

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


def _sums_nothing(spec: str) -> bool:
    lhs, out = spec.split("->")
    return set(lhs) - {","} == set(out)


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
        bound = 1e-12 * np.einsum(spec, *[np.abs(op) for op in ops])
    got = contract(spec, *ops)
    assert got.shape == want.shape
    if _sums_nothing(spec):
        assert np.array_equal(got, want, equal_nan=True)
        return
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    # two operands: NaN and each sign of inf land where einsum's do. With
    # three, einsum adds the products of all three while contract sums a
    # pair first: (sum_d a_d b_d) * inf is one signed inf where
    # sum_d (a_d b_d inf) may hold both signs and read NaN, so only the
    # non-finite entries are pinned
    if len(subs) == 2:
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert np.all(np.abs(got[finite] - want[finite]) <= bound[finite])


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


@pytest.mark.parametrize("module", ["geomcore.py", "hesstat.py", "lch.py"])
def test_residual_algebra_has_one_contraction_path(module):
    assert "np.einsum" not in (SRC / module).read_text()
