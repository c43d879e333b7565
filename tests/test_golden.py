"""Every report of the acceptance set against its committed golden copy.

The golden files under ``tests/golden/reports`` are written by
``tests/golden/regen.py``. Ids, ops, verdicts, names, notes, sample counts and
``extra`` keys must match exactly, as must every non-finite value (NaN with
NaN, each infinity with itself). A finite float may move by 1e-12 relative or
1e-15 absolute, the last digits a change of summation order can move.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from hesslab.scenes import Report

REGEN = Path(__file__).resolve().parent / "golden" / "regen.py"
REL_TOL = 1e-12
ABS_TOL = 1e-15


def _regen_module():
    spec = importlib.util.spec_from_file_location("golden_regen", REGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _regen_module()
CASES = regen.cases()


def floats_agree(got: float, want: float) -> bool:
    if math.isnan(want) or math.isinf(want) or math.isnan(got) or math.isinf(got):
        return (math.isnan(got) and math.isnan(want)) or got == want
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def differences(got, want, path: str = "") -> list[str]:
    """Where ``got`` departs from ``want``; floats compare by the golden rule,
    everything else (keys, strings, ints, bools, lengths) exactly."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if floats_agree(got, want) else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_the_acceptance_set_is_complete():
    assert len(CASES) == 43
    assert sorted(p.stem for p in regen.REPORTS.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    want = Report.from_json((regen.REPORTS / f"{name}.json").read_text()).to_dict()
    got = Report.from_json(regen.run(CASES[name])).to_dict()
    assert differences(got, want) == []


@pytest.mark.parametrize("got, want, same", [
    (1.0 + 2e-13, 1.0, True),
    (1.0 + 2e-12, 1.0, False),
    (5e-16, 0.0, True),
    (5e-15, 0.0, False),
    (math.nan, math.nan, True),
    (math.inf, math.inf, True),
    (-math.inf, math.inf, False),
    (1e308, math.inf, False),
    (math.nan, 0.0, False),
])
def test_golden_float_rule(got, want, same):
    assert floats_agree(got, want) is same


def test_differences_name_the_path():
    want = {"checks": [{"ok": True, "extra": {"c": 1.0}, "samples": 200}]}
    got = json.loads(json.dumps(want))
    assert differences(got, want) == []
    got["checks"][0]["extra"]["c"] = 1.0 + 1e-9
    got["checks"][0]["samples"] = 199
    assert differences(got, want) == [
        ".checks[0].extra.c: 1.000000001 != 1.0",
        ".checks[0].samples: 199 != 200",
    ]
