"""The immutable value types (`expr.Value`): equality, hashing, repr and
immutability, and what importing the CLI loads."""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hesslab
from hesslab import expr as ex
from hesslab import scenes
from hesslab.cones import PsiValue
from hesslab.expr import Add, Call, Div, Gauge, Mul, Neg, Num, Pow, Sub, Var
from hesslab.geomcore import (Chart, CheckReport, MetricField, OneFormField, SamplePlan,
                               VectorFieldT, flat_connection)
from hesslab.hesstat import ConeStructure, CurvatureEstimate, StatisticalStructure
from hesslab.lch import LCHStructure, LeeConstants, MappingTorus
from hesslab.scenes import Report, Scene

_CHART = Chart(2, ((0.0, 1.0), (1.0, 2.0)))
_CONN = flat_connection(_CHART)
_METRIC = MetricField(_CHART, [["1", "0"], ["0", "x1"]])
_SOURCE = "a gauge source"
_THETA = OneFormField(_CHART, ["1", "0"])
_CONE_CHART = Chart(3, ((0.0, 1.0), (1.0, 2.0), (0.5, 2.0)), (False, False, True))
_CONE_FIELDS = (_CONE_CHART, flat_connection(_CONE_CHART), MetricField(_CONE_CHART, np.eye(3)),
                VectorFieldT(_CONE_CHART, ["0", "0", "x2"]))
_DECK = VectorFieldT(_CONE_CHART, ["x0", "x1", "2*x2"])
_TORUS_LEE_FORM = OneFormField(_CONE_CHART, ["0", "0", "-2/x2"])


def _check_report():
    return CheckReport("c", 0.5, 0.25, 1.0, True, 10, {"a": 0.5}, ("n",))


def _cone():  # equal cones over equal bases, with equal reports
    return ConeStructure(*_CONE_FIELDS, 1.0, StatisticalStructure(_CHART, _CONN, _METRIC),
                         (_check_report(),))


def _torus():
    chart, conn, metric, _ = _CONE_FIELDS
    return MappingTorus(chart, conn, metric, _TORUS_LEE_FORM, _DECK, _cone(), (_check_report(),))

# (two builders of equal values, the first one's repr or None when a field's
# repr is an object address); the node builders differ by the sign of a zero,
# so the two nodes are distinct objects that compare equal
_CASES = {
    Num: (lambda: Num(0.0), lambda: Num(-0.0), "Num(value=0.0)"),
    Var: (lambda: Var(0), lambda: Var(0), "Var(index=0)"),
    Neg: (lambda: Neg(Num(0.0)), lambda: Neg(Num(-0.0)), "Neg(arg=Num(value=0.0))"),
    Add: (lambda: Add(Var(0), Num(1.0)), lambda: Add(Var(0), Num(1.0)),
          "Add(left=Var(index=0), right=Num(value=1.0))"),
    Sub: (lambda: Sub(Var(0), Num(0.0)), lambda: Sub(Var(0), Num(-0.0)),
          "Sub(left=Var(index=0), right=Num(value=0.0))"),
    Mul: (lambda: Mul(Num(0.0), Var(1)), lambda: Mul(Num(-0.0), Var(1)),
          "Mul(left=Num(value=0.0), right=Var(index=1))"),
    Div: (lambda: Div(Num(0.0), Var(1)), lambda: Div(Num(-0.0), Var(1)),
          "Div(left=Num(value=0.0), right=Var(index=1))"),
    Pow: (lambda: Pow(Var(0), Num(0.0)), lambda: Pow(Var(0), Num(-0.0)),
          "Pow(base=Var(index=0), exponent=Num(value=0.0))"),
    Call: (lambda: Call("exp", Num(0.0)), lambda: Call("exp", Num(-0.0)),
           "Call(func='exp', arg=Num(value=0.0))"),
    Gauge: (lambda: Gauge(_SOURCE), lambda: Gauge(source=_SOURCE), "Gauge(source='a gauge source')"),
    Chart: (lambda: Chart(2, [(0, 1), (1, 2)]), lambda: Chart(2, ((0.0, 1.0), (1.0, 2.0)), ()),
            "Chart(dim=2, box=((0.0, 1.0), (1.0, 2.0)), positive=(False, False))"),
    SamplePlan: (lambda: SamplePlan(60, 7), lambda: SamplePlan(count=60, seed=7, margin=0.05),
                 "SamplePlan(count=60, seed=7, margin=0.05)"),
    CheckReport: (_check_report, _check_report,
                  "CheckReport(name='c', max_residual=0.5, mean_residual=0.25, tolerance=1.0, "
                  "passed=True, samples=10, extra={'a': 0.5}, notes=('n',))"),
    StatisticalStructure: (lambda: StatisticalStructure(_CHART, _CONN, _METRIC),
                           lambda: StatisticalStructure(Chart(2, ((0, 1), (1, 2))), _CONN, _METRIC),
                           None),
    CurvatureEstimate: (lambda: CurvatureEstimate(-1.0, 0.0), lambda: CurvatureEstimate(c=-1, residual=0),
                        "CurvatureEstimate(c=-1.0, residual=0.0)"),
    PsiValue: (lambda: PsiValue(0.25, 0.0, "closed_form"), lambda: PsiValue(0.25, 0.0, "closed_form", 1),
               "PsiValue(value=0.25, stderr=0.0, method='closed_form', samples=1)"),
    LeeConstants: (lambda: LeeConstants(4.0, -2.0, -2.0, 0.0, 0.0, 0.0),
                   lambda: LeeConstants(a=4.0, mu=-2.0, u=-2.0, killing_residual=0.0,
                                        radiant_residual=0.0, affine_residual=0.0),
                   "LeeConstants(a=4.0, mu=-2.0, u=-2.0, killing_residual=0.0, "
                   "radiant_residual=0.0, affine_residual=0.0)"),
    scenes._Key: (lambda: scenes._Key(float, 1.0, "lambda"), lambda: scenes._Key(float)(1.0, "lambda"),
                  "_Key(read=<class 'float'>, default=1.0, name='lambda', pool=None)"),
    ConeStructure: (_cone, _cone, None),
    LCHStructure: (lambda: LCHStructure(_CHART, _CONN, _METRIC, _THETA),
                   lambda: LCHStructure(Chart(2, ((0, 1), (1, 2))), _CONN, _METRIC, _THETA), None),
    MappingTorus: (_torus, _torus, None),
    Scene: (lambda: Scene("s", "", _CHART, {}, {}, {}, []),
            lambda: Scene("s", "", Chart(2, ((0, 1), (1, 2))), {}, {}, {}, [], "<memory>"),
            "Scene(name='s', description='', chart=Chart(dim=2, box=((0.0, 1.0), (1.0, 2.0)), "
            "positive=(False, False)), fields={}, cones={}, structures={}, checks=[], "
            "source='<memory>')"),
    Report: (lambda: Report("s", "0.1.0", 42, 200, 0.05, 1e-6, [{"ok": True}]),
             lambda: Report(scene="s", version="0.1.0", seed=42, count=200, margin=0.05,
                            tolerance=1e-6, checks=[{"ok": True}]),
             "Report(scene='s', version='0.1.0', seed=42, count=200, margin=0.05, "
             "tolerance=1e-06, checks=[{'ok': True}])"),
}

# records with a dict, a list or a tuple of CheckReports among their fields
_UNHASHABLE = (CheckReport, ConeStructure, MappingTorus, Scene, Report)


def _value_types(cls=ex.Value):
    for sub in cls.__subclasses__():
        if sub.__match_args__:
            yield sub
        yield from _value_types(sub)


def test_every_value_type_is_covered():
    assert set(_value_types()) == set(_CASES)
    assert len(_CASES) == 23


@pytest.mark.parametrize("cls", list(_CASES), ids=lambda cls: cls.__name__)
def test_a_value_type_behaves_as_a_frozen_record(cls):
    first, second, text = _CASES[cls]
    a, b = first(), second()
    assert type(a) is type(b) is cls
    assert a == b and not a != b
    assert a != object() and a != tuple(getattr(a, f) for f in cls.__match_args__)
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert copy.copy(a) == a
    for field in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.another_field = 0
    fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in cls.__match_args__)
    assert repr(a) == (text or f"{cls.__qualname__}({fields})")


def test_values_differ_with_a_field():
    assert Num(0.0) != Num(1.0) and Add(Var(0), Var(1)) != Sub(Var(0), Var(1))
    assert SamplePlan(seed=1) != SamplePlan(seed=2)
    assert len({SamplePlan(), SamplePlan(200, 42, 0.05), SamplePlan(count=201)}) == 2


_IMPORT_CLI = """
import sys
import numpy
preloaded = "numpy.random" in sys.modules  # numpy 1.x imports it itself
import hesslab.cli
assert "dataclasses" not in sys.modules, "dataclasses loaded by import"
assert "scipy" not in sys.modules, "scipy loaded by import"
assert ("numpy.random" in sys.modules) == preloaded, "numpy.random loaded by import"
"""


def test_importing_the_cli_builds_no_frozen_dataclass_and_loads_no_sampler():
    # start-up cost of every CLI call: importing dataclasses and decorating
    # classes with it cost milliseconds at import, and numpy.random waits for
    # the first Chart.sample
    src = str(Path(hesslab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CLI], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
