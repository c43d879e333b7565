"""The benchmark's tracer (``bench/tracing.py``) wraps hesslab from outside.

It times each ``sample_check`` residual function as its module's check work,
so a refactor of the gates must keep what the tracer wraps working.
"""

import importlib.util
from pathlib import Path

from hesslab.geomcore import SamplePlan
from hesslab.scenes import run_example

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_times_the_checks_and_keeps_report_bytes():
    plan = SamplePlan(count=50, seed=42)
    untraced = run_example("hopf", plan).to_json()
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        traced = run_example("hopf", plan).to_json()
    finally:
        tracer.uninstall()
    assert tracer.counts["geomcore.sample_check.calls"] > 0
    times = tracer.self_times()
    assert times.get("hesstat.checks", 0.0) > 0.0
    assert times.get("lch.checks", 0.0) > 0.0
    assert traced == untraced
