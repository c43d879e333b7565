"""Scene loading, suite execution, report serialization, and the CLI."""

import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import hesslab
from hesslab import expr as ex
from hesslab.cli import main
from hesslab.cones import (
    LATTICE_SHIFTS,
    LorentzCone,
    OrthantCone,
    characteristic_function,
)
from hesslab.geomcore import SamplePlan
from hesslab.scenes import (
    EXAMPLES,
    PSI_FALSE_ALARM_RATE,
    PSI_Z,
    Report,
    SceneError,
    list_examples,
    load_example,
    load_scene,
    run_example,
    run_suite,
    scene_from_dict,
)

PLAN = SamplePlan(count=50, seed=11)


def unit_scene(**over):
    """Minimal valid scene: the radiant structure on the punctured plane."""
    base = {
        "name": "unit",
        "chart": {"dim": 2, "box": [[0.4, 2.1], [0.3, 1.9]]},
        "fields": {
            "nabla": {"type": "connection", "flat": True},
            "g": {
                "type": "metric",
                "entries": [
                    ["1/(x0^2 + x1^2)", "0"],
                    ["0", "1/(x0^2 + x1^2)"],
                ],
            },
            "theta": {
                "type": "oneform",
                "components": ["-2*x0/(x0^2 + x1^2)", "-2*x1/(x0^2 + x1^2)"],
            },
        },
        "structures": {
            "S": {"type": "lch", "conn": "nabla", "metric": "g", "lee_form": "theta"}
        },
        "checks": [{"op": "lch", "structure": "S"}],
    }
    base.update(over)
    return base


def write_scene(tmp_path, data, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  oops\n}\n')
    with pytest.raises(SceneError, match=r"line 3, column 3"):
        load_scene(path)


def test_missing_file_is_a_scene_error(tmp_path):
    with pytest.raises(SceneError, match="cannot read"):
        load_scene(tmp_path / "nope.json")


def test_undeclared_field_reference_is_named():
    data = unit_scene()
    data["structures"]["S"]["metric"] = "h"
    with pytest.raises(SceneError, match="undeclared field 'h'"):
        scene_from_dict(data)


def test_undeclared_structure_in_check():
    data = unit_scene(checks=[{"op": "lch", "structure": "X"}])
    with pytest.raises(SceneError, match="undeclared structure 'X'"):
        scene_from_dict(data)


def test_unknown_op_lists_known_ones():
    data = unit_scene(checks=[{"op": "frobnicate"}])
    with pytest.raises(SceneError, match="unknown op 'frobnicate'"):
        scene_from_dict(data)
    data = unit_scene(checks=[{"op": ["lch"], "structure": "S"}])
    with pytest.raises(SceneError, match=r"unknown op '\['lch'\]'"):
        scene_from_dict(data)


def test_check_missing_reference_key():
    data = unit_scene(checks=[{"op": "lch"}])
    with pytest.raises(SceneError, match="needs 'structure'"):
        scene_from_dict(data)


def test_metric_dimension_mismatch():
    data = unit_scene()
    data["fields"]["g"]["entries"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(SceneError, match="dimension mismatch"):
        scene_from_dict(data)


def test_expression_error_is_not_a_dimension_mismatch():
    data = unit_scene()
    data["fields"]["g"]["entries"] = [["shape*x0", "0"], ["0", "1"]]
    with pytest.raises(SceneError) as err:
        scene_from_dict(data)
    assert str(err.value) == "field 'g': unknown identifier 'shape' (at position 0)"


def test_bad_expression_names_the_field():
    data = unit_scene()
    data["fields"]["theta"]["components"] = ["-2*x0/(x0^2 + y1)", "0"]
    with pytest.raises(SceneError, match="'theta'"):
        scene_from_dict(data)


def test_chart_is_required():
    data = unit_scene()
    del data["chart"]
    with pytest.raises(SceneError, match="'dim' and 'box'"):
        scene_from_dict(data)


def test_unknown_field_and_structure_types():
    data = unit_scene()
    data["fields"]["g"]["type"] = "spinor"
    with pytest.raises(SceneError, match="unknown type 'spinor'"):
        scene_from_dict(data)
    data = unit_scene()
    data["structures"]["S"]["type"] = "warped"
    with pytest.raises(SceneError, match="unknown type 'warped'"):
        scene_from_dict(data)
    data["structures"]["S"]["type"] = ["lch"]
    with pytest.raises(SceneError, match=r"unknown type '\['lch'\]'"):
        scene_from_dict(data)


def test_bad_cone_spec_names_the_cone():
    data = unit_scene(cones={"V": "frobnicate(2)"})
    with pytest.raises(SceneError, match="cone 'V'"):
        scene_from_dict(data)


@pytest.mark.parametrize("spec", [{"kind": "orthant"}, {"kind": "orthant", "dim": 2.5}])
def test_cone_spec_without_integer_dim_is_a_scene_error(spec):
    with pytest.raises(SceneError, match="cone 'V'"):
        scene_from_dict(unit_scene(cones={"V": spec}))


def test_levi_civita_reference_must_be_a_metric():
    data = unit_scene()
    data["fields"]["D"] = {"type": "connection", "levi_civita_of": "missing"}
    with pytest.raises(SceneError, match="undeclared metric 'missing'"):
        scene_from_dict(data)


def test_structure_base_must_be_declared_before_use():
    data = unit_scene()
    data["structures"] = {
        "C": {"type": "cone", "base": "B", "lambda": 1.0},
        "B": {"type": "statistical", "conn": "nabla", "metric": "g"},
    }
    data["checks"] = []
    with pytest.raises(SceneError, match="undeclared structure 'B'"):
        scene_from_dict(data)


# ---------------------------------------------------------------------------
# suite execution
# ---------------------------------------------------------------------------

def test_run_suite_minimal_scene_passes():
    rep = run_suite(scene_from_dict(unit_scene()), PLAN)
    assert rep.all_ok and rep.checks[0]["ok"]
    assert rep.seed == 11 and rep.count == 50


def test_expect_fail_flips_the_sense():
    checks = [
        {"op": "hessian", "conn": "nabla", "metric": "g",
         "tolerance": 0.01, "expect_fail": True},
    ]
    rep = run_suite(scene_from_dict(unit_scene(checks=checks)), PLAN)
    assert rep.all_ok

    checks[0]["expect_fail"] = False
    rep = run_suite(scene_from_dict(unit_scene(checks=checks)), PLAN)
    assert not rep.all_ok


def test_expectation_bounds_gate_the_check():
    good = [{"op": "lee_identity", "structure": "S",
             "expect": {"a": [3.9, 4.1], "mu": [-2.1, -1.9]}}]
    rep = run_suite(scene_from_dict(unit_scene(checks=good)), PLAN)
    assert rep.all_ok

    off = [{"op": "lee_identity", "structure": "S", "expect": {"a": [5.0, 6.0]}}]
    rep = run_suite(scene_from_dict(unit_scene(checks=off)), PLAN)
    assert not rep.all_ok
    assert "outside" in rep.checks[0]["expectation_notes"][0]

    missing = [{"op": "lee_identity", "structure": "S",
                "expect": {"zzz": [0.0, 1.0]}}]
    rep = run_suite(scene_from_dict(unit_scene(checks=missing)), PLAN)
    assert not rep.all_ok
    assert "no report carries it" in rep.checks[0]["expectation_notes"][0]


def test_expectation_bounds_accept_expression_strings():
    checks = [{"op": "lee_identity", "structure": "S",
               "expect": {"a": ["4 - 1/1000", "4 + 1/1000"]}}]
    rep = run_suite(scene_from_dict(unit_scene(checks=checks)), PLAN)
    assert rep.all_ok


def test_corrupted_scene_yields_failed_report():
    data = unit_scene()
    data["fields"]["g"]["entries"][1][1] = "0 - 1/(x0^2 + x1^2)"
    rep = run_suite(scene_from_dict(data), PLAN)
    assert not rep.all_ok
    extra = rep.checks[0]["reports"][0]["extra"]
    assert extra["definiteness"] > 0.1


def test_failed_construction_becomes_failed_report():
    data = unit_scene()
    data["fields"]["gm"] = {
        "type": "metric",
        "entries": [["1/x0^2", "0"], ["0", "1/x0^2"]],
    }
    data["fields"]["D"] = {"type": "connection", "levi_civita_of": "gm"}
    data["structures"] = {
        "B": {"type": "statistical", "conn": "D", "metric": "gm"},
        "T": {"type": "mapping_torus", "base": "B",
              "automorphism": ["2*x0", "x1"], "scale": 2.0, "lambda": 1.5},
    }
    data["checks"] = [{"op": "reports", "structure": "T"},
                      {"op": "lch", "structure": "T"}]
    rep = run_suite(scene_from_dict(data), PLAN)
    assert not rep.all_ok
    note = rep.checks[0]["reports"][0]["notes"][0]
    assert "failed to build" in note and "preserve" in note
    assert not rep.checks[1]["ok"]


def test_check_errors_are_reported_not_raised():
    # the probe rejects a perturbation that is not closed
    data = unit_scene()
    data["fields"]["alpha"] = {"type": "oneform", "components": ["x1", "0"]}
    data["checks"] = [{"op": "perturbation", "structure": "S", "alpha": "alpha"}]
    rep = run_suite(scene_from_dict(data), PLAN)
    assert not rep.all_ok
    assert "closed" in rep.checks[0]["reports"][0]["notes"][0]


def test_crash_never_satisfies_expect_fail(monkeypatch):
    from hesslab import scenes

    def boom(ctx, tol, **values):
        raise RuntimeError("koszul op crashed")

    monkeypatch.setitem(scenes._OPS, "koszul", (boom, *scenes._OPS["koszul"][1:]))
    rep = run_example("hopf", PLAN)
    assert not rep.all_ok
    crashed = [c for c in rep.checks if c["op"] == "koszul"]
    assert crashed and all(c["expect_fail"] and not c["ok"] for c in crashed)
    assert crashed[0]["reports"][0]["name"] == "koszul-error"


def test_an_interrupted_suite_releases_the_held_points(monkeypatch):
    # KeyboardInterrupt is no Exception: it leaves run_suite, which must
    # still drop the point set and the tensors its earlier checks held
    from hesslab import geomcore, scenes

    held = []

    def interrupt(ctx, tol, **values):
        held.append(geomcore._held.pts is not None)
        raise KeyboardInterrupt

    monkeypatch.setitem(scenes._OPS, "koszul", (interrupt, *scenes._OPS["koszul"][1:]))
    with pytest.raises(KeyboardInterrupt):
        run_example("hopf", PLAN)
    assert held == [True] and geomcore._held.pts is None



def test_the_lee_probe_at_20k_leaves_only_declared_fields_held(monkeypatch):
    # the openness probe builds a candidate structure per eps it tries; its
    # tensors die with it, as do the Lee field's and every other built
    # field's, so when run_suite drops the point set only fields the scene
    # declares hold tensors (21 tensors, 23.7 MB, when the store kept every
    # field evaluated on it alive; the peak was 63.6-64.3 MiB then)
    from hesslab import geomcore, scenes

    made = []
    real_init = geomcore._Field.__init__

    def init(self, *args):
        real_init(self, *args)
        made.append(weakref.ref(self))

    held = []
    real_drop = scenes.drop_held_points

    def drop():
        point_set = geomcore._held
        for field in filter(None, (ref() for ref in made)):
            if point_set.get((field,), point_set.pts) is not None:
                held.append(field)
        real_drop()

    monkeypatch.setattr(geomcore._Field, "__init__", init)
    monkeypatch.setattr(scenes, "drop_held_points", drop)
    scene = load_example("lee_perturbation_torus")
    tracemalloc.start()
    try:
        report = run_suite(scene, SamplePlan(count=20_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_ok
    declared = [id(f) for f in scene.fields.values()]
    assert held and all(id(f) in declared for f in held)
    assert peak <= 52 * 2**20


def test_unbuilt_structure_never_satisfies_expect_fail():
    data = unit_scene()
    data["fields"]["gm"] = {
        "type": "metric",
        "entries": [["1/x0^2", "0"], ["0", "1/x0^2"]],
    }
    data["fields"]["D"] = {"type": "connection", "levi_civita_of": "gm"}
    data["structures"] = {
        "B": {"type": "statistical", "conn": "D", "metric": "gm"},
        "T": {"type": "mapping_torus", "base": "B",
              "automorphism": ["2*x0", "x1"], "scale": 2.0, "lambda": 1.5},
    }
    data["checks"] = [{"op": "lch", "structure": "T", "expect_fail": True}]
    rep = run_suite(scene_from_dict(data), PLAN)
    assert rep.checks[0]["reports"][0]["name"] == "lch-unavailable"
    assert not rep.all_ok


def _torus_over_halfplane(checks, automorphism=("2*x0", "x1"), **structures):
    """unit_scene plus a mapping torus 'T' over the half-plane base 'B', by
    default with an automorphism that breaks it, and ``structures``."""
    data = unit_scene(checks=checks)
    data["fields"]["gm"] = {
        "type": "metric",
        "entries": [["1/x0^2", "0"], ["0", "1/x0^2"]],
    }
    data["fields"]["D"] = {"type": "connection", "levi_civita_of": "gm"}
    data["structures"] = {
        "B": {"type": "statistical", "conn": "D", "metric": "gm"},
        "T": {"type": "mapping_torus", "base": "B",
              "automorphism": list(automorphism), "scale": 2.0, "lambda": "1 + sqrt(2)"},
        **structures,
    }
    return data


_UNBUILT_T = ("structure 'T' failed to build: MappingTorusError: automorphism does "
              "not preserve the base structure (metric residual 0.589, "
              "connection residual 0.493)")
_BASE_T_FAILED = "structure 'C' failed to build: its base " + _UNBUILT_T


@pytest.mark.parametrize("data, expected", [
    pytest.param(
        unit_scene(checks=[{"op": "hessian", "conn": "g", "metric": "g"}]),
        "check 0 ('hessian'): field 'g' is a MetricField, expected ConnectionField",
        id="check-field-of-wrong-kind"),
    pytest.param(
        unit_scene(checks=[{"op": "statistical", "structure": "S"}]),
        "check 0 ('statistical'): structure 'S' is a LCHStructure, "
        "expected StatisticalStructure",
        id="check-structure-of-wrong-kind"),
    pytest.param(
        _torus_over_halfplane([{"op": "reports", "structure": "T"}]),
        [("reports-unavailable", _UNBUILT_T)],
        id="reports-of-unbuilt-torus"),
    pytest.param(
        _torus_over_halfplane([{"op": "reports", "structure": "B"}]),
        "check 0 ('reports'): structure 'B' is a StatisticalStructure, "
        "expected ConeStructure or MappingTorus",
        id="reports-of-a-structure-that-carries-none"),
    pytest.param(
        unit_scene(checks=[{"op": "monodromy", "structure": "S", "expect_rank": 1}]),
        "check 0 ('monodromy'): structure 'S' is a LCHStructure, expected MappingTorus",
        id="monodromy-of-a-structure-without-a-deck-map"),
    pytest.param(
        unit_scene(
            structures={"B": {"type": "statistical", "conn": "g", "metric": "g"},
                        "C": {"type": "cone", "base": "B", "lambda": 2.5}},
            checks=[{"op": "statistical", "structure": "B"}]),
        "structure 'B': field 'g' is a MetricField, expected ConnectionField",
        id="cone-over-unbuilt-base"),
    pytest.param(
        _torus_over_halfplane([{"op": "lch", "structure": "T"},
                               {"op": "reports", "structure": "C"},
                               {"op": "cone_restriction", "structure": "C"}],
                              C={"type": "cone", "base": "T", "lambda": 2.5}),
        [("lch-unavailable", _UNBUILT_T),
         ("reports-unavailable", _BASE_T_FAILED),
         ("cone_restriction-unavailable", _BASE_T_FAILED)],
        id="cone-over-unbuilt-torus"),
    pytest.param(
        unit_scene(structures={
            "C": {"type": "cone", "base": "B", "lambda": 2.5},
            "B": {"type": "statistical", "conn": "nabla", "metric": "g"},
        }),
        "structure 'C' references undeclared structure 'B'",
        id="base-declared-later"),
    pytest.param(
        unit_scene(structures={
            "B": {"type": "statistical", "conn": "nabla", "metric": "g"},
            "C": {"type": "cone", "base": "B"},
        }),
        "structure 'C' needs 'lambda'",
        id="cone-without-lambda"),
    pytest.param(
        unit_scene(structures={"L": {"type": "cone_lch", "cone": "V"}}),
        "structure 'L' references undeclared cone 'V'",
        id="cone-lch-of-undeclared-cone"),
    pytest.param(unit_scene(fields=[]), "'fields' must be an object, not []",
                 id="fields-list"),
    pytest.param(unit_scene(cones=[1]), "'cones' must be an object, not [1]",
                 id="cones-list"),
    pytest.param(unit_scene(structures=[1]), "'structures' must be an object, not [1]",
                 id="structures-list"),
    pytest.param(unit_scene(checks={"op": "lch"}),
                 "'checks' must be a list, not {\"op\": \"lch\"}", id="checks-object"),
    pytest.param(
        unit_scene(checks=[{"op": "hessian", "conn": ["g"], "metric": "g"}]),
        "check 0 ('hessian'): 'conn' is [\"g\"], not a name",
        id="reference-list"),
    pytest.param(
        unit_scene(fields={"D": {"type": "connection", "levi_civita_of": ["g"]}}),
        "field 'D': 'levi_civita_of' is [\"g\"], not a name",
        id="levi-civita-reference-list"),
])
def test_scene_error_paths(data, expected):
    """The SceneError message, or each check's (report name, note)."""
    try:
        rep = run_suite(scene_from_dict(data), PLAN)
    except SceneError as err:
        assert str(err) == expected
        return
    got = [(c["reports"][0]["name"], *c["reports"][0]["notes"]) for c in rep.checks]
    assert got == expected
    assert not any(c["ok"] for c in rep.checks)


def test_euclidean_position_field_is_self_similar():
    data = unit_scene(
        fields={"e": {"type": "metric", "entries": [["1", "0"], ["0", "1"]]},
                "xi": {"type": "vector", "components": ["x0", "x1"]}},
        structures={},
        checks=[{"op": "self_similar", "metric": "e", "field": "xi"}],
    )
    rep = run_suite(scene_from_dict(data), PLAN)
    assert rep.all_ok
    assert rep.checks[0]["reports"][0]["name"] == "self-similar"


def test_tolerance_override_applies_everywhere():
    rep = run_suite(scene_from_dict(unit_scene()), PLAN, tolerance=1e-30)
    assert not rep.all_ok


def test_mc_budget_flows_into_psi_checks():
    data = unit_scene(
        cones={"V": "orthant(2)"},
        checks=[{"op": "psi", "cone": "V", "point": [2.0, 3.0],
                 "method": "monte_carlo", "expect_value": "1/6"}],
    )
    rep = run_suite(scene_from_dict(data), PLAN, mc_samples=20031)
    report = rep.checks[0]["reports"][0]
    # 32 shifts of 625 lattice points: the budget's last 31 buy no shift
    assert report["samples"] == 20000
    assert rep.all_ok


def test_psi_z_is_the_quantile_of_its_false_alarm_rate():
    # the stderr is the spread of LATTICE_SHIFTS shift means: Student's t
    from scipy.stats import t

    dof = LATTICE_SHIFTS - 1
    assert t(dof).isf(PSI_FALSE_ALARM_RATE / 2) == pytest.approx(PSI_Z, abs=5e-5)


@pytest.mark.parametrize("seed", [26, 602])
def test_monte_carlo_psi_band_has_no_false_alarm(seed):
    # correct input that a 3-stderr band failed (|t| = 3.44 and 3.70)
    rep = run_example("lorentz_cone", SamplePlan(seed=seed))
    assert rep.all_ok
    check = next(c for c in rep.checks if c["id"] == "psi-monte-carlo")
    (report,) = check["reports"]
    assert report["tolerance"] == pytest.approx(PSI_Z * report["extra"]["stderr"])
    assert 3.0 < report["extra"]["z_score"] < PSI_Z


def test_monte_carlo_psi_t_statistic_follows_student_t():
    # 2000 seeded estimates of orthant(2) and lorentz(2) psi at a budget of
    # 32 x 64 points: none reaches the band, and the count with |t| past
    # t_31's 99.5 % quantile (2.7440) lies in [7, 37], outside which
    # Binomial(2000, 0.01) falls with probability 4.4e-4
    cases = [(OrthantCone(2), (2.0, 3.0), 1.0 / 6.0), (LorentzCone(2), (1.5, 0.5), 1.0)]
    t = [abs(psi.value - exact) / psi.stderr
         for cone, x, exact in cases
         for psi in (characteristic_function(cone, x, "monte_carlo", samples=2048, seed=seed)
                     for seed in range(1000))]
    assert max(t) < PSI_Z
    assert 7 <= sum(v > 2.7440 for v in t) <= 37


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_psi_that_is_not_finite_fails_its_check():
    # psi = 1/(x0 x1) overflows this close to the orthant's corner; with no
    # expected value to miss, the check still fails, and says why
    check = {"op": "psi", "cone": "K", "point": [1e-200, 1e-200]}
    rep = run_suite(scene_from_dict(unit_scene(cones={"K": "orthant(2)"}, checks=[check])),
                    PLAN)
    (report,) = rep.checks[0]["reports"]
    assert not rep.all_ok and not report["passed"]
    assert report["max_residual"] == math.inf
    assert report["notes"][-1] == "psi is not finite at this point (value inf, stderr 0.0)"
    assert json.loads(rep.to_json())["checks"][0]["reports"][0]["max_residual"] == "Infinity"


def test_monte_carlo_psi_ten_stderr_off_fails():
    check = {"op": "psi", "cone": "V", "point": [2.0, 3.0], "method": "monte_carlo"}
    data = unit_scene(cones={"V": "orthant(2)"}, checks=[check])
    first = run_suite(scene_from_dict(data), PLAN, mc_samples=20000)
    extra = first.checks[0]["reports"][0]["extra"]
    check["expect_value"] = extra["value"] + 10.0 * extra["stderr"]
    rep = run_suite(scene_from_dict(data), PLAN, mc_samples=20000)
    (report,) = rep.checks[0]["reports"]
    assert not rep.all_ok and not report["passed"]
    assert report["extra"]["z_score"] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_round_trips_losslessly():
    rep = run_example("poincare", PLAN)
    text = rep.to_json()
    again = Report.from_json(text)
    assert again.to_json() == text
    assert Report.from_dict(json.loads(text)).to_dict() == rep.to_dict()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_report_is_strict_json_and_round_trips(monkeypatch):
    from hesslab import scenes

    def boom(ctx, tol, **values):
        raise RuntimeError("koszul op crashed")

    monkeypatch.setitem(scenes._OPS, "koszul", (boom, *scenes._OPS["koszul"][1:]))
    rep = run_example("hopf", PLAN)
    crashed = next(c for c in rep.checks if c["op"] == "koszul")["reports"][0]
    assert crashed["max_residual"] == float("inf")
    first = rep.checks[0]["reports"][0]
    first["mean_residual"] = float("nan")
    first["extra"] = {"a": float("-inf"), "b": float("nan"), "c": 0.5}
    text = rep.to_json()
    data = json.loads(text, parse_constant=_reject_constant)
    assert data["checks"][0]["reports"][0]["extra"] == {
        "a": "-Infinity", "b": "NaN", "c": 0.5,
    }
    again = Report.from_json(text)
    assert again.to_json() == text
    back = again.checks[0]["reports"][0]
    assert back["mean_residual"] != back["mean_residual"]
    assert back["extra"]["a"] == float("-inf") and back["extra"]["c"] == 0.5
    decoded = next(c for c in again.checks if c["op"] == "koszul")["reports"][0]
    assert decoded["max_residual"] == float("inf")


def test_infinite_tolerance_override_is_strict_json():
    rep = run_suite(scene_from_dict(unit_scene()), PLAN, tolerance=float("inf"))
    text = rep.to_json()
    assert json.loads(text, parse_constant=_reject_constant)["tolerance"] == "Infinity"
    assert Report.from_json(text).tolerance == float("inf")
    assert Report.from_json(text).to_json() == text


def _report_with_every_special_value():
    """A report carrying NaN, +-inf, expectation notes and a non-ASCII note."""
    data = unit_scene(checks=[{"op": "hessian", "conn": "nabla", "metric": "g",
                               "expect": {"missing": [0, 1]}}])
    rep = run_suite(scene_from_dict(data), PLAN, tolerance=float("inf"))
    report = rep.checks[0]["reports"][0]
    report["mean_residual"] = float("nan")
    report["extra"] = {"a": float("-inf"), "b": float("inf"), "c": float("nan"), "d": 0.5}
    report["notes"].append("résidu ≤ 1e-6 — ∇g")
    assert rep.checks[0]["expectation_notes"]
    return rep


def test_to_json_is_strict_json_of_to_dict():
    from hesslab.scenes import strict_json

    rep = _report_with_every_special_value()
    text = rep.to_json()
    assert text == strict_json(rep.to_dict())
    assert "\\u2264" in text and "Infinity" in text and "NaN" in text
    assert Report.from_json(text).to_json() == text


def test_mutating_to_dict_leaves_the_report_unchanged():
    rep = _report_with_every_special_value()
    text = rep.to_json()
    out = rep.to_dict()
    out["checks"][0]["reports"][0]["extra"]["d"] = 7.0
    out["checks"][0]["reports"][0]["notes"].clear()
    out["checks"][0]["expectation_notes"].append("added")
    out["checks"].append({"ok": False})
    out["scene"] = "other"
    assert rep.to_json() == text and rep.all_ok == json.loads(text)["all_ok"]


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("nan"), "abc", [1e-6]])
def test_tolerance_override_is_a_positive_constant(tolerance):
    # read as a scene's tolerance is: an expect_fail check must not pass
    # because every residual exceeds a negative tolerance
    with pytest.raises(SceneError, match="run_suite: 'tolerance'"):
        run_example("hopf", SamplePlan(count=20), tolerance=tolerance)


def test_tolerance_override_accepts_a_constant_expression():
    rep = run_suite(scene_from_dict(unit_scene()), PLAN, tolerance="1e-3 / 10")
    assert rep.tolerance == 1e-4 and rep.all_ok


def test_domain_error_reports_keep_their_names_under_infinite_tolerance():
    # log(x0) is undefined on half of (-1, 1): each check reports an infinite
    # residual under its own name and fails, even at tol = inf
    data = {
        "name": "log-field",
        "chart": {"dim": 1, "box": [[-1.0, 1.0]]},
        "fields": {
            "nabla": {"type": "connection", "flat": True},
            "g": {"type": "metric", "entries": [["1"]]},
            "xi": {"type": "vector", "components": ["log(x0)"]},
        },
        "checks": [
            {"op": "radiant", "conn": "nabla", "field": "xi"},
            {"op": "potential_field", "metric": "g", "field": "xi"},
        ],
    }
    rep = run_suite(scene_from_dict(data), PLAN, tolerance=float("inf"))
    reports = [c["reports"][0] for c in rep.checks]
    assert [r["name"] for r in reports] == ["radiant", "potential-field"]
    for r in reports:
        assert r["max_residual"] == float("inf") and not r["passed"]
        assert "of 50 samples hit domain errors: log of non-positive value" in r["notes"][0]
    assert not any(c["ok"] for c in rep.checks) and not rep.all_ok


@pytest.mark.parametrize("name", ["torus_quotient", "lorentz_cone"])
def test_repeated_runs_are_byte_identical(name):
    a = run_example(name, PLAN).to_json()
    b = run_example(name, PLAN).to_json()
    assert a == b


# ---------------------------------------------------------------------------
# bundled examples
# ---------------------------------------------------------------------------

def test_registry_has_exactly_the_published_names():
    assert list_examples() == (
        "hopf", "poincare", "torus_quotient", "e67", "orthant_cone",
        "lorentz_cone", "sphere_cone", "halfplane_cone",
        "mapping_torus_halfplane", "lee_perturbation_torus",
    )


def test_unknown_example_error_lists_names():
    with pytest.raises(SceneError, match="hopf.*lee_perturbation_torus"):
        load_example("nosuch")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_scene_loads_and_passes(name):
    scene = load_example(name)
    assert scene.name == name
    assert scene.description
    rep = run_suite(scene, PLAN, mc_samples=100_000)
    failed = [c["id"] for c in rep.checks if not c["ok"]]
    assert rep.all_ok, failed


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_examples_lists_names(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(EXAMPLES)


def test_cli_example_emits_report(capsys):
    code = main(["example", "hopf", "--samples", "50", "--seed", "11"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["all_ok"] is True and data["scene"] == "hopf"
    assert data["seed"] == 11 and data["count"] == 50


def test_cli_process_prints_what_main_prints_and_exits_with_its_status(tmp_path, capsys):
    # the process entry point freezes the heap once main has returned, so
    # the interpreter's last collection skips it; main itself freezes nothing
    failing = unit_scene()
    failing["fields"]["g"]["entries"][1][1] = "0 - 1/(x0^2 + x1^2)"
    runs = {0: ["example", "hopf", "--samples", "50", "--seed", "11"],
            1: ["check", str(write_scene(tmp_path, failing)), "--samples", "50"]}
    src = str(Path(hesslab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    frozen = gc.get_freeze_count()
    for status, argv in runs.items():
        assert main(argv) == status
        want = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "hesslab.cli", *argv], capture_output=True,
                              text=True, timeout=120, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (status, want, "")
    assert gc.get_freeze_count() == frozen


def test_cli_unknown_example_exits_2(capsys):
    assert main(["example", "nosuch"]) == 2
    assert "available" in capsys.readouterr().err


def test_cli_check_failing_scene_exits_1(tmp_path, capsys):
    data = unit_scene()
    data["fields"]["g"]["entries"][1][1] = "0 - 1/(x0^2 + x1^2)"
    path = write_scene(tmp_path, data)
    assert main(["check", str(path), "--samples", "50"]) == 1
    assert json.loads(capsys.readouterr().out)["all_ok"] is False


def test_cli_check_passing_scene_exits_0(tmp_path, capsys):
    path = write_scene(tmp_path, unit_scene())
    assert main(["check", str(path), "--samples", "50"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("box", ["[[0.4, 1e999], [0.3, 1.9]]",
                                 "[[-1e308, 1e308], [0.3, 1.9]]"])
def test_cli_non_finite_box_exits_2(tmp_path, capsys, box):
    # 1e999 reads as inf, and the second width overflows: the chart is
    # malformed (exit 2), where its NaN sample points used to fail a check
    text = json.dumps(unit_scene()).replace("[[0.4, 2.1], [0.3, 1.9]]", box)
    path = tmp_path / "scene.json"
    path.write_text(text)
    assert main(["check", str(path), "--samples", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: chart: interval ") and "is not finite" in err
    assert "Traceback" not in err


def test_cli_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["check", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("field,key,index,entry", [
    ("g", "entries", (0, 1), None),
    ("g", "entries", (1, 0), True),
    ("theta", "components", (1,), {"x": 1}),
])
def test_cli_entry_that_is_no_expression_exits_2(tmp_path, capsys, field, key, index, entry):
    # a JSON null is a malformed scene (exit 2), not a failed check (exit 1)
    data = unit_scene()
    target = data["fields"][field][key]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = entry
    path = write_scene(tmp_path, data)
    assert main(["check", str(path), "--samples", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: field '{field}': entry {list(index)} is ")
    assert "Traceback" not in err


def _bundled(name):
    return json.loads((Path(hesslab.__file__).parent / "data" / f"{name}.json").read_text())


_NULL = "is null, not an expression string or a number"


def _torus_quotient_map(entries, message):
    data = _bundled("torus_quotient")
    check = next(c for c in data["checks"] if c["op"] == "symmetry")
    check["map"] = entries
    return data, f"check {data['checks'].index(check)} ('symmetry') 'map': {message}"


def _halfplane_torus_automorphism(entries, message):
    data = _torus_over_halfplane([{"op": "reports", "structure": "T"}])
    data["structures"]["T"]["automorphism"] = entries
    return data, f"structure 'T' 'automorphism': {message}"


def _orthant_surface_beyond_its_chart():
    # the surface chart has dim 2, so x5 is out of range however large the cone
    data = _bundled("orthant_cone")
    check = next(c for c in data["checks"] if c["op"] == "surface")
    check["surface"][0] = "exp(x5)"
    return data, (f"check {data['checks'].index(check)} ('surface') 'surface': entry [0]: "
                  "variable x5 out of range for dimension 2")


@pytest.mark.parametrize("make", [
    lambda: _torus_quotient_map([None, "x1"], f"entry [0] {_NULL}"),
    lambda: _halfplane_torus_automorphism(["x0", None], f"entry [1] {_NULL}"),
    lambda: _torus_quotient_map(["zz", "x1"], "entry [0]: unknown identifier 'zz'"),
    lambda: _halfplane_torus_automorphism(["x0", "2 * (x1"], "entry [1]: expected ')'"),
    _orthant_surface_beyond_its_chart,
], ids=["symmetry-map", "mapping-torus-automorphism", "symmetry-map-unparsed",
        "mapping-torus-automorphism-unparsed", "surface-unparsed"])
def test_cli_coordinate_map_entry_that_is_no_expression_exits_2(tmp_path, capsys, make):
    # a null coordinate-map entry, or one that does not parse, is a malformed
    # scene, as such a field entry is: it exits 2 at load, not 1 as a failed check
    data, message = make()
    with pytest.raises(SceneError):
        scene_from_dict(data)
    assert main(["check", str(write_scene(tmp_path, data)), "--samples", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err


def test_coordinate_maps_reach_their_handlers_as_trees(monkeypatch):
    from hesslab import scenes

    seen = {}

    def record(op):
        handler, keys = scenes._OPS[op]

        def run(ctx, tol, **values):
            seen.setdefault(op, []).append(values)
            return handler(ctx, tol, **values)
        monkeypatch.setitem(scenes._OPS, op, (run, keys))

    record("symmetry")
    record("surface")
    for name in ("torus_quotient", "orthant_cone"):
        assert run_example(name, PLAN).all_ok
    maps = [values["map"] for values in seen["symmetry"]]
    assert maps == [[ex.parse_expression(e, 2) for e in m]
                    for m in (("2*x0", "2*x1"), ("x0", "x1 + 1"))]
    (values,) = seen["surface"]
    assert values["surface"] == [ex.parse_expression(e, 2)
                                 for e in ("exp(x0)", "exp(x1)", "exp(-x0 - x1)")]


def test_cli_coordinate_map_must_be_a_list(tmp_path, capsys):
    data = _torus_over_halfplane([{"op": "reports", "structure": "T"}])
    del data["structures"]["T"]["automorphism"]
    assert main(["check", str(write_scene(tmp_path, data)), "--samples", "20"]) == 2
    assert capsys.readouterr().err == "error: structure 'T' needs 'automorphism'\n"
    data["structures"]["T"]["automorphism"] = "2*x0"
    assert main(["check", str(write_scene(tmp_path, data)), "--samples", "20"]) == 2
    assert capsys.readouterr().err == (
        "error: structure 'T': 'automorphism' is \"2*x0\", not a list of 2 entries\n")


def test_cli_bad_margin_exits_2(tmp_path, capsys):
    path = write_scene(tmp_path, unit_scene())
    assert main(["check", str(path), "--margin", "0.7"]) == 2
    capsys.readouterr()


def test_cli_cone_psi_closed_form(capsys):
    assert main(["cone", "psi", "orthant(2)", "2,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert data["method"] == "closed_form" and data["stderr"] == 0.0


def test_cli_cone_psi_monte_carlo_is_seeded(capsys):
    args = ["cone", "psi", "lorentz(2)", "1.5, 0.5",
            "--method", "monte_carlo", "--mc-samples", "20000"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    data = json.loads(first)
    assert abs(data["value"] - 1.0) <= 3.0 * data["stderr"]


def test_cli_cone_psi_outside_exits_2(capsys):
    assert main(["cone", "psi", "orthant(2)", "2,-1"]) == 2
    assert "not strictly inside" in capsys.readouterr().err


def test_cli_cone_psi_no_closed_form_exits_2(capsys):
    # the square pyramid is the polyhedral cone that is not simplicial
    pyramid = '{"kind": "polyhedral", "generators": [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]}'
    assert main(["cone", "psi", pyramid, "1,0,0"]) == 2
    assert "closed form" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["1,inf", "nan,1"])
def test_cli_cone_psi_non_finite_point_exits_2(capsys, point):
    # an infinite coordinate read as inside the orthant, so the message that
    # came back was psi's positivity rule rather than the point's
    assert main(["cone", "psi", "orthant(2)", point]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: orthant(2) expects finite coordinates")


def test_cli_negative_seed_exits_2(capsys):
    # numpy rejects a negative seed at the first sample, where every check
    # of the scene used to report a failure of its own
    assert main(["example", "hopf", "--seed", "-1", "--samples", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: command line: '--seed' is -1, not an integer >= 0\n"


def test_cli_zero_samples_exits_2_naming_the_flag(capsys):
    assert main(["example", "hopf", "--samples", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: command line: '--samples' is 0, not an integer >= 1\n"


def test_cli_margin_outside_its_range_exits_2_naming_the_flag(capsys):
    # 0 is a margin, and the help text says so
    assert main(["example", "hopf", "--margin", "0.7", "--samples", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: command line: '--margin' is 0.7, not in [0, 0.5)\n"
    assert main(["example", "hopf", "--margin", "0", "--samples", "20"]) == 0
    capsys.readouterr()
    assert main(["example", "--help"]) == 0
    assert "[0, 0.5)" in " ".join(capsys.readouterr().out.split())


def test_cli_cone_psi_negative_seed_exits_2_naming_the_flag(capsys):
    # numpy's "expected non-negative integer" named neither --seed nor -1
    args = ["cone", "psi", "lorentz(2)", "1.5,0.5", "--method", "monte_carlo", "--seed", "-1"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: command line: '--seed' is -1, not an integer >= 0\n"


def test_cli_cone_psi_bad_point_exits_2(capsys):
    assert main(["cone", "psi", "orthant(2)", "2,zebra"]) == 2
    assert "comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize("spec,why", [
    ("[1,2]", "dict or string, got list"),
    ('{"kind":"orthant"}', "integer 'dim', got None"),
    ('{"kind":"orthant","dim":null}', "integer 'dim', got None"),
    ('{"kind":"lorentz","dim":1.5}', "integer 'dim', got 1.5"),
    ('{"kind":"product","factors":"orthant(1)"}', "list of 'factors'"),
    ('{"kind":"polyhedral","generators":[[1,0],[0]]}',
     "generators must be rows of one length; found rows of lengths [2, 1]"),
], ids=["list", "no-dim", "null-dim", "float-dim", "string-factors", "ragged-generators"])
def test_cli_cone_psi_malformed_spec_exits_2(capsys, spec, why):
    assert main(["cone", "psi", spec, "1,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err
    assert "Traceback" not in err


def test_cli_scene_cone_without_dim_exits_2(tmp_path, capsys):
    data = unit_scene()
    data["cones"] = {"K": {"kind": "orthant"}}
    path = write_scene(tmp_path, data)
    assert main(["check", str(path), "--samples", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cone 'K': orthant cone spec needs an integer 'dim'")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cli_cone_psi_overflow_is_an_error_in_strict_json(capsys):
    # psi = 1/(x0*x1) overflows this close to the corner of the orthant
    assert main(["cone", "psi", "orthant(2)", "1e-160,1e-160"]) == 1
    out, err = capsys.readouterr()
    assert "Infinity" not in out.replace('"Infinity"', "")
    data = json.loads(out, parse_constant=lambda name: pytest.fail(f"bare {name}"))
    assert data["value"] == "Infinity"
    assert "not finite" in err


def _cli(*args):
    """The console script run in a child, on the package the tests import."""
    src = str(Path(hesslab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hesslab.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_cli_cone_psi_names_non_finite_weights():
    # the proposal's normalization prod(rates) underflows to 0 here, so every
    # weight is inf: an error naming them, and no numpy warning on stderr
    proc = _cli("cone", "psi", "orthant(2)", "1e-200,1e-200", "--method", "monte_carlo")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: non-finite weights: the estimate is inf with standard "
                           "error nan; the importance weights at this point are not "
                           "representable in floating point\n")


def test_cli_domain_error_scene_fails_quietly():
    # a metric off its domain on part of the chart: the check fails (exit 1)
    # with a strict JSON report, and nothing reaches stderr
    scene = Path(__file__).resolve().parent / "golden" / "scenes" / "domain_error.json"
    proc = _cli("check", str(scene), "--seed", "11")
    assert proc.returncode == 1 and proc.stderr == ""
    data = json.loads(proc.stdout, parse_constant=lambda name: pytest.fail(f"bare {name}"))
    (report,) = data["checks"][0]["reports"]
    assert report["max_residual"] == "Infinity"
    assert report["notes"][0].startswith("20 of 200 samples hit domain errors: log of")


def test_cli_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_console_entry_point_runs():
    # the child finds the package the tests import, installed or not
    src = str(Path(hesslab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hesslab.cli", "example", "poincare",
         "--samples", "40"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_ok"] is True


def test_cli_overflowing_scene_constant_exits_2(tmp_path, capsys):
    # a bound that overflows is a malformed scene, not a crash
    data = json.loads((Path(hesslab.__file__).parent / "data" / "hopf.json").read_text())
    expect = next(check["expect"] for check in data["checks"] if "expect" in check)
    expect[next(iter(expect))][0] = "exp(1000)"
    path = write_scene(tmp_path, data, "hopf.json")
    assert main(["check", str(path), "--samples", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expect a lower bound: not a constant expression")
    assert "overflow" in err


@pytest.mark.parametrize("expect, message", [
    (5, "'expect' is 5, not an object of [lo, hi] bounds"),
    ({"c": [1]}, "'expect' bound on 'c' is [1], not a [lo, hi] pair"),
    ({"c": "x"}, "'expect' bound on 'c' is \"x\", not a [lo, hi] pair"),
], ids=["number", "one-bound", "string"])
def test_cli_malformed_expect_exits_2(tmp_path, capsys, expect, message):
    # validated at load: a malformed bound is a scene error, not a crash of the run
    data = json.loads((Path(hesslab.__file__).parent / "data" / "hopf.json").read_text())
    index, check = next((i, c) for i, c in enumerate(data["checks"]) if "expect" in c)
    check["expect"] = expect
    with pytest.raises(SceneError):
        scene_from_dict(data)
    path = write_scene(tmp_path, data, "hopf.json")
    assert main(["check", str(path), "--samples", "20"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: check {index} ('{check['op']}'): {message}\n"


def test_expect_bound_is_no_boolean():
    checks = [{"op": "lee_identity", "structure": "S", "expect": {"a": [True, 5.0]}}]
    with pytest.raises(SceneError, match="expect a lower bound: expected a number"):
        scene_from_dict(unit_scene(checks=checks))


def test_cli_flat_must_be_a_boolean(tmp_path, capsys):
    # "no" is truthy: read as a flag it would build a flat connection
    data = unit_scene()
    data["fields"]["nabla"]["flat"] = "no"
    assert main(["check", str(write_scene(tmp_path, data)), "--samples", "20"]) == 2
    assert capsys.readouterr().err == "error: field 'nabla': 'flat' is \"no\", not true or false\n"


def test_cli_expect_fail_must_be_a_boolean(tmp_path, capsys):
    data = unit_scene(checks=[{"op": "hessian", "conn": "nabla", "metric": "g",
                               "tolerance": 0.01, "expect_fail": "yes"}])
    assert main(["check", str(write_scene(tmp_path, data)), "--samples", "20"]) == 2
    assert capsys.readouterr().err == (
        "error: check 0 ('hessian'): 'expect_fail' is \"yes\", not true or false\n")


_OP_CHECKS = {  # a complete check of each op whose declaration needs keys
    "psi": {"op": "psi", "cone": "K", "point": [2.0, 3.0]},
    "homogeneity": {"op": "homogeneity", "cone": "K", "point": [2.0, 3.0]},
    "monodromy": {"op": "monodromy", "structure": "T", "expect_rank": 1},
    "surface": {"op": "surface", "cone": "K3", "surface": ["exp(x0)", "exp(x1)", "exp(-x0 - x1)"],
                "chart": {"dim": 2, "box": [[-0.5, 0.5], [-0.5, 0.5]]}},
}


@pytest.mark.parametrize("op, key", [
    ("psi", "point"),
    ("homogeneity", "point"),
    ("monodromy", "structure"),
    ("monodromy", "expect_rank"),
    ("surface", "chart"),
    ("surface", "surface"),
])
def test_cli_missing_required_key_of_an_op_exits_2(tmp_path, capsys, op, key):
    # checked at load: a missing key is a malformed scene, not a failed check
    def scene(check):
        data = _torus_over_halfplane([check], automorphism=("x0", "x1"))
        data["cones"] = {"K": "orthant(2)", "K3": "orthant(3)"}
        return data

    assert run_suite(scene_from_dict(scene(_OP_CHECKS[op])), PLAN).all_ok
    data = scene({k: v for k, v in _OP_CHECKS[op].items() if k != key})
    with pytest.raises(SceneError):
        scene_from_dict(data)
    assert main(["check", str(write_scene(tmp_path, data)), "--samples", "20"]) == 2
    assert capsys.readouterr().err == f"error: check 0 ('{op}') needs '{key}'\n"


@pytest.mark.parametrize("flags", [["no", "no"], [1, 0], [True, None]],
                         ids=["strings", "numbers", "null"])
def test_cli_chart_positive_flags_must_be_booleans(tmp_path, capsys, flags):
    # "no" is truthy: read as a flag it would mark the coordinate positive
    data = unit_scene()
    data["chart"]["positive"] = flags
    assert main(["check", str(write_scene(tmp_path, data)), "--samples", "20"]) == 2
    bad = next(f for f in flags if not isinstance(f, bool))
    assert capsys.readouterr().err == (
        f"error: chart: 'positive' is {json.dumps(bad)}, not true or false\n")
    data["chart"]["positive"] = [True, False]
    assert scene_from_dict(data).chart.positive == (True, False)
