"""Scene loading, suite execution, report serialization, and the CLI."""

import json
import subprocess
import sys

import pytest

from hesslab.cli import main
from hesslab.geomcore import SamplePlan
from hesslab.scenes import (
    EXAMPLES,
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


def test_check_missing_reference_key():
    data = unit_scene(checks=[{"op": "lch"}])
    with pytest.raises(SceneError, match="needs 'structure'"):
        scene_from_dict(data)


def test_metric_dimension_mismatch():
    data = unit_scene()
    data["fields"]["g"]["entries"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(SceneError, match="dimension mismatch"):
        scene_from_dict(data)


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


def test_bad_cone_spec_names_the_cone():
    data = unit_scene(cones={"V": "frobnicate(2)"})
    with pytest.raises(SceneError, match="cone 'V'"):
        scene_from_dict(data)


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

    def boom(ctx, check, tol):
        raise RuntimeError("koszul op crashed")

    monkeypatch.setitem(scenes._OPS, "koszul", boom)
    rep = run_example("hopf", PLAN)
    assert not rep.all_ok
    crashed = [c for c in rep.checks if c["op"] == "koszul"]
    assert crashed and all(c["expect_fail"] and not c["ok"] for c in crashed)
    assert crashed[0]["reports"][0]["name"] == "koszul-error"


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


def test_tolerance_override_applies_everywhere():
    rep = run_suite(scene_from_dict(unit_scene()), PLAN, tolerance=1e-30)
    assert not rep.all_ok


def test_mc_budget_flows_into_psi_checks():
    data = unit_scene(
        cones={"V": "orthant(2)"},
        checks=[{"op": "psi", "cone": "V", "point": [2.0, 3.0],
                 "method": "monte_carlo", "expect_value": "1/6"}],
    )
    rep = run_suite(scene_from_dict(data), PLAN, mc_samples=20000)
    report = rep.checks[0]["reports"][0]
    assert report["samples"] == 20000
    assert rep.all_ok


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_round_trips_losslessly():
    rep = run_example("poincare", PLAN)
    text = rep.to_json()
    again = Report.from_json(text)
    assert again.to_json() == text
    assert Report.from_dict(json.loads(text)).to_dict() == rep.to_dict()


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


def test_cli_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["check", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


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
    assert main(["cone", "psi", "lorentz(3)", "1,0,0"]) == 2
    capsys.readouterr()


def test_cli_cone_psi_bad_point_exits_2(capsys):
    assert main(["cone", "psi", "orthant(2)", "2,zebra"]) == 2
    assert "comma-separated" in capsys.readouterr().err


def test_cli_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hesslab.cli", "example", "poincare",
         "--samples", "40"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_ok"] is True
