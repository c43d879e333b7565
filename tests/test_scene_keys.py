"""Scene keys are typed and checked at load, and a non-finite residual never
satisfies ``expect_fail``.

The key probe sets each key of every structure and check of the bundled
scenes to a value of the wrong kind, and each declared optional key that no
bundled scene sets as well; every such edit must be a ``SceneError`` from
``scene_from_dict``. The poison probe adds, to one entry-bearing field at a
time, a term that is NaN or raises a domain error on part of the chart; no
check may then be ok with a non-finite report.
"""

import copy
import json
import math
from pathlib import Path

import pytest

import hesslab
from hesslab.cli import main
from hesslab.geomcore import SamplePlan
from hesslab.scenes import EXAMPLES, SceneError, run_suite, scene_from_dict

PLAN = SamplePlan(count=50, seed=11)
DATA = Path(hesslab.__file__).parent / "data"
WRONG = ("zz", [[1]], {"a": 1})  # a string, a nested list and an object
UNPROBED = {"op", "id", "type", "description"}

# Declared optional keys that no bundled scene sets, each with a valid value,
# added to a bundled structure (by name) or check (by id) of its op.
UNSET = [
    ("sphere_cone", "C", "s_interval", [0.5, 2.0]),
    ("lorentz_cone", "psi-homogeneity", "factors", [0.5, 2.0]),
    ("orthant_cone", "psi-monte-carlo", "samples", 40000),
    ("orthant_cone", "psi-monte-carlo", "seed", 7),
    ("orthant_cone", "barrier-positive", "count", 20),
    ("hopf", "radiant-lee-field", "lambda", -2.0),
    ("lorentz_cone", "L", "chart", {"dim": 2, "box": [[0.8, 2.0], [-0.4, 0.4]]}),
]


def bundled(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def spec_of(data: dict, where: str) -> dict:
    """The structure named ``where``, or the check whose id is ``where``."""
    if where in data.get("structures", {}):
        return data["structures"][where]
    return next(c for c in data["checks"] if c["id"] == where)


def specs(data: dict):
    yield from data.get("structures", {}).values()
    yield from data["checks"]


def key_edits(name: str):
    """(label, edited scene) for every probed key of the bundled scene."""
    data = bundled(name)
    targets = [(spec, key) for spec in specs(data) for key in spec if key not in UNPROBED]
    for scene, where, key, _ in UNSET:
        if scene == name:
            targets.append((spec_of(data, where), key))
    for spec, key in targets:
        label = spec.get("id", spec.get("type"))
        for value in WRONG:
            saved, spec[key] = spec.get(key), value
            yield f"{label}.{key} = {json.dumps(value)}", copy.deepcopy(data)
            spec[key] = saved


def loads(data: dict) -> bool:
    try:
        scene_from_dict(data)
    except SceneError:
        return False
    return True


@pytest.mark.parametrize("name", EXAMPLES)
def test_every_wrong_typed_key_is_a_scene_error_at_load(name):
    edits = list(key_edits(name))
    assert edits
    loaded = [label for label, data in edits if loads(data)]
    assert not loaded, f"{len(loaded)} of {len(edits)} edits loaded: {loaded}"


@pytest.mark.parametrize("name, where, key, value", UNSET,
                         ids=[f"{n}-{k}" for n, _, k, _ in UNSET])
def test_unset_optional_key_runs_with_a_valid_value(name, where, key, value):
    # the coerced value reaches its handler or builder, and the scene still passes
    data = bundled(name)
    spec_of(data, where)[key] = value
    assert run_suite(scene_from_dict(data), PLAN, mc_samples=20000).all_ok


# One edit per kind, run through the CLI: (scene, structure or check, key).
KINDS = {
    "constant": ("sphere_cone", "C", "lambda"),
    "positive-constant": ("hopf", "lch-gate", "tolerance"),
    "count": ("mapping_torus_halfplane", "seam-character", "expect_rank"),
    "point": ("orthant_cone", "psi-exact", "point"),
    "constants": ("lorentz_cone", "psi-homogeneity", "factors"),
    "choice": ("e67", "lee-killing", "require"),
    "entry-list": ("torus_quotient", "deck-dilation", "map"),
    "chart": ("orthant_cone", "level-surface", "chart"),
    "reference": ("hopf", "lch-gate", "structure"),
    "boolean": ("hopf", "not-koszul-type", "expect_fail"),
    "bounds": ("hopf", "lee-identity", "expect"),
}


@pytest.mark.parametrize("name, where, key", KINDS.values(), ids=KINDS.keys())
def test_cli_wrong_kind_exits_2(tmp_path, capsys, name, where, key):
    data = bundled(name)
    spec_of(data, where)[key] = [[1]]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--samples", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name, edit, message", [
    ("hopf", lambda d: d["chart"].update(dim=2.7),
     "chart: 'dim' is 2.7, not a count (an integer >= 0)"),
    ("orthant_cone", lambda d: spec_of(d, "level-surface")["chart"].update(dim=2.7),
     "check 6 ('surface') 'chart': 'dim' is 2.7, not a count (an integer >= 0)"),
    ("orthant_cone", lambda d: spec_of(d, "psi-exact").update(point=[True, 2]),
     "check 0 ('psi'): 'point' [0]: expected a number or expression string"),
    ("lorentz_cone", lambda d: spec_of(d, "psi-homogeneity").update(point=[1.2]),
     "check 2 ('homogeneity'): 'point' is [1.2], not a list of 2 constants"),
    ("orthant_cone", lambda d: spec_of(d, "psi-exact").update(tolerance=-5),
     "check 0 ('psi'): 'tolerance' is -5, not a positive constant"),
    ("orthant_cone", lambda d: spec_of(d, "psi-exact").update(tolerance=0),
     "check 0 ('psi'): 'tolerance' is 0, not a positive constant"),
    ("orthant_cone", lambda d: spec_of(d, "psi-exact").update(tolerance=math.nan),
     "check 0 ('psi'): 'tolerance' is NaN, not a positive constant"),
    ("orthant_cone", lambda d: spec_of(d, "psi-exact").update(tolerance="nan"),
     "check 0 ('psi'): 'tolerance': not a constant expression: "
     "unknown identifier 'nan' (at position 0)"),
    ("halfplane_cone", lambda d: spec_of(d, "B").update(conn="g"),
     "structure 'B': field 'g' is a MetricField, expected ConnectionField"),
    ("orthant_cone", lambda d: spec_of(d, "psi-monte-carlo").update(samples=1),
     "check 1 ('psi'): 'samples' is 1, not a Monte Carlo budget (an integer >= 32, "
     "one point per lattice shift)"),
], ids=["chart-dim", "surface-chart-dim", "boolean-coordinate", "short-point",
        "negative-tolerance", "zero-tolerance", "nan-tolerance", "nan-string-tolerance",
        "statistical-conn-names-a-metric", "one-monte-carlo-sample"])
def test_value_out_of_range_is_a_scene_error(name, edit, message):
    data = bundled(name)
    edit(data)
    with pytest.raises(SceneError) as err:
        scene_from_dict(data)
    assert str(err.value) == message


SCALE_RULE = "the scale q must be finite and positive"
UNIT_SCALE_RULE = "the scale q must differ from 1 (q = 1 glues nothing)"
LAMBDA_RULE = ("lambda must be finite and stay away from 0 and 2: radiance degenerates "
               "at 0 and the potential s^2/(4-2*lambda) is undefined at 2")


@pytest.mark.parametrize("where, key, value, rule", [
    ("T", "scale", 0, SCALE_RULE),
    ("T", "scale", -1, SCALE_RULE),
    ("T", "scale", math.nan, SCALE_RULE),
    ("T", "scale", math.inf, SCALE_RULE),
    ("T", "scale", 1, UNIT_SCALE_RULE),
    ("T", "scale", "2 - 1", UNIT_SCALE_RULE),
    ("T", "lambda", 2, LAMBDA_RULE),
    ("T", "lambda", math.nan, LAMBDA_RULE),
    ("C", "lambda", 2, LAMBDA_RULE),
    ("C", "lambda", "0", LAMBDA_RULE),
])
def test_torus_scale_and_lambda_follow_the_library_rule_at_load(where, key, value, rule):
    # the scene reads each value through the function the library applies,
    # so a value the builder would refuse never loads
    data = bundled("mapping_torus_halfplane")
    spec_of(data, where)[key] = value
    with pytest.raises(SceneError) as err:
        scene_from_dict(data)
    assert str(err.value) == (f"structure '{where}': '{key}' is "
                              f"{json.dumps(value)}: {rule}")


def test_cli_unit_torus_scale_exits_2(tmp_path, capsys):
    data = bundled("mapping_torus_halfplane")
    spec_of(data, "T")["scale"] = 1
    path = tmp_path / "unit-scale.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--samples", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: structure 'T': 'scale' is 1: {UNIT_SCALE_RULE}\n"


@pytest.mark.parametrize("budget", ["0", "-5", "1"])
@pytest.mark.parametrize("command", [["example", "lorentz_cone", "--samples", "20"],
                                     ["cone", "psi", "lorentz(2)", "1.5,0.5"]],
                         ids=["example", "cone-psi"])
def test_cli_monte_carlo_budget_below_two_exits_2(capsys, command, budget):
    assert main(command + ["--mc-samples", budget]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: command line: '--mc-samples' is {budget}, "
                                 "not a Monte Carlo budget (an integer >= 32, "
                                 "one point per lattice shift)\n")


def test_cli_monte_carlo_budget_is_one_point_per_lattice_shift_or_more(capsys):
    # 32 shifts of a one-point lattice is the smallest budget; 31 exits 2
    command = ["cone", "psi", "orthant(2)", "2,3", "--method", "monte_carlo"]
    assert main(command + ["--mc-samples", "31"]) == 2
    assert "'--mc-samples' is 31" in capsys.readouterr().err
    assert main(command + ["--mc-samples", "32"]) == 0
    assert json.loads(capsys.readouterr().out)["stderr"] > 0.0


@pytest.mark.parametrize("budget", [1, 0, 2.0, True])
def test_run_suite_monte_carlo_budget_is_an_integer_of_at_least_two(budget):
    with pytest.raises(SceneError, match="'mc_samples' is .*, not a Monte Carlo budget"):
        run_suite(scene_from_dict(bundled("hopf")), PLAN, mc_samples=budget)


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_cli_tolerance_override_must_be_positive(capsys, tol):
    assert main(["example", "hopf", "--samples", "20", "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: command line: '--tol' is ") and "positive" in err


# ---------------------------------------------------------------------------
# a non-finite residual never satisfies expect_fail
# ---------------------------------------------------------------------------

ENTRY_KEYS = ("entries", "components", "expression", "christoffel")
POISONED = [(name, field) for name in EXAMPLES
            for field, spec in bundled(name).get("fields", {}).items()
            if any(key in spec for key in ENTRY_KEYS)]


def poison_term(kind: str, box) -> str:
    """A term that is zero where it is defined: ``overflow`` is NaN where
    exp overflows, on the top quarter of the x0 interval; ``domain`` raises
    a domain error on its lower half."""
    lo, hi = box
    mid = 0.5 * (lo + hi)
    if kind == "overflow":
        rate = 710.0 / (0.25 * (hi - lo))
        return f"(exp({rate!r}*(x0 - {mid!r})) - exp({rate!r}*(x0 - {mid!r})))"
    return f"0*sqrt(x0 - {mid!r})"


def poisoned(entries, term):
    if isinstance(entries, list):
        return [poisoned(e, term) for e in entries]
    return f"({entries}) + {term}"


def poisoned_report(name: str, field: str, kind: str) -> dict:
    data = bundled(name)
    spec = data["fields"][field]
    term = poison_term(kind, data["chart"]["box"][0])
    for key in ENTRY_KEYS:
        if key in spec:
            spec[key] = poisoned(spec[key], term)
    return run_suite(scene_from_dict(data), PLAN, mc_samples=20000).to_dict()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("kind", ["overflow", "domain"])
@pytest.mark.parametrize("name, field", POISONED, ids=[f"{n}-{f}" for n, f in POISONED])
def test_poisoned_field_never_reads_ok_with_a_non_finite_residual(name, field, kind):
    for check in poisoned_report(name, field, kind)["checks"]:
        bad = [r["name"] for r in check["reports"] if not math.isfinite(r["max_residual"])]
        if check["ok"]:
            assert not bad, check["id"]
        elif check["expect_fail"] and bad:
            notes = " ".join(check.get("expectation_notes", ()))
            assert all(f"report '{b}' has a non-finite max_residual" in notes for b in bad)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("kind, value", [("overflow", "nan"), ("domain", "inf")])
def test_non_finite_expect_fail_check_is_not_ok_and_says_why(kind, value):
    checks = poisoned_report("hopf", "g", kind)["checks"]
    (check,) = [c for c in checks if c["id"] == "not-hessian-without-lee"]
    assert check["expect_fail"] and not check["ok"]
    assert check["expectation_notes"] == [
        f"expect_fail: report 'hessian-structure' has a non-finite max_residual ({value})"]
