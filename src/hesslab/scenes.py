"""Declarative scene files: charts, named fields, structures, and check lists.

A scene is a JSON document that binds expression strings into fields on one
chart, optionally declares cones and composite structures (statistical bases,
cone lifts, mapping tori, l.c.H. triples), and lists the checks to run.
``load_scene`` validates names and dimensions; ``run_suite`` executes the
checks and returns a serializable report.

Each structure type and check op is declared in one place: its builder or
handler, decorated with ``_structure`` or ``_op``. The declaration maps each
spec key that references a declared object to the kind of that object: a
field class, ``ConeSpec``, or a structure class (``object`` for any
structure). Loading checks that every reference names a declared object.
Running resolves the references in declaration order, checks their kinds,
and passes them to the builder or handler as keyword arguments; a check that
reaches a structure that failed to build reports ``<op>-unavailable``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from . import expr as ex
from .cones import (
    ConeSpec,
    characteristic_function,
    cone_from_spec,
    cone_lch_structure,
    log_psi_metric,
    sample_interior,
    surface_statistical_structure,
)
from .geomcore import (
    Chart,
    CheckReport,
    ConnectionField,
    DEFAULT_TOLERANCE,
    FieldShapeError,
    MetricField,
    OneFormField,
    SamplePlan,
    ScalarField,
    VectorFieldT,
    drop_held_points,
    eigenvalue_definiteness,
    flat_connection,
    levi_civita,
    make_report,
    rel_residual,
    sample_check,
)
from .hesstat import (
    ConeStructure,
    StatisticalStructure,
    build_cone_structure,
    check_hessian_structure,
    check_potential_field,
    check_radiant,
    check_self_similar,
    check_statistical,
    estimate_constant_curvature,
    level_set_statistical,
)
from .lch import (
    LCHStructure,
    MappingTorusSpec,
    build_mapping_torus,
    check_lch,
    check_symmetry,
    koszul_check,
    lee_constants,
    lee_identity_residual,
    lee_perturbation_probe,
    monodromy_rank,
    perturbed_structure,
)

__all__ = [
    "Report",
    "Scene",
    "SceneError",
    "list_examples",
    "load_example",
    "load_scene",
    "run_example",
    "run_suite",
    "scene_from_dict",
]


class SceneError(ValueError):
    """Malformed scene: parse failure, bad reference, or dimension mismatch."""


EXAMPLES = (
    "hopf",
    "poincare",
    "torus_quotient",
    "e67",
    "orthant_cone",
    "lorentz_cone",
    "sphere_cone",
    "halfplane_cone",
    "mapping_torus_halfplane",
    "lee_perturbation_torus",
)

_FIELD_TYPES = ("metric", "oneform", "vector", "scalar", "connection")
_FIELD_KINDS = (MetricField, ConnectionField, OneFormField, VectorFieldT, ScalarField)

_STRUCTURE_TYPES: dict = {}  # type -> (builder, references, other required keys)
_OPS: dict = {}  # op -> handler(ctx, check, tol, **references)
_OP_REFS: dict = {}  # op -> references
# op or structure type -> the key of the coordinate map it takes: one field
# entry per coordinate, checked at load as a field's entries are
_ENTRY_KEYS = {"symmetry": "map", "mapping_torus": "automorphism"}


def _structure(kind: str, *needs: str, **refs):
    def declare(builder):
        _STRUCTURE_TYPES[kind] = (builder, refs, needs)
        return builder
    return declare


def _op(name: str, **refs):
    def declare(handler):
        _OPS[name] = handler
        _OP_REFS[name] = refs
        return handler
    return declare


def _pool(kind) -> str:
    """Which declared objects a reference of this kind names."""
    if kind is ConeSpec:
        return "cone"
    return "field" if kind in _FIELD_KINDS else "structure"


class _Unbuilt(Exception):
    """A check or structure reached a structure that failed to build."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


@dataclass
class Scene:
    """A validated scene: fields are built, structures stay declarative."""

    name: str
    description: str
    chart: Chart
    fields: dict
    cones: dict
    structures: dict
    checks: list
    source: str = "<memory>"


@dataclass
class Report:
    """Executed check suite with the metadata needed to reproduce it."""

    scene: str
    version: str
    seed: int
    count: int
    margin: float
    tolerance: float
    checks: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["all_ok"] = self.all_ok
        return out

    def to_json(self) -> str:
        return strict_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        data = dict(data)
        data.pop("all_ok", None)
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        data["tolerance"] = _decode_float(data["tolerance"])
        for rep in (rep for check in data["checks"] for rep in check["reports"]):
            for key in ("max_residual", "mean_residual", "tolerance"):
                rep[key] = _decode_float(rep[key])
            rep["extra"] = {k: _decode_float(v) for k, v in rep["extra"].items()}
        return cls.from_dict(data)


_NONFINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def strict_json(obj) -> str:
    """Strict JSON with sorted keys: non-finite floats are written as the
    strings ``"Infinity"``, ``"-Infinity"`` and ``"NaN"``."""
    return json.dumps(_encode_nonfinite(obj), sort_keys=True, indent=2,
                      allow_nan=False)


def _encode_nonfinite(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if obj != obj else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _encode_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_encode_nonfinite(v) for v in obj]
    return obj


def _decode_float(value):
    return _NONFINITE[value] if isinstance(value, str) else value


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_scene(path) -> Scene:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise SceneError(f"cannot read scene file {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SceneError(
            f"parse error in {path} at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    return scene_from_dict(data, source=str(path))


def _constant(value, what: str) -> float:
    """A JSON number, or an expression string like '1 + sqrt(2)'."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(ex.constant_value(ex.parse_expression(value, 0)))
        except (ex.ExprError, ArithmeticError) as err:
            raise SceneError(f"{what}: not a constant expression: {err}") from err
    raise SceneError(f"{what}: expected a number or expression string")


def _build_chart(spec, what: str = "chart") -> Chart:
    if not isinstance(spec, dict) or "dim" not in spec or "box" not in spec:
        raise SceneError(f"{what} needs 'dim' and 'box'")
    try:
        return Chart(
            int(spec["dim"]),
            tuple(tuple(float(v) for v in pair) for pair in spec["box"]),
            tuple(bool(p) for p in spec["positive"]) if "positive" in spec else None,
        )
    except (TypeError, ValueError) as err:
        raise SceneError(f"{what}: {err}") from err


def _build_field(name: str, spec, chart: Chart, metrics: dict):
    if not isinstance(spec, dict) or "type" not in spec:
        raise SceneError(f"field '{name}' needs a 'type' ({', '.join(_FIELD_TYPES)})")
    kind = spec["type"]

    def entries(key):
        return _check_entries(f"field '{name}'", key, spec[key])

    try:
        if kind == "metric":
            return MetricField(chart, entries("entries"))
        if kind == "oneform":
            return OneFormField(chart, entries("components"))
        if kind == "vector":
            return VectorFieldT(chart, entries("components"))
        if kind == "scalar":
            return ScalarField(chart, entries("expression"))
        if kind == "connection":
            if spec.get("flat"):
                return flat_connection(chart)
            if "levi_civita_of" in spec:
                ref = _ref_name(f"field '{name}'", "levi_civita_of", spec["levi_civita_of"])
                if ref not in metrics:
                    raise SceneError(
                        f"field '{name}' references undeclared metric '{ref}'"
                    )
                return levi_civita(metrics[ref])
            return ConnectionField(chart, entries("christoffel"))
    except SceneError:
        raise
    except KeyError as err:
        raise SceneError(f"field '{name}' is missing key {err}") from err
    except FieldShapeError as err:
        raise SceneError(f"field '{name}': dimension mismatch: {err}") from err
    except ValueError as err:  # ExprError included
        raise SceneError(f"field '{name}': {err}") from err
    raise SceneError(f"field '{name}' has unknown type '{kind}'")


def _check_entries(owner: str, key: str, value):
    """``value``, the entries under ``key``, once every leaf is an entry."""
    bad = _non_entry(value)
    if bad is not None:
        index, leaf = bad
        where = f"entry {list(index)}" if index else f"'{key}'"
        raise SceneError(f"{owner}: {where} is {json.dumps(leaf, default=repr)}, "
                         "not an expression string or a number")
    return value


def _require_entries(owner: str, spec: dict, kind: str) -> None:
    """The entry list that an op or structure type of this kind takes (a
    coordinate map) is present and holds only entries."""
    if kind in _ENTRY_KEYS:
        key = _ENTRY_KEYS[kind]
        if not isinstance(spec.get(key), list):
            raise SceneError(f"{owner} needs '{key}', a list of one entry per coordinate")
        _check_entries(f"{owner} '{key}'", key, spec[key])


def _non_entry(obj, index=()):
    """(index, value) of the first leaf of nested lists that is neither an
    expression (string or tree) nor a number, or None. JSON null and booleans
    are not entries."""
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            bad = _non_entry(item, index + (i,))
            if bad is not None:
                return bad
        return None
    if isinstance(obj, (str, ex.Expression)) or (
            isinstance(obj, (int, float)) and not isinstance(obj, bool)):
        return None
    return index, obj


def _ref_name(owner: str, key: str, ref) -> str:
    """``ref``, once it is a name: a reference is a string."""
    if not isinstance(ref, str):
        raise SceneError(f"{owner}: '{key}' is {json.dumps(ref, default=repr)}, "
                         "not a name")
    return ref


def _check_refs(owner: str, spec: dict, refs: dict, pools: dict) -> None:
    """Every reference of ``refs`` is set in ``spec`` and names a declared
    object of its pool."""
    for key, kind in refs.items():
        ref = spec.get(key)
        if ref is None:
            raise SceneError(f"{owner} needs '{key}'")
        _ref_name(owner, key, ref)
        pool = _pool(kind)
        if ref not in pools[pool]:
            raise SceneError(f"{owner} references undeclared {pool} '{ref}'")


def _validate_structure(name: str, spec, pools: dict):
    if not isinstance(spec, dict) or "type" not in spec:
        raise SceneError(f"structure '{name}' needs a 'type'")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _STRUCTURE_TYPES:
        raise SceneError(
            f"structure '{name}' has unknown type '{kind}' "
            f"(expected one of {', '.join(_STRUCTURE_TYPES)})"
        )
    _, refs, needs = _STRUCTURE_TYPES[kind]
    _check_refs(f"structure '{name}'", spec, refs, pools)
    for key in needs:
        if key not in spec:
            raise SceneError(f"structure '{name}' needs '{key}'")
    _require_entries(f"structure '{name}'", spec, kind)


def _section(data: dict, key: str, kind: type):
    """The scene's ``key`` section, an object (``dict``) or a list, empty
    when absent."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise SceneError(f"'{key}' must be {what}, not {json.dumps(value, default=repr)}")
    return value


def scene_from_dict(data: dict, source: str = "<memory>") -> Scene:
    if not isinstance(data, dict):
        raise SceneError(f"scene {source}: top level must be an object")
    name = data.get("name", Path(source).stem)
    chart = _build_chart(data.get("chart"), "chart")

    specs = _section(data, "fields", dict)
    fields: dict = {}
    metrics: dict = {}
    # connections may reference metrics (levi_civita_of), so build them last
    for fname, fspec in specs.items():
        if isinstance(fspec, dict) and fspec.get("type") != "connection":
            fields[fname] = _build_field(fname, fspec, chart, metrics)
            if isinstance(fields[fname], MetricField):
                metrics[fname] = fields[fname]
    for fname, fspec in specs.items():
        if fname not in fields:
            fields[fname] = _build_field(fname, fspec, chart, metrics)

    cones: dict = {}
    for cname, cspec in _section(data, "cones", dict).items():
        try:
            cones[cname] = cone_from_spec(cspec)
        except (TypeError, ValueError) as err:
            raise SceneError(f"cone '{cname}': {err}") from err

    structures = dict(_section(data, "structures", dict))
    earlier: dict = {}  # a structure may reference only those declared before it
    for sname, sspec in structures.items():
        _validate_structure(
            sname, sspec, {"field": fields, "cone": cones, "structure": earlier}
        )
        earlier[sname] = sspec

    checks = list(_section(data, "checks", list))
    pools = {"field": fields, "cone": cones, "structure": structures}
    for i, check in enumerate(checks):
        if not isinstance(check, dict) or "op" not in check:
            raise SceneError(f"check {i} needs an 'op'")
        op = check["op"]
        if not isinstance(op, str) or op not in _OPS:
            raise SceneError(
                f"check {i} has unknown op '{op}' "
                f"(known: {', '.join(sorted(_OPS))})"
            )
        _check_refs(f"check {i} ('{op}')", check, _OP_REFS[op], pools)
        _require_entries(f"check {i} ('{op}')", check, op)

    return Scene(
        name=name,
        description=data.get("description", ""),
        chart=chart,
        fields=fields,
        cones=cones,
        structures=structures,
        checks=checks,
        source=source,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class _Context:
    """Materialized structures plus the run parameters."""

    def __init__(self, scene: Scene, plan: SamplePlan, tolerance, mc_samples: int):
        self.scene = scene
        self.plan = plan
        self.override = tolerance
        self.mc_samples = mc_samples
        self.structures: dict = {}
        self.attached: dict = {}
        self.failures: dict = {}

    def tol(self, check: dict) -> float:
        if self.override is not None:
            return float(self.override)
        return float(check.get("tolerance", DEFAULT_TOLERANCE))

    def resolve(self, owner: str, spec: dict, refs: dict) -> dict:
        """The objects that ``spec`` references, by key, in declaration order;
        a reference to a structure that failed to build raises ``_Unbuilt``."""
        out = {}
        for key, kind in refs.items():
            name = spec[key]
            pool = _pool(kind)
            if pool == "structure":
                obj, what = self.structure(name), f"{owner}: structure '{name}'"
            else:
                obj = (self.scene.fields if pool == "field" else self.scene.cones)[name]
                what = f"{pool} '{name}'"
            if not isinstance(obj, kind):
                raise SceneError(
                    f"{what} is a {type(obj).__name__}, expected {kind.__name__}"
                )
            out[key] = obj
        return out

    def structure(self, name: str):
        if name not in self.structures and name not in self.failures:
            try:
                self.structures[name] = self._build(name, self.scene.structures[name])
            except Exception as err:  # construction failures become failed reports
                self.failures[name] = f"{type(err).__name__}: {err}"
        if name in self.failures:
            raise _Unbuilt(name)
        return self.structures[name]

    def _build(self, name: str, spec: dict):
        builder, refs, _ = _STRUCTURE_TYPES[spec["type"]]
        try:
            resolved = self.resolve(f"structure '{name}'", spec, refs)
        except _Unbuilt as err:
            raise SceneError(f"base structure '{err.name}' failed to build") from err
        return builder(self, name, spec, **resolved)


@_structure("lch", conn=ConnectionField, metric=MetricField, lee_form=OneFormField)
def _build_lch(ctx, name, spec, **refs):
    return LCHStructure(ctx.scene.chart, **refs)


@_structure("statistical", conn=ConnectionField, metric=MetricField)
def _build_statistical(ctx, name, spec, **refs):
    return StatisticalStructure(ctx.scene.chart, **refs)


@_structure("cone", "lambda", base=object)
def _build_cone(ctx, name, spec, base):
    lam = _constant(spec["lambda"], f"structure '{name}' lambda")
    interval = tuple(spec.get("s_interval", (0.5, 2.0)))
    tol = float(spec.get("tolerance", DEFAULT_TOLERANCE))
    cone = build_cone_structure(
        base, lam, s_interval=interval, plan=ctx.plan, tolerance=tol
    )
    ctx.attached[name] = cone.reports
    return cone


@_structure("mapping_torus", "lambda", base=object)
def _build_mapping_torus(ctx, name, spec, base):
    lam = _constant(spec["lambda"], f"structure '{name}' lambda")
    scale = _constant(spec.get("scale", 2.0), f"structure '{name}' scale")
    torus_spec = MappingTorusSpec(base, tuple(spec["automorphism"]), scale, lam)
    tol = float(spec.get("tolerance", DEFAULT_TOLERANCE))
    struct, reports = build_mapping_torus(torus_spec, plan=ctx.plan, tolerance=tol)
    ctx.attached[name] = reports
    return struct


@_structure("cone_lch", cone=ConeSpec)
def _build_cone_lch(ctx, name, spec, cone):
    chart = _build_chart(spec["chart"], "cone_lch chart") if "chart" in spec else None
    return cone_lch_structure(cone, chart)


@_op("hessian", conn=ConnectionField, metric=MetricField)
def _op_hessian(ctx, check, tol, conn, metric):
    return [check_hessian_structure(conn, metric, ctx.plan, tol)]


@_op("radiant", conn=ConnectionField, field=VectorFieldT)
def _op_radiant(ctx, check, tol, conn, field):
    lam = None if "lambda" not in check else _constant(check["lambda"], "radiant lambda")
    return [check_radiant(conn, field, ctx.plan, tol, lam=lam)]


@_op("self_similar", metric=MetricField, field=VectorFieldT)
def _op_self_similar(ctx, check, tol, metric, field):
    return [check_self_similar(metric, field, ctx.plan, tol)]


@_op("potential_field", metric=MetricField, field=VectorFieldT)
def _op_potential_field(ctx, check, tol, metric, field):
    return [check_potential_field(metric, field, ctx.plan, tol)]


@_op("statistical", structure=StatisticalStructure)
def _op_statistical(ctx, check, tol, structure):
    return [check_statistical(structure, ctx.plan, tol)]


def _curvature_report(ctx, struct, name, tol):
    """The constant-curvature fit of ``struct`` as a report carrying c."""
    est = estimate_constant_curvature(struct, ctx.plan)
    return make_report(name, [est.residual], tol, samples=ctx.plan.count,
                       extra={"c": est.c})


@_op("curvature", structure=StatisticalStructure)
def _op_curvature(ctx, check, tol, structure):
    return [_curvature_report(ctx, structure, "curvature", tol)]


@_op("lch", structure=LCHStructure)
def _op_lch(ctx, check, tol, structure):
    return [check_lch(structure, ctx.plan, tol)]


@_op("lee_identity", structure=LCHStructure)
def _op_lee_identity(ctx, check, tol, structure):
    consts = lee_constants(structure, ctx.plan)
    rep = lee_identity_residual(structure, consts, ctx.plan, tol)
    extra = dict(rep.extra)
    extra.update(a=consts.a, mu=consts.mu,
                 killing_residual=consts.killing_residual,
                 radiant_residual=consts.radiant_residual,
                 affine_residual=consts.affine_residual)
    return [dataclasses.replace(rep, extra=extra)]


@_op("lee_constants", structure=LCHStructure)
def _op_lee_constants(ctx, check, tol, structure):
    consts = lee_constants(structure, ctx.plan)
    which = check.get("require", "killing")
    residuals = {
        "killing": consts.killing_residual,
        "radiant": consts.radiant_residual,
        "affine": consts.affine_residual,
    }
    if which not in residuals:
        raise SceneError(f"lee_constants 'require' must be one of {sorted(residuals)}")
    extra = {"a": consts.a, "mu": consts.mu, "u": consts.u, **{
        f"{k}_residual": v for k, v in residuals.items()
    }}
    return [make_report(f"lee-{which}", [residuals[which]], tol,
                        samples=ctx.plan.count, extra=extra)]


@_op("koszul", structure=LCHStructure)
def _op_koszul(ctx, check, tol, structure):
    return [koszul_check(structure.conn, structure.lee_form, ctx.plan, tol)]


@_op("symmetry", structure=LCHStructure)
def _op_symmetry(ctx, check, tol, structure):
    return [check_symmetry(structure, check["map"], ctx.plan, tol)]


@_op("reports", structure=object)
def _op_reports(ctx, check, tol, structure):
    return list(ctx.attached.get(check["structure"], ()))


@_op("cone_restriction", structure=ConeStructure)
def _op_cone_restriction(ctx, check, tol, structure):
    # a built cone implies a built base
    base = ctx.structure(ctx.scene.structures[check["structure"]]["base"])
    lam = structure.lam
    n = base.chart.dim
    surface = [ex.Var(a) for a in range(n)] + [ex.ONE]
    transversal = VectorFieldT(
        structure.chart, [ex.ZERO] * n + [ex.div(ex.Var(n), ex.const(2.0 - lam))]
    )
    phi = ex.div(ex.powi(ex.Var(n), 2), ex.const(4.0 - 2.0 * lam))
    recovered, _ = level_set_statistical(
        structure.conn, phi, surface, base.chart, transversal, plan=ctx.plan,
    )

    def metric_residual(pts):
        gv = base.metric.eval(pts, 0).value
        return rel_residual(recovered.metric.eval(pts, 0).value - gv, gv)

    metric_rep = sample_check(metric_residual, base.chart, ctx.plan, tol,
                              name="restriction-metric")
    curv_tol = float(check.get("curvature_tolerance", 1e-4))
    return [metric_rep,
            _curvature_report(ctx, recovered, "restriction-curvature", curv_tol)]


@_op("surface", cone=ConeSpec)
def _op_surface(ctx, check, tol, cone):
    chart = _build_chart(check["chart"], "surface chart")
    struct = surface_statistical_structure(
        cone, check["surface"], chart, plan=ctx.plan, tolerance=tol,
    )
    stat = check_statistical(struct, ctx.plan, tol)
    curv_tol = float(check.get("curvature_tolerance", 1e-4))
    return [stat, _curvature_report(ctx, struct, "surface-curvature", curv_tol)]


# A Monte Carlo psi matches its expected value when the two lie within
# PSI_Z standard errors: a correct estimate then fails with two-sided
# probability PSI_FALSE_ALARM_RATE. PSI_Z is the standard normal's
# 1 - PSI_FALSE_ALARM_RATE / 2 quantile, written out so that no statistics
# package loads at run time.
PSI_FALSE_ALARM_RATE = 1e-6
PSI_Z = 4.8916


@_op("psi", cone=ConeSpec)
def _op_psi(ctx, check, tol, cone):
    point = tuple(float(v) for v in check["point"])
    method = check.get("method", "closed_form")
    samples = int(check.get("samples", ctx.mc_samples))
    seed = int(check.get("seed", ctx.plan.seed))
    psi = characteristic_function(cone, point, method, samples=samples, seed=seed)
    extra = {"value": psi.value, "stderr": psi.stderr}
    if "expect_value" in check:
        target = _constant(check["expect_value"], "psi expect_value")
        residual = abs(psi.value - target)
        eff_tol = max(tol, PSI_Z * psi.stderr)
        extra["expected"] = target
        if psi.stderr > 0:
            extra["z_score"] = residual / psi.stderr
    else:
        residual, eff_tol = 0.0, tol
    return [make_report(f"psi-{method}", [residual], eff_tol,
                        samples=samples if method == "monte_carlo" else 1,
                        extra=extra, notes=(cone.describe(),))]


@_op("homogeneity", cone=ConeSpec)
def _op_homogeneity(ctx, check, tol, cone):
    x = np.asarray([float(v) for v in check["point"]])
    base = characteristic_function(cone, x).value
    residuals = []
    for t in check.get("factors", (0.5, 2.0, 7.0)):
        scaled = characteristic_function(cone, float(t) * x).value
        residuals.append(abs(scaled * float(t) ** cone.dim - base) / (1.0 + abs(base)))
    return [make_report("psi-homogeneity", residuals, tol,
                        samples=len(residuals), extra={"value": base})]


@_op("barrier", cone=ConeSpec)
def _op_barrier(ctx, check, tol, cone):
    pts = sample_interior(cone, int(check.get("count", 50)), seed=ctx.plan.seed)
    # the report carries the smallest eigenvalue over every sample, so every
    # eigenvalue is computed (once) and no certificate can spare one
    smallest, gaps = eigenvalue_definiteness(log_psi_metric(cone, pts))
    eig = float(smallest.min())
    return [make_report("barrier-definiteness", gaps, tol,
                        samples=pts.shape[0], extra={"smallest_eigenvalue": eig})]


@_op("monodromy")
def _op_monodromy(ctx, check, tol):
    exponents = check.get("exponents", [])
    rank = monodromy_rank(exponents)
    expected = int(check["expect_rank"])
    return [make_report("monodromy-rank", [float(abs(rank - expected))], tol,
                        samples=len(exponents), extra={"rank": rank})]


@_op("perturbation", structure=LCHStructure, alpha=OneFormField)
def _op_perturbation(ctx, check, tol, structure, alpha):
    eps = lee_perturbation_probe(structure, alpha, ctx.plan, tol)
    min_eps = float(check.get("min_eps", 1e-3))
    notes = []
    if eps >= min_eps:
        half = perturbed_structure(structure, alpha, eps / 2.0, ctx.plan, tol)
        inner = check_lch(half, ctx.plan, tol)
        residuals = [inner.max_residual]
        notes.append(f"re-checked at eps = {eps / 2.0!r}")
    else:
        residuals = [1.0]
        notes.append(f"probe stopped below min_eps = {min_eps!r}")
    return [make_report("perturbation-probe", residuals, tol,
                        samples=ctx.plan.count,
                        extra={"eps_max": eps, "min_eps": min_eps},
                        notes=notes)]


def _expectations_ok(check: dict, reports) -> tuple[bool, list[str]]:
    bounds = check.get("expect", {})
    if not bounds:
        return True, []
    ok = True
    notes = []
    for key, (lo, hi) in bounds.items():
        lo = _constant(lo, f"expect {key} lower bound")
        hi = _constant(hi, f"expect {key} upper bound")
        carriers = [r for r in reports if key in r.extra]
        if not carriers:
            ok = False
            notes.append(f"expectation on '{key}': no report carries it")
            continue
        for r in carriers:
            val = float(r.extra[key])
            if not lo <= val <= hi:
                ok = False
                notes.append(
                    f"expectation on '{key}': {val!r} outside [{lo!r}, {hi!r}]"
                )
    return ok, notes


def run_suite(scene: Scene, plan: SamplePlan | None = None,
              tolerance: float | None = None,
              mc_samples: int = 1_000_000) -> Report:
    """Execute every declared check; a check is ok when its reports land on
    the expected side of the tolerance (``expect_fail`` flips the sense) and
    every ``expect`` bound on the report extras holds. A check whose op
    raised or whose structure failed to build is never ok: a crash is not
    the numerical failure ``expect_fail`` asks for."""
    plan = plan or SamplePlan()
    ctx = _Context(scene, plan, tolerance, mc_samples)
    out = Report(
        scene=scene.name,
        version=__version__,
        seed=plan.seed,
        count=plan.count,
        margin=plan.margin,
        tolerance=float(tolerance if tolerance is not None else DEFAULT_TOLERANCE),
    )
    for i, check in enumerate(scene.checks):
        op = check["op"]
        tol = ctx.tol(check)
        crashed = False
        try:
            refs = ctx.resolve(f"check '{op}'", check, _OP_REFS[op])
            reports = _OPS[op](ctx, check, tol, **refs)
        except SceneError:
            raise
        except _Unbuilt as err:
            crashed = True
            reports = [make_report(
                f"{op}-unavailable", [float("inf")], tol, samples=0,
                notes=(f"structure '{err.name}' failed to build: "
                       f"{ctx.failures[err.name]}",),
            )]
        except Exception as err:
            crashed = True
            reports = [make_report(
                f"{op}-error", [float("inf")], tol, samples=0,
                notes=(f"{type(err).__name__}: {err}",),
            )]
        expect_fail = bool(check.get("expect_fail", False))
        passed = all(r.passed for r in reports)
        bounds_ok, bound_notes = _expectations_ok(check, reports)
        ok = (passed != expect_fail) and bounds_ok and not crashed
        record = {
            "index": i,
            "id": check.get("id", f"{i}:{op}"),
            "op": op,
            "expect_fail": expect_fail,
            "ok": bool(ok),
            "reports": [r.as_dict() for r in reports],
        }
        if bound_notes:
            record["expectation_notes"] = bound_notes
        out.checks.append(record)
    drop_held_points()  # the suite's sampled points and field tensors
    return out


# ---------------------------------------------------------------------------
# bundled example registry
# ---------------------------------------------------------------------------


def list_examples() -> tuple[str, ...]:
    return EXAMPLES


def load_example(name: str) -> Scene:
    if name not in EXAMPLES:
        raise SceneError(
            f"unknown example '{name}'; available: {', '.join(EXAMPLES)}"
        )
    ref = resources.files("hesslab").joinpath("data", f"{name}.json")
    with resources.as_file(ref) as path:
        return load_scene(path)


def run_example(name: str, plan: SamplePlan | None = None,
                tolerance: float | None = None,
                mc_samples: int = 1_000_000) -> Report:
    return run_suite(load_example(name), plan, tolerance, mc_samples)
