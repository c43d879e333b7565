"""Declarative scene files: charts, named fields, structures, and check lists.

A scene is a JSON document that binds expression strings into fields on one
chart, optionally declares cones and composite structures (statistical bases,
cone lifts, mapping tori, l.c.H. triples), and lists the checks to run.
``load_scene`` validates names and dimensions; ``run_suite`` executes the
checks and returns a serializable report.
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
    MetricField,
    OneFormField,
    SamplePlan,
    ScalarField,
    VectorFieldT,
    definiteness_gap,
    drop_held_points,
    flat_connection,
    levi_civita,
    make_report,
    smallest_eigenvalues,
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

_STRUCTURE_TYPES = ("lch", "statistical", "cone", "mapping_torus", "cone_lch")

# which keys of a check refer to which kind of declared object
_OP_REFS: dict[str, dict[str, str]] = {
    "hessian": {"conn": "field", "metric": "field"},
    "radiant": {"conn": "field", "field": "field"},
    "self_similar": {"metric": "field", "field": "field"},
    "potential_field": {"metric": "field", "field": "field"},
    "statistical": {"structure": "structure"},
    "curvature": {"structure": "structure"},
    "lch": {"structure": "structure"},
    "lee_identity": {"structure": "structure"},
    "lee_constants": {"structure": "structure"},
    "koszul": {"structure": "structure"},
    "symmetry": {"structure": "structure"},
    "reports": {"structure": "structure"},
    "cone_restriction": {"structure": "structure"},
    "surface": {"cone": "cone"},
    "psi": {"cone": "cone"},
    "homogeneity": {"cone": "cone"},
    "barrier": {"cone": "cone"},
    "monodromy": {},
    "perturbation": {"structure": "structure", "alpha": "field"},
}


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
        except ex.ExprError as err:
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


def _wrap_field_error(name: str, err: Exception) -> SceneError:
    msg = str(err)
    if "shape" in msg:
        return SceneError(f"field '{name}': dimension mismatch: {msg}")
    return SceneError(f"field '{name}': {msg}")


def _build_field(name: str, spec, chart: Chart, metrics: dict):
    if not isinstance(spec, dict) or "type" not in spec:
        raise SceneError(f"field '{name}' needs a 'type' ({', '.join(_FIELD_TYPES)})")
    kind = spec["type"]
    try:
        if kind == "metric":
            return MetricField(chart, spec["entries"])
        if kind == "oneform":
            return OneFormField(chart, spec["components"])
        if kind == "vector":
            return VectorFieldT(chart, spec["components"])
        if kind == "scalar":
            return ScalarField(chart, spec["expression"])
        if kind == "connection":
            if spec.get("flat"):
                return flat_connection(chart)
            if "levi_civita_of" in spec:
                ref = spec["levi_civita_of"]
                if ref not in metrics:
                    raise SceneError(
                        f"field '{name}' references undeclared metric '{ref}'"
                    )
                return levi_civita(metrics[ref])
            return ConnectionField(chart, spec["christoffel"])
    except SceneError:
        raise
    except KeyError as err:
        raise SceneError(f"field '{name}' is missing key {err}") from err
    except (ex.ExprError, ValueError) as err:
        raise _wrap_field_error(name, err) from err
    raise SceneError(f"field '{name}' has unknown type '{kind}'")


def _validate_structure(name: str, spec, fields, cones, earlier):
    if not isinstance(spec, dict) or "type" not in spec:
        raise SceneError(f"structure '{name}' needs a 'type'")
    kind = spec["type"]
    if kind not in _STRUCTURE_TYPES:
        raise SceneError(
            f"structure '{name}' has unknown type '{kind}' "
            f"(expected one of {', '.join(_STRUCTURE_TYPES)})"
        )
    def need(key, pool, what):
        ref = spec.get(key)
        if ref is None:
            raise SceneError(f"structure '{name}' needs '{key}'")
        if ref not in pool:
            raise SceneError(
                f"structure '{name}' references undeclared {what} '{ref}'"
            )
        return ref

    if kind == "lch":
        need("conn", fields, "field")
        need("metric", fields, "field")
        need("lee_form", fields, "field")
    elif kind == "statistical":
        need("conn", fields, "field")
        need("metric", fields, "field")
    elif kind in ("cone", "mapping_torus"):
        need("base", earlier, "structure")
        if "lambda" not in spec:
            raise SceneError(f"structure '{name}' needs 'lambda'")
    elif kind == "cone_lch":
        need("cone", cones, "cone")


def scene_from_dict(data: dict, source: str = "<memory>") -> Scene:
    if not isinstance(data, dict):
        raise SceneError(f"scene {source}: top level must be an object")
    name = data.get("name", Path(source).stem)
    chart = _build_chart(data.get("chart"), "chart")

    specs = data.get("fields", {})
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
    for cname, cspec in data.get("cones", {}).items():
        try:
            cones[cname] = cone_from_spec(cspec)
        except (TypeError, ValueError) as err:
            raise SceneError(f"cone '{cname}': {err}") from err

    structures = dict(data.get("structures", {}))
    earlier: dict = {}
    for sname, sspec in structures.items():
        _validate_structure(sname, sspec, fields, cones, earlier)
        earlier[sname] = sspec

    checks = list(data.get("checks", []))
    pools = {"field": fields, "cone": cones, "structure": structures}
    for i, check in enumerate(checks):
        if not isinstance(check, dict) or "op" not in check:
            raise SceneError(f"check {i} needs an 'op'")
        op = check["op"]
        if op not in _OP_REFS:
            raise SceneError(
                f"check {i} has unknown op '{op}' "
                f"(known: {', '.join(sorted(_OP_REFS))})"
            )
        for key, pool_name in _OP_REFS[op].items():
            ref = check.get(key)
            if ref is None:
                raise SceneError(f"check {i} ('{op}') needs '{key}'")
            if ref not in pools[pool_name]:
                raise SceneError(
                    f"check {i} ('{op}') references undeclared {pool_name} '{ref}'"
                )

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

    def field(self, name: str, kind):
        obj = self.scene.fields[name]
        if not isinstance(obj, kind):
            raise SceneError(
                f"field '{name}' is a {type(obj).__name__}, expected {kind.__name__}"
            )
        return obj

    def structure(self, name: str):
        if name in self.failures:
            return None
        if name in self.structures:
            return self.structures[name]
        spec = self.scene.structures[name]
        try:
            self.structures[name] = self._build(name, spec)
        except Exception as err:  # construction failures become failed reports
            self.failures[name] = f"{type(err).__name__}: {err}"
            return None
        return self.structures[name]

    def _build(self, name: str, spec: dict):
        kind = spec["type"]
        if kind == "lch":
            return LCHStructure(
                self.scene.chart,
                self.field(spec["conn"], ConnectionField),
                self.field(spec["metric"], MetricField),
                self.field(spec["lee_form"], OneFormField),
            )
        if kind == "statistical":
            return StatisticalStructure(
                self.scene.chart,
                self.field(spec["conn"], ConnectionField),
                self.field(spec["metric"], MetricField),
            )
        if kind == "cone":
            base = self.structure(spec["base"])
            if base is None:
                raise SceneError(f"base structure '{spec['base']}' failed to build")
            lam = _constant(spec["lambda"], f"structure '{name}' lambda")
            interval = tuple(spec.get("s_interval", (0.5, 2.0)))
            tol = float(spec.get("tolerance", DEFAULT_TOLERANCE))
            cone = build_cone_structure(
                base, lam, s_interval=interval, plan=self.plan, tolerance=tol
            )
            self.attached[name] = cone.reports
            return cone
        if kind == "mapping_torus":
            base = self.structure(spec["base"])
            if base is None:
                raise SceneError(f"base structure '{spec['base']}' failed to build")
            lam = _constant(spec["lambda"], f"structure '{name}' lambda")
            scale = _constant(spec.get("scale", 2.0), f"structure '{name}' scale")
            torus_spec = MappingTorusSpec(base, tuple(spec["automorphism"]), scale, lam)
            tol = float(spec.get("tolerance", DEFAULT_TOLERANCE))
            struct, reports = build_mapping_torus(torus_spec, plan=self.plan, tolerance=tol)
            self.attached[name] = reports
            return struct
        if kind == "cone_lch":
            cone = self.scene.cones[spec["cone"]]
            chart = _build_chart(spec["chart"], "cone_lch chart") if "chart" in spec else None
            return cone_lch_structure(cone, chart)
        raise SceneError(f"structure '{name}' has unknown type '{kind}'")


def _typed_structure(ctx: _Context, check: dict, kind):
    name = check["structure"]
    obj = ctx.structure(name)
    if obj is None:
        return None
    if not isinstance(obj, kind):
        raise SceneError(
            f"check '{check['op']}': structure '{name}' is a "
            f"{type(obj).__name__}, expected {kind.__name__}"
        )
    return obj


def _op_hessian(ctx, check, tol):
    return [check_hessian_structure(
        ctx.field(check["conn"], ConnectionField),
        ctx.field(check["metric"], MetricField),
        ctx.plan, tol,
    )]


def _op_radiant(ctx, check, tol):
    lam = None if "lambda" not in check else _constant(check["lambda"], "radiant lambda")
    return [check_radiant(
        ctx.field(check["conn"], ConnectionField),
        ctx.field(check["field"], VectorFieldT),
        ctx.plan, tol, lam=lam,
    )]


def _op_self_similar(ctx, check, tol):
    return [check_self_similar(
        ctx.field(check["metric"], MetricField),
        ctx.field(check["field"], VectorFieldT),
        ctx.plan, tol,
    )]


def _op_potential_field(ctx, check, tol):
    return [check_potential_field(
        ctx.field(check["metric"], MetricField),
        ctx.field(check["field"], VectorFieldT),
        ctx.plan, tol,
    )]


def _op_statistical(ctx, check, tol):
    struct = _typed_structure(ctx, check, StatisticalStructure)
    return None if struct is None else [check_statistical(struct, ctx.plan, tol)]


def _curvature_report(ctx, struct, name, tol):
    """The constant-curvature fit of ``struct`` as a report carrying c."""
    est = estimate_constant_curvature(struct, ctx.plan)
    return make_report(name, [est.residual], tol, samples=ctx.plan.count,
                       extra={"c": est.c})


def _op_curvature(ctx, check, tol):
    struct = _typed_structure(ctx, check, StatisticalStructure)
    return None if struct is None else [_curvature_report(ctx, struct, "curvature", tol)]


def _op_lch(ctx, check, tol):
    struct = _typed_structure(ctx, check, LCHStructure)
    return None if struct is None else [check_lch(struct, ctx.plan, tol)]


def _op_lee_identity(ctx, check, tol):
    struct = _typed_structure(ctx, check, LCHStructure)
    if struct is None:
        return None
    consts = lee_constants(struct, ctx.plan)
    rep = lee_identity_residual(struct, consts, ctx.plan, tol)
    extra = dict(rep.extra)
    extra.update(a=consts.a, mu=consts.mu,
                 killing_residual=consts.killing_residual,
                 radiant_residual=consts.radiant_residual,
                 affine_residual=consts.affine_residual)
    return [dataclasses.replace(rep, extra=extra)]


def _op_lee_constants(ctx, check, tol):
    struct = _typed_structure(ctx, check, LCHStructure)
    if struct is None:
        return None
    consts = lee_constants(struct, ctx.plan)
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


def _op_koszul(ctx, check, tol):
    struct = _typed_structure(ctx, check, LCHStructure)
    if struct is None:
        return None
    return [koszul_check(struct.conn, struct.lee_form, ctx.plan, tol)]


def _op_symmetry(ctx, check, tol):
    struct = _typed_structure(ctx, check, LCHStructure)
    if struct is None:
        return None
    return [check_symmetry(struct, check["map"], ctx.plan, tol)]


def _op_reports(ctx, check, tol):
    name = check["structure"]
    if ctx.structure(name) is None:
        return None
    return list(ctx.attached.get(name, ()))


def _op_cone_restriction(ctx, check, tol):
    cone = _typed_structure(ctx, check, ConeStructure)
    if cone is None:
        return None
    base_name = ctx.scene.structures[check["structure"]]["base"]
    base = ctx.structure(base_name)
    if base is None:
        return None
    lam = cone.lam
    n = base.chart.dim
    surface = [ex.Var(a) for a in range(n)] + [ex.ONE]
    transversal = VectorFieldT(
        cone.chart, [ex.ZERO] * n + [ex.div(ex.Var(n), ex.const(2.0 - lam))]
    )
    phi = ex.div(ex.powi(ex.Var(n), 2), ex.const(4.0 - 2.0 * lam))
    recovered, _ = level_set_statistical(
        cone.conn, phi, surface, base.chart, transversal, plan=ctx.plan,
    )
    pts = base.chart.sample(ctx.plan)
    gv = base.metric.eval(pts, 0).value
    dev = np.abs(recovered.metric.eval(pts, 0).value - gv).max((1, 2))
    dev = dev / (1.0 + np.abs(gv).max())
    metric_rep = make_report("restriction-metric", dev, tol, samples=pts.shape[0])
    curv_tol = float(check.get("curvature_tolerance", 1e-4))
    return [metric_rep,
            _curvature_report(ctx, recovered, "restriction-curvature", curv_tol)]


def _op_surface(ctx, check, tol):
    cone = ctx.scene.cones[check["cone"]]
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


def _op_psi(ctx, check, tol):
    cone = ctx.scene.cones[check["cone"]]
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


def _op_homogeneity(ctx, check, tol):
    cone = ctx.scene.cones[check["cone"]]
    x = np.asarray([float(v) for v in check["point"]])
    base = characteristic_function(cone, x).value
    residuals = []
    for t in check.get("factors", (0.5, 2.0, 7.0)):
        scaled = characteristic_function(cone, float(t) * x).value
        residuals.append(abs(scaled * float(t) ** cone.dim - base) / (1.0 + abs(base)))
    return [make_report("psi-homogeneity", residuals, tol,
                        samples=len(residuals), extra={"value": base})]


def _op_barrier(ctx, check, tol):
    cone = ctx.scene.cones[check["cone"]]
    pts = sample_interior(cone, int(check.get("count", 50)), seed=ctx.plan.seed)
    mats = log_psi_metric(cone, pts)
    gaps = definiteness_gap(mats)
    eig = float(smallest_eigenvalues(mats).min())
    return [make_report("barrier-definiteness", gaps, tol,
                        samples=pts.shape[0], extra={"smallest_eigenvalue": eig})]


def _op_monodromy(ctx, check, tol):
    exponents = check.get("exponents", [])
    rank = monodromy_rank(exponents)
    expected = int(check["expect_rank"])
    return [make_report("monodromy-rank", [float(abs(rank - expected))], tol,
                        samples=len(exponents), extra={"rank": rank})]


def _op_perturbation(ctx, check, tol):
    struct = _typed_structure(ctx, check, LCHStructure)
    if struct is None:
        return None
    alpha = ctx.field(check["alpha"], OneFormField)
    eps = lee_perturbation_probe(struct, alpha, ctx.plan, tol)
    min_eps = float(check.get("min_eps", 1e-3))
    notes = []
    if eps >= min_eps:
        half = perturbed_structure(struct, alpha, eps / 2.0, ctx.plan, tol)
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


_OPS = {
    "hessian": _op_hessian,
    "radiant": _op_radiant,
    "self_similar": _op_self_similar,
    "potential_field": _op_potential_field,
    "statistical": _op_statistical,
    "curvature": _op_curvature,
    "lch": _op_lch,
    "lee_identity": _op_lee_identity,
    "lee_constants": _op_lee_constants,
    "koszul": _op_koszul,
    "symmetry": _op_symmetry,
    "reports": _op_reports,
    "cone_restriction": _op_cone_restriction,
    "surface": _op_surface,
    "psi": _op_psi,
    "homogeneity": _op_homogeneity,
    "barrier": _op_barrier,
    "monodromy": _op_monodromy,
    "perturbation": _op_perturbation,
}


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
            reports = _OPS[op](ctx, check, tol)
        except SceneError:
            raise
        except Exception as err:
            crashed = True
            reports = [make_report(
                f"{op}-error", [float("inf")], tol, samples=0,
                notes=(f"{type(err).__name__}: {err}",),
            )]
        if reports is None:
            crashed = True
            name = check.get("structure", "?")
            reports = [make_report(
                f"{op}-unavailable", [float("inf")], tol, samples=0,
                notes=(f"structure '{name}' failed to build: "
                       f"{ctx.failures.get(name, 'unknown error')}",),
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
