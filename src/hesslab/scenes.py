"""Declarative scene files: charts, named fields, structures, and check lists.

A scene is a JSON document that binds expression strings into fields on one
chart, optionally declares cones and composite structures (statistical bases,
cone lifts, mapping tori, l.c.H. triples), and lists the checks to run.
``load_scene`` validates the whole document; ``run_suite`` executes the
checks and returns a serializable report.

Each structure type and check op is declared in one place, after the model
of the JSON Schema vocabulary: its builder or handler, decorated with
``_structure`` or ``_op``, declares one ``_Key`` per parameter. A key gives
the kind that reads the value (a constant, a positive constant, a constant
that a library rule accepts, a count, a positive count, a Monte Carlo
budget, a point, a list of scale factors, a choice, an entry list, a chart,
or a reference to a declared object of some classes) and its default, if it
has one. A structure type also declares the class it builds, and the keys
common to every check are declared once, in ``_CHECK_KEYS``.

Loading reads every declared key by its kind and stores the coerced specs on
``Scene``: a value of the wrong kind, or out of range, is a ``SceneError``
(undeclared keys are ignored). Running looks the references up, builds
structures on first use, and calls each builder or handler with the coerced
values; a check that reaches a structure that failed to build reports
``<op>-unavailable``.
"""

from __future__ import annotations

import copy
import json
import math
from functools import partial
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import __version__
from . import expr as ex
from .cones import (
    LATTICE_SHIFTS,
    PSI_SAMPLES,
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
    ChartError,
    CheckReport,
    ConnectionField,
    DEFAULT_TOLERANCE,
    FieldShapeError,
    MetricField,
    OneFormField,
    SamplePlan,
    ScalarField,
    VectorFieldT,
    as_entry,
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
    nondegenerate_lambda,
    restrict_cone,
)
from .lch import (
    LCHStructure,
    MappingTorus,
    build_mapping_torus,
    check_lch,
    check_monodromy,
    check_symmetry,
    koszul_check,
    lee_constants,
    lee_identity_residual,
    lee_perturbation_probe,
    perturbed_structure,
    torus_scale,
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
    """Malformed scene: a parse failure, or a value of the wrong kind or out of range."""


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

# field type -> (class, the key of its entries)
_FIELD_TYPES = {"metric": (MetricField, "entries"), "oneform": (OneFormField, "components"),
                "vector": (VectorFieldT, "components"), "scalar": (ScalarField, "expression"),
                "connection": (ConnectionField, "christoffel")}
_FIELD_KINDS = tuple(cls for cls, _ in _FIELD_TYPES.values())

# type -> (builder, the class it builds, keys); op -> (handler, keys). A
# builder is called as builder(ctx, **values) and a handler as
# handler(ctx, tol, **values), with the coerced values of the declared keys.
_STRUCTURE_TYPES: dict = {}
_OPS: dict = {}

_REQUIRED = object()  # the default of a key that a spec must set


class _Key(ex.Value):
    """One declared key: ``read(value, owner, key, scope)`` returns the coerced
    value or raises SceneError, ``name`` is the spec key when it is not the
    parameter's (``lambda`` is a Python keyword), and a reference names an
    object of ``pool``. Calling a key gives it a default or a name."""

    __slots__ = __match_args__ = ("read", "default", "name", "pool")

    def __init__(self, read: Callable, default: object = _REQUIRED,
                 name: str | None = None, pool: str | None = None):
        self._set(read, default, name, pool)

    def __call__(self, default=_REQUIRED, name=None) -> "_Key":
        return _Key(self.read, default, name, self.pool)


def _declare(registry: dict, name: str, *builds: type, **keys: _Key):
    def declare(run):
        registry[name] = (run, *builds, keys)
        return run
    return declare


_structure = partial(_declare, _STRUCTURE_TYPES)  # (type, the class it builds, **keys)
_op = partial(_declare, _OPS)  # (op, **keys)


class _Unbuilt(Exception):
    """A check or structure reached a structure that failed to build."""


class Scene(ex.Value):
    """A validated scene: fields and cones are built, and structures and
    checks are coerced specs, built and run by ``run_suite``."""

    __slots__ = __match_args__ = ("name", "description", "chart", "fields", "cones",
                                  "structures", "checks", "source")

    def __init__(self, name: str, description: str, chart: Chart, fields: dict, cones: dict,
                 structures: dict, checks: list, source: str = "<memory>"):
        self._set(name, description, chart, fields, cones, structures, checks, source)


class Report(ex.Value):
    """Executed check suite with the metadata needed to reproduce it."""

    __slots__ = __match_args__ = ("scene", "version", "seed", "count", "margin", "tolerance",
                                  "checks")

    def __init__(self, scene: str, version: str, seed: int, count: int, margin: float,
                 tolerance: float, checks: list):
        self._set(scene, version, seed, count, margin, tolerance, checks)

    @property
    def all_ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def _fields(self) -> dict:
        """The fields and ``all_ok``, as one shallow dict."""
        out = dict(zip(self.__match_args__, self._values(self)))
        out["all_ok"] = self.all_ok
        return out

    def to_dict(self) -> dict:
        """The fields and ``all_ok`` as plain data, copied all the way down."""
        return copy.deepcopy(self._fields())

    def to_json(self) -> str:
        """``strict_json(self.to_dict())``, from a shallow dict of the fields:
        encoding the non-finite floats is the one copy of the checks it makes."""
        return strict_json(self._fields())

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


def _dump(value) -> str:
    return json.dumps(value, default=repr)


def _wrong(owner: str, key: str, value, noun: str) -> SceneError:
    return SceneError(f"{owner}: '{key}' is {_dump(value)}, not {noun}")


def _constant(value, what: str) -> float:
    """A JSON number, or an expression string like '1 + sqrt(2)'. A JSON
    boolean is neither."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(ex.constant_value(ex.parse_expression(value, 0)))
        except (ex.ExprError, ArithmeticError) as err:
            raise SceneError(f"{what}: not a constant expression: {err}") from err
    raise SceneError(f"{what}: expected a number or expression string")


def positive_constant(value, owner: str, key: str, scope=None) -> float:
    """A constant > 0, such as a tolerance; NaN is none."""
    number = _constant(value, f"{owner}: '{key}'")
    if not number > 0:
        raise _wrong(owner, key, value, "a positive constant")
    return number


def _is(test: Callable, noun: str) -> Callable:
    """A reader of the values that pass ``test``, which it returns as they are."""
    def read(value, owner: str, key: str, scope=None):
        if not test(value):
            raise _wrong(owner, key, value, noun)
        return value
    return read


# a JSON integer, not a boolean or a float such as 2.0; a JSON boolean, not a
# string such as "no" read by its truthiness; a name
_count = _is(lambda v: type(v) is int and v >= 0, "a count (an integer >= 0)")
monte_carlo_budget = _is(lambda v: type(v) is int and v >= LATTICE_SHIFTS,
                         f"a Monte Carlo budget (an integer >= {LATTICE_SHIFTS}, "
                         "one point per lattice shift)")
_boolean = _is(lambda v: isinstance(v, bool), "true or false")
_name = _is(lambda v: isinstance(v, str), "a name")


def _constants(value, owner: str, key: str, n: int | None = None) -> tuple:
    """A list of constants, of ``n`` of them when ``n`` is given."""
    if not isinstance(value, list) or n not in (None, len(value)):
        raise _wrong(owner, key, value, f"a list of {'' if n is None else f'{n} '}constants")
    return tuple(_constant(v, f"{owner}: '{key}' [{i}]") for i, v in enumerate(value))


def _point(value, owner: str, key: str, scope) -> tuple:
    """A point of the spec's cone: one finite constant per cone coordinate."""
    dim = scope.cones[scope.values["cone"]].dim
    point = _constants(value, owner, key, dim)
    if not all(map(math.isfinite, point)):
        raise _wrong(owner, key, value, f"a list of {dim} finite constants")
    return point


def _factors(value, owner: str, key: str, scope=None) -> tuple:
    """A non-empty list of finite constants > 0: the t of psi(t x)."""
    factors = _constants(value, owner, key)
    if not factors or not all(0 < t < math.inf for t in factors):
        raise _wrong(owner, key, value, "a non-empty list of finite positive constants")
    return factors


def _entry_list(value, owner: str, key: str, n: int, dim: int) -> list:
    """A flat list of ``n`` entries, one per coordinate, as trees over
    ``dim`` coordinates."""
    if not isinstance(value, list) or len(value) != n or any(isinstance(v, list) for v in value):
        raise _wrong(owner, key, value, f"a list of {n} entries")
    _check_entries(f"{owner} '{key}'", key, value)
    trees = []
    for i, entry in enumerate(value):
        try:
            trees.append(as_entry(entry, dim))
        except ex.ExprError as err:
            raise SceneError(f"{owner} '{key}': entry [{i}]: {err}") from err
    return trees


def _check_entries(owner: str, key: str, value, index=()):
    """``value``, the entries under ``key``, once every leaf of its nested
    lists is an expression (string or tree) or a number: JSON null and
    booleans are not entries."""
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_entries(owner, key, item, index + (i,))
    elif not isinstance(value, (str, ex.Expression)) and (
            isinstance(value, bool) or not isinstance(value, (int, float))):
        where = f"entry {list(index)}" if index else f"'{key}'"
        raise SceneError(f"{owner}: {where} is {_dump(value)}, "
                         "not an expression string or a number")
    return value


def _bounds(value, owner: str, key: str, scope=None) -> dict:
    """An object mapping each report extra it bounds to a [lo, hi] pair of
    constants, returned as a pair of floats."""
    if not isinstance(value, dict):
        raise _wrong(owner, key, value, "an object of [lo, hi] bounds")
    out = {}
    for extra, pair in value.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise SceneError(f"{owner}: '{key}' bound on '{extra}' is {_dump(pair)}, "
                             "not a [lo, hi] pair")
        out[extra] = (_constant(pair[0], f"expect {extra} lower bound"),
                      _constant(pair[1], f"expect {extra} upper bound"))
    return out


def _chart(spec, what: str) -> Chart:
    if not isinstance(spec, dict) or "dim" not in spec or "box" not in spec:
        raise SceneError(f"{what} needs 'dim' and 'box'")
    for key in ("box", "positive"):
        if not isinstance(spec.get(key, []), list):
            raise _wrong(what, key, spec[key], "a list")
    try:
        return Chart(
            _count(spec["dim"], what, "dim"),
            tuple(_constants(pair, what, "box", 2) for pair in spec["box"]),
            tuple(_boolean(p, what, "positive") for p in spec["positive"])
            if "positive" in spec else None,
        )
    except ChartError as err:
        raise SceneError(f"{what}: {err}") from err


def _choice(*options: str) -> _Key:
    return _Key(_is(lambda v: v in options, f"one of {', '.join(options)}"))


def _ref(*kinds: type) -> _Key:
    """The name of a declared object of a class in ``kinds``: a field, a
    cone, or a structure of a type that builds one (``object``: any)."""
    pool = ("cone" if kinds[0] is ConeSpec else "field" if kinds[0] in _FIELD_KINDS
            else "structure")

    def read(value, owner, key, scope):
        declared = scope.classes[pool]
        if _name(value, owner, key) not in declared:
            raise SceneError(f"{owner} references undeclared {pool} '{value}'")
        if not issubclass(declared[value], kinds):
            raise SceneError(f"{owner}: {pool} '{value}' is a {declared[value].__name__}, "
                             f"expected {' or '.join(k.__name__ for k in kinds)}")
        return value
    return _Key(read, pool=pool)


def _ruled(rule: Callable) -> _Key:
    """A constant that the library's ``rule`` accepts: the value it returns,
    and its ValueError as a SceneError."""
    def read(value, owner, key, scope):
        number = _constant(value, f"{owner}: '{key}'")
        try:
            return rule(number)
        except ValueError as err:
            raise SceneError(f"{owner}: '{key}' is {_dump(value)}: {err}") from err
    return _Key(read)


_CONSTANT = _Key(lambda value, owner, key, scope: _constant(value, f"{owner}: '{key}'"))
_LAMBDA = _ruled(nondegenerate_lambda)(name="lambda")  # a cone's radiance constant
_POSITIVE = _Key(positive_constant)
_COUNT = _Key(_count)
_POSITIVE_COUNT = _Key(_is(lambda v: type(v) is int and v >= 1,
                           "a positive count (an integer >= 1)"))
_FACTORS = _Key(_factors)
_INTERVAL = _Key(lambda value, owner, key, scope: _constants(value, owner, key, 2))
_POINT = _Key(_point)
_MAP = _Key(lambda value, owner, key, scope:  # a map of the scene chart
            _entry_list(value, owner, key, scope.chart.dim, scope.chart.dim))
_SURFACE = _Key(lambda value, owner, key, scope:  # the spec's chart into its cone
                _entry_list(value, owner, key, scope.cones[scope.values["cone"]].dim,
                            scope.values["chart"].dim))
_CHART = _Key(lambda value, owner, key, scope: _chart(value, f"{owner} '{key}'"))

_CHECK_KEYS = {  # declared once for every op
    "id": _Key(_name)(None),
    "tolerance": _POSITIVE(DEFAULT_TOLERANCE),
    "expect": _Key(_bounds)({}),
    "expect_fail": _Key(_boolean)(False),
}


def _load(owner: str, spec: dict, keys: dict, scope: SimpleNamespace) -> dict:
    """The coerced spec, by parameter: the value of each declared key read
    by its kind, or its default when ``spec`` leaves the key out. The kinds
    read against ``scope``: the scene's chart and cones, the class of each
    declared object by pool, and the ``values`` read so far."""
    scope.values = values = {}
    for param, key in keys.items():
        name = key.name or param
        if name in spec:
            values[param] = key.read(spec[name], owner, name, scope)
        elif key.default is _REQUIRED:
            raise SceneError(f"{owner} needs '{name}'")
        else:
            values[param] = key.default
    return values


def _build_field(name: str, spec, chart: Chart, metrics: dict):
    owner = f"field '{name}'"
    if not isinstance(spec, dict) or "type" not in spec:
        raise SceneError(f"{owner} needs a 'type' ({', '.join(_FIELD_TYPES)})")
    if not isinstance(spec["type"], str) or spec["type"] not in _FIELD_TYPES:
        raise SceneError(f"{owner} has unknown type '{spec['type']}'")
    kind, key = _FIELD_TYPES[spec["type"]]
    try:
        if kind is ConnectionField and _boolean(spec.get("flat", False), owner, "flat"):
            return flat_connection(chart)
        if kind is ConnectionField and "levi_civita_of" in spec:
            ref = _name(spec["levi_civita_of"], owner, "levi_civita_of")
            if ref not in metrics:
                raise SceneError(f"{owner} references undeclared metric '{ref}'")
            return levi_civita(metrics[ref])
        return kind(chart, _check_entries(owner, key, spec[key]))
    except SceneError:
        raise
    except KeyError as err:
        raise SceneError(f"{owner} is missing key {err}") from err
    except FieldShapeError as err:
        raise SceneError(f"{owner}: dimension mismatch: {err}") from err
    except ValueError as err:  # ExprError included
        raise SceneError(f"{owner}: {err}") from err


def _declared(owner: str, spec, key: str, registry: dict) -> str:
    """``spec[key]``, once it names a declared structure type or op."""
    if not isinstance(spec, dict) or key not in spec:
        raise SceneError(f"{owner} needs '{key}'")
    kind = spec[key]
    if not isinstance(kind, str) or kind not in registry:
        raise SceneError(f"{owner} has unknown {key} '{kind}' "
                         f"(known: {', '.join(sorted(registry))})")
    return kind


def _section(data: dict, key: str, kind: type):
    """The scene's ``key`` section, an object (``dict``) or a list, empty
    when absent."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise SceneError(f"'{key}' must be {what}, not {_dump(value)}")
    return value


def scene_from_dict(data: dict, source: str = "<memory>") -> Scene:
    if not isinstance(data, dict):
        raise SceneError(f"scene {source}: top level must be an object")
    name = data.get("name", Path(source).stem)
    chart = _chart(data.get("chart"), "chart")

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

    scope = SimpleNamespace(chart=chart, cones=cones, classes={
        "field": {n: type(f) for n, f in fields.items()},
        "cone": {n: type(c) for n, c in cones.items()}, "structure": {}})
    structures: dict = {}
    for sname, sspec in _section(data, "structures", dict).items():
        owner = f"structure '{sname}'"
        kind = _declared(owner, sspec, "type", _STRUCTURE_TYPES)
        _, builds, keys = _STRUCTURE_TYPES[kind]
        structures[sname] = {"type": kind, **_load(owner, sspec, keys, scope)}
        # a structure may reference only those declared before it
        scope.classes["structure"][sname] = builds

    checks = []
    for i, check in enumerate(_section(data, "checks", list)):
        op = _declared(f"check {i}", check, "op", _OPS)
        keys = {**_OPS[op][1], **_CHECK_KEYS}
        check = {"op": op, **_load(f"check {i} ('{op}')", check, keys, scope)}
        if check["id"] is None:
            check["id"] = f"{i}:{op}"
        checks.append(check)

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

    def __init__(self, scene: Scene, plan: SamplePlan, mc_samples: int):
        self.scene = scene
        self.plan = plan
        self.mc_samples = mc_samples
        self.built: dict = {}  # name -> the structure, or the _Unbuilt it raises
        self.lookup = {"field": scene.fields.__getitem__,
                       "cone": scene.cones.__getitem__, "structure": self.structure}

    def resolve(self, spec: dict, keys: dict) -> dict:
        """The values of the declared ``keys`` in the coerced ``spec``, each
        reference looked up."""
        return {param: spec[param] if key.pool is None else self.lookup[key.pool](spec[param])
                for param, key in keys.items()}

    def structure(self, name: str):
        """The structure ``name``, built on first use; raises ``_Unbuilt``
        when it failed to build."""
        if name not in self.built:
            spec = self.scene.structures[name]
            builder, _, keys = _STRUCTURE_TYPES[spec["type"]]
            try:
                self.built[name] = builder(self, **self.resolve(spec, keys))
            except Exception as err:  # construction failures become failed reports
                why = (f"its base {err}" if isinstance(err, _Unbuilt)
                       else f"{type(err).__name__}: {err}")
                self.built[name] = _Unbuilt(f"structure '{name}' failed to build: {why}")
        if isinstance(self.built[name], _Unbuilt):
            raise self.built[name]
        return self.built[name]


@_structure("lch", LCHStructure, conn=_ref(ConnectionField), metric=_ref(MetricField),
            lee_form=_ref(OneFormField))
def _build_lch(ctx, **fields):
    return LCHStructure(ctx.scene.chart, **fields)


@_structure("statistical", StatisticalStructure, conn=_ref(ConnectionField),
            metric=_ref(MetricField))
def _build_statistical(ctx, **fields):
    return StatisticalStructure(ctx.scene.chart, **fields)


@_structure("cone", ConeStructure, base=_ref(object), lam=_LAMBDA,
            s_interval=_INTERVAL((0.5, 2.0)), tolerance=_POSITIVE(DEFAULT_TOLERANCE))
def _build_cone(ctx, base, lam, s_interval, tolerance):
    return build_cone_structure(base, lam, s_interval=s_interval, plan=ctx.plan,
                                tolerance=tolerance)


@_structure("mapping_torus", MappingTorus, base=_ref(object), automorphism=_MAP,
            scale=_ruled(torus_scale)(2.0), lam=_LAMBDA,
            tolerance=_POSITIVE(DEFAULT_TOLERANCE))
def _build_mapping_torus(ctx, base, automorphism, scale, lam, tolerance):
    return build_mapping_torus(base, automorphism, scale, lam, plan=ctx.plan,
                               tolerance=tolerance)


@_structure("cone_lch", LCHStructure, cone=_ref(ConeSpec), chart=_CHART(None))
def _build_cone_lch(ctx, cone, chart):
    return cone_lch_structure(cone, chart)


@_op("hessian", conn=_ref(ConnectionField), metric=_ref(MetricField))
def _op_hessian(ctx, tol, conn, metric):
    return [check_hessian_structure(conn, metric, ctx.plan, tol)]


@_op("radiant", conn=_ref(ConnectionField), field=_ref(VectorFieldT),
     lam=_CONSTANT(None, name="lambda"))
def _op_radiant(ctx, tol, conn, field, lam):
    return [check_radiant(conn, field, ctx.plan, tol, lam=lam)]


@_op("self_similar", metric=_ref(MetricField), field=_ref(VectorFieldT))
def _op_self_similar(ctx, tol, metric, field):
    return [check_self_similar(metric, field, ctx.plan, tol)]


@_op("potential_field", metric=_ref(MetricField), field=_ref(VectorFieldT))
def _op_potential_field(ctx, tol, metric, field):
    return [check_potential_field(metric, field, ctx.plan, tol)]


@_op("statistical", structure=_ref(StatisticalStructure))
def _op_statistical(ctx, tol, structure):
    return [check_statistical(structure, ctx.plan, tol)]


def _curvature_report(ctx, struct, name, tol):
    """The constant-curvature fit of ``struct`` as a report carrying c."""
    est = estimate_constant_curvature(struct, ctx.plan)
    return make_report(name, [est.residual], tol, samples=ctx.plan.count,
                       extra={"c": est.c})


@_op("curvature", structure=_ref(StatisticalStructure))
def _op_curvature(ctx, tol, structure):
    return [_curvature_report(ctx, structure, "curvature", tol)]


@_op("lch", structure=_ref(LCHStructure))
def _op_lch(ctx, tol, structure):
    return [check_lch(structure, ctx.plan, tol)]


_LEE_TERMS = ("killing", "radiant", "affine")  # each LeeConstants.<term>_residual


def _lee_residuals(consts) -> dict:
    return {f"{t}_residual": getattr(consts, f"{t}_residual") for t in _LEE_TERMS}


@_op("lee_identity", structure=_ref(LCHStructure))
def _op_lee_identity(ctx, tol, structure):
    consts = lee_constants(structure, ctx.plan)
    rep = lee_identity_residual(structure, consts, ctx.plan, tol)
    extra = {**rep.extra, "a": consts.a, "mu": consts.mu, **_lee_residuals(consts)}
    return [CheckReport(rep.name, rep.max_residual, rep.mean_residual, rep.tolerance,
                        rep.passed, rep.samples, extra, rep.notes)]


@_op("lee_constants", structure=_ref(LCHStructure), require=_choice(*_LEE_TERMS)("killing"))
def _op_lee_constants(ctx, tol, structure, require):
    consts = lee_constants(structure, ctx.plan)
    residuals = _lee_residuals(consts)
    extra = {"a": consts.a, "mu": consts.mu, "u": consts.u, **residuals}
    return [make_report(f"lee-{require}", [residuals[f"{require}_residual"]], tol,
                        samples=ctx.plan.count, extra=extra)]


@_op("koszul", structure=_ref(LCHStructure))
def _op_koszul(ctx, tol, structure):
    return [koszul_check(structure.conn, structure.lee_form, ctx.plan, tol)]


@_op("symmetry", structure=_ref(LCHStructure), map=_MAP)
def _op_symmetry(ctx, tol, structure, map):
    return [check_symmetry(structure, map, ctx.plan, tol)]


@_op("reports", structure=_ref(ConeStructure, MappingTorus))
def _op_reports(ctx, tol, structure):
    return list(structure.reports)


@_op("cone_restriction", structure=_ref(ConeStructure),
     curvature_tolerance=_POSITIVE(1e-4))
def _op_cone_restriction(ctx, tol, structure, curvature_tolerance):
    base = structure.base
    recovered = restrict_cone(structure, ctx.plan)

    def metric_residual(pts):
        gv = base.metric.eval(pts, 0).value
        return rel_residual(recovered.metric.eval(pts, 0).value - gv, gv)

    metric_rep = sample_check(metric_residual, base.chart, ctx.plan, tol,
                              name="restriction-metric")
    return [metric_rep, _curvature_report(ctx, recovered, "restriction-curvature",
                                          curvature_tolerance)]


@_op("surface", cone=_ref(ConeSpec), chart=_CHART, surface=_SURFACE,
     curvature_tolerance=_POSITIVE(1e-4))
def _op_surface(ctx, tol, cone, chart, surface, curvature_tolerance):
    struct = surface_statistical_structure(cone, surface, chart, plan=ctx.plan, tolerance=tol)
    stat = check_statistical(struct, ctx.plan, tol)
    return [stat, _curvature_report(ctx, struct, "surface-curvature", curvature_tolerance)]


# A Monte Carlo psi matches its expected value when the two lie within
# PSI_Z standard errors: a correct estimate then fails with two-sided
# probability PSI_FALSE_ALARM_RATE. The standard error comes from
# LATTICE_SHIFTS = 32 shift means, so PSI_Z is the 1 - PSI_FALSE_ALARM_RATE / 2
# quantile of Student's t with 31 degrees of freedom, written out so that no
# statistics package loads at run time.
PSI_FALSE_ALARM_RATE = 1e-6
PSI_Z = 6.0720


@_op("psi", cone=_ref(ConeSpec), point=_POINT,
     method=_choice("closed_form", "monte_carlo")("closed_form"),
     samples=_Key(monte_carlo_budget)(None), seed=_COUNT(None),
     expect_value=_CONSTANT(None))
def _op_psi(ctx, tol, cone, point, method, samples, seed, expect_value):
    samples = ctx.mc_samples if samples is None else samples
    seed = ctx.plan.seed if seed is None else seed
    psi = characteristic_function(cone, point, method, samples=samples, seed=seed)
    extra = {"value": psi.value, "stderr": psi.stderr}
    notes = (cone.describe(),)
    if not (math.isfinite(psi.value) and math.isfinite(psi.stderr)):
        residual, eff_tol = math.inf, tol
        notes += (f"psi is not finite at this point (value {psi.value}, "
                  f"stderr {psi.stderr})",)
    elif expect_value is not None:
        residual = abs(psi.value - expect_value)
        eff_tol = max(tol, PSI_Z * psi.stderr)
        extra["expected"] = expect_value
        if psi.stderr > 0:
            extra["z_score"] = residual / psi.stderr
    else:
        residual, eff_tol = 0.0, tol
    return [make_report(f"psi-{method}", [residual], eff_tol, samples=psi.samples,
                        extra=extra, notes=notes)]


@_op("homogeneity", cone=_ref(ConeSpec), point=_POINT,
     factors=_FACTORS((0.5, 2.0, 7.0)))
def _op_homogeneity(ctx, tol, cone, point, factors):
    x = np.asarray(point)
    base = characteristic_function(cone, x).value
    residuals = []
    for t in factors:
        scaled = characteristic_function(cone, t * x).value
        residuals.append(abs(scaled * t ** cone.dim - base) / (1.0 + abs(base)))
    return [make_report("psi-homogeneity", residuals, tol,
                        samples=len(residuals), extra={"value": base})]


@_op("barrier", cone=_ref(ConeSpec), count=_POSITIVE_COUNT(50))
def _op_barrier(ctx, tol, cone, count):
    pts = sample_interior(cone, count, seed=ctx.plan.seed)
    # the report carries the smallest eigenvalue over every sample, so every
    # eigenvalue is computed (once) and no certificate can spare one
    smallest, gaps = eigenvalue_definiteness(log_psi_metric(cone, pts))
    eig = float(smallest.min())
    return [make_report("barrier-definiteness", gaps, tol,
                        samples=pts.shape[0], extra={"smallest_eigenvalue": eig})]


@_op("monodromy", structure=_ref(MappingTorus), expect_rank=_COUNT)
def _op_monodromy(ctx, tol, structure, expect_rank):
    return [check_monodromy(structure, expect_rank, ctx.plan, tol)]


@_op("perturbation", structure=_ref(LCHStructure), alpha=_ref(OneFormField),
     min_eps=_POSITIVE(1e-3))
def _op_perturbation(ctx, tol, structure, alpha, min_eps):
    eps = lee_perturbation_probe(structure, alpha, ctx.plan, tol)
    notes = []
    if eps >= min_eps:
        half = perturbed_structure(structure, alpha, eps / 2.0, ctx.plan, tol)
        inner = check_lch(half, ctx.plan, tol)
        residuals = [inner.max_residual]
        notes.append(f"re-checked at eps = {eps / 2.0!r}")
    else:
        residuals = [1.0]
        notes.append(f"probe stopped below min_eps = {min_eps!r}")
    return [make_report("perturbation-probe", residuals, tol, samples=ctx.plan.count,
                        extra={"eps_max": eps, "min_eps": min_eps}, notes=notes)]


def _expectation_notes(check: dict, reports) -> list[str]:
    """Why ``reports`` miss the check's expectations: an ``expect`` bound that
    no report carries or that a value falls outside, and under ``expect_fail``
    a non-finite residual (a NaN or a crash is not a numerical failure)."""
    notes = []
    for key, (lo, hi) in check["expect"].items():
        carriers = [r for r in reports if key in r.extra]
        if not carriers:
            notes.append(f"expectation on '{key}': no report carries it")
        for r in carriers:
            val = float(r.extra[key])
            if not lo <= val <= hi:
                notes.append(f"expectation on '{key}': {val!r} outside [{lo!r}, {hi!r}]")
    if check["expect_fail"]:
        notes += [f"expect_fail: report '{r.name}' has a non-finite max_residual "
                  f"({r.max_residual!r})"
                  for r in reports if not math.isfinite(r.max_residual)]
    return notes


def run_suite(scene: Scene, plan: SamplePlan | None = None,
              tolerance: float | None = None,
              mc_samples: int = PSI_SAMPLES) -> Report:
    """Execute every declared check; a check is ok when its reports land on
    the expected side of the tolerance (``expect_fail`` flips the sense) and
    every ``expect`` bound on the report extras holds. A check whose op
    raised or whose structure failed to build reports an infinite residual,
    so it is never ok: under ``expect_fail`` no report may be non-finite.
    A ``tolerance`` override, which replaces every check's, is read as the
    scene key is: a positive constant (inf included), else a SceneError; so
    is ``mc_samples``, as the psi op's ``samples``: an integer of at least
    LATTICE_SHIFTS."""
    plan = plan or SamplePlan()
    if tolerance is not None:
        tolerance = positive_constant(tolerance, "run_suite", "tolerance")
    monte_carlo_budget(mc_samples, "run_suite", "mc_samples")
    ctx = _Context(scene, plan, mc_samples)
    out = Report(
        scene=scene.name,
        version=__version__,
        seed=plan.seed,
        count=plan.count,
        margin=plan.margin,
        tolerance=DEFAULT_TOLERANCE if tolerance is None else tolerance,
        checks=[],
    )
    try:
        for i, check in enumerate(scene.checks):
            op = check["op"]
            tol = check["tolerance"] if tolerance is None else tolerance
            handler, keys = _OPS[op]
            try:
                reports = handler(ctx, tol, **ctx.resolve(check, keys))
            except _Unbuilt as err:
                reports = [make_report(f"{op}-unavailable", [math.inf], tol, samples=0,
                                       notes=err.args)]
            except Exception as err:
                reports = [make_report(f"{op}-error", [math.inf], tol, samples=0,
                                       notes=(f"{type(err).__name__}: {err}",))]
            notes = _expectation_notes(check, reports)
            record = {
                "index": i,
                "id": check["id"],
                "op": op,
                "expect_fail": check["expect_fail"],
                "ok": all(r.passed for r in reports) != check["expect_fail"] and not notes,
                "reports": [r.as_dict() for r in reports],
            }
            if notes:
                record["expectation_notes"] = notes
            out.checks.append(record)
    finally:  # the suite's sampled points and field tensors, even when interrupted
        drop_held_points()
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
                mc_samples: int = PSI_SAMPLES) -> Report:
    return run_suite(load_example(name), plan, tolerance, mc_samples)
