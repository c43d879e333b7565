"""Benchmark workloads: inputs made from a seed, one verdict, and its known answer.

Import this module only once ``src/`` is on ``sys.path``. A workload is a
list of scenes. Each scene is run as a user runs it:
load -> ``run_suite`` -> ``Report.to_json``, in process, and through
``python -m hesslab.cli``. Every check of every report is audited against a
known answer that does not trust ``run_suite``'s own ``ok`` alone.

Workloads (closed loop, one caller, sequential):

- ``examples``: the 10 bundled scenes at the default plan (200 samples,
  ``mc_samples`` 1e6). Cost is spread over per-node jet overhead, tree building
  while checks run, the Monte Carlo psi, the bisection probe and, for the CLI,
  import time.
- ``dense_curvature``: generated round-sphere metrics pulled back by a seeded
  linear map at dims 2 and 3, with D = Levi-Civita. Shared subtrees of the
  Christoffel trees are re-evaluated for every parent, so this stresses jet
  evaluation of large trees with little distinct work.
- ``wide_samples``: ``hopf`` and ``sphere_cone`` at 20 000 samples. Trees are
  small and arrays are large, so jet array arithmetic and residual algebra
  dominate, while parsing and per-node overhead are negligible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hesslab import scenes
from hesslab.geomcore import SamplePlan

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("examples", "dense_curvature", "wide_samples")

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

# Dim 4 takes about 12x a dim-3 scene on the parent code (27.6 s per scene),
# which does not fit a run; a later change that makes it cheap can add it.
DENSE_DIMS = (2, 3)
WIDE_SCENES = ("hopf", "sphere_cone")
WIDE_SAMPLES = 20_000

# Known answers of the generated dense scenes, by check id.
CURVATURE_RANGE = (0.99999, 1.00001)


@dataclass(frozen=True)
class Item:
    """One scene of a workload, with how to run it in process and by CLI."""

    label: str
    example: str | None  # bundled example name, or None for a generated file
    path: Path | None
    count: int
    seed: int

    def cli_args(self) -> list[str]:
        head = (["example", self.example] if self.example
                else ["check", str(self.path)])
        return head + ["--samples", str(self.count), "--seed", str(self.seed)]


def dense_scene(dim: int, rng: np.random.Generator, label: str) -> dict:
    """The round sphere metric 4 Q / (1 + y^T Q y)^2 with Q = A^T A,
    A = I + 0.3 U(0, 1): curvature 1 in any seeded linear chart.

    U(0, 1) rather than U(-1, 1) keeps every entry of Q positive. A negative
    literal parses as a ``Neg`` node, and its sign pattern would change the
    shape of the Christoffel trees, so the cost of a scene would depend on
    the seed instead of only on the dimension."""
    a = np.eye(dim) + 0.3 * rng.uniform(0.0, 1.0, (dim, dim))
    q = a.T @ a
    quad = " + ".join(
        f"({float(q[i, j])!r})*x{i}*x{j}" for i in range(dim) for j in range(dim)
    )
    den = f"(1 + {quad})^2"
    entries = [[f"4*({float(q[i, j])!r})/{den}" for j in range(dim)]
               for i in range(dim)]
    return {
        "name": label,
        "description": "round sphere metric pulled back by a seeded linear map",
        "chart": {"dim": dim, "box": [[-0.5, 0.5]] * dim},
        "fields": {
            "g": {"type": "metric", "entries": entries},
            "D": {"type": "connection", "levi_civita_of": "g"},
            "flat": {"type": "connection", "flat": True},
        },
        "structures": {"S": {"type": "statistical", "conn": "D", "metric": "g"}},
        "checks": [
            {"id": "statistical", "op": "statistical", "structure": "S"},
            {"id": "curvature", "op": "curvature", "structure": "S",
             "expect": {"c": list(CURVATURE_RANGE)}},
            {"id": "flat-not-hessian", "op": "hessian", "conn": "flat",
             "metric": "g", "expect_fail": True},
        ],
    }


def items(workload: str, seed: int) -> list[Item]:
    """The scenes of one pass; the seed drives SamplePlan.seed and any
    generated input. Generated scene files are written by ``materialize``."""
    if workload == "examples":
        return [Item(name, name, None, 200, seed) for name in EXAMPLES]
    if workload == "wide_samples":
        return [Item(name, name, None, WIDE_SAMPLES, seed) for name in WIDE_SCENES]
    if workload == "dense_curvature":
        return [
            Item(f"dense_d{dim}_{k}", None,
                 OUT / f"dense_s{seed}_d{dim}_{k}.json", 200, seed)
            for k, dim in enumerate(DENSE_DIMS)
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def materialize(workload: str, seed: int) -> None:
    """Write the generated scene files of a workload (none for bundled ones)."""
    if workload != "dense_curvature":
        return
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    for item, dim in zip(items(workload, seed), DENSE_DIMS):
        data = dense_scene(dim, rng, item.label)
        item.path.write_text(json.dumps(data, indent=2))


def load(item: Item) -> scenes.Scene:
    if item.example:
        return scenes.load_example(item.example)
    return scenes.load_scene(item.path)


def verdict(item: Item, scene=None) -> tuple[scenes.Report, str]:
    """Load (unless given), run every check, serialize: what a user waits for."""
    scene = load(item) if scene is None else scene
    report = scenes.run_suite(scene, SamplePlan(count=item.count, seed=item.seed))
    return report, report.to_json()


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------


def _dense_expectations(check: dict) -> list[str]:
    """Independent of run_suite's verdict: the geometry fixes each answer."""
    problems = []
    reports = check["reports"]
    if check["id"] == "statistical":
        if not all(r["passed"] for r in reports):
            problems.append("Levi-Civita pair is not statistical")
    elif check["id"] == "curvature":
        lo, hi = CURVATURE_RANGE
        cs = [r["extra"].get("c") for r in reports]
        if not cs or not all(c is not None and lo <= c <= hi for c in cs):
            problems.append(f"curvature {cs} outside [{lo}, {hi}]")
    elif check["id"] == "flat-not-hessian":
        if not all(r["max_residual"] > r["tolerance"] for r in reports):
            problems.append("flat connection passed the Hessian gate")
    else:
        problems.append(f"unexpected check id {check['id']!r}")
    return problems


def audit(item: Item, report) -> list[str]:
    """Problems with one report; each failing check contributes one entry.

    A check fails when its ``ok`` is wrong for the known answer (every bundled
    check is expected ok), when it carries an ``<op>-error`` or
    ``<op>-unavailable`` report, or when any ``max_residual`` is non-finite.
    The last two catch a crash or a NaN that ``run_suite`` would count as ok.
    """
    problems = []
    expected = 3 if item.example is None else None
    if expected is not None and len(report.checks) != expected:
        problems.append(f"{item.label}: {len(report.checks)} checks, expected {expected}")
    for check in report.checks:
        why = []
        if check["ok"] is not True:
            why.append("not ok")
        for rep in check["reports"]:
            name = rep["name"]
            if name.endswith("-error") or name.endswith("-unavailable"):
                why.append(f"{name}: {'; '.join(rep['notes'])}")
            if not math.isfinite(rep["max_residual"]):
                why.append(f"{name}: non-finite max_residual")
        if item.example is None:
            why.extend(_dense_expectations(check))
        if why:
            problems.append(f"{item.label}/{check['id']}: {', '.join(why)}")
    return problems
