"""Regenerate the golden reports that ``tests/test_golden.py`` compares against.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

The acceptance set is 43 reports: the 10 bundled examples at seeds 1, 3 and
42 (200 samples), ``hopf`` and ``sphere_cone`` at 20 000 samples (seed 42),
the dense round-sphere scenes of dims 2 and 3 at seeds 1, 3 and 7 (200
samples), and the scenes of ``SCENE_CASES`` at 200 samples. Each report is
written as ``Report.to_json`` to ``reports/``.

``SCENE_CASES`` cover what no bundled scene reaches: the ``self_similar``
and ``potential_field`` ops, an explicit connection with torsion, a metric
that leaves its domain on part of the chart, polyhedral and product cones,
``cos`` and a non-integer power, and a product cone's interior sampler and
default chart. They are not bundled,
because the benchmark's ``examples`` workload runs every bundled scene.

The six dense scene inputs are committed under ``scenes/``. A missing one is
made with the benchmark's ``dense_scene``, seeded as the benchmark seeds its
``dense_curvature`` workload: one generator per seed, dims in order. The
benchmark module is imported read-only; nothing is written under ``bench/``.

A change that moves report values regenerates these files and lists the
moved values in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from hesslab.geomcore import SamplePlan
from hesslab.scenes import list_examples, load_example, load_scene, run_suite

HERE = Path(__file__).resolve().parent
SCENES = HERE / "scenes"
REPORTS = HERE / "reports"
WORKLOADS = HERE.parent.parent / "bench" / "workloads.py"

EXAMPLE_SEEDS = (1, 3, 42)
WIDE = (("hopf", "sphere_cone"), 20_000, 42)
DENSE_DIMS = (2, 3)
DENSE_SEEDS = (1, 3, 7)
SCENE_CASES = (("self_similar_potential", 42), ("torsion_connection", 42), ("domain_error", 11),
               ("polyhedral_product_cones", 42), ("reach_gaps", 42))


def dense_path(dim: int, seed: int) -> Path:
    return SCENES / f"dense_d{dim}_s{seed}.json"


def cases() -> dict[str, tuple]:
    """Report name -> (example name or dense scene path, sample count, seed)."""
    out = {}
    for seed in EXAMPLE_SEEDS:
        for name in list_examples():
            out[f"{name}_s{seed}"] = (name, 200, seed)
    names, count, seed = WIDE
    for name in names:
        out[f"{name}_n{count}_s{seed}"] = (name, count, seed)
    for seed in DENSE_SEEDS:
        for dim in DENSE_DIMS:
            out[f"dense_d{dim}_s{seed}"] = (dense_path(dim, seed), 200, seed)
    for name, seed in SCENE_CASES:
        out[f"{name}_s{seed}"] = (SCENES / f"{name}.json", 200, seed)
    return out


def run(case: tuple) -> str:
    """The JSON report of one case."""
    source, count, seed = case
    scene = load_scene(source) if isinstance(source, Path) else load_example(source)
    return run_suite(scene, SamplePlan(count=count, seed=seed)).to_json()


def write_dense_scenes() -> None:
    """Write each missing dense scene input from the benchmark's generator."""
    if all(dense_path(d, s).exists() for d in DENSE_DIMS for s in DENSE_SEEDS):
        return
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    for seed in DENSE_SEEDS:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        for k, dim in enumerate(DENSE_DIMS):
            # draw every dim, so the dim-3 scene sees the benchmark's stream
            data = workloads.dense_scene(dim, rng, f"dense_d{dim}_{k}")
            path = dense_path(dim, seed)
            if not path.exists():
                path.write_text(json.dumps(data, indent=2) + "\n")


def main() -> None:
    SCENES.mkdir(exist_ok=True)
    REPORTS.mkdir(exist_ok=True)
    write_dense_scenes()
    for name, case in cases().items():
        (REPORTS / f"{name}.json").write_text(run(case) + "\n")
        print(name)


if __name__ == "__main__":
    main()
