"""hesslab benchmark: time to verdict, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: median over fresh interpreters of ``import hesslab`` plus
  loading the workload's scenes;
- ``peak_rss_mb``: peak RSS of a fresh interpreter that ran one pass;
- ``pass_s``: one in-process pass over the workload's scenes, as the sum of
  each scene's median verdict time;
- ``verdict_s.p50`` / ``verdict_s.p90``: each scene's median time from load
  to serialized report, at the 50th / 90th percentile over the scenes;
- ``cli_s.p50``: each scene's median wall time through
  ``python -m hesslab.cli``, at the 50th percentile over the scenes;
- ``checks_attempted``: checks in one pass.

Passes repeat for ``--seconds`` after one warm-up pass; then the setup
probes and the CLI runs follow, a fixed number of each. On a small shared
machine other tenants slow the CPU by up to half for seconds to minutes at a
time, so every timing is paired with a gauge that does not touch hesslab,
read just before and just after it. A timing divided by the mean of its two
gauge readings does not move when the whole machine slows down; times are
reported as the median of these ratios times the gauge's typical reading on
a quiet machine, in "reference seconds". An in-process verdict pairs with
``reference_s``, a fixed Python and numpy loop; a fresh interpreter (setup
probe or CLI run) pairs with ``child_gauge_s``, a fresh interpreter that
imports numpy and reads ``reference_s`` once, because start-up and imports
slow down differently from a warm loop. The run and every process it starts
are pinned to one CPU, so that a gauge and the timing it pairs with share a
core. The raw wall times are printed on the ``#`` lines.

``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports per-layer self times (median over traced passes) and counts (they
repeat exactly from pass to pass), the import cost ``cli.import_s`` and
``trace.overhead_s``, traced minus untraced median pass. It prints every layer
metric as a table, and writes the spans to ``.bench_out/``.

Every report is audited against its known answer (see ``workloads.audit``),
every pass must reproduce the first pass's bytes, and the CLI's stdout must
equal the in-process ``to_json()``; each violation counts as failed.
"""

import os

# One BLAS/OpenMP thread here and in every process started below, so runs on
# a small shared machine do not fight over cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # fresh interpreters for setup_s; the last also runs a pass
IMPORT_PROBES = 5  # pairs of (import hesslab, bare start) for cli.import_s
MIN_PASSES = 6  # timed passes, even when they outlast --seconds
MIN_TRACED = 3  # pairs of untraced and traced passes in a traced run
CLI_RUNS = 4  # CLI runs per run, cycling over the scenes; at least one each
GROUP_S = 0.2  # scenes timed back to back before the next gauge reading
CHILD_TIMEOUT = 150
# Typical readings of reference_s() and child_gauge_s() on a quiet 2-core
# Xeon: the units in which times are reported (see "Reference seconds" in
# NOTES.md).
REF_SECONDS = 0.070
REF_CHILD_SECONDS = 0.28

END_TO_END = {
    "pass_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "setup_s": "s",
    "cli_s.p50": "s",
    "peak_rss_mb": "MB",
    "checks_attempted": "count",
}

# Per-layer metrics in the result line: counts, and self times that every
# workload exercises. A time that is zero on some workload by construction
# (its layer is bypassed there) is printed in the table only.
PER_LAYER = {
    "expr.parse.calls": "count",
    "expr.parse.self_s": "s",
    "expr.diff.calls": "count",
    "expr.diff.self_s": "s",
    "jets.evaluate.calls": "count",
    "jets.evaluate.points": "count",
    "jets.evaluate.self_s": "s",
    "jets.evaluate.o0.self_s": "s",
    "jets.evaluate.o1.self_s": "s",
    "jets.tree_nodes": "count",
    "jets.distinct_nodes": "count",
    "jets.sharing_ratio": "ratio",
    "jets.leaf_nodes": "count",
    "geomcore.field_eval.calls": "count",
    "geomcore.field_eval.self_s": "s",
    "geomcore.tensor.self_s": "s",
    "geomcore.levi_civita.self_s": "s",
    "geomcore.det.self_s": "s",
    "geomcore.sample_check.calls": "count",
    "geomcore.sample_check.self_s": "s",
    "geomcore.sample_check.fallback_points": "count",
    "hesstat.checks.self_s": "s",
    "cones.psi.calls": "count",
    "cones.psi.mc.samples": "count",
    "lch.probe.candidates": "count",
    "scenes.load.self_s": "s",
    "scenes.run_suite.self_s": "s",
    "scenes.to_json.self_s": "s",
    "scenes.report_bytes": "count",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

TABLE_ONLY = {
    "expr.substitute.self_s": "s",
    "jets.evaluate.o2.self_s": "s",
    "jets.evaluate.o3.self_s": "s",
    "hesstat.cone_build.self_s": "s",
    "hesstat.level_set.self_s": "s",
    "cones.psi.mc.self_s": "s",
    "cones.psi.closed.self_s": "s",
    "cones.induced.self_s": "s",
    "lch.checks.self_s": "s",
    "lch.mapping_torus.self_s": "s",
    "lch.probe.self_s": "s",
}


class Tally:
    """Checks attempted and failed, with the first few reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.reasons.extend(problems[: max(0, 20 - len(self.reasons))])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - start, proc


def _quantile(values: list[float], q: float) -> float:
    """Quantile at rank q (n + 1), clamped to the data, with linear
    interpolation between order statistics; p90 of 10 scenes leans on the
    slowest one and never extrapolates past it."""
    xs = sorted(values)
    pos = min(max(q * (len(xs) + 1), 1.0), float(len(xs))) - 1.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def _gauge_tree(leaves: int):
    """A binary tree of nested pairs with ``leaves`` leaves, split 1:2."""
    if leaves == 1:
        return None
    left = max(1, leaves // 3)
    return (_gauge_tree(left), _gauge_tree(leaves - left))


# The gauge's tree walk by workload: the number of leaves and the shape of
# the array at each leaf. Many small arrays follow per-node work at 200
# samples; a few arrays of 20 000 3x3 matrices follow the memory traffic of
# jets at 20 000 samples. Each reading takes about REF_SECONDS on a quiet
# machine.
GAUGE_TREES = {
    "examples": (20_000, (200,)),
    "dense_curvature": (20_000, (200,)),
    "wide_samples": (150, (20_000, 3, 3)),
}
_GAUGE = None
READINGS: list[float] = []  # every reading of reference_s() in this run


def use_gauge(workload: str) -> None:
    """Build the gauge's inputs for a workload; reference_s() then reads it."""
    global _GAUGE
    import numpy as np

    leaves, shape = GAUGE_TREES[workload]
    _GAUGE = (_gauge_tree(leaves), np.random.default_rng(0).random(shape),
              np.random.default_rng(1).random((20_000, 3, 3)))


def reference_s() -> float:
    """Wall time of a fixed gauge of the machine's speed that does not touch
    hesslab: a recursive walk over a tree with numpy arithmetic at each node,
    much as jets evaluate an expression, and a few einsums over 20 000 3x3
    matrices, as the residual algebra does. The tree is the one use_gauge
    chose, or the one for ``examples``."""
    import numpy as np

    if _GAUGE is None:
        use_gauge("examples")
    tree, small, large = _GAUGE

    def walk(node):
        if node is None:
            return small
        return walk(node[0]) * 0.5 + walk(node[1]) * 0.5

    start = time.perf_counter()
    walk(tree)
    for _ in range(4):
        np.einsum("mij,mjk->mik", large, large)
    elapsed = time.perf_counter() - start
    READINGS.append(elapsed)
    return elapsed


def child_gauge_s() -> float:
    """Wall time of a fresh interpreter that imports numpy and this file and
    reads reference_s() once: the gauge for timings of fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; run.reference_s()"
    wall, proc = _run_child([sys.executable, "-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"gauge process failed: {proc.stderr.strip()[-500:]}")
    return wall


def run_scale() -> float:
    """Reference seconds per wall second: REF_SECONDS over the median gauge
    reading of this run."""
    scale = REF_SECONDS / statistics.median(READINGS)
    print(f"#   run scale {scale:.4f}: median gauge "
          f"{statistics.median(READINGS):.4f} s of {len(READINGS)}")
    return scale


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Passes:
    """Repeated passes over a workload, audited and compared byte for byte."""

    def __init__(self, items, tally: Tally):
        self.items = items
        self.tally = tally
        self.first_texts: list[str] | None = None
        self.checks_per_pass = 0

    def run(self) -> tuple[list[float], list[float]]:
        """One pass: each scene's wall time, and the same over the mean of
        the gauge readings around its group. Scenes are timed back to back
        until GROUP_S has passed, then the gauge is read again."""
        import workloads

        gc.collect()
        times, ratios, results = [], [], []
        group: list[float] = []
        gauge = reference_s()
        for k, item in enumerate(self.items):
            t0 = time.perf_counter()
            results.append(workloads.verdict(item))
            group.append(time.perf_counter() - t0)
            if sum(group) >= GROUP_S or k == len(self.items) - 1:
                after = reference_s()
                times.extend(group)
                ratios.extend(t / ((gauge + after) / 2) for t in group)
                group, gauge = [], after
        self._check(results)
        return times, ratios

    def _check(self, results) -> None:
        import workloads

        texts = [text for _, text in results]
        for item, (report, _) in zip(self.items, results):
            self.tally.add(len(report.checks), workloads.audit(item, report))
        if self.first_texts is None:
            self.first_texts = texts
            self.checks_per_pass = sum(len(report.checks) for report, _ in results)
            return
        problems = [f"{item.label}: report bytes differ from the first pass"
                    for item, a, b in zip(self.items, self.first_texts, texts) if a != b]
        self.tally.add(len(texts), problems)


def cli_run(item, text: str, tally: Tally) -> float:
    """One scene through the CLI; stdout must equal to_json() plus a newline.
    Returns the wall time."""
    wall, proc = _run_child([sys.executable, "-m", "hesslab.cli", *item.cli_args()])
    problems = []
    if proc.returncode != 0:
        problems.append(f"{item.label}: CLI exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-200:]}")
    elif proc.stdout != text + "\n":
        problems.append(f"{item.label}: CLI stdout differs from to_json()")
    tally.add(1, problems)
    return wall


def setup_probe(workload: str, seed: int, one_pass: bool) -> dict:
    """One fresh interpreter (see child.py); returns what it printed."""
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed)]
    if one_pass:
        argv.append("--pass")
    _, proc = _run_child(argv)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    import workloads

    items = workloads.items(workload, seed)
    passes = Passes(items, tally)
    passes.run()  # warm-up: lazy imports and first-call costs
    walls, ratios = [[] for _ in items], [[] for _ in items]
    n_passes = 0
    deadline = time.perf_counter() + seconds
    while n_passes < MIN_PASSES or time.perf_counter() < deadline:
        for k, (t, r) in enumerate(zip(*passes.run())):
            walls[k].append(t)
            ratios[k].append(r)
        n_passes += 1

    # Fresh interpreters, setup probes and CLI runs alternating, each between
    # two readings of the child gauge (shared with its neighbours).
    rounds = max(1, -(-CLI_RUNS // len(items)))
    queues = ([("setup", k) for k in range(SETUP_PROBES)],
              [("cli", k) for _ in range(rounds) for k in range(len(items))])
    jobs = []
    while any(queues):
        jobs.extend(queue.pop(0) for queue in queues if queue)
    setups, setup_walls = [], []
    cli, cli_walls = [[] for _ in items], [[] for _ in items]
    rss = 0.0
    before = child_gauge_s()
    for kind, k in jobs:
        if kind == "setup":
            out = setup_probe(workload, seed, k == SETUP_PROBES - 1)
            wall = out["setup_s"]
            rss = out.get("peak_rss_mb", rss)
        else:
            wall = cli_run(items[k], passes.first_texts[k], tally)
        after = child_gauge_s()
        ratio = wall / ((before + after) / 2)
        before = after
        if kind == "setup":
            setups.append(ratio)
            setup_walls.append(wall)
        else:
            cli[k].append(ratio)
            cli_walls[k].append(wall)

    scene = [REF_SECONDS * statistics.median(r) for r in ratios]
    cli_scene = [REF_CHILD_SECONDS * statistics.median(c) for c in cli]
    print(f"# {workload} seed {seed}: {n_passes} timed passes of {len(items)} "
          f"scenes, {len(setups)} setup probes, {rounds} CLI runs per scene")
    print("#   pass wall " + " ".join(f"{sum(w[p] for w in walls):.4f}"
                                      for p in range(n_passes)))
    print("#   setup wall " + " ".join(f"{t:.4f}" for t in setup_walls))
    for k, item in enumerate(items):
        print(f"#   {item.label:28s} verdict {scene[k]:.4f} ref s "
              f"(median wall {statistics.median(walls[k]):.4f} s), CLI {cli_scene[k]:.4f} "
              f"ref s (median wall {statistics.median(cli_walls[k]):.4f} s)")
    return {
        "pass_s": sum(scene),
        "verdict_s.p50": _quantile(scene, 0.5),
        "verdict_s.p90": _quantile(scene, 0.9),
        "setup_s": REF_CHILD_SECONDS * statistics.median(setups),
        "cli_s.p50": _quantile(cli_scene, 0.5),
        "peak_rss_mb": rss,
        "checks_attempted": passes.checks_per_pass,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def import_cost() -> float:
    """Median of (python -c 'import hesslab') - (python -c 'pass')."""
    diffs = []
    for _ in range(IMPORT_PROBES):
        with_import, _ = _run_child([sys.executable, "-c", "import hesslab"])
        bare, _ = _run_child([sys.executable, "-c", "pass"])
        diffs.append(with_import - bare)
    return statistics.median(diffs)


def layer_metrics(tracer) -> dict:
    out = dict(tracer.counts)
    out.update({f"{name}.self_s": t for name, t in tracer.self_times().items()})
    nodes = out.get("jets.tree_nodes", 0)
    out["jets.sharing_ratio"] = out.get("jets.distinct_nodes", 0) / nodes if nodes else 0.0
    return out


def traced_run(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    import tracing
    import workloads

    items = workloads.items(workload, seed)
    import_s = import_cost()
    passes = Passes(items, tally)
    deadline = time.perf_counter() + seconds
    passes.run()  # warm-up, as in the untraced run
    # Pass times in reference seconds, paired with the gauge as in the
    # untraced run.
    plain, traced, tracers = [], [], []
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        plain.append(REF_SECONDS * sum(passes.run()[1]))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(REF_SECONDS * sum(passes.run()[1]))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    per_pass = [layer_metrics(t) for t in tracers]
    names = set(PER_LAYER) | set(TABLE_ONLY)
    # Counts repeat exactly from pass to pass; times take the median pass
    # (the lower of the middle two, so that a count stays a whole number).
    out = {name: statistics.median_low(m.get(name, 0) for m in per_pass)
           for name in names if name not in ("cli.import_s", "trace.overhead_s")}
    out["cli.import_s"] = import_s

    workloads.OUT.mkdir(exist_ok=True)
    path = workloads.OUT / f"trace_{workload}_seed{seed}.json"
    tracing.write(path, tracers, {"workload": workload, "seed": seed,
                                  "untraced_pass_s": plain, "traced_pass_s": traced})
    print(f"# {workload} seed {seed}: {len(traced)} traced and {len(plain)} "
          f"untraced passes; spans in {path.relative_to(ROOT)}")
    units = {**PER_LAYER, **TABLE_ONLY}
    scale = run_scale()
    out = {name: scale * v if units[name] == "s" else v for name, v in out.items()}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name in sorted(units):
        print(f"#   {name:40s} {out[name]:>14.6g} {units[name]}")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def environment() -> str:
    import numpy
    import scipy

    cpu = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"nproc {os.cpu_count()}, {cpu}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hesslab" / "__init__.py").is_file():
        print(f"error: no hesslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hesslab
    import workloads

    if Path(hesslab.__file__).resolve().parent != SRC / "hesslab":
        print(f"error: imported hesslab from {hesslab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # One CPU for this process and every process it starts: the gauge and
    # the timings it pairs with then share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    use_gauge(args.workload)
    workloads.materialize(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        values, units = traced_run(args.workload, args.seed, args.seconds, tally), PER_LAYER
    else:
        values, units = timed_run(args.workload, args.seed, args.seconds, tally), END_TO_END
    print(f"# {environment()}")
    print(f"# checks attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_ratio {tally.failed / max(tally.attempted, 1):.6g}")
    for reason in tally.reasons:
        print(f"#   FAILED {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
