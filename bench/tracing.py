"""Spans around hesslab's public functions, recorded from outside the package.

``Tracer.install`` replaces each wrapped function in every hesslab module that
holds it (``evaluate`` is imported by name into geomcore, hesstat, cones and
lch, for example) and the two methods ``_Field.eval`` and ``Report.to_json``;
``uninstall`` puts the originals back. A span is ``[name, tag, start, end,
parent]``; spans stay in memory until ``write``. A layer's self time is its
spans' durations minus the parts their child spans cover.

Recursive functions (``diff``, ``substitute``, ``det_expression``, the scene
loaders) record only their outermost call, so tracing does not dominate the
workloads that recurse deeply.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

_CHILD_FIELDS = {
    "Neg": ("arg",),
    "Add": ("left", "right"),
    "Sub": ("left", "right"),
    "Mul": ("left", "right"),
    "Div": ("left", "right"),
    "Pow": ("base", "exponent"),
    "Call": ("arg",),
}

# Spans that do the tracer's own bookkeeping; they are subtracted from their
# parents' self time and reported only as part of the tracing overhead.
BOOKKEEPING = "trace.bookkeeping"


class TreeStats:
    """Size of an expression tree as evaluated today (every occurrence of a
    shared subtree counts) against its structurally distinct nodes."""

    def __init__(self):
        self._nodes: dict[int, tuple] = {}  # id -> (node, canon, size, leaves)
        self._roots: dict[int, tuple] = {}  # id -> (root, size, distinct, leaves)
        self._intern: dict[tuple, int] = {}

    def _visit(self, root) -> None:
        nodes = self._nodes
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in nodes:
                continue
            kind = type(node).__name__
            kids = [getattr(node, f) for f in _CHILD_FIELDS.get(kind, ())]
            if not ready:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in nodes)
                continue
            info = [nodes[id(k)] for k in kids]
            if kind == "Num":
                key, leaves = (kind, node.value), 1
            elif kind == "Var":
                key, leaves = (kind, node.index), 1
            else:
                extra = (node.func,) if kind == "Call" else ()
                key = (kind,) + extra + tuple(i[1] for i in info)
                leaves = sum(i[3] for i in info)
            canon = self._intern.setdefault(key, len(self._intern))
            nodes[id(node)] = (node, canon, 1 + sum(i[2] for i in info), leaves)

    def of(self, root) -> tuple[int, int, int]:
        """(tree nodes, distinct nodes, Num/Var leaf occurrences)."""
        hit = self._roots.get(id(root))
        if hit is not None:
            return hit[1:]
        self._visit(root)
        seen, canons, stack = set(), set(), [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            canons.add(self._nodes[id(node)][1])
            stack.extend(getattr(node, f)
                         for f in _CHILD_FIELDS.get(type(node).__name__, ()))
        _, _, size, leaves = self._nodes[id(root)]
        self._roots[id(root)] = (root, size, len(canons), leaves)
        return size, len(canons), leaves


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._restore: list[tuple] = []
        self._trees = TreeStats()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, tag) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        self._depth[name] += 1
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def wrap(self, fn, name: str, *, outermost=False, tag=None, after=None):
        """``tag(*args, **kwargs)`` names a sub-span and may count; ``after``
        sees the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and self._depth[name]:
                return fn(*args, **kwargs)
            label = tag(*args, **kwargs) if tag else None
            self.counts[f"{name}.calls"] += 1
            idx = self._open(name, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after:
                after(result)
            return result

        return traced

    # -- hooks -----------------------------------------------------------------

    def _on_evaluate(self, tree, pts, order):
        idx = self._open(BOOKKEEPING, None)
        size, distinct, leaves = self._trees.of(tree)
        self._close(idx)
        self.counts["jets.evaluate.points"] += len(pts)
        self.counts["jets.tree_nodes"] += size
        self.counts["jets.distinct_nodes"] += distinct
        self.counts["jets.leaf_nodes"] += leaves
        return f"o{order}"

    def _on_psi(self, cone, x, method="closed_form", samples=1_000_000, seed=42):
        if method == "monte_carlo":
            self.counts["cones.psi.mc.samples"] += int(samples)
            return "mc"
        return "closed"

    def _on_check_lch(self, *args, **kwargs):
        if self._depth["lch.probe"]:
            self.counts["lch.probe.candidates"] += 1

    def _on_report(self, text):
        self.counts["scenes.report_bytes"] += len(text.encode())

    def _sample_check(self, fn):
        """``sample_check`` with its residual function timed as the calling
        module's check work, and per-point re-evaluations counted."""

        @functools.wraps(fn)
        def traced(residual_fn, *args, **kwargs):
            layer = residual_fn.__module__.rpartition(".")[2] + ".checks"
            calls = 0

            def residual(pts):
                nonlocal calls
                calls += 1
                idx = self._open(layer, None)
                try:
                    return residual_fn(pts)
                finally:
                    self._close(idx)

            self.counts["geomcore.sample_check.calls"] += 1
            idx = self._open("geomcore.sample_check", None)
            try:
                return fn(residual, *args, **kwargs)
            finally:
                self._close(idx)
                self.counts["geomcore.sample_check.fallback_points"] += max(calls - 1, 0)

        return traced

    # -- patching --------------------------------------------------------------

    def _replace(self, module, attr: str, wrapped) -> None:
        orig = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("hesslab"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, orig))

    def install(self) -> None:
        from hesslab import cones, expr, geomcore, hesstat, jets, lch, scenes

        functions = [
            (expr, "parse_expression", "expr.parse", {}),
            (expr, "diff", "expr.diff", {"outermost": True}),
            (expr, "substitute", "expr.substitute", {"outermost": True}),
            (jets, "evaluate", "jets.evaluate", {"tag": self._on_evaluate}),
            (geomcore, "levi_civita", "geomcore.levi_civita", {}),
            (geomcore, "det_expression", "geomcore.det", {"outermost": True}),
            (geomcore, "adjugate_expressions", "geomcore.det", {"outermost": True}),
            (hesstat, "build_cone_structure", "hesstat.cone_build", {}),
            (hesstat, "level_set_statistical", "hesstat.level_set", {}),
            (cones, "characteristic_function", "cones.psi", {"tag": self._on_psi}),
            (cones, "surface_statistical_structure", "cones.induced", {}),
            (cones, "cone_lch_structure", "cones.induced", {}),
            (lch, "build_mapping_torus", "lch.mapping_torus", {}),
            (lch, "lee_perturbation_probe", "lch.probe", {}),
            (lch, "check_lch", "lch.checks", {"tag": self._on_check_lch}),
            (scenes, "load_example", "scenes.load", {"outermost": True}),
            (scenes, "load_scene", "scenes.load", {"outermost": True}),
            (scenes, "scene_from_dict", "scenes.load", {"outermost": True}),
            (scenes, "run_suite", "scenes.run_suite", {}),
        ]
        functions += [(geomcore, n, "geomcore.tensor", {})
                      for n in vars(geomcore) if n.endswith("_batch")]
        functions += [(hesstat, n, "hesstat.checks", {}) for n in (
            "check_hessian_structure", "check_radiant", "check_self_similar",
            "check_potential_field", "check_statistical",
            "estimate_constant_curvature", "potential_identity_residual",
            "duality_residual_batch")]
        functions += [(lch, n, "lch.checks", {}) for n in (
            "koszul_check", "check_symmetry", "lee_constants",
            "lee_identity_residual")]
        for module, attr, name, kw in functions:
            self._replace(module, attr, self.wrap(getattr(module, attr), name, **kw))
        self._replace(geomcore, "sample_check", self._sample_check(geomcore.sample_check))
        methods = [
            (geomcore._Field, "eval", self.wrap(geomcore._Field.eval, "geomcore.field_eval")),
            (scenes.Report, "to_json",
             self.wrap(scenes.Report.to_json, "scenes.to_json", after=self._on_report)),
        ]
        for cls, attr, wrapped in methods:
            self._restore.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, and per ``name.tag`` where tagged."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, tag, start, end, _), child in zip(self.spans, covered):
            own = end - start - child
            out[name] += own
            if tag:
                out[f"{name}.{tag}"] += own
        return dict(out)


def write(path, passes: list[Tracer], meta: dict) -> None:
    """Write every traced pass's spans and counters as one JSON document."""
    doc = dict(meta)
    doc["span_fields"] = ["name", "tag", "start", "end", "parent"]
    doc["passes"] = [{"counts": dict(t.counts), "spans": t.spans} for t in passes]
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
