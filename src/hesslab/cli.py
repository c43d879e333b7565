"""Command-line front end: run scene files, bundled examples, and psi queries.

Exit codes: 0 when every check passed, 1 when some check failed or a psi
value is not finite, 2 for usage, parse, or validation errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .cones import (
    LATTICE_SHIFTS,
    PSI_SAMPLES,
    ConeError,
    MonteCarloDivergenceError,
    characteristic_function,
    cone_from_spec,
)
from .geomcore import SamplePlan
from .scenes import (
    SceneError,
    list_examples,
    load_example,
    load_scene,
    monte_carlo_budget,
    positive_constant,
    run_suite,
    strict_json,
)

_MC_SAMPLES_HELP = (f"Monte Carlo budget for psi: {LATTICE_SHIFTS} shifts of a lattice of "
                    f"budget // {LATTICE_SHIFTS} points (default {PSI_SAMPLES}, "
                    f"at least {LATTICE_SHIFTS})")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=None,
                        help="override every per-check tolerance")
    parser.add_argument("--samples", type=int, default=200,
                        help="sample points per check (default 200)")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for sampling and Monte Carlo (default 42)")
    parser.add_argument("--margin", type=float, default=0.05,
                        help="chart boundary margin in (0, 0.5) (default 0.05)")
    parser.add_argument("--mc-samples", type=int, default=PSI_SAMPLES,
                        help=_MC_SAMPLES_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesslab",
        description="Check Hessian, statistical, and locally conformally "
                    "Hessian structures declared in JSON scene files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the checks of a scene file")
    p_check.add_argument("scene", help="path to a scene JSON file")
    _add_run_flags(p_check)

    p_example = sub.add_parser("example", help="run a bundled example scene")
    p_example.add_argument("name", help="example name (see 'examples')")
    _add_run_flags(p_example)

    sub.add_parser("examples", help="list the bundled example scenes")

    p_cone = sub.add_parser("cone", help="convex-cone utilities")
    cone_sub = p_cone.add_subparsers(dest="cone_command", required=True)
    p_psi = cone_sub.add_parser("psi", help="evaluate the characteristic function")
    p_psi.add_argument("spec", help="cone spec: orthant(n), lorentz(n), or JSON")
    p_psi.add_argument("point", help="comma-separated coordinates, e.g. 2,3")
    p_psi.add_argument("--method", choices=("closed_form", "monte_carlo"),
                       default="closed_form")
    p_psi.add_argument("--seed", type=int, default=42)
    p_psi.add_argument("--mc-samples", type=int, default=PSI_SAMPLES,
                       help=_MC_SAMPLES_HELP)
    return parser


def _plan(args) -> SamplePlan:
    return SamplePlan(count=args.samples, seed=args.seed, margin=args.margin)


def _run_scene(scene, args) -> int:
    tol = args.tol if args.tol is None else positive_constant(args.tol, "command line", "--tol")
    mc_samples = monte_carlo_budget(args.mc_samples, "command line", "--mc-samples")
    report = run_suite(scene, _plan(args), tol, mc_samples)
    print(report.to_json())
    return 0 if report.all_ok else 1


def _cmd_check(args) -> int:
    return _run_scene(load_scene(args.scene), args)


def _cmd_example(args) -> int:
    return _run_scene(load_example(args.name), args)


def _cmd_examples(args) -> int:
    for name in list_examples():
        print(name)
    return 0


def _cmd_psi(args) -> int:
    monte_carlo_budget(args.mc_samples, "command line", "--mc-samples")
    cone = cone_from_spec(args.spec)
    try:
        point = [float(v) for v in args.point.replace(" ", "").split(",") if v]
    except ValueError:
        raise SceneError(f"cannot parse point {args.point!r}: "
                         "expected comma-separated numbers") from None
    try:
        psi = characteristic_function(cone, point, args.method,
                                      samples=args.mc_samples, seed=args.seed)
    except MonteCarloDivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(strict_json({
        "cone": cone.describe(),
        "point": point,
        "method": psi.method,
        "value": psi.value,
        "stderr": psi.stderr,
    }))
    if not (math.isfinite(psi.value) and math.isfinite(psi.stderr)):
        print(f"error: psi is not finite at {point} (value {psi.value}, "
              f"stderr {psi.stderr})", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits with 2 on usage errors already; normalize the rest
        return int(err.code or 0)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "example":
            return _cmd_example(args)
        if args.command == "examples":
            return _cmd_examples(args)
        if args.command == "cone":
            return _cmd_psi(args)
    except (SceneError, ConeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
