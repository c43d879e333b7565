"""Fresh-interpreter probe for one workload, started by run.py.

Prints one JSON line: ``setup_s`` is the time from interpreter start-up being
done to ``import hesslab`` plus loading every scene of the workload (parsing
and the Levi-Civita build included). With ``--pass`` it then runs one pass
and adds ``peak_rss_mb``, the process's peak resident set size.

    python3 bench/child.py WORKLOAD SEED [--pass]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hesslab  # noqa: E402,F401
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--pass", dest="one_pass", action="store_true")
    args = parser.parse_args()
    items = workloads.items(args.workload, args.seed)
    scenes = [workloads.load(item) for item in items]
    out = {"setup_s": time.perf_counter() - T0}
    if args.one_pass:
        for item, scene in zip(items, scenes):
            workloads.verdict(item, scene)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
