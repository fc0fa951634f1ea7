"""Benchmark entry point.

    python3 lpbench/run.py --workload train-validate --seed 0 --seconds 20 --trace 0

``--workload`` is one of ``train-validate``, ``ref-checkpoint``,
``train-live``, or ``all`` (each in turn, in this one process).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.

``--compare OLD.json NEW.json`` prints one result file against another
and refuses when they come from different hosts.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits with status 2.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-validate", "ref-checkpoint", "train-live")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpbench")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="small",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result files (same host only)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"lpbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from lpbench.host import clear_ambient_env

    cleared = clear_ambient_env()

    if args.setup_probe:
        from lpbench.flows import WORKLOADS, Bench

        Bench(WORKLOADS[args.workload], args.seed, scale=args.scale).setup()
        print(time.perf_counter() - _T0)
        return 0

    from lpbench import metrics
    from lpbench.host import compare, load_result

    if args.compare:
        old, new = (load_result(Path(p)) for p in args.compare)
        return compare(old, new, metrics.END_TO_END + metrics.PER_LAYER)

    from lpbench.runner import run_workload

    if cleared:
        print(f"[lpbench] cleared {', '.join(cleared)}")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [
        run_workload(name, args.seed, args.seconds, bool(args.trace),
                     scale=args.scale)
        for name in names
    ]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}:{k}": v
                for r in results for k, v in r["metrics"].items()
            },
        }
    if not final["metrics"]:
        print("lpbench: no op succeeded; no metrics", file=sys.stderr)
        return 1
    summary = {k: final[k] for k in ("correct", "attempted", "failed",
                                      "metrics")}
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
