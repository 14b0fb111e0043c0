"""Layered benchmark of the sweep pipeline: one command, three workloads.

    python3 perfbench/run.py --workload engine_cover|drain_many|serve_mixed \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` every per-layer metric.  Each
printed line gives a metric's name, value, unit and sample count; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  See ``perfbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
#: scratch space for stores, spec files and span files, inside the checkout
WORK_ROOT = REPO / ".perfbench_work"


def main(argv: list[str] | None = None) -> int:
    """Run one workload once and print its metrics."""
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("engine_cover", "drain_many", "serve_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {REPO / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # the harness (and the serve_mixed client threads) keeps to the last
    # CPU; program processes pin themselves from CPU 0 (launcher.py --cpu)
    os.sched_setaffinity(0, {(os.cpu_count() or 1) - 1})
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    from perfbench.common import emit
    from perfbench.workloads import WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        outcome, metrics = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(outcome, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
