"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-l1 --seed 0 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` the last line of standard
output is a JSON object holding the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run. Lines before it give the
environment and the metrics under the names README.md uses. The exit code is
non-zero when any correctness check fails.
"""

import os
import sys

# pin the BLAS pool before numpy is imported anywhere
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
# measured on the traced set-up, not on the traced unit of work
SETUP_LAYER_METRICS = ("temporal_graph.build.s", "temporal_graph.load_graph.s",
                       "layer.load_checkpoint.s")


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tgat").is_dir():
        print(f"no tgat sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    print("env " + json.dumps(environment(args)), flush=True)
    work_dir = WORK_DIR / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    out = WORKLOADS[args.workload].run(args.seed, args.seconds, bool(args.trace), work_dir)

    for name, ok in out.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, (value, unit) in out.report.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    if args.trace and out.metrics:
        wall = out.metrics["trace.wall_s"][0]
        for name, (value, unit) in out.metrics.items():
            in_work = unit == "s" and name not in SETUP_LAYER_METRICS and name != "trace.wall_s"
            share = f" ({value / wall:.1%} of traced work)" if in_work else ""
            print(f"{args.workload} {name} = {value!r} {unit}{share}")
    correct = all(ok for _, ok in out.checks) and bool(out.metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
