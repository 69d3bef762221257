"""Run the benchmark on a base commit and on the working tree, in alternating pairs.

    python tools/abbench.py HEAD~1 --out BENCH_<n>.json

Run from the repository root; a change's evidence goes to ``BENCH_<n>.json``
there. ``<base-ref>`` is exported with ``git archive`` into a temporary
directory, so no worktree is made and ``.git`` is left as it is. The change is
the working tree, uncommitted edits included: its tracked files and its
untracked files that are not ignored are copied into a temporary directory of
their own, so the two sides differ in code only, not in path or ``.pyc``
state. For each workload of
``BENCHMARK.json`` the script runs ``--pairs`` pairs of the declared command
(``perfbench/run.py``) with ``--trace 0``, one run on each side, each side
with its own ``perfbench/`` and ``src/``. Pair k uses seed 301 + k; the base
runs first in even pairs and the change in odd ones. Each run's ``env`` line,
``check`` lines, final JSON line and exit code are read.

The output file holds both commits, the environment of the runs (core count,
numpy, BLAS and its thread variables), every run's end-to-end metrics, and per
workload and metric: each side's median and quartiles, in how many pairs the
change was better, the ``BENCHMARK.json`` bound and whether the change's
median is within it, judged in the metric's ``better`` direction; and whether
``test_ap`` was equal in every pair. The exit code is 1 when any run failed a
check, exited non-zero or printed no metrics, or when a metric's change
median is outside its bound; each reason is printed to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 301
# the fields of run.py's env line that describe the host, not the run
ENV = ("nproc", "cpus_usable", "python", "numpy", "blas", "blas_threads")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def snapshot(root: Path, dest: Path) -> None:
    """Copy the files of the working tree at ``root`` that git tracks, as they
    are on disk, and the untracked ones it does not ignore, into ``dest``. A
    tracked file deleted from the tree is left out."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=root, capture_output=True, check=True).stdout.split(b"\0")
    for name in filter(None, names):
        src = root / os.fsdecode(name)
        if src.is_file():
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def run_once(root: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``root``: its metrics, failed checks and environment."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=600 + 30 * seconds)
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = {}
    failed_checks = [line[len("check FAIL "):] for line in lines if line.startswith("check FAIL")]
    ok = proc.returncode == 0 and not failed_checks and last.get("correct") is True
    return {
        "exit": proc.returncode,
        "ok": ok,
        "failed_checks": failed_checks,
        "attempted": last.get("attempted"),
        "failed": last.get("failed"),
        "metrics": {name: m["value"] for name, m in last.get("metrics", {}).items()},
        "env": next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {}),
        "stderr": "" if ok else proc.stderr[-2000:],
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: dict) -> dict | None:
    """Both sides' spread of one end-to-end metric, the change's wins and its bound."""
    name = spec["name"]
    both = [(p["base"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
            if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
    if not both:
        return None
    sign = 1.0 if spec["better"] == "higher" else -1.0
    base, change = spread([b for b, _ in both]), spread([c for _, c in both])
    gap = sign * (change["median"] - base["median"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "base": base,
        "change": change,
        "ratio": change["median"] / base["median"] if base["median"] else None,
        "change_wins": sum(sign * (c - b) > 0 for b, c in both),
        "pairs": len(both),
        "bound": spec["bound"],
        "within_bound": bool(gap >= -spec["bound"] * abs(base["median"])),
    }


def failures(record: dict) -> list[str]:
    """Why the change fails, one line per reason: a run that failed a check,
    exited non-zero or printed no metrics, and each metric whose change
    median is outside its bound. Empty when the change passes."""
    lines = [] if record["all_runs_ok"] else ["a run failed a check or exited non-zero"]
    for workload, w in record["workloads"].items():
        for name, m in w["metrics"].items():
            if m is not None and not m["within_bound"]:
                lines.append(f"{workload} {name}: {m['base']['median']:.6g} -> "
                             f"{m['change']['median']:.6g} {m['unit']} is worse by more "
                             f"than its bound, {m['bound']:.0%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_ref", help="the commit to compare the working tree against")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--workloads", help="comma-separated workload names (default: all)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    workloads = ([w["name"] for w in bench["workloads"]] if args.workloads is None
                 else args.workloads.split(","))
    base_commit = git("rev-parse", "--verify", f"{args.base_ref}^{{commit}}")
    record = {
        "base": {"ref": args.base_ref, "commit": base_commit},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_edits": bool(git("status", "--porcelain"))},
        "env": {},
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": [FIRST_SEED + k for k in range(args.pairs)],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        roots = {side: Path(tmp) / side for side in ("base", "change")}
        export(base_commit, roots["base"])
        snapshot(ROOT, roots["change"])
        for workload in workloads:
            pairs = []
            for k, seed in enumerate(record["seeds"]):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], bench["command"], workload, seed, seconds)
                    env = pair[side].pop("env")
                    record["env"] = record["env"] or {key: env[key] for key in ENV if key in env}
                pairs.append(pair)
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{side} {'ok' if pair[side]['ok'] else 'FAILED'} "
                    f"op_ms={pair[side]['metrics'].get('op_ms')}" for side in order), flush=True)
            aps = [(p["base"]["metrics"].get("test_ap"), p["change"]["metrics"].get("test_ap"))
                   for p in pairs]
            record["workloads"][workload] = {
                "metrics": {spec["name"]: summarize(pairs, spec) for spec in bench["end_to_end"]},
                "test_ap_equal": all(b is not None and b == c for b, c in aps),
                "runs": pairs,
            }
    runs = [p[side] for w in record["workloads"].values() for p in w["runs"]
            for side in ("base", "change")]
    record["all_runs_ok"] = all(run["ok"] for run in runs)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for workload, w in record["workloads"].items():
        for name, m in w["metrics"].items():
            if m is not None:
                print(f"{workload} {name}: {m['base']['median']:.6g} -> "
                      f"{m['change']['median']:.6g} {m['unit']} (change better in "
                      f"{m['change_wins']} of {m['pairs']}; "
                      f"{'within' if m['within_bound'] else 'OUTSIDE'} its bound)")
        print(f"{workload} test_ap equal in every pair: {w['test_ap_equal']}")
    reasons = failures(record)
    for line in reasons:
        print(line, file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
