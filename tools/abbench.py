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

Before the runs, the change side's ``tools/equivalence.py`` (full grid) runs
in each tree with that tree's ``src/`` on ``PYTHONPATH``, and its fingerprints
are compared: the record holds the array count, how many are byte-equal, and
the first 20 names that differ or are on one side only. It is skipped, with
the reason recorded, when both trees' ``src/tgat/*.py`` are byte-identical.
It does not change the exit code: a change that moves numeric outputs is read
from the record, not failed on it.

The output file holds both commits, each side's ``src/tgat`` line count and
code-line count (``src_code_lines``: no blank, comment-only or docstring
line), the equivalence record, the environment of the runs (core count, numpy,
BLAS and its thread variables), every run's end-to-end metrics, and per
workload and metric: each side's median and quartiles, in how many pairs the
change was better, the ``BENCHMARK.json`` bound and whether the change's
median is within it, judged in the metric's ``better`` direction; whether the
change's gain is resolved, that is, the change is better in at least 9 of 10
pairs (a tie counts for neither side) and its median is better than the base's
by more than the base's quartile spread; whether the change is resolved to be
worse, the mirror of a resolved gain (worse in at least 9 of 10 pairs, and a
median worse by more than the base's quartile spread), which a metric can be
while within its bound; and whether ``test_ap`` was equal in every pair. The
exit code is 1 when any run failed a check, exited non-zero or printed no
metrics, or when a metric's change median is outside its bound; each reason is
printed to stderr.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 301
# the fields of run.py's env line that describe the host, not the run
ENV = ("nproc", "cpus_usable", "python", "numpy", "blas", "blas_threads")
# the tokens that make no line a code line
NO_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER)


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


def src_lines(root: Path) -> int:
    """The lines of the package's modules in the tree at ``root``: what
    ``cat src/tgat/*.py | wc -l`` prints there."""
    return sum(f.read_bytes().count(b"\n") for f in (root / "src" / "tgat").glob("*.py"))


def src_code_lines(root: Path) -> int:
    """The code lines of the package's modules in the tree at ``root``: the
    lines that are neither blank nor comment-only and that ``ast`` does not
    place in a module, class or function docstring, so that deleting a
    docstring or a comment does not count as deleting code."""
    total = 0
    for f in (root / "src" / "tgat").glob("*.py"):
        text = f.read_text(encoding="utf-8")
        code = set()  # the lines a token other than a comment reaches
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in NO_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = text.splitlines()
        total += sum(1 for n in code if lines[n - 1].strip())
    return total


def same_package(base: Path, change: Path) -> bool:
    """Whether the two trees' ``src/tgat/*.py`` are byte-identical, so that
    their numeric outputs cannot differ."""
    def modules(root: Path) -> dict[str, bytes]:
        return {f.name: f.read_bytes() for f in (root / "src" / "tgat").glob("*.py")}
    return modules(base) == modules(change)


def equivalence_summary(base: dict, change: dict, shown: int = 20) -> dict:
    """Two runs' fingerprints (array name -> its ``sha256`` and more) compared:
    the array count, how many are byte-equal, and the first ``shown`` names
    that differ or are in one run only."""
    differ = sorted(name for name in base.keys() & change.keys()
                    if base[name]["sha256"] != change[name]["sha256"])
    one_side = sorted(base.keys() ^ change.keys())
    arrays = len(base.keys() | change.keys())
    return {"arrays": arrays, "byte_equal": arrays - len(differ) - len(one_side),
            "differ": len(differ), "one_side": len(one_side),
            "differ_names": differ[:shown], "one_side_names": one_side[:shown]}


def equivalence(roots: dict[str, Path], tmp: Path) -> dict:
    """The change side's ``tools/equivalence.py`` run in each tree, compared;
    skipped when the two packages are byte-identical."""
    if same_package(roots["base"], roots["change"]):
        return {"skipped": "src/tgat/*.py is byte-identical on both sides"}
    script = roots["change"] / "tools" / "equivalence.py"
    prints = {}
    for side, root in roots.items():
        out = tmp / f"equivalence-{side}.json"
        proc = subprocess.run([sys.executable, str(script), "--out", str(out)], cwd=root,
                              env={**os.environ, "PYTHONPATH": str(root / "src")},
                              capture_output=True, text=True, timeout=3600)
        if proc.returncode != 0:
            return {"failed": side, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
        prints[side] = json.loads(out.read_text())["arrays"]
    return equivalence_summary(prints["base"], prints["change"])


def equivalence_line(record: dict) -> str:
    if "skipped" in record:
        return f"equivalence: skipped, {record['skipped']}"
    if "failed" in record:
        return f"equivalence: FAILED on the {record['failed']} side, exit {record['exit']}"
    return (f"equivalence: {record['byte_equal']} of {record['arrays']} arrays byte-equal, "
            f"{record['differ']} differ, {record['one_side']} on one side only")


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
    wins = sum(sign * (c - b) > 0 for b, c in both)  # a tie is no side's win
    losses = sum(sign * (c - b) < 0 for b, c in both)
    base_spread = base["q3"] - base["q1"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "base": base,
        "change": change,
        "ratio": change["median"] / base["median"] if base["median"] else None,
        "change_wins": wins,
        "pairs": len(both),
        "bound": spec["bound"],
        "within_bound": bool(gap >= -spec["bound"] * abs(base["median"])),
        "gain_resolved": bool(10 * wins >= 9 * len(both) and gap > base_spread),
        "worse_resolved": bool(10 * losses >= 9 * len(both) and -gap > base_spread),
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
        "src_lines": {},
        "src_code_lines": {},
        "equivalence": {},
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
        record["src_lines"].update((side, src_lines(root)) for side, root in roots.items())
        record["src_code_lines"].update((side, src_code_lines(root))
                                        for side, root in roots.items())
        record["equivalence"] = equivalence(roots, Path(tmp))
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

    print(f"src/tgat lines: {record['src_lines']['base']} -> {record['src_lines']['change']}")
    print(f"src/tgat code lines: {record['src_code_lines']['base']} -> "
          f"{record['src_code_lines']['change']}")
    print(equivalence_line(record["equivalence"]))
    for workload, w in record["workloads"].items():
        for name, m in w["metrics"].items():
            if m is not None:
                print(f"{workload} {name}: {m['base']['median']:.6g} -> "
                      f"{m['change']['median']:.6g} {m['unit']} (change better in "
                      f"{m['change_wins']} of {m['pairs']}; "
                      f"{'within' if m['within_bound'] else 'OUTSIDE'} its bound; gain "
                      f"{'resolved' if m['gain_resolved'] else 'not resolved'}; worse "
                      f"{'resolved' if m['worse_resolved'] else 'not resolved'})")
        print(f"{workload} test_ap equal in every pair: {w['test_ap_equal']}")
    reasons = failures(record)
    for line in reasons:
        print(line, file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
