"""tools/abbench.py: the working tree against ``HEAD``, one short pair per call,
and its verdict on fabricated runs.

Both sides run the same code apart from uncommitted edits, so every check
passes and ``test_ap`` is equal; the file must hold the fields a change's
``BENCH_<n>.json`` is read for.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPECS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = [m["name"] for m in SPECS]

_spec = importlib.util.spec_from_file_location("abbench", ROOT / "tools" / "abbench.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

needs_git = pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                               reason="needs a git checkout")


def abbench(tmp_path, workload):
    out = tmp_path / "BENCH.json"
    run = subprocess.run(
        [sys.executable, "tools/abbench.py", "HEAD", "--out", str(out), "--pairs", "1",
         "--seconds", "1", "--workloads", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return run, json.loads(out.read_text())


@needs_git
def test_one_pair_against_head(tmp_path):
    run, bench = abbench(tmp_path, "embed-l2")
    # one 1-second pair may put a noisy metric outside its bound; that, and
    # only that, exits 1 here
    assert run.returncode == (1 if tool.failures(bench) else 0), \
        run.stdout[-2000:] + run.stderr[-2000:]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert bench["base"] == {"ref": "HEAD", "commit": head}
    assert bench["change"]["commit"] == head
    assert bench["env"]["nproc"] >= 1 and bench["env"]["numpy"] and bench["env"]["blas"]
    assert set(bench["env"]["blas_threads"].values()) == {"1"}
    assert (bench["pairs"], bench["seconds"], bench["seeds"]) == (1, 1.0, [301])
    assert bench["all_runs_ok"] is True
    w = bench["workloads"]["embed-l2"]
    assert w["test_ap_equal"] is True
    assert set(w["metrics"]) == set(METRICS)
    for m in w["metrics"].values():
        assert m["pairs"] == 1 and m["change_wins"] in (0, 1)
        assert m["base"]["q1"] <= m["base"]["median"] <= m["base"]["q3"]
        assert isinstance(m["within_bound"], bool) and m["bound"] > 0
    assert w["metrics"]["test_ap"]["within_bound"] is True
    (pair,) = w["runs"]
    assert pair["seed"] == 301 and pair["first"] == "base"
    for side in ("base", "change"):
        assert pair[side]["ok"] and pair[side]["exit"] == 0 and pair[side]["failed_checks"] == []
        assert pair[side]["failed"] == 0 and pair[side]["attempted"] > 0


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_change_side_is_a_snapshot_of_the_working_tree(tmp_path):
    # a repository with a committed, a modified, a deleted, an untracked and
    # an ignored file, and a compiled module
    repo, dest = tmp_path / "repo", tmp_path / "snapshot"
    (repo / "src" / "__pycache__").mkdir(parents=True)
    files = {".gitignore": "__pycache__/\n*.log\n", "kept.py": "a = 1\n",
             "src/changed.py": "b = 1\n", "gone.py": "c = 1\n"}
    for name, text in files.items():
        (repo / name).write_text(text)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "changed.py").write_text("b = 2\n")
    (repo / "gone.py").unlink()
    (repo / "src" / "new.py").write_text("d = 1\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "src" / "__pycache__" / "changed.cpython.pyc").write_bytes(b"\0")
    tool.snapshot(repo, dest)
    taken = sorted(str(f.relative_to(dest)) for f in dest.rglob("*") if f.is_file())
    assert taken == [".gitignore", "kept.py", "src/changed.py", "src/new.py"]
    assert (dest / "src" / "changed.py").read_text() == "b = 2\n"
    assert (dest / "src" / "new.py").read_text() == "d = 1\n"


@needs_git
def test_a_failed_run_exits_1(tmp_path):
    # run.py rejects an unknown workload before printing metrics
    run, bench = abbench(tmp_path, "no-such-workload")
    assert run.returncode == 1
    assert bench["all_runs_ok"] is False
    w = bench["workloads"]["no-such-workload"]
    assert all(m is None for m in w["metrics"].values()) and w["test_ap_equal"] is False
    assert [w["runs"][0][side]["exit"] for side in ("base", "change")] == [2, 2]


# one base run's metrics; pair k reads them times 1 + k / 100 on both sides
BASE = {"setup_s": 0.002, "op_ms": 15.0, "infer_per_s": 2700.0, "test_ap": 0.6,
        "peak_rss_mb": 80.0}


def fabricated(ratios: dict, change_ok: bool = True) -> dict:
    """A record of one workload and three pairs, summarized as abbench does,
    whose change runs read the base runs' metrics times ``ratios``."""
    def side(k, ratio_of, ok=True):
        return {"ok": ok, "metrics": {name: value * (1 + k / 100) * ratio_of(name)
                                      for name, value in BASE.items()}}
    pairs = [{"base": side(k, lambda name: 1.0),
              "change": side(k, lambda name: ratios.get(name, 1.0), change_ok)}
             for k in range(3)]
    metrics = {spec["name"]: tool.summarize(pairs, spec) for spec in SPECS}
    return {"all_runs_ok": change_ok, "workloads": {"train-l2": {"metrics": metrics}}}


@pytest.mark.parametrize("ratios, failing", [
    ({}, []),
    # worse, but within the bound
    ({"op_ms": 1.2, "infer_per_s": 0.8, "peak_rss_mb": 1.14, "setup_s": 1.24}, []),
    # better by far more than any bound
    ({"op_ms": 0.5, "infer_per_s": 2.0, "peak_rss_mb": 0.5, "test_ap": 1.5}, []),
    ({"op_ms": 1.3}, ["op_ms"]),
    ({"infer_per_s": 0.7}, ["infer_per_s"]),
    ({"peak_rss_mb": 1.16, "test_ap": 0.75}, ["test_ap", "peak_rss_mb"]),
], ids=["equal", "worse-within", "better", "slower-op", "fewer-inferences", "rss-and-ap"])
def test_a_metric_outside_its_bound_fails(ratios, failing):
    record = fabricated(ratios)
    reasons = tool.failures(record)
    assert [line.split(":")[0] for line in reasons] == [f"train-l2 {name}" for name in failing]
    assert all(record["workloads"]["train-l2"]["metrics"][name]["within_bound"] is (
        name not in failing) for name in METRICS)


def test_a_failed_run_fails_and_a_missing_metric_is_skipped():
    record = fabricated({"op_ms": 1.3}, change_ok=False)
    record["workloads"]["embed-l2"] = {"metrics": {name: None for name in METRICS}}
    reasons = tool.failures(record)
    assert reasons[0] == "a run failed a check or exited non-zero"
    assert reasons[1:] == ["train-l2 op_ms: 15.15 -> 19.695 ms is worse by more than "
                           "its bound, 24%"]
