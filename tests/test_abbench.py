"""tools/abbench.py: the working tree against ``HEAD``, one short pair per call.

Both sides run the same code apart from uncommitted edits, so every check
passes and ``test_ap`` is equal; the file must hold the fields a change's
``BENCH_<n>.json`` is read for.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

pytestmark = pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                                reason="needs a git checkout")


def abbench(tmp_path, workload):
    out = tmp_path / "BENCH.json"
    run = subprocess.run(
        [sys.executable, "tools/abbench.py", "HEAD", "--out", str(out), "--pairs", "1",
         "--seconds", "1", "--workloads", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return run, json.loads(out.read_text())


def test_one_pair_against_head(tmp_path):
    run, bench = abbench(tmp_path, "embed-l2")
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
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


def test_a_failed_run_exits_1(tmp_path):
    # run.py rejects an unknown workload before printing metrics
    run, bench = abbench(tmp_path, "no-such-workload")
    assert run.returncode == 1
    assert bench["all_runs_ok"] is False
    w = bench["workloads"]["no-such-workload"]
    assert all(m is None for m in w["metrics"].values()) and w["test_ap_equal"] is False
    assert [w["runs"][0][side]["exit"] for side in ("base", "change")] == [2, 2]
