"""Smoke test of ``tools/equivalence.py`` on its reduced grid: the script runs,
repeats its own fingerprints, and ``--compare`` flags a changed array."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "tools/equivalence.py", "--reduced", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_reduced_grid_repeats_and_compare_flags_a_change(tmp_path):
    first = tmp_path / "first.json"
    run = _run("--out", str(first))
    assert run.returncode == 0, run.stderr[-2000:]
    arrays = json.loads(first.read_text())["arrays"]
    kinds = {name.split("/")[5] for name in arrays}
    assert {"Q1", "embed", "evaluate_links", "attention_report"} <= kinds
    assert all(len(a["sha256"]) == 64 for a in arrays.values())

    # a second run must repeat every array but the one changed here
    changed = sorted(arrays)[0]
    payload = json.loads(first.read_text())
    payload["arrays"][changed]["sha256"] = "0" * 64
    payload["arrays"]["extra/array"] = payload["arrays"][changed]
    first.write_text(json.dumps(payload))
    run = _run("--compare", str(first))
    assert run.returncode == 1, run.stderr[-2000:]
    assert f"differ  {changed} " in run.stdout and "missing extra/array" in run.stdout
    assert (f"{len(arrays) - 1} of {len(arrays) + 1} arrays byte-equal, 1 differ, "
            "1 in one file only") in run.stdout
