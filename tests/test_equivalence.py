"""Smoke test of ``tools/equivalence.py`` on its reduced grid: the script runs,
fingerprints a short training run per configuration, stores its arrays beside
its fingerprints, repeats them, and ``--compare`` flags and sizes a changed
array."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "tools/equivalence.py", "--reduced", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def test_reduced_grid_repeats_and_compare_flags_a_change(tmp_path):
    first = tmp_path / "first.json"
    run = _run("--out", str(first))
    assert run.returncode == 0, run.stderr[-2000:]
    arrays = json.loads(first.read_text())["arrays"]
    kinds = {name.split("/")[5] for name in arrays
             if "/train/" not in name and not name.startswith(("kernel/", "negatives/"))}
    assert {"Q1", "Q1-generator", "embed", "embed_stream", "evaluate_links",
            "attention_report", "checkpoint"} <= kinds
    # the time encoding read outside the model: the kernel check and estimates
    assert {"kernel/check/k4096/errors", "kernel/check/k4096/trial_sup_errors",
            "kernel/estimate/ladder", "kernel/estimate/signed"} <= set(arrays)
    # the negative sampler on inputs where most draws collide
    assert {f"negatives/N{n}-R{rows}/{part}" for n in (1, 2, 3) for rows in (0, 1, 2000)
            for part in ("values", "next")} <= set(arrays)
    assert arrays["negatives/N2-R2000/values"]["shape"] == [2000]
    # one short train() run per graph, layer count and attention mode
    trained = {name.split("/train/")[0] for name in arrays if "/train/" in name}
    assert trained == {f"{graph}/L{layers}/{mode}" for graph in ("tiny", "random-de2")
                       for layers in (1, 2) for mode in ("learned", "constant", "positional")}
    assert all(arrays[f"{config}/train/history"]["shape"] == [2, 4] for config in trained)
    assert all(f"{config}/train/checkpoint" in arrays for config in trained)
    assert all(any(name.startswith(f"{config}/train/param/") for name in arrays)
               for config in trained)
    assert all(len(a["sha256"]) == 64 for a in arrays.values())
    with np.load(tmp_path / "first.npz") as stored:
        values = dict(stored)
    assert sorted(values) == sorted(arrays)
    assert all(_sha256(a) == arrays[name]["sha256"] for name, a in values.items())

    # a second run must repeat every array but the two changed here, the
    # largest entry of each scaled by 1 + rel
    payload = json.loads(first.read_text())
    forward = next(name for name in sorted(arrays) if "/embed/" in name)
    gradient = next(name for name in sorted(arrays)
                    if "/grad/" in name and arrays[name]["max_abs"] > 0)
    for name, rel in ((forward, 1e-9), (gradient, 1e-6)):
        changed = values[name].copy()
        changed.flat[np.abs(changed).argmax()] *= 1 + rel
        values[name] = changed
        payload["arrays"][name]["sha256"] = _sha256(changed)
    payload["arrays"]["extra/array"] = payload["arrays"][forward]
    first.write_text(json.dumps(payload))
    np.savez(tmp_path / "first.npz", **values)
    run = _run("--compare", str(first))
    assert run.returncode == 1, run.stderr[-2000:]
    assert f"differ  {forward} " in run.stdout and "missing extra/array" in run.stdout
    lines = {line.split()[1]: line for line in run.stdout.splitlines()
             if line.startswith("differ")}
    assert lines[forward].endswith("rel 1e-09") and lines[gradient].endswith("rel 1e-06")
    assert (f"{len(arrays) - 2} of {len(arrays) + 1} arrays byte-equal, 2 differ, "
            "1 in one file only") in run.stdout
    assert (f"largest relative difference: forward 1e-09 ({forward}), "
            f"gradients 1e-06 ({gradient})") in run.stdout
