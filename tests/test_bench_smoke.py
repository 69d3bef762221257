"""Smoke test of the benchmark harness: one short traced run per workload.

The harness reads the package through names such as ``graph.events``,
``layer.temporal_neighborhood``, ``link_loss`` with a ``Generator`` seed and
``SamplingConfig``; a change that removes one of them fails here instead of
in the next benchmark run. The hop spans, the set-up span and, where an
evaluation runs, the metric span must also keep firing: a refactor that
stops calling a wrapped name leaves its per-layer metrics at zero without
failing any check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# spans that each hop of the forward pass passes through
HOP_SPAN_CALLS = ("layer.build_entity_matrix.calls", "layer.attend_head.calls",
                  "time_encoding.encode_many.calls")
# the set-up span of each workload: the store build, or its load from a file
SETUP_SPAN = {"embed-l2": "temporal_graph.load_graph.s"}
# the workloads whose evaluation scores through the wrapped metric functions
SCORING = ("train-l1", "train-l2")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_every_check(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    failed = [line for line in run.stdout.splitlines() if line.startswith("check FAIL")]
    assert run.returncode == 0 and not failed, (failed, run.stderr[-2000:])
    metrics = json.loads(run.stdout.splitlines()[-1])["metrics"]
    spans = HOP_SPAN_CALLS + (SETUP_SPAN.get(workload, "temporal_graph.build.s"),)
    spans += ("metrics.self_s",) if workload in SCORING else ()
    silent = [name for name in spans if not metrics[name]["value"] > 0]
    assert silent == [], silent
