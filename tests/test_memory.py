"""Importing ``tgat`` keeps freed memory in the process heap.

Without that, glibc unmaps every freed block above 128 KiB and trims the
freed top of the heap, so each L=2 training step zero-fills the same hop
temporaries again: over 5,000 minor page faults per step. The step runs in
a fresh interpreter, because the allocator policy is set once per process at
import and the test process's own heap history would blur the count.
"""

import ctypes
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tgat

pytest.importorskip("resource")


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


STEPS = textwrap.dedent("""
    import resource
    import numpy as np
    from tgat import autodiff as ad
    from tgat.layer import SamplingConfig
    from tgat.synthetic import recency_planted_graph
    from tgat.training import TrainConfig, build_model, link_loss

    graph = recency_planted_graph(500, 20000, seed=0)
    model = build_model(graph, TrainConfig(layers=2, heads=2, d=16, d_t=24, d_h=8,
                                           d_f=16, rng_seed=0))
    sampling = SamplingConfig(max_neighbors=12, strategy="most-recent")

    def step(k):
        ad.zero_grads(model.parameters())
        with ad.Tape() as tape:
            loss = link_loss(model, graph, np.arange(10000 + 25 * k, 10025 + 25 * k),
                             sampling, rng_seed=k)
        ad.backward(tape, loss)

    for k in range(2):
        step(k)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k in range(2, 6):
        step(k)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
""")


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_training_steps_reuse_freed_pages():
    src = str(Path(tgat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", STEPS], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    faults_per_step = float(run.stdout.split()[-1])
    assert faults_per_step < 100, faults_per_step
