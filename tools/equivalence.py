"""Fingerprint the numeric outputs of the model over a fixed grid of configurations.

For every configuration of the grid this computes:

- the ``link_loss`` value of a fixed batch and the gradient of every parameter,
  a head's Q, K and V apart, under their checkpoint names, seeded by an int
  and, as the benchmark's gate seeds it, by a ``Generator``;
- ``embed`` at query counts that straddle the inference passes;
- a stream of one-query ``embed`` calls, each with its own seed, at two
  layers and inverse-timespan sampling: the call pattern of one embedding
  served at a time;
- the scores of ``evaluate_links`` (through ``metrics``) and its AP, on the
  transductive test events and on the inductive ones of a split that
  withholds a fifth of the nodes;
- the ``attention_report`` rows;
- the bytes ``save_checkpoint`` writes for the configuration's model;
- the final parameters, named as in a checkpoint, the checkpoint bytes and
  the ``history`` of a short ``train`` run per graph, layer count and
  attention mode, and the test scores and AUC of ``node_classify`` on that
  trained model at two L2 weights, 0 among them;
- once per run, the reports of ``kernel_convergence_check`` and
  ``kernel_estimate`` over a few timespan pairs, which read the time
  encoding outside the model;
- once per run, the values of ``training._draw_negatives`` and the
  generator's next draw on inputs of one to three nodes, where most draws
  collide with the forbidden id; the grid's graphs rarely collide;

and writes each array's SHA-256 and largest magnitude to JSON, and the
arrays themselves to an ``.npz`` file beside it. Two runs of the same code on
one host give the same files, so a change runs the script on both commits
and compares::

    PYTHONPATH=src python tools/equivalence.py --out new.json --compare old.json

``--compare`` reports, per array, whether the bytes are equal, and exits 1
when any array differs or is in one file only. When the other run's ``.npz``
is there, it sizes each difference as ``max|a - b| / max|b|`` (``b`` the
other run's array) and prints the largest over the forward arrays and over
the gradients. The bytes depend on the host's BLAS, so compare two runs of
one host only. The script runs BLAS on one thread: OpenBLAS splits a large
product between its threads by size, and a row's bits depend on the split.
``--reduced`` runs a small grid.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import numpy as np

from tgat import autodiff as ad
from tgat import layer, metrics, time_encoding, training
from tgat.layer import Dims, SamplingConfig, TgatModel
from tgat.synthetic import random_temporal_graph, recency_planted_graph, tiny_fixture_graph
from tgat.temporal_graph import (build_graph, chronological_split,
                                 evaluation_event_indices, mask_unseen)

GRAPHS = {
    "tiny": tiny_fixture_graph,
    "random-de2": lambda: random_temporal_graph(60, 600, edge_feature_dim=2, seed=1),
    "recency": lambda: recency_planted_graph(200, 4000, seed=0),
}
LAYERS = (1, 2)
# (attention mode, learnable positional table)
MODES = (("learned", False), ("constant", False), ("positional", False), ("positional", True))
STRATEGIES = ("most-recent", "uniform", "inverse-timespan")
HEADS = (1, 2, 3)
NEGATIVES = (1, 3)
# query counts either side of the pass boundaries of ``embed``
EMBED_COUNTS = (1, 3, 127, 128, 129, 131, 132, 259, 260, 1000)
LOSS_EVENTS = 6
EVAL_EVENTS = 67  # 201 queries, two passes; not a multiple of the batch size, 32
# cap on inductive test events: tiny's one event passes whole, the other graphs' are subsampled
INDUCTIVE_EVENTS = 30
REPORT_EVENTS = 70
REPORT_OFFSETS = (0.0, 2.5)
# neighborhood caps: a padded softmax row of 8 or more slots sums pairwise
CAPS = (4, 10)
# the short train() run: its epochs, positives per epoch and validation events
TRAIN_EPOCHS, TRAIN_EVENTS, TRAIN_VAL_EVENTS = 2, 50, 10
# node_classify runs on graphs whose test period holds labels of both classes;
# tiny's holds one event
LABELLED_GRAPHS = ("random-de2", "recency")
NODE_L2 = (0.0, 0.001)

# kernel_convergence_check's sample counts and grid; kernel_estimate's timespan pairs
KERNEL_CHECK = {"k_values": (1, 16, 4096), "t_max": 10.0, "grid_size": 100, "trials": 5}
KERNEL_PAIRS = ((0.0, 0.0), (0.0, 1.0), (2.5, -2.5), (1e-9, 0.0), (123.4, 5.6), (1e4, 1e4 + 3.0))

# _draw_negatives' node and row counts: few nodes, so most draws collide
NEGATIVE_NODES, NEGATIVE_ROWS = (1, 2, 3), (0, 1, 2000)

# the embed stream's model: the dims of the acceptance suite's directional experiment
STREAM_DIMS = {"d": 16, "d_t": 24, "d_h": 8, "d_f": 16}
STREAM_LAYERS, STREAM_HEADS, STREAM_STRATEGY = 2, 2, "inverse-timespan"

REDUCED = {"graphs": ("tiny", "random-de2"), "layers": LAYERS, "modes": MODES[:3],
           "strategies": STRATEGIES, "heads": (2,), "caps": (4,), "negatives": (1,),
           "embed_counts": (1, 3, 131, 132),
           "stream": {"graphs": ("tiny", "random-de2"), "calls": 6, "cap": 4}}
FULL = {"graphs": tuple(GRAPHS), "layers": LAYERS, "modes": MODES, "strategies": STRATEGIES,
        "heads": HEADS, "caps": CAPS, "negatives": NEGATIVES, "embed_counts": EMBED_COUNTS,
        "stream": {"graphs": ("recency",), "calls": 60, "cap": 20}}


def fingerprint(a) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"sha256": hashlib.sha256(a.tobytes()).hexdigest(), "shape": list(a.shape),
            "max_abs": float(np.abs(a).max()) if a.size else 0.0}


def _queries(graph, count: int, rng: np.random.Generator):
    """``count`` (node, time) queries at times inside the graph's span."""
    nodes = rng.integers(0, graph.num_nodes, count)
    times = rng.uniform(0.0, float(graph.timestamps.max()) * 1.05, count)
    return nodes, times


def _events(graph, count: int, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.choice(graph.num_events, size=min(count, graph.num_events),
                              replace=False))


def with_labels(graph):
    """``graph`` with a seeded label of 0 or 1 on about 30% of its events."""
    labels = np.random.default_rng(13).choice([-1, 0, 1], size=graph.num_events,
                                              p=[0.7, 0.15, 0.15])
    return build_graph(graph.sources, graph.destinations, graph.timestamps,
                       graph.edge_features, labels, graph.node_features)


def checkpoint_bytes(model, extra=None) -> np.ndarray:
    """The bytes ``save_checkpoint`` writes for ``model``, one entry per byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        layer.save_checkpoint(model, path, extra)
        return np.frombuffer(path.read_bytes(), dtype=np.uint8)


def scored(evaluate):
    """``evaluate()``'s result and the scores it handed the metrics. The
    scores reach the metrics' input check as they are, so they are recorded
    there."""
    seen = {}
    original = metrics._check_inputs

    def capture(labels, scores):
        seen["scores"] = np.asarray(scores)
        return original(labels, scores)

    metrics._check_inputs = capture
    try:
        result = evaluate()
    finally:
        metrics._check_inputs = original
    return result, seen["scores"]


def train_arrays(graph, split, layers: int, mode: str, learnable: bool, labelled=None):
    """Yield ``(name, array)`` for the final parameters, the checkpoint bytes
    and the history of a short ``train`` run: Adam and the negative draws
    show here. The checkpoint's extra is the run's config, as the CLI
    writes it. Given
    ``graph`` with labels, ``labelled``, also yield ``node_classify``'s test
    scores and AUC on the trained model, one MLP per weight of ``NODE_L2``."""
    config = training.TrainConfig(
        learning_rate=0.01, layers=layers, heads=2, neighborhood_dropout=0.2,
        negatives_per_positive=2, batch_size=16, max_epochs=TRAIN_EPOCHS, patience=5,
        attention_mode=mode, sampling_strategy="uniform", rng_seed=9, d=6, d_t=4, d_h=3,
        d_f=5, max_neighbors=5, positional_learnable=learnable,
        max_train_events_per_epoch=TRAIN_EVENTS, max_val_events=TRAIN_VAL_EVENTS)
    model, history = training.train(graph, split, config)
    for name, (p, cols) in layer._named_params(model).items():
        yield f"train/param/{name}", p.data[..., cols]
    yield "train/checkpoint", checkpoint_bytes(model, {"train_config": asdict(config)})
    yield "train/history", np.array([(h.epoch, h.train_loss, h.val_ap, h.val_acc)
                                     for h in history]).reshape(-1, 4)
    for l2 in NODE_L2 if labelled is not None else ():
        result, scores = scored(lambda: training.node_classify(
            model, labelled, split, training.MlpConfig(l2=l2), config, rng_seed=6))
        yield f"train/node_classify/l2-{l2}/scores", scores
        yield f"train/node_classify/l2-{l2}/auc", np.array([result.auc])


def stream_arrays(graph, split, calls: int, cap: int):
    """Yield ``(name, array)`` for ``calls`` one-query ``embed`` calls, each
    with its own seed: a test event's source, its destination and a seeded
    other node, at the event's time, events in seeded order."""
    dims = Dims(d0=graph.node_feature_dim, d_e=graph.edge_feature_dim, **STREAM_DIMS)
    model = TgatModel.create(dims, STREAM_LAYERS, STREAM_HEADS, rng_seed=3,
                             t_max=float(graph.timestamps.max()))
    sampling = SamplingConfig(max_neighbors=cap, strategy=STREAM_STRATEGY)
    rng = np.random.default_rng(17)
    events = rng.permutation(evaluation_event_indices(graph, split, "test"))
    queries = [(node, graph.timestamps[e]) for e in events[:(calls + 2) // 3]
               for node in (graph.sources[e], graph.destinations[e],
                            rng.integers(graph.num_nodes))][:calls]
    config = f"L{STREAM_LAYERS}/learned/H{STREAM_HEADS}/{STREAM_STRATEGY}-{cap}/embed_stream"
    for k, (node, t) in enumerate(queries):
        yield f"{config}/{k}", layer.embed(model, node, t, graph, sampling,
                                           rng_seed=int(rng.integers(2**31)))


def kernel_arrays():
    """Yield ``(name, array)`` for each ``kernel_convergence_check`` report,
    its errors and per-trial sup errors, and for ``kernel_estimate`` at each
    pair of ``KERNEL_PAIRS``, for a frequency ladder and for frequencies of
    both signs."""
    for r in time_encoding.kernel_convergence_check(**KERNEL_CHECK):
        yield f"kernel/check/k{r.sample_count}/errors", np.array([r.sup_error, r.mean_error])
        yield f"kernel/check/k{r.sample_count}/trial_sup_errors", r.trial_sup_errors
    for name, enc in (("ladder", time_encoding.TimeEncoder.create(24, t_max=300.0)),
                      ("signed", time_encoding.TimeEncoder([0.7, -1.3, 2.9, -0.01]))):
        yield f"kernel/estimate/{name}", np.array([enc.kernel_estimate(t1, t2)
                                                   for t1, t2 in KERNEL_PAIRS])


def negative_arrays():
    """Yield ``(name, array)`` for ``training._draw_negatives``' values and the
    generator's next draw, which shows the state the call leaves, per node
    and row count; each row forbids a seeded node id."""
    for num_nodes, rows in itertools.product(NEGATIVE_NODES, NEGATIVE_ROWS):
        forbidden = np.random.default_rng(rows).integers(0, num_nodes, rows)
        rng = np.random.default_rng([num_nodes, rows])
        name = f"negatives/N{num_nodes}-R{rows}"
        yield f"{name}/values", training._draw_negatives(rng, num_nodes, forbidden)
        yield f"{name}/next", np.array([rng.random()])


def grid_arrays(grid: dict):
    """Yield ``(name, array)`` for every output of every configuration."""
    yield from kernel_arrays()
    yield from negative_arrays()
    for graph_name in grid["graphs"]:
        graph = GRAPHS[graph_name]()
        split = chronological_split(graph, 0.7, 0.15)
        if graph_name in grid["stream"]["graphs"]:
            for name, a in stream_arrays(graph, split, grid["stream"]["calls"],
                                         grid["stream"]["cap"]):
                yield f"{graph_name}/{name}", a
        unseen_split = mask_unseen(graph, split, 0.2, rng_seed=0)
        labelled = with_labels(graph) if graph_name in LABELLED_GRAPHS else None
        for layers, (mode, learnable) in itertools.product(grid["layers"], grid["modes"]):
            config = f"{graph_name}/L{layers}/{mode}{'-learnable' if learnable else ''}"
            for name, a in train_arrays(graph, split, layers, mode, learnable, labelled):
                yield f"{config}/{name}", a
        dims = Dims(d0=graph.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5,
                    d_e=graph.edge_feature_dim)
        for layers, (mode, learnable), heads, strategy, cap in itertools.product(
                grid["layers"], grid["modes"], grid["heads"], grid["strategies"], grid["caps"]):
            config = f"{graph_name}/L{layers}/{mode}{'-learnable' if learnable else ''}" \
                     f"/H{heads}/{strategy}-{cap}"
            model = TgatModel.create(dims, layers, heads, attention_mode=mode, rng_seed=3,
                                     t_max=float(graph.timestamps.max()),
                                     positional_learnable=learnable, max_positions=cap + 1)
            sampling = SamplingConfig(max_neighbors=cap, strategy=strategy)
            rng = np.random.default_rng(11)
            yield f"{config}/checkpoint", checkpoint_bytes(model)

            events = _events(graph, LOSS_EVENTS, rng)
            named = layer._named_params(model)
            q_last = grid["negatives"][-1]
            for case, q, seed in [(f"Q{q}", q, 5) for q in grid["negatives"]] + [
                    (f"Q{q_last}-generator", q_last, np.random.default_rng(5))]:
                ad.zero_grads(model.parameters())
                with ad.Tape() as tape:
                    loss = training.link_loss(model, graph, events, sampling, q, rng_seed=seed)
                ad.backward(tape, loss)
                yield f"{config}/{case}/loss", loss.data
                for name, (p, cols) in named.items():  # a head's Q, K or V as its columns
                    yield f"{config}/{case}/grad/{name}", (np.zeros_like(p.data)
                                                           if p.grad is None else p.grad)[..., cols]

            for count in grid["embed_counts"]:
                nodes, times = _queries(graph, count, rng)
                yield f"{config}/embed/{count}", layer.embed(model, nodes, times, graph,
                                                             sampling, rng_seed=7)

            train_config = training.TrainConfig(
                layers=layers, heads=heads, attention_mode=mode, sampling_strategy=strategy,
                max_neighbors=cap, batch_size=32)
            result, scores = scored(lambda: training.evaluate_links(
                model, graph, split, period="test", config=train_config, rng_seed=2,
                event_indices=_events(graph, EVAL_EVENTS, rng)))
            yield f"{config}/evaluate_links/scores", scores
            yield f"{config}/evaluate_links/ap", np.array([result.average_precision])
            result, scores = scored(lambda: training.evaluate_links(
                model, graph, unseen_split, period="test", node_filter="unseen",
                config=train_config, rng_seed=2, max_events=INDUCTIVE_EVENTS))
            yield f"{config}/evaluate_links/inductive/scores", scores
            yield f"{config}/evaluate_links/inductive/ap", np.array([result.average_precision])

            rows = training.attention_report(model, graph, _events(graph, REPORT_EVENTS, rng),
                                             REPORT_OFFSETS, train_config, rng_seed=4)
            # one table per offset: how the offsets interleave is not compared
            for offset in REPORT_OFFSETS:
                yield f"{config}/attention_report/{offset}", np.array(
                    [(r.timespan, r.attention_weight, r.occurrence_count)
                     for r in rows if r.target_time_offset == offset]).reshape(-1, 3)


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """``max|a - b| / max|b|``: 0 for equal arrays, inf for other shapes or
    a nonzero ``a - b`` against an all-zero ``b``."""
    if a.shape != b.shape:
        return float("inf")
    diff = float(np.abs(a - b).max(initial=0.0))
    scale = float(np.abs(b).max(initial=0.0))
    return diff / scale if scale else (0.0 if diff == 0.0 else float("inf"))


def compare(ours: dict, theirs: dict, values: dict, their_values=None) -> int:
    """Print each array that differs or is in one file only, sized against
    ``their_values`` when given; 1 if any array differs or is missing."""
    shared = [name for name in theirs if name in ours]
    differ = [name for name in shared if ours[name]["sha256"] != theirs[name]["sha256"]]
    missing = sorted(set(theirs) ^ set(ours))
    largest = {"forward": (0.0, None), "gradients": (0.0, None)}
    for name in differ:
        size = ""
        if their_values is not None and name in their_values:
            rel = relative_difference(values[name], their_values[name])
            kind = "gradients" if "/grad/" in name else "forward"
            largest[kind] = max(largest[kind], (rel, name), key=lambda pair: pair[0])
            size = f"  rel {rel:.3g}"
        print(f"differ  {name}  max_abs {theirs[name]['max_abs']!r} -> "
              f"{ours[name]['max_abs']!r}{size}")
    for name in missing:
        print(f"missing {name}")
    print(f"{len(shared) - len(differ)} of {len(set(ours) | set(theirs))} arrays byte-equal, "
          f"{len(differ)} differ, {len(missing)} in one file only")
    if their_values is not None:
        print("largest relative difference: " + ", ".join(
            f"{kind} {rel:.3g} ({name or 'none differ'})" for kind, (rel, name) in largest.items()))
    return 1 if differ or missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the fingerprints to this JSON file")
    parser.add_argument("--compare", help="a fingerprint file to compare against")
    parser.add_argument("--reduced", action="store_true", help="run the small grid")
    args = parser.parse_args(argv)
    values = {name: np.array(a, dtype=np.float64)
              for name, a in grid_arrays(REDUCED if args.reduced else FULL)}
    arrays = {name: fingerprint(a) for name, a in values.items()}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"numpy": np.__version__, "arrays": arrays}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        np.savez(Path(args.out).with_suffix(".npz"), **values)
    if args.compare:
        with open(args.compare) as fh:
            theirs = json.load(fh)["arrays"]
        stored = Path(args.compare).with_suffix(".npz")
        if not stored.exists():
            return compare(arrays, theirs, values)
        with np.load(stored) as their_values:
            return compare(arrays, theirs, values, dict(their_values))
    print(f"{len(arrays)} arrays")
    return 0


if __name__ == "__main__":
    sys.exit(main())
