"""The three benchmark workloads, each a single-process closed loop.

One client issues the next operation only when the previous one returned.
Inputs come from ``recency_planted_graph(500, 20000, seed)``; the model dims
follow the directional config of the acceptance suite (heads=2, d=16,
d_t=24, d_h=8, d_f=16). Why each workload exists is in README.md.
"""

from __future__ import annotations

import math
import resource
import statistics
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from tgat import layer, metrics, synthetic, temporal_graph, training
from tgat.temporal_graph import AccessMonitor

from hostspeed import ScaledTimer
from spans import Tracer

N_NODES = 500
N_EVENTS = 20000
BATCH_SIZE = 25

# set-up is repeated and its median reported, so work moved into set-up shows;
# one embed-l2 set-up reads the graph file for about 15 s, so it runs twice
TRAIN_SETUP_REPEATS = 7
EMBED_SETUP_REPEATS = 2
# p99 needs at least ten samples beyond it
MIN_EMBED_CALLS = 1000
# consecutive embed calls timed as one sample
EMBED_CHUNK = 50
# embed-l2 events (three calls each, all within MIN_EMBED_CALLS) whose scores give test_ap
AP_EMBED_EVENTS = 333
# embed calls in one unit of traced work
TRACE_EMBED_CALLS = 100
# queries re-run under AccessMonitor and compared bit for bit
GATE_QUERIES = 30
# train() calls of one run have distinct RNG seeds up to this many
CALLS_PER_SEED = 1000

# Timing metrics are medians of many short samples, each scaled by the host's
# speed as a reference loop run next to it measured it (see hostspeed.py).


@dataclass
class Outcome:
    """What one run measured: the JSON metrics, the per-workload report lines
    and the correctness checks."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def check(self, name: str, ok) -> None:
        self.checks.append((name, bool(ok)))


def generate(seed: int):
    """The seeded input graph as the arrays a user would ingest."""
    g = synthetic.recency_planted_graph(N_NODES, N_EVENTS, seed=seed)
    return {
        "sources": np.array([ev.source for ev in g.events], dtype=np.int64),
        "destinations": np.array([ev.destination for ev in g.events], dtype=np.int64),
        "timestamps": np.array([ev.timestamp for ev in g.events], dtype=np.float64),
        "node_features": g.node_features.copy(),
    }


def build_store(arrays) -> temporal_graph.TemporalGraph:
    return temporal_graph.build_graph(arrays["sources"], arrays["destinations"],
                                      arrays["timestamps"],
                                      node_features=arrays["node_features"])


def graph_matches(g: temporal_graph.TemporalGraph, arrays) -> bool:
    return (g.num_events == arrays["sources"].size
            and np.array_equal([ev.source for ev in g.events], arrays["sources"])
            and np.array_equal([ev.destination for ev in g.events], arrays["destinations"])
            and np.array_equal([ev.timestamp for ev in g.events], arrays["timestamps"])
            and np.array_equal(g.node_features, arrays["node_features"])
            and g.edge_feature_dim == 0
            and all(ev.label is None for ev in g.events))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _set_up(setup, trace: bool, repeats: int):
    """Run ``setup`` ``repeats`` times, or once traced.

    Returns the state, the median wall and scaled times, and the tracer.
    """
    if trace:
        tracer = Tracer()
        with tracer:
            state, setup_s = _timed(setup)
        return state, setup_s, setup_s, tracer
    timer = ScaledTimer()
    walls, scaled = [], []
    for _ in range(repeats):
        state, wall, dt = timer.time(setup)
        walls.append(wall)
        scaled.append(dt)
    return state, statistics.median(walls), statistics.median(scaled), None


class ClosedLoop:
    """Issues one operation after another until the deadline and counts failures."""

    def __init__(self):
        self.failed = 0

    def run(self, seconds: float, op, ops_per_call: int = 1, min_calls: int = 1,
            max_calls: int | None = None) -> float:
        """Call ``op(k)`` until the next call would likely end well past the
        deadline. Returns the loop's wall time."""
        start = time.perf_counter()
        done = 0
        last = 0.0
        while max_calls is None or done < max_calls:
            if done >= min_calls and time.perf_counter() - start + last / 2 > seconds:
                break
            t0 = time.perf_counter()
            try:
                op(done)
            except Exception:  # a failed operation is counted, not fatal
                self.failed += ops_per_call
            last = time.perf_counter() - t0
            done += 1
        return time.perf_counter() - start

    def traced_pairs(self, seconds: float, unit, ops_per_unit: int):
        """Alternate one untraced and one traced run of ``unit`` until the deadline.

        Returns (untraced wall, traced wall, tracer) per pair.
        """
        pairs = []

        def pair(_):
            _, plain = _timed(unit)
            tracer = Tracer()
            with tracer:
                _, wall = _timed(unit)
            pairs.append((plain, wall, tracer))

        self.run(seconds, pair, 2 * ops_per_unit)
        return pairs


# ---------------------------------------------------------------------------
# train-l1, train-l2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainWorkload:
    layers: int
    positives: int  # per-epoch cap on training positives
    val_events: int  # per-epoch cap on validation events
    eval_events: int  # test events scored by each timed evaluate_links call
    ap_events: int  # test events scored once, untimed, for test_ap

    def config(self, seed: int, call: int = 0) -> training.TrainConfig:
        """The config of the run's ``call``-th train() call.

        One epoch per call keeps each timed sample short. Each call has its own
        RNG seed, so it trains on its own subsample of positives and its
        evaluate_links call scores its own test events: the median over a run's
        calls then covers many batches, not one seed's few.
        """
        return training.TrainConfig(
            learning_rate=0.01, layers=self.layers, heads=2, neighborhood_dropout=0.1,
            batch_size=BATCH_SIZE, max_epochs=1, patience=1, attention_mode="learned",
            sampling_strategy="most-recent", rng_seed=seed * CALLS_PER_SEED + call,
            d=16, d_t=24, d_h=8, d_f=16, max_neighbors=12,
            max_train_events_per_epoch=self.positives, max_val_events=self.val_events,
            unseen_fraction=0.0,
        )

    def run(self, seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
        arrays = generate(seed)
        cfg = self.config(seed)

        def setup():
            graph = build_store(arrays)
            split = temporal_graph.chronological_split(graph, cfg.train_frac, cfg.val_frac)
            training.build_model(graph, cfg)
            return graph, split

        (graph, split), setup_wall, setup_s, setup_tracer = _set_up(
            setup, trace, TRAIN_SETUP_REPEATS)
        n_pos = min(self.positives, temporal_graph.training_event_indices(graph, split).size)
        batches = math.ceil(n_pos / BATCH_SIZE)
        n_eval = min(self.eval_events, temporal_graph.evaluation_event_indices(
            graph, split, "test", "transductive").size)

        fits = []  # (history, model)
        evals = []  # AP
        fit_s = []  # (wall, scaled) per train() call
        eval_s = []  # (wall, scaled) per evaluate_links() call
        timer = None if trace else ScaledTimer()

        def timed(fn, samples, *args, **kwargs):
            if timer is None:
                return fn(*args, **kwargs)
            out, wall, scaled = timer.time(fn, *args, **kwargs)
            samples.append((wall, scaled))
            return out

        def fit_and_evaluate(call: int):
            call_cfg = self.config(seed, call)
            model, history = timed(training.train, fit_s, graph, split, call_cfg)
            fits.append((history, model))
            result = timed(training.evaluate_links, eval_s, model, graph, split, period="test",
                           node_filter="observed", config=call_cfg,
                           rng_seed=call_cfg.rng_seed,
                           max_events=self.eval_events)
            evals.append(result.average_precision)

        loop = ClosedLoop()
        ops = batches + 2  # the batches, the validation and the test evaluation
        if trace:
            # the traced and untraced units of a pair must do the same work
            pairs = loop.traced_pairs(seconds, lambda: fit_and_evaluate(0), ops)
        else:
            loop.run(seconds, fit_and_evaluate, ops, max_calls=CALLS_PER_SEED)

        out = Outcome(attempted=len(fits) * (batches + 1) + len(evals) + loop.failed,
                      failed=loop.failed)
        out.check("no operation failed", loop.failed == 0 and evals)
        if not evals:
            return out
        test_ap = self._gate(out, fits, evals, graph, split, cfg, seed)

        if trace:
            out.metrics = layer_metrics(setup_tracer, pairs)
            write_spans(work_dir, setup_tracer, pairs, seed)
            return out

        epoch_s = statistics.median(s for _, s in fit_s)
        eval_per_s = n_eval / statistics.median(s for _, s in eval_s)
        rss = peak_rss_mb()
        out.metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms": (epoch_s / batches * 1e3, "ms"),
            "infer_per_s": (eval_per_s, "1/s"),
            "test_ap": (test_ap, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
        out.report = {
            "setup_s": (setup_s, "s"),
            "epoch_s": (epoch_s, "s"),
            "eval_events_per_s": (eval_per_s, "1/s"),
            "setup_s_wall": (setup_wall, "s"),
            "epoch_s_wall": (statistics.median(w for w, _ in fit_s), "s"),
            "eval_events_per_s_wall": (n_eval / statistics.median(w for w, _ in eval_s), "1/s"),
            "test_ap": (test_ap, "ratio"),
            "peak_rss_mb": (rss, "MB"),
            "fail_ratio": (out.failed / out.attempted, "ratio"),
            "train_calls": (len(fits), "count"),
            "evaluate_calls": (len(evals), "count"),
        }
        return out

    def _gate(self, out: Outcome, fits, evals, graph, split, cfg, seed: int) -> float:
        def scores(history):
            return [(h.train_loss, h.val_ap, h.val_acc) for h in history]

        out.check("losses and validation scores finite",
                  all(np.isfinite(scores(hist)).all() for hist, _ in fits)
                  and np.isfinite(evals).all())
        # the first call does the same work in every run of this seed
        model = fits[0][1]
        again, again_history = training.train(graph, split, cfg)
        again_ap = training.evaluate_links(again, graph, split, period="test",
                                           node_filter="observed", config=cfg,
                                           rng_seed=cfg.rng_seed,
                                           max_events=self.eval_events).average_precision
        out.check("repeated training and evaluation are bit-identical",
                  scores(again_history) == scores(fits[0][0]) and again_ap == evals[0]
                  and all(np.array_equal(a.data, b.data)
                          for a, b in zip(again.parameters(), model.parameters())))

        test_ap = training.evaluate_links(model, graph, split, period="test",
                                          node_filter="observed", config=cfg, rng_seed=seed,
                                          max_events=self.ap_events).average_precision
        out.check("test AP finite", np.isfinite(test_ap))

        rng = np.random.default_rng([seed, 9])
        train_idx = temporal_graph.training_event_indices(graph, split)
        batch = np.sort(rng.choice(train_idx, size=BATCH_SIZE, replace=False))
        test_idx = temporal_graph.evaluation_event_indices(graph, split, "test")
        queries = [(graph.events[i].source, graph.events[i].timestamp)
                   for i in rng.choice(test_idx, size=GATE_QUERIES, replace=False)]
        sampling = cfg.sampling(training=False)
        with AccessMonitor() as monitor:
            loss = training.link_loss(model, graph, batch, cfg.sampling(training=True),
                                      cfg.negatives_per_positive, rng)
            first = [layer.embed(model, v, t, graph, sampling, rng_seed=k)
                     for k, (v, t) in enumerate(queries)]
        second = [layer.embed(model, v, t, graph, sampling, rng_seed=k)
                  for k, (v, t) in enumerate(queries)]
        out.check("sampled batch loss finite", np.isfinite(loss.data).all())
        out.check("sampled queries read only the past",
                  monitor.records and not monitor.violations())
        out.check("repeated embed calls are bit-identical",
                  all(np.isfinite(a).all() and np.array_equal(a, b) for a, b in zip(first, second)))
        return test_ap


# ---------------------------------------------------------------------------
# embed-l2
# ---------------------------------------------------------------------------


class EmbedWorkload:
    def run(self, seed: int, seconds: float, trace: bool, work_dir: Path) -> Outcome:
        arrays = generate(seed)
        source_graph = build_store(arrays)
        split = temporal_graph.chronological_split(source_graph, 0.70, 0.15)
        queries, labels = self._stream(source_graph, split, seed)
        cfg = training.TrainConfig(layers=2, heads=2, d=16, d_t=24, d_h=8, d_f=16,
                                   max_neighbors=20, sampling_strategy="inverse-timespan",
                                   rng_seed=seed)
        model = training.build_model(source_graph, cfg)

        with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
            graph_path = Path(tmp) / "graph.npz"
            ckpt_path = Path(tmp) / "checkpoint.json"
            temporal_graph.save_graph(source_graph, graph_path)
            layer.save_checkpoint(model, ckpt_path, extra={"train_config": asdict(cfg)})

            def setup():
                # the calls `tgat embed` makes before its first embedding
                graph = temporal_graph.load_graph(graph_path)
                loaded, extra = layer.load_checkpoint(ckpt_path)
                sampling = training.TrainConfig(**extra["train_config"]).sampling(training=False)
                return graph, loaded, sampling

            (graph, loaded, sampling), setup_wall, setup_s, setup_tracer = _set_up(
                setup, trace, EMBED_SETUP_REPEATS)

        results: dict[int, np.ndarray] = {}
        latencies: list[float] = []
        chunk_s: list[tuple[float, float]] = []  # (wall, scaled) per chunk of calls

        def call(k: int) -> None:
            v, t, s = queries[k]
            vec, dt = _timed(layer.embed, loaded, v, t, graph, sampling, rng_seed=s)
            latencies.append(dt)
            results[k] = vec

        def chunk(c: int) -> None:
            for k in range(c * EMBED_CHUNK, (c + 1) * EMBED_CHUNK):
                call(k)

        loop = ClosedLoop()
        if trace:
            pairs = loop.traced_pairs(
                seconds, lambda: [call(k) for k in range(TRACE_EMBED_CALLS)], TRACE_EMBED_CALLS)
            attempted = 2 * TRACE_EMBED_CALLS * len(pairs) + loop.failed
        else:
            timer = ScaledTimer()

            def timed_chunk(c: int) -> None:
                _, wall, scaled = timer.time(chunk, c)
                chunk_s.append((wall, scaled))

            # the stream is not cycled, so no call repeats one made earlier in the run
            loop_s = loop.run(seconds, timed_chunk, EMBED_CHUNK,
                              min_calls=MIN_EMBED_CALLS // EMBED_CHUNK,
                              max_calls=len(queries) // EMBED_CHUNK)
            attempted = len(chunk_s) * EMBED_CHUNK + loop.failed

        out = Outcome(attempted=max(attempted, 1), failed=loop.failed)
        out.check("no operation failed", loop.failed == 0 and results)
        out.check("loaded graph equals the generated arrays", graph_matches(graph, arrays))
        out.check("loaded checkpoint equals the saved model",
                  all(np.array_equal(a.data, b.data)
                      for a, b in zip(model.parameters(), loaded.parameters())))
        out.check("embeddings finite", all(np.isfinite(r).all() for r in results.values()))
        scored = [e for e in range(len(queries) // 3)
                  if all(3 * e + j in results for j in range(3))][:AP_EMBED_EVENTS]
        scores = [float(results[3 * e] @ results[3 * e + j]) for e in scored for j in (1, 2)]
        test_ap = (metrics.average_precision([y for e in scored for y in labels[2 * e: 2 * e + 2]],
                                             scores) if scored else float("nan"))
        out.check("test AP finite", np.isfinite(test_ap))

        with AccessMonitor() as monitor:
            again = {k: layer.embed(loaded, *queries[k][:2], graph, sampling,
                                    rng_seed=queries[k][2])
                     for k in range(GATE_QUERIES)}
        out.check("sampled queries read only the past",
                  monitor.records and not monitor.violations())
        out.check("repeated embed calls are bit-identical",
                  all(k in results and np.array_equal(v, results[k]) for k, v in again.items()))

        if trace:
            out.metrics = layer_metrics(setup_tracer, pairs)
            write_spans(work_dir, setup_tracer, pairs, seed)
            return out

        if not chunk_s:
            return out
        per_s = EMBED_CHUNK / statistics.median(s for _, s in chunk_s)
        lat_ms = np.asarray(latencies) * 1e3
        rss = peak_rss_mb()
        out.metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms": (1e3 / per_s, "ms"),
            "infer_per_s": (per_s, "1/s"),
            "test_ap": (test_ap, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
        out.report = {
            "setup_s": (setup_s, "s"),
            "embeds_per_s": (per_s, "1/s"),
            "embed_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
            "embed_ms_p99": (float(np.percentile(lat_ms, 99)), "ms"),
            "setup_s_wall": (setup_wall, "s"),
            "embeds_per_s_wall": (EMBED_CHUNK / statistics.median(w for w, _ in chunk_s), "1/s"),
            "embed_calls": (len(latencies), "count"),
            "embeds_per_s_whole_run": (len(latencies) / loop_s, "1/s"),
            "test_ap": (test_ap, "ratio"),
            "peak_rss_mb": (rss, "MB"),
            "fail_ratio": (out.failed / out.attempted, "ratio"),
        }
        return out

    @staticmethod
    def _stream(graph, split, seed: int):
        """(node, t, rng seed) queries: source, destination and a seeded negative
        node for each test-period event in seeded order, all at the event time.
        Labels hold 1 for each (source, destination) and 0 for each
        (source, negative) pair."""
        rng = np.random.default_rng([seed, 42])
        events = rng.permutation(temporal_graph.evaluation_event_indices(graph, split, "test"))
        queries = []
        labels = []
        for e in events:
            ev = graph.events[int(e)]
            neg = int(rng.integers(0, graph.num_nodes - 1))
            neg += neg >= ev.destination  # uniform over nodes other than the destination
            for node in (ev.source, ev.destination, neg):
                queries.append((node, ev.timestamp, int(rng.integers(2**31))))
            labels.extend((1, 0))
        return queries, labels


WORKLOADS = {
    # the acceptance suite's directional config, with its per-epoch caps
    # (1500 positives, 250 validation events) scaled to 250 and 40
    "train-l1": TrainWorkload(layers=1, positives=250, val_events=40,
                              eval_events=250, ap_events=1000),
    "train-l2": TrainWorkload(layers=2, positives=25, val_events=5,
                              eval_events=20, ap_events=400),
    "embed-l2": EmbedWorkload(),
}


# ---------------------------------------------------------------------------
# per-layer metrics of the traced run
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "temporal_graph.build.s": "s",
    "temporal_graph.load_graph.s": "s",
    "temporal_graph.neighborhood.calls": "count",
    "temporal_graph.neighborhood.self_s": "s",
    "temporal_graph.neighborhood.size_mean": "count",
    "temporal_graph.neighborhood.empty_frac": "ratio",
    "temporal_graph.neighborhood.repeat_frac": "ratio",
    "temporal_graph.event_indices.s": "s",
    "time_encoding.encode_many.calls": "count",
    "time_encoding.encode_many.rows": "count",
    "time_encoding.encode_many.self_s": "s",
    "layer.build_entity_matrix.calls": "count",
    "layer.build_entity_matrix.self_s": "s",
    "layer.attend_head.calls": "count",
    "layer.attend_head.self_s": "s",
    "layer.embed_tensor.calls": "count",
    "layer.embed_tensor.self_s": "s",
    "layer.load_checkpoint.s": "s",
    "autodiff.apply_op.calls": "count",
    "autodiff.apply_op.per_embed": "count",
    "autodiff.tape_nodes": "count",
    "autodiff.backward.s": "s",
    "training.link_loss.self_s": "s",
    "training.adam_step.s": "s",
    "training.evaluate_links.self_s": "s",
    "metrics.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def _unit_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer values of one traced unit of work."""
    total, self_s, calls = tracer.span_times()
    nbr = tracer.neighborhood_stats()
    embeds = calls.get("layer.embed_tensor", 0)
    m = {
        "temporal_graph.neighborhood.calls": calls.get("temporal_graph.neighborhood", 0),
        "temporal_graph.neighborhood.self_s": self_s.get("temporal_graph.neighborhood", 0.0),
        "temporal_graph.neighborhood.size_mean": nbr["size_mean"],
        "temporal_graph.neighborhood.empty_frac": nbr["empty_frac"],
        "temporal_graph.neighborhood.repeat_frac": nbr["repeat_frac"],
        "temporal_graph.event_indices.s": total.get("temporal_graph.event_indices", 0.0),
        "time_encoding.encode_many.rows": tracer.encode_rows,
        "autodiff.apply_op.calls": tracer.apply_op_calls,
        "autodiff.apply_op.per_embed": tracer.apply_op_calls / embeds if embeds else 0.0,
        "autodiff.tape_nodes": float(np.mean(tracer.tape_nodes)) if tracer.tape_nodes else 0.0,
        "autodiff.backward.s": total.get("autodiff.backward", 0.0),
        "training.link_loss.self_s": self_s.get("training.link_loss", 0.0),
        "training.adam_step.s": total.get("training.adam_step", 0.0),
        "training.evaluate_links.self_s": self_s.get("training.evaluate_links", 0.0),
        "metrics.self_s": self_s.get("metrics", 0.0),
        "trace.wall_s": wall,
    }
    for name in ("time_encoding.encode_many", "layer.build_entity_matrix",
                 "layer.attend_head", "layer.embed_tensor"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    return m


def _fastest_pair(pairs):
    """The traced unit with the least wall time; all per-layer values come from
    this one unit, so they add up."""
    return min(pairs, key=lambda p: p[1])


def layer_metrics(setup_tracer: Tracer, pairs) -> dict[str, tuple[float, str]]:
    """Per-layer values of a representative traced unit plus the traced set-up."""
    _, wall, tracer = _fastest_pair(pairs)
    values = _unit_metrics(tracer, wall)
    setup_total, _, _ = setup_tracer.span_times()
    values["temporal_graph.build.s"] = setup_total.get("temporal_graph.build", 0.0)
    values["temporal_graph.load_graph.s"] = setup_total.get("temporal_graph.load_graph", 0.0)
    values["layer.load_checkpoint.s"] = setup_total.get("layer.load_checkpoint", 0.0)
    # each pair ran back to back, so its ratio cancels most of the host's drift
    values["trace.overhead_frac"] = statistics.median(p[1] / p[0] for p in pairs) - 1.0
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}


def write_spans(work_dir: Path, setup_tracer: Tracer, pairs, seed: int) -> None:
    setup_tracer.write(work_dir / f"spans-setup-seed{seed}.jsonl")
    _fastest_pair(pairs)[2].write(work_dir / f"spans-seed{seed}.jsonl")
