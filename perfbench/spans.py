"""Span recorder for the traced benchmark run.

Wrappers are installed on the names callers look up, so the package under
``src/`` stays unchanged: a ``from x import y`` binding is a copy, so a
function bound in two modules is wrapped in both. Spans are kept in memory
as ``[name, start, end, parent, request]`` lists and written out at the end.

A request is one training batch (a ``link_loss`` call), one evaluation (an
``evaluate_links`` call) or one embed call. Spans that start after a batch's
forward pass (``backward``, ``adam_step``) keep that batch's request id.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from tgat import autodiff, layer, metrics, temporal_graph, time_encoding, training

# (owner, attribute, span name, starts a request)
SPAN_TARGETS = (
    (temporal_graph, "build_graph", "temporal_graph.build", False),
    (temporal_graph, "load_graph", "temporal_graph.load_graph", False),
    (layer, "temporal_neighborhood", "temporal_graph.neighborhood", False),
    (training, "training_event_indices", "temporal_graph.event_indices", False),
    (training, "evaluation_event_indices", "temporal_graph.event_indices", False),
    (time_encoding.TimeEncoder, "encode_many", "time_encoding.encode_many", False),
    (layer, "build_entity_matrix", "layer.build_entity_matrix", False),
    (layer, "attend_head", "layer.attend_head", False),
    (layer, "embed_tensor", "layer.embed_tensor", False),
    (training, "embed_tensor", "layer.embed_tensor", False),
    (layer, "embed", "layer.embed", True),
    (training, "embed", "layer.embed", True),
    (layer, "load_checkpoint", "layer.load_checkpoint", False),
    (autodiff, "backward", "autodiff.backward", False),
    (training, "train", "training.train", False),
    (training, "link_loss", "training.link_loss", True),
    (training, "adam_step", "training.adam_step", False),
    (training, "evaluate_links", "training.evaluate_links", True),
    (metrics, "accuracy", "metrics", False),
    (metrics, "average_precision", "metrics", False),
    (metrics, "roc_auc", "metrics", False),
)


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._requests: list[int] = []
        self._last_request = -1
        self._request_count = 0
        self._patched: list[tuple[object, str, object]] = []
        self.apply_op_calls = 0
        self.tape_nodes: list[int] = []
        self.neighborhood_sizes: list[int] = []
        self.encode_rows = 0
        # (request id, node, t, cap) keys seen, and how many queries repeated one
        self._query_keys: set[tuple] = set()
        self.repeated_queries = 0

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name, starts_request in SPAN_TARGETS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), starts_request))
        self._patch(autodiff, "apply_op", self._count_apply_op(autodiff.apply_op))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count_apply_op(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.apply_op_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name: str, fn, starts_request: bool):
        observe = {
            "temporal_graph.neighborhood": self._observe_neighborhood,
            "time_encoding.encode_many": self._observe_encode,
            "autodiff.backward": self._observe_backward,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_request:
                self._request_count += 1
                self._requests.append(self._request_count)
            request = self._requests[-1] if self._requests else self._last_request
            rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, request]
            self._open.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._open.pop()
                if starts_request:
                    self._last_request = self._requests.pop()
            if observe is not None:
                observe(request, args, out)
            return out
        return wrapper

    # -- counters -------------------------------------------------------------

    def _observe_neighborhood(self, request, args, sample) -> None:
        # temporal_neighborhood(graph, node, t, max_size, ...) is called positionally
        self.neighborhood_sizes.append(len(sample))
        key = (request, args[1], float(args[2]), args[3])
        if key in self._query_keys:
            self.repeated_queries += 1
        else:
            self._query_keys.add(key)

    def _observe_encode(self, request, args, out) -> None:
        self.encode_rows += out.data.shape[0]

    def _observe_backward(self, request, args, out) -> None:
        self.tape_nodes.append(len(args[0]))

    # -- summaries ------------------------------------------------------------

    def span_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total time, self time and call count per span name.

        Total time sums only the outermost span of a name, so a span nested in
        one of its own name is not counted twice. Self time is a span's
        duration minus the durations of its direct children.
        """
        child = np.zeros(len(self.spans))
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            self_s[name] += dur - child[i]
            calls[name] += 1
            if not self._has_ancestor(parent, name):
                total[name] += dur
        return total, self_s, calls

    def _has_ancestor(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def neighborhood_stats(self) -> dict[str, float]:
        sizes = np.asarray(self.neighborhood_sizes)
        n = max(sizes.size, 1)
        return {
            "size_mean": float(sizes.mean()) if sizes.size else 0.0,
            "empty_frac": float((sizes == 0).sum() / n),
            "repeat_frac": self.repeated_queries / n,
        }

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, request id."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")
