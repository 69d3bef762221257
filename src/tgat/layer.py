"""Temporal graph attention: entity-temporal matrix, per-head attention, stacking.

A layer embeds a target node at time t by (1) sampling its temporal
neighborhood, (2) building a matrix whose rows concatenate entity hidden
state, edge features and the time encoding of the timespan to t (the
target's own row has a zero timespan), (3) running masked scaled
dot-product attention per head over the neighbor rows, and (4) combining the
concatenated head outputs with the target's raw features through a two-layer
ReLU FFN. Stacking L layers extends aggregation to L hops; neighbor hidden
states at layer l-1 are evaluated at their own interaction times, which keeps
every read strictly in the consumer's past. The forward pass runs one hop at
a time over arrays of (node, time) queries: one sampler call returns the
sampled interactions of all targets of a hop as one flat list, and three
operators (entity matrix, attention, FFN) process all of its targets at
once. The entity matrix lays its rows out targets first, then N neighbor
slots per target, zero past the end of a sample; only the attention mask
needs that (B, N) block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ContractError, InferenceError, ValidationError
from .temporal_graph import (
    NeighborhoodBatch,
    Rule,
    TemporalGraph,
    check_fields,
    check_queries,
    check_value,
    checked,
    hop_neighborhoods,
    sampling_key,
    setting,
    whole_numbers,
)
# not called here: perfbench/spans.py times the sampler by wrapping this name
from .temporal_graph import temporal_neighborhood  # noqa: F401
from .time_encoding import PositionalEncoder, TimeEncoder


@checked
@dataclass(frozen=True)
class Dims:
    """Dimension bundle: raw features d0, hidden d, time d_t, per-head d_h,
    FFN hidden d_f, edge features d_e."""

    d0: int = setting(Rule.AT_LEAST_1)
    d: int = setting(Rule.AT_LEAST_1)
    d_t: int = setting(Rule.EVEN_AT_LEAST_2)
    d_h: int = setting(Rule.AT_LEAST_1)
    d_f: int = setting(Rule.AT_LEAST_1)
    d_e: int = setting(Rule.AT_LEAST_0, 0)


@dataclass(frozen=True)
class SamplingConfig:
    """Per-hop neighborhood cap and subsampling strategy, shared across layers."""

    max_neighbors: int = 20
    strategy: str = "most-recent"


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def head_parameter_formula(dims: Dims) -> int:
    """Weight entries the per-head scaling formula tracks when d_e = 0:
    one (d + d_t) x d_h projection, the single-head FFN input block, and the
    FFN output matrix. Biases excluded."""
    return (dims.d + dims.d_t) * dims.d_h + (dims.d_h + dims.d0) * dims.d_f + dims.d_f * dims.d


class LayerParams:
    """One TGAT layer: per-head Q/K/V projections plus the shared output FFN."""

    def __init__(self, w_q, w_k, w_v, w0, b0, w1, b1):
        self.w_q = list(w_q)
        self.w_k = list(w_k)
        self.w_v = list(w_v)
        if not (len(self.w_q) == len(self.w_k) == len(self.w_v) >= 1):
            raise ValidationError("each head needs exactly one Q, K and V projection")
        self.w0 = w0
        self.b0 = b0
        self.w1 = w1
        self.b1 = b1

    @classmethod
    def create(cls, dims: Dims, head_count: int, input_dim: int,
               rng: np.random.Generator) -> "LayerParams":
        proj_in = input_dim + dims.d_e + dims.d_t
        w_q, w_k, w_v = ([ad.parameter(glorot(rng, proj_in, dims.d_h)) for _ in range(head_count)]
                         for _ in range(3))
        ffn_in = head_count * dims.d_h + dims.d0
        w0 = ad.parameter(glorot(rng, ffn_in, dims.d_f))
        b0 = ad.parameter(np.zeros((1, dims.d_f)))
        w1 = ad.parameter(glorot(rng, dims.d_f, dims.d))
        b1 = ad.parameter(np.zeros((1, dims.d)))
        return cls(w_q, w_k, w_v, w0, b0, w1, b1)

    @property
    def head_count(self) -> int:
        return len(self.w_q)

    def parameters(self) -> list[Tensor]:
        heads = [w for qkv in zip(self.w_q, self.w_k, self.w_v) for w in qkv]
        return heads + [self.w0, self.b0, self.w1, self.b1]

    def head_param_count(self) -> int:
        """Parameter budget of one attention head in the sense of the scaling
        formula: the shape of one projection (Q, K and V share it), this
        head's FFN input block plus the raw-feature block, and the FFN output
        matrix; biases excluded. Computed from the constructed array shapes."""
        d_h = self.w_q[0].data.shape[1]
        d_f = self.w1.data.shape[0]
        x0_rows = self.w0.data.shape[0] - self.head_count * d_h
        return self.w_q[0].data.size + (d_h + x0_rows) * d_f + self.w1.data.size


class TgatModel:
    """Stack of TGAT layers sharing one time encoder."""

    def __init__(self, layers, time_encoder: TimeEncoder, dims: Dims,
                 attention_mode: str = "learned",
                 positional_encoder: PositionalEncoder | None = None):
        check_value(attention_mode, str, "attention_mode", Rule.ATTENTION_MODE)
        if not layers:
            raise ValidationError("model needs at least one layer")
        if attention_mode == "positional" and positional_encoder is None:
            raise ValidationError("positional mode needs a positional encoder")
        self.layers = list(layers)
        self.time_encoder = time_encoder
        self.dims = dims
        self.attention_mode = attention_mode
        self.positional_encoder = positional_encoder

    @classmethod
    def create(
        cls,
        dims: Dims,
        layer_count: int,
        head_count: int,
        attention_mode: str = "learned",
        rng_seed: int = 0,
        t_max: float = 1.0,
        positional_learnable: bool = False,
        max_positions: int = 64,
    ) -> "TgatModel":
        check_fields(dims)
        check_value(layer_count, int, "layer_count", Rule.AT_LEAST_1)
        check_value(head_count, int, "head_count", Rule.AT_LEAST_1)
        rng = np.random.default_rng(rng_seed)
        enc = TimeEncoder.create(dims.d_t, t_max=t_max)
        layers = [
            LayerParams.create(dims, head_count, dims.d0 if l == 0 else dims.d, rng)
            for l in range(layer_count)
        ]
        pos = None
        if attention_mode == "positional":
            pos = (PositionalEncoder.learnable_table(max_positions, dims.d_t, rng)
                   if positional_learnable
                   else PositionalEncoder.fixed_sinusoidal(max_positions, dims.d_t))
        return cls(layers, enc, dims, attention_mode, pos)

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    @property
    def head_count(self) -> int:
        return self.layers[0].head_count

    def parameters(self) -> list[Tensor]:
        out = list(self.time_encoder.parameters())
        if self.positional_encoder is not None:
            out.extend(self.positional_encoder.parameters())
        for layer in self.layers:
            out.extend(layer.parameters())
        return out


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def build_entity_matrix(
    hidden: Tensor,
    batch: NeighborhoodBatch,
    enc: TimeEncoder,
    positional: PositionalEncoder | None = None,
) -> Tensor:
    """Entity-temporal matrices of the B targets of ``batch`` as one operator:
    B target rows, then N neighbor rows per target.

    ``hidden`` holds the B target states followed by the states of every
    sampled interaction, in the order of the batch's rows. Target row b is
    (hidden, zero edge block, phi(0)); row B + b * N + i is target b's i-th
    neighbor slot, (hidden, edge, phi(t - t_i)). The edge block is as wide as
    the batch's edge features. A slot past the end of a sample is all zeros
    and is left to the attention mask. phi is encoded for the sampled
    timespans only; the target rows take ``encode_values([0.0])``, phi(0) bit
    for bit (cos 0 = 1, sin 0 = 0). In positional mode the time block is a
    rank lookup instead (rank 0 = oldest neighbor, target = rank n), made in
    (B, N + 1) block order so that a learnable table sums its gradient rows
    in that order.
    """
    b, n = batch.mask.shape
    sizes = batch.sizes
    if b == 0 or hidden.data.shape[0] != b + sizes.sum():
        raise ContractError(f"{hidden.data.shape[0]} hidden rows for samples of sizes "
                            f"{sizes.tolist()}: need B > 0 and B + sum(sizes) rows")
    targets = np.arange(b)
    sampled = b + np.flatnonzero(batch.mask)  # z rows of the sampled interactions
    own_rows = np.concatenate([targets, sampled])  # the z row of each hidden row
    if positional is None:
        time = enc.encode_many(np.repeat(batch.query_times, sizes) - batch.times)
        time_rows = sampled
    else:
        # each target's row, then its sampled slots, in (B, N + 1) block order
        real = np.column_stack([np.ones(b, dtype=bool), batch.mask])
        ranks = np.column_stack([sizes, np.tile(np.arange(n), (b, 1))])[real]
        time = positional.lookup(ranks)
        time_rows = np.column_stack([targets, b + np.arange(b * n).reshape(b, n)])[real]
    width, edge_dim = hidden.data.shape[1], batch.edge_features.shape[1]
    t0 = width + edge_dim
    z = np.zeros((b * (n + 1), t0 + time.data.shape[1]))
    z[own_rows, :width] = hidden.data
    z[sampled, width:t0] = batch.edge_features
    if positional is None:
        z[:b, t0:] = enc.encode_values([0.0])
    z[time_rows, t0:] = time.data

    def pull(g: np.ndarray) -> None:
        if hidden.requires_grad:
            hidden._accumulate(g[own_rows, :width])
        if time.requires_grad:
            time._accumulate(g[time_rows, t0:])

    return ad.apply_op(z, (hidden, time), pull)


def attend_head(z: Tensor, w_q: list[Tensor], w_k: list[Tensor], w_v: list[Tensor],
                mode: str, mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """All heads of one hop over the entity-temporal matrices of B targets,
    as one operator; ``w_q``, ``w_k``, ``w_v`` hold one projection per head.

    ``z`` holds the B target rows followed by N neighbor rows per target,
    the layout of ``build_entity_matrix``, and ``mask`` (B, N) marks the real
    neighbor rows. Returns the (B, H * d_h) head outputs and the (H, B, N)
    weights, zero on masked rows. Constant mode weighs real rows uniformly
    (mean pooling); the other modes scale query-key products by sqrt(d_h).
    The head is the leading axis of every array and every product is a
    one-head product or a batched ``np.matmul`` of them, so each head gets
    its one-head bits; the backward sums in the order of a chain of elementary
    operators (heads last to first, query terms neighbor by neighbor).
    """
    n_rows, d_in = z.data.shape
    b, n = mask.shape
    if n < 1 or n_rows != b * (n + 1):
        raise ContractError("attention needs the target row plus at least one neighbor slot")
    learned = mode != "constant"
    inputs = (z, *w_q, *w_k, *w_v) if learned else (z, *w_v)
    targets, neighbors = z.data[:b], z.data[b:]
    h, d_h = len(w_v), w_v[0].data.shape[1]
    scale = 1.0 / math.sqrt(d_h)
    wv = np.array([w.data for w in w_v])  # (H, d_in, d_h), as are wq and wk
    values = np.matmul(neighbors, wv).reshape(h, b, n, d_h)
    if learned:
        wq, wk = np.array([w.data for w in w_q]), np.array([w.data for w in w_k])
        query = np.matmul(targets, wq)
        keys = np.matmul(neighbors, wk).reshape(h, b, n, d_h)
        dots = np.matmul((keys * query[:, :, None]).reshape(h, b * n, d_h), np.ones((d_h, 1)))
        scores = np.where(mask, scale * dots.reshape(h, b, n), -np.inf)
        top = np.where(mask.any(axis=1, keepdims=True), scores.max(axis=2, keepdims=True), 0.0)
        e = np.exp(scores - top)  # a live row sums to >= 1, an all-masked one to 0
        alpha = e / np.maximum(e.sum(axis=2, keepdims=True), 1.0)
    else:
        alpha = np.tile(mask / np.maximum(mask.sum(axis=1, keepdims=True), 1), (h, 1, 1))
    heads = (alpha[..., None] * values).sum(axis=2)

    def pull(g: np.ndarray) -> None:
        g_out = np.ascontiguousarray(g.reshape(b, h, d_h).transpose(1, 0, 2))[:, :, None]
        g_values = (g_out * alpha[..., None]).reshape(h, b * n, d_h)
        grads = [(w_v, np.matmul(neighbors.T, g_values))]
        if learned:
            g_alpha = (g_out * values).sum(axis=3)
            inner = (g_alpha * alpha).sum(axis=2, keepdims=True)
            g_dots = (scale * (alpha * (g_alpha - inner)))[..., None]
            g_keys = (g_dots * query[:, :, None]).reshape(h, b * n, d_h)
            g_query = (g_dots * keys).sum(axis=2)
            grads += [(w_q, np.matmul(targets.T, g_query)), (w_k, np.matmul(neighbors.T, g_keys))]
        g_z = None
        for i in reversed(range(h)):  # heads last to first
            for w, g_w in grads:
                w[i]._accumulate(g_w[i])
            if z.requires_grad:
                rows = np.empty((n_rows, d_in))  # in constant mode no query reads a target
                rows[:b] = g_query[i] @ wq[i].T if learned else 0.0
                np.matmul(g_values[i], wv[i].T, out=rows[b:])
                if learned:
                    rows[b:] += g_keys[i] @ wk[i].T
                g_z = rows if g_z is None else np.add(g_z, rows, out=g_z)
        if g_z is not None:
            z._accumulate(g_z)

    return ad.apply_op(heads.transpose(1, 0, 2).reshape(b, h * d_h), inputs, pull), alpha


def feed_forward(x: Tensor, x0: np.ndarray, weights: list[Tensor],
                 biases: list[Tensor]) -> Tensor:
    """ReLU MLP over the columns of ``x`` followed by the raw columns ``x0``
    (which may be zero-width): ``a @ w + b`` per layer, with a ReLU between
    layers and none after the last. One operator whose forward and backward
    repeat the float operations of the concat/matmul/add/relu chain."""
    inputs = [np.concatenate([x.data, x0], axis=1)]
    for w, b in zip(weights[:-1], biases):
        pre = inputs[-1] @ w.data + b.data
        inputs.append(np.where(pre > 0, pre, 0.0))  # derivative at exactly 0 is 0
    out = inputs[-1] @ weights[-1].data + biases[-1].data

    def pull(g: np.ndarray) -> None:
        for k in reversed(range(len(weights))):
            biases[k]._accumulate(ad.unbroadcast(g, biases[k].data.shape))
            weights[k]._accumulate(inputs[k].T @ g)
            if k > 0:
                g = (g @ weights[k].data.T) * (inputs[k] > 0)
        if x.requires_grad:
            x._accumulate((g @ weights[0].data.T)[:, :x.data.shape[1]])

    return ad.apply_op(out, (x, *weights, *biases), pull)


def _hidden_states(model: TgatModel, level: int, nodes: np.ndarray, times: np.ndarray,
                   graph: TemporalGraph, sampling: SamplingConfig, key: np.uint64,
                   attention: list | None) -> Tensor:
    """(B, d) states of ``nodes`` at ``times`` after ``level`` layers.

    One hop at a time: one sampler call draws every target's neighborhood
    from the call's ``key`` (a target's sample depends on no other target),
    then one recursive call evaluates all targets and all of their sampled
    (peer, time) rows at the level below, each neighbor at its own
    interaction time, and the hop attends every target at once. A target with
    no prior interaction attends an all-masked block: its neighborhood
    representation is zero and its FFN still runs, which keeps inductive
    inference total. Each hop appends ``(level, batch, head weights)`` to
    ``attention`` after the hops below it, so the top hop comes last.
    """
    x0 = graph.node_features[nodes]
    if level == 0:
        return ad.constant(x0)

    layer = model.layers[level - 1]
    positional = model.positional_encoder if model.attention_mode == "positional" else None
    batch = hop_neighborhoods(graph, nodes, times, sampling.max_neighbors, sampling.strategy,
                              key)
    hidden = _hidden_states(
        model, level - 1,
        np.concatenate([nodes, batch.peers]),
        np.concatenate([times, batch.times]),
        graph, sampling, key, attention)
    z = build_entity_matrix(hidden, batch, model.time_encoder, positional)
    heads, weights = attend_head(z, layer.w_q, layer.w_k, layer.w_v, model.attention_mode,
                                 batch.mask)
    if attention is not None:
        attention.append((level, batch, weights))

    return feed_forward(heads, x0, [layer.w0, layer.w1], [layer.b0, layer.b1])


def embed_tensor(model: TgatModel, node, t, graph: TemporalGraph,
                 sampling: SamplingConfig, rng_seed=0, attention: list | None = None) -> Tensor:
    """Differentiable time-aware embeddings (full L-layer forward pass): (1, d)
    for a scalar node and time, (B, d) for equal-length sequences of them.

    Each query's embedding depends only on (``rng_seed``, node, time), so B
    queries in one call equal each query embedded alone, up to float
    summation order. The model's raw node and edge feature widths must be
    the graph's, and the queries are validated here, once for all hops; no
    queries give a (0, d) result. A list passed as ``attention`` receives
    each hop's ``(level, NeighborhoodBatch, (H, B, N) weights)``.
    """
    dims = model.dims
    if (dims.d0, dims.d_e) != (graph.node_feature_dim, graph.edge_feature_dim):
        raise InferenceError(
            f"model expects {dims.d0} node and {dims.d_e} edge features, graph has "
            f"{graph.node_feature_dim} node and {graph.edge_feature_dim} edge features")
    nodes = np.atleast_1d(whole_numbers(node, "node id"))
    unknown = nodes[(nodes < 0) | (nodes >= graph.num_nodes)]
    if unknown.size:
        raise InferenceError(f"node {unknown[0]} has no features in this graph")
    if model.attention_mode == "positional":
        # target row occupies rank N, so the sample must fit under the table
        sampling = replace(sampling, max_neighbors=min(
            sampling.max_neighbors, model.positional_encoder.max_positions - 1))
    nodes, times = check_queries(graph, nodes, np.atleast_1d(t), sampling.max_neighbors,
                                 sampling.strategy)
    if nodes.size == 0:
        return ad.constant(np.zeros((0, dims.d)))
    return _hidden_states(model, model.layer_count, nodes, times, graph, sampling,
                          sampling_key(rng_seed), attention)


def embed(model: TgatModel, node, t, graph: TemporalGraph,
          sampling: SamplingConfig, rng_seed=0) -> np.ndarray:
    """Inference-only embeddings, (d,) for a scalar node and time or (B, d) for
    sequences; works for nodes absent from training events."""
    out = embed_tensor(model, node, t, graph, sampling, rng_seed).data
    return out[0].copy() if np.ndim(node) == 0 else out.copy()


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "tgat-checkpoint"
CHECKPOINT_VERSION = 1


def _named_params(model: TgatModel) -> dict[str, Tensor]:
    names: dict[str, Tensor] = {"time_encoder.frequencies": model.time_encoder.frequencies}
    if model.positional_encoder is not None and model.positional_encoder.learnable:
        names["positional.table"] = model.positional_encoder.table
    for li, layer in enumerate(model.layers):
        for hi in range(layer.head_count):
            names[f"layers.{li}.heads.{hi}.w_q"] = layer.w_q[hi]
            names[f"layers.{li}.heads.{hi}.w_k"] = layer.w_k[hi]
            names[f"layers.{li}.heads.{hi}.w_v"] = layer.w_v[hi]
        names[f"layers.{li}.ffn.w0"] = layer.w0
        names[f"layers.{li}.ffn.b0"] = layer.b0
        names[f"layers.{li}.ffn.w1"] = layer.w1
        names[f"layers.{li}.ffn.b1"] = layer.b1
    return names


def checkpoint_payload(model: TgatModel, extra: dict | None = None) -> dict:
    pos = model.positional_encoder
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dims": {
            "d0": model.dims.d0, "d": model.dims.d, "d_t": model.dims.d_t,
            "d_h": model.dims.d_h, "d_f": model.dims.d_f, "d_e": model.dims.d_e,
        },
        "layer_count": model.layer_count,
        "head_count": model.head_count,
        "attention_mode": model.attention_mode,
        "positional": None if pos is None else {
            "learnable": pos.learnable,
            "max_positions": pos.max_positions,
            "table": None if pos.learnable else pos.table.data.tolist(),
        },
        "extra": extra or {},
        "params": {name: t.data.tolist() for name, t in _named_params(model).items()},
    }
    return payload


def save_checkpoint(model: TgatModel, path, extra: dict | None = None) -> None:
    """Write a self-describing JSON checkpoint (dims, mode, named buffers).

    Floats are serialized with shortest round-trip representation, so loading
    restores parameters bit-exactly and identical models produce identical
    bytes.
    """
    with open(path, "w") as fh:
        json.dump(checkpoint_payload(model, extra), fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[TgatModel, dict]:
    try:  # invalid UTF-8 or JSON raises ValueError
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path}: not a model checkpoint")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {payload.get('version')}")
        extra = payload.get("extra", {})
        if not isinstance(extra, dict):
            raise CheckpointError(f"{path}: extra is not a key-value table")
        d = payload["dims"]
        dims = Dims(d0=d["d0"], d=d["d"], d_t=d["d_t"], d_h=d["d_h"], d_f=d["d_f"], d_e=d["d_e"])
        mode = payload["attention_mode"]
        pos_info = payload["positional"]
        params = payload["params"]
        model = TgatModel.create(
            dims,
            layer_count=payload["layer_count"],
            head_count=payload["head_count"],
            attention_mode=mode,
            positional_learnable=bool(pos_info and pos_info["learnable"]),
            max_positions=pos_info["max_positions"] if pos_info else 64,
        )
        if pos_info and not pos_info["learnable"]:
            table = np.asarray(pos_info["table"], dtype=np.float64)
            if not np.isfinite(table).all():
                raise CheckpointError(f"{path}: positional table holds a non-finite value")
            model.positional_encoder = PositionalEncoder(table, learnable=False)
        for name, tensor in _named_params(model).items():
            stored = np.asarray(params[name], dtype=np.float64).reshape(tensor.data.shape)
            if not np.isfinite(stored).all():
                raise CheckpointError(f"{path}: parameter {name} holds a non-finite value")
            tensor.data = stored
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint ({exc})") from None
    return model, extra
