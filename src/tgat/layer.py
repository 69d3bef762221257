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
once. The entity matrix holds only real rows, targets first, then the
sampled interactions in the batch's order; attention projects those rows
and scatters the projections into the (B, N) block of the mask only for
the softmax and the weighted sum.

Each hop runs in two stages. Its prepare stage samples it and writes the
edge and time blocks of its entity matrix, which read no hidden state; its
compute stage prepares the hop, unless it was prepared already, then writes
the hidden block and attends. A hop is prepared before the hops below it,
and computed after them, so hops are sampled and encoded top down and
computed bottom up. ``embed`` prepares the next pass's top hop beside the
pass it computes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import cores
from .autodiff import Tensor
from .errors import CheckpointError, ContractError, InferenceError, ValidationError
from .temporal_graph import (
    NeighborhoodBatch,
    Rule,
    SamplingConfig,
    TemporalGraph,
    check_queries,
    check_value,
    checked,
    hop_neighborhoods,
    sampling_key,
    seed_sequence,
    setting,
)
# only the name perfbench/spans.py wraps to time the sampler; nothing calls
# it, as each hop of the forward pass calls hop_neighborhoods
from .temporal_graph import sample_neighborhoods as temporal_neighborhood  # noqa: F401
from .time_encoding import PositionalEncoder, TimeEncoder

# sampled slots times d_h from which a hop's backward runs one head per task
# on the free cores: train-l2's training and test inner hops (7,450 to 9,360
# slots at d_h 8) reach it; its validation and top hops, where handing work
# to a pool thread saves nothing, stay below
SPLIT_WORK = 1 << 15


@checked
class Dims:
    """Dimension bundle: raw features d0, hidden d, time d_t, per-head d_h,
    FFN hidden d_f, edge features d_e."""

    d0: int = setting(Rule.AT_LEAST_0)
    d: int = setting(Rule.AT_LEAST_1)
    d_t: int = setting(Rule.EVEN_AT_LEAST_2)
    d_h: int = setting(Rule.AT_LEAST_1)
    d_f: int = setting(Rule.AT_LEAST_1)
    d_e: int = setting(Rule.AT_LEAST_0, 0)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def head_parameter_formula(dims: Dims) -> int:
    """Weight entries the per-head scaling formula tracks when d_e = 0:
    one (d + d_t) x d_h projection, the single-head FFN input block, and the
    FFN output matrix. Biases excluded."""
    return (dims.d + dims.d_t) * dims.d_h + (dims.d_h + dims.d0) * dims.d_f + dims.d_f * dims.d


class LayerParams:
    """One TGAT layer: Q, K and V each as one (d_in, H * d_h) parameter, head h
    in columns [h * d_h, (h + 1) * d_h), plus the shared output FFN."""

    def __init__(self, w_q, w_k, w_v, head_count: int, w0, b0, w1, b1):
        if not (w_q.data.shape == w_k.data.shape == w_v.data.shape
                and head_count >= 1 and w_q.data.shape[1] % head_count == 0):
            raise ValidationError("Q, K and V need one equal column block per head")
        self.w_q, self.w_k, self.w_v = w_q, w_k, w_v
        self.head_count = head_count
        self.w0, self.b0, self.w1, self.b1 = w0, b0, w1, b1

    @classmethod
    def create(cls, dims: Dims, head_count: int, input_dim: int,
               rng: np.random.Generator) -> "LayerParams":
        proj_in = input_dim + dims.d_e + dims.d_t
        # every Q head, then every K head, then every V head, each drawn alone
        w_q, w_k, w_v = (ad.parameter(np.hstack([glorot(rng, proj_in, dims.d_h)
                                                 for _ in range(head_count)])) for _ in range(3))
        ffn_in = head_count * dims.d_h + dims.d0
        w0 = ad.parameter(glorot(rng, ffn_in, dims.d_f))
        b0 = ad.parameter(np.zeros((1, dims.d_f)))
        w1 = ad.parameter(glorot(rng, dims.d_f, dims.d))
        b1 = ad.parameter(np.zeros((1, dims.d)))
        return cls(w_q, w_k, w_v, head_count, w0, b0, w1, b1)

    def head_param_count(self) -> int:
        """Parameter budget of one attention head in the sense of the scaling
        formula: one head's projection block (Q, K and V share its shape), its
        FFN input block plus the raw-feature block, and the FFN output matrix;
        biases excluded. Computed from the constructed array shapes."""
        d_in, width = self.w_q.data.shape
        d_h = width // self.head_count
        d_f = self.w1.data.shape[0]
        x0_rows = self.w0.data.shape[0] - width
        return d_in * d_h + (d_h + x0_rows) * d_f + self.w1.data.size


class TgatModel:
    """Stack of TGAT layers sharing one time encoder."""

    def __init__(self, layers, time_encoder: TimeEncoder, dims: Dims,
                 attention_mode: str = "learned",
                 positional_encoder: PositionalEncoder | None = None):
        check_value(attention_mode, str, "attention_mode", Rule.ATTENTION_MODE)
        if not layers:
            raise ValidationError("model needs at least one layer")
        if (attention_mode == "positional") != (positional_encoder is not None):
            raise ValidationError("positional mode needs a positional encoder, "
                                  "and no other mode takes one")
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
        check_value(layer_count, int, "layer_count", Rule.AT_LEAST_1)
        check_value(head_count, int, "head_count", Rule.AT_LEAST_1)
        check_value(t_max, float, "t_max", Rule.NON_NEGATIVE_FINITE)
        check_value(max_positions, int, "max_positions", Rule.AT_LEAST_1)
        rng = np.random.default_rng(seed_sequence(rng_seed))
        enc = TimeEncoder.create(dims.d_t, t_max=t_max)
        layers = [
            LayerParams.create(dims, head_count, dims.d0 if l == 0 else dims.d, rng)
            for l in range(layer_count)
        ]
        pos = None
        if attention_mode == "positional":
            pos = (PositionalEncoder(glorot(rng, max_positions, dims.d_t), learnable=True)
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
        """Each tensor of the checkpoint table, ``_named_params``, once, in the
        order it first appears there."""
        return list(dict.fromkeys(t for t, _ in _named_params(self).values()))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EntityBlocks:
    """A hop's entity matrix ``z`` as its prepare stage leaves it: the edge
    and time blocks of every row written, and the first ``width`` columns,
    the hidden block, still to be written by ``build_entity_matrix``.
    ``time`` is the tensor the time block reads: phi's rows, or the
    positional table through the ranks ``ranks``."""

    batch: NeighborhoodBatch
    z: np.ndarray
    width: int
    time: Tensor
    ranks: np.ndarray | None


def entity_blocks(batch: NeighborhoodBatch, width: int, enc: TimeEncoder,
                  positional: PositionalEncoder | None = None) -> EntityBlocks:
    """The prepare stage of the entity matrix of ``batch``'s B targets and of
    their sampled interactions: z holds B + sum(sizes) rows, targets first,
    then the sampled rows in the batch's order, and ``width`` hidden columns.

    Target row b gets a zero edge block and phi(0); sampled row B + j gets
    its edge features and phi(t - t_j). The edge block is as wide as the
    batch's edge features. One ``encode_many`` call writes every row's phi
    straight into its time block, the targets' zero timespans first, so a
    target's phi(0) is the operator's own, signed zeros and all. In
    positional mode the time block is table row r for rank r: a target takes
    rank n, its n sampled rows ranks 0 to n - 1, oldest first. Ranks must be
    below the table's row count (``embed_tensor`` checks the cap), or numpy
    raises IndexError. Nothing here reads a hidden state, so a hop is
    prepared before the hops below it are computed.
    """
    b, sizes = batch.mask.shape[0], batch.sizes
    t0 = width + batch.edge_features.shape[1]
    time_dim = enc.output_dim if positional is None else positional.table.data.shape[1]
    z = np.empty((b + batch.times.size, t0 + time_dim))
    z[:b, width:t0] = 0.0
    z[b:, width:t0] = batch.edge_features
    if positional is None:
        ranks = None
        time = enc.encode_many(np.concatenate([np.zeros(b),
                                               batch.query_times.repeat(sizes) - batch.times]),
                               out=z[:, t0:])
    else:  # a sampled row's rank is its column in the mask
        ranks = np.concatenate([sizes, batch.mask.nonzero()[1]])
        time = positional.table
        z[:, t0:] = time.data[ranks]
    return EntityBlocks(batch, z, width, time, ranks)


def build_entity_matrix(hidden: Tensor, blocks: EntityBlocks) -> Tensor:
    """Entity-temporal rows of a hop as one operator: writes ``hidden`` into
    the hidden block of the prepared ``blocks`` (``entity_blocks``), whose z
    becomes the result, one row per row of ``hidden``.

    ``hidden`` holds the B target states followed by the states of every
    sampled interaction, in the order of the batch's rows. The hidden block
    takes its rows' gradient, and the time block's gradient goes to phi's
    rows, or is summed into the table row of each rank. The blocks are
    consumed: z is written in place, so each prepared hop builds once.
    """
    z, width, time, ranks = blocks.z, blocks.width, blocks.time, blocks.ranks
    b, sizes = blocks.batch.mask.shape[0], blocks.batch.sizes
    if b == 0 or hidden.data.shape != (z.shape[0], width):
        raise ContractError(f"{hidden.data.shape} hidden rows for samples of sizes "
                            f"{sizes.tolist()}: need B > 0 and B + sum(sizes) rows of "
                            f"{width} columns")
    t0 = width + blocks.batch.edge_features.shape[1]
    z[:, :width] = hidden.data

    def pull(g: np.ndarray) -> None:
        if hidden.requires_grad:
            hidden._accumulate(g[:, :width])
        if time.requires_grad and ranks is None:
            time._accumulate(g[:, t0:])
        elif time.requires_grad:  # each row's gradient summed into its rank's table row
            table_grad = np.zeros_like(time.data)
            np.add.at(table_grad, ranks, g[:, t0:])
            time._accumulate(table_grad)

    return ad.apply_op(z, (hidden, time), pull)


def attend_head(z: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor, h: int,
                mode: str, mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """All ``h`` heads of one hop over the entity-temporal rows of B targets,
    as one operator; head i's Q, K and V are columns [i * d_h, (i + 1) * d_h).

    ``z`` holds the B target rows followed by one row per sampled
    interaction, the layout of ``build_entity_matrix``, and ``mask`` (B, N)
    marks where the sampled rows sit in the attention block. Returns the
    (B, h * d_h) head outputs and the (h, B, N) weights, zero on masked
    slots. Constant mode weighs real rows uniformly (mean pooling) and reads
    only ``w_v``; the other modes scale query-key products by sqrt(d_h).
    Keys stand beside values, so the sampled rows and the target rows are
    each projected by one product; only the projected rows are scattered
    into the (B, N) block, for the softmax and the weighted sum.

    The backward's per-head work is written once, over a range of heads. A
    hop of fewer than ``SPLIT_WORK`` sampled slots times d_h runs it once
    over all heads; a larger one runs one head per task on ``cores.run``,
    then its products with the sampled rows side by side: the weights'
    gradient and, when z takes one, z's. A head's multiplies, reductions and
    einsum give that head's slice of the bits of the calls over all heads, so
    no bit depends on the split.
    """
    n_rows, d_in = z.data.shape
    b, n = mask.shape
    slots = mask.ravel().nonzero()[0]
    if n < 1 or n_rows != b + slots.size:
        raise ContractError(f"attention needs B target rows, one row per sampled slot and "
                            f"at least one slot: {n_rows} rows for a {mask.shape} mask "
                            f"of {slots.size} slots")
    learned = mode != "constant"
    width = w_v.data.shape[1]
    d_h = width // h
    scale = 1.0 / math.sqrt(d_h)
    params = [w_q, w_k, w_v] if learned else [w_v]
    w_kv = np.concatenate([w_k.data, w_v.data], axis=1) if learned else w_v.data
    targets, sampled = z.data[:b], z.data[b:]
    blocks = w_kv.shape[1] // d_h  # 2H or H
    kv = np.zeros((blocks, b * n, d_h))  # one (B * N, d_h) block per projected head
    kv[:, slots] = (sampled @ w_kv).reshape(-1, blocks, d_h).transpose(1, 0, 2)
    kv = kv.reshape(-1, h, b, n, d_h)  # (K and V or V, H, B, N, d_h)
    if learned:
        query = (targets @ w_q.data).reshape(b, h, d_h).transpose(1, 0, 2)
        dots = np.matmul((kv[0] * query[:, :, None]).reshape(h, b * n, d_h), np.ones((d_h, 1)))
        scores = np.where(mask, scale * dots.reshape(h, b, n), -np.inf)
        top = np.where(np.logical_or.reduce(mask, axis=1, keepdims=True),
                       np.maximum.reduce(scores, axis=2, keepdims=True), 0.0)
        e = np.exp(scores - top)  # a live row sums to >= 1, an all-masked one to 0
        alpha = e / np.maximum(np.add.reduce(e, axis=2, keepdims=True), 1.0)
    else:
        alpha = np.tile(mask / np.maximum(mask.sum(axis=1, keepdims=True), 1), (h, 1, 1))
    heads = np.einsum("hbn,hbnd->bhd", alpha, kv[-1]).reshape(b, width)

    def pull(g: np.ndarray) -> None:
        g_out = np.ascontiguousarray(g.reshape(b, h, d_h).transpose(1, 0, 2))[:, :, None]
        g_slots = np.empty(kv.shape)
        g_query = np.empty((b, h, d_h))

        def pull_heads(r: slice) -> None:
            np.multiply(g_out[r], alpha[r, ..., None], out=g_slots[-1, r])
            if learned:
                g_alpha = (g_out[r] * kv[-1, r]).sum(axis=3)
                inner = (g_alpha * alpha[r]).sum(axis=2, keepdims=True)
                g_dots = scale * (alpha[r] * (g_alpha - inner))
                np.multiply(g_dots[..., None], query[r, :, None], out=g_slots[0, r])
                g_query[:, r] = np.einsum("hbn,hbnd->bhd", g_dots, kv[0, r])

        split = slots.size * d_h >= SPLIT_WORK
        if split:
            cores.run([partial(pull_heads, slice(i, i + 1)) for i in range(h)])
        else:
            pull_heads(slice(0, h))
        g_query = g_query.reshape(b, width)
        if learned:
            w_q._accumulate(targets.T @ g_query)
        g_kv = g_slots.reshape(-1, b * n, d_h)[:, slots]  # the sampled slots' gradients
        g_kv = g_kv.transpose(1, 0, 2).reshape(slots.size, w_kv.shape[1])  # as w_kv's columns
        g_w = np.empty((d_in, w_kv.shape[1]))  # K's columns, when learned, then V's
        products = [partial(np.matmul, sampled.T, g_kv, out=g_w)]
        if z.requires_grad:
            g_z = np.empty((n_rows, d_in))  # in constant mode no query reads a target
            g_z[:b] = g_query @ w_q.data.T if learned else 0.0
            products.append(partial(np.matmul, g_kv, w_kv.T, out=g_z[b:]))
        if split:  # the products side by side
            cores.run(products)
        else:
            for product in products:
                product()
        if learned:
            w_k._accumulate(g_w[:, :width])
        w_v._accumulate(g_w[:, -width:])
        if z.requires_grad:
            z._accumulate(g_z)

    return ad.apply_op(heads, (z, *params), pull), alpha


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
            biases[k]._accumulate(g.sum(axis=0, keepdims=True))
            weights[k]._accumulate(inputs[k].T @ g)
            if k > 0:
                g = (g @ weights[k].data.T) * (inputs[k] > 0)
        if x.requires_grad:
            x._accumulate((g @ weights[0].data.T)[:, :x.data.shape[1]])

    return ad.apply_op(out, (x, *weights, *biases), pull)


def _prepare_hop(model: TgatModel, level: int, nodes: np.ndarray, times: np.ndarray,
                 graph: TemporalGraph, sampling: SamplingConfig, key: np.uint64) -> EntityBlocks:
    """The prepare stage of the hop at ``level`` for B (node, time) queries:
    one sampler call draws every target's neighborhood from the call's
    ``key`` (a target's sample depends on no other target), then
    ``entity_blocks`` writes the hop's edge and time blocks."""
    batch = hop_neighborhoods(graph, nodes, times, sampling.max_neighbors, sampling.strategy,
                              key)
    width = model.dims.d0 if level == 1 else model.dims.d
    return entity_blocks(batch, width, model.time_encoder, model.positional_encoder)


def _hidden_states(model: TgatModel, level: int, nodes: np.ndarray, times: np.ndarray,
                   blocks: EntityBlocks | None, graph: TemporalGraph, sampling: SamplingConfig,
                   key: np.uint64, attention: list | None) -> Tensor:
    """(B, d) states of ``nodes`` at ``times`` after ``level`` layers: the
    compute stage of their hop, which first prepares the hop itself
    (``_prepare_hop``) unless ``blocks`` holds it prepared already.

    The hop below holds all targets and all of their sampled (peer, time)
    rows, each neighbor at its own interaction time. One recursive call
    prepares and computes it, so every hop is sampled and encoded top down,
    and computed bottom up. Then this hop writes its hidden block and
    attends every target at once. A target with no prior interaction attends
    an all-masked block: its neighborhood representation is zero and its FFN
    still runs, which keeps inductive inference total. Each hop appends
    ``(level, batch, head weights)`` to ``attention`` after the hops below
    it, so the top hop comes last.
    """
    if blocks is None:
        blocks = _prepare_hop(model, level, nodes, times, graph, sampling, key)
    layer, batch = model.layers[level - 1], blocks.batch
    below = np.concatenate([nodes, batch.peers])
    if level == 1:
        hidden = ad.constant(graph.node_features[below])
    else:
        hidden = _hidden_states(model, level - 1, below,
                                np.concatenate([batch.query_times, batch.times]), None,
                                graph, sampling, key, attention)
    z = build_entity_matrix(hidden, blocks)
    heads, weights = attend_head(z, layer.w_q, layer.w_k, layer.w_v, layer.head_count,
                                 model.attention_mode, batch.mask)
    if attention is not None:
        attention.append((level, batch, weights))

    return feed_forward(heads, graph.node_features[nodes], [layer.w0, layer.w1],
                        [layer.b0, layer.b1])


def _checked_queries(model: TgatModel, node, t, graph: TemporalGraph, sampling: SamplingConfig,
                     rng_seed) -> tuple[np.ndarray, np.ndarray, np.uint64]:
    """The query arrays and the sampling key of one ``embed_tensor`` or
    ``embed`` call. The model's feature widths, the queries and, in
    positional mode, the cap are checked against the graph and the model
    first, and only then is the key drawn from ``rng_seed``: a call that
    fails a check takes no draw of a ``Generator``, and every other call,
    one without queries included, takes one."""
    dims = model.dims
    if (dims.d0, dims.d_e) != (graph.node_feature_dim, graph.edge_feature_dim):
        raise InferenceError(
            f"model expects {dims.d0} node and {dims.d_e} edge features, graph has "
            f"{graph.node_feature_dim} node and {graph.edge_feature_dim} edge features")
    nodes, times = check_queries(graph, node, t)
    cap, pos = sampling.max_neighbors, model.positional_encoder
    if pos is not None and cap >= pos.max_positions:  # the target row takes rank N
        raise ValidationError(f"max_neighbors {cap} needs a positional table of at least "
                              f"{cap + 1} rows, the model's has {pos.max_positions}")
    return nodes, times, sampling_key(rng_seed)


def embed_tensor(model: TgatModel, node, t, graph: TemporalGraph,
                 sampling: SamplingConfig, rng_seed=0, attention: list | None = None) -> Tensor:
    """Differentiable time-aware embeddings (full L-layer forward pass): (B, d)
    for B queries, which ``check_queries`` reads, so a node and a time give (1, d).

    Each query's embedding depends only on (``rng_seed``, node, time), so B
    queries in one call equal each query embedded alone, up to float
    summation order. The model's raw node and edge feature widths must be
    the graph's, and the queries are validated here, once for all hops,
    before the key is drawn (``_checked_queries``); no queries give a
    (0, d) result. In positional mode the cap must be below the table's
    ``max_positions``. A list passed as ``attention`` receives each hop's
    ``(level, NeighborhoodBatch, (H, B, N) weights)``.

    The call is one pass of ``embed``, on this thread: the top hop is
    prepared, then computed. Each hop records phi on the tape when it is
    prepared, top hop first and ahead of the operators that read it, so
    ``backward`` adds the hops' frequency-gradient terms bottom hop first.
    """
    nodes, times, key = _checked_queries(model, node, t, graph, sampling, rng_seed)
    if nodes.size == 0:
        return ad.constant(np.zeros((0, model.dims.d)))
    return _hidden_states(model, model.layer_count, nodes, times, None, graph, sampling, key,
                          attention)


EMBED_CHUNK = 128  # queries per inference pass, which holds their L-hop neighborhoods


def embed_passes(count: int) -> list[slice]:
    """``count`` queries cut into passes of ``EMBED_CHUNK``. A tail of fewer
    than 4 joins the pass before it, because a product of 3 or fewer rows has
    other bits than those rows of a larger product. No queries are no
    passes."""
    bounds = [0, *range(EMBED_CHUNK, count - 3, EMBED_CHUNK), count]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def embed(model: TgatModel, node, t, graph: TemporalGraph,
          sampling: SamplingConfig, rng_seed=0) -> np.ndarray:
    """Inference-only embeddings, (d,) for a node and a time or (B, d) for
    sequences; works for nodes absent from training events. The queries are
    checked, and the key drawn, once, as ``embed_tensor`` does it, and run
    in the passes of ``embed_passes``, all sampled with that key, so a
    pass's rows are those of ``embed_tensor`` on that pass alone.

    Passes overlap: while one pass is computed, the next pass's top hop is
    sampled and encoded (``_prepare_hop``), on ``cores.run`` beside it; the
    first pass prepares its own. A pass's samples and phi rows depend on no
    other pass, so no bit depends on the overlap, and memory is that of one
    pass and one more top hop. A single pass runs alone on this thread. A
    node and a time give a (d,) array of its own, not a view of the pass's
    rows. The id rule reads ``node`` as given, so [True, 2] is rejected, not
    read as [1, 2]."""
    nodes, times, key = _checked_queries(model, node, t, graph, sampling, rng_seed)
    out = np.empty((nodes.size, model.dims.d))
    top, prepared = model.layer_count, [None]  # the first pass prepares its top hop

    def prepare(s: slice) -> None:
        prepared.append(_prepare_hop(model, top, nodes[s], times[s], graph, sampling, key))

    def compute(s: slice, blocks: EntityBlocks | None) -> None:
        out[s] = _hidden_states(model, top, nodes[s], times[s], blocks, graph, sampling, key,
                                None).data

    passes = embed_passes(nodes.size)
    for s, after in zip(passes, passes[1:] + [None]):
        cores.run([partial(compute, s, prepared.pop())]
                  + ([partial(prepare, after)] if after else []))
    return out[0].copy() if np.asarray(t).ndim == 0 else out


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "tgat-checkpoint"
CHECKPOINT_VERSION = 1


def _named_params(model: TgatModel) -> dict[str, tuple[Tensor, slice]]:
    """Each checkpoint array by name, as the tensor that holds it and the
    columns it takes there: head h of a layer's Q, K or V is its columns
    [h * d_h, (h + 1) * d_h), every other array a whole tensor."""
    whole = slice(None)
    names = {"time_encoder.frequencies": (model.time_encoder.frequencies, whole)}
    if model.positional_encoder is not None and model.positional_encoder.learnable:
        names["positional.table"] = (model.positional_encoder.table, whole)
    for li, layer in enumerate(model.layers):
        d_h = layer.w_q.data.shape[1] // layer.head_count
        for hi in range(layer.head_count):
            for kind in ("w_q", "w_k", "w_v"):
                names[f"layers.{li}.heads.{hi}.{kind}"] = (getattr(layer, kind),
                                                           slice(hi * d_h, (hi + 1) * d_h))
        for kind in ("w0", "b0", "w1", "b1"):
            names[f"layers.{li}.ffn.{kind}"] = (getattr(layer, kind), whole)
    return names


def save_checkpoint(model: TgatModel, path, extra: dict | None = None) -> None:
    """Write a self-describing JSON checkpoint (dims, mode, named buffers).

    Floats are serialized with shortest round-trip representation, so loading
    restores parameters bit-exactly and identical models produce identical
    bytes. The text is built before the file is opened, so an ``extra`` that
    JSON cannot encode raises ValidationError and leaves the file as it was.
    """
    pos = model.positional_encoder
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dims": asdict(model.dims),
        "layer_count": model.layer_count,
        "head_count": model.head_count,
        "attention_mode": model.attention_mode,
        "positional": None if pos is None else {
            "learnable": pos.learnable,
            "max_positions": pos.max_positions,
            "table": None if pos.learnable else pos.table.data.tolist(),
        },
        "extra": extra or {},
        "params": {name: t.data[..., cols].tolist()
                   for name, (t, cols) in _named_params(model).items()},
    }
    try:
        text = json.dumps(payload, sort_keys=True)
    except (TypeError, ValueError) as exc:  # a numpy scalar, say, or a cycle
        raise ValidationError(f"extra must hold only values JSON can encode ({exc})") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _stored_array(path, what: str, value, shape: tuple) -> np.ndarray:
    """A stored array as float64, or CheckpointError unless finite and of exactly ``shape``."""
    array = np.asarray(value, dtype=np.float64)
    if array.shape != shape:
        raise CheckpointError(f"{path}: {what} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise CheckpointError(f"{path}: {what} holds a non-finite value")
    return array


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
        if bool(pos_info) != (mode == "positional"):
            raise CheckpointError(f"{path}: attention_mode {mode!r} "
                                  f"{'takes no' if pos_info else 'needs a'} positional block")
        params = dict(payload["params"])  # a list or a string raises here
        model = TgatModel.create(
            dims,
            layer_count=payload["layer_count"],
            head_count=payload["head_count"],
            attention_mode=mode,
            positional_learnable=bool(pos_info and pos_info["learnable"]),
            max_positions=pos_info["max_positions"] if pos_info else 64,
        )
        if pos_info and not pos_info["learnable"]:
            table = _stored_array(path, "positional table", pos_info["table"],
                                  model.positional_encoder.table.data.shape)
            model.positional_encoder = PositionalEncoder(table, learnable=False)
        named = _named_params(model)
        unknown = sorted(set(params) - set(named))
        if unknown:
            raise CheckpointError(f"{path}: unknown parameters {', '.join(unknown)}")
        for name, (tensor, cols) in named.items():
            block = tensor.data[..., cols]  # a view: the assignment writes the tensor's columns
            block[...] = _stored_array(path, f"parameter {name}", params[name], block.shape)
    except (KeyError, TypeError, ValueError, ValidationError, MemoryError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint ({exc})") from None
    return model, extra
