"""Temporal graph attention: entity-temporal matrix, per-head attention, stacking.

A layer embeds a target node at time t by (1) sampling its temporal
neighborhood, (2) building a matrix whose rows concatenate entity hidden
state, edge features and the time encoding of the timespan to t (row 0 is
the target itself with a zero timespan), (3) running masked scaled
dot-product attention per head over the neighbor rows, and (4) combining the
concatenated head outputs with the target's raw features through a two-layer
ReLU FFN. Stacking L layers extends aggregation to L hops; neighbor hidden
states at layer l-1 are evaluated at their own interaction times, which keeps
every read strictly in the consumer's past.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ContractError, InferenceError, ValidationError
from .temporal_graph import NeighborhoodSample, TemporalGraph, temporal_neighborhood
from .time_encoding import PositionalEncoder, TimeEncoder

ATTENTION_MODES = ("learned", "constant", "positional")


@dataclass(frozen=True)
class Dims:
    """Dimension bundle: raw features d0, hidden d, time d_t, per-head d_h,
    FFN hidden d_f, edge features d_e."""

    d0: int
    d: int
    d_t: int
    d_h: int
    d_f: int
    d_e: int = 0

    def validate(self) -> None:
        if self.d_t % 2 != 0 or self.d_t < 2:
            raise ValidationError(f"time encoding dim must be even and >= 2, got {self.d_t}")
        for name in ("d0", "d", "d_h", "d_f"):
            if getattr(self, name) < 1:
                raise ValidationError(f"dimension {name} must be positive")
        if self.d_e < 0:
            raise ValidationError("edge feature dim cannot be negative")


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
        w_q = [ad.parameter(glorot(rng, proj_in, dims.d_h)) for _ in range(head_count)]
        w_k = [ad.parameter(glorot(rng, proj_in, dims.d_h)) for _ in range(head_count)]
        w_v = [ad.parameter(glorot(rng, proj_in, dims.d_h)) for _ in range(head_count)]
        ffn_in = head_count * dims.d_h + dims.d0
        w0 = ad.parameter(glorot(rng, ffn_in, dims.d_f))
        b0 = ad.parameter(np.zeros((1, dims.d_f)))
        w1 = ad.parameter(glorot(rng, dims.d_f, dims.d))
        b1 = ad.parameter(np.zeros((1, dims.d)))
        return cls(w_q, w_k, w_v, w0, b0, w1, b1)

    @property
    def head_count(self) -> int:
        return len(self.w_q)

    @property
    def head_dim(self) -> int:
        return self.w_q[0].data.shape[1]

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for i in range(self.head_count):
            out.extend((self.w_q[i], self.w_k[i], self.w_v[i]))
        out.extend((self.w0, self.b0, self.w1, self.b1))
        return out

    def head_param_count(self) -> int:
        """Parameter budget of one attention head in the sense of the scaling
        formula: the shape of one projection (Q, K and V share it), this
        head's FFN input block plus the raw-feature block, and the FFN output
        matrix; biases excluded. Computed from the constructed array shapes."""
        d_h = self.head_dim
        d_f = self.w1.data.shape[0]
        x0_rows = self.w0.data.shape[0] - self.head_count * d_h
        return self.w_q[0].data.size + (d_h + x0_rows) * d_f + self.w1.data.size


class TgatModel:
    """Stack of TGAT layers sharing one time encoder."""

    def __init__(self, layers, time_encoder: TimeEncoder, dims: Dims,
                 attention_mode: str = "learned",
                 positional_encoder: PositionalEncoder | None = None):
        if attention_mode not in ATTENTION_MODES:
            raise ValidationError(f"unknown attention mode {attention_mode!r}")
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
        dims.validate()
        if layer_count < 1:
            raise ValidationError("layer_count must be >= 1")
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


class AttentionCollector:
    """Gathers per-head attention weights emitted during forward passes."""

    def __init__(self):
        # (layer_index, query_time, peers, timespans, weights averaged over heads)
        self.records: list[tuple[int, float, np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, layer_index: int, sample: NeighborhoodSample,
            head_weights: list[np.ndarray]) -> None:
        mean_w = np.mean(np.stack(head_weights), axis=0)
        self.records.append((layer_index, sample.query_time, sample.peers,
                             sample.query_time - sample.times, mean_w))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def build_entity_matrix(
    target_hidden: Tensor,
    t: float,
    sample: NeighborhoodSample,
    hidden_of: Callable[[int, float], Tensor],
    enc: TimeEncoder,
    edge_dim: int = 0,
    positional: PositionalEncoder | None = None,
) -> Tensor:
    """Entity-temporal feature matrix: row 0 is the target (zero-padded edge
    block, zero-timespan time block), row i >= 1 a sampled interaction with
    concatenation order (hidden, edge, time). In positional mode the time
    block is a rank lookup instead (rank 0 = oldest neighbor, target = rank N).
    """
    if sample.query_time != t:
        raise ContractError(f"sample was taken at {sample.query_time}, not at {t}")
    n = len(sample)
    if n == 0:
        raise ContractError("entity matrix needs at least one neighbor row")
    if target_hidden.data.shape[0] != 1:
        raise ContractError("target hidden state must be a single row")

    hiddens = [hidden_of(peer, ts)
               for peer, ts in zip(sample.peers.tolist(), sample.times.tolist())]
    width = target_hidden.data.shape[1]
    for h in hiddens:
        if h.data.shape != (1, width):
            raise ContractError(
                f"hidden width mismatch: target {target_hidden.data.shape}, "
                f"neighbor {h.data.shape}")
    neighbor_hidden = ad.concat_rows(hiddens)

    if positional is not None:
        time_target = positional.lookup(n)
        time_block = ad.concat_rows([positional.lookup(r) for r in range(n)])
    else:
        time_target = enc.encode(0.0)
        time_block = enc.encode_many(t - sample.times)

    if edge_dim > 0:
        target_row = ad.concat_cols(
            [target_hidden, ad.constant(np.zeros((1, edge_dim))), time_target])
        neighbor_rows = ad.concat_cols(
            [neighbor_hidden, ad.constant(sample.edge_features), time_block])
    else:
        target_row = ad.concat_cols([target_hidden, time_target])
        neighbor_rows = ad.concat_cols([neighbor_hidden, time_block])
    return ad.concat_rows([target_row, neighbor_rows])


def attend_head(z: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor,
                mode: str = "learned") -> tuple[Tensor, Tensor]:
    """One attention head over an entity-temporal matrix.

    Returns the aggregated neighborhood value and the attention weights. In
    constant mode the weights are uniform (mean pooling over values); the
    learned mode scales query-key products by sqrt(d_h).
    """
    n_rows = z.data.shape[0]
    if n_rows < 2:
        raise ContractError("attention needs the target row plus at least one neighbor")
    n = n_rows - 1
    neighbors = ad.slice_rows(z, 1, n_rows)
    values = ad.matmul(neighbors, w_v)
    if mode == "constant":
        alpha = ad.constant(np.full((1, n), 1.0 / n))
    else:
        query = ad.matmul(ad.slice_rows(z, 0, 1), w_q)
        keys = ad.matmul(neighbors, w_k)
        d_h = w_q.data.shape[1]
        scores = ad.scale(ad.matmul(query, ad.transpose(keys)), 1.0 / np.sqrt(d_h))
        alpha = ad.softmax_rows(scores)
    return ad.matmul(alpha, values), alpha


def _hidden_state(
    model: TgatModel,
    layer_index: int,
    node: int,
    t: float,
    graph: TemporalGraph,
    sampling: SamplingConfig,
    rng: np.random.Generator,
    collector: AttentionCollector | None,
) -> Tensor:
    if layer_index == 0:
        return ad.constant(graph.node_features[node][None, :])

    layer = model.layers[layer_index - 1]
    max_size = sampling.max_neighbors
    if model.attention_mode == "positional":
        # target row occupies rank N, so the sample must fit under the table
        max_size = min(max_size, model.positional_encoder.max_positions - 1)
    sample = temporal_neighborhood(graph, node, t, max_size, sampling.strategy, rng)
    x0 = ad.constant(graph.node_features[node][None, :])

    if len(sample) == 0:
        # no prior interactions: the neighborhood representation is zero and
        # the FFN still runs, which keeps inductive inference total
        nbr_repr = ad.constant(np.zeros((1, layer.head_count * layer.head_dim)))
    else:
        target_hidden = _hidden_state(model, layer_index - 1, node, t, graph,
                                      sampling, rng, collector)
        z = build_entity_matrix(
            target_hidden, t, sample,
            hidden_of=lambda peer, ts: _hidden_state(
                model, layer_index - 1, peer, ts, graph, sampling, rng, collector),
            enc=model.time_encoder,
            edge_dim=model.dims.d_e,
            positional=model.positional_encoder if model.attention_mode == "positional" else None,
        )
        mode = "constant" if model.attention_mode == "constant" else "learned"
        heads = []
        weights = []
        for i in range(layer.head_count):
            h, alpha = attend_head(z, layer.w_q[i], layer.w_k[i], layer.w_v[i], mode)
            heads.append(h)
            weights.append(alpha.data[0].copy())
        if collector is not None:
            collector.add(layer_index, sample, weights)
        nbr_repr = heads[0] if len(heads) == 1 else ad.concat_cols(heads)

    ffn_in = ad.concat_cols([nbr_repr, x0])
    pre = ad.relu(ad.add(ad.matmul(ffn_in, layer.w0), layer.b0))
    return ad.add(ad.matmul(pre, layer.w1), layer.b1)


def layer_forward(
    model: TgatModel,
    layer_index: int,
    target: int,
    t: float,
    graph: TemporalGraph,
    sampling: SamplingConfig,
    rng_seed=0,
    collector: AttentionCollector | None = None,
) -> Tensor:
    """Hidden state of ``target`` at time ``t`` after ``layer_index`` layers."""
    if not 1 <= layer_index <= model.layer_count:
        raise ValidationError(
            f"layer index {layer_index} outside [1, {model.layer_count}]")
    if not graph.has_node(target):
        raise InferenceError(f"node {target} has no features in this graph")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    return _hidden_state(model, layer_index, target, t, graph, sampling, rng, collector)


def embed_tensor(model: TgatModel, node: int, t: float, graph: TemporalGraph,
                 sampling: SamplingConfig, rng_seed=0,
                 collector: AttentionCollector | None = None) -> Tensor:
    """Differentiable time-aware embedding (full L-layer forward pass)."""
    return layer_forward(model, model.layer_count, node, t, graph, sampling,
                         rng_seed, collector)


def embed(model: TgatModel, node: int, t: float, graph: TemporalGraph,
          sampling: SamplingConfig, rng_seed=0) -> np.ndarray:
    """Inference-only embedding; works for nodes absent from training events."""
    return embed_tensor(model, node, t, graph, sampling, rng_seed).data[0].copy()


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
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    try:
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
            model.positional_encoder = PositionalEncoder(
                np.asarray(pos_info["table"]), learnable=False)
        for name, tensor in _named_params(model).items():
            stored = np.asarray(params[name], dtype=np.float64).reshape(tensor.data.shape)
            tensor.data = stored
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint ({exc})") from None
    return model, payload.get("extra", {})
