"""Optimization, evaluation and analysis for time-aware link prediction.

Training iterates chronologically ordered mini-batches of training events,
scores each positive pair against seeded uniform negatives with the
sigmoid-of-inner-product decoder, and early-stops on validation average
precision, restoring the best checkpoint. Everything is deterministic given
the configured seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Tensor
from .errors import ContractError, EvaluationError, TrainingError, ValidationError
from .layer import (
    Dims,
    SamplingConfig,
    TgatModel,
    embed,
    embed_tensor,
    feed_forward,
    glorot,
)
from .temporal_graph import (
    Rule,
    SplitSpec,
    TemporalGraph,
    check_event_indices,
    check_fields,
    check_value,
    checked,
    evaluation_event_indices,
    seed_sequence,
    setting,
    training_event_indices,
)


@checked
@dataclass
class TrainConfig:
    learning_rate: float = setting(Rule.POSITIVE_FINITE, 0.001)
    layers: int = setting(Rule.AT_LEAST_1, 2)
    heads: int = setting(Rule.AT_LEAST_1, 2)
    neighborhood_dropout: float = setting(Rule.FRACTION_OR_ZERO, 0.1)
    negatives_per_positive: int = setting(Rule.AT_LEAST_1, 1)
    batch_size: int = setting(Rule.AT_LEAST_1, 32)
    max_epochs: int = setting(Rule.AT_LEAST_0, 10)
    patience: int = setting(Rule.AT_LEAST_1, 10)
    attention_mode: str = setting(Rule.ATTENTION_MODE, "learned")
    sampling_strategy: str = setting(Rule.STRATEGY, "uniform")
    rng_seed: int = setting(Rule.AT_LEAST_0, 0)
    d: int = setting(Rule.AT_LEAST_1, 32)
    d_t: int = setting(Rule.EVEN_AT_LEAST_2, 16)
    d_h: int = setting(Rule.AT_LEAST_1, 16)
    d_f: int = setting(Rule.AT_LEAST_1, 32)
    max_neighbors: int = setting(Rule.AT_LEAST_1, 20)
    positional_learnable: bool = False
    train_frac: float = setting(Rule.FRACTION, 0.70)
    val_frac: float = setting(Rule.FRACTION, 0.15)
    unseen_fraction: float = setting(Rule.FRACTION_OR_ZERO, 0.10)
    # desk-scale budget caps: per-epoch training positives and validation events
    max_train_events_per_epoch: int = setting(Rule.AT_LEAST_0, 0)  # 0 = no cap
    max_val_events: int = setting(Rule.AT_LEAST_0, 0)

    def validate(self) -> None:
        check_fields(self)
        if not self.train_frac + self.val_frac < 1:
            raise ValidationError(f"train_frac + val_frac must be < 1, "
                                  f"got {self.train_frac} + {self.val_frac}")

    def sampling(self, training: bool = False) -> SamplingConfig:
        """Evaluation uses the full neighborhood cap; training shrinks it by
        the dropout rate (neighborhood dropout realized as subsampling)."""
        cap = self.max_neighbors
        if training and self.neighborhood_dropout > 0:
            cap = max(1, int(round((1.0 - self.neighborhood_dropout) * cap)))
        return SamplingConfig(max_neighbors=cap, strategy=self.sampling_strategy)


@dataclass
class EvalMetrics:
    accuracy: float
    average_precision: float
    auc: float | None
    split_tag: str


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_ap: float
    val_acc: float


def build_model(graph: TemporalGraph, config: TrainConfig) -> TgatModel:
    dims = Dims(d0=graph.node_feature_dim, d=config.d, d_t=config.d_t,
                d_h=config.d_h, d_f=config.d_f, d_e=graph.edge_feature_dim)
    return TgatModel.create(
        dims,
        layer_count=config.layers,
        head_count=config.heads,
        attention_mode=config.attention_mode,
        rng_seed=config.rng_seed,
        t_max=max(graph.t_max, 1.0),
        positional_learnable=config.positional_learnable,
        max_positions=max(64, config.max_neighbors + 1),
    )


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def _draw_negative(rng: np.random.Generator, num_nodes: int, forbidden: int) -> int:
    """Uniform node id, resampling on collision with the positive destination."""
    v = int(rng.integers(0, num_nodes))
    while v == forbidden and num_nodes > 1:
        v = int(rng.integers(0, num_nodes))
    return v


def _chunks(indices: np.ndarray, size: int):
    for start in range(0, indices.size, size):
        yield indices[start : start + size]


def _link_scores(model: TgatModel, graph: TemporalGraph, events: np.ndarray,
                 sampling: SamplingConfig, negatives_per_positive: int,
                 rng: np.random.Generator, sampling_seed) -> Tensor:
    """Inner products h_i . h_j of each positive event (i, j, t), then
    h_i . h_q for each of its Q negatives q != j, as one (P + P*Q, 1) column.

    Negatives are drawn from ``rng`` first, positive by positive; then one
    forward pass, sampling with ``sampling_seed``, embeds sources,
    destinations and negatives at the event times.
    """
    src, dst, ts = graph.sources[events], graph.destinations[events], graph.timestamps[events]
    q = negatives_per_positive
    neg = np.array([_draw_negative(rng, graph.num_nodes, d)
                    for d in dst.tolist() for _ in range(q)], dtype=np.int64)
    h = embed_tensor(model, np.concatenate([src, dst, neg]),
                     np.concatenate([ts, ts, np.repeat(ts, q)]), graph, sampling,
                     sampling_seed)
    # rows of h: sources [0, p), destinations [p, 2p), negatives of positive i
    # at 2p + i*q + k; pair each source with its destination and negatives
    p = events.size
    return ad.pair_scores(h, np.concatenate([np.arange(p), np.repeat(np.arange(p), q)]),
                          np.arange(p, h.data.shape[0]))


def link_loss(
    model: TgatModel,
    graph: TemporalGraph,
    batch_events: Sequence[int],
    sampling: SamplingConfig,
    negatives_per_positive: int = 1,
    rng_seed=0,
) -> Tensor:
    """Time-sensitive link prediction loss for a batch of positive events.

    Per positive (i, j, t): -log sigmoid(h_i . h_j) plus, for each of Q
    uniformly drawn negatives q != j, -log sigmoid(-h_i . h_q). All
    embeddings are evaluated at the interaction time and the loss is
    differentiable through both sides of every inner product.

    ``rng_seed`` seeds the negatives and, as in ``embed_tensor``, the
    neighborhood samples; a ``Generator`` draws the negatives first and
    then the one sampling key.
    """
    idx = check_event_indices(graph, batch_events)
    if idx.size == 0:
        raise ContractError("link loss needs a non-empty batch")
    check_value(negatives_per_positive, int, "negatives_per_positive", Rule.AT_LEAST_1)
    rng = (rng_seed if isinstance(rng_seed, np.random.Generator)
           else np.random.default_rng(seed_sequence(rng_seed)))
    scores = _link_scores(model, graph, idx, sampling, negatives_per_positive, rng, rng_seed)
    sign = np.concatenate([np.ones(idx.size), -np.ones(idx.size * negatives_per_positive)])
    return ad.logistic_loss(scores, sign[:, None])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def create(cls, params: Sequence[Tensor]) -> "AdamState":
        return cls(m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def adam_step(
    params: Sequence[Tensor],
    grads: Sequence[np.ndarray | None],
    state: AdamState,
    lr: float,
) -> None:
    """Standard Adam update with bias correction."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ContractError("params, grads and optimizer state must align")
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        m_hat = state.m[i] / (1 - b1 ** t)
        v_hat = state.v[i] / (1 - b2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _chronological_subsample(indices: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    if cap <= 0 or indices.size <= cap:
        return indices
    return np.sort(rng.choice(indices, size=cap, replace=False))


def train(graph: TemporalGraph, split: SplitSpec, config: TrainConfig) -> tuple[TgatModel, list[EpochStats]]:
    """Optimize a model on the training period, early-stopping on validation AP.

    Returns the best-validation model and the per-epoch metric history.
    Fully deterministic given the config seed; with no validation events the
    final epoch's parameters are kept. A non-finite batch loss or parameter
    raises TrainingError rather than returning a diverged model.
    """
    config.validate()
    train_idx = training_event_indices(graph, split)
    if train_idx.size == 0:
        raise ContractError("training period contains no usable events")
    model = build_model(graph, config)
    params = model.parameters()
    state = AdamState.create(params)
    train_sampling = config.sampling(training=True)

    val_idx = evaluation_event_indices(graph, split, "val", "transductive")
    val_subsample = _chronological_subsample(
        val_idx, config.max_val_events, np.random.default_rng([config.rng_seed, 777]))

    history: list[EpochStats] = []
    best_ap = -np.inf
    best_params = [p.data.copy() for p in params]
    epochs_without_improvement = 0

    for epoch in range(1, config.max_epochs + 1):
        epoch_rng = np.random.default_rng([config.rng_seed, epoch])
        epoch_idx = _chronological_subsample(train_idx, config.max_train_events_per_epoch, epoch_rng)
        total_loss = 0.0
        n_pos = 0
        for b_start in range(0, epoch_idx.size, config.batch_size):
            batch = epoch_idx[b_start : b_start + config.batch_size]
            ad.zero_grads(params)
            with ad.Tape() as tape:
                loss = link_loss(model, graph, batch, train_sampling,
                                 config.negatives_per_positive,
                                 [config.rng_seed, epoch, int(b_start)])
            ad.backward(tape, loss)
            adam_step(params, [p.grad for p in params], state, config.learning_rate)
            total_loss += float(loss.data[0, 0])
            if not (np.isfinite(total_loss) and all(np.isfinite(p.data).all() for p in params)):
                raise TrainingError(f"non-finite loss or parameters at epoch {epoch}, "
                                    f"batch starting at {b_start}")
            n_pos += batch.size

        train_loss = total_loss / max(n_pos, 1)
        if val_subsample.size > 0:
            val = evaluate_links(model, graph, split, period="val", node_filter="observed",
                                 config=config, rng_seed=config.rng_seed,
                                 event_indices=val_subsample)
            val_ap, val_acc = val.average_precision, val.accuracy
        else:
            val_ap, val_acc = float("nan"), float("nan")
        history.append(EpochStats(epoch=epoch, train_loss=train_loss,
                                  val_ap=val_ap, val_acc=val_acc))

        if np.isnan(val_ap):
            best_params = [p.data.copy() for p in params]
            continue
        if val_ap > best_ap:
            best_ap = val_ap
            best_params = [p.data.copy() for p in params]
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= config.patience:
                break

    for p, best in zip(params, best_params):
        p.data = best
    return model, history


def write_history_csv(history: Sequence[EpochStats], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_ap", "val_acc"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_ap), repr(row.val_acc)])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_links(
    model: TgatModel,
    graph: TemporalGraph,
    split: SplitSpec,
    period: str = "test",
    node_filter: str = "observed",
    config: TrainConfig | None = None,
    rng_seed: int = 0,
    event_indices: np.ndarray | None = None,
    max_events: int = 0,
) -> EvalMetrics:
    """Score each positive event against one seeded negative pair.

    Without ``event_indices``, the period's events are evaluated, or a
    chronological subsample of ``max_events`` of them when that is positive.
    ``node_filter`` "observed" evaluates transductively (no unseen endpoint);
    "unseen" evaluates the inductive set (at least one unseen endpoint).
    """
    if node_filter not in ("observed", "unseen"):
        raise ValidationError(f"node filter must be 'observed' or 'unseen', got {node_filter!r}")
    seed_sequence(rng_seed)  # ValidationError for a seed that numpy rejects
    config = config or TrainConfig()
    config.validate()
    check_value(max_events, int, "max_events", Rule.AT_LEAST_0)
    mode = "transductive" if node_filter == "observed" else "inductive"
    if event_indices is None:
        event_indices = evaluation_event_indices(graph, split, period, mode)
        if max_events:
            event_indices = _chronological_subsample(
                event_indices, max_events, np.random.default_rng([rng_seed, 555]))
    event_indices = check_event_indices(graph, event_indices)
    if event_indices.size == 0:
        raise EvaluationError(f"no {mode} events to evaluate in period {period!r}")
    sampling = config.sampling(training=False)
    # the negatives' stream runs through every chunk; the samples need only the seed
    seed = [rng_seed, 1001]
    rng = np.random.default_rng(seed)

    scores = []
    for chunk in _chunks(event_indices, config.batch_size):
        s = _link_scores(model, graph, chunk, sampling, 1, rng, seed).data[:, 0]
        scores.append(np.column_stack([s[: chunk.size], s[chunk.size :]]).ravel())
    scores = ad.sigmoid_values(np.concatenate(scores))  # positive, negative per event
    labels = np.tile([1, 0], event_indices.size)
    return EvalMetrics(
        accuracy=metrics.accuracy(labels, scores),
        average_precision=metrics.average_precision(labels, scores),
        auc=metrics.roc_auc(labels, scores),
        split_tag=mode,
    )


# ---------------------------------------------------------------------------
# downstream node classification
# ---------------------------------------------------------------------------


@checked
@dataclass
class MlpConfig:
    epochs: int = setting(Rule.AT_LEAST_0, 60)
    batch_size: int = setting(Rule.AT_LEAST_1, 64)
    learning_rate: float = setting(Rule.POSITIVE_FINITE, 1e-3)
    l2: float = setting(Rule.NON_NEGATIVE_FINITE, 0.001)  # grid: {0.001, 0.01, 0.05, 0.1, 0.2}
    rng_seed: int = setting(Rule.AT_LEAST_0, 0)


class _Mlp:
    """Three-layer ReLU MLP with widths (d, d, d/2, 1)."""

    def __init__(self, d: int, rng: np.random.Generator):
        widths = (d, d, max(1, d // 2), 1)
        self.weights = [ad.parameter(glorot(rng, a, b)) for a, b in zip(widths, widths[1:])]
        self.biases = [ad.parameter(np.zeros((1, b))) for b in widths[1:]]

    def parameters(self) -> list[Tensor]:
        return [t for pair in zip(self.weights, self.biases) for t in pair]

    def logits(self, x: Tensor) -> Tensor:
        return feed_forward(x, np.zeros((x.data.shape[0], 0)), self.weights, self.biases)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return ad.sigmoid_values(self.logits(ad.constant(x)).data[:, 0])


def node_classify(
    model: TgatModel,
    graph: TemporalGraph,
    split: SplitSpec,
    mlp_config: MlpConfig | None = None,
    config: TrainConfig | None = None,
    rng_seed: int = 0,
) -> EvalMetrics:
    """Train an MLP on time-aware embeddings of labeled events and report
    test-period AUC.

    The labeled entity is the event source, embedded at the label timestamp.
    Batches are stratified (half positive, half negative, with replacement)
    because state labels are heavily imbalanced.
    """
    mlp_config = mlp_config or MlpConfig()
    check_fields(mlp_config)
    config = config or TrainConfig()
    config.validate()
    sampling = config.sampling(training=False)

    labeled = np.flatnonzero(graph.labels >= 0)
    labels = metrics.binary_labels(graph.labels[labeled])
    feats = [embed(model, graph.sources[chunk], graph.timestamps[chunk], graph, sampling,
                   [rng_seed, 2002])
             for chunk in _chunks(labeled, config.batch_size)]
    feats = np.concatenate(feats) if feats else np.zeros((0, model.dims.d))
    periods = np.array([split.period_of(t) for t in graph.timestamps[labeled].tolist()],
                       dtype=str)

    def as_arrays(period: str) -> tuple[np.ndarray, np.ndarray]:
        return feats[periods == period], labels[periods == period]

    x_train, y_train = as_arrays("train")
    x_test, y_test = as_arrays("test")
    for name, y in (("training", y_train), ("test", y_test)):
        if y.size == 0 or len(np.unique(y)) < 2:
            raise EvaluationError(f"{name} period needs at least one label of each class")

    mlp_rng = np.random.default_rng([mlp_config.rng_seed, 3003])
    mlp = _Mlp(x_train.shape[1], mlp_rng)
    params = mlp.parameters()
    state = AdamState.create(params)
    pos_idx = np.flatnonzero(y_train == 1)
    neg_idx = np.flatnonzero(y_train == 0)
    half = max(1, mlp_config.batch_size // 2)

    for _ in range(mlp_config.epochs):
        batch_idx = np.concatenate([
            mlp_rng.choice(pos_idx, size=half, replace=True),
            mlp_rng.choice(neg_idx, size=half, replace=True),
        ])
        x = x_train[batch_idx]
        y_sign = np.where(y_train[batch_idx] == 1, 1.0, -1.0)[:, None]
        ad.zero_grads(params)
        with ad.Tape() as tape:
            # -log sigmoid(s) for positives, -log sigmoid(-s) for negatives
            loss = ad.logistic_loss(mlp.logits(ad.constant(x)), y_sign)
        ad.backward(tape, loss)
        grads = [p.grad for p in params]
        if mlp_config.l2 > 0:
            weights = set(id(w) for w in mlp.weights)
            grads = [
                (np.zeros_like(p.data) if g is None else g)
                + (2.0 * mlp_config.l2 * p.data if id(p) in weights else 0.0)
                for p, g in zip(params, grads)
            ]
        adam_step(params, grads, state, mlp_config.learning_rate)

    scores = mlp.scores(x_test)
    return EvalMetrics(
        accuracy=metrics.accuracy(y_test, scores),
        average_precision=metrics.average_precision(y_test, scores),
        auc=metrics.roc_auc(y_test, scores),
        split_tag="transductive",
    )


# ---------------------------------------------------------------------------
# attention analysis
# ---------------------------------------------------------------------------


@dataclass
class AttentionRow:
    timespan: float
    attention_weight: float
    occurrence_count: int
    target_time_offset: float


def attention_report(
    model: TgatModel,
    graph: TemporalGraph,
    event_indices: Sequence[int],
    target_time_offsets: Sequence[float] = (0.0,),
    config: TrainConfig | None = None,
    rng_seed: int = 0,
) -> list[AttentionRow]:
    """Collect top-layer attention weights as functions of timespan and of
    neighbor recurrence, for a sample of predictions: one row per sampled
    neighbor, its weight averaged over heads, its count the number of times
    its peer occurs in the same neighborhood."""
    config = config or TrainConfig()
    config.validate()
    sampling = config.sampling(training=False)
    rows: list[AttentionRow] = []
    for chunk in _chunks(check_event_indices(graph, event_indices), config.batch_size):
        nodes = np.column_stack([graph.sources[chunk], graph.destinations[chunk]]).ravel()
        for offset in target_time_offsets:
            hops = []
            embed_tensor(model, nodes, np.repeat(graph.timestamps[chunk] + offset, 2), graph,
                         sampling, [rng_seed, 4004], hops)
            _, batch, weights = hops[-1]  # the top hop
            spans = np.repeat(batch.query_times, batch.sizes) - batch.times
            query = np.repeat(np.arange(batch.sizes.size), batch.sizes)
            pairs = query * graph.num_nodes + batch.peers
            _, which, counts = np.unique(pairs, return_inverse=True, return_counts=True)
            rows.extend(AttentionRow(span, w, count, float(offset)) for span, w, count
                        in zip(spans.tolist(), np.mean(weights, axis=0)[batch.mask].tolist(),
                               counts[which].tolist()))
    return rows


def write_attention_csv(rows: Sequence[AttentionRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timespan", "attention_weight", "occurrence_count", "target_time_offset"])
        for r in rows:
            writer.writerow([repr(r.timespan), repr(r.attention_weight),
                             r.occurrence_count, repr(r.target_time_offset)])
