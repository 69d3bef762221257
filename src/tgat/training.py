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
    embed_passes,
    embed_tensor,
    feed_forward,
    glorot,
)
from .temporal_graph import (
    Rule,
    SplitSpec,
    TemporalGraph,
    check_fields,
    check_value,
    checked,
    evaluation_event_indices,
    sampling_key,
    seed_sequence,
    setting,
    training_event_indices,
    whole_numbers,
)


@checked
class TrainConfig:
    """Settings of a run, checked when built; change one with ``dataclasses.replace``."""

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

    def __post_init__(self):
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
    auc: float
    split_tag: str

    @classmethod
    def score(cls, labels, scores, split_tag: str) -> "EvalMetrics":
        """Accuracy, AP and AUC, each called through the ``metrics`` module."""
        return cls(metrics.accuracy(labels, scores), metrics.average_precision(labels, scores),
                   metrics.roc_auc(labels, scores), split_tag)


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


def _draw_negatives(rng: np.random.Generator, num_nodes: int, forbidden: np.ndarray) -> np.ndarray:
    """One uniform node id per entry of ``forbidden``, never equal to it (unless
    there is only one node). One value is drawn per row; then, while a row holds
    its forbidden id, the first such value is dropped, the later values move up
    one row and one value is drawn into the last. So values and generator state
    are those of a scalar draw per row, repeated until it misses the row's id."""
    out = rng.integers(0, num_nodes, size=forbidden.size)
    row = 0
    while num_nodes > 1 and (hits := np.flatnonzero(out[row:] == forbidden[row:])).size:
        row += int(hits[0])
        out[row:-1] = out[row + 1:]
        out[-1] = rng.integers(0, num_nodes)
    return out


def _event_indices(graph: TemporalGraph, values) -> np.ndarray:
    """``values`` as a 1-D array of event indices of ``graph``: the id rule
    of ``whole_numbers``, and a ValidationError naming any other shape."""
    idx = whole_numbers(values, "event index", graph.num_events)
    if idx.ndim != 1:
        raise ValidationError(f"event indices must be 1-D, got shape {idx.shape}")
    return idx


def _link_scores(graph: TemporalGraph, events: np.ndarray, negatives_per_positive: int,
                 rng_seed, embedding) -> Tensor:
    """Inner products h_i . h_j of each positive event (i, j, t), then
    h_i . h_q for each of its Q negatives q != j, as one (P + P*Q, 1) column.

    The seed rule of a scoring call: a ``Generator`` ``rng_seed`` draws the
    negatives (one ``_draw_negatives`` call, positive by positive: one
    vector draw, then a scalar redraw for each value dropped as its row's
    destination), then the sampling key, one uint64; any other seed becomes
    one ``SeedSequence`` that seeds the negatives' ``Generator`` and gives
    the key, ``generate_state(1, np.uint64)[0]``; an ``np.uint64`` is such
    a seed here, not the ready key it is to ``sampling_key``.
    ``embedding(nodes, times, key)``, a (B, d) Tensor, embeds sources,
    destinations and negatives at the event times.
    """
    src, dst, ts = graph.sources[events], graph.destinations[events], graph.timestamps[events]
    q = negatives_per_positive
    seq = None if isinstance(rng_seed, np.random.Generator) else seed_sequence(rng_seed)
    rng = rng_seed if seq is None else np.random.default_rng(seq)
    neg = _draw_negatives(rng, graph.num_nodes, np.repeat(dst, q))
    key = sampling_key(rng) if seq is None else seq.generate_state(1, np.uint64)[0]
    times = np.concatenate([ts, ts, np.repeat(ts, q)])
    h = embedding(np.concatenate([src, dst, neg]), times, key)
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

    ``rng_seed`` seeds the negatives and the neighborhood samples (``_link_scores``).
    """
    idx = _event_indices(graph, batch_events)
    if idx.size == 0:
        raise ContractError("link loss needs a non-empty batch")
    check_value(negatives_per_positive, int, "negatives_per_positive", Rule.AT_LEAST_1)
    scores = _link_scores(graph, idx, negatives_per_positive, rng_seed, lambda nodes, times, key:
                          embed_tensor(model, nodes, times, graph, sampling, key))
    sign = np.concatenate([np.ones(idx.size), -np.ones(idx.size * negatives_per_positive)])
    return ad.logistic_loss(scores, sign[:, None])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's first and second moments as flat float64 vectors, one entry per
    parameter entry in ``params`` order, and the number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def create(cls, params: Sequence[Tensor]) -> "AdamState":
        size = sum(p.data.size for p in params)
        return cls(m=np.zeros(size), v=np.zeros(size))


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def _flat(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays]) if arrays else np.zeros(0)


def adam_step(params: Sequence[Tensor], state: AdamState, lr: float) -> np.ndarray:
    """Standard Adam update with bias correction, one update over all
    parameters: each ``p.grad`` (``None`` read as zeros) and each ``p.data``
    are concatenated in ``params`` order, updated elementwise, and sliced
    back into each ``p.data``. Elementwise arithmetic does not depend on
    shape, so no entry's bits depend on how the parameters are split into
    arrays. Returns the updated flat vector, of which each ``p.data`` is a
    view."""
    for p in params:
        if p.grad is not None and p.grad.shape != p.data.shape:
            raise ContractError(
                f"gradient shape {p.grad.shape} does not match parameter shape {p.data.shape}")
    sizes = [p.data.size for p in params]
    if state.m.size != sum(sizes):
        raise ContractError(f"optimizer state holds {state.m.size} entries, "
                            f"the parameters {sum(sizes)}")
    g = _flat([np.zeros(p.data.size) if p.grad is None else p.grad for p in params])
    data = _flat([p.data for p in params])
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    state.m = b1 * state.m + (1 - b1) * g
    state.v = b2 * state.v + (1 - b2) * g * g
    m_hat = state.m / (1 - b1 ** t)
    v_hat = state.v / (1 - b2 ** t)
    data = data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    offset = 0
    for p, size in zip(params, sizes):
        p.data = data[offset:offset + size].reshape(p.data.shape)
        offset += size
    return data


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _chronological_subsample(indices: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    if cap <= 0 or indices.size <= cap:
        return indices
    return np.sort(rng.choice(indices, size=cap, replace=False))


def train(graph: TemporalGraph, split: SplitSpec, config: TrainConfig) -> tuple[TgatModel, list[EpochStats]]:
    """Optimize a model on the training period, early-stopping on validation AP.

    Returns the best-validation model, its parameters holding no gradient,
    and the per-epoch metric history.
    Fully deterministic given the config seed; with no validation events the
    final epoch's parameters are kept. A non-finite batch loss or parameter
    raises TrainingError rather than returning a diverged model.
    """
    train_idx = training_event_indices(graph, split)
    if train_idx.size == 0:
        raise ContractError("training period contains no usable events")
    model = build_model(graph, config)
    params = model.parameters()
    state = AdamState.create(params)
    train_sampling = config.sampling(training=True)

    val_idx = evaluation_event_indices(graph, split, "val", "transductive")
    val_rng = np.random.default_rng(seed_sequence([config.rng_seed, 777]))
    val_subsample = _chronological_subsample(val_idx, config.max_val_events, val_rng)

    history: list[EpochStats] = []
    best_ap = -np.inf
    best_params = [p.data.copy() for p in params]
    epochs_without_improvement = 0

    for epoch in range(1, config.max_epochs + 1):
        epoch_rng = np.random.default_rng(seed_sequence([config.rng_seed, epoch]))
        epoch_idx = _chronological_subsample(train_idx, config.max_train_events_per_epoch, epoch_rng)
        total_loss = 0.0
        for b_start in range(0, epoch_idx.size, config.batch_size):
            batch = epoch_idx[b_start : b_start + config.batch_size]
            ad.zero_grads(params)
            with ad.Tape() as tape:
                loss = link_loss(model, graph, batch, train_sampling,
                                 config.negatives_per_positive,
                                 [config.rng_seed, epoch, int(b_start)])
            ad.backward(tape, loss)
            flat = adam_step(params, state, config.learning_rate)
            total_loss += float(loss.data[0, 0])
            if not (np.isfinite(total_loss) and np.isfinite(flat).all()):
                raise TrainingError(f"non-finite loss or parameters at epoch {epoch}, "
                                    f"batch starting at {b_start}")

        train_loss = total_loss / epoch_idx.size
        if val_subsample.size > 0:
            val = evaluate_links(model, graph, split, period="val", node_filter="observed",
                                 config=config, rng_seed=config.rng_seed,
                                 event_indices=val_subsample)
            val_ap, val_acc = val.average_precision, val.accuracy
        else:
            val_ap, val_acc = float("nan"), float("nan")
        history.append(EpochStats(epoch=epoch, train_loss=train_loss,
                                  val_ap=val_ap, val_acc=val_acc))

        if val_subsample.size == 0 or val_ap > best_ap:
            best_ap = val_ap
            best_params = [p.data.copy() for p in params]
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= config.patience:
                break

    for p, best in zip(params, best_params):
        p.data = best
    ad.zero_grads(params)
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
    ``[rng_seed, 1001]`` seeds the negatives and the samples (``_link_scores``).
    """
    if node_filter not in ("observed", "unseen"):
        raise ValidationError(f"node filter must be 'observed' or 'unseen', got {node_filter!r}")
    config = config or TrainConfig()
    check_value(max_events, int, "max_events", Rule.AT_LEAST_0)
    mode = "transductive" if node_filter == "observed" else "inductive"
    if event_indices is None:
        event_indices = _chronological_subsample(
            evaluation_event_indices(graph, split, period, mode), max_events,
            np.random.default_rng(seed_sequence([rng_seed, 555])))
    event_indices = _event_indices(graph, event_indices)
    if event_indices.size == 0:
        raise EvaluationError(f"no {mode} events to evaluate in period {period!r}")
    sampling, p = config.sampling(training=False), event_indices.size
    s = _link_scores(graph, event_indices, 1, [rng_seed, 1001], lambda nodes, times, key:
                     ad.constant(embed(model, nodes, times, graph, sampling, key))).data[:, 0]
    scores = ad.sigmoid_values(np.column_stack([s[:p], s[p:]]).ravel())  # positive, negative
    return EvalMetrics.score(np.tile([1, 0], p), scores, mode)


# ---------------------------------------------------------------------------
# downstream node classification
# ---------------------------------------------------------------------------


@checked
class MlpConfig:
    epochs: int = setting(Rule.AT_LEAST_0, 60)
    batch_size: int = setting(Rule.AT_LEAST_1, 64)
    learning_rate: float = setting(Rule.POSITIVE_FINITE, 1e-3)
    l2: float = setting(Rule.NON_NEGATIVE_FINITE, 0.001)  # grid: {0.001, 0.01, 0.05, 0.1, 0.2}
    rng_seed: int = setting(Rule.AT_LEAST_0, 0)


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
    config = config or TrainConfig()
    sampling = config.sampling(training=False)

    labeled = np.flatnonzero(graph.labels >= 0)
    labels = metrics.binary_labels(graph.labels[labeled])
    feats = embed(model, graph.sources[labeled], graph.timestamps[labeled], graph, sampling,
                  [rng_seed, 2002])
    times = graph.timestamps[labeled]
    in_train, in_test = split.in_period(times, "train"), split.in_period(times, "test")
    x_train, y_train = feats[in_train], labels[in_train]
    x_test, y_test = feats[in_test], labels[in_test]
    for name, y in (("training", y_train), ("test", y_test)):
        if y.size == 0 or len(np.unique(y)) < 2:
            raise EvaluationError(f"{name} period needs at least one label of each class")

    mlp_rng = np.random.default_rng(seed_sequence([mlp_config.rng_seed, 3003]))
    d = x_train.shape[1]
    widths = (d, d, max(1, d // 2), 1)  # a three-layer ReLU MLP
    weights = [ad.parameter(glorot(mlp_rng, a, b)) for a, b in zip(widths, widths[1:])]
    biases = [ad.parameter(np.zeros((1, b))) for b in widths[1:]]
    params = [t for pair in zip(weights, biases) for t in pair]

    def logits(x: np.ndarray) -> Tensor:
        return feed_forward(ad.constant(x), np.zeros((len(x), 0)), weights, biases)

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
            loss = ad.logistic_loss(logits(x), y_sign)
        ad.backward(tape, loss)
        for w in weights:
            w.grad = w.grad + 2.0 * mlp_config.l2 * w.data
        adam_step(params, state, mlp_config.learning_rate)

    return EvalMetrics.score(y_test, ad.sigmoid_values(logits(x_test).data[:, 0]),
                             "transductive")


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
    sampling = config.sampling(training=False)
    idx = _event_indices(graph, event_indices)
    nodes = np.column_stack([graph.sources[idx], graph.destinations[idx]]).ravel()
    times = np.repeat(graph.timestamps[idx], 2)
    key = sampling_key([rng_seed, 4004])
    rows: list[AttentionRow] = []
    for s in embed_passes(nodes.size):  # each pass at each offset
        for offset in target_time_offsets:
            hops = []
            embed_tensor(model, nodes[s], times[s] + offset, graph, sampling, key, hops)
            _, batch, weights = hops[-1]  # the top hop
            spans = np.repeat(batch.query_times, batch.sizes) - batch.times
            query = np.repeat(np.arange(batch.sizes.size), batch.sizes)
            pairs = query * graph.num_nodes + batch.peers
            _, which, counts = np.unique(pairs, return_inverse=True, return_counts=True)
            rows.extend(AttentionRow(span, w, count, float(offset)) for span, w, count
                        in zip(spans.tolist(), np.mean(weights, axis=0)[batch.mask].tolist(),
                               counts[which].tolist()))
    return rows

