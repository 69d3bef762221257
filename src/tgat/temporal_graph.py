"""Event-indexed temporal interaction store and causality-respecting queries.

A TemporalGraph is immutable after construction: events are kept sorted by
timestamp (ties broken by ingestion order), every non-loop event is indexed
under both endpoints, and neighborhood queries only ever return interactions
strictly before the query time. A sampled neighborhood is a pure function
of the seed, the node and the query time, so it does not depend on the
other queries of a call and concurrent reads stay deterministic.
"""

from __future__ import annotations

import math
import zipfile
from collections.abc import Iterable, Sequence
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from typing import get_type_hints

import numpy as np

from .errors import (
    InferenceError,
    IngestionError,
    MaskingError,
    SplitError,
    ValidationError,
)

# jitter added to timespans for inverse-timespan sampling so that weights stay
# bounded when an interaction is arbitrarily close to the query time
INVERSE_TIMESPAN_JITTER = 1.0

STRATEGIES = ("uniform", "inverse-timespan", "most-recent")
ATTENTION_MODES = ("learned", "constant", "positional")


@dataclass(frozen=True)
class TemporalEvent:
    source: int
    destination: int
    timestamp: float
    edge_features: np.ndarray
    label: int | None = None


@dataclass(frozen=True, eq=False)
class NeighborhoodBatch:
    """Neighborhoods of B queries, listed flat.

    ``peers``, ``times``, ``event_indices`` and ``edge_features`` (rows x
    d_e) hold one row per sampled interaction, ``sizes.sum()`` rows in all:
    query 0's interactions first, oldest first, then query 1's, and so on;
    every one is strictly before its query's ``query_times[b]``. The (B, N)
    ``mask``, N = max(largest size, 1), marks where those rows sit in the
    attention block: query b's fill the first ``sizes[b]`` columns of row b.
    """

    peers: np.ndarray
    times: np.ndarray
    event_indices: np.ndarray
    edge_features: np.ndarray
    sizes: np.ndarray
    mask: np.ndarray
    query_times: np.ndarray


def _holds_text_or_bool(values) -> bool:
    """Whether ``values`` is text or a boolean, or a list, tuple or array of
    objects with one at any depth."""
    values = np.asarray(values).tolist() if getattr(values, "dtype", None) == object else values
    return (any(map(_holds_text_or_bool, values)) if isinstance(values, (list, tuple))
            else isinstance(values, (str, bytes, bool, np.bool_)))


def numbers(values, what: str) -> np.ndarray:
    """``values`` (times, or ids for ``whole_numbers``, named by ``what``) as
    float64. Text and booleans are no numbers, not even "1.5" or True, nor is
    an object that fails the cast: each raises ValidationError instead of
    becoming another time. A list, tuple or object array is searched at any
    depth, as numpy reads [True, 2.0] as numbers and casts an object array's
    "1.5" to 1.5."""
    arr = np.asarray(values)
    if not _holds_text_or_bool(values) and arr.dtype.kind not in "bUSV":
        try:
            return arr.astype(np.float64, copy=False)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{what} values must be numbers, got {values!r:.60}")


def whole_numbers(values, what: str, below: int | None = None,
                  error: type[Exception] = ValidationError) -> np.ndarray:
    """``values`` (node ids, labels or indices, named by ``what``) as int64.
    What ``numbers`` rejects, a value that is not a whole number, or one
    outside int64 raises ValidationError instead of becoming another id or
    class; numpy reads [True, 2] and [[True, 2]] as ints, so a list is
    searched for booleans even when it reads as ints. Given ``below``, a
    value outside [0, below) raises ``error``: one compare on the uint64
    view, where a negative value reads as 2**63 or more."""
    arr = np.asarray(values)
    if arr.dtype.kind != "i" or _holds_text_or_bool(values):
        whole = numbers(values, what)
        bad = np.flatnonzero(~np.isfinite(whole) | (whole != np.trunc(whole)))
        if bad.size:
            raise ValidationError(f"{what} {arr.flat[bad[0]]} is not an integer")
        # uint64 compares as itself: float64 rounds 2**63 - 1 up to 2**63
        bad = np.flatnonzero(arr > np.iinfo(np.int64).max if arr.dtype.kind == "u"
                             else (whole < -2.0**63) | (whole >= 2.0**63))
        if bad.size:
            raise ValidationError(f"{what} {arr.flat[bad[0]]} is outside the int64 range")
    ids = arr.astype(np.int64, copy=False)
    if below is not None:
        bad = np.flatnonzero(ids.view(np.uint64) >= below)
        if bad.size:
            v = ids.flat[bad[0]]
            raise error(f"{what} {v} is negative" if v < 0 else f"{what} {v} not in [0, {below})")
    return ids


class Rule(Enum):
    """What a setting accepts beyond its type: the text that ends the message
    "<name> must be <text>, got <value>", and the test."""

    AT_LEAST_0 = (">= 0", lambda v: v >= 0)
    AT_LEAST_1 = (">= 1", lambda v: v >= 1)
    EVEN_AT_LEAST_2 = ("even and >= 2", lambda v: v >= 2 and v % 2 == 0)  # cos/sin pairs of phi(t)
    POSITIVE_FINITE = ("positive and finite", lambda v: 0 < v < np.inf)
    NON_NEGATIVE_FINITE = ("non-negative and finite", lambda v: 0 <= v < np.inf)
    FRACTION = ("in (0, 1)", lambda v: 0 < v < 1)
    FRACTION_OR_ZERO = ("in [0, 1)", lambda v: 0 <= v < 1)
    STRATEGY = (f"one of {', '.join(STRATEGIES)}", lambda v: v in STRATEGIES)
    ATTENTION_MODE = (f"one of {', '.join(ATTENTION_MODES)}", lambda v: v in ATTENTION_MODES)


# what each annotated type accepts; a bool is only a bool, a whole float is not an int
_KINDS = {int: ((int, np.integer), "an integer"),
          float: ((int, float, np.integer, np.floating), "a real number"),
          bool: (bool, "true or false"), str: (str, "a string")}


def check_value(value, kind: type, what: str, rule: Rule | None = None) -> None:
    """ValidationError unless ``value`` (named by ``what``) is of ``kind``,
    one of int, float, bool and str, and meets ``rule``."""
    accepted, noun = _KINDS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(f"{what} must be {noun}, got {value!r}")
    if rule is not None and not rule.value[1](value):
        raise ValidationError(f"{what} must be {rule.value[0]}, got {value!r}")


def setting(rule: Rule, default=MISSING):
    """A dataclass field whose values ``check_fields`` holds to ``rule``."""
    return field(default=default, metadata={"rule": rule})


def checked(cls):
    """Class decorator for settings: makes ``cls`` a frozen dataclass whose
    ``__post_init__`` is ``check_fields`` unless it defines its own, and
    resolves each field's annotation once, at import, into
    ``cls.field_table``, the (name, type, rule) rows that ``check_fields`` reads."""
    if not hasattr(cls, "__post_init__"):
        cls.__post_init__ = check_fields
    cls = dataclass(frozen=True)(cls)
    types = get_type_hints(cls)
    cls.field_table = tuple((f.name, types[f.name], f.metadata.get("rule"))
                            for f in fields(cls))
    return cls


def check_fields(obj) -> None:
    """ValidationError naming the first field of ``obj``, an instance of a
    ``checked`` class, that is not of its annotated type or breaks its rule."""
    for name, kind, rule in obj.field_table:
        check_value(getattr(obj, name), kind, name, rule)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological cut points plus the nodes withheld for inductive evaluation."""

    train_end: float
    val_end: float
    unseen_nodes: frozenset[int] = frozenset()

    def __post_init__(self):
        check_value(self.train_end, float, "train_end")
        check_value(self.val_end, float, "val_end")
        if not self.train_end <= self.val_end:  # so a NaN cut point fails too
            raise ValidationError(f"train_end {self.train_end} must not exceed "
                                  f"val_end {self.val_end}: the periods would overlap")
        # any node id >= 0: the graph is not known here
        whole_numbers(list(self.unseen_nodes), "unseen node", below=2**63)

    def in_period(self, timestamps, period: str) -> np.ndarray:
        """Which of ``timestamps`` fall in ``period``, "train", "val" or "test".
        A period runs from after the cut point before it through its own, so a
        timestamp on a cut point belongs to the earlier period, and NaN to none."""
        bounds = {"train": (-np.inf, self.train_end), "val": (self.train_end, self.val_end),
                  "test": (self.val_end, np.inf)}
        if period not in bounds:
            raise ValidationError(f"period must be 'train', 'val' or 'test', got {period!r}")
        after, through = bounds[period]
        timestamps = np.asarray(timestamps)
        return (timestamps > after) & (timestamps <= through)


def _radix_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """A stable argsort of non-negative ints below ``bound``: one stable
    argsort per 16-bit digit, lowest first. numpy radix-sorts ints of at
    most 16 bits and timsorts wider ones, several times slower."""
    order = (keys & 0xFFFF).astype(np.uint16).argsort(kind="stable")
    shift = 16
    while (bound - 1) >> shift > 0:
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[digit.argsort(kind="stable")]
        shift += 16
    return order


class TemporalGraph:
    """Immutable columnar store of timestamped interactions.

    Events are sorted by timestamp, ties kept in input order, and held as
    read-only columns: ``sources``, ``destinations`` (int64), ``timestamps``
    (float64), ``edge_features`` (n_events x d_e) and ``labels`` (int64, -1
    where absent). Beside them sits one CSR adjacency: the interactions of
    node v, oldest first, are rows ``indptr[v]:indptr[v + 1]`` of ``peers``,
    ``times`` and ``event_idx``, and ``row_key`` (owner * n_events + event
    index) increases along all rows. Every non-loop event is listed under both
    endpoints; self-loops never enter temporal neighborhoods.
    """

    def __init__(self, sources, destinations, timestamps, edge_features, labels,
                 node_features):
        # a copy, so freezing the store never makes a caller's array read-only;
        # the event columns are copied by the sort below
        node_features = np.array(node_features, dtype=np.float64)
        if node_features.ndim != 2:
            raise ValidationError(f"node features must be 2-D, got shape {node_features.shape}")
        # an endpoint is a node with features
        sources = whole_numbers(sources, "node id", below=node_features.shape[0])
        destinations = whole_numbers(destinations, "node id", below=node_features.shape[0])
        timestamps = numbers(timestamps, "timestamp")
        edge_features = np.asarray(edge_features, dtype=np.float64)
        labels = whole_numbers(labels, "label")
        n = timestamps.size
        if not (sources.shape == destinations.shape == timestamps.shape == labels.shape == (n,)):
            raise ValidationError(
                "sources, destinations, timestamps and labels must be 1-D and of equal length")
        if edge_features.ndim != 2 or edge_features.shape[0] != n:
            raise ValidationError(
                f"edge features must have one row per event ({n}), got shape {edge_features.shape}")
        bad = np.flatnonzero(~np.isfinite(timestamps) | (timestamps < 0))
        if bad.size:
            raise ValidationError(
                f"timestamp {timestamps[bad[0]]} in event {bad[0]} is negative or not finite")
        bad = np.flatnonzero(labels < -1)
        if bad.size:
            raise ValidationError(
                f"label {labels[bad[0]]} in event {bad[0]} is below -1, the no-label marker")
        for owner, values in (("event", edge_features), ("node", node_features)):
            if not np.isfinite(values).all():
                row, col = np.argwhere(~np.isfinite(values))[0]
                raise ValidationError(f"feature {col} of {owner} {row} is {values[row, col]}")

        order = np.argsort(timestamps, kind="stable")
        self.sources = sources[order]
        self.destinations = destinations[order]
        self.timestamps = timestamps[order]
        self.edge_features = edge_features[order]
        self.labels = labels[order]
        self.node_features = node_features
        self.edge_feature_dim = edge_features.shape[1]
        self.t_max = float(self.timestamps[-1]) if n else 0.0

        # each kept event lists its source, then its destination, so the event
        # index ascends and a stable sort by owner gives the (owner, event) order
        kept = np.flatnonzero(self.sources != self.destinations)
        owners = np.stack([self.sources[kept], self.destinations[kept]], axis=1).ravel()
        event_idx = np.repeat(kept, 2).astype(np.int64)
        rows = _radix_order(owners, self.num_nodes)
        self.indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=self.num_nodes), out=self.indptr[1:])
        self.peers = np.stack([self.destinations[kept], self.sources[kept]], axis=1).ravel()[rows]
        self.event_idx = event_idx[rows]
        self.times = self.timestamps[self.event_idx]
        self.row_key = owners[rows] * n + self.event_idx
        for column in (self.sources, self.destinations, self.timestamps, self.edge_features,
                       self.labels, self.node_features, self.indptr, self.peers,
                       self.event_idx, self.times, self.row_key):
            column.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_events(self) -> int:
        return self.timestamps.size

    @property
    def node_feature_dim(self) -> int:
        return self.node_features.shape[1]

    @property
    def events(self) -> "_EventView":
        return _EventView(self)


class _EventView(Sequence):
    """Read-only sequence over a graph's events; builds a TemporalEvent per access."""

    def __init__(self, graph: TemporalGraph):
        self._g = graph

    def __len__(self) -> int:
        return self._g.num_events

    def __getitem__(self, i) -> TemporalEvent:
        g = self._g
        label = int(g.labels[i])
        return TemporalEvent(source=int(g.sources[i]), destination=int(g.destinations[i]),
                             timestamp=float(g.timestamps[i]),
                             edge_features=g.edge_features[i],
                             label=None if label < 0 else label)


# ---------------------------------------------------------------------------
# access instrumentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessRecord:
    node: int
    query_time: float
    event_timestamp: float
    event_index: int


class AccessMonitor:
    """Records every event returned by neighborhood queries while active.

    Used to demonstrate end-to-end causality (no returned event may be at or
    after its consumer's query time) and split hygiene during training.
    """

    def __init__(self):
        self.records: list[AccessRecord] = []

    def __enter__(self) -> "AccessMonitor":
        _MONITORS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _MONITORS.remove(self)
        return False

    def violations(self) -> list[AccessRecord]:
        # written so that a NaN on either side counts as a violation
        return [r for r in self.records if not r.event_timestamp < r.query_time]


_MONITORS: list[AccessMonitor] = []


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def seed_sequence(rng_seed) -> np.random.SeedSequence:
    """``SeedSequence(rng_seed)``, or ValidationError for a seed it rejects
    (a negative or fractional one, say), for a boolean seed or member, which
    it would take as 0 or 1, and for None, from which it would draw fresh
    entropy, so that no run repeats. Every package seed but a ``Generator`` passes here."""
    if rng_seed is not None and not _holds_text_or_bool(rng_seed):
        try:
            return np.random.SeedSequence(rng_seed)
        except (TypeError, ValueError):
            pass
    raise ValidationError(
        f"rng_seed must be a non-negative integer or a sequence of them, got {rng_seed!r}")


def sampling_key(rng_seed) -> np.uint64:
    """The 64-bit key of one sampling call: one draw of a ``Generator``, or
    ``generate_state(1, np.uint64)[0]`` of ``seed_sequence(rng_seed)`` for any
    other seed, an ``np.uint64`` among them. ``sample_neighborhoods`` and the
    embeddings call it once per call, and every entry point reads a seed so."""
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed.integers(0, 2**64, dtype=np.uint64)
    return seed_sequence(rng_seed).generate_state(1, np.uint64)[0]


@checked
class SamplingConfig:
    """Per-hop neighborhood cap and subsampling strategy, shared across layers."""

    max_neighbors: int = setting(Rule.AT_LEAST_1, 20)
    strategy: str = setting(Rule.STRATEGY, "most-recent")


def check_queries(g: TemporalGraph, nodes, times) -> tuple[np.ndarray, np.ndarray]:
    """The node and time arrays of B queries, the one place where a query
    becomes arrays: ``nodes`` node ids of ``g`` (InferenceError for one
    outside it), ``times`` finite, non-negative and aligned with them, else
    ValidationError. The id and time rules read the caller's values before
    numpy does, so [True, 2] is no pair of ids and "7.5" no time; the shape
    rule reads the call's shapes, so 0 with [5.0] is no query. Then a node
    and a time form a one-query batch. The cap and strategy are a
    ``SamplingConfig``'s, checked when it was built."""
    nodes = whole_numbers(nodes, "node id", g.num_nodes, InferenceError)
    times = numbers(times, "query time")
    if nodes.ndim > 1 or nodes.shape != times.shape:
        raise ValidationError(
            f"nodes and times must be 1-D and of equal length, got shapes {nodes.shape} "
            f"and {times.shape}")
    bad = np.flatnonzero(~((times >= 0) & (times < np.inf)))  # numpy 2 takes no nonzero of 0-d
    if bad.size:
        raise ValidationError(
            f"query time must be finite and non-negative, got {times.flat[bad[0]]}")
    return np.atleast_1d(nodes), np.atleast_1d(times)


# 0-d arrays rather than numpy scalars: a ufunc takes them up faster
_MIX_1, _MIX_2, _SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31 = (
    np.array(c, dtype=np.uint64) for c in (0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser on a uint64 array: a bijection whose outputs
    for distinct inputs look independent (Steele et al., 2014)."""
    z = (z ^ (z >> _SHIFT_30)) * _MIX_1
    z = (z ^ (z >> _SHIFT_27)) * _MIX_2
    return z ^ (z >> _SHIFT_31)


def sample_neighborhoods(
    g: TemporalGraph,
    nodes,
    times,
    max_size: int,
    strategy: str = "most-recent",
    rng_seed=0,
) -> NeighborhoodBatch:
    """Up to ``max_size`` interactions of each ``nodes[b]`` strictly before
    ``times[b]``; a node and a time are one query N(v; t), a one-query batch.

    ``uniform`` subsamples without replacement, ``inverse-timespan`` weights
    candidates by 1/(t - t_i + INVERSE_TIMESPAN_JITTER), and ``most-recent``
    keeps the latest interactions deterministically. Each query's rows come
    back sorted by timestamp (ties by event order); recurring interactions
    with the same peer stay distinct. A node with no prior interactions
    yields no rows (size 0).

    A query's sample depends only on (``rng_seed``, node, time, ``max_size``,
    strategy), never on the other queries of the call: see
    ``hop_neighborhoods``. ``rng_seed`` becomes one key through
    ``sampling_key``, so a ``Generator`` gives one draw per call.
    """
    SamplingConfig(max_size, strategy)  # checks the cap and the strategy
    nodes, times = check_queries(g, nodes, times)
    return hop_neighborhoods(g, nodes, times, max_size, strategy, sampling_key(rng_seed))


def hop_neighborhoods(
    g: TemporalGraph,
    nodes: np.ndarray,
    times: np.ndarray,
    max_size: int,
    strategy: str,
    key: np.uint64,
) -> NeighborhoodBatch:
    """``sample_neighborhoods`` for arrays that passed ``check_queries`` and a
    key from ``sampling_key``; the forward pass calls it once per hop.

    Every query is answered by array operations over the whole batch. Both
    random strategies give each candidate of a query with more than
    ``max_size`` candidates an exponential key, divide it by the weight and
    keep the query's ``max_size`` smallest keys (Efraimidis & Spirakis,
    2006): the same distribution as successive draws without replacement.
    The exponential is a counter-based hash (Salmon et al., 2011) of the
    call's key, the node, the bits of the query time and the candidate's
    event index, so equal queries get equal samples in any batch.
    """
    # rows of v before t are those whose event index precedes the first event at t
    lo = g.indptr[nodes]
    end = g.row_key.searchsorted(nodes * g.num_events + g.timestamps.searchsorted(times))
    cut = end - lo
    sizes = np.minimum(cut, max_size)
    n = max(int(np.maximum.reduce(sizes, initial=0)), 1)
    col = np.arange(n)
    rows = (end - sizes)[:, None] + col
    drawn = ((cut > max_size) & (strategy != "most-recent")).nonzero()[0]
    if drawn.size:
        counts = cut[drawn]
        starts = counts.cumsum() - counts
        seg = np.arange(drawn.size).repeat(counts)
        cand = (lo[drawn] - starts).repeat(counts) + np.arange(seg.size)  # in (query, time) order
        # node ids and event indices are non-negative: their bits are the uint64's
        query = _mix(_mix(key ^ nodes[drawn].view(np.uint64)) ^ times[drawn].view(np.uint64))
        bits = _mix(query.repeat(counts) ^ g.event_idx[cand].view(np.uint64))
        # 53 random bits as a uniform in (0, 1), then its exponential
        keys = -np.log(((bits >> _SHIFT_11).astype(np.float64) + 0.5) * 2.0**-53)
        if strategy == "inverse-timespan":
            keys *= times[drawn].repeat(counts) - g.times[cand] + INVERSE_TIMESPAN_JITTER
        # by query, then by key; seg is sorted, so a query's max_size-th
        # smallest key, its cutoff, lands at position starts + max_size - 1
        order = keys.argsort()
        order = order[_radix_order(seg[order], drawn.size)]
        cutoff = keys[order[starts + (max_size - 1)]].repeat(counts)
        # keep every key below the cutoff, then the first ties at it in
        # candidate order until the query holds max_size: the set a stable
        # sort keeps. Each query ties at least once, at its cutoff.
        keep = keys < cutoff
        tied = (keys == cutoff).nonzero()[0]
        tied_seg = seg[tied]
        room = max_size - np.add.reduceat(keep, starts, dtype=np.intp)
        rank = np.arange(tied.size) - tied_seg.searchsorted(tied_seg)  # among its query's ties
        keep[tied[rank < room[tied_seg]]] = True
        rows[drawn, :max_size] = cand[keep].reshape(drawn.size, max_size)

    mask = col < sizes[:, None]
    real = rows[mask]
    events = g.event_idx[real]
    sampled_times = g.times[real]
    if _MONITORS:
        records = [AccessRecord(node=v, query_time=t, event_timestamp=ts, event_index=e)
                   for v, t, ts, e in zip(np.repeat(nodes, sizes).tolist(),
                                          np.repeat(times, sizes).tolist(),
                                          sampled_times.tolist(), events.tolist())]
        for monitor in _MONITORS:
            monitor.records.extend(records)
    return NeighborhoodBatch(peers=g.peers[real], times=sampled_times, event_indices=events,
                             edge_features=g.edge_features[events], sizes=sizes, mask=mask,
                             query_times=times)


def chronological_split(g: TemporalGraph, train_frac: float, val_frac: float) -> SplitSpec:
    """Quantile cut points over event timestamps; boundary events fall into
    the earlier period."""
    check_value(train_frac, float, "train_frac", Rule.FRACTION)
    check_value(val_frac, float, "val_frac", Rule.FRACTION)
    if not train_frac + val_frac < 1:
        raise ValidationError(
            f"invalid split fractions train={train_frac} val={val_frac}")
    if g.num_events < 3:
        raise SplitError(f"need at least 3 events to split, got {g.num_events}")
    ts = g.timestamps
    n = ts.size

    def quantile_ts(frac: float) -> float:
        # index of the ceil(frac * n)-th event, guarding float fuzz like 0.7*100 -> 70.000...01
        idx = int(np.ceil(frac * n - 1e-9)) - 1
        return float(ts[min(max(idx, 0), n - 1)])

    return SplitSpec(train_end=quantile_ts(train_frac),
                     val_end=quantile_ts(train_frac + val_frac))


def mask_unseen(g: TemporalGraph, split: SplitSpec, fraction: float, rng_seed: int) -> SplitSpec:
    """Withhold a seeded random fraction of nodes from training.

    Training-period events incident to a withheld node are excluded from
    training; validation/test events incident to one form the inductive
    evaluation set. Raises if masking empties the training period.
    """
    check_value(fraction, float, "unseen fraction", Rule.FRACTION)
    rng = np.random.default_rng(seed_sequence(rng_seed))
    count = int(round(fraction * g.num_nodes))
    unseen = frozenset(int(v) for v in rng.choice(g.num_nodes, size=count, replace=False))
    masked = replace(split, unseen_nodes=unseen)
    if training_event_indices(g, masked).size == 0:
        raise MaskingError(
            f"masking {count} nodes leaves no training events before t={split.train_end}")
    return masked


def _touches_unseen(g: TemporalGraph, split: SplitSpec) -> np.ndarray:
    unseen = whole_numbers(list(split.unseen_nodes), "unseen node", below=g.num_nodes)
    return np.isin(g.sources, unseen) | np.isin(g.destinations, unseen)


def training_event_indices(g: TemporalGraph, split: SplitSpec) -> np.ndarray:
    """Indices of training-period events untouched by unseen nodes (chronological)."""
    return np.flatnonzero(split.in_period(g.timestamps, "train") & ~_touches_unseen(g, split))


def evaluation_event_indices(
    g: TemporalGraph, split: SplitSpec, period: str, mode: str = "transductive"
) -> np.ndarray:
    """Indices of evaluation events in ``period`` ("val" or "test").

    ``transductive`` keeps events between observed nodes only; ``inductive``
    keeps events incident to at least one unseen node.
    """
    if period not in ("val", "test"):
        raise ValidationError(f"evaluation period must be 'val' or 'test', got {period!r}")
    if mode not in ("transductive", "inductive"):
        raise ValidationError(f"evaluation mode must be transductive or inductive, got {mode!r}")
    return np.flatnonzero(split.in_period(g.timestamps, period)
                          & (_touches_unseen(g, split) == (mode == "inductive")))


# ---------------------------------------------------------------------------
# ingestion and serialization
# ---------------------------------------------------------------------------


def build_graph(
    sources,
    destinations,
    timestamps,
    edge_features=None,
    labels=None,
    node_features=None,
    num_nodes: int | None = None,
    node_feature_dim: int | None = None,
) -> TemporalGraph:
    """Assemble a graph from parallel arrays.

    Missing edge features give d_e = 0, missing labels read -1 (none), and
    missing node features are zero vectors of width ``node_feature_dim``
    (default 1) for ``num_nodes`` nodes (default: one past the largest node
    id). A size passed with ``node_features`` must match their shape.
    """
    sizes = {"num_nodes": num_nodes, "node_feature_dim": node_feature_dim}
    for name, size in sizes.items():
        if size is not None:
            check_value(size, int, name, Rule.AT_LEAST_0)
    n_events = np.size(timestamps)
    if edge_features is None:
        edge_features = np.zeros((n_events, 0))
    if labels is None:
        labels = np.full(n_events, -1)
    if node_features is None:
        if num_nodes is None:
            num_nodes = int(max(np.max(sources, initial=-1), np.max(destinations, initial=-1))) + 1
        node_features = np.zeros((num_nodes, 1 if node_feature_dim is None else node_feature_dim))
    shape = np.shape(node_features)
    for (name, size), actual in zip(sizes.items(), shape):
        if size not in (None, actual):
            raise ValidationError(f"{name} {size} does not match node features of shape {shape}")
    return TemporalGraph(sources, destinations, timestamps, edge_features, labels,
                         node_features)


def ingest(
    rows: Iterable[Sequence[str]],
    feature_dim: int,
    node_feature_dim: int | None = None,
    time_divisor: float = 1.0,
) -> TemporalGraph:
    """Build a graph from parsed CSV rows ``user, item, timestamp, label, f_1..f_de``.

    User and item id spaces are distinct; both are remapped to contiguous node
    ids in first-appearance order. Node features default to all-zero vectors.
    A state label must be a whole number (``1`` or ``1.0``) of at least -1,
    which means no label.
    ``time_divisor`` rescales raw timestamps (raw epoch-second magnitudes make
    poor cos/sin arguments). Line numbers in errors count the one header line
    that ``load_graph_csv`` reads before the rows.
    """
    check_value(time_divisor, float, "time_divisor", Rule.POSITIVE_FINITE)
    check_value(feature_dim, int, "feature_dim", Rule.AT_LEAST_0)
    if node_feature_dim is not None:
        check_value(node_feature_dim, int, "node_feature_dim", Rule.AT_LEAST_0)
    expected_cols = 4 + feature_dim
    node_of_key: dict[tuple[str, str], int] = {}

    def node_of(kind: str, raw: str) -> int:
        return node_of_key.setdefault((kind, raw), len(node_of_key))

    sources, destinations, timestamps, labels, feats = [], [], [], [], []
    for line, row in enumerate(rows, start=2):
        if len(row) != expected_cols:
            raise IngestionError(
                f"line {line}: expected {expected_cols} columns, got {len(row)}")
        try:
            timestamp = float(row[2])
            label = float(row[3])
            feats.append([float(v) for v in row[4:]])
        except ValueError as exc:
            raise IngestionError(f"line {line}: {exc}") from None
        if not all(map(math.isfinite, feats[-1])):
            raise IngestionError(f"line {line}: edge features {row[4:]} are not all finite")
        if not label.is_integer():
            raise IngestionError(f"line {line}: state label {row[3]!r} is not a whole number")
        if label < -1:
            raise IngestionError(
                f"line {line}: state label {row[3]!r} is below -1, the no-label marker")
        labels.append(int(label))
        timestamps.append(timestamp / time_divisor)
        if not 0 <= timestamps[-1] < np.inf:  # a finite one may overflow the division
            raise IngestionError(f"line {line}: timestamp {row[2]!r} / time_divisor {time_divisor}"
                                 f" = {timestamps[-1]} is not finite and non-negative")
        sources.append(node_of("u", row[0]))
        destinations.append(node_of("i", row[1]))
    if node_feature_dim is None:
        node_feature_dim = feature_dim if feature_dim > 0 else 1
    return build_graph(sources, destinations, timestamps,
                       edge_features=np.array(feats).reshape(len(feats), feature_dim),
                       labels=labels,
                       node_features=np.zeros((len(node_of_key), node_feature_dim)))


def load_graph_csv(
    path,
    feature_dim: int | None = None,
    node_feature_dim: int | None = None,
    time_divisor: float = 1.0,
) -> TemporalGraph:
    """Read the benchmark CSV layout (one header line, then data rows).

    When ``feature_dim`` is omitted it is inferred from the header width.
    """
    import csv as _csv

    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty file, expected a header line")
            if feature_dim is None:
                feature_dim = max(len(header) - 4, 0)
            return ingest(reader, feature_dim, node_feature_dim=node_feature_dim,
                          time_divisor=time_divisor)
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except _csv.Error as exc:  # a field over the csv module's size limit, say
            raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None


GRAPH_FORMAT_VERSION = 1


# archive member order is part of the byte-deterministic file layout
_GRAPH_MEMBERS = ("sources", "destinations", "timestamps", "labels", "edge_features",
                  "node_features")


def save_graph(g: TemporalGraph, path) -> None:
    """Serialize to an .npz archive (schema documented in the README) at
    exactly ``path``: given a file object, ``np.savez`` adds no ``.npz`` suffix."""
    with open(path, "wb") as fh:
        np.savez(fh, format_version=np.array([GRAPH_FORMAT_VERSION]),
                 **{name: getattr(g, name) for name in _GRAPH_MEMBERS})


def load_graph(path) -> TemporalGraph:
    """Read a graph written by ``save_graph``. A file that is not such an archive
    raises ValidationError; one that cannot be opened raises OSError."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ValidationError(f"{path}: not an npz graph archive") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValidationError(f"{path}: not an npz graph archive")
    with data:
        try:
            columns = {name: data[name] for name in ("format_version", *_GRAPH_MEMBERS)}
        except (KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise ValidationError(f"{path}: malformed graph archive ({exc})") from None
    for name, column in columns.items():
        if column.dtype.kind not in "iuf":
            raise ValidationError(f"{path}: member {name!r} is {column.dtype}, not numeric")
    version = columns.pop("format_version")
    if version.shape != (1,) or version[0] != GRAPH_FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported graph format version {version.tolist()}")
    try:
        return TemporalGraph(**columns)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
