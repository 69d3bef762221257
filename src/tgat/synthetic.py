"""Synthetic temporal graphs: hand fixtures, random graphs, and a
recency-planted generator for directional experiments.

The recency-planted process gives every node a type (exposed one-hot in its
features) and makes the next partner of an active node depend on the type of
its *most recent* partner, with a reliability that decays in the time since
that interaction. Inter-event gaps are heterogeneous across nodes, so the
rank of an interaction says little about how long ago it happened; reading
the actual timespan is what pays off.
"""

from __future__ import annotations

import numpy as np

from .temporal_graph import TemporalGraph, build_graph, seed_sequence


def tiny_fixture_graph() -> TemporalGraph:
    """Deterministic 6-node graph with edge features, used by gradient checks."""
    sources = [0, 1, 2, 0, 3, 4, 1, 2]
    destinations = [1, 2, 3, 2, 4, 5, 3, 5]
    timestamps = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    edge_features = np.array([
        [0.5, -0.2], [0.1, 0.3], [-0.4, 0.8], [0.2, 0.2],
        [0.9, -0.5], [-0.1, 0.6], [0.3, -0.3], [0.7, 0.1],
    ])
    node_features = np.array([
        [1.0, 0.0, 0.2], [0.0, 1.0, -0.1], [0.5, 0.5, 0.3],
        [-0.2, 0.4, 1.0], [0.3, -0.6, 0.1], [0.8, 0.2, -0.4],
    ])
    return build_graph(sources, destinations, timestamps,
                       edge_features=edge_features, node_features=node_features)


def random_temporal_graph(
    n_nodes: int = 200,
    n_events: int = 2000,
    node_feature_dim: int = 4,
    edge_feature_dim: int = 0,
    t_max: float = 100.0,
    seed: int = 0,
) -> TemporalGraph:
    """Uniform random interactions; handy for causality and property tests."""
    rng = np.random.default_rng(seed_sequence(seed))
    sources = rng.integers(0, n_nodes, size=n_events)
    destinations = (sources + 1 + rng.integers(0, n_nodes - 1, size=n_events)) % n_nodes
    timestamps = np.sort(rng.uniform(0.0, t_max, size=n_events))
    edge_features = (rng.standard_normal((n_events, edge_feature_dim))
                     if edge_feature_dim else None)
    node_features = rng.standard_normal((n_nodes, node_feature_dim))
    return build_graph(sources, destinations, timestamps,
                       edge_features=edge_features, node_features=node_features)


def recency_planted_graph(
    n_nodes: int = 500,
    n_events: int = 20000,
    n_types: int = 5,
    memory_window: float = 400.0,
    seed: int = 0,
    time_divisor: float = 150.0,
) -> TemporalGraph:
    """Temporal graph whose future links depend on interaction recency.

    Each node has a static type, exposed one-hot in its features. With a
    probability that decays in the time since its latest interaction, a
    source follows that interaction: the next partner is drawn from nodes of
    the same type as the latest partner. Otherwise the partner is uniform.
    A node's "current" type therefore lives only in its recent event history,
    never in its own features, and its reliability decays smoothly with the
    actual timespan: per-node activity rates are log-normal, so interaction
    rank says little about elapsed time.

    Emitted timestamps are divided by ``time_divisor`` (mirroring rescaling
    at ingestion) so the decision-relevant timespans are O(1) rather than
    O(hundreds); frequencies of that magnitude survive optimizer updates.
    """
    rng = np.random.default_rng(seed_sequence(seed))
    types = rng.integers(0, n_types, size=n_nodes)
    nodes_by_type = [np.flatnonzero(types == k) for k in range(n_types)]
    node_features = np.zeros((n_nodes, n_types))
    node_features[np.arange(n_nodes), types] = 1.0

    activity = rng.lognormal(mean=0.0, sigma=0.6, size=n_nodes)
    source_p = activity / activity.sum()

    last_partner_type = np.full(n_nodes, -1, dtype=np.int64)
    last_time = np.full(n_nodes, -np.inf)

    sources = np.empty(n_events, dtype=np.int64)
    destinations = np.empty(n_events, dtype=np.int64)
    timestamps = np.empty(n_events)
    t = 0.0
    for i in range(n_events):
        t += rng.exponential(1.0)
        u = int(rng.choice(n_nodes, p=source_p))
        if last_partner_type[u] >= 0:
            follow_p = 0.85 * np.exp(-(t - last_time[u]) / memory_window)
        else:
            follow_p = 0.0
        pool = nodes_by_type[last_partner_type[u]] if rng.random() < follow_p else None
        if pool is not None and (pool.size > 1 or (pool.size == 1 and pool[0] != u)):
            v = int(pool[rng.integers(0, pool.size)])
            while v == u:
                v = int(pool[rng.integers(0, pool.size)])
        else:
            v = int(rng.integers(0, n_nodes))
            while v == u:
                v = int(rng.integers(0, n_nodes))
        sources[i] = u
        destinations[i] = v
        timestamps[i] = t
        last_partner_type[u] = types[v]
        last_time[u] = t
        last_partner_type[v] = types[u]
        last_time[v] = t
    return build_graph(sources, destinations, timestamps / time_divisor,
                       node_features=node_features)
