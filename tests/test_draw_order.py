"""Golden neighbourhood draws, query by query.

``golden_query_samples.json`` holds, per case, the sample of every distinct
(node, query time) query of one forward pass, in the order the pass first
issues it: the ``AccessMonitor`` records of one L=2 uniform ``link_loss``
batch, the same batch with the most-recent sampler, and one L=2
inverse-timespan ``embed_tensor`` call on ``recency_planted_graph(200, 4000,
seed=0)``. A query's sample is a function of the seed, its node and its
time, so a query that recurs within a pass must recur with the same sample,
and the golden pins which neighbours every query picks. The most-recent case
draws nothing and pins the deterministic cut. The batch and the queries
include targets with no earlier event, whose empty samples leave no record.
Regenerate the file with ``PYTHONPATH=src python tests/test_draw_order.py``
(only when a change of samples is intended and recorded in CHANGES.md).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tgat import autodiff as ad
from tgat.layer import Dims, SamplingConfig, TgatModel, embed_tensor
from tgat.synthetic import recency_planted_graph
from tgat.temporal_graph import AccessMonitor
from tgat.training import link_loss

GOLDEN_PATH = Path(__file__).with_name("golden_query_samples.json")

# events 0 and 1 have endpoints with no earlier event
LOSS_EVENTS = [0, 1, 500, 1500, 2500, 3000, 3500, 3999]
# node 0 at t=1.0 and every node at t=0.001 have no earlier event
EMBED_NODES = [0, 3, 7, 11, 42, 99, 150, 188, 199, 5]
EMBED_TIMES = [1.0, 2.3, 3.6, 0.001, 8.8, 15.3, 20.5, 24.4, 25.7, 0.001]


def _model(graph):
    dims = Dims(d0=graph.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5)
    return TgatModel.create(dims, layer_count=2, head_count=2, rng_seed=0,
                            t_max=graph.t_max)


def per_query(mon: AccessMonitor) -> list[list]:
    """[node, query time, event indices] per distinct query, in order of first
    appearance. Records come target by target with rising event indices, so a
    new target starts where the query changes or the index stops rising."""
    runs: list[list] = []
    for r in mon.records:
        if runs and runs[-1][:2] == [r.node, r.query_time] and runs[-1][2][-1] < r.event_index:
            runs[-1][2].append(r.event_index)
        else:
            runs.append([r.node, r.query_time, [r.event_index]])
    samples: dict[tuple, list[int]] = {}
    for node, t, events in runs:
        assert samples.setdefault((node, t), events) == events, (node, t)
    return [[node, t, events] for (node, t), events in samples.items()]


def record() -> dict:
    graph = recency_planted_graph(200, 4000, seed=0)
    model = _model(graph)
    with ad.Tape(), AccessMonitor() as loss_mon:
        link_loss(model, graph, LOSS_EVENTS, SamplingConfig(4, "uniform"),
                  negatives_per_positive=2, rng_seed=3)
    with ad.Tape(), AccessMonitor() as recent_mon:
        link_loss(model, graph, LOSS_EVENTS, SamplingConfig(4, "most-recent"),
                  negatives_per_positive=2, rng_seed=3)
    with AccessMonitor() as embed_mon:
        embed_tensor(model, EMBED_NODES, EMBED_TIMES, graph,
                     SamplingConfig(4, "inverse-timespan"), rng_seed=5)
    return {"link_loss_uniform": per_query(loss_mon),
            "link_loss_most_recent": per_query(recent_mon),
            "embed_inverse_timespan": per_query(embed_mon)}


@pytest.fixture(scope="module")
def draws():
    return record()


@pytest.mark.parametrize("case", ["link_loss_uniform", "link_loss_most_recent",
                                  "embed_inverse_timespan"])
def test_draw_order_matches_golden(draws, case):
    expected = json.loads(GOLDEN_PATH.read_text())[case]
    got = draws[case]
    assert len(got) == len(expected)
    assert got == expected


def test_golden_cases_draw_and_include_empty_samples(draws):
    graph = recency_planted_graph(200, 4000, seed=0)
    # a query node that keeps fewer events than it has before t was subsampled
    for case in draws.values():
        prior = [int(np.searchsorted(graph.times[graph.indptr[v]:graph.indptr[v + 1]], t))
                 for v, t, _ in case]
        assert any(len(events) < n for (_, _, events), n in zip(case, prior))
    # the targets below have no earlier event, so they leave no record
    recorded = {(v, t) for v, t, _ in draws["embed_inverse_timespan"]}
    assert (0, 1.0) not in recorded and (11, 0.001) not in recorded


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record()) + "\n")
    print(f"wrote {GOLDEN_PATH}")
