"""Golden order of neighbourhood draws.

``golden_draw_order.json`` holds the ``AccessMonitor`` record sequence
(node, query time, event index) of one L=2 uniform ``link_loss`` batch, the
same batch with the most-recent sampler, and one L=2 inverse-timespan
``embed_tensor`` call on ``recency_planted_graph(200, 4000, seed=0)``. Both
random strategies draw from one RNG stream hop by hop, so the sequence pins
which neighbours every query picks and the order of the draws; the
most-recent case draws nothing and pins the deterministic cut. The batch and the queries include
targets with no earlier event, whose empty samples draw nothing. Regenerate
the file with ``PYTHONPATH=src python tests/test_draw_order.py`` (only when a
change of draw order is intended and recorded in CHANGES.md).
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

GOLDEN_PATH = Path(__file__).with_name("golden_draw_order.json")

# events 0 and 1 have endpoints with no earlier event
LOSS_EVENTS = [0, 1, 500, 1500, 2500, 3000, 3500, 3999]
# node 0 at t=1.0 and every node at t=0.001 have no earlier event
EMBED_NODES = [0, 3, 7, 11, 42, 99, 150, 188, 199, 5]
EMBED_TIMES = [1.0, 2.3, 3.6, 0.001, 8.8, 15.3, 20.5, 24.4, 25.7, 0.001]


def _model(graph):
    dims = Dims(d0=graph.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5)
    return TgatModel.create(dims, layer_count=2, head_count=2, rng_seed=0,
                            t_max=graph.t_max)


def _records(mon: AccessMonitor) -> list[list]:
    return [[r.node, r.query_time, r.event_index] for r in mon.records]


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
    return {"link_loss_uniform": _records(loss_mon),
            "link_loss_most_recent": _records(recent_mon),
            "embed_inverse_timespan": _records(embed_mon)}


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
        nodes = np.array([r[0] for r in case])
        times = np.array([r[1] for r in case])
        keys, counts = np.unique(np.column_stack([nodes, times]), axis=0, return_counts=True)
        prior = [int(np.searchsorted(graph.times[graph.indptr[v]:graph.indptr[v + 1]], t))
                 for v, t in zip(keys[:, 0].astype(int), keys[:, 1])]
        assert (counts < np.array(prior)).any()
    # the targets below have no earlier event, so they leave no record
    recorded = {(r[0], r[1]) for r in draws["embed_inverse_timespan"]}
    assert (0, 1.0) not in recorded and (11, 0.001) not in recorded


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record()) + "\n")
    print(f"wrote {GOLDEN_PATH}")
