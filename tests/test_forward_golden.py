"""Golden values of the forward and backward pass.

``golden_forward.json`` holds a link loss with every parameter gradient, and
L=2 embeddings in each attention mode, as the per-row forward pass computed
them before the hop-batched pass replaced it. With most-recent sampling no
RNG draw picks neighbours, so the two paths differ only in float summation
order. Regenerate the file with ``PYTHONPATH=src python
tests/test_forward_golden.py`` (only when a change of numeric outputs is
intended and recorded in CHANGES.md).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tgat import autodiff as ad
from tgat.layer import Dims, SamplingConfig, TgatModel, _named_params, embed
from tgat.synthetic import recency_planted_graph, tiny_fixture_graph
from tgat.training import link_loss

GOLDEN_PATH = Path(__file__).with_name("golden_forward.json")
RTOL = 1e-12

LOSS_SAMPLING = SamplingConfig(max_neighbors=2, strategy="most-recent")
EMBED_SAMPLING = SamplingConfig(max_neighbors=8, strategy="most-recent")
# (node, t) on recency_planted_graph(200, 4000, seed=0); node 0 at t=1.0
# has no earlier event, so its neighbourhood is empty
EMBED_QUERIES = [
    (0, 1.0), (3, 2.3), (7, 3.6), (11, 4.9), (19, 6.2), (23, 7.5), (42, 8.8),
    (57, 10.1), (64, 11.4), (77, 12.7), (88, 14.0), (99, 15.3), (101, 16.6),
    (123, 17.9), (137, 19.2), (150, 20.5), (161, 21.8), (177, 23.1),
    (188, 24.4), (199, 25.7),
]


def loss_case(heads: int) -> tuple[float, list[np.ndarray]]:
    """Link loss and parameter gradients at L=2, d_e=2, Q=2, every event: one
    gradient per checkpoint array, so each head's Q, K and V apart."""
    graph = tiny_fixture_graph()
    dims = Dims(d0=3, d=4, d_t=4, d_h=3, d_f=5, d_e=2)
    model = TgatModel.create(dims, layer_count=2, head_count=heads, rng_seed=7,
                             t_max=graph.t_max)
    params = model.parameters()
    ad.zero_grads(params)
    with ad.Tape() as tape:
        loss = link_loss(model, graph, list(range(graph.num_events)), LOSS_SAMPLING,
                         negatives_per_positive=2, rng_seed=3)
    ad.backward(tape, loss)
    return float(loss.data[0, 0]), [t.grad[..., cols]
                                    for t, cols in _named_params(model).values()]


def embed_case(mode: str) -> np.ndarray:
    """L=2 embeddings of EMBED_QUERIES, one row per query."""
    graph = recency_planted_graph(200, 4000, seed=0)
    dims = Dims(d0=graph.node_feature_dim, d=8, d_t=8, d_h=4, d_f=8)
    model = TgatModel.create(dims, layer_count=2, head_count=2, attention_mode=mode,
                             rng_seed=0, t_max=graph.t_max)
    return np.stack([embed(model, v, t, graph, EMBED_SAMPLING) for v, t in EMBED_QUERIES])


def record() -> dict:
    out = {"loss": {}, "embed": {}}
    for heads in (1, 2):
        value, grads = loss_case(heads)
        out["loss"][str(heads)] = {"value": value, "grads": [g.tolist() for g in grads]}
    for mode in ("learned", "constant", "positional"):
        out["embed"][mode] = embed_case(mode).tolist()
    return out


def assert_close(got, expected) -> None:
    """Equal to RTOL relative to the largest magnitude of the recorded array."""
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(got - expected).max()) <= RTOL * scale


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("heads", [1, 2])
def test_link_loss_and_gradients_match_golden(golden, heads):
    value, grads = loss_case(heads)
    expected = golden["loss"][str(heads)]
    assert_close(value, expected["value"])
    assert len(grads) == len(expected["grads"])
    for g, e in zip(grads, expected["grads"]):
        assert_close(g, e)


@pytest.mark.parametrize("mode", ["learned", "constant", "positional"])
def test_embeddings_match_golden(golden, mode):
    assert_close(embed_case(mode), golden["embed"][mode])


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
