"""TGAT layer tests: entity-temporal matrix assembly, per-head attention,
multi-hop forward passes against an independent straight-line reimplementation,
batched against one-at-a-time queries, parameter accounting, and
checkpointing."""

import itertools
import json
import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tgat import autodiff as ad
from tgat import cores
from tgat import layer as layer_module
from tgat import time_encoding
from tgat.errors import (
    CheckpointError,
    ContractError,
    InferenceError,
    ValidationError,
)
from tgat.layer import (
    Dims,
    LayerParams,
    SamplingConfig,
    TgatModel,
    attend_head,
    build_entity_matrix,
    EMBED_CHUNK,
    embed,
    embed_passes,
    embed_tensor,
    entity_blocks,
    glorot,
    head_parameter_formula,
    load_checkpoint,
    save_checkpoint,
    _named_params,
)
from tgat.synthetic import recency_planted_graph, tiny_fixture_graph
from tgat.temporal_graph import (
    AccessMonitor,
    build_graph,
    hop_neighborhoods,
    sample_neighborhoods,
)
from tgat.time_encoding import PositionalEncoder, TimeEncoder

MOST_RECENT = SamplingConfig(max_neighbors=16, strategy="most-recent")
# written by an earlier commit's save_checkpoint; never rewritten, so it pins the format
GOLDEN_CHECKPOINT = Path(__file__).with_name("golden_checkpoint.json")


def weighted_sum(a: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    """sum(a * weights) as one test-local operator; a weight of 1.0 gives
    the plain sum of every entry, bit for bit."""
    def pull(g):
        a._accumulate(np.full(a.data.shape, g.flat[0]) * weights)

    return ad.apply_op(np.array([[(a.data * weights).sum()]]), (a,), pull)


def simple_graph():
    # 4 nodes, d_0 = 2, no edge features
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, -0.3]])
    return build_graph([0, 1, 0, 2], [1, 2, 3, 3], [1.0, 2.0, 3.0, 4.0],
                       node_features=feats)


def raw_hidden(g, batch, nodes):
    """Level-0 states of a batch's targets followed by its sampled neighbors."""
    return ad.constant(g.node_features[np.concatenate([nodes, batch.peers])])


def entity_rows(hidden, batch, enc, positional=None):
    """The entity operator over ``hidden`` and ``batch``'s hop, its two
    stages as one call: the edge and time blocks prepared, then built."""
    return build_entity_matrix(hidden, entity_blocks(batch, hidden.data.shape[1], enc,
                                                     positional))


def entity_matrix(g, nodes, times, enc, **kwargs):
    batch = sample_neighborhoods(g, nodes, times, 5)
    return batch, entity_rows(raw_hidden(g, batch, nodes), batch, enc, **kwargs)


def block(z, batch, i):
    """Target i's rows of an entity matrix: its target row, then the rows of
    its sampled interactions."""
    start = len(batch.sizes) + batch.sizes[:i].sum()
    return np.vstack([z[i], z[start : start + batch.sizes[i]]])


def assert_close(actual, expected, rtol=1e-12):
    """Equal within ``rtol`` of the largest magnitude of ``expected``."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max(initial=0.0) <= rtol * np.abs(expected).max(initial=0.0)


class TestBuildEntityMatrix:
    def test_shape_without_edge_features(self):
        g = simple_graph()
        enc = TimeEncoder.create(6)
        _, z = entity_matrix(g, [0], [2.0], enc)  # one event before t=2
        assert z.data.shape == (2, 2 + 6)

    def test_target_time_block_is_phi_zero(self, monkeypatch):
        # each hop encodes its targets' zero timespans with its sampled ones; a
        # negative frequency makes phi(0)'s sine a -0.0, which the bytes keep
        # and == would not see
        g = recency_planted_graph(60, 600, seed=0)
        dims = Dims(d0=g.node_feature_dim, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=1, rng_seed=0, t_max=g.t_max)
        model.time_encoder = TimeEncoder([0.7, -1.3])
        phi_zero = model.time_encoder.encode_many([0.0]).data
        assert np.signbit(phi_zero).tolist() == [[False, False, False, True]]
        blocks = []

        def recording(hidden, prepared):
            z = build_entity_matrix(hidden, prepared)
            b, width = prepared.batch.sizes.size, hidden.data.shape[1]
            blocks.append(z.data[:b, width:])  # d_e = 0: the time block
            return z

        monkeypatch.setattr(layer_module, "build_entity_matrix", recording)
        embed_tensor(model, [3, 7], [20.5, 0.0], g, SamplingConfig(4, "uniform"))
        # the inner hop's targets, the 2 queries and their samples, then the top hop's
        assert blocks[0].shape[0] > 2 and blocks[1].shape == (2, 4)
        for block in blocks:
            assert block.tobytes() == np.repeat(phi_zero, block.shape[0], axis=0).tobytes()

    def test_neighbor_time_blocks_cross_checked(self):
        # neighbors at t in {1, 2, 4}, query at 5 -> offsets 4, 3, 1
        g = build_graph([0, 0, 0], [1, 2, 3], [1.0, 2.0, 4.0],
                        node_features=np.eye(4))
        enc = TimeEncoder.create(8, t_max=5.0)
        _, z = entity_matrix(g, [0], [5.0], enc)
        for row, offset in zip(range(1, 4), [4.0, 3.0, 1.0]):
            np.testing.assert_array_equal(z.data[row, 4:], enc.encode_many([offset]).data[0])

    def test_edge_block_zero_padded_on_target(self):
        g = tiny_fixture_graph()  # d_e = 2
        enc = TimeEncoder.create(4)
        _, z = entity_matrix(g, [0], [5.0], enc)
        np.testing.assert_array_equal(z.data[0, 3:5], [0.0, 0.0])
        np.testing.assert_array_equal(z.data[1, 3:5], g.events[0].edge_features)

    def test_rows_follow_hidden_order(self):
        # B + sum(sizes) rows: the targets, then each target's sampled rows
        g = tiny_fixture_graph()
        enc = TimeEncoder.create(4)
        # node 0 has 1 neighbor before t=2, node 5 none before t=0.5, node 2 3 before t=8
        nodes, times = [0, 5, 2], [2.0, 0.5, 8.0]
        batch, z = entity_matrix(g, nodes, times, enc)
        assert batch.sizes.tolist() == [1, 0, 3]
        assert z.data.shape == (3 + 4, 3 + 2 + 4)
        np.testing.assert_array_equal(z.data[:, :3], raw_hidden(g, batch, nodes).data)
        for i, (target, t) in enumerate(zip(nodes, times)):
            _, alone = entity_matrix(g, [target], [t], enc)
            assert alone.data.shape == (1 + batch.sizes[i], 3 + 2 + 4)
            np.testing.assert_array_equal(block(z.data, batch, i), alone.data)

    def test_positional_ranks_per_block(self):
        g = tiny_fixture_graph()
        pos = PositionalEncoder.fixed_sinusoidal(8, 4)
        batch, z = entity_matrix(g, [0, 2], [2.0, 8.0], TimeEncoder.create(4), positional=pos)
        # target rank n, then each target's neighbor ranks 0..n-1, oldest first
        np.testing.assert_array_equal(z.data[:, 5:], pos.table.data[[1, 3, 0, 0, 1, 2]])
        np.testing.assert_array_equal(block(z.data, batch, 1)[:, 5:], pos.table.data[[3, 0, 1, 2]])

    def test_learnable_table_gradient_scatter_adds_repeated_ranks(self):
        # each time-block row's gradient lands in the table row of its rank,
        # repeats summed; a row that no rank reads takes exactly 0
        g = tiny_fixture_graph()
        pos = PositionalEncoder(glorot(np.random.default_rng(1), 8, 4), learnable=True)
        batch = sample_neighborhoods(g, [0, 2, 3, 2], [2.0, 8.0, 6.0, 9.0], 3)
        ranks = np.concatenate([batch.sizes, batch.mask.nonzero()[1]])
        assert np.bincount(ranks).max() > 1 and ranks.max() < 4
        enc = TimeEncoder.create(4)
        weights = np.random.default_rng(2).standard_normal((ranks.size, 3 + 2 + 4))
        with ad.Tape() as tape:
            z = entity_rows(raw_hidden(g, batch, [0, 2, 3, 2]), batch, enc, pos)
            loss = weighted_sum(z, weights)
        ad.backward(tape, loss)
        expected = np.zeros_like(pos.table.data)
        np.add.at(expected, ranks, weights[:, 5:])
        np.testing.assert_array_equal(pos.table.grad, expected)
        assert (pos.table.grad[4:] == 0.0).all()

    def test_hidden_row_count_checked(self):
        g = simple_graph()
        enc = TimeEncoder.create(4)
        batch = sample_neighborhoods(g, [0], [2.0], 5)
        with pytest.raises(ContractError):
            entity_rows(ad.constant(np.zeros((3, 2))), batch, enc)
        with pytest.raises(ContractError):
            entity_rows(ad.constant(np.zeros((0, 2))),
                        sample_neighborhoods(g, [], [], 5), enc)

    def test_only_target_rows_hold_phi_zero(self):
        # target rows take phi(0) with the bits that encoding a zero timespan
        # gives, whatever the frequencies' signs; sampled rows hold the
        # encodings of their timespans
        g = tiny_fixture_graph()
        enc = TimeEncoder(np.random.default_rng(0).normal(0.0, 2.0, size=3))
        batch, z = entity_matrix(g, [0, 2, 5, 3], [0.5, 8.0, 7.5, 6.0], enc)
        assert batch.sizes.tolist() == [0, 3, 1, 2]
        t0 = 3 + 2
        phi_zero = enc.encode_many(np.zeros(4)).data
        assert z.data[:4, t0:].tobytes() == phi_zero.tobytes()
        assert z.data.shape[0] == 4 + 6
        spans = np.repeat(batch.query_times, batch.sizes) - batch.times
        assert z.data[4:, t0:].tobytes() == enc.encode_many(spans).data.tobytes()


class TestAttendHead:
    def _params(self, rng, d_in, d_h):
        """One head's Q, K and V."""
        return (ad.parameter(rng.standard_normal((d_in, d_h))),
                ad.parameter(rng.standard_normal((d_in, d_h))),
                ad.parameter(rng.standard_normal((d_in, d_h))))

    def test_constant_mode_is_exact_mean(self):
        rng = np.random.default_rng(0)
        w_q, w_k, w_v = self._params(rng, 4, 3)
        z = ad.constant(rng.standard_normal((6, 4)))
        h, alpha = attend_head(z, w_q, w_k, w_v, 1, "constant", np.ones((1, 5), bool))
        values = z.data[1:] @ w_v.data
        np.testing.assert_allclose(h.data[0], values.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(alpha[0], 0.2)

    def test_single_neighbor_softmax_is_one(self):
        rng = np.random.default_rng(1)
        w_q, w_k, w_v = self._params(rng, 4, 3)
        z = ad.constant(rng.standard_normal((2, 4)))
        _, alpha = attend_head(z, w_q, w_k, w_v, 1, "learned", np.ones((1, 1), bool))
        np.testing.assert_array_equal(alpha[0], [[1.0]])

    def test_identical_neighbors_split_evenly(self):
        rng = np.random.default_rng(2)
        w_q, w_k, w_v = self._params(rng, 4, 3)
        row = rng.standard_normal(4)
        z = ad.constant(np.vstack([rng.standard_normal(4), row, row]))
        _, alpha = attend_head(z, w_q, w_k, w_v, 1, "learned", np.ones((1, 2), bool))
        np.testing.assert_allclose(alpha[0], 0.5, atol=1e-12)

    def test_weights_normalized(self):
        rng = np.random.default_rng(3)
        w_q, w_k, w_v = self._params(rng, 5, 4)
        for _ in range(25):
            z = ad.constant(rng.standard_normal((int(rng.integers(2, 9)), 5)) * 3)
            mask = np.ones((1, z.data.shape[0] - 1), bool)
            _, alpha = attend_head(z, w_q, w_k, w_v, 1, "learned", mask)
            assert (alpha[0] >= 0).all()
            np.testing.assert_allclose(alpha[0].sum(), 1.0, atol=1e-9)

    def test_masked_blocks_match_blocks_alone(self):
        rng = np.random.default_rng(5)
        w_q, w_k, w_v = self._params(rng, 4, 3)
        sizes = [3, 1, 0, 2]  # the size-0 block is an empty neighborhood
        blocks = [rng.standard_normal((n + 1, 4)) for n in sizes]
        # the target rows, then each block's neighbor rows
        z = np.vstack([b[:1] for b in blocks] + [b[1:] for b in blocks])
        mask = np.arange(3) < np.array(sizes)[:, None]
        for mode in ("learned", "constant"):
            h, alpha = attend_head(ad.constant(z), w_q, w_k, w_v, 1, mode, mask)
            alpha = alpha[0]
            assert h.data.shape == (4, 3) and alpha.shape == (4, 3)
            assert np.isfinite(h.data).all() and np.isfinite(alpha).all()
            np.testing.assert_array_equal(alpha[~mask], 0.0)
            np.testing.assert_array_equal(h.data[2], 0.0)
            for i, block in enumerate(blocks):
                if sizes[i] == 0:
                    continue
                h1, alpha1 = attend_head(ad.constant(block), w_q, w_k, w_v, 1, mode,
                                         np.ones((1, sizes[i]), bool))
                np.testing.assert_allclose(h.data[i], h1.data[0], rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(alpha[i, : sizes[i]], alpha1[0][0],
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_heads_equal_one_head_calls(self, mode, heads):
        # the heads' projections are one product, so a head's bits may differ
        # from a one-head call's; N and d_h of 8 or more, where numpy's
        # pairwise sums and the BLAS kernels split a reduction by its length
        sizes, n, d_in, d_h = [9, 0, 1, 4, 9], 9, 5, 8  # block 1 is all masked
        mask = np.arange(n) < np.array(sizes)[:, None]

        def run(z_data, w_data, g_out, picked):
            z = ad.parameter(z_data)
            w = [ad.parameter(np.hstack([m[i] for i in picked])) for m in w_data]
            cols = np.concatenate([np.arange(i * d_h, (i + 1) * d_h) for i in picked])
            with ad.Tape() as tape:
                out, alpha = attend_head(z, *w, len(picked), mode, mask)
                loss = weighted_sum(out, g_out[:, cols])
            ad.backward(tape, loss)
            return out.data, alpha, z.grad, [t.grad for t in w]

        for seed in range(10):
            rng = np.random.default_rng(seed)
            args = (rng.standard_normal((len(sizes) + sum(sizes), d_in)),
                    rng.standard_normal((3, heads, d_in, d_h)),
                    rng.standard_normal((len(sizes), heads * d_h)))
            out, alpha, z_grad, w_grads = run(*args, range(heads))
            alone = [run(*args, [i]) for i in range(heads)]
            for i, (out_i, alpha_i, _, w_grads_i) in enumerate(alone):
                head = slice(i * d_h, (i + 1) * d_h)
                assert_close(out[:, head], out_i)
                assert_close(alpha[i], alpha_i[0])
                for k, (grads, grads_i) in enumerate(zip(w_grads, w_grads_i)):
                    if mode == "constant" and k < 2:  # w_q and w_k take no part
                        assert grads is None and grads_i is None
                    else:
                        assert_close(grads[:, head], grads_i)
            assert_close(z_grad, sum(z_grad_i for _, _, z_grad_i, _ in alone))

    def _hop_gradients(self, mode):
        """Two heads over one hop whose targets have 0, 2, 1 and 2 of N = 2
        neighbors, differentiated into a parameter ``hidden``."""
        g = simple_graph()
        batch = sample_neighborhoods(g, [0, 3, 1, 2], [0.5, 4.5, 1.5, 4.5], 5)
        rng = np.random.default_rng(6)
        hidden = ad.parameter(rng.standard_normal((4 + batch.sizes.sum(), 3)))
        w = [ad.parameter(np.hstack([rng.standard_normal((3 + 4, 2)) for _ in range(2)]))
             for _ in range(3)]  # Q, K and V, head by head
        g_out = rng.standard_normal((4, 2 * 2))
        with ad.Tape() as tape:
            enc = TimeEncoder.create(4)
            z = entity_rows(hidden, batch, enc)
            out, _ = attend_head(z, *w, 2, mode, batch.mask)
            loss = weighted_sum(out, g_out)
        ad.backward(tape, loss)
        return batch, hidden, z, w, g_out

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    def test_padded_layout_rejected(self, mode):
        # a z with B * (N + 1) rows, a row for every slot of the block
        batch, _, z, w, _ = self._hop_gradients(mode)
        assert batch.sizes.tolist() == [0, 2, 1, 2] and z.data.shape[0] == 4 + 5
        padded = ad.constant(np.zeros((4 * (2 + 1), z.data.shape[1])))
        with pytest.raises(ContractError):
            attend_head(padded, *w, 2, mode, batch.mask)

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    def test_gradients_equal_real_rows_reference(self, mode):
        # each target attended alone over its real rows only: its z rows and
        # the head weights take the same gradients, up to float order
        batch, _, z, w, g_out = self._hop_gradients(mode)
        weight_grads = [np.zeros_like(p.data) for p in w]
        for i, size in enumerate(batch.sizes):
            rows = ad.parameter(block(z.data, batch, i))
            alone = [ad.parameter(p.data) for p in w]
            with ad.Tape() as tape:
                out, _ = attend_head(rows, *alone, 2, mode, np.arange(max(size, 1)) < [[size]])
                loss = weighted_sum(out, g_out[i : i + 1])
            ad.backward(tape, loss)
            assert_close(block(z.grad, batch, i), rows.grad)
            for total, p in zip(weight_grads, alone):
                total += 0.0 if p.grad is None else p.grad
        for total, p in zip(weight_grads, w):
            for head in (slice(0, 2), slice(2, 4)):  # each head's columns alone
                assert_close((np.zeros_like(total) if p.grad is None else p.grad)[:, head],
                             total[:, head])
        assert (z.grad[4:] != 0.0).all()  # every sampled row takes part

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    def test_hidden_gradient_equals_scatter_add(self, mode):
        # the entity matrix hands each hidden row the gradient of its own z
        # row: scatter-adding the z rows into their sources gives it exactly
        batch, hidden, z, _, _ = self._hop_gradients(mode)
        source = np.arange(4 + batch.sizes.sum())  # z row r holds hidden row r
        expected = np.zeros_like(hidden.data)
        np.add.at(expected, source, z.grad[:, : hidden.data.shape[1]])
        np.testing.assert_array_equal(hidden.grad, expected)

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    def test_stack_and_sqrt_forms_give_the_same_bytes(self, mode, monkeypatch):
        # attend_head and TimeEncoder.scale take math.sqrt of an int; the
        # np.sqrt form gives the same bytes in every output and gradient
        g = simple_graph()
        batch = sample_neighborhoods(g, [0, 3, 1, 2], [0.5, 4.5, 1.5, 4.5], 5)

        def hop(d_h, k):
            rng = np.random.default_rng([d_h, k])
            hidden = ad.parameter(rng.standard_normal((4 + batch.sizes.sum(), 3)))
            enc = TimeEncoder(rng.uniform(0.1, 2.0, size=k))
            w = [ad.parameter(np.hstack([rng.standard_normal((3 + 2 * k, d_h))
                                         for _ in range(3)])) for _ in range(3)]
            with ad.Tape() as tape:
                z = entity_rows(hidden, batch, enc)
                out, alpha = attend_head(z, *w, 3, mode, batch.mask)
                loss = weighted_sum(out, rng.standard_normal(out.data.shape))
            ad.backward(tape, loss)
            # each of the three heads' Q, K and V gradients apart
            grads = [p.grad for p in [hidden, enc.frequencies]] + [
                head for p in w if p.grad is not None for head in np.hsplit(p.grad, 3)]
            return [out.data, alpha] + [x for x in grads if x is not None]

        shapes = [(1, 1), (2, 3), (3, 5), (5, 6), (8, 12)]
        now = [hop(d_h, k) for d_h, k in shapes]

        monkeypatch.setattr(layer_module, "math", SimpleNamespace(sqrt=np.sqrt))
        monkeypatch.setattr(time_encoding, "math", SimpleNamespace(sqrt=np.sqrt))
        for arrays, (d_h, k) in zip(now, shapes):
            before = hop(d_h, k)
            assert len(arrays) == len(before) == (7 if mode == "constant" else 13)
            for a, b in zip(arrays, before):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert all(1.0 / math.sqrt(k) == 1.0 / np.sqrt(k) for k in range(1, 5000))

    def test_needs_a_neighbor_row(self):
        rng = np.random.default_rng(4)
        w_q, w_k, w_v = self._params(rng, 4, 3)
        with pytest.raises(ContractError):
            attend_head(ad.constant(rng.standard_normal((1, 4))), w_q, w_k, w_v, 1, "learned",
                        np.ones((1, 0), bool))


class TestSplitHop:
    """The backward of a hop of ``SPLIT_WORK`` or more sampled slots times d_h
    runs one head per task on ``cores.run``, then its two products with the
    sampled rows side by side; every output and gradient keeps the bytes of
    the same hop run as one block."""

    B, N, D_IN = 700, 16, 12

    def inputs(self, seed: int, h: int, d_h: int):
        """z, Q/K/V and an upstream gradient of a hop of B targets; about a
        quarter of the slots are masked, and every 50th row is all masked."""
        rng = np.random.default_rng([seed, h, d_h])
        sizes = rng.integers(self.N // 2, self.N + 1, self.B)
        sizes[::50] = 0
        mask = np.arange(self.N) < sizes[:, None]
        assert sizes.sum() * d_h >= layer_module.SPLIT_WORK
        return (rng.standard_normal((self.B + sizes.sum(), self.D_IN)),
                rng.standard_normal((3, self.D_IN, h * d_h)),
                rng.standard_normal((self.B, h * d_h)), mask)

    @staticmethod
    def forward(z_data, w_data, g_out, mask, h, mode):
        """The hop's output and weights, recorded on the active tape, and the
        loss that weighs its output by ``g_out``."""
        z = ad.parameter(z_data)
        w = [ad.parameter(m) for m in w_data]
        out, alpha = attend_head(z, *w, h, mode, mask)
        return weighted_sum(out, g_out), [out, alpha, z, *w]

    @staticmethod
    def arrays(parts):
        out, alpha, z, *w = parts
        return [out.data, alpha, z.grad] + [p.grad for p in w if p.grad is not None]

    def run(self, args, h, mode):
        with ad.Tape() as tape:
            loss, parts = self.forward(*args, h, mode)
        ad.backward(tape, loss)
        return self.arrays(parts)

    def one_block(self, monkeypatch, args, h, mode):
        with monkeypatch.context() as m:
            m.setattr(layer_module, "SPLIT_WORK", 1 << 62)
            return self.run(args, h, mode)

    @pytest.mark.parametrize("mode", ["learned", "positional", "constant"])
    @pytest.mark.parametrize("h, d_h", [(1, 8), (3, 8), (3, 5)])
    def test_split_equals_one_block(self, mode, h, d_h, monkeypatch):
        monkeypatch.setattr(cores, "_CORES", 2)
        args = self.inputs(0, h, d_h)
        tasks = []
        original = cores.run

        def counting(jobs):
            tasks.append(len(jobs))
            original(jobs)

        monkeypatch.setattr(cores, "run", counting)
        expected = self.one_block(monkeypatch, args, h, mode)
        assert tasks == []  # all heads at once, on this thread
        tasks.clear()
        got = self.run(args, h, mode)
        assert tasks == [h, 2]  # a head per task, then the two products
        assert len(got) == (4 if mode == "constant" else 6)
        for a, b in zip(got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (got[1][:, ::50] == 0.0).all() and (got[0][::50] == 0.0).all()

    def test_callers_at_once_under_one_tape(self, monkeypatch):
        cases = [(self.inputs(seed, 2, 8), mode)
                 for seed, mode in enumerate(["learned", "constant", "learned", "positional"])]
        expected = [self.one_block(monkeypatch, args, 2, mode) for args, mode in cases]
        parts = [None] * len(cases)

        def attend(i):
            args, mode = cases[i]
            parts[i] = self.forward(*args, 2, mode)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter lock often
        try:
            with ad.Tape() as tape:
                threads = [threading.Thread(target=attend, args=(i,)) for i in range(len(cases))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                losses = [loss for loss, _ in parts]

                def pull(g):
                    for loss in losses:
                        loss._accumulate(g)

                total = ad.apply_op(np.zeros((1, 1)), losses, pull)
        finally:
            sys.setswitchinterval(interval)
        ad.backward(tape, total)
        for (_, hop), want in zip(parts, expected):
            for a, b in zip(self.arrays(hop), want, strict=True):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_attends(self, monkeypatch):
        monkeypatch.setattr(cores, "_CORES", 2)
        args = self.inputs(1, 3, 8)
        expected = b"".join(a.tobytes() for a in self.run(args, 3, "learned"))  # pool running
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(60)  # a hang ends the child with SIGALRM
                code = int(b"".join(a.tobytes() for a in self.run(args, 3, "learned"))
                           != expected)
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestParameterAccounting:
    @pytest.mark.parametrize("seed", range(5))
    def test_head_count_matches_formula(self, seed):
        rng = np.random.default_rng(seed)
        dims = Dims(d0=int(rng.integers(1, 30)), d=int(rng.integers(1, 30)),
                    d_t=2 * int(rng.integers(1, 15)), d_h=int(rng.integers(1, 30)),
                    d_f=int(rng.integers(1, 30)), d_e=0)
        layer = LayerParams.create(dims, head_count=1, input_dim=dims.d, rng=rng)
        assert layer.head_param_count() == head_parameter_formula(dims)


def _with_k(layer, w_k, head_count=None):
    """``layer`` rebuilt with ``w_k`` as its K and, if given, another head count."""
    return LayerParams(layer.w_q, w_k, layer.w_v, head_count or layer.head_count,
                       layer.w0, layer.b0, layer.w1, layer.b1)


# the model's own structure checks, which neither create nor load_checkpoint reaches
@pytest.mark.parametrize("build, shown", [
    (lambda m: TgatModel([], m.time_encoder, m.dims), "model needs at least one layer"),
    (lambda m: _with_k(m.layers[0], ad.parameter(m.layers[0].w_k.data[:, :-1])),
     "Q, K and V need one equal column block per head"),
    (lambda m: _with_k(m.layers[0], m.layers[0].w_k, head_count=3),
     "Q, K and V need one equal column block per head")],
    ids=["no-layers", "narrow-k", "heads-do-not-divide"])
def test_model_structure_checked(build, shown):
    model = TgatModel.create(Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3), layer_count=1,
                             head_count=2)
    with pytest.raises(ValidationError, match=f"^{re.escape(shown)}$"):
        build(model)


class TestLayerForward:
    def test_zero_weights_give_zero_output(self):
        g = build_graph([0, 1], [1, 2], [1.0, 2.0], node_features=np.zeros((3, 2)))
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=1, head_count=1, rng_seed=0)
        layer = model.layers[0]
        for p in (layer.w_q, layer.w_k, layer.w_v, layer.w0, layer.b0, layer.w1, layer.b1):
            p.data = np.zeros_like(p.data)
        out = embed_tensor(model, 0, 3.0, g, MOST_RECENT)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_empty_neighborhood_runs_ffn_on_zero(self):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=1, head_count=2, rng_seed=1)
        out = embed(model, 3, 0.5, g, MOST_RECENT)  # node 3 has no events before 0.5
        layer = model.layers[0]
        ffn_in = np.concatenate([np.zeros(4), g.node_features[3]])[None, :]
        expected = (np.maximum(ffn_in @ layer.w0.data + layer.b0.data, 0.0)
                    @ layer.w1.data + layer.b1.data)
        np.testing.assert_allclose(out, expected[0], atol=1e-12)

    def test_unknown_node_rejected(self):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=1, head_count=1, rng_seed=0)
        with pytest.raises(InferenceError):
            embed_tensor(model, 17, 1.0, g, MOST_RECENT)
        with pytest.raises(InferenceError):
            embed_tensor(model, [0, 17], [1.0, 1.0], g, MOST_RECENT)

    @pytest.mark.parametrize("field, value", [("d", 16.5), ("d", True), ("d_h", 2.0)])
    def test_bad_dims_rejected(self, field, value):
        # each used to raise a raw TypeError while the weights were drawn
        dims = dict(d0=2, d=3, d_t=4, d_h=2, d_f=3) | {field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            TgatModel.create(Dims(**dims), layer_count=1, head_count=1)

    @pytest.mark.parametrize("field, value, shown", [
        ("t_max", float("nan"), "t_max must be non-negative and finite"),  # NaN frequencies
        ("t_max", float("inf"), "t_max must be non-negative and finite"),
        ("t_max", -1.0, "t_max must be non-negative and finite"),
        ("t_max", "10", "t_max must be a real number"),
        ("max_positions", 2.5, "max_positions must be an integer"),  # a 3-row table
        ("max_positions", 0, "max_positions must be >= 1"),
        ("rng_seed", -1, "rng_seed must be a non-negative integer"),  # numpy's ValueError
        ("rng_seed", None, "rng_seed must be a non-negative integer"),
    ])
    def test_bad_model_settings_rejected(self, field, value, shown):
        with pytest.raises(ValidationError, match=shown):
            TgatModel.create(Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3), layer_count=1, head_count=1,
                             attention_mode="positional", **{field: value})

    def test_feature_widths_must_match_the_graph(self):
        g = tiny_fixture_graph()  # d0 = 3, d_e = 2
        for d0, d_e in ((2, 2), (3, 0), (3, 3)):
            model = TgatModel.create(Dims(d0=d0, d=4, d_t=4, d_h=3, d_f=5, d_e=d_e),
                                     layer_count=1, head_count=1, rng_seed=0)
            with pytest.raises(InferenceError, match=f"model expects {d0} node and {d_e} edge"
                                                     " features, graph has 3 node and 2 edge"):
                embed(model, 5, 7.5, g, MOST_RECENT)

    def test_two_layer_forward_matches_hand_unrolled(self):
        """Independent straight-line reimplementation of the same equations."""
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=5, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=2, rng_seed=42,
                                 t_max=g.t_max)
        t_query = 5.0
        got = embed(model, 3, t_query, g, MOST_RECENT)

        freqs = model.time_encoder.frequencies.data[0]

        def phi(dt):
            out = np.empty(2 * freqs.size)
            out[0::2] = np.cos(freqs * dt)
            out[1::2] = np.sin(freqs * dt)
            return out / np.sqrt(freqs.size)

        def neighborhood(node, t):
            entries = []
            for i, ev in enumerate(g.events):
                if ev.timestamp >= t:
                    continue
                if ev.source == node:
                    entries.append((ev.destination, ev.timestamp))
                elif ev.destination == node:
                    entries.append((ev.source, ev.timestamp))
            return entries  # already time-ordered

        def layer(node, t, level):
            if level == 0:
                return g.node_features[node].copy()
            lp = model.layers[level - 1]
            x0 = g.node_features[node]
            entries = neighborhood(node, t)
            if not entries:
                nbr = np.zeros(2 * dims.d_h)
            else:
                target = layer(node, t, level - 1)
                rows = [np.concatenate([layer(p, ts, level - 1), phi(t - ts)])
                        for p, ts in entries]
                z0 = np.concatenate([target, phi(0.0)])
                heads = []
                for hi in range(2):
                    cols = slice(hi * dims.d_h, (hi + 1) * dims.d_h)  # head hi's columns
                    q = z0 @ lp.w_q.data[:, cols]
                    keys = np.stack(rows) @ lp.w_k.data[:, cols]
                    vals = np.stack(rows) @ lp.w_v.data[:, cols]
                    scores = (keys @ q) / np.sqrt(dims.d_h)
                    e = np.exp(scores - scores.max())
                    alpha = e / e.sum()
                    heads.append(alpha @ vals)
                nbr = np.concatenate(heads)
            pre = np.maximum(np.concatenate([nbr, x0]) @ lp.w0.data + lp.b0.data[0], 0.0)
            return pre @ lp.w1.data + lp.b1.data[0]

        expected = layer(3, t_query, 2)
        np.testing.assert_allclose(got, expected, atol=1e-10)


def samples_by_query(monitor):
    """Event indices read per (node, query time), over all of a monitor's records."""
    out = {}
    for r in monitor.records:
        out.setdefault((r.node, r.query_time), set()).add(r.event_index)
    return out


class TestEmbedProperties:
    def test_fractional_node_rejected(self):
        g = simple_graph()
        model = TgatModel.create(Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3), layer_count=1,
                                 head_count=1, rng_seed=5)
        with pytest.raises(ValidationError, match="1.7"):
            embed(model, 1.7, 5.0, g, MOST_RECENT)
        with pytest.raises(ValidationError):
            embed_tensor(model, [3, 1.7], [4.5, 5.0], g, MOST_RECENT)
        np.testing.assert_array_equal(embed(model, 1.0, 5.0, g, MOST_RECENT),
                                      embed(model, 1, 5.0, g, MOST_RECENT))

    def test_batched_queries_equal_queries_alone(self):
        g = recency_planted_graph(200, 4000, seed=0)
        dims = Dims(d0=g.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5, d_e=0)
        # node 0 at t=1.0 and every node at t=0.001 have no earlier event;
        # node 3 repeats at one time
        nodes = [0, 3, 7, 11, 3, 42, 150, 199, 5]
        times = [1.0, 2.3, 3.6, 0.001, 2.3, 8.8, 20.5, 25.7, 0.001]
        for mode, strategy in itertools.product(
                ("learned", "constant", "positional"),
                ("most-recent", "uniform", "inverse-timespan")):
            sampling = SamplingConfig(max_neighbors=4, strategy=strategy)
            model = TgatModel.create(dims, layer_count=2, head_count=2, attention_mode=mode,
                                     rng_seed=1, t_max=g.t_max)
            with AccessMonitor() as together:
                batched = embed_tensor(model, nodes, times, g, sampling, rng_seed=5).data
            assert batched.shape == (len(nodes), dims.d)
            with AccessMonitor() as one_by_one:
                alone = np.stack([embed(model, v, t, g, sampling, rng_seed=5)
                                  for v, t in zip(nodes, times)])
            assert samples_by_query(together) == samples_by_query(one_by_one)
            np.testing.assert_allclose(batched, alone, rtol=1e-12, atol=1e-12)

    def test_bad_cap_or_seed_rejected(self):
        g = simple_graph()
        model = TgatModel.create(Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3), layer_count=2,
                                 head_count=1, rng_seed=5)
        for cap in (2.5, True):  # rejected where the settings are built, before any embed
            shown = f"^max_neighbors must be an integer, got {cap}$"
            with pytest.raises(ValidationError, match=shown):
                SamplingConfig(max_neighbors=cap, strategy="uniform")
        for seed in (-1, 1.5, True, [True, 2]):  # True used to sample as 1
            with pytest.raises(ValidationError, match="rng_seed"):
                embed(model, 3, 4.5, g, MOST_RECENT, rng_seed=seed)

    def test_no_queries_give_an_empty_result(self):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=1, rng_seed=5)
        assert embed(model, [], [], g, MOST_RECENT).shape == (0, 3)
        assert embed_tensor(model, np.array([], dtype=int), [], g, MOST_RECENT).data.shape == (0, 3)
        with pytest.raises(ValidationError):
            embed(model, [], [1.0], g, MOST_RECENT)

    def test_query_times_checked_once_per_call(self, monkeypatch):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=1, rng_seed=5)
        checks = []
        original = layer_module.check_queries

        def counting(*args):
            checks.append(args)
            return original(*args)

        monkeypatch.setattr(layer_module, "check_queries", counting)
        embed(model, [3, 2], [4.5, 3.5], g, MOST_RECENT)
        assert len(checks) == 1  # not once per hop
        for t in (float("nan"), -1.0, float("inf"), -float("inf")):
            with pytest.raises(ValidationError):
                embed_tensor(model, [3, 2], [4.5, t], g, MOST_RECENT)

    def test_one_sampler_call_per_hop(self, monkeypatch):
        g = recency_planted_graph(200, 4000, seed=0)
        dims = Dims(d0=g.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=1, rng_seed=1, t_max=g.t_max)
        batch_sizes = []

        def counting(graph, nodes, *args):
            batch_sizes.append(len(nodes))
            return hop_neighborhoods(graph, nodes, *args)

        monkeypatch.setattr(layer_module, "hop_neighborhoods", counting)
        embed_tensor(model, [3, 7, 42], [2.3, 3.6, 8.8], g, SamplingConfig(4, "uniform"))
        # the top hop samples the 3 targets, the hop below the targets plus their samples
        assert len(batch_sizes) == 2 and batch_sizes[0] == 3 and batch_sizes[1] > 3

    def test_one_attention_call_per_hop(self, monkeypatch):
        g = recency_planted_graph(200, 4000, seed=0)
        dims = Dims(d0=g.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=2, rng_seed=1, t_max=g.t_max)
        head_counts = []

        def counting(z, w_q, w_k, w_v, h, *args):
            head_counts.append(h)
            return attend_head(z, w_q, w_k, w_v, h, *args)

        monkeypatch.setattr(layer_module, "attend_head", counting)
        embed_tensor(model, [3, 7, 42], [2.3, 3.6, 8.8], g, SamplingConfig(4, "uniform"))
        # one call per hop attends with every head of that hop's layer
        assert head_counts == [2, 2]

    def test_time_encoding_one_call_per_hop_over_every_row(self, monkeypatch):
        g = recency_planted_graph(200, 4000, seed=0)
        dims = Dims(d0=g.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=1, rng_seed=1, t_max=g.t_max)
        encoded = []
        original = TimeEncoder.encode_many

        def counting(self, deltas, out=None):
            encoded.append(len(deltas))
            return original(self, deltas, out)

        monkeypatch.setattr(TimeEncoder, "encode_many", counting)
        hops = []
        # node 0 at t=1.0 has no earlier event
        embed_tensor(model, [0, 3, 7, 42], [1.0, 2.3, 3.6, 8.8], g, SamplingConfig(4, "uniform"),
                     attention=hops)
        # one call per hop, top hop first, as each hop is prepared before the
        # hop below it: a zero timespan per target, then one row per sampled
        # interaction
        assert encoded == [batch.sizes.size + int(batch.sizes.sum())
                           for _, batch, _ in reversed(hops)]

    def test_scalar_and_sequence_shapes(self):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=1, rng_seed=5)
        assert embed_tensor(model, 3, 4.5, g, MOST_RECENT).data.shape == (1, 3)
        assert embed_tensor(model, [3], [4.5], g, MOST_RECENT).data.shape == (1, 3)
        assert embed(model, 3, 4.5, g, MOST_RECENT).shape == (3,)
        assert embed(model, np.array([3, 0]), np.array([4.5, 2.0]), g, MOST_RECENT).shape == (2, 3)
        with pytest.raises(ValidationError):
            embed(model, [3, 0], [4.5], g, MOST_RECENT)

    def test_unseen_node_embeds_via_zero_path(self):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=1, rng_seed=5)
        before_first_event = embed(model, 2, 0.5, g, MOST_RECENT)
        assert np.isfinite(before_first_event).all()

    def test_time_awareness_then_translation_equality(self):
        # same node, two query times, same event set: embeddings differ;
        # shifting all events and the query by a constant: bit-identical
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
        g1 = build_graph([0, 0], [1, 2], [1.0, 2.0], node_features=feats)
        g2 = build_graph([0, 0], [1, 2], [11.0, 12.0], node_features=feats)
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=1, head_count=1, rng_seed=9)
        e_a = embed(model, 0, 5.0, g1, MOST_RECENT)
        e_b = embed(model, 0, 6.0, g1, MOST_RECENT)
        assert not np.allclose(e_a, e_b)  # time blocks change
        e_shifted = embed(model, 0, 15.0, g2, MOST_RECENT)
        np.testing.assert_array_equal(e_a, e_shifted)

    def test_deterministic_given_seed(self):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=2, rng_seed=3)
        cfg = SamplingConfig(max_neighbors=2, strategy="uniform")
        a = embed(model, 3, 4.5, g, cfg, rng_seed=11)
        b = embed(model, 3, 4.5, g, cfg, rng_seed=11)
        np.testing.assert_array_equal(a, b)

    def test_causality_instrumented_multi_hop(self):
        g = tiny_fixture_graph()
        dims = Dims(d0=3, d=4, d_t=4, d_h=3, d_f=5, d_e=2)
        model = TgatModel.create(dims, layer_count=2, head_count=2, rng_seed=0)
        # 7.0 and 8.0 equal event times; those events must stay unread
        with AccessMonitor() as mon:
            for t in (7.5, 7.0, 8.0):
                embed(model, 5, t, g, MOST_RECENT)
        assert len(mon.records) > 0
        assert mon.violations() == []
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                embed(model, 5, t, g, MOST_RECENT)

    def test_full_model_gradients(self):
        g = tiny_fixture_graph()
        dims = Dims(d0=3, d=4, d_t=4, d_h=3, d_f=5, d_e=2)
        model = TgatModel.create(dims, layer_count=2, head_count=1, rng_seed=2,
                                 t_max=g.t_max)
        cfg = SamplingConfig(max_neighbors=3, strategy="most-recent")
        report = ad.grad_check(
            lambda: embed_tensor(model, 5, 7.5, g, cfg),
            model.parameters(), tolerance=1e-4, max_coords_per_param=4)
        assert report.passed, report

    def test_full_model_gradients_without_node_features(self):
        # both layer-0 targets, node 5 at 7.5 and its neighbour 4 at 6, have
        # earlier events: a featureless target with none feeds the layer-0 FFN
        # a zero row, whose pre-activation then sits on the ReLU kink at b0 = 0
        g = tiny_fixture_graph()
        g = build_graph(g.sources, g.destinations, g.timestamps, g.edge_features,
                        node_features=np.zeros((g.num_nodes, 0)))
        dims = Dims(d0=0, d=4, d_t=4, d_h=3, d_f=5, d_e=2)
        model = TgatModel.create(dims, layer_count=2, head_count=2, rng_seed=2,
                                 t_max=g.t_max)
        cfg = SamplingConfig(max_neighbors=3, strategy="most-recent")
        report = ad.grad_check(lambda: embed_tensor(model, 5, 7.5, g, cfg),
                               model.parameters(), tolerance=1e-4)
        assert report.passed, report


class TestEmbedPasses:
    COUNTS = (1, 3, 127, 128, 129, 131, 132, 259, 260, 750, 1280)  # 750: 6 passes, 1280: 10

    def test_passes_cut_at_the_chunk_and_fold_a_short_tail(self):
        assert EMBED_CHUNK == 128
        bounds = {count: [(s.start, s.stop) for s in embed_passes(count)]
                  for count in (0, 1, 3, 128, 129, 131, 132, 259, 260)}
        assert bounds == {0: [], 1: [(0, 1)], 3: [(0, 3)], 128: [(0, 128)],
                          129: [(0, 129)], 131: [(0, 131)], 132: [(0, 128), (128, 132)],
                          259: [(0, 128), (128, 259)],
                          260: [(0, 128), (128, 256), (256, 260)]}
        for count in range(1, 600):  # 0 is no pass, above
            sizes = [s.stop - s.start for s in embed_passes(count)]
            assert sum(sizes) == count and max(sizes) < EMBED_CHUNK + 4
            assert len(sizes) == 1 or min(sizes) >= 4

    @staticmethod
    def model(layer_count: int, graph=None):
        g = graph or recency_planted_graph(200, 4000, seed=0)
        dims = Dims(d0=g.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5, d_e=0)
        return g, TgatModel.create(dims, layer_count=layer_count, head_count=2, rng_seed=1,
                                   t_max=g.t_max)

    @staticmethod
    def queries(g, count: int, seed: int = 2):
        rng = np.random.default_rng([seed, count])
        return rng.integers(0, g.num_nodes, count), rng.uniform(0.0, g.t_max, count)

    @pytest.mark.parametrize("strategy", ["most-recent", "uniform", "inverse-timespan"])
    def test_passes_equal_per_pass_calls_and_one_pass(self, strategy):
        # at L=1 the prefetched top hop is the next pass's only hop
        sampling = SamplingConfig(max_neighbors=4, strategy=strategy)
        key = 5
        g = recency_planted_graph(200, 4000, seed=0)
        for layer_count, count in itertools.product((1, 2), self.COUNTS):
            _, model = self.model(layer_count, g)
            nodes, times = self.queries(g, count)
            out = embed(model, nodes, times, g, sampling, rng_seed=5)
            per_pass = np.concatenate([
                embed_tensor(model, nodes[s], times[s], g, sampling, key).data
                for s in embed_passes(count)])
            assert out.tobytes() == per_pass.tobytes(), (layer_count, count)
            one_pass = embed_tensor(model, nodes, times, g, sampling, rng_seed=5).data
            np.testing.assert_allclose(out, one_pass, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layer_count", [1, 2])
    def test_next_top_hop_prepared_inline_on_one_core(self, layer_count, monkeypatch):
        # one core: no pool, and each pass is computed, then the next pass's
        # top hop prepared, on this thread; two: the two run side by side
        g, model = self.model(layer_count)
        sampling = SamplingConfig(max_neighbors=4, strategy="inverse-timespan")
        runs = {}
        for cores_count in (1, 2):
            monkeypatch.setattr(cores, "_CORES", cores_count)
            runs[cores_count] = [embed(model, *self.queries(g, count), g, sampling, rng_seed=5)
                                 for count in (750, 1280)]
        for one, two in zip(runs[1], runs[2]):
            assert one.shape == two.shape and one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("layer_count", [1, 2])
    def test_monitor_sees_every_prefetched_read(self, layer_count, monkeypatch):
        # the causality proof covers the pool thread: one record per sampled
        # row of every hop of every pass, none at or after its query time
        monkeypatch.setattr(cores, "_CORES", 2)
        g, model = self.model(layer_count)
        sampling = SamplingConfig(max_neighbors=4, strategy="uniform")
        nodes, times = self.queries(g, 750)
        key = 5
        sampled = 0
        for s in embed_passes(nodes.size):
            hops = []
            embed_tensor(model, nodes[s], times[s], g, sampling, key, hops)
            sampled += sum(int(batch.sizes.sum()) for _, batch, _ in hops)
        with AccessMonitor() as mon:
            embed(model, nodes, times, g, sampling, rng_seed=5)
        assert len(mon.records) == sampled > 0
        assert mon.violations() == []

    def test_a_failed_pass_raises_after_the_prefetch_ends(self, monkeypatch):
        # pass 2's attention fails once the prefetch of pass 3's top hop has
        # started; embed raises that failure, and only once the prefetch,
        # which takes 0.2 s longer, has ended
        monkeypatch.setattr(cores, "_CORES", 2)
        g, model = self.model(1)
        nodes, times = self.queries(g, 3 * EMBED_CHUNK)
        prepare, attend = layer_module._prepare_hop, layer_module.attend_head
        third, ended, attended = threading.Event(), [], []

        def slow_prepare(*args):
            if len(ended) == 2:  # pass 3's top hop; prepares never overlap
                third.set()
                time.sleep(0.2)
            ended.append(prepare(*args))
            return ended[-1]

        def failing_attend(*args):
            attended.append(1)
            if len(attended) == 2:
                assert third.wait(60)
                raise RuntimeError("pass 2 failed")
            return attend(*args)

        monkeypatch.setattr(layer_module, "_prepare_hop", slow_prepare)
        monkeypatch.setattr(layer_module, "attend_head", failing_attend)
        with pytest.raises(RuntimeError, match="pass 2 failed"):
            embed(model, nodes, times, g, SamplingConfig(4, "uniform"))
        # the first pass's top hop, prepared before the loop, then pass 2's
        # and pass 3's, each beside the pass before it
        assert len(attended) == 2 and len(ended) == 3

    @pytest.mark.parametrize("layer_count", [1, 2])
    def test_no_queries_prepare_nothing(self, layer_count, monkeypatch):
        g, model = self.model(layer_count)
        monkeypatch.setattr(layer_module, "_prepare_hop", None)  # a call would raise
        assert embed(model, [], [], g, MOST_RECENT).shape == (0, 6)

    def test_misaligned_queries_rejected_whole(self):
        g = simple_graph()
        model = TgatModel.create(Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3), layer_count=1,
                                 head_count=1, rng_seed=5)
        # the shapes of the call, not of a pass; aligned 2-D queries are not 1-D
        for nodes, times, shown in (([3] * 300, [4.5], "(300,) and (1,)"),
                                    (np.full((200, 2), 3), np.full((200, 2), 4.5),
                                     "(200, 2) and (200, 2)")):
            with pytest.raises(ValidationError, match="must be 1-D and of equal length, "
                                                      "got shapes " + re.escape(shown)):
                embed(model, nodes, times, g, MOST_RECENT)

    @pytest.mark.parametrize("nodes, times, shown", [
        (0, [4.5], "() and (1,)"), ([3], 4.5, "(1,) and ()")])
    def test_a_node_with_a_list_of_times_is_no_query(self, nodes, times, shown):
        # node 0 with [4.5] returned a (d,) row and node [3] with 4.5 a (1, d) one
        g = simple_graph()
        model = TgatModel.create(Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3), layer_count=1,
                                 head_count=1, rng_seed=5)
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"nodes and times must be 1-D and of equal length, got shapes {shown}")):
            embed(model, nodes, times, g, MOST_RECENT)

    def test_generator_seed_drawn_once_per_call(self):
        g = recency_planted_graph(200, 4000, seed=0)
        dims = Dims(d0=g.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5, d_e=0)
        model = TgatModel.create(dims, layer_count=1, head_count=1, rng_seed=1, t_max=g.t_max)
        sampling = SamplingConfig(max_neighbors=4, strategy="uniform")
        nodes = np.arange(300) % g.num_nodes
        times = np.linspace(1.0, g.t_max, 300)
        # the twin gives the same rows; the probe, one draw per call, counts
        # the draws, which an embed that drew once per pass would pass twin
        # but not probe
        rng, twin, probe = (np.random.default_rng(9) for _ in range(3))
        for count in (1, 300):  # one pass, then three
            out = embed(model, nodes[:count], times[:count], g, sampling, rng_seed=rng)
            np.testing.assert_array_equal(
                out, embed(model, nodes[:count], times[:count], g, sampling, rng_seed=twin))
            probe.integers(0, 2**64, dtype=np.uint64)
            assert rng.bit_generator.state == probe.bit_generator.state, count

    @pytest.mark.parametrize("entry", [embed, embed_tensor])
    def test_generator_drawn_only_after_the_checks(self, entry):
        # a call its checks reject takes no draw; one that passes them takes
        # one, whether it holds no query or one
        g, model = self.model(1)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        with pytest.raises(ValidationError):
            entry(model, [g.num_nodes], [1.0], g, MOST_RECENT, rng_seed=rng)
        assert rng.bit_generator.state == twin.bit_generator.state
        for nodes, times in (([], []), ([3], [2.5])):
            entry(model, nodes, times, g, MOST_RECENT, rng_seed=rng)
            twin.integers(0, 2**64, dtype=np.uint64)
            assert rng.bit_generator.state == twin.bit_generator.state, len(nodes)

    def test_one_query_returns_an_array_of_its_own(self):
        # not a view that keeps the pass's (1, d) array alive
        g, model = self.model(2)
        sampling = SamplingConfig(max_neighbors=4, strategy="inverse-timespan")
        row = embed(model, 42, 8.8, g, sampling, rng_seed=5)
        assert row.base is None and row.shape == (6,)
        assert row.tobytes() == embed(model, [42], [8.8], g, sampling, rng_seed=5)[0].tobytes()

    def test_memory_held_by_one_pass(self):
        g = recency_planted_graph(200, 4000, seed=0)
        dims = Dims(d0=g.node_feature_dim, d=16, d_t=8, d_h=8, d_f=16, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=2, rng_seed=1, t_max=g.t_max)
        sampling = SamplingConfig(max_neighbors=10, strategy="inverse-timespan")
        rng = np.random.default_rng(3)
        nodes = rng.integers(0, g.num_nodes, 4 * EMBED_CHUNK)
        times = rng.uniform(0.5 * g.t_max, g.t_max, nodes.size)  # full neighborhoods

        def peak(count: int) -> int:
            tracemalloc.start()
            try:
                embed(model, nodes[:count], times[:count], g, sampling)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(EMBED_CHUNK), peak(4 * EMBED_CHUNK)
        assert four <= 1.5 * one, (one, four)


class TestPositionalMode:
    def test_positional_model_runs_and_differs(self):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        pos_model = TgatModel.create(dims, layer_count=1, head_count=1,
                                     attention_mode="positional", rng_seed=0)
        out = embed(pos_model, 3, 4.5, g, MOST_RECENT)
        assert np.isfinite(out).all()

    def test_positional_insensitive_to_time_stretch(self):
        # ranks are unchanged when all timespans stretch, so the embedding is too
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
        g1 = build_graph([0, 0], [1, 2], [1.0, 2.0], node_features=feats)
        g2 = build_graph([0, 0], [1, 2], [10.0, 20.0], node_features=feats)
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=1, head_count=1,
                                 attention_mode="positional", rng_seed=0)
        np.testing.assert_array_equal(embed(model, 0, 5.0, g1, MOST_RECENT),
                                      embed(model, 0, 50.0, g2, MOST_RECENT))

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    def test_positional_encoder_outside_positional_mode_rejected(self, mode):
        # such a model used to build, and its checkpoint failed to load with a
        # raw AttributeError
        model = TgatModel.create(Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0), layer_count=1,
                                 head_count=1, attention_mode=mode, rng_seed=0)
        with pytest.raises(ValidationError, match="no other mode takes one"):
            TgatModel(model.layers, model.time_encoder, model.dims, mode,
                      time_encoding.PositionalEncoder.fixed_sinusoidal(8, 4))

    def test_cap_must_fit_the_table(self):
        # a 3-row table used to cut a cap of 5 to 2 without a word: node 2 of
        # the tiny graph at t = 9 was embedded from 2 of its 4 neighbours
        g = tiny_fixture_graph()
        dims = Dims(d0=g.node_feature_dim, d=3, d_t=4, d_h=2, d_f=3, d_e=g.edge_feature_dim)
        model = TgatModel.create(dims, layer_count=1, head_count=1,
                                 attention_mode="positional", max_positions=3)
        with pytest.raises(ValidationError, match="^max_neighbors 5 needs a positional table "
                                                  "of at least 6 rows, the model's has 3$"):
            embed_tensor(model, 2, 9.0, g, SamplingConfig(5, "most-recent"))
        hops = []
        embed_tensor(model, 2, 9.0, g, SamplingConfig(2, "most-recent"), attention=hops)
        assert hops[0][1].sizes.tolist() == [2]

    def test_learnable_positional_mode(self):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=1, head_count=1,
                                 attention_mode="positional",
                                 positional_learnable=True, rng_seed=0)
        assert model.positional_encoder.table in model.parameters()


# (attention mode, learnable positional table)
MODES = [("learned", False), ("constant", False), ("positional", False), ("positional", True)]
MODE_IDS = ["learned", "constant", "positional", "positional_learnable"]


class TestCheckpoint:
    def _model(self, mode="learned", learnable_pos=False):
        dims = Dims(d0=3, d=4, d_t=4, d_h=3, d_f=5, d_e=2)
        return TgatModel.create(dims, layer_count=2, head_count=2,
                                attention_mode=mode, rng_seed=7,
                                positional_learnable=learnable_pos)

    def test_roundtrip_bit_exact(self, tmp_path):
        g = tiny_fixture_graph()
        model = self._model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, extra={"note": 1})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(
            embed(model, 0, 5.0, g, MOST_RECENT),
            embed(loaded, 0, 5.0, g, MOST_RECENT))

    @pytest.mark.parametrize("mode, learnable_pos", MODES, ids=MODE_IDS)
    def test_parameters_follow_the_checkpoint_table(self, mode, learnable_pos):
        # Adam's flat layout and grad_check's coordinate draws follow this order
        model = self._model(mode, learnable_pos)
        first_name = {}
        for name, (tensor, _) in _named_params(model).items():
            first_name.setdefault(id(tensor), name)
        expected = ["time_encoder.frequencies"] + ["positional.table"] * learnable_pos + [
            f"layers.{l}.{part}" for l in range(2)
            for part in ("heads.0.w_q", "heads.0.w_k", "heads.0.w_v",
                         "ffn.w0", "ffn.b0", "ffn.w1", "ffn.b1")]
        assert [first_name[id(p)] for p in model.parameters()] == expected

    @pytest.mark.parametrize("mode, learnable_pos", MODES, ids=MODE_IDS)
    def test_every_mode_roundtrips_bit_exact(self, tmp_path, mode, learnable_pos):
        model = self._model(mode, learnable_pos)
        save_checkpoint(model, tmp_path / "ckpt.json")
        loaded, _ = load_checkpoint(tmp_path / "ckpt.json")
        params, again = model.parameters(), loaded.parameters()
        assert len(params) == len(again)
        for a, b in zip(params, again):
            assert a.data.shape == b.data.shape and a.data.tobytes() == b.data.tobytes()

    def test_failed_save_keeps_the_file(self, tmp_path):
        # the file used to be opened before the payload was encoded, so an
        # np.int64 in extra cut a good checkpoint short with a raw TypeError
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._model(), path, extra={"epoch": 3})
        before = path.read_bytes()
        with pytest.raises(ValidationError, match="^extra must hold only values JSON can "
                                                  "encode \\(Object of type int64 is not "):
            save_checkpoint(self._model(), path, extra={"epoch": np.int64(3)})
        assert path.read_bytes() == before
        assert load_checkpoint(path)[1] == {"epoch": 3}

    def test_resave_identical_bytes(self, tmp_path):
        model = self._model()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, p1)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_positional_modes_roundtrip(self, tmp_path):
        for learnable in (False, True):
            model = self._model("positional", learnable)
            path = tmp_path / f"p{learnable}.json"
            save_checkpoint(model, path)
            loaded, _ = load_checkpoint(path)
            np.testing.assert_array_equal(model.positional_encoder.table.data,
                                          loaded.positional_encoder.table.data)

    def test_non_finite_fixed_positional_table_rejected(self, tmp_path):
        # a NaN rank row used to load, and the ReLU turned the embeddings into zeros
        path = tmp_path / "p.json"
        save_checkpoint(self._model("positional"), path)
        payload = json.loads(path.read_text())
        payload["positional"]["table"][0][0] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="positional table holds a non-finite value"):
            load_checkpoint(path)

    # a positional block in another mode raised a raw AttributeError; positional
    # mode without one loaded a default 64-row table
    @pytest.mark.parametrize("saved, mode, shown", [
        ("positional", "learned", "attention_mode 'learned' takes no positional block"),
        ("learned", "positional", "attention_mode 'positional' needs a positional block")],
        ids=["block_outside_positional", "positional_without_block"])
    def test_positional_block_disagreeing_with_mode_rejected(self, tmp_path, saved, mode, shown):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._model(saved), path)
        payload = json.loads(path.read_text())
        payload["attention_mode"] = mode
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=re.escape(f"ckpt.json: {shown}")):
            load_checkpoint(path)

    def test_malformed_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "tgat-checkpoint", "version": 1}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("content", [b"{not json", '{"format": "caf\u00e9"}'.encode("latin-1"),
                                         b"[1, 2]", b"42"])
    def test_undecodable_checkpoint_rejected(self, tmp_path, content):
        # each raised JSONDecodeError, UnicodeDecodeError or AttributeError
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(CheckpointError, match="bad.json"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [[], "note", 3])
    def test_extra_not_a_table_rejected(self, tmp_path, extra):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._model(), path)
        payload = json.loads(path.read_text())
        payload["extra"] = extra
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="ckpt.json: extra is not a key-value table"):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @staticmethod
    def _golden_model():
        """The model of ``golden_checkpoint.json``: L=2, H=2, d_e=2 and a
        learnable positional table."""
        dims = Dims(d0=3, d=4, d_t=4, d_h=3, d_f=5, d_e=2)
        return TgatModel.create(dims, layer_count=2, head_count=2, attention_mode="positional",
                                rng_seed=7, positional_learnable=True, max_positions=6)

    def test_golden_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._golden_model(), path, extra={"note": 1})
        assert path.read_bytes() == GOLDEN_CHECKPOINT.read_bytes()

    def test_golden_checkpoint_load_then_save(self, tmp_path):
        model, extra = load_checkpoint(GOLDEN_CHECKPOINT)
        for a, b in zip(model.parameters(), self._golden_model().parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        save_checkpoint(model, tmp_path / "again.json", extra)
        assert (tmp_path / "again.json").read_bytes() == GOLDEN_CHECKPOINT.read_bytes()

    def test_unallocatable_dims_rejected(self, tmp_path):
        # a (5, 10**13) weight matrix is 364 TiB, past the 47-bit address
        # space: the request fails at once, and used to escape as a MemoryError
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._model(), path)
        payload = json.loads(path.read_text())
        payload["dims"]["d"] = 10**13
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="ckpt.json: malformed checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, reshape, shown", [
        ("layers.0.ffn.w0", np.transpose, "(5, 9), expected (9, 5)"),
        ("time_encoder.frequencies", np.ravel, "(2,), expected (1, 2)"),
        ("layers.1.heads.0.w_k", lambda a: a[:, :2], "(10, 2), expected (10, 3)")],
        ids=["transposed", "flattened", "narrowed"])
    def test_misshapen_parameter_rejected(self, tmp_path, name, reshape, shown):
        # a transposed or flattened array used to reshape into scrambled weights
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._model(), path)
        payload = json.loads(path.read_text())
        payload["params"][name] = reshape(np.array(payload["params"][name])).tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError,
                           match=re.escape(f"ckpt.json: parameter {name} has shape {shown}")):
            load_checkpoint(path)

    def test_misshapen_fixed_positional_table_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        save_checkpoint(self._model("positional"), path)
        payload = json.loads(path.read_text())
        payload["positional"]["table"] = payload["positional"]["table"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=re.escape("positional table has shape (63, 4)")):
            load_checkpoint(path)

    @pytest.mark.parametrize("stray", ["layers.0.heads.7.w_q", "layers.3.ffn.w0"])
    def test_unknown_parameter_rejected(self, tmp_path, stray):
        # a head or a layer the model does not have used to load, ignored
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._model(), path)
        payload = json.loads(path.read_text())
        payload["params"][stray] = [[0.0]]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=re.escape(f"unknown parameters {stray}")):
            load_checkpoint(path)
