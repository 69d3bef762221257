"""TGAT layer tests: entity-temporal matrix assembly, per-head attention,
multi-hop forward passes against an independent straight-line reimplementation,
batched against one-at-a-time queries, parameter accounting, and
checkpointing."""

import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from tgat import autodiff as ad
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
    embed,
    embed_tensor,
    head_parameter_formula,
    load_checkpoint,
    save_checkpoint,
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


def weighted_sum(a: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    """sum(a * weights) as one test-local operator, bit-equal to the
    elementwise product with a constant followed by ``sum_all``."""
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


def entity_matrix(g, nodes, times, enc, **kwargs):
    batch = sample_neighborhoods(g, nodes, times, 5)
    return batch, build_entity_matrix(raw_hidden(g, batch, nodes), batch, enc, **kwargs)


def block(z, batch, i):
    """Target i's N + 1 rows of an entity matrix: its target row, then its
    N neighbor rows from the block of all neighbor rows."""
    b, n = batch.mask.shape
    return np.vstack([z[i], z[b + i * n : b + (i + 1) * n]])


class TestBuildEntityMatrix:
    def test_shape_without_edge_features(self):
        g = simple_graph()
        enc = TimeEncoder.create(6)
        _, z = entity_matrix(g, [0], [2.0], enc)  # one event before t=2
        assert z.data.shape == (2, 2 + 6)

    def test_target_time_block_is_phi_zero(self):
        g = simple_graph()
        enc = TimeEncoder.create(4)
        _, z = entity_matrix(g, [0], [2.0], enc)
        np.testing.assert_array_equal(z.data[0, 2:], enc.encode_values([0.0])[0])

    def test_neighbor_time_blocks_cross_checked(self):
        # neighbors at t in {1, 2, 4}, query at 5 -> offsets 4, 3, 1
        g = build_graph([0, 0, 0], [1, 2, 3], [1.0, 2.0, 4.0],
                        node_features=np.eye(4))
        enc = TimeEncoder.create(8, t_max=5.0)
        _, z = entity_matrix(g, [0], [5.0], enc)
        for row, offset in zip(range(1, 4), [4.0, 3.0, 1.0]):
            np.testing.assert_array_equal(z.data[row, 4:], enc.encode_values([offset])[0])

    def test_edge_block_zero_padded_on_target(self):
        g = tiny_fixture_graph()  # d_e = 2
        enc = TimeEncoder.create(4)
        _, z = entity_matrix(g, [0], [5.0], enc)
        np.testing.assert_array_equal(z.data[0, 3:5], [0.0, 0.0])
        np.testing.assert_array_equal(z.data[1, 3:5], g.events[0].edge_features)

    def test_blocks_padded_to_the_largest_sample(self):
        g = tiny_fixture_graph()
        enc = TimeEncoder.create(4)
        # node 0 has 1 neighbor before t=2, node 2 has 3 before t=8
        batch, z = entity_matrix(g, [0, 2], [2.0, 8.0], enc)
        assert batch.sizes.tolist() == [1, 3]
        assert z.data.shape == (2 * 4, 3 + 2 + 4)
        for i, (target, t) in enumerate([(0, 2.0), (2, 8.0)]):
            rows = block(z.data, batch, i)
            size = batch.sizes[i]
            _, alone = entity_matrix(g, [target], [t], enc)
            np.testing.assert_array_equal(rows[: size + 1], alone.data)
            assert (rows[size + 1 :] == 0.0).all()

    def test_positional_ranks_per_block(self):
        g = tiny_fixture_graph()
        pos = PositionalEncoder.fixed_sinusoidal(8, 4)
        batch, z = entity_matrix(g, [0, 2], [2.0, 8.0], TimeEncoder.create(4), positional=pos)
        # target rank n, neighbor ranks 0..n-1 oldest first
        np.testing.assert_array_equal(block(z.data, batch, 0)[:2, 5:], pos.table.data[[1, 0]])
        np.testing.assert_array_equal(block(z.data, batch, 1)[:, 5:], pos.table.data[[3, 0, 1, 2]])

    def test_hidden_row_count_checked(self):
        g = simple_graph()
        enc = TimeEncoder.create(4)
        batch = sample_neighborhoods(g, [0], [2.0], 5)
        with pytest.raises(ContractError):
            build_entity_matrix(ad.constant(np.zeros((3, 2))), batch, enc)
        with pytest.raises(ContractError):
            build_entity_matrix(ad.constant(np.zeros((0, 2))),
                                sample_neighborhoods(g, [], [], 5), enc)

    @pytest.mark.parametrize("positional", [False, True])
    def test_padded_slots_are_exactly_zero(self, positional):
        g = tiny_fixture_graph()
        pos = PositionalEncoder.fixed_sinusoidal(8, 4) if positional else None
        batch, z = entity_matrix(g, [0, 2, 5, 3], [0.5, 8.0, 7.5, 6.0], TimeEncoder.create(4),
                                 positional=pos)
        assert batch.sizes.tolist() == [0, 3, 1, 2]
        slots = z.data[4:].reshape(4, 3, -1)
        assert (slots[~batch.mask] == 0.0).all() and not np.signbit(slots[~batch.mask]).any()
        assert (slots[batch.mask] != 0.0).any(axis=1).all()
        # an empty sample alone still gets one slot: N is at least 1
        empty, alone = entity_matrix(g, [0], [0.5], TimeEncoder.create(4), positional=pos)
        assert empty.sizes.tolist() == [0] and alone.data.shape == (2, 3 + 2 + 4)
        np.testing.assert_array_equal(alone.data[0, :5], [*g.node_features[0], 0.0, 0.0])
        assert (alone.data[1] == 0.0).all()

    def test_only_target_rows_hold_phi_zero(self):
        # target rows take phi(0) with the bits that encoding a zero timespan
        # gives, whatever the frequencies' signs; neighbor slots hold the
        # encodings of their timespans, and padded slots hold zeros
        g = tiny_fixture_graph()
        enc = TimeEncoder(np.random.default_rng(0).normal(0.0, 2.0, size=3))
        batch, z = entity_matrix(g, [0, 2, 5, 3], [0.5, 8.0, 7.5, 6.0], enc)
        assert batch.sizes.tolist() == [0, 3, 1, 2]
        t0 = 3 + 2
        phi_zero = enc.encode_many(np.zeros(4)).data
        assert z.data[:4, t0:].tobytes() == phi_zero.tobytes()
        real = 4 + np.flatnonzero(batch.mask)
        spans = np.repeat(batch.query_times, batch.sizes) - batch.times
        assert z.data[real, t0:].tobytes() == enc.encode_many(spans).data.tobytes()
        padded = 4 + np.flatnonzero(~batch.mask)
        assert (z.data[padded, t0:] == 0.0).all()


class TestAttendHead:
    def _params(self, rng, d_in, d_h):
        return ([ad.parameter(rng.standard_normal((d_in, d_h)))],
                [ad.parameter(rng.standard_normal((d_in, d_h)))],
                [ad.parameter(rng.standard_normal((d_in, d_h)))])

    def test_constant_mode_is_exact_mean(self):
        rng = np.random.default_rng(0)
        w_q, w_k, w_v = self._params(rng, 4, 3)
        z = ad.constant(rng.standard_normal((6, 4)))
        h, alpha = attend_head(z, w_q, w_k, w_v, "constant", np.ones((1, 5), bool))
        values = z.data[1:] @ w_v[0].data
        np.testing.assert_allclose(h.data[0], values.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(alpha[0], 0.2)

    def test_single_neighbor_softmax_is_one(self):
        rng = np.random.default_rng(1)
        w_q, w_k, w_v = self._params(rng, 4, 3)
        z = ad.constant(rng.standard_normal((2, 4)))
        _, alpha = attend_head(z, w_q, w_k, w_v, "learned", np.ones((1, 1), bool))
        np.testing.assert_array_equal(alpha[0], [[1.0]])

    def test_identical_neighbors_split_evenly(self):
        rng = np.random.default_rng(2)
        w_q, w_k, w_v = self._params(rng, 4, 3)
        row = rng.standard_normal(4)
        z = ad.constant(np.vstack([rng.standard_normal(4), row, row]))
        _, alpha = attend_head(z, w_q, w_k, w_v, "learned", np.ones((1, 2), bool))
        np.testing.assert_allclose(alpha[0], 0.5, atol=1e-12)

    def test_weights_normalized(self):
        rng = np.random.default_rng(3)
        w_q, w_k, w_v = self._params(rng, 5, 4)
        for _ in range(25):
            z = ad.constant(rng.standard_normal((int(rng.integers(2, 9)), 5)) * 3)
            mask = np.ones((1, z.data.shape[0] - 1), bool)
            _, alpha = attend_head(z, w_q, w_k, w_v, "learned", mask)
            assert (alpha[0] >= 0).all()
            np.testing.assert_allclose(alpha[0].sum(), 1.0, atol=1e-9)

    def test_masked_blocks_match_blocks_alone(self):
        rng = np.random.default_rng(5)
        w_q, w_k, w_v = self._params(rng, 4, 3)
        sizes = [3, 1, 0, 2]  # the size-0 block is an empty neighborhood
        blocks = [rng.standard_normal((n + 1, 4)) for n in sizes]
        # the target rows, then each block's neighbor rows padded to N = 3
        z = np.vstack([b[:1] for b in blocks]
                      + [np.vstack([b[1:]] + [b[:1]] * (3 - n)) for b, n in zip(blocks, sizes)])
        mask = np.arange(3) < np.array(sizes)[:, None]
        for mode in ("learned", "constant"):
            h, alpha = attend_head(ad.constant(z), w_q, w_k, w_v, mode, mask)
            alpha = alpha[0]
            assert h.data.shape == (4, 3) and alpha.shape == (4, 3)
            assert np.isfinite(h.data).all() and np.isfinite(alpha).all()
            np.testing.assert_array_equal(alpha[~mask], 0.0)
            np.testing.assert_array_equal(h.data[2], 0.0)
            for i, block in enumerate(blocks):
                if sizes[i] == 0:
                    continue
                h1, alpha1 = attend_head(ad.constant(block), w_q, w_k, w_v, mode,
                                         np.ones((1, sizes[i]), bool))
                np.testing.assert_allclose(h.data[i], h1.data[0], rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(alpha[i, : sizes[i]], alpha1[0][0],
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_heads_equal_one_head_calls_bit_for_bit(self, mode, heads):
        # N and d_h of 8 or more, where numpy's pairwise sums and the BLAS
        # kernels split a reduction differently by its length; a one-ulp
        # change shows in some draws only, hence ten of them
        sizes, n, d_in, d_h = [9, 0, 1, 4, 9], 9, 5, 8  # block 1 is all masked
        mask = np.arange(n) < np.array(sizes)[:, None]

        def run(z_data, w_data, g_out, picked):
            z = ad.parameter(z_data)
            w = [[ad.parameter(m[i]) for i in picked] for m in w_data]
            cols = np.concatenate([np.arange(i * d_h, (i + 1) * d_h) for i in picked])
            with ad.Tape() as tape:
                out, alpha = attend_head(z, *w, mode, mask)
                loss = weighted_sum(out, g_out[:, cols])
            ad.backward(tape, loss)
            return out.data, alpha, z.grad, [[t.grad for t in ws] for ws in w]

        for seed in range(10):
            rng = np.random.default_rng(seed)
            args = (rng.standard_normal((len(sizes) * (n + 1), d_in)),
                    rng.standard_normal((3, heads, d_in, d_h)),
                    rng.standard_normal((len(sizes), heads * d_h)))
            out, alpha, z_grad, w_grads = run(*args, range(heads))
            alone = [run(*args, [i]) for i in range(heads)]
            for i, (out_i, alpha_i, _, w_grads_i) in enumerate(alone):
                assert np.array_equal(out[:, i * d_h:(i + 1) * d_h], out_i)
                assert np.array_equal(alpha[i], alpha_i[0])
                for k, (grads, grads_i) in enumerate(zip(w_grads, w_grads_i)):
                    if mode == "constant" and k < 2:  # w_q and w_k take no part
                        assert grads[i] is None and grads_i[0] is None
                    else:
                        assert np.array_equal(grads[i], grads_i[0])
            expected = alone[-1][2]  # summed from the last head to the first
            for _, _, z_grad_i, _ in reversed(alone[:-1]):
                expected = expected + z_grad_i
            assert np.array_equal(z_grad, expected)

    def _hop_gradients(self, mode):
        """Two heads over one hop whose blocks have 0, 2, 1 and 2 of N = 2
        neighbors, differentiated into a parameter ``hidden``."""
        g = simple_graph()
        batch = sample_neighborhoods(g, [0, 3, 1, 2], [0.5, 4.5, 1.5, 4.5], 5)
        rng = np.random.default_rng(6)
        hidden = ad.parameter(rng.standard_normal((4 + batch.sizes.sum(), 3)))
        w = [[ad.parameter(rng.standard_normal((3 + 4, 2))) for _ in range(2)] for _ in range(3)]
        with ad.Tape() as tape:
            z = build_entity_matrix(hidden, batch, TimeEncoder.create(4))
            out, _ = attend_head(z, *w, mode, batch.mask)
            loss = weighted_sum(out, rng.standard_normal(out.data.shape))
        ad.backward(tape, loss)
        return batch, hidden, z

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    def test_padded_rows_get_exactly_zero_gradient(self, mode):
        batch, _, z = self._hop_gradients(mode)
        assert batch.sizes.tolist() == [0, 2, 1, 2]
        rows = z.grad[4:].reshape(4, 2, -1)
        assert (rows[~batch.mask] == 0.0).all()
        assert (rows[batch.mask] != 0.0).all()

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    def test_hidden_gradient_equals_scatter_add(self, mode):
        # the entity matrix writes each z row's gradient to its source row;
        # that equals scatter-adding every row, padded slots charged to their
        # target, since a padded slot's gradient is zero
        batch, hidden, z = self._hop_gradients(mode)
        neighbor_source = np.repeat(np.arange(4)[:, None], 2, axis=1)
        neighbor_source[batch.mask] = 4 + np.arange(batch.sizes.sum())
        source = np.concatenate([np.arange(4), neighbor_source.ravel()])
        expected = np.zeros_like(hidden.data)
        np.add.at(expected, source, z.grad[:, : hidden.data.shape[1]])
        np.testing.assert_array_equal(hidden.grad, expected)

    @pytest.mark.parametrize("mode", ["learned", "constant"])
    def test_stack_and_sqrt_forms_give_the_same_bytes(self, mode, monkeypatch):
        # attend_head stacks the head weights with np.array and both it and
        # TimeEncoder.scale take math.sqrt of an int; the np.stack and np.sqrt
        # forms give the same bytes in every output and gradient
        g = simple_graph()
        batch = sample_neighborhoods(g, [0, 3, 1, 2], [0.5, 4.5, 1.5, 4.5], 5)

        def hop(d_h, k):
            rng = np.random.default_rng([d_h, k])
            hidden = ad.parameter(rng.standard_normal((4 + batch.sizes.sum(), 3)))
            enc = TimeEncoder(rng.uniform(0.1, 2.0, size=k))
            w = [[ad.parameter(rng.standard_normal((3 + 2 * k, d_h))) for _ in range(3)]
                 for _ in range(3)]
            with ad.Tape() as tape:
                out, alpha = attend_head(build_entity_matrix(hidden, batch, enc), *w, mode,
                                         batch.mask)
                loss = weighted_sum(out, rng.standard_normal(out.data.shape))
            ad.backward(tape, loss)
            grads = [p.grad for p in [hidden, *enc.parameters(), *w[0], *w[1], *w[2]]]
            return [out.data, alpha] + [x for x in grads if x is not None]

        shapes = [(1, 1), (2, 3), (3, 5), (5, 6), (8, 12)]
        now = [hop(d_h, k) for d_h, k in shapes]

        class StackingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def array(self, arrays):
                return np.stack(arrays)

        monkeypatch.setattr(layer_module, "np", StackingNumpy())
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
            attend_head(ad.constant(rng.standard_normal((1, 4))), w_q, w_k, w_v, "learned",
                        np.ones((1, 0), bool))


class TestParameterAccounting:
    @pytest.mark.parametrize("seed", range(5))
    def test_head_count_matches_formula(self, seed):
        rng = np.random.default_rng(seed)
        dims = Dims(d0=int(rng.integers(1, 30)), d=int(rng.integers(1, 30)),
                    d_t=2 * int(rng.integers(1, 15)), d_h=int(rng.integers(1, 30)),
                    d_f=int(rng.integers(1, 30)), d_e=0)
        layer = LayerParams.create(dims, head_count=1, input_dim=dims.d, rng=rng)
        assert layer.head_param_count() == head_parameter_formula(dims)


class TestLayerForward:
    def test_zero_weights_give_zero_output(self):
        g = build_graph([0, 1], [1, 2], [1.0, 2.0], node_features=np.zeros((3, 2)))
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=1, head_count=1, rng_seed=0)
        for p in model.layers[0].parameters():
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
                    q = z0 @ lp.w_q[hi].data
                    keys = np.stack(rows) @ lp.w_k[hi].data
                    vals = np.stack(rows) @ lp.w_v[hi].data
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
        for cap in (2.5, True):
            with pytest.raises(ValidationError, match="max_size must be an integer"):
                embed(model, 3, 4.5, g, SamplingConfig(max_neighbors=cap, strategy="uniform"))
        for seed in (-1, 1.5):
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

        def counting(z, w_q, *args):
            head_counts.append(len(w_q))
            return attend_head(z, w_q, *args)

        monkeypatch.setattr(layer_module, "attend_head", counting)
        embed_tensor(model, [3, 7, 42], [2.3, 3.6, 8.8], g, SamplingConfig(4, "uniform"))
        # one call per hop attends with every head of that hop's layer
        assert head_counts == [2, 2]

    def test_time_encoding_only_for_sampled_interactions(self, monkeypatch):
        g = recency_planted_graph(200, 4000, seed=0)
        dims = Dims(d0=g.node_feature_dim, d=6, d_t=4, d_h=3, d_f=5, d_e=0)
        model = TgatModel.create(dims, layer_count=2, head_count=1, rng_seed=1, t_max=g.t_max)
        encoded = []
        original = TimeEncoder.encode_many

        def counting(self, deltas):
            encoded.append(len(deltas))
            return original(self, deltas)

        monkeypatch.setattr(TimeEncoder, "encode_many", counting)
        hops = []
        # node 0 at t=1.0 has no earlier event
        embed_tensor(model, [0, 3, 7, 42], [1.0, 2.3, 3.6, 8.8], g, SamplingConfig(4, "uniform"),
                     attention=hops)
        # one call per hop, bottom hop first, with one row per sampled interaction
        assert encoded == [int(batch.sizes.sum()) for _, batch, _ in hops]

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
            model.parameters(), tolerance=1e-4, rng_seed=0, max_coords_per_param=4)
        assert report.passed, report


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

    def test_learnable_positional_mode(self):
        g = simple_graph()
        dims = Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3, d_e=0)
        model = TgatModel.create(dims, layer_count=1, head_count=1,
                                 attention_mode="positional",
                                 positional_learnable=True, rng_seed=0)
        assert model.positional_encoder.table in model.parameters()


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
