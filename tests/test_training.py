"""Training pipeline tests: loss oracles, Adam behavior, the training loop
(early stopping, determinism, split hygiene), evaluation, downstream
classification, and the attention report."""

import re
from dataclasses import FrozenInstanceError, fields, replace
from typing import get_type_hints

import numpy as np
import pytest

import tgat.training as training
from tgat import autodiff as ad
from tgat.errors import ContractError, EvaluationError, TrainingError, ValidationError
from tgat.layer import (
    Dims,
    SamplingConfig,
    TgatModel,
    embed,
    embed_tensor,
    load_checkpoint,
    save_checkpoint,
)
from tgat.synthetic import recency_planted_graph, tiny_fixture_graph
from tgat.temporal_graph import (
    AccessMonitor,
    build_graph,
    chronological_split,
    evaluation_event_indices,
    sample_neighborhoods,
)
from tgat.training import (
    AdamState,
    EvalMetrics,
    MlpConfig,
    TrainConfig,
    adam_step,
    attention_report,
    evaluate_links,
    link_loss,
    node_classify,
    train,
    write_history_csv,
)

SAMPLING = SamplingConfig(max_neighbors=4, strategy="most-recent")


def small_model(graph, layers=1, heads=1, seed=0):
    dims = Dims(d0=graph.node_feature_dim, d=4, d_t=4, d_h=3, d_f=5,
                d_e=graph.edge_feature_dim)
    return TgatModel.create(dims, layer_count=layers, head_count=heads, rng_seed=seed,
                            t_max=max(graph.t_max, 1.0))


class TestLinkLoss:
    def test_zero_model_gives_one_plus_q_log_two(self):
        g = tiny_fixture_graph()
        model = small_model(g)
        layer = model.layers[0]
        for p in (layer.w_q, layer.w_k, layer.w_v, layer.w0, layer.b0, layer.w1, layer.b1):
            p.data = np.zeros_like(p.data)
        for q in (1, 3):
            loss = link_loss(model, g, [4, 5], SAMPLING, negatives_per_positive=q,
                             rng_seed=0)
            np.testing.assert_allclose(loss.data[0, 0], 2 * (1 + q) * np.log(2),
                                       atol=1e-12)

    def test_hand_set_inner_products(self, monkeypatch):
        # pos pair scores +3, negative pair scores -3:
        # loss = -log sigmoid(3) - log sigmoid(3)
        g = build_graph([0], [1], [1.0], num_nodes=3)
        model = small_model(g)
        root3 = np.sqrt(3.0)
        vectors = {0: [root3, 0.0], 1: [root3, 0.0], 2: [-root3, 0.0]}

        monkeypatch.setattr(
            training, "embed_tensor",
            lambda m, nodes, times, graph, sampling, rng, collector=None:
                ad.constant(np.array([vectors[v] for v in nodes])))
        drawn = []

        def node_two(rng, n, forbidden):
            drawn.append(forbidden.tolist())
            return np.full(forbidden.size, 2)

        monkeypatch.setattr(training, "_draw_negatives", node_two)
        loss = link_loss(model, g, [0], SAMPLING, 1, rng_seed=0)
        expected = 2 * np.log(1 + np.exp(-3.0))
        np.testing.assert_allclose(loss.data[0, 0], expected, atol=1e-12)
        assert drawn == [[1]]  # the patch applied: one negative, against destination 1

    def test_loss_nonnegative(self):
        g = tiny_fixture_graph()
        model = small_model(g, layers=2, heads=2, seed=3)
        loss = link_loss(model, g, [3, 4, 5], SAMPLING, 2, rng_seed=9)
        assert loss.data[0, 0] >= 0.0

    def test_empty_batch_rejected(self):
        g = tiny_fixture_graph()
        with pytest.raises(ContractError):
            link_loss(small_model(g), g, [], SAMPLING, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True, [True, 2]])
    def test_bad_seed_rejected(self, seed):
        g = tiny_fixture_graph()
        with pytest.raises(ValidationError, match="rng_seed"):
            link_loss(small_model(g), g, [4, 5], SAMPLING, 1, rng_seed=seed)

    @pytest.mark.parametrize("index, shown", [(-1, "-1"), (3.7, "3.7"), (10**6, "1000000")])
    def test_bad_event_index_rejected(self, index, shown):
        # -1 used to train on the last event, 3.7 on event 3
        g = tiny_fixture_graph()
        with pytest.raises(ValidationError, match=f"event index {shown} "):
            link_loss(small_model(g), g, [4, index], SAMPLING, 1)

    @pytest.mark.parametrize("q, match", [(0, "negatives_per_positive must be >= 1, got 0"),
                                          (-2, ">= 1"),
                                          (2.5, "must be an integer, got 2.5"),
                                          (True, "must be an integer, got True")])
    def test_bad_negatives_per_positive_rejected(self, q, match):
        # 0 used to return a positives-only loss
        g = tiny_fixture_graph()
        with pytest.raises(ValidationError, match=match):
            link_loss(small_model(g), g, [4, 5], SAMPLING, q)

    @pytest.mark.parametrize("mode, learnable, nodes", [
        ("learned", False, 10), ("constant", False, 10),
        ("positional", False, 7), ("positional", True, 8)])
    def test_tape_nodes_per_mode(self, mode, learnable, nodes):
        # two layers: per hop the time block (learned modes), the entity
        # matrix, attention and the FFN, then the pair scores and the loss;
        # a positional table records nothing of its own, and the inner
        # entity matrix of a fixed table reads no parameter
        g = tiny_fixture_graph()
        dims = Dims(d0=g.node_feature_dim, d=4, d_t=4, d_h=3, d_f=5, d_e=g.edge_feature_dim)
        model = TgatModel.create(dims, layer_count=2, head_count=1, attention_mode=mode,
                                 positional_learnable=learnable, max_positions=8)
        with ad.Tape() as tape:
            link_loss(model, g, [4, 5], SAMPLING)
        assert len(tape) == nodes

    def test_generator_draws_the_negatives_then_the_key(self):
        # the order the benchmark's Generator-seeded call relies on, rebuilt
        # from a twin Generator: loss and gradients byte for byte, one end state
        g = tiny_fixture_graph()
        model = small_model(g, layers=2, heads=2, seed=3)
        sampling = SamplingConfig(max_neighbors=1, strategy="uniform")
        events, q = np.array([3, 4, 5, 6]), 2
        src, dst, ts = g.sources[events], g.destinations[events], g.timestamps[events]
        # some query draws its sample, so the loss depends on the key
        candidates = sample_neighborhoods(g, np.concatenate([src, dst]),
                                          np.concatenate([ts, ts]), g.num_events).sizes
        assert candidates.max() > sampling.max_neighbors

        def by_hand(twin):
            neg = training._draw_negatives(twin, g.num_nodes, np.repeat(dst, q))
            # embed_tensor takes the key, the twin's next draw
            h = embed_tensor(model, np.concatenate([src, dst, neg]),
                             np.concatenate([ts, ts, np.repeat(ts, q)]), g, sampling, twin)
            p = events.size
            scores = ad.pair_scores(h, np.concatenate([np.arange(p), np.repeat(np.arange(p), q)]),
                                    np.arange(p, h.data.shape[0]))
            return ad.logistic_loss(scores, np.repeat([1.0, -1.0], [p, p * q])[:, None])

        def loss_and_grads(build, rng):
            ad.zero_grads(model.parameters())
            with ad.Tape() as tape:
                loss = build(rng)
            ad.backward(tape, loss)
            return [loss.data.tobytes()] + [None if p.grad is None else p.grad.tobytes()
                                            for p in model.parameters()]

        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        ours = loss_and_grads(lambda r: link_loss(model, g, events, sampling, q, r), rng)
        assert ours == loss_and_grads(by_hand, twin)
        assert sum(grad is not None for grad in ours[1:]) > 1
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_a_numpy_uint64_seed_is_its_int(self):
        # uniform at cap 1 draws the samples, so the seed keys them as well as
        # drawing the negatives
        g = tiny_fixture_graph()
        model = small_model(g, layers=2, heads=2, seed=3)
        sampling = SamplingConfig(max_neighbors=1, strategy="uniform")
        loss = [link_loss(model, g, [3, 4, 5, 6], sampling, 2, rng_seed=seed).data.tobytes()
                for seed in (np.uint64(9), 9)]
        assert loss[0] == loss[1]

    def test_negative_never_equals_destination(self, monkeypatch):
        g = tiny_fixture_graph()
        model = small_model(g)
        drawn = []
        original = training._draw_negatives

        def spy(rng, n, forbidden):
            v = original(rng, n, forbidden)
            drawn.extend(zip(v.tolist(), forbidden.tolist()))
            return v

        monkeypatch.setattr(training, "_draw_negatives", spy)
        link_loss(model, g, list(range(g.num_events)), SAMPLING, 3, rng_seed=5)
        assert drawn and all(v != forbidden for v, forbidden in drawn)


class TestAdam:
    def test_zero_gradient_fresh_state_no_move(self):
        p = ad.parameter(np.array([[1.0, -2.0]]))
        state = AdamState.create([p])
        p.grad = np.zeros((1, 2))
        adam_step([p], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])

    def test_first_step_magnitude_is_lr(self):
        p = ad.parameter(np.array([[5.0]]))
        state = AdamState.create([p])
        p.grad = np.array([[0.73]])
        adam_step([p], state, lr=0.01)
        np.testing.assert_allclose(abs(5.0 - p.data[0, 0]), 0.01, rtol=1e-6)

    def test_quadratic_convergence(self):
        # 200 steps on f(w) = (w - 3)^2 from w = 0 with lr 0.1
        w = ad.parameter(np.array([[0.0]]))
        state = AdamState.create([w])
        for _ in range(200):
            w.grad = 2.0 * (w.data - 3.0)
            adam_step([w], state, lr=0.1)
        assert abs(w.data[0, 0] - 3.0) < 0.1

    def test_returns_the_flat_vector_behind_every_parameter(self):
        p, q = ad.parameter(np.ones((2, 3))), ad.parameter(np.zeros((1, 2)))
        p.grad = np.ones((2, 3))
        flat = adam_step([p, q], AdamState.create([p, q]), lr=0.1)
        assert flat.shape == (8,)
        assert np.shares_memory(flat, p.data) and np.shares_memory(flat, q.data)
        np.testing.assert_array_equal(flat, np.concatenate([p.data.ravel(), q.data.ravel()]))

    def test_none_gradient_treated_as_zero(self):
        p = ad.parameter(np.array([[4.0]]))
        state = AdamState.create([p])
        adam_step([p], state, lr=0.5)
        np.testing.assert_array_equal(p.data, [[4.0]])

    def test_shape_mismatch_rejected(self):
        p = ad.parameter(np.ones((2, 2)))
        state = AdamState.create([p])
        p.grad = np.ones((3, 1))
        with pytest.raises(ContractError):
            adam_step([p], state, lr=0.1)

    def test_state_for_other_parameters_rejected(self):
        p, q = ad.parameter(np.ones((2, 2))), ad.parameter(np.ones((1, 3)))
        with pytest.raises(ContractError, match="optimizer state holds 4 entries, "
                                                "the parameters 7"):
            adam_step([p, q], AdamState.create([p]), lr=0.1)

    def test_matches_per_parameter_loop_bit_for_bit(self):
        def reference_step(params, grads, m, v, t, lr):
            """The per-parameter update: list moments, one parameter at a time."""
            b1, b2 = training.ADAM_BETAS
            for i, (p, g) in enumerate(zip(params, grads)):
                if g is None:
                    g = np.zeros_like(p.data)
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat = m[i] / (1 - b1 ** t)
                v_hat = v[i] / (1 - b2 ** t)
                p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)

        rng = np.random.default_rng(12)
        shapes = [(3, 4), (1, 5), (7, 1), (2, 2), (1, 1), (4, 6)]
        ours = [ad.parameter(rng.standard_normal(s)) for s in shapes]
        theirs = [ad.parameter(p.data.copy()) for p in ours]
        state = AdamState.create(ours)
        m = [np.zeros_like(p.data) for p in theirs]
        v = [np.zeros_like(p.data) for p in theirs]
        for t in range(1, 61):
            # gradients over many magnitudes; the fourth parameter gets None
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-8, 4) for s in shapes]
            grads[3] = None
            for p, grad in zip(ours, grads):
                p.grad = grad
            adam_step(ours, state, lr=0.003)
            reference_step(theirs, grads, m, v, t, lr=0.003)
            for a, b in zip(ours, theirs):
                assert a.data.shape == b.data.shape
                assert a.data.tobytes() == b.data.tobytes()
        assert state.step == 60
        assert state.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
        assert state.v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()


def training_fixture():
    g = recency_planted_graph(n_nodes=60, n_events=900, n_types=3,
                              memory_window=400.0, seed=4)
    split = chronological_split(g, 0.70, 0.15)
    cfg = TrainConfig(
        learning_rate=0.01, layers=1, heads=1, neighborhood_dropout=0.0,
        batch_size=20, max_epochs=2, patience=5, attention_mode="learned",
        sampling_strategy="most-recent", rng_seed=1, d=6, d_t=4, d_h=4, d_f=8,
        max_neighbors=5, max_train_events_per_epoch=150, max_val_events=60,
        unseen_fraction=0.0,
    )
    return g, split, cfg


# per annotation, a value of another type and one that every rule for it
# rejects; a bool field has no rule
WRONG_TYPE = {int: 2.5, float: "0.5", bool: "yes", str: 1}
OUT_OF_RANGE = {int: [-1], float: [float("nan")], str: ["bogus"], bool: []}


@pytest.mark.parametrize("config", [TrainConfig(), MlpConfig(),
                                    Dims(d0=2, d=3, d_t=4, d_h=2, d_f=3), SamplingConfig()],
                         ids=["TrainConfig", "MlpConfig", "Dims", "SamplingConfig"])
def test_every_config_field_is_checked(config):
    # a field added with a type the checker does not know, a number or string
    # field added without a rule, or a settings class that is not frozen or
    # not checked when built, fails here
    first = fields(config)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(config, first, getattr(config, first))
    types = get_type_hints(type(config))
    for f in fields(config):
        kind = types[f.name]
        for value in [WRONG_TYPE[kind]] + OUT_OF_RANGE[kind]:
            with pytest.raises(ValidationError, match=f"^{f.name} must be"):
                replace(config, **{f.name: value})


# the training module's own checks, which no other call reaches
@pytest.mark.parametrize("call, error, shown", [
    (lambda g, split, cfg: evaluate_links(training.build_model(g, cfg), g, split,
                                          node_filter="all"),
     ValidationError, "node filter must be 'observed' or 'unseen', got 'all'"),
    # every training event touches a withheld node
    (lambda g, split, cfg: train(g, replace(split, unseen_nodes=frozenset(range(g.num_nodes))),
                                 cfg),
     ContractError, "training period contains no usable events")],
    ids=["evaluate_links-node_filter", "train-no-usable-events"])
def test_training_checks(call, error, shown):
    g, split, cfg = training_fixture()
    with pytest.raises(error, match=f"^{re.escape(shown)}$"):
        call(g, split, cfg)


class TestTrainLoop:
    @pytest.mark.parametrize("field, value", [
        ("rng_seed", -1), ("learning_rate", 0.0), ("learning_rate", -0.01),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("max_train_events_per_epoch", -5), ("max_val_events", -5),
        ("max_neighbors", 0), ("unseen_fraction", -0.5), ("unseen_fraction", 1.0),
        ("max_neighbors", 2.5), ("batch_size", 2.5), ("layers", 1.5), ("heads", True),
        ("rng_seed", 1.0), ("max_epochs", "3"), ("d", np.float64(8.0)),
        # each used to pass or to raise a raw TypeError
        ("learning_rate", "0.1"), ("neighborhood_dropout", "x"), ("attention_mode", "bogus"),
        ("d_t", 3), ("d", 0), ("positional_learnable", "yes"),
        ("train_frac", 0.9)])  # with val_frac 0.15, no test period is left
    def test_config_value_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})

    def test_zero_epochs_returns_initial_model(self):
        g, split, cfg = training_fixture()
        cfg = replace(cfg, max_epochs=0)
        model, history = train(g, split, cfg)
        reference = training.build_model(g, cfg)
        assert history == []
        for a, b in zip(model.parameters(), reference.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_empty_validation_keeps_the_final_epoch(self, monkeypatch):
        # train's documented fallback: with no validation event every epoch
        # records NaN metrics, and the last Adam step's parameters come back
        g, split, cfg = training_fixture()
        steps, adam_step = [], training.adam_step

        def recorded_step(*args):
            steps.append(adam_step(*args))
            return steps[-1]

        monkeypatch.setattr(training, "adam_step", recorded_step)
        model, history = train(g, replace(split, val_end=split.train_end), cfg)
        assert [r.epoch for r in history] == [1, 2]
        assert all(np.isnan([r.val_ap, r.val_acc]).all() for r in history)
        flat = np.concatenate([p.data.ravel() for p in model.parameters()])
        assert len(steps) == 16 and flat.tobytes() == steps[-1].tobytes()

    def test_patience_one_with_decreasing_val_stops_after_two_epochs(self, monkeypatch):
        g, split, cfg = training_fixture()
        cfg = replace(cfg, max_epochs=10, patience=1)
        scripted = iter([0.9, 0.8, 0.7, 0.6, 0.5])

        def fake_eval(model, graph, split, **kwargs):
            return EvalMetrics(accuracy=0.5, average_precision=next(scripted),
                               auc=None, split_tag="transductive")

        monkeypatch.setattr(training, "evaluate_links", fake_eval)
        _, history = train(g, split, cfg)
        assert len(history) == 2

    def test_early_stop_restores_best_epoch_parameters(self, monkeypatch):
        g, split, cfg = training_fixture()
        cfg = replace(cfg, max_epochs=6, patience=2)
        scripted = [0.5, 0.9, 0.4, 0.3, 0.2, 0.1]
        snapshots = []
        calls = {"n": 0}

        def fake_eval(model, graph, split, **kwargs):
            snapshots.append([p.data.copy() for p in model.parameters()])
            ap = scripted[calls["n"]]
            calls["n"] += 1
            return EvalMetrics(accuracy=0.5, average_precision=ap, auc=None,
                               split_tag="transductive")

        monkeypatch.setattr(training, "evaluate_links", fake_eval)
        model, history = train(g, split, cfg)
        assert len(history) == 4  # stops after two non-improving epochs
        best = snapshots[1]  # epoch 2 had the best scripted AP
        for p, expected in zip(model.parameters(), best):
            np.testing.assert_array_equal(p.data, expected)

    def test_bit_identical_reruns(self):
        g, split, cfg = training_fixture()
        m1, h1 = train(g, split, cfg)
        m2, h2 = train(g, split, cfg)
        assert [ (r.epoch, r.train_loss, r.val_ap, r.val_acc) for r in h1 ] == \
               [ (r.epoch, r.train_loss, r.val_ap, r.val_acc) for r in h2 ]
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_returned_parameters_hold_no_gradient(self, monkeypatch):
        # the last batch's gradients are cleared on return, and nothing else
        # changes: a run that keeps them has the same history and bytes
        g, split, cfg = training_fixture()
        model, history = train(g, split, cfg)
        assert all(p.grad is None for p in model.parameters())
        # one clear per batch of two 150-event epochs, then the one on return
        batches, calls, original = 2 * -(-150 // cfg.batch_size), [], ad.zero_grads

        def keep_last(params):
            calls.append(len(params))
            if len(calls) <= batches:
                original(params)

        monkeypatch.setattr(ad, "zero_grads", keep_last)
        kept, kept_history = train(g, split, cfg)
        assert len(calls) == batches + 1
        assert all(p.grad is not None for p in kept.parameters())
        assert kept_history == history
        for a, b in zip(model.parameters(), kept.parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("mode", ["learned", "constant", "positional"])
    def test_zero_width_node_features(self, tmp_path, mode):
        # a graph stored with no node features: Dims used to need d0 >= 1
        g, split, cfg = training_fixture()
        g = build_graph(g.sources, g.destinations, g.timestamps, g.edge_features,
                        node_features=np.zeros((g.num_nodes, 0)))
        cfg = replace(cfg, layers=2, attention_mode=mode)
        model, history = train(g, split, cfg)
        assert model.dims.d0 == 0 and len(history) == cfg.max_epochs
        assert 0.0 <= evaluate_links(model, g, split, config=cfg,
                                     max_events=40).average_precision <= 1.0
        save_checkpoint(model, tmp_path / "ckpt.json")
        loaded, _ = load_checkpoint(tmp_path / "ckpt.json")
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        nodes, times = [0, 5, 59], [g.t_max, 300.0, 0.0]
        np.testing.assert_array_equal(embed(model, nodes, times, g, cfg.sampling(), rng_seed=2),
                                      embed(loaded, nodes, times, g, cfg.sampling(), rng_seed=2))

    def test_loss_decreases_over_first_five_epochs(self):
        # full training set each epoch keeps the epoch-mean comparable
        g = recency_planted_graph(n_nodes=60, n_events=600, n_types=3,
                                  memory_window=400.0, seed=2)
        split = chronological_split(g, 0.70, 0.15)
        cfg = TrainConfig(
            learning_rate=0.01, layers=1, heads=1, neighborhood_dropout=0.0,
            batch_size=20, max_epochs=5, patience=5, sampling_strategy="most-recent",
            rng_seed=2, d=8, d_t=8, d_h=6, d_f=12, max_neighbors=8,
            max_train_events_per_epoch=0, max_val_events=40, unseen_fraction=0.0)
        _, history = train(g, split, cfg)
        losses = [h.train_loss for h in history]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_no_eval_period_event_read_during_training_passes(self, monkeypatch):
        g, split, cfg = training_fixture()
        records = []
        original = training.link_loss

        def spy(*args, **kwargs):
            with AccessMonitor() as mon:
                out = original(*args, **kwargs)
            records.extend(mon.records)
            return out

        monkeypatch.setattr(training, "link_loss", spy)
        train(g, split, cfg)
        assert records
        assert all(r.event_timestamp < r.query_time for r in records)
        assert all(r.event_timestamp <= split.train_end for r in records)

    def test_non_finite_loss_stops_training(self, monkeypatch):
        g, split, cfg = training_fixture()
        original = training.link_loss
        calls = {"n": 0}

        def nan_on_third_batch(*args, **kwargs):
            loss = original(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 3:
                return ad.constant(np.array([[np.nan]]))
            return loss

        monkeypatch.setattr(training, "link_loss", nan_on_third_batch)
        with pytest.raises(TrainingError, match="epoch 1, batch starting at 40"):
            train(g, split, cfg)

    def test_non_finite_parameter_stops_training(self, monkeypatch):
        g, split, cfg = training_fixture()
        original = training.adam_step

        def poisoned_step(params, state, lr):
            flat = original(params, state, lr)
            flat[0] = np.inf  # the first parameter's first entry: p.data is a view
            return flat

        monkeypatch.setattr(training, "adam_step", poisoned_step)
        with pytest.raises(TrainingError, match="epoch 1, batch starting at 0"):
            train(g, split, cfg)

    def test_history_csv_roundtrip(self, tmp_path):
        g, split, cfg = training_fixture()
        _, history = train(g, split, cfg)
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_ap,val_acc"
        assert len(lines) == len(history) + 1
        first = lines[1].split(",")
        assert float(first[1]) == history[0].train_loss


class TestEvaluateLinks:
    def test_perfect_separation(self, monkeypatch):
        # nodes 0 and 1 share an embedding cluster; everything else opposes it
        g = build_graph([0, 0, 0, 0, 0], [1, 1, 1, 1, 1],
                        [1.0, 2.0, 3.0, 4.0, 5.0], num_nodes=6)
        split = chronological_split(g, 0.4, 0.2)
        model = small_model(g)

        calls = []

        def fake_embed(model, nodes, times, graph, sampling, rng_seed=0):
            calls.append(nodes)
            return np.where(np.isin(nodes, [0, 1]), 2.0, -2.0)[:, None]

        monkeypatch.setattr(training, "embed", fake_embed)
        res = evaluate_links(model, g, split, period="test", node_filter="observed",
                             rng_seed=0)
        assert len(calls) == 1 and calls[0].size == 3 * 2  # 2 test events: src, dst, negative
        assert res.average_precision == 1.0
        assert res.accuracy == 1.0
        assert res.auc == 1.0
        assert res.split_tag == "transductive"

    def test_event_index_list_accepted(self):
        g, split, cfg = training_fixture()
        model = training.build_model(g, cfg)
        idx = evaluation_event_indices(g, split, "test", "transductive")[:6]
        from_list = evaluate_links(model, g, split, config=cfg, event_indices=idx.tolist())
        from_array = evaluate_links(model, g, split, config=cfg, event_indices=idx)
        assert from_list == from_array

    def test_batches_give_the_same_scores(self):
        # batch_size only sets how many events share a forward pass, with
        # drawn samples as with the most-recent ones
        g, split, cfg = training_fixture()
        model = training.build_model(g, cfg)
        idx = evaluation_event_indices(g, split, "test", "transductive")[:30]
        for strategy in ("most-recent", "uniform"):
            cfg = replace(cfg, sampling_strategy=strategy,
                          max_neighbors=5 if strategy == "most-recent" else 2)
            results = []
            for batch_size in (1, 7, 64):
                results.append(evaluate_links(model, g, split, config=replace(
                    cfg, batch_size=batch_size), event_indices=idx))
            for r in results[1:]:
                assert r.average_precision == pytest.approx(results[0].average_precision,
                                                            abs=1e-12)
                assert r.accuracy == results[0].accuracy

    def test_empty_period_rejected(self):
        g = build_graph([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        split = chronological_split(g, 0.4, 0.3)
        model = small_model(g)
        from tgat.temporal_graph import SplitSpec
        empty = SplitSpec(train_end=10.0, val_end=10.0)
        with pytest.raises(EvaluationError):
            evaluate_links(model, g, empty, period="test")

    def test_negative_max_events_rejected(self):
        # a negative cap used to mean "no cap", like 0
        g, split, cfg = training_fixture()
        model = training.build_model(g, cfg)
        with pytest.raises(ValidationError, match="max_events"):
            evaluate_links(model, g, split, config=cfg, max_events=-5)

    @pytest.mark.parametrize("max_events", [2.5, True, "10"])
    def test_fractional_max_events_rejected(self, max_events):
        g, split, cfg = training_fixture()
        model = training.build_model(g, cfg)
        with pytest.raises(ValidationError, match="max_events must be an integer"):
            evaluate_links(model, g, split, config=cfg, max_events=max_events)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True, [True, 2]])
    def test_bad_seed_rejected(self, seed):
        g, split, cfg = training_fixture()
        model = training.build_model(g, cfg)
        for events in (None, [0, 1]):  # given events leave the seed to the scoring call
            with pytest.raises(ValidationError, match="rng_seed"):
                evaluate_links(model, g, split, config=cfg, rng_seed=seed, event_indices=events)

    def test_a_numpy_uint64_seed_is_its_int(self):
        g, split, cfg = training_fixture()
        cfg = replace(cfg, sampling_strategy="uniform", max_neighbors=2)
        model = training.build_model(g, cfg)
        got = [evaluate_links(model, g, split, config=cfg, rng_seed=seed, max_events=40)
               for seed in (np.uint64(2), 2)]
        assert got[0] == got[1]

    def test_bad_config_rejected(self):
        # batch_size 0 used to reach the chunking and fail inside numpy
        g, split, cfg = training_fixture()
        model = training.build_model(g, cfg)
        with pytest.raises(ValidationError, match="batch_size"):
            evaluate_links(model, g, split, config=TrainConfig(batch_size=0))

    @pytest.mark.parametrize("index, shown", [(-1, "-1"), (3.7, "3.7"), (10**6, "1000000")])
    def test_bad_event_index_rejected(self, index, shown):
        # -1 used to evaluate the last event, 3.7 event 3
        g, split, cfg = training_fixture()
        model = training.build_model(g, cfg)
        with pytest.raises(ValidationError, match=f"event index {shown} "):
            evaluate_links(model, g, split, config=cfg, event_indices=[800, index])

    def test_inductive_tag(self, monkeypatch):
        g = build_graph([0, 1, 0, 2], [1, 2, 3, 3], [1.0, 2.0, 5.0, 6.0])
        from tgat.temporal_graph import SplitSpec
        split = SplitSpec(train_end=2.0, val_end=3.0, unseen_nodes=frozenset({3}))
        model = small_model(g)
        res = evaluate_links(model, g, split, period="test", node_filter="unseen",
                             rng_seed=1)
        assert res.split_tag == "inductive"


class TestNodeClassify:
    def _labeled_graph(self):
        rng = np.random.default_rng(6)
        n_nodes, n_events = 40, 400
        feats = 0.1 * rng.standard_normal((n_nodes, 8))
        feats[: n_nodes // 2, 0] += 1.0
        feats[n_nodes // 2 :, 1] += 1.0
        src = rng.integers(0, n_nodes, n_events)
        dst = (src + 1 + rng.integers(0, n_nodes - 1, n_events)) % n_nodes
        ts = np.sort(rng.uniform(0, 100, n_events))
        labels = (src < n_nodes // 2).astype(int)
        return build_graph(src, dst, ts, labels=labels, node_features=feats)

    def test_separable_labels_reach_high_auc(self, monkeypatch):
        g = self._labeled_graph()
        split = chronological_split(g, 0.70, 0.15)
        model = small_model(g)
        # embeddings = raw features makes the task exactly separable
        monkeypatch.setattr(
            training, "embed",
            lambda model, nodes, times, graph, sampling, rng_seed=0: graph.node_features[nodes])
        res = node_classify(model, g, split, MlpConfig(epochs=120, rng_seed=0),
                            rng_seed=0)
        assert res.auc == 1.0
        assert res.average_precision == 1.0

    def test_batches_give_the_same_result(self):
        g = self._labeled_graph()
        split = chronological_split(g, 0.70, 0.15)
        model = small_model(g, layers=2, heads=1, seed=4)
        results = [node_classify(model, g, split, MlpConfig(epochs=20),
                                 TrainConfig(batch_size=batch_size, max_neighbors=3,
                                             sampling_strategy="uniform"), rng_seed=3)
                   for batch_size in (5, 64)]
        assert results[1].auc == pytest.approx(results[0].auc, abs=1e-12)
        assert results[1].accuracy == results[0].accuracy

    def test_label_other_than_zero_and_one_rejected(self):
        # a training-period label of 2 used to be trained on as a negative
        g = build_graph([0, 1, 2, 0, 1, 2], [1, 2, 0, 2, 0, 1], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                        labels=[0, 2, 1, 0, 1, 0])
        split = chronological_split(g, 0.5, 0.25)
        with pytest.raises(EvaluationError, match="0 or 1, got 2"):
            node_classify(small_model(g), g, split)

    @pytest.mark.parametrize("field, value, shown", [
        ("epochs", 2.5, "epochs must be an integer"),  # used to raise a TypeError
        ("epochs", -3, "epochs must be >= 0"),  # used to train nothing
        ("batch_size", 0, "batch_size must be >= 1"),  # used to train on 1 + 1 rows
        ("learning_rate", -1.0, "learning_rate"),  # used to ascend the loss
        ("learning_rate", np.inf, "learning_rate"),
        ("l2", -0.1, "l2"),
        ("l2", np.nan, "l2"),
        ("l2", None, "l2 must be a real number"),  # used to raise a raw TypeError
        ("rng_seed", -1, "rng_seed"),  # used to fail inside numpy
    ])
    def test_bad_mlp_config_rejected(self, field, value, shown):
        g = self._labeled_graph()
        split = chronological_split(g, 0.70, 0.15)
        with pytest.raises(ValidationError, match=shown):
            node_classify(small_model(g), g, split, MlpConfig(**{field: value}))

    def test_bad_config_rejected(self):
        g = self._labeled_graph()
        split = chronological_split(g, 0.70, 0.15)
        with pytest.raises(ValidationError, match="batch_size"):
            node_classify(small_model(g), g, split, config=TrainConfig(batch_size=0))

    def test_single_class_split_rejected(self):
        g = build_graph([0, 1, 2, 0], [1, 2, 0, 2], [1.0, 2.0, 3.0, 4.0],
                        labels=[1, 1, 1, 1])
        split = chronological_split(g, 0.5, 0.25)
        with pytest.raises(EvaluationError):
            node_classify(small_model(g), g, split)


class TestAttentionReport:
    def test_constant_mode_weights_uniform(self):
        g = tiny_fixture_graph()
        dims = Dims(d0=3, d=4, d_t=4, d_h=3, d_f=5, d_e=2)
        model = TgatModel.create(dims, layer_count=1, head_count=2,
                                 attention_mode="constant", rng_seed=0)
        hops = []
        # node 0 has no event before 0.5: its row of weights is all zero
        embed_tensor(model, [2, 0], [8.5, 0.5], g, SAMPLING, 0, hops)
        (_, batch, weights), = hops
        assert batch.query_times.tolist() == [8.5, 0.5] and batch.sizes[1] == 0
        uniform = batch.mask / np.maximum(batch.sizes, 1)[:, None]
        np.testing.assert_allclose(weights, np.broadcast_to(uniform, weights.shape), atol=1e-12)

    def test_report_schema(self):
        g = tiny_fixture_graph()
        model = small_model(g, layers=1, heads=2, seed=8)
        cfg = TrainConfig(max_neighbors=4, sampling_strategy="most-recent")
        rows = attention_report(model, g, [5, 6], target_time_offsets=(0.0, 1.0),
                                config=cfg, rng_seed=0)
        assert rows
        for r in rows:
            assert r.timespan > 0
            assert 0.0 <= r.attention_weight <= 1.0
            assert r.occurrence_count >= 1
            assert r.target_time_offset in (0.0, 1.0)

    @pytest.mark.parametrize("index, shown", [(-1, "-1"), (3.7, "3.7"), (10**6, "1000000")])
    def test_bad_event_index_rejected(self, index, shown):
        g = tiny_fixture_graph()
        with pytest.raises(ValidationError, match=f"event index {shown} "):
            attention_report(small_model(g), g, [5, index], config=TrainConfig(max_neighbors=4))

    def test_bad_config_rejected(self):
        g = tiny_fixture_graph()
        with pytest.raises(ValidationError, match="batch_size"):
            attention_report(small_model(g), g, [5], config=TrainConfig(batch_size=0))

    @pytest.mark.parametrize("events", [[2], []])
    def test_bad_seed_rejected(self, events):
        g = tiny_fixture_graph()
        with pytest.raises(ValidationError, match="rng_seed"):
            attention_report(small_model(g), g, events, rng_seed=-1)

    def test_batches_give_the_same_rows(self):
        g = recency_planted_graph(n_nodes=40, n_events=600, seed=2)
        model = small_model(g, layers=2, heads=2, seed=5)
        reports = [attention_report(model, g, range(500, 540),
                                    config=TrainConfig(batch_size=batch_size, max_neighbors=3,
                                                       sampling_strategy="inverse-timespan"),
                                    rng_seed=1)
                   for batch_size in (3, 64)]
        key = [(r.timespan, r.occurrence_count) for r in reports[0]]
        assert key == [(r.timespan, r.occurrence_count) for r in reports[1]]
        np.testing.assert_allclose([r.attention_weight for r in reports[1]],
                                   [r.attention_weight for r in reports[0]], atol=1e-12)

    def test_recurring_neighbor_counted(self):
        g = build_graph([0, 0, 0], [1, 1, 2], [1.0, 2.0, 3.0],
                        node_features=np.eye(3))
        model = small_model(g, layers=1, heads=1, seed=2)
        cfg = TrainConfig(max_neighbors=5, sampling_strategy="most-recent")
        rows = attention_report(model, g, [2], config=cfg, rng_seed=0)
        counts = {r.occurrence_count for r in rows}
        assert 2 in counts  # peer 1 occurs twice in node 0's neighborhood

    def test_trained_on_recency_prefers_recent_neighbor(self):
        # train on recency-planted data, then probe a node with one very
        # recent and one long-stale interaction: the recent one gets more weight
        g = recency_planted_graph(n_nodes=120, n_events=3000, n_types=3,
                                  memory_window=400.0, seed=1)
        split = chronological_split(g, 0.70, 0.15)
        cfg = TrainConfig(
            learning_rate=0.01, layers=1, heads=2, neighborhood_dropout=0.0,
            batch_size=25, max_epochs=8, patience=8, attention_mode="learned",
            sampling_strategy="most-recent", rng_seed=0, d=12, d_t=16, d_h=8,
            d_f=12, max_neighbors=10, max_train_events_per_epoch=600,
            max_val_events=100, unseen_fraction=0.0)
        model, _ = train(g, split, cfg)

        feats = np.zeros((3, 3))
        feats[:, 0] = 1.0
        probe = build_graph([0, 0], [1, 2], [1.0, 100.9], node_features=feats)
        hops = []
        embed_tensor(model, 0, 101.0, probe, cfg.sampling(), 0, hops)
        (_, batch, head_weights), = hops
        spans = np.repeat(batch.query_times, batch.sizes) - batch.times
        weights = head_weights.mean(axis=0)[batch.mask]
        recent = int(np.argmin(spans))
        stale = int(np.argmax(spans))
        assert weights[recent] > weights[stale]
