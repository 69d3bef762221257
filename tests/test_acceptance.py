"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The directional experiment (criteria 6 and 7) trains nine
desk-scale models and dominates the runtime at a few minutes on a laptop CPU.
"""

import itertools
import time

import numpy as np
import pytest

from tgat import autodiff as ad
from tgat.cli import main
from tgat.layer import (
    Dims,
    LayerParams,
    SamplingConfig,
    TgatModel,
    attend_head,
    embed,
    head_parameter_formula,
)
from tgat.metrics import average_precision, roc_auc, spearman
from tgat.synthetic import (
    random_temporal_graph,
    recency_planted_graph,
    tiny_fixture_graph,
)
from tgat.temporal_graph import (
    AccessMonitor,
    chronological_split,
    evaluation_event_indices,
)
from tgat.time_encoding import kernel_convergence_check
from tgat.training import (
    TrainConfig,
    attention_report,
    evaluate_links,
    link_loss,
    train,
)


def report(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# criterion 1: kernel convergence
# ---------------------------------------------------------------------------


def test_criterion_1_kernel_convergence():
    """Frequencies i.i.d. standard normal, t_max=10, 100x100 grid: mean
    sup-grid error < 0.10 at k=4096 over 5 seeded trials, and the k=4096
    error beats the k=16 error in at least 9 of 10 trials, in under 30 s."""
    t0 = time.time()
    reports = kernel_convergence_check(k_values=[16, 4096], t_max=10.0,
                                       grid_size=100, trials=10, rng_seed=0)
    elapsed = time.time() - t0
    small, big = reports
    mean_sup_5 = float(big.trial_sup_errors[:5].mean())
    wins = int((big.trial_sup_errors < small.trial_sup_errors).sum())
    ok = mean_sup_5 < 0.10 and wins >= 9 and elapsed < 30.0
    report(f"criterion 1 (kernel convergence): {'PASS' if ok else 'FAIL'} - "
           f"mean sup@4096 = {mean_sup_5:.4f} (< 0.10), beats k=16 in {wins}/10 "
           f"trials (>= 9), {elapsed:.1f}s (< 30s)")
    assert mean_sup_5 < 0.10
    assert wins >= 9
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 2: gradient integrity
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_integrity():
    """Single-head and two-head L=2 forward + link loss on the 6-node fixture
    pass central finite differences (h=1e-5) at max relative error < 1e-4
    over all parameter groups including the time-encoder frequencies."""
    t0 = time.time()
    graph = tiny_fixture_graph()
    dims = Dims(d0=3, d=4, d_t=4, d_h=3, d_f=5, d_e=2)
    sampling = SamplingConfig(max_neighbors=4, strategy="most-recent")
    worst = 0.0
    for heads in (1, 2):
        model = TgatModel.create(dims, layer_count=2, head_count=heads,
                                 rng_seed=7, t_max=graph.t_max)
        params = model.parameters()
        result = ad.grad_check(
            lambda: link_loss(model, graph, [4, 5], sampling, 1, rng_seed=3),
            params, tolerance=1e-4, step=1e-5)
        assert result.checked_coords == sum(p.data.size for p in params)
        worst = max(worst, result.max_rel_error)
        assert result.passed, (heads, result)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(f"criterion 2 (gradient integrity): {'PASS' if ok else 'FAIL'} - "
           f"max rel error {worst:.2e} (< 1e-4) over every coordinate of every "
           f"group, {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 3: temporal causality
# ---------------------------------------------------------------------------


def test_criterion_3_temporal_causality():
    """1,000 seeded random (node, t) forward passes on a 200-node random
    temporal graph: the instrumented accessor reports zero accesses to events
    at or after their consumer's query time, at any hop depth."""
    graph = random_temporal_graph(n_nodes=200, n_events=2000, seed=0)
    dims = Dims(d0=4, d=6, d_t=4, d_h=4, d_f=6, d_e=0)
    model = TgatModel.create(dims, layer_count=2, head_count=2, rng_seed=1,
                             t_max=graph.t_max)
    rng = np.random.default_rng(42)
    strategies = ("uniform", "inverse-timespan", "most-recent")
    checked = 0
    with AccessMonitor() as monitor:
        for i in range(1000):
            node = int(rng.integers(0, graph.num_nodes))
            t = float(rng.uniform(0.0, graph.t_max * 1.1))
            cfg = SamplingConfig(max_neighbors=5, strategy=strategies[i % 3])
            embed(model, node, t, graph, cfg, rng_seed=i)
            checked += 1
    violations = monitor.violations()
    ok = checked == 1000 and not violations
    report(f"criterion 3 (temporal causality): {'PASS' if ok else 'FAIL'} - "
           f"{len(monitor.records)} instrumented accesses over {checked} "
           f"multi-hop passes, {len(violations)} violations (= 0)")
    assert checked == 1000
    assert violations == []
    assert len(monitor.records) > 0


# ---------------------------------------------------------------------------
# criterion 4: attention normalization and the constant-mode special case
# ---------------------------------------------------------------------------


def test_criterion_4_attention_normalization():
    """Across 1,000 random queries per-head weights are non-negative and sum
    to 1 +- 1e-9, and constant-mode output equals the mean of the value rows
    within 1e-12."""
    rng = np.random.default_rng(3)
    worst_sum = 0.0
    worst_mean = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        d_in, d_h = int(rng.integers(2, 10)), int(rng.integers(1, 8))
        z = ad.constant(rng.standard_normal((n + 1, d_in)) * rng.uniform(0.5, 5))
        w_q = ad.parameter(rng.standard_normal((d_in, d_h)))
        w_k = ad.parameter(rng.standard_normal((d_in, d_h)))
        w_v = ad.parameter(rng.standard_normal((d_in, d_h)))
        for mode in ("learned", "constant"):
            h, alpha = attend_head(z, w_q, w_k, w_v, 1, mode, np.ones((1, n), bool))
            assert (alpha >= 0).all()
            worst_sum = max(worst_sum, abs(alpha.sum() - 1.0))
            if mode == "constant":
                mean_v = (z.data[1:] @ w_v.data).mean(axis=0)
                worst_mean = max(worst_mean, np.abs(h.data[0] - mean_v).max())
    ok = worst_sum <= 1e-9 and worst_mean <= 1e-12
    report(f"criterion 4 (attention normalization): {'PASS' if ok else 'FAIL'} - "
           f"worst |sum-1| = {worst_sum:.2e} (<= 1e-9), worst constant-vs-mean "
           f"deviation = {worst_mean:.2e} (<= 1e-12)")
    assert worst_sum <= 1e-9
    assert worst_mean <= 1e-12


# ---------------------------------------------------------------------------
# criterion 5: metric oracles
# ---------------------------------------------------------------------------


def _ap_oracle(labels, scores):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / sum(labels)


def _auc_oracle(labels, scores):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = sum(1.0 if p > n else 0.5 if p == n else 0.0
                for p in pos for n in neg)
    return total / (len(pos) * len(neg))


def test_criterion_5_metric_oracles():
    """AP and AUC match brute-force oracles exactly on all configurations of
    up to 8 items (all label patterns with distinct scores; all tie patterns
    up to 4 items) and land on 0.50 +- 0.02 on 10,000-sample null models."""
    cases = 0
    for n in range(1, 9):
        scores = [(i + 1) / (n + 1) for i in range(n)]
        for labels in itertools.product([0, 1], repeat=n):
            if sum(labels) >= 1:
                assert average_precision(labels, scores) == _ap_oracle(labels, scores)
                cases += 1
            if 0 < sum(labels) < n:
                assert abs(roc_auc(labels, scores) - _auc_oracle(labels, scores)) < 1e-12
                cases += 1
    for n in range(1, 5):
        for scores in itertools.product([0.2, 0.5, 0.8], repeat=n):
            for labels in itertools.product([0, 1], repeat=n):
                if sum(labels) >= 1:
                    assert average_precision(labels, scores) == _ap_oracle(labels, scores)
                    cases += 1
                if 0 < sum(labels) < n:
                    assert abs(roc_auc(labels, scores) - _auc_oracle(labels, scores)) < 1e-12
                    cases += 1

    rng = np.random.default_rng(11)
    labels = rng.integers(0, 2, size=10_000)
    scores = rng.uniform(0, 1, size=10_000)
    null_ap = average_precision(labels, scores)
    null_auc = roc_auc(labels, scores)
    ok = abs(null_ap - 0.5) < 0.02 and abs(null_auc - 0.5) < 0.02
    report(f"criterion 5 (metric oracles): {'PASS' if ok else 'FAIL'} - "
           f"{cases} exhaustive small cases exact; null AP = {null_ap:.4f}, "
           f"null AUC = {null_auc:.4f} (both 0.50 +- 0.02)")
    assert abs(null_ap - 0.5) < 0.02
    assert abs(null_auc - 0.5) < 0.02


# ---------------------------------------------------------------------------
# criteria 6 and 7: directional synthetic experiment and attention trend
# ---------------------------------------------------------------------------

DIRECTIONAL_SEEDS = (0, 1, 2)


def _directional_config(mode: str, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=0.01, layers=1, heads=2, neighborhood_dropout=0.1,
        batch_size=25, max_epochs=15, patience=15, attention_mode=mode,
        sampling_strategy="most-recent", rng_seed=seed,
        d=16, d_t=24, d_h=8, d_f=16, max_neighbors=12,
        max_train_events_per_epoch=1500, max_val_events=250,
        unseen_fraction=0.0,
    )


@pytest.fixture(scope="module")
def directional_experiment():
    """Train learned/constant/positional models on the 500-node, 20,000-event
    recency-planted graph, three seeds each; returns test APs per mode plus
    the first-seed learned model for the attention analysis."""
    t0 = time.time()
    graph = recency_planted_graph(n_nodes=500, n_events=20000, seed=0)
    split = chronological_split(graph, 0.70, 0.15)
    aps: dict[str, list[float]] = {}
    first_learned = None
    for mode in ("learned", "constant", "positional"):
        aps[mode] = []
        for seed in DIRECTIONAL_SEEDS:
            cfg = _directional_config(mode, seed)
            model, _ = train(graph, split, cfg)
            result = evaluate_links(model, graph, split, period="test",
                                    node_filter="observed", config=cfg,
                                    rng_seed=seed, max_events=400)
            aps[mode].append(result.average_precision)
            if mode == "learned" and seed == DIRECTIONAL_SEEDS[0]:
                first_learned = (model, cfg)
    return {
        "graph": graph,
        "split": split,
        "aps": aps,
        "first_learned": first_learned,
        "elapsed": time.time() - t0,
    }


def test_criterion_6_directional_experiment(directional_experiment):
    """On the recency-planted graph, learned-mode test AP exceeds the
    constant-attention ablation by >= 0.05 and the positional-encoding
    variant by >= 0.02, averaged over 3 seeds, within 15 minutes."""
    exp = directional_experiment
    mean = {mode: float(np.mean(vals)) for mode, vals in exp["aps"].items()}
    margin_const = mean["learned"] - mean["constant"]
    margin_pos = mean["learned"] - mean["positional"]
    elapsed = exp["elapsed"]
    ok = margin_const >= 0.05 and margin_pos >= 0.02 and elapsed < 900
    report(f"criterion 6 (directional experiment): {'PASS' if ok else 'FAIL'} - "
           f"mean test AP learned={mean['learned']:.4f} const={mean['constant']:.4f} "
           f"positional={mean['positional']:.4f}; margins {margin_const:+.4f} "
           f"(>= 0.05) and {margin_pos:+.4f} (>= 0.02); {elapsed:.0f}s (< 900s)")
    assert margin_const >= 0.05
    assert margin_pos >= 0.02
    assert elapsed < 900


def test_criterion_7_attention_trend(directional_experiment):
    """On the first-seed learned model from criterion 6, the Spearman
    correlation between neighbor timespan and attention weight over sampled
    test predictions is negative with magnitude > 0.3."""
    exp = directional_experiment
    model, cfg = exp["first_learned"]
    test_idx = evaluation_event_indices(exp["graph"], exp["split"], "test",
                                        "transductive")
    rows = attention_report(model, exp["graph"], test_idx[:150], config=cfg,
                            rng_seed=0)
    spans = np.array([r.timespan for r in rows])
    weights = np.array([r.attention_weight for r in rows])
    rho = spearman(spans, weights)
    ok = rho < 0 and abs(rho) > 0.3
    report(f"criterion 7 (attention trend): {'PASS' if ok else 'FAIL'} - "
           f"spearman(timespan, weight) = {rho:+.4f} over {len(rows)} pairs "
           f"(negative, magnitude > 0.3)")
    assert rho < 0
    assert abs(rho) > 0.3


# ---------------------------------------------------------------------------
# criterion 8: parameter accounting
# ---------------------------------------------------------------------------


def test_criterion_8_parameter_accounting():
    """Constructed head parameter count equals
    (d + d_T) d_h + (d_h + d_0) d_f + d_f d exactly for 5 random tuples."""
    rng = np.random.default_rng(99)
    checked = []
    for _ in range(5):
        dims = Dims(d0=int(rng.integers(1, 64)), d=int(rng.integers(1, 64)),
                    d_t=2 * int(rng.integers(1, 32)), d_h=int(rng.integers(1, 64)),
                    d_f=int(rng.integers(1, 64)), d_e=0)
        layer = LayerParams.create(dims, head_count=1, input_dim=dims.d, rng=rng)
        assert layer.head_param_count() == head_parameter_formula(dims)
        checked.append(layer.head_param_count())
    report(f"criterion 8 (parameter accounting): PASS - 5 random dimension "
           f"tuples match the closed form exactly (counts: {checked})")


# ---------------------------------------------------------------------------
# criterion 9: determinism and inductive totality
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_and_inductive_totality(tmp_path):
    """Identical (data, config, seed) CLI training runs produce byte-identical
    checkpoints, and a node with no training-period events embeds
    successfully with CLI and library outputs round-tripping bit-exactly."""
    # node u9 appears only in the last two events, far past the training cut
    rows = ["user_id,item_id,timestamp,state_label,f1"]
    pairs = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 0), (1, 1), (2, 1)]
    rows += [f"{u},{i},{t}.0,0,0.5" for t, (u, i) in enumerate(pairs, start=1)]
    rows += ["9,0,9.0,0,0.1", "9,1,10.0,0,0.2"]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    config = tmp_path / "config.txt"
    config.write_text(
        "rng_seed = 5\nlayers = 2\nheads = 2\nd = 6\nd_t = 4\nd_h = 4\nd_f = 6\n"
        "max_epochs = 2\nbatch_size = 4\nlearning_rate = 0.01\nmax_neighbors = 4\n"
        "unseen_fraction = 0.0\nsampling_strategy = most-recent\n")
    graph_path = tmp_path / "g.npz"
    assert main(["ingest", str(data), str(graph_path)]) == 0

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", str(graph_path), str(config), str(out1)]) == 0
    assert main(["train", str(graph_path), str(config), str(out2)]) == 0
    ckpt1 = (out1 / "checkpoint.json").read_bytes()
    identical = ckpt1 == (out2 / "checkpoint.json").read_bytes()

    # the unseen user node was ingested as id 5 (6th distinct id); verify
    from tgat.layer import load_checkpoint
    from tgat.temporal_graph import load_graph, training_event_indices
    from tgat.temporal_graph import chronological_split as chrono

    graph = load_graph(graph_path)
    model, extra = load_checkpoint(out1 / "checkpoint.json")
    cfg = TrainConfig(**extra["train_config"])
    split = chrono(graph, cfg.train_frac, cfg.val_frac)
    unseen_node = 5
    trained_events = [graph.events[int(i)] for i in training_event_indices(graph, split)]
    assert all(unseen_node not in (ev.source, ev.destination) for ev in trained_events)

    out_csv = tmp_path / "emb.csv"
    assert main(["embed", str(out1 / "checkpoint.json"), str(graph_path),
                 "--nodes", str(unseen_node), "--times", "10.5",
                 "--out", str(out_csv)]) == 0
    fields = out_csv.read_text().strip().split(",")
    cli_vec = np.array([float(v) for v in fields[2:]])
    lib_vec = embed(model, unseen_node, 10.5, graph, cfg.sampling(),
                    rng_seed=cfg.rng_seed)
    roundtrip = bool((cli_vec == lib_vec).all())
    ok = identical and roundtrip
    report(f"criterion 9 (determinism & inductive totality): "
           f"{'PASS' if ok else 'FAIL'} - checkpoints byte-identical: {identical}; "
           f"unseen-node embedding CLI/library bit-exact: {roundtrip}")
    assert identical
    assert roundtrip
