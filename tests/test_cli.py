"""Command-line tests: exit codes, artifacts, determinism, and the
library/CLI embedding round trip."""

import json

import numpy as np
import pytest

from tgat.cli import main, parse_train_config
from tgat.errors import ConfigError
from tgat.layer import (Dims, TgatModel, embed, embed_passes, load_checkpoint,
                        save_checkpoint)
from tgat.synthetic import random_temporal_graph
from tgat.temporal_graph import (
    build_graph,
    chronological_split,
    load_graph,
    mask_unseen,
    save_graph,
)
from tgat.training import TrainConfig, evaluate_links

CSV_TEXT = (
    "user_id,item_id,timestamp,state_label,f1,f2\n"
    + "\n".join(
        f"{u},{i},{t}.0,0,0.{t % 10},0.{(9 - t) % 10}"
        for t, (u, i) in enumerate(
            [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 0), (1, 1), (2, 1), (0, 1), (1, 0)],
            start=1,
        )
    )
    + "\n"
)

CONFIG_TEXT = """\
# demo config
rng_seed = 3
layers = 1
heads = 2
d = 8
d_t = 4
d_h = 4
d_f = 8
max_epochs = 2
batch_size = 4
learning_rate = 0.01
max_neighbors = 5
unseen_fraction = 0.0
patience = 2
sampling_strategy = most-recent
"""


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text(CSV_TEXT)
    config = tmp_path / "config.txt"
    config.write_text(CONFIG_TEXT)
    graph = tmp_path / "graph.npz"
    assert main(["ingest", str(data), str(graph)]) == 0
    return tmp_path, data, config, graph


class TestIngest:
    def test_summary_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text(CSV_TEXT)
        out = tmp_path / "g.npz"
        assert main(["ingest", str(data), str(out)]) == 0
        printed = capsys.readouterr().out
        assert "5 nodes, 10 events" in printed  # 3 users + 2 items
        assert out.exists()
        assert (tmp_path / "g.npz.manifest.txt").exists()

    def test_missing_file_exit_2_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.csv"
        assert main(["ingest", str(missing), str(tmp_path / "g.npz")]) == 2
        assert "nowhere.csv" in capsys.readouterr().err

    def test_short_row_exit_1_cites_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("user_id,item_id,timestamp,state_label\n1,2\n")
        assert main(["ingest", str(data), str(tmp_path / "g.npz")]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_timestamp_exit_1(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("user_id,item_id,timestamp,state_label\n1,2,1.0,0\n1,3,nan,0\n")
        out = tmp_path / "g.npz"
        assert main(["ingest", str(data), str(out)]) == 1
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_edge_feature_exit_1(self, tmp_path, capsys, raw):
        data = tmp_path / "feats.csv"
        data.write_text("user_id,item_id,timestamp,state_label,f_1\n"
                        f"1,2,1.0,0,0.5\n1,3,2.0,0,{raw}\n")
        out = tmp_path / "g.npz"
        assert main(["ingest", str(data), str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "line 3" in err[0]
        assert not out.exists()

    def test_csv_not_utf8_exit_1(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes("user_id,item_id,timestamp,state_label\nJos\u00e9,2,1.0,0\n"
                         .encode("latin-1"))
        assert main(["ingest", str(data), str(tmp_path / "g.npz")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "latin1.csv" in err[0] and "UTF-8" in err[0]

    def test_csv_field_over_the_size_limit_exit_1(self, tmp_path, capsys):
        # the csv module's "field larger than field limit" used to print a traceback
        data = tmp_path / "long.csv"
        data.write_text("user_id,item_id,timestamp,state_label\n" + "x" * 200_000 + ",2,1.0,0\n")
        out = tmp_path / "g.npz"
        assert main(["ingest", str(data), str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "long.csv: line 2: field larger than" in err[0]
        assert not out.exists()

    def test_label_below_minus_one_exit_1(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("user_id,item_id,timestamp,state_label\n1,2,1.0,0\n1,2,2.0,-5\n")
        assert main(["ingest", str(data), str(tmp_path / "g.npz")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "line 3" in err[0]

    @pytest.mark.parametrize("flag", ["--feature-dim", "--node-feature-dim"])
    def test_negative_feature_dim_exit_1(self, tmp_path, capsys, flag):
        data = tmp_path / "three_col.csv"
        data.write_text("user_id,item_id,timestamp\n1,2,1.0\n")
        assert main(["ingest", str(data), str(tmp_path / "g.npz"), flag, "-1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "must be >= 0" in err[0]

    def test_outputs_byte_identical(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text(CSV_TEXT)
        g1, g2 = tmp_path / "g1.npz", tmp_path / "g2.npz"
        assert main(["ingest", str(data), str(g1)]) == 0
        assert main(["ingest", str(data), str(g2)]) == 0
        assert g1.read_bytes() == g2.read_bytes()


class TestTrain:
    def test_graph_path_without_npz_suffix(self, workspace, capsys):
        # ingest used to write out.graph.npz, and train on out.graph exited 2
        tmp_path, data, config, _ = workspace
        graph = tmp_path / "out.graph"
        assert main(["ingest", str(data), str(graph)]) == 0
        assert graph.is_file()
        assert main(["train", str(graph), str(config), str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("trained 2 epochs")

    def test_artifacts_written(self, workspace):
        tmp_path, _, config, graph = workspace
        outdir = tmp_path / "run"
        assert main(["train", str(graph), str(config), str(outdir)]) == 0
        assert (outdir / "checkpoint.json").exists()
        assert (outdir / "history.csv").exists()
        assert (outdir / "manifest.txt").exists()
        manifest = (outdir / "manifest.txt").read_text()
        assert "command = train" in manifest
        assert "seed = 3" in manifest

    def test_rerun_identical_history_and_checkpoint(self, workspace):
        tmp_path, _, config, graph = workspace
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", str(graph), str(config), str(out1)]) == 0
        assert main(["train", str(graph), str(config), str(out2)]) == 0
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert (out1 / "checkpoint.json").read_bytes() == \
               (out2 / "checkpoint.json").read_bytes()

    def test_zero_width_node_features_chain(self, workspace, capsys):
        # ingest stored zero-width node features, and train on them exited 1
        # with "d0 must be >= 1, got 0"
        tmp_path, data, config, _ = workspace
        graph, run = tmp_path / "bare.npz", tmp_path / "bare"
        assert main(["ingest", str(data), str(graph), "--node-feature-dim", "0"]) == 0
        assert load_graph(graph).node_feature_dim == 0
        config.write_text(CONFIG_TEXT.replace("layers = 1", "layers = 2"))
        assert main(["train", str(graph), str(config), str(run)]) == 0
        assert load_checkpoint(run / "checkpoint.json")[0].dims.d0 == 0
        capsys.readouterr()
        assert main(["embed", str(run / "checkpoint.json"), str(graph),
                     "--nodes", "0,3", "--times", "11.0,0.5"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[:2] for row in rows] == [["0", "11.0"], ["3", "0.5"]]

    def test_unknown_config_key_exit_1(self, workspace, capsys):
        tmp_path, _, _, graph = workspace
        bad = tmp_path / "bad.txt"
        bad.write_text("rng_seed = 1\nwibble = 4\n")
        assert main(["train", str(graph), str(bad), str(tmp_path / "out")]) == 1
        assert "wibble" in capsys.readouterr().err

    def test_repeated_config_key_exit_1(self, workspace, capsys):
        # the last of a repeated key used to win silently
        tmp_path, _, _, graph = workspace
        bad = tmp_path / "bad.txt"
        bad.write_text("layers = 1\n# deeper\nlayers = 3\n")
        assert main(["train", str(graph), str(bad), str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.strip() == (
            f"error: {bad}:3: 'layers' is already set on line 1")
        assert not (tmp_path / "out").exists()

    def test_non_npz_graph_exit_1(self, workspace, capsys):
        tmp_path, _, config, _ = workspace
        bad = tmp_path / "bad.npz"
        bad.write_text("user_id,item_id\n")
        assert main(["train", str(bad), str(config), str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "bad.npz" in err and err.count("\n") == 1

    def test_graph_missing_member_exit_1(self, workspace, capsys):
        tmp_path, _, config, _ = workspace
        bad = tmp_path / "partial.npz"
        np.savez(bad, format_version=np.array([1]), sources=np.array([0]))
        assert main(["train", str(bad), str(config), str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "partial.npz" in err and "destinations" in err and err.count("\n") == 1

    def test_graph_non_numeric_member_exit_1(self, workspace, capsys):
        tmp_path, _, config, graph = workspace
        with np.load(graph) as data:
            members = dict(data)
        members["sources"] = members["sources"].astype(str)
        bad = tmp_path / "strings.npz"
        np.savez(bad, **members)
        assert main(["train", str(bad), str(config), str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "strings.npz" in err[0] and "'sources'" in err[0]

    def test_config_not_utf8_exit_1(self, workspace, capsys):
        tmp_path, _, config, graph = workspace
        bad = tmp_path / "latin1.txt"
        bad.write_bytes((config.read_text() + "# caf\u00e9\n").encode("latin-1"))
        assert main(["train", str(graph), str(bad), str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "latin1.txt" in err[0] and "UTF-8" in err[0]

    def test_non_finite_loss_exit_1(self, workspace, capsys, monkeypatch):
        import tgat.training as training
        from tgat import autodiff as ad

        tmp_path, _, config, graph = workspace
        monkeypatch.setattr(training, "link_loss",
                            lambda *args, **kwargs: ad.constant(np.array([[np.nan]])))
        outdir = tmp_path / "diverged"
        assert main(["train", str(graph), str(config), str(outdir)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "epoch 1, batch starting at 0" in err[0]
        assert not (outdir / "checkpoint.json").exists()

    @pytest.mark.parametrize("line", ["rng_seed = -1", "learning_rate = 0",
                                      "learning_rate = -0.01"])
    def test_invalid_seed_or_learning_rate_exit_1(self, workspace, capsys, line):
        tmp_path, _, config, graph = workspace
        bad = tmp_path / "bad.txt"
        bad.write_text(config.read_text() + line + "\n")
        outdir = tmp_path / "o"
        assert main(["train", str(graph), str(bad), str(outdir)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and line.split()[0] in err[0]
        assert not outdir.exists()

    def test_config_checked_before_the_graph_is_read(self, workspace, capsys):
        # a bad config used to fail only after the graph was loaded and split
        tmp_path, _, config, _ = workspace
        bad = tmp_path / "bad.txt"
        bad.write_text(config.read_text() + "attention_mode = bogus\n")
        assert main(["train", str(tmp_path / "no.npz"), str(bad), str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "attention_mode" in err[0]

    def test_missing_graph_exit_2(self, workspace, capsys):
        tmp_path, _, config, _ = workspace
        code = main(["train", str(tmp_path / "no.npz"), str(config), str(tmp_path / "o")])
        assert code == 2


def test_default_inductive_split_matches_the_library(tmp_path, capsys):
    # every other config here sets unseen_fraction = 0, so only this run
    # withholds nodes: train at the default 0.10, then score the inductive
    # test and val periods
    g = random_temporal_graph(60, 600, seed=1)
    graph, config = tmp_path / "g.npz", tmp_path / "c.txt"
    ckpt = tmp_path / "run" / "checkpoint.json"
    save_graph(g, graph)
    config.write_text(CONFIG_TEXT.replace("unseen_fraction = 0.0\n", ""))
    assert main(["train", str(graph), str(config), str(ckpt.parent)]) == 0
    cfg = parse_train_config(config)
    model, _ = load_checkpoint(ckpt)
    split = mask_unseen(g, chronological_split(g, 0.7, 0.15), 0.1, cfg.rng_seed)
    assert split.unseen_nodes
    for period in ("test", "val"):
        capsys.readouterr()
        assert main(["eval", str(ckpt), str(graph), "--split", "inductive",
                     "--period", period]) == 0
        line = capsys.readouterr().out.strip()
        expected = evaluate_links(model, g, split, period=period, node_filter="unseen",
                                  config=cfg, rng_seed=cfg.rng_seed)
        assert line.startswith("split=inductive task=link ")
        assert f" ap={expected.average_precision!r} " in line


def _npz_with(path, graph, **members):
    """The archive of ``graph`` with ``members`` replaced, written to ``path``."""
    with np.load(graph) as data:
        np.savez(path, **{**data, **members})
    return path


def _checkpoint_with(path, **fields):
    """A one-layer model that fits the workspace graph, saved to ``path``
    with ``fields`` of its JSON payload replaced."""
    model = TgatModel.create(Dims(d0=2, d=4, d_t=2, d_h=2, d_f=4, d_e=2), layer_count=1,
                             head_count=1)
    save_checkpoint(model, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
    return path


def _written(path, text):
    path.write_text(text)
    return path


def _npy(path):
    np.save(path, np.arange(3))
    return path


# error branches that only a malformed file or flag reaches: (argv, the one
# stderr line after "error: ") for the workspace's tmp_path, config and graph
BAD_INPUT = {
    "empty_csv": lambda t, c, g: (
        ["ingest", str(_written(t / "e.csv", "")), str(t / "o.npz")],
        f"{t / 'e.csv'}: empty file, expected a header line"),
    "npy_graph": lambda t, c, g: (
        ["train", str(_npy(t / "g.npy")), str(c), str(t / "o")],
        f"{t / 'g.npy'}: not an npz graph archive"),
    "graph_version_2": lambda t, c, g: (
        ["train", str(_npz_with(t / "v2.npz", g, format_version=np.array([2]))), str(c),
         str(t / "o")],
        f"{t / 'v2.npz'}: unsupported graph format version [2]"),
    "checkpoint_version_2": lambda t, c, g: (
        ["embed", str(_checkpoint_with(t / "m.json", version=2)), str(g), "--nodes", "0",
         "--times", "5.0"],
        f"{t / 'm.json'}: unsupported checkpoint version 2"),
    "train_config_not_a_table": lambda t, c, g: (
        ["eval", str(_checkpoint_with(t / "m.json", extra={"train_config": [1]})), str(g)],
        f"{t / 'm.json'}: train_config is not a key-value table"),
    "config_line_without_equals": lambda t, c, g: (
        ["train", str(g), str(_written(t / "c.txt", "rng_seed = 1\nlayers 2\n")), str(t / "o")],
        f"{t / 'c.txt'}:2: expected 'key = value', got 'layers 2'"),
    "bool_neither_true_nor_false": lambda t, c, g: (
        ["train", str(g), str(_written(t / "c.txt", "positional_learnable = yes\n")),
         str(t / "o")],
        f"{t / 'c.txt'}:1: bad value for 'positional_learnable': expected true/false, "
        f"got 'yes'"),
    "check_without_a_suite": lambda t, c, g: (
        ["check"], "check needs --kernel and/or --grad"),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_exits_1_with_one_line(workspace, capsys, case):
    tmp_path, _, config, graph = workspace
    argv, shown = BAD_INPUT[case](tmp_path, config, graph)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {shown}\n")


class TestEvalAndEmbed:
    @pytest.fixture
    def trained(self, workspace):
        tmp_path, _, config, graph = workspace
        outdir = tmp_path / "run"
        assert main(["train", str(graph), str(config), str(outdir)]) == 0
        return tmp_path, graph, outdir / "checkpoint.json"

    def test_eval_prints_metrics_line(self, trained, capsys):
        _, graph, ckpt = trained
        assert main(["eval", str(ckpt), str(graph),
                     "--split", "transductive", "--task", "link",
                     "--period", "val"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("split=transductive task=link acc=")
        assert " ap=" in line and " auc=" in line

    @pytest.fixture
    def labelled(self, trained):
        """A graph whose training and test periods hold labels of both
        classes, with the trained model's two node and two edge features."""
        tmp_path, _, ckpt = trained
        g = random_temporal_graph(20, 200, node_feature_dim=2, edge_feature_dim=2, seed=0)
        path = tmp_path / "labelled.npz"
        save_graph(build_graph(g.sources, g.destinations, g.timestamps, g.edge_features,
                               np.arange(200) % 2, g.node_features), path)
        return path, ckpt

    def test_node_task_prints_its_split(self, labelled, capsys):
        graph, ckpt = labelled
        assert main(["eval", str(ckpt), str(graph), "--task", "node"]) == 0
        assert capsys.readouterr().out.startswith("split=transductive task=node acc=")

    # node_classify uses none of these flags: they were ignored, and
    # "split=inductive" was printed beside transductive numbers
    @pytest.mark.parametrize("flag", [["--split", "inductive"], ["--period", "val"],
                                      ["--max-events", "5"]])
    def test_node_task_rejects_link_flags_exit_1(self, labelled, capsys, flag):
        graph, ckpt = labelled
        assert main(["eval", str(ckpt), str(graph), "--task", "node", *flag]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --task node") and flag[0] in err[0]

    def test_eval_negative_max_events_exit_1(self, trained, capsys):
        _, graph, ckpt = trained
        assert main(["eval", str(ckpt), str(graph), "--max-events", "-5"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "max_events" in err[0]

    def test_eval_missing_checkpoint_exit_2(self, trained):
        tmp_path, graph, _ = trained
        assert main(["eval", str(tmp_path / "none.json"), str(graph)]) == 2

    def test_embed_unseen_node_roundtrips_bit_exact(self, trained, capsys):
        tmp_path, graph_path, ckpt = trained
        # node 3 only ever appears in the final events; embed far in the past
        assert main(["embed", str(ckpt), str(graph_path),
                     "--nodes", "3", "--times", "0.5"]) == 0
        line = capsys.readouterr().out.strip()
        fields = line.split(",")
        assert fields[0] == "3"
        cli_vec = np.array([float(v) for v in fields[2:]])

        model, extra = load_checkpoint(ckpt)
        graph = load_graph(graph_path)
        config = TrainConfig(**extra["train_config"])
        lib_vec = embed(model, 3, 0.5, graph, config.sampling(),
                        rng_seed=config.rng_seed)
        np.testing.assert_array_equal(cli_vec, lib_vec)

    @staticmethod
    def cli_and_library_rows(workspace, capsys, nodes, times):
        """``tgat embed``'s rows for the queries, by a two-layer uniform model
        trained here, and the library's ``embed`` of them in one call."""
        tmp_path, _, _, graph_path = workspace
        config = tmp_path / "uniform.txt"
        config.write_text(CONFIG_TEXT.replace("layers = 1", "layers = 2")
                          .replace("max_neighbors = 5", "max_neighbors = 2")
                          .replace("most-recent", "uniform"))
        assert main(["train", str(graph_path), str(config), str(tmp_path / "run")]) == 0
        ckpt = tmp_path / "run" / "checkpoint.json"
        capsys.readouterr()
        assert main(["embed", str(ckpt), str(graph_path),
                     "--nodes", ",".join(map(str, nodes)),
                     "--times", ",".join(map(repr, times))]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert [(int(r[0]), float(r[1])) for r in rows] == list(zip(nodes, times))
        cli = np.array([[float(v) for v in r[2:]] for r in rows])

        model, extra = load_checkpoint(ckpt)
        graph = load_graph(graph_path)
        config = TrainConfig(**extra["train_config"])
        assert config.sampling().strategy == "uniform"
        batched = embed(model, nodes, times, graph, config.sampling(),
                        rng_seed=config.rng_seed)
        return cli, batched, (model, graph, config)

    def test_embed_rows_equal_batched_library_call(self, workspace, capsys):
        # node 1 (item 0) has five events before t = 11, so its sample is drawn
        nodes, times = [1, 0, 3, 1, 4, 2], [11.0, 9.5, 11.0, 11.0, 6.0, 0.5]
        cli, batched, (model, graph, config) = self.cli_and_library_rows(
            workspace, capsys, nodes, times)
        np.testing.assert_array_equal(cli, batched)
        per_row = np.stack([embed(model, v, t, graph, config.sampling(),
                                  rng_seed=config.rng_seed) for v, t in zip(nodes, times)])
        np.testing.assert_allclose(cli, per_row, rtol=1e-12, atol=1e-12)

    def test_embed_rows_of_many_passes_equal_the_library_call(self, workspace, capsys):
        # 300 queries: three inference passes, each but the first prepared
        # beside the pass before it
        rng = np.random.default_rng(4)
        nodes = rng.integers(0, 5, 300).tolist()
        times = rng.uniform(0.0, 12.0, 300).round(3).tolist()
        cli, batched, _ = self.cli_and_library_rows(workspace, capsys, nodes, times)
        assert len(embed_passes(len(nodes))) == 3
        assert cli.shape == batched.shape and cli.tobytes() == batched.tobytes()

    def test_embed_writes_file(self, trained):
        tmp_path, graph, ckpt = trained
        out = tmp_path / "emb.csv"
        assert main(["embed", str(ckpt), str(graph), "--nodes", "0,1",
                     "--times", "5.0", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_embed_malformed_time_exit_1(self, trained, capsys):
        _, graph, ckpt = trained
        assert main(["embed", str(ckpt), str(graph),
                     "--nodes", "0", "--times", "soon"]) == 1

    @staticmethod
    def _tamper(ckpt, **changes):
        payload = json.loads(ckpt.read_text())
        payload["extra"]["train_config"].update(changes)
        ckpt.write_text(json.dumps(payload))

    def test_checkpoint_config_unknown_key_exit_1(self, trained, capsys):
        _, graph, ckpt = trained
        self._tamper(ckpt, bogus_key=1)
        assert main(["embed", str(ckpt), str(graph), "--nodes", "0", "--times", "5.0"]) == 1
        err = capsys.readouterr().err
        assert "bogus_key" in err and len(err.strip().splitlines()) == 1
        assert main(["eval", str(ckpt), str(graph)]) == 1

    def test_checkpoint_config_bad_type_exit_1(self, trained, capsys):
        _, graph, ckpt = trained
        self._tamper(ckpt, layers="two")
        assert main(["embed", str(ckpt), str(graph), "--nodes", "0", "--times", "5.0"]) == 1
        err = capsys.readouterr().err
        assert "layers must be an integer" in err and len(err.strip().splitlines()) == 1
        self._tamper(ckpt, layers=2, neighborhood_dropout=1.5)
        assert main(["eval", str(ckpt), str(graph)]) == 1
        assert "neighborhood_dropout" in capsys.readouterr().err

    # each read as a number or a bool when the stored text was parsed again
    # as a config-file line, so embed and eval exited 0
    @pytest.mark.parametrize("key, value, shown", [
        ("learning_rate", "1e-3", "learning_rate must be a real number, got '1e-3'"),
        ("positional_learnable", "TRUE", "positional_learnable must be true or false, got 'TRUE'"),
        ("max_neighbors", "3", "max_neighbors must be an integer, got '3'")])
    @pytest.mark.parametrize("command", ["embed", "eval"])
    def test_checkpoint_config_text_value_exit_1(self, trained, capsys, command, key, value,
                                                 shown):
        _, graph, ckpt = trained
        self._tamper(ckpt, **{key: value})
        args = ["--nodes", "0", "--times", "5.0"] if command == "embed" else []
        assert main([command, str(ckpt), str(graph), *args]) == 1
        out, err = capsys.readouterr()
        assert not out and err.splitlines() == [f"error: {ckpt}: train_config: {shown}"]

    def test_checkpoint_config_negative_seed_exit_1(self, trained, capsys):
        _, graph, ckpt = trained
        self._tamper(ckpt, rng_seed=-1)
        assert main(["embed", str(ckpt), str(graph), "--nodes", "0", "--times", "5.0"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "rng_seed" in err[0]

    @pytest.mark.parametrize("field", ["max_train_events_per_epoch", "max_val_events"])
    def test_checkpoint_config_negative_cap_exit_1(self, trained, capsys, field):
        _, graph, ckpt = trained
        self._tamper(ckpt, **{field: -5})
        assert main(["eval", str(ckpt), str(graph)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and field in err[0]

    # each used to raise a ValidationError without the path; a bool head
    # count loaded as a 1-head model
    @pytest.mark.parametrize("key, value, shown", [
        ("d_t", 3, "d_t must be even and >= 2"), ("d_e", -1, "d_e must be >= 0"),
        ("attention_mode", "bogus", "attention_mode must be one of"),
        ("head_count", True, "head_count must be an integer")])
    def test_bad_stored_model_exit_1(self, trained, capsys, key, value, shown):
        _, graph, ckpt = trained
        payload = json.loads(ckpt.read_text())
        (payload["dims"] if key in payload["dims"] else payload)[key] = value
        ckpt.write_text(json.dumps(payload))
        assert main(["embed", str(ckpt), str(graph), "--nodes", "0", "--times", "5.0"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: ") and shown in err[0]

    # a 10**13-wide layer escaped as a MemoryError traceback: its (8, 10**13)
    # weight matrix is past the 47-bit address space, so the request fails at
    # once; a parameter the model does not have was ignored, a flattened
    # one was reshaped, and a positional block in learned mode raised a raw
    # AttributeError
    @pytest.mark.parametrize("tamper, shown", [
        (lambda p: p["dims"].update(d=10**13), "malformed checkpoint"),
        (lambda p: p["params"].update({"layers.0.heads.7.w_q": [[0.0]]}),
         "unknown parameters layers.0.heads.7.w_q"),
        (lambda p: p["params"].update({"layers.0.ffn.w0": sum(p["params"]["layers.0.ffn.w0"], [])}),
         "parameter layers.0.ffn.w0 has shape"),
        (lambda p: p.update(positional={"learnable": False, "max_positions": 2,
                                        "table": [[0.0] * 4] * 2}),
         "attention_mode 'learned' takes no positional block")],
        ids=["huge_width", "stray_head", "flat_weight", "positional_block"])
    def test_unrepresentable_model_exit_1(self, trained, capsys, tamper, shown):
        _, graph, ckpt = trained
        payload = json.loads(ckpt.read_text())
        tamper(payload)
        ckpt.write_text(json.dumps(payload))
        assert main(["embed", str(ckpt), str(graph), "--nodes", "0", "--times", "5.0"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: ") and shown in err[0]

    def test_fractional_max_positions_exit_1(self, trained, capsys):
        # used to build a 3-row positional table from 2.5
        _, graph, ckpt = trained
        payload = json.loads(ckpt.read_text())
        payload["attention_mode"] = "positional"
        payload["positional"] = {"learnable": True, "max_positions": 2.5, "table": None}
        ckpt.write_text(json.dumps(payload))
        assert main(["embed", str(ckpt), str(graph), "--nodes", "0", "--times", "5.0"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: ")
        assert "max_positions must be an integer, got 2.5" in err[0]

    # a NaN in b1 printed NaN in every row; one in b0 is zeroed by the ReLU,
    # so the embeddings looked finite
    @pytest.mark.parametrize("name, value", [("layers.0.ffn.b1", float("nan")),
                                             ("layers.0.ffn.b0", float("nan")),
                                             ("time_encoder.frequencies", float("inf"))])
    def test_non_finite_parameter_exit_1(self, trained, capsys, name, value):
        _, graph, ckpt = trained
        payload = json.loads(ckpt.read_text())
        payload["params"][name][0][0] = value
        ckpt.write_text(json.dumps(payload))
        for argv in (["embed", str(ckpt), str(graph), "--nodes", "0", "--times", "5.0"],
                     ["eval", str(ckpt), str(graph)]):
            assert main(argv) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and name in err[0]

    @pytest.mark.parametrize("content", [b"{not json", '"caf\u00e9"'.encode("latin-1"),
                                         b"[1, 2]"])
    def test_undecodable_checkpoint_exit_1(self, trained, capsys, content):
        _, graph, ckpt = trained
        ckpt.write_bytes(content)
        for argv in (["embed", str(ckpt), str(graph), "--nodes", "0", "--times", "5.0"],
                     ["eval", str(ckpt), str(graph)]):
            assert main(argv) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "checkpoint.json" in err[0]

    def test_checkpoint_extra_not_a_table_exit_1(self, trained, capsys):
        _, graph, ckpt = trained
        payload = json.loads(ckpt.read_text())
        payload["extra"] = []
        ckpt.write_text(json.dumps(payload))
        for argv in (["embed", str(ckpt), str(graph), "--nodes", "0", "--times", "5.0"],
                     ["eval", str(ckpt), str(graph)]):
            assert main(argv) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "extra" in err[0]

    def test_node_task_label_other_than_zero_and_one_exit_1(self, trained, capsys):
        tmp_path, _, ckpt = trained
        rows = [line.split(",") for line in CSV_TEXT.splitlines()]
        rows[3][3] = "2"  # the state label of the third event
        data = tmp_path / "labels.csv"
        data.write_text("\n".join(",".join(row) for row in rows) + "\n")
        labelled = tmp_path / "labels.npz"
        assert main(["ingest", str(data), str(labelled)]) == 0
        capsys.readouterr()
        assert main(["eval", str(ckpt), str(labelled), "--task", "node"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0] == "error: labels must be 0 or 1, got 2"

    def test_graph_without_the_models_edge_features_exit_1(self, trained, capsys):
        # the same events as the training graph, without its two feature columns
        tmp_path, _, ckpt = trained
        data = tmp_path / "bare.csv"
        data.write_text("\n".join(",".join(line.split(",")[:4])
                                  for line in CSV_TEXT.splitlines()) + "\n")
        bare = tmp_path / "bare.npz"
        assert main(["ingest", str(data), str(bare)]) == 0
        capsys.readouterr()
        for argv in (["embed", str(ckpt), str(bare), "--nodes", "0", "--times", "5.0"],
                     ["eval", str(ckpt), str(bare)]):
            assert main(argv) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: model expects")
            assert "2 edge features, graph has" in err[0] and "Traceback" not in err[0]

    def test_embed_mismatched_lists_exit_1(self, trained):
        _, graph, ckpt = trained
        assert main(["embed", str(ckpt), str(graph),
                     "--nodes", "0,1,2", "--times", "1.0,2.0"]) == 1


class TestCheck:
    def test_grad_check_passes(self, capsys):
        assert main(["check", "--grad"]) == 0
        out = capsys.readouterr().out
        assert "negative control" in out
        assert "all checks passed" in out

    def test_kernel_check_passes_and_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "kernel.csv"
        assert main(["check", "--kernel", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "sup_error" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "k,sup_error,mean_error"
        assert len(lines) == 3  # k = 16 and k = 4096

    def test_check_requires_a_suite(self, capsys):
        assert main(["check"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command_exit_1(self):
        assert main(["frobnicate"]) == 1


class TestConfigParsing:
    def test_round_trip_types(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("learning_rate = 0.5\nlayers = 3\n"
                        "positional_learnable = true\nattention_mode = positional\n")
        cfg = parse_train_config(path)
        assert cfg.learning_rate == 0.5
        assert cfg.layers == 3
        assert cfg.positional_learnable is True
        assert cfg.attention_mode == "positional"

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("nope = 1\n")
        with pytest.raises(ConfigError, match="nope"):
            parse_train_config(path)

    def test_bad_value_cites_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("layers = many\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_train_config(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("\n# comment\nrng_seed = 9\n\n")
        assert parse_train_config(path).rng_seed == 9

    def test_invalid_config_value_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("neighborhood_dropout = 1.5\n")
        with pytest.raises(Exception):
            parse_train_config(path)
