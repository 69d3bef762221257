"""Command-line tests: exit codes, artifacts, determinism, and the
library/CLI embedding round trip."""

import json

import numpy as np
import pytest

from tgat.cli import main, parse_train_config
from tgat.errors import ConfigError
from tgat.layer import load_checkpoint
from tgat.temporal_graph import load_graph
from tgat.training import TrainConfig

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

    def test_unknown_config_key_exit_1(self, workspace, capsys):
        tmp_path, _, _, graph = workspace
        bad = tmp_path / "bad.txt"
        bad.write_text("rng_seed = 1\nwibble = 4\n")
        assert main(["train", str(graph), str(bad), str(tmp_path / "out")]) == 1
        assert "wibble" in capsys.readouterr().err

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

        from tgat.layer import embed
        model, extra = load_checkpoint(ckpt)
        graph = load_graph(graph_path)
        config = TrainConfig(**extra["train_config"])
        lib_vec = embed(model, 3, 0.5, graph, config.sampling(),
                        rng_seed=config.rng_seed)
        np.testing.assert_array_equal(cli_vec, lib_vec)

    def test_embed_rows_equal_batched_library_call(self, workspace, capsys):
        tmp_path, _, _, graph_path = workspace
        config = tmp_path / "uniform.txt"
        config.write_text(CONFIG_TEXT.replace("layers = 1", "layers = 2")
                          .replace("max_neighbors = 5", "max_neighbors = 2")
                          .replace("most-recent", "uniform"))
        assert main(["train", str(graph_path), str(config), str(tmp_path / "run")]) == 0
        ckpt = tmp_path / "run" / "checkpoint.json"
        # node 1 (item 0) has five events before t = 11, so its sample is drawn
        nodes, times = [1, 0, 3, 1, 4, 2], [11.0, 9.5, 11.0, 11.0, 6.0, 0.5]
        capsys.readouterr()
        assert main(["embed", str(ckpt), str(graph_path),
                     "--nodes", ",".join(map(str, nodes)),
                     "--times", ",".join(map(str, times))]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert [(int(r[0]), float(r[1])) for r in rows] == list(zip(nodes, times))
        cli = np.array([[float(v) for v in r[2:]] for r in rows])

        from tgat.layer import embed
        model, extra = load_checkpoint(ckpt)
        graph = load_graph(graph_path)
        config = TrainConfig(**extra["train_config"])
        assert config.sampling().strategy == "uniform"
        batched = embed(model, nodes, times, graph, config.sampling(),
                        rng_seed=config.rng_seed)
        np.testing.assert_array_equal(cli, batched)
        per_row = np.stack([embed(model, v, t, graph, config.sampling(),
                                  rng_seed=config.rng_seed) for v, t in zip(nodes, times)])
        np.testing.assert_allclose(cli, per_row, rtol=1e-12, atol=1e-12)

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
        assert "'layers'" in err and len(err.strip().splitlines()) == 1
        self._tamper(ckpt, layers=2, neighborhood_dropout=1.5)
        assert main(["eval", str(ckpt), str(graph)]) == 1
        assert "neighborhood_dropout" in capsys.readouterr().err

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
