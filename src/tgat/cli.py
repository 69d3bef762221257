"""Command-line entry point: ingest, train, eval, embed, check.

Exit codes are a stable contract: 0 success, 1 user/config error, 2 I/O
error. All randomness flows from the single ``rng_seed`` config key, so
reruns with identical inputs produce byte-identical outputs (manifests
excepted for their invocation timestamp) at one BLAS thread count: OpenBLAS
splits a large product between its threads by size, which can move the
last bits of a row.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import CheckpointError, ConfigError, TgatError, ValidationError
from .layer import SamplingConfig, embed, load_checkpoint, save_checkpoint
from .synthetic import tiny_fixture_graph
from .temporal_graph import (
    chronological_split,
    load_graph,
    load_graph_csv,
    mask_unseen,
    save_graph,
)
from .time_encoding import (
    format_kernel_reports,
    kernel_convergence_check,
    write_kernel_reports_csv,
)
from .training import (
    TrainConfig,
    evaluate_links,
    link_loss,
    node_classify,
    train,
    write_history_csv,
)


def _write_manifest(path: Path, command: str, dataset="", config="", outdir="",
                    seed=0) -> None:
    """Record a command's inputs, outputs and seed as ``key = value`` lines."""
    created = datetime.now(timezone.utc).isoformat()
    path.write_text(f"command = {command}\ndataset = {dataset}\nconfig = {config}\n"
                    f"outdir = {outdir}\nseed = {seed}\ncreated = {created}\n")


_CONFIG_FIELDS = {name: kind for name, kind, _ in TrainConfig.field_table}


def _config_value(key: str, text: str, where: str):
    """Parse the text of config key ``key`` as that field's type."""
    if key not in _CONFIG_FIELDS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    target = _CONFIG_FIELDS[key]
    try:
        if target is bool:
            if text.lower() not in ("true", "false"):
                raise ValueError(f"expected true/false, got {text!r}")
            return text.lower() == "true"
        return target(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None


def parse_train_config(path) -> TrainConfig:
    """Parse line-oriented ``key = value`` text into a TrainConfig.

    Blank lines and ``#`` comments are skipped; unknown and repeated keys are
    hard errors.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = _config_value(key, value.strip(), f"{path}:{lineno}")
    return TrainConfig(**values)


def _checkpoint_config(path, extra: dict) -> TrainConfig:
    """The TrainConfig stored with a checkpoint, built as ``TrainConfig(**stored)``:
    each value must already have its field's type."""
    stored = extra.get("train_config", {})
    where = f"{path}: train_config"
    if not isinstance(stored, dict):
        raise CheckpointError(f"{where} is not a key-value table")
    try:
        return TrainConfig(**stored)
    except (TypeError, ValidationError) as exc:  # an unknown key, a bad value
        raise CheckpointError(f"{where}: {exc}") from None


def _resolve_split(graph, config: TrainConfig):
    split = chronological_split(graph, config.train_frac, config.val_frac)
    if config.unseen_fraction > 0:
        split = mask_unseen(graph, split, config.unseen_fraction, config.rng_seed)
    return split


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    graph = load_graph_csv(args.dataset, feature_dim=args.feature_dim,
                           node_feature_dim=args.node_feature_dim,
                           time_divisor=args.time_divisor)
    save_graph(graph, args.out)
    print(f"{graph.num_nodes} nodes, {graph.num_events} events, t_max={graph.t_max!r}")
    _write_manifest(Path(str(args.out) + ".manifest.txt"), "ingest", dataset=args.dataset,
                    outdir=args.out)
    return 0


def cmd_train(args) -> int:
    config = parse_train_config(args.config)
    graph = load_graph(args.graph)
    split = _resolve_split(graph, config)
    model, history = train(graph, split, config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, outdir / "checkpoint.json",
                    extra={"train_config": asdict(config)})
    write_history_csv(history, outdir / "history.csv")
    _write_manifest(outdir / "manifest.txt", "train", dataset=args.graph, config=args.config,
                    outdir=outdir, seed=config.rng_seed)
    final = history[-1].val_ap if history else float("nan")
    print(f"trained {len(history)} epochs, best checkpoint written to {outdir} "
          f"(last val_ap={final!r})")
    return 0


def cmd_eval(args) -> int:
    if args.task == "node" and (args.split, args.period, args.max_events) != (
            "transductive", "test", 0):
        raise ConfigError("--task node scores the transductive test period in full; "
                          "it takes no --split inductive, --period val or --max-events")
    model, extra = load_checkpoint(args.checkpoint)
    config = _checkpoint_config(args.checkpoint, extra)
    graph = load_graph(args.graph)
    split = _resolve_split(graph, config)
    node_filter = "observed" if args.split == "transductive" else "unseen"
    if args.task == "link":
        result = evaluate_links(model, graph, split, period=args.period,
                                node_filter=node_filter, config=config,
                                rng_seed=config.rng_seed, max_events=args.max_events)
    else:
        result = node_classify(model, graph, split, config=config,
                               rng_seed=config.rng_seed)
    print(f"split={result.split_tag} task={args.task} acc={result.accuracy!r} "
          f"ap={result.average_precision!r} auc={result.auc!r}")
    return 0


def _parse_list(text: str, what: str, kind: type) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}: {exc}") from None


def cmd_embed(args) -> int:
    model, extra = load_checkpoint(args.checkpoint)
    config = _checkpoint_config(args.checkpoint, extra)
    graph = load_graph(args.graph)
    nodes = _parse_list(args.nodes, "node", int)
    times = _parse_list(args.times, "time", float)
    if len(times) == 1:
        times = times * len(nodes)
    if len(nodes) == 1:
        nodes = nodes * len(times)
    if len(nodes) != len(times) or not nodes:
        raise ConfigError(
            f"node and time lists must align (got {len(nodes)} nodes, {len(times)} times)")
    vecs = embed(model, nodes, times, graph, config.sampling(training=False),
                 rng_seed=config.rng_seed)
    lines = [",".join([str(node), repr(t)] + [repr(v) for v in vec.tolist()])
             for node, t, vec in zip(nodes, times, vecs)]
    output = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(output)
        _write_manifest(Path(str(args.out) + ".manifest.txt"), "embed", dataset=args.graph,
                        outdir=args.out, seed=config.rng_seed)
    else:
        sys.stdout.write(output)
    return 0


def _kernel_check(csv_path=None) -> bool:
    reports = kernel_convergence_check(k_values=[16, 4096], t_max=10.0,
                                       grid_size=100, trials=10, rng_seed=0)
    print(format_kernel_reports(reports))
    if csv_path:
        write_kernel_reports_csv(reports, csv_path)
    small, big = reports[0], reports[-1]
    mean_ok = float(big.trial_sup_errors[:5].mean()) < 0.10
    wins = int((big.trial_sup_errors < small.trial_sup_errors).sum())
    print(f"sup error at k=4096: mean over 5 trials = {big.trial_sup_errors[:5].mean():.4f} "
          f"(need < 0.10); beats k=16 in {wins}/10 trials (need >= 9)")
    return mean_ok and wins >= 9


def _grad_check_suite() -> bool:
    from .layer import Dims, TgatModel

    graph = tiny_fixture_graph()
    dims = Dims(d0=3, d=4, d_t=4, d_h=3, d_f=5, d_e=2)
    sampling = SamplingConfig(max_neighbors=4, strategy="most-recent")
    batch = [0, 4, 5]  # event 0 comes first, so both its endpoints have no neighbors
    ok = True
    for mode, heads, learnable in (("learned", 1, False), ("learned", 2, False),
                                   ("constant", 2, False), ("positional", 2, True)):
        model = TgatModel.create(dims, layer_count=2, head_count=heads, attention_mode=mode,
                                 rng_seed=7, t_max=graph.t_max,
                                 positional_learnable=learnable, max_positions=8)
        params = model.parameters()
        report = ad.grad_check(
            lambda: link_loss(model, graph, batch, sampling, 1, rng_seed=3),
            params, tolerance=1e-4, max_coords_per_param=6)
        label = "learnable positional" if learnable else mode
        print(f"gradient check ({label}, {heads} head(s), 2 layers): "
              f"max rel error {report.max_rel_error:.2e} "
              f"over {report.checked_coords} coords -> "
              f"{'ok' if report.passed else 'FAILED'}")
        ok = ok and report.passed

    # negative control: a deliberately wrong backward rule must be caught
    w = ad.parameter(np.array([[0.3, -0.7]]))

    def broken() -> ad.Tensor:
        def pull(g):
            w._accumulate(3.0 * g)  # wrong: claims dy/dw = 3 while y = w
        return ad.apply_op(w.data.copy(), (w,), pull)

    control = ad.grad_check(broken, [w], tolerance=1e-4)
    print(f"negative control (broken rule detected): {'ok' if not control.passed else 'FAILED'}")
    return ok and not control.passed


def cmd_check(args) -> int:
    if not (args.kernel or args.grad):
        raise ConfigError("check needs --kernel and/or --grad")
    passed = True
    if args.kernel:
        passed = _kernel_check(args.csv) and passed
    if args.grad:
        passed = _grad_check_suite() and passed
    print("all checks passed" if passed else "CHECKS FAILED")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, per the exit-code contract
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tgat",
                     description="Temporal graph attention: train and evaluate "
                                 "time-aware link prediction from the command line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[], help="convert an interaction CSV to a graph file")
    p.add_argument("dataset", help="CSV: user_id,item_id,timestamp,state_label,f_1..f_de")
    p.add_argument("out", help="output .npz graph file")
    p.add_argument("--feature-dim", type=int, default=None,
                   help="edge feature count (default: inferred from the header)")
    p.add_argument("--node-feature-dim", type=int, default=None)
    p.add_argument("--time-divisor", type=float, default=1.0,
                   help="divide all timestamps by this constant at ingestion")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model from a graph file and a config file")
    p.add_argument("graph")
    p.add_argument("config")
    p.add_argument("outdir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("graph")
    p.add_argument("--split", choices=["transductive", "inductive"], default="transductive")
    p.add_argument("--task", choices=["link", "node"], default="link")
    p.add_argument("--period", choices=["val", "test"], default="test")
    p.add_argument("--max-events", type=int, default=0,
                   help="cap on evaluation events (0 = all)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", help="export time-aware embeddings as CSV rows")
    p.add_argument("checkpoint")
    p.add_argument("graph")
    p.add_argument("--nodes", required=True, help="comma-separated node ids")
    p.add_argument("--times", required=True, help="comma-separated timestamps")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("check", help="run the kernel-convergence and gradient suites")
    p.add_argument("--kernel", action="store_true")
    p.add_argument("--grad", action="store_true")
    p.add_argument("--csv", default=None, help="also write the kernel table as CSV")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TgatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
