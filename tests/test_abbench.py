"""tools/abbench.py: the working tree against ``HEAD``, one short pair per call,
and its verdict on fabricated runs.

Both sides run the same code apart from uncommitted edits, so every check
passes and ``test_ap`` is equal; the file must hold the fields a change's
``BENCH_<n>.json`` is read for.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPECS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = [m["name"] for m in SPECS]

_spec = importlib.util.spec_from_file_location("abbench", ROOT / "tools" / "abbench.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

needs_git = pytest.mark.skipif(not (ROOT / ".git").exists() or shutil.which("git") is None,
                               reason="needs a git checkout")


def abbench(tmp_path, workload):
    out = tmp_path / "BENCH.json"
    run = subprocess.run(
        [sys.executable, "tools/abbench.py", "HEAD", "--out", str(out), "--pairs", "1",
         "--seconds", "1", "--workloads", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return run, json.loads(out.read_text())


@needs_git
def test_one_pair_against_head(tmp_path):
    run, bench = abbench(tmp_path, "embed-l2")
    # one 1-second pair may put a noisy metric outside its bound; that, and
    # only that, exits 1 here
    assert run.returncode == (1 if tool.failures(bench) else 0), \
        run.stdout[-2000:] + run.stderr[-2000:]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert bench["base"] == {"ref": "HEAD", "commit": head}
    assert bench["change"]["commit"] == head
    assert bench["src_lines"]["base"] > 0 and bench["src_lines"]["change"] > 0
    # the fingerprints are compared only when the package was edited
    assert "skipped" in bench["equivalence"] or bench["equivalence"]["arrays"] > 0
    assert bench["env"]["nproc"] >= 1 and bench["env"]["numpy"] and bench["env"]["blas"]
    assert set(bench["env"]["blas_threads"].values()) == {"1"}
    assert (bench["pairs"], bench["seconds"], bench["seeds"]) == (1, 1.0, [301])
    assert bench["all_runs_ok"] is True
    w = bench["workloads"]["embed-l2"]
    assert w["test_ap_equal"] is True
    assert set(w["metrics"]) == set(METRICS)
    for m in w["metrics"].values():
        assert m["pairs"] == 1 and m["change_wins"] in (0, 1)
        assert m["base"]["q1"] <= m["base"]["median"] <= m["base"]["q3"]
        assert isinstance(m["within_bound"], bool) and m["bound"] > 0
        assert isinstance(m["gain_resolved"], bool) and isinstance(m["worse_resolved"], bool)
        assert not (m["gain_resolved"] and m["worse_resolved"])
    assert w["metrics"]["test_ap"]["within_bound"] is True
    (pair,) = w["runs"]
    assert pair["seed"] == 301 and pair["first"] == "base"
    for side in ("base", "change"):
        assert pair[side]["ok"] and pair[side]["exit"] == 0 and pair[side]["failed_checks"] == []
        assert pair[side]["failed"] == 0 and pair[side]["attempted"] > 0


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_change_side_is_a_snapshot_of_the_working_tree(tmp_path):
    # a repository with a committed, a modified, a deleted, an untracked and
    # an ignored file, and a compiled module
    repo, dest = tmp_path / "repo", tmp_path / "snapshot"
    (repo / "src" / "__pycache__").mkdir(parents=True)
    files = {".gitignore": "__pycache__/\n*.log\n", "kept.py": "a = 1\n",
             "src/changed.py": "b = 1\n", "gone.py": "c = 1\n"}
    for name, text in files.items():
        (repo / name).write_text(text)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "changed.py").write_text("b = 2\n")
    (repo / "gone.py").unlink()
    (repo / "src" / "new.py").write_text("d = 1\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "src" / "__pycache__" / "changed.cpython.pyc").write_bytes(b"\0")
    tool.snapshot(repo, dest)
    taken = sorted(str(f.relative_to(dest)) for f in dest.rglob("*") if f.is_file())
    assert taken == [".gitignore", "kept.py", "src/changed.py", "src/new.py"]
    assert (dest / "src" / "changed.py").read_text() == "b = 2\n"
    assert (dest / "src" / "new.py").read_text() == "d = 1\n"


def test_src_lines_counts_as_wc(tmp_path):
    # what `cat src/tgat/*.py | wc -l` prints in each of two trees: newlines
    # only in the package's own modules, so a last line without one, a
    # subpackage and a file that is no module count nothing
    trees = {"base": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3"},
             "change": {"a.py": "x = 1\n", "b.py": "\n\n\nz = 3\n", "notes.txt": "n\n",
                        "sub/c.py": "w = 4\n"}}
    for side, files in trees.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / "tgat" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    assert {side: tool.src_lines(tmp_path / side) for side in trees} == {"base": 2, "change": 5}


def test_src_code_lines_skip_docstrings_comments_and_blanks(tmp_path):
    # the module's, a class's, a method's and an async function's docstrings,
    # blank and comment-only lines and a subpackage's module are no code; a
    # string that is no docstring, even a line of it that starts with #, and
    # a line with a trailing comment are
    module = '''"""Module docstring,
over two lines."""

import os  # a trailing comment: code
# a comment-only line


class A:
    """Class docstring."""

    def f(self):
        """Method docstring,

        with a blank line inside."""
        # indented comment
        text = """not a docstring,
# nor is this a comment"""
        return text


async def g():
    r"""Raw docstring."""
    "a second string is no docstring"
'''
    package = tmp_path / "src" / "tgat"
    (package / "sub").mkdir(parents=True)
    (package / "m.py").write_text(module)
    (package / "sub" / "c.py").write_text("w = 4\n")
    assert tool.src_code_lines(tmp_path) == 8
    assert tool.src_lines(tmp_path) == module.count("\n")


def test_same_package_reads_the_modules_only(tmp_path):
    # a changed module, an added one or a deleted one is another package; a
    # file that is no module, or a subpackage, is not read
    def tree(name, files):
        for path, text in files.items():
            (tmp_path / name / "src" / "tgat" / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name / "src" / "tgat" / path).write_text(text)
        return tmp_path / name
    modules = {"a.py": "x = 1\n", "b.py": "y = 2\n"}
    base = tree("base", modules)
    assert tool.same_package(base, tree("notes", {**modules, "notes.txt": "n\n",
                                                  "sub/c.py": "z\n"}))
    for name, files in (("edited", {**modules, "b.py": "y = 3\n"}),
                        ("added", {**modules, "c.py": ""}), ("deleted", {"a.py": "x = 1\n"})):
        assert not tool.same_package(base, tree(name, files)), name


def prints(**sha):
    return {name: {"sha256": digest, "max_abs": 1.0} for name, digest in sha.items()}


def test_equivalence_summary():
    base = prints(a="0", b="1", c="2")
    assert tool.equivalence_summary(base, prints(a="0", b="1", c="2")) == {
        "arrays": 3, "byte_equal": 3, "differ": 0, "one_side": 0,
        "differ_names": [], "one_side_names": []}
    assert tool.equivalence_summary(base, prints(a="0", b="9", c="2")) == {
        "arrays": 3, "byte_equal": 2, "differ": 1, "one_side": 0,
        "differ_names": ["b"], "one_side_names": []}
    # a name on either side only counts once, neither equal nor differing
    assert tool.equivalence_summary(base, prints(a="0", b="1", d="3")) == {
        "arrays": 4, "byte_equal": 2, "differ": 0, "one_side": 2,
        "differ_names": [], "one_side_names": ["c", "d"]}
    many = tool.equivalence_summary(prints(**{f"n{k:02}": "0" for k in range(25)}),
                                    prints(**{f"n{k:02}": "1" for k in range(25)}))
    assert many["differ"] == 25 and many["differ_names"] == [f"n{k:02}" for k in range(20)]
    assert tool.equivalence_line(many) == (
        "equivalence: 0 of 25 arrays byte-equal, 25 differ, 0 on one side only")


def test_equivalence_runs_the_change_script_on_each_package(tmp_path):
    # a stand-in for the grid: the change side's script, run in each tree,
    # fingerprints what that tree's own package holds
    script = ("import argparse, json, tgat\n"
              "parser = argparse.ArgumentParser()\n"
              "parser.add_argument('--out')\n"
              "with open(parser.parse_args().out, 'w') as fh:\n"
              "    json.dump({'arrays': {k: {'sha256': v} for k, v in tgat.ARRAYS.items()}}, fh)\n")
    roots = {side: tmp_path / side for side in ("base", "change")}
    for side, arrays in (("base", {"a": "0", "b": "1"}), ("change", {"a": "0", "b": "2"})):
        (roots[side] / "src" / "tgat").mkdir(parents=True)
        (roots[side] / "src" / "tgat" / "__init__.py").write_text(f"ARRAYS = {arrays!r}\n")
    (roots["change"] / "tools").mkdir()
    (roots["change"] / "tools" / "equivalence.py").write_text(script)
    assert tool.equivalence(roots, tmp_path) == {
        "arrays": 2, "byte_equal": 1, "differ": 1, "one_side": 0,
        "differ_names": ["b"], "one_side_names": []}
    # a script the base package cannot run is recorded, not raised
    (roots["base"] / "src" / "tgat" / "__init__.py").write_text("")
    record = tool.equivalence(roots, tmp_path)
    assert (record["failed"], record["exit"]) == ("base", 1) and "ARRAYS" in record["stderr"]
    assert tool.equivalence_line(record) == "equivalence: FAILED on the base side, exit 1"
    # byte-identical packages are not run at all
    shutil.rmtree(roots["change"] / "tools")
    (roots["change"] / "src" / "tgat" / "__init__.py").write_text("")
    record = tool.equivalence(roots, tmp_path)
    assert record == {"skipped": "src/tgat/*.py is byte-identical on both sides"}
    assert tool.equivalence_line(record) == (
        "equivalence: skipped, src/tgat/*.py is byte-identical on both sides")


@needs_git
def test_a_failed_run_exits_1(tmp_path):
    # run.py rejects an unknown workload before printing metrics
    run, bench = abbench(tmp_path, "no-such-workload")
    assert run.returncode == 1
    assert bench["all_runs_ok"] is False
    w = bench["workloads"]["no-such-workload"]
    assert all(m is None for m in w["metrics"].values()) and w["test_ap_equal"] is False
    assert [w["runs"][0][side]["exit"] for side in ("base", "change")] == [2, 2]


# one base run's metrics; pair k reads them times 1 + k / 100 on both sides
BASE = {"setup_s": 0.002, "op_ms": 15.0, "infer_per_s": 2700.0, "test_ap": 0.6,
        "peak_rss_mb": 80.0}


def fabricated(ratios: dict, change_ok: bool = True) -> dict:
    """A record of one workload and three pairs, summarized as abbench does,
    whose change runs read the base runs' metrics times ``ratios``."""
    def side(k, ratio_of, ok=True):
        return {"ok": ok, "metrics": {name: value * (1 + k / 100) * ratio_of(name)
                                      for name, value in BASE.items()}}
    pairs = [{"base": side(k, lambda name: 1.0),
              "change": side(k, lambda name: ratios.get(name, 1.0), change_ok)}
             for k in range(3)]
    metrics = {spec["name"]: tool.summarize(pairs, spec) for spec in SPECS}
    return {"all_runs_ok": change_ok, "workloads": {"train-l2": {"metrics": metrics}}}


@pytest.mark.parametrize("ratios, failing", [
    ({}, []),
    # worse, but within the bound
    ({"op_ms": 1.2, "infer_per_s": 0.8, "peak_rss_mb": 1.14, "setup_s": 1.24}, []),
    # better by far more than any bound
    ({"op_ms": 0.5, "infer_per_s": 2.0, "peak_rss_mb": 0.5, "test_ap": 1.5}, []),
    ({"op_ms": 1.3}, ["op_ms"]),
    ({"infer_per_s": 0.7}, ["infer_per_s"]),
    ({"peak_rss_mb": 1.16, "test_ap": 0.75}, ["test_ap", "peak_rss_mb"]),
], ids=["equal", "worse-within", "better", "slower-op", "fewer-inferences", "rss-and-ap"])
def test_a_metric_outside_its_bound_fails(ratios, failing):
    record = fabricated(ratios)
    reasons = tool.failures(record)
    assert [line.split(":")[0] for line in reasons] == [f"train-l2 {name}" for name in failing]
    assert all(record["workloads"]["train-l2"]["metrics"][name]["within_bound"] is (
        name not in failing) for name in METRICS)


def test_a_failed_run_fails_and_a_missing_metric_is_skipped():
    record = fabricated({"op_ms": 1.3}, change_ok=False)
    record["workloads"]["embed-l2"] = {"metrics": {name: None for name in METRICS}}
    reasons = tool.failures(record)
    assert reasons[0] == "a run failed a check or exited non-zero"
    assert reasons[1:] == ["train-l2 op_ms: 15.15 -> 19.695 ms is worse by more than "
                           "its bound, 24%"]


def spec_of(name):
    return next(spec for spec in SPECS if spec["name"] == name)


def paired(name, base, change):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
            for b, c in zip(base, change)]


@pytest.mark.parametrize("wins, resolved", [(8, False), (9, True), (10, True)])
def test_a_gain_is_resolved_in_9_of_10_pairs(wins, resolved):
    # the change is 1 ms faster in ``wins`` pairs; of the rest, one pair is
    # a tie, which counts for neither side, and any other is slower. The gap
    # between the medians, 1 ms, is far beyond the base's spread, 0.045 ms
    base = [14.0 + 0.01 * k for k in range(10)]
    change = [b - 1.0 if k < wins else b if k == wins else b + 0.5
              for k, b in enumerate(base)]
    m = tool.summarize(paired("op_ms", base, change), spec_of("op_ms"))
    assert m["change_wins"] == wins and m["pairs"] == 10
    assert m["gain_resolved"] is resolved


def test_a_gap_within_the_base_spread_is_not_resolved():
    # better in 10 of 10 pairs, by 0.5 ms, where the base's quartiles are
    # 4.5 ms apart
    base = [10.0 + k for k in range(10)]
    m = tool.summarize(paired("op_ms", base, [b - 0.5 for b in base]), spec_of("op_ms"))
    assert m["change_wins"] == 10 and m["base"]["q3"] - m["base"]["q1"] == 4.5
    assert m["gain_resolved"] is False


@pytest.mark.parametrize("factor, resolved", [(1.5, True), (0.5, False)])
def test_a_gain_is_judged_in_the_better_direction(factor, resolved):
    # more inferences a second is the gain; fewer, in every pair, is none
    base = [3000.0 + k for k in range(10)]
    m = tool.summarize(paired("infer_per_s", base, [b * factor for b in base]),
                       spec_of("infer_per_s"))
    assert m["gain_resolved"] is resolved


@pytest.mark.parametrize("losses, resolved", [(8, False), (9, True), (10, True)])
def test_a_worse_change_is_resolved_in_9_of_10_pairs(losses, resolved):
    # the mirror of a resolved gain: 0.5 MB more in ``losses`` pairs, one
    # tie, any other pair lower; the gap between the medians, 0.5 MB, is far
    # beyond the base's spread, 0.045 MB, and within the 15% bound
    base = [54.0 + 0.01 * k for k in range(10)]
    change = [b + 0.5 if k < losses else b if k == losses else b - 1.0
              for k, b in enumerate(base)]
    m = tool.summarize(paired("peak_rss_mb", base, change), spec_of("peak_rss_mb"))
    assert m["change_wins"] == 10 - losses - (losses < 10)
    assert m["within_bound"] is True and m["gain_resolved"] is False
    assert m["worse_resolved"] is resolved


def test_a_loss_within_the_base_spread_is_not_resolved():
    # worse in 10 of 10 pairs, by 0.5 ms, where the base's quartiles are
    # 4.5 ms apart
    base = [10.0 + k for k in range(10)]
    m = tool.summarize(paired("op_ms", base, [b + 0.5 for b in base]), spec_of("op_ms"))
    assert m["change_wins"] == 0 and m["worse_resolved"] is False


@pytest.mark.parametrize("factor, resolved", [(0.9, True), (1.1, False)])
def test_a_loss_is_judged_in_the_better_direction(factor, resolved):
    # fewer inferences a second, in every pair, is worse; more is not
    base = [3000.0 + k for k in range(10)]
    m = tool.summarize(paired("infer_per_s", base, [b * factor for b in base]),
                       spec_of("infer_per_s"))
    assert m["worse_resolved"] is resolved and m["within_bound"] is True
