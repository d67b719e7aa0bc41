"""The summary of ``scripts/bench_pairs.py`` on canned result lines."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _stdout(plan_s, rss, correct=True, failed=0):
    """What perfbench/run.py prints: a detail line, then the result line."""
    result = {"correct": correct, "attempted": 5, "failed": failed,
              "metrics": {"plan_s": {"value": plan_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return json.dumps({"detail": {"samples": []}}) + "\n" + json.dumps(result) + "\n"


def _pairs(parent_plan, change_plan, parent_rss, change_rss):
    return [(bench_pairs.parse_result(_stdout(a, c)), bench_pairs.parse_result(_stdout(b, d)))
            for a, b, c, d in zip(parent_plan, change_plan, parent_rss, change_rss)]


def test_summary_medians_quartiles_ratio_and_wins():
    pairs = _pairs([0.10, 0.12, 0.11, 0.13, 0.14], [0.08, 0.09, 0.13, 0.07, 0.10],
                   [60.0, 61.0, 62.0, 63.0, 64.0], [60.0, 62.0, 62.5, 63.0, 63.5])
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs)}
    plan = rows["plan_s"]
    assert plan["parent"] == pytest.approx((0.11, 0.12, 0.13))
    assert plan["change"] == pytest.approx((0.08, 0.09, 0.10))
    assert plan["ratio"] == pytest.approx(0.09 / 0.12)
    assert (plan["wins"], plan["pairs"], plan["unit"]) == (4, 5, "s")
    rss = rows["peak_rss_mb"]
    assert rss["ratio"] == pytest.approx(62.5 / 62.0)
    assert rss["wins"] == 1  # ties win nothing
    assert bench_pairs.failures(pairs) == []
    lines = bench_pairs.format_rows(bench_pairs.summarize(pairs))
    assert len(lines) == 3 and "4/5" in lines[1] and "0.750" in lines[1]


def test_declared_direction_flips_the_wins():
    pairs = _pairs([1.0, 2.0], [2.0, 3.0], [1.0, 1.0], [1.0, 1.0])
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs, {"plan_s": "higher"})}
    assert rows["plan_s"]["wins"] == 2
    assert rows["peak_rss_mb"]["wins"] == 0


def test_a_single_pair_has_degenerate_quartiles():
    rows = bench_pairs.summarize(_pairs([0.2], [0.1], [60.0], [61.0]))
    assert rows[0]["parent"] == (0.2, 0.2, 0.2) and rows[0]["wins"] == 1


def test_failed_runs_are_reported():
    good = bench_pairs.parse_result(_stdout(0.1, 60.0))
    pairs = [(good, bench_pairs.parse_result(_stdout(0.1, 60.0, correct=False, failed=2))),
             (bench_pairs.parse_result(_stdout(0.2, 60.0, failed=1)), good),
             ({"correct": False, "error": "exit 1: boom"}, good),
             (good, good)]
    assert bench_pairs.failures(pairs) == [
        "pair 1 change: correct=False failed=2",
        "pair 2 parent: correct=True failed=1",
        "pair 3 parent: correct=False failed=None exit 1: boom"]
    rows = bench_pairs.summarize(pairs)
    assert rows[0]["pairs"] == 3  # only the pair without a result line is left out


def test_parse_result_takes_the_last_line():
    assert bench_pairs.parse_result(_stdout(0.3, 70.0))["metrics"]["plan_s"]["value"] == 0.3
    assert bench_pairs.parse_result("") == {}


def test_workload_list_splits_on_commas():
    assert bench_pairs.workload_list("ld3f_oracle") == ["ld3f_oracle"]
    assert bench_pairs.workload_list("miqp_plan, ga_plan") == ["miqp_plan", "ga_plan"]
    for bad in ("", "miqp_plan,", "ga_plan,,miqp_plan", "ga_plan,ga_plan"):
        with pytest.raises(bench_pairs.argparse.ArgumentTypeError):
            bench_pairs.workload_list(bad)


def _checkouts(tmp_path):
    dirs = []
    for side in bench_pairs.SIDES:
        os.makedirs(tmp_path / side / "perfbench")
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        dirs.append(str(tmp_path / side))
    return dirs


def test_main_prints_one_table_per_workload(tmp_path, monkeypatch, capsys):
    # canned result lines: the change is faster on miqp_plan, and one of
    # its ga_plan runs reports a failed op
    plan = {("miqp_plan", "parent"): 0.2, ("miqp_plan", "change"): 0.1,
            ("ga_plan", "parent"): 0.3, ("ga_plan", "change"): 0.3}
    dirs, calls = _checkouts(tmp_path), []

    def canned(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        calls.append((workload, side))
        failed = int(workload == "ga_plan" and side == "change" and len(calls) == 6)
        return bench_pairs.parse_result(_stdout(plan[workload, side], 60.0, failed=failed))

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    code = bench_pairs.main(dirs + ["--workload", "miqp_plan,ga_plan", "--pairs", "2",
                                    "--seconds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert calls == [("miqp_plan", "parent"), ("miqp_plan", "change"),
                     ("miqp_plan", "change"), ("miqp_plan", "parent"),
                     ("ga_plan", "parent"), ("ga_plan", "change"),
                     ("ga_plan", "change"), ("ga_plan", "parent")]
    assert lines[0] == "miqp_plan seed 7, 2 pairs of 1 s"
    assert lines[2].startswith("plan_s") and "0.500" in lines[2] and "2/2" in lines[2]
    assert lines[4] == "" and lines[5] == "ga_plan seed 7, 2 pairs of 1 s"
    assert lines[7].startswith("plan_s") and "1.000" in lines[7] and "0/2" in lines[7]
    assert lines[9:] == ["failed: pair 1 change: correct=True failed=1"]
