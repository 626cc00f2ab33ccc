"""scripts/bench_pairs.py's summary of canned benchmark pairs; no benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(workload, seed, parent, change):
    """Canned runs of pairs (parent metrics, change metrics)."""
    return [{"workload": workload, "seed": seed, "pair": k, "side": side, "metrics": metrics}
            for k, pair in enumerate(zip(parent, change))
            for side, metrics in zip(("parent", "change"), pair)]


def test_rules_are_the_benchmarks_bounds_and_the_unscaled_times_take_theirs():
    rules = _tool().metric_rules(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert rules["wall_s"] == rules["wall_s_unscaled"] == ("lower", 0.25)
    assert rules["setup_s_unscaled"] == rules["setup_s"]
    assert rules["pass_ratio"] == ("higher", 0.1) and rules["peak_mem_mb"] == ("lower", 0.2)


def test_summary_of_canned_pairs():
    tool = _tool()
    rules = {"wall_s": ("lower", 0.25), "peak_mem_mb": ("lower", 0.2),
             "pass_ratio": ("higher", 0.1), "setup_s": ("lower", 0.25)}
    parent_wall = [1.0, 1.1, 0.9, 1.2, 1.0, 0.95, 1.05, 1.0, 1.1, 0.9]
    change_wall = [0.8, 0.85, 0.8, 0.9, 0.8, 0.75, 0.8, 0.82, 1.2, 0.78]  # 9 of 10 better
    parent = [{"wall_s": w, "peak_mem_mb": 2.0, "pass_ratio": 0.9, "setup_s": s}
              for w, s in zip(parent_wall, [0.1, 0.2] * 5)]
    change = [{"wall_s": w, "peak_mem_mb": 2.0 + 0.5 * (k == 0), "pass_ratio": 0.9,
               "setup_s": s} for k, (w, s) in enumerate(zip(change_wall, [0.15] * 10))]
    runs = _runs("lemma-suite", 7, parent, change)
    runs += _runs("lemma-suite", 7, [{"wall_s": 5.0}], [])  # pair 10 has no change run
    summary = tool.summarize(runs, rules)["lemma-suite seed 7"]

    wall = summary["wall_s"]
    assert wall["pairs"] == 10 and wall["pairs_change_better"] == 9
    assert wall["pairs_change_worse"] == 1
    assert wall["parent_median"] == 1.0 and wall["change_median"] == 0.8
    assert wall["parent_q1"] == pytest.approx(0.9625)
    assert wall["parent_q3"] == pytest.approx(1.0875)
    assert wall["parent_iqr"] == pytest.approx(0.125)
    assert wall["relative"] == pytest.approx(-0.2) and wall["verdict"] == "gain"
    # one pair worse by 25%, the medians equal: ties count for neither side
    memory = summary["peak_mem_mb"]
    assert (memory["pairs_change_better"], memory["pairs_change_worse"]) == (0, 1)
    assert memory["verdict"] == "within bound"
    assert summary["pass_ratio"]["verdict"] == "within bound"
    # the parent's IQR (0.1 on a median of 0.15) is wider than the bound
    assert summary["setup_s"]["verdict"] == "unresolved"


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("lower", [1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "worse"),
    ("higher", [1.0, 1.0, 1.0], [0.75, 0.75, 0.75], "worse"),
    ("higher", [1.0, 1.0, 1.0], [0.85, 0.85, 0.85], "within bound"),
    ("higher", [1.0, 1.0, 1.0], [1.1, 1.1, 1.1], "gain"),
    ("lower", [1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8], "gain"),
    ("lower", [1.0, 2.0, 3.0, 4.0], [0.9, 0.9, 0.9, 5.0], "unresolved"),
    # every change run beats every parent run, by less than the parent's IQR of 2.25
    ("lower", [1.0, 1.0, 3.0, 4.0], [0.9, 0.9, 0.9, 0.9], "within bound"),
    ("lower", [1.0, 1.0, 1.0], [1.1, 1.1, 1.1], "within bound"),
])
def test_verdicts(better, parent, change, verdict):
    runs = _runs("w", 0, [{"m": v} for v in parent], [{"m": v} for v in change])
    assert _tool().summarize(runs, {"m": (better, 0.2)})["w seed 0"]["m"]["verdict"] == verdict
