"""Alternating benchmark pairs of two commits, and their summary.

    python scripts/bench_pairs.py PARENT CHANGE OUT.json WORK
        [--workloads lemma-suite,global-verify,lifespan-sweep] [--seeds 0,11] [--pairs 10]

Each commit is copied by ``git archive`` into WORK/parent and WORK/change,
two paths of equal length, and ``perfbench/run.py --seconds 25 --trace 0``
runs in each copy under PYTHONDONTWRITEBYTECODE=1, with every
``__pycache__`` removed before a run.  Pair k of a workload and seed runs
the parent first when k is even and the change first when k is odd.  After
every run OUT.json is rewritten with the runs so far and their summary, so
an interrupted session keeps what it measured; run again with the same
commits and OUT.json, it runs only the pairs still missing.

A run keeps its end-to-end metrics, its attempted and failed counts and,
from its record, the unscaled ``wall_s`` and ``setup_s`` (``speed.unscaled``)
as ``wall_s_unscaled`` and ``setup_s_unscaled``, its speed factor, and each
operation's median unscaled time over its passes (``op_s``, in the
workload's order).  Per workload, seed and
metric the summary gives each side's median and quartiles (inclusive
method), the parent's IQR, the relative change of the medians, the pairs
in which the change reads better and worse (ties count for neither), and a
verdict:

* ``gain``: the change is better in at least nine tenths of the pairs and
  its median beats the parent's by more than the parent's IQR;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's IQR is wider than the bound and not every run
  of the change reads better than every run of the parent;
* ``within bound`` otherwise.

The unscaled times take the bounds of their scaled metrics.  Uses the
standard library only.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 25
UNSCALED = ("wall_s", "setup_s")  # the record's speed.unscaled keys
SIDES = ("parent", "change")  # the copies' directory names, of equal length


def metric_rules(benchmark: dict) -> dict:
    """name -> (better, bound) of each end-to-end metric, and of the unscaled
    times, which take their scaled metric's bound."""
    rules = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    for name in UNSCALED:
        rules[f"{name}_unscaled"] = rules[name]
    return rules


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list, rules: dict) -> dict:
    """The summary of runs, each {"workload", "seed", "pair", "side",
    "metrics": {name: value}}, per "<workload> seed <seed>" and metric."""
    groups = {}
    for run in runs:
        key = f"{run['workload']} seed {run['seed']}"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    summary = {}
    for key, pairs in groups.items():
        whole = [p for _, p in sorted(pairs.items()) if all(side in p for side in SIDES)]
        summary[key] = {}
        for name, (better, bound) in rules.items():
            parent = [p["parent"][name] for p in whole if name in p["parent"]]
            change = [p["change"][name] for p in whole if name in p["change"]]
            if not parent or len(parent) != len(change):
                continue
            sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0: better
            gaps = [sign * (c - p) for p, c in zip(parent, change)]
            p1, pm, p3 = _quartiles(parent)
            c1, cm, c3 = _quartiles(change)
            iqr = p3 - p1
            relative = (cm - pm) / pm if pm else 0.0
            wins = sum(g < 0 for g in gaps)
            if wins >= 0.9 * len(gaps) and sign * (cm - pm) < -iqr:
                verdict = "gain"
            elif sign * relative > bound:
                verdict = "worse"
            elif pm and iqr / abs(pm) > bound and not all(
                    sign * (c - p) < 0 for c in change for p in parent):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            summary[key][name] = {
                "parent_median": pm, "parent_q1": p1, "parent_q3": p3, "parent_iqr": iqr,
                "change_median": cm, "change_q1": c1, "change_q3": c3, "relative": relative,
                "pairs": len(gaps), "pairs_change_better": wins,
                "pairs_change_worse": sum(g > 0 for g in gaps), "bound": bound,
                "verdict": verdict}
    return summary


def copy_commit(commit: str, dest: Path) -> None:
    """A clean ``git archive`` copy of commit at dest."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run_once(copy: Path, workload: str, seed: int) -> dict:
    """One ``run.py`` run in copy: its metrics, the unscaled times of its
    record and of its operations, and its attempted and failed counts."""
    for cache in list(copy.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                         cwd=copy, env=env, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    last = json.loads(lines[-1])
    record_path = next(re.search(r"record (\S+)$", line).group(1) for line in lines
                       if re.search(r"record (\S+)$", line))
    record = json.loads((copy / record_path).read_text())
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    for name in UNSCALED:
        metrics[f"{name}_unscaled"] = record["speed"]["unscaled"][name]
    op_s = [statistics.median(times) for times in zip(*(p["op_s"] for p in record["passes"]))]
    return {"metrics": metrics, "attempted": last["attempted"], "failed": last["failed"],
            "correct": last["correct"], "speed_factor": record["speed"]["factor"], "op_s": op_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out", type=Path)
    parser.add_argument("work", type=Path)
    parser.add_argument("--workloads", default="lemma-suite,global-verify,lifespan-sweep")
    parser.add_argument("--seeds", default="0,11")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    rules = metric_rules(json.loads((ROOT / "BENCHMARK.json").read_text()))
    commits = {side: subprocess.run(["git", "-C", str(ROOT), "rev-parse", commit], check=True,
                                    capture_output=True, text=True).stdout.strip()
               for side, commit in zip(SIDES, (args.parent, args.change))}
    for side, commit in commits.items():
        copy_commit(commit, args.work / side)
    earlier = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = earlier["runs"] if earlier.get("commits") == commits else []
    done = {(r["workload"], r["seed"], r["pair"], r["side"]) for r in runs}
    for workload in args.workloads.split(","):
        for seed in map(int, args.seeds.split(",")):
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    if (workload, seed, pair, side) in done:
                        continue
                    run = run_once(args.work / side, workload, seed)
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "side": side, "first": order[0], **run})
                    args.out.write_text(json.dumps(
                        {"commits": commits, "seconds": SECONDS, "runs": runs,
                         "summary": summarize(runs, rules)}, indent=1) + "\n")
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"wall_s {run['metrics']['wall_s']:.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
