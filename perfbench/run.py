"""wavecrit benchmark: three seeded workloads driven through the public entry points.

    python3 perfbench/run.py --workload {global-verify,lifespan-sweep,lemma-suite}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; it measures ``<checkout>/src/wavecrit``
and refuses to run without it.  A run makes a fixed number of passes over
the workload's operations, ``--seconds`` divided by the workload's nominal
pass time, so that one seed always attempts the same operations.  Outputs
are checked after each pass, outside the timed region; every pass writes
into its own temporary ``--out-dir``, removed once its size has been read.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several interpreter-start-to-ready probes) and ``wall_s`` (mean pass
time), both scaled to the machine's fast state with ``speed.Gauge``;
``peak_mem_mb`` (VmHWM of this process minus its RSS after set-up) and
``pass_ratio`` (1 - fail_ratio).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``tracing.PER_LAYER``.

A results record with the environment goes to ``.perfbench_out/records``.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_mem_mb", "MB"), ("pass_ratio", "ratio")]
SETUP_PROBES = 5
# a pass's wall time, between the machine's fast and slow states; sets how
# many passes ``--seconds`` buys, and so the operations a run attempts
NOMINAL_PASS_S = {"global-verify": 7.0, "lifespan-sweep": 1.4, "lemma-suite": 5.0}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("global-verify", "lifespan-sweep", "lemma-suite"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# measurements of this process and of the machine

def _status_kb(key: str) -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise KeyError(key)


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip()
                  for line in _read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3"):
            caches[f"L{level}" + ("" if kind == "Unified" else f"-{kind}")] = _read(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": bootstrap.nproc(),
        "cpu_model": model,
        "caches": caches,
        "platform": platform.platform(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from launching a fresh interpreter to its "ready" line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                          cwd=bootstrap.ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


# --------------------------------------------------------------------------
# passes

def _tree_size(path: Path) -> tuple:
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def judge(op, outcome, op_dir: Path, earlier: dict, reference: dict) -> dict:
    """Check one operation's output; ``problems`` lists wrong or missing output."""
    problems, values = op.check(outcome, op_dir, earlier)
    if op.name in reference:
        import workloads

        problems += workloads.compare_reference(values, reference[op.name])
    exit_failure = outcome.error is not None or (op.is_cli and outcome.rc != 0)
    return {"op": op.name, "rc": outcome.rc, "error": outcome.error, "problems": problems,
            "values": values, "failed": bool(problems) or exit_failure,
            "nonzero_exit": op.is_cli and exit_failure}


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes of a run: fixed by the arguments, never by how fast they go."""
    n = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    return n + n % 2 if trace else n  # traced runs alternate untraced/traced


def run_pass(wl, out_root: Path, reference: dict, tracer=None, gauge=None) -> dict:
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=out_root))
    op_dirs = [pass_dir / f"{k:02d}-{op.name}" for k, op in enumerate(wl.ops)]
    try:
        if tracer is not None:
            tracer.begin_pass()
            tracer.install()
        try:
            outcomes, op_s = [], []
            # kernel samples before the first operation and after each one
            kernel_s = [gauge.sample()] if gauge is not None else []
            for op, op_dir in zip(wl.ops, op_dirs):
                start = time.perf_counter()
                outcomes.append(op.run(op_dir))
                op_s.append(time.perf_counter() - start)
                if gauge is not None:
                    kernel_s.append(gauge.sample(op_s[-1]))
        finally:
            if tracer is not None:
                tracer.uninstall()
        results, earlier = [], {}
        for op, outcome, op_dir in zip(wl.ops, outcomes, op_dirs):
            result = judge(op, outcome, op_dir, earlier, reference)
            earlier[op.name] = result["values"]
            results.append(result)
        written, files = _tree_size(pass_dir)
    finally:
        shutil.rmtree(pass_dir)
    return {"wall_s": sum(op_s), "op_s": op_s, "kernel_s": kernel_s,
            "traced": tracer is not None, "results": results,
            "cli": {"bytes": written, "files": files,
                    "nonzero_exits": sum(r["nonzero_exit"] for r in results)}}


def load_reference(seed: int) -> dict:
    import workloads

    if seed != workloads.DEFAULT_SEED:
        return {}
    return json.loads((HERE / "reference.json").read_text())


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    package = bootstrap.load_package()
    import speed
    import tracing
    import workloads

    wl = workloads.build(args.workload, args.seed)
    rss_after_setup_kb = _status_kb("VmRSS")
    reference = load_reference(args.seed)
    out_root = bootstrap.OUT / "tmp"
    out_root.mkdir(parents=True, exist_ok=True)

    # set-up probes are spread over the run, between passes, so that one slow
    # spell of the machine does not catch them all
    probes = 0 if args.trace else SETUP_PROBES
    n_passes = pass_count(args.workload, args.seconds, bool(args.trace))
    probe_before = Counter(k * n_passes // probes for k in range(probes))
    setup_times = []
    tracer = tracing.Tracer(package) if args.trace else None
    gauge = None if args.trace else speed.Gauge()
    passes = []
    for k in range(n_passes):
        for _ in range(probe_before[k]):
            setup_times.append(probe_setup(args.workload, args.seed))
            gauge.sample(setup_times[-1])
        traced = tracer is not None and k % 2 == 1
        passes.append(run_pass(wl, out_root, reference, tracer if traced else None, gauge))
        passes[-1]["hwm_mb"] = (_status_kb("VmHWM") - rss_after_setup_kb) / 1024.0

    results = [r for p in passes for r in p["results"]]
    attempted = len(results)
    failed = sum(r["failed"] for r in results)
    correct = not any(r["problems"] for r in results)
    plain = [p["wall_s"] for p in passes if not p["traced"]]

    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        per_pass = [tracing.pass_metrics(tracer, k, p["cli"]) for k, p in enumerate(traced_passes)]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        values["solver.march.levels_exponent"] = tracing.levels_exponent(tracer)
        values["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced_passes)
                                          / statistics.median(plain))
        units = dict(tracing.PER_LAYER)
    else:
        factor = gauge.factor()
        values = {
            "setup_s": factor * statistics.median(setup_times),
            "wall_s": factor * statistics.fmean(plain),
            "peak_mem_mb": (_status_kb("VmHWM") - rss_after_setup_kb) / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "tracing_on": bool(args.trace), "finished_utc": dt.datetime.now(dt.timezone.utc).isoformat(),
        "environment": environment(), "inputs": wl.inputs, "setup_times_s": setup_times,
        "passes": [{"wall_s": p["wall_s"], "op_s": p["op_s"], "kernel_s": p["kernel_s"],
                    "traced": p["traced"], "hwm_mb": p["hwm_mb"], "cli": p["cli"],
                    "failures": [r for r in p["results"] if r["failed"]]} for p in passes],
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "correct": correct, "metrics": metrics,
    }
    records = bootstrap.OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    if args.trace:
        spans_path = record_path.with_suffix(".spans.csv.gz")
        tracing.write_spans(tracer, spans_path)
        record["tracing"] = {"spans": len(tracer.spans), "spans_file": spans_path.name,
                             "overhead_base_wall_s": statistics.median(plain)}
    else:
        record["speed"] = {"kernel_calls": len(gauge.samples),
                           "kernel_mean_s": statistics.fmean(gauge.samples),
                           "reference_s": speed.REFERENCE_S, "factor": factor,
                           "unscaled": {"setup_s": statistics.median(setup_times),
                                        "wall_s": statistics.fmean(plain)}}
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes "
          f"({len(plain)} untraced), record {record_path.relative_to(bootstrap.ROOT)}")
    reasons = Counter()
    for r in results:
        if r["failed"]:
            why = r["problems"] or [f"exit code {r['rc']}" if r["error"] is None
                                    else r["error"].strip().splitlines()[-1]]
            reasons[r["op"], "; ".join(why)] += 1
    for (op, why), n in reasons.items():
        print(f"failed operation {op} ({n} of {len(passes)} passes): {why}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"speed factor = {factor:.4g} ({len(gauge.samples)} kernel calls); unscaled "
              + ", ".join(f"{k} = {v:.6g} s" for k, v in record["speed"]["unscaled"].items()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
