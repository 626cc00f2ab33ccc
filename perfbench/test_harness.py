"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

Runs one shortened pass per workload, untraced and traced, and asserts that
every metric BENCHMARK.json names is emitted with its unit and that the
output checks run and catch wrong output.  Takes about half a minute.
"""

import json
import shutil
import subprocess
import sys

import pytest

import bootstrap
import run
import tracing

bootstrap.load_package()

import workloads  # noqa: E402  (after the thread caps and the import pin)

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def short(monkeypatch):
    """Shrink the two march-heavy workloads and the set-up probing."""
    monkeypatch.setattr(workloads, "GLOBAL_HORIZONS", (4.0, 8.0))
    monkeypatch.setattr(workloads, "LADDER", (3.0, 6.0, 4))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _result(capsys, workload, trace, seed=1):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_mirrors_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_one_short_pass_emits_every_metric(short, capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    ops = len(workloads.build(workload, 1).ops)
    assert result["attempted"] == ops * (2 if trace else 1)
    if trace:
        assert result["metrics"]["cli.main.calls"]["value"] > 0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0
    else:
        assert all(result["metrics"][m]["value"] > 0.0 for m in ("setup_s", "wall_s"))


def test_pass_count_is_fixed_by_the_arguments():
    assert run.pass_count("global-verify", 25, False) == 4
    assert run.pass_count("lemma-suite", 25, False) == 5
    assert run.pass_count("lifespan-sweep", 25, True) == 18
    assert run.pass_count("lemma-suite", 0, False) == 1
    assert run.pass_count("lemma-suite", 0, True) == 2


def test_speed_gauge_samples_in_proportion_to_measured_time():
    import speed

    gauge = speed.Gauge()
    gauge.sample()
    assert len(gauge.samples) == 1
    gauge.sample(10 * speed.REFERENCE_S / speed.SHARE)
    assert len(gauge.samples) == 11
    assert 0.0 < gauge.factor() < 2.0


def test_default_seed_matches_stored_reference(capsys):
    # lemma-suite has no size knob; its full pass runs in a few seconds
    result = _result(capsys, "lemma-suite", 0, seed=workloads.DEFAULT_SEED)
    assert result["correct"] is True


def _judged(op, out_dir, tamper=None):
    outcome = op.run(out_dir)
    if tamper is not None:
        tamper(next(out_dir.glob("*/*")))
    return run.judge(op, outcome, out_dir, {}, {})


def test_checks_catch_wrong_output(short, tmp_path):
    gv = workloads.build("global-verify", 1).ops[0]
    assert not _judged(gv, tmp_path / "ok")["failed"]

    def skew_decay_constant(result_dir):
        report = json.loads((result_dir / "report.json").read_text())
        report["decay_constant"] *= 1.0 + 1e-9
        (result_dir / "report.json").write_text(json.dumps(report))

    bad = _judged(gv, tmp_path / "skewed", skew_decay_constant)
    assert bad["failed"] and bad["problems"]

    def reverse_lifespans(result_dir):
        path = result_dir / "lifespan.csv"
        header, *rows = path.read_text().splitlines()
        t = [r.split(",")[1] for r in rows][::-1]
        path.write_text("\n".join([header] + [",".join([r.split(",")[0], ti, r.split(",")[2]])
                                              for r, ti in zip(rows, t)]) + "\n")

    ls = workloads.build("lifespan-sweep", 1).ops[0]
    bad = _judged(ls, tmp_path / "reversed", reverse_lifespans)
    assert any("increases" in p for p in bad["problems"])


def test_usage_error_is_a_failed_operation_not_the_end(tmp_path):
    op = workloads._cli_op("bad-argv", ["lifespan", "--family", "logpower"],
                           lambda outcome, out_dir, earlier: ([], {}))
    result = run.judge(op, op.run(tmp_path), tmp_path, {}, {})
    assert result["failed"] and result["nonzero_exit"]
    assert result["error"].startswith("SystemExit")


def test_reference_mismatch_is_reported():
    assert workloads.compare_reference({"x": 1.0, "c": "zero"}, {"x": 1.0, "c": "zero"}) == []
    assert workloads.compare_reference({"x": 1.0 + 1e-6}, {"x": 1.0})
    assert workloads.compare_reference({"t": [1.0, 2.0]}, {"t": [1.0]})


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lemma-suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
