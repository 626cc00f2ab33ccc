import argparse
import csv
import json
import math
from pathlib import Path

import pytest

from wavecrit.cli import build_parser, main


def run_cli(args, tmp_path):
    return main(args + ["--out-dir", str(tmp_path)])


def latest(tmp_path, command):
    runs = sorted((Path(tmp_path) / command).iterdir())
    return runs[-1]


# ------------------------------------------------------------------ parsing

def test_parse_exponents():
    args = build_parser().parse_args(["exponents", "--n", "3"])
    assert args.command == "exponents" and args.n == 3


def test_parse_solve_flags():
    args = build_parser().parse_args(
        ["solve", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
         "--eps", "5", "--h", "0.02", "--horizon", "20"]
    )
    assert args.family == "logpower" and args.cl == 10.0 and args.eps == 5.0


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["exponents", "--n", "3", "--bogus", "1"])


def test_lemma_dimension_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "verify", "--which", "kernel-bounds", "--n", "1",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_solve_runtime_error_exits_one(capsys, tmp_path):
    # iterlog's modulus has no continuation past tau0: march raises mid-run
    code = main(["solve", "--family", "iterlog", "--gamma", "1", "--eps", "1",
                 "--h", "0.05", "--horizon", "2", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "usage:" not in err


def test_solve_grid_beyond_memory_exits_one(capsys, tmp_path):
    code = main(["solve", "--family", "powerlaw", "--eps", "0.01", "--h", "1e-6",
                 "--horizon", "1e6", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "bytes" in err and "usage:" not in err


@pytest.mark.parametrize("argv, message", [
    (["mu", "check", "--family", "powerlaw", "--cl", "3"], "--cl does not apply"),
    (["solve", "--family", "logpower", "--gamma", "0.2", "--cl", "10", "--k", "2",
      "--eps", "5", "--h", "0.05", "--horizon", "5"], "--k does not apply"),
    (["onset", "--family", "iterlog", "--gamma", "1", "--n", "4"], "unrecognized arguments: --n 4"),
    (["lifespan", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
      "--eps-list", "2,x"], "argument --eps-list"),
    (["key-integral", "--family", "powerlaw", "--xi-list", "10,,100"], "argument --xi-list"),
    (["sequences", "--n", "1"], "argument --n"),
    (["mu", "check", "--family", "powerlaw", "--n", "1"], "argument --n"),
], ids=["stray-cl", "stray-k", "3d-command-n", "eps-list", "xi-list", "sequences-n", "mu-n"])
def test_usage_error_names_the_flag(capsys, tmp_path, argv, message):
    # a flag the family lacks, --n on a 3-D command, a bad list or dimension:
    # exit 2 naming the flag, before any result directory exists
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_missing_family_value_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "--family", "logpower", "--eps", "1", "--h", "0.05",
              "--horizon", "1", "--out-dir", str(tmp_path)])


def test_family_field_out_of_range_rejected(capsys, tmp_path):
    # k = 4 underflows the e-tower guard exp(-tower(k)), k = 5 overflows tower(k)
    for family, k, message in (
        (["iterlog", "--gamma", "1"], "0", "k >= 2"),
        (["triplelog", "--gamma", "-0.5"], "4", "largest admissible k is 3"),
        (["triplelog", "--gamma", "-0.5"], "5", "largest admissible k is 3"),
        (["iterlog", "--gamma", "1"], "5", "largest admissible k is 3"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["mu", "check", "--family", *family, "--k", k, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


# -------------------------------------------------------------- persistence

def test_sequences_writes_ledger(tmp_path):
    assert run_cli(["sequences", "--n", "3", "--J", "12", "--quiet"], tmp_path) == 0
    out = latest(tmp_path, "sequences")
    with (out / "ledger.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "ell_2j", "a_j", "b_j", "sigma_j", "log_m_j"]
    assert len(rows) - 1 == 13


def test_solve_records_blowup(tmp_path):
    code = run_cli(
        ["solve", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
         "--eps", "5", "--h", "0.05", "--horizon", "5", "--quiet"],
        tmp_path,
    )
    assert code == 0
    out = latest(tmp_path, "solve")
    payload = json.loads((out / "run.json").read_text())
    assert payload["status"] == "blew_up"
    assert payload["t_detect"] is not None
    assert (out / "field.svg").exists()


@pytest.mark.parametrize("cap", ["1e300", "inf"])
def test_solve_nonfinite_field_is_persisted(tmp_path, cap):
    # past a huge cap the march stores inf/nan levels before it stops; the
    # heatmap must still render and the manifest must list every file
    code = run_cli(
        ["solve", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
         "--eps", "5", "--h", "0.05", "--horizon", "15", "--cap", cap, "--quiet"],
        tmp_path,
    )
    assert code == 0
    out = latest(tmp_path, "solve")
    assert json.loads((out / "run.json").read_text())["status"] == "blew_up"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(p.name for p in out.iterdir())
    assert manifest["outputs"] == ["field.csv", "field.svg", "manifest.json", "run.json"]


def test_verify_global_failing_family_exits_two(tmp_path):
    code = run_cli(
        ["verify-global", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
         "--horizon", "5", "--quiet"],
        tmp_path,
    )
    assert code == 2
    payload = json.loads((latest(tmp_path, "verify-global") / "report.json").read_text())
    assert payload["pass"] is False


def test_verify_global_passes_on_global_family(tmp_path):
    code = run_cli(
        ["verify-global", "--family", "powerlaw", "--eps", "0.01",
         "--h", "0.0625", "--horizon", "10", "--quiet"],
        tmp_path,
    )
    assert code == 0


def test_onset_payload(tmp_path):
    assert run_cli(["onset", "--family", "powerlaw", "--tmax", "1000", "--quiet"],
                   tmp_path) == 0
    payload = json.loads((latest(tmp_path, "onset") / "onset.json").read_text())
    assert payload["onset_t"] is None


def test_key_integral_csv(tmp_path):
    assert run_cli(
        ["key-integral", "--family", "powerlaw", "--xi-list", "10,100", "--quiet"],
        tmp_path,
    ) == 0
    out = latest(tmp_path, "key-integral")
    with (out / "key_integral.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["xi", "I", "ratio"]
    assert len(rows) == 3


def test_mu_check_report_keys(tmp_path):
    assert run_cli(
        ["mu", "check", "--family", "powerlaw", "--gamma", "1", "--quiet"],
        tmp_path,
    ) == 0
    payload = json.loads((latest(tmp_path, "mu") / "report.json").read_text())
    assert set(payload) >= {"axioms_pass", "g_convex", "threshold_class", "loglog_bound_pass"}
    assert payload["threshold_class"] == "zero"


def test_determinism_byte_identical_csv(tmp_path):
    run_cli(["sequences", "--n", "2", "--J", "20", "--quiet"], tmp_path)
    run_cli(["sequences", "--n", "2", "--J", "20", "--quiet"], tmp_path)
    runs = sorted((tmp_path / "sequences").iterdir())
    assert len(runs) == 2
    a = (runs[0] / "ledger.csv").read_bytes()
    b = (runs[1] / "ledger.csv").read_bytes()
    assert a == b


def test_manifest_lists_every_output(tmp_path):
    run_cli(["lifespan", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
             "--eps-list", "3,5", "--h", "0.05", "--horizon", "3", "--quiet"], tmp_path)
    out = latest(tmp_path, "lifespan")
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = sorted(p.name for p in out.iterdir())
    assert manifest["outputs"] == on_disk
    assert "lifespan.csv" in on_disk and "lifespan.svg" in on_disk


def test_manifest_records_the_modulus(tmp_path):
    # the family fields and tau0 change the result, so they enter the digest
    manifests = []
    for gamma in ("0.2", "0.3"):
        run_cli(["onset", "--family", "logpower", "--gamma", gamma, "--cl", "5",
                 "--quiet"], tmp_path)
        manifests.append(json.loads((latest(tmp_path, "onset") / "manifest.json").read_text()))
    first, second = (m["parameters"] for m in manifests)
    assert first["family"] == "logpower" and first["cl"] == 5.0
    assert (first["gamma"], second["gamma"]) == (0.2, 0.3)
    assert first["tau0"] > 0.0
    assert manifests[0]["input_digest"] != manifests[1]["input_digest"]


@pytest.mark.parametrize("command, flag, values", [
    (["verify-global", "--family", "powerlaw", "--horizon", "5"], "--eps0", ("0.05", "0.5")),
    (["verify-global", "--family", "powerlaw", "--horizon", "5"], "--cap", ("1e6", "1e7")),
    (["lemmas", "verify", "--which", "kernel-bounds", "--n", "2"], "--lambda0", ("1", "2")),
], ids=["eps0", "cap", "lambda0"])
def test_manifest_digest_covers_result_flags(tmp_path, command, flag, values):
    # each flag changes the written results, so runs differing only in it
    # must not share an input digest
    manifests = []
    for value in values:
        run_cli(command + [flag, value, "--quiet"], tmp_path)
        out = latest(tmp_path, command[0])
        manifests.append(json.loads((out / "manifest.json").read_text()))
    name = flag.lstrip("-")
    assert [m["parameters"][name] for m in manifests] == [float(v) for v in values]
    assert manifests[0]["input_digest"] != manifests[1]["input_digest"]


# manifest parameters of one run per subcommand: the README examples and the
# iterated-log onset, whose n and k enter only through the resolved family
PINNED_MANIFESTS = {
    "exponents": (["exponents", "--n", "3"], {"n": 3}),
    "mu": (
        ["mu", "check", "--family", "logpower", "--gamma", "0.2", "--cl", "10"],
        {"cl": 10.0, "family": "logpower", "gamma": 0.2, "n": 3,
         "tau0": 0.30119421191220214}),
    "lemmas-ball-integral": (
        ["lemmas", "verify", "--which", "ball-integral", "--n", "2"],
        {"lambda0": 1.0, "n": 2, "which": "ball-integral"}),
    "lemmas-kernel-bounds-n3": (
        ["lemmas", "verify", "--which", "kernel-bounds", "--n", "3"],
        {"lambda0": 1.0, "n": 3, "which": "kernel-bounds"}),
    "lemmas-kernel-bounds-n4": (
        ["lemmas", "verify", "--which", "kernel-bounds", "--n", "4"],
        {"lambda0": 1.0, "n": 4, "which": "kernel-bounds"}),
    "sequences": (["sequences", "--n", "3", "--J", "30"], {"J": 30, "n": 3}),
    "onset-logpower": (
        ["onset", "--family", "logpower", "--gamma", "0.414213", "--cl", "5", "--tmax", "1e6"],
        {"c6": 1.0, "c7": 1.0, "cl": 5.0, "family": "logpower", "gamma": 0.414213,
         "tau0": 0.24311687115656308, "tmax": 1000000.0}),
    "onset-iterlog": (
        ["onset", "--family", "iterlog", "--gamma", "1"],
        {"c6": 1.0, "c7": 1.0, "family": "iterlog", "gamma": 1.0, "k": 2, "n": 3,
         "tau0": 8.047124976741605e-06, "tmax": 1000000.0}),
    "solve": (
        ["solve", "--family", "logpower", "--gamma", "0.2", "--cl", "10", "--eps", "5",
         "--h", "0.02", "--horizon", "15"],
        {"cap": 1000000.0, "cl": 10.0, "eps": 5.0, "family": "logpower", "gamma": 0.2,
         "h": 0.02, "horizon": 15.0, "tau0": 0.30119421191220214}),
    "lifespan": (
        ["lifespan", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
         "--eps-list", "2,3,5,8"],
        {"cap": 1000000.0, "cl": 10.0, "eps_list": [2.0, 3.0, 5.0, 8.0], "family": "logpower",
         "gamma": 0.2, "h": 0.02, "horizon": 15.0, "tau0": 0.30119421191220214}),
    "verify-global": (
        ["verify-global", "--family", "powerlaw", "--eps", "0.01", "--horizon", "100"],
        {"cap": 1000000.0, "eps": 0.01, "eps0": 0.05, "family": "powerlaw", "gamma": 1.0,
         "h": 0.0625, "horizon": 100.0, "tau0": math.inf}),
    "key-integral": (
        ["key-integral", "--family", "doublelog", "--xi-list", "10,100,1000,10000",
         "--eps0", "0.05"],
        {"eps0": 0.05, "family": "doublelog", "gamma": -1.0, "n": 3,
         "tau0": 0.03296102390473361, "xi_list": [10.0, 100.0, 1000.0, 10000.0]}),
}
OUTPUT_FLAGS = {"help", "out_dir", "quiet"}
FAMILY_FLAGS = {"family", "gamma", "cl", "k", "tau0"}


@pytest.mark.parametrize("argv, parameters", PINNED_MANIFESTS.values(),
                         ids=PINNED_MANIFESTS)
def test_manifest_parameters_pinned(tmp_path, argv, parameters):
    run_cli(argv + ["--quiet"], tmp_path)
    manifest = json.loads((latest(tmp_path, argv[0]) / "manifest.json").read_text())
    assert manifest["parameters"] == parameters


def test_every_option_is_a_pinned_parameter():
    # a flag added to a subcommand must reach its manifest; the raw family
    # flags enter resolved, as the family and its tau0
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    pinned = {}
    for argv, parameters in PINNED_MANIFESTS.values():
        pinned.setdefault(argv[0], set()).update(parameters)
    assert set(sub.choices) == set(pinned)
    for command, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions if a.option_strings}
        assert dests - OUTPUT_FLAGS - FAMILY_FLAGS <= pinned[command], command
        if "family" in dests:
            assert {"family", "tau0"} <= pinned[command], command
