import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import wavecrit.cli
from oracles import kernel_bounds_by_call
from test_march_pins import TAKEN_IN, _environment
from wavecrit.blowup import EPSILON_EXP, build_ledger, exponent_sequences, slicing_level
from wavecrit.cli import build_parser, main
from wavecrit.exponents import holder_conjugate, kernel_exponent, strauss_exponent, weight_exponent
from wavecrit.modulus import PowerLaw, make_spec
from wavecrit.solver import CharacteristicGrid, default_bump, march


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


def test_exponents_in_one_dimension(tmp_path):
    # p(1) = +infinity is no float: the payload names it, and q and kappa have none
    assert run_cli(["exponents", "--n", "1", "--quiet"], tmp_path) == 0
    payload = json.loads((latest(tmp_path, "exponents") / "exponents.json").read_text())
    assert payload == {"n": 1, "p_strauss": "infinite", "p_conjugate": 1.0,
                       "q": None, "kappa": None}


def test_exponents_in_three_dimensions(tmp_path):
    assert run_cli(["exponents", "--n", "3", "--quiet"], tmp_path) == 0
    payload = json.loads((latest(tmp_path, "exponents") / "exponents.json").read_text())
    assert payload == {"n": 3, "p_strauss": strauss_exponent(3), "p_conjugate": holder_conjugate(3),
                       "q": kernel_exponent(3), "kappa": weight_exponent(3)}
    assert payload["p_conjugate"] == 1.7071067811865475  # 1 + sqrt(2)/2 correctly rounded


def test_exponents_in_a_huge_dimension(tmp_path):
    # p(n) rounds to 1.0 here, so p / (p - 1) has no float: the conjugate is n/4 + ...
    n = 99999999999999999999
    assert run_cli(["exponents", "--n", str(n), "--quiet"], tmp_path) == 0
    payload = json.loads((latest(tmp_path, "exponents") / "exponents.json").read_text())
    assert payload["p_strauss"] == 1.0 and payload["p_conjugate"] == holder_conjugate(n)
    assert math.isclose(payload["p_conjugate"], n / 4.0, rel_tol=1e-15)


def test_exponents_past_the_square_of_a_float(tmp_path):
    # (n + 1)^2 overflows at n = 10^200: p and its conjugate came out as Infinity
    n = 10**200
    assert run_cli(["exponents", "--n", str(n), "--quiet"], tmp_path) == 0
    payload = json.loads((latest(tmp_path, "exponents") / "exponents.json").read_text())
    assert payload == {"n": n, "p_strauss": 1.0, "p_conjugate": 2.5e199, "q": 5e199, "kappa": 2.0}


def test_exponents_past_the_float_range_exits_one(capsys, tmp_path):
    # 10^400 has no float: the error said "int too large to convert to float"
    code = main(["exponents", "--n", str(10**400), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: n={10**400} is past the float range") and "usage:" not in err
    assert not any(tmp_path.iterdir())


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["exponents", "--n", "3", "--bogus", "1"])


def test_lemma_dimension_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "verify", "--which", "kernel-bounds", "--n", "1",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_solve_runtime_error_exits_one(capsys, tmp_path):
    # iterlog's modulus has no continuation past tau0: the march stops with the
    # reason, one error line, and no result directory is made
    code = main(["solve", "--family", "iterlog", "--gamma", "1", "--eps", "1",
                 "--h", "0.05", "--horizon", "2", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "beyond tau0=8.04712e-06" in errors[0]
    assert "usage:" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("horizon, last", [("1", "0.99"), ("1.01", "1.02")])
def test_lifespan_completed_row_has_the_last_marched_level(tmp_path, horizon, last):
    # h = 0.03 rounds the horizon to 33 or 34 levels: the rung's t is the grid's, as
    # solve on the same grid shows, not the --horizon given
    argv = ["--family", "powerlaw", "--h", "0.03", "--horizon", horizon, "--quiet"]
    assert run_cli(["lifespan", "--eps-list", "0.01", *argv], tmp_path) == 0
    assert run_cli(["solve", "--eps", "0.01", *argv], tmp_path) == 0
    rows = (latest(tmp_path, "lifespan") / "lifespan.csv").read_text().splitlines()
    assert rows == ["eps,t,status", f"0.01,{last},completed"]
    field = (latest(tmp_path, "solve") / "field.csv").read_text().splitlines()
    assert field[-1].startswith(f"{last},")


_FLOAT_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2e-308, 1e-320,
                sys.float_info.max, -sys.float_info.max, 0.1, 1.0 / 3.0, 1e16, 1e-5]


@seed(48)
@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.floats(), max_size=20))
def test_csv_cells_are_the_repr_of_each_double(drawn):
    # the csv module writes str() of a cell, and a float64's str is its double's repr
    values = [*_FLOAT_EDGES, *drawn]
    text = wavecrit.cli._csv_text((("python", "numpy"), [(x, np.float64(x)) for x in values]))
    assert text.splitlines() == ["python,numpy", *(f"{x!r},{x!r}" for x in values)]


def test_lifespan_failed_row_has_no_time(tmp_path):
    # a refused rung's t was the horizon, and the plot drew it at t = 2; a
    # completed rung keeps the horizon
    assert run_cli(["lifespan", "--family", "iterlog", "--gamma", "1", "--eps-list", "1e-6,1",
                    "--h", "0.05", "--horizon", "2", "--quiet"], tmp_path) == 0
    out = latest(tmp_path, "lifespan")
    assert (out / "lifespan.csv").read_text().splitlines() == [
        "eps,t,status", "1e-06,2.0,completed",
        "1.0,nan,failed: mu argument beyond tau0=8.04712e-06 needs a continuation"]
    assert '<polyline points="40.00,360.00"' in (out / "lifespan.svg").read_text()


@pytest.mark.parametrize("argv", [
    ["lifespan", "--eps-list", "nan,2"],
    ["lifespan", "--eps-list", "2,inf"],
    ["lifespan", "--eps-list", "2", "--cap", "0"],
    ["solve", "--eps", "nan", "--h", "0.05"],
    ["solve", "--eps", "inf", "--h", "0.05"],
    ["solve", "--eps", "1", "--h", "0.05", "--cap", "-1"],
], ids=["lifespan-nan", "lifespan-inf", "lifespan-cap", "solve-nan", "solve-inf", "solve-cap"])
def test_nonfinite_amplitude_or_nonpositive_cap_exits_one(capsys, tmp_path, argv):
    # each of these used to report a blow-up at the first level and exit 0
    code = main(argv[:1] + ["--family", "logpower", "--gamma", "0.2", "--cl", "10",
                            "--horizon", "2", *argv[1:], "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "usage:" not in err
    assert not any(tmp_path.iterdir())


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
    (["sequences", "--n", "3", "--J", "-1"], "argument --J"),
    (["mu", "check", "--family", "powerlaw", "--n", "1"], "argument --n"),
    (["exponents", "--n", "0"], "argument --n"),
    (["lemmas", "verify", "--which", "ball-integral", "--n", "2", "--lambda0", "5"],
     "--lambda0 applies to --which kernel-bounds only"),
    # a nan or infinite family field: these ran, a nan gamma as a global-side
    # onset or a failed check, an infinite cl as a rung that blew up at once
    (["onset", "--family", "logpower", "--gamma", "nan", "--cl", "2"], "finite gamma > 0"),
    (["mu", "check", "--family", "logpower", "--gamma", "nan"], "finite gamma > 0"),
    (["lifespan", "--family", "logpower", "--gamma", "0.2", "--cl", "inf", "--eps-list", "2"],
     "and cl > 0"),
    (["mu", "check", "--family", "iterlog", "--gamma", "inf"], "finite gamma > 0"),
    (["mu", "check", "--family", "doublelog", "--gamma=-inf"], "finite gamma <= -1"),
    (["mu", "check", "--family", "triplelog", "--gamma", "nan"], "finite gamma < 0"),
], ids=["stray-cl", "stray-k", "3d-command-n", "eps-list", "xi-list", "sequences-n",
        "sequences-J", "mu-n", "exponents-n", "ball-integral-lambda0", "logpower-gamma-nan-onset",
        "logpower-gamma-nan-mu", "logpower-cl-inf-lifespan", "iterlog-gamma-inf",
        "doublelog-gamma-inf", "triplelog-gamma-nan"])
def test_usage_error_names_the_flag(capsys, tmp_path, argv, message):
    # a flag the family lacks or a field out of range, --n on a 3-D command, a
    # bad list or dimension: exit 2 naming the flag in the subcommand's usage,
    # before any result directory exists
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: wavecrit {argv[0]} " in err
    assert f"wavecrit {argv[0]}: error: " in err and message in err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", [["iterlog", "--gamma", "1"], ["doublelog"]],
                         ids=["iterlog", "doublelog"])
def test_tau0_past_the_log_domain_is_a_usage_error(capsys, tmp_path, family):
    # mu's near-zero formula is not finite at tau0 = 0.5 for these families:
    # refused as bad input, before any check evaluates it
    with pytest.raises(SystemExit) as exc:
        main(["mu", "check", "--family", *family, "--tau0", "0.5", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "wavecrit mu: error: tau0=0.5" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["mu", "check"],
    ["solve", "--eps", "0.1", "--h", "0.05", "--horizon", "1"],
], ids=["mu-check", "solve"])
def test_tau0_where_mu_overflows_is_a_usage_error(capsys, tmp_path, argv):
    # mu(0.5) of LogPower(1e4) overflows: mu check exited 2 after a RuntimeWarning
    # from its convexity check, and solve marched the spec and exited 0
    family = ["--family", "logpower", "--gamma", "10000", "--tau0", "0.5"]
    with pytest.raises(SystemExit) as exc:
        main(argv + family + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"wavecrit {argv[0]}: error: tau0=0.5 " in errors[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    # exp(-(1 + gamma)) underflows to 0: was "tau0 must be positive, got 0.0"
    (["mu", "check", "--family", "logpower", "--gamma", "1e300"],
     "LogPower's default tau0 = exp(-(1 + gamma)) underflows to 0 at gamma=1e+300"),
    # mu overflows on every candidate grid: was an overflow traceback under -W error
    (["mu", "check", "--family", "iterlog", "--gamma", "1e300"],
     "no admissible near-zero regime found for IteratedLogBlowup at gamma=1e+300"),
], ids=["logpower-tau0-underflow", "iterlog-gamma-overflow"])
def test_extreme_gamma_is_refused_by_name(capsys, tmp_path, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"wavecrit {argv[0]}: error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_horizon_of_no_level_exits_one(capsys, tmp_path):
    # a horizon that rounds to no level names --horizon and --h, as a nan horizon does
    code = main(["lifespan", "--family", "powerlaw", "--eps-list", "2", "--horizon", "0.001",
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: horizon=0.001 rounds to no level at h=0.02" in err and "usage:" not in err
    assert not any(tmp_path.iterdir())


def test_lifespan_grid_error_exits_one(capsys, tmp_path):
    # an error every rung shares is the command's error, not a failed row each
    code = main(["lifespan", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
                 "--eps-list", "2,3", "--h", "0.1", "--horizon", "2", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: grid step 0.1 does not resolve the support" in err and "usage:" not in err
    assert not any(tmp_path.iterdir())


def test_missing_family_value_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "--family", "logpower", "--eps", "1", "--h", "0.05",
              "--horizon", "1", "--out-dir", str(tmp_path)])


def test_family_field_out_of_range_rejected(capsys, tmp_path):
    # k = 4 underflows the e-tower guard exp(-tower(k)), k = 5 overflows tower(k);
    # triplelog's k is fixed at 3, so it has no --k
    for family, k, message in (
        (["iterlog", "--gamma", "1"], "0", "k >= 2"),
        (["triplelog", "--gamma", "-0.5"], "3", "--k does not apply"),
        (["triplelog", "--gamma", "-0.5"], "4", "--k does not apply"),
        (["iterlog", "--gamma", "1"], "5", "largest admissible k is 3"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["mu", "check", "--family", *family, "--k", k, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["lifespan", "--family", "logpower", "--gamma", "0.2", "--cl", "10", "--eps-list", "2",
      "--h", "nan"], "h="),
    (["solve", "--family", "powerlaw", "--eps", "1", "--h", "0.05", "--horizon", "inf"],
     "horizon="),
    (["verify-global", "--family", "powerlaw", "--horizon", "nan"], "horizon="),
    (["key-integral", "--family", "powerlaw", "--xi-list", "nan,100"], "xi="),
    (["key-integral", "--family", "powerlaw", "--xi-list", "inf"], "xi="),
    (["lemmas", "verify", "--which", "kernel-bounds", "--n", "3", "--lambda0", "nan"],
     "lambda0="),
    (["lemmas", "verify", "--which", "kernel-bounds", "--n", "3", "--lambda0", "inf"],
     "lambda0="),
    (["sequences", "--n", "3", "--J", "2000"], "J=2000 overflows the ledger"),
    (["sequences", "--n", "3", "--J", "803"], "J=803 overflows the ledger"),
    (["sequences", "--n", "3", "--J", "805"], "J=805 overflows the ledger"),
    (["sequences", "--n", "3", "--J", "1000"], "J=1000 overflows the ledger"),
], ids=["lifespan-h-nan", "solve-horizon-inf", "verify-global-horizon-nan", "xi-nan",
        "xi-inf", "lambda0-nan", "lambda0-inf", "sequences-J-2000", "sequences-J-803",
        "sequences-J-805", "sequences-J-1000"])
def test_nonfinite_run_input_exits_one(capsys, tmp_path, argv, name):
    # refused by name as a runtime error, before any result directory exists
    code = main(argv + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and name in err and "usage:" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_at_the_largest_amplitude_blows_up(tmp_path):
    # the free wave's table of eps = 1.7e308 is finite, as u1 = 0, though 0.5 r eps
    # overflows: the run blows up at its first level
    code = run_cli(["solve", "--family", "powerlaw", "--eps", "1.7e308", "--h", "0.0625",
                    "--horizon", "2", "--quiet"], tmp_path)
    assert code == 0
    payload = json.loads((latest(tmp_path, "solve") / "run.json").read_text())
    assert (payload["status"], payload["t_detect"]) == ("blew_up", 0.0625)


def test_negative_exponent_value_needs_the_equals_form(capsys, tmp_path):
    # argparse reads "-1e300" after a space as an option, not as the value
    with pytest.raises(SystemExit) as exc:
        main(["mu", "check", "--family", "doublelog", "--gamma", "-1e300",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --gamma: expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["mu", "check", "--family", "doublelog", "--gamma=-1e300",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "DoubleLogGlobal at gamma=-1e+300" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_kernel_bounds_hold_past_the_eigenfunction_overflow(tmp_path):
    # phi(3, lambda0 * 51) is finite at 13 and passes the largest float at 14
    argv = ["lemmas", "verify", "--which", "kernel-bounds", "--n", "3", "--quiet"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--lambda0=14", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((latest(tmp_path, "lemmas") / "report.json").read_text())
    constants = [report[c] for c in ("a0", "b0", "b1", "b2")]
    assert report["pass"] and all(0.0 < c < math.inf for c in constants)


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_bounds_files_equal_the_call_by_call_sweep(monkeypatch, tmp_path, n):
    # the grouped sweep writes the bytes the call-by-call oracle's report renders to
    argv = ["lemmas", "verify", "--which", "kernel-bounds", "--n", str(n), "--quiet"]
    assert main(argv + ["--out-dir", str(tmp_path / "sweep")]) == 0
    monkeypatch.setattr(wavecrit.cli, "kernel_bounds_check", kernel_bounds_by_call)
    assert main(argv + ["--out-dir", str(tmp_path / "oracle")]) == 0
    for name in ("ratios.csv", "report.json"):
        got = (latest(tmp_path / "sweep", "lemmas") / name).read_bytes()
        assert got == (latest(tmp_path / "oracle", "lemmas") / name).read_bytes()


# -------------------------------------------------------------- persistence

def test_sequences_writes_ledger(capsys, tmp_path):
    # each row is (j, ell_2j, a_j, b_j, sigma_j, log_m_j) of the exponent
    # recursions and the ledger, and the payload carries the ledger's floor
    assert run_cli(["sequences", "--n", "3", "--J", "30"], tmp_path) == 0
    payload = json.loads(capsys.readouterr().out)
    with (latest(tmp_path, "sequences") / "ledger.csv").open() as fh:
        header, *rows = csv.reader(fh)
    assert header == ["j", "ell_2j", "a_j", "b_j", "sigma_j", "log_m_j"]
    a, b, s = exponent_sequences(3, 30)
    ledger = build_ledger(3, 30)
    assert [[int(j), *map(float, rest)] for j, *rest in rows] == [
        [j, slicing_level(2 * j), a[j], b[j], s[j], ledger.rows[j][-1]] for j in range(31)]
    assert payload == {"n": 3, "J": 30, "rows": 31, "log_c5": ledger.log_c5, "j1": ledger.j1}


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


def test_solve_heatmap_copies_no_field(traced_peak, tmp_path):
    # solve keeps per level only the columns its files read, 4.2 MB here, and
    # peaks at 9.4 MB, where the stored field alone took 20.7 MB and solve 25.9 MB
    argv = ["solve", "--family", "powerlaw", "--eps", "0.01", "--h", "0.0625",
            "--horizon", "100", "--quiet"]
    code, peak = traced_peak(lambda: run_cli(argv, tmp_path))
    assert code == 0 and peak < 15e6


def test_solve_refuses_the_columns_it_keeps_beyond_memory(capsys, monkeypatch, tmp_path):
    # 1 MiB holds the working set of a march of this grid, 0.74 MB, but not the 1.1 MB
    # of columns solve keeps besides: refused before anything is allocated
    grid = CharacteristicGrid.cover(0.0625, 25.0, 1.0)
    monkeypatch.setattr(os, "sysconf", lambda name: 4096 if name == "SC_PAGE_SIZE" else 256)
    assert march(default_bump(0.01), make_spec(PowerLaw(1.0)), grid).status == "completed"
    code = main(["solve", "--family", "powerlaw", "--eps", "0.01", "--h", "0.0625",
                 "--horizon", "25", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "bytes" in err and "usage:" not in err
    assert not any(tmp_path.iterdir())


def test_lifespan_refuses_a_working_set_beyond_memory(capsys, monkeypatch, tmp_path):
    # 64 KiB holds the foot tables of these two rungs, 20 KB, but not their working set
    # of 0.18 MB: refused before anything is allocated
    monkeypatch.setattr(os, "sysconf", lambda name: 4096 if name == "SC_PAGE_SIZE" else 16)
    grid = CharacteristicGrid.cover(0.05, 20.0, 1.0)
    assert 2 * 8 * (grid.t_levels + 2 * grid.r_nodes - 1) < 65536
    code = main(["lifespan", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
                 "--eps-list", "2,3", "--h", "0.05", "--horizon", "20", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "more than the 65536 bytes of physical memory" in errors[0]
    assert "usage:" not in err
    assert not any(tmp_path.iterdir())


def test_verify_global_failing_family_exits_two(tmp_path):
    code = run_cli(
        ["verify-global", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
         "--horizon", "5", "--quiet"],
        tmp_path,
    )
    assert code == 2
    payload = json.loads((latest(tmp_path, "verify-global") / "report.json").read_text())
    assert payload["pass"] is False


@pytest.mark.parametrize("family", [["powerlaw"], ["logpower", "--gamma", "0.2", "--cl", "10"]],
                         ids=["powerlaw", "logpower"])
@pytest.mark.parametrize("flags, message", [
    (["--cap", "0"], "cap must be positive, got 0.0"),
    (["--eps0", "1.5"], "eps0 must lie in (0, 1)"),
    (["--h", "0.1"], "grid step 0.1 does not resolve the support 1 with 16 nodes"),
    (["--cap", "-1", "--h", "0.1"], "cap must be positive, got -1.0"),
], ids=["cap", "eps0", "h", "cap-before-h"])
def test_verify_global_refuses_its_input_alike_for_every_family(capsys, tmp_path, family,
                                                                flags, message):
    # logpower's threshold class is infinite: it skipped these checks, which only the
    # zero class's zone and decay checks made, and exited 2 with a result directory
    code = main(["verify-global", "--family", *family, "--horizon", "2", *flags,
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_verify_global_passes_on_global_family(tmp_path):
    code = run_cli(
        ["verify-global", "--family", "powerlaw", "--eps", "0.01",
         "--h", "0.0625", "--horizon", "10", "--quiet"],
        tmp_path,
    )
    assert code == 0


# sha256 of the files of verify-global at the default h = 1/16, taken before the
# decay reduction read its cone weights from lattice tables; numpy's float64
# kernels may round differently elsewhere, so they are compared only where taken
VERIFY_GLOBAL_DIGESTS = {
    "profile.csv": "de12488cb9277586f5aaea87071c5889ac8b130fc1f046503e8e941f680dfbfb",
    "report.json": "0e05b7e77e56f3bf2b3fa1a2e49d404546cd51cacaf8ae21db122747a55c104c",
}


def test_verify_global_files_are_pinned(tmp_path):
    here = _environment()
    if here != TAKEN_IN:
        pytest.skip(f"digests were taken in {TAKEN_IN}; this run's float64 kernels ({here}) "
                    "may round differently")
    assert run_cli(["verify-global", "--family", "powerlaw", "--eps", "0.01",
                    "--horizon", "12.5", "--quiet"], tmp_path) == 0
    run = latest(tmp_path, "verify-global")
    assert {name: hashlib.sha256((run / name).read_bytes()).hexdigest()
            for name in VERIFY_GLOBAL_DIGESTS} == VERIFY_GLOBAL_DIGESTS


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


def test_key_integral_keeps_its_mass_at_large_xi(tmp_path):
    # adaptive quadrature over the whole window warned and wrote a ratio of
    # 3.25e-4 at 1e8 against 0.308 at 1e7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["key-integral", "--family", "powerlaw", "--xi-list", "1e6,1e7,1e8",
                        "--quiet"], tmp_path) == 0
    with (latest(tmp_path, "key-integral") / "key_integral.csv").open() as fh:
        ratio = {float(xi): float(r) for xi, _, r in list(csv.reader(fh))[1:]}
    assert ratio[1e8] == pytest.approx(ratio[1e7], rel=0.05)


def test_key_integral_that_does_not_converge_exits_one(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(wavecrit.weights, "_MAX_PANELS", 2)
    assert run_cli(["key-integral", "--family", "powerlaw", "--xi-list", "10,1e8", "--quiet"],
                   tmp_path) == 1
    assert "did not converge at xi=100000000.0" in capsys.readouterr().err
    assert not (tmp_path / "key-integral").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["--family", "logpower", "--gamma", "2", "--cl", "5e-324", "--xi-list", "10"],
     "threshold product underflows to 0 at xi=10.0"),
    (["--family", "iterlog", "--gamma=1e300", "--tau0=0.1", "--xi-list", "10,100"],
     "key integral's integrand is not finite on the window at xi=10.0"),
    # the product is 5e-324 and the bound it scales underflows: was "float division by zero"
    (["--family", "logpower", "--gamma", "0.3", "--cl", "5e-324", "--xi-list", "1e-12"],
     "the ratio's bound underflows to 0 at xi=1e-12"),
    # the sum passes the largest float: refused after a RuntimeWarning from the sum
    (["--family", "logpower", "--gamma", "1e-12", "--cl", "1.7e308", "--xi-list", "1e-300"],
     "key integral's integrand is not finite on the window at xi=1e-300"),
    (["--family", "logpower", "--gamma", "2.2e-308", "--cl", "1.7e308", "--xi-list", "1.7e308"],
     "key integral's integrand is not finite on the window at xi=1.7e+308"),
], ids=["threshold-product-underflow", "integrand-not-finite", "bound-underflow",
        "sum-nan-at-tiny-xi", "sum-inf-at-huge-xi"])
def test_key_integral_refusal_names_the_cause_and_xi(capsys, tmp_path, argv, message):
    assert run_cli(["key-integral"] + argv, tmp_path) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
    assert not any(tmp_path.iterdir())


def test_mu_check_report_keys(tmp_path):
    assert run_cli(
        ["mu", "check", "--family", "powerlaw", "--gamma", "1", "--quiet"],
        tmp_path,
    ) == 0
    payload = json.loads((latest(tmp_path, "mu") / "report.json").read_text())
    assert set(payload) >= {"axioms_pass", "g_convex", "threshold_class", "loglog_bound_pass"}
    assert payload["threshold_class"] == "zero"


def test_mu_check_loglog_bound_in_the_dimension_asked(tmp_path):
    # LogPower(0.45, 3) has gamma > 1/p(2), so its loglog bound holds in two dimensions
    assert run_cli(["mu", "check", "--family", "logpower", "--gamma", "0.45", "--cl", "3",
                    "--n", "2", "--quiet"], tmp_path) == 0
    payload = json.loads((latest(tmp_path, "mu") / "report.json").read_text())
    assert payload["loglog_bound_pass"] is True


@pytest.mark.parametrize("argv, code", [(["onset"], 0), (["mu", "check"], 2),
                                         (["verify-global", "--horizon", "2"], 2)],
                         ids=["onset", "mu-check", "verify-global"])
def test_threshold_product_past_the_float_range_warns_nothing(tmp_path, argv, code):
    # iterlog's mu at gamma = 1e300 is finite at tau0 = 0.1 and overflows below it:
    # exp warned of the overflow and the convexity gaps of inf - inf; the product is
    # inf once loglog(1/tau) passes 1, where the onset is, and the checks fail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv + ["--family", "iterlog", "--gamma=1e300", "--tau0=0.1",
                               "--quiet"], tmp_path) == code
    files = [json.loads(path.read_text()) for path in tmp_path.glob("*/*/*.json")
             if path.name != "manifest.json"]
    assert len(files) == 1
    if code:
        assert files[0]["threshold_class"] == "infinite"
    else:
        alpha = 1.0 + 1.0 / strauss_exponent(3) + EPSILON_EXP  # tau(t) = t^-alpha
        assert files[0]["onset_t"] == pytest.approx(math.exp(math.e / alpha), rel=1e-9)


def test_onset_whose_base_passes_the_float_range(tmp_path):
    # K ~ 1.49e300 at t_lo, and K^(p/(p-1)) overflowed the Python float power:
    # "error: (34, 'Numerical result out of range')"; the base exceeds 1 at t_lo
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["onset", "--family", "logpower", "--gamma", "0.05", "--cl", "1e300",
                        "--tau0", "0.05", "--tmax", "1e20", "--quiet"], tmp_path) == 0
    payload = json.loads((latest(tmp_path, "onset") / "onset.json").read_text())
    assert payload["onset_t"] == 8.19422072649404


@pytest.mark.parametrize("argv, code, verdict", [
    # (v_a + v_b) / 2 overflowed: a warning, and axioms failed on an increasing, concave mu
    (["--family", "logpower", "--gamma", "0.05", "--cl", "1e308"], 0,
     {"axioms_pass": True, "g_convex": True}),
    # gamma * loglog L overflows, and the tail's growth was inf - inf: class finite, estimate inf
    (["--family", "iterlog", "--gamma=1.7e308", "--tau0=0.3"], 2,
     {"threshold_class": "infinite", "threshold_estimate": None}),
], ids=["logpower-cl-at-the-float-maximum", "iterlog-gamma-at-the-float-maximum"])
def test_mu_check_at_the_float_maximum(tmp_path, argv, code, verdict):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["mu", "check", *argv, "--quiet"], tmp_path) == code
    report = json.loads((latest(tmp_path, "mu") / "report.json").read_text())
    assert {key: report[key] for key in verdict} == verdict


@pytest.mark.parametrize("flag, name", [
    (["--c6", "-1"], "c6"), (["--c7", "0"], "c7"),
    (["--tmax", "nan"], "t_max"), (["--tmax", "inf"], "t_max"), (["--tmax", "-5"], "t_max"),
    (["--c6", "inf"], "c6"), (["--c7", "inf"], "c7"),
], ids=["c6", "c7", "tmax-nan", "tmax-inf", "tmax-negative", "c6-inf", "c7-inf"])
def test_onset_nonpositive_constant_exits_one(capsys, tmp_path, flag, name):
    # a blow-up family too, whose onset an unchecked t_max would still predict
    for family in (["powerlaw"], ["logpower", "--gamma", "0.2", "--cl", "10"]):
        code = main(["onset", "--family", *family, *flag, "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and name in err and "usage:" not in err
        assert not any(tmp_path.iterdir())


def test_onset_before_the_near_zero_regime_exits_one(capsys, tmp_path):
    code = main(["onset", "--family", "iterlog", "--gamma", "2", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: t_max=1e+06 never reaches the near-zero regime" in err and "t_lo=1.7416" in err
    assert not any(tmp_path.iterdir())


def test_onset_past_the_underflow_of_tau_exits_one(capsys, tmp_path):
    # was "threshold product needs 0 < tau < 1" from inside the scan
    code = main(["onset", "--family", "powerlaw", "--tmax", "1e250", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: t_max=1e+250 is past t=1.01587e+227" in err and "usage:" not in err
    assert not any(tmp_path.iterdir())


def test_solve_of_levels_that_overflow_exits_one(capsys, tmp_path):
    # was "cannot convert float infinity to integer"
    code = main(["solve", "--family", "powerlaw", "--eps", "0.01", "--h", "1e-300",
                 "--horizon", "1e300", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: horizon=1e+300 / h=1e-300 overflows" in err and "usage:" not in err
    assert not any(tmp_path.iterdir())


def test_lifespan_plot_of_one_huge_amplitude(tmp_path):
    # every x equal and past 2**53, where x0 + 1.0 == x0: was a division by zero
    # after the march had finished; the one point sits at the plot's first pixel
    assert run_cli(["lifespan", "--family", "powerlaw", "--eps-list", "1e300", "--h", "0.05",
                    "--horizon", "2", "--quiet"], tmp_path) == 0
    svg = (latest(tmp_path, "lifespan") / "lifespan.svg").read_text()
    assert '<polyline points="40.00,360.00"' in svg


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
        {"n": 2, "which": "ball-integral"}),
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
    # triplelog's k is a class constant: no field, so not a parameter
    "mu-triplelog": (
        ["mu", "check", "--family", "triplelog", "--gamma", "-0.5"],
        {"family": "triplelog", "gamma": -0.5, "n": 3, "tau0": 2.6191056620718964e-07}),
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


def test_parser_built_once_keeps_runs_independent(tmp_path):
    # one parser serves every call of the process; family commands and
    # commands without a family, interleaved, each write their own manifest
    assert build_parser() is build_parser()
    order = ["mu", "exponents", "onset-iterlog", "sequences", "onset-logpower", "exponents",
             "key-integral", "lemmas-ball-integral", "mu"]
    for k, name in enumerate(order):
        argv, parameters = PINNED_MANIFESTS[name]
        out_dir = tmp_path / str(k)
        run_cli(argv + ["--quiet"], out_dir)
        manifest = json.loads((latest(out_dir, argv[0]) / "manifest.json").read_text())
        assert manifest["parameters"] == parameters, name
    assert build_parser().parse_args(["exponents", "--n", "3"]).modulus == {}


# ------------------------------------------------------------ contract fuzz

# every flag a fuzzed subcommand or family reads, with a typical value; a
# flag takes that value half the time, else one of _EXTREMES.  A subcommand's
# own flags are always given: the defaults of lifespan and verify-global march
# for seconds, so an --h below 0.05 and a --horizon above 5 are left out
_FUZZED = {
    "mu": (["mu", "check"], {"--n": "3"}),
    "onset": (["onset"], {"--tmax": "1000", "--c6": "1", "--c7": "1"}),
    "solve": (["solve"], {"--eps": "0.5", "--h": "0.0625", "--horizon": "2", "--cap": "1e6"}),
    "lifespan": (["lifespan"], {"--eps-list": "2", "--h": "0.0625", "--horizon": "2",
                                "--cap": "1e6"}),
    "verify-global": (["verify-global"], {"--eps": "0.01", "--eps0": "0.05", "--h": "0.0625",
                                          "--horizon": "2", "--cap": "1e6"}),
    "key-integral": (["key-integral"], {"--xi-list": "10,100", "--eps0": "0.05"}),
}
_FUZZED_FAMILIES = {
    "powerlaw": {"--gamma": "1"}, "log1p": {"--gamma": "1"},
    "logpower": {"--gamma": "0.2", "--cl": "10"}, "iterlog": {"--gamma": "1", "--k": "2"},
    "doublelog": {"--gamma": "-1"}, "triplelog": {"--gamma": "-0.5"},
}
_EXTREMES = ["nan", "inf", "-inf", "0", "-1", "5e-324", "2.2e-308", "1e-300", "1e-12",
             "1e300", "1e20", "1.7e308"]
_KEPT = {"--h": lambda v: not float(v) < 0.05, "--horizon": lambda v: not float(v) > 5.0}


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZED)))
    family = draw(st.sampled_from(sorted(_FUZZED_FAMILIES)))
    words, flags = _FUZZED[command]
    argv = [*words, "--family", family]
    for flag, typical in {**flags, **_FUZZED_FAMILIES[family], "--tau0": "0.1"}.items():
        if flag not in flags and not draw(st.booleans()):
            continue
        extremes = [v for v in _EXTREMES if _KEPT.get(flag, bool)(v)]
        argv.append(f"{flag}={draw(st.one_of(st.just(typical), st.sampled_from(extremes)))}")
    return argv


def _says_it_failed(report: dict) -> bool:
    """Whether a mu check's or verify-global's report records a failed check."""
    if "pass" in report:
        return report["pass"] is False
    return not (report["axioms_pass"] and report["g_convex"])


@seed(40)
@settings(max_examples=60, deadline=None, database=None)
@given(_fuzzed_argv())
def test_command_line_contract_under_extreme_flag_values(argv):
    # exit 0 writes one result directory, exit 1 one error line and none, exit 2
    # a usage line and none or a report that records its failed check; nothing
    # escapes main and no warning is raised
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--quiet", f"--out-dir={out}"])
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        err = err.getvalue()
        runs = sorted(Path(out).glob("*/*"))
        assert code in (0, 1, 2), (argv, code)
        if code == 0:
            assert len(runs) == 1 and not err, (argv, err)
        elif code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1 and not runs, (argv, err)
        elif runs:
            assert len(runs) == 1 and not err, (argv, err)
            assert _says_it_failed(json.loads((runs[0] / "report.json").read_text())), argv
        else:
            assert err.startswith("usage: "), (argv, err)
