"""Seeded inputs, operations and output checks of the three workloads.

Each workload is a list of operations issued one after another (a closed
loop with one caller).  An operation is either an in-process call of
``wavecrit.cli.main`` with a generated argv, or a library call on a
``RadialData`` the benchmark builds.  ``Op.run`` is the timed part;
``Op.check`` runs afterwards, outside the timed region, and reads the files
the CLI wrote or the value the library returned.

Every callable is looked up on its module at call time (``cli.main``,
``solver.march``, ...), so the traced run's wrappers see each call.

Why these workloads and seed ranges: see README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 0
WORKLOADS = ("global-verify", "lifespan-sweep", "lemma-suite")

# criterion 11: the side of the threshold each family's limit falls on, for
# the parameter ranges drawn below
EXPECTED_CLASS = {
    "powerlaw": "zero",
    "log1p": "zero",
    "logpower": "infinite",
    "iterlog": "infinite",
    "doublelog": "zero",
    "triplelog": "zero",
}

GLOBAL_HORIZONS = (12.5, 25.0, 50.0)
LADDER = (1.75, 6.0, 12)  # lowest amplitude, highest amplitude, rungs
LADDER_JITTER = 0.02
KEY_INTEGRAL_LIMIT = 50.0


@dataclass
class Outcome:
    """What one operation returned: a CLI exit code or a library value."""

    rc: Optional[int] = None
    value: object = None
    error: Optional[str] = None


@dataclass
class Op:
    name: str
    run: Callable[[Path], Outcome]
    # (outcome, out_dir, values of earlier ops) -> (problems, observed values)
    check: Callable[[Outcome, Path, dict], tuple]
    is_cli: bool = True


@dataclass
class Workload:
    inputs: dict  # the generated inputs, for the results record
    ops: list = field(default_factory=list)


def _guarded(fn) -> Outcome:
    try:
        return fn()
    except SystemExit as exc:  # argparse usage errors and parser.error
        return Outcome(error=f"SystemExit({exc.code!r})")
    except Exception:  # one failed operation must not end the run
        return Outcome(error=traceback.format_exc())


def _cli_op(name: str, argv: list, check) -> Op:
    import wavecrit.cli as cli

    def run(out_dir: Path) -> Outcome:
        full = [*argv, "--quiet", "--out-dir", str(out_dir)]
        return _guarded(lambda: Outcome(rc=cli.main(full)))

    return Op(name=name, run=run, check=check)


def _lib_op(name: str, call, check) -> Op:
    def run(out_dir: Path) -> Outcome:
        return _guarded(lambda: Outcome(value=call()))

    return Op(name=name, run=run, check=check, is_cli=False)


def _f(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# --------------------------------------------------------------------------
# reading what the CLI wrote

def _result_dir(out_dir: Path) -> Path:
    found = sorted(out_dir.glob("*/*/manifest.json"))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one result directory under {out_dir}, found {len(found)}")
    return found[0].parent


def _read_json(out_dir: Path, name: str) -> dict:
    return json.loads((_result_dir(out_dir) / name).read_text())


def _read_csv(out_dir: Path, name: str) -> list:
    with (_result_dir(out_dir) / name).open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0.0


def _reading(check):
    """Turn a missing or malformed output file into a reported problem."""

    def wrapped(outcome, out_dir, earlier):
        try:
            return check(outcome, out_dir, earlier)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"output unreadable: {type(exc).__name__}: {exc}"], {}

    return wrapped


# --------------------------------------------------------------------------
# global-verify

def _check_verify_global(outcome, out_dir, earlier):
    rep = _read_json(out_dir, "report.json")
    problems = []
    if not rep["pass"] or rep["failures"]:
        problems.append(f"verification did not pass: {rep['failures']}")
    if rep["threshold_class"] != EXPECTED_CLASS["powerlaw"]:
        problems.append(f"threshold class {rep['threshold_class']}")
    norm, const = rep["weighted_sup_norm"], rep["decay_constant"]
    a_norm, b_norm = rep["data_norms"]
    if norm is None or const is None:
        problems.append("no weighted norm or decay constant (run did not complete)")
    elif abs(const * (a_norm + b_norm) - norm) > 1e-12 * abs(norm):
        problems.append(f"decay constant x data norms = {const * (a_norm + b_norm)!r} != "
                        f"weighted sup norm {norm!r}")
    return problems, {"weighted_sup_norm": norm, "decay_constant": const,
                      "a_norm": a_norm, "threshold_class": rep["threshold_class"]}


def _global_verify(seed: int) -> Workload:
    rng = random.Random(seed)
    eps = _log_uniform(rng, 0.008, 0.0125)
    wl = Workload({"eps": eps, "horizons": GLOBAL_HORIZONS})
    for horizon in GLOBAL_HORIZONS:
        argv = ["verify-global", "--family", "powerlaw", "--h", "0.0625",
                "--horizon", _f(horizon), "--eps", _f(eps)]
        wl.ops.append(_cli_op(f"verify-global-h{horizon:g}", argv,
                              _reading(_check_verify_global)))
    return wl


# --------------------------------------------------------------------------
# lifespan-sweep

def amplitude_ladder(rng: random.Random) -> list:
    """Log-spaced ladder; interior rungs jittered, end rungs pinned.

    The lowest rung's lifespan is steep in amplitude and its march is the
    costliest in a pass, so jittering it would change the work per pass
    from seed to seed.
    """
    lo, hi, rungs = LADDER
    ratio = (hi / lo) ** (1.0 / (rungs - 1))
    ladder = [lo * ratio ** k for k in range(rungs)]
    for k in range(1, rungs - 1):
        ladder[k] *= 1.0 + rng.uniform(-LADDER_JITTER, LADDER_JITTER)
    ladder[-1] = hi
    return ladder


def _lifespan_check(ladder):
    def check(outcome, out_dir, earlier):
        rows = _read_csv(out_dir, "lifespan.csv")
        problems = []
        if [float(r[0]) for r in rows] != ladder:
            problems.append("rows do not match the amplitude ladder")
        bad = [r for r in rows if r[2] != "blew_up"]
        if bad:
            problems.append(f"rungs that did not blow up: {bad}")
        t = [float(r[1]) for r in rows]
        if any(b > a for a, b in zip(t, t[1:])):
            problems.append(f"t_detect increases with amplitude: {t}")
        return problems, {"t_detect": t}

    return _reading(check)


def _lifespan_sweep(seed: int) -> Workload:
    ladder = amplitude_ladder(random.Random(seed))
    wl = Workload({"eps_list": ladder})
    argv = ["lifespan", "--family", "logpower", "--gamma", "0.2", "--cl", "10",
            "--h", "0.01", "--horizon", "6", "--cap", "1e6",
            "--eps-list", ",".join(_f(e) for e in ladder)]
    wl.ops.append(_cli_op("lifespan", argv, _lifespan_check(ladder)))
    return wl


# --------------------------------------------------------------------------
# lemma-suite

def _mu_check(family):
    def check(outcome, out_dir, earlier):
        rep = _read_json(out_dir, "report.json")
        problems = []
        if rep["threshold_class"] != EXPECTED_CLASS[family]:
            problems.append(f"threshold class {rep['threshold_class']}, "
                            f"criterion 11 expects {EXPECTED_CLASS[family]}")
        return problems, {k: rep[k] for k in ("threshold_class", "threshold_estimate")}

    return _reading(check)


def _check_kernel_bounds(outcome, out_dir, earlier):
    rep = _read_json(out_dir, "report.json")
    values = {k: rep[k] for k in ("a0", "b0", "b1", "b2")}
    problems = [f"{k} = {v!r} is not positive and finite"
                for k, v in values.items() if not _finite_positive(v)]
    if not rep["pass"]:
        problems.append("kernel bounds report did not pass")
    return problems, values


def _check_ball_integral(outcome, out_dir, earlier):
    rep = _read_json(out_dir, "report.json")
    problems = [] if rep["pass"] else [f"dynamic range {rep['dynamic_range']!r} > 20"]
    return problems, {k: rep[k] for k in ("bracket_low", "bracket_high")}


def _check_key_integral(outcome, out_dir, earlier):
    ratio = _read_json(out_dir, "summary.json")["max_min_ratio"]
    problems = []
    if not _finite_positive(ratio) or ratio > KEY_INTEGRAL_LIMIT:
        problems.append(f"max/min ratio {ratio!r} outside (0, {KEY_INTEGRAL_LIMIT:g}]")
    return problems, {"max_min_ratio": ratio}


def _check_onset(outcome, out_dir, earlier):
    onset = _read_json(out_dir, "onset.json")["onset_t"]
    problems = [] if _finite_positive(onset) else [f"no onset predicted: {onset!r}"]
    return problems, {"onset_t": onset}


def _sequences_check(J):
    def check(outcome, out_dir, earlier):
        rows = _read_csv(out_dir, "ledger.csv")
        problems = [] if len(rows) == J + 1 else [f"{len(rows)} ledger rows, expected {J + 1}"]
        return problems, {"rows": len(rows), "log_m_last": float(rows[-1][5])}

    return _reading(check)


def _value_check(ok, describe):
    def check(outcome, out_dir, earlier):
        if outcome.value is None:
            return ["no result"], {}
        values = describe(outcome.value)
        problems = [] if ok(outcome.value, earlier) else [f"out of tolerance: {values}"]
        return problems, values

    return check


def _lemma_suite(seed: int) -> Workload:
    import wavecrit.blowup as blowup
    import wavecrit.exponents as exponents
    import wavecrit.kernels as kernels
    import wavecrit.modulus as modulus
    import wavecrit.solver as solver
    import wavecrit.weights as weights

    rng = random.Random(seed)
    gammas = {
        "powerlaw": rng.uniform(0.3, 1.0),
        "log1p": rng.uniform(0.3, 1.0),
        "logpower": rng.uniform(0.1, 0.2),
        "iterlog": 1.0,  # fixed: its companion convexity margin is a known failure
        "doublelog": rng.uniform(-2.0, -1.0),
        "triplelog": rng.uniform(-1.0, -0.2),
    }
    cl = _log_uniform(rng, 1.0, 10.0)
    xi0 = _log_uniform(rng, 5.0, 20.0)
    xi_list = ",".join(_f(xi0 * 10.0 ** k) for k in range(4))
    decay_eps = _log_uniform(rng, 0.008, 0.0125)
    jensen_seed = rng.randrange(2 ** 31)
    wl = Workload({"gammas": gammas, "cl": cl, "xi_list": xi_list,
                   "decay_eps": decay_eps, "jensen_seed": jensen_seed})

    for family, gamma in gammas.items():
        argv = ["mu", "check", "--family", family, "--gamma", _f(gamma)]
        if family == "logpower":
            argv += ["--cl", _f(cl)]
        wl.ops.append(_cli_op(f"mu-{family}", argv, _mu_check(family)))
    for n in (2, 3):
        wl.ops.append(_cli_op(f"kernel-bounds-n{n}",
                              ["lemmas", "verify", "--which", "kernel-bounds", "--n", str(n)],
                              _reading(_check_kernel_bounds)))
    wl.ops.append(_cli_op("ball-integral",
                          ["lemmas", "verify", "--which", "ball-integral", "--n", "3"],
                          _reading(_check_ball_integral)))
    for family in ("powerlaw", "doublelog"):
        wl.ops.append(_cli_op(f"key-integral-{family}",
                              ["key-integral", "--family", family, "--xi-list", xi_list],
                              _reading(_check_key_integral)))
    wl.ops.append(_cli_op("onset", ["onset", "--family", "logpower", "--gamma",
                                    _f(gammas["logpower"]), "--cl", _f(cl)],
                          _reading(_check_onset)))
    wl.ops.append(_cli_op("sequences", ["sequences", "--n", "3", "--J", "30"],
                          _sequences_check(30)))

    wl.ops.append(_lib_op(
        "linear-decay",
        lambda: weights.linear_decay_check(solver.default_bump(decay_eps), 100.0),
        _value_check(lambda rep, _: rep.passed and _finite_positive(rep.fitted_constant),
                     lambda rep: {"fitted_constant": rep.fitted_constant})))

    def identity_residual(h):
        spec = modulus.make_spec(modulus.PowerLaw(1.0))
        grid = solver.CharacteristicGrid.cover(h, 5.0, 1.0)
        run = solver.march(solver.default_bump(0.5), spec, grid)
        cfg = kernels.KernelConfig(n=3, lambda0=1.0, R=1.0, quad_points=2048)
        return abs(blowup.integral_identity_residual(run, cfg, exponents.kernel_exponent(3), 5.0))

    wl.ops.append(_lib_op("identity-h0.0625", lambda: identity_residual(0.0625),
                          _value_check(lambda r, _: _finite_positive(r),
                                       lambda r: {"residual": r})))
    # criterion 12: one grid halving shrinks the residual at least 3x
    wl.ops.append(_lib_op(
        "identity-h0.03125", lambda: identity_residual(0.03125),
        _value_check(
            lambda r, earlier: _finite_positive(r)
            and earlier.get("identity-h0.0625", {}).get("residual", 0.0) >= 3.0 * r,
            lambda r: {"residual": r})))
    wl.ops.append(_lib_op(
        "jensen",
        lambda: modulus.jensen_margin(modulus.make_spec(modulus.PowerLaw(1.0)), 3,
                                      trials=10000, cells=16, seed=jensen_seed),
        _value_check(lambda m, _: m <= 1e-12, lambda m: {"margin": m})))
    return wl


_BUILDERS = {
    "global-verify": _global_verify,
    "lifespan-sweep": _lifespan_sweep,
    "lemma-suite": _lemma_suite,
}


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs from ``seed``; same seed, same inputs."""
    return _BUILDERS[name](seed)


# --------------------------------------------------------------------------
# stored reference values for the default seed

REFERENCE_TOLERANCE = 1e-7  # relative; refactors that keep the numbers stay far inside


def compare_reference(observed: dict, reference: dict) -> list:
    problems = []
    for key, ref in reference.items():
        got = observed.get(key)
        if isinstance(ref, list):
            same = isinstance(got, list) and len(got) == len(ref) and all(
                _close(a, b) for a, b in zip(got, ref))
        else:
            same = _close(got, ref)
        if not same:
            problems.append(f"{key} = {got!r}, reference {ref!r}")
    return problems


def _close(a, b) -> bool:
    if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
        return abs(a - b) <= REFERENCE_TOLERANCE * max(abs(a), abs(b))
    return a == b
