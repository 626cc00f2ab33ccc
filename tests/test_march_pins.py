"""Bit-identity pins of the march: marched fields, sign bits included, and
lifespan ladder rows.

Every pinned march is held bit for bit to ``oracles.march_level_by_level``,
the same arithmetic as a plain loop of one level at a time, on whatever
machine the tests run.  Its sha256 is pinned as well, taken before the
level loop's fixed costs were hoisted (forcing resolved once per spec, the
free band in blocks).  numpy picks its float64 exp, log, log1p and power
kernels by CPU feature, and those kernels may differ by an ulp between
targets and numpy builds, so a digest is compared only in the environment
it was taken in (``TAKEN_IN``); elsewhere that test is skipped, naming both
environments.
"""

import hashlib
import platform

import numpy as np
import pytest

from oracles import march_level_by_level, mixed_bump
from wavecrit.modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    PowerLaw,
    TripleLogGlobal,
    make_spec,
)
from wavecrit.solver import (
    CharacteristicGrid,
    LifespanRow,
    default_bump,
    lifespan_sweep,
    march,
    velocity_bump,
)

TAKEN_IN = {"numpy": "2.4.6", "machine": "x86_64",
            "exp": "X86_V4", "log": "X86_V4", "log1p": "X86_V4", "power": "X86_V4"}


def _environment() -> dict:
    """numpy's version, the machine, and the CPU target numpy dispatches
    each float64 kernel of the forcing to (none before numpy 2.1, which
    does not say)."""
    try:
        from numpy.lib.introspect import opt_func_info
        info = opt_func_info(func_name="^(exp|log|log1p|power)$")
    except ImportError:
        info = {}
    targets = {name: (sigs.get("dd") or sigs.get("ddd") or {}).get("current")
               for name, sigs in info.items()}
    return {"numpy": np.__version__, "machine": platform.machine(), **targets}


def _digest(field):
    return hashlib.sha256(np.ascontiguousarray(field, dtype=np.float64).tobytes()).hexdigest()


# (data, family, grid, (status, t_detect, shape), sha256 of the field)
CASES = {
    # verify-global's march: PowerLaw, eps = 0.01, h = 1/16
    "powerlaw-12.5": (default_bump(0.01), PowerLaw(1.0), CharacteristicGrid.cover(0.0625, 12.5, 1.0),
                      ("completed", None, (201, 218)),
                      "e3d0c2bcb1c6cb538d3ce51cd13becc9774e1802c644c3848a79962b1109d2ab"),
    "powerlaw-50": (default_bump(0.01), PowerLaw(1.0), CharacteristicGrid.cover(0.0625, 50.0, 1.0),
                    ("completed", None, (801, 818)),
                    "762613bcfe883de7f1017ab6df8113626c9d5c93092ef547d1811f9b61fe7c76"),
    # the continuation past tau0 = 0.301, up to the level that crosses the cap
    "logpower-blowup": (default_bump(2.0), LogPower(0.2, 10.0), CharacteristicGrid.cover(0.01, 6.0, 1.0),
                        ("blew_up", 0.99, (100, 702)),
                        "a86ad0fe91512f8ec2ad93400f21956822f792e62a1fda7571a7aa2103e1a7f6"),
    # linear mode, and every family whose forcing kernel differs (the
    # iterated-log ones below tau0 need their zero mask)
    "linear": (velocity_bump(1.0), None, CharacteristicGrid.cover(0.05, 4.0, 1.0),
               ("completed", None, (81, 102)),
               "23c81764a28c8d7d485e994a21aa06d16ece93c9fff74ac4754b1324963f94ed"),
    "log1p": (velocity_bump(3.0), LogOnePlus(0.5), CharacteristicGrid.cover(0.05, 4.0, 1.0),
              ("completed", None, (81, 102)),
              "f02d89641ad2cd2551cbb20e9216f689a26101fc9db8e31100959f2f7cbdbcde"),
    "doublelog": (velocity_bump(0.01), DoubleLogGlobal(-1.0), CharacteristicGrid.cover(0.05, 4.0, 1.0),
                  ("completed", None, (81, 102)),
                  "c23171631a75007953ab4b6271301c342c18a918e6dbb9d037db2b5e819d76ee"),
    "iterlog": (velocity_bump(4e-6), IteratedLogBlowup(1.0), CharacteristicGrid.cover(0.05, 4.0, 1.0),
                ("completed", None, (81, 102)),
                "d4ccd5c87a2a7c2aa64ec23c506fc0a407f404fcc68af4b8ad61d4fcd033a746"),
    "triplelog": (velocity_bump(1e-7), TripleLogGlobal(-0.5), CharacteristicGrid.cover(0.05, 4.0, 1.0),
                  ("completed", None, (81, 102)),
                  "bc9b079b324f41e22254da4cc2f64a857a487705c672c4bf98f75a3c16bc34d1"),
    # both profiles nonzero, the one datum whose free part S(t+r) - S(t-r), S = P/2 + Q1,
    # rounds differently from P and Q1 read apart; its digest was taken with one foot table
    "mixed": (mixed_bump(0.8), LogPower(0.2, 10.0), CharacteristicGrid.cover(0.0625, 12.5, 1.0),
              ("completed", None, (201, 218)),
              "ceff683bc349e04a2cbb877dbd902fae65995421f86c43a7f80a15cbd4381a94"),
}


def _march(name):
    data, family, grid, _, _ = CASES[name]
    return march(data, None if family is None else make_spec(family), grid)


@pytest.mark.parametrize("name", CASES)
def test_march_is_the_level_by_level_march_bit_for_bit(name):
    data, family, grid, (status, t_detect, shape), _ = CASES[name]
    run = _march(name)
    assert (run.status, run.t_detect, run.field.shape) == (status, t_detect, shape)
    field, ref_status, last = march_level_by_level(
        data, None if family is None else make_spec(family), grid)
    assert (ref_status, last) == (status, shape[0] - 1)
    assert run.field.tobytes() == field.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_march_field_digest_is_pinned(name):
    here = _environment()
    if here != TAKEN_IN:
        pytest.skip(f"digests were taken in {TAKEN_IN}; this run's float64 kernels ({here}) "
                    "may round differently, and the march is held to the level-by-level "
                    "march bit for bit instead")
    assert _digest(_march(name).field) == CASES[name][4]


def test_lifespan_ladder_rows_are_pinned():
    # the 12 rungs of the lifespan-sweep benchmark ladder, without its jitter
    ladder = [1.75 * (6.0 / 1.75) ** (k / 11) for k in range(12)]
    rows = lifespan_sweep(default_bump(1.0), make_spec(LogPower(0.2, 10.0)), ladder,
                          CharacteristicGrid.cover(0.01, 6.0, 1.0), cap=1e6)
    assert [row.t_detect for row in rows] == [
        2.96, 1.17, 0.66, 0.53, 0.46, 0.4, 0.36, 0.32, 0.29, 0.26, 0.24, 0.22]
    assert {row.status for row in rows} == {"blew_up"}
    text = repr([(row.eps, row.t_detect, row.status) for row in rows]).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "8c5a0e88b25ed3fcab5693acc0c561961fbc478c4aa19530a77ba59e970316e2")


def test_ladder_with_refused_rungs_is_pinned():
    # a rung past tau0 of a family without a continuation fails alone
    rows = lifespan_sweep(default_bump(1.0), make_spec(IteratedLogBlowup(1.0)),
                          [1e-6, 1e-5, 1.0], CharacteristicGrid.cover(0.05, 2.0, 1.0))
    failed = "failed: mu argument beyond tau0=8.04712e-06 needs a continuation"
    assert rows == [LifespanRow(1e-6, None, "completed"), LifespanRow(1e-5, None, failed),
                    LifespanRow(1.0, None, failed)]
