"""Bit-identity pins of the march: marched fields, the levels its stream
hands out collected, sign bits included, and lifespan ladder rows.

Every pinned march is held bit for bit to ``oracles.march_level_by_level``,
the same arithmetic as a plain loop of one level at a time, on whatever
machine the tests run.  Its sha256 is pinned as well, first taken before
the level loop's fixed costs were hoisted (forcing resolved once per spec,
the free band in blocks) and taken again when p(3) became the correctly
rounded 1 + sqrt(2), which moves every forced field in its last bits.  numpy picks its float64 exp, log, log1p and power
kernels by CPU feature, and those kernels may differ by an ulp between
targets and numpy builds, so a digest is compared only in the environment
it was taken in (``TAKEN_IN``); elsewhere that test is skipped, naming both
environments.
"""

import hashlib
import platform

import numpy as np
import pytest

from oracles import march_field, march_level_by_level, mixed_bump
from wavecrit.modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    PowerLaw,
    TripleLogGlobal,
    make_spec,
)
from wavecrit.reporting import row_blocks
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
                      "cb724f219a6a84f12d2b56cf7bdcb2e9006bc9c15b2138f2f7a4a61a413dba7f"),
    "powerlaw-50": (default_bump(0.01), PowerLaw(1.0), CharacteristicGrid.cover(0.0625, 50.0, 1.0),
                    ("completed", None, (801, 818)),
                    "e8b52fd16b49d9eb47a8c01780566f37a191920f53e8938986df8a289dc7d673"),
    # the continuation past tau0 = 0.301, up to the level that crosses the cap
    "logpower-blowup": (default_bump(2.0), LogPower(0.2, 10.0), CharacteristicGrid.cover(0.01, 6.0, 1.0),
                        ("blew_up", 0.99, (100, 702)),
                        "2932781342e0e1e02f9e31806f8a7b66947f070ade4ee5c05e898c1a00e2916f"),
    # linear mode, and every family whose forcing kernel differs (the
    # iterated-log ones below tau0 need their zero mask)
    "linear": (velocity_bump(1.0), None, CharacteristicGrid.cover(0.05, 4.0, 1.0),
               ("completed", None, (81, 102)),
               "23c81764a28c8d7d485e994a21aa06d16ece93c9fff74ac4754b1324963f94ed"),
    "log1p": (velocity_bump(3.0), LogOnePlus(0.5), CharacteristicGrid.cover(0.05, 4.0, 1.0),
              ("completed", None, (81, 102)),
              "0bef5054ef2fd6254f51617fb2b18f9e7691e36f36e8ac587b1afdfc86f146c4"),
    "doublelog": (velocity_bump(0.01), DoubleLogGlobal(-1.0), CharacteristicGrid.cover(0.05, 4.0, 1.0),
                  ("completed", None, (81, 102)),
                  "e9fd692e3ebf66f702bd7f181e566e6ab221992bc05e136754b801605cfbe967"),
    "iterlog": (velocity_bump(4e-6), IteratedLogBlowup(1.0), CharacteristicGrid.cover(0.05, 4.0, 1.0),
                ("completed", None, (81, 102)),
                "c66849c054014f330fa4cbac937e9b876111187494ecadeee0178be77bbf15b8"),
    "triplelog": (velocity_bump(1e-7), TripleLogGlobal(-0.5), CharacteristicGrid.cover(0.05, 4.0, 1.0),
                  ("completed", None, (81, 102)),
                  "f566a3587460cd9f07f201d76229e9b9ef7bd5aca359a799bd9297e2bbfe74f6"),
    # both profiles nonzero, the one datum whose free part S(t+r) - S(t-r), S = P/2 + Q1,
    # rounds differently from P and Q1 read apart; its digest was taken with one foot table
    "mixed": (mixed_bump(0.8), LogPower(0.2, 10.0), CharacteristicGrid.cover(0.0625, 12.5, 1.0),
              ("completed", None, (201, 218)),
              "b91fc1cbddc7ae863643d40833871c69efc799d7a71343eb3ad5c819808f44be"),
}


def _march(name):
    """(run, field) of the march of case ``name``."""
    data, family, grid, _, _ = CASES[name]
    return march_field(data, None if family is None else make_spec(family), grid)


@pytest.mark.parametrize("name", CASES)
def test_march_is_the_level_by_level_march_bit_for_bit(name):
    data, family, grid, (status, t_detect, shape), _ = CASES[name]
    run, field = _march(name)
    assert (run.status, run.t_detect, field.shape) == (status, t_detect, shape)
    assert run.field.shape == (shape[0], 0)
    reference, ref_status, last = march_level_by_level(
        data, None if family is None else make_spec(family), grid)
    assert (ref_status, last) == (status, shape[0] - 1)
    assert field.tobytes() == reference.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_march_field_digest_is_pinned(name):
    here = _environment()
    if here != TAKEN_IN:
        pytest.skip(f"digests were taken in {TAKEN_IN}; this run's float64 kernels ({here}) "
                    "may round differently, and the march is held to the level-by-level "
                    "march bit for bit instead")
    assert _digest(_march(name)[1]) == CASES[name][4]


@pytest.mark.parametrize("name", CASES)
def test_march_without_a_reducer_holds_no_block(traced_peak, name):
    # with no reducer a march is a ladder of one rung: its stop, detection time and
    # levels are those of the march with one, and its peak falls by the block of
    # levels and the free band's buffers (1.0 to 1.9 blocks here)
    data, family, grid, (status, t_detect, shape), _ = CASES[name]
    spec = None if family is None else make_spec(family)
    bare, bare_peak = traced_peak(lambda: march(data, spec, grid))
    run, peak = traced_peak(lambda: march(data, spec, grid, reduce=lambda i0, rows: None))
    for marched in (bare, run):
        assert (marched.status, marched.t_detect, marched.field.shape) == (status, t_detect, (shape[0], 0))
    block = 8 * next(row_blocks(grid.t_levels + 1, grid.r_nodes)).stop * grid.r_nodes
    assert 0.75 * block < peak - bare_peak < 2.5 * block


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
