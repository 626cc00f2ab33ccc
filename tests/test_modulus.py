import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavecrit.exponents import strauss_exponent
from wavecrit.modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    ModulusSpec,
    PowerLaw,
    TripleLogGlobal,
    axioms_check,
    classify_strauss_threshold,
    convex_companion,
    convexity_check,
    jensen_margin,
    loglog_bound_check,
    make_spec,
    mu_eval,
    threshold_product,
)
from wavecrit.modulus import _monotone_concave  # the blocked pair sweep itself
from wavecrit.reporting import BLOCK_ELEMENTS

from oracles import concavity_whole_grid, convexity_whole_grid, jensen_whole_draw, mu_direct

P3 = strauss_exponent(3)

ALL_DEFAULT_SPECS = [
    make_spec(PowerLaw(1.0)),
    make_spec(PowerLaw(0.5)),
    make_spec(LogOnePlus(1.0)),
    make_spec(LogPower(0.2, 10.0)),
    make_spec(LogPower(1.0 / P3, 5.0)),
    make_spec(IteratedLogBlowup(1.0, 2)),
    make_spec(DoubleLogGlobal(-1.0)),
    make_spec(TripleLogGlobal(-0.5)),
]


# ---------------------------------------------------------------- evaluation

def test_power_law_point():
    assert mu_eval(make_spec(PowerLaw(1.0)), 0.5) == 0.5


def test_log_power_point():
    # log(1/tau) = 1 at tau = 1/e, so the power factor drops out
    spec = make_spec(LogPower(0.3, 7.0), tau0=0.4)
    assert abs(mu_eval(spec, math.exp(-1.0)) - 7.0) < 1e-12


def test_double_log_point():
    spec = make_spec(DoubleLogGlobal(-1.0), tau0=math.exp(-math.e))
    assert abs(mu_eval(spec, math.exp(-math.e)) - math.exp(-1.0 / P3)) < 1e-14


def test_zero_is_exact():
    for spec in ALL_DEFAULT_SPECS:
        assert mu_eval(spec, 0.0) == 0.0


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        mu_eval(make_spec(PowerLaw(1.0)), -0.1)


def test_beyond_cutoff_without_continuation_rejected():
    spec = make_spec(DoubleLogGlobal(-1.0))
    with pytest.raises(ValueError):
        mu_eval(spec, 0.5)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        PowerLaw(1.5)
    with pytest.raises(ValueError):
        LogPower(-0.1)
    with pytest.raises(ValueError):
        IteratedLogBlowup(1.0, k=1)
    with pytest.raises(ValueError):
        DoubleLogGlobal(-0.5)
    with pytest.raises(ValueError):
        ModulusSpec(PowerLaw(1.0), tau0=0.0)
    # the e-tower domain guard exp(-tower(4)) underflows to 0
    with pytest.raises(ValueError, match="largest admissible k is 3"):
        IteratedLogBlowup(1.0, k=4)
    # the iterated-log depth of the two global families is fixed, not a field
    assert (DoubleLogGlobal.k, TripleLogGlobal.k) == (2, 3)
    with pytest.raises(TypeError):
        TripleLogGlobal(-0.5, k=4)
    # a field out of range by being nan or infinite is refused as well
    for family, fields in (
        (PowerLaw, (math.nan,)), (LogOnePlus, (math.nan,)),
        (LogPower, (math.nan,)), (LogPower, (math.inf,)),
        (LogPower, (0.2, math.nan)), (LogPower, (0.2, math.inf)),
        (IteratedLogBlowup, (math.nan,)), (IteratedLogBlowup, (math.inf,)),
        (DoubleLogGlobal, (math.nan,)), (DoubleLogGlobal, (-math.inf,)),
        (TripleLogGlobal, (math.nan,)), (TripleLogGlobal, (-math.inf,)),
    ):
        with pytest.raises(ValueError, match="gamma" if len(fields) == 1 else "cl"):
            family(*fields)


def test_make_spec_refuses_a_non_family():
    for tau0 in (None, 0.1):
        with pytest.raises(TypeError, match="unknown modulus family"):
            make_spec(object(), tau0=tau0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family, tau0", [
    (IteratedLogBlowup(1.0), 0.5),
    (DoubleLogGlobal(-1.0), 0.5),
    (TripleLogGlobal(-0.5), 0.5),
    (LogPower(0.2, 10.0), 1.0),
    (LogPower(0.2, 10.0), math.inf),
    # log mu(0.5) = 3665 is finite, mu(0.5) is not: the spec was accepted, and
    # mu_eval read inf there and axioms_check a nan constant
    (LogPower(1e4), 0.5),
], ids=["iterlog", "doublelog", "triplelog", "logpower-one", "logpower-inf", "logpower-overflow"])
def test_make_spec_refuses_tau0_past_the_log_domain(family, tau0):
    # mu's near-zero formula is not finite at such a cutoff
    with pytest.raises(ValueError, match=r"^tau0=.*: mu\(tau0\) is not finite$"):
        make_spec(family, tau0=tau0)


def test_make_spec_keeps_admissible_tau0():
    for family, tau0 in ((DoubleLogGlobal(-1.0), math.exp(-math.e)), (LogPower(0.3, 7.0), 0.4),
                         (PowerLaw(1.0), 5.0), (LogOnePlus(1.0), 1e300),
                         (LogPower(1e4), 0.3)):  # mu underflows to 0 there
        assert make_spec(family, tau0=tau0).tau0 == tau0
    for spec in ALL_DEFAULT_SPECS:  # every default, set explicitly
        assert make_spec(spec.family, tau0=spec.tau0) == spec


def test_continuation_matches_paperless_recipe():
    # continuous at tau0 and 3, strictly increasing over the bridge
    spec = make_spec(LogPower(0.2, 10.0))
    t0 = spec.tau0
    assert abs(mu_eval(spec, t0) - mu_eval(spec, t0 * (1 + 1e-12))) < 1e-10
    assert abs(mu_eval(spec, 3.0 - 1e-12) - mu_eval(spec, 3.0)) < 1e-10
    taus = np.linspace(t0, 10.0, 5001)
    assert np.all(np.diff(mu_eval(spec, taus)) > -1e-14)
    # the far branch grows like cl * (log tau)^gamma
    assert abs(mu_eval(spec, 100.0) - 10.0 * math.log(100.0) ** 0.2) < 1e-12


# -------------------------------------------------------- axioms / convexity

@pytest.mark.parametrize("spec", ALL_DEFAULT_SPECS, ids=lambda s: type(s.family).__name__)
def test_modulus_axioms_on_defaults(spec):
    report = axioms_check(spec)
    assert report.passed, report.region


def test_monotone_on_thousand_point_grid():
    for spec in ALL_DEFAULT_SPECS:
        top = min(spec.tau0, 0.9)
        taus = np.minimum(np.exp(np.linspace(math.log(top) - 10, math.log(top), 1000)), top)
        vals = mu_eval(spec, taus)
        assert np.all(np.diff(vals) > 0.0)


def test_companion_oddness_and_zero():
    spec = make_spec(PowerLaw(1.0))
    assert convex_companion(spec, 3, 0.0) == 0.0
    taus = np.linspace(-1.5, 1.5, 301)
    g = convex_companion(spec, 3, taus)
    assert np.max(np.abs(g + g[::-1])) < 1e-15


def test_companion_point_value():
    got = convex_companion(make_spec(PowerLaw(1.0)), 3, 0.25)
    assert abs(got - 0.25 * 0.25 ** (1.0 / P3)) < 1e-15


def test_convexity_power_law():
    report = convexity_check(make_spec(PowerLaw(1.0)), 3, np.linspace(-2, 2, 201))
    assert report.passed


def test_convexity_log_power_near_zero():
    spec = make_spec(LogPower(0.2, 100.0), tau0=1.0 / 3.0)
    report = convexity_check(spec, 3, np.linspace(-1.0 / 3.0, 1.0 / 3.0, 201))
    assert report.passed


def test_convexity_reports_zero_violation_when_strictly_convex():
    spec = make_spec(PowerLaw(1.0))
    grid = np.linspace(-1e-9, 1e-9, 41)
    report = convexity_check(spec, 3, grid)
    assert report.passed
    assert report.fitted_constant == 0.0


def test_convexity_needs_two_nonnegative_points():
    spec = make_spec(PowerLaw(1.0))
    for grid in (np.linspace(-1.0, 0.0, 11), np.linspace(-1.0, -0.1, 10), [0.5], []):
        with pytest.raises(ValueError, match="two non-negative points"):
            convexity_check(spec, 3, grid)


@pytest.mark.parametrize("spec", ALL_DEFAULT_SPECS, ids=repr)
def test_convexity_reads_the_nonnegative_half(spec):
    # the companion is odd, so any grid gives the verdict and margin of its
    # non-negative points: the symmetric grid of `mu check`, the half alone,
    # and that half shuffled among arbitrary negative points
    top = min(spec.tau0, 2.0)
    symmetric = np.linspace(-top, top, 201)
    half = symmetric[symmetric >= 0.0]
    rng = np.random.default_rng(3)
    negatives = -top * rng.uniform(0.0, 1.0, 37)
    expected = convexity_check(spec, 3, symmetric)
    for grid in (half, rng.permutation(np.concatenate([half, negatives]))):
        report = convexity_check(spec, 3, grid)
        assert (report.passed, report.fitted_constant) == (expected.passed,
                                                           expected.fitted_constant)


# the pair sweeps of n points run in row_blocks(n, n): the largest n with n^2 <=
# BLOCK_ELEMENTS and the n below it take one block, the next n two, the least n
# past it whose last block is one row three, and axioms_check's 1000 points many;
# doublelog at gamma = -1.72 fails its concavity check
PAIR_SPECS = [*ALL_DEFAULT_SPECS, make_spec(DoubleLogGlobal(-1.72))]
_ONE_BLOCK = math.isqrt(BLOCK_ELEMENTS)
PAIR_GRID_SIZES = [2, _ONE_BLOCK - 1, _ONE_BLOCK, _ONE_BLOCK + 1,
                   next(n for n in range(_ONE_BLOCK + 2, 1000) if n % (BLOCK_ELEMENTS // n) == 1),
                   1000]


def _bits(x) -> bytes:
    """A float's IEEE bytes: equal for equal values, nan, and the sign of zero."""
    return np.float64(x).tobytes()


@pytest.mark.parametrize("size", PAIR_GRID_SIZES)
@pytest.mark.parametrize("spec", PAIR_SPECS, ids=repr)
def test_concavity_margin_equals_the_whole_grid(spec, size):
    top = min(spec.tau0, 0.99)
    taus = np.minimum(np.exp(np.linspace(math.log(top) - 12.0, math.log(top), size)), top)
    for grid in (taus, taus[::-1]):  # the reversed grid is not increasing: nan at once
        got, ref = _monotone_concave(spec.family, grid), concavity_whole_grid(spec.family, grid)
        assert got[:2] == ref[:2] and _bits(got[2]) == _bits(ref[2])
    if size == 1000:  # axioms_check's own grid
        increasing, concave, margin = concavity_whole_grid(spec.family, taus)
        report = axioms_check(spec)
        assert report.passed == (increasing and concave)
        assert _bits(report.fitted_constant) == _bits(max(margin, 0.0))
        if spec.family == DoubleLogGlobal(-1.72):  # the standing failure
            assert not concave and 6e-8 < margin < 7e-8


def test_concavity_margin_keeps_a_nan_pair_of_the_last_block():
    class NanBetweenTheLastTwo:
        """mu(tau) = tau, but nan strictly between the two largest grid points."""

        def __init__(self, taus):
            self.hi, self.lo = -np.log(taus[-2:])

        def log_mu(self, L):
            return np.where((L > self.lo) & (L < self.hi), np.nan, -L)

    taus = np.exp(np.linspace(-12.0, 0.0, 200))
    family = NanBetweenTheLastTwo(taus)
    got, ref = _monotone_concave(family, taus), concavity_whole_grid(family, taus)
    assert got[:2] == ref[:2] == (True, False) and math.isnan(got[2]) and math.isnan(ref[2])


@pytest.mark.parametrize("size", PAIR_GRID_SIZES)
@pytest.mark.parametrize("spec", PAIR_SPECS, ids=repr)
def test_convexity_margin_equals_the_whole_grid(spec, size):
    top = min(spec.tau0, 2.0)
    grid = np.linspace(-top, top, 2 * size - 1)  # ``size`` non-negative points
    for n in (2, 3):
        report = convexity_check(spec, n, grid)
        worst, passed = convexity_whole_grid(spec, n, grid)
        assert report.passed == passed and _bits(report.fitted_constant) == _bits(max(worst, 0.0))


@pytest.mark.parametrize("spec", ALL_DEFAULT_SPECS, ids=lambda s: type(s.family).__name__)
def test_axioms_check_works_in_blocks(spec, traced_peak):
    # one 1000 x 1000 pair temporary alone is 8 MB; in blocks the check peaks at 0.53-0.93 MB
    assert traced_peak(lambda: axioms_check(spec))[1] < 1.4e6


# ------------------------------------------------------------- classification

def test_threshold_product_examples():
    assert abs(threshold_product(make_spec(LogPower(1.0 / P3, 5.0)), 3, 1e-3) - 5.0) < 1e-12
    pw = make_spec(PowerLaw(1.0))
    assert abs(threshold_product(pw, 3, 1e-6) - 1e-6 * math.log(1e6) ** (1 / P3)) < 1e-18
    spec = make_spec(DoubleLogGlobal(-1.0), tau0=math.exp(-math.e))
    assert abs(threshold_product(spec, 3, math.exp(-math.e)) - 1.0) < 1e-14


def test_threshold_product_domain():
    pw = make_spec(PowerLaw(1.0))
    with pytest.raises(ValueError):
        threshold_product(pw, 3, 1.0)
    with pytest.raises(ValueError):
        threshold_product(pw, 3, 0.0)


def test_threshold_product_refuses_nan():
    # nan passed both comparisons, and the product was nan
    with pytest.raises(ValueError, match=r"^threshold product needs 0 < tau < 1$"):
        threshold_product(make_spec(PowerLaw(1.0)), 3, math.nan)
    with pytest.raises(ValueError, match=r"^threshold product needs 0 < tau < 1$"):
        threshold_product(make_spec(PowerLaw(1.0)), 3, np.array([0.01, math.nan]))


@pytest.mark.parametrize(
    "family,expected",
    [
        (PowerLaw(1.0), "zero"),
        (PowerLaw(0.5), "zero"),
        (LogOnePlus(1.0), "zero"),
        (LogPower(0.8, 1.0), "zero"),
        (DoubleLogGlobal(-1.0), "zero"),
        (TripleLogGlobal(-0.5), "zero"),
        (LogPower(0.2, 1.0), "infinite"),
        (IteratedLogBlowup(1.0, 2), "infinite"),
    ],
    ids=str,
)
def test_classification(family, expected):
    verdict = classify_strauss_threshold(make_spec(family), 3)
    assert verdict.threshold_class == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, tau0, expected", [
    (IteratedLogBlowup(1.7e308), 0.3, "infinite"),
    (DoubleLogGlobal(-1.7e308), 0.01, "zero"),
], ids=["iterlog", "doublelog"])
def test_classification_of_a_tail_past_the_float_range(family, tau0, expected):
    # gamma * loglog L overflows to +-inf, and the tail's growth inf - inf was nan:
    # class finite, after warnings; iterlog's limit is infinite at every gamma > 0
    verdict = classify_strauss_threshold(make_spec(family, tau0), 3)
    assert verdict.threshold_class == expected
    assert verdict.estimate == (math.inf if expected == "infinite" else 0.0)


@pytest.mark.filterwarnings("error")
def test_concavity_of_a_mu_near_the_float_maximum():
    # mu of LogPower(0.05, 1e308) is near 1e308 on its grid: (v_a + v_b) / 2 overflowed
    # and failed the axioms of a mu that is increasing and concave there
    spec = make_spec(LogPower(0.05, 1e308))
    assert axioms_check(spec).passed
    assert _monotone_concave(spec.family, np.geomspace(1e-30, spec.tau0, 200))[:2] == (True, True)


def test_finite_class_estimates_cl():
    verdict = classify_strauss_threshold(make_spec(LogPower(1.0 / P3, 5.0)), 3)
    assert verdict.threshold_class == "finite"
    assert abs(verdict.estimate - 5.0) < 1e-9
    # samples run along decreasing tau
    taus = [t for t, _ in verdict.samples]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_loglog_bound():
    assert loglog_bound_check(make_spec(PowerLaw(1.0)), 3).passed
    rep = loglog_bound_check(make_spec(DoubleLogGlobal(-1.0)), 3)
    assert rep.passed
    assert abs(rep.fitted_constant - 1.0) < 1e-9  # exact cancellation
    assert not loglog_bound_check(make_spec(LogPower(1.0 / P3, 5.0)), 3).passed


def test_loglog_bound_below_a_tiny_tau0():
    # its 40 decades run in L = log(1/tau), so tau = 1e-330 below this cutoff
    # does not underflow; the double-log product cancels exactly at n = 3
    rep = loglog_bound_check(make_spec(DoubleLogGlobal(-1.0), tau0=1e-290), 3)
    assert rep.passed
    assert abs(rep.fitted_constant - 1.0) < 1e-9
    assert loglog_bound_check(make_spec(PowerLaw(1.0), tau0=1e-290), 3).passed


# ------------------------------------------------------------------- jensen

def test_jensen_never_violated():
    margin = jensen_margin(make_spec(PowerLaw(1.0)), 3, trials=3000, seed=7)
    assert margin <= 1e-12


def test_jensen_log_power_small_range():
    # restrict v to the concave near-zero regime where g passed convexity
    spec = make_spec(LogPower(0.2, 1.0), tau0=1.0 / 3.0)
    margin = jensen_margin(spec, 3, trials=3000, seed=11, v_max=1.0 / 3.0)
    assert margin <= 1e-12


# the trials are drawn and reduced in blocks, v and alpha from two generators of
# one stream; the margin must be the one whole draw's bit for bit: one block,
# one trial past a block, many blocks with a partial last one, one wide trial
@pytest.mark.parametrize("spec, trials, cells, seed, v_max", [
    (make_spec(PowerLaw(1.0)), 10000, 16, 12345, 2.0),
    (make_spec(PowerLaw(0.3)), BLOCK_ELEMENTS // 16 + 1, 16, 2 ** 31 - 1, 2.0),
    (make_spec(LogOnePlus(0.5)), 2345, 7, 3, 2.0),
    (make_spec(LogPower(0.2, 1.0), tau0=1.0 / 3.0), 500, 16, 11, 1.0 / 3.0),
    (make_spec(PowerLaw(0.3)), 1, 2 * BLOCK_ELEMENTS, 5, 2.0),
], ids=["benchmark-size", "block-plus-one", "partial-last", "one-block", "one-wide-trial"])
def test_jensen_margin_equals_one_whole_draw(spec, trials, cells, seed, v_max):
    margin = jensen_margin(spec, 3, trials=trials, cells=cells, seed=seed, v_max=v_max)
    assert margin.hex() == jensen_whole_draw(spec, 3, trials, cells, seed, v_max).hex()


def test_jensen_works_in_blocks(traced_peak):
    # 10000 trials x 16 cells peaked at 9.2 MB drawn whole; in blocks at 0.94 MB
    margin, peak = traced_peak(lambda: jensen_margin(make_spec(PowerLaw(1.0)), 3,
                                                     trials=10000, cells=16, seed=1))
    assert margin <= 1e-12 and peak < 1.5e6


@pytest.mark.parametrize("spec", ALL_DEFAULT_SPECS, ids=repr)
def test_mu_eval_refuses_nan(spec):
    # a NaN argument is refused as a negative one is, never read as 0
    with pytest.raises(ValueError, match="non-negative"):
        mu_eval(spec, math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        mu_eval(spec, np.array([0.0, 0.5 * min(spec.tau0, 1.0), math.nan]))
    with pytest.raises(ValueError, match="non-negative"):
        mu_eval(spec, np.array([math.nan]))


# mu_eval on an array against mu_eval one element at a time; appending an
# argument past tau0 changes the near-zero mask but not the values under it
def _mu_arguments(spec):
    near = st.one_of(st.just(5e-324), st.floats(0.0, 320.0).map(
        lambda k: min(spec.tau0, 1.0) * 10.0 ** -k))
    parts = [st.just(0.0), near]
    if math.isinf(spec.tau0):
        parts.append(st.floats(0.0, 1e6))
    elif isinstance(spec.family, LogPower):
        parts += [st.floats(spec.tau0, 3.0), st.floats(3.0, 1e6)]  # bridge, top
    return st.lists(st.one_of(*parts), min_size=1, max_size=40)


@pytest.mark.parametrize("spec", ALL_DEFAULT_SPECS, ids=lambda s: type(s.family).__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mu_eval_array_equals_elementwise(spec, data):
    taus = np.array(data.draw(_mu_arguments(spec)))
    got = mu_eval(spec, taus)
    assert np.array_equal(got, [mu_eval(spec, x) for x in taus])
    assert np.all(got[taus == 0.0] == 0.0)
    if isinstance(spec.family, LogPower):  # the same arguments beside a far one
        assert np.array_equal(mu_eval(spec, np.append(taus, 10.0))[:-1], got)
    with pytest.raises(ValueError, match="non-negative"):
        mu_eval(spec, np.append(taus, -data.draw(st.floats(5e-324, 1e6))))
    if not math.isinf(spec.tau0) and not isinstance(spec.family, LogPower):
        past = data.draw(st.floats(spec.tau0, 1e6, exclude_min=True))
        with pytest.raises(ValueError, match="beyond tau0"):
            mu_eval(spec, np.append(taus, past))


# mu_eval, on arrays and on scalars, against the closed forms of
# tests/oracles.py; arguments stay above 1e-12 min(tau0, 1e6), where mu is a
# normal float whose log is below 1e2 in size, so the log-space evaluation is
# within the forcing test's 1e-13 relative
def _oracle_arguments(spec):
    top = min(spec.tau0, 1e6)
    parts = [st.just(0.0), st.just(top), st.floats(0.0, 12.0).map(lambda k: top * 10.0 ** -k)]
    if math.isinf(spec.tau0):
        parts.append(st.floats(0.0, 1e6))
    elif isinstance(spec.family, LogPower):  # just past tau0, the bridge, 3 and the top
        parts += [st.just(math.nextafter(top, math.inf)), st.floats(top, 3.0),
                  st.just(3.0), st.floats(3.0, 1e6)]
    return st.lists(st.one_of(*parts), min_size=1, max_size=40)


@pytest.mark.parametrize("spec", ALL_DEFAULT_SPECS, ids=lambda s: type(s.family).__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mu_eval_matches_the_closed_forms(spec, data):
    taus = np.array(data.draw(_oracle_arguments(spec)))
    want = mu_direct(spec, taus)
    zero = taus == 0.0
    assert np.array_equal(want == 0.0, zero)
    scalars = [mu_eval(spec, x) for x in taus.tolist()]
    assert all(type(value) is float for value in scalars)
    for got in (mu_eval(spec, taus), np.array(scalars)):
        assert np.all(got[zero] == 0.0) and not np.any(np.signbit(got[zero]))
        assert np.all(np.abs(got[~zero] - want[~zero]) <= 1e-13 * want[~zero])
