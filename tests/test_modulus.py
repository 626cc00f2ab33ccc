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

P3 = strauss_exponent(3)

ALL_DEFAULT_SPECS = [
    make_spec(PowerLaw(1.0)),
    make_spec(PowerLaw(0.5)),
    make_spec(LogOnePlus(1.0)),
    make_spec(LogPower(0.2, 10.0)),
    make_spec(LogPower(1.0 / P3, 5.0)),
    make_spec(IteratedLogBlowup(1.0, 2)),
    make_spec(DoubleLogGlobal(-1.0)),
    make_spec(TripleLogGlobal(-0.5, 3)),
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


def test_convexity_needs_symmetric_grid():
    with pytest.raises(ValueError):
        convexity_check(make_spec(PowerLaw(1.0)), 3, np.linspace(0.0, 1.0, 11))


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


@pytest.mark.parametrize(
    "family,expected",
    [
        (PowerLaw(1.0), "zero"),
        (PowerLaw(0.5), "zero"),
        (LogOnePlus(1.0), "zero"),
        (LogPower(0.8, 1.0), "zero"),
        (DoubleLogGlobal(-1.0), "zero"),
        (TripleLogGlobal(-0.5, 3), "zero"),
        (LogPower(0.2, 1.0), "infinite"),
        (IteratedLogBlowup(1.0, 2), "infinite"),
    ],
    ids=str,
)
def test_classification(family, expected):
    verdict = classify_strauss_threshold(make_spec(family), 3)
    assert verdict.threshold_class == expected


def test_finite_class_estimates_cl():
    verdict = classify_strauss_threshold(make_spec(LogPower(1.0 / P3, 5.0)), 3)
    assert verdict.threshold_class == "finite"
    assert abs(verdict.estimate - 5.0) < 1e-9
    # samples run along decreasing tau
    taus = [t for t, _ in verdict.samples]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_loglog_bound():
    assert loglog_bound_check(make_spec(PowerLaw(1.0))).passed
    rep = loglog_bound_check(make_spec(DoubleLogGlobal(-1.0)))
    assert rep.passed
    assert abs(rep.fitted_constant - 1.0) < 1e-9  # exact cancellation
    assert not loglog_bound_check(make_spec(LogPower(1.0 / P3, 5.0))).passed


# ------------------------------------------------------------------- jensen

def test_jensen_never_violated():
    margin = jensen_margin(make_spec(PowerLaw(1.0)), 3, trials=3000, seed=7)
    assert margin <= 1e-12


def test_jensen_log_power_small_range():
    # restrict v to the concave near-zero regime where g passed convexity
    spec = make_spec(LogPower(0.2, 1.0), tau0=1.0 / 3.0)
    margin = jensen_margin(spec, 3, trials=3000, seed=11, v_max=1.0 / 3.0)
    assert margin <= 1e-12


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
