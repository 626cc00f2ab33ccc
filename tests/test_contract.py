"""The library's contract under extreme input, fuzzed as the command line is.

Each public call of the modulus, kernels, weights, onset and solver layers,
given values at the float range's edges, returns finite values (or the inf
or None its docstring documents), or raises ``ValueError`` or the ledger's
``ArithmeticError`` with a message that names one of its arguments; no call
raises anything else and none warns.
"""
import math
import warnings

from hypothesis import given, seed, settings, strategies as st

from wavecrit.blowup import divergence_onset, integral_identity_residual
from wavecrit.exponents import kernel_exponent
from wavecrit.kernels import KernelConfig, data_kernel, free_wave_ball_integral, source_kernel
from wavecrit.modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    PowerLaw,
    TripleLogGlobal,
    classify_strauss_threshold,
    make_spec,
    mu_eval,
    threshold_product,
)
from wavecrit.solver import (
    CharacteristicGrid,
    convergence_study,
    default_bump,
    lifespan_sweep,
    march,
)
from wavecrit.weights import key_integral, linear_decay_check, zone_bound_check

# the command-line fuzz's extremes, as floats
_EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 2.2e-308, 1e-300, 1e-12,
             1e300, 1e20, 1.7e308]

# a time a call marches or samples to: a level of ``_grid``, or an extreme short of
# a huge finite time, whose refusal is a matter of memory
_LEVELS = [1.0, 2.0, 3.0]
_TIMES = [*_LEVELS, math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324]

# each family with a typical value of each field
_FAMILIES = {
    PowerLaw: {"gamma": 1.0}, LogOnePlus: {"gamma": 1.0}, LogPower: {"gamma": 0.2, "cl": 10.0},
    IteratedLogBlowup: {"gamma": 1.0}, DoubleLogGlobal: {"gamma": -1.0},
    TripleLogGlobal: {"gamma": -0.5},
}

# the words a refusal may name: the family's fields and the cutoff, then each
# call's own arguments
_SPEC_NAMES = ("gamma", "cl", "tau0", "mu")


def _value(typical):
    return st.one_of(st.just(typical), st.sampled_from(_EXTREMES))


def _grid(horizon):
    # h = 1/16 resolves the unit support; horizons up to 3 keep 48 levels at most
    return CharacteristicGrid.cover(0.0625, horizon, 1.0)


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _lifespan_rows_hold(rows, epsilons):
    return len(rows) == len(epsilons) and all(
        row.status in ("completed", "blew_up") or row.status.startswith("failed: ")
        for row in rows)


# per call: its typical arguments, the words its refusal may name, the call on
# (spec, arguments) and what its value must satisfy
_CALLS = {
    "mu_eval": ({"tau": 0.01}, ("tau", "argument"),
                lambda spec, a: mu_eval(spec, a["tau"]),
                lambda v, a: v >= 0.0),  # inf where mu passes the largest float
    "threshold_product": ({"tau": 0.01}, ("tau",),
                          lambda spec, a: threshold_product(spec, 3, a["tau"]),
                          lambda v, a: v >= 0.0),  # inf past the largest float
    "classify_strauss_threshold": ({}, (),
                                   lambda spec, a: classify_strauss_threshold(spec, 3),
                                   lambda v, a: v.threshold_class in ("zero", "finite", "infinite")
                                   and (v.threshold_class == "infinite") == (v.estimate == math.inf)
                                   and v.estimate >= 0.0),
    "data_kernel": ({"lambda0": 1.0, "R": 1.0, "t": 5.0, "r": 0.5},
                    ("lambda0", "R=", "t=", "r="),
                    lambda spec, a: data_kernel(KernelConfig(3, a["lambda0"], a["R"], 64),
                                                kernel_exponent(3), a["t"], a["r"]),
                    lambda v, a: 0.0 <= v < math.inf),
    "source_kernel": ({"lambda0": 1.0, "R": 1.0, "t": 5.0, "s": 2.0, "r": 0.5},
                      ("lambda0", "R=", "t=", "s=", "r="),
                      lambda spec, a: source_kernel(KernelConfig(3, a["lambda0"], a["R"], 64),
                                                    kernel_exponent(3), a["t"], a["s"], a["r"]),
                      lambda v, a: 0.0 <= v < math.inf),
    "free_wave_ball_integral": ({"R": 1.0, "t": 5.0}, ("R=", "t="),
                                lambda spec, a: free_wave_ball_integral(3, a["R"], a["t"]),
                                lambda v, a: 0.0 <= v < math.inf),
    "key_integral": ({"xi": 100.0, "eps0": 0.05}, ("xi", "eps0"),
                     lambda spec, a: key_integral(a["xi"], a["eps0"], spec),
                     lambda v, a: _finite(*v)),
    "divergence_onset": ({"t_max": 1000.0, "c6": 1.0, "c7": 1.0}, ("t_max", "c6", "c7"),
                         lambda spec, a: divergence_onset(3, spec, a["t_max"], a["c6"], a["c7"]),
                         lambda v, a: v is None or 0.0 < v <= a["t_max"]),
    "zone_bound_check": ({"eps0": 0.05, "t": 10.0, "r": 5.0}, ("eps0", "t=", "r=", "r >", "zone"),
                         lambda spec, a: zone_bound_check(spec, a["eps0"], [(a["t"], a["r"])]),
                         lambda v, a: isinstance(v.passed, bool) and v.fitted_constant >= 0.0),
    "march": ({"eps": 0.5, "horizon": 3.0, "cap": 1e6}, ("amplitude", "cap", "tau0", "sample"),
              lambda spec, a: march(default_bump(a["eps"]), spec, _grid(a["horizon"]), a["cap"]),
              lambda v, a: v.status in ("completed", "blew_up")),
    "lifespan_sweep": ({"epsilons": (2.0, 5.0), "horizon": 3.0, "cap": 1e6},
                       ("amplitude", "cap", "tau0"),
                       lambda spec, a: lifespan_sweep(default_bump(1.0), spec, a["epsilons"],
                                                      _grid(a["horizon"]), a["cap"]),
                       lambda v, a: _lifespan_rows_hold(v, a["epsilons"])),
    "linear_decay_check": ({"time": 3.0}, ("horizon",),
                           lambda spec, a: linear_decay_check(default_bump(0.5), a["time"]),
                           lambda v, a: isinstance(v.passed, bool) and v.fitted_constant >= 0.0),
    "integral_identity_residual": ({"time": 2.0}, ("time", "tau0", "sample"),
                                   lambda spec, a: integral_identity_residual(
                                       march(default_bump(0.5), spec, _grid(3.0)),
                                       KernelConfig(), kernel_exponent(3), a["time"]),
                                   lambda v, a: math.isfinite(v)),
    "convergence_study": ({"time": 1.0}, ("t_check", "tau0", "sample", "h="),
                          lambda spec, a: convergence_study(
                              default_bump(0.5), spec, [0.0625, 0.03125, 0.015625], a["time"]),
                          lambda v, a: v.order is None or math.isfinite(v.order)),
}


@st.composite
def _draws(draw):
    """(family, fields, tau0, call name, arguments), each value typical or extreme."""
    family = draw(st.sampled_from(sorted(_FAMILIES, key=lambda c: c.__name__)))
    fields = {name: draw(_value(typical)) for name, typical in _FAMILIES[family].items()}
    tau0 = draw(st.one_of(st.none(), _value(0.1)))
    name = draw(st.sampled_from(sorted(_CALLS)))
    args = {}
    for arg, typical in _CALLS[name][0].items():
        if arg == "horizon":  # a grid of at most 48 levels
            args[arg] = draw(st.sampled_from(_LEVELS))
        elif arg == "time":
            args[arg] = draw(st.sampled_from(_TIMES))
        elif arg == "epsilons":
            args[arg] = tuple(draw(st.lists(_value(2.0), min_size=1, max_size=3)))
        else:
            args[arg] = draw(_value(typical))
    return family, fields, tau0, name, args


def _refusal_names_an_argument(exc, names) -> bool:
    message = str(exc)
    return any(word in message for word in (*_SPEC_NAMES, *names))


@seed(43)
@settings(max_examples=200, deadline=None, database=None)
@given(_draws())
def test_library_contract_under_extreme_input(drawn):
    family, fields, tau0, name, args = drawn
    _, names, call, holds = _CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spec = make_spec(family(**fields), tau0)
        except ValueError as exc:
            assert _refusal_names_an_argument(exc, ()), repr(exc)
            return
        try:
            value = call(spec, args)
        except (ValueError, ArithmeticError) as exc:
            assert type(exc) in (ValueError, ArithmeticError), repr(exc)
            assert _refusal_names_an_argument(exc, names), repr(exc)
            return
    assert holds(value, args), value
