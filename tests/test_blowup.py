import math

import numpy as np
import pytest

from wavecrit.blowup import (
    EPSILON_EXP,
    M0,
    IterationLedger,
    _onset_bases,
    build_ledger,
    divergence_onset,
    exponent_sequences,
    integral_identity_residual,
    slicing_level,
)
from wavecrit.exponents import kernel_exponent, strauss_exponent
from wavecrit.kernels import KernelConfig, data_and_source_kernels, data_kernel, source_kernel
from wavecrit.modulus import (
    DoubleLogGlobal,
    IteratedLogBlowup,
    LogOnePlus,
    LogPower,
    PowerLaw,
    TripleLogGlobal,
    make_spec,
    mu_eval,
    mu_power,
    threshold_product,
)
from wavecrit.reporting import row_blocks
from wavecrit.solver import CharacteristicGrid, RadialData, default_bump, march

from oracles import march_field

P3 = strauss_exponent(3)
Q3 = kernel_exponent(3)
CFG = KernelConfig(n=3, lambda0=1.0, R=1.0, quad_points=2048)


def test_slicing_levels():
    assert slicing_level(0) == 1.5
    assert slicing_level(1) == 1.75
    assert slicing_level(50) < 2.0
    assert slicing_level(50) > slicing_level(49)
    with pytest.raises(ValueError):
        slicing_level(-1)


def test_initial_exponent_row():
    a, b, s = exponent_sequences(3, 0)
    assert a[0] == 1.0 and b[0] == 0.0
    assert abs(s[0] - (1.0 + 1.0 / P3)) < 1e-15


def test_first_recursion_steps():
    a, b, s = exponent_sequences(3, 2)
    assert abs(a[1] - (1.0 + P3)) < 1e-14
    assert abs(a[2] - (P3**3 - 1.0) / (P3 - 1.0)) < 1e-12  # geometric sum identity


@pytest.mark.parametrize("J", [30, 200])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_recursion_matches_closed_form(n, J):
    # the recursion drifts from the closed forms by a few ulps, far below the ledger's 1e-9
    p = strauss_exponent(n)
    a, b, s = exponent_sequences(n, J)
    pj = p ** np.arange(J + 1, dtype=float)
    assert np.max(np.abs(a - (p / (p - 1) * pj - 1 / (p - 1))) / np.abs(pj)) < 1e-14
    assert np.max(np.abs(b - (pj - 1.0)) / np.maximum(pj, 1.0)) < 1e-14
    assert np.max(np.abs(s - (p / (p - 1) * pj - 1 / ((p - 1) * p))) / np.abs(pj)) < 1e-14


def test_recursion_shift_identities():
    # p a_j + 1 = a_{j+1} and the sigma-a gap contracts as stated; the gap is
    # a difference of p^j-sized terms, so the check scales atol with p^j
    for n in (2, 3, 4):
        p = strauss_exponent(n)
        a, _, s = exponent_sequences(n, 20)
        assert np.allclose(p * a[:-1] + 1.0, a[1:], rtol=1e-13)
        gap = s - a
        defect = np.abs(gap[1:] - (p * gap[:-1] + 1.0 / p - 1.0))
        assert np.all(defect <= 1e-13 * (1.0 + p * a[:-1]))


def log_amplitudes(ledger):
    return np.array([row[-1] for row in ledger.rows])


def test_growth_seed_and_one_step():
    log_m = log_amplitudes(build_ledger(3, 1))
    assert log_m[0] == math.log(M0) == 0.0
    expected = math.log(2.0**-3 / (3.0 * slicing_level(2) * (P3 + 1.0)))
    assert abs(log_m[1] - expected) < 1e-12


def test_growth_floor_rowwise():
    for n in (2, 3, 4):
        p = strauss_exponent(n)
        ledger = build_ledger(n, 30)
        assert isinstance(ledger, IterationLedger)
        pj = p ** np.arange(31, dtype=float)
        rows = slice(ledger.j1, None)
        assert np.all(ledger.floor_margin[rows] >= -1e-9 * pj[rows])


def test_growth_step_is_exact_in_log_space():
    # log M_{j+1} - p log M_j equals the explicit coefficient, by construction
    p = P3
    a, _, _ = exponent_sequences(3, 12)
    log_m = log_amplitudes(build_ledger(3, 12))
    for j in range(12):
        coeff = math.log(1.0) - (2 * j + 3) * math.log(2.0) - math.log(
            3.0 * slicing_level(2 * j + 2) * (a[j] * p + 1.0)
        )
        scale = max(1.0, abs(p * log_m[j]))
        assert abs(log_m[j + 1] - p * log_m[j] - coeff) < 1e-14 * scale


def test_constants_validation():
    spec = make_spec(LogPower(1.0 / P3, 5.0))
    with pytest.raises(ValueError):
        divergence_onset(3, spec, 1e6, c6=-1.0)
    with pytest.raises(ValueError):
        divergence_onset(3, spec, 1e6, c7=0.0)
    for t_max in (math.nan, math.inf, -5.0, 0.0):
        with pytest.raises(ValueError, match="t_max"):
            divergence_onset(3, spec, t_max)
    for constants in ({"c6": math.inf}, {"c7": math.inf}, {"c6": math.nan}):
        with pytest.raises(ValueError, match="positive and finite"):
            divergence_onset(3, spec, 1e6, **constants)


def test_ledger_refuses_an_overflowing_J():
    # log M_J ~ -4.6 p^J is the last finite float at J = 802 in three
    # dimensions; past it the ledger, and from J = 805 a_J, overflow
    assert math.isfinite(build_ledger(3, 802).rows[-1][-1])
    for J in (803, 805, 2000):
        with pytest.raises(ArithmeticError, match=f"J={J}"):
            build_ledger(3, J)
    for J in (2000, 10**400):  # the second is past the largest float itself
        with pytest.raises(ArithmeticError, match=f"J={J} overflows the ledger: a_J is inf"):
            exponent_sequences(3, J)


def test_ledger_rows():
    ledger = build_ledger(3, 8)
    assert len(ledger.rows) == 9
    j, ell, a, b, s, logm = ledger.rows[0]
    assert (j, ell, a, b) == (0, 1.5, 1.0, 0.0)


# ---------------------------------------------------------- integral identity

def test_identity_zero_run():
    zero = RadialData(u0=np.zeros_like, u1=np.zeros_like,
                      support_radius=1.0, u0_prime=np.zeros_like)
    run = march(zero, make_spec(PowerLaw(1.0)), CharacteristicGrid.cover(0.05, 2.0, 1.0))
    assert integral_identity_residual(run, CFG, Q3, 2.0) == 0.0


def test_identity_linear_run_reduces_to_data_terms():
    run = march(default_bump(0.5), None, CharacteristicGrid.cover(0.0625, 3.0, 1.0))
    assert abs(integral_identity_residual(run, CFG, Q3, 3.0)) < 1e-12


def test_identity_residual_shrinks_under_refinement():
    spec = make_spec(PowerLaw(1.0))
    residuals = []
    for h in (0.0625, 0.03125):
        run = march(default_bump(0.5), spec, CharacteristicGrid.cover(h, 5.0, 1.0))
        residuals.append(abs(integral_identity_residual(run, CFG, Q3, 5.0)))
    assert residuals[0] / residuals[1] >= 3.0


def _residual_by_levels(run, field, cfg, q, t):
    """Reference: the identity summed level by level with scalar-s kernels."""
    h = run.grid.h
    i = int(round(t / h))
    r = run.radii
    meas = 4.0 * math.pi * r * r
    eps = run.data.amplitude

    def integral(values, s):
        return float(np.trapezoid(values * source_kernel(cfg, q, t, s, r) * meas, dx=h))

    u0v = eps * np.asarray([run.data.u0(x) for x in r])
    u1v = eps * np.asarray([run.data.u1(x) for x in r])
    total = float(np.trapezoid(u0v * data_kernel(cfg, q, t, r) * meas, dx=h))
    total += t * integral(u1v, 0.0)
    for k in range(i):
        u = np.abs(field[k])
        w = 0.5 * h if k == 0 else h
        total += w * (t - k * h) * integral(u**P3 * mu_eval(run.spec, u), k * h)
    return integral(field[i], t) - total


@pytest.mark.parametrize("levels", [0, 1, 2, 20])
def test_identity_matches_level_by_level_sum(levels):
    # t = 0 has no history and t = h a single level
    h = 0.0625
    run, field = march_field(default_bump(0.5), make_spec(PowerLaw(1.0)),
                             CharacteristicGrid.cover(h, 2.0, 1.0))
    t = levels * h
    got = integral_identity_residual(run, CFG, Q3, t)
    ref = _residual_by_levels(run, field, CFG, Q3, t)
    scale = abs(np.trapezoid(field[levels] * source_kernel(CFG, Q3, t, t, run.radii)
                             * 4.0 * math.pi * run.radii**2, dx=h))
    assert abs(got - ref) <= 1e-13 * scale


def test_identity_builds_the_kernel_tables_once(monkeypatch):
    import wavecrit.kernels as kernels

    evaluated = []
    original = kernels._scaled_eigenfunction

    def counted(n, z):
        evaluated.append(np.size(z))
        return original(n, z)

    run = march(default_bump(0.5), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.03125, 5.0, 1.0))
    monkeypatch.setattr(kernels, "_scaled_eigenfunction", counted)
    integral_identity_residual(run, CFG, Q3, 5.0)
    # one table for both kernels, filled in blocks, and phi(0)
    assert sum(evaluated) == CFG.quad_points * run.radii.size + 1


def test_identity_residual_works_in_blocks(traced_peak):
    # the kernels hold one lam block of table and envelope beside their (161 x 194)
    # output, and the Duhamel history is reduced from the march's blocks of levels:
    # 1.0 MB, where the whole (160 x 194) history arrays took 1.5 MB
    run = march(default_bump(0.5), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.03125, 5.0, 1.0))
    assert traced_peak(lambda: integral_identity_residual(run, CFG, Q3, 5.0))[1] < 1.5e6


def _residual_two_tables(run, field, cfg, q, t):
    """The residual of the levels of ``field`` with its data row and source
    rows from the two public kernel calls, each building its own table on
    the same radii."""
    h, r = run.grid.h, run.radii
    i = int(round(t / h))
    meas = 4.0 * math.pi * r * r
    s = h * np.arange(i + 1)
    s[i] = t
    eta = source_kernel(cfg, q, t, s, r)
    lhs = float(np.trapezoid(field[i] * eta[i] * meas, dx=h))
    u0v = run.data.amplitude * run.data.u0(r)
    u1v = run.data.amplitude * run.data.u1(r)
    data_term = float(np.trapezoid(u0v * data_kernel(cfg, q, t, r) * meas, dx=h))
    vel_term = t * float(np.trapezoid(u1v * eta[0] * meas, dx=h))
    inner = np.trapezoid(mu_power(run.spec, P3, np.abs(field[:i])) * eta[:i] * meas,
                         dx=h, axis=1)
    w = np.full(i, h)
    w[:1] = 0.5 * h
    return lhs - (data_term + vel_term + float((w * (t - s[:i])) @ inner))


@pytest.mark.parametrize("h", [0.0625, 0.03125, 0.015625])
def test_identity_with_one_table_equals_two_kernel_calls(h):
    # at h = 1/64 the 320 levels of history take 8 level blocks, the last one short
    run, field = march_field(default_bump(0.5), make_spec(PowerLaw(1.0)),
                             CharacteristicGrid.cover(h, 5.0, 1.0))
    got = integral_identity_residual(run, CFG, Q3, 5.0)
    assert got == _residual_two_tables(run, field, CFG, Q3, 5.0)


def _residual_of_a_stored_field(run, field, cfg, q, t):
    """The residual as it was computed from a march's stored field: its
    Duhamel history walked in ``row_blocks`` of the field's levels."""
    h = run.grid.h
    i = int(round(t / h))
    if abs(t - i * h) > 1e-9 * max(1.0, t) or not 0 <= i < field.shape[0]:
        raise ValueError(f"time {t} is not a stored level")
    r = run.radii
    meas = 4.0 * math.pi * r * r
    eps = run.data.amplitude
    s = h * np.arange(i + 1)
    s[i] = t
    cosh_row, eta = data_and_source_kernels(cfg, q, t, s, r)
    lhs = float(np.trapezoid(field[i] * eta[i] * meas, dx=h))
    data_term = float(np.trapezoid(eps * run.data.u0(r) * cosh_row * meas, dx=h))
    vel_term = t * float(np.trapezoid(eps * run.data.u1(r) * eta[0] * meas, dx=h))
    inner = np.zeros(i)
    if run.spec is not None:
        for b in row_blocks(i, r.size):
            forcing = mu_power(run.spec, P3, np.abs(field[b]))
            inner[b] = np.trapezoid(forcing * eta[b] * meas, dx=h, axis=1)
    w = np.full(i, h)
    w[:1] = 0.5 * h
    return lhs - (data_term + vel_term + float((w * (t - s[:i])) @ inner))


@pytest.mark.parametrize("family, eps, h, horizon, t", [
    (PowerLaw(1.0), 0.5, 0.0625, 5.0, 5.0),  # the two grids of criterion 12
    (PowerLaw(1.0), 0.5, 0.03125, 5.0, 5.0),
    (LogPower(0.2, 10.0), 2.0, 0.0625, 1.0, 0.5),  # past tau0: mu_power's bridge
    (LogPower(0.2, 10.0), 5.0, 0.05, 5.0, None),  # at the level of a blow-up
], ids=["powerlaw-h1_16", "powerlaw-h1_32", "logpower-bridge", "logpower-blowup"])
def test_streamed_residual_is_the_stored_field_formula(family, eps, h, horizon, t):
    # the residual re-marches the run as a level stream; on the run's collected
    # field the stored-field formula gives the same bits
    spec = make_spec(family)
    run, field = march_field(default_bump(eps), spec, CharacteristicGrid.cover(h, horizon, 1.0))
    if t is None:
        assert run.status == "blew_up"
        t = run.t_detect
    i = int(round(t / h))
    if isinstance(family, LogPower):
        assert np.max(np.abs(field[:i])) > spec.tau0
    got = integral_identity_residual(run, CFG, Q3, t)
    assert got == _residual_of_a_stored_field(run, field, CFG, Q3, t)


def test_identity_time_bounds():
    run = march(default_bump(0.2), make_spec(PowerLaw(1.0)),
                CharacteristicGrid.cover(0.05, 1.0, 1.0))
    with pytest.raises(ValueError, match="not a marched level"):
        integral_identity_residual(run, CFG, Q3, 2.0)
    # past a blow-up's last level there is no level to reduce
    blown = march(default_bump(5.0), make_spec(LogPower(0.2, 10.0)),
                  CharacteristicGrid.cover(0.05, 5.0, 1.0))
    assert blown.status == "blew_up"
    with pytest.raises(ValueError, match="not a marched level"):
        integral_identity_residual(blown, CFG, Q3, blown.t_detect + 0.05)


# ------------------------------------------------------------------- onset

def test_onset_finite_for_threshold_family():
    spec = make_spec(LogPower(1.0 / P3, 5.0))
    base = 5.0 ** (P3 / (P3 - 1.0))  # c7 = 1
    assert base > 1.0  # the premise of the finite-onset example
    onset = divergence_onset(3, spec, 1e6)
    assert onset is not None and 0.0 < onset < 1e6


def test_onset_none_for_global_family():
    assert divergence_onset(3, make_spec(PowerLaw(1.0)), 1e6) is None


def test_onset_refuses_a_t_max_before_the_near_zero_regime():
    # tau0 = 3.4e-55 puts t_lo = tau0^(-1/alpha) / c6 near 1.74e38; None would read
    # as the global-side prediction for the paper's sharp blow-up family
    with pytest.raises(ValueError, match=r"t_max=1e\+06 .* t_lo=1\.7416\d*e\+38"):
        divergence_onset(3, make_spec(IteratedLogBlowup(2.0)), 1e6)


def test_onset_refuses_a_t_max_whose_tau_underflows():
    # tau(t) = (c6 t)^(-alpha) is a subnormal at t = 1e227 and 0 past t = 1.016e227;
    # a smaller c6 moves that edge out by 1/c6
    spec = make_spec(PowerLaw(1.0))
    assert divergence_onset(3, spec, 1e227) is None
    with pytest.raises(ValueError, match=r"^t_max=1e\+250 is past t=1\.01587e\+227, where tau"):
        divergence_onset(3, spec, 1e250)
    with pytest.raises(ValueError, match=r"^t_max=1e\+300 is past t=1\.01587e\+229"):
        divergence_onset(3, spec, 1e300, c6=0.01)
    assert divergence_onset(3, spec, 1e250, c6=1e-30) is None


@pytest.mark.filterwarnings("error")
def test_onset_where_the_base_passes_the_float_range():
    # K ~ 1.49e300 at t_lo ~ 8.194, and K^(p/(p-1)) raised OverflowError; such a base
    # exceeds 1, so the onset is t_lo
    spec = make_spec(LogPower(0.05, 1e300), 0.05)
    assert divergence_onset(3, spec, 1e20) == 8.19422072649404


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, tau0", [
    (LogPower(1.0 / P3, 5.0), None), (LogPower(0.2, 10.0), None), (LogPower(0.05, 1e300), 0.05),
    (IteratedLogBlowup(1.0), None), (IteratedLogBlowup(0.5, k=3), None), (DoubleLogGlobal(-1.72), None),
    (TripleLogGlobal(-0.5), None), (PowerLaw(1.0), None), (LogOnePlus(0.5), None),
])
def test_onset_scan_equals_the_per_point_bases(family, tau0):
    # the scan's one threshold_product call on 512 taus, with its powers taken in Python,
    # gives each point the value of a call at that point alone with numpy-scalar powers, bit
    # for bit; cl = 1e300 takes K^(p/(p-1)) past the largest float, which reads inf
    spec, c6, c7 = make_spec(family, tau0), 2.0, 0.3
    alpha = 1.0 + 1.0 / P3 + EPSILON_EXP
    t_lo = min(spec.tau0, math.exp(-1.0)) ** (-1.0 / alpha) / c6 * (1.0 + 1e-9)
    ts = np.geomspace(t_lo, 1e12 * t_lo, 512)
    want = []
    for t in ts:
        product = threshold_product(spec, 3, (c6 * t) ** (-alpha))
        try:
            want.append(c7 * product ** (P3 / (P3 - 1.0)))
        except OverflowError:
            want.append(math.inf)
    got = _onset_bases(spec, 3, [(c6 * t) ** (-alpha) for t in ts.tolist()], c7)
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_onset_none_for_tiny_calibration():
    spec = make_spec(LogPower(1.0 / P3, 5.0))
    assert divergence_onset(3, spec, 1e6, c7=1e-12) is None
