import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyops import (
    DomainError,
    KernelTriple,
    angular_average,
    hardy_heat_profile,
    l_envelope,
    m_envelope,
    make_params,
    poisson_kernel_exact,
    poisson_radial_average,
    riesz_exponent_window,
    riesz_profile,
    stable_heat_profile,
)


def test_triple_accepts_degenerate_and_generic_geometry():
    KernelTriple(1.0, 2.0, 2.5)
    KernelTriple(1.0, 1.0, 2.0)   # antipodal
    KernelTriple(1.0, 1.0, 1e-12)  # nearly coincident


def test_triple_rejects_impossible_geometry():
    with pytest.raises(DomainError):
        KernelTriple(1.0, 2.0, 3.5)   # rxy > rx + ry
    with pytest.raises(DomainError):
        KernelTriple(1.0, 3.0, 0.5)   # rxy < |rx - ry|
    with pytest.raises(DomainError):
        KernelTriple(-1.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        KernelTriple(1.0, 2.0, float("nan"))


def test_triple_rejects_arrays():
    with pytest.raises(DomainError):
        KernelTriple(np.array([1.0, 2.0]), 2.0, 2.5)


def test_stable_profile_positive_and_scale_covariant(rng):
    for _ in range(30):
        rx, ry = 10.0 ** rng.uniform(-2, 2, 2)
        mu = rng.uniform(-1.0, 1.0)
        rxy = math.sqrt((rx - ry) ** 2 + 2 * rx * ry * (1 - mu)) + 1e-300
        t = 10.0 ** rng.uniform(-2, 2)
        lam = 10.0 ** rng.uniform(-1, 1)
        base = stable_heat_profile(t, KernelTriple(rx, ry, rxy), 3, 1.0)
        scaled = stable_heat_profile(
            lam * t, KernelTriple(lam * rx, lam * ry, lam * rxy), 3, 1.0
        )
        assert base > 0.0
        # p_{lam^alpha t}(lam x, lam y) = lam^{-d} p_t(x, y) exactly
        assert scaled * lam**3 == pytest.approx(base, rel=1e-12)


def test_hardy_profile_reduces_to_stable_at_zero_coupling():
    params = make_params(3, 1.0, 0.0)
    q = KernelTriple(0.02, 1.5, 1.51)
    for t in (0.01, 1.0, 50.0):
        assert hardy_heat_profile(t, q, params) == stable_heat_profile(t, q, 3, 1.0)


def test_hardy_profile_weights_activate_below_heat_length():
    params = make_params(3, 1.0, 0.5)  # repulsive: delta < 0, weights damp
    q_small = KernelTriple(0.01, 0.015, 0.02)
    t = 1.0
    weighted = hardy_heat_profile(t, q_small, params)
    assert weighted < stable_heat_profile(t, q_small, 3, 1.0)
    # both radii above t^{1/alpha}: the weights are inert
    q_big = KernelTriple(5.0, 6.0, 2.0)
    assert hardy_heat_profile(t, q_big, params) == stable_heat_profile(t, q_big, 3, 1.0)


def test_hardy_profile_amplifies_for_attractive_coupling():
    params = make_params(3, 1.0, -0.5)  # delta > 0
    q_small = KernelTriple(0.01, 0.015, 0.02)
    assert hardy_heat_profile(1.0, q_small, params) > stable_heat_profile(1.0, q_small, 3, 1.0)


def test_poisson_kernel_closed_form(rng):
    # d=3 Cauchy kernel: t / (pi^2 (t^2 + z^2)^2)
    for _ in range(20):
        t = 10.0 ** rng.uniform(-1, 1)
        z = 10.0 ** rng.uniform(-2, 2)
        expected = t / (math.pi**2 * (t**2 + z**2) ** 2)
        assert poisson_kernel_exact(t, np.array([z]))[0] == pytest.approx(expected, rel=1e-14)


def test_poisson_radial_average_matches_brute_force(rng):
    for _ in range(10):
        t = 10.0 ** rng.uniform(-0.5, 0.5)
        rx, ry = 10.0 ** rng.uniform(-1, 1, 2)
        value = poisson_radial_average(t, rx, ry)
        mu = np.linspace(-1.0, 1.0, 20001)
        chord = np.sqrt((rx - ry) ** 2 + 2 * rx * ry * (1.0 - mu))
        brute = np.trapezoid(poisson_kernel_exact(t, chord), mu) / 2.0
        assert value == pytest.approx(brute, rel=1e-6)
        assert poisson_radial_average(t, ry, rx) == pytest.approx(value, rel=1e-14)


def test_angular_average_polynomial_exact():
    # d=3 averages uniformly in the cosine, so E[chord^2] = rx^2 + ry^2
    value = angular_average(lambda r: r**2, 1.0, 2.0, 3)
    assert value == pytest.approx(5.0, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_angular_average_matches_weighted_quadrature(d, rng):
    rx, ry = 0.7, 1.9

    def fn(r):
        return np.cos(r) + r**1.5

    value = angular_average(fn, rx, ry, d)
    # Parameterize by the angle: the sphere measure becomes sin^{d-2},
    # which keeps the integrand smooth for every dimension.
    theta = np.linspace(0.0, math.pi, 200001)
    weight = np.sin(theta) ** (d - 2)
    chord = np.sqrt((rx - ry) ** 2 + 2 * rx * ry * (1.0 - np.cos(theta)))
    brute = np.trapezoid(fn(chord) * weight, theta) / np.trapezoid(weight, theta)
    assert value == pytest.approx(brute, rel=1e-7)


def test_riesz_window_closed_forms(params_zero, params_critical):
    assert riesz_exponent_window(params_zero) == pytest.approx(6.0, rel=1e-12)
    # at the critical coupling delta = 1, so the window shrinks to 2
    assert riesz_exponent_window(params_critical) == pytest.approx(2.0, abs=1e-6)


def test_riesz_profile_symmetric_and_positive(params_half_critical, rng):
    for _ in range(20):
        rx, ry = 10.0 ** rng.uniform(-1.5, 1.5, 2)
        mu = rng.uniform(-1.0, 1.0)
        rxy = math.sqrt((rx - ry) ** 2 + 2 * rx * ry * (1 - mu)) + 1e-300
        value = riesz_profile(1.0, KernelTriple(rx, ry, rxy), params_half_critical)
        mirrored = riesz_profile(1.0, KernelTriple(ry, rx, rxy), params_half_critical)
        assert value > 0.0
        assert mirrored == pytest.approx(value, rel=1e-13)


def test_riesz_profile_rejects_exponent_outside_window(params_critical):
    smax = riesz_exponent_window(params_critical)
    with pytest.raises(DomainError):
        riesz_profile(smax + 0.1, KernelTriple(1.0, 1.0, 1.0), params_critical)
    with pytest.raises(DomainError):
        riesz_profile(0.0, KernelTriple(1.0, 1.0, 1.0), params_critical)


def test_envelopes_positive_where_supported(params_critical, rng):
    for _ in range(40):
        rx, ry = 10.0 ** rng.uniform(-2, 2, 2)
        mu = rng.uniform(-1.0, 1.0)
        rxy = math.sqrt((rx - ry) ** 2 + 2 * rx * ry * (1 - mu)) + 1e-300
        t = 10.0 ** rng.uniform(-1, 1)
        q = KernelTriple(rx, ry, rxy)
        long_range = l_envelope(t, q, params_critical)
        short_range = m_envelope(t, q, params_critical)
        # The long-range branch covers every configuration; the
        # short-range one is supported only at comparable radii beyond
        # the heat length.
        assert long_range > 0.0 and math.isfinite(long_range)
        assert short_range >= 0.0 and math.isfinite(short_range)
        comparable = 0.5 * rx <= ry <= 2.0 * rx
        if max(rx, ry) ** params_critical.alpha > t and comparable:
            assert short_range > 0.0


def test_l_envelope_rejects_vanishing_radius_at_positive_delta(params_critical):
    with pytest.raises(DomainError):
        l_envelope(1.0, KernelTriple(0.0, 1.0, 1.0), params_critical)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("a", [-0.1, 0.0, 0.3])
def test_profiles_where_a_power_of_the_time_overflows(d, a):
    # At alpha = 0.5, t^{2/alpha} overflows a double from t = 1.2e77 on and
    # t^{1/alpha} from t = 1.3e154 on.  The profiles stay finite and
    # nonnegative, and the weight t^{2/alpha}/(|x||y|) of the long-range
    # envelope, split into its halves, meets the Hardy profile at |x| = |y|.
    params = make_params(d, 0.5, a)
    q = KernelTriple(1.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in (1e77, 1.5e77, 1e79, 1e155, 1e200, 1e300):
            hardy, long_range = hardy_heat_profile(t, q, params), l_envelope(t, q, params)
            assert 0.0 <= hardy < math.inf and 0.0 <= long_range < math.inf, t
            if params.delta >= 0.0:
                assert long_range == pytest.approx(hardy, rel=1e-12, abs=1e-320), t


# ---------------------------------------------------------------------------
# chord arrays


def _chords(rx: float, ry: float, count: int = 48) -> np.ndarray:
    # Every chord of the pair, from coincident directions to antipodal ones.
    mu = np.cos(np.linspace(0.0, math.pi, count))
    return np.sqrt((rx - ry) ** 2 + 2.0 * rx * ry * (1.0 - mu))


@pytest.mark.parametrize("d,alpha,a", [(3, 1.0, -0.3), (2, 0.7, 0.4), (5, 1.9, -2.0), (4, 1.2, 0.0)])
def test_profiles_on_chord_arrays_equal_scalar_profiles_bitwise(d, alpha, a, rng):
    params = make_params(d, alpha, a)
    s = 0.5 * riesz_exponent_window(params)

    def riesz(t, q):  # a profile of no time
        return riesz_profile(s, q, params)

    profiles = (
        lambda t, q: stable_heat_profile(t, q, d, alpha),
        lambda t, q: hardy_heat_profile(t, q, params),
        lambda t, q: l_envelope(t, q, params),
        lambda t, q: m_envelope(t, q, params),
        riesz,
    )
    radii = [(1.0, 1.0), (0.3, 0.45), (2.0, 7.0), (1e-3, 1e2)]
    radii += [tuple(10.0 ** rng.uniform(-2, 2, 2)) for _ in range(4)]
    for rx, ry in radii:
        every = _chords(rx, ry)
        for t in (1e-2, 0.7, 30.0):
            for profile in profiles:
                # the Riesz profile is singular at coincident points
                chords = every[every > 0.0] if profile is riesz else every
                triple = KernelTriple(rx, ry, chords)
                values = profile(t, triple)
                # a chord-independent value may stay one float
                assert isinstance(values, float) or (
                    isinstance(values, np.ndarray) and values.shape == chords.shape
                )
                scalars = [profile(t, KernelTriple(rx, ry, float(x))) for x in chords]
                assert all(isinstance(v, float) for v in scalars)
                assert np.array_equal(np.broadcast_to(values, chords.shape), np.array(scalars))
        # the chord-dependent profiles always return one value per chord,
        # the heat profiles also at a coincident chord
        for profile in profiles[:2]:
            assert profile(1.0, KernelTriple(rx, ry, every)).shape == every.shape
        chords = every[every > 0.0]
        assert riesz(None, KernelTriple(rx, ry, chords)).shape == chords.shape
    # At a vanishing radius every chord equals the other radius, and the
    # Riesz profile is +inf for delta > 0, the bare power of the chord at
    # delta = 0 and 0 for delta < 0, also where that power under- or
    # overflows.
    for r in (2.0, 1e300, 1e-300):
        if params.delta > 0.0:
            expected = math.inf
        elif params.delta == 0.0:
            with np.errstate(over="ignore"):
                expected = float(np.power(r, 0.5 * alpha * s - d))
        else:
            expected = 0.0
        for rx, ry in ((0.0, r), (r, 0.0)):
            chords = np.full(8, r)
            with np.errstate(over="ignore"):
                values = riesz(None, KernelTriple(rx, ry, chords))
                scalars = [riesz(None, KernelTriple(rx, ry, float(x))) for x in chords]
            assert values.tolist() == [expected] * chords.size
            assert scalars == values.tolist()


def test_free_profile_tail_is_one_at_coincidence():
    chords = np.array([0.0, 1e-200, 0.5])
    values = stable_heat_profile(2.0, KernelTriple(1.0, 1.0, chords), 3, 1.0)
    assert values[0] == values[1] == 2.0 ** -3
    assert stable_heat_profile(2.0, KernelTriple(1.0, 1.0, 0.0), 3, 1.0) == 2.0 ** -3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=1500, deadline=None)
@given(d=st.integers(2, 5), alpha=st.floats(0.01, 1.99),
       log_t=st.floats(-300.0, 300.0), log_rxy=st.floats(-300.0, 300.0))
def test_free_profile_is_exact_wherever_it_is_a_normal_double(d, alpha, log_t, log_rxy):
    # t^{-d/alpha} min(1, t^{1+d/alpha} / rxy^{d+alpha}) in mpmath, with the
    # exponents -d/alpha and d + alpha rounded to doubles as the code has them.
    # Out of that range the value may round to 0 or inf, with no warning.
    t, rxy = 10.0**log_t, 10.0**log_rxy
    value = stable_heat_profile(t, KernelTriple(rxy, rxy, rxy), d, alpha)
    e = -d / alpha
    with mpmath.workdps(40):
        tt = mpmath.mpf(t)
        exact = tt**e * min(1, tt ** (1 - mpmath.mpf(e)) / mpmath.mpf(rxy) ** (d + alpha))
        if sys.float_info.min <= exact <= sys.float_info.max:
            assert abs(value - exact) <= 4e-15 * exact


def test_triple_rejects_bad_chord_arrays():
    good = _chords(1.0, 2.0)
    KernelTriple(1.0, 2.0, good)
    for bad in (
        good.reshape(6, 8),
        np.append(good, math.nan),
        np.append(good, math.inf),
        np.append(good, -1.0),
        np.append(good, 3.5),   # beyond rx + ry
        np.append(good, 0.5),   # below |rx - ry|
        good.astype(complex),
        np.array(2.5),
        [2.5],
    ):
        with pytest.raises(DomainError):
            KernelTriple(1.0, 2.0, bad)


def test_angular_average_broadcasts_chord_independent_values():
    for d in (2, 3, 5):
        assert angular_average(lambda chords: 3.5, 1.0, 2.0, d) == pytest.approx(3.5, rel=1e-14)
        assert angular_average(lambda chords: 3.5, 0.0, 2.0, d) == 3.5


def test_riesz_functions_on_chord_arrays_equal_scalar_calls_bitwise(params_half_critical):
    from hardyops import riesz_time_integral

    chords = _chords(1.0, 2.0, count=12)
    triple = KernelTriple(1.0, 2.0, chords)
    for riesz in (riesz_profile, riesz_time_integral):
        values = riesz(0.5, triple, params_half_critical)
        assert isinstance(values, np.ndarray) and values.shape == chords.shape
        scalars = [riesz(0.5, KernelTriple(1.0, 2.0, float(x)), params_half_critical)
                   for x in chords]
        assert all(isinstance(v, float) for v in scalars)
        assert values.tolist() == scalars
