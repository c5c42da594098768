import heapq
import math
import re
from contextlib import contextmanager
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from hardyops import (
    ConvergenceError,
    DomainError,
    KernelTriple,
    QuadResult,
    a_star,
    hardy_constant,
    integrate_semiinfinite,
    make_params,
    quadrature,
    riesz_equivalence_check,
    riesz_exponent_window,
    riesz_time_integral,
    schur_weight_integral,
    sphere_area,
    verify,
)
from hardyops.cli import main
from hardyops.quadrature import RIESZ_TOL

mpmath.mp.dps = 30


NO_KINKS = np.empty((1, 0))  # one integral, no kinks


def test_integrator_exponential():
    res = integrate_semiinfinite(lambda t: np.exp(-t), 1e-10, NO_KINKS)
    assert isinstance(res, QuadResult)
    assert res.value[0] == pytest.approx(1.0, abs=1e-10)
    assert res.evaluations > 0
    assert res.abs_error_estimate[0] <= 1e-10


def test_integrator_algebraic_tail():
    res = integrate_semiinfinite(lambda t: 1.0 / (1.0 + t * t), 1e-9, NO_KINKS)
    assert res.value[0] == pytest.approx(0.5 * math.pi, abs=1e-8)


def test_integrator_with_kink_matches_scipy():
    def f(t):
        return np.exp(-t) * np.abs(t - 1.0)

    res = integrate_semiinfinite(f, 1e-10, kinks=[[1.0]])
    head, _ = sp_integrate.quad(lambda t: math.exp(-t) * abs(t - 1.0), 0, 50.0,
                                points=[1.0])
    tail, _ = sp_integrate.quad(lambda t: math.exp(-t) * abs(t - 1.0), 50.0, np.inf)
    assert res.value[0] == pytest.approx(head + tail, abs=1e-9)


def test_integrator_gaussian_spike_off_origin():
    res = integrate_semiinfinite(
        lambda t: np.exp(-((t - 20.0) ** 2)), 1e-10, kinks=[[20.0]]
    )
    assert res.value[0] == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_integrator_integrable_left_singularity():
    # t^(-s/2 - 1) (e^-t - 1) blows up like t^(-s/2) at 0 and has no kink;
    # its integral is Gamma(-s/2).  One batch, one s per integral.
    s = np.array([0.5, 1.0, 1.5])
    res = integrate_semiinfinite(lambda t, s: t ** (-0.5 * s - 1.0) * np.expm1(-t), 1e-10,
                                 np.empty((3, 0)), args=(s,))
    for value, error, s_k in zip(res.value, res.abs_error_estimate, s):
        assert value == pytest.approx(math.gamma(-0.5 * s_k), abs=1e-9)
        assert error <= 1e-10


def test_integrator_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        integrate_semiinfinite(lambda t: np.exp(-t), 0.0, NO_KINKS)
    with pytest.raises(DomainError):
        integrate_semiinfinite(lambda t: np.exp(-t), float("inf"), NO_KINKS)


def test_integrator_rejects_non_finite_integrand():
    with pytest.raises(DomainError):
        integrate_semiinfinite(lambda t: np.full_like(t, np.nan), 1e-8, NO_KINKS)


def test_integrator_rejects_non_decaying_tail():
    with pytest.raises(ConvergenceError):
        integrate_semiinfinite(lambda t: np.ones_like(t), 1e-8, NO_KINKS)


def test_integrator_unreachable_tolerance_raises():
    with pytest.raises(ConvergenceError):
        integrate_semiinfinite(lambda t: 1.0 / (1.0 + t * t), 1e-18, NO_KINKS)


def test_riesz_time_anchor_sixteen_sevenths():
    params = make_params(3, 1.0, 0.0)
    value = riesz_time_integral(1.0, KernelTriple(1.0, 1.0, 1.0), params)
    assert value == pytest.approx(16.0 / 7.0, rel=1e-10)
    assert type(value) is float
    assert value == 2.2857142857040604  # as integrated one panel at a time


def test_riesz_time_integral_geometry_independent_at_zero_coupling(rng):
    # With delta = 0 the time integral reduces to a pure power of the
    # distance; stripping that power must leave the same number for
    # every admissible geometry.
    params = make_params(3, 1.0, 0.0)
    s = 1.0
    reference = None
    for _ in range(8):
        rx, ry = 10.0 ** rng.uniform(-1, 1, 2)
        mu = rng.uniform(-1.0, 1.0)
        rxy = math.sqrt((rx - ry) ** 2 + 2 * rx * ry * (1 - mu)) + 1e-300
        value = riesz_time_integral(s, KernelTriple(rx, ry, rxy), params)
        stripped = value * rxy ** (3.0 - 0.5 * s)
        if reference is None:
            reference = stripped
        assert stripped == pytest.approx(reference, rel=1e-8)


def test_riesz_time_integral_against_mpmath(params_half_critical):
    params = params_half_critical
    s = 1.0
    d, alpha, delta = params.d, params.alpha, params.delta
    for rx, ry, rxy in [(1.0, 2.0, 2.5), (0.2, 1.0, 1.1), (3.0, 3.0, 0.5)]:
        lcx = mpmath.log(mpmath.mpf(rxy) / rx)
        lcy = mpmath.log(mpmath.mpf(rxy) / ry)

        def integrand(t):
            lt = mpmath.log(t)
            le = (s / 2 - 1) * lt + min(mpmath.mpf(0), (-d / mpmath.mpf(alpha) - 1) * lt)
            le += delta * max(mpmath.mpf(0), lcx + lt / alpha)
            le += delta * max(mpmath.mpf(0), lcy + lt / alpha)
            return mpmath.e**le

        kinks = sorted({1.0, (rx / rxy) ** alpha, (ry / rxy) ** alpha})
        expected = mpmath.quad(integrand, [0] + kinks + [mpmath.inf])
        expected = float(rxy ** (0.5 * alpha * s - d) * expected)
        value = riesz_time_integral(s, KernelTriple(rx, ry, rxy), params)
        assert value == pytest.approx(expected, rel=1e-7)


def test_riesz_time_integral_rejects_exponent_outside_window(params_critical):
    with pytest.raises(DomainError):
        riesz_time_integral(2.5, KernelTriple(1.0, 1.0, 1.0), params_critical)
    with pytest.raises(DomainError):
        riesz_time_integral(-0.5, KernelTriple(1.0, 1.0, 1.0), params_critical)


def test_schur_anchor_six_pi():
    res = schur_weight_integral(1.0, 0.0, 3)
    assert not res.divergent
    assert res.value == pytest.approx(6.0 * math.pi, rel=1e-10)


def test_schur_closed_form(rng):
    # An independent route: adaptive quadrature of the radial integrand
    # r^{d-1} / (r^beta (r v 1)^d) ((r v 1)/(r ^ 1))^{delta_+}, split at
    # the kink r = 1.  In u = ln r both halves decay exponentially, which
    # QUADPACK resolves even where the exponents in r approach -1.
    for _ in range(10):
        d = int(rng.integers(2, 6))
        delta_plus = float(rng.uniform(0.0, 0.4 * d))
        beta = float(rng.uniform(delta_plus + 0.05, d - delta_plus - 0.05))
        res = schur_weight_integral(beta, delta_plus, d)

        def radial_du(u):
            # The integrand times dr/du = r at r = e^u, assembled in logs:
            # ln(r v 1) = max(u, 0) and ln((r v 1)/(r ^ 1)) = |u|.
            return math.exp(d * u - beta * u - d * max(u, 0.0) + delta_plus * abs(u))

        inner, _ = sp_integrate.quad(radial_du, -math.inf, 0.0, epsabs=0.0, epsrel=1e-13)
        outer, _ = sp_integrate.quad(radial_du, 0.0, math.inf, epsabs=0.0, epsrel=1e-13)
        assert not res.divergent
        assert res.value == pytest.approx(sphere_area(d) * (inner + outer), rel=1e-10)


def test_schur_divergence_flag_exact():
    d = 3
    for beta in np.linspace(-0.5, 3.5, 9):
        for delta_plus in (0.0, 0.4, 1.0):
            res = schur_weight_integral(float(beta), delta_plus, d)
            finite = delta_plus < beta < d - delta_plus
            assert res.divergent == (not finite)
            if res.divergent:
                assert res.value == math.inf


def test_schur_rejects_non_finite_inputs():
    with pytest.raises(DomainError):
        schur_weight_integral(float("inf"), 0.0, 3)
    with pytest.raises(DomainError):
        schur_weight_integral(1.0, float("nan"), 3)


@pytest.mark.parametrize("d", [-3, 0, 1, 3.0, True])
def test_schur_rejects_a_dimension_other_commands_reject(d):
    with pytest.raises(DomainError):
        schur_weight_integral(1.0, 0.0, d)


# ---------------------------------------------------------------------------
# batches: every integral is refined as it would be alone

dims = st.integers(min_value=2, max_value=5)
orders = st.floats(min_value=0.5, max_value=1.9)
couplings = st.floats(min_value=0.15, max_value=1.0)  # u: a = a_star + u (H/2 - a_star)
window_shares = st.floats(min_value=0.05, max_value=0.95)
radii = st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0**e)
geometry = st.tuples(radii, radii, st.floats(min_value=-1.0, max_value=0.99))
batches = st.lists(geometry, min_size=1, max_size=6)


def _riesz_case(d, alpha, u, share):
    low = a_star(d, alpha)
    params = make_params(d, alpha, low + u * (0.5 * hardy_constant(d, alpha) - low))
    return params, share * riesz_exponent_window(params)


def _lengths(batch):
    """rx, ry and the chord rxy of each (rx, ry, cosine of the angle)."""
    rx, ry, mu = (list(v) for v in zip(*batch))
    rxy = [math.sqrt((x - y) ** 2 + 2.0 * x * y * (1.0 - m)) for x, y, m in zip(rx, ry, mu)]
    return rx, ry, rxy


def _array_triple(rx, ry, rxy):
    return KernelTriple(np.array(rx, dtype=float), np.array(ry, dtype=float),
                        np.array(rxy, dtype=float))


@contextmanager
def _recorded_integrations():
    results = []
    original = quadrature.integrate_semiinfinite

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    with mock.patch.object(quadrature, "integrate_semiinfinite", spy):
        yield results


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ConvergenceError, DomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(d=dims, alpha=orders, u=couplings, share=window_shares, batch=batches)
def test_batched_riesz_integrals_equal_each_integral_alone(d, alpha, u, share, batch):
    params, s = _riesz_case(d, alpha, u, share)
    rx, ry, rxy = _lengths(batch)
    with _recorded_integrations() as results:
        values = riesz_time_integral(s, _array_triple(rx, ry, rxy), params)
        (together,) = results
        for i, lengths in enumerate(zip(rx, ry, rxy)):
            alone = riesz_time_integral(s, KernelTriple(*lengths), params)
            assert alone == values[i]  # bitwise
            assert results[-1].value == together.value[i]
            assert results[-1].abs_error_estimate == together.abs_error_estimate[i]
            assert results[-1].evaluations == together.evaluations_each[i]
    assert together.evaluations == sum(r.evaluations for r in results[1:])


@settings(max_examples=8, deadline=None)
@given(d=dims, alpha=orders, u=couplings, share=window_shares,
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_riesz_check_equals_a_loop_of_scalar_integrals(d, alpha, u, share, seed):
    params, s = _riesz_case(d, alpha, u, share)

    def one_at_a_time(s, q, params):
        return np.array([riesz_time_integral(s, KernelTriple(*lengths), params)
                         for lengths in zip(q.rx.tolist(), q.ry.tolist(), q.rxy.tolist())])

    batched = _outcome(riesz_equivalence_check, params, s, n_triples=24, seed=seed)
    with mock.patch.object(verify, "riesz_time_integral", one_at_a_time):
        looped = _outcome(riesz_equivalence_check, params, s, n_triples=24, seed=seed)
    assert batched == looped


def _time_integral_by_quad(s, rx, ry, rxy, params):
    """I of riesz_time_integral by QUADPACK in u = ln t, split at the kinks;
    returns the value, QUADPACK's error estimate and the scale of
    ``RIESZ_TOL``: 1, or the integrand's peak (at a kink) where above 1."""
    d, alpha, delta = params.d, params.alpha, params.delta
    lcx, lcy = math.log(rxy / rx), math.log(rxy / ry)

    def integrand(u):
        le = 0.5 * s * u + min(0.0, -d / alpha * u - u)
        return math.exp(le + delta * (max(0.0, lcx + u / alpha) + max(0.0, lcy + u / alpha)))

    edges = [-math.inf, *sorted({0.0, -alpha * lcx, -alpha * lcy}), math.inf]
    pieces = [sp_integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
              for a, b in zip(edges[:-1], edges[1:])]
    peak = max(1.0, *map(integrand, edges[1:-1]))
    return sum(v for v, _ in pieces), sum(e for _, e in pieces), peak


@settings(max_examples=25, deadline=None)
@given(d=dims, alpha=orders, u=couplings, share=window_shares, batch=batches)
def test_batched_riesz_integrals_match_scipy_quad(d, alpha, u, share, batch):
    params, s = _riesz_case(d, alpha, u, share)
    rx, ry, rxy = _lengths(batch)
    values = riesz_time_integral(s, _array_triple(rx, ry, rxy), params)
    for value, lengths in zip(values, zip(rx, ry, rxy)):
        reference, quad_error, peak = _time_integral_by_quad(s, *lengths, params)
        time_integral = value / lengths[2] ** (0.5 * params.alpha * s - params.d)
        assert abs(time_integral - reference) <= RIESZ_TOL * peak + quad_error


def test_single_integral_is_a_batch_of_one():
    alone = integrate_semiinfinite(lambda t: np.exp(-t), 1e-10, kinks=[[3.0]])
    pair = integrate_semiinfinite(lambda t, c: c * np.exp(-t), 1e-10,
                                  kinks=[[3.0], [3.0]], args=([1.0, 1.0],))
    for res, m in ((alone, 1), (pair, 2)):
        assert res.value.shape == res.abs_error_estimate.shape == (m,)
        assert res.evaluations_each.shape == (m,) and type(res.evaluations) is int
    assert alone.evaluations_each[0] == alone.evaluations
    assert pair.value.tolist() == [alone.value[0]] * 2
    assert pair.evaluations_each.tolist() == [alone.evaluations] * 2
    assert pair.evaluations == 2 * alone.evaluations
    empty = integrate_semiinfinite(lambda t: np.exp(-t), 1e-10, kinks=np.zeros((0, 1)))
    assert empty.value.shape == (0,) and empty.evaluations == 0


@pytest.mark.parametrize("kinks", [(), (3.0,), 3.0, np.ones((1, 1, 1))])
def test_kinks_other_than_an_m_by_k_array_are_rejected(kinks):
    with pytest.raises(DomainError, match=r"kinks must be an \(m, k\) array"):
        integrate_semiinfinite(_never_called, 1e-10, kinks=kinks)


# ---------------------------------------------------------------------------
# failures in a batch


def test_riesz_integrals_near_a_star_converge_to_quad(capsys):
    # Near a_star at d = 5 (delta about 1.5) some time integrals reach 6e5,
    # where an absolute 1e-9 lies below the G7K15 rounding floor: this draw
    # once exhausted the refinement budget and exited 3.
    recorded = []

    def spy(s, q, params):
        recorded.append((s, q, params, riesz_time_integral(s, q, params)))
        return recorded[-1][-1]

    with mock.patch.object(verify, "riesz_time_integral", spy):
        rc = main([
            "riesz-verify", "--d=5", "--alpha=1.1975915514046693", "--a=-1.6356399056289268",
            "--s=0.7868220546998024,2.478680856865038,1.916793778594522", "--seed=716877914",
        ])
    assert rc in (0, 2), capsys.readouterr().err
    assert len(recorded) == 3
    for s, q, params, values in recorded:
        for value, lengths in zip(values.tolist(), zip(q.rx.tolist(), q.ry.tolist(),
                                                       q.rxy.tolist())):
            reference, _, _ = _time_integral_by_quad(s, *lengths, params)
            time_integral = value / lengths[2] ** (0.5 * params.alpha * s - params.d)
            assert time_integral == pytest.approx(reference, rel=1e-8)


def _alone_error(f, c, kinks):
    with pytest.raises((ConvergenceError, DomainError)) as alone:
        integrate_semiinfinite(f, 1e-10, kinks=[kinks], args=([c],))
    return alone.value


def _scaled_exponential(t, c):
    return c * np.exp(-t)


def test_batch_names_the_panel_of_its_non_finite_row():
    # The NaN row's first panel is [1e-3 e^-2, 1e-3]; the other rows start
    # at [e^-2, 1].
    with pytest.raises(DomainError) as batch:
        integrate_semiinfinite(_scaled_exponential, 1e-10, kinks=[[2.0], [1e-3], [5.0]],
                               args=([1.0, math.nan, 1.0],))
    assert "[0.000135, 0.001]" in str(batch.value)
    assert str(batch.value) == str(_alone_error(_scaled_exponential, math.nan, [1e-3]))


def _never_called(t, c):
    raise AssertionError("integrand evaluated before the kinks were checked")


def _flat_or_nan(t, c):
    # c = 0: a tail that never decays; c = NaN: non-finite everywhere.
    return np.where(c == 0.0, 1.0, c * np.exp(-t))


@pytest.mark.parametrize("first, second", [(0.0, math.nan), (math.nan, 0.0)])
def test_batch_raises_the_lowest_failing_integral(first, second):
    # A NaN row fails on its first panel, before a flat row reaches the
    # overflow boundary, yet only the lower row's error is raised.
    with pytest.raises((ConvergenceError, DomainError)) as batch:
        integrate_semiinfinite(_flat_or_nan, 1e-10, kinks=np.ones((4, 1)),
                               args=([1.0, first, second, 1.0],))
    alone = _alone_error(_flat_or_nan, first, [1.0])
    assert type(batch.value) is type(alone)
    assert str(batch.value) == str(alone)


def test_riesz_integrals_name_the_first_non_positive_length(params_zero):
    # (2, 2, 0) has a vanishing chord and (0, 1, 1) a vanishing radius.
    triple = _array_triple([1.0, 2.0, 0.0], [1.0, 2.0, 1.0], [1.0, 0.0, 1.0])
    with pytest.raises(DomainError, match="at index 1"):
        riesz_time_integral(1.0, triple, params_zero)


def test_riesz_scale_overflow_is_a_domain_error_naming_its_index(monkeypatch):
    # |x-y|^{alpha s/2 - d} = 1e637 here, past the largest double; the
    # Python-float power used to raise a bare OverflowError.
    params = make_params(5, 1.5, 0.9 * a_star(5, 1.5))
    with pytest.raises(DomainError, match=r"overflows double precision at \(1e-150, 1e-150, 1e-150\), index 0"):
        riesz_time_integral(1.0, KernelTriple(1e-150, 1e-150, 1e-150), params)

    def no_integral(*args, **kwargs):
        raise AssertionError("an integral started")

    monkeypatch.setattr(quadrature, "integrate_semiinfinite", no_integral)
    triple = _array_triple(*[[1.0, 1e-150, 1e-150]] * 3)
    with pytest.raises(DomainError, match="index 1$"):
        riesz_time_integral(1.0, triple, params)


@pytest.mark.parametrize("lengths", [(1e150, 1e150, 1e-150), (1e200, 1e200, 1e-200)])
def test_riesz_kinks_out_of_range_are_a_domain_error_naming_the_geometry(monkeypatch, lengths):
    # The kink (|x|/|x-y|)^alpha overflows at the first geometry, and
    # |x-y|/|x| underflows to zero at the second, whose log is then -inf;
    # Python-float arithmetic used to raise a bare OverflowError and a
    # ValueError here.
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral started")

    monkeypatch.setattr(quadrature, "integrate_semiinfinite", no_integral)
    params = make_params(3, 1.9, -0.1)
    expected = re.escape(f"overflows double precision at {lengths}, index 0")
    with pytest.raises(DomainError, match=expected):
        riesz_time_integral(0.5, KernelTriple(*lengths), params)
    triple = _array_triple(*([1.0, v] for v in lengths))
    with pytest.raises(DomainError, match=re.escape(f"{lengths}, index 1") + "$"):
        riesz_time_integral(0.5, triple, params)


def test_riesz_value_overflow_is_a_domain_error_naming_its_index():
    # Every factor is finite at both lengths, but at 3e-73 their product
    # with the integral passes the largest double; it used to come back as
    # a silent inf.
    params = make_params(5, 1.5, 0.9 * a_star(5, 1.5))
    largest = riesz_time_integral(1.0, KernelTriple(1e-72, 1e-72, 1e-72), params)
    assert largest == pytest.approx(2.4391016368355564e306, rel=1e-12)
    triple = _array_triple(*[[1.0, 1e-72, 3e-73]] * 3)
    with pytest.raises(DomainError, match=r"overflows double precision at \(3e-73, 3e-73, 3e-73\), index 2$"):
        riesz_time_integral(1.0, triple, params)


# ---------------------------------------------------------------------------
# kink seeding: one array pass, as a row-by-row loop seeds them


def _kink_seed(k):
    k = float(k)
    if not (k > 0.0) or math.isinf(k):
        raise DomainError(f"kink locations must be finite and > 0: {k!r}")
    return np.log(k)


def _edges_row_by_row(kinks):
    """Edges and the first error, seeded one kink at a time with numpy's log."""
    seeds, failure = [], None
    for row in kinks:
        try:
            seeds.append([_kink_seed(k) for k in row] + [0.0])
        except DomainError as exc:
            failure = exc
            break
    edges = [[min(r) - 2.0, *r, max(r) + 2.0] for r in seeds]
    return np.sort(np.reshape(edges, (len(seeds), np.shape(kinks)[1] + 3)), axis=1), failure


positive_kinks = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Kinks at which the integral of e^-t converges, so a failure can only be a kink's.
moderate_kinks = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)
bad_kinks = st.sampled_from([0.0, -0.0, -1e-300, -2.5, math.nan, math.inf, -math.inf])


@st.composite
def kink_batches(draw, kinks=positive_kinks):
    m = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(kinks, min_size=k, max_size=k),
                         min_size=m, max_size=m))
    return np.array(rows, dtype=float).reshape(m, k)


@settings(max_examples=150, deadline=None)
@given(kinks=kink_batches())
def test_kink_edges_equal_row_by_row_seeding(kinks):
    edges = quadrature._seed_edges(kinks)
    reference, _ = _edges_row_by_row(kinks)
    assert edges.tobytes() == reference.tobytes()


def test_kink_edges_of_a_large_batch_equal_row_by_row_seeding(rng):
    # Riesz-shaped kinks (1, (rx/rxy)^alpha, (ry/rxy)^alpha).  Python's log,
    # which seeded the edges before, differs from numpy's on about one of
    # these in a thousand, by an ulp.
    rx, ry, rxy = (10.0 ** rng.uniform(-2.0, 2.0, 20000) for _ in range(3))
    alpha = rng.uniform(0.5, 1.9, 20000)
    kinks = np.column_stack([np.ones(20000), (rx / rxy) ** alpha, (ry / rxy) ** alpha])
    edges = quadrature._seed_edges(kinks)
    assert edges.tobytes() == _edges_row_by_row(kinks)[0].tobytes()
    logs = np.reshape([math.log(k) for k in kinks.ravel().tolist()], kinks.shape)
    python_seeded = np.sort(np.column_stack([logs, np.zeros(20000)]), axis=1)
    assert np.all(np.abs(edges[:, 1:-1] - python_seeded) <= 1e-14 * np.abs(python_seeded))


@settings(max_examples=150, deadline=None)
@given(kinks=kink_batches(moderate_kinks), data=st.data())
def test_bad_kink_names_the_lowest_bad_row(kinks, data):
    m, k = kinks.shape
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        row = data.draw(st.integers(min_value=0, max_value=m - 1))
        kinks[row, data.draw(st.integers(min_value=0, max_value=k - 1))] = data.draw(bad_kinks)
    _, expected = _edges_row_by_row(kinks)
    with pytest.raises(DomainError) as seeded:
        quadrature._seed_edges(kinks)
    assert str(seeded.value) == str(expected)
    # The whole batch is checked before the integrand is first called.
    with pytest.raises(DomainError) as raised:
        integrate_semiinfinite(_never_called, 1e-10, kinks=kinks, args=(1.0,))
    assert str(raised.value) == str(expected)


# ---------------------------------------------------------------------------
# the lockstep integrator against a sequential one, one integral at a time


def _panel(f, lo, hi, params):
    """G7K15 value and error estimate of one panel [lo, hi] in u = ln t."""
    mid, hl = 0.5 * (lo + hi), 0.5 * (hi - lo)
    u = np.array([mid + hl * quadrature._NODES])
    with np.errstate(all="ignore"):
        t = np.exp(u)
        g = np.asarray(f(t, *(np.full((1, 1), a) for a in params)), dtype=float) * t
    if not np.isfinite(g).all():
        raise DomainError(f"integrand returned a non-finite or misshaped value on "
                          f"[{math.exp(lo):.3g}, {math.exp(hi):.3g}]")
    sym = g[:, :7] + g[:, :7:-1]
    k15 = hl * (quadrature._row_dot(sym, quadrature._WK[:-1]) + quadrature._WK[-1] * g[:, 7])
    g7 = hl * (quadrature._row_dot(sym[:, 1::2], quadrature._WG[:-1])
               + quadrature._WG[-1] * g[:, 7])
    return float(k15[0]), float(abs(k15[0] - g7[0]))


def _integrate_alone(f, tol, kinks, params):
    """Value, error estimate and evaluation count of one integral, one panel
    at a time: seeds at the kinks in increasing u, the right tail and then
    the left in steps of 2 until two consecutive panels are negligible, and
    then bisections of the worst panel, popped from a heap keyed on
    (-err, lo)."""
    seeds = sorted([math.log(k) for k in kinks] + [0.0])
    edges = [seeds[0] - 2.0, *seeds, seeds[-1] + 2.0]
    panels = [(lo, hi, *_panel(f, lo, hi, params))
              for lo, hi in zip(edges, edges[1:]) if hi > lo]
    for direction, u, stuck in (
        (+1, edges[-1], "right tail did not decay before the overflow boundary"),
        (-1, edges[0], "left tail did not decay before the underflow boundary"),
    ):
        quiet = 0
        while quiet < 2:
            if u >= quadrature._U_CEIL if direction > 0 else u <= quadrature._U_FLOOR:
                raise ConvergenceError(stuck)
            nxt = u + 2.0 * direction
            lo, hi = (u, nxt) if direction > 0 else (nxt, u)
            val, err = _panel(f, lo, hi, params)
            panels.append((lo, hi, val, err))
            quiet = quiet + 1 if abs(val) + err < 0.1 * tol else 0
            u = nxt
    total = 0.0
    for *_, err in panels:
        total += err
    heap = [(-err, lo, hi, val) for lo, hi, val, err in panels]
    heapq.heapify(heap)
    splits = 0
    while total > tol:
        if splits >= quadrature.MAX_SPLITS:
            raise ConvergenceError(
                f"refinement budget exhausted: error estimate {total:.3e} "
                f"above tolerance {tol:.3e} after {splits} splits")
        neg_err, lo, hi, _ = heapq.heappop(heap)
        err = -neg_err
        if hi - lo < 1e-13:
            raise ConvergenceError(f"panel at t ~ {math.exp(lo):.3e} shrank below "
                                   f"resolution with error {err:.3e} remaining")
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = _panel(f, lo, mid, params), _panel(f, mid, hi, params)
        total = (total - err) + (e1 + e2)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        splits += 1
    return math.fsum(val for *_, val in heap), total, 15 * (len(heap) + splits)


def _exp_with_kink(t, c, k):
    return np.exp(-c * np.abs(t - k))


def _log_gaussian(t):
    # exp(-(ln t)^2) dt/t is e^{-u^2} du: mirrored panels tie on error.
    return np.exp(-np.log(t) ** 2) / t


def _riesz_form(t, lcx, lcy):
    # The Riesz time integrand's shape at (d, alpha, delta, s) = (3, 1.5, 0.4, 0.8):
    # the exp of a function of ln t, linear between kinks at 1, e^{-1.5 lcx}
    # and e^{-1.5 lcy}.
    lt = np.log(t)
    le = -0.6 * lt + np.minimum(0.0, -3.0 * lt)
    le = le + 0.4 * np.maximum(0.0, lcx + lt / 1.5)
    return np.exp(le + 0.4 * np.maximum(0.0, lcy + lt / 1.5))


def _gamma_form(t, c):
    # t^(c - 1) e^-t: at c = 0 the left tail is flat in u and never decays.
    return t ** (c - 1.0) * np.exp(-t)


def _lorentzian(t, c):
    return c / (1.0 + t * t)


# Five hand-picked geometries and 195 drawn ones: in a batch this size a
# total summed in another order than the panels were made shows.
_RIESZ_LOGS = [(0.0, 0.0), (-2.0, 1.0), (3.0, -4.0), (1e-3, 0.5), (-6.0, -6.0),
               *np.random.default_rng(5).uniform(-6.0, 6.0, (195, 2)).tolist()]
_SEQUENTIAL_CASES = {
    "exponentials-with-kinks": (_exp_with_kink, 1e-10,
                                [[1.0, 2.0], [0.3, 0.6], [5.0, 10.0], [20.0, 40.0]],
                                ([1.0, 0.5, 3.0, 2.0], [1.0, 0.3, 5.0, 20.0])),
    "log-gaussian-ties": (_log_gaussian, 1e-12,
                          [[math.exp(-1.0), math.e], [math.exp(-2.0), math.exp(2.0)]], ()),
    "riesz-form": (_riesz_form, 1e-9,
                   [[1.0, math.exp(-1.5 * x), math.exp(-1.5 * y)] for x, y in _RIESZ_LOGS],
                   tuple(zip(*_RIESZ_LOGS))),
    "right-tail-flat": (_flat_or_nan, 1e-10, np.ones((3, 1)), ([1.0, 0.0, 1.0],)),
    "left-tail-flat": (_gamma_form, 1e-10, [[1.0], [2.0], [0.5]], ([1.5, 0.5, 0.0],)),
    "non-finite": (_flat_or_nan, 1e-10, [[1.0], [3.0], [1.0]], ([1.0, math.nan, 0.0],)),
    "unreachable-tolerance": (_lorentzian, 1e-18, [[1.0], [1.0]], ([0.0, 1.0],)),
}


@pytest.mark.parametrize("case", sorted(_SEQUENTIAL_CASES))
def test_batch_equals_a_sequential_integrator(case):
    f, tol, kinks, args = _SEQUENTIAL_CASES[case]
    m = len(kinks)
    params = [[a[r] for a in args] for r in range(m)]
    expected = []
    try:
        for r in range(m):
            expected.append(_integrate_alone(f, tol, kinks[r], params[r]))
    except (ConvergenceError, DomainError) as exc:
        expected = (type(exc), str(exc))
    got = _outcome(integrate_semiinfinite, f, tol, np.asarray(kinks, dtype=float), args)
    if isinstance(expected, tuple):
        assert got == expected
        return
    value, error, evals = (np.array(x) for x in zip(*expected))
    assert got.value.tobytes() == value.tobytes()
    assert got.abs_error_estimate.tobytes() == error.tobytes()
    assert got.evaluations_each.tolist() == evals.tolist()
    assert got.evaluations == evals.sum()
