"""Closed-form soliton fields, shape classification, and the hodograph antiderivative."""

import math
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from relaxwave import (
    DomainError,
    GridSpec,
    classify,
    eval_complex_Q,
    eval_uZ,
    make_complex_wave,
    profile,
    singular_thetas,
    solve_real,
    tau_pair,
)
from relaxwave import soliton
from relaxwave.dispersion import ComplexWave, RealWave
from relaxwave.soliton import (
    SHAPE_CUSP,
    SHAPE_KINK,
    SHAPE_LOOP,
    complex_Z,
    complex_bundles,
    real_bundles,
)

from helpers import (
    A_024_01,
    CRIT_ALPHA_024,
    PI0_024_01,
    S_024_01,
    S_024_08,
    THETA_SING_024_01,
    Y_GAP_ORIGIN,
    Y_QUAD_ORIGIN,
    Z_from_tau_pair,
    count_turning_points,
    hand_y_quadrature,
    tau_dsigma,
    tau_dtau,
    u_from_tau_pair,
)


def momentum(w, sigma, tau):
    """Momentum density ``u_sigma + u_tau`` from the analytic bundle."""
    bu, _bz = real_bundles(w, sigma, tau)
    return bu.s + bu.t


@pytest.fixture(scope="module")
def w_loop():
    return solve_real(0.24, 0.1)


@pytest.fixture(scope="module")
def w_cusp():
    return solve_real(0.24, CRIT_ALPHA_024)


@pytest.fixture(scope="module")
def w_kink():
    return solve_real(0.24, 0.8)


def test_center_values(w_loop):
    u0, Z0 = eval_uZ(w_loop, 0.0, 0.0)
    assert u0 == pytest.approx(A_024_01, abs=1e-14)
    assert Z0 == pytest.approx(-2.0 * (w_loop.k + w_loop.omega), abs=1e-15)
    assert momentum(w_loop, 0.0, 0.0) == pytest.approx(PI0_024_01, abs=1e-14)


def test_critical_amplitude_is_one_plus_v(w_cusp):
    # at the threshold the amplitude coefficient collapses to 1 + v and the
    # slope parameter 4*(omega+k)*k to exactly 1
    amp = 4.0 * (w_cusp.omega + w_cusp.k) ** 2
    assert amp == pytest.approx(1.24, abs=1e-13)
    assert 4.0 * (w_cusp.omega + w_cusp.k) * w_cusp.k == pytest.approx(1.0, abs=1e-13)


def test_tail_asymptotics(w_loop):
    amp = 4.0 * (w_loop.omega + w_loop.k) ** 2
    u_behind, Z_behind = eval_uZ(w_loop, -20.0 / w_loop.k, 0.0)
    u_ahead, _ = eval_uZ(w_loop, 20.0 / w_loop.k, 0.0)
    assert abs(u_behind) < 1e-14
    assert abs(u_ahead - 2.0 * amp) < 1e-14
    assert abs(Z_behind - 0.5 * (-20.0 / w_loop.k)) < 1e-14


def test_tau_pair_rebuilds_fields(w_loop):
    s = np.linspace(-5.0, 5.0, 11)
    S, T = np.meshgrid(s, s, indexing="ij")
    for w in (w_loop, replace(w_loop, theta0=0.35)):
        pair = tau_pair(w)
        u, Z = eval_uZ(w, S, T)
        assert np.max(np.abs(u_from_tau_pair(pair, S, T) - u)) < 1e-12
        assert np.max(np.abs(Z_from_tau_pair(pair, S, T) - Z)) < 1e-12


def test_tau_pair_log_derivative_at_center(w_loop):
    pair = tau_pair(w_loop)
    ld = (tau_dtau(pair.F)(0.0, 0.0) - tau_dsigma(pair.F)(0.0, 0.0)) / pair.F(0.0, 0.0)
    assert ld == pytest.approx(-(w_loop.k + w_loop.omega), abs=1e-15)


def test_degenerate_wave_has_zero_fields():
    w = RealWave(v=0.5, alpha=0.2, k=0.7, omega=-0.7)
    pair = tau_pair(w)
    assert pair.G.atoms == ()
    u, _ = eval_uZ(w, 1.3, -0.4)
    assert u == 0.0
    assert momentum(w, 0.0, 0.0) == 0.0


def test_momentum_sign_follows_k_minus_omega():
    rng = np.random.default_rng(41)
    s = np.linspace(-4.0, 4.0, 17)
    for _ in range(25):
        w = solve_real(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.0, 2.0)))
        assert np.all(momentum(w, s, 0.0) > 0.0)
    w_rev = RealWave(v=2.0, alpha=0.1, k=0.3, omega=0.6)
    assert momentum(w_rev, 0.0, 0.0) < 0.0


def test_singular_thetas_three_regimes(w_loop, w_cusp, w_kink):
    assert 4.0 * (w_loop.omega + w_loop.k) * w_loop.k == pytest.approx(S_024_01, abs=1e-15)
    assert 4.0 * (w_kink.omega + w_kink.k) * w_kink.k == pytest.approx(S_024_08, abs=1e-15)
    roots = singular_thetas(w_loop)
    assert len(roots) == 2
    assert roots[1] == pytest.approx(THETA_SING_024_01, abs=1e-14)
    assert roots[0] == -roots[1]
    assert roots[1] == pytest.approx(math.acosh(math.sqrt(S_024_01)), abs=1e-15)
    assert singular_thetas(w_cusp) == (0.0,)
    assert singular_thetas(w_kink) == ()


def test_classify_reference_cases(w_loop, w_cusp, w_kink):
    c1 = classify(w_loop)
    assert c1.shape == SHAPE_LOOP
    assert c1.momentum_shape == "loop-like"
    assert c1.singular_thetas[1] == pytest.approx(THETA_SING_024_01, abs=1e-14)
    assert c1.alpha_critical == pytest.approx(CRIT_ALPHA_024, abs=1e-15)
    cc = classify(w_cusp)
    assert cc.shape == SHAPE_CUSP
    assert cc.momentum_shape == "cusp-like"
    assert cc.singular_thetas == (0.0,)
    ck = classify(w_kink)
    assert ck.shape == SHAPE_KINK
    assert ck.momentum_shape == "hump-like"
    assert ck.singular_thetas == ()


def test_classify_ignores_phase_offset(w_loop):
    assert classify(replace(w_loop, theta0=5.0)).shape == SHAPE_LOOP


def test_classify_tolerance_band():
    ac = CRIT_ALPHA_024
    assert classify(solve_real(0.24, ac * (1.0 + 1e-12))).shape == SHAPE_CUSP
    assert classify(solve_real(0.24, ac * (1.0 - 1e-6))).shape == SHAPE_LOOP
    assert classify(solve_real(0.24, ac * (1.0 + 1e-6))).shape == SHAPE_KINK


@pytest.mark.parametrize("v", [0.24, 0.9])
def test_classify_takes_verdict_and_roots_from_singular_thetas(v):
    # across alpha_critical*(1 +- 3e-9) the two public answers agree point by
    # point; away from the band they reach loop and kink
    ac = soliton.alpha_critical(v)
    shapes = set()
    for f in np.linspace(-3e-9, 3e-9, 25):
        w = solve_real(v, ac * (1.0 + f))
        c = classify(w)
        roots = singular_thetas(w)
        assert c.singular_thetas == roots
        assert c.shape == {0: SHAPE_KINK, 1: SHAPE_CUSP, 2: SHAPE_LOOP}[len(roots)]
        shapes.add(c.shape)
    assert SHAPE_CUSP in shapes


def test_profile_rows_consistent(w_loop):
    p = profile(w_loop, tau=0.3, C=1.7, n=301)
    assert np.max(np.abs(p.y + p.Z - 1.7)) < 1e-14
    th = w_loop.k * p.sigma - w_loop.omega * 0.3
    assert np.max(np.abs(p.theta - th)) < 1e-14
    amp = 4.0 * (w_loop.omega + w_loop.k) ** 2
    pi_hand = amp * (w_loop.k - w_loop.omega) / np.cosh(th) ** 2
    dz_hand = 0.5 * (1.0 - S_024_01 / np.cosh(th) ** 2)
    assert np.max(np.abs(p.pi - pi_hand)) < 1e-14
    assert np.max(np.abs(p.dZdsigma - dz_hand)) < 1e-14
    u, Z = eval_uZ(w_loop, p.sigma, 0.3)
    assert np.array_equal(p.u, u)
    assert np.array_equal(p.Z, Z)


@pytest.mark.parametrize(("v", "alpha", "theta0", "span"), (
    (0.24, 0.1, 0.0, 15.0), (0.24, 0.8, -2.0, 15.0), (0.5, 0.05, 3.0, 800.0)))
def test_profile_columns_equal_the_pointwise_kernels(v, alpha, theta0, span):
    # theta, u and Z bit for bit, also where |theta| > 360 and sech(theta)**2
    # is subnormal; the momentum and slope columns against the independent
    # derivative formulas of real_bundles, u_s + u_t and Z_s, to 4 ulps of
    # each column's sup
    w = solve_real(v, alpha, theta0=theta0)
    p = profile(w, tau=0.3, sigma_min=-span, sigma_max=span, n=2001)
    s2 = soliton.sech(p.theta) ** 2
    assert np.any((s2 > 0.0) & (s2 < np.finfo(float).tiny)) == (span > 15.0)
    assert np.array_equal(p.theta, soliton.theta(w, p.sigma, 0.3))
    u, Z = eval_uZ(w, p.sigma, 0.3)
    assert np.array_equal(p.u, u)
    assert np.array_equal(p.Z, Z)
    bu, bz = real_bundles(w, p.sigma, 0.3)
    for got, want in ((p.pi, bu.s + bu.t), (p.dZdsigma, bz.s)):
        sup = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps * sup


def test_profile_evaluates_phase_tanh_and_sech_once(monkeypatch, w_loop):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(soliton, "theta", counted("theta", soliton.theta))
    monkeypatch.setattr(soliton, "sech", counted("sech", soliton.sech))
    monkeypatch.setattr(np, "tanh", counted("tanh", np.tanh))
    profile(w_loop, n=101)
    assert calls == {"theta": 1, "tanh": 1, "sech": 1}


def test_profile_validation(w_loop):
    with pytest.raises(DomainError):
        profile(w_loop, n=1)
    with pytest.raises(DomainError):
        profile(w_loop, sigma_min=3.0, sigma_max=-3.0)


def test_turning_point_counts(w_loop, w_cusp, w_kink):
    assert count_turning_points(profile(w_loop).dZdsigma) == (2, 0)
    assert count_turning_points(profile(w_cusp).dZdsigma) == (0, 1)
    assert count_turning_points(profile(w_kink).dZdsigma) == (0, 0)


def test_turning_point_counter_on_synthetic_data():
    assert count_turning_points(np.array([1.0, -1.0, 1.0])) == (2, 0)
    assert count_turning_points(np.array([1.0, 0.0, 1.0])) == (0, 1)
    assert count_turning_points(np.array([1.0, 0.0, -1.0])) == (1, 0)
    assert count_turning_points(np.array([0.0, 1.0, 1.0])) == (0, 0)
    assert count_turning_points(np.array([0.5, 0.5])) == (0, 0)


def test_kink_profile_is_single_valued(w_kink):
    p = profile(w_kink)
    assert np.all(np.diff(p.y) < 0.0)
    assert np.all(np.diff(p.u) > 0.0)


def test_loop_profile_folds_twice(w_loop):
    p = profile(w_loop)
    steps = np.sign(np.diff(p.y))
    assert int(np.sum(steps[1:] != steps[:-1])) == 2


def test_hodograph_quadrature_matches_antiderivative(w_loop):
    # y = zeta + integral of (u + u**2/2) d xi' along fixed zeta from far
    # behind the pulse, with sigma = xi - zeta and tau = -xi - zeta:
    # 50-digit quadrature against the float antiderivative
    with mpmath.workdps(50):
        k, om, th0 = (mpmath.mpf(x) for x in (w_loop.k, w_loop.omega, w_loop.theta0))

        def integrand(x, zeta):
            u = 4 * (k + om) ** 2 * (1 + mpmath.tanh(k * (x - zeta) - om * (-x - zeta) + th0))
            return u + u * u / 2

        for xi, zeta in ((0.0, 0.0), (0.7, -0.3), (-0.5, 0.4), (1.5, 0.0)):
            exact = zeta + mpmath.quad(lambda x: integrand(x, zeta), [-mpmath.inf, xi])
            assert abs(hand_y_quadrature(w_loop, xi, zeta) - exact) <= 1e-14


def test_hodograph_gap_at_origin(w_loop):
    # the quadrature route and -Z disagree by a sigma-dependent offset; the
    # value at the origin is pinned down as a reference finding
    got = hand_y_quadrature(w_loop, 0.0, 0.0)
    assert got == pytest.approx(Y_QUAD_ORIGIN, abs=1e-14)
    _, Z0 = eval_uZ(w_loop, 0.0, 0.0)
    assert got - (-Z0) == pytest.approx(Y_GAP_ORIGIN, abs=1e-14)


def test_complex_Q_center_and_reduction():
    cw = make_complex_wave(1.0 + 0.5j, 0.1)
    qr0, qi0 = eval_complex_Q(cw, 0.0, 0.0)
    assert qr0 == pytest.approx(4.0 * (cw.k.real + cw.omega.real), abs=1e-14)
    assert qi0 == 0.0
    real = make_complex_wave(1.2, 0.5, root=0)
    assert real.omega == 0.8 + 0j
    s = np.linspace(-3.0, 3.0, 13)
    qr, qi = eval_complex_Q(real, s, 0.4)
    assert np.max(np.abs(qi)) == 0.0
    expect = 8.0 / np.cosh(1.2 * s - 0.8 * 0.4)
    assert np.max(np.abs(qr - expect)) < 1e-13


def test_complex_Q_tail_envelope():
    cw = make_complex_wave(1.0 + 0.5j, 0.1)
    sig = -20.0 / cw.k.real
    qr, qi = eval_complex_Q(cw, sig, 0.0)
    amp = 4.0 * (cw.k.real + cw.omega.real)
    assert math.hypot(qr, qi) * math.exp(20.0) == pytest.approx(2.0 * amp, rel=1e-12)


def test_complex_Z_real_root_value():
    real = make_complex_wave(1.2, 0.5, root=0)
    # zeta coefficient A**2/(2s) with s = 2, A = 8
    assert complex_Z(real, 0.0, 0.0) == pytest.approx(-16.0, abs=1e-12)
    assert complex_Z(real, 0.0, 4.0) == pytest.approx(
        2.0 - 16.0 * (np.tanh(-0.8 * 4.0) + 1.0), abs=1e-12)


def test_complex_Z_requires_decay():
    cw = ComplexWave(k=1j, omega=0.5 + 0j, alpha=0.1)
    with pytest.raises(DomainError):
        complex_Z(cw, 0.0, 0.0)


def fd1(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd2(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def test_real_bundles_match_finite_differences(w_loop):
    s0, t0 = 0.7, -0.4
    bu, bz = real_bundles(w_loop, s0, t0)
    for b, field in ((bu, lambda s, t: eval_uZ(w_loop, s, t)[0]),
                     (bz, lambda s, t: eval_uZ(w_loop, s, t)[1])):
        assert b.f == pytest.approx(field(s0, t0), abs=1e-14)
        assert b.s == pytest.approx(fd1(lambda x: field(x, t0), s0), abs=1e-8)
        assert b.t == pytest.approx(fd1(lambda x: field(s0, x), t0), abs=1e-8)
        assert b.ss == pytest.approx(fd2(lambda x: field(x, t0), s0), abs=1e-6)
        assert b.tt == pytest.approx(fd2(lambda x: field(s0, x), t0), abs=1e-6)


def test_complex_bundles_match_finite_differences():
    cw = make_complex_wave(1.0 + 0.5j, 0.1)
    s0, t0 = 0.3, 0.2
    bqr, bqi, bz = complex_bundles(cw, s0, t0)
    fields = (lambda s, t: eval_complex_Q(cw, s, t)[0],
              lambda s, t: eval_complex_Q(cw, s, t)[1],
              lambda s, t: complex_Z(cw, s, t))
    for b, field in zip((bqr, bqi, bz), fields):
        assert b.f == pytest.approx(field(s0, t0), abs=1e-14)
        assert b.s == pytest.approx(fd1(lambda x: field(x, t0), s0), abs=1e-7)
        assert b.t == pytest.approx(fd1(lambda x: field(s0, x), t0), abs=1e-7)
        assert b.ss == pytest.approx(fd2(lambda x: field(x, t0), s0), abs=1e-5)
        assert b.tt == pytest.approx(fd2(lambda x: field(s0, x), t0), abs=1e-5)


@pytest.mark.parametrize(("k", "alpha", "root", "theta0"), (
    (1.2 + 0.4j, 0.3, 1, 0j),
    (0.8 + 0.6j, 0.9, 0, 0.3 - 0.7j),
    (1.6 + 0.05j, 0.0, 1, 0j),
))
def test_complex_kernels_match_a_50_digit_oracle(k, alpha, root, theta0):
    # Q = A*sech(Re theta)*exp(i*Im theta) and its sigma, tau, sigma-sigma
    # and tau-tau partials by mpmath at 50 digits, against eval_complex_Q and
    # complex_bundles on the default grid's open mesh, at sampled nodes that
    # include the largest |Im theta|
    cw = make_complex_wave(k, alpha, root=root, theta0=theta0)
    sig, tau = GridSpec().axes()
    S, T = np.meshgrid(sig, tau, indexing="ij", sparse=True)
    qr, qi = eval_complex_Q(cw, S, T)
    bqr, bqi, _bz = complex_bundles(cw, S, T)
    im_theta = np.abs(cw.k.imag * S - cw.omega.imag * T + cw.theta0.imag)
    rng = np.random.default_rng(7)
    nodes = {np.unravel_index(np.argmax(im_theta), im_theta.shape), (150, 150),
             (0, 0), (0, 300), (300, 0), (300, 300),
             *zip(rng.integers(0, 301, 12).tolist(), rng.integers(0, 301, 12).tolist())}
    assert max(im_theta[n] for n in nodes) == im_theta.max()

    with mpmath.workdps(50):
        kk, ww, t0 = (mpmath.mpc(z.real, z.imag) for z in (cw.k, cw.omega, cw.theta0))
        A = 4 * (kk.real + ww.real)

        def Q(s, t):
            th = kk * s - ww * t + t0
            return A * mpmath.sech(th.real) * mpmath.expj(th.imag)

        for i, j in nodes:
            s0, t0_ = mpmath.mpf(sig[i]), mpmath.mpf(tau[j])
            exact = {
                "f": Q(s0, t0_),
                "s": mpmath.diff(lambda x: Q(x, t0_), s0),
                "t": mpmath.diff(lambda x: Q(s0, x), t0_),
                "ss": mpmath.diff(lambda x: Q(x, t0_), s0, 2),
                "tt": mpmath.diff(lambda x: Q(s0, x), t0_, 2),
            }
            tol = 1e-13 * float(A)
            assert abs(qr[i, j] - exact["f"].real) <= tol
            assert abs(qi[i, j] - exact["f"].imag) <= tol
            for name, q in exact.items():
                assert abs(getattr(bqr, name)[i, j] - q.real) <= tol, name
                assert abs(getattr(bqi, name)[i, j] - q.imag) <= tol, name
