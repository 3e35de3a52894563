"""Time integration of the coupled system and of the periodic reduced equation."""

import sys
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from relaxwave import (
    DomainError,
    MKdVBCoeffs,
    MediumParams,
    NumericalError,
    SimState19,
    SimStateMKdVB,
    compare_to_exact,
    evolve_mkdvb,
    evolve_system19,
    low_freq_coeffs,
    solve_real,
    soliton_state19,
)
from relaxwave.sim import (
    _BC_TIMES,
    _FORCING_POINTS,
    _etdrk4_coeffs,
    _fd_weights,
    _schedule,
    _sigma_stencil,
    boundary_from_wave,
)
from relaxwave.soliton import eval_uZ
from relaxwave.verify import exactness_forcing


def zero_state(n=101, lo=-10.0, hi=10.0):
    sig = np.linspace(lo, hi, n)
    z = np.zeros_like(sig)
    return SimState19(sigma=sig, u=z.copy(), ut=z.copy(), Z=z.copy(), zt=z.copy())


def forced_soliton_run(w, n, dt, T, n_snapshots=2, lo=-15.0, hi=15.0, linearized=False):
    sig = np.linspace(lo, hi, n)
    init = soliton_state19(w, sig)
    return evolve_system19(init, w.alpha, T, dt, bc=boundary_from_wave(w, lo, hi),
                           forcing=exactness_forcing(w, linearized),
                           linearized=linearized, n_snapshots=n_snapshots)


def test_zero_state_is_exact_fixed_point():
    traj = evolve_system19(zero_state(), 0.3, 0.5, 0.05, n_snapshots=2)
    assert np.all(traj.u[-1] == 0.0)
    assert np.all(traj.ut[-1] == 0.0)
    assert np.all(traj.Z[-1] == 0.0)
    assert np.all(traj.zt[-1] == 0.0)


def test_forced_run_tracks_closed_form():
    # with the exactness forcing the closed form is an exact solution, so the
    # run must follow it to pure discretization error
    w = solve_real(0.24, 0.1)
    traj = forced_soliton_run(w, n=601, dt=0.01, T=1.0, n_snapshots=6)
    errs = compare_to_exact(traj, w)
    assert errs.u_linf[0] == 0.0
    assert errs.z_linf[0] == 0.0
    assert max(errs.u_linf) < 1e-6
    assert max(errs.z_linf) < 1e-6
    assert all(e >= l for e, l in zip(errs.u_linf, errs.u_l2))


def test_time_step_convergence_is_fourth_order():
    w = solve_real(0.24, 0.1)
    # commensurate steps against a much finer reference on the same grid
    # isolate the time discretization error
    finals = {}
    for dt in (0.05, 0.025, 0.003125):
        traj = forced_soliton_run(w, n=151, dt=dt, T=0.5)
        finals[dt] = traj.u[-1]
    e_coarse = np.max(np.abs(finals[0.05] - finals[0.003125]))
    e_fine = np.max(np.abs(finals[0.025] - finals[0.003125]))
    assert 10.0 < e_coarse / e_fine < 22.0


def test_grid_convergence_is_fourth_order():
    w = solve_real(0.24, 0.1)
    errs = []
    for n in (101, 201, 401):
        traj = forced_soliton_run(w, n=n, dt=0.01, T=0.5)
        errs.append(max(compare_to_exact(traj, w).u_linf))
    assert 10.0 < errs[0] / errs[1] < 22.0
    assert 10.0 < errs[1] / errs[2] < 22.0


def test_linearized_exactness_run_converges_at_fourth_order():
    # the forcing negates the linearized residual, so the linearized run must
    # follow the closed form to pure discretization error, dt shrinking with h
    w = solve_real(0.24, 0.8)
    errs = []
    for n in (151, 301, 601):
        traj = forced_soliton_run(w, n=n, dt=0.4 * 30.0 / (n - 1), T=2.0, linearized=True)
        errs.append(max(compare_to_exact(traj, w).u_linf))
    orders = [np.log2(coarse / fine) for coarse, fine in zip(errs, errs[1:])]
    assert min(orders) >= 3.8
    assert errs[-1] < 1e-7


def test_linearized_alpha0_u_is_time_reversible():
    sig = np.linspace(-15.0, 15.0, 301)
    z = np.zeros_like(sig)
    u0 = 0.2 * np.exp(-sig ** 2)
    init = SimState19(sigma=sig, u=u0, ut=z.copy(), Z=z.copy(), zt=z.copy())
    fwd = evolve_system19(init, 0.0, 1.0, 0.02, linearized=True, n_snapshots=2)
    back = SimState19(sigma=sig, u=fwd.u[-1], ut=-fwd.ut[-1], Z=fwd.Z[-1],
                      zt=-fwd.zt[-1])
    rev = evolve_system19(back, 0.0, 1.0, 0.02, linearized=True, n_snapshots=2)
    assert np.max(np.abs(rev.u[-1] - u0)) < 1e-6
    assert np.max(np.abs(rev.ut[-1])) < 1e-6


def test_unforced_run_drifts_measurably_and_stably():
    # without forcing the closed form is not a solution; the departure is a
    # genuine O(1)-per-unit-time finding, stable under grid refinement
    w = solve_real(0.24, 0.8)
    drifts = []
    for n in (301, 601):
        sig = np.linspace(-15.0, 15.0, n)
        init = soliton_state19(w, sig)
        traj = evolve_system19(init, w.alpha, 1.0, 0.02,
                               bc=boundary_from_wave(w, -15.0, 15.0), n_snapshots=2)
        drifts.append(max(compare_to_exact(traj, w).u_linf))
    assert drifts[0] > 0.1
    assert abs(drifts[0] - drifts[1]) / drifts[1] < 0.01


def test_boundary_traces_are_imposed():
    w = solve_real(0.24, 0.1)
    bcfn = boundary_from_wave(w, -10.0, 10.0)
    sig = np.linspace(-10.0, 10.0, 61)
    init = soliton_state19(w, sig)
    traj = evolve_system19(init, w.alpha, 0.5, 0.1, bc=bcfn,
                           forcing=exactness_forcing(w), n_snapshots=6)
    for i, tau in enumerate(traj.taus):
        (uL, uR), (zL, zR) = bcfn(tau)[0]
        assert abs(traj.u[i][0] - uL) <= 1e-12
        assert abs(traj.u[i][-1] - uR) <= 1e-12
        assert abs(traj.Z[i][0] - zL) <= 1e-12
        assert abs(traj.Z[i][-1] - zR) <= 1e-12


@pytest.mark.parametrize("v,alpha,theta0", [(0.24, 0.1, 0.0), (0.24, 0.8, 0.0),
                                            (-0.6, 1.7, 0.4), (0.9, 4.5, -1.3)])
def test_boundary_rate_is_the_tau_derivative_of_the_trace(v, alpha, theta0):
    # the trace is the closed form at the two ends; the rate is its exact
    # tau-derivative, here differentiated by sympy from the formulas
    w = solve_real(v, alpha, theta0=theta0)
    lo, hi = -12.0, 9.0
    bc = boundary_from_wave(w, lo, hi)
    s, t = sp.symbols("sigma tau")
    th = w.k * s - w.omega * t + w.theta0
    u = 4 * (w.omega + w.k) ** 2 * (sp.tanh(th) + 1)
    Z = (s + t) / 2 - 2 * (w.omega + w.k) * (sp.tanh(th) + 1)
    rates = [sp.lambdify((s, t), sp.diff(f, t), "mpmath") for f in (u, Z)]
    taus = (-4.0, 0.0, 0.3, 7.5)
    for tau in taus:
        trace, rate = bc(tau)
        assert trace.shape == rate.shape == (2, 2)
        assert np.array_equal(trace, np.array(eval_uZ(w, np.array([lo, hi]), tau)))
        for i, f in enumerate(rates):
            for j, end in enumerate((lo, hi)):
                exact = float(f(end, tau))
                assert abs(rate[i, j] - exact) <= 1e-14 * max(1.0, abs(exact)), (i, j)
    # on a 1-D array of times, bc gives the stack of its scalar calls, bit
    # for bit, over a run's worth of stage times as well
    for many in (np.array(taus), np.arange(401) * 0.0125 - 2.5):
        traces, rates_at = bc(many)
        assert traces.shape == rates_at.shape == (many.size, 2, 2)
        scalar = [bc(float(t)) for t in many]
        assert np.array_equal(traces, np.stack([tr for tr, _ in scalar]))
        assert np.array_equal(rates_at, np.stack([r for _, r in scalar]))


def test_frozen_boundary_has_exactly_zero_rate():
    # bc=None holds the initial trace with a rate of exactly 0: the run is bit
    # for bit the one whose bc returns that trace and a zero rate, and the
    # boundary values and their tau-rates never move
    w = solve_real(0.24, 0.1)
    sig = np.linspace(-10.0, 10.0, 61)
    init = soliton_state19(w, sig)
    frozen = evolve_system19(init, w.alpha, 1.0, 0.1, n_snapshots=3)
    trace0 = np.array([[init.u[0], init.u[-1]], [init.Z[0], init.Z[-1]]])
    explicit = evolve_system19(init, w.alpha, 1.0, 0.1, n_snapshots=3,
                               bc=lambda tau: (trace0, np.zeros((2, 2))))
    for field in ("u", "ut", "Z", "zt"):
        snaps = getattr(frozen, field)
        assert all(np.array_equal(a, b) for a, b in zip(snaps, getattr(explicit, field)))
        start = getattr(init, field)
        assert all(a[0] == start[0] and a[-1] == start[-1] for a in snaps)


def test_boundary_is_evaluated_once_per_run_on_every_stage_time():
    # bc gets one 1-D array: tau0, then per step the midpoint tau + 0.5*dt
    # and the end tau0 + step*dt, the floats the step loop itself forms
    w = solve_real(0.24, 0.1)
    wave = boundary_from_wave(w, -10.0, 10.0)
    seen = []

    def recording(tau):
        seen.append(np.array(tau, copy=True))
        return wave(tau)

    sig = np.linspace(-10.0, 10.0, 61)
    tau0, dt, steps = 0.7, 0.1, 23
    init = soliton_state19(w, sig, tau0)
    traj = evolve_system19(init, w.alpha, steps * dt, dt, bc=recording, n_snapshots=2)
    assert len(seen) == 1
    (times,) = seen
    assert times.shape == (2 * steps + 1,)
    expected = [tau0]
    tau = tau0
    for step in range(1, steps + 1):
        expected.append(tau + 0.5 * dt)
        tau = tau0 + step * dt
        expected.append(tau)
    assert times.tolist() == expected
    assert traj.taus == (tau0, tau)


def test_badly_shaped_boundary_result_is_rejected():
    # a (2,) trace would broadcast into both rows and give u and Z the same
    # end values; it is refused, naming the shape, as are stacks of the
    # wrong length
    sig = np.linspace(-10.0, 10.0, 61)
    init = soliton_state19(solve_real(0.24, 0.1), sig)
    flat = lambda tau: (np.array([1.0, 2.0]), np.zeros(2))  # noqa: E731
    with pytest.raises(DomainError, match=r"trace has shape \(2,\)"):
        evolve_system19(init, 0.1, 0.5, 0.1, bc=flat)
    short = lambda tau: (np.zeros((3, 2, 2)), np.zeros((3, 2, 2)))  # noqa: E731
    with pytest.raises(DomainError, match=r"\(3, 2, 2\); expected \(2, 2\) or \(11, 2, 2\)"):
        evolve_system19(init, 0.1, 0.5, 0.1, bc=short)
    rate_only = lambda tau: (np.zeros((2, 2)), np.zeros((2, 2, 2)))  # noqa: E731
    with pytest.raises(DomainError, match=r"rate has shape \(2, 2, 2\)"):
        evolve_system19(init, 0.1, 0.5, 0.1, bc=rate_only)


def test_boundary_and_forcing_are_evaluated_once_per_stage_time():
    # RK4 stages run at three distinct times per step, and a step's last
    # time is the next step's first, so a run has 2*steps + 1 stage times;
    # forcing takes them in blocks, and bc once per run, all together
    w = solve_real(0.24, 0.1)
    calls = {"bc": 0, "forcing": 0}

    def counted(key, fn):
        def wrapped(*a):
            calls[key] += 1
            return fn(*a)
        return wrapped

    sig = np.linspace(-10.0, 10.0, 61)
    steps = 20
    evolve_system19(soliton_state19(w, sig), w.alpha, steps * 0.1, 0.1,
                    bc=counted("bc", boundary_from_wave(w, -10.0, 10.0)),
                    forcing=counted("forcing", exactness_forcing(w)), n_snapshots=2)
    assert calls["bc"] <= 2 * steps + 1
    assert calls["forcing"] <= 2 * steps + 1
    assert calls["bc"] > 0 and calls["forcing"] > 0
    assert calls["bc"] == 1


def test_a_long_run_calls_bc_on_blocks_and_its_memory_stays_bounded():
    # 3000 steps have 6001 stage times: bc sees them in blocks of 2048, and
    # the traced peak stays near one block's arrays, where one whole-run call
    # held every stage time's boundary data at once (about 2.4 MB here)
    seen = []

    def bc(tau):
        seen.append(tau.shape)
        zero = np.zeros((tau.size, 2, 2))
        return zero, zero

    steps, dt = 3000, 0.4
    tracemalloc.start()
    try:
        evolve_system19(zero_state(n=8, lo=0.0, hi=7.0), 0.3, steps * dt, dt, bc=bc,
                        n_snapshots=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == [(_BC_TIMES,)] * 2 + [(2 * steps + 1 - 2 * _BC_TIMES,)]
    assert peak < 512 * 1024


def stage_times(tau0, dt, steps):
    # the stage times of a run in loop order, by the step loop's own floats
    times = [tau0]
    for step in range(1, steps + 1):
        times += [times[-1] + 0.5 * dt, tau0 + step * dt]
    return times


@pytest.mark.parametrize("v,alpha,theta0", [(0.24, 0.1, 0.0), (0.24, 0.8, 0.0),
                                            (-0.6, 1.7, 0.4), (0.9, 4.5, -1.3)])
def test_exactness_forcing_on_a_column_of_times_stacks_its_per_time_calls(v, alpha, theta0):
    w = solve_real(v, alpha, theta0=theta0)
    sig = np.linspace(-15.0, 15.0, 301)
    times = np.array(stage_times(0.3, 0.04, 20))
    forcing = exactness_forcing(w)
    for block in (times[:1], times[:13], times):
        G_u, G_Z = forcing(sig, block[:, None])
        assert G_u.shape == G_Z.shape == (block.size, sig.size)
        per_time = [forcing(sig, float(t)) for t in block]
        assert np.array_equal(G_u, np.stack([g for g, _ in per_time]))
        assert np.array_equal(G_Z, np.stack([g for _, g in per_time]))


@pytest.mark.parametrize("n,steps", [(61, 23), (61, 90), (301, 40), (4500, 3)])
def test_forcing_sees_every_stage_time_once_in_blocks(n, steps):
    # forcing gets (B, 1) columns of consecutive stage times, B at most
    # max(1, P // n), every time exactly once and in loop order; the blocks
    # are full but for the last, so a run makes ceil(times / B) calls: 1,
    # 3, 7 and 7 calls here (B = 67, 67, 13 and 1)
    w = solve_real(0.24, 0.1)
    exact = exactness_forcing(w)
    seen = []

    def recording(sigma, tau):
        seen.append(np.array(tau, copy=True))
        return exact(sigma, tau)

    sig = np.linspace(-10.0, 10.0, n)
    tau0, dt = 0.7, 0.4 * (sig[1] - sig[0])
    init = soliton_state19(w, sig, tau0)
    evolve_system19(init, w.alpha, steps * dt, dt, bc=boundary_from_wave(w, -10.0, 10.0),
                    forcing=recording, n_snapshots=2)
    block = max(1, _FORCING_POINTS // n)
    expected = stage_times(tau0, dt, steps)
    assert all(t.ndim == 2 and t.shape[1] == 1 and 1 <= t.shape[0] <= block for t in seen)
    assert np.concatenate(seen)[:, 0].tolist() == expected
    assert len(seen) == -(-len(expected) // block)


def test_forcing_held_or_stacked_gives_the_same_run():
    # a (n,) result is held at every time of its block, so it runs bit for
    # bit like the (B, n) stack of the same rows
    w = solve_real(0.24, 0.1)
    sig = np.linspace(-10.0, 10.0, 61)
    init = soliton_state19(w, sig)
    g = 1e-3 * np.cos(sig)

    def held(sigma, tau):
        return g, -g

    def stacked(sigma, tau):
        return np.tile(g, (len(tau), 1)), np.tile(-g, (len(tau), 1))

    runs = [evolve_system19(init, w.alpha, 3.0, 0.1, forcing=f, n_snapshots=3)
            for f in (held, stacked, None)]
    for field in ("u", "ut", "Z", "zt"):
        a, b = (getattr(r, field) for r in runs[:2])
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(runs[0].ut[-1], runs[2].ut[-1])


def test_badly_shaped_forcing_result_is_rejected():
    # a forcing result must be (B, n) or (n,); a scalar would broadcast into
    # every node unnoticed, and a transposed or short stack is just as wrong
    sig = np.linspace(-10.0, 10.0, 61)
    init = soliton_state19(solve_real(0.24, 0.1), sig)
    zero = np.zeros(61)
    cases = [
        (lambda s, t: (0.0, zero), r"G_u has shape \(\); expected \(61,\) or \(11, 61\)"),
        (lambda s, t: (zero, zero[:60]), r"G_Z has shape \(60,\)"),
        (lambda s, t: (np.zeros((61, len(t))), zero), r"G_u has shape \(61, 11\)"),
        (lambda s, t: (zero, np.zeros((len(t) - 1, 61))), r"G_Z has shape \(10, 61\)"),
    ]
    for forcing, message in cases:
        with pytest.raises(DomainError, match=message):
            evolve_system19(init, 0.1, 0.5, 0.1, forcing=forcing)


def loop_deriv_matrix(n, h, deriv):
    # the dense stencil matrix, one entry at a time: row 1, row n-2, then the
    # central rows; rows 0 and n-1 stay zero
    D = np.zeros((n, n))

    def put(i, offsets):
        for o, c in zip(offsets, _fd_weights(offsets, deriv) / h**deriv):
            D[i, i + o] = c

    put(1, (-1, 0, 1, 2, 3, 4))
    put(n - 2, (-4, -3, -2, -1, 0, 1))
    for i in range(2, n - 2):
        put(i, (-2, -1, 0, 1, 2))
    return D


@pytest.mark.parametrize("n", [8, 61, 301])
def test_deriv_matrix_equals_the_loop_built_reference(n):
    # the stencil's matrix, read off column by column from unit vectors, is
    # the block-diagonal [D1 0; 0 D1; D2 0; 0 D2] of the dense reference,
    # and it acts on a vector as that matrix does
    h = 30.0 / (n - 1)
    derivatives = _sigma_stencil(n, h)
    D1, D2 = (loop_deriv_matrix(n, h, d) for d in (1, 2))
    zero = np.zeros((n, n))
    want = np.block([[D1, zero], [zero, D1], [D2, zero], [zero, D2]])
    got = np.column_stack([derivatives(e).reshape(-1) for e in np.eye(2 * n)])
    scale = np.max(np.abs(want))
    assert got.shape == (4 * n, 2 * n)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    y = np.random.default_rng(n).standard_normal(2 * n)
    out = derivatives(y)
    assert out.shape == (4, n)
    assert np.max(np.abs(out.reshape(-1) - want @ y)) <= 1e-12 * np.max(np.abs(want @ y))


@pytest.mark.parametrize("n", [8, 61, 301])
def test_sigma_stencil_is_exact_on_polynomials(n):
    # the central rows differentiate quartics and the one-sided rows 1 and
    # n-2 quintics to round-off; rows 0 and n-1 are exactly zero
    sigma = np.linspace(-1.3, 1.7, n)
    h = sigma[1] - sigma[0]
    derivatives = _sigma_stencil(n, h)
    rng = np.random.default_rng(n)
    for degree, rows in ((4, slice(2, n - 2)), (5, [1, n - 2])):
        p, q = (np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
                for _ in range(2))
        got = derivatives(np.concatenate([p(sigma), q(sigma)]))
        want = [p.deriv(1), q.deriv(1), p.deriv(2), q.deriv(2)]
        for row, (g, dp, d) in enumerate(zip(got, want, (1, 1, 2, 2))):
            values = (p, q)[row % 2](sigma)
            # cancellation in the weighted sum: the samples' rounding times
            # the weights' sum of magnitudes, at most 5.4/h**d
            tol = 100 * np.finfo(float).eps * np.max(np.abs(values)) / h**d
            assert np.max(np.abs(g[rows] - dp(sigma[rows]))) <= tol, (degree, row)
            assert g[0] == g[-1] == 0.0


def test_trajectory_metadata():
    traj = evolve_system19(zero_state(), 0.4, 1.0, 0.05, n_snapshots=5)
    assert len(traj.taus) == len(traj.u) == len(traj.Z) == 5
    assert traj.taus[0] == 0.0
    assert traj.taus[-1] == pytest.approx(1.0, abs=1e-12)
    assert traj.dt == 0.05
    assert traj.alpha == 0.4


def test_blowup_raises_numerical_error():
    sig = np.linspace(0.0, 1.5, 16)
    z = np.zeros_like(sig)
    init = SimState19(sigma=sig, u=z.copy(), ut=z.copy(), Z=z.copy(), zt=z.copy())

    def bomb(sigma, tau):
        return np.full_like(sigma, 1e155), np.zeros_like(sigma)

    with pytest.raises(NumericalError, match="non-finite"):
        evolve_system19(init, 0.0, 1.0, 0.05, forcing=bomb, n_snapshots=2)


def diverging_system19_run():
    # wave BCs at n = 101: non-finite at step 80 (tau = 9.6)
    w = solve_real(0.24, 0.8)
    sig = np.linspace(-15.0, 15.0, 101)
    evolve_system19(soliton_state19(w, sig), 0.8, 12.0, 0.4 * (sig[1] - sig[0]),
                    bc=boundary_from_wave(w, -15.0, 15.0), n_snapshots=2)


def diverging_mkdvb_run():
    # the quadratic term is anti-diffusive above amp = beta / (2 quad)
    x = 50.0 * np.arange(1024) / 1024
    p0 = 2.0 * np.exp(-np.square((x - 25.0) / 2.0))
    coeffs = MKdVBCoeffs(v_e=1.0, quad=1.0, cubic=1.0, beta=0.1, gamma=0.02)
    evolve_mkdvb(SimStateMKdVB(x=x, p=p0, coeffs=coeffs), 1.0, 1e-3, n_snapshots=2)


@pytest.mark.parametrize("run,message", [
    (diverging_system19_run, r"non-finite state at step 80 \(tau=9\.6\)"),
    (diverging_mkdvb_run, r"non-finite spectrum at step 11 \(t=0\.011\)"),
], ids=["system19", "mkdvb"])
def test_a_diverging_run_warns_nothing_before_its_numerical_error(run, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            run()


def test_evolve_system19_validation():
    st = zero_state()
    with pytest.raises(DomainError, match="CFL"):
        evolve_system19(st, 0.0, 1.0, st.h)
    with pytest.raises(DomainError):
        evolve_system19(st, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        evolve_system19(st, 0.0, -1.0, 0.05)
    with pytest.raises(DomainError):
        evolve_system19(st, 0.0, 1.0, 0.05, n_snapshots=1)


def test_state19_validation():
    good = np.linspace(0.0, 1.0, 11)
    z = np.zeros(11)
    with pytest.raises(DomainError, match="uniform"):
        SimState19(sigma=good ** 2, u=z, ut=z, Z=z, zt=z)
    with pytest.raises(DomainError, match="at least 8"):
        few = np.linspace(0.0, 1.0, 5)
        SimState19(sigma=few, u=few, ut=few, Z=few, zt=few)
    with pytest.raises(DomainError, match="shape"):
        SimState19(sigma=good, u=np.zeros(7), ut=z, Z=z, zt=z)
    with pytest.raises(DomainError, match="finite"):
        bad = z.copy()
        bad[3] = np.inf
        SimState19(sigma=good, u=bad, ut=z, Z=z, zt=z)


def test_compare_to_exact_rejects_wrong_trajectory():
    x = np.arange(16) * 0.5
    c = MKdVBCoeffs(v_e=1.0, quad=0.0, cubic=0.0, beta=0.1, gamma=0.0)
    traj = evolve_mkdvb(SimStateMKdVB(x=x, p=np.zeros(16), coeffs=c), 0.1, 0.05,
                        n_snapshots=2)
    with pytest.raises(DomainError):
        compare_to_exact(traj, solve_real(0.24, 0.1))


def test_mkdvb_coeffs_from_medium():
    m = MediumParams(tau=2.0, v_e=0.75, v_f=1.5, alpha_e=0.4, a_e=1.3)
    c = MKdVBCoeffs.from_medium(m)
    lf = low_freq_coeffs(m)
    assert c.v_e == m.v_e
    assert c.quad == m.alpha_e * m.v_e ** 3
    assert c.cubic == m.a_e * m.v_e ** 3
    assert c.beta == lf.beta_e
    assert c.gamma == lf.gamma_e
    with pytest.raises(DomainError):
        MKdVBCoeffs(v_e=1.0, quad=1.0, cubic=1.0, beta=-0.1, gamma=1.0)


def test_mkdvb_state_basics():
    x = np.arange(64) * 0.5
    c = MKdVBCoeffs(v_e=1.0, quad=1.0, cubic=1.0, beta=0.1, gamma=0.02)
    SimStateMKdVB(x=x, p=np.zeros(64), coeffs=c)
    with pytest.raises(DomainError):
        SimStateMKdVB(x=x, p=np.zeros(63), coeffs=c)
    with pytest.raises(DomainError):
        SimStateMKdVB(x=x, p=np.full(64, np.nan), coeffs=c)


def test_mkdvb_linear_mode_matches_symbol():
    # single Fourier mode under the linear part: exact decay rate beta*k**2
    # and phase speed v_e - gamma*k**2
    n, L = 128, 50.0
    x = np.arange(n) * (L / n)
    k0 = 2.0 * np.pi * 3.0 / L
    c = MKdVBCoeffs(v_e=0.7, quad=0.0, cubic=0.0, beta=0.05, gamma=0.03)
    st = SimStateMKdVB(x=x, p=0.25 * np.cos(k0 * x), coeffs=c)
    traj = evolve_mkdvb(st, 1.0, 1e-3, n_snapshots=2)
    exact = 0.25 * np.exp(-c.beta * k0 ** 2) * np.cos(
        k0 * x - (c.v_e * k0 - c.gamma * k0 ** 3))
    assert np.max(np.abs(traj.p[-1] - exact)) < 1e-11


def test_mkdvb_constant_state_is_exact():
    n = 128
    x = np.arange(n) * 0.4
    c = MKdVBCoeffs(v_e=0.5, quad=0.8, cubic=0.6, beta=0.02, gamma=0.05)
    traj = evolve_mkdvb(SimStateMKdVB(x=x, p=np.full(n, 0.37), coeffs=c), 0.5, 1e-2,
                        n_snapshots=2)
    assert np.max(np.abs(traj.p[-1] - 0.37)) == 0.0


def test_mkdvb_mean_is_conserved():
    # the step always forms both products, so the pure-quadratic and
    # pure-cubic sets are checked too
    n = 64
    x = np.arange(n) * 0.5
    for quad, cubic in ((0.8, 0.6), (0.8, 0.0), (0.0, 0.6)):
        c = MKdVBCoeffs(v_e=0.5, quad=quad, cubic=cubic, beta=0.02, gamma=0.05)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p0 = 0.1 * rng.standard_normal(n)
            traj = evolve_mkdvb(SimStateMKdVB(x=x, p=p0, coeffs=c), 1.0, 2e-3,
                                n_snapshots=3)
            assert abs(traj.means[-1] - traj.means[0]) <= 1e-10


def test_mkdvb_energy_decays_without_quadratic_term():
    n, L = 128, 50.0
    x = np.arange(n) * (L / n)
    c = MKdVBCoeffs(v_e=0.5, quad=0.0, cubic=0.6, beta=0.05, gamma=0.02)
    p0 = 0.3 * np.sin(2.0 * np.pi * 2.0 * x / L) + 0.1 * np.cos(2.0 * np.pi * 5.0 * x / L)
    traj = evolve_mkdvb(SimStateMKdVB(x=x, p=p0, coeffs=c), 1.0, 2e-3, n_snapshots=11)
    assert np.all(np.diff(traj.rms) <= 1e-12)
    assert traj.rms[-1] < traj.rms[0]


def test_mkdvb_conservative_limit_preserves_invariants():
    n, L = 128, 50.0
    x = np.arange(n) * (L / n)
    c = MKdVBCoeffs(v_e=0.7, quad=0.0, cubic=0.9, beta=0.0, gamma=0.04)
    p0 = 0.3 * np.sin(2.0 * np.pi * 2.0 * x / L) + 0.1 * np.cos(2.0 * np.pi * 5.0 * x / L)
    traj = evolve_mkdvb(SimStateMKdVB(x=x, p=p0, coeffs=c), 1.0, 1e-4, n_snapshots=3)
    assert abs(traj.means[-1] - traj.means[0]) <= 1e-8
    assert abs(traj.rms[-1] - traj.rms[0]) <= 1e-8


def test_mkdvb_time_step_convergence():
    n, L = 128, 50.0
    x = np.arange(n) * (L / n)
    c = MKdVBCoeffs(v_e=0.5, quad=0.8, cubic=0.6, beta=0.02, gamma=0.05)
    p0 = 0.4 * np.exp(-((x - 25.0) / 3.0) ** 2)
    finals = {}
    for dt in (0.02, 0.01, 0.00125):
        traj = evolve_mkdvb(SimStateMKdVB(x=x, p=p0, coeffs=c), 0.5, dt, n_snapshots=2)
        finals[dt] = traj.p[-1]
    e_coarse = np.max(np.abs(finals[0.02] - finals[0.00125]))
    e_fine = np.max(np.abs(finals[0.01] - finals[0.00125]))
    assert 10.0 < e_coarse / e_fine < 22.0


def test_evolve_mkdvb_validation():
    x = np.arange(16) * 0.5
    c = MKdVBCoeffs(v_e=1.0, quad=0.0, cubic=0.0, beta=0.1, gamma=0.0)
    st = SimStateMKdVB(x=x, p=np.zeros(16), coeffs=c)
    with pytest.raises(DomainError):
        evolve_mkdvb(st, 1.0, 0.0)
    with pytest.raises(DomainError):
        evolve_mkdvb(st, -1.0, 0.1)
    with pytest.raises(DomainError):
        evolve_mkdvb(st, 1.0, 0.1, n_snapshots=1)


def reference_mkdvb(init, T, dt, n_snapshots):
    """ETDRK4 with a new array per operation and a masked inverse transform (reference)."""
    steps, snap_at = _schedule(T, dt, n_snapshots)
    c, n = init.coeffs, init.x.size
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=float(init.x[1] - init.x[0]))
    L = -1j * c.v_e * k - c.beta * k * k + 1j * c.gamma * k**3
    E, E2, Q, f1, f2, f3 = _etdrk4_coeffs(L.astype(complex), dt)
    mask = (np.arange(k.size) <= n // 3).astype(float)
    sym_quad = c.quad * (k * k) * mask
    sym_cubic = -1j * c.cubic * k * mask

    def nonlinear(vhat):
        pd = np.fft.irfft(mask * vhat, n=n)
        fp = np.fft.rfft(np.array([pd * pd, pd * pd * pd]))
        return sym_quad * fp[0] + sym_cubic * fp[1]

    v = np.fft.rfft(init.p)
    fields = [np.fft.irfft(v, n=n)] if 0 in snap_at else []
    for step in range(1, steps + 1):
        Nv = nonlinear(v)
        E2v = E2 * v
        a = E2v + Q * Nv
        Na = nonlinear(a)
        b = E2v + Q * Na
        Nb = nonlinear(b)
        cc = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = nonlinear(cc)
        v = E * v + Nv * f1 + 2.0 * (Na + Nb) * f2 + Nc * f3
        if step in snap_at:
            fields.append(np.fft.irfft(v, n=n))
    return fields


@pytest.mark.parametrize("n", [64, 256, 301, 1000, 1024])
def test_mkdvb_matches_the_allocating_reference_loop_bit_for_bit(n):
    x = np.arange(n) * (50.0 / n)
    c = MKdVBCoeffs(v_e=0.9, quad=0.8, cubic=0.6, beta=0.15, gamma=0.02)
    rng = np.random.default_rng(n)
    p0 = 0.03 * np.exp(-((x - 25.0) / 3.0) ** 2) + 0.005 * rng.standard_normal(n)
    init = SimStateMKdVB(x=x, p=p0, coeffs=c)
    traj = evolve_mkdvb(init, 0.3, 0.002, n_snapshots=4)
    ref = reference_mkdvb(init, 0.3, 0.002, 4)
    assert len(ref) == len(traj.p) == 4
    assert all(np.array_equal(a, b) for a, b in zip(traj.p, ref))


def etdrk4_coeffs_reference(L, dt):
    """The contour means of ``_etdrk4_coeffs`` over all of ``L`` at once, one
    new array per operation (reference).  Called on one value at a time, its
    arrays are far below NumPy's temporary-elision threshold, so every
    product keeps the operand order written here."""
    E = np.exp(dt * L)
    E2 = np.exp(0.5 * dt * L)
    r = np.exp(1j * 2.0 * np.pi * (np.arange(32) + 0.5) / 32)
    LR = dt * L[:, None] + r[None, :]
    eLR = np.exp(LR)
    LR3 = LR**3
    Q = dt * np.mean((np.exp(0.5 * LR) - 1.0) / LR, axis=1)
    f1 = dt * np.mean((-4.0 - LR + eLR * (4.0 - 3.0 * LR + LR * LR)) / LR3, axis=1)
    f2 = dt * np.mean((2.0 + LR + eLR * (-2.0 + LR)) / LR3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * LR - LR * LR + eLR * (4.0 - LR)) / LR3, axis=1)
    return E, E2, Q, f1, f2, f3


def mkdvb_symbol(n, v_e=1.0, beta=0.1, gamma=0.02, length=50.0):
    """The linear symbol ``evolve_mkdvb`` builds on an ``n``-point grid of ``length``."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    return (-1j * v_e * k - beta * k * k + 1j * gamma * k**3).astype(complex)


def phi_coeffs_exact(z, dt):
    """``Q, f1, f2, f3`` at ``z = dt*L`` from the closed-form phi-expressions
    of Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005), at 40 digits; at
    ``z = 0`` their limits ``dt/2`` and ``dt/6``."""
    with mp.workdps(40):
        dt = mp.mpf(dt)
        if z == 0:
            return dt / 2, dt / 6, dt / 6, dt / 6
        z = mp.mpc(z.real, z.imag)
        ez = mp.exp(z)
        return (dt * (mp.exp(z / 2) - 1) / z,
                dt * (-4 - z + ez * (4 - 3 * z + z * z)) / z**3,
                dt * (2 + z + ez * (z - 2)) / z**3,
                dt * (-4 - 3 * z - z * z + ez * (4 - z)) / z**3)


# Worst relative error measured over both (symbol, dt) sets below, rounded up:
# 1.8e-15 at n <= 256, and 3.3e-12 (f1, dt = 0.002) at n = 1024, where some
# dt*L lie near the unit circle, so that contour points pass close to 0 and
# the f-expressions cancel there.
PHI_RTOL = {64: 2e-15, 256: 2e-15, 1024: 4e-12}


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_etdrk4_coeffs_match_the_phi_functions_at_40_digits(n):
    for L, dt in ((mkdvb_symbol(n), 1e-3),
                  (mkdvb_symbol(n, v_e=0.9, beta=0.15), 2e-3)):
        got = _etdrk4_coeffs(L, dt)
        assert np.array_equal(got[0], np.exp(dt * L))
        assert np.array_equal(got[1], np.exp(0.5 * dt * L))
        worst = 0.0
        for j, z in enumerate(dt * L):
            for c, exact in enumerate(phi_coeffs_exact(z, dt)):
                value = mp.mpc(got[2 + c][j].real, got[2 + c][j].imag)
                worst = max(worst, float(abs(value - exact) / abs(exact)))
        assert worst <= PHI_RTOL[n], (n, dt, worst)


@pytest.mark.parametrize("n", [64, 256, 1000, 1024, 4096])
def test_etdrk4_coeffs_equal_one_value_at_a_time_bit_for_bit(n):
    # At n >= 1024 the whole-array reference crosses the elision threshold
    # and rounds differently; the blocked coefficients must not.
    L = mkdvb_symbol(n, v_e=0.9, beta=0.15)
    got = _etdrk4_coeffs(L, 2e-3)
    rows = [etdrk4_coeffs_reference(L[j:j + 1], 2e-3) for j in range(L.size)]
    for c, a in enumerate(got):
        assert np.array_equal(a, np.concatenate([r[c] for r in rows])), c


def test_etdrk4_coeffs_memory_is_bounded_by_the_block():
    L = mkdvb_symbol(4096)
    tracemalloc.start()
    try:
        _etdrk4_coeffs(L, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # six (2049,) complex results take 0.2 MB; the whole-array form peaked at 6.4 MB
    assert peak <= 1_000_000, peak


@pytest.mark.parametrize("n", [256, 1024])
def test_mkdvb_without_the_private_pocketfft_module_gives_the_same_run(monkeypatch, n):
    x = np.arange(n) * (50.0 / n)
    c = MKdVBCoeffs(v_e=0.9, quad=0.8, cubic=0.6, beta=0.15, gamma=0.02)
    p0 = 0.03 * np.exp(-((x - 25.0) / 3.0) ** 2) + 0.005 * np.random.default_rng(n).standard_normal(n)
    init = SimStateMKdVB(x=x, p=p0, coeffs=c)
    with_module = evolve_mkdvb(init, 0.1, 0.002, n_snapshots=3)

    monkeypatch.delattr(np.fft, "_pocketfft_umath")
    monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", None)
    calls = []
    public_rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **kw: calls.append(1) or public_rfft(*a, **kw))
    without = evolve_mkdvb(init, 0.1, 0.002, n_snapshots=3)
    assert len(calls) == 1 + 4 * 50  # the initial transform, then four per step
    assert all(np.array_equal(a, b) for a, b in zip(with_module.p, without.p))
    assert with_module.means == without.means and with_module.rms == without.rms
