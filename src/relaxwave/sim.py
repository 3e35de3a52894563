"""Time integration of the coupled characteristic system and of the
quadratic-cubic dispersive-dissipative wave equation.

The coupled system is advanced in the characteristic plane as a first-order
reduction in ``tau``: ``u_tau = p`` and ``Z_tau = q``, with ``p_tau`` and
``q_tau`` the accelerations of :func:`relaxwave.soliton.coupled_system` plus
an optional forcing, and time-dependent Dirichlet data for ``u`` and ``Z``
at both ends of the ``sigma`` interval; :func:`evolve_system19` says how
it calls the callables that supply both.  The state is one ``(4, n)`` array
with rows ``(u, Z, u_tau, Z_tau)``, so that ``[u; Z]`` is one contiguous
vector whose order-4 stencil gives ``[u_s; Z_s; u_ss; Z_ss]``.
Characteristic coordinates are used deliberately: loop profiles are
multivalued in the physical frame, so only this chart can represent their
dynamics.  Periodic boundaries are invalid here because the kink-asymptotic
``u`` has unequal left/right limits.

The quadratic-cubic equation

    p_t = -v_e*p_x - quad*(p**2)_xx - cubic*(p**3)_x + beta*p_xx - gamma*p_xxx

is advanced pseudospectrally on a periodic domain with exponential time
differencing for the stiff linear part and 2/3-rule dealiasing for the
products.  The rule keeps the modes up to ``n/3``, which makes the quadratic
product alias-free but not the cubic one: the modes of ``p**3`` in
``[2n/3, n]`` fold onto the retained modes ``[0, n/3]``.  All its terms are
exact ``x``-derivatives, so the spatial mean is conserved to round-off; the
integrator preserves this exactly because the zero mode has zero linear
symbol and zero nonlinear tendency.

Fixed-step schemes only: reports must be reproducible bit for bit.

This module is a pure integrator and imports nothing from
:mod:`relaxwave.verify`: forcings come in as callables, such as
:func:`relaxwave.verify.exactness_forcing`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .dispersion import RealWave
from .errors import DomainError, NumericalError
from .medium import MediumParams, low_freq_coeffs
from .soliton import coupled_system, eval_uZ, real_bundles

_BoundaryFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
# Grid points per forcing call: a call takes max(1, _FORCING_POINTS // n) stage times.
_FORCING_POINTS = 4096
# Stage times per bc call.
_BC_TIMES = 2048
# Symbol values per block of the ETDRK4 contour means (see _etdrk4_coeffs).
_ETD_ROWS = 128


def _uniform_spacing(x: np.ndarray, label: str) -> float:
    if x.ndim != 1 or x.size < 8:
        raise DomainError(f"{label} grid must be 1-D with at least 8 points")
    d = np.diff(x)
    h = float(d[0])
    if h <= 0.0 or not np.allclose(d, h, rtol=1e-12, atol=1e-12):
        raise DomainError(f"{label} grid must be uniform and increasing")
    return h


@dataclass(frozen=True)
class SimState19:
    """State of the coupled characteristic system at one instant."""

    sigma: np.ndarray
    u: np.ndarray
    ut: np.ndarray
    Z: np.ndarray
    zt: np.ndarray
    tau: float = 0.0

    def __post_init__(self) -> None:
        _uniform_spacing(np.asarray(self.sigma, dtype=float), "sigma")
        for name in ("u", "ut", "Z", "zt"):
            a = getattr(self, name)
            if np.asarray(a).shape != self.sigma.shape:
                raise DomainError(f"field {name} must match the sigma grid shape")
            if not np.all(np.isfinite(a)):
                raise DomainError(f"field {name} must be finite")

    @property
    def h(self) -> float:
        return float(self.sigma[1] - self.sigma[0])


@dataclass(frozen=True)
class Trajectory19:
    """Snapshots of a coupled-system run at evenly spaced output times."""

    sigma: np.ndarray
    taus: tuple[float, ...]
    u: tuple[np.ndarray, ...]
    ut: tuple[np.ndarray, ...]
    Z: tuple[np.ndarray, ...]
    zt: tuple[np.ndarray, ...]
    dt: float
    alpha: float


def soliton_state19(w: RealWave, sigma: np.ndarray, tau: float = 0.0) -> SimState19:
    """Initial state sampled from the candidate closed-form soliton."""
    sigma = np.asarray(sigma, dtype=float)
    bu, bz = real_bundles(w, sigma, np.full_like(sigma, tau))
    return SimState19(sigma=sigma, u=np.asarray(bu.f, dtype=float),
                      ut=np.asarray(bu.t, dtype=float),
                      Z=np.asarray(bz.f, dtype=float),
                      zt=np.asarray(bz.t, dtype=float), tau=tau)


def boundary_from_wave(w: RealWave, sigma_min: float, sigma_max: float) -> _BoundaryFn:
    """Dirichlet trace of the closed-form fields at the two interval ends.

    ``bc(tau)`` returns ``(trace, rate)``: the values of ``u`` and ``Z`` at
    the two ends and their exact tau-derivatives ``u_tau = -omega*A*sech**2``
    (``A = 4*(omega+k)**2``) and ``Z_tau = 1/2 + 2*(omega+k)*omega*sech**2``,
    each a ``(..., 2, 2)`` array over the shape of ``tau`` (``(2, 2)`` for a
    scalar) with rows ``(u, Z)`` and columns ``(left, right)``, both from one
    :func:`relaxwave.soliton.real_bundles` call.  A 1-D ``tau`` gives the
    stack of the scalar calls, bit for bit.
    """

    ends = np.array([sigma_min, sigma_max], dtype=float)

    def bc(tau):
        bu, bz = real_bundles(w, ends, np.asarray(tau, dtype=float)[..., None])
        return np.stack([bu.f, bz.f], axis=-2), np.stack([bu.t, bz.t], axis=-2)

    return bc


def _fd_weights(offsets: Sequence[int], deriv: int) -> np.ndarray:
    """Stencil weights on integer offsets for the requested derivative."""
    p = len(offsets)
    V = np.vander(np.asarray(offsets, dtype=float), p, increasing=True).T
    rhs = np.zeros(p)
    rhs[deriv] = math.factorial(deriv)
    return np.linalg.solve(V, rhs)


def _sigma_stencil(n: int, h: float) -> Callable[[np.ndarray], np.ndarray]:
    """The order-4 sigma-derivatives of ``[u; Z]`` on an ``n``-point grid.

    The returned function maps the flat ``2n``-vector ``[u; Z]`` to the
    ``(4, n)`` array ``[u_s; Z_s; u_ss; Z_ss]``.  Row 1 of each field takes
    the offsets -1..4, row n-2 the offsets -4..1 and every other row the
    central -2..2; rows 0 and n-1 are zero, since the boundary values are
    prescribed, not evolved.
    """
    central = [_fd_weights(range(-2, 3), d) / h**d for d in (1, 2)]
    # One correlation per derivative runs over the whole vector, across the
    # seam of the two fields; the nodes 0, 1, n-2 and n-1 of each field are
    # then rewritten as one product of ``ends`` with the six values at
    # either end of each field.
    ends = np.zeros((2, 2, 4, 2, 2, 6))  # (deriv, field, node; field, end, offset)
    for d in (1, 2):
        for f in (0, 1):
            ends[d - 1, f, 1, f, 0] = _fd_weights(range(-1, 5), d) / h**d
            ends[d - 1, f, 2, f, 1] = _fd_weights(range(-4, 2), d) / h**d
    ends = ends.reshape(16, 24)
    windows = (np.array([[0], [n]]) + np.r_[0:6, n - 6:n]).ravel()
    rows = (np.arange(4)[:, None] * n + [0, 1, n - 2, n - 1]).ravel()

    def derivatives(y: np.ndarray) -> np.ndarray:
        out = np.empty((2, 2 * n))
        out[0, 2:-2] = np.correlate(y, central[0], "valid")
        out[1, 2:-2] = np.correlate(y, central[1], "valid")
        out.put(rows, ends @ y[windows])
        return out.reshape(4, n)

    return derivatives


def _schedule(T: float, dt: float, n_snapshots: int) -> tuple[int, list[int]]:
    """Validated step count of a run over ``T`` and the steps that take snapshots."""
    if not (0.0 < dt < math.inf):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if not (0.0 <= T < math.inf):
        raise DomainError(f"T must be nonnegative and finite, got {T}")
    if n_snapshots < 2:
        raise DomainError("need at least 2 snapshots")
    steps = max(1, int(round(T / dt))) if T > 0.0 else 0
    return steps, sorted({round(i * steps / (n_snapshots - 1)) for i in range(n_snapshots)})


def _stage_times(tau0: float, dt: float, steps: int) -> Iterator[float]:
    """Every stage time of a run in loop order, by the step loop's own float
    expressions: ``tau0``, then each step's midpoint and end.  k2 and k3
    share the midpoint, and k4's time is the next step's k1 time."""
    tau = tau0
    yield tau
    for step in range(1, steps + 1):
        yield tau + 0.5 * dt
        tau = tau0 + step * dt
        yield tau


def _feed(fn: Callable, times: Iterator[float], block: int, names: Sequence[str],
          shape: tuple[int, ...]):
    """The results of ``fn`` at each of ``times`` in turn, from one call per
    block of up to ``block`` consecutive times.

    ``fn`` takes the 1-D block and returns one array per name, each either
    of ``shape``, held over the block, or a ``(len(block), *shape)`` stack.
    """
    while (tau := np.fromiter(itertools.islice(times, block), float)).size:
        rows = []
        for name, a in zip(names, fn(tau)):
            a = np.asarray(a, dtype=float)
            stack = (tau.size, *shape)
            if a.shape not in (shape, stack):
                raise DomainError(f"{name} has shape {a.shape}; expected {shape} or {stack}")
            rows.append(np.broadcast_to(a, stack))
        yield from zip(*rows)


def evolve_system19(init: SimState19, alpha: float, T: float, dt: float,
                    bc: _BoundaryFn | None = None,
                    forcing: Callable | None = None, linearized: bool = False,
                    n_snapshots: int = 11) -> Trajectory19:
    """Advance the coupled system by classical 4th-order time stepping.

    ``bc(tau)`` must return ``(trace, rate)``: the boundary values of ``u``
    and ``Z`` and their exact tau-derivatives, with rows ``(u, Z)`` and
    columns ``(left, right)``, as :func:`boundary_from_wave` gives them.
    ``tau`` is a 1-D block of up to 2048 consecutive stage times in loop
    order, so a run of up to 1023 steps makes one call, and each result
    must be either a ``(len(tau), 2, 2)`` stack or one ``(2, 2)`` array held
    at every time of the block.  When ``bc`` is omitted, the
    initial boundary values are held fixed and their rate is exactly 0.

    ``forcing(sigma, tau)`` may supply ``(G_u, G_Z)`` arrays added to the two
    acceleration equations.  ``tau`` is a ``(B, 1)`` column of consecutive
    stage times in loop order, with ``B`` at most ``max(1, 4096 // n)`` on an
    ``n``-point grid, and each of ``G_u``, ``G_Z`` must be a ``(B, n)`` stack
    (row ``b`` at ``tau[b, 0]``) or one ``(n,)`` array held at every time;
    every stage time is passed exactly once.  The accelerations are those of
    :func:`relaxwave.soliton.coupled_system`, with its ``linearized``.

    ``bc`` and ``forcing`` must be pure functions of ``tau`` (``forcing``
    also of the fixed ``sigma`` grid), shared by the stages at one time; the
    trace at a step's end time is also the boundary value imposed after the
    step.  The stepped state is one ``(4, n)`` array with rows
    ``(u, Z, u_tau, Z_tau)``; the trajectory's fields are its rows.

    Raises
    ------
    DomainError
        If the time step violates ``dt <= 0.5*h`` (unit characteristic
        speed), or if ``bc`` or ``forcing`` returns arrays of another shape.
    NumericalError
        If a non-finite value appears; the message carries the step index.
    """
    h = init.h
    # a nonpositive or NaN dt passes this check and is rejected by _schedule
    if dt > 0.5 * h + 1e-15:
        raise DomainError(f"CFL violation: dt={dt} exceeds 0.5*h={0.5 * h}")
    steps, snap_at = _schedule(T, dt, n_snapshots)

    sigma = np.asarray(init.sigma, dtype=float)
    n = sigma.size
    derivatives = _sigma_stencil(n, h)
    ends = np.s_[::n - 1]  # the columns 0 and n-1, as a view

    tau0 = float(init.tau)
    tau = tau0
    # Rows (u, Z, u_tau, Z_tau): Y[:2] is one contiguous 2n-vector [u; Z].
    Y = np.array([init.u, init.Z, init.ut, init.zt], dtype=float)
    if bc is None:
        frozen = (Y[:2, ends].copy(), np.zeros((2, 2)))
        bc = lambda tau: frozen  # noqa: E731

    boundary = _feed(bc, _stage_times(tau0, dt, steps), _BC_TIMES,
                     ("bc trace", "bc rate"), (2, 2))
    forces = (itertools.repeat(None) if forcing is None
              else _feed(lambda tau: forcing(sigma, tau[:, None]),
                         _stage_times(tau0, dt, steps), max(1, _FORCING_POINTS // n),
                         ("forcing G_u", "forcing G_Z"), (n,)))

    def stage_terms():
        # Everything of the right-hand side that depends on tau alone: the
        # boundary trace with its rate, and the forcing.  Each stage time is
        # asked for once, in increasing order.
        return (*next(boundary), next(forces))

    def rhs(Y: np.ndarray, terms) -> np.ndarray:
        # Y holds the rows (u, Z, u_tau, Z_tau); K holds their tau-rates.
        _trace, rate, G = terms
        u, _, ut, zt = Y
        D1U, D1W, D2U, D2W = derivatives(Y[:2].reshape(-1))
        K = np.empty_like(Y)
        K[0] = ut
        K[1] = zt
        phi = None if linearized else D1W + zt  # the linearized system has no phi
        K[2], K[3] = coupled_system(u, D1U + ut, phi, D2U, D2W, alpha, linearized=linearized)
        if G is not None:
            K[2] += G[0]
            K[3] += G[1]
        # Boundary values evolve by the known rate of the imposed data; the
        # accelerations there are not used (stencil rows are zero).
        K[:2, ends] = rate
        K[2:, ends] = 0.0
        return K

    terms = stage_terms()
    Y[:2, ends] = terms[0]

    taus: list[float] = []
    snaps: list[np.ndarray] = []

    def snapshot() -> None:
        taus.append(tau)
        snaps.append(Y.copy())

    if 0 in snap_at:
        snapshot()
    # A diverging run overflows before the finiteness check sees it; the
    # NumericalError is its one report.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            mid = stage_terms()
            nxt = stage_terms()
            k1 = rhs(Y, terms)
            k2 = rhs(Y + 0.5 * dt * k1, mid)
            k3 = rhs(Y + 0.5 * dt * k2, mid)
            k4 = rhs(Y + dt * k3, nxt)
            Y = Y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tau, terms = tau0 + step * dt, nxt
            Y[:2, ends] = terms[0]
            if not np.isfinite(Y).all():
                raise NumericalError(f"non-finite state at step {step} (tau={tau:.6g})")
            if step in snap_at:
                snapshot()

    u, Z, ut, zt = (tuple(s[i] for s in snaps) for i in range(4))
    return Trajectory19(sigma=sigma, taus=tuple(taus), u=u, ut=ut, Z=Z, zt=zt,
                        dt=dt, alpha=alpha)


@dataclass(frozen=True)
class ErrorsVsTime:
    """Distance between a simulated trajectory and the closed-form fields."""

    taus: tuple[float, ...]
    u_linf: tuple[float, ...]
    u_l2: tuple[float, ...]
    z_linf: tuple[float, ...]
    z_l2: tuple[float, ...]


def compare_to_exact(traj: Trajectory19, w: RealWave) -> ErrorsVsTime:
    """Per-snapshot norms of (simulated - closed form) for ``u`` and ``Z``."""
    if not isinstance(traj, Trajectory19):
        raise DomainError("compare_to_exact needs a coupled-system trajectory")
    u_linf, u_l2, z_linf, z_l2 = [], [], [], []
    for tau, usim, zsim in zip(traj.taus, traj.u, traj.Z):
        ue, ze = eval_uZ(w, traj.sigma, np.full_like(traj.sigma, tau))
        du = usim - ue
        dz = zsim - ze
        u_linf.append(float(np.max(np.abs(du))))
        u_l2.append(float(np.sqrt(np.mean(du * du))))
        z_linf.append(float(np.max(np.abs(dz))))
        z_l2.append(float(np.sqrt(np.mean(dz * dz))))
    return ErrorsVsTime(taus=traj.taus, u_linf=tuple(u_linf), u_l2=tuple(u_l2),
                        z_linf=tuple(z_linf), z_l2=tuple(z_l2))


# ---------------------------------------------------------------------------
# Periodic quadratic-cubic equation, exponential time differencing.

@dataclass(frozen=True)
class MKdVBCoeffs:
    """Coefficients of the quadratic-cubic dispersive-dissipative equation.

    ``quad`` and ``cubic`` are the premultiplied combinations entering the
    equation (low-frequency speed cubed times the respective nonlinearity
    coefficients); ``beta`` and ``gamma`` are the relaxation-induced
    diffusion and dispersion rates.
    """

    v_e: float
    quad: float
    cubic: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("v_e", "quad", "cubic", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"coefficient {name} must be finite")
        if self.beta < 0.0:
            raise DomainError("beta must be nonnegative (diffusion rate)")

    @classmethod
    def from_medium(cls, m: MediumParams) -> "MKdVBCoeffs":
        lf = low_freq_coeffs(m)
        ve3 = m.v_e**3
        return cls(v_e=m.v_e, quad=m.alpha_e * ve3, cubic=m.a_e * ve3,
                   beta=lf.beta_e, gamma=lf.gamma_e)


@dataclass(frozen=True)
class SimStateMKdVB:
    """Periodic-domain state of the quadratic-cubic equation."""

    x: np.ndarray
    p: np.ndarray
    coeffs: MKdVBCoeffs
    t: float = 0.0

    def __post_init__(self) -> None:
        _uniform_spacing(np.asarray(self.x, dtype=float), "x")
        if np.asarray(self.p).shape != self.x.shape:
            raise DomainError("field p must match the x grid shape")
        if not np.all(np.isfinite(self.p)):
            raise DomainError("field p must be finite")


@dataclass(frozen=True)
class TrajectoryMKdVB:
    """Snapshots of a periodic run with per-snapshot mean and RMS."""

    x: np.ndarray
    ts: tuple[float, ...]
    p: tuple[np.ndarray, ...]
    means: tuple[float, ...]
    rms: tuple[float, ...]
    dt: float
    coeffs: MKdVBCoeffs


def _etdrk4_coeffs(L: np.ndarray, dt: float):
    """Exponential time-differencing coefficients by contour averaging.

    The phi-functions are evaluated as means over 32 points of a unit circle
    around each ``dt*L`` value, which stays accurate when ``dt*L`` is near
    zero; the symbol is complex (odd dispersion), so everything stays complex.

    The means are taken over blocks of ``_ETD_ROWS`` values.  A block's
    ``(_ETD_ROWS, 32)`` complex temporaries (64 KiB) stay below NumPy's
    256 KiB temporary-elision threshold, and the products by ``eLR`` are
    explicit, so every value is computed by the same operations in the same
    operand order, whatever the size of ``L``: the result is that of one
    call per value.
    """
    E = np.exp(dt * L)
    E2 = np.exp(0.5 * dt * L)
    theta = 2.0 * np.pi * (np.arange(32) + 0.5) / 32
    r = np.exp(1j * theta)
    coeffs = np.empty((4, L.size), dtype=complex)
    for i in range(0, L.size, _ETD_ROWS):
        Q, f1, f2, f3 = coeffs[:, i:i + _ETD_ROWS]
        LR = dt * L[i:i + _ETD_ROWS, None] + r[None, :]
        eLR = np.exp(LR)
        LR3 = LR**3
        np.mean((np.exp(0.5 * LR) - 1.0) / LR, axis=1, out=Q)
        np.mean((-4.0 - LR + np.multiply(eLR, 4.0 - 3.0 * LR + LR * LR)) / LR3,
                axis=1, out=f1)
        np.mean((2.0 + LR + np.multiply(eLR, -2.0 + LR)) / LR3, axis=1, out=f2)
        np.mean((-4.0 - 3.0 * LR - LR * LR + np.multiply(eLR, 4.0 - LR)) / LR3,
                axis=1, out=f3)
    np.multiply(dt, coeffs, out=coeffs)
    return (E, E2, *coeffs)


def _real_transforms(n: int):
    """The gufuncs behind ``np.fft.irfft`` and ``np.fft.rfft`` for ``n`` points.

    They are private to NumPy and are called without the Python wrappers,
    which cost about as much as an n = 256 transform: ``irfft(a, 1/n,
    out=...)`` and ``rfft(a, 1.0, out=...)`` over the last axis, the factors
    being the ones the wrappers' default norm passes.  Where NumPy has no
    such gufuncs, the public functions stand in with the same signature and
    make the same calls.  Looked up per run, not at import, so that
    importing the package loads no numpy.fft.
    """
    try:
        from numpy.fft import _pocketfft_umath as pfu

        return pfu.irfft, (pfu.rfft_n_even if n % 2 == 0 else pfu.rfft_n_odd)
    except (ImportError, AttributeError):
        return (lambda a, _fct, out: np.fft.irfft(a, n=n, out=out),
                lambda a, _fct, out: np.fft.rfft(a, out=out))


def evolve_mkdvb(init: SimStateMKdVB, T: float, dt: float,
                 n_snapshots: int = 11) -> TrajectoryMKdVB:
    """Advance the periodic quadratic-cubic equation pseudospectrally.

    The quadratic term is formed as a physical-space product and twice
    differentiated in transform space; products are 2/3-rule dealiased.
    The spatial mean is conserved exactly: the zero mode has zero linear
    symbol and both nonlinear terms carry a wavenumber factor.

    Raises
    ------
    NumericalError
        On non-finite values (blow-up), with the step index.
    """
    steps, snap_at = _schedule(T, dt, n_snapshots)
    c = init.coeffs
    n = init.x.size
    dx = float(init.x[1] - init.x[0])
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    L = -1j * c.v_e * k - c.beta * k * k + 1j * c.gamma * k**3
    E, E2, Q, f1, f2, f3 = _etdrk4_coeffs(L.astype(complex), dt)
    m = n // 3 + 1  # modes kept by the 2/3 rule
    mask = (np.arange(k.size) < m).astype(float)
    # Dealiased transform-space factors of the quadratic and cubic terms;
    # both complex, the type every product with a spectrum casts them to.
    sym_quad = (c.quad * (k * k) * mask).astype(complex)
    sym_cubic = -1j * c.cubic * k * mask
    irfft, rfft = _real_transforms(n)
    inv_n = 1 / n
    # Buffers of ``nonlinear`` alone; the transforms write into them.
    pd = np.empty(n)
    powers = np.empty((2, n))
    square, cube = powers
    fp = np.empty((2, k.size), dtype=complex)
    f_square, f_cube = fp
    # Stage buffers: every stage combination below writes into one of these,
    # in the operand order of the textbook ETDRK4 formulas; ``tmp`` is the
    # step loop's scratch, which ``nonlinear`` never touches.
    Nv, Na, Nb, Nc, a, b, cc, E2v, tmp = np.empty((9, k.size), dtype=complex)

    def nonlinear(vhat: np.ndarray, out: np.ndarray) -> None:
        # irfft zero-pads the retained modes: the same floats as mask*vhat
        irfft(vhat[:m], inv_n, out=pd)
        np.multiply(pd, pd, out=square)
        np.multiply(square, pd, out=cube)
        rfft(powers, 1.0, out=fp)
        np.multiply(sym_quad, f_square, out=out)
        np.multiply(sym_cubic, f_cube, out=f_cube)
        np.add(out, f_cube, out=out)

    v = np.fft.rfft(np.asarray(init.p, dtype=float))
    t = float(init.t)
    ts: list[float] = []
    fields: list[np.ndarray] = []
    means: list[float] = []
    rms: list[float] = []

    def snapshot() -> None:
        p = np.fft.irfft(v, n=n)
        ts.append(t)
        fields.append(p)
        means.append(float(np.mean(p)))
        rms.append(float(np.sqrt(np.mean(p * p))))

    if 0 in snap_at:
        snapshot()
    # A diverging run overflows before the finiteness check sees it; the
    # NumericalError is its one report.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            nonlinear(v, Nv)
            np.multiply(E2, v, out=E2v)
            # a = E2*v + Q*Nv
            np.multiply(Q, Nv, out=a)
            np.add(E2v, a, out=a)
            nonlinear(a, Na)
            # b = E2*v + Q*Na
            np.multiply(Q, Na, out=b)
            np.add(E2v, b, out=b)
            nonlinear(b, Nb)
            # c = E2*a + Q*(2*Nb - Nv)
            np.multiply(2.0, Nb, out=tmp)
            np.subtract(tmp, Nv, out=tmp)
            np.multiply(Q, tmp, out=tmp)
            np.multiply(E2, a, out=cc)
            np.add(cc, tmp, out=cc)
            nonlinear(cc, Nc)
            # v = E*v + Nv*f1 + 2*(Na + Nb)*f2 + Nc*f3, summed left to right
            np.multiply(E, v, out=v)
            np.multiply(Nv, f1, out=tmp)
            np.add(v, tmp, out=v)
            np.add(Na, Nb, out=tmp)
            np.multiply(2.0, tmp, out=tmp)
            np.multiply(tmp, f2, out=tmp)
            np.add(v, tmp, out=v)
            np.multiply(Nc, f3, out=tmp)
            np.add(v, tmp, out=v)
            t = float(init.t) + step * dt
            if not np.isfinite(v).all():
                raise NumericalError(f"non-finite spectrum at step {step} (t={t:.6g})")
            if step in snap_at:
                snapshot()

    return TrajectoryMKdVB(x=np.asarray(init.x, dtype=float), ts=tuple(ts),
                           p=tuple(fields), means=tuple(means), rms=tuple(rms),
                           dt=dt, coeffs=c)
