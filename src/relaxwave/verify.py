"""Independent residual measurement of the candidate closed-form solutions.

Every closed form in :mod:`relaxwave.soliton` is treated as a candidate: it
is substituted into the governing system it is claimed to solve and the
pointwise residual is measured, never assumed.  Derivatives can be taken
three ways (closed-form analytic, order-2 finite differences, order-4 finite
differences) so that any nonzero residual can be attributed to the formulas
rather than to the numerics.  Each model system (coupled, factored,
complex) is written once, as a function of the derivative bundles giving
each equation's total and normalizing terms; every residual path and
:func:`exactness_forcing` (the negated residual) evaluate it.

On a grid the finite-difference steps are the grid spacings: each closed
form is evaluated once on the grid padded with ``order/2`` ghost nodes per
side, and every stencil operand of a row block is a contiguous run of that
one evaluation.  Grid reports walk sigma in row blocks; the squares of each
residual, whose one whole-grid mean gives the RMS norm, go to a whole-grid
buffer that each thread keeps between reports, so a repeated report
neither allocates those squares nor touches fresh pages for them.
:func:`real_residual_reports` and :func:`complex_residual_reports` give
several methods (and, for the real wave, both systems) from one call: the
``fd2`` and ``fd4`` reports slice one padded evaluation at ``fd4`` width,
whose inner ghost nodes are the same floats as the ``fd2`` padding, and one
analytic bundle per row block feeds the coupled and the factored equations,
whose shared terms are computed once.
A manufactured-solution self-test calibrates the verifier itself: smooth
fields with known forcing must reproduce that forcing to round-off on the
analytic path and converge at nominal order on the finite-difference paths.

Facts worth knowing up front: the candidate one-soliton does not annihilate
the coupled characteristic system.  With ``T = tanh(theta)`` its
first-equation residual is
``r1 = 4*(k+omega)**2 * (-(k-omega)*(alpha+2*(k+omega))*T**2 - T + c)`` with
``c = alpha*(k-omega) + 2*(k**2-omega**2) - 1``, and the dispersion relation
makes ``c = -1/2``; so ``r1 = -2*(k+omega)**2`` wherever ``theta = 0``, for
every ``(v, alpha)`` on the branch (-1/2 at the origin for ``v = 0``,
``alpha = 0``, where ``k = 1/2``).  The second residual is
``r2 = 4*(k-omega)*(k+omega)**2*(1 + 4*(k+omega)**2)*(1+T)*(1-T**2)``.
``tests/test_exact_residual.py`` derives both polynomials with sympy.  The
complex soliton satisfies only the reconstructed-companion equation of its
system exactly.  These residuals are reported as findings.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dispersion import ComplexWave, RealWave
from .errors import DomainError
from .hirota import _richardson_diagonal
from .soliton import (
    FieldBundle,
    ProfileSamples,
    _check_decaying,
    _quad_along_xi,
    complex_bundles,
    complex_Z,
    eval_complex_Q,
    eval_uZ,
    real_bundles,
    sigma_tau_from_xi_zeta,
)

__all__ = [
    "METHODS",
    "GridSpec",
    "EquationResidual",
    "ResidualReport",
    "SelftestReport",
    "residuals_from_bundles",
    "complex_residuals_from_bundles",
    "fd_bundle",
    "point_bundle",
    "REAL_SYSTEMS",
    "real_residual_reports",
    "complex_residual_reports",
    "system19_residual",
    "system19_point_residual",
    "eq14_residual",
    "phi_from_quadrature",
    "system_eqq11_residual",
    "physical_operator_grid",
    "physical_operator_pointwise",
    "eq11_residual_physical",
    "manufactured_u",
    "manufactured_Z",
    "manufactured_bundles",
    "manufactured_forcing",
    "exactness_forcing",
    "manufactured_selftest",
]

METHODS = ("analytic", "fd2", "fd4")
REAL_SYSTEMS = ("coupled", "factored")
_FD_ORDERS = {"fd2": 2, "fd4": 4}

_GRID_BOUND = 50.0


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid in the characteristic plane."""

    sigma_min: float = -15.0
    sigma_max: float = 15.0
    n_sigma: int = 301
    tau_min: float = -15.0
    tau_max: float = 15.0
    n_tau: int = 301

    def __post_init__(self) -> None:
        if not (self.sigma_min < self.sigma_max and self.tau_min < self.tau_max):
            raise DomainError("grid ranges must be nonempty")
        if self.n_sigma < 2 or self.n_tau < 2:
            raise DomainError("grid needs at least 2 points per axis")
        for v in (self.sigma_min, self.sigma_max, self.tau_min, self.tau_max):
            if abs(v) > _GRID_BOUND:
                raise DomainError(f"grid bounds must satisfy |coord| <= {_GRID_BOUND}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.linspace(self.sigma_min, self.sigma_max, self.n_sigma),
                np.linspace(self.tau_min, self.tau_max, self.n_tau))

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        sig, tau = self.axes()
        return np.meshgrid(sig, tau, indexing="ij")

    def spacings(self) -> tuple[float, float]:
        return ((self.sigma_max - self.sigma_min) / (self.n_sigma - 1),
                (self.tau_max - self.tau_min) / (self.n_tau - 1))


@dataclass(frozen=True)
class EquationResidual:
    """Sup and RMS norms of one equation's residual, with the sup norm of its
    largest constituent term as the scale reference."""

    equation: str
    linf: float
    l2: float
    normalization: float


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms of a system on a grid under one derivative method."""

    system: str
    method: str
    grid: GridSpec
    equations: tuple[EquationResidual, ...]


@dataclass(frozen=True)
class SelftestReport:
    """Outcome of the manufactured-solution calibration of the verifier."""

    passed: bool
    analytic_max_error: float
    zero_residual_max: float
    fd2_ratio: float
    fd4_ratio: float
    fd2_expected: float = 4.0
    fd4_expected: float = 16.0


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise DomainError(f"unknown derivative method {method!r}; expected one of {METHODS}")


def _real_equations(bu: FieldBundle, bz: FieldBundle, alpha: float, systems):
    """The real model equations of each of ``systems``, in that order.

    One ``(system, name, total, terms)`` per equation; ``terms`` are the
    constituents whose largest sup norm normalizes the equation's report.
    With ``d = u_ss - u_tt``, ``pi = u_s + u_t`` and ``phi = Z_s + Z_t``, all
    computed once: ``"coupled"`` has equation ``u``,
    ``d - phi*u + alpha*pi``, and equation ``Z``, ``Z_ss - Z_tt + (u + 1)*pi``;
    ``"factored"`` has ``u-factored``, ``-d - alpha*pi + phi*u`` summed
    negated as ``d + alpha*pi - phi*u``: bit for bit the same up to the sign
    of a zero, and the norms see only ``|r|`` and ``r**2``.
    """
    pi = bu.s + bu.t
    phi_u = (bz.s + bz.t) * bu.f
    api = alpha * pi
    d = bu.ss - bu.tt
    out = []
    for system in systems:
        if system == "coupled":
            out += [("coupled", "u", d - phi_u + api, (bu.ss, bu.tt, phi_u, api)),
                    ("coupled", "Z", bz.ss - bz.tt + (bu.f + 1.0) * pi,
                     (bz.ss, bz.tt, bu.f * pi, pi))]
        else:
            out.append(("factored", "u-factored", d + api - phi_u, (d, api, phi_u)))
    return out


def _complex_equations(bqr: FieldBundle, bqi: FieldBundle, bz: FieldBundle, alpha: float):
    """The complex short-pulse system, one ``(name, total, terms)`` per equation.

    With ``phi = Z_s + Z_t``: ``Q_ss - Q_tt - phi*Q + alpha*(Q_s + Q_t)`` split
    into real and imaginary parts, and the companion equation
    ``Z_ss - Z_tt + Re Q*(Re Q_s + Re Q_t) + Im Q*(Im Q_s + Im Q_t)``.
    """
    phi = bz.s + bz.t
    pr, pi_ = bqr.s + bqr.t, bqi.s + bqi.t
    phi_r, phi_i = phi * bqr.f, phi * bqi.f
    a_r, a_i = alpha * pr, alpha * pi_
    q_r, q_i = bqr.f * pr, bqi.f * pi_
    return (("Q_re", bqr.ss - bqr.tt - phi_r + a_r, (bqr.ss, bqr.tt, phi_r, a_r)),
            ("Q_im", bqi.ss - bqi.tt - phi_i + a_i, (bqi.ss, bqi.tt, phi_i, a_i)),
            ("Z", bz.ss - bz.tt + q_r + q_i, (bz.ss, bz.tt, q_r, q_i)))


def residuals_from_bundles(bu: FieldBundle, bz: FieldBundle, alpha: float):
    """Residual fields ``(r1, r2)`` of the coupled characteristic system."""
    return tuple(eq[2] for eq in _real_equations(bu, bz, alpha, ("coupled",)))


def complex_residuals_from_bundles(bqr: FieldBundle, bqi: FieldBundle,
                                   bz: FieldBundle, alpha: float):
    """Residual fields of the complex short-pulse system (three equations)."""
    return tuple(total for _name, total, _terms in _complex_equations(bqr, bqi, bz, alpha))


def _stencil_bundle(f0, s_shifts, t_shifts, hs: float, ht: float) -> FieldBundle:
    """Central-difference bundle from shifted field values.

    ``s_shifts[j - 1]`` is the pair ``(f(S + j*hs), f(S - j*hs))`` for
    ``j = 1 .. order/2`` and ``t_shifts`` the same in ``tau``; one pair per
    axis gives the order-2 stencil, two pairs the order-4 stencil.
    """
    s, ss = _central_differences(f0, s_shifts, hs)
    t, tt = _central_differences(f0, t_shifts, ht)
    return FieldBundle(f=f0, s=s, t=t, ss=ss, tt=tt)


def _central_differences(f0, shifts, h: float):
    """First and second central differences along one axis, order 2 or 4.

    The order-4 pair is ``(-p2 + 8*p - 8*m + m2)/(12*h)`` and
    ``(-p2 + 16*p - 30*f0 + 16*m - m2)/(12*h**2)``.  Each is accumulated in
    place, term by term in that order (``8*p - p2`` is ``-p2 + 8*p`` bit for
    bit), so an array input costs one new array per derivative and one per
    scaled term; the inputs are never written.
    """
    if len(shifts) == 1:
        ((p, m),) = shifts
        d1 = p - m
        d1 /= 2.0 * h
        d2 = p - 2.0 * f0
        d2 += m
        d2 /= h**2
        return d1, d2
    (p, m), (p2, m2) = shifts
    d1 = 8.0 * p
    d1 -= p2
    d1 -= 8.0 * m
    d1 += m2
    d1 /= 12.0 * h
    d2 = 16.0 * p
    d2 -= p2
    d2 -= 30.0 * f0
    d2 += 16.0 * m
    d2 -= m2
    d2 /= 12.0 * h**2
    return d1, d2


def fd_bundle(fn: Callable, S, T, hs: float, ht: float, order: int) -> FieldBundle:
    """Finite-difference derivative bundle of a callable field on given points."""
    return _fd_bundles(lambda s, t: (fn(s, t),), S, T, hs, ht, order)[0]


def _fd_bundles(fields: Callable, S, T, hs: float, ht: float,
                order: int) -> tuple[FieldBundle, ...]:
    """:func:`fd_bundle` of every field ``fields(S, T)`` returns, one call per stencil point."""
    if order not in _FD_ORDERS.values():
        raise DomainError(f"finite-difference order must be one of "
                          f"{tuple(_FD_ORDERS.values())}, got {order}")
    steps = range(1, order // 2 + 1)
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    f0 = fields(S, T)
    s_shifts = [(fields(S + j * hs, T), fields(S - j * hs, T)) for j in steps]
    t_shifts = [(fields(S, T + j * ht), fields(S, T - j * ht)) for j in steps]
    return tuple(
        _stencil_bundle(f0[i], [(p[i], m[i]) for p, m in s_shifts],
                        [(p[i], m[i]) for p, m in t_shifts], hs, ht)
        for i in range(len(f0)))


def _grid_fd_rows(fields: Callable, grid: GridSpec,
                  order: int) -> Callable[[int, int, int], tuple[FieldBundle, ...]]:
    """Row-block finite-difference bundles of every field ``fields(S, T)`` returns.

    Returns ``rows(i0, i1, m)``, the order-``m`` bundles on grid rows
    ``i0:i1`` for any ``m`` up to ``order``.  The steps are the grid
    spacings, so every stencil neighbour is a node of the grid padded with
    ``order/2`` ghost nodes per side.  ``fields`` is called once, here, on
    the open mesh of those padded axes (interior nodes bit-identical to
    :meth:`GridSpec.axes`).  A narrower stencil uses the inner ghost nodes,
    which are the same floats (``a[0] - j*h``) as in its own padding, so one
    evaluation at ``order`` serves every order below it bit for bit.  A
    neighbour ``S + j*hs`` and the grid node it stands for differ only by the
    round-off of the coordinates (at most 2 ulps of the largest coordinate
    on the grids tried).

    ``rows`` takes each shifted stencil value of a block as one contiguous
    run of the C-ordered padded output, ``W = n_tau + 2*(order/2)`` values
    per row: a shift of ``j`` rows in sigma is an offset of ``j*W`` and a
    shift of ``j`` in tau an offset of ``j``.  The differences run over
    whole padded rows, and the bundles are the ``[:, pad:pad + n_tau]``
    views of their results.  A tau run crosses a row end only in the ghost
    columns, whose lanes are dropped; every interior value is the same float
    as from the grid slice it stands for.
    """
    pad = order // 2
    hs, ht = grid.spacings()
    ghosts = np.arange(1.0, pad + 1.0)
    axes = [np.concatenate((a[0] - h * ghosts[::-1], a, a[-1] + h * ghosts))
            for a, h in zip(grid.axes(), (hs, ht))]
    flat = [F.reshape(-1) for F in fields(*np.meshgrid(*axes, indexing="ij", sparse=True))]
    nt = grid.n_tau
    width = nt + 2 * pad

    def rows(i0: int, i1: int, m: int) -> tuple[FieldBundle, ...]:
        steps = range(1, m // 2 + 1)
        start, n = (pad + i0) * width, (i1 - i0) * width

        def at(F, o: int):
            # the padded rows of grid rows i0:i1, shifted by o values
            return F[start + o:start + o + n]

        def interior(x):
            return x.reshape(i1 - i0, width)[:, pad:pad + nt]

        runs = (_stencil_bundle(at(F, 0), [(at(F, j * width), at(F, -j * width)) for j in steps],
                                [(at(F, j), at(F, -j)) for j in steps], hs, ht) for F in flat)
        return tuple(FieldBundle(*map(interior, (b.f, b.s, b.t, b.ss, b.tt))) for b in runs)

    return rows


def point_bundle(fn: Callable, sigma: float, tau: float, order: int) -> FieldBundle:
    """Richardson-extrapolated finite-difference bundle at a single point.

    Extrapolation over the steps ``0.4/2**i``, ``i = 0 .. 4``, removes the
    truncation series, so the point values are limited only by round-off;
    this is what lets the finite-difference methods certify pointwise
    residuals to ``1e-10``.
    """
    return _point_bundles(lambda s, t: (fn(s, t),), sigma, tau, order)[0]


def _point_bundles(fields: Callable, sigma: float, tau: float,
                   order: int) -> tuple[FieldBundle, ...]:
    """:func:`point_bundle` of every field ``fields(S, T)`` returns, one call per stencil point."""
    seq = [_fd_bundles(fields, sigma, tau, 0.4 / 2.0**i, 0.4 / 2.0**i, order)
           for i in range(5)]

    def extrapolated(values) -> float:
        # halving the step divides the leading error term by 2**order
        return _richardson_diagonal([float(x) for x in values], 2.0**order)[-1]

    return tuple(
        FieldBundle(
            f=float(np.asarray(per_level[0].f)),
            s=extrapolated(b.s for b in per_level),
            t=extrapolated(b.t for b in per_level),
            ss=extrapolated(b.ss for b in per_level),
            tt=extrapolated(b.tt for b in per_level),
        )
        for per_level in zip(*seq))


# Grid points per row block of a grid report: about 64 KB per float64
# temporary, so a block's whole residual chain stays in cache.
_BLOCK_POINTS = 8192


# This thread's whole-grid squares of _block_norms, kept between reports.
_SQUARES = threading.local()


def _squares_buffer(ns: int, nt: int, count: int) -> np.ndarray:
    """This thread's squares buffer: at least ``count`` slots of ``(ns, nt)``.

    One ``(slots, ns, nt)`` array per thread is kept for the most recent grid
    shape, with as many slots as the most equations one report on that grid
    has needed (3 at most), so repeated reports neither allocate nor touch
    fresh pages.  Another shape, or more equations, replaces it; concurrent
    callers in other threads each have their own.
    """
    buf = getattr(_SQUARES, "buf", None)
    if buf is None or buf.shape[1:] != (ns, nt) or len(buf) < count:
        _SQUARES.buf = buf = None  # release the old array before making the new one
        buf = _SQUARES.buf = np.empty((count, ns, nt))
    return buf


def _grid_reports(grid: GridSpec, methods, bundles: Callable, fields: Callable,
                  equations: Callable) -> dict[tuple[str, str], ResidualReport]:
    """Residual reports on ``grid`` under every method of ``methods``.

    ``equations(*bundles)`` returns one ``(system, name, total, terms)`` per
    equation; the result maps each ``(system, method)`` to its report, with
    the equations in the order given.  The methods run one after the other,
    each walked in row blocks by :func:`_block_norms`.  Their blocks are
    ``bundles(S, T)`` on the block's open mesh (``analytic``) or runs of
    one ghost-padded evaluation of ``fields`` at the widest requested order,
    which ``fd2`` and ``fd4`` share; it is made at the first of them, after
    the analytic pass has freed its arrays.
    """
    sig, tau = grid.axes()
    widest = max((_FD_ORDERS[m] for m in methods if m != "analytic"), default=0)
    fd_rows = None
    reports: dict[tuple[str, str], ResidualReport] = {}
    for method in methods:
        order = _FD_ORDERS.get(method)
        if order is not None and fd_rows is None:
            fd_rows = _grid_fd_rows(fields, grid, widest)

        def block(i0: int, i1: int, order=order):
            if order is None:
                return bundles(*np.meshgrid(sig[i0:i1], tau, indexing="ij", sparse=True))
            return fd_rows(i0, i1, order)

        by_system: dict[str, list[EquationResidual]] = {}
        for system, entry in _block_norms(grid, block, equations):
            by_system.setdefault(system, []).append(entry)
        for system, eqs in by_system.items():
            reports[system, method] = ResidualReport(system=system, method=method,
                                                     grid=grid, equations=tuple(eqs))
    return reports


def _block_norms(grid: GridSpec, block: Callable,
                 equations: Callable) -> list[tuple[str, EquationResidual]]:
    """Norms of every equation over ``grid``, computed in row blocks.

    The sigma axis is walked in blocks of ``_BLOCK_POINTS // n_tau`` rows
    (at least one); ``equations(*block(i0, i1))`` gives the residuals of rows
    ``i0:i1``.  The sup norms of ``total`` and of every term are the maxima
    over the block maxima; the squares of ``total`` fill one whole-grid slot
    of :func:`_squares_buffer` per equation, whose one mean gives ``l2`` with
    the summation order of an unblocked report.
    """
    ns, nt = grid.n_sigma, grid.n_tau
    rows = max(1, _BLOCK_POINTS // nt)
    keys, squares, peaks = [], None, []
    for i0 in range(0, ns, rows):
        i1 = min(i0 + rows, ns)
        eqs = equations(*block(i0, i1))
        if squares is None:
            squares = _squares_buffer(ns, nt, len(eqs))
            keys = [(system, name) for system, name, _total, _terms in eqs]
            peaks = [[] for _ in eqs]
        for e, (_system, _name, total, terms) in enumerate(eqs):
            np.square(total, out=squares[e, i0:i1])
            peaks[e].append([np.abs(x).max() for x in (total, *terms)])
        eqs = total = terms = None  # free this block's arrays before the next is made
    out = []
    for (system, name), sq, pk in zip(keys, squares, peaks):
        linf, *norms = np.max(pk, axis=0)
        out.append((system, EquationResidual(
            equation=name, linf=float(linf), l2=float(np.sqrt(np.mean(sq))),
            normalization=max(float(n) for n in norms))))
    return out


def _entry(name: str, total: np.ndarray, terms: list[np.ndarray]) -> EquationResidual:
    linf = float(np.max(np.abs(total)))
    l2 = float(np.sqrt(np.mean(np.square(total))))
    norm = max(float(np.max(np.abs(t))) for t in terms)
    return EquationResidual(equation=name, linf=linf, l2=l2, normalization=norm)


def real_residual_reports(w: RealWave, grid: GridSpec = GridSpec(), methods=METHODS,
                          systems=REAL_SYSTEMS) -> tuple[ResidualReport, ...]:
    """Residual reports of the candidate one-soliton under several methods and systems.

    ``systems`` names any of ``"coupled"`` (:func:`system19_residual`) and
    ``"factored"`` (:func:`eq14_residual`).  The reports come system by
    system, each in the order of ``methods``, and each equals the
    single-report function's result for its system and method.  They share
    one evaluation of the closed forms: one :func:`real_bundles` call per
    analytic row block feeds every system, and ``fd2`` and ``fd4`` slice one
    ghost-padded :func:`eval_uZ` call.
    """
    for m in methods:
        _check_method(m)
    if len(set(systems)) != len(systems) or not set(systems) <= set(REAL_SYSTEMS):
        raise DomainError(f"systems must be distinct names from {REAL_SYSTEMS}, "
                          f"got {tuple(systems)}")
    reports = _grid_reports(grid, methods, lambda s, t: real_bundles(w, s, t),
                            lambda s, t: eval_uZ(w, s, t),
                            lambda bu, bz: _real_equations(bu, bz, w.alpha, systems))
    return tuple(reports[system, m] for system in systems for m in methods)


def system19_residual(w: RealWave, grid: GridSpec = GridSpec(),
                      method: str = "analytic") -> ResidualReport:
    """Residual report of the candidate one-soliton in the coupled system.

    The ``fd2``/``fd4`` steps are the grid spacings; stencils at the edge
    nodes reach ``order/2`` ghost nodes outside the grid.
    """
    return real_residual_reports(w, grid, (method,), ("coupled",))[0]


def system19_point_residual(w: RealWave, sigma: float, tau: float,
                            method: str = "analytic") -> tuple[float, float]:
    """Pointwise residual pair of the coupled system at ``(sigma, tau)``."""
    _check_method(method)
    if method == "analytic":
        bu, bz = real_bundles(w, sigma, tau)
    else:
        bu, bz = _point_bundles(lambda s, t: eval_uZ(w, s, t), sigma, tau, _FD_ORDERS[method])
    r1, r2 = residuals_from_bundles(bu, bz, w.alpha)
    return float(r1), float(r2)


def eq14_residual(w: RealWave, grid: GridSpec = GridSpec(),
                  method: str = "analytic") -> ResidualReport:
    """Residual of the factored-frame scalar equation for the candidate soliton.

    The equation lives in the rotated variables ``(xi, zeta)``; its
    derivatives are chain-ruled back through the linear map, giving
    ``-(u_ss - u_tt) - alpha*(u_s + u_t) + (Z_s + Z_t)*u``.  This equals the
    first coupled-system residual up to the constant Jacobian sign.  The
    ``fd2``/``fd4`` steps are the grid spacings, with ghost nodes at the edges.
    """
    return real_residual_reports(w, grid, (method,), ("factored",))[0]


def phi_from_quadrature(w: RealWave, xi: float, zeta: float) -> float:
    """Nonlocal auxiliary field ``phi = 1 + integral of u_zeta*(1+u) d xi'``.

    The integral runs along fixed ``zeta`` from far behind the pulse.  This
    is the independent route against the local ansatz ``phi = Z_s + Z_t``;
    for the candidate closed forms the two disagree and the gap is a
    measured finding.
    """

    def integrand(x: float) -> float:
        s, t = sigma_tau_from_xi_zeta(x, zeta)
        bu, _ = real_bundles(w, s, t)
        return float(-(bu.s + bu.t) * (1.0 + bu.f))

    return 1.0 + _quad_along_xi(w, integrand, xi, zeta, "quadrature")


def complex_residual_reports(cw: ComplexWave, grid: GridSpec = GridSpec(),
                             methods=METHODS) -> tuple[ResidualReport, ...]:
    """:func:`system_eqq11_residual` under each method of ``methods``, in that order.

    The reports share one evaluation of the closed forms: ``fd2`` and ``fd4``
    slice one ghost-padded :func:`eval_complex_Q` and :func:`complex_Z`
    call each.
    """
    for m in methods:
        _check_method(m)
    _check_decaying(cw)
    def equations(bqr, bqi, bz):
        return [("complex", *eq) for eq in _complex_equations(bqr, bqi, bz, cw.alpha)]

    reports = _grid_reports(
        grid, methods, lambda s, t: complex_bundles(cw, s, t),
        lambda s, t: (*eval_complex_Q(cw, s, t), complex_Z(cw, s, t)), equations)
    return tuple(reports["complex", m] for m in methods)


def system_eqq11_residual(cw: ComplexWave, grid: GridSpec = GridSpec(),
                          method: str = "analytic") -> ResidualReport:
    """Residual report of the complex soliton in the complex short-pulse system.

    The companion field is the quadrature reconstruction of
    :func:`relaxwave.soliton.complex_Z`; its own equation is satisfied by
    construction, the other two residuals are findings.  The ``fd2``/``fd4``
    steps are the grid spacings, with ghost nodes at the edges.
    """
    return complex_residual_reports(cw, grid, (method,))[0]


def physical_operator_pointwise(u, u_y, u_eta, u_yy, u_yeta, alpha: float,
                                include_quadratic: bool = True,
                                include_cubic: bool = True):
    """Physical-frame operator applied through the product-rule expansion.

    ``d_y[(d_eta + u*d_y + (u**2/2)*d_y) u] + alpha*u_y + u`` with the
    convective terms individually switchable; with the cubic term off and
    ``alpha = 0`` this is the classic ``u_yeta + (u**2/2)_yy + u`` structure.
    """
    r = u_yeta + alpha * u_y + u
    if include_quadratic:
        r = r + u_y * u_y + u * u_yy
    if include_cubic:
        r = r + u * u_y * u_y + 0.5 * u * u * u_yy
    return r


def physical_operator_grid(U: np.ndarray, y_axis: np.ndarray, eta_axis: np.ndarray,
                           alpha: float, include_quadratic: bool = True,
                           include_cubic: bool = True) -> np.ndarray:
    """Physical-frame operator on gridded data ``U[i_eta, i_y]`` by central FD.

    The inner flux ``u_eta + (c2*u + c3*u**2/2)*u_y`` is formed first and
    differentiated in ``y`` as a whole.  Returns the residual on the interior
    index range ``[1:-1, 2:-2]``.
    """
    if U.shape != (eta_axis.size, y_axis.size):
        raise DomainError("U must be indexed as [eta, y]")
    if eta_axis.size < 3 or y_axis.size < 5:
        raise DomainError("physical-frame grid too small for central differences")
    hy = y_axis[1] - y_axis[0]
    he = eta_axis[1] - eta_axis[0]
    u_eta = (U[2:, :] - U[:-2, :]) / (2.0 * he)          # [1:-1] in eta
    u_y = (U[:, 2:] - U[:, :-2]) / (2.0 * hy)            # [1:-1] in y
    mid = U[1:-1, 1:-1]
    conv = np.zeros_like(mid)
    if include_quadratic:
        conv = conv + mid
    if include_cubic:
        conv = conv + 0.5 * mid * mid
    inner = u_eta[:, 1:-1] + conv * u_y[1:-1, :]
    d_inner = (inner[:, 2:] - inner[:, :-2]) / (2.0 * hy)
    core = U[1:-1, 2:-2]
    uy_core = u_y[1:-1, 1:-1]
    return d_inner + alpha * uy_core + core


def _resample_u_on_y_eta(w: RealWave, C: float, y_axis: np.ndarray,
                         eta_axis: np.ndarray) -> np.ndarray:
    """Invert the parametric map onto a regular (y, eta) patch.

    Along a fixed-``eta`` line, ``y(tau) = C - Z(tau + 2*eta, tau)`` is
    strictly decreasing for single-valued profiles; each target ``y`` is
    root-solved by Newton iterations safeguarded by bisection on a bracket
    that the bounded tanh bump guarantees analytically.  The iteration stops
    once every residual is below ``1e-12``, after applying the Newton step of
    that last evaluation, so the returned roots sit at round-off.
    """
    ETA, Y = np.meshgrid(eta_axis, y_axis, indexing="ij")
    bump = 4.0 * (w.omega + w.k)
    lo = -ETA - Y + C - 1e-9
    hi = lo + bump + 2e-9
    t = 0.5 * (lo + hi)
    for _ in range(80):
        _bu, bz = real_bundles(w, t + 2.0 * ETA, t)
        f = (C - bz.f) - Y
        lo = np.where(f > 0.0, t, lo)
        hi = np.where(f > 0.0, hi, t)
        dy = -(bz.s + bz.t)
        step = np.where(dy != 0.0, f / np.where(dy != 0.0, dy, 1.0), 0.0)
        cand = t - step
        # closed bracket: a converged iterate lies on its own bracket end
        inside = (cand >= lo) & (cand <= hi)
        t = np.where(inside, cand, 0.5 * (lo + hi))
        if np.max(np.abs(f)) < 1e-12:
            break
    u, _Z = eval_uZ(w, t + 2.0 * ETA, t)
    return np.asarray(u, dtype=float)


def eq11_residual_physical(samples: ProfileSamples, alpha: float,
                           n_y: int = 201, n_eta: int = 33,
                           trim: float = 0.15,
                           eta_halfwidth: float = 0.6) -> ResidualReport:
    """Physical-frame residual of a single-valued (kink) profile.

    The profile's wave is resampled onto a regular ``(y, eta)`` patch by
    root-solving the parametric map along fixed-``eta`` lines, then the
    physical-frame operator is applied by central differences.  The patch is
    padded with ghost nodes so the reported residual covers exactly the
    window ``[y_lo, y_hi] x [eta_mid +- eta_halfwidth]`` at every
    resolution, which makes refinement studies meaningful.

    Raises
    ------
    DomainError
        If the profile is multivalued in ``y`` (loop or cusp input).
    """
    dy = np.diff(samples.y)
    if not (np.all(dy > 0.0) or np.all(dy < 0.0)):
        raise DomainError("multivalued in y; verify in (sigma, tau) frame")
    if n_y < 7 or n_eta < 5:
        raise DomainError("physical-frame resampling needs n_y >= 7, n_eta >= 5")
    if not (0.0 <= trim < 0.45):
        raise DomainError("trim fraction must lie in [0, 0.45)")
    if eta_halfwidth <= 0.0:
        raise DomainError("eta_halfwidth must be positive")
    w = samples.wave
    span = float(samples.y.max() - samples.y.min())
    y_lo = float(samples.y.min()) + trim * span
    y_hi = float(samples.y.max()) - trim * span
    hy = (y_hi - y_lo) / (n_y - 1)
    he = 2.0 * eta_halfwidth / (n_eta - 1)
    eta_mid = float(np.median(0.5 * (samples.sigma - samples.tau)))
    y_pad = y_lo + hy * (np.arange(n_y + 4) - 2.0)
    eta_pad = (eta_mid - eta_halfwidth) + he * (np.arange(n_eta + 2) - 1.0)

    U = _resample_u_on_y_eta(w, samples.C, y_pad, eta_pad)
    res = physical_operator_grid(U, y_pad, eta_pad, alpha)
    grid = GridSpec(sigma_min=y_lo, sigma_max=float(y_pad[-3]), n_sigma=n_y,
                    tau_min=float(eta_pad[1]), tau_max=float(eta_pad[-2]),
                    n_tau=n_eta)
    e = _entry("u-physical", res, [res, np.atleast_1d(np.max(np.abs(U)))])
    return ResidualReport(system="physical", method="fd2", grid=grid, equations=(e,))


# ---------------------------------------------------------------------------
# Manufactured-solution self-test.

def manufactured_u(S, T):
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    return 0.8 * np.exp(-S * S / 6.0) * np.cos(0.7 * T + 0.3)


def manufactured_Z(S, T):
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    return 0.5 * (S + T) + 0.5 * np.exp(-np.square(S - 1.0) / 8.0) * np.sin(0.6 * T)


def manufactured_bundles(S, T) -> tuple[FieldBundle, FieldBundle]:
    """Closed-form derivative bundles of the manufactured smooth pair."""
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    g = np.exp(-S * S / 6.0)
    gp = -(S / 3.0) * g
    gpp = (S * S / 9.0 - 1.0 / 3.0) * g
    c = np.cos(0.7 * T + 0.3)
    cp = -0.7 * np.sin(0.7 * T + 0.3)
    cpp = -0.49 * c
    bu = FieldBundle(f=0.8 * g * c, s=0.8 * gp * c, t=0.8 * g * cp,
                     ss=0.8 * gpp * c, tt=0.8 * g * cpp)
    q = np.exp(-np.square(S - 1.0) / 8.0)
    qp = -((S - 1.0) / 4.0) * q
    qpp = (np.square(S - 1.0) / 16.0 - 0.25) * q
    sn = np.sin(0.6 * T)
    snp = 0.6 * np.cos(0.6 * T)
    snpp = -0.36 * sn
    bz = FieldBundle(f=0.5 * (S + T) + 0.5 * q * sn,
                     s=0.5 + 0.5 * qp * sn,
                     t=0.5 + 0.5 * q * snp,
                     ss=0.5 * qpp * sn,
                     tt=0.5 * q * snpp)
    return bu, bz


def manufactured_forcing(S, T, alpha: float):
    """Exact forcing that the manufactured pair induces in the coupled system."""
    bu, bz = manufactured_bundles(S, T)
    return residuals_from_bundles(bu, bz, alpha)


def exactness_forcing(w: RealWave):
    """Forcing that turns the closed-form soliton into an exact solution.

    The returned callable gives ``(-r1, -r2)`` where ``(r1, r2)`` are the
    closed-form residuals in the coupled system, so a run of
    :func:`relaxwave.sim.evolve_system19` forced with it should track the
    closed form to pure discretization error.
    """

    def forcing(sigma: np.ndarray, tau: float):
        bu, bz = real_bundles(w, sigma, np.full_like(sigma, tau))
        r1, r2 = residuals_from_bundles(bu, bz, w.alpha)
        return -np.asarray(r1, dtype=float), -np.asarray(r2, dtype=float)

    return forcing


def manufactured_selftest(alpha: float = 0.3) -> SelftestReport:
    """Calibrate the verifier against fields whose residual is known exactly.

    The analytic path must reproduce the exact forcing to better than 1e-10,
    zero fields must give an exactly zero residual, and the two
    finite-difference paths must converge at their nominal orders (error
    ratios within 20 percent of 4 and 16 under step halving).
    """
    sig = np.linspace(-6.0, 6.0, 41)
    tau = np.linspace(-6.0, 6.0, 41)
    S, T = np.meshgrid(sig, tau, indexing="ij")
    F1, F2 = manufactured_forcing(S, T, alpha)

    bu, bz = manufactured_bundles(S, T)
    r1, r2 = residuals_from_bundles(bu, bz, alpha)
    analytic_err = max(float(np.max(np.abs(r1 - F1))), float(np.max(np.abs(r2 - F2))))

    zeros = np.zeros_like(S)
    zb = FieldBundle(f=zeros, s=zeros, t=zeros, ss=zeros, tt=zeros)
    z1, z2 = residuals_from_bundles(zb, zb, alpha)
    zero_max = max(float(np.max(np.abs(z1))), float(np.max(np.abs(z2))))

    def fd_error(order: int, h: float) -> float:
        b_u = fd_bundle(manufactured_u, S, T, h, h, order)
        b_z = fd_bundle(manufactured_Z, S, T, h, h, order)
        e1, e2 = residuals_from_bundles(b_u, b_z, alpha)
        return max(float(np.max(np.abs(e1 - F1))), float(np.max(np.abs(e2 - F2))))

    fd2_ratio = fd_error(2, 0.2) / fd_error(2, 0.1)
    fd4_ratio = fd_error(4, 0.4) / fd_error(4, 0.2)

    passed = (analytic_err < 1e-10 and zero_max == 0.0
              and 3.2 <= fd2_ratio <= 4.8 and 12.8 <= fd4_ratio <= 19.2)
    return SelftestReport(passed=passed, analytic_max_error=analytic_err,
                          zero_residual_max=zero_max, fd2_ratio=fd2_ratio,
                          fd4_ratio=fd4_ratio)
