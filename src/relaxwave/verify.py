"""Independent residual measurement of the candidate closed-form solutions.

Every closed form in :mod:`relaxwave.soliton` is treated as a candidate: it
is substituted into the governing system it is claimed to solve and the
pointwise residual is measured, never assumed.  Derivatives can be taken
three ways (closed-form analytic, order-2 finite differences, order-4 finite
differences) so that any nonzero residual can be attributed to the formulas
rather than to the numerics.  Each model system (coupled, factored,
complex) is written once, giving each equation's total and normalizing
terms; every residual path and :func:`exactness_forcing` (the negated
residual) evaluate it.  The coupled one is
:func:`relaxwave.soliton.coupled_system`, which :mod:`relaxwave.sim` steps.

A grid report is one walk over sigma row blocks (:func:`_grid_reports`), with
the grid spacings as finite-difference steps and ``order/2`` ghost nodes
per side; no array spans the grid and the module keeps no state between
reports.  :func:`real_residual_reports` and :func:`complex_residual_reports`
give several methods (and, for the real wave, both systems) from one
evaluation of the closed forms per block, which builds only the bundle parts
the equations read (``_READS``): ``u-factored`` reads of ``Z`` only ``Z_s``
and ``Z_t``, and the coupled and complex systems every part but ``Z`` itself.
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

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from .dispersion import ComplexWave, RealWave
from .errors import DomainError
from .soliton import (
    _PARTS,
    FieldBundle,
    ProfileSamples,
    _check_decaying,
    complex_bundles,
    complex_Z,
    coupled_system,
    coupled_u_parts,
    eval_complex_Q,
    eval_uZ,
    real_bundles,
)

METHODS = ("analytic", "fd2", "fd4")
REAL_SYSTEMS = ("coupled", "factored")
_FD_ORDERS = MappingProxyType({"fd2": 2, "fd4": 4})

# The bundle parts that each system's equations read, one set per bundle:
# (u, Z), or (Re Q, Im Q, Z); "physical" is its resampling's Newton loop.
_READS = MappingProxyType({"coupled": (_PARTS, _PARTS - {"f"}),
                           "factored": (_PARTS, frozenset({"s", "t"})),
                           "complex": (_PARTS, _PARTS, _PARTS - {"f"}),
                           "physical": (frozenset(), frozenset({"f", "s", "t"}))})

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
    """The real model equations of ``systems``, coupled first.

    One ``(system, name, total, terms)`` per equation; ``terms`` are the
    constituents whose largest sup norm normalizes the equation's report.
    ``"coupled"`` is :func:`relaxwave.soliton.coupled_system`; ``"factored"``
    has ``u-factored``, ``-d - alpha*pi + phi*u`` from the same
    :func:`relaxwave.soliton.coupled_u_parts`, summed negated as
    ``d + alpha*pi - phi*u``: bit for bit the same up to the sign of a zero,
    and the norms see only ``|r|`` and ``r**2``.
    """
    args, out = (bu.f, bu.s + bu.t, bz.s + bz.t, bu.ss), []
    if "coupled" in systems:
        r_u, r_z, parts, terms = coupled_system(*args, bz.ss, alpha, bu.tt, bz.tt, terms=True)
        out += [("coupled", "u", r_u, terms[0]), ("coupled", "Z", r_z, terms[1])]
    if "factored" in systems:
        d, phi_u, api = parts if "coupled" in systems else coupled_u_parts(*args, alpha, bu.tt)
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


def residuals_from_bundles(bu: FieldBundle, bz: FieldBundle, alpha: float,
                           linearized: bool = False):
    """Residual fields ``(r1, r2)`` of :func:`relaxwave.soliton.coupled_system`."""
    return coupled_system(bu.f, bu.s + bu.t, bz.s + bz.t, bu.ss, bz.ss, alpha, bu.tt,
                          bz.tt, linearized=linearized)


def _stencil_bundle(f0, s_shifts, t_shifts, hs: float, ht: float, parts=_PARTS) -> FieldBundle:
    """Central-difference bundle from shifted field values.

    ``s_shifts[j - 1]`` is the pair ``(f(S + j*hs), f(S - j*hs))`` for
    ``j = 1 .. order/2`` and ``t_shifts`` the same in ``tau``; one pair per
    axis gives the order-2 stencil, two pairs the order-4 stencil.  The parts
    that ``parts`` does not name are None; the first differences are always taken.
    """
    s, ss = _central_differences(f0, s_shifts, hs, "ss" in parts)
    t, tt = _central_differences(f0, t_shifts, ht, "tt" in parts)
    return FieldBundle(f=f0 if "f" in parts else None, s=s, t=t, ss=ss, tt=tt)


def _central_differences(f0, shifts, h: float, second: bool = True):
    """First and second central differences along one axis, order 2 or 4;
    without ``second`` the second is not taken and is None.

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
        if second:
            d2 = p - 2.0 * f0
            d2 += m
            d2 /= h**2
        return d1, d2 if second else None
    (p, m), (p2, m2) = shifts
    d1 = 8.0 * p
    d1 -= p2
    d1 -= 8.0 * m
    d1 += m2
    d1 /= 12.0 * h
    if second:
        d2 = 16.0 * p
        d2 -= p2
        d2 -= 30.0 * f0
        d2 += 16.0 * m
        d2 -= m2
        d2 /= 12.0 * h**2
    return d1, d2 if second else None


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
    S, T = np.asarray(S, dtype=float), np.asarray(T, dtype=float)
    f0 = fields(S, T)
    s_shifts = [(fields(S + j * hs, T), fields(S - j * hs, T)) for j in steps]
    t_shifts = [(fields(S, T + j * ht), fields(S, T - j * ht)) for j in steps]
    return tuple(
        _stencil_bundle(f0[i], [(p[i], m[i]) for p, m in s_shifts],
                        [(p[i], m[i]) for p, m in t_shifts], hs, ht)
        for i in range(len(f0)))


def _block_fd_bundles(flat, rows: int, pad: int, order: int, hs: float, ht: float,
                      reads) -> tuple[FieldBundle, ...]:
    """Finite-difference bundles of one row block of a grid, with the parts ``reads`` names.

    ``flat`` holds every field, flattened in C order, on the block's ``rows``
    grid rows with ``pad >= order/2`` padded-axis rows on each side, over
    the tau axis padded with ``pad`` ghost nodes per side: ``W = n_tau +
    2*pad`` values per row.  Every shifted stencil value is one contiguous
    run of it: a shift of ``j`` rows in sigma is an offset of ``j*W`` and a
    shift of ``j`` in tau an offset of ``j``.  The differences run over
    whole padded rows, and the bundles are the ``[:, pad:pad + n_tau]``
    views of their results.  A tau run crosses a row end only in the ghost
    columns, whose lanes are dropped; every interior value is the same float
    as from the grid slice it stands for.
    """
    width = flat[0].size // (rows + 2 * pad)
    start, n = pad * width, rows * width
    steps = range(1, order // 2 + 1)

    def at(F, o: int):
        # the padded rows of the block's grid rows, shifted by o values
        return F[start + o:start + o + n]

    def interior(x):
        return x.reshape(rows, width)[:, pad:width - pad]

    runs = (_stencil_bundle(at(F, 0), [(at(F, j * width), at(F, -j * width)) for j in steps],
                            [(at(F, j), at(F, -j)) for j in steps], hs, ht, parts)
            for F, parts in zip(flat, reads, strict=True))
    return tuple(FieldBundle(*(None if x is None else interior(x)
                               for x in (b.f, b.s, b.t, b.ss, b.tt))) for b in runs)


def _richardson_diagonal(values: list[float], factor: float) -> list[float]:
    """Diagonal of the Richardson table of step-halving estimates ``values``.

    ``values[i]`` is an estimate at step ``h/2**i`` whose error series runs in
    ``h**p, h**(p+2), ...`` with ``factor = 2**p``; column ``j`` of the table
    removes ``j`` terms of it, its factor growing fourfold per column.  Entry
    ``j`` of the result is the first value of column ``j``.
    """
    row = list(values)
    diag = [row[0]]
    fac = factor
    while len(row) > 1:
        row = [(fac * row[i + 1] - row[i]) / (fac - 1.0) for i in range(len(row) - 1)]
        diag.append(row[0])
        fac *= 4.0
    return diag


def _point_bundles(fields: Callable, sigma: float, tau: float,
                   order: int) -> tuple[FieldBundle, ...]:
    """Richardson-extrapolated finite-difference bundles at a single point.

    One bundle per field ``fields(S, T)`` returns, with one call per stencil
    point.  Extrapolation over the steps ``0.4/2**i``, ``i = 0 .. 4``,
    removes the truncation series, so the point values are limited only by
    round-off; this is what lets the finite-difference methods certify
    pointwise residuals to ``1e-10``.
    """
    seq = [_fd_bundles(fields, sigma, tau, 0.4 / 2.0**i, 0.4 / 2.0**i, order)
           for i in range(5)]

    def extrapolated(values) -> float:
        # halving the step divides the leading error term by 2**order
        return _richardson_diagonal([float(x) for x in values], 2.0**order)[-1]

    return tuple(FieldBundle(float(np.asarray(per_level[0].f)),
                             *(extrapolated(getattr(b, p) for b in per_level)
                               for p in ("s", "t", "ss", "tt")))
                 for per_level in zip(*seq))


# Grid points per row block of a grid report: about 64 KB per float64
# temporary, so a block's whole residual chain stays in cache.
_BLOCK_POINTS = 8192


def _lift_malloc_thresholds() -> None:
    """Allocate and free one untouched 3 MiB array, so that glibc keeps a grid
    report's block arrays on the heap.

    glibc serves the array with mmap, and freeing an mmapped block raises its
    dynamic mmap threshold to the block's size and its trim threshold to twice
    that (unless set by hand).  With both above the walk's per-block working
    set (about 2 MB at most), the pages a block frees stay on the heap for the
    next block instead of being returned and faulted in again.  The array
    costs one mmap/munmap pair and touches no page; other allocators ignore it.
    """
    np.empty(3 << 20, dtype=np.uint8)


def _grid_reports(grid: GridSpec, methods, reads, bundles: Callable, fields: Callable,
                  equations: Callable) -> dict[tuple[str, str], ResidualReport]:
    """Residual reports on ``grid`` under every method of ``methods``, from one
    walk over sigma row blocks.

    ``equations(*bundles)`` returns one ``(system, name, total, terms)`` per
    equation; the result maps each ``(system, method)`` to its report, with
    the equations in the order given.  ``reads`` names the parts of each
    bundle that ``equations`` reads; ``bundles`` and the stencils build only
    those.  The walk takes ``_BLOCK_POINTS // n_tau`` rows at a time (at
    least one).  In each block ``analytic`` reads ``bundles(S, T)`` on the
    block's open mesh, and ``fd2`` and ``fd4`` read :func:`_block_fd_bundles`
    of one call of ``fields`` on the block's rows of the grid padded with
    ``pad`` ghost nodes per side, ``pad`` being half the widest requested
    order.  The ghost nodes are ``a[0] - j*h`` and ``a[-1] + j*h`` and the
    interior nodes those of :meth:`GridSpec.axes`, so a narrower stencil's
    neighbours are the same floats as in its own padding, and every value
    equals that of a whole-grid evaluation.  A neighbour ``S + j*hs`` and
    the grid node it stands for differ only by the round-off of the
    coordinates (at most 2 ulps of the largest coordinate on the grids tried).

    Per method and equation the walk keeps the running sup norms of
    ``total`` and of every term, and one ``np.sum(np.square(total))`` per
    block; ``l2`` is ``sqrt(math.fsum(block sums) / N)`` over the ``N``
    grid nodes.  No array spans the grid, and each block's arrays are freed
    before the next block's are made.
    """
    for m in methods:
        _check_method(m)
    _lift_malloc_thresholds()
    ns, nt = grid.n_sigma, grid.n_tau
    (sig, tau), (hs, ht) = grid.axes(), grid.spacings()
    methods = tuple(dict.fromkeys(methods))
    pad = max((_FD_ORDERS[m] // 2 for m in methods if m != "analytic"), default=0)
    ghosts = np.arange(1.0, pad + 1.0)
    s_pad, t_pad = (np.concatenate((a[0] - h * ghosts[::-1], a, a[-1] + h * ghosts))
                    for a, h in ((sig, hs), (tau, ht)))
    rows = max(1, _BLOCK_POINTS // nt)
    keys, peaks, sums = [], {}, {m: [] for m in methods}
    for i0 in range(0, ns, rows):
        i1 = min(i0 + rows, ns)
        flat = None
        for method in methods:
            order = _FD_ORDERS.get(method)
            if order is None:
                block = bundles(*np.meshgrid(sig[i0:i1], tau, indexing="ij", sparse=True))
            else:
                if flat is None:
                    flat = [F.reshape(-1) for F in fields(*np.meshgrid(
                        s_pad[i0:i1 + 2 * pad], t_pad, indexing="ij", sparse=True))]
                block = _block_fd_bundles(flat, i1 - i0, pad, order, hs, ht, reads)
            eqs = equations(*block)
            keys = [(system, name) for system, name, _total, _terms in eqs]
            maxima = [np.array([np.abs(x).max() for x in (total, *terms)])
                      for _system, _name, total, terms in eqs]
            peaks[method] = list(map(np.maximum, peaks.get(method, maxima), maxima))
            sums[method].append([np.sum(np.square(total)) for _s, _n, total, _t in eqs])
            block = eqs = None  # free this block's arrays before the next are made
    reports: dict[tuple[str, str], ResidualReport] = {}
    for method in methods:
        by_system: dict[str, list[EquationResidual]] = {}
        for e, (system, name) in enumerate(keys):
            linf, *norms = peaks[method][e]
            by_system.setdefault(system, []).append(EquationResidual(
                equation=name, linf=float(linf),
                l2=math.sqrt(math.fsum(s[e] for s in sums[method]) / (ns * nt)),
                normalization=max(float(x) for x in norms)))
        for system, eqs in by_system.items():
            reports[system, method] = ResidualReport(system=system, method=method,
                                                     grid=grid, equations=tuple(eqs))
    return reports


def real_residual_reports(w: RealWave, grid: GridSpec = GridSpec(), methods=METHODS,
                          systems=REAL_SYSTEMS) -> tuple[ResidualReport, ...]:
    """Residual reports of the candidate one-soliton under several methods and systems.

    ``systems`` names any of ``"coupled"`` (the coupled characteristic
    system) and ``"factored"`` (the factored-frame scalar equation).  The
    factored equation lives in the rotated variables ``xi = (sigma-tau)/2``,
    ``zeta = -(sigma+tau)/2``; its derivatives are chain-ruled back through
    that linear map, giving
    ``-(u_ss - u_tt) - alpha*(u_s + u_t) + (Z_s + Z_t)*u``, which equals the
    first coupled-system residual up to the constant Jacobian sign.

    The reports come system by system, each in the order of ``methods``, and
    each equals the report of a call with that one method and system.  They
    share one evaluation of the closed forms per row block: one
    :func:`real_bundles` call and, for ``fd2`` and ``fd4``, one
    :func:`eval_uZ` call on the block's ghost-padded rows.  The bundles hold
    what the systems read: ``Z_ss`` and ``Z_tt`` only for ``"coupled"``, and
    never the ``Z`` value.  The ``fd2``/``fd4`` steps are the grid spacings;
    stencils at the edge nodes reach ``order/2`` ghost nodes outside the grid.
    """
    if len(set(systems)) != len(systems) or not set(systems) <= set(REAL_SYSTEMS):
        raise DomainError(f"systems must be distinct names from {REAL_SYSTEMS}, "
                          f"got {tuple(systems)}")
    reads = tuple(frozenset().union(*(_READS[s][i] for s in systems)) for i in (0, 1))
    reports = _grid_reports(grid, methods, reads, lambda s, t: real_bundles(w, s, t, _reads=reads),
                            lambda s, t: eval_uZ(w, s, t),
                            lambda bu, bz: _real_equations(bu, bz, w.alpha, systems))
    return tuple(reports[system, m] for system in systems for m in methods)


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


def complex_residual_reports(cw: ComplexWave, grid: GridSpec = GridSpec(),
                             methods=METHODS) -> tuple[ResidualReport, ...]:
    """Residual reports of the complex soliton in the complex short-pulse system,
    one per method of ``methods``, in that order.

    The companion field is the quadrature reconstruction of
    :func:`relaxwave.soliton.complex_Z`; its own equation is satisfied by
    construction, the other two residuals are findings.  The reports share
    one evaluation of the closed forms per row block: ``fd2`` and ``fd4``
    read one :func:`eval_complex_Q` and one :func:`complex_Z` call on the
    block's ghost-padded rows, with the grid spacings as steps and ghost
    nodes at the edges.
    """
    _check_decaying(cw)
    def equations(bqr, bqi, bz):
        return [("complex", *eq) for eq in _complex_equations(bqr, bqi, bz, cw.alpha)]

    reads = _READS["complex"]
    reports = _grid_reports(
        grid, methods, reads, lambda s, t: complex_bundles(cw, s, t, _z_reads=reads[2]),
        lambda s, t: (*eval_complex_Q(cw, s, t), complex_Z(cw, s, t)), equations)
    return tuple(reports["complex", m] for m in methods)


def physical_operator_grid(U: np.ndarray, y_axis: np.ndarray, eta_axis: np.ndarray,
                           alpha: float) -> np.ndarray:
    """Physical-frame operator on gridded data ``U[i_eta, i_y]`` by central FD.

    The operator is ``d_y[(d_eta + u*d_y + (u**2/2)*d_y) u] + alpha*u_y + u``.
    The inner flux ``u_eta + (u + u**2/2)*u_y`` is formed first and
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
    inner = u_eta[:, 1:-1] + (mid + 0.5 * mid * mid) * u_y[1:-1, :]
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
        _bu, bz = real_bundles(w, t + 2.0 * ETA, t, _reads=_READS["physical"])
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


# Nodes of the physical-frame patch in y and in eta.
_PHYS_N_Y = 201
_PHYS_N_ETA = 33


def eq11_residual_physical(samples: ProfileSamples, alpha: float) -> ResidualReport:
    """Physical-frame residual of a single-valued (kink) profile.

    The profile's wave is resampled onto a regular ``(y, eta)`` patch by
    root-solving the parametric map along fixed-``eta`` lines, then the
    physical-frame operator is applied by central differences.  The patch is
    padded with ghost nodes so the reported residual covers exactly the
    window ``[y_lo, y_hi] x [eta_mid +- 0.6]`` at every resolution, which
    makes refinement studies meaningful; ``y_lo`` and ``y_hi`` trim 15
    percent of the profile's ``y`` span at each end.

    Raises
    ------
    DomainError
        If the profile is multivalued in ``y`` (loop or cusp input).
    """
    dy = np.diff(samples.y)
    if not (np.all(dy > 0.0) or np.all(dy < 0.0)):
        raise DomainError("multivalued in y; verify in (sigma, tau) frame")
    n_y, n_eta = _PHYS_N_Y, _PHYS_N_ETA
    trim, eta_halfwidth = 0.15, 0.6  # of the y span at each end; of the eta window
    w = samples.wave
    span = float(samples.y.max() - samples.y.min())
    y_lo = float(samples.y.min()) + trim * span
    y_hi = float(samples.y.max()) - trim * span
    hy = (y_hi - y_lo) / (n_y - 1)
    he = 2.0 * eta_halfwidth / (n_eta - 1)
    # np.median's value bit for bit, without the numpy.ma import it pays
    eta = np.sort(0.5 * (samples.sigma - samples.tau))
    half = eta.size // 2
    eta_mid = float(eta[half] if eta.size % 2 else 0.5 * (eta[half - 1] + eta[half]))
    y_pad = y_lo + hy * (np.arange(n_y + 4) - 2.0)
    eta_pad = (eta_mid - eta_halfwidth) + he * (np.arange(n_eta + 2) - 1.0)

    U = _resample_u_on_y_eta(w, samples.C, y_pad, eta_pad)
    res = physical_operator_grid(U, y_pad, eta_pad, alpha)
    grid = GridSpec(sigma_min=y_lo, sigma_max=float(y_pad[-3]), n_sigma=n_y,
                    tau_min=float(eta_pad[1]), tau_max=float(eta_pad[-2]), n_tau=n_eta)
    linf = float(np.max(np.abs(res)))
    e = EquationResidual("u-physical", linf, float(np.sqrt(np.mean(np.square(res)))),
                         max(linf, float(np.max(np.abs(U)))))
    return ResidualReport(system="physical", method="fd2", grid=grid, equations=(e,))


# ---------------------------------------------------------------------------
# Manufactured-solution self-test.

def manufactured_u(S, T):
    S, T = np.asarray(S, dtype=float), np.asarray(T, dtype=float)
    return 0.8 * np.exp(-S * S / 6.0) * np.cos(0.7 * T + 0.3)


def manufactured_Z(S, T):
    S, T = np.asarray(S, dtype=float), np.asarray(T, dtype=float)
    return 0.5 * (S + T) + 0.5 * np.exp(-np.square(S - 1.0) / 8.0) * np.sin(0.6 * T)


def manufactured_bundles(S, T) -> tuple[FieldBundle, FieldBundle]:
    """Closed-form derivative bundles of the manufactured smooth pair."""
    S, T = np.asarray(S, dtype=float), np.asarray(T, dtype=float)
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
    bz = FieldBundle(f=0.5 * (S + T) + 0.5 * q * sn, s=0.5 + 0.5 * qp * sn,
                     t=0.5 + 0.5 * q * snp, ss=0.5 * qpp * sn, tt=0.5 * q * snpp)
    return bu, bz


def manufactured_forcing(S, T, alpha: float):
    """Exact forcing that the manufactured pair induces in the coupled system."""
    bu, bz = manufactured_bundles(S, T)
    return residuals_from_bundles(bu, bz, alpha)


def exactness_forcing(w: RealWave, linearized: bool = False):
    """Forcing that turns the closed-form soliton into an exact solution.

    The returned callable gives ``(-r1, -r2)``, the negated closed-form
    residuals in the coupled system, ``linearized`` or not, so a run of
    :func:`relaxwave.sim.evolve_system19` with the same ``linearized`` forced
    with it tracks the closed form to pure discretization error.  ``tau``
    broadcasts against ``sigma``: a ``(B, 1)`` column of times gives
    ``(B, n)`` arrays, row ``b`` bit for bit the call at ``tau[b, 0]``.
    """

    def forcing(sigma: np.ndarray, tau):
        bu, bz = real_bundles(w, sigma, tau)
        r1, r2 = residuals_from_bundles(bu, bz, w.alpha, linearized)
        return -np.asarray(r1, dtype=float), -np.asarray(r2, dtype=float)

    return forcing


def manufactured_selftest() -> SelftestReport:
    """Calibrate the verifier against fields whose residual is known exactly.

    At ``alpha = 0.3``, zero fields must give an exactly zero residual, and
    the two finite-difference paths must converge to
    :func:`manufactured_forcing` at their nominal orders (error ratios within
    20 percent of 4 and 16 under step halving).  Those ratios are the
    run-time check of the analytic forcing: a wrong closed-form bundle makes
    the FD error level off at the bundle's error, so its ratio falls to
    about 1.  The analytic path is :func:`manufactured_forcing`'s own
    expression on the same bundles, so ``analytic_max_error`` is 0 by
    construction and only has to stay below 1e-10;
    ``tests/test_exact_residual.py`` checks the forcing against a sympy
    derivation from :func:`manufactured_u` and :func:`manufactured_Z`.
    """
    alpha = 0.3
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
