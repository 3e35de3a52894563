"""Bilinear derivative operators on finite sums of exponentials.

The bilinear derivative ``D_sigma^m D_tau^n (f.g)`` is defined through
shifted arguments:

    D_sigma^m D_tau^n (f.g) =
        d^m/de^m d^n/dd^n [ f(sigma+e, tau+d) * g(sigma-e, tau-d) ]  at e=d=0.

On a pair of exponential atoms ``c1*exp(a1*sigma + b1*tau)`` and
``c2*exp(a2*sigma + b2*tau)`` this action has the closed form

    c1*c2 * (a1-a2)**m * (b1-b2)**n * exp((a1+a2)*sigma + (b1+b2)*tau),

so all operator algebra here stays inside :class:`TauFunction`, a finite sum
of such atoms.  ``tests/helpers.py`` evaluates the shifted-argument
definition by central differences, the independent cross-check of the
closed form.

:func:`tau_pair` gives the one-soliton's tau functions as such sums, and
``bilinear_residual`` measures how far that pair is from
annihilating the two bilinear lines of the coupled characteristic system,
under both conventional readings of the dissipative term (the mixed operator
``alpha*(D_sigma + D_tau)**2`` and the linear ``alpha*(D_sigma + D_tau)``).
The reported numbers are measurements, not asserted zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

from .dispersion import RealWave
from .errors import DomainError

_MAX_DOP_ORDER = 8
_BILINEAR_RANGE = (-10.0, 10.0)
_BILINEAR_NODES = 101

VARIANTS = ("squared-alpha", "linear-alpha")


@dataclass(frozen=True)
class ExpAtom:
    """One exponential atom ``coeff * exp(a*sigma + b*tau)``."""

    coeff: float
    a: float
    b: float


@dataclass(frozen=True)
class TauFunction:
    """A finite sum of exponential atoms, closed under the operator algebra."""

    atoms: tuple[ExpAtom, ...]

    @classmethod
    def from_atoms(cls, atoms) -> "TauFunction":
        """Merge atoms sharing an exponent pair; drop exact-zero coefficients."""
        merged: dict[tuple[float, float], float] = {}
        for at in atoms:
            key = (at.a, at.b)
            merged[key] = merged.get(key, 0.0) + at.coeff
        kept = tuple(ExpAtom(c, a, b) for (a, b), c in merged.items() if c != 0.0)
        return cls(atoms=kept)

    def __call__(self, sigma, tau):
        sigma = np.asarray(sigma, dtype=float)
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(np.broadcast(sigma, tau).shape)
        for at in self.atoms:
            out += at.coeff * np.exp(at.a * sigma + at.b * tau)
        if out.ndim == 0:
            return float(out)
        return out

    def __add__(self, other: "TauFunction") -> "TauFunction":
        return TauFunction.from_atoms(self.atoms + other.atoms)

    def __neg__(self) -> "TauFunction":
        return self.scale(-1.0)

    def __sub__(self, other: "TauFunction") -> "TauFunction":
        return self + (-other)

    def scale(self, c: float) -> "TauFunction":
        return TauFunction.from_atoms(ExpAtom(c * at.coeff, at.a, at.b)
                                      for at in self.atoms)

    def __mul__(self, other):
        if isinstance(other, TauFunction):
            return d_op(0, 0, self, other)
        return self.scale(float(other))


@dataclass(frozen=True)
class TauPair:
    """The tau-function pair whose ratio and log-derivative rebuild ``(u, Z)``."""

    F: TauFunction
    G: TauFunction


def tau_pair(w: RealWave) -> TauPair:
    """Tau pair ``F = 1 + E``, ``G = 8*(omega+k)**2*E`` with ``E = exp(2*theta)``."""
    c = exp(2.0 * w.theta0)
    a, b = 2.0 * w.k, -2.0 * w.omega
    F = TauFunction.from_atoms([ExpAtom(1.0, 0.0, 0.0), ExpAtom(c, a, b)])
    G = TauFunction.from_atoms([ExpAtom(8.0 * (w.omega + w.k) ** 2 * c, a, b)])
    return TauPair(F=F, G=G)


def d_op(m: int, n: int, f: TauFunction, g: TauFunction) -> TauFunction:
    """Closed-form bilinear derivative ``D_sigma^m D_tau^n (f.g)``.

    ``m + n <= 8`` is enforced as a practical bound; higher orders are never
    needed by the bilinear lines and magnify round-off without bound.
    """
    if m < 0 or n < 0:
        raise DomainError(f"derivative orders must be nonnegative, got ({m}, {n})")
    if m + n > _MAX_DOP_ORDER:
        raise DomainError(f"combined order m+n must not exceed {_MAX_DOP_ORDER}, got {m + n}")
    atoms = []
    for fa in f.atoms:
        for ga in g.atoms:
            coeff = fa.coeff * ga.coeff * (fa.a - ga.a) ** m * (fa.b - ga.b) ** n
            atoms.append(ExpAtom(coeff, fa.a + ga.a, fa.b + ga.b))
    return TauFunction.from_atoms(atoms)


@dataclass(frozen=True)
class BilinearReport:
    """Normalized sup-norm residuals of the two bilinear lines on a grid.

    ``line1_linf`` and ``line2_linf`` are normalized by the sup norm of the
    largest individual term of each line so the numbers are scale free;
    the raw normalization constants are reported alongside.
    """

    variant: str
    line1_linf: float
    line2_linf: float
    line1_normalization: float
    line2_normalization: float
    sigma_range: tuple[float, float]
    tau_range: tuple[float, float]
    n_sigma: int
    n_tau: int


def _line_terms(w: RealWave, variant: str):
    if variant not in VARIANTS:
        raise DomainError(f"unknown bilinear variant {variant!r}; expected one of {VARIANTS}")
    pair = tau_pair(w)
    F, G = pair.F, pair.G
    line1_terms = [d_op(2, 0, F, G) - d_op(0, 2, F, G)]
    if variant == "squared-alpha":
        mixed = d_op(2, 0, F, G) + d_op(1, 1, F, G).scale(2.0) + d_op(0, 2, F, G)
        line1_terms.append(mixed.scale(w.alpha))
    else:
        line1_terms.append((d_op(1, 0, F, G) + d_op(0, 1, F, G)).scale(w.alpha))
    line1_terms.append(-(F * G))
    line2_terms = [
        d_op(2, 0, F, F) - d_op(1, 1, F, F).scale(2.0) + d_op(0, 2, F, F),
        (G * G).scale(-0.5),
        -(G * F),
    ]
    return line1_terms, line2_terms


def bilinear_residual(w: RealWave, variant: str = "squared-alpha") -> BilinearReport:
    """Measure both bilinear lines of the one-soliton tau pair on a grid.

    The grid spans ``[-10, 10]`` on both axes with 101 by 101 nodes.

    The residual values are findings about the closed forms under test, not
    asserted zeros.
    """
    line1_terms, line2_terms = _line_terms(w, variant)
    axis = np.linspace(*_BILINEAR_RANGE, _BILINEAR_NODES)
    S, T = np.meshgrid(axis, axis, indexing="ij")

    def normalized_linf(terms) -> tuple[float, float]:
        vals = [t(S, T) for t in terms]
        norm = max(float(np.max(np.abs(v))) for v in vals)
        total = np.zeros_like(S)
        for v in vals:
            total += v
        linf = float(np.max(np.abs(total)))
        if norm == 0.0:
            return 0.0, 0.0
        return linf / norm, norm

    l1, n1 = normalized_linf(line1_terms)
    l2, n2 = normalized_linf(line2_terms)
    return BilinearReport(
        variant=variant,
        line1_linf=l1,
        line2_linf=l2,
        line1_normalization=n1,
        line2_normalization=n2,
        sigma_range=_BILINEAR_RANGE,
        tau_range=_BILINEAR_RANGE,
        n_sigma=_BILINEAR_NODES,
        n_tau=_BILINEAR_NODES,
    )
