"""Bilinear derivative algebra on exponential atoms and the two-line residuals."""

import numpy as np
import pytest

from relaxwave import (
    DomainError,
    ExpAtom,
    TauFunction,
    VARIANTS,
    bilinear_residual,
    d_op,
    solve_real,
)
from relaxwave.hirota import _line_terms

from helpers import (
    G_024_01,
    LINE1_E_LINEAR,
    LINE1_E_SQUARED,
    LINE2_E2,
    LINE2_NORMALIZED,
    d_op_fd,
)


def atom_fn(c, a, b):
    return TauFunction.from_atoms([ExpAtom(c, a, b)])


def test_atom_rule_single_pair():
    # D_sigma on two pure-sigma exponentials gives (a-b) times the product
    f = atom_fn(1.0, 0.7, 0.0)
    g = atom_fn(1.0, 0.2, 0.0)
    out = d_op(1, 0, f, g)
    assert len(out.atoms) == 1
    at = out.atoms[0]
    assert at.coeff == pytest.approx(0.5, abs=1e-15)
    assert at.a == pytest.approx(0.9, abs=1e-15)
    assert at.b == 0.0


def test_atom_rule_second_order_against_constant():
    k, om = 0.3, 0.1
    out = d_op(2, 0, atom_fn(1.0, 0.0, 0.0), atom_fn(1.0, 2.0 * k, -2.0 * om))
    at = out.atoms[0]
    assert at.coeff == pytest.approx(4.0 * k * k, rel=1e-15)
    assert (at.a, at.b) == (2.0 * k, -2.0 * om)


def test_odd_order_antisymmetry_is_exact():
    f = TauFunction.from_atoms([ExpAtom(1.0, 0.5, -0.2), ExpAtom(0.7, -0.3, 0.4),
                                ExpAtom(-0.2, 0.1, 0.9)])
    for (m, n) in ((1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (3, 2)):
        assert d_op(m, n, f, f).atoms == ()


def test_argument_swap_parity():
    rng = np.random.default_rng(31)
    for _ in range(30):
        f = TauFunction.from_atoms(
            [ExpAtom(*rng.uniform(-1.0, 1.0, 3)) for _ in range(3)])
        g = TauFunction.from_atoms(
            [ExpAtom(*rng.uniform(-1.0, 1.0, 3)) for _ in range(2)])
        m = int(rng.integers(0, 3))
        n = int(rng.integers(0, 3))
        s, t = rng.uniform(-1.0, 1.0, 2)
        lhs = d_op(m, n, f, g)(s, t)
        rhs = (-1.0) ** (m + n) * d_op(m, n, g, f)(s, t)
        assert lhs == pytest.approx(rhs, abs=1e-13 * max(1.0, abs(lhs)))


def test_bilinearity_in_first_argument():
    rng = np.random.default_rng(32)
    f1 = TauFunction.from_atoms([ExpAtom(*rng.uniform(-1.0, 1.0, 3)) for _ in range(2)])
    f2 = TauFunction.from_atoms([ExpAtom(*rng.uniform(-1.0, 1.0, 3)) for _ in range(2)])
    g = TauFunction.from_atoms([ExpAtom(*rng.uniform(-1.0, 1.0, 3)) for _ in range(2)])
    s, t = 0.4, -0.7
    for (m, n) in ((1, 0), (1, 1), (2, 0), (0, 2)):
        whole = d_op(m, n, f1 + f2, g)(s, t)
        parts = d_op(m, n, f1, g)(s, t) + d_op(m, n, f2, g)(s, t)
        assert whole == pytest.approx(parts, abs=1e-13 * max(1.0, abs(whole)))


def test_zero_order_is_plain_product():
    f = atom_fn(1.2, 0.5, -0.3)
    g = atom_fn(0.8, -0.1, 0.2)
    s, t = 0.7, 0.4
    assert d_op(0, 0, f, g)(s, t) == pytest.approx(f(s, t) * g(s, t), rel=1e-15)


def test_order_bound_and_validation():
    f = atom_fn(1.0, 0.1, 0.2)
    with pytest.raises(DomainError):
        d_op(5, 4, f, f)
    with pytest.raises(DomainError):
        d_op(-1, 0, f, f)
    with pytest.raises(DomainError):
        d_op_fd(9, 0, f, f, 0.0, 0.0)


def test_atom_rule_matches_shifted_argument_definition():
    # closed form vs direct finite differences of the doubled-variable form
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(0, 5 - m))
        if m + n == 0:
            m = 1
        c1, c2 = rng.uniform(0.3, 2.0, 2)
        a1, b1, a2, b2 = rng.uniform(-1.2, 1.2, 4)
        f = atom_fn(c1, a1, b1)
        g = atom_fn(c2, a2, b2)
        s0, t0 = rng.uniform(-0.8, 0.8, 2)
        closed = float(d_op(m, n, f, g)(s0, t0))
        fd = d_op_fd(m, n, f, g, s0, t0)
        scale = max(abs(closed),
                    c1 * c2 * float(np.exp((a1 + a2) * s0 + (b1 + b2) * t0)))
        worst = max(worst, abs(fd - closed) / scale)
    assert worst < 1e-7


def test_fd_antisymmetry_on_identical_arguments():
    f = TauFunction.from_atoms([ExpAtom(1.0, 0.5, -0.2), ExpAtom(0.7, -0.3, 0.4)])
    for (m, n) in ((1, 0), (0, 1), (1, 2), (3, 0)):
        assert abs(d_op_fd(m, n, f, f, 0.3, -0.2)) < 1e-13


def test_fd_accepts_plain_callables():
    def f(s, t):
        return np.exp(0.4 * s - 0.1 * t)

    def g(s, t):
        return np.exp(-0.2 * s + 0.3 * t)

    closed = float(d_op(1, 1, atom_fn(1.0, 0.4, -0.1), atom_fn(1.0, -0.2, 0.3))(0.2, 0.5))
    assert d_op_fd(1, 1, f, g, 0.2, 0.5) == pytest.approx(closed, rel=1e-8)


def expected_line_coeffs(w, variant):
    # hand reduction: with F = 1+E, G = g*E, g = 8*(k+omega)**2 and the
    # solved relation 4*(k**2-omega**2)+2*alpha*(k-omega) = 1, line 1
    # collapses to c1*E - g*E**2 and line 2 to a pure E**2 term.
    k, om, a = w.k, w.omega, w.alpha
    g = 8.0 * (k + om) ** 2
    if variant == "squared-alpha":
        c1 = 2.0 * a * (k - om) * (2.0 * (k - om) - 1.0) * g
    else:
        c1 = -4.0 * a * (k - om) * g
    return g, c1, -g, -(g * g / 2.0 + g)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("v,alpha", [(0.24, 0.1), (0.4, 0.9)])
def test_bilinear_lines_closed_form(variant, v, alpha):
    w = solve_real(v, alpha)
    g, c1, c2, d2 = expected_line_coeffs(w, variant)
    line1, line2 = (sum(terms[1:], terms[0]) for terms in _line_terms(w, variant))
    got1 = {(at.a, at.b): at.coeff for at in line1.atoms}
    got2 = {(at.a, at.b): at.coeff for at in line2.atoms}
    kE = (2.0 * w.k, -2.0 * w.omega)
    kE2 = (4.0 * w.k, -4.0 * w.omega)
    assert set(got1) <= {kE, kE2}
    assert got1.get(kE, 0.0) == pytest.approx(c1, rel=1e-11, abs=1e-13)
    assert got1[kE2] == pytest.approx(c2, rel=1e-12)
    # line 2's E coefficient cancels identically (up to round-off in the
    # split evaluation), no dispersion relation needed
    assert set(got2) <= {kE, kE2}
    assert got2.get(kE, 0.0) == pytest.approx(0.0, abs=1e-13)
    assert got2[kE2] == pytest.approx(d2, rel=1e-12)


def test_bilinear_line_reference_coefficients():
    w = solve_real(0.24, 0.1)
    g, c1s, _, d2 = expected_line_coeffs(w, "squared-alpha")
    _, c1l, _, _ = expected_line_coeffs(w, "linear-alpha")
    assert g == pytest.approx(G_024_01, abs=1e-14)
    assert c1s == pytest.approx(LINE1_E_SQUARED, abs=1e-14)
    assert c1l == pytest.approx(LINE1_E_LINEAR, abs=1e-14)
    assert d2 == pytest.approx(LINE2_E2, abs=1e-13)


def test_bilinear_residual_report_values():
    w = solve_real(0.24, 0.1)
    rep = bilinear_residual(w, "squared-alpha")
    # the second line's normalized sup settles at 1 + 2/g on a wide grid
    assert rep.line2_linf == pytest.approx(LINE2_NORMALIZED, rel=1e-5)
    assert rep.line2_linf == pytest.approx(1.0 + 2.0 / G_024_01, rel=1e-5)
    assert rep.line1_linf == pytest.approx(1.0, rel=1e-4)
    assert rep.line1_normalization > 0.0
    assert rep.line2_normalization > 0.0
    assert rep.n_sigma == rep.n_tau == 101


def test_bilinear_variants_coincide_without_dissipation():
    w = solve_real(0.3, 0.0)
    sq = bilinear_residual(w, "squared-alpha")
    ln = bilinear_residual(w, "linear-alpha")
    assert abs(sq.line1_linf - ln.line1_linf) < 1e-15
    assert abs(sq.line2_linf - ln.line2_linf) < 1e-15


def test_bilinear_residual_validation():
    w = solve_real(0.24, 0.1)
    with pytest.raises(DomainError):
        bilinear_residual(w, "no-such-variant")
