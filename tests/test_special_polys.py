"""Hermite and Hahn evaluators against symbolic and exact-rational oracles."""

import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from watermelon.errors import DomainError, ParityError, PoleError
from watermelon.special_polys import (
    _lattice_family,
    hahn,
    hahn_exact,
    hahn_ratios,
    hermite,
    hermite_normalized,
    rescaled_hahn_G,
)


def rodrigues_hermite(j):
    """Symbolic-differentiation oracle: (-1)^j e^{y^2} d^j/dy^j e^{-y^2}."""
    y = sympy.Symbol("y")
    expr = (-1) ** j * sympy.exp(y**2) * sympy.diff(sympy.exp(-(y**2)), y, j)
    return sympy.expand(expr)


class TestHermite:
    def test_degree_zero(self):
        assert hermite(0, 3.7) == 1

    def test_degree_two(self):
        assert hermite(2, 1.0) == 2.0

    def test_degree_three_symbolic(self):
        # H_3(y) = 8y^3 - 12y by the Rodrigues oracle
        poly = rodrigues_hermite(3)
        y = sympy.Symbol("y")
        assert float(poly.subs(y, sympy.Rational(1, 2))) == -5.0
        assert hermite(3, 0.5) == -5.0

    @pytest.mark.parametrize("j", [1, 2, 4, 5, 7])
    def test_rodrigues_match(self, j):
        poly = rodrigues_hermite(j)
        y = sympy.Symbol("y")
        for val in (-2, Fraction(1, 3), 0, 1, Fraction(7, 2)):
            expected = Fraction(str(poly.subs(y, sympy.Rational(val))))
            assert hermite(j, Fraction(val)) == expected

    @given(st.integers(0, 19), st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_residual(self, j, y):
        h0, h1, h2 = hermite(j, y), hermite(j + 1, y), hermite(j + 2, y)
        residual = abs(h2 - 2 * y * h1 + 2 * (j + 1) * h0)
        assert residual <= 1e-9 * max(1.0, abs(h2))

    def test_negative_degree(self):
        with pytest.raises(DomainError):
            hermite(-1, 0.0)


class TestHermiteNormalized:
    def test_degree_zero(self):
        assert hermite_normalized(0, 0.0) == pytest.approx(math.pi ** -0.25)

    def test_degree_one(self):
        assert hermite_normalized(1, 1.0) == pytest.approx(2 / math.sqrt(2 * math.sqrt(math.pi)))

    def test_degree_two_at_zero(self):
        assert hermite_normalized(2, 0.0) == pytest.approx(-2 / math.sqrt(8 * math.sqrt(math.pi)))


class TestHahn:
    def test_degree_zero(self):
        assert hahn(0, 4.2, 1.0, 2.0, 9) == 1.0

    def test_degree_one_closed_form(self):
        # 1 - (alpha + beta + 2) x / ((alpha + 1) M)
        p = (1, 2, 3, 4, 10)
        assert hahn(*p) == pytest.approx(1 - (3 + 4 + 2) * 2 / ((3 + 1) * 10))
        assert hahn_exact(*p) == 1 - Fraction((3 + 4 + 2) * 2, (3 + 1) * 10)

    def test_x_zero_terminates(self):
        for j in (1, 2, 5):
            assert hahn(j, 0, 1.5, 2.5, 9) == 1.0

    def test_pole_error(self):
        # alpha = -2 makes (alpha + 1)_m vanish at m = 1... m=1 term: alpha+1 = -1 no;
        # alpha = -1 vanishes immediately
        with pytest.raises(PoleError):
            hahn(2, 5, -1.0, 2.0, 9)

    def test_pole_from_small_M(self):
        # (-M)_m vanishes at m = M + 1 before the series ends
        with pytest.raises(PoleError):
            hahn(3, 7, 1.0, 1.0, 2)

    def test_negative_degree_raises(self):
        # the degree check sits in hahn_ratios, which the kernel shares
        for evaluate in (hahn, hahn_exact):
            with pytest.raises(DomainError, match="nonnegative"):
                evaluate(-1, 2, 3, 4, 10)
        with pytest.raises(DomainError, match="nonnegative"):
            hahn_ratios(-1, 3, 4, 10)

    @staticmethod
    def _series_oracle(j, x, alpha, beta, m_par):
        """Test-local exact series: Pochhammer products term by term."""

        def poch(a, m):
            out = Fraction(1)
            for i in range(m):
                out *= a + i
            return out

        total = Fraction(0)
        scale = Fraction(0)
        for m in range(j + 1):
            den = poch(alpha + 1, m) * poch(-m_par, m) * math.factorial(m)
            if den == 0:
                if poch(-j, m) * poch(-x, m) != 0:
                    raise PoleError("oracle pole")
                break
            term = Fraction(
                poch(-j, m) * poch(j + alpha + beta + 1, m) * poch(-x, m)
            ) / den
            total += term
            scale = max(scale, abs(term))
        return total, scale

    @given(
        st.integers(0, 8),
        st.integers(-50, 50),
        st.integers(-50, 50).filter(lambda a: a < -9 or a > 0),
        st.integers(-50, 50),
        st.integers(9, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_float_matches_exact(self, j, x, alpha, beta, m_par):
        p = (j, x, alpha, beta, m_par)
        try:
            expected, scale = self._series_oracle(*p)
        except PoleError:
            with pytest.raises(PoleError):
                hahn(*p)
            return
        assert hahn_exact(*p) == expected
        # float path: relative accuracy measured against the largest term,
        # since alternating sums may cancel exactly to zero
        tol = 1e-12 * float(max(abs(expected), scale, 1))
        assert abs(hahn(*p) - float(expected)) <= tol

    @pytest.mark.parametrize(
        "j,x,a,b,m_par",
        [(2, 3, 1.5, 2.5, 8), (3, 5, 0.5, 0.25, 11), (4, 2, 2.0, 3.0, 6)],
    )
    def test_mpmath_oracle(self, j, x, a, b, m_par):
        ref = float(
            mpmath.hyp3f2(-j, j + a + b + 1, -x, a + 1, -m_par, 1.0)
        )
        assert hahn(j, x, a, b, m_par) == pytest.approx(ref, rel=1e-10)


def _term_by_term_exact(p):
    """The former exact route: the series in Fractions, term by term."""
    j = p[0]
    x, a, b, M = map(Fraction, p[1:])
    term = total = Fraction(1)
    for m in range(1, j + 1):
        num = (m - 1 - j) * (j + a + b + m) * (m - 1 - x)
        if num == 0:
            break
        den = (a + m) * (m - 1 - M) * m
        if den == 0:
            raise PoleError(f"denominator Pochhammer vanished at m={m} for {p}")
        term = term * num / den
        total = total + term
    return total


_RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


class TestHahnExactHorner:
    """Integer Horner evaluation against the term-by-term Fraction series."""

    @given(
        st.integers(0, 7),
        st.one_of(_RATIONALS, st.integers(0, 7)),  # small integer x terminates early
        st.one_of(_RATIONALS, st.integers(-8, -1)),  # negative integer alpha: pole
        _RATIONALS,
        st.one_of(_RATIONALS, st.integers(0, 7)),  # small integer M: pole
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_term_by_term_series(self, j, x, alpha, beta, m_par):
        p = (j, x, alpha, beta, m_par)
        try:
            want = _term_by_term_exact(p)
        except PoleError:
            with pytest.raises(PoleError):
                hahn_exact(*p)
            return
        got = hahn_exact(*p)
        assert type(got) is Fraction and got == want

    @pytest.mark.parametrize("p", [
        (2, Fraction(5, 3), -1, Fraction(1, 2), 9),  # pole at m = 1
        (3, Fraction(7, 2), Fraction(1, 3), 1, 2),  # pole at m = 3
        (4, Fraction(9, 4), -2, Fraction(2, 3), Fraction(7, 2)),  # pole at m = 2
    ])
    def test_pole_cases(self, p):
        with pytest.raises(PoleError):
            _term_by_term_exact(p)
        with pytest.raises(PoleError):
            hahn_exact(*p)

    @pytest.mark.parametrize("p", [
        (2, 0, -1, 5, 9),  # terminates at m = 1, before the alpha pole
        (3, 1, Fraction(1, 2), 2, 1),  # terminates at m = 2, before the M pole
        (3, Fraction(1, 2), Fraction(1, 3), Fraction(-5, 4), Fraction(7, 6)),
        (5, 3.0, Fraction(-1, 2), 2, 11.0),  # integral floats are exact
    ])
    def test_fixed_cases(self, p):
        assert hahn_exact(*p) == _term_by_term_exact(p)

    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf])
    def test_non_rational_float_raises(self, bad):
        with pytest.raises(DomainError):
            hahn_exact(2, bad, 1, 2, 9)


def _family_at(tilde, j, n, x, d, n_star, x_star):
    """Hahn arguments (j, k, alpha, beta, M) of the P family (P~ when
    `tilde`) at (n, x): `_lattice_family` at time n, k = (x - lo) / 2."""
    lo, alpha, beta, M = _lattice_family(tilde, n, d, n_star, x_star)
    return j, (x - lo) // 2, alpha, beta, M


class TestEndpointFamilies:
    def test_degree_zero_everywhere(self):
        assert hahn_exact(*_family_at(False, 0, 2, 0, 2, 4, 0)) == 1.0
        assert hahn_exact(*_family_at(True, 0, 2, 0, 2, 4, 0)) == 1.0

    def test_reflected_at_origin(self):
        # at (n, x) = (0, 0) the reflected family evaluates at (n*-x*)/2
        for j in (1, 2):
            direct = hahn_exact(
                j,
                Fraction(6 - 2, 2),
                Fraction(-(6 - 2), 2) - 2,
                Fraction(-(6 + 2), 2) - 2,
                6 + 2 - 1,
            )
            assert hahn_exact(*_family_at(True, j, 0, 0, 2, 6, 2)) == direct

    @pytest.mark.parametrize("tilde", [False, True], ids=["P", "P_tilde"])
    def test_odd_lattice_sum_raises(self, tilde):
        # n_star + x_star odd; an off-parity point (n, x) is the kernel's
        # check (test_kernels.py, TestDiscreteKernel::test_parity_error)
        with pytest.raises(ParityError):
            _lattice_family(tilde, 2, 2, 7, 0)

    @pytest.mark.parametrize("tilde", [False, True], ids=["P", "P_tilde"])
    def test_parameters_are_integers(self, tilde):
        assert all(type(v) is int for v in _lattice_family(tilde, 3, 3, 8, -2))

    def test_degree_one_example(self):
        # d=2, n*=4, x*=0, (n,x)=(2,0): argument 1, top parameters -4, -4
        val = hahn_exact(*_family_at(False, 1, 2, 0, 2, 4, 0))
        assert val == 1 - Fraction((-4 - 4 + 2) * 1, (-4 + 1) * 3)


class TestRescaledFamily:
    def test_degree_zero_is_one(self):
        for m_par in (10, 1000):
            assert rescaled_hahn_G(0, 0.3, m_par, 0.5, 0.0, -2.0) == 1.0

    def test_symmetric_example(self):
        # the stated convergence target with a square-root ceiling
        g = rescaled_hahn_G(2, 0.3, 10_000, 0.5, 0.0, -2.0)
        assert abs(g - (-1.64)) <= 0.05  # C M^{-1/2} with a generous C

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rescaled_hahn_G(1, 0.0, 100, 1.5, 0.0, -2.0)  # p outside (0, 1)
        with pytest.raises(DomainError):
            # gamma in (-1, 0): 1 + 1/gamma < 0, which is also exactly where
            # the radicand gamma/(1+gamma) would go negative
            rescaled_hahn_G(1, 0.0, 100, 0.5, 0.0, -0.5)
        with pytest.raises(DomainError):
            rescaled_hahn_G(5, 0.0, 3, 0.5, 0.0, -2.0)  # M < j

    def test_slope_window(self):
        import numpy as np

        m_list = [100, 1000, 10_000, 100_000]
        for j in (1, 3):
            errs = [
                abs(rescaled_hahn_G(j, 0.3, M, 0.5, 0.4, -2.0) - float(hermite(j, 0.3)))
                for M in m_list
            ]
            slope = float(np.polyfit(np.log(m_list), np.log(errs), 1)[0])
            assert -0.7 <= slope <= -0.3
