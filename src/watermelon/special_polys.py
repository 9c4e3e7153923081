"""Hermite and Hahn orthogonal polynomials and the rescaled Hahn family.

All functions here are pure; they may be called freely from concurrent
workers.  The Hahn series has one form: :func:`hahn_ratios` gives the
x-free factors of its term ratios once per (j, alpha, beta, M), and one
evaluator per arithmetic runs the series at any x from them, compensated
floating-point summation (:func:`hahn_series`) or, for rational arguments,
Horner's rule over integers (:func:`hahn_series_exact`, the oracle path
that quantifies cancellation in the float path).  `hahn` and `hahn_exact`
wrap them for one value.  `_lattice_family` gives the integer parameters
of the kernel's endpoint families P and P~ per time, which the discrete
kernel caches.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError, ParityError, PoleError

Real = Union[int, float, Fraction]


def hermite(j: int, y: Real) -> Real:
    """Physicists' Hermite polynomial H_j(y).

    Uses the three-term recurrence H_{j+1} = 2y H_j - 2j H_{j-1}, which is
    exact to machine precision for the degrees used here (j <= 64).  The
    recurrence has integer coefficients, so exact input types (int,
    Fraction) propagate to the result.
    """
    if j < 0:
        raise DomainError("Hermite degree must be nonnegative")
    if j > 64:
        raise DomainError("degrees above 64 are out of scope")
    if j == 0:
        return y * 0 + 1
    h_prev: Real = y * 0 + 1
    h: Real = 2 * y
    for k in range(1, j):
        h_prev, h = h, 2 * y * h - 2 * k * h_prev
    return h


def hermite_normalized(j: int, y):
    """H_j(y) / sqrt(sqrt(pi) * j! * 2^j), elementwise on arrays."""
    norm = math.sqrt(math.sqrt(math.pi) * math.factorial(j) * 2.0**j)
    return hermite(j, y) / norm


def hahn_ratios(j: int, alpha, beta, M, L: int = 1) -> list[tuple]:
    """The x-free factors (c_m, e_m), m = 1..j, of the Hahn term ratios.

    The terminating 3F2-type sum at unit argument,
        sum_m (-j)_m (j+alpha+beta+1)_m (-x)_m / ((alpha+1)_m (-M)_m m!),
    has term ratio r_m = (m-1-j) (j+alpha+beta+m) (m-1-x) / ((alpha+m) (m-1-M) m)
    = c_m ((m-1) - x) / e_m.  With integer arguments over one common
    denominator L (x, alpha, beta, M the numerators) the L^2 of numerator and
    denominator cancels, c_m = (m-1-j) ((j+m) L + alpha + beta) and
    e_m = (alpha + m L) ((m-1) L - M) m are integers and the x factor is
    (m-1) L - x.  Float arguments (L = 1) give the factors in the float
    operation order of the ratio above.  One list serves every x.  A
    negative degree j raises DomainError.
    """
    if j < 0:
        raise DomainError("Hahn degree must be nonnegative")
    if isinstance(alpha, float):
        return [((m - 1 - j) * (j + alpha + beta + m), (alpha + m) * (m - 1 - M) * m)
                for m in range(1, j + 1)]
    return [((m - 1 - j) * ((j + m) * L + alpha + beta), (alpha + m * L) * ((m - 1) * L - M) * m)
            for m in range(1, j + 1)]


def _pole(m: int) -> PoleError:
    return PoleError(f"denominator Pochhammer vanished at m={m}")


def hahn_series(ratios: list[tuple], x: float) -> float:
    """The Hahn sum at x from float :func:`hahn_ratios`, Kahan-compensated.

    A zero numerator terminates the series; a zero denominator before that
    is a pole.
    """
    term = total = 1.0
    comp = 0.0
    for m, (c, e) in enumerate(ratios):
        num = c * (m - x)
        if num == 0:
            break
        if e == 0:
            raise _pole(m + 1)
        term = term * num / e
        yk = term - comp
        t = total + yk
        comp = (t - total) - yk
        total = t
    return total


def hahn_series_exact(ratios: list[tuple[int, int]], x: int, L: int = 1) -> tuple[int, int]:
    """The Hahn sum at x from integer :func:`hahn_ratios`, as (top, bottom).

    x is the numerator over L.  Horner's rule, 1 + r_1 (1 + r_2 (1 + ...)),
    runs over integers up to the first zero numerator; `bottom` is the
    product of the denominators used, never 0.  Poles are those of
    :func:`hahn_series`.
    """
    terms = []
    for m, (c, e) in enumerate(ratios):
        num = c * (m * L - x)
        if num == 0:
            break
        if e == 0:
            raise _pole(m + 1)
        terms.append((num, e))
    top = bottom = 1
    for num, e in reversed(terms):
        top, bottom = e * bottom + num * top, e * bottom
    return top, bottom


def hahn(j: int, x: Real, alpha: Real, beta: Real, M: Real) -> float:
    """Hahn polynomial Q_j(x; alpha, beta, M), floating point: :func:`hahn_series`.

    In lattice use x and M are integers with M >= j, so all j+1 terms of
    the series are finite.
    """
    return hahn_series(hahn_ratios(j, float(alpha), float(beta), float(M)), float(x))


def hahn_exact(j: int, x: Real, alpha: Real, beta: Real, M: Real) -> Fraction:
    """Exact rational evaluation of the same terminating sum, one Fraction.

    Requires rational arguments; used as the oracle for :func:`hahn`.  The
    arguments go over their common denominator L, then
    :func:`hahn_series_exact`.
    """
    vals = []
    for v in (x, alpha, beta, M):
        if isinstance(v, float) and not v.is_integer():
            raise DomainError("exact path needs rational arguments")
        vals.append(v if type(v) is int else Fraction(v))
    L = math.lcm(*(v.denominator for v in vals))
    x, a, b, M = (v.numerator * (L // v.denominator) for v in vals)
    return Fraction(*hahn_series_exact(hahn_ratios(j, a, b, M, L), x, L))


def _half(v: int) -> int:
    if v % 2 != 0:
        raise ParityError(f"lattice sum {v} is odd")
    return v // 2


def _lattice_family(tilde: bool, n: int, d: int, n_star: int, x_star: int):
    """(lo, alpha, beta, M) of the P family (P~ when `tilde`) at time n.

    The family's Hahn argument at position x is (x - lo) / 2, with lo the
    lowest position a walk from 0 (from x_star, for P~) reaches at n.  The
    lattice-size parameter M is the elapsed time n + d - 1 for P and the
    remaining time n_star - n + d - 1 for P~; this choice is forced by the
    exact enumeration oracle.
    """
    if tilde:
        return (x_star - (n_star - n), -_half(n_star - x_star) - d,
                -_half(n_star + x_star) - d, n_star - n + d - 1)
    return -n, -_half(n_star + x_star) - d, -_half(n_star - x_star) - d, n + d - 1


def rescaled_hahn_G(j: int, y: float, M: int, p: float, c: float, gamma: float) -> float:
    """Rescaled Hahn value converging to H_j(y) at rate O(M^{-1/2}).

    Parameters follow the critical scaling window: p_M = p + c M^{-1/2},
    evaluation point p_M*M + y*sqrt(2p(1-p)M(1+1/gamma)) and top parameters
    gamma*p_M*M, gamma*(1-p_M)*M.  The admissible O(1) shifts in those three
    parameters are all taken to be zero (the canonical choice).
    """
    if not 0.0 < p < 1.0:
        raise DomainError("need 0 < p < 1")
    if gamma == 0.0 or 1.0 + 1.0 / gamma <= 0.0:
        raise DomainError("need gamma != 0 with 1 + 1/gamma > 0")
    if M < j:
        raise DomainError("need M >= j")

    ratio = gamma / (1.0 + gamma)
    if ratio < 0.0 and j % 2 == 1:
        raise DomainError("negative radicand: parameters outside the scaling regime")

    p_m = p + c / math.sqrt(M)
    y_m = p_m * M + y * math.sqrt(2.0 * p * (1.0 - p) * M * (1.0 + 1.0 / gamma))
    alpha_m = gamma * p_m * M
    beta_m = gamma * (1.0 - p_m) * M

    # binomial and factorial inside the prefactor via log-gamma, exponentiated once
    log_mag = (
        math.lgamma(M + 1) - math.lgamma(j + 1) - math.lgamma(M - j + 1)
        + j * math.log(2.0)
        + math.lgamma(j + 1)
        + j * (math.log(p / (1.0 - p)) + math.log(abs(ratio)))
    )
    prefactor = (-1.0) ** j * math.exp(0.5 * log_mag)
    q = hahn(j, y_m, alpha_m, beta_m, M)
    return prefactor * q
