"""Hermite and Hahn orthogonal polynomials and the rescaled Hahn family.

All functions here are pure; they may be called freely from concurrent
workers.  The Hahn evaluator ships two backends: compensated floating-point
summation for general arguments, and for rational arguments an exact
Horner evaluation over integers that makes one Fraction per value (the
oracle path, used to quantify cancellation in the float path).  The lattice
parameter builders `_p_params` and `_p_tilde_params` give integer arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class HahnParams:
    """Arguments of the terminating Hahn series Q_j(x; alpha, beta, M).

    In lattice use x and M are integers with M >= j, so all j+1 terms of
    the series are finite.
    """

    j: int
    x: Real
    alpha: Real
    beta: Real
    M: Real

    def __post_init__(self):
        if self.j < 0:
            raise DomainError("Hahn degree must be nonnegative")


def hahn(params: HahnParams) -> float:
    """Hahn polynomial Q_j(x, alpha, beta, M), floating point.

    The terminating 3F2-type sum at unit argument,
        sum_m (-j)_m (j+alpha+beta+1)_m (-x)_m / ((alpha+1)_m (-M)_m m!),
    accumulated through the term ratio
        (m-1-j) (j+alpha+beta+m) (m-1-x)  /  ((alpha+m) (m-1-M) m)
    with Kahan-compensated summation.  A zero numerator factor terminates
    the series; a zero denominator factor before that is a pole.
    """
    p = params
    j = p.j
    x, a, b, M = float(p.x), float(p.alpha), float(p.beta), float(p.M)
    term = total = 1.0
    comp = 0.0
    for m in range(1, j + 1):
        num = (m - 1 - j) * (j + a + b + m) * (m - 1 - x)
        if num == 0:
            break
        den = (a + m) * (m - 1 - M) * m
        if den == 0:
            raise PoleError(
                f"denominator Pochhammer vanished at m={m} for {p}"
            )
        term = term * num / den
        yk = term - comp
        t = total + yk
        comp = (t - total) - yk
        total = t
    return total


def hahn_exact(params: HahnParams) -> Fraction:
    """Exact rational evaluation of the same terminating sum.

    Requires rational arguments; used as the oracle for :func:`hahn`.  With
    x, alpha, beta and M over one common denominator L, each term ratio is a
    quotient of integers (the L^2 of numerator and denominator cancels), and
    the series is evaluated by Horner's rule, 1 + r_1 (1 + r_2 (1 + ...)),
    over integers.  The result is one Fraction.  Termination and poles are
    those of :func:`hahn`.
    """
    p = params
    vals = []
    for v in (p.x, p.alpha, p.beta, p.M):
        if isinstance(v, float) and not v.is_integer():
            raise DomainError("exact path needs rational arguments")
        vals.append(v if type(v) is int else Fraction(v))
    L = math.lcm(*(v.denominator for v in vals))
    x, a, b, M = (v.numerator * (L // v.denominator) for v in vals)
    j = p.j
    ratios = []
    for m in range(1, j + 1):
        num = (m - 1 - j) * ((j + m) * L + a + b) * ((m - 1) * L - x)
        if num == 0:
            break
        den = (a + m * L) * ((m - 1) * L - M) * m
        if den == 0:
            raise PoleError(
                f"denominator Pochhammer vanished at m={m} for {p}"
            )
        ratios.append((num, den))
    top, bottom = 1, 1
    for num, den in reversed(ratios):
        top, bottom = den * bottom + num * top, den * bottom
    return Fraction(top, bottom)


def _half(v: int) -> int:
    if v % 2 != 0:
        raise ParityError(f"lattice sum {v} is odd")
    return v // 2


def _p_params(j: int, n: int, x: int, d: int, n_star: int, x_star: int) -> HahnParams:
    # The lattice-size parameter is the elapsed time n + d - 1, mirroring the
    # reflected family whose parameter is the remaining time.  This choice is
    # forced by the exact enumeration oracle.
    return HahnParams(
        j=j,
        x=_half(n + x),
        alpha=-_half(n_star + x_star) - d,
        beta=-_half(n_star - x_star) - d,
        M=n + d - 1,
    )


def _p_tilde_params(j: int, n: int, x: int, d: int, n_star: int, x_star: int) -> HahnParams:
    return HahnParams(
        j=j,
        x=_half(n_star - n + x - x_star),
        alpha=-_half(n_star - x_star) - d,
        beta=-_half(n_star + x_star) - d,
        M=n_star - n + d - 1,
    )


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
    q = hahn(HahnParams(j=j, x=y_m, alpha=alpha_m, beta=beta_m, M=M))
    return prefactor * q
