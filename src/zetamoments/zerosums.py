"""Sums over the cached zeros: the Landau-Gonek exponential sum, mean squares
of Dirichlet polynomials, and the nonnegative zero-sum F(s).

Every ``<<`` in the underlying estimates hides a constant, so these
operations report fitted constants (observed quantity divided by the
error-term shape evaluated with constant 1) instead of asserting against
unknowable values.  Summation is in ascending-ordinate order throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .primes import shared_sieve
from .zeros import ZeroCache
from .zetafn import CONSTANTS, _n_pow_it, digamma

TWO_PI = 2.0 * math.pi
_ZERO_BLOCK = 512       # zeros per n^{-i gamma} block of the mean square

# Constant term of the partial-fraction decomposition of zeta'/zeta: the
# Hadamard-product value log(2 pi) - 1 - gamma_0/2.
_B_PARTIAL_FRACTION = math.log(TWO_PI) - 1.0 - 0.5 * CONSTANTS.euler_gamma0


class InsufficientCacheError(ValueError):
    """The cached zeros do not cover the requested window."""


class PreconditionError(ValueError):
    """An operating hypothesis (range of xi, alpha, ...) is violated."""


@dataclass(frozen=True)
class GonekReport:
    """Empirical Landau-Gonek sum against its main term and error budget."""

    x: float
    t_max: float
    empirical_sum: complex
    main_term: float
    error_budget: float
    nearest_pp_distance: float

    @property
    def fitted_constant(self) -> float:
        return abs(self.empirical_sum - self.main_term) / self.error_budget


@dataclass(frozen=True)
class MeanSquareReport:
    """Mean square of a Dirichlet polynomial over zeros vs its scale bound."""

    xi: float
    alpha: complex
    lhs: float
    rhs_scale: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs_scale


def mangoldt_real(x: float) -> float:
    """Lambda at a real argument: log p when x is an integral prime power."""
    n = round(x)
    if abs(x - n) > 0.0 or n < 2:
        return 0.0
    sieve = shared_sieve(max(int(n), 4))
    return sieve.mangoldt(int(n))


def prime_powers_upto(limit: int) -> np.ndarray:
    """Sorted prime powers p^k <= limit (k >= 1)."""
    sieve = shared_sieve(max(limit, 8))
    out = []
    for p in sieve.primes(limit):
        pk = int(p)
        while pk <= limit:
            out.append(pk)
            pk *= int(p)
    return np.array(sorted(out), dtype=np.float64)


def nearest_prime_power_distance(x: float) -> float:
    """<x>: distance from x to the nearest prime power other than x itself."""
    limit = max(8, int(math.ceil(2.0 * x)) + 2)
    pps = prime_powers_upto(limit)
    dists = np.abs(pps - x)
    dists = dists[dists > 0.0]
    return float(dists.min())


def gonek_sum(cache: ZeroCache, x: float) -> GonekReport:
    """sum_{0<gamma<=T} x^rho against the main term -(T/2pi) Lambda(x).

    The error budget evaluates the three remainder shapes with constant 1:
    x log(2xT) loglog(3x) + log(x) min(T, x/<x>) + log(2T) min(T, 1/log x).
    """
    if x <= 1.0:
        raise PreconditionError(f"gonek_sum needs x > 1 (got {x})")
    if len(cache) == 0:
        raise PreconditionError("gonek_sum needs a nonempty zero cache")
    t_max = cache.t_max
    gammas = cache.gammas()
    logx = math.log(x)
    empirical = complex(math.sqrt(x) * np.exp(1j * gammas * logx).sum())
    main = -(t_max / TWO_PI) * mangoldt_real(x)
    gap = nearest_prime_power_distance(x)
    budget = (x * math.log(2.0 * x * t_max) * math.log(math.log(3.0 * x))
              + logx * min(t_max, x / gap)
              + math.log(2.0 * t_max) * min(t_max, 1.0 / logx))
    return GonekReport(x=x, t_max=t_max, empirical_sum=empirical,
                       main_term=main, error_budget=budget,
                       nearest_pp_distance=gap)


def mean_square_over_zeros(cache: ZeroCache, coeffs, alpha: complex) -> MeanSquareReport:
    """sum_gamma |sum_{n<=xi} a_n n^{-rho-alpha}|^2 and its T log T scale.

    coeffs[k] is a_{k+1}; xi = len(coeffs).  Requires Re alpha >= 0 and
    3 <= xi <= T / log T.
    """
    alpha = complex(alpha)
    a = np.asarray(coeffs, dtype=np.complex128)
    xi = a.size
    t_max = cache.t_max
    if alpha.real < 0.0:
        raise PreconditionError(f"Re alpha must be >= 0 (got {alpha.real})")
    if not (3 <= xi <= t_max / math.log(t_max)):
        raise PreconditionError(
            f"xi = {xi} outside [3, T/log T] = [3, {t_max / math.log(t_max):.1f}]")
    gammas = cache.gammas()
    ns = np.arange(1, xi + 1, dtype=np.float64)
    logn = np.log(ns)
    weights = a * np.exp(-(0.5 + alpha) * logn)     # a_n n^{-1/2 - alpha}
    inner = np.empty(gammas.size, dtype=np.complex128)
    for start in range(0, gammas.size, _ZERO_BLOCK):   # n^{-i gamma} from the primes
        block = slice(start, start + _ZERO_BLOCK)
        inner[block] = weights @ _n_pow_it(gammas[block], xi)
    lhs = float((inner.real ** 2 + inner.imag ** 2).sum())
    m_xi = max(1.0, float(np.abs(a).max()) if xi else 1.0)
    rhs = m_xi * t_max * math.log(t_max) * float((np.abs(a) / ns).sum())
    return MeanSquareReport(xi=float(xi), alpha=alpha, lhs=lhs, rhs_scale=rhs)


def _zero_density(tau: float) -> float:
    """Average density of ordinates near height tau, (1/2pi) log(tau/2pi)."""
    return max(0.0, math.log(max(tau, 14.0) / TWO_PI) / TWO_PI)


def f_sum_parts(cache: ZeroCache, s: complex,
                window: float = 50.0) -> tuple[float, float]:
    """(windowed sum, integral tail estimate) of F(s) over the zeros.

    The windowed part sums (sigma-1/2)/((sigma-1/2)^2 + (t-gamma)^2) exactly
    over cached zeros with |gamma - t| <= window (both half-plane families);
    it is nonnegative and monotone nondecreasing in the window.  The tail
    replaces the remaining zeros by the density (1/2pi) log(tau/2pi).
    """
    s = complex(s)
    a = s.real - 0.5
    t = abs(s.imag)
    if a <= 0.0:
        raise PreconditionError(f"f_sum needs sigma > 1/2 (got {s.real})")
    if t + window > cache.t_max:
        raise InsufficientCacheError(
            f"window reaches {t + window:.1f} beyond cache t_max {cache.t_max}")
    gammas = cache.gammas()
    near = gammas[np.abs(gammas - t) <= window]
    exact = float((a / (a * a + (t - near) ** 2)).sum())
    # conjugate family 1/2 - i*gamma: ordinates -gamma, all far from t >= 0
    conj = gammas[gammas <= t + window]
    exact += float((a / (a * a + (t + conj) ** 2)).sum())

    tail = quad(lambda u: (a / (a * a + u * u)) * _zero_density(t + u),
                window, np.inf, limit=200)[0]
    if t - window > 14.0:   # zeros below the window (ordinates live above 14)
        tail += quad(lambda u: (a / (a * a + u * u)) * _zero_density(t - u),
                     window, t - 14.0, limit=200)[0]
    tail += quad(lambda u: (a / (a * a + (t + u) ** 2)) * _zero_density(u),
                 max(t + window, 14.0), np.inf, limit=200)[0]
    return exact, tail


def f_sum(cache: ZeroCache, s: complex, window: float = 50.0) -> float:
    """F(s): windowed zero sum plus its integral tail estimate (>= 0)."""
    exact, tail = f_sum_parts(cache, s, window)
    return exact + tail


def log_deriv_reconstruction(cache: ZeroCache, s: complex,
                             window: float = 50.0) -> complex:
    """zeta'/zeta(s) rebuilt from the partial-fraction decomposition.

    Windowed zero terms 1/(s-rho) + 1/rho over both half-plane families plus
    a density-integral tail, minus the digamma and pole terms, plus the
    constant B = log 2pi - 1 - 2 gamma_0.
    """
    s = complex(s)
    t = abs(s.imag)
    if t + window > cache.t_max:
        raise InsufficientCacheError(
            f"window reaches {t + window:.1f} beyond cache t_max {cache.t_max}")
    gammas = cache.gammas()
    inside = gammas[gammas <= t + window]
    near = inside[np.abs(inside - t) <= window]
    rho_up = 0.5 + 1j * near
    rho_dn = 0.5 - 1j * inside
    zero_part = complex((1.0 / (s - rho_up) + 1.0 / rho_up).sum())
    zero_part += complex((1.0 / (s - rho_dn) + 1.0 / rho_dn).sum())

    def pair_up(u: float) -> complex:
        rho = 0.5 + 1j * u
        return 1.0 / (s - rho) + 1.0 / rho

    def pair_dn(u: float) -> complex:
        rho = 0.5 - 1j * u
        return 1.0 / (s - rho) + 1.0 / rho

    def tail_quad(f, lo: float, hi: float) -> complex:
        re = quad(lambda u: f(u).real * _zero_density(u), lo, hi, limit=200)[0]
        im = quad(lambda u: f(u).imag * _zero_density(u), lo, hi, limit=200)[0]
        return complex(re, im)

    tail = tail_quad(pair_up, t + window, np.inf)
    tail += tail_quad(pair_dn, t + window, np.inf)
    if t - window > 14.0:
        tail += tail_quad(pair_up, 14.0, t - window)
    return (zero_part + tail - 0.5 * digamma(0.5 * s + 1.0)
            - 1.0 / (s - 1.0) + _B_PARTIAL_FRACTION)
