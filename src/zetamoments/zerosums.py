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
    return shared_sieve(n).mangoldt(n)


def prime_powers_upto(limit: int) -> np.ndarray:
    """Sorted prime powers p^k <= limit (k >= 1)."""
    lam = shared_sieve(limit).mangoldt_table(limit)
    return np.flatnonzero(lam).astype(np.float64)


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
    if not 1.0 < x < math.inf:
        raise PreconditionError(f"gonek_sum needs 1 < x < inf (got {x})")
    if len(cache) == 0:
        raise PreconditionError("gonek_sum needs a nonempty zero cache")
    t_max = cache.t_max
    gammas = cache.gammas
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


def mean_square_over_zeros(cache: ZeroCache, coeffs, alpha: complex | tuple[complex, ...]
                           ) -> MeanSquareReport | tuple[MeanSquareReport, ...]:
    """sum_gamma |sum_{n<=xi} a_n n^{-rho-alpha}|^2 and its T log T scale.

    coeffs[k] is a_{k+1}; xi = len(coeffs).  Requires Re alpha >= 0 and
    3 <= xi <= T / log T.  A tuple of alpha, with one row of coeffs per
    alpha, gives a tuple of reports from one pass over the zeros: per block
    of zeros, n^{-i gamma} for n up to the largest xi and one product with
    every row's weights a_n n^{-1/2 - alpha}.
    """
    batched = isinstance(alpha, tuple)
    rows = [np.asarray(a, dtype=np.complex128) for a in (coeffs if batched else [coeffs])]
    alphas = [complex(a) for a in (alpha if batched else (alpha,))]
    if len(rows) != len(alphas):
        raise PreconditionError(f"{len(rows)} coefficient rows for {len(alphas)} shifts")
    t_max = cache.t_max
    for a, shift in zip(rows, alphas):
        if not (shift.real >= 0.0 and math.isfinite(abs(shift))):
            raise PreconditionError(f"alpha must be finite with Re alpha >= 0 (got {shift})")
        if not (a.ndim == 1 and 3 <= a.size <= t_max / math.log(t_max)):
            raise PreconditionError(
                f"xi = {a.size} outside [3, T/log T] = [3, {t_max / math.log(t_max):.1f}]")
    if not rows:
        return ()
    xi_max = max(a.size for a in rows)
    ns = np.arange(1, xi_max + 1, dtype=np.float64)
    logn = np.log(ns)
    weights = np.zeros((len(rows), xi_max), dtype=np.complex128)
    for r, (a, shift) in enumerate(zip(rows, alphas)):
        weights[r, :a.size] = a * np.exp(-(0.5 + shift) * logn[:a.size])
    gammas = cache.gammas
    lhs = np.zeros(len(rows))
    for start in range(0, gammas.size, _ZERO_BLOCK):   # n^{-i gamma} from the primes
        inner = weights @ _n_pow_it(gammas[start:start + _ZERO_BLOCK], xi_max)
        lhs += (inner.real ** 2 + inner.imag ** 2).sum(axis=1)
    reports = []
    for a, shift, total in zip(rows, alphas, lhs):
        m_xi = max(1.0, float(np.abs(a).max()))
        rhs = m_xi * t_max * math.log(t_max) * float((np.abs(a) / ns[:a.size]).sum())
        reports.append(MeanSquareReport(xi=float(a.size), alpha=shift,
                                        lhs=float(total), rhs_scale=rhs))
    return tuple(reports) if batched else reports[0]


# Fixed tail rules (Takahasi-Mori, Publ. RIMS 9 (1974) 721-741).  Half-lines:
# u = t + v0 e^y, y = exp(x - e^-x), trapezoid in x.  [14, t - W]: Gauss-Legendre
# per half, in log u below the midpoint and in log(t - u) above it.
_DE_X = np.arange(-75, 76) / 20.0                       # step 1/20
_DE_Y = np.exp(_DE_X - np.exp(-_DE_X))
_DE_V = np.exp(_DE_Y)                                   # (u - t) / v0 per node
_DE_W = 0.05 * _DE_V * _DE_Y * (1.0 + np.exp(-_DE_X))   # du / v0 per node
_GL_X, _GL_W = 0.5 * (np.polynomial.legendre.leggauss(40) + np.array([[1.0], [0.0]]))


def _zero_density(tau: np.ndarray) -> np.ndarray:
    """Average density of ordinates near height tau, (1/2pi) log(tau/2pi)."""
    return np.log(tau / TWO_PI) / TWO_PI


def _density_tail(s: complex, window: float, with_rho: bool) -> complex:
    """Integral of 1/(s - rho_u), plus 1/rho_u if ``with_rho``, against the density:
    rho_u = 1/2 +- iu paired node by node on [t + window, inf), 1/2 + iu on [14,
    t - window], t = |Im s|.  Measured within 5e-14 relative of 30-digit
    mpmath.quad for window 50 and 1e2 <= t <= 1e5."""
    def term(rho: np.ndarray) -> np.ndarray:
        return 1.0 / (s - rho) + (1.0 / rho if with_rho else 0.0)
    t = abs(s.imag)
    v0 = max(window, 14.0 - t)          # ordinates live above 14
    u = t + v0 * _DE_V
    tail = (term(0.5 + 1j * u) + term(0.5 - 1j * u)) @ (_zero_density(u) * v0 * _DE_W)
    if t - window > 14.0:
        mid = 0.5 * (14.0 + t - window)
        lo = 14.0 * (mid / 14.0) ** _GL_X
        d = window * ((t - mid) / window) ** _GL_X
        for u, du in ((lo, lo * math.log(mid / 14.0)),
                      (t - d, d * math.log((t - mid) / window))):
            tail += term(0.5 + 1j * u) @ (_zero_density(u) * du * _GL_W)
    return complex(tail)


def _window(cache: ZeroCache, t: float, window: float) -> tuple[np.ndarray, np.ndarray]:
    """(ordinates within window of t, ordinates up to t + window)."""
    if t + window > cache.t_max:
        raise InsufficientCacheError(
            f"window reaches {t + window:.1f} beyond cache t_max {cache.t_max}")
    gammas = cache.gammas
    inside = gammas[gammas <= t + window]
    return inside[np.abs(inside - t) <= window], inside


def f_sum_parts(cache: ZeroCache, s: complex,
                window: float = 50.0) -> tuple[float, float]:
    """(windowed sum, integral tail estimate) of F(s) over the zeros.

    The windowed part sums (sigma-1/2)/((sigma-1/2)^2 + (t-gamma)^2) exactly
    over cached zeros with |gamma - t| <= window (both half-plane families);
    it is nonnegative and monotone nondecreasing in the window.  The tail is
    Re ``_density_tail`` (F's kernel is Re 1/(s - rho)) on fixed quadrature rules.
    """
    s = complex(s)
    a = s.real - 0.5
    t = abs(s.imag)
    if a <= 0.0:
        raise PreconditionError(f"f_sum needs sigma > 1/2 (got {s.real})")
    near, inside = _window(cache, t, window)
    exact = float((a / (a * a + (t - near) ** 2)).sum())
    # conjugate family 1/2 - i*gamma: ordinates -gamma, all far from t >= 0
    exact += float((a / (a * a + (t + inside) ** 2)).sum())
    return exact, _density_tail(complex(s.real, t), window, False).real


def f_sum(cache: ZeroCache, s: complex, window: float = 50.0) -> float:
    """F(s): windowed zero sum plus its integral tail estimate (>= 0)."""
    return sum(f_sum_parts(cache, s, window))


def log_deriv_reconstruction(cache: ZeroCache, s: complex,
                             window: float = 50.0) -> complex:
    """zeta'/zeta(s) rebuilt from the partial-fraction decomposition.

    Windowed zero terms 1/(s-rho) + 1/rho over both half-plane families plus
    the density tail ``_density_tail`` of the same terms, minus the digamma
    and pole terms, plus the constant B = log 2pi - 1 - gamma_0/2.
    """
    s = complex(s)
    near, inside = _window(cache, abs(s.imag), window)
    rho = np.concatenate([0.5 + 1j * near, 0.5 - 1j * inside])
    zero_part = complex((1.0 / (s - rho) + 1.0 / rho).sum())
    return (zero_part + _density_tail(s, window, True) - 0.5 * digamma(0.5 * s + 1.0)
            - 1.0 / (s - 1.0) + _B_PARTIAL_FRACTION)
