"""Double-precision evaluators for zeta, its derivatives, chi, theta, Z, log-gamma.

Evaluation strategy:

* ``zeta``/``zeta_prime`` use Euler-Maclaurin with truncation
  ``N = max(20, ceil(2|t|/pi))`` and twelve Bernoulli correction terms for
  sigma >= 0.3 (and near the origin, where the reflected point would sit by
  the pole); further left the functional equation
  ``zeta(s) = chi(s) zeta(1-s)`` is applied.  The committed error estimate is
  the classical Euler-Maclaurin remainder bound (first omitted correction
  scaled by |s+2m+1|/(sigma+2m+1)) plus a floating-point noise allowance.
* ``hardy_z`` rotates the Euler-Maclaurin value for t < 200 and switches to
  the Riemann-Siegel main sum with four correction terms C0..C3 for t >= 200.
  The correction functions are built from an exact power series for
  psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), an entire function, so
  its high-order derivatives are evaluated stably.
* ``theta`` is the asymptotic phase with four reciprocal correction terms,
  valid for t >= 10.
* ``log_gamma`` uses upward recurrence into |s| >= 32 followed by the
  Stirling series (for Re s > 0 this reproduces the canonical branch that is
  real on the positive axis); Re s <= 0 goes through the reflection formula
  with principal logs, which is adequate for every in-package consumer since
  they only exponentiate the result.

All functions assume Im s >= 0 internally and extend by conjugation, so
``zeta(conj(s)) == conj(zeta(s))`` holds bit-for-bit.

Everything here is pure; the only module state is a lazily grown read-only
table of log n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

EULER_MACLAURIN = "euler_maclaurin"
RIEMANN_SIEGEL = "riemann_siegel"
REFLECTION = "reflection"

# Bernoulli numbers B_2 .. B_30 as exact-rational quotients.
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)

_EM_TERMS = 12          # Bernoulli corrections actually summed
_RS_CUTOVER = 200.0     # hardy_z switches to Riemann-Siegel above this t
_RS_ERR_CONST = 0.02    # remainder after C3, times (t/2pi)^(-9/4); audited
_POLE_RADIUS = 1e-10


class DomainError(ValueError):
    """Argument outside the supported evaluation domain."""


class PoleError(DomainError):
    """Evaluation requested at (or too near) the pole s = 1."""


class NearZeroError(ArithmeticError):
    """zeta'(s)/zeta(s) requested too close to a zero of zeta."""


@dataclass(frozen=True)
class EvalResult:
    """A computed value together with the error budget committed for it."""

    value: complex
    abs_error_estimate: float
    method_tag: str


def _solve_fixed_point(f, df, x0: float) -> float:
    x = x0
    for _ in range(60):
        step = f(x) / df(x)
        x -= step
        if abs(step) < 1e-17:
            break
    return x


def _make_constants():
    lam0 = _solve_fixed_point(lambda x: math.exp(-x) - x,
                              lambda x: -math.exp(-x) - 1.0, 0.56)
    delta0 = _solve_fixed_point(lambda x: math.exp(-x) - x - 0.5 * x * x,
                                lambda x: -math.exp(-x) - 1.0 - x, 0.49)
    gamma0 = float(np.euler_gamma)
    return Constants(
        euler_gamma0=gamma0,
        lambda0=lam0,
        delta0_reference=delta0,
    )


@dataclass(frozen=True)
class Constants:
    """Numerical constants used across the package."""

    euler_gamma0: float
    lambda0: float
    delta0_reference: float


CONSTANTS = _make_constants()

# ---------------------------------------------------------------------------
# log n table, grown on demand, never shrunk.

_LOGN = np.log(np.arange(1, 4097, dtype=np.float64))


def _logn(limit: int) -> np.ndarray:
    """Read-only view of log(1..limit)."""
    global _LOGN
    if limit > _LOGN.size:
        size = max(limit, int(1.5 * _LOGN.size))
        _LOGN = np.log(np.arange(1, size + 1, dtype=np.float64))
    return _LOGN[:limit]


def em_truncation(t: float) -> int:
    """Euler-Maclaurin main-sum length for height t."""
    return max(20, int(math.ceil(2.0 * abs(t) / math.pi)))


def _em_bucket(t: float) -> int:
    """Truncation rounded up to a multiple of 512.

    Batched evaluations share one truncation per chunk; rounding makes that
    truncation a function of the point alone, so values do not depend on how
    a height array happens to be chunked.
    """
    return ((em_truncation(t) + 511) // 512) * 512


def _bucket_runs(ts: np.ndarray):
    """Consecutive index runs of equal truncation bucket, each at most 128 long."""
    buckets = np.array([_em_bucket(float(t)) for t in ts])
    runs = []
    start = 0
    for i in range(1, ts.size + 1):
        if i == ts.size or buckets[i] != buckets[start] or i - start >= 128:
            runs.append((slice(start, i), int(buckets[start])))
            start = i
    return runs


# ---------------------------------------------------------------------------
# Euler-Maclaurin core, vectorized over a batch of heights at fixed sigma.


def _zeta_em_batch(sigma: float, ts: np.ndarray, n_terms: int, max_order: int):
    """zeta and derivatives at sigma + i*ts by Euler-Maclaurin with n_terms.

    Returns (values, err0) where values[j] is the array of j-th derivative
    values for j = 0..max_order and err0 is the order-0 error-estimate array.
    Valid for sigma > -(2*_EM_TERMS + 1); ts must be nonnegative.
    """
    ts = np.asarray(ts, dtype=np.float64)
    n = n_terms
    logn = _logn(n - 1)                       # log 1 .. log(n-1)
    amp = np.exp(-sigma * logn)
    phase = np.multiply.outer(ts, logn)
    terms = amp * np.exp(-1j * phase)         # n^{-s}, shape (m, n-1)

    sums = [terms.sum(axis=1)]
    if max_order >= 1:
        work = terms * (-logn)
        sums.append(work.sum(axis=1))
        for _ in range(2, max_order + 1):
            work *= -logn
            sums.append(work.sum(axis=1))
    del terms

    boundary, trunc = _em_boundary(sigma + 1j * ts, n, max_order)
    values = [a + b for a, b in zip(sums, boundary)]
    # Floating-point noise: amplitude sum and phase error t*log(n)*eps.
    amp_sum = float(amp.sum()) + n ** (-sigma) * (0.5 + n / max(1.0, abs(sigma - 1.0)))
    fp = 4e-16 * amp_sum + 2.5e-15 * np.abs(ts) * math.log(n) + 1e-15
    return values, trunc + fp


def _em_boundary(s: np.ndarray, n, max_order: int):
    """Euler-Maclaurin terms beyond the main sum at truncation n (an int, or
    an array like s): the trapezoid end N^{-s}/2, the pole tail
    N^{1-s}/(s-1) and the Bernoulli corrections.

    Returns (terms, bound): terms[j] is the j-th s-derivative of their sum
    for j = 0..max_order, and bound is the remainder bound, the first
    omitted correction times |s+2m+1|/(sigma+2m+1).
    """
    log_n = np.log(n)
    n_pow = np.exp(-s * log_n)                # N^{-s}
    half = 0.5 * n_pow
    tail = n_pow * (n / (s - 1.0))            # N^{1-s}/(s-1)
    terms = [half + tail]
    if max_order >= 1:
        u_tail = -log_n - 1.0 / (s - 1.0)
        terms.append(-log_n * half + tail * u_tail)
    if max_order >= 2:
        du_tail = 1.0 / (s - 1.0) ** 2
        terms.append(log_n * log_n * half + tail * (u_tail * u_tail + du_tail))

    # Bernoulli corrections T_r = B_{2r}/(2r)! * prod_{j=0}^{2r-2}(s+j) * N^{1-s-2r}
    fact = 2.0
    prod = s                                   # prod_{j=0}^{0}(s+j)
    if max_order >= 1:
        recip = 1.0 / s                        # sum_j 1/(s+j)
        recip2 = recip * recip                 # sum_j 1/(s+j)^2
    scale = n_pow / n                          # N^{-s-2r+1} at r = 1
    for r in range(1, _EM_TERMS + 1):
        t_r = (_B2K[r - 1] / fact) * prod * scale
        terms[0] += t_r
        if max_order >= 1:
            u = recip - log_n
            terms[1] += t_r * u
        if max_order >= 2:
            terms[2] += t_r * (u * u - recip2)
        # advance to r+1: multiply prod by (s+2r-1)(s+2r), fact by (2r+1)(2r+2)
        a = s + (2 * r - 1)
        b = s + (2 * r)
        prod = prod * a * b
        if max_order >= 1:
            recip = recip + 1.0 / a + 1.0 / b
            recip2 = recip2 + 1.0 / (a * a) + 1.0 / (b * b)
        fact *= (2 * r + 1) * (2 * r + 2)
        scale = scale / (n * n)

    m2 = 2 * _EM_TERMS
    sigma = s.real
    bound = (abs(_B2K[_EM_TERMS]) / fact) * np.abs(prod) * (n ** (-sigma - m2 - 1))
    bound *= np.abs(s + (m2 + 1)) / (sigma + m2 + 1)
    return terms, bound


def _check_domain(s: complex) -> None:
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"non-finite argument {s!r}")
    if s.real < -3.0:
        raise DomainError(f"sigma = {s.real} below supported strip (sigma >= -3)")
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleError("zeta has a pole at s = 1")


_DERIV_ERR_FACTOR = 3.0  # log N growth allowance per derivative order; audited


def _zeta_reflect(s: complex, order: int) -> EvalResult:
    """zeta and zeta' left of the strip via zeta(s) = chi(s) zeta(1-s)."""
    if order > 1:
        raise DomainError("second derivative unsupported for sigma < 0.3")
    z1 = zeta_deriv(1.0 - s, 0)
    c = chi(s)
    if order == 0:
        value = c.value * z1.value
        err = abs(c.value) * z1.abs_error_estimate + abs(z1.value) * c.abs_error_estimate
        return EvalResult(value, err + 1e-16 * abs(value), REFLECTION)
    # zeta'(s) = chi'(s) zeta(1-s) - chi(s) zeta'(1-s)
    z1p = zeta_deriv(1.0 - s, 1)
    cp = _chi_prime(s)
    value = cp * z1.value - c.value * z1p.value
    err = (abs(cp) * z1.abs_error_estimate + abs(c.value) * z1p.abs_error_estimate
           + abs(z1.value) * abs(cp) * 1e-12 + abs(z1p.value) * c.abs_error_estimate)
    return EvalResult(value, err + 1e-15 * (1.0 + abs(value)), REFLECTION)


def zeta_deriv(s: complex, order: int) -> EvalResult:
    """zeta^(order)(s) for order in {0, 1, 2}."""
    if order not in (0, 1, 2):
        raise DomainError(f"derivative order {order} unsupported (0, 1, 2 only)")
    s = complex(s)
    if s.imag < 0:
        r = zeta_deriv(s.conjugate(), order)
        return EvalResult(r.value.conjugate(), r.abs_error_estimate, r.method_tag)
    _check_domain(s)
    # Euler-Maclaurin converges in the whole supported strip; reflection is
    # beneficial left of the strip at height, and mandatory for derivatives
    # left of the strip (the term-differentiated corrections degenerate at
    # the nonpositive integers).  Near s = 0 the reflected point approaches
    # the pole, so order 0 keeps the direct route there.
    if s.real >= 0.3 or (order == 0 and abs(s) <= 2.5):
        n = em_truncation(s.imag)
        values, err0 = _zeta_em_batch(s.real, np.array([s.imag]), n, order)
        err = float(err0[0]) * (math.log(n) + _DERIV_ERR_FACTOR) ** order
        return EvalResult(complex(values[order][0]), err, EULER_MACLAURIN)
    return _zeta_reflect(s, order)


def zeta(s: complex) -> EvalResult:
    """zeta(s) for sigma >= -3, s != 1, with a committed error estimate."""
    return zeta_deriv(s, 0)


def zeta_prime(s: complex) -> EvalResult:
    """zeta'(s) by term-differentiated Euler-Maclaurin (not finite differences)."""
    return zeta_deriv(s, 1)


def log_deriv(s: complex) -> EvalResult:
    """zeta'(s)/zeta(s) with propagated error estimate."""
    z = zeta(s)
    if abs(z.value) < 1e-12:
        raise NearZeroError(f"|zeta({s})| = {abs(z.value):.3e} < 1e-12")
    zp = zeta_prime(s)
    value = zp.value / z.value
    err = (zp.abs_error_estimate + abs(value) * z.abs_error_estimate) / abs(z.value)
    return EvalResult(value, err, z.method_tag)


def zeta_at_heights(gammas: np.ndarray, alpha: complex = 0.0,
                    order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """zeta^(order)(1/2 + i*gamma + alpha) for an ascending array of heights.

    The direct route for shifts beyond ZeroShiftEvaluator's radius, and the
    reference that tests hold the table to: one Euler-Maclaurin pass per
    run of at most 128 heights that share a truncation bucket, so a value
    does not depend on which other heights come with it.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    sigma = 0.5 + complex(alpha).real
    if sigma < 0.25:
        raise DomainError(f"shifted abscissa {sigma} too far left for the fast path")
    ts = gammas + complex(alpha).imag
    if np.any(ts < 0):
        raise DomainError("negative shifted ordinate in fast path")
    values = np.empty(gammas.size, dtype=np.complex128)
    errs = np.empty(gammas.size, dtype=np.float64)
    for sl, n in _bucket_runs(ts):
        vals, err0 = _zeta_em_batch(sigma, ts[sl], n, order)
        values[sl] = vals[order]
        errs[sl] = err0 * (math.log(n) + _DERIV_ERR_FACTOR) ** order
    return values, errs


# Shift-table order: the omitted terms stay below 1e-20 of the main sum's
# amplitude sum n^{-1/2} while |alpha| log N <= 1.5.
_TAYLOR_ORDER = 24
_CIRCLE_SAMPLES = 32    # boundary-term samples per zero for the table's DFT
_RADIUS_SLACK = 1e-15   # rounding allowance of |alpha| on the table's radius


class ZeroShiftEvaluator:
    """zeta^(order)(rho + alpha) at every zero from one Taylor table in alpha.

    Row i holds the order-24 Taylor coefficients about alpha = 0 of the
    Euler-Maclaurin value of zeta(1/2 + i*gamma_i + alpha), at the truncation
    bucket of gamma_i + 1:

    * main sum: sum_n n^{-rho} (-log n)^j / j!, taken per bucket chunk as
      the real products cos(gamma log n) @ V and sin(gamma log n) @ V with
      V[n, j] = n^{-1/2} (-log n)^j / j!;
    * boundary terms (N^{-s}/2, the pole tail, the Bernoulli corrections):
      the discrete Fourier transform of 32 samples on |alpha| = 2 * radius.

    The table holds for |alpha| <= radius = 1/log t_max, where |alpha| log N
    stays near 1 and the main-sum series converges superexponentially.
    There it agrees with zeta_at_heights well inside that route's committed
    error (to about 1e-11 relative at t = 1e4).  values() refuses larger
    shifts, which belong to zeta_at_heights.
    """

    def __init__(self, gammas: np.ndarray, t_max: float):
        gammas = np.asarray(gammas, dtype=np.float64)
        self.gammas = gammas
        self.radius = 1.0 / math.log(t_max)
        j = np.arange(_TAYLOR_ORDER + 1)
        self._facts = np.cumprod(np.maximum(j, 1).astype(np.float64))  # j!
        runs = _bucket_runs(gammas + 1.0)
        n_max = max((n for _, n in runs), default=1)
        logn = _logn(n_max - 1)
        v = np.exp(-0.5 * logn)[:, None] * (-logn[:, None]) ** j / self._facts
        coeff = np.empty((gammas.size, j.size), dtype=np.complex128)
        trunc = np.empty(gammas.size)
        for sl, n in runs:
            phase = np.multiply.outer(gammas[sl], logn[: n - 1])
            trig = np.cos(phase)
            coeff[sl] = trig @ v[: n - 1]
            coeff[sl] -= 1j * (np.sin(phase, out=trig) @ v[: n - 1])
            trunc[sl] = n
        r = 2.0 * self.radius
        s0 = 0.5 + 1j * gammas
        for m in range(_CIRCLE_SAMPLES):
            w = cmath.exp(2j * math.pi * m / _CIRCLE_SAMPLES)
            weights = w ** -j / (_CIRCLE_SAMPLES * r ** j)
            boundary, _ = _em_boundary(s0 + r * w, trunc, 0)
            coeff += np.multiply.outer(boundary[0], weights)
        self._coeff = coeff

    def covers(self, alpha: complex) -> bool:
        """True when |alpha| is within the table's radius."""
        return abs(complex(alpha)) <= self.radius + _RADIUS_SLACK

    def values(self, alpha: complex, order: int = 0) -> np.ndarray:
        """zeta^(order)(rho + alpha) for every zero: one matrix-vector product."""
        if not self.covers(alpha):
            raise DomainError(f"|alpha| = {abs(complex(alpha))} beyond the "
                              f"table radius {self.radius}")
        j = np.arange(order, _TAYLOR_ORDER + 1)
        weights = (self._facts[j] / self._facts[j - order]
                   * complex(alpha) ** (j - order))
        return self._coeff[:, order:] @ weights


# ---------------------------------------------------------------------------
# theta and the Hardy Z function.

_THETA_C = (1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0, 127.0 / 430080.0)


def _theta_raw(t):
    lt = np.log(t / TWO_PI)
    inv2 = 1.0 / (t * t)
    corr = _THETA_C[0] / t * (1.0 + inv2 * (_THETA_C[1] / _THETA_C[0]
                 + inv2 * (_THETA_C[2] / _THETA_C[0]
                 + inv2 * _THETA_C[3] / _THETA_C[0])))
    return 0.5 * t * lt - 0.5 * t - math.pi / 8.0 + corr


def _theta_deriv_raw(t):
    inv2 = 1.0 / (t * t)
    corr = (-_THETA_C[0] - 3.0 * _THETA_C[1] * inv2
            - 5.0 * _THETA_C[2] * inv2 * inv2
            - 7.0 * _THETA_C[3] * inv2 * inv2 * inv2) * inv2
    return 0.5 * np.log(t / TWO_PI) + corr


def theta(t: float) -> float:
    """Riemann-Siegel phase theta(t), asymptotic series, t >= 10."""
    if t < 10.0:
        raise DomainError(f"theta requires t >= 10 (got {t})")
    return float(_theta_raw(float(t)))


def theta_deriv(t: float) -> float:
    """d theta / dt (used for Newton polish and Gram-point solving)."""
    if t < 10.0:
        raise DomainError(f"theta requires t >= 10 (got {t})")
    return float(_theta_deriv_raw(float(t)))


# --- Riemann-Siegel correction machinery -----------------------------------
#
# psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p) is entire: every zero of
# the denominator is cancelled by the numerator.  Writing u = p - 1/2 the
# function is cos(2 pi (u^2 - 5/16)) / (-cos(2 pi u)); its Taylor
# coefficients about u = 0 are recovered from function values on the circle
# |u| = 1 by FFT (the circle stays away from the denominator zeros, so each
# sample is computed stably; the coefficients inherit ~1e-13 absolute
# accuracy, ample for derivatives up to order nine on |u| <= 1/2).

_PSI_DEGREE = 40    # Horner degree of C0..C3; each row's dropped tail is <= 1e-16


def _psi_series() -> np.ndarray:
    m_fft = 512
    u = np.exp(2j * math.pi * np.arange(m_fft) / m_fft)
    f = np.cos(TWO_PI * (u * u - 5.0 / 16.0)) / (-np.cos(TWO_PI * u))
    coeff = np.fft.fft(f) / m_fft
    return coeff[: _PSI_DEGREE + 10].real      # C3 needs up to psi^(9)


_PSI_B = _psi_series()


def _psi_deriv_coeffs(k: int) -> np.ndarray:
    """Power-series coefficients (in u = p - 1/2) of the k-th psi derivative."""
    m = np.arange(k, k + _PSI_DEGREE + 1)
    coeff = _PSI_B[k: k + _PSI_DEGREE + 1].copy()
    for j in range(k):
        coeff *= (m - j)
    return coeff


_PI2 = math.pi * math.pi


def _correction_coeff_table() -> np.ndarray:
    """Rows: u-power-series coefficients of C0..C3, to degree _PSI_DEGREE."""
    d = _psi_deriv_coeffs
    c0 = d(0)
    c1 = -d(3) / (96.0 * _PI2)
    c2 = d(2) / (64.0 * _PI2) + d(6) / (18432.0 * _PI2 * _PI2)
    c3 = (-d(1) / (64.0 * _PI2) - d(5) / (3840.0 * _PI2 * _PI2)
          - d(9) / (5308416.0 * _PI2 * _PI2 * _PI2))
    return np.vstack([c0, c1, c2, c3])


_C_TABLE = _correction_coeff_table()


def _rs_correction(p, eta):
    """C0 + C1*eta + C2*eta^2 + C3*eta^3 with eta = (t/2pi)^(-1/2)."""
    u = np.asarray(p, dtype=np.float64) - 0.5
    c0, c1, c2, c3 = _C_TABLE
    acc = np.zeros_like(u)
    for m in range(_PSI_DEGREE, -1, -1):
        acc = acc * u + (c0[m] + eta * (c1[m] + eta * (c2[m] + eta * c3[m])))
    return acc


def _rs_z_batch(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Riemann-Siegel Z on a batch of heights sharing one main-sum length."""
    tau = np.sqrt(ts / TWO_PI)
    n = int(math.floor(tau[0]))
    p = tau - n
    logn = _logn(n)
    amp = 1.0 / np.sqrt(np.arange(1, n + 1))
    th = _theta_raw(ts)
    phases = th[:, None] - np.multiply.outer(ts, logn)
    main = 2.0 * (np.cos(phases) @ amp)
    eta = 1.0 / tau
    corr = ((-1.0) ** (n - 1)) * np.sqrt(eta) * _rs_correction(p, eta)
    amp_sum = float(amp.sum())
    # correlated phase noise: an eps-level absolute error in theta or t*log n
    # shifts every cosine argument together
    phase_scale = np.abs(th) + ts * logn[-1]
    err = (_RS_ERR_CONST * eta ** 4.5
           + 2.2e-16 * (2.0 * amp_sum) * phase_scale + 4e-16 * amp_sum)
    return main + corr, err


def _rs_segments(ts: np.ndarray):
    """Split an ascending height array into runs of constant floor(sqrt(t/2pi))."""
    n = np.floor(np.sqrt(ts / TWO_PI)).astype(np.int64)
    cuts = np.flatnonzero(np.diff(n)) + 1
    return np.split(np.arange(ts.size), cuts)


def hardy_z_grid(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z(t) on an ascending grid: Riemann-Siegel above the cutover, EM below."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size and ts[0] < 10.0:
        raise DomainError("hardy_z requires t >= 10")
    # the EM/RS split and the RS segments both read the grid as sorted
    if not np.all(np.diff(ts) >= 0.0):
        raise DomainError("hardy_z_grid needs ascending heights")
    out = np.empty(ts.size)
    err = np.empty(ts.size)
    lo_mask = ts < _RS_CUTOVER
    n_lo = int(lo_mask.sum())
    if n_lo:
        block = ts[:n_lo]
        for start in range(0, n_lo, 256):
            stop = min(start + 256, n_lo)
            sub = block[start:stop]
            vals, e0 = _zeta_em_batch(0.5, sub, em_truncation(float(sub[-1])), 0)
            rot = np.exp(1j * _theta_raw(sub)) * vals[0]
            sign = np.where(rot.real >= 0.0, 1.0, -1.0)
            out[start:stop] = sign * np.abs(vals[0])
            err[start:stop] = e0 + np.abs(rot.imag)
    if n_lo < ts.size:
        hi = np.arange(n_lo, ts.size)
        for seg in _rs_segments(ts[hi]):
            idx = hi[seg]
            out[idx], err[idx] = _rs_z_batch(ts[idx])
    return out, err


def hardy_z(t: float, method: str = "auto") -> EvalResult:
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it), real-valued, t >= 10.

    The returned value satisfies |Z(t)| == |zeta(1/2+it)| exactly on the
    Euler-Maclaurin route (the modulus is taken from the same zeta value and
    only the sign comes from the rotation); the rotation's imaginary residue
    is folded into the error estimate.
    """
    t = float(t)
    if t < 10.0:
        raise DomainError(f"hardy_z requires t >= 10 (got {t})")
    use_rs = method == RIEMANN_SIEGEL or (method == "auto" and t >= _RS_CUTOVER)
    if method not in ("auto", RIEMANN_SIEGEL, EULER_MACLAURIN):
        raise DomainError(f"unknown method {method!r}")
    if use_rs:
        if t < 2.0 * TWO_PI:
            raise DomainError("Riemann-Siegel route needs t >= 4*pi")
        vals, errs = _rs_z_batch(np.array([t]))
        return EvalResult(complex(vals[0]), float(errs[0]), RIEMANN_SIEGEL)
    z = zeta(complex(0.5, t))
    rot = cmath.exp(1j * theta(t)) * z.value
    sign = 1.0 if rot.real >= 0.0 else -1.0
    value = sign * abs(z.value)
    err = z.abs_error_estimate + abs(rot.imag) + 1e-10 * abs(z.value)
    return EvalResult(complex(value), err, EULER_MACLAURIN)


def em_z_with_deriv(ts: np.ndarray):
    """(Z, dZ/dt) on the Euler-Maclaurin route for an array of heights.

    Z carries the |Z| == |zeta(1/2+it)| convention of hardy_z; used by the
    sweep's batched Newton polish.
    """
    ts = np.asarray(ts, dtype=np.float64)
    z_out = np.empty(ts.size)
    dz_out = np.empty(ts.size)
    for sl, n in _bucket_runs(ts):
        block = ts[sl]
        vals, _ = _zeta_em_batch(0.5, block, n, 1)
        rot = np.exp(1j * _theta_raw(block))
        rotated = rot * vals[0]
        sign = np.where(rotated.real >= 0.0, 1.0, -1.0)
        z_out[sl] = sign * np.abs(vals[0])
        dz_out[sl] = -np.imag(rot * (_theta_deriv_raw(block) * vals[0] + vals[1]))
    return z_out, dz_out


# ---------------------------------------------------------------------------
# log Gamma, digamma, chi.

_STIRLING_SHIFT = 32.0


def _stirling_lgamma(s: complex) -> complex:
    out = (s - 0.5) * cmath.log(s) - s + 0.5 * math.log(TWO_PI)
    s2 = 1.0 / (s * s)
    term = 1.0 / s
    for k in range(1, 10):
        out += _B2K[k - 1] / (2 * k * (2 * k - 1)) * term
        term *= s2
    return out


def log_gamma(s: complex) -> complex:
    """log Gamma(s), branch real on the positive axis, error <= ~1e-12 for |s| >= 1."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0:
        raise DomainError("log_gamma undefined on the nonpositive real axis")
    if s.imag < 0.0:
        return log_gamma(s.conjugate()).conjugate()
    if s.real > 0.0:
        acc = 0.0 + 0.0j
        while abs(s) < _STIRLING_SHIFT:
            acc += cmath.log(s)
            s += 1.0
        return _stirling_lgamma(s) - acc
    # Reflection with principal logs; consumers exponentiate, so a possible
    # 2*pi*i offset against the continuous branch is harmless here.
    return (math.log(math.pi) - _log_sin_pi(s) - log_gamma(1.0 - s))


def _log_sin_pi(s: complex) -> complex:
    """log sin(pi s), exponential form for large |Im|, Im s >= 0."""
    if s.imag > 20.0:
        # sin(pi s) = e^{-i pi s}(e^{2 pi i s} - 1)/(2i)
        return (-1j * math.pi * s + cmath.log(cmath.exp(2j * math.pi * s) - 1.0)
                - cmath.log(2j))
    return cmath.log(cmath.sin(math.pi * s))


def digamma(s: complex) -> complex:
    """Gamma'/Gamma(s) by Stirling series with upward recurrence."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0:
        raise DomainError("digamma undefined on the nonpositive real axis")
    if s.imag < 0.0:
        return digamma(s.conjugate()).conjugate()
    acc = 0.0 + 0.0j
    while abs(s) < _STIRLING_SHIFT:
        acc += 1.0 / s
        s += 1.0
    out = cmath.log(s) - 0.5 / s
    s2 = 1.0 / (s * s)
    term = s2
    for k in range(1, 9):
        out -= _B2K[k - 1] / (2 * k) * term
        term *= s2
    return out - acc


def _chi_parts(s: complex):
    """log of the gamma-side prefactor 2^s pi^{s-1} Gamma(1-s) (sin(pi s/2) is
    handled separately), and the sum of its summands' magnitudes: s log 2,
    (s-1) log pi and the Stirling terms of log Gamma(1-s).  They cancel far
    below that sum, and each carries a rounding error relative to itself.
    """
    z = 1.0 - s
    lg = s * math.log(2.0) + (s - 1.0) * math.log(math.pi) + log_gamma(z)
    mag = (abs(s) * math.log(2.0) + abs(s - 1.0) * math.log(math.pi)
           + abs((z - 0.5) * cmath.log(z)) + abs(z))
    return lg, mag


def chi(s: complex) -> EvalResult:
    """chi(s) = 2^s pi^{s-1} Gamma(1-s) sin(pi s/2), via log-space combination."""
    s = complex(s)
    if s.imag < 0.0:
        r = chi(s.conjugate())
        return EvalResult(r.value.conjugate(), r.abs_error_estimate, r.method_tag)
    if s.real > 3.5 and s.imag == 0.0:
        raise DomainError("chi needs Gamma(1-s) off the poles; sigma too large")
    lg, mag = _chi_parts(s)
    if s.imag >= 30.0:
        log_sin = -0.5j * math.pi * s + cmath.log(cmath.exp(1j * math.pi * s) - 1.0) \
            - cmath.log(2j)
        value = cmath.exp(lg + log_sin)
        # rounding of the exponent: 9 ulps of its summands' magnitudes, about
        # twice the largest error measured against mpmath
        err = abs(value) * (2e-15 * (mag + abs(log_sin)) + 1e-14)
    else:
        pref = cmath.exp(lg)
        value = pref * cmath.sin(0.5 * math.pi * s)
        err = (abs(value) * (2e-15 * mag + 1e-14)
               + abs(pref) * 4e-16 * (1.0 + abs(s)))
    return EvalResult(value, err, REFLECTION)


def _chi_prime(s: complex) -> complex:
    """chi'(s), stable at the trivial zeros and at large heights."""
    s = complex(s)
    if s.imag < 0.0:
        return _chi_prime(s.conjugate()).conjugate()
    dlog = math.log(2.0) + math.log(math.pi) - digamma(1.0 - s)
    if s.imag >= 30.0:
        # cot(pi s/2) -> -i stably via e^{i pi s}, which is tiny here
        q = cmath.exp(1j * math.pi * s)
        cot = 1j * (q + 1.0) / (q - 1.0)
        return chi(s).value * (dlog + 0.5 * math.pi * cot)
    pref = cmath.exp(_chi_parts(s)[0])
    return pref * (dlog * cmath.sin(0.5 * math.pi * s)
                   + 0.5 * math.pi * cmath.cos(0.5 * math.pi * s))
