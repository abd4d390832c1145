"""Double-precision evaluators for zeta, its derivatives, chi, theta, Z, log-gamma.

Evaluation strategy:

* ``zeta``, ``zeta_prime``, ``zeta_deriv`` and ``log_deriv`` take every
  derivative order they need from one pass per point (``_zeta_orders``).
  For sigma >= 0.3 that is Euler-Maclaurin with truncation
  ``N = em_truncation(t)``, max(30, ceil(|t|/pi)) rounded up to m * 2^e with
  16 <= m <= 31, and 24 Bernoulli correction terms.  Left of sigma = 0.3 it
  is the functional equation ``zeta(s) = chi(s) zeta(1-s)``: one
  Euler-Maclaurin pass at 1 - s and one evaluation of chi and chi'.  Only
  zeta itself keeps the direct route within |s| <= 0.4, where the reflected
  point would sit by the pole and the direct sum still commits less.
  The committed error estimate is the classical Euler-Maclaurin remainder
  bound (first omitted correction scaled by |s+2m+1|/(sigma+2m+1)) plus a
  floating-point noise allowance.
* The batched routes on the line and right of it (``zeta_at_heights``,
  ``em_z_with_deriv``, ``hardy_z_grid``) take the same truncation per
  height, in runs of heights that share it (``_em_grid`` on the
  Euler-Maclaurin route), so a batched value equals the scalar one bit for
  bit and does not depend on the other heights in the batch.
* ``ZeroShiftEvaluator``, the Taylor table in alpha of zeta(rho + alpha) at
  the zeros, takes one route per row.  Up to gamma = 2,612.8 a row is the
  Euler-Maclaurin sum at gamma's truncation, its boundary terms in closed
  form in alpha (``_em_boundary_series``).  Above it, the Riemann-Siegel
  formula continued to the complex height gamma - i alpha: sums of
  floor(sqrt(gamma/2pi)) terms, with gamma log k and theta(gamma) reduced
  mod 2 pi from double-doubles; chi(s) = e^{-2i theta}, from theta's
  Taylor series about gamma, and the remainder C0..C4, from its real Taylor
  series about gamma's p (``_rs_correction_series``), are sampled on the
  table's circle.  Such a row commits three times Gabcke's bound plus the
  rounding and the two series' dropped terms, doubled by the transform
  (``_rs_shift_error``); the crossover is where that meets the
  Euler-Maclaurin error 2.5e-15 t log N, at t = 2,564, moved up to the next
  truncation step.
* ``hardy_z`` is ``hardy_z_grid`` at one point.  Below t = 200 the grid
  rotates the Euler-Maclaurin value of zeta (one routine, ``_em_z``, which
  also gives the sweep's Newton steps their dZ/dt); from t = 200 up it takes
  the Riemann-Siegel main sum with five correction terms C0..C4 and commits
  W. Gabcke's bound 0.017 t^(-11/4) on the remainder plus the rounding.
  Its phases theta(t) - t log k are compensated: theta's growing part at
  the anchor t0, the multiple of 16 below t, and t0 log k are formed in
  double-double and reduced mod 2 pi; only the small rest, d log k with
  d = t - t0 and theta(t) less that growth, is formed in double.
  ``rs_z_with_deriv`` is the same route with dZ/dt, for the sweep's
  Newton steps, and returns the committed error too.
  The correction functions are built from an exact power series for
  psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), an entire function, so
  its derivatives up to the twelfth are evaluated stably; each C_r is even
  or odd in p - 1/2, a series in (p - 1/2)^2, evaluated at real p only.
* ``theta`` is the asymptotic phase with four reciprocal correction terms,
  valid for t >= 10.
* ``log_gamma`` uses upward recurrence into |s| >= 32 followed by the
  Stirling series (for Re s > 0 this reproduces the canonical branch that is
  real on the positive axis); Re s <= 0 goes through the reflection formula
  with principal logs, which is adequate for every in-package consumer since
  they only exponentiate the result.
* Every Euler-Maclaurin main sum reads k^{-it} for k < N from
  ``_n_pow_it``: one exponential per prime, and each composite as the
  product of the values at its smallest prime factor and its cofactor, so a
  value depends on k and t alone.  The 24 Bernoulli corrections are one
  vectorized pass over the running product of (s + j)/N, j = 0..48, taken
  two factors at a time; scaled by N, it stays finite at any height.  The
  shift table runs the same recurrence on Taylor series in alpha.

All functions assume Im s >= 0 internally and extend by conjugation, so
``zeta(conj(s)) == conj(zeta(s))`` holds bit-for-bit.

Everything here is pure; the only module state is a lazily grown read-only
table of log n, and a fixed one of log k as double-doubles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi

EULER_MACLAURIN = "euler_maclaurin"
RIEMANN_SIEGEL = "riemann_siegel"
REFLECTION = "reflection"

# Bernoulli numbers B_2, B_4, ..., B_50, exact.
_B2K = tuple(Fraction(p, q) for p, q in (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322), (-7709321041217, 510), (2577687858367, 6),
    (-26315271553053477373, 1919190), (2929993913841559, 6),
    (-261082718496449122051, 13530), (1520097643918070802691, 1806),
    (-27833269579301024235023, 690), (596451111593912163277961, 282),
    (-5609403368997817686249127547, 46410),
    (495057205241079648212477525, 66),
))

_EM_TERMS = 24          # Bernoulli corrections actually summed
_EM_MIN_LENGTH = 30     # shortest main sum; see em_truncation
_DERIV_ERR_FACTOR = 3.0  # log N growth allowance per derivative order; audited
# rounding of the pole tail per unit of n^(1-sigma)/|s-1|: at most 6.9e-16
# against mpmath at 3,000 points with 1e-9 <= |s-1| < 1 and sigma >= 0.3
_POLE_NOISE = 1.5e-15


def _em_coefficients():
    """B_{2r}/(2r)! for r = 1.._EM_TERMS, and |B_{2r}|/(2r)! for the first omitted r."""
    coeff = [float(_B2K[r - 1] / math.factorial(2 * r)) for r in range(1, _EM_TERMS + 2)]
    return np.array(coeff[:-1]), abs(coeff[-1])


_EM_COEFF, _EM_NEXT_COEFF = _em_coefficients()
_EM_SHIFTS = np.arange(2 * _EM_TERMS + 1, dtype=np.float64)[:, None]  # j in s + j
_EM_ODD = _EM_SHIFTS[1::2]                                             # 2r - 1
_RS_CUTOVER = 200.0     # hardy_z switches to Riemann-Siegel above this t
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


def _n_pow_it(ts: np.ndarray, n: int) -> np.ndarray:
    """k^{-i*ts} for k = 1..n as an (n, len(ts)) complex array.

    One exponential per prime <= n; every composite is one complex product
    per level, from the shared sieve's ``factor_plan``.  Row k-1 depends on
    k and ts alone, whatever n is.
    """
    from .primes import shared_sieve            # primes imports this module
    primes, levels = shared_sieve(n).factor_plan
    e = np.empty((n, ts.size), dtype=np.complex128)
    e[0] = 1.0
    rows = primes[: np.searchsorted(primes, n)]
    e[rows] = np.exp(-1j * np.multiply.outer(_logn(n)[rows], ts))
    for comp, spf, cof in levels:
        stop = np.searchsorted(comp, n)
        if stop == 0:
            break
        # not in place: numpy rounds an in-place product of one element
        # differently, and a value must not depend on len(ts)
        e[comp[:stop]] = e[spf[:stop]] * e[cof[:stop]]
    return e


def em_truncation(t):
    """Euler-Maclaurin main-sum length for height t (a float or an array).

    With N >= |t|/pi, |s|/(2 pi N) <= 1/2 and each Bernoulli correction is
    about a quarter of the one before, so 24 of them leave a remainder bound
    below 1% of the main sum's rounding allowance 2.5e-15 t log N.  At low
    heights the factors s + j, j <= 48, outgrow |s|; the floor of 30 terms
    keeps that 1% there (a floor of 20 reaches 6% just below t = 20 pi).

    max(30, ceil(|t|/pi)) is rounded up to m * 2^e with 16 <= m <= 31: exact
    below 32 terms, less than 1/16 in excess above, and few enough distinct
    lengths that a batch of nearby heights shares one.

    A scalar takes Python arithmetic: numpy's per-call overhead on scalars,
    about 18 us in perfbench's pointwise-1e5 mix on a 2-vCPU x86-64 host, is
    a tenth of a low-height zeta call.  Both branches round the same float
    ceil(|t|/pi) exactly, so a height's N is the same either way.
    """
    if not isinstance(t, np.ndarray):
        n = max(_EM_MIN_LENGTH, math.ceil(abs(t) / math.pi))
        step = 1 << max(n.bit_length() - 5, 0)
        return -(-n // step) * step
    # n = mant * 2^exp with 1/2 <= mant < 1, so exp is n's bit length
    mant, exp = np.frexp(np.maximum(np.ceil(np.abs(t) / math.pi), _EM_MIN_LENGTH))
    return np.ldexp(np.ceil(32.0 * mant), exp - 5).astype(np.int64)


def _runs(keys: np.ndarray):
    """(start, stop) of each run of equal consecutive keys."""
    if keys.size == 0:
        return []
    starts = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist()]
    return zip(starts, starts[1:] + [keys.size])


def _bucket_runs(ts: np.ndarray):
    """Consecutive index runs of equal truncation n, each at most
    max(128, 2^15 // n) long: below n = 256 a run's (n, len) k^{-it} array
    holds at most 2^15 complex values (512 kB), so short sums take few runs."""
    lengths = em_truncation(ts)
    runs = []
    for start, stop in _runs(lengths):
        n = int(lengths[start])
        cap = max(128, 2 ** 15 // n)
        runs += [(slice(i, min(i + cap, stop)), n) for i in range(start, stop, cap)]
    return runs


# ---------------------------------------------------------------------------
# Euler-Maclaurin core, vectorized over a batch of heights at fixed sigma.


def _zeta_em_batch(sigma: float, ts: np.ndarray, n_terms: int, max_order: int):
    """zeta and derivatives at sigma + i*ts by Euler-Maclaurin with n_terms.

    Returns (values, errs): values[j] and errs[j] are the arrays of j-th
    derivative values and their committed errors for j = 0..max_order.
    Valid for sigma > -(2*_EM_TERMS + 1); ts must be nonnegative.
    """
    ts = np.asarray(ts, dtype=np.float64)
    n = n_terms
    logn = _logn(n - 1)                       # log 1 .. log(n-1)
    amp = np.exp(-sigma * logn)
    # (n-1, 2m): Re and Im of k^{-it} side by side.  einsum sums each column
    # over k in order, so a value does not depend on the other heights; BLAS
    # products were measured to change bits with the batch size.
    e = _n_pow_it(ts, n - 1).view(np.float64)
    weights = amp.copy()
    sums = [np.einsum("k,ki->i", weights, e).view(np.complex128)]
    for _ in range(max_order):
        weights *= -logn
        sums.append(np.einsum("k,ki->i", weights, e).view(np.complex128))
    del e

    boundary, trunc = _em_boundary(sigma + 1j * ts, n, max_order)
    values = [a + b for a, b in zip(sums, boundary)]
    # Floating-point noise: amplitude sum and phase error t*log(n)*eps.
    amp_sum = float(amp.sum()) + n ** (-sigma) * (0.5 + n / max(1.0, abs(sigma - 1.0)))
    fp = 4e-16 * amp_sum + 2.5e-15 * np.abs(ts) * math.log(n) + 1e-15
    growth = math.log(n) + _DERIV_ERR_FACTOR
    errs = [(trunc + fp) * growth ** j for j in range(max_order + 1)]
    if abs(sigma - 1.0) < 1.0 and ts.min(initial=math.inf) < 1.0:
        # Within |s - 1| < 1 the pole tail N^(1-s)/(s-1) outgrows the
        # amplitude sum: its rounding, of size n^(1-sigma)/|s-1|, and that
        # of its derivatives, at most (log n + 3 + 2/|s-1|)^j times more,
        # is counted there.  The pole term is 0 from |s - 1| = 1 out.
        dist = np.hypot(sigma - 1.0, ts)
        pole = _POLE_NOISE * n ** (1.0 - sigma) * np.maximum(0.0, 1.0 / dist - 1.0)
        errs = [np.maximum(e, pole * (growth + 2.0 / dist) ** j) for j, e in enumerate(errs)]
    return values, errs


def _em_grid(sigma: float, ts: np.ndarray, max_order: int):
    """zeta^(j)(sigma + i*ts) and their committed errors for j = 0..max_order,
    as two (max_order + 1, len(ts)) arrays: one _zeta_em_batch pass per
    _bucket_runs run, so a value depends on its height alone."""
    values = np.empty((max_order + 1, ts.size), dtype=np.complex128)
    errs = np.empty((max_order + 1, ts.size))
    for sl, n in _bucket_runs(ts):
        values[:, sl], errs[:, sl] = _zeta_em_batch(sigma, ts[sl], n, max_order)
    return values, errs


def _em_boundary(s: np.ndarray, n, max_order: int):
    """Euler-Maclaurin terms beyond the main sum at truncation n (an int, or
    an array like s): the trapezoid end N^{-s}/2, the pole tail
    N^{1-s}/(s-1) and the Bernoulli corrections.

    Returns (terms, bound): terms[j] is the j-th s-derivative of their sum
    for j = 0..max_order, and bound is the remainder bound, the first
    omitted correction times |s+2m+1|/(sigma+2m+1).
    """
    n = np.asarray(n, dtype=np.float64)
    log_n = np.log(n)
    n_pow = np.exp(-s * log_n)                # N^{-s}
    half = 0.5 * n_pow
    tail = n_pow * (n / (s - 1.0))            # N^{1-s}/(s-1)

    # Bernoulli corrections T_r = B_{2r}/(2r)! * prod_{j=0}^{2r-2}(s+j) * N^{1-s-2r}
    # = B_{2r}/(2r)! * P_{2r-2} * N^{-s}, one row per r, with P_k the running
    # product of (s+j)/N, formed two factors at a time: P_0 = s/N, then
    # P_{2r} = P_{2r-2} (s+2r-1)(s+2r)/N^2.  Unscaled, 49 factors of |s|
    # overflow near |s| = 2e6.
    factors = np.empty((_EM_TERMS + 1,) + np.shape(s), dtype=np.complex128)
    factors[0] = s / n
    factors[1:] = (s + _EM_ODD) * (s + (_EM_ODD + 1.0)) / (n * n)
    prod = np.cumprod(factors, axis=0)                  # P_0, P_2, ..., P_2m
    corr = _EM_COEFF[:, None] * prod[:-1] * n_pow
    terms = [half + tail + _sum_rows(corr)]
    if max_order >= 1:
        rows = slice(0, 2 * _EM_TERMS, 2)
        inv = 1.0 / (s + _EM_SHIFTS)
        u = np.cumsum(inv, axis=0)[rows] - log_n        # sum_j 1/(s+j) - log N
        u_tail = -log_n - 1.0 / (s - 1.0)
        terms.append(-log_n * half + tail * u_tail + _sum_rows(corr * u))
    if max_order >= 2:
        recip2 = np.cumsum(inv * inv, axis=0)[rows]      # sum_j 1/(s+j)^2
        du_tail = 1.0 / (s - 1.0) ** 2
        terms.append(log_n * log_n * half + tail * (u_tail * u_tail + du_tail)
                     + _sum_rows(corr * (u * u - recip2)))

    m2 = 2 * _EM_TERMS
    sigma = s.real
    bound = _EM_NEXT_COEFF * np.abs(prod[-1]) * n ** -sigma
    bound *= np.abs(s + (m2 + 1)) / (sigma + m2 + 1)
    return terms, bound


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=0) for a complex array, row after row at every width: one
    column alone would be summed pairwise, in another order."""
    return x.view(np.float64).sum(axis=0).view(np.complex128)


def _em_boundary_series(s0: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Taylor coefficients in alpha, to degree _TAYLOR_ORDER, of _em_boundary's
    terms at s = s0 + alpha with truncation n (an array like s0), one row per
    s0: N^{-s} G(s), G(s) = 1/2 + N/(s - 1) + sum_r B_{2r}/(2r)! P_{2r-2}(s).

    Each part is a closed form in alpha: P_0 = (s0 + alpha)/N and P_{2r} =
    P_{2r-2} ((s0 + 2r - 1) + alpha)((s0 + 2r) + alpha)/N^2 on series cut at
    degree _TAYLOR_ORDER, which is exact up to that degree; the pole tail
    N/(s0 - 1) sum_k (alpha/(1 - s0))^k; and N^{-alpha}, a product with
    (-log N)^k / k!.  Every step acts on each row alone, so a row does not
    depend on the others.
    """
    s0 = s0[:, None]
    n = np.asarray(n, dtype=np.float64)[:, None]
    inv_n2 = 1.0 / (n * n)
    prod = np.zeros((s0.shape[0], _TAYLOR_ORDER + 1), dtype=np.complex128)
    prod[:, :1] = s0 / n
    prod[:, 1:2] = 1.0 / n
    series = np.zeros_like(prod)
    for r, c in enumerate(_EM_COEFF, start=1):
        series += c * prod
        if r < _EM_TERMS:
            a, b = s0 + (2 * r - 1), s0 + 2 * r
            step = prod * (a * b * inv_n2)
            step[:, 1:] += prod[:, :-1] * ((a + b) * inv_n2)
            step[:, 2:] += prod[:, :-2] * inv_n2
            prod = step
    geometric = np.empty_like(prod)
    geometric[:, :1] = n / (s0 - 1.0)
    geometric[:, 1:] = 1.0 / (1.0 - s0)
    series += np.cumprod(geometric, axis=1)
    series[:, 0] += 0.5
    log_n = np.log(n)
    out = series.copy()
    power = np.ones_like(log_n)
    for k in range(1, _TAYLOR_ORDER + 1):
        power = power * (-log_n / k)                      # (-log N)^k / k!
        out[:, k:] += power * series[:, :-k]
    return out * np.exp(-s0 * log_n)


def _check_domain(s: complex) -> None:
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"non-finite argument {s!r}")
    if s.real < -3.0:
        raise DomainError(f"sigma = {s.real} below supported strip (sigma >= -3)")
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleError("zeta has a pole at s = 1")


def _zeta_orders(s: complex, order: int):
    """zeta^(j)(s) for j = 0..order from one pass, with their committed errors
    and the route: ([values], [errors], tag)."""
    if s.imag < 0:
        values, errs, tag = _zeta_orders(s.conjugate(), order)
        return [v.conjugate() for v in values], errs, tag
    _check_domain(s)
    # Euler-Maclaurin converges in the whole supported strip, but left of it
    # its terms cancel: zeta's committed error reaches 4e-9 of |zeta| at
    # |s| = 2.5, where the reflection commits 3e-13.  Reflection is also
    # mandatory for derivatives there (the term-differentiated corrections
    # degenerate at the nonpositive integers).  Near s = 0 the reflected
    # point approaches the pole, so zeta keeps the direct route within
    # |s| <= 0.4, where that route commits less than the reflection.
    if s.real >= 0.3 or (order == 0 and abs(s) <= 0.4):
        n = em_truncation(s.imag)
        values, errs = _zeta_em_batch(s.real, np.array([s.imag]), n, order)
        return [complex(v[0]) for v in values], [float(e[0]) for e in errs], EULER_MACLAURIN
    if order > 1:
        raise DomainError("second derivative unsupported for sigma < 0.3")
    # zeta(s) = chi(s) zeta(1-s), zeta'(s) = chi'(s) zeta(1-s) - chi(s) zeta'(1-s)
    z1, e1, _ = _zeta_orders(1.0 - s, order)
    c, ec, cp = _chi_orders(s, order)
    values = [c * z1[0]]
    # the product's own rounding: sqrt(5) 2^-53 of |value| for complex factors
    errs = [abs(c) * e1[0] + abs(z1[0]) * ec + 3e-16 * abs(values[0])]
    if order:
        value = cp * z1[0] - c * z1[1]
        values.append(value)
        errs.append(abs(cp) * e1[0] + abs(c) * e1[1] + abs(z1[0]) * abs(cp) * 1e-12
                    + abs(z1[1]) * ec + 1e-15 * (1.0 + abs(value)))
    return values, errs, REFLECTION


def zeta_deriv(s: complex, order: int) -> EvalResult:
    """zeta^(order)(s) for order in {0, 1, 2}."""
    if order not in (0, 1, 2):
        raise DomainError(f"derivative order {order} unsupported (0, 1, 2 only)")
    values, errs, tag = _zeta_orders(complex(s), order)
    return EvalResult(values[order], errs[order], tag)


def zeta(s: complex) -> EvalResult:
    """zeta(s) for sigma >= -3, s != 1, with a committed error estimate."""
    return zeta_deriv(s, 0)


def zeta_prime(s: complex) -> EvalResult:
    """zeta'(s) by term-differentiated Euler-Maclaurin (not finite differences)."""
    return zeta_deriv(s, 1)


def log_deriv(s: complex) -> EvalResult:
    """zeta'(s)/zeta(s) with propagated error estimate, from one pass."""
    (z, zp), (ez, ezp), tag = _zeta_orders(complex(s), 1)
    if abs(z) < 1e-12:
        raise NearZeroError(f"|zeta({s})| = {abs(z):.3e} < 1e-12")
    value = zp / z
    return EvalResult(value, (ezp + abs(value) * ez) / abs(z), tag)


def zeta_at_heights(gammas: np.ndarray, alpha: complex = 0.0,
                    order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """zeta^(order)(1/2 + i*gamma + alpha) for an ascending array of heights.

    The direct route for shifts beyond ZeroShiftEvaluator's radius, and the
    reference that tests hold the table to: one Euler-Maclaurin pass per
    _bucket_runs run of heights that share a truncation, so a value does not
    depend on which other heights come with it and equals zeta_deriv's.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    sigma = 0.5 + complex(alpha).real
    ts = gammas + complex(alpha).imag
    if not (math.isfinite(sigma) and np.all(np.isfinite(ts))):
        raise DomainError(f"non-finite shifted abscissa or ordinate (alpha = {alpha})")
    if sigma < 0.25:
        raise DomainError(f"shifted abscissa {sigma} too far left for the fast path")
    if np.any(ts < 0):
        raise DomainError("negative shifted ordinate in fast path")
    values, errs = _em_grid(sigma, ts, order)
    return values[order], errs[order]


# Shift-table order: the omitted terms stay below 1e-20 of the main sum's
# amplitude sum n^{-1/2} while |alpha| log N <= 1.5.
_TAYLOR_ORDER = 24
# samples per Riemann-Siegel row, on |alpha| = 2 radius, of the chi side and
# the corrections, for the table's discrete Fourier transform
_CIRCLE_SAMPLES = 32
_RADIUS_SLACK = 1e-15   # rounding allowance of |alpha| on the table's radius
_EM_SHIFT_BLOCK = 512   # Euler-Maclaurin rows per boundary pass: (rows, 25) complex series
# A Riemann-Siegel row of the table commits 2 (3 x 0.017 t^(-11/4) + 8e-15
# sqrt(n)) on zeta (_rs_shift_error), an Euler-Maclaurin row about
# 2.5e-15 t log N (zeta_at_heights at alpha = 0).  Scanned at step 0.1 on
# [1500, 4000], the two meet at t = 2,564: below it EM commits less, above
# it RS.  Rows take RS from the first truncation step above that height,
# em_truncation(gamma + 1) > 832 (gamma > 832 pi - 1 = 2,612.8), so each run
# of rows that share a truncation takes one route; on the rows in between EM
# commits at most 8% more than RS would.
_RS_SHIFT_FROM = 2564.0
_RS_SHIFT_BLOCK = 512   # Riemann-Siegel rows per pass: (rows, 32) complex arrays of 256 kB


class ZeroShiftEvaluator:
    """zeta^(order)(rho + alpha) at every zero from one Taylor table in alpha.

    Row i holds the order-24 Taylor coefficients about alpha = 0 of
    zeta(1/2 + i*gamma_i + alpha), on one of two routes, as hardy_z_grid
    takes one per height:

    * Euler-Maclaurin, at the truncation N = em_truncation(gamma_i + 1), on
      the rows with N <= em_truncation(_RS_SHIFT_FROM + 1), that is gamma
      up to 2,612.8.  Main sum: sum_n n^{-rho} (-log n)^j / j!, taken per
      _bucket_runs run as one real product of V^T, V[n, j] = n^{-1/2}
      (-log n)^j / j!, with the real and imaginary parts of n^{-i gamma}
      from _n_pow_it.  Boundary terms (N^{-s}/2, the pole tail, the
      Bernoulli corrections): their exact Taylor coefficients in alpha
      (_em_boundary_series), row by row in blocks of _EM_SHIFT_BLOCK rows.
      These rows agree with zeta_at_heights well inside its committed error.
    * Riemann-Siegel, continued off the line to the complex height
      gamma_i - i alpha (_rs_shift_rows), on the rows above: two sums of
      floor(sqrt(gamma/2pi)) <= 126 terms to t = 1e5 in place of N ~ t/pi.
      The first sum's coefficients are V^T times its phases; chi(s) times
      the second, and the remainder C0..C4, are taken at 32 samples on
      |alpha| = 2 * radius and transformed.  Such a row commits
      _rs_shift_error: 2 order! E / radius^order, with E three times
      Gabcke's bound 0.017 t^(-11/4) plus 4e-15 per unit of 2 sqrt(n) and
      the dropped terms of the series behind the samples.

    The crossover _RS_SHIFT_FROM is where the two routes' committed errors
    meet.  Riemann-Siegel rows are built in blocks of at most
    _RS_SHIFT_BLOCK heights that share n, so no (rows, 32) array spans the
    table.

    The table holds for |alpha| <= radius = 1/log t_max, where |alpha| log N
    stays near 1 and the main-sum series converges superexponentially.
    values() takes one shift or an array of shifts and answers either with
    one matrix product; it refuses a shift beyond the radius, which belongs
    to zeta_at_heights.
    """

    def __init__(self, gammas: np.ndarray, t_max: float):
        gammas = np.asarray(gammas, dtype=np.float64)
        if not np.all(gammas <= t_max):
            # the committed errors hold for |alpha| <= 1/log gamma
            raise DomainError(f"the table's heights must lie at or below t_max = {t_max}")
        self.gammas = gammas
        self.radius = 1.0 / math.log(t_max)
        j = np.arange(_TAYLOR_ORDER + 1)
        self._facts = np.cumprod(np.maximum(j, 1).astype(np.float64))  # j!
        rs_from = em_truncation(_RS_SHIFT_FROM + 1.0)
        truncation = em_truncation(gammas + 1.0)
        runs = [(sl, n) for sl, n in _bucket_runs(gammas + 1.0) if n <= rs_from]
        em_rows = np.flatnonzero(truncation <= rs_from)
        rs_rows = np.flatnonzero(truncation > rs_from)
        rs_lengths = np.floor(np.sqrt(gammas[rs_rows] / TWO_PI)).astype(np.int64)
        n_max = max([n - 1 for _, n in runs] + [int(rs_lengths.max(initial=1))])
        logn = _logn(n_max)
        v = np.exp(-0.5 * logn)[:, None] * (-logn[:, None]) ** j / self._facts
        coeff = np.empty((gammas.size, j.size), dtype=np.complex128)
        for sl, n in runs:
            main = v[: n - 1].T @ _n_pow_it(gammas[sl], n - 1).view(np.float64)
            coeff[sl] = main.view(np.complex128).T
        for i in range(0, em_rows.size, _EM_SHIFT_BLOCK):
            rows = em_rows[i: i + _EM_SHIFT_BLOCK]
            coeff[rows] += _em_boundary_series(0.5 + 1j * gammas[rows], truncation[rows])
        r = 2.0 * self.radius
        w = np.exp(2j * math.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES)[:, None]
        dft = w ** -j / (_CIRCLE_SAMPLES * r ** j)
        for start, stop in _runs(rs_lengths):
            for i in range(start, stop, _RS_SHIFT_BLOCK):
                rows = rs_rows[i: min(i + _RS_SHIFT_BLOCK, stop)]
                coeff[rows] = _rs_shift_rows(gammas[rows], int(rs_lengths[start]), v,
                                             r * w[:, 0], dft)
        self._coeff = coeff

    def covers(self, alpha: complex | np.ndarray) -> bool:
        """True when every |alpha| is within the table's radius."""
        return bool(np.all(np.abs(alpha) <= self.radius + _RADIUS_SLACK))

    def values(self, alpha: complex | np.ndarray, order: int = 0) -> np.ndarray:
        """zeta^(order)(rho + alpha) at every zero in one matrix product: shape
        (n,) for a scalar alpha, (n, m) for m shifts, one column per shift."""
        return next(self._row_blocks((slice(None),), alpha, order))

    def _row_blocks(self, blocks, alpha: complex | np.ndarray, order: int = 0):
        """values() at the zeros of each slice of rows in blocks, one product
        per slice, yielded in turn.  BLAS forms each row's product alike
        whatever the slice (checked from 2 to 5,000 rows to t = 1e5), so a
        slice of two or more rows reads the bits values() gives them; numpy
        takes a one-row product through gemv, which rounds differently."""
        if not self.covers(alpha):
            raise DomainError(f"|alpha| = {float(np.max(np.abs(alpha)))} beyond "
                              f"the table radius {self.radius}")
        j = np.arange(order, _TAYLOR_ORDER + 1)
        weights = (self._facts[j] / self._facts[j - order]
                   * np.asarray(alpha, dtype=np.complex128)[..., None] ** (j - order))
        for rows in blocks:
            yield self._coeff[rows, order:] @ weights.T


# ---------------------------------------------------------------------------
# theta and the Hardy Z function.

_THETA_C = (1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0, 127.0 / 430080.0)


def _theta_tail(t):
    """The reciprocal corrections of theta: 1/(48 t) + 7/(5760 t^3) + ..."""
    inv2 = 1.0 / (t * t)
    return _THETA_C[0] / t * (1.0 + inv2 * (_THETA_C[1] / _THETA_C[0]
                              + inv2 * (_THETA_C[2] / _THETA_C[0]
                              + inv2 * _THETA_C[3] / _THETA_C[0])))


def _theta_raw(t):
    lt = np.log(t / TWO_PI)
    return 0.5 * t * lt - 0.5 * t - math.pi / 8.0 + _theta_tail(t)


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
    """d theta / dt, t >= 10."""
    if t < 10.0:
        raise DomainError(f"theta requires t >= 10 (got {t})")
    return float(_theta_deriv_raw(float(t)))


# --- double-double phases ----------------------------------------------------
#
# A double-double is an unevaluated sum hi + lo of two doubles, |lo| at most
# half an ulp of hi (T. J. Dekker, "A floating-point technique for extending
# the available precision", Numer. Math. 18 (1971) 224-242).  Near t = 1e5 the
# Riemann-Siegel phases theta(t) - t log k reach 1e6: in double they carry
# about 1e-10 of rounding into the reduction mod 2 pi, in double-double 1e-15.


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each half within 26 bits."""
    c = 134217729.0 * a                     # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker's product)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_constants():
    """2 pi, log(2 pi) + 1 and log(i/32) for i = 16..32 as (hi, lo) pairs, and
    log 2 as A + B with A on 42 bits, so that e A is exact for any binary
    exponent e; all from 40-digit decimal arithmetic."""
    def pair(x):
        hi = float(x)
        return hi, float(x - Decimal(hi))

    with localcontext() as ctx:
        ctx.prec = 40
        two_pi = 2 * Decimal("3.1415926535897932384626433832795028841971693993751")
        ln2 = Decimal(2).ln()
        ln2_a = math.ldexp(math.floor(math.ldexp(float(ln2), 42)), -42)
        log_c = np.array([pair(Decimal(i).ln() - 5 * ln2) for i in range(16, 33)])
        return (pair(two_pi), pair(two_pi.ln() + 1), (ln2_a, float(ln2 - Decimal(ln2_a))),
                (log_c[:, 0].copy(), log_c[:, 1].copy()))


(_TWO_PI_HI, _TWO_PI_LO), (_LOG_2PI_E_HI, _LOG_2PI_E_LO), (_LN2_A, _LN2_B), \
    (_LOG_C_HI, _LOG_C_LO) = _dd_constants()


def _log_dd(x):
    """log x as a double-double (hi, lo), for an array of doubles x >= 1.

    x = m 2^e with 1/2 <= m < 1, and c = i/32 is the nearest such fraction to
    m.  log(m/c) = 2 atanh(u) with u = (m - c)/(m + c) and |u| <= 1/64: u in
    double-double, its odd powers u^3..u^13 in double (the next is below
    1e-28).  m - c is exact, and so is e A.
    """
    m, e = np.frexp(x)
    i = np.rint(32.0 * m)
    row = i.astype(np.intp) - 16
    v = m - i / 32.0
    w = i / 16.0 + v                        # m + c, and its rounding error
    w_lo = v - (w - i / 16.0)
    u = v / w
    p, pe = _two_prod(u, w)
    u_lo = ((v - p) - pe - u * w_lo) / w
    u2 = u * u
    odd = u * u2 * (2.0 / 3.0 + u2 * (2.0 / 5.0 + u2 * (2.0 / 7.0 + u2 * (
        2.0 / 9.0 + u2 * (2.0 / 11.0 + u2 * (2.0 / 13.0))))))
    hi, lo = _two_sum(e * _LN2_A, _LOG_C_HI[row])
    hi, lo2 = _two_sum(hi, 2.0 * u)
    lo = lo + lo2 + (e * _LN2_B + _LOG_C_LO[row] + 2.0 * u_lo + odd)
    s = hi + lo
    return s, lo - (s - hi)


def _mod_2pi(hi, lo):
    """The double-double hi + lo >= 0 less its nearest multiple of 2 pi, as a
    double in [-pi, pi]: hi - q (2 pi)_hi is exact, and the rest is small."""
    q = np.rint(hi * (1.0 / TWO_PI))
    a, b = _two_prod(q, _TWO_PI_HI)
    return ((hi - a) - b) + (lo - q * _TWO_PI_LO)


def _theta_growth_mod_2pi(ts, l_hi, l_lo):
    """(t/2)(log(t/2pi) - 1) mod 2 pi, the part of theta(t) that grows, for
    an array of t >= 18 with log t given as the double-double (l_hi, l_lo);
    theta adds -pi/8 and the reciprocal corrections."""
    b_hi, b_lo = _two_sum(l_hi, -_LOG_2PI_E_HI)
    half = 0.5 * ts
    p, e = _two_prod(half, b_hi)
    e += half * (b_lo + (l_lo - _LOG_2PI_E_LO))
    return _mod_2pi(p, e)


# log k for the main sums up to t = 2 pi 256^2 = 4.1e5
_LOGK_DD = _log_dd(np.arange(1.0, 257.0))


def _logk_dd(n: int):
    """(hi, lo) of log k for k = 1..n."""
    if n > _LOGK_DD[0].size:
        return _log_dd(np.arange(1.0, n + 1.0))
    return _LOGK_DD[0][:n], _LOGK_DD[1][:n]


# --- Riemann-Siegel correction machinery -----------------------------------
#
# psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p) is entire: every zero of
# the denominator is cancelled by the numerator.  Writing u = p - 1/2 the
# function is cos(2 pi (u^2 - 5/16)) / (-cos(2 pi u)); its Taylor
# coefficients about u = 0 are recovered from function values on the circle
# |u| = 1 by FFT (the circle stays away from the denominator zeros, so each
# sample is computed stably; the coefficients inherit ~1e-13 absolute
# accuracy, ample for derivatives up to order twelve on |u| <= 1/2).

_PSI_DEGREE = 40    # degree in u of C0..C4; each row's dropped tail is <= 1e-16


def _psi_series() -> np.ndarray:
    m_fft = 512
    u = np.exp(2j * math.pi * np.arange(m_fft) / m_fft)
    f = np.cos(TWO_PI * (u * u - 5.0 / 16.0)) / (-np.cos(TWO_PI * u))
    coeff = np.fft.fft(f) / m_fft
    return coeff[: _PSI_DEGREE + 13].real      # C4 needs up to psi^(12)


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
    """C0..C4 and their u-derivatives as power series in v = u^2, to degree
    _PSI_DEGREE in u: an array of shape (2, 5, _PSI_DEGREE // 2 + 1).

    C_r is even in u for even r and odd for odd r (psi is even in u), so
    row r of the first table holds C_r / u^(r % 2), and row r of the second
    C_r' / u^((r + 1) % 2).
    """
    d = _psi_deriv_coeffs
    rows = np.vstack([
        d(0),
        -d(3) / (96.0 * _PI2),
        d(2) / (64.0 * _PI2) + d(6) / (18432.0 * _PI2 ** 2),
        -d(1) / (64.0 * _PI2) - d(5) / (3840.0 * _PI2 ** 2) - d(9) / (5308416.0 * _PI2 ** 3),
        (d(0) / (128.0 * _PI2) + 19.0 * d(4) / (24576.0 * _PI2 ** 2)
         + 11.0 * d(8) / (5898240.0 * _PI2 ** 3) + d(12) / (2038431744.0 * _PI2 ** 4)),
    ])
    slopes = np.zeros_like(rows)
    slopes[:, :-1] = rows[:, 1:] * np.arange(1.0, _PSI_DEGREE + 1.0)
    table = np.zeros((2, 5, _PSI_DEGREE // 2 + 1))
    for r in range(5):
        for half, series in zip(table, (rows[r, r % 2::2], slopes[r, (r + 1) % 2::2])):
            half[r, :series.size] = series
    return table


_C_TABLE = _correction_coeff_table()
_RS_GABCKE = 0.017  # |remainder after C4| <= this * t^(-11/4) for t >= 200


def _rs_correction(p: np.ndarray, max_order: int):
    """C0..C4 at real p, the rows of a (5, len(p)) array, and for max_order 1
    (else None) their p-derivatives: Horner's rule in v = (p - 1/2)^2 on all
    five rows at once."""
    u = p - 0.5
    v = u * u

    def horner(table, odd_rows):
        acc = np.repeat(table[:, -1:], u.size, axis=1)
        for column in table.T[-2::-1]:
            acc *= v
            acc += column[:, None]
        acc[odd_rows] *= u
        return acc

    rows = horner(_C_TABLE[0], slice(1, None, 2))
    return rows, horner(_C_TABLE[1], slice(0, None, 2)) if max_order else None


# The shift table's corrections: F(p) = (-1)^(n-1) sum_r C_r(p) (n + p)^(-r-1/2)
# is real-analytic in p.  Its Taylor series about the real p0 of a height,
# to degree _RS_MODEL_ORDER, gives the samples off the line, where the circle
# moves p by |dp| <= 1.1e-3; _rs_shift_error bounds the dropped terms.
_RS_MODEL_ORDER = 6
_RS_MODEL_DISK = 0.51   # |p - 1/2| over which the dropped terms are bounded


def _correction_model_tables():
    """Three tables for F's Taylor series, from _C_TABLE:

    * C_r^(q)(u)/q! as power series in u = p - 1/2, for q = 0.._RS_MODEL_ORDER:
      shape (Q + 1, 5, _PSI_DEGREE + 1), row (q, r), so that a product with
      the powers of u gives every Taylor coefficient of every C_r at u;
    * binom(-r-1/2, k), the Taylor coefficients of (1 + x)^(-r-1/2), for
      k = 0..Q + 1: shape (Q + 2, 5);
    * sup over |u| <= _RS_MODEL_DISK of |C_r^(j)(u)|/j! for j = 0..Q + 1,
      bounded by the coefficients' moduli: shape (5, Q + 2).
    """
    order, m = _RS_MODEL_ORDER, np.arange(_PSI_DEGREE + 1)
    power = np.zeros((5, m.size))
    for r in range(5):
        power[r, r % 2::2] = _C_TABLE[0, r, : (m.size - r % 2 + 1) // 2]
    binom = np.array([[math.comb(int(k), q) for k in m] for q in range(order + 2)],
                     dtype=np.float64)
    derivs = np.zeros((order + 1, 5, m.size))
    for q in range(order + 1):
        derivs[q, :, : m.size - q] = power[:, q:] * binom[q, q:]
    weight = np.ones((order + 2, 5))
    for k in range(1, order + 2):
        weight[k] = weight[k - 1] * (-(np.arange(5) + 0.5) - (k - 1)) / k
    sup = np.array([[np.sum(np.abs(power[r, j:]) * binom[j, j:]
                            * _RS_MODEL_DISK ** (m[j:] - j)) for j in range(order + 2)]
                    for r in range(5)])
    return derivs.reshape(-1, m.size), weight, sup


_C_DERIVS, _TAU_BINOM, _C_DERIV_SUP = _correction_model_tables()


def _powers(x: np.ndarray, degree: int) -> np.ndarray:
    """x^j for j = 0..degree, the rows of a (degree + 1, len(x)) array."""
    out = np.empty((degree + 1, x.size))
    out[0] = 1.0
    out[1:] = x
    return np.cumprod(out, axis=0, out=out)


def _rs_correction_series(p0: np.ndarray, n: int) -> np.ndarray:
    """Taylor coefficients in dp of F(p0 + dp) = (-1)^(n-1) sum_r C_r(p0 + dp)
    (n + p0 + dp)^(-r-1/2) about real p0 in [0, 1), to degree
    _RS_MODEL_ORDER: shape (Q + 1, len(p0)), real.  Those of C_r come from
    one product of _C_DERIVS with the powers of p0 - 1/2, those of the weight
    tau^(-r-1/2) from the binomial series in dp/tau0, and F's from their
    convolution."""
    order = _RS_MODEL_ORDER
    c = (_C_DERIVS @ _powers(p0 - 0.5, _PSI_DEGREE)).reshape(order + 1, 5, p0.size)
    eta = 1.0 / (n + p0)
    weights = np.sqrt(eta) * _powers(eta, order + 4)                 # tau0^(-1/2-j)
    series = np.zeros((order + 1, p0.size))
    for k in range(order + 1):
        w = _TAU_BINOM[k][:, None] * weights[k: k + 5]               # (r, rows)
        series[k:] += np.einsum("qri,ri->qi", c[: order + 1 - k], w)
    return series if n % 2 else -series


_RS_ANCHOR = 16.0   # t = t0 + d, t0 a multiple of this: d log k < 16 log n
# heights per pass: the correction rows and the phases of a block stay in a
# 2 MB L2 cache (13.5 against 24 ms for the rows at 180,000 heights at once)
_RS_BLOCK = 8192
_RS_ORDERS = np.arange(5)[:, None] + 0.5    # C_r is weighed by eta^(r + 1/2)


def _rs_z(ts: np.ndarray, max_order: int):
    """Riemann-Siegel Z on ascending heights t >= _RS_CUTOVER, its committed
    error, and (for max_order 1, else None) dZ/dt.  With tau = sqrt(t/2pi),
    eta = 1/tau and n = floor(tau),

        Z = 2 sum_{k <= n} k^{-1/2} cos(theta(t) - t log k)
            + (-1)^(n-1) sum_{r <= 4} C_r(tau - n) eta^(r + 1/2).

    Each height has an anchor t0, the multiple of _RS_ANCHOR below it, and
    d = t - t0.  With G(t) = (t/2)(log(t/2pi) - 1), the part of theta that
    grows, the phase is A(t0, k) + (theta(t) - G(t0)) - d log k: A(t0, k) =
    G(t0) - t0 log k mod 2 pi comes from double-double values, and the rest,
    of size up to d log(t/2pi), is formed in double.
    Heights go in blocks of _RS_BLOCK, the main sums in runs of one n.

    The committed error is W. Gabcke's bound 0.017 t^(-11/4) on the remainder
    after C4 (Neue Herleitung und explizite Restabschaetzung der
    Riemann-Siegel-Formel, thesis, Goettingen 1979; t >= 200) plus the
    rounding: per phase, two reductions mod 2 pi and the roundings of
    quantities up to d (log(t/2pi) + log n); then the cosines and sums, and
    1e-15 eta^(1/2) for the corrections.
    """
    z, err = np.empty(ts.size), np.empty(ts.size)
    dz = np.empty(ts.size) if max_order else None
    for start in range(0, ts.size, _RS_BLOCK):
        sl = slice(start, start + _RS_BLOCK)
        z[sl], err[sl], slope = _rs_block(ts[sl], max_order)
        if max_order:
            dz[sl] = slope
    return z, err, dz


def _rs_block(ts: np.ndarray, max_order: int):
    """_rs_z on one block of ascending heights."""
    tau = np.sqrt(ts / TWO_PI)
    eta = 1.0 / tau
    lengths = np.floor(tau)
    t0 = _RS_ANCHOR * np.floor(ts / _RS_ANCHOR)
    d = ts - t0
    new = np.concatenate(([True], t0[1:] != t0[:-1]))
    anchors, which = t0[new], np.cumsum(new) - 1
    l_hi, l_lo = _log_dd(anchors)
    log0 = (l_hi - _LOG_2PI_E_HI) + (l_lo - _LOG_2PI_E_LO)      # log(t0/2pi) - 1
    growth0 = _theta_growth_mod_2pi(anchors, l_hi, l_lo)
    # theta(t) less the growth at t0: (d/2)(log(t0/2pi) - 1) + (t/2) log(1 + d/t0)
    # - pi/8 + the reciprocal corrections
    shift = (0.5 * d * log0[which] + 0.5 * ts * np.log1p(d / t0)
             + (_theta_tail(ts) - math.pi / 8.0))
    log_hi, log_lo = _logk_dd(int(lengths.max(initial=1.0)))

    rows, slopes = _rs_correction(tau - lengths, max_order)
    root = np.where(lengths % 2.0, 1.0, -1.0) * np.sqrt(eta)       # (-1)^(n-1) eta^(1/2)

    def in_eta(r):
        """sum_j r[j] eta^j, by Horner's rule."""
        return r[0] + eta * (r[1] + eta * (r[2] + eta * (r[3] + eta * r[4])))

    z = root * in_eta(rows)
    # per phase: two reductions, and roundings of quantities up to
    # d (log(t/2pi) + log n) <= 3 d log tau, counted one and a half times
    phase_err = 4.0 * math.pi + d * (4.5 * np.log(tau) + 1.0)
    err = _RS_GABCKE * ts ** -2.75 + 1e-15 * np.sqrt(eta)
    dz = None
    if max_order:
        # d tau/dt = eta/(4 pi), and d eta^a/dt = -a eta^(a+2)/(4 pi)
        dz = eta / (4.0 * math.pi) * root * (in_eta(slopes) - eta * in_eta(_RS_ORDERS * rows))
        dtheta = _theta_deriv_raw(ts)
    for start, stop in _runs(lengths):
        sl = slice(start, stop)
        n = int(lengths[start])
        hi, lo = log_hi[:n], log_lo[:n]
        amp = 1.0 / np.sqrt(np.arange(1.0, n + 1.0))
        first, last = which[start], which[stop - 1] + 1
        p, e = _two_prod(anchors[first:last, None], hi)
        table = _mod_2pi(p, e + np.multiply.outer(anchors[first:last], lo))
        np.subtract(growth0[first:last, None], table, out=table)
        phase = table[which[sl] - first]
        phase += shift[sl, None]
        phase -= np.multiply.outer(d[sl], hi)
        sines = np.sin(phase) if max_order else None
        np.cos(phase, out=phase)
        # einsum, not a BLAS product: a value must not depend on len(ts)
        z[sl] += 2.0 * np.einsum("ik,k->i", phase, amp)
        amp_sum = float(amp.sum())
        err[sl] += 2.2e-16 * (2.0 * amp_sum) * phase_err[sl] + 4e-16 * amp_sum
        if max_order:
            dz[sl] -= 2.0 * (dtheta[sl] * np.einsum("ik,k->i", sines, amp)
                             - np.einsum("ik,k->i", sines, amp * hi))
    return z, err, dz


def _rs_correction_samples(gammas: np.ndarray, n: int, delta: np.ndarray) -> np.ndarray:
    """F(p) = (-1)^(n-1) sum_r C_r(p) tau^(-r-1/2) at the complex heights
    gamma + delta, with tau = sqrt(t/2pi) and p = tau - n: one row per
    gamma, one column per delta, for |delta/gamma| <= 1e-4.  The real Taylor
    series of F about p0 = tau(gamma) - n, by Horner's rule in
    dp = tau(gamma + delta) - tau(gamma); _rs_model_bound bounds the
    dropped terms."""
    tau0 = np.sqrt(gammas / TWO_PI)
    model = _rs_correction_series(tau0 - n, n)                           # (Q + 1, rows)
    # dp = delta/(4 pi tau0) 2/(1 + sqrt(1 + x)), x = delta/gamma, a polynomial
    # in delta: 1 - x/4 + x^2/8 - 5x^3/64 leaves 14 (x/4)^4 < 6e-18 relative
    catalan = np.array([1.0, -0.25, 0.125, -5.0 / 64.0])
    powers = delta ** np.arange(1, catalan.size + 1)[:, None]
    scale = 4.0 * math.pi * tau0[:, None] * gammas[:, None] ** np.arange(catalan.size)
    dp = (catalan / scale) @ powers
    corr = model[-1][:, None] * dp
    for c in model[-2:0:-1]:
        corr += c[:, None]
        corr *= dp
    corr += model[0][:, None]
    return corr


def _rs_model_bound(tau, dp):
    """Bound on the terms that _rs_correction_samples drops, at heights with
    tau = sqrt(t/2pi) >= 1 and |dp| <= dp <= 0.01: Taylor's remainder
    |dp|^(Q+1) sup |F^(Q+1)|/(Q+1)! on the segment from p0 to p0 + dp, with
    F^(Q+1)/(Q+1)! by Leibniz's rule from sup |C_r^(j)|/j! (_C_DERIV_SUP) and
    the weights' coefficients |binom(-r-1/2, k)| |tau|^(-r-1/2-k) at
    |tau| >= tau0 - 0.01."""
    tau = np.asarray(tau, dtype=np.float64)
    q1 = _RS_MODEL_ORDER + 1
    k = q1 - np.arange(q1 + 1)                      # weight order beside C_r^(j), j = 0..Q+1
    exponent = np.arange(5)[:, None] + 0.5 + k
    weights = np.abs(_TAU_BINOM[k].T) * (tau[..., None, None] - 0.01) ** -exponent
    return dp ** q1 * np.sum(_C_DERIV_SUP * weights, axis=(-2, -1))


_THETA_TERMS = 5    # theta(t_c) - theta(gamma) to delta^5; _rs_shift_error bounds the rest


def _theta_series(ts, terms: int) -> np.ndarray:
    """theta^(k)(t)/k! for k = 1..terms, shape ts.shape + (terms,): the
    growing part (t/2)(log(t/2pi) - 1) gives (-1)^k t^(1-k)/(2k(k-1)) from
    k = 2, and each reciprocal correction c t^(-m) gives c binom(-m, k) t^(-m-k)."""
    ts = np.asarray(ts, dtype=np.float64)
    inv = 1.0 / ts
    out = np.empty(ts.shape + (terms,))
    out[..., 0] = _theta_deriv_raw(ts)
    for k in range(2, terms + 1):
        sign = (-1.0) ** k
        term = sign / (2.0 * k * (k - 1)) * inv ** (k - 1)
        for c, m in zip(_THETA_C, (1, 3, 5, 7)):
            term += c * sign * math.comb(m + k - 1, k) * inv ** (m + k)
        out[..., k - 1] = term
    return out


def _rs_shift_rows(gammas: np.ndarray, n: int, v: np.ndarray, alphas: np.ndarray,
                   dft: np.ndarray) -> np.ndarray:
    """ZeroShiftEvaluator's Taylor rows on the Riemann-Siegel route, for
    heights that share n = floor(sqrt(gamma/2pi)); alphas are the table's 32
    samples, dft its transform from them to coefficients.

    With s = 1/2 + i gamma + alpha = 1/2 + i t_c, t_c = gamma - i alpha,

        zeta(s) ~ M(alpha) + chi(s) sum_{k<=n} k^{s-1}
                  + e^{-i theta(t_c)} (-1)^(n-1) eta^(1/2) sum_{r<=4} C_r(p) eta^r,

    eta = (2 pi/t_c)^(1/2), p = sqrt(t_c/2pi) - n and chi(s) = e^{-2i theta(t_c)}.
    M(alpha) = sum_{k<=n} k^{-1/2-alpha} e^{-i gamma log k} takes exact Taylor
    coefficients, v^T times the phases, with gamma log k reduced mod 2 pi
    from double-doubles.  The rest is sampled: the second sum at alpha is
    conj M(-conj alpha), and -conj alpha_m = alpha_(16-m) on the circle of
    32; theta(t_c) is theta(gamma) mod 2 pi, from double-doubles, plus the
    Taylor series of theta(t_c) - theta(gamma) in delta = -i alpha to
    _THETA_TERMS terms; the corrections are the real Taylor series of F at
    p0 = sqrt(gamma/2pi) - n (_rs_correction_series), taken at
    p = p0 + dp by Horner's rule in dp.
    """
    log_hi, log_lo = _logk_dd(n)
    p, e = _two_prod(log_hi[:, None], gammas)
    phase = _mod_2pi(p, e + np.multiply.outer(log_lo, gammas))           # (n, rows)
    main = v[:n].T @ np.exp(-1j * phase).view(np.float64)
    coeff = main.view(np.complex128).T                                   # (rows, order + 1)
    j = np.arange(coeff.shape[1])[:, None]
    reflected = (alphas.size // 2 - np.arange(alphas.size)) % alphas.size
    second = np.conj(coeff @ alphas[reflected] ** j)                     # (rows, samples)

    l_hi, l_lo = _log_dd(gammas)
    base = _theta_growth_mod_2pi(gammas, l_hi, l_lo) + (_theta_tail(gammas) - math.pi / 8.0)
    delta = -1j * alphas                                                 # t_c - gamma
    powers = delta ** np.arange(1, _THETA_TERMS + 1)[:, None]            # (terms, samples)
    rot = np.exp(-1j * (base[:, None] + _theta_series(gammas, _THETA_TERMS) @ powers))
    corr = _rs_correction_samples(gammas, n, delta)
    return coeff + (rot * (rot * second + corr)) @ dft


# Samples of the Riemann-Siegel zeta on |alpha| = 2 / log t, the widest
# circle a table reaching t samples, against mpmath at 30 digits (all 32 at
# 80 heights in [1500, 1e5]): up to t = 2e4 the error reached 1.64 times
# Gabcke's bound for the line (off it the correction term's modulus grows
# by (t/2pi)^(-Re alpha/2) < e), and above 3e4 the rounding, 1.2e-15 per
# unit of 2 sqrt(n), dominated.  With 3 and 4e-15, the largest error was
# half the committed one.
_RS_OFFLINE = 3.0
_RS_SAMPLE_NOISE = 4e-15


def _rs_shift_error(ts, radius: float, order: int):
    """Committed error of ZeroShiftEvaluator's Riemann-Siegel rows: of
    zeta^(order)(1/2 + i t + alpha) at |alpha| <= radius, for heights ts.

    A sample on |alpha| = 2 radius errs by at most E = 3 x 0.017 t^(-11/4)
    + 4e-15 x 2 sqrt(n), plus the dropped terms of its two series:
    * the correction model's (_rs_model_bound), times |e^{-i theta}| < 3;
    * theta's first omitted term, twice on e^{-2i theta} (second sum) <=
      9 e 2 sqrt(n), since |k^alpha| <= n^(2 radius) <= e, and once on the
      corrections.
    Both stay below 1e-3 of E.  The main sum's coefficients are exact, and
    the transform's coefficient j errs by at most E (2 radius)^(-j); summed
    over j at |alpha| <= radius, the order-th derivative errs by at most
    2 order! E / radius^order.
    """
    ts = np.asarray(ts, dtype=np.float64)
    tau = np.sqrt(ts / TWO_PI)
    n = np.floor(tau)
    sample = _RS_OFFLINE * _RS_GABCKE * ts ** -2.75 + _RS_SAMPLE_NOISE * 2.0 * np.sqrt(n)
    # |dp| at |alpha| = 2 radius: |tau(t_c) + tau0| >= 2 tau0 - 1
    dp = radius / (math.pi * (2.0 * tau - 1.0))
    model = 3.0 * _rs_model_bound(tau, dp)
    omitted = (np.abs(_theta_series(ts, _THETA_TERMS + 1)[..., -1])
               * (2.0 * radius) ** (_THETA_TERMS + 1))
    theta = omitted * (2.0 * 9.0 * math.e * 2.0 * np.sqrt(n) + 3.0)
    return 2.0 * math.factorial(order) * (sample + model + theta) / radius ** order


def _em_z(ts: np.ndarray, max_order: int):
    """Z on the Euler-Maclaurin route, its committed error, and (for
    max_order 1, else None) dZ/dt, from _em_grid on the critical line.

    |Z| is |zeta(1/2+it)| exactly: only the sign comes from the rotation
    e^{i theta} zeta, whose imaginary residue is folded into the error.
    """
    vals, errs = _em_grid(0.5, ts, max_order)
    rot = np.exp(1j * _theta_raw(ts))
    rotated = rot * vals[0]
    modulus = np.abs(vals[0])
    z = np.where(rotated.real >= 0.0, 1.0, -1.0) * modulus
    err = errs[0] + np.abs(rotated.imag) + 1e-10 * modulus
    dz = -np.imag(rot * (_theta_deriv_raw(ts) * vals[0] + vals[1])) if max_order else None
    return z, err, dz


def hardy_z_grid(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z(t) and its committed error on an ascending grid: Riemann-Siegel
    from the cutover up, Euler-Maclaurin below.  A height's value depends on
    that height alone, not on the rest of the grid."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size and ts[0] < 10.0:
        raise DomainError("hardy_z requires t >= 10")
    # the EM/RS split and the Riemann-Siegel anchors read the grid as sorted
    if not np.all(np.diff(ts) >= 0.0):
        raise DomainError("hardy_z_grid needs ascending heights")
    out = np.empty(ts.size)
    err = np.empty(ts.size)
    n_lo = int(np.searchsorted(ts, _RS_CUTOVER))
    if n_lo:
        out[:n_lo], err[:n_lo], _ = _em_z(ts[:n_lo], 0)
    if n_lo < ts.size:
        out[n_lo:], err[n_lo:], _ = _rs_z(ts[n_lo:], 0)
    return out, err


def hardy_z(t: float) -> EvalResult:
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it), real-valued, t >= 10:
    hardy_z_grid at one point, tagged with the route it took."""
    t = float(t)
    if not (10.0 <= t < math.inf):
        raise DomainError(f"hardy_z requires finite t >= 10 (got {t})")
    vals, errs = hardy_z_grid(np.array([t]))
    tag = RIEMANN_SIEGEL if t >= _RS_CUTOVER else EULER_MACLAURIN
    return EvalResult(complex(vals[0]), float(errs[0]), tag)


def em_z_with_deriv(ts: np.ndarray):
    """(Z, dZ/dt) on the Euler-Maclaurin route for an array of heights;
    the sweep's Newton steps take it below the Riemann-Siegel crossover."""
    z, _, dz = _em_z(np.asarray(ts, dtype=np.float64), 1)
    return z, dz


def rs_z_with_deriv(ts: np.ndarray):
    """(Z, dZ/dt, committed error of Z) on hardy_z_grid's Riemann-Siegel
    route for ascending heights t >= 200.  The sweep's Newton steps finish
    on it wherever the error meets their target, and take their first steps
    on it below that height."""
    ts = np.asarray(ts, dtype=np.float64)
    if not (np.all(ts >= _RS_CUTOVER) and np.all(np.diff(ts) >= 0.0)):
        raise DomainError(f"rs_z_with_deriv needs ascending heights >= {_RS_CUTOVER:g}")
    z, err, dz = _rs_z(ts, 1)
    return z, dz, err


# ---------------------------------------------------------------------------
# log Gamma, digamma, chi.

_STIRLING_SHIFT = 32.0
# Stirling coefficients B_2k/(2k(2k-1)) of log Gamma and B_2k/(2k) of digamma
_LGAMMA_COEFF = tuple(float(_B2K[k - 1] / (2 * k * (2 * k - 1))) for k in range(1, 10))
_DIGAMMA_COEFF = tuple(float(_B2K[k - 1] / (2 * k)) for k in range(1, 9))


def _stirling_lgamma(s: complex) -> complex:
    out = (s - 0.5) * cmath.log(s) - s + 0.5 * math.log(TWO_PI)
    s2 = 1.0 / (s * s)
    term = 1.0 / s
    for c in _LGAMMA_COEFF:
        out += c * term
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
    for c in _DIGAMMA_COEFF:
        out -= c * term
        term *= s2
    return out - acc


def _chi_parts(s: complex):
    """log of the gamma-side prefactor 2^s pi^{s-1} Gamma(1-s) (sin(pi s/2) is
    handled separately), and the sum of its summands' magnitudes: s log 2,
    (s-1) log pi and the Stirling terms of log Gamma(1-s) at the point where
    log_gamma sums them: z = 1 - s, or |z| = 32 when it recurs up from a
    smaller |z|.  They cancel far below that sum, and each carries a
    rounding error relative to itself.
    """
    z = 1.0 - s
    lg = s * math.log(2.0) + (s - 1.0) * math.log(math.pi) + log_gamma(z)
    w = z if abs(z) >= _STIRLING_SHIFT else complex(_STIRLING_SHIFT)
    mag = (abs(s) * math.log(2.0) + abs(s - 1.0) * math.log(math.pi)
           + abs((w - 0.5) * cmath.log(w)) + abs(w))
    if z.real <= 0.0 and z.imag > -20.0:
        # log_gamma reflects through sin(pi z): the rounding of pi z enters
        # its log as pi |z| / |sin(pi z)|, which grows by the poles at
        # z = 0, -1, -2, ... (beyond |Im z| = 20 it is below 1e-25)
        mag += math.pi * abs(z) / abs(cmath.sin(math.pi * z))
    return lg, mag


def _chi_orders(s: complex, order: int):
    """chi(s), its committed error and, for order 1 (else None), chi'(s):
    one log Gamma(1 - s) and one digamma, stable at the trivial zeros and at
    large heights."""
    if s.imag < 0.0:
        value, err, prime = _chi_orders(s.conjugate(), order)
        return value.conjugate(), err, prime.conjugate() if order else None
    if s.real > 3.5 and s.imag == 0.0:
        raise DomainError("chi needs Gamma(1-s) off the poles; sigma too large")
    lg, mag = _chi_parts(s)
    # chi'/chi = log 2 pi - digamma(1 - s) + (pi/2) cot(pi s/2)
    dlog = math.log(2.0) + math.log(math.pi) - digamma(1.0 - s) if order else None
    prime = None
    if s.imag >= 30.0:
        q = cmath.exp(1j * math.pi * s)
        log_sin = -0.5j * math.pi * s + cmath.log(q - 1.0) - cmath.log(2j)
        value = cmath.exp(lg + log_sin)
        # rounding of the exponent: 9 ulps of its summands' magnitudes, about
        # twice the largest error measured against mpmath
        err = abs(value) * (2e-15 * (mag + abs(log_sin)) + 1e-14)
        if order:
            # cot(pi s/2) -> -i stably via e^{i pi s}, which is tiny here
            cot = 1j * (q + 1.0) / (q - 1.0)
            prime = value * (dlog + 0.5 * math.pi * cot)
    else:
        pref = cmath.exp(lg)
        sin = cmath.sin(0.5 * math.pi * s)
        value = pref * sin
        err = (abs(value) * (2e-15 * mag + 1e-14)
               + abs(pref) * 4e-16 * (1.0 + abs(s)))
        if order:
            prime = pref * (dlog * sin + 0.5 * math.pi * cmath.cos(0.5 * math.pi * s))
    return value, err, prime


def chi(s: complex) -> EvalResult:
    """chi(s) = 2^s pi^{s-1} Gamma(1-s) sin(pi s/2), via log-space combination."""
    value, err, _ = _chi_orders(complex(s), 0)
    return EvalResult(value, err, REFLECTION)
