"""Discrete moments over zeros, large-value counts, and the derived audits.

Covers the package's headline quantities: the normalized derivative moments
J_k, shifted moments sum |zeta(rho+alpha)|^{2k} / N(T), the large-value
histogram with its three-case bound parameterization, the dyadic
histogram-to-moment reconstruction, the Cauchy derivative-moment transfer,
the continuous critical-line moment by quadrature, and the log-zeta majorant
audits (Lambda-weighted and prime-only variants).

Asymptotic bounds are audited, never asserted against unknown implied
constants: each audit reports the observed quantity scaled by the bound
shape evaluated with constant 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .primes import DirichletPolySpec, prime_sum, smoothed_sum
from .zeros import ZeroCache
from .zetafn import (
    DomainError,
    ZeroShiftEvaluator,
    hardy_z_grid,
    zeta,
    zeta_at_heights,
)

TAU_OFFSET_PRIME = math.exp(30.0)   # tau convention of the prime-only majorant
# Longest V grid a histogram takes.  Each V is one pass over the zeros: 10,000
# values over the 138,069 zeros to 1e5 take 0.94 s on a 2-vCPU x86-64 host.
# The default grid reaches 4 k log log T, so this admits k up to 1,294 at T = 1e3.
MAX_V_GRID = 10_000
# id(cache) -> {(alpha, order): moduli} while a shared_columns block runs
_SHARED: dict[int, dict] = {}
# zeros per product of the Cauchy disk: (rows, 16) complex values of 512 kB
_DISK_ROWS = 2048
# heights per hardy_z_grid call of continuous_moment, as in one _rs_z block
_GRID_BLOCK = 8192


class GridError(ValueError):
    """V-grid does not satisfy the operation's requirements."""


@dataclass(frozen=True)
class MomentReport:
    """One normalized moment with its conjectured-scale ratio."""

    k: float
    ell: int
    alpha: complex
    t_max: float
    raw_sum: float
    normalized: float
    conjectured_exponent: float
    ratio_to_conjecture: float


@dataclass(frozen=True)
class LargeValueConfig:
    """Per-V parameters of the large-value bound at height t_max."""

    t_max: float
    alpha: complex
    v_grid: tuple[float, ...]
    a_values: tuple[float, ...]
    x_values: tuple[float, ...]
    z_values: tuple[float, ...]
    v1_values: tuple[float, ...]
    v2_values: tuple[float, ...]
    vacuity_threshold: float
    vacuity_threshold_plain: float


@dataclass(frozen=True)
class LargeValueHistogram:
    """Counts #S_alpha(T;V) on the V grid plus bound values (constant 1)."""

    config: LargeValueConfig
    counts: tuple[int, ...]
    bound_values: tuple[float, ...]
    bound_cases: tuple[str, ...]
    n_zeros: int
    max_observed: float


@dataclass(frozen=True)
class CauchyTransferReport:
    """Sampled two-sided data of the derivative-moment transfer inequality.

    n_samples counts the shifts evaluated: the circle and its interior rings.
    slack is the sampled right-hand side over lhs.  The prefactor
    (ell!/radius^ell)^(2k) is kept as its log: it and the right-hand side
    overflow a double at k where the slack is still finite.
    """

    k: int
    ell: int
    radius: float
    n_samples: int
    lhs: float
    log_prefactor: float
    slack: float
    argmax_alpha: complex


@dataclass(frozen=True)
class MajorantSample:
    sigma: float
    t: float
    lhs: float
    rhs_lambda: float
    rhs_prime: float
    skipped: bool = False
    reason: str = ""

    @property
    def slack_lambda(self) -> float:
        return self.rhs_lambda - self.lhs

    @property
    def slack_prime(self) -> float:
        return self.rhs_prime - self.lhs


@dataclass(frozen=True)
class MajorantAuditTable:
    """Per-sample slack of the log-zeta majorant inequalities."""

    spec: DirichletPolySpec
    samples: tuple[MajorantSample, ...]

    def _active(self) -> list[MajorantSample]:
        return [s for s in self.samples if not s.skipped]

    @property
    def min_slack_lambda(self) -> float:
        rows = self._active()
        return min(s.slack_lambda for s in rows) if rows else math.inf

    @property
    def min_slack_prime(self) -> float:
        rows = self._active()
        return min(s.slack_prime for s in rows) if rows else math.inf

    @property
    def fitted_constant_lambda(self) -> float:
        """Smallest nonnegative additive constant making the bound hold."""
        return max(0.0, -self.min_slack_lambda)

    @property
    def fitted_constant_prime(self) -> float:
        return max(0.0, -self.min_slack_prime)


# ---------------------------------------------------------------------------
# zeta and derivatives at (possibly shifted) zeros


def shift_evaluator(cache: ZeroCache) -> ZeroShiftEvaluator:
    """The cache's Taylor table of zeta(rho + alpha), built on first use."""
    return cache.shift_table


def values_at_zeros(cache: ZeroCache, alpha: complex = 0.0,
                    order: int = 0) -> np.ndarray:
    """zeta^(order)(rho + alpha) over the cached zeros.

    Shifts within 1/log t_max read the cache's Taylor table; larger ones
    take the direct Euler-Maclaurin route.
    """
    table = shift_evaluator(cache)
    if table.covers(alpha):
        return table.values(alpha, order)
    return zeta_at_heights(cache.gammas, alpha=alpha, order=order)[0]


@contextmanager
def shared_columns(cache: ZeroCache):
    """Within the block, every report on cache reads each distinct
    |zeta^(order)(rho + alpha)| column from one evaluation; the columns are
    dropped when the block ends.  A default campaign evaluates five: orders
    1 and 2 at alpha = 0, and its three shifts."""
    _SHARED[id(cache)] = {}
    try:
        yield
    finally:
        _SHARED.pop(id(cache), None)


def _moduli(cache: ZeroCache, alpha: complex, order: int) -> np.ndarray:
    """|zeta^(order)(rho + alpha)| over the cached zeros, once per
    shared_columns block; every moment and count reads these moduli alone."""
    columns = _SHARED.get(id(cache), {})
    key = (complex(alpha), order)
    if key not in columns:
        columns[key] = np.abs(values_at_zeros(cache, alpha, order))
    return columns[key]


def _check_shift(t_max: float, alpha: complex) -> None:
    # written so that a NaN part fails the test
    if not (abs(alpha) <= 1.0 and abs(alpha.real) <= 1.0 / math.log(t_max) + 1e-15):
        raise ValueError(f"alpha = {alpha} outside |alpha|<=1, |Re alpha|<=1/log T")


# ---------------------------------------------------------------------------
# moments


def log_power_ratio(value: float, t_max: float, exponent: float) -> float:
    """value / (log t_max)^exponent, formed in logs: the power alone
    overflows a double at exponents where the ratio is still finite.  A ratio
    that overflows (t_max < e, where log t_max < 1) raises ValueError."""
    if value == 0.0:
        return 0.0
    try:
        return math.exp(math.log(value) - exponent * math.log(math.log(t_max)))
    except OverflowError:
        raise ValueError(f"value / (log T)^{exponent:g} overflows a double at "
                         f"T = {t_max:g}") from None


def _require_finite(sums, k: float) -> None:
    """Power sums taken under np.errstate(over="ignore") must not have
    overflowed a double."""
    if not np.all(np.isfinite(sums)):
        raise ValueError(f"the sum of |zeta|^(2k) overflows a double at k = {k:g}")


def _moment(cache: ZeroCache, k: float, ell: int, alpha: complex) -> MomentReport:
    """(1/N) sum |zeta^(ell)(rho + alpha)|^{2k} against (log T)^{k(k + 2 ell)}."""
    if len(cache) == 0:
        raise ValueError("empty cache")
    if not 0.0 < k < math.inf:
        raise ValueError(f"k must be positive and finite (got {k})")
    with np.errstate(over="ignore"):
        raw = float(np.sum(_moduli(cache, alpha, ell) ** (2.0 * k)))
    _require_finite(raw, k)
    n = len(cache)
    exponent = k * (k + 2 * ell)
    return MomentReport(k=k, ell=ell, alpha=alpha, t_max=cache.t_max,
                        raw_sum=raw, normalized=raw / n,
                        conjectured_exponent=exponent,
                        ratio_to_conjecture=log_power_ratio(raw / n, cache.t_max, exponent))


def compute_Jk(cache: ZeroCache, k: float, ell: int) -> MomentReport:
    """J-type moment: (1/N) sum |zeta^(ell)(rho)|^{2k} and its (log T) ratio."""
    if ell not in (0, 1, 2):
        raise ValueError(f"ell must be 0, 1 or 2 (got {ell})")
    return _moment(cache, k, ell, 0.0)


def shifted_moment(cache: ZeroCache, k: float, alpha: complex) -> MomentReport:
    """(1/N) sum |zeta(rho + alpha)|^{2k} against the (log T)^{k^2} scale.

    Requires |alpha| <= 1 and |Re alpha| <= 1/log T (the two-sided range the
    underlying argument actually uses).
    """
    alpha = complex(alpha)
    _check_shift(cache.t_max, alpha)
    return _moment(cache, k, 0, alpha)


# ---------------------------------------------------------------------------
# large values


def _loglog(t: float) -> float:
    return math.log(math.log(t))


def _a_param(t_max: float, v: float) -> float:
    ll = _loglog(t_max)
    l3 = math.log(ll)
    if v <= ll:
        return 0.5 * l3
    if v <= 0.5 * ll * l3:
        return (ll / (2.0 * v)) * l3
    return 1.0


def _vd_bound(t_max: float, v: float, n_zeros: int) -> tuple[float, str]:
    ll = _loglog(t_max)
    l3 = math.log(ll)
    sq = math.sqrt(ll)
    if sq <= v <= ll:
        return (n_zeros * (v / sq) * math.exp(-(v * v / ll) * (1.0 - 4.0 / l3)),
                "i")
    if ll < v <= 0.5 * ll * l3:
        return (n_zeros * (v / sq)
                * math.exp(-(v * v / ll) * (1.0 - 4.0 * v / (ll * l3))), "ii")
    if v > 0.5 * ll * l3:
        return n_zeros * math.exp(-(v / 201.0) * math.log(v)), "iii"
    return float(n_zeros), "trivial"


def vacuity_threshold(t_max: float, plain: bool = False) -> float:
    """Height above which the large-value set is predicted empty.

    The working threshold keeps the tau = T + e^30 convention of the
    prime-only majorant the bound is derived from; plain=True evaluates the
    same shape at tau = T (vacuous at desk scale, reported for reference).
    """
    tau = t_max if plain else t_max + TAU_OFFSET_PRIME
    return 0.4 * math.log(tau) / _loglog(tau)


def large_value_histogram(cache: ZeroCache, k_hint: float, alpha: complex,
                          v_grid=None) -> LargeValueHistogram:
    """Counts of zeros with log|zeta(rho+alpha)| >= V over a V grid of at
    most MAX_V_GRID values (GridError beyond)."""
    if len(cache) == 0:
        raise ValueError("empty cache")
    if cache.t_max < 100.0:
        raise DomainError("large-value parameterization needs t_max >= 100")
    if not math.isfinite(k_hint):
        raise ValueError(f"k_hint must be finite (got {k_hint})")
    alpha = complex(alpha)
    _check_shift(cache.t_max, alpha)
    with np.errstate(divide="ignore"):
        logs = np.log(_moduli(cache, alpha, 0))
    return _histogram(logs, cache.t_max, alpha, k_hint, v_grid)


def _histogram(logs: np.ndarray, t_max: float, alpha: complex, k_hint: float,
               v_grid) -> LargeValueHistogram:
    """Counts, bound values and per-V configuration for one set of log|zeta|.

    The default V grid is 3, 4, ... up to the largest finite value, at least
    4 and at least 4 k_hint log log T; its length is checked before it is
    built.
    """
    finite = logs[np.isfinite(logs)]
    max_obs = float(finite.max()) if finite.size else -math.inf
    ll = _loglog(t_max)
    if v_grid is None:
        top = max(4.0, max_obs, 4.0 * k_hint * ll)
        check_v_grid_length(top - 2.0)
        v_grid = range(3, math.ceil(top) + 1)
    v_grid = [float(v) for v in v_grid]
    check_v_grid_length(len(v_grid))
    if any(b <= a for a, b in zip(v_grid, v_grid[1:])) or not v_grid:
        raise GridError("V grid must be nonempty and ascending")
    if v_grid[0] < 0.0:
        raise GridError("V grid values must be nonnegative")
    counts = tuple(int((logs >= v).sum()) for v in v_grid)
    bounds, cases = zip(*(_vd_bound(t_max, v, logs.size) for v in v_grid))
    a_vals = tuple(_a_param(t_max, v) for v in v_grid)
    x_vals = tuple(min(math.sqrt(t_max), t_max ** (a / v)) if v > 0
                   else math.sqrt(t_max) for a, v in zip(a_vals, v_grid))
    config = LargeValueConfig(
        t_max=t_max, alpha=alpha, v_grid=tuple(v_grid),
        a_values=a_vals, x_values=x_vals,
        z_values=tuple(x ** (1.0 / ll) for x in x_vals),
        v1_values=tuple(v * (1.0 - 9.0 / (10.0 * a))
                        for a, v in zip(a_vals, v_grid)),
        v2_values=tuple(v / (10.0 * a) for a, v in zip(a_vals, v_grid)),
        vacuity_threshold=vacuity_threshold(t_max),
        vacuity_threshold_plain=vacuity_threshold(t_max, plain=True))
    return LargeValueHistogram(config=config, counts=counts,
                               bound_values=bounds, bound_cases=cases,
                               n_zeros=int(logs.size), max_observed=max_obs)


def check_v_grid_length(count: float) -> None:
    """GridError for a V grid of more than MAX_V_GRID values."""
    if not count <= MAX_V_GRID:
        raise GridError(f"V grid of {count:.3g} values exceeds the {MAX_V_GRID:,} allowed")


def dyadic_reconstruction(histogram: LargeValueHistogram, k: float) -> float:
    """Upper-bound moment rebuilt from histogram decrements on integer bins.

    Zeros with log|zeta| below 3 are lumped into an e^{6k}-per-zero bottom
    term; each bin [nu-1, nu) contributes e^{2k nu} per zero, and an empty
    bin nothing.  The result dominates the direct moment and exceeds it by at
    most a factor e^{2k} plus the bottom term.  Where e^{6k} or the result
    overflows a double, ValueError.
    """
    grid = histogram.config.v_grid
    if any(abs(v - round(v)) > 0.0 for v in grid):
        raise GridError("dyadic reconstruction needs an integer V grid")
    if grid[0] != 3.0:
        raise GridError("integer V grid must start at 3")
    if any(b - a != 1.0 for a, b in zip(grid, grid[1:])):
        raise GridError("integer V grid must be consecutive")
    if math.isfinite(histogram.max_observed) and grid[-1] < histogram.max_observed:
        raise GridError(
            f"grid top {grid[-1]} below max observed {histogram.max_observed:.3f}")
    counts = histogram.counts
    try:
        recon = math.exp(6.0 * k) * (histogram.n_zeros - counts[0])
        for nu, above, below in zip(grid[1:], counts, counts[1:]):
            if above != below:
                recon += math.exp(2.0 * k * nu) * (above - below)
    except OverflowError:
        recon = math.inf
    if not math.isfinite(recon):
        raise ValueError(f"the dyadic reconstruction overflows a double at k = {k:g}")
    return recon


# ---------------------------------------------------------------------------
# Cauchy transfer


def _disk_samples(radius: float) -> np.ndarray:
    """The 128 shifts of the disk as an (8, 16) array, one product per row:
    64 points on the circle |alpha| = radius (four rows), then 16 on each
    ring at 1/5, 2/5, 3/5 and 4/5 of it.  The maximum over the disk is
    sampled, not assumed: the summed modulus powers need not peak on the
    boundary."""
    rings = [(radius, 64)] + [(radius * m / 5.0, 16) for m in range(1, 5)]
    return np.array([r * complex(math.cos(2.0 * math.pi * j / n),
                                 math.sin(2.0 * math.pi * j / n))
                     for r, n in rings for j in range(n)]).reshape(8, 16)


def cauchy_transfer_report(cache: ZeroCache, k: int | tuple[int, ...],
                           ell: int | tuple[int, ...], radius: float
                           ) -> CauchyTransferReport | Iterator[CauchyTransferReport]:
    """Sampled max over the disk |alpha| <= radius against the LHS moment.

    The 128 shifts of _disk_samples take 8 rows of 16 shifts.  Each row is
    a product of the Taylor table over blocks of _DISK_ROWS zeros, reduced
    to one sum |zeta(rho + alpha)|^{2k} per shift and k as each block is
    formed, so no (n, 16) array is held and one pass serves every k and ell.
    The sums equal those over the whole product bit for bit.  The LHS is
    the moment of zeta^(ell) at the zeros.  The slack is formed in logs;
    where it overflows a double, ValueError.

    k and ell are an int each, for one report, or tuples: then an iterator
    over the reports, k by k and ell by ell, from one pass.  A (k, ell)
    whose sums or slack overflow raises ValueError where it is reached,
    after the reports before it.
    """
    ks = k if isinstance(k, tuple) else (k,)
    ells = ell if isinstance(ell, tuple) else (ell,)
    if not (all(1 <= kk < math.inf for kk in ks) and all(e >= 1 for e in ells)):
        raise ValueError(f"k and ell must be finite and >= 1 (got {k}, {ell})")
    if not (0.0 < radius <= 1.0 / math.log(cache.t_max) + 1e-15):
        raise ValueError(f"radius {radius} outside (0, 1/log T]")
    if len(cache) == 0:
        raise ValueError("empty cache")
    if not (ks and ells):
        return iter(())
    evaluator = shift_evaluator(cache)
    samples = _disk_samples(radius)
    totals = np.empty((len(ks), samples.size))
    blocks = _disk_blocks(len(cache))
    with np.errstate(over="ignore"):
        for i, row in enumerate(samples):
            cols = slice(i * row.size, (i + 1) * row.size)
            for b, product in enumerate(evaluator._row_blocks(blocks, row)):
                mods = np.abs(product)
                for j, kk in enumerate(ks):
                    powers = mods ** (2.0 * kk)
                    if b:
                        # numpy sums axis 0 row after row, so the running
                        # total added to the first row continues that sum
                        powers[0] += totals[j, cols]
                    totals[j, cols] = np.sum(powers, axis=0)
    reports = _cauchy_reports(cache, ks, ells, radius, samples, totals)
    if isinstance(k, tuple) or isinstance(ell, tuple):
        return reports
    return next(reports)


def _disk_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most _DISK_ROWS zeros, the last one
    lengthened rather than left with one row, whose product would round
    differently (ZeroShiftEvaluator._row_blocks)."""
    starts = list(range(0, n, _DISK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _cauchy_reports(cache: ZeroCache, ks, ells, radius: float, samples: np.ndarray,
                    totals: np.ndarray):
    """The reports of cauchy_transfer_report from its disk totals, one row per k."""
    for kk, row in zip(ks, totals):
        for e in ells:
            lhs = _moment(cache, kk, e, 0.0).raw_sum
            _require_finite(row, kk)
            best = int(np.argmax(row))
            log_prefactor = 2.0 * kk * (math.log(math.factorial(e)) - e * math.log(radius))
            try:
                slack = math.exp(log_prefactor + math.log(row[best]) - math.log(lhs))
            except OverflowError:
                raise ValueError(f"the sampled slack overflows a double at k = {kk:g}, "
                                 f"ell = {e}") from None
            yield CauchyTransferReport(k=kk, ell=e, radius=radius,
                                       n_samples=samples.size, lhs=lhs,
                                       log_prefactor=log_prefactor, slack=slack,
                                       argmax_alpha=complex(samples.flat[best]))


# ---------------------------------------------------------------------------
# continuous moment


def continuous_moment(k: float | tuple[float, ...], t_max: float,
                      step: float) -> float | tuple[float, ...]:
    """(1/T) integral_1^T |zeta(1/2+it)|^{2k} dt by composite Simpson.

    Starts at t = 1; the omitted [0, 1] sliver contributes O(1/T) relative
    (the integrand is bounded there by |zeta(1/2)|^{2k} ~ 2.1^k).  A tuple
    of k gives a tuple with one value per k, all from one |zeta| grid.
    The grid is filled by hardy_z_grid calls on _GRID_BLOCK heights each,
    so Z and its error are never held over the whole grid; a height's Z
    depends on that height alone.
    """
    ks = k if isinstance(k, tuple) else (k,)
    for kk in ks:
        if not 0.0 < kk < math.inf:
            raise ValueError(f"k must be positive and finite (got {kk})")
    if not 0.0 < step <= 0.01:
        raise ValueError(f"step must be in (0, 0.01] (got {step})")
    if not 1.0 < t_max < math.inf:
        raise ValueError(f"t_max must exceed 1 and be finite (got {t_max})")
    n_iv = int(math.ceil((t_max - 1.0) / step))
    if n_iv % 2 == 1:
        n_iv += 1
    ts = np.linspace(1.0, t_max, n_iv + 1)
    mods = np.empty(ts.size)
    n_below = int(np.searchsorted(ts, 10.0))    # hardy_z_grid needs t >= 10
    if n_below:
        mods[:n_below] = np.abs(zeta_at_heights(ts[:n_below])[0])
    for start in range(n_below, ts.size, _GRID_BLOCK):
        block = slice(start, start + _GRID_BLOCK)
        mods[block] = np.abs(hardy_z_grid(ts[block])[0])
    h = (t_max - 1.0) / n_iv
    values = []
    for kk in ks:
        with np.errstate(over="ignore"):
            f = mods ** (2.0 * kk)
            integral = (h / 3.0) * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                                    + 2.0 * f[2:-2:2].sum())
        _require_finite(integral, kk)
        values.append(float(integral / t_max))
    return tuple(values) if isinstance(k, tuple) else values[0]


# ---------------------------------------------------------------------------
# log-zeta majorant audits


def log_plus(x: float) -> float:
    """log^+ |x|: zero below modulus one."""
    return math.log(x) if x >= 1.0 else 0.0


def majorant_audit(spec: DirichletPolySpec, sample_points) -> MajorantAuditTable:
    """Slack table of the two majorant inequalities over (sigma, t) samples.

    RHS terms carry no O(1): slack = |polynomial| + (1+lam)/2 * log tau/log x
    minus log^+|zeta|, with tau = |t|+3 for the Lambda variant and
    tau = |t|+e^30 for the prime variant.  Out-of-hypothesis samples are
    reported as skipped, not dropped silently.
    """
    x = spec.x
    lam = spec.lam
    logx = math.log(x)
    rows = []
    for sigma, t in sample_points:
        tau_l = abs(t) + 3.0
        tau_p = abs(t) + TAU_OFFSET_PRIME
        reason = ""
        if not (0.5 <= sigma <= spec.sigma_lam + 1e-12):
            reason = f"sigma {sigma} outside [1/2, sigma_lam]"
        elif not (2.0 <= x <= tau_l * tau_l):
            reason = f"x {x} outside [2, tau^2]"
        elif not spec.in_majorant_range:
            reason = f"lam {lam} outside [lambda0, log(x)/4]"
        if reason:
            rows.append(MajorantSample(sigma=sigma, t=t, lhs=math.nan,
                                       rhs_lambda=math.nan, rhs_prime=math.nan,
                                       skipped=True, reason=reason))
            continue
        lhs = log_plus(abs(zeta(complex(sigma, t)).value))
        phase_term = 0.5 * (1.0 + lam) / logx
        rhs_l = abs(smoothed_sum(spec, complex(sigma, t))) + phase_term * math.log(tau_l)
        rhs_p = abs(prime_sum(spec, complex(sigma, t))) + phase_term * math.log(tau_p)
        rows.append(MajorantSample(sigma=sigma, t=t, lhs=lhs,
                                   rhs_lambda=rhs_l, rhs_prime=rhs_p))
    return MajorantAuditTable(spec=spec, samples=tuple(rows))


def prime_lambda_difference(spec: DirichletPolySpec, t: float) -> tuple[float, float]:
    """(modulus of Lambda-weighted minus prime-only sums, fitted constant).

    The fitted constant divides by log log log tau with tau = |t| + e^30.
    """
    s = complex(0.0, t)
    diff = abs(smoothed_sum(spec, s) - prime_sum(spec, s))
    shape = math.log(math.log(math.log(abs(t) + TAU_OFFSET_PRIME)))
    return diff, diff / shape
