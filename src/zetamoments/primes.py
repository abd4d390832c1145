"""Prime sieve, von Mangoldt weights, and the smoothed Dirichlet polynomials.

The polynomials are the log-zeta majorants evaluated throughout the audits:
the Lambda-weighted sum

    sum_{n<=x} Lambda(n) / (n^{s_lam + it} log n) * log(x/n)/log(x)

and its prime-restricted companion with weight log(x/p)/log(x), both taken
at the shifted abscissa s_lam = 1/2 + lam/log(x).  The S1/S2 split cuts the
prime sum at z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .zetafn import CONSTANTS


class SieveRangeError(ValueError):
    """Query beyond the sieve table limit."""


class SieveTable:
    """Smallest prime factor and Omega(n) for n = 0..limit.

    ``smallest_prime_factor`` (int32) is 0 at n = 0 and 1; ``omega`` (int8)
    counts prime factors with multiplicity.  Everything else reads these two
    arrays: the primes are the n with Omega(n) = 1, and n >= 2 is a prime
    power exactly when spf(n)^Omega(n) = n, with Lambda(n) = log spf(n).
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError(f"sieve limit must be >= 2 (got {limit})")
        self.limit = int(limit)
        spf = np.zeros(self.limit + 1, dtype=np.int32)
        for i in range(2, int(math.isqrt(self.limit)) + 1):
            if spf[i] == 0:
                sl = spf[i * i:: i]
                sl[sl == 0] = i
        rest = spf == 0
        rest[:2] = False
        spf[rest] = np.flatnonzero(rest)
        cof = np.arange(self.limit + 1)
        cof[2:] //= spf[2:]
        omega = np.zeros(self.limit + 1, dtype=np.int8)
        while True:                             # Omega(n) = Omega(n // spf) + 1
            nxt = omega[cof] + 1
            nxt[:2] = 0
            if np.array_equal(nxt, omega):
                break
            omega = nxt
        self.smallest_prime_factor = spf
        self.omega = omega

    def is_prime(self, n: int) -> bool:
        self._check(n)
        return n >= 2 and bool(self.omega[n] == 1)

    def primes(self, upto: int | None = None) -> np.ndarray:
        hi = self.limit if upto is None else int(upto)
        self._check(hi)
        return np.flatnonzero(self.omega[: max(hi + 1, 0)] == 1)

    def mangoldt(self, n: int) -> float:
        """Lambda(n): log p when n is a prime power p^k, else 0."""
        self._check(n)
        p = int(self.smallest_prime_factor[n])
        return math.log(p) if n >= 2 and p ** int(self.omega[n]) == n else 0.0

    def mangoldt_table(self, upto: int) -> np.ndarray:
        """Lambda(0..upto) as an array (Lambda(0) = Lambda(1) = 0).

        The logs are math.log's, as in ``mangoldt``: np.log differs from it
        by an ulp at a few primes (the first is 285,343).
        """
        self._check(upto)
        spf = self.smallest_prime_factor[: upto + 1].astype(np.int64)
        powers = np.flatnonzero(spf ** self.omega[: upto + 1] == np.arange(upto + 1))
        powers = powers[powers >= 2]
        out = np.zeros(upto + 1)
        out[powers] = list(map(math.log, spf[powers].tolist()))
        return out

    @cached_property
    def factor_plan(self):
        """(prime rows, [(composite rows, spf rows, cofactor rows) per level]).

        k -> k^{-it} is completely multiplicative, so only the primes need an
        exponential; a composite k is the product of the values at spf(k), its
        smallest prime factor, and at k // spf(k), which has one prime factor
        fewer.  The plan holds zero-based intp rows (int32 rows would make
        numpy convert each index array on every use): the primes, and for
        each count L >= 2 of prime factors the ascending composites with L
        factors and their two factor rows.  Every split depends on k alone,
        so a prefix of the plan serves any smaller n.
        """
        levels = []
        for level in range(2, int(self.omega.max()) + 1):
            comp = np.flatnonzero(self.omega == level)
            spf = self.smallest_prime_factor[comp].astype(np.intp)
            levels.append((comp - 1, spf - 1, comp // spf - 1))
        return self.primes() - 1, levels

    def _check(self, n: int) -> None:
        if n > self.limit:
            raise SieveRangeError(f"{n} beyond sieve limit {self.limit}")


_SHARED: SieveTable | None = None


def shared_sieve(limit: int) -> SieveTable:
    """Process-wide sieve covering at least 0..limit.

    A larger limit regrows it to at least 1.5 times the old size (and at
    least 4,096), dropping the old table before the new one is built.
    """
    global _SHARED
    if _SHARED is None or _SHARED.limit < limit:
        old = 0 if _SHARED is None else _SHARED.limit
        _SHARED = None                          # free the old table first
        _SHARED = SieveTable(max(limit, int(1.5 * old), 4096))
    return _SHARED


@dataclass(frozen=True)
class DirichletPolySpec:
    """Parameters of one smoothed polynomial: length x, shift lam, split point z.

    The majorant inequality needs lambda0 <= lam <= log(x)/4, a range that is
    empty for x below e^{4 lambda0} ~ 9.7; the sums themselves are well
    defined for any lam > 0, so construction only enforces positivity and the
    audits check ``in_majorant_range`` per sample.
    """

    x: float
    lam: float = CONSTANTS.lambda0
    split_z: float | None = None

    def __post_init__(self):
        if self.x < 2.0:
            raise ValueError(f"polynomial length x must be >= 2 (got {self.x})")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be positive (got {self.lam})")
        if self.split_z is not None and not (2.0 <= self.split_z <= self.x):
            raise ValueError(f"split point z={self.split_z} outside [2, x]")

    @property
    def sigma_lam(self) -> float:
        return 0.5 + self.lam / math.log(self.x)

    @property
    def in_majorant_range(self) -> bool:
        return CONSTANTS.lambda0 <= self.lam <= math.log(self.x) / 4.0


def _poly_sum(ns: np.ndarray, coeff: np.ndarray, sigma: float, t: float) -> complex:
    if ns.size == 0:
        return 0.0 + 0.0j
    logn = np.log(ns.astype(np.float64))
    vals = coeff * np.exp(-sigma * logn) * np.exp(-1j * t * logn)
    return complex(vals.sum())


def smoothed_sum(spec: DirichletPolySpec, s: complex) -> complex:
    """Lambda-weighted smoothed polynomial at sigma_lam + i Im(s).

    The evaluation abscissa is always the shifted sigma_lam; only the height
    is taken from s.  prime_sum is the prime-restricted sum.
    """
    t = complex(s).imag
    x = spec.x
    nmax = int(math.floor(x))
    lam_tab = shared_sieve(nmax).mangoldt_table(nmax)
    ns = np.flatnonzero(lam_tab)
    logx = math.log(x)
    coeff = lam_tab[ns] / np.log(ns) * (logx - np.log(ns)) / logx
    return _poly_sum(ns, coeff, spec.sigma_lam, t)


def prime_sum(spec: DirichletPolySpec, s: complex,
              p_lo: float = 0.0, p_hi: float | None = None) -> complex:
    """Prime-restricted polynomial with weight log(x/p)/log(x) at sigma_lam + it.

    p_lo/p_hi restrict to primes p_lo < p <= p_hi (defaults: the full p <= x).
    """
    t = complex(s).imag
    x = spec.x
    hi = x if p_hi is None else min(p_hi, x)
    nmax = int(math.floor(hi))
    ps = shared_sieve(nmax).primes(nmax)
    ps = ps[ps > p_lo]
    logx = math.log(x)
    coeff = (logx - np.log(ps)) / logx if ps.size else np.empty(0)
    return _poly_sum(ps, coeff, spec.sigma_lam, t)


def mangoldt(n: int) -> float:
    """Lambda(n) via the shared sieve (grown to cover n)."""
    if n < 1:
        raise ValueError(f"mangoldt needs n >= 1 (got {n})")
    return shared_sieve(n).mangoldt(n)
