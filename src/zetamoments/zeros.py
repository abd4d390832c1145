"""Critical-line zero localization, count audit, and the zero-cache file format.

The sweep scans Hardy's Z on a grid of step <= 0.05 inside every Gram block,
brackets sign changes, refines all brackets together by false position (the
Illinois rule) on the batched Z evaluator, then polishes with Newton steps
on the Euler-Maclaurin route so the recorded residual |Z(gamma)| comes from
the accurate evaluator.  Runs of blocks whose sign-change counts do not
reconcile with the theta-based expectation of one zero per block are
rescanned on successively finer grids down to step 1e-4 (reconciled runs are
ordinary Gram-law exceptions and are kept as found), and the cumulative
count is audited against theta(T)/pi + 1.

Zero-order detection is by sign change, so only odd-order zeros are found;
all zeros in the supported range are empirically simple and the cache
asserts simplicity.  A hypothetical even-order zero would be invisible to
this sweep and would surface as an unresolved count deficit.

Cache file format (UTF-8 text)::

    zcache v1 tmax=<decimal> n=<count> tol=<decimal>
    index,gamma,residual        (gamma at 17 significant digits)
    ...
    #sha256=<hex>               (over all prior bytes)
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import zetafn
from .zetafn import DomainError, hardy_z_grid, theta, theta_deriv
from .zetafn import hardy_z  # noqa: F401 -- perfbench's tracer wraps zeros.hardy_z

_SCAN_STEP = 0.05
_LADDER = (0.01, 2e-3, 5e-4, 1e-4)
_SWEEP_START = 10.0     # theta domain floor; first zero is above 14
_ROOT_XTOL = 1e-12      # a bracket is refined below xtol + rtol*|t|: the
_ROOT_RTOL = 8.9e-16    # stopping rule and defaults of SciPy's Brent solver
_ROOT_MAXITER = 100
# validate accepts residuals up to max(refine_tol, this floor): the polish
# cannot push |Z(gamma)| below the evaluator's noise, ~3e-10 near t = 1e5
_RESIDUAL_FLOOR = 1e-9


class CacheFormatError(ValueError):
    """Malformed or wrong-version cache file."""


class ChecksumError(CacheFormatError):
    """Cache file failed its sha256 trailer check."""


class CacheInvariantError(ValueError):
    """Loaded records violate a ZeroCache invariant."""


class UnresolvedBlockError(RuntimeError):
    """A Gram range still disagrees with the theta count after subdivision."""

    def __init__(self, t_lo: float, t_hi: float, deficit: float):
        self.t_lo, self.t_hi, self.deficit = t_lo, t_hi, deficit
        super().__init__(
            f"count deviates by {deficit:+.2f} on ({t_lo:.6f}, {t_hi:.6f}) "
            "after subdivision to step 1e-4")


@dataclass(frozen=True)
class ZeroRecord:
    """One nontrivial zero: rank, ordinate, and refinement residual."""

    index: int
    gamma: float
    residual: float


@dataclass(frozen=True)
class CacheMeta:
    tool_version: str
    refine_tol: float
    created_at: str | None = None


@dataclass(frozen=True)
class ZeroCache:
    """Ordered zeros with 0 < gamma <= t_max plus provenance."""

    t_max: float
    records: tuple[ZeroRecord, ...]
    meta: CacheMeta = field(compare=False, default=CacheMeta("?", 1e-10))

    def __len__(self) -> int:
        return len(self.records)

    def gammas(self) -> np.ndarray:
        return np.array([r.gamma for r in self.records], dtype=np.float64)

    def truncated(self, t_max: float) -> "ZeroCache":
        """Sub-cache of zeros with gamma <= t_max (shares records)."""
        if t_max > self.t_max:
            raise ValueError(f"cannot extend cache from {self.t_max} to {t_max}")
        kept = tuple(r for r in self.records if r.gamma <= t_max)
        return ZeroCache(t_max=t_max, records=kept, meta=self.meta)

    def validate(self) -> None:
        gammas = [r.gamma for r in self.records]
        if any(b <= a for a, b in zip(gammas, gammas[1:])):
            raise CacheInvariantError("gammas not strictly increasing")
        if any(r.index != i + 1 for i, r in enumerate(self.records)):
            raise CacheInvariantError("indices not contiguous from 1")
        if any(not (14.0 < g <= self.t_max) for g in gammas):
            raise CacheInvariantError("ordinate outside (14, t_max]")
        bound = max(self.meta.refine_tol, _RESIDUAL_FLOOR)
        if any(r.residual < 0 or r.residual > bound for r in self.records):
            raise CacheInvariantError(f"residual outside [0, {bound:g}]")


def gram_point(n: int) -> float:
    """Gram point g_n with theta(g_n) = n*pi, supported for n >= 0.

    g_{-1} would sit below the theta domain floor t = 10; the sweep starts
    its first block at t = 10 instead, which still covers the first zero.
    """
    if n < 0:
        raise DomainError(f"gram_point supports n >= 0 (got {n})")
    target = n * math.pi
    t = max(_SWEEP_START + 0.5, 7.5 * (n + 2) ** 0.9)
    for _ in range(64):
        step = (theta(t) - target) / theta_deriv(t)
        t_new = max(_SWEEP_START, t - step)
        if abs(t_new - t) < 1e-12 * t:
            t = t_new
            break
        t = t_new
    return t


def _gram_points_upto(t_max: float) -> np.ndarray:
    """Ascending Gram points g_0, g_1, ... with one point >= t_max."""
    points = []
    n = 0
    g = gram_point(0)
    while True:
        points.append(g)
        if g >= t_max:
            break
        n += 1
        # Newton from the previous point; theta is monotone here
        t = g + math.pi / theta_deriv(g)
        target = n * math.pi
        for _ in range(50):
            step = (theta(t) - target) / theta_deriv(t)
            t -= step
            if abs(step) < 1e-12 * t:
                break
        g = t
    return np.array(points)


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = max(2, int(math.ceil((hi - lo) / step)) + 1)
    return np.linspace(lo, hi, n)


def _brackets(ts: np.ndarray, zs: np.ndarray) -> list[tuple[float, float]]:
    sign = np.sign(zs)
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    return [(float(ts[i]), float(ts[i + 1])) for i in flips]


def _ladder_rescan(lo: float, hi: float,
                   best: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Rescan one deviant Gram block on finer grids down to step 1e-4."""
    for step in _LADDER:
        ts = _grid(lo, hi, step)
        zs, _ = hardy_z_grid(ts)
        finer = _brackets(ts, zs)
        if len(finer) > len(best):
            best = finer
        if len(best) == 1:
            break
    return best


def _scan_window(edges: np.ndarray, w0: int, w1: int) -> list[list[tuple[float, float]]]:
    grids = [_grid(float(edges[i]), float(edges[i + 1]), _SCAN_STEP)
             for i in range(w0, w1)]
    ts = np.concatenate(grids)
    zs, _ = hardy_z_grid(ts)
    out = []
    pos = 0
    for grid in grids:
        out.append(_brackets(grid, zs[pos:pos + grid.size]))
        pos += grid.size
    return out


def _scan_blocks(edges: np.ndarray, window: int = 256,
                 thorough: bool = False) -> list[tuple[float, float]]:
    """Sign-change brackets over all Gram blocks, evaluated in batched windows.

    Blocks whose count differs from the theta-based expectation of one zero
    come in runs (Gram-law exceptions: a two-zero block flanked by an empty
    one).  A run whose counts already sum to its length needs no repair;
    anything else is rescanned on finer grids, since it may hide a close
    pair below the grid resolution.  With thorough=True every deviant block
    is rescanned regardless (fallback when the global count audit fails).
    """
    n_blocks = edges.size - 1
    per_block: list[list[tuple[float, float]]] = []
    for w0 in range(0, n_blocks, window):
        per_block.extend(_scan_window(edges, w0, min(w0 + window, n_blocks)))

    counts = np.array([len(b) for b in per_block])
    deviant = counts != 1
    i = 0
    while i < n_blocks:
        if not deviant[i]:
            i += 1
            continue
        j = i
        while j < n_blocks and deviant[j]:
            j += 1
        if thorough or counts[i:j].sum() != (j - i):
            for b in range(i, j):
                per_block[b] = _ladder_rescan(float(edges[b]), float(edges[b + 1]),
                                              per_block[b])
        i = j
    return [bracket for blocks in per_block for bracket in blocks]


def _illinois_roots(brackets) -> np.ndarray:
    """Roots of Z in every sign-change bracket, all brackets advanced together.

    False position with the Illinois rule (M. Dowell and P. Jarratt, BIT 11
    (1971) 168-174): b is the newest point and a the end kept from before;
    when a is kept again its Z value is halved, so both ends close in.  Each
    iteration is one hardy_z_grid call at the new point of every unconverged
    bracket; the brackets are disjoint and ascending, so those points are
    ascending too.  A bracket stops when Z vanishes at b or |b - a| falls
    below _ROOT_XTOL + _ROOT_RTOL*|b|; its root is b.
    """
    a, b = np.array(brackets, dtype=np.float64).reshape(-1, 2).T
    f, _ = hardy_z_grid(np.column_stack((a, b)).ravel())
    fa, fb = f[0::2], f[1::2]
    root = np.empty(a.size)
    idx = np.arange(a.size)
    for _ in range(_ROOT_MAXITER):
        c = np.clip(b - fb * (b - a) / (fb - fa), np.minimum(a, b), np.maximum(a, b))
        fc, _ = hardy_z_grid(c)
        root[idx] = c
        flip = fc * fb < 0.0
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb = c, fc
        go = (fc != 0.0) & (np.abs(b - a) >= _ROOT_XTOL + _ROOT_RTOL * np.abs(b))
        idx, a, b, fa, fb = idx[go], a[go], b[go], fa[go], fb[go]
        if idx.size == 0:
            return root
    raise RuntimeError(f"false position did not converge in {_ROOT_MAXITER} "
                       f"iterations near t = {b[0]}")


def _polish(roots: np.ndarray, refine_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Batched Newton steps on the Euler-Maclaurin route until |Z| <= tol/4."""
    g = np.array(roots, dtype=np.float64)
    z, dz = zetafn.em_z_with_deriv(g)
    for _ in range(3):
        active = np.flatnonzero((np.abs(z) > 0.25 * refine_tol) & (dz != 0.0))
        if active.size == 0:
            break
        cand = g[active] - z[active] / dz[active]
        z2, dz2 = zetafn.em_z_with_deriv(cand)
        better = np.abs(z2) < np.abs(z[active])
        idx = active[better]
        g[idx] = cand[better]
        z[idx] = z2[better]
        dz[idx] = dz2[better]
        if not better.any():
            break
    return g, np.abs(z)


def sweep(t_max: float, refine_tol: float = 1e-10) -> ZeroCache:
    """Locate all critical-line zeros with 0 < gamma <= t_max.

    t_max down to 10.5 is accepted (an empty result below the first zero is
    legitimate); the supported ceiling is 1e5.
    """
    if not (10.5 <= t_max <= 1e5):
        raise DomainError(f"t_max must lie in [10.5, 1e5] (got {t_max})")
    if refine_tol < 1e-12:
        raise DomainError(f"refine_tol must be >= 1e-12 (got {refine_tol})")
    grams = _gram_points_upto(t_max)
    edges = np.concatenate(([_SWEEP_START], grams))
    cache = _assemble(t_max, _scan_blocks(edges), refine_tol)
    deviation = count_audit(cache)
    if abs(deviation) > 2.5:
        cache = _assemble(t_max, _scan_blocks(edges, thorough=True), refine_tol)
        deviation = count_audit(cache)
        if abs(deviation) > 2.5:
            lo, hi = _first_drift_interval(cache, edges)
            raise UnresolvedBlockError(lo, hi, deviation)
    return cache


def _first_drift_interval(cache: ZeroCache, edges: np.ndarray) -> tuple[float, float]:
    """First Gram block where the cumulative count drifts beyond the S(t) wiggle."""
    gammas = cache.gammas()
    base = theta(float(edges[0])) / math.pi
    for lo, hi in zip(edges[:-1], edges[1:]):
        found = float((gammas <= hi).sum())
        expected = theta(float(min(hi, cache.t_max))) / math.pi - base
        if abs(found - expected) > 2.5:
            return float(lo), float(hi)
    return float(edges[0]), float(edges[-1])


def _assemble(t_max: float, brackets, refine_tol: float) -> ZeroCache:
    roots = _illinois_roots(brackets)
    if roots.size:
        gammas, residuals = _polish(roots, refine_tol)
    else:
        gammas = residuals = np.empty(0)
    records = []
    for gamma, residual in zip(gammas, residuals):
        if gamma > t_max:
            continue
        records.append(ZeroRecord(index=len(records) + 1, gamma=float(gamma),
                                  residual=float(residual)))
    return ZeroCache(
        t_max=float(t_max),
        records=tuple(records),
        meta=CacheMeta(tool_version=_tool_version(), refine_tol=refine_tol,
                       created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
    )


def count_audit(cache: ZeroCache) -> float:
    """N_found - (theta(T)/pi + 1); desk-scale expectation is |result| <= 2."""
    t = cache.t_max
    return len(cache) - (theta(t) / math.pi + 1.0)


def count_main_term_deviation(cache: ZeroCache) -> float:
    """N_found - (T/2pi log(T/2pi) - T/2pi), the coarser asymptotic check."""
    t = cache.t_max
    x = t / (2.0 * math.pi)
    return len(cache) - (x * math.log(x) - x)


def gram_interlacing_fraction(cache: ZeroCache, t_upto: float | None = None) -> float:
    """Fraction of zeros interlacing the Gram points: gamma_n in (g_{n-2}, g_{n-1}).

    This is the index form of Gram's law (equivalent to the sign statistic
    (-1)^n Z(g_n) > 0 holding on both flanks); failures mark repaired Gram
    blocks, not missed zeros.
    """
    limit = cache.t_max if t_upto is None else min(t_upto, cache.t_max)
    grams = _gram_points_upto(limit)
    grams = grams[grams <= limit]
    gammas = [g for g in cache.gammas() if g <= limit]
    if not gammas:
        return 1.0
    ok = 0
    for i, gam in enumerate(gammas, start=1):
        lo = grams[i - 2] if i >= 2 else 0.0
        hi = grams[i - 1] if i - 1 < grams.size else math.inf
        ok += lo < gam < hi
    return ok / len(gammas)


def _tool_version() -> str:
    from . import __version__
    return __version__


# ---------------------------------------------------------------------------
# persistence


def save(cache: ZeroCache, path) -> None:
    """Write the cache file; gammas serialized at 17 significant digits."""
    lines = [f"zcache v1 tmax={cache.t_max!r} n={len(cache)} tol={cache.meta.refine_tol!r}"]
    for r in cache.records:
        lines.append(f"{r.index},{r.gamma:.17g},{r.residual:.17g}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    Path(path).write_text(body + f"#sha256={digest}\n", encoding="utf-8")


def load(path) -> ZeroCache:
    """Read and validate a cache file written by save()."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise CacheFormatError("empty cache file")
    if not lines[-1].startswith("#sha256="):
        raise ChecksumError("missing sha256 trailer")
    body = "\n".join(lines[:-1]) + "\n"
    expected = lines[-1][len("#sha256="):]
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if actual != expected:
        raise ChecksumError(f"sha256 mismatch: file says {expected}, computed {actual}")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "zcache" or header[1] != "v1":
        raise CacheFormatError(f"unrecognized header: {lines[0]!r}")
    fields = dict(kv.split("=", 1) for kv in header[2:])
    t_max = float(fields["tmax"])
    n = int(fields["n"])
    tol = float(fields["tol"])
    records = []
    for line in lines[1:-1]:
        idx, gamma, residual = line.split(",")
        records.append(ZeroRecord(int(idx), float(gamma), float(residual)))
    if len(records) != n:
        raise CacheFormatError(f"header claims {n} records, file has {len(records)}")
    cache = ZeroCache(t_max=t_max, records=tuple(records),
                      meta=CacheMeta(tool_version=_tool_version(), refine_tol=tol))
    cache.validate()
    return cache
