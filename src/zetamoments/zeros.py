"""Critical-line zero localization, count verification, and the zero-cache format.

The sweep evaluates Hardy's Z at the Gram points first; each sign it reads
must clear its committed error.  The good Gram points bound the Rosser
blocks.  A block of one Gram interval is its own bracket [g_n, g_{n+1}];
only the intervals of longer blocks are sampled at step <= 0.05, and a
block still short of sign changes is searched on finer grids down to step
1e-4.  The Gram points run on through the Turing tail past t_max, which
proves the count (see _counted_brackets).  Every bracket carries Z and its
committed error at its ends.  The brackets below t_max are refined together
by Newton steps kept inside them (see _refine), each bracket on one route
whose committed error is within refine_tol/4, so the recorded residual
|Z(gamma)| is within refine_tol/4 of the true one: Riemann-Siegel from about
t = 1,650 at the default refine_tol, and Euler-Maclaurin below, after
Riemann-Siegel first steps from t = 200 up.

Zeros are found by sign change, so only zeros of odd order on the line show;
the Turing count proves that every zero up to g_n is one of them.  An
even-order or off-line zero would leave its Rosser block short and raise.

Cache file format (UTF-8 text)::

    zcache v1 tmax=<decimal> n=<count> tol=<decimal>
    index,gamma,residual        (gamma at 17 significant digits)
    ...
    #sha256=<hex>               (over all prior bytes)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import zetafn
from .zetafn import DomainError, ZeroShiftEvaluator, hardy_z_grid, theta
# perfbench's tracer wraps zeros.hardy_z and zeros.theta_deriv
from .zetafn import hardy_z, theta_deriv  # noqa: F401

_SCAN_STEP = 0.05
_LADDER = (0.01, 2e-3, 5e-4, 1e-4)
_WINDOW = 256          # Gram intervals per scan grid
_SWEEP_START = 10.0     # theta domain floor; first zero is above 14
_ROOT_MAXITER = 100
# validate accepts residuals up to max(refine_tol, this floor): a double
# ordinate resolves a zero only to half an ulp, which leaves |Z(gamma)| up to
# |Z'(gamma)| ulp(gamma)/2, 3e-10 near t = 1e5
_RESIDUAL_FLOOR = 1e-9
# a sign-change bracket: its ends, and Z and Z's committed error at them
_BRACKET = np.dtype([("t", np.float64, 2), ("z", np.float64, 2), ("err", np.float64, 2)])


class CacheFormatError(ValueError):
    """Malformed or wrong-version cache file."""


class ChecksumError(CacheFormatError):
    """Cache file failed its sha256 trailer check."""


class CacheInvariantError(ValueError):
    """A cache, loaded or built, violates a ZeroCache invariant."""


class UnresolvedBlockError(RuntimeError):
    """A Rosser block (t_lo, t_hi), below t_max or in the Turing tail, whose
    k Gram intervals hold k - deficit sign changes after the search."""

    def __init__(self, t_lo: float, t_hi: float, deficit: int):
        self.t_lo, self.t_hi, self.deficit = t_lo, t_hi, deficit
        super().__init__(
            f"Rosser block ({t_lo:.6f}, {t_hi:.6f}) is short of {deficit} sign "
            "change(s) after search to step 1e-4")


class UnprovedSignError(RuntimeError):
    """|Z| at Gram point g_n is within its committed error, so the sign that
    the count reads there is not proved; g_{-1} stands for the sweep's start
    t = 10."""

    def __init__(self, n: int, t: float, z: float, err: float):
        self.n, self.t, self.z, self.err = n, t, z, err
        super().__init__(
            f"sign of Z at Gram point g_{n} = {t:.6f} is unproved: |Z| = "
            f"{abs(z):.3e} is within its committed error {err:.3e}")


class RefinementShortfallError(RuntimeError):
    """Refinement left residuals |Z(gamma)| above the requested refine_tol."""

    def __init__(self, count: int, worst: float, gamma: float, refine_tol: float):
        self.count, self.worst, self.gamma = count, worst, gamma
        super().__init__(
            f"{count} residual(s) above refine_tol = {refine_tol:g}; largest "
            f"{worst:.3e} at t = {gamma:.6f}")


@dataclass(frozen=True)
class ZeroRecord:
    """One nontrivial zero: rank, ordinate, and refinement residual."""

    index: int
    gamma: float
    residual: float


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class ZeroCache:
    """Ordered zeros with 0 < gamma <= t_max, their residuals |Z(gamma)| and
    the tolerance the refinement aimed at.

    gammas and residuals are read-only float64 copies of what was passed in.
    Two caches are equal when t_max and both arrays are.
    """

    t_max: float
    gammas: np.ndarray
    residuals: np.ndarray
    refine_tol: float = 1e-10

    def __post_init__(self):
        # float() keeps the header that save writes readable by load
        object.__setattr__(self, "t_max", float(self.t_max))
        object.__setattr__(self, "refine_tol", float(self.refine_tol))
        object.__setattr__(self, "gammas", _read_only(self.gammas))
        object.__setattr__(self, "residuals", _read_only(self.residuals))

    def __eq__(self, other):
        if not isinstance(other, ZeroCache):
            return NotImplemented
        return (self.t_max == other.t_max
                and np.array_equal(self.gammas, other.gammas)
                and np.array_equal(self.residuals, other.residuals))

    def __len__(self) -> int:
        return self.gammas.size

    @property
    def records(self) -> tuple[ZeroRecord, ...]:
        """The zeros as records, built on each access; perfbench/worker.py
        reads index, gamma and residual from them."""
        return tuple(ZeroRecord(i, g, r) for i, (g, r) in enumerate(
            zip(self.gammas.tolist(), self.residuals.tolist()), start=1))

    @cached_property
    def shift_table(self) -> ZeroShiftEvaluator:
        """Taylor table of zeta(rho + alpha) at these zeros, built on first use.

        The ordinates are read-only, so the instance is the table's whole
        identity; a truncated or reloaded cache builds its own.
        """
        return ZeroShiftEvaluator(self.gammas, self.t_max)

    @cached_property
    def columns(self) -> dict:
        """|zeta^(order)(rho + alpha)| at these zeros, keyed on
        (complex(alpha), order).  moments._moduli fills it, one evaluation
        per column, and the columns live as long as the cache, like
        shift_table."""
        return {}

    def truncated(self, t_max: float) -> "ZeroCache":
        """Sub-cache of zeros with gamma <= t_max."""
        if t_max > self.t_max:
            raise ValueError(f"cannot extend cache from {self.t_max} to {t_max}")
        n = int(np.searchsorted(self.gammas, t_max, side="right"))
        return ZeroCache(t_max, self.gammas[:n], self.residuals[:n], self.refine_tol)

    def validate(self) -> None:
        g, r = self.gammas, self.residuals
        if g.ndim != 1 or g.shape != r.shape:
            raise CacheInvariantError("gammas and residuals differ in shape")
        if np.any(g[1:] <= g[:-1]):
            raise CacheInvariantError("gammas not strictly increasing")
        if not np.all((14.0 < g) & (g <= self.t_max)):
            raise CacheInvariantError("ordinate outside (14, t_max]")
        bound = max(self.refine_tol, _RESIDUAL_FLOOR)
        if not np.all((0 <= r) & (r <= bound)):
            raise CacheInvariantError(f"residual outside [0, {bound:g}]")


def _gram_points(n: np.ndarray) -> np.ndarray:
    """g_n for an array of n >= 0: Newton on theta for all of them at once."""
    target = n * math.pi
    t = np.maximum(_SWEEP_START + 0.5, 7.5 * (n + 2.0) ** 0.9)
    for _ in range(64):
        step = (zetafn._theta_raw(t) - target) / zetafn._theta_deriv_raw(t)
        t_new = np.maximum(_SWEEP_START, t - step)
        done = np.all(np.abs(t_new - t) < 1e-12 * t)
        t = t_new
        if done:
            break
    return t


def _gram_points_upto(t_max: float) -> np.ndarray:
    """Ascending Gram points g_0, g_1, ... with one point >= t_max."""
    # theta is increasing past t = 10, so g_n >= t_max from n = theta(t_max)/pi
    # on; one spare n absorbs rounding at the boundary
    last = max(0, math.ceil(theta(max(t_max, _SWEEP_START)) / math.pi)) + 1
    grams = _gram_points(np.arange(last + 1))
    return grams[: int(np.searchsorted(grams, t_max)) + 1]


def _proved_z(edges: np.ndarray, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Z and its committed error at the Gram points edges = g_{n0}, g_{n0+1},
    ...; raises UnprovedSignError where |Z| does not exceed the error."""
    z, err = hardy_z_grid(edges)
    unproved = np.flatnonzero(np.abs(z) <= err)
    if unproved.size:
        i = int(unproved[0])
        raise UnprovedSignError(n0 + i, float(edges[i]), float(z[i]), float(err[i]))
    return z, err


def _pairs(ts: np.ndarray, zs: np.ndarray, errs: np.ndarray, left: np.ndarray) -> np.ndarray:
    """The brackets [ts[i], ts[i + 1]], i in left, with Z and its committed
    error at both ends."""
    out = np.empty(left.size, dtype=_BRACKET)
    for field, values in (("t", ts), ("z", zs), ("err", errs)):
        out[field] = np.column_stack((values[left], values[left + 1]))
    return out


def _scan(edges: np.ndarray, z: np.ndarray, err: np.ndarray, intervals: np.ndarray,
          step: float = _SCAN_STEP) -> tuple[np.ndarray, np.ndarray]:
    """Sign-change brackets of Z on one grid over the Gram intervals
    [edges[i], edges[i + 1]], i in the ascending array intervals, and the
    interval of each bracket.

    Interval i holds the points of np.linspace(edges[i], edges[i + 1]) at
    spacing <= step.  Z at its ends is known, z[i] and z[i + 1] with errors
    err[i] and err[i + 1], so hardy_z_grid takes the inner points alone.
    """
    lo = edges[intervals]
    width = edges[intervals + 1] - lo
    n = np.maximum(1, np.ceil(width / step).astype(np.int64))
    first = np.concatenate(([0], np.cumsum(n + 1)))    # sample index of each lower end
    interval = np.repeat(np.arange(n.size), n + 1)
    j = np.arange(interval.size) - first[interval]
    ts = j * (width / n)[interval] + lo[interval]
    zs, es = np.empty(ts.size), np.empty(ts.size)
    inner = np.ones(ts.size, dtype=bool)
    for ends, k in ((first[:-1], intervals), (first[1:] - 1, intervals + 1)):
        ts[ends], zs[ends], es[ends], inner[ends] = edges[k], z[k], err[k], False
    zs[inner], es[inner] = hardy_z_grid(ts[inner])
    flips = np.flatnonzero((np.sign(zs[:-1]) * np.sign(zs[1:]) < 0)
                           & (interval[:-1] == interval[1:]))
    return _pairs(ts, zs, es, flips), intervals[interval[flips]]


def _search(edges: np.ndarray, z: np.ndarray, err: np.ndarray, a: int, b: int) -> np.ndarray:
    """Brackets of the short Rosser block edges[a]..edges[b]: one grid over
    its intervals per step of the ladder, until b - a are found."""
    for step in _LADDER:
        found, _ = _scan(edges, z, err, np.arange(a, b), step)
        if found.size >= b - a:
            return found
    raise UnresolvedBlockError(float(edges[a]), float(edges[b]), b - a - found.size)


def _counted_brackets(t_max: float) -> np.ndarray:
    """Sign-change brackets of Z from t = 10 through the Turing tail, with Z
    and its committed error at their ends (a _BRACKET array).

    Z is evaluated at the Gram points first, each sign proved by its
    committed error (else UnprovedSignError).  g_n is good when
    (-1)^n Z(g_n) > 0, and t = 10 counts as good since N(10) = 0.  A Rosser
    block of k Gram intervals between two good points should hold k sign
    changes.  A block of one interval is its own bracket [g_n, g_{n+1}]:
    its ends are good, so Z changes sign across it.  The intervals of longer
    blocks are sampled at step <= 0.05 (_scan, at most _WINDOW intervals per
    grid); a block short of sign changes is searched on finer grids, and one
    with too many raises UnresolvedBlockError.  The Gram points go on past
    the first good g_n >= t_max until K = max(2, ceil(0.0061 log^2 g +
    0.08 log g)) Rosser blocks have closed, g the last Gram point taken.

    R. P. Brent, Math. Comp. 33 (1979) 1361-1372, Theorem 3.2, as read here:
    if K consecutive Rosser blocks with union [g_n, g_p) each hold at least
    as many zeros as Gram intervals, and K >= 0.0061 log^2(g_p) +
    0.08 log(g_p), then N(g_n) <= n + 1 (Turing's method, Proc. London Math.
    Soc. (3) 3 (1953) 99-117; its bound on the integral of S(t) is Lehman's,
    stated for t >= 168 pi).  With n + 1 sign changes below g_n, N(g_n) =
    n + 1: every zero up to g_n is simple, on the line and found, and a
    block of one interval holds exactly one.
    """
    # edges[i] is g_{i-1}; edges[0] is the sweep's start
    edges = np.concatenate(([_SWEEP_START], _gram_points_upto(t_max)))
    z, err = _proved_z(edges, -1)
    while True:
        good = np.flatnonzero(np.where(np.arange(z.size) % 2, z, -z) > 0)
        good = np.concatenate(([0], good[good > 0]))
        tail = good[edges[good] >= t_max]
        blocks = max(2, math.ceil(0.0061 * math.log(edges[-1]) ** 2 + 0.08 * math.log(edges[-1])))
        if tail.size > blocks:
            break
        more = _gram_points(np.arange(edges.size - 1, edges.size + blocks - tail.size))
        z_more, err_more = _proved_z(more, edges.size - 1)
        edges, z, err = (np.concatenate(pair) for pair in
                         ((edges, more), (z, z_more), (err, err_more)))
    good = good[good <= tail[blocks]]
    start, end = good[:-1], good[1:]
    # t = 10 counts as good whatever the sign of Z there
    single = start[end - start == 1]
    single = single[np.sign(z[single]) * np.sign(z[single + 1]) < 0]
    longer = np.flatnonzero(np.repeat(end - start > 1, end - start))
    scanned = [_scan(edges, z, err, longer[w:w + _WINDOW])
               for w in range(0, longer.size, _WINDOW)]
    brackets = np.concatenate([_pairs(edges, z, err, single)] + [s[0] for s in scanned])
    where = np.concatenate([single] + [s[1] for s in scanned])
    total = np.concatenate(([0], np.cumsum(np.bincount(where, minlength=edges.size))))
    deficit = (end - start) - (total[end] - total[start])
    kept, found = np.ones(where.size, dtype=bool), []
    for a, b, d in zip(start[deficit != 0], end[deficit != 0], deficit[deficit != 0]):
        if d < 0:
            raise UnresolvedBlockError(float(edges[a]), float(edges[b]), int(d))
        kept &= (where < a) | (where >= b)
        found.append(_search(edges, z, err, a, b))
    brackets = np.concatenate([brackets[kept]] + found)
    return brackets[np.argsort(brackets["t"][:, 0])]


def _step(x, z, dz, a, b, fa, sure):
    """Where sure, x moves the end of its sign to x.  Returns the new a, b
    and fa, and the next point: the Newton step, or the midpoint where that
    step leaves the closed bracket."""
    low = sure & (np.sign(z) == np.sign(fa))
    a, fa, b = np.where(low, x, a), np.where(low, z, fa), np.where(sure & ~low, x, b)
    step = x - z / dz
    return a, b, fa, np.where((a <= step) & (step <= b), step, 0.5 * (a + b))


def _rs_first_steps(x, a, b, fa):
    """Riemann-Siegel Newton steps in brackets that finish on Euler-Maclaurin,
    all together.  An end moves only on a sign whose |Z| exceeds RS's
    committed error.  A bracket stops after its first point whose |Z| does
    not, taking that point's Newton step, or when its next point is one of
    its ends.  Returns the next point, a, b and fa of every bracket."""
    idx = np.arange(x.size)
    for _ in range(_ROOT_MAXITER):
        if idx.size == 0:
            return x, a, b, fa
        z, dz, err = zetafn.rs_z_with_deriv(x[idx])
        sure = np.abs(z) > err
        a[idx], b[idx], fa[idx], x[idx] = _step(x[idx], z, dz, a[idx], b[idx], fa[idx], sure)
        idx = idx[sure & (x[idx] != a[idx]) & (x[idx] != b[idx])]
    raise RuntimeError(f"Newton steps did not converge in {_ROOT_MAXITER} "
                       f"iterations near t = {x[idx[0]]}")


def _refine(brackets: np.ndarray, refine_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Root of Z in every sign-change bracket (a _BRACKET array) and its
    residual |Z|, all brackets advanced together by Newton steps.

    Each bracket takes one route, read from the committed errors carried at
    its two ends: Riemann-Siegel (rs_z_with_deriv) where both are within the
    target refine_tol/4 and t >= 200, from about t = 1,650 at the default
    refine_tol; Euler-Maclaurin (em_z_with_deriv) elsewhere.  The first
    point is the false-position point of the ends.  A bracket from t = 200
    up that finishes on Euler-Maclaurin first takes Riemann-Siegel steps
    (_rs_first_steps), whose values count for no root.  On the route, each
    value moves the end of its sign, and a Newton step that leaves the
    closed bracket becomes the midpoint.  The brackets are disjoint and
    ascending, so each route's points are ascending too.  A bracket stops
    when |Z| <= the target, or when its next point is one of its ends: a
    double splits it no further.  Its root is the point with the smallest
    |Z| on its route.
    """
    target = 0.25 * refine_tol
    a, b = brackets["t"].T.copy()
    fa, fb = brackets["z"].T.copy()
    above = a >= zetafn._RS_CUTOVER
    rs = (brackets["err"].max(axis=1) <= target) & above
    x = b - fb * (b - a) / (fb - fa)
    first = np.flatnonzero(above & ~rs)
    x[first], a[first], b[first], fa[first] = _rs_first_steps(
        x[first], a[first], b[first], fa[first])
    root, residual = np.empty(a.size), np.full(a.size, math.inf)
    idx = np.arange(a.size)
    for _ in range(_ROOT_MAXITER):
        if idx.size == 0:
            return root, residual
        z, dz = np.empty(idx.size), np.empty(idx.size)
        for mask, route in ((rs[idx], zetafn.rs_z_with_deriv),
                            (~rs[idx], zetafn.em_z_with_deriv)):
            if mask.any():
                z[mask], dz[mask] = route(x[mask])[:2]
        better = np.abs(z) < residual[idx]
        root[idx[better]], residual[idx[better]] = x[better], np.abs(z[better])
        a, b, fa, x = _step(x, z, dz, a, b, fa, True)
        go = (np.abs(z) > target) & (x != a) & (x != b)
        idx, a, b, fa, x = idx[go], a[go], b[go], fa[go], x[go]
    raise RuntimeError(f"Newton steps did not converge in {_ROOT_MAXITER} "
                       f"iterations near t = {x[0]}")


def sweep(t_max: float, refine_tol: float = 1e-10) -> ZeroCache:
    """Locate all zeros with 0 < gamma <= t_max, their count proved.

    Z is evaluated at the Gram points, a block of one Gram interval is its
    own bracket, and only longer Rosser blocks are sampled at step 0.05
    (see _counted_brackets); then Newton steps refine every bracket (see
    _refine).  t_max down to 10.5 is accepted (an empty result below the
    first zero is legitimate); the supported ceiling is 1e5.  Raises
    UnprovedSignError where |Z| at a Gram point does not clear its committed
    error, UnresolvedBlockError for a Rosser block short of zeros, and
    RefinementShortfallError when the Newton steps leave a residual above
    refine_tol.  Two floors can put a small tolerance out of reach.  Below
    the Riemann-Siegel crossover the steps finish on Euler-Maclaurin, whose
    rounding noise grows with t (1e-12 fails near t = 2,000).  And a double
    ordinate resolves a zero only to half an ulp: |Z(gamma)| can stay at
    |Z'(gamma)| ulp(gamma)/2, up to 3e-10 near t = 1e5, so the default
    sweep(1e5) raises for 2,237 of its 138,069 zeros.
    """
    if not (10.5 <= t_max <= 1e5):
        raise DomainError(f"t_max must lie in [10.5, 1e5] (got {t_max})")
    if not 1e-12 <= refine_tol < math.inf:
        raise DomainError(f"refine_tol must be finite and >= 1e-12 (got {refine_tol})")
    brackets = _counted_brackets(t_max)
    brackets = brackets[brackets["t"][:, 0] <= t_max]
    gammas, residuals = _refine(brackets, refine_tol)
    kept = gammas <= t_max
    cache = ZeroCache(t_max, gammas[kept], residuals[kept], refine_tol)
    short = int((cache.residuals > refine_tol).sum())
    if short:
        worst = int(np.argmax(cache.residuals))
        raise RefinementShortfallError(short, float(cache.residuals[worst]),
                                       float(cache.gammas[worst]), refine_tol)
    return cache


def count_audit(cache: ZeroCache) -> float:
    """N_found - (theta(T)/pi + 1); desk-scale expectation is |result| <= 2."""
    t = cache.t_max
    return len(cache) - (theta(t) / math.pi + 1.0)


def gram_interlacing_fraction(cache: ZeroCache, t_upto: float | None = None) -> float:
    """Fraction of zeros interlacing the Gram points: gamma_n in (g_{n-2}, g_{n-1}).

    This is the index form of Gram's law (equivalent to the sign statistic
    (-1)^n Z(g_n) > 0 holding on both flanks); failures mark repaired Gram
    blocks, not missed zeros.
    """
    limit = cache.t_max if t_upto is None else min(t_upto, cache.t_max)
    grams = _gram_points_upto(limit)
    grams = grams[grams <= limit]
    gammas = cache.gammas[cache.gammas <= limit]
    if not gammas.size:
        return 1.0
    # zero i sits in (g_{i-2}, g_{i-1}), with g_{-1} = 0; a Gram point past
    # limit is taken as +inf
    edges = np.concatenate(([0.0], grams, np.full(gammas.size, math.inf)))
    ok = (edges[:gammas.size] < gammas) & (gammas < edges[1:gammas.size + 1])
    return np.count_nonzero(ok) / gammas.size


# ---------------------------------------------------------------------------
# persistence


_ROW = np.dtype([("index", np.int64), ("gamma", np.float64), ("residual", np.float64)])


def save(cache: ZeroCache, path) -> None:
    """Write the cache file; gammas serialized at 17 significant digits."""
    lines = [f"zcache v1 tmax={cache.t_max!r} n={len(cache)} tol={cache.refine_tol!r}"]
    lines += [f"{i},{g:.17g},{r:.17g}" for i, (g, r) in enumerate(
        zip(cache.gammas.tolist(), cache.residuals.tolist()), start=1)]
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
    fields = dict(kv.partition("=")[::2] for kv in header[2:])
    if sorted(fields) != ["n", "tmax", "tol"]:
        raise CacheFormatError(f"header needs tmax=, n= and tol= once each: {lines[0]!r}")
    try:
        t_max, n, tol = float(fields["tmax"]), int(fields["n"]), float(fields["tol"])
    except ValueError:
        raise CacheFormatError(f"unreadable number in header: {lines[0]!r}") from None
    if not (math.isfinite(t_max) and math.isfinite(tol)):
        raise CacheFormatError(f"non-finite tmax or tol in header: {lines[0]!r}")
    rows = lines[1:-1]
    if len(rows) != n:
        raise CacheFormatError(f"header claims {n} zeros, file has {len(rows)} rows")
    table = (np.loadtxt(rows, dtype=_ROW, delimiter=",", comments=None, ndmin=1)
             if n else np.empty(0, dtype=_ROW))
    # a blank row, which loadtxt skips, leaves the index column short
    if not np.array_equal(table["index"], np.arange(1, n + 1)):
        raise CacheInvariantError("indices not 1..n")
    cache = ZeroCache(t_max, table["gamma"], table["residual"], tol)
    cache.validate()
    return cache
