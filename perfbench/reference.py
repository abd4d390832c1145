"""Reference J-moment and shifted-moment sums over a zero cache, made apart
from zetamoments.

    python3 perfbench/reference.py --cache CACHE --t-max T --out REF.json

Nothing here imports the program.  The cache file is parsed by hand, and
zeta is evaluated by an Euler-Maclaurin sum written for this file, with
settings the program does not use:

* main-sum length N = ceil(t/2) + 32, against the program's 2t/pi;
* sixteen Bernoulli corrections, against its twelve;
* derivatives from a Cauchy integral of values on a circle of radius 0.05
  around each zero (twelve points), not from term-wise differentiation.

The remainder after sixteen corrections is about 2 (t / 2 pi N)^32 N^(1/2),
below 1e-13 here.  Before writing, three zeros (first, middle, last) are
checked against mpmath for every quantity; a disagreement above 1e-10
relative stops the command.  The output records the sha256 of the cache it
used, so run.py can tell a stale reference from a current one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
from pathlib import Path

import numpy as np

CIRCLE_RADIUS = 0.05
CIRCLE_POINTS = 12
CORRECTIONS = 16
CHUNK = 64
SPOT_TOLERANCE = 1e-10
HISTOGRAM_TOP = 64      # counts of log|zeta(rho + 1/log T)| >= V for V = 0..64


def parse_cache(path) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """(sha256 of the file, indices, gammas, residuals) read without the program."""
    raw = Path(path).read_bytes()
    rows = raw.decode("utf-8").splitlines()[1:-1]
    cols = np.array([row.split(",") for row in rows], dtype=object).reshape(-1, 3)
    return (hashlib.sha256(raw).hexdigest(), cols[:, 0].astype(np.int64),
            cols[:, 1].astype(np.float64), cols[:, 2].astype(np.float64))


def _bernoulli_over_factorial() -> np.ndarray:
    """B_2r / (2r)! for r = 1..CORRECTIONS, from the Akiyama-Tanigawa table."""
    from fractions import Fraction
    size = 2 * CORRECTIONS + 1
    b = []
    a = [Fraction(0)] * (size + 1)
    for m in range(size + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        b.append(a[0])
    return np.array([float(b[2 * r] / math.factorial(2 * r))
                     for r in range(1, CORRECTIONS + 1)])


_B_OVER_FACT = _bernoulli_over_factorial()


def em_zeta(s: np.ndarray) -> np.ndarray:
    """zeta(s) for Im s >= 10, evaluated in chunks of ascending height."""
    s = np.asarray(s, dtype=np.complex128)
    order = np.argsort(s.imag, kind="stable")
    out = np.empty(s.size, dtype=np.complex128)
    for lo in range(0, s.size, CHUNK):
        idx = order[lo:lo + CHUNK]
        block = s[idx]
        n = int(math.ceil(block.imag.max() / 2.0)) + 32
        logn = np.log(np.arange(1, n, dtype=np.float64))
        main = np.exp(-np.multiply.outer(block, logn)).sum(axis=1)
        n_pow = np.exp(-block * math.log(n))          # N^{-s}
        total = main + n_pow * (0.5 + n / (block - 1.0))
        rising = block.copy()                         # s (s+1) ... (s+2r-2)
        power = n_pow / n                             # N^{-s-2r+1}
        for r in range(1, CORRECTIONS + 1):
            total += _B_OVER_FACT[r - 1] * rising * power
            rising = rising * (block + 2 * r - 1) * (block + 2 * r)
            power = power / (n * n)
        out[idx] = total
    return out


def derivatives_at(rho: np.ndarray, orders=(1, 2)) -> dict[int, np.ndarray]:
    """zeta^(l)(rho) by the trapezoid rule for Cauchy's integral on a circle."""
    omega = np.exp(2j * math.pi * np.arange(CIRCLE_POINTS) / CIRCLE_POINTS)
    ring = np.stack([em_zeta(rho + CIRCLE_RADIUS * w) for w in omega])
    return {ell: math.factorial(ell) / (CIRCLE_POINTS * CIRCLE_RADIUS ** ell)
            * (omega[:, None] ** (-ell) * ring).sum(axis=0) for ell in orders}


def shifts(t_max: float) -> tuple[complex, ...]:
    """The campaign's default shifts: 1/log T, -1/log T and i/log T."""
    r = 1.0 / math.log(t_max)
    return (complex(r), complex(-r), complex(0.0, r))


def per_zero_values(gammas: np.ndarray, t_max: float) -> dict[str, np.ndarray]:
    rho = 0.5 + 1j * gammas
    vals = {f"d{ell}": v for ell, v in derivatives_at(rho).items()}
    for alpha in shifts(t_max):
        vals[f"shift{alpha:.6g}"] = em_zeta(rho + alpha)
    return vals


def _spot_check(gammas: np.ndarray, vals: dict[str, np.ndarray], t_max: float) -> float:
    import mpmath
    mpmath.mp.dps = 20
    worst = 0.0
    for i in sorted({0, gammas.size // 2, gammas.size - 1}):
        rho = mpmath.mpc(0.5, gammas[i])
        exact = {f"d{ell}": mpmath.zeta(rho, derivative=ell) for ell in (1, 2)}
        for alpha in shifts(t_max):
            exact[f"shift{alpha:.6g}"] = mpmath.zeta(rho + mpmath.mpc(alpha.real, alpha.imag))
        for key, ref in exact.items():
            ref = complex(ref)
            worst = max(worst, abs(vals[key][i] - ref) / max(1.0, abs(ref)))
    return worst


def make_reference(cache_path, t_max: float) -> dict:
    sha, _, gammas, _ = parse_cache(cache_path)
    gammas = gammas[gammas <= t_max]
    vals = per_zero_values(gammas, t_max)
    spot = _spot_check(gammas, vals, t_max)
    if not spot <= SPOT_TOLERANCE:
        raise SystemExit(f"reference disagrees with mpmath by {spot:.3e} (relative)")
    sums = {}
    for k in (1.0, 2.0):
        for ell in (1, 2):
            sums[f"j_moment[k={k:g},ell={ell}]"] = float(
                np.sum(np.abs(vals[f"d{ell}"]) ** (2 * k)))
        for alpha in shifts(t_max):
            sums[f"shifted_moment[k={k:g},alpha={alpha:.6g}]"] = float(
                np.sum(np.abs(vals[f"shift{alpha:.6g}"]) ** (2 * k)))
    log_shifted = np.log(np.abs(vals[f"shift{shifts(t_max)[0]:.6g}"]))
    return {"cache_sha256": sha, "t_max": t_max, "n_zeros": int(gammas.size),
            "raw_sums": sums, "max_log_abs_shifted": float(log_shifted.max()),
            "counts_log_abs_shifted_ge": [int((log_shifted >= v).sum())
                                          for v in range(HISTOGRAM_TOP + 1)],
            "spot_check_max_relative": spot}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cache", required=True, help="zero cache file (zcache v1)")
    parser.add_argument("--t-max", type=float, required=True, help="campaign height T")
    parser.add_argument("--out", required=True, help="where to write the JSON reference")
    args = parser.parse_args()
    ref = make_reference(args.cache, args.t_max)
    Path(args.out).write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
