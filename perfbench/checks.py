"""Output checks made apart from zetamoments.

Each check returns a list of ``(operation, message)`` failures; run.py counts
every listed operation as failed.  The checks compare the program's outputs
with mpmath, with sums recomputed here in numpy, with the reference of
reference.py, or with properties the method must have.  None compares with a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from reference import parse_cache, shifts

ZETAZERO_TOLERANCE = 1e-9
MOMENT_TOLERANCE = 1e-9       # relative; the reference agrees to ~1e-11
GONEK_XS = (2.0, 3.0, 4.0, 5.0, 6.0, 2.5)


def count_zeros(t_max: float) -> int:
    """Number of zeros with 0 < gamma <= t_max (mpmath's Riemann-Siegel count)."""
    import mpmath
    return int(mpmath.nzeros(t_max))


def zetazero_ordinates(indices) -> dict[int, float]:
    import mpmath
    mpmath.mp.dps = 15
    return {int(n): float(mpmath.zetazero(int(n)).imag) for n in indices}


# ---------------------------------------------------------------------------
# sweep


def check_sweep(caches, saved_path, n_expected: int,
                sample: dict[int, float]) -> list[tuple[str, str]]:
    """The swept cache, the file save wrote, and what load read back."""
    bad = []
    idx, gam = caches["swept_index"], caches["swept_gamma"]
    if gam.size != n_expected:
        bad.append(("sweep", f"{gam.size} zeros, mpmath.nzeros says {n_expected}"))
    if not np.array_equal(idx, np.arange(1, gam.size + 1)):
        bad.append(("sweep", "indices are not 1..n"))
    if np.any(np.diff(gam) <= 0.0):
        bad.append(("sweep", "ordinates do not strictly increase"))
    for n, exact in sample.items():
        if n > gam.size or abs(gam[n - 1] - exact) > ZETAZERO_TOLERANCE:
            got = gam[n - 1] if n <= gam.size else None
            bad.append(("sweep", f"gamma_{n} = {got!r}, mpmath.zetazero gives {exact!r}"))
    _, f_idx, f_gam, f_res = parse_cache(saved_path)
    if not (np.array_equal(f_idx, idx) and np.array_equal(f_gam, gam)
            and np.array_equal(f_res, caches["swept_residual"])):
        bad.append(("save", "the saved file does not hold the swept cache"))
    for field in ("index", "gamma", "residual"):
        if not np.array_equal(caches[f"loaded_{field}"], caches[f"swept_{field}"]):
            bad.append(("load", f"loaded {field}s differ from the saved ones"))
            break
    return bad


# ---------------------------------------------------------------------------
# audit


def expected_audit_names(t_max: float, k_list=(1.0, 2.0), ell_list=(1, 2)) -> list[str]:
    """The outcome names of a default campaign at height t_max."""
    log_t = math.log(t_max)
    names = ["zero_count"]
    names += [f"gonek_explicit_formula[x={x:g}]" for x in GONEK_XS]
    names += [f"mean_square[xi={xi},re_alpha={a:.6g}]"
              for xi in (20, 50, 100) if xi <= t_max / log_t
              for a in (0.0, 1.0 / log_t)]
    for tag in ("high", "mid"):
        names += [f"log_zeta_majorant_lambda[{tag}]", f"log_zeta_majorant_prime[{tag}]",
                  f"prime_lambda_difference[{tag}]"]
    names += ["functional_equation_residual", "stirling_digamma",
              "partial_fraction_reconstruction", "zero_sum_f_identity"]
    names += [f"j_moment[k={k:g},ell={ell}]" for k in k_list for ell in ell_list]
    names += [f"shifted_moment[k={k:g},alpha={a:.6g}]" for k in k_list for a in shifts(t_max)]
    for k in k_list:
        names += [f"large_value_histogram[k={k:g}]", f"dyadic_reconstruction[k={k:g}]"]
    names += [f"cauchy_transfer[k={k:g},ell={ell}]" for k in k_list if k == int(k)
              for ell in ell_list]
    names += [f"continuous_moment[k={k:g}]" for k in k_list]
    return names


def _mangoldt(n: int) -> float:
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return 0.0


def _is_prime_power(n: int) -> bool:
    return n >= 2 and _mangoldt(n) > 0.0


def gonek_fitted(gammas: np.ndarray, t_max: float, x: float) -> float:
    """max over T' in {T/4, T/2, T} of |sum x^rho - main| / budget, in numpy."""
    lam = _mangoldt(int(x)) if x == int(x) else 0.0
    gap = min(abs(n - x) for n in range(2, int(2 * x) + 3)
              if _is_prime_power(n) and n != x)
    log_x = math.log(x)
    worst = 0.0
    for frac in (0.25, 0.5, 1.0):
        t = frac * t_max
        g = gammas[gammas <= t]
        total = math.sqrt(x) * complex(np.sum(np.cos(g * log_x)), np.sum(np.sin(g * log_x)))
        budget = (x * math.log(2 * x * t) * math.log(math.log(3 * x))
                  + log_x * min(t, x / gap) + math.log(2 * t) * min(t, 1 / log_x))
        worst = max(worst, abs(total + t / (2 * math.pi) * lam) / budget)
    return worst


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def check_audit(report_text: str, t_max: float, cache_path, ref: dict,
                n_expected: int) -> list[tuple[str, str]]:
    """One failure per outcome that is missing, raised, or disagrees."""
    outcomes = {o["audit_name"]: o for o in json.loads(report_text)["outcomes"]}
    _, _, gammas, _ = parse_cache(cache_path)
    gammas = gammas[gammas <= t_max]
    n = gammas.size
    log_t = math.log(t_max)
    bad = []
    for name in expected_audit_names(t_max):
        o = outcomes.get(name)
        if o is None:
            bad.append((name, "missing from the report"))
            continue
        why = _audit_disagreement(name, o, outcomes, gammas, t_max, log_t, ref, n_expected)
        if why:
            bad.append((name, why))
    return bad


def _audit_disagreement(name, o, outcomes, gammas, t_max, log_t, ref, n_expected) -> str:
    fitted, violation, notes = o["fitted_constant"], o["max_violation"], o["notes"]
    n = gammas.size
    if notes.startswith("error:"):
        return notes
    if not isinstance(fitted, (int, float)) or not math.isfinite(fitted):
        return f"fitted constant {fitted!r}"
    if name == "zero_count" and o["sample_count"] != n_expected:
        return f"N = {o['sample_count']}, mpmath.nzeros says {n_expected}"
    if name.startswith("gonek_explicit_formula"):
        x = float(name.split("x=")[1].rstrip("]"))
        exact = gonek_fitted(gammas, t_max, x)
        if not _close(fitted, exact, MOMENT_TOLERANCE):
            return f"fitted {fitted!r}, numpy recomputation {exact!r}"
    if name.startswith(("j_moment", "shifted_moment")):
        raw = _raw_sum(name, fitted, n, log_t)
        exact = ref["raw_sums"][name]
        if not _close(raw, exact, MOMENT_TOLERANCE):
            return f"raw sum {raw!r}, reference {exact!r}"
    if name.startswith("large_value_histogram"):
        k = float(name.split("k=")[1].rstrip("]"))
        top = _histogram_top(ref["max_log_abs_shifted"], k, t_max)
        observed = float(notes.rsplit(" ", 1)[1])
        if violation != 0.0:
            return f"{violation:g} counts increase or lie above the vacuity threshold"
        if o["sample_count"] != top - 2:
            return f"V grid of {o['sample_count']} points, reference gives {top - 2}"
        if not _close(observed, ref["max_log_abs_shifted"], 1e-5):
            return f"max log|zeta| {observed!r}, reference {ref['max_log_abs_shifted']!r}"
    if name.startswith("dyadic_reconstruction"):
        k = float(name.split("k=")[1].rstrip("]"))
        direct_name = f"shifted_moment[k={k:g},alpha={shifts(t_max)[0]:.6g}]"
        direct = _raw_sum(direct_name, outcomes[direct_name]["fitted_constant"], n, log_t)
        recon = fitted * direct
        exact_direct = ref["raw_sums"][direct_name]
        exact_recon = _dyadic(ref, k, n, t_max)
        upper = math.exp(2 * k) * exact_direct + math.exp(6 * k) * n
        if violation != 0.0 or not exact_direct <= recon * (1 + 1e-12) <= upper * (1 + 1e-12):
            return f"sandwich fails: {exact_direct!r} <= {recon!r} <= {upper!r}"
        if not _close(recon, exact_recon, MOMENT_TOLERANCE):
            return f"reconstruction {recon!r}, from reference counts {exact_recon!r}"
    if name == "functional_equation_residual" and (fitted > 1.0 or violation != 0.0):
        return f"residual {fitted!r} of its committed budget, {violation:g} points over"
    if name == "zero_sum_f_identity" and violation != 0.0:
        return f"F < 0 at {violation:g} points"
    return ""


def _raw_sum(name: str, fitted: float, n: int, log_t: float) -> float:
    k = float(name.split("k=")[1].split(",")[0])
    ell = int(name.split("ell=")[1].rstrip("]")) if name.startswith("j_moment") else 0
    return fitted * n * log_t ** (k * (k + 2 * ell))


def _histogram_top(max_log: float, k: float, t_max: float) -> int:
    return max(4, math.ceil(max_log), math.ceil(4 * k * math.log(math.log(t_max))))


def _dyadic(ref: dict, k: float, n: int, t_max: float) -> float:
    """The histogram-to-moment reconstruction from the reference's counts."""
    counts = ref["counts_log_abs_shifted_ge"]
    top = _histogram_top(ref["max_log_abs_shifted"], k, t_max)
    recon = math.exp(6 * k) * (n - counts[3])
    for nu in range(4, top + 1):
        recon += math.exp(2 * k * nu) * (counts[nu - 1] - counts[nu])
    return recon


# ---------------------------------------------------------------------------
# pointwise


def pointwise_reference(fn: str, sigma: float, t: float) -> complex:
    """The exact value at the same double-precision argument, by mpmath."""
    import mpmath
    mpmath.mp.dps = 30
    s = mpmath.mpc(sigma, t)
    if fn == "zeta":
        v = mpmath.zeta(s)
    elif fn == "zeta_prime":
        v = mpmath.zeta(s, derivative=1)
    elif fn == "log_deriv":
        v = mpmath.zeta(s, derivative=1) / mpmath.zeta(s)
    elif fn == "hardy_z":
        v = mpmath.siegelz(mpmath.mpf(t))
    else:
        v = mpmath.loggamma(s)
    return complex(v)


LOG_GAMMA_RELATIVE = 1e-12   # log_gamma's documented accuracy, read as relative


def check_call(fn: str, sigma: float, t: float, value: complex, err: float) -> str:
    """'' when |value - mpmath| is within the committed error estimate."""
    exact = pointwise_reference(fn, sigma, t)
    diff = value - exact
    if fn == "log_gamma":
        # Re s <= 0 takes principal logs, which may differ by a multiple of 2 pi i
        diff = complex(diff.real, math.remainder(diff.imag, 2 * math.pi))
        err = LOG_GAMMA_RELATIVE * max(1.0, abs(exact))
    if not abs(diff) <= err:
        arg = f"{t!r}" if fn == "hardy_z" else f"{sigma!r}+{t!r}i"
        return f"{fn}({arg}): |error| {abs(diff):.3e} > estimate {err:.3e}"
    return ""
