"""Acceptance criteria, one test per criterion, each printing one line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines while the suite executes.

Criterion 4 is implemented exactly at its stated tolerance and is expected
to fail on one of its twelve combinations: the growth-exponent budget
k^2 + 0.5 is slightly exceeded for k = 1, alpha = -1/log T (measured
exponent about 1.67).  The excess is not a computation error; the shifted
values have been verified against an independent multiprecision evaluator
to thirteen digits.  It reflects the chi-modulus drift (gamma/2pi)^{2/log T}
between T = 1e3 and 1e4, which vanishes only asymptotically.
"""

import math
import time

import numpy as np
import pytest

from zetamoments import campaign, moments, zeros, zerosums
from zetamoments.campaign import CampaignConfig
from zetamoments.primes import DirichletPolySpec
from zetamoments.zetafn import CONSTANTS

GAMMA_1 = 14.134725141734693


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_zero_infrastructure():
    from .oracles import bisect_zero
    import cmath
    from zetamoments.zetafn import theta
    from .oracles import em_zeta_oracle

    start = time.perf_counter()
    cache = zeros.sweep(1000.0)
    elapsed = time.perf_counter() - start
    deviation = zeros.count_audit(cache)
    gamma_oracle = bisect_zero(
        lambda t: (cmath.exp(1j * theta(t))
                   * em_zeta_oracle(complex(0.5, t))[0]).real,
        14.1, 14.2, scan_step=1e-3)
    gamma_err = abs(cache.records[0].gamma - gamma_oracle)
    ok = abs(deviation) <= 2.0 and gamma_err <= 1e-8 and elapsed <= 60.0
    _report(1, "zero sweep to T=1000", ok,
            f"N={len(cache)}, count dev {deviation:+.3f} (<=2), "
            f"gamma_1 err {gamma_err:.2e} (<=1e-8), {elapsed:.1f}s (<=60s)")
    assert abs(deviation) <= 2.0
    assert gamma_err <= 1e-8
    assert abs(cache.records[0].gamma - GAMMA_1) <= 1e-8
    assert elapsed <= 60.0


def test_criterion_2_gonek_explicit_formula(cache1000):
    per_t = {}
    for t in (250.0, 500.0, 1000.0):
        sub = cache1000.truncated(t)
        per_t[t] = max(zerosums.gonek_sum(sub, x).fitted_constant
                       for x in (2.0, 3.0, 4.0, 5.0, 6.0, 2.5))
    worst = max(per_t.values())
    spread = max(per_t.values()) / min(per_t.values())
    ok = worst <= 5.0 and spread < 2.0
    _report(2, "Landau-Gonek formula", ok,
            f"fitted constants {[f'{v:.3f}' for v in per_t.values()]} "
            f"(max {worst:.3f} <= 5), spread {spread:.2f}x (< 2x)")
    assert worst <= 5.0
    assert spread < 2.0


def test_criterion_3_j1_asymptotic(cache10k):
    rep = moments.compute_Jk(cache10k, 1.0, 1)
    scale = (math.log(cache10k.t_max) ** 3) / 12.0
    ratio = rep.normalized / scale
    ok = 0.5 <= ratio <= 1.5
    _report(3, "J_1 vs (1/12)(log T)^3 at T=1e4", ok,
            f"normalized {rep.normalized:.3f}, scale {scale:.3f}, "
            f"ratio {ratio:.4f} in [0.5, 1.5]")
    assert 0.5 <= ratio <= 1.5


def test_criterion_4_shifted_moment_growth(cache1000, cache10k):
    caches = {1000.0: cache1000, 10000.0: cache10k}
    failures = []
    rows = []
    for k in (1.0, 2.0):
        for name in ("+1/logT", "-1/logT", "i/logT"):
            normalized = {}
            for t, cache in caches.items():
                r = 1.0 / math.log(t)
                alpha = {"+1/logT": complex(r), "-1/logT": complex(-r),
                         "i/logT": complex(0.0, r)}[name]
                rep = moments.shifted_moment(cache, k, alpha)
                assert math.isfinite(rep.ratio_to_conjecture)
                normalized[t] = rep.normalized
            fit = math.log(normalized[10000.0] / normalized[1000.0]) \
                / math.log(math.log(10000.0) / math.log(1000.0))
            budget = k * k + 0.5
            rows.append(f"k={k:g},{name}: {fit:.3f}<={budget:g}")
            if fit > budget:
                failures.append(rows[-1])
    ok = not failures
    _report(4, "shifted-moment growth exponents", ok, "; ".join(rows))
    assert not failures, (
        "growth-exponent budget exceeded for: " + "; ".join(failures)
        + " (expected desk-scale defect: the chi-modulus drift "
          "(gamma/2pi)^{2/log T} adds ~0.5 to the negative-real-shift "
          "exponent between T=1e3 and 1e4; values verified independently)")


def test_criterion_5_cauchy_transfer(cache10k):
    radius = 1.0 / math.log(cache10k.t_max)
    slack_11 = moments.cauchy_transfer_audit(cache10k, 1, 1, radius)
    slack_12 = moments.cauchy_transfer_audit(cache10k, 1, 2, radius)
    ok = slack_11 >= 0.95 and slack_12 >= 0.95
    _report(5, "Cauchy derivative-moment transfer at T=1e4", ok,
            f"slack(k=1,ell=1) {slack_11:.3f}, slack(k=1,ell=2) "
            f"{slack_12:.3f} (both >= 0.95)")
    assert slack_11 >= 0.95
    assert slack_12 >= 0.95


def test_criterion_6_majorant_audits():
    stats = {}
    for t_band in (1000.0, 10000.0):
        x = math.log(t_band + 3.0) ** 2
        spec = DirichletPolySpec(x=x, lam=CONSTANTS.lambda0)
        pts = campaign._kronecker(2026, 48)
        samples = [(0.5 + (spec.sigma_lam - 0.5) * u, t_band * (0.8 + 0.2 * v))
                   for u, v in pts]
        table = moments.majorant_audit(spec, samples)
        diff_fits = [moments.prime_lambda_difference(spec, t_band * f)[1]
                     for f in (0.85, 0.95)]
        stats[t_band] = (table.fitted_constant_lambda,
                         table.fitted_constant_prime, max(diff_fits))

    def stable(a, b):
        if max(a, b) <= 0.5:
            return True
        return max(a, b) < 2.0 * max(min(a, b), 1e-12)

    lam_pair = (stats[1000.0][0], stats[10000.0][0])
    prime_pair = (stats[1000.0][1], stats[10000.0][1])
    diff_worst = max(stats[1000.0][2], stats[10000.0][2])
    ok = (all(math.isfinite(v) for v in lam_pair + prime_pair)
          and stable(*lam_pair) and stable(*prime_pair) and diff_worst <= 10.0)
    _report(6, "log-zeta majorant audits", ok,
            f"fitted Lambda {lam_pair}, prime {prime_pair} (stable), "
            f"prime-vs-Lambda fitted {diff_worst:.3f} (<= 10)")
    assert all(math.isfinite(v) for v in lam_pair + prime_pair)
    assert stable(*lam_pair) and stable(*prime_pair)
    assert diff_worst <= 10.0


def test_criterion_7_dyadic_sandwich(cache1000, cache10k):
    violations = []
    tested = 0
    for t, cache in ((1000.0, cache1000), (10000.0, cache10k)):
        r = 1.0 / math.log(t)
        for k in (1.0, 2.0):
            for alpha in (complex(r), complex(0.0, r)):
                hist = moments.large_value_histogram(cache, k, alpha)
                recon = moments.dyadic_reconstruction(hist, k)
                direct = moments.shifted_moment(cache, k, alpha).raw_sum
                upper = math.exp(2.0 * k) * direct \
                    + math.exp(6.0 * k) * hist.n_zeros
                tested += 1
                if not (direct <= recon <= upper):
                    violations.append((t, k, alpha))
    ok = not violations
    _report(7, "dyadic reconstruction sandwich", ok,
            f"{tested} (k, alpha, T) combinations, {len(violations)} violations")
    assert not violations


def test_criterion_8_large_value_histogram(cache10k):
    t_max = cache10k.t_max
    ll = math.log(math.log(t_max))
    alpha = complex(1.0 / math.log(t_max))
    hist = moments.large_value_histogram(cache10k, 1.0, alpha)
    mono_ok = all(b <= a for a, b in zip(hist.counts, hist.counts[1:]))

    plain_threshold = 0.4 * math.log(t_max) / ll
    fine = moments.large_value_histogram(
        cache10k, 1.0, alpha,
        v_grid=list(np.linspace(0.25, max(4.0, hist.max_observed + 1.0), 24)))
    vacuity_ok = all(c == 0 for v, c in zip(fine.config.v_grid, fine.counts)
                     if v >= plain_threshold)

    band = list(np.linspace(math.sqrt(ll), ll, 9))
    banded = moments.large_value_histogram(cache10k, 1.0, alpha, v_grid=band)
    dominance_ok = all(case == "i" and c <= 100.0 * b
                       for c, b, case in zip(banded.counts,
                                             banded.bound_values,
                                             banded.bound_cases))
    ok = mono_ok and vacuity_ok and dominance_ok
    _report(8, "large-value histogram at T=1e4", ok,
            f"nonincreasing {mono_ok}, empty beyond "
            f"{plain_threshold:.3f} {vacuity_ok} (max observed "
            f"{fine.max_observed:.3f}), case-(i) x100 dominance {dominance_ok}")
    assert mono_ok
    assert vacuity_ok
    assert dominance_ok


def test_criterion_9_mean_square(cache1000):
    r = 1.0 / math.log(cache1000.t_max)
    worst = 0.0
    for xi in (20, 50, 100):
        for alpha in (0.0, r):
            rep = zerosums.mean_square_over_zeros(cache1000, np.ones(xi), alpha)
            worst = max(worst, rep.ratio)
    base = zerosums.mean_square_over_zeros(cache1000, np.ones(50), 0.0).lhs
    scaled = zerosums.mean_square_over_zeros(cache1000, 2.0 * np.ones(50), 0.0).lhs
    scaling_exact = scaled == 4.0 * base
    ok = worst <= 5.0 and scaling_exact
    _report(9, "mean square over zeros", ok,
            f"worst ratio {worst:.4f} (<= 5), |c|^2 scaling exact: "
            f"{scaling_exact}")
    assert worst <= 5.0
    assert scaling_exact


def test_criterion_10_campaign_determinism(cache1000, tmp_path):
    cache_path = tmp_path / "z1000.csv"
    zeros.save(cache1000, cache_path)
    config = CampaignConfig(t_max=1000.0, cache_path=str(cache_path))
    text_a = campaign.render_report(config, campaign.run_campaign(config))
    text_b = campaign.render_report(config, campaign.run_campaign(config))
    ok = text_a == text_b
    _report(10, "campaign determinism", ok,
            f"two runs, {len(text_a)} bytes, byte-identical: {ok}")
    assert text_a == text_b
