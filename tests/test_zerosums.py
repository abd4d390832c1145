import math

import numpy as np
import pytest

from zetamoments import zerosums
from zetamoments.zerosums import (
    InsufficientCacheError,
    PreconditionError,
    gonek_sum,
    f_sum,
    log_deriv_reconstruction,
    mean_square_over_zeros,
)
from zetamoments.zetafn import CONSTANTS, log_deriv

GAMMA_1 = 14.134725141734693


class TestGonek:
    def test_x2_within_budget(self, cache1000):
        rep = gonek_sum(cache1000, 2.0)
        assert abs(rep.empirical_sum - rep.main_term) <= rep.error_budget
        assert rep.fitted_constant <= 1.0
        assert rep.main_term == pytest.approx(
            -(1000.0 / (2.0 * math.pi)) * math.log(2.0))

    def test_x6_zero_main_term(self, cache1000):
        rep = gonek_sum(cache1000, 6.0)
        assert rep.main_term == 0.0
        assert abs(rep.empirical_sum) <= rep.error_budget

    def test_nearest_prime_power_distance(self):
        assert zerosums.nearest_prime_power_distance(2.5) == 0.5
        assert zerosums.nearest_prime_power_distance(2.0) == 1.0
        assert zerosums.nearest_prime_power_distance(8.0) == 1.0

    def test_mangoldt_real(self):
        assert zerosums.mangoldt_real(2.5) == 0.0
        assert zerosums.mangoldt_real(4.0) == math.log(2.0)
        assert zerosums.mangoldt_real(6.0) == 0.0

    def test_global_constant_over_matrix(self, cache1000):
        fitted = []
        for x in (2.0, 3.0, 4.0, 5.0, 6.0, 2.5, math.e):
            for t in (250.0, 500.0, 1000.0):
                fitted.append(gonek_sum(cache1000.truncated(t), x).fitted_constant)
        assert max(fitted) <= 5.0

    def test_preconditions(self, cache1000):
        with pytest.raises(PreconditionError):
            gonek_sum(cache1000, 1.0)


class TestMeanSquare:
    def test_zero_polynomial(self, cache1000):
        rep = mean_square_over_zeros(cache1000, np.zeros(10), 0.0)
        assert rep.lhs == 0.0

    def test_singleton_gives_half_count(self, cache1000):
        rep = mean_square_over_zeros(cache1000, [0.0, 1.0, 0.0], 0.0)
        expect = len(cache1000) / 2.0
        assert abs(rep.lhs - expect) <= 1e-12 * expect

    def test_unit_coefficients_ratio(self, cache1000):
        rep = mean_square_over_zeros(cache1000, np.ones(50), 0.0)
        assert rep.ratio <= 5.0

    def test_power_of_two_scaling_exact(self, cache1000):
        base = mean_square_over_zeros(cache1000, np.ones(30), 0.0).lhs
        doubled = mean_square_over_zeros(cache1000, 2.0 * np.ones(30), 0.0).lhs
        assert doubled == 4.0 * base

    def test_matches_dense_exponential_sum(self, cache1000):
        # 649 zeros span two blocks of n^{-i gamma}
        rng = np.random.default_rng(5)
        a = rng.normal(size=100) + 1j * rng.normal(size=100)
        alpha = complex(0.15, 0.3)
        logn = np.log(np.arange(1, 101, dtype=np.float64))
        dense = np.exp(-np.multiply.outer(0.5 + alpha + 1j * cache1000.gammas(), logn)) @ a
        want = float((np.abs(dense) ** 2).sum())
        assert abs(mean_square_over_zeros(cache1000, a, alpha).lhs - want) <= 1e-12 * want

    def test_preconditions(self, cache1000):
        with pytest.raises(PreconditionError):
            mean_square_over_zeros(cache1000, np.ones(10), complex(-0.1, 0.0))
        with pytest.raises(PreconditionError):
            mean_square_over_zeros(cache1000, np.ones(2), 0.0)
        with pytest.raises(PreconditionError):
            mean_square_over_zeros(cache1000, np.ones(200), 0.0)


class TestFSum:
    def test_vanishes_on_line_limit(self, cache1000):
        # far from zeros, F -> 0+ as sigma -> 1/2+
        t = 0.5 * (GAMMA_1 + 21.022039638771555)
        small = f_sum(cache1000, complex(0.5 + 1e-9, t), window=50.0)
        assert 0.0 < small < 1e-6

    def test_nonnegative_at_random_points(self, cache1000):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = complex(0.5 + rng.uniform(1e-6, 1.0), rng.uniform(60.0, 900.0))
            assert f_sum(cache1000, s, window=50.0) >= 0.0

    def test_windowed_part_monotone_in_window(self, cache1000):
        s = complex(0.7, 400.0)
        vals = [zerosums.f_sum_parts(cache1000, s, window=w)[0]
                for w in (20.0, 50.0, 100.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_tail_keeps_total_stable(self, cache1000):
        s = complex(0.7, 400.0)
        totals = [f_sum(cache1000, s, window=w) for w in (20.0, 50.0, 100.0)]
        assert max(totals) - min(totals) <= 0.1 * max(totals)

    def test_log_deriv_identity_fitted_constant(self, cache1000):
        # Re zeta'/zeta(sigma_lam + it) = F - log(tau)/2 + O(1); the fitted
        # O(1) stays small across sample points
        rng = np.random.default_rng(9)
        devs = []
        for _ in range(50):
            t = float(rng.uniform(100.0, 900.0))
            x = math.log(t + 3.0) ** 2
            sig = 0.5 + 0.5671432904097838 / math.log(x)
            s = complex(sig, t)
            f_val = f_sum(cache1000, s, window=50.0)
            devs.append(log_deriv(s).value.real - (f_val - 0.5 * math.log(t + 3.0)))
        assert max(abs(d) for d in devs) <= 5.0

    def test_insufficient_cache(self, cache1000):
        with pytest.raises(InsufficientCacheError):
            f_sum(cache1000, complex(0.7, 990.0), window=50.0)
        with pytest.raises(PreconditionError):
            f_sum(cache1000, complex(0.5, 100.0), window=50.0)


class TestPartialFractionReconstruction:
    def test_matches_direct_log_deriv(self, cache1000):
        s = complex(0.5, GAMMA_1 + 0.5)
        rec = log_deriv_reconstruction(cache1000, s, window=50.0)
        direct = log_deriv(s).value
        assert abs(rec - direct) <= 0.2

    def test_across_strip(self, cache1000):
        for s in (complex(0.5, 300.0), complex(0.8, 300.0), complex(2.0, 500.0)):
            rec = log_deriv_reconstruction(cache1000, s, window=50.0)
            assert abs(rec - log_deriv(s).value) <= 0.5


def _mpmath_tail(mpmath, s: complex, window: float, with_rho: bool) -> complex:
    """The integrals of ``zerosums._density_tail``, by mpmath.quad at the
    working precision, with breakpoints spaced geometrically away from the pole."""
    s_mp, t = mpmath.mpc(s.real, s.imag), abs(s.imag)

    def term(rho):
        return 1 / (s_mp - rho) + (1 / rho if with_rho else 0)

    def density(u):
        return mpmath.log(u / (2 * mpmath.pi)) / (2 * mpmath.pi)

    lo = t + window
    half = [lo + window * (8 ** k - 1) for k in range(6)] + [mpmath.inf]
    out = mpmath.quad(lambda u: (term(mpmath.mpc(0.5, u)) + term(mpmath.mpc(0.5, -u)))
                      * density(u), half)
    if t - window > 14.0:
        cuts = [t - window - window * (8 ** k - 1) for k in range(6)]
        out += mpmath.quad(lambda u: term(mpmath.mpc(0.5, u)) * density(u),
                           [14.0] + sorted(c for c in cuts if c > 14.0))
    return complex(out)


class TestDensityTail:
    @pytest.mark.filterwarnings("error")
    def test_within_1e12_of_mpmath(self):
        # the f identity's sigma - 1/2 = lambda0/log x [1/2, 1] without 1/rho,
        # the partial fraction's sigma in [1/2, 2] with it; no zero cache needed
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        with mpmath.workdps(30):
            for height in (1e3, 1e4, 3e4, 1e5):
                t = (height - 50.0) * rng.uniform(0.5, 1.0)
                x = math.log(t + 3.0) ** 2
                sig_f = 0.5 + CONSTANTS.lambda0 / math.log(x) * rng.uniform(0.5, 1.0)
                for sig, with_rho in ((sig_f, False), (rng.uniform(0.5, 2.0), True),
                                      (0.5, True)):
                    s = complex(sig, t)
                    got = zerosums._density_tail(s, 50.0, with_rho)
                    want = _mpmath_tail(mpmath, s, 50.0, with_rho)
                    assert abs(got - want) <= 1e-12 * abs(want), (s, with_rho)
                    assert abs(got.real - want.real) <= 1e-12 * abs(want.real), (s, with_rho)
