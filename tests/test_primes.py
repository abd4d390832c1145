import math

import numpy as np
import pytest

from zetamoments import primes
from zetamoments.primes import DirichletPolySpec, SieveTable
from zetamoments.zetafn import CONSTANTS

from .oracles import (
    chebyshev_psi,
    mangoldt_oracle,
    mangoldt_table_oracle,
    prime_factors_oracle,
    s1_s2,
)


class TestSieve:
    def test_primality_matches_trial_division(self):
        sieve = SieveTable(2000)
        for n in range(2, 2000, 37):
            by_trial = all(n % d for d in range(2, int(math.isqrt(n)) + 1))
            assert sieve.is_prime(n) == by_trial

    def test_out_of_table(self):
        sieve = SieveTable(100)
        with pytest.raises(primes.SieveRangeError):
            sieve.mangoldt(101)

    def test_primes_list(self):
        sieve = SieveTable(30)
        assert list(sieve.primes()) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_spf_and_omega_match_trial_factorization(self):
        sieve = SieveTable(5000)
        assert sieve.smallest_prime_factor.dtype == np.int32
        assert sieve.omega.dtype == np.int8
        assert sieve.smallest_prime_factor[:2].tolist() == [0, 0]
        assert sieve.omega[:2].tolist() == [0, 0]
        for n in range(2, 5001):
            factors = prime_factors_oracle(n)
            assert sieve.smallest_prime_factor[n] == factors[0]
            assert sieve.omega[n] == len(factors)

    def test_factor_plan_rebuilds_every_n(self):
        # f(p) = p on the prime rows, then each level's composites as int64
        # products of rows filled at lower levels
        sieve = SieveTable(5000)
        prime_rows, levels = sieve.factor_plan
        f = np.zeros(sieve.limit, dtype=np.int64)
        f[0] = 1
        f[prime_rows] = prime_rows + 1
        for comp, spf, cof in levels:
            assert all(rows.dtype == np.intp for rows in (comp, spf, cof))
            assert np.all(np.diff(comp) > 0)
            assert np.all(f[spf] > 0) and np.all(f[cof] > 0)
            assert not np.any(f[comp])
            f[comp] = f[spf] * f[cof]
        assert np.array_equal(f, np.arange(1, sieve.limit + 1))


class TestMangoldt:
    def test_prime_power(self):
        assert primes.mangoldt(8) == math.log(2.0)

    def test_two_factors(self):
        assert primes.mangoldt(6) == 0.0

    def test_chebyshev_psi_against_trial_division(self):
        direct = sum(mangoldt_oracle(n) for n in range(1, 1001))
        assert abs(chebyshev_psi(1000.0) - direct) < 1e-9
        assert abs(direct - 996.68) < 0.1

    def test_mangoldt_table_matches_oracle(self):
        table = primes.shared_sieve(4000).mangoldt_table(600)
        for n in range(1, 601):
            assert table[n] == pytest.approx(mangoldt_oracle(n), abs=1e-12)

    def test_mangoldt_table_bit_identical_to_loop(self):
        # math.log, not np.log, which is an ulp off at a few primes
        table = primes.shared_sieve(10 ** 6).mangoldt_table(10 ** 6)
        assert table.tobytes() == np.array(mangoldt_table_oracle(10 ** 6)).tobytes()

    def test_scalar_mangoldt_matches_table(self):
        table = primes.shared_sieve(10 ** 6).mangoldt_table(10 ** 6 - 1)
        powers = np.flatnonzero(table)
        assert powers.size > 78000
        assert all(primes.mangoldt(n) == lam
                   for n, lam in zip(powers.tolist(), table[powers].tolist()))


class TestSmoothedSum:
    def test_length_two_vanishes(self):
        spec = DirichletPolySpec(x=2.0)
        assert primes.smoothed_sum(spec, 0.0j) == 0.0

    def test_brute_force_x10(self):
        spec = DirichletPolySpec(x=10.0, lam=CONSTANTS.lambda0)
        val = primes.smoothed_sum(spec, 0.0j)
        sig = spec.sigma_lam
        acc = 0.0
        for n in range(2, 11):
            lam_n = mangoldt_oracle(n)
            if lam_n:
                acc += lam_n / (n ** sig * math.log(n)) \
                    * math.log(10.0 / n) / math.log(10.0)
        assert val.imag == 0.0
        assert val.real > 0.0
        assert abs(val - acc) <= 1e-14

    def test_prime_only_difference_shape(self):
        # Lambda-weighted minus prime-only is O(log log log tau) with
        # tau = |t| + e^30
        spec = DirichletPolySpec(x=1e4)
        from zetamoments.moments import prime_lambda_difference
        diff, fitted = prime_lambda_difference(spec, 50.0)
        assert diff > 0.0
        assert fitted <= 10.0

    def test_random_specs_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = float(rng.uniform(10.0, 3000.0))
            lam = float(rng.uniform(0.3, max(0.31, math.log(x) / 4.0)))
            t = float(rng.uniform(0.0, 500.0))
            spec = DirichletPolySpec(x=x, lam=lam)
            val = primes.smoothed_sum(spec, complex(0.0, t))
            sig = spec.sigma_lam
            acc = 0.0 + 0.0j
            for n in range(2, int(x) + 1):
                lam_n = mangoldt_oracle(n)
                if lam_n:
                    acc += lam_n / math.log(n) * n ** complex(-sig, -t) \
                        * math.log(x / n) / math.log(x)
            assert abs(val - acc) <= 1e-12 * max(1.0, abs(acc))


class TestPrimeSum:
    def test_single_prime(self):
        spec = DirichletPolySpec(x=3.0)
        val = primes.prime_sum(spec, 0.0j)
        expect = 2.0 ** (-spec.sigma_lam) * math.log(3.0 / 2.0) / math.log(3.0)
        assert abs(val - expect) <= 1e-15

    def test_monotone_in_lambda_at_t0(self):
        vals = []
        for lam in (0.4, 0.6, 0.8, 1.0):
            spec = DirichletPolySpec(x=100.0, lam=lam)
            vals.append(primes.prime_sum(spec, 0.0j).real)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_partition_identity(self):
        spec = DirichletPolySpec(x=1000.0, lam=CONSTANTS.lambda0, split_z=31.0)
        s = complex(0.5, 111.0)
        lo = primes.prime_sum(spec, s, p_hi=spec.split_z)
        hi = primes.prime_sum(spec, s, p_lo=spec.split_z)
        full = primes.prime_sum(spec, s)
        assert abs((lo + hi) - full) <= 1e-13 * max(1.0, abs(full))


class TestS1S2:
    def test_empty_tail_when_z_is_x(self):
        spec = DirichletPolySpec(x=50.0, split_z=50.0)
        s1, s2 = s1_s2(spec, 100.0)
        assert s2 == 0.0

    def test_requires_split(self):
        spec = DirichletPolySpec(x=50.0)
        with pytest.raises(ValueError):
            s1_s2(spec, 100.0)

    def test_partition(self):
        spec = DirichletPolySpec(x=400.0, split_z=20.0)
        s1, s2 = s1_s2(spec, 77.7)
        full = primes.prime_sum(spec, complex(0.5, 77.7))
        assert abs((s1 + s2) - full) <= 1e-13

    def test_tail_mean_square_bound(self, cache1000):
        # mean |S2(rho)|^2 over gamma <= 500 against the sum 1/p shape
        spec = DirichletPolySpec(x=400.0, split_z=20.0)
        sub = cache1000.truncated(500.0)
        vals = [abs(s1_s2(spec, gamma)[1]) ** 2 for gamma in sub.gammas.tolist()]
        mean_sq = sum(vals) / len(vals)
        sieve = primes.shared_sieve(400)
        ps = sieve.primes(400)
        shape = float((1.0 / ps[ps > 20.0]).sum())
        fitted = mean_sq / shape
        assert fitted <= 10.0


class TestStandardEstimates:
    def test_mangoldt_over_m_bounded_by_log(self):
        sieve = primes.shared_sieve(10 ** 5)
        table = sieve.mangoldt_table(10 ** 5)
        ns = np.arange(table.size, dtype=np.float64)
        ratios = np.zeros_like(table)
        ratios[1:] = table[1:] / ns[1:]
        acc = np.cumsum(ratios)
        xi = np.arange(2, table.size)
        assert np.all(acc[xi] <= np.log(xi) + 2.0)

    def test_mertens_window(self):
        sieve = primes.shared_sieve(10 ** 6)
        ps = sieve.primes(10 ** 6).astype(np.float64)
        for z, x in [(10.0, 1e6), (100.0, 1e6), (31.0, 1e5)]:
            sel = ps[(ps > z) & (ps <= x)]
            s = float((1.0 / sel).sum())
            assert abs(s - (math.log(math.log(x)) - math.log(math.log(z)))) <= 0.5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DirichletPolySpec(x=1.5)
        with pytest.raises(ValueError):
            DirichletPolySpec(x=100.0, lam=-0.1)
        with pytest.raises(ValueError):
            DirichletPolySpec(x=100.0, split_z=200.0)
        assert not DirichletPolySpec(x=3.0).in_majorant_range
        assert DirichletPolySpec(x=100.0, lam=CONSTANTS.lambda0).in_majorant_range

