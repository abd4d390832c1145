import cmath
import math

import numpy as np
import pytest

from zetamoments import zetafn
from zetamoments.zetafn import (
    CONSTANTS,
    DomainError,
    NearZeroError,
    PoleError,
    chi,
    digamma,
    hardy_z,
    log_deriv,
    log_gamma,
    theta,
    zeta,
    zeta_deriv,
    zeta_prime,
)

from .oracles import bisect_zero, em_zeta_oracle, lanczos_log_gamma

GAMMA_1 = 14.134725141734693


class TestConstants:
    def test_lambda0_fixed_point(self):
        lam = CONSTANTS.lambda0
        assert abs(math.exp(-lam) - lam) < 1e-14

    def test_delta0_reference(self):
        d = CONSTANTS.delta0_reference
        assert abs(math.exp(-d) - d - 0.5 * d * d) < 1e-14
        assert abs(d - 0.4912) < 5e-4


class TestZeta:
    def test_at_two(self):
        r = zeta(2.0 + 0.0j)
        assert abs(r.value - math.pi ** 2 / 6.0) <= max(r.abs_error_estimate, 1e-14)

    def test_at_zero(self):
        r = zeta(0.0 + 0.0j)
        assert abs(r.value - (-0.5)) <= max(r.abs_error_estimate, 1e-14)

    def test_near_first_zero_against_oracle(self):
        s = complex(0.5, 14.0)
        r = zeta(s)
        truth, bound = em_zeta_oracle(s)
        assert abs(r.value) < 0.2           # small: 0.13 below the first zero
        assert abs(r.value - truth) <= r.abs_error_estimate + bound

    def test_error_budget_within_contract(self):
        # committed post: estimate <= 1e-9 for |t| <= 1e4, 1/2 <= sigma <= 2
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = complex(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1e4))
            assert zeta(s).abs_error_estimate <= 1e-9

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            zeta(1.0 + 0.0j)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            zeta(complex(-3.5, 2.0))


class TestZetaPrime:
    def test_finite_difference_consistency(self):
        s = complex(2.0, 3.0)
        h = 1e-5
        fd = (zeta(s + h).value - zeta(s - h).value) / (2.0 * h)
        assert abs(zeta_prime(s).value - fd) <= 1e-6

    def test_trivial_zero_closed_form(self):
        # zeta'(-2) = -zeta(3)/(4 pi^2); zeta(3) from the package at a
        # closed-form-free anchor point
        zeta3 = zeta(3.0 + 0.0j).value.real
        r = zeta_prime(complex(-2.0, 0.0))
        expect = -zeta3 / (4.0 * math.pi ** 2)
        assert abs(r.value - expect) <= 1e-10

    def test_at_first_zero_against_fd_oracle(self):
        s = complex(0.5, GAMMA_1)
        h = 1e-3
        vals = [em_zeta_oracle(s + k * h)[0] for k in (-2, -1, 1, 2)]
        fd = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
        r = zeta_prime(s)
        assert abs(r.value) > 0.1           # nonzero at a simple zero
        assert abs(r.value - fd) <= 1e-8

    def test_second_derivative_against_oracle(self):
        s = complex(0.5, 777.3)
        r = zeta_deriv(s, 2)
        truth, bound = em_zeta_oracle(s, derivative=2)
        assert abs(r.value - truth) <= r.abs_error_estimate + bound


class TestLogDeriv:
    def test_dirichlet_series_at_two(self):
        from zetamoments.primes import shared_sieve
        sieve = shared_sieve(10 ** 6)
        tab = sieve.mangoldt_table(10 ** 6)
        ns = np.arange(tab.size, dtype=np.float64)
        partial = -(tab[2:] / ns[2:] ** 2).sum()
        r = log_deriv(2.0 + 0.0j)
        # geometric tail of sum_{n > 1e6} Lambda(n)/n^2 is ~ 1/1e6
        assert abs(r.value - partial) <= 1.5e-6

    def test_quotient_consistency(self):
        s = complex(4.0, 0.0)
        r = log_deriv(s)
        quotient = zeta_prime(s).value / zeta(s).value
        assert r.value == quotient

    def test_near_zero_raises(self):
        with pytest.raises(NearZeroError):
            # construct a point essentially on the first zero
            root = bisect_zero(
                lambda t: (cmath.exp(1j * theta(t)) * em_zeta_oracle(complex(0.5, t))[0]).real,
                14.1, 14.2, scan_step=1e-3)
            log_deriv(complex(0.5, root))


class TestTheta:
    def test_monotone_on_grid(self):
        ts = np.linspace(10.0, 5000.0, 400)
        vals = [theta(float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_first_gram_point_bracket(self):
        g0 = bisect_zero(theta, 17.0, 18.0, scan_step=1e-3)
        assert 17.0 < g0 < 18.0
        assert abs(theta(g0)) < 1e-9

    def test_rotation_makes_zeta_real(self):
        t = 100.0
        rotated = cmath.exp(1j * theta(t)) * zeta(complex(0.5, t)).value
        assert abs(rotated.imag) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            theta(9.0)


class TestHardyZ:
    def test_modulus_identity(self):
        t = 50.0
        r = hardy_z(t)
        z = zeta(complex(0.5, t))
        assert abs(abs(r.value) - abs(z.value)) == 0.0

    def test_sign_change_at_first_zero(self):
        assert hardy_z(14.0).value.real * hardy_z(14.2).value.real < 0.0

    def test_riemann_siegel_matches_euler_maclaurin(self):
        t = 1000.0
        rs = hardy_z(t, method=zetafn.RIEMANN_SIEGEL)
        em = hardy_z(t, method=zetafn.EULER_MACLAURIN)
        assert abs(rs.value - em.value) <= 1e-6

    def test_route_cross_check_random(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            t = float(rng.uniform(200.0, 9000.0))
            rs = hardy_z(t, method=zetafn.RIEMANN_SIEGEL)
            em = hardy_z(t, method=zetafn.EULER_MACLAURIN)
            assert abs(rs.value - em.value) <= \
                rs.abs_error_estimate + em.abs_error_estimate

    def test_grid_rejects_non_ascending_heights(self):
        # the EM/RS split reads the grid as sorted; unsorted input used to
        # route t = 300 through the EM chunk silently
        with pytest.raises(DomainError):
            zetafn.hardy_z_grid(np.array([300.0, 100.0, 150.0, 250.0]))

    def test_grid_matches_scalar_route(self):
        ts = np.array([100.0, 150.0, 250.0, 300.0])
        grid, _ = zetafn.hardy_z_grid(ts)
        for t, z in zip(ts, grid):
            assert abs(z - hardy_z(float(t)).value.real) <= 1e-9


class TestChi:
    def test_critical_line_modulus_one(self):
        r = chi(complex(0.5, 500.0))
        assert abs(abs(r.value) - 1.0) <= 1e-8

    def test_functional_equation(self):
        s = complex(0.7, 300.0)
        lhs = zeta(s).value
        rhs = chi(s).value * zeta(1.0 - s).value
        assert abs(lhs - rhs) <= 1e-8

    def test_modulus_law(self):
        # |chi(sigma+it)| = (t/2pi)^{1/2-sigma} (1 + O(1/t))
        r = chi(complex(0.6, 100.0))
        expect = (100.0 / (2.0 * math.pi)) ** (-0.1)
        assert abs(abs(r.value) - expect) / expect <= 2.0 / 100.0


class TestLogGamma:
    def test_factorial(self):
        assert abs(log_gamma(5.0 + 0.0j) - math.log(24.0)) <= 1e-12

    def test_half(self):
        assert abs(log_gamma(0.5 + 0.0j) - 0.5 * math.log(math.pi)) <= 1e-12

    def test_against_lanczos_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            s = complex(rng.uniform(0.1, 20.0), rng.uniform(-30.0, 30.0))
            if abs(s) < 1.0:
                continue
            assert abs(log_gamma(s) - lanczos_log_gamma(s)) <= 1e-11

    def test_stirling_digamma_shape(self):
        s = complex(10.0, 10.0)
        dev = abs(digamma(s) - (cmath.log(s) - 0.5 / s))
        assert dev <= 1.0 / abs(s) ** 2

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            log_gamma(complex(-2.0, 0.0))


class TestInvariants:
    def test_functional_equation_residual_grid(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            s = complex(rng.uniform(0.0, 1.0), rng.uniform(10.0, 1000.0))
            lhs = zeta(s)
            c = chi(s)
            rhs = zeta(1.0 - s)
            resid = abs(lhs.value - c.value * rhs.value)
            budget = (lhs.abs_error_estimate
                      + abs(c.value) * rhs.abs_error_estimate
                      + abs(rhs.value) * c.abs_error_estimate)
            assert resid <= budget

    def test_conjugation_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.5, 800.0))
            if abs(s - 1.0) < 1e-3:
                continue
            assert zeta(s.conjugate()).value == zeta(s).value.conjugate()
            assert zeta_prime(s.conjugate()).value == zeta_prime(s).value.conjugate()

    def test_z_modulus_matches_zeta_sampled(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            t = float(rng.uniform(10.0, 150.0))
            r = hardy_z(t)
            z = zeta(complex(0.5, t))
            assert abs(abs(r.value) - abs(z.value)) <= r.abs_error_estimate

    def test_error_estimate_dominates_oracle_1000_points(self):
        # statistical audit: zero failures allowed
        rng = np.random.default_rng(44)
        for i in range(1000):
            if i % 5 == 0:
                s = complex(rng.uniform(-1.0, 0.3), rng.uniform(5.0, 500.0))
            else:
                s = complex(rng.uniform(0.3, 2.0), rng.uniform(0.0, 1000.0))
            if abs(s - 1.0) < 1e-2:
                continue
            r = zeta(s)
            truth, bound = em_zeta_oracle(s)
            assert abs(r.value - truth) <= r.abs_error_estimate + bound, s

    def test_zeta_prime_estimate_dominates(self):
        rng = np.random.default_rng(45)
        for _ in range(250):
            s = complex(rng.uniform(0.35, 2.0), rng.uniform(0.0, 1000.0))
            if abs(s - 1.0) < 1e-2:
                continue
            r = zeta_prime(s)
            truth, bound = em_zeta_oracle(s, derivative=1)
            assert abs(r.value - truth) <= r.abs_error_estimate + bound, s
