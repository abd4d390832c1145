import cmath
import math

import numpy as np
import pytest

from zetamoments import primes, zetafn
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

from . import oracles
from .oracles import bisect_zero, em_boundary_loop, em_zeta_oracle, lanczos_log_gamma

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
        # direct, reflected and high: the quotient of the public values
        for s in (complex(4.0, 0.0), complex(-0.5, 40.0), complex(0.5, 50000.25)):
            r = log_deriv(s)
            quotient = zeta_prime(s).value / zeta(s).value
            assert r.value == quotient, s

    @pytest.mark.parametrize("fn, s", [(log_deriv, complex(0.5, 30.0)),
                                       (log_deriv, complex(-0.5, 40.0)),
                                       (zeta_prime, complex(-0.5, 40.0))])
    def test_one_euler_maclaurin_pass_per_call(self, fn, s, monkeypatch):
        # every order comes from one pass, at s or at 1 - s on the reflection
        calls = []
        real = zetafn._zeta_em_batch

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(zetafn, "_zeta_em_batch", counted)
        fn(s)
        assert len(calls) == 1

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
        # above the cutover hardy_z takes Riemann-Siegel; the EM Z route is
        # the one below it and in the polish
        t = 1000.0
        rs = hardy_z(t)
        em, _, _ = zetafn._em_z(np.array([t]), 0)
        assert rs.method_tag == zetafn.RIEMANN_SIEGEL
        assert abs(rs.value - em[0]) <= 1e-6

    def test_route_cross_check_random(self):
        rng = np.random.default_rng(17)
        ts = rng.uniform(200.0, 9000.0, 120)
        em, em_err, _ = zetafn._em_z(ts, 0)
        for t, z, err in zip(ts, em, em_err):
            rs = hardy_z(float(t))
            assert abs(rs.value - z) <= rs.abs_error_estimate + err

    @pytest.mark.parametrize("lo, hi", [(10.0, 200.0), (200.0, 1e5)])
    def test_within_committed_error_of_mpmath(self, lo, hi):
        # both routes: Euler-Maclaurin below the cutover, Riemann-Siegel above
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(18)
        ts = np.exp(rng.uniform(math.log(lo), math.log(hi), 12))
        with mpmath.workdps(20):
            for t in ts:
                r = hardy_z(float(t))
                assert r.method_tag == (zetafn.EULER_MACLAURIN if t < 200.0
                                        else zetafn.RIEMANN_SIEGEL)
                truth = float(mpmath.siegelz(float(t)))
                assert abs(r.value - truth) <= r.abs_error_estimate, t

    def test_domain(self):
        for t in (9.99, math.nan, math.inf):
            with pytest.raises(DomainError):
                hardy_z(t)

    def test_grid_rejects_non_ascending_heights(self):
        # the EM/RS split reads the grid as sorted; unsorted input used to
        # route t = 300 through the EM chunk silently
        with pytest.raises(DomainError):
            zetafn.hardy_z_grid(np.array([300.0, 100.0, 150.0, 250.0]))

    def test_grid_matches_scalar_route(self):
        ts = np.array([100.0, 150.0, 250.0, 300.0])
        grid, err = zetafn.hardy_z_grid(ts)
        for t, z, e in zip(ts, grid, err):
            r = hardy_z(float(t))
            assert (r.value, r.abs_error_estimate) == (z, e)

    def test_correction_series_degree_drops_nothing(self, monkeypatch):
        # C0..C4, row by row, at the shipped degree against the same series
        # carried to degree 72, on the whole interval |u| <= 1/2; their
        # p-derivatives, which only steer the polish's Newton steps, to 1e-13
        p = np.linspace(0.0, 1.0, 2001)
        shipped = zetafn._rs_correction(p, 1)
        monkeypatch.setattr(zetafn, "_PSI_DEGREE", 72)
        monkeypatch.setattr(zetafn, "_PSI_B", zetafn._psi_series())
        monkeypatch.setattr(zetafn, "_C_TABLE", zetafn._correction_coeff_table())
        for got, full, tol in zip(shipped, zetafn._rs_correction(p, 1), (1e-15, 1e-13)):
            assert got.shape == full.shape == (5, p.size)
            assert np.all(np.abs(got - full).max(axis=1) <= tol)

    def test_riemann_siegel_oracle_at_300_heights(self):
        # seeded heights log-uniform on [200, 1e5]: Gabcke's bound on the
        # remainder after C4 dominates the committed error up to t ~ 1e4,
        # the rounding of the compensated phases above
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(19)
        ts = np.sort(np.exp(rng.uniform(math.log(200.0), math.log(1e5), 300)))
        z, err = zetafn.hardy_z_grid(ts)
        with mpmath.workdps(25):
            truth = np.array([float(mpmath.siegelz(float(t))) for t in ts])
        assert np.all(np.abs(z - truth) <= err)

    @pytest.mark.parametrize("t", [2e3, 1e4, 1e5])
    def test_riemann_siegel_error_meets_the_polish_target(self, t):
        # refine_tol/4 at the default refine_tol, across one anchor step
        ts = np.linspace(t, t + zetafn._RS_ANCHOR, 65)
        assert zetafn.hardy_z(t).abs_error_estimate <= 2.5e-11
        assert zetafn.hardy_z_grid(ts)[1].max() <= 2.5e-11

    def test_rs_z_with_deriv_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20)
        ts = np.sort(np.exp(rng.uniform(math.log(200.0), math.log(1e5), 24)))
        z, dz = zetafn.rs_z_with_deriv(ts)
        assert np.array_equal(z, zetafn.hardy_z_grid(ts)[0])
        with mpmath.workdps(25):
            for t, slope in zip(ts, dz):
                truth = float(mpmath.siegelz(float(t), derivative=1))
                assert abs(slope - truth) <= 1e-9 * max(1.0, abs(truth)), t

    def test_rs_z_with_deriv_domain(self):
        for ts in ([150.0, 300.0], [400.0, 300.0]):
            with pytest.raises(DomainError):
                zetafn.rs_z_with_deriv(np.array(ts))


class TestDoubleDouble:
    """The compensated phases of the Riemann-Siegel route."""

    def test_log_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(21)
        xs = np.r_[np.arange(1.0, 300.0), np.exp(rng.uniform(0.0, math.log(1e9), 300))]
        hi, lo = zetafn._log_dd(xs)
        with mpmath.workdps(40):
            for x, h, l in zip(xs, hi, lo):
                exact = mpmath.log(mpmath.mpf(float(x)))
                assert abs(mpmath.mpf(float(h)) + float(l) - exact) <= 1e-21 * max(1.0, exact), x
        assert np.all(np.abs(lo) <= 0.5 * np.spacing(np.maximum(hi, 1e-300)))

    def test_theta_growth_mod_2pi_against_mpmath(self):
        # (t/2)(log(t/2pi) - 1) reaches 4.8e5 at t = 1e5; reduced mod 2 pi
        # it keeps 1e-15
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(22)
        ts = np.exp(rng.uniform(math.log(200.0), math.log(1e6), 200))
        got = zetafn._theta_growth_mod_2pi(ts, *zetafn._log_dd(ts))
        with mpmath.workdps(40):
            for t, g in zip(ts, got):
                t = mpmath.mpf(float(t))
                exact = t / 2 * (mpmath.log(t / (2 * mpmath.pi)) - 1)
                diff = g - exact
                assert abs(diff - 2 * mpmath.pi * mpmath.nint(diff / (2 * mpmath.pi))) <= 1e-15
                assert abs(g) <= math.pi * (1.0 + 1e-15)


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

    def test_error_estimate_dominates_mpmath(self):
        # zero failures allowed; the first point once exceeded its estimate,
        # and so did 34 of the 300 low heights left of sigma = 0.3 (by up to
        # 3.9x) and 40 of the 290 right of it (by up to 3.2x), where
        # log_gamma recurs up to |1 - s| = 32.  The right-hand points keep
        # 0.05 away from the poles of Gamma(1 - s) at s = 1, 2, 3.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(46)
        points = [complex(-0.07744590465028889, 2180.8910187232514)]
        points += [complex(sigma, t) for sigma, t in
                   zip(rng.uniform(-1.0, 2.0, 300), 10.0 ** rng.uniform(1.0, 5.0, 300))]
        points += [complex(sigma, t) for sigma, t in
                   zip(rng.uniform(-3.0, 0.3, 300), 10.0 ** rng.uniform(-3.0, 1.5, 300))]
        right = [complex(sigma, t) for sigma, t in
                 zip(rng.uniform(0.3, 3.4, 300), 10.0 ** rng.uniform(-3.0, 1.5, 300))]
        points += [s for s in right if min(abs(s - n) for n in (1, 2, 3)) >= 0.05]
        with mpmath.workdps(30):
            for s in points:
                m = mpmath.mpc(s.real, s.imag)
                truth = complex(mpmath.power(2, m) * mpmath.power(mpmath.pi, m - 1)
                                * mpmath.sin(mpmath.pi * m / 2) * mpmath.gamma(1 - m))
                r = chi(s)
                assert abs(r.value - truth) <= r.abs_error_estimate, s


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


@pytest.fixture(scope="module")
def left_of_strip():
    """(s, (zeta(s), zeta'(s))) by mpmath at 20 digits: three named points,
    then 2,000 seeded ones with sigma uniform on [-3, 0.3) and t
    log-uniform on [1e-3, 200]."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    u = rng.uniform(size=(2000, 2))
    points = [complex(-2.410407411341069, 0.011072748493650517),
              complex(-2.4203539849694473, 0.001388247055830527),
              complex(-2.847509056769355, 0.0010411055504961461)]
    points += [complex(-3.0 + 3.3 * a, math.exp(math.log(1e-3) + math.log(2e5) * b))
               for a, b in u]
    with mpmath.workdps(20):
        return [(s, tuple(complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), derivative=j))
                          for j in (0, 1))) for s in points]


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

    def test_estimates_dominate_mpmath_left_of_the_strip(self, left_of_strip):
        # zero failures, on both routes; the second and third points once
        # missed on Euler-Maclaurin (1.51x) and on the reflection (1.30x)
        for s, truth in left_of_strip:
            for order, fn in ((0, zeta), (1, zeta_prime)):
                r = fn(s)
                assert abs(r.value - truth[order]) <= r.abs_error_estimate, (s, order)

    def test_log_deriv_dominates_mpmath_near_the_origin(self, left_of_strip):
        # |s| <= 2.5 left of the strip, where zeta once came from
        # Euler-Maclaurin and zeta' from the reflection: the first point
        # missed by 1.30x
        points = [(s, truth) for s, truth in left_of_strip if abs(s) <= 2.5]
        assert len(points) > 700
        for s, (z, zp) in points:
            r = log_deriv(s)
            assert abs(r.value - zp / z) <= r.abs_error_estimate, s
            assert r.method_tag == zetafn.REFLECTION

    def test_zeta_prime_estimate_dominates(self):
        rng = np.random.default_rng(45)
        for _ in range(250):
            s = complex(rng.uniform(0.35, 2.0), rng.uniform(0.0, 1000.0))
            if abs(s - 1.0) < 1e-2:
                continue
            r = zeta_prime(s)
            truth, bound = em_zeta_oracle(s, derivative=1)
            assert abs(r.value - truth) <= r.abs_error_estimate + bound, s


class TestMainSumKernel:
    """k^{-it} from the primes, and the one-pass boundary terms."""

    def test_prime_products_match_direct_exponential(self):
        # each value is a product of up to 15 prime values, each off by the
        # rounding of t log p; bound 4 eps (1 + t log k), measured 1.5
        rng = np.random.default_rng(61)
        ts = np.sort(np.exp(rng.uniform(math.log(10.0), math.log(1e5), 12)))
        n = 64000
        logk = np.log(np.arange(1, n + 1, dtype=np.float64))
        phase = np.multiply.outer(logk, ts)
        err = np.abs(zetafn._n_pow_it(ts, n) - np.exp(-1j * phase))
        assert np.all(err <= 4.0 * np.finfo(float).eps * (1.0 + phase))

    def test_rows_are_a_prefix(self, monkeypatch):
        # from a small shared sieve: the first calls outgrow it, the last
        # grows it again
        monkeypatch.setattr(primes, "_SHARED", primes.SieveTable(16))
        ts = np.array([14.1, 1000.5, 9876.25, 54321.0])
        small = {j: zetafn._n_pow_it(ts, j) for j in (1, 2, 17, 1000, 4096)}
        full = zetafn._n_pow_it(ts, 7000)
        assert primes._SHARED.limit >= 7000
        for j, rows in small.items():
            assert np.array_equal(full[:j], rows)
        assert np.array_equal(full[:, 1:2], zetafn._n_pow_it(ts[1:2], 7000))

    @pytest.mark.parametrize("max_order", [0, 1, 2])
    def test_boundary_matches_loop(self, max_order):
        rng = np.random.default_rng(62 + max_order)
        t = np.exp(rng.uniform(0.0, math.log(1e5), 64))
        s = rng.uniform(0.25, 2.0, 64) + 1j * t
        per_point = zetafn.em_truncation(t).astype(np.float64)
        for n in (zetafn.em_truncation(float(t.max())), per_point):
            terms, bound = zetafn._em_boundary(s, n, max_order)
            ref, ref_bound = em_boundary_loop(s, n, max_order, zetafn._EM_TERMS)
            assert len(terms) == max_order + 1
            for got, want in zip(terms, ref):
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
            # the loop's N^(-sigma-49) rounds by up to |sigma+49| log N ulps
            # (3.7e-14 against mpmath; the scaled product stays within 4.2e-15)
            tol = 8 * (2 * zetafn._EM_TERMS + 1) * np.finfo(float).eps
            assert np.all(np.abs(bound - ref_bound) <= tol * ref_bound)

    def test_bernoulli_table_matches_oracle(self):
        assert len(zetafn._B2K) == zetafn._EM_TERMS + 1
        assert [float(b) for b in zetafn._B2K] == oracles._B2K

    def test_remainder_bound_is_small_against_rounding_allowance(self):
        # the committed remainder after 24 corrections at em_truncation(t)
        # stays within 1% of the main sum's allowance 2.5e-15 t log N
        ts = np.exp(np.linspace(math.log(14.0), math.log(1e5), 4001))
        ts = np.sort(np.r_[ts, np.pi * np.arange(5, 60) * (1.0 - 1e-12)])
        n = np.array([zetafn.em_truncation(t) for t in ts], dtype=np.float64)
        for sigma in np.linspace(0.25, 4.0, 16):
            _, bound = zetafn._em_boundary(sigma + 1j * ts, n, 0)
            assert np.all(bound <= 0.01 * 2.5e-15 * ts * np.log(n)), sigma

    @pytest.mark.parametrize("max_order", [0, 1, 2])
    def test_boundary_finite_at_extreme_heights(self, max_order):
        ts = np.array([1e5, 2e6, 1e7])
        n = np.array([zetafn.em_truncation(t) for t in ts], dtype=np.float64)
        terms, bound = zetafn._em_boundary(0.5 + 1j * ts, n, max_order)
        assert all(np.all(np.isfinite(x)) for x in terms)
        assert np.all(np.isfinite(bound)) and np.all(bound > 0.0)

    def test_buckets_follow_scalar_truncation(self):
        # heights at and next to multiples of pi, where ceil(t/pi) steps
        k = np.r_[np.arange(1, 4000), np.arange(4000, 32000, 97)].astype(np.float64)
        ts = np.sort(np.r_[k * np.pi, np.nextafter(k * np.pi, 0.0),
                           np.nextafter(k * np.pi, np.inf), 0.0, 9.5])
        n = zetafn.em_truncation(ts)
        assert n.tolist() == [zetafn.em_truncation(float(t)) for t in ts]
        exact = np.maximum(30, np.ceil(ts / np.pi))
        assert np.all(n >= exact) and np.all(16 * n < 17 * exact)
        assert np.array_equal(n[exact < 32], exact[exact < 32])
        assert np.all(np.diff(n) >= 0)
        runs = zetafn._bucket_runs(ts)
        assert [i for sl, _ in runs for i in range(sl.start, sl.stop)] == list(range(ts.size))
        for sl, m in runs:
            assert sl.stop - sl.start <= 128 and set(n[sl].tolist()) == {m}

    def test_high_heights_within_committed_error_of_mpmath(self):
        # heights in [1e4, 1e5] take main sums up to N = 32,768, which is
        # ceil(1e5/pi) = 31,831 rounded up to m 2^e; their composites carry
        # up to 14 prime factors
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(63)
        ts = np.sort(np.exp(rng.uniform(math.log(1e4), math.log(1e5), 6)))
        z, dz = zetafn.em_z_with_deriv(ts)
        err0, err1 = (zetafn.zeta_at_heights(ts, 0.0, order)[1] for order in (0, 1))
        with mpmath.workdps(20):
            for i, t in enumerate(ts):
                s = mpmath.mpc(0.5, t)
                for fn, order in ((zeta, 0), (zeta_prime, 1)):
                    r = fn(complex(0.5, t))
                    truth = complex(mpmath.zeta(s, derivative=order))
                    assert abs(r.value - truth) <= r.abs_error_estimate, (t, order)
                # Z and dZ/dt share zeta_at_heights' point and truncation
                assert abs(z[i] - float(mpmath.siegelz(t))) <= err0[i], t
                dz_bound = zetafn.theta_deriv(float(t)) * err0[i] + err1[i]
                assert abs(dz[i] - float(mpmath.siegelz(t, derivative=1))) <= dz_bound, t
