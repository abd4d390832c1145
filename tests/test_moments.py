import math

import numpy as np
import pytest

from zetamoments import moments, zetafn
from zetamoments.moments import (
    GridError,
    cauchy_transfer_audit,
    cauchy_transfer_report,
    compute_Jk,
    continuous_moment,
    dyadic_reconstruction,
    histogram_from_values,
    large_value_histogram,
    majorant_audit,
    shifted_moment,
)
from zetamoments.primes import DirichletPolySpec
from zetamoments.zetafn import CONSTANTS, chi, hardy_z


class TestComputeJk:
    def test_zeroth_derivative_vanishes(self, cache1000):
        rep = compute_Jk(cache1000, 1.0, 0)
        assert rep.normalized <= 1e-18

    def test_compensated_two_pass_agreement(self, cache1000):
        rep = compute_Jk(cache1000, 2.0, 1)
        vals = moments.values_at_zeros(cache1000, 0.0, 1)
        fsum_total = math.fsum(float(a) for a in np.abs(vals) ** 4)
        assert abs(rep.raw_sum - fsum_total) <= 1e-9 * fsum_total

    def test_monotone_in_t(self, cache1000):
        raw = [compute_Jk(cache1000.truncated(t), 1.0, 1).raw_sum
               for t in (250.0, 500.0, 1000.0)]
        assert raw[0] <= raw[1] <= raw[2]

    def test_validation(self, cache1000):
        with pytest.raises(ValueError):
            compute_Jk(cache1000, -1.0, 1)
        with pytest.raises(ValueError):
            compute_Jk(cache1000, 1.0, 3)


class TestShiftedMoment:
    def test_zero_shift_vanishes(self, cache1000):
        for k in (1.0, 2.0):
            assert shifted_moment(cache1000, k, 0.0).normalized <= 1e-18

    def test_real_shift_symmetry_via_chi(self, cache1000):
        # |zeta(rho+alpha)| = |chi(rho+alpha)| |zeta(rho-conj(alpha))|, so the
        # negative-shift moment is bounded by C^{2k} times the positive one
        lt = math.log(cache1000.t_max)
        for k in (1.0, 2.0):
            neg = shifted_moment(cache1000, k, -1.0 / lt).raw_sum
            pos = shifted_moment(cache1000, k, 1.0 / lt).raw_sum
            c_fit = max(abs(chi(complex(0.5 - 1.0 / lt, g)).value)
                        for g in cache1000.gammas[::37])
            assert neg <= (c_fit ** (2.0 * k)) * pos * (1.0 + 1e-6)

    def test_imaginary_shift_against_hardy_z(self, cache1000):
        lt = math.log(cache1000.t_max)
        rep = shifted_moment(cache1000, 1.0, complex(0.0, 1.0 / lt))
        direct = math.fsum(
            abs(hardy_z(gamma + 1.0 / lt).value) ** 2
            for gamma in cache1000.gammas.tolist())
        assert abs(rep.raw_sum - direct) <= 1e-8 * direct

    def test_alpha_range_validation(self, cache1000):
        with pytest.raises(ValueError):
            shifted_moment(cache1000, 1.0, 0.5)      # Re alpha > 1/log T
        with pytest.raises(ValueError):
            shifted_moment(cache1000, 1.0, complex(0.0, 1.5))

    @pytest.mark.parametrize("alpha", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_non_finite_shift_rejected(self, cache1000, alpha):
        with pytest.raises(ValueError, match="outside"):
            shifted_moment(cache1000, 1.0, alpha)
        with pytest.raises(zetafn.DomainError, match="non-finite"):
            zetafn.zeta_at_heights(cache1000.gammas, alpha)


class TestLargeValueHistogram:
    def test_counts_nonincreasing(self, cache1000):
        hist = large_value_histogram(cache1000, 1.0, 1.0 / math.log(1000.0))
        assert all(b <= a for a, b in zip(hist.counts, hist.counts[1:]))

    def test_count_zero_beyond_max(self, cache1000):
        hist = large_value_histogram(cache1000, 1.0, 1.0 / math.log(1000.0),
                                     v_grid=[5.0, 6.0])
        assert hist.counts == (0, 0)

    def test_vacuity_threshold(self, cache1000):
        alpha = 1.0 / math.log(1000.0)
        hist = large_value_histogram(cache1000, 1.0, alpha,
                                     v_grid=[0.25, 0.5, 1.0, 2.0, 3.0])
        plain = hist.config.vacuity_threshold_plain
        for v, c in zip(hist.config.v_grid, hist.counts):
            if v >= plain:
                assert c == 0

    def test_config_identity(self, cache1000):
        hist = large_value_histogram(cache1000, 1.0, 0.001)
        for v, a, v1 in zip(hist.config.v_grid, hist.config.a_values,
                            hist.config.v1_values):
            assert v1 + 9.0 * v / (10.0 * a) == pytest.approx(v, rel=1e-12)
        assert all(x <= math.sqrt(cache1000.t_max) + 1e-9
                   for x in hist.config.x_values)

    def test_grid_validation(self, cache1000):
        with pytest.raises(GridError):
            large_value_histogram(cache1000, 1.0, 0.001, v_grid=[3.0, 2.0])


class TestDyadicReconstruction:
    def test_single_value_example(self):
        hist = histogram_from_values([3.5], 10000.0)
        recon = dyadic_reconstruction(hist, 1.0)
        direct = math.exp(7.0)
        assert recon == pytest.approx(math.exp(8.0), rel=1e-12)
        assert direct <= recon <= math.exp(2.0) * direct

    def test_all_below_three_collapses(self):
        hist = histogram_from_values([0.3, 1.1, 2.2], 10000.0)
        recon = dyadic_reconstruction(hist, 1.0)
        assert recon == pytest.approx(3.0 * math.exp(6.0), rel=1e-12)

    def test_sandwich_at_t1000(self, cache1000):
        lt = math.log(1000.0)
        for k in (1.0, 2.0):
            for alpha in (1.0 / lt, complex(0.0, 1.0 / lt)):
                hist = large_value_histogram(cache1000, k, alpha)
                recon = dyadic_reconstruction(hist, k)
                direct = shifted_moment(cache1000, k, alpha).raw_sum
                upper = math.exp(2.0 * k) * direct \
                    + math.exp(6.0 * k) * hist.n_zeros
                assert direct <= recon <= upper

    def test_fine_grid_consistency(self, cache1000):
        # decrement integration on a fine grid approaches the direct moment
        # within the one-bin factor e^{2k dV}
        k = 1.0
        alpha = complex(0.0, 1.0 / math.log(1000.0))
        vals = np.abs(moments.values_at_zeros(cache1000, alpha, 0))
        logs = np.log(vals)
        dv = 0.25
        grid = np.arange(math.floor(logs.min()) - 1.0,
                         math.ceil(logs.max()) + dv, dv)
        counts = [(logs >= v).sum() for v in grid]
        recon = sum(math.exp(2.0 * k * v) * (c_prev - c)
                    for v, c_prev, c in zip(grid[1:], counts[:-1], counts[1:]))
        recon += math.exp(2.0 * k * grid[0]) * (logs.size - counts[0])
        direct = float((vals ** 2).sum())
        assert direct <= recon * math.exp(2.0 * k * dv) * (1.0 + 1e-12)
        assert recon <= direct * math.exp(2.0 * k * dv) * (1.0 + 1e-12)

    def test_grid_errors(self, cache1000):
        hist = large_value_histogram(cache1000, 1.0, 0.001,
                                     v_grid=[3.0, 3.5, 4.0])
        with pytest.raises(GridError):
            dyadic_reconstruction(hist, 1.0)


class TestCauchyTransfer:
    def test_prefactor_quarters_when_radius_doubles(self, cache1000):
        lt = math.log(1000.0)
        rep_half = cauchy_transfer_report(cache1000, 1, 1, 0.5 / lt)
        rep_full = cauchy_transfer_report(cache1000, 1, 1, 1.0 / lt)
        assert rep_half.prefactor == pytest.approx(4.0 * rep_full.prefactor)

    def test_slack_at_t1000(self, cache1000):
        lt = math.log(1000.0)
        assert cauchy_transfer_audit(cache1000, 1, 1, 1.0 / lt) >= 0.95
        assert cauchy_transfer_audit(cache1000, 1, 2, 1.0 / lt) >= 0.95

    def test_reports_every_shift_it_evaluates(self, cache1000, monkeypatch):
        radius = 1.0 / math.log(1000.0)
        calls = []
        values = zetafn.ZeroShiftEvaluator.values

        def counted(self, alpha, order=0):
            if order == 0:
                calls.append(alpha)
            return values(self, alpha, order)

        monkeypatch.setattr(zetafn.ZeroShiftEvaluator, "values", counted)
        rep = cauchy_transfer_report(cache1000, 1, 1, radius)
        shifts = np.concatenate([np.ravel(alpha) for alpha in calls])
        assert len(calls) == 8
        assert rep.n_samples == shifts.size == 128
        assert np.array_equal(shifts, moments._disk_samples(radius).ravel())

    def test_validation(self, cache1000):
        with pytest.raises(ValueError):
            cauchy_transfer_audit(cache1000, 0, 1, 0.1)
        with pytest.raises(ValueError):
            cauchy_transfer_audit(cache1000, 1, 1, 0.5)
        for k in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                cauchy_transfer_audit(cache1000, k, 1, 0.1)


class TestContinuousMoment:
    def test_unit_integrand_limit(self):
        val = continuous_moment(1e-9, 200.0, 0.01)
        assert val == pytest.approx(1.0 - 1.0 / 200.0, abs=1e-4)

    def test_second_moment_scale_t5000(self):
        mine = continuous_moment(1.0, 5000.0, 0.01)
        refined = continuous_moment(1.0, 5000.0, 0.0025)
        assert abs(mine - refined) <= 1e-5 * refined
        assert abs(mine / math.log(5000.0) - 1.0) <= 0.2

    def test_step_halving_stability(self):
        a = continuous_moment(1.0, 1000.0, 0.01)
        b = continuous_moment(1.0, 1000.0, 0.005)
        assert abs(a - b) / b < 0.005

    def test_tuple_of_k_matches_single_calls(self):
        both = continuous_moment((1.0, 2.0), 300.0, 0.01)
        assert both == (continuous_moment(1.0, 300.0, 0.01),
                        continuous_moment(2.0, 300.0, 0.01))

    def test_validation(self):
        for step in (0.02, 0.0, -0.01, math.nan, math.inf):
            with pytest.raises(ValueError):
                continuous_moment(1.0, 1000.0, step)
        with pytest.raises(ValueError):
            continuous_moment(0.0, 1000.0, 0.01)
        with pytest.raises(ValueError):
            continuous_moment((1.0, -1.0), 1000.0, 0.01)


class TestLogPowerRatio:
    def test_matches_the_power_where_it_is_finite(self):
        for value, t_max, exponent in ((3.7, 1000.0, 4.0), (2.5e-3, 1e5, 15.0),
                                       (1e200, 50.0, 80.0), (0.8, 2.0, 3.0)):
            assert moments.log_power_ratio(value, t_max, exponent) == \
                pytest.approx(value / math.log(t_max) ** exponent, rel=1e-13)

    def test_finite_where_the_power_overflows(self):
        # (log 1000)^399 = e^771 overflows a double; the ratio is e^-80.4
        mpmath = pytest.importorskip("mpmath")
        with pytest.raises(OverflowError):
            math.log(1000.0) ** 399.0
        with mpmath.workdps(30):
            truth = float(mpmath.mpf(1e300) / mpmath.log(1000) ** 399)
        assert moments.log_power_ratio(1e300, 1000.0, 399.0) == pytest.approx(truth, rel=1e-12)
        assert moments.log_power_ratio(0.0, 1000.0, 399.0) == 0.0

    def test_overflowing_ratio_raises(self):
        # log log 2 < 0, so the ratio grows with the exponent
        with pytest.raises(ValueError, match="overflows a double"):
            moments.log_power_ratio(1.0, 2.0, 2500.0)


class TestMajorantAudit:
    def test_log_plus_definition(self):
        assert moments.log_plus(0.5) == 0.0
        assert moments.log_plus(2.0) == math.log(2.0)

    def test_small_zeta_rows_recorded(self, cache1000):
        # points where |zeta| < 1 give LHS = 0; rows recorded, not asserted
        spec = DirichletPolySpec(x=math.log(1003.0) ** 2, lam=CONSTANTS.lambda0)
        table = majorant_audit(spec, [(0.5, 14.1), (0.5, 1000.0)])
        active = [s for s in table.samples if not s.skipped]
        assert len(active) == 2
        assert all(s.lhs >= 0.0 for s in active)

    def test_fitted_constant_finite_at_t1000(self, cache1000):
        spec = DirichletPolySpec(x=math.log(1003.0) ** 2, lam=CONSTANTS.lambda0)
        rng = np.random.default_rng(11)
        pts = [(0.5 + (spec.sigma_lam - 0.5) * rng.random(),
                900.0 + 100.0 * rng.random()) for _ in range(40)]
        table = majorant_audit(spec, pts)
        assert math.isfinite(table.fitted_constant_lambda)
        assert math.isfinite(table.fitted_constant_prime)
        assert table.fitted_constant_lambda <= 5.0
        assert table.fitted_constant_prime <= 5.0

    def test_out_of_range_samples_skipped(self):
        spec = DirichletPolySpec(x=100.0, lam=CONSTANTS.lambda0)
        table = majorant_audit(spec, [(0.2, 100.0), (0.9, 100.0)])
        assert all(s.skipped for s in table.samples)
        assert table.samples[0].reason

    def test_prefactor_threshold_reproduced(self):
        # (1 + lambda0)/4 < 2/5, the numeric gate behind the vacuity bound
        val = (1.0 + CONSTANTS.lambda0) / 4.0
        assert val == pytest.approx(0.3918, abs=1e-4)
        assert val < 0.4


class TestEvaluatorConsistency:
    def test_taylor_evaluator_matches_direct(self, cache1000):
        ev = moments.shift_evaluator(cache1000)
        lt = math.log(1000.0)
        for alpha in (1.0 / lt, -1.0 / lt, complex(0.0, 1.0 / lt),
                      complex(0.07, -0.09)):
            direct = moments.values_at_zeros(cache1000, alpha, 0)
            fast = ev.values(alpha)
            scale = np.abs(direct).max()
            assert np.abs(direct - fast).max() <= 1e-10 * max(1.0, scale)
        shifts = moments._disk_samples(1.0 / lt).ravel()
        for order in (0, 2):
            columns = ev.values(shifts, order)
            assert columns.shape == (len(cache1000), shifts.size)
            for alpha, column in zip(shifts, columns.T):
                single = ev.values(alpha, order)
                assert np.abs(column - single).max() <= 1e-14 * np.abs(single).max()
        beyond = shifts.copy()
        beyond[100] = 1.01 / lt
        with pytest.raises(zetafn.DomainError):
            ev.values(beyond)

    def test_table_matches_em_route(self, cache1000):
        gammas = cache1000.gammas
        lt = math.log(1000.0)
        cases = [(0.0, ell) for ell in (0, 1, 2)] + [
            (alpha, 0) for alpha in (1.0 / lt, -1.0 / lt, complex(0.0, 1.0 / lt),
                                     complex(0.07, -0.09))]
        for alpha, ell in cases:
            direct, _ = zetafn.zeta_at_heights(gammas, alpha, ell)
            table = moments.values_at_zeros(cache1000, alpha, ell)
            scale = np.abs(direct).max()
            assert np.abs(direct - table).max() <= 1e-10 * max(1.0, scale)

    def test_shift_beyond_table_radius_takes_em_route(self, cache1000):
        direct, _ = zetafn.zeta_at_heights(cache1000.gammas, 0.5j, 0)
        assert np.array_equal(moments.values_at_zeros(cache1000, 0.5j, 0), direct)
        with pytest.raises(zetafn.DomainError):
            moments.shift_evaluator(cache1000).values(0.5j)


@pytest.mark.parametrize("fixture", ["cache1000", "cache10k"])
def test_table_within_committed_error_of_mpmath(fixture, request):
    """Independent check of the shift table: at 12 zeros per height, each
    value lies within the error zeta_at_heights commits at the same point."""
    mpmath = pytest.importorskip("mpmath")
    cache = request.getfixturevalue(fixture)
    gammas = cache.gammas
    idx = np.linspace(0, gammas.size - 1, 12).astype(int)
    lt = math.log(cache.t_max)
    cases = [(0.0, 1), (0.0, 2), (1.0 / lt, 0), (-1.0 / lt, 0), (1j / lt, 0)]
    with mpmath.workdps(20):
        for alpha, ell in cases:
            alpha = complex(alpha)
            table = moments.values_at_zeros(cache, alpha, ell)[idx]
            _, committed = zetafn.zeta_at_heights(gammas[idx], alpha, ell)
            for g, value, err in zip(gammas[idx], table, committed):
                s = mpmath.mpc(mpmath.mpf(0.5) + alpha.real,
                               mpmath.mpf(g) + alpha.imag)
                truth = complex(mpmath.zeta(s, derivative=ell))
                assert abs(value - truth) <= err, (g, alpha, ell)
