import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from zetamoments import moments, zetafn
from zetamoments.moments import (
    GridError,
    cauchy_transfer_report,
    compute_Jk,
    continuous_moment,
    dyadic_reconstruction,
    large_value_histogram,
    majorant_audit,
    shifted_moment,
)
from zetamoments.primes import DirichletPolySpec
from zetamoments.zetafn import CONSTANTS, chi, hardy_z

from .oracles import (cauchy_transfer_audit, continuous_moment_one_shot, em_boundary_sampled,
                      histogram_from_values, rs_correction_complex)


def test_each_cache_evaluates_each_column_once(cache1000, monkeypatch):
    cache = cache1000.truncated(1000.0)     # the same zeros, no columns yet
    radius = 1.0 / math.log(1000.0)
    column = np.abs(cache.shift_table.values(0.0, 1))
    calls = []
    row_blocks = zetafn.ZeroShiftEvaluator._row_blocks     # every product of the table

    def counted(self, blocks, alpha, order=0):
        calls.append((np.size(alpha), order))
        return row_blocks(self, blocks, alpha, order)

    monkeypatch.setattr(zetafn.ZeroShiftEvaluator, "_row_blocks", counted)
    list(cauchy_transfer_report(cache, (1, 2), (1, 2), radius))
    # the disk in one product of 128 shifts; zeta' and zeta'' once each
    assert sorted(calls) == [(1, 1), (1, 2), (128, 0)]
    for k in (1.0, 2.0):
        assert compute_Jk(cache, k, 1).raw_sum == float(np.sum(column ** (2.0 * k)))
        for alpha in (radius, -radius, 1j * radius):
            shifted_moment(cache, k, alpha)
        large_value_histogram(cache, k, radius)
    assert sorted(calls) == [(1, 0)] * 3 + [(1, 1), (1, 2), (128, 0)]
    # a truncated cache evaluates its own columns and leaves the original's
    part = cache.truncated(500.0)
    compute_Jk(part, 1.0, 1)
    compute_Jk(cache, 1.0, 1)
    assert calls.count((1, 1)) == 2
    assert part.columns[(0j, 1)].size == len(part) < len(cache)
    assert np.array_equal(cache.columns[(0j, 1)], column)


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

    def test_overflow_raises_value_error_naming_k(self, cache1000):
        # e^{6k} overflows a double beyond k = 118.3
        hist = large_value_histogram(cache1000, 200.0, 1.0 / math.log(1000.0))
        with pytest.raises(ValueError, match="k = 200"):
            dyadic_reconstruction(hist, 200.0)

    def test_empty_bins_add_nothing(self, cache1000):
        # at k = 7 the grid runs to V = 54, where e^{2k V} overflows a double;
        # every zero lies below 3, so only the bottom term counts
        hist = large_value_histogram(cache1000, 7.0, 1.0 / math.log(1000.0))
        assert hist.counts[0] == 0
        assert dyadic_reconstruction(hist, 7.0) == math.exp(42.0) * len(cache1000)

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
        assert math.exp(rep_half.log_prefactor - rep_full.log_prefactor) == pytest.approx(4.0)

    @pytest.mark.parametrize("k, ell", [(1, 1), (2, 2), (80, 2), (150, 1)])
    def test_slack_against_big_floats(self, cache1000, k, ell):
        # (ell!/r^ell)^(2k) overflows a double at k = 80, ell = 2, and the
        # right-hand side at k = 150, ell = 1; the slack stays finite
        radius = 1.0 / math.log(1000.0)
        rep = cauchy_transfer_report(cache1000, k, ell, radius)
        table = cache1000.shift_table
        total = max(mpmath.fsum(mpmath.mpf(float(v)) ** (2 * k)
                                for v in np.abs(table.values(alpha)))
                    for alpha in moments._disk_samples(radius).ravel()[::8])
        lhs = mpmath.fsum(mpmath.mpf(float(v)) ** (2 * k)
                          for v in np.abs(table.values(0.0, ell)))
        prefactor = (mpmath.factorial(ell) / mpmath.mpf(radius) ** ell) ** (2 * k)
        assert rep.lhs == pytest.approx(float(lhs), rel=1e-12)
        assert math.isfinite(rep.slack)
        # a sixteenth of the shifts bounds the sampled maximum from below
        assert rep.slack >= float(prefactor * total / lhs) * (1.0 - 1e-12)

    def test_slack_overflow_raises_value_error(self, cache1000):
        # the sums stay finite, but the slack grows like radius^(-4k) at ell = 3
        with pytest.raises(ValueError, match="slack overflows"):
            cauchy_transfer_report(cache1000, 1, 3, 1e-100)

    def test_slack_at_t1000(self, cache1000):
        lt = math.log(1000.0)
        assert cauchy_transfer_audit(cache1000, 1, 1, 1.0 / lt) >= 0.95
        assert cauchy_transfer_audit(cache1000, 1, 2, 1.0 / lt) >= 0.95

    def test_reports_every_shift_it_evaluates(self, cache1000, monkeypatch):
        radius = 1.0 / math.log(1000.0)
        calls = []
        row_blocks = zetafn.ZeroShiftEvaluator._row_blocks

        def counted(self, blocks, alpha, order=0):
            if order == 0:
                calls.append(alpha)
            return row_blocks(self, blocks, alpha, order)

        monkeypatch.setattr(zetafn.ZeroShiftEvaluator, "_row_blocks", counted)
        rep = cauchy_transfer_report(cache1000, 1, 1, radius)
        shifts = np.concatenate([np.ravel(alpha) for alpha in calls])
        assert len(calls) == 1
        assert rep.n_samples == shifts.size == 128
        assert np.array_equal(shifts, moments._disk_samples(radius).ravel())

    def test_batched_equals_single_calls(self, cache1000):
        radius = 1.0 / math.log(1000.0)
        batched = list(cauchy_transfer_report(cache1000, (1, 2), (1, 2), radius))
        single = [cauchy_transfer_report(cache1000, k, ell, radius)
                  for k in (1, 2) for ell in (1, 2)]
        assert batched == single
        assert [(r.k, r.ell) for r in batched] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_one_pass_for_every_k_and_ell(self, cache1000, monkeypatch):
        radius = 1.0 / math.log(1000.0)
        calls = []
        row_blocks = zetafn.ZeroShiftEvaluator._row_blocks

        def counted(self, blocks, alpha, order=0):
            calls.append(np.size(alpha))
            return row_blocks(self, blocks, alpha, order)

        monkeypatch.setattr(zetafn.ZeroShiftEvaluator, "_row_blocks", counted)
        reports = cauchy_transfer_report(cache1000, (1, 2, 3), (1, 2), radius)
        assert calls.count(128) == 1
        assert len(list(reports)) == 6
        assert calls.count(128) == 1

    def test_batched_failure_keeps_the_reports_before_it(self, cache1000):
        # the sums of |zeta'|^400 overflow a double at k = 200
        reports = cauchy_transfer_report(cache1000, (1, 200), (1, 2),
                                         1.0 / math.log(1000.0))
        first, second = next(reports), next(reports)
        assert [(first.k, first.ell), (second.k, second.ell)] == [(1, 1), (1, 2)]
        with pytest.raises(ValueError, match="k = 200"):
            next(reports)

    @pytest.mark.parametrize("block", [100, 162])
    def test_row_blocks_keep_the_sums_bit_for_bit(self, cache1000, monkeypatch, block):
        # 649 zeros: 6 blocks of 128 rows by default, 7 of 100, or 4 of 162
        # with the last row joining the block before it
        radius = 1.0 / math.log(1000.0)
        table = cache1000.shift_table
        # the sums over the whole (649, 128) product
        whole = np.abs(table.values(moments._disk_samples(radius)))
        expected = [np.sum(whole ** (2.0 * kk), axis=0) for kk in (1, 2)]
        totals, sizes = [], []
        reports = moments._cauchy_reports
        row_blocks = zetafn.ZeroShiftEvaluator._row_blocks

        def kept(cache, ks, ells, radius, samples, sums):
            totals.append(sums.copy())
            return reports(cache, ks, ells, radius, samples, sums)

        def counted(self, blocks, alpha, order=0):
            if np.size(alpha) == 128:
                sizes.append([sl.stop - sl.start for sl in blocks])
            return row_blocks(self, blocks, alpha, order)

        monkeypatch.setattr(moments, "_cauchy_reports", kept)
        monkeypatch.setattr(zetafn.ZeroShiftEvaluator, "_row_blocks", counted)
        default = list(cauchy_transfer_report(cache1000, (1, 2), (1, 2), radius))
        monkeypatch.setattr(moments, "_DISK_ROWS", block)
        blocked = list(cauchy_transfer_report(cache1000, (1, 2), (1, 2), radius))
        assert sizes == [[128] * 5 + [9], {100: [100] * 6 + [49],
                                           162: [162] * 3 + [163]}[block]]
        assert np.array_equal(totals[0], expected)
        assert np.array_equal(totals[1], expected)
        assert blocked == default

    def test_transient_stays_a_block(self, cache10k):
        # the whole (n, 16) product, its moduli and powers peaked at 3.9 MB
        # over the table, and blocks of 2,048 rows by 16 shifts at 1.6 MB;
        # blocks of 128 rows by all 128 shifts peak at 0.85 MB
        radius = 1.0 / math.log(10000.0)
        cache10k.shift_table
        tracemalloc.start()
        try:
            list(cauchy_transfer_report(cache10k, (1, 2), (1, 2), radius))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6e6

    def test_batched_validation_before_any_pass(self, cache1000):
        for ks, ells in (((1, 0), (1,)), ((1,), (1, 0)), ((1, math.nan), (1,))):
            with pytest.raises(ValueError, match="finite and >= 1"):
                cauchy_transfer_report(cache1000, ks, ells, 0.1)

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

    @pytest.mark.parametrize("block, t_max, step", [
        (1000, 300.0, 0.01),    # 900 heights below 10, the rest across t = 200 in 30 blocks
        (777, 250.0, 0.005),
        (moments._GRID_BLOCK, 2000.0, 0.01),
    ])
    def test_blocked_grid_matches_one_shot(self, monkeypatch, block, t_max, step):
        monkeypatch.setattr(moments, "_GRID_BLOCK", block)
        assert continuous_moment((1.0, 2.0), t_max, step) == continuous_moment_one_shot(
            (1.0, 2.0), t_max, step)

    def test_transient_stays_a_block(self):
        # one hardy_z_grid call over the whole grid peaked at 12.7 MB; blocks
        # of 8,192 heights peak at 6.9 MB
        tracemalloc.start()
        try:
            continuous_moment((1.0, 2.0), 2000.0, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.8e6

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


class TestRiemannSiegelRows:
    """The shift table's rows above the crossover take Riemann-Siegel."""

    @pytest.fixture(scope="class")
    def tables(self, cache10k):
        """The table on cache10k, one with every row on Euler-Maclaurin, and
        the mask of the Riemann-Siegel rows."""
        table = zetafn.ZeroShiftEvaluator(cache10k.gammas, cache10k.t_max)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zetafn, "_RS_SHIFT_FROM", 1e300)
            em = zetafn.ZeroShiftEvaluator(cache10k.gammas, cache10k.t_max)
        rs = (zetafn.em_truncation(cache10k.gammas + 1.0)
              > zetafn.em_truncation(zetafn._RS_SHIFT_FROM + 1.0))
        return table, em, rs

    def test_rs_rows_agree_with_em_rows(self, cache10k, tables):
        table, em, rs = tables
        gammas = cache10k.gammas[rs]
        assert gammas.size > 0.7 * cache10k.gammas.size
        assert gammas.min() > zetafn._RS_SHIFT_FROM
        radius = table.radius
        circle = radius * np.exp(2j * math.pi * np.arange(8) / 8)
        cases = [(0.0, ell) for ell in (0, 1, 2)] + [(alpha, 0) for alpha in circle]
        for alpha, ell in cases:
            _, em_err = zetafn.zeta_at_heights(gammas, alpha, ell)
            rs_err = zetafn._rs_shift_error(gammas, radius, ell)
            diff = np.abs(table.values(alpha, ell)[rs] - em.values(alpha, ell)[rs])
            assert np.all(diff <= em_err + rs_err), (alpha, ell)

    def test_em_rows_are_unchanged_bit_for_bit(self, tables):
        table, em, rs = tables
        assert np.count_nonzero(~rs) > 1000
        assert np.array_equal(table._coeff[~rs], em._coeff[~rs])
        assert not np.array_equal(table._coeff[rs], em._coeff[rs])

    def test_within_committed_error_of_mpmath_near_1e5(self):
        # the table needs heights, not zeros: 12 seeded ones below t_max
        gammas = np.sort(np.random.default_rng(24).uniform(99_000.0, 1e5, 12))
        table = zetafn.ZeroShiftEvaluator(gammas, 1e5)
        radius = table.radius
        with mpmath.workdps(30):
            for alpha, ell in ((0.0, 0), (-radius, 0), (0.0, 1)):
                committed = zetafn._rs_shift_error(gammas, radius, ell)
                for g, value, err in zip(gammas, table.values(alpha, ell), committed):
                    s = mpmath.mpc(0.5 + alpha, mpmath.mpf(g))
                    truth = complex(mpmath.zeta(s, derivative=ell))
                    assert abs(value - truth) <= err, (g, alpha, ell)

    def test_crossover_where_committed_errors_meet(self):
        # below the crossover Euler-Maclaurin commits less, above it RS
        x = zetafn._RS_SHIFT_FROM
        ts = np.concatenate((np.arange(1500.0, 4000.0), np.geomspace(4000.0, 1e5, 200)))
        _, em_err = zetafn.zeta_at_heights(ts, 0.0, 0)
        rs_err = zetafn._rs_shift_error(ts, 0.1, 0)
        assert np.all((rs_err > em_err) == (ts < x))
        _, at_x = zetafn.zeta_at_heights(np.array([x]), 0.0, 0)
        assert zetafn._rs_shift_error(x, 0.1, 0) / at_x[0] == pytest.approx(1.0, abs=1e-3)

    def test_heights_above_t_max_rejected(self):
        # the radius 1/log t_max would exceed 1/log gamma there
        for gammas in ([2000.0, 3000.0], [np.nan]):
            with pytest.raises(zetafn.DomainError, match="t_max"):
                zetafn.ZeroShiftEvaluator(np.array(gammas), 2500.0)


class TestTableFromSeries:
    """The table's rows come from Taylor data: closed-form boundary
    coefficients on the Euler-Maclaurin rows, real correction series on the
    Riemann-Siegel rows."""

    def test_em_rows_within_committed_error_of_mpmath(self):
        # seeded heights just below the crossover, all on Euler-Maclaurin
        gammas = np.sort(np.random.default_rng(26).uniform(2000.0, 2612.0, 4))
        assert np.all(zetafn.em_truncation(gammas + 1.0)
                      <= zetafn.em_truncation(zetafn._RS_SHIFT_FROM + 1.0))
        table = zetafn.ZeroShiftEvaluator(gammas, 1e4)
        circle = table.radius * np.exp(2j * math.pi * np.arange(8) / 8)
        with mpmath.workdps(30):
            for alpha in (0.0, *circle):
                for ell in (0, 1, 2):
                    _, committed = zetafn.zeta_at_heights(gammas, alpha, ell)
                    for g, value, err in zip(gammas, table.values(alpha, ell), committed):
                        s = mpmath.mpc(0.5 + alpha.real, mpmath.mpf(g) + alpha.imag)
                        truth = complex(mpmath.zeta(s, derivative=ell))
                        assert abs(value - truth) <= err, (g, alpha, ell)

    def test_em_boundary_series_matches_sampled_route(self, cache10k):
        # each coefficient, at its weight radius^j on the table's disk, within
        # 1e-2 of the committed error: the sampled route's own rounding
        n = zetafn.em_truncation(cache10k.gammas + 1.0)
        em = n <= zetafn.em_truncation(zetafn._RS_SHIFT_FROM + 1.0)
        gammas, n = cache10k.gammas[em], n[em]
        radius = 1.0 / math.log(cache10k.t_max)
        got = zetafn._em_boundary_series(0.5 + 1j * gammas, n)
        want = em_boundary_sampled(gammas, n, radius)
        _, committed = zetafn.zeta_at_heights(gammas, 0.0, 0)
        weighted = np.abs(got - want) * radius ** np.arange(got.shape[1])
        assert gammas.size > 1000
        assert np.all(weighted <= 1e-2 * committed[:, None])

    @pytest.mark.parametrize("n", [20, 60, 126])
    def test_correction_model_matches_complex_horner(self, n):
        # 2,001 p in [0, 1] and the 32 samples on the widest circle, 2/log gamma
        p = np.linspace(0.0, 1.0, 2001)
        gammas = zetafn.TWO_PI * (n + p) ** 2
        radius = 1.0 / math.log(gammas.max())
        delta = -2j * radius * np.exp(2j * math.pi * np.arange(32) / 32)
        got = zetafn._rs_correction_samples(gammas, n, delta)
        want = rs_correction_complex(gammas[:, None] + delta, n)
        tau = np.sqrt(gammas / zetafn.TWO_PI)
        dropped = zetafn._rs_model_bound(tau, radius / (math.pi * (2.0 * tau - 1.0)))
        # rounding: p = tau - n carries a few ulps of tau on either route, times |F'|
        eps = np.finfo(float).eps
        weights = tau ** -(np.arange(5)[:, None] + 0.5)
        slope = np.sum(zetafn._C_DERIV_SUP[:, 1:2] * weights, axis=0)
        allowance = dropped + 4.0 * eps * (tau * slope + 1.0)
        assert np.all(np.abs(got - want) <= allowance[:, None])

    def test_model_bounds_stay_below_a_thousandth(self):
        # the two series' dropped terms inside _rs_shift_error, against the rest
        ts = np.geomspace(zetafn._RS_SHIFT_FROM, 1e5, 400)
        for radius in (0.1, 1.0 / math.log(zetafn._RS_SHIFT_FROM)):
            n = np.floor(np.sqrt(ts / zetafn.TWO_PI))
            rest = 2.0 * (zetafn._RS_OFFLINE * zetafn._RS_GABCKE * ts ** -2.75
                          + zetafn._RS_SAMPLE_NOISE * 2.0 * np.sqrt(n))
            total = zetafn._rs_shift_error(ts, radius, 0)
            assert np.all(total > rest) and np.all(total - rest < 1e-3 * rest)

    def test_build_makes_no_sampled_boundary_or_correction_calls(self, cache10k, monkeypatch):
        calls = []
        for name in ("_em_boundary", "_rs_correction"):
            def counted(*args, _name=name, _original=getattr(zetafn, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(zetafn, name, counted)
        table = zetafn.ZeroShiftEvaluator(cache10k.gammas, cache10k.t_max)
        rs = zetafn.em_truncation(cache10k.gammas + 1.0) > zetafn.em_truncation(
            zetafn._RS_SHIFT_FROM + 1.0)
        assert 0 < np.count_nonzero(rs) < rs.size      # both routes built
        assert np.all(np.isfinite(table._coeff))
        assert calls == []
