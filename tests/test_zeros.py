import cmath
import hashlib
import math

import mpmath
import numpy as np
import pytest

from zetamoments import zeros, zetafn
from zetamoments.zetafn import hardy_z, hardy_z_grid, theta, zeta

from .oracles import (
    bisect_zero,
    count_main_term_deviation,
    em_zeta_oracle,
    gram_point,
    sign_change_count,
)

GAMMA_1 = 14.134725141734693


def _oracle_z(t: float) -> float:
    """Z(t) from the naive Euler-Maclaurin oracle (independent code path)."""
    return (cmath.exp(1j * theta(t)) * em_zeta_oracle(complex(0.5, t))[0]).real


class TestSweep:
    def test_first_zero_against_bisection_oracle(self):
        cache = zeros.sweep(20.0)
        assert len(cache) == 1
        # oracle: bracket on a fine scan, then pure bisection on the oracle Z
        gamma_oracle = bisect_zero(_oracle_z, 14.1, 14.2, scan_step=1e-3)
        assert abs(cache.gammas[0] - gamma_oracle) <= 1e-8
        assert abs(cache.gammas[0] - GAMMA_1) <= 1e-8

    def test_count_to_100_vs_fine_grid(self, cache100):
        oracle_count = sign_change_count(
            lambda ts: hardy_z_grid(ts)[0], 10.0, 100.0, 0.005)
        assert len(cache100) == 29
        assert oracle_count == 29

    def test_below_first_ordinate(self):
        cache = zeros.sweep(14.0)
        assert len(cache) == 0

    def test_residuals_within_tolerance(self, cache1000):
        assert cache1000.residuals.max() <= 1e-9

    def test_strictly_increasing_and_contiguous(self, cache1000):
        cache1000.validate()

    def test_domain_validation(self):
        with pytest.raises(zeros.DomainError):
            zeros.sweep(5.0)
        for tol in (1e-13, math.nan, math.inf):
            with pytest.raises(zeros.DomainError, match="refine_tol"):
                zeros.sweep(100.0, refine_tol=tol)

    def test_refinement_shortfall_raises(self):
        # near t = 2000 the EM route's rounding noise keeps 44 residuals
        # above 1e-12, the largest 2.4e-12
        with pytest.raises(zeros.RefinementShortfallError) as info:
            zeros.sweep(2000.0, refine_tol=1e-12)
        err = info.value
        assert err.count >= 1
        assert 1e-12 < err.worst < 1e-9
        assert 1000.0 < err.gamma <= 2000.0
        assert f"{err.count} residual(s)" in str(err)
        assert f"{err.worst:.3e}" in str(err)


def _first_gram_pair(cache):
    """The first two zeros that share one Gram interval (a Gram-law exception)."""
    gammas = cache.gammas
    interval = np.searchsorted(zeros._gram_points_upto(cache.t_max), gammas)
    i = int(np.flatnonzero(interval[1:] == interval[:-1])[0])
    return float(gammas[i]), float(gammas[i + 1])


def _fold(monkeypatch, lo, hi):
    """Flip the sign of Z on (lo, hi): the zeros at lo and hi show no sign change
    on any grid, so neither the scan nor the search can see them."""
    real = zeros.hardy_z_grid

    def folded(ts):
        z, err = real(ts)
        return np.where((ts > lo) & (ts < hi), -z, z), err

    monkeypatch.setattr(zeros, "hardy_z_grid", folded)


class TestRosserBlocks:
    def test_hidden_pair_below_t_max_raises(self, cache1000, monkeypatch):
        lo, hi = _first_gram_pair(cache1000)
        assert 250.0 < lo < hi < 300.0        # the exception at g_126
        _fold(monkeypatch, lo, hi)
        with pytest.raises(zeros.UnresolvedBlockError) as info:
            zeros.sweep(300.0)
        err = info.value
        assert err.t_lo < lo < hi < err.t_hi
        assert err.deficit == 2
        # the block runs between two good Gram points
        for g in (err.t_lo, err.t_hi):
            n = round(theta(g) / math.pi)
            assert abs(g - gram_point(n)) < 1e-9
            assert (-1) ** n * hardy_z(g).value.real > 0

    def test_hidden_pair_in_turing_tail_raises(self, cache1000, monkeypatch):
        lo, hi = _first_gram_pair(cache1000)
        t_max = lo - 2.0                      # a Gram interval or so below the pair
        assert len(zeros.sweep(t_max)) == len(cache1000.truncated(t_max))
        _fold(monkeypatch, lo, hi)
        with pytest.raises(zeros.UnresolvedBlockError) as info:
            zeros.sweep(t_max)
        assert t_max <= info.value.t_lo < lo < hi < info.value.t_hi

    def test_scan_is_linspace_per_gram_interval(self):
        # reference: one np.linspace grid and one hardy_z_grid call per
        # interval, on intervals in runs of two with gaps between, as the
        # longer Rosser blocks lie among blocks of one interval
        edges = np.concatenate(([zeros._SWEEP_START], zeros._gram_points_upto(1000.0)))
        z, err = hardy_z_grid(edges)
        intervals = np.flatnonzero(np.arange(edges.size - 1) % 5 < 2)
        brackets, where = zeros._scan(edges, z, err, intervals)
        ref, ref_where = [], []
        for i in intervals:
            lo, hi = edges[i], edges[i + 1]
            ts = np.linspace(lo, hi, max(2, math.ceil((hi - lo) / zeros._SCAN_STEP) + 1))
            zs, es = hardy_z_grid(ts)
            assert zs[0] == z[i] and zs[-1] == z[i + 1]
            flips = np.flatnonzero(np.sign(zs[:-1]) * np.sign(zs[1:]) < 0)
            ref += [((ts[f], ts[f + 1]), (zs[f], zs[f + 1]), (es[f], es[f + 1]))
                    for f in flips]
            ref_where += [i] * flips.size
        assert len(ref) > 100
        assert np.array_equal(brackets, np.array(ref, dtype=zeros._BRACKET))
        assert np.array_equal(where, ref_where)

    def test_blocks_of_one_interval_are_their_own_brackets(self):
        # between two good Gram points g_n, g_{n+1} the bracket is exactly
        # [g_n, g_{n+1}], with Z and its error at the Gram points carried
        grams = zeros._gram_points_upto(1000.0)
        z, err = hardy_z_grid(grams)
        good = (-1.0) ** np.arange(grams.size) * z > 0
        single = np.flatnonzero(good[:-1] & good[1:])
        brackets = zeros._counted_brackets(1000.0)
        rows = {tuple(t): k for k, t in enumerate(brackets["t"].tolist())}
        for n in single.tolist():
            k = rows[(grams[n], grams[n + 1])]
            assert brackets["z"][k].tolist() == [z[n], z[n + 1]]
            assert brackets["err"][k].tolist() == [err[n], err[n + 1]]
        # 604 brackets are such Gram intervals; [10, g_0] and the Turing
        # tail's give 3 more, and the step-0.05 grids of the longer blocks 44
        assert single.size == 604
        edges = np.concatenate(([zeros._SWEEP_START], zeros._gram_points(np.arange(grams.size + 9))))
        whole = np.isin(brackets["t"], edges).all(axis=1)
        assert np.count_nonzero(whole) == 607
        assert np.all(whole | (np.diff(brackets["t"], axis=1)[:, 0] <= zeros._SCAN_STEP))
        assert len(brackets) == 651

    def test_unproved_gram_sign_raises(self, monkeypatch):
        # a committed error that swallows |Z| at one Gram point stops the sweep
        g = gram_point(40)
        real = zeros.hardy_z_grid

        def loose(ts):
            z, err = real(ts)
            return z, np.where(ts == g, 2.0 * np.abs(z), err)

        monkeypatch.setattr(zeros, "hardy_z_grid", loose)
        with pytest.raises(zeros.UnprovedSignError, match="g_40 =") as info:
            zeros.sweep(300.0)
        assert (info.value.n, info.value.t) == (40, g)

    def test_no_block_searched_to_1000(self, monkeypatch):
        searched = []
        monkeypatch.setattr(zeros, "_search", lambda *a: searched.append(a))
        assert len(zeros.sweep(1000.0)) == 649
        assert searched == []


class TestRefine:
    def test_roots_lie_in_their_brackets_and_match_zetazero(self):
        # the brackets to T = 3000 take both routes: Euler-Maclaurin below
        # the crossover near t = 1,650, Riemann-Siegel above it; mpmath's
        # zetazero is the reference at seeded zeros on either side
        brackets = zeros._counted_brackets(3000.0)
        brackets = brackets[brackets["t"][:, 0] <= 3000.0]
        roots, residuals = zeros._refine(brackets, 1e-10)
        assert roots.size == len(brackets)
        lo, hi = brackets["t"].T
        assert np.all((lo <= roots) & (roots <= hi))
        assert residuals.max() <= 2.5e-11
        rng = np.random.default_rng(16)
        sample = []
        for lo, hi, k in ((0.0, 200.0, 2), (200.0, 1650.0, 3), (1650.0, 3000.0, 3)):
            inside = np.flatnonzero((lo <= roots) & (roots < hi))
            sample += rng.choice(inside, k, replace=False).tolist()
        for i in sample:
            ref = float(mpmath.zetazero(i + 1).imag)
            assert abs(roots[i] - ref) <= 1e-10


class TestPolish:
    def test_routes_split_at_the_crossover(self, monkeypatch):
        # at the default refine_tol the Riemann-Siegel route's committed
        # error meets refine_tol/4 from t near 1,650 up: the Newton steps
        # finish on Euler-Maclaurin below that height and on Riemann-Siegel
        # above it.  Between t = 200 and the crossover, Riemann-Siegel steps
        # come first, all of them before the first Euler-Maclaurin step
        calls = []

        def recorded(name):
            real = getattr(zetafn, name)

            def route(ts):
                calls.append((name, np.array(ts)))
                return real(ts)
            return route

        for name in ("em_z_with_deriv", "rs_z_with_deriv"):
            monkeypatch.setattr(zetafn, name, recorded(name))
        cache = zeros.sweep(3000.0)

        def heights(part, route):
            return np.concatenate([ts for name, ts in part if name == route] + [np.empty(0)])

        first_em = next(i for i, (name, _) in enumerate(calls) if name == "em_z_with_deriv")
        em = heights(calls, "em_z_with_deriv")
        rs_first = heights(calls[:first_em], "rs_z_with_deriv")
        rs_after = heights(calls[first_em:], "rs_z_with_deriv")
        assert em.size and em.max() < 1650.0
        assert np.any(rs_first < 1000.0) and rs_first.min() >= 200.0
        assert np.all(rs_after > 1600.0)
        # at most two Euler-Maclaurin evaluations per zero on that route
        assert em.size <= 2.0 * np.count_nonzero(cache.gammas < em.max() + 1.0)
        assert cache.residuals.max() <= 1e-10

    def test_near_1e5_every_zero_meets_refine_tol_or_has_its_nearest_double(self):
        # Gram blocks 137899-138099 (t near 1e5) at the default refine_tol.
        # A double ordinate resolves a zero only to half an ulp, 7.3e-12
        # here, and |Z'| reaches 40: where _refine leaves |Z| above 1e-10
        # (8 of 200 zeros), neither neighbouring double does better.  The
        # Euler-Maclaurin route left 30 above 1e-10, the largest 3.1e-10.
        edges = zeros._gram_points(np.arange(137899, 138100))
        z, err = hardy_z_grid(edges)
        brackets, _ = zeros._scan(edges, z, err, np.arange(edges.size - 1))
        assert len(brackets) == 200
        gammas, residuals = zeros._refine(brackets, 1e-10)
        above = residuals > 1e-10
        assert np.count_nonzero(above) < 20
        _, err = hardy_z_grid(gammas[above])
        for step in (-1.0, 1.0):
            z, e = hardy_z_grid(gammas[above] + step * np.spacing(gammas[above]))
            assert np.all(np.abs(z) + e + err >= residuals[above])


class TestCountAudit:
    def test_t100(self, cache100):
        dev = zeros.count_audit(cache100)
        assert abs(dev) <= 2.0
        main_dev = count_main_term_deviation(cache100)
        # main term (100/2pi) log(100/2pi) - (100/2pi) ~ 28.1: deviation ~ 0.9
        assert 0.0 < main_dev < 2.0

    def test_t14_empty(self):
        cache = zeros.sweep(14.0)
        dev = count_main_term_deviation(cache)
        assert abs(dev) < 1.0

    def test_t1000(self, cache1000):
        assert abs(zeros.count_audit(cache1000)) <= 2.0
        oracle_count = sign_change_count(
            lambda ts: hardy_z_grid(ts)[0], 10.0, 1000.0, 0.01)
        assert len(cache1000) == oracle_count

    def test_bounded_for_all_heights_below_1000(self, cache1000):
        for t in (100.0, 250.0, 400.0, 600.0, 800.0, 1000.0):
            assert abs(zeros.count_audit(cache1000.truncated(t))) <= 2.0


class TestGram:
    def test_first_gram_point(self):
        g0 = gram_point(0)
        assert 17.0 < g0 < 18.0
        assert abs(theta(g0)) < 1e-9

    def test_interlacing_fraction(self, cache1000):
        assert zeros.gram_interlacing_fraction(cache1000) >= 0.95

    def test_interlacing_fraction_at_1000(self, cache1000):
        # 627 of the 649 zeros below 1000 lie in (g_{n-2}, g_{n-1})
        assert zeros.gram_interlacing_fraction(cache1000) == 627 / 649


class TestResidualCrossCheck:
    def test_zeta_modulus_bounded_by_residual(self, cache1000):
        # cross-check through zeta (not hardy_z), per contract
        for gamma, residual in zip(cache1000.gammas[::29], cache1000.residuals[::29]):
            val = zeta(complex(0.5, gamma))
            assert abs(val.value) <= 10.0 * max(residual, 1e-13)


class TestPersistence:
    def test_round_trip(self, cache100, tmp_path):
        path = tmp_path / "zc.csv"
        zeros.save(cache100, path)
        loaded = zeros.load(path)
        assert loaded == cache100
        assert loaded.gammas.tolist() == cache100.gammas.tolist()

    def test_round_trip_at_loose_refine_tol(self, tmp_path):
        # residuals of up to ~2.5e-9 are within this cache's own tolerance
        cache = zeros.sweep(1000.0, refine_tol=1e-8)
        path = tmp_path / "loose.csv"
        zeros.save(cache, path)
        assert zeros.load(path) == cache

    def test_residual_above_recorded_tol_rejected(self):
        cache = zeros.ZeroCache(t_max=20.0, gammas=[GAMMA_1], residuals=[2e-8],
                                refine_tol=1e-8)
        with pytest.raises(zeros.CacheInvariantError):
            cache.validate()

    def test_nan_residual_rejected(self):
        cache = zeros.ZeroCache(t_max=20.0, gammas=[GAMMA_1], residuals=[math.nan])
        with pytest.raises(zeros.CacheInvariantError):
            cache.validate()

    def test_shape_mismatch_rejected(self):
        cache = zeros.ZeroCache(t_max=30.0, gammas=[GAMMA_1, 21.0], residuals=[1e-11])
        with pytest.raises(zeros.CacheInvariantError, match="shape"):
            cache.validate()

    def test_non_monotone_rejected(self, cache100, tmp_path):
        path = tmp_path / "bad.csv"
        zeros.save(cache100, path)
        lines = path.read_text().splitlines()
        row1 = lines[1].split(",")
        row2 = lines[2].split(",")
        row1[1], row2[1] = row2[1], row1[1]     # swap the gamma fields
        lines[1] = ",".join(row1)
        lines[2] = ",".join(row2)
        body = "\n".join(lines[:-1]) + "\n"
        import hashlib
        digest = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(body + f"#sha256={digest}\n")
        with pytest.raises(zeros.CacheInvariantError):
            zeros.load(path)

    def test_index_gap_rejected(self, cache100, tmp_path):
        path = tmp_path / "gap.csv"
        zeros.save(cache100, path)
        lines = path.read_text().splitlines()
        row = lines[5].split(",")
        row[0] = str(int(row[0]) + 1)           # indices 1..4, 6, 6, 7, ...
        lines[5] = ",".join(row)
        self._write(path, "\n".join(lines[:-1]) + "\n")
        with pytest.raises(zeros.CacheInvariantError, match="indices"):
            zeros.load(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        body = "zcache v1 tmax=50.0 n=0 tol=1e-10\n"
        import hashlib
        digest = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(body + f"#sha256={digest}\n")
        cache = zeros.load(path)
        assert len(cache) == 0
        assert cache.t_max == 50.0

    def test_checksum_failure(self, cache100, tmp_path):
        path = tmp_path / "tampered.csv"
        zeros.save(cache100, path)
        text = path.read_text().replace("14.134", "14.135", 1)
        path.write_text(text)
        with pytest.raises(zeros.ChecksumError):
            zeros.load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v2.csv"
        body = "zcache v2 tmax=50.0 n=0 tol=1e-10\n"
        import hashlib
        digest = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(body + f"#sha256={digest}\n")
        with pytest.raises(zeros.CacheFormatError):
            zeros.load(path)

    @staticmethod
    def _write(path, body):
        digest = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(body + f"#sha256={digest}\n")

    def test_nan_tol_rejected(self, tmp_path):
        # max(nan, floor) is nan, which would let any residual through
        path = tmp_path / "nantol.csv"
        self._write(path, f"zcache v1 tmax=20.0 n=1 tol=nan\n1,{GAMMA_1!r},5e-9\n")
        with pytest.raises(zeros.CacheFormatError, match="non-finite"):
            zeros.load(path)

    def test_nan_tmax_rejected(self, tmp_path):
        path = tmp_path / "nantmax.csv"
        self._write(path, "zcache v1 tmax=nan n=0 tol=1e-10\n")
        with pytest.raises(zeros.CacheFormatError, match="non-finite"):
            zeros.load(path)

    @pytest.mark.parametrize("header", [
        "zcache v1 n=0 tol=1e-10 t=50.0",         # no tmax
        "zcache v1 tmax=50.0 n=0 n=0",            # n twice, no tol
        "zcache v1 tmax=50.0 n0 tol=1e-10",       # a token without '='
        "zcache v1 tmax=fifty n=0 tol=1e-10",     # not a number
    ])
    def test_malformed_header_rejected(self, header, tmp_path):
        path = tmp_path / "header.csv"
        self._write(path, header + "\n")
        with pytest.raises(zeros.CacheFormatError, match="header"):
            zeros.load(path)

    def test_gammas_built_once_read_only(self, cache1000):
        first = cache1000.gammas
        assert cache1000.gammas is first
        for array in (cache1000.gammas, cache1000.residuals):
            assert array.dtype == np.float64
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_construction_copies(self):
        gammas, residuals = np.array([GAMMA_1]), np.array([1e-11])
        cache = zeros.ZeroCache(20.0, gammas, residuals)
        gammas[0] = residuals[0] = 0.0
        assert cache.gammas[0] == GAMMA_1 and cache.residuals[0] == 1e-11

    def test_truncated_view(self, cache1000):
        sub = cache1000.truncated(250.0)
        assert sub.t_max == 250.0
        assert sub.gammas.max() <= 250.0
        full = zeros.sweep(250.0)
        assert sub.gammas.tolist() == full.gammas.tolist()

    def test_truncated_prefix_read_only(self, cache1000):
        sub = cache1000.truncated(250.0)
        n = len(sub)
        assert 0 < n < len(cache1000)
        assert cache1000.gammas[n] > 250.0
        assert np.array_equal(sub.gammas, cache1000.gammas[:n])
        assert np.array_equal(sub.residuals, cache1000.residuals[:n])
        assert sub.refine_tol == cache1000.refine_tol
        assert not sub.gammas.flags.writeable
        assert not sub.residuals.flags.writeable
