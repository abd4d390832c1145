import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from zetamoments import zeros, zetafn
from zetamoments.zetafn import hardy_z, hardy_z_grid, theta, zeta

from .oracles import bisect_zero, em_zeta_oracle, sign_change_count

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
        assert abs(cache.records[0].gamma - gamma_oracle) <= 1e-8
        assert abs(cache.records[0].gamma - GAMMA_1) <= 1e-8

    def test_count_to_100_vs_fine_grid(self, cache100):
        oracle_count = sign_change_count(
            lambda ts: hardy_z_grid(ts)[0], 10.0, 100.0, 0.005)
        assert len(cache100) == 29
        assert oracle_count == 29

    def test_below_first_ordinate(self):
        cache = zeros.sweep(14.0)
        assert len(cache) == 0

    def test_residuals_within_tolerance(self, cache1000):
        assert all(r.residual <= 1e-9 for r in cache1000.records)

    def test_strictly_increasing_and_contiguous(self, cache1000):
        cache1000.validate()

    def test_domain_validation(self):
        with pytest.raises(zeros.DomainError):
            zeros.sweep(5.0)
        with pytest.raises(zeros.DomainError):
            zeros.sweep(100.0, refine_tol=1e-13)


class TestIllinoisRoots:
    def test_matches_brentq_on_public_hardy_z(self):
        # brentq on the scalar evaluator is the reference; the T = 1e3 brackets
        # cover both the Euler-Maclaurin (t < 200) and Riemann-Siegel routes
        edges = np.concatenate(([zeros._SWEEP_START], zeros._gram_points_upto(1000.0)))
        brackets = zeros._scan_blocks(edges)
        assert brackets[0][1] < zetafn._RS_CUTOVER < brackets[-1][0]
        roots = zeros._illinois_roots(brackets)
        assert roots.size == len(brackets)
        for (lo, hi), root in zip(brackets, roots):
            ref = brentq(lambda t: hardy_z(t).value.real, lo, hi,
                         xtol=1e-12, rtol=8.9e-16)
            assert lo <= root <= hi
            assert abs(root - ref) <= 1e-11


class TestCountAudit:
    def test_t100(self, cache100):
        dev = zeros.count_audit(cache100)
        assert abs(dev) <= 2.0
        main_dev = zeros.count_main_term_deviation(cache100)
        # main term (100/2pi) log(100/2pi) - (100/2pi) ~ 28.1: deviation ~ 0.9
        assert 0.0 < main_dev < 2.0

    def test_t14_empty(self):
        cache = zeros.sweep(14.0)
        dev = zeros.count_main_term_deviation(cache)
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
        g0 = zeros.gram_point(0)
        assert 17.0 < g0 < 18.0
        assert abs(theta(g0)) < 1e-9

    def test_interlacing_fraction(self, cache1000):
        assert zeros.gram_interlacing_fraction(cache1000) >= 0.95


class TestResidualCrossCheck:
    def test_zeta_modulus_bounded_by_residual(self, cache1000):
        # cross-check through zeta (not hardy_z), per contract
        for rec in cache1000.records[::29]:
            val = zeta(complex(0.5, rec.gamma))
            assert abs(val.value) <= 10.0 * max(rec.residual, 1e-13)


class TestPersistence:
    def test_round_trip(self, cache100, tmp_path):
        path = tmp_path / "zc.csv"
        zeros.save(cache100, path)
        loaded = zeros.load(path)
        assert loaded == cache100
        assert [r.gamma for r in loaded.records] == \
            [r.gamma for r in cache100.records]

    def test_round_trip_at_loose_refine_tol(self, tmp_path):
        # residuals of up to ~2.5e-9 are within this cache's own tolerance
        cache = zeros.sweep(1000.0, refine_tol=1e-8)
        path = tmp_path / "loose.csv"
        zeros.save(cache, path)
        assert zeros.load(path) == cache

    def test_residual_above_recorded_tol_rejected(self):
        cache = zeros.ZeroCache(
            t_max=20.0, records=(zeros.ZeroRecord(1, GAMMA_1, 2e-8),),
            meta=zeros.CacheMeta("test", refine_tol=1e-8))
        with pytest.raises(zeros.CacheInvariantError):
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

    def test_truncated_view(self, cache1000):
        sub = cache1000.truncated(250.0)
        assert sub.t_max == 250.0
        assert all(r.gamma <= 250.0 for r in sub.records)
        full = zeros.sweep(250.0)
        assert [r.gamma for r in sub.records] == [r.gamma for r in full.records]
