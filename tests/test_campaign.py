import json
import math
from dataclasses import replace

import numpy as np
import pytest

from zetamoments import campaign, zeros, zetafn
from zetamoments.campaign import CampaignConfig, ReportSchemaError
from zetamoments.zetafn import REFLECTION, NearZeroError, zeta


@pytest.fixture(scope="module")
def cache_file(cache1000, tmp_path_factory):
    path = tmp_path_factory.mktemp("camp") / "z1000.csv"
    zeros.save(cache1000, path)
    return str(path)


@pytest.fixture(scope="module")
def default_run(cache_file):
    config = CampaignConfig(t_max=1000.0, cache_path=cache_file)
    return config, campaign.run_campaign(config)


class TestRunCampaign:
    def test_default_config_completes(self, default_run):
        _, outcomes = default_run
        assert len(outcomes) >= 10
        assert all(o.max_violation >= 0.0 or math.isnan(o.max_violation)
                   for o in outcomes)
        assert not any(o.notes.startswith("error:") for o in outcomes)

    def test_expected_audit_families_present(self, default_run):
        _, outcomes = default_run
        names = {o.audit_name.split("[")[0] for o in outcomes}
        assert names == {
            "zero_count", "gonek_explicit_formula", "mean_square",
            "log_zeta_majorant_lambda", "log_zeta_majorant_prime",
            "prime_lambda_difference", "functional_equation_residual",
            "stirling_digamma", "partial_fraction_reconstruction",
            "zero_sum_f_identity", "j_moment", "shifted_moment",
            "large_value_histogram", "dyadic_reconstruction",
            "cauchy_transfer", "continuous_moment",
        }

    def test_empty_k_list_runs_parameter_free_audits_only(self, cache_file):
        config = CampaignConfig(t_max=1000.0, k_list=(), cache_path=cache_file)
        outcomes = campaign.run_campaign(config)
        names = {o.audit_name.split("[")[0] for o in outcomes}
        assert "zero_count" in names
        assert "gonek_explicit_formula" in names
        assert not names & {"j_moment", "shifted_moment", "cauchy_transfer",
                            "dyadic_reconstruction", "large_value_histogram",
                            "continuous_moment"}

    def test_one_continuous_grid_for_every_k(self, cache_file, monkeypatch):
        calls = []
        real = campaign.moments.continuous_moment

        def continuous_moment(k, t_max, step):
            calls.append(k)
            return real(k, t_max, step)

        monkeypatch.setattr(campaign.moments, "continuous_moment", continuous_moment)
        config = CampaignConfig(t_max=1000.0, cache_path=cache_file)
        outcomes = {o.audit_name: o for o in campaign.run_campaign(config)}
        assert calls == [(1.0, 2.0)]
        for k, val in zip((1.0, 2.0), real((1.0, 2.0), 1000.0, 0.01)):
            constant = outcomes[f"continuous_moment[k={k:g}]"].fitted_constant
            assert constant == campaign.moments.log_power_ratio(val, 1000.0, k * k)
            assert constant == pytest.approx(val / math.log(1000.0) ** (k * k), rel=1e-14)

    def test_continuous_moment_runs_before_the_shift_table(self, cache_file, monkeypatch):
        caches, built = [], []
        ensure_cache = campaign._ensure_cache
        real = campaign.moments.continuous_moment

        def kept(config):
            caches.append(ensure_cache(config))
            return caches[-1]

        def continuous_moment(k, t_max, step):
            built.append("shift_table" in vars(caches[0]))
            return real(k, t_max, step)

        monkeypatch.setattr(campaign, "_ensure_cache", kept)
        monkeypatch.setattr(campaign.moments, "continuous_moment", continuous_moment)
        outcomes = campaign.run_campaign(CampaignConfig(t_max=1000.0, cache_path=cache_file))
        assert built == [False]
        assert "shift_table" in vars(caches[0])
        assert [o.audit_name for o in outcomes[-2:]] == [
            "continuous_moment[k=1]", "continuous_moment[k=2]"]

    def test_shared_products_evaluated_once(self, cache_file, monkeypatch):
        shifts, blocks = [], []
        row_blocks = zetafn.ZeroShiftEvaluator._row_blocks     # every product of the table
        n_pow_it = campaign.zerosums._n_pow_it

        def counted_row_blocks(self, blocks, alpha, order=0):
            shifts.append((np.size(alpha), order))
            return row_blocks(self, blocks, alpha, order)

        def counted_n_pow_it(ts, n):
            blocks.append(n)
            return n_pow_it(ts, n)

        monkeypatch.setattr(zetafn.ZeroShiftEvaluator, "_row_blocks", counted_row_blocks)
        monkeypatch.setattr(campaign.zerosums, "_n_pow_it", counted_n_pow_it)
        campaign.run_campaign(CampaignConfig(t_max=1000.0, cache_path=cache_file))
        # the Cauchy disk in 8 rows of 16 shifts; one column each for zeta'
        # and zeta'' at the zeros and for the three shifts
        assert len(shifts) == 13
        assert shifts.count((16, 0)) == 8
        assert sorted(shifts[:5]) == [(1, 0)] * 3 + [(1, 1), (1, 2)]
        # the six mean squares: n^{-i gamma} for n <= 100 once per block of
        # 512 zeros
        assert blocks == [100, 100]

    def test_partial_failures_stay_per_k(self, cache_file):
        config = CampaignConfig(t_max=1000.0, k_list=(1.0, 200.0), cache_path=cache_file)
        outcomes = campaign.run_campaign(config)
        first_k = [i for i, o in enumerate(outcomes) if o.audit_name.startswith("j_moment")][0]
        alphas = [f"{a:.6g}" for a in config.alphas()]
        assert [o.audit_name for o in outcomes[first_k:]] == [
            "j_moment[k=1,ell=1]", "j_moment[k=1,ell=2]", "j_moment",
            *(f"shifted_moment[k={k},alpha={a}]" for k in (1, 200) for a in alphas),
            "large_value_histogram[k=1]", "dyadic_reconstruction[k=1]",
            "large_value_histogram[k=200]", "large_values",
            "cauchy_transfer[k=1,ell=1]", "cauchy_transfer[k=1,ell=2]", "cauchy_transfer",
            "continuous_moment"]
        errors = {o.audit_name: o.notes for o in outcomes if o.notes.startswith("error:")}
        assert errors["large_values"] == ("error: ValueError: the dyadic reconstruction "
                                          "overflows a double at k = 200")
        assert all("k = 200" in note for note in errors.values())

    def test_partial_fraction_reports_samples_used(self, cache_file, monkeypatch):
        config = CampaignConfig(t_max=1000.0, k_list=(), cache_path=cache_file)
        u, v = campaign._kronecker(config.seeds + 3, 20)[0]
        skipped = complex(0.5 + 1.5 * u, 80.0 + (config.t_max - 140.0) * v)
        real_log_deriv = campaign.log_deriv

        def log_deriv(s):
            if s == skipped:
                raise NearZeroError("synthetic near-zero sample")
            return real_log_deriv(s)

        monkeypatch.setattr(campaign, "log_deriv", log_deriv)
        outcomes = {o.audit_name: o for o in campaign.run_campaign(config)}
        assert outcomes["partial_fraction_reconstruction"].sample_count == 19

    def test_stirling_digamma_counts_samples_past_the_bound(self, default_run, cache_file,
                                                           monkeypatch):
        # |psi(s) - log s + 1/(2s)| <= 1/(12 (Re s)^2) (DLMF 5.9.13): a digamma
        # off by twice that bound puts every sample past it
        _, outcomes = default_run
        assert {o.audit_name: o for o in outcomes}["stirling_digamma"].max_violation == 0.0
        real_digamma = campaign.digamma
        monkeypatch.setattr(campaign, "digamma",
                            lambda s: real_digamma(s) + 2.0 / (12.0 * s.real ** 2))
        config = CampaignConfig(t_max=1000.0, k_list=(), cache_path=cache_file)
        outcome = {o.audit_name: o for o in campaign.run_campaign(config)}["stirling_digamma"]
        assert outcome.max_violation == outcome.sample_count == 50

    def test_functional_equation_skips_reflected_samples(self, default_run):
        # zeta(s) is chi(s) zeta(1 - s) on the reflection route: residual 0
        config, outcomes = default_run
        pts = campaign._kronecker(config.seeds + 1, 100)
        reflected = sum(zeta(complex(u, 10.0 + 990.0 * v)).method_tag == REFLECTION
                        for u, v in pts)
        assert reflected == 30
        outcome = {o.audit_name: o for o in outcomes}["functional_equation_residual"]
        assert outcome.sample_count == 100 - reflected

    def test_rerun_byte_identical(self, default_run, cache_file):
        config, outcomes = default_run
        text_a = campaign.render_report(config, outcomes)
        text_b = campaign.render_report(config, campaign.run_campaign(config))
        assert text_a == text_b

    def test_report_is_valid_json_with_17_digit_floats(self, default_run):
        config, outcomes = default_run
        text = campaign.render_report(config, outcomes)
        doc = json.loads(text)
        assert doc["schema"] == "audit.v1"
        assert len(doc["outcomes"]) == len(outcomes)


class TestCompareReports:
    def test_identical_files_empty_diff(self, default_run, tmp_path):
        config, outcomes = default_run
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        campaign.write_report(a, config, outcomes)
        campaign.write_report(b, config, outcomes)
        diff = campaign.compare_reports(a, b)
        assert diff["flagged"] == []
        assert diff["identical_campaign"]

    def test_growth_between_heights(self, default_run, tmp_path):
        config, outcomes = default_run
        a = tmp_path / "t1000.json"
        campaign.write_report(a, config, outcomes)
        config500 = CampaignConfig(t_max=500.0)
        outcomes500 = campaign.run_campaign(config500)
        b = tmp_path / "t500.json"
        campaign.write_report(b, config500, outcomes500)
        diff = campaign.compare_reports(a, b)
        assert not diff["identical_campaign"]
        j1 = diff["audits"]["j_moment[k=1,ell=1]"]
        assert j1["relative_difference"] > 1e-9
        assert "j_moment[k=1,ell=1]" in diff["flagged"]

    def test_nonfinite_fitted_constants(self, default_run, tmp_path):
        # a failed audit records NaN, and dyadic_reconstruction can record inf
        config, outcomes = default_run
        odd = [replace(outcomes[0], fitted_constant=math.nan),
               replace(outcomes[1], fitted_constant=math.inf), *outcomes[2:]]
        finite = tmp_path / "finite.json"
        nonfinite = tmp_path / "nonfinite.json"
        campaign.write_report(finite, config, outcomes)
        campaign.write_report(nonfinite, config, odd)
        names = [o.audit_name for o in outcomes[:2]]
        same = campaign.compare_reports(nonfinite, nonfinite)
        assert same["flagged"] == [names[0]]
        assert same["audits"][names[1]] == {"a": math.inf, "b": math.inf,
                                            "relative_difference": 0.0}
        diff = campaign.compare_reports(finite, nonfinite)
        assert diff["flagged"] == sorted(names)

    def test_corrupted_file_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReportSchemaError):
            campaign.compare_reports(bad, bad)

    def test_wrong_schema_rejected(self, tmp_path):
        doc = tmp_path / "wrong.json"
        doc.write_text('{"schema": "audit.v2", "outcomes": []}')
        with pytest.raises(ReportSchemaError):
            campaign.compare_reports(doc, doc)

    @pytest.mark.parametrize("text", [
        '[{"schema": "audit.v1"}]',
        '{"schema": "audit.v1", "campaign": {}}',
        '{"schema": "audit.v1", "outcomes": []}',
        '{"schema": "audit.v1", "campaign": {}, "outcomes": [{"audit_name": "a"}]}',
    ])
    def test_malformed_report_rejected(self, tmp_path, text):
        doc = tmp_path / "malformed.json"
        doc.write_text(text)
        with pytest.raises(ReportSchemaError):
            campaign.compare_reports(doc, doc)


class TestSerialization:
    def test_float_17_digits(self):
        assert campaign.to_json(1.0 / 3.0) == "0.33333333333333331"
        assert campaign.to_json([1, "a", None, True]) == '[1,"a",null,true]'
        assert campaign.to_json(complex(1.5, -2.0)) == '{"re":1.5,"im":-2}'

    def test_nan_and_inf(self):
        assert campaign.to_json(float("nan")) == '"nan"'
        assert campaign.to_json(float("inf")) == '"inf"'

    def test_kronecker_deterministic(self):
        a = campaign._kronecker(7, 16)
        b = campaign._kronecker(7, 16)
        assert (a == b).all()
        assert ((a >= 0.0) & (a < 1.0)).all()
