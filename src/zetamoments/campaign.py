"""End-to-end audit campaigns: sweep zeros once, run every inequality audit
over configured grids, and emit a deterministic machine-readable report.

Determinism contract: a fixed (config, seed) pair reproduces the report
byte-for-byte.  Sample points come from a seeded Kronecker (R2) sequence,
all reductions run in fixed ascending order, and report floats are printed
with 17 significant digits.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, moments, zerosums
from .primes import DirichletPolySpec
from .zeros import ZeroCache, count_audit, load, sweep
from .zetafn import (CONSTANTS, REFLECTION, DomainError, NearZeroError, chi,
                     digamma, log_deriv, zeta)

_SCHEMA = "audit.v1"
_DRIFT_TOL = 1e-9       # compare_reports flags relative differences above this
_NONFINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}  # to_json's strings


class ReportSchemaError(ValueError):
    """Report file missing, malformed, or of a different schema version."""


@dataclass(frozen=True)
class CampaignConfig:
    """Grids and policies for one audit campaign."""

    t_max: float = 1000.0
    k_list: tuple[float, ...] = (1.0, 2.0)
    ell_list: tuple[int, ...] = (1, 2)
    alpha_list: tuple[complex, ...] = ()
    x_policy: str = "tau_squared_log"
    x_explicit: float | None = None
    lam: float = CONSTANTS.lambda0
    seeds: int = 2026
    output_dir: str | None = None
    cache_path: str | None = None

    def alphas(self) -> tuple[complex, ...]:
        if self.alpha_list:
            return tuple(complex(a) for a in self.alpha_list)
        r = 1.0 / math.log(self.t_max)
        return (complex(r), complex(-r), complex(0.0, r))

    def majorant_x(self, t: float) -> float:
        if self.x_policy == "tau_squared_log":
            return math.log(t + 3.0) ** 2
        if self.x_policy == "sqrt_T":
            return math.sqrt(self.t_max)
        if self.x_policy == "explicit":
            if self.x_explicit is None:
                raise ValueError("x_policy=explicit needs x_explicit")
            return self.x_explicit
        raise ValueError(f"unknown x_policy {self.x_policy!r}")


@dataclass(frozen=True)
class AuditOutcome:
    """One audit x parameter-combination result."""

    audit_name: str
    fitted_constant: float
    max_violation: float
    sample_count: int
    notes: str = ""


def _kronecker(seed: int, count: int) -> np.ndarray:
    """count x 2 low-discrepancy points in [0,1)^2 (R2 sequence, seeded offset)."""
    g = 1.32471795724474602596   # plastic number
    a1, a2 = 1.0 / g, 1.0 / (g * g)
    off = np.modf(np.float64(seed) * 0.6180339887498949)[0]
    i = np.arange(1, count + 1, dtype=np.float64)
    return np.stack([np.modf(off + a1 * i)[0], np.modf(off * 2.0 + a2 * i)[0]],
                    axis=1)


def _ensure_cache(config: CampaignConfig) -> ZeroCache:
    if config.cache_path is not None:
        cache = load(config.cache_path)
        if cache.t_max < config.t_max:
            raise ValueError(
                f"cache covers {cache.t_max}, campaign needs {config.t_max}")
        return cache.truncated(config.t_max)
    return sweep(config.t_max)


def _safe(fn, name: str, outcomes: list[AuditOutcome]) -> None:
    """Partial-failure policy: a failing audit contributes a note, not an abort."""
    try:
        fn()
    except Exception as exc:           # noqa: BLE001
        outcomes.append(AuditOutcome(audit_name=name, fitted_constant=math.nan,
                                     max_violation=0.0, sample_count=0,
                                     notes=f"error: {type(exc).__name__}: {exc}"))


def _digamma_rounding(s: complex) -> float:
    """Rounding allowance of digamma(s) - (log s - 1/(2s)) for Re s > 0: four
    ulps of each summand digamma adds (the 1/(s + j) of its upward recurrence
    to |s + j| >= 32, then log, 1/(2s) and the Stirling terms there, each
    below 1) and of the reference's log s and 1/(2s)."""
    mag = abs(cmath.log(s)) + 1.0
    while abs(s) < 32.0:
        mag += abs(1.0 / s)
        s += 1.0
    return 4.0 * sys.float_info.epsilon * (mag + abs(cmath.log(s)) + 1.0)


def run_campaign(config: CampaignConfig) -> list[AuditOutcome]:
    """Run every audit of the default campaign; deterministic given config."""
    if not 10.5 <= config.t_max <= 1e5:
        raise DomainError(f"t_max must lie in [10.5, 1e5] (got {config.t_max})")
    if not all(0.0 < k < math.inf for k in config.k_list):
        raise ValueError(f"every k must be positive and finite (got {config.k_list})")
    cache = _ensure_cache(config)
    outcomes: list[AuditOutcome] = []
    add = outcomes.append
    log_t = math.log(config.t_max)

    def zero_count():
        dev = count_audit(cache)
        add(AuditOutcome("zero_count", abs(dev), max(0.0, abs(dev) - 2.0),
                         len(cache), f"N={len(cache)}"))

    _safe(zero_count, "zero_count", outcomes)

    def gonek():
        for x in (2.0, 3.0, 4.0, 5.0, 6.0, 2.5):
            fitted = 0.0
            for frac in (0.25, 0.5, 1.0):
                rep = zerosums.gonek_sum(cache.truncated(frac * config.t_max), x)
                fitted = max(fitted, rep.fitted_constant)
            add(AuditOutcome(f"gonek_explicit_formula[x={x:g}]", fitted,
                             max(0.0, fitted - 5.0), 3,
                             f"max over T in {{T/4, T/2, T}}"))

    _safe(gonek, "gonek_explicit_formula", outcomes)

    def mean_square():
        pairs = [(xi, alpha) for xi in (20, 50, 100) if xi <= config.t_max / log_t
                 for alpha in (0.0, 1.0 / log_t)]
        reports = zerosums.mean_square_over_zeros(
            cache, [np.ones(xi) for xi, _ in pairs], tuple(alpha for _, alpha in pairs))
        for (xi, alpha), rep in zip(pairs, reports):
            add(AuditOutcome(
                f"mean_square[xi={xi},re_alpha={alpha:.6g}]",
                rep.ratio, max(0.0, rep.ratio - 5.0), len(cache)))

    _safe(mean_square, "mean_square", outcomes)

    def majorants():
        pts = _kronecker(config.seeds, 48)
        for band, tag in ((config.t_max, "high"), (config.t_max / 2.0, "mid")):
            x = config.majorant_x(band)
            spec = DirichletPolySpec(x=x, lam=config.lam)
            samples = [(0.5 + (spec.sigma_lam - 0.5) * u,
                        band * (0.8 + 0.2 * v)) for u, v in pts]
            table = moments.majorant_audit(spec, samples)
            used = sum(not s.skipped for s in table.samples)
            add(AuditOutcome(f"log_zeta_majorant_lambda[{tag}]",
                             table.fitted_constant_lambda, 0.0, used,
                             f"min slack {table.min_slack_lambda:.6g}"))
            add(AuditOutcome(f"log_zeta_majorant_prime[{tag}]",
                             table.fitted_constant_prime, 0.0, used,
                             f"min slack {table.min_slack_prime:.6g}"))
            diff, fitted = moments.prime_lambda_difference(spec, band * 0.9)
            add(AuditOutcome(f"prime_lambda_difference[{tag}]", fitted,
                             max(0.0, fitted - 10.0), 1,
                             f"modulus {diff:.6g}"))

    _safe(majorants, "log_zeta_majorant", outcomes)

    def functional_equation():
        pts = _kronecker(config.seeds + 1, 100)
        worst = 0.0
        bad = 0
        used = 0
        for u, v in pts:
            s = complex(u, 10.0 + (min(config.t_max, 1000.0) - 10.0) * v)
            lhs = zeta(s)
            if lhs.method_tag == REFLECTION:
                continue                # zeta(s) is chi(s) zeta(1 - s) there
            c = chi(s)
            rhs = zeta(1.0 - s)
            resid = abs(lhs.value - c.value * rhs.value)
            budget = (lhs.abs_error_estimate + abs(c.value) * rhs.abs_error_estimate
                      + abs(rhs.value) * c.abs_error_estimate)
            worst = max(worst, resid / budget if budget else math.inf)
            bad += resid > budget
            used += 1
        add(AuditOutcome("functional_equation_residual", worst, float(bad), used))

    _safe(functional_equation, "functional_equation_residual", outcomes)

    def stirling():
        pts = _kronecker(config.seeds + 2, 50)
        worst = 0.0
        past = 0
        for u, v in pts:
            s = complex(2.0 + 30.0 * u, 2.0 + 30.0 * v)
            dev = abs(digamma(s) - (np.log(complex(s)) - 0.5 / s))
            worst = max(worst, dev * abs(s) ** 2)
            # |psi(s) - log s + 1/(2s)| <= 1/(12 (Re s)^2) for Re s > 0: by DLMF
            # 5.9.13 it is -int_0^inf (1/(e^t - 1) - 1/t + 1/2) e^{-st} dt, and
            # 0 <= 1/(e^t - 1) - 1/t + 1/2 <= t/12
            past += dev > 1.0 / (12.0 * s.real ** 2) + _digamma_rounding(s)
        add(AuditOutcome("stirling_digamma", worst, float(past), 50,
                         "sup |psi - (log s - 1/(2s))| * |s|^2"))

    _safe(stirling, "stirling_digamma", outcomes)

    def partial_fraction():
        pts = _kronecker(config.seeds + 3, 20)
        worst = 0.0
        window = 50.0
        used = 0
        for u, v in pts:
            t = 80.0 + (config.t_max - window - 90.0) * v
            s = complex(0.5 + 1.5 * u, t)
            try:
                direct = log_deriv(s).value
            except NearZeroError:
                continue
            rec = zerosums.log_deriv_reconstruction(cache, s, window)
            worst = max(worst, abs(rec - direct))
            used += 1
        add(AuditOutcome("partial_fraction_reconstruction", worst, 0.0, used,
                         f"window {window:g}"))

    _safe(partial_fraction, "partial_fraction_reconstruction", outcomes)

    def f_identity():
        pts = _kronecker(config.seeds + 4, 25)
        worst = 0.0
        neg = 0
        for u, v in pts:
            t = 80.0 + (config.t_max - 140.0) * v
            x = math.log(t + 3.0) ** 2
            sig = 0.5 + CONSTANTS.lambda0 / math.log(x) * (0.5 + 0.5 * u)
            s = complex(sig, t)
            f_val = zerosums.f_sum(cache, s, window=50.0)
            neg += f_val < 0.0
            dev = abs(log_deriv(s).value.real - (f_val - 0.5 * math.log(t + 3.0)))
            worst = max(worst, dev)
        add(AuditOutcome("zero_sum_f_identity", worst, float(neg), 25,
                         "Re zeta'/zeta vs F - log(tau)/2; violations count F<0"))

    _safe(f_identity, "zero_sum_f_identity", outcomes)

    if config.k_list:
        _k_dependent_audits(config, cache, outcomes)
    if config.output_dir is not None:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(out / "audit_report.json", config, outcomes)
    return outcomes


def _k_dependent_audits(config: CampaignConfig, cache: ZeroCache,
                        outcomes: list[AuditOutcome]) -> None:
    add = outcomes.append
    log_t = math.log(config.t_max)

    def j_moments():
        for k in config.k_list:
            for ell in config.ell_list:
                rep = moments.compute_Jk(cache, k, ell)
                add(AuditOutcome(f"j_moment[k={k:g},ell={ell}]",
                                 rep.ratio_to_conjecture, 0.0, len(cache),
                                 f"normalized {rep.normalized:.6g}"))

    def shifted():
        for k in config.k_list:
            for alpha in config.alphas():
                rep = moments.shifted_moment(cache, k, alpha)
                add(AuditOutcome(
                    f"shifted_moment[k={k:g},alpha={alpha:.6g}]",
                    rep.ratio_to_conjecture, 0.0, len(cache),
                    f"normalized {rep.normalized:.6g}"))

    def large_values():
        alpha = complex(1.0 / log_t)
        for k in config.k_list:
            hist = moments.large_value_histogram(cache, k, alpha)
            mono_bad = sum(b > a for a, b in zip(hist.counts, hist.counts[1:]))
            vac_bad = sum(c > 0 for v, c in zip(hist.config.v_grid, hist.counts)
                          if v >= hist.config.vacuity_threshold_plain)
            ratios = [c / b for c, b in zip(hist.counts, hist.bound_values)
                      if b > 0]
            add(AuditOutcome(f"large_value_histogram[k={k:g}]",
                             max(ratios) if ratios else 0.0,
                             float(mono_bad + vac_bad), len(hist.counts),
                             f"max log|zeta| {hist.max_observed:.6g}"))
            recon = moments.dyadic_reconstruction(hist, k)
            direct = moments.shifted_moment(cache, k, alpha).raw_sum
            upper = math.exp(2.0 * k) * direct + math.exp(6.0 * k) * hist.n_zeros
            sandwich_bad = int(not (direct <= recon <= upper))
            add(AuditOutcome(f"dyadic_reconstruction[k={k:g}]",
                             recon / direct if direct else math.inf,
                             float(sandwich_bad), hist.n_zeros,
                             f"direct {direct:.6g} recon {recon:.6g}"))

    def cauchy():
        ks = tuple(int(k) for k in config.k_list if k == int(k))
        # one pass over the disk for every (k, ell); a k whose sums overflow
        # raises after the reports of the k before it
        for rep in moments.cauchy_transfer_report(cache, ks, tuple(config.ell_list),
                                                  1.0 / log_t):
            add(AuditOutcome(
                f"cauchy_transfer[k={rep.k:g},ell={rep.ell}]", rep.slack,
                max(0.0, 0.95 - rep.slack), rep.n_samples,
                f"argmax alpha {rep.argmax_alpha:.6g}"))

    continuous_outcomes: list[AuditOutcome] = []

    def continuous():
        ks = tuple(config.k_list)
        t_top = min(config.t_max, 2000.0)
        for k, val in zip(ks, moments.continuous_moment(ks, t_top, 0.01)):
            continuous_outcomes.append(AuditOutcome(
                f"continuous_moment[k={k:g}]",
                moments.log_power_ratio(val, t_top, k * k), 0.0, 1, f"value {val:.6g}"))

    # the continuous moment reads no zero: it runs before the shift table is
    # built, so its grid never coexists with the table, and reports last
    _safe(continuous, "continuous_moment", continuous_outcomes)
    _safe(j_moments, "j_moment", outcomes)
    _safe(shifted, "shifted_moment", outcomes)
    _safe(large_values, "large_values", outcomes)
    _safe(cauchy, "cauchy_transfer", outcomes)
    outcomes += continuous_outcomes


# ---------------------------------------------------------------------------
# report serialization (17 significant digits, deterministic ordering)


def to_json(obj) -> str:
    """Deterministic JSON text for reports and command output.

    Floats carry 17 significant digits, so they read back bit for bit; NaN
    and infinities become the strings "nan", "inf" and "-inf"; complex
    numbers become {"re": ..., "im": ...}; dicts keep their insertion
    order; no whitespace is added.  Raises TypeError on any other type.
    """
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return to_json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{to_json(v)}"
                              for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_document(config: CampaignConfig, outcomes: list[AuditOutcome]) -> dict:
    cfg = asdict(config)
    cfg["alpha_list"] = [complex(a) for a in config.alpha_list]
    return {
        "schema": _SCHEMA,
        "tool_version": __version__,
        "campaign": cfg,
        "outcomes": [asdict(o) for o in outcomes],
    }


def render_report(config: CampaignConfig, outcomes: list[AuditOutcome]) -> str:
    return to_json(report_document(config, outcomes)) + "\n"


def write_report(path, config: CampaignConfig, outcomes: list[AuditOutcome]) -> None:
    Path(path).write_text(render_report(config, outcomes), encoding="utf-8")


def load_report(path) -> dict:
    """A report with the fields compare_reports reads, or ReportSchemaError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReportSchemaError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ReportSchemaError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != _SCHEMA:
        raise ReportSchemaError(
            f"{path}: expected schema {_SCHEMA}, got {doc.get('schema')!r}")
    outcomes = doc.get("outcomes")
    if "campaign" not in doc or not isinstance(outcomes, list) or not all(
            isinstance(o, dict) and {"audit_name", "fitted_constant"} <= o.keys()
            for o in outcomes):
        raise ReportSchemaError(f"{path}: expected a campaign and a list of outcomes, "
                                "each with audit_name and fitted_constant")
    return doc


def compare_reports(path_a, path_b) -> dict:
    """Per-audit relative differences between two reports of the same schema."""
    doc_a = load_report(path_a)
    doc_b = load_report(path_b)
    by_name_a = {o["audit_name"]: o for o in doc_a["outcomes"]}
    by_name_b = {o["audit_name"]: o for o in doc_b["outcomes"]}
    rows = {}
    flagged = []
    for name in sorted(set(by_name_a) | set(by_name_b)):
        if name not in by_name_a or name not in by_name_b:
            rows[name] = {"status": "only_in_" + ("a" if name in by_name_a else "b")}
            flagged.append(name)
            continue
        fa, fb = (_NONFINITE.get(v, v) for v in (by_name_a[name]["fitted_constant"],
                                                 by_name_b[name]["fitted_constant"]))
        # equal values (inf too) differ by 0; NaN on either side gives NaN
        rel = 0.0 if fa == fb else abs(fa - fb) / max(abs(fa), abs(fb), 1e-300)
        rows[name] = {"a": fa, "b": fb, "relative_difference": rel}
        if not rel <= _DRIFT_TOL:
            flagged.append(name)
    same_campaign = doc_a["campaign"] == doc_b["campaign"]
    return {
        "identical_campaign": same_campaign,
        "audits": rows,
        "flagged": flagged,
        "drift_tolerance": _DRIFT_TOL,
    }
