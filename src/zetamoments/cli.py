"""Command-line surface: sweeps, moments, histograms, audits, report diffing.

Results go to stdout as JSON, or to ``--out`` (CSV or JSON by extension);
progress lines go to stderr.  Exit codes: 0 success, 1 validation error,
2 computation error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

from . import campaign, moments, zeros, zerosums
from .campaign import AuditOutcome, CampaignConfig, ReportSchemaError
from .zetafn import CONSTANTS, DomainError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2


class _ValidationExit(Exception):
    def __init__(self, message: str):
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag errors with exit code 1, not 2."""

    def error(self, message):
        raise _ValidationExit(message)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_rows(rows: list[dict], out: str | None) -> None:
    """JSON to stdout, or CSV/JSON file chosen by the --out extension."""
    if out is None:
        print(campaign.to_json(rows))
        return
    if out.endswith(".csv"):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: (format(v, ".17g") if isinstance(v, float)
                                     else v) for k, v in row.items()})
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(campaign.to_json(rows) + "\n")
    _progress(f"wrote {out}")


def _require_file(path: str) -> None:
    if not os.path.exists(path):
        raise _ValidationExit(f"--cache {path}: file not found")


def _load_cache(path: str) -> zeros.ZeroCache:
    _require_file(path)
    return zeros.load(path)


def _require_nonempty(cache: zeros.ZeroCache) -> None:
    if len(cache) == 0:
        raise _ValidationExit("empty cache")


def _alpha(args) -> complex:
    return complex(args.alpha_re, args.alpha_im)


def _moment_row(rep: moments.MomentReport) -> dict:
    return {
        "k": rep.k, "ell": rep.ell,
        "alpha_re": complex(rep.alpha).real, "alpha_im": complex(rep.alpha).imag,
        "t_max": rep.t_max, "raw_sum": rep.raw_sum, "normalized": rep.normalized,
        "conjectured_exponent": rep.conjectured_exponent,
        "ratio_to_conjecture": rep.ratio_to_conjecture,
    }


def _cmd_sweep(args) -> int:
    _progress(f"sweeping zeros up to t = {args.tmax} ...")
    cache = zeros.sweep(args.tmax, refine_tol=args.refine_tol)
    zeros.save(cache, args.cache)
    print(campaign.to_json({
        "t_max": cache.t_max, "count": len(cache),
        "count_audit": zeros.count_audit(cache), "cache": args.cache,
    }))
    return EXIT_OK


def _cmd_moments(args) -> int:
    cache = _load_cache(args.cache)
    _require_nonempty(cache)
    rep = moments.compute_Jk(cache, args.k, args.ell)
    _emit_rows([_moment_row(rep)], args.out)
    return EXIT_OK


def _cmd_shifted(args) -> int:
    cache = _load_cache(args.cache)
    _require_nonempty(cache)
    rep = moments.shifted_moment(cache, args.k, _alpha(args))
    _emit_rows([_moment_row(rep)], args.out)
    return EXIT_OK


def _cmd_largeval(args) -> int:
    cache = _load_cache(args.cache)
    _require_nonempty(cache)
    if not 0.0 < args.vstep < math.inf:
        raise _ValidationExit(f"--vstep must be positive and finite (got {args.vstep})")
    if args.vmin is not None:
        if args.vmax is None or not -math.inf < args.vmin < args.vmax < math.inf:
            raise _ValidationExit("--vmin and --vmax must be finite, --vmax above --vmin")
        count = int((args.vmax - args.vmin + 1e-12) / args.vstep) + 1
        grid = [args.vmin + i * args.vstep for i in range(count)]
    else:
        grid = None
    hist = moments.large_value_histogram(cache, args.k, _alpha(args), grid)
    rows = [{
        "V": v, "count": c, "bound_value": b, "bound_case": case,
        "A": a, "x": x, "z": z, "V1": v1, "V2": v2,
    } for v, c, b, case, a, x, z, v1, v2 in zip(
        hist.config.v_grid, hist.counts, hist.bound_values, hist.bound_cases,
        hist.config.a_values, hist.config.x_values, hist.config.z_values,
        hist.config.v1_values, hist.config.v2_values)]
    _emit_rows(rows, args.out)
    return EXIT_OK


def _cmd_gonek(args) -> int:
    cache = _load_cache(args.cache)
    _require_nonempty(cache)
    rep = zerosums.gonek_sum(cache, args.x)
    _emit_rows([{
        "x": rep.x, "t_max": rep.t_max,
        "empirical_re": rep.empirical_sum.real,
        "empirical_im": rep.empirical_sum.imag,
        "main_term": rep.main_term, "error_budget": rep.error_budget,
        "nearest_pp_distance": rep.nearest_pp_distance,
        "fitted_constant": rep.fitted_constant,
    }], args.out)
    return EXIT_OK


def _cmd_meansquare(args) -> int:
    cache = _load_cache(args.cache)
    _require_nonempty(cache)
    if not math.isfinite(args.x):
        raise _ValidationExit(f"--x must be finite (got {args.x})")
    xi = int(args.x)
    rep = zerosums.mean_square_over_zeros(cache, [1.0] * xi, _alpha(args))
    _emit_rows([{
        "xi": rep.xi, "alpha_re": rep.alpha.real, "alpha_im": rep.alpha.imag,
        "lhs": rep.lhs, "rhs_scale": rep.rhs_scale, "ratio": rep.ratio,
    }], args.out)
    return EXIT_OK


def _cmd_continuous(args) -> int:
    value = moments.continuous_moment(args.k, args.tmax, args.step)
    _emit_rows([{
        "k": args.k, "t_max": args.tmax, "step": args.step, "value": value,
        "ratio_to_log_power": value / math.log(args.tmax) ** (args.k * args.k),
    }], args.out)
    return EXIT_OK


def _cmd_audit(args) -> int:
    if args.cache is not None:
        # a missing file exits 1 here; run_campaign loads the cache before
        # any audit, so a corrupt one exits 1 through main's handler
        _require_file(args.cache)
    config = CampaignConfig(
        t_max=args.tmax,
        k_list=tuple(args.k) if args.k is not None else (1.0, 2.0),
        ell_list=tuple(args.ell) if args.ell is not None else (1, 2),
        lam=getattr(args, "lambda"),
        seeds=args.seed,
        cache_path=args.cache,
    )
    _progress(f"running audit campaign at T = {args.tmax} ...")
    outcomes = campaign.run_campaign(config)
    _emit_report(config, outcomes, args.out)
    return EXIT_OK


def _emit_report(config: CampaignConfig, outcomes: list[AuditOutcome],
                 out: str | None) -> None:
    if out is None:
        sys.stdout.write(campaign.render_report(config, outcomes))
        return
    if out.endswith(".csv"):
        rows = [{"audit_name": o.audit_name, "fitted_constant": o.fitted_constant,
                 "max_violation": o.max_violation, "sample_count": o.sample_count,
                 "notes": o.notes} for o in outcomes]
        _emit_rows(rows, out)
        return
    campaign.write_report(out, config, outcomes)
    _progress(f"wrote {out}")


def _cmd_diff(args) -> int:
    summary = campaign.compare_reports(args.report_a, args.report_b)
    print(campaign.to_json(summary))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, *, cache=False, alpha=False,
                out=True) -> None:
    if cache:
        p.add_argument("--cache", required=True, metavar="PATH",
                       help="zero-cache file (zcache v1 text format)")
    if alpha:
        p.add_argument("--alpha-re", type=float, default=0.0,
                       help="real part of the shift alpha (dimensionless; "
                            "default %(default)s)")
        p.add_argument("--alpha-im", type=float, default=0.0,
                       help="imaginary part of the shift alpha (default %(default)s)")
    if out:
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output file; .csv for CSV (header row emitted), "
                            "anything else JSON; default: JSON to stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zetamoments",
                     description="Zeta zeros, discrete moments, and "
                                 "inequality audits at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("sweep", formatter_class=fmt,
                       help="locate zeros up to --tmax and write a cache",
                       description="Scan Hardy Z for sign changes and write "
                                   "the refined zeros to --cache.")
    p.add_argument("--tmax", type=float, required=True,
                   help="height limit T (dimensionless ordinate, 10.5..1e5)")
    p.add_argument("--cache", required=True, metavar="PATH",
                   help="output cache file")
    p.add_argument("--refine-tol", type=float, default=1e-10,
                   help="residual target |Z(gamma)| for refinement")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("moments", formatter_class=fmt,
                       help="derivative moment over cached zeros",
                       description="J-type moment (1/N) sum |zeta^(ell)(rho)|^{2k}. "
                                   "CSV columns: k, ell, alpha_re, alpha_im, t_max, "
                                   "raw_sum, normalized, conjectured_exponent, "
                                   "ratio_to_conjecture.")
    p.add_argument("--k", type=float, default=1.0, help="moment power k > 0")
    p.add_argument("--ell", type=int, default=1, choices=(0, 1, 2),
                   help="derivative order")
    _add_common(p, cache=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("shifted", formatter_class=fmt,
                       help="shifted moment sum |zeta(rho+alpha)|^{2k}",
                       description="Shifted moment; CSV columns as for 'moments'.")
    p.add_argument("--k", type=float, default=1.0, help="moment power k > 0")
    _add_common(p, cache=True, alpha=True)
    p.set_defaults(func=_cmd_shifted)

    p = sub.add_parser("largeval", formatter_class=fmt,
                       help="large-value histogram of log|zeta(rho+alpha)|",
                       description="Counts #{gamma : log|zeta(rho+alpha)| >= V}. "
                                   "CSV columns: V, count, bound_value, bound_case, "
                                   "A, x, z, V1, V2.")
    p.add_argument("--k", type=float, default=1.0,
                   help="moment hint used to extend the default V grid")
    p.add_argument("--vmin", type=float, default=None,
                   help="lowest V of an explicit grid (default: integer grid from 3)")
    p.add_argument("--vmax", type=float, default=None, help="highest V")
    p.add_argument("--vstep", type=float, default=1.0, help="V grid step (positive)")
    _add_common(p, cache=True, alpha=True)
    p.set_defaults(func=_cmd_largeval)

    p = sub.add_parser("gonek", formatter_class=fmt,
                       help="Landau-Gonek exponential sum report",
                       description="sum x^rho vs -(T/2pi) Lambda(x). CSV columns: "
                                   "x, t_max, empirical_re, empirical_im, main_term, "
                                   "error_budget, nearest_pp_distance, fitted_constant.")
    p.add_argument("--x", type=float, required=True, help="exponential base x > 1")
    _add_common(p, cache=True)
    p.set_defaults(func=_cmd_gonek)

    p = sub.add_parser("meansquare", formatter_class=fmt,
                       help="mean square of a length-xi unit polynomial over zeros",
                       description="a_n = 1 for n <= xi. CSV columns: xi, alpha_re, "
                                   "alpha_im, lhs, rhs_scale, ratio.")
    p.add_argument("--x", type=float, required=True,
                   help="polynomial length xi (3 <= xi <= T/log T)")
    _add_common(p, cache=True, alpha=True)
    p.set_defaults(func=_cmd_meansquare)

    p = sub.add_parser("continuous", formatter_class=fmt,
                       help="continuous moment (1/T) integral |zeta(1/2+it)|^{2k}",
                       description="Composite Simpson from t = 1. CSV columns: "
                                   "k, t_max, step, value, ratio_to_log_power.")
    p.add_argument("--k", type=float, default=1.0, help="moment power k > 0")
    p.add_argument("--tmax", type=float, required=True, help="upper limit T")
    p.add_argument("--step", type=float, default=0.01,
                   help="quadrature step (<= 0.01)")
    _add_common(p)
    p.set_defaults(func=_cmd_continuous)

    p = sub.add_parser("audit", formatter_class=fmt,
                       help="run the full audit campaign",
                       description="Every inequality audit at T = --tmax; JSON "
                                   "report (schema audit.v1) or CSV outcome table.")
    p.add_argument("--tmax", type=float, default=1000.0, help="campaign height")
    p.add_argument("--k", type=float, action="append", default=None,
                   help="moment power; repeat for several (default: 1 and 2)")
    p.add_argument("--ell", type=int, action="append", default=None,
                   help="derivative order; repeat for several (default: 1 and 2)")
    p.add_argument("--lambda", type=float, default=CONSTANTS.lambda0,
                   help="smoothing shift of the majorant polynomial "
                        "(dimensionless, >= lambda0)")
    p.add_argument("--seed", type=int, default=2026,
                   help="seed for sample-point generation")
    p.add_argument("--cache", default=None, metavar="PATH",
                   help="zero cache to audit (zcache v1 text format); "
                        "default: sweep the zeros to --tmax")
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("diff", formatter_class=fmt,
                       help="compare two audit reports",
                       description="Per-audit relative differences; flags drift "
                                   "beyond 1e-9 in deterministic fields.")
    p.add_argument("report_a", help="first report (JSON, schema audit.v1)")
    p.add_argument("report_b", help="second report")
    p.set_defaults(func=_cmd_diff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _ValidationExit as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, DomainError, ReportSchemaError,
            zeros.CacheFormatError, zeros.CacheInvariantError,
            zerosums.PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:            # noqa: BLE001
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
