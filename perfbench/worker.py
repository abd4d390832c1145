"""One measured round of a workload, run in a fresh interpreter.

    python3 perfbench/worker.py round --spec JSON --out DIR [--input PATH]
                                [--trace] [--setup-only]
    python3 perfbench/worker.py make-cache --t-max T --out PATH

``run.py`` starts this script with ``PYTHONPATH=src`` and the BLAS thread
count fixed.  A round times two regions of one process:

* setup: from the first line of this script, through importing zetamoments
  and its six modules, to loading the workload's input (the audit cache via
  ``zeros.load``, the pointwise call list via ``numpy.load``);
* the timed region: the workload's calls into the public API.

The round writes ``result.json`` and the outputs that run.py checks into DIR.
With ``--trace`` the module boundaries are wrapped (see tracer.py) and the
spans are written to ``spans.json`` as well.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# chi is left out: its committed error estimate is exceeded at about 6% of
# random points (see CHANGES.md), so a seeded check would fail on some seeds.
FUNCTIONS = ("zeta", "zeta_prime", "log_deriv", "hardy_z", "log_gamma")


def _import_program():
    import zetamoments
    from zetamoments import campaign, moments, primes, zeros, zerosums, zetafn  # noqa: F401
    return zetamoments


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sweep(zm, spec, out: Path, wrap, _loaded) -> dict:
    zeros = zm.zeros
    saved = out / "cache.txt"
    t0 = time.perf_counter()
    cache = wrap("zeros.sweep", zeros.sweep)(spec["t_max"])
    wrap("zeros.save", zeros.save)(cache, saved)
    loaded = wrap("zeros.load", zeros.load)(saved)
    wall_s = time.perf_counter() - t0
    peak = _peak_rss_mb()
    import numpy as np
    np.savez(out / "caches.npz",
             **{f"{tag}_{field}": np.array([getattr(r, field) for r in c.records])
                for tag, c in (("swept", cache), ("loaded", loaded))
                for field in ("index", "gamma", "residual")})
    return {"wall_s": wall_s, "peak_rss_mb": peak, "saved_bytes": saved.stat().st_size}


def _refine_tol_round_trip(zeros, spec, out: Path) -> str:
    """sweep at a looser refine_tol, then save and load; '' when that works."""
    path = out / "loose.txt"
    try:
        zeros.save(zeros.sweep(spec["fault_t_max"], refine_tol=spec["fault_tol"]), path)
        zeros.load(path)
    except Exception as exc:  # noqa: BLE001 -- run.py counts any failure
        return f"{type(exc).__name__}: {exc}"
    return ""


def _audit(zm, spec, out: Path, wrap, cache_path) -> dict:
    campaign = zm.campaign
    config = campaign.CampaignConfig(t_max=spec["t_max"], seeds=spec["seed"],
                                     cache_path=cache_path)
    t0 = time.perf_counter()
    outcomes = wrap("campaign.run_campaign", campaign.run_campaign)(config)
    report = wrap("campaign.render_report", campaign.render_report)(config, outcomes)
    wall_s = time.perf_counter() - t0
    peak = _peak_rss_mb()
    (out / "report.json").write_text(report, encoding="utf-8")
    return {"wall_s": wall_s, "peak_rss_mb": peak}


def _pointwise(zm, spec, out: Path, wrap, calls) -> dict:
    import numpy as np
    n = len(calls)
    lat_ns = [0] * n
    results = [None] * n
    clock = time.perf_counter_ns
    t0 = time.perf_counter()
    for i, (fn, arg) in enumerate(calls):
        c0 = clock()
        try:
            results[i] = fn(arg)
        except Exception as exc:  # noqa: BLE001 -- a raised call is a failed operation
            results[i] = exc
        lat_ns[i] = clock() - c0
    wall_s = time.perf_counter() - t0
    peak = _peak_rss_mb()
    values = np.full(n, np.nan, dtype=np.complex128)
    errs = np.full(n, np.nan)
    raised = {}
    for i, r in enumerate(results):
        if isinstance(r, Exception):
            raised[i] = f"{type(r).__name__}: {r}"
        elif isinstance(r, complex):
            values[i] = r
        else:
            values[i], errs[i] = r.value, r.abs_error_estimate
    np.savez(out / "calls.npz", latency_ns=np.array(lat_ns, dtype=np.int64),
             value=values, err=errs)
    return {"wall_s": wall_s, "peak_rss_mb": peak, "raised": raised}


def _load_nothing(zm, input_path, wrap):
    return None


def _load_cache(zm, input_path, wrap):
    """The audit's cache; run_campaign reads it again from cache_path."""
    wrap("zeros.load", zm.zeros.load)(input_path)
    return input_path


def _load_calls(zm, input_path, wrap):
    import numpy as np
    data = np.load(input_path)
    fns = [wrap(f"zetafn.{name}", getattr(zm, name)) for name in FUNCTIONS]
    return [(fns[f], t if FUNCTIONS[f] == "hardy_z" else complex(s, t))
            for f, s, t in zip(data["fn"].tolist(), data["sigma"].tolist(),
                               data["t"].tolist())]


WORKLOADS = {"sweep": (_load_nothing, _sweep), "audit": (_load_cache, _audit),
             "pointwise": (_load_calls, _pointwise)}


def _untraced(name, fn):
    return fn


def _round(args) -> None:
    zm = _import_program()
    spec = json.loads(args.spec)
    out = Path(args.out)
    tracer = None
    wrap = _untraced
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(zm)
        wrap = tracer.wrap
    load, timed = WORKLOADS[spec["kind"]]
    loaded = load(zm, args.input, wrap)
    result = {"setup_s": time.perf_counter() - _T0}
    if not args.setup_only:
        result.update(timed(zm, spec, out, wrap, loaded))
    if tracer is not None:
        tracer.uninstall()
        (out / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    if spec["kind"] == "sweep" and not args.setup_only:
        result["known_fault"] = _refine_tol_round_trip(zm.zeros, spec, out)
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")


def _make_cache(args) -> None:
    zm = _import_program()
    zm.zeros.save(zm.zeros.sweep(args.t_max), args.out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rnd = sub.add_parser("round", help="one measured round of a workload")
    rnd.add_argument("--spec", required=True, help="workload parameters as JSON")
    rnd.add_argument("--out", required=True, help="directory for the round's files")
    rnd.add_argument("--input", help="audit zero cache or pointwise call list (.npz)")
    rnd.add_argument("--trace", action="store_true", help="record boundary spans")
    rnd.add_argument("--setup-only", action="store_true",
                     help="stop after setup (import and input load)")
    rnd.set_defaults(func=_round)
    mk = sub.add_parser("make-cache", help="sweep to T and save the zero cache")
    mk.add_argument("--t-max", type=float, required=True)
    mk.add_argument("--out", required=True)
    mk.set_defaults(func=_make_cache)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    sys.exit(main())
