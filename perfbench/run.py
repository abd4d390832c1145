"""Benchmark of zetamoments: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every round of a workload starts a fresh
interpreter (worker.py) with PYTHONPATH=src and one BLAS thread, so module
memos never carry over from one round to the next.  Rounds repeat while one
more round as long as the last still fits in S seconds; at least one runs.
The outputs of every round are then checked apart from the program
(checks.py).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
rounds run with boundary spans (tracer.py) and the metrics are per layer.
Progress and failures go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
from tracer import calibrate_span_cost, summarize, values_hit_ratio
from worker import FUNCTIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = {
    "sweep-1e4": {"kind": "sweep", "t_max": 1e4, "fault_t_max": 1e3, "fault_tol": 1e-8,
                  "zetazero_samples": 3},
    "audit-1e4": {"kind": "audit", "t_max": 1e4},
    "pointwise-1e5": {"kind": "pointwise", "t_top": 1e5, "calls": 1200},
}

BLAS_THREADS = "1"
SETUP_SAMPLES = 5          # setup_s is the median of at least this many setups
ROUND_TIMEOUT_S = 170
POINTWISE_T_LOW = 10.0     # hardy_z's domain floor
POINTWISE_SIGMA = (-1.0, 2.0)
BANDS = (("t1e2", 1e2), ("t1e3", 1e3), ("t1e4", 1e4), ("t1e5", 1e5))

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("call_us_p50", "us"))


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    rows = [
        ("zetafn.hardy_z_grid.s", "s", "lower"),
        ("zetafn.hardy_z_grid.calls", "count", "lower"),
        ("zetafn.hardy_z_grid.points", "count", "lower"),
        ("zetafn.em_z_with_deriv.s", "s", "lower"),
        ("zetafn.em_z_with_deriv.points", "count", "lower"),
        ("zetafn.theta.s", "s", "lower"),
        ("zetafn.theta.calls", "count", "lower"),
        ("zetafn.zeta_at_heights.s", "s", "lower"),
        ("zetafn.zeta_at_heights.calls", "count", "lower"),
        ("zetafn.zeta_at_heights.points", "count", "lower"),
        ("zetafn.ZeroShiftEvaluator.build_s", "s", "lower"),
        ("zetafn.ZeroShiftEvaluator.values_s", "s", "lower"),
        ("zetafn.ZeroShiftEvaluator.values_calls", "count", "lower"),
    ]
    rows += [(f"zetafn.{fn}.us_p50.{band}", "us", "lower")
             for fn in FUNCTIONS for band, _ in BANDS]
    rows += [("zetafn.call_us_p99", "us", "lower")]
    rows += [
        ("zeros.sweep.self_s", "s", "lower"),
        ("zeros.save.s", "s", "lower"),
        ("zeros.save.bytes", "bytes", "lower"),
        ("zeros.load.s", "s", "lower"),
    ]
    rows += [(f"moments.{fn}.s", "s", "lower")
             for fn in ("compute_Jk", "shifted_moment", "large_value_histogram",
                        "cauchy_transfer_report", "continuous_moment", "majorant_audit")]
    rows += [("moments.values_at_zeros.calls", "count", "lower"),
             ("moments.values_at_zeros.hit_ratio", "ratio", "higher")]
    rows += [(f"zerosums.{fn}.s", "s", "lower")
             for fn in ("gonek_sum", "mean_square_over_zeros", "f_sum",
                        "log_deriv_reconstruction")]
    rows += [("primes.smoothed_sum.s", "s", "lower"), ("primes.prime_sum.s", "s", "lower"),
             ("campaign.run_campaign.self_s", "s", "lower"),
             ("campaign.render_report.s", "s", "lower"),
             ("trace.wall_s", "s", "lower"),
             ("trace.spans", "count", "lower"),
             ("trace.overhead_s", "s", "lower")]
    return rows


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """The benchmark cannot measure: no program, a crashed round, a bad input."""


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args: list[str], timeout: float = ROUND_TIMEOUT_S) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:1])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")


def run_round(spec: dict, out: Path, input_path, trace: bool = False,
              setup_only: bool = False) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    args = ["round", "--spec", json.dumps(spec), "--out", str(out)]
    if input_path is not None:
        args += ["--input", str(input_path)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    _worker(args)
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# inputs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def audit_inputs(t_max: float) -> tuple[Path, dict]:
    """The audit's zero cache and its reference, made once per checkout.

    The cache comes from the program's own sweep and is checked like a
    sweep-1e4 output before it is kept; the reference is remade whenever the
    cache's sha256 differs from the one it records.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{t_max:g}"
    cache = WORK / f"audit-cache-{tag}.txt"
    ref_path = WORK / f"audit-reference-{tag}.json"
    if not cache.exists():
        _log(f"making the audit cache: sweep({tag})")
        tmp = WORK / f"audit-cache-{tag}.tmp"
        _worker(["make-cache", "--t-max", repr(t_max), "--out", str(tmp)], timeout=600)
        _, idx, gam, res = reference.parse_cache(tmp)
        parsed = {f"{tag_}_{f}": a for tag_ in ("swept", "loaded")
                  for f, a in (("index", idx), ("gamma", gam), ("residual", res))}
        n = checks.count_zeros(t_max)
        bad = checks.check_sweep(parsed, tmp, n, checks.zetazero_ordinates(
            sorted({1, max(1, n // 2), n})))
        if bad:
            raise BenchError(f"audit cache fails its checks: {bad}")
        tmp.replace(cache)
    sha = _sha256(cache)
    ref = json.loads(ref_path.read_text()) if ref_path.exists() else None
    if ref is None or ref["cache_sha256"] != sha:
        _log(f"making the audit reference for cache {sha[:12]}")
        ref = reference.make_reference(cache, t_max)
        tmp = WORK / f"audit-reference-{tag}.tmp"
        tmp.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        tmp.replace(ref_path)
    return cache, ref


def pointwise_calls(seed: int, n_calls: int, t_top: float):
    """(function index, sigma, t) of a seeded, stratified call list.

    Each function gets an equal share of the calls.  Its heights are
    log-uniform on [10, t_top] and its sigmas uniform on [-1, 2], both
    stratified: one seeded draw inside each of equal-width strata.  Height
    stratum j is paired with a fixed, well-spread sigma stratum (the rank of
    frac(j * golden ratio)), so every seed puts the same mix of routes at the
    same heights and the slowest calls do not change from seed to seed.  The
    call order is a seeded shuffle.
    """
    rng = np.random.default_rng(seed)
    per = n_calls // len(FUNCTIONS)
    shape = (len(FUNCTIONS), per)
    strata = np.arange(per)
    paired = np.argsort(np.argsort(np.modf(strata * 0.6180339887498949)[0]))
    u = (strata + rng.random(shape)) / per
    v = (paired + rng.random(shape)) / per
    lo, hi = np.log(POINTWISE_T_LOW), np.log(t_top)
    t = np.exp(lo + (hi - lo) * u)
    sigma = POINTWISE_SIGMA[0] + (POINTWISE_SIGMA[1] - POINTWISE_SIGMA[0]) * v
    fn = np.repeat(np.arange(len(FUNCTIONS)), per)
    order = rng.permutation(fn.size)
    return fn[order], sigma.ravel()[order], t.ravel()[order]


def band_of(t: np.ndarray) -> np.ndarray:
    """Index into BANDS of each height."""
    return np.searchsorted([b for _, b in BANDS[:-1]], t, side="right")


# ---------------------------------------------------------------------------
# one run


class Tally:
    """Operations attempted and failed, and the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0           # failures found by an output check
        self.messages: list[str] = []

    def add(self, attempted: int, failures, wrong: bool) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.wrong += len(failures) if wrong else 0
        for f in failures:
            if len(self.messages) < 20:
                self.messages.append(str(f))


def _rounds(spec, workdir: Path, input_path, seconds: float, trace: bool) -> list[dict]:
    """Whole rounds, while one more round as long as the last still fits."""
    results = []
    start = time.perf_counter()
    while True:
        out = workdir / f"round{len(results)}"
        began = time.perf_counter()
        results.append(run_round(spec, out, input_path, trace=trace))
        results[-1]["dir"] = str(out)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the JSON object run.py prints."""
    if not (ROOT / "src" / "zetamoments" / "__init__.py").is_file():
        raise BenchError(f"no program at {ROOT / 'src' / 'zetamoments'}")
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        spec = dict(spec, seed=seed)
        kind = spec["kind"]
        tally = Tally()
        if kind == "sweep":
            input_path = None
            rounds = _rounds(spec, workdir, input_path, seconds, trace)
            _check_sweep_rounds(spec, seed, rounds, tally)
        elif kind == "audit":
            input_path, ref = audit_inputs(spec["t_max"])
            rounds = _rounds(spec, workdir, input_path, seconds, trace)
            n_expected = checks.count_zeros(spec["t_max"])
            for r in rounds:
                report = (Path(r["dir"]) / "report.json").read_text(encoding="utf-8")
                bad = checks.check_audit(report, spec["t_max"], input_path, ref, n_expected)
                tally.add(len(checks.expected_audit_names(spec["t_max"])), bad, wrong=True)
        else:
            fn, sigma, t = pointwise_calls(seed, spec["calls"], spec["t_top"])
            input_path = workdir / "calls.npz"
            workdir.mkdir(parents=True)
            np.savez(input_path, fn=fn, sigma=sigma, t=t)
            rounds = _rounds(spec, workdir, input_path, seconds, trace)
            _check_pointwise_rounds(seed, fn, sigma, t, rounds, tally)
        setups = [r["setup_s"] for r in rounds]
        for i in range(max(0, SETUP_SAMPLES - len(rounds))):
            setups.append(run_round(spec, workdir / f"setup{i}", input_path,
                                    setup_only=True)["setup_s"])
        _log(f"{name} seed {seed}: {len(rounds)} rounds, wall_s "
             + ", ".join(f"{r['wall_s']:.3f}" for r in rounds)
             + f"; setup_s {', '.join(f'{s:.3f}' for s in setups)}")
        for msg in tally.messages:
            _log(f"failed: {msg}")
        if trace:
            metrics = _layer_metrics(name, seed, spec, rounds)
        else:
            # each call's median over the rounds, then the median over calls
            typical = np.median(call_latencies_us(kind, rounds), axis=0)
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in rounds),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
                "call_us_p50": float(np.median(typical)),
            }
        units = dict(END_TO_END) | {n: u for n, u, _ in PER_LAYER}
        return {"correct": tally.wrong == 0, "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def call_latencies_us(kind: str, rounds) -> np.ndarray:
    """Latency of every timed call, one row per round.

    On pointwise-1e5 a call is one evaluator call and every round makes the
    same calls in the same order; on the other workloads the timed region of
    a round is its one call.
    """
    if kind == "pointwise":
        return np.stack([np.load(Path(r["dir"]) / "calls.npz")["latency_ns"]
                         for r in rounds]) / 1e3
    return np.array([[r["wall_s"] * 1e6] for r in rounds])


def _check_sweep_rounds(spec, seed, rounds, tally: Tally) -> None:
    n_expected = checks.count_zeros(spec["t_max"])
    rng = np.random.default_rng(seed)
    sample = checks.zetazero_ordinates(
        rng.choice(np.arange(1, n_expected + 1), spec["zetazero_samples"], replace=False))
    for r in rounds:
        out = Path(r["dir"])
        with np.load(out / "caches.npz") as caches:
            bad = checks.check_sweep(caches, out / "cache.txt", n_expected, sample)
        failed_ops = sorted({op for op, _ in bad})
        tally.add(3, [f"{op}: " + "; ".join(m for o, m in bad if o == op)
                      for op in failed_ops], wrong=True)
        fault = r["known_fault"]
        tally.add(1, [f"refine_tol round trip: {fault}"] if fault else [], wrong=False)


def _check_pointwise_rounds(seed, fn, sigma, t, rounds, tally: Tally) -> None:
    """Round 0 against mpmath on one seeded call per (function, band); every
    later round must repeat round 0's values exactly."""
    rng = np.random.default_rng(seed + 1)
    bands = band_of(t)
    sample = []
    for f in range(len(FUNCTIONS)):
        for b in range(len(BANDS)):
            idx = np.flatnonzero((fn == f) & (bands == b))
            if idx.size:
                sample.append(int(rng.choice(idx)))
    with np.load(Path(rounds[0]["dir"]) / "calls.npz") as first:
        first_values, first_errs = first["value"], first["err"]
    wrong = {}
    for i in sample:
        if str(i) in rounds[0]["raised"]:
            continue
        msg = checks.check_call(FUNCTIONS[fn[i]], float(sigma[i]), float(t[i]),
                                complex(first_values[i]), float(first_errs[i]))
        if msg:
            wrong[i] = msg
    for r in rounds:
        with np.load(Path(r["dir"]) / "calls.npz") as calls:
            values = calls["value"]
        differ = np.flatnonzero(~((values == first_values)
                                  | (np.isnan(values) & np.isnan(first_values))))
        bad = dict(wrong)
        bad.update({int(i): "value differs from round 0" for i in differ})
        raised = {int(i): m for i, m in r["raised"].items()}
        tally.add(fn.size, [f"call {i}: {m}" for i, m in bad.items() if i not in raised],
                  wrong=True)
        tally.add(0, [f"call {i}: {m}" for i, m in raised.items()], wrong=False)


def _layer_metrics(name, seed, spec, rounds) -> dict:
    """Per-layer metrics: the median over rounds of each round's figure."""
    span_cost = calibrate_span_cost()
    per_round = []
    for r in rounds:
        spans = json.loads((Path(r["dir"]) / "spans.json").read_text(encoding="utf-8"))
        per_round.append(_one_round_layers(spans, r, span_cost))
    keep = WORK / "traces" / f"{name}-seed{seed}.json"
    keep.parent.mkdir(parents=True, exist_ok=True)
    keep.write_text(json.dumps({"workload": name, "seed": seed,
                                "fields": ["name", "start", "end", "parent", "items"],
                                "spans": spans}), encoding="utf-8")
    metrics = {n: statistics.median(m[n] for m in per_round) for n in per_round[0]}
    metrics.update(_band_medians(spec, seed, rounds))
    return {n: metrics[n] for n, _, _ in PER_LAYER}


def _band_medians(spec, seed, rounds) -> dict:
    """Per-call latencies of pointwise-1e5 by function and height band, and
    their 99th percentile (all 0 on the other workloads)."""
    out = {f"zetafn.{f}.us_p50.{b}": 0.0 for f in FUNCTIONS for b, _ in BANDS}
    out["zetafn.call_us_p99"] = 0.0
    if spec["kind"] != "pointwise":
        return out
    fn, _, t = pointwise_calls(seed, spec["calls"], spec["t_top"])
    typical = np.median(call_latencies_us("pointwise", rounds), axis=0)
    bands = band_of(t)
    for fi, f in enumerate(FUNCTIONS):
        for bi, (b, _) in enumerate(BANDS):
            sel = (fn == fi) & (bands == bi)
            if sel.any():
                out[f"zetafn.{f}.us_p50.{b}"] = float(np.median(typical[sel]))
    out["zetafn.call_us_p99"] = float(np.percentile(typical, 99))
    return out


def _one_round_layers(spans, result, span_cost) -> dict:
    summary = summarize(spans)

    def get(span, key="s"):
        return summary.get(span, {}).get(key, 0)

    calls, hit = values_hit_ratio(spans)
    m = {
        "zetafn.hardy_z_grid.s": get("zetafn.hardy_z_grid"),
        "zetafn.hardy_z_grid.calls": get("zetafn.hardy_z_grid", "calls"),
        "zetafn.hardy_z_grid.points": get("zetafn.hardy_z_grid", "items"),
        "zetafn.em_z_with_deriv.s": get("zetafn.em_z_with_deriv"),
        "zetafn.em_z_with_deriv.points": get("zetafn.em_z_with_deriv", "items"),
        "zetafn.theta.s": get("zetafn.theta") + get("zetafn.theta_deriv"),
        "zetafn.theta.calls": (get("zetafn.theta", "calls")
                               + get("zetafn.theta_deriv", "calls")),
        "zetafn.zeta_at_heights.s": get("zetafn.zeta_at_heights"),
        "zetafn.zeta_at_heights.calls": get("zetafn.zeta_at_heights", "calls"),
        "zetafn.zeta_at_heights.points": get("zetafn.zeta_at_heights", "items"),
        "zetafn.ZeroShiftEvaluator.build_s": get("zetafn.ZeroShiftEvaluator.build"),
        "zetafn.ZeroShiftEvaluator.values_s": get("zetafn.ZeroShiftEvaluator.values"),
        "zetafn.ZeroShiftEvaluator.values_calls": get("zetafn.ZeroShiftEvaluator.values",
                                                      "calls"),
        "zeros.sweep.self_s": get("zeros.sweep", "self_s"),
        "zeros.save.s": get("zeros.save"),
        "zeros.save.bytes": result.get("saved_bytes", 0),
        "zeros.load.s": get("zeros.load"),
        "moments.values_at_zeros.calls": calls,
        "moments.values_at_zeros.hit_ratio": hit,
        "campaign.run_campaign.self_s": get("campaign.run_campaign", "self_s"),
        "trace.wall_s": result["wall_s"],
        "trace.spans": len(spans),
        "trace.overhead_s": len(spans) * span_cost,
    }
    for n, _, _ in PER_LAYER:
        if n not in m and n.endswith(".s"):
            m[n] = get(n[:-2])          # "<module>.<function>.s"
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="rounds repeat while another one fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        _log(f"error: {exc}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
