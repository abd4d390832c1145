"""Quick tests of the benchmark itself, at small heights.

    python3 perfbench/selftest.py

Runs every workload kind through run.run_workload at T = 1e3 (sweep and
audit) and t <= 1e3 (pointwise, 120 calls), untraced and traced, feeds the
output checks deliberately wrong outputs, and runs run.py in a directory
without the program.  Takes about a minute.  The file is not named
``test_*.py``, so the repository's pytest run does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest

import numpy as np

import checks
import reference
import run

QUICK = {
    "sweep-1e3": dict(run.WORKLOADS["sweep-1e4"], t_max=1e3, zetazero_samples=2),
    "audit-1e3": dict(run.WORKLOADS["audit-1e4"], t_max=1e3),
    "pointwise-1e3": dict(run.WORKLOADS["pointwise-1e5"], t_top=1e3, calls=120),
}
END_TO_END = {name for name, _ in run.END_TO_END}
PER_LAYER = [name for name, _, _ in run.PER_LAYER]


def _quick(name: str, trace: bool = False, seed: int = 7) -> dict:
    return run.run_workload(name, QUICK[name], seed=seed, seconds=0, trace=trace)


class Workloads(unittest.TestCase):
    """One round of each workload: outputs correct, counts exact."""

    def test_sweep_counts_the_known_fault_once_per_round(self):
        r = _quick("sweep-1e3")
        self.assertTrue(r["correct"])
        self.assertEqual((r["attempted"], r["failed"]), (4, 1))
        self.assertEqual(set(r["metrics"]), END_TO_END)

    def test_audit_passes_every_check(self):
        r = _quick("audit-1e3")
        self.assertTrue(r["correct"])
        self.assertEqual((r["attempted"], r["failed"]), (43, 0))

    def test_pointwise_passes_every_check(self):
        r = _quick("pointwise-1e3")
        self.assertTrue(r["correct"])
        self.assertEqual((r["attempted"], r["failed"]), (120, 0))
        self.assertGreater(r["metrics"]["call_us_p50"]["value"], 0)

    def test_traced_runs_report_every_layer(self):
        exercised = {
            "sweep-1e3": ("zetafn.hardy_z_grid.calls", "zetafn.em_z_with_deriv.points",
                          "zetafn.theta.calls", "zeros.sweep.self_s", "zeros.save.bytes"),
            "audit-1e3": ("zetafn.zeta_at_heights.points",
                          "zetafn.ZeroShiftEvaluator.values_calls", "moments.compute_Jk.s",
                          "moments.values_at_zeros.hit_ratio", "zerosums.f_sum.s",
                          "primes.prime_sum.s", "campaign.run_campaign.self_s"),
            "pointwise-1e3": ("zetafn.zeta.us_p50.t1e2", "zetafn.log_gamma.us_p50.t1e3",
                              "zetafn.call_us_p99"),
        }
        for name, layers in exercised.items():
            with self.subTest(name):
                r = _quick(name, trace=True)
                self.assertTrue(r["correct"])
                self.assertEqual(list(r["metrics"]), PER_LAYER)
                for layer in layers + ("trace.wall_s", "trace.spans"):
                    self.assertGreater(r["metrics"][layer]["value"], 0, layer)

    def test_seed_makes_the_pointwise_inputs(self):
        a = run.pointwise_calls(3, 120, 1e3)
        b = run.pointwise_calls(3, 120, 1e3)
        c = run.pointwise_calls(4, 120, 1e3)
        self.assertTrue(all(np.array_equal(x, y) for x, y in zip(a, b)))
        self.assertFalse(np.array_equal(a[2], c[2]))
        self.assertEqual(np.bincount(a[0]).tolist(), [24] * 5)


class Checks(unittest.TestCase):
    """The output checks reject wrong outputs."""

    @classmethod
    def setUpClass(cls):
        cls.cache, cls.ref = run.audit_inputs(1e3)
        _, idx, gam, res = reference.parse_cache(cls.cache)
        cls.arrays = {f"{tag}_{f}": a for tag in ("swept", "loaded")
                      for f, a in (("index", idx), ("gamma", gam), ("residual", res))}
        out = run.WORK / "selftest-audit"
        spec = dict(QUICK["audit-1e3"], seed=7)
        run.run_round(spec, out, cls.cache)
        cls.report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        shutil.rmtree(out)

    def _audit_failures(self, report) -> list:
        return checks.check_audit(json.dumps(report), 1e3, self.cache, self.ref,
                                  checks.count_zeros(1e3))

    def test_sweep_check(self):
        sample = checks.zetazero_ordinates([5])
        self.assertEqual(checks.check_sweep(self.arrays, self.cache, 649, sample), [])
        moved = dict(self.arrays, swept_gamma=self.arrays["swept_gamma"].copy())
        moved["swept_gamma"][4] += 2e-9
        ops = {op for op, _ in checks.check_sweep(moved, self.cache, 649, sample)}
        self.assertEqual(ops, {"sweep", "save", "load"})
        self.assertTrue(checks.check_sweep(self.arrays, self.cache, 650, sample))

    def test_audit_check(self):
        self.assertEqual(self._audit_failures(self.report), [])
        for name, change in (("j_moment[k=1,ell=2]", {"fitted_constant": None}),
                             ("shifted_moment[k=2,alpha=0+0.144765j]", {"fitted_constant": None}),
                             ("gonek_explicit_formula[x=3]", {"fitted_constant": None}),
                             ("dyadic_reconstruction[k=1]", {"fitted_constant": None}),
                             ("cauchy_transfer[k=1,ell=1]", {"notes": "error: ValueError: x"}),
                             ("zero_sum_f_identity", {"max_violation": 1.0})):
            with self.subTest(name):
                report = json.loads(json.dumps(self.report))
                (o,) = [o for o in report["outcomes"] if o["audit_name"] == name]
                if change.get("fitted_constant", 0) is None:
                    change = {"fitted_constant": o["fitted_constant"] * (1 + 1e-7)}
                o.update(change)
                self.assertEqual([n for n, _ in self._audit_failures(report)], [name])
        report = json.loads(json.dumps(self.report))
        report["outcomes"] = report["outcomes"][1:]
        self.assertEqual(self._audit_failures(report), [("zero_count", "missing from the report")])

    def test_pointwise_check(self):
        exact = checks.pointwise_reference("zeta", 0.5, 100.0)
        self.assertEqual(checks.check_call("zeta", 0.5, 100.0, exact, 1e-12), "")
        self.assertTrue(checks.check_call("zeta", 0.5, 100.0, exact + 1e-9, 1e-12))
        lg = checks.pointwise_reference("log_gamma", -0.5, 50.0)
        self.assertEqual(checks.check_call("log_gamma", -0.5, 50.0, lg + 2j * math.pi, 0), "")


class Harness(unittest.TestCase):

    def test_fails_without_the_program(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-1e4",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main(verbosity=2)
