"""The benchmark's sweep workload (perfbench/worker.py) reads the cache
through ``ZeroCache.records``; a cache-API change that breaks its view must
fail in this suite, not first in a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

import zetamoments
from zetamoments import zeros

_WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _worker_module():
    spec = importlib.util.spec_from_file_location("perfbench_worker", _WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_workload_sees_the_cache(tmp_path):
    worker = _worker_module()
    result = worker._sweep(zetamoments, {"t_max": 100.0}, tmp_path,
                           lambda name, fn: fn, None)
    assert result["saved_bytes"] == (tmp_path / "cache.txt").stat().st_size
    cache = zeros.load(tmp_path / "cache.txt")
    assert len(cache) == 29
    with np.load(tmp_path / "caches.npz") as saved:
        for tag in ("swept", "loaded"):
            assert np.array_equal(saved[f"{tag}_index"], np.arange(1, len(cache) + 1))
            assert np.array_equal(saved[f"{tag}_gamma"], cache.gammas)
            assert np.array_equal(saved[f"{tag}_residual"], cache.residuals)
