"""Property tests (Hypothesis, derandomized so that every run draws the same
examples)."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetamoments import moments, zeros
from zetamoments.zetafn import (
    DomainError,
    hardy_z_grid,
    zeta,
    zeta_at_heights,
    zeta_prime,
)

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)

sigmas = st.floats(-3.0, 3.0)
heights = st.floats(0.01, 1e4)


@PROPERTY
@given(sigma=sigmas, t=heights)
def test_conjugate_symmetry(sigma, t):
    s = complex(sigma, t)
    assume(abs(s - 1.0) > 1e-6)
    for fn in (zeta, zeta_prime):
        up, down = fn(s), fn(s.conjugate())
        assert down.value == up.value.conjugate()
        assert down.abs_error_estimate == up.abs_error_estimate


@PROPERTY
@given(ts=st.integers(2, 300).flatmap(
           lambda n: st.lists(st.floats(14.0, 1700.0), min_size=n, max_size=n)),
       alpha=st.complex_numbers(max_magnitude=0.2),
       data=st.data())
def test_zeta_at_heights_does_not_depend_on_chunking(ts, alpha, data):
    # up to 300 heights over three truncation buckets, so that the cap of
    # 128 heights per pass also splits runs
    ts = np.sort(np.array(ts))
    cut = data.draw(st.integers(1, ts.size - 1))
    whole = zeta_at_heights(ts, alpha, 1)
    halves = [zeta_at_heights(part, alpha, 1) for part in (ts[:cut], ts[cut:])]
    for j in range(2):
        assert np.array_equal(whole[j], np.concatenate([h[j] for h in halves]))


@PROPERTY
@given(ts=st.lists(st.floats(10.0, 1e4), min_size=2, max_size=30))
def test_hardy_z_grid_rejects_unsorted_heights(ts):
    assume(any(b < a for a, b in zip(ts, ts[1:])))
    with pytest.raises(DomainError):
        hardy_z_grid(np.array(ts))


@PROPERTY
@given(fraction=st.floats(0.0, 1.0), angle=st.floats(0.0, 2.0 * math.pi))
def test_table_matches_em_route_inside_radius(cache100, fraction, angle):
    table = moments.shift_evaluator(cache100)
    alpha = fraction * table.radius * complex(math.cos(angle), math.sin(angle))
    direct, _ = zeta_at_heights(cache100.gammas(), alpha)
    scale = np.abs(direct).max()
    assert np.abs(table.values(alpha) - direct).max() <= 1e-10 * max(1.0, scale)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(exponent=st.floats(-12.0, -6.0))
def test_save_load_round_trips_every_accepted_tolerance(exponent):
    cache = zeros.sweep(100.0, refine_tol=10.0 ** exponent)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "zeros.csv"
        zeros.save(cache, path)
        back = zeros.load(path)
    assert back.records == cache.records
    assert back.meta.refine_tol == cache.meta.refine_tol
