"""Property tests (Hypothesis, derandomized so that every run draws the same
examples)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetamoments import moments
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
@given(ts=st.lists(st.floats(14.0, 3000.0), min_size=1, max_size=40),
       chunk=st.integers(1, 200),
       alpha=st.complex_numbers(max_magnitude=0.2))
def test_zeta_at_heights_does_not_depend_on_chunking(ts, chunk, alpha):
    ts = np.sort(np.array(ts))
    whole = zeta_at_heights(ts, alpha, 1)
    chunked = zeta_at_heights(ts, alpha, 1, chunk=chunk)
    assert np.array_equal(whole[0], chunked[0])
    assert np.array_equal(whole[1], chunked[1])


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
