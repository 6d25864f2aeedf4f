"""Property tests of the counting conventions under dyadic translation.

Dyadic points, dyadic cells and whole-cell shifts keep every float operation
exact: ``floor((x + t*cell) / cell) == floor(x / cell) + t`` and every cell
centre moves with its point, so the counts may not change at all.  Example
counts and sizes are small so that the whole file runs in a few seconds.
"""

from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdim as fd
from fracdim import kernels
from fracdim.metrics import PointCloud

BOUNDED = settings(max_examples=150, deadline=timedelta(seconds=2), database=None,
                   derandomize=True)


@st.composite
def dyadic_cloud_and_shift(draw):
    """Points k / 2^e in [-4, 4)^m, a cell 2^-j, and a shift of whole cells."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    e = draw(st.integers(0, 6))
    numerators = draw(st.lists(st.lists(st.integers(-4 << e, (4 << e) - 1), min_size=m,
                                        max_size=m), min_size=n, max_size=n))
    pts = np.array(numerators, dtype=np.float64) / 2.0**e
    cell = 2.0 ** -draw(st.integers(0, 4))
    cells = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=m, max_size=m)))
    return pts, cell, cells * cell


@BOUNDED
@given(dyadic_cloud_and_shift(), st.integers(1, 4), st.sampled_from([1, 2, 4]))
def test_counts_invariant_under_whole_cell_translation(case, radius_cells, refine):
    pts, cell, shift = case
    moved = pts + shift
    assert fd.box_count(PointCloud.from_points(moved), cell) == \
        fd.box_count(PointCloud.from_points(pts), cell)
    # the sausage grid has side ``cell / refine``; a shift of whole ``cell``s
    # is a shift of whole sausage cells
    r, side = radius_cells * cell / 2, cell / refine
    assert kernels.sausage_occupied_count(moved, r, side) == \
        kernels.sausage_occupied_count(pts, r, side)
