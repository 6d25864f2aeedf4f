"""Property tests of the counting conventions under dyadic translation and
scaling, and of the packing/box sandwich.

Dyadic points, dyadic cells and whole-cell shifts keep every float operation
exact: ``floor((x + t*cell) / cell) == floor(x / cell) + t`` and every cell
centre moves with its point, so the counts may not change at all.  Scaling
by ``2^k`` is exact for any float that neither overflows nor underflows, so
box counts of ``2^k * P`` at ``2^-(j - k)`` are those of ``P`` at ``2^-j``.
Example counts and sizes are small so that the whole file runs in a few
seconds.
"""

from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdim as fd
from fracdim import kernels
from fracdim.metrics import PointCloud, boxes_per_center, packing_per_box

BOUNDED = settings(max_examples=150, deadline=timedelta(seconds=2), database=None,
                   derandomize=True)
# for the scaling and sandwich tests, so that the file stays near 2 s
FEWER = settings(BOUNDED, max_examples=100)


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


@st.composite
def float_cloud(draw):
    """1-12 points in [-4, 4]^m, m = 1..3, any floats in range (subnormals and
    exact duplicates included)."""
    m = draw(st.integers(1, 3))
    coord = st.floats(-4.0, 4.0, allow_nan=False)
    rows = draw(st.lists(st.lists(coord, min_size=m, max_size=m), min_size=1, max_size=12))
    return np.array(rows + rows[:draw(st.integers(0, 2))], dtype=np.float64)


@FEWER
@given(float_cloud(), st.integers(0, 6), st.integers(1, 4), st.integers(0, 4))
def test_box_counts_invariant_under_dyadic_scaling(pts, j_min, scales, k):
    # k >= 0 scales up, so 2^k * x is exact down to the least subnormal
    j_max = j_min + scales
    scaled = pts * 2.0**k
    assert fd.box_count(PointCloud.from_points(scaled), 2.0 ** -(j_max - k)) == \
        fd.box_count(PointCloud.from_points(pts), 2.0**-j_max)
    swept = fd.scale_sweep(PointCloud.from_points(pts), "box", j_min, j_max)
    moved = fd.scale_sweep(PointCloud.from_points(scaled), "box", j_min - k, j_max - k)
    assert np.array_equal(moved.values, swept.values)


@FEWER
@given(float_cloud(), st.floats(2.0**-6, 2.0))
def test_packing_and_box_counts_sandwich_each_other(pts, eps):
    cloud = PointCloud.from_points(pts)
    m = cloud.dim
    packing = fd.packing_number(cloud, eps)
    assert packing <= packing_per_box(m) * fd.box_count(cloud, eps)
    assert fd.box_count(cloud, 2 * eps) <= boxes_per_center(m) * packing
