"""Box sweeps (``scale_sweep(..., "box", ...)``, which halve the packed keys
of the distinct cells of each scale for the next coarser one) against the
brute-force box oracle and against ``box_count`` of a fresh cloud at every
scale, exactly; and graph keys projected onto the image
(``kernels.drop_first_axis``), alone and in the paired sweeps of an
experiment, against the image's own keys and the oracle."""

import types

import numpy as np
import pytest

import fracdim as fd
from fracdim import experiments, kernels
from fracdim.metrics import PointCloud

from oracles import brute_box_cells, brute_box_count, decode_box_keys


def _check_sweep(pts, j_min, j_max):
    """The sweep's counts equal the oracle's and those of ``box_count`` from
    the points at every scale; returns them."""
    swept = fd.scale_sweep(PointCloud.from_points(pts), "box", j_min, j_max)
    swept = swept.values.astype(int).tolist()
    scales = [2.0**-j for j in range(j_min, j_max + 1)]
    assert swept == [brute_box_count(pts, eps) for eps in scales]
    assert swept == [fd.box_count(PointCloud.from_points(pts), eps) for eps in scales]
    return swept


def _random_cloud(rng):
    """1-3-D points of both signs, with exact duplicates and points on
    dyadic lattice lines."""
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 80))
    pts = rng.uniform(-1, 1, (n, m)) * rng.uniform(0.1, 20.0)
    if n > 4:
        pts[1] = pts[0]
        pts[2] = np.round(pts[2] * 16) / 16
        pts[3] = -pts[2]
    return pts


def test_random_clouds_match_oracle():
    rng = np.random.default_rng(21)
    for _ in range(150):
        j_min = int(rng.integers(-4, 6))
        _check_sweep(_random_cloud(rng), j_min, j_min + int(rng.integers(1, 9)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_points_on_lattice_lines(m):
    # every coordinate k * 2^-6 is on a box boundary at every j <= 6, and
    # goes to the box above it
    rng = np.random.default_rng(m)
    pts = rng.integers(-200, 200, (300, m)) / 64.0
    _check_sweep(pts, 0, 6)
    _check_sweep(pts, 3, 9)


def test_single_point():
    for pts in ([[0.3, -0.4]], [[-1.0]], [[0.0, 0.0, 0.0]]):
        assert _check_sweep(np.array(pts), -2, 5) == [1] * 8


def test_scales_at_and_above_one():
    rng = np.random.default_rng(22)
    pts = rng.uniform(-40, 40, (200, 2))
    _check_sweep(pts, -5, 0)
    _check_sweep(pts, -1, 2)
    # above eps = 1, x / eps of the least subnormal rounds to zero: -5e-324 / 2
    # is -0.0, in box 0 beside 5e-324, while -5e-324 / 1 is in box -1
    tiny = np.array([[-5e-324], [5e-324], [0.0]])
    assert _check_sweep(tiny, -2, 1) == [1, 1, 2, 2]


def test_two_scales():
    rng = np.random.default_rng(23)
    for j in (-3, 0, 4, 10):
        _check_sweep(_random_cloud(rng), j, j + 1)


def test_grid_too_large_to_pack_at_the_finest_scale_only():
    # about 2^40 cells of side 2^-20 per axis: the finest levels need 3 * 42
    # key bits and are counted from the points; from j = 0 up, 1e6 cells per
    # axis fit into 3 * 21 bits
    rng = np.random.default_rng(24)
    pts = np.concatenate([[[0.0, 0.0, 0.0], [1e6, 1e6, 1e6], [1e6, 0.0, 1e6]],
                          rng.uniform(0, 1e6, (40, 3))])
    assert kernels.box_keys(pts, 2.0**-20) is None
    assert kernels.box_keys(pts, 1.0) is not None
    _check_sweep(pts, -3, 20)


def test_cells_beyond_int64():
    # cells of 2^62 and more are float floors, counted from the points at
    # each scale until the cells fit into keys
    pts = np.array([[-1e18], [1e18], [1e300], [1e300], [3.0], [-1e300]])
    assert _check_sweep(pts, -8, 6)[-1] == 5
    assert _check_sweep(pts[:2], 0, 4) == [2] * 5


def test_each_scale_halves_the_distinct_cells_of_the_one_before(monkeypatch):
    # a sweep floors and sorts the keys of all n points at the finest scale
    # once, and then halves only the distinct keys of the scale before; each
    # scale's keys are sorted, distinct, and decode to the oracle's cells,
    # negative cells included
    sizes, found = [], []
    box_keys, coarser_keys = kernels.box_keys, kernels.coarser_keys

    def finest(columns, eps, bounds):
        sizes.append(len(columns[0]))
        found.append(box_keys(columns, eps, bounds))
        return found[-1]

    def halving(keys, layout):
        sizes.append(len(keys))
        found.append(coarser_keys(keys, layout))
        return found[-1]

    monkeypatch.setattr(kernels, "box_keys", finest)
    monkeypatch.setattr(kernels, "coarser_keys", halving)
    rng = np.random.default_rng(25)
    pts = rng.uniform(-1, 1, (2000, 2))
    counts = fd.scale_sweep(PointCloud.from_points(pts), "box", 2, 8).values.astype(int)
    assert sizes == [2000] + counts[:0:-1].tolist()
    for j, (keys, layout) in zip(range(8, 1, -1), found):
        assert keys.tolist() == sorted(set(keys.tolist()))
        cells = decode_box_keys(keys, layout)
        assert len(cells) == len(keys) and set(cells) == brute_box_cells(pts, 2.0**-j)


# points a chunk of pack_cells floors and packs at once: the work budget
CHUNK = kernels._PAIR_CHUNK


def _check_chunked_keys(columns, eps):
    """The keys that ``pack_cells`` floors and packs from coordinate columns
    a chunk at a time equal, key for key and in the same layout, those of
    the old route, packed from the ``(n, m)`` int64 cells of
    ``cell_indices``; the sorted distinct keys of ``box_keys`` decode to the
    oracle's cells."""
    pts = np.column_stack(columns)
    keys, layout = kernels.pack_cells(columns, 0, eps)
    old_keys, old_layout = kernels.pack_cells(kernels.cell_indices(pts, eps))
    assert layout == old_layout and keys.dtype == old_keys.dtype
    assert np.array_equal(keys, old_keys)
    bounds = [(col.min(), col.max()) for col in columns]
    boxes, box_layout = kernels.box_keys(columns, eps, bounds)
    assert box_layout == layout and np.array_equal(boxes, np.unique(keys))
    assert set(decode_box_keys(boxes, layout)) == brute_box_cells(pts, eps)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 262145])
def test_chunked_keys_match_the_cells_and_the_oracle(n):
    # negative and positive coordinates, with a ragged last chunk; the
    # columns are strided views of an (n, 2) array, as a cloud holds them
    pts = np.random.default_rng(n).uniform(-3, 1, (n, 2))
    for eps in (2.0**-9, 0.75):
        _check_chunked_keys(list(pts.T), eps)


def test_chunked_keys_over_small_budgets(monkeypatch):
    # chunks of 1-6 points cross every boundary of clouds of 1-40 points
    rng = np.random.default_rng(31)
    for budget in (1, 2, 3, 6):
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", budget)
        for _ in range(30):
            pts = _random_cloud(rng)[: int(rng.integers(1, 41))]
            _check_chunked_keys(list(pts.T), 2.0 ** -int(rng.integers(-2, 8)))
            _check_sweep(pts, 0, 5)


def test_fields_of_53_bits_or_more_are_offset_in_int64(monkeypatch):
    # a floor of 2^53 + 2 less an odd minimum is not a double, so a float
    # offset would round it; fields of 52-55 bits, in one and several chunks
    for top, low in ((2.0**51 + 2, -1.0), (2.0**52 + 2, -1.0), (2.0**53 + 2, 1.0),
                     (2.0**54 + 4, 1.0)):
        column = np.array([low, top, top - 2, low + 2, 3.0])
        keys, layout = kernels.pack_cells([column], 0, 1.0)
        assert decode_box_keys(keys, layout) == [(int(x),) for x in column]
        for budget in (1, kernels._PAIR_CHUNK):
            monkeypatch.setattr(kernels, "_PAIR_CHUNK", budget)
            _check_chunked_keys([np.arange(5.0), column], 1.0)


def test_floors_of_2_to_the_62_fall_back_to_the_cells_of_the_points(monkeypatch):
    counted = []
    distinct = kernels.distinct_cell_count

    def recording(cells):
        counted.append(len(cells))
        return distinct(cells)

    monkeypatch.setattr(kernels, "distinct_cell_count", recording)
    rng = np.random.default_rng(32)
    for far in (2.0**62, -2.0**62, 1e300):
        pts = np.concatenate([rng.uniform(-1, 1, (CHUNK + 5, 2)), [[far, 0.5]]])
        assert kernels.box_keys(list(pts.T), 1.0) is None
        cloud = PointCloud.from_points(pts)
        assert fd.box_count(cloud, 1.0) == brute_box_count(pts, 1.0)
        assert counted[-1] == len(pts)


def test_four_dimensional_graph_keys_and_sweep():
    grid = fd.TimeGrid.uniform(CHUNK + 3)
    path = fd.apply_drift(fd.generate_bm(grid, 3, 6), fd.DriftSpec.linear([1.0, -2.0, 0.5]))
    cloud = fd.graph_cloud(path)
    assert cloud.dim == 4 and cloud.columns[0] is grid.times
    for eps in (2.0**-12, 2.0**-4):
        _check_chunked_keys(list(cloud.columns), eps)
    swept = fd.scale_sweep(cloud, "box", 2, 8).values.astype(int).tolist()
    assert swept == [brute_box_count(cloud.points, 2.0**-j) for j in range(2, 9)]


# ---------------------------------------------------------------------------
# images counted from their graphs' keys


def _packed_at(levels, j_max):
    """For each scale of a pyramid, finest first, the scale whose points its
    keys were packed from: the finest, any above 1 and any after a refused
    one start again from the points."""
    start, before, out = None, None, []
    for j, boxes in zip(range(j_max, -2000, -1), levels):
        if before is None or j < 0:
            start = j
        out.append(start)
        before = boxes
    return out


def _check_projection(times, values, j_min, j_max):
    """Each scale of the graph's pyramid, its axis 0 dropped, gives the
    image's cells: the oracle's, sorted and distinct; in value the keys, and
    the layout, of ``box_keys`` of the image where the graph's pyramid
    packed that scale from the points, and those of the image's own pyramid
    where both were packed at the same scale.  Returns the number of scales
    the graph refused and of those matched in value."""
    values = np.asarray(values, dtype=np.float64).reshape(len(times), -1)
    graph = PointCloud.from_points(np.column_stack([times, values]))
    image = PointCloud.from_points(values)
    levels = [list(kernels.box_pyramid(cloud.columns, j_min, j_max, cloud.bounds))
              for cloud in (graph, image)]
    starts = [_packed_at(each, j_max) for each in levels]
    refused = same = 0
    for j, g, g_start, own, own_start in zip(range(j_max, j_min - 1, -1), levels[0],
                                             starts[0], levels[1], starts[1]):
        if g is None:
            refused += 1
            continue
        keys, layout = kernels.drop_first_axis(*g)
        cells = brute_box_cells(values, 2.0**-j)
        assert np.all(keys[1:] > keys[:-1]) and len(keys) == len(cells)
        assert set(decode_box_keys(keys, layout)) == cells
        if g_start == j:
            fresh, fresh_layout = kernels.box_keys(values, 2.0**-j)
            assert layout == fresh_layout
            assert np.array_equal(keys, fresh)
        if g_start == own_start:
            assert layout == own[1]
            assert np.array_equal(keys, own[0])
            same += 1
    return refused, same


def _grid_times(kind: str, n: int) -> np.ndarray:
    if kind == "uniform":
        return fd.TimeGrid.uniform(n).times
    if kind == "power":
        return fd.inverse_power_grid(1.0, n - 1).times
    return np.linspace(0.6, 1.0, n)  # late start: the time field's minimum is not 0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("grid", ["uniform", "power", "late"])
def test_graph_keys_projected_onto_the_image(d, grid):
    # a walk of both signs, shifted off the lattice, so that field minima
    # are negative and odd at some scales
    rng = np.random.default_rng(40 + d)
    times = _grid_times(grid, 300)
    values = np.cumsum(rng.normal(0, 0.2, (300, d)), axis=0) - 0.37
    assert values.min() < 0
    for j_min, j_max in ((-3, 2), (2, 9), (-1, 6)):
        assert _check_projection(times, values, j_min, j_max) == (0, j_max - j_min + 1)


def test_projection_of_a_single_point():
    for values in ([-0.3], [0.7, -1.9], [-5.0, 0.1, 3.3]):
        for times in ([0.0], [0.45], [1.0]):
            _check_projection(times, [values], -2, 5)


def test_a_uint64_graph_projects_to_uint64_image_keys():
    # the time field alone takes 29-32 bits, the image fields a few: the
    # image packs into uint32 keys, and the projection keeps the graph's word
    times = fd.TimeGrid.uniform(65).times
    values = np.linspace(-1.0, 1.0, 65) ** 3 * 2.0**-28
    levels = list(kernels.box_pyramid([times, values], 28, 31))
    assert all(keys.dtype == np.uint64 for keys, _ in levels)
    for j, graph in zip(range(31, 27, -1), levels):
        keys, layout = kernels.drop_first_axis(*graph)
        own, own_layout = kernels.box_keys([values], 2.0**-j)
        assert keys.dtype == np.uint64 and own.dtype == np.uint32
        assert layout == own_layout and keys.tolist() == own.tolist()
    assert _check_projection(times, values, 28, 31) == (0, 4)


def test_a_graph_refused_where_its_image_packs():
    # at j = 19-20 the graph's fields total over 63 bits, the image's not;
    # from j = 18 the graph packs again, from its own points, so the image's
    # own pyramid, started at j = 20, has other fields there
    rng = np.random.default_rng(44)
    times = fd.TimeGrid.uniform(200).times
    values = rng.uniform(-2.5, 2.5, (200, 2))
    assert kernels.box_keys(np.column_stack([times, values]), 2.0**-19) is None
    assert kernels.box_keys(np.column_stack([times, values]), 2.0**-18) is not None
    assert kernels.box_keys(values, 2.0**-20) is not None
    assert _check_projection(times, values, 14, 20) == (2, 0)


def _paired_counts(monkeypatch, image, graph, j_min, j_max):
    """The box counts of ``experiments._estimates`` for an image and its
    graph, with the cloud and the points of each ``box_count`` call."""
    sweeps, calls = {}, []
    real_sweep, real_count = experiments.scale_sweep, fd.metrics.box_count

    def sweep(cloud, *args, **kwargs):
        series = real_sweep(cloud, *args, **kwargs)
        sweeps.setdefault(id(cloud), []).append(series.values.astype(int).tolist())
        return series

    def count(cloud, eps, **kwargs):
        calls.append((id(cloud), len(cloud), eps))
        return real_count(cloud, eps, **kwargs)

    monkeypatch.setattr(experiments, "scale_sweep", sweep)
    monkeypatch.setattr(fd.metrics, "box_count", count)
    cfg = types.SimpleNamespace(scales=(j_min, j_max), methods=("box",), refine=4)
    experiments._estimates(cfg, "x", graph, image)
    return sweeps, calls


@pytest.mark.parametrize("scale, j_min, j_max", [
    (1.0, -2, 6),  # every scale packs
    (2.5, 14, 20),  # the graph is refused at j = 20, the image packs
    (1e6, 14, 20),  # both are refused at every scale
])
def test_paired_sweeps_count_the_oracle(monkeypatch, scale, j_min, j_max):
    # each cloud is swept once and counted once a scale; the image's counts,
    # from the graph's keys or, where the graph is refused, its own, are the
    # oracle's and those of its own sweep
    rng = np.random.default_rng(45)
    times = _grid_times("late", 150)
    values = rng.uniform(-1.0, 1.0, (150, 2)) * scale
    graph = PointCloud.from_points(np.column_stack([times, values]))
    image = PointCloud.from_points(values)
    sweeps, calls = _paired_counts(monkeypatch, image, graph, j_min, j_max)
    scales = [2.0**-j for j in range(j_max, j_min - 1, -1)]
    assert calls == [(id(cloud), 150, eps) for cloud in (graph, image) for eps in scales]
    for cloud, pts in ((graph, graph.points), (image, values)):
        expected = [brute_box_count(pts, 2.0**-j) for j in range(j_min, j_max + 1)]
        assert sweeps[id(cloud)] == [expected]
        assert fd.scale_sweep(cloud, "box", j_min, j_max).values.astype(int).tolist() == expected


def test_a_refused_scale_leaves_no_stacked_points_on_a_graph():
    # a 4-D graph whose keys are refused at j = 15 is counted there from the
    # floors of its columns, stacked for that count alone; packing and
    # sausage sweeps keep no stack either, and a cloud holds only its
    # columns and their bounds
    grid = fd.TimeGrid.uniform(131073)
    path = fd.apply_drift(fd.generate_bm(grid, 3, 1), fd.DriftSpec.linear([1.0, 2.0, 3.0]))
    cloud = fd.graph_cloud(path)
    assert kernels.box_keys(cloud.columns, 2.0**-15, cloud.bounds) is None
    swept = fd.scale_sweep(cloud, "box", 9, 15).values.astype(int).tolist()
    assert set(vars(cloud)) == {"columns", "bounds"}
    stacked = np.column_stack(cloud.columns)
    assert swept == [kernels.distinct_cell_count(kernels.cell_indices(stacked, 2.0**-j))
                     for j in range(9, 16)]
    small = fd.graph_cloud(fd.generate_bm(fd.TimeGrid.uniform(257), 1, 1))
    fd.scale_sweep(small, "packing", 2, 6)
    fd.scale_sweep(small, "sausage_volume", 2, 5)
    assert set(vars(small)) == {"columns", "bounds"}
