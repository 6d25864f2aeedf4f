"""Tests of the benchmark's own code: span arithmetic, wrapper restoration
and a smoke-size pass of every workload."""

import json
import types

import pytest

import layers
import record
import run
import workloads
from hostspeed import Clock
from spans import Span, Tracer, covered, inherited, self_times


def _span(name, start, end, parent, **attrs):
    return Span(name, start, end, parent, "w", 0, attrs)


def test_self_time_on_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, -1, j=5),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0, j=8),
        _span("b.x", 5.0, 6.0, 3),
        _span("b.y", 6.5, 8.0, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert inherited(spans, "j") == [5, 5, 5, 8, 8, 8]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 10) == 0.0


def test_wrappers_restore_the_originals():
    targets = layers.targets()
    originals = [getattr(module, attr) for module, attr, *_ in targets]
    tracer = Tracer("w")
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert all(getattr(m, a) is not o
                       for (m, a, *_), o in zip(targets, originals))
            raise RuntimeError("boom")
    assert all(getattr(m, a) is o for (m, a, *_), o in zip(targets, originals))


def test_scoped_targets_record_only_under_their_ancestor():
    tracer = Tracer("w")
    inner = tracer.wrap("inner", lambda: None, under="outer")
    outer = tracer.wrap("outer", inner)
    inner()
    outer()
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]


def test_clock_cuts_at_ticks_and_restores_them():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    clock = Clock()
    clock.MIN_SEGMENT = 0.0
    with clock.timing([(module, "f")]):
        assert module.f is not original
        assert module.f(1) == 2
        after_tick = clock.raw
    assert module.f is original
    assert 0 < after_tick < clock.raw
    assert clock.scaled > 0


def _smoke(name, tmp_path, passes=2):
    reference = None
    if name == "claims":
        # the smoke claims run at the shipped config, so the seed-0 reference holds
        reference = json.loads(run.REFERENCE.read_text())["claims"]["0"]
    workload = workloads.WORKLOADS[name](0, smoke=True, scratch=tmp_path)
    checks = run.Checks(reference)
    tracer = Tracer(name)
    for pass_no in range(passes):
        if pass_no == 1:
            with tracer.installed(layers.targets()):
                checks.record(pass_no, *workload.run_pass())
        else:
            checks.record(pass_no, *workload.run_pass())
    return workload, checks, layers.layer_metrics(tracer.spans, 1)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_pass_has_no_errors(name, tmp_path):
    workload, checks, metrics = _smoke(name, tmp_path)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures
    assert sorted(metrics) == sorted(m for m, _ in layers.METRICS if m != "trace.overhead_s")
    if name == "claims":
        # the logical work count equals the points the box counter received
        assert metrics["metrics.box_count.points_in"]["value"] == workload.point_scales
        seeds = workload.config["experiments"]["cor14-bound"]["seeds"]
        assert metrics["experiments.seed_estimates.calls"]["value"] == len(seeds)


def test_a_changed_output_counts_as_an_error():
    checks = run.Checks(None)
    checks.record(0, {"a": "1"}, {"ok": True})
    checks.record(1, {"a": "2"}, {"ok": False})
    assert (checks.attempted, checks.failed) == (3, 2)


def test_kernels_agree_with_the_oracles():
    record.oracle_cross_check(0)
