"""Fixtures shared by the kernel and metric tests."""

import pytest


@pytest.fixture
def checked_union(monkeypatch):
    """Every ``kernels._union`` call first checks that each of its runs has
    ``start <= end``, as both callers (the sausage and the step-graph box
    count) promise, since the union is exact only for runs with ``start <=
    end + 1``.  Yields the sizes of the calls made; a test that makes none
    fails, as it checked nothing."""
    from fracdim import kernels

    union, calls = kernels._union, []

    def checking(start, end):
        assert (start <= end).all()
        calls.append(start.size)
        return union(start, end)

    monkeypatch.setattr(kernels, "_union", checking)
    yield calls
    assert calls
