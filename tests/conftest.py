"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Iterator

import pytest
from hypothesis import strategies as st

from rimhooks import Partition, Rpp
from rimhooks.insertion import Factorization, LatticePath
from rimhooks.rpp import ShapedGrid

ACCEPTANCE_SHAPES = ((2, 2), (3, 2), (3, 3, 3), (4, 3, 1), (5, 2, 1, 1))


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def all_partitions(max_size: int) -> list[Partition]:
    """Every nonempty partition with at most max_size cells."""
    out = []
    for n in range(1, max_size + 1):
        out.extend(Partition(parts) for parts in partitions_of(n))
    return out


class IntLike:
    """An integer type other than int and bool: it converts through `__index__` only."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


partitions = st.lists(st.integers(1, 6), min_size=0, max_size=5).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@st.composite
def rpps(draw):
    shape = draw(partitions.filter(bool))
    grid = []
    for i, p in enumerate(shape.parts, start=1):
        row = []
        for j in range(1, p + 1):
            lo = row[-1] if row else 0
            if i > 1 and shape.parts[i - 2] >= j:
                lo = max(lo, grid[i - 2][j - 1])
            row.append(lo + draw(st.integers(0, 3)))
        grid.append(row)
    return Rpp(shape, grid)


#: the real trusted constructors, for the tests that check them against the validating ones
TRUSTED = {cls: cls.__dict__["_trusted"] for cls in (ShapedGrid, LatticePath, Factorization)}


@pytest.fixture(autouse=True)
def validate_kernel_results(monkeypatch):
    """Every test re-validates each kernel and stream result: each `_trusted` runs the full check."""
    for cls in TRUSTED:
        monkeypatch.setattr(cls, "_trusted", classmethod(lambda cls, *fields: cls(*fields)))


@pytest.fixture
def running_example() -> Rpp:
    return Rpp(Partition((4, 3, 1)), ((0, 1, 2, 3), (1, 2, 2), (1,)))


@pytest.fixture
def staircase_example() -> Rpp:
    return Rpp(Partition((3, 3, 3)), ((0, 0, 0), (0, 0, 0), (1, 1, 1)))


@pytest.fixture
def steep_example() -> Rpp:
    return Rpp(Partition((3, 3, 3)), ((1, 1, 4), (2, 3, 4), (4, 4, 4)))
