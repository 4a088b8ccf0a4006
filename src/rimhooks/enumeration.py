"""Exhaustive oracles: all fillings of a shape up to a size bound, all hook
tableaux up to a weighted-size bound, and all south-west paths of a given
length. Streams are duplicate-free, complete, and deterministically ordered,
so the property suites can rely on them as ground truth. The filling and
tableau streams share one iterative generator, `_grids`, and each knows its
exact length in advance from the hook-product formula (Stanley, "Theory and
applications of plane partitions", 1971): it checks that length against the
budget when the stream is opened, and against the items made when it ends.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, TypeVar

from .geometry import Cell, Partition, format_cell, south, west
from .insertion import LatticePath
from .rpp import Rpp, Tableau

DEFAULT_CEILING = 10_000_000

T = TypeVar("T")


class BudgetExceededError(RuntimeError):
    """Raised instead of silently truncating an enumeration.

    `projected` is the exact item count, or in words what the enumeration
    would need when that count was not worth computing.
    """

    def __init__(self, what: str, projected: int | str, ceiling: int):
        need = f"yield {projected} items" if isinstance(projected, int) else projected
        super().__init__(f"enumerating {what} would {need}, over the ceiling {ceiling}")
        self.what = what
        self.projected = projected
        self.ceiling = ceiling

    def __reduce__(self):
        # a `verify --jobs` worker sends the error back pickled, and the default
        # rebuilds it from the message alone, which this constructor refuses
        return type(self), (self.what, self.projected, self.ceiling)


def _counts_by_size(shape: Partition, bound: int) -> list[int]:
    # coefficient list of prod_u 1/(1 - q^{hook(u)}) up to q^bound; counts both
    # fillings by size and hook tableaux by weighted size
    coeffs = [1] + [0] * bound
    for u in shape.cells():
        h = shape.hook_length(u)
        for n in range(h, bound + 1):
            coeffs[n] += coeffs[n - h]
    return coeffs


def projected_rpp_count(shape: Partition, bound: int) -> int:
    return sum(_counts_by_size(shape, bound))


def _grids(
    shape: Partition,
    bound: int,
    weights: Sequence[int] | None = None,
    monotone: bool = False,
) -> Iterator[list[list[int]]]:
    """Every grid of non-negative entries on the shape whose weighted sum is at most `bound`.

    `weights` holds one weight per cell in row-major order (all 1 when None);
    with `monotone` the entries weakly increase along rows and columns. Grids
    come in row-major lexicographic order. The walk is an odometer over the
    cells, so its depth is not limited by the shape. The same list is yielded
    every time and changed afterwards: copy it before the next step.
    """
    cells = [(i, j) for i, p in enumerate(shape.parts) for j in range(p)]
    weights = weights or [1] * len(cells)
    grid = [[0] * p for p in shape.parts]
    # used[k]: weighted sum of the cells before cell k
    used = [0] * (len(cells) + 1)
    k = 0
    while True:
        # give the cells from k on their least values while the bound allows
        while k < len(cells):
            i, j = cells[k]
            v = 0
            if monotone:
                v = max(grid[i][j - 1] if j else 0, grid[i - 1][j] if i else 0)
            total = used[k] + v * weights[k]
            if total > bound:
                break
            grid[i][j] = v
            used[k + 1] = total
            k += 1
        else:
            yield grid
        # step the last cell that can still grow, dropping the cells after it
        while k:
            k -= 1
            i, j = cells[k]
            total = used[k] + (grid[i][j] + 1) * weights[k]
            if total <= bound:
                grid[i][j] += 1
                used[k + 1] = total
                k += 1
                break
        else:
            return


def _budget(what: str, projected: int, ceiling: int) -> int:
    if projected > ceiling:
        raise BudgetExceededError(what, projected, ceiling)
    return projected


def _grid_budget(what: str, shape: Partition, bound: int, ceiling: int) -> int:
    """The item count of the fillings or hook tableaux of `shape` up to `bound`, if within budget.

    A bound at the ceiling is refused before the count table, of bound + 1
    entries, is built. A nonempty shape has more than `bound` of each (n at
    an outer corner, whose hook length is 1, and 0 elsewhere); the empty
    shape has one of each, but its table would be as long.
    """
    if bound >= ceiling:
        need = f"yield more than {bound} items"
        if not shape.size:
            need = f"need a count table of {bound + 1} entries"
        raise BudgetExceededError(what, need, ceiling)
    return _budget(what, projected_rpp_count(shape, bound), ceiling)


def _exact_stream(
    make: Callable[[Partition, tuple[tuple[int, ...], ...]], T],
    shape: Partition,
    bound: int,
    expected: int,
    what: str,
    weights: Sequence[int] | None = None,
    monotone: bool = False,
) -> Iterator[T]:
    made = 0
    for rows in _grids(shape, bound, weights, monotone):
        # `make` is `_trusted`: `_grids` lays the rows out by the shape with
        # non-negative entries, weakly increasing both ways when `monotone`
        yield make(shape, tuple([tuple(row) for row in rows]))
        made += 1
    if made != expected:
        raise RuntimeError(
            f"enumerating {what} up to {bound} gave {made} items, "
            f"but the hook-product count is {expected}"
        )


def enumerate_rpps(
    shape: Partition, bound: int, *, ceiling: int = DEFAULT_CEILING
) -> Iterator[Rpp]:
    """Every reverse plane partition of the shape with size at most `bound`.

    Emitted exactly once each, in row-major lexicographic order of the entry
    grids. The stream has exactly `projected_rpp_count(shape, bound)` items,
    Stanley's hook-product count: the call raises BudgetExceededError, before
    any item is made, when that count is over the ceiling (at once, without
    counting, when `bound` is at the ceiling or above), and a stream read
    to its end raises RuntimeError if its length differs from it. Nothing is
    held between items, so a reader that keeps nothing runs in constant
    memory.
    """
    what = f"fillings of {shape}"
    expected = _grid_budget(what, shape, bound, ceiling)
    return _exact_stream(Rpp._trusted, shape, bound, expected, what, monotone=True)


def enumerate_tableaux(
    shape: Partition, bound: int, *, ceiling: int = DEFAULT_CEILING
) -> Iterator[Tableau]:
    """Every hook tableau with weighted size at most `bound`, exactly once.

    Weighted size is the count at each cell times that cell's hook length.
    Same ordering, length, budget and count-check conventions as
    enumerate_rpps; the two streams always have equal cardinality.
    """
    what = f"hook tableaux of {shape}"
    expected = _grid_budget(what, shape, bound, ceiling)
    weights = [shape.hook_length(u) for u in shape.cells()]
    return _exact_stream(Tableau._trusted, shape, bound, expected, what, weights)


def enumerate_sw_paths(
    shape: Partition, tail: Cell, length: int, *, ceiling: int = DEFAULT_CEILING
) -> Iterator[LatticePath]:
    """All south-west paths inside the shape with the given tail and cell count.

    Deterministic order: at each step the south branch is explored before the
    west branch. The arguments and the budget are checked at the call, before
    any path is made.
    """
    if tail not in shape:
        raise ValueError(f"tail {format_cell(tail)} lies outside {shape}")
    if length < 1:
        raise ValueError("a path needs at least one cell")
    _budget(f"paths of {length} cells", 2 ** (length - 1), ceiling)
    prefix = [tail]

    def extend() -> Iterator[LatticePath]:
        if len(prefix) == length:
            yield LatticePath(tuple(prefix))
            return
        for step in (south, west):
            nxt = step(prefix[-1])
            if nxt in shape:
                prefix.append(nxt)
                yield from extend()
                prefix.pop()

    return extend()
