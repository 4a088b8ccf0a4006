"""Corner peeling: the min-max corner toggle and the iterative peeling map.

Peeling removes one outer corner at a time, in an order given as the
sequence of cells to peel (by default `Partition.revlex_cells`). Each step
records how far the corner entry exceeds its north/west neighbours and
toggles the remaining entries of the corner's diagonal by a min-max
reflection. The resulting tableau does not depend on the order and
coincides with the one produced by the lexicographic factorization; the two
code paths are kept fully independent so the equivalence is a genuine
differential test.
"""

from __future__ import annotations

import math
from typing import Iterable

from .geometry import Cell, Partition, _require_outer_corner, format_cell
from .rpp import Rpp, Tableau, _from_frame, _to_frame


def _peel(grid: list, width: int, parts: list[int], corners: Iterable[Cell]) -> list:
    """Peel the outer corners `corners` one by one, in place; returns their counts.

    `grid` holds a reverse plane partition of the diagram `parts` laid out on
    a frame of this width (`Partition.frame`, of this diagram or a larger
    one): 0 in row 0 and column 0, math.inf at every other position outside
    the diagram. Each corner x, taken when the loop reaches it, must be an
    outer corner of `parts` as it then stands, or `_require_outer_corner`
    raises its ValueError. Its count, value(x) - max(north, west), is
    recorded at the position of x in a list laid out like `grid`; the rest
    of its diagonal is toggled; and removing x writes math.inf at its
    position and shortens its row in `parts`.

    The toggle walks the diagonal from x north-west. A cell's east and south
    neighbours are the north and west of the cell before it, so each step
    reads two neighbours and carries lo = min(east, south) forward. All of
    them lie on the two adjacent diagonals, so every toggle reads untoggled
    values. Along the diagonal lo weakly decreases and stays at least 0;
    once it is 0, every cell further north-west and its neighbours hold 0,
    where the toggle is the identity, so the walk stops. The first cell of
    the diagonal has the border 0 north or west of it, so the walk never
    leaves the diagram. The toggle maps [max(north, west), lo] onto itself,
    so the filling stays a reverse plane partition, corner by corner, and
    no value is tested.
    """
    inf = math.inf
    step = width + 1
    counts = [0] * len(grid)
    n = len(parts)  # the running row count of `_require_outer_corner`'s test, inline
    for r, s in corners:
        if not (0 < r <= n and parts[r - 1] == s and (r == n or parts[r] < s)):
            _require_outer_corner(parts, r, s)
        p = r * width + s
        above, left = grid[p - width], grid[p - 1]
        hi = above if above > left else left
        counts[p] = grid[p] - hi
        lo = above + left - hi
        grid[p] = inf
        while lo:
            p -= step
            above, left = grid[p - width], grid[p - 1]
            hi = above if above > left else left
            grid[p] = hi + lo - grid[p]
            lo = above + left - hi
        parts[r - 1] = s - 1
        if s == 1:  # a corner in column 1 ends the last row
            parts.pop()
            n -= 1
    return counts


def corner_toggle(pi: Rpp, x: Cell) -> Rpp:
    """Remove the outer corner x and toggle the rest of its diagonal.

    Entries off the diagonal of x are copied unchanged. An entry u on that
    diagonal becomes max(north, west) + min(east, south) - value(u), with
    neighbours read through the extended values of the original filling. The
    min is always finite: u has a diagonal successor inside the original
    shape, so at least one of east/south exists. The result's shape is
    `pi.shape.remove_corner(x)`, the one object that call returns.
    """
    shape = pi.shape
    width = shape.frame.width
    grid = _to_frame(shape, pi.rows)
    parts = list(shape.parts)
    _peel(grid, width, parts, (x,))
    # the toggle maps each diagonal entry's range onto itself (`_peel`)
    return Rpp._trusted(shape.remove_corner(x), _from_frame(grid, width, parts))


def peel_tableau(pi: Rpp, order: Iterable[Cell] | None = None) -> Tableau:
    """Peel outer corners one at a time, recording one count per cell.

    The count at a corner x is value(x) - max(north, west); peeling then goes
    on with the toggled filling of the reduced shape. `order` lists the cells
    in the sequence they are peeled: each must be an outer corner of what
    remains when its turn comes, and the order must empty the diagram, or a
    ValueError names the offending cell. The result does not depend on the
    order; corner independence is enforced by tests rather than by
    construction. The default, `shape.revlex_cells`, always peels the
    revlex-minimal outer corner (the bottom cell of the last column), so
    runs are deterministic. One grid is updated in place, and a corner's
    toggles stop at the first zero of min(east, south) north-west of it, so
    a corner costs the nonzero part of its diagonal.
    """
    shape = pi.shape
    width = shape.frame.width
    grid = _to_frame(shape, pi.rows)
    parts = list(shape.parts)
    counts = _peel(grid, width, parts, shape.revlex_cells if order is None else order)
    if parts:
        raise ValueError(
            f"order ends before {format_cell((len(parts), parts[-1]))}, "
            f"leaving {Partition(parts)} unpeeled"
        )
    # a corner of an ordered filling is at least its north and west (`_peel`)
    return Tableau._trusted(shape, _from_frame(counts, width, shape.parts))
