"""Corner peeling: the min-max corner toggle and the iterative peeling map.

Peeling removes one outer corner at a time. Each step records how far the
corner entry exceeds its north/west neighbours and toggles the remaining
entries of the corner's diagonal by a min-max reflection. The resulting
tableau coincides with the one produced by the lexicographic factorization;
the two code paths are kept fully independent so the equivalence is a genuine
differential test.
"""

from __future__ import annotations

import math
from typing import Callable

from .geometry import Cell, Partition, format_cell, north, west
from .rpp import Rpp, Tableau, _monotone_around

CornerChooser = Callable[[Partition], Cell]


def _is_outer_corner(parts: list[int], x: Cell) -> bool:
    """Whether x ends its row and the row below it, if any, is shorter."""
    r, s = x
    return 1 <= r <= len(parts) and parts[r - 1] == s and (r == len(parts) or parts[r] < s)


def _toggle(rows: list[list[int]], parts: list[int], x: Cell) -> list[Cell]:
    """Toggle x's diagonal in place and remove the outer corner x; returns the toggled cells.

    `rows` and `parts` hold the filling and its row lengths. The cells of the
    diagonal lie north-west of x, and their neighbours lie on the two adjacent
    diagonals, so every toggle reads untoggled values.
    """
    r, s = x
    diag = s - r
    toggled = []
    for i in range(max(1, 1 - diag), r):
        j = i + diag
        lo = min(
            rows[i - 1][j] if j < parts[i - 1] else math.inf,
            rows[i][j - 1] if i < len(parts) and j <= parts[i] else math.inf,
        )
        if lo == math.inf:
            raise RuntimeError(
                f"both east and south of {format_cell((i, j))} fall outside "
                f"{Partition(parts)}; cannot toggle"
            )
        hi = max(rows[i - 2][j - 1] if i > 1 else 0, rows[i - 1][j - 2] if j > 1 else 0)
        rows[i - 1][j - 1] = hi + lo - rows[i - 1][j - 1]
        toggled.append((i, j))
    rows[r - 1].pop()
    parts[r - 1] -= 1
    if not parts[r - 1]:
        rows.pop()
        parts.pop()
    return toggled


def corner_toggle(pi: Rpp, x: Cell) -> Rpp:
    """Remove the outer corner x and toggle the rest of its diagonal.

    Entries off the diagonal of x are copied unchanged. An entry u on that
    diagonal becomes max(north, west) + min(east, south) - value(u), with
    neighbours read through the extended lookup of the original filling. The
    min is always finite: u has a diagonal successor inside the original
    shape, so at least one of east/south exists.
    """
    reduced = pi.shape.remove_corner(x)
    rows = [list(row) for row in pi.rows]
    _toggle(rows, list(pi.shape.parts), x)
    return Rpp(reduced, rows)


def corner_is_tight(pi: Rpp, x: Cell) -> bool:
    """Whether the entry at the outer corner x equals max(north, west).

    Equivalently, whether the peeling map records a zero count at x.
    """
    _, outer = pi.shape.corners()
    if x not in outer:
        raise ValueError(f"{format_cell(x)} is not an outer corner of {pi.shape}")
    return pi.value(x) == max(pi.value_ext(*north(x)), pi.value_ext(*west(x)))


def peel_tableau(pi: Rpp, choose_corner: CornerChooser | None = None) -> Tableau:
    """Peel outer corners one at a time, recording one count per cell.

    The count at a corner x is value(x) - max(north, west); peeling then goes
    on with the toggled filling of the reduced shape. One grid is updated in
    place, so a corner costs the length of its diagonal. The result does not
    depend on the corner choices; by default the revlex-minimal outer corner
    is peeled so runs are deterministic, and corner independence is enforced
    by tests rather than by construction.
    """
    shape = pi.shape
    rows = [list(row) for row in pi.rows]
    parts = list(shape.parts)
    counts = [[0] * p for p in shape.parts]
    # The revlex-minimal outer corner is the bottom cell of the last column,
    # so by default the cells go in increasing revlex order.
    default_order = iter(shape.revlex_cells)
    while parts:
        if choose_corner is None:
            x = next(default_order)
        else:
            current = Partition(parts)
            x = choose_corner(current)
            if not _is_outer_corner(parts, x):
                raise ValueError(
                    f"chooser returned {format_cell(x)}, not an outer corner of {current}"
                )
        r, s = x
        above = rows[r - 2][s - 1] if r > 1 else 0
        left = rows[r - 1][s - 2] if s > 1 else 0
        counts[r - 1][s - 1] = rows[r - 1][s - 1] - max(above, left)
        toggled = _toggle(rows, parts, x)
        if not _monotone_around(rows, parts, toggled):
            Rpp(Partition(parts), rows)  # raises, naming the first offending cell
    return Tableau(shape, counts)
