"""Paper definitions that the tests compare the kernels against.

Each is written from its definition, on the public API, rather than on the
frame the kernels share.
"""

from __future__ import annotations

import math

from rimhooks import (
    Cell,
    Partition,
    RimHook,
    Rpp,
    content_key,
    extraction_path,
    is_compatible,
    north,
    rim_hook_of_path,
    west,
)
from rimhooks.geometry import _require_outer_corner
from rimhooks.rpp import ShapedGrid


def value_ext(grid: ShapedGrid, i: int, j: int) -> int | float:
    """Entry of `grid` at (i, j) with the boundary conventions.

    0 when i <= 0 or j <= 0; math.inf when (i, j) is east or south of the
    diagram; the stored entry otherwise. The values are only compared.
    """
    if i <= 0 or j <= 0:
        return 0
    if (i, j) not in grid.shape:
        return math.inf
    return grid.rows[i - 1][j - 1]


def is_factor(hook: RimHook, pi: Rpp) -> bool:
    """Whether some reverse plane partition maps to `pi` under inserting `hook`."""
    if hook.shape != pi.shape:
        raise ValueError(f"hook shape {hook.shape} does not match {pi.shape}")
    for v in pi.candidates():
        path = extraction_path(v, pi)
        if rim_hook_of_path(path, pi.shape).anchor != hook.anchor:
            continue
        if not is_compatible(path, pi):
            continue
        try:
            pi.with_path(path, -1)
        except ValueError:
            continue
        return True
    return False


def extract_min(pi: Rpp) -> tuple[RimHook, Rpp] | None:
    """Extract the rim-hook at the content-minimal candidate, or None at zero."""
    candidates = pi.candidates()
    if not candidates:
        return None
    path = extraction_path(min(candidates, key=content_key), pi)
    return rim_hook_of_path(path, pi.shape), pi.with_path(path, -1)


def corner_is_tight(pi: Rpp, x: Cell) -> bool:
    """Whether the entry at the outer corner x equals max(north, west).

    Equivalently, whether the peeling map records a zero count at x.
    """
    _require_outer_corner(pi.shape.parts, *x)
    return pi.value(x) == max(value_ext(pi, *north(x)), value_ext(pi, *west(x)))


def rectangle_cells(shape: Partition, k: int) -> tuple[Cell, ...]:
    """Cells weakly north-west of the south-easternmost content-k cell."""
    diagonal = [(i, j) for i, j in shape.cells() if j - i == k]
    if not diagonal:
        return ()
    a, b = max(diagonal)
    return tuple((i, j) for i in range(1, a + 1) for j in range(1, b + 1))
