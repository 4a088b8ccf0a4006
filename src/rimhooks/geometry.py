"""Partitions, cells, hooks, diagonal regions, and the two total cell orders.

Cells are 1-indexed (row, column) pairs; row 1 is the top row and rows grow
southward, columns grow eastward. A partition is identified with its Young
diagram, the set of cells (i, j) with 1 <= i <= length and 1 <= j <= parts[i-1].

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import ge, index
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

Cell = tuple[int, int]

_CELL_RE = re.compile(r"^\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")


def north(u: Cell) -> Cell:
    return (u[0] - 1, u[1])


def east(u: Cell) -> Cell:
    return (u[0], u[1] + 1)


def south(u: Cell) -> Cell:
    return (u[0] + 1, u[1])


def west(u: Cell) -> Cell:
    return (u[0], u[1] - 1)


def content(u: Cell) -> int:
    """Diagonal index of a cell: column minus row."""
    return u[1] - u[0]


def format_cell(u: Cell) -> str:
    return f"({u[0]},{u[1]})"


def parse_cell(text: str) -> Cell:
    m = _CELL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"expected a cell of the form (i,j), got {text!r}")
    return (int(m.group(1)), int(m.group(2)))


def _parse_ints(tokens: Iterable[str], where: str) -> tuple[int, ...]:
    """The integers the tokens spell; the ValueError names the first bad token and `where`."""
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"{where}: expected an integer, got {tok!r}") from None
    return tuple(values)


def _require_int(value, what: str) -> int:
    """`value` as an int, without truncating, parsing or taking a bool for 0 or 1.

    The ValueError names `what`.
    """
    try:
        if type(value) is not bool:
            return index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} is not an integer")


def _json_fields(obj, what: str, *keys: str) -> list:
    """The values of `keys` in a JSON object; the ValueError names a missing key."""
    if not isinstance(obj, dict):
        *rest, last = map(repr, keys)
        listed = f"keys {', '.join(rest)} and {last}" if rest else f"key {last}"
        raise ValueError(f"expected a JSON object with the {listed}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"JSON {what} has no {key!r} key")
    return [obj[key] for key in keys]


def _is_json_ints(value) -> bool:
    """A JSON list of integers: true, 1.0 and "1" are not integers."""
    return isinstance(value, list) and all(type(v) is int for v in value)


def revlex_key(u: Cell):
    """Sort key realizing the reverse lexicographic order on cells.

    Later columns come first; within a column, lower rows come first.
    """
    return (-u[1], -u[0])


def content_key(u: Cell):
    """Sort key realizing the content order: larger content first, then lower rows."""
    return (-content(u), -u[0])


class Region(Enum):
    """Classification of the diagonals of a partition by its corner contents.

    Sorting the corner contents gives the interleaving
    o_1 < i_1 < o_2 < ... < i_r < o_{r+1} (outer corners o, inner corners i).
    A diagonal is INNER_DIAG or OUTER_DIAG when its content is a corner content,
    BAND_A when it lies below o_1 or between some i_k and o_{k+1}, and BAND_B
    when it lies between some o_k and i_k or above o_{r+1}. Rim-hooks continue
    east through INNER_DIAG and BAND_A cells and south through BAND_B and
    INNER_DIAG cells.
    """

    INNER_DIAG = "inner"
    OUTER_DIAG = "outer"
    BAND_A = "A"
    BAND_B = "B"


class Partition:
    """A weakly decreasing sequence of positive integers and its cell diagram."""

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        if not set(map(type, parts)) <= {int}:
            # other integer types convert through __index__; bools and the rest are refused
            parts = tuple([_require_int(p, f"part {p!r}") for p in parts])
        if not all(map(ge, parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive, got {parts}")
        self.parts = parts

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse the comma-separated text form; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        return cls(_parse_ints(text.split(","), f"shape {text!r}"))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __format__(self, spec: str) -> str:
        # how messages name a shape: the empty one as it is typed, `--shape ""`,
        # where `str` gives the empty text that `from_string` reads back
        return format(str(self) or '""', spec)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __contains__(self, u: Cell) -> bool:
        i, j = u
        return 1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def contents(self) -> range:
        """The content of every diagonal that meets the diagram, lowest first."""
        return range(1 - len(self.parts), self.row_length(1))

    def row_length(self, i: int) -> int:
        """Length of row i, 0 outside the diagram."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def col_length(self, j: int) -> int:
        """Length of column j (conjugate part), 0 outside the diagram."""
        conj = self._conjugate_parts
        return conj[j - 1] if 1 <= j <= len(conj) else 0

    @cached_property
    def _conjugate_parts(self) -> tuple[int, ...]:
        # bottom to top, row i adds one column of length i per cell it
        # extends past the rows below it
        conj: list[int] = []
        for i in range(len(self.parts), 0, -1):
            conj.extend([i] * (self.parts[i - 1] - len(conj)))
        return tuple(conj)

    def conjugate(self) -> "Partition":
        return Partition(self._conjugate_parts)

    def cells(self) -> Iterator[Cell]:
        """All cells in row-major order."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    @cached_property
    def revlex_cells(self) -> tuple[Cell, ...]:
        """All cells in reverse lexicographic order: columns east to west, each bottom to top."""
        conj = self._conjugate_parts
        return tuple(
            (i, j) for j in range(len(conj), 0, -1) for i in range(conj[j - 1], 0, -1)
        )

    def _require(self, u: Cell) -> None:
        if u not in self:
            raise ValueError(f"cell {format_cell(u)} lies outside the partition {self}")

    def hook_length(self, u: Cell) -> int:
        """Number of cells weakly east or weakly south of u inside the diagram."""
        self._require(u)
        i, j = u
        return self.parts[i - 1] + self.col_length(j) - i - j + 1

    @cached_property
    def _corner_cells(self) -> tuple[tuple[Cell, ...], tuple[Cell, ...]]:
        # Row i ends in an outer corner when the row below is shorter, and
        # then holds an inner corner above the end of that row when it is
        # not empty. Bottom to top is increasing content.
        inner, outer = [], []
        below = 0
        for i in range(len(self.parts), 0, -1):
            p = self.parts[i - 1]
            if below < p:
                outer.append((i, p))
                if below:
                    inner.append((i, below))
            below = p
        return tuple(inner), tuple(outer)

    def corners(self) -> tuple[tuple[Cell, ...], tuple[Cell, ...]]:
        """(inner corners, outer corners), each sorted by increasing content."""
        if not self.parts:
            raise ValueError("the empty partition has no corners")
        return self._corner_cells

    @cached_property
    def regions_by_content(self) -> Mapping[int, Region]:
        """The region of every diagonal of the diagram, keyed by content (read-only).

        Every cell (i, j) of the diagram lies in region `regions_by_content[j - i]`.
        `region` reads this map, and `frame` lays it out by position once; the
        bijection kernels read the `Frame` tables, not this map.
        """
        # One sweep up the contents: each diagonal up to the next corner is
        # band B after an outer corner, and band A after an inner one or
        # before the first corner.
        inner, outer = self._corner_cells
        contents = self.contents
        outer_diag, band_a, band_b = Region.OUTER_DIAG, Region.BAND_A, Region.BAND_B
        corner_kinds = [None] * len(contents)
        for i, j in outer:
            corner_kinds[j - i - contents.start] = outer_diag
        for i, j in inner:
            corner_kinds[j - i - contents.start] = Region.INNER_DIAG
        regions: dict[int, Region] = {}
        band = band_a
        for c, kind in zip(contents, corner_kinds):
            if kind is None:
                regions[c] = band
            else:
                regions[c] = kind
                band = band_b if kind is outer_diag else band_a
        return MappingProxyType(regions)

    @cached_property
    def frame(self) -> "Frame":
        """The bordered flat layout of this diagram that the bijection kernels share."""
        parts = self.parts
        n = len(parts)
        width = (parts[0] if parts else 0) + 2
        inner, outer = Region.INNER_DIAG, Region.OUTER_DIAG
        band_a, band_b = Region.BAND_A, Region.BAND_B
        # per diagonal, lowest content first; row i holds contents 1 - i to
        # p - i, the slice [n - i : n - i + p]
        regions = self.regions_by_content
        kinds = [regions[c] for c in self.contents]
        candidate = [r if r is outer or r is band_a else None for r in kinds]

        def by_row(per_content: list, border, outside) -> tuple:
            # `border` in row 0 and column 0, `outside` at the other positions off the diagram
            laid = [border] * width
            for i, p in enumerate(parts, start=1):
                laid.append(border)
                laid += per_content[n - i : n - i + p]
                laid += [outside] * (width - 1 - p)
            return tuple(laid + [border] + [outside] * (width - 1))

        # bottom to top along each candidate diagonal, largest content first;
        # (i, i + c) sits at i * step + c, and row `bottom` ends the diagonal
        step = width + 1
        order: list[int] = []
        bottom = 0
        for c in reversed(self.contents):
            while bottom < n and parts[bottom] - bottom - 1 >= c:
                bottom += 1
            if candidate[c + n - 1]:
                order += range(bottom * step + c, max(0, -c) * step + c, -step)
        return Frame(
            width,
            by_row([0] * len(kinds), 0, math.inf),
            by_row([True] * len(kinds), False, False),
            by_row([r is band_b or r is inner for r in kinds], False, False),
            by_row([r is inner or r is band_a for r in kinds], False, False),
            by_row(candidate, None, None),
            tuple(order),
        )

    @cached_property
    def _column_by_head_content(self) -> dict[int, int]:
        # Column j keyed by the content of its bottom cell. The rim-hook
        # anchored at (i, j) runs from that cell to the end of row i, one
        # content per cell, so its length is parts[i-1] - i + 1 minus the key.
        conj = self._conjugate_parts
        return {j - conj[j - 1]: j for j in range(1, len(conj) + 1)}

    def region(self, u: Cell) -> Region:
        self._require(u)
        return self.regions_by_content[content(u)]

    def rim_hook(self, u: Cell) -> "RimHook":
        """The rim-hook identified with the cell u.

        Its head sits at the bottom of u's column, its tail at the end of u's
        row, and it runs north-east along the rim (no cell of the diagram lies
        south-east of any of its cells).
        """
        self._require(u)
        i, j = u
        head = (self.col_length(j), j)
        tail = (i, self.parts[i - 1])
        cells = [head]
        cur = head
        while cur != tail:
            e = east(cur)
            if e in self and south(e) not in self:
                cur = e
            else:
                cur = north(cur)
            cells.append(cur)
        return RimHook(self, u, tuple(cells))

    def rim_hooks(self) -> list["RimHook"]:
        """All rim-hooks, smallest first in the rim-hook order."""
        return [self.rim_hook(u) for u in self.revlex_cells]

    @cached_property
    def _reduced(self) -> dict[Cell, "Partition"]:
        # remove_corner's results by corner, kept as long as this partition
        return {}

    def remove_corner(self, x: Cell) -> "Partition":
        """The partition with the outer corner x removed.

        The result is shared per (shape, corner): every call on this
        partition with the same x returns the same object, so its cached
        tables, `frame` among them, are built once.
        """
        _require_outer_corner(self.parts, *x)
        key = tuple(x)
        reduced = self._reduced.get(key)
        if reduced is None:
            parts = list(self.parts)
            parts[x[0] - 1] -= 1
            if parts[-1] == 0:
                parts.pop()
            reduced = self._reduced[key] = Partition(parts)
        return reduced


def _require_outer_corner(parts: Sequence[int], r: int, s: int) -> None:
    """Raise the ValueError "(r,s) is not an outer corner of <parts>" unless it is one.

    An outer corner ends its row, and the row below, if any, is shorter: O(1)
    on `parts`.
    """
    n = len(parts)
    if not (0 < r <= n and parts[r - 1] == s and (r == n or parts[r] < s)):
        shape = Partition(parts) if parts else "the empty diagram"
        raise ValueError(f"{format_cell((r, s))} is not an outer corner of {shape}")


@dataclass(frozen=True)
class Frame:
    """A diagram laid out row by row in one flat sequence with a one-cell border.

    Cell (i, j) sits at position i * width + j, where width is the first part
    plus 2. Positions run over rows 0 to length + 1 and columns 0 to
    width - 1, so the neighbours of a cell, p - 1 (west), p + 1 (east),
    p - width (north) and p + width (south), are always positions of the
    frame. A grid on the frame holds 0 in row 0 and column 0 and math.inf at
    every other position outside the diagram: the extended values, so no
    step needs a bounds test. The flag tables below are indexed by position
    and are false (None) outside the diagram. Factorizing is one pass along
    `candidate_order`: by the candidate-stability law, extracting at the
    content-minimal candidate makes no earlier cell a candidate, and the pass
    raises if one does, which it can tell only while that order is right.

    `Partition.frame` builds it row by row, with no per-position work: a
    row's cells lie on consecutive diagonals, so each flag table takes one
    slice per row of a list indexed by content, and `candidate_order` is one
    descending range of positions per candidate diagonal, with no sort.
    """

    width: int
    #: the zero filling on the frame, which every grid is laid out from
    zero: tuple[int | float, ...]
    #: whether the position is a cell of the diagram
    inside: tuple[bool, ...]
    #: band B or inner diagonal: where the insertion walk may step south
    south_step: tuple[bool, ...]
    #: inner diagonal or band A: where a path must continue east
    east_forced: tuple[bool, ...]
    #: OUTER_DIAG or BAND_A where a candidate may sit, None elsewhere
    candidate: tuple[Region | None, ...]
    #: the positions where a candidate may sit, in content order: the
    #: candidate diagonals from the largest content down, each bottom to top
    candidate_order: tuple[int, ...]


@dataclass(frozen=True)
class RimHook:
    """A rim-hook of a fixed shape, identified by its anchor cell.

    `cells` runs north-east from the head to the tail; the number of cells
    equals the hook length of the anchor. Identity is determined by the
    anchor (the cell set is derived from shape and anchor).
    """

    shape: Partition
    anchor: Cell
    cells: tuple[Cell, ...]

    @property
    def head(self) -> Cell:
        return self.cells[0]

    @property
    def tail(self) -> Cell:
        return self.cells[-1]

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, u: Cell) -> bool:
        return u in self.cells

    def __str__(self) -> str:
        return f"rim-hook {format_cell(self.anchor)} of {self.shape}"


def rim_hook_key(h: RimHook):
    """Sort key for the total order on rim-hooks of one shape."""
    return revlex_key(h.anchor)
