"""Reverse plane partitions and hook-count tableaux: sizes, traces,
candidates, and the frame layout the bijection kernels share."""

from __future__ import annotations

from operator import le
from typing import Iterable, Iterator, Sequence

from .geometry import (
    Cell,
    Partition,
    Region,
    _is_json_ints,
    _json_fields,
    _parse_ints,
    _require_int,
    format_cell,
)


class ShapedGrid:
    """A grid of non-negative integers filling the cells of a partition.

    Shared base for reverse plane partitions and for hook-count tableaux;
    handles storage, equality and the text/JSON forms.
    """

    def __init__(self, shape: Partition, rows: Iterable[Iterable[int]] = ()):
        ints = []
        for i, row in enumerate(rows, start=1):
            row = tuple(row)
            if not set(map(type, row)) <= {int}:
                # other integer types convert through __index__; bools and the rest are refused
                row = tuple(
                    _require_int(v, f"entry {v!r} at {format_cell((i, j))}")
                    for j, v in enumerate(row, start=1)
                )
            ints.append(row)
        rows = tuple(ints)
        if tuple(map(len, rows)) != shape.parts or (rows and min(map(min, rows)) < 0):
            # only on failure: find the first offending row or cell
            if len(rows) != shape.length:
                raise ValueError(
                    f"expected {shape.length} rows for shape {shape}, got {len(rows)}"
                )
            for i, (row, part) in enumerate(zip(rows, shape.parts), start=1):
                if len(row) != part:
                    raise ValueError(f"row {i} has {len(row)} entries, expected {part}")
                for j, v in enumerate(row, start=1):
                    if v < 0:
                        raise ValueError(f"negative entry {v} at {format_cell((i, j))}")
        self.shape = shape
        self.rows = rows

    @classmethod
    def _trusted(cls, shape: Partition, rows: tuple[tuple[int, ...], ...]):
        """A grid of `shape` holding `rows`, stored as given and checked for nothing.

        Only for code that certifies the grid itself: `rows` is a tuple of int
        tuples, one per part of `shape` and of its length, and for an Rpp
        weakly increasing along rows and columns. Each call site names what
        certifies it; user input goes through the constructor.
        """
        grid = object.__new__(cls)
        grid.shape = shape
        grid.rows = rows
        return grid

    @classmethod
    def zero(cls, shape: Partition):
        return cls(shape, tuple((0,) * p for p in shape.parts))

    def value(self, u: Cell) -> int:
        if u not in self.shape:
            raise ValueError(f"cell {format_cell(u)} lies outside the shape {self.shape}")
        return self.rows[u[0] - 1][u[1] - 1]

    @property
    def size(self) -> int:
        return sum(sum(row) for row in self.rows)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def entries(self) -> Iterator[tuple[Cell, int]]:
        for i, row in enumerate(self.rows, start=1):
            for j, v in enumerate(row, start=1):
                yield (i, j), v

    def with_path(self, cells: Iterable[Cell], delta: int):
        """A copy with `delta` added at every cell of `cells` (validated)."""
        grid = [list(row) for row in self.rows]
        parts, n = self.shape.parts, self.shape.length
        for i, j in cells:
            if not (0 < i <= n and 0 < j <= parts[i - 1]):  # `(i, j) in self.shape`, inline
                raise ValueError(
                    f"cell {format_cell((i, j))} lies outside the shape {self.shape}"
                )
            grid[i - 1][j - 1] += delta
        return type(self)(self.shape, grid)

    def __eq__(self, other) -> bool:
        # rows first: they differ far more often than shapes, which are often one object
        return (
            type(other) is type(self)
            and self.rows == other.rows
            and (self.shape is other.shape or self.shape == other.shape)
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.shape.parts, self.rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.shape.parts!r}, {self.rows!r})"

    # text form: one line per row, space-separated, left-justified to the shape
    def to_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)

    __str__ = to_text

    @classmethod
    def from_text(cls, text: str):
        lines = [line for line in text.splitlines() if line.strip()]
        rows = [_parse_ints(line.split(), f"row {i}") for i, line in enumerate(lines, start=1)]
        return cls(Partition(len(row) for row in rows), rows)

    def to_json_obj(self) -> dict:
        return {"shape": list(self.shape.parts), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json_obj(cls, obj: dict):
        shape, rows = _json_fields(obj, "grid", "shape", "rows")
        if not _is_json_ints(shape):
            raise ValueError("JSON key 'shape' must be a list of integers")
        if not (isinstance(rows, list) and all(map(_is_json_ints, rows))):
            raise ValueError("JSON key 'rows' must be a list of lists of integers")
        return cls(Partition(shape), rows)


class Rpp(ShapedGrid):
    """A filling of a partition that weakly increases along rows and columns."""

    def __init__(self, shape: Partition, rows: Iterable[Iterable[int]] = ()):
        super().__init__(shape, rows)
        rows = self.rows
        if all(all(map(le, row, row[1:])) for row in rows) and all(
            all(map(le, upper, lower)) for upper, lower in zip(rows, rows[1:])
        ):
            return
        # only on failure: find the first offending cell
        for (i, j), v in self.entries():
            if j > 1 and v < self.rows[i - 1][j - 2]:
                raise ValueError(
                    f"row not weakly increasing at {format_cell((i, j))}"
                )
            if i > 1 and j <= shape.parts[i - 2] and v < self.rows[i - 2][j - 1]:
                raise ValueError(
                    f"column not weakly increasing at {format_cell((i, j))}"
                )

    def trace(self, k: int) -> int:
        """Sum of the entries on diagonal k (0 when the diagonal is empty).

        It keeps its own loop, one addition per row and no list, rather than
        indexing `traces()`: its callers (`verify syt`, `check_syt_diagonals`,
        `rimhooks trace --k`) ask for one diagonal at a time, and building
        every sum for each of them measured a higher peak memory. A caller
        that reads every diagonal, such as `verify diag`, uses `traces()`.
        """
        total = 0
        for i, row in enumerate(self.rows, start=1):
            j = i + k
            if 1 <= j <= len(row):
                total += row[j - 1]
        return total

    def traces(self) -> list[int]:
        """Every diagonal sum in one pass over the rows, lowest content first.

        Entry p is `trace(shape.contents.start + p)`. Row i starts on diagonal
        1 - i, which sits at index (rows - i); the empty partition has none.
        """
        rows = self.rows
        out = [0] * len(self.shape.contents)
        for start, row in zip(range(len(rows) - 1, -1, -1), rows):
            for p, v in enumerate(row, start):
                out[p] += v
        return out

    def candidates(self) -> frozenset[Cell]:
        """Cells where an extraction path may start.

        An outer-diagonal cell qualifies when it exceeds its west neighbour;
        a band-A cell when it exceeds both its west and north neighbours
        (extended values, so first-column and first-row neighbours count as 0).
        """
        shape = self.shape
        frame = shape.frame
        grid = _to_frame(shape, self.rows)
        return frozenset(
            divmod(p, frame.width)
            for p in _candidates_among(shape, grid, frame.candidate_order)
        )

    def min_candidate(self) -> Cell | None:
        """The content-order minimum of the candidates, None for the zero filling."""
        shape = self.shape
        frame = shape.frame
        grid = _to_frame(shape, self.rows)
        p = next(_candidates_among(shape, grid, frame.candidate_order), None)
        return None if p is None else divmod(p, frame.width)


class Tableau(ShapedGrid):
    """An unconstrained grid of counts, encoding a multiset of rim-hooks.

    Entry t(u) is the multiplicity of the rim-hook anchored at u.
    """

    @property
    def weighted_size(self) -> int:
        """Total number of diagram cells covered by the encoded multiset."""
        # hook length of (i, j): parts[i-1] - i + 1 east of and at it, conj[j-1] - j below
        conj = self.shape._conjugate_parts
        return sum(
            v * (len(row) - i + 1 + c - j)
            for i, row in enumerate(self.rows, start=1)
            for j, (v, c) in enumerate(zip(row, conj), start=1)
            if v
        )

    def anchors(self) -> list[Cell]:
        """The multiset of anchors, weakly increasing in the rim-hook order."""
        out = []
        for i, j in self.shape.revlex_cells:
            out.extend([(i, j)] * self.rows[i - 1][j - 1])
        return out


def _to_frame(shape: Partition, rows: Iterable[Sequence[int]]) -> list:
    """The filling `rows` of `shape` laid out on `shape.frame`, as a new list.

    Row 0 and column 0 hold 0, and every other position outside the diagram
    holds math.inf: the extended values, which are only ever compared.
    """
    frame = shape.frame
    width = frame.width
    grid = list(frame.zero)
    p = width + 1
    for row in rows:
        grid[p : p + len(row)] = row
        p += width
    return grid


def _from_frame(grid: Sequence, width: int, parts: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The rows of the diagram `parts` read back from a frame of this width."""
    rows = []
    p = width + 1
    for part in parts:
        rows.append(tuple(grid[p : p + part]))
        p += width
    return tuple(rows)


def _candidates_among(shape: Partition, grid: Sequence, positions: Iterable[int]) -> Iterator[int]:
    """The positions among `positions` that hold a candidate of the filling `grid` of `shape`.

    `grid` is laid out on `shape.frame`, and `positions` are positions of that
    frame. They are yielded in the order given, and each is tested only when
    reached, against `grid` as it then stands. Positions outside the diagram
    are never candidates. Each test reads only the cell and its west and
    north neighbours, which the frame's border supplies as 0 in the first row
    and column.
    """
    frame = shape.frame
    width, kinds = frame.width, frame.candidate
    outer = Region.OUTER_DIAG
    for p in positions:
        kind = kinds[p]
        if kind and (v := grid[p]) > grid[p - 1] and (kind is outer or v > grid[p - width]):
            yield p
