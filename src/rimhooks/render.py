"""ASCII and SVG rendering of shapes, fillings and paths. Output only."""

from __future__ import annotations

from typing import Iterable, Sequence

from .geometry import Cell, Partition
from .rpp import Rpp, ShapedGrid


def ascii_grid(grid: ShapedGrid, highlight: Iterable[Cell] = ()) -> str:
    """Aligned rows of entries; highlighted cells are wrapped in brackets."""
    marked = set(highlight)
    width = max((len(str(v)) for _, v in grid.entries()), default=1)
    lines = []
    for i, row in enumerate(grid.rows, start=1):
        cells = []
        for j, v in enumerate(row, start=1):
            text = str(v).rjust(width)
            cells.append(f"[{text}]" if (i, j) in marked else f" {text} ")
        lines.append("".join(cells).rstrip())
    return "\n".join(lines)


def ascii_rpp(pi: Rpp, highlight: Iterable[Cell] = ()) -> str:
    """Grid plus one annotation line per diagonal with its trace."""
    body = ascii_grid(pi, highlight)
    traces = "  ".join(f"k={k}:{t}" for k, t in zip(pi.shape.contents, pi.traces()))
    if not traces:
        return body
    return f"{body}\ndiagonal traces: {traces}"


def ascii_shape(shape: Partition, marked: Iterable[Cell] = ()) -> str:
    """The diagram with '#' on marked cells and '.' elsewhere."""
    cells = set(marked)
    lines = []
    for i, p in enumerate(shape.parts, start=1):
        lines.append(" ".join("#" if (i, j) in cells else "." for j in range(1, p + 1)))
    return "\n".join(lines)


_SVG_CELL = 36
_SVG_GAP = _SVG_CELL // 2  # between drawings stacked in one document


def _svg_stride(shape: Partition) -> int:
    """The height of one drawing of the shape plus the gap below it."""
    return max(shape.length, 1) * _SVG_CELL + 2 + _SVG_GAP


def _svg_header(shape: Partition, copies: int = 1) -> list[str]:
    """The root tag of a document of `copies` drawings of the shape, stacked top to bottom."""
    width = (shape.parts[0] if shape else 1) * _SVG_CELL + 2
    height = max(copies, 1) * _svg_stride(shape) - _SVG_GAP
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]


def _svg_cell(u: Cell, fill: str, text: str | None = None) -> list[str]:
    """The square of the cell u filled with `fill`, with `text` centred in it when given."""
    i, j = u
    x, y = (j - 1) * _SVG_CELL + 1, (i - 1) * _SVG_CELL + 1
    out = [
        f'<rect x="{x}" y="{y}" width="{_SVG_CELL}" height="{_SVG_CELL}" '
        f'fill="{fill}" stroke="black"/>'
    ]
    if text is not None:
        out.append(
            f'<text x="{x + _SVG_CELL // 2}" y="{y + _SVG_CELL // 2}" '
            f'text-anchor="middle" dominant-baseline="central" '
            f'font-family="monospace" font-size="14">{text}</text>'
        )
    return out


def svg_grid(grid: ShapedGrid, highlight: Iterable[Cell] = ()) -> str:
    """An SVG drawing of the grid with highlighted cells filled."""
    marked = set(highlight)
    out = _svg_header(grid.shape)
    for u, v in grid.entries():
        out += _svg_cell(u, "#ffd47f" if u in marked else "white", str(v))
    out.append("</svg>")
    return "\n".join(out)


def svg_shapes(shape: Partition, markings: Sequence[Iterable[Cell]]) -> str:
    """One SVG document with a drawing of the bare diagram per marking.

    The drawings are stacked top to bottom, each in its own `<g>` group,
    with the marked cells filled.
    """
    out = _svg_header(shape, len(markings))
    step = _svg_stride(shape)
    for k, marked in enumerate(markings):
        cells = set(marked)
        out.append(f'<g transform="translate(0,{k * step})">')
        for u in shape.cells():
            out += _svg_cell(u, "#9fc5e8" if u in cells else "white")
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out)
