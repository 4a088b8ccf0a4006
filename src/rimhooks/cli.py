"""Command-line front end.

Every subcommand reads grids from stdin (or --in) and writes to stdout (or
--out). Exit status: 0 on success, 1 with a diagnostic on domain and I/O
errors (JSON shaped under --format json), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from . import classical, peeling, render
from .enumeration import (
    BudgetExceededError,
    DEFAULT_CEILING,
    enumerate_rpps,
    enumerate_tableaux,
)
from .geometry import Partition, _json_fields, content_key, format_cell, parse_cell
from .insertion import (
    Factorization,
    InsertionFailure,
    _extractions,
    build,
    factorize,
    try_insert,
)
from .rpp import Rpp, Tableau
from .series import gansner_product, hook_product, rpp_series, trace_series
from .verify import SUITE_NAMES, VerifyConfig, run_suites


class DomainError(Exception):
    pass


def _read_input(args):
    """The input text, or under --format json the JSON value it holds."""
    if getattr(args, "infile", None):
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    if args.format == "json":
        try:
            return json.loads(text)
        except RecursionError:  # the parser's nesting limit; `run` lets any other one propagate
            raise DomainError("the JSON input is nested too deeply to read") from None
    if text.lstrip().startswith("{"):
        raise DomainError("the input looks like JSON; pass --format json to read it")
    return text


def _write_output(args, text: str) -> None:
    if getattr(args, "outfile", None):
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_grid(args, cls):
    """The input grid as a `cls`, checked against --shape when it is given.

    A --perm, which only the tableau-reading subcommands take, replaces the
    input with its permutation matrix.
    """
    if getattr(args, "perm", None):
        value = classical.permutation_matrix(args.perm)
    else:
        data = _read_input(args)
        value = cls.from_json_obj(data) if args.format == "json" else cls.from_text(data)
    shape = _shape_arg(args, required=False)
    if shape is not None and value.shape != shape:
        raise DomainError(f"input has shape {value.shape}, expected {shape}")
    return value


def _shape_arg(args, required: bool = True) -> Partition | None:
    text = getattr(args, "shape", None)
    if text is None:
        if required:
            raise DomainError("this subcommand requires --shape")
        return None
    return Partition.from_string(text)


def _emit_obj(args, obj, text: str) -> None:
    if args.format == "json":
        _write_output(args, json.dumps(obj))
    else:
        _write_output(args, text)


# ------------------------------------------------------------- subcommands


def cmd_info(args) -> int:
    shape = _shape_arg(args)
    if not shape:
        raise DomainError("the empty partition has no cells to describe")
    inner, outer = shape.corners()
    hooks = {format_cell(u): shape.hook_length(u) for u in shape.cells()}
    regions = {format_cell(u): shape.region(u).value for u in shape.cells()}
    revlex_rank = {
        format_cell(u): n
        for n, u in enumerate(shape.revlex_cells, start=1)
    }
    content_rank = {
        format_cell(u): n
        for n, u in enumerate(sorted(shape.cells(), key=content_key), start=1)
    }
    obj = {
        "shape": list(shape.parts),
        "conjugate": list(shape.conjugate().parts),
        "hook_lengths": hooks,
        "inner_corners": [format_cell(u) for u in inner],
        "outer_corners": [format_cell(u) for u in outer],
        "regions": regions,
        "revlex_rank": revlex_rank,
        "content_rank": content_rank,
    }
    lines = [
        f"shape: {shape}",
        f"conjugate: {shape.conjugate()}",
        f"inner corners: {' '.join(format_cell(u) for u in inner) or '(none)'}",
        f"outer corners: {' '.join(format_cell(u) for u in outer)}",
        "hook lengths:",
        render.ascii_grid(_grid_of(shape, shape.hook_length)),
        "regions:",
        *(
            " ".join(shape.region((i, j)).value.ljust(5) for j in range(1, p + 1)).rstrip()
            for i, p in enumerate(shape.parts, start=1)
        ),
        "reverse lexicographic ranks:",
        render.ascii_grid(_grid_of(shape, lambda u: revlex_rank[format_cell(u)])),
        "content ranks:",
        render.ascii_grid(_grid_of(shape, lambda u: content_rank[format_cell(u)])),
    ]
    _emit_obj(args, obj, "\n".join(lines))
    return 0


def _grid_of(shape: Partition, fn) -> Tableau:
    return Tableau(shape, [[fn((i, j)) for j in range(1, p + 1)] for i, p in enumerate(shape.parts, start=1)])


def cmd_rimhooks(args) -> int:
    shape = _shape_arg(args)
    hooks = shape.rim_hooks()
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render.svg_shapes(shape, [hook.cells for hook in hooks]) + "\n")
    obj = [
        {
            "anchor": format_cell(h.anchor),
            "head": format_cell(h.head),
            "tail": format_cell(h.tail),
            "cells": [format_cell(u) for u in h.cells],
        }
        for h in hooks
    ]
    blocks = []
    if args.format == "text":  # one picture of the whole diagram per hook
        for h in hooks:
            blocks.append(f"anchor {format_cell(h.anchor)} ({len(h)} cells)")
            blocks.append(render.ascii_shape(shape, h.cells))
    _emit_obj(args, obj, "\n".join(blocks))
    return 0


def cmd_validate(args) -> int:
    pi = _read_grid(args, Rpp)
    _emit_obj(
        args,
        {"valid": True, "shape": list(pi.shape.parts), "size": pi.size},
        f"valid reverse plane partition of shape {pi.shape}, size {pi.size}",
    )
    return 0


def cmd_trace(args) -> int:
    pi = _read_grid(args, Rpp)
    if args.k is not None:
        _emit_obj(args, {"k": args.k, "trace": pi.trace(args.k)}, str(pi.trace(args.k)))
        return 0
    traces = {str(k): t for k, t in zip(pi.shape.contents, pi.traces())}
    text = "\n".join(f"{k}: {v}" for k, v in traces.items())
    _emit_obj(args, traces, text)
    return 0


def cmd_candidates(args) -> int:
    pi = _read_grid(args, Rpp)
    cells = sorted(pi.candidates(), key=content_key)
    _emit_obj(
        args,
        [format_cell(u) for u in cells],
        "\n".join(format_cell(u) for u in cells),
    )
    return 0


def cmd_insert(args) -> int:
    pi = _read_grid(args, Rpp)
    anchor = parse_cell(args.hook)
    if anchor not in pi.shape:
        raise DomainError(f"anchor {args.hook} lies outside the shape {pi.shape}")
    result = try_insert(pi.shape.rim_hook(anchor), pi)
    if isinstance(result, InsertionFailure):
        if args.format != "json":
            raise DomainError(str(result))
        obj = {
            "inserted": False,
            "witness": format_cell(result.witness),
            "path": [format_cell(u) for u in result.path],
            "error": str(result),
        }
        _write_output(args, json.dumps(obj))
        return 1
    if args.format == "json":
        _write_output(args, json.dumps({"inserted": True, "result": result.to_json_obj()}))
    else:
        _write_output(args, result.to_text())
    return 0


def cmd_factorize(args) -> int:
    pi = _read_grid(args, Rpp)
    if args.paths:
        width = pi.shape.frame.width
        steps = [
            (anchor, [divmod(p, width) for p in path]) for anchor, path, _ in _extractions(pi)
        ]
        fact = Factorization(pi.shape, tuple(anchor for anchor, _ in steps))
    else:
        steps = []
        fact = factorize(pi)
    tableau = fact.to_tableau()
    obj = {
        "anchors": [format_cell(u) for u in fact.anchors],
        "tableau": tableau.to_json_obj(),
    }
    lines = [fact.to_text(), "", tableau.to_text()] if fact.anchors else [tableau.to_text()]
    if steps:
        obj["paths"] = [
            {"anchor": format_cell(a), "path": [format_cell(u) for u in p]}
            for a, p in steps
        ]
        lines.append("")
        for a, p in steps:
            lines.append(f"extract {format_cell(a)} along {' '.join(map(format_cell, p))}")
    _emit_obj(args, obj, "\n".join(lines))
    return 0


def cmd_build(args) -> int:
    t = _read_grid(args, Tableau)
    pi = build(t)
    _emit_obj(args, pi.to_json_obj(), pi.to_text())
    return 0


def cmd_xi(args) -> int:
    pi = _read_grid(args, Rpp)
    t = peeling.peel_tableau(pi)
    _emit_obj(args, t.to_json_obj(), t.to_text())
    return 0


def cmd_zeta(args) -> int:
    pi = _read_grid(args, Rpp)
    corner = parse_cell(args.corner)
    toggled = peeling.corner_toggle(pi, corner)
    _emit_obj(args, toggled.to_json_obj(), toggled.to_text())
    return 0


def cmd_hg(args) -> int:
    pi = _read_grid(args, Rpp)
    t = classical.hg(pi)
    _emit_obj(args, t.to_json_obj(), t.to_text())
    return 0


def cmd_hg_inv(args) -> int:
    t = _read_grid(args, Tableau)
    pi = classical.hg_inv(t)
    _emit_obj(args, pi.to_json_obj(), pi.to_text())
    return 0


def cmd_rsk(args) -> int:
    t = _read_grid(args, Tableau)
    pair = classical.rsk(t)
    obj = {"p": pair.p.to_json_obj(), "q": pair.q.to_json_obj()}
    _emit_obj(args, obj, f"{pair.p.to_text()}\n\n{pair.q.to_text()}")
    return 0


def cmd_rsk_inv(args) -> int:
    data = _read_input(args)
    if args.format == "json":
        p, q = _json_fields(data, "pair", "p", "q")
        pair = classical.SsytPair(Rpp.from_json_obj(p), Rpp.from_json_obj(q))
    else:
        first, _, second = data.partition("\n\n")
        if not second.strip():
            raise DomainError("expected two grids separated by a blank line")
        pair = classical.SsytPair(Rpp.from_text(first), Rpp.from_text(second))
    shape = _shape_arg(args, required=False)
    t = classical.rsk_inv(pair, shape)
    _emit_obj(args, t.to_json_obj(), t.to_text())
    return 0


def cmd_diag(args) -> int:
    pi = _read_grid(args, Rpp)
    mu = classical.diag_partition(pi, args.k)
    _emit_obj(args, list(mu.parts), str(mu))
    return 0


def cmd_gk(args) -> int:
    t = _read_grid(args, Tableau)
    value = classical.gk_chain_max(t, args.k, args.r, args.kind)
    _emit_obj(args, {"max": value}, str(value))
    return 0


_SERIES = {
    "hook-product": hook_product,
    "rpp": rpp_series,
    "trace-product": gansner_product,
    "trace": trace_series,
}


def cmd_series(args) -> int:
    series = _SERIES[args.which](_shape_arg(args), args.degree)
    _emit_obj(args, series.to_json_obj(), series.to_text())
    return 0


def cmd_verify(args) -> int:
    # each flag's dest is the VerifyConfig field it sets
    fields = {f.name for f in dataclasses.fields(VerifyConfig)}
    settings = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if "shapes" in settings:
        settings["shapes"] = tuple(Partition.from_string(s).parts for s in settings["shapes"])
    config = VerifyConfig(**settings)
    results = run_suites([args.suite], config, jobs=args.jobs)
    ok = all(r.passed for r in results)
    if args.format == "json":
        obj = [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        _write_output(args, json.dumps(obj))
    else:
        _write_output(args, "\n".join(r.line() for r in results))
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    shape = _shape_arg(args)
    if args.what == "rpps":
        stream = enumerate_rpps(shape, args.bound, ceiling=args.ceiling)
    else:
        stream = enumerate_tableaux(shape, args.bound, ceiling=args.ceiling)
    out = sys.stdout if not args.outfile else open(args.outfile, "w", encoding="utf-8")
    try:
        for item in stream:
            out.write(json.dumps(item.to_json_obj()) + "\n")
    finally:
        if args.outfile:
            out.close()
    return 0


def cmd_render(args) -> int:
    pi = _read_grid(args, Rpp)
    highlight = [parse_cell(tok) for tok in (args.highlight or [])]
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render.svg_grid(pi, highlight) + "\n")
    _write_output(args, render.ascii_rpp(pi, highlight))
    return 0


# --------------------------------------------------------------- parser


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _add_io(p, needs_shape=False, shape_required=False):
    p.add_argument("--in", dest="infile", metavar="PATH", help="read input from a file")
    p.add_argument("--out", dest="outfile", metavar="PATH", help="write output to a file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if needs_shape:
        p.add_argument(
            "--shape",
            required=shape_required,
            help="comma separated parts, e.g. 4,3,1",
        )


class _Unbuilt:
    """Stands in for a subcommand parser that `make_parser` leaves out: takes its arguments."""

    def add_argument(self, *args, **kwargs) -> None:
        pass

    set_defaults = add_argument


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, or one that builds only the parser of the subcommand `command`.

    Both print the same usage, help and errors on a command line that starts
    with `command`. A name that is no subcommand's gets the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="rimhooks",
        description="Rim-hook insertion, factorization, peeling, classical "
        "correspondences and exact series checks for reverse plane partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = []

    def add_parser(name: str, **kwargs):
        names.append(name)
        return sub.add_parser(name, **kwargs) if command in (None, name) else _Unbuilt()

    p = add_parser("info", help="hooks, corners, regions and both cell orders")
    _add_io(p, needs_shape=True, shape_required=True)
    p.set_defaults(fn=cmd_info)

    p = add_parser("rimhooks", help="list the rim-hooks in increasing order")
    _add_io(p, needs_shape=True, shape_required=True)
    p.add_argument("--svg", metavar="PATH", help="also write an SVG rendering")
    p.set_defaults(fn=cmd_rimhooks)

    p = add_parser("validate", help="check a grid and report shape and size")
    _add_io(p, needs_shape=True)
    p.set_defaults(fn=cmd_validate)

    p = add_parser("trace", help="diagonal sums of a filling")
    _add_io(p, needs_shape=True)
    p.add_argument("--k", type=int, help="a single diagonal (default: all)")
    p.set_defaults(fn=cmd_trace)

    p = add_parser("candidates", help="extraction starting cells, minimal first")
    _add_io(p, needs_shape=True)
    p.set_defaults(fn=cmd_candidates)

    p = add_parser("insert", help="insert one rim-hook into a filling")
    _add_io(p, needs_shape=True)
    p.add_argument("--hook", required=True, metavar="(i,j)", help="anchor of the rim-hook")
    p.set_defaults(fn=cmd_insert)

    p = add_parser("factorize", help="lexicographic factorization of a filling")
    _add_io(p, needs_shape=True)
    p.add_argument("--paths", action="store_true", help="also emit the extraction paths")
    p.set_defaults(fn=cmd_factorize)

    p = add_parser("build", help="insert a whole multiset of rim-hooks into zero")
    _add_io(p, needs_shape=True)
    p.add_argument("--perm", metavar="WORD", help="permutation in one-line notation, e.g. 3,1,2")
    p.set_defaults(fn=cmd_build)

    p = add_parser("xi", help="corner-peeling tableau of a filling")
    _add_io(p, needs_shape=True)
    p.set_defaults(fn=cmd_xi)

    p = add_parser("zeta", help="toggle one outer corner away")
    _add_io(p, needs_shape=True)
    p.add_argument("--corner", required=True, metavar="(i,j)")
    p.set_defaults(fn=cmd_zeta)

    p = add_parser("hg", help="Hillman-Grassl image of a filling")
    _add_io(p, needs_shape=True)
    p.set_defaults(fn=cmd_hg)

    p = add_parser("hg-inv", help="inverse Hillman-Grassl of a tableau")
    _add_io(p, needs_shape=True)
    p.add_argument("--perm", metavar="WORD", help="permutation in one-line notation, e.g. 3,1,2")
    p.set_defaults(fn=cmd_hg_inv)

    p = add_parser("rsk", help="row insertion of a count matrix")
    _add_io(p, needs_shape=True)
    p.add_argument("--perm", metavar="WORD", help="permutation in one-line notation, e.g. 3,1,2")
    p.set_defaults(fn=cmd_rsk)

    p = add_parser("rsk-inv", help="inverse row insertion of a tableau pair")
    _add_io(p, needs_shape=True)
    p.set_defaults(fn=cmd_rsk_inv)

    p = add_parser("diag", help="partition formed by one diagonal of a filling")
    _add_io(p, needs_shape=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_diag)

    p = add_parser("gk", help="maximal total length of r chains in a rectangle")
    _add_io(p, needs_shape=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kind", choices=("weak", "strict"), required=True)
    p.add_argument("--perm", metavar="WORD", help="permutation in one-line notation, e.g. 3,1,2")
    p.set_defaults(fn=cmd_gk)

    p = add_parser("series", help="truncated size or trace series of a shape")
    _add_io(p, needs_shape=True, shape_required=True)
    p.add_argument(
        "which",
        choices=tuple(_SERIES),
        help="which series to print",
    )
    p.add_argument("--degree", type=_non_negative_int, default=10)
    p.set_defaults(fn=cmd_series)

    p = add_parser("verify", help="run a property suite")
    _add_io(p)
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument(
        "--shape",
        action="append",
        dest="shapes",
        metavar="SHAPE",
        help="override the verification shapes",
    )
    p.add_argument("--size-bound", type=_non_negative_int, dest="size_bound")
    p.add_argument("--weight-bound", type=_non_negative_int, dest="weight_bound")
    p.add_argument("--path-size-bound", type=_non_negative_int, dest="path_size_bound")
    p.add_argument(
        "--degree",
        type=_non_negative_int,
        dest="stanley_degree",
        metavar="DEGREE",
        help="univariate series truncation",
    )
    p.add_argument("--trace-degree", type=_non_negative_int, dest="trace_degree")
    p.add_argument("--sample", type=_positive_int, help="randomly subsample heavy loops")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_verify)

    p = add_parser("enumerate", help="stream fillings or tableaux as JSON lines")
    _add_io(p, needs_shape=True, shape_required=True)
    p.add_argument("what", choices=("rpps", "tableaux"))
    p.add_argument("--bound", type=_non_negative_int, required=True)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.set_defaults(fn=cmd_enumerate)

    p = add_parser("render", help="ASCII (and optional SVG) picture of a filling")
    _add_io(p, needs_shape=True)
    p.add_argument("--svg", metavar="PATH")
    p.add_argument("--highlight", nargs="*", metavar="(i,j)")
    p.set_defaults(fn=cmd_render)

    if command is None:
        return parser
    if command not in names:
        return make_parser()
    # the full parser's usage names every subcommand through their choices
    sub.metavar = "{%s}" % ",".join(names)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first argument names the subcommand unless it is an option such as -h
    parser = make_parser(argv[0] if argv and not argv[0].startswith("-") else None)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ValueError, BudgetExceededError, OSError) as exc:
        if getattr(args, "format", "text") == "json":
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
