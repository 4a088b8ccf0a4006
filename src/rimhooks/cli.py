"""Command-line front end.

A subcommand that reads a grid reads it from stdin (or --in); every one
writes to stdout (or --out). Exit status: 0 on success, 1 with a diagnostic
on domain and I/O errors (JSON shaped under --format json), 2 on usage errors.
Each subcommand is declared once, in the `_SUBCOMMANDS` table, from which
`make_parser` builds both the full parser and the parser of one subcommand.
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
from .verify import READS, SUITE_NAMES, VerifyConfig, run_suites


class DomainError(Exception):
    pass


def _read_input(args):
    """The input text, or under --format json the JSON value it holds."""
    if args.infile:
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
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_grid(args, cls):
    """The input grid as a `cls`, checked against --shape when it is given.

    A --perm, which only the tableau-reading subcommands take, replaces the
    input with its permutation matrix.
    """
    if getattr(args, "perm", None) is not None:
        value = classical.permutation_matrix(args.perm)
    else:
        data = _read_input(args)
        value = cls.from_json_obj(data) if args.format == "json" else cls.from_text(data)
    shape = _shape_arg(args)
    if shape is not None and value.shape != shape:
        raise DomainError(f"input has shape {value.shape}, expected {shape}")
    return value


def _shape_arg(args) -> Partition | None:
    """The --shape given, or None; argparse requires it where a subcommand needs it."""
    return None if args.shape is None else _parse_shape(args.shape)


def _parse_shape(text: str) -> Partition:
    """The shape `text` names, refused before any table of it is built when its
    frame, the diagram with a one-cell border, has more positions than the ceiling."""
    shape = Partition.from_string(text)
    positions = (shape.length + 2) * ((shape.parts[0] if shape else 0) + 2)
    if positions > DEFAULT_CEILING:
        raise DomainError(
            f"the frame of shape {shape} has {positions} positions, "
            f"over the ceiling {DEFAULT_CEILING}"
        )
    return shape


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
    rows = [[fn((i, j)) for j in range(1, p + 1)] for i, p in enumerate(shape.parts, start=1)]
    return Tableau(shape, rows)


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


def _grid_map(reads, kernel):
    """The subcommand that reads one `reads` grid and prints `kernel` of it."""

    def cmd(args) -> int:
        out = kernel(_read_grid(args, reads))
        _emit_obj(args, out.to_json_obj(), out.to_text())
        return 0

    return cmd


# each kernel is looked up when called, as in the other handlers, so a tracer
# that rebinds it sees the call
cmd_build = _grid_map(Tableau, lambda t: build(t))
cmd_xi = _grid_map(Rpp, lambda pi: peeling.peel_tableau(pi))
cmd_hg = _grid_map(Rpp, lambda pi: classical.hg(pi))
cmd_hg_inv = _grid_map(Tableau, lambda t: classical.hg_inv(t))


def cmd_zeta(args) -> int:
    pi = _read_grid(args, Rpp)
    corner = parse_cell(args.corner)
    toggled = peeling.corner_toggle(pi, corner)
    _emit_obj(args, toggled.to_json_obj(), toggled.to_text())
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
    t = classical.rsk_inv(pair, _shape_arg(args))
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


# looked up when called, like the grid-map kernels
_SERIES = {
    "hook-product": lambda shape, degree: hook_product(shape, degree),
    "rpp": lambda shape, degree: rpp_series(shape, degree),
    "trace-product": lambda shape, degree: gansner_product(shape, degree),
    "trace": lambda shape, degree: trace_series(shape, degree),
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
        settings["shapes"] = tuple(_parse_shape(s).parts for s in settings["shapes"])
    config = VerifyConfig(**settings)
    # every suite takes --seed, which goes with --sample; `all` reads every field
    reads = fields if args.suite == "all" else READS[args.suite] | {"seed"}
    unread = [field for field in settings if field not in reads]
    if unread:
        # argparse derives the dest of a flag that names none from the flag
        flags = {
            keywords.get("dest", flag.lstrip("-").replace("-", "_")): flag
            for flag, keywords in _SUBCOMMANDS["verify"][3]
        }
        why = "runs a fixed instance and " * ("shapes" not in reads)
        args.usage_error(f"suite {args.suite} {why}takes no {', '.join(map(flags.get, unread))}")
    out = open(args.outfile, "w", encoding="utf-8") if args.outfile else sys.stdout
    results = []
    try:
        # each suite's lines are written as it ends, so an error in a later
        # suite leaves them in place; JSON prints what has ended as one array
        for result in run_suites([args.suite], config, jobs=args.jobs):
            results.append(result)
            if args.format == "text":
                print(result.line(), file=out, flush=True)
    finally:
        if args.format == "json":
            print(json.dumps([dataclasses.asdict(r) for r in results]), file=out)
        if args.outfile:
            out.close()
    return 0 if all(r.passed for r in results) else 1


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
    for u in highlight:
        if u not in pi.shape:
            raise DomainError(f"highlight {format_cell(u)} lies outside the shape {pi.shape}")
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


_PERM = ("--perm", {"metavar": "WORD", "help": "permutation in one-line notation, e.g. 3,1,2"})

# Every subcommand, in the order that usage lists them: name -> (help, handler,
# shape, arguments). `shape` is None when the subcommand takes no --shape, else
# whether it requires one; the subcommands whose --shape is optional read a grid,
# and only they take --in. Each of `arguments` is the flags and then the keywords
# of one `add_argument` call, made after those of --in, --out, --format and --shape.
_SUBCOMMANDS = {
    "info": ("hooks, corners, regions and both cell orders", cmd_info, True, []),
    "rimhooks": ("list the rim-hooks in increasing order", cmd_rimhooks, True, [
        ("--svg", {"metavar": "PATH", "help": "also write an SVG rendering"}),
    ]),
    "validate": ("check a grid and report shape and size", cmd_validate, False, []),
    "trace": ("diagonal sums of a filling", cmd_trace, False, [
        ("--k", {"type": int, "help": "a single diagonal (default: all)"}),
    ]),
    "candidates": ("extraction starting cells, minimal first", cmd_candidates, False, []),
    "insert": ("insert one rim-hook into a filling", cmd_insert, False, [
        ("--hook", {"required": True, "metavar": "(i,j)", "help": "anchor of the rim-hook"}),
    ]),
    "factorize": ("lexicographic factorization of a filling", cmd_factorize, False, [
        ("--paths", {"action": "store_true", "help": "also emit the extraction paths"}),
    ]),
    "build": ("insert a whole multiset of rim-hooks into zero", cmd_build, False, [_PERM]),
    "xi": ("corner-peeling tableau of a filling", cmd_xi, False, []),
    "zeta": ("toggle one outer corner away", cmd_zeta, False, [
        ("--corner", {"required": True, "metavar": "(i,j)"}),
    ]),
    "hg": ("Hillman-Grassl image of a filling", cmd_hg, False, []),
    "hg-inv": ("inverse Hillman-Grassl of a tableau", cmd_hg_inv, False, [_PERM]),
    "rsk": ("row insertion of a count matrix", cmd_rsk, False, [_PERM]),
    "rsk-inv": ("inverse row insertion of a tableau pair", cmd_rsk_inv, False, []),
    "diag": ("partition formed by one diagonal of a filling", cmd_diag, False, [
        ("--k", {"type": int, "required": True}),
    ]),
    "gk": ("maximal total length of r chains in a rectangle", cmd_gk, False, [
        ("--k", {"type": int, "required": True}),
        ("--r", {"type": int, "required": True}),
        ("--kind", {"choices": ("weak", "strict"), "required": True}),
        _PERM,
    ]),
    "series": ("truncated size or trace series of a shape", cmd_series, True, [
        ("which", {"choices": tuple(_SERIES), "help": "which series to print"}),
        ("--degree", {"type": _non_negative_int, "default": 10}),
    ]),
    "verify": ("run a property suite", cmd_verify, None, [
        ("suite", {"choices": SUITE_NAMES}),
        ("--shape", {"action": "append", "dest": "shapes", "metavar": "SHAPE",
                     "help": "override the verification shapes"}),
        ("--size-bound", {"type": _non_negative_int, "dest": "size_bound"}),
        ("--weight-bound", {"type": _non_negative_int, "dest": "weight_bound"}),
        ("--path-size-bound", {"type": _non_negative_int, "dest": "path_size_bound"}),
        ("--degree", {"type": _non_negative_int, "dest": "stanley_degree", "metavar": "DEGREE",
                      "help": "univariate series truncation"}),
        ("--trace-degree", {"type": _non_negative_int, "dest": "trace_degree"}),
        ("--sample", {"type": _positive_int, "help": "randomly subsample heavy loops"}),
        ("--seed", {"type": int, "default": 0}),
        ("--jobs", {"type": _positive_int, "default": 1}),
    ]),
    "enumerate": ("stream fillings or tableaux as JSON lines", cmd_enumerate, True, [
        ("what", {"choices": ("rpps", "tableaux")}),
        ("--bound", {"type": _non_negative_int, "required": True}),
        ("--ceiling", {"type": _non_negative_int, "default": DEFAULT_CEILING}),
    ]),
    "render": ("ASCII (and optional SVG) picture of a filling", cmd_render, False, [
        ("--svg", {"metavar": "PATH"}),
        ("--highlight", {"nargs": "*", "metavar": "(i,j)"}),
    ]),
}


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
    built = _SUBCOMMANDS
    if command in _SUBCOMMANDS:
        built = [command]
        # the full parser's usage names every subcommand through their choices; on
        # the full parser this metavar would also change the missing-command error
        sub.metavar = "{%s}" % ",".join(_SUBCOMMANDS)
    for name in built:
        summary, fn, shape, arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        if shape is False:
            p.add_argument("--in", dest="infile", metavar="PATH", help="read input from a file")
        p.add_argument("--out", dest="outfile", metavar="PATH", help="write output to a file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if shape is not None:
            p.add_argument("--shape", required=shape, help="comma separated parts, e.g. 4,3,1")
        for *flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        # a handler that finds a usage error reports it as argparse does, with exit 2
        p.set_defaults(fn=fn, usage_error=p.error)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first argument names the subcommand unless it is an option such as -h
    parser = make_parser(argv[0] if argv and not argv[0].startswith("-") else None)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ValueError, BudgetExceededError, OSError) as exc:
        message = str(exc)
    except MemoryError:
        # a shape under the frame ceiling can still outgrow the memory at hand
        message = f"out of memory running {args.command}"
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run())
