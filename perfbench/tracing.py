"""Spans and counters recorded around calls into rimhooks, for the traced run.

The program itself carries no instrumentation. `install` replaces the public
functions and methods of each module layer with wrappers that open a span and
bump counters, and rebinds every rimhooks namespace that holds the original
(``verify`` and ``cli`` import functions by name, the package re-exports them,
``classical`` calls ``hg`` through its own global). Spans stay in memory as
flat arrays until the run ends; `aggregate` turns them into calls, inclusive
time and self time per span name.

Hot helpers that every layer calls millions of times (``Partition.__contains__``,
``ShapedGrid.value``) are deliberately left unwrapped so the traced run stays
close enough to the untraced one for `trace.overhead_ratio` to mean something.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

#: suites of `rimhooks verify`; each gets a `verify.<suite>.s` metric
VERIFY_SUITES = (
    "stanley",
    "gansner",
    "bijection",
    "golden",
    "pak",
    "commute",
    "insertion-uniqueness",
    "crossing",
    "hg",
    "diag",
    "gk",
    "syt",
    "rsk-thm",
    "involution",
)


class Tracer:
    """Spans as parallel arrays (name id, parent span, start, end) plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()


@dataclass
class Agg:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate(
    keys: Sequence[str], parent: Sequence[int], start: Sequence[float], end: Sequence[float]
) -> dict[str, Agg]:
    """Calls, inclusive time and self time per key; `keys[i]` names span i.

    Self time is a span's duration minus the durations of its direct children;
    spans nest strictly, so the children cover disjoint parts of the parent.
    """
    covered = [0.0] * len(keys)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    out: dict[str, Agg] = {}
    for i, key in enumerate(keys):
        dur = end[i] - start[i]
        agg = out.setdefault(key, Agg())
        agg.calls += 1
        agg.total_s += dur
        agg.self_s += dur - covered[i]
    return out


def by_name(tracer: Tracer) -> dict[str, Agg]:
    return aggregate([tracer.names[n] for n in tracer.name_of], tracer.parent, tracer.start, tracer.end)


def call_paths(tracer: Tracer) -> list[dict]:
    """Spans folded by call path (outermost name first), heaviest first."""
    paths: list[str] = []
    for nid, p in zip(tracer.name_of, tracer.parent):
        name = tracer.names[nid]
        paths.append(name if p < 0 else f"{paths[p]} > {name}")
    folded = aggregate(paths, tracer.parent, tracer.start, tracer.end)
    rows = [{"path": k, **vars(v)} for k, v in folded.items()]
    return sorted(rows, key=lambda r: -r["total_s"])


def count_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """Number of `name` spans opened while an `ancestor` span was open."""
    if name not in tracer._ids or ancestor not in tracer._ids:
        return 0
    nid, aid = tracer._ids[name], tracer._ids[ancestor]
    found = 0
    for i, n in enumerate(tracer.name_of):
        if n != nid:
            continue
        p = tracer.parent[i]
        while p >= 0 and tracer.name_of[p] != aid:
            p = tracer.parent[p]
        found += p >= 0
    return found


# ------------------------------------------------------------ wrappers


def _span(tracer: Tracer, name: str, fn: Callable, after: Callable | None = None) -> Callable:
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    if after is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            after(args, result)
            return result

    return wrapper


def _counter(counts: Counter, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _generator_span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Each `next` on the stream is a span; yielded items are counted."""
    nid = tracer.name_id(name)
    counts, key = tracer.counts, f"{name}.items"

    def traced(it):
        while True:
            idx = tracer.begin(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.finish(idx)
            counts[key] += 1
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return traced(fn(*args, **kwargs))

    return wrapper


def _rebind(orig: Callable, repl: Callable, undo: list) -> None:
    """Point every rimhooks module attribute bound to `orig` at `repl`."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "rimhooks" or modname.startswith("rimhooks.")):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, repl)
                undo.append(functools.partial(setattr, module, key, orig))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced rimhooks functions in place; returns a function that undoes it.

    A function or method that no longer exists is skipped, so its metrics read 0.
    """
    from rimhooks import classical, cli, enumeration, geometry, insertion, peeling, rpp, series, verify

    counts = tracer.counts
    undo: list[Callable[[], None]] = []

    def method(cls, attr: str, name: str, after=None, count_only=False) -> None:
        orig = cls.__dict__.get(attr)
        if orig is None:
            return
        repl = _counter(counts, f"{name}.calls", orig) if count_only else _span(tracer, name, orig, after)
        setattr(cls, attr, repl)
        undo.append(functools.partial(setattr, cls, attr, orig))

    def function(module, attr: str, name: str, after=None, make=None) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            return
        _rebind(orig, make(orig) if make else _span(tracer, name, orig, after), undo)

    def add(key: str, amount: int) -> None:
        counts[key] += amount

    # rpp
    method(rpp.Rpp, "candidates", "rpp.candidates",
           lambda a, r: add("rpp.candidates.cells_scanned", a[0].shape.size))
    method(rpp.ShapedGrid, "with_path", "rpp.with_path", _with_path_counts(counts))
    method(rpp.Rpp, "__init__", "rpp.construct",
           lambda a, r: add("rpp.construct.cells_validated", a[0].shape.size))
    # insertion
    function(insertion, "insertion_path", "insertion.insertion_path",
             lambda a, r: add("insertion.insertion_path.steps", len(r) - 1))
    function(insertion, "extraction_path", "insertion.extraction_path",
             lambda a, r: add("insertion.extraction_path.steps", len(r) - 1))
    function(insertion, "is_compatible", "insertion.is_compatible")
    failure = getattr(insertion, "InsertionFailure", ())
    function(insertion, "try_insert", "insertion.try_insert",
             lambda a, r: add("insertion.try_insert.failures", isinstance(r, failure)))
    function(insertion, "build", "insertion.build",
             lambda a, r: add("insertion.build.hooks", a[0].size))
    function(insertion, "factorize", "insertion.factorize",
             lambda a, r: add("insertion.factorize.hooks", len(r.anchors)))
    # peeling
    function(peeling, "peel_tableau", "peeling.peel_tableau",
             make=lambda orig: _peel_wrapper(tracer, peeling, orig))
    function(peeling, "corner_toggle", "peeling.corner_toggle", _toggle_counts(counts))
    # geometry
    method(geometry.Partition, "corners", "geometry.corners")
    method(geometry.Partition, "region", "geometry.region", count_only=True)
    method(geometry.Partition, "rim_hook", "geometry.rim_hook")
    method(geometry.Partition, "remove_corner", "geometry.remove_corner", count_only=True)
    # classical
    function(classical, "hg", "classical.hg", lambda a, r: add("classical.hg.hooks", r.size))
    function(classical, "hg_inv", "classical.hg_inv")
    function(classical, "gk_chain_max", "classical.gk_chain_max",
             make=lambda orig: _refusal_counter(counts, _span(tracer, "classical.gk_chain_max", orig)))
    # series
    method(series.TruncatedSeries, "__mul__", "series.mul", _mul_counts(counts))
    method(series.MultiTraceSeries, "times_geometric", "series.times_geometric",
           lambda a, r: add("series.times_geometric.terms_out", len(r.terms)))
    function(series, "hook_product", "series.hook_product")
    function(series, "gansner_product", "series.gansner_product")
    # enumeration
    for attr, name in (("enumerate_rpps", "enumeration.rpps"),
                       ("enumerate_tableaux", "enumeration.tableaux"),
                       ("enumerate_sw_paths", "enumeration.sw_paths")):
        function(enumeration, attr, name, make=lambda orig, name=name: _generator_span(tracer, name, orig))
    # verify: run_suites looks suites up in this table
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = _span(tracer, f"verify.{suite}", fn)
        undo.append(functools.partial(verify.SUITES.__setitem__, suite, fn))
    # cli
    function(cli, "run", "cli.run")

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def _with_path_counts(counts: Counter) -> Callable:
    def after(args, result) -> None:
        counts["rpp.with_path.cells_copied"] += args[0].shape.size
        if hasattr(args[1], "__len__"):
            counts["rpp.with_path.path_cells"] += len(args[1])

    return after


def _toggle_counts(counts: Counter) -> Callable:
    def after(args, result) -> None:
        i, j = args[1]
        diag = j - i
        counts["peeling.corner_toggle.cells_rebuilt"] += result.shape.size
        counts["peeling.corner_toggle.diagonal_cells"] += sum(
            1 for row, p in enumerate(result.shape.parts, start=1) if 1 <= row + diag <= p
        )

    return after


def _mul_counts(counts: Counter) -> Callable:
    """Coefficient products the dense product forms: nonzero a_i times nonzero b_j, i + j <= N."""

    def after(args, result) -> None:
        a, b = args[0].coefficients, args[1].coefficients
        nonzero_b = [0]
        for c in b:
            nonzero_b.append(nonzero_b[-1] + (c != 0))
        n = len(a) - 1
        counts["series.mul.coeff_products"] += sum(
            nonzero_b[n - i + 1] for i, c in enumerate(a) if c
        )

    return after


def _refusal_counter(counts: Counter, fn: Callable) -> Callable:
    """The benchmark passes only valid arguments, so a ValueError is a budget refusal."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError:
            counts["classical.gk_chain_max.refusals"] += 1
            raise

    return wrapper


def _peel_wrapper(tracer: Tracer, module, orig: Callable) -> Callable:
    """One span per outside call of peel_tableau.

    peel_tableau recurses through its module global once per cell. A wrapper
    frame on every level would double the stack depth and raise RecursionError
    on 900-cell shapes, so during a call the global points at the original and
    the recursion levels show up as corner_toggle spans instead.
    """
    nid = tracer.name_id("peeling.peel_tableau")
    counts = tracer.counts

    @functools.wraps(orig)
    def wrapper(pi, *args, **kwargs):
        saved = module.peel_tableau
        module.peel_tableau = orig
        idx = tracer.begin(nid)
        try:
            return orig(pi, *args, **kwargs)
        finally:
            tracer.finish(idx)
            module.peel_tableau = saved
            counts["peeling.peel_tableau.cells"] += pi.shape.size

    return wrapper


# ------------------------------------------------------------ per-layer metrics


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); layers that did no work read 0."""
    agg = by_name(tracer)
    c = tracer.counts

    def span(name: str) -> Agg:
        return agg.get(name, Agg())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}

    def calls_self(name: str) -> None:
        m[f"{name}.calls"] = (span(name).calls, "count")
        m[f"{name}.self_s"] = (span(name).self_s, "s")

    calls_self("rpp.candidates")
    m["rpp.candidates.cells_scanned"] = (c["rpp.candidates.cells_scanned"], "count")
    m["rpp.candidates.per_hook"] = (
        ratio(count_under(tracer, "rpp.candidates", "insertion.factorize"), c["insertion.factorize.hooks"]),
        "calls/hook",
    )
    calls_self("rpp.with_path")
    m["rpp.with_path.cells_copied"] = (c["rpp.with_path.cells_copied"], "count")
    m["rpp.with_path.useful_ratio"] = (
        ratio(c["rpp.with_path.path_cells"], c["rpp.with_path.cells_copied"]), "ratio"
    )
    calls_self("rpp.construct")
    m["rpp.construct.cells_validated"] = (c["rpp.construct.cells_validated"], "count")

    for walk in ("insertion_path", "extraction_path"):
        calls_self(f"insertion.{walk}")
        m[f"insertion.{walk}.steps"] = (c[f"insertion.{walk}.steps"], "count")
    calls_self("insertion.is_compatible")
    calls_self("insertion.try_insert")
    m["insertion.try_insert.failures"] = (c["insertion.try_insert.failures"], "count")
    for op in ("build", "factorize"):
        m[f"insertion.{op}.us_per_hook"] = (
            ratio(1e6 * span(f"insertion.{op}").total_s, c[f"insertion.{op}.hooks"]), "us/hook"
        )

    calls_self("peeling.peel_tableau")
    m["peeling.peel_tableau.us_per_cell"] = (
        ratio(1e6 * span("peeling.peel_tableau").total_s, c["peeling.peel_tableau.cells"]), "us/cell"
    )
    calls_self("peeling.corner_toggle")
    m["peeling.corner_toggle.cells_rebuilt"] = (c["peeling.corner_toggle.cells_rebuilt"], "count")
    m["peeling.corner_toggle.useful_ratio"] = (
        ratio(c["peeling.corner_toggle.diagonal_cells"], c["peeling.corner_toggle.cells_rebuilt"]),
        "ratio",
    )

    calls_self("geometry.corners")
    m["geometry.region.calls"] = (c["geometry.region.calls"], "count")
    calls_self("geometry.rim_hook")
    m["geometry.remove_corner.calls"] = (c["geometry.remove_corner.calls"], "count")

    calls_self("classical.hg")
    m["classical.hg.us_per_hook"] = (
        ratio(1e6 * span("classical.hg").total_s, c["classical.hg.hooks"]), "us/hook"
    )
    calls_self("classical.hg_inv")
    calls_self("classical.gk_chain_max")
    m["classical.gk_chain_max.refusals"] = (c["classical.gk_chain_max.refusals"], "count")

    calls_self("series.mul")
    m["series.mul.coeff_products"] = (c["series.mul.coeff_products"], "count")
    calls_self("series.times_geometric")
    m["series.times_geometric.terms_out"] = (c["series.times_geometric.terms_out"], "count")
    m["series.hook_product.self_s"] = (span("series.hook_product").self_s, "s")
    m["series.gansner_product.self_s"] = (span("series.gansner_product").self_s, "s")

    for stream in ("rpps", "tableaux"):
        m[f"enumeration.{stream}.items"] = (c[f"enumeration.{stream}.items"], "count")
        m[f"enumeration.{stream}.self_s"] = (span(f"enumeration.{stream}").self_s, "s")
    m["enumeration.sw_paths.items"] = (c["enumeration.sw_paths.items"], "count")

    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.s"] = (span(f"verify.{suite}").total_s, "s")
    m["cli.run.self_s"] = (span("cli.run").self_s, "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
