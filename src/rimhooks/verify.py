"""Exhaustive property suites over configurable shapes and bounds.

Each suite is registered in `SUITES` under its name, in definition order, and
returns one CheckResult per unit of work; the CLI `verify` subcommand and the
acceptance tests both run through `run_suites`, so the two always agree. A
suite runs either once per configured shape or once on a fixed instance, and
`READS` names the configuration fields it reads. It reads each enumeration as
a stream, in one pass, and keeps running counters rather than the items, so
its memory does not grow with the number of fillings or tableaux. Opening a
stream checks the enumeration budget, and the registry opens every shape's
streams before any is read (see `_suite`). `VerifyConfig.fillings` and `VerifyConfig.tableaux`
open the sampled streams: sampling picks items by their index in a stream,
whose exact length the hook-product formula gives in advance. `run_suites(..., jobs=N)`
runs whole suites in min(N, number of suites) processes, so a single suite
always runs in one process. The process pool is imported only when N > 1 and
two or more suites run, so a serial run never loads it. Results are
yielded in a fixed order, each suite's as it ends, so runs are deterministic
for a given configuration (seed included).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import accumulate, permutations, repeat
from operator import add, ne
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from . import classical, peeling
from .enumeration import (
    _counts_by_size,
    _grids,
    enumerate_rpps,
    enumerate_sw_paths,
    enumerate_tableaux,
    projected_rpp_count,
)
from .geometry import Partition, content_key, rim_hook_key
from .insertion import (
    InsertionFailure,
    build,
    extraction_path,
    factorize,
    insertion_path,
    is_compatible,
    rim_hook_of_path,
    try_insert,
)
from .rpp import Rpp, Tableau
from .series import (
    MultiTraceSeries,
    gansner_product,
    hook_monomial,
    hook_product,
    rpp_series,
    trace_series,
)

DEFAULT_SHAPES = ((2, 2), (3, 2), (3, 3, 3), (4, 3, 1), (5, 2, 1, 1))
#: the fixed instances of the gk, syt, rsk-thm and involution suites
GK_SHAPE, GK_TOTAL, GK_RMAX = (3, 3, 3), 5, 4
SYT_N = 3
PERM_N = 4

T = TypeVar("T")
#: what a suite body yields per check: its name, whether it passed, and an
#: optional detail
Check = tuple[str, bool] | tuple[str, bool, str]


@dataclass(frozen=True)
class VerifyConfig:
    shapes: tuple[tuple[int, ...], ...] = DEFAULT_SHAPES
    size_bound: int = 8
    weight_bound: int = 8
    path_size_bound: int = 6
    stanley_degree: int = 10
    trace_degree: int = 8
    sample: int | None = None
    seed: int = 0

    def kept(self, count: int) -> range | set[int]:
        """The indexes that `pick` keeps from a stream of `count` items."""
        if self.sample is None or count <= self.sample:
            return range(count)
        return set(random.Random(self.seed).sample(range(count), self.sample))

    def pick(self, items: Iterable[T], count: int) -> Iterator[T]:
        """The items of a stream of exactly `count` items, or a deterministic
        order-preserving subsample of `sample` of them when sampling is on.

        The kept indexes are `random.Random(seed).sample(range(count),
        sample)`, so a stream yields the same items a list of it would. The
        stream is read to its end either way, which runs the enumerators'
        length check; the items are not held.
        """
        kept = self.kept(count)
        return (item for index, item in enumerate(items) if index in kept)

    def fillings(self, shape: Partition, bound: int) -> Iterator[Rpp]:
        """The picked fillings of `shape` up to size `bound`; the call checks the budget."""
        return self.pick(enumerate_rpps(shape, bound), projected_rpp_count(shape, bound))

    def tableaux(self, shape: Partition, bound: int) -> Iterator[Tableau]:
        """The picked hook tableaux of `shape` up to weight `bound`; the call checks the budget."""
        return self.pick(enumerate_tableaux(shape, bound), projected_rpp_count(shape, bound))


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.suite}: {self.name}{tail}"


SUITES: dict[str, Callable[[VerifyConfig], list[CheckResult]]] = {}
#: the `VerifyConfig` fields each suite reads, but `seed`, which every suite takes
READS: dict[str, frozenset[str]] = {}


def _suite(
    name: str, reads: str = "", opener: Callable[[VerifyConfig, Partition], Sequence] | None = None
):
    """Register a suite body under `name` in `SUITES`, in definition order.

    The body is a generator of `Check` tuples; the registered function, which
    the decorator also returns, runs it to its end and stamps `name` on each
    result. With an `opener`, the body runs once per configured shape, as
    `body(config, shape, *opener(config, shape))`; every shape's streams are
    opened, which checks every budget, before any is read. Without one, the
    body runs a fixed instance as `body(config)`. `READS[name]` holds the
    fields named in `reads`, and `shapes` when there is an opener.
    """

    def register(body: Callable[..., Iterator[Check]]):
        @functools.wraps(body)
        def suite(config: VerifyConfig) -> list[CheckResult]:
            if opener is None:
                return [CheckResult(name, *check) for check in body(config)]
            opened = [(shape, opener(config, shape)) for shape in map(Partition, config.shapes)]
            return [
                CheckResult(name, *check)
                for shape, streams in opened
                for check in body(config, shape, *streams)
            ]

        READS[name] = frozenset(reads.split() + ["shapes"] * (opener is not None))
        SUITES[name] = suite
        return suite

    return register


# ---------------------------------------------------------------- suites


# stanley and gansner open no stream: each series checks its shape's budget
@_suite("stanley", "stanley_degree", lambda config, shape: ())
def suite_stanley(config: VerifyConfig, shape: Partition) -> Iterator[Check]:
    lhs = rpp_series(shape, config.stanley_degree)
    rhs = hook_product(shape, config.stanley_degree)
    coefficients = f"coefficients {list(lhs.coefficients)}"
    yield f"size series equals hook product for {shape}", lhs == rhs, coefficients


@_suite("gansner", "trace_degree", lambda config, shape: ())
def suite_gansner(config: VerifyConfig, shape: Partition) -> Iterator[Check]:
    lhs = trace_series(shape, config.trace_degree)
    rhs = gansner_product(shape, config.trace_degree)
    name = f"trace series equals refined hook product for {shape}"
    yield name, lhs == rhs, f"{len(rhs.terms)} monomials"
    specialized = rhs.specialize()
    expected = hook_product(shape, config.trace_degree)
    yield f"all-variables-to-q specialization matches for {shape}", specialized == expected


def _bijection_streams(config: VerifyConfig, shape: Partition) -> tuple[Iterator, Iterator]:
    return config.fillings(shape, config.size_bound), config.tableaux(shape, config.weight_bound)


@_suite("bijection", "size_bound weight_bound sample", _bijection_streams)
def suite_bijection(
    config: VerifyConfig, shape: Partition, fillings: Iterator[Rpp], tableaux: Iterator[Tableau]
) -> Iterator[Check]:
    seen, ok, broken = 0, 0, False
    for pi in fillings:
        seen += 1
        if broken:
            continue
        # `factorize` raises on a decreasing anchor sequence
        broken = build(factorize(pi).to_tableau()) != pi
        ok += not broken
    name = f"factorize then build is the identity on {shape}"
    yield name, ok == seen, f"{ok}/{seen} fillings"
    seen, ok = 0, 0
    for t in tableaux:
        seen += 1
        ok += factorize(build(t)).to_tableau() == t
    name = f"build then factorize is the identity on {shape}"
    yield name, ok == seen, f"{ok}/{seen} tableaux"


@_suite("golden")
def suite_golden(config: VerifyConfig) -> Iterator[Check]:
    shape = Partition((4, 3, 1))
    pi = Rpp(shape, ((0, 1, 2, 3), (1, 2, 2), (1,)))
    candidates = frozenset({(1, 2), (1, 4), (2, 2), (3, 1)})
    yield "candidate set of the running example", pi.candidates() == candidates
    anchors = ((1, 4), (1, 3), (2, 2), (1, 1))
    yield "lexicographic factorization of the running example", factorize(pi).anchors == anchors
    square = Partition((3, 3, 3))
    flat = Rpp(square, ((0, 0, 0), (0, 0, 0), (1, 1, 1)))
    p1 = insertion_path(square.rim_hook((1, 3)), flat)
    p2 = insertion_path(square.rim_hook((2, 2)), flat)
    yield (
        "two insertion paths into the staircase filling",
        p1.cells == ((1, 3), (2, 3), (2, 2)) and p2.cells == ((2, 3), (2, 2), (2, 1)),
    )
    r1 = try_insert(square.rim_hook((1, 3)), flat)
    r2 = try_insert(square.rim_hook((2, 2)), flat)
    yield (
        "the corresponding insertion results",
        isinstance(r1, Rpp)
        and isinstance(r2, Rpp)
        and r1.rows == ((0, 0, 1), (0, 1, 1), (1, 1, 1))
        and r2.rows == ((0, 0, 0), (1, 1, 1), (1, 1, 1)),
    )
    steep = Rpp(square, ((1, 1, 4), (2, 3, 4), (4, 4, 4)))
    toggled = peeling.corner_toggle(steep, (3, 3))
    yield (
        "first corner toggle of the peeling chain",
        toggled.shape == Partition((3, 3, 2)) and toggled.rows == ((0, 1, 4), (2, 3, 4), (4, 4)),
    )
    peeled = peeling.peel_tableau(steep)
    yield (
        "full peeling chain ends at the recorded tableau",
        peeled.rows == ((1, 1, 2), (0, 1, 0), (3, 0, 0)),
    )
    pair = classical.rsk(Tableau(square, ((1, 1, 2), (0, 1, 0), (3, 0, 0))))
    yield (
        "row insertion of the recorded tableau",
        pair.p.rows == ((1, 1, 1, 1), (2, 2, 3), (3,))
        and pair.q.rows == ((1, 1, 1, 1), (2, 3, 3), (3,)),
    )


@_suite("pak", "size_bound sample", lambda c, s: (c.fillings(s, c.size_bound),))
def suite_pak(config: VerifyConfig, shape: Partition, fillings: Iterator[Rpp]) -> Iterator[Check]:
    # not `corners()`, which refuses the empty partition: it has no corner to force
    _, outer = shape._corner_cells
    # Two corner policies, spelled as orders: each outer corner x first,
    # then the revlex-minimal corner of what remains at every step; and
    # the revlex-maximal corner at every step (the rows bottom-up, each
    # row right to left). Forcing the corner of largest content first is the
    # reference's own order, `shape.revlex_cells`, so that peel is not repeated,
    # nor the reversed policy's where it is that order too (one row or column).
    orders = [[x, *(u for u in shape.revlex_cells if u != x)] for x in outer[:-1]]
    reverse = [(i, j) for i in range(shape.length, 0, -1) for j in range(shape.parts[i - 1], 0, -1)]
    if tuple(reverse) != shape.revlex_cells:
        orders.append(reverse)
    seen, agree, independent = 0, True, True
    for pi in fillings:
        seen += 1
        reference = peeling.peel_tableau(pi)
        agree = agree and reference == factorize(pi).to_tableau()
        independent = independent and all(
            peeling.peel_tableau(pi, order) == reference for order in orders
        )
    yield (
        f"peeling equals factorization on {shape}",
        agree,
        f"{seen} fillings, two independent code paths",
    )
    yield (
        f"corner choice does not matter on {shape}",
        independent,
        f"forced each of {len(outer)} corners first, plus a reversed policy",
    )


@_suite("commute", "weight_bound sample", lambda c, s: (enumerate_tableaux(s, c.weight_bound),))
def suite_commute(
    config: VerifyConfig, shape: Partition, tableaux: Iterator[Tableau]
) -> Iterator[Check]:
    _, outer = shape._corner_cells
    # The pairs at corner x are the nonzero tableaux that vanish at x,
    # sampled per corner. A corner's hook length is 1, so the tableaux
    # vanishing there number the coefficient of q^w in the hook product
    # (its other factors times 1/(1 - q), which sums their coefficients).
    vanishing = _counts_by_size(shape, config.weight_bound)[-1] - 1
    kept = {x: config.kept(vanishing) for x in outer}
    reduced = {x: shape.remove_corner(x) for x in outer}
    seen = dict.fromkeys(outer, 0)
    checked, failed = 0, 0
    for t in tableaux:
        if t.size == 0:
            continue
        corners = []
        for x in outer:
            if t.value(x) == 0:
                if seen[x] in kept[x]:
                    corners.append(x)
                seen[x] += 1
        if not corners:
            continue
        first = t.anchors()[0]
        partial, whole = build(t.with_path([first], -1)), build(t)
        for x in corners:
            left = peeling.corner_toggle(whole, x)
            inserted = try_insert(
                reduced[x].rim_hook(first), peeling.corner_toggle(partial, x)
            )
            checked += 1
            if isinstance(inserted, InsertionFailure) or inserted != left:
                failed += 1
    if any(n != vanishing for n in seen.values()):
        raise RuntimeError(
            f"tableaux of {shape} vanishing at a corner: counted {seen}, "
            f"but the hook-product count is {vanishing}"
        )
    name = f"corner toggle commutes with insertion on {shape}"
    yield name, failed == 0, f"{checked} (corner, multiset) pairs"


def _uniqueness_streams(config: VerifyConfig, shape: Partition) -> tuple[list, Iterator]:
    paths = [(hook, enumerate_sw_paths(shape, hook.tail, len(hook))) for hook in shape.rim_hooks()]
    return paths, config.fillings(shape, config.path_size_bound)


@_suite("insertion-uniqueness", "path_size_bound sample", _uniqueness_streams)
def suite_insertion_uniqueness(
    config: VerifyConfig, shape: Partition, sw_paths: list, fillings: Iterator[Rpp]
) -> Iterator[Check]:
    # each hook's paths are kept, since every filling is tried against them
    sw_paths = [(hook, tuple(paths)) for hook, paths in sw_paths]
    checked, failed = 0, 0
    for pi in fillings:
        candidates = None  # read at the filling's first failed insertion, then reused
        for hook, paths in sw_paths:
            # the fillings the compatible brute-force paths make. South-west
            # paths with one tail and length differ exactly when their cell
            # sets do, so `valid == [result]` says that one path is valid
            # and that it is the one the insertion walked
            valid = []
            for path in paths:
                if not is_compatible(path, pi):
                    continue
                try:
                    valid.append(pi.with_path(path, +1))
                except ValueError:
                    continue
            result = try_insert(hook, pi)
            checked += 1
            if isinstance(result, Rpp):
                if valid != [result]:
                    failed += 1
            else:
                if candidates is None:
                    candidates = pi.candidates()
                witness_ok = (
                    result.witness in candidates
                    and content_key(result.witness) < content_key(result.path.head)
                )
                if valid or not witness_ok:
                    failed += 1
    yield (
        f"unique valid path or certified failure on {shape}",
        failed == 0,
        f"{checked} (hook, filling) pairs against brute force",
    )


@_suite("crossing", "path_size_bound sample", lambda c, s: (c.fillings(s, c.path_size_bound),))
def suite_crossing(
    config: VerifyConfig, shape: Partition, fillings: Iterator[Rpp]
) -> Iterator[Check]:
    hooks = [(hook, rim_hook_key(hook)) for hook in shape.rim_hooks()]
    cell_keys = {u: content_key(u) for u in shape.cells()}
    cross_checked, cross_failed = 0, 0
    stab_checked, stab_failed = 0, 0
    for pi in fillings:
        candidates = pi.candidates()
        paths = {u: extraction_path(u, pi) for u in candidates}
        # (content key of u, key of the hook extracted at u) per candidate u
        keyed = [
            (cell_keys[u], rim_hook_key(rim_hook_of_path(path, shape)))
            for u, path in paths.items()
        ]
        for hook, hook_key in hooks:
            head_key = content_key(insertion_path(hook, pi).head)
            cross_checked += len(keyed)
            for key, extracted in keyed:
                if key < head_key:
                    cross_failed += extracted >= hook_key
                else:
                    cross_failed += hook_key > extracted
        for v, path in paths.items():
            if not is_compatible(path, pi):
                continue
            try:
                reduced = pi.with_path(path, -1)
            except ValueError:
                continue
            after = reduced.candidates()
            for u in candidates:
                if u != v:
                    stab_checked += 1
                    if u not in after:
                        stab_failed += 1
            for u, key in cell_keys.items():
                if u not in candidates and key < cell_keys[v]:
                    stab_checked += 1
                    if u in after:
                        stab_failed += 1
    name = f"paths cannot cross on {shape}"
    yield name, cross_failed == 0, f"{cross_checked} (hook, candidate) pairs"
    name = f"candidates are stable under extraction on {shape}"
    yield name, stab_failed == 0, f"{stab_checked} cell checks"


def _hg_streams(config: VerifyConfig, shape: Partition) -> tuple[Iterator, Iterator]:
    return config.fillings(shape, config.size_bound), enumerate_rpps(shape, config.trace_degree)


@_suite("hg", "size_bound trace_degree sample", _hg_streams)
def suite_hg(
    config: VerifyConfig, shape: Partition, fillings: Iterator[Rpp], traced: Iterator[Rpp]
) -> Iterator[Check]:
    seen, roundtrip, weights = 0, True, True
    for pi in fillings:
        seen += 1
        t = classical.hg(pi)
        roundtrip = roundtrip and classical.hg_inv(t) == pi
        weights = weights and t.weighted_size == pi.size
    yield f"inverse undoes the correspondence on {shape}", roundtrip, f"{seen} fillings"
    yield f"recorded hooks account for the full size on {shape}", weights
    refined = gansner_product(shape, config.trace_degree)
    acc = MultiTraceSeries(refined.var_lo, refined.var_hi, config.trace_degree, {})
    # each cell's hook monomial once per shape, laid out like the rows, so
    # the per-filling loop reads the tableau's rows and builds no pairs
    hooks = [
        [hook_monomial(shape, (i, j)) for j in range(1, p + 1)]
        for i, p in enumerate(shape.parts, start=1)
    ]
    for pi in traced:
        exps = [0] * len(shape.contents)
        for counts, monos in zip(classical.hg(pi).rows, hooks):
            for count, mono in zip(counts, monos):
                if count:
                    exps = [a + count * b for a, b in zip(exps, mono)]
        acc.add_term(tuple(exps), 1)
    yield f"trace series through the correspondence matches for {shape}", acc == refined


@_suite("diag", "weight_bound sample", lambda c, s: (c.tableaux(s, c.weight_bound),))
def suite_diag(
    config: VerifyConfig, shape: Partition, tableaux: Iterator[Tableau]
) -> Iterator[Check]:
    corners = [classical._rectangle_corner(shape, k) for k in shape.contents]
    seen, failed = 0, 0
    for t in tableaux:
        seen += 1
        # sums[a - 1][b - 1] is the sum of t over rows 1..a and columns 1..b
        sums, above = [], repeat(0)
        for row in t.rows:
            above = list(map(add, above, accumulate(row)))
            sums.append(above)
        expected = [sums[a - 1][b - 1] for a, b in corners]
        failed += sum(map(ne, build(t).traces(), expected))
    name = f"traces are rectangle sums of the tableau on {shape}"
    yield name, failed == 0, f"{seen} tableaux, every diagonal"


@_suite("gk", "sample")
def suite_gk(config: VerifyConfig) -> Iterator[Check]:
    shape = Partition(GK_SHAPE)
    # the grids of at most GK_TOTAL on the shape's cells, in stars and bars
    count = math.comb(GK_TOTAL + shape.size, shape.size)
    # per diagonal k: the corner (a, b) of its rectangle, and its cells, 0-based,
    # which run from the first row it meets down to the corner
    plan = []
    for k in shape.contents:
        a, b = classical._rectangle_corner(shape, k)
        plan.append((a, b, [(i - 1, i + k - 1) for i in range(max(1, 1 - k), a + 1)]))
    family_sizes = range(1, GK_RMAX + 1)
    # the weak then strict maxima for r = 1..GK_RMAX of each order type met in
    # this run, so each (order type, kind) flow runs once; and the same vector
    # of partial sums of each diagonal's values
    maxima, sums = {}, {}
    # per diagonal, its rectangle in the previous tableau and that rectangle's
    # maxima: `_grids` changes the late cells most often, so rectangles often repeat
    last = [((), ())] * len(plan)
    checked, failed = 0, 0
    for rows in config.pick(_grids(shape, GK_TOTAL), count):
        # `_grids` lays the rows out by the shape with non-negative entries
        rows = tuple([tuple(row) for row in rows])
        built = build(Tableau._trusted(shape, rows)).rows
        for d, (a, b, diagonal) in enumerate(plan):
            rectangle = tuple([row[:b] for row in rows[:a]])
            if rectangle != last[d][0]:
                grid = classical._order_type(rectangle)
                if grid not in maxima:
                    maxima[grid] = (
                        *classical._chain_maxima(grid, family_sizes, "weak"),
                        *classical._chain_maxima(grid, family_sizes, "strict"),
                    )
                last[d] = rectangle, maxima[grid]
            values = tuple([built[i][j] for i, j in diagonal])
            if values not in sums:
                # for r chains the weak maximum is the sum of the first r parts of
                # the diagonal partition mu, the strict one that of the first r columns
                mu = sorted(filter(None, values), reverse=True)
                sums[values] = (
                    *(sum(mu[:r]) for r in family_sizes),
                    *(sum(p if p < r else r for p in mu) for r in family_sizes),
                )
            if sums[values] != last[d][1]:
                failed += sum(map(ne, sums[values], last[d][1]))
            checked += 2 * GK_RMAX
    name = f"chain maxima match diagonal partial sums on {shape}"
    yield name, failed == 0, f"{checked} (tableau, diagonal, family size) checks"


@_suite("syt")
def suite_syt(config: VerifyConfig) -> Iterator[Check]:
    for n in range(1, SYT_N + 1):
        shape = Partition((n,) * n)
        total = n * n
        qualifying, ok = 0, True
        for pi in enumerate_rpps(shape, total):
            if all(pi.trace(k) == n - k and pi.trace(-k) == n - k for k in range(n)):
                qualifying += 1
                ok = ok and classical.check_syt_diagonals(pi)
        yield (
            f"diagonal transpose law for staircase traces, n={n}",
            ok and qualifying > 0,
            f"{qualifying} qualifying fillings",
        )


@_suite("rsk-thm")
def suite_rsk_thm(config: VerifyConfig) -> Iterator[Check]:
    for n in range(1, PERM_N + 1):
        ok = all(
            classical.check_rsk_transpose(classical.permutation_matrix(word))
            for word in permutations(range(1, n + 1))
        )
        yield (
            f"row insertion transposes through the composite map, n={n}",
            ok,
            f"all {math.factorial(n)} permutations",
        )


@_suite("involution")
def suite_involution(config: VerifyConfig) -> Iterator[Check]:
    for n in range(1, PERM_N + 1):
        ok = True
        for word in permutations(range(1, n + 1)):
            sigma = classical.permutation_matrix(word)
            tau = classical.hg(build(sigma))
            if not classical.is_permutation_matrix(tau) or classical.hg(build(tau)) != sigma:
                ok = False
        yield f"composite map is an involution on permutation matrices, n={n}", ok
    witness = None
    for parts in ((3, 3), (3, 3, 3)):
        shape = Partition(parts)
        for t in enumerate_tableaux(shape, 8):
            if classical.is_permutation_matrix(t):
                continue
            once = classical.hg(build(t))
            twice = classical.hg(build(once))
            if twice != t:
                witness = (shape, t)
                break
        if witness:
            break
    yield (
        "composite map is not an involution in general",
        witness is not None,
        f"counterexample on {witness[0]}: {witness[1].rows}" if witness else "",
    )


SUITE_NAMES = tuple(SUITES) + ("all",)


def _run_one(args: tuple[str, VerifyConfig]) -> list[CheckResult]:
    name, config = args
    return SUITES[name](config)


def run_suites(
    names: Sequence[str], config: VerifyConfig | None = None, jobs: int = 1
) -> Iterator[CheckResult]:
    """Run the named suites (or all of them) and yield their results in suite order.

    Each suite's results are yielded once it and every suite before it have
    ended, so an error raised by a later suite reaches the consumer after them.
    """
    config = config or VerifyConfig()
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(k for k in SUITES if k not in expanded)
        elif name in SUITES:
            if name not in expanded:
                expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    units = [(name, config) for name in expanded]
    # one worker per unit at most: a pool starts all its workers at once
    workers = min(jobs, len(units))
    if workers > 1:
        # imported here: the serial path, the CLI default, must not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for group in pool.map(_run_one, units):
                yield from group
    else:
        for unit in units:
            yield from _run_one(unit)
