"""The verify suites as streams: sampling by index, the budget checked before
any enumeration, and memory that does not grow with the number of fillings."""

import dataclasses
import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from rimhooks import BudgetExceededError, Partition, classical, cli, enumeration, peeling, verify
from rimhooks.enumeration import projected_rpp_count
from rimhooks.insertion import InsertionFailure
from rimhooks.rpp import Rpp, Tableau
from rimhooks.verify import (
    READS,
    SUITES,
    VerifyConfig,
    run_suites,
    suite_bijection,
    suite_gk,
    suite_pak,
)


DATA = Path(__file__).parent / "data"


def test_verify_all_prints_the_pinned_lines():
    lines = [result.line() for result in run_suites(["all"])]
    assert lines == (DATA / "verify-all.txt").read_text().splitlines()


def test_each_suite_is_registered_under_its_name():
    assert SUITES["bijection"] is suite_bijection and SUITES["gk"] is suite_gk
    assert all(SUITES[name].__name__ == "suite_" + name.replace("-", "_") for name in SUITES)


def test_the_fixed_instance_suites_are_the_ones_that_read_no_shape():
    fixed = {name for name in SUITES if "shapes" not in READS[name]}
    assert fixed == {"golden", "gk", "syt", "rsk-thm", "involution"}


@pytest.mark.parametrize("suite", [name for name in SUITES if "shapes" in READS[name]])
@pytest.mark.parametrize("sampling", [{}, {"sample": 3, "seed": 5}])
def test_each_shape_is_a_unit_of_its_own(suite, sampling):
    # what a shape gives does not depend on the shapes run beside it
    bounds = dict(size_bound=4, weight_bound=4, path_size_bound=4, stanley_degree=6,
                  trace_degree=5, **sampling)
    a, b = (3, 1), (2, 2, 1)
    apart = [SUITES[suite](VerifyConfig(shapes=(shape,), **bounds)) for shape in (a, b)]
    assert SUITES[suite](VerifyConfig(shapes=(a, b), **bounds)) == apart[0] + apart[1]


def test_sampled_verify_all_prints_the_pinned_json(capsys):
    code = cli.run(["verify", "all", "--sample", "40", "--seed", "3", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == (DATA / "verify-all-sample40-seed3.json").read_text()


def _list_pick(config: VerifyConfig, items: list) -> list:
    # the list-based subsample that `pick` replaces, kept as its oracle
    if config.sample is None or len(items) <= config.sample:
        return items
    rng = random.Random(config.seed)
    keep = sorted(rng.sample(range(len(items)), config.sample))
    return [items[i] for i in keep]


@pytest.mark.parametrize("count", [0, 1, 2, 6, 7, 8, 40, 41, 199, 1000])
def test_pick_keeps_what_the_list_pick_kept(count):
    items = [f"item {i}" for i in range(count)]
    for sample in (None, 1, 2, 7, 40, 500):
        for seed in (0, 1, 3, 11, 2**40):
            config = VerifyConfig(sample=sample, seed=seed)
            assert list(config.pick(iter(items), count)) == _list_pick(config, items)


def test_pick_reads_the_stream_to_its_end():
    ended = []

    def stream():
        yield from range(100)
        ended.append(True)

    assert len(list(VerifyConfig(sample=3, seed=5).pick(stream(), 100))) == 3
    assert ended == [True]


ENUMERATING = ["bijection", "pak", "commute", "insertion-uniqueness", "crossing", "hg", "diag"]


@pytest.mark.parametrize("suite", ENUMERATING)
def test_the_budget_is_checked_before_the_first_shape_is_enumerated(suite, monkeypatch):
    grids = []
    monkeypatch.setattr(enumeration, "_grids", lambda *args, **kwargs: grids.append(args))
    config = VerifyConfig(
        shapes=((1,), (5, 2, 1, 1)),
        size_bound=50,
        weight_bound=50,
        path_size_bound=50,
        trace_degree=50,
    )
    with pytest.raises(BudgetExceededError, match="of 5,2,1,1 would yield 23541240 items"):
        SUITES[suite](config)
    assert grids == []


@pytest.mark.parametrize("suite", ["stanley", "gansner", *ENUMERATING])
def test_each_suite_that_reads_the_shapes_passes_on_the_empty_shape(suite):
    # one filling, one tableau, and no corner for `pak` to force or `commute`
    # to toggle; then the all-east and all-north rims of one row and one column
    for parts in ((), (5,), (1, 1, 1, 1)):
        results = list(run_suites([suite], VerifyConfig(shapes=(parts,))))
        assert results and all(r.passed and f"{Partition(parts)}" in r.line() for r in results)


def _peak_growth(config: VerifyConfig) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        # CPython keeps up to 2000 freed tuples of each small size for reuse. A
        # tuple built from a generator is resized, so it is freed into another
        # size's cache than the one it came from, and those caches fill as a run
        # goes on. Filling them first keeps that bounded cache out of the peak.
        held = [tuple(range(n)) for n in range(1, 21) for _ in range(2000)]
        del held
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        suite_bijection(config)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_bijection_memory_does_not_grow_with_the_fillings():
    shape = (3, 3, 3)
    low, high = (VerifyConfig(shapes=(shape,), size_bound=b, weight_bound=b) for b in (8, 14))
    assert projected_rpp_count(Partition(shape), 14) > 3 * projected_rpp_count(Partition(shape), 8)
    assert _peak_growth(high) < 1.5 * _peak_growth(low)


def test_a_wrong_chain_maximum_fails_gk_with_the_memo_warm(monkeypatch):
    # the first run fills the flow memo; a fault on one order type must still show
    assert suite_gk(VerifyConfig())[0].passed
    real = classical._chain_maxima
    # the order type of the content-0 rectangle of the tableau with a single hook at (2,2)
    faulty = classical._order_type(((0, 0, 0), (0, 1, 0), (0, 0, 0)))

    def wrong_on_one(grid, family_sizes, kind):
        gains = real(grid, family_sizes, kind)
        return [gains[0] + 1, *gains[1:]] if grid == faulty and kind == "strict" else gains

    monkeypatch.setattr(classical, "_chain_maxima", wrong_on_one)
    (result,) = suite_gk(VerifyConfig())
    assert not result.passed


def test_gk_runs_one_flow_per_order_type_and_kind(monkeypatch):
    # a cold run: the flow memo holds nothing from earlier tests
    flows, reduced = [], []
    real_flow, real_type = classical._augmentations, classical._order_type

    def counted_flow(grid, kind):
        flows.append((grid, kind))
        return real_flow(grid, kind)

    def counted_type(rows):
        reduced.append(real_type(rows))
        return reduced[-1]

    monkeypatch.setattr(classical, "_augmentations", counted_flow)
    monkeypatch.setattr(classical, "_order_type", counted_type)
    classical._breakpoints.cache_clear()
    try:
        (result,) = suite_gk(VerifyConfig())
    finally:
        classical._breakpoints.cache_clear()
    assert result.passed
    # once per change of a diagonal's rectangle from one tableau to the next, of
    # 2002 tableaux of 3,3,3 at total 5 by 5 diagonals, and never inside `_chain_maxima`
    assert len(reduced) == 651 + 1287 + 2002 + 462 + 56
    assert len(flows) == len(set(flows)) == 2 * len(set(reduced)) == 474


def test_a_wrong_diagonal_entry_fails_gk_with_both_memos_warm(monkeypatch):
    # one entry raised on diagonal -1 of a late tableau, where its rectangle's order
    # type and the raised diagonal values have both been met earlier in the run
    target, cell = ((4, 0, 1), (0, 0, 0), (0, 0, 0)), (2, 1)
    diagonal = [(i, i - 1) for i in (1, 2)]
    real_build, real_maxima = verify.build, classical._chain_maxima
    met, events = set(), []

    def raised_on_target(t):
        built = real_build(t)
        if t.rows == target:
            built = built.with_path([(cell[0] + 1, cell[1] + 1)], +1)
            raised = tuple([built.rows[i][j] for i, j in diagonal])
            assert raised in met
        met.add(tuple([built.rows[i][j] for i, j in diagonal]))
        events.append(t.rows)
        return built

    def recorded(grid, family_sizes, kind):
        events.append("flow")
        return real_maxima(grid, family_sizes, kind)

    monkeypatch.setattr(verify, "build", raised_on_target)
    monkeypatch.setattr(classical, "_chain_maxima", recorded)
    (result,) = suite_gk(VerifyConfig())
    assert not result.passed
    # no order type was new to the run between the target's build and the next one
    after = events[events.index(target) + 1:]
    assert after and after[0] != "flow"


def test_jobs_are_capped_at_one_worker_per_suite(monkeypatch):
    # a stand-in pool records what it is asked for and starts no process
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units):
            return map(fn, units)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    results = list(run_suites(["golden", "stanley"], jobs=5000))
    assert asked == [2]
    assert results == list(run_suites(["golden", "stanley"]))
    list(run_suites(["golden"], jobs=5000))
    assert asked == [2]


@pytest.mark.parametrize("parts", [*verify.DEFAULT_SHAPES, (5,), (1, 1, 1, 1), ()])
def test_pak_peels_each_filling_once_per_distinct_order(parts, monkeypatch):
    # the reference peel, one per outer corner but the one of largest content,
    # whose forced order is the reference's own, and the reversed policy,
    # unless it too is the reference's order: on one row, one column or none
    shape = Partition(parts)
    calls = []
    real = peeling.peel_tableau

    def counted(pi, order=None):
        calls.append(order)
        return real(pi, order)

    monkeypatch.setattr(peeling, "peel_tableau", counted)
    config = VerifyConfig(shapes=(parts,))
    assert all(result.passed for result in suite_pak(config))
    outer = shape._corner_cells[1]
    distinct = shape.length > 1 and shape.parts[0] > 1
    reversed_start = [(shape.length, shape.parts[-1])] if distinct else []
    per_filling = 1 + len(outer[:-1]) + len(reversed_start)
    assert len(calls) == projected_rpp_count(shape, config.size_bound) * per_filling
    # the default order, each other corner forced first, then the reversed
    # policy, which starts at the end of the last row
    starts = [order and order[0] for order in calls[:per_filling]]
    assert starts == [None, *outer[:-1], *reversed_start]


@pytest.mark.parametrize("parts", [(4, 3, 1), (5, 2, 1, 1)])
def test_a_peel_wrong_off_the_reference_start_fails_pak(parts, monkeypatch):
    shape = Partition(parts)
    real = peeling.peel_tableau

    def wrong_off_the_reference_start(pi, order=None):
        tableau = real(pi, order)
        if order is not None and order[0] != shape.revlex_cells[0]:
            first, *rest = tableau.rows
            tableau = Tableau(shape, ((first[0] + 1, *first[1:]), *rest))
        return tableau

    monkeypatch.setattr(peeling, "peel_tableau", wrong_off_the_reference_start)
    agree, independent = suite_pak(VerifyConfig(shapes=(parts,)))
    assert agree.passed
    assert not independent.passed and independent.name.startswith("corner choice does not matter")


def test_a_wrong_witness_at_a_second_failure_fails_insertion_uniqueness(monkeypatch):
    # on the first filling with two failed insertions, the second reports a
    # witness that is no candidate: the candidates read at the first must catch it
    real_insert, real_candidates = verify.try_insert, Rpp.candidates
    failures, reads, wrong = {}, {}, []

    def counted_candidates(pi):
        reads[pi.rows] = reads.get(pi.rows, 0) + 1
        return real_candidates(pi)

    def wrong_at_a_second_failure(hook, pi):
        result = real_insert(hook, pi)
        if isinstance(result, InsertionFailure):
            failures[pi.rows] = failures.get(pi.rows, 0) + 1
            if failures[pi.rows] == 2 and not wrong:
                assert reads[pi.rows] == 1
                wrong.append(pi.rows)
                return dataclasses.replace(result, witness=(0, 0))
        return result

    monkeypatch.setattr(verify, "try_insert", wrong_at_a_second_failure)
    monkeypatch.setattr(Rpp, "candidates", counted_candidates)
    (result,) = SUITES["insertion-uniqueness"](VerifyConfig(shapes=((3, 2),)))
    assert wrong and not result.passed
    # each filling's candidates are read once, and only at a failure
    assert set(reads) == set(failures)
    assert set(reads.values()) == {1}
