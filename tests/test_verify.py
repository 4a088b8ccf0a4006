"""The verify suites as streams: sampling by index, the budget checked before
any enumeration, and memory that does not grow with the number of fillings."""

import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from rimhooks import BudgetExceededError, Partition, classical, cli, enumeration
from rimhooks.enumeration import projected_rpp_count
from rimhooks.verify import (
    READS,
    SUITES,
    VerifyConfig,
    run_suites,
    suite_bijection,
    suite_gk,
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
    # one filling, one tableau, and no corner for `pak` to force or `commute` to toggle
    results = list(run_suites([suite], VerifyConfig(shapes=((),))))
    assert results and all(r.passed and '""' in r.line() for r in results)


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
    # once per (tableau, diagonal), 2002 tableaux of 3,3,3 at total 5 by 5 diagonals,
    # and never again inside `_chain_maxima`
    assert len(reduced) == 2002 * 5
    assert len(flows) == len(set(flows)) == 2 * len(set(reduced)) == 474


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
