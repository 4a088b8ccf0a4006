"""The trusted constructors at every call site, against the validating ones.

The autouse fixture in conftest makes each `_trusted` validate for every
other test; here the real ones run. Each grid must be what the validating
constructor makes of the same rows, stored as a tuple of int tuples, and
each path and factorization what its validating constructor accepts.
"""

import pytest
from hypothesis import given, settings

from rimhooks import Partition, Rpp, Tableau, build, classical, factorize, peeling, verify
from rimhooks.enumeration import enumerate_rpps, enumerate_tableaux
from rimhooks.insertion import (
    Factorization,
    InsertionFailure,
    LatticePath,
    extraction_path,
    insertion_path,
    try_insert,
)
from conftest import TRUSTED, all_partitions, rpps


def _restore(mp):
    for cls, trusted in TRUSTED.items():
        mp.setattr(cls, "_trusted", trusted)


@pytest.fixture
def real_trusted():
    with pytest.MonkeyPatch.context() as mp:
        _restore(mp)
        yield


def _assert_certified(grid, cls):
    assert type(grid) is cls
    assert type(grid.rows) is tuple
    assert all(type(row) is tuple and all(type(v) is int for v in row) for row in grid.rows)
    assert grid == cls(grid.shape, grid.rows)


def _assert_path(path):
    assert type(path.cells) is tuple
    assert path == LatticePath(path.cells)


def _check_tableau_sites(t):
    _assert_certified(build(t), Rpp)
    _assert_certified(classical.hg_inv(t), Rpp)


def _check_filling_sites(pi):
    """Every kernel exit that takes a filling, on `pi`."""
    shape = pi.shape
    _assert_certified(classical.hg(pi), Tableau)
    _assert_certified(peeling.peel_tableau(pi), Tableau)
    fact = factorize(pi)
    assert type(fact.anchors) is tuple and fact == Factorization(shape, fact.anchors)
    tableau = fact.to_tableau()
    _assert_certified(tableau, Tableau)
    _check_tableau_sites(tableau)
    for x in shape.corners()[1]:
        _assert_certified(peeling.corner_toggle(pi, x), Rpp)
    for u in pi.candidates():
        _assert_path(extraction_path(u, pi))
    for hook in shape.rim_hooks():
        _assert_path(insertion_path(hook, pi))
        result = try_insert(hook, pi)
        if isinstance(result, InsertionFailure):
            _assert_path(result.path)
        else:
            _assert_certified(result, Rpp)


@settings(max_examples=60, deadline=None)
@given(rpps())
def test_kernel_results_on_random_fillings(pi):
    with pytest.MonkeyPatch.context() as mp:
        _restore(mp)
        _check_filling_sites(pi)


def test_every_small_filling_and_tableau(real_trusted):
    for shape in all_partitions(6):
        for pi in enumerate_rpps(shape, 4):
            _assert_certified(pi, Rpp)
            _check_filling_sites(pi)
        for t in enumerate_tableaux(shape, 4):
            _assert_certified(t, Tableau)
            _check_tableau_sites(t)


def test_gk_suite_tableaux(real_trusted, monkeypatch):
    seen = []

    def checked_build(t):
        _assert_certified(t, Tableau)
        seen.append(t)
        return build(t)

    monkeypatch.setattr(verify, "build", checked_build)
    (result,) = verify.suite_gk(verify.VerifyConfig(sample=30, seed=1))
    assert result.passed and len(seen) == 30
    assert all(t.shape == Partition(verify.GK_SHAPE) for t in seen)


def test_fixtures_swap_the_constructor(real_trusted):
    # here the real ones store what they are given; everywhere else they validate
    assert Rpp._trusted(Partition((2,)), ((1, 0),)).rows == ((1, 0),)
    assert LatticePath._trusted(((1, 1), (1, 3))).cells == ((1, 1), (1, 3))
    assert Factorization._trusted(Partition((2,)), ((1, 1), (1, 2))).anchors == ((1, 1), (1, 2))


def test_trusted_validates_under_the_autouse_fixture():
    with pytest.raises(ValueError, match=r"\(1,2\)"):
        Rpp._trusted(Partition((2,)), ((1, 0),))
    with pytest.raises(ValueError, match="only south/west or only north/east"):
        LatticePath._trusted(((1, 1), (1, 3)))
    with pytest.raises(ValueError, match="weakly increasing"):
        Factorization._trusted(Partition((2,)), ((1, 1), (1, 2)))
