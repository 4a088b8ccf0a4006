from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from rimhooks import (
    Partition,
    Rpp,
    SsytPair,
    Tableau,
    build,
    check_rsk_transpose,
    check_syt_diagonals,
    diag_partition,
    gk_chain_max,
    hg,
    hg_inv,
    is_permutation_matrix,
    permutation_matrix,
    rsk,
    rsk_inv,
)
from rimhooks.classical import _chain_maxima, _hg_inv_step, _order_type, biword
from rimhooks.rpp import _from_frame
from rimhooks.enumeration import _grids, enumerate_rpps, enumerate_tableaux
from conftest import all_partitions
from oracles import rectangle_cells


def hg_inv_oracle(tableau: Tableau) -> Rpp:
    # the biword sorted by column descending, then row ascending
    shape = tableau.shape
    grid = list(shape.frame.zero)
    for f, s in sorted(biword(tableau), key=lambda fs: (-fs[1], fs[0])):
        _hg_inv_step(shape, grid, f, s)
    return Rpp(shape, _from_frame(grid, shape.frame.width, shape.parts))


class TestHillmanGrassl:
    def test_inverse_matches_the_sorted_biword_oracle(self):
        for shape in all_partitions(6):
            for tab in enumerate_tableaux(shape, 7):
                assert hg_inv(tab) == hg_inv_oracle(tab)

    def test_zero(self):
        assert hg(Rpp.zero(Partition((3, 2)))).is_zero()

    def test_single_cell_column(self):
        t = hg(Rpp(Partition((1,)), ((4,),)))
        assert t.rows == ((4,),)

    def test_two_by_two_single_extraction(self):
        # one walk picks up the whole filling: (2,1) east (2,2) north (1,2)
        t = hg(Rpp(Partition((2, 2)), ((0, 1), (1, 1))))
        assert t.rows == ((1, 0), (0, 0))

    def test_two_by_two_two_extractions(self):
        t = hg(Rpp(Partition((2, 2)), ((0, 1), (1, 2))))
        assert t.rows == ((0, 1), (1, 0))

    def test_weighted_size_identity(self):
        for shape in all_partitions(7):
            for pi in enumerate_rpps(shape, 5):
                assert hg(pi).weighted_size == pi.size

    def test_roundtrip(self):
        for shape in all_partitions(7):
            for pi in enumerate_rpps(shape, 5):
                assert hg_inv(hg(pi)) == pi

    def test_inverse_of_zero(self):
        assert hg_inv(Tableau.zero(Partition((2, 2)))).is_zero()

    def test_inverse_example(self):
        pi = hg_inv(Tableau(Partition((2, 2)), ((1, 0), (0, 0))))
        assert pi.rows == ((0, 1), (1, 1))


class TestRsk:
    def test_golden_pair(self):
        pair = rsk(Tableau(Partition((3, 3, 3)), ((1, 1, 2), (0, 1, 0), (3, 0, 0))))
        assert pair.p.rows == ((1, 1, 1, 1), (2, 2, 3), (3,))
        assert pair.q.rows == ((1, 1, 1, 1), (2, 3, 3), (3,))

    def test_zero_matrix(self):
        pair = rsk(Tableau.zero(Partition((2, 2))))
        assert pair.shape == Partition(())

    def test_biword_is_sorted(self):
        t = Tableau(Partition((2, 2)), ((2, 1), (0, 3)))
        pairs = biword(t)
        assert pairs == sorted(pairs)
        assert len(pairs) == t.size

    def test_roundtrip_small_totals(self):
        shape = Partition((3, 3, 3))
        seen = 0
        for rows in _grids(shape, 6):
            t = Tableau(shape, rows)
            assert rsk_inv(rsk(t), shape) == t
            seen += 1
        assert seen == 5005

    def test_shape_mismatch_rejected(self):
        p = Rpp(Partition((2,)), ((1, 1),))
        q = Rpp(Partition((1, 1)), ((1,), (2,)))
        with pytest.raises(ValueError, match="shapes differ"):
            SsytPair(p, q)

    def test_non_column_strict_rejected(self):
        grid = Rpp(Partition((1, 1)), ((1,), (1,)))
        with pytest.raises(ValueError, match="column-strict"):
            SsytPair(grid, grid)

    def test_reverse_bump_without_a_smaller_entry_is_a_value_error(self):
        # bypasses SsytPair's check: P = [[1], [1]] is not column-strict, so
        # row 1 holds no entry less than the 1 bumped back from row 2
        pair = object.__new__(SsytPair)
        object.__setattr__(pair, "p", Rpp(Partition((1, 1)), ((1,), (1,))))
        object.__setattr__(pair, "q", Rpp(Partition((1, 1)), ((1,), (2,))))
        with pytest.raises(ValueError, match="row 1 has no entry less than 1"):
            rsk_inv(pair)

    def test_permutation_matrices_give_standard_tableaux(self):
        for word in permutations((1, 2, 3)):
            pair = rsk(permutation_matrix(word))
            entries = sorted(v for _, v in pair.q.entries())
            assert entries == [1, 2, 3]


class TestDiagPartition:
    def test_golden(self, steep_example):
        assert diag_partition(steep_example, 0) == Partition((4, 3, 1))
        assert diag_partition(steep_example, -1) == Partition((4, 2))

    def test_zero(self):
        assert diag_partition(Rpp.zero(Partition((3, 2))), 0) == Partition(())

    def test_missing_diagonal(self, steep_example):
        assert diag_partition(steep_example, 9) == Partition(())


class TestRectangles:
    def test_full_square(self):
        shape = Partition((3, 3, 3))
        assert len(rectangle_cells(shape, 0)) == 9
        assert rectangle_cells(shape, 2) == ((1, 1), (1, 2), (1, 3))
        assert rectangle_cells(shape, 9) == ()

    def test_staircase(self):
        shape = Partition((4, 3, 1))
        # south-easternmost content 0 cell is (2,2)
        assert rectangle_cells(shape, 0) == ((1, 1), (1, 2), (2, 1), (2, 2))


class TestGreeneKleitman:
    def test_golden_values(self):
        t = Tableau(Partition((3, 3, 3)), ((1, 1, 2), (0, 1, 0), (3, 0, 0)))
        assert gk_chain_max(t, 0, 1, "weak") == 4
        assert gk_chain_max(t, 0, 4, "strict") == 8

    def test_zero(self):
        t = Tableau.zero(Partition((2, 2)))
        assert gk_chain_max(t, 0, 3, "weak") == 0

    def test_partial_sums_against_rsk_shape(self):
        # Greene's theorem: the insertion shape of the rectangle-restricted
        # matrix carries the same chain maxima
        shape = Partition((3, 3, 3))
        count = 0
        for t in enumerate_tableaux(shape, 5):
            for k in (-1, 0, 1):
                cells = rectangle_cells(shape, k)
                rect = Partition((cells[-1][1],) * cells[-1][0])
                grid = [[0] * rect.parts[0] for _ in range(rect.length)]
                for (i, j) in cells:
                    grid[i - 1][j - 1] = t.value((i, j))
                mu = rsk(Tableau(rect, grid)).shape
                nu = mu.conjugate()
                for r in (1, 2, 3):
                    assert sum(mu.parts[:r]) == gk_chain_max(t, k, r, "weak")
                    assert sum(nu.parts[:r]) == gk_chain_max(t, k, r, "strict")
                count += 1
        assert count > 100

    def test_rectangles_of_every_small_shape(self):
        # rectangles against the rectangle_cells definition, and chain maxima
        # against Greene's theorem on the rectangle-restricted matrix, on
        # shapes that are not rectangles too
        import random

        from rimhooks.classical import _rectangle_rows

        rng = random.Random(11)
        for shape in all_partitions(8):
            for _ in range(2):
                grid = [[rng.randint(0, 2) for _ in range(p)] for p in shape.parts]
                t = Tableau(shape, grid)
                for k in range(-shape.length - 1, shape.parts[0] + 2):
                    cells = rectangle_cells(shape, k)
                    rows = _rectangle_rows(t, k)
                    laid = {(i, j): v for i, row in enumerate(rows, 1) for j, v in enumerate(row, 1)}
                    assert laid == {u: t.value(u) for u in cells}
                    if cells:
                        rows, cols = cells[-1]
                        block = [row[:cols] for row in t.rows[:rows]]
                        rect = Tableau(Partition((cols,) * rows), block)
                        mu = rsk(rect).shape
                    else:
                        mu = Partition(())
                    nu = mu.conjugate()
                    for r in (1, 2, 3):
                        assert gk_chain_max(t, k, r, "weak") == sum(mu.parts[:r])
                        assert gk_chain_max(t, k, r, "strict") == sum(nu.parts[:r])

    def test_many_chains_through_one_cell(self):
        # one cell of capacity 2000: each strict chain is that cell alone
        t = Tableau(Partition((1,)), ((2000,),))
        assert gk_chain_max(t, 0, 1100, "strict") == 1100
        t = Tableau(Partition((1,)), ((10**6,),))
        assert gk_chain_max(t, 0, 10**6, "strict") == 10**6
        assert gk_chain_max(t, 0, 10**6 + 1, "strict") == 10**6
        assert gk_chain_max(t, 0, 1, "weak") == 10**6

    def test_a_family_past_every_entry_takes_the_whole_rectangle(self):
        # the flow stops once it covers the rectangle, so its cost is bounded by
        # the rectangle, not by r, and r needs no ceiling
        import random

        rng = random.Random(21)
        grid = [[rng.randint(0, 3) for _ in range(10)] for _ in range(10)]
        t = Tableau(Partition((10,) * 10), grid)
        for kind in ("weak", "strict"):
            assert gk_chain_max(t, 0, 10**21, kind) == sum(map(sum, grid))

    def test_random_six_by_six_against_rsk_shape(self):
        # Greene's theorem for every family size, past the point where the
        # flow has taken every entry, on tableaux too large for the oracle
        import random

        rng = random.Random(2024)
        shape = Partition((6,) * 6)
        for _ in range(8):
            grid = [[0] * 6 for _ in range(6)]
            for _ in range(30):
                grid[rng.randrange(6)][rng.randrange(6)] += 1
            t = Tableau(shape, grid)
            for k in shape.contents:
                rows, cols = rectangle_cells(shape, k)[-1]
                rectangle = Tableau(Partition((cols,) * rows), [row[:cols] for row in grid[:rows]])
                mu = rsk(rectangle).shape
                for kind, lam in (("weak", mu), ("strict", mu.conjugate())):
                    for r in range(1, lam.length + 3):
                        assert gk_chain_max(t, k, r, kind) == sum(lam.parts[:r])

    def test_large_square_with_large_entries(self):
        # 3600 cells with entries up to 10^6: no refusal, no recursion limit.
        # Every entry is nonzero, so r strict chains of length 60 fit, and
        # one weak chain is the heaviest south-east lattice path.
        import random

        rng = random.Random(60)
        n = 60
        grid = [[rng.randint(1, 10**6) for _ in range(n)] for _ in range(n)]
        t = Tableau(Partition((n,) * n), grid)
        heaviest = [[0] * (n + 1) for _ in range(n + 1)]
        for i in range(n):
            for j in range(n):
                heaviest[i + 1][j + 1] = grid[i][j] + max(heaviest[i][j + 1], heaviest[i + 1][j])
        weak = [gk_chain_max(t, 0, r, "weak") for r in range(1, 5)]
        assert weak[0] == heaviest[n][n]
        gains = [b - a for a, b in zip([0] + weak, weak)]
        assert gains == sorted(gains, reverse=True) and gains[-1] > 0
        assert [gk_chain_max(t, 0, r, "strict") for r in range(1, 5)] == [60, 120, 180, 240]

    def test_interrupted_flow_starts_afresh(self, monkeypatch):
        # nothing resumes: r = 2 runs its own flow, and a run cut short in
        # its Dijkstra caches nothing, so the next call starts afresh
        import rimhooks.classical as classical

        t = Tableau(Partition((3, 3, 3)), ((1, 1, 2), (0, 1, 0), (3, 0, 0)))
        assert gk_chain_max(t, 0, 1, "weak") == 4

        def interrupt(heap):
            raise KeyboardInterrupt

        monkeypatch.setattr(classical, "heappop", interrupt)
        with pytest.raises(KeyboardInterrupt):
            gk_chain_max(t, 0, 2, "weak")
        monkeypatch.undo()
        assert [gk_chain_max(t, 0, r, "weak") for r in (1, 2, 3)] == [4, 7, 8]

    def test_a_loop_over_family_sizes_stays_linear(self, monkeypatch):
        # each r runs the flow to r rounded up to a power of two, so r = 1..40
        # makes fewer than 4 * 40 augmentations; a memo keyed on r makes 742
        import random

        import rimhooks.classical as classical

        rng = random.Random(30)
        grid = [[rng.randint(0, 3) for _ in range(30)] for _ in range(30)]
        t = Tableau(Partition((30,) * 30), grid)
        real, count = classical._augmentations, 0

        def counted(entries, kind):
            nonlocal count
            for augmentation in real(entries, kind):
                count += 1
                yield augmentation

        classical._breakpoints.cache_clear()
        monkeypatch.setattr(classical, "_augmentations", counted)
        try:
            for r in range(1, 41):
                gk_chain_max(t, 0, r, "weak")
        finally:
            classical._breakpoints.cache_clear()
        assert 0 < count < 4 * 40

    def test_threads_asking_at_once_agree_with_a_serial_run(self):
        import random
        import sys
        import threading

        import rimhooks.classical as classical

        rng = random.Random(7)
        grid = [[rng.randint(0, 3) for _ in range(10)] for _ in range(10)]
        t = Tableau(Partition((10,) * 10), grid)
        family_sizes = range(1, 16)
        expected = [gk_chain_max(t, 0, r, "weak") for r in family_sizes]
        classical._breakpoints.cache_clear()
        results, errors = [], []

        def ask():
            try:
                results.append([gk_chain_max(t, 0, r, "weak") for r in family_sizes])
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=ask) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
            classical._breakpoints.cache_clear()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [expected] * 4

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_chain_maxima_see_only_the_order_type(self, data):
        # an order-preserving relabelling spreads the rows and columns apart
        # with zero rows and columns between them; transposing and turning by
        # 180 degrees keep every chain maximum too. Greene's theorem on the
        # row insertion shape of each image is the oracle.
        height, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        cell = st.integers(0, 3)
        grid = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                                  min_size=height, max_size=height))
        to_row = sorted(data.draw(st.sets(st.integers(0, 6), min_size=height, max_size=height)))
        to_col = sorted(data.draw(st.sets(st.integers(0, 6), min_size=width, max_size=width)))
        spread_width = to_col[-1] + 1 + data.draw(st.integers(0, 2))
        spread = [[0] * spread_width for _ in range(to_row[-1] + 2)]
        for x, row in zip(to_row, grid):
            for y, v in zip(to_col, row):
                spread[x][y] = v
        transposed = [list(column) for column in zip(*spread)]
        turned = [row[::-1] for row in spread[::-1]]
        family_sizes = range(1, 6)
        for image in (grid, spread, transposed, turned):
            mu = rsk(Tableau(Partition((len(image[0]),) * len(image)), image)).shape
            for kind, lam in (("weak", mu), ("strict", mu.conjugate())):
                expected = [sum(lam.parts[:r]) for r in family_sizes]
                assert _chain_maxima(_order_type(image), family_sizes, kind) == expected

    def test_bad_arguments(self):
        t = Tableau.zero(Partition((2, 2)))
        with pytest.raises(ValueError):
            gk_chain_max(t, 0, 0, "weak")
        with pytest.raises(ValueError):
            gk_chain_max(t, 0, 1, "diagonal")

    def test_against_transparent_oracle(self):
        # oracle: recurse over every chain multiset within the capacities,
        # with no search-space reductions at all
        import itertools
        import random

        def comparable(u, v, kind):
            if kind == "weak":
                return (u[0] <= v[0] and u[1] <= v[1]) or (
                    v[0] <= u[0] and v[1] <= u[1]
                )
            return (u[0] > v[0] and u[1] < v[1]) or (v[0] > u[0] and v[1] < u[1])

        def oracle(t, k, r, kind):
            cells = [u for u in rectangle_cells(t.shape, k) if t.value(u)]
            caps = {u: t.value(u) for u in cells}
            chains = []
            for size in range(1, len(cells) + 1):
                for sub in itertools.combinations(cells, size):
                    if all(comparable(a, b, kind) for a, b in itertools.combinations(sub, 2)):
                        if kind == "strict":
                            chains.append({u: 1 for u in sub})
                        else:
                            for mult in itertools.product(
                                *(range(1, caps[u] + 1) for u in sub)
                            ):
                                chains.append(dict(zip(sub, mult)))
            best = 0

            def rec(remaining, depth, used):
                nonlocal best
                best = max(best, used)
                if depth == 0:
                    return
                for chain in chains:
                    if any(remaining[u] < m for u, m in chain.items()):
                        continue
                    nxt = dict(remaining)
                    for u, m in chain.items():
                        nxt[u] -= m
                    rec(nxt, depth - 1, used + sum(chain.values()))

            rec(dict(caps), r, 0)
            return best

        rng = random.Random(7)
        shape = Partition((2, 2))
        for _ in range(40):
            t = Tableau(shape, [[rng.randint(0, 2) for _ in range(2)] for _ in range(2)])
            for k in (-1, 0, 1):
                for r in (1, 2):
                    for kind in ("weak", "strict"):
                        assert oracle(t, k, r, kind) == gk_chain_max(t, k, r, kind)


class TestSquareTheorems:
    def test_syt_smallest(self):
        assert check_syt_diagonals(Rpp(Partition((1,)), ((1,),)))

    def test_syt_two(self):
        assert check_syt_diagonals(Rpp(Partition((2, 2)), ((0, 1), (1, 2))))

    def test_syt_three_exhaustive(self):
        shape = Partition((3, 3, 3))
        qualifying = [
            pi
            for pi in enumerate_rpps(shape, 9)
            if all(pi.trace(k) == 3 - k and pi.trace(-k) == 3 - k for k in range(3))
        ]
        assert len(qualifying) == 6
        assert all(check_syt_diagonals(pi) for pi in qualifying)

    def test_syt_precondition(self):
        with pytest.raises(ValueError):
            check_syt_diagonals(Rpp.zero(Partition((2, 2))))
        with pytest.raises(ValueError):
            check_syt_diagonals(Rpp.zero(Partition((2, 1))))

    def test_rsk_transpose_exhaustive(self):
        for n in (1, 2, 3, 4):
            for word in permutations(range(1, n + 1)):
                assert check_rsk_transpose(permutation_matrix(word))

    def test_rsk_transpose_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            check_rsk_transpose(Tableau.zero(Partition((2, 2))))

    def test_involution_on_permutations(self):
        for word in permutations((1, 2, 3)):
            sigma = permutation_matrix(word)
            tau = hg(build(sigma))
            assert is_permutation_matrix(tau)
            assert hg(build(tau)) == sigma

    def test_not_an_involution_in_general(self):
        shape = Partition((3, 3))
        t = Tableau(shape, ((0, 0, 1), (1, 1, 0)))
        once = hg(build(t))
        assert hg(build(once)) != t


class TestPermutationMatrices:
    def test_one_line_notation(self):
        t = permutation_matrix((3, 1, 2))
        assert t.rows == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
        assert is_permutation_matrix(t)

    def test_rejects_non_permutation_word(self):
        with pytest.raises(ValueError):
            permutation_matrix((1, 1, 3))

    def test_predicate_rejects_other_grids(self):
        assert not is_permutation_matrix(Tableau.zero(Partition((2, 2))))
        assert not is_permutation_matrix(
            Tableau(Partition((2, 1)), ((1, 0), (0,)))
        )
