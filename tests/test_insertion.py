import pytest

from rimhooks import insertion
from rimhooks import (
    Factorization,
    InsertionFailure,
    Partition,
    Rpp,
    Tableau,
    build,
    content_key,
    extraction_path,
    factorize,
    format_cell,
    insertion_path,
    is_compatible,
    rim_hook_of_path,
    try_insert,
)
from rimhooks.enumeration import enumerate_rpps, enumerate_sw_paths, enumerate_tableaux
from rimhooks.insertion import LatticePath
from rimhooks.rpp import _from_frame
from conftest import all_partitions
from oracles import extract_min, is_factor


class TestLatticePath:
    def test_orientation_validation(self):
        LatticePath(((1, 3), (2, 3), (2, 2)))
        LatticePath(((2, 2), (2, 3), (1, 3)))
        with pytest.raises(ValueError, match="only south/west or only north/east"):
            LatticePath(((1, 3), (2, 3), (2, 4)))
        with pytest.raises(ValueError):
            LatticePath(((1, 1), (3, 1)))

    def test_head_tail_orientation_independent(self):
        sw = LatticePath(((1, 3), (2, 3), (2, 2)))
        ne = sw.reverse()
        assert ne.cells == ((2, 2), (2, 3), (1, 3))
        assert sw.head == ne.head == (2, 2)
        assert sw.tail == ne.tail == (1, 3)
        assert ne.reverse() == sw


class TestCompatibility:
    def test_rim_into_zero(self):
        shape = Partition((4, 3, 1))
        zero = Rpp.zero(shape)
        for hook in shape.rim_hooks():
            path = LatticePath(tuple(reversed(hook.cells)))
            assert is_compatible(path, zero)

    def test_golden_path(self, staircase_example):
        path = LatticePath(((1, 3), (2, 3), (2, 2)))
        assert is_compatible(path, staircase_example)

    def test_brute_forced_violation(self, staircase_example):
        # scanning all 3-cell south-west paths with tail (1,3) finds exactly
        # one incompatible path: straight down the third column
        shape = staircase_example.shape
        bad = [
            p.cells
            for p in enumerate_sw_paths(shape, (1, 3), 3)
            if not is_compatible(p, staircase_example)
        ]
        assert bad == [((1, 3), (2, 3), (3, 3))]

    def test_path_outside_shape_is_an_error(self):
        pi = Rpp.zero(Partition((2, 2)))
        path = LatticePath(((3, 1),))
        with pytest.raises(ValueError, match="leaves the shape"):
            is_compatible(path, pi)


class TestInsertionPath:
    def test_golden_left(self, staircase_example):
        hook = staircase_example.shape.rim_hook((1, 3))
        assert insertion_path(hook, staircase_example).cells == ((1, 3), (2, 3), (2, 2))

    def test_golden_right(self, staircase_example):
        hook = staircase_example.shape.rim_hook((2, 2))
        assert insertion_path(hook, staircase_example).cells == ((2, 3), (2, 2), (2, 1))

    def test_into_zero_reproduces_the_rim(self):
        for parts in ((2, 2), (4, 3, 1), (5, 2, 1, 1)):
            shape = Partition(parts)
            zero = Rpp.zero(shape)
            for hook in shape.rim_hooks():
                assert insertion_path(hook, zero).cells == tuple(reversed(hook.cells))

    def test_total_even_when_walk_exits_west(self):
        shape = Partition((3, 3, 3))
        pi = Rpp(shape, ((0, 0, 0), (1, 1, 1), (2, 2, 2)))
        path = insertion_path(shape.rim_hook((1, 1)), pi)
        assert len(path) == 5
        assert path.cells == ((1, 3), (1, 2), (1, 1), (1, 0), (1, -1))

    def test_shape_mismatch_is_a_fault(self, staircase_example):
        with pytest.raises(ValueError, match="shape"):
            insertion_path(Partition((2, 2)).rim_hook((1, 1)), staircase_example)


class TestTryInsert:
    def test_golden_results(self, staircase_example):
        shape = staircase_example.shape
        left = try_insert(shape.rim_hook((1, 3)), staircase_example)
        right = try_insert(shape.rim_hook((2, 2)), staircase_example)
        assert left.rows == ((0, 0, 1), (0, 1, 1), (1, 1, 1))
        assert right.rows == ((0, 0, 0), (1, 1, 1), (1, 1, 1))

    def test_into_zero_gives_indicator(self):
        shape = Partition((4, 3, 1))
        for hook in shape.rim_hooks():
            result = try_insert(hook, Rpp.zero(shape))
            assert isinstance(result, Rpp)
            for u, v in result.entries():
                assert v == (1 if u in hook else 0)

    def test_first_failure_on_3x3_has_witness(self):
        # brute-force search for the first failing pair in enumeration order
        shape = Partition((3, 3))
        first = None
        for pi in enumerate_rpps(shape, 3):
            for hook in shape.rim_hooks():
                result = try_insert(hook, pi)
                if isinstance(result, InsertionFailure):
                    first = (pi, hook, result)
                    break
            if first:
                break
        assert first is not None
        pi, hook, failure = first
        assert failure.witness in pi.candidates()
        head = insertion_path(hook, pi).head
        assert content_key(failure.witness) < content_key(head)

    def test_every_failure_in_range_has_witness(self):
        shape = Partition((3, 3, 3))
        for pi in enumerate_rpps(shape, 4):
            for hook in shape.rim_hooks():
                result = try_insert(hook, pi)
                if isinstance(result, InsertionFailure):
                    assert result.witness in pi.candidates()
                    assert content_key(result.witness) < content_key(result.path.head)

    def test_weight_identity(self):
        shape = Partition((3, 2))
        for pi in enumerate_rpps(shape, 5):
            for hook in shape.rim_hooks():
                result = try_insert(hook, pi)
                if isinstance(result, Rpp):
                    assert result.size == pi.size + len(hook)

    def test_trace_shift_is_the_hook_content_interval(self):
        shape = Partition((4, 3, 1))
        for pi in enumerate_rpps(shape, 4):
            for hook in shape.rim_hooks():
                result = try_insert(hook, pi)
                if not isinstance(result, Rpp):
                    continue
                i, j = hook.anchor
                lo = j - shape.col_length(j)
                hi = shape.parts[i - 1] - i
                for k in range(-5, 7):
                    expected = pi.trace(k) + (1 if lo <= k <= hi else 0)
                    assert result.trace(k) == expected


class TestExtraction:
    def test_single_cell_path(self, running_example):
        assert extraction_path((1, 4), running_example).cells == ((1, 4),)

    def test_long_golden_path(self):
        pi = Rpp(Partition((4, 3, 1)), ((0, 0, 1, 1), (1, 1, 1), (1,)))
        path = extraction_path((3, 1), pi)
        assert path.cells == ((3, 1), (2, 1), (2, 2), (2, 3), (1, 3), (1, 4))

    def test_single_column_trivial(self):
        pi = Rpp(Partition((1,)), ((7,),))
        assert extraction_path((1, 1), pi).cells == ((1, 1),)

    def test_non_candidate_rejected(self, running_example):
        with pytest.raises(ValueError, match="candidate"):
            extraction_path((1, 1), running_example)


class TestRimHookOfPath:
    def test_examples(self, running_example):
        shape = running_example.shape
        single = LatticePath(((1, 4),))
        assert rim_hook_of_path(single, shape).anchor == (1, 4)
        long = LatticePath(((3, 1), (2, 1), (2, 2), (2, 3), (1, 3), (1, 4)))
        assert rim_hook_of_path(long, shape).anchor == (1, 1)
        row = LatticePath(((1, 2), (1, 3), (1, 4)))
        assert rim_hook_of_path(row, shape).anchor == (1, 3)

    def test_bad_tail_is_internal_error(self):
        shape = Partition((4, 3, 1))
        path = LatticePath(((1, 2),))
        with pytest.raises(RuntimeError):
            rim_hook_of_path(path, shape)


class TestFactors:
    def test_golden_factor(self, running_example):
        hook = running_example.shape.rim_hook((1, 4))
        assert is_factor(hook, running_example)

    def test_zero_has_no_factors(self):
        shape = Partition((3, 2))
        zero = Rpp.zero(shape)
        assert not any(is_factor(h, zero) for h in shape.rim_hooks())

    def test_factor_set_matches_brute_force(self):
        # oracle: h is a factor of pi iff inserting h into some smaller filling
        # yields pi
        shape = Partition((2, 2))
        fillings = list(enumerate_rpps(shape, 4))
        for pi in fillings:
            for hook in shape.rim_hooks():
                oracle = any(
                    try_insert(hook, smaller) == pi
                    for smaller in fillings
                    if smaller.size == pi.size - len(hook)
                )
                assert is_factor(hook, pi) == oracle


class TestExtractMin:
    def test_golden_chain(self, running_example):
        hook, rest = extract_min(running_example)
        assert hook.anchor == (1, 4)
        assert rest.rows == ((0, 1, 2, 2), (1, 2, 2), (1,))
        anchors = []
        cur = running_example
        while (step := extract_min(cur)) is not None:
            hook, cur = step
            anchors.append(hook.anchor)
        assert anchors == [(1, 4), (1, 3), (2, 2), (1, 1)]
        assert cur.is_zero()

    def test_zero_returns_none(self):
        assert extract_min(Rpp.zero(Partition((2, 2)))) is None


class TestFactorize:
    def test_golden_tableau(self, running_example):
        fact = factorize(running_example)
        tab = fact.to_tableau()
        assert tab.rows == ((1, 0, 1, 1), (0, 1, 0), (0,))

    def test_zero(self):
        assert factorize(Rpp.zero(Partition((3, 1)))).anchors == ()

    def test_weighted_size_identity(self):
        shape = Partition((3, 2))
        for pi in enumerate_rpps(shape, 6):
            assert factorize(pi).to_tableau().weighted_size == pi.size

    def test_factorization_type_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Factorization(Partition((2, 2)), ((1, 1), (1, 4)))

    @pytest.mark.parametrize("anchor", [(0, 1), (1, 3), (3, 1), (2, 0)])
    def test_factorization_type_rejects_anchors_outside_the_shape(self, anchor):
        # (0,1) and (2,0) once wrapped round to another row in to_tableau
        with pytest.raises(ValueError, match=r"^anchor \(.*\) lies outside the shape 2,1$"):
            Factorization(Partition((2, 1)), (anchor,))


def build_oracle(tableau: Tableau) -> Rpp:
    # the multiset expanded into its anchors and inserted largest first, one
    # hook length per hook; a failure is reported as `build` reports it
    shape = tableau.shape
    parts, width = shape.parts, shape.frame.width
    anchors = tableau.anchors()
    grid = list(shape.frame.zero)
    for step, anchor in enumerate(reversed(anchors), start=1):
        tail = anchor[0] * width + parts[anchor[0] - 1]
        if insertion._insertion_walk(shape, grid, tail, shape.hook_length(anchor))[1]:
            continue
        result = try_insert(shape.rim_hook(anchor), Rpp(shape, _from_frame(grid, width, parts)))
        raise RuntimeError(
            "lexicographic insertion failed, which contradicts the "
            f"well-definedness theorem: shape {shape}, multiset "
            f"{anchors}, step {step} at anchor {format_cell(anchor)}: {result}"
        )
    return Rpp(shape, _from_frame(grid, width, parts))


class TestBuild:
    def test_matches_the_anchor_list_oracle(self):
        for shape in all_partitions(6):
            for tab in enumerate_tableaux(shape, 7):
                assert build(tab) == build_oracle(tab)

    def test_a_failure_names_the_step_the_oracle_names(self, monkeypatch):
        # the m-th insertion fails as a walk that changed nothing, for every m,
        # so repeated hooks fail on their first copy and on later ones
        tab = Tableau(Partition((3, 2, 1)), ((2, 0, 1), (1, 3), (2,)))
        walk = insertion._insertion_walk

        def failing_at(m):
            calls = 0

            def step(shape, grid, tail, length):
                nonlocal calls
                calls += 1
                return ([tail], False) if calls == m else walk(shape, grid, tail, length)

            return step

        for m in range(1, tab.size + 1):
            messages = []
            for run in (build, build_oracle):
                monkeypatch.setattr(insertion, "_insertion_walk", failing_at(m))
                with pytest.raises(RuntimeError) as raised:
                    run(tab)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
            assert f"step {m} at anchor" in messages[0]

    def test_golden_inverse(self, running_example):
        tab = Tableau(running_example.shape, ((1, 0, 1, 1), (0, 1, 0), (0,)))
        assert build(tab) == running_example

    def test_empty(self):
        shape = Partition((3, 3, 3))
        assert build(Tableau.zero(shape)).is_zero()

    def test_derived_two_by_two(self):
        # hand-executed: the big hook goes in first and wraps the rim, then
        # the single-cell hook lands on the inner corner cell
        shape = Partition((2, 2))
        tab = Tableau(shape, ((1, 0), (0, 1)))
        assert build(tab).rows == ((0, 1), (1, 2))

    def test_lex_order_determinism(self):
        # inserting the sorted multiset largest-first is exactly build; any
        # valid run that follows the lexicographic order gives the same result
        shape = Partition((3, 2))
        for tab in enumerate_tableaux(shape, 6):
            anchors = tab.anchors()
            cur = Rpp.zero(shape)
            for anchor in reversed(anchors):
                result = try_insert(shape.rim_hook(anchor), cur)
                assert isinstance(result, Rpp)
                cur = result
            assert cur == build(tab)
