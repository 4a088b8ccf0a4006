"""Cross-cutting invariants that tie several operations together."""

import pytest
from hypothesis import given, settings, strategies as st

from rimhooks import (
    Partition,
    Rpp,
    content_key,
    extraction_path,
    is_compatible,
    is_factor,
    rim_hook_of_path,
)
from rimhooks.enumeration import enumerate_rpps, enumerate_sw_paths
from rimhooks.insertion import _extractions
from rimhooks.rpp import _add_along
from conftest import rpps


class TestFactorPathsReverseToExtractions:
    def test_any_certifying_path_is_the_greedy_one(self):
        # whenever a south-west path certifies a factor (compatible, reduces to
        # a valid filling, right tail and length), its head is a candidate and
        # the path is exactly the reversed extraction walk from that head
        for parts in ((2, 2), (3, 2), (3, 3, 3)):
            shape = Partition(parts)
            hooks = shape.rim_hooks()
            for pi in enumerate_rpps(shape, 5):
                for hook in hooks:
                    for path in enumerate_sw_paths(shape, hook.tail, len(hook)):
                        if not is_compatible(path, pi):
                            continue
                        try:
                            pi.with_path(path, -1)
                        except ValueError:
                            continue
                        head = path.head
                        assert head in pi.candidates()
                        greedy = extraction_path(head, pi)
                        assert path.reverse().cells == greedy.cells


class TestFactorDefinitionsAgree:
    def test_path_definition_matches_insertion_preimage(self):
        # a rim-hook is a factor exactly when some certifying path exists
        shape = Partition((3, 2))
        for pi in enumerate_rpps(shape, 5):
            for hook in shape.rim_hooks():
                certified = False
                for path in enumerate_sw_paths(shape, hook.tail, len(hook)):
                    if not is_compatible(path, pi):
                        continue
                    try:
                        reduced = pi.with_path(path, -1)
                    except ValueError:
                        continue
                    if rim_hook_of_path(path.reverse(), shape).anchor == hook.anchor:
                        certified = True
                assert is_factor(hook, pi) == certified


class TestMinimalCandidateExtractionAlwaysWorks:
    def test_min_candidate_path_certifies_a_factor(self):
        from rimhooks import is_factor, rim_hook_key

        for parts in ((2, 2), (4, 3, 1)):
            shape = Partition(parts)
            for pi in enumerate_rpps(shape, 6):
                v = pi.min_candidate()
                if v is None:
                    continue
                assert all(content_key(v) <= content_key(u) for u in pi.candidates())
                path = extraction_path(v, pi)
                assert is_compatible(path, pi)
                pi.with_path(path, -1)  # raises if the reduction is invalid
                # some factor exists at most as large as any candidate's hook
                smallest = rim_hook_of_path(path, shape)
                assert is_factor(smallest, pi)
                for u in pi.candidates():
                    at_u = rim_hook_of_path(extraction_path(u, pi), shape)
                    assert any(
                        rim_hook_key(h) <= rim_hook_key(at_u) and is_factor(h, pi)
                        for h in shape.rim_hooks()
                    )


class TestLocalShortcutsMatchFullChecks:
    @settings(max_examples=150, deadline=None)
    @given(rpps())
    def test_incremental_candidates_equal_a_full_scan(self, pi):
        full = pi.candidates()
        for _, _, rows, candidates in _extractions(pi):
            full = Rpp(pi.shape, rows).candidates()
            assert candidates == full
        assert not full

    @settings(max_examples=300, deadline=None)
    @given(rpps(), st.data())
    def test_in_place_update_fails_exactly_when_the_constructor_does(self, pi, data):
        shape = pi.shape
        cells = [data.draw(st.sampled_from(list(shape.cells())))]
        steps = data.draw(st.sampled_from((((-1, 0), (0, 1)), ((1, 0), (0, -1)))))
        for _ in range(data.draw(st.integers(0, 8))):
            di, dj = data.draw(st.sampled_from(steps))
            cells.append((cells[-1][0] + di, cells[-1][1] + dj))
        delta = data.draw(st.sampled_from((1, -1)))
        rows = [list(row) for row in pi.rows]
        try:
            expected = pi.with_path(cells, delta)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                _add_along(shape, rows, cells, delta)
            assert str(raised.value) == str(exc)
            assert rows == [list(row) for row in pi.rows]
        else:
            _add_along(shape, rows, cells, delta)
            assert rows == [list(row) for row in expected.rows]
