"""Tests for the comparison metrics (paper §2.3)."""

import itertools

import pytest

from repro.core.metrics import (
    damerau_levenshtein,
    damerau_levenshtein_reference,
    edit_distance,
    jaccard_index,
)


class TestJaccard:
    def test_identical_lists(self):
        assert jaccard_index(["a", "b"], ["a", "b"]) == 1.0

    def test_order_ignored(self):
        # Paper: Jaccard of 1 means same results, "although not
        # necessarily in the same order".
        assert jaccard_index(["a", "b", "c"], ["c", "b", "a"]) == 1.0

    def test_disjoint(self):
        assert jaccard_index(["a"], ["b"]) == 0.0

    def test_partial_overlap(self):
        assert jaccard_index(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)

    def test_both_empty_is_identical(self):
        assert jaccard_index([], []) == 1.0

    def test_one_empty(self):
        assert jaccard_index(["a"], []) == 0.0

    def test_duplicates_collapse(self):
        assert jaccard_index(["a", "a"], ["a"]) == 1.0

    def test_symmetry(self):
        a, b = ["a", "b", "c"], ["b", "d"]
        assert jaccard_index(a, b) == jaccard_index(b, a)

    def test_bounded(self):
        assert 0.0 <= jaccard_index(["a", "b"], ["b", "c", "d"]) <= 1.0


class TestEditDistance:
    def test_identical(self):
        assert edit_distance(["a", "b", "c"], ["a", "b", "c"]) == 0

    def test_empty_vs_empty(self):
        assert edit_distance([], []) == 0

    def test_insertion(self):
        assert edit_distance(["a", "b"], ["a", "b", "c"]) == 1

    def test_deletion(self):
        assert edit_distance(["a", "b", "c"], ["a", "c"]) == 1

    def test_substitution(self):
        assert edit_distance(["a", "b", "c"], ["a", "x", "c"]) == 1

    def test_adjacent_swap_costs_one(self):
        # The paper counts "swaps" as single operations.
        assert damerau_levenshtein(["a", "b", "c"], ["a", "c", "b"]) == 1

    def test_pure_levenshtein_would_cost_two(self):
        # Sanity: the transposition rule is actually engaged.
        assert damerau_levenshtein(["a", "b"], ["b", "a"]) == 1

    def test_empty_against_full(self):
        assert edit_distance([], ["a", "b", "c"]) == 3
        assert edit_distance(["a", "b", "c"], []) == 3

    def test_completely_different(self):
        assert edit_distance(["a", "b"], ["x", "y"]) == 2

    def test_symmetry(self):
        a = ["a", "b", "c", "d"]
        b = ["b", "a", "d", "e"]
        assert edit_distance(a, b) == edit_distance(b, a)

    def test_triangle_inequality_spot_check(self):
        a = ["a", "b", "c"]
        b = ["b", "c", "d"]
        c = ["d", "e", "f"]
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_bounded_by_longer_length(self):
        a = ["a", "b", "c", "d", "e"]
        b = ["v", "w", "x", "y", "z", "q"]
        assert edit_distance(a, b) <= max(len(a), len(b))

    def test_rotation_example(self):
        # Moving the head to the tail of a 4-list costs 2 ops
        # (delete + insert), not 4.
        assert edit_distance(["a", "b", "c", "d"], ["b", "c", "d", "a"]) == 2

    def test_known_dp_case(self):
        assert edit_distance(list("kitten"), list("sitting")) == 3

    def test_alias(self):
        assert edit_distance(["a"], ["b"]) == damerau_levenshtein(["a"], ["b"])

    def test_kernel_matches_reference_exhaustively(self):
        # Every pair of sequences of length <= 4 over {a, b, c}:
        # 121 sequences, 14,641 pairs.
        sequences = [
            seq for n in range(5) for seq in itertools.product("abc", repeat=n)
        ]
        assert len(sequences) ** 2 == 14_641
        for a in sequences:
            for b in sequences:
                assert damerau_levenshtein(a, b) == damerau_levenshtein_reference(a, b)

    def test_kernel_has_no_word_size_limit(self):
        a = [f"u{i}" for i in range(150)]
        b = a[1:] + ["x"]
        b[70], b[71] = b[71], b[70]
        assert damerau_levenshtein(a, b) == damerau_levenshtein_reference(a, b) == 3
