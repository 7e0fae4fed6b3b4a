"""Comparison metrics for pages of search results (paper §2.3).

Two metrics, exactly as the paper defines them:

* **Jaccard index** over the *sets* of result URLs — 1 means the two
  pages contain the same results (order ignored), 0 means no overlap.
* **Edit distance** over the *sequences* of result URLs — "the number
  of additions, deletions, and swaps necessary to make two lists
  identical", i.e. Damerau–Levenshtein distance (optimal string
  alignment variant, which counts a transposition as one operation).
  OSA distance is not a metric: it can break the triangle inequality,
  e.g. ``ca → abc`` costs 3 but ``ca → ac → abc`` costs 1 + 1.

:func:`damerau_levenshtein` computes OSA distance with Hyyrö's
bit-parallel recurrence; :func:`damerau_levenshtein_reference` is the
plain O(n·m) dynamic program kept as its test oracle.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["jaccard_index", "damerau_levenshtein", "edit_distance"]


def jaccard_index(a: Sequence[str], b: Sequence[str]) -> float:
    """Jaccard index of the URL *sets* of two result pages.

    Two empty pages are defined as identical (1.0), matching the
    convention needed when type-filtering removes every result.

    >>> jaccard_index(["x", "y"], ["y", "x"])
    1.0
    >>> jaccard_index(["x"], ["y"])
    0.0
    """
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    return len(set_a & set_b) / len(union)


def damerau_levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Damerau–Levenshtein distance between two result sequences.

    Optimal string alignment: insertions, deletions, substitutions, and
    adjacent transpositions each cost 1 (a transposition models two
    results swapping places on the page).

    Bit-parallel (Hyyrö 2003, "A bit-vector algorithm for computing
    Levenshtein and Damerau edit distances"): bit ``i`` of ``vp``/``vn``
    says the DP column rises/falls by one at row ``i``, so each element
    of ``b`` advances the whole column of ``a`` in a few word operations.
    Python ints are unbounded, so ``a`` may have any length.  Equal to
    :func:`damerau_levenshtein_reference` on every input.

    >>> damerau_levenshtein(["a", "b", "c"], ["a", "c", "b"])
    1
    >>> damerau_levenshtein(["a", "b"], ["a", "b", "c"])
    1
    """
    if a == b:
        return 0
    len_a = len(a)
    if len_a == 0 or len(b) == 0:
        return len_a or len(b)
    match = {}
    bit = 1
    for item in a:
        match[item] = match.get(item, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    vp, vn, d0, pm_prev = full, 0, 0, 0
    distance = len_a
    for item in b:
        pm = match.get(item, 0)
        transposed = ((~d0 & pm) << 1) & pm_prev
        d0 = ((((pm & vp) + vp) ^ vp) | pm | vn | transposed) & full
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0
        pm_prev = pm
    return distance


def damerau_levenshtein_reference(a: Sequence[str], b: Sequence[str]) -> int:
    """The O(n·m) OSA dynamic program: the oracle for
    :func:`damerau_levenshtein`, called only by tests."""
    len_a, len_b = len(a), len(b)
    if len_a == 0:
        return len_b
    if len_b == 0:
        return len_a
    # Classic O(n·m) DP with one extra diagonal for transpositions.
    previous2 = [0] * (len_b + 1)
    previous = list(range(len_b + 1))
    for i in range(1, len_a + 1):
        current = [i] + [0] * len_b
        for j in range(1, len_b + 1):
            substitution_cost = 0 if a[i - 1] == b[j - 1] else 1
            current[j] = min(
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                previous[j - 1] + substitution_cost,  # substitution
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                current[j] = min(current[j], previous2[j - 2] + 1)  # transposition
        previous2, previous = previous, current
    return previous[len_b]


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Alias for :func:`damerau_levenshtein` (the paper's "edit distance")."""
    return damerau_levenshtein(a, b)
