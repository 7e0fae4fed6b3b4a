"""The one pair walk: which records pair up, in what order, compared once."""

from __future__ import annotations

import itertools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.comparisons as comparisons
from repro.core.comparisons import noise_record_pairs, treatment_record_pairs
from repro.core.datastore import SerpDataset, SerpRecord
from repro.core.report import StudyReport

_QUERIES = {"coffee": "local", "school": "local", "gun control": "controversial"}
_LOCATIONS = ("b", "c", "a")


def _records():
    """A tiny crawl in lock-step order: day, query, granularity, location, copy."""
    records = []
    for day in range(2):
        for query, category in _QUERIES.items():
            for granularity in ("county", "state"):
                for location in _LOCATIONS:
                    for copy in range(2):
                        urls = tuple(
                            f"{query}/{(day + copy + len(location) + i) % 5}"
                            for i in range(3)
                        )
                        records.append(
                            SerpRecord(
                                query=query,
                                category=category,
                                granularity=granularity,
                                location_name=f"{granularity}/{location}",
                                day=day,
                                copy_index=copy,
                                urls=urls,
                                type_codes=bytes(len(urls)),
                            )
                        )
    return records


RECORDS = _records()


def _cell_pairs(records, walk):
    """Each (category, granularity) cell's pairs, as a multiset of keys."""
    dataset = SerpDataset(records)
    cells = {}
    for category in dataset.categories():
        for granularity in dataset.granularities():
            subset = dataset.filter(category=category, granularity=granularity)
            cells[(category, granularity)] = Counter(
                (a.key, b.key) for a, b in walk(subset)
            )
    return cells


class TestWalkOrder:
    def test_noise_pairs_follow_copy0_order(self):
        pairs = list(noise_record_pairs(RECORDS))
        assert [a for a, _ in pairs] == [r for r in RECORDS if r.copy_index == 0]
        for a, b in pairs:
            assert b.copy_index == 1
            assert a.key[:4] == b.key[:4]

    def test_treatment_pairs_group_then_sort_locations(self):
        pairs = list(treatment_record_pairs(RECORDS))
        expected = []
        groups = {}
        for record in RECORDS:
            if record.copy_index == 0:
                groups.setdefault(
                    (record.query, record.granularity, record.day), []
                ).append(record)
        for group in groups.values():
            ordered = sorted(group, key=lambda r: r.location_name)
            expected.extend(itertools.combinations(ordered, 2))
        assert pairs == expected
        assert len(pairs) == len(groups) * 3

    def test_missing_half_is_skipped(self):
        dropped = [r for r in RECORDS if not (r.copy_index == 1 and r.day == 0)]
        pairs = list(noise_record_pairs(dropped))
        assert pairs and all(a.day == 1 for a, _ in pairs)


class TestWalkProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.permutations(RECORDS), st.integers(min_value=0, max_value=20))
    def test_cells_invariant_under_permutation(self, permuted, lost):
        # Losing records changes which pairs exist; reordering never does.
        kept = set(map(id, permuted[lost:]))
        canonical = [r for r in RECORDS if id(r) in kept]
        for walk in (noise_record_pairs, treatment_record_pairs):
            expected = _cell_pairs(canonical, walk)
            actual = _cell_pairs(permuted[lost:], walk)
            assert actual == expected


class TestComparedOnce:
    def test_figures_2_to_7_compare_each_pair_once(self, small_dataset, monkeypatch):
        calls = []
        original = comparisons.compare_records

        def counting(a, b):
            calls.append((id(a), id(b)))
            return original(a, b)

        monkeypatch.setattr(comparisons, "compare_records", counting)
        report = StudyReport(small_dataset)
        for render in (
            report.render_fig2,
            report.render_fig3,
            report.render_fig4,
            report.render_fig5,
            report.render_fig6,
            report.render_fig7,
        ):
            render()
        every_pair = {
            (id(a), id(b))
            for walk in (noise_record_pairs, treatment_record_pairs)
            for a, b in walk(small_dataset)
        }
        assert len(calls) == len(set(calls))
        assert set(calls) == every_pair
