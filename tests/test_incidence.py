"""Incidence matrix, frequency counts, rebinning, and dense-CSV interchange."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachbench.evaluation import BernoulliProductModel, simulate_incidence
from reachbench.incidence import (
    IncidenceError,
    build_incidence_matrix,
    frequency_counts,
    from_dense_csv,
    head,
    rebin,
    to_dense_csv,
)

UNITS = [
    frozenset({0, 1, 4}),
    frozenset({1}),
    frozenset(),
    frozenset({0, 4, 9}),
    frozenset({9}),
]


class TestBuild:
    def test_hand_worked_matrix(self):
        m = build_incidence_matrix(UNITS)
        assert m.t == 5
        assert m.element_ids == (0, 1, 4, 9)
        assert m.rows == {0: (0, 3), 1: (0, 1), 4: (0, 3), 9: (3, 4)}

    def test_units_roundtrip(self):
        m = build_incidence_matrix(UNITS)
        assert m.units() == list(UNITS)

    def test_empty_log_rejected(self):
        with pytest.raises(IncidenceError):
            build_incidence_matrix([])


class TestFrequencyCounts:
    def test_hand_worked_counts(self):
        counts = frequency_counts(build_incidence_matrix(UNITS))
        assert counts.t == 5
        assert counts.y == (2, 2, 2, 2)
        assert counts.f == {2: 4}
        assert counts.s_obs == 4
        assert counts.total_incidence == 8

    def test_counts_are_recount_of_rows(self, fixture_matrix):
        counts = frequency_counts(fixture_matrix)
        # Independent recount straight from the sparse rows.
        y = sorted(len(cols) for cols in fixture_matrix.rows.values())
        assert sorted(counts.y) == y
        for k in set(y):
            assert counts.fk(k) == y.count(k)
        assert counts.s_obs == len(y)


class TestRebin:
    def test_or_merge_hand_worked(self):
        m = rebin(build_incidence_matrix(UNITS), 2)
        # Units (0|1), (2|3); trailing unit 4 dropped.
        assert m.t == 2
        assert m.units() == [frozenset({0, 1, 4}), frozenset({0, 4, 9})]

    def test_remainder_drop_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="reachbench.incidence"):
            rebin(build_incidence_matrix(UNITS), 2)
        assert any("dropping" in rec.message for rec in caplog.records)

    def test_identity_when_m_is_one(self):
        m = build_incidence_matrix(UNITS)
        assert rebin(m, 1) is m

    def test_invalid_factors_rejected(self):
        m = build_incidence_matrix(UNITS)
        with pytest.raises(IncidenceError):
            rebin(m, 0)
        with pytest.raises(IncidenceError):
            rebin(m, 6)

    @given(
        st.lists(st.frozensets(st.integers(0, 20), max_size=6), min_size=1,
                 max_size=24),
        st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_or_merge(self, units, m):
        if m > len(units):
            return
        t_new = len(units) // m
        expected = [
            frozenset().union(*units[j * m:(j + 1) * m]) for j in range(t_new)
        ]
        got = rebin(build_incidence_matrix(units), m)
        assert got.t == t_new
        assert got.units() == expected
        # An element covered only in the dropped trailing units keeps no row.
        assert got.element_ids == tuple(sorted(frozenset().union(*expected)))
        y = [sum(1 for u in expected if i in u) for i in got.element_ids]
        counts = frequency_counts(got)
        assert counts.y == tuple(y)
        assert counts.f == {k: y.count(k) for k in set(y)}
        assert counts.s_obs == len(y)

    def test_rebin_preserves_or_shrinks_richness(self, fixture_matrix):
        base = frequency_counts(fixture_matrix).s_obs
        for m in (2, 3, 5):
            merged = frequency_counts(rebin(fixture_matrix, m))
            assert merged.s_obs <= base
        # Divisible merge loses no elements.
        assert frequency_counts(rebin(fixture_matrix, 5)).s_obs == base


class TestHead:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 9])
    def test_equals_build_of_leading_units(self, t):
        assert head(build_incidence_matrix(UNITS), t) == build_incidence_matrix(UNITS[:t])

    def test_empty_prefix_rejected(self):
        with pytest.raises(IncidenceError):
            head(build_incidence_matrix(UNITS), 0)


def test_every_constructor_matches_build_from_units(fixture_matrix):
    model = BernoulliProductModel(6, (0.5, 0.01, 0.3, 0.9, 0.05, 0.2), 12)
    made = [
        rebin(fixture_matrix, 3),
        rebin(fixture_matrix, 5),
        head(fixture_matrix, 7),
        simulate_incidence(model, 3),
        from_dense_csv(to_dense_csv(fixture_matrix)),
        from_dense_csv("element_id,u0,u1,u2\n9,0,0,0\n4,0,1,1\n2,1,0,0\n"),
    ]
    for m in made:
        built = build_incidence_matrix(m.units())
        assert (m.t, m.element_ids, m.rows) == (built.t, built.element_ids, built.rows)
        assert m.w.dtype == np.uint8
        assert set(np.unique(m.w).tolist()) <= {0, 1}
        assert m.w.shape == (len(m.element_ids), m.t)


class TestDenseCsv:
    def test_roundtrip(self, fixture_matrix):
        back = from_dense_csv(to_dense_csv(fixture_matrix))
        assert back.t == fixture_matrix.t
        assert back.element_ids == fixture_matrix.element_ids
        assert back.rows == fixture_matrix.rows

    def test_hand_worked_layout(self):
        m = build_incidence_matrix([frozenset({3}), frozenset({3, 7})])
        text = to_dense_csv(m)
        assert text.splitlines() == ["element_id,u0,u1", "3,1,1", "7,0,1"]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("id,u0\n3,1\n", "line 1"),
            ("element_id\n", "line 1"),
            ("element_id,u0,u1\n3,1\n", "line 2"),
            ("element_id,u0\nx,1\n", "line 2"),
            ("element_id,u0,u1\n3,1,2\n", "column 3"),
            ("element_id,u0\n3,1\n3,0\n", "duplicate"),
        ],
    )
    def test_malformed_inputs_report_position(self, text, fragment):
        with pytest.raises(IncidenceError, match=fragment):
            from_dense_csv(text)

    def test_all_zero_row_dropped_on_import(self):
        back = from_dense_csv("element_id,u0,u1\n3,0,0\n7,1,0\n")
        assert back.element_ids == (7,)
