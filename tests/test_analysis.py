"""Density, interval theorem, gaps, periodicity, and search sweeps."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vtnum import (
    ParameterError,
    VerificationError,
    ap_search,
    bertrand_check,
    bertrand_theorem_witness,
    conjecture_no6,
    density_series,
    gap_demonstration,
    gap_window,
    periodicity_equal_popcount,
    periodicity_identity,
    popcount3_census,
    triangular,
    weight_enumerate,
)
from vtnum.analysis import _SQUARE_TABLES, _low_popcount_triangulars


class TestDensity:
    def test_single_point(self):
        (point,) = density_series([21])
        assert point.N == 21
        assert point.vt_count == 5
        assert point.ratio == Fraction(5, 21)
        assert point.ratio_decimal == "0.2380952381"

    def test_multiple_points_accumulate(self, ref):
        points = density_series([10, 100, 1000])
        for point in points:
            assert point.vt_count == len(ref.vt_indexes(1, point.N))
        counts = [p.vt_count for p in points]
        assert counts == sorted(counts)

    def test_whole_ratio_prints_bare(self):
        (point,) = density_series([1])
        assert point.ratio == Fraction(1)
        assert point.ratio_decimal == "1"

    def test_rejects_unsorted_or_nonpositive(self):
        with pytest.raises(ParameterError):
            density_series([10, 10])
        with pytest.raises(ParameterError):
            density_series([100, 10])
        with pytest.raises(ParameterError):
            density_series([0, 10])
        with pytest.raises(ParameterError):
            density_series([])


class TestBertrandIntervals:
    TABLE = {
        4: [21, 28],
        5: [21, 28],
        6: [28],
        7: [],
        8: [],
        9: [],
        10: [190],
        19: [231, 276, 378, 435, 630],
    }

    @pytest.mark.parametrize("n,expected", sorted(TABLE.items()))
    def test_known_intervals(self, n, expected):
        report = bertrand_check(n)
        assert list(report.witnesses) == expected

    def test_interval_is_open(self):
        report = bertrand_check(19)
        assert report.interval == (190, 741)
        for w in report.witnesses:
            assert report.t_lo < w < report.t_hi

    def test_tiny_intervals_are_empty(self):
        for n in (1, 2, 3):
            assert bertrand_check(n).witnesses == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            bertrand_check(0)

    def test_nonempty_for_all_covered_n(self):
        for n in itertools.chain((4, 5, 6), range(10, 400)):
            report = bertrand_check(n)
            assert report.witnesses, f"no witness for n = {n}"

    def test_witnesses_are_vt_values(self, ref):
        report = bertrand_check(50)
        for value in report.witnesses:
            m = None
            for cand in range(51, 100):
                if ref.triangular(cand) == value:
                    m = cand
            assert m is not None
            assert ref.is_vt_index(m)


class TestBertrandTheoremWitness:
    def test_case_i(self):
        w = bertrand_theorem_witness(17)  # 17 = 2^4 + 1
        assert (w.case, w.index, w.value) == ("i", 19, 190)

    def test_case_ii(self):
        w = bertrand_theorem_witness(18)  # 18 = 2^4 + 2
        assert (w.case, w.index, w.value) == ("ii", 19, 190)

    def test_case_iii(self):
        w = bertrand_theorem_witness(100)
        assert (w.case, w.index, w.value) == ("iii", 131, 8646)

    def test_smallest_covered_n(self):
        # n = 10 has the shape of case ii but its candidate t_11 = 66
        # has popcount 2, so the general-position witness applies
        w = bertrand_theorem_witness(10)
        assert (w.case, w.index, w.value) == ("iii", 19, 190)

    def test_rejects_small_n(self):
        for n in (0, 1, 9):
            with pytest.raises(ParameterError):
                bertrand_theorem_witness(n)

    def test_witness_lies_inside_and_is_vt(self, ref):
        for n in range(10, 2000):
            w = bertrand_theorem_witness(n)
            assert n < w.index < 2 * n
            assert ref.is_vt_index(w.index)
            assert w.value == ref.triangular(w.index)

    def test_case_labels_partition(self):
        seen = {bertrand_theorem_witness(n).case for n in range(10, 600)}
        assert seen == {"i", "ii", "iii"}


class TestGapWindows:
    def test_window_28(self):
        report = gap_window(28)
        base = 2**28 - 2**14
        assert report.window == (base, base + 7)
        assert list(report.member_popcounts) == [29, 30, 30, 30, 32, 31, 31]
        assert report.all_non_vt
        assert dict(report.power_offset_popcounts) == {1: 29, 2: 30, 4: 30}
        assert report.predictions_match

    def test_window_36(self):
        report = gap_window(36)
        assert len(report.member_popcounts) == 9
        assert list(report.member_popcounts) == [37, 38, 38, 38, 40, 39, 39, 38, 40]
        assert report.all_non_vt and report.predictions_match

    @pytest.mark.parametrize("k", [28, 36, 120, 136])
    def test_power_offset_law(self, k):
        report = gap_window(k)
        assert report.all_non_vt
        for m, pc in report.power_offset_popcounts:
            assert pc == (k + 1 if m == 1 else k + 2)
        assert report.predictions_match

    def test_members_match_direct_computation(self, ref):
        report = gap_window(28)
        base = 2**28 - 2**14
        for offset, pc in enumerate(report.member_popcounts, start=1):
            assert pc == ref.popcount(ref.triangular(base + offset))

    @pytest.mark.parametrize("k", [0, -4, 10, 12, 27])
    def test_rejects_bad_k(self, k):
        # k must be triangular and divisible by 4
        with pytest.raises(ParameterError):
            gap_window(k)

    def test_demonstration_picks_smallest_k(self):
        assert gap_demonstration(1).k == 28
        assert gap_demonstration(5).k == 28
        assert gap_demonstration(7).k == 28
        assert gap_demonstration(8).k == 36
        assert gap_demonstration(9).k == 36

    def test_demonstration_guarantees_width(self):
        for g in (1, 4, 9, 20, 30):
            report = gap_demonstration(g)
            assert len(report.member_popcounts) >= g
            assert report.all_non_vt

    def test_demonstration_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            gap_demonstration(0)


class TestPeriodicity:
    def test_identity_examples(self):
        assert periodicity_identity(6, 0)
        assert periodicity_identity(10, 5)
        assert periodicity_identity(6, 3)

    def test_identity_holds_even_for_smallest_n(self):
        for k in range(0, 64):
            assert periodicity_identity(1, k)

    def test_identity_grid(self):
        for n in range(1, 30):
            for k in range(0, 60):
                assert periodicity_identity(n, k)

    def test_identity_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            periodicity_identity(0, 5)
        with pytest.raises(ParameterError):
            periodicity_identity(3, -1)

    def test_equal_popcount_examples(self):
        assert periodicity_equal_popcount(30, 31, 1870)
        assert periodicity_equal_popcount(6, 20, 0)

    def test_equal_popcount_grid(self):
        for n in range(6, 12):
            bound = 2 ** ((n - 1) // 2)
            for m in (n, n + 1, n + 7):
                for k in range(bound):
                    assert periodicity_equal_popcount(n, m, k)

    def test_equal_popcount_rejects_out_of_domain(self):
        with pytest.raises(ParameterError):
            periodicity_equal_popcount(5, 6, 0)
        with pytest.raises(ParameterError):
            periodicity_equal_popcount(6, 5, 0)
        with pytest.raises(ParameterError):
            periodicity_equal_popcount(6, 6, 4)
        with pytest.raises(ParameterError):
            periodicity_equal_popcount(6, 6, -1)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(min_value=6, max_value=40),
        m_off=st.integers(min_value=0, max_value=25),
        data=st.data(),
    )
    def test_equal_popcount_property(self, n, m_off, data):
        k = data.draw(st.integers(min_value=0, max_value=2 ** ((n - 1) // 2) - 1))
        assert periodicity_equal_popcount(n, n + m_off, k)


class TestWeightEnumerate:
    def test_small_case(self):
        got = list(weight_enumerate(2, 6))
        assert got == sorted(got)
        assert got == [x for x in range(1, 64) if bin(x).count("1") == 2]

    @pytest.mark.parametrize("weight,bits", [(1, 8), (3, 9), (5, 12), (6, 13)])
    def test_matches_filtered_range(self, weight, bits):
        got = list(weight_enumerate(weight, bits))
        want = [x for x in range(1, 2**bits) if bin(x).count("1") == weight]
        assert got == want
        assert len(got) == math.comb(bits, weight)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            list(weight_enumerate(0, 5))
        with pytest.raises(ParameterError):
            list(weight_enumerate(3, 2))


class TestLowPopcountEngine:
    """The value-side engine against the index-side Gosper sweep."""

    @pytest.mark.parametrize("bits", range(1, 19))
    def test_agrees_with_weight_sweep(self, bits, ref):
        want = sorted(
            (n, ref.triangular(n))
            for weight in range(1, min(bits, 9) + 1)
            for n in weight_enumerate(weight, bits)
            if ref.popcount(ref.triangular(n)) <= 3
        )
        assert _low_popcount_triangulars(bits) == want

    @pytest.mark.parametrize("bits", range(1, 41))
    def test_agrees_with_unsieved_inversion(self, bits, ref):
        assert _low_popcount_triangulars(bits) == ref.low_popcount_triangulars(bits)

    def test_hits_at_128_bits(self, ref):
        hits = _low_popcount_triangulars(128)
        assert len(hits) == 134
        for n, t in hits:
            assert ref.triangular(n) == t and ref.popcount(t) <= 3 and n < 2**128

    def test_reaches_the_widest_value_and_no_further(self):
        # t_(2^B - 1) has 2B - 1 bits (t_3 = 6, t_7 = 28); t_(2^B) is out of range
        assert _low_popcount_triangulars(1) == [(1, 1)]
        assert _low_popcount_triangulars(2) == [(1, 1), (2, 3), (3, 6)]
        assert _low_popcount_triangulars(3)[-1] == (7, 28)
        assert popcount3_census(3, 3) == [21, 28]
        assert popcount3_census(2, 3) == [21]


class TestResidueSieve:
    @pytest.mark.parametrize("m, squares", _SQUARE_TABLES, ids=[str(m) for m, _ in _SQUARE_TABLES])
    def test_accepts_every_triangular_residue(self, m, squares, ref):
        # t_n mod m repeats with period dividing 2m in n
        rejected = [n for n in range(2 * m) if not squares[(8 * ref.triangular(n) + 1) % m]]
        assert rejected == []


class TestConjectureSweep:
    def test_weight_six_clean_to_twenty_bits(self):
        assert conjecture_no6(6, 20) == []

    def test_weight_seven_clean_to_sixteen_bits(self):
        assert conjecture_no6(7, 16) == []

    def test_agrees_with_direct_filter(self, ref):
        got = conjecture_no6(6, 14)
        want = [
            n
            for n in range(1, 2**14)
            if bin(n).count("1") == 6
            and ref.popcount(ref.triangular(n)) <= 3
        ]
        assert got == want

    def test_weight_six_clean_to_sixty_four_bits(self):
        assert conjecture_no6(6, 64) == []

    def test_weight_six_clean_to_128_bits(self):
        assert conjecture_no6(6, 128) == []

    def test_rejects_low_weight(self):
        with pytest.raises(ParameterError):
            conjecture_no6(5, 20)


class TestPopcount3Census:
    def test_known_values_below_22_bits(self):
        assert popcount3_census(5, 22) == [21, 28, 276, 1540]

    def test_known_values_below_128_bits(self):
        assert popcount3_census(5, 128) == [21, 28, 276, 1540]

    def test_tight_weight_bound(self):
        assert popcount3_census(3, 22) == [21, 28]
        assert popcount3_census(1, 22) == []

    def test_agrees_with_direct_filter(self, ref):
        bits = 16
        hits = [n for n in range(1, 2**bits) if ref.popcount(ref.triangular(n)) == 3]
        for max_weight in range(1, bits + 1):
            want = [ref.triangular(n) for n in hits if bin(n).count("1") <= max_weight]
            assert popcount3_census(max_weight, bits) == want, max_weight

    def test_values_are_triangular_with_popcount_3(self):
        for value in popcount3_census(5, 40):
            assert bin(value).count("1") == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            popcount3_census(0, 10)
        with pytest.raises(ParameterError):
            popcount3_census(3, 0)


class TestApSearch:
    def test_unit_difference_hits(self):
        got = [(h.first, h.difference) for h in ap_search(3, 1, 1000, 1)]
        assert got == [(541, 1), (581, 1), (796, 1), (858, 1), (859, 1), (885, 1), (934, 1)]

    def test_tiny_window_is_empty(self):
        assert ap_search(3, 1, 10, 10) == []

    def test_hits_are_sorted_and_in_range(self):
        hits = ap_search(3, 1, 2000, 8)
        keys = [(h.first, h.difference) for h in hits]
        assert keys == sorted(keys)
        for h in hits:
            assert 1 <= h.first
            assert h.first + (h.length - 1) * h.difference <= 2000 + (h.length - 1) * h.difference

    def test_agrees_with_direct_search(self, ref):
        got = {(h.first, h.difference) for h in ap_search(3, 1, 600, 6)}
        want = set()
        for d in range(1, 7):
            for first in range(1, 601):
                if all(ref.is_vt_index(first + i * d) for i in range(3)):
                    want.add((first, d))
        assert got == want

    def test_members_are_all_vt(self, ref):
        for h in ap_search(4, 1, 3000, 5):
            for i in range(h.length):
                assert ref.is_vt_index(h.first + i * h.difference)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            ap_search(2, 1, 100, 5)
        with pytest.raises(ParameterError):
            ap_search(3, 1, 100, 0)
        with pytest.raises(ParameterError):
            ap_search(3, 0, 100, 5)


class TestVerificationErrorType:
    def test_exposed_and_distinct(self):
        assert issubclass(VerificationError, Exception)
        assert not issubclass(VerificationError, ParameterError)


def test_triangular_helper_alignment(ref):
    # keep the reference used across this module honest too
    for n in (1, 2, 3, 100, 12345):
        assert triangular(n) == ref.triangular(n)
