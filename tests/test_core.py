"""Exact-arithmetic primitives."""
import pytest
from hypothesis import given, strategies as st

from vtnum import (
    ParameterError,
    VtRecord,
    binary_string,
    classify_index,
    count_vt,
    integer_sqrt,
    is_triangular,
    is_very_triangular_index,
    is_very_triangular_value,
    popcount,
    popcount_of_triangular,
    triangular,
)


class TestTriangular:
    def test_first_values(self):
        assert [triangular(n) for n in range(1, 9)] == [1, 3, 6, 10, 15, 21, 28, 36]

    def test_known_points(self):
        assert triangular(42) == 903
        assert triangular(43) == 946
        assert triangular(1023) == 523776

    @pytest.mark.parametrize("bad", [0, -1, -10**9])
    def test_rejects_nonpositive_index(self, bad):
        with pytest.raises(ParameterError):
            triangular(bad)

    @given(st.integers(min_value=1, max_value=10**50))
    def test_twice_value_is_product(self, n):
        assert 2 * triangular(n) == n * (n + 1)

    @given(st.integers(min_value=1, max_value=10**20))
    def test_strictly_increasing(self, n):
        assert triangular(n + 1) - triangular(n) == n + 1


class TestPopcount:
    def test_examples(self):
        assert popcount(0) == 0
        assert popcount(1) == 1
        assert popcount(21) == 3
        assert popcount(903) == 6

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            popcount(-1)

    @given(st.integers(min_value=0, max_value=1 << 256))
    def test_matches_string_count(self, x):
        assert popcount(x) == bin(x).count("1")

    @given(
        st.integers(min_value=0, max_value=1 << 128),
        st.integers(min_value=0, max_value=128),
    )
    def test_splits_across_a_shift(self, x, shift):
        # pc(a * 2^s + b) = pc(a) + pc(b) whenever b < 2^s
        low = x & ((1 << shift) - 1)
        high = x >> shift
        assert popcount(x) == popcount(high) + popcount(low)

    @given(st.integers(min_value=0, max_value=1 << 128), st.integers(min_value=0, max_value=64))
    def test_shift_invariant(self, x, s):
        assert popcount(x << s) == popcount(x)


class TestIntegerSqrt:
    def test_examples(self):
        assert integer_sqrt(0) == 0
        assert integer_sqrt(1) == 1
        assert integer_sqrt(12321) == 111
        assert integer_sqrt(12320) == 110

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            integer_sqrt(-4)

    @given(st.integers(min_value=0, max_value=10**40))
    def test_floor_property(self, x):
        s = integer_sqrt(x)
        assert s * s <= x < (s + 1) * (s + 1)


class TestIsTriangular:
    def test_examples(self):
        assert is_triangular(21) == 6
        assert is_triangular(523776) == 1023
        assert is_triangular(22) is None
        assert is_triangular(20) is None

    def test_zero_is_not_indexed(self):
        assert is_triangular(0) is None

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            is_triangular(-3)

    def test_exhaustive_against_additive_enumeration(self, ref):
        table = ref.triangular_set(10**5)
        for x in range(1, 10**5 + 1):
            n = is_triangular(x)
            if x in table:
                assert n is not None and triangular(n) == x
            else:
                assert n is None

    @given(st.integers(min_value=1, max_value=10**30))
    def test_round_trip(self, n):
        assert is_triangular(triangular(n)) == n

    @given(st.integers(min_value=1, max_value=10**30))
    def test_recognized_values_reconstruct(self, x):
        n = is_triangular(x)
        if n is not None:
            assert triangular(n) == x

    @given(st.integers(min_value=1, max_value=10**30))
    def test_neighbors_of_triangulars_rejected(self, n):
        t = triangular(n)
        assert is_triangular(t + 1) is None or t + 1 == triangular(n + 1)
        assert is_triangular(t - 1) is None or t - 1 == triangular(n - 1)


class TestVeryTriangular:
    def test_first_vt_indexes(self):
        got = [n for n in range(1, 31) if is_very_triangular_index(n)]
        assert got == [1, 6, 7, 19, 21, 23, 27, 29]

    def test_value_form_examples(self):
        assert is_very_triangular_value(1)
        assert is_very_triangular_value(21)
        assert is_very_triangular_value(903)
        assert not is_very_triangular_value(3)  # pc 2
        assert not is_very_triangular_value(22)  # not triangular at all
        assert not is_very_triangular_value(0)

    def test_value_and_index_forms_agree(self):
        for n in range(1, 3000):
            assert is_very_triangular_value(triangular(n)) == is_very_triangular_index(n)

    def test_matches_reference(self, ref):
        for n in range(1, 5000):
            assert is_very_triangular_index(n) == ref.is_vt_index(n)

    def test_all_ones_indexes(self):
        # t_{2^k - 1} = 2^(k-1) (2^k - 1) has exactly k set bits
        for k in range(1, 65):
            assert popcount_of_triangular(2**k - 1) == k

    def test_power_indexes(self):
        # t_{2^k} = 2^(2k-1) + 2^(k-1) has exactly two set bits
        for k in range(1, 257):
            assert popcount_of_triangular(2**k) == 2

    @given(st.integers(min_value=1, max_value=10**25))
    def test_popcount_of_triangular_consistent(self, n):
        assert popcount_of_triangular(n) == popcount(triangular(n))


class TestBinaryString:
    def test_examples(self):
        assert binary_string(21) == "10101"
        assert binary_string(1) == "1"
        assert binary_string(0) == "0"

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            binary_string(-1)

    @given(st.integers(min_value=0, max_value=1 << 200))
    def test_round_trip_and_weight(self, x):
        s = binary_string(x)
        assert int(s, 2) == x
        assert s.count("1") == popcount(x)


class TestArgumentsPastTheDigitLimit:
    """A valid argument is never turned into decimal, so its size is not limited."""

    def test_valid_arguments(self, ref, default_int_digit_limit):
        n = 10**4400
        t = ref.triangular(n)
        assert triangular(n) == t
        assert classify_index(n) == VtRecord(n, t, ref.popcount(t), ref.is_vt_index(n))
        assert count_vt(n, n + 3) == sum(ref.is_vt_index(i) for i in range(n, n + 4))

    @pytest.mark.parametrize(
        "function,name",
        [
            (popcount, "popcount"),
            (integer_sqrt, "integer_sqrt"),
            (is_triangular, "is_triangular"),
            (binary_string, "binary_string"),
        ],
    )
    def test_bad_arguments_are_named(self, function, name, default_int_digit_limit):
        with pytest.raises(ParameterError) as small:
            function(-7)
        assert str(small.value) == f"{name} needs a non-negative integer, got -7"
        with pytest.raises(ParameterError) as huge:
            function(-(10**4400))
        assert str(huge.value).endswith(f"got <{(10**4400).bit_length()}-bit integer>")

    def test_bad_index_is_named(self, default_int_digit_limit):
        with pytest.raises(ParameterError, match=r"^triangular index must be >= 1, got 0$"):
            triangular(0)
        with pytest.raises(ParameterError) as huge:
            triangular(-(10**4400))
        assert str(huge.value).endswith(f"got <{(10**4400).bit_length()}-bit integer>")


class TestPackageNames:
    def test_all_is_each_modules_list_once(self):
        import vtnum
        from vtnum import analysis, core, families, scanner

        expected = [
            "__version__", *core.__all__, *families.__all__, *scanner.__all__, *analysis.__all__
        ]
        assert vtnum.__all__ == expected
        assert len(set(vtnum.__all__)) == len(vtnum.__all__)
        assert [name for name in vtnum.__all__ if not hasattr(vtnum, name)] == []
