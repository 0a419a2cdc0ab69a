"""Higher-level procedures over the scanner and the witness families:
density series, interval witnesses, certified all-non-VT windows,
popcount periodicity checks, the exhaustive popcount-<=3 sweeps
(conjecture_no6, popcount3_census), and arithmetic-progression search.

The sweeps run on one engine that finds every triangular number with at
most 3 set bits without walking indexes: from the set bits it builds the
few square roots 8t + 1 could have (2-adic roots for the low bits, an
integer square root for the high ones), in pure Python ints.  Only the
procedures that classify index ranges (density, Bertrand witnesses,
progressions) load the numpy scanner, when they are first called; the
rest of this module never imports numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from . import _ANALYSIS_NAMES
from .core import (
    VerificationError,
    _require,
    is_triangular,
    is_very_triangular_index,
    triangular,
)

if TYPE_CHECKING:  # imported where used: only DensityPoint needs fractions or decimal
    from fractions import Fraction

__all__ = list(_ANALYSIS_NAMES)


# ---------------------------------------------------------------------------
# Density


@dataclass(frozen=True)
class DensityPoint:
    """Cumulative very triangular count among the first N indexes.

    The count of triangular numbers up to t_N is N itself, so the
    density of very triangular numbers within the triangular numbers at
    this point is exactly vt_count / N.
    """

    N: int
    vt_count: int

    @property
    def ratio(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.vt_count, self.N)

    @property
    def ratio_decimal(self) -> str:
        """The ratio rounded to 10 significant digits."""
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = 10
            return str(Decimal(self.vt_count) / Decimal(self.N))


def density_series(sample_points: Iterable[int]) -> list[DensityPoint]:
    """One cumulative DensityPoint per sample, in a single streaming pass.

    Sample points must be strictly ascending indexes (>= 1).
    """
    points = list(sample_points)
    _require(bool(points), "at least one sample point is required")
    for value in points:
        _require(value >= 1, f"sample points must be >= 1, got {value}")
    for earlier, later in zip(points, points[1:]):
        _require(
            earlier < later,
            f"sample points must be strictly ascending, got {earlier} before {later}",
        )
    from .scanner import count_vt

    out: list[DensityPoint] = []
    prev = 0
    cumulative = 0
    for N in points:
        cumulative += count_vt(prev + 1, N)
        out.append(DensityPoint(N, cumulative))
        prev = N
    return out


# ---------------------------------------------------------------------------
# Interval witnesses


@dataclass(frozen=True)
class BertrandReport:
    """All very triangular values strictly between t_n and t_2n.

    ``theorem_witness`` carries the constructive witness value for
    n > 9 (None below, where the exhaustive list is the whole story);
    ``theorem_case`` records which witness formula produced it.
    """

    n: int
    t_lo: int
    t_hi: int
    witnesses: tuple[int, ...]
    theorem_witness: int | None
    theorem_case: str | None

    @property
    def interval(self) -> tuple[int, int]:
        return (self.t_lo, self.t_hi)


@dataclass(frozen=True)
class TheoremWitness:
    """A constructive in-interval witness: value = t_index."""

    n: int
    k: int
    case: str
    index: int
    value: int


def bertrand_check(n: int) -> BertrandReport:
    """Report every very triangular value in the open interval (t_n, t_2n).

    Any triangular number in that interval is t_m with n < m < 2n, so
    the witnesses are exactly the very triangular t_m over that index
    range.
    """
    _require(n >= 1, f"n must be >= 1, got {n}")
    witnesses: list[int] = []
    if n + 1 <= 2 * n - 1:
        from .scanner import vt_flags

        flags = vt_flags(n + 1, 2 * n - 1)
        witnesses = [triangular(n + 1 + int(i)) for i in flags.nonzero()[0]]
    witness_value: int | None = None
    witness_case: str | None = None
    if n > 9:
        theorem = bertrand_theorem_witness(n)
        witness_value = theorem.value
        witness_case = theorem.case
    return BertrandReport(
        n=n,
        t_lo=triangular(n),
        t_hi=triangular(2 * n),
        witnesses=tuple(witnesses),
        theorem_witness=witness_value,
        theorem_case=witness_case,
    )


def bertrand_theorem_witness(n: int) -> TheoremWitness:
    """Constructive very triangular witness strictly inside (t_n, t_2n), n > 9.

    With k the unique integer satisfying 2^(k-1) < n <= 2^k, the witness
    index is 2^(k-1) + 3 when n is 2^(k-1) + 1 or 2^(k-1) + 2 (cases i
    and ii), and 2^k + 3 otherwise (case iii).  The one exception is
    n = 10, where the case-ii index 11 gives t_11 = 66 with popcount 2;
    the case-iii index 19 still lies inside the interval and is used
    (and recorded) instead.  The result is verified before returning.
    """
    _require(n > 9, f"n must be > 9, got {n}")
    k = (n - 1).bit_length()
    if n == (1 << (k - 1)) + 1:
        case, index = "i", (1 << (k - 1)) + 3
    elif n == (1 << (k - 1)) + 2 and k >= 5:
        case, index = "ii", (1 << (k - 1)) + 3
    else:
        case, index = "iii", (1 << k) + 3
    value = triangular(index)
    if not (n < index < 2 * n and is_very_triangular_index(index)):
        raise VerificationError(
            f"constructed witness t_{index} failed verification for n = {n}"
        )
    return TheoremWitness(n=n, k=k, case=case, index=index, value=value)


# ---------------------------------------------------------------------------
# Gap windows


@dataclass(frozen=True)
class GapReport:
    """A certified window of consecutive non-very-triangular indexes.

    ``window`` is (base, base + k/4] with base = 2^k - 2^(k/2); the
    window holds k/4 indexes.  ``member_popcounts`` lists the exact
    popcount at each offset 1..k/4.  ``power_offset_popcounts`` pairs
    each power-of-two offset m = 2^p with its popcount, which must be
    k+1 for p = 0 and k+2 for p >= 1; ``predictions_match`` records
    whether all of them did.
    """

    k: int
    window: tuple[int, int]
    member_popcounts: tuple[int, ...]
    all_non_vt: bool
    power_offset_popcounts: tuple[tuple[int, int], ...]
    predictions_match: bool


def gap_window(k: int) -> GapReport:
    """Classify the provably non-VT index window just below 2^k.

    Requires k triangular and divisible by 4 (k = 28, 36, 120, 136, ...).
    """
    _require(is_triangular(k) is not None, f"k must be a triangular number, got {k}")
    _require(k % 4 == 0, f"k must be divisible by 4, got {k}")
    base = (1 << k) - (1 << (k // 2))
    width = k // 4
    popcounts = tuple(
        triangular(base + m).bit_count() for m in range(1, width + 1)
    )
    all_non_vt = all(is_triangular(pc) is None for pc in popcounts)
    power_offsets: list[tuple[int, int]] = []
    predictions_match = True
    p = 0
    while (1 << p) <= width:
        m = 1 << p
        expected = k + 1 if p == 0 else k + 2
        power_offsets.append((m, popcounts[m - 1]))
        predictions_match = predictions_match and popcounts[m - 1] == expected
        p += 1
    return GapReport(
        k=k,
        window=(base, base + width),
        member_popcounts=popcounts,
        all_non_vt=all_non_vt,
        power_offset_popcounts=tuple(power_offsets),
        predictions_match=predictions_match,
    )


def gap_demonstration(g: int) -> GapReport:
    """Certify a window of at least g consecutive non-VT triangular numbers.

    Picks the smallest triangular k with 4 | k and k/4 >= g, so the
    returned window demonstrates a gap of at least g between two very
    triangular numbers.
    """
    _require(g >= 1, f"g must be >= 1, got {g}")
    s = 1
    while True:
        k = s * (s + 1) // 2
        if k % 4 == 0 and k // 4 >= g:
            return gap_window(k)
        s += 1


# ---------------------------------------------------------------------------
# Periodicity


def periodicity_identity(n: int, k: int) -> bool:
    """Exact decomposition of t_(2^n + 3 + k), valid for n >= 1, k >= 0.

    Checks t_(2^n + 3 + k) = 2^(2n-1) + 2^(n+1) + (k+1)*2^n + 2^(n-1)
    + t_k + 3k + 6, where t_0 is taken as 0.
    """
    _require(n >= 1, f"n must be >= 1, got {n}")
    _require(k >= 0, f"k must be >= 0, got {k}")
    lhs = triangular((1 << n) + 3 + k)
    t_k = k * (k + 1) // 2
    rhs = (
        (1 << (2 * n - 1))
        + (1 << (n + 1))
        + (k + 1) * (1 << n)
        + (1 << (n - 1))
        + t_k
        + 3 * k
        + 6
    )
    return lhs == rhs


def periodicity_equal_popcount(n: int, m: int, k: int) -> bool:
    """popcount(t_(2^m + 3 + k)) == popcount(t_(2^n + 3 + k)).

    Valid for n > 5, m >= n, and 0 <= k < 2^((n-1)//2): within that
    range the k-dependent tail stays clear of the fixed high bits at
    both scales, so the popcount repeats.
    """
    _require(n > 5, f"n must be > 5, got {n}")
    _require(m >= n, f"m must be >= n = {n}, got {m}")
    bound = 1 << ((n - 1) // 2)
    _require(0 <= k < bound, f"k must lie in [0, {bound}) for n = {n}, got {k}")
    pc_n = triangular((1 << n) + 3 + k).bit_count()
    pc_m = triangular((1 << m) + 3 + k).bit_count()
    return pc_m == pc_n


# ---------------------------------------------------------------------------
# Exhaustive sweeps


# The popcount-<=3 engine.  t is triangular iff 8t + 1 = y^2 for an odd y,
# and then t = t_n with n = (y - 1) / 2.  Write t = 2^a + 2^b + 2^c with
# a > b > c (no a for two set bits), so y^2 = 2^(a+3) + 2^(b+3) + C with
# C = 1 + 2^(c+3).  Every such y is one of a few candidates, in two
# disjoint classes:
#
#   one set bit, or a > 2b   the rest of y^2 is below the gap between
#       consecutive squares there, so y is the least integer above a square
#       root: isqrt(2^(a+3)) + 1 when a >= 2b + 3, and isqrt(2^(a+3) +
#       2^(b+3)) + 1 when a is 2b + 1 or 2b + 2.  Two candidates per a.
#   two set bits, or a <= 2b   y < 2^(b+2) and y^2 = C (mod 2^(b+3)), so y
#       is r or 2^(b+2) - r, the square roots of C modulo 2^(b+2), with r
#       the 2-adic root of C cut to b + 2 bits.  Two candidates per (c, b):
#       with d = (y^2 - C) / 2^(b+3), f = d - 1 is 2^(a-b), or 0 for two
#       set bits.  f = 1 would make a = b: that value has two set bits and
#       comes at (c, b + 1).
#
# So the engine makes O(W^2) candidates for values below 2^W, where the
# values with at most three set bits are O(W^3).


def _two_adic_root(value: int, bits: int) -> int:
    """A square root of value modulo 2^bits, for value = 1 (mod 8).

    Newton's iteration on the inverse root, z <- z(3 - value z^2)/2,
    takes value z^2 = 1 from modulo 2^p to modulo 2^(2p - 2); then
    (value z)^2 = value z^2 value = value.  The root itself cannot be
    iterated this way: its step halves, which is not invertible modulo 2^k.
    """
    z, p = 1, 3
    while p < bits:
        p = 2 * p - 2
        z = (z * (3 - value * z * z) >> 1) & ((1 << p) - 1)
    return value * z & ((1 << bits) - 1)


def _isqrt_hits(width: int) -> Iterator[tuple[int, int]]:
    """(n, t_n) for t_n = 2^a, and 2^a + 2^b + 2^c with a > 2b, below 2^width."""
    for a in range(width):
        top = 1 << (a + 3)
        ys = {math.isqrt(top) + 1}
        if a >= 3:  # a > 2b with b >= 1
            ys.add(math.isqrt(top + (8 << ((a - 1) >> 1))) + 1)
        for y in ys:
            low = (y * y - 1) >> 3 ^ 1 << a  # t_n's bits below a
            if y & 1 and (low == 0 or low.bit_count() == 2 and a > 2 * low.bit_length() - 2):
                yield (y - 1) >> 1, (1 << a) + low


def _two_adic_hits(width: int) -> Iterator[tuple[int, int]]:
    """(n, t_n) for t_n = 2^b + 2^c, and 2^a + 2^b + 2^c with a <= 2b, below 2^width."""
    roots = [(c, _two_adic_root(1 + (8 << c), width + 2), 1 + (8 << c)) for c in range(width)]
    for b in range(1, width):
        half = 1 << (b + 1)  # y < 2^(b+2) = 2 * half
        for c, root, C in roots[:b]:
            r = root & (2 * half - 1)
            f = ((r * r - C) >> (b + 3)) - 1
            g = f + half - r  # f of 2^(b+2) - r, whose square is r^2 + 2^(b+3)(2^(b+1) - r)
            if f & (f - 1) == 0 or g & (g - 1) == 0:
                for y, f in ((r, f), (2 * half - r, g)):
                    if f & (f - 1) == 0 and f != 1 and f.bit_length() <= width - b:
                        yield (y - 1) >> 1, (f + 1 << b) + (1 << c)


def _low_popcount_triangulars(max_bits: int) -> list[tuple[int, int]]:
    """Every (n, t_n) with n < 2^max_bits and popcount(t_n) <= 3, ascending.

    Covers the values with 1 to 3 set bits below 2^(2*max_bits - 1);
    t_n < 2^(2B-1) iff n(n+1) < 2^(2B) iff n < 2^B.  Each value is
    reached from the square root y of 8 t_n + 1, built from its set bits
    (see above), in O(max_bits^2) big-int steps.
    """
    width = 2 * max_bits - 1
    return sorted([*_isqrt_hits(width), *_two_adic_hits(width)])


def conjecture_no6(weight: int, max_bits: int) -> list[int]:
    """Every index n < 2^max_bits of the given binary weight with popcount(t_n) <= 3.

    Returns the counterexample indexes found; an empty list supports the
    claim that indexes of weight >= 6 never produce a triangular number
    with 3 or fewer set bits.  weight must be >= 6 (lower weights have
    known witnesses and are not part of the claim).  All C(max_bits,
    weight) indexes are covered by inverting every value t_n could take.
    """
    _require(weight >= 6, f"weight must be >= 6, got {weight}")
    _require(max_bits >= weight, f"max_bits must be >= weight = {weight}, got {max_bits}")
    return [n for n, _ in _low_popcount_triangulars(max_bits) if n.bit_count() == weight]


def popcount3_census(max_weight: int, max_bits: int) -> list[int]:
    """Every t_n with popcount exactly 3, over indexes n < 2^max_bits of
    binary weight at most max_weight, ascending.

    Inverts the values with at most three set bits rather than walking
    indexes, so the cost is quadratic in the value bit length instead
    of exponential in max_weight.  The exhaustive-classification claim
    is theorem backed for max_weight <= 5; larger weights are
    exploratory.
    """
    _require(max_weight >= 1, f"max_weight must be >= 1, got {max_weight}")
    _require(max_bits >= 1, f"max_bits must be >= 1, got {max_bits}")
    hits = _low_popcount_triangulars(max_bits)
    return [t for n, t in hits if t.bit_count() == 3 and n.bit_count() <= max_weight]


# ---------------------------------------------------------------------------
# Arithmetic progressions


@dataclass(frozen=True)
class ApHit:
    """An arithmetic progression of very triangular indexes."""

    first: int
    difference: int
    length: int


def ap_search(length: int, lo: int, hi: int, max_difference: int) -> list[ApHit]:
    """All length-`length` arithmetic progressions of very triangular
    indexes with first term in [lo, hi] and difference <= max_difference.

    Classifies [lo, hi + (length-1)*max_difference] once, then probes
    the membership mask with shifted slices; hits come back sorted by
    (first, difference).
    """
    _require(length >= 3, f"length must be >= 3, got {length}")
    _require(1 <= lo <= hi, f"range must satisfy 1 <= lo <= hi, got [{lo}, {hi}]")
    _require(max_difference >= 1, f"max_difference must be >= 1, got {max_difference}")
    from .scanner import vt_flags

    top = hi + (length - 1) * max_difference
    flags = vt_flags(lo, top)
    width = hi - lo + 1
    found: list[tuple[int, int]] = []
    for difference in range(1, max_difference + 1):
        mask = flags[:width].copy()
        for j in range(1, length):
            offset = j * difference
            mask &= flags[offset : offset + width]
        for i in mask.nonzero()[0]:
            found.append((lo + int(i), difference))
    found.sort()
    return [ApHit(first, difference, length) for first, difference in found]
