"""Higher-level procedures over the scanner and the witness families:
density series, interval witnesses, certified all-non-VT windows,
popcount periodicity checks, the exhaustive popcount-<=3 sweeps (one
engine that inverts values with at most 3 set bits rather than walking
indexes, after a quadratic-residue sieve has discarded almost all of
them), and arithmetic-progression search.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import scanner
from .core import (
    _require,
    is_triangular,
    is_very_triangular_index,
    triangular,
)

__all__ = [
    "VerificationError",
    "DensityPoint",
    "BertrandReport",
    "TheoremWitness",
    "GapReport",
    "ApHit",
    "density_series",
    "bertrand_check",
    "bertrand_theorem_witness",
    "gap_window",
    "gap_demonstration",
    "periodicity_identity",
    "periodicity_equal_popcount",
    "weight_enumerate",
    "conjecture_no6",
    "popcount3_census",
    "ap_search",
]


class VerificationError(Exception):
    """A claim that must hold by theorem failed its computational check."""


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
        return Fraction(self.vt_count, self.N)

    @property
    def ratio_decimal(self) -> str:
        """The ratio rounded to 10 significant digits."""
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
    out: list[DensityPoint] = []
    prev = 0
    cumulative = 0
    for N in points:
        cumulative += scanner.count_vt(prev + 1, N)
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
        flags = scanner.vt_flags(n + 1, 2 * n - 1)
        witnesses = [triangular(n + 1 + int(i)) for i in np.flatnonzero(flags)]
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


def weight_enumerate(weight: int, max_bits: int) -> Iterator[int]:
    """All integers below 2^max_bits with exactly `weight` set bits, ascending.

    Uses the constant-popcount successor (Gosper's hack).  Ascending
    numeric order coincides with colexicographic order on the bit
    position sets, so an interrupted sweep can resume from the last
    value it saw.  The tests check the value-side sweeps below against it.
    """
    _require(weight >= 1, f"weight must be >= 1, got {weight}")
    _require(max_bits >= weight, f"max_bits must be >= weight = {weight}, got {max_bits}")
    v = (1 << weight) - 1
    limit = 1 << max_bits
    while v < limit:
        yield v
        low = v & -v
        ripple = v + low
        v = (((ripple ^ v) >> 2) // low) | ripple


# The residue sieve.  8v + 1 is a square when v is triangular, so a value
# whose 8v + 1 is a non-square modulo some m cannot be triangular (Cohen,
# A Course in Computational Algebraic Number Theory, 1.7.2).  Powers of
# two tell nothing here: 8v + 1 = 1 (mod 8) is a square modulo every 2^e.
# Each modulus is a product of two odd factors, so its table stays small
# while at most 28% of its residues are squares (8% modulo 63 * 65).


def _square_residues(m: int) -> np.ndarray:
    """Boolean table over residues mod m: True exactly at the squares."""
    table = np.zeros(m, dtype=bool)
    table[np.arange(m) ** 2 % m] = True
    return table


_SQUARE_TABLES = tuple(
    (m, _square_residues(m))
    for m in (63 * 65, 11 * 31, 17 * 257, 19 * 37, 23 * 89, 29 * 43, 13 * 241)
)


def _sieved_candidates(width: int) -> Iterator[int]:
    """Values with 1 to 3 set bits below 2^width that pass the residue sieve.

    Values with one set bit are yielded unsieved.  Those with two or
    three are 2^top + 2^high + 2^low (top absent for two), so 8v + 1
    modulo m is a sum of table entries 8 * 2^i mod m.  The pairs
    low < high come ordered by high, so the pairs below a top bit a are
    the first a(a-1)/2 of them, and one top bit is sieved at a time.
    """
    yield from (1 << i for i in range(width))
    high, low = np.tril_indices(width, -1)
    residues = [
        np.array([8 * pow(2, i, m) % m for i in range(width)], dtype=np.int32)
        for m, _ in _SQUARE_TABLES
    ]
    pair_sums = [r[high] + r[low] for r in residues]
    tops = [(None, len(high))] + [(a, a * (a - 1) // 2) for a in range(2, width)]
    for top, count in tops:
        keep = np.arange(count)
        for (m, squares), r, sums in zip(_SQUARE_TABLES, residues, pair_sums):
            offset = 1 if top is None else 1 + int(r[top])
            keep = keep[squares[(sums[keep] + offset) % m]]
        base = 0 if top is None else 1 << top
        for h, l in zip(high[keep].tolist(), low[keep].tolist()):
            yield base | 1 << h | 1 << l


def _low_popcount_triangulars(max_bits: int) -> list[tuple[int, int]]:
    """Every (n, t_n) with n < 2^max_bits and popcount(t_n) <= 3, ascending.

    Covers the O(max_bits^3) values with 1 to 3 set bits below
    2^(2*max_bits - 1); t_n < 2^(2B-1) iff n(n+1) < 2^(2B) iff n < 2^B.
    The residue sieve drops every value it proves non-triangular, and
    each survivor is inverted exactly with ``is_triangular``.
    """
    hits = ((is_triangular(value), value) for value in _sieved_candidates(2 * max_bits - 1))
    return sorted((n, value) for n, value in hits if n is not None)


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

    Sieves the candidate values with at most three set bits by quadratic
    residues and inverts only the survivors, so the cost is cubic in the
    value bit length instead of exponential in max_weight.  The
    exhaustive-classification claim is theorem backed for
    max_weight <= 5; larger weights are exploratory.
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
    top = hi + (length - 1) * max_difference
    flags = scanner.vt_flags(lo, top)
    width = hi - lo + 1
    found: list[tuple[int, int]] = []
    for difference in range(1, max_difference + 1):
        mask = flags[:width].copy()
        for j in range(1, length):
            offset = j * difference
            mask &= flags[offset : offset + width]
        for i in np.flatnonzero(mask):
            found.append((lo + int(i), difference))
    found.sort()
    return [ApHit(first, difference, length) for first, difference in found]
