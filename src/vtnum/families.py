"""Constructive witness families.

Each generator builds indexes whose triangular numbers have a popcount
the construction predicts exactly, packages them as a
:class:`FamilyWitness`, and verifies the prediction on the spot.  A
witness therefore doubles as a checked certificate: ``matches`` is True
only when the computed popcounts and very-triangularity agree with what
the construction promises.

Parameter validation is strict.  A generator never clamps or adjusts an
argument that falls outside its hypotheses; it raises
:class:`~vtnum.core.ParameterError` naming the failed condition, because
a witness emitted outside its hypotheses would certify nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import _FAMILIES_NAMES
from .core import _require, is_triangular, triangular

__all__ = list(_FAMILIES_NAMES)


class Family(Enum):
    """Identifies which construction produced a witness."""

    EVEN = "even"
    POWER_MINUS = "power-minus"
    ODD = "odd"
    BLOCK = "block"
    TWIN = "twin"
    POWER_EXCLUSION = "power-exclusion"


@dataclass(frozen=True)
class FamilyWitness:
    """One verified instance of a constructive family.

    ``indices`` usually holds a single index; the twin construction
    yields an adjacent pair.  ``predicted_popcount`` is None for the
    power-exclusion family, whose claim is about non-membership rather
    than an exact popcount.  ``matches`` is True when every actual
    popcount equals the prediction (if one is present) and the members'
    very-triangularity agrees with ``expect_vt``.
    """

    family: Family
    params: tuple[tuple[str, int], ...]
    indices: tuple[int, ...]
    values: tuple[int, ...]
    predicted_popcount: int | None
    actual_popcounts: tuple[int, ...]
    expect_vt: bool
    matches: bool

    @property
    def index(self) -> int:
        """The sole index of a single-member witness."""
        return self.indices[0]

    @property
    def value(self) -> int:
        """The sole value of a single-member witness."""
        return self.values[0]


def _witness(
    family: Family,
    params: dict[str, int],
    indices: tuple[int, ...],
    predicted: int | None,
    expect_vt: bool = True,
) -> FamilyWitness:
    values = tuple(triangular(i) for i in indices)
    actual = tuple(v.bit_count() for v in values)
    vt_flags = tuple(is_triangular(pc) is not None for pc in actual)
    prediction_holds = predicted is None or all(pc == predicted for pc in actual)
    vt_holds = all(vt_flags) if expect_vt else not any(vt_flags)
    return FamilyWitness(
        family=family,
        params=tuple(params.items()),
        indices=indices,
        values=values,
        predicted_popcount=predicted,
        actual_popcounts=actual,
        expect_vt=expect_vt,
        matches=prediction_holds and vt_holds,
    )


def family_even(ell: int, n: int) -> FamilyWitness:
    """Witness at index 2^n + 2^ell - 1 with predicted popcount 2(ell+1).

    Requires 2(ell+1) to be an even triangular number and n > 2*ell - 1;
    below that bound the index's low block of ones collides with the high
    bits of the square term and the popcount pattern breaks.
    """
    _require(ell >= 0, f"ell must be >= 0, got {ell}")
    even = 2 * (ell + 1)
    _require(
        is_triangular(even) is not None,
        f"2*(ell+1) = {even} is not a triangular number",
    )
    _require(n > 2 * ell - 1, f"n must exceed 2*ell - 1 = {2 * ell - 1}, got {n}")
    index = (1 << n) + (1 << ell) - 1
    return _witness(Family.EVEN, {"ell": ell, "n": n}, (index,), even)


def family_power_minus(k: int, ell: int) -> FamilyWitness:
    """Witness at index 2^k - 2^ell with predicted popcount k.

    Requires k triangular and > 1, and 0 <= ell <= k//2.  The bound on
    ell keeps the two halves of the value from overlapping; both ell = 0
    and ell = 1 come out of the same formula, so no special casing.
    """
    _require(
        k > 1 and is_triangular(k) is not None,
        f"k must be a triangular number > 1, got {k}",
    )
    _require(0 <= ell <= k // 2, f"ell must lie in [0, {k // 2}] for k = {k}, got {ell}")
    index = (1 << k) - (1 << ell)
    return _witness(Family.POWER_MINUS, {"k": k, "ell": ell}, (index,), k)


def family_odd(ell: int) -> FamilyWitness:
    """Witness at index 2^(2*ell) - 2^ell + 1 with odd predicted popcount 2*ell + 1.

    Requires ell > 1 with 2*ell + 1 triangular, so ell is one of
    7, 10, 22, 27, ...
    """
    _require(ell > 1, f"ell must be > 1, got {ell}")
    odd = 2 * ell + 1
    _require(
        is_triangular(odd) is not None,
        f"2*ell + 1 = {odd} is not a triangular number",
    )
    index = (1 << (2 * ell)) - (1 << ell) + 1
    return _witness(Family.ODD, {"ell": ell}, (index,), odd)


def block_number(k: int) -> int:
    """The value whose binary form is k ones followed by k-1 zeros.

    Equals sum(2^i for k-1 <= i <= 2k-2) = t_(2^k - 1), so it is always
    triangular with popcount exactly k; it is very triangular precisely
    when k itself is triangular.
    """
    _require(k >= 1, f"k must be >= 1, got {k}")
    return ((1 << k) - 1) << (k - 1)


def block_witness(k: int) -> FamilyWitness:
    """block_number(k) packaged as a witness at index 2^k - 1."""
    _require(k >= 1, f"k must be >= 1, got {k}")
    return _witness(
        Family.BLOCK,
        {"k": k},
        ((1 << k) - 1,),
        k,
        expect_vt=is_triangular(k) is not None,
    )


def twin_pair(k: int) -> FamilyWitness:
    """Adjacent witness pair at indexes (2^k - 2, 2^k - 1), both popcount k.

    Requires k triangular and > 1; both members are then very triangular.
    """
    _require(
        k > 1 and is_triangular(k) is not None,
        f"k must be a triangular number > 1, got {k}",
    )
    first = (1 << k) - 2
    return _witness(Family.TWIN, {"k": k}, (first, first + 1), k)


def power_exclusion(k: int) -> FamilyWitness:
    """Witness that t_(2^k) is never very triangular.

    t_(2^k) = 2^(2k-1) + 2^(k-1) has exactly two set bits, and 2 is not
    triangular.  No popcount prediction is stored; the claim is the
    False very-triangularity, checked via ``expect_vt``.
    """
    _require(k >= 1, f"k must be >= 1, got {k}")
    return _witness(Family.POWER_EXCLUSION, {"k": k}, (1 << k,), None, expect_vt=False)


def verify_witness(w: FamilyWitness) -> bool:
    """Recompute every derived field of a witness from its indexes.

    True iff the stored values, popcounts, and ``matches`` flag are all
    consistent with a fresh computation.  Use this to validate witnesses
    that crossed a serialization boundary or may have been altered.
    """
    try:
        fresh = _witness(
            w.family, dict(w.params), w.indices, w.predicted_popcount, w.expect_vt
        )
    except (TypeError, ValueError):
        return False
    return fresh == w
