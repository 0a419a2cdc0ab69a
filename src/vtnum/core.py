"""Exact integer primitives: triangular numbers, popcounts, and the
predicates built from them.

A triangular number is t_n = n(n+1)/2 with n >= 1, and a value is *very
triangular* when it is triangular and its binary representation contains
a triangular number of 1 bits.  Everything here operates on plain Python
integers, so results are exact at any size; the vectorized one-word
and limb kernels used for bulk scanning live in :mod:`vtnum.scanner`
and are cross-checked against these functions in the test suite.
"""
from __future__ import annotations

import math

__all__ = [
    "Nat",
    "TriangularIndex",
    "PopCount",
    "ParameterError",
    "triangular",
    "popcount",
    "integer_sqrt",
    "is_triangular",
    "is_very_triangular_value",
    "is_very_triangular_index",
    "popcount_of_triangular",
    "binary_string",
]

# Documentation aliases.  A Nat is a non-negative int of any magnitude;
# a TriangularIndex is an int >= 1 (index 0 is never produced, so 0 is
# not treated as a triangular number anywhere in the package).
Nat = int
TriangularIndex = int
PopCount = int


class ParameterError(ValueError):
    """An argument fell outside an operation's stated domain."""


def _brief(value: int) -> str:
    """An integer for an error message: in decimal up to 128 bits, else by bit length.

    A bad argument may be thousands of digits long, past what a one-line
    message can hold or the interpreter's digit limit allows.
    """
    if value.bit_length() <= 128:
        return str(value)
    return f"<{value.bit_length()}-bit integer>"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def triangular(n: int) -> int:
    """Return the n-th triangular number n(n+1)/2.  Indexes start at 1."""
    if n < 1:
        raise ParameterError(f"triangular index must be >= 1, got {_brief(n)}")
    return n * (n + 1) // 2


def popcount(x: int) -> int:
    """Number of 1 bits in the binary representation of x."""
    if x < 0:
        raise ParameterError(f"popcount needs a non-negative integer, got {_brief(x)}")
    return x.bit_count()


def integer_sqrt(x: int) -> int:
    """Floor of the square root of x, exact for integers of any size."""
    if x < 0:
        raise ParameterError(f"integer_sqrt needs a non-negative integer, got {_brief(x)}")
    return math.isqrt(x)


def is_triangular(x: int) -> int | None:
    """Return the index n >= 1 with n(n+1)/2 == x, or None.

    Uses the classical criterion: x is triangular iff 8x+1 is a perfect
    square.  The candidate index is always verified by recomputing
    n(n+1)/2, and 0 is rejected because indexes start at 1.
    """
    if x < 0:
        raise ParameterError(f"is_triangular needs a non-negative integer, got {_brief(x)}")
    if x == 0:
        return None
    s = math.isqrt(8 * x + 1)
    if s * s != 8 * x + 1:
        return None
    n = (s - 1) // 2
    return n if n * (n + 1) // 2 == x else None


def is_very_triangular_value(x: int) -> bool:
    """True iff x is triangular and popcount(x) is triangular as well."""
    if is_triangular(x) is None:
        return False
    return is_triangular(x.bit_count()) is not None


def is_very_triangular_index(n: int) -> bool:
    """True iff t_n is very triangular.

    t_n is triangular by construction, so only the popcount needs the
    triangularity test.
    """
    return is_triangular(triangular(n).bit_count()) is not None


def popcount_of_triangular(n: int) -> int:
    """popcount(triangular(n)) in one call; the scalar scanning kernel."""
    return triangular(n).bit_count()


def binary_string(x: int) -> str:
    """Binary digits of x, most significant first; "0" for zero."""
    if x < 0:
        raise ParameterError(f"binary_string needs a non-negative integer, got {_brief(x)}")
    return format(x, "b")
