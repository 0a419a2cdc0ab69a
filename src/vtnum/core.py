"""Exact integer primitives: triangular numbers, popcounts, and the
predicates built from them; one classified record and its bytes.

A triangular number is t_n = n(n+1)/2 with n >= 1, and a value is *very
triangular* when it is triangular and its binary representation contains
a triangular number of 1 bits.  Everything here operates on plain Python
integers, so results are exact at any size; the vectorized kernel
used for bulk scanning, one word or 32-bit limbs a row, lives in
:mod:`vtnum.scanner` and is cross-checked against these functions in
the test suite.

Nothing here imports numpy: the verbs that print a few records, and the
checkpoint errors the CLI reports, need no more than this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "ParameterError",
    "triangular",
    "popcount",
    "integer_sqrt",
    "is_triangular",
    "is_very_triangular_value",
    "is_very_triangular_index",
    "popcount_of_triangular",
    "binary_string",
    "VtRecord",
    "classify_index",
    "CheckpointError",
    "CheckpointVersionError",
    "CheckpointCorruptError",
    "CheckpointStateError",
]


class ParameterError(ValueError):
    """An argument fell outside an operation's stated domain."""


# public through vtnum.analysis, whose __all__ names it; defined here so
# that the CLI can catch it without importing that module
class VerificationError(Exception):
    """A claim that must hold by theorem failed its computational check."""


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


@dataclass(frozen=True)
class VtRecord:
    """One classified triangular number."""

    n: int
    t: int
    popcount: int
    is_vt: bool


def classify_index(n: int) -> VtRecord:
    """Classify a single index exactly, at any size."""
    t = triangular(n)
    pc = t.bit_count()
    return VtRecord(n, t, pc, is_triangular(pc) is not None)


# ---------------------------------------------------------------------------
# Record bytes

_FORMATS = ("jsonl", "csv")

_CSV_HEADER = b"n,t,pc,vt\n"

# One line per record, the definition of each format's bytes.  The f-string
# path calls it per record; the scanner's numpy kernel cuts its layout out of it.
_LINES: dict[str, Callable[[object, object, int, bool], str]] = {
    "jsonl": lambda n, t, pc, vt: (
        f'{{"n":{n},"t":"{t}","pc":{pc},"vt":{"true" if vt else "false"}}}\n'
    ),
    "csv": lambda n, t, pc, vt: f"{n},{t},{pc},{'true' if vt else 'false'}\n",
}


def _format_exact(columns: tuple, fmt: str) -> bytes:
    """Records as (n, t, pc, vt) columns, one f-string per line: exact for any value."""
    return "".join(map(_LINES[fmt], *columns)).encode("ascii")


def _require_format(fmt: str) -> None:
    if fmt not in _FORMATS:
        raise ParameterError(f"unsupported format {fmt!r} (expected jsonl or csv)")


# ---------------------------------------------------------------------------
# Checkpoint errors (checkpoints themselves live in the scanner)


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    """The stored format_version is not supported."""


class CheckpointCorruptError(CheckpointError):
    """The payload is not a well-formed checkpoint document."""


class CheckpointStateError(CheckpointError):
    """Fields parse but fail the recompute or consistency checks."""
