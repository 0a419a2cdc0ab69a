"""Shared brute-force reference implementations.

Everything here deliberately avoids the package's own code paths:
values come from the direct product n(n+1)/2, popcounts from string
counting, and triangularity from additive enumeration.  A bug in the
fast kernels then shows up as a disagreement instead of being mirrored
by the reference.
"""
import json
import math
import sys
from itertools import combinations
from typing import Iterator

import numpy as np
import pytest

from vtnum.core import _require


def ref_triangular(n):
    return n * (n + 1) // 2


def ref_popcount(x):
    return bin(x).count("1")


def ref_triangular_set(limit):
    """All triangular numbers <= limit, built by repeated addition."""
    out = set()
    t = 0
    n = 0
    while True:
        n += 1
        t += n
        if t > limit:
            return out
        out.add(t)


# popcounts of values we test stay far below this
_SMALL = ref_triangular_set(10**6)


def ref_is_vt_index(n):
    return ref_popcount(ref_triangular(n)) in _SMALL


def ref_vt_indexes(lo, hi):
    return [n for n in range(lo, hi + 1) if ref_is_vt_index(n)]


def ref_runs(lo, hi, min_len):
    """Maximal consecutive-VT blocks, interior only (no edge handling)."""
    runs = []
    start = None
    for n in range(lo, hi + 2):
        if n <= hi and ref_is_vt_index(n):
            if start is None:
                start = n
        elif start is not None:
            if n - start >= min_len:
                runs.append((start, n - start))
            start = None
    return runs


_JSON = json.JSONEncoder(separators=(",", ":"))


def ref_run_line(start, popcounts, truncated_left, truncated_right):
    """One run as `vt runs` prints it: a compact JSON object and a newline."""
    return _JSON.encode({
        "start": start,
        "length": len(popcounts),
        "popcounts": list(popcounts),
        "truncated_left": truncated_left,
        "truncated_right": truncated_right,
    }) + "\n"


def ref_run_lines(lo, hi, min_len):
    """The bytes of `vt runs --from lo --to hi --min-len min_len`.

    A run is truncated on the left when it starts at lo > 1 and on the
    right when it ends at hi: its neighbor there was not scanned.
    """
    lines = []
    for start, length in ref_runs(lo, hi, min_len):
        pcs = [ref_popcount(ref_triangular(n)) for n in range(start, start + length)]
        lines.append(ref_run_line(start, pcs, start == lo and lo > 1, start + length == hi + 1))
    return "".join(lines).encode("ascii")


def ref_record_lines(lo, hi, fmt):
    """The bytes of `vt scan --emit fmt --from lo --to hi`, the csv header included."""
    lines = ["n,t,pc,vt\n"] if fmt == "csv" else []
    for n in range(lo, hi + 1):
        t = ref_triangular(n)
        pc = ref_popcount(t)
        vt = "true" if pc in _SMALL else "false"
        if fmt == "csv":
            lines.append(f"{n},{t},{pc},{vt}\n")
        else:
            lines.append(f'{{"n":{n},"t":"{t}","pc":{pc},"vt":{vt}}}\n')
    return "".join(lines).encode("ascii")


def ref_low_popcount_triangulars(max_bits):
    """Every (n, t_n) with n < 2^max_bits and popcount(t_n) <= 3, ascending.

    The unsieved inversion: every value with 1 to 3 set bits below
    2^(2*max_bits - 1) is tested with an integer square root.
    """
    powers = [1 << i for i in range(2 * max_bits - 1)]
    hits = []
    for ones in (1, 2, 3):
        for bits in combinations(powers, ones):
            value = sum(bits)
            root = math.isqrt(8 * value + 1)
            if root * root == 8 * value + 1:
                hits.append(((root - 1) // 2, value))
    return sorted(hits)


def weight_enumerate(weight: int, max_bits: int) -> Iterator[int]:
    """All integers below 2^max_bits with exactly `weight` set bits, ascending.

    Uses the constant-popcount successor (Gosper's hack).  Ascending
    numeric order coincides with colexicographic order on the bit
    position sets, so an interrupted sweep can resume from the last
    value it saw.  The tests check the value-side engine of
    vtnum.analysis against it.
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


# The residue sieve, the engine the 2-adic one replaced, kept as a second
# oracle: it reaches every bit width the engine's tests use.  8v + 1 is a
# square when v is triangular, so a value whose 8v + 1 is a non-square
# modulo some m cannot be triangular (Cohen, A Course in Computational
# Algebraic Number Theory, 1.7.2).  Powers of two tell nothing here:
# 8v + 1 = 1 (mod 8) is a square modulo every 2^e.  Each modulus is a
# product of two odd factors, so its table stays small while at most 28%
# of its residues are squares (8% modulo 63 * 65).


def _square_residues(m):
    """Boolean table over residues mod m: True exactly at the squares."""
    table = np.zeros(m, dtype=bool)
    table[np.arange(m) ** 2 % m] = True
    return table


SQUARE_TABLES = tuple(
    (m, _square_residues(m))
    for m in (63 * 65, 11 * 31, 17 * 257, 19 * 37, 23 * 89, 29 * 43, 13 * 241)
)


def _sieved_candidates(width):
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
        for m, _ in SQUARE_TABLES
    ]
    pair_sums = [r[high] + r[low] for r in residues]
    tops = [(None, len(high))] + [(a, a * (a - 1) // 2) for a in range(2, width)]
    for top, count in tops:
        keep = np.arange(count)
        for (m, squares), r, sums in zip(SQUARE_TABLES, residues, pair_sums):
            offset = 1 if top is None else 1 + int(r[top])
            keep = keep[squares[(sums[keep] + offset) % m]]
        base = 0 if top is None else 1 << top
        for h, l in zip(high[keep].tolist(), low[keep].tolist()):
            yield base | 1 << h | 1 << l


def ref_sieved_low_popcount_triangulars(max_bits):
    """ref_low_popcount_triangulars, with the residue sieve in front of the square roots."""
    hits = []
    for value in _sieved_candidates(2 * max_bits - 1):
        root = math.isqrt(8 * value + 1)
        if root * root == 8 * value + 1:
            hits.append(((root - 1) // 2, value))
    return sorted(hits)


class Reference:
    triangular = staticmethod(ref_triangular)
    popcount = staticmethod(ref_popcount)
    triangular_set = staticmethod(ref_triangular_set)
    is_vt_index = staticmethod(ref_is_vt_index)
    vt_indexes = staticmethod(ref_vt_indexes)
    runs = staticmethod(ref_runs)
    run_line = staticmethod(ref_run_line)
    run_lines = staticmethod(ref_run_lines)
    record_lines = staticmethod(ref_record_lines)
    low_popcount_triangulars = staticmethod(ref_low_popcount_triangulars)
    sieved_low_popcount_triangulars = staticmethod(ref_sieved_low_popcount_triangulars)


@pytest.fixture(scope="session")
def ref():
    return Reference


@pytest.fixture
def default_int_digit_limit():
    """Hold the interpreter's default int <-> str digit limit for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int <-> str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def no_int_digit_limit():
    """Lift the int <-> str digit limit for one test, as `vt` does."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:  # Python before 3.10.7 has no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)
