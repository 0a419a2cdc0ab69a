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

import pytest


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
