"""Brute-force expected outputs for the benchmark's vt commands.

Nothing here imports vtnum.  As in tests/conftest.py, values come from
the direct product n(n+1)/2, popcounts from counting "1" digits, and
triangularity from a set built by repeated addition.  For indexes below
2^32 the same three rules run on numpy arrays (the product stays below
2^64 there, and the popcount is a 256-entry table of ``bin`` counts
applied byte by byte), so a reference over tens of millions of indexes
takes about a second; above 2^32 they run on Python ints.

Each function returns the exact stdout bytes (or their digest) that the
CLI must print, so a check compares bytes, not parsed values.  The
benchmark runs this file as a child process,

    python bench/reference.py scan LO HI | runs LO HI MIN_LEN | census | calibrate

which prints {"sha256", "bytes", "vt_count"} as JSON.  Keeping the
reference's arrays out of the benchmark process matters: a child
inherits its parent's peak RSS across fork and exec, so a large parent
would inflate every peak_rss_mb measured from os.wait4.
"""
from __future__ import annotations

import hashlib
import json
import sys
from itertools import combinations

import numpy as np

U64_INDEX_LIMIT = 1 << 32  # n < 2^32 keeps n(n+1) below 2^64

# The popcount-3 values over indexes of binary weight <= 5: the paper's
# census, fixed here rather than recomputed so a census bug cannot hide.
CENSUS_VALUES = (21, 28, 276, 1540)


def ref_triangular(n: int) -> int:
    return n * (n + 1) // 2


def ref_popcount(x: int) -> int:
    return bin(x).count("1")


def ref_triangular_set(limit: int) -> set[int]:
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


# popcounts of the values scanned here never exceed a few hundred
TRIANGULAR = frozenset(ref_triangular_set(1 << 12))
_BYTE_POPCOUNT = np.array([ref_popcount(b) for b in range(256)], dtype=np.uint8)
_STEP = 1 << 22


def popcounts(lo: int, hi: int) -> np.ndarray:
    """popcount(t_n) for n in [lo, hi], as int64."""
    if hi < U64_INDEX_LIMIT:
        parts = []
        for a in range(lo, hi + 1, _STEP):
            ns = np.arange(a, min(hi, a + _STEP - 1) + 1, dtype=np.uint64)
            ts = ns * (ns + np.uint64(1)) // np.uint64(2)
            by_byte = _BYTE_POPCOUNT[ts.view(np.uint8)].reshape(-1, 8)
            parts.append(by_byte.sum(axis=1, dtype=np.int64))
        return np.concatenate(parts)
    return np.array(
        [ref_popcount(ref_triangular(n)) for n in range(lo, hi + 1)], dtype=np.int64
    )


def vt_mask(pcs: np.ndarray) -> np.ndarray:
    table = np.array([p in TRIANGULAR for p in range(int(pcs.max()) + 1)])
    return table[pcs]


def scan_jsonl(lo: int, hi: int) -> tuple[str, int, int]:
    """sha256, byte length and VT count of `vt scan --emit jsonl` over [lo, hi]."""
    digest = hashlib.sha256()
    size = 0
    vt_count = 0
    word = {True: "true", False: "false"}
    for a in range(lo, hi + 1, _STEP):
        b = min(hi, a + _STEP - 1)
        pcs = popcounts(a, b).tolist()
        lines = []
        for n, pc in zip(range(a, b + 1), pcs):
            vt = pc in TRIANGULAR
            vt_count += vt
            lines.append(f'{{"n":{n},"t":"{ref_triangular(n)}","pc":{pc},"vt":{word[vt]}}}\n')
        block = "".join(lines).encode("ascii")
        digest.update(block)
        size += len(block)
    return digest.hexdigest(), size, vt_count


def maximal_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and lengths of the maximal blocks of True in mask."""
    edges = np.diff(np.concatenate(([0], mask.view(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    return starts, np.flatnonzero(edges == -1) - starts


def runs_jsonl(lo: int, hi: int, min_len: int) -> bytes:
    """stdout of `vt runs --from lo --to hi --min-len min_len`.

    A run touching lo (when lo > 1) or hi may continue outside the
    range, so it carries the matching truncation flag.
    """
    pcs = popcounts(lo, hi)
    starts, lengths = maximal_runs(vt_mask(pcs))
    lines = []
    for s, length in zip(starts.tolist(), lengths.tolist()):
        if length < min_len:
            continue
        record = {
            "start": lo + s,
            "length": length,
            "popcounts": pcs[s : s + length].tolist(),
            "truncated_left": s == 0 and lo > 1,
            "truncated_right": s + length == hi - lo + 1,
        }
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines).encode("ascii")


def census_jsonl() -> bytes:
    """stdout of `vt census --max-weight 5` for any max-bits >= 6."""
    index = {}
    t = n = 0
    while t < max(CENSUS_VALUES):
        n += 1
        t += n
        index[t] = n
    lines = [
        f'{{"n":{index[v]},"t":"{v}","pc":{ref_popcount(v)},"vt":true}}\n'
        for v in CENSUS_VALUES
    ]
    return "".join(lines).encode("ascii")


def three_bit_values(max_bits: int) -> list[int]:
    """The census's candidates: values with exactly 3 set bits below t_(2^max_bits)."""
    limit = 1 << max_bits
    width = ref_triangular(limit - 1).bit_length()
    return [(1 << a) | (1 << b) | (1 << c) for a, b, c in combinations(range(width), 3)]


def calibrate() -> dict:
    """A fixed job that the benchmark times beside every repeat, as a
    yardstick of the machine's speed at that moment.

    It mixes the kinds of work the workloads do (uint64 numpy
    arithmetic, big-int popcounts, jsonl formatting) and shares no code
    with vtnum, so a change to vtnum cannot change its time.
    """
    lo = 1 << 31
    popcounts(lo, lo + (1 << 21) - 1)
    popcounts(1 << 40, (1 << 40) + (1 << 17) - 1)
    sha, size, vt_count = scan_jsonl(lo, lo + (1 << 17) - 1)
    return {"sha256": sha, "bytes": size, "vt_count": vt_count}


def main(argv: list[str]) -> dict:
    kind, params = argv[0], [int(a) for a in argv[1:]]
    if kind == "calibrate":
        return calibrate()
    if kind == "scan":
        sha, size, vt_count = scan_jsonl(*params)
        return {"sha256": sha, "bytes": size, "vt_count": vt_count}
    out = runs_jsonl(*params) if kind == "runs" else census_jsonl()
    return {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
