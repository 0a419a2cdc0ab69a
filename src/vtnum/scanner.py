"""Streaming classification of triangular numbers over index ranges.

The scanner walks indexes in ascending order and classifies each t_n
by the popcount test.  Ranges are cut into fixed chunks, split at
FAST_INDEX_LIMIT, so a chunk's index range alone picks one of two tiers.
One vectorized numpy loop runs both, exact at any index size, over
B = 2^15-row sub-blocks in uint64 columns of one reused buffer, and only
the columns differ by tier:

    n <= FAST_INDEX_LIMIT   t_n < 2^64 fits one uint64 word: one running
                            column, t_(a+B+i) = t_(a+i) + B*i + (t_(a+B) - t_a),
                            two adds a sub-block, and two verdicts a lookup
    larger n                t_(a+i) = t_a + i*a + t_i as 32-bit limbs, one
                            column each, the carries propagated limb by limb

The word tier's pair table (128 KB) stays resident once built, and its
B*i row (256 KB) while a chunk is classified.

A chunk keeps only its popcounts and verdicts; t is rebuilt from n for
each piece that is formatted.  Chunks are classified on the calling
thread, one at a time and in ascending range order, so output is byte
deterministic.  The ``threads`` keyword of the scanning functions is
validated but changes nothing; it stays until the benchmark's
``probe_pool`` stops passing it.

Output formats (byte exact, ASCII):

    jsonl   {"n":6,"t":"21","pc":3,"vt":true}     one object per line
    csv     header n,t,pc,vt; booleans true/false

t is serialized as a decimal string in JSON so consumers limited to
53-bit floats cannot corrupt large values.

A chunk's records, at either tier, are formatted by one numpy kernel,
exact at any size.  It builds t in base-10^4 groups the way the
classifiers build it, t_(a+i) = t_a + i*a + t_i, and n = a + i from
slices of a table of 4-digit groups, looks the tails up by popcount,
and lays the digits out in rows of one width per piece: short numbers
NUL padded on the left, short tails on the right, and the NULs deleted
at the end.  Any other records go through one
f-string per line: the reference the kernel is tested against.  The
jsonl lines of runs are laid out the same way, one width per pass.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import re
import stat
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

import numpy as np

# VtRecord, classify_index, the checkpoint errors and the record-bytes helpers
# live in core, which needs no numpy; imported here too, they still resolve
# as scanner attributes
from .core import (
    _CSV_HEADER,
    _FORMATS,
    _LINES,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStateError,
    CheckpointVersionError,
    ParameterError,
    VtRecord,
    _brief,
    _format_exact,
    _require_format,
    classify_index,
    is_triangular,
    popcount_of_triangular,
    triangular,
)

__all__ = [
    "DEFAULT_CHUNK",
    "FAST_INDEX_LIMIT",
    "CHECKPOINT_VERSION",
    "Run",
    "ScanSummary",
    "ScanCheckpoint",
    "StreamBlock",
    "scan",
    "resume_scan",
    "merge_summaries",
    "find_runs",
    "find_twins",
    "sigma_enumerate",
    "count_vt",
    "vt_flags",
    "stream_scan",
    "format_block",
    "checkpoint_save",
    "checkpoint_resume",
]

DEFAULT_CHUNK = 1 << 20

# The two classification tiers.  FAST_INDEX_LIMIT is the last n with
# t_n < 2^64 (t = 18446744070963499500): up to it, t_n and every term of
# its sum fit one unsigned 64-bit word; past it, t_n is held as 32-bit
# limbs, as many as its size needs.
FAST_INDEX_LIMIT = 6074000999

# Rows per sub-block of the classifier: its columns stay cache sized, and
# in the limb tier i * a_j + c_j + carry stays below 2^48 for i below it.
_LIMB_BLOCK = 1 << 15
_LOW32 = np.uint64(0xFFFFFFFF)

@dataclass(frozen=True)
class Run:
    """A maximal block of consecutive very triangular indexes.

    ``truncated_left`` / ``truncated_right`` mark runs touching the
    scanned range's edges, where the neighbor needed to prove maximality
    was outside the range.  A run starting at index 1 is never
    left-truncated: there is no index 0.
    """

    start: int
    length: int
    popcounts: tuple[int, ...]
    truncated_left: bool = False
    truncated_right: bool = False

    @property
    def stop(self) -> int:
        """First index past the run."""
        return self.start + self.length


@dataclass(frozen=True)
class ScanSummary:
    """Result of classifying one index range.

    ``runs_found`` holds maximal runs of length >= the scan's
    min_run_len, plus any shorter run touching a range edge (kept so
    adjacent summaries can be merged without losing straddlers).
    ``elapsed`` is informational and excluded from equality.
    """

    lo: int
    hi: int
    scanned: int
    vt_count: int
    runs_found: tuple[Run, ...]
    elapsed: float = field(compare=False, default=0.0)

    @property
    def range(self) -> tuple[int, int]:
        return (self.lo, self.hi)


CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ScanCheckpoint:
    """Resumable scan state; ``next`` is the first unclassified index.

    ``current_t`` is the incremental accumulator t_(next-1) (0 when
    next == lo == 1), stored so a loader can detect state corruption by
    recomputing it.  ``open_run`` is the (start, length so far) of a run
    still open at the frontier, if any.  ``fmt`` names the byte stream
    the checkpoint continues ("jsonl" or "csv", default jsonl as in
    :func:`stream_scan`); it is None for checkpoints written by
    :func:`scan` and :func:`resume_scan`, whose records go to a callback
    rather than a byte stream.
    """

    format_version: int
    lo: int
    hi: int
    next: int
    vt_count: int
    open_run: tuple[int, int] | None
    current_t: int
    fmt: str | None = "jsonl"


def checkpoint_save(state: ScanCheckpoint, destination: str | os.PathLike[str]) -> None:
    """Write a checkpoint atomically: a temp file renamed to destination, removed on failure."""
    payload = {
        "format_version": state.format_version,
        "fmt": state.fmt,
        "lo": state.lo,
        "hi": state.hi,
        "next": state.next,
        "vt_count": state.vt_count,
        "open_run": list(state.open_run) if state.open_run is not None else None,
        "current_t": str(state.current_t),
    }
    dest = os.fspath(destination)
    tmp = f"{dest}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(payload, fh)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dest)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def checkpoint_resume(source: str | os.PathLike[str]) -> ScanCheckpoint:
    """Load and validate a checkpoint written by :func:`checkpoint_save`.

    Raises :class:`CheckpointVersionError` for an unsupported
    format_version (version 1 files, which predate ``fmt``, included),
    :class:`CheckpointCorruptError` for a malformed document or a
    source that is not a regular file (a device may never end, a FIFO
    may never open), and :class:`CheckpointStateError` when the fields
    parse but are mutually inconsistent (including a ``current_t`` that
    does not match the recomputed t_(next-1)).
    """
    if not stat.S_ISREG(os.stat(source).st_mode):
        raise CheckpointCorruptError(
            f"cannot use checkpoint {os.fspath(source)}: not a regular file"
        )
    with open(source, encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise CheckpointCorruptError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointCorruptError("checkpoint payload is not a JSON object")
    if "format_version" not in payload:
        raise CheckpointCorruptError("checkpoint is missing format_version")
    version = payload["format_version"]
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint format_version {version!r} "
            f"(supported: {CHECKPOINT_VERSION})"
        )

    def _int_field(name: str) -> int:
        value = payload.get(name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise CheckpointCorruptError(f"checkpoint field {name!r} must be an integer")
        return value

    if "fmt" not in payload or payload["fmt"] not in (*_FORMATS, None):
        raise CheckpointCorruptError(
            "checkpoint field 'fmt' must be \"jsonl\", \"csv\" or null"
        )
    lo = _int_field("lo")
    hi = _int_field("hi")
    nxt = _int_field("next")
    vt_count = _int_field("vt_count")
    raw_open = payload.get("open_run")
    if raw_open is not None:
        if (
            not isinstance(raw_open, list)
            or len(raw_open) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw_open)
        ):
            raise CheckpointCorruptError(
                "checkpoint field 'open_run' must be null or a [start, length] pair"
            )
    raw_t = payload.get("current_t")
    if not isinstance(raw_t, str) or not re.fullmatch(r"[0-9]+", raw_t):
        raise CheckpointCorruptError(
            "checkpoint field 'current_t' must be a decimal string"
        )
    try:
        current_t = int(raw_t)
    except ValueError as exc:  # past the interpreter's int <-> str digit limit
        raise CheckpointCorruptError(f"checkpoint field 'current_t' is unreadable: {exc}") from exc

    if not 1 <= lo <= hi:
        raise CheckpointStateError(f"checkpoint range [{_brief(lo)}, {_brief(hi)}] is invalid")
    if not lo <= nxt <= hi + 1:
        raise CheckpointStateError(
            f"checkpoint next = {_brief(nxt)} falls outside [{_brief(lo)}, {_brief(hi + 1)}]"
        )
    if not 0 <= vt_count <= nxt - lo:
        raise CheckpointStateError(
            f"checkpoint vt_count = {_brief(vt_count)} exceeds the "
            f"{_brief(nxt - lo)} scanned indexes"
        )
    open_run: tuple[int, int] | None = None
    if raw_open is not None:
        start, length = raw_open
        if length < 1 or start < lo or start + length != nxt:
            raise CheckpointStateError(
                f"checkpoint open_run [{_brief(start)}, {_brief(length)}] "
                f"does not end at the frontier {_brief(nxt)}"
            )
        if length > vt_count:
            raise CheckpointStateError(
                f"checkpoint open_run length {_brief(length)} exceeds "
                f"vt_count {_brief(vt_count)}"
            )
        open_run = (start, length)
    expected_t = (nxt - 1) * nxt // 2
    if current_t != expected_t:
        # bit lengths, not values: t_(next-1) may be thousands of digits long
        raise CheckpointStateError(
            f"checkpoint current_t ({current_t.bit_length()} bits) is not "
            f"t_(next-1) recomputed from next ({expected_t.bit_length()} bits)"
        )
    return ScanCheckpoint(
        format_version=version,
        lo=lo,
        hi=hi,
        next=nxt,
        vt_count=vt_count,
        open_run=open_run,
        current_t=current_t,
        fmt=payload["fmt"],
    )


# ---------------------------------------------------------------------------
# Chunked classification


@dataclass(frozen=True)
class _Triangulars:
    """The triangular numbers of a range of n: a sequence built only when iterated."""

    ns: range

    def __len__(self) -> int:
        return len(self.ns)

    def __iter__(self) -> Iterator[int]:
        ts = itertools.accumulate(self.ns, initial=self.ns.start * (self.ns.start - 1) // 2)
        return itertools.islice(ts, 1, None)  # past t_(n-1) of the first n


@dataclass
class _Chunk:
    """One classified sub-range [lo, hi] ready for downstream consumers.

    A chunk holds only its popcounts and verdicts.  :meth:`columns` and
    :meth:`rows` rebuild the values t_n from n when a formatter asks for
    them, so the classification-only consumers never hold a t column.
    """

    lo: int
    hi: int
    pcs: np.ndarray
    vts: np.ndarray

    @property
    def vt_count(self) -> int:
        return int(np.count_nonzero(self.vts))

    def rows(
        self, a: int = 0, b: int | None = None
    ) -> tuple[list[int], list[int], list[int], list[bool]]:
        """The :meth:`columns` of rows [a, b) of the chunk, as lists of Python values."""
        ns, ts, pcs, vts = self.columns(a, self.vts.size if b is None else b)
        return list(ns), list(ts), pcs.tolist(), vts.tolist()

    def columns(self, a: int, b: int) -> tuple:
        """The (n, t, pc, vt) columns of rows [a, b) for :func:`format_block`.

        At either tier n is a range and t its :class:`_Triangulars`: the kernel's input.
        """
        ns = range(self.lo + a, self.lo + b)
        return ns, _Triangulars(ns), self.pcs[a:b], self.vts[a:b]

    def iter_records(self) -> Iterator[VtRecord]:
        # rows one sub-block at a time: a 2^20-row chunk's rows as lists take ~100 MiB
        for a in range(0, self.vts.size, _LIMB_BLOCK):
            yield from map(VtRecord, *self.rows(a, min(a + _LIMB_BLOCK, self.vts.size)))


@functools.lru_cache(maxsize=128)
def _vt_by_popcount(bits: int) -> np.ndarray:
    """Very triangular verdict by popcount, for every popcount of a `bits`-bit value."""
    return np.array([is_triangular(pc) is not None for pc in range(bits + 1)])


@functools.cache
def _vt_pairs() -> np.ndarray:
    """The verdicts of two one-word popcounts per entry, read-only.

    Entry p0 + 256*p1 holds the verdict of popcount p0 in its low byte and
    of p1 in its high byte, so that a '<u2' view of two rows' popcounts
    indexes the '<u2' view of their two verdicts on any byte order.
    """
    one = np.zeros(256, dtype="<u2")
    one[:65] = _vt_by_popcount(64)
    pairs = (one[None, :] | one[:, None] << 8).ravel()
    pairs.flags.writeable = False
    return pairs


@functools.cache
def _block_tables(dtype: type = np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """i and t_i for every row i < _LIMB_BLOCK of a sub-block, read-only.

    Shared by both classifier tiers (uint64) and the formatter (uint32), built on first use.
    """
    i = np.arange(_LIMB_BLOCK, dtype=dtype)
    t_i = i * (i + 1) >> 1
    i.flags.writeable = t_i.flags.writeable = False
    return i, t_i


def _limbs(x: int, count: int) -> np.ndarray:
    """The low `count` 32-bit limbs of x, least significant first, as uint64."""
    return np.frombuffer(x.to_bytes(4 * count, "little"), dtype="<u4").astype(np.uint64)


def _classify(lo: int, hi: int, out: _Chunk | None = None) -> _Chunk:
    """Vectorized kernel for one chunk of either tier, exact at any size.

    The chunk's popcounts and verdicts are written into the arrays of
    ``out`` when they have its width and popcount dtype, and the chunk
    returned shares them; otherwise they are allocated.

    In _LIMB_BLOCK-row sub-blocks starting at a, t_(a+i) = t_a + i*a + t_i
    is summed in columns of one reused buffer, no row depending on the one
    before it; i and t_i come from _block_tables, and t_i is the first
    carry.  Up to FAST_INDEX_LIMIT the one column is the whole word, and
    it runs on: every sub-block after a chunk's first adds B*i and
    t_a - t_(a-B) to the column of the one before (B = _LIMB_BLOCK; B*i
    is the buffer's second row, filled once per chunk).  Every term and
    partial sum is at most t_(a+i) < 2^64, and its popcount goes straight
    into the chunk.  Past it, a and t_a are cut into 32-bit limbs a_j and
    c_j, and column j is i*a_j + c_j plus the carry out of column j - 1:
    it stays below 2^48, its low 32 bits are limb j of t_(a+i) and the
    rest carries on.  The word tier looks up two verdicts at a time in
    _vt_pairs, through '<u2' views of the popcounts and verdicts.  The
    limb tier, and a word-tier sub-block of odd length, look up one a row
    with np.take, which casts its indexes to intp, 8 bytes a row.
    """
    word = hi <= FAST_INDEX_LIMIT
    bits = 64 if word else triangular(hi).bit_length()
    size, dtype = hi - lo + 1, np.min_scalar_type(bits)
    if out is not None and out.pcs.size == size and out.pcs.dtype == dtype:
        pcs, vts = out.pcs, out.vts
    else:
        pcs, vts = np.empty(size, dtype=dtype), np.empty(size, dtype=bool)
    block = np.empty((2, min(pcs.size, _LIMB_BLOCK)), dtype=np.uint64)
    counts = np.empty(block.shape[1], dtype=np.uint8)  # uint64 counts added to pcs cast row by row
    (rows, t_rows), table = _block_tables(), _vt_by_popcount(bits)
    for s in range(0, pcs.size, _LIMB_BLOCK):
        a, out, verdicts = lo + s, pcs[s : s + _LIMB_BLOCK], vts[s : s + _LIMB_BLOCK]
        i, carry = rows[: out.size], t_rows[: out.size]
        column, spill = block[:, : out.size]
        if word:
            if s:  # the running column; spill holds B*i
                column += spill
                column += np.uint64(triangular(a) - triangular(a - _LIMB_BLOCK))
            else:
                np.multiply(i, np.uint64(a), out=column)
                column += np.uint64(triangular(a))
                column += carry
                np.multiply(i, np.uint64(_LIMB_BLOCK), out=spill)
            np.bitwise_count(column, out=out)
        else:
            count = triangular(a + out.size - 1).bit_length() // 32 + 1
            out[...] = 0
            for a_j, c_j in zip(_limbs(a, count), _limbs(triangular(a), count)):
                np.multiply(i, a_j, out=column)
                column += c_j
                column += carry
                carry = np.right_shift(column, 32, out=spill)
                column &= _LOW32
                out += np.bitwise_count(column, out=counts[: out.size])
        if word and out.size % 2 == 0:
            # every uint16 index is in the table, so "clip" never clips; it skips
            # the buffered copy that the default "raise" makes of `out`
            np.take(_vt_pairs(), out.view("<u2"), out=verdicts.view("<u2"), mode="clip")
        else:
            np.take(table, out, out=verdicts)
    return _Chunk(lo, hi, pcs, vts)


def _chunk_bounds(lo: int, hi: int, size: int) -> Iterator[tuple[int, int]]:
    """Cut [lo, hi] into chunks of at most `size`, split at FAST_INDEX_LIMIT."""
    a = lo
    while a <= hi:
        b = min(a + size - 1, hi)
        if a <= FAST_INDEX_LIMIT < b:
            b = FAST_INDEX_LIMIT
        yield a, b
        a = b + 1


# ---------------------------------------------------------------------------
# Run tracking


def _leading_true(v: np.ndarray) -> int:
    """Length of the all-True prefix of a non-empty mask."""
    first_false = int(v.argmin())
    return v.size if v[first_false] else first_false


def _trailing_true(v: np.ndarray) -> int:
    """Length of the all-True suffix of a non-empty mask.

    Searches tail windows of growing size: VT indexes are sparse, so the
    last non-VT index is almost always in the first window, whereas an
    argmin over the reversed view walks the whole chunk.
    """
    window = 64
    while True:
        tail = v[-window:]
        misses = np.flatnonzero(~tail)
        if misses.size:
            return tail.size - 1 - int(misses[-1])
        if window >= v.size:
            return v.size
        window *= 16


def _long_runs(seg: np.ndarray, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop offsets of each run of at least min_len Trues in seg.

    seg must begin and end with False, so every run in it is maximal.
    It is searched in windows of about _LIMB_BLOCK rows, each cut at a
    False, so the same holds in every window and the temporaries stay
    cache sized.  In a window, shifted ANDs first narrow the mask to the
    positions that open min_len consecutive Trues; edge detection then
    meets only the long runs.
    """
    min_len = min(min_len, seg.size)  # no run in seg is as long as seg
    parts, a = [], 0
    while True:
        b = min(a + _LIMB_BLOCK, seg.size - 1)
        b += _leading_true(seg[b:])  # the window ends at a False
        opens, span = seg[a : b + 1], 1
        while span < min_len:
            step = min(span, min_len - span)
            opens = opens[:-step] & opens[step:]
            span += step
        parts.append(np.flatnonzero(opens[1:] != opens[:-1]) + (a + 1))
        if b == seg.size - 1:
            break
        a = b
    edges = np.concatenate(parts)
    edges[1::2] += span - 1
    return edges[0::2], edges[1::2]


@dataclass(frozen=True)
class _RunColumns:
    """Runs as columns over the popcounts ``pcs`` of the indexes lo, lo + 1, ...

    Run k starts at index lo + starts[k] and is lengths[k] long, with
    popcounts pcs[starts[k] : starts[k] + lengths[k]]; flags[k] is
    truncated_left + 2 * truncated_right.  Starts rise.
    """

    lo: int
    pcs: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    flags: np.ndarray

    def at_least(self, min_len: int) -> _RunColumns:
        """The runs of length >= min_len."""
        keep = self.lengths >= min_len
        return replace(self, starts=self.starts[keep], lengths=self.lengths[keep],
                       flags=self.flags[keep])

    def runs(self) -> list[Run]:
        """The runs as :class:`Run` objects, in order."""
        if not self.starts.size:
            return []
        stops = np.cumsum(self.lengths)
        members = np.repeat(self.starts - (stops - self.lengths), self.lengths)
        pcs = self.pcs[members + np.arange(stops[-1])].tolist()
        return [
            Run(self.lo + s, n, tuple(pcs[e - n : e]), bool(f & 1), bool(f & 2))
            for s, n, e, f in zip(
                self.starts.tolist(), self.lengths.tolist(), stops.tolist(), self.flags.tolist()
            )
        ]


class _RunTracker:
    """Owns the run open at the scan frontier, and closes the runs behind it.

    ``open_run`` is the (start, length so far) of the run still open
    after the last chunk fed, as checkpoints store it, and all that is
    kept of it.  With ``min_run_len`` None nothing else is tracked.
    Otherwise each chunk fed returns the runs it closes, as batches of
    :class:`_RunColumns`: interior runs shorter than min_run_len are
    dropped without being visited, and runs touching either edge of the
    reporting range are always kept (flagged as truncated) so adjacent
    summaries can be merged later.  The open run closes one way, whether
    it grew over earlier chunks, was left open by a checkpointed scan or
    ends at the range end: :meth:`_close` makes it a batch of its own
    from its recomputed popcounts.  The chunk's other runs are columns
    over the chunk's own popcounts.
    """

    def __init__(
        self,
        report_lo: int,
        min_run_len: int | None,
        open_run: tuple[int, int] | None = None,
    ) -> None:
        self.report_lo = report_lo
        self.min_run_len = min_run_len
        self.open_run = open_run

    def _close(self, right: bool) -> _RunColumns | None:
        """The open run as a one-run batch, its popcounts recomputed from its
        indexes; None when there is none, runs are not tracked, or it is
        shorter than min_run_len and touches neither edge of the range
        (``right``: it ends at the range end)."""
        if self.open_run is None or self.min_run_len is None:
            return None
        start, length = self.open_run
        left = start == self.report_lo > 1
        if length < self.min_run_len and not (left or right):
            return None
        pcs = [popcount_of_triangular(i) for i in range(start, start + length)]
        pcs = np.array(pcs, dtype=np.min_scalar_type(max(pcs)))
        flags = np.array([left + 2 * right], dtype=np.uint8)
        return _RunColumns(start, pcs, np.zeros(1, np.intp), np.array([length]), flags)

    def feed(self, chunk: _Chunk) -> list[_RunColumns]:
        """Advance past the chunk; return the runs it closes, in order: the run
        open before it, grown by the chunk's leading VT indexes, then the
        others.  Empty when runs are not tracked or the whole chunk is VT."""
        m, lead = chunk.vts.size, _leading_true(chunk.vts)
        start, length = self.open_run or (chunk.lo, 0)
        self.open_run = (start, length + lead) if length + lead else None
        if lead == m:  # the open run goes on past the chunk
            return []
        trail = _trailing_true(chunk.vts)
        closed = [run] if (run := self._close(right=False)) is not None else []
        if self.min_run_len is not None:
            # indexes lead and m - trail - 1 are both non-VT
            starts, stops = _long_runs(chunk.vts[lead : m - trail], self.min_run_len)
            flags = np.zeros(starts.size, np.uint8)
            closed.append(_RunColumns(chunk.lo, chunk.pcs, starts + lead, stops - starts, flags))
        self.open_run = (chunk.hi - trail + 1, trail) if trail else None
        return closed

    def finish(self) -> _RunColumns | None:
        """The run open at the range end, when runs are tracked: maximality unproven there."""
        return self._close(right=True)


# ---------------------------------------------------------------------------
# Scanning


def _start_state(lo: int, hi: int, fmt: str | None) -> ScanCheckpoint:
    """The checkpoint of a scan of [lo, hi] that has classified nothing yet."""
    return ScanCheckpoint(CHECKPOINT_VERSION, lo, hi, lo, 0, None, lo * (lo - 1) // 2, fmt)


@dataclass
class _Stats:
    """Where a scan's time went, in nanoseconds, and what went through it.

    The scan driver adds the classify and track times of each chunk, and
    the rows classified; the consumer adds what it formats, writes and
    saves.
    """

    classify_ns: int = 0
    track_ns: int = 0
    format_ns: int = 0
    write_wait_ns: int = 0
    checkpoint_ns: int = 0
    chunks: int = 0
    rows: int = 0
    pieces: int = 0
    bytes: int = 0
    checkpoint_saves: int = 0

    def json_line(self, names: Iterable[str]) -> str:
        """The named stats as one JSON object on one line; a ``*_s`` name is its ``*_ns`` in seconds."""
        return json.dumps(
            {name: getattr(self, name.removesuffix("_s") + "_ns") / 1e9 if name.endswith("_s")
             else getattr(self, name) for name in names},
            separators=(",", ":"),
        )


def _drive(
    state: ScanCheckpoint,
    min_run_len: int | None,
    *,
    chunk_size: int,
    fresh: bool = False,
    stats: _Stats | None = None,
) -> Iterator[tuple[_Chunk, list[_RunColumns], ScanCheckpoint]]:
    """Classify [state.next, state.hi] chunk by chunk, in ascending order.

    Each chunk is classified on the calling thread when the consumer
    asks for it, and yielded with the batches of runs it closes and the
    checkpoint valid after it; the checkpoint keeps ``state.fmt``.
    Formatting, if any, is the consumer's, one piece at a time.  The
    one :class:`_RunTracker` of the scan, built from ``state.open_run``
    and ``min_run_len``, sees every chunk and supplies the checkpoint's
    open run; the run open at the range end comes as the last batch of
    the last chunk.  A finished ``state`` yields no chunk.

    The chunks are classified into one pair of popcount and verdict
    arrays that the scan owns, replaced only when a chunk's width or
    popcount dtype changes, so the heap does not give a chunk's pages
    back to the system only to fault them in for the next one.  So a
    chunk, and the runs it closes, are valid only until the consumer
    asks for the next chunk.  With ``fresh``, each chunk gets arrays of
    its own, which the consumer may keep.  The classify and track times
    of each chunk are added to ``stats``, if given.
    """
    stats = _Stats() if stats is None else stats
    tracker = _RunTracker(state.lo, min_run_len, state.open_run)
    vt_total, out = state.vt_count, None
    for lo, hi in _chunk_bounds(state.next, state.hi, chunk_size):
        started = time.perf_counter_ns()
        chunk = _classify(lo, hi, out)
        vt_total += chunk.vt_count
        classified = time.perf_counter_ns()
        closed = tracker.feed(chunk)
        if hi == state.hi and (last := tracker.finish()) is not None:
            closed.append(last)
        stats.track_ns += time.perf_counter_ns() - classified
        stats.classify_ns += classified - started
        stats.chunks += 1
        stats.rows += hi - lo + 1
        yield chunk, closed, replace(
            state, format_version=CHECKPOINT_VERSION, next=hi + 1, vt_count=vt_total,
            open_run=tracker.open_run, current_t=hi * (hi + 1) // 2,
        )
        out = None if fresh else chunk
        del chunk, closed  # a fresh chunk is released before the next one is classified


def scan(
    lo: int,
    hi: int,
    emit: Callable[[VtRecord], None] | None = None,
    *,
    min_run_len: int | None = 1,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    checkpoint_path: str | os.PathLike[str] | None = None,
) -> ScanSummary:
    """Classify every index in [lo, hi], ascending.

    ``emit`` receives one :class:`VtRecord` per index, in order; sink
    exceptions propagate.  ``min_run_len`` controls which maximal runs
    land in the summary (None disables run tracking entirely).  The
    default of 1 keeps every run, about one :class:`Run` per 8 indexes,
    and building them costs over a hundred times a plain classification; pass
    None, or the shortest run you need, for the fast path.  When ``checkpoint_path``
    is given, a resumable checkpoint is written atomically after each
    chunk; hand it to :func:`resume_scan` to continue an interrupted
    scan.  ``threads`` is validated but changes nothing: every chunk is
    classified on the calling thread.  It stays until the benchmark's
    ``probe_pool`` stops passing it.
    """
    _require_range(lo, hi)
    return resume_scan(
        _start_state(lo, hi, None),
        emit,
        min_run_len=min_run_len,
        threads=threads,
        chunk_size=chunk_size,
        checkpoint_path=checkpoint_path,
    )


def resume_scan(
    checkpoint: ScanCheckpoint,
    emit: Callable[[VtRecord], None] | None = None,
    *,
    min_run_len: int | None = 1,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    checkpoint_path: str | os.PathLike[str] | None = None,
) -> ScanSummary:
    """Continue a checkpointed scan through to its original hi.

    Emits records only for [checkpoint.next, hi]; records before the
    frontier were already emitted by the interrupted invocation, so the
    concatenation of both record streams equals an uninterrupted scan's
    stream exactly.  The returned summary covers the full original
    range, with ``vt_count`` accumulated across both invocations.  A run
    still open at the frontier is rejoined (its earlier popcounts are
    recomputed), so it is reported once, complete, with its true start;
    runs that closed before the checkpoint was taken were already
    reported by the interrupted invocation and do not reappear here.
    """
    _require_threads(threads)
    _require_chunk(chunk_size)
    started = time.monotonic()
    vt_total = checkpoint.vt_count
    runs: list[Run] = []
    start = replace(checkpoint, fmt=None)  # its checkpoints continue no byte stream
    for chunk, closed, state in _drive(start, min_run_len, chunk_size=chunk_size):
        if emit is not None:
            for record in chunk.iter_records():
                emit(record)
        for batch in closed:
            runs += batch.runs()
        if checkpoint_path is not None:
            checkpoint_save(state, checkpoint_path)
        vt_total = state.vt_count
    return ScanSummary(
        lo=checkpoint.lo,
        hi=checkpoint.hi,
        scanned=checkpoint.hi - checkpoint.lo + 1,
        vt_count=vt_total,
        runs_found=tuple(runs),
        elapsed=time.monotonic() - started,
    )


def merge_summaries(a: ScanSummary, b: ScanSummary, *, min_run_len: int = 1) -> ScanSummary:
    """Combine summaries of adjacent ranges into one.

    Requires b to start exactly where a ends.  Edge fragments flagged on
    the shared border are joined into a single run (or unflagged when
    the neighbor turns out not to continue them), then the joined result
    is refiltered by min_run_len, so merging partition scans reproduces
    the single-scan summary exactly.  Both inputs must have been
    produced with the same min_run_len passed here.
    """
    if b.lo != a.hi + 1:
        raise ParameterError(
            f"summaries are not adjacent: [{a.lo}, {a.hi}] then [{b.lo}, {b.hi}]"
        )
    runs_a = list(a.runs_found)
    runs_b = list(b.runs_found)
    a_frag = None
    if runs_a and runs_a[-1].truncated_right and runs_a[-1].stop == b.lo:
        a_frag = runs_a.pop()
    b_frag = None
    if runs_b and runs_b[0].truncated_left and runs_b[0].start == b.lo:
        b_frag = runs_b.pop(0)
    joined: list[Run] = []
    if a_frag is not None and b_frag is not None:
        joined = [
            Run(
                a_frag.start,
                a_frag.length + b_frag.length,
                a_frag.popcounts + b_frag.popcounts,
                a_frag.truncated_left,
                b_frag.truncated_right,
            )
        ]
    elif a_frag is not None:
        # b.lo was observed non-VT, so the fragment was maximal after all
        joined = [replace(a_frag, truncated_right=False)]
    elif b_frag is not None:
        joined = [replace(b_frag, truncated_left=False)]
    merged = runs_a + joined + runs_b
    kept = tuple(
        r
        for r in merged
        if r.length >= min_run_len or r.truncated_left or r.truncated_right
    )
    return ScanSummary(
        lo=a.lo,
        hi=b.hi,
        scanned=a.scanned + b.scanned,
        vt_count=a.vt_count + b.vt_count,
        runs_found=kept,
        elapsed=a.elapsed + b.elapsed,
    )


def _run_stream(
    lo: int, hi: int, min_len: int, *, stats: _Stats | None = None
) -> Iterator[_RunColumns]:
    """The runs of :func:`find_runs` as columns, in batches: per chunk, the
    run open before it, if it closes there, then the chunk's other runs,
    and with the last chunk the run open at the range end.

    Each batch is yielded before the next chunk is classified, so a
    consumer that formats and writes it first holds one chunk's runs,
    whatever the range length.  A chunk's batch of runs shares its
    popcounts with the scan's chunk arrays (see :func:`_drive`): a batch
    is valid only until the consumer asks for the next chunk's batches.
    ``stats`` is handed to :func:`_drive`.
    """
    if min_len < 1:
        raise ParameterError(f"min_len must be >= 1, got {min_len}")
    _require_range(lo, hi)
    state = _start_state(lo, hi, None)
    for _, closed, _ in _drive(state, min_len, chunk_size=DEFAULT_CHUNK, stats=stats):
        yield from (batch.at_least(min_len) for batch in closed)
        del closed  # release it before the next chunk is classified


def find_runs(lo: int, hi: int, min_len: int, *, threads: int = 1) -> list[Run]:
    """All maximal runs of length >= min_len inside [lo, hi].

    Runs touching a range edge are included (when long enough) with the
    corresponding truncation flag set, since their full extent may
    continue outside the range.
    """
    _require_threads(threads)
    return [run for runs in _run_stream(lo, hi, min_len) for run in runs.runs()]


def find_twins(lo: int, hi: int, *, threads: int = 1) -> list[Run]:
    """Runs of length >= 2: adjacent very triangular pairs and longer."""
    return find_runs(lo, hi, 2, threads=threads)


def sigma_enumerate(count: int) -> list[int]:
    """The first `count` very triangular indexes, ascending."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    found: list[int] = []
    lo = 1
    size = 1 << 12
    while len(found) < count:
        hi = lo + size - 1
        found.extend(lo + int(i) for i in np.flatnonzero(vt_flags(lo, hi)))
        lo = hi + 1
        size = min(size * 2, DEFAULT_CHUNK)
    return found[:count]


def count_vt(lo: int, hi: int, *, threads: int = 1) -> int:
    """Number of very triangular indexes in [lo, hi]."""
    return scan(lo, hi, min_run_len=None, threads=threads).vt_count


def vt_flags(lo: int, hi: int) -> np.ndarray:
    """Boolean mask over [lo, hi]: element i classifies index lo + i."""
    _require_range(lo, hi)
    bounds = _chunk_bounds(lo, hi, DEFAULT_CHUNK)
    return np.concatenate([_classify(a, b).vts for a, b in bounds])


# ---------------------------------------------------------------------------
# Byte streams


# runs per pass of the run kernel: shorter passes cost `vt twins` page faults
_RUN_PASS = 1 << 15
_E4 = 10**4
# entry i holds the ASCII bytes of i as four zero-padded digits, as one uint32
_DIGIT_GROUPS = (
    (np.arange(_E4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48)
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)


def _void_table(texts: list[str]) -> np.ndarray:
    """One numpy void item per text, NUL padded on the right to the longest."""
    width = max(map(len, texts))
    return np.frombuffer("".join(text.ljust(width, "\0") for text in texts).encode(), f"V{width}")


@functools.lru_cache(maxsize=128)
def _row_layout(fmt: str, bits: int) -> tuple[np.void, np.void, np.ndarray]:
    """A format's line cut around n and t, as numpy void items: the bytes before
    n, those between n and t, and a table whose item pc holds the rest, with
    pc's verdict, NUL padded on the right to the longest tail, for pc <= bits."""
    line = _LINES[fmt]
    lead, _, rest = line("\1", "\2", 0, False).partition("\1")
    verdicts = _vt_by_popcount(bits).tolist()
    tails = [line("", "\2", pc, vt).partition("\2")[2] for pc, vt in enumerate(verdicts)]
    mid = rest.partition("\2")[0]
    return np.void(lead.encode()), np.void(mid.encode()), _void_table(tails)


def _groups(x: int, count: int) -> list[int]:
    """The low `count` base-10^4 groups of x, least significant first."""
    groups = []
    for _ in range(count):
        x, group = divmod(x, _E4)
        groups.append(group)
    return groups


def _decimal_digits(v: int) -> int:
    """The number of decimal digits of v >= 1."""
    digits = (v.bit_length() - 1) * 3010299 // 10**7 + 1  # at most, as 0.3010299 < log10(2)
    while v >= 10**digits:
        digits += 1
    return digits


def _fill_high(out: np.ndarray, before: list | np.ndarray, after: list | np.ndarray,
               switch: int) -> None:
    """Fill the first len(before) columns of out with groups listed least
    significant first: before's in rows < switch, after's from there, as
    one item per row, an integer up to 8 bytes (numpy copies those faster
    than void items) and a void item above."""
    size = len(before) * out.itemsize
    if not size:
        return
    kind = f"u{size}" if size <= 8 else f"V{size}"
    rows = np.ndarray(out.shape[0], kind, out, 0, out.strides[0])
    rows[:switch] = np.array(before[::-1], out.dtype).view(kind)
    rows[switch:] = np.array(after[::-1], out.dtype).view(kind)


def _nul_padded(chars: np.ndarray, digits: int) -> np.ndarray:
    """Rows of rising zero-padded ASCII digits as items of their last `digits`
    bytes, the leading zeros NULs.  While the first row has a leading zero
    in a column, the rows with one there are a prefix of those with one in
    the column before."""
    short, col, end = chars.shape[0], chars.shape[1] - digits, chars.shape[1] - 1
    while chars[0, col] == 48 and col < end:  # a 0 keeps its one digit
        short = int(np.count_nonzero(chars[:short, col] == 48))
        chars[:short, col] = 0
        col += 1
    return np.ndarray(chars.shape[0], f"V{digits}", chars, end + 1 - digits, end + 1)


def _counted(c: int, rows: int, digits: int) -> np.ndarray:
    """Item i holds the ASCII digits of c + i, NUL padded on the left to
    `digits` digits, for rows <= _E4: the low base-10^4 group is two
    slices of the digit table, cut where it wraps to 0, and the high
    groups are those of c // 10^4 before the wrap and of that plus 1 after."""
    width, (high, low) = -(-digits // 4), divmod(c, _E4)
    words, switch = np.empty((rows, width), np.uint32), min(rows, _E4 - low)
    words[:switch, -1] = _DIGIT_GROUPS[low : low + switch]
    words[switch:, -1] = _DIGIT_GROUPS[: rows - switch]
    before, after = _groups(high, width - 1), _groups(high + 1, width - 1)
    _fill_high(words, _DIGIT_GROUPS[before], _DIGIT_GROUPS[after], switch)
    return _nul_padded(words.view(np.uint8), digits)


def _digits(base: int, step: int, first: np.ndarray, digits: int) -> np.ndarray:
    """Item i holds the ASCII digits of base + i*step + first[i], NUL padded on
    the left to `digits` digits: one numpy void item per row, for rising values
    below 10^digits; first is uint32.

    Row i is built as base-10^4 groups, most significant first, and its
    item starts past the zeros that pad the top group to four digits.
    Only the low groups vary, up to 10^(4*low) > the largest increment
    (3011 / 40000 > log10(2) / 4): column j < low is i*step_j + base_j
    plus the carry out of column j - 1, first[i] being the first carry.
    The carry out of the top one is 0 up to some row and 1 from there
    on, as the values rise, so the high groups are those of
    base // 10^(4*low) or of that plus 1.  The groups are intp, so the
    digit table's take makes no index copy of them.
    """
    rows, width = first.size, -(-digits // 4)
    groups = np.empty((rows, width), np.intp)
    i = _block_tables(np.uint32)[0][:rows]
    top = (rows - 1) * step + int(first[-1])
    low = min(width, (top.bit_length() * 3011 + 39999) // 40000)
    # floor_divide by a scalar is several times faster than divmod; the
    # remainder is written once, as the columns of groups are strided
    carry, (quotient, product) = first.copy(), np.empty((2, rows), dtype=np.uint32)
    for j, (step_j, base_j) in enumerate(zip(_groups(step, low), _groups(base, low))):
        if step_j:
            carry += np.multiply(i, step_j, out=product)
        carry += base_j
        np.floor_divide(carry, _E4, out=quotient)
        np.subtract(carry, np.multiply(quotient, _E4, out=product), out=groups[:, width - 1 - j])
        carry, quotient = quotient, carry
    high, switch = base // _E4**low, rows - int(np.count_nonzero(carry))
    _fill_high(groups, _groups(high, width - low), _groups(high + 1, width - low), switch)
    return _nul_padded(_DIGIT_GROUPS.take(groups).view(np.uint8), digits)


# rows per cell of the record kernel, and per stream piece: a cell's digit
# groups stay cache sized, its i and t_i below 2^15, and its n wraps a
# multiple of 10^4 at most once, as _CELL_ROWS < 10^4
_CELL_ROWS = 1 << 13
# one layout buffer per formatting thread, with the layout whose constant bytes it holds
_LAYOUT = threading.local()


def _format_range(ns: range, pcs: np.ndarray, fmt: str) -> bytearray:
    """The kernel path of :func:`format_block`, one cell of _CELL_ROWS rows at a time.

    Every row is as wide as the last: lead | n | mid | t | tail, with n
    and t at the digit counts of the last row's, NUL padded on the left,
    and the tail, looked up by popcount, NUL padded on the right to the
    longest.  Each field is a column of numpy void items, one per row.
    From a cell's first index c, n = c + i goes in by :func:`_counted`
    and t = t_c + i*c + t_i, as the classifiers build t, by
    :func:`_digits`: for i < 2^15 a column of t stays below 2^15 * 10^4 +
    10^4 + 2^29 < 2^32.  The only NULs are padding, so deleting them at
    the end costs about a copy.

    The rows are laid out in the calling thread's buffer, reused while
    pieces keep its size, so that pieces do not fault fresh heap pages
    in.  n, t and the tail are written on each call; lead and mid, the
    constant bytes, only when the layout (format, rows, digit counts and
    tail width) changes.  So no byte of an earlier piece is left in it;
    the piece returned is a copy.
    """
    t_last = triangular(ns[-1])
    lead, mid, tails = _row_layout(fmt, t_last.bit_length())
    dn, dt = _decimal_digits(ns[-1]), _decimal_digits(t_last)
    t_at = lead.itemsize + dn + mid.itemsize
    width, layout = t_at + dt + tails.itemsize, (fmt, len(ns), dn, dt, tails.itemsize)
    buf = getattr(_LAYOUT, "buf", None)
    if getattr(_LAYOUT, "layout", None) != layout:
        if buf is None or len(buf) != len(ns) * width:
            buf = _LAYOUT.buf = bytearray(len(ns) * width)
        _LAYOUT.layout = None  # until the constant bytes are in
        for field, at in ((lead, 0), (mid, t_at - mid.itemsize)):
            np.ndarray(len(ns), field.dtype, buf, at, width)[...] = field
        _LAYOUT.layout = layout

    def put(field: np.ndarray, at: int) -> None:
        np.ndarray(field.size, field.dtype, buf, at, width)[...] = field

    t_i = _block_tables(np.uint32)[1]
    for start in range(0, len(ns), _CELL_ROWS):
        stop = min(start + _CELL_ROWS, len(ns))
        rows, c, row = stop - start, ns[start], start * width
        # each field is built once the one before is written: holding all
        # at once made pieces fault heap pages back in
        put(_counted(c, rows, dn), row + lead.itemsize)
        put(_digits(c * (c + 1) // 2, c, t_i[:rows], dt), row + t_at)
        put(tails.take(pcs[start:stop]), row + t_at + dt)
    return buf.replace(b"\0", b"")


# A run's jsonl line, as `vt runs` prints it, is
#   {"start":S,"length":L,"popcounts":[P1,...,PL],"truncated_left":B,"truncated_right":B}
# cut into the bytes before S, those between S and P1, and a table item per popcount.
_RUN_LEAD = np.void(b'{"start":')
_BOOLS = ("false", "true")


@functools.lru_cache(maxsize=128)
def _run_tables(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """A run line's popcount items, for pc <= bits: item [pc] of the first
    table holds "pc,", and item [pc, flags] of the second the line's end
    from its last popcount on."""
    heads = [f"{pc}," for pc in range(bits + 1)]
    tails = [
        f'{pc}],"truncated_left":{_BOOLS[flags & 1]},"truncated_right":{_BOOLS[flags >> 1]}}}\n'
        for pc in range(bits + 1)
        for flags in range(4)
    ]
    return _void_table(heads), _void_table(tails).reshape(bits + 1, 4)


def _format_runs(runs: _RunColumns) -> Iterator[bytearray]:
    """The jsonl lines of runs, one pass of at most _RUN_PASS runs at a time.

    A pass lays its rows out as :func:`_format_range` does: each field
    is a column of numpy void items, one per row, written in row order,
    and the NULs padding the items and the rows are deleted at the end.
    The rows of a pass are as wide as its widest.  The starts lo +
    starts[k] go in by one :func:`_digits` call, at the digit count of
    the pass's last start, as the offsets rise.  The rest of a row
    depends on the run's length, so the runs of one length are laid out
    together, past the widest start: the bytes naming the length, a
    table item per popcount but the last, and one for the last that
    ends the line with the truncation flags.
    """
    heads, tails = _run_tables(triangular(runs.lo + runs.pcs.size - 1).bit_length())
    s_at = _RUN_LEAD.itemsize
    for p in range(0, runs.starts.size, _RUN_PASS):
        starts = runs.starts[p : p + _RUN_PASS]
        lengths, flags = runs.lengths[p : p + starts.size], runs.flags[p : p + starts.size]
        digits = _decimal_digits(runs.lo + int(starts[-1]))
        m_at = s_at + digits  # past the widest start
        counts = np.bincount(lengths)
        mids = {size: np.void(f',"length":{size},"popcounts":['.encode())
                for size in np.flatnonzero(counts).tolist()}
        width = m_at + max(mid.itemsize + (size - 1) * heads.itemsize + tails.itemsize
                           for size, mid in mids.items())
        buf = bytearray(starts.size * width)
        np.ndarray(starts.size, _RUN_LEAD.dtype, buf, 0, width)[...] = _RUN_LEAD
        field = _digits(runs.lo, 0, starts.astype(np.uint32), digits)
        np.ndarray(starts.size, field.dtype, buf, s_at, width)[...] = field
        for size, mid in mids.items():
            at = np.flatnonzero(lengths == size) if counts[size] < starts.size else slice(None)
            pcs = runs.pcs[starts[at, None] + np.arange(size)]
            end = m_at
            for field in (mid, *(heads[pcs[:, j]] for j in range(size - 1)),
                          tails[pcs[:, -1], flags[at]]):
                np.ndarray(starts.size, field.dtype, buf, end, width)[at] = field
                end += field.dtype.itemsize
        yield buf.translate(None, b"\0")


def format_block(columns: tuple, fmt: str) -> bytes:
    """Serialize classified rows to the byte-exact jsonl or csv body.

    ``columns`` is (n, t, pc, vt): four equal-length sequences or numpy
    arrays.  A chunk's columns, as :meth:`_Chunk.columns` hands them over,
    go through the numpy kernel at any size, and the result is a bytearray.
    Anything else, lists or arrays alike, goes through one f-string per
    line, so a t column from a caller is never trusted.  Both give the
    same bytes.
    """
    _require_format(fmt)
    ns, ts, pcs, vts = columns
    if isinstance(ts, _Triangulars) and ts.ns is ns:
        return _format_range(ns, pcs, fmt)
    return _format_exact(columns, fmt)


@dataclass(frozen=True)
class StreamBlock:
    """One classified chunk, formatted on demand, plus the checkpoint valid after it.

    The chunk was classified on the calling thread before the block was
    yielded; its bytes are made only when :meth:`pieces` is read.
    Write every piece of :meth:`pieces`, in order, then persist
    ``checkpoint``: a crash between the two re-emits at most this
    block's records (the saved checkpoint still points at its start),
    never skips any.  A consumer that writes on another thread, as
    ``vt scan`` does, must wait until every piece is written and
    flushed before it persists ``checkpoint``: that barrier is what
    keeps the guarantee.  Equality compares the checkpoint and header,
    not the classified chunk.

    Unlike the chunks of the scans that only count or search runs, which
    reuse one pair of arrays and are valid until the next chunk is
    classified, each block's chunk has arrays of its own: a block stays
    valid after later blocks are made, so blocks may be kept and their
    pieces read at any time.
    """

    checkpoint: ScanCheckpoint  # its fmt is the block's format
    header: bytes  # the csv header on the first block of a fresh scan, else empty
    chunk: _Chunk = field(compare=False, repr=False)

    def pieces(self) -> Iterator[bytes]:
        """The block's bytes, one :func:`format_block` call of _CELL_ROWS rows at a time.

        The first piece carries the header, if any.  Only the piece being
        formatted is built, so a consumer holds the pieces it has taken
        and not yet written (``vt scan``: at most two, one being written
        while one waits), not the whole chunk's bytes.
        """
        header = self.header
        size = self.chunk.vts.size
        for a in range(0, size, _CELL_ROWS):
            # format_block is looked up per call, so wrapping the module's name traces it
            columns = self.chunk.columns(a, min(a + _CELL_ROWS, size))
            piece = format_block(columns, self.checkpoint.fmt)
            if header:
                piece, header = header + piece, b""
            yield piece

    @property
    def payload(self) -> bytes:
        """All of the block's bytes at once: the pieces joined."""
        return b"".join(self.pieces())


def stream_scan(
    lo: int,
    hi: int,
    fmt: str = "jsonl",
    *,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    resume: ScanCheckpoint | None = None,
) -> Iterator[StreamBlock]:
    """Yield blocks covering [lo, hi] in ascending order.

    Each block is classified on the calling thread when it is asked
    for, and formatted only when its :meth:`StreamBlock.pieces` or
    ``payload`` is read.  ``threads`` is validated but changes nothing:
    classification does not run on worker threads.  It stays until the
    benchmark's ``probe_pool`` stops passing it.  Persist a block's
    checkpoint only once its bytes are written and flushed: a consumer
    that writes on another thread puts its barrier there (see
    :class:`StreamBlock`).  With ``resume``, emission continues from
    resume.next and the csv header is suppressed (the interrupted stream
    already wrote it); concatenating the two outputs reproduces an
    uninterrupted run byte for byte.  A ``resume`` checkpoint for another
    range or another format raises :class:`CheckpointStateError`.
    """
    _require_range(lo, hi)
    _require_threads(threads)
    _require_chunk(chunk_size)
    _require_format(fmt)
    if resume is None:
        state = _start_state(lo, hi, fmt)
        header = _CSV_HEADER if fmt == "csv" else b""
    else:
        if (resume.lo, resume.hi) != (lo, hi):
            raise CheckpointStateError(
                f"checkpoint covers [{resume.lo}, {resume.hi}] "
                f"but the requested range is [{lo}, {hi}]"
            )
        if resume.fmt != fmt:
            raise CheckpointStateError(
                f"checkpoint continues {resume.fmt or 'a record scan'} output "
                f"but the requested format is {fmt}"
            )
        state = resume
        header = b""  # the interrupted stream already wrote it
    # a block may be kept past the next one, so each gets a chunk of its own
    for chunk, _, checkpoint in _drive(state, None, chunk_size=chunk_size, fresh=True):
        yield StreamBlock(checkpoint, header, chunk)
        header = b""
        del chunk  # release it before the next chunk is classified


def _require_range(lo: int, hi: int) -> None:
    if not 1 <= lo <= hi:
        raise ParameterError(f"range must satisfy 1 <= lo <= hi, got [{lo}, {hi}]")


def _require_threads(threads: int) -> None:
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")


def _require_chunk(chunk_size: int) -> None:
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
