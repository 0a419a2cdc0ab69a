"""Range scanning: chunking, tiers, runs, checkpoints, byte streams."""
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vtnum import (
    CHECKPOINT_VERSION,
    FAST_INDEX_LIMIT,
    CheckpointCorruptError,
    CheckpointStateError,
    CheckpointVersionError,
    ParameterError,
    Run,
    ScanCheckpoint,
    VtRecord,
    checkpoint_resume,
    checkpoint_save,
    classify_index,
    count_vt,
    find_runs,
    find_twins,
    family_power_minus,
    format_block,
    gap_window,
    merge_summaries,
    popcount_of_triangular,
    resume_scan,
    scan,
    sigma_enumerate,
    stream_scan,
    triangular,
    twin_pair,
    vt_flags,
)
from vtnum import scanner
from vtnum.scanner import (
    _CSV_HEADER,
    _DIGIT_GROUPS,
    _CELL_ROWS,
    _LIMB_BLOCK,
    _RUN_PASS,
    _RunColumns,
    _RunTracker,
    _chunk_bounds,
    _classify,
    _drive,
    _format_exact,
    _format_runs,
    _leading_true,
    _long_runs,
    _run_stream,
    _trailing_true,
    _vt_by_popcount,
    _vt_pairs,
)


class TestScanBasics:
    def test_counts_first_21(self):
        summary = scan(1, 21)
        assert summary.vt_count == 5
        assert summary.scanned == 21
        assert summary.range == (1, 21)

    def test_emits_every_record_in_order(self, ref):
        records = []
        scan(1, 200, records.append)
        assert [r.n for r in records] == list(range(1, 201))
        for r in records:
            assert r.t == ref.triangular(r.n)
            assert r.popcount == ref.popcount(r.t)
            assert r.is_vt == ref.is_vt_index(r.n)

    def test_single_index_range(self):
        summary = scan(5, 5)
        assert summary.scanned == 1
        assert summary.vt_count == 0

    def test_range_not_anchored_at_one(self, ref):
        summary = scan(500, 700)
        assert summary.vt_count == len(ref.vt_indexes(500, 700))

    @pytest.mark.parametrize("lo,hi", [(0, 5), (5, 4), (-3, -1)])
    def test_rejects_bad_range(self, lo, hi):
        with pytest.raises(ParameterError):
            scan(lo, hi)

    def test_rejects_bad_threads_and_chunks(self):
        checkpoint = ScanCheckpoint(CHECKPOINT_VERSION, 1, 10, 1, 0, None, 0, None)
        for call in (
            lambda: scan(1, 10, threads=0),
            lambda: resume_scan(checkpoint, threads=0),
            lambda: count_vt(1, 10, threads=0),
            lambda: find_runs(1, 10, 2, threads=0),
            lambda: find_twins(1, 10, threads=0),
            lambda: list(stream_scan(1, 10, threads=0)),
        ):
            with pytest.raises(ParameterError, match="threads"):
                call()
        with pytest.raises(ParameterError):
            scan(1, 10, chunk_size=0)

    def test_chunk_size_does_not_change_result(self):
        baseline = scan(1, 3000)
        for size in (1, 7, 64, 997, 3000, 10**6):
            assert scan(1, 3000, chunk_size=size) == baseline

    def test_threads_do_not_change_result(self):
        baseline = scan(1, 5000, chunk_size=256)
        for threads in (2, 4, 8):
            assert scan(1, 5000, chunk_size=256, threads=threads) == baseline

    def test_run_tracking_can_be_disabled(self):
        assert scan(1, 100, min_run_len=None).runs_found == ()

    @settings(deadline=None, max_examples=25)
    @given(
        lo=st.integers(min_value=1, max_value=4000),
        width=st.integers(min_value=0, max_value=600),
        chunk=st.integers(min_value=1, max_value=300),
    )
    def test_count_matches_reference_on_random_ranges(self, lo, width, chunk):
        hi = lo + width
        summary = scan(lo, hi, chunk_size=chunk)
        expected = sum(
            1 for n in range(lo, hi + 1)
            if bin(n * (n + 1) // 2).count("1") in (1, 3, 6, 10, 15, 21, 28)
        )
        assert summary.vt_count == expected


class TestClassifyIndex:
    def test_examples(self):
        rec = classify_index(7)
        assert (rec.n, rec.t, rec.popcount, rec.is_vt) == (7, 28, 3, True)
        rec = classify_index(5)
        assert (rec.n, rec.t, rec.popcount, rec.is_vt) == (5, 15, 4, False)

    def test_rejects_bad_index(self):
        with pytest.raises(ParameterError):
            classify_index(0)

    def test_arbitrary_precision(self):
        n = 10**25 + 11
        rec = classify_index(n)
        assert rec.t == n * (n + 1) // 2
        assert rec.popcount == bin(rec.t).count("1")


class TestTierBoundary:
    def test_straddling_range_matches_scalar_path(self):
        lo, hi = FAST_INDEX_LIMIT - 3, FAST_INDEX_LIMIT + 3
        records = []
        scan(lo, hi, records.append)
        assert records == [classify_index(n) for n in range(lo, hi + 1)]

    def test_straddling_with_tiny_chunks(self):
        lo, hi = FAST_INDEX_LIMIT - 5, FAST_INDEX_LIMIT + 5
        assert scan(lo, hi, chunk_size=3) == scan(lo, hi)

    def test_power_index_2_32(self):
        # t_(2^32) = 2^63 + 2^31: n(n+1) passes 2^64, t_n does not
        rec = classify_index(2**32)
        assert rec.t == 2**63 + 2**31
        assert rec.popcount == 2
        assert not rec.is_vt

    def test_limit_is_the_last_word_index(self):
        assert triangular(FAST_INDEX_LIMIT) < 2**64 <= triangular(FAST_INDEX_LIMIT + 1)

    def test_first_index_past_the_word_tier(self):
        # t_(L+1) = 2^64 + 3327948884: the first index classified by the limb tier
        rec = classify_index(FAST_INDEX_LIMIT + 1)
        assert rec.t == 2**64 + 3327948884
        assert rec.popcount == 16
        assert not rec.is_vt

    @pytest.mark.parametrize("n", [10**10, 10**15, 10**18])
    def test_big_tier_agrees_with_reference(self, n, ref):
        records = []
        scan(n, n + 3, records.append)
        for rec in records:
            assert rec.t == ref.triangular(rec.n)
            assert rec.popcount == ref.popcount(rec.t)


_WORD_SIZES = [1, _LIMB_BLOCK - 1, _LIMB_BLOCK, _LIMB_BLOCK + 1, 3 * _LIMB_BLOCK + 7]
# chunks from 1, 10^9 and 2^32 - 2^16 - 5 (across 2^32 for the longest),
# and chunks ending at FAST_INDEX_LIMIT itself
_WORD_WINDOWS = [
    (lo, min(lo + size - 1, FAST_INDEX_LIMIT))
    for lo in (1, 10**9, 2**32 - 2**16 - 5)
    for size in _WORD_SIZES
] + [(FAST_INDEX_LIMIT - size + 1, FAST_INDEX_LIMIT) for size in _WORD_SIZES]
# every popcount a one-word t can have that is triangular
_TRIANGULAR_PCS = {k * (k + 1) // 2 for k in range(1, 11)}


class TestWordTier:
    """The one-word kernel, sub-block by sub-block, against the scalar path."""

    @pytest.mark.parametrize("lo,hi", _WORD_WINDOWS)
    def test_kernel_and_columns_match_scalar(self, lo, hi):
        chunk = _classify(lo, hi)
        ns = list(range(lo, hi + 1))
        pcs = [popcount_of_triangular(n) for n in ns]
        assert chunk.pcs.tolist() == pcs
        assert chunk.vts.tolist() == [pc in _TRIANGULAR_PCS for pc in pcs]
        ts = [triangular(n) for n in ns]
        assert chunk.rows()[1] == ts
        assert chunk.rows(1, len(ns))[1] == ts[1:]
        assert list(chunk.columns(0, len(ns))[1]) == ts
        for a in range(0, len(ns), _CELL_ROWS):
            b = min(a + _CELL_ROWS, len(ns))
            piece_ns, piece_ts, _, _ = chunk.columns(a, b)
            assert list(piece_ns) == ns[a:b]
            assert list(piece_ts) == ts[a:b]

    def test_chunk_keeps_no_t_column(self):
        chunk = _classify(1, 1000)
        assert [f.name for f in dataclasses.fields(chunk)] == ["lo", "hi", "pcs", "vts"]

    def test_arrays_are_reused_only_when_they_fit(self):
        first = _classify(1, 1000)
        again = _classify(1001, 2000, first)
        assert again.pcs is first.pcs and again.vts is first.vts
        assert again.pcs.tolist() == [popcount_of_triangular(n) for n in range(1001, 2001)]
        shorter = _classify(2001, 2500, again)
        assert shorter.pcs.size == 500 and not np.shares_memory(shorter.pcs, again.pcs)
        lo = 3**200  # t_n of 634 bits, popcounts past 255
        wider = _classify(lo, lo + 999, first)
        assert not np.shares_memory(wider.vts, first.vts)
        assert wider.pcs.tolist() == [popcount_of_triangular(n) for n in range(lo, lo + 1000)]
        assert wider.pcs.min() > 255

    @pytest.mark.parametrize(
        "count,limit_mib",
        [(lambda lo, hi: find_runs(lo, hi, 6), 10), (count_vt, 8)],
        ids=["find_runs", "count_vt"],
    )
    def test_peak_memory_below_a_t_column(self, count, limit_mib):
        # 2^22 indexes in 2^20-row chunks: each chunk's pcs and vts take
        # 2 MiB, where a uint64 t column would take 8 MiB more
        lo = 2**31 + 12345
        tracemalloc.start()
        try:
            count(lo, lo + 2**22 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20


def _chunked(lo, hi, chunk_size):
    """The pcs and vts of [lo, hi], classified as a scan does: chunk by chunk into one reused pair."""
    pcs, vts, out = [], [], None
    for a, b in _chunk_bounds(lo, hi, chunk_size):
        out = _classify(a, b, out)
        pcs.append(out.pcs.copy())
        vts.append(out.vts.copy())
    return np.concatenate(pcs), np.concatenate(vts)


def _assert_matches_reference(ref, lo, pcs, vts):
    """pcs and vts classify the indexes from lo on, by the brute-force oracle."""
    want = [ref.popcount(ref.triangular(n)) for n in range(lo, lo + pcs.size)]
    small = ref.triangular_set(max(want))
    assert pcs.tolist() == want
    assert vts.tolist() == [pc in small for pc in want]


# word-tier windows for chunk sizes 1 to 997: from 1, across 2^32 and
# ending at FAST_INDEX_LIMIT, with odd and even last sub-blocks
_PAIR_WINDOWS = [(1, 3000), (2**32 - 1500, 2**32 + 1501), (FAST_INDEX_LIMIT - 2999, FAST_INDEX_LIMIT)]


class TestPairLookup:
    """The word tier's verdicts, two a lookup, against the one-a-row table."""

    def test_every_pair_of_popcounts(self):
        pc0, pc1 = (a.ravel() for a in np.meshgrid(np.arange(65), np.arange(65)))
        rows = np.stack([pc0, pc1], axis=1).astype(np.uint8)  # two popcount bytes per row
        verdicts = _vt_pairs()[rows.view("<u2").ravel()].astype("<u2").view(np.uint8)
        one = _vt_by_popcount(64)
        assert verdicts.tolist() == np.stack([one[pc0], one[pc1]], axis=1).ravel().tolist()
        assert [pc for pc in range(65) if one[pc]] == sorted(_TRIANGULAR_PCS)

    def test_table_is_read_only(self):
        table = _vt_pairs()
        assert table.shape == (1 << 16,) and table.nbytes == 128 * 1024
        assert not table.flags.writeable

    @pytest.mark.parametrize("chunk", [1, 3, 7, 997])
    @pytest.mark.parametrize("lo,hi", _PAIR_WINDOWS)
    def test_flags_and_counts_at_small_chunks(self, lo, hi, chunk):
        pcs = [popcount_of_triangular(n) for n in range(lo, hi + 1)]
        flags = [pc in _TRIANGULAR_PCS for pc in pcs]
        got_pcs, got_flags = _chunked(lo, hi, chunk)
        assert got_pcs.tolist() == pcs
        assert got_flags.tolist() == flags
        assert vt_flags(lo, hi).tolist() == flags
        assert scan(lo, hi, min_run_len=None, chunk_size=chunk).vt_count == sum(flags)
        assert count_vt(lo, hi) == sum(flags)


class TestRunningColumn:
    """The word tier's column carried from sub-block to sub-block, against the oracle."""

    def test_full_chunk_ending_at_the_limit(self, ref):
        # the partial sums come closest to 2^64 here
        lo = FAST_INDEX_LIMIT - (1 << 20) + 1
        chunk = _classify(lo, FAST_INDEX_LIMIT)
        _assert_matches_reference(ref, lo, chunk.pcs, chunk.vts)

    def test_chunk_across_2_32(self, ref):
        lo = 2**32 - (1 << 19) - 12345
        chunk = _classify(lo, lo + (1 << 20) - 1)
        _assert_matches_reference(ref, lo, chunk.pcs, chunk.vts)

    def test_two_chunks_into_one_pair(self, ref):
        lo, size = 2**31 + 12345, 3 * _LIMB_BLOCK + 10
        first = _classify(lo, lo + size - 1)
        _assert_matches_reference(ref, lo, first.pcs, first.vts)
        again = _classify(lo + size, lo + 2 * size - 1, first)
        assert again.pcs is first.pcs and again.vts is first.vts
        _assert_matches_reference(ref, lo + size, again.pcs, again.vts)

    @settings(deadline=None, max_examples=20)
    @given(
        lo=st.integers(min_value=1, max_value=FAST_INDEX_LIMIT - (1 << 17)),
        length=st.integers(min_value=1, max_value=4 * _LIMB_BLOCK + 7),
        chunk=st.sampled_from([1, 7, _LIMB_BLOCK + 1, 1 << 20]),
    )
    def test_any_window_and_chunk_size(self, ref, lo, length, chunk):
        pcs, vts = _chunked(lo, lo + length - 1, chunk)
        _assert_matches_reference(ref, lo, pcs, vts)


def _ref_rows(ref, lo, hi):
    """The (ns, ts, pcs, vts) rows of [lo, hi], from the brute-force oracle."""
    ns = list(range(lo, hi + 1))
    ts = [ref.triangular(n) for n in ns]
    return ns, ts, [ref.popcount(t) for t in ts], [ref.is_vt_index(n) for n in ns]


class TestWideTier:
    """The limb tier up to n = 2^64 - 1, where t_n takes at most four limbs."""

    @settings(deadline=None, max_examples=80)
    @given(
        lo=st.one_of(
            st.integers(min_value=FAST_INDEX_LIMIT - 300, max_value=FAST_INDEX_LIMIT + 1),
            st.integers(min_value=FAST_INDEX_LIMIT + 1, max_value=2**64 - 1),
            st.integers(min_value=2**64 - 1 - 300, max_value=2**64 - 1),
        ),
        width=st.integers(min_value=0, max_value=300),
    )
    def test_kernel_matches_reference(self, ref, lo, width):
        hi = min(lo + width, 2**64 - 1)
        chunk = _classify(lo, hi)
        ns, ts, pcs, vts = _ref_rows(ref, lo, hi)
        assert chunk.pcs.tolist() == pcs
        assert chunk.vts.tolist() == vts
        assert chunk.rows() == (ns, ts, pcs, vts)

    def test_kernel_across_sub_blocks(self, ref):
        lo = 2**62 + 12345
        hi = lo + 2 * _LIMB_BLOCK + 4
        chunk = _classify(lo, hi)
        assert chunk.pcs.tolist() == _ref_rows(ref, lo, hi)[2]

    @pytest.mark.parametrize(
        "n,pc",
        [
            (18446744073705357314, 66),
            (18446744073705357773, 78),
            (18446744073706585829, 91),
            (2**276 - 2, 276),
            (2**300 - 1, 300),
        ],
    )
    def test_popcounts_past_64_classify(self, ref, n, pc):
        # t_n has up to 127 bits below 2^64, so triangular popcounts above
        # 64 occur; past 255, at the twin pairs 2^k - 2 and 2^k - 1, they
        # need more than a byte
        assert ref.popcount(ref.triangular(n)) == pc and ref.is_vt_index(n)
        chunk = _classify(n, n)
        assert chunk.pcs.tolist() == [pc]
        assert chunk.vts.tolist() == [True]

    def test_last_wide_index(self, ref):
        n = 2**64 - 1
        chunk = _classify(n, n)
        # t_(2^64 - 1) = 2^127 - 2^63: 64 ones, and 64 is not triangular
        assert chunk.rows() == ([n], [2**127 - 2**63], [64], [False])
        assert chunk.rows() == _ref_rows(ref, n, n)

    def test_chunk_bounds_split_at_fast_limit(self):
        lo, hi = FAST_INDEX_LIMIT - 1, 2**64 + 1
        assert list(_chunk_bounds(lo, hi, 2**70)) == [
            (lo, FAST_INDEX_LIMIT),
            (FAST_INDEX_LIMIT + 1, hi),
        ]

    @pytest.mark.parametrize("limit", [FAST_INDEX_LIMIT, 2**64 - 1])
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
    def test_records_across_tier_limits(self, ref, limit, chunk):
        lo, hi = limit - 40, limit + 40
        records = []
        scan(lo, hi, records.append, chunk_size=chunk)
        rows = _ref_rows(ref, lo, hi)
        assert records == [VtRecord(*row) for row in zip(*rows)]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("chunk", [1, 7, _LIMB_BLOCK, 1 << 20])
    def test_stream_across_fast_limit(self, ref, chunk, fmt):
        # a sub-block and 50 rows on each side of the last one-word index
        lo = FAST_INDEX_LIMIT - _LIMB_BLOCK - 50
        hi = FAST_INDEX_LIMIT + _LIMB_BLOCK + 50
        header = _CSV_HEADER if fmt == "csv" else b""
        blocks = list(stream_scan(lo, hi, fmt, chunk_size=chunk))
        got = b"".join(b.payload for b in blocks)
        assert got == header + _format_exact(_ref_rows(ref, lo, hi), fmt)
        # the last one-word chunk and the first limb chunk hand the
        # formatter the same column shape: a range and its t_n
        edge = next(i for i, b in enumerate(blocks) if b.chunk.hi == FAST_INDEX_LIMIT)
        last_word, first_limb = blocks[edge].chunk, blocks[edge + 1].chunk
        ns, ts, _, _ = last_word.columns(0, last_word.vts.size)
        assert isinstance(ns, range) and ns[-1] == FAST_INDEX_LIMIT
        assert list(ts)[-1] == triangular(FAST_INDEX_LIMIT)
        ns, ts, _, _ = first_limb.columns(0, first_limb.vts.size)
        assert isinstance(ns, range) and ns[0] == FAST_INDEX_LIMIT + 1
        assert type(ts) is type(last_word.columns(0, 1)[1])
        assert list(ts)[0] == triangular(FAST_INDEX_LIMIT + 1)

    def test_scan_across_fast_limit_in_tiny_chunks(self, ref):
        lo, hi = FAST_INDEX_LIMIT - 300, FAST_INDEX_LIMIT + 300
        records = []
        summary = scan(lo, hi, records.append, chunk_size=3)
        assert records == [VtRecord(*row) for row in zip(*_ref_rows(ref, lo, hi))]
        assert summary.runs_found == _expected_runs(ref, lo, hi, 1)

    @settings(deadline=None, max_examples=60)
    @given(
        lo=st.one_of(
            st.integers(min_value=2**64 - 1 - 250, max_value=2**64 - 1),
            st.sampled_from([2**96 - 60, 2**120 - 2**60, 3**100]),
        ),
        width=st.integers(min_value=0, max_value=250),
        chunk=st.integers(min_value=1, max_value=64),
        threads=st.sampled_from([1, 2]),
        min_len=st.integers(min_value=1, max_value=3),
    )
    def test_outputs_across_last_wide_index(self, ref, lo, width, chunk, threads, min_len):
        hi = lo + width
        rows = _ref_rows(ref, lo, hi)
        for fmt, header in (("jsonl", b""), ("csv", b"n,t,pc,vt\n")):
            blocks = stream_scan(lo, hi, fmt, chunk_size=chunk, threads=threads)
            assert b"".join(b.payload for b in blocks) == header + format_block(rows, fmt)
        summary = scan(lo, hi, min_run_len=min_len, chunk_size=chunk, threads=threads)
        expected = _expected_runs(ref, lo, hi, min_len)
        assert summary.runs_found == expected
        assert summary.vt_count == sum(rows[3])
        assert find_runs(lo, hi, min_len, threads=threads) == [
            r for r in expected if r.length >= min_len
        ]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("k", [36, 66])
    def test_checkpoint_mid_tier_resumes(self, tmp_path, ref, k, fmt):
        # the twin pair (2^k - 2, 2^k - 1) is open at the block ending 2^k - 2
        lo, hi = 2**k - 41, 2**k + 40
        path = tmp_path / "cp.json"
        blocks = list(stream_scan(lo, hi, fmt, chunk_size=8))
        whole = b"".join(b.payload for b in blocks)
        header = _CSV_HEADER if fmt == "csv" else b""
        assert whole == header + format_block(_ref_rows(ref, lo, hi), fmt)
        assert (2**k - 2, 1) in [b.checkpoint.open_run for b in blocks]
        for i, block in enumerate(blocks):
            checkpoint_save(block.checkpoint, path)
            state = checkpoint_resume(path)
            head = b"".join(b.payload for b in blocks[: i + 1])
            tail = b"".join(b.payload for b in stream_scan(lo, hi, fmt, chunk_size=5, resume=state))
            assert head + tail == whole
            resumed = resume_scan(dataclasses.replace(state, fmt=None), min_run_len=2)
            twin = Run(2**k - 2, 2, (k, k))
            assert (twin in resumed.runs_found) == (state.next <= 2**k)


def _first_index_reaching(value):
    """The smallest n with t_n >= value."""
    n = math.isqrt(2 * value)
    while n * (n + 1) // 2 >= value:
        n -= 1
    while n * (n + 1) // 2 < value:
        n += 1
    return n


# triangular k > 1 up to the paper's largest family parameter
_TRIANGULAR_KS = [k * (k + 1) // 2 for k in range(2, 17)]


class TestLimbTier:
    """The limb kernel past FAST_INDEX_LIMIT, against the brute-force oracle."""

    @pytest.mark.parametrize("before", [150, _LIMB_BLOCK])
    @pytest.mark.parametrize("limbs", range(2, 9))
    def test_windows_where_t_gains_a_limb(self, ref, limbs, before):
        # t_n reaches 2^(32 * limbs) inside the first sub-block, or at the
        # start of the second
        edge = _first_index_reaching(2 ** (32 * limbs))
        lo = max(edge - before, FAST_INDEX_LIMIT + 1)
        hi = edge + 150
        chunk = _classify(lo, hi)
        _, _, pcs, vts = _ref_rows(ref, lo, hi)
        assert chunk.pcs.tolist() == pcs
        assert chunk.vts.tolist() == vts

    @pytest.mark.parametrize("before", [0, 1, _LIMB_BLOCK])
    @pytest.mark.parametrize("n", [2**32, 2**64, 2**96])
    def test_sub_block_start_gains_a_limb(self, ref, n, before):
        # the index itself takes one more limb than the one before it
        lo = n - before
        chunk = _classify(lo, n + 200)
        assert chunk.rows() == _ref_rows(ref, lo, n + 200)

    def test_chunk_size_off_the_sub_block_grid(self, ref):
        lo, chunk = 2**64 - 1000, _LIMB_BLOCK + _LIMB_BLOCK // 2 + 7
        hi = lo + 2 * chunk + 100
        rows = _ref_rows(ref, lo, hi)
        blocks = list(stream_scan(lo, hi, "jsonl", chunk_size=chunk))
        assert [b.chunk.vts.size for b in blocks] == [chunk, chunk, 101]
        assert b"".join(b.payload for b in blocks) == format_block(rows, "jsonl")
        summary = scan(lo, hi, min_run_len=2, chunk_size=chunk)
        assert summary.runs_found == _expected_runs(ref, lo, hi, 2)
        assert summary.vt_count == sum(rows[3])

    @pytest.mark.parametrize("k", _TRIANGULAR_KS)
    def test_family_predictions(self, k):
        # the families predict each popcount by construction; the scanner sums limbs
        witnesses = [twin_pair(k)] + [family_power_minus(k, ell) for ell in range(k // 2 + 1)]
        if k % 4 == 0:
            report = gap_window(k)
            lo, hi = report.window[0] + 1, report.window[1]
            chunk = _classify(lo, hi)
            assert chunk.pcs.tolist() == list(report.member_popcounts)
            assert not chunk.vts.any()
        for w in witnesses:
            chunk = _classify(w.indices[0], w.indices[-1])
            assert chunk.pcs.tolist() == [w.predicted_popcount] * len(w.indices)
            assert chunk.vts.all()


class TestRuns:
    def test_known_runs_up_to_1000(self):
        got = [(r.start, r.length) for r in find_runs(1, 1000, 3)]
        assert got == [(541, 3), (581, 3), (796, 3), (858, 4), (885, 3), (934, 3)]

    def test_known_runs_up_to_2000(self):
        got = [(r.start, r.length) for r in find_runs(1, 2000, 4)]
        assert got == [(858, 4), (1376, 5), (1702, 4), (1775, 4), (1857, 4)]

    def test_longest_known_run(self):
        runs = find_runs(1, 40000, 6)
        assert [(r.start, r.length) for r in runs] == [(30301, 6)]
        assert runs[0].popcounts == (15, 15, 15, 15, 15, 21)

    def test_no_long_runs_in_tiny_range(self):
        assert find_runs(1, 5, 2) == []

    def test_popcounts_recorded_per_member(self):
        (run,) = find_runs(858, 861, 4)
        assert run.popcounts == (15, 10, 10, 10)

    def test_matches_reference_enumeration(self, ref):
        got = [
            (r.start, r.length)
            for r in find_runs(1, 3000, 1)
            if not r.truncated_right
        ]
        assert got == ref.runs(1, 3000, 1)

    def test_maximality(self, ref):
        for run in find_runs(700, 2500, 1):
            for n in range(run.start, run.stop):
                assert ref.is_vt_index(n)
            if not run.truncated_left:
                assert run.start == 1 or not ref.is_vt_index(run.start - 1)
            if not run.truncated_right:
                assert not ref.is_vt_index(run.stop)

    def test_edge_truncation_flags(self):
        (run,) = scan(42, 43).runs_found
        assert run == Run(42, 2, (6, 6), truncated_left=True, truncated_right=True)
        (run,) = scan(580, 584).runs_found
        assert run == Run(581, 3, (10, 10, 10))
        # index 1 has no left neighbor, so a run starting there is complete
        first = scan(1, 30).runs_found[0]
        assert first.start == 1 and not first.truncated_left

    def test_runs_survive_chunk_boundaries(self):
        baseline = find_runs(1, 2000, 3)
        for size in (1, 2, 5, 64, 581, 1999):
            assert [
                (r.start, r.length)
                for r in scan(1, 2000, min_run_len=3, chunk_size=size).runs_found
                if r.length >= 3
            ] == [(r.start, r.length) for r in baseline]

    def test_min_len_filter(self):
        lengths = {r.length for r in find_runs(1, 2000, 2)}
        assert min(lengths) >= 2
        assert len(find_runs(1, 2000, 2)) > len(find_runs(1, 2000, 4))

    def test_rejects_bad_min_len(self):
        with pytest.raises(ParameterError):
            find_runs(1, 100, 0)

    @pytest.mark.parametrize("min_len", [2**63 - 1, 2**63 + 1, 2**64])
    def test_min_len_past_a_word(self, min_len):
        # no run is longer than the range searched, so none is that long
        assert find_runs(1, 3000, min_len) == []
        for chunk in (7, 1 << 20):
            got = scan(1, 3000, min_run_len=min_len, chunk_size=chunk)
            assert got == scan(1, 3000, min_run_len=10**6, chunk_size=chunk)


def _ref_mask_runs(bits):
    """(start, length) of each maximal block of Trues in a list of bools."""
    runs, start = [], None
    for i, b in enumerate(bits + [False]):
        if b and start is None:
            start = i
        elif not b and start is not None:
            runs.append((start, i - start))
            start = None
    return runs


def _expected_runs(ref, lo, hi, min_len):
    """The runs a scan of [lo, hi] reports, from the brute-force oracle."""
    runs = []
    for start, length in ref.runs(lo, hi, 1):
        left = start == lo and lo > 1
        right = start + length == hi + 1
        if length >= min_len or left or right:
            pcs = tuple(ref.popcount(ref.triangular(n)) for n in range(start, start + length))
            runs.append(Run(start, length, pcs, left, right))
    return tuple(runs)


def _expected_open_run(ref, lo, nxt):
    """(start, length) of the VT run ending at nxt - 1, within [lo, nxt - 1]."""
    runs = ref.runs(lo, nxt - 1, 1) if nxt > lo else []
    if runs and runs[-1][0] + runs[-1][1] == nxt:
        return runs[-1]
    return None


class TestRunTrackerOracle:
    @settings(deadline=None, max_examples=100)
    @given(
        pieces=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=300)),
            min_size=1,
            max_size=8,
        ),
        min_len=st.integers(min_value=1, max_value=70),
    )
    def test_mask_helpers_on_long_runs(self, pieces, min_len):
        # real VT runs are short; synthetic masks reach every window size
        bits = [b for value, count in pieces for b in [value] * count]
        mask = np.array(bits, dtype=bool)
        lead = next((i for i, b in enumerate(bits) if not b), len(bits))
        trail = next((i for i, b in enumerate(reversed(bits)) if not b), len(bits))
        assert _leading_true(mask) == lead
        assert _trailing_true(mask) == trail
        seg = np.concatenate([[False], mask, [False]])
        want = [
            (s + 1, s + 1 + n)
            for s, n in _ref_mask_runs(bits)
            if n >= min_len
        ]
        starts, stops = _long_runs(seg, min_len)
        assert list(zip(starts.tolist(), stops.tolist())) == want

    @pytest.mark.parametrize("stretch", [False, True], ids=["dense", "stretch"])
    @pytest.mark.parametrize("min_len", [1, 2, 6, 40])
    def test_long_runs_across_windows(self, min_len, stretch):
        # masks of several search windows, most of whose nominal ends fall
        # inside a run: a run of 45 across the first, and with `stretch` an
        # all-True stretch longer than a window across it instead
        mask = np.random.default_rng(min_len).random(4 * _LIMB_BLOCK + 777) < 0.85
        mask[_LIMB_BLOCK - 21], mask[_LIMB_BLOCK - 20 : _LIMB_BLOCK + 25] = False, True
        mask[_LIMB_BLOCK + 25] = False
        if stretch:
            mask[_LIMB_BLOCK // 2 : 2 * _LIMB_BLOCK] = True
        seg = np.concatenate([[False], mask, [False]])
        want = [(s + 1, s + 1 + n) for s, n in _ref_mask_runs(mask.tolist()) if n >= min_len]
        assert any(s <= _LIMB_BLOCK < e for s, e in want)
        starts, stops = _long_runs(seg, min_len)
        assert list(zip(starts.tolist(), stops.tolist())) == want

    @pytest.mark.parametrize("chunk", [7, 1000])
    @pytest.mark.parametrize("min_len", [1, 2])
    def test_runs_across_the_popcount_dtype_change(self, ref, min_len, chunk):
        # from n0, t_n has 256 bits, so its popcount may not fit a byte: the
        # chunk arrays a scan owns are replaced there by wider ones
        n0 = _first_index_reaching(2**255)
        assert (_classify(n0 - 1, n0 - 1).pcs.dtype, _classify(n0, n0).pcs.dtype) == (
            np.uint8, np.uint16
        )
        lo, hi = n0 - 1500, n0 + 1500
        want = _expected_runs(ref, lo, hi, min_len)
        assert scan(lo, hi, min_run_len=min_len, chunk_size=chunk).runs_found == want
        assert find_runs(lo, hi, min_len) == [r for r in want if r.length >= min_len]


    def test_feed_copies_no_chunk_popcounts(self):
        # a run open across the chunk boundary closes as a batch of its own,
        # from its recomputed popcounts: the chunk's popcounts are not copied
        # behind them, and its other runs are columns over chunk.pcs itself
        a = 2**31 + 12345
        chunk = _classify(a, a + 2**20 - 1)
        tracker = _RunTracker(a - 3, 6, open_run=(a - 3, 3))
        tracemalloc.start()
        try:
            closed = tracker.feed(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunk.pcs.nbytes // 4
        first, rest = closed
        length = 3 + _leading_true(chunk.vts)
        assert (first.lo, first.starts.tolist(), first.lengths.tolist()) == (a - 3, [0], [length])
        assert first.pcs.tolist() == [popcount_of_triangular(n) for n in range(a - 3, a - 3 + length)]
        assert first.flags.tolist() == [1]  # it starts at the reporting range's lo > 1
        assert rest.lo == a and rest.pcs is chunk.pcs and rest.lengths.min() >= 6

    @settings(deadline=None, max_examples=60)
    @given(
        lo=st.one_of(
            st.just(1),
            st.integers(min_value=2, max_value=5000),
            st.integers(min_value=30280, max_value=30310),  # the run of 6 at 30301
            st.integers(min_value=2**30 + 1850, max_value=2**30 + 1880),
        ),
        width=st.integers(min_value=0, max_value=400),
        min_len=st.integers(min_value=1, max_value=8),
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_runs_match_reference(self, ref, lo, width, min_len, chunk):
        hi = lo + width
        summary = scan(lo, hi, min_run_len=min_len, chunk_size=chunk)
        assert summary.runs_found == _expected_runs(ref, lo, hi, min_len)

    def test_window_straddling_tier_limit(self, ref):
        lo, hi = FAST_INDEX_LIMIT - 300, FAST_INDEX_LIMIT + 300
        for min_len, chunk in ((1, 1 << 20), (2, 37), (3, 5)):
            summary = scan(lo, hi, min_run_len=min_len, chunk_size=chunk)
            assert summary.runs_found == _expected_runs(ref, lo, hi, min_len)

    @pytest.mark.parametrize(
        "lo,hi,chunk",
        [(1, 400, 5), (30290, 30400, 5), (30290, 30400, 1), (2**30 + 1800, 2**30 + 1950, 5)],
    )
    @pytest.mark.parametrize("min_len", [1, 3])
    def test_resume_from_every_block(self, lo, hi, chunk, min_len):
        whole = scan(lo, hi, min_run_len=min_len)
        blocks = list(stream_scan(lo, hi, chunk_size=chunk))
        assert any(b.checkpoint.open_run is not None for b in blocks[:-1])
        for block in blocks:
            state = block.checkpoint
            resumed = resume_scan(state, min_run_len=min_len, chunk_size=7)
            # runs closed before the frontier belong to the interrupted part
            prefix = scan(lo, state.next - 1, min_run_len=min_len).runs_found
            closed = tuple(r for r in prefix if not r.truncated_right)
            assert dataclasses.replace(resumed, runs_found=closed + resumed.runs_found) == whole

    @pytest.mark.parametrize("lo,hi,chunk", [(1, 300, 6), (30290, 30400, 6), (30290, 30400, 1)])
    @pytest.mark.parametrize("min_run_len", [None, 4])
    def test_stream_open_run_matches_engine(self, ref, tmp_path, lo, hi, chunk, min_run_len):
        path = tmp_path / "cp.json"
        for block in stream_scan(lo, hi, chunk_size=chunk):
            state = block.checkpoint
            scan(lo, state.next - 1, min_run_len=min_run_len, chunk_size=25, checkpoint_path=path)
            engine = checkpoint_resume(path)
            assert engine.next == state.next
            assert engine.open_run == state.open_run
            assert state.open_run == _expected_open_run(ref, lo, state.next)


class TestTwins:
    def test_first_twin(self):
        got = find_twins(1, 10)
        assert [(r.start, r.length) for r in got] == [(6, 2)]

    def test_twin_at_42(self):
        (run,) = find_twins(40, 50)
        assert (run.start, run.length) == (42, 2)
        assert run.popcounts == (6, 6)

    def test_empty_window(self):
        assert find_twins(8, 18) == []


def _stream_lines(lo, hi, min_len):
    """The run kernel's bytes over the run stream of [lo, hi], as `vt runs` writes them."""
    return b"".join(piece for runs in _run_stream(lo, hi, min_len) for piece in _format_runs(runs))


def _column_lines(ref, runs):
    """The JSON oracle's lines for the runs in a _RunColumns."""
    return "".join(
        ref.run_line(runs.lo + s, runs.pcs[s : s + n].tolist(), bool(f & 1), bool(f & 2))
        for s, n, f in zip(runs.starts.tolist(), runs.lengths.tolist(), runs.flags.tolist())
    ).encode("ascii")


class TestRunStream:
    """The run columns and the kernel that formats them, against the JSON oracle."""

    @pytest.mark.parametrize(
        "lo,hi,chunk",
        [
            (1, 40000, 1 << 20),
            (2, 3000, 7),
            (1, 600, 1),
            (582, 1000, 3),  # a run of 3 cut to its last 2 on the left
            (1, 582, 5),  # ... and to its first 2 on the right
            (30302, 30305, 1 << 20),  # inside the run of 6: truncated on both sides
            (30296, 30310, 2),
            (6, 7, 1),
            (1, 7, 1 << 20),  # a run at index 1 is complete on the left
            (7, 7, 1),
            (2**32 - 600, 2**32 + 600, 7),
            (FAST_INDEX_LIMIT - 600, FAST_INDEX_LIMIT + 600, 7),
            (FAST_INDEX_LIMIT - 3000, FAST_INDEX_LIMIT + 3000, 1 << 20),
            (2**64 - 600, 2**64 + 600, 5),
            (2**128 - 300, 2**128 + 400, 11),  # popcounts widen from uint8 to uint16
            (2**66 - 5, 2**66 + 5, 1),  # twin_pair(66), rejoined across one-index chunks
            (2**1000 - 300, 2**1000 + 300, 7),  # 302-digit starts, 5-byte popcount items
        ],
    )
    @pytest.mark.parametrize("min_len", [1, 2, 6])
    def test_matches_the_json_oracle(self, ref, monkeypatch, lo, hi, chunk, min_len):
        monkeypatch.setattr(scanner, "DEFAULT_CHUNK", chunk)
        want = ref.run_lines(lo, hi, min_len)
        assert _stream_lines(lo, hi, min_len) == want
        got = [ref.run_line(r.start, r.popcounts, r.truncated_left, r.truncated_right)
               for r in find_runs(lo, hi, min_len)]
        assert "".join(got).encode("ascii") == want

    @pytest.mark.parametrize("min_len", [1, 2])
    def test_popcounts_of_100_and_more(self, ref, min_len):
        lo = 0xB7E151628AED2A6ABF7158809CF4F3C762E7160F  # 160 bits
        want = ref.run_lines(lo, lo + 1200, min_len)
        assert b'"popcounts":[153,153]' in want
        assert _stream_lines(lo, lo + 1200, min_len) == want

    @pytest.mark.parametrize(
        "lo,hi,chunk",
        [(1, 400, 5), (30290, 30400, 1), (30290, 30400, 4), (2**64 - 400, 2**64 + 400, 3)],
    )
    @pytest.mark.parametrize("min_len", [1, 2, 6])
    def test_run_rejoined_on_resume(self, ref, lo, hi, chunk, min_len):
        lines = ref.run_lines(lo, hi, min_len).splitlines(keepends=True)
        blocks = list(stream_scan(lo, hi, chunk_size=chunk))[:-1]
        states = [b.checkpoint for b in blocks if b.checkpoint.open_run is not None]
        assert states
        for state in states:
            # a batch may share the scan's chunk arrays: each is formatted
            # before the next chunk is classified
            got = [b"".join(_format_runs(runs.at_least(min_len)))
                   for _, closed, _ in _drive(state, min_len, chunk_size=chunk) for runs in closed]
            # the runs that close at or past the frontier, the one open there rejoined whole
            want = [line for line in lines
                    if sum(json.loads(line)[k] for k in ("start", "length")) >= state.next]
            assert b"".join(got) == b"".join(want)

    @settings(deadline=None, max_examples=80)
    @given(
        lo=st.one_of(
            st.integers(min_value=1, max_value=2**1100),
            st.integers(min_value=2, max_value=40).map(lambda k: 10**k - 50),
        ),
        runs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),  # gap before the run
                st.integers(min_value=1, max_value=12),  # length
                st.integers(min_value=0, max_value=3),  # truncation flags
            ),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_kernel_on_any_columns(self, ref, lo, runs, seed):
        # every length mix, start digit count, flag and popcount width (4 digits past 2^1000)
        gaps, lengths, flags = (np.array(c) for c in zip(*runs))
        starts = np.cumsum(gaps + np.append(0, lengths[:-1]))
        size = int(starts[-1] + lengths[-1])
        bits = triangular(lo + size - 1).bit_length()
        pcs = np.random.default_rng(seed).integers(0, bits + 1, size)
        columns = _RunColumns(lo, pcs, starts, lengths, flags.astype(np.uint8))
        assert b"".join(_format_runs(columns)) == _column_lines(ref, columns)

    def test_kernel_across_passes(self, ref):
        count = _RUN_PASS + 300
        lengths = np.tile([2, 3, 2, 1, 7], count // 5 + 1)[:count]
        starts = np.cumsum(np.append(0, lengths[:-1] + 1))
        lo = 10**9 - int(starts[_RUN_PASS + 100])  # a digit step in the second pass
        size = int(starts[-1] + lengths[-1])
        bits = triangular(lo + size - 1).bit_length()
        pcs = np.random.default_rng(7).integers(0, bits + 1, size)
        flags = np.zeros(count, np.uint8)
        flags[0], flags[-1] = 1, 2
        columns = _RunColumns(lo, pcs, starts, lengths, flags)
        pieces = list(_format_runs(columns))
        assert len(pieces) == 2
        assert b"".join(pieces) == _column_lines(ref, columns)


def test_digit_groups_are_the_percent_format():
    want = np.frombuffer(b"".join(b"%04d" % i for i in range(10**4)), dtype=np.uint32)
    assert _DIGIT_GROUPS.dtype == want.dtype
    assert _DIGIT_GROUPS.tobytes() == want.tobytes()


# digit counts 4k, where an item starts at its top group, and 4k + 1..3, where
# it starts past the group's padding zeros; steps small enough for each.  The
# 40 rising values cross 10^(4k), the largest such power below 10^digits, or,
# from base 5 with step 7, cross two digit counts, so that the pass turning
# leading zeros into NULs goes past its first column
_DIGIT_CASES = [
    (digits, step, max(0, 10 ** (4 * ((digits - 1) // 4)) - 20 * (step + 3)))
    for digits in (4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 21)
    for step in (0, 7, 123457)
    if 40 * (step + 3) < 10**digits
] + [(digits, 7, 5) for digits in (3, 4, 5, 9)]


@pytest.mark.parametrize("digits,step,base", _DIGIT_CASES)
def test_digits_are_the_zero_filled_values(digits, step, base):
    first = np.arange(0, 120, 3, dtype=np.uint32)
    got = scanner._digits(base, step, first, digits)
    want = [str(base + i * step + int(f)).rjust(digits, "\0") for i, f in enumerate(first)]
    assert got.dtype.itemsize == digits
    assert [item.decode("ascii") for item in got.tolist()] == want


def test_decimal_digits_around_powers_of_ten(no_int_digit_limit):
    for k in range(1, 701):
        for v in (10**k - 1, 10**k, 10**k + 1):
            assert scanner._decimal_digits(v) == len(str(v))


class TestMergeSummaries:
    def test_partition_reproduces_single_scan(self):
        whole = scan(1, 1500)
        a = scan(1, 700)
        b = scan(701, 1500)
        assert merge_summaries(a, b) == whole

    def test_split_inside_a_run(self):
        # 581..583 are consecutive VT indexes; cut between them
        whole = scan(1, 1000)
        for cut in (581, 582):
            merged = merge_summaries(scan(1, cut), scan(cut + 1, 1000))
            assert merged == whole

    def test_split_with_min_run_len(self):
        whole = scan(1, 1000, min_run_len=3)
        merged = merge_summaries(
            scan(1, 582, min_run_len=3),
            scan(583, 1000, min_run_len=3),
            min_run_len=3,
        )
        assert merged == whole

    def test_three_way_partition(self):
        whole = scan(1, 2000)
        merged = merge_summaries(
            merge_summaries(scan(1, 859), scan(860, 1703)), scan(1704, 2000)
        )
        assert merged == whole

    def test_rejects_non_adjacent(self):
        with pytest.raises(ParameterError):
            merge_summaries(scan(1, 100), scan(102, 200))
        with pytest.raises(ParameterError):
            merge_summaries(scan(1, 100), scan(100, 200))

    @settings(deadline=None, max_examples=20)
    @given(
        hi=st.integers(min_value=2, max_value=1200),
        frac=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_any_cut_point(self, hi, frac):
        cut = max(1, min(hi - 1, int(hi * frac)))
        assert merge_summaries(scan(1, cut), scan(cut + 1, hi)) == scan(1, hi)


class TestSigma:
    def test_first_seven(self):
        assert sigma_enumerate(7) == [1, 6, 7, 19, 21, 23, 27]

    def test_matches_reference(self, ref):
        want = ref.vt_indexes(1, 40000)[:500]
        assert sigma_enumerate(500) == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            sigma_enumerate(0)


class TestCountAndFlags:
    def test_count_matches_scan(self):
        assert count_vt(1, 21) == 5
        assert count_vt(500, 700) == scan(500, 700).vt_count

    def test_flags_shape_and_pattern(self):
        flags = vt_flags(30300, 30308)
        assert flags.dtype == np.bool_
        assert flags.tolist() == [False, True, True, True, True, True, True, False, True]

    def test_flags_match_reference(self, ref):
        flags = vt_flags(1, 2000)
        assert flags.tolist() == [ref.is_vt_index(n) for n in range(1, 2001)]


_HUGE = 10**4300 - 1  # as many digits as the default int <-> str limit allows


class TestCheckpointFile:
    def _state(self, **kw):
        base = dict(
            format_version=CHECKPOINT_VERSION, lo=1, hi=100, next=8, vt_count=3,
            open_run=(6, 2), current_t=28,
        )
        base.update(kw)
        return ScanCheckpoint(**base)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cp.json"
        state = self._state()
        checkpoint_save(state, path)
        assert checkpoint_resume(path) == state

    def test_round_trip_without_open_run(self, tmp_path):
        path = tmp_path / "cp.json"
        state = self._state(next=6, vt_count=2, open_run=None, current_t=15)
        checkpoint_save(state, path)
        assert checkpoint_resume(path) == state

    @pytest.mark.parametrize("fmt", ["csv", None])
    def test_round_trip_keeps_format(self, tmp_path, fmt):
        path = tmp_path / "cp.json"
        state = self._state(fmt=fmt)
        checkpoint_save(state, path)
        assert checkpoint_resume(path) == state

    def test_version_1_rejected(self, tmp_path):
        # version 1 files predate the fmt field
        path = tmp_path / "cp.json"
        path.write_text(
            '{"format_version": 1, "lo": 1, "hi": 100, "next": 8, '
            '"vt_count": 3, "open_run": [6, 2], "current_t": "28"}'
        )
        with pytest.raises(CheckpointVersionError):
            checkpoint_resume(path)

    @pytest.mark.parametrize("fmt", ['', '"fmt": "xml", ', '"fmt": 1, '])
    def test_missing_or_unknown_format(self, tmp_path, fmt):
        path = tmp_path / "cp.json"
        path.write_text(
            '{"format_version": 2, ' + fmt + '"lo": 1, "hi": 100, "next": 8, '
            '"vt_count": 3, "open_run": [6, 2], "current_t": "28"}'
        )
        with pytest.raises(CheckpointCorruptError):
            checkpoint_resume(path)

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "cp.json"
        checkpoint_save(self._state(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            checkpoint_save(self._state(), tmp_path / "cp.json")
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_big_current_t_survives_json(self, tmp_path):
        # t at 10^18 overflows a double; the string field must preserve it
        n = 10**18
        state = ScanCheckpoint(CHECKPOINT_VERSION, 1, n, n + 1, 7, None, n * (n + 1) // 2)
        path = tmp_path / "cp.json"
        checkpoint_save(state, path)
        assert checkpoint_resume(path).current_t == n * (n + 1) // 2

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this system")
    def test_endless_device_is_not_read(self):
        # read to its end, /dev/zero would fill memory
        with pytest.raises(CheckpointCorruptError, match="not a regular file"):
            checkpoint_resume("/dev/zero")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this system")
    def test_fifo_is_not_opened(self, tmp_path):
        # opened for reading, a FIFO with no writer blocks for ever
        path = tmp_path / "cp.json"
        os.mkfifo(path)
        with pytest.raises(CheckpointCorruptError, match="not a regular file"):
            checkpoint_resume(path)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text('{"format_version": 1, ')
        with pytest.raises(CheckpointCorruptError):
            checkpoint_resume(path)

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointCorruptError):
            checkpoint_resume(path)

    def test_missing_version(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text('{"lo": 1}')
        with pytest.raises(CheckpointCorruptError):
            checkpoint_resume(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "cp.json"
        checkpoint_save(self._state(format_version=99), path)
        with pytest.raises(CheckpointVersionError):
            checkpoint_resume(path)

    def test_resumed_scan_saves_the_current_version(self, tmp_path):
        path = tmp_path / "cp.json"
        resume_scan(self._state(format_version=99), checkpoint_path=path)
        assert checkpoint_resume(path).format_version == CHECKPOINT_VERSION

    def test_wrong_field_type(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(
            '{"format_version": 2, "fmt": "jsonl", "lo": 1, "hi": 100, "next": "8", '
            '"vt_count": 3, "open_run": null, "current_t": "28"}'
        )
        with pytest.raises(CheckpointCorruptError):
            checkpoint_resume(path)

    def test_bool_is_not_an_int(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(
            '{"format_version": 2, "fmt": "jsonl", "lo": true, "hi": 100, "next": 8, '
            '"vt_count": 3, "open_run": null, "current_t": "28"}'
        )
        with pytest.raises(CheckpointCorruptError):
            checkpoint_resume(path)

    @pytest.mark.parametrize(
        "open_run", [[6], [6, 2, 1], [6, True], [6.0, 2], "6,2", {"start": 6}]
    )
    def test_malformed_open_run(self, tmp_path, open_run):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({
            "format_version": 2, "fmt": "jsonl", "lo": 1, "hi": 100, "next": 8,
            "vt_count": 3, "open_run": open_run, "current_t": "28",
        }))
        with pytest.raises(CheckpointCorruptError, match="open_run"):
            checkpoint_resume(path)

    def test_malformed_current_t(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(
            '{"format_version": 2, "fmt": "jsonl", "lo": 1, "hi": 100, "next": 8, '
            '"vt_count": 3, "open_run": null, "current_t": "28x"}'
        )
        with pytest.raises(CheckpointCorruptError):
            checkpoint_resume(path)

    def test_current_t_past_the_int_digit_limit(self, tmp_path, default_int_digit_limit):
        path = tmp_path / "cp.json"
        path.write_text(
            '{"format_version": 2, "fmt": "jsonl", "lo": 1, "hi": 100, "next": 8, '
            f'"vt_count": 3, "open_run": null, "current_t": "{"1" * 5000}"}}'
        )
        with pytest.raises(CheckpointCorruptError, match="current_t"):
            checkpoint_resume(path)

    def test_frontier_outside_range(self, tmp_path):
        path = tmp_path / "cp.json"
        checkpoint_save(self._state(next=102, open_run=None, current_t=101 * 102 // 2), path)
        with pytest.raises(CheckpointStateError):
            checkpoint_resume(path)

    def test_vt_count_exceeds_scanned(self, tmp_path):
        path = tmp_path / "cp.json"
        checkpoint_save(self._state(vt_count=50, open_run=None), path)
        with pytest.raises(CheckpointStateError):
            checkpoint_resume(path)

    def test_open_run_not_at_frontier(self, tmp_path):
        path = tmp_path / "cp.json"
        checkpoint_save(self._state(open_run=(5, 2)), path)
        with pytest.raises(CheckpointStateError):
            checkpoint_resume(path)

    def test_accumulator_mismatch(self, tmp_path):
        path = tmp_path / "cp.json"
        checkpoint_save(self._state(current_t=29), path)
        with pytest.raises(CheckpointStateError):
            checkpoint_resume(path)

    def test_accumulator_mismatch_past_the_int_digit_limit(
        self, tmp_path, default_int_digit_limit
    ):
        # t_(next-1) has about 4400 digits: the message must not print it
        n = 10**2200
        path = tmp_path / "cp.json"
        checkpoint_save(ScanCheckpoint(CHECKPOINT_VERSION, 1, n, n, 0, None, 1), path)
        with pytest.raises(CheckpointStateError, match="current_t"):
            checkpoint_resume(path)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"lo": _HUGE, "hi": 5, "next": 5}, "is invalid"),
            ({"lo": 5, "hi": _HUGE, "next": 1}, "falls outside"),
            ({"vt_count": _HUGE}, "vt_count"),
            ({"open_run": [_HUGE, 2]}, "does not end at the frontier"),
            ({"hi": _HUGE, "next": _HUGE, "vt_count": 0, "open_run": [1, _HUGE - 1]},
             "exceeds vt_count"),
        ],
    )
    def test_long_fields_give_short_messages(
        self, tmp_path, default_int_digit_limit, fields, message
    ):
        # each field is 4300 digits long: readable under the default digit
        # limit, but too long to print (hi + 1 would pass the limit itself)
        payload = {
            "format_version": CHECKPOINT_VERSION, "fmt": "jsonl", "lo": 1, "hi": 100,
            "next": 8, "vt_count": 3, "open_run": None, "current_t": "28", **fields,
        }
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointStateError, match=message) as raised:
            checkpoint_resume(path)
        assert len(str(raised.value)) < 200


class TestResume:
    def test_scan_writes_checkpoint(self, tmp_path):
        path = tmp_path / "cp.json"
        scan(1, 50, chunk_size=7, checkpoint_path=path)
        state = checkpoint_resume(path)
        assert state.next == 51
        assert state.vt_count == 12

    def test_record_streams_concatenate(self):
        blocks = list(stream_scan(1, 200, chunk_size=17))
        mid = blocks[4].checkpoint
        early = []
        scan(1, mid.next - 1, early.append, chunk_size=17)
        late = []
        resume_scan(mid, late.append, chunk_size=31)
        whole = []
        scan(1, 200, whole.append)
        assert early + late == whole

    def test_summary_equals_one_shot_when_nothing_closed(self):
        # frontier right after index 1: no run has closed yet, so the
        # resumed summary matches the uninterrupted one exactly
        state = ScanCheckpoint(1, 1, 100, 2, 1, (1, 1), 1)
        assert resume_scan(state) == scan(1, 100)

    def test_straddling_run_is_rejoined(self):
        blocks = list(stream_scan(1, 50, chunk_size=7))
        state = blocks[0].checkpoint
        assert state.open_run == (6, 2)
        rejoined = [r for r in resume_scan(state).runs_found if r.start == 6]
        assert rejoined == [Run(6, 2, (3, 3))]

    def test_only_pre_frontier_runs_are_omitted(self):
        blocks = list(stream_scan(1, 50, chunk_size=7))
        state = blocks[0].checkpoint
        resumed = {(r.start, r.length) for r in resume_scan(state).runs_found}
        whole = {(r.start, r.length) for r in scan(1, 50).runs_found}
        assert whole - resumed == {(1, 1)}  # closed before the frontier

    def test_finished_checkpoint_yields_summary_only(self):
        state = ScanCheckpoint(1, 1, 21, 22, 5, None, 231)
        summary = resume_scan(state)
        assert summary.vt_count == 5
        assert summary.scanned == 21
        assert summary.runs_found == ()


class TestByteStreams:
    def test_jsonl_is_byte_exact(self):
        block = format_block(([6], [21], [3], [True]), "jsonl")
        assert block == b'{"n":6,"t":"21","pc":3,"vt":true}\n'

    def test_csv_is_byte_exact(self):
        block = format_block(([5], [15], [4], [False]), "csv")
        assert block == b"5,15,4,false\n"

    def test_rejects_unknown_format(self):
        with pytest.raises(ParameterError):
            format_block(([1], [1], [1], [True]), "tsv")
        with pytest.raises(ParameterError):
            list(stream_scan(1, 5, "xml"))

    def test_stream_jsonl_literal(self):
        got = b"".join(b.payload for b in stream_scan(1, 3))
        assert got == (
            b'{"n":1,"t":"1","pc":1,"vt":true}\n'
            b'{"n":2,"t":"3","pc":2,"vt":false}\n'
            b'{"n":3,"t":"6","pc":2,"vt":false}\n'
        )

    def test_stream_csv_literal(self):
        got = b"".join(b.payload for b in stream_scan(1, 5, "csv"))
        assert got == (
            b"n,t,pc,vt\n"
            b"1,1,1,true\n"
            b"2,3,2,false\n"
            b"3,6,2,false\n"
            b"4,10,2,false\n"
            b"5,15,4,false\n"
        )

    def test_jsonl_lines_parse_with_string_t(self):
        for block in stream_scan(1, 40, chunk_size=16):
            for line in block.payload.splitlines():
                row = json.loads(line)
                assert isinstance(row["n"], int)
                assert isinstance(row["t"], str)
                assert isinstance(row["pc"], int)
                assert isinstance(row["vt"], bool)
                assert int(row["t"]) == row["n"] * (row["n"] + 1) // 2

    def test_chunking_leaves_bytes_unchanged(self):
        baseline = b"".join(b.payload for b in stream_scan(1, 500))
        for size in (1, 3, 77, 499):
            got = b"".join(b.payload for b in stream_scan(1, 500, chunk_size=size))
            assert got == baseline

    def test_threads_leave_bytes_unchanged(self):
        baseline = b"".join(b.payload for b in stream_scan(1, 3000, chunk_size=128))
        for threads in (2, 4, 8):
            got = b"".join(
                b.payload
                for b in stream_scan(1, 3000, chunk_size=128, threads=threads)
            )
            assert got == baseline

    def test_block_checkpoints_advance_monotonically(self):
        last = 0
        for block in stream_scan(1, 100, chunk_size=9):
            state = block.checkpoint
            assert state.next > last
            assert state.current_t == (state.next - 1) * state.next // 2
            last = state.next
        assert last == 101

    def test_resume_requires_matching_range(self):
        blocks = list(stream_scan(1, 50, chunk_size=7))
        with pytest.raises(CheckpointStateError):
            list(stream_scan(1, 60, resume=blocks[0].checkpoint))

    def test_resume_requires_matching_format(self, tmp_path):
        blocks = list(stream_scan(1, 50, "csv", chunk_size=7))
        assert blocks[0].checkpoint.fmt == "csv"
        with pytest.raises(CheckpointStateError):
            list(stream_scan(1, 50, "jsonl", resume=blocks[0].checkpoint))
        # scan() feeds records to a callback: its checkpoints carry no format
        path = tmp_path / "cp.json"
        scan(1, 20, chunk_size=7, checkpoint_path=path)
        state = checkpoint_resume(path)
        assert state.fmt is None
        with pytest.raises(CheckpointStateError):
            list(stream_scan(1, 20, "jsonl", resume=state))

    def test_resumed_stream_completes_the_bytes(self):
        for fmt in ("jsonl", "csv"):
            full = b"".join(b.payload for b in stream_scan(1, 120, fmt))
            blocks = list(stream_scan(1, 120, fmt, chunk_size=13))
            for i in (0, 3, len(blocks) - 1):
                prefix = b"".join(b.payload for b in blocks[: i + 1])
                rest = b"".join(
                    b.payload
                    for b in stream_scan(
                        1, 120, fmt, chunk_size=29, resume=blocks[i].checkpoint
                    )
                )
                assert prefix + rest == full

    def test_csv_header_appears_exactly_once_across_resume(self):
        blocks = list(stream_scan(1, 60, "csv", chunk_size=11))
        rest = b"".join(
            b.payload
            for b in stream_scan(1, 60, "csv", resume=blocks[1].checkpoint)
        )
        combined = blocks[0].payload + blocks[1].payload + rest
        assert combined.count(b"n,t,pc,vt\n") == 1


# where n or t gains a decimal digit, the tier limits, and where t reaches 2^64
_DIGIT_EDGES = sorted(
    {10**k for k in range(1, 11)}
    | {math.isqrt(2 * 10**k) for k in range(1, 20)}
    | {FAST_INDEX_LIMIT + 1, _first_index_reaching(2**64), 2**64}
)
_window_lo = st.sampled_from(_DIGIT_EDGES).flatmap(
    lambda edge: st.integers(min_value=max(1, edge - 70), max_value=edge)
)
_words = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([0, 2**64 - 1, *(10**k + d for k in range(1, 20) for d in (-1, 0))]),
)


def _u64(values):
    return np.array(values, dtype=np.uint64)


def _u8(values):
    return np.array(values, dtype=np.uint8)


class TestWordFormatter:
    """The numpy formatter against the f-string path, byte for byte."""

    @settings(deadline=None, max_examples=200)
    @given(
        rows=st.lists(
            st.tuples(_words, _words, st.integers(min_value=0, max_value=99), st.booleans()),
            max_size=60,
        ),
        fmt=st.sampled_from(["jsonl", "csv"]),
    )
    def test_any_words_match_exact(self, rows, fmt):
        ns, ts, pcs, vts = (list(c) for c in zip(*rows)) if rows else ([], [], [], [])
        arrays = (
            np.array(ns, dtype=np.uint64),
            np.array(ts, dtype=np.uint64),
            np.array(pcs, dtype=np.uint8),
            np.array(vts, dtype=bool),
        )
        got = format_block(arrays, fmt)
        assert got == format_block((ns, ts, pcs, vts), fmt) == _format_exact(
            (ns, ts, pcs, vts), fmt
        )

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize(
        "columns,numpy_path",
        [
            # lists take the f-string path, whatever their values
            (([2**64 - 1], [2**64 - 1], [64], [False]), False),
            (([1, 2**64 - 1], [1, 2**64], [1, 1], [True, True]), False),
            (([2**64, 3], [1, 6], [1, 2], [True, False]), False),
            (([7], [28], [100], [False]), False),
            (([-1], [0], [0], [False]), False),
            (([], [], [], []), False),
            # uint64 n and t with unsigned pc below 100 take the f-string path
            ((_u64([2**64 - 1]), _u64([2**64 - 1]), _u8([64]), np.array([False])), False),
            ((_u64([1, 6]), _u64([1, 21]), _u8([1, 3]), [True, True]), False),
            ((_u64([]), _u64([]), _u8([]), np.array([], dtype=bool)), False),
            # any other type or popcount does not
            ((_u64([7]), _u64([28]), _u8([100]), np.array([False])), False),
            ((_u64([7]), _u64([28]), np.array([-200], dtype=np.int64), np.array([False])), False),
            ((np.array([7], dtype=np.int64), _u64([28]), _u8([3]), np.array([True])), False),
            ((_u64([7]), _u64([28]), [3], [True]), False),
        ],
    )
    def test_path_follows_the_column_types(self, columns, numpy_path, fmt):
        got = format_block(columns, fmt)
        assert isinstance(got, bytearray) == numpy_path
        assert got == _format_exact(columns, fmt)

    @settings(deadline=None, max_examples=150)
    @given(
        lo=_window_lo,
        width=st.integers(min_value=0, max_value=80),
        chunk=st.integers(min_value=1, max_value=64),
        threads=st.sampled_from([1, 2]),
        fmt=st.sampled_from(["jsonl", "csv"]),
    )
    def test_stream_matches_exact(self, ref, lo, width, chunk, threads, fmt):
        hi = lo + width
        header = _CSV_HEADER if fmt == "csv" else b""
        blocks = stream_scan(lo, hi, fmt, chunk_size=chunk, threads=threads)
        got = b"".join(b.payload for b in blocks)
        assert got == header + _format_exact(_ref_rows(ref, lo, hi), fmt)

    @settings(deadline=None, max_examples=60)
    @given(
        lo=_window_lo,
        width=st.integers(min_value=0, max_value=80),
        chunk=st.integers(min_value=1, max_value=64),
        cut=st.integers(min_value=0),
    )
    def test_csv_resume_matches_exact(self, ref, lo, width, chunk, cut):
        hi = lo + width
        blocks = list(stream_scan(lo, hi, "csv", chunk_size=chunk))
        i = cut % len(blocks)
        rest = stream_scan(lo, hi, "csv", chunk_size=chunk, resume=blocks[i].checkpoint)
        got = b"".join(b.payload for b in blocks[: i + 1]) + b"".join(b.payload for b in rest)
        assert got == _CSV_HEADER + _format_exact(_ref_rows(ref, lo, hi), "csv")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_chunk_across_kernel_passes(self, ref, fmt):
        # n reaches 10^9 inside the second pass of one chunk
        lo = 10**9 - _CELL_ROWS - 100
        hi = lo + 2 * _CELL_ROWS + 5
        got = b"".join(b.payload for b in stream_scan(lo, hi, fmt))
        assert got.removeprefix(_CSV_HEADER) == _format_exact(_ref_rows(ref, lo, hi), fmt)


def _kernel_bytes(lo, hi, fmt, chunk=1 << 20):
    """[lo, hi] through the chunk formatter, one format_block call per chunk."""
    pieces = [
        format_block(c.columns(0, c.vts.size), fmt)
        for c in itertools.starmap(_classify, _chunk_bounds(lo, hi, chunk))
    ]
    assert all(isinstance(p, bytearray) for p in pieces)  # the kernel ran
    return b"".join(pieces)


# where n gains a base-10^4 group; where t does, up to 10^40, and where it
# reaches 10^19 and 10^20; the tier limit and the word edges on both sides
_N_GROUP_EDGES = [10**k for k in (4, 8, 12, 16, 20)]
_T_GROUP_EDGES = [_first_index_reaching(10**k) for k in (*range(4, 41, 4), 19, 20)]
_TIER_EDGES = [2**32, FAST_INDEX_LIMIT, FAST_INDEX_LIMIT + 1, 2**64]


class TestChunkFormatter:
    """The chunk formatter at every tier against the f-string oracle, byte for byte."""

    @settings(deadline=None, max_examples=150)
    @given(
        bits=st.integers(min_value=1, max_value=320),
        seed=st.integers(min_value=0),
        width=st.integers(min_value=0, max_value=80),
        fmt=st.sampled_from(["jsonl", "csv"]),
    )
    def test_random_sizes_match_exact(self, ref, bits, seed, width, fmt):
        lo = 2 ** (bits - 1) + seed % 2 ** (bits - 1)  # exactly `bits` bits
        got = _kernel_bytes(lo, lo + width, fmt)
        assert got == _format_exact(_ref_rows(ref, lo, lo + width), fmt)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("edge", [*_N_GROUP_EDGES, *_T_GROUP_EDGES, *_TIER_EDGES])
    def test_windows_across_edges(self, ref, edge, fmt):
        lo, hi = max(1, edge - 40), edge + 40
        assert _kernel_bytes(lo, hi, fmt) == _format_exact(_ref_rows(ref, lo, hi), fmt)

    @pytest.mark.parametrize("edge", [10**8, 10**20, _first_index_reaching(10**40)])
    def test_edge_in_a_later_pass(self, ref, edge):
        # the step falls two rows into the second pass of one call
        lo, hi = edge - _CELL_ROWS - 2, edge + 2
        got = _kernel_bytes(lo, hi, "jsonl")
        assert got == _format_exact(_ref_rows(ref, lo, hi), "jsonl")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_popcounts_of_100_and_more(self, ref, fmt):
        lo = 0xB7E151628AED2A6ABF7158809CF4F3C762E7160F  # 160 bits
        hi = lo + 300
        rows = _ref_rows(ref, lo, hi)
        assert min(rows[2]) >= 100
        assert _kernel_bytes(lo, hi, fmt) == _format_exact(rows, fmt)

    @settings(deadline=None, max_examples=100)
    @given(
        lo=st.one_of(
            st.sampled_from([*_N_GROUP_EDGES, *_T_GROUP_EDGES, *_TIER_EDGES]).map(
                lambda edge: edge - 1
            ),
            st.integers(min_value=1, max_value=2**200),
        ),
        fmt=st.sampled_from(["jsonl", "csv"]),
    )
    def test_one_row_pieces(self, ref, lo, fmt):
        hi = lo + 2
        assert _kernel_bytes(lo, hi, fmt, chunk=1) == _format_exact(_ref_rows(ref, lo, hi), fmt)

    def test_csv_resumed_past_10_20(self, ref, tmp_path):
        lo, hi = 10**20 - 150, 10**20 + 150
        path = tmp_path / "cp.json"
        blocks = stream_scan(lo, hi, "csv", chunk_size=37)
        head = b""
        for block in blocks:
            head += block.payload
            if block.checkpoint.next > 10**20:
                checkpoint_save(block.checkpoint, path)
                break
        state = checkpoint_resume(path)
        assert lo < 10**20 < state.next <= hi
        tail = b"".join(b.payload for b in stream_scan(lo, hi, "csv", chunk_size=37, resume=state))
        assert head + tail == _CSV_HEADER + _format_exact(_ref_rows(ref, lo, hi), "csv")


def _stream_bytes(lo, hi, fmt, chunk=1 << 20):
    """The pieces of stream_scan over [lo, hi], joined."""
    blocks = stream_scan(lo, hi, fmt, chunk_size=chunk)
    return b"".join(piece for block in blocks for piece in block.pieces())


# a field of 4k + 1 digits starts past the 3 zeros that pad its top base-10^4
# group; these are where n reaches such a field (in csv right after the tail
# of the row before, or first in a cell) and where t does (right after mid)
_N_STRAY_EDGES = [10**k for k in (4, 8, 12, 16, 20)]
_T_STRAY_EDGES = [_first_index_reaching(10**k) for k in (4, 8, 12, 16, 20, 24, 40)]


class TestRowLayout:
    """The byte-exact rows at fields of 4k + 1 digits and at NUL padded tails, against the oracle."""

    @pytest.mark.parametrize("edge", _N_STRAY_EDGES)
    def test_csv_piece_starting_at_4k_plus_1_digit_n(self, ref, edge):
        # row 0 of the first piece is the first such n; the second piece
        # starts inside the run, and every cell cut falls on such an n
        lo, hi = edge, edge + _CELL_ROWS + 100
        got = _stream_bytes(lo, hi, "csv")
        assert got == _CSV_HEADER + _format_exact(_ref_rows(ref, lo, hi), "csv")

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
    @pytest.mark.parametrize("edge", [1, *_N_STRAY_EDGES])
    def test_csv_right_after_an_n_digit_step(self, ref, edge, chunk):
        lo, hi = max(1, edge - 30), edge + 30
        got = _stream_bytes(lo, hi, "csv", chunk)
        assert got == _CSV_HEADER + _format_exact(_ref_rows(ref, lo, hi), "csv")

    @pytest.mark.parametrize("chunk", [7, 1 << 20])
    @pytest.mark.parametrize("edge", _T_STRAY_EDGES)
    def test_jsonl_at_4k_plus_1_digit_t(self, ref, edge, chunk):
        # a piece starting at the first such t, and one crossing into it
        for lo, hi in ((edge, edge + 40), (edge - 40, edge + 40)):
            got = _stream_bytes(lo, hi, "jsonl", chunk)
            assert got == _format_exact(_ref_rows(ref, lo, hi), "jsonl")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("lo", [1, 2**40 - 20, 2**70 - 20, 2**200 - 20])
    def test_short_tails(self, ref, lo, fmt):
        # "true" and a 1-digit pc are the tails shorter than the cell:
        # their rows keep NUL padding until it is deleted
        hi = lo + 60
        rows = _ref_rows(ref, lo, hi)
        assert any(vt and pc < 10 for pc, vt in zip(rows[2], rows[3]))
        header = _CSV_HEADER if fmt == "csv" else b""
        for chunk in (1, 7, 1 << 20):
            assert _stream_bytes(lo, hi, fmt, chunk) == header + _format_exact(rows, fmt)


class TestLayoutBuffer:
    """Each thread lays pieces out in one buffer, reused while a piece needs
    its size: no byte of one piece may show in another."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize(
        "step", [10**4, 10**8, _first_index_reaching(10**9), _first_index_reaching(10**12)]
    )
    def test_equal_size_other_cells(self, ref, step, fmt):
        # where n or t gains a digit, one piece of 300 rows starts at the step
        # and the other 150 rows before it: both are laid out at the digit
        # counts past the step, so they share one buffer size
        at_step, before = (step, step + 299), (step - 150, step + 149)
        for first, second in ((at_step, before), (before, at_step)):
            assert _kernel_bytes(*first, fmt) == _format_exact(_ref_rows(ref, *first), fmt)
            buf = scanner._LAYOUT.buf
            assert _kernel_bytes(*second, fmt) == _format_exact(_ref_rows(ref, *second), fmt)
            assert scanner._LAYOUT.buf is buf

    def test_threads_format_at_once(self, ref):
        # both ranges' pieces need one buffer size: a buffer shared by the
        # threads would mix their rows
        ranges = [(lo, lo + 2 * _CELL_ROWS - 1) for lo in (2**31 + 1, 2**31 + 10**6)]
        wrong, raised = [], []

        def format_often(lo, hi):
            want = _format_exact(_ref_rows(ref, lo, hi), "jsonl")
            try:
                for _ in range(20):
                    if _stream_bytes(lo, hi, "jsonl") != want:
                        wrong.append((lo, hi))
            except Exception as exc:
                raised.append(exc)

        threads = [threading.Thread(target=format_often, args=r, daemon=True) for r in ranges]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the lock between the threads often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not raised and not wrong

    def test_a_taken_piece_is_kept(self, ref):
        lo, hi = 2**31 + 7, 2**31 + 3 * _CELL_ROWS + 6
        pieces = next(stream_scan(lo, hi)).pieces()
        first = next(pieces)
        kept = bytes(first)
        rest = b"".join(pieces)  # laid out in the buffer the first piece was
        assert first == kept
        assert first + rest == _format_exact(_ref_rows(ref, lo, hi), "jsonl")


# n gains a digit inside the one-word tier; t crosses 2^64 at the tier
# limit; n reaches 2^64 + 2 inside the limb tier
_PIECE_TIERS = [10**9 - 20_000, 6074001000 - 20_000, 2**64 + 2]
# chunks of about one piece, and of about four
_PIECE_CHUNKS = [
    1, 5,
    _CELL_ROWS - 1, _CELL_ROWS, _CELL_ROWS + 1,
    4 * _CELL_ROWS - 1, 4 * _CELL_ROWS, 4 * _CELL_ROWS + 1,
    1 << 20,
]


def _piece_range(tier_lo, chunk):
    """Two chunks and a short one, or four pieces and a few rows past them."""
    return tier_lo, tier_lo + min(2 * chunk, 4 * _CELL_ROWS + 3) + 2


@functools.lru_cache(maxsize=None)
def _whole_range_bytes(lo, hi, fmt):
    """The range formatted in one format_block call, from one classification."""
    header = _CSV_HEADER if fmt == "csv" else b""
    return header + bytes(format_block(_classify(lo, hi).rows(), fmt))


def _check_pieces(block):
    """The block's pieces join to format_block over its whole chunk, each <= _CELL_ROWS rows."""
    pieces = list(block.pieces())
    size = block.chunk.vts.size
    assert len(pieces) == -(-size // _CELL_ROWS)
    assert pieces[0].startswith(block.header)
    assert max(p.count(b"\n") for p in pieces) <= _CELL_ROWS + bool(block.header)
    whole = block.header + format_block(block.chunk.columns(0, size), block.checkpoint.fmt)
    assert b"".join(pieces) == whole
    return whole


class TestStreamPieces:
    """Blocks are formatted lazily, _CELL_ROWS rows per piece."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("chunk", _PIECE_CHUNKS)
    @pytest.mark.parametrize("tier_lo", _PIECE_TIERS)
    def test_pieces_join_to_the_whole_chunk(self, tier_lo, chunk, fmt, threads):
        lo, hi = _piece_range(tier_lo, chunk)
        blocks = stream_scan(lo, hi, fmt, chunk_size=chunk, threads=threads)
        got = b"".join(_check_pieces(block) for block in blocks)
        assert got == _whole_range_bytes(lo, hi, fmt)

    @pytest.mark.parametrize("chunk", _PIECE_CHUNKS)
    @pytest.mark.parametrize("tier_lo", _PIECE_TIERS)
    def test_csv_resume_suppresses_the_header(self, tier_lo, chunk):
        lo, hi = _piece_range(tier_lo, chunk)
        # the first block is cut short, so the resumed stream is never empty
        first = next(stream_scan(lo, hi, "csv", chunk_size=min(chunk, _CELL_ROWS // 2)))
        assert first.header == _CSV_HEADER
        rest = list(stream_scan(lo, hi, "csv", chunk_size=chunk, resume=first.checkpoint))
        assert rest and all(block.header == b"" for block in rest)
        got = _check_pieces(first) + b"".join(_check_pieces(block) for block in rest)
        assert got == _whole_range_bytes(lo, hi, "csv")

    def test_whole_chunk_piece_sizes(self):
        lo = 2**31
        block = next(stream_scan(lo, lo + (1 << 20) - 1, "csv"))
        rows = [p.count(b"\n") for p in block.pieces()]
        assert rows == [_CELL_ROWS + 1] + [_CELL_ROWS] * ((1 << 20) // _CELL_ROWS - 1)

    def test_equality_ignores_the_chunk(self):
        a = next(stream_scan(1, 100, chunk_size=10))
        b = dataclasses.replace(a, chunk=_classify(1, 1))
        assert a == b
        assert a != dataclasses.replace(a, header=_CSV_HEADER)


class TestSummaryEquality:
    def test_elapsed_is_informational(self):
        a = scan(1, 100)
        b = dataclasses.replace(a, elapsed=a.elapsed + 99.0)
        assert a == b
