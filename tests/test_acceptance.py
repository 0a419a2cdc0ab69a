"""Acceptance gate: the eleven headline guarantees of this package.

Each test prints one ``[criterion NN] PASS/FAIL`` line directly to the
terminal (bypassing capture, so the gate reads as a checklist under any
pytest invocation) and then asserts the same condition, so a FAIL line
always comes with a failing test.  Stated time budgets are part of the
check.

Run just this gate with:  pytest tests/test_acceptance.py
"""
import hashlib
import itertools
import time

import pytest

from vtnum import (
    bertrand_check,
    conjecture_no6,
    density_series,
    family_even,
    family_odd,
    family_power_minus,
    find_runs,
    find_twins,
    gap_window,
    periodicity_equal_popcount,
    periodicity_identity,
    popcount3_census,
    popcount_of_triangular,
    stream_scan,
    triangular,
    twin_pair,
    vt_flags,
)


@pytest.fixture
def _report(capsys):
    def report(num, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num:02d}] {status}: {detail}", flush=True)

    return report


def test_criterion_01_popcount3_census(_report):
    t0 = time.perf_counter()
    got = popcount3_census(5, 40)
    dt = time.perf_counter() - t0
    ok = got == [21, 28, 276, 1540] and dt < 1.0
    _report(1, ok, f"census(max_weight=5, max_bits=40) = {got} in {dt:.3f}s")
    assert got == [21, 28, 276, 1540]
    assert dt < 1.0


def test_criterion_02_interval_table(_report):
    expected = {
        4: [21, 28],
        5: [21, 28],
        6: [28],
        7: [],
        8: [],
        9: [],
        10: [190],
        19: [231, 276, 378, 435, 630],
    }
    t0 = time.perf_counter()
    got = {n: list(bertrand_check(n).witnesses) for n in expected}
    dt = time.perf_counter() - t0
    ok = got == expected and dt < 1.0
    _report(2, ok, f"interval witnesses for n in {sorted(expected)} in {dt:.3f}s")
    assert got == expected
    assert dt < 1.0


def test_criterion_03_runs(_report):
    t0 = time.perf_counter()
    # the length-3 and length-4 claims name runs whose popcounts are all
    # 10; shorter-prefix runs with mixed popcounts (541, 858) exist earlier
    all10_3 = [r for r in find_runs(1, 1000, 3) if set(r.popcounts) == {10}]
    all10_4 = [r for r in find_runs(1, 2000, 4) if set(r.popcounts) == {10}]
    six = find_runs(1, 40000, 6)
    dt = time.perf_counter() - t0
    ok = (
        bool(all10_3) and all10_3[0].start == 581
        and bool(all10_4) and all10_4[0].start == 1702
        and len(six) == 1 and six[0].start == 30301
        and dt < 5.0
    )
    _report(
        3,
        ok,
        "earliest all-popcount-10 runs: len>=3 at "
        f"{all10_3[0].start if all10_3 else None}, len>=4 at "
        f"{all10_4[0].start if all10_4 else None}; earliest len>=6 at "
        f"{six[0].start if six else None} in {dt:.3f}s",
    )
    assert all10_3 and all10_3[0].start == 581
    assert all(pc == 10 for pc in all10_3[0].popcounts)
    assert all10_4 and all10_4[0].start == 1702
    assert len(six) == 1 and six[0].start == 30301
    assert dt < 5.0


def test_criterion_04_six_consecutive_popcount_21(_report):
    t0 = time.perf_counter()
    base = 2**30 + 1873
    pcs = [popcount_of_triangular(base + i) for i in range(6)]
    dt = time.perf_counter() - t0
    ok = pcs == [21] * 6 and dt < 1.0
    _report(4, ok, f"popcounts at indexes {base}..{base + 5} = {pcs} in {dt:.3f}s")
    assert pcs == [21] * 6
    assert dt < 1.0


def test_criterion_05_twin_pairs(_report):
    t0 = time.perf_counter()
    twins = find_twins(40, 50)
    family_ok = True
    for k in (3, 6, 10, 15, 21, 28):
        w = twin_pair(k)
        family_ok &= w.matches and w.actual_popcounts == (k, k)
    dt = time.perf_counter() - t0
    detected = [(r.start, triangular(r.start), triangular(r.start + 1)) for r in twins]
    ok = (
        len(twins) == 1
        and detected[0] == (42, 903, 946)
        and family_ok
        and dt < 1.0
    )
    _report(5, ok, f"twin at {detected}; twin_pair grid verified in {dt:.3f}s")
    assert detected == [(42, 903, 946)]
    assert family_ok
    assert dt < 1.0


def test_criterion_06_family_grids(_report):
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for ell in (2, 4, 13, 17, 32):  # every ell with 2(ell+1) triangular <= 66
        for n in range(2 * ell, 65):
            w = family_even(ell, n)
            ok &= w.matches and w.actual_popcounts == (w.predicted_popcount,)
            checked += 1
    for k in (3, 6, 10, 15, 21, 28, 36, 45, 55, 66):  # triangular k <= 66
        for ell in range(k // 2 + 1):
            w = family_power_minus(k, ell)
            ok &= w.matches and w.actual_popcounts == (w.predicted_popcount,)
            checked += 1
    for ell in (7, 10, 22, 27):
        w = family_odd(ell)
        ok &= w.matches and w.actual_popcounts == (w.predicted_popcount,)
        checked += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    _report(6, ok, f"{checked} family witnesses, predicted == actual, in {dt:.3f}s")
    assert ok


def test_criterion_07_gap_windows(_report):
    t0 = time.perf_counter()
    ok = True
    details = []
    for k in (28, 36):
        report = gap_window(k)
        offsets_ok = all(
            pc == (k + 1 if m == 1 else k + 2)
            for m, pc in report.power_offset_popcounts
        )
        ok &= report.all_non_vt and offsets_ok and report.predictions_match
        details.append(f"k={k}: {len(report.member_popcounts)} non-VT members")
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _report(7, ok, f"{'; '.join(details)} in {dt:.3f}s")
    assert ok


def test_criterion_08_periodicity(_report):
    t0 = time.perf_counter()
    identity_ok = all(
        periodicity_identity(n, k) for n in range(1, 41) for k in range(0, 101)
    )
    equal_ok = True
    pairs = 0
    for n in range(6, 13):
        bound = 2 ** ((n - 1) // 2)
        for m in (n, n + 1, n + 2, n + 3):
            for k in range(bound):
                equal_ok &= periodicity_equal_popcount(n, m, k)
                pairs += 1
    dt = time.perf_counter() - t0
    ok = identity_ok and equal_ok and dt < 5.0
    _report(
        8,
        ok,
        f"identity on 40x101 grid, equal-popcount on {pairs} sampled pairs in {dt:.3f}s",
    )
    assert identity_ok
    assert equal_ok
    assert dt < 5.0


def test_criterion_09_weight6_sweep(_report):
    t0 = time.perf_counter()
    hits = conjecture_no6(6, 24)
    dt = time.perf_counter() - t0
    ok = hits == [] and dt < 60.0
    _report(9, ok, f"weight-6 sweep below 2^24: {len(hits)} counterexamples in {dt:.1f}s")
    assert hits == []
    assert dt < 60.0


def test_criterion_10_oracle_equivalence(_report):
    limit = 10**6
    flags = vt_flags(1, limit).tolist()

    # independent classifier: direct product, string bit count, additive
    # triangular table; no shared state with the scanner
    tri = set()
    t = 0
    i = 0
    while t <= limit:
        i += 1
        t += i
        tri.add(t)
    expected = [bin(n * (n + 1) // 2).count("1") in tri for n in range(1, limit + 1)]

    agree = flags == expected
    counts = list(itertools.accumulate(flags))
    monotone = all(b >= a for a, b in zip(counts, counts[1:]))
    series = density_series([10**3, 10**4, 10**5, 10**6])
    recorded = ", ".join(f"pi({p.N}) = {p.vt_count} ({p.ratio_decimal})" for p in series)
    ok = agree and monotone
    _report(10, ok, f"scanner == brute force on n <= 1e6; density recorded: {recorded}")
    assert agree
    assert monotone


def test_criterion_11_parallel_determinism(_report):
    def digest(threads):
        h = hashlib.sha256()
        for block in stream_scan(1, 10**6, "jsonl", threads=threads, chunk_size=2**16):
            h.update(block.payload)
        return h.hexdigest()

    # the stream's bytes, pinned: agreeing with each other is not enough
    expected = "69989d678cde8923f970357ffdc95bffa42b0c48f270d94f18cb22da81196a6f"
    d1, d4, d8 = digest(1), digest(4), digest(8)
    ok = d1 == d4 == d8 == expected
    _report(11, ok, f"sha256(jsonl over [1, 1e6]) = {d1[:16]}... at threads=1/4/8")
    assert d1 == d4 == d8
    assert d1 == expected
