"""Command line surface: verbs, formats, exit codes, determinism."""
import errno
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest

from vtnum import (
    CHECKPOINT_VERSION,
    FAST_INDEX_LIMIT,
    ScanCheckpoint,
    VtRecord,
    checkpoint_save,
    classify_index,
    format_block,
    stream_scan,
)
from vtnum import cli
from vtnum.cli import dispatch, emit, main


def run_cli(argv, capsysbinary):
    """Dispatch argv in-process; return (exit_code, stdout_bytes, stderr_text)."""
    code = dispatch(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err.decode()


def traced_main(monkeypatch, argv):
    """Run ``vt argv`` through main() into a sink that counts lines.

    Returns (exit_code, lines_written, peak_bytes_traced).
    """

    class CountingSink:
        lines = 0

        def write(self, data):
            self.lines += data.count(b"\n")
            return len(data)

        def flush(self):
            pass

    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(buffer=sink, flush=sink.flush))
    monkeypatch.setattr(sys, "argv", ["vt", *argv])
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exited:
            main()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return exited.value.code, sink.lines, peak


class TestEmitHelper:
    def test_jsonl_matches_scanner_bytes(self):
        records = [classify_index(n) for n in range(1, 6)]
        ours = b"".join(emit(records, "jsonl"))
        scanner_bytes = b"".join(b.payload for b in stream_scan(1, 5))
        assert ours == scanner_bytes

    def test_csv_matches_scanner_bytes(self):
        records = [classify_index(n) for n in range(1, 6)]
        ours = b"".join(emit(records, "csv"))
        scanner_bytes = b"".join(b.payload for b in stream_scan(1, 5, "csv"))
        assert ours == scanner_bytes

    def test_rejects_unknown_format(self):
        from vtnum import ParameterError

        with pytest.raises(ParameterError):
            emit([], "yaml")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_values_on_both_sides_of_2_64(self, fmt):
        # t_n reaches 2^64 at n = 6074001000
        records = [classify_index(n) for n in (3, 6074000999, 6074001000, 2**64, 10)]
        if fmt == "jsonl":
            lines = [
                f'{{"n":{r.n},"t":"{r.t}","pc":{r.popcount},"vt":{str(r.is_vt).lower()}}}\n'
                for r in records
            ]
        else:
            lines = ["n,t,pc,vt\n"] + [
                f"{r.n},{r.t},{r.popcount},{str(r.is_vt).lower()}\n" for r in records
            ]
        assert b"".join(emit(records, fmt)) == "".join(lines).encode("ascii")


class TestCheck:
    def test_single_index(self, capsysbinary):
        code, out, _ = run_cli(["check", "7"], capsysbinary)
        assert code == 0
        assert out == b'{"n":7,"t":"28","pc":3,"vt":true}\n'

    def test_multiple_indexes_csv(self, capsysbinary):
        code, out, _ = run_cli(["check", "1", "2", "--emit", "csv"], capsysbinary)
        assert code == 0
        assert out == b"n,t,pc,vt\n1,1,1,true\n2,3,2,false\n"

    def test_value_mode(self, capsysbinary):
        code, out, _ = run_cli(["check", "--value", "21"], capsysbinary)
        assert code == 0
        assert out == b'{"n":6,"t":"21","pc":3,"vt":true}\n'

    def test_value_mode_rejects_non_triangular(self, capsysbinary):
        code, out, err = run_cli(["check", "--value", "22"], capsysbinary)
        assert code == 1
        assert out == b""
        assert "not a triangular number" in err

    def test_bad_index_is_usage_error(self, capsysbinary):
        code, _, err = run_cli(["check", "0"], capsysbinary)
        assert code == 2
        assert "must be >= 1" in err

    def test_byte_parity_with_scan(self, capsysbinary):
        _, from_check, _ = run_cli(["check"] + [str(n) for n in range(1, 9)], capsysbinary)
        _, from_scan, _ = run_cli(["scan", "--from", "1", "--to", "8"], capsysbinary)
        assert from_check == from_scan


class TestScan:
    def test_jsonl_stream(self, capsysbinary):
        code, out, err = run_cli(["scan", "--from", "1", "--to", "3"], capsysbinary)
        assert code == 0
        assert out == (
            b'{"n":1,"t":"1","pc":1,"vt":true}\n'
            b'{"n":2,"t":"3","pc":2,"vt":false}\n'
            b'{"n":3,"t":"6","pc":2,"vt":false}\n'
        )
        assert "scanned [1, 3]: 1 very triangular" in err

    def test_csv_stream(self, capsysbinary):
        code, out, _ = run_cli(
            ["scan", "--from", "1", "--to", "2", "--emit", "csv"], capsysbinary
        )
        assert code == 0
        assert out == b"n,t,pc,vt\n1,1,1,true\n2,3,2,false\n"

    def test_requires_range(self, capsysbinary):
        code, _, _ = run_cli(["scan", "--from", "1"], capsysbinary)
        assert code == 2

    def test_rejects_inverted_range(self, capsysbinary):
        code, _, err = run_cli(["scan", "--from", "9", "--to", "2"], capsysbinary)
        assert code == 2
        assert "lo <= hi" in err

    def test_threads_flag_changes_nothing(self, capsysbinary):
        _, baseline, _ = run_cli(["scan", "--from", "1", "--to", "4000"], capsysbinary)
        for threads in ("2", "8"):
            _, out, _ = run_cli(
                ["scan", "--from", "1", "--to", "4000", "--threads", threads],
                capsysbinary,
            )
            assert out == baseline

    def test_env_default_threads(self, capsysbinary, monkeypatch):
        _, baseline, _ = run_cli(["scan", "--from", "1", "--to", "2000"], capsysbinary)
        monkeypatch.setenv("VT_THREADS", "4")
        _, out, _ = run_cli(["scan", "--from", "1", "--to", "2000"], capsysbinary)
        assert out == baseline

    def test_env_rejects_garbage(self, capsysbinary, monkeypatch):
        monkeypatch.setenv("VT_THREADS", "soon")
        code, _, err = run_cli(["scan", "--from", "1", "--to", "10"], capsysbinary)
        assert code == 2
        assert "VT_THREADS" in err

    @pytest.mark.parametrize("verb", ["scan", "runs", "twins"])
    @pytest.mark.parametrize(
        "flag,env", [("0", None), ("x", None), (None, "0"), (None, "soon")]
    )
    def test_bad_thread_values_are_one_line(self, capsysbinary, monkeypatch, verb, flag, env):
        argv = [verb, "--from", "1", "--to", "10"]
        if flag is not None:
            argv += ["--threads", flag]
        if env is not None:
            monkeypatch.setenv("VT_THREADS", env)
        code, out, err = run_cli(argv, capsysbinary)
        assert code == 2
        assert out == b""
        assert err.count("\n") == 1 and "threads" in err.lower()

    def test_env_ignored_by_non_scanning_verbs(self, capsysbinary, monkeypatch):
        monkeypatch.setenv("VT_THREADS", "soon")
        code, _, _ = run_cli(["check", "7"], capsysbinary)
        assert code == 0

    def test_peak_memory_is_a_chunk_not_its_bytes(self, monkeypatch):
        # 2^20 rows of 10-digit n: about 65 MB of jsonl, written a piece at a time
        lo = 2**31 + 12345
        code, lines, peak = traced_main(
            monkeypatch, ["scan", "--from", str(lo), "--to", str(lo + 2**20 - 1)]
        )
        assert code == 0
        assert lines == 2**20
        # the chunk's popcounts and verdicts (2 MB) and one piece being
        # formatted: about 12 MiB
        assert peak < 24 * 2**20

    def test_peak_memory_past_2_64(self, monkeypatch):
        # 2^18 rows of 20-digit n and 39-digit t, through the same kernel
        # as one-word chunks: about 11 MiB, where lists of Python ints and
        # one f-string per line took about 15
        lo = 2**64 + 12345
        code, lines, peak = traced_main(
            monkeypatch, ["scan", "--from", str(lo), "--to", str(lo + 2**18 - 1)]
        )
        assert code == 0
        assert lines == 2**18
        assert peak < 13 * 2**20

    def test_peak_memory_does_not_grow_with_threads(self, monkeypatch):
        # as if on 4 CPUs: a second thread must not hold more chunks in flight
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        lo = 2**31 + 12345
        argv = ["runs", "--min-len", "6", "--from", str(lo), "--to", str(lo + 2**22 - 1)]
        code, lines, peak = traced_main(monkeypatch, [*argv, "--threads", "2"])
        assert code == 0
        assert lines == 29
        # --threads 1 peaks at about 6 MiB
        assert peak < 28 * 2**20


class TestScanCheckpoint:
    def test_resume_completes_the_byte_stream(self, tmp_path, capsysbinary):
        _, full, _ = run_cli(["scan", "--from", "1", "--to", "400"], capsysbinary)
        blocks = list(stream_scan(1, 400, chunk_size=100))
        state = blocks[1].checkpoint  # frontier at 201
        path = tmp_path / "cp.json"
        checkpoint_save(state, path)
        code, rest, _ = run_cli(
            ["scan", "--from", "1", "--to", "400", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 0
        prefix = blocks[0].payload + blocks[1].payload
        assert prefix + rest == full

    def test_checkpoint_removed_on_completion(self, tmp_path, capsysbinary):
        path = tmp_path / "cp.json"
        code, _, _ = run_cli(
            ["scan", "--from", "1", "--to", "50", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 0
        assert not path.exists()

    def test_finished_checkpoint_emits_nothing(self, tmp_path, capsysbinary):
        state = ScanCheckpoint(CHECKPOINT_VERSION, 1, 21, 22, 5, None, 231)
        path = tmp_path / "cp.json"
        checkpoint_save(state, path)
        code, out, err = run_cli(
            ["scan", "--from", "1", "--to", "21", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 0
        assert out == b""
        assert "5 very triangular" in err
        assert not path.exists()

    def test_mismatched_range_fails_loud(self, tmp_path, capsysbinary):
        state = ScanCheckpoint(CHECKPOINT_VERSION, 1, 500, 101, 25, None, 100 * 101 // 2)
        path = tmp_path / "cp.json"
        checkpoint_save(state, path)
        code, out, err = run_cli(
            ["scan", "--from", "1", "--to", "400", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 2
        assert out == b""
        assert "checkpoint covers" in err
        assert path.exists()  # never deleted on failure

    def test_format_mismatch_fails_loud(self, tmp_path, capsysbinary):
        blocks = list(stream_scan(1, 400, "csv", chunk_size=100))
        path = tmp_path / "cp.json"
        checkpoint_save(blocks[1].checkpoint, path)
        code, out, err = run_cli(
            ["scan", "--from", "1", "--to", "400", "--emit", "jsonl",
             "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 2
        assert out == b""
        assert err.count("\n") == 1 and err.startswith("vt: ")
        assert "csv" in err
        assert path.exists()

    def test_version_1_checkpoint_fails_loud(self, tmp_path, capsysbinary):
        path = tmp_path / "cp.json"
        path.write_text(
            '{"format_version": 1, "lo": 1, "hi": 400, "next": 8, '
            '"vt_count": 3, "open_run": [6, 2], "current_t": "28"}'
        )
        code, out, err = run_cli(
            ["scan", "--from", "1", "--to", "400", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 2
        assert out == b""
        assert "format_version 1" in err

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unusable_checkpoint_path_fails_loud(self, tmp_path, capsysbinary, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "cp.json"
        code, _, err = run_cli(
            ["scan", "--from", "1", "--to", "5", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("vt: ")
        assert str(path) in err

    def test_empty_checkpoint_path_leaves_no_temp_file(
        self, tmp_path, monkeypatch, capsysbinary
    ):
        # the temp file of an empty path is ".tmp.<pid>" in the working directory
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            ["scan", "--from", "1", "--to", "10", "--checkpoint", ""], capsysbinary
        )
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("vt: cannot use checkpoint")
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_checkpoint_fails_loud(self, tmp_path, capsysbinary):
        path = tmp_path / "cp.json"
        path.write_text("{nope")
        code, _, err = run_cli(
            ["scan", "--from", "1", "--to", "400", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 2
        assert "not valid JSON" in err


class TestRunsAndTwins:
    def test_runs_json_lines(self, capsysbinary):
        code, out, _ = run_cli(
            ["runs", "--from", "1", "--to", "1000", "--min-len", "3"], capsysbinary
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(r["start"], r["length"]) for r in rows] == [
            (541, 3), (581, 3), (796, 3), (858, 4), (885, 3), (934, 3),
        ]
        assert rows[1]["popcounts"] == [10, 10, 10]
        assert rows[0]["truncated_left"] is False

    def test_twins_default_window(self, capsysbinary):
        code, out, _ = run_cli(["twins", "--from", "40", "--to", "50"], capsysbinary)
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert [(r["start"], r["length"]) for r in rows] == [(42, 2)]

    def test_empty_result_is_empty_output(self, capsysbinary):
        code, out, _ = run_cli(["twins", "--from", "8", "--to", "18"], capsysbinary)
        assert code == 0
        assert out == b""

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (1, 40000),
            (582, 1000),  # a run of 3 truncated on the left to 2
            (1, 582),  # ... and on the right
            (6, 7),
            (30302, 30305),
            (2**32 - 1500, 2**32 + 1500),
            (FAST_INDEX_LIMIT - 1500, FAST_INDEX_LIMIT + 1500),
            (2**64 - 1500, 2**64 + 1500),
        ],
    )
    @pytest.mark.parametrize("verb", ["runs 1", "runs 2", "runs 6", "runs", "twins"])
    def test_bytes_match_the_json_oracle(self, ref, capsysbinary, lo, hi, verb):
        name, *min_len = verb.split()
        argv = [name, "--from", str(lo), "--to", str(hi)]
        code, out, err = run_cli(argv + [f"--min-len={m}" for m in min_len], capsysbinary)
        assert (code, err) == (0, "")
        assert out == ref.run_lines(lo, hi, int(min_len[0]) if min_len else 2)

    def test_twins_peak_memory_does_not_grow_with_the_range(self, monkeypatch):
        # the runs are formatted and written chunk by chunk, never all held:
        # about 8 MiB at either length, where a list of every run took 20
        # and 33 MiB
        lo = 2**31 + 12345
        peaks = []
        for length, twins in ((2**22, 69707), (2**23, 136321)):
            argv = ["twins", "--from", str(lo), "--to", str(lo + length - 1)]
            code, lines, peak = traced_main(monkeypatch, argv)
            assert (code, lines) == (0, twins)
            peaks.append(peak)
        assert max(peaks) < 12 * 2**20
        assert abs(peaks[1] - peaks[0]) < 2**20


class TestSigma:
    def test_first_seven(self, capsysbinary):
        code, out, _ = run_cli(["sigma", "7"], capsysbinary)
        assert code == 0
        ns = [json.loads(line)["n"] for line in out.splitlines()]
        assert ns == [1, 6, 7, 19, 21, 23, 27]

    def test_rejects_zero(self, capsysbinary):
        code, _, _ = run_cli(["sigma", "0"], capsysbinary)
        assert code == 2


class TestFamily:
    def test_even_witness(self, capsysbinary):
        code, out, _ = run_cli(
            ["family", "even", "--ell", "2", "--n", "4"], capsysbinary
        )
        assert code == 0
        row = json.loads(out)
        assert row == {
            "family": "even",
            "params": {"ell": 2, "n": 4},
            "indices": ["19"],
            "values": ["190"],
            "predicted_popcount": 6,
            "actual_popcounts": [6],
            "expect_vt": True,
            "matches": True,
        }

    def test_power_exclusion_witness(self, capsysbinary):
        code, out, _ = run_cli(["family", "power-exclusion", "--k", "5"], capsysbinary)
        assert code == 0
        row = json.loads(out)
        assert row["expect_vt"] is False and row["matches"] is True
        assert row["predicted_popcount"] is None

    def test_big_values_are_strings(self, capsysbinary):
        code, out, _ = run_cli(["family", "odd", "--ell", "27"], capsysbinary)
        assert code == 0
        row = json.loads(out)
        assert isinstance(row["indices"][0], str)
        assert isinstance(row["values"][0], str)
        assert int(row["values"][0]) > 2**53  # would lose precision as a JSON number

    def test_missing_parameter(self, capsysbinary):
        code, _, err = run_cli(["family", "even", "--ell", "2"], capsysbinary)
        assert code == 2
        assert "requires --n" in err

    def test_extraneous_parameter(self, capsysbinary):
        code, _, err = run_cli(
            ["family", "block", "--k", "3", "--ell", "1"], capsysbinary
        )
        assert code == 2
        assert "does not take --ell" in err

    def test_unknown_family(self, capsysbinary):
        code, _, _ = run_cli(["family", "mystery", "--k", "3"], capsysbinary)
        assert code == 2

    def test_invalid_parameter_value(self, capsysbinary):
        code, _, err = run_cli(["family", "twin", "--k", "4"], capsysbinary)
        assert code == 2
        assert "triangular" in err


class TestDensity:
    def test_csv_output(self, capsysbinary):
        code, out, _ = run_cli(["density", "1", "21", "1000"], capsysbinary)
        assert code == 0
        assert out == (
            b"N,vt_count,ratio\n"
            b"1,1,1\n"
            b"21,5,0.2380952381\n"
            b"1000,221,0.221\n"
        )

    def test_rejects_descending(self, capsysbinary):
        code, _, _ = run_cli(["density", "50", "10"], capsysbinary)
        assert code == 2


class TestBertrand:
    def test_report_shape(self, capsysbinary):
        code, out, _ = run_cli(["bertrand", "--n", "19"], capsysbinary)
        assert code == 0
        row = json.loads(out)
        assert row["witnesses"] == ["231", "276", "378", "435", "630"]
        assert row["t_n"] == "190" and row["t_2n"] == "741"
        assert row["theorem_case"] == "iii"

    def test_empty_interval_is_reported_not_failed(self, capsysbinary):
        code, out, _ = run_cli(["bertrand", "--n", "8"], capsysbinary)
        assert code == 0
        row = json.loads(out)
        assert row["witnesses"] == []
        assert row["theorem_witness"] is None


class TestGaps:
    def test_window_by_k(self, capsysbinary):
        code, out, _ = run_cli(["gaps", "--k", "28"], capsysbinary)
        assert code == 0
        row = json.loads(out)
        assert row["window"] == ["268419072", "268419079"]
        assert row["member_popcounts"] == [29, 30, 30, 30, 32, 31, 31]
        assert row["all_non_vt"] is True
        assert row["power_offset_popcounts"] == {"1": 29, "2": 30, "4": 30}
        assert row["predictions_match"] is True

    def test_window_by_demonstration(self, capsysbinary):
        code, out, _ = run_cli(["gaps", "--demonstrate", "9"], capsysbinary)
        assert code == 0
        assert json.loads(out)["k"] == 36

    def test_requires_exactly_one_selector(self, capsysbinary):
        assert run_cli(["gaps"], capsysbinary)[0] == 2
        assert run_cli(["gaps", "--k", "28", "--demonstrate", "5"], capsysbinary)[0] == 2


class TestPeriodicity:
    def test_identity(self, capsysbinary):
        code, out, _ = run_cli(["periodicity", "--n", "6", "--k", "0"], capsysbinary)
        assert code == 0
        assert json.loads(out) == {"check": "identity", "n": 6, "k": 0, "holds": True}

    def test_equal_popcount(self, capsysbinary):
        code, out, _ = run_cli(
            ["periodicity", "--n", "30", "--k", "1870", "--m", "31"], capsysbinary
        )
        assert code == 0
        row = json.loads(out)
        assert row["check"] == "equal-popcount" and row["holds"] is True

    def test_out_of_domain(self, capsysbinary):
        code, _, _ = run_cli(
            ["periodicity", "--n", "5", "--k", "0", "--m", "6"], capsysbinary
        )
        assert code == 2


class TestConjectureAndCensus:
    def test_clean_sweep(self, capsysbinary):
        code, out, err = run_cli(
            ["conjecture", "--weight", "6", "--max-bits", "18"], capsysbinary
        )
        assert code == 0
        assert out == b""
        assert "swept 18564 indexes" in err
        assert "0 counterexamples" in err

    def test_census_records(self, capsysbinary):
        code, out, _ = run_cli(
            ["census", "--max-weight", "5", "--max-bits", "22"], capsysbinary
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["t"] for r in rows] == ["21", "28", "276", "1540"]
        assert all(r["pc"] == 3 and r["vt"] for r in rows)

    def test_census_at_128_bits_prints_the_22_bit_bytes(self, capsysbinary):
        _, want, _ = run_cli(["census", "--max-weight", "5", "--max-bits", "22"], capsysbinary)
        code, out, _ = run_cli(
            ["census", "--max-weight", "5", "--max-bits", "128"], capsysbinary
        )
        assert code == 0
        assert out == want

    def test_rejects_low_weight(self, capsysbinary):
        code, _, _ = run_cli(
            ["conjecture", "--weight", "5", "--max-bits", "18"], capsysbinary
        )
        assert code == 2


class _WriteFlushOnly:
    """A stdout whose buffer offers only write and flush, like a wrapped pipe."""

    def __init__(self):
        self.data = bytearray()
        self.buffer = self

    def write(self, data):
        self.data += data
        return len(data)

    def flush(self):
        pass


class TestStdoutInterface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["runs", "--from", "1", "--to", "1000", "--min-len", "3"],
            ["twins", "--from", "40", "--to", "50"],
            ["ap", "--length", "3", "--from", "1", "--to", "1000", "--max-diff", "1"],
            ["census", "--max-weight", "5", "--max-bits", "22"],
            ["scan", "--from", "1", "--to", "100"],
            ["family", "even", "--ell", "2", "--n", "4"],
            ["bertrand", "--n", "19"],
            ["density", "1", "21", "1000"],
            ["check", "1", "2"],
        ],
    )
    def test_verbs_need_only_write_and_flush(self, argv, capsysbinary, monkeypatch):
        _, want, _ = run_cli(argv, capsysbinary)
        out = _WriteFlushOnly()
        monkeypatch.setattr(sys, "stdout", out)
        assert dispatch(list(argv)) == 0
        assert bytes(out.data) == want


class _FlushedOnly(_WriteFlushOnly):
    """A stdout whose bytes count as out only once flushed, as with a buffered pipe."""

    def __init__(self):
        super().__init__()
        self.pending = bytearray()

    def write(self, data):
        self.pending += data
        return len(data)

    def flush(self):
        self.data += self.pending
        self.pending.clear()


class _FailingWrites(_WriteFlushOnly):
    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, data):
        raise self.error


def _in_thread(fn, timeout=10):
    """fn() on a daemon thread: (finished in time, exception raised or None)."""
    raised = []

    def run():
        try:
            fn()
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive(), raised[0] if raised else None


class TestOutputThread:
    """cli._Stdout: pieces written in order by one helper thread, errors raised by the caller."""

    def test_pieces_arrive_in_order_and_sync_waits_for_them(self, monkeypatch):
        out = _FlushedOnly()
        monkeypatch.setattr(sys, "stdout", out)
        sent = bytearray()

        def stream():
            with cli._Stdout() as stdout:
                for k in range(3000):
                    piece = b"%d\n" % k
                    stdout.write(piece)
                    sent.extend(piece)
                    if k % 7 == 0:
                        stdout.sync()
                        assert out.data == sent and not out.pending

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the lock between the threads often
        try:
            finished, raised = _in_thread(stream, timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert finished and raised is None
        assert out.data == sent and not out.pending

    def test_the_caller_is_at_most_one_piece_ahead(self, monkeypatch):
        # a hand-off returns once the piece before it is written, so a
        # slow reader leaves the caller holding as many pieces as it
        # would writing each itself: the thread's and the one it made
        class Slow(_WriteFlushOnly):
            def write(self, data):
                time.sleep(0.002)
                return super().write(data)

        out = Slow()
        monkeypatch.setattr(sys, "stdout", out)
        ahead = []

        def pieces():
            for k in range(40):
                ahead.append(k - out.data.count(b"\n"))  # made and not yet written
                yield b"%d\n" % k

        cli._write(pieces())
        assert max(ahead) == 1
        assert bytes(out.data) == b"".join(b"%d\n" % k for k in range(40))

    @pytest.mark.parametrize(
        "error,raised,message",
        [
            (OSError(errno.ENOSPC, "No space left on device"), cli._OutputError,
             "cannot write output: No space left on device"),
            (BrokenPipeError(errno.EPIPE, "Broken pipe"), BrokenPipeError, None),
            (ValueError("not bytes"), ValueError, "not bytes"),
        ],
    )
    @pytest.mark.parametrize("pieces", [1, 100])
    def test_a_failed_write_reaches_the_caller(self, monkeypatch, error, raised, message, pieces):
        # the thread keeps taking pieces after the failure, so the caller
        # never waits for ever on a hand-off: its next write or sync raises
        monkeypatch.setattr(sys, "stdout", _FailingWrites(error))
        finished, exc = _in_thread(lambda: cli._write(b"piece" for _ in range(pieces)))
        assert finished
        assert isinstance(exc, raised)
        if message is not None:
            assert str(exc) == message

    def test_an_exception_in_the_block_leaves_at_once(self, monkeypatch):
        # the thread is blocked in a write no reader drains: leaving the
        # block by an exception must not wait for it
        release = threading.Event()

        class Stuck(_WriteFlushOnly):
            def write(self, data):
                if data != b"first":  # written on the calling thread
                    release.wait(30)
                return len(data)

        monkeypatch.setattr(sys, "stdout", Stuck())

        def interrupted():
            with cli._Stdout() as stdout:
                stdout.write(b"first")
                stdout.write(b"second")  # the thread takes it and blocks
                raise LookupError

        try:
            finished, exc = _in_thread(interrupted)
        finally:
            release.set()
        assert finished and isinstance(exc, LookupError)


    @pytest.mark.parametrize(
        "argv,threads",
        [
            (["check", "7"], 0),
            (["family", "even", "--ell", "2", "--n", "4"], 0),
            (["scan", "--from", "1", "--to", str(2**15)], 0),  # one piece
            (["scan", "--from", "1", "--to", str(2**15 + 1)], 1),  # two
        ],
    )
    def test_a_thread_only_for_a_second_piece(self, argv, threads, capsysbinary, monkeypatch):
        # the first piece is written on the calling thread: a verb that
        # writes one piece has nothing to overlap and starts no thread
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        assert dispatch(list(argv)) == 0
        assert started.count("vt-stdout") == threads


def _line_offset(data, lines):
    """The length of the first `lines` lines of data."""
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    return int(ends[lines - 1]) + 1 if lines else 0


class TestCheckpointBarrier:
    """A checkpoint is saved only after every byte below its frontier is written and flushed."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_saves_follow_their_bytes(self, ref, tmp_path, monkeypatch, fmt):
        hi = 2**20 + 5000  # two blocks, two saves
        path = tmp_path / "cp.json"
        argv = ["scan", "--from", "1", "--to", str(hi), "--emit", fmt, "--checkpoint", str(path)]
        full = ref.record_lines(1, hi, fmt)
        header = int(fmt == "csv")

        def expected(nxt):  # the oracle bytes of the rows below nxt
            return full[: _line_offset(full, header + nxt - 1)]

        snapshots = []

        def snapshot_then_save(state, destination):
            snapshots.append((state.next, bytes(out.data), bytes(out.pending)))
            checkpoint_save(state, destination)

        monkeypatch.setattr(cli, "checkpoint_save", snapshot_then_save)
        out = _FlushedOnly()
        monkeypatch.setattr(sys, "stdout", out)
        assert dispatch(argv) == 0
        assert [nxt for nxt, _, _ in snapshots] == [2**20 + 1, hi + 1]
        for nxt, written, pending in snapshots:
            assert pending == b""
            assert written == expected(nxt)
        assert bytes(out.data) == full

        class Crash(Exception):
            pass

        def save_then_crash(state, destination):
            checkpoint_save(state, destination)
            raise Crash

        monkeypatch.setattr(cli, "checkpoint_save", save_then_crash)
        out = _FlushedOnly()
        monkeypatch.setattr(sys, "stdout", out)
        with pytest.raises(Crash):
            dispatch(argv)
        interrupted = bytes(out.data)
        assert interrupted == expected(2**20 + 1)

        monkeypatch.setattr(cli, "checkpoint_save", checkpoint_save)
        out = _FlushedOnly()
        monkeypatch.setattr(sys, "stdout", out)
        assert dispatch(argv) == 0
        assert interrupted + bytes(out.data) == full
        assert not path.exists()


class TestApVerb:
    def test_hits(self, capsysbinary):
        code, out, _ = run_cli(
            ["ap", "--length", "3", "--from", "1", "--to", "1000", "--max-diff", "1"],
            capsysbinary,
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["first"] for r in rows] == [541, 581, 796, 858, 859, 885, 934]
        assert all(r["difference"] == 1 and r["length"] == 3 for r in rows)

    def test_empty(self, capsysbinary):
        code, out, _ = run_cli(
            ["ap", "--length", "3", "--from", "1", "--to", "10", "--max-diff", "10"],
            capsysbinary,
        )
        assert code == 0
        assert out == b""


class TestTopLevel:
    def test_version(self, capsysbinary):
        from vtnum import __version__

        code, out, _ = run_cli(["--version"], capsysbinary)
        assert code == 0
        assert out.decode().strip() == f"vt {__version__}"

    def test_no_verb_is_usage_error(self, capsysbinary):
        assert run_cli([], capsysbinary)[0] == 2

    def test_unknown_verb_is_usage_error(self, capsysbinary):
        assert run_cli(["frobnicate"], capsysbinary)[0] == 2

    def test_help_exits_zero(self, capsysbinary):
        assert run_cli(["--help"], capsysbinary)[0] == 0
        assert run_cli(["scan", "--help"], capsysbinary)[0] == 0

    def test_main_restores_the_int_digit_limit(self, monkeypatch):
        # t_n has about 4400 digits: main() lifts the limit to print it,
        # then puts back the one it found
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int <-> str digit limit")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, lines, _ = traced_main(monkeypatch, ["check", str(10**2200)])
            assert (code, lines) == (0, 1)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)


def _vt_process(argv, buffered, **streams):
    """`vt argv` as a child with piped stdout and stderr, its stdout buffered or not."""
    env = dict(os.environ)
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.Popen([sys.executable, "-m", "vtnum", *argv], env=env, **streams)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
class TestWriteErrors:
    """stdout refusing bytes (ENOSPC on /dev/full): one stderr line, exit 1, no checkpoint."""

    def _run_into_full(self, argv, buffered):
        with open("/dev/full", "wb") as full:
            proc = _vt_process(argv, buffered, stdout=full)
            try:
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
                proc.wait()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        return code, err

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--from", "1", "--to", "3000000"],
            ["scan", "--emit", "csv", "--from", "1", "--to", "3"],
            ["runs", "--min-len", "1", "--from", "1", "--to", "3000000"],
            ["twins", "--from", "1", "--to", "3000000"],
            ["check", "7"],
        ],
    )
    def test_one_line_and_exit_1(self, argv, buffered):
        code, err = self._run_into_full(argv, buffered)
        assert code == 1
        assert err == f"vt: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    def test_text_meets_the_full_device_at_the_last_flush(self):
        # argparse prints --version as text; a buffered stdout refuses it
        # only when main flushes (unbuffered, argparse drops the error)
        code, err = self._run_into_full(["--version"], buffered=True)
        assert code == 1
        assert err == f"vt: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("buffered", [True, False])
    def test_no_checkpoint_for_bytes_not_written(self, tmp_path, buffered):
        path = tmp_path / "cp.json"
        argv = ["scan", "--from", "1", "--to", "3000000", "--checkpoint", str(path)]
        code, err = self._run_into_full(argv, buffered)
        assert (code, err.count("\n")) == (1, 1)
        assert not path.exists()
        # resumed from the first block's checkpoint: the second block fails,
        # so the saved checkpoint must still point at its start
        checkpoint_save(next(iter(stream_scan(1, 3000000))).checkpoint, path)
        saved = path.read_bytes()
        code, err = self._run_into_full(argv, buffered)
        assert (code, err.count("\n")) == (1, 1)
        assert path.read_bytes() == saved


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


class TestSubprocessSurface:
    """End-to-end checks that need a real process boundary."""

    @pytest.mark.parametrize("verb", ["check", "scan"])
    def test_values_past_the_int_digit_limit(self, verb, no_int_digit_limit):
        # t_n has about 4400 digits, past the interpreter's default of 4300
        n = 10**2200
        argv = ["check", str(n)] if verb == "check" else ["scan", "--from", str(n), "--to", str(n)]
        proc = subprocess.run(
            [sys.executable, "-m", "vtnum", *argv], capture_output=True, timeout=60
        )
        assert proc.returncode == 0
        rec = classify_index(n)
        rows = ([rec.n], [rec.t], [rec.popcount], [rec.is_vt])
        assert proc.stdout == format_block(rows, "jsonl")

    def test_checkpoint_past_the_int_digit_limit(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(
            '{"format_version": 2, "fmt": "jsonl", "lo": 1, "hi": 400, "next": 8, '
            f'"vt_count": 3, "open_run": null, "current_t": "{"1" * 5000}"}}'
        )
        proc = subprocess.run(
            [sys.executable, "-m", "vtnum", "scan", "--from", "1", "--to", "400",
             "--checkpoint", str(path)],
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        err = proc.stderr.decode()
        assert err.count("\n") == 1 and err.startswith("vt: ")
        assert path.exists()

    def test_mismatched_current_t_is_one_short_line(self, tmp_path):
        # t_(next-1) has about 4400 digits: the message must not print it
        n = 10**2200
        path = tmp_path / "cp.json"
        checkpoint_save(ScanCheckpoint(CHECKPOINT_VERSION, 1, n, n, 0, None, 1), path)
        proc = subprocess.run(
            [sys.executable, "-m", "vtnum", "scan", "--from", "1", "--to", str(n),
             "--checkpoint", str(path)],
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        err = proc.stderr.decode()
        assert err.count("\n") == 1 and err.startswith("vt: ")
        assert "current_t" in err and len(err) < 300

    def test_long_checkpoint_field_is_one_short_line(self, tmp_path):
        # hi has 4300 digits, so a message printing hi + 1 would pass the
        # default digit limit and run to thousands of characters
        hi = "9" * 4300
        path = tmp_path / "cp.json"
        path.write_text(
            f'{{"format_version": 2, "fmt": "jsonl", "lo": 5, "hi": {hi}, "next": 1, '
            '"vt_count": 0, "open_run": null, "current_t": "0"}'
        )
        proc = subprocess.run(
            [sys.executable, "-m", "vtnum", "scan", "--from", "5", "--to", hi,
             "--checkpoint", str(path)],
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        err = proc.stderr.decode()
        assert err.count("\n") == 1 and err.startswith("vt: ")
        assert "falls outside" in err and len(err) < 300

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vtnum", "check", "7"],
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == b'{"n":7,"t":"28","pc":3,"vt":true}\n'

    def test_broken_pipe_is_success(self):
        script = (
            f"{sys.executable} -m vtnum scan --from 1 --to 2000000 2>/dev/null"
            " | head -2 >/dev/null; exit ${PIPESTATUS[0]}"
        )
        proc = subprocess.run(["bash", "-c", script], timeout=120)
        assert proc.returncode == 0

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--from", str(2**31), "--to", str(2**31 + 2**21 - 1)],
            ["twins", "--from", str(2**31 + 12345), "--to", str(2**31 + 12345 + 25_000_000 - 1)],
        ],
    )
    def test_reader_closing_early_is_success(self, argv, buffered):
        proc = _vt_process(argv, buffered)
        head = proc.stdout.read(100)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
        proc.stderr.close()
        assert len(head) == 100
        assert (code, err) == (0, b"")

    @pytest.mark.parametrize("buffered", [True, False])
    def test_interrupt_while_the_writer_is_blocked(self, buffered):
        # nobody reads the pipe: the writer thread blocks in write holding
        # stdout, and the interpreter's exit flush must not wait on it
        proc = _vt_process(["scan", "--from", "1", "--to", str(2**21)], buffered)
        try:
            assert os.read(proc.stdout.fileno(), 1)  # writing has begun
            time.sleep(0.5)  # the pipe fills
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=5)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert code == 130
        assert b"Fatal Python error" not in err and b"Traceback" not in err

    @pytest.mark.parametrize("buffered", [True, False])
    def test_runs_are_out_while_the_search_goes_on(self, buffered, capsysbinary):
        # every piece is flushed once written, so the first chunk's runs
        # reach the reader while the search goes on and an interrupt loses
        # none of them; past 2^64 a run of 8 or more comes about once in 5e7
        # indexes, so a buffered stdout left unflushed would hold it for minutes
        first = 2**64 + 10436792  # a run of 9
        lo = first - 48
        _, want, _ = run_cli(
            ["runs", "--min-len", "8", "--from", str(lo), "--to", str(first + 9)], capsysbinary
        )
        proc = _vt_process(["runs", "--min-len", "8", "--from", str(lo), "--to", str(2**65)],
                           buffered)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], 30)
            assert readable, "no run reached stdout while the search went on"
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=5)
            out = proc.stdout.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert code == 130
        assert b"Traceback" not in err
        assert want and out.startswith(want) and out.endswith(b"\n")

    def test_identical_argv_identical_bytes(self):
        argv = [sys.executable, "-m", "vtnum", "scan", "--from", "1", "--to", "5000"]
        first = subprocess.run(argv, capture_output=True, timeout=60)
        second = subprocess.run(argv, capture_output=True, timeout=60)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_emit_and_classify_round_trip():
    rec = classify_index(6)
    assert rec == VtRecord(6, 21, 3, True)
    line = b"".join(emit([rec]))
    assert json.loads(line) == {"n": 6, "t": "21", "pc": 3, "vt": True}
