"""Command line surface: verbs, formats, exit codes, determinism."""
import argparse
import dataclasses
import errno
import importlib
import io
import json
import os
import runpy
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

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
from vtnum import analysis, cli, families, scanner
from vtnum.analysis import bertrand_check, gap_window
from vtnum.families import family_odd
from vtnum.cli import dispatch, emit, main
from vtnum.scanner import _CELL_ROWS


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
    # main() sets OPENBLAS_NUM_THREADS when it is unset: set it to what
    # main() would, so that monkeypatch restores the environment afterwards
    # and no later subprocess test inherits the value
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
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

    @pytest.mark.parametrize("verb", ["scan", "runs", "twins"])
    @pytest.mark.parametrize("value", ["0", "1", "2", "x"])
    def test_threads_flag_is_a_usage_error(self, capsysbinary, verb, value):
        argv = [verb, "--from", "1", "--to", "10", "--threads", value]
        code, out, err = run_cli(argv, capsysbinary)
        assert code == 2
        assert out == b""
        assert err.count("\n") == 1 and "--threads" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--from", "1", "--to", "2000"],
            ["runs", "--from", "1", "--to", "2000", "--min-len", "1"],
            ["twins", "--from", "1", "--to", "2000"],
            ["check", "7"],
        ],
    )
    @pytest.mark.parametrize("value", ["4", "0", "soon"])
    def test_vt_threads_is_ignored(self, capsysbinary, monkeypatch, argv, value):
        monkeypatch.delenv("VT_THREADS", raising=False)
        unset = run_cli(argv, capsysbinary)
        monkeypatch.setenv("VT_THREADS", value)
        assert run_cli(argv, capsysbinary) == unset
        assert unset[0] == 0

    def test_twins_takes_no_min_len(self, capsysbinary):
        argv = ["twins", "--from", "1", "--to", "10", "--min-len", "3"]
        code, out, err = run_cli(argv, capsysbinary)
        assert code == 2
        assert out == b""
        assert err.count("\n") == 1 and "--min-len" in err

    def test_range_verb_options(self):
        verbs = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        options = {
            verb: [
                option
                for action in verbs[verb]._actions
                if not isinstance(action, argparse._HelpAction)
                for option in action.option_strings
            ]
            for verb in ("scan", "runs", "twins")
        }
        assert options == {
            "scan": ["--from", "--to", "--emit", "--checkpoint", "--stats"],
            "runs": ["--from", "--to", "--min-len", "--stats"],
            "twins": ["--from", "--to", "--stats"],
        }

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

    def test_peak_memory_of_a_runs_search(self, monkeypatch):
        lo = 2**31 + 12345
        argv = ["runs", "--min-len", "6", "--from", str(lo), "--to", str(lo + 2**22 - 1)]
        code, lines, peak = traced_main(monkeypatch, argv)
        assert code == 0
        assert lines == 29
        # about 6 MiB
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
        code, out, err = run_cli(
            ["scan", "--from", "1", "--to", "5", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert (code, out) == (2, b"")
        assert err.count("\n") == 1 and err.startswith("vt: ")
        assert str(path) in err

    def test_empty_checkpoint_path_leaves_no_temp_file(
        self, tmp_path, monkeypatch, capsysbinary
    ):
        # the temp file of an empty path is ".tmp.<pid>" in the working directory
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["scan", "--from", "1", "--to", "10", "--checkpoint", ""], capsysbinary
        )
        assert (code, out) == (2, b"")
        assert err.count("\n") == 1 and err.startswith("vt: cannot use checkpoint")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("hi", [400, 10**60])
    def test_size_cap_both_sides(self, tmp_path, capsysbinary, hi):
        # a checkpoint padded with whitespace to the cap is read; one byte more is not
        lo = hi - 399
        path = tmp_path / "cp.json"
        argv = ["scan", "--from", str(lo), "--to", str(hi), "--checkpoint", str(path)]
        _, full, _ = run_cli(argv[:-2], capsysbinary)
        blocks = list(stream_scan(lo, hi, chunk_size=100))
        checkpoint_save(blocks[1].checkpoint, path)
        saved = path.read_bytes()
        cap = cli._checkpoint_cap(hi)
        assert len(saved) < cap
        path.write_bytes(saved + b" " * (cap + 1 - len(saved)))
        code, out, err = run_cli(argv, capsysbinary)
        assert (code, out) == (2, b"")
        assert err == (
            f"vt: cannot use checkpoint {path}: {cap + 1} bytes, "
            f"more than any checkpoint of this scan ({cap})\n"
        )
        path.write_bytes(saved + b" " * (cap - len(saved)))
        code, rest, _ = run_cli(argv, capsysbinary)
        assert code == 0
        assert blocks[0].payload + blocks[1].payload + rest == full

    def test_corrupt_checkpoint_fails_loud(self, tmp_path, capsysbinary):
        path = tmp_path / "cp.json"
        path.write_text("{nope")
        code, _, err = run_cli(
            ["scan", "--from", "1", "--to", "400", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_malformed_open_run_fails_loud(self, tmp_path, capsysbinary):
        path = tmp_path / "cp.json"
        path.write_text(
            '{"format_version": 2, "fmt": "jsonl", "lo": 1, "hi": 400, "next": 8, '
            '"vt_count": 3, "open_run": [6, 2, 1], "current_t": "28"}'
        )
        code, out, err = run_cli(
            ["scan", "--from", "1", "--to", "400", "--checkpoint", str(path)],
            capsysbinary,
        )
        assert code == 2 and out == b""
        assert err == "vt: checkpoint field 'open_run' must be null or a [start, length] pair\n"


class TestScanStats:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("case", ["plain", "checkpoint", "resume"])
    def test_stats_line_leaves_stdout_alone(self, tmp_path, capsysbinary, fmt, case):
        hi = 2**20 + 5000  # two blocks: 128 pieces of _CELL_ROWS rows, then one
        path = tmp_path / "cp.json"
        argv = ["scan", "--from", "1", "--to", str(hi), "--emit", fmt]
        if case != "plain":
            argv += ["--checkpoint", str(path)]
        chunks, rows, pieces, saves = {
            "plain": (2, hi, 129, 0), "checkpoint": (2, hi, 129, 2), "resume": (1, 5000, 1, 1),
        }[case]

        def run(extra):
            if case == "resume":  # from the first block's checkpoint, each time
                checkpoint_save(next(stream_scan(1, hi, fmt)).checkpoint, path)
            return run_cli(argv + extra, capsysbinary)

        plain = run([])
        code, out, err = run(["--stats"])
        assert (code, out) == plain[:2] and code == 0
        summary, line = err.splitlines()
        assert summary + "\n" == plain[2]
        stats = json.loads(line)
        assert list(stats) == [
            "classify_s", "format_s", "write_wait_s", "checkpoint_s",
            "chunks", "rows", "pieces", "bytes", "checkpoint_saves",
        ]
        assert [stats[k] for k in ("chunks", "rows", "pieces", "bytes", "checkpoint_saves")] == [
            chunks, rows, pieces, len(out), saves
        ]
        assert all(stats[k] > 0 for k in ("classify_s", "format_s", "write_wait_s"))
        assert (stats["checkpoint_s"] > 0) == (saves > 0)

    def test_stages_cover_the_wall_time(self, monkeypatch):
        # classify, format, write wait and checkpoint account for at least
        # 90% of a 2^21-row scan's wall time once the scanner is imported:
        # the first call, whose imports no stage covers, is a warm-up
        lo = 2**31 + 12345
        argv = ["scan", "--from", str(lo), "--to", str(lo + 2**21 - 1), "--stats"]

        class Sink:
            def write(self, data):
                return len(data)

            def flush(self):
                pass

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(buffer=sink, flush=sink.flush))
        for _ in range(2):
            monkeypatch.setattr(sys, "stderr", io.StringIO())
            started = time.perf_counter()
            assert dispatch(argv) == 0
            wall = time.perf_counter() - started
        stats = json.loads(sys.stderr.getvalue().splitlines()[-1])
        stages = ("classify_s", "format_s", "write_wait_s", "checkpoint_s")
        assert sum(stats[k] for k in stages) >= 0.9 * wall


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

    def test_min_len_past_a_word(self, capsysbinary):
        # no run is longer than the range, so no run is printed, and no traceback
        argv = ["runs", "--from", "1", "--to", "3000", "--min-len", str(2**63 + 1)]
        assert run_cli(argv, capsysbinary) == (0, b"", "")

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

    @pytest.mark.parametrize("verb", [["runs", "--min-len", "1"], ["twins"]])
    def test_stats_line_leaves_stdout_alone(self, capsysbinary, verb):
        lo = 2**31 + 12345
        argv = [*verb, "--from", str(lo), "--to", str(lo + 3 * 2**20)]
        plain = run_cli(argv, capsysbinary)
        code, out, err = run_cli(argv + ["--stats"], capsysbinary)
        assert (code, out) == plain[:2] and plain[2] == ""
        stats = json.loads(err)
        assert err.count("\n") == 1
        assert list(stats) == [
            "classify_s", "track_s", "format_s", "write_wait_s", "chunks", "rows", "bytes"
        ]
        assert (stats["chunks"], stats["rows"], stats["bytes"]) == (4, 3 * 2**20 + 1, len(out))
        assert all(stats[k] > 0 for k in ("classify_s", "track_s", "format_s", "write_wait_s"))

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


    def test_no_piece_is_held_while_the_next_chunk_is_classified(self, monkeypatch, capsysbinary):
        # a chunk's last run piece (about 2 MB of lines) held in _write_runs
        # through the next classification raised `vt twins`' peak RSS by 3 MB
        held = []
        classify = scanner._classify

        def watching(lo, hi, out=None):
            frame = sys._getframe(1)
            while frame.f_code is not cli._write_runs.__code__:
                frame = frame.f_back
            pieces = [v for v in frame.f_locals.values() if isinstance(v, (bytes, bytearray))]
            held.append(len(pieces))
            return classify(lo, hi, out)

        monkeypatch.setattr(scanner, "_classify", watching)
        lo = 2**31 + 12345
        code, out, _ = run_cli(["twins", "--from", str(lo), "--to", str(lo + 3 * 2**20)], capsysbinary)
        assert code == 0 and out.count(b"\n") > 40000
        assert held == [0, 0, 0, 0]


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


class TestFailedClaims:
    """A verified claim that fails its check: its JSON line, then one stderr line and exit 1."""

    @pytest.mark.parametrize(
        "argv,patch,message",
        [
            (["family", "odd", "--ell", "27"],
             lambda mp: mp.setattr(families, "family_odd", (
                 lambda ell: dataclasses.replace(family_odd(ell), matches=False))),
             "vt: family odd witness failed verification\n"),
            (["bertrand", "--n", "19"],
             lambda mp: mp.setattr(analysis, "bertrand_check", lambda n: (
                 dataclasses.replace(bertrand_check(n), witnesses=()))),
             "vt: no witness found in (t_19, t_38), contradicting the interval theorem\n"),
            (["gaps", "--k", "28"],
             lambda mp: mp.setattr(analysis, "gap_window", lambda k: (
                 dataclasses.replace(gap_window(k), all_non_vt=False))),
             "vt: gap window for k = 28 failed verification\n"),
            (["periodicity", "--n", "6", "--k", "0"],
             lambda mp: mp.setattr(analysis, "periodicity_identity", lambda n, k: False),
             "vt: periodicity check failed\n"),
        ],
        ids=["family", "bertrand", "gaps", "periodicity"],
    )
    def test_exit_1_with_the_report(self, monkeypatch, capsysbinary, argv, patch, message):
        patch(monkeypatch)
        code, out, err = run_cli(argv, capsysbinary)
        assert code == 1
        assert err == message
        assert out.count(b"\n") == 1
        json.loads(out)


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


class _BytesOnly:
    """A stdout whose text layer refuses every write; its buffer takes the bytes."""

    def __init__(self):
        self.buffer = _WriteFlushOnly()

    def write(self, text):
        raise AssertionError(f"stdout's text layer was written: {text[:40]!r}")

    def flush(self):
        pass


class TestOneStdoutWriter:
    """Every stdout byte goes through cli._Stdout to sys.stdout.buffer, never through
    the text layer: the text argparse prints for --help and --version too."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--version"],
            ["--help"],
            ["scan", "--help"],
            ["check", "7"],
            ["family", "even", "--ell", "2", "--n", "4"],
            ["scan", "--from", "1", "--to", str(_CELL_ROWS + 1)],  # two pieces
        ],
    )
    def test_every_byte_reaches_the_buffer(self, argv, capsysbinary, monkeypatch):
        # pytest's capture takes both layers' bytes: the output as printed either way
        code, want, _ = run_cli(argv, capsysbinary)
        assert code == 0 and want
        out = _BytesOnly()
        monkeypatch.setattr(sys, "stdout", out)
        assert dispatch(list(argv)) == 0
        assert bytes(out.buffer.data) == want


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
    """cli._Stdout: pieces written in order, each after the first by the command's one
    writer thread, handed over once the piece before is written; errors raised by the caller."""

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
        # write returns once the piece before it is written, so a slow
        # reader leaves the caller holding as many pieces as it would
        # writing each itself: the writer's and the one it made
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
        # no writer is started after the failed one, and the caller never
        # waits for ever on a writer: its next write or sync raises
        monkeypatch.setattr(sys, "stdout", _FailingWrites(error))
        finished, exc = _in_thread(lambda: cli._write(b"piece" for _ in range(pieces)))
        assert finished
        assert isinstance(exc, raised)
        if message is not None:
            assert str(exc) == message

    def test_an_exception_in_the_block_leaves_at_once(self, monkeypatch):
        # the writer is blocked in a write no reader drains: leaving the
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
                stdout.write(b"second")  # its writer blocks
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
            (["scan", "--from", "1", "--to", str(_CELL_ROWS)], 0),  # one piece
            (["scan", "--from", "1", "--to", str(_CELL_ROWS + 1)], 1),  # two
            (["scan", "--from", "1", "--to", str(4 * _CELL_ROWS + 1)], 1),  # five
        ],
    )
    def test_a_thread_only_for_a_second_piece(self, argv, threads, capsysbinary, monkeypatch):
        # the first piece is written on the calling thread: a verb that
        # writes one piece has nothing to overlap and starts no thread;
        # the second starts the one writer of every later piece
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        assert dispatch(list(argv)) == 0
        assert started.count("vt-stdout") == threads

    @pytest.mark.parametrize(
        "argv,pieces",
        [
            (["scan", "--from", "1", "--to", str(4 * _CELL_ROWS + 1)], 5),  # one chunk
            (["twins", "--from", "1", "--to", str(2**21 + 2**12)], 3),  # three chunks
        ],
    )
    def test_one_writer_at_a_time(self, ref, argv, pieces, capsysbinary, monkeypatch):
        # one writer thread writes every piece after the first, across
        # chunks too, and has ended when the command returns
        writers, written_by = [], []
        start, put_out = threading.Thread.start, cli._Stdout._put_out

        def counting_start(thread):
            if thread.name == "vt-stdout":
                writers.append(thread)
            start(thread)

        def naming_put_out(stdout, piece):
            written_by.append(threading.current_thread().name)
            return put_out(stdout, piece)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(cli._Stdout, "_put_out", naming_put_out)
        code, out, _ = run_cli(argv, capsysbinary)
        assert code == 0
        assert len(writers) == 1
        assert not writers[0].is_alive()
        assert written_by == [threading.current_thread().name] + ["vt-stdout"] * (pieces - 1)
        lo, hi = int(argv[2]), int(argv[4])
        want = ref.record_lines(lo, hi, "jsonl") if argv[0] == "scan" else ref.run_lines(lo, hi, 2)
        assert out == want

    def test_commands_leave_no_thread_behind(self, capsysbinary):
        argv = ["scan", "--from", "1", "--to", str(4 * _CELL_ROWS + 1)]  # five pieces
        before = threading.active_count()
        for _ in range(20):
            assert dispatch(argv) == 0
        capsysbinary.readouterr()
        assert threading.active_count() == before


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

        monkeypatch.setattr(scanner, "checkpoint_save", snapshot_then_save)
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

        monkeypatch.setattr(scanner, "checkpoint_save", save_then_crash)
        out = _FlushedOnly()
        monkeypatch.setattr(sys, "stdout", out)
        with pytest.raises(Crash):
            dispatch(argv)
        interrupted = bytes(out.data)
        assert interrupted == expected(2**20 + 1)

        monkeypatch.setattr(scanner, "checkpoint_save", checkpoint_save)
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

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("4", "4")])
    def test_main_defaults_openblas_to_one_thread(self, preset, want, capsysbinary, monkeypatch):
        # set then unset, so that monkeypatch restores the environment afterwards
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "0")
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.setattr(sys, "argv", ["vt", "check", "7"])
        with pytest.raises(SystemExit) as exited:
            main()
        assert exited.value.code == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == want


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

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["scan", "--help"]])
    def test_text_meets_the_full_device_at_the_last_flush(self, argv, buffered):
        # argparse prints this text itself: a buffered stdout refuses it
        # when main flushes, an unbuffered one in argparse's own write,
        # whose error argparse would drop
        code, err = self._run_into_full(argv, buffered)
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


class TestClosedStdout:
    """A child started with stdout closed has sys.stdout None: one stderr line, exit 1."""

    def _run_closed(self, argv):
        closed = ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "vtnum", *argv]
        proc = subprocess.run(closed, stderr=subprocess.PIPE, timeout=60)
        return proc.returncode, proc.stderr.decode()

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "7"],
            ["--version"],
            ["--help"],
            ["scan", "--emit", "csv", "--from", "1", "--to", "5"],
            ["runs", "--from", "1", "--to", "50"],
            ["density", "10", "20"],
        ],
    )
    def test_one_line_and_exit_1(self, argv):
        assert self._run_closed(argv) == (1, "vt: cannot write output: stdout is closed\n")

    def test_no_checkpoint_is_saved(self, tmp_path):
        path = tmp_path / "cp.json"
        argv = ["scan", "--from", "1", "--to", "5", "--checkpoint", str(path)]
        code, err = self._run_closed(argv)
        assert (code, err.count("\n")) == (1, 1)
        assert not path.exists()

    def test_usage_errors_stay_exit_2(self):
        code, err = self._run_closed(["scan", "--from", "5", "--to", "1"])
        assert code == 2
        assert err.startswith("vt: range must satisfy") and err.count("\n") == 1


class TestClosedStderr:
    """A child started with stderr closed loses its diagnostics: its exit
    status and stdout bytes are those it gives with stderr open.

    Closed from the start, stderr is None in the child (print would send
    a diagnostic to stdout); open read-only, every write to it fails
    with EBADF.
    """

    def _run(self, argv, redirect=None):
        command = [sys.executable, "-m", "vtnum", *argv]
        if redirect is not None:
            command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=60)
        return proc.returncode, proc.stdout

    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["runs", "--stats", "--from", "1", "--to", "5000"], 0),
            (["conjecture", "--weight", "6", "--max-bits", "24"], 0),
            (["scan", "--from", "5", "--to", "1"], 2),
            (["frobnicate"], 2),
            (["check", "--value", "8"], 1),
        ],
    )
    def test_same_status_and_bytes(self, argv, code, redirect):
        closed = self._run(argv, redirect)
        assert closed[0] == code
        assert closed == self._run(argv)

    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"])
    def test_scan_with_a_checkpoint(self, tmp_path, redirect):
        path = tmp_path / "cp.json"
        argv = ["scan", "--from", "1", "--to", "3", "--checkpoint", str(path)]
        closed = self._run(argv, redirect)
        assert not path.exists()
        assert closed == self._run(argv)
        assert closed[0] == 0 and closed[1].count(b"\n") == 3


class TestEntry:
    """run(), the entry of `vt`: main(), then stdout and stderr flushed, then os._exit."""

    def _run(self, monkeypatch, argv):
        events = []

        class Stream(io.StringIO):
            def __init__(self, name):
                super().__init__()
                self.name, self.buffer = name, io.BytesIO()

            def flush(self):
                events.append(f"flush {self.name}")
                super().flush()

        out, err = Stream("stdout"), Stream("stderr")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        monkeypatch.setattr(sys, "argv", ["vt", *argv])
        monkeypatch.setattr(os, "_exit", lambda code: events.append(f"exit {code}"))
        cli.run()
        return events, out.buffer.getvalue(), err.getvalue()

    @pytest.mark.parametrize(
        "argv, code, want_out, want_err",
        [
            (["check", "7"], 0, b'{"n":7,"t":"28","pc":3,"vt":true}\n', ""),
            (["check", "--value", "8"], 1, b"", "vt: 8 is not a triangular number\n"),
            (["scan", "--from", "5", "--to", "1"], 2, b"", "vt: range must satisfy"),
        ],
    )
    def test_flushes_stdout_then_stderr_then_exits(self, monkeypatch, argv, code, want_out,
                                                   want_err):
        events, out, err = self._run(monkeypatch, argv)
        assert events[-3:] == ["flush stdout", "flush stderr", f"exit {code}"]
        assert events.count(f"exit {code}") == 1
        assert out == want_out
        assert err.startswith(want_err) and err.count("\n") == (code != 0)

    def test_other_exceptions_propagate(self, monkeypatch):
        def fail():
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "main", fail)
        monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit was called"))
        with pytest.raises(RuntimeError, match="boom"):
            cli.run()

    @pytest.mark.parametrize("buffered", [True, False])
    def test_piped_output_is_whole(self, tmp_path, buffered, capsysbinary):
        # each command's output comes in more than one piece, so the
        # writer thread carries all but the first
        checkpoint = tmp_path / "cp.json"
        scan = ["scan", "--from", str(2**31), "--to", str(2**31 + 3 * _CELL_ROWS - 1),
                "--checkpoint", str(checkpoint)]
        runs = ["runs", "--min-len", "1", "--from", "1", "--to", "200000"]
        for argv, summary in ((scan, "scanned ["), (runs, "")):
            code, want_out, want_err = run_cli(argv, capsysbinary)
            assert code == 0 and want_err.startswith(summary)
            assert want_err.count("\n") == bool(summary)
            proc = _vt_process(argv, buffered)
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, out, err.decode()) == (0, want_out, want_err)
            assert not checkpoint.exists()


def test_both_entries_run_one_function(monkeypatch):
    # `python -m vtnum` and the installed `vt` script enter at one function
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("vtnum is not run from its source tree")
    with open(pyproject, "rb") as fh:
        module, _, name = tomllib.load(fh)["project"]["scripts"]["vt"].partition(":")

    class Entered(Exception):
        pass

    def entry():
        raise Entered

    monkeypatch.setattr(importlib.import_module(module), name, entry)
    with pytest.raises(Entered):
        runpy.run_module("vtnum", run_name="__main__")


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

    @pytest.mark.parametrize("kind", ["device", "fifo"])
    def test_checkpoint_that_is_not_a_file_is_one_line(self, kind, tmp_path):
        # read to its end, /dev/zero fills memory; opened, a FIFO with no
        # writer blocks for ever: the child runs with its address space
        # capped and a timeout, so a regression fails here, and fast
        pytest.importorskip("resource")  # the child caps its address space with it
        if kind == "device":
            if not os.path.exists("/dev/zero"):
                pytest.skip("no /dev/zero on this system")
            path = "/dev/zero"
        else:
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs on this system")
            path = tmp_path / "cp.json"
            os.mkfifo(path)
        capped = (
            f"import resource, runpy; resource.setrlimit(resource.RLIMIT_AS, ({2**29}, {2**29})); "
            "runpy.run_module('vtnum', run_name='__main__')"
        )
        proc = subprocess.run(
            [sys.executable, "-c", capped, "scan", "--from", "1", "--to", "10",
             "--checkpoint", str(path)],
            capture_output=True,
            timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == f"vt: cannot use checkpoint {path}: not a regular file\n"

    def test_out_of_memory_is_one_line_and_exit_2(self):
        # the flags of the 4e9 indexes that differences up to 2e9 reach
        # outgrow the child's 1 GB address space (`ulimit -v 1000000`)
        resource = pytest.importorskip("resource")
        cap = 1_000_000 * 1024

        def capped():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        argv = ["ap", "--length", "3", "--from", "1", "--to", "10", "--max-diff", "2000000000"]
        proc = subprocess.run([sys.executable, "-m", "vtnum", *argv], capture_output=True,
                              preexec_fn=capped, timeout=120)
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert err.startswith("vt: out of memory") and err.count("\n") == 1
        assert "Traceback" not in err
        assert proc.stdout == b""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
    def test_long_checkpoint_is_not_read(self, tmp_path):
        # 64 MiB of whitespace before a valid document is rejected by its
        # size: the child peaks within a few MB of `vt --version`.  Both are
        # started from a small interpreter, as a child's peak RSS counts
        # the memory of the process it was forked from
        path = tmp_path / "cp.json"
        with open(path, "wb") as fh:
            for _ in range(64):
                fh.write(b" " * (1 << 20))
            fh.write(b"{}")
        measure = (
            "import os, subprocess, sys\n"
            "for argv in (sys.argv[1:], ['--version']):\n"
            "    child = subprocess.Popen([sys.executable, '-m', 'vtnum', *argv],\n"
            "                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)\n"
            "    _, status, usage = os.wait4(child.pid, 0)\n"
            "    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", measure, "scan", "--from", "1", "--to", "10",
             "--checkpoint", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        (code, peak), (version_code, floor) = (line.split() for line in proc.stdout.splitlines())
        assert (code, version_code) == ("2", "0")
        assert float(peak) - float(floor) < 5

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

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (["--version"], ""),
            (["check", "7", "21"], ""),
            (["check", "--value", "21"], ""),
            (["family", "twin", "--k", "6"], "families"),
            (["periodicity", "--n", "6", "--k", "1"], "analysis"),
            (["gaps", "--k", "28"], "analysis"),
            (["conjecture", "--weight", "6", "--max-bits", "24"], "analysis"),
            (["census", "--max-weight", "5", "--max-bits", "40"], "analysis"),
            (["density", "10", "100"], "analysis scanner"),
            (["bertrand", "--n", "19"], "analysis scanner"),
            (["ap", "--length", "3", "--from", "1", "--to", "100", "--max-diff", "5"],
             "analysis scanner"),
            (["scan", "--from", "1", "--to", "50"], "scanner"),
            (["runs", "--from", "1", "--to", "50"], "scanner"),
            (["twins", "--from", "1", "--to", "50"], "scanner"),
            (["sigma", "5"], "scanner"),
        ],
    )
    def test_only_the_verbs_that_classify_ranges_import_numpy(self, argv, modules):
        # each verb imports only the vtnum modules it runs, and numpy only
        # with the scanner; decimal is for the density ratios alone
        probe = (
            "import sys\n"
            "from vtnum.cli import dispatch\n"
            "code = dispatch(sys.argv[1:])\n"
            "loaded = sorted(m.removeprefix('vtnum.') for m in sys.modules if m.startswith('vtnum.'))\n"
            "print(code, 'numpy' in sys.modules, 'decimal' in sys.modules, *loaded, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                              text=True, timeout=60)
        loaded = " ".join(sorted(["cli", "core", *modules.split()]))
        numpy, decimal = "scanner" in modules, argv[0] == "density"
        assert proc.stderr.splitlines()[-1] == f"0 {numpy} {decimal} {loaded}"

    def test_importing_vtnum_leaves_openblas_alone(self):
        # only `vt` picks OpenBLAS's thread count: a library must not set
        # it for the program that imports it
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        probe = "import os, vtnum, vtnum.scanner; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.stdout == "None\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_a_one_piece_scan_runs_on_one_thread(self):
        # no writer thread for one piece, and OpenBLAS starts no workers
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        probe = (
            "import atexit, os, sys\n"
            "atexit.register(lambda: print(len(os.listdir('/proc/self/task')), file=sys.stderr))\n"
            "from vtnum.cli import main\n"
            "main()\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, "scan", "--from", "1", "--to", "50"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr.splitlines()[-1] == "1"

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
