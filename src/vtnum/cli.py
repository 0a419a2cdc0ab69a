"""Command line interface.

Every operation in the package is reachable through one verb:

    check        classify indexes (or raw values with --value)
    scan         stream every record in an index range
    runs         maximal blocks of consecutive very triangular indexes
    twins        runs of length >= 2
    sigma        the first COUNT very triangular indexes
    family       build and verify one constructive-family witness
    density      cumulative counts and ratios at sample points
    bertrand     very triangular values strictly between t_n and t_2n
    gaps         certified windows of consecutive non-VT indexes
    periodicity  the index identity and the equal-popcount law
    conjecture   exhaustive low-popcount counterexample sweep
    census       all popcount-3 values over low-weight indexes
    ap           arithmetic progressions of very triangular indexes

Results go to stdout, diagnostics to stderr.  Every stdout byte goes
through one writer, :class:`_Stdout`, the text of ``--help`` and
``--version`` included, and every diagnostic through :func:`_warn`.
Exit status is 0 on success, 1 when a sweep finds counterexamples, a
verified claim fails its check or stdout refuses the output, 2 on
usage errors and when the process runs out of memory (one line,
``vt: out of memory: ...``, never a traceback).  A closed
stderr loses the diagnostics and changes neither the status nor
stdout.  Identical argument vectors produce identical stdout bytes.
Classification runs on the calling thread.  Output that comes in more
than one piece is written to stdout from the second piece on by one
writer thread, while the calling thread makes the next piece.

At import this module loads only :mod:`vtnum.core` and the standard
library the parser needs.  Each handler imports the modules it runs
when it runs: ``family`` loads the families, the sweeps, ``gaps`` and
``periodicity`` the analysis, and the verbs that classify index ranges
(scan, runs, twins, sigma, density, bertrand, ap) the numpy scanner, so
``--version``, ``check`` and the sweeps start without numpy.

JSON outputs follow one serialization rule: quantities that can exceed
53 bits (triangular values, family indexes, window bounds) are emitted
as decimal strings so float-based JSON consumers cannot corrupt them;
scan indexes and popcounts stay plain numbers.
"""
from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import threading
import time
from contextlib import contextmanager, suppress
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NoReturn

from . import __version__
from .core import (
    _CSV_HEADER,
    CheckpointError,
    ParameterError,
    VerificationError,
    VtRecord,
    _format_exact,
    _require_format,
    classify_index,
    is_triangular,
)

if TYPE_CHECKING:
    from .scanner import _Stats

__all__ = ["emit", "dispatch", "main", "run"]


def emit(records: Iterable[VtRecord], fmt: str = "jsonl") -> Iterator[bytes]:
    """Serialize records into the byte-exact jsonl or csv stream.

    The output is identical to what the scanner's chunked stream
    produces for the same records, and is made without numpy.
    """
    _require_format(fmt)
    records = list(records)
    rows = (
        [r.n for r in records],
        [r.t for r in records],
        [r.popcount for r in records],
        [r.is_vt for r in records],
    )
    header = _CSV_HEADER if fmt == "csv" else b""
    return iter([header + _format_exact(rows, fmt)])


class _OutputError(Exception):
    """stdout refused the command's output (any OSError but a broken pipe)."""


def _warn(text: str) -> None:
    """Write a diagnostic to stderr.  A closed stderr (None, or refusing
    the write) loses it and changes nothing else: not the exit status,
    and not stdout, where print(file=None) would send it."""
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.write(text)


class _Stdout:
    """The command's stdout, written from the second piece on by one writer thread.

    :meth:`write` writes a piece to ``sys.stdout.buffer`` and flushes it;
    with stdout closed from the start (None), the first write raises _OutputError.
    The first piece is written on the calling thread, as nothing is yet
    made while it is written.  The second starts one ``vt-stdout`` thread
    for the rest of the command, and each later piece is handed to it
    through one slot once the piece before is written: the caller makes
    piece k + 1 while piece k is written, and holds no more pieces than
    when it wrote each one itself.  :meth:`sync` returns once every piece
    is written and flushed.  When a write or flush fails, the writer
    ends, no later piece is handed over, and the caller's next write or
    sync raises the error: a BrokenPipeError as itself, any other OSError
    as an _OutputError.

    On leaving the ``with`` block normally, every piece is written and
    flushed and the writer has ended.  On leaving it by an exception, the
    writer is told to end but not waited for: it may be blocked in a
    write that no reader drains.
    """

    def __init__(self) -> None:
        self._out: IO[bytes] | None = None  # stdout's buffer, looked up at the first write
        self._writer: threading.Thread | None = None
        self._error: Exception | None = None
        self._slot = threading.Condition()  # guards the two fields below
        self._piece: bytes | None = None  # handed to the writer and not yet written
        self._closed = False  # no piece comes after the one in the slot

    def __enter__(self) -> _Stdout:
        return self

    def __exit__(self, kind: type | None, *_: object) -> None:
        if kind is None:
            self.sync()
        with self._slot:
            self._closed = True
            self._slot.notify()
        if kind is None and self._writer is not None:
            self._writer.join()

    def write(self, piece: bytes) -> None:
        """Write piece here if it is the first, else hand it to the writer thread."""
        self.sync()
        if self._out is None:
            if sys.stdout is None:
                raise _OutputError("cannot write output: stdout is closed")
            self._out = sys.stdout.buffer
            self._put_out(piece)
            self.sync()
            return
        with self._slot:
            self._piece = piece
            self._slot.notify()
        if self._writer is None:
            self._writer = threading.Thread(
                target=self._write_handed, name="vt-stdout", daemon=True
            )
            self._writer.start()

    def sync(self) -> None:
        """Return once every piece is written and flushed."""
        with self._slot:
            while self._piece is not None:
                self._slot.wait()
        error = self._error
        if isinstance(error, OSError) and not isinstance(error, BrokenPipeError):
            raise _OutputError(f"cannot write output: {error.strerror or error}") from error
        if error is not None:
            raise error

    def _write_handed(self) -> None:
        """The writer thread: write each piece put in the slot, until closed or a write fails."""
        while self._error is None:
            with self._slot:
                while self._piece is None and not self._closed:
                    self._slot.wait()
                piece = self._piece
            if piece is None:
                return
            self._put_out(piece)
            piece = None  # written: the caller's reference is the last
            with self._slot:
                self._piece = None
                self._slot.notify()

    def _put_out(self, piece: bytes) -> None:
        try:
            self._out.write(piece)
            self._out.flush()  # out as soon as it is written, should the command be stopped
        except Exception as exc:  # the caller raises it at its next write or sync
            self._error = exc


def _write(blocks: Iterable[bytes]) -> None:
    with _Stdout() as out:
        for block in blocks:
            out.write(block)


def _write_json_lines(payloads: Iterable[dict]) -> None:
    """One compact, ASCII-only JSON object per line, all in one write.

    There is one payload per result, and every verb holds its results in
    a list already: a result's line takes less memory than its objects.
    """
    import json

    encode = json.JSONEncoder(separators=(",", ":")).encode
    _write(["".join(encode(payload) + "\n" for payload in payloads).encode("ascii")])


def _write_claim(payload: dict, holds: bool, failure: str) -> int:
    """Write a verified claim's one JSON line and return the exit status:
    0, or 1 after ``vt: failure`` on stderr when the claim failed its check."""
    _write_json_lines([payload])
    if holds:
        return 0
    _warn(f"vt: {failure}\n")
    return 1


# ---------------------------------------------------------------------------
# Handlers


def _cmd_check(args: argparse.Namespace) -> int:
    records = []
    for raw in args.numbers:
        if args.value:
            index = is_triangular(raw) if raw >= 0 else None
            if index is None:
                _warn(f"vt: {raw} is not a triangular number\n")
                return 1
            records.append(classify_index(index))
        else:
            records.append(classify_index(raw))
    _write(emit(records, args.emit))
    return 0


@contextmanager
def _checkpoint_file(path: str) -> Iterator[None]:
    """Report an unusable checkpoint path as bad input, not a traceback."""
    try:
        yield
    except OSError as exc:
        raise CheckpointError(f"cannot use checkpoint {path}: {exc.strerror or exc}") from exc


def _checkpoint_cap(hi: int) -> int:
    """The size past which a file cannot be a checkpoint of a scan to hi.

    checkpoint_save writes about 120 bytes of names and punctuation
    around six numbers of at most as many digits as hi + 1 and
    t_(next-1), of at most twice that; the rest is room for whitespace.
    A longer file is rejected unread, so its size cannot grow memory.
    """
    digits = hi.bit_length() * 3011 // 10000 + 1  # at least those of hi + 1, as 0.3011 > log10(2)
    return 4096 + 16 * digits


# the names each verb's --stats line gives, in order
_SCAN_STATS = (
    "classify_s", "format_s", "write_wait_s", "checkpoint_s",
    "chunks", "rows", "pieces", "bytes", "checkpoint_saves",
)
_RUN_STATS = ("classify_s", "track_s", "format_s", "write_wait_s", "chunks", "rows", "bytes")


def _write_pieces(out: _Stdout, pieces: Iterable[bytes], stats: _Stats) -> None:
    """Write each piece, adding the time spent making it and the wait to hand it over to stats."""
    made = time.perf_counter_ns()
    for piece in pieces:
        written = time.perf_counter_ns()
        stats.format_ns += written - made
        out.write(piece)
        made = time.perf_counter_ns()
        stats.write_wait_ns += made - written
        stats.pieces += 1
        stats.bytes += len(piece)
    stats.format_ns += time.perf_counter_ns() - made


def _cmd_scan(args: argparse.Namespace) -> int:
    """Stream the range's records, saving the checkpoint (if any) after each block.

    Each piece after the first is written by the one writer thread while
    the next is formatted.
    The barrier sits before each checkpoint save: out.sync() returns once
    every piece of the block is written and flushed, so a saved
    checkpoint never points past a byte that is not out, and none is
    saved for a block whose bytes failed to write.  Where the time went
    is measured on every run, and printed with ``--stats`` after the
    summary: the wait for each block (its classification), the time
    spent making pieces, the wait for each to be written, and each save.
    """
    found = args.checkpoint is not None and os.path.exists(args.checkpoint)
    if found:
        with _checkpoint_file(args.checkpoint):
            info, cap = os.stat(args.checkpoint), _checkpoint_cap(args.to)
            if stat.S_ISREG(info.st_mode) and info.st_size > cap:
                raise CheckpointError(
                    f"cannot use checkpoint {args.checkpoint}: {info.st_size} bytes, "
                    f"more than any checkpoint of this scan ({cap})"
                )
    # numpy comes with the scanner, so a checkpoint rejected above costs none of it
    from .scanner import _Stats, checkpoint_resume, checkpoint_save, stream_scan

    resume = None
    if args.checkpoint is not None:
        with _checkpoint_file(args.checkpoint):
            resume = checkpoint_resume(args.checkpoint) if found else None
            # before any output, make and remove the temp file each save writes; "" fails
            probe = f"{args.checkpoint}.tmp.{os.getpid()}" if args.checkpoint else ""
            open(probe, "w").close()
            os.remove(probe)
    last_state = resume
    stats = _Stats()
    blocks = stream_scan(args.from_, args.to, args.emit, resume=resume)
    with _Stdout() as out:
        while True:
            asked = time.perf_counter_ns()
            block = next(blocks, None)
            stats.classify_ns += time.perf_counter_ns() - asked
            if block is None:
                break
            stats.chunks += 1
            stats.rows += block.chunk.vts.size
            _write_pieces(out, block.pieces(), stats)
            if args.checkpoint is not None:
                synced = time.perf_counter_ns()
                out.sync()
                saved = time.perf_counter_ns()
                stats.write_wait_ns += saved - synced
                with _checkpoint_file(args.checkpoint):
                    checkpoint_save(block.checkpoint, args.checkpoint)
                stats.checkpoint_ns += time.perf_counter_ns() - saved
                stats.checkpoint_saves += 1
            last_state = block.checkpoint
            del block  # release the chunk before the next one is classified
    if args.checkpoint is not None and os.path.exists(args.checkpoint):
        os.remove(args.checkpoint)  # finished: a rerun starts fresh
    vt_total = last_state.vt_count if last_state is not None else 0
    _warn(f"scanned [{args.from_}, {args.to}]: {vt_total} very triangular\n")
    if args.stats:
        _warn(stats.json_line(_SCAN_STATS) + "\n")
    return 0


def _write_runs(args: argparse.Namespace) -> int:
    """One jsonl line per run of find_runs(args.from_, args.to, args.min_len), chunk by chunk.

    Both ``vt runs`` and ``vt twins`` run here; twins is runs with min_len 2.

    A chunk's runs share the scan's chunk arrays, so they are formatted
    and written before the next chunk is classified.  Where the time
    went is measured on every run, and printed to stderr as one JSON
    line with ``--stats``: the scanner's classify and track times, the
    time spent making pieces, and the wait for each to be written.
    """
    from .scanner import _format_runs, _run_stream, _Stats

    stats = _Stats()
    with _Stdout() as out:
        for runs in _run_stream(args.from_, args.to, args.min_len, stats=stats):
            _write_pieces(out, _format_runs(runs), stats)
            runs = None  # not kept while the next chunk is classified
    if args.stats:
        _warn(stats.json_line(_RUN_STATS) + "\n")
    return 0


def _cmd_sigma(args: argparse.Namespace) -> int:
    from .scanner import sigma_enumerate

    records = [classify_index(n) for n in sigma_enumerate(args.count)]
    _write(emit(records, args.emit))
    return 0


# the name of each family's builder in vtnum.families, and its options
_FAMILY_BUILDERS = {
    "even": ("family_even", ("ell", "n")),
    "power-minus": ("family_power_minus", ("k", "ell")),
    "odd": ("family_odd", ("ell",)),
    "block": ("block_witness", ("k",)),
    "twin": ("twin_pair", ("k",)),
    "power-exclusion": ("power_exclusion", ("k",)),
}


def _cmd_family(args: argparse.Namespace) -> int:
    builder, needed = _FAMILY_BUILDERS[args.name]
    for option in ("ell", "k", "n"):
        value = getattr(args, option)
        if option in needed and value is None:
            raise ParameterError(f"family {args.name} requires --{option}")
        if option not in needed and value is not None:
            raise ParameterError(f"family {args.name} does not take --{option}")
    from . import families

    witness = getattr(families, builder)(**{option: getattr(args, option) for option in needed})
    payload = {
        "family": witness.family.value,
        "params": dict(witness.params),
        "indices": [str(i) for i in witness.indices],
        "values": [str(v) for v in witness.values],
        "predicted_popcount": witness.predicted_popcount,
        "actual_popcounts": list(witness.actual_popcounts),
        "expect_vt": witness.expect_vt,
        "matches": witness.matches,
    }
    return _write_claim(payload, witness.matches, f"family {args.name} witness failed verification")


def _cmd_density(args: argparse.Namespace) -> int:
    from .analysis import density_series

    points = density_series(args.points)
    lines = "".join(f"{point.N},{point.vt_count},{point.ratio_decimal}\n" for point in points)
    _write([b"N,vt_count,ratio\n" + lines.encode("ascii")])
    return 0


def _cmd_bertrand(args: argparse.Namespace) -> int:
    from .analysis import bertrand_check

    report = bertrand_check(args.n)
    payload = {
        "n": report.n,
        "t_n": str(report.t_lo),
        "t_2n": str(report.t_hi),
        "witnesses": [str(w) for w in report.witnesses],
        "theorem_witness": (
            str(report.theorem_witness) if report.theorem_witness is not None else None
        ),
        "theorem_case": report.theorem_case,
    }
    expected_nonempty = report.n in (4, 5, 6) or report.n > 9
    failure = (f"no witness found in (t_{report.n}, t_{2 * report.n}), "
               "contradicting the interval theorem")
    return _write_claim(payload, bool(report.witnesses) or not expected_nonempty, failure)


def _cmd_gaps(args: argparse.Namespace) -> int:
    if (args.k is None) == (args.demonstrate is None):
        raise ParameterError("gaps needs exactly one of --k or --demonstrate")
    from .analysis import gap_demonstration, gap_window

    report = gap_window(args.k) if args.k is not None else gap_demonstration(args.demonstrate)
    payload = {
        "k": report.k,
        "window": [str(report.window[0]), str(report.window[1])],
        "member_popcounts": list(report.member_popcounts),
        "all_non_vt": report.all_non_vt,
        "power_offset_popcounts": {
            str(m): pc for m, pc in report.power_offset_popcounts
        },
        "predictions_match": report.predictions_match,
    }
    failure = f"gap window for k = {report.k} failed verification"
    return _write_claim(payload, report.all_non_vt and report.predictions_match, failure)


def _cmd_periodicity(args: argparse.Namespace) -> int:
    from .analysis import periodicity_equal_popcount, periodicity_identity

    if args.m is None:
        holds = periodicity_identity(args.n, args.k)
        payload = {"check": "identity", "n": args.n, "k": args.k, "holds": holds}
    else:
        holds = periodicity_equal_popcount(args.n, args.m, args.k)
        payload = {
            "check": "equal-popcount",
            "n": args.n,
            "m": args.m,
            "k": args.k,
            "holds": holds,
        }
    return _write_claim(payload, holds, "periodicity check failed")


def _cmd_conjecture(args: argparse.Namespace) -> int:
    from .analysis import conjecture_no6

    hits = conjecture_no6(args.weight, args.max_bits)
    _write(emit([classify_index(n) for n in hits], args.emit))
    swept = math.comb(args.max_bits, args.weight)
    _warn(
        f"swept {swept} indexes of weight {args.weight} below 2^{args.max_bits}: "
        f"{len(hits)} counterexamples\n"
    )
    return 1 if hits else 0


def _cmd_census(args: argparse.Namespace) -> int:
    from .analysis import popcount3_census

    values = popcount3_census(args.max_weight, args.max_bits)
    _write(emit([classify_index(is_triangular(v)) for v in values], args.emit))
    return 0


def _cmd_ap(args: argparse.Namespace) -> int:
    from .analysis import ap_search

    hits = ap_search(args.length, args.from_, args.to, args.max_diff)
    _write_json_lines(
        {"first": hit.first, "difference": hit.difference, "length": hit.length}
        for hit in hits
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_range(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--from", dest="from_", type=int, required=True, metavar="N",
                     help="first index of the range")
    sub.add_argument("--to", dest="to", type=int, required=True, metavar="N",
                     help="last index of the range")


def _add_emit(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--emit", choices=("jsonl", "csv"), default="jsonl",
                     help="output format (default: jsonl)")


def _add_stats(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--stats", action="store_true",
                     help="print where the time went as one JSON line on stderr")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one stderr line, like every other bad input."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")

    def _print_message(self, message: str, file: IO[str] | None = None) -> None:
        # --help and --version go through the one stdout writer, which
        # reports a refused write: argparse's own write would drop its error
        if file is sys.stdout:  # a closed stdout comes as None, as sys.stdout is
            _write([message.encode()])
        else:
            _warn(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vt",
        description="Enumerate, verify, and search very triangular numbers.",
    )
    parser.add_argument("--version", action="version", version=f"vt {__version__}")
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    sub = verbs.add_parser("check", help="classify indexes (or values with --value)")
    sub.add_argument("numbers", type=int, nargs="+", metavar="N",
                     help="triangular indexes, or raw values with --value")
    sub.add_argument("--value", action="store_true",
                     help="treat arguments as values instead of indexes")
    _add_emit(sub)
    sub.set_defaults(func=_cmd_check)

    sub = verbs.add_parser("scan", help="stream every record in a range")
    _add_range(sub)
    _add_emit(sub)
    sub.add_argument("--checkpoint", metavar="FILE",
                     help="write resumable state here; resume from it if it exists")
    _add_stats(sub)
    sub.set_defaults(func=_cmd_scan)

    sub = verbs.add_parser("runs", help="maximal runs of consecutive VT indexes")
    _add_range(sub)
    sub.add_argument("--min-len", type=int, default=2, metavar="K",
                     help="shortest run to report (default: 2)")
    _add_stats(sub)
    sub.set_defaults(func=_write_runs)

    sub = verbs.add_parser("twins", help="adjacent VT pairs (runs of length >= 2)")
    _add_range(sub)
    _add_stats(sub)
    sub.set_defaults(func=_write_runs, min_len=2)

    sub = verbs.add_parser("sigma", help="the first COUNT very triangular indexes")
    sub.add_argument("count", type=int, metavar="COUNT")
    _add_emit(sub)
    sub.set_defaults(func=_cmd_sigma)

    sub = verbs.add_parser("family", help="build and verify one witness instance")
    sub.add_argument("name", choices=sorted(_FAMILY_BUILDERS), metavar="NAME",
                     help=f"one of: {', '.join(sorted(_FAMILY_BUILDERS))}")
    sub.add_argument("--ell", type=int, metavar="L")
    sub.add_argument("--k", type=int, metavar="K")
    sub.add_argument("--n", type=int, metavar="N")
    sub.set_defaults(func=_cmd_family)

    sub = verbs.add_parser("density", help="cumulative VT counts and ratios")
    sub.add_argument("points", type=int, nargs="+", metavar="N",
                     help="strictly ascending sample indexes")
    sub.set_defaults(func=_cmd_density)

    sub = verbs.add_parser("bertrand", help="VT values strictly between t_n and t_2n")
    sub.add_argument("--n", type=int, required=True, metavar="N")
    sub.set_defaults(func=_cmd_bertrand)

    sub = verbs.add_parser("gaps", help="certified windows of consecutive non-VT indexes")
    sub.add_argument("--k", type=int, metavar="K",
                     help="window parameter (triangular, divisible by 4)")
    sub.add_argument("--demonstrate", type=int, metavar="G",
                     help="certify a gap of at least G instead of naming k")
    sub.set_defaults(func=_cmd_gaps)

    sub = verbs.add_parser("periodicity", help="index identity / equal-popcount law")
    sub.add_argument("--n", type=int, required=True, metavar="N")
    sub.add_argument("--k", type=int, required=True, metavar="K")
    sub.add_argument("--m", type=int, metavar="M",
                     help="check the equal-popcount law against scale m")
    sub.set_defaults(func=_cmd_periodicity)

    sub = verbs.add_parser("conjecture", help="sweep one weight for popcount <= 3 indexes")
    sub.add_argument("--weight", type=int, required=True, metavar="W")
    sub.add_argument("--max-bits", type=int, required=True, metavar="B")
    _add_emit(sub)
    sub.set_defaults(func=_cmd_conjecture)

    sub = verbs.add_parser("census", help="all popcount-3 values over low-weight indexes")
    sub.add_argument("--max-weight", type=int, required=True, metavar="W")
    sub.add_argument("--max-bits", type=int, required=True, metavar="B")
    _add_emit(sub)
    sub.set_defaults(func=_cmd_census)

    sub = verbs.add_parser("ap", help="arithmetic progressions of VT indexes")
    sub.add_argument("--length", type=int, required=True, metavar="L")
    _add_range(sub)
    sub.add_argument("--max-diff", type=int, required=True, metavar="D",
                     help="largest common difference to try")
    sub.set_defaults(func=_cmd_ap)

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse argv, run the mapped operation, and return the exit status."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            if isinstance(code, int):
                return code
            return 0 if code is None else 2
        return args.func(args)
    except (ParameterError, CheckpointError) as exc:
        _warn(f"vt: {exc}\n")
        return 2
    except VerificationError as exc:
        _warn(f"vt: {exc}\n")
        return 1
    except MemoryError as exc:  # arguments that need more memory than the process may have
        _warn(f"vt: out of memory: {exc}\n" if str(exc) else "vt: out of memory\n")
        return 2


def _discard_output() -> None:
    """Point stdout at the null device, so the exit flush of bytes nobody takes succeeds."""
    if sys.stdout is None:  # closed from the start: nothing to flush
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


def _flush(stream: IO[str] | None) -> None:
    """Flush stream on the way out, unless it is None; an OSError is
    dropped, as main() has already reported a stdout that refused its
    bytes and chosen the exit status for it."""
    if stream is not None:
        with suppress(OSError):
            stream.flush()


def main() -> None:
    """Run ``vt`` on sys.argv and raise SystemExit with its exit status.

    The interpreter then ends as usual, so in-process callers keep their
    exit handlers; the ``vt`` program itself enters at :func:`run`.
    """
    # vtnum calls no BLAS routine, but numpy's OpenBLAS starts worker
    # threads at import (one fewer than the CPUs) that spin waiting for
    # work beside the scan; a value the user set is kept.  Set here, not
    # at import: a library must not change its host program's environment
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # values are exact at any size: lift the 4300-digit int <-> str limit
    # (t_n reaches it near n = 10^2150) where this Python has one, and put
    # the caller's limit back before exiting
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = dispatch(sys.argv[1:])
    except BrokenPipeError:
        # the reader went away (e.g. piped into head); not a failure
        _discard_output()
        code = 0
    except _OutputError as exc:
        _warn(f"vt: {exc}\n")
        _discard_output()
        code = 1
    except KeyboardInterrupt:
        # the writer thread may be blocked in a write no reader drains,
        # holding stdout's lock: the interpreter's exit flush would wait
        # on it for ever, or abort, so leave without it
        _flush(sys.stderr)
        os._exit(130)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.exit(code)


def run() -> NoReturn:
    """The ``vt`` program: :func:`main`, then leave the process at once.

    Once stdout and then stderr are flushed every byte is out, so the
    process ends with ``os._exit`` and main()'s exit status, skipping
    the interpreter's teardown: a last garbage collection over the
    objects of numpy and the standard library, the clean-up of modules,
    and atexit handlers.  An exception other than SystemExit propagates,
    and the interpreter ends as usual.
    """
    code = 0
    try:
        main()
    except SystemExit as exc:
        code = exc.code
    _flush(sys.stdout)
    _flush(sys.stderr)
    os._exit(code)
