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

Results go to stdout, diagnostics to stderr.  Exit status is 0 on
success, 1 when a sweep finds counterexamples, a verified claim fails
its check or stdout refuses the output, 2 on usage errors.  Identical
argument vectors produce identical stdout bytes.  Classification runs on
the calling thread: ``--threads`` and ``VT_THREADS`` are validated (a bad
value is a usage error) but change nothing.  Output that comes in more
than one piece is written to stdout from the second piece on by one
helper thread, while the calling thread makes the next piece.

JSON outputs follow one serialization rule: quantities that can exceed
53 bits (triangular values, family indexes, window bounds) are emitted
as decimal strings so float-based JSON consumers cannot corrupt them;
scan indexes and popcounts stay plain numbers.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, NoReturn

from . import __version__
from .analysis import (
    VerificationError,
    ap_search,
    bertrand_check,
    conjecture_no6,
    density_series,
    gap_demonstration,
    gap_window,
    periodicity_equal_popcount,
    periodicity_identity,
    popcount3_census,
)
from .core import ParameterError, is_triangular
from .families import (
    block_witness,
    family_even,
    family_odd,
    family_power_minus,
    power_exclusion,
    twin_pair,
)
from .scanner import (
    _CSV_HEADER,
    _format_runs,
    _require_format,
    _run_stream,
    CheckpointError,
    VtRecord,
    checkpoint_resume,
    checkpoint_save,
    classify_index,
    format_block,
    sigma_enumerate,
    stream_scan,
)

__all__ = ["emit", "dispatch", "main"]


def emit(records: Iterable[VtRecord], fmt: str = "jsonl") -> Iterator[bytes]:
    """Serialize records into the byte-exact jsonl or csv stream.

    The output is identical to what the scanner's chunked stream
    produces for the same records.
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
    return iter([header + format_block(rows, fmt)])


class _OutputError(Exception):
    """stdout refused the command's output (any OSError but a broken pipe)."""


def _raise_write_error(error: Exception) -> NoReturn:
    """Raise what a failed write to stdout means: a BrokenPipeError as
    itself, any other OSError as an _OutputError."""
    if isinstance(error, OSError) and not isinstance(error, BrokenPipeError):
        raise _OutputError(f"cannot write output: {error.strerror or error}") from error
    raise error


# handed to the writer thread in place of a piece: taken once every piece
# before it is written; end the thread
_SYNC, _STOP = object(), object()


class _Stdout:
    """The command's stdout, written by one helper thread.

    :meth:`write` writes a piece to ``sys.stdout.buffer`` and flushes it.
    The first piece is written on the calling thread, as nothing is yet
    made while it is written; the rest are handed to a helper thread,
    started with the second.  A hand-off returns once the thread takes
    the piece, that is once the piece before it is written: the caller
    makes piece k + 1 while the thread writes piece k, and holds no more
    pieces than when it wrote each one itself.  :meth:`sync` returns once
    every piece handed over is written and flushed.  When a write or
    flush fails, the thread drops the pieces that follow and the caller's
    next write or sync raises the error, as :func:`_raise_write_error`
    does.

    On leaving the ``with`` block normally, every piece is written and
    flushed and the thread has ended.  On leaving it by an exception, the
    thread is not waited for: it may be blocked in a write that no reader
    drains.
    """

    def __init__(self) -> None:
        self._out = sys.stdout.buffer
        self._first = True
        self._queue = None  # the hand-off to the helper thread, once started
        self._error: Exception | None = None

    def __enter__(self) -> _Stdout:
        return self

    def __exit__(self, kind: type | None, *_: object) -> None:
        if self._queue is None:
            return
        try:
            if kind is None:
                self.sync()
        finally:
            self._queue.put(_STOP)
        if kind is None:
            self._thread.join()

    def write(self, piece: bytes) -> None:
        """Write piece here if it is the first, else hand it to the helper thread."""
        if self._first:
            self._first = False
            try:
                self._put_out(piece)
            except OSError as exc:
                _raise_write_error(exc)
            return
        if self._queue is None:
            import queue  # only commands that write more than one piece pay for it

            self._queue = queue.Queue()
            self._thread = threading.Thread(target=self._drain, name="vt-stdout", daemon=True)
            self._thread.start()
        self._hand_over(piece)

    def sync(self) -> None:
        """Return once every piece handed over is written and flushed."""
        if self._queue is not None:
            self._hand_over(_SYNC)

    def _hand_over(self, item: object) -> None:
        self._queue.put(item)
        self._queue.join()  # the thread marks each item done as it takes it
        if self._error is not None:
            _raise_write_error(self._error)

    def _put_out(self, piece: bytes) -> None:
        self._out.write(piece)
        self._out.flush()  # out as soon as it is written, should the command be stopped

    def _drain(self) -> None:
        while (piece := self._queue.get()) is not _STOP:
            self._queue.task_done()
            if piece is not _SYNC and self._error is None:  # after a failure, drop the rest
                try:
                    self._put_out(piece)
                except Exception as exc:  # the caller raises it at its next write or sync
                    self._error = exc


def _write(blocks: Iterable[bytes]) -> None:
    with _Stdout() as out:
        for block in blocks:
            out.write(block)


_JSON = json.JSONEncoder(separators=(",", ":"))


def _write_json_lines(payloads: Iterable[dict]) -> None:
    """One compact, ASCII-only JSON object per line, all in one write.

    There is one payload per result, and every verb holds its results in
    a list already: a result's line takes less memory than its objects.
    """
    _write(["".join(_JSON.encode(payload) + "\n" for payload in payloads).encode("ascii")])


# ---------------------------------------------------------------------------
# Handlers


def _cmd_check(args: argparse.Namespace) -> int:
    records = []
    for raw in args.numbers:
        if args.value:
            index = is_triangular(raw) if raw >= 0 else None
            if index is None:
                print(f"vt: {raw} is not a triangular number", file=sys.stderr)
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


def _cmd_scan(args: argparse.Namespace) -> int:
    """Stream the range's records, saving the checkpoint (if any) after each block.

    The writer thread writes each piece while the next is formatted.  The
    barrier sits before each checkpoint save: out.sync() returns once
    every piece of the block is written and flushed, so a saved
    checkpoint never points past a byte that is not out, and none is
    saved for a block whose bytes failed to write.
    """
    resume = None
    if args.checkpoint is not None and os.path.exists(args.checkpoint):
        with _checkpoint_file(args.checkpoint):
            resume = checkpoint_resume(args.checkpoint)
    last_state = resume
    with _Stdout() as out:
        for block in stream_scan(
            args.from_, args.to, args.emit, threads=_resolve_threads(args), resume=resume
        ):
            for piece in block.pieces():
                out.write(piece)
            if args.checkpoint is not None:
                out.sync()
                with _checkpoint_file(args.checkpoint):
                    checkpoint_save(block.checkpoint, args.checkpoint)
            last_state = block.checkpoint
            del block  # release the chunk before the next one is classified
    if args.checkpoint is not None and os.path.exists(args.checkpoint):
        os.remove(args.checkpoint)  # finished: a rerun starts fresh
    vt_total = last_state.vt_count if last_state is not None else 0
    print(
        f"scanned [{args.from_}, {args.to}]: {vt_total} very triangular",
        file=sys.stderr,
    )
    return 0


def _write_runs(lo: int, hi: int, min_len: int, threads: int) -> int:
    """One jsonl line per run of find_runs(lo, hi, min_len), written chunk by chunk."""
    with _Stdout() as out:
        for runs in _run_stream(lo, hi, min_len, threads=threads):
            # runs is kept while the next chunk is classified: freed first,
            # the heap is trimmed and faulted back in every chunk (10k more
            # page faults over 2.5e7 indexes)
            for piece in _format_runs(runs):
                out.write(piece)
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    return _write_runs(args.from_, args.to, args.min_len, _resolve_threads(args))


def _cmd_twins(args: argparse.Namespace) -> int:
    return _write_runs(args.from_, args.to, 2, _resolve_threads(args))


def _cmd_sigma(args: argparse.Namespace) -> int:
    records = [classify_index(n) for n in sigma_enumerate(args.count)]
    _write(emit(records, args.emit))
    return 0


_FAMILY_BUILDERS = {
    "even": (family_even, ("ell", "n")),
    "power-minus": (family_power_minus, ("k", "ell")),
    "odd": (family_odd, ("ell",)),
    "block": (block_witness, ("k",)),
    "twin": (twin_pair, ("k",)),
    "power-exclusion": (power_exclusion, ("k",)),
}


def _cmd_family(args: argparse.Namespace) -> int:
    builder, needed = _FAMILY_BUILDERS[args.name]
    for option in ("ell", "k", "n"):
        value = getattr(args, option)
        if option in needed and value is None:
            raise ParameterError(f"family {args.name} requires --{option}")
        if option not in needed and value is not None:
            raise ParameterError(f"family {args.name} does not take --{option}")
    witness = builder(**{option: getattr(args, option) for option in needed})
    _write_json_lines(
        [{
            "family": witness.family.value,
            "params": dict(witness.params),
            "indices": [str(i) for i in witness.indices],
            "values": [str(v) for v in witness.values],
            "predicted_popcount": witness.predicted_popcount,
            "actual_popcounts": list(witness.actual_popcounts),
            "expect_vt": witness.expect_vt,
            "matches": witness.matches,
        }]
    )
    if not witness.matches:
        print(f"vt: family {args.name} witness failed verification", file=sys.stderr)
        return 1
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    points = density_series(args.points)
    lines = "".join(f"{point.N},{point.vt_count},{point.ratio_decimal}\n" for point in points)
    _write([b"N,vt_count,ratio\n" + lines.encode("ascii")])
    return 0


def _cmd_bertrand(args: argparse.Namespace) -> int:
    report = bertrand_check(args.n)
    _write_json_lines(
        [{
            "n": report.n,
            "t_n": str(report.t_lo),
            "t_2n": str(report.t_hi),
            "witnesses": [str(w) for w in report.witnesses],
            "theorem_witness": (
                str(report.theorem_witness) if report.theorem_witness is not None else None
            ),
            "theorem_case": report.theorem_case,
        }]
    )
    expected_nonempty = report.n in (4, 5, 6) or report.n > 9
    if expected_nonempty and not report.witnesses:
        print(
            f"vt: no witness found in (t_{report.n}, t_{2 * report.n}), "
            "contradicting the interval theorem",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_gaps(args: argparse.Namespace) -> int:
    if (args.k is None) == (args.demonstrate is None):
        raise ParameterError("gaps needs exactly one of --k or --demonstrate")
    report = gap_window(args.k) if args.k is not None else gap_demonstration(args.demonstrate)
    _write_json_lines(
        [{
            "k": report.k,
            "window": [str(report.window[0]), str(report.window[1])],
            "member_popcounts": list(report.member_popcounts),
            "all_non_vt": report.all_non_vt,
            "power_offset_popcounts": {
                str(m): pc for m, pc in report.power_offset_popcounts
            },
            "predictions_match": report.predictions_match,
        }]
    )
    if not (report.all_non_vt and report.predictions_match):
        print(f"vt: gap window for k = {report.k} failed verification", file=sys.stderr)
        return 1
    return 0


def _cmd_periodicity(args: argparse.Namespace) -> int:
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
    _write_json_lines([payload])
    if not holds:
        print("vt: periodicity check failed", file=sys.stderr)
        return 1
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    hits = conjecture_no6(args.weight, args.max_bits)
    _write(emit([classify_index(n) for n in hits], args.emit))
    swept = math.comb(args.max_bits, args.weight)
    print(
        f"swept {swept} indexes of weight {args.weight} below 2^{args.max_bits}: "
        f"{len(hits)} counterexamples",
        file=sys.stderr,
    )
    return 1 if hits else 0


def _cmd_census(args: argparse.Namespace) -> int:
    values = popcount3_census(args.max_weight, args.max_bits)
    _write(emit([classify_index(is_triangular(v)) for v in values], args.emit))
    return 0


def _cmd_ap(args: argparse.Namespace) -> int:
    hits = ap_search(args.length, args.from_, args.to, args.max_diff)
    _write_json_lines(
        {"first": hit.first, "difference": hit.difference, "length": hit.length}
        for hit in hits
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


def _default_threads() -> int:
    raw = os.environ.get("VT_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"VT_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParameterError(f"VT_THREADS must be >= 1, got {value}")
    return value


def _add_range(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--from", dest="from_", type=int, required=True, metavar="N",
                     help="first index of the range")
    sub.add_argument("--to", dest="to", type=int, required=True, metavar="N",
                     help="last index of the range")


def _add_emit(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--emit", choices=("jsonl", "csv"), default="jsonl",
                     help="output format (default: jsonl)")


def _add_threads(sub: argparse.ArgumentParser) -> None:
    # resolved lazily so a malformed VT_THREADS only affects verbs that scan
    sub.add_argument("--threads", type=int, default=None, metavar="N",
                     help="accepted and validated (>= 1; default: VT_THREADS or 1), "
                          "but classification always runs on one thread")


def _resolve_threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return args.threads
    return _default_threads()


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one stderr line, like every other bad input."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


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
    _add_threads(sub)
    sub.set_defaults(func=_cmd_scan)

    sub = verbs.add_parser("runs", help="maximal runs of consecutive VT indexes")
    _add_range(sub)
    sub.add_argument("--min-len", type=int, default=2, metavar="K",
                     help="shortest run to report (default: 2)")
    _add_threads(sub)
    sub.set_defaults(func=_cmd_runs)

    sub = verbs.add_parser("twins", help="adjacent VT pairs (runs of length >= 2)")
    _add_range(sub)
    _add_threads(sub)
    sub.set_defaults(func=_cmd_twins)

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
        print(f"vt: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"vt: {exc}", file=sys.stderr)
        return 1


def _discard_stdout() -> None:
    """Point stdout at the null device, so the exit flush of bytes nobody takes succeeds."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


def main() -> None:
    # values are exact at any size: lift the 4300-digit int <-> str limit
    # (t_n reaches it near n = 10^2150) where this Python has one, and put
    # the caller's limit back before exiting
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = dispatch(sys.argv[1:])
        try:
            sys.stdout.flush()  # the text argparse printed, if any
        except OSError as exc:
            _raise_write_error(exc)
    except BrokenPipeError:
        # the reader went away (e.g. piped into head); not a failure
        _discard_stdout()
        code = 0
    except _OutputError as exc:
        print(f"vt: {exc}", file=sys.stderr)
        _discard_stdout()
        code = 1
    except KeyboardInterrupt:
        # the writer thread may be blocked in a write no reader drains,
        # holding stdout's lock: the interpreter's exit flush would wait
        # on it for ever, or abort, so leave without it
        sys.stderr.flush()
        os._exit(130)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    sys.exit(code)
