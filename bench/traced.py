"""Run one vt command, or the layer probes, in-process and record spans.

    python bench/traced.py SPANS_FILE cli ARG...    # vt ARG..., traced
    python bench/traced.py SPANS_FILE probes JSON   # layer probes, see run_probes

Spans are recorded only by this file, around calls into vtnum's public
functions: the CLI entry (``cli.dispatch``), every write to stdout
(``cli.write``), and the scanner and analysis functions in BOUNDARIES,
which are wrapped in every vtnum module namespace that holds them.
Functions called once per index (core's predicates,
``analysis.weight_enumerate``) get no span, because a span would cost
more than the call; ``core.is_triangular`` is timed by a probe instead.

A span is a dict with its name, start and end (``perf_counter``
seconds), the id of its parent span, the run id, and counts such as
rows or bytes.  Spans stay in memory and are written to SPANS_FILE as
one JSON list when the run ends.  The command's stdout is the real
stdout, so the benchmark checks the traced output like any other.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import reference
import vtnum.analysis
import vtnum.cli
import vtnum.core
import vtnum.scanner

MODULES = (vtnum.scanner, vtnum.analysis, vtnum.cli)  # where BOUNDARIES are bound

# (module, function, counts taken from (args, result)) for each boundary
BOUNDARIES = (
    (vtnum.scanner, "scan", None),
    (vtnum.scanner, "find_runs", None),
    (vtnum.scanner, "stream_scan", None),  # one span per block, named stream_next
    (vtnum.scanner, "format_block", lambda a, r: {"rows": len(a[0][0])}),
    (vtnum.scanner, "checkpoint_save", None),
    (vtnum.analysis, "conjecture_no6", lambda a, r: {"swept": math.comb(a[1], a[0])}),
    (vtnum.analysis, "popcount3_census", lambda a, r: {"hits": len(r)}),
)


class Tracer:
    """Collects spans in memory; each thread keeps its own parent stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **counts):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"id": next(self._ids), "parent": stack[-1] if stack else None,
                  "name": name, "run": self.run_id, **counts}
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record.update(counts(args, result))
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Trace each step of a generator: the time spent producing one item."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    with self.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            finally:
                inner.close()

        return traced


def install(tracer: Tracer):
    """Replace each boundary function in every vtnum module; return an undo."""
    wrappers = {}
    for module, attr, counts in BOUNDARIES:
        original = getattr(module, attr)
        name = f"{module.__name__.removeprefix('vtnum.')}.{attr}"
        if attr == "stream_scan":
            wrappers[id(original)] = tracer.wrap_generator("scanner.stream_next", original)
        else:
            wrappers[id(original)] = tracer.wrap(name, original, counts)
    replaced = []
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                replaced.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def undo() -> None:
        for module, attr, value in replaced:
            setattr(module, attr, value)

    return undo


class _TracedBuffer:
    """Stands in for sys.stdout.buffer; each write and flush is a cli.write span."""

    def __init__(self, raw, tracer: Tracer) -> None:
        self._raw = raw
        self._tracer = tracer

    def write(self, data: bytes) -> int:
        with self._tracer.span("cli.write", bytes=len(data)):
            return self._raw.write(data)

    def flush(self) -> None:
        with self._tracer.span("cli.write", bytes=0):
            self._raw.flush()


class _TracedStdout:
    """Stands in for sys.stdout: the CLI writes its output to ``.buffer``."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self.buffer = _TracedBuffer(real.buffer, tracer)

    def write(self, text: str) -> int:
        return self._real.write(text)

    def flush(self) -> None:
        self._real.flush()  # pending text, then the bytes under it


def run_cli(tracer: Tracer, argv: list[str]) -> int:
    real = sys.stdout
    sys.stdout = _TracedStdout(real, tracer)
    undo = install(tracer)
    try:
        with tracer.span("cli.dispatch"):
            code = vtnum.cli.dispatch(argv)
            sys.stdout.flush()
    finally:
        undo()
        sys.stdout = real
    return code


# ---------------------------------------------------------------------------
# Probes: direct calls into one layer, on the workload's own inputs


def probe_track(tracer: Tracer, lo: int, hi: int, min_len: int) -> None:
    """scan with run tracking, then count_vt alone, three times in turn.

    Their difference in each pair is the time run tracking adds.
    """
    for _ in range(3):
        with tracer.span("probe.scan") as record:
            record["runs_kept"] = len(
                vtnum.scanner.scan(lo, hi, min_run_len=min_len).runs_found
            )
        with tracer.span("probe.count_vt"):
            vtnum.scanner.count_vt(lo, hi)


def probe_other_tier(tracer: Tracer, lo: int, hi: int) -> None:
    for _ in range(3):
        with tracer.span("probe.count_vt_other_tier"):
            vtnum.scanner.count_vt(lo, hi)


def probe_maximal_runs(tracer: Tracer, lo: int, hi: int) -> None:
    """Count every maximal run in the range, from vt_flags."""
    with tracer.span("probe.vt_flags") as record:
        flags = vtnum.scanner.vt_flags(lo, hi)
        record["maximal_runs"] = len(reference.maximal_runs(flags)[0])


def probe_pool(tracer: Tracer, call: str, lo: int, hi: int, min_len: int) -> None:
    """The scanner call at 1 thread, then at min(nproc, 2)."""
    for threads in (1, min(os.cpu_count() or 1, 2)):
        with tracer.span("probe.pool", threads=threads):
            if call == "stream_scan":
                for _ in vtnum.scanner.stream_scan(lo, hi, "jsonl", threads=threads):
                    pass
            else:
                vtnum.scanner.find_runs(lo, hi, min_len, threads=threads)


def probe_resume(tracer: Tracer, lo: int, hi: int, workdir: Path) -> None:
    """Load a mid-range checkpoint of the workload's scan."""
    first = next(iter(vtnum.scanner.stream_scan(lo, hi, "jsonl", chunk_size=4096)))
    path = workdir / "probe.ckpt"
    vtnum.scanner.checkpoint_save(first.checkpoint, path)
    for _ in range(20):
        with tracer.span("probe.checkpoint_resume"):
            vtnum.scanner.checkpoint_resume(path)
    path.unlink()


def probe_is_triangular(tracer: Tracer, max_bits: int) -> None:
    """core.is_triangular over the census's 3-bit candidate values."""
    values = reference.three_bit_values(max_bits)
    is_triangular = vtnum.core.is_triangular
    with tracer.span("probe.is_triangular", calls=len(values)):
        for v in values:
            is_triangular(v)


def run_probes(tracer: Tracer, spec: dict, workdir: Path) -> None:
    lo, hi = spec["range"]
    probe_track(tracer, lo, hi, spec["min_len"])
    probe_other_tier(tracer, *spec["other_tier"])
    probe_maximal_runs(tracer, lo, hi)
    probe_pool(tracer, spec["pool"], lo, hi, spec["min_len"])
    probe_resume(tracer, lo, hi, workdir)
    probe_is_triangular(tracer, spec["candidate_bits"])


def main(argv: list[str]) -> int:
    spans_file = Path(argv[0])
    tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
    if argv[1] == "cli":
        code = run_cli(tracer, argv[2:])
    else:
        run_probes(tracer, json.loads(argv[2]), spans_file.parent)
        code = 0
    spans_file.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
