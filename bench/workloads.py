"""The four benchmark workloads: the vt commands each one runs, built from
the seed, and the reference output each command must reproduce.

Each workload stresses a different layer of vtnum (see README.md):

    scan-stream  formatting, stdout writing and checkpoint saves
    run-search   run tracking over the uint64 classification tier
    wide-runs    the big-int classification tier above 2^32
    sweep        analysis.conjecture_no6 and analysis.popcount3_census

The seed only picks range offsets; the program sees plain arguments.
"""
from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from harness import Outcome

REFERENCE = Path(__file__).resolve().parent / "reference.py"
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@dataclass(frozen=True)
class Command:
    """One vt invocation and what a correct run of it looks like."""

    args: tuple[str, ...]
    stdout_sha256: str
    stdout_bytes: int
    stderr_line: bytes = b""  # must appear in stderr
    checkpoint: Path | None = None  # the CLI must delete it on success


def check(command: Command, outcome: Outcome) -> list[str]:
    """Every way the outcome differs from the reference; empty if correct.

    A leftover checkpoint (or its temp file) is reported and then
    removed, so the next repeat starts a fresh scan instead of resuming.
    """
    problems = []
    if outcome.timed_out:
        problems.append("timed out")
    if outcome.exit_code != 0:
        problems.append(f"exit code {outcome.exit_code}")
    if (outcome.stdout_sha256, outcome.stdout_bytes) != (
        command.stdout_sha256,
        command.stdout_bytes,
    ):
        problems.append(
            f"stdout differs from the reference ({outcome.stdout_bytes} bytes, "
            f"expected {command.stdout_bytes})"
        )
    if command.stderr_line not in outcome.stderr:
        problems.append(f"stderr lacks {command.stderr_line!r}")
    if command.checkpoint is not None:
        ckpt = command.checkpoint
        for leftover in [ckpt, *ckpt.parent.glob(ckpt.name + ".tmp.*")]:
            if leftover.exists():
                problems.append(f"checkpoint file left behind: {leftover.name}")
                leftover.unlink()
    return problems


def expected(*args: object) -> dict:
    """Run reference.py in a child process: see its docstring for why."""
    done = subprocess.run(
        [sys.executable, str(REFERENCE), *map(str, args)],
        capture_output=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


@dataclass(frozen=True)
class Plan:
    """A workload instance: its commands, plus the inputs of the traced run.

    ``side`` holds small vt commands, checked like the workload's own,
    that the traced run runs once each for the layers the workload's
    own commands skip, so that every per-layer metric is measured on
    every workload.  ``probes`` holds
    the inputs of the layer probes (see traced.run_probes): ``range`` is
    the workload's own range (a seed-derived uint64 range on sweep),
    ``min_len`` its run length, ``pool`` the scanner call timed at 1 and
    2 threads, and ``other_tier`` a seed-derived range in the other
    classification tier.
    """

    commands: tuple[Command, ...]
    indexes: int  # indexes classified (scans) or swept (sweep), for idx_per_s
    side: tuple[Command, ...]
    probes: dict


def _rng(name: str, seed: int, purpose: str = "") -> random.Random:
    # a str seed is hashed with sha512, so this is stable across processes
    return random.Random(f"{name}/{seed}{purpose}")


def _u64_range(rng: random.Random, length: int) -> tuple[int, int]:
    # n in [2^31, 2^32) has 10 digits and t_n 19, so every seed writes
    # lines of the same width and the same number of bytes
    lo = rng.randrange(1 << 31, (1 << 32) - length + 1)
    return lo, lo + length - 1


def _big_range(rng: random.Random, length: int) -> tuple[int, int]:
    lo = rng.randint(1 << 33, (1 << 63) - length)
    return lo, lo + length - 1


def scan_command(lo: int, hi: int, checkpoint: Path) -> Command:
    """`vt scan --emit jsonl --checkpoint F` over [lo, hi]."""
    ref = expected("scan", lo, hi)
    return Command(
        ("scan", "--from", str(lo), "--to", str(hi), "--emit", "jsonl",
         "--checkpoint", str(checkpoint)),
        ref["sha256"],
        ref["bytes"],
        f"scanned [{lo}, {hi}]: {ref['vt_count']} very triangular\n".encode(),
        checkpoint,
    )


def conjecture_command(max_bits: int) -> Command:
    """`vt conjecture --weight 6`: no stdout, and 0 counterexamples on stderr."""
    return Command(
        ("conjecture", "--weight", "6", "--max-bits", str(max_bits)),
        EMPTY_SHA256,
        0,
        f"swept {math.comb(max_bits, 6)} indexes of weight 6 below 2^{max_bits}: "
        f"0 counterexamples\n".encode(),
    )


def census_command(max_bits: int) -> Command:
    census = expected("census")
    return Command(
        ("census", "--max-weight", "5", "--max-bits", str(max_bits)),
        census["sha256"],
        census["bytes"],
    )


_SIDE_ROWS = 1 << 18


def _side_scan(lo: int, workdir: Path) -> Command:
    return scan_command(lo, lo + _SIDE_ROWS - 1, workdir / "side.ckpt")


def _side_analysis() -> tuple[Command, Command]:
    return conjecture_command(24), census_command(40)


_OTHER_TIER_ROWS = 1 << 16  # big-int classification runs at about 1e6 idx/s


@dataclass(frozen=True)
class ScanStream:
    """`vt scan --emit jsonl --checkpoint F` over `rows` uint64-tier indexes."""

    name: ClassVar[str] = "scan-stream"
    rows: int = 1 << 21

    def range(self, seed: int) -> tuple[int, int]:
        return _u64_range(_rng(self.name, seed), self.rows)

    def plan(self, seed: int, workdir: Path) -> Plan:
        lo, hi = self.range(seed)
        return Plan(
            commands=(scan_command(lo, hi, workdir / "scan.ckpt"),),
            indexes=self.rows,
            side=_side_analysis(),
            probes={"range": [lo, hi], "min_len": 6, "pool": "stream_scan",
                    "other_tier": _big_range(_rng(self.name, seed, "/big"), _OTHER_TIER_ROWS),
                    "candidate_bits": 40},
        )


@dataclass(frozen=True)
class RunSearch:
    """`vt runs --min-len 6` over `length` indexes below 2^32."""

    name: ClassVar[str] = "run-search"
    length: int = 25_000_000
    min_len: int = 6

    def range(self, seed: int) -> tuple[int, int]:
        lo = _rng(self.name, seed).randint(1, (1 << 32) - self.length)
        return lo, lo + self.length - 1

    def other_tier(self, seed: int) -> tuple[int, int]:
        return _big_range(_rng(self.name, seed, "/big"), _OTHER_TIER_ROWS)

    def plan(self, seed: int, workdir: Path) -> Plan:
        lo, hi = self.range(seed)
        ref = expected("runs", lo, hi, self.min_len)
        args = ("runs", "--from", str(lo), "--to", str(hi), "--min-len", str(self.min_len))
        return Plan(
            commands=(Command(args, ref["sha256"], ref["bytes"]),),
            indexes=self.length,
            side=(_side_scan(lo, workdir), *_side_analysis()),
            probes={"range": [lo, hi], "min_len": self.min_len, "pool": "find_runs",
                    "other_tier": self.other_tier(seed), "candidate_bits": 40},
        )


@dataclass(frozen=True)
class WideRuns(RunSearch):
    """`vt runs --min-len 2` over `length` indexes in [2^33, 2^63)."""

    name: ClassVar[str] = "wide-runs"
    length: int = 1 << 20
    min_len: int = 2

    def range(self, seed: int) -> tuple[int, int]:
        return _big_range(_rng(self.name, seed), self.length)

    def other_tier(self, seed: int) -> tuple[int, int]:
        return _u64_range(_rng(self.name, seed, "/u64"), 1 << 21)


@dataclass(frozen=True)
class Sweep:
    """`vt conjecture --weight 6` then `vt census --max-weight 5`; no seed input."""

    name: ClassVar[str] = "sweep"
    conjecture_bits: int = 32
    census_bits: int = 64

    def plan(self, seed: int, workdir: Path) -> Plan:
        # the scanner layers are probed on seed-derived ranges
        lo, hi = _u64_range(_rng(self.name, seed, "/u64"), 1 << 21)
        return Plan(
            commands=(conjecture_command(self.conjecture_bits),
                      census_command(self.census_bits)),
            indexes=math.comb(self.conjecture_bits, 6),
            side=(_side_scan(lo, workdir),),
            probes={"range": [lo, hi], "min_len": 6, "pool": "find_runs",
                    "other_tier": _big_range(_rng(self.name, seed, "/big"), _OTHER_TIER_ROWS),
                    "candidate_bits": self.census_bits},
        )


WORKLOADS = {w.name: w for w in (ScanStream(), RunSearch(), WideRuns(), Sweep())}
