"""Run one child process and measure it: wall time, peak RSS, stdout digest.

The parent drains the child's stdout through a pipe as it arrives and
hashes it, so a multi-hundred-megabyte stream is checked without being
kept.  Peak RSS comes from the rusage that ``os.wait4`` returns for that
child alone; ``resource.getrusage(RUSAGE_CHILDREN)`` would instead give
the high-water mark over every child reaped so far.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

_READ_SIZE = 1 << 20
_HEAD_SIZE = 256


@dataclass(frozen=True)
class Outcome:
    """What one child did, as seen from outside."""

    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout_sha256: str
    stdout_bytes: int
    stdout_head: bytes  # the first _HEAD_SIZE bytes, for messages
    stderr: bytes
    timed_out: bool


def run_child(
    argv: list[str], *, env: dict[str, str], cwd: Path, stderr_path: Path, timeout_s: float
) -> Outcome:
    """Start argv, drain and hash its stdout, and reap it with os.wait4.

    Wall time runs from just before the spawn to the return of wait4.
    A child still running after timeout_s is killed and reported with
    ``timed_out`` set.
    """
    digest = hashlib.sha256()
    size = 0
    head = b""
    with open(stderr_path, "w+b") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            env=env, cwd=cwd,
        )
        fired = threading.Event()

        def kill() -> None:
            fired.set()
            proc.kill()  # a no-op once wait4 below has reaped the child

        killer = threading.Timer(timeout_s, kill)
        killer.start()
        try:
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, _READ_SIZE):
                digest.update(chunk)
                size += len(chunk)
                if len(head) < _HEAD_SIZE:
                    head = (head + chunk)[:_HEAD_SIZE]
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
        err.seek(0)
        stderr = err.read()
    return Outcome(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        stdout_sha256=digest.hexdigest(),
        stdout_bytes=size,
        stdout_head=head,
        stderr=stderr,
        timed_out=fired.is_set(),
    )
