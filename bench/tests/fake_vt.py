"""A stand-in for `python -m vtnum` that runs the real CLI, then breaks one thing.

    python fake_vt.py MODE ARG...

MODE is one of:
    none             pass the real output through unchanged
    corrupt-stdout   flip one bit in the middle of stdout (same length)
    drop-line        drop the last line of stdout
    keep-checkpoint  leave a file at the --checkpoint path after the scan

`--version` always passes through, so only the workload's commands fail.
"""
import io
import sys
from pathlib import Path

import vtnum.cli


class _Capture:
    def __init__(self) -> None:
        self.buffer = io.BytesIO()

    def write(self, text: str) -> int:
        return self.buffer.write(text.encode())

    def flush(self) -> None:
        pass


def main(mode: str, argv: list[str]) -> int:
    real, sys.stdout = sys.stdout, _Capture()
    try:
        code = vtnum.cli.dispatch(argv)
        data = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = real
    if argv == ["--version"]:
        pass
    elif mode == "corrupt-stdout" and data:
        k = len(data) // 2
        data = data[:k] + bytes([data[k] ^ 1]) + data[k + 1 :]
    elif mode == "drop-line":
        data = b"".join(data.splitlines(keepends=True)[:-1])
    elif mode == "keep-checkpoint" and "--checkpoint" in argv:
        Path(argv[argv.index("--checkpoint") + 1]).write_text("{}\n")
    sys.stdout.buffer.write(data)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
