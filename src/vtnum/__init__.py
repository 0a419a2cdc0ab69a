"""Very triangular numbers.

A triangular number t_n = n(n+1)/2 is *very triangular* when the
population count of its binary expansion is itself triangular.  This
package enumerates them at scale, builds constructive witness families,
certifies gap windows and interval theorems, and exposes everything
through the ``vt`` command line tool.

Quick start:

    >>> from vtnum import is_very_triangular_index, scan
    >>> [n for n in range(1, 22) if is_very_triangular_index(n)]
    [1, 6, 7, 19, 21]
    >>> scan(1, 21).vt_count
    5

The scanner's names (``scan``, ``count_vt``, ...) are resolved on first
use, so importing the package does not import numpy.
"""
from importlib import import_module as _import_module

from . import analysis, core, families
from .core import *
from .families import *
from .analysis import *

__version__ = "0.1.0"

# scanner.__all__, spelled out so that it is known before the scanner,
# and numpy with it, is imported (a test holds the two lists equal)
_SCANNER_NAMES = (
    "DEFAULT_CHUNK", "FAST_INDEX_LIMIT", "CHECKPOINT_VERSION", "Run", "ScanSummary",
    "ScanCheckpoint", "StreamBlock", "scan", "resume_scan", "merge_summaries", "find_runs",
    "find_twins", "sigma_enumerate", "count_vt", "vt_flags", "stream_scan", "format_block",
    "checkpoint_save", "checkpoint_resume",
)

# each module's __all__ is the one list of its public names
__all__ = ["__version__", *core.__all__, *families.__all__, *_SCANNER_NAMES, *analysis.__all__]


def __getattr__(name: str) -> object:
    if name == "scanner" or name in _SCANNER_NAMES:
        scanner = _import_module(f"{__name__}.scanner")  # binds it here, too
        globals().update((n, getattr(scanner, n)) for n in _SCANNER_NAMES)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SCANNER_NAMES, "scanner"})
