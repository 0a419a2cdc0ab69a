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

Importing the package imports :mod:`vtnum.core` only.  Each other
module loads on first use of its name or of one of its public names
(``scan``, ``family_even``, ``density_series``, ...), so a program pays
only for the modules it uses, and numpy comes only with the scanner.
"""
from importlib import import_module as _import_module

from . import core
from .core import *

__version__ = "0.1.0"

# Each module's public names, known before the module is imported: the
# one list of them, which each module takes as its __all__
_FAMILIES_NAMES = (
    "Family", "FamilyWitness", "family_even", "family_power_minus", "family_odd",
    "block_number", "block_witness", "twin_pair", "power_exclusion", "verify_witness",
)
_SCANNER_NAMES = (
    "DEFAULT_CHUNK", "FAST_INDEX_LIMIT", "CHECKPOINT_VERSION", "Run", "ScanSummary",
    "ScanCheckpoint", "StreamBlock", "scan", "resume_scan", "merge_summaries", "find_runs",
    "find_twins", "sigma_enumerate", "count_vt", "vt_flags", "stream_scan", "format_block",
    "checkpoint_save", "checkpoint_resume",
)
_ANALYSIS_NAMES = (
    "VerificationError", "DensityPoint", "BertrandReport", "TheoremWitness", "GapReport",
    "ApHit", "density_series", "bertrand_check", "bertrand_theorem_witness", "gap_window",
    "gap_demonstration", "periodicity_identity", "periodicity_equal_popcount",
    "conjecture_no6", "popcount3_census", "ap_search",
)
_LAZY = {"families": _FAMILIES_NAMES, "scanner": _SCANNER_NAMES, "analysis": _ANALYSIS_NAMES}

__all__ = ["__version__", *core.__all__, *_FAMILIES_NAMES, *_SCANNER_NAMES, *_ANALYSIS_NAMES]


def __getattr__(name: str) -> object:
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = _import_module(f"{__name__}.{module}")  # binds it here, too
            globals().update((n, getattr(loaded, n)) for n in names)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__all__})
