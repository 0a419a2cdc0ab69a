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
"""
from . import analysis, core, families, scanner
from .core import *
from .families import *
from .scanner import *
from .analysis import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__", *core.__all__, *families.__all__, *scanner.__all__, *analysis.__all__]
