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
from .core import (
    Nat,
    ParameterError,
    PopCount,
    TriangularIndex,
    binary_string,
    integer_sqrt,
    is_triangular,
    is_very_triangular_index,
    is_very_triangular_value,
    popcount,
    popcount_of_triangular,
    triangular,
)
from .families import (
    Family,
    FamilyWitness,
    block_number,
    block_witness,
    family_even,
    family_odd,
    family_power_minus,
    power_exclusion,
    twin_pair,
    verify_witness,
)
from .scanner import (
    CHECKPOINT_VERSION,
    DEFAULT_CHUNK,
    FAST_INDEX_LIMIT,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStateError,
    CheckpointVersionError,
    Run,
    ScanCheckpoint,
    ScanSummary,
    StreamBlock,
    VtRecord,
    checkpoint_resume,
    checkpoint_save,
    classify_index,
    count_vt,
    find_runs,
    find_twins,
    format_block,
    merge_summaries,
    resume_scan,
    scan,
    sigma_enumerate,
    stream_scan,
    vt_flags,
)
from .analysis import (
    ApHit,
    BertrandReport,
    DensityPoint,
    GapReport,
    TheoremWitness,
    VerificationError,
    ap_search,
    bertrand_check,
    bertrand_theorem_witness,
    conjecture_no6,
    density_series,
    gap_demonstration,
    gap_window,
    periodicity_equal_popcount,
    periodicity_identity,
    popcount3_census,
    weight_enumerate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Nat",
    "TriangularIndex",
    "PopCount",
    "ParameterError",
    "triangular",
    "popcount",
    "integer_sqrt",
    "is_triangular",
    "is_very_triangular_value",
    "is_very_triangular_index",
    "popcount_of_triangular",
    "binary_string",
    # families
    "Family",
    "FamilyWitness",
    "family_even",
    "family_power_minus",
    "family_odd",
    "block_number",
    "block_witness",
    "twin_pair",
    "power_exclusion",
    "verify_witness",
    # scanner
    "DEFAULT_CHUNK",
    "FAST_INDEX_LIMIT",
    "CHECKPOINT_VERSION",
    "VtRecord",
    "Run",
    "ScanSummary",
    "ScanCheckpoint",
    "StreamBlock",
    "CheckpointError",
    "CheckpointVersionError",
    "CheckpointCorruptError",
    "CheckpointStateError",
    "classify_index",
    "scan",
    "resume_scan",
    "merge_summaries",
    "find_runs",
    "find_twins",
    "sigma_enumerate",
    "count_vt",
    "vt_flags",
    "stream_scan",
    "format_block",
    "checkpoint_save",
    "checkpoint_resume",
    # analysis
    "VerificationError",
    "DensityPoint",
    "BertrandReport",
    "TheoremWitness",
    "GapReport",
    "ApHit",
    "density_series",
    "bertrand_check",
    "bertrand_theorem_witness",
    "gap_window",
    "gap_demonstration",
    "periodicity_identity",
    "periodicity_equal_popcount",
    "weight_enumerate",
    "conjecture_no6",
    "popcount3_census",
    "ap_search",
]
