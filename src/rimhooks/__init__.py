"""Rim-hook insertion for reverse plane partitions.

A library for building reverse plane partitions out of rim-hook bricks:
the greedy insertion and extraction walks, the bijection between fillings
and multisets of rim-hooks via lexicographic factorization, the equivalent
corner-peeling description, the Hillman-Grassl and RSK correspondences, and
exact truncated-series verification of the hook-product identities.
"""

from .geometry import (
    Cell,
    Partition,
    Region,
    RimHook,
    content,
    content_key,
    east,
    format_cell,
    north,
    parse_cell,
    revlex_key,
    rim_hook_key,
    south,
    west,
)
from .rpp import Rpp, ShapedGrid, Tableau
from .insertion import (
    Factorization,
    InsertionFailure,
    build,
    extraction_path,
    factorize,
    insertion_path,
    is_compatible,
    rim_hook_of_path,
    try_insert,
)
from .peeling import corner_toggle, peel_tableau
from .classical import (
    SsytPair,
    check_rsk_transpose,
    check_syt_diagonals,
    diag_partition,
    gk_chain_max,
    hg,
    hg_inv,
    is_permutation_matrix,
    permutation_matrix,
    rsk,
    rsk_inv,
)
from .series import (
    MultiTraceSeries,
    TruncatedSeries,
    gansner_product,
    hook_monomial,
    hook_product,
    rpp_series,
    trace_series,
)
from .enumeration import (
    BudgetExceededError,
    enumerate_rpps,
    enumerate_sw_paths,
    enumerate_tableaux,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Cell",
    "Factorization",
    "InsertionFailure",
    "MultiTraceSeries",
    "Partition",
    "Region",
    "RimHook",
    "Rpp",
    "ShapedGrid",
    "SsytPair",
    "Tableau",
    "TruncatedSeries",
    "build",
    "check_rsk_transpose",
    "check_syt_diagonals",
    "content",
    "content_key",
    "corner_toggle",
    "diag_partition",
    "east",
    "enumerate_rpps",
    "enumerate_sw_paths",
    "enumerate_tableaux",
    "extraction_path",
    "factorize",
    "format_cell",
    "gansner_product",
    "gk_chain_max",
    "hg",
    "hg_inv",
    "hook_monomial",
    "hook_product",
    "insertion_path",
    "is_compatible",
    "is_permutation_matrix",
    "north",
    "parse_cell",
    "peel_tableau",
    "permutation_matrix",
    "revlex_key",
    "rim_hook_key",
    "rim_hook_of_path",
    "rpp_series",
    "rsk",
    "rsk_inv",
    "south",
    "trace_series",
    "try_insert",
    "west",
]
