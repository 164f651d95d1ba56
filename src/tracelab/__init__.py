"""tracelab: exact computations on traces of finite set families.

Build the classical extremal constructions, compress and symmetrize
families, and run certified branch-and-bound searches for the smallest
family sizes that force large traces on small windows.
"""

from .setcore import (
    FamilyError,
    PartitionStructure,
    SetFamily,
    TraceMax,
    arrows,
    delete,
    down_closure,
    elements_of,
    family_from_json,
    family_from_text,
    family_to_json,
    family_to_text,
    is_antichain,
    is_downset,
    level,
    link,
    link_avoiding,
    mask_of,
    max_trace_over_ksets,
    shadow,
    trace,
    trace_size,
)
from .transforms import (
    aux_triples_linear,
    downset_compress,
    downshift,
    partition_classes,
    symmetrize,
    symmetrize_if_profitable,
)
from .constructions import (
    BoundCheck,
    HookMax,
    TildeFamily,
    full_to_tilde,
    hook_count_max,
    hookarrow,
    mtilde_formula,
    pairwise_sum_bound_check,
    partite_family,
    partite_family_size,
    partite_sizes,
    special6,
    t_count,
    threshold,
    tilde_from_json,
    tilde_to_json,
    tilde_to_full,
    turan_graph,
)
from .search import (
    ArrowQuery,
    SearchResult,
    crosscheck_mtilde,
    decide_arrow,
    max_antichain,
    max_family,
    max_tilde,
    run_query,
)
from .cancellative_turan import (
    ArrowPatternVerdict,
    Pattern,
    PatternCheck,
    arrow_vs_pattern,
    ex3,
    forcing_size_from_turan,
    is_cancellative,
    is_unionfree,
    max_cancellative,
    pattern_free,
    violation_trace_window,
)

__version__ = "0.1.0"
