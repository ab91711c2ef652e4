"""tenspart: sparse 3-tensor partitioning and low-rank expansion toolkit.

Computes best rank-(r1, r2, r3) approximations of large sparse 3-tensors
and uses them for spectral-style tensor partitioning and sparse
rank-(2,2,1) expansions.
"""

from .sparse_tensor import (
    SparseTensor3,
    frobenius_norm,
    inner,
    is_12_symmetric,
    mode_multiply,
    multi_multiply,
    permute_mode,
    permute_modes,
    subtensor,
    symmetric_embed,
)
from .preprocess import (
    LabelTable,
    RecordLog,
    bin_and_symmetrize,
    load_coordinate_file,
    load_labels,
    load_record_log,
    nonsymmetric_normalize,
    normalize_slices_adjacency,
    normalize_slices_frobenius,
    save_coordinate_file,
)
from .lowrank import (
    RankApproximation,
    SolverConfig,
    hooi,
    hooi_symmetric,
    hosvd_init,
    reconstruct,
)
from .partition import (
    PartitionReport,
    block_norms,
    corner_block_norms,
    monotone_reorder,
    partition_report,
    partition_tensor,
    restrict_and_recurse,
    sign_change_split,
    significance_ranking,
)
from .expansion import (
    DeflatedOperator,
    ExpansionTerm,
    deflate,
    expand,
    overlap_cosines,
    rank221_term,
    subgraph_export,
    threshold_B,
)

__version__ = "0.1.0"
