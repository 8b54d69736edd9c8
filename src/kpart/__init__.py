"""Multiway number partitioning under entropic and compression objectives.

The package solves the compression objective exactly with a stopped
Huffman merge, evaluates every supported objective in exact arithmetic,
and ships brute-force oracles plus property checkers for small instances.
"""

from .core import (
    MAX_ELEMENTS,
    MAX_WEIGHT,
    Dist,
    InputError,
    Instance,
    Partition,
    SizeLimitError,
    SubsetSums,
    conditional_dist,
    instance_dist,
    marginal_dist,
    parse_instance,
    subset_sums,
)
from .entropy import (
    Bits,
    conditional_entropy,
    grouping_identity_residual,
    min_entropy,
    shannon_entropy,
)
from .huffman import HuffmanCode, build_huffman, expected_length_bits, merge_cost
from .objectives import INT64_MAX, ObjectiveReport, compression_cost, evaluate
from .solver import (
    MAX_ORACLE_K,
    MAX_ORACLE_N,
    OBJECTIVES,
    Lemma2Report,
    MergeTrace,
    OracleResult,
    RecombinationReport,
    brute_force,
    conditional_subinstance,
    greedy_baseline,
    stopped_huffman,
    verify_lemma2,
    verify_principle_of_optimality,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_ELEMENTS",
    "MAX_WEIGHT",
    "MAX_ORACLE_K",
    "MAX_ORACLE_N",
    "INT64_MAX",
    "OBJECTIVES",
    "Bits",
    "Dist",
    "HuffmanCode",
    "InputError",
    "Instance",
    "Lemma2Report",
    "MergeTrace",
    "ObjectiveReport",
    "OracleResult",
    "Partition",
    "RecombinationReport",
    "SizeLimitError",
    "SubsetSums",
    "brute_force",
    "build_huffman",
    "compression_cost",
    "conditional_dist",
    "conditional_entropy",
    "conditional_subinstance",
    "evaluate",
    "expected_length_bits",
    "greedy_baseline",
    "grouping_identity_residual",
    "instance_dist",
    "marginal_dist",
    "merge_cost",
    "min_entropy",
    "parse_instance",
    "shannon_entropy",
    "stopped_huffman",
    "subset_sums",
    "verify_lemma2",
    "verify_principle_of_optimality",
    "__version__",
]
