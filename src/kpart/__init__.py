"""Multiway number partitioning under entropic and compression objectives.

The package solves the compression objective exactly with a stopped
Huffman merge, evaluates every supported objective in exact arithmetic,
and ships brute-force oracles plus property checkers for small instances.

The oracles, the checkers and the greedy baseline live in kpart.solver,
which is loaded on first use of any of its names here (or of kpart.solver
itself); loading it binds all of them in this namespace at once. A
process that only solves, such as kpart solve or trace, never compiles it.
"""

from importlib import import_module as _import_module

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
from .huffman import (
    HuffmanCode,
    MergeTrace,
    build_huffman,
    expected_length_bits,
    merge_cost,
    stopped_huffman,
)
from .objectives import INT64_MAX, OBJECTIVES, ObjectiveReport, compression_cost, evaluate

# kpart.solver's public names: __getattr__ binds them on first use, and
# __all__ lists them
_SOLVER_NAMES = (
    "MAX_ORACLE_K",
    "MAX_ORACLE_N",
    "Lemma2Report",
    "OracleResult",
    "RecombinationReport",
    "brute_force",
    "conditional_subinstance",
    "greedy_baseline",
    "verify_lemma2",
    "verify_principle_of_optimality",
)

__version__ = "0.1.0"

__all__ = [
    "MAX_ELEMENTS",
    "MAX_WEIGHT",
    "INT64_MAX",
    "OBJECTIVES",
    "Bits",
    "Dist",
    "HuffmanCode",
    "InputError",
    "Instance",
    "MergeTrace",
    "ObjectiveReport",
    "Partition",
    "SizeLimitError",
    "SubsetSums",
    "build_huffman",
    "compression_cost",
    "conditional_dist",
    "conditional_entropy",
    "evaluate",
    "expected_length_bits",
    "grouping_identity_residual",
    "instance_dist",
    "marginal_dist",
    "merge_cost",
    "min_entropy",
    "parse_instance",
    "shannon_entropy",
    "stopped_huffman",
    "subset_sums",
    *_SOLVER_NAMES,
    "__version__",
]


def __getattr__(name: str):
    """Load kpart.solver when one of its names, or the module, is first
    asked for, and bind every one of its names here."""
    if name != "solver" and name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    solver = _import_module(".solver", __name__)
    names = globals()
    for attr in _SOLVER_NAMES:
        names[attr] = getattr(solver, attr)
    return names[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
