"""Objective evaluation for instance/partition pairs.

Integer objectives (subset-sum balance, compression cost, product of sums)
are computed exactly; entropy objectives are floats derived from exact
integers. All k label slots participate in min_diff/min_max/max_min and
product_of_sums, so an empty slot contributes a zero sum; entropy and
compression ignore empty groups via the 0 * log 0 = 0 convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .core import Instance, Partition, _check_covers, _check_int, subset_sums
from .entropy import _entropy_bits, _min_entropy_bits
from .huffman import _merge_cost_sorted

INT64_MAX = (1 << 63) - 1

OBJECTIVES = (
    "min_diff",
    "min_max",
    "max_min",
    "entropy",
    "min_entropy",
    "product_of_sums",
    "compression",
)


@dataclass(frozen=True)
class ObjectiveReport:
    """Every objective value for one instance/partition pair.

    product_of_sums is exact regardless of magnitude; product_overflow
    flags when it leaves the signed 64-bit envelope the integer contracts
    otherwise guarantee. subset_sums, the per-label totals the other values
    derive from, depends on label names, so it stays out of equality and of
    to_json_dict: reports compare label-invariantly.
    """

    min_diff: int
    min_max: int
    max_min: int
    entropy_bits: float
    min_entropy_bits: float
    product_of_sums: int
    product_overflow: bool
    compression_numerator: int
    compression_bits: float
    subset_sums: tuple[int, ...] = field(compare=False)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def compression_cost(inst: Instance, p: Partition) -> int:
    """Exact integer L(X|A) * M: total Huffman merge cost over the groups.

    Each nonempty group contributes the merge cost of an optimal prefix-free
    code over its member weights; singleton groups need no bits.
    """
    _check_covers(inst, p)
    buckets: list[list[int]] = [[] for _ in range(p.k)]
    for w, a in zip(inst.weights, p.assignment):
        buckets[a].append(w)
    total = 0
    for b in buckets:
        if len(b) > 1:
            b.sort()
            total += _merge_cost_sorted(b)
    return total


def evaluate(inst: Instance, p: Partition, cost: int | None = None) -> ObjectiveReport:
    """Compute every objective for one partition.

    cost, when known, is p's compression numerator and spares regrouping the
    weights; for a stopped_huffman partition it is the trace's cost. A cost
    that is not an int, or is a bool, raises InputError.
    """
    sums = subset_sums(inst, p).sums
    if cost is None:
        cost = compression_cost(inst, p)
    _check_int("cost", cost)
    return _report(sums, inst.total, cost)


def _report(sums: tuple[int, ...], total: int, cost: int) -> ObjectiveReport:
    """Every objective from the per-label sums, their total and the
    compression numerator, none of which it checks."""
    lo = min(sums)
    hi = max(sums)
    prod = math.prod(sums)
    return ObjectiveReport(
        min_diff=hi - lo,
        min_max=hi,
        max_min=lo,
        entropy_bits=_entropy_bits(sums, total),
        min_entropy_bits=_min_entropy_bits(hi, total),
        product_of_sums=prod,
        product_overflow=prod > INT64_MAX,
        compression_numerator=cost,
        compression_bits=cost / total,
        subset_sums=sums,
    )
