"""Independent computations the benchmark checks kpart's outputs against.

Nothing here imports kpart: each value is computed a second way (heapq
instead of the two-queue merge, the Stirling recurrence instead of the
restricted-growth enumerator, decimal logarithms instead of float ones).
"""

from __future__ import annotations

import heapq
from decimal import Decimal, localcontext

# matches kpart's documented entropy tolerance; the float best value of an
# entropy sweep may sit anywhere inside this band around an optimum
ENTROPY_TOL = 1e-9


def stopped_merge(weights, k: int) -> tuple[int, list[int]]:
    """Merge the two smallest values until k remain, with a binary heap.

    Returns the total of all merged values (the compression numerator) and
    the k remaining values in ascending order.
    """
    heap = list(weights)
    heapq.heapify(heap)
    pop = heapq.heappop
    replace = heapq.heapreplace
    cost = 0
    for _ in range(len(heap) - k):
        a = pop(heap)
        s = a + heap[0]
        replace(heap, s)
        cost += s
    return cost, sorted(heap)


def merge_cost(weights) -> int:
    """Huffman merge cost of one group: the stopped merge run down to one value."""
    return stopped_merge(weights, 1)[0] if len(weights) > 1 else 0


def stirling_partitions(n: int, k: int) -> int:
    """Number of set partitions of n elements into at most k blocks."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row[1 : k + 1])


def group_sums(weights, assignment, k: int) -> list[int]:
    sums = [0] * k
    for w, a in zip(weights, assignment):
        sums[a] += w
    return sums


def entropy_bits(sums, total: int) -> Decimal:
    """Shannon entropy of sums/total in bits, at 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        m = Decimal(total)
        acc = sum((Decimal(q) * Decimal(q).ln() for q in sums if q), Decimal(0))
        return (m.ln() - acc / m) / ln2


def score(objective: str, weights, assignment, k: int):
    """Objective value of one partition, exact except for entropy (Decimal)."""
    if objective == "compression":
        groups: list[list[int]] = [[] for _ in range(k)]
        for w, a in zip(weights, assignment):
            groups[a].append(w)
        return sum(merge_cost(g) for g in groups)
    sums = group_sums(weights, assignment, k)
    if objective == "entropy":
        return entropy_bits(sums, sum(weights))
    if objective == "min_diff":
        return max(sums) - min(sums)
    if objective == "min_max":
        return max(sums)
    if objective == "max_min":
        return min(sums)
    if objective == "product_of_sums":
        prod = 1
        for q in sums:
            prod *= q
        return prod
    raise ValueError(f"no reference score for {objective!r}")


def matches_best(objective: str, value, best) -> bool:
    """Integer objectives match exactly; entropy matches within the band."""
    if objective == "entropy":
        return abs(value - Decimal(best)) <= Decimal(ENTROPY_TOL)
    return value == best
