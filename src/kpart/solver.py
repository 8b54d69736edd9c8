"""Solvers and oracles for multiway number partitioning.

stopped_huffman is the exact compression-objective solver: run the Huffman
merge loop until k values remain and read the partition off the merge
forest. brute_force exhaustively optimizes any objective on small instances
and backs the verification harnesses for the co-grouping lemma and the
recombination principle.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import ne

from .core import Instance, InputError, Partition, SizeLimitError, _check_covers
from .entropy import _entropy_bits
from .huffman import _merge, _merge_cost_sorted

OBJECTIVES = (
    "min_diff",
    "min_max",
    "max_min",
    "entropy",
    "min_entropy",
    "product_of_sums",
    "compression",
)

# exhaustive-search guard: partitions of n into at most k blocks grow like
# k**n, so the oracle refuses anything past this envelope
MAX_ORACLE_N = 14
MAX_ORACLE_K = 6

_ENTROPY_TOL = 1e-9

# stopped_huffman's labels follow the sorted leaves in runs; past this many
# runs one bisect per weight costs more than an argsort and a scatter. On
# uniform weights the two cost the same near 18k-30k runs at n = 2**20 and
# near 5k-10k runs at n = 2**16; either route is within about 10% of the
# other in between.
_MAX_LABEL_RUNS = 16384


# --- result types -----------------------------------------------------


class MergeTrace:
    """Merge history of one stopped-Huffman run.

    steps materializes lazily from the engine's node-value array and the
    child-id columns, so capturing a trace adds no per-step cost at large n.
    cost, the sum of the merged values, is the compression numerator of the
    run's own partition: compression_cost(inst, part) without regrouping.
    """

    __slots__ = ("_vals", "_left", "_right", "final_list")

    def __init__(self, node_values, left, right, final_list):
        self._vals = node_values
        self._left = left
        self._right = right
        self.final_list = tuple(final_list)

    @property
    def steps(self) -> tuple[tuple[int, int, int], ...]:
        """Ordered (value_a, value_b, merged_value) triple per merge."""
        vals = self._vals
        base = len(vals) - len(self._left)
        # built as a list first: a tuple grown from an iterator is
        # reallocated as it grows and re-enters the collector's youngest
        # generation each time, so every young collection rescans it
        steps = list(
            zip(
                map(vals.__getitem__, self._left),
                map(vals.__getitem__, self._right),
                vals[base:],
            )
        )
        return tuple(steps)

    @property
    def cost(self) -> int:
        """Sum of the merged values: the total merge cost of the run."""
        return sum(self._vals[len(self._vals) - len(self._left) :])

    def __len__(self) -> int:
        return len(self._left)

    def __eq__(self, other: object):
        if not isinstance(other, MergeTrace):
            return NotImplemented
        return self.steps == other.steps and self.final_list == other.final_list

    def __repr__(self) -> str:
        return f"MergeTrace(steps={len(self._left)}, final_list={self.final_list!r})"


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive sweep.

    optimal_partitions holds every optimum in canonical labels, sorted so
    the lexicographically smallest assignment comes first.
    """

    objective: str
    best_value: object
    optimal_partitions: tuple[Partition, ...]
    partitions_searched: int


@dataclass(frozen=True)
class Lemma2Report:
    """Unconstrained vs two-smallest-co-grouped compression minima."""

    unconstrained_min: int
    constrained_min: int
    partitions_searched: int

    @property
    def ok(self) -> bool:
        return self.unconstrained_min == self.constrained_min


@dataclass(frozen=True)
class RecombinationReport:
    """Outcome of recombining side-optimal subpartitions across label splits."""

    best_entropy: float
    recombinations_checked: int
    violations: int
    degenerate_splits: int
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


# --- stopped Huffman ---------------------------------------------------


def stopped_huffman(inst: Instance, k: int) -> tuple[Partition, MergeTrace]:
    """Merge the two smallest values until k remain; report the grouping.

    Elements merged together, transitively, share a group label. Groups are
    labeled canonically (first-occurrence order, equivalently ascending
    minimum element index). Ties on value go to the merged node over an
    equal-valued leaf; leaves enter in input order among equal weights.

    O(n log n): one sort of the weights, a linear two-queue merge loop, and
    a pass that carries the labels from sorted to input order. The labels
    of the sorted leaves form R runs of one label each (a few hundred at
    k = 16). With R <= _MAX_LABEL_RUNS, each weight finds its run by one
    bisect over the runs' first values, O(n log R); only the copies of a
    weight that straddle a run boundary are walked one by one. With more
    runs, as at large k, an argsort of the weights and a scatter do it,
    O(n log n).
    """
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    ws = inst.weights
    n = len(ws)
    if n <= k:
        assignment = tuple(range(n))
        return (
            Partition(assignment, k),
            MergeTrace([], [], [], tuple(sorted(ws))),
        )

    vals = sorted(ws)
    left, right, i, j = _merge(vals, k)
    cur = len(vals)

    # label the k surviving nodes in any order and push the labels down the
    # merge forest, so lbl[p] labels the leaf at sorted position p
    roots = list(range(i, n)) + list(range(j, cur))
    lbl = [0] * cur
    for g, r in enumerate(roots):
        lbl[r] = g
    t = cur - 1
    for lft, rgt in zip(reversed(left), reversed(right)):
        g = lbl[t]
        lbl[lft] = g
        lbl[rgt] = g
        t -= 1
    # carry the labels to input order as table[ids[e]] and relabel them in
    # first-occurrence order. Unless k is large, the sorted leaves fall into
    # few runs of one label, found by comparing neighbours; counting stops
    # once there are too many for the bisect route to pay
    starts = list(
        islice(compress(count(1), map(ne, lbl, islice(lbl, 1, n))), _MAX_LABEL_RUNS)
    )
    if len(starts) < _MAX_LABEL_RUNS:
        ids = _runs_in_input_order(ws, vals, starts)
        table = [lbl[0]]
        table += map(lbl.__getitem__, starts)
        perm = _first_occurrence(map(table.__getitem__, ids), k)
        table = list(map(perm.__getitem__, table))
    else:
        ids = [0] * n
        for e, g in zip(sorted(range(n), key=ws.__getitem__), lbl):
            ids[e] = g
        table = _first_occurrence(ids, k)
    part = Partition(tuple(map(table.__getitem__, ids)), k)
    final = tuple(sorted(map(vals.__getitem__, roots)))
    return part, MergeTrace(vals, left, right, final)


def _first_occurrence(labels, k: int) -> list[int]:
    """Map each of k labels to its rank of first appearance in labels.

    Stops at the last label's first appearance, so it reads only a prefix.
    """
    perm = [-1] * k
    seen = 0
    for g in labels:
        if perm[g] < 0:
            perm[g] = seen
            seen += 1
            if seen == k:
                break
    return perm


def _runs_in_input_order(ws, vals, starts) -> list[int]:
    """Run index of each weight, in input order, for stopped_huffman.

    vals[:n] are the weights sorted, and starts the sorted positions where
    a new run of one label begins after position 0. A weight lies in the
    last run starting at or below it, found by one bisect. Equal copies of
    a weight that straddle a run boundary take successive sorted positions
    in input order, as the merge consumed them.
    """
    n = len(ws)
    runs = list(map(bisect_right, repeat(list(map(vals.__getitem__, starts))), ws))
    tied = {vals[p] for p in starts if vals[p - 1] == vals[p]}
    if tied:
        nxt = {v: bisect_left(vals, v, 0, n) for v in tied}
        for e in compress(count(), map(tied.__contains__, ws)):
            p = nxt[ws[e]]
            nxt[ws[e]] = p + 1
            runs[e] = bisect_right(starts, p)
    return runs


# --- exhaustive oracle -------------------------------------------------


def _assignments_up_to_k(n: int, k: int):
    """Yield every restricted growth string over n elements with <= k blocks.

    The yielded list is reused between iterations; callers copy what they
    keep. Each set partition appears exactly once.
    """
    a = [0] * n
    m = [0] * n  # m[i] = max(a[:i+1])
    top_cap = k - 1
    yield a
    while True:
        i = n - 1
        while i > 0:
            top = m[i - 1] + 1
            if top > top_cap:
                top = top_cap
            if a[i] < top:
                break
            i -= 1
        if i == 0:
            return
        a[i] += 1
        m[i] = a[i] if a[i] > m[i - 1] else m[i - 1]
        for p in range(i + 1, n):
            a[p] = 0
            m[p] = m[i]
        yield a


def _guard_oracle(n: int, k: int) -> None:
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    if n > MAX_ORACLE_N:
        raise SizeLimitError(f"oracle handles at most {MAX_ORACLE_N} elements, got {n}")
    if k > MAX_ORACLE_K:
        raise SizeLimitError(f"oracle handles at most k={MAX_ORACLE_K}, got {k}")


def _to_original_partition(a, order, k: int) -> Partition:
    """Map an assignment over sorted positions back to canonical original labels."""
    orig = [0] * len(a)
    for p, e in enumerate(order):
        orig[e] = a[p]
    return Partition(tuple(orig), k).canonical()


def _int_sweep(w, k: int, objective: str):
    """Exhaustive sweep for the exact integer objectives.

    w is ascending, so each bucket fills in ascending order and feeds the
    merge-cost fast path directly. Returns (best, rgs copies, searched).
    """
    n = len(w)
    minimize = objective in ("min_diff", "min_max", "compression")
    compression = objective == "compression"
    best = None
    picks: list[list[int]] = []
    searched = 0
    for a in _assignments_up_to_k(n, k):
        searched += 1
        if compression:
            blocks = max(a) + 1
            buckets: list[list[int]] = [[] for _ in range(blocks)]
            for e in range(n):
                buckets[a[e]].append(w[e])
            val = 0
            for b in buckets:
                if len(b) > 1:
                    val += _merge_cost_sorted(b)
        else:
            sums = [0] * k
            for e in range(n):
                sums[a[e]] += w[e]
            if objective == "min_diff":
                val = max(sums) - min(sums)
            elif objective == "min_max":
                val = max(sums)
            elif objective == "max_min":
                val = min(sums)
            else:  # product_of_sums
                val = 1
                for q in sums:
                    val *= q
        if best is None or (val < best if minimize else val > best):
            best = val
            picks = [a.copy()]
        elif val == best:
            picks.append(a.copy())
    return best, picks, searched


def _entropy_sweep(w, k: int, total: int):
    """Exhaustive entropy sweep with exact subset-sum multiset tie-grouping.

    Entropy depends only on the multiset of nonzero subset sums, so values
    are cached per multiset and candidates within 1e-9 of the running best
    are kept, then filtered against the final best.
    """
    n = len(w)
    log2 = math.log2
    cache: dict[tuple[int, ...], list] = {}
    best = -1.0
    searched = 0
    for a in _assignments_up_to_k(n, k):
        searched += 1
        sums = [0] * k
        for e in range(n):
            sums[a[e]] += w[e]
        key = tuple(sorted(q for q in sums if q))
        entry = cache.get(key)
        if entry is None:
            acc = math.fsum(q * log2(q) for q in key)
            h = log2(total) - acc / total
            if h < 0.0:
                h = 0.0
            entry = [h, []]
            cache[key] = entry
            if h > best:
                best = h
        if entry[0] >= best - _ENTROPY_TOL:
            entry[1].append(a.copy())
    picks: list[list[int]] = []
    for h, stored in cache.values():
        if h >= best - _ENTROPY_TOL:
            picks.extend(stored)
    return best, picks, searched


def brute_force(inst: Instance, k: int, objective: str) -> OracleResult:
    """Exhaustively optimize one objective over all partitions into <= k blocks.

    Enumerates restricted growth strings over the elements sorted by weight
    and returns every optimum. Exact integer objectives compare exactly;
    entropy uses a 1e-9 band with exact subset-sum multiset tie-grouping,
    and min_entropy reduces exactly to minimizing the largest subset sum.
    Guarded to n <= 14 and k <= 6.
    """
    if objective not in OBJECTIVES:
        raise InputError(
            f"unknown objective {objective!r}; expected one of {', '.join(OBJECTIVES)}"
        )
    n = len(inst.weights)
    _guard_oracle(n, k)
    order = sorted(range(n), key=inst.weights.__getitem__)
    w = [inst.weights[e] for e in order]

    if objective == "entropy":
        best, picks, searched = _entropy_sweep(w, k, inst.total)
    elif objective == "min_entropy":
        best_mq, picks, searched = _int_sweep(w, k, "min_max")
        best = math.log2(inst.total) - math.log2(best_mq)
        if best < 0.0:
            best = 0.0
    else:
        best, picks, searched = _int_sweep(w, k, objective)

    parts = sorted(
        (_to_original_partition(a, order, k) for a in picks),
        key=lambda p: p.assignment,
    )
    return OracleResult(objective, best, tuple(parts), searched)


# --- baseline ----------------------------------------------------------


def greedy_baseline(inst: Instance, k: int) -> Partition:
    """Largest-first greedy: place each weight into the lightest group so far.

    Ties prefer the lowest group label. Comparison baseline only; carries no
    optimality claim for any objective.
    """
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    n = len(inst.weights)
    heap = [(0, lbl) for lbl in range(k)]
    order = sorted(range(n), key=lambda e: (-inst.weights[e], e))
    out = [0] * n
    for e in order:
        s, lbl = heapq.heappop(heap)
        out[e] = lbl
        heapq.heappush(heap, (s + inst.weights[e], lbl))
    return Partition(tuple(out), k).canonical()


# --- verification harnesses --------------------------------------------


def verify_lemma2(inst: Instance, k: int) -> Lemma2Report:
    """Check that co-grouping the two smallest weights cannot hurt compression.

    Sweeps every partition into at most k blocks, tracking the minimum
    integer compression cost overall and restricted to candidates whose two
    smallest weights share a group. Requires n > k.
    """
    n = len(inst.weights)
    if n <= k:
        raise InputError(f"requires n > k, got n={n} and k={k}")
    _guard_oracle(n, k)
    order = sorted(range(n), key=inst.weights.__getitem__)
    w = [inst.weights[e] for e in order]
    # sorted positions 0 and 1 hold the two smallest weights
    un_min = None
    con_min = None
    searched = 0
    for a in _assignments_up_to_k(n, k):
        searched += 1
        blocks = max(a) + 1
        buckets: list[list[int]] = [[] for _ in range(blocks)]
        for e in range(n):
            buckets[a[e]].append(w[e])
        cost = 0
        for b in buckets:
            if len(b) > 1:
                cost += _merge_cost_sorted(b)
        if un_min is None or cost < un_min:
            un_min = cost
        if a[1] == a[0] and (con_min is None or cost < con_min):
            con_min = cost
    return Lemma2Report(un_min, con_min, searched)


def conditional_subinstance(
    inst: Instance, p: Partition, labels
) -> tuple[Instance, list[int]]:
    """Restrict an instance to the elements whose group label lies in labels.

    Returns the sub-instance plus the member indices in original order. A
    label set capturing every element or none is a degenerate split and is
    rejected.
    """
    _check_covers(inst, p)
    lset = set(labels)
    if not lset or not lset.issubset(range(p.k)):
        raise InputError("labels must be a nonempty subset of range(k)")
    members = [e for e, a in enumerate(p.assignment) if a in lset]
    if not members or len(members) == len(p.assignment):
        raise InputError("degenerate split: both sides need at least one element")
    return Instance(tuple(inst.weights[e] for e in members)), members


def verify_principle_of_optimality(
    inst: Instance, k: int, trials: int | None = None
) -> RecombinationReport:
    """Recombine side-optimal subpartitions of entropic optima across label splits.

    For every brute-force entropic optimum and every bipartition of the
    label set, the two induced element subsets are re-optimized
    independently with their side's label budget; every cross pairing of
    side optima is recombined and must reproduce the optimal entropy within
    1e-9. Splits whose sides hold no elements are counted as degenerate and
    skipped. trials, when given, caps the number of recombinations checked.
    """
    res = brute_force(inst, k, "entropy")
    best = res.best_value
    total = inst.total
    checked = 0
    violations = 0
    degenerate = 0
    max_dev = 0.0
    for part in res.optimal_partitions:
        for mask in range(1 << (k - 1), 1 << k):
            # masks with the top label bit set: each unordered bipartition
            # of the labels {0..k-1} appears exactly once, no empty side of
            # labels is possible except mask covering all, skipped below
            side1 = [lbl for lbl in range(k) if (mask >> lbl) & 1]
            side2 = [lbl for lbl in range(k) if not (mask >> lbl) & 1]
            if not side2:
                continue
            try:
                sub1, elems1 = conditional_subinstance(inst, part, side1)
                sub2, elems2 = conditional_subinstance(inst, part, side2)
            except InputError:
                degenerate += 1
                continue
            k1 = len(side1)
            k2 = len(side2)
            r1 = brute_force(sub1, k1, "entropy")
            r2 = brute_force(sub2, k2, "entropy")
            for g1 in r1.optimal_partitions:
                for g2 in r2.optimal_partitions:
                    if trials is not None and checked >= trials:
                        return RecombinationReport(
                            best, checked, violations, degenerate, max_dev
                        )
                    sums = [0] * (k1 + k2)
                    for e, a in zip(elems1, g1.assignment):
                        sums[a] += inst.weights[e]
                    for e, a in zip(elems2, g2.assignment):
                        sums[k1 + a] += inst.weights[e]
                    h = _entropy_bits(sums, total)
                    dev = abs(h - best)
                    if dev > max_dev:
                        max_dev = dev
                    if dev > _ENTROPY_TOL:
                        violations += 1
                    checked += 1
    return RecombinationReport(best, checked, violations, degenerate, max_dev)
