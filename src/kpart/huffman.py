"""Binary Huffman codes over integer weights with exact cost accounting.

Construction is the two-queue method over pre-sorted weights (van Leeuwen,
ICALP 1976): leaves are consumed in ascending order while merged nodes
queue up behind them, already sorted because merge values never decrease.
Each step takes the two smallest front values; merged nodes win ties
against equal-valued leaves.

_merge runs that loop one merge at a time and records each node's two
children. build_huffman runs it to a single root, since each leaf's depth
needs the children. stopped_huffman, the exact solver for the most
compressible partition into k groups, stops it once k values remain. It
needs only values and the groups' label runs over the sorted leaves, so
_batched_merge makes the same merges in at most 122 batches of C-level
list work, and _label_runs reads the runs off the values by bisection;
with few weights per group the loop and its children label the leaves
instead. The cost-only fold _merge_cost_sorted stays separate: the
exhaustive oracle's table fill calls it for each subset of up to 14
weights whose cost it cannot read off a smaller subset's, up to 16,384
groups, where the engine's sentinel padding and child columns cost
1.0-2.5x the fold's time per call (most for the smallest groups), while a
heapq fold is 2.2-4.7x slower than it at 4k to 64k weights (2 CPUs,
Python 3.11).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import add, ne, sub

from .core import MAX_ELEMENTS, MAX_WEIGHT, Instance, InputError, Partition
from .core import _check_k, _check_weights, _first_occurrence

# Pads both queues so the hot loop needs no emptiness checks. A merge sums
# some of the weights, so any value above the largest possible total,
# MAX_WEIGHT * MAX_ELEMENTS, exceeds every merge sum; this is 2**62.
_SENTINEL = 4 * MAX_WEIGHT * MAX_ELEMENTS

# stopped_huffman's labels follow the sorted leaves in runs; past this many
# runs one bisect per weight costs more than an argsort and a scatter. On
# uniform weights the two cost the same near 18k-30k runs at n = 2**20 and
# near 5k-10k runs at n = 2**16; either route is within about 10% of the
# other in between.
_MAX_LABEL_RUNS = 16384


def _merge(vals: list[int], k: int) -> tuple[list[int], list[int], int, int]:
    """Merge the two smallest values of ascending vals until at most k remain.

    vals grows in place to the node-value array: ids 0..n-1 are the sorted
    leaves, n a sentinel, n+1.. the merged nodes in creation order. Returns
    the child-id columns, left[t] and right[t] merged into node n+1+t, and
    the queue fronts: leaves i..n-1 and merged nodes j.. are the values
    left. Needs k >= 1 and values inside the size envelope. With k >= n it
    merges nothing: both columns are empty, i = 0 and j = n + 1.
    """
    n = len(vals)
    merges = n - k
    vals.append(_SENTINEL)
    vals.extend([_SENTINEL] * merges)
    left = [0] * merges
    right = [0] * merges
    i = 0
    j = n + 1
    cur = n + 1
    lf = vals[0]
    mf = _SENTINEL
    for t in range(merges):
        if mf <= lf:
            left[t] = j
            s = mf
            j += 1
            mf = vals[j]
        else:
            left[t] = i
            s = lf
            i += 1
            lf = vals[i]
        if mf <= lf:
            right[t] = j
            s += mf
            j += 1
            mf = vals[j]
        else:
            right[t] = i
            s += lf
            i += 1
            lf = vals[i]
        vals[cur] = s
        if j == cur:
            mf = s
        cur += 1
    return left, right, i, j


@dataclass(frozen=True)
class HuffmanCode:
    """Per-symbol codeword lengths plus the exact weighted-length numerator.

    cost_numerator = sum of weight * length over all symbols, which equals
    the sum of all merge-node weights created during construction. A single
    symbol needs no bits: lengths = (0,) and cost_numerator = 0.
    """

    lengths: tuple[int, ...]
    cost_numerator: int
    weight_total: int


def build_huffman(weights) -> HuffmanCode:
    """Construct an optimal prefix-free code over positive integer weights.

    Lengths are reported in input order. Runs in O(n log n): one sort, then
    a linear merge loop. Weights follow the Instance rules (an iterable of
    positive ints, not bools, inside the size envelope); InputError or
    SizeLimitError otherwise, and InputError for no weights at all.
    """
    ws, total = _check_weights(weights)
    n = len(ws)
    if n == 0:
        raise InputError("cannot build a code over no symbols")
    order = sorted(range(n), key=ws.__getitem__)
    vals = [ws[p] for p in order]
    left, right, _, _ = _merge(vals, 1)
    depth = [0] * len(vals)
    # walk the merges from the root down: a node's depth is set before its
    # children's, because it was created after them
    t = len(vals) - 1
    for a, b in zip(reversed(left), reversed(right)):
        d = depth[t] + 1
        depth[a] = d
        depth[b] = d
        t -= 1
    lengths = [0] * n
    for pos, e in enumerate(order):
        lengths[e] = depth[pos]
    return HuffmanCode(tuple(lengths), sum(vals[n + 1 :]), total)


def expected_length_bits(code: HuffmanCode) -> float:
    """E(l(X)) = cost_numerator / weight_total as a float."""
    return code.cost_numerator / code.weight_total


def merge_cost(weights) -> int:
    """Total merge weight of the Huffman construction over these weights.

    Equals build_huffman(weights).cost_numerator without building lengths;
    0 for fewer than two symbols. Accepts the same weights as build_huffman.
    """
    return _merge_cost_sorted(sorted(_check_weights(weights)[0]))


def _merge_cost_sorted(ws) -> int:
    """merge_cost fast path for an already ascending list; 0 below two weights."""
    g = len(ws)
    cost = 0
    merged: list[int] = []
    append = merged.append
    end = 0
    i = 0
    j = 0
    for _ in range(g - 1):
        if j < end and (i >= g or merged[j] <= ws[i]):
            va = merged[j]
            j += 1
        else:
            va = ws[i]
            i += 1
        if j < end and (i >= g or merged[j] <= ws[i]):
            vb = merged[j]
            j += 1
        else:
            vb = ws[i]
            i += 1
        s = va + vb
        cost += s
        append(s)
        end += 1
    return cost


# --- stopped Huffman ---------------------------------------------------

# _stopped_merge merges in batches only with more than this many weights per
# group. Its label work costs about 2 µs per label run over the leaves or the
# merged values, where the loop route's push-down and per-merge loop cost
# about 0.5 µs per weight more than the batched merge. Each group has at
# least one leaf run, and 2**20 log-uniform weights have about 30 per group
# at k = 2**10 and 15 at k = 2**14 (uniform [1, 2**30] weights about 10 and
# 6), so the batched route stops paying near k = n / 256 there (2 CPUs,
# Python 3.11).
_MIN_WEIGHTS_PER_GROUP = 256


class MergeTrace:
    """Merge history of one stopped-Huffman run.

    The merge consumes values in ascending order, and merge t sums the
    consumed values 2t and 2t+1. So the trace keeps only the two queues and
    their fronts: leaves[:i] and merged[m0:j] were consumed, and merged[m0:]
    are the merged values in creation order. The batched route keeps the
    queues apart (m0 = 0); on the loop route both are _merge's node array,
    read in place (m0 = n + 1). Its steps are read off the sorted union of
    the consumed values when asked, so capturing a trace adds no per-step
    cost. cost, the sum of the merged values, is the compression numerator
    of the run's own partition: compression_cost(inst, part) without
    regrouping.
    """

    __slots__ = ("_leaves", "_i", "_merged", "_m0", "_j", "final_list")

    def __init__(self, leaves, i, merged, m0, j, roots):
        self._leaves, self._i, self._merged, self._m0, self._j = leaves, i, merged, m0, j
        self.final_list = tuple(sorted(roots))

    def iter_steps(self):
        """Iterator of the (value_a, value_b, merged_value) triple per merge,
        in merge order. The consumed values are sorted first, one merge of
        two ascending runs; the triples are built one at a time."""
        merged, m0 = self._merged, self._m0
        consumed = self._leaves[: self._i] + merged[m0 : self._j]
        consumed.sort()
        return zip(islice(consumed, 0, None, 2), islice(consumed, 1, None, 2), islice(merged, m0, None))

    @property
    def steps(self) -> tuple[tuple[int, int, int], ...]:
        """Ordered (value_a, value_b, merged_value) triple per merge."""
        # built as a list first: a tuple grown from an iterator is
        # reallocated as it grows and re-enters the collector's youngest
        # generation each time, so every young collection rescans it
        return tuple(list(self.iter_steps()))

    @property
    def cost(self) -> int:
        """Sum of the merged values: the total merge cost of the run."""
        return sum(islice(self._merged, self._m0, None))

    def __len__(self) -> int:
        return len(self._merged) - self._m0

    def __eq__(self, other: object):
        if not isinstance(other, MergeTrace):
            return NotImplemented
        return self.steps == other.steps and self.final_list == other.final_list

    def __repr__(self) -> str:
        return f"MergeTrace(steps={len(self)}, final_list={self.final_list!r})"


def stopped_huffman(inst: Instance, k: int) -> tuple[Partition, MergeTrace]:
    """Merge the two smallest values until k remain; report the grouping.

    Elements merged together, transitively, share a group label. Groups are
    labeled canonically (first-occurrence order, equivalently ascending
    minimum element index). Ties on value go to the merged node over an
    equal-valued leaf; leaves enter in input order among equal weights.

    O(n log n), in two parts. _stopped_merge sorts the weights, merges them
    in at most 122 linear batches and carries each root's label down to the
    sorted leaves as R label runs (a few hundred at k = 16), O(R log n).
    With at most _MIN_WEIGHTS_PER_GROUP weights per group, the linear
    two-queue loop labels every leaf instead. The forest it returns then
    carries the labels to input order. With R <= _MAX_LABEL_RUNS, each
    weight finds its run by one bisect over the runs' first values,
    O(n log R); only the copies of a weight that straddle a run boundary
    are walked one by one. With more runs, as at large k, an argsort of
    the weights and a scatter do it, O(n log n).
    With n <= k nothing merges: each element is its own group, labeled by
    its index, and the trace has no steps and cost 0.
    """
    forest = _stopped_merge(inst, k)
    return forest.partition(), forest.trace


def _stopped_merge(inst: Instance, k: int) -> _Forest:
    """The merge part of stopped_huffman: sort, merge, and label the forest.

    Each root, a group, is labeled by its index in leaves[i:n] + merged[j:].
    Nothing is carried to input order.

    Batched route. Let x be the smallest value left. Every node still to be
    made sums two values of at least x, so it is at least 2x, and every
    value below 2x is consumed before any new node: in ascending order, a
    merged value before an equal leaf. One batch takes those values, sorts
    them (two ascending runs, so one timsort merge) and sums them in pairs.
    The bound is strict, so every value the batch leaves and every node it
    makes is at least 2x: no tie crosses a batch. An odd batch leaves its
    largest value to the next; a batch of x alone merges x with the
    smallest value after it, a single merge. Either way every value left
    two batches on is at least 2x: the next batch's smallest value x' is
    its leftover or at least 2x, and a leftover of that batch is at least
    2x unless the batch is x' alone. The smallest value left thus doubles
    every two batches and stays at most the total weight M, so there are
    at most 2 * log2(M / w_min) + 2 batches, 122 inside the size envelope
    (M <= 2**60).

    The labels need no child columns. The value at consumed position q
    belongs to merge q // 2, and one bisect in each queue places any
    consumed position among the leaves and merged values of its batch. So
    the roots' labels are carried down as runs over the merged values and
    the leaves, one batch at a time from the last, moving only run
    boundaries: O(R log n) for R runs.

    Loop route. A run boundary costs about 2 µs, so with few weights per
    group _merge's loop and child columns label every leaf instead, for
    about 0.5 µs per weight more than the batched merge. The leaves' runs
    are then found by comparing neighbours, and counting stops at
    _MAX_LABEL_RUNS: past it, partition() takes the argsort route, and each
    leaf is kept as its own run, labeled as pushed down. The forest reads
    the node array in place and keeps no child column.
    """
    _check_k(k)
    ws = inst.weights
    n = len(ws)
    leaves = sorted(ws)
    if n > _MIN_WEIGHTS_PER_GROUP * k:
        merged, i, j, batches = _batched_merge(leaves, n - k)
        runs = _label_runs(leaves, merged, i, j, batches)
        return _Forest(ws, k, leaves, i, merged, 0, j, runs)
    left, right, i, j = _merge(leaves, k)
    cur = len(leaves)
    # label the k surviving nodes and push the labels down the merge
    # forest, so lbl[p] labels the leaf at sorted position p
    lbl = [0] * cur
    for g, r in enumerate(chain(range(i, n), range(j, cur))):
        lbl[r] = g
    t = cur - 1
    for lft, rgt in zip(reversed(left), reversed(right)):
        g = lbl[t]
        lbl[lft] = g
        lbl[rgt] = g
        t -= 1
    del lbl[n:]
    runs = _runs_along(lbl, _MAX_LABEL_RUNS)
    if len(runs[0]) == _MAX_LABEL_RUNS:
        runs = range(1, n), lbl
    # the node array holds the leaves, a sentinel and the merged values
    return _Forest(ws, k, leaves, i, leaves, n + 1, j, runs)


def _runs_along(lbl, most=None) -> tuple[list[int], list[int]]:
    """(starts, table) of lbl's runs of one label, found by comparing
    neighbours; counting stops at most starts."""
    starts = list(islice(compress(count(1), map(ne, lbl, islice(lbl, 1, None))), most))
    return starts, [lbl[0], *map(lbl.__getitem__, starts)]


def _batched_merge(leaves, merges: int):
    """The first merges steps of the two-queue loop over ascending leaves.

    Returns the merged values in creation order, the fronts i and j
    (leaves[:i] and merged[:j] were consumed) and the batches, each as
    (t, i, j, c): merge t is its first, i and j the fronts before it, and c
    its consumed values, sorted (with one more at the end if it was odd).
    """
    n = len(leaves)
    merged: list[int] = []
    batches = []
    i = j = t = 0
    while t < merges:
        x = leaves[i] if i < n else _SENTINEL
        if j < t and merged[j] <= x:
            x = merged[j]
        li = bisect_left(leaves, 2 * x, i)
        mj = bisect_left(merged, 2 * x, j)
        # c is extended in place and summed through islice, not slices: a
        # pass over a large batch touches each value's object, scattered in
        # memory, so fewer passes run faster (0.29 -> 0.21 s on 2**20
        # uniform weights, 2 CPUs, Python 3.11)
        c = leaves[i:li]
        c += merged[j:mj]
        c.sort()
        batches.append((t, i, j, c))
        m = min(len(c) & -2, 2 * (merges - t))
        if m:
            merged += map(add, islice(c, 0, m, 2), islice(c, 1, m, 2))
            t += m >> 1
            i, j = _split(c, m, leaves, i, li, merged, j, mj) if m < len(c) else (li, mj)
            continue
        # x alone lies below 2x: it merges with the smallest value after it
        if mj > j:
            j += 1
        else:
            i += 1
        y = leaves[i] if i < n else _SENTINEL
        if j < t and merged[j] <= y:
            y = merged[j]
            j += 1
        else:
            i += 1
        c.append(y)
        merged.append(x + y)
        t += 1
    return merged, i, j, batches


def _split(c, r: int, leaves, i: int, li: int, merged, j: int, mj: int) -> tuple[int, int]:
    """The fronts after the first r values of one batch's consumed values c.

    c holds leaves[i:li] and merged[j:mj] sorted; the batch consumes them in
    that order, merged values before equal leaves.
    """
    u = c[r]
    a = bisect_left(leaves, u, i, li)
    b = bisect_left(merged, u, j, mj)
    tied = r - (a - i) - (b - j)  # values equal to u among the first r
    e = bisect_right(merged, u, b, mj) - b
    if tied <= e:
        return a, b + tied
    return a + tied - e, b + e


def _label_runs(leaves, merged, i: int, j: int, batches):
    """The sorted leaves' label runs after _batched_merge.

    Returns (starts, table): a new run begins at each sorted position in
    starts, all after position 0, and table[r] labels run r. Each run list
    is built top down, as its runs' first positions and labels, from the
    roots: leaves[i:] labeled 0.., then merged[j:].
    """
    n, t = len(leaves), len(merged)
    lstart = list(range(n - 1, i - 1, -1))
    llabel = list(range(n - 1 - i, -1, -1))
    mstart = list(range(t - 1, j - 1, -1))
    mlabel = list(range(n - i + t - j - 1, n - i - 1, -1))
    q = 0
    for t0, i0, j0, c in reversed(batches):
        # the runs over this batch's merges t0..t-1 split its consumed
        # leaves[i0:i] and merged[j0:j] into runs, from the top down
        while mstart[q] >= t:
            q += 1
        hl, hm = i, j
        while True:
            s, g = mstart[q], mlabel[q]
            a, b = _split(c, 2 * (s - t0), leaves, i0, i, merged, j0, j) if s > t0 else (i0, j0)
            if a < hl:
                if llabel and llabel[-1] == g:
                    lstart[-1] = a
                else:
                    lstart.append(a)
                    llabel.append(g)
            if b < hm:
                if mlabel[-1] == g:
                    mstart[-1] = b
                else:
                    mstart.append(b)
                    mlabel.append(g)
            if s <= t0:
                break
            hl, hm = a, b
            q += 1
        t, i, j = t0, i0, j0
    lstart.reverse()
    llabel.reverse()
    return lstart[1:], llabel


class _Forest:
    """The labeled merge forest of one stopped_huffman run.

    leaves[:n] are the weights sorted and merged[j:] the merged values left,
    as in the trace; the roots, one per group, are leaves[i:n] +
    merged[j:], and a root's label is its index there. The
    leaves fall into runs of one label, given as (starts, table): a new run
    begins at each sorted position in starts, all after position 0, and
    table[r] labels run r. Neighbouring runs may share a label: on the loop
    route past _MAX_LABEL_RUNS runs each leaf is its own run. A canonical
    label ranks a root's label by its first occurrence in input order.

    sums() and sizes() read each group off its root and its runs, for
    O(k + R) work, and rank the labels on an input prefix at most twice as
    long as the shortest that shows every one of them (52 and 60 elements
    on the envelope benchmark's 2**20 log-uniform weights, seeds 7 and 1,
    at k = 16). Only partition() carries a label to every element.
    """

    __slots__ = ("trace", "_ws", "_k", "_leaves", "_roots", "_runs", "_perm", "_sizes")

    def __init__(self, ws, k, leaves, i, merged, m0, j, runs):
        self._ws, self._k, self._leaves, self._runs = ws, k, leaves, runs
        self._roots = leaves[i : len(ws)] + merged[j:]
        self.trace = MergeTrace(leaves, i, merged, m0, j, self._roots)
        self._perm = self._sizes = None  # each computed once, when first asked

    def _leaf_runs(self) -> tuple[list[int], list[int]]:
        """The runs with neighbours of one label joined, as the loop route
        leaves them apart when each leaf is its own run."""
        starts, table = self._runs
        return _runs_along(table) if len(table) == len(self._ws) else (starts, table)

    def _order(self) -> list[int]:
        """The canonical label of each root's label, read off input
        prefixes of doubling length until one shows every label."""
        if self._perm is None:
            ws, k = self._ws, self._k
            n = len(ws)
            starts, table = self._leaf_runs()
            m = len(self._roots)
            while True:
                ids = _runs_in_input_order(ws[:m], self._leaves, starts, n)
                perm = _first_occurrence(map(table.__getitem__, ids), k)
                if m >= n or -1 not in perm:
                    break
                m = min(2 * m, n)
            self._perm = perm
        return self._perm

    def _raw_sizes(self) -> list[int]:
        """Each root's label's member count, the total length of its runs; 0
        for the labels past the roots."""
        if self._sizes is None:
            starts, table = self._leaf_runs()
            sizes = self._sizes = [0] * self._k
            ends = chain(starts, (len(self._ws),))
            for g, a, b in zip(table, chain((0,), starts), ends):
                sizes[g] += b - a
        return self._sizes

    def smallest(self) -> int:
        """The fewest members of any label; needs no canonical labels."""
        return min(self._raw_sizes())

    def sums(self) -> tuple[int, ...]:
        """Each canonical label's sum, its root's value; 0 past the groups."""
        return self._ranked(self._roots)

    def sizes(self) -> tuple[int, ...]:
        """Each canonical label's member count."""
        return self._ranked(self._raw_sizes())

    def _ranked(self, values) -> tuple[int, ...]:
        """values, one per root's label, placed at the canonical labels."""
        perm = self._order()
        out = [0] * self._k
        for g, v in zip(range(len(self._roots)), values):
            out[perm[g]] = v
        return tuple(out)

    def partition(self) -> Partition:
        """stopped_huffman's partition: the canonical label of every element."""
        ws, k = self._ws, self._k
        n = len(ws)
        starts, table = self._runs
        # carry the labels to input order as table[ids[e]] and relabel them in
        # first-occurrence order
        if len(starts) < _MAX_LABEL_RUNS:
            ids = _runs_in_input_order(ws, self._leaves, starts, n)
            perm = self._perm = _first_occurrence(map(table.__getitem__, ids), k)
            table = list(map(perm.__getitem__, table))
            return Partition._derived(tuple(map(table.__getitem__, ids)), k)
        # with more runs, an argsort scatters every leaf's label, which is
        # the table itself once each leaf is its own run
        lbl = table
        if len(table) < n:
            ends = chain(starts, (n,))
            lbl = chain.from_iterable(map(repeat, table, map(sub, ends, chain((0,), starts))))
        ids = [0] * n
        for e, g in zip(sorted(range(n), key=ws.__getitem__), lbl):
            ids[e] = g
        perm = self._perm = _first_occurrence(ids, k)
        return Partition._derived(tuple(map(perm.__getitem__, ids)), k)


def _runs_in_input_order(ws, leaves, starts, n: int) -> list[int]:
    """Run index of each weight, in input order, for stopped_huffman.

    leaves[:n] are the n weights sorted, ws the weights in input order or a
    prefix of them, and starts the sorted positions where a new run of one
    label begins after position 0. A weight lies in the last run starting
    at or below it, found by one bisect. Equal copies of a weight that
    straddle a run boundary take successive sorted positions in input
    order, as the merge consumed them.
    """
    runs = list(map(bisect_right, repeat(list(map(leaves.__getitem__, starts))), ws))
    tied = {leaves[p] for p in starts if leaves[p - 1] == leaves[p]}
    if tied:
        nxt = {v: bisect_left(leaves, v, 0, n) for v in tied}
        for e in compress(count(), map(tied.__contains__, ws)):
            p = nxt[ws[e]]
            nxt[ws[e]] = p + 1
            runs[e] = bisect_right(starts, p)
    return runs
