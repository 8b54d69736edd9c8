"""Binary Huffman codes over integer weights with exact cost accounting.

Construction is the two-queue method over pre-sorted weights (van Leeuwen,
ICALP 1976): leaves are consumed in ascending order while merged nodes
queue up behind them, already sorted because merge values never decrease.
Each step takes the two smallest front values; merged nodes win ties
against equal-valued leaves.

_merge is the one engine for that loop. build_huffman runs it to a single
root; stopped_huffman, the exact solver for the most compressible
partition into k groups, runs it until k values remain and reads the
groups off the merge forest. The cost-only
fold _merge_cost_sorted stays separate: the exhaustive oracle's table fill
calls it for each subset of up to 14 weights whose cost it cannot read
off a smaller subset's, up to 16,384 groups, where the engine's sentinel
padding and child columns cost
1.0-2.5x the fold's time per call (most for the smallest groups), while a
heapq fold is 2.2-4.7x slower than it at 4k to 64k weights (2 CPUs,
Python 3.11).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import ne

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


class MergeTrace:
    """Merge history of one stopped-Huffman run.

    Its steps are read lazily off the engine's node-value array and the
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

    def iter_steps(self):
        """Iterator of the (value_a, value_b, merged_value) triple per merge,
        in merge order, built one at a time."""
        vals = self._vals
        return zip(
            map(vals.__getitem__, self._left),
            map(vals.__getitem__, self._right),
            islice(vals, len(vals) - len(self._left), None),
        )

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
        return sum(self._vals[len(self._vals) - len(self._left) :])

    def __len__(self) -> int:
        return len(self._left)

    def __eq__(self, other: object):
        if not isinstance(other, MergeTrace):
            return NotImplemented
        return self.steps == other.steps and self.final_list == other.final_list

    def __repr__(self) -> str:
        return f"MergeTrace(steps={len(self._left)}, final_list={self.final_list!r})"


def stopped_huffman(inst: Instance, k: int) -> tuple[Partition, MergeTrace]:
    """Merge the two smallest values until k remain; report the grouping.

    Elements merged together, transitively, share a group label. Groups are
    labeled canonically (first-occurrence order, equivalently ascending
    minimum element index). Ties on value go to the merged node over an
    equal-valued leaf; leaves enter in input order among equal weights.

    O(n log n), in two parts. _stopped_merge sorts the weights, runs the
    linear two-queue merge loop and pushes each root's label down to the
    sorted leaves, which fall into R runs of one label each (a few hundred
    at k = 16). The forest it returns then carries the labels to input
    order. With R <= _MAX_LABEL_RUNS, each weight finds its run by one
    bisect over the runs' first values, O(n log R); only the copies of a
    weight that straddle a run boundary are walked one by one. With more
    runs, as at large k, an argsort of the weights and a scatter do it,
    O(n log n). With n <= k nothing merges: each element is its own group,
    labeled by its index, and the trace has no steps and cost 0.
    """
    forest = _stopped_merge(inst, k)
    return forest.partition(), forest.trace


def _stopped_merge(inst: Instance, k: int) -> _Forest:
    """The merge part of stopped_huffman: sort, merge, and label the forest.

    Each root, a group, is labeled by its index in the roots; the labels
    are pushed down to the sorted leaves, and the leaves' runs of one label
    are counted up to _MAX_LABEL_RUNS. Nothing is carried to input order.
    """
    _check_k(k)
    ws = inst.weights
    n = len(ws)
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
    # unless k is large, the sorted leaves fall into few runs of one label,
    # found by comparing neighbours; counting stops once there are too many
    # for the bisect route to pay
    starts = list(
        islice(compress(count(1), map(ne, lbl, islice(lbl, 1, n))), _MAX_LABEL_RUNS)
    )
    final = sorted(map(vals.__getitem__, roots))
    return _Forest(ws, k, vals, roots, lbl, starts, MergeTrace(vals, left, right, final))


class _Forest:
    """The labeled merge forest of one stopped_huffman run.

    vals[:n] are the weights sorted, lbl[p] the label of the sorted leaf p:
    its root's index in roots. starts are the sorted positions where a new
    run of one label begins after position 0, all of them if fewer than
    _MAX_LABEL_RUNS. A canonical label ranks a root's label by its first
    occurrence in input order.

    sums() and sizes() read each group off its root and its runs, for
    O(k + R) work, and rank the labels on an input prefix at most twice as
    long as the shortest that shows every one of them (52 and 60 elements
    on the envelope benchmark's 2**20 log-uniform weights, seeds 7 and 1,
    at k = 16). Only partition() carries a label to every element.
    """

    __slots__ = ("trace", "_ws", "_k", "_vals", "_roots", "_lbl", "_starts", "_perm", "_sizes")

    def __init__(self, ws, k, vals, roots, lbl, starts, trace):
        self._ws, self._k, self._vals, self._roots = ws, k, vals, roots
        self._lbl, self._starts, self.trace = lbl, starts, trace
        self._perm = self._sizes = None  # each computed once, when first asked

    def _table(self) -> list[int]:
        """The label of each run."""
        lbl = self._lbl
        table = [lbl[0]]
        table += map(lbl.__getitem__, self._starts)
        return table

    def _all_starts(self) -> list[int]:
        """Every run start, counted on past _MAX_LABEL_RUNS if need be."""
        starts = self._starts
        if len(starts) == _MAX_LABEL_RUNS:
            lbl = self._lbl
            n = len(self._ws)
            starts = self._starts = list(compress(count(1), map(ne, lbl, islice(lbl, 1, n))))
        return starts

    def _order(self) -> list[int]:
        """The canonical label of each root's label, read off input
        prefixes of doubling length until one shows every label."""
        if self._perm is None:
            ws, k = self._ws, self._k
            n = len(ws)
            starts = self._all_starts()
            table = self._table()
            m = len(self._roots)
            while True:
                ids = _runs_in_input_order(ws[:m], self._vals, starts, n)
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
            starts = self._all_starts()
            sizes = self._sizes = [0] * self._k
            ends = chain(starts, (len(self._ws),))
            for g, a, b in zip(self._table(), chain((0,), starts), ends):
                sizes[g] += b - a
        return self._sizes

    def smallest(self) -> int:
        """The fewest members of any label; needs no canonical labels."""
        return min(self._raw_sizes())

    def sums(self) -> tuple[int, ...]:
        """Each canonical label's sum, its root's value; 0 past the groups."""
        return self._ranked(map(self._vals.__getitem__, self._roots))

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
        ws, k, lbl, starts = self._ws, self._k, self._lbl, self._starts
        n = len(ws)
        # carry the labels to input order as table[ids[e]] and relabel them in
        # first-occurrence order
        if len(starts) < _MAX_LABEL_RUNS:
            ids = _runs_in_input_order(ws, self._vals, starts, n)
            table = self._table()
            perm = _first_occurrence(map(table.__getitem__, ids), k)
            table = list(map(perm.__getitem__, table))
        else:
            ids = [0] * n
            for e, g in zip(sorted(range(n), key=ws.__getitem__), lbl):
                ids[e] = g
            table = perm = _first_occurrence(ids, k)
        self._perm = perm
        return Partition._derived(tuple(map(table.__getitem__, ids)), k)


def _runs_in_input_order(ws, vals, starts, n: int) -> list[int]:
    """Run index of each weight, in input order, for stopped_huffman.

    vals[:n] are the n weights sorted, ws the weights in input order or a
    prefix of them, and starts the sorted positions where a new run of one
    label begins after position 0. A weight lies in the last run starting
    at or below it, found by one bisect. Equal copies of a weight that
    straddle a run boundary take successive sorted positions in input
    order, as the merge consumed them.
    """
    runs = list(map(bisect_right, repeat(list(map(vals.__getitem__, starts))), ws))
    tied = {vals[p] for p in starts if vals[p - 1] == vals[p]}
    if tied:
        nxt = {v: bisect_left(vals, v, 0, n) for v in tied}
        for e in compress(count(), map(tied.__contains__, ws)):
            p = nxt[ws[e]]
            nxt[ws[e]] = p + 1
            runs[e] = bisect_right(starts, p)
    return runs
