"""Binary Huffman codes over integer weights with exact cost accounting.

Construction is the two-queue method over pre-sorted weights (van Leeuwen,
ICALP 1976): leaves are consumed in ascending order while merged nodes
queue up behind them, already sorted because merge values never decrease.
Each step takes the two smallest front values; merged nodes win ties
against equal-valued leaves.

_merge is the one engine for that loop. build_huffman runs it to a single
root; solver.stopped_huffman runs it until k values remain. The cost-only
fold _merge_cost_sorted stays separate: the exhaustive oracle's table fill
calls it for each subset of up to 14 weights whose cost it cannot read
off a smaller subset's, up to 16,384 groups, where the engine's sentinel
padding and child columns cost
1.0-2.5x the fold's time per call (most for the smallest groups), while a
heapq fold is 2.2-4.7x slower than it at 4k to 64k weights (2 CPUs,
Python 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MAX_ELEMENTS, MAX_WEIGHT, InputError, _check_weights

# Pads both queues so the hot loop needs no emptiness checks. A merge sums
# some of the weights, so any value above the largest possible total,
# MAX_WEIGHT * MAX_ELEMENTS, exceeds every merge sum; this is 2**62.
_SENTINEL = 4 * MAX_WEIGHT * MAX_ELEMENTS


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
