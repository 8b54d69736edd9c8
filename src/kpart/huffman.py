"""Binary Huffman codes over integer weights with exact cost accounting.

Construction is the two-queue method over pre-sorted weights: leaves are
consumed in ascending order while merged nodes queue up behind them, already
sorted because merge values never decrease. Each step takes the two smallest
front values; merged nodes win ties against equal-valued leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MAX_ELEMENTS, MAX_WEIGHT, InputError, SizeLimitError

# Strictly larger than any merge sum inside the size envelope (below 2**60);
# used to pad both queues so the hot loop needs no emptiness checks.
_SENTINEL = 1 << 62


def _check_envelope(count: int, largest: int) -> None:
    """Reject inputs whose merge sums could reach _SENTINEL."""
    if count > MAX_ELEMENTS:
        raise SizeLimitError(f"{count} elements exceed the limit of {MAX_ELEMENTS}")
    if largest > MAX_WEIGHT:
        raise SizeLimitError(f"weight {largest} exceeds the limit of {MAX_WEIGHT}")


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
    a linear merge loop. Weights and symbol count are held to the Instance
    size envelope; SizeLimitError otherwise.
    """
    ws = list(weights)
    n = len(ws)
    if n == 0:
        raise InputError("cannot build a code over no symbols")
    if min(ws) < 1:
        raise InputError("symbol weights must be positive")
    _check_envelope(n, max(ws))
    if n == 1:
        return HuffmanCode((0,), 0, ws[0])

    order = sorted(range(n), key=ws.__getitem__)
    merges = n - 1
    # node ids: 0..n-1 sorted leaves, n the sentinel, n+1.. the merged nodes
    vals = [ws[p] for p in order]
    vals.append(_SENTINEL)
    vals.extend([_SENTINEL] * merges)
    parent = [0] * (n + 1 + merges)
    i = 0
    j = n + 1
    cur = n + 1
    lf = vals[0]
    mf = _SENTINEL
    cost = 0
    for _ in range(merges):
        if mf <= lf:
            a = j
            va = mf
            j += 1
            mf = vals[j]
        else:
            a = i
            va = lf
            i += 1
            lf = vals[i]
        if mf <= lf:
            b = j
            vb = mf
            j += 1
            mf = vals[j]
        else:
            b = i
            vb = lf
            i += 1
            lf = vals[i]
        s = va + vb
        cost += s
        vals[cur] = s
        parent[a] = cur
        parent[b] = cur
        if j == cur:
            mf = s
        cur += 1

    root = cur - 1
    depth = [0] * cur
    for node in range(root - 1, -1, -1):
        # parents are created after their children, so depth[parent] is ready
        depth[node] = depth[parent[node]] + 1
    lengths = [0] * n
    for pos, e in enumerate(order):
        lengths[e] = depth[pos]
    return HuffmanCode(tuple(lengths), cost, sum(ws))


def expected_length_bits(code: HuffmanCode) -> float:
    """E(l(X)) = cost_numerator / weight_total as a float."""
    return code.cost_numerator / code.weight_total


def merge_cost(weights) -> int:
    """Total merge weight of the Huffman construction over these weights.

    Equals build_huffman(weights).cost_numerator without building lengths;
    0 for fewer than two symbols. Accepts the same envelope as build_huffman.
    """
    ws = sorted(weights)
    if ws:
        if ws[0] < 1:
            raise InputError(f"weights must be positive, got {ws[0]}")
        _check_envelope(len(ws), ws[-1])
    return _merge_cost_sorted(ws)


def _merge_cost_sorted(ws) -> int:
    """merge_cost fast path for an already ascending list."""
    g = len(ws)
    if g < 2:
        return 0
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
