"""Solvers and oracles for multiway number partitioning.

stopped_huffman is the exact compression-objective solver: run the Huffman
merge loop until k values remain and read the partition off the merge
forest. brute_force exhaustively optimizes any objective on small instances
and backs the verification harnesses for the co-grouping lemma and the
recombination principle.

The oracles share one subset-mask sweep. Over the weights sorted
ascending, one O(2**n) pass fills the subset sums and the objective's term
for every subset (the sum, q * log2(q) of it, or Huffman merge cost), and
every sweep of a call reads those tables. Each partition into <= k blocks
is then k block masks, and scoring it takes O(1) lookups instead of
regrouping n elements. max_min and min_entropy have no sweep of their
own: both are read off the min_max sweep, max_min as minus its value over
the negated weights.

At k >= 4 the same remainder, the positions left for the last two blocks,
recurs under many choices of the blocks before them: 1,024 remainders
under 88,574 choices at n = 12, k = 4. So the level that places the
third-to-last block sweeps each remainder's last two blocks once on their
own into a summary, kept in a list indexed by the remainder's mask. For
compression, product_of_sums and min_max the summary settles most choices,
and the last two blocks are scanned only when it cannot decide. For
min_diff and entropy it only bounds a choice, and the choices that pass
the bound are scanned. At k <= 3 each remainder occurs once, so a summary
would only add a sweep, and those sweeps scan directly.

The sweep is a branch and bound: it starts from a greedy partition's
score and skips each remainder whose bound is strictly worse than the
best so far. The bound reads two entries of the subset sums: the
remainder's sum, and its largest weight, which on wide weights limits
every completion by itself (the block holding it is at least that heavy;
the others share what is left). brute_force keeps each optimum as
one integer, its canonical assignment in base 8 (a restricted growth
string), and builds its Partition only when it is read.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import compress, count, islice, repeat
from operator import mul, ne

from .core import Instance, InputError, Partition, SizeLimitError
from .core import _check_covers, _check_int, _check_k, _first_occurrence, _int_text
from .entropy import _entropy_bits, _min_entropy_bits
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


_OCTAL = bytes.maketrans(b"01234567", bytes(range(8)))


class _Optima(Sequence):
    """Read-only sequence of oracle optima, each kept as one integer: the
    canonical assignment over n elements in base 8, first element most
    significant, in an ascending array('Q'). Reading an optimum builds its
    Partition; the sequence equals, and hashes as, the tuple of them."""

    def __init__(self, keys: array, n: int, k: int):
        self._keys, self._digits, self._k = keys, f"0{n}o", k

    def _partition(self, key: int) -> Partition:
        # n octal digits, leading zeros kept, are canonical labels below k,
        # so the Partition is built without its input checks
        part = object.__new__(Partition)
        labels = format(key, self._digits).encode().translate(_OCTAL)
        part.__dict__.update(assignment=tuple(labels), k=self._k)
        return part

    def digits(self):
        """Iterator of each optimum's assignment, in order, as a string of n
        octal digits, one label each; no Partition is built."""
        return map(format, self._keys, repeat(self._digits))

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._partition, self._keys[i]))
        return self._partition(self._keys[i])

    def __iter__(self):
        return map(self._partition, self._keys)

    def __eq__(self, other: object):
        if not isinstance(other, (tuple, _Optima)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive sweep.

    optimal_partitions holds every optimum in canonical labels, sorted so
    the lexicographically smallest assignment comes first; brute_force
    gives a read-only sequence that builds each Partition as it is read,
    and whose digits() gives every assignment as octal digits instead.
    partitions_searched counts every partition covered, whether the sweep
    scored it or a bound ruled it out.
    """

    objective: str
    best_value: object
    optimal_partitions: Sequence[Partition]
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
    _check_k(k)
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


def _guard_oracle(n: int, k: int) -> None:
    _check_k(k)
    if n > MAX_ORACLE_N:
        raise SizeLimitError(f"oracle handles at most {MAX_ORACLE_N} elements, got {n}")
    if k > MAX_ORACLE_K:
        raise SizeLimitError(f"oracle handles at most k={MAX_ORACLE_K}, got {k}")


def _slot_table(w, k: int, objective: str) -> tuple[list, list] | tuple[None, None]:
    """(t, sums): the objective's per-block term and the subset sum, each
    indexed by subset mask, filled in one pass that serves every sweep.

    Bit p of a mask stands for sorted position p of the ascending weights w.
    Compression's t is the merge cost of the members, entropy's q * log2(q)
    of the subset sum q (0.0 for the empty block), and every other t is
    sums itself. Each half of a table fills from the half below its top
    bit, so members come out ascending: O(2**n) entries. At k = 1 the
    sweep needs no table, and (None, None) is returned.
    """
    if k == 1:
        return None, None
    sums = [0]
    if objective == "compression":
        members: list[list[int]] = [[]]
        for x in w:
            members += [g + [x] for g in members]
            sums += [q + x for q in sums]
        return list(map(_merge_cost_sorted, members)), sums
    for x in w:
        sums += [q + x for q in sums]
    if objective == "entropy":
        log2 = math.log2
        return [q * log2(q) if q else 0.0 for q in sums], sums
    return sums, sums


# Innermost levels of the sweep, one per swept objective. Each walks the
# submasks s of r2, the remainder past its lowest element low, and scores
# the partition whose last two blocks are low | s and r2 ^ s; pre holds the
# blocks before them and agg their terms, folded as _SWEEPS says. Ties
# with the best go to picks, which is cleared when the best improves.


def _last_two_compression(t, total, low, r2, pre, agg, best, picks):
    s = r2
    while True:
        a = low | s
        b = r2 ^ s
        v = agg + t[a] + t[b]
        if v <= best:
            if v < best:
                best = v
                picks.clear()
            picks.append(pre + (a, b))
        if not s:
            return best
        s = (s - 1) & r2


def _last_two_min_max(t, total, low, r2, pre, agg, best, picks):
    s = r2
    while True:
        a = low | s
        b = r2 ^ s
        v = t[a]
        y = t[b]
        if y > v:
            v = y
        if agg > v:
            v = agg
        if v <= best:
            if v < best:
                best = v
                picks.clear()
            picks.append(pre + (a, b))
        if not s:
            return best
        s = (s - 1) & r2


def _last_two_min_diff(t, total, low, r2, pre, agg, best, picks):
    hi0, lo0 = agg
    s = r2
    while True:
        a = low | s
        b = r2 ^ s
        hi = t[a]
        lo = t[b]
        if lo > hi:
            hi, lo = lo, hi
        if hi0 > hi:
            hi = hi0
        if lo0 < lo:
            lo = lo0
        v = hi - lo
        if v <= best:
            if v < best:
                best = v
                picks.clear()
            picks.append(pre + (a, b))
        if not s:
            return best
        s = (s - 1) & r2


def _last_two_product(t, total, low, r2, pre, agg, best, picks):
    s = r2
    while True:
        a = low | s
        b = r2 ^ s
        v = agg * t[a] * t[b]
        if v >= best:
            if v > best:
                best = v
                picks.clear()
            picks.append(pre + (a, b))
        if not s:
            return best
        s = (s - 1) & r2


def _last_two_entropy(t, total, low, r2, pre, agg, best, picks):
    # picks holds (h, blocks) while h lies in the band below the running
    # best; a rise of the best prunes it to the new band. h comes from the
    # correctly rounded fsum only where the plain sum of the nonnegative
    # terms, within a few ulps of it, is under cut: the 1e-12 slack on h is
    # far above that error, so no partition the band would keep is skipped
    fsum = math.fsum
    top = math.log2(total)
    floor = best - _ENTROPY_TOL
    cut = (top - floor + 1e-12) * total
    base = sum(agg)
    s = r2
    while True:
        a = low | s
        b = r2 ^ s
        if base + t[a] + t[b] <= cut:
            h = top - fsum((*agg, t[a], t[b])) / total
            if h < 0.0:
                h = 0.0
            if h >= floor:
                if h > best:
                    best = h
                    floor = h - _ENTROPY_TOL
                    cut = (top - floor + 1e-12) * total
                    picks[:] = [e for e in picks if e[0] >= floor]
                picks.append((h, pre + (a, b)))
        if not s:
            return best
        s = (s - 1) & r2


# The level above the innermost one, used when k >= 4, places the
# third-to-last block b = low | s and leaves the remainder r = r2 ^ s to the
# last two blocks. Under many prefixes the same r recurs, so summ[r] caches
# a summary of r's last two blocks swept alone, with the neutral agg: m,
# their best value, and for the objectives whose ties it settles, the
# splits that reach it. A choice runs the scan below only when the summary
# cannot settle it; for min_diff and entropy, whose summary keeps m alone
# as a bound, only when that bound does not rule the choice out.


def _summary(last_two, t, total, r, agg0, best0):
    """(m, splits): the best value of remainder r's last two blocks alone,
    and every split of r that reaches it."""
    splits: list = []
    low = r & -r
    return last_two(t, total, low, r ^ low, (), agg0, best0, splits), splits


def _last_three_compression(t, total, low, r2, pre, agg, best, picks, summ):
    # each split adds its own term to agg + t[b], so the summary's splits
    # are exactly the best ones under any prefix
    s = r2
    while True:
        b = low | s
        r = r2 ^ s
        e = summ[r]
        if e is None:
            e = summ[r] = _summary(_last_two_compression, t, total, r, 0, math.inf)
        v = agg + t[b] + e[0]
        if v <= best:
            if v < best:
                best = v
                picks.clear()
            head = pre + (b,)
            picks += [head + split for split in e[1]]
        if not s:
            return best
        s = (s - 1) & r2


def _last_three_product(t, total, low, r2, pre, agg, best, picks, summ):
    # agg * t[b] is 0 only when b is empty; then so is r, which has one split
    s = r2
    while True:
        b = low | s
        r = r2 ^ s
        e = summ[r]
        if e is None:
            e = summ[r] = _summary(_last_two_product, t, total, r, 1, -1)
        v = agg * t[b] * e[0]
        if v >= best:
            if v > best:
                best = v
                picks.clear()
            head = pre + (b,)
            picks += [head + split for split in e[1]]
        if not s:
            return best
        s = (s - 1) & r2


def _last_three_min_max(t, total, low, r2, pre, agg, best, picks, summ):
    # with a = max(agg, t[b]) <= m every split scores max(a, its own max),
    # so the summary's splits are the best ones; above m, a split ties at a
    # whenever its own max is at most a, and only a scan finds them
    s = r2
    while True:
        b = low | s
        r = r2 ^ s
        e = summ[r]
        if e is None:
            e = summ[r] = _summary(_last_two_min_max, t, total, r, -math.inf, math.inf)
        a = t[b]
        if agg > a:
            a = agg
        m = e[0]
        if a <= m:
            if m <= best:
                if m < best:
                    best = m
                    picks.clear()
                head = pre + (b,)
                picks += [head + split for split in e[1]]
        elif a <= best:
            low_r = r & -r
            best = _last_two_min_max(
                t, total, low_r, r ^ low_r, pre + (b,), a, best, picks
            )
        if not s:
            return best
        s = (s - 1) & r2


def _last_three_min_diff(t, total, low, r2, pre, agg, best, picks, summ):
    # the last two sums x <= y add up to t[r], so a split's score
    # max(hi, y) - min(lo, x), with hi and lo the extremes of agg and t[b],
    # does not fall as y - x grows and is least at the summary's y - x = m.
    # A choice whose least score is over the best holds no tie, and gets no
    # scan; the scan finds every tie of the rest
    hi0, lo0 = agg
    s = r2
    while True:
        b = low | s
        r = r2 ^ s
        m = summ[r]
        if m is None:
            m = summ[r] = _summary(_last_two_min_diff, t, total, r, (0, math.inf), math.inf)[0]
        q = t[b]
        hi = hi0 if hi0 > q else q
        lo = lo0 if lo0 < q else q
        y = (t[r] + m) >> 1
        x = t[r] - y
        if (y if y > hi else hi) - (x if x < lo else lo) <= best:
            low_r = r & -r
            best = _last_two_min_diff(
                t, total, low_r, r ^ low_r, pre + (b,), (hi, lo), best, picks
            )
        if not s:
            return best
        s = (s - 1) & r2


def _last_three_entropy(t, total, low, r2, pre, agg, best, picks, summ):
    # the scan below skips each split whose plain sum of terms is over its
    # cut. m, the least t[a] + t[b] over r's splits, bounds those sums from
    # below up to rounding, which one more 1e-12 * total of slack covers; a
    # choice past that gets no scan, since the scan would keep nothing
    top = math.log2(total)
    slack = 1e-12 * total
    cut = (top - (best - _ENTROPY_TOL) + 1e-12) * total + slack
    base = sum(agg)
    s = r2
    while True:
        b = low | s
        r = r2 ^ s
        m = summ[r]
        if m is None:
            m = summ[r] = _summary(_last_two_compression, t, total, r, 0, math.inf)[0]
        if base + t[b] + m <= cut:
            low_r = r & -r
            best = _last_two_entropy(
                t, total, low_r, r ^ low_r, pre + (b,), (*agg, t[b]), best, picks
            )
            cut = (top - (best - _ENTROPY_TOL) + 1e-12) * total + slack
        if not s:
            return best
        s = (s - 1) & r2


# objective -> (innermost level, the level above it, fold of one more
# block's term into agg, agg before any block). max_min has no entry:
# brute_force sweeps it as min_max over the negated weights, whose sums are
# all <= 0, so min_max's agg starts below every sum
_SWEEPS = {
    "compression": (_last_two_compression, _last_three_compression, int.__add__, 0),
    "min_max": (_last_two_min_max, _last_three_min_max, max, -math.inf),
    "min_diff": (
        _last_two_min_diff,
        _last_three_min_diff,
        lambda agg, q: (max(agg[0], q), min(agg[1], q)),
        (0, math.inf),
    ),
    "product_of_sums": (_last_two_product, _last_three_product, int.__mul__, 1),
    "entropy": (_last_two_entropy, _last_three_entropy, lambda agg, f: (*agg, f), ()),
}


def _skip(objective: str, t, s, total, agg, r, j: int, best) -> bool:
    """Whether a level placing a block before the last two may skip
    remainder r, with j slots left after the prefix folded into agg: a
    proven bound on r's best completion is strictly worse than best.

    The bounds read R = s[r], r's subset sum, and x, the subset sum of r's
    top sorted position: its largest weight, or under max_min's negated
    weights its most negative one. On wide weights x dominates R, and the
    block holding it limits every completion more than R / j does. At
    j = 1 the one block is r itself, and the bounds read R alone.
    """
    R = s[r]
    if objective == "compression":
        # merging the j blocks' Huffman trees into one for r costs at most
        # (j - 1) * R, and no tree for r costs less than t[r]
        return agg + t[r] - (j - 1) * R > best
    # 1 << (bit_length - 1), or 0 for the empty remainder, whose x is 0
    x = s[1 << r.bit_length() >> 1]
    if objective == "product_of_sums":
        if j > 1 and x * j > R:
            # the block holding x sums to some y >= x > R / j, the other
            # j - 1 to at most ((R - y) / (j - 1)) ** (j - 1) by AM-GM, and
            # y * (R - y) ** (j - 1) falls as y grows past R / j
            return agg * x * (R - x) ** (j - 1) < best * (j - 1) ** (j - 1)
        # AM-GM: j sums that add up to R multiply to at most (R / j) ** j
        return agg * R**j < best * j**j
    if objective == "entropy":
        # q * log2(q) is convex, so the j terms add up to R * log2(R / j) or
        # more; with x > R / j, to x * log2(x) plus the other j - 1 blocks'
        # least, which grows with the block holding x. The cut is
        # _last_three_entropy's, whose extra 1e-12 * total of slack covers
        # the rounding on both sides
        cut = (math.log2(total) - (best - _ENTROPY_TOL) + 1e-12) * total + 1e-12 * total
        if j > 1 and x * j > R:
            rest = R - x
            least = x * math.log2(x) + (rest * math.log2(rest / (j - 1)) if rest else 0.0)
        else:
            least = R * math.log2(R / j) if R else 0.0
        return sum(agg) + least > cut
    # some block holds ceil(R / j) or more, and some floor(R / j) or less,
    # among max_min's negated sums too. The block holding x sums to at
    # least x; under max_min's negated sums, to at most x, so the other
    # j - 1 blocks hold R - x or more and one of them a share of it
    hi = -(-R // j)
    if objective == "min_max":
        if j > 1:
            hi = max(hi, x if R > 0 else -((x - R) // (j - 1)))
        return max(agg, hi) > best
    # min_diff: the other j - 1 blocks hold R - x or less, and one of them
    # a share of it
    lo = R // j if j == 1 else min(R // j, (R - x) // (j - 1))
    return max(agg[0], hi, x) - min(agg[1], lo) > best


def _incumbent(t, s, w, total, k: int, objective: str, first: int, rest: int):
    """Score, as the innermost level scores it, of a largest-first greedy
    partition: block 0 starts as the mask first, and each position of the
    mask rest, from the top down, joins the lowest block nearest sum 0.
    s is the subset-sum table."""
    blocks = [first] + [0] * (k - 1)
    sums = [s[first]] + [0] * (k - 1)
    for p in reversed(range(len(w))):
        if rest >> p & 1:
            i = sums.index(min(sums, key=abs))
            blocks[i] |= 1 << p
            sums[i] += w[p]
    _, _, fold, agg = _SWEEPS[objective]
    for b in blocks:
        agg = fold(agg, t[b])
    if objective == "entropy":
        h = math.log2(total) - math.fsum(agg) / total
        return 0.0 if h < 0.0 else h
    return agg[0] - agg[1] if objective == "min_diff" else agg


def _partitions_up_to(n: int, k: int) -> int:
    """Sum of S(n, j) over j <= k: the set partitions of n elements into at
    most k blocks, by the Stirling recurrence S(m, j) = j S(m-1, j) + S(m-1, j-1)."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row)


def _sweep(t, sums, w, k: int, objective: str, joined: int = 0, within: int | None = None):
    """Find every optimum among the partitions of the sorted positions
    into <= k blocks.

    t and sums are the two tables _slot_table filled over the ascending
    weights w; the sweep reads them and builds none. A partition is k
    block masks: block j holds the lowest position no earlier block holds,
    plus any subset of the positions left, and unused slots are mask 0. So
    each set partition appears exactly once, and an unused slot adds the
    zero sum objectives.py counts for it. joined, a mask of positions,
    keeps only the partitions whose first block holds them too. within, a
    mask of positions, sweeps those alone, as the whole instance of their
    weights: the same table entries in the same order, since a submask
    keeps its positions ascending.

    The best starts at a greedy partition's score from this same family,
    so no tie at a worse value is kept, and each level that places a
    block before the last two skips a remainder that _skip rules out on
    the subset sums. At k >= 4 the third-to-last block is placed by the
    summary level of the module docstring. Returns (best, picks), with
    picks the block-mask tuples of every optimum in sweep order; the sweep
    counts no partitions. For entropy, the kept candidates are pruned to
    the band below the best each time it rises, so the last prune settles
    them against the final best.
    """
    last_two, last_three, fold, agg0 = _SWEEPS[objective]
    full = (1 << len(w)) - 1 if within is None else within
    members = [x for p, x in enumerate(w) if full >> p & 1]
    total = sum(members)
    if k == 1:
        # one partition, every position in one block
        if objective == "compression":
            best = _merge_cost_sorted(members)
        elif objective == "entropy":
            best = _entropy_bits((total,), total)
        elif objective == "min_diff":
            best = 0
        else:
            best = total
        return best, [(full,)]
    first = (full & -full) | joined
    best = _incumbent(t, sums, w, total, k, objective, first, full ^ first)
    picks: list = []
    summ = [None] * (full + 1) if k > 3 else None

    def place(rem, slots, pre, agg, must):
        nonlocal best
        low = (rem & -rem) | must
        r2 = rem ^ low
        if slots == 2:
            best = last_two(t, total, low, r2, pre, agg, best, picks)
            return
        if slots == 3 and summ is not None:
            best = last_three(t, total, low, r2, pre, agg, best, picks, summ)
            return
        s = r2
        while True:
            b = low | s
            r = r2 ^ s
            a = fold(agg, t[b])
            if not _skip(objective, t, sums, total, a, r, slots - 1, best):
                place(r, slots - 1, pre + (b,), a, 0)
            if not s:
                return
            s = (s - 1) & r2

    place(full, k, (), agg0, joined)
    if objective == "entropy":
        picks = [blocks for _, blocks in picks]
    return best, picks


def brute_force(inst: Instance, k: int, objective: str) -> OracleResult:
    """Exhaustively optimize one objective over all partitions into <= k blocks.

    Sorts the elements by weight, fills the per-block terms and subset
    sums of all 2**n subsets in one _slot_table pass (O(2**n), skipped at
    k = 1), then sweeps the partitions with O(1) lookups in them, as the
    module docstring describes. partitions_searched is every partition,
    covered whether scored or ruled out: the Stirling sum over j <= k.
    Exact integer objectives compare exactly; entropy keeps every
    partition within 1e-9 of the best. Two objectives reduce exactly to
    min_max, the largest subset sum: min_entropy is a decreasing function
    of it, and max_min is minus min_max over the negated weights. Each
    optimum is kept as one integer, its canonical assignment in base 8,
    read off one more O(2**n) table of each mask's digits; sorting the
    integers sorts the assignments. Guarded to n <= 14 and k <= 6.
    """
    if objective not in OBJECTIVES:
        raise InputError(
            f"unknown objective {objective!r}; expected one of {', '.join(OBJECTIVES)}"
        )
    n = len(inst.weights)
    _guard_oracle(n, k)
    order = sorted(range(n), key=inst.weights.__getitem__)
    w = [inst.weights[e] for e in order]
    swept = "min_max" if objective in ("max_min", "min_entropy") else objective
    if objective == "max_min":
        w = [-x for x in w]
    best, picks = _sweep(*_slot_table(w, k, swept), w, k, swept)
    if objective == "max_min":
        best = -best
    elif objective == "min_entropy":
        best = _min_entropy_bits(best, inst.total)
    # digits[b] has an octal 1 at the original index of each member of b.
    # Of disjoint blocks, the one holding the lowest index has the largest
    # digits, so the k blocks' digits, ascending, take the canonical labels
    # k - 1, ..., 1, 0; unused slots have digits 0
    digits = [0]
    for e in order:
        d = 1 << 3 * (n - 1 - e)
        digits += [x + d for x in digits]
    labels = range(k - 1, -1, -1)
    keys = sorted(
        sum(map(mul, labels, sorted(map(digits.__getitem__, blocks)))) for blocks in picks
    )
    optima = _Optima(array("Q", keys), n, k)
    return OracleResult(objective, best, optima, _partitions_up_to(n, k))


# --- baseline ----------------------------------------------------------


def greedy_baseline(inst: Instance, k: int) -> Partition:
    """Largest-first greedy: place each weight into the lightest group so far.

    Ties prefer the lowest group label. Comparison baseline only; carries no
    optimality claim for any objective.
    """
    _check_k(k)
    ws = inst.weights
    heap = [(0, lbl) for lbl in range(k)]
    out = [0] * len(ws)
    # a stable sort keeps equal weights in index order under reverse too
    for e in sorted(range(len(ws)), key=ws.__getitem__, reverse=True):
        s, lbl = heapq.heappop(heap)
        out[e] = lbl
        heapq.heappush(heap, (s + ws[e], lbl))
    return Partition(tuple(out), k).canonical()


# --- verification harnesses --------------------------------------------


def verify_lemma2(inst: Instance, k: int) -> Lemma2Report:
    """Check that co-grouping the two smallest weights cannot hurt compression.

    Fills the compression and subset-sum tables once, O(2**n), and both
    sweeps read them: every partition into at most k blocks, for the least
    integer compression cost, and the partitions whose first block holds
    sorted positions 0 and 1, the two smallest weights, with O(1) lookups
    per partition. partitions_searched counts the first sweep's partitions.
    Requires n > k.
    """
    _check_k(k)
    n = len(inst.weights)
    if n <= k:
        raise InputError(f"requires n > k, got n={n} and k={k}")
    _guard_oracle(n, k)
    w = sorted(inst.weights)
    t, sums = _slot_table(w, k, "compression")
    un_min = _sweep(t, sums, w, k, "compression")[0]
    con_min = _sweep(t, sums, w, k, "compression", joined=0b10)[0]
    return Lemma2Report(un_min, con_min, _partitions_up_to(n, k))


def conditional_subinstance(
    inst: Instance, p: Partition, labels
) -> tuple[Instance, list[int]]:
    """Restrict an instance to the elements whose group label lies in labels.

    Returns the sub-instance plus the member indices in original order. A
    label set capturing every element or none is a degenerate split and is
    rejected.
    """
    _check_covers(inst, p)
    labels = list(labels)
    for label in labels:
        _check_int("label", label)
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

    For every entropic optimum and every bipartition of its k blocks, the
    two sides are re-optimized independently with their own label budgets;
    every cross pairing of side optima is recombined and must reproduce the
    optimal entropy within 1e-9. Splits with an empty side are counted as
    degenerate and skipped. One sort and one _slot_table fill of the
    entropy and subset-sum tables serve every sweep: a side is the union
    of its blocks' masks, swept on those same tables once per call and
    label count exactly as brute_force would sweep its weights alone.
    trials, when given, caps the number of recombinations checked; a cap
    that is not an int, or is negative, raises InputError. A capped call
    stops in sweep order, not brute_force's sorted canonical order, so it
    may check other pairings.
    """
    if trials is not None:
        _check_int("trials", trials)
        if trials < 0:
            raise InputError(f"trials must be non-negative, got {_int_text(trials)}")
    _guard_oracle(len(inst.weights), k)
    w = sorted(inst.weights)
    # at k = 1 both are None: that sweep reads no table, and nothing splits
    t, sums = _slot_table(w, k, "entropy")
    full = (1 << len(w)) - 1
    best, optima = _sweep(t, sums, w, k, "entropy")

    # splits of different optima often leave the same positions on one side
    @cache
    def side_optima(side: int, labels: int) -> list[list[int]]:
        """Subset sums of every entropic optimum of one side, swept once."""
        picks = _sweep(t, sums, w, labels, "entropy", within=side)[1]
        return [[sums[b] for b in blocks] for blocks in picks]

    checked = violations = degenerate = 0
    max_dev = 0.0
    for blocks in optima:
        # masks with the top block bit set, short of all k: each unordered
        # bipartition of the blocks into two nonempty label sets, once
        for mask in range(1 << (k - 1), (1 << k) - 1):
            # the blocks are disjoint, so their sum is their union
            side = sum(b for j, b in enumerate(blocks) if mask >> j & 1)
            if side == 0 or side == full:
                degenerate += 1
                continue
            labels = mask.bit_count()
            # a recombination's k sums are its two sides' sums side by side
            sums2 = side_optima(full ^ side, k - labels)
            for q1 in side_optima(side, labels):
                for q2 in sums2:
                    if trials is not None and checked >= trials:
                        return RecombinationReport(
                            best, checked, violations, degenerate, max_dev
                        )
                    h = _entropy_bits(q1 + q2, inst.total)
                    dev = abs(h - best)
                    if dev > max_dev:
                        max_dev = dev
                    if dev > _ENTROPY_TOL:
                        violations += 1
                    checked += 1
    return RecombinationReport(best, checked, violations, degenerate, max_dev)
