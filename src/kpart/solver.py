"""Exhaustive oracles, verification harnesses and a greedy baseline.

brute_force exhaustively optimizes any objective on small instances and
backs the verification harnesses for the co-grouping lemma and the
recombination principle; greedy_baseline is the largest-first comparison
baseline. The exact compression solver, stopped_huffman, lives in
huffman.py beside the merge engine it runs. The package loads this module
on first use of one of its names, so that kpart solve and trace, which
never call the oracle, do not compile it.

The oracles share one subset-mask sweep. Over the weights sorted
descending, one O(2**n) pass fills the subset sums and the objective's term
for every subset (the sum, q * log2(q) of it, or Huffman merge cost), and
every sweep of a call reads those tables. Each partition into <= k blocks
is then k block masks, and scoring it takes O(1) lookups instead of
regrouping n elements. min_entropy has no sweep of its own: it is read
off the min_max sweep. max_min runs min_max's sweep over its terms, each
block's sum negated, and reports minus its value. Entropy is swept for
the least float sum of its terms, within a fixed slack; math.fsum scores
what only seeds or bounds that sweep, and its 1e-9 band is settled once,
at the end, on each kept partition's correctly rounded H.

At k >= 4 the same remainder, the positions left for the last two blocks,
recurs under many choices of the blocks before them: 1,024 remainders
under 88,574 choices at n = 12, k = 4. So the level that places the
third-to-last block sums up each remainder's last two blocks once, on
their own, kept in a list indexed by the remainder's mask. A remainder
whose largest weight is at least the rest's sum, as about 95% are on
log-uniform weights, has one best split, that weight alone, found with no
scan. For compression and product_of_sums the summary settles every
choice. For min_max it settles a choice whose earlier blocks score no more
than the summary's best. For min_diff and entropy it only bounds a choice,
and the choices that pass the bound are scanned. At k <= 3 each remainder
occurs once, so a summary would only add a sweep, and those sweeps scan
directly.

Under min_max, a choice whose blocks so far score a, no less than the
remainder's whole sum, scores a under every completion, since no block of
the remainder can outweigh it. On log-uniform weights nearly every
optimum lies under such a choice, and one choice may stand for hundreds
of thousands. The sweep, at any level, records it as one settled group
instead of placing the remainder, and brute_force lists its optima
straight as keys.

The sweep is a branch and bound: it starts from a greedy partition's
score, and each objective's placing level skips a choice whose blocks so
far score strictly worse than the best so far, or whose remainder's bound
does. The bound reads two entries of the subset sums: the remainder's sum,
and its largest weight, at its lowest position, which on wide weights
limits every completion by itself (the block holding it is at least that
heavy; the others share what is left). Block j holds the lowest position
no earlier block holds, so block 0 holds the largest weight, and, as in
Korf's number-partitioning searches, a heavy first block is ruled out
before any level below it runs. brute_force keeps each optimum as one
integer, its canonical assignment in base 8 (a restricted growth string),
and builds its Partition only when it is read.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import mul

from .core import Instance, InputError, Partition, SizeLimitError
from .core import _check_covers, _check_int, _check_k, _int_text, _int_tuple
from .entropy import _entropy_bits, _min_entropy_bits, _terms_bits
from .huffman import _merge_cost_sorted
from .objectives import OBJECTIVES

# exhaustive-search guard: partitions of n into at most k blocks grow like
# k**n, so the oracle refuses anything past this envelope
MAX_ORACLE_N = 14
MAX_ORACLE_K = 6

_ENTROPY_TOL = 1e-9

# _settled_keys merges a class's runs of keys into one list up to this many
# keys, and leaves larger ones as runs of smaller lists, so that no group is
# ever copied whole: brute_force's process peaks near 100 MB on a min_max
# call at (14, 6) with one group of 10,306,752 keys. Limits from 512 to
# 65,536 ran equally fast (2 CPUs, Python 3.11).
_RUN_KEYS = 4096


# --- result types -----------------------------------------------------


_OCTAL = bytes.maketrans(b"01234567", bytes(range(8)))


class _Optima(Sequence):
    """Read-only sequence of oracle optima, each kept as one integer: the
    canonical assignment over n elements in base 8, first element most
    significant, in an ascending array('Q'). Reading an optimum builds its
    Partition, unchecked, since n octal digits with leading zeros kept are
    canonical labels below k; the sequence equals, and hashes as, the tuple
    of them."""

    def __init__(self, keys: array, n: int, k: int):
        self._keys, self._digits, self._k = keys, f"0{n}o", k

    def _partition(self, key: int) -> Partition:
        labels = format(key, self._digits).encode().translate(_OCTAL)
        return Partition._derived(tuple(labels), self._k)

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


# --- exhaustive oracle -------------------------------------------------


def _guard_oracle(n: int, k: int) -> None:
    _check_k(k)
    if n > MAX_ORACLE_N:
        raise SizeLimitError(f"oracle handles at most {MAX_ORACLE_N} elements, got {n}")
    if k > MAX_ORACLE_K:
        raise SizeLimitError(f"oracle handles at most k={MAX_ORACLE_K}, got {k}")


def _subset_table(values, empty) -> list:
    """The sum of each subset of values, indexed by mask, bit p standing for
    values[p], and empty for the empty subset's. Each value is added on the
    left, so lists of descending weights come out ascending."""
    out = [empty]
    for x in values:
        out += [x + q for q in out]
    return out


def _slot_table(w, objective: str) -> tuple[list, list]:
    """(t, sums): the objective's per-block term and the subset sum, each
    indexed by subset mask, filled in one pass that serves every sweep.

    Bit p of a mask stands for sorted position p of the descending weights
    w. Compression's t is the merge cost of the members, entropy's
    q * log2(q) of the subset sum q (0.0 for the empty block), max_min's
    -q, and every other t is sums itself. One _subset_table doubling fills
    sums: O(2**n) entries, at every k, k = 1 included, whose one partition
    is scored from them as any other.

    Most merge costs are read off a smaller subset's. Mask m's largest
    weight y sits at its lowest bit, g is m without it, and x is g's
    largest weight. A Huffman merge of g takes in no value above
    sums[g] - x but x itself: merged values never fall, so the smaller
    operand of its last merge is at least x. So with y >= sums[g] - x, no
    value g's merge takes in exceeds y, and a merge of m may run g's
    merges first, since a tie between equal values leaves the cost
    unchanged, and take y last: t[m] = t[g] + sums[m]. Otherwise m's
    members are folded, ascending as _merge_cost_sorted reads them: those
    among the lighter positions h.. and then among the heavier 0..h - 1,
    from two _subset_table doublings of 2**(n - h) and 2**h member lists.
    """
    sums = _subset_table(w, 0)
    if objective == "compression":
        h = len(w) // 2
        cut = (1 << h) - 1
        heavy = _subset_table([[x] for x in w[:h]], [])
        light = _subset_table([[x] for x in w[h:]], [])
        t = [0] * len(sums)
        for m in range(3, len(sums)):
            low = m & -m
            g = m ^ low
            if not g:
                continue
            # g & (g - 1) is g without its largest weight
            if sums[low] >= sums[g & (g - 1)]:
                t[m] = t[g] + sums[m]
            else:
                t[m] = _merge_cost_sorted(light[m >> h] + heavy[m & cut])
        return t, sums
    if objective == "entropy":
        log2 = math.log2
        return [q * log2(q) if q else 0.0 for q in sums], sums
    if objective == "max_min":
        return [-q for q in sums], sums
    return sums, sums


def _entropy_slack(total: int) -> float:
    """How far past the least sum of terms the entropy sweep keeps a
    partition: the band's _ENTROPY_TOL bits times total, with 2e-12 bits
    more, far above the rounding of the plain float sums it compares."""
    return (_ENTROPY_TOL + 2e-12) * total


# Innermost levels of the sweep, one per swept objective. Each walks the
# submasks s of r2, the remainder past its lowest element low, and scores
# the partition whose last two blocks are low | s and r2 ^ s; pre holds the
# blocks before them and agg their terms, folded as the placing levels fold
# them. Ties with the best go to picks, which is cleared when the best
# improves; entropy's level keeps everything within slack, the
# _entropy_slack of the swept total, instead, and clears none.


def _last_two_compression(t, slack, low, r2, pre, agg, best, picks):
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


def _last_two_min_max(t, slack, low, r2, pre, agg, best, picks):
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


def _last_two_min_diff(t, slack, low, r2, pre, agg, best, picks):
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


def _last_two_product(t, slack, low, r2, pre, agg, best, picks):
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


def _last_two_entropy(t, slack, low, r2, pre, agg, best, picks):
    # best is the least plain sum of terms so far, and a split within the
    # slack of it is kept; picks a later, lower best leaves outside the
    # band are dropped by _sweep's settle, not here
    cut = best + slack
    s = r2
    while True:
        a = low | s
        b = r2 ^ s
        v = agg + t[a] + t[b]
        if v <= cut:
            if v < best:
                best = v
                cut = v + slack
            picks.append(pre + (a, b))
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


def _summary(last_two, score, t, sums, r, agg0, best0):
    """(m, splits): the best value of remainder r's last two blocks alone,
    and every split of r that reaches it.

    r is dominated when its largest weight x, at its lowest position, is
    at least the sum of the rest: 2 * x >= sums[r]. Then x alone against
    the rest is the one best split, scored by score with no scan, since
    weights are >= 1. Any other split adds a nonempty part S of the rest
    to x's block:
    - balance objectives: x's side is the heavier, so the larger sum
      grows, the smaller falls and their product falls, all strictly.
    - compression: Huffman merges S before x, so t[x | S] = t[S] +
      sums[S] + x > t[S] + sums[rest], while merging the trees of S and
      of rest ^ S costs t[S] + t[rest ^ S] + sums[rest] >= t[rest].
    - entropy, whose summary is only a bound: q * log2(q) is strictly
      convex, so the evener split is the lesser. Float rounding, about an
      ulp, lies far inside the 2e-12 * total _entropy_slack keeps past the
      band, so the kept set cannot change.
    """
    low = r & -r
    rest = r ^ low
    if 2 * sums[low] >= sums[r]:
        return score((t[low], t[rest])), [(low, rest)]
    splits: list = []
    return last_two(t, 0.0, low, rest, (), agg0, best0, splits), splits


def _last_three_compression(t, sums, slack, low, r2, pre, agg, best, picks, summ, descend):
    # each split adds its own term to agg + t[b], so the summary's splits
    # are exactly the best ones under any prefix
    s = r2
    while True:
        b = low | s
        r = r2 ^ s
        e = summ[r]
        if e is None:
            e = summ[r] = _summary(_last_two_compression, sum, t, sums, r, 0, math.inf)
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


def _last_three_product(t, sums, slack, low, r2, pre, agg, best, picks, summ, descend):
    # agg * t[b] is 0 only when b is empty; then so is r, which has one split
    s = r2
    while True:
        b = low | s
        r = r2 ^ s
        e = summ[r]
        if e is None:
            e = summ[r] = _summary(_last_two_product, math.prod, t, sums, r, 1, -1)
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


class _Settled(namedtuple("_Settled", "head rest slots")):
    """A min_max choice whose every completion scores its value: the head
    blocks placed, and the remainder rest, which the sweep need not split.
    In picks it stands for every partition of rest into at most slots
    blocks after head."""

    __slots__ = ()


def _last_three_min_max(t, sums, slack, low, r2, pre, agg, best, picks, summ, descend):
    # with a = max(agg, t[b]) <= m every split scores max(a, its own max),
    # so the summary's splits are the best ones; above m, a split ties at a
    # whenever its own max is at most a. Over sums >= 0 no split's own max
    # exceeds t[r], so with a >= t[r] every split ties and the choice is
    # one settled group, which needs no summary (a summary cached before
    # settles it only when a = m = t[r], so r has one weight and one split);
    # otherwise a scan finds the ties
    s = r2
    while True:
        b = low | s
        r = r2 ^ s
        a = t[b]
        if agg > a:
            a = agg
        e = summ[r]
        if e is None and not 0 <= t[r] <= a:
            e = summ[r] = _summary(_last_two_min_max, max, t, sums, r, -math.inf, math.inf)
        if e is not None and a <= e[0]:
            m = e[0]
            if m <= best:
                if m < best:
                    best = m
                    picks.clear()
                head = pre + (b,)
                picks += [head + split for split in e[1]]
        elif a <= best:
            if 0 <= t[r] <= a:
                if a < best:
                    best = a
                    picks.clear()
                picks.append(_Settled(pre + (b,), r, 2))
            else:
                best = descend(r, 2, pre + (b,), a, best)
        if not s:
            return best
        s = (s - 1) & r2


def _span(terms):
    return max(terms) - min(terms)


def _last_three_min_diff(t, sums, slack, low, r2, pre, agg, best, picks, summ, descend):
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
            m = summ[r] = _summary(
                _last_two_min_diff, _span, t, sums, r, (0, math.inf), math.inf
            )[0]
        q = t[b]
        hi = hi0 if hi0 > q else q
        lo = lo0 if lo0 < q else q
        y = (t[r] + m) >> 1
        x = t[r] - y
        if (y if y > hi else hi) - (x if x < lo else lo) <= best:
            best = descend(r, 2, pre + (b,), (hi, lo), best)
        if not s:
            return best
        s = (s - 1) & r2


def _last_three_entropy(t, sums, slack, low, r2, pre, agg, best, picks, summ, descend):
    # m, the least t[a] + t[b] over r's splits, bounds the sums the scan
    # below compares, up to rounding far inside the slack; a choice past
    # the cut gets no scan, since the scan would keep nothing
    s = r2
    while True:
        b = low | s
        r = r2 ^ s
        m = summ[r]
        if m is None:
            m = summ[r] = _summary(_last_two_compression, math.fsum, t, sums, r, 0, math.inf)[0]
        a = agg + t[b]
        if a + m <= best + slack:
            best = descend(r, 2, pre + (b,), a, best)
        if not s:
            return best
        s = (s - 1) & r2


# Each objective's bound: whether its placing level may skip remainder r,
# with j >= 2 slots left after the blocks folded into agg, since a proven
# bound on r's best completion is strictly worse than best. R = sums[r] is
# r's sum and x = sums[r & -r] its largest weight, at its lowest position,
# or 0 if r is empty. On wide weights x dominates R, and the block holding
# it limits every completion more than R / j does. Under the balance
# objectives some block holds x, and one ceil(R / j) or more; with
# x >= R / j the other j - 1 share R - x, else one holds floor(R / j) or less.
# A placing level asks its bound only after its own-score test has passed
# (product_of_sums has none), so no bound tests agg against best alone;
# entropy's hands its bound the cut, best plus slack, as best.


def _skip_compression(t, sums, agg, r, j, best):
    # a balanced tree over the j blocks' Huffman trees puts each root at
    # depth ceil(log2(j)), so merging them into one tree for r costs at
    # most that many times R, and no tree for r costs less than t[r]
    return agg + t[r] - (j - 1).bit_length() * sums[r] > best


def _skip_product_of_sums(t, sums, agg, r, j, best):
    R = sums[r]
    x = sums[r & -r]
    if x * j > R:
        # the block holding x sums to some y >= x > R / j, the other
        # j - 1 to at most ((R - y) / (j - 1)) ** (j - 1) by AM-GM, and
        # y * (R - y) ** (j - 1) falls as y grows past R / j
        return agg * x * (R - x) ** (j - 1) < best * (j - 1) ** (j - 1)
    # AM-GM: j sums that add up to R multiply to at most (R / j) ** j
    return agg * R**j < best * j**j


def _skip_entropy(t, sums, agg, r, j, best):
    # q * log2(q) is convex, so the j terms add up to R * log2(R / j) or
    # more; with x > R / j, to x * log2(x) plus the other j - 1 blocks'
    # least, which grows with the block holding x. best is the placing
    # level's cut, whose slack covers the rounding on both sides
    R = sums[r]
    x = sums[r & -r]
    if x * j > R:
        rest = R - x
        least = x * math.log2(x) + (rest * math.log2(rest / (j - 1)) if rest else 0.0)
    else:
        least = R * math.log2(R / j) if R else 0.0
    return agg + least > best


def _skip_min_max(t, sums, agg, r, j, best):
    R = sums[r]
    x = sums[r & -r]
    return (x if x * j >= R else -(-R // j)) > best


def _skip_max_min(t, sums, agg, r, j, best):
    R = sums[r]
    x = sums[r & -r]
    return -((R - x) // (j - 1) if x * j >= R else R // j) > best


def _skip_min_diff(t, sums, agg, r, j, best):
    hi, lo = agg
    R = sums[r]
    x = sums[r & -r]
    if x * j >= R:
        top, bottom = x, (R - x) // (j - 1)
    else:
        top, bottom = -(-R // j), R // j
    return (hi if hi > top else top) - (lo if lo < bottom else bottom) > best


# Each objective's placing level places block b = low | s, folds its term
# into agg and hands the remainder r = r2 ^ s, with its j slots, to
# descend, the next level down, unless the blocks' own score, which every
# completion reaches, or else the remainder's bound, rules the choice out.


def _place_compression(t, sums, slack, low, r2, pre, agg, best, picks, j, descend):
    s = r2
    while True:
        b = low | s
        a = agg + t[b]
        if a <= best and not _skip_compression(t, sums, a, r2 ^ s, j, best):
            best = descend(r2 ^ s, j, pre + (b,), a, best)
        if not s:
            return best
        s = (s - 1) & r2


def _place_product(t, sums, slack, low, r2, pre, agg, best, picks, j, descend):
    # a block's own product says nothing until the rest is placed
    s = r2
    while True:
        b = low | s
        a = agg * t[b]
        if not _skip_product_of_sums(t, sums, a, r2 ^ s, j, best):
            best = descend(r2 ^ s, j, pre + (b,), a, best)
        if not s:
            return best
        s = (s - 1) & r2


def _place_entropy(t, sums, slack, low, r2, pre, agg, best, picks, j, descend):
    # terms are >= 0, so adding the rest's never lowers a float sum
    cut = best + slack
    s = r2
    while True:
        b = low | s
        a = agg + t[b]
        if a <= cut and not _skip_entropy(t, sums, a, r2 ^ s, j, cut):
            best = descend(r2 ^ s, j, pre + (b,), a, best)
            cut = best + slack
        if not s:
            return best
        s = (s - 1) & r2


def _place_min_max(t, sums, slack, low, r2, pre, agg, best, picks, j, descend):
    s = r2
    while True:
        b = low | s
        a = t[b] if t[b] > agg else agg
        if a <= best:
            r = r2 ^ s
            if t[r] <= a:
                # no block of r outweighs a, so every completion scores a
                if a < best:
                    best = a
                    picks.clear()
                picks.append(_Settled(pre + (b,), r, j))
            elif not _skip_min_max(t, sums, a, r, j, best):
                best = descend(r, j, pre + (b,), a, best)
        if not s:
            return best
        s = (s - 1) & r2


def _place_max_min(t, sums, slack, low, r2, pre, agg, best, picks, j, descend):
    # no settled branch: over the negated sums only an empty remainder settles
    s = r2
    while True:
        b = low | s
        a = t[b] if t[b] > agg else agg
        if a <= best and not _skip_max_min(t, sums, a, r2 ^ s, j, best):
            best = descend(r2 ^ s, j, pre + (b,), a, best)
        if not s:
            return best
        s = (s - 1) & r2


def _place_min_diff(t, sums, slack, low, r2, pre, agg, best, picks, j, descend):
    hi0, lo0 = agg
    s = r2
    while True:
        b = low | s
        q = t[b]
        hi = hi0 if hi0 > q else q
        lo = lo0 if lo0 < q else q
        if hi - lo <= best and not _skip_min_diff(t, sums, (hi, lo), r2 ^ s, j, best):
            best = descend(r2 ^ s, j, pre + (b,), (hi, lo), best)
        if not s:
            return best
        s = (s - 1) & r2


# objective -> (innermost level, the level above it, the placing level,
# the score of a whole partition's terms, agg before any block). max_min
# minimizes the largest of its terms, the negated sums, as min_max does its
# sums; entropy the float sum of its terms, as compression does its integer
# one, scored by fsum. min_diff's agg is the (largest, least) pair of terms
_SWEEPS = {
    "compression": (_last_two_compression, _last_three_compression, _place_compression, sum, 0),
    "min_max": (_last_two_min_max, _last_three_min_max, _place_min_max, max, -math.inf),
    "max_min": (_last_two_min_max, _last_three_min_max, _place_max_min, max, -math.inf),
    "min_diff": (_last_two_min_diff, _last_three_min_diff, _place_min_diff, _span, (0, math.inf)),
    "product_of_sums": (_last_two_product, _last_three_product, _place_product, math.prod, 1),
    "entropy": (_last_two_entropy, _last_three_entropy, _place_entropy, math.fsum, 0.0),
}


def _incumbent(t, w, k: int, objective: str, full: int):
    """Score, as the innermost level scores it, of a largest-first greedy
    partition of the positions in the mask full: each, from position 0 up,
    so the largest weight first, joins the lightest block, the lowest on
    ties. Entropy's is the fsum of its terms, within an ulp of the levels' sum."""
    blocks = [0] * k
    sums = [0] * k
    for p in range(len(w)):
        if full >> p & 1:
            i = sums.index(min(sums))
            blocks[i] |= 1 << p
            sums[i] += w[p]
    return _SWEEPS[objective][3]([t[b] for b in blocks])


def _partitions_up_to(n: int, k: int) -> int:
    """Sum of S(n, j) over j <= k: the set partitions of n elements into at
    most k blocks, by the Stirling recurrence S(m, j) = j S(m-1, j) + S(m-1, j-1)."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row)


def _sweep(t, sums, w, k: int, objective: str, within: int | None = None):
    """Find every optimum among the partitions of the sorted positions
    into <= k blocks.

    t and sums are the two tables _slot_table filled over the descending
    weights w; the sweep reads them and builds none. A partition is k
    block masks: block j holds the lowest position no earlier block holds,
    plus any subset of the positions left, and unused slots are mask 0. So
    each set partition appears exactly once, block 0 holds the largest
    weight, and an unused slot adds the zero sum objectives.py counts for
    it. within, a mask of positions, sweeps those alone, as the whole
    instance of their weights: the same table entries in the same order,
    since a submask keeps its positions descending. Every bound but
    compression's reads a remainder's largest weight at its lowest
    position, so only compression may be swept over w in any other order.

    The best starts at a greedy partition's score from this same family,
    so no tie at a worse value is kept. descend hands a remainder and its
    slots to the objective's placing level, whose bound may skip it; at
    k >= 4 to the summary level of the module docstring with three slots
    left; and to the innermost level with two. Every scan under a prefix
    goes through descend, so _SWEEPS alone pairs the levels. Returns
    (best, picks): picks holds every optimum's block masks in sweep order,
    and under min_max the _Settled groups that stand for many at once; the
    sweep counts no partitions. Entropy's levels keep every partition
    within _entropy_slack of the least sum of terms so far; its band is
    settled here, once, on each kept partition's H from its terms' fsum.
    """
    last_two, last_three, place, _, agg0 = _SWEEPS[objective]
    full = (1 << len(w)) - 1 if within is None else within
    total = sums[full]
    slack = _entropy_slack(total)
    best = _incumbent(t, w, k, objective, full)
    picks: list = []
    summ = [None] * (full + 1) if k > 3 else None

    def descend(rem, slots, pre, agg, best):
        low = rem & -rem
        if slots == 2:
            return last_two(t, slack, low, rem ^ low, pre, agg, best, picks)
        if slots == 3 and summ is not None:
            return last_three(t, sums, slack, low, rem ^ low, pre, agg, best, picks, summ, descend)
        return place(t, sums, slack, low, rem ^ low, pre, agg, best, picks, slots - 1, descend)

    if k == 1:
        # the greedy put every position in block 0: the only partition
        picks.append((full,))
    else:
        best = descend(full, k, (), agg0, best)
    if objective == "entropy":
        hs = [_terms_bits(map(t.__getitem__, blocks), total) for blocks in picks]
        best = max(hs)
        picks = [blocks for h, blocks in zip(hs, picks) if h >= best - _ENTROPY_TOL]
    return best, picks


def _settled_keys(group: _Settled, digits):
    """Runs (offset, keys) of the base-8 keys of every partition a settled
    group stands for, in canonical labels: the offset plus each of keys,
    ascending within and across runs.

    digits[b] has an octal 1 at the original index of each member of mask
    b, so the block that starts first has the larger digits. The head
    blocks and the free indices, those of the rest, are events walked in
    input order, as restricted growth strings are listed (Knuth, TAOCP 4A,
    7.2.1.5). A class of partial partitions is the labels used and which
    of them label free blocks. A free index joins an open free block, or
    opens one while fewer than slots are; a head block takes the next
    label, at every index of it at once. One walk, tails(i, used, free),
    gives a class at event i its completions' keys, a run of the next
    class's per move, in label order. Runs of at most _RUN_KEYS keys in
    all are merged into one list, kept for each class that reaches it;
    larger ones are not copied, but rebuilt per move and freed on return.
    """
    head, rest, slots = group
    heads = [digits[b] for b in head if b]
    frees = [digits[1 << p] for p in range(rest.bit_length()) if rest >> p & 1]
    if slots == 2 and frees:
        return _two_slot_keys(heads, frees, digits[rest])

    events = sorted([(d, True) for d in heads] + [(d, False) for d in frees], reverse=True)
    small = {}  # (i, used, free) -> its one run, for each class whose keys fit in one

    def tails(i, used, free):
        if i == len(events):
            return [(0, [0])]
        if (i, used, free) in small:
            return small[i, used, free]
        d, is_head = events[i]
        if is_head:
            moves = [(used, used + 1, free)]
        else:
            moves = [(label, used, free) for label in free]
            if len(free) < slots:
                moves.append((used, used + 1, free + (used,)))
        runs = [(off + label * d, keys) for label, *to in moves for off, keys in tails(i + 1, *to)]
        if len(runs) > 1 and sum(len(keys) for _, keys in runs) <= _RUN_KEYS:
            runs = [(0, [x + off for off, keys in runs for x in keys])]
        if len(runs) == 1:
            small[i, used, free] = runs
        return runs

    runs = tails(0, 0, ())
    small.clear()  # tails holds small in a cycle: free its lists now, not at a collection
    return runs


def _two_slot_keys(heads, frees, whole):
    """_settled_keys for a rest of at most two blocks, in closed form, from
    the digits of the head blocks, of each free index and of the whole rest.

    Block A holds the rest's first index. Block B, if any, starts at a
    later free index i: A holds every free index before i, and each one
    after it goes to either block. So the keys of one start are an offset
    plus a multiple of the subset sums of the digits after i, which are
    built once, from the last index up. A later start has the smaller keys.
    """
    heads.sort(reverse=True)
    frees.sort()
    first = frees.pop()
    # with A alone, a head's label is its rank among the heads, one more
    # if it starts after A
    ahead = sum(d > first for d in heads)
    base = ahead * whole + sum((label + (d < first)) * d for label, d in enumerate(heads))
    runs = [(base, [0])]
    heads.reverse()
    after = 0  # heads that start after B, each one label up
    shift = 0
    subsets = [0]
    for d in frees:
        while after < len(heads) and heads[after] < d:
            shift += heads[after]
            after += 1
        # B's label less A's: one for A, and one for each head between them
        step = len(heads) - after - ahead + 1
        keys = subsets if step == 1 else [step * x for x in subsets]
        runs.append((base + shift + step * d, keys))
        subsets = subsets + [x + d for x in subsets]
    return runs


def brute_force(inst: Instance, k: int, objective: str) -> OracleResult:
    """Exhaustively optimize one objective over all partitions into <= k blocks.

    Sorts the elements by weight, largest first, fills the per-block terms
    and subset sums of all 2**n subsets in one _slot_table pass (O(2**n)),
    then sweeps the partitions with O(1) lookups in them, as the module
    docstring describes. partitions_searched is every partition,
    covered whether scored or ruled out: the Stirling sum over j <= k.
    Exact integer objectives compare exactly; entropy keeps every
    partition within 1e-9 of the best. min_entropy is a decreasing
    function of min_max, the largest subset sum, and is read off its sweep;
    max_min is minus min_max's sweep over its terms, the negated sums. Each
    optimum is kept as one integer, its canonical assignment in base 8,
    read off one more O(2**n) table of each mask's digits; sorting the
    integers sorts the assignments. The optima of a settled group are
    listed as integers from the same table by _settled_keys, with no block
    masks. Guarded to n <= 14 and k <= 6.
    """
    if objective not in OBJECTIVES:
        raise InputError(
            f"unknown objective {objective!r}; expected one of {', '.join(OBJECTIVES)}"
        )
    n = len(inst.weights)
    _guard_oracle(n, k)
    order = sorted(range(n), key=inst.weights.__getitem__, reverse=True)
    w = [inst.weights[e] for e in order]
    swept = "min_max" if objective == "min_entropy" else objective
    best, picks = _sweep(*_slot_table(w, swept), w, k, swept)
    if objective == "max_min":
        best = -best
    elif objective == "min_entropy":
        best = _min_entropy_bits(best, inst.total)
    # digits[b] has an octal 1 at the original index of each member of b.
    # Of disjoint blocks, the one holding the lowest index has the largest
    # digits, so the k blocks' digits, ascending, take the canonical labels
    # k - 1, ..., 1, 0; unused slots have digits 0
    digits = _subset_table([1 << 3 * (n - 1 - e) for e in order], 0)
    labels = range(k - 1, -1, -1)
    keys = array("Q")
    for pick in picks:
        if type(pick) is _Settled:
            for off, run in _settled_keys(pick, digits):
                keys.extend(map(off.__add__, run) if off else run)
        else:
            keys.append(sum(map(mul, labels, sorted(map(digits.__getitem__, pick)))))
    if len(picks) > 1:
        keys = array("Q", sorted(keys))
    optima = _Optima(keys, n, k)
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
    return Partition._derived(tuple(out), k).canonical()


# --- verification harnesses --------------------------------------------


def verify_lemma2(inst: Instance, k: int) -> Lemma2Report:
    """Check that co-grouping the two smallest weights cannot hurt compression.

    Fills the compression and subset-sum tables once, O(2**n), and both
    sweeps read them with O(1) lookups per partition. The first sweeps
    every partition into at most k blocks, for the least integer
    compression cost. The second sweeps the partitions that put the two
    smallest weights, at the top two sorted positions, in one block. They
    are the partitions of n - 1 positions whose last stands for both, and
    their tables are views of the same two: the entries without either
    weight, then those with both. partitions_searched counts the first
    sweep's partitions. Requires n > k.
    """
    _check_k(k)
    n = len(inst.weights)
    if n <= k:
        raise InputError(f"requires n > k, got n={n} and k={k}")
    _guard_oracle(n, k)
    w = sorted(inst.weights, reverse=True)
    t, sums = _slot_table(w, "compression")
    un_min = _sweep(t, sums, w, k, "compression")[0]
    q = 1 << (n - 2)
    w2 = w[:-2] + [w[-2] + w[-1]]
    con_min = _sweep(t[:q] + t[3 * q :], sums[:q] + sums[3 * q :], w2, k, "compression")[0]
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
    labels = _int_tuple("label", labels)
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
    w = sorted(inst.weights, reverse=True)
    t, sums = _slot_table(w, "entropy")
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
