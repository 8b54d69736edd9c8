"""Domain types for multiway number partitioning.

An Instance is a list of positive integer weights; a Partition assigns each
element index to one of k group labels. Distributions are kept exact as
integer numerators over a common denominator so that every objective can be
compared without rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# Size envelope: with weights <= 2**40 and at most 2**20 elements, the total
# and every merge sum stay below 2**60, inside signed 64-bit range.
MAX_WEIGHT = 1 << 40
MAX_ELEMENTS = 1 << 20


class InputError(ValueError):
    """Malformed or semantically invalid input."""


class SizeLimitError(InputError):
    """Input exceeds the guarded size envelope."""


_TOKEN = re.compile(r"[+-]?[0-9]+\Z")
# '#' to the end of the line, where a line ends wherever str.splitlines breaks
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
# a decimal token with more significant digits lies outside [1, MAX_WEIGHT]
_WEIGHT_DIGITS = len(str(MAX_WEIGHT))


# --- types ------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A list S of positive integer weights plus its exact total M.

    Weights keep input order; duplicates are distinct elements identified
    by index.
    """

    weights: tuple[int, ...]
    total: int = field(init=False)

    def __post_init__(self) -> None:
        ws, total = _check_weights(self.weights)
        if not ws:
            raise InputError("an instance needs at least one weight")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "total", total)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class Partition:
    """An assignment of element indices to group labels 0..k-1.

    Equality and hashing are label-invariant: two partitions are equal when
    they induce the same grouping regardless of label names. canonical()
    relabels groups in first-occurrence order.

    Construction checks k, then each label (an int, not a bool, in [0, k));
    _derived skips those checks for labels the library computed itself.
    """

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        _check_k(self.k)
        a = _int_tuple("label", self.assignment)
        object.__setattr__(self, "assignment", a)
        if not a:
            raise InputError("assignment must cover at least one element")
        if min(a) < 0 or max(a) >= self.k:
            raise InputError("assignment labels must lie in [0, k)")

    @classmethod
    def _derived(cls, assignment: tuple[int, ...], k: int) -> "Partition":
        """A Partition built without __post_init__, for a nonempty tuple of
        ints in [0, k) under a checked k, as the library derives them."""
        part = object.__new__(cls)
        part.__dict__.update(assignment=assignment, k=k)
        return part

    def canonical(self) -> "Partition":
        """Relabel groups in first-occurrence order; idempotent."""
        perm = _first_occurrence(self.assignment, self.k)
        used = self.k - perm.count(-1)
        if perm[:used] == list(range(used)):
            return self
        return Partition._derived(tuple(map(perm.__getitem__, self.assignment)), self.k)

    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Member indices per label; empty groups are empty tuples."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for e, a in enumerate(self.assignment):
            out[a].append(e)
        return tuple(tuple(g) for g in out)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "assignment": list(self.assignment)}

    @staticmethod
    def from_json_dict(obj: dict) -> "Partition":
        if not isinstance(obj, dict) or set(obj) != {"k", "assignment"}:
            raise InputError('partition JSON must be {"k": int, "assignment": [int]}')
        assignment = obj["assignment"]
        if not isinstance(assignment, list) or not all(
            isinstance(a, int) and not isinstance(a, bool) for a in assignment
        ):
            raise InputError("partition assignment must be a list of integers")
        return Partition(tuple(assignment), obj["k"])

    def __eq__(self, other: object):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.k == other.k
            and self.canonical().assignment == other.canonical().assignment
        )

    def __hash__(self) -> int:
        return hash((self.k, self.canonical().assignment))


@dataclass(frozen=True)
class Dist:
    """An exact probability vector: integer numerators over one denominator.

    members optionally records the element index behind each numerator,
    which conditional distributions carry along.
    """

    numerators: tuple[int, ...]
    denominator: int
    members: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        nums = _int_tuple("numerator", self.numerators)
        object.__setattr__(self, "numerators", nums)
        _check_int("denominator", self.denominator)
        if self.members is not None:
            object.__setattr__(self, "members", _int_tuple("member", self.members))
            if len(self.members) != len(nums):
                raise InputError("members must align one-to-one with numerators")
        if self.denominator < 1:
            raise InputError("denominator must be positive")
        if not nums:
            raise InputError("a distribution needs at least one entry")
        if min(nums) < 0:
            raise InputError("numerators must be non-negative")
        if sum(nums) != self.denominator:
            raise InputError("numerators must sum to the denominator exactly")


@dataclass(frozen=True)
class SubsetSums:
    """Per-group weight totals q_i for one partition."""

    sums: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        sums = _int_tuple("sum", self.sums)
        object.__setattr__(self, "sums", sums)
        _check_int("total", self.total)
        if sum(sums) != self.total:
            raise InputError("subset sums must conserve the instance total")


# --- operations -------------------------------------------------------


def _int_text(x: int) -> str:
    """x in decimal, or by its sign and bit length where str() refuses it:
    past the interpreter's digit limit (sys.set_int_max_str_digits)."""
    try:
        return str(x)
    except ValueError:
        return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"


def _check_weights(ws) -> tuple[tuple[int, ...], int]:
    """ws as a tuple and its total, held to the Instance rules: an iterable
    of ints, not bools, each in [1, MAX_WEIGHT], at most MAX_ELEMENTS of
    them. An empty iterable passes as ((), 0)."""
    ws = _int_tuple("weight", ws)
    if len(ws) > MAX_ELEMENTS:
        raise SizeLimitError(f"{len(ws)} elements exceed the limit of {MAX_ELEMENTS}")
    if ws:
        if min(ws) < 1:
            raise InputError(f"weights must be positive, got {_int_text(min(ws))}")
        if max(ws) > MAX_WEIGHT:
            raise SizeLimitError(
                f"weight {_int_text(max(ws))} exceeds the limit of {MAX_WEIGHT}"
            )
    return ws, sum(ws)


def _check_int(name: str, x) -> None:
    """Reject x unless it is an int and not a bool; the message calls it name."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InputError(f"{name} must be an integer, got {x!r}")


def _int_tuple(name: str, xs) -> tuple[int, ...]:
    """xs as a tuple, each item held to _check_int(name, item). One pass in
    C gathers the items' types; only a bad type is looked for item by item."""
    try:
        xs = tuple(xs)
    except TypeError:
        raise InputError(f"{name}s must be an iterable of integers, got {xs!r}") from None
    if not all(issubclass(tp, int) and tp is not bool for tp in set(map(type, xs))):
        for x in xs:
            _check_int(name, x)
    return xs


def _check_k(k: int) -> None:
    """Reject a group count that is not an integer in [1, MAX_ELEMENTS]."""
    _check_int("k", k)
    if k < 1:
        raise InputError(f"k must be at least 1, got {_int_text(k)}")
    if k > MAX_ELEMENTS:
        raise SizeLimitError(f"k={_int_text(k)} exceeds the limit of {MAX_ELEMENTS}")


def _first_occurrence(labels, k: int) -> list[int]:
    """Map each of k labels to its rank of first appearance in labels.

    Labels that never appear map to -1. Stops at the last label's first
    appearance, so it reads only a prefix.
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


def _check_covers(inst: Instance, p: Partition) -> None:
    """Reject a partition whose assignment length differs from the instance's."""
    if len(p.assignment) != len(inst.weights):
        raise InputError(
            f"partition covers {len(p.assignment)} elements, "
            f"instance has {len(inst.weights)}"
        )


def parse_instance(text: str) -> Instance:
    """Parse whitespace- or comma-separated decimal weights.

    A '#' starts a comment running to end of line. Raises InputError on
    empty input, non-integer tokens, or nonpositive values.
    """
    body = _COMMENT.sub("", text)
    tokens = body.replace(",", " ").split()
    if not tokens:
        raise InputError("no weights found in input")
    weights = None
    # int() also reads underscores and non-ASCII digits, which a decimal
    # weight cannot have; past those it refuses only a bad or over-long token
    if "_" not in body and (body.isascii() or all(map(str.isascii, tokens))):
        try:
            weights = tuple(map(int, tokens))
        except ValueError:
            pass
    return Instance(_read_tokens(tokens) if weights is None else weights)


def _read_tokens(tokens) -> list[int]:
    """Weights of tokens that int() refused or was not given.

    Names the first token that is not a decimal integer. If all are, int()
    refused one past its digit limit, which PYTHONINTMAXSTRDIGITS sets, so
    each token is read by its significant digits instead. One with more of
    them than MAX_WEIGHT lies below or above every weight in range, and is
    judged as Instance would judge its value.
    """
    for tok in tokens:
        if _TOKEN.match(tok) is None:
            raise InputError(f"not a decimal integer: {tok!r}")
    ws = []
    # the digits of the most negative and of the largest out-of-range token
    low = high = (0, "")
    for tok in tokens:
        digits = tok.lstrip("+-").lstrip("0")
        if len(digits) <= _WEIGHT_DIGITS:
            value = int(digits or "0")
            ws.append(-value if tok[0] == "-" else value)
            continue
        if tok[0] == "-":
            low = max(low, (len(digits), digits))
        else:
            high = max(high, (len(digits), digits))
        ws.append(1)  # a stand-in that keeps the element count
    if len(ws) <= MAX_ELEMENTS:  # else Instance rejects the count first
        if low[1]:
            raise InputError(f"weights must be positive, got -{low[1]}")
        if high[1] and min(ws) >= 1:
            raise SizeLimitError(f"weight {high[1]} exceeds the limit of {MAX_WEIGHT}")
    return ws


def subset_sums(inst: Instance, p: Partition) -> SubsetSums:
    """Per-label weight totals; empty labels yield 0."""
    _check_covers(inst, p)
    sums = [0] * p.k
    for w, a in zip(inst.weights, p.assignment):
        sums[a] += w
    return SubsetSums(tuple(sums), inst.total)


def marginal_dist(inst: Instance, p: Partition) -> Dist:
    """Distribution of the group label A = f(X): subset sums over M."""
    return Dist(subset_sums(inst, p).sums, inst.total)


def conditional_dist(inst: Instance, p: Partition, label: int) -> Dist:
    """Distribution of X restricted to one group.

    Numerators are the member weights over the group sum; members carries
    the element indices. Raises InputError for an empty group or a label
    that is not an int in [0, k).
    """
    _check_covers(inst, p)
    _check_int("label", label)
    if not 0 <= label < p.k:
        raise InputError(f"label {_int_text(label)} outside [0, {p.k})")
    members = tuple(e for e, a in enumerate(p.assignment) if a == label)
    if not members:
        raise InputError(f"group {label} is empty")
    nums = tuple(inst.weights[e] for e in members)
    return Dist(nums, sum(nums), members)


def instance_dist(inst: Instance) -> Dist:
    """Distribution of X itself: weights over M."""
    return Dist(inst.weights, inst.total)
