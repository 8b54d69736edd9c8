"""Huffman construction: costs, code lengths, and optimality."""

import heapq
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpart import (
    MAX_ELEMENTS,
    MAX_WEIGHT,
    Dist,
    InputError,
    Instance,
    SizeLimitError,
    build_huffman,
    expected_length_bits,
    merge_cost,
    shannon_entropy,
)

weights_st = st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=40)


def test_worked_example_cost_and_lengths():
    code = build_huffman([1, 1, 2, 3, 4, 5])
    assert code.cost_numerator == 38
    assert code.weight_total == 16
    assert expected_length_bits(code) == 38 / 16 == 2.375
    # the two unit weights sit deepest, the three heavy leaves highest
    assert code.lengths == (4, 4, 3, 2, 2, 2)


def test_tiny_codes():
    assert build_huffman([7]) == build_huffman((7,))
    assert build_huffman([7]).lengths == (0,)
    assert build_huffman([7]).cost_numerator == 0
    assert build_huffman([1, 1]).lengths == (1, 1)
    assert build_huffman([1, 1]).cost_numerator == 2
    code = build_huffman([1, 1, 1, 1])
    assert code.lengths == (2, 2, 2, 2)
    assert code.cost_numerator == 8
    assert expected_length_bits(code) == 2.0


def test_merge_cost_agrees_with_tree():
    assert merge_cost([1, 1, 2, 3, 4, 5]) == 38
    assert merge_cost([5, 4, 3, 2, 1, 1]) == 38
    assert merge_cost([7]) == 0
    assert merge_cost([]) == 0
    assert merge_cost([3, 3]) == 6


def test_rejects_bad_weights():
    with pytest.raises(InputError):
        build_huffman([])
    with pytest.raises(InputError):
        build_huffman([1, 0, 2])
    with pytest.raises(InputError):
        merge_cost([-1])


@pytest.mark.parametrize(
    "ws",
    [
        [1.5, 2.5],
        [1.5, 2, 3],
        ["a", "b"],
        [1, 0, 2],
        [3, -1],
        [MAX_WEIGHT + 1, 1],
        [True, 2],
    ],
)
def test_weights_follow_the_instance_rules(ws):
    # floats once returned a float cost, and strings a bare TypeError
    with pytest.raises(InputError) as want:
        Instance(tuple(ws))
    for entry in (build_huffman, merge_cost):
        with pytest.raises(InputError) as got:
            entry(ws)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_rejects_weights_beyond_the_envelope():
    # sums past the 2**62 queue sentinel once raised a bare IndexError
    for entry in (build_huffman, merge_cost):
        with pytest.raises(SizeLimitError):
            entry([2**63, 2**63, 1])
        with pytest.raises(SizeLimitError):
            entry([MAX_WEIGHT + 1, 1])
        with pytest.raises(SizeLimitError):
            entry([1] * (MAX_ELEMENTS + 1))
    top = [MAX_WEIGHT, MAX_WEIGHT, 1]
    assert build_huffman(top).cost_numerator == merge_cost(top) == 3 * MAX_WEIGHT + 2


@given(weights_st)
def test_kraft_equality_is_exact(ws):
    code = build_huffman(ws)
    total = sum(Fraction(1, 2 ** l) for l in code.lengths)
    if len(ws) == 1:
        assert total == 1  # the empty word covers everything
    else:
        assert total == 1
        assert min(code.lengths) >= 1


@given(weights_st)
def test_cost_matches_lengths(ws):
    code = build_huffman(ws)
    assert code.cost_numerator == sum(w * l for w, l in zip(ws, code.lengths))
    assert code.weight_total == sum(ws)


@given(st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=40))
def test_two_cheapest_leaves_are_deepest_siblings(ws):
    code = build_huffman(ws)
    first, second = sorted(range(len(ws)), key=lambda i: (ws[i], i))[:2]
    deepest = max(code.lengths)
    assert code.lengths[first] == deepest
    assert code.lengths[second] == deepest


@given(weights_st)
def test_expected_length_sandwiches_entropy(ws):
    code = build_huffman(ws)
    h = shannon_entropy(Dist(tuple(ws), sum(ws)))
    e = expected_length_bits(code)
    assert h <= e + 1e-9
    if len(ws) >= 2:
        assert e - 1.0 < h + 1e-9


def _length_profiles(n):
    """Depth multisets of full binary trees with n leaves, by DFS on Kraft mass."""
    if n == 1:
        yield [0]
        return
    out = []

    def go(prefix, remaining, slots, low):
        if slots == 0:
            if remaining == 0:
                out.append(list(prefix))
            return
        for l in range(max(low, 1), n):
            piece = Fraction(1, 2 ** l)
            if piece > remaining:
                continue
            if remaining - piece > (slots - 1) * piece:
                break  # later lengths only get smaller pieces
            prefix.append(l)
            go(prefix, remaining - piece, slots - 1, l)
            prefix.pop()

    go([], Fraction(1), n, 1)
    yield from out


def _profile_optimum(ws):
    """Cheapest Kraft-tight cost: longest words on the lightest weights."""
    desc = sorted(ws, reverse=True)
    best = None
    for profile in _length_profiles(len(ws)):
        cost = sum(w * l for w, l in zip(desc, profile))
        if best is None or cost < best:
            best = cost
    return best


@given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
def test_cost_is_optimal_among_all_profiles(ws):
    assert build_huffman(ws).cost_numerator == _profile_optimum(ws)


def _reference_cost_with_random_ties(ws, rng):
    heap = [(w, rng.random()) for w in ws]
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        a = heapq.heappop(heap)[0]
        b = heapq.heappop(heap)[0]
        cost += a + b
        heapq.heappush(heap, (a + b, rng.random()))
    return cost


def test_cost_is_independent_of_tie_resolution():
    rng = random.Random("huffman:ties")
    for _ in range(100):
        n = rng.randint(2, 24)
        ws = [rng.choice((1, 1, 2, 2, 3)) for _ in range(n)]
        want = build_huffman(ws).cost_numerator
        assert _reference_cost_with_random_ties(ws, rng) == want


def _heap_lengths(ws):
    """Code lengths from a heap keyed (value, merged-before-leaf, creation order).

    Leaves are created in input order, merged nodes in merge order; so an
    equal-valued merged node is taken before a leaf, and equal leaves in
    input order.
    """
    n = len(ws)
    heap = [(w, 1, e, e) for e, w in enumerate(ws)]
    heapq.heapify(heap)
    parent = {}
    for t in range(n - 1):
        va, _, _, a = heapq.heappop(heap)
        vb, _, _, b = heapq.heappop(heap)
        parent[a] = parent[b] = n + t
        heapq.heappush(heap, (va + vb, 0, t, n + t))
    lengths = []
    for e in range(n):
        node = e
        depth = 0
        while node in parent:
            node = parent[node]
            depth += 1
        lengths.append(depth)
    return tuple(lengths)


def test_lengths_match_the_heap_model_on_ties():
    # the merged 2 goes before the leaf 2; were leaves to win ties, the
    # two leaf 2s would pair up and give (2, 2, 2, 2)
    ws = [1, 1, 2, 2]
    assert build_huffman(ws).lengths == _heap_lengths(ws) == (3, 3, 2, 1)
    rng = random.Random("huffman:tie-lengths")
    for _ in range(1500):
        pool = [rng.choice((1, 2, 3, 5, MAX_WEIGHT)) for _ in range(rng.randint(1, 3))]
        ws = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
        assert build_huffman(ws).lengths == _heap_lengths(ws), ws
