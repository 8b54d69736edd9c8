"""Stopped Huffman solver, brute-force oracles, and property checkers."""

import heapq
import math
import operator
import random
import tracemalloc
from collections import Counter, deque
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpart import (
    MAX_ELEMENTS,
    MAX_ORACLE_K,
    MAX_WEIGHT,
    MAX_ORACLE_N,
    OBJECTIVES,
    Dist,
    InputError,
    Instance,
    Lemma2Report,
    OracleResult,
    Partition,
    RecombinationReport,
    SizeLimitError,
    brute_force,
    compression_cost,
    conditional_subinstance,
    evaluate,
    greedy_baseline,
    shannon_entropy,
    marginal_dist,
    stopped_huffman,
    subset_sums,
    verify_lemma2,
    verify_principle_of_optimality,
)
from kpart import huffman, solver
from kpart.huffman import _merge_cost_sorted

small_instances = st.lists(st.integers(1, 50), min_size=1, max_size=12).map(
    lambda ws: Instance(tuple(ws))
)

# weights across the whole envelope: uniform ones, powers of two (whose sums
# tie with other leaves and merged nodes), and a few small repeated values
envelope_weights = st.one_of(
    st.integers(1, MAX_WEIGHT),
    st.integers(0, 40).map(lambda e: 1 << e),
    st.sampled_from((1, 1, 2, 3)),
)


# --- stopped_huffman ------------------------------------------------------


def test_worked_example_run(worked_instance):
    part, trace = stopped_huffman(worked_instance, 2)
    assert trace.steps == ((1, 1, 2), (2, 2, 4), (3, 4, 7), (4, 5, 9))
    assert trace.final_list == (7, 9)
    assert part.assignment == (0, 0, 0, 0, 1, 1)
    assert subset_sums(worked_instance, part).sums == (7, 9)
    assert compression_cost(worked_instance, part) == 22


def test_no_merges_when_groups_cover_elements(worked_instance):
    part, trace = stopped_huffman(worked_instance, 6)
    assert trace.steps == ()
    assert trace.final_list == (1, 1, 2, 3, 4, 5)
    assert part == Partition(tuple(range(6)), 6)
    part, trace = stopped_huffman(worked_instance, 9)
    assert part.k == 9
    assert len(trace) == 0


def test_full_merge_at_k_one(worked_instance):
    part, trace = stopped_huffman(worked_instance, 1)
    assert part.assignment == (0,) * 6
    assert trace.final_list == (16,)
    assert sum(vm for _, _, vm in trace.steps) == 38


def test_equal_weights_tie_run():
    inst = Instance((3,) * 7)
    part, trace = stopped_huffman(inst, 3)
    assert trace.final_list == (6, 6, 9)
    assert part.assignment == (0, 0, 1, 1, 2, 2, 0)


def test_merged_nodes_can_straddle_untouched_leaves():
    # the pair summing to 4 merges with the weight-5 leaf, skipping both 3s
    inst = Instance((2, 2, 3, 3, 5))
    part, trace = stopped_huffman(inst, 1)
    assert trace.steps == ((2, 2, 4), (3, 3, 6), (4, 5, 9), (6, 9, 15))
    assert part.assignment == (0,) * 5


def test_merge_trace_equality_and_repr(worked_instance):
    _, trace = stopped_huffman(worked_instance, 2)
    # equality compares the merges, which do not see the input order
    _, shuffled = stopped_huffman(Instance((5, 4, 3, 2, 1, 1)), 2)
    assert trace == shuffled
    assert trace != stopped_huffman(worked_instance, 3)[1]
    # the same final list reached by other merges
    assert stopped_huffman(Instance((1, 1, 2)), 1)[1] != stopped_huffman(
        Instance((2, 2)), 1
    )[1]
    assert trace.__eq__((7, 9)) is NotImplemented
    assert trace != (7, 9)
    assert repr(trace) == "MergeTrace(steps=4, final_list=(7, 9))"


def test_rejects_bad_k(worked_instance):
    with pytest.raises(InputError):
        stopped_huffman(worked_instance, 0)
    with pytest.raises(InputError):
        stopped_huffman(worked_instance, -2)


@pytest.mark.parametrize(
    "solve",
    [
        stopped_huffman,
        greedy_baseline,
        lambda inst, k: brute_force(inst, k, "compression"),
    ],
)
def test_one_k_rule_for_every_solver(worked_instance, solve):
    # greedy_baseline once built a k-entry heap before looking at k
    with pytest.raises(SizeLimitError, match=f"k={MAX_ELEMENTS + 1} exceeds"):
        solve(worked_instance, MAX_ELEMENTS + 1)
    with pytest.raises(InputError, match="k must be at least 1, got 0") as exc:
        solve(worked_instance, 0)
    assert not isinstance(exc.value, SizeLimitError)


@pytest.mark.parametrize("solve", [stopped_huffman, greedy_baseline, brute_force])
def test_every_solver_rejects_a_non_integer_k(worked_instance, solve):
    # a float k once got past the k rule and failed later with a TypeError
    args = ("compression",) if solve is brute_force else ()
    with pytest.raises(InputError, match="k must be an integer, got 2.0"):
        solve(worked_instance, 2.0, *args)


@given(small_instances, st.integers(1, 13))
def test_trace_shape_invariants(inst, k):
    part, trace = stopped_huffman(inst, k)
    n = len(inst.weights)
    assert len(trace.steps) == max(0, n - min(n, k))
    assert all(va + vb == vm for va, vb, vm in trace.steps)
    assert len(trace.final_list) == min(n, k)
    assert sum(trace.final_list) == inst.total
    assert tuple(sorted(trace.final_list)) == trace.final_list
    assert part.k == k
    assert part.canonical() is part


@given(small_instances, st.integers(1, 13))
def test_final_list_matches_partition_sums(inst, k):
    part, trace = stopped_huffman(inst, k)
    sums = [s for s in subset_sums(inst, part).sums if s > 0]
    assert sorted(sums) == list(trace.final_list)


@given(small_instances, st.integers(1, 13))
def test_merge_totals_equal_compression_cost(inst, k):
    part, trace = stopped_huffman(inst, k)
    assert compression_cost(inst, part) == sum(vm for _, _, vm in trace.steps)


def _check_fast_paths(inst, k):
    part, trace = stopped_huffman(inst, k)
    assert part.canonical() is part
    assert trace.cost == compression_cost(inst, part)
    assert evaluate(inst, part, trace.cost) == evaluate(inst, part)
    assert evaluate(inst, part, trace.cost).subset_sums == subset_sums(inst, part).sums


@given(st.lists(envelope_weights, min_size=1, max_size=60), st.data())
def test_fast_paths_keep_reference_semantics(ws, data):
    inst = Instance(tuple(ws))
    _check_fast_paths(inst, data.draw(st.integers(1, len(ws) + 3)))


def test_fast_paths_keep_reference_semantics_seeded():
    rng = random.Random("solver:fast-paths")
    for _ in range(300):
        n = rng.randint(1, 200)
        top = 1 << rng.randint(0, 40)
        pool = [rng.randint(1, top) for _ in range(rng.randint(1, 8))]
        ws = [
            rng.choice(pool) if rng.random() < 0.5 else rng.randint(1, top)
            for _ in range(n)
        ]
        _check_fast_paths(Instance(tuple(ws)), rng.randint(1, n + 3))


def _reference_stopped_huffman(ws, k):
    """Argsort, a two-queue merge of member lists, and a scatter to input order.

    Returns the canonical assignment and the merge steps.
    """
    n = len(ws)
    if n <= k:
        return tuple(range(n)), ()
    # a stable argsort: leaves enter in input order among equal weights
    leaves = deque((ws[e], [e]) for e in sorted(range(n), key=ws.__getitem__))
    merged = deque()
    steps = []

    def smallest():
        # merged nodes win ties against equal-valued leaves
        if merged and (not leaves or merged[0][0] <= leaves[0][0]):
            return merged.popleft()
        return leaves.popleft()

    for _ in range(n - k):
        va, ma = smallest()
        vb, mb = smallest()
        steps.append((va, vb, va + vb))
        merged.append((va + vb, ma + mb))
    out = [0] * n
    for g, (_, members) in enumerate(list(leaves) + list(merged)):
        for e in members:
            out[e] = g
    return Partition(tuple(out), k).canonical().assignment, tuple(steps)


def _label_runs(ws, assignment):
    """Runs of one label along the leaves in sorted (stable) order."""
    labels = [assignment[e] for e in sorted(range(len(ws)), key=ws.__getitem__)]
    return 1 + sum(a != b for a, b in zip(labels, labels[1:]))


def _check_against_reference(ws, k):
    part, trace = stopped_huffman(Instance(tuple(ws)), k)
    assignment, steps = _reference_stopped_huffman(ws, k)
    assert part.assignment == assignment, (ws, k)
    assert trace.steps == steps, (ws, k)
    return part


def _tie_heavy_cases():
    rng = random.Random("solver:label-routes")
    cases = [((3,) * 7, k) for k in range(1, 9)]
    cases += [((5,) * n, k) for n in (1, 2, 9, 16, 33) for k in (1, 2, 3, 5, 8)]
    cases += [((1, 2, 2, 2, 2, 3, 3, 3, 4), k) for k in range(1, 10)]
    for _ in range(1500):
        n = rng.randint(1, 60)
        pool = [rng.randint(1, 1 << rng.randint(0, 40)) for _ in range(rng.randint(1, 3))]
        share = rng.random()
        ws = tuple(
            rng.choice(pool) if rng.random() < share else rng.randint(1, 1 << 40)
            for _ in range(n)
        )
        cases.append((ws, rng.randint(1, n + 2)))
    return cases


def _route(monkeypatch, route):
    """Send _stopped_merge down one route: "batched" (batches and label
    runs) or "loop" (_merge's loop and child columns)."""
    per_group = 0 if route == "batched" else MAX_ELEMENTS
    monkeypatch.setattr(huffman, "_MIN_WEIGHTS_PER_GROUP", per_group)


@pytest.mark.parametrize("max_runs", [huffman._MAX_LABEL_RUNS, 1])
def test_label_routes_match_argsort_reference(monkeypatch, max_runs):
    # on the batched route, max_runs = 1 sends every instance with more than
    # one run down the argsort route; the default sends all of these small
    # ones by bisect
    _route(monkeypatch, "batched")
    monkeypatch.setattr(huffman, "_MAX_LABEL_RUNS", max_runs)
    for ws, k in _tie_heavy_cases():
        _check_against_reference(ws, k)


@pytest.mark.parametrize("max_runs", [huffman._MAX_LABEL_RUNS, 1])
def test_loop_route_matches_argsort_reference(monkeypatch, max_runs):
    # on the loop route, max_runs = 1 keeps each leaf as its own run and
    # sends every instance with more than one run down the argsort route
    _route(monkeypatch, "loop")
    monkeypatch.setattr(huffman, "_MAX_LABEL_RUNS", max_runs)
    for ws, k in _tie_heavy_cases():
        _check_against_reference(ws, k)


def test_default_route_follows_weights_per_group(monkeypatch):
    # only more than _MIN_WEIGHTS_PER_GROUP weights per group merge in batches
    rng = random.Random("solver:default-route")
    ws = tuple(rng.randint(1, 1 << 30) for _ in range(1 << 12))
    per_group = huffman._MIN_WEIGHTS_PER_GROUP
    batched_merge, calls = huffman._batched_merge, []
    monkeypatch.setattr(
        huffman, "_batched_merge", lambda *a: calls.append(a) or batched_merge(*a)
    )
    for k, batched in ((1, True), (len(ws) // per_group - 1, True), (len(ws) // per_group, False)):
        calls.clear()
        part = _check_against_reference(ws, k)
        assert len(calls) == batched, k
        calls.clear()
        assert huffman._stopped_merge(Instance(ws), k).partition() == part
        assert len(calls) == batched, k


def _runs_of(forest):
    """A forest's (starts, table) with neighbouring runs of one label joined."""
    starts, table = forest._runs
    n = len(forest._ws)
    lbl = [g for g, a, b in zip(table, [0, *starts], [*starts, n]) for _ in range(b - a)]
    starts = [p for p in range(1, n) if lbl[p] != lbl[p - 1]]
    return starts, [lbl[0], *(lbl[p] for p in starts)]


def _batched_cases():
    """2**16 log-uniform, uniform [1, 2**30] and 1-6 weights at k in
    {1, 2, 16, 2**10, n - 1, n, n + 3}."""
    rng = random.Random("solver:batched")
    n = 1 << 16
    draws = (
        lambda: min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0))),
        lambda: rng.randint(1, 1 << 30),
        lambda: rng.randint(1, 6),
    )
    for draw in draws:
        ws = [draw() for _ in range(n)]
        for k in (1, 2, 16, 1 << 10, n - 1, n, n + 3):
            yield ws, k


@pytest.mark.parametrize("corpus", ["tie_heavy", "forest", "batched"])
def test_batched_route_matches_the_loop(monkeypatch, corpus):
    # the batched merge and its label runs, against _merge's loop and the
    # runs read off the label of every leaf
    cases = {"tie_heavy": _tie_heavy_cases, "forest": _forest_cases, "batched": _batched_cases}
    for ws, k in cases[corpus]():
        inst = Instance(tuple(ws))
        forests = []
        for route in ("batched", "loop"):
            _route(monkeypatch, route)
            forests.append(huffman._stopped_merge(inst, k))
        batched, loop = forests
        b, lp = batched.trace, loop.trace
        assert b._merged[b._m0 :] == lp._merged[lp._m0 :], (len(ws), k)
        assert (b._i, b._j - b._m0) == (lp._i, lp._j - lp._m0), (len(ws), k)
        # the batched route joins neighbouring runs of one label itself
        assert batched._runs == _runs_of(batched) == _runs_of(loop), (len(ws), k)
        assert loop._leaf_runs() == batched._runs, (len(ws), k)
        assert b.steps == lp.steps, (len(ws), k)
        if corpus == "batched":
            assert batched.partition() == loop.partition(), (len(ws), k)
        else:
            assignment, steps = _reference_stopped_huffman(ws, k)
            assert batched.partition().assignment == assignment, (ws, k)
            assert b.steps == steps, (ws, k)


def _fibonacci_up_to(top):
    fib = [1, 1]
    while fib[-1] + fib[-2] <= top:
        fib.append(fib[-1] + fib[-2])
    return fib


@pytest.mark.parametrize(
    "ws",
    [[1] + [1 << e for e in range(41)], _fibonacci_up_to(1 << 40)],
    ids=["powers_of_two", "fibonacci"],
)
def test_batch_count_stays_within_the_doubling_bound(ws):
    # on a doubling chain only one value lies below twice the smallest, or
    # two that merge, so every batch is a single merge
    rng = random.Random("solver:doubling")
    for order in (sorted(ws), rng.sample(ws, len(ws))):
        for k in (1, 2, 5):
            leaves = sorted(order)
            merged, i, j, batches = huffman._batched_merge(leaves, len(leaves) - k)
            bound = 2 * math.ceil(math.log2(sum(ws) / min(ws))) + 2
            assert len(batches) == len(merged) == len(ws) - k <= bound
            assert [t for t, _, _, _ in batches] == list(range(len(merged)))
            _check_against_reference(order, k)
    # the batch count of 2**16 weights stays within its bound too
    for ws, k in _batched_cases():
        leaves = sorted(ws)
        batches = huffman._batched_merge(leaves, len(ws) - k)[3]
        assert len(batches) <= 2 * math.ceil(math.log2(sum(ws) / leaves[0])) + 2


def test_label_routes_match_argsort_reference_either_side_of_threshold():
    rng = random.Random("solver:label-threshold")
    n = huffman._MAX_LABEL_RUNS + 4000
    pool = [rng.randint(1, 1 << 20) for _ in range(40)]
    ws = tuple(
        rng.choice(pool) if rng.random() < 0.2 else rng.randint(1, 1 << 30)
        for _ in range(n)
    )
    # k = 16 leaves a few hundred runs; k near n leaves about one per element
    for k, route_runs in ((16, True), (n - 500, False)):
        part = _check_against_reference(ws, k)
        runs = _label_runs(ws, part.assignment)
        assert (runs <= huffman._MAX_LABEL_RUNS) == route_runs, runs


def test_n_up_to_k_on_the_argsort_route_matches_the_reference():
    # n - 1 runs of one label each reach the argsort route once n - 1 is at
    # least _MAX_LABEL_RUNS; every element is its own group, with no merges
    rng = random.Random("solver:n-up-to-k")
    n = 20_000
    assert n - 1 >= huffman._MAX_LABEL_RUNS
    distinct = tuple(rng.sample(range(1, 1 << 40), n))
    for ws in ((rng.randint(1, 1 << 40),) * n, distinct):
        for k in (n, n + 5):
            part = _check_against_reference(ws, k)
            assert part.k == k
            _, trace = stopped_huffman(Instance(ws), k)
            assert trace.cost == 0
            assert trace.final_list == tuple(sorted(ws))


def _forest_cases():
    """Seeded (weights, k): log-uniform and 1-6 weights with n <= 2**12 at
    k in {1, 2, 3, 16, 256}, n <= k, and groups first met at the last element."""
    rng = random.Random("solver:forest")
    cases = []
    for n in (1, 2, 5, 17, 300, 1 << 10, 1 << 12):
        for shape in range(2):
            ws = [
                min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0))) if shape == 0
                else rng.randint(1, 6)
                for _ in range(n)
            ]
            cases += [(ws, k) for k in (1, 2, 3, 16, 256)]
            cases.append((ws, n + rng.randint(0, 3)))
    # a last weight past the sum of the rest is never merged: its group's
    # first member is the last element, so the prefix must reach n
    for n, k in ((40, 2), (300, 16), (1 << 12, 3)):
        ws = [rng.randint(1, 6) for _ in range(n - 1)]
        cases.append((ws + [sum(ws) + 1], k))
    return cases


@pytest.mark.parametrize("max_runs", [huffman._MAX_LABEL_RUNS, 1], ids=["bisect", "argsort"])
def test_forest_groups_equal_the_partitions(monkeypatch, max_runs):
    # sums, sizes and canonical order, read off the merge forest without a
    # label per element, equal subset_sums and the counts of the partition,
    # on either merge route
    monkeypatch.setattr(huffman, "_MAX_LABEL_RUNS", max_runs)
    for route in ("batched", "loop"):
        _route(monkeypatch, route)
        for ws, k in _forest_cases():
            inst = Instance(tuple(ws))
            part, _ = stopped_huffman(inst, k)
            counts = Counter(part.assignment)
            sizes = tuple(counts[g] for g in range(k))
            forest = huffman._stopped_merge(inst, k)
            assert forest.smallest() == min(sizes), (route, len(ws), k)
            assert forest.sums() == subset_sums(inst, part).sums, (route, len(ws), k)
            assert forest.sizes() == sizes, (route, len(ws), k)
            assert forest.partition() == part


@settings(max_examples=60)
@given(
    st.lists(st.integers(1, 50), min_size=1, max_size=10).map(
        lambda ws: Instance(tuple(ws))
    ),
    st.integers(1, 4),
)
def test_stopped_huffman_attains_oracle_cost(inst, k):
    part, _ = stopped_huffman(inst, k)
    assert compression_cost(inst, part) == brute_force(inst, k, "compression").best_value


# --- brute force ----------------------------------------------------------


def test_brute_compression_worked(worked_instance):
    res = brute_force(worked_instance, 2, "compression")
    assert res.best_value == 22
    assert res.partitions_searched == 32
    assert [p.assignment for p in res.optimal_partitions] == [
        (0, 0, 0, 0, 1, 1),
        (0, 0, 0, 1, 0, 1),
        (0, 0, 0, 1, 1, 0),
    ]


def test_brute_min_diff_worked(worked_instance):
    res = brute_force(worked_instance, 2, "min_diff")
    assert res.best_value == 0
    assert Partition((0, 0, 0, 1, 0, 1), 2) in res.optimal_partitions


def test_brute_min_max_three_groups(worked_instance):
    assert brute_force(worked_instance, 3, "min_max").best_value == 6


def test_brute_entropy_worked(worked_instance):
    res = brute_force(worked_instance, 2, "entropy")
    assert res.best_value == pytest.approx(1.0, abs=1e-12)
    for p in res.optimal_partitions:
        assert sorted(subset_sums(worked_instance, p).sums) == [8, 8]


def test_brute_min_entropy_matches_min_max(worked_instance):
    by_h = brute_force(worked_instance, 2, "min_entropy")
    by_max = brute_force(worked_instance, 2, "min_max")
    assert set(by_h.optimal_partitions) == set(by_max.optimal_partitions)
    assert by_max.best_value == 8
    # log2(16) - log2(8)
    assert by_h.best_value == pytest.approx(1.0, abs=1e-12)


def test_brute_trivial_k_one(worked_instance):
    res = brute_force(worked_instance, 1, "compression")
    assert res.partitions_searched == 1
    assert res.best_value == 38
    assert res.optimal_partitions == (Partition((0,) * 6, 1),)


def test_brute_search_space_sizes():
    inst10 = Instance(tuple(range(1, 11)))
    assert brute_force(inst10, 4, "min_max").partitions_searched == 43947
    inst5 = Instance((1, 2, 3, 4, 5))
    assert brute_force(inst5, 5, "min_max").partitions_searched == 52
    assert brute_force(inst5, 2, "min_max").partitions_searched == 16


def test_optima_read_as_a_tuple_of_partitions():
    inst = Instance((5,) * 7)
    res = brute_force(inst, 2, "min_max")
    want = _rgs_oracle(inst, 2)["min_max"]  # built from a tuple
    seq, parts = res.optimal_partitions, want.optimal_partitions
    assert isinstance(parts, tuple) and len(seq) == len(parts) == 35
    assert (seq[0], seq[34], seq[-1], seq[-35]) == (parts[0], parts[34], parts[-1], parts[-35])
    assert seq[0].assignment == (0, 0, 0, 0, 1, 1, 1) and seq[0].k == 2
    for i in (35, -36):
        with pytest.raises(IndexError):
            seq[i]
    for cut in (slice(3, 10), slice(None, None, -2), slice(40, None), slice(-3, None)):
        assert seq[cut] == parts[cut] and isinstance(seq[cut], tuple), cut
    assert list(seq) == list(parts) and tuple(seq) == parts
    assert all(p.canonical() is p for p in seq)
    assert seq == parts and parts == seq and not seq != parts
    assert seq != list(parts) and seq != parts[:-1] and seq != parts[::-1]
    assert seq.index(parts[5]) == 5 and seq.count(parts[5]) == 1 and parts[7] in seq
    assert repr(seq) == repr(parts)
    assert res == want and want == res and hash(res) == hash(want)
    assert res == brute_force(inst, 2, "min_max")
    assert res.optimal_partitions != brute_force(inst, 3, "min_max").optimal_partitions
    with pytest.raises(TypeError):
        seq[0] = parts[0]


def test_step_iterator_and_optima_digits_read_what_the_tuples_hold(worked_instance):
    # the CLI streams these two instead of building the tuples
    _, trace = stopped_huffman(worked_instance, 2)
    steps = trace.iter_steps()
    assert next(steps) == (1, 1, 2) and tuple(steps) == trace.steps[1:]
    assert tuple(stopped_huffman(worked_instance, 6)[1].iter_steps()) == ()
    seq = brute_force(Instance((5,) * 7), 2, "min_max").optimal_partitions
    digits = list(seq.digits())
    assert len(digits) == 35 and digits[0] == "0000111"
    assert [tuple(map(int, d)) for d in digits] == [p.assignment for p in seq]


def test_brute_rejects_unknown_objective(worked_instance):
    with pytest.raises(InputError):
        brute_force(worked_instance, 2, "sharpe_ratio")
    assert "compression" in OBJECTIVES


def test_brute_size_guards():
    with pytest.raises(SizeLimitError):
        brute_force(Instance((1,) * (MAX_ORACLE_N + 1)), 2, "min_max")
    with pytest.raises(SizeLimitError):
        brute_force(Instance((1, 2, 3)), MAX_ORACLE_K + 1, "min_max")
    brute_force(Instance((1,) * MAX_ORACLE_N), 2, "min_diff")


@given(small_instances, st.integers(1, 4))
def test_brute_optima_are_canonical_and_distinct(inst, k):
    res = brute_force(inst, min(k, len(inst.weights)), "min_diff")
    seen = set()
    for p in res.optimal_partitions:
        assert p.canonical() is p
        assert p not in seen
        seen.add(p)


# --- the subset-mask sweep against the restricted-growth-string oracle ----


def _rgs_up_to_k(n, k):
    """Every restricted growth string over n elements with <= k blocks."""
    a = [0] * n
    m = [0] * n  # m[i] = max(a[:i+1])
    yield a
    while True:
        i = n - 1
        while i > 0 and a[i] >= min(m[i - 1] + 1, k - 1):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        m[i] = max(a[i], m[i - 1])
        for p in range(i + 1, n):
            a[p] = 0
            m[p] = m[i]
        yield a


def _heap_merge_cost(ws):
    heap = list(ws)
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        s = heapq.heappop(heap) + heapq.heappop(heap)
        cost += s
        heapq.heappush(heap, s)
    return cost


def _rgs_scores(w, a, k, total):
    """Every objective's value for one assignment over the sorted weights."""
    sums = [0] * k
    groups = [[] for _ in range(k)]
    for x, g in zip(w, a):
        sums[g] += x
        groups[g].append(x)
    acc = math.fsum(q * math.log2(q) for q in sorted(q for q in sums if q))
    h = math.log2(total) - acc / total
    hi = max(sums)
    return {
        "min_diff": hi - min(sums),
        "min_max": hi,
        "max_min": min(sums),
        "entropy": 0.0 if h < 0.0 else h,
        "min_entropy": hi,
        "product_of_sums": math.prod(sums),
        "compression": sum(map(_heap_merge_cost, groups)),
    }


def _rgs_oracle(inst, k):
    """brute_force for every objective, and verify_lemma2, from one
    restricted-growth-string enumeration that rebuilds every group of every
    partition; entropy optima lie in a 1e-9 band below the final best."""
    n = len(inst.weights)
    order = sorted(range(n), key=inst.weights.__getitem__)
    w = [inst.weights[e] for e in order]
    rgs = [tuple(a) for a in _rgs_up_to_k(n, k)]
    scores = [_rgs_scores(w, a, k, inst.total) for a in rgs]
    results = {}
    for objective in OBJECTIVES:
        values = [sc[objective] for sc in scores]
        if objective == "entropy":
            best = max(values)
            picks = [a for v, a in zip(values, rgs) if v >= best - 1e-9]
        else:
            maximize = objective in ("max_min", "product_of_sums")
            best = max(values) if maximize else min(values)
            picks = [a for v, a in zip(values, rgs) if v == best]
        if objective == "min_entropy":
            best = max(0.0, math.log2(inst.total) - math.log2(best))
        parts = []
        for a in picks:
            orig = [0] * n
            for p, e in enumerate(order):
                orig[e] = a[p]
            parts.append(Partition(tuple(orig), k).canonical())
        parts.sort(key=lambda p: p.assignment)
        results[objective] = OracleResult(objective, best, tuple(parts), len(rgs))
    if n > k:
        # sorted positions 0 and 1 hold the two smallest weights
        costs = [sc["compression"] for sc in scores]
        joined = [c for c, a in zip(costs, rgs) if a[0] == a[1]]
        results["lemma2"] = Lemma2Report(min(costs), min(joined), len(rgs))
    return results


def _oracle_weights(rng, n, shape):
    """n weights of one of five shapes: from a pool of repeated values,
    across [1, 2**40], log-uniform, near-ties just under 2**40 whose
    entropies differ by less than the 1e-9 band, and near-ties just over
    2**20 whose entropies spread across that band, up to its edge."""
    if shape == 4:
        return [(1 << 20) + rng.randint(0, 300) for _ in range(n)]
    if shape == 0:
        pool = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        return [rng.choice(pool) for _ in range(n)]
    if shape == 1:
        return [rng.randint(1, MAX_WEIGHT) for _ in range(n)]
    if shape == 2:
        return [min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0))) for _ in range(n)]
    return [MAX_WEIGHT - rng.randint(0, 12) for _ in range(n)]


def _oracle_cases(count):
    """Seeded instances with n <= 9 and k in 1..6 (k > n too), each weight
    shape of _oracle_weights in turn."""
    rng = random.Random("solver:subset-sweep")
    for i in range(count):
        n = rng.randint(1, 9)
        ws = _oracle_weights(rng, n, i % 4)
        yield Instance(tuple(ws)), rng.randint(1, 6)


def _summary_level_cases():
    """Seeded instances at k = 4..6, where the sweep places the third-to-last
    block from per-remainder summaries: n up to 11, both kinds of entropy
    near-ties at k = 4 and 5, k > n, where the remainders are empty, and
    repeated small weights at k = 5 and 6, with hundreds of min_diff ties."""
    rng = random.Random("solver:summary-level")
    for n, k, shape in (
        (10, 4, 0), (10, 5, 1), (10, 6, 2), (11, 4, 3),
        (9, 5, 3), (9, 6, 0), (8, 4, 1), (8, 5, 2),
        (9, 4, 4), (9, 5, 4), (8, 4, 4), (8, 5, 4),
        (3, 5, 0), (2, 4, 1), (4, 6, 2), (5, 6, 3),
        (10, 5, 0), (10, 6, 0),
    ):
        yield Instance(tuple(_oracle_weights(rng, n, shape))), k


def _tie_heavy_oracle_cases(count):
    """Seeded instances of independent weights 1..6, n <= 9 and k = 2..6:
    many optima tie, often with the greedy partition the sweep starts from."""
    rng = random.Random("solver:tie-heavy-sweep")
    for _ in range(count):
        n = rng.randint(1, 9)
        yield Instance(tuple(rng.randint(1, 6) for _ in range(n))), rng.randint(2, 6)


def _band_edge_cases():
    """Instances with a partition whose entropy lies within 3e-12 bits
    inside the 1e-9 band's edge: a sweep whose slack falls short of the
    band by a few 1e-12 bits drops it."""
    for ws, k in (
        ((1048858, 1049670, 1049153, 1050851, 1048630, 1049432, 1050433, 1048698, 1049450), 4),
        ((1048855, 1048648, 1048864, 1048663, 1048876, 1048679, 1048680, 1048801), 2),
        ((16778783, 16777670, 16780023, 16780132, 16778536, 16780102, 16778955, 16777218), 4),
        ((16777625, 16779723, 16777388, 16779222, 16778683, 16777642, 16780175, 16778747, 16777880), 3),
        ((1048822, 1048866, 1048589, 1048602, 1048721, 1048865, 1048755, 1048628), 2),
    ):
        yield Instance(ws), k


def _settled_cases():
    """Instances whose min_max optima come from settled groups: one
    dominant weight at k = 2..6; two or three heavy weights at k = 4..6,
    whose groups settle two and three blocks deep; one weight at k = 3 and
    6, whose one block leaves an empty remainder; and all-equal weights.
    The heavy weights sit among light ones in input order, so that a head
    block holding light weights has a free index between its first two."""
    for k in range(2, 7):
        yield Instance((3, 1, 40, 2, 5, 4, 1)), k
    for k in (4, 5):
        yield Instance((1, 2, 30, 3, 31, 1, 2, 4)), k
    for k in (5, 6):
        yield Instance((2, 1, 50, 3, 48, 1, 47, 2)), k
    for k in (3, 6):
        yield Instance((9,)), k
    for n, k in ((6, 4), (7, 3), (8, 5), (7, 6)):
        yield Instance((7,) * n), k


def test_settled_corpus_reaches_every_kind_of_group():
    # what test_sweep_matches_the_rgs_oracle relies on _settled_cases for
    kinds = set()
    for inst, k in _settled_cases():
        w = sorted(inst.weights, reverse=True)
        _, picks = solver._sweep(*solver._slot_table(w, "min_max"), w, k, "min_max")
        for group in picks:
            if isinstance(group, solver._Settled):
                kinds.add((len(group.head), group.slots))
                if not group.rest:
                    kinds.add("empty rest")
    assert {(1, 2), (1, 5), (2, 2), (2, 3), (3, 2), (3, 3), "empty rest"} <= kinds, kinds


def _group_keys(order, group):
    """Sorted base-8 keys of the partitions a settled group stands for, one
    partition at a time: order[p] is the input index at sorted position p."""
    head, rest, slots = group
    n = len(order)
    members = [p for p in range(n) if rest >> p & 1]
    keys = []
    for a in _rgs_up_to_k(len(members), slots) if members else [()]:
        free = [sum(1 << p for p, g in zip(members, a) if g == i) for i in range(slots)]
        blocks = list(head) + free
        owner = {order[p]: i for i, b in enumerate(blocks) for p in range(n) if b >> p & 1}
        labels: dict = {}
        key = 0
        for e in range(n):
            key = key * 8 + labels.setdefault(owner[e], len(labels))
        keys.append(key)
    return sorted(keys)


def test_settled_keys_list_every_partition_of_a_large_group_in_order():
    # three groups of 11,051 to 29,525 keys, past _RUN_KEYS, so that their
    # classes near the first index stay runs, and one of two slots. A lone
    # group's keys are stored as they come, unsorted, so they must ascend
    order = list(range(12))
    random.Random("solver:settled-keys").shuffle(order)
    digits = [0]
    for e in order:
        digits += [x + (1 << 3 * (11 - e)) for x in digits]
    groups = ((0b1,), 3), ((0b1, 0b10010), 4), ((0b101, 0b1000000), 5), ((0b1, 0b10, 0b1100), 2)
    for head, slots in groups:
        rest = (1 << 12) - 1 - sum(head)
        group = solver._Settled(head, rest, slots)
        keys = [off + x for off, run in solver._settled_keys(group, digits) for x in run]
        assert keys == _group_keys(order, group), (head, slots)
        assert all(map(operator.lt, keys, keys[1:])), (head, slots)


log_uniform_weights = st.floats(0.0, 40.0).map(lambda u: min(MAX_WEIGHT, int(2.0**u)))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(log_uniform_weights, min_size=1, max_size=9),
        st.lists(st.integers(1, 4), min_size=1, max_size=9),
    ),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
def test_oracle_results_do_not_depend_on_input_order(ws, k, rnd):
    # the sweep sees the weights sorted, so a shuffle of the input only
    # relabels its optima: the same value and count, and the same optima
    # read through the permutation
    perm = list(range(len(ws)))
    rnd.shuffle(perm)
    inst, shuffled = Instance(tuple(ws)), Instance(tuple(ws[e] for e in perm))
    for objective in OBJECTIVES:
        res, other = brute_force(inst, k, objective), brute_force(shuffled, k, objective)
        assert res.best_value == other.best_value, objective
        assert res.partitions_searched == other.partitions_searched, objective
        mapped = sorted(
            Partition(tuple(p.assignment[e] for e in perm), k).canonical().assignment
            for p in res.optimal_partitions
        )
        assert mapped == [p.assignment for p in other.optimal_partitions], objective


def _summary_level_run(monkeypatch, inst, k, objective):
    """Sweep one objective with its two lowest levels wrapped in _SWEEPS.

    Returns the number of choices of the third-to-last block, the prefixes
    (blocks up to that one) handed to a scan of the innermost level, and the
    picks: the optima's block masks, and for min_max its settled groups. At
    k >= 4 only the summary level descends to the innermost one; a summary
    calls its innermost level by name, so it is not counted as a scan.
    """
    last_two, last_three, *rest = solver._SWEEPS[objective]
    choices = 0
    scanned = []

    def two(t, slack, low, r2, pre, agg, best, picks):
        scanned.append(pre)
        return last_two(t, slack, low, r2, pre, agg, best, picks)

    def three(t, sums, slack, low, r2, *args):
        nonlocal choices
        choices += 1 << r2.bit_count()
        return last_three(t, sums, slack, low, r2, *args)

    with monkeypatch.context() as m:
        m.setitem(solver._SWEEPS, objective, (two, three, *rest))
        w = sorted(inst.weights, reverse=True)
        _, picks = solver._sweep(*solver._slot_table(w, objective), w, k, objective)
    return choices, scanned, picks


def test_summary_level_takes_each_branch(monkeypatch):
    # min_max takes all three paths on 12, 7, 7, 7, 7, 1 at k = 4, whose
    # optima score 14. Blocks {12, 1} and {7, 7} score a = 14, no less than
    # the 14 left, so the choice is one settled group. {12} and {7} score
    # a = 12, under the summary's best split of the rest, m = 14, so the
    # summary's splits settle it. {12} and {7, 7} score a = 14, above the
    # m = 8 of 7, 7, 1 and under its sum, so a scan finds the splits whose
    # own max is at most 14
    inst = Instance((1, 7, 12, 7, 7, 7))
    choices, scanned, picks = _summary_level_run(monkeypatch, inst, 4, "min_max")
    groups = [p for p in picks if isinstance(p, solver._Settled)]
    prefixes = {blocks[:2] for blocks in picks if not isinstance(blocks, solver._Settled)}
    assert groups and all((len(g.head), g.slots) == (2, 2) for g in groups)
    assert 0 < len(scanned) < choices
    assert prefixes & set(scanned) and prefixes - set(scanned)
    assert brute_force(inst, 4, "min_max") == _rgs_oracle(inst, 4)["min_max"]
    # min_diff: some optima tie at hi - lo with their last two sums inside
    # [lo, hi] but wider apart than the summary's splits, so a sweep that
    # settled every choice from the summary kept 68 of these 75; every
    # optimum comes from a scan
    inst = Instance((7, 8, 8, 7, 9, 7, 7, 7))
    choices, scanned, picks = _summary_level_run(monkeypatch, inst, 4, "min_diff")
    prefixes = {blocks[:2] for blocks in picks}
    assert len(picks) == 75
    assert prefixes <= set(scanned)
    assert brute_force(inst, 4, "min_diff") == _rgs_oracle(inst, 4)["min_diff"]
    # min_diff and entropy: the summary's bound prunes some choices without a
    # scan, and the rest are scanned
    rng = random.Random("solver:summary-branches")
    for n, k, shape, objective in (
        (9, 4, 2, "min_diff"),
        (10, 6, 1, "min_diff"),
        (9, 4, 3, "entropy"),
        (9, 5, 3, "entropy"),
    ):
        inst = Instance(tuple(_oracle_weights(rng, n, shape)))
        choices, scanned, _ = _summary_level_run(monkeypatch, inst, k, objective)
        assert 0 < len(scanned) < choices, (inst, k, objective)
    # compression and product_of_sums: the summary settles every choice
    for objective in ("compression", "product_of_sums"):
        inst = Instance(tuple(_oracle_weights(rng, 9, 0)))
        choices, scanned, _ = _summary_level_run(monkeypatch, inst, 5, objective)
        assert choices > 0 and not scanned


def _dominated_cases():
    """Instances whose remainders are dominated, their largest weight x at
    least the sum of the rest, at k = 2..6: x exactly the rest's sum at
    every depth, superincreasing weights, one dominant weight over tied
    light ones, and all-equal weights, whose one- and two-weight remainders
    are dominated and whose longer ones are not. Beside the boundary some
    remainders fall one light weight short of it, 2 * x + w = R, where x
    alone and x with w tie under the balance objectives."""
    for ws in (
        (4, 2, 1, 1),
        (6, 3, 2, 1),
        (8, 4, 4),
        (1, 16, 2, 8, 1, 4),
        (12, 6, 3, 2, 1),
        (1, 2, 4, 8, 16, 32, 64),
        (3, 5, 9, 17, 34, 70),
        (2, 40, 3, 3, 3, 3, 3),
        (9, 2, 2, 1, 2, 1, 1),
        (3, 2, 1, 1, 3, 1),
        (5, 5, 5, 5, 5, 5, 5),
    ):
        for k in range(2, 7):
            yield Instance(ws), k


def test_dominated_summaries_need_no_scan(monkeypatch):
    # of the 1,024 summaries of this (12, 4) log-uniform instance, the 112
    # whose largest weight is under the rest's sum scan the remainder's
    # splits; all 1,024 did before. min_max settles every choice it keeps
    # and sums up no remainder
    rng = random.Random("solver:dominated-scans")
    inst = Instance(tuple(min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0))) for _ in range(12)))
    summary = solver._summary
    counts = {}

    def counted(last_two, *args):
        def scan(*a):
            counts[objective][1] += 1
            return last_two(*a)

        counts[objective][0] += 1
        return summary(scan, *args)

    monkeypatch.setattr(solver, "_summary", counted)
    for objective in solver._SWEEPS:
        counts[objective] = [0, 0]
        brute_force(inst, 4, objective)
    want = dict.fromkeys(solver._SWEEPS, [1024, 112])
    want["min_max"] = [0, 0]
    assert counts == want


def _stirling_up_to(n, k):
    """Sum of S(n, j) over j <= k: the set partitions into at most k blocks."""
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row)


def test_partitions_searched_is_exact():
    assert [_stirling_up_to(6, k) for k in range(1, 7)] == [1, 32, 122, 187, 202, 203]
    for n in range(1, 11):
        inst = Instance(tuple(range(1, n + 1)))
        for k in range(1, MAX_ORACLE_K + 1):
            want = _stirling_up_to(n, k)
            objective = OBJECTIVES[(n + k) % len(OBJECTIVES)]
            assert brute_force(inst, k, objective).partitions_searched == want
            if n > k:
                assert verify_lemma2(inst, k).partitions_searched == want


def test_each_oracle_call_fills_its_tables_once(monkeypatch):
    # every sweep of a call, theorem1's side sweeps and lemma2's constrained
    # one too, reads the two tables its caller filled
    fills = 0
    slot_table = solver._slot_table

    def counted(*args):
        nonlocal fills
        fills += 1
        return slot_table(*args)

    monkeypatch.setattr(solver, "_slot_table", counted)
    rng = random.Random("t1:1")
    split = Instance(tuple(rng.randint(1, 30) for _ in range(12)))
    small = Instance(tuple(range(1, 11)))
    for name, call in (
        ("theorem1", lambda: verify_principle_of_optimality(split, 5)),
        ("lemma2", lambda: verify_lemma2(small, 4)),
        ("entropy", lambda: brute_force(small, 4, "entropy")),
    ):
        fills = 0
        call()
        assert fills == 1, name


def test_merge_cost_table_matches_the_fold():
    # most entries are read off the subset without its largest weight; each
    # must equal the fold of its own sorted members. In 1, 2, 3, 3, 6 the
    # second 3 ties with the sum 1 + 2 that bounds {1, 2, 3}'s merge
    rng = random.Random("solver:merge-cost-table")
    cases = [(1, 2, 3, 3, 6)]
    for n in range(1, 11):
        cases.append([min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0))) for _ in range(n)])
        cases.append([rng.randrange(1, MAX_WEIGHT) for _ in range(n)])
        cases.append([rng.randint(1, 6) for _ in range(n)])
        cases.append([rng.randint(1, MAX_WEIGHT)] * n)
    for ws in cases:
        w = sorted(ws, reverse=True)
        t, _ = solver._slot_table(w, "compression")
        for m in range(1 << len(w)):
            members = sorted(x for p, x in enumerate(w) if m >> p & 1)
            assert t[m] == _merge_cost_sorted(members), (w, m)


def test_entropy_sweep_memory_stays_flat():
    # one table of 2**n floats, plus only the candidates within the band's slack
    rng = random.Random("solver:entropy-memory")
    inst = Instance(
        tuple(min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0))) for _ in range(10))
    )
    tracemalloc.start()
    try:
        brute_force(inst, 4, "entropy")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_merge_cost_table_memory_stays_flat():
    # the fill folds members from lists of each half of the positions, 2**7
    # each at n = 14, not from one list per subset, which peaked at 2.2 MB
    rng = random.Random("solver:merge-cost-memory")
    w = sorted((rng.randint(1, 6) for _ in range(14)), reverse=True)
    tracemalloc.start()
    try:
        solver._slot_table(w, "compression")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def _lemma2_cases():
    """Seeded instances for verify_lemma2's constrained sweep: ties from
    1..6, all-equal weights, log-uniform weights to 2**40, and n = k + 1,
    where that sweep has exactly k positions."""
    rng = random.Random("solver:lemma2-first-merge")
    yield Instance((1, 2, 3)), 2
    for _ in range(30):
        n = rng.randint(3, 9)
        yield Instance(tuple(rng.randint(1, 6) for _ in range(n))), rng.randint(1, min(6, n - 1))
    for n in range(2, 10):
        yield Instance((7,) * n), rng.randint(1, min(6, n - 1))
    for _ in range(30):
        n = rng.randint(2, 9)
        yield Instance(tuple(_oracle_weights(rng, n, 2))), rng.randint(1, min(6, n - 1))
    for k in range(1, MAX_ORACLE_K + 1):
        for shape in (0, 2, 3):
            yield Instance(tuple(_oracle_weights(rng, k + 1, shape))), k


# each corpus of instances, built afresh by each run of the test
_CORPORA = {
    "oracle": lambda: _oracle_cases(120),
    "tie_heavy": lambda: _tie_heavy_oracle_cases(80),
    "band_edge": _band_edge_cases,
    "settled": _settled_cases,
    "summary_level": _summary_level_cases,
    "dominated": _dominated_cases,
    "lemma2": _lemma2_cases,
}


@pytest.mark.parametrize("corpus", list(_CORPORA))
def test_sweep_matches_the_rgs_oracle(corpus):
    for inst, k in _CORPORA[corpus]():
        want = _rgs_oracle(inst, k)
        for objective in OBJECTIVES:
            assert brute_force(inst, k, objective) == want[objective], (inst, k, objective)
        if len(inst.weights) > k:
            assert verify_lemma2(inst, k) == want["lemma2"], (inst, k)


def test_greedy_seed_that_ties_with_other_optima_keeps_them_all():
    inst = Instance((5,) * 7)
    w = list(inst.weights)
    want = _rgs_oracle(inst, 2)
    for objective in ("min_max", "min_diff", "product_of_sums", "compression"):
        t, sums = solver._slot_table(w, objective)
        seed = solver._incumbent(t, w, 2, objective, 0b1111111)
        res = brute_force(inst, 2, objective)
        assert seed == res.best_value and len(res.optimal_partitions) == 35, objective
        assert res == want[objective], objective


# how each objective's placing level folds one more block's term into agg
_FOLDS = {
    "compression": operator.add,
    "entropy": operator.add,
    "product_of_sums": operator.mul,
    "min_max": max,
    "max_min": max,
    "min_diff": lambda agg, q: (max(agg[0], q), min(agg[1], q)),
}


def _bound_skips(objective, w, prefix, r, j):
    """Whether the objective's bound skips remainder r, with j slots left
    after the prefix blocks, when the best so far is r's best completion."""
    t, sums = solver._slot_table(w, objective)
    agg = solver._SWEEPS[objective][4]
    for b in prefix:
        agg = _FOLDS[objective](agg, t[b])
    best = _completion_best(objective, w, prefix, r, j)
    if objective == "entropy":
        # the entropy level hands its bound the cut, best plus the slack
        best += solver._entropy_slack(sum(w))
    skip = getattr(solver, f"_skip_{objective}")
    return skip(t, sums, agg, r, j, best)


def _completion_best(objective, w, prefix, r, j):
    """Best value over every split of remainder r into <= j blocks after the
    prefix blocks, scored from the groups' weights alone, in the sweep's
    currency."""
    members = [p for p in range(len(w)) if r >> p & 1]
    labels = {p: g for g, b in enumerate(prefix) for p in range(len(w)) if b >> p & 1}
    k = len(prefix) + j
    values = []
    # an empty remainder has one completion: j empty blocks
    for a in _rgs_up_to_k(len(members), j) if members else [()]:
        labels.update((p, len(prefix) + g) for p, g in zip(members, a))
        assignment = [labels[p] for p in range(len(w))]
        if objective == "entropy":
            # the sweep minimizes the plain sum of the blocks' q * log2(q)
            sums = [0] * k
            for x, g in zip(w, assignment):
                sums[g] += x
            values.append(sum(q * math.log2(q) for q in sums if q))
            continue
        score = _rgs_scores(w, assignment, k, sum(w))[objective]
        # the sweep minimizes max_min's largest term, minus the least sum
        values.append(-score if objective == "max_min" else score)
    return (max if objective == "product_of_sums" else min)(values)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("compression", "min_max", "max_min", "min_diff", "product_of_sums", "entropy")),
    st.lists(envelope_weights, min_size=1, max_size=8),
    st.integers(2, 6),
    st.data(),
)
def test_bounds_never_exceed_the_best_completion(objective, ws, j, data):
    # a remainder whose bound is no worse than its own best completion is
    # never skipped, so no skip can lose an optimum. A sweep calls a bound
    # with 2 to 6 slots left (see test_sweeps_call_skip_with_two_slots_or_more)
    w = sorted(ws, reverse=True)
    n = len(w)
    # any remainder short of every position: the prefix holds the rest
    r = data.draw(st.integers(0, (1 << n) - 2))
    rest = [p for p in range(n) if not r >> p & 1]
    groups = data.draw(st.lists(st.integers(0, 2), min_size=len(rest), max_size=len(rest)))
    prefix = [sum(1 << p for p, g in zip(rest, groups) if g == i) for i in range(3)]
    prefix = [b for b in prefix if b]
    assert not _bound_skips(objective, w, prefix, r, j), (w, prefix, r, j)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("compression", "min_max", "max_min", "min_diff", "product_of_sums", "entropy")),
    st.integers(2, 6),
    envelope_weights,
    st.lists(envelope_weights, max_size=4),
    st.data(),
)
def test_largest_weight_bounds_never_exceed_the_best_completion(objective, j, x, head, data):
    # the remainder's largest weight x exceeds its share R / j, so the
    # bounds that read x as well as R decide; the prefix holds the head
    # weights in up to three blocks
    others = data.draw(st.lists(st.integers(1, x), max_size=5))
    while others and x * (j - 1) <= sum(others):
        others.pop()
    tagged = sorted([(x, 1)] + [(y, 1) for y in others] + [(y, 0) for y in head], reverse=True)
    w = [y for y, _ in tagged]
    r = sum(1 << p for p, (_, in_r) in enumerate(tagged) if in_r)
    rest = [p for p, (_, in_r) in enumerate(tagged) if not in_r]
    groups = data.draw(st.lists(st.integers(0, 2), min_size=len(rest), max_size=len(rest)))
    prefix = [sum(1 << p for p, g in zip(rest, groups) if g == i) for i in range(3)]
    prefix = [b for b in prefix if b]
    assert not _bound_skips(objective, w, prefix, r, j), (w, prefix, r, j)


def test_sweeps_call_skip_with_two_slots_or_more(monkeypatch):
    # a level with two slots left scans them, so no bound, none of which
    # has a case for a single slot, ever sees j < 2, under any objective.
    # Nor does any bound test the blocks' own score: each placing level asks
    # its bound only after its own-score test has passed (product_of_sums
    # has none), so that test must hold at every call
    slots = {}
    failed = []

    def recorder(objective, skip):
        def recorded(t, sums, agg, r, j, best):
            slots.setdefault(objective, set()).add(j)
            own = agg[0] - agg[1] if objective == "min_diff" else agg
            if objective != "product_of_sums" and own > best:
                failed.append((objective, agg, best))
            return skip(t, sums, agg, r, j, best)

        return recorded

    for objective in solver._SWEEPS:
        name = f"_skip_{objective}"
        monkeypatch.setattr(solver, name, recorder(objective, getattr(solver, name)))
    corpora = chain(_oracle_cases(120), _summary_level_cases(), _tie_heavy_oracle_cases(80))
    for inst, k in corpora:
        for objective in OBJECTIVES:
            brute_force(inst, k, objective)
        if len(inst.weights) > k:
            verify_lemma2(inst, k)
        # capped: its side sweeps come first, and the cap bounds the rest
        verify_principle_of_optimality(inst, k, trials=1000)
    assert set(slots) == set(solver._SWEEPS)
    assert all(min(js) >= 2 for js in slots.values()), slots
    assert not failed, failed[:5]


def test_largest_weight_bounds_prune_the_balance_sweeps(monkeypatch):
    # on log-uniform weights one weight dominates each remainder. Bounds
    # that saw only its sum R let 2,056 to 3,072 of the 4,096 first blocks
    # of this (13, 3) instance through to a scan of the last two blocks
    rng = random.Random("solver:largest-weight-bound")
    ws = tuple(min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0))) for _ in range(13))
    for objective in ("min_diff", "product_of_sums", "entropy"):
        last_two, *rest = solver._SWEEPS[objective]
        scans = 0

        def counted(*args):
            nonlocal scans
            scans += 1
            return last_two(*args)

        with monkeypatch.context() as m:
            m.setitem(solver._SWEEPS, objective, (counted, *rest))
            brute_force(Instance(ws), 3, objective)
        assert scans < 100, (objective, scans)


def test_largest_first_positions_prune_the_tied_sweeps(monkeypatch):
    # block 0 holds the largest weight, so a heavy first block is ruled out
    # before any level below it runs. On the (13, 3) instance above, with
    # the positions ascending, min_max scanned the last two blocks 2,048
    # times and compression twice; at (13, 6) the compression sweep reached
    # the third-to-last level 783,530 times
    rng = random.Random("solver:largest-weight-bound")
    inst = Instance(tuple(min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0))) for _ in range(13)))
    # level 0 is the innermost level of _SWEEPS, 1 the one above it. The
    # optimum ties the largest weight under min_max, and is the stopped
    # Huffman cost under compression
    for objective, k, level, ceiling, best, optima in (
        ("min_max", 3, 0, 8, max(inst.weights), 2048),
        ("compression", 3, 0, 1, stopped_huffman(inst, 3)[1].cost, 1),
        ("compression", 6, 1, 100, stopped_huffman(inst, 6)[1].cost, 1),
    ):
        levels = list(solver._SWEEPS[objective])
        scan, calls = levels[level], 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return scan(*args)

        levels[level] = counted
        with monkeypatch.context() as m:
            m.setitem(solver._SWEEPS, objective, tuple(levels))
            res = brute_force(inst, k, objective)
        assert calls <= ceiling, (objective, k, calls)
        assert (res.best_value, len(res.optimal_partitions)) == (best, optima), objective


# --- greedy ---------------------------------------------------------------


def test_greedy_worked(worked_instance):
    part = greedy_baseline(worked_instance, 2)
    assert part.assignment == (0, 1, 0, 1, 1, 0)
    assert subset_sums(worked_instance, part).sums == (8, 8)


def test_greedy_spreads_over_groups():
    part = greedy_baseline(Instance((4, 3, 2, 1)), 4)
    assert part == Partition((0, 1, 2, 3), 4)
    part = greedy_baseline(Instance((10, 1, 1)), 2)
    assert subset_sums(Instance((10, 1, 1)), part).sums in ((10, 2), (2, 10))


@given(small_instances, st.integers(1, 5))
def test_greedy_is_canonical_and_never_beats_entropy_oracle(inst, k):
    part = greedy_baseline(inst, k)
    assert part.canonical() is part
    if len(inst.weights) <= 10 and k <= 4:
        h = shannon_entropy(marginal_dist(inst, part))
        best = brute_force(inst, k, "entropy").best_value
        assert h <= best + 1e-9


# --- property checkers ------------------------------------------------------


def test_lemma2_worked(worked_instance):
    rep = verify_lemma2(worked_instance, 2)
    assert rep.unconstrained_min == 22
    assert rep.constrained_min == 22
    assert rep.ok
    assert rep.partitions_searched > 0


def test_lemma2_three_elements():
    rep = verify_lemma2(Instance((1, 2, 3)), 2)
    assert rep.unconstrained_min == 3
    assert rep.constrained_min == 3
    assert rep.ok


def test_lemma2_needs_spare_elements(worked_instance):
    with pytest.raises(InputError):
        verify_lemma2(worked_instance, 6)
    with pytest.raises(InputError):
        verify_lemma2(Instance((1, 2)), 5)


def test_recombination_worked(worked_instance):
    rep = verify_principle_of_optimality(worked_instance, 2)
    assert rep.ok
    assert rep.violations == 0
    assert rep.best_entropy == pytest.approx(1.0, abs=1e-12)
    assert rep.recombinations_checked > 0


def test_recombination_respects_trials_cap(worked_instance):
    rep = verify_principle_of_optimality(worked_instance, 3, trials=2)
    assert rep.recombinations_checked <= 2
    assert rep.ok


def test_recombination_counts_pairings_off_the_best(monkeypatch, worked_instance):
    # every recombination is scored 1e-6 bits above the sweep's best
    exact = solver._entropy_bits
    monkeypatch.setattr(solver, "_entropy_bits", lambda q, m: exact(q, m) + 1e-6)
    rep = verify_principle_of_optimality(worked_instance, 3)
    assert rep.recombinations_checked > 0
    assert rep.violations == rep.recombinations_checked
    assert rep.max_deviation == pytest.approx(1e-6, rel=1e-6)
    assert not rep.ok


@pytest.mark.parametrize("trials", [-1, -5])
def test_recombination_rejects_a_negative_trials_cap(worked_instance, trials):
    with pytest.raises(InputError, match="trials must be non-negative"):
        verify_principle_of_optimality(worked_instance, 2, trials)


def test_recombination_small_sweep():
    import random

    rng = random.Random("solver:recheck")
    for _ in range(20):
        n = rng.randint(3, 8)
        k = rng.randint(2, min(4, n - 1))
        inst = Instance(tuple(rng.randint(1, 30) for _ in range(n)))
        rep = verify_principle_of_optimality(inst, k)
        assert rep.ok, (inst, k)


# recorded before each recombination took its sums from the two sides'
# subset_sums; the last two have a label split with an empty side
@pytest.mark.parametrize(
    "ws, k, trials, expected",
    [
        ((6, 4, 1, 1, 5, 8), 4, None, (1.978688570451097, 39, 0, 0, 0.0)),
        ((6, 4, 1, 1, 5, 8), 4, 5, (1.978688570451097, 5, 0, 0, 0.0)),
        ((11, 1, 10, 5, 4, 11, 12), 3, None, (1.5747850173558806, 36, 0, 0, 0.0)),
        ((27, 4, 19), 4, None, (1.302004483497889, 6, 0, 1, 0.0)),
        ((27, 4, 19), 4, 1, (1.302004483497889, 1, 0, 1, 0.0)),
    ],
)
def test_recombination_reports_are_exact(ws, k, trials, expected):
    rep = verify_principle_of_optimality(Instance(ws), k, trials)
    assert rep == RecombinationReport(*expected)


def test_recombination_makes_no_sub_instance(monkeypatch):
    # the pinned reports come from the instance's own sweep alone
    def refuse(*args, **kwargs):
        raise AssertionError("theorem1 left the instance's own tables")

    monkeypatch.setattr(solver, "brute_force", refuse)
    monkeypatch.setattr(solver, "conditional_subinstance", refuse)
    assert not hasattr(solver, "subset_sums")
    (cases,) = test_recombination_reports_are_exact.pytestmark
    for ws, k, trials, expected in cases.args[1]:
        test_recombination_reports_are_exact(ws, k, trials, expected)


def _recombination_reference(inst, k):
    """verify_principle_of_optimality, uncapped, by the round trip: each
    side of a split is its own Instance, solved by brute_force and mapped
    back to subset sums."""
    res = brute_force(inst, k, "entropy")
    best = res.best_value
    checked = violations = degenerate = 0
    max_dev = 0.0
    for part in res.optimal_partitions:
        for mask in range(1 << (k - 1), (1 << k) - 1):
            sides = []
            for labels in (
                [lbl for lbl in range(k) if mask >> lbl & 1],
                [lbl for lbl in range(k) if not mask >> lbl & 1],
            ):
                try:
                    sub, _ = conditional_subinstance(inst, part, labels)
                except InputError:
                    break
                optima = brute_force(sub, len(labels), "entropy").optimal_partitions
                sides.append([subset_sums(sub, g).sums for g in optima])
            if len(sides) < 2:
                degenerate += 1
                continue
            for q1 in sides[0]:
                for q2 in sides[1]:
                    dev = abs(shannon_entropy(Dist(q1 + q2, inst.total)) - best)
                    max_dev = max(max_dev, dev)
                    violations += dev > 1e-9
                    checked += 1
    return RecombinationReport(best, checked, violations, degenerate, max_dev)


def _recombination_cases():
    """Seeded instances with k in 1..6 (k > n too, which leaves empty
    labels), in four weight shapes: ties drawn from 1..4 and from 1..30,
    log-uniform weights to 2**40, and near-ties just under 2**40. Both of
    the last two put false optima in the entropy band; near-ties hold so
    many that n stops at 6 for them, and 9 for the others."""
    rng = random.Random("solver:recombination")
    for i in range(240):
        shape = i % 4
        n = rng.randint(1, 6 if shape == 3 else 9)
        if shape < 2:
            ws = [rng.randint(1, (4, 30)[shape]) for _ in range(n)]
        else:
            ws = _oracle_weights(rng, n, shape)
        yield Instance(tuple(ws)), rng.randint(1, 6)


def test_recombination_matches_the_round_trip():
    reports = []
    for inst, k in _recombination_cases():
        reports.append(_recombination_reference(inst, k))
        assert verify_principle_of_optimality(inst, k) == reports[-1], (inst, k)
    # the corpus reaches the band's false violations and empty label sides
    assert any(rep.violations for rep in reports)
    assert any(rep.degenerate_splits for rep in reports)


# --- conditional subinstances -----------------------------------------------


def test_conditional_subinstance_examples(worked_instance):
    p = Partition((0, 0, 0, 0, 1, 1), 2)
    sub, members = conditional_subinstance(worked_instance, p, [1])
    assert sub.weights == (4, 5)
    assert members == [4, 5]
    sub, members = conditional_subinstance(worked_instance, p, [0])
    assert sub.weights == (1, 1, 2, 3)


@pytest.mark.parametrize("labels", [1, None])
def test_conditional_subinstance_rejects_labels_that_are_not_iterable(
    worked_instance, labels
):
    p = Partition((0, 0, 0, 0, 1, 1), 2)
    with pytest.raises(InputError, match="labels must be an iterable of integers"):
        conditional_subinstance(worked_instance, p, labels)


def test_conditional_subinstance_degenerate_splits(worked_instance):
    p = Partition((0, 0, 0, 0, 1, 1), 2)
    with pytest.raises(InputError):
        conditional_subinstance(worked_instance, p, [0, 1])
    with pytest.raises(InputError):
        conditional_subinstance(worked_instance, p, [])
    with pytest.raises(InputError):
        conditional_subinstance(worked_instance, p, [5])
    q = Partition((0, 0, 0, 0, 0, 0), 2)  # label 1 exists but is empty
    with pytest.raises(InputError):
        conditional_subinstance(worked_instance, q, [1])
