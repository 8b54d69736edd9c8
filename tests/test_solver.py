"""Stopped Huffman solver, brute-force oracles, and property checkers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpart import (
    MAX_ORACLE_K,
    MAX_WEIGHT,
    MAX_ORACLE_N,
    OBJECTIVES,
    InputError,
    Instance,
    Partition,
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


def test_rejects_bad_k(worked_instance):
    with pytest.raises(InputError):
        stopped_huffman(worked_instance, 0)
    with pytest.raises(InputError):
        stopped_huffman(worked_instance, -2)


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


def test_recombination_small_sweep():
    import random

    rng = random.Random("solver:recheck")
    for _ in range(20):
        n = rng.randint(3, 8)
        k = rng.randint(2, min(4, n - 1))
        inst = Instance(tuple(rng.randint(1, 30) for _ in range(n)))
        rep = verify_principle_of_optimality(inst, k)
        assert rep.ok, (inst, k)


# --- conditional subinstances -----------------------------------------------


def test_conditional_subinstance_examples(worked_instance):
    p = Partition((0, 0, 0, 0, 1, 1), 2)
    sub, members = conditional_subinstance(worked_instance, p, [1])
    assert sub.weights == (4, 5)
    assert members == [4, 5]
    sub, members = conditional_subinstance(worked_instance, p, [0])
    assert sub.weights == (1, 1, 2, 3)


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
