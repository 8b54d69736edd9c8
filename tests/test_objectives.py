"""Exact objective evaluation across all supported criteria."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpart import (
    INT64_MAX,
    InputError,
    Instance,
    Partition,
    build_huffman,
    compression_cost,
    conditional_entropy,
    evaluate,
)

weights_st = st.lists(st.integers(1, 1000), min_size=1, max_size=20)


def random_partition(data, n, max_k=5):
    k = data.draw(st.integers(1, max_k))
    return Partition(tuple(data.draw(st.integers(0, k - 1)) for _ in range(n)), k)


@pytest.mark.parametrize("cost", ["x", 1.5, True, [22]])
def test_evaluate_takes_an_integer_cost_only(worked_instance, cost):
    # "x" once raised a bare TypeError, and 1.5 was reported as the
    # compression numerator
    p = Partition((0, 0, 0, 0, 1, 1), 2)
    with pytest.raises(InputError) as exc:
        evaluate(worked_instance, p, cost)
    assert str(exc.value) == f"cost must be an integer, got {cost!r}"
    assert evaluate(worked_instance, p, 22) == evaluate(worked_instance, p)


def test_worked_report(worked_instance):
    rep = evaluate(worked_instance, Partition((0, 0, 0, 0, 1, 1), 2))
    assert rep.min_diff == 2
    assert rep.min_max == 9
    assert rep.max_min == 7
    assert rep.product_of_sums == 63
    assert rep.product_overflow is False
    assert rep.compression_numerator == 22
    assert rep.compression_bits == 1.375
    assert rep.entropy_bits == pytest.approx(0.9886994082884977, abs=1e-12)
    assert rep.min_entropy_bits == pytest.approx(0.8300749985576878, abs=1e-12)


def test_balanced_report(worked_instance):
    rep = evaluate(worked_instance, Partition((0, 0, 0, 1, 0, 1), 2))
    assert rep.min_diff == 0
    assert rep.min_max == rep.max_min == 8
    assert rep.entropy_bits == 1.0
    assert rep.min_entropy_bits == 1.0
    assert rep.product_of_sums == 64
    assert rep.compression_numerator == 22


def test_singleton_report(worked_instance):
    rep = evaluate(worked_instance, Partition(tuple(range(6)), 6))
    assert rep.compression_numerator == 0
    assert rep.compression_bits == 0.0
    assert rep.min_diff == 5 - 1
    assert rep.max_min == 1


def test_empty_slots_count_as_zero_sums():
    rep = evaluate(Instance((5,)), Partition((2,), 3))
    assert rep.min_diff == 5
    assert rep.min_max == 5
    assert rep.max_min == 0
    assert rep.product_of_sums == 0
    assert rep.entropy_bits == 0.0
    assert rep.compression_numerator == 0


def test_compression_cost_examples(worked_instance):
    assert compression_cost(worked_instance, Partition((0, 0, 0, 0, 1, 1), 2)) == 22
    assert compression_cost(worked_instance, Partition((0,) * 6, 1)) == 38
    assert compression_cost(worked_instance, Partition(tuple(range(6)), 6)) == 0


def test_report_json_keys(worked_instance):
    d = evaluate(worked_instance, Partition((0, 0, 0, 0, 1, 1), 2)).to_json_dict()
    assert list(d) == [
        "min_diff",
        "min_max",
        "max_min",
        "entropy_bits",
        "min_entropy_bits",
        "product_of_sums",
        "product_overflow",
        "compression_numerator",
        "compression_bits",
    ]
    assert d["compression_numerator"] == 22


def test_product_overflow_flag():
    big = 1 << 40
    rep = evaluate(Instance((big, big)), Partition((0, 1), 2))
    assert rep.product_of_sums == big * big
    assert rep.product_overflow is True
    small = evaluate(Instance((2, 3)), Partition((0, 1), 2))
    assert small.product_overflow is False
    assert small.product_of_sums == 6
    # 2**31 * (2**32 - 1) < 2**63 - 1 < 2**31 * 2**32
    under = evaluate(Instance((1 << 31, (1 << 32) - 1)), Partition((0, 1), 2))
    assert under.product_of_sums < INT64_MAX
    assert under.product_overflow is False
    over = evaluate(Instance((1 << 31, 1 << 32)), Partition((0, 1), 2))
    assert over.product_of_sums == 1 << 63
    assert over.product_overflow is True


@given(weights_st, st.data())
def test_compression_matches_per_group_trees(ws, data):
    inst = Instance(tuple(ws))
    p = random_partition(data, len(ws))
    want = 0
    for members in p.groups():
        if members:
            want += build_huffman([ws[e] for e in members]).cost_numerator
    assert compression_cost(inst, p) == want
    assert evaluate(inst, p).compression_numerator == want


@given(weights_st, st.data())
def test_compression_sandwiches_conditional_entropy(ws, data):
    inst = Instance(tuple(ws))
    p = random_partition(data, len(ws))
    bits = evaluate(inst, p).compression_bits
    h = conditional_entropy(inst, p)
    assert h <= bits + 1e-9
    assert bits - 1.0 < h + 1e-9


@given(weights_st, st.data(), st.randoms(use_true_random=False))
def test_report_is_exactly_label_invariant(ws, data, rng):
    inst = Instance(tuple(ws))
    p = random_partition(data, len(ws))
    perm = list(range(p.k))
    rng.shuffle(perm)
    q = Partition(tuple(perm[a] for a in p.assignment), p.k)
    assert evaluate(inst, p) == evaluate(inst, q)


@given(weights_st, st.data())
def test_pigeonhole_bounds(ws, data):
    inst = Instance(tuple(ws))
    p = random_partition(data, len(ws))
    rep = evaluate(inst, p)
    assert rep.max_min * p.k <= inst.total <= rep.min_max * p.k
    assert rep.min_diff == rep.min_max - rep.max_min


@given(st.lists(st.integers(1, 1000), min_size=2, max_size=20), st.data())
def test_refining_a_group_never_raises_cost(ws, data):
    inst = Instance(tuple(ws))
    k = data.draw(st.integers(1, 4))
    a = [data.draw(st.integers(0, k - 1)) for _ in ws]
    crowded = max(range(k), key=lambda lbl: a.count(lbl))
    mover = a.index(crowded)
    before = compression_cost(inst, Partition(tuple(a), k))
    a[mover] = k  # peel one element into a fresh group
    after = compression_cost(inst, Partition(tuple(a), k + 1))
    assert after <= before
