"""Instance parsing, partitions, subset sums, and distributions."""

import ast
import re
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kpart
from kpart import (
    MAX_ELEMENTS,
    MAX_WEIGHT,
    Dist,
    InputError,
    Instance,
    Partition,
    SizeLimitError,
    SubsetSums,
    build_huffman,
    compression_cost,
    conditional_dist,
    conditional_subinstance,
    evaluate,
    grouping_identity_residual,
    instance_dist,
    marginal_dist,
    merge_cost,
    parse_instance,
    subset_sums,
    verify_lemma2,
    verify_principle_of_optimality,
)

weights_st = st.lists(st.integers(1, 1000), min_size=1, max_size=24)


def partitions_of(n: int, k: int):
    return st.tuples(
        *( [st.just(0)] + [st.integers(0, k - 1)] * (n - 1) if n else [] )
    ).map(lambda a: Partition(a, k))


# --- parsing ------------------------------------------------------------


def test_parse_commas_and_whitespace():
    inst = parse_instance("1,1,2,3,4,5")
    assert inst.weights == (1, 1, 2, 3, 4, 5)
    assert inst.total == 16
    assert parse_instance("  7 ").weights == (7,)
    assert parse_instance("1 2,3\n4").weights == (1, 2, 3, 4)


def test_parse_comments_stripped():
    text = "# header\n1, 2 # trailing note\n3\n# only a comment\n"
    assert parse_instance(text).weights == (1, 2, 3)


@pytest.mark.parametrize("bad", ["", "   ", "# nothing", "1 x 2", "1.5", "2e3", "--3"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(InputError):
        parse_instance(bad)


def test_parse_comments_line_endings_and_separators():
    assert parse_instance("1 2# note 9\r\n3,4 #x,5\r\n").weights == (1, 2, 3, 4)
    assert parse_instance("1\r2 # a\r3").weights == (1, 2, 3)
    assert parse_instance(" 1,\t2 ,, 3\n,4\x0c5 ").weights == (1, 2, 3, 4, 5)
    assert parse_instance("+7 007").weights == (7, 7)


@pytest.mark.parametrize(
    "text, first_bad",
    [
        ("5 1_000 x", "1_000"),
        ("1e3", "1e3"),
        ("2 0x10", "0x10"),
        ("--5", "--5"),
        ("3 \u0661\u0662", "\u0661\u0662"),  # Arabic-Indic digits, which int() takes
        ("4 +-1", "+-1"),
        ("4 1+", "1+"),
        ("4 + 1", "+"),
        ("1,2,3.5,x", "3.5"),
    ],
)
def test_parse_names_the_first_bad_token(text, first_bad):
    with pytest.raises(InputError) as exc:
        parse_instance(text)
    assert str(exc.value) == f"not a decimal integer: {first_bad!r}"


_ONE_TOKEN = re.compile(r"[+-]?[0-9]+\Z")


def _per_token_parse(text):
    """The line-by-line, token-by-token parser the single-regex one replaced."""
    body = " ".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = body.replace(",", " ").split()
    if not tokens:
        raise InputError("no weights found in input")
    for tok in tokens:
        if _ONE_TOKEN.match(tok) is None:
            raise InputError(f"not a decimal integer: {tok!r}")
    return Instance(tuple(int(tok) for tok in tokens))


def _outcome(parse, text):
    try:
        return parse(text).weights
    except InputError as exc:
        return type(exc), str(exc)


@given(st.text(alphabet="0123456789+-#, \t\r\n\x0b\x0c\x85xe_.\u0661\u2028\xa0"))
def test_parse_agrees_with_per_token_scan(text):
    assert _outcome(parse_instance, text) == _outcome(_per_token_parse, text)


def _outcome_at_digit_limit(parse, text, limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return _outcome(parse, text)
    finally:
        sys.set_int_max_str_digits(saved)


_LONG_RUN = st.builds(
    lambda sign, zeros, digit, run: sign + "0" * zeros + digit * run,
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 5000),
    st.sampled_from("0123456789"),
    st.integers(4290, 4310) | st.integers(0, 6000),
)
_PARSE_TOKENS = st.lists(
    st.from_regex(r"[+-]?[0-9]{1,16}", fullmatch=True)
    | _LONG_RUN
    | st.sampled_from(["1_000", "_7", "7_", "\u0661\u0662", "3\u0669", "+", "x"]),
    min_size=1,
    max_size=6,
)


@given(
    _PARSE_TOKENS,
    st.lists(
        st.sampled_from([" ", ",", "\n", "\xa0", "\u2028", " ,\xa0"]),
        min_size=6,
        max_size=6,
    ),
    st.sampled_from([640, 4300, 0]),
)
def test_parse_reads_tokens_past_the_digit_limit_by_value(tokens, seps, limit):
    # the reference reads every token with no digit limit (0), so an
    # over-long one reaches Instance's checks like any other
    text = "".join(sep + tok for sep, tok in zip(seps, tokens))
    want = _outcome_at_digit_limit(_per_token_parse, text, 0)
    assert _outcome_at_digit_limit(parse_instance, text, limit) == want


_SEVENS = "7" * 5000
_EIGHTS = "8" * 5000


@pytest.mark.parametrize(
    "text, error, message",
    [
        (_SEVENS, SizeLimitError, f"weight {_SEVENS} exceeds the limit of {MAX_WEIGHT}"),
        ("-" + _SEVENS, InputError, f"weights must be positive, got -{_SEVENS}"),
        # as Instance judges: any nonpositive weight first, then the
        # smallest, then the largest
        (f"{_SEVENS},0", InputError, "weights must be positive, got 0"),
        (f"-{'9' * 20},-{_SEVENS}", InputError, f"weights must be positive, got -{_SEVENS}"),
        (f"-{_SEVENS},-{_EIGHTS}", InputError, f"weights must be positive, got -{_EIGHTS}"),
        (f"{_EIGHTS},{_SEVENS},{'9' * 20}", SizeLimitError, f"weight {_EIGHTS} exceeds"),
    ],
    ids=["over-limit", "negative", "zero", "longer", "larger", "largest"],
)
def test_parse_judges_a_token_past_the_digit_limit_by_value(text, error, message):
    with pytest.raises(InputError) as exc:
        parse_instance(text)
    assert type(exc.value) is error
    assert str(exc.value).startswith(message)


def test_parse_reads_leading_zeros_past_the_digit_limit():
    assert parse_instance("0" * 5000 + "5").weights == (5,)


def test_parse_rejects_nonpositive():
    with pytest.raises(InputError):
        parse_instance("1 0 2")
    with pytest.raises(InputError):
        parse_instance("1 -4 2")


def test_weight_limit_enforced():
    Instance((MAX_WEIGHT,))
    with pytest.raises(SizeLimitError):
        Instance((MAX_WEIGHT + 1,))
    with pytest.raises(SizeLimitError):
        parse_instance(str(MAX_WEIGHT + 1))


def test_element_count_limit_enforced():
    with pytest.raises(SizeLimitError):
        Instance((1,) * (MAX_ELEMENTS + 1))


def test_instance_rejects_empty_and_nonint():
    with pytest.raises(InputError):
        Instance(())
    with pytest.raises(InputError):
        Instance((1, 2.5))
    with pytest.raises(InputError):
        Instance((1, "2"))


def _raised_at_digit_limit(call, limit):
    """(type, message) of the InputError call raises under a digit limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(InputError) as exc:
            call()
        return type(exc.value), str(exc.value)
    finally:
        sys.set_int_max_str_digits(saved)


# 10**5000 has 16,610 bits and more digits than str() prints by default;
# 10**1000 has 1,001 digits, which str() prints only above a limit of 640
_HUGE = "<16610-bit integer>"
_TOO_BIG = f"weight {_HUGE} exceeds the limit of {MAX_WEIGHT}"
_DIGIT_LIMITS = [sys.int_info.default_max_str_digits, 640]


@pytest.mark.parametrize("limit", _DIGIT_LIMITS)
@pytest.mark.parametrize(
    "call, raised",
    [
        (lambda: Instance((10**5000,)), (SizeLimitError, _TOO_BIG)),
        (
            lambda: Instance((1, -(10**5000))),
            (InputError, f"weights must be positive, got -{_HUGE}"),
        ),
        (lambda: merge_cost([10**5000]), (SizeLimitError, _TOO_BIG)),
        (lambda: build_huffman([3, 10**5000]), (SizeLimitError, _TOO_BIG)),
    ],
    ids=["instance", "instance-negative", "merge_cost", "build_huffman"],
)
def test_a_weight_past_the_digit_limit_is_named_by_its_bit_length(call, raised, limit):
    assert _raised_at_digit_limit(call, limit) == raised


@pytest.mark.parametrize("limit", _DIGIT_LIMITS)
@pytest.mark.parametrize("entry", [Instance, merge_cost, build_huffman])
def test_a_weight_str_can_print_keeps_its_message(entry, limit):
    decimal = "1" + "0" * 1000
    shown = decimal if limit > 1001 else "<3322-bit integer>"
    assert _raised_at_digit_limit(lambda: entry((3, 10**1000)), limit) == (
        SizeLimitError,
        f"weight {shown} exceeds the limit of {MAX_WEIGHT}",
    )
    assert _raised_at_digit_limit(lambda: entry((3, -(10**1000))), limit) == (
        InputError,
        f"weights must be positive, got -{shown}",
    )


@pytest.mark.parametrize("limit", _DIGIT_LIMITS)
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Partition((0,), 10**5000), f"k={_HUGE} exceeds the limit of {MAX_ELEMENTS}"),
        (lambda: Partition((0,), -(10**5000)), f"k must be at least 1, got -{_HUGE}"),
        (
            lambda: conditional_dist(Instance((1,)), Partition((0,), 1), 10**5000),
            f"label {_HUGE} outside [0, 1)",
        ),
        (
            lambda: grouping_identity_residual(Dist((1, 1), 2), 10**5000),
            f"split point {_HUGE} outside [1, 1]",
        ),
        (
            lambda: verify_principle_of_optimality(Instance((1, 2)), 2, -(10**5000)),
            f"trials must be non-negative, got -{_HUGE}",
        ),
    ],
    ids=["k", "k-negative", "label", "split-point", "trials"],
)
def test_other_integers_past_the_digit_limit_are_named_by_bit_length(call, message, limit):
    assert _raised_at_digit_limit(call, limit)[1] == message


# --- partitions ---------------------------------------------------------


def test_partition_validation():
    Partition((0, 1, 0), 2)
    with pytest.raises(InputError):
        Partition((0, 1, 2), 2)
    with pytest.raises(InputError):
        Partition((0, -1), 2)
    with pytest.raises(InputError):
        Partition((0,), 0)
    with pytest.raises(InputError):
        Partition((), 1)


@pytest.mark.parametrize(
    "assignment, k",
    [
        ((0.5, 0), 2),
        ((0, 1.0), 2),
        ((0, "1"), 2),
        ((0, 1), 2.5),
        ((0, 1), 2.0),
        ((0,), True),
    ],
)
def test_partition_rejects_non_integer_labels_and_k(assignment, k):
    # each was once accepted, and groups, canonical or evaluate then raised
    # a stray TypeError
    with pytest.raises(InputError, match="must be (an integer|integers)"):
        Partition(assignment, k)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Instance(5), "weights must be an iterable of integers, got 5"),
        (lambda: build_huffman(5), "weights must be an iterable of integers, got 5"),
        (lambda: merge_cost(None), "weights must be an iterable of integers, got None"),
        (lambda: Instance((True, 3)), "weight must be an integer, got True"),
        (lambda: merge_cost([True, True]), "weight must be an integer, got True"),
        (lambda: Partition(5, 2), "labels must be an iterable of integers, got 5"),
        (lambda: Partition((True, False), 2), "label must be an integer, got True"),
        (lambda: Partition((0, False), 2), "label must be an integer, got False"),
    ],
    ids=[
        "instance-int",
        "build_huffman-int",
        "merge_cost-none",
        "instance-bool",
        "merge_cost-bools",
        "partition-int",
        "partition-bools",
        "partition-false",
    ],
)
def test_weights_and_labels_are_iterables_of_ints_not_bools(call, message):
    # a non-iterable once raised a bare TypeError, bools passed as ints, and
    # merge_cost([True, True]) returned 2
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def test_canonical_relabels_by_first_occurrence():
    p = Partition((1, 1, 0, 2), 3)
    assert p.canonical().assignment == (0, 0, 1, 2)
    assert p.canonical().k == 3
    q = Partition((0, 0, 1, 2), 3)
    assert q.canonical() is q


def test_partition_k_is_bounded_by_the_element_limit():
    assert Partition((0,), MAX_ELEMENTS).k == MAX_ELEMENTS
    with pytest.raises(SizeLimitError, match="exceeds the limit"):
        Partition((0,), MAX_ELEMENTS + 1)


@given(st.data())
def test_canonical_matches_a_plain_dict_relabel(data):
    n = data.draw(st.integers(1, 30))
    k = data.draw(st.integers(1, n + 3))
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    p = Partition(tuple(labels), k)
    remap = {}
    want = tuple(remap.setdefault(a, len(remap)) for a in p.assignment)
    c = p.canonical()
    assert c.k == k
    assert c.assignment == want
    assert (c is p) == (want == p.assignment)
    assert c.canonical() is c


def test_partition_equality_ignores_label_names():
    a = Partition((0, 1, 0, 1), 2)
    b = Partition((1, 0, 1, 0), 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Partition((0, 1, 1, 0), 2)
    assert Partition((0, 0), 2) != Partition((0, 0), 1)
    assert len({a, b}) == 1
    # a tuple of labels is not a Partition, even with the same assignment
    assert not Partition((0,), 1) == (0,)
    assert Partition((0,), 1) != (0,)


def test_partition_groups():
    p = Partition((0, 2, 0, 1), 3)
    assert p.groups() == ((0, 2), (3,), (1,))


def test_partition_json_round_trip():
    p = Partition((0, 1, 0, 2), 3)
    d = p.to_json_dict()
    assert d == {"k": 3, "assignment": [0, 1, 0, 2]}
    assert Partition.from_json_dict(d) == p
    with pytest.raises(InputError):
        Partition.from_json_dict({"k": 2})
    with pytest.raises(InputError):
        Partition.from_json_dict({"k": 2, "assignment": [0, 5]})
    with pytest.raises(InputError):
        Partition.from_json_dict({"k": "2", "assignment": [0]})


def test_partition_json_rejects_a_label_that_is_not_an_int():
    with pytest.raises(InputError, match="assignment must be a list of integers"):
        Partition.from_json_dict({"k": 2, "assignment": [0, "1"]})


# --- subset sums --------------------------------------------------------


def test_subset_sums_examples(worked_instance):
    balanced = Partition((0, 1, 0, 1, 1, 0), 2)
    assert subset_sums(worked_instance, balanced).sums == (8, 8)
    stopped = Partition((0, 0, 0, 0, 1, 1), 2)
    assert subset_sums(worked_instance, stopped).sums == (7, 9)


def test_subset_sums_keeps_empty_slots():
    inst = Instance((5,))
    s = subset_sums(inst, Partition((2,), 3))
    assert s.sums == (0, 0, 5)
    assert s.total == 5


def test_subset_sums_length_mismatch():
    with pytest.raises(InputError):
        subset_sums(Instance((1, 2)), Partition((0,), 1))


def test_subset_sums_must_conserve_the_total():
    assert SubsetSums((1, 2), 3).sums == (1, 2)
    with pytest.raises(InputError, match="must conserve the instance total"):
        SubsetSums((1, 2), 4)


@pytest.mark.parametrize(
    "sums, total, message",
    [
        ((1.5, 1.5), 3, "sum must be an integer, got 1.5"),
        ((True, 2), 3, "sum must be an integer, got True"),
        ("ab", 3, "sum must be an integer, got 'a'"),
        (5, 5, "sums must be an iterable of integers, got 5"),
        ((1, 2), 3.0, "total must be an integer, got 3.0"),
    ],
)
def test_subset_sums_hold_integers_only(sums, total, message):
    # the first three and the float total were once accepted, and "ab" raised
    # a bare TypeError
    with pytest.raises(InputError) as exc:
        SubsetSums(sums, total)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "entry",
    [
        subset_sums,
        lambda inst, p: conditional_dist(inst, p, 0),
        compression_cost,
        evaluate,
        lambda inst, p: conditional_subinstance(inst, p, [0]),
    ],
    ids=[
        "subset_sums",
        "conditional_dist",
        "compression_cost",
        "evaluate",
        "conditional_subinstance",
    ],
)
@pytest.mark.parametrize("covered", [1, 3])
def test_every_entry_point_rejects_a_length_mismatch(entry, covered):
    inst = Instance((1, 2))
    p = Partition(tuple(range(covered)), 3)
    with pytest.raises(InputError) as exc:
        entry(inst, p)
    assert str(exc.value) == f"partition covers {covered} elements, instance has 2"


@given(weights_st, st.integers(1, 5), st.data())
def test_subset_sums_conserve_total(ws, k, data):
    inst = Instance(tuple(ws))
    a = tuple(data.draw(st.integers(0, k - 1)) for _ in ws)
    s = subset_sums(inst, Partition(a, k))
    assert sum(s.sums) == inst.total == s.total
    assert len(s.sums) == k


# --- distributions ------------------------------------------------------


def test_dist_validation():
    Dist((1, 3), 4)
    # zero-mass entries are legal, they model empty group slots
    Dist((0, 4), 4)
    with pytest.raises(InputError):
        Dist((1, 2), 4)
    with pytest.raises(InputError):
        Dist((-1, 5), 4)
    with pytest.raises(InputError):
        Dist((4,), 0)
    with pytest.raises(InputError):
        Dist((4,), 4, members=(0, 1))


@pytest.mark.parametrize(
    "args, message",
    [
        (((0.5, 0.5), 1), "numerator must be an integer, got 0.5"),
        (((1, False), 1), "numerator must be an integer, got False"),
        (("ab", 2), "numerator must be an integer, got 'a'"),
        ((5, 5), "numerators must be an iterable of integers, got 5"),
        (((1, 1), 2, 5), "members must be an iterable of integers, got 5"),
        (((1, 1), 2, (0, 1.0)), "member must be an integer, got 1.0"),
    ],
)
def test_dist_holds_integers_only(args, message):
    with pytest.raises(InputError) as exc:
        Dist(*args)
    assert str(exc.value) == message


def test_dist_needs_an_entry():
    with pytest.raises(InputError, match="needs at least one entry"):
        Dist((), 1)


def test_marginal_and_conditional_examples(worked_instance):
    p = Partition((0, 0, 0, 0, 1, 1), 2)
    m = marginal_dist(worked_instance, p)
    assert m.numerators == (7, 9)
    assert m.denominator == 16
    c = conditional_dist(worked_instance, p, 1)
    assert c.numerators == (4, 5)
    assert c.denominator == 9
    assert c.members == (4, 5)
    with pytest.raises(InputError):
        conditional_dist(worked_instance, Partition((0,) * 6, 2), 1)
    with pytest.raises(InputError):
        conditional_dist(worked_instance, p, 2)


@pytest.mark.parametrize("label", ["a", 1.0, True, None])
def test_conditional_dist_rejects_a_label_that_is_not_an_int(worked_instance, label):
    p = Partition((0, 0, 0, 0, 1, 1), 2)
    with pytest.raises(InputError, match="label must be an integer"):
        conditional_dist(worked_instance, p, label)


# an integer argument of five public entry points, by the name their
# message gives it
_INT_ARGUMENTS = {
    "split point": lambda x: grouping_identity_residual(Dist((1, 1, 2), 4), x),
    "label": lambda x: conditional_subinstance(
        Instance((1, 2, 3)), Partition((0, 1, 1), 2), [x]
    ),
    "trials": lambda x: verify_principle_of_optimality(Instance((1, 2, 3)), 2, x),
    "k": lambda x: verify_lemma2(Instance((1, 2, 3)), x),
    "denominator": lambda x: Dist((1,), x),
}


@pytest.mark.parametrize(
    "name, bad",
    [
        (name, bad)
        for name in _INT_ARGUMENTS
        for bad in ("3", 1.0, True, None, [1])
        if (name, bad) != ("trials", None)  # None is the uncapped default
    ],
)
def test_entry_points_reject_an_argument_that_is_not_an_int(name, bad):
    with pytest.raises(InputError) as exc:
        _INT_ARGUMENTS[name](bad)
    assert str(exc.value) == f"{name} must be an integer, got {bad!r}"


def test_all_names_every_public_binding():
    bound = {
        name
        for name, value in vars(kpart).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(kpart.__all__) - {"__version__"}
    assert len(kpart.__all__) == len(set(kpart.__all__))


def test_the_library_imports_the_standard_library_only():
    # the runtime is stdlib-only: a third-party import, numpy say, fails here
    # even when it is installed
    sources = sorted(Path(kpart.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_instance_dist(worked_instance):
    d = instance_dist(worked_instance)
    assert len(worked_instance) == len(d.numerators) == 6
    assert d.numerators == (1, 1, 2, 3, 4, 5)
    assert d.denominator == 16


@given(weights_st, st.randoms(use_true_random=False))
def test_marginal_tracks_relabeling(ws, rng):
    inst = Instance(tuple(ws))
    k = rng.randint(1, 4)
    a = tuple(rng.randrange(k) for _ in ws)
    perm = list(range(k))
    rng.shuffle(perm)
    b = tuple(perm[x] for x in a)
    ma = marginal_dist(inst, Partition(a, k))
    mb = marginal_dist(inst, Partition(b, k))
    # relabeling permutes the marginal the same way
    got = [0] * k
    for lbl, mass in enumerate(ma.numerators):
        got[perm[lbl]] = mass
    assert list(mb.numerators) == got


@given(weights_st, st.data())
def test_conditional_masses_match_subset_sums(ws, data):
    inst = Instance(tuple(ws))
    k = data.draw(st.integers(1, 4))
    a = tuple(data.draw(st.integers(0, k - 1)) for _ in ws)
    p = Partition(a, k)
    sums = subset_sums(inst, p).sums
    for lbl in range(k):
        if sums[lbl] == 0:
            continue
        c = conditional_dist(inst, p, lbl)
        assert c.denominator == sums[lbl]
        assert sum(c.numerators) == sums[lbl]
        assert c.members == p.groups()[lbl]
