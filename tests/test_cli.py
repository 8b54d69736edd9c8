"""End-to-end CLI behaviour: payload shapes, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import kpart
from kpart import (
    MAX_WEIGHT,
    Instance,
    Lemma2Report,
    ObjectiveReport,
    Partition,
    brute_force,
    evaluate,
    greedy_baseline,
    parse_instance,
    stopped_huffman,
)
from kpart import cli
from kpart.cli import _render_merge_lists, main

WORKED = "1,1,2,3,4,5"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_json_payload(capsys):
    code, out, _ = run(capsys, "solve", "-k", "2", "--list", WORKED, "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "instance",
        "k",
        "objective",
        "partition",
        "subset_sums",
        "report",
        "trace",
    }
    assert payload["instance"] == [1, 1, 2, 3, 4, 5]
    assert payload["k"] == 2
    assert payload["objective"] == "compression"
    assert payload["partition"] == {"k": 2, "assignment": [0, 0, 0, 0, 1, 1]}
    assert payload["subset_sums"] == [7, 9]
    assert payload["report"]["compression_numerator"] == 22
    assert payload["report"]["min_diff"] == 2
    assert payload["trace"]["steps"] == [[1, 1, 2], [2, 2, 4], [3, 4, 7], [4, 5, 9]]
    assert payload["trace"]["final_list"] == [7, 9]


WORKED_HUMAN = """\
instance: 1 1 2 3 4 5 (n=6, M=16)
method: stopped-huffman, k=2, objective=compression
group 0: 1 1 2 3 (sum 7)
group 1: 4 5 (sum 9)
L(X|A) = 22/16 = 1.375
H(A) = 0.988699 bits, H_inf(A) = 0.830075 bits
min_diff = 2, min_max = 9, max_min = 7, product_of_sums = 63
"""

WORKED_PAYLOAD = {
    "instance": [1, 1, 2, 3, 4, 5],
    "k": 2,
    "objective": "compression",
    "partition": {"k": 2, "assignment": [0, 0, 0, 0, 1, 1]},
    "subset_sums": [7, 9],
    "report": {
        "min_diff": 2,
        "min_max": 9,
        "max_min": 7,
        "entropy_bits": 0.9886994082884977,
        "min_entropy_bits": 0.8300749985576878,
        "product_of_sums": 63,
        "product_overflow": False,
        "compression_numerator": 22,
        "compression_bits": 1.375,
    },
    "trace": {
        "steps": [[1, 1, 2], [2, 2, 4], [3, 4, 7], [4, 5, 9]],
        "final_list": [7, 9],
    },
}


def test_solve_worked_example_exact_output(capsys):
    _, human, _ = run(capsys, "solve", "-k", "2", "--list", WORKED)
    assert human == WORKED_HUMAN
    _, out, _ = run(capsys, "solve", "-k", "2", "--list", WORKED, "--json")
    assert json.loads(out) == WORKED_PAYLOAD
    assert out.count("\n") == 1 and " " not in out  # compact, one line
    _, traced, _ = run(capsys, "trace", "-k", "2", "--list", WORKED, "--json")
    assert traced == out


def test_group_lines_past_the_display_cap(capsys):
    # a label over the cap of 40 prints its count; the others keep members
    capped = "group 0: 41 elements (sum 41)"
    listed = "group 0: " + "1 " * 40 + "(sum 40)"
    for ones, line in ((41, capped), (40, listed)):
        ws = ["1"] * ones + ["1000", "2000"]
        _, out, _ = run(capsys, "solve", "-k", "3", "--list", " ".join(ws))
        groups = [ln for ln in out.splitlines() if ln.startswith("group ")]
        assert groups == [line, "group 1: 1000 (sum 1000)", "group 2: 2000 (sum 2000)"]
    _, out, _ = run(capsys, "solve", "-k", "4", "--list", "1 2 3", "--greedy")
    assert "group 3:  (sum 0)" in out.splitlines()


def _python(*argv, check=True):
    env = dict(os.environ, PYTHONPATH=str(Path(kpart.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, check=check
    )


@pytest.mark.parametrize(
    "argv",
    [("solve", "-k", "2", "--list", WORKED), ("solve", "-k", "0", "--list", WORKED)],
    ids=["ok", "input-error"],
)
def test_module_entry_point_exits_as_main_returns(capsys, argv):
    out = _python("-m", "kpart.cli", *argv, check=False)
    assert (out.returncode, out.stdout, out.stderr) == run(capsys, *argv)


def test_importing_the_library_leaves_the_cli_unloaded():
    out = _python("-c", "import sys, kpart; print('kpart.cli' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_module_entry_point_runs_without_warnings():
    argv = ("solve", "-k", "2", "--list", WORKED)
    out = _python("-W", "error", "-m", "kpart.cli", *argv)
    assert out.stdout == WORKED_HUMAN
    assert out.stderr == ""


def test_solve_json_is_byte_identical(capsys):
    _, first, _ = run(capsys, "solve", "-k", "2", "--list", WORKED, "--json")
    _, second, _ = run(capsys, "solve", "-k", "2", "--list", WORKED, "--json")
    assert first == second


def test_solve_human_output(capsys):
    code, out, _ = run(capsys, "solve", "-k", "2", "--list", WORKED)
    assert code == 0
    assert "22/16" in out
    assert "group 0: 1 1 2 3 (sum 7)" in out
    assert "group 1: 4 5 (sum 9)" in out


def test_solve_human_output_flags_a_product_outside_64_bits(capsys):
    # two sums near 3 * 2**40 multiply past 2**63
    ws = ",".join(str((1 << 40) - d) for d in (0, 1, 2, 3, 5, 7))
    code, out, _ = run(capsys, "solve", "-k", "2", "--list", ws)
    assert code == 0
    (line,) = [ln for ln in out.splitlines() if ln.startswith("min_diff = ")]
    assert line.endswith(" (outside 64-bit range)")


def test_solve_human_output_names_a_product_past_the_digit_limit(capsys):
    # 1,000 sums of 2**40 multiply to 2**40000, over 4,300 decimal digits,
    # which str() refuses; the product is named by its bit length instead
    ws = ",".join([str(1 << 40)] * 1000)
    code, out, err = run(capsys, "solve", "-k", "1000", "--list", ws)
    assert code == 0, err
    (line,) = [ln for ln in out.splitlines() if ln.startswith("min_diff = ")]
    assert line == (
        f"min_diff = 0, min_max = {1 << 40}, max_min = {1 << 40}, "
        "product_of_sums = <40001-bit integer> (outside 64-bit range)"
    )


def test_solve_objectives_need_a_solver(capsys):
    code, _, err = run(capsys, "solve", "-k", "2", "--list", WORKED, "--objective", "entropy")
    assert code == 2
    assert "oracle" in err


def test_solve_with_oracle_flag(capsys):
    code, out, _ = run(
        capsys,
        "solve", "-k", "2", "--list", WORKED, "--objective", "entropy", "--json",
        "--oracle",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["entropy_bits"] == 1.0
    assert sorted(payload["subset_sums"]) == [8, 8]
    assert "trace" not in payload


def test_solve_with_greedy_flag(capsys):
    code, out, _ = run(capsys, "solve", "-k", "2", "--list", WORKED, "--json", "--greedy")
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"]["assignment"] == [0, 1, 0, 1, 1, 0]
    assert payload["subset_sums"] == [8, 8]


def test_oracle_and_greedy_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-k", "2", "--list", WORKED, "--oracle", "--greedy"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_trace_human_lines(capsys):
    code, out, _ = run(capsys, "trace", "-k", "2", "--list", WORKED)
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == [
        "(1, 1, 2, 3, 4, 5)",
        "(*2*, 2, 3, 4, 5)",
        "(3, *4*, 4, 5)",
        "(4, 5, *7*)",
        "(*7*, *9*)",
    ]
    assert "final groups:" in lines


def test_trace_lines_are_rendered_one_at_a_time():
    # the output is quadratic in n, so no more than one line may be held
    rng = random.Random("cli:trace-memory")
    inst = Instance(tuple(rng.randint(1, 1 << 30) for _ in range(1 << 10)))
    _, trace = stopped_huffman(inst, 16)
    tracemalloc.start()
    try:
        count = sum(1 for _ in _render_merge_lists(inst, trace))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == len(trace) + 1
    assert peak < 1_000_000, peak


def test_trace_json_round_trips_through_evaluate(capsys):
    code, out, _ = run(capsys, "trace", "-k", "2", "--list", WORKED, "--json")
    assert code == 0
    payload = json.loads(out)
    inst = parse_instance(" ".join(map(str, payload["instance"])))
    part = Partition.from_json_dict(payload["partition"])
    assert evaluate(inst, part).to_json_dict() == payload["report"]
    merged = sum(step[2] for step in payload["trace"]["steps"])
    assert merged == payload["report"]["compression_numerator"]


def test_trace_json_past_n_is_exact(capsys):
    # recorded while trace --json had its own copy of solve's JSON path: at
    # k > n no merge runs and every element keeps a group of its own
    expected = (
        '{"instance":[1,1,2,3,4,5],"k":9,"objective":"compression",'
        '"partition":{"k":9,"assignment":[0,1,2,3,4,5]},'
        '"subset_sums":[1,1,2,3,4,5,0,0,0],'
        '"report":{"min_diff":5,"min_max":5,"max_min":0,'
        '"entropy_bits":2.3522170014624826,"min_entropy_bits":1.6780719051126378,'
        '"product_of_sums":0,"product_overflow":false,"compression_numerator":0,'
        '"compression_bits":0.0},"trace":{"steps":[],"final_list":[1,1,2,3,4,5]}}\n'
    )
    for command in ("trace", "solve"):
        code, out, _ = run(capsys, command, "-k", "9", "--list", WORKED, "--json")
        assert code == 0
        assert out == expected


def test_oracle_command_payload(capsys):
    code, out, _ = run(
        capsys, "oracle", "-k", "2", "--list", WORKED, "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["best_value"] == 22
    assert payload["oracle"]["optima_count"] == 3
    assert payload["oracle"]["partitions_searched"] == 32
    assert payload["oracle"]["optimal_assignments"] == [
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 1, 1, 0],
    ]


NEAR_TIE = ",".join(str((1 << 40) - d) for d in (0, 1, 2, 3, 5, 7))


# recorded while max_min had a sweep of its own: k = 1, k > n (every
# partition leaves a slot empty, so all tie at 0), and the 2^40 near ties
@pytest.mark.parametrize(
    "args, expected",
    [
        (
            ("-k", "1", "--list", WORKED),
            '{"instance":[1,1,2,3,4,5],"k":1,"objective":"max_min",'
            '"partition":{"k":1,"assignment":[0,0,0,0,0,0]},"subset_sums":[16],'
            '"report":{"min_diff":0,"min_max":16,"max_min":16,"entropy_bits":0.0,'
            '"min_entropy_bits":0.0,"product_of_sums":16,"product_overflow":false,'
            '"compression_numerator":38,"compression_bits":2.375},'
            '"oracle":{"best_value":16,"optima_count":1,"partitions_searched":1,'
            '"optimal_assignments":[[0,0,0,0,0,0]]}}\n',
        ),
        (
            ("-k", "6", "--list", "3,1,2,2"),
            '{"instance":[3,1,2,2],"k":6,"objective":"max_min",'
            '"partition":{"k":6,"assignment":[0,0,0,0]},"subset_sums":[8,0,0,0,0,0],'
            '"report":{"min_diff":8,"min_max":8,"max_min":0,"entropy_bits":0.0,'
            '"min_entropy_bits":0.0,"product_of_sums":0,"product_overflow":false,'
            '"compression_numerator":16,"compression_bits":2.0},'
            '"oracle":{"best_value":0,"optima_count":15,"partitions_searched":15,'
            '"optimal_assignments":[[0,0,0,0],[0,0,0,1],[0,0,1,0],[0,0,1,1],'
            "[0,0,1,2],[0,1,0,0],[0,1,0,1],[0,1,0,2],[0,1,1,0],[0,1,1,1],"
            '[0,1,1,2],[0,1,2,0],[0,1,2,1],[0,1,2,2],[0,1,2,3]]}}\n',
        ),
        (
            ("-k", "2", "--list", NEAR_TIE),
            '{"instance":[1099511627776,1099511627775,1099511627774,'
            '1099511627773,1099511627771,1099511627769],"k":2,"objective":"max_min",'
            '"partition":{"k":2,"assignment":[0,1,0,1,1,0]},'
            '"subset_sums":[3298534883319,3298534883319],'
            '"report":{"min_diff":0,"min_max":3298534883319,"max_min":3298534883319,'
            '"entropy_bits":1.0,"min_entropy_bits":1.0,'
            '"product_of_sums":10880332376472288944455761,"product_overflow":true,'
            '"compression_numerator":10995116277725,'
            '"compression_bits":1.6666666666659087},'
            '"oracle":{"best_value":3298534883319,"optima_count":1,'
            '"partitions_searched":32,"optimal_assignments":[[0,1,0,1,1,0]]}}\n',
        ),
        (
            ("-k", "3", "--list", NEAR_TIE),
            '{"instance":[1099511627776,1099511627775,1099511627774,'
            '1099511627773,1099511627771,1099511627769],"k":3,"objective":"max_min",'
            '"partition":{"k":3,"assignment":[0,1,2,1,2,0]},'
            '"subset_sums":[2199023255545,2199023255548,2199023255545],'
            '"report":{"min_diff":3,"min_max":2199023255548,"max_min":2199023255545,'
            '"entropy_bits":1.5849625007211472,'
            '"min_entropy_bits":1.5849625007198398,'
            '"product_of_sums":10633823966192284324218434079105744700,'
            '"product_overflow":true,"compression_numerator":6597069766638,'
            '"compression_bits":1.0},'
            '"oracle":{"best_value":2199023255545,"optima_count":2,'
            '"partitions_searched":122,'
            '"optimal_assignments":[[0,1,2,1,2,0],[0,1,2,2,1,0]]}}\n',
        ),
    ],
    ids=["k1", "k-past-n", "near-tie-k2", "near-tie-k3"],
)
def test_oracle_max_min_exact_json(capsys, args, expected):
    code, out, _ = run(capsys, "oracle", *args, "--objective", "max_min", "--json")
    assert code == 0
    assert out == expected


# recorded human output of kpart oracle; the second instance has more optima
# than the ten it lists
ORACLE_HUMAN = {
    (WORKED, "compression"): """\
instance: 1 1 2 3 4 5 (n=6, M=16)
method: oracle, k=2, objective=compression
best value 22 over 32 partitions; 3 optimal
group 0: 1 1 2 3 (sum 7)
group 1: 4 5 (sum 9)
L(X|A) = 22/16 = 1.375
H(A) = 0.988699 bits, H_inf(A) = 0.830075 bits
min_diff = 2, min_max = 9, max_min = 7, product_of_sums = 63
optimal assignments:
  [0, 0, 0, 0, 1, 1]
  [0, 0, 0, 1, 0, 1]
  [0, 0, 0, 1, 1, 0]
""",
    ("5,5,5,5,5,5,5", "min_max"): """\
instance: 5 5 5 5 5 5 5 (n=7, M=35)
method: oracle, k=2, objective=min_max
best value 20 over 64 partitions; 35 optimal
group 0: 5 5 5 5 (sum 20)
group 1: 5 5 5 (sum 15)
L(X|A) = 65/35 = 1.85714
H(A) = 0.985228 bits, H_inf(A) = 0.807355 bits
min_diff = 5, min_max = 20, max_min = 15, product_of_sums = 300
optimal assignments:
  [0, 0, 0, 0, 1, 1, 1]
  [0, 0, 0, 1, 0, 1, 1]
  [0, 0, 0, 1, 1, 0, 1]
  [0, 0, 0, 1, 1, 1, 0]
  [0, 0, 0, 1, 1, 1, 1]
  [0, 0, 1, 0, 0, 1, 1]
  [0, 0, 1, 0, 1, 0, 1]
  [0, 0, 1, 0, 1, 1, 0]
  [0, 0, 1, 0, 1, 1, 1]
  [0, 0, 1, 1, 0, 0, 1]
  ... and 25 more
""",
}


@pytest.mark.parametrize("weights, objective", list(ORACLE_HUMAN))
def test_oracle_human_output(capsys, weights, objective):
    code, out, err = run(
        capsys, "oracle", "-k", "2", "--objective", objective, "--list", weights
    )
    assert (code, err) == (0, "")
    assert out == ORACLE_HUMAN[weights, objective]


# recorded output of the README's two oracle examples, which read their
# optima from brute_force's packed sequence; test_oracle_human_output holds
# the human output of the first
README_ORACLE = {
    ("oracle", "-k", "2", "--list", WORKED, "--objective", "compression", "--json"): (
        '{"instance":[1,1,2,3,4,5],"k":2,"objective":"compression",'
        '"partition":{"k":2,"assignment":[0,0,0,0,1,1]},"subset_sums":[7,9],'
        '"report":{"min_diff":2,"min_max":9,"max_min":7,"entropy_bits":0.9886994082884977,'
        '"min_entropy_bits":0.8300749985576878,"product_of_sums":63,'
        '"product_overflow":false,"compression_numerator":22,"compression_bits":1.375},'
        '"oracle":{"best_value":22,"optima_count":3,"partitions_searched":32,'
        '"optimal_assignments":[[0,0,0,0,1,1],[0,0,0,1,0,1],[0,0,0,1,1,0]]}}\n'
    ),
    ("solve", "-k", "2", "--list", WORKED, "--objective", "entropy", "--oracle"): """\
instance: 1 1 2 3 4 5 (n=6, M=16)
method: oracle, k=2, objective=entropy
group 0: 1 1 2 4 (sum 8)
group 1: 3 5 (sum 8)
L(X|A) = 22/16 = 1.375
H(A) = 1 bits, H_inf(A) = 1 bits
min_diff = 0, min_max = 8, max_min = 8, product_of_sums = 64
""",
    ("solve", "-k", "2", "--list", WORKED, "--objective", "entropy", "--oracle", "--json"): (
        '{"instance":[1,1,2,3,4,5],"k":2,"objective":"entropy",'
        '"partition":{"k":2,"assignment":[0,0,0,1,0,1]},"subset_sums":[8,8],'
        '"report":{"min_diff":0,"min_max":8,"max_min":8,"entropy_bits":1.0,'
        '"min_entropy_bits":1.0,"product_of_sums":64,"product_overflow":false,'
        '"compression_numerator":22,"compression_bits":1.375}}\n'
    ),
}


@pytest.mark.parametrize("argv", list(README_ORACLE), ids=["oracle-json", "solve", "solve-json"])
def test_readme_oracle_examples_are_byte_identical(capsys, argv):
    assert run(capsys, *argv) == (0, README_ORACLE[argv], "")


@pytest.mark.parametrize(
    "argv", [("solve", "-k", "4", "--json"), ("trace", "-k", "2")], ids=["json", "human"]
)
def test_a_reader_that_stops_early_gets_exit_141(tmp_path, argv):
    # either output outgrows a pipe's buffer, so writing goes on after the
    # reader has closed its end, as under `| head -c 20`
    rng = random.Random("cli:closed-pipe")
    path = tmp_path / "weights.txt"
    path.write_text("\n".join(str(rng.randint(1, 1 << 40)) for _ in range(2000)))
    env = dict(os.environ, PYTHONPATH=str(Path(kpart.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kpart.cli", *argv, "--file", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    assert len(head) == 20
    assert head.startswith(b'{"instance":[' if argv[0] == "solve" else b"(")


def test_oracle_command_respects_size_guard(capsys):
    code, _, err = run(
        capsys, "oracle", "-k", "2", "--list", " ".join(["3"] * 15), "--json"
    )
    assert code == 3
    assert "error:" in err


# the streamed arrays are cut into chunks of this many items in the tests
# below, so that instances of a few elements cross every chunk boundary
TEST_CHUNK = 4


def _reference_json(command, mode, objective, ws, k) -> str:
    """The --json line, from a dict built here and one json.dumps call."""
    inst = Instance(tuple(ws))
    trace = res = None
    if command == "oracle" or mode == "--oracle":
        res = brute_force(inst, k, objective)
        part = res.optimal_partitions[0]
    elif mode == "--greedy":
        part = greedy_baseline(inst, k)
    else:
        part, trace = stopped_huffman(inst, k)
    rep = evaluate(inst, part)
    obj = {
        "instance": list(ws),
        "k": k,
        "objective": objective,
        "partition": {"k": k, "assignment": list(part.assignment)},
        "subset_sums": list(rep.subset_sums),
        "report": rep.to_json_dict(),
    }
    if trace is not None:
        steps = [[a, b, m] for a, b, m in trace.steps]
        obj["trace"] = {"steps": steps, "final_list": list(trace.final_list)}
    if command == "oracle":
        obj["oracle"] = {
            "best_value": res.best_value,
            "optima_count": len(res.optimal_partitions),
            "partitions_searched": res.partitions_searched,
            "optimal_assignments": [list(p.assignment) for p in res.optimal_partitions],
        }
    return json.dumps(obj, separators=(",", ":")) + "\n"


STREAMED = [
    ("solve", None, "compression"),
    ("trace", None, "compression"),
    ("solve", "--greedy", "min_diff"),
    ("solve", "--oracle", "entropy"),
    ("oracle", None, "min_max"),
    ("oracle", None, "product_of_sums"),
]


@pytest.mark.parametrize("command, mode, objective", STREAMED, ids=lambda v: str(v))
@pytest.mark.parametrize("n", [TEST_CHUNK - 1, TEST_CHUNK, TEST_CHUNK + 1, 2 * TEST_CHUNK + 1])
@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_streamed_json_equals_one_json_dumps(
    monkeypatch, capsys, command, mode, objective, n, k
):
    # weights at both ends of the range: at k = 2 and 3 the product of the
    # sums passes 2^63; a run of equal weights gives the oracle ties, so
    # its optima cross chunk boundaries too
    monkeypatch.setattr(cli, "_CHUNK", TEST_CHUNK)
    rng = random.Random(f"cli:stream:{n}:{k}")
    ws = [rng.choice((1, 2, 3, MAX_WEIGHT - 1, MAX_WEIGHT)) for _ in range(n)]
    argv = [command, "-k", str(k), "--list", ",".join(map(str, ws)), "--json"]
    if command != "trace":
        argv += ["--objective", objective]
    if mode is not None:
        argv.append(mode)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == _reference_json(command, mode, objective, ws, k)


def test_streamed_json_pins_its_edge_cases(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_CHUNK", TEST_CHUNK)
    # n <= k: no merge runs, so the steps array is empty
    _, out, _ = run(capsys, "solve", "-k", "5", "--list", "3,1,2", "--json")
    assert '"trace":{"steps":[],"final_list":[1,2,3]}}' in out
    # 2 * TEST_CHUNK + 1 weights at the top of the range, and their steps
    ws = [MAX_WEIGHT] * (2 * TEST_CHUNK + 1)
    _, out, _ = run(capsys, "trace", "-k", "2", "--list", ",".join(map(str, ws)), "--json")
    payload = json.loads(out)
    assert payload["instance"] == ws
    assert payload["report"]["product_overflow"] is True
    assert payload["report"]["product_of_sums"] > 1 << 63
    assert [s[2] for s in payload["trace"]["steps"]][:3] == [2 * MAX_WEIGHT] * 3
    # seven 5s at k = 2 have 35 min_max optima: nine chunks of at most four
    argv = ("oracle", "-k", "2", "--list", "5,5,5,5,5,5,5", "--objective", "min_max")
    _, out, _ = run(capsys, *argv, "--json")
    rows = json.loads(out)["oracle"]["optimal_assignments"]
    assert len(rows) == 35 and rows[0] == [0, 0, 0, 0, 1, 1, 1]
    assert out == _reference_json("oracle", None, "min_max", [5] * 7, 2)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("solve", "-k", "2", "--list", "1,2,x", "--json"), 2),
        (("oracle", "-k", "2", "--list", " ".join(["3"] * 15), "--json"), 3),
    ],
    ids=["bad-token", "size-guard"],
)
def test_an_error_exit_prints_no_json(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ")


def test_an_error_while_rendering_prints_no_json(monkeypatch, capsys):
    # the small values are rendered before the first array is written
    def fail(self):
        raise kpart.InputError("cannot render")

    monkeypatch.setattr(ObjectiveReport, "to_json_dict", fail)
    assert run(capsys, "solve", "-k", "2", "--list", WORKED, "--json") == (
        2, "", "error: cannot render\n"
    )


def test_file_input_with_comments(tmp_path, capsys):
    f = tmp_path / "weights.txt"
    f.write_text("# fixture\n1, 1 2 # inline\n3\n4 5\n")
    code, out, _ = run(capsys, "solve", "-k", "2", "--file", str(f), "--json")
    assert code == 0
    assert json.loads(out)["instance"] == [1, 1, 2, 3, 4, 5]


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "solve", "-k", "2", "--file", "/nonexistent/w.txt")
    assert code == 2
    assert "error:" in err


def test_no_instance_is_an_input_error(capsys):
    code, _, err = run(capsys, "solve", "-k", "2")
    assert code == 2
    assert "--list or --file" in err


def test_zero_weight_exits_two(capsys):
    code, _, err = run(capsys, "solve", "-k", "2", "--list", "1 0 2")
    assert code == 2
    assert "positive" in err


def test_bad_k_exits_two(capsys):
    code, _, _ = run(capsys, "solve", "-k", "0", "--list", WORKED)
    assert code == 2


def test_oversized_weight_exits_three(capsys):
    code, _, err = run(capsys, "solve", "-k", "2", "--list", str(1 << 41))
    assert code == 3
    assert "limit" in err


SEVENS = "7" * 5000


@pytest.mark.parametrize(
    "token, code, err",
    [
        (SEVENS, 3, f"error: weight {SEVENS} exceeds the limit of {1 << 40}\n"),
        ("-" + SEVENS, 2, f"error: weights must be positive, got -{SEVENS}\n"),
        ("0" * 5000 + "5", 0, ""),
    ],
    ids=["over-limit", "negative", "leading-zeros"],
)
def test_a_token_past_the_digit_limit_exits_by_its_value(capsys, token, code, err):
    got = run(capsys, "solve", "-k", "2", "--list", f"1,{token}", "--json")
    assert got[0] == code
    assert got[2] == err
    if code == 0:
        assert json.loads(got[1])["instance"] == [1, 5]


@pytest.mark.parametrize(
    "argv, k",
    [
        (("solve", "--list", "1,2"), 1 << 40),
        # the greedy heap holds k entries: at 2^40 it would exhaust memory
        # wherever the bound is missing
        (("solve", "--greedy", "--list", "1,2"), (1 << 20) + 1),
        (("solve", "--oracle", "--list", "1,2"), 1 << 40),
        (("trace", "--list", "1,2"), 1 << 40),
        (("oracle", "--list", "1,2"), 1 << 40),
        (("verify", "--list", "1,2"), 1 << 40),
        (("bench", "--max-n", "1024"), 1 << 40),
    ],
    ids=["solve", "greedy", "oracle-flag", "trace", "oracle", "verify", "bench"],
)
def test_k_above_the_element_limit_exits_three(capsys, argv, k):
    # solve and trace once ended in a MemoryError traceback, exit 1
    code, out, err = run(capsys, *argv, "-k", str(k))
    assert code == 3
    assert out == ""
    assert err == f"error: k={k} exceeds the limit of {1 << 20}\n"


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5", "--max-n", "6")
    assert code == 0
    assert "all suites passed" in out


def test_verify_json_is_byte_identical(capsys):
    args = ("verify", "--trials", "4", "--max-n", "6", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True
    assert [s["name"] for s in payload["suites"]] == [
        "lemma2",
        "theorem1",
        "sandwich",
        "oracle_equivalence",
    ]


def test_verify_single_instance_mode(capsys):
    code, out, _ = run(capsys, "verify", "-k", "2", "--list", WORKED, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(s["violations"] == 0 for s in payload["suites"])


def test_verify_reports_violations_with_exit_one(monkeypatch, capsys):
    monkeypatch.setattr(
        "kpart.cli.verify_lemma2", lambda inst, k: Lemma2Report(3, 4, 10)
    )
    code, out, _ = run(capsys, "verify", "--trials", "2", "--max-n", "5")
    assert code == 1
    assert "FAIL" in out


def test_verify_reports_a_broken_sandwich_with_exit_one(monkeypatch, capsys):
    # H(X|A) past the code length breaks the sandwich on every case
    monkeypatch.setattr("kpart.cli.conditional_entropy", lambda inst, part: 1e9)
    code, out, _ = run(capsys, "verify", "--trials", "2", "--max-n", "5", "--json")
    assert code == 1
    payload = json.loads(out)
    suites = {s["name"]: s for s in payload["suites"]}
    assert suites["sandwich"] == {"name": "sandwich", "checks": 2, "violations": 2}
    assert payload["ok"] is False


def test_verify_rejects_corrupt_instance_file(tmp_path, capsys):
    f = tmp_path / "broken.txt"
    f.write_text("1 2 oops 4\n")
    code, _, err = run(capsys, "verify", "-k", "2", "--file", str(f))
    assert code == 2
    assert "error:" in err


def test_verify_rejects_tiny_max_n(capsys):
    code, _, _ = run(capsys, "verify", "--max-n", "2")
    assert code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("mode", [(), ("--list", WORKED)])
def test_verify_rejects_trials_below_one(capsys, trials, mode):
    # 0 once fell back to the full default suites, and -3 reported -3 checks
    code, out, err = run(capsys, "verify", "--trials", trials, "--json", *mode)
    assert code == 2
    assert out == ""
    assert err == "error: --trials must be at least 1\n"


@pytest.mark.parametrize("trials, checks", [("1", 1), ("1000", 56)])
def test_verify_trials_caps_recombinations_for_one_instance(capsys, trials, checks):
    # in sweep mode --trials counts instances per suite; for one instance it
    # caps theorem1's recombinations, of which this instance has 56
    args = ("verify", "-k", "3", "--list", "1,1,2,3,4,5,6", "--trials", trials)
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    suites = {s["name"]: s for s in json.loads(out)["suites"]}
    assert suites["theorem1"]["checks"] == checks
    assert suites["lemma2"]["checks"] == 1


# recorded before the sweep and the single-instance mode shared one copy of
# each suite; the second instance has n <= k, so lemma2 runs no check
@pytest.mark.parametrize(
    "args, expected",
    [
        (
            ("--seed", "0", "--trials", "3", "--max-n", "6"),
            '{"seed":0,"suites":[{"name":"lemma2","checks":3,"violations":0},'
            '{"name":"theorem1","checks":3,"violations":0},'
            '{"name":"sandwich","checks":3,"violations":0},'
            '{"name":"oracle_equivalence","checks":3,"violations":0}],"ok":true}\n',
        ),
        (
            ("-k", "4", "--list", "1,2,3"),
            '{"seed":0,"suites":[{"name":"lemma2","checks":0,"violations":0},'
            '{"name":"theorem1","checks":6,"violations":0},'
            '{"name":"sandwich","checks":2,"violations":0},'
            '{"name":"oracle_equivalence","checks":1,"violations":0}],"ok":true}\n',
        ),
    ],
)
def test_verify_exact_json(capsys, args, expected):
    code, out, _ = run(capsys, "verify", *args, "--json")
    assert code == 0
    assert out == expected


SWEEP_ONLY = "--seed and --max-n apply only to the seeded sweep"
INSTANCE_ONLY = "-k applies only with --list or --file"


@pytest.mark.parametrize(
    "args, message",
    [
        (("--list", WORKED, "--seed", "9"), SWEEP_ONLY),
        (("--list", WORKED, "--seed", "0"), SWEEP_ONLY),
        (("--list", WORKED, "--max-n", "8"), SWEEP_ONLY),
        # one mode's flag is refused before the other mode's bound is checked
        (("--list", WORKED, "--max-n", "2"), SWEEP_ONLY),
        (("-k", "3", "--trials", "2"), INSTANCE_ONLY),
        (("-k", "2", "--seed", "1"), INSTANCE_ONLY),
    ],
    ids=[
        "list-seed",
        "list-seed-0",
        "list-max-n",
        "list-max-n-2",
        "sweep-k",
        "sweep-k-seed",
    ],
)
def test_verify_refuses_flags_of_the_other_mode(capsys, args, message):
    # the other mode has no use for the flag, so it would be dropped silently
    code, out, err = run(capsys, "verify", *args, "--json")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_help_states_both_meanings_of_trials(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "instances per suite (default: full)" in help_text
    assert "with --list or --file, the most theorem1 recombinations" in help_text


def test_bench_rows_and_ratios(capsys):
    code, out, _ = run(capsys, "bench", "--max-n", "4096", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [row["n"] for row in payload["rows"]] == [1024, 2048, 4096]
    assert payload["rows"][0]["ratio"] is None
    assert all(row["ratio"] > 0 for row in payload["rows"][1:])
    assert all(row["seconds"] >= 0 for row in payload["rows"])


def test_bench_human_output(capsys):
    code, out, _ = run(capsys, "bench", "--max-n", "2048")
    assert code == 0
    header, *rows = [ln for ln in out.splitlines() if ln.strip()]
    assert header.split() == ["n", "seconds", "ratio"]
    assert len(rows) == 2


def test_bench_rejects_max_n_below_its_first_size(capsys):
    code, out, err = run(capsys, "bench", "--max-n", "1000")
    assert code == 2
    assert out == ""
    assert err == "error: --max-n must be at least 1024 for bench\n"


def test_bench_rejects_max_n_past_the_limit_before_any_work(monkeypatch, capsys):
    def fail(inst, k):
        raise AssertionError("bench timed a size before checking --max-n")

    monkeypatch.setattr("kpart.cli.stopped_huffman", fail)
    code, out, err = run(capsys, "bench", "--max-n", str(1 << 21))
    assert code == 3
    assert out == ""
    assert err == f"error: --max-n {1 << 21} exceeds the limit of {1 << 20}\n"
