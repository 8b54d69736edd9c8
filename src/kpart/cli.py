"""Command-line front end: solve, trace, oracle, verify, and bench.

Exit codes: 0 success, 1 property violation (verify), 2 input error,
3 size-guard violation, 141 stdout closed by its reader before all output
was written, as in `kpart solve ... | head` (128 + SIGPIPE, the code a
shell gives a process that signal kills).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from bisect import bisect_left
from collections import Counter
from itertools import islice

from .core import (
    MAX_ELEMENTS,
    Instance,
    InputError,
    Partition,
    SizeLimitError,
    conditional_dist,
    parse_instance,
    subset_sums,
)
from .core import _int_text
from .entropy import conditional_entropy, shannon_entropy
from .huffman import build_huffman, expected_length_bits
from .objectives import compression_cost, evaluate
from .solver import (
    OBJECTIVES,
    brute_force,
    greedy_baseline,
    stopped_huffman,
    verify_lemma2,
    verify_principle_of_optimality,
)

_GROUP_DISPLAY_CAP = 40
_BENCH_RUNS = 3
# array items per write of the --json arrays that grow with n, and the
# string that marks their place in the dumped skeleton of the object
_CHUNK = 1 << 16
_HOLE = "\0"


# --- shared helpers ----------------------------------------------------


def _load_instance(args) -> Instance:
    if args.list is not None:
        return parse_instance(args.list)
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}") from exc
        return parse_instance(text)
    raise InputError("provide an instance with --list or --file")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _print_json(inst, k, objective, part, rep, trace=None, res=None) -> None:
    """Print solve's object, with the trace or the oracle's result, as one
    compact json.dumps line. The small values are dumped first, as a skeleton
    with a hole for each array that grows with n; each array then fills its
    hole _CHUNK items per write, so none is built whole, and an error before
    the first write leaves stdout empty."""
    obj = {
        "instance": _HOLE,
        "k": k,
        "objective": objective,
        "partition": {"k": k, "assignment": _HOLE},
        "subset_sums": rep.subset_sums,
        "report": rep.to_json_dict(),
    }
    labels = list(map(str, range(k)))  # a lookup costs a fifth of str()
    arrays = [map(str, inst.weights), map(labels.__getitem__, part.assignment)]
    if trace is not None:
        obj["trace"] = {"steps": _HOLE, "final_list": trace.final_list}
        arrays.append(map("[%d,%d,%d]".__mod__, trace.iter_steps()))
    if res is not None:
        opt = res.optimal_partitions
        obj["oracle"] = {
            "best_value": res.best_value,
            "optima_count": len(opt),
            "partitions_searched": res.partitions_searched,
            "optimal_assignments": _HOLE,
        }
        arrays.append(map("[%s]".__mod__, map(",".join, opt.digits())))
    texts = _dumps(obj).split(_dumps(_HOLE))
    write = sys.stdout.write
    write(texts[0])
    for items, text in zip(arrays, texts[1:]):
        write("[")
        sep = ""
        while chunk := ",".join(islice(items, _CHUNK)):
            write(sep + chunk)
            sep = ","
        write("]" + text)
    write("\n")


def _print_groups(inst, part, sums) -> None:
    """One line per label: member weights, or only their count past the cap."""
    counts = Counter(part.assignment)
    shown = {lbl: [] for lbl in range(part.k) if counts[lbl] <= _GROUP_DISPLAY_CAP}
    if shown:
        for w, lbl in zip(inst.weights, part.assignment):
            members = shown.get(lbl)
            if members is not None:
                members.append(str(w))
    for lbl in range(part.k):
        members = shown.get(lbl)
        if members is None:
            print(f"group {lbl}: {counts[lbl]} elements (sum {sums[lbl]})")
        else:
            print(f"group {lbl}: {' '.join(members)} (sum {sums[lbl]})")


def _print_report(inst, rep) -> None:
    print(f"L(X|A) = {rep.compression_numerator}/{inst.total} = {rep.compression_bits:.6g}")
    print(f"H(A) = {rep.entropy_bits:.6g} bits, H_inf(A) = {rep.min_entropy_bits:.6g} bits")
    line = (
        f"min_diff = {rep.min_diff}, min_max = {rep.min_max}, "
        f"max_min = {rep.max_min}, product_of_sums = {_int_text(rep.product_of_sums)}"
    )
    if rep.product_overflow:
        line += " (outside 64-bit range)"
    print(line)


def _instance_header(inst, k, objective, method) -> str:
    n = len(inst.weights)
    if n > _GROUP_DISPLAY_CAP:
        shown = f"{n} weights"
    else:
        shown = " ".join(str(w) for w in inst.weights)
    return f"instance: {shown} (n={n}, M={inst.total})\nmethod: {method}, k={k}, objective={objective}"


# --- solve --------------------------------------------------------------


def _cmd_solve(args) -> int:
    inst = _load_instance(args)
    k = args.k
    trace = None
    if args.oracle:
        res = brute_force(inst, k, args.objective)
        part = res.optimal_partitions[0]
        method = "oracle"
    elif args.greedy:
        part = greedy_baseline(inst, k)
        method = "greedy"
    elif args.objective == "compression":
        part, trace = stopped_huffman(inst, k)
        method = "stopped-huffman"
    else:
        raise InputError(
            f"objective {args.objective!r} has no direct solver; add --oracle or --greedy"
        )
    # the merge already summed the stopped-Huffman partition's cost
    rep = evaluate(inst, part, None if trace is None else trace.cost)
    if args.json:
        _print_json(inst, k, args.objective, part, rep, trace)
        return 0
    print(_instance_header(inst, k, args.objective, method))
    _print_groups(inst, part, rep.subset_sums)
    _print_report(inst, rep)
    return 0


# --- trace --------------------------------------------------------------


def _render_merge_lists(inst, trace):
    """Yield each intermediate sorted list with merged super-node values marked."""
    values = sorted(inst.weights)
    merged_flag = [False] * len(values)

    def fmt() -> str:
        cells = [f"*{v}*" if m else str(v) for v, m in zip(values, merged_flag)]
        return "(" + ", ".join(cells) + ")"

    yield fmt()
    for va, vb, vm in trace.iter_steps():
        for v in (va, vb):
            # merged nodes sit left of equal-valued leaves, so the leftmost
            # match is exactly what the merge loop consumed
            idx = bisect_left(values, v)
            del values[idx]
            del merged_flag[idx]
        idx = bisect_left(values, vm)
        values.insert(idx, vm)
        merged_flag.insert(idx, True)
        yield fmt()


def _cmd_trace(args) -> int:
    if args.json:
        # trace --json is solve --json: the parser gives trace solve's
        # compression defaults
        return _cmd_solve(args)
    inst = _load_instance(args)
    part, trace = stopped_huffman(inst, args.k)
    for line in _render_merge_lists(inst, trace):
        print(line)
    print("final groups:")
    _print_groups(inst, part, subset_sums(inst, part).sums)
    return 0


# --- oracle -------------------------------------------------------------


def _cmd_oracle(args) -> int:
    inst = _load_instance(args)
    res = brute_force(inst, args.k, args.objective)
    part = res.optimal_partitions[0]
    rep = evaluate(inst, part)
    if args.json:
        _print_json(inst, args.k, args.objective, part, rep, res=res)
        return 0
    print(_instance_header(inst, args.k, args.objective, "oracle"))
    print(
        f"best value {res.best_value} over {res.partitions_searched} partitions; "
        f"{len(res.optimal_partitions)} optimal"
    )
    _print_groups(inst, part, rep.subset_sums)
    _print_report(inst, rep)
    shown = res.optimal_partitions[:10]
    print("optimal assignments:")
    for p in shown:
        print(f"  {list(p.assignment)}")
    hidden = len(res.optimal_partitions) - len(shown)
    if hidden:
        print(f"  ... and {hidden} more")
    return 0


# --- verify -------------------------------------------------------------


def _small_cases(seed: int, tag: str, count: int, max_n: int):
    """count (instance, k) draws with 3 <= n <= max_n and 2 <= k <= min(4, n - 1)."""
    rng = random.Random(f"{seed}:{tag}")
    for _ in range(count):
        n = rng.randint(3, max_n)
        k = rng.randint(2, min(4, n - 1))
        yield Instance(tuple(rng.randint(1, 30) for _ in range(n))), k


def _sandwich_cases(seed: int, count: int, max_n: int):
    """count random (instance, partition) pairs, 1 <= n <= max_n and k <= 5."""
    rng = random.Random(f"{seed}:sandwich")
    for _ in range(count):
        n = rng.randint(1, max_n)
        k = rng.randint(1, 5)
        inst = Instance(tuple(rng.randint(1, 50) for _ in range(n)))
        yield inst, Partition(tuple(rng.randrange(k) for _ in range(n)), k)


def _tally(name: str, results) -> dict:
    """Suite row summing one (checks, violations) pair per case."""
    checks, violations = map(sum, zip((0, 0), *results))
    return {"name": name, "checks": checks, "violations": violations}


def _suite_lemma2(cases) -> dict:
    """Co-grouping lemma on each (instance, k) case, n > k."""
    return _tally("lemma2", ((1, not verify_lemma2(inst, k).ok) for inst, k in cases))


def _suite_theorem1(cases) -> dict:
    """Recombinations of entropic optima, per (instance, k, trials cap) case."""
    reps = (verify_principle_of_optimality(inst, k, t) for inst, k, t in cases)
    return _tally("theorem1", ((r.recombinations_checked, r.violations) for r in reps))


def _sandwiched(h: float, bits: float) -> bool:
    """h <= bits < h + 1, with 1e-9 of slack for float rounding."""
    return h <= bits + 1e-9 and bits - 1.0 < h + 1e-9


def _sandwich_holds(inst, part) -> bool:
    """The sandwich for H(X|A) and L(X|A), then for each nonempty group's code."""
    bits = compression_cost(inst, part) / inst.total
    if not _sandwiched(conditional_entropy(inst, part), bits):
        return False
    return all(
        _sandwiched(
            shannon_entropy(conditional_dist(inst, part, lbl)),
            expected_length_bits(build_huffman([inst.weights[e] for e in members])),
        )
        for lbl, members in enumerate(part.groups())
        if members
    )


def _suite_sandwich(cases) -> dict:
    """Entropy sandwich on each (instance, partition) case, overall and per group."""
    return _tally("sandwich", ((1, not _sandwich_holds(inst, p)) for inst, p in cases))


def _suite_oracle_equivalence(cases) -> dict:
    """Each (instance, stopped-Huffman partition) case costs the oracle's minimum."""
    costs = (
        (compression_cost(inst, p), brute_force(inst, p.k, "compression").best_value)
        for inst, p in cases
    )
    return _tally("oracle_equivalence", ((1, got != want) for got, want in costs))


def _cmd_verify(args) -> int:
    seed = 0 if args.seed is None else args.seed
    trials = args.trials
    max_n = args.max_n
    single = args.list is not None or args.file is not None
    if trials is not None and trials < 1:
        raise InputError("--trials must be at least 1")
    if single and (args.seed is not None or max_n is not None):
        raise InputError("--seed and --max-n apply only to the seeded sweep")
    if not single and args.k is not None:
        raise InputError("-k applies only with --list or --file")
    if max_n is not None and max_n < 3:
        raise InputError("--max-n must be at least 3")
    if single:
        inst = _load_instance(args)
        k = 2 if args.k is None else args.k
        suites = [
            _suite_lemma2([(inst, k)] if len(inst.weights) > k else []),
            _suite_theorem1([(inst, k, trials)]),
        ]
        part, _ = stopped_huffman(inst, k)
        suites.append(_suite_sandwich([(inst, part), (inst, greedy_baseline(inst, k))]))
        suites.append(_suite_oracle_equivalence([(inst, part)]))
    else:
        theorem1 = _small_cases(seed, "theorem1", trials or 30, max_n or 10)
        oracle = _small_cases(seed, "oracle", trials or 200, max_n or 10)
        suites = [
            _suite_lemma2(_small_cases(seed, "lemma2", trials or 200, max_n or 10)),
            _suite_theorem1((inst, k, None) for inst, k in theorem1),
            _suite_sandwich(_sandwich_cases(seed, trials or 1000, max_n or 12)),
            _suite_oracle_equivalence(
                (inst, stopped_huffman(inst, k)[0]) for inst, k in oracle
            ),
        ]
    ok = all(s["violations"] == 0 for s in suites)
    if args.json:
        print(_dumps({"seed": seed, "suites": suites, "ok": ok}))
    else:
        print(f"{'suite':<20} {'checks':>8} {'violations':>11}")
        for s in suites:
            print(f"{s['name']:<20} {s['checks']:>8} {s['violations']:>11}")
        print("all suites passed" if ok else "FAIL: property violations found")
    return 0 if ok else 1


# --- bench --------------------------------------------------------------


def _cmd_bench(args) -> int:
    import timeit  # here, so that no other command pays for its import

    top = args.max_n if args.max_n is not None else MAX_ELEMENTS
    if top < 1024:
        raise InputError("--max-n must be at least 1024 for bench")
    if top > MAX_ELEMENTS:
        raise SizeLimitError(f"--max-n {top} exceeds the limit of {MAX_ELEMENTS}")
    k = args.k
    rng = random.Random(f"{args.seed}:bench")
    rows = []
    prev = None
    for n in (1 << e for e in range(10, top.bit_length())):
        inst = Instance(tuple(rng.randint(1, 1 << 30) for _ in range(n)))
        # timeit holds the collector off, whose pauses would distort the ratios
        best = min(
            timeit.repeat(lambda: stopped_huffman(inst, k), repeat=_BENCH_RUNS, number=1)
        )
        ratio = None if prev is None else round(best / prev, 3)
        rows.append({"n": n, "seconds": round(best, 6), "ratio": ratio})
        prev = best
    if args.json:
        print(_dumps({"k": k, "seed": args.seed, "rows": rows}))
    else:
        print(f"{'n':>9} {'seconds':>10} {'ratio':>7}")
        for row in rows:
            ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
            print(f"{row['n']:>9} {row['seconds']:>10.6f} {ratio:>7}")
    return 0


# --- argument parsing ---------------------------------------------------


def _add_instance_args(p, objective=False) -> None:
    p.add_argument("-k", type=int, required=True, help="number of groups")
    p.add_argument("--list", help="inline instance, comma or whitespace separated")
    p.add_argument("--file", help="read the instance from a file ('#' comments)")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    if objective:
        p.add_argument(
            "--objective",
            choices=OBJECTIVES,
            default="compression",
            help="objective function (default: compression)",
        )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kpart",
        description="Multiway number partitioning under entropic and compression objectives.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="partition an instance under one objective")
    _add_instance_args(ps, objective=True)
    mode = ps.add_mutually_exclusive_group()
    mode.add_argument(
        "--oracle", action="store_true", help="exhaustive search, small instances only"
    )
    mode.add_argument(
        "--greedy", action="store_true", help="largest-first greedy baseline"
    )
    ps.set_defaults(func=_cmd_solve)

    pt = sub.add_parser("trace", help="show the merge lists of the stopped Huffman run")
    _add_instance_args(pt)
    pt.set_defaults(func=_cmd_trace, objective="compression", oracle=False, greedy=False)

    po = sub.add_parser("oracle", help="exhaustively optimize one objective")
    _add_instance_args(po, objective=True)
    po.set_defaults(func=_cmd_oracle)

    pv = sub.add_parser("verify", help="run the seeded property suites")
    pv.add_argument("-k", type=int, help="groups for --list or --file (default 2)")
    pv.add_argument("--list", help="verify this inline instance instead of the sweep")
    pv.add_argument("--file", help="verify the instance in this file")
    pv.add_argument("--json", action="store_true", help="emit one JSON object")
    pv.add_argument("--seed", type=int, help="suite seed, sweep only (default 0)")
    pv.add_argument(
        "--trials",
        type=int,
        help="instances per suite (default: full); with --list or --file, "
        "the most theorem1 recombinations to check (default: all)",
    )
    pv.add_argument(
        "--max-n", type=int, help="largest instance size per suite, sweep only"
    )
    pv.set_defaults(func=_cmd_verify)

    pb = sub.add_parser("bench", help="time stopped_huffman over doubling sizes")
    pb.add_argument("-k", type=int, default=16, help="number of groups (default 16)")
    pb.add_argument("--json", action="store_true", help="emit one JSON object")
    pb.add_argument("--seed", type=int, default=0, help="weight seed (default 0)")
    pb.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="largest size to time (default 1048576)",
    )
    pb.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing more can be written; stdout goes to os.devnull so the
        # flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
