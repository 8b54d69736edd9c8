"""kpart benchmark: envelope CLI solves, oracle sweeps and verify suites.

Run from the repository root:

    python3 perfbench/run.py --workload envelope --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed before any timing; the program receives
only the generated file (CLI workloads) or weight tuples (oracle workloads).
Every output is checked against computations in reference.py. The last line
of standard output is one JSON object with "correct", "attempted", "failed"
and "metrics": the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. A record of the run, with interpreter,
CPU count and git revision, goes to .perfbench/BENCH_<workload>_seed<N>_trace<T>.json.
See README.md beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import reference as ref
from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MAX_WEIGHT = 1 << 40
INT64_MAX = (1 << 63) - 1

ENVELOPE_N = 1 << 20
ENVELOPE_K = 16

# seeded oracle shapes (n, k); every round also sweeps the fixed instance.
# No seeded shape has k = 2: the entropy-band fault trips on most seeded k = 2
# instances but not all, so counting it there would tie failures to the seed.
ORACLE_SHAPES = ((12, 4), (13, 3))
FAULT_WEIGHTS = tuple(MAX_WEIGHT - d for d in (0, 1, 2, 3, 5, 7))
FAULT_K = 2
ORACLE_CLASSES = {
    "compression": ("compression",),
    "entropy": ("entropy",),
    "balance": ("min_diff", "min_max", "max_min", "product_of_sums"),
}

# verify sweeps one fixed suite seed: its work varies by about 20% between
# suite seeds, far more than the change a regression bound has to catch
VERIFY_SEED = 0
VERIFY_SUITES = ("lemma2", "theorem1", "sandwich", "oracle_equivalence")
VERIFY_SIZES = {"lemma2": 200, "sandwich": 1000, "oracle_equivalence": 200}
VERIFY_ARGV = ["verify", "--seed", str(VERIFY_SEED), "--json"]

SETUP_REPS = 10
SETUP_MODULE = {"envelope": "kpart.cli", "oracle": "kpart", "verify": "kpart.cli"}
CLI_BOOT = "import sys\nfrom kpart.cli import main\nsys.exit(main())"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


class BenchError(Exception):
    """The benchmark cannot run here (no program to run, or it would not start)."""


class Run:
    """Counts, problems and figures gathered by one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.figures: dict[str, object] = {}

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


# --- inputs -----------------------------------------------------------


def log_uniform(rng: random.Random) -> int:
    """A weight whose base-2 logarithm is uniform over [0, 40]."""
    return min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0)))


def envelope_weights(seed: int) -> list[int]:
    rng = random.Random(f"envelope:{seed}")
    ws = [log_uniform(rng) for _ in range(ENVELOPE_N)]
    top, bottom = rng.sample(range(ENVELOPE_N), 2)
    ws[top] = MAX_WEIGHT  # both ends of the accepted weight range occur
    ws[bottom] = 1
    return ws


def write_instance(ws, path: Path, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# envelope instance, seed {seed}: {len(ws)} log-uniform weights\n")
        fh.write("\n".join(map(str, ws)))
        fh.write("\n")


def oracle_cases(kpart, seed: int, round_no: int) -> list[tuple[tuple[int, ...], object, int]]:
    """(weights, Instance, k) per seeded shape, then the fixed fault instance."""
    rng = random.Random(f"oracle:{seed}:{round_no}")
    shapes = [(tuple(log_uniform(rng) for _ in range(n)), k) for n, k in ORACLE_SHAPES]
    shapes.append((FAULT_WEIGHTS, FAULT_K))
    return [(ws, kpart.Instance(ws), k) for ws, k in shapes]


# --- program processes ------------------------------------------------


def run_program(argv, out_path: Path) -> tuple[int, float, float]:
    """Run the kpart console-script target; return exit code, wall s and peak RSS MB."""
    cmd = [sys.executable, "-c", CLI_BOOT, *argv]
    with open(out_path, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=ENV, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def measure_setup(module: str, reps: int, warm: bool = False) -> list[float]:
    """Wall times of fresh interpreters that only import the module."""
    cmd = [sys.executable, "-c", f"import {module}"]
    times = []
    for rep in range(reps + warm):
        t0 = perf_counter()
        rc = subprocess.run(cmd, env=ENV, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
        dt = perf_counter() - t0
        if rc != 0:
            raise BenchError(f"a fresh interpreter cannot import {module} from {SRC}")
        if rep or not warm:  # a warming start compiles bytecode, unmeasured
            times.append(dt)
    return times


def import_kpart():
    """Import the checkout's kpart in this process, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import kpart
    import kpart.cli

    if Path(kpart.__file__).resolve().parent != SRC / "kpart":
        raise BenchError(f"imported kpart from {kpart.__file__}, not from {SRC}")
    return kpart


# --- checks -----------------------------------------------------------


def balance_line(sums) -> str:
    prod = math.prod(sums)
    return (
        f"min_diff = {max(sums) - min(sums)}, min_max = {max(sums)}, "
        f"max_min = {min(sums)}, product_of_sums = {prod}"
    )


def check_human(run: Run, text: str, ws, cost: int, final) -> None:
    """Human-mode solve output against the heap reference."""
    n, total = len(ws), sum(ws)
    lines = text.splitlines()
    run.expect(
        lines[:2]
        == [
            f"instance: {n} weights (n={n}, M={total})",
            f"method: stopped-huffman, k={ENVELOPE_K}, objective=compression",
        ],
        "human: header lines",
    )
    groups = [
        re.fullmatch(r"group (\d+): (\d+) elements \(sum (\d+)\)", line)
        for line in lines
        if line.startswith("group ")
    ]
    if not run.expect(
        len(groups) == ENVELOPE_K and all(groups), "human: 16 group lines"
    ):
        return
    labels = [int(g[1]) for g in groups]
    counts = [int(g[2]) for g in groups]
    sums = [int(g[3]) for g in groups]
    run.expect(labels == list(range(ENVELOPE_K)), "human: group labels 0..15")
    run.expect(sum(counts) == n and min(counts) > 0, "human: groups cover n elements")
    run.expect(sorted(sums) == final, "human: group sums equal the heap's survivors")
    run.expect(
        any(line.startswith(f"L(X|A) = {cost}/{total} = ") for line in lines),
        "human: L(X|A) numerator equals the heap merge cost",
    )
    run.expect(
        any(line.startswith(balance_line(sums)) for line in lines),
        "human: balance objectives of the printed sums",
    )
    h = re.search(r"H\(A\) = (\S+) bits, H_inf\(A\) = (\S+) bits", text)
    if run.expect(h is not None, "human: entropy line"):
        want_h = float(ref.entropy_bits(sums, total))
        want_inf = math.log2(total) - math.log2(max(sums))
        run.expect(
            math.isclose(float(h[1]), want_h, rel_tol=1e-5)
            and math.isclose(float(h[2]), want_inf, rel_tol=1e-5),
            "human: H(A) and H_inf(A) to the printed 6 digits",
        )


def check_json(run: Run, text: str, ws, cost: int, final) -> None:
    """--json solve output against the heap reference and recomputed sums."""
    n, total, k = len(ws), sum(ws), ENVELOPE_K
    obj = json.loads(text)
    run.expect(
        set(obj)
        == {"instance", "k", "objective", "partition", "subset_sums", "report", "trace"},
        "json: top-level keys",
    )
    run.expect(obj["instance"] == ws, "json: instance echoes the input")
    run.expect(obj["k"] == k and obj["objective"] == "compression", "json: k and objective")
    part = obj["partition"]
    a = part["assignment"]
    if not run.expect(
        part["k"] == k and len(a) == n and set(a) == set(range(k)),
        "json: assignment covers n elements with 16 nonempty labels",
    ):
        return
    sums = ref.group_sums(ws, a, k)
    run.expect(obj["subset_sums"] == sums and sum(sums) == total, "json: subset sums")
    run.expect(sorted(sums) == final, "json: group sums equal the heap's survivors")
    rep = obj["report"]
    prod = math.prod(sums)
    run.expect(
        rep["compression_numerator"] == cost
        and rep["min_diff"] == max(sums) - min(sums)
        and rep["min_max"] == max(sums)
        and rep["max_min"] == min(sums)
        and rep["product_of_sums"] == prod
        and rep["product_overflow"] == (prod > INT64_MAX),
        "json: exact report values",
    )
    run.expect(
        ref.matches_best("entropy", ref.entropy_bits(sums, total), rep["entropy_bits"]),
        "json: entropy_bits",
    )
    run.expect(
        ref.score("compression", ws, a, k) == cost,
        "json: the assignment's own Huffman cost equals the heap merge cost",
    )
    steps = obj["trace"]["steps"]
    run.expect(len(steps) == n - k, "json: trace has n - k steps")
    run.expect(all(x + y == s for x, y, s in steps), "json: each step merges a + b")
    run.expect(sum(s for _, _, s in steps) == cost, "json: merged values sum to the cost")
    run.expect(obj["trace"]["final_list"] == final, "json: final_list equals the heap")


def check_verify(run: Run, text: str) -> None:
    obj = json.loads(text)
    run.expect(obj["seed"] == VERIFY_SEED and obj["ok"] is True, "verify: ok")
    suites = obj["suites"]
    run.expect(
        [s["name"] for s in suites] == list(VERIFY_SUITES), "verify: suite names"
    )
    for s in suites:
        run.expect(s["violations"] == 0, f"verify: {s['name']} violations")
        want = VERIFY_SIZES.get(s["name"])
        if want is None:  # theorem1 counts recombinations, not instances
            run.expect(s["checks"] > 0, f"verify: {s['name']} ran")
        else:
            run.expect(s["checks"] == want, f"verify: {s['name']} suite size")


def min_diff_optima(ws) -> set[tuple[int, ...]]:
    """Every two-block partition with the least |q1 - q2|, in canonical labels."""
    n, total = len(ws), sum(ws)
    best, opt = None, set()
    for mask in range(1 << (n - 1)):
        a = (0,) + tuple((mask >> i) & 1 for i in range(n - 1))
        q1 = sum(w for w, g in zip(ws, a) if g)
        d = abs(total - 2 * q1)
        if best is None or d < best:
            best, opt = d, {a}
        elif d == best:
            opt.add(a)
    return opt


def check_oracle(run: Run, ws, k: int, objective: str, res) -> bool:
    """One brute_force result; returns False for the k=2 entropy fault."""
    n = len(ws)
    run.expect(
        res.partitions_searched == ref.stirling_partitions(n, k),
        f"oracle n={n} k={k} {objective}: partitions searched",
    )
    assignments = [p.assignment for p in res.optimal_partitions]
    run.expect(
        len(assignments) == len(set(assignments)) > 0,
        f"oracle n={n} k={k} {objective}: distinct optima",
    )
    if objective == "compression":
        run.expect(
            res.best_value == ref.stopped_merge(ws, k)[0],
            f"oracle n={n} k={k}: compression best equals the heap merge cost",
        )
    for a in assignments:
        ok = len(a) == n and max(a) < k
        ok = ok and ref.matches_best(objective, ref.score(objective, ws, a, k), res.best_value)
        if not run.expect(ok, f"oracle n={n} k={k} {objective}: optimum {a} re-scores"):
            break
    if objective == "entropy" and k == 2:
        want = min_diff_optima(ws)
        got = set(assignments)
        if got != want:
            total = sum(ws)
            run.figures[f"fault_n{n}_k{k}"] = {
                "entropy_optima": len(got),
                "min_diff_optima": len(want),
                "their_min_diffs": sorted(
                    {abs(total - 2 * ref.group_sums(ws, a, 2)[1]) for a in got}
                ),
            }
            return False
    return True


# --- workloads, untraced ----------------------------------------------


def envelope_argvs(path: Path) -> dict[str, list[str]]:
    base = ["solve", "-k", str(ENVELOPE_K), "--file", str(path)]
    return {"solve": base, "solve_json": base + ["--json"]}


def envelope_checks(ws) -> dict:
    cost, final = ref.stopped_merge(ws, ENVELOPE_K)
    return {
        "solve": lambda run, text: check_human(run, text, ws, cost, final),
        "solve_json": lambda run, text: check_json(run, text, ws, cost, final),
    }


def run_rounds(run: Run, seconds: float, argvs, checks, out: Path) -> dict:
    """Run each command once per round, in fresh processes, until seconds are measured.

    The first output of each command is checked in full; later rounds must
    reproduce it byte for byte, as the CLI promises for identical command lines.
    """
    walls: dict[str, list[float]] = {name: [] for name in argvs}
    rss: dict[str, list[float]] = {name: [] for name in argvs}
    rounds: list[float] = []
    digests: dict[str, bytes] = {}
    while True:
        round_wall = 0.0
        for name, argv in argvs.items():
            rc, wall, peak = run_program(argv, out)
            run.attempted += 1
            round_wall += wall
            walls[name].append(wall)
            rss[name].append(peak)
            if rc != 0:
                run.failed += 1
                continue
            data = out.read_bytes()
            digest = hashlib.sha256(data).digest()
            if name not in digests:
                digests[name] = digest
                run.figures[f"{name}_stdout_bytes"] = len(data)
                checks[name](run, data.decode("utf-8"))
            else:
                run.expect(digest == digests[name], f"{name}: output differs between rounds")
            del data
        rounds.append(round_wall)
        if sum(rounds) >= seconds:
            break
    for name in argvs:
        run.figures[f"{name}_s"] = walls[name]
        run.figures[f"{name}_rss_mb"] = rss[name]
    return {"wall_s": statistics.median(rounds)}


def envelope(run: Run, seed: int, seconds: float) -> dict:
    ws = envelope_weights(seed)
    path = WORK / f"envelope_{seed}.txt"
    out = WORK / f"envelope_{seed}.out"
    write_instance(ws, path, seed)
    try:
        values = run_rounds(run, seconds, envelope_argvs(path), envelope_checks(ws), out)
    finally:
        path.unlink(missing_ok=True)
        out.unlink(missing_ok=True)
    return values


def verify(run: Run, seed: int, seconds: float) -> dict:
    out = WORK / f"verify_{seed}.out"
    try:
        return run_rounds(run, seconds, {"verify": VERIFY_ARGV}, {"verify": check_verify}, out)
    finally:
        out.unlink(missing_ok=True)


def sweep_round(brute_force, cases, times=None, searched=None) -> list:
    """Every objective on every case, one brute_force call at a time."""
    results = []
    for ws, inst, k in cases:
        for cls, objectives in ORACLE_CLASSES.items():
            for objective in objectives:
                t0 = perf_counter()
                res = brute_force(inst, k, objective)
                dt = perf_counter() - t0
                if times is not None:
                    times[cls] += dt
                    searched[cls] += res.partitions_searched
                results.append((ws, k, objective, res))
    return results


def check_round(run: Run, results) -> None:
    for ws, k, objective, res in results:
        run.attempted += 1
        if not check_oracle(run, ws, k, objective, res):
            run.failed += 1


def oracle(run: Run, seed: int, seconds: float) -> dict:
    kpart = import_kpart()
    times = dict.fromkeys(ORACLE_CLASSES, 0.0)
    searched = dict.fromkeys(ORACLE_CLASSES, 0)
    rounds: list[float] = []
    while True:
        cases = oracle_cases(kpart, seed, len(rounds))
        before = sum(times.values())
        results = sweep_round(kpart.brute_force, cases, times, searched)
        rounds.append(sum(times.values()) - before)
        # this process ran the sweeps; read before the checks allocate
        run.figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        check_round(run, results)
        del results
        if sum(rounds) >= seconds:
            break
    for cls in ORACLE_CLASSES:
        run.figures[f"oracle_{cls}_pps"] = searched[cls] / times[cls]
    run.figures["round_s"] = rounds
    return {"wall_s": statistics.median(rounds)}


# --- workloads, traced ------------------------------------------------


class _Discard:
    """A stdout stand-in for the untraced passes, whose output is not checked."""

    def write(self, s: str) -> int:
        return len(s)

    def flush(self) -> None:
        pass

    def flush(self) -> None:
        pass


def _timed(fn) -> tuple[object, float]:
    gc.collect()
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


def trace_between(tracer: Tracer, plain, traced):
    """Time plain(), traced() with the tracer installed, then plain() again.

    The first untraced pass also warms the process heap; overhead is taken
    against the second one, which runs in the same state as the traced pass.
    """
    _, first = _timed(plain)
    tracer.install()
    try:
        out, wall = _timed(traced)
    finally:
        tracer.restore()
    _, second = _timed(plain)
    return out, wall, (first, second)


def traced_cli(run: Run, argvs, checks) -> dict:
    """kpart.cli.main in this process: each argv untraced, traced, untraced."""
    kpart = import_kpart()
    tracer = Tracer()
    spans: dict[str, dict] = {}

    def plain():
        for argv in argvs.values():
            with redirect_stdout(_Discard()):
                kpart.cli.main(argv)

    def traced():
        outs = {}
        for name, argv in argvs.items():
            capture = io.StringIO()
            with redirect_stdout(capture):
                rc = kpart.cli.main(argv)  # the traced binding while installed
            outs[name] = (rc, capture.getvalue())
            spans[name] = tracer.snapshot()  # cumulative through this command
        return outs

    outs, wall, plain_walls = trace_between(tracer, plain, traced)
    out_bytes = 0
    for name, (rc, text) in outs.items():
        run.attempted += 1
        out_bytes += len(text.encode())
        if rc != 0:
            run.failed += 1
        else:
            checks[name](run, text)
    run.figures["spans_through"] = spans
    return finish_trace(run, tracer, wall, plain_walls, out_bytes)


def traced_oracle(run: Run, seed: int) -> dict:
    kpart = import_kpart()
    cases = oracle_cases(kpart, seed, 0)
    tracer = Tracer()

    def sweep():
        # looked up per pass, so the traced pass calls the traced binding
        return sweep_round(kpart.solver.brute_force, cases)

    results, wall, plain_walls = trace_between(tracer, sweep, sweep)
    check_round(run, results)
    return finish_trace(run, tracer, wall, plain_walls, 0)


def finish_trace(run: Run, tracer: Tracer, wall: float, plain_walls, out_bytes: int) -> dict:
    run.figures["spans"] = tracer.snapshot()
    run.figures["untraced_wall_s"] = plain_walls
    run.figures["self_time_sum_s"] = tracer.self_total()
    values = {
        "cli.stdout_bytes": out_bytes,
        "trace.wall_s": wall,
        "trace.overhead_pct": 100.0 * (wall / plain_walls[1] - 1.0),
    }
    for m in SPEC["per_layer"]:
        values.setdefault(m["name"], tracer.value(m["name"]))
    return values


def traced(run: Run, workload: str, seed: int) -> dict:
    if workload == "oracle":
        return traced_oracle(run, seed)
    if workload == "verify":
        return traced_cli(run, {"verify": VERIFY_ARGV}, {"verify": check_verify})
    ws = envelope_weights(seed)
    path = WORK / f"envelope_{seed}.txt"
    write_instance(ws, path, seed)
    try:
        return traced_cli(run, envelope_argvs(path), envelope_checks(ws))
    finally:
        path.unlink(missing_ok=True)


# --- record and result ------------------------------------------------


def git_rev() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    name = head[5:]
    try:
        return (git / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "kpart" / "__init__.py").is_file():
            raise BenchError(f"no kpart package under {SRC}")
        WORK.mkdir(exist_ok=True)
        run = Run()
        if args.trace:
            values = traced(run, args.workload, args.seed)
            spec = SPEC["per_layer"]
        else:
            # set-up is sampled before and after the rounds, so that one
            # slow or fast stretch of the machine does not decide it
            module = SETUP_MODULE[args.workload]
            setup = measure_setup(module, SETUP_REPS // 2, warm=True)
            workload = {"envelope": envelope, "oracle": oracle, "verify": verify}
            values = workload[args.workload](run, args.seed, args.seconds)
            setup += measure_setup(module, SETUP_REPS - SETUP_REPS // 2)
            values["setup_s"] = statistics.median(setup)
            spec = SPEC["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    correct = not run.problems
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": metrics,
        "figures": run.figures,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
