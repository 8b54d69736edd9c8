"""One SHA-256 over the oracle's and the stopped Huffman solver's outputs.

Run it as ``python tests/digest.py`` on two trees: equal digests mean the
two give byte-identical results on every case below. It imports only kpart,
from this tree's ``src``, and the standard library, so any CPython the
package supports can run it without pytest, which does not collect it.

It covers:
- brute_force under all seven objectives, as (objective, best_value,
  partitions_searched, digits()), on 150 seeded instances with n <= 10 and
  k <= 6 (log-uniform weights, weights 1-6, and 2**40 less 0-12), on the
  ``oracle`` benchmark workload's instances for seeds 1-3, rounds 0-2,
  drawn as perfbench/run.py draws them, on its fixed near-2**40 instance
  at k = 2, and on 2**40 less 0-10 at k = 4;
- verify_lemma2 on each of those instances with n > k;
- verify_principle_of_optimality, with trials None and 3, on each with n <= 8;
- stopped_huffman's partition, trace cost and final list at n = 2**10 to
  2**12 and k in {1, 2, 16, 256}, on log-uniform weights and weights 1-6,
  and the stdout of ``kpart solve``, ``kpart solve --json`` and
  ``kpart trace --json`` on each of those instances and k;
- the stdout of ``kpart verify --seed 0 --json``.
"""

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpart import (  # noqa: E402
    MAX_WEIGHT,
    OBJECTIVES,
    Instance,
    brute_force,
    stopped_huffman,
    verify_lemma2,
    verify_principle_of_optimality,
)
from kpart.cli import main  # noqa: E402


def log_uniform(rng):
    return min(MAX_WEIGHT, int(2.0 ** rng.uniform(0.0, 40.0)))


def weights(rng, n, shape):
    if shape == 0:
        return [log_uniform(rng) for _ in range(n)]
    if shape == 1:
        return [rng.randint(1, 6) for _ in range(n)]
    return [MAX_WEIGHT - rng.randint(0, 12) for _ in range(n)]


def oracle_cases():
    rng = random.Random("digest:oracle")
    for i in range(150):
        n = rng.randint(1, 10)
        yield weights(rng, n, i % 3), rng.randint(1, 6)
    # the oracle workload's seeded shapes, as perfbench/run.py draws them
    for seed in (1, 2, 3):
        for round_no in range(3):
            rng = random.Random(f"oracle:{seed}:{round_no}")
            for n, k in ((12, 4), (13, 3)):
                yield [log_uniform(rng) for _ in range(n)], k
    yield [MAX_WEIGHT - d for d in (0, 1, 2, 3, 5, 7)], 2
    yield [MAX_WEIGHT - d for d in range(11)], 4


def records():
    for ws, k in oracle_cases():
        inst = Instance(tuple(ws))
        for objective in OBJECTIVES:
            res = brute_force(inst, k, objective)
            yield ws, k, objective, res.best_value, res.partitions_searched
            yield list(res.optimal_partitions.digits())
        if len(ws) > k:
            yield "lemma2", verify_lemma2(inst, k)
        if len(ws) <= 8:
            for trials in (None, 3):
                yield "theorem1", trials, verify_principle_of_optimality(inst, k, trials)
    rng = random.Random("digest:huffman")
    for n in (1 << 10, 1 << 11, 1 << 12):
        for shape in (0, 1):
            inst = Instance(tuple(weights(rng, n, shape)))
            for k in (1, 2, 16, 256):
                part, trace = stopped_huffman(inst, k)
                yield n, shape, k, part.assignment, trace.cost, trace.final_list
                listed = ",".join(map(str, inst.weights))
                for argv in (["solve"], ["solve", "--json"], ["trace", "--json"]):
                    yield stdout([*argv, "-k", str(k), "--list", listed])
    yield stdout(["verify", "--seed", "0", "--json"])


def stdout(argv):
    """The exit code and stdout of one kpart command, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def digest():
    h = hashlib.sha256()
    for record in records():
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
