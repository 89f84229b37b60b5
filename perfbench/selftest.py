"""Self-tests of the benchmark's generators and oracles.

    python3 perfbench/selftest.py [--seed N]     # from the repository root

1. The direct sum of nil3_r (whose Born structure is the circle-family point
   t = 0) and abelian_c1 reproduces the frozen h8 entry: brackets, and every
   tensor and subspace its Born and Kunneth structures use, entry for entry.
2. Every op of a `--seconds 40` run of every workload, built from the seed
   (default 1), gives the expected result when run through
   `bornlab.cli.main`: the catalog ops match the golden oracle byte for
   byte, and every generated model parses and meets the statuses derived
   for it.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import worker  # noqa: E402
from models import direct_sum  # noqa: E402
from workloads import WORKLOADS, build, source_cases  # noqa: E402


def _values(rows):
    return [[str(Fraction(v)) for v in row] for row in rows]


def h8_mismatches(docs: dict, golden: dict) -> list:
    cases = source_cases({n: d["doc"] for n, d in docs.items()}, golden)
    total = direct_sum(cases["nil3_r"], cases["abelian_c1"]).doc
    h8 = docs["h8"]["doc"]
    problems = []
    if total["dim"] != h8["dim"]:
        problems.append(f"dim {total['dim']} != {h8['dim']}")
    if sorted(map(str, total["brackets"])) != sorted(map(str, h8["brackets"])):
        problems.append(f"brackets {total['brackets']} != {h8['brackets']}")
    for kind in ("born", "kunneth"):
        mine = next(s for s in total["structures"] if s["type"] == kind)
        frozen = next(s for s in h8["structures"] if s["type"] == kind)
        if set(mine) != set(frozen):
            problems.append(f"{kind} roles {sorted(mine)} != {sorted(frozen)}")
            continue
        for role, ref in frozen.items():
            if role == "type":
                continue
            section = next(sec for sec in ("forms", "metrics", "endos", "subspaces") if ref in h8[sec])
            got, want = _values(total[section][mine[role]]), _values(h8[section][ref])
            if got != want:
                problems.append(f"{kind}.{role}: {got} != {want}")
    return problems


def op_failures(workload: str, seed: int, docs: dict, golden: dict, cli) -> tuple:
    workdir = os.path.join(os.getcwd(), ".perfbench_work", f"selftest-{workload}-{os.getpid()}")
    try:
        ops = build(workload, seed, bench.ROUNDS_AT_40S[workload], workdir, docs, golden)
        result = worker.run(cli, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return len(result["latencies"]), result["failed"], result["first_error"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from bornlab import cli

    docs = bench.export_catalog(src)
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    ok = True
    problems = h8_mismatches(docs, golden)
    print(f"h8 = nil3_r(t=0) + abelian_c1: {'PASS' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    ok = ok and not problems
    for workload in WORKLOADS:
        ran, failed, first_error = op_failures(workload, args.seed, docs, golden, cli)
        print(f"{workload} (seed {args.seed}): {ran - failed}/{ran} ops as expected")
        if failed:
            print(f"  first failure: {first_error}")
        ok = ok and not failed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
