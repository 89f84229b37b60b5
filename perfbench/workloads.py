"""Seeded workload inputs: model files on disk plus the op list to run.

An op is one CLI command, `{"argv": [...], "expect": {...}}`.  `expect`
holds the exit code and either the exact stdout (`text`) or, for generated
models, the model name and the status of every check (`statuses`); failing
rows must still carry a witness, whose value depends on the basis.

Runs on different seeds measure the same work: the seed changes the op order
of sparse_scale, and the bases and circle parameters of dense_stream, never
the mix of models or their sizes.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from models import CHECKS, Case, change_basis, direct_sum, random_unimodular
from worker import parse_statuses

WORKLOADS = ("catalog", "sparse_scale", "dense_stream")

# sparse_scale: round r takes the r-th pair of each dimension in both summand
# orders, six sums in a seeded order.  The seed does not pick the sums or the
# summand order: swapping the summands alone changes the cost of a check by
# up to 30%, which would make runs on different seeds measure different work.
SPARSE_PAIRS = {
    12: (("h4", "h9_corrected"), ("h8", "h4"), ("h9_corrected", "h8")),
    10: (("nil3_r", "h4"), ("h8", "abelian_c2"), ("h9_corrected", "torus_2_2")),
    8: (("nil3_r", "abelian_c2"), ("h4", "abelian_c1"), ("nil3_r", "torus_2_2")),
}
SPARSE_ROUNDS = 3  # the most a run can hold without repeating an input
# dense_stream: per round every catalog model in a fresh basis, a family op
# after every second model, and after the 5th model one of these dim-8 sums,
# taking turns by round
DENSE_SUMS = (("nil3_r", "nil3_r"), ("h4", "abelian_c1"))


def source_cases(docs: dict, golden: dict) -> dict:
    """Catalog models with the statuses recorded in the golden oracle."""
    cases = {}
    for name, doc in docs.items():
        statuses = parse_statuses(golden["entries"][name]["check"]["text"])[1]
        cases[name] = Case(doc, {c: statuses.get(c, "skipped") for c in CHECKS})
    return cases


def _write(workdir: str, case: Case) -> str:
    path = os.path.join(workdir, f"{case.doc['name']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case.doc, fh)
    return path


def check_op(workdir: str, case: Case) -> dict:
    code = 1 if "fail" in case.expected.values() else 0
    return {
        "argv": ["check", _write(workdir, case)],
        "expect": {"code": code, "name": case.doc["name"], "statuses": dict(case.expected)},
    }


def family_op(t: Fraction, golden: dict) -> dict:
    """`family nil3_r --t=<t>`; its text is the golden t=1/2 text at point t."""
    cos, sin = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    lines = golden["family"]["text"].splitlines(keepends=True)
    head = f"family member of nil3_r at t={t} (cos = {cos}, sin = {sin})\n"
    return {"argv": ["family", "nil3_r", f"--t={t}"],
            "expect": {"code": 0, "text": head + "".join(lines[1:])}}


def catalog_ops(workdir: str, docs: dict, golden: dict) -> list:
    """One pass over the catalog: `check` on the exported file, then `show`."""
    ops = []
    for name, expected in golden["entries"].items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(docs[name]["text"])
        ops.append({"argv": ["check", path], "expect": expected["check"]})
        ops.append({"argv": ["catalog", "show", name], "expect": expected["show"]})
    return ops


def sparse_scale_cases(cases: dict, rng: random.Random, rounds: int) -> list:
    if rounds > SPARSE_ROUNDS:
        raise ValueError(f"sparse_scale has at most {SPARSE_ROUNDS} rounds of distinct inputs")
    out = []
    for r in range(rounds):
        pairs = [pair for dim in sorted(SPARSE_PAIRS) for pair in (SPARSE_PAIRS[dim][r], SPARSE_PAIRS[dim][r][::-1])]
        rng.shuffle(pairs)
        out += [direct_sum(cases[a], cases[b], name=f"{a}+{b}") for a, b in pairs]
    return out


def family_parameters(rng: random.Random, count: int) -> list:
    pool = sorted({Fraction(p, q) for p in range(-24, 25) for q in range(1, 25)})
    return rng.sample(pool, count)


def dense_stream_ops(workdir: str, cases: dict, golden: dict, rng: random.Random, rounds: int) -> list:
    names = list(golden["entries"])
    ts = iter(family_parameters(rng, rounds * len(names) // 2))
    ops = []
    for r in range(rounds):
        for k, name in enumerate(names):
            ops.append(check_op(workdir, _moved(cases[name], rng, f"{name}~{r}")))
            if k % 2 == 1:
                ops.append(family_op(next(ts), golden))
            if k == 4:
                a, b = DENSE_SUMS[r % len(DENSE_SUMS)]
                ops.append(check_op(workdir, _moved(direct_sum(cases[a], cases[b]), rng, f"{a}+{b}~{r}")))
    return ops


def _moved(case: Case, rng: random.Random, name: str) -> Case:
    p, p_inv = random_unimodular(case.dim, rng)
    return change_basis(case, p, p_inv, name)


def build(workload: str, seed: int, rounds: int, workdir: str, docs: dict, golden: dict) -> list:
    """The ops of one run: `rounds` rounds of the workload.

    docs maps each catalog entry to {"text": exported file, "doc": parsed}.
    A catalog round is one pass over the catalog; sparse_scale and
    dense_stream rounds are distinct inputs, so no input repeats in a run.
    """
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(seed)
    cases = source_cases({n: d["doc"] for n, d in docs.items()}, golden)
    if workload == "catalog":
        return catalog_ops(workdir, docs, golden) * rounds
    if workload == "sparse_scale":
        return [check_op(workdir, case) for case in sparse_scale_cases(cases, rng, rounds)]
    if workload == "dense_stream":
        return dense_stream_ops(workdir, cases, golden, rng, rounds)
    raise ValueError(f"unknown workload {workload!r}")
