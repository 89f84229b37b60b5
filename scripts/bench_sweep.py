"""Dimension sweep of `bornlab check`: where the time goes as n grows.

Cases: h4^(+k) for k = 1..4 (dims 6, 12, 18, 24) in two series, built by
`direct_sum`, `change_basis` and `random_unimodular` of perfbench/models.py:
"standard", the sum in the standard basis, whose operands are mostly zero
rows; and "seeded", the sum in the unimodular basis random_unimodular(n,
Random(k)), whose operands are dense.  Each run is a fresh interpreter, so
every cache starts cold, and records the CPU time of `parse_model` and of
`run_checks`, and each check's `elapsed_ms` from the JSON report.  Each run
probes the host's speed right before and right after its timed section with
the Fraction loop of perfbench/calm.py, and scales its times to that
module's reference speed as `calm.Pacer.scale` does, so a slow spell that
lasts the whole run is divided out rather than recorded.  The runs
are interleaved: run r of every case, then run r + 1, so a slow spell of the
host falls on all dims alike rather than on one.  Per case and per metric
the median of RUNS runs is kept: a scaled run errs both ways (a probe that
meets a short slow spell the timed section missed makes the run read too
fast), so the least run would keep the worst probe.  Per series and per
metric, the least-squares slope of log(time) against log(dim) over dims 12
to 24 is recorded.  The statuses are recorded too, so a sweep of broken
code reads as such.  One more cold run per case, untimed, counts the work
of parse_model and run_checks: `products`, the calls of Matrix.__mul__
with a Matrix operand plus each product a batch makes packed
(exact._packed_products), and `eliminations`, the calls of
exact._gauss_jordan, each wrapped in the child.  Counts do not depend on
the host, so they compare across commits where timings drift; CI fails a
sweep whose counts differ from the committed record.  No timing is gated.

    python3 scripts/bench_sweep.py [--out BENCH_sweep.json]
"""

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bornlab import catalog  # noqa: E402
from models import CHECKS, Case, change_basis, direct_sum, random_unimodular  # noqa: E402

RUNS = 5  # cold runs per case; the median is kept

# one cold run: the model text on stdin, one JSON line of timings on stdout,
# each at the reference speed of perfbench/calm.py by the probes that bracket them
CHILD = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
import calm
from bornlab.model import parse_model, render_report, run_checks
text = sys.stdin.read()
pacer = calm.Pacer()
before = pacer.read()
t0 = time.process_time()
model = parse_model(text)
t1 = time.process_time()
report = run_checks(model)
t2 = time.process_time()
after = pacer.read()
rows = json.loads(render_report(report, "json"))["results"]
def scaled(seconds):
    return pacer.scale(seconds, before, after)
print(json.dumps({"parse_s": scaled(t1 - t0), "run_checks_s": scaled(t2 - t1),
                  "checks_ms": {r["check"]: scaled(r["elapsed_ms"]) for r in rows},
                  "statuses": {r["check"]: r["status"] for r in rows}}))
"""


# one cold run, untimed: the model text on stdin, one JSON line on stdout
# with the Matrix products and the eliminations of parse_model and run_checks
COUNT_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:2]
from bornlab import exact
from bornlab.model import parse_model, run_checks
counts = {"products": 0, "eliminations": 0}
multiply, batch, eliminate = exact.Matrix.__mul__, exact._packed_products, exact._gauss_jordan
def counted_product(self, other):
    counts["products"] += isinstance(other, exact.Matrix)
    return multiply(self, other)
def counted_batch(xs, shared, right):
    out = batch(xs, shared, right)
    counts["products"] += 0 if out is None else len(xs)
    return out
def counted_elimination(a, ncols):
    counts["eliminations"] += 1
    return eliminate(a, ncols)
exact.Matrix.__mul__, exact._packed_products, exact._gauss_jordan = counted_product, counted_batch, counted_elimination
run_checks(parse_model(sys.stdin.read()))
print(json.dumps(counts))
"""


def sweep_cases():
    """(series, k, model document) of h4^(+k), k = 1..4, in the standard basis
    and in the basis random_unimodular(6k, Random(k))."""
    h4 = Case(json.loads(catalog.export_entry("h4")), {c: "pass" for c in CHECKS})
    total = h4
    for k in range(1, 5):
        if k > 1:
            total = direct_sum(total, h4, name=f"h4x{k}")
        yield "standard", k, total.doc
        p, p_inv = random_unimodular(total.dim, random.Random(k))
        yield "seeded", k, change_basis(total, p, p_inv, f"h4x{k}_seeded").doc


def cold_run(text: str, child: str = CHILD) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", child, str(ROOT / "src"), str(ROOT / "perfbench")],
        input=text, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def cpu_model() -> str:
    """The CPU model name where the platform reports one."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        return platform.processor() or "unknown"


def slope(points) -> float:
    """Least-squares slope of log(value) against log(dim)."""
    xs, ys = [math.log(d) for d, _ in points], [math.log(max(v, 1e-9)) for _, v in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_sweep.json"))
    args = parser.parse_args(argv)
    cases = list(sweep_cases())
    runs = {(name, k): [] for name, k, _ in cases}
    for _ in range(RUNS):
        for name, k, doc in cases:
            runs[name, k].append(cold_run(json.dumps(doc)))
    counts = {(name, k): cold_run(json.dumps(doc), COUNT_CHILD) for name, k, doc in cases}
    series = {}
    for name, k, doc in cases:
        done = runs[name, k]
        statuses = {json.dumps(r["statuses"], sort_keys=True) for r in done}
        assert len(statuses) == 1, f"{doc['name']}: statuses differ between runs"
        row = series.setdefault(name, {})[6 * k] = {
            "model": doc["name"],
            "parse_s": statistics.median(r["parse_s"] for r in done),
            "run_checks_s": statistics.median(r["run_checks_s"] for r in done),
            "checks_ms": {c: statistics.median(r["checks_ms"][c] for r in done) for c in done[0]["checks_ms"]},
            "statuses": done[0]["statuses"],
            **counts[name, k],
        }
        print(f"{name} dim {6 * k}: parse {row['parse_s']:.3f} s, run_checks {row['run_checks_s']:.3f} s, "
              f"{row['products']} products, {row['eliminations']} eliminations", file=sys.stderr)
    metrics = {"parse_s": lambda row: row["parse_s"], "run_checks_s": lambda row: row["run_checks_s"]}
    metrics.update({f"checks_ms.{c}": (lambda row, c=c: row["checks_ms"][c]) for c in CHECKS})
    doc = {
        "what": "cold-cache CPU time of parse_model and run_checks, and each check's elapsed_ms, "
                "on h4^(+k) in the standard basis and in seeded unimodular bases, each scaled to "
                "the reference speed of perfbench/calm.py by probes right before and after it; "
                "median of the runs, interleaved across cases; products (Matrix times Matrix, a "
                "packed batch counting one per product) and eliminations (exact._gauss_jordan) of "
                "parse_model and run_checks, counted in one more, untimed run",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": cpu_model(), "cpus": os.cpu_count()},
        "runs_per_case": RUNS,
        "series": {
            name: {
                "dims": {str(d): dims[d] for d in sorted(dims)},
                "loglog_slope_12_to_24": {
                    metric: round(slope([(d, read(dims[d])) for d in sorted(dims) if 12 <= d <= 24]), 2)
                    for metric, read in metrics.items()
                },
            }
            for name, dims in series.items()
        },
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
