"""Benchmark of `bornlab` CLI commands, end to end and layer by layer.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Run from the repository root.  The inputs are generated from the seed into
.perfbench_work/ (removed afterwards).  A run is a fixed number of rounds of
the workload, in proportion to --seconds, so every run of a workload and
--seconds does the same work, on every seed and every commit.  A fresh
worker interpreter runs the ops as a closed loop: one client, one thread,
each op starting when the previous one returns.  Every op's exit code and
output are checked.

With --trace 0 one worker runs the ops and the timings are reported at the
reference speed of calm.py: each op's time is scaled, interval by interval,
by a probe of the vCPU it ran on, because on the shared VM the benchmark
was defined on the same ops measure anywhere from 1x to 2x from one minute
to the next.  Set-up time is probed in fresh interpreters before and after
the run, scaled the same way.  The last line of stdout is the JSON result
with the end-to-end metrics; the line before it holds details: the tail
percentile and the samples beyond it, the same timings as measured, worker
CPU and wait time, and host speed.

With --trace 1 a traced worker runs the ops once and the result carries the
per-layer metrics, as measured; an untraced worker then runs them again to
give trace.overhead_ratio.  Spans are written to
.perfbench_out/spans-<workload>.jsonl.  The first failed op, if any, is
printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calm  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SETUP_PROBES = 10  # before and again after the run, which spreads them in time
WORKER_TIMEOUT_S = 150
# rounds in a --seconds 40 run, scaled in proportion to --seconds; 10-17 s
# of op time at the reference speed
ROUNDS_AT_40S = {"catalog": 5, "sparse_scale": 1, "dense_stream": 4}
# op_tail_ms percentile per workload: the highest with at least ten samples
# beyond it in a --seconds 40 run (100, 6 and 64 ops; 100 is the maximum)
TAIL_PERCENTILE = {"catalog": 90, "sparse_scale": 100, "dense_stream": 84}


def spawn_worker(src: str, *args: str) -> subprocess.CompletedProcess:
    """Start a fresh interpreter on worker.py and wait for it to end."""
    argv = [sys.executable, "-I", os.path.join(HERE, "worker.py"), src]
    return subprocess.run(argv + [repr(time.perf_counter()), *args], capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, check=True)


def run_job(src: str, workdir: str, job: dict, tag: str) -> dict:
    job_path = os.path.join(workdir, f"{tag}-job.json")
    result_path = os.path.join(workdir, f"{tag}-result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    spawn_worker(src, job_path, result_path)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(latencies: list, percentile: float) -> tuple:
    """(nearest-rank percentile value, number of samples beyond it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def export_catalog(src: str) -> dict:
    sys.path.insert(0, src)
    from bornlab import catalog

    docs = {}
    for name, _ in catalog.list_entries():
        if catalog.get_entry(name).model is not None:
            text = catalog.export_entry(name)
            docs[name] = {"text": text, "doc": json.loads(text)}
    return docs


def probe_setup(src: str, pacer: calm.Pacer) -> tuple:
    """Set-up times of fresh interpreters, as measured and at the reference speed.

    Each child runs on the parent's vCPU, which is probed right before and
    right after it.
    """
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = pacer.pick()
        setup_s = json.loads(spawn_worker(src, "probe").stdout)["setup_s"]
        measured.append(setup_s)
        scaled.append(pacer.scale(setup_s, before, pacer.read()))
    return measured, scaled


def outcome(runs: list) -> dict:
    return {
        "attempted": sum(len(r["latencies"]) for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "first_error": next((r["first_error"] for r in runs if r["first_error"]), None),
    }


def timings(setups: list, lat: list, tail_pct: float) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_tail_ms": (tail(lat, tail_pct)[0] * 1000, "ms"),
    }


def end_to_end(src: str, ops: list, workdir: str, workload: str) -> tuple:
    pacer = calm.Pacer()
    pacer.calibrate()
    setup_measured, setup_scaled = probe_setup(src, pacer)
    run = run_job(src, workdir, {"ops": ops, "probe_floor": pacer.floor}, "run")
    more_measured, more_scaled = probe_setup(src, pacer)
    res = outcome([run])
    tail_pct = TAIL_PERCENTILE[workload]
    at_ref = timings(setup_scaled + more_scaled, run["latencies"], tail_pct)
    measured = timings(setup_measured + more_measured, run["measured"], tail_pct)
    metrics = {
        **at_ref,
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_ratio": (1 - res["failed"] / res["attempted"], "ratio"),
    }
    detail = {
        "ops": len(ops), "op_tail_percentile": tail_pct, "op_tail_beyond": tail(run["latencies"], tail_pct)[1],
        "failed_ratio": res["failed"] / res["attempted"],
        "as_measured": {name: value for name, (value, _) in measured.items()},
        "wall_s": run["wall_s"],
        "worker.cpu_s": run["cpu_s"],
        "worker.wait_s": run["wall_s"] - run["cpu_s"],
        "host.ref_s": run["host_ref_s"],
        "probe_floor_s": run["probe_floor"],
    }
    return metrics, detail, res


def per_layer(src: str, ops: list, workdir: str, spans_path: str) -> tuple:
    traced = run_job(src, workdir, {"ops": ops, "trace": True, "spans_path": spans_path}, "traced")
    plain = run_job(src, workdir, {"ops": ops}, "plain")
    metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
    cover = traced["self_cover"]
    metrics.update({
        "worker.cpu_s": (traced["cpu_s"], "s"),
        "worker.wait_s": (traced["wall_s"] - traced["cpu_s"], "s"),
        "host.ref_s": (traced["host_ref_s"], "s"),
        "trace.overhead_ratio": (traced["wall_s"] / plain["wall_s"], "ratio"),
        "trace.self_cover_max": (max(cover), "ratio"),
    })
    detail = {
        "ops": len(ops), "missing": traced["missing"], "spans": traced["spans"],
        "spans_dropped": traced["spans_dropped"], "spans_path": spans_path,
        "ops_self_over_op_time": sum(1 for c in cover if c > 1),
    }
    return metrics, detail, outcome([traced, plain])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bornlab", "cli.py")):
        print(f"error: no bornlab sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    rounds = max(1, round(ROUNDS_AT_40S[args.workload] * args.seconds / 40))
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        ops = build(args.workload, args.seed, rounds, workdir, export_catalog(src), golden)
        if args.trace:
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
            metrics, detail, res = per_layer(src, ops, workdir, spans_path)
        else:
            metrics, detail, res = end_to_end(src, ops, workdir, args.workload)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}\n{exc.stderr}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if res["first_error"]:
        print(f"first failed op: {res['first_error']}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": rounds, **detail}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
