"""One benchmark worker: a fresh interpreter running a closed loop of CLI ops.

Usage (started by run.py, never by hand):

    python3 -I perfbench/worker.py <src dir> <spawned-at> probe
    python3 -I perfbench/worker.py <src dir> <spawned-at> <job.json> <result.json>

<spawned-at> is the parent's time.perf_counter() just before the spawn; on
Linux that clock is system-wide, so the worker can report its own set-up
time: spawn until `bornlab.cli` is imported.  A probe stops there.

A job lists ops, each the argv of `bornlab.cli.main` plus the expected
outcome.  They are issued one at a time, in order, each starting when the
previous one returns; each op's stdout and stderr are captured and checked.
A job with a `probe_floor` times each op with a `calm.Pacer`: `latencies`
are then at the reference speed and `measured` holds them as measured.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def parse_statuses(text: str):
    """(model name, {check: status}, overall) of a text report, or None."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("model: ") or not lines[-1].startswith("overall: "):
        return None
    statuses = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) < 2:
            return None
        status = parts[1].lower()
        if status == "fail" and "witness (" not in line:
            return None
        statuses[parts[0]] = status
    return lines[0][len("model: "):], statuses, lines[-1][len("overall: "):].lower()


def is_correct(expect: dict, code: int, out: str) -> bool:
    if code != expect["code"]:
        return False
    if "text" in expect:
        return out == expect["text"]
    parsed = parse_statuses(out)
    if parsed is None:
        return False
    name, statuses, overall = parsed
    want_overall = "fail" if "fail" in expect["statuses"].values() else "pass"
    return name == expect["name"] and statuses == expect["statuses"] and overall == want_overall


def run(cli, ops: list, tracer=None, pacer=None) -> dict:
    """Run the ops in order; with a pacer, latencies are at the reference speed."""
    latencies, raw, cover = [], [], []
    failed = 0
    first_error = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
            tracer.op_self_ns = 0
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if pacer is not None:
                    pacer.begin()
                t0 = time.perf_counter()
                try:
                    code = cli.main(op["argv"])
                finally:
                    elapsed = time.perf_counter() - t0
                    if pacer is not None:  # the same op time, scaled
                        measured, elapsed = pacer.end()
                        raw.append(measured)
        except (Exception, SystemExit):
            code = None
            if first_error is None:
                first_error = f"{op['argv']}: {traceback.format_exc()}"
        latencies.append(elapsed)
        if tracer is not None:
            cover.append(tracer.op_self_ns / 1e9 / elapsed)
        if code is None or not is_correct(op["expect"], code, out.getvalue()):
            failed += 1
            if first_error is None:
                first_error = f"{op['argv']}: exit {code}, output:\n{out.getvalue()}{err.getvalue()}"
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    return {
        "latencies": latencies,
        "measured": raw,
        "failed": failed,
        "first_error": first_error,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "self_cover": cover,
    }


def main():
    src, spawned = sys.argv[1], float(sys.argv[2])
    sys.path.insert(0, src)
    import bornlab.cli as cli

    setup_s = time.perf_counter() - spawned
    if sys.argv[3] == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return
    with open(sys.argv[3], encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calm

    tracer = missing = pacer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    elif "probe_floor" in job:
        pacer = calm.Pacer(job["probe_floor"])
    host_ref = calm.fraction_loop(30000)
    result = run(cli, job["ops"], tracer, pacer)
    result["setup_s"] = setup_s
    result["host_ref_s"] = host_ref
    if pacer is not None:
        result["probe_floor"] = pacer.floor
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = missing
        result["spans"] = len(tracer.starts)
        result["spans_dropped"] = tracer.dropped
        tracer.dump(job["spans_path"])
    with open(sys.argv[4], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
