"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py --workload W --seed S --mode setup|run|trace
                            [--spans PATH]

Imports artinkernels from ./src, generates and parses the inputs (asserting
FC type), then, unless --mode setup, runs every job through `cli.run` one at
a time, serializes the report and checks it: status ok, every requested
method ran, and the canonical report hashes to the reference digest.  The
last stdout line is a JSON object with CLOCK_MONOTONIC timestamps, so the
parent can measure set-up from the moment it spawned this process.

Before the first job and after each job the worker times `reference_kernel`,
fixed plain-Python arithmetic that does not call the package.  On a shared
host the speed one process gets swings by a third within seconds, moving a
job and the references around it alike, so each job is also reported as
its time over the mean of the two references that bracket it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

from spans import Tracer, install, summarize, write_spans
from workloads import digest, jobs

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def reference_kernel() -> None:
    """Fixed exact arithmetic of the kind the package does, in plain Python:
    Fraction elimination on a 30x30 matrix and integer polynomial products."""
    n = 30
    m = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i * j) % 5) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    a = [(i * 31) % 11 - 5 for i in range(300)]
    acc = [1]
    for _ in range(8):
        out = [0] * (len(acc) + len(a) - 1)
        for i, x in enumerate(acc):
            if x:
                for j, y in enumerate(a):
                    out[i + j] += x * y
        acc = out


def timed_reference() -> tuple:
    t0, c0 = time.monotonic(), time.process_time()
    reference_kernel()
    return time.monotonic() - t0, time.process_time() - c0


def check(job, report, report_json: str, ref: str | None) -> str | None:
    """Why the job failed, or None."""
    data = report.data
    if not data["status"]["ok"]:
        return f"status not ok: {data['status']}"
    for m in job.methods:
        entry = data["methods"].get(m)
        if entry is None or not entry.get("ran"):
            return f"method {m} did not run: {entry}"
    got = digest(report_json, job.names)
    if ref is None:
        return f"no reference digest (got {got})"
    if got != ref:
        return f"digest {got} differs from reference {ref}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from artinkernels import cli
    from artinkernels.graphs import is_fc_type

    todo = jobs(args.workload, args.seed)
    for job in todo:
        if not is_fc_type(cli.parse_input(job.text).graph):
            raise SystemExit(f"{job.slot} is not of FC type")
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        install(tracer)

    results = []
    refs = [timed_reference()]
    for job in todo:
        if tracer is not None:
            tracer.job = job.slot
        t0, c0 = time.monotonic(), time.process_time()
        try:
            report = cli.run(cli.JobConfig(text=job.text, methods=job.methods))
            report_json = report.to_json()
        except Exception:
            report = None
            reason = traceback.format_exc(limit=3)
        wall, cpu = time.monotonic() - t0, time.process_time() - c0
        refs.append(timed_reference())
        if report is not None:
            reason = check(job, report, report_json,
                           digests.get(args.workload, {}).get(job.slot))
        ref_wall = (refs[-2][0] + refs[-1][0]) / 2
        ref_cpu = (refs[-2][1] + refs[-1][1]) / 2
        results.append({"slot": job.slot, "wall_s": wall, "cpu_s": cpu,
                        "wall_ref": wall / ref_wall, "cpu_ref": cpu / ref_cpu,
                        "failure": reason})

    out = {"ready": ready, "jobs": results, "reference_s": [r[0] for r in refs],
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    for key in ("wall_s", "cpu_s", "wall_ref", "cpu_ref"):
        out[key] = sum(j[key] for j in results)
    if tracer is not None:
        out["trace"] = summarize(tracer.spans)
        out["trace"]["counts"] = dict(tracer.counts)
        out["trace"]["spans"] = len(tracer.spans)
        if args.spans:
            write_spans(tracer.spans, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
