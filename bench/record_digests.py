"""Record the reference digests in bench/digests.json.

    python3 bench/record_digests.py

Run from the repository root on the commit whose reports are the
reference.  Every job must finish with status ok and every requested
method must run; the canonical digest must be the same for every seed
in SEEDS, since seeds only rename vertices and reorder edge lines.
"""

from __future__ import annotations

import json
import os
import sys

from worker import check
from workloads import WORKLOADS, digest, jobs

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (0, 1)


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from artinkernels import cli

    refs: dict = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            for job in jobs(name, seed):
                report = cli.run(cli.JobConfig(text=job.text, methods=job.methods))
                report_json = report.to_json()
                got = digest(report_json, job.names)
                reason = check(job, report, report_json, got)
                if reason:
                    raise SystemExit(f"{name}/{job.slot}: {reason}")
                want = refs.setdefault(name, {}).setdefault(job.slot, got)
                if got != want:
                    raise SystemExit(f"{name}/{job.slot}: seed {seed} digest {got} "
                                     f"differs from {want}")
                print(f"{name}/{job.slot} seed {seed}: {got}", flush=True)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
