"""Benchmark: time to a verified artinkernels module.

    python3 bench/run.py --workload clique|forest|big_weight|modp
                         --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of the workload is one fresh
interpreter (bench/worker.py) that imports the package from ./src, builds
the seeded inputs and runs them one job at a time through `cli.run`, so
every pass pays import and the package's lru_caches as a CLI user does.
Passes run one after another (a closed loop with one client) until the
next one would end after S seconds; set-up is also timed by launches that
stop after building the inputs.

The bounded time metrics are wall_ref and cpu_ref: each job's time over
the mean time of a fixed plain-Python reference kernel run just before and
just after it in the same process, summed over the pass (see worker.py).
On a shared host the speed one process gets swings by a third within
seconds; the reference moves with it, raw seconds do not cancel it.  Raw
seconds are printed alongside.

--trace 0 reports the end-to-end metrics, --trace 1 alternates untraced
and traced passes and reports per-layer metrics from the traced ones.
Every job is checked: status ok, every requested method ran, and the
report minus `timing` matches the reference digest in bench/digests.json.
Human-readable lines come first; the last stdout line is the JSON result.
A full report goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import LEFT_OUT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_LAUNCHES = 7
HARD_LIMIT_S = 170.0

END_TO_END = {
    "wall_ref": "ratio",
    "cpu_ref": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "verified_frac": "ratio",
}
SAMPLE_UNITS = {"wall_ref": "ratio", "cpu_ref": "ratio", "wall_s": "s", "cpu_s": "s",
                "reference_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _self(layer):
    return lambda t: t["layer_self_s"].get(layer, 0.0)


def _incl(fn):
    return lambda t: t["inclusive_s"].get(fn, 0.0)


def _calls(fn):
    return lambda t: t["calls"].get(fn, 0)


def _count(key):
    return lambda t: t["counts"].get(key, 0)


# per-layer metric -> (unit, value from a traced pass summary)
PER_LAYER = {
    "cli.self_s": ("s", _self("cli")),
    "graphs.self_s": ("s", _self("graphs")),
    "flag.self_s": ("s", _self("flag")),
    "flag.image_dims.calls": ("count", _calls("flag.image_dims")),
    "flag.simplices": ("count", _count("flag.simplices")),
    "linalg.self_s": ("s", _self("linalg")),
    "linalg.rank.calls": ("count", _calls("linalg.rank")),
    "linalg.rank.cells": ("count", _count("linalg.rank.cells")),
    "twisted.self_s": ("s", _self("twisted")),
    "twisted.twisted_boundary.calls": ("count", _calls("twisted.twisted_boundary")),
    "twisted.entries": ("count", _count("twisted.entries")),
    "smith.self_s": ("s", _self("smith")),
    "smith.boundary_smith_form.s": ("s", _incl("smith.boundary_smith_form")),
    "smith.smith_normal_form.s": ("s", _incl("smith.smith_normal_form")),
    "smith.decompose_torsion.s": ("s", _incl("smith.decompose_torsion")),
    "smith.taylor_block.calls": ("count", _calls("smith.taylor_block")),
    "smith.taylor_block.cells": ("count", _count("smith.taylor_block.cells")),
    "smith.candidates": ("count", _count("smith.candidates")),
    "laurent.self_s": ("s", _self("laurent")),
    "laurent.factor_invariant.s": ("s", _incl("laurent.factor_invariant")),
    "laurent.factor_invariant.calls": ("count", _calls("laurent.factor_invariant")),
    "laurent.taylor_at_root.s": ("s", _incl("laurent.taylor_at_root")),
    "laurent.taylor_at_root.calls": ("count", _calls("laurent.taylor_at_root")),
    "laurent.laurent_gcd.s": ("s", _incl("laurent.laurent_gcd")),
    "laurent.laurent_gcd.calls": ("count", _calls("laurent.laurent_gcd")),
    "spectral.self_s": ("s", _self("spectral")),
    "spectral.weighted_complex.s": ("s", _incl("spectral.weighted_complex")),
    "spectral.page_dims.s": ("s", _incl("spectral.page_dims")),
    "spectral.forest_fitting_h1.s": ("s", _incl("spectral.forest_fitting_h1")),
    "spectral.forest.budget_skips": (
        "count", _count("spectral.forest_fitting_h1.raised.ForestBudgetError")),
    "resonant.self_s": ("s", _self("resonant")),
    "trace.spans": ("count", lambda t: t["spans"]),
}


def tail_percentile(samples) -> tuple | None:
    """(percent, value) of the highest nearest-rank percentile that has at
    least ten samples above it, or None when there are fewer than 11."""
    xs = sorted(samples)
    k = len(xs) - 10
    if k < 1:
        return None
    return 100 * k // len(xs), xs[k - 1]


def git_revision(root: str) -> tuple:
    """(commit, dirty) of the checkout at root, from git itself so packed
    refs and uncommitted changes count; dirty is None when unknown.  Git
    is kept from looking above root or reading config outside it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)

    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", "-C", root, *args],
                              capture_output=True, text=True, env=env, timeout=20,
                              check=True).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)", None


class Runner:
    """Launches worker processes one at a time and keeps their results."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline

    def launch(self, mode: str, spans: str | None = None) -> dict:
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        timeout = max(1.0, self.deadline - time.monotonic())
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"mode": mode, "error": f"killed after {timeout:.0f} s",
                    "elapsed": time.monotonic() - spawn}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        elapsed = time.monotonic() - spawn
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"mode": mode, "error": f"exit {proc.returncode}: {err.strip()[-2000:]}",
                    "elapsed": elapsed}
        result = json.loads(lines[-1])
        result.update(mode=mode, elapsed=elapsed)
        if "ready" in result:
            result["setup_s"] = result["ready"] - spawn
        return result


def summarize_samples(samples) -> dict:
    tail = tail_percentile(samples)
    return {"median": statistics.median(samples), "n": len(samples),
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
            "samples": samples}


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "artinkernels", "cli.py")):
        print("error: src/artinkernels not found; run from the repository root",
              file=sys.stderr)
        return 2
    revision, dirty = git_revision(root)
    env = {
        "python": platform.python_version(),
        "git_revision": revision,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(args.workload, args.seed, t_start + HARD_LIMIT_S)

    warm = runner.launch("setup")  # writes bytecode caches; not a sample
    if "error" in warm:
        print(f"error: worker failed during set-up: {warm['error']}", file=sys.stderr)
        return 1
    measure_start = time.monotonic()
    setups = [runner.launch("setup") for _ in range(SETUP_LAUNCHES)]
    passes: list = []
    modes = ("run", "trace") if args.trace else ("run",)
    while True:
        done_modes = {p["mode"] for p in passes}
        if passes and done_modes >= set(modes):
            longest = max(p["elapsed"] for p in passes)
            if time.monotonic() - measure_start + longest > args.seconds:
                break
        mode = modes[len(passes) % len(modes)]
        spans = os.path.join(OUT, f"spans-{tag}-pass{len(passes)}.jsonl") \
            if mode == "trace" else None
        passes.append(runner.launch(mode, spans))
        if "error" in passes[-1] or time.monotonic() > runner.deadline:
            break

    w = WORKLOADS[args.workload]
    failures = []
    for i, p in enumerate(passes):
        if "error" in p:
            failures += [{"pass": i, "slot": slot.id, "reason": p["error"]}
                         for slot in w.slots]
        else:
            failures += [{"pass": i, "slot": j["slot"], "reason": j["failure"]}
                         for j in p["jobs"] if j["failure"]]
    attempted = len(w.slots) * len(passes)
    failed = len(failures)
    failures += [{"pass": "setup", "slot": "*", "reason": s["error"]}
                 for s in setups if "error" in s]

    good = [p for p in passes if "error" not in p]
    untraced = [p for p in good if p["mode"] == "run"]
    traced = [p for p in good if p["mode"] == "trace"]
    samples = {key: [p[key] for p in untraced]
               for key in ("wall_ref", "cpu_ref", "wall_s", "cpu_s")}
    samples["reference_s"] = [r for p in untraced for r in p["reference_s"]]
    samples["peak_rss_mb"] = [p["peak_rss_kb"] / 1024 for p in untraced]
    samples["setup_s"] = [p["setup_s"] for p in setups + good if "error" not in p]
    stats = {k: summarize_samples(v) for k, v in samples.items() if v}
    verified = (attempted - failed) / attempted if attempted else 0.0

    if args.trace:
        metrics = {}
        for name, (unit, get) in PER_LAYER.items():
            vals = [get(p["trace"]) for p in traced]
            metrics[name] = {"value": statistics.median(vals) if vals else 0.0,
                             "unit": unit}
        if untraced and traced:
            overhead = (statistics.median(p["wall_ref"] for p in traced)
                        / statistics.median(p["wall_ref"] for p in untraced) - 1)
        else:
            overhead = 0.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        values = {k: st["median"] for k, st in stats.items()}
        values["verified_frac"] = verified
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in values}

    lines = [
        f"artinkernels benchmark: workload {w.name}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}",
        f"python {env['python']}, git {env['git_revision']}"
        + {True: " (modified)", False: "", None: ""}[env["git_dirty"]]
        + f", nproc {env['nproc']}, "
        "load average at start " + " ".join(f"{x:.2f}" for x in env["loadavg_at_start"]),
        f"why: {w.why}",
        f"inputs: {', '.join(s.id for s in w.slots)}; closed loop, one job at a time, "
        f"{len(passes)} passes, {len(setups)} set-up launches",
    ]
    for name, st in stats.items():
        tail = (f"p{st['tail']['percentile']} {st['tail']['value']:.4f}" if st["tail"]
                else "no percentile with 10 samples beyond it")
        lines.append(f"{name:15s} median {st['median']:.4f} {SAMPLE_UNITS[name]}, "
                     f"{tail}, n={st['n']}")
    lines.append(f"failed_frac     {failed}/{attempted} = "
                 f"{failed / attempted if attempted else 0:.4f} (verified_frac "
                 f"{verified:.4f})")
    for slot in w.slots:
        times = [j["wall_s"] for p in untraced for j in p["jobs"] if j["slot"] == slot.id]
        if times:
            lines.append(f"  job {slot.id}: median {statistics.median(times):.4f} s, "
                         f"n={len(times)}")
    if traced:
        summary = traced[0]["trace"]
        total = sum(summary["layer_self_s"].values()) or 1.0
        top = sorted(summary["self_s"].items(), key=lambda kv: -kv[1])[:6]
        lines.append("self time by layer: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in
            sorted(summary["layer_self_s"].items(), key=lambda kv: -kv[1]) if v))
        lines.append("self time by function: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in top))
    for f in failures:
        lines.append(f"FAILED pass {f['pass']} {f['slot']}: {f['reason']}")
    lines.append("left out: " + " | ".join(LEFT_OUT))
    for name, m in metrics.items():
        lines.append(f"metric {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "workload": w.name,
                   "stats": stats, "failures": failures, "passes": [
                       {k: v for k, v in p.items() if k != "trace"} for p in passes],
                   "trace": [p["trace"] for p in traced], "result": result},
                  fh, indent=2)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
