"""Self-tests of the benchmark harness: inputs, correctness gate, tracing."""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from artinkernels import cli  # noqa: E402
from artinkernels.graphs import is_fc_type  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END, PER_LAYER, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Job, Slot, digest, jobs, render  # noqa: E402

SMALL = Slot("square", 4, (1, 2, 1, 2), ((0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 2)),
             None, ("snf", "ss", "forest", "resonant"))


def small_job(seed: int):
    import random
    text, names = render(SMALL, random.Random(seed))
    report = cli.run(cli.JobConfig(text=text, methods=SMALL.methods))
    return text, names, report


def test_same_seed_gives_identical_inputs():
    for name in WORKLOADS:
        a, b = jobs(name, 11), jobs(name, 11)
        assert [j.text for j in a] == [j.text for j in b]
        assert [j.text for j in a] != [j.text for j in jobs(name, 12)]


def test_inputs_are_fc_type_and_names_sort_in_declaration_order():
    for name in WORKLOADS:
        for job in jobs(name, 3):
            graph = cli.parse_input(job.text).graph
            assert is_fc_type(graph)
            assert list(graph.vertices) == list(job.names) == sorted(job.names)


def test_digest_ignores_names_and_timing_but_flags_a_perturbed_report():
    _text, names0, rep0 = small_job(0)
    _text, names1, rep1 = small_job(1)
    assert names0 != names1
    ref = digest(rep0.to_json(), names0)
    assert digest(rep1.to_json(), names1) == ref
    rep1.timing["total_seconds"] = 123.0
    assert digest(rep1.to_json(), names1) == ref
    rep1.data["homology"]["modules"][0]["free_rank"] += 1
    assert digest(rep1.to_json(), names1) != ref


def test_gate_reports_every_kind_of_miss():
    text, names, rep = small_job(0)
    job = Job("test", SMALL.id, text, names, SMALL.methods)
    ref = digest(rep.to_json(), names)
    assert worker.check(job, rep, rep.to_json(), ref) is None
    assert "differs" in worker.check(job, rep, rep.to_json(), "0" * 64)
    assert "no reference" in worker.check(job, rep, rep.to_json(), None)
    rep.data["methods"]["forest"] = {"ran": False, "reason": "budget"}
    assert "did not run" in worker.check(job, rep, rep.to_json(), ref)
    rep.data["status"] = {"ok": False, "mismatches": 1}
    assert "status" in worker.check(job, rep, rep.to_json(), ref)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    tree = [
        ["cli.run", 0.0, 10.0, -1, "a"],
        ["smith.boundary_smith_form", 1.0, 6.0, 0, "a"],
        ["linalg.rank", 2.0, 5.0, 1, "a"],
        ["linalg.rank", 7.0, 8.0, 0, "a"],
        ["laurent.laurent_gcd", 8.0, 9.5, 0, "a"],
        ["laurent.laurent_gcd", 8.5, 9.0, 4, "a"],
    ]
    s = spans.summarize(tree)
    assert s["layer_self_s"]["cli"] == 10.0 - 5.0 - 1.0 - 1.5
    assert s["layer_self_s"]["smith"] == 2.0
    assert s["layer_self_s"]["linalg"] == 4.0
    assert s["layer_self_s"]["laurent"] == 1.5
    assert s["inclusive_s"]["laurent.laurent_gcd"] == 1.5
    assert s["calls"]["linalg.rank"] == 2
    assert sum(s["layer_self_s"].values()) == 10.0


def test_install_reaches_imported_names_and_call_time_lookups():
    tracer = spans.Tracer()
    replaced = spans.install(tracer)
    try:
        small_job(0)
    finally:
        spans.restore(replaced)
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "linalg.rank", "smith.specialized_rank",
            "twisted.twisted_boundary", "spectral.forest_fitting_h1"} <= names
    roots = [span for span in tracer.spans if span[3] == -1]
    assert [span[0] for span in roots] == ["cli.run"]
    assert tracer.counts["linalg.rank.cells"] > 0
    from artinkernels import linalg, smith
    assert not any(hasattr(f, "__wrapped__")
                   for f in (cli.run, linalg.rank, smith.twisted_boundary))


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(1, 21))) == (50, 10)


def test_run_fails_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "clique", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {**{k: unit for k, (unit, _get) in PER_LAYER.items()}, "trace.overhead_frac": "ratio"}
