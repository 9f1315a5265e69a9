"""Every small input through `cli.run`, with every method and cross-check.

A bounded-exhaustive sweep: every labeled FC-type graph on 1 to 3 vertices
with labels in {2, 4, 6}, every nonzero character in [-2, 2]^n up to sign,
over Q, GF(2) and GF(3).  Seeded random tests sample such inputs; this
lists them all, so a check that fails on any small input shows here.

Run as a script, it sweeps the next size: every labeled FC-type graph on 4
vertices, every nonzero character in [-1, 1]^4 up to sign, over Q, GF(2),
GF(3) and GF(5) (207 360 runs, a few minutes), and exits 1 unless it sees
exactly the known failure groups in exactly that many runs:

    PYTHONPATH=src python tests/test_small_inputs.py
"""

import functools
import itertools
import sys
from collections import Counter

from artinkernels import Character, LabeledGraph, PrimeField, is_fc_type
from artinkernels.cli import JobConfig, run, serialize_input

from conftest import F2, F3, QQ

# The quotient complex's H_2 free rank differs from snf's on some inputs
# with a zero weight (README; ROADMAP item 5; the strict xfail in
# test_resonant).  Once that is mended this group comes out empty and must
# leave KNOWN_FAILURES.
KNOWN_FAILURES = {"H_2 free rank (snf vs resonant)"}


def _small_inputs(sizes=(1, 2, 3), bound=2):
    for n in sizes:
        names = [f"a{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        for labels in itertools.product((None, 2, 4, 6), repeat=len(pairs)):
            g = LabeledGraph(names, [(u, v, label) for (u, v), label in zip(pairs, labels)
                                     if label])
            if not is_fc_type(g):
                continue
            for weights in itertools.product(range(-bound, bound + 1), repeat=n):
                # chi and -chi once each: the first nonzero weight positive
                if next((m for m in weights if m), 0) > 0:
                    yield g, Character(g, dict(zip(names, weights)))


def sweep(inputs, fields) -> tuple:
    """Runs every input over every field with all methods.  Returns the
    number of runs, the non-ok reports and the exceptions grouped by the
    check that failed, the first input text of each group, the number of
    runs in which the forest route agreed with snf, and the number in which
    ss ran and every one of its cross-checks agreed."""
    groups, witnesses = Counter(), {}
    runs = forest_agreed = ss_agreed = 0
    for g, chi in inputs:
        for field in fields:
            runs += 1
            text = serialize_input(g, chi, field)
            try:
                rep = run(JobConfig(text=text))
            except Exception as exc:
                failed = [f"{type(exc).__name__}: {exc}"]
            else:
                failed = [f"{c['subject']} ({' vs '.join(c['methods'])})"
                          for c in rep.data["cross_checks"] if not c["agree"]]
                failed += [f"shape: {c['name']}" for m in rep.data["homology"]["modules"]
                           for c in m.get("shape", {}).get("checks", [])
                           if c["status"] == "fail"]
                if not rep.ok and not failed:
                    failed = ["status not ok with no failing check"]
                forest_agreed += any(c["methods"] == ["snf", "forest"] and c["agree"]
                                     for c in rep.data["cross_checks"])
                ss_agreed += rep.data["methods"]["ss"]["ran"] and all(
                    c["agree"] for c in rep.data["cross_checks"] if c["methods"] == ["snf", "ss"])
            groups.update(failed)
            for group in failed:
                witnesses.setdefault(group, text)
    return runs, groups, witnesses, forest_agreed, ss_agreed


def test_every_small_input_fails_only_the_known_checks():
    """Groups the non-ok reports and the exceptions of the sweep by the check
    that failed: the known groups, and no other, must come out."""
    runs, groups, _, forest_agreed, ss_agreed = sweep(_small_inputs(), (QQ, F2, F3))
    assert runs == 8334
    assert set(groups) == KNOWN_FAILURES, groups
    assert forest_agreed >= 3000, forest_agreed
    assert ss_agreed >= 1400, ss_agreed


@functools.lru_cache(maxsize=None)
def _snf_report(text: str):
    """The snf-only report of an input text, run once for the three laws
    below, which read it and never change it."""
    return run(JobConfig(text=text, methods=("snf",)))


def test_negated_character_gives_the_same_modules():
    """chi and -chi give kernels exchanged by t -> t^-1, and unit-normalized
    invariant factors do not see that: every 8th small input, over Q, GF(2)
    and GF(3), with snf alone, gives the same modules and verdict for both."""
    runs = with_torsion = 0
    for g, chi in itertools.islice(_small_inputs(), 0, None, 8):
        neg = Character(g, {v: -m for v, m in chi.weights.items()})
        for field in (QQ, F2, F3):
            rep = _snf_report(serialize_input(g, chi, field))
            rep_neg = run(JobConfig(text=serialize_input(g, neg, field), methods=("snf",)))
            modules = rep.data["homology"]["modules"]
            assert modules == rep_neg.data["homology"]["modules"], serialize_input(g, chi, field)
            assert rep.ok == rep_neg.ok
            runs += 1
            with_torsion += any(m["invariant_factors"] for m in modules)
    assert runs == 1044
    assert with_torsion >= 1000, with_torsion


def test_scaled_character_gives_the_same_modules():
    """chi and n chi have the same kernel, so a run normalizes chi by the
    gcd of its weights: every 8th small input, over Q, GF(2) and GF(3),
    with snf alone, gives for n = 2 and n = 3 the same modules and verdict,
    with the normalization divisor multiplied by n."""
    runs = with_torsion = 0
    for g, chi in itertools.islice(_small_inputs(), 0, None, 8):
        for field in (QQ, F2, F3):
            rep = _snf_report(serialize_input(g, chi, field))
            modules = rep.data["homology"]["modules"]
            divisor = rep.data["input"]["normalization_divisor"]
            for n in (2, 3):
                scaled = Character(g, {v: n * m for v, m in chi.weights.items()})
                rep_n = run(JobConfig(text=serialize_input(g, scaled, field), methods=("snf",)))
                assert modules == rep_n.data["homology"]["modules"], \
                    (n, serialize_input(g, chi, field))
                assert rep.ok == rep_n.ok
                assert rep_n.data["input"]["normalization_divisor"] == n * divisor
                runs += 1
            with_torsion += any(m["invariant_factors"] for m in modules)
    assert runs == 2088
    assert with_torsion >= 1000, with_torsion


def test_reversed_vertex_order_gives_the_same_modules():
    """The order in which the vertices are declared names no module: every
    8th small input, over Q, GF(2) and GF(3), with snf alone, gives the
    same modules and verdict with its vertices declared in reverse."""
    runs = with_torsion = 0
    for g, chi in itertools.islice(_small_inputs(), 0, None, 8):
        rev = LabeledGraph(g.vertices[::-1], g.raw_edges)
        rev_chi = Character(rev, chi.weights)
        for field in (QQ, F2, F3):
            rep = _snf_report(serialize_input(g, chi, field))
            rep_rev = run(JobConfig(text=serialize_input(rev, rev_chi, field), methods=("snf",)))
            modules = rep.data["homology"]["modules"]
            assert modules == rep_rev.data["homology"]["modules"], serialize_input(g, chi, field)
            assert rep.ok == rep_rev.ok
            runs += 1
            with_torsion += any(m["invariant_factors"] for m in modules)
    assert runs == 1044
    assert with_torsion >= 1000, with_torsion


def main() -> int:
    runs, groups, witnesses, forest_agreed, ss_agreed = sweep(_small_inputs((4,), 1),
                                                              (QQ, F2, F3, PrimeField(5)))
    print(f"{runs} runs, forest agreed with snf in {forest_agreed}, "
          f"ss ran and agreed with snf in {ss_agreed}")
    for group, count in groups.most_common():
        known = "known" if group in KNOWN_FAILURES else "NEW"
        print(f"[{known}] {group}: {count} runs; first input:")
        print("    " + witnesses[group].rstrip("\n").replace("\n", "\n    "))
    return 0 if runs == 207360 and set(groups) == KNOWN_FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
