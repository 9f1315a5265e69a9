"""Every small input through `cli.run`, with every method and cross-check.

A bounded-exhaustive sweep: every labeled FC-type graph on 1 to 3 vertices
with labels in {2, 4, 6}, every nonzero character in [-2, 2]^n up to sign,
over Q, GF(2) and GF(3).  Seeded random tests sample such inputs; this
lists them all, so a check that fails on any small input shows here.
"""

import itertools
from collections import Counter

from artinkernels import Character, LabeledGraph, is_fc_type
from artinkernels.cli import JobConfig, run, serialize_input

from conftest import F2, F3, QQ

# The quotient complex's H_2 free rank differs from snf's on some inputs
# with a zero weight (README; ROADMAP item 5; the strict xfail in
# test_resonant).  Once that is mended this group comes out empty and must
# leave KNOWN_FAILURES.
KNOWN_FAILURES = {"H_2 free rank (snf vs resonant)"}


def _small_inputs():
    for n in (1, 2, 3):
        names = [f"a{i}" for i in range(n)]
        pairs = list(itertools.combinations(names, 2))
        for labels in itertools.product((None, 2, 4, 6), repeat=len(pairs)):
            g = LabeledGraph(names, [(u, v, label) for (u, v), label in zip(pairs, labels)
                                     if label])
            if not is_fc_type(g):
                continue
            for weights in itertools.product(range(-2, 3), repeat=n):
                # chi and -chi once each: the first nonzero weight positive
                if next((m for m in weights if m), 0) > 0:
                    yield g, Character(g, dict(zip(names, weights)))


def test_every_small_input_fails_only_the_known_checks():
    """Groups the non-ok reports and the exceptions of the sweep by the check
    that failed: the known groups, and no other, must come out."""
    groups = Counter()
    runs = forest_agreed = 0
    for g, chi in _small_inputs():
        for fspec in (QQ, F2, F3):
            runs += 1
            try:
                rep = run(JobConfig(text=serialize_input(g, chi, fspec)))
            except Exception as exc:
                groups[f"{type(exc).__name__}: {exc}"] += 1
                continue
            failed = [f"{c['subject']} ({' vs '.join(c['methods'])})"
                      for c in rep.data["cross_checks"] if not c["agree"]]
            failed += [f"shape: {c['name']}" for m in rep.data["homology"]["modules"]
                       for c in m.get("shape", {}).get("checks", []) if c["status"] == "fail"]
            if not rep.ok and not failed:
                failed = ["status not ok with no failing check"]
            groups.update(failed)
            forest_agreed += any(c["methods"] == ["snf", "forest"] and c["agree"]
                                 for c in rep.data["cross_checks"])
    assert runs == 8334
    assert set(groups) == KNOWN_FAILURES, groups
    assert forest_agreed >= 3000, forest_agreed
