"""Seeded workload generator: graph texts in the artinkernels input format.

Every workload is a fixed list of input slots.  The seed chooses the vertex
names and the order of the edge lines; it keeps the vertex declaration
order, and the names it draws sort in that order.  The computation is then
the same for every seed, and the report differs only by the names, which
`canonical_report` maps back to v0, v1, ... before hashing.

Vertex order is not seeded on purpose: the Euclidean Smith form over GF(p)
and the forest enumeration depend on it strongly (K_8 with a label-4
matching over GF(3) took 0.5 s to more than 30 s across 12 orders, K_6
forest 0.7 s to 1.4 s), which would swamp every bound of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import string
from dataclasses import dataclass


@dataclass(frozen=True)
class Slot:
    """One input of a workload: a graph family member and how to run it."""
    id: str
    n: int
    weights: tuple
    edges: tuple            # ((i, j, label), ...) with i < j
    field: str | None       # "p 3" or None for Q
    methods: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                # also the workload's `why` in BENCHMARK.json
    slots: tuple


def complete(n: int, matching=()) -> tuple:
    """K_n with label 2, and label 4 on the pairs in `matching`."""
    return tuple((i, j, 4 if (i, j) in matching else 2)
                 for i in range(n) for j in range(i + 1, n))


def cycle(n: int, label: int) -> tuple:
    return tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n), label)
                        for i in range(n)))


def repeat(pattern, n: int) -> tuple:
    return tuple(pattern[i % len(pattern)] for i in range(n))


QSS = ("snf", "ss", "resonant")
ALL = ("snf", "ss", "forest", "resonant")
MODP = ("snf", "resonant")
K7_MATCHING = {(0, 1), (2, 3), (4, 5)}
K8_MATCHING = {(0, 1), (2, 3), (4, 5), (6, 7)}
K8_WEIGHTS = (2, 5, 1, 3, 1, 4, 4, 4)

WORKLOADS = {w.name: w for w in (
    Workload(
        "clique",
        "K_8 and K_7 (label-4 matching) over Q, flag complex the full simplex: "
        "loads smith (cyclotomic route) and linalg.rank, plus spectral pages, "
        "flag and twisted",
        (Slot("K8-l2", 8, repeat((1, 2, 3), 8), complete(8), None, QSS),
         Slot("K7-l4match", 7, (2, 5, 1, 3, 1, 4, 6), complete(7, K7_MATCHING),
              None, QSS))),
    Workload(
        "forest",
        "C_11 (few costly forests) and K_6 (many cheap ones), all methods: loads "
        "spectral.forest_fitting_h1 and laurent.laurent_gcd; Smith matrices are tiny",
        (Slot("C11-l4", 11, repeat((1, 2, 3), 11), cycle(11, 4), None, ALL),
         Slot("K6-l2", 6, repeat((1, 2, 3), 6), complete(6), None, ALL))),
    Workload(
        "big_weight",
        "3-vertex paths with m_u = 60, 105: entries of degree |m| load "
        "laurent.factor_invariant and laurent.taylor_at_root over many orders d; "
        "linalg and flag idle",
        (Slot("path-m60", 3, (60, 1, 1), ((0, 1, 4), (1, 2, 2)), None, ALL),
         Slot("path-m105", 3, (105, 1, 1), ((0, 1, 4), (1, 2, 2)), None, ALL))),
    Workload(
        "modp",
        "K_9 and K_8 (label-4 matching, also resonant) over GF(3): loads the "
        "Euclidean smith.smith_normal_form, which no Q workload uses; ss does "
        "not apply",
        (Slot("K9-l2-gf3", 9, repeat((1, 2, 3), 9), complete(9), "p 3", MODP),
         Slot("K8-l4match-gf3", 8, K8_WEIGHTS, complete(8, K8_MATCHING), "p 3", MODP),
         Slot("K8-l4match-gf3-resonant", 8, (2, 5, 0, 3, 1, 0, 4, 4),
              complete(8, K8_MATCHING), "p 3", MODP))),
)}

# traffic the workloads leave out, and why
LEFT_OUT = (
    "non-FC graphs: outside the theory, which needs FC type; over GF(3) the "
    "Euclidean Smith form on a non-FC K_8 with random 2/4 labels and weights "
    "1..6 did not finish in 15 min, the same graph over Q takes about 4 s",
    "paths with m_u = 210 (about 26 s) and m_u = 2310 (more than 4 min, dense "
    "entries of degree |m|): too long for a pass",
    "forest on K_n with n >= 8: a budget skip after about 100 s",
    "K_9 over Q (about 6.5 s) and K_10 over GF(3) (about 5-6 s): K_8 and K_9 "
    "stand in for them so that a 30 s run holds several passes",
    "seeded vertex order: the seed renames vertices only, because K_8 with a "
    "label-4 matching over GF(3) takes 0.5 s to more than 30 s depending on "
    "the declaration order",
)


@dataclass(frozen=True)
class Job:
    workload: str
    slot: str
    text: str
    names: tuple            # vertex names in declaration order
    methods: tuple


def vertex_names(rng: random.Random, n: int) -> tuple:
    """n distinct names of three letters and two digits, sorted, so that
    sorting by name agrees with the declaration order."""
    names: set = set()
    while len(names) < n:
        names.add("".join(rng.choice(string.ascii_lowercase) for _ in range(3))
                  + f"{rng.randrange(100):02d}")
    return tuple(sorted(names))


def render(slot: Slot, rng: random.Random) -> tuple:
    names = vertex_names(rng, slot.n)
    lines = [f"# {slot.id}"]
    if slot.field is not None:
        lines.append(f"field {slot.field}")
    lines += [f"vertex {names[i]} {slot.weights[i]}" for i in range(slot.n)]
    edge_lines = [f"edge {names[i]} {names[j]} {label}" for i, j, label in slot.edges]
    rng.shuffle(edge_lines)
    return "\n".join(lines + edge_lines) + "\n", names


def jobs(workload: str, seed: int) -> list:
    """The inputs of one workload for one seed, in run order."""
    w = WORKLOADS[workload]
    out = []
    for slot in w.slots:
        rng = random.Random(f"{workload}/{slot.id}/{seed}")
        text, names = render(slot, rng)
        out.append(Job(workload, slot.id, text, names, slot.methods))
    return out


def canonical_report(report_json: str, names) -> str:
    """The report without `timing`, with vertex names replaced by v0, v1, ...
    in declaration order."""
    data = json.loads(report_json)
    data.pop("timing", None)
    text = json.dumps(data, indent=2)
    canon = {name: f"v{i}" for i, name in enumerate(names)}
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    return pattern.sub(lambda m: canon[m.group(1)], text)


def digest(report_json: str, names) -> str:
    return hashlib.sha256(canonical_report(report_json, names).encode()).hexdigest()
