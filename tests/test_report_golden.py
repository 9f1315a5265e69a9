"""Whole reports pinned by digest.

Each case runs `cli.run` with every method and both dump flags on, drops
`timing` from `Report.to_json()` and compares the sha256 of the rest with
the digest stored in report_golden.json.  Any change to a report, however
small, fails here.  To record the digests again after an intended change:

    PYTHONPATH=src python tests/test_report_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from artinkernels import cli
from artinkernels.scalars import QQ, Field

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_golden.json")

# a triangle whose label-4 edge puts Phi_4 in the torsion support, so the
# ss route filters every degree up to the clique dimension
TRIANGLE = "vertex a 2\nvertex b 2\nvertex c 2\nedge a b 2\nedge b c 2\nedge a c 4\n"

# the 3-vertex path with m_u = 210: ss works over K_d for every d | 210,
# up to phi(210) = 48, with entries of degree 210
PATH_M210 = "vertex u 210\nvertex v 1\nvertex w 1\nedge u v 4\nedge v w 2\n"

# the 3-vertex path with m_u = 105: its torsion support interleaves two
# filtrations, {3, 5, 7, ..., 105} and {4, 212}, so the dump pins the
# support order of the pages
PATH_M105 = "vertex u 105\nvertex v 1\nvertex w 1\nedge u v 4\nedge v w 2\n"

# K_7 with a label-4 matching {01, 23, 45}: its d = 2 filtration reaches
# weight 5 in clique dimension 6, so pages 7 .. s_max repeat page 6 and the
# dump pins those repeated pages too
K7_MATCHING = "".join(
    [f"vertex v{i} {m}\n" for i, m in enumerate((2, 5, 1, 3, 1, 4, 6))]
    + [f"edge v{i} v{j} {4 if (i, j) in {(0, 1), (2, 3), (4, 5)} else 2}\n"
       for i in range(7) for j in range(i + 1, 7)])

# (case id, input, field, k_max): every self-check entry, then k_max below
# the clique dimension, where the dump stops at k_max + 1, then a large weight
CASES = [(f"{name} over {field}", cli.fixture_text(name), field, None)
         for name, field in cli.SELF_CHECK] + [
    ("square_diagonal over Q, k_max=0", cli.fixture_text("square_diagonal"), QQ, 0),
    ("triangle over Q, k_max=0", TRIANGLE, QQ, 0),
    ("path m_u=210 over Q", PATH_M210, QQ, None),
    ("path m_u=105 over Q", PATH_M105, QQ, None),
    ("K7 label-4 matching over Q", K7_MATCHING, QQ, None),
]


def report_digest(text: str, field: Field, k_max: int | None) -> str:
    job = cli.JobConfig(text=text, field=field, k_max=k_max,
                        dump_pages=True, dump_matrices=True)
    payload = json.loads(cli.run(job).to_json())
    del payload["timing"]
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("case, text, field, k_max", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden_digest(case, text, field, k_max):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert report_digest(text, field, k_max) == golden[case]


@pytest.mark.parametrize("text", [cli.fixture_text("square_diagonal"), TRIANGLE])
def test_dump_stops_at_k_max_plus_one(text):
    job = cli.JobConfig(text=text, field=QQ, k_max=0, dump_matrices=True)
    data = cli.run(job).data
    assert data["classification"]["clique_dimension"] == 2
    assert data["methods"]["ss"]["ran"] and data["status"]["ok"]
    assert sorted(data["matrices"]) == ["0", "1"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({case: report_digest(*rest) for case, *rest in CASES}, fh, indent=2)
        fh.write("\n")
