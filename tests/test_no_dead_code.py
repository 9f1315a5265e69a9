"""Every function and method in the package is entered by some run.

A drive set of inputs, fields, report options and command lines runs
under `sys.setprofile`, which records each code object entered.  Each is
mapped to its `def` (a decorated function's code starts at its first
decorator).  A function or method that no run entered must be named in
one of the tuples below, each with the reason it stays; dunders are
exempt, and a nested def counts as part of the function that holds it.
Every name listed must exist, so a removed one leaves its tuple too.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import artinkernels
from artinkernels import cli
from artinkernels.scalars import QQ, PrimeField

PACKAGE = Path(artinkernels.__file__).parent

# traced or counted by bench/spans.py, which looks each one up by name,
# and the helpers that only they call
BENCH_NAMES = (
    "flag.boundary_matrix", "flag.reduced_homology_ranks", "linalg.staircase_leads",
    "smith.smith_normal_form", "smith._clear_to_polys", "smith._strip_t",
    "smith.taylor_block", "smith.cyclotomic_candidates",
    "laurent.factor_invariant", "laurent.taylor_at_root", "laurent.laurent_gcd",
    "laurent.residue_eval", "laurent.normalize_unit", "laurent.dense_gcd",
    "laurent.dense_content_scale", "laurent.dense_add", "laurent.dense_neg",
    "laurent.dense_sub", "laurent.dense_mul", "laurent.dense_monic",
    "laurent.LaurentPoly.zero", "laurent.LaurentPoly.shift",
    "twisted.PolyMatrix.entries", "twisted.PolyMatrix.shape",
)

# the library entry points README documents
LIBRARY_API = ("smith.homology_module", "cli.serialize_input", "spectral.PageTable.h",
               "spectral.PageTable.h_row", "laurent.cyclotomic",
               "laurent.CyclotomicField.root_combination")

# the field protocol that CyclotomicField keeps whole, as every field does
FIELD_PROTOCOL = ("laurent.CyclotomicField.add", "laurent.CyclotomicField.neg",
                  "laurent.CyclotomicField.from_int")


def _matching_clique(weights):
    """K_n, label 4 on the pairs 01, 23, ... and 2 elsewhere."""
    n = len(weights)
    return "".join(f"vertex v{i} {m}\n" for i, m in enumerate(weights)) + "".join(
        f"edge v{i} v{j} {4 if j == i + 1 and i % 2 == 0 else 2}\n"
        for i in range(n) for j in range(i + 1, n))


DRIVE_INPUTS = (
    _matching_clique((1, 2, 3, 1, 2, 3, 1)),
    "".join(f"vertex v{i} {1 + i % 3}\n" for i in range(5))
    + "".join(f"edge v{i} v{j} 2\n" for i in range(5) for j in range(i + 1, 5)),
    "vertex u 60\nvertex v 1\nvertex w 1\nedge u v 4\nedge v w 2\n",
    "".join(f"vertex v{i} 1\n" for i in range(7))
    + "".join(f"edge v{i} v{(i + 1) % 7} 4\n" for i in range(7)),
    "vertex a 1\nvertex b -3\nvertex c 0\nedge a c 2\nedge c b 2\n",
    "vertex a 1\nvertex b 2\nvertex c 1\nvertex x 1\nvertex y 3\n"
    "edge a b 4\nedge b c 2\nedge a c 2\nedge x y 6\n",
    _matching_clique((0, 0, 1, 2, 3, 1)),
)


def _definitions() -> dict:
    """(file, first line) -> "module.Qualname" for every top-level function
    and method of the package, the first line that of the first decorator
    when there is one and of the `def` otherwise, both keyed."""
    defs = {}

    def visit(body, path, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{node.name}"
                for line in {node.lineno, *(d.lineno for d in node.decorator_list[:1])}:
                    defs[str(path), line] = name

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")).body, path, f"{path.stem}.")
    return defs


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _drive(tmp_path, capsys) -> None:
    for text in DRIVE_INPUTS:
        for field in (QQ, PrimeField(2), PrimeField(3)):
            cli.run(cli.JobConfig(text=text, field=field, dump_pages=True,
                                  dump_matrices=True)).to_text()
    for name, field in cli.SELF_CHECK:
        cli.run(cli.JobConfig(text=cli.fixture_text(name), field=field, k_max=0))
    good, bad = tmp_path / "good.graph", tmp_path / "bad.graph"
    good.write_text(cli.fixture_text("square"), encoding="utf-8")
    bad.write_text("vertex a 1\nedge a b 3\n", encoding="utf-8")
    for argv, code in (([str(good), "--field", "q"], 0), ([str(good), "--format", "json"], 0),
                       (["--selfcheck"], 0), ([], 1), (["--no-such-flag"], 1),
                       ([str(tmp_path / "missing.graph")], 2), ([str(bad)], 2)):
        assert cli.main(argv) == code, argv
    capsys.readouterr()


def test_every_function_is_entered_or_listed(tmp_path, capsys):
    defs = _definitions()
    files = {path for path, _line in defs}
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in files:
                entered.add((code.co_filename, code.co_firstlineno))

    # a memo filled by an earlier test would hide its function's body
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] == "artinkernels":
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _drive(tmp_path, capsys)
    finally:
        sys.setprofile(previous)
    reached = {defs[key] for key in entered if key in defs}
    listed = set(BENCH_NAMES + LIBRARY_API + FIELD_PROTOCOL)
    unreached = sorted(name for name in set(defs.values()) - reached - listed
                       if not _is_dunder(name.rpartition(".")[2]))
    assert not unreached, f"no run enters {unreached}"
    missing = sorted(listed - set(defs.values()))
    assert not missing, f"listed but not defined: {missing}"
