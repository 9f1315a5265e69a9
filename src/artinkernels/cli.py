"""Command line entry point: parse graph files, run the pipeline, report.

Input format, line oriented, `#` starts a comment:

    field q            # or: field p 2     (optional; CLI flag overrides)
    vertex <name> <m>  # declaration order is the canonical vertex order
    edge <name> <name> <even label>

The pipeline normalizes the character, classifies the graph, computes the
homology modules by Smith normal form, and, where applicable, re-derives
the same answers by the multiplicity spectral sequence, rooted spanning
forests, and the resonant reduced complexes, cross-checking everything.

Exit codes: 0 ok, 1 usage, 2 bad input, 3 a check failed (a cross-check
mismatch, a failing shape check or an internal check), 4 out of memory.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field as dc_field
from importlib import resources

from .flag import build_flag_complex, image_dims, ranks_from_image_dims
from .graphs import (Character, LabeledGraph, ZeroCharacterError,
                     connected_components, edge_problem, is_fc_type,
                     resonance_sets, torsion_support, validate_graph,
                     vertex_problem)
from .resonant import build_f2, build_gamma1, h1_free_rank, h2_free_rank
from .scalars import QQ, Field, PrimeField, parse_field
from .smith import boundary_smith_form, homology_modules, verify_shape
from .spectral import (DisconnectedGraphError, NegativeMultiplicityError,
                       ResonantCharacterError, forest_fitting_h1,
                       shared_page_tables, solve_torsion)
from .twisted import BoundaryTables, twisted_boundary

SCHEMA = "artinkernels-report/1"
ALL_METHODS = ("snf", "ss", "forest", "resonant")


class InputError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass
class ParsedInput:
    graph: LabeledGraph
    character: Character
    field: Field | None


# weights and labels; int() alone also takes "1_0" and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_input(text: str) -> ParsedInput:
    vertices: list = []
    weights: dict = {}
    edges: list = []
    seen: set = set()
    field: Field | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0].lower()
        if kw == "field":
            if field is not None:
                raise InputError("duplicate field line", lineno)
            try:
                field = parse_field(" ".join(parts[1:]))
            except ValueError as exc:
                raise InputError(str(exc), lineno)
        elif kw == "vertex":
            if len(parts) != 3:
                raise InputError("expected: vertex <name> <weight>", lineno)
            name = parts[1]
            problem = vertex_problem(weights, name)
            if problem:
                raise InputError(problem, lineno)
            if not _INTEGER.fullmatch(parts[2]):
                raise InputError(f"bad weight {parts[2]!r}", lineno)
            weights[name] = int(parts[2])
            vertices.append(name)
        elif kw == "edge":
            if len(parts) != 4:
                raise InputError("expected: edge <name> <name> <label>", lineno)
            u, v = parts[1], parts[2]
            if not _INTEGER.fullmatch(parts[3]):
                raise InputError(f"bad label {parts[3]!r}", lineno)
            label = int(parts[3])
            problem = edge_problem(weights, seen, u, v, label)
            if problem:
                raise InputError(problem, lineno)
            edges.append((u, v, label))
        else:
            raise InputError(f"unknown directive {parts[0]!r}", lineno)
    graph = LabeledGraph(vertices, edges)
    issues = validate_graph(graph)
    if issues:
        raise InputError("; ".join(issues))
    return ParsedInput(graph, Character(graph, weights), field)


def serialize_input(g: LabeledGraph, c: Character, field: Field | None) -> str:
    """The text `parse_input` reads back as g, c and field.  Raises ValueError
    naming a vertex whose name is not a str, is empty or holds whitespace or #."""
    for v in g.vertices:
        if not isinstance(v, str) or not v or "#" in v or any(ch.isspace() for ch in v):
            raise ValueError(f"vertex name {v!r} does not survive the input format")
    lines = []
    if field is not None:
        lines.append(f"field p {field.char}" if field.char else "field q")
    for v in g.vertices:
        lines.append(f"vertex {v} {c.m(v)}")
    for (u, v) in g.edge_list:
        lines.append(f"edge {u} {v} {g.ell(u, v)}")
    return "\n".join(lines) + "\n"


@dataclass
class JobConfig:
    input_path: str | None = None
    text: str | None = None
    field: Field | None = None
    k_max: int | None = None
    methods: tuple = ALL_METHODS
    dump_pages: bool = False
    dump_matrices: bool = False

    def __post_init__(self):
        if self.k_max is not None and self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")
        if not self.methods:
            raise ValueError("at least one method is required")
        bad = [m for m in self.methods if m not in ALL_METHODS]
        if bad:
            raise ValueError(f"unknown methods: {bad}")


@dataclass
class Report:
    data: dict
    timing: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.data["status"]["ok"]

    def to_json(self) -> str:
        """The report as one line of compact JSON (`python -m json.tool` indents it)."""
        payload = dict(self.data)
        payload["timing"] = self.timing
        return json.dumps(payload, separators=(",", ":"))

    def to_text(self) -> str:
        d = self.data
        lines = [f"field {d['input']['field']}; "
                 f"normalization divisor {d['input']['normalization_divisor']}"]
        cls = d["classification"]
        lines.append(f"fc-type: {cls['fc_type']}; connected: {cls['connected']}; "
                     f"clique dimension: {cls['clique_dimension']}")
        res = d["resonance"]
        lines.append(f"resonant vertices: {res['vertices'] or '-'}; "
                     f"resonant edges: {res['edges'] or '-'}")
        ts = d["torsion_support"]
        lines.append("torsion support: " +
                     (str(ts["values"]) if ts["available"] else f"unavailable ({ts['reason']})"))
        for mod in d["homology"]["modules"]:
            facs = " + ".join(f"({f})" for f in mod["invariant_factors"]) or "-"
            lines.append(f"H_{mod['homology_degree']}: free rank {mod['free_rank']}, "
                         f"torsion {facs}")
            for chk in mod.get("shape", {}).get("checks", ()):
                if chk["status"] == "fail":
                    lines.append(f"[FAIL] shape of H_{mod['homology_degree']}: {chk['name']}"
                                 + (f": {chk['detail']}" if chk["detail"] else ""))
        for chk in d["cross_checks"]:
            mark = "ok" if chk["agree"] else "MISMATCH"
            lines.append(f"[{mark}] {chk['subject']} ({' vs '.join(chk['methods'])})"
                         + (f": {chk['detail']}" if chk["detail"] else ""))
        status = d["status"]
        lines.append("status: " + ("ok" if status["ok"]
                                   else f"checks failed: {status['mismatches']}"))
        return "\n".join(lines)


def _poly_list(polys) -> list:
    """The factors as text; equal factors are one object, formatted once."""
    text = {id(p): str(p) for p in {id(p): p for p in polys}.values()}
    return [text[id(p)] for p in polys]


def _elementary_divisors(snf) -> list:
    """The pairs (d, e) of the Phi_d^e in the invariant factors of `snf`, sorted."""
    return sorted((d, e) for d, slots in snf.exponents.items() for e in slots if e)


def run(job: JobConfig) -> Report:
    t0 = time.perf_counter()
    if job.text is not None:
        text = job.text
    elif job.input_path is not None:
        try:
            with open(job.input_path, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{job.input_path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    else:
        raise InputError("no input given")
    parsed = parse_input(text)
    g = parsed.graph
    field = job.field or parsed.field or QQ
    try:
        character, divisor = parsed.character.normalize()
    except ZeroCharacterError as exc:
        raise InputError(str(exc))

    fc = build_flag_complex(g)
    k_max = fc.dim if job.k_max is None else min(job.k_max, fc.dim)
    imdims = image_dims(fc, field)
    ranks = ranks_from_image_dims(fc, imdims)
    res = resonance_sets(g, character, field)
    components = connected_components(g)
    connected = len(components) == 1

    support = None if res.resonant_vertices else torsion_support(g, character)

    data: dict = {
        "schema": SCHEMA,
        "input": {
            "path": job.input_path,
            "field": str(field),
            "vertices": [{"name": v, "weight": parsed.character.m(v)} for v in g.vertices],
            "edges": [{"u": u, "v": v, "label": g.ell(u, v)} for (u, v) in g.edge_list],
            "normalization_divisor": divisor,
            "normalized_weights": {v: character.m(v) for v in g.vertices},
        },
        "classification": {
            "valid": True,
            "issues": [],
            "fc_type": is_fc_type(g),
            "connected": connected,
            "clique_dimension": fc.dim,
            "simplex_counts": {str(k): n for k, n in fc.counts().items()},
        },
        "resonance": {
            "vertices": sorted(res.resonant_vertices),
            "edges": [f"{u}-{v}" for (u, v) in sorted(res.resonant_edges)],
            "k_nonresonant": res.is_K_nonresonant,
        },
        "torsion_support": (
            {"available": True, "values": list(support.values),
             "provenance": {str(d): sorted(support.provenance[d]) for d in support.values}}
            if support is not None
            else {"available": False, "reason": "character has a zero weight",
                  "values": []}),
        "flag_homology": {"reduced_ranks": ranks, "image_dims": imdims},
    }

    # Smith normal form spine: one twisted complex, each boundary built
    # once when first asked for, diagonalized through degree k_max + 1
    tc = BoundaryTables(fc, character, field)
    snfs, decs = homology_modules(tc, range(k_max + 1))
    modules = []
    shape_failures = 0
    for k, dec in decs.items():
        entry = {
            "k": k,
            "homology_degree": k + 1,
            "free_rank": dec.free_rank,
            "invariant_factors": _poly_list(dec.invariant_factors),
            "t_minus_1_exponent": dec.t_minus_1_exponent,
        }
        if dec.primary_parts is not None:
            entry["primary_parts"] = {str(d): list(v)
                                      for d, v in sorted(dec.primary_parts.items())}
        if support is not None:
            shape = verify_shape(dec, support, imdims, ranks, res, character)
            entry["shape"] = {
                "skipped": shape.skipped,
                "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                           for c in shape.checks],
                "ok": shape.ok,
            }
            shape_failures += sum(c.status == "fail" for c in shape.checks)
        modules.append(entry)
    data["homology"] = {"k_max": k_max, "modules": modules}
    if job.dump_matrices:
        data["matrices"] = {str(k): twisted_boundary(tc, k).dump() for k in range(0, k_max + 2)}

    cross_checks: list = []
    methods: dict = {"snf": {"ran": True}}

    def check(subject: str, method: str, agree: bool, detail: str) -> None:
        cross_checks.append({"subject": subject, "methods": ["snf", method],
                             "agree": agree, "detail": detail})

    # multiplicity spectral sequence (characteristic zero, non-resonant), on
    # the spine's twisted complex: it filters every degree through fc.dim
    want_ss = "ss" in job.methods
    if want_ss and field.char == 0 and support is not None:
        # orders with equal weights share one page table (spectral docstring)
        rows, pages_out = {}, {}
        for pt in shared_page_tables(tc, support.values):
            ns = solve_torsion(pt, ranks, k_max)
            rows.update(((k, d), row) for d in pt.orders for k, row in ns.items())
            if job.dump_pages:
                pages_out.update(dict.fromkeys(pt.orders, {
                    "max_weight": pt.max_weight,
                    "dims": {f"s={s} p={p} q={q}": v
                             for (s, p, q), v in pt.nonzero().items()},
                    "stable": {f"p={p} q={q}": v
                               for (p, q), v in sorted(pt.stable.items())},
                }))
        methods["ss"] = {
            "ran": True,
            "jordan_bound_ok": True,
            "multiplicities": {f"k={k} d={d}": row for (k, d), row in sorted(rows.items())},
        }
        if job.dump_pages:
            methods["ss"]["pages"] = {str(d): pages_out[d] for d in support.values}
        for k in range(0, k_max + 1):
            for d in support.values:
                got = [j for j, n in enumerate(rows[k, d], start=1) for _ in range(n)]
                want = list(decs[k].exponents_for(d))
                check(f"Phi_{d} exponents in degree {k + 1}", "ss", got == want,
                      f"ss={got} snf={want}")
            check(f"free rank in degree {k + 1}", "ss", decs[k].free_rank == ranks[k],
                  f"snf={decs[k].free_rank} stable-page={ranks[k]}")
    elif want_ss:
        methods["ss"] = {"ran": False, "reason": (
            "needs characteristic zero" if field.char != 0
            else "needs a non-resonant character")}

    # rooted spanning forests (degree 0 torsion); the route declines by its
    # own rules, the reason being its error's message
    if "forest" in job.methods:
        try:
            factors = forest_fitting_h1(g, character, field)
        except (ResonantCharacterError, DisconnectedGraphError) as exc:
            methods["forest"] = {"ran": False, "reason": str(exc)}
        else:
            methods["forest"] = {"ran": True, "invariant_factors": _poly_list(factors)}
            snf_facts = snfs[1].invariant_factors
            check("H_1 invariant factors", "forest", factors == snf_facts,
                  f"forest={_poly_list(factors)} snf={_poly_list(snf_facts)}")

    # reduced-complex free ranks (valid resonant or not)
    if "resonant" in job.methods:
        gamma1 = build_gamma1(g, res)
        h1 = h1_free_rank(gamma1)
        qc = build_f2(fc, res)
        h2 = h2_free_rank(qc, field)
        methods["resonant"] = {
            "ran": True,
            "h1_free_rank": h1,
            "h2_free_rank": h2,
            "gamma1": {
                "vertices": list(gamma1.graph.vertices),
                "edges": [f"{u}-{v}" for (u, v) in gamma1.graph.edge_list],
                "removal_log": gamma1.removal_log(),
            },
            "f2": {
                "cells": [len(qc.cells0), len(qc.cells1), len(qc.cells2)],
                "identifications": [f"{u}~{v}" for (u, v) in qc.identifications],
                "removal_log": list(qc.removal_log),
            },
        }
        check("H_1 free rank", "resonant", decs[0].free_rank == h1,
              f"snf={decs[0].free_rank} reduced-graph={h1}")
        if k_max >= 1:
            check("H_2 free rank", "resonant", decs[1].free_rank == h2,
                  f"snf={decs[1].free_rank} quotient-complex={h2}")

    # disconnected graphs: degree-0 torsion splits over the components, and
    # so do its elementary divisors; its invariant factors in general do not
    if not connected:
        pieces = []
        for comp in components:
            sub = LabeledGraph(comp, [(u, v, g.ell(u, v)) for (u, v) in g.edge_list if u in comp])
            sub_tc = BoundaryTables(build_flag_complex(sub), character.restrict(sub), field)
            pieces += _elementary_divisors(boundary_smith_form(sub_tc, 1))
        whole, pieces = _elementary_divisors(snfs[1]), sorted(pieces)
        check("H_1 torsion splits over components", "snf-per-component", whole == pieces,
              f"(d, e) of Phi_d^e: whole={whole} pieces={pieces}")

    data["methods"] = methods
    data["cross_checks"] = cross_checks
    mismatches = shape_failures + sum(1 for c in cross_checks if not c["agree"])
    data["status"] = {"ok": mismatches == 0, "mismatches": mismatches}
    timing = {"total_seconds": round(time.perf_counter() - t0, 6)}
    return Report(data, timing)


# ---------------------------------------------------------------------------
# fixtures and self-check
# ---------------------------------------------------------------------------

SELF_CHECK = (
    ("dihedral4", QQ), ("dihedral4", PrimeField(2)),
    ("square", QQ),
    ("square_diagonal", PrimeField(2)), ("square_diagonal", QQ),
    ("square_diagonal_chi2", PrimeField(2)),
    ("two_edges", QQ), ("two_edges", PrimeField(2)),
)


def fixture_text(name: str) -> str:
    return resources.files("artinkernels.fixtures").joinpath(f"{name}.graph").read_text()


def self_check(out=sys.stdout) -> int:
    """Run every bundled fixture under its natural fields with all methods."""
    bad = 0
    for name, field in SELF_CHECK:
        job = JobConfig(text=fixture_text(name), field=field)
        rep = run(job)
        verdict = "ok" if rep.ok else "MISMATCH"
        summary = "; ".join(
            f"H_{m['homology_degree']}=free^{m['free_rank']}"
            + ("+" + "+".join(f"({f})" for f in m["invariant_factors"])
               if m["invariant_factors"] else "")
            for m in rep.data["homology"]["modules"])
        print(f"[{verdict}] {name} over {field}: {summary}", file=out)
        if not rep.ok:
            bad += 1
    return 0 if bad == 0 else 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _field_arg(text: str) -> Field:
    try:
        return parse_field(text)
    except ValueError as exc:  # argparse shows only this error type's text
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="artinkernels",
                description="Homology of Artin kernels of even FC-type Artin "
                            "groups as K[t^±1]-modules, by cross-checking "
                            "exact methods.")
    p.add_argument("input", nargs="?", help="graph file (see README for the format)")
    p.add_argument("--field", type=_field_arg, default=None,
                   help="q for rationals, p:<prime> for GF(p); overrides the file")
    p.add_argument("--kmax", type=int, default=None,
                   help="largest chain degree k to decompose (default: clique dimension)")
    p.add_argument("--methods", default=",".join(ALL_METHODS),
                   help="comma separated subset of snf,ss,forest,resonant")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--dump-pages", action="store_true",
                   help="include spectral page tables in the report")
    p.add_argument("--dump-matrices", action="store_true",
                   help="include twisted boundary matrices in the report")
    p.add_argument("--selfcheck", action="store_true",
                   help="run the bundled fixtures and exit")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    job = None
    if not args.selfcheck:
        if args.input is None:
            parser.print_usage(sys.stderr)
            print("error: an input file is required (or --selfcheck)", file=sys.stderr)
            return 1
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        try:
            job = JobConfig(input_path=args.input, field=args.field, k_max=args.kmax,
                            methods=methods, dump_pages=args.dump_pages,
                            dump_matrices=args.dump_matrices)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        if job is None:
            return self_check()
        report = run(job)
        out = report.to_json() if args.fmt == "json" else report.to_text()
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return 4
    except (ArithmeticError, NegativeMultiplicityError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0 if report.ok else 3


if __name__ == "__main__":
    raise SystemExit(main())
