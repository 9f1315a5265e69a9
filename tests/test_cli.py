import dataclasses
import io
import json
import random
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import artinkernels
from artinkernels import (BoundaryTables, Character, FlagComplex, LabeledGraph,
                          boundary_smith_form, build_flag_complex, cli, connected_components,
                          graphs, homology_module, twisted)
from artinkernels.cli import (ALL_METHODS, SELF_CHECK, InputError, JobConfig,
                              ParsedInput, fixture_text, main, parse_input, run,
                              self_check, serialize_input)
from artinkernels.scalars import PRIME_LIMIT, PrimeField, parse_field

from conftest import F2, F3, QQ, random_case


SQUARE = fixture_text("square")
# a triangle and an edge, non-resonant over Q
TWO_COMPONENTS = ("vertex a 1\nvertex b 2\nvertex c 1\nvertex x 1\nvertex y 3\n"
                  "edge a b 4\nedge b c 2\nedge a c 2\nedge x y 6\n")


def test_parse_square_fixture():
    parsed = parse_input(SQUARE)
    assert parsed.graph.vertices == ("v1", "v2", "v3", "v4")
    assert len(parsed.graph.edge_list) == 4
    assert parsed.character.values == (1, 2, 1, 2)
    assert parsed.field == QQ


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError) as err:
        parse_input("vertex a 1\nvertex b 1\nedge a b 3\n")
    assert err.value.line == 3 and "odd label" in str(err.value)

    with pytest.raises(InputError) as err:
        parse_input("vertex a 1\nedge a z 2\n")
    assert err.value.line == 2 and "unknown vertex" in str(err.value)

    with pytest.raises(InputError) as err:
        parse_input("# nothing\n")
    assert "empty graph" in str(err.value)

    with pytest.raises(InputError):
        parse_input("vertex a 1\nvertex a 2\n")


def test_roundtrip_on_fixtures():
    for name in ("dihedral4", "square", "square_diagonal", "square_diagonal_chi2", "two_edges"):
        text = fixture_text(name)
        parsed = parse_input(text)
        out = serialize_input(parsed.graph, parsed.character, parsed.field)
        again = parse_input(out)
        assert again.graph.vertices == parsed.graph.vertices
        assert again.graph.adjacency == parsed.graph.adjacency
        assert again.character.weights == parsed.character.weights
        assert again.field == parsed.field
        assert serialize_input(again.graph, again.character, again.field) == out


NAMES = ("a", "b", "c", "v10", "x_y")
BAD_INTS = st.sampled_from(("x", "2.5", "1e3", "", "p:7"))
FIELDS = st.sampled_from(("q", "p 2", "p:3", "7", "4", "p 10", "", "x"))
LINES = st.one_of(
    st.builds("vertex {} {}".format, st.sampled_from(NAMES),
              st.integers(-9, 9).map(str) | BAD_INTS),
    st.builds("edge {} {} {}".format, st.sampled_from(NAMES), st.sampled_from(NAMES),
              st.integers(-1, 8).map(str) | BAD_INTS),
    st.builds("field {}".format, FIELDS),
    st.one_of(  # comments, blank lines, junk and lines of the wrong length
        st.builds("# {}".format, st.text(max_size=8)),
        st.text(max_size=12),
        st.builds("{} {}".format, st.sampled_from(("vertex", "edge", "EDGE", "nodes")),
                  st.lists(st.sampled_from(NAMES) | BAD_INTS, max_size=4).map(" ".join))),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(LINES, max_size=12))
def test_parser_accepts_or_raises_input_error(lines):
    text = "\n".join(lines)
    try:
        parsed = parse_input(text)
    except InputError as exc:
        assert exc.line is None or 1 <= exc.line <= len(text.splitlines())
    else:
        assert isinstance(parsed, ParsedInput) and parsed.graph.vertices


# names serialize_input must refuse, since they would not parse back as they are
UNWRITABLE = (7, ("a", 1), "", "a b", "a#1", "x\ty", "y\n", "z\u2028")


@st.composite
def graph_inputs(draw, unwritable=False):
    """A graph on names from NAMES; with `unwritable`, maybe one more vertex
    named from UNWRITABLE, at a drawn place in the vertex order."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    if unwritable and draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(UNWRITABLE)))
    weights = {v: draw(st.integers(-50, 50)) for v in names}
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(u, v, 2 * draw(st.integers(1, 5))) for u, v in chosen]
    g = artinkernels.LabeledGraph(names, edges)
    field = draw(st.sampled_from((None, QQ, PrimeField(2), PrimeField(7))))
    return g, artinkernels.Character(g, weights), field


@settings(max_examples=150, deadline=None)
@given(graph_inputs(unwritable=True))
def test_serialized_input_parses_back(case):
    g, chi, field = case
    bad = [v for v in g.vertices if v in UNWRITABLE]
    if bad:
        with pytest.raises(ValueError, match=re.escape(repr(bad[0]))):
            serialize_input(g, chi, field)
        return
    parsed = parse_input(serialize_input(g, chi, field))
    assert parsed.graph.vertices == g.vertices
    assert parsed.graph.adjacency == g.adjacency
    assert parsed.character.weights == chi.weights
    assert parsed.field == field


def test_run_square_report():
    rep = run(JobConfig(text=SQUARE))
    assert rep.ok
    data = rep.data
    assert data["input"]["normalization_divisor"] == 1
    assert data["classification"]["fc_type"] is True
    assert data["torsion_support"]["values"] == [2, 6]
    mods = {m["homology_degree"]: m for m in data["homology"]["modules"]}
    assert mods[1]["free_rank"] == 0
    assert mods[1]["invariant_factors"] == [
        "-1 + t", "-1 + t - t^3 + t^4", "-1 + t^2 - t^3 + t^5"]
    assert mods[1]["primary_parts"] == {"2": [1, 2], "6": [1, 1]}
    assert mods[2] == {**mods[2], "free_rank": 1, "invariant_factors": []}
    assert all(c["agree"] for c in data["cross_checks"])
    assert {m for c in data["cross_checks"] for m in c["methods"]} >= {
        "snf", "ss", "forest", "resonant"}


def test_run_normalizes_characters():
    doubled = SQUARE.replace("vertex v1 1", "vertex v1 2") \
                    .replace("vertex v2 2", "vertex v2 4") \
                    .replace("vertex v3 1", "vertex v3 2") \
                    .replace("vertex v4 2", "vertex v4 4")
    rep = run(JobConfig(text=doubled))
    assert rep.data["input"]["normalization_divisor"] == 2
    assert rep.data["homology"]["modules"][0]["invariant_factors"] == \
        run(JobConfig(text=SQUARE)).data["homology"]["modules"][0]["invariant_factors"]


def test_report_json_deterministic_without_timing():
    a = run(JobConfig(text=SQUARE))
    b = run(JobConfig(text=SQUARE))
    assert json.dumps(a.data, indent=2) == json.dumps(b.data, indent=2)


@pytest.mark.parametrize("fixture", ["square_diagonal", "dihedral4"])
def test_report_json_does_not_depend_on_the_hash_seed(fixture, tmp_path):
    """Two interpreters with different string hash seeds print the same
    report, matrices and pages included, apart from `timing`."""
    path = tmp_path / f"{fixture}.graph"
    path.write_text(fixture_text(fixture))
    src = str(Path(artinkernels.__file__).resolve().parents[1])
    reports = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-m", "artinkernels", str(path), "--format", "json",
                              "--dump-pages", "--dump-matrices"],
                             capture_output=True, text=True, env=env, check=True).stdout
        payload = json.loads(out)
        del payload["timing"]
        reports.append(payload)
    assert reports[0] == reports[1]
    assert "matrices" in reports[0]


def test_field_override_and_methods_subset():
    rep = run(JobConfig(text=fixture_text("dihedral4"), field=PrimeField(2),
                        methods=("snf", "resonant")))
    mods = rep.data["homology"]["modules"]
    assert mods[0]["free_rank"] == 1 and mods[0]["invariant_factors"] == []
    assert "ss" not in rep.data["methods"]
    assert rep.data["methods"]["resonant"]["h1_free_rank"] == 1


def test_ss_skipped_over_prime_fields_with_reason():
    rep = run(JobConfig(text=fixture_text("square_diagonal")))
    assert rep.data["methods"]["ss"]["ran"] is False
    assert "characteristic zero" in rep.data["methods"]["ss"]["reason"]


def test_components_check_compares_elementary_divisors():
    """The invariant factors of a direct sum are not the union of its parts'
    (diag((t-1)Phi_2) + diag((t-1)Phi_3) has (t-1) and (t-1)Phi_2Phi_3), its
    elementary divisors are.  On seeded pairs of paths the check must agree,
    also where the lists of invariant factors differ."""
    rng = random.Random(0xC0C0)
    weights = (-2, -1, 1, 2, 3, 4, 5, 6)
    differ = Counter()
    for field in (QQ, F2, F3):
        for _ in range(40):
            lines = []
            for comp in "uv":
                names = [f"{comp}{j}" for j in range(rng.randint(1, 3))]
                lines += [f"vertex {v} {rng.choice(weights)}" for v in names]
                lines += [f"edge {a} {b} {rng.choice((2, 4, 6))}" for a, b in zip(names, names[1:])]
            text = "\n".join(lines) + "\n"
            rep = run(JobConfig(text=text, field=field, methods=("snf",)))
            chk, = [c for c in rep.data["cross_checks"] if "components" in c["subject"]]
            assert chk["agree"] and rep.ok, (field, text, chk["detail"])
            assert chk["detail"].startswith("(d, e) of Phi_d^e: whole=")

            parsed = parse_input(text)
            g, (chi, _) = parsed.graph, parsed.character.normalize()
            pieces = []
            for comp in connected_components(g):
                sub = LabeledGraph(comp, [(u, v, g.ell(u, v)) for (u, v) in g.edge_list
                                          if u in comp])
                t = BoundaryTables(build_flag_complex(sub), chi.restrict(sub), field)
                pieces += [str(f) for f in boundary_smith_form(t, 1).invariant_factors]
            whole = rep.data["homology"]["modules"][0]["invariant_factors"]
            differ[str(field)] += sorted(whole) != sorted(pieces)
    assert all(differ[str(f)] > 0 for f in (QQ, F2, F3)), differ


def test_forest_skipped_on_disconnected_input():
    text = "field q\nvertex a 1\nvertex b 1\n"
    rep = run(JobConfig(text=text))
    assert rep.data["methods"]["forest"]["ran"] is False
    assert "connected" in rep.data["methods"]["forest"]["reason"]
    # the componentwise degree-0 torsion split is still checked
    assert any("components" in c["subject"] for c in rep.data["cross_checks"])
    assert rep.ok


def test_dump_flags():
    rep = run(JobConfig(text=SQUARE, dump_pages=True, dump_matrices=True))
    assert "pages" in rep.data["methods"]["ss"]
    assert "2" in rep.data["methods"]["ss"]["pages"]
    assert "matrices" in rep.data


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "g.graph"
    good.write_text(SQUARE)
    assert main([str(good)]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out

    assert main([str(good), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"].startswith("artinkernels-report/")

    bad = tmp_path / "bad.graph"
    bad.write_text("vertex a 1\nedge a a 2\n")
    assert main([str(bad)]) == 2
    assert main(["--no-such-flag"]) == 1
    assert main([]) == 1
    assert main([str(good), "--methods", "bogus"]) == 1
    assert main([str(good), "--field", "p:4"]) == 1  # 4 is not prime
    assert "characteristic 4 is not prime" in capsys.readouterr().err
    assert main([str(good), "--field", f"p:{PRIME_LIMIT}"]) == 1
    assert "too large" in capsys.readouterr().err


DIHEDRAL = "vertex u 1\nvertex v -1\nedge u v 4\n"     # no field line
FIELD_SPELLINGS = [("q", QQ), ("Q", QQ), ("rationals", QQ), ("0", QQ),
                   ("p:7", PrimeField(7)), ("p 7", PrimeField(7)), ("7", PrimeField(7))]


@pytest.mark.parametrize("text, field", FIELD_SPELLINGS, ids=[t for t, _ in FIELD_SPELLINGS])
def test_every_field_spelling_reaches_the_report(tmp_path, capsys, text, field):
    """`parse_field`, `--field` and a `field` line read each spelling as
    the same field, and the report's `input.field` is its str, "Q" or "F7"."""
    assert parse_field(text) == field
    assert str(field) == ("Q" if field.char == 0 else "F7")
    bare, lined = tmp_path / "bare.graph", tmp_path / "lined.graph"
    bare.write_text(DIHEDRAL)
    lined.write_text(f"field {text}\n{DIHEDRAL}")
    for argv in ([str(bare), "--field", text], [str(lined)]):
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["input"]["field"] == str(field)
    assert parse_input(lined.read_text()).field == field


@pytest.mark.parametrize("text, error", [
    ("p:4", "field characteristic 4 is not prime"),
    ("p:\u0663", "cannot parse field selector 'p:\u0663'"),
    (f"p:{PRIME_LIMIT}", f"{PRIME_LIMIT} is too large: primality is certified only below"),
], ids=["not-prime", "arabic-indic", "prime-limit"])
def test_every_field_entry_refuses_what_names_no_field(tmp_path, capsys, text, error):
    """The same message from `parse_field`, from `--field` (exit 1) and from
    a `field` line (exit 2, with its line number)."""
    with pytest.raises(ValueError, match=re.escape(error)):
        parse_field(text)
    path = tmp_path / "g.graph"
    path.write_text(DIHEDRAL)
    assert main([str(path), "--field", text]) == 1
    assert f"error: argument --field: {error}" in capsys.readouterr().err
    path.write_text(f"field {text}\n{DIHEDRAL}")
    assert main([str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: line 1: {error}")


@pytest.mark.parametrize("field, line", [(QQ, "field q"), (F2, "field p 2"),
                                         (PrimeField(7), "field p 7")])
def test_serialize_input_writes_the_field_line_parse_input_reads(field, line):
    parsed = parse_input(fixture_text("square_diagonal"))
    text = serialize_input(parsed.graph, parsed.character, field)
    assert text.splitlines()[0] == line
    again = parse_input(text)
    assert again.field == field and again.character.weights == parsed.character.weights
    assert serialize_input(again.graph, again.character, again.field) == text


def test_main_missing_file_is_input_error(tmp_path):
    assert main([str(tmp_path / "nope.graph")]) == 2


def test_main_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.graph"
    path.write_bytes(b"vertex a 1\nvertex \xff 2\n")
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {path}: not UTF-8 text (invalid start byte at byte 18)\n"


def test_main_reads_a_utf8_byte_order_mark_as_no_text(tmp_path, capsys):
    """A file that starts with the UTF-8 byte order mark gives the report of
    the same file without it, not an unknown directive on line 1."""
    reports = []
    for name, head in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        path = tmp_path / f"{name}.graph"
        path.write_bytes(head + SQUARE.encode())
        assert main([str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["timing"], report["input"]["path"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("line, error", [
    ("vertex b 1_0", "line 2: bad weight '1_0'"),
    ("vertex b \u0663", "line 2: bad weight '\u0663'"),
    ("vertex b \uff13", "line 2: bad weight '\uff13'"),
    ("vertex b ++3", "line 2: bad weight '++3'"),
    ("vertex b 1\nedge a b 2_0", "line 3: bad label '2_0'"),
    ("vertex b 1\nedge a b \u0664", "line 3: bad label '\u0664'"),
    ("field p \u0663", "line 2: cannot parse field selector 'p \u0663'"),
    ("field p 1_1", "line 2: cannot parse field selector 'p 1_1'"),
], ids=["weight-underscore", "weight-arabic-indic", "weight-fullwidth", "weight-two-signs",
        "label-underscore", "label-arabic-indic", "field-arabic-indic", "field-underscore"])
def test_main_takes_only_ascii_decimal_integers(tmp_path, capsys, line, error):
    """Weights, labels and the `field p` line are ASCII [+-]?[0-9]+:
    int() alone would read "1_0" as 10 and Arabic-Indic digits as 3."""
    path = tmp_path / "g.graph"
    path.write_text(f"vertex a 1\n{line}\n", encoding="utf-8")
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {error}"), err


def test_main_takes_signed_ascii_weights(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text("vertex a +1\nvertex b -3\nedge a b +4\nfield p 3\n", encoding="utf-8")
    assert main([str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [v["weight"] for v in data["input"]["vertices"]] == [1, -3]
    assert data["input"]["edges"][0]["label"] == 4 and data["input"]["field"] == "F3"


def test_a_doctored_snf_free_rank_fails_the_ss_cross_check(tmp_path, monkeypatch, capsys):
    """The snf-vs-ss "free rank in degree k+1" cross-check sees a Smith
    decomposition whose free rank was doctored: `agree` is false, every
    other cross-check still agrees, and `main` exits 3."""
    real = cli.homology_modules

    def doctored(tc, degrees):
        snfs, decs = real(tc, degrees)
        decs[1] = dataclasses.replace(decs[1], free_rank=decs[1].free_rank + 1)
        return snfs, decs

    monkeypatch.setattr(cli, "homology_modules", doctored)
    checks = run(JobConfig(text=SQUARE, methods=("snf", "ss"))).data["cross_checks"]
    verdicts = {c["subject"]: c["agree"] for c in checks}
    assert verdicts.pop("free rank in degree 2") is False
    assert verdicts and all(verdicts.values())
    path = tmp_path / "square.graph"
    path.write_text(SQUARE, encoding="utf-8")
    assert main([str(path), "--methods", "snf,ss"]) == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_a_doctored_free_rank_fails_the_shape_check_and_the_verdict(tmp_path, monkeypatch,
                                                                  capsys):
    """With snf alone no cross-check runs, so only the free-rank shape
    check sees a doctored free rank; it counts in `status.mismatches`, and
    `main` exits 3."""
    real = cli.homology_modules

    def doctored(tc, degrees):
        snfs, decs = real(tc, degrees)
        decs[0] = dataclasses.replace(decs[0], free_rank=decs[0].free_rank + 1)
        return snfs, decs

    monkeypatch.setattr(cli, "homology_modules", doctored)
    data = run(JobConfig(text=SQUARE, methods=("snf",))).data
    assert data["cross_checks"] == []
    failing = [(m["homology_degree"], c["name"]) for m in data["homology"]["modules"]
               for c in m["shape"]["checks"] if c["status"] == "fail"]
    assert failing == [(1, "free-rank")]
    assert data["status"] == {"ok": False, "mismatches": 1}
    path = tmp_path / "square.graph"
    path.write_text(SQUARE, encoding="utf-8")
    assert main([str(path), "--methods", "snf"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] shape of H_1: free-rank: free=1 reduced-homology=0" in out
    assert out.endswith("status: checks failed: 1\n")


def test_readme_library_snippet_runs():
    """The README's library example runs as written, and each line that
    ends in a `# <integer>` comment evaluates to that integer."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(snippet, namespace)
    claims = re.findall(r"^(\S.*?)\s+# (\d+)$", snippet, re.MULTILINE)
    assert claims
    for expr, value in claims:
        assert eval(expr, namespace) == int(value), expr


def test_zero_character_is_input_error():
    with pytest.raises(InputError):
        run(JobConfig(text="vertex a 0\nvertex b 0\n"))


def test_self_check_passes():
    buf = io.StringIO()
    assert self_check(out=buf) == 0
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 8 and all(line.startswith("[ok]") for line in lines)


def test_run_modules_agree_with_homology_module():
    rng = random.Random(0xC13)
    cases = [(fixture_text(name), field) for name, field in SELF_CHECK]
    for field in (QQ, F3):
        g, chi = random_case(rng, max_vertices=5, require_connected=True)
        cases.append((serialize_input(g, chi, None), field))
    for text, field in cases:
        parsed = parse_input(text)
        chi, _ = parsed.character.normalize()
        fc = build_flag_complex(parsed.graph)
        modules = run(JobConfig(text=text, field=field)).data["homology"]["modules"]
        assert len(modules) == fc.dim + 1
        for entry in modules:
            dec = homology_module(fc, chi, field, entry["k"])
            context = (text, str(field), entry["k"])
            assert entry["free_rank"] == dec.free_rank, context
            assert entry["invariant_factors"] == [str(f) for f in dec.invariant_factors], context
            assert entry["t_minus_1_exponent"] == dec.t_minus_1_exponent, context
            want = (None if dec.primary_parts is None else
                    {str(d): v for d, v in sorted(dec.primary_parts.items())})
            assert entry.get("primary_parts") == want, context


def _count_builds(monkeypatch) -> Counter:
    """Count every build of the run's artefacts: calls through each module
    binding of the builders, and each twisted boundary matrix by degree."""
    counts = Counter()
    modules = [m for name, m in list(sys.modules.items())
               if name.partition(".")[0] == "artinkernels"]
    for name in ("build_flag_complex", "BoundaryTables", "build_gamma1", "build_f2"):
        orig = getattr(artinkernels, name)

        def counted(*args, _name=name, _orig=orig):
            counts[_name] += 1
            return _orig(*args)

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    matrix = twisted.PolyMatrix

    def counted_matrix(*args):
        m = matrix(*args)
        counts["PolyMatrix", m.k] += 1
        return m

    monkeypatch.setattr(twisted, "PolyMatrix", counted_matrix)
    return counts


def test_run_builds_each_artefact_once(monkeypatch):
    """The Smith, ss and resonant routes share the run's flag complex,
    twisted complex, reduced graph and quotient complex.  The Smith route
    walks its boundaries without building a polynomial matrix: an
    `snf`-only run builds none, ss builds one per degree 0 .. fc.dim, read
    by every order d, and
    `--dump-matrices` one per degree 0 .. k_max + 1, each once however
    many of them read it.  On a disconnected input the per-component check
    adds one flag and twisted complex per component; `homology_module`
    builds one twisted complex and no matrix.  Vertex tuples are decoded
    only where read: an `snf`-only run reads none of a nonempty degree, and
    `resonant` adds the degrees 1 and 2 that the F2 scan reads, once each."""
    reads = Counter()
    real_simplices_of = FlagComplex.simplices_of

    def counted_simplices_of(self, k):
        if self.masks.get(k):
            reads[k] += 1
        return real_simplices_of(self, k)

    monkeypatch.setattr(FlagComplex, "simplices_of", counted_simplices_of)
    for field in (QQ, F3):
        rep = run(JobConfig(text=fixture_text("square_diagonal"), field=field, methods=("snf",)))
        assert rep.ok and rep.data["classification"]["clique_dimension"] == 2 and not reads
        rep = run(JobConfig(text=fixture_text("square_diagonal"), field=field,
                            methods=("snf", "resonant")))
        assert rep.data["methods"]["resonant"]["ran"] and reads == Counter({1: 1, 2: 1})
        reads.clear()

    counts = _count_builds(monkeypatch)
    shared = {"build_flag_complex": 1, "BoundaryTables": 1, "build_gamma1": 1, "build_f2": 1}
    rep = run(JobConfig(text=SQUARE, field=QQ, methods=("snf", "resonant")))
    assert rep.ok and counts == Counter(shared)

    counts.clear()
    rep = run(JobConfig(text=SQUARE, field=QQ))
    assert all(rep.data["methods"][m]["ran"] for m in ALL_METHODS)
    dim = rep.data["classification"]["clique_dimension"]
    assert counts == Counter({**shared, **{("PolyMatrix", k): 1 for k in range(dim + 1)}})

    # ss reads the spine's boundaries for every order d: one build per degree
    counts.clear()
    rep = run(JobConfig(text=SQUARE, field=QQ, methods=("snf", "ss")))
    assert rep.data["methods"]["ss"]["ran"] and len(rep.data["torsion_support"]["values"]) > 1
    assert counts == Counter({"build_flag_complex": 1, "BoundaryTables": 1,
                              **{("PolyMatrix", k): 1 for k in range(dim + 1)}})

    counts.clear()
    rep = run(JobConfig(text=SQUARE, field=QQ, methods=("snf",), dump_matrices=True))
    k_max = rep.data["homology"]["k_max"]
    assert k_max + 1 > dim and len(rep.data["matrices"]) == k_max + 2
    assert counts == Counter({"build_flag_complex": 1, "BoundaryTables": 1,
                              **{("PolyMatrix", k): 1 for k in range(k_max + 2)}})

    counts.clear()
    rep = run(JobConfig(text=SQUARE, field=QQ, dump_matrices=True))
    assert counts == Counter({**shared, **{("PolyMatrix", k): 1 for k in range(k_max + 2)}})

    counts.clear()
    rep = run(JobConfig(text=TWO_COMPONENTS, field=QQ))
    assert rep.ok and rep.data["methods"]["ss"]["ran"]
    assert any("components" in c["subject"] for c in rep.data["cross_checks"])
    dim = rep.data["classification"]["clique_dimension"]
    assert counts == Counter({"build_flag_complex": 3, "BoundaryTables": 3,
                              "build_gamma1": 1, "build_f2": 1,
                              **{("PolyMatrix", k): 1 for k in range(dim + 1)}})

    parsed = parse_input(SQUARE)
    fc = build_flag_complex(parsed.graph)
    counts.clear()
    homology_module(fc, parsed.character, QQ, 1)
    assert counts == Counter({"BoundaryTables": 1})


def test_run_states_the_resonance_sets_once_for_the_reduced_complexes(monkeypatch):
    """`cli.run` computes V_R and E_R once and hands them to `build_gamma1`
    and `build_f2`; `forest_fitting_h1` keeps its own guard, so an
    all-methods run of the square fixture calls `resonance_sets` twice."""
    calls = Counter()
    real = graphs.resonance_sets

    def counted(*args):
        calls["resonance_sets"] += 1
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "artinkernels":
            for attr, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, attr, counted)
    for methods, want in ((ALL_METHODS, 2), (("snf", "resonant"), 1), (("snf",), 1)):
        calls.clear()
        rep = run(JobConfig(text=SQUARE, methods=methods))
        assert rep.ok and all(rep.data["methods"][m]["ran"] for m in methods)
        assert calls["resonance_sets"] == want, methods


def test_scaled_character_gives_the_same_report_but_the_input():
    """chi and n chi have one kernel, since `run` normalizes first: the
    reports agree apart from `input`, whose normalization divisor is n
    times chi's, over Q, GF(2) and GF(3)."""
    rng = random.Random(0x5CA1E)
    seen = set()
    for trial in range(12):
        g, chi = random_case(rng, max_vertices=4, allow_zero=trial % 2 == 1)
        for field in (QQ, F2, F3):
            base = run(JobConfig(text=serialize_input(g, chi, field))).data
            base_input = base.pop("input")
            for n in (2, 3, 5):
                scaled = Character(g, {v: n * chi.m(v) for v in g.vertices})
                data = run(JobConfig(text=serialize_input(g, scaled, field))).data
                got = data.pop("input")
                context = (g.raw_edges, chi.values, str(field), n)
                assert got["normalization_divisor"] == n * base_input["normalization_divisor"]
                assert got["normalized_weights"] == base_input["normalized_weights"], context
                assert data == base, context
            seen.add("resonant" if base["resonance"]["vertices"] else "non-resonant")
            if any(m["invariant_factors"] for m in base["homology"]["modules"]):
                seen.add("torsion")
    assert seen == {"resonant", "non-resonant", "torsion"}, seen


def test_kmax_flag_caps_degrees():
    rep = run(JobConfig(text=fixture_text("square_diagonal"), k_max=0))
    assert [m["k"] for m in rep.data["homology"]["modules"]] == [0]


@pytest.mark.parametrize("k_max", [-1, -7])
def test_negative_kmax_is_rejected(k_max):
    with pytest.raises(ValueError, match=f"k_max must be >= 0, got {k_max}"):
        JobConfig(text=fixture_text("square_diagonal"), k_max=k_max)
    assert JobConfig(text=fixture_text("square_diagonal"), k_max=0).k_max == 0


def test_negative_kmax_is_a_usage_error(tmp_path, monkeypatch, capsys):
    import artinkernels.cli as cli
    monkeypatch.setattr(cli, "run", lambda job: pytest.fail("run was reached"))
    path = tmp_path / "g.graph"
    path.write_text(fixture_text("square_diagonal"))
    assert cli.main([str(path), "--kmax", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: k_max must be >= 0, got -1\n"


def test_single_vertex_graph_run():
    rep = run(JobConfig(text="vertex a 2\n"))
    assert rep.ok
    assert rep.data["input"]["normalization_divisor"] == 2
    mods = rep.data["homology"]["modules"]
    assert len(mods) == 1
    assert mods[0]["free_rank"] == 0 and mods[0]["invariant_factors"] == []
    assert rep.data["methods"]["resonant"]["h1_free_rank"] == 0


def test_disconnected_resonant_prime_field_run():
    text = ("field p 2\n"
            "vertex a 1\nvertex b -1\nvertex x 1\nvertex y 1\nvertex z 0\n"
            "edge a b 4\n"        # resonant edge over GF(2)
            "edge x y 2\nedge y z 2\n")
    rep = run(JobConfig(text=text))
    assert rep.ok, rep.data["cross_checks"]
    assert rep.data["classification"]["connected"] is False
    assert rep.data["resonance"]["edges"] == ["a-b"]
    assert rep.data["resonance"]["vertices"] == ["z"]
    assert rep.data["torsion_support"]["available"] is False
    assert any("components" in c["subject"] for c in rep.data["cross_checks"])


def test_larger_sparse_graph_stays_quick():
    import time
    lines = ["field q"] + [f"vertex w{i} {1 + (i % 3)}" for i in range(10)]
    lines += [f"edge w{i} w{i+1} {4 if i % 2 else 2}" for i in range(9)]
    lines += ["edge w0 w9 2", "edge w2 w7 6"]
    t0 = time.perf_counter()
    rep = run(JobConfig(text="\n".join(lines)))
    assert rep.ok
    assert time.perf_counter() - t0 < 20
    mods = rep.data["homology"]["modules"]
    assert mods[0]["free_rank"] == 0  # connected reduced graph


def _graph_text(n: int, edges, label: int) -> str:
    """n vertices with weights 1, 2, 3, 1, ... and one label on `edges`."""
    return "\n".join([f"vertex v{i} {1 + i % 3}" for i in range(n)]
                     + [f"edge v{i} v{j} {label}" for i, j in edges])


def _random_connected_text(n: int, prob: float, seed: int) -> str:
    """A connected G(n, prob) with label 2 and weights drawn from
    {-2, -1, 1, 2, 3}, the first connected draw of the seeded generator."""
    rng = random.Random(seed)
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
        weights = [rng.choice((-2, -1, 1, 2, 3)) for _ in range(n)]
        names = [f"v{i}" for i in range(n)]
        g = LabeledGraph(names, [(names[i], names[j], 2) for i, j in edges])
        if len(connected_components(g)) == 1:
            return "\n".join([f"vertex v{i} {m}" for i, m in enumerate(weights)]
                             + [f"edge v{i} v{j} 2" for i, j in edges])


def _complete_text(n: int) -> str:
    return _graph_text(n, [(i, j) for i in range(n) for j in range(i + 1, n)], 2)


@pytest.mark.parametrize("text", [
    _complete_text(8),
    _graph_text(10, [(i, j) for i in range(10) for j in range(i + 1, 10)
                     if not (j == i + 1 and i % 2 == 0)], 2),
    _graph_text(30, [(i, (i + 1) % 30) for i in range(30)], 4),
    _complete_text(11),
    _complete_text(12),
    _random_connected_text(80, 0.15, seed=80),
], ids=["K8", "K10-minus-matching", "C30", "K11", "K12", "G80"])
def test_forest_route_runs_on_dense_and_long_graphs(text):
    """Inputs with far more spanning forests than any listing could visit
    (K_8 alone has 561 948): the route takes a few minimum spanning trees
    per order d, so it runs, and it agrees with snf."""
    rep = run(JobConfig(text=text, methods=("snf", "forest")))
    assert rep.ok and rep.data["methods"]["forest"]["ran"] is True
    checks = [c for c in rep.data["cross_checks"] if c["methods"] == ["snf", "forest"]]
    assert len(checks) == 1 and checks[0]["agree"], checks


def test_main_exit_code_3_on_mismatch(tmp_path, monkeypatch, capsys):
    import artinkernels.cli as cli

    def fake_run(job):
        return cli.Report({
            "input": {"field": "Q", "normalization_divisor": 1},
            "classification": {"fc_type": True, "connected": True,
                               "clique_dimension": 0},
            "resonance": {"vertices": [], "edges": []},
            "torsion_support": {"available": True, "values": []},
            "homology": {"modules": []},
            "cross_checks": [{"subject": "synthetic", "methods": ["a", "b"],
                              "agree": False, "detail": ""}],
            "status": {"ok": False, "mismatches": 1},
        })

    monkeypatch.setattr(cli, "run", fake_run)
    path = tmp_path / "g.graph"
    path.write_text(SQUARE)
    assert cli.main([str(path)]) == 3
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("name, field", SELF_CHECK, ids=[f"{n}-{f}" for n, f in SELF_CHECK])
def test_main_exits_0_on_every_self_check_fixture(tmp_path, capsys, name, field):
    """Every run builds its checks, and `main` exits 0 exactly when the
    printed report says `status: ok`."""
    path = tmp_path / f"{name}.graph"
    path.write_text(fixture_text(name), encoding="utf-8")
    selector = f"p:{field.char}" if field.char else "q"
    assert main([str(path), "--field", selector]) == 0
    assert capsys.readouterr().out.endswith("status: ok\n")


def test_main_exit_rule_has_no_switch(tmp_path, monkeypatch, capsys):
    """A doctored free rank sets `status.ok` false and `main` exits 3 on
    the printed report; no option turns the checks or the exit code off."""
    path = tmp_path / "square.graph"
    path.write_text(SQUARE, encoding="utf-8")
    assert main([str(path), "--no-cross-check"]) == 1
    assert "unrecognized arguments: --no-cross-check" in capsys.readouterr().err
    assert [f.name for f in dataclasses.fields(JobConfig)] == [
        "input_path", "text", "field", "k_max", "methods", "dump_pages", "dump_matrices"]

    real = cli.homology_modules

    def doctored(tc, degrees):
        snfs, decs = real(tc, degrees)
        decs[1] = dataclasses.replace(decs[1], free_rank=decs[1].free_rank + 1)
        return snfs, decs

    monkeypatch.setattr(cli, "homology_modules", doctored)
    assert run(JobConfig(text=SQUARE)).data["status"]["ok"] is False
    assert main([str(path), "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["status"]["ok"] is False


def test_readme_cli_synopsis_lists_every_long_option():
    """The README's CLI synopsis names exactly the long options of
    `build_parser()`, besides --help."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
    listed = set(re.findall(r"--[a-z][a-z-]*", synopsis))
    options = {opt for action in cli.build_parser()._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert listed == options - {"--help"}


def test_main_exit_code_4_when_memory_runs_out(tmp_path, monkeypatch, capsys):
    import artinkernels.cli as cli

    def exhausted(job):
        raise MemoryError

    monkeypatch.setattr(cli, "run", exhausted)
    path = tmp_path / "g.graph"
    path.write_text(SQUARE)
    assert cli.main([str(path)]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("resource error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("selfcheck", [False, True])
def test_main_exit_code_3_when_an_internal_check_fails(tmp_path, monkeypatch, capsys,
                                                       selfcheck):
    """A leading unit that vanishes stops the ss route with ArithmeticError:
    `main` exits 3 with one `check failed:` line, for a run and for
    --selfcheck alike, and no traceback."""
    from artinkernels import spectral
    from artinkernels.laurent import cyclotomic_field

    monkeypatch.setattr(spectral, "quotient_residue",
                        lambda f, d, drop: cyclotomic_field(d).zero)
    path = tmp_path / "g.graph"
    path.write_text(SQUARE)
    assert main(["--selfcheck"] if selfcheck else [str(path)]) == 3
    out = capsys.readouterr()
    assert "status:" not in out.out
    assert out.err.startswith("check failed: leading unit vanished at ")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("fault", ["lead off by one", "zero entry"])
@pytest.mark.parametrize("caller", ["image_dims", "_pivot_gaps"])
def test_main_exit_code_3_when_a_lazy_column_is_doctored(tmp_path, monkeypatch, capsys,
                                                          caller, fault):
    """Each column that `flag.image_dims` or the Smith route's
    `_pivot_gaps` hands the elimination kernel as a pair (lead, build),
    doctored to declare the row above its lead or to build with a zero
    entry, stops the run with the kernel's ArithmeticError: `main` exits 3
    with one `check failed:` line."""
    from artinkernels import linalg

    real = linalg.column_leads

    def doctor(field, col):
        if type(col) is not tuple or not col[1].__qualname__.startswith(caller):
            return col
        lead, build = col
        if fault == "lead off by one":
            return lead + 1, build
        return lead, lambda: {**build(), min(build()) - 1: field.zero}

    def doctored(field, columns, skip=frozenset()):
        return real(field, [doctor(field, col) for col in columns], skip)

    monkeypatch.setattr(linalg, "column_leads", doctored)
    path = tmp_path / "g.graph"
    path.write_text(SQUARE)
    assert main([str(path), "--methods", "snf"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("check failed: the column stored under lead row ")
    assert out.err.count("\n") == 1


def test_main_exit_code_3_when_the_forest_chain_check_fails(tmp_path, monkeypatch, capsys):
    """Forest gcds that break the divisibility chain raise
    NegativeMultiplicityError, which `main` reports as one failed check."""
    from artinkernels import spectral

    def broken(*args):
        raise spectral.NegativeMultiplicityError(
            "forest gcds with 1 and 2 trees do not form a divisibility chain")

    monkeypatch.setattr(cli, "forest_fitting_h1", broken)
    path = tmp_path / "g.graph"
    path.write_text(SQUARE)
    assert main([str(path), "--methods", "snf,forest"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("check failed: forest gcds with 1 and 2 trees do not form a "
                       "divisibility chain\n")
