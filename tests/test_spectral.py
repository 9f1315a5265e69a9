import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys

import pytest

from artinkernels import (BoundaryTables, build_flag_complex, cli, forest_fitting_h1,
                          homology_module, page_dims, shared_page_tables,
                          solve_torsion, torsion_support, twisted_boundary,
                          weighted_complex)
from artinkernels.flag import reduced_homology_ranks
from artinkernels.smith import smith_normal_form
from artinkernels.spectral import (DisconnectedGraphError, NegativeMultiplicityError,
                                   ResonantCharacterError, least_forest_costs,
                                   position_weights)
from artinkernels import Character, LabeledGraph, LaurentPoly, q_poly, resonance_sets
from artinkernels.laurent import laurent_gcd, normalize_unit
from artinkernels import laurent, smith, spectral
from artinkernels.linalg import column_leads
from artinkernels.scalars import PrimeField

from conftest import (QQ, F2, F3, dihedral_graph, random_case,
                      random_character, random_even_graph, random_matching_graph,
                      square_graph)
from oracles import (forest_fitting_h1_enumerated, least_forest_costs_listed, mult_d,
                     page_dims_every_page,
                     simplex_weight, simplex_weights, sparse,
                     truncated_homology_dims, wc_basis, wc_weights)

F5 = PrimeField(5)


def test_square_weights_match_annotations():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    tc = BoundaryTables(fc, chi, QQ)
    w6 = wc_weights(weighted_complex(tc, 6))
    assert [w6[(v,)] for v in g.vertices] == [0, 0, 0, 0]
    edge_w6 = {e: w6[e] for e in fc.simplices_of(1)}
    assert edge_w6 == {("v1", "v2"): 1, ("v2", "v3"): 1, ("v3", "v4"): 1,
                       ("v1", "v4"): 0}
    w2 = wc_weights(weighted_complex(tc, 2))
    assert [w2[(v,)] for v in g.vertices] == [0, 1, 0, 1]
    edge_w2 = {e: w2[e] for e in fc.simplices_of(1)}
    assert edge_w2 == {("v1", "v2"): 2, ("v2", "v3"): 2, ("v3", "v4"): 2,
                       ("v1", "v4"): 1}


def test_weights_agree_with_polynomial_multiplicity():
    rng = random.Random(19)
    for _ in range(6):
        g, chi = random_case(rng, max_vertices=5)
        fc = build_flag_complex(g)
        support = torsion_support(g, chi)
        tc = BoundaryTables(fc, chi, QQ)
        for d in support.values:
            weights = wc_weights(weighted_complex(tc, d))
            for s in itertools.chain(*map(fc.simplices_of, fc.masks)):
                w = simplex_weights(fc, chi, QQ, s)
                assert simplex_weight(g, chi, s, d) == mult_d(w.p * w.q, d) == weights[s]


def test_edge_weight_bound():
    rng = random.Random(29)
    for _ in range(8):
        g, chi = random_case(rng, max_vertices=6)
        support = torsion_support(g, chi)
        for d in support.values:
            for (u, v) in g.edge_list:
                mv = simplex_weight(g, chi, (u,), d) + simplex_weight(g, chi, (v,), d)
                me = simplex_weight(g, chi, (u, v), d)
                assert me - mv <= 1  # the q factor has simple roots
                assert me <= 2


def test_simplex_weight_bound():
    rng = random.Random(37)
    for _ in range(8):
        g, chi = random_case(rng, max_vertices=6)
        fc = build_flag_complex(g)
        for d in torsion_support(g, chi).values:
            for s in itertools.chain(*map(fc.simplices_of, fc.masks)):
                assert simplex_weight(g, chi, s, d) <= len(s) + 1


def test_square_pages_d6():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    pt = page_dims(weighted_complex(BoundaryTables(fc, chi, QQ), 6))
    assert pt.h(1, 0, 0) == 2
    assert pt.h(1, 1, 0) == 3
    assert pt.h(2, 1, 0) == 1
    assert pt.stable == {(1, 0): 1}
    # nothing else above the stable page
    extras = {(s, p, q): v for (s, p, q), v in pt.nonzero().items()
              if s >= 1 and (s, p, q) not in
              {(1, 0, 0), (1, 1, 0)} and not (p, q) == (1, 0)}
    assert extras == {}


def test_square_pages_d2():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    pt = page_dims(weighted_complex(BoundaryTables(fc, chi, QQ), 2))
    assert pt.h(1, 0, 0) == 1
    assert pt.h(1, 1, -1) == 1
    assert pt.h(2, 0, 0) == 1
    assert pt.h(1, 2, -1) == 3
    assert pt.h(2, 2, -1) == 2
    assert pt.h(3, 2, -1) == 1
    assert pt.stable == {(2, -1): 1}


def test_page_dims_nonincreasing_in_s_and_zero_page_pattern():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    tc = BoundaryTables(fc, chi, QQ)
    for d in (2, 6):
        pt = page_dims(weighted_complex(tc, d))
        for (s, p, q), val in pt.nonzero().items():
            if s >= 1:
                assert pt.h(s + 1, p, q) <= val
        # below the augmentation nothing lives, and the (p, -p-1) column
        # carries only the empty simplex, at p = 0
        for p in range(0, pt.max_weight + 1):
            for q in range(-5, -p - 2):
                assert pt.h(0, p, q) == 0
            if p > 0:
                assert pt.h(0, p, -p - 1) == 0
        assert pt.h(0, 0, -1) == 1


def test_zero_page_counts_simplices_by_weight():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    pt = page_dims(weighted_complex(BoundaryTables(fc, chi, QQ), 2))
    assert pt.h(0, 0, -1) == 1   # the empty simplex
    assert pt.h(0, 0, 0) == 2    # v1, v3
    assert pt.h(0, 1, -1) == 2   # v2, v4
    assert pt.h(0, 2, -1) == 3   # the three heavy edges
    assert pt.h(0, 1, 0) == 1    # e14


def test_stable_rows_recover_flag_homology():
    rng = random.Random(43)
    cases = [square_graph()]
    for _ in range(5):
        cases.append(random_case(rng, max_vertices=5))
    for g, chi in cases:
        fc = build_flag_complex(g)
        r = reduced_homology_ranks(fc, QQ)
        tc = BoundaryTables(fc, chi, QQ)
        for d in torsion_support(g, chi).values:
            pt = page_dims(weighted_complex(tc, d))
            for k in range(0, fc.dim + 1):
                assert pt.stable_row(k) == r[k]


def test_cached_page_rows_are_the_sums_over_p():
    """h_row and stable_row read the kept pages, a page past the last
    reading the last; they must equal the sum over p of h on every page
    through s_max + 1, in every row k, including rows outside the complex."""
    rng = random.Random(44)
    cases = [square_graph()] + [random_case(rng, max_vertices=6, max_weight=6)
                                for _ in range(6)]
    tables = 0
    for g, chi in cases:
        fc = build_flag_complex(g)
        tc = BoundaryTables(fc, chi, QQ)
        for d in torsion_support(g, chi).values:
            pt = page_dims(weighted_complex(tc, d))
            for k in range(-2, fc.dim + 3):
                for s in range(0, pt.s_max + 2):
                    assert pt.h_row(s, k) == sum(pt.h(s, p, k - p)
                                                 for p in range(pt.max_weight + 1)), (d, s, k)
                assert pt.stable_row(k) == sum(pt.h(pt.s_max + 1, p, k - p)
                                               for p in range(pt.max_weight + 1)), (d, k)
            tables += 1
    assert tables > 10


def test_solve_torsion_square():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    r = reduced_homology_ranks(fc, QQ)
    pt2 = page_dims(weighted_complex(BoundaryTables(fc, chi, QQ), 2))
    assert solve_torsion(pt2, r) == {0: [1, 1], 1: [0, 0, 0]}
    pt6 = page_dims(weighted_complex(BoundaryTables(fc, chi, QQ), 6))
    assert solve_torsion(pt6, r) == {0: [2, 0], 1: [0, 0, 0]}


def test_path_graph_multiplicities_match_smith():
    g = LabeledGraph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2)])
    chi = Character(g, {"a": 1, "b": 2, "c": 1})
    fc = build_flag_complex(g)
    r = reduced_homology_ranks(fc, QQ)
    tc = BoundaryTables(fc, chi, QQ)
    for d in torsion_support(g, chi).values:
        pt = page_dims(weighted_complex(tc, d))
        ns = solve_torsion(pt, r)
        dec_parts = {k: homology_module(fc, chi, QQ, k).exponents_for(d)
                     for k in range(fc.dim + 1)}
        for k, row in ns.items():
            mult = tuple(j for j, n in enumerate(row, start=1) for _ in range(n))
            assert mult == dec_parts[k]


def test_truncated_coefficient_oracle_matches_page_rows():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    tc = BoundaryTables(fc, chi, QQ)
    for d in (2, 6):
        pt = page_dims(weighted_complex(tc, d))
        for s in (1, 2, 3, 4):
            dims = truncated_homology_dims(fc, chi, d, s)
            for k in range(0, fc.dim + 1):
                assert dims[k] == sum(pt.h_row(j, k) for j in range(1, s + 1)), (d, s, k)


def test_ss_reads_nothing_of_the_smith_route(monkeypatch):
    """ss is the Smith route's independent check, so it must not read the
    Smith route's weights (`BoundaryTables.weights`), its signed boundaries
    or any Smith form: with all of them raising, `shared_page_tables`, the
    entry point of `cli.run`, and `solve_torsion` still run, and still
    agree with the Smith route's exponents computed beforehand."""
    rng = random.Random(53)
    cases = [square_graph()] + [random_case(rng, max_vertices=5) for _ in range(8)]
    want = []
    for g, chi in cases:
        fc = build_flag_complex(g)
        decs = {k: homology_module(fc, chi, QQ, k) for k in range(fc.dim + 1)}
        want.append({(k, d): decs[k].exponents_for(d)
                     for d in torsion_support(g, chi).values for k in decs})

    def forbidden(*args, **kwargs):
        raise AssertionError("ss read the Smith route")

    monkeypatch.setattr(BoundaryTables, "weights", forbidden)
    for name in ("signed_boundary", "boundary_smith_form", "cyclotomic_invariant_factors",
                 "smith_normal_form"):
        orig = getattr(smith, name)
        for mod in [m for n, m in sys.modules.items() if n.partition(".")[0] == "artinkernels"]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, forbidden)
    for (g, chi), exps in zip(cases, want):
        fc = build_flag_complex(g)
        r = reduced_homology_ranks(fc, QQ)
        tc = BoundaryTables(fc, chi, QQ)
        got = {}
        for pt in shared_page_tables(tc, torsion_support(g, chi).values):
            for k, row in solve_torsion(pt, r).items():
                got.update(((k, d), tuple(j for j, n in enumerate(row, start=1)
                                          for _ in range(n))) for d in pt.orders)
        assert got == exps, (g.raw_edges, chi.values)
    assert sum(map(len, want)) > 20


def test_pages_match_untwisted_filtration():
    """Rescaling by the leading units is a filtered isomorphism onto the
    plain incidence complex, so both must produce identical page tables."""
    from artinkernels.flag import boundary_matrix
    from artinkernels.spectral import PageTable, WeightedComplex, page_dims as pd
    rng = random.Random(47)
    cases = [square_graph()] + [random_case(rng, max_vertices=5) for _ in range(4)]
    for g, chi in cases:
        fc = build_flag_complex(g)
        tc = BoundaryTables(fc, chi, QQ)
        for d in torsion_support(g, chi).values:
            wc = weighted_complex(tc, d)
            plain = _untwisted_weighted(wc)
            a = page_dims(wc)
            b = pd(plain)
            assert a.nonzero() == b.nonzero() and a.stable == b.stable


def _untwisted_weighted(wc):
    """A WeightedComplex built from the plain +-1 incidence differential."""
    kd = wc.field
    columns = {}
    for n in range(-1, wc.t.fc.dim + 1):
        base = wc_basis(wc, n)
        rows = wc_basis(wc, n - 1) if n - 1 >= -1 else []
        pos = {s: i for i, s in enumerate(rows)}
        cols = []
        for X in base:
            col = {}
            for i in range(len(X)):
                face = X[:i] + X[i + 1:]
                col[pos[face]] = kd.one if i % 2 == 0 else kd.neg(kd.one)
            cols.append(col)
        columns[n] = cols
    return dataclasses.replace(wc, columns=columns)


def test_graded_differential_squares_to_zero():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    tc = BoundaryTables(fc, chi, QQ)
    for d in (2, 6):
        wc = weighted_complex(tc, d)
        kd = wc.field
        for n in range(0, fc.dim + 1):
            # compose sparse columns: d_(n) after d_(n+1)
            for col in wc.columns.get(n + 1, []):
                acc = {}
                for mid, unit in col.items():
                    for out, unit2 in wc.columns[n][mid].items():
                        # drops add along two-step paths with the same total,
                        # so the leading terms must cancel on their own
                        acc[out] = kd.add(acc.get(out, kd.zero), kd.mul(unit, unit2))
                assert all(kd.is_zero(v) for v in acc.values())


def _tampered_boundaries(kind):
    """The inputs of `weighted_complex` for d = 2 on the path a - b - c with
    m = (2, 1, 1), whose edge bc weighs 0 and vertex a weighs 1, with the
    entry at (b, bc) of the kept degree-1 boundary changed: "heavier row"
    moves it to row a, and "vanishing unit" multiplies it by Phi_2 = 1 + t,
    which vanishes at zeta_2."""
    g = LabeledGraph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2)])
    chi = Character(g, {"a": 2, "b": 1, "c": 1})
    tc = BoundaryTables(build_flag_complex(g), chi, QQ)
    tb = twisted_boundary(tc, 1)
    j = tb.cols.index(("b", "c"))
    col = dict(tb.columns[j])
    entry = col.pop(tb.rows.index(("b",)))
    if kind == "heavier row":
        col[tb.rows.index(("a",))] = entry
    else:
        col[tb.rows.index(("b",))] = entry * LaurentPoly(QQ, {0: 1, 1: 1})
    columns = list(tb.columns)
    columns[j] = col
    tc.boundaries[1] = dataclasses.replace(tb, columns=columns)
    return tc, 2


TAMPERED = {"heavier row": "weights must not increase along faces",
            "vanishing unit": "leading unit vanished"}


@pytest.mark.parametrize("kind", sorted(TAMPERED))
def test_weighted_complex_rejects_a_tampered_boundary(kind):
    tc, d = _tampered_boundaries(kind)
    weighted_complex(BoundaryTables(tc.fc, tc.c, QQ), d)     # untampered: accepted
    with pytest.raises(ArithmeticError, match=TAMPERED[kind]):
        weighted_complex(tc, d)


def test_weighted_complex_checks_survive_python_O():
    """The checks are raises, not asserts, so `python -O` keeps them."""
    script = "\n".join([
        "import sys",
        "from artinkernels import weighted_complex",
        "from test_spectral import _tampered_boundaries",
        "print('optimize', sys.flags.optimize)",
        "for kind in sys.argv[1:]:",
        "    try:",
        "        weighted_complex(*_tampered_boundaries(kind))",
        "    except ArithmeticError as exc:",
        "        print(kind, 'raised', exc)",
        "    else:",
        "        print(kind, 'accepted')"])
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run([sys.executable, "-O", "-c", script, *sorted(TAMPERED)],
                         env=env, cwd=here, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out[0] == "optimize 1" and len(out) == 1 + len(TAMPERED)
    for kind, line in zip(sorted(TAMPERED), out[1:]):
        assert line.startswith(f"{kind} raised {TAMPERED[kind]}"), line


def _weighted_path(m):
    """The 3-vertex path u - v - w with labels 4, 2 and m = (m, 1, 1), whose
    torsion support holds many orders with equal weights."""
    g = LabeledGraph(["u", "v", "w"], [("u", "v", 4), ("v", "w", 2)])
    return g, Character(g, {"u": m, "v": 1, "w": 1})


def _path_text(m):
    return f"vertex u {m}\nvertex v 1\nvertex w 1\nedge u v 4\nedge v w 2\n"


def test_shared_page_tables_match_each_orders_own_sweep():
    """Orders grouped by equal weights share one page table; each order's
    own sweep at its own root gives the same pages and multiplicities."""
    rng = random.Random(61)
    cases = ([random_case(rng, max_vertices=6, max_weight=12) for _ in range(10)]
             + [_weighted_path(m) for m in (60, 105, 210)])
    tables = []
    for g, chi in cases:
        fc = build_flag_complex(g)
        r = reduced_homology_ranks(fc, QQ)
        tc = BoundaryTables(fc, chi, QQ)
        support = torsion_support(g, chi).values
        shared = list(shared_page_tables(tc, support))
        assert sorted(d for pt in shared for d in pt.orders) == sorted(support)
        keys = [position_weights(tc, pt.orders[0]) for pt in shared]
        assert all(a != b for a, b in itertools.combinations(keys, 2))
        for pt, key in zip(shared, keys):
            assert pt.orders[0] == min(pt.orders)
            rows = solve_torsion(pt, r)
            for d in pt.orders:
                assert position_weights(tc, d) == key
                own = page_dims(weighted_complex(tc, d))
                assert own.orders == (d,)
                assert (own.pages, own.s_max, own.max_weight) == \
                    (pt.pages, pt.s_max, pt.max_weight), (d, pt.orders)
                assert solve_torsion(own, r) == rows, (d, pt.orders)
        tables.append([pt.orders for pt in shared])
    # the m = 60 path: 3 sweeps for 12 orders
    assert tables[-3] == [(2,), (3, 4, 5, 6, 10, 12, 15, 20, 30, 60), (122,)]
    assert sum(len(orders) > 1 for case in tables[:-3] for orders in case) > 3


def test_m60_path_sweeps_once_per_filtration_and_reads_every_orders_units(monkeypatch):
    """On the m = 60 path, `cli.run` computes 3 page tables for its 12
    orders, and still reads leading units at every one of them."""
    swept, read_at = [], set()
    real_pages, real_residue = spectral.page_dims, spectral.quotient_residue

    def counted_pages(wc):
        swept.append(wc.orders)
        return real_pages(wc)

    def counted_residue(f, d, drop):
        read_at.add(d)
        return real_residue(f, d, drop)

    monkeypatch.setattr(spectral, "page_dims", counted_pages)
    monkeypatch.setattr(spectral, "quotient_residue", counted_residue)
    data = cli.run(cli.JobConfig(text=_path_text(60), field=QQ,
                                 methods=("snf", "ss"))).data
    support = data["torsion_support"]["values"]
    assert data["status"]["ok"] and len(support) == 12
    assert len(swept) == 3 and sorted(d for orders in swept for d in orders) == support
    assert read_at == set(support)


def _vanishing_at(victim):
    """`quotient_residue` with every unit at order `victim` zero."""
    from artinkernels.laurent import cyclotomic_field
    real = spectral.quotient_residue

    def residue(f, d, drop):
        return cyclotomic_field(d).zero if d == victim else real(f, d, drop)
    return residue


def _matching_clique(weights):
    """K_n, n = len(weights), with label 4 on the pairs 01, 23, ... and
    label 2 elsewhere."""
    names = [f"v{i}" for i in range(len(weights))]
    g = LabeledGraph(names, [(names[i], names[j], 4 if j == i + 1 and i % 2 == 0 else 2)
                             for i, j in itertools.combinations(range(len(names)), 2)])
    return g, Character(g, dict(zip(names, weights)))


def _cycle(n, label, weights):
    """C_n with every edge labelled `label`, the weights repeated around it."""
    names = [f"c{i}" for i in range(n)]
    g = LabeledGraph(names, [(names[i], names[(i + 1) % n], label) for i in range(n)])
    return g, Character(g, {v: weights[i % len(weights)] for i, v in enumerate(names)})


K7_MATCHING = _matching_clique((2, 5, 1, 3, 1, 4, 6))


@pytest.mark.parametrize("case, inversions", [
    (K7_MATCHING, 1),
    (_cycle(11, 4, (1, 2, 3)), 18),
], ids=["K_7", "C_11"])
def test_a_pass_inverts_each_value_once_per_sweep_and_weighs_each_order_once(
        monkeypatch, case, inversions):
    """Each sweep's K_d memoises its inverses, so a `shared_page_tables`
    pass inverts each lead value once per sweep: once on K_7 with a label-4
    matching, whose 16 inverted leads are one K_14 value, and 18 times for
    C_11's 50.  The weights that group the orders are the ones swept, so
    `position_weights` runs once per order of the support."""
    g, chi = case
    tc = BoundaryTables(build_flag_complex(g), chi, QQ)
    support = torsion_support(g, chi).values
    inverted, weighed = [], []
    real_inverse, real_weights = laurent._int_inverse_mod, spectral.position_weights

    def counted_inverse(a, m):
        inverted.append(m)
        return real_inverse(a, m)

    def counted_weights(t, d):
        weighed.append(d)
        return real_weights(t, d)

    monkeypatch.setattr(laurent, "_int_inverse_mod", counted_inverse)
    monkeypatch.setattr(spectral, "position_weights", counted_weights)
    tables = list(shared_page_tables(tc, support))
    assert sorted(d for pt in tables for d in pt.orders) == sorted(support)
    assert len(inverted) == inversions
    assert sorted(weighed) == sorted(support)


def test_no_k_d_memo_outlives_its_sweep():
    """The memos of inverses and products live on each sweep's own K_d:
    after `cli.run` with every method, no process-wide `cyclotomic_field(d)`
    holds an entry, and the K_d of a sweep that has inverted still raises
    on 0, which it never stores."""
    laurent.cyclotomic_field.cache_clear()
    g, chi = K7_MATCHING
    data = cli.run(cli.JobConfig(text=cli.serialize_input(g, chi, QQ))).data
    support = data["torsion_support"]["values"]
    assert data["status"]["ok"] and all(m["ran"] for m in data["methods"].values())
    assert laurent.cyclotomic_field.cache_info().currsize >= len(support)
    for d in support:
        kd = laurent.cyclotomic_field(d)
        assert not kd._inverses and not kd._products, d

    wc = weighted_complex(BoundaryTables(build_flag_complex(g), chi, QQ), 14)
    kd = wc.field
    assert kd == laurent.cyclotomic_field(14) and kd is not laurent.cyclotomic_field(14)
    page_dims(wc)
    assert kd._inverses and kd._products
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            kd.inv(kd.zero)
    assert kd.zero not in kd._inverses
    assert all(kd.mul(a, b) == kd.one for a, b in kd._inverses.items())


# orders of the m = 60 path that share the sweep at d = 3
M60_SHARED = (4, 5, 6, 10, 12, 15, 20, 30, 60)


@pytest.mark.parametrize("victim", [4, 20, 60])
def test_a_unit_vanishing_only_at_a_shared_order_stops_the_run(monkeypatch, victim):
    """A unit that vanishes at one order of a group, not at the order the
    group is swept at, stops the run as it would if that order were swept."""
    assert victim in M60_SHARED
    monkeypatch.setattr(spectral, "quotient_residue", _vanishing_at(victim))
    with pytest.raises(ArithmeticError, match="leading unit vanished at "):
        cli.run(cli.JobConfig(text=_path_text(60), field=QQ, methods=("snf", "ss")))


def test_shared_order_check_survives_python_O():
    """The unit check at a shared order is a raise, not an assert, so a
    run under `python -O` still stops on a unit that vanishes only there."""
    script = "\n".join([
        "import sys",
        "from artinkernels import QQ, cli, spectral",
        "from test_spectral import _path_text, _vanishing_at",
        "print('optimize', sys.flags.optimize)",
        "spectral.quotient_residue = _vanishing_at(20)",
        "try:",
        "    cli.run(cli.JobConfig(text=_path_text(60), field=QQ, methods=('snf', 'ss')))",
        "except ArithmeticError as exc:",
        "    print('raised', exc)",
        "else:",
        "    print('accepted')"])
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, cwd=here,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "optimize 1"
    assert out[1].startswith("raised leading unit vanished at "), out


@pytest.mark.parametrize("fault, message", [
    ("rank", "stable page row 0 is 0 for d=3,4,5,6,10,12,15,20,30,60, expected r_0=1"),
    ("jordan", "a pair of degree 1 for d=3,4,5,6,10,12,15,20,30,60 has gap 4, "
               "violating the Jordan bound"),
], ids=["rank", "jordan"])
def test_multiplicity_errors_name_every_order_sharing_the_table(fault, message):
    """A failed check on a shared page table names all of its orders: a
    wrong reduced rank, or a pair of degree 1 whose gap 4 exceeds the
    Jordan bound 1 + 2."""
    g, chi = _weighted_path(60)
    fc = build_flag_complex(g)
    r = reduced_homology_ranks(fc, QQ)
    pt = next(pt for pt in shared_page_tables(BoundaryTables(fc, chi, QQ),
                                              torsion_support(g, chi).values)
              if 3 in pt.orders)
    assert pt.orders == (3, *M60_SHARED)
    if fault == "rank":
        r = [r[0] + 1, *r[1:]]
    else:
        assert (1, 4) not in pt.gaps
        pt = dataclasses.replace(pt, gaps={**pt.gaps, (1, 4): 1})
    with pytest.raises(NegativeMultiplicityError, match=re.escape(message)):
        solve_torsion(pt, r)


def _brute_page_dims(wc):
    """Page dimensions from explicit subspaces: Z^s as a nullspace, the
    divided-out part as a stacked-basis rank.  Independent of the staircase
    profile machinery."""
    from artinkernels.linalg import rank as frank
    kd = wc.field
    top = wc.t.fc.dim
    wmax = wc.max_weight

    def z_basis(s, p, n):
        # basis of F_p C_n with boundary inside F_{p-s}
        if n < -1 or n > top or p < 0:
            return []
        cols = [i for i, w in enumerate(wc.weights[n]) if w <= p]
        if not cols:
            return []
        rows_out = [i for i, w in enumerate(wc.weights.get(n - 1, [])) if w > p - s]
        mat = [[kd.zero] * len(cols) for _ in rows_out]
        for jj, ci in enumerate(cols):
            col = wc.columns[n][ci]
            for ii, ri in enumerate(rows_out):
                if ri in col:
                    mat[ii][jj] = col[ri]
        null = _nullspace(kd, mat, len(cols))
        dimn = len(wc.order[n])
        out = []
        for vec in null:
            full = [kd.zero] * dimn
            for jj, ci in enumerate(cols):
                full[ci] = vec[jj]
            out.append(full)
        return out

    def apply_boundary(vec, n):
        out = [kd.zero] * len(wc.order.get(n - 1, []))
        for ci, val in enumerate(vec):
            if kd.is_zero(val):
                continue
            for ri, unit in wc.columns[n][ci].items():
                out[ri] = kd.add(out[ri], kd.mul(val, unit))
        return out

    dims = {}
    s_hi = wmax + 3
    for n in range(-1, top + 1):
        for p in range(0, wmax + 1):
            for s in range(1, s_hi + 1):
                znum = z_basis(s, p, n)
                den = z_basis(s - 1, p - 1, n)
                den += [apply_boundary(v, n + 1)
                        for v in z_basis(s - 1, p + s - 1, n + 1)]
                stacked_den = frank(kd, sparse(den))
                stacked_all = frank(kd, sparse(den + znum))
                val = stacked_all - stacked_den
                if val:
                    dims[(s, p, n - p)] = val
    return dims


def _nullspace(kd, rows, ncols):
    # reduced row echelon, then read off the free-column vectors
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for j in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if not kd.is_zero(m[i][j]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = kd.inv(m[r][j])
        m[r] = [kd.mul(x, inv) for x in m[r]]
        for i in range(len(m)):
            if i != r and not kd.is_zero(m[i][j]):
                c = m[i][j]
                m[i] = [kd.sub(x, kd.mul(c, y)) for x, y in zip(m[i], m[r])]
        pivots.append(j)
        r += 1
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for j in free:
        vec = [kd.zero] * ncols
        vec[j] = kd.one
        for rr, pj in enumerate(pivots):
            vec[pj] = kd.neg(m[rr][j])
        out.append(vec)
    return out


def test_page_dims_match_bruteforce_subspaces():
    rng = random.Random(71)
    cases = [square_graph()] + [random_case(rng, max_vertices=4) for _ in range(5)]
    for g, chi in cases:
        fc = build_flag_complex(g)
        for d in torsion_support(g, chi).values:
            wc = weighted_complex(BoundaryTables(fc, chi, QQ), d)
            pt = page_dims(wc)
            brute = _brute_page_dims(wc)
            fast = {}
            for n in range(-1, fc.dim + 1):
                for p in range(0, wc.max_weight + 1):
                    for s in range(1, wc.max_weight + 4):
                        v = pt.h(s, p, n - p)
                        if v:
                            fast[(s, p, n - p)] = v
            assert fast == brute, (g.raw_edges, chi.values, d)


def test_truncated_dims_match_module_theory():
    """dim H_k over K_d[tau]/(tau^s) must equal
    s*r_k + sum min(e_i, s) over the Phi_d-exponents of the degree-(k+1)
    and degree-k boundaries; ties the truncated-ring route to the Smith
    engine through an independent identity."""
    rng = random.Random(73)
    cases = [square_graph()] + [random_case(rng, max_vertices=5) for _ in range(4)]
    for g, chi in cases:
        fc = build_flag_complex(g)
        r = reduced_homology_ranks(fc, QQ)
        decs = {k: homology_module(fc, chi, QQ, k) for k in range(fc.dim + 1)}
        for d in torsion_support(g, chi).values:
            for s in (1, 2, 3):
                dims = truncated_homology_dims(fc, chi, d, s)
                for k in range(fc.dim + 1):
                    own = sum(min(e, s) for e in decs[k].exponents_for(d))
                    below = sum(min(e, s) for e in decs[k - 1].exponents_for(d)) \
                        if k - 1 in decs else 0
                    assert dims[k] == s * r[k] + own + below, (d, s, k)


def test_high_degree_single_edge_all_routes():
    # label 8 with weights (3, 5): torsion orders up to 32, entry degree 24
    g = LabeledGraph(["u", "v"], [("u", "v", 8)])
    chi = Character(g, {"u": 3, "v": 5})
    fc = build_flag_complex(g)
    support = torsion_support(g, chi)
    assert set(support.values) == {3, 5, 16, 32}
    dec = homology_module(fc, chi, QQ, 0)
    assert dec.free_rank == 0
    assert forest_fitting_h1(g, chi, QQ) == dec.invariant_factors
    r = reduced_homology_ranks(fc, QQ)
    for d in support.values:
        ns = solve_torsion(page_dims(weighted_complex(BoundaryTables(fc, chi, QQ), d)), r)
        mult = tuple(j for j, n in enumerate(ns[0], start=1) for _ in range(n))
        assert mult == dec.exponents_for(d), d
    # the q factor contributes exactly its two cyclotomic orders
    assert dec.exponents_for(16) == (1,) and dec.exponents_for(32) == (1,)


def test_forest_factors_match_smith_on_fixtures():
    for g, chi in (dihedral_graph(), square_graph()):
        fc = build_flag_complex(g)
        snf = smith_normal_form(twisted_boundary(BoundaryTables(fc, chi, QQ), 1))
        assert forest_fitting_h1(g, chi, QQ) == snf.invariant_factors


def test_forest_dihedral_fitting_polynomials():
    g, chi = dihedral_graph()
    factors = forest_fitting_h1(g, chi, QQ)
    assert [str(f) for f in factors] == ["-1 + t"]


def test_forest_tree_graph_all_labels_two():
    g = LabeledGraph(["a", "b", "c", "d"],
                     [("a", "b", 2), ("b", "c", 2), ("b", "d", 2)])
    chi = Character(g, {v: 1 for v in g.vertices})
    factors = forest_fitting_h1(g, chi, QQ)
    assert [str(f) for f in factors] == ["-1 + t"] * 3
    fc = build_flag_complex(g)
    dec = homology_module(fc, chi, QQ, 0)
    assert dec.t_minus_1_exponent == 3 and dec.free_rank == 0


def test_forest_route_works_in_prime_characteristic():
    """The Fitting-gcd formula is field-agnostic for non-resonant
    characters; repeated roots mod p can grow Jordan blocks past 2."""
    g = LabeledGraph(["u", "v"], [("u", "v", 8)])
    chi = Character(g, {"u": 2, "v": 1})
    fc = build_flag_complex(g)
    snf = smith_normal_form(twisted_boundary(BoundaryTables(fc, chi, F2), 1))
    forest = forest_fitting_h1(g, chi, F2)
    assert forest == snf.invariant_factors
    # (t+1)^4 (t^2+t+1)^3 over GF(2): a single size-4 block at t+1
    from artinkernels.laurent import factor_invariant
    exps = sorted(fac.exponent for fac in factor_invariant(forest[0], F2))
    assert exps == [3, 4]

    rng = random.Random(79)
    from conftest import F3, random_case as rc
    for _ in range(6):
        gg, cc = rc(rng, max_vertices=4, require_connected=True)
        from artinkernels import resonance_sets
        for field in (F2, F3):
            if not resonance_sets(gg, cc, field).is_K_nonresonant:
                continue
            got = forest_fitting_h1(gg, cc, field)
            want = smith_normal_form(
                twisted_boundary(BoundaryTables(build_flag_complex(gg), cc, field), 1))
            assert got == want.invariant_factors, (gg.raw_edges, cc.values, field)


def test_forest_guards():
    g, chi = dihedral_graph()
    with pytest.raises(ResonantCharacterError):
        forest_fitting_h1(g, chi, F2)
    g2 = LabeledGraph(["a", "b"], [])
    chi2 = Character(g2, {"a": 1, "b": 1})
    with pytest.raises(DisconnectedGraphError):
        forest_fitting_h1(g2, chi2, QQ)


def _forest_contribution(g, c, field, chosen) -> LaurentPoly:
    """Weight polynomial of one spanning forest, already divided by the full
    vertex product and gcd-ed over root choices tree by tree: the
    polynomial reference for the forest route."""
    comp = {v: v for v in g.vertices}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    deg = {v: 0 for v in g.vertices}
    for (u, v) in chosen:
        deg[u] += 1
        deg[v] += 1
        ru, rv = find(u), find(v)
        if ru != rv:
            comp[ru] = rv
    trees: dict = {}
    for v in g.vertices:
        trees.setdefault(find(v), []).append(v)

    total = LaurentPoly.one(field)
    for members in trees.values():
        if len(members) == 1:
            continue
        root_gcd = 0
        for v in members:
            root_gcd = math.gcd(root_gcd, abs(c.m(v)))
        piece = LaurentPoly.t_power(field, root_gcd) - LaurentPoly.one(field)
        # a tree vertex of degree 1 contributes exponent 0 after the division
        for v in members:
            if deg[v] > 1:
                vf = LaurentPoly.t_power(field, c.m(v)) - LaurentPoly.one(field)
                piece = piece * vf ** (deg[v] - 1)
        total = total * piece
    for (u, v) in chosen:
        total = total * q_poly(g.ell_tilde(u, v), c.m_edge(u, v), field)
    return total


def _forest_chain_reference(g, c, field) -> list:
    """Invariant factors as quotients of per-forest polynomial gcds, the
    forests enumerated as the acyclic edge subsets."""
    n = len(g.vertices)
    gcds = {}
    for r in range(n):
        for chosen in itertools.combinations(g.edge_list, r):
            comp = {v: v for v in g.vertices}
            for (u, v) in chosen:
                while comp[u] != u:
                    u = comp[u]
                while comp[v] != v:
                    v = comp[v]
                if u == v:
                    break
                comp[u] = v
            else:
                w = normalize_unit(_forest_contribution(g, c, field, chosen))
                gcds[n - r] = laurent_gcd(gcds[n - r], w) if n - r in gcds else w
    return [normalize_unit(gcds[s].exact_div(gcds[s + 1]))
            for s in range(n - 1, 0, -1)]


def test_forest_route_matches_per_forest_polynomial_gcds():
    """The exponent-vector route against polynomial gcds over brute-force
    forests, over Q and GF(p), with the cases where p repeats roots."""
    rng = random.Random(97)
    seen = {"p | m_v": 0, "p | lt m_e": 0, "m_e = 0, lt > 1": 0}
    checked = 0
    for _ in range(40):
        g, chi = random_case(rng, max_vertices=5, require_connected=True)
        for field in (QQ, F2, F3, F5):
            if not resonance_sets(g, chi, field).is_K_nonresonant:
                continue
            p = field.char
            if p and any(chi.m(v) % p == 0 for v in g.vertices):
                seen["p | m_v"] += 1
            for (u, v) in g.edge_list:
                me, lt = chi.m_edge(u, v), g.ell_tilde(u, v)
                if p and me and (lt * me) % p == 0:
                    seen["p | lt m_e"] += 1
                # off resonance p does not divide lt here
                if p and me == 0 and lt > 1:
                    seen["m_e = 0, lt > 1"] += 1
            want = _forest_chain_reference(g, chi, field)
            assert forest_fitting_h1(g, chi, field) == want, (
                g.raw_edges, chi.values, field)
            checked += 1
    assert checked >= 100 and min(seen.values()) > 0, (checked, seen)


class _ShuffledEdges(LabeledGraph):
    """The same graph with `edge_list` and each vertex's neighbours in
    `adjacency` in a fixed shuffled order, so the forest route meets the
    edges in an order other than the sorted one."""

    def __init__(self, g, rng):
        super().__init__(g.vertices, g.raw_edges)
        self.edge_list = rng.sample(self.edge_list, len(self.edge_list))
        self.adjacency = {v: dict(rng.sample(list(nbrs.items()), len(nbrs)))
                          for v, nbrs in self.adjacency.items()}


def test_forest_sweep_matches_forest_listing():
    """The route by minimum spanning trees against the listing of every
    forest, over Q and GF(p) with the cases where p repeats roots, and with
    the edges and neighbours fed in a shuffled order."""
    rng = random.Random(113)
    seen = {"p | m_v": 0, "p | lt": 0, "neighbours reordered": 0}
    checked = 0
    for _ in range(120):
        g, chi = random_case(rng, max_vertices=7, require_connected=True,
                             max_weight=6)
        shuffled = _ShuffledEdges(g, rng)
        chi_shuffled = Character(shuffled, chi.weights)
        seen["neighbours reordered"] += any(list(shuffled.adjacency[v]) != list(g.adjacency[v])
                                            for v in g.vertices)
        for field in (QQ, F2, F3, F5):
            if not resonance_sets(g, chi, field).is_K_nonresonant:
                continue
            p = field.char
            seen["p | m_v"] += bool(p) and any(chi.m(v) % p == 0 for v in g.vertices)
            seen["p | lt"] += bool(p) and any(g.ell_tilde(u, v) % p == 0
                                              for (u, v) in g.edge_list)
            want = forest_fitting_h1_enumerated(g, chi, field)
            assert forest_fitting_h1(g, chi, field) == want, (
                g.raw_edges, chi.values, field)
            assert forest_fitting_h1(shuffled, chi_shuffled, field) == want, (
                shuffled.edge_list, chi.values, field)
            checked += 1
    assert checked >= 400 and min(seen.values()) > 0, (checked, seen)


def _cycle(n: int, label: int):
    """C_n with one label and weights 1, 2, 3, 1, ..."""
    names = [f"v{i}" for i in range(n)]
    g = LabeledGraph(names, [(names[i], names[(i + 1) % n], label)
                             for i in range(n)])
    return g, Character(g, {v: 1 + i % 3 for i, v in enumerate(names)})


def test_least_forest_costs_match_forest_listing():
    """The greatest MST(lam) - lam s over the tie values against the listing
    of every forest, each tree paying its least root cost, on random
    connected graphs of 1 to 6 vertices with costs 0..9 that need not come
    from a character."""
    rng = random.Random(131)
    for _ in range(1500):
        n = rng.randint(1, 6)
        # a random spanning tree keeps the graph connected
        pairs = {(rng.randrange(v), v) for v in range(1, n)}
        pairs |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
        edges = [(u, v, rng.randint(0, 9)) for u, v in sorted(pairs)]
        root_costs = [rng.randint(0, 9) for _ in range(n)]
        assert (least_forest_costs(n, edges, root_costs)
                == least_forest_costs_listed(n, edges, root_costs)), (edges, root_costs)


def test_forest_route_ignores_declaration_order():
    """C_30 declared in a shuffled vertex order gives the same factors as in
    cycle order."""
    g, chi = _cycle(30, 4)
    want = forest_fitting_h1(g, chi, QQ)
    rng = random.Random(7)
    for _ in range(3):
        shuffled = LabeledGraph(rng.sample(g.vertices, len(g.vertices)), g.raw_edges)
        got = forest_fitting_h1(shuffled, Character(shuffled, chi.weights), QQ)
        assert got == want, shuffled.vertices


def test_forest_multiplicity_jump_bound():
    """Removing one forest edge changes any cyclotomic multiplicity by <= 2."""
    rng = random.Random(53)
    for _ in range(5):
        g, chi = random_case(rng, max_vertices=5, require_connected=True)
        support = torsion_support(g, chi)
        if not support.values or not g.edge_list:
            continue
        edges = list(g.edge_list)
        rng.shuffle(edges)
        chosen = []
        comp = {v: v for v in g.vertices}

        def find(x):
            while comp[x] != x:
                x = comp[x]
            return x

        for e in edges:
            if find(e[0]) != find(e[1]):
                chosen.append(e)
                comp[find(e[0])] = find(e[1])
        while len(chosen) > 1:
            bigger = normalize_unit(_forest_contribution(g, chi, QQ, chosen))
            smaller = normalize_unit(_forest_contribution(g, chi, QQ, chosen[:-1]))
            for d in support.values:
                assert mult_d(bigger, d) <= mult_d(smaller, d) + 2
            chosen.pop()


def test_clearing_leaves_page_tables_unchanged(monkeypatch):
    """`page_dims` clears each degree's sweep with the leads of the degree
    above; sweeping every column must give equal page tables."""
    skipped = []

    def spy(field, columns, cleared=frozenset()):
        skipped.append(len(cleared))
        return column_leads(field, columns, cleared)

    def full(field, columns, cleared=frozenset()):
        return column_leads(field, columns)

    rng = random.Random(73)
    tables = 0
    for _ in range(40):
        g = random_matching_graph(rng, max_vertices=6)
        chi = random_character(rng, g, max_weight=5)
        fc = build_flag_complex(g)
        tc = BoundaryTables(fc, chi, QQ)
        for d in torsion_support(g, chi).values:
            wc = weighted_complex(tc, d)
            monkeypatch.setattr(spectral, "column_leads", full)
            want = page_dims(wc)
            monkeypatch.setattr(spectral, "column_leads", spy)
            assert page_dims(wc) == want, (g.raw_edges, chi.values, d)
            tables += 1
    assert tables > 50 and sum(skipped) > 0


def test_pages_up_to_degeneration_match_every_page():
    """`page_dims` counts persistence pairs and keeps pages 0 .. max_weight
    + 1, a later page reading the last; the reference evaluates the page
    formula on every page through s_max + 1 and differences its pages into
    gap counts, and `_brute_page_dims` builds pages 1 .. max_weight + 3
    from explicit subspaces where the complex is small.  The cases include
    weights up to 12, the m = 60 and m = 105 paths, tables whose pages
    past the kept ones run past max_weight + 2, and pairs of gap 2 and
    more, so that later pages differ."""
    rng = random.Random(29)
    cases = []
    for i in range(60):
        if i % 2:
            g = random_matching_graph(rng, max_vertices=6, heavy=(4, 6))
        else:
            g = random_even_graph(rng, max_vertices=6, labels=(2, 4, 6), edge_prob=0.7)
        cases.append((g, random_character(rng, g, max_weight=6)))
    cases += [random_case(rng, max_vertices=6, max_weight=12) for _ in range(20)]
    cases += [_weighted_path(60), _weighted_path(105)]
    deep = long = wide = brute = 0
    for g, chi in cases:
        fc = build_flag_complex(g)
        tc = BoundaryTables(fc, chi, QQ)
        for d in torsion_support(g, chi).values:
            wc = weighted_complex(tc, d)
            got, want = page_dims(wc), page_dims_every_page(wc)
            assert (got.nonzero(), got.stable, got.s_max, got.gaps) == \
                (want.nonzero(), want.stable, want.s_max, want.gaps), \
                (g.raw_edges, chi.weights, d)
            if sum(map(len, wc.order.values())) <= 16:
                assert {(s, p, q): v for s in range(1, wc.max_weight + 4)
                        for (p, q), v in got.page(s).items()} == _brute_page_dims(wc), \
                    (g.raw_edges, chi.weights, d)
                brute += 1
            deep += wc.max_weight >= 3
            long += got.s_max >= wc.max_weight + 3
            wide += any(j >= 2 for _, j in got.gaps)
    assert deep and long and wide >= 5 and brute > 50, (deep, long, wide, brute)
