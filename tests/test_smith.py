import random
import re
from dataclasses import replace
from itertools import combinations

import pytest

from artinkernels import (BoundaryTables, Character, LabeledGraph, LaurentPoly,
                          ModuleDecomposition, boundary_smith_form, build_flag_complex,
                          homology_module, homology_modules, image_dims,
                          resonance_sets, torsion_support, twisted_boundary,
                          verify_shape)
from artinkernels import linalg, smith
from artinkernels.cli import (SELF_CHECK, JobConfig, fixture_text, parse_input, run,
                              serialize_input)
from artinkernels.flag import boundary_matrix, reduced_homology_ranks
from artinkernels.laurent import (cyclotomic, cyclotomic_product, factor_invariant,
                                  laurent_gcd, normalize_unit, totient)
from artinkernels.linalg import BottomEchelon
from artinkernels.scalars import PrimeField
from artinkernels.smith import (cyclotomic_invariant_factors, decompose_torsion,
                                signed_boundary, smith_normal_form)

from conftest import (QQ, F2, F3, dihedral_graph, random_case,
                      random_even_graph, random_matching_graph,
                      square_diagonal_graph, square_graph)
from oracles import (det, evaluate, exponents_every_vector, mult_d, poly_matrix,
                     submatrix)


def L(coeffs, field=QQ):
    return LaurentPoly(field, {e: field.from_int(c) for e, c in coeffs.items()})


def pm(rows, field=QQ):
    """PolyMatrix from integer-coefficient dicts."""
    entries = [[L(e, field) if isinstance(e, dict) else e for e in row] for row in rows]
    rlab = [(f"r{i}",) for i in range(len(rows))]
    clab = [(f"c{j}",) for j in range(len(rows[0]))] if rows else []
    return poly_matrix(rlab, clab, entries, field)


def test_snf_already_diagonal():
    tm1 = {0: -1, 1: 1}
    d2 = {0: -1, 2: 1}  # (t-1)(t+1)
    m = pm([[tm1, {}], [{}, d2]])
    s = smith_normal_form(m)
    assert [str(f) for f in s.invariant_factors] == ["-1 + t", "-1 + t^2"]


def test_snf_dihedral_column():
    m = pm([[{1: 2, 0: -2}], [{-1: -2, 0: 2}]])
    s = smith_normal_form(m)
    assert s.rank == 1
    assert s.invariant_factors == [L({0: -1, 1: 1})]


def test_snf_zero_matrix():
    m = pm([[{}, {}], [{}, {}]])
    s = smith_normal_form(m)
    assert s.rank == 0 and s.invariant_factors == []


def test_snf_antidiagonal_needs_reordering():
    m = pm([[{}, {0: -1, 1: 1}], [{0: 1}, {}]])
    s = smith_normal_form(m)
    assert [str(f) for f in s.invariant_factors] == ["1", "-1 + t"]


def _random_poly_matrix(rng, field, nr, nc, deg=2):
    rows = []
    for _ in range(nr):
        row = []
        for _ in range(nc):
            coeffs = {e: rng.randint(-2, 2) for e in range(rng.randint(0, deg) + 1)}
            row.append(LaurentPoly(field, {e: field.from_int(c)
                                           for e, c in coeffs.items()}))
        rows.append(row)
    rlab = [(f"r{i}",) for i in range(nr)]
    clab = [(f"c{j}",) for j in range(nc)]
    return poly_matrix(rlab, clab, rows, field)


def test_snf_reference_matches_the_engine_on_fixtures_and_divides():
    """The Euclidean reference gives the engine's invariant factors on every
    nonempty boundary of the bundled fixtures over Q, GF(2) and GF(3), and
    a divisibility chain on random matrices."""
    checked = 0
    for name in dict.fromkeys(name for name, _field in SELF_CHECK):
        parsed = parse_input(fixture_text(name))
        fc = build_flag_complex(parsed.graph)
        for field in (QQ, F2, F3):
            t = BoundaryTables(fc, parsed.character, field)
            for k in range(fc.dim + 1):
                want = boundary_smith_form(t, k).invariant_factors
                assert smith_normal_form(twisted_boundary(t, k)).invariant_factors == want, \
                    (name, str(field), k)
                checked += 1
    assert checked == 36
    rng = random.Random(3)
    for trial in range(12):
        field = QQ if trial % 2 == 0 else F2
        m = _random_poly_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        s = smith_normal_form(m)
        for f, g in zip(s.invariant_factors, s.invariant_factors[1:]):
            assert g.exact_div(f) is not None


def test_fitting_gcd_of_minors_matches_snf_products():
    """Brute-force oracle: gcd of all s x s minors equals d_1 ... d_s."""
    rng = random.Random(9)
    checked = 0
    for trial in range(14):
        field = QQ if trial % 3 else F2
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_poly_matrix(rng, field, nr, nc, deg=2)
        s = smith_normal_form(m)
        for size in range(1, min(nr, nc) + 1):
            gcd = LaurentPoly.zero(field)
            for ri in combinations(range(nr), size):
                for ci in combinations(range(nc), size):
                    sub = submatrix(m, [m.rows[i] for i in ri],
                                    [m.cols[j] for j in ci])
                    minor = det(sub)
                    if not minor.is_zero():
                        gcd = laurent_gcd(gcd, minor)
            if size <= s.rank:
                prod = LaurentPoly.one(field)
                for f in s.invariant_factors[:size]:
                    prod = prod * f
                assert gcd == normalize_unit(prod)
                checked += 1
            else:
                assert gcd.is_zero()
    assert checked > 10


def test_homology_dihedral_both_fields():
    g, chi = dihedral_graph()
    fc = build_flag_complex(g)
    dq = homology_module(fc, chi, QQ, 0)
    assert dq.free_rank == 0
    assert dq.invariant_factors == [L({0: -1, 1: 1})]
    d2 = homology_module(fc, chi, F2, 0)
    assert d2.free_rank == 1 and d2.invariant_factors == []


def test_homology_square_over_q():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    dec = homology_module(fc, chi, QQ, 0)
    assert dec.free_rank == 0
    assert dec.t_minus_1_exponent == 3
    assert dec.primary_parts == {2: [1, 2], 6: [1, 1]}
    top = homology_module(fc, chi, QQ, 1)
    assert top.free_rank == 1 and top.invariant_factors == []


def test_homology_square_diagonal_resonant_f2():
    g, chi, chi2 = square_diagonal_graph()
    fc = build_flag_complex(g)
    tp1 = L({0: 1, 1: 1}, F2)
    h1 = homology_module(fc, chi, F2, 0)
    assert h1.free_rank == 0 and h1.invariant_factors == [tp1] * 3
    h2 = homology_module(fc, chi, F2, 1)
    assert h2.free_rank == 1 and h2.invariant_factors == [tp1]
    h1b = homology_module(fc, chi2, F2, 0)
    assert h1b.invariant_factors == [tp1] * 2
    h2b = homology_module(fc, chi2, F2, 1)
    assert h2b.free_rank == 3 and h2b.invariant_factors == []


def test_verify_shape_on_fixtures():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    res = resonance_sets(g, chi, QQ)
    support = torsion_support(g, chi)
    ranks = reduced_homology_ranks(fc, QQ)
    ims = image_dims(fc, QQ)
    for k in (0, 1):
        dec = homology_module(fc, chi, QQ, k)
        rep = verify_shape(dec, support, ims, ranks, res, chi)
        assert rep.skipped is None and rep.ok, [c for c in rep.checks]
    tcheck = {c.name: c for c in verify_shape(
        homology_module(fc, chi, QQ, 0), support, ims, ranks, res, chi).checks}
    assert "exponent=3" in tcheck["t-minus-1-part"].detail


def test_verify_shape_skips_resonant():
    g, chi, _ = square_diagonal_graph()
    fc = build_flag_complex(g)
    res = resonance_sets(g, chi, F2)
    dec = homology_module(fc, chi, F2, 0)
    rep = verify_shape(dec, None, [], [], res, chi)
    assert rep.skipped == "K-resonant character"


def test_verify_shape_skips_t_part_when_char_divides_half_label():
    # single edge with label 4 over GF(2): q_2 vanishes at t=1, the (t-1)
    # exponent claim does not apply, but torsion must stay in the support
    g = LabeledGraph(["u", "v"], [("u", "v", 4)])
    chi = Character(g, {"u": 1, "v": 2})
    fc = build_flag_complex(g)
    res = resonance_sets(g, chi, F2)
    assert res.is_K_nonresonant
    support = torsion_support(g, chi)
    dec = homology_module(fc, chi, F2, 0)
    rep = verify_shape(dec, support, image_dims(fc, F2),
                       reduced_homology_ranks(fc, F2), res, chi)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["t-minus-1-part"].status == "skip"
    assert by_name["torsion-in-support"].status == "pass"
    assert rep.ok


def test_free_rank_agrees_with_random_specialization():
    rng = random.Random(31)
    for _ in range(6):
        g, chi = random_case(rng, max_vertices=5)
        fc = build_flag_complex(g)
        t = BoundaryTables(fc, chi, QQ)
        for k in range(0, fc.dim + 1):
            dec = homology_module(fc, chi, QQ, k)
            # specialize t to a value that is not a root of any torsion
            # factor or of t; a large prime argument is safely generic
            x = QQ.from_int(9973)
            mk = evaluate(twisted_boundary(t, k), x)
            mk1 = evaluate(twisted_boundary(t, k + 1), x)
            from artinkernels.linalg import rank as frank
            dim = len(fc.simplices_of(k)) - frank(QQ, mk) - frank(QQ, mk1)
            assert dim == dec.free_rank


def _seeded_cases(rng, count):
    """FC graphs on up to 5 vertices with labels 2/4/6 and weights -2..2,
    zeros included: small enough degrees for the Euclidean reference over Q."""
    for _ in range(count):
        g = random_even_graph(rng, max_vertices=5, labels=(2, 4, 6))
        yield g, Character(g, {v: rng.randint(-2, 2) for v in g.vertices})


def test_cyclotomic_engine_agrees_with_euclidean_on_small_cases():
    """The persistence engine and the Euclidean reference give the same
    invariant factors over Q, GF(2), GF(3) and GF(5), resonant characters
    and characteristic-p folding included."""
    fields = (QQ, F2, F3, PrimeField(5))
    rng = random.Random(61)
    cases = [dihedral_graph(), square_graph()] + list(_seeded_cases(rng, 150))
    seen = set()
    compared = 0
    for g, chi in cases:
        fc = build_flag_complex(g)
        for field in fields:
            p = field.char
            t = BoundaryTables(fc, chi, field)
            for k in range(fc.dim + 2):
                a = boundary_smith_form(t, k)
                b = smith_normal_form(twisted_boundary(t, k))
                context = (g.raw_edges, chi.values, field.char, k)
                assert a.rank == b.rank, context
                assert a.invariant_factors == b.invariant_factors, context
                compared += 1
                if a.exponents and max(max(s) for s in a.exponents.values()) >= 2:
                    seen.add("exponent >= 2")
            if any(chi.m(v) == 0 for v in g.vertices):
                seen.add("m_v = 0")
            if p and any(chi.m(v) and chi.m(v) % p == 0 for v in g.vertices):
                seen.add("p | m_v")
            if p and any(chi.m_edge(u, v) == 0 and g.ell_tilde(u, v) % p == 0
                         for u, v in g.edge_list):
                seen.add("m_e = 0, p | lt")
    assert seen == {"exponent >= 2", "m_v = 0", "p | m_v", "m_e = 0, p | lt"}
    assert compared > 100


def _modules(g, chi, field):
    fc = build_flag_complex(g)
    decs = homology_modules(BoundaryTables(fc, chi, field), range(fc.dim + 1))[1]
    return {k: (dec.free_rank, [str(f) for f in dec.invariant_factors])
            for k, dec in decs.items()}


def test_decomposition_invariant_under_vertex_permutation():
    rng = random.Random(67)
    g, _chi, chi2 = square_diagonal_graph()
    names = [f"v{i}" for i in range(8)]
    matching = {("v0", "v1"), ("v2", "v3"), ("v4", "v5"), ("v6", "v7")}
    k8 = LabeledGraph(names, [(u, v, 4 if (u, v) in matching else 2)
                              for i, u in enumerate(names) for v in names[i + 1:]])
    k8_chi = Character(k8, dict(zip(names, (2, 5, 1, 3, 1, 4, 4, 4))))
    for g, chi, field, shuffles in ((g, chi2, F2, 4), (k8, k8_chi, F3, 3)):
        base = _modules(g, chi, field)
        for _ in range(shuffles):
            order = list(g.vertices)
            rng.shuffle(order)
            pg = LabeledGraph(order, [(u, v, g.ell(u, v)) for u, v in g.edge_list])
            assert _modules(pg, Character(pg, {v: chi.m(v) for v in order}), field) == base


def test_dihedral_label_six_characteristic_split():
    # the edge group with label 6 loses its torsion exactly in characteristic 3
    g = LabeledGraph(["u", "v"], [("u", "v", 6)])
    chi = Character(g, {"u": 1, "v": -1})
    fc = build_flag_complex(g)
    from conftest import F3
    over_q = homology_module(fc, chi, QQ, 0)
    assert over_q.free_rank == 0 and [str(f) for f in over_q.invariant_factors] == ["-1 + t"]
    over_3 = homology_module(fc, chi, F3, 0)
    assert over_3.free_rank == 1 and over_3.invariant_factors == []
    over_2 = homology_module(fc, chi, F2, 0)
    assert over_2.free_rank == 0 and [str(f) for f in over_2.invariant_factors] == ["1 + t"]


def test_disconnected_torsion_is_componentwise_direct_sum():
    g = LabeledGraph(
        ["a", "b", "c", "x", "y"],
        [("a", "b", 4), ("b", "c", 2), ("a", "c", 2), ("x", "y", 6)])
    # the restriction to {x, y} has gcd 2, deliberately not an epimorphism
    chi = Character(g, {"a": 1, "b": 2, "c": 1, "x": 2, "y": 4})
    fc = build_flag_complex(g)
    whole = homology_module(fc, chi, QQ, 0)
    pieces = []
    for comp in (("a", "b", "c"), ("x", "y")):
        sub = LabeledGraph(comp, [(u, v, g.ell(u, v)) for (u, v) in g.edge_list
                                  if u in comp and v in comp])
        sub_t = BoundaryTables(build_flag_complex(sub), chi.restrict(sub), QQ)
        sub_snf = smith_normal_form(twisted_boundary(sub_t, 1))
        # a unit factor of the Euclidean form peels to no factor at all
        pieces += [(f.cyclotomic_order, f.exponent) for inv in sub_snf.invariant_factors
                   for f in factor_invariant(inv, QQ)]
    # the elementary divisors Phi_d^e of a direct sum are the union of its
    # parts'; its invariant factors in general are not
    assert sorted((d, e) for d, slots in whole.exponents.items() for e in slots if e) \
        == sorted(pieces)


def _refactored_reference(snf, field):
    """Primary parts, (t-1)-exponent and each factor's {order: exponent} as
    found by factoring the multiplied-out invariant factors back into
    cyclotomics."""
    terms = [factor_invariant(f, field) for f in snf.invariant_factors]
    primary, t1 = {}, 0
    for fl in terms:
        for fac in fl:
            assert fac.cyclotomic_order is not None
            assert fac.poly == cyclotomic(fac.cyclotomic_order, field)
            if fac.cyclotomic_order == 1:
                t1 += fac.exponent
            else:
                primary.setdefault(fac.cyclotomic_order, []).append(fac.exponent)
    per_factor = [{fac.cyclotomic_order: fac.exponent for fac in fl} for fl in terms]
    return {d: sorted(es) for d, es in primary.items()}, t1, per_factor


def _slots(dec) -> list:
    """Invariant factor i of `dec` as {d: its Phi_d-exponent}, read from
    slot i of `dec.exponents`."""
    return [{d: slots[i] for d, slots in dec.exponents.items() if slots[i]}
            for i in range(len(dec.invariant_factors))]


def test_decompose_torsion_reads_exponents_as_factoring_would():
    """Over Q and over GF(2), GF(3) and GF(5), the Phi_d-exponents of each
    invariant factor are what `factor_invariant` peels off it; mod p they
    sit on folded orders d, p not dividing d, and some Q order p^a d with
    a >= 1 folds onto an order that occurs."""
    rng = random.Random(0x5EED)
    cases = [random_case(rng, max_vertices=6, require_connected=True)
             for _ in range(30)]
    path = LabeledGraph(["a", "b", "c"], [("a", "b", 4), ("b", "c", 2)])
    cases.append((path, Character(path, {"a": 60, "b": 1, "c": 1})))
    high_exponent = large_order = False
    folded = set()
    for g, chi in cases:
        fc = build_flag_complex(g)
        q_orders = {}
        for field in (QQ, F2, F3, PrimeField(5)):
            p = field.char
            t = BoundaryTables(fc, chi, field)
            for k in range(t.fc.dim + 1):
                snf = boundary_smith_form(t, k + 1)
                assert all(slots[-1] for slots in snf.exponents.values())
                if snf.rank == 0:
                    assert snf.exponents == {}
                dec = decompose_torsion(k, 0, snf, field)
                primary, t1, per_factor = _refactored_reference(snf, field)
                context = (g.raw_edges, chi.values, k, p)
                if p == 0:
                    assert dec.primary_parts == primary, context
                    q_orders[k] = set(snf.exponents)
                    high_exponent |= any(max(s) >= 2 for s in snf.exponents.values())
                    large_order |= any(totient(d) >= 4 for d in snf.exponents)
                else:
                    assert all(d % p for d in snf.exponents), context
                    for e in q_orders[k]:
                        d = e
                        while d % p == 0:
                            d //= p
                        if d != e and d in snf.exponents:
                            folded.add(p)
                assert dec.t_minus_1_exponent == t1, context
                assert _slots(dec) == per_factor, context
    assert high_exponent and large_order
    assert folded == {2, 3, 5}


def test_verify_shape_divisibility_chain_verdicts(monkeypatch):
    """`divisibility-chain` fails on distinct factors where the first does
    not divide the second, and passes on equal factors, dividing only when
    they are not one object."""
    g, chi = square_graph()
    fc = build_flag_complex(g)
    res, support = resonance_sets(g, chi, QQ), torsion_support(g, chi)
    ranks, ims = reduced_homology_ranks(fc, QQ), image_dims(fc, QQ)
    divisions = []
    real_div = LaurentPoly.exact_div

    def counted_div(self, other):
        divisions.append(1)
        return real_div(self, other)

    monkeypatch.setattr(LaurentPoly, "exact_div", counted_div)

    def chain(factors, exponents):
        divisions.clear()
        dec = ModuleDecomposition(0, QQ, ranks[0], factors, exponents)
        checks = verify_shape(dec, support, ims, ranks, res, chi).checks
        return {c.name: c.status for c in checks}["divisibility-chain"], len(divisions)

    phi1, phi2 = cyclotomic(1, QQ), cyclotomic(2, QQ)
    assert chain([phi1, phi2], {1: [1, 0], 2: [0, 1]}) == ("fail", 1)
    assert chain([phi1, phi1], {1: [1, 1]}) == ("pass", 0)
    assert chain([phi1, phi1 * LaurentPoly.one(QQ)], {1: [1, 1]}) == ("pass", 1)


def test_verify_shape_fails_each_doctored_decomposition():
    """On the square fixture over Q, H_1 has free rank 0 and Phi_1-exponents
    [1, 1, 1].  A wrong free rank fails `free-rank`; a Phi_1 exponent 2 at
    the same total fails `t-minus-1-part` by its semisimplicity clause; an
    order outside the torsion support fails `torsion-in-support`.  Each
    doctored copy fails that check alone."""
    g, chi = square_graph()
    fc = build_flag_complex(g)
    res, support = resonance_sets(g, chi, QQ), torsion_support(g, chi)
    ranks, ims = reduced_homology_ranks(fc, QQ), image_dims(fc, QQ)
    dec = homology_module(fc, chi, QQ, 0)
    assert dec.free_rank == 0 and dec.exponents[1] == [1, 1, 1]
    outside = 5
    assert outside not in support.values

    def verdicts(doctored):
        rep = verify_shape(doctored, support, ims, ranks, res, chi)
        return {c.name: (c.status, c.detail) for c in rep.checks}

    assert {name: v[0] for name, v in verdicts(dec).items()} == dict.fromkeys(
        ("divisibility-chain", "free-rank", "t-minus-1-part", "torsion-in-support"), "pass")
    for name, doctored, detail in (
            ("free-rank", replace(dec, free_rank=1), "free=1 reduced-homology=0"),
            ("t-minus-1-part", replace(dec, exponents={**dec.exponents, 1: [0, 1, 2]}),
             "semisimple=False exponent=3 im-dim=3"),
            ("torsion-in-support", replace(dec, exponents={**dec.exponents, outside: [0, 0, 1]}),
             "")):
        got = verdicts(doctored)
        assert got[name] == ("fail", detail), name
        assert all(status == "pass" for other, (status, _) in got.items() if other != name)


def test_invariant_factors_are_one_object_per_exponent_vector():
    """Over Q and GF(3), `cyclotomic_invariant_factors` multiplies out each
    distinct slot exponent vector once: equal vectors share one object,
    which equals its own `cyclotomic_product`."""
    rng = random.Random(0x5A3E)
    shared = 0
    for _ in range(20):
        g, chi = random_case(rng, max_vertices=6, labels=(2, 4), edge_prob=0.8,
                             allow_zero=True)
        fc = build_flag_complex(g)
        for field in (QQ, F3):
            t = BoundaryTables(fc, chi, field)
            for k in range(fc.dim + 2):
                snf = cyclotomic_invariant_factors(signed_boundary(t, k)[0], t.weights(k - 1),
                                                   t.weights(k), field)
                by_vector = {}
                for i, f in enumerate(snf.invariant_factors):
                    vector = {d: slots[i] for d, slots in snf.exponents.items() if slots[i]}
                    assert by_vector.setdefault(tuple(vector.items()), f) is f
                    assert f == cyclotomic_product(vector, field), (g.raw_edges, field, k)
                assert len({id(f) for f in snf.invariant_factors}) == len(by_vector)
                shared += snf.rank - len(by_vector)
    assert shared > 0


def test_decomposition_slots_rebuild_the_module_in_every_characteristic():
    """Over Q, GF(2) and GF(3), slot i of `dec.exponents` multiplies out to
    invariant factor i, and the (t-1)-exponent and the cyclotomic parts read
    those same slots.  Mod p the slots hold the folded weights, so p | m_v
    cases are drawn on purpose, and so are zero weights."""
    rng = random.Random(0xE9F0)
    cases = [random_case(rng, max_vertices=5, max_weight=6, require_connected=True,
                         allow_zero=i % 2 == 1)
             for i in range(24)]
    cases.append(square_graph())
    torsion = dict.fromkeys((0, 2, 3), 0)
    p_divides = dict.fromkeys((2, 3), 0)
    for g, chi in cases:
        fc = build_flag_complex(g)
        for field in (QQ, F2, F3):
            _, decs = homology_modules(BoundaryTables(fc, chi, field), range(fc.dim + 1))
            for k, dec in decs.items():
                context = (g.raw_edges, chi.values, str(field), k)
                slots = _slots(dec)
                assert all(len(s) == len(slots) for s in dec.exponents.values()), context
                assert all(slots), context          # each factor is nontrivial
                assert dec.invariant_factors == [cyclotomic_product(s, field)
                                                 for s in slots], context
                assert dec.t_minus_1_exponent == sum(s.get(1, 0) for s in slots), context
                assert dec.cyclotomic_parts == {
                    d: [s[d] for s in slots if d in s]
                    for d in sorted({d for s in slots for d in s}) if d >= 2}, context
                torsion[field.char] += len(slots)
                if field.char and any(chi.m(v) % field.char == 0 for v in g.vertices):
                    p_divides[field.char] += len(slots)
    assert all(torsion.values()) and all(p_divides.values()), (torsion, p_divides)


def test_every_reported_invariant_factor_carries_t_minus_1():
    """`decompose_torsion` takes the Smith form whole, which is sound only
    because no invariant factor a run reports is trivial: a kept cell's
    entry carries t^(m_v) - 1 with m_v != 0, so every pivot gap at d = 1 is
    at least 1.  Checked on seeded runs over Q, GF(2), GF(3) and GF(5),
    with zero weights and resonant edges among them."""
    rng = random.Random(0x7F11)
    cases = [random_case(rng, max_vertices=5, max_weight=6, allow_zero=i % 2 == 1)
             for i in range(30)]
    cases.append(square_diagonal_graph()[::2])
    factors = dict.fromkeys((0, 2, 3, 5), 0)
    resonant = dict.fromkeys((0, 2, 3, 5), 0)
    for g, chi in cases:
        fc = build_flag_complex(g)
        for field in (QQ, F2, F3, F5):
            t = BoundaryTables(fc, chi, field)
            _, decs = homology_modules(t, range(fc.dim + 1))
            res = resonance_sets(g, chi, field)
            for k, dec in decs.items():
                ones = dec.exponents.get(1, [])
                assert len(ones) == len(dec.invariant_factors), (g.raw_edges, chi.values, k)
                assert all(e >= 1 for e in ones), (g.raw_edges, chi.values, str(field), k)
                factors[field.char] += len(ones)
                resonant[field.char] += len(ones) * (not res.is_K_nonresonant)
    assert all(factors.values()) and all(resonant.values()), (factors, resonant)


# the top simplex's column holds a masked cell at i = 0 and a kept one at
# i = k: over Q the vertex a of weight 0 is a zero factor that the face (b)
# lacks; over GF(3) so is the label-6 edge ab with m_a + m_b = 0, which the
# face (b, c) lacks
FAULT_CASES = {
    "Q": (QQ, LabeledGraph(["a", "b"], [("a", "b", 4)]), {"a": 0, "b": 1}),
    "GF(3)": (F3, LabeledGraph(["a", "b", "c"], [("a", "b", 6), ("a", "c", 2), ("b", "c", 2)]),
              {"a": 1, "b": -1, "c": 1}),
}


@pytest.mark.parametrize("fault", ["moved into a masked cell", "zeroed", "times t - 1"])
@pytest.mark.parametrize("case", list(FAULT_CASES))
def test_the_walk_rejects_a_doctored_entry(monkeypatch, case, fault):
    """One entry of the top boundary doctored through `BoundaryTables.entry`
    makes `boundary_smith_form` raise at the doctored cell: moved from its
    cell into a masked one (met first, so the masked cell must raise), set
    to zero, or multiplied by t - 1 so that its span is one too many."""
    field, g, weights = FAULT_CASES[case]
    t = BoundaryTables(build_flag_complex(g), Character(g, weights), field)
    k = t.fc.dim
    X, fs = t.fc.masks[k][0], t.fc.facets(k)[0]
    top = X.bit_length() - 1
    columns, _ = signed_boundary(t, k)
    assert fs[0] not in columns[0] and fs[k] in columns[0]
    boundary_smith_form(t, k)
    real, zero = BoundaryTables.entry, LaurentPoly.zero(t.field)
    t_minus_1 = LaurentPoly.t_power(t.field, 1) - LaurentPoly.one(t.field)

    def doctored(self, Y, i, v):
        e = real(self, Y, i, v)
        if Y != X:
            return e
        if fault == "moved into a masked cell":
            return real(self, Y, k, top) if i == 0 else zero if i == k else e
        if i != k:
            return e
        return zero if fault == "zeroed" else e * t_minus_1

    monkeypatch.setattr(BoundaryTables, "entry", doctored)
    cell = t.fc.simplices_of(k - 1)[fs[0] if fault.startswith("moved") else fs[k]]
    with pytest.raises(ArithmeticError, match=re.escape(f"do not match the entry at {cell}")):
        boundary_smith_form(BoundaryTables(t.fc, t.c, field), k)


def test_decompose_torsion_over_q_needs_exponents():
    g, chi = dihedral_graph()
    fc = build_flag_complex(g)
    snf = smith_normal_form(twisted_boundary(BoundaryTables(fc, chi, QQ), 1))
    assert snf.exponents is None and snf.rank == 1
    with pytest.raises(ValueError):
        decompose_torsion(0, 0, snf, QQ)


# ---------------------------------------------------------------------------
# clearing
# ---------------------------------------------------------------------------

F5 = PrimeField(5)


def _clearing_cases(rng, count):
    """FC graphs on up to 7 vertices, labels 4, 6, 10 on a matching and 2
    elsewhere, weights -5..5, zeros included, so that m_v = 0, p | m_v and
    p | lt all occur for p = 2, 3, 5."""
    for _ in range(count):
        g = random_matching_graph(rng)
        chi = Character(g, {v: rng.randint(-5, 5) for v in g.vertices})
        if not chi.is_zero:
            yield g, chi


def _smith_without_clearing(t, degrees):
    """`homology_modules` with every column reduced: each boundary alone."""
    snfs = {k: boundary_smith_form(t, k) for k in range(degrees.start, degrees.stop + 1)}
    decs = {k: decompose_torsion(k, len(t.fc.simplices_of(k)) - snfs[k].rank - snfs[k + 1].rank,
                                 snfs[k + 1], t.field)
            for k in degrees}
    return snfs, decs


def test_clearing_leaves_smith_forms_and_modules_unchanged(monkeypatch):
    """Each reduction of `homology_modules` skips the columns the degree
    above cleared; reducing every column must give equal Smith forms (pivot
    rows included) and modules, while inserting fewer columns."""
    inserts = {True: 0, False: 0}
    clearing = [True]

    class CountingEchelon(BottomEchelon):
        def insert(self, vec):
            inserts[clearing[0]] += 1
            return super().insert(vec)

    monkeypatch.setattr(linalg, "BottomEchelon", CountingEchelon)
    rng = random.Random(71)
    seen = set()
    for g, chi in _clearing_cases(rng, 60):
        fc = build_flag_complex(g)
        for field in (QQ, F2, F3, F5):
            p = field.char
            t = BoundaryTables(fc, chi, field)
            for k_max in sorted({fc.dim, rng.randint(0, fc.dim)}):
                degrees = range(k_max + 1)
                clearing[0] = True
                got = homology_modules(t, degrees)
                clearing[0] = False
                want = _smith_without_clearing(t, degrees)
                assert got == want, (g.raw_edges, chi.values, p, k_max)
                if k_max < fc.dim:
                    seen.add("k_max < dim")
            if any(chi.m(v) == 0 for v in g.vertices):
                seen.add("m_v = 0")
            if p and any(chi.m(v) and chi.m(v) % p == 0 for v in g.vertices):
                seen.add("p | m_v")
            if p and any(g.ell_tilde(u, v) % p == 0 for u, v in g.edge_list):
                seen.add("p | lt")
    assert seen == {"k_max < dim", "m_v = 0", "p | m_v", "p | lt"}
    assert inserts[True] < 0.8 * inserts[False], inserts


def _check_clearing_against_full_eliminations(mp, rng, count) -> dict:
    """On seeded random FC graphs (labels 2, 4, 6, weights with zeros):
    `image_dims` over Q, GF(2) and GF(3) equals the full rank of every
    `boundary_matrix`, and every cleared rank at t = 2 the Smith route
    checks over Q equals the full rank of its `twisted_boundary` evaluated
    at t = 2.  Returns the columns each elimination skipped."""
    skipped = {"image_dims": 0, "t = 2": 0}
    real_rank, real_point_rank = linalg.rank, smith.specialized_rank
    point_ranks = []
    two = QQ.from_int(2)

    def rank_spy(field, rows, skip=frozenset(), leads=None):
        skipped["image_dims"] += len(skip)
        return real_rank(field, rows, skip, leads)

    def point_rank_spy(field, at_point, cleared=frozenset(), leads=None):
        got = real_point_rank(field, at_point, cleared, leads)
        point_ranks.append(got)
        skipped["t = 2"] += len(cleared)
        return got

    for _ in range(count):
        g, chi = random_case(rng, max_vertices=6, labels=(2, 2, 4, 6), edge_prob=0.8,
                             allow_zero=True)
        fc = build_flag_complex(g)
        for field in (QQ, F2, F3):
            with mp.context() as spy:
                spy.setattr(linalg, "rank", rank_spy)
                got = image_dims(fc, field)
            assert got == [real_rank(field, boundary_matrix(fc, k, field).columns)
                           for k in range(fc.dim + 2)], (g.raw_edges, field)
        t = BoundaryTables(fc, chi, QQ)
        point_ranks.clear()
        with mp.context() as spy:
            spy.setattr(smith, "specialized_rank", point_rank_spy)
            homology_modules(t, range(fc.dim + 1))
        assert point_ranks == [real_rank(QQ, evaluate(twisted_boundary(t, k), two))
                               for k in range(fc.dim + 1, -1, -1)], (g.raw_edges, point_ranks)
    return skipped


def test_clearing_in_both_check_eliminations_matches_full_ones(monkeypatch):
    skipped = _check_clearing_against_full_eliminations(monkeypatch, random.Random(97), 25)
    assert skipped["image_dims"] > 50 and skipped["t = 2"] > 50, skipped


def test_differential_clearing_catches_one_column_cleared_too_many(monkeypatch):
    """A mutant that, whenever it clears, also skips the last column left
    fails the check above."""
    real = linalg.column_leads

    def one_more(field, columns, skip=frozenset()):
        columns = list(columns)
        if skip:
            skip = set(skip) | {max(set(range(len(columns))) - set(skip), default=None)}
        return real(field, columns, skip)

    monkeypatch.setattr(linalg, "column_leads", one_more)
    with pytest.raises((AssertionError, ArithmeticError)):
        _check_clearing_against_full_eliminations(monkeypatch, random.Random(97), 25)


def test_pivot_minor_certificate_matches_reducing_every_weight_vector(monkeypatch):
    """On seeded matching graphs (up to 7 vertices, weights -6..6, zeros
    included) over Q, GF(2), GF(3) and GF(5), each degree reduced from the
    top down with clearing: `cyclotomic_invariant_factors`, which skips the
    weight vectors a kept pivot minor certifies, gives the rank and
    exponents of `oracles.exponents_every_vector`.  Every skipped vector
    has a kept pivot set (C, R) with Sum_C w - Sum_R w = 0; over Q, on
    small minors, the twisted minor on (R, C) is checked to have
    Phi_d-valuation 0 for each order d of the vector."""
    kept = []
    real = smith._pivot_gaps

    def spy(field, columns, row_w, col_w, cleared):
        out = real(field, columns, row_w, col_w, cleared)
        kept.append((row_w, col_w, out[1]))
        return out

    monkeypatch.setattr(smith, "_pivot_gaps", spy)
    rng = random.Random(0xCE27)
    seen = dict.fromkeys(("degrees", "reduced", "skipped", "minors", "nonzero exponents",
                          "masked"), 0)
    for _ in range(120):
        g = random_matching_graph(rng)
        chi = Character(g, {v: rng.randint(-6, 6) for v in g.vertices})
        if chi.is_zero:
            continue
        fc = build_flag_complex(g)
        for field in (QQ, F2, F3, F5):
            t = BoundaryTables(fc, chi, field)
            above, ref_above = None, None
            for k in range(fc.dim + 1, -1, -1):
                columns, _ = signed_boundary(t, k)
                row_weights, col_weights = t.weights(k - 1), t.weights(k)
                kept.clear()
                snf = cyclotomic_invariant_factors(columns, row_weights, col_weights, field,
                                                   above and above.pivot_rows)
                rank, exponents, ref_above = exponents_every_vector(
                    columns, row_weights, col_weights, field, ref_above)
                context = (g.raw_edges, chi.values, str(field), k)
                assert (snf.rank, snf.exponents) == (rank, exponents), context
                above = snf
                vectors = {}
                (row_zeros, row_arrays), (col_zeros, col_arrays) = row_weights, col_weights
                for d in sorted(set(row_arrays) | set(col_arrays)):
                    vectors.setdefault((tuple(row_arrays.get(d, [0] * len(row_zeros))),
                                        tuple(col_arrays.get(d, [0] * len(col_zeros)))),
                                       []).append(d)
                reduced = {(row_w, col_w) for row_w, col_w, _ in kept}
                seen["degrees"] += 1
                seen["reduced"] += len(kept)
                seen["nonzero exponents"] += bool(exponents)
                seen["masked"] += sum(map(len, columns)) < sum(map(len, fc.facets(k)))
                for (row_w, col_w), orders in vectors.items():
                    if (row_w, col_w) in reduced:
                        continue
                    seen["skipped"] += 1
                    certificates = [pivots for _, _, pivots in kept
                                    if sum(col_w[j] - row_w[i] for j, i in pivots) == 0]
                    assert certificates, context
                    pivots = certificates[0]
                    if field.char == 0 and len(pivots) <= 5:
                        m = twisted_boundary(t, k)
                        minor_det = det(submatrix(m, [m.rows[i] for _, i in pivots],
                                                  [m.cols[j] for j, _ in pivots]))
                        assert all(mult_d(minor_det, d) == 0 for d in orders), context
                        seen["minors"] += 1
    assert all(seen.values()), seen
    assert seen["skipped"] > seen["degrees"], seen


def _module_report(g, chi, field):
    """The modules, ss multiplicities and forest factors a run reports,
    which name no vertex."""
    rep = run(JobConfig(text=serialize_input(g, chi, field),
                        methods=("snf", "ss", "forest")))
    assert rep.ok
    methods = rep.data["methods"]
    return rep.data["homology"], methods.get("ss"), methods.get("forest")


def test_modules_unchanged_under_vertex_relabelling_and_reordering():
    """Clearing depends on the order of the simplices; the modules must not."""
    rng = random.Random(79)
    fields = (QQ, F2, F3, F5)
    for trial, (g, chi) in enumerate(_clearing_cases(rng, 16)):
        field = fields[trial % 4]
        base = _module_report(g, chi, field)
        for _ in range(2):
            order = list(g.vertices)
            rng.shuffle(order)
            new = dict(zip(order, rng.sample(range(100, 1000), len(order))))
            new = {v: f"x{n}" for v, n in new.items()}
            pg = LabeledGraph([new[v] for v in order],
                              [(new[u], new[v], g.ell(u, v)) for u, v in g.edge_list])
            pchi = Character(pg, {new[v]: chi.m(v) for v in order})
            assert _module_report(pg, pchi, field) == base, (g.raw_edges, chi.values, order)


def test_negated_character_gives_the_same_report_blocks():
    """chi -> -chi gives the module under t -> t^-1.  All torsion is
    cyclotomic, and Phi_d is self-reciprocal, so the modules, the method
    results and the cross-checks are the same for chi and -chi."""
    rng = random.Random(83)
    seen = set()
    for g, chi in _clearing_cases(rng, 40):
        neg = Character(g, {v: -chi.m(v) for v in g.vertices})
        for field in (QQ, F2, F3):
            blocks = []
            for c in (chi, neg):
                rep = run(JobConfig(text=serialize_input(g, c, field),
                                    methods=("snf", "ss", "forest")))
                assert rep.ok
                blocks.append([rep.data[k] for k in ("homology", "methods", "cross_checks")])
            assert blocks[0] == blocks[1], (g.raw_edges, chi.values, field)
            seen.add("non-resonant" if rep.data["resonance"]["k_nonresonant"] else "resonant")
            if any(m["invariant_factors"] for m in rep.data["homology"]["modules"]):
                seen.add("torsion")
    assert seen == {"resonant", "non-resonant", "torsion"}
