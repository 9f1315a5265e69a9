import random
from collections import Counter

from artinkernels import (BoundaryTables, Character, LabeledGraph, LaurentPoly,
                          build_flag_complex, resonance_sets, twisted_boundary)
from artinkernels.flag import boundary_matrix
from artinkernels.linalg import rank as field_rank
from artinkernels.laurent import q_poly
from artinkernels.scalars import divisors
from artinkernels.smith import signed_boundary

from conftest import (QQ, F2, F3, dihedral_graph, random_case,
                      square_diagonal_graph, square_graph)
from oracles import (compose, cyclotomic_exponent, dense, evaluate, list_weights, minor,
                     poly_matrix_rank, simplex_weights)


def L(coeffs, field=QQ):
    return LaurentPoly(field, {e: field.from_int(c) for e, c in coeffs.items()})


def test_vertex_columns_are_t_power_minus_one():
    g, chi = dihedral_graph()
    fc = build_flag_complex(g)
    m0 = twisted_boundary(BoundaryTables(fc, chi, QQ), 0)
    assert m0.rows == [()]
    assert m0.entries[0][0] == L({1: 1, 0: -1})       # u with weight 1
    assert m0.entries[0][1] == L({-1: 1, 0: -1})      # v with weight -1


def test_dihedral_edge_column():
    g, chi = dihedral_graph()
    fc = build_flag_complex(g)
    m1 = twisted_boundary(BoundaryTables(fc, chi, QQ), 1)
    by_row = {m1.rows[i]: m1.entries[i][0] for i in range(2)}
    # q_2(t^0) = 2; dropping u hits sigma_v with +2(t-1), dropping v hits
    # sigma_u with -2(t^-1 - 1)
    assert by_row[("v",)] == L({1: 2, 0: -2})
    assert by_row[("u",)] == L({-1: -2, 0: 2})
    # ... and the whole column dies over GF(2)
    m1_2 = twisted_boundary(BoundaryTables(fc, chi, F2), 1)
    assert m1_2.is_zero()


def test_square_diagonal_matches_published_complex_over_f2():
    g, chi, _ = square_diagonal_graph()
    t = BoundaryTables(build_flag_complex(g), chi, F2)
    m1 = twisted_boundary(t, 1)

    def col(edge):
        j = m1.cols.index(edge)
        return {m1.rows[i]: m1.entries[i][j] for i in range(len(m1.rows))
                if not m1.entries[i][j].is_zero()}

    tp1 = L({0: 1, 1: 1}, F2)
    assert col(("v0", "v2")) == {}
    assert col(("v1", "v2")) == {("v1",): tp1, ("v2",): tp1}
    assert col(("v2", "v3")) == {("v2",): tp1, ("v3",): tp1}
    assert col(("v0", "v1")) == {("v0",): tp1, ("v1",): L({-1: 1, 0: 1}, F2)}
    assert col(("v0", "v3")) == {("v0",): tp1, ("v3",): L({-1: 1, 0: 1}, F2)}

    m2 = twisted_boundary(t, 2)
    for j, tri in enumerate(m2.cols):
        column = {m2.rows[i]: m2.entries[i][j] for i in range(len(m2.rows))
                  if not m2.entries[i][j].is_zero()}
        assert column == {("v0", "v2"): tp1}, tri


def test_twisted_boundary_squares_to_zero():
    rng = random.Random(5)
    cases = [square_diagonal_graph()[:2], square_graph()]
    for _ in range(6):
        cases.append(random_case(rng, max_vertices=5))
    for g, chi in cases:
        fc = build_flag_complex(g)
        for field in (QQ, F2):
            t = BoundaryTables(fc, chi, field)
            for k in range(0, fc.dim + 1):
                assert compose(twisted_boundary(t, k), twisted_boundary(t, k + 1)).is_zero()


def test_every_entry_vanishes_at_t_equal_one():
    g, chi = square_graph()
    t = BoundaryTables(build_flag_complex(g), chi, QQ)
    for k in range(0, t.fc.dim + 2):
        m = twisted_boundary(t, k)
        for row in m.entries:
            for e in row:
                assert QQ.is_zero(e.evaluate(QQ.one))


def test_simplex_weights_examples():
    g, chi = dihedral_graph()
    fc = build_flag_complex(g)
    w = simplex_weights(fc, chi, QQ, ("u", "v"))
    assert w.p == L({1: 1, 0: -1}) * L({-1: 1, 0: -1})
    assert w.q == L({0: 2})
    w_empty = simplex_weights(fc, chi, QQ, ())
    assert w_empty.p == L({0: 1}) and w_empty.q == L({0: 1})


def test_simplex_weights_exclude_resonant_edge():
    g, chi, _ = square_diagonal_graph()
    fc = build_flag_complex(g)
    w = simplex_weights(fc, chi, F2, ("v0", "v2"))
    assert w.q == LaurentPoly.one(F2)  # the resonant diagonal contributes nothing
    assert not w.p.is_zero()


def test_minor_zero_when_rows_face_no_column():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    # v3 is a face of neither e12 nor e14, so its row is zero
    m = minor(fc, chi, QQ, 1, [("v1", "v2"), ("v1", "v4")], [("v3",), ("v1",)])
    assert m.is_zero()
    assert minor(fc, chi, QQ, 1, [("v1", "v4")], [("v3",)]).is_zero()


def test_minor_1x1_is_the_entry():
    g, chi = dihedral_graph()
    fc = build_flag_complex(g)
    m = minor(fc, chi, QQ, 1, [("u", "v")], [("v",)])
    assert m == L({1: 2, 0: -2})


def test_minor_matches_weight_ratio_on_spanning_tree():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    xbar = [("v1", "v2"), ("v2", "v3"), ("v3", "v4")]
    ybar = [("v2",), ("v3",), ("v4",)]
    twisted = minor(fc, chi, QQ, 1, xbar, ybar)
    untwisted = boundary_matrix(fc, 1, QQ)
    cols = [untwisted.cols.index(x) for x in xbar]
    rows = [untwisted.rows.index(y) for y in ybar]
    plain = dense(untwisted)
    sub = [[plain[i][j] for j in cols] for i in rows]
    det_plain = _det(QQ, sub)
    assert det_plain != QQ.zero
    wx = list_weights(fc, chi, QQ, xbar)
    wy = list_weights(fc, chi, QQ, ybar)
    lhs = twisted * wy.p * wy.q
    rhs = (wx.p * wx.q).scale(det_plain)
    assert lhs == rhs


def test_minor_ratio_identity_on_random_small_minors():
    rng = random.Random(13)
    from itertools import combinations
    for _ in range(6):
        g, chi = random_case(rng, max_vertices=4, require_connected=True)
        fc = build_flag_complex(g)
        tb = twisted_boundary(BoundaryTables(fc, chi, QQ), 1)
        ub = dense(boundary_matrix(fc, 1, QQ))
        edges = fc.simplices_of(1)
        verts = fc.simplices_of(0)
        if not edges:
            continue
        for r in (1, 2):
            if len(edges) < r or len(verts) < r:
                continue
            for xbar in combinations(edges, r):
                for ybar in combinations(verts, r):
                    tw = minor(fc, chi, QQ, 1, list(xbar), list(ybar))
                    rows = [verts.index(y) for y in ybar]
                    cols = [edges.index(x) for x in xbar]
                    plain = _det(QQ, [[ub[i][j] for j in cols] for i in rows])
                    wx = list_weights(fc, chi, QQ, xbar)
                    wy = list_weights(fc, chi, QQ, ybar)
                    assert tw * wy.p * wy.q == (wx.p * wx.q).scale(plain)
                    # nonzero twisted minor iff nonzero untwisted minor
                    assert tw.is_zero() == (plain == QQ.zero)


def test_rank_matches_untwisted_rank_when_nonresonant():
    rng = random.Random(17)
    cases = [square_graph(), dihedral_graph()]
    for _ in range(5):
        cases.append(random_case(rng, max_vertices=5))
    for g, chi in cases:
        fc = build_flag_complex(g)
        t = BoundaryTables(fc, chi, QQ)
        for k in range(0, fc.dim + 2):
            tw = twisted_boundary(t, k)
            un = boundary_matrix(fc, k, QQ)
            assert poly_matrix_rank(tw) == field_rank(QQ, un.columns)


def _det(field, rows):
    n = len(rows)
    if n == 0:
        return field.one
    if n == 1:
        return rows[0][0]
    acc = field.zero
    for j in range(n):
        c = rows[0][j]
        if field.is_zero(c):
            continue
        sub = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        term = field.mul(c, _det(field, sub))
        acc = field.add(acc, term if j % 2 == 0 else field.neg(term))
    return acc


def _random_tables(rng, count):
    """Seeded random FC graphs (labels 2, 4, 6, weights with zeros) with
    one `BoundaryTables` per field."""
    for _ in range(count):
        g, chi = random_case(rng, max_vertices=6, labels=(2, 2, 4, 6), edge_prob=0.8,
                             allow_zero=True)
        fc = build_flag_complex(g)
        for field in (QQ, F2, F3):
            yield fc, chi, field, BoundaryTables(fc, chi, field)


def test_facet_table_lists_the_facet_positions():
    rng = random.Random(83)
    for fc, _chi, _fspec, _t in _random_tables(rng, 10):
        for k in range(-1, fc.dim + 2):
            faces = fc.simplices_of(k - 1)
            assert fc.facets(k) == [tuple(faces.index(X[:i] + X[i + 1:]) for i in range(len(X)))
                                    for X in fc.simplices_of(k)]


def test_every_entry_is_the_product_of_its_facet_factors():
    """Each entry is the sign times (t^{m_v} - 1) times q_lt(vw)(t^{m_v + m_w})
    for every w in the face, read from the graph itself, label-2 edges
    included: leaving their q_1 = 1 out of `facet_factors` changes no entry."""
    rng = random.Random(89)
    seen = set()
    for fc, chi, field, t in _random_tables(rng, 12):
        g = fc.graph
        for k in range(0, fc.dim + 1):
            m = twisted_boundary(t, k)
            for j, X in enumerate(fc.simplices_of(k)):
                for i, row in enumerate(fc.facets(k)[j]):
                    v = X[i]
                    want = LaurentPoly.t_power(field, chi.m(v)) - LaurentPoly.one(field)
                    if i % 2:
                        want = -want
                    for w in X[:i] + X[i + 1:]:
                        want = want * q_poly(g.ell_tilde(v, w), chi.m(v) + chi.m(w), field)
                        seen.add("q_1" if g.ell_tilde(v, w) == 1 else "wide")
                    assert m.columns[j].get(row, LaurentPoly.zero(field)) == want
                    seen.add("zero" if want.is_zero() else "nonzero")
    assert seen == {"q_1", "wide", "zero", "nonzero"}


def test_label_two_complete_graph_has_two_entries_per_vertex_weight():
    names = [f"v{i}" for i in range(6)]
    g = LabeledGraph(names, [(u, v, 2) for i, u in enumerate(names) for v in names[i + 1:]])
    chi = Character(g, dict(zip(names, (1, 1, 2, 3, 3, -2))))
    fc = build_flag_complex(g)
    for field in (QQ, F3):
        t = BoundaryTables(fc, chi, field)
        objects = {id(e) for k in range(fc.dim + 1)
                   for col in twisted_boundary(t, k).columns for e in col.values()}
        assert len(objects) == 2 * len({chi.m(v) for v in names})


def test_the_smith_walk_matches_reference_weights_masks_and_values():
    """On seeded random FC graphs (labels 2, 4, 6, weights with zeros) over
    Q, GF(2) and GF(3), `BoundaryTables.weights` and the Smith route's walk
    (`smith.signed_boundary`) agree with references built apart from them:
    the zero counts are the resonant vertices and edges of each simplex,
    w_d is the Phi_d-exponent of `oracles.list_weights` by exact division,
    the signed columns are those of `boundary_matrix` kept where face and
    simplex have equal zero counts, and over Q the values at t = 2 are the
    `twisted_boundary` entries evaluated one by one.

    Within a simplex a vertex has 0 or 1 label >= 4 neighbours, since a
    spherical clique's label >= 4 edges form a matching; a vertex with two
    label >= 4 neighbours in the graph meets each of them in some simplex,
    so the memos keyed by the neighbours present must tell them apart."""
    rng = random.Random(0x3A1C)
    seen = Counter()
    for fc, chi, field, t in _random_tables(rng, 16):
        g, p = fc.graph, field.char
        res = resonance_sets(g, chi, field)
        orders = sorted({d for n in [chi.m(v) for v in g.vertices]
                         + [g.ell_tilde(u, v) * chi.m_edge(u, v) for u, v in g.edge_list]
                         if n for d in divisors(abs(n)) if not p or d % p})

        def zeros(X):
            return (sum(v in res.resonant_vertices for v in X)
                    + sum((u, v) in res.resonant_edges for i, u in enumerate(X) for v in X[i + 1:]))

        for k in range(-1, fc.dim + 2):
            context = (g.raw_edges, chi.values, str(field), k)
            simplices = fc.simplices_of(k)
            products = [w.p * w.q for w in (list_weights(fc, chi, field, [X]) for X in simplices)]
            arrays = {d: ws for d in orders
                      if any(ws := [cyclotomic_exponent(w, d, field) for w in products])}
            assert t.weights(k) == ([zeros(X) for X in simplices], arrays), context
            if k < 0:
                continue
            faces = fc.simplices_of(k - 1)
            full = boundary_matrix(fc, k, field).columns
            columns, at_point = signed_boundary(t, k)
            assert columns == [{f: sign for f, sign in col.items() if zeros(faces[f]) == zeros(X)}
                               for X, col in zip(simplices, full)], context
            seen["masked"] += sum(map(len, full)) - sum(map(len, columns))
            if p:
                assert at_point is None
            else:
                assert at_point == evaluate(twisted_boundary(t, k), QQ.from_int(2)), context
                seen["values"] += sum(map(len, at_point))
        if p:
            continue
        met = {v: set() for v in g.vertices}       # v -> its label >= 4 neighbours per simplex
        for X in (X for k in range(fc.dim + 1) for X in fc.simplices_of(k)):
            for v in X:
                wide = tuple(w for w in X if w != v and g.adjacency[v][w] >= 4)
                seen[f"{len(wide)} inside"] += 1
                met[v].add(wide)
        seen["two met"] += sum(len(met[v] - {()}) >= 2 for v in met)
    assert {"masked", "values", "0 inside", "1 inside", "two met"} <= set(seen), seen
