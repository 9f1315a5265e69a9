import random
from itertools import combinations

from artinkernels import LabeledGraph, build_flag_complex, image_dims, is_fc_type
from artinkernels.flag import boundary_matrix, reduced_homology_ranks

from conftest import (QQ, F2, dihedral_graph, random_even_graph, square_diagonal_graph,
                      square_graph)
from oracles import dense, is_complete, is_spherical, matmul


def test_square_complex_counts():
    g, _ = square_graph()
    fc = build_flag_complex(g)
    assert fc.counts() == {-1: 1, 0: 4, 1: 4}


def test_square_diagonal_has_triangles_but_no_tetrahedron():
    g, _, _ = square_diagonal_graph()
    fc = build_flag_complex(g)
    assert fc.simplices_of(2) == [("v0", "v1", "v2"), ("v0", "v2", "v3")]
    assert fc.simplices_of(3) == []


def test_single_vertex_complex():
    g = LabeledGraph(["v"], [])
    fc = build_flag_complex(g)
    assert fc.counts() == {-1: 1, 0: 1}
    assert fc.dim == 0


def test_nonspherical_triangle_excluded():
    g = LabeledGraph(["a", "b", "c"],
                     [("a", "b", 4), ("b", "c", 4), ("a", "c", 2)])
    fc = build_flag_complex(g)
    assert fc.simplices_of(2) == []
    assert len(fc.simplices_of(1)) == 3


def test_edge_boundary_signs():
    g, _ = dihedral_graph()
    fc = build_flag_complex(g)
    m = boundary_matrix(fc, 1, QQ)
    col = [dense(m)[i][0] for i in range(2)]
    # dropping the first vertex u gives +sigma_v, dropping v gives -sigma_u
    assert m.rows == [("u",), ("v",)]
    assert col == [QQ.from_int(-1), QQ.from_int(1)]


def test_augmentation_row():
    g, _ = square_graph()
    fc = build_flag_complex(g)
    m = boundary_matrix(fc, 0, QQ)
    assert m.rows == [()]
    assert all(e == QQ.one for e in dense(m)[0])


def test_boundary_squared_is_zero():
    g, _, _ = square_diagonal_graph()
    fc = build_flag_complex(g)
    f = QQ
    for k in range(0, fc.dim + 1):
        a = boundary_matrix(fc, k, QQ)
        b = boundary_matrix(fc, k + 1, QQ)
        prod = matmul(f, dense(a), dense(b))
        assert all(f.is_zero(x) for row in prod for x in row)


def test_face_closure():
    g, _, _ = square_diagonal_graph()
    fc = build_flag_complex(g)
    for k in range(0, fc.dim + 1):
        for s in fc.simplices_of(k):
            for i in range(len(s)):
                assert s[:i] + s[i + 1:] in fc


def test_square_ranks():
    g, _ = square_graph()
    fc = build_flag_complex(g)
    assert reduced_homology_ranks(fc, QQ) == [0, 1]
    assert image_dims(fc, QQ) == [1, 3, 0]


def test_dihedral_ranks_all_zero():
    g, _ = dihedral_graph()
    fc = build_flag_complex(g)
    assert reduced_homology_ranks(fc, QQ) == [0, 0]
    assert image_dims(fc, QQ)[1] == 1


def test_two_isolated_vertices():
    g = LabeledGraph(["a", "b"], [])
    fc = build_flag_complex(g)
    assert reduced_homology_ranks(fc, QQ) == [1]


def test_euler_characteristic_bookkeeping():
    g, _, _ = square_diagonal_graph()
    fc = build_flag_complex(g)
    ranks = image_dims(fc, F2)
    r = reduced_homology_ranks(fc, F2)
    # rank-nullity per dimension: |F_k| = rank d_k + ker d_k, ker = im_{k+1} + r_k
    for k in range(0, fc.dim + 1):
        n_k = len(fc.simplices_of(k))
        assert n_k == ranks[k] + ranks[k + 1] + r[k]


def test_homology_ranks_invariant_under_vertex_permutation():
    rng = random.Random(11)
    g, _, _ = square_diagonal_graph()
    base = reduced_homology_ranks(build_flag_complex(g), QQ)
    for _ in range(6):
        order = list(g.vertices)
        rng.shuffle(order)
        permuted = LabeledGraph(order, [(u, v, g.ell(u, v)) for u, v in g.edge_list])
        assert reduced_homology_ranks(build_flag_complex(permuted), QQ) == base


def test_flag_complex_is_the_spherical_cliques_in_order():
    """`build_flag_complex` checks sphericity one new vertex at a time; its
    simplices must be the cliques `is_spherical` accepts, in index order."""
    rng = random.Random(83)
    rejected = 0
    for _ in range(80):
        g = random_even_graph(rng, max_vertices=7, labels=(2, 2, 4, 6), edge_prob=0.75,
                              require_fc=False)
        want = {-1: [()]}
        for size in range(1, len(g.vertices) + 1):
            for clique in combinations(g.vertices, size):
                if is_spherical(g, clique):
                    want.setdefault(size - 1, []).append(clique)
                elif is_complete(g, clique):
                    rejected += 1
        fc = build_flag_complex(g)
        assert {k: fc.simplices_of(k) for k in fc.masks} == want, g.raw_edges
    assert rejected > 50


def test_simplex_masks_decode_to_the_spherical_cliques_with_their_facets():
    """Each degree decodes to the spherical cliques found by brute force, in
    lexicographic order; `facets(k)[j][i]` is the position of X minus X[i];
    and `in` accepts every simplex, in any vertex order, but no non-clique,
    repeated vertex or unknown name."""
    rng = random.Random(2022)
    seen = {"non-FC": 0, "two heavy neighbours": 0, "non-clique": 0}
    for case in range(60):
        g = random_even_graph(rng, max_vertices=9, labels=(2, 4, 6),
                              edge_prob=rng.choice((0.5, 0.8)), require_fc=case % 2 == 0)
        order = list(g.vertices)
        rng.shuffle(order)
        g = LabeledGraph(order, [(u, v, g.ell(u, v)) for u, v in g.edge_list])
        seen["non-FC"] += not is_fc_type(g)
        seen["two heavy neighbours"] += any(
            sum(label >= 4 for label in g.adjacency[v].values()) >= 2 for v in g.vertices)
        fc = build_flag_complex(g)
        want = {-1: [()]}
        for size in range(1, len(g.vertices) + 1):
            for clique in combinations(g.vertices, size):
                if is_spherical(g, clique):
                    want.setdefault(size - 1, []).append(clique)
                else:
                    assert clique not in fc, (g.raw_edges, clique)
                    seen["non-clique"] += not is_complete(g, clique)
        assert fc.counts() == {k: len(sims) for k, sims in want.items()}, g.raw_edges
        for k, sims in want.items():
            assert fc.simplices_of(k) == sims, (g.raw_edges, k)
            below = {X: i for i, X in enumerate(want.get(k - 1, []))}
            for X, fs in zip(sims, fc.facets(k)):
                assert list(fs) == [below[X[:i] + X[i + 1:]] for i in range(len(X))], X
                assert X in fc and X[::-1] in fc
                if X:
                    assert X + X[:1] not in fc and (X[0], X[0]) not in fc
                    assert X + ("unknown",) not in fc and ("unknown",) + X[1:] not in fc
    assert all(seen.values()), seen
