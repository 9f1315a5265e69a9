import random
from itertools import combinations

import pytest

from artinkernels import (Character, GraphError, LabeledGraph,
                          ResonantVertexError, ZeroCharacterError,
                          connected_components, is_fc_type, resonance_sets,
                          torsion_support, validate_graph)
from artinkernels.cli import InputError, parse_input
from artinkernels.graphs import components

from conftest import (QQ, F2, dihedral_graph, random_even_graph,
                      square_diagonal_graph, square_graph)
from oracles import components_by_bfs, is_complete, is_spherical


def test_validate_accepts_dihedral():
    g, _ = dihedral_graph()
    assert validate_graph(g) == ()
    assert validate_graph(LabeledGraph([], [])) == ("empty graph: no vertices declared",)


# (vertices, edges, line of the first bad declaration, every problem in order)
RULE_CASES = [
    pytest.param("ab", [("a", "z", 2)], 3, ["edge (a,z): unknown vertex 'z'"],
                 id="unknown-vertex"),
    pytest.param("ab", [("a", "a", 2)], 3, ["edge (a,a): loop"], id="loop"),
    pytest.param("ab", [("a", "b", 2), ("a", "b", 4)], 4, ["edge (a,b): duplicate edge"],
                 id="duplicate"),
    pytest.param("ab", [("a", "b", 2), ("b", "a", 4), ("a", "b", 1)], 4,
                 ["edge (b,a): duplicate edge", "edge (a,b): duplicate edge"],
                 id="duplicate-reversed"),
    pytest.param("ab", [("a", "b", 0)], 3, ["edge (a,b): label 0 is < 2"],
                 id="label-below-2"),
    pytest.param("ab", [("a", "b", 3)], 3, ["edge (a,b): odd label 3"], id="odd-label"),
    # a pair is a duplicate once seen, whether or not its label was good
    pytest.param("ab", [("a", "b", 3), ("a", "b", 2)], 3,
                 ["edge (a,b): odd label 3", "edge (a,b): duplicate edge"],
                 id="bad-label-then-duplicate"),
    pytest.param("abc", [("a", "b", 2), ("b", "b", 2), ("c", "a", 3), ("c", "b", 0)], 5,
                 ["edge (b,b): loop", "edge (c,a): odd label 3",
                  "edge (c,b): label 0 is < 2"],
                 id="several"),
    pytest.param("aba", [], 3, ["duplicate vertex 'a'"], id="duplicate-vertex"),
]


@pytest.mark.parametrize("vertices, edges, line, problems", RULE_CASES)
def test_graph_and_parser_apply_the_same_rules(vertices, edges, line, problems):
    with pytest.raises(GraphError) as err:
        LabeledGraph(vertices, edges)
    assert str(err.value) == "; ".join(problems)

    text = "".join(f"vertex {v} 1\n" for v in vertices)
    text += "".join(f"edge {u} {v} {label}\n" for u, v, label in edges)
    with pytest.raises(InputError) as err:
        parse_input(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {problems[0]}"


def test_normalize_character():
    g = LabeledGraph(["a", "b"], [("a", "b", 2)])
    c, d = Character(g, {"a": 2, "b": 4}).normalize()
    assert (c.values, d) == ((1, 2), 2)

    g3 = LabeledGraph(["a", "b", "c"], [])
    c3, d3 = Character(g3, {"a": 0, "b": 3, "c": 6}).normalize()
    assert (c3.values, d3) == ((0, 1, 2), 3)


def test_normalize_is_identity_on_dihedral_character():
    g, chi = dihedral_graph()
    c, d = chi.normalize()
    assert d == 1 and c.values == (1, -1)


def test_zero_character_rejected():
    g = LabeledGraph(["a"], [])
    with pytest.raises(ZeroCharacterError):
        Character(g, {"a": 0}).normalize()


def test_is_spherical_dihedral_edge():
    g, _ = dihedral_graph()
    assert is_spherical(g, ("u", "v"))


def test_is_spherical_all_commuting_triangle():
    g = LabeledGraph(["a", "b", "c"],
                     [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
    assert is_spherical(g, ("a", "b", "c"))
    assert is_fc_type(g)


def test_is_spherical_two_dihedral_edges_sharing_vertex():
    g = LabeledGraph(["a", "b", "c"],
                     [("a", "b", 4), ("b", "c", 4), ("a", "c", 2)])
    assert not is_spherical(g, ("a", "b", "c"))
    assert not is_fc_type(g)
    # each edge alone is still spherical
    assert is_spherical(g, ("a", "b"))


def test_is_spherical_requires_complete():
    g = LabeledGraph(["a", "b", "c"], [("a", "b", 2)])
    assert not is_spherical(g, ("a", "b", "c"))


def test_sphericity_monotone_under_higher_labels():
    # adding a second label->=4 edge through a shared vertex kills sphericity
    base = [("a", "b", 4), ("b", "c", 2), ("a", "c", 2)]
    g = LabeledGraph(["a", "b", "c"], base)
    assert is_spherical(g, ("a", "b", "c"))
    worse = LabeledGraph(["a", "b", "c"],
                         [("a", "b", 4), ("b", "c", 6), ("a", "c", 2)])
    assert not is_spherical(worse, ("a", "b", "c"))


def test_fc_type_square_and_raag():
    g, _ = square_graph()
    assert is_fc_type(g)  # no triangles at all
    raag = LabeledGraph("abcd", [(u, v, 2) for i, u in enumerate("abcd")
                                 for v in "abcd"[i + 1:]])
    assert is_fc_type(raag)


def test_fc_type_matches_bruteforce_on_random_graphs():
    """The triangle rule against the sphericity of every complete subgraph.
    Both verdicts occur, and some FC graph holds a 4-clique with two label
    >= 4 edges (disjoint, as it is FC), which a rule rejecting every clique
    with two such edges gets wrong."""
    rng = random.Random(7)
    verdicts = {True: 0, False: 0}
    two_wide = 0
    for _ in range(300):
        g = random_even_graph(rng, max_vertices=8, labels=(2, 2, 4, 6), require_fc=False)
        cliques = [sub for r in range(2, len(g.vertices) + 1)
                   for sub in combinations(g.vertices, r) if is_complete(g, sub)]
        brute = all(is_spherical(g, sub) for sub in cliques)
        assert is_fc_type(g) == brute, g.raw_edges
        verdicts[brute] += 1
        two_wide += brute and any(
            len(sub) == 4 and sum(g.ell(a, b) >= 4 for a, b in combinations(sub, 2)) == 2
            for sub in cliques)
    assert min(verdicts.values()) > 0 and two_wide > 0, (verdicts, two_wide)


def test_resonance_square_diagonal():
    g, chi, chi2 = square_diagonal_graph()
    r = resonance_sets(g, chi, F2)
    assert r.resonant_vertices == frozenset()
    assert r.resonant_edges == frozenset({("v0", "v2")})
    assert not r.is_K_nonresonant

    r2 = resonance_sets(g, chi2, F2)
    assert r2.resonant_vertices == frozenset({"v1", "v3"})
    assert r2.resonant_edges == frozenset({("v0", "v2")})


def test_resonance_over_q_has_no_resonant_edges():
    g, chi, _ = square_diagonal_graph()
    r = resonance_sets(g, chi, QQ)
    assert r.resonant_edges == frozenset()
    assert r.is_K_nonresonant


def test_torsion_support_dihedral_empty():
    g, chi = dihedral_graph()
    assert torsion_support(g, chi).values == ()


def test_torsion_support_square():
    g, chi = square_graph()
    ts = torsion_support(g, chi)
    assert ts.values == (2, 6)
    assert ts.provenance[2] == frozenset({"vertex", "edge"})
    assert ts.provenance[6] == frozenset({"edge"})


def test_torsion_support_trivial_for_unit_weights_label_two():
    g = LabeledGraph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2)])
    chi = Character(g, {"a": 1, "b": -1, "c": 1})
    assert torsion_support(g, chi).values == ()


def test_torsion_support_requires_nonzero_weights():
    g, _, chi2 = square_diagonal_graph()
    with pytest.raises(ResonantVertexError):
        torsion_support(g, chi2)


def test_torsion_support_requires_normalized():
    g, chi = dihedral_graph()
    doubled = Character(g, {"u": 2, "v": -2})
    with pytest.raises(ValueError):
        torsion_support(g, doubled)


def test_torsion_support_values_divide_their_sources():
    rng = random.Random(21)
    from conftest import random_case
    for _ in range(20):
        g, c = random_case(rng)
        ts = torsion_support(g, c)
        for d in ts.values:
            from_vertex = any(c.m(v) % d == 0 for v in g.vertices)
            from_edge = any(
                (g.ell_tilde(u, v) * c.m_edge(u, v)) % d == 0
                and c.m_edge(u, v) % d != 0
                for (u, v) in g.edge_list)
            assert from_vertex or from_edge
            assert ts.provenance[d] <= {"vertex", "edge"}


def test_components_partition_the_vertices_in_order():
    rng = random.Random(0xC1A55)
    merged = 0
    for _ in range(300):
        vertices = rng.sample(range(50), rng.randint(0, 9))   # not in sorted order
        pairs = [(rng.choice(vertices), rng.choice(vertices))
                 for _ in range(rng.randint(0, len(vertices)))] if vertices else []
        classes = components(vertices, pairs)
        pos = {v: i for i, v in enumerate(vertices)}
        context = (vertices, pairs, classes)
        # a partition of the vertices into nonempty classes
        assert sorted(v for cl in classes for v in cl) == sorted(vertices), context
        assert all(classes), context
        which = {v: i for i, cl in enumerate(classes) for v in cl}
        # each pair inside one class
        assert all(which[u] == which[v] for u, v in pairs), context
        # members in vertex order, classes ordered by their first member
        assert all(list(cl) == sorted(cl, key=pos.get) for cl in classes), context
        assert [pos[cl[0]] for cl in classes] == sorted(pos[cl[0]] for cl in classes), context
        # and no coarser than the pairs make it
        assert classes == components_by_bfs(vertices, pairs), context
        merged += len(classes) < len(vertices) - 1
    assert merged > 50


def test_connected_components_match_breadth_first_search():
    rng = random.Random(0xBF5)
    sizes = set()
    for _ in range(120):
        g = random_even_graph(rng, max_vertices=8, edge_prob=0.25, require_fc=False)
        comps = connected_components(g)
        assert comps == components_by_bfs(g.vertices, g.edge_list), g.raw_edges
        sizes.add(len(comps))
    assert {1, 2, 3} <= sizes
