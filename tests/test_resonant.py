import random

import pytest

from artinkernels import (Character, LabeledGraph, ZeroCharacterError,
                          build_f2, build_flag_complex, build_gamma1,
                          h1_free_rank, h2_free_rank, homology_module, linalg,
                          resonance_sets)

from artinkernels.cli import main

from conftest import (QQ, F2, F3, dihedral_graph, random_character, random_even_graph,
                      random_matching_graph, square_diagonal_graph, square_graph)
from oracles import compose_int_columns


def test_gamma1_square_diagonal_first_character():
    g, chi, _ = square_diagonal_graph()
    red = build_gamma1(g, resonance_sets(g, chi, F2))
    assert set(red.graph.vertices) == {"v0", "v1", "v2", "v3"}
    assert red.graph.edge_list == [("v0", "v1"), ("v0", "v3"), ("v1", "v2"),
                                   ("v2", "v3")]
    assert [e for e, why in red.removed_edges] == [("v0", "v2")]
    assert red.removed_vertices == []
    assert h1_free_rank(red) == 0


def test_gamma1_square_diagonal_second_character():
    g, _, chi2 = square_diagonal_graph()
    red = build_gamma1(g, resonance_sets(g, chi2, F2))
    assert set(red.graph.vertices) == {"v0", "v2"}
    assert red.graph.edge_list == []
    assert {v for v, _ in red.removed_vertices} == {"v1", "v3"}
    assert h1_free_rank(red) == 1


def test_gamma1_dihedral_over_f2():
    g, chi = dihedral_graph()
    red = build_gamma1(g, resonance_sets(g, chi, F2))
    assert red.graph.edge_list == []
    assert len(red.graph.vertices) == 2
    assert h1_free_rank(red) == 1


def test_gamma1_identity_when_nonresonant():
    g, chi = square_graph()
    red = build_gamma1(g, resonance_sets(g, chi, QQ))
    assert red.graph.edge_list == g.edge_list
    assert red.graph.vertices == g.vertices
    assert h1_free_rank(red) == 0


def test_isolated_resonant_vertex_is_retained():
    g = LabeledGraph(["a", "b", "c"], [("a", "b", 2), ("b", "c", 2)])
    chi = Character(g, {"a": 0, "b": 0, "c": 1})
    red = build_gamma1(g, resonance_sets(g, chi, QQ))
    # a has no non-resonant neighbor, so it survives as an isolated vertex
    assert set(red.graph.vertices) == {"a", "c"}
    assert red.graph.edge_list == []
    assert {v for v, _ in red.removed_vertices} == {"b"}
    explicit = {e for e, why in red.removed_edges if why != "endpoint deleted"}
    assert explicit == {("a", "b")}
    assert h1_free_rank(red) == 1
    fc = build_flag_complex(g)
    assert homology_module(fc, chi, QQ, 0).free_rank == 1


def test_zero_character_rejected():
    """A zero character makes every vertex resonant, and both reduced
    complexes refuse it."""
    g = LabeledGraph(["a", "b"], [("a", "b", 2)])
    res = resonance_sets(g, Character(g, {"a": 0, "b": 0}), QQ)
    assert res.resonant_vertices == set(g.vertices)
    with pytest.raises(ZeroCharacterError):
        build_gamma1(g, res)
    with pytest.raises(ZeroCharacterError):
        build_f2(build_flag_complex(g), res)


def test_f2_square_diagonal_first_character():
    g, chi, _ = square_diagonal_graph()
    qc = build_f2(build_flag_complex(g), resonance_sets(g, chi, F2))
    # the diagonal and both triangles are gone; what is left is the 4-cycle
    assert len(qc.cells0) == 4 and len(qc.cells1) == 4 and len(qc.cells2) == 0
    assert qc.identifications == []
    assert h2_free_rank(qc, F2) == 1


def test_f2_square_diagonal_second_character():
    g, _, chi2 = square_diagonal_graph()
    qc = build_f2(build_flag_complex(g), resonance_sets(g, chi2, F2))
    # the diagonal survives (its link is resonant) and its ends are glued:
    # three classes, five 1-cells, a wedge of three circles
    assert len(qc.cells0) == 3 and len(qc.cells1) == 5 and len(qc.cells2) == 0
    assert qc.identifications == [("v0", "v2")]
    assert h2_free_rank(qc, F2) == 3


def test_f2_nonresonant_keeps_two_skeleton():
    g, chi, _ = square_diagonal_graph()
    fc = build_flag_complex(g)
    qc = build_f2(fc, resonance_sets(g, chi, QQ))
    assert (len(qc.cells0), len(qc.cells1), len(qc.cells2)) == (4, 5, 2)
    # r_1 of the flag complex only depends on the 2-skeleton
    from artinkernels.flag import reduced_homology_ranks
    assert h2_free_rank(qc, QQ) == reduced_homology_ranks(fc, QQ)[1]


def test_f2_boundary_composition_vanishes():
    cases = []
    g, chi, chi2 = square_diagonal_graph()
    cases += [(g, chi, F2), (g, chi2, F2)]
    rng = random.Random(23)
    for _ in range(8):
        gg = random_even_graph(rng, max_vertices=5)
        cc = random_character(rng, gg, allow_zero=True)
        cases.append((gg, cc, F2))
    for gg, cc, field in cases:
        qc = build_f2(build_flag_complex(gg), resonance_sets(gg, cc, field))
        assert len(qc.d1) == len(qc.cells1) and len(qc.d2) == len(qc.cells2)
        # zero over Z, so over every field, and the signs are checked too
        prod = compose_int_columns(qc.d1, qc.d2)
        assert all(x == 0 for col in prod for x in col.values()), (gg.raw_edges, cc.values)


def test_loop_cell_from_identified_resonant_edge():
    g, chi = dihedral_graph()
    qc = build_f2(build_flag_complex(g), resonance_sets(g, chi, F2))
    assert qc.identifications == [("u", "v")]
    assert len(qc.cells0) == 1 and len(qc.cells1) == 1
    assert qc.d1 == [{}]                # the loop's boundary is empty
    assert h2_free_rank(qc, F2) == 1


def test_h2_free_rank_clears_d1_with_the_leads_of_d2():
    """`h2_free_rank` ranks d1 skipping the lead rows of d2's reduction,
    since d1 d2 = 0 on the quotient complex, loops included.  On seeded
    quotient complexes with identifications, that gives the free rank of
    d1 and d2 each reduced whole."""
    rng = random.Random(0xC1EA)
    identified = cleared = 0
    for _ in range(150):
        g = random_matching_graph(rng)
        chi = random_character(rng, g, max_weight=1, allow_zero=True)
        fc = build_flag_complex(g)
        for field in (QQ, F2, F3):
            qc = build_f2(fc, resonance_sets(g, chi, field))
            r1, r2 = (linalg.rank(field, [{i: field.from_int(x) for i, x in col.items()}
                                          for col in d]) for d in (qc.d1, qc.d2))
            assert h2_free_rank(qc, field) == len(qc.cells1) - r1 - r2, \
                (g.raw_edges, chi.values, str(field))
            identified += bool(qc.identifications)
            cleared += bool(qc.identifications) and r1 > 0 and r2 > 0
    assert identified and cleared, (identified, cleared)


def test_free_ranks_agree_with_smith_on_fixtures_and_random_cases():
    cases = []
    g, chi, chi2 = square_diagonal_graph()
    cases += [(g, chi, F2), (g, chi2, F2), (g, chi, QQ)]
    dg, dchi = dihedral_graph()
    cases += [(dg, dchi, F2), (dg, dchi, QQ)]
    rng = random.Random(41)
    for _ in range(10):
        gg = random_even_graph(rng, max_vertices=5)
        cc = random_character(rng, gg, allow_zero=True)
        field = (QQ, F2, F3)[rng.randrange(3)]
        cases.append((gg, cc, field))
    for gg, cc, field in cases:
        fc = build_flag_complex(gg)
        res = resonance_sets(gg, cc, field)
        h1 = homology_module(fc, cc, field, 0).free_rank
        assert h1 == h1_free_rank(build_gamma1(gg, res)), \
            (gg.raw_edges, cc.values, str(field))
        if fc.dim >= 1:
            h2 = homology_module(fc, cc, field, 1).free_rank
            assert h2 == h2_free_rank(build_f2(fc, res), field), \
                (gg.raw_edges, cc.values, str(field))


@pytest.mark.xfail(strict=True, reason="known defect (README; ROADMAP item 5): the quotient "
                   "complex gives H_2 free rank 0 where snf gives 1")
@pytest.mark.parametrize("selector", ["q", "p:2", "p:3"])
def test_h2_free_rank_of_a_path_through_a_zero_weight_vertex(tmp_path, selector):
    """The path a0 - a2 - a1 with labels 4 and m = 1, -3, 0.  Its twisted
    complex has ranks 1, 3, 2, so the Euler characteristic over K(t) is 0,
    and with H_1 free rank 1 (snf and the reduced graph agree) it forces
    H_2 free rank 1: the run must agree and exit 0."""
    g = LabeledGraph(["a0", "a1", "a2"], [("a0", "a2", 4), ("a2", "a1", 4)])
    chi = Character(g, {"a0": 1, "a1": -3, "a2": 0})
    field = {"q": QQ, "p:2": F2, "p:3": F3}[selector]
    fc = build_flag_complex(g)
    assert homology_module(fc, chi, field, 1).free_rank == 1
    assert h2_free_rank(build_f2(fc, resonance_sets(g, chi, field)), field) == 1
    path = tmp_path / "path.graph"
    path.write_text("vertex a0 1\nvertex a1 -3\nvertex a2 0\n"
                    "edge a0 a2 4\nedge a2 a1 4\n")
    assert main([str(path), "--field", selector]) == 0


def _dead_edge_cycle(label):
    """The 4-cycle a0 - a1 - a3 - a2 - a0 with m = (1, 1, 1, -1), labels 6
    on a0a1, a0a2 and a1a3, and `label` on a2a3, as a graph and as text."""
    g = LabeledGraph(["a0", "a1", "a2", "a3"],
                     [("a0", "a1", 6), ("a0", "a2", 6), ("a1", "a3", 6), ("a2", "a3", label)])
    chi = Character(g, {"a0": 1, "a1": 1, "a2": 1, "a3": -1})
    text = ("vertex a0 1\nvertex a1 1\nvertex a2 1\nvertex a3 -1\n"
            f"edge a0 a1 6\nedge a0 a2 6\nedge a1 a3 6\nedge a2 a3 {label}\n")
    return g, chi, text


@pytest.mark.xfail(strict=True, reason="known defect (ROADMAP item 5): a dead edge with no "
                   "dead end; the quotient complex gives one more H_2 free rank than snf")
@pytest.mark.parametrize("label, selector, snf_rank", [(4, "p:2", 1), (6, "p:3", 2)])
def test_h2_free_rank_of_a_cycle_with_a_dead_edge(tmp_path, label, selector, snf_rank):
    """Over GF(p) with p dividing the half-label of a2a3, m_e = 0 gives
    that edge a zero factor: a dead edge, though no vertex is dead.  snf
    gives H_2 free rank `snf_rank`; the run must agree and exit 0."""
    g, chi, text = _dead_edge_cycle(label)
    field = {"p:2": F2, "p:3": F3}[selector]
    fc = build_flag_complex(g)
    res = resonance_sets(g, chi, field)
    assert ("a2", "a3") in res.resonant_edges and not res.resonant_vertices
    assert homology_module(fc, chi, field, 1).free_rank == snf_rank
    assert h2_free_rank(build_f2(fc, res), field) == snf_rank
    path = tmp_path / "cycle.graph"
    path.write_text(text)
    assert main([str(path), "--field", selector]) == 0


def test_h2_free_rank_of_the_dead_edge_cycle_over_q(tmp_path):
    """Over Q nothing on the same cycle (a2a3 of label 4) is dead, and
    snf and the quotient complex both give H_2 free rank 1."""
    g, chi, text = _dead_edge_cycle(4)
    fc = build_flag_complex(g)
    res = resonance_sets(g, chi, QQ)
    assert res.is_K_nonresonant
    assert homology_module(fc, chi, QQ, 1).free_rank == 1
    assert h2_free_rank(build_f2(fc, res), QQ) == 1
    path = tmp_path / "cycle.graph"
    path.write_text(text)
    assert main([str(path), "--field", "q"]) == 0


def test_removal_log_mentions_reasons():
    g, _, chi2 = square_diagonal_graph()
    red = build_gamma1(g, resonance_sets(g, chi2, F2))
    log = red.removal_log()
    assert any("resonant vertex" in line for line in log)
    qc = build_f2(build_flag_complex(g), resonance_sets(g, chi2, F2))
    assert any("resonant edge with resonant opposite vertex" in line
               for line in qc.removal_log)
