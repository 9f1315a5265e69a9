"""Acceptance suite: the exit criteria for the whole package.

Each criterion prints one [PASS]/[FAIL] line (visible with `pytest -s` or
on failure).  All checks are exact; there are no numeric tolerances
anywhere.

Criterion 4 note: the second character chi' = (-1, 0, 1, 0) on the
square-with-diagonal fixture over GF(2) pins H_1 = Lambda + (Lambda/(1+t))^2,
with Lambda = GF(2)[t^+-1].  An earlier reference value, (Lambda/(1+t))^3, was
dropped because it is inconsistent with the chain complex: the boundary
columns give a free class t*sigma_0 + sigma_2 in ker d_0 that no boundary
reaches, and the Euler characteristic over Lambda forces free rank at least 1
once H_2 is free of rank 3.  Both reckonings are spelled out in
`test_acceptance_4_chi_prime_h1_reference_value`.  For this resonant
character the forest route does not run; the two cross-checks are the Smith
route against the reduced graph (H_1 free rank) and against the quotient
complex (H_2 free rank).
"""

import random
from itertools import chain, combinations

from artinkernels import (BoundaryTables, LaurentPoly, boundary_smith_form, build_f2,
                          build_flag_complex, build_gamma1,
                          forest_fitting_h1, h1_free_rank,
                          h2_free_rank, homology_module, image_dims,
                          page_dims, resonance_sets, solve_torsion, torsion_support,
                          twisted_boundary, verify_shape, weighted_complex)
from artinkernels.flag import reduced_homology_ranks
from artinkernels.laurent import laurent_gcd, normalize_unit
from artinkernels.smith import (cyclotomic_invariant_factors, signed_boundary,
                                smith_normal_form)

from conftest import (QQ, F2, dihedral_graph, random_case,
                      square_diagonal_graph, square_graph)
from oracles import compose, compose_int_columns, dense, det, matmul, submatrix, wc_weights


def _report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}"
          + (f": {detail}" if detail else ""))
    return ok


def L(coeffs, field=QQ):
    return LaurentPoly(field, {e: field.from_int(c) for e, c in coeffs.items()})


def _poly(text_coeffs, field=QQ):
    return L(text_coeffs, field)


# ---------------------------------------------------------------------------
# criterion 1: dihedral fixture, exact H_1 over Q and GF(2)
# ---------------------------------------------------------------------------

def test_acceptance_1_dihedral():
    g, chi = dihedral_graph()
    fc = build_flag_complex(g)
    over_q = homology_module(fc, chi, QQ, 0)
    ok = over_q.free_rank == 0 and over_q.invariant_factors == [_poly({0: -1, 1: 1})]
    over_f2 = homology_module(fc, chi, F2, 0)
    ok = ok and over_f2.free_rank == 1 and over_f2.invariant_factors == []
    assert _report(1, ok, "H_1 = K[t^±1]/(t-1) over Q and K[t^±1] over F2")


# ---------------------------------------------------------------------------
# criterion 2: square fixture over Q by all three methods
# ---------------------------------------------------------------------------

def test_acceptance_2_square_homology():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    tm1 = _poly({0: -1, 1: 1})
    tp1 = _poly({0: 1, 1: 1})
    phi6 = _poly({0: 1, 1: -1, 2: 1})
    expected = [tm1, tm1 * tp1 * phi6, tm1 * tp1 * tp1 * phi6]

    dec = homology_module(fc, chi, QQ, 0)
    ok = dec.free_rank == 0 and dec.invariant_factors == expected
    ok = ok and dec.primary_parts == {2: [1, 2], 6: [1, 1]}
    ok = ok and dec.t_minus_1_exponent == 3

    top = homology_module(fc, chi, QQ, 1)
    ok = ok and top.free_rank == 1 and top.invariant_factors == []

    # the forest route reproduces the same chain
    ok = ok and forest_fitting_h1(g, chi, QQ) == expected

    # the spectral route reproduces the same primary multiplicities
    r = reduced_homology_ranks(fc, QQ)
    ss = {}
    tc = BoundaryTables(fc, chi, QQ)
    for d in torsion_support(g, chi).values:
        ss[d] = solve_torsion(page_dims(weighted_complex(tc, d)), r)
    ok = ok and ss[2][0] == [1, 1] and ss[6][0] == [2, 0]
    ok = ok and ss[2][1] == [0, 0, 0] and ss[6][1] == [0, 0, 0]
    assert _report(2, ok, "H_1 = (t-1)^3 + (t+1) + (t+1)^2 + (t^2-t+1)^2, "
                          "H_2 free, snf = ss = forest")


# ---------------------------------------------------------------------------
# criterion 3: square fixture spectral page dimensions
# ---------------------------------------------------------------------------

def test_acceptance_3_square_pages():
    g, chi = square_graph()
    fc = build_flag_complex(g)
    tc = BoundaryTables(fc, chi, QQ)
    pt2 = page_dims(weighted_complex(tc, 2))
    ok = (pt2.h(1, 0, 0), pt2.h(1, 1, -1), pt2.h(2, 0, 0)) == (1, 1, 1)
    ok = ok and (pt2.h(1, 2, -1), pt2.h(2, 2, -1), pt2.h(3, 2, -1)) == (3, 2, 1)

    pt6 = page_dims(weighted_complex(tc, 6))
    ok = ok and pt6.h(1, 0, 0) == 2
    # ... and that is the only excess over the limit page in the k = 0 row:
    for p in range(0, pt6.max_weight + 1):
        for s in (1, 2, 3):
            excess = pt6.h(s, p, -p) - pt6.stable.get((p, -p), 0)
            if (s, p) != (1, 0):
                ok = ok and excess == 0
    ok = ok and pt6.h(1, 1, 0) == 3 and pt6.h(2, 1, 0) == 1
    ok = ok and pt6.stable == {(1, 0): 1} and pt2.stable == {(2, -1): 1}
    assert _report(3, ok, "page dimensions at d=2 and d=6 match exactly")


# ---------------------------------------------------------------------------
# criterion 4: resonant fixture over GF(2), both characters
# ---------------------------------------------------------------------------

def test_acceptance_4_resonant_fixture():
    g, chi, chi2 = square_diagonal_graph()
    fc = build_flag_complex(g)
    tp1 = _poly({0: 1, 1: 1}, F2)

    h1 = homology_module(fc, chi, F2, 0)
    ok = h1.free_rank == 0 and h1.invariant_factors == [tp1, tp1, tp1]
    h2 = homology_module(fc, chi, F2, 1)
    ok = ok and h2.free_rank == 1 and h2.invariant_factors == [tp1]

    h2b = homology_module(fc, chi2, F2, 1)
    ok = ok and h2b.free_rank == 3 and h2b.invariant_factors == []

    # reduced-complex free ranks agree with the Smith engine, both characters
    res, res2 = resonance_sets(g, chi, F2), resonance_sets(g, chi2, F2)
    ok = ok and h1_free_rank(build_gamma1(g, res)) == h1.free_rank
    ok = ok and h2_free_rank(build_f2(fc, res), F2) == h2.free_rank
    h1b = homology_module(fc, chi2, F2, 0)
    ok = ok and h1_free_rank(build_gamma1(g, res2)) == h1b.free_rank
    ok = ok and h2_free_rank(build_f2(fc, res2), F2) == h2b.free_rank
    assert _report(4, ok, "chi: H_1 = (t+1)^3, H_2 = (t+1) + free; "
                          "chi': H_2 = free^3; free ranks match the reduced complexes")


def test_acceptance_4_chi_prime_h1_reference_value():
    """Reference value for H_1 under the second character: Lambda + (t+1)^2.

    Over GF(2) signs play no part, so both reckonings below are sign-free.

    (a) Direct computation from the boundary formula in `twisted`.  The
    factor (t^{m_v} - 1) vanishes at the weight-zero vertices v1 and v3, so
    the columns of the edges 01, 12, 23 and 03 are (t^-1 + 1) sigma_1,
    (1 + t) sigma_1, (1 + t) sigma_3 and (t^-1 + 1) sigma_3.  The diagonal 02
    has label 4, and its column carries q_2(t^{m_0 + m_2}) = q_2(1) = 2 = 0,
    so it is zero.  Hence im d_1 = <(1+t) sigma_1, (1+t) sigma_3>, while
    ker d_0 = <sigma_1, sigma_3, t sigma_0 + sigma_2>, and
    H_1 = Lambda/(1+t) + Lambda/(1+t) + Lambda.

    (b) Euler characteristic over Lambda.  The flag complex has 1, 4, 5 and
    2 simplices in degrees -1 .. 2, so sum_k (-1)^k fr H_{k+1} = 1 - 4 + 5 - 2
    = 0.  Degree -1 is torsion because chi' is not zero, so
    fr H_1 = fr H_2 - fr H_3.  Criterion 4 pins fr H_2 = 3, and fr H_3 is at
    most 2 since there are two triangles: fr H_1 >= 1.

    An earlier reference value, (t+1)-torsion cubed with free rank 0, was
    dropped because (b) rules it out next to criterion 4's own H_2.
    """
    g, _, chi2 = square_diagonal_graph()
    fc = build_flag_complex(g)
    tp1 = _poly({0: 1, 1: 1}, F2)
    h1 = homology_module(fc, chi2, F2, 0)
    stated = h1.free_rank == 1 and h1.invariant_factors == [tp1, tp1]

    # the convention-free identity of (b): alternating free ranks of the
    # homology equal the alternating simplex count, empty simplex included
    degrees = range(-1, fc.dim + 1)
    free_sum = sum((-1) ** (k % 2)
                   * homology_module(fc, chi2, F2, k).free_rank
                   for k in degrees)
    simplex_sum = sum((-1) ** (k % 2) * len(fc.simplices_of(k))
                      for k in degrees)
    euler = free_sum == simplex_sum

    _report("4 (chi' H_1 reference value)", stated and euler,
            f"computed free rank {h1.free_rank}, torsion "
            f"{[str(f) for f in h1.invariant_factors]}; alternating free "
            f"ranks {free_sum}, alternating simplex count {simplex_sum}")
    assert stated, (
        f"H_1 under chi' computed as free^{h1.free_rank} + "
        f"{[str(f) for f in h1.invariant_factors]}, not free^1 + (t+1)^2; "
        "by hand, im d_1 = <(1+t) sigma_1, (1+t) sigma_3> (the diagonal "
        "column vanishes as q_2(1) = 0 in GF(2)) and ker d_0 = "
        "<sigma_1, sigma_3, t sigma_0 + sigma_2>")
    assert euler, (
        f"sum_k (-1)^k fr H_(k+1) = {free_sum} but the alternating simplex "
        f"count is {simplex_sum}; the chain complex of free modules forces "
        "them equal")


# ---------------------------------------------------------------------------
# criterion 5: 200 randomized graphs, three methods pairwise agree
# ---------------------------------------------------------------------------

def test_acceptance_5_oracle_equivalence_sweep():
    rng = random.Random(0xA11CE)
    mismatches = []
    for i in range(200):
        g, chi = random_case(rng, max_vertices=6, require_connected=True)
        fc = build_flag_complex(g)
        r = reduced_homology_ranks(fc, QQ)
        support = torsion_support(g, chi)
        decs = {k: homology_module(fc, chi, QQ, k) for k in range(fc.dim + 1)}
        tc = BoundaryTables(fc, chi, QQ)
        for d in support.values:
            ns = solve_torsion(page_dims(weighted_complex(tc, d)), r)
            for k, row in ns.items():
                got = tuple(j for j, n in enumerate(row, start=1) for _ in range(n))
                if got != decs[k].exponents_for(d):
                    mismatches.append((i, "ss", d, k))
        forest = forest_fitting_h1(g, chi, QQ)
        snf1 = boundary_smith_form(BoundaryTables(fc, chi, QQ), 1)
        if forest != snf1.invariant_factors:
            mismatches.append((i, "forest"))
        for k in range(fc.dim + 1):
            if decs[k].free_rank != r[k]:
                mismatches.append((i, "free-rank", k))
    assert _report(5, not mismatches,
                   f"200 random graphs, snf/ss/forest pairwise agree "
                   f"({len(mismatches)} mismatches)"), mismatches


# ---------------------------------------------------------------------------
# criterion 6: structural invariants on every fixture and random case
# ---------------------------------------------------------------------------

def _structural_cases():
    cases = []
    g, chi = dihedral_graph()
    cases += [(g, chi, QQ), (g, chi, F2)]
    g, chi = square_graph()
    cases += [(g, chi, QQ)]
    g, chi, chi2 = square_diagonal_graph()
    cases += [(g, chi, F2), (g, chi2, F2), (g, chi, QQ)]
    rng = random.Random(0xBEEF)
    for _ in range(10):
        gg, cc = random_case(rng, max_vertices=5)
        cases.append((gg, cc, QQ))
    from conftest import F3, random_even_graph, random_character
    for _ in range(4):
        gg = random_even_graph(rng, max_vertices=5)
        cc = random_character(rng, gg, allow_zero=True)
        cases.append((gg, cc, F2 if rng.random() < 0.5 else F3))
    return cases


def test_acceptance_6_structural_invariants():
    failures = []
    for idx, (g, chi, field) in enumerate(_structural_cases()):
        fc = build_flag_complex(g)
        res = resonance_sets(g, chi, field)
        ranks = reduced_homology_ranks(fc, field)
        ims = image_dims(fc, field)

        # boundary-of-boundary vanishes: untwisted, twisted, quotient complex
        from artinkernels.flag import boundary_matrix
        t = BoundaryTables(fc, chi, field)
        for k in range(0, fc.dim + 1):
            a = boundary_matrix(fc, k, field)
            b = boundary_matrix(fc, k + 1, field)
            if any(not field.is_zero(x)
                   for row in matmul(field, dense(a), dense(b)) for x in row):
                failures.append((idx, "untwisted dd", k))
            if any(compose(twisted_boundary(t, k), twisted_boundary(t, k + 1)).columns):
                failures.append((idx, "twisted dd", k))
        qc = build_f2(fc, res)
        if any(x for col in compose_int_columns(qc.d1, qc.d2) for x in col.values()):
            failures.append((idx, "quotient dd"))

        # graded differential squares to zero, weights within bounds,
        # stable page recovers the flag homology (char 0, non-resonant)
        normalized = chi if chi.is_normalized else chi.normalize()[0]
        nonres_q = field.char == 0 and all(normalized.m(v) != 0 for v in g.vertices)
        if nonres_q:
            support = torsion_support(g, normalized)
            tc = BoundaryTables(fc, normalized, QQ)
            for d in support.values:
                wc = weighted_complex(tc, d)
                kd = wc.field
                weights = wc_weights(wc)
                for s in chain(*map(fc.simplices_of, fc.masks)):
                    if weights[s] > len(s) + 1:
                        failures.append((idx, "weight bound", d, s))
                for n in range(0, fc.dim + 1):
                    for col in wc.columns.get(n + 1, []):
                        acc = {}
                        for mid, unit in col.items():
                            for out, unit2 in wc.columns[n][mid].items():
                                acc[out] = kd.add(acc.get(out, kd.zero),
                                                  kd.mul(unit, unit2))
                        if any(not kd.is_zero(v) for v in acc.values()):
                            failures.append((idx, "graded dd", d, n))
                pt = page_dims(wc)
                for k in solve_torsion(pt, ranks):
                    if pt.stable_row(k) != ranks[k]:
                        failures.append((idx, "stable page", d, k))

        # Smith forms: divisibility chain, the reference against the engine, shape checks
        if field.char == 0:
            support_k = torsion_support(g, normalized) \
                if all(normalized.m(v) != 0 for v in g.vertices) else None
            for k in range(0, fc.dim + 1):
                dec = homology_module(fc, normalized, field, k)
                for f, h in zip(dec.invariant_factors, dec.invariant_factors[1:]):
                    try:
                        h.exact_div(f)
                    except ValueError:
                        failures.append((idx, "chain", k))
                if support_k is not None:
                    rep = verify_shape(dec, support_k, ims, ranks, res, normalized)
                    if not rep.ok:
                        failures.append((idx, "shape", k, rep.checks))
            if idx < 6:
                # the Euclidean reference gives the engine's invariant factors
                # over Q on the fixture cases, whose entry degrees keep
                # Euclidean reduction well behaved
                t = BoundaryTables(fc, normalized, field)
                for k in (1, 2):
                    m = twisted_boundary(t, k)
                    if not m.cols:
                        continue
                    if (smith_normal_form(m).invariant_factors
                            != boundary_smith_form(t, k).invariant_factors):
                        failures.append((idx, "reference-q", k))
        else:
            t = BoundaryTables(fc, normalized, field)
            for k in range(0, fc.dim + 1):
                s = smith_normal_form(twisted_boundary(t, k + 1))
                for f, h in zip(s.invariant_factors, s.invariant_factors[1:]):
                    try:
                        h.exact_div(f)
                    except ValueError:
                        failures.append((idx, "chain-p", k))
                # the reference gives the engine's invariant factors
                if s.invariant_factors != boundary_smith_form(t, k + 1).invariant_factors:
                    failures.append((idx, "reference", k))

    assert _report(6, not failures, f"structural suite ({len(failures)} failures)"), \
        failures[:10]


# ---------------------------------------------------------------------------
# criterion 7: brute-force Fitting ideals against the Smith engines
# ---------------------------------------------------------------------------

def _first(weights, n):
    """`BoundaryTables.weights` cut to its first n positions."""
    zeros, arrays = weights
    return zeros[:n], {d: ws[:n] for d, ws in arrays.items() if any(ws[:n])}


def test_acceptance_7_fitting_bruteforce():
    rng = random.Random(0xF17)
    bad = []
    checked = 0
    # twisted boundaries of small random graphs, truncated to <= 4x4 blocks
    for trial in range(12):
        g, chi = random_case(rng, max_vertices=4)
        fc = build_flag_complex(g)
        field = QQ if trial % 3 else F2
        t = BoundaryTables(fc, chi, field)
        for k in (1, 2):
            m = twisted_boundary(t, k)
            if not m.rows or not m.cols:
                continue
            rows = m.rows[:4]
            cols = m.cols[:4]
            m = submatrix(m, rows, cols)
            # the engine's reduction step on the same 4 x 4 corner
            signs, _ = signed_boundary(t, k)
            corner = [{i: x for i, x in col.items() if i < 4} for col in signs[:4]]
            snf = cyclotomic_invariant_factors(corner, _first(t.weights(k - 1), 4),
                                               _first(t.weights(k), 4), field)
            field = m.field
            for size in range(1, min(len(rows), len(cols)) + 1):
                gcd = LaurentPoly.zero(field)
                for ri in combinations(range(len(rows)), size):
                    for ci in combinations(range(len(cols)), size):
                        minor = det(submatrix(m, [rows[i] for i in ri],
                                              [cols[j] for j in ci]))
                        if not minor.is_zero():
                            gcd = laurent_gcd(gcd, minor)
                if size <= snf.rank:
                    prod = LaurentPoly.one(field)
                    for f in snf.invariant_factors[:size]:
                        prod = prod * f
                    checked += 1
                    if gcd != normalize_unit(prod):
                        bad.append((trial, k, size))
                elif not gcd.is_zero():
                    bad.append((trial, k, size, "rank"))
    assert checked >= 20
    assert _report(7, not bad, f"gcd of s x s minors = d_1...d_s on {checked} blocks"), bad
