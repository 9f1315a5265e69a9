"""Differential tests of the exact kernels under the Smith and ss routes
against naive reference algorithms: Horner expansion of truncated series,
dense Gaussian elimination, the bottom echelon that stores every vector
divided by its lead, and Phi_d-exponents from cokernel dimensions of one
dense Taylor block per truncation depth.
"""

import copy
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from artinkernels import (BoundaryTables, Character, LabeledGraph, LaurentPoly,
                          boundary_smith_form, build_flag_complex,
                          cyclotomic_field, homology_modules, page_dims,
                          torsion_support, twisted_boundary, weighted_complex)
from artinkernels import smith, spectral
from artinkernels.laurent import residue_eval
from artinkernels.laurent import CyclotomicField, taylor_at_root
from artinkernels.linalg import BottomEchelon, column_leads, rank, staircase_leads
from artinkernels.scalars import PrimeField
from artinkernels.smith import cyclotomic_candidates, taylor_block

from conftest import QQ, random_case
from oracles import evaluate, fraction_rank, horner_taylor, normalized_column_leads, sparse

ORDERS_D = (1, 2, 3, 4, 5, 6, 12)
BLOCK_DEPTH_CAP = 64           # deepest truncation block_exponents builds


def L(coeffs):
    return LaurentPoly(QQ, {e: QQ.from_int(c) for e, c in coeffs.items()})


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def dense_rank(field, rows):
    """Rank by dense elimination, first nonzero pivot."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(m)) if not field.is_zero(m[i][j])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][j])
        for i in range(r + 1, len(m)):
            if not field.is_zero(m[i][j]):
                f = field.mul(m[i][j], inv)
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def block_exponents(m, d, rank_):
    """Phi_d-exponents from cokernel dimensions over K_d[tau]/(tau^j),
    one dense Taylor block per j: the count of exponents >= j is the jump
    of the cokernel dimension beyond the corank."""
    kd = cyclotomic_field(d)
    nr = m.shape[0]
    exps = [0] * rank_
    prev = 0
    for j in range(1, BLOCK_DEPTH_CAP + 1):
        rows = taylor_block(m, d, j)
        coker = nr * j - (dense_rank(kd, rows) if rows else 0)
        at_least_j = coker - prev - (nr - rank_)
        prev = coker
        if at_least_j == 0:
            return exps
        for i in range(rank_ - at_least_j, rank_):
            exps[i] = j
    raise AssertionError("reference did not stabilize")


def random_laurent(rng, lo=-4, hi=6, terms=4):
    return L({rng.randint(lo, hi): rng.randint(-3, 3) for _ in range(terms)})


# ---------------------------------------------------------------------------
# Taylor coefficients at roots of unity
# ---------------------------------------------------------------------------

def test_binomial_taylor_matches_horner():
    rng = random.Random(7)
    polys = [L({}), L({0: 5}), L({-1: 1}), L({-3: 2, 4: -1}), L({1: 1, 0: -1})]
    polys += [random_laurent(rng) for _ in range(12)]
    for d in ORDERS_D:
        for order in range(1, 6):
            for f in polys:
                assert taylor_at_root(f, d, order) == horner_taylor(f, d, order), \
                    (str(f), d, order)


def test_residue_eval_is_the_order_one_coefficient():
    rng = random.Random(8)
    for d in ORDERS_D:
        kd = cyclotomic_field(d)
        for _ in range(10):
            f = random_laurent(rng, lo=-2 * d, hi=2 * d)
            assert residue_eval(f, d) == horner_taylor(f, d, 1)[0]
        assert residue_eval(L({-d: 1}), d) == kd.one


def test_taylor_of_a_cyclotomic_vanishes_to_first_order():
    from artinkernels.laurent import cyclotomic_int
    for d in ORDERS_D:
        kd = cyclotomic_field(d)
        phi = L(dict(enumerate(cyclotomic_int(d))))
        c0, c1 = taylor_at_root(phi * phi.shift(-3), d, 2)
        assert kd.is_zero(c0) and kd.is_zero(c1)
        c0, c1 = taylor_at_root(phi.shift(-1), d, 2)
        assert kd.is_zero(c0) and not kd.is_zero(c1)


# ---------------------------------------------------------------------------
# sparse field rank
# ---------------------------------------------------------------------------

def random_matrix(rng, field, draw, nr, nc, inner, density):
    """An nr x nc product of random nr x inner and inner x nc factors,
    so the rank is at most `inner`; `density` thins the left factor."""
    a = [[draw() if rng.random() < density else field.zero for _ in range(inner)]
         for _ in range(nr)]
    b = [[draw() for _ in range(nc)] for _ in range(inner)]
    out = []
    for row in a:
        acc = [field.zero] * nc
        for x, brow in zip(row, b):
            if not field.is_zero(x):
                acc = [field.add(s, field.mul(x, y)) for s, y in zip(acc, brow)]
        out.append(acc)
    return out


@pytest.mark.parametrize("field_name", ["Q", "GF(5)", "K_5", "K_12"])
def test_sparse_rank_matches_dense_reference(field_name):
    rng = random.Random(field_name)
    if field_name == "Q":
        field = QQ
        draw = lambda: QQ.from_int(rng.randint(-2, 2))  # noqa: E731
    elif field_name == "GF(5)":
        field = PrimeField(5)
        draw = lambda: rng.randrange(5)  # noqa: E731
    else:
        field = cyclotomic_field(int(field_name[2:]))
        draw = lambda: field.add(field.from_int(rng.randint(-1, 1)),  # noqa: E731
                                 field.mul(field.gen, field.from_int(rng.randint(-1, 1))))
    for _ in range(12):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, field, draw, nr, nc, rng.randint(0, 5),
                          rng.choice((0.3, 0.7, 1.0)))
        rows = sparse(m)
        before = copy.deepcopy(rows)
        assert rank(field, rows) == dense_rank(field, m)
        assert rows == before, "rank must not mutate its input"


def test_sparse_rank_edge_cases():
    assert rank(QQ, []) == 0
    assert rank(QQ, [{}]) == 0
    assert rank(QQ, sparse([[QQ.zero] * 3 for _ in range(4)])) == 0
    one = QQ.one
    assert rank(QQ, sparse([[one, one], [one, one], [QQ.zero, one]])) == 2
    f5 = PrimeField(5)
    assert rank(f5, sparse([[1, 2], [2, 4]])) == 1


def test_sparse_rank_of_boundaries_matches_dense_reference():
    rng = random.Random(3)
    for _ in range(6):
        g, chi = random_case(rng, max_vertices=6)
        t = BoundaryTables(build_flag_complex(g), chi, QQ)
        for k in range(0, t.fc.dim + 2):
            m = twisted_boundary(t, k)
            rows = evaluate(m, QQ.from_int(2))
            before = copy.deepcopy(rows)
            assert rank(QQ, rows) == dense_rank(QQ, [[e.evaluate(QQ.from_int(2)) for e in row]
                                                   for row in m.entries])
            assert rows == before


# ---------------------------------------------------------------------------
# bottom-echelon staircase
# ---------------------------------------------------------------------------

def field_and_draw(field_name: str, rng: random.Random):
    """The field named Q, GF(p) or K_d, and a function drawing small
    elements of it, zero included."""
    if field_name.startswith("K_"):
        field = cyclotomic_field(int(field_name[2:]))
        return field, lambda: field.root_combination(
            {rng.randrange(field.d): Fraction(rng.randint(-2, 2), rng.randint(1, 3))
             for _ in range(2)})
    field = QQ if field_name == "Q" else PrimeField(int(field_name[3:-1]))
    return field, lambda: field.from_int(rng.randint(-2, 2))


@pytest.mark.parametrize("field_name", ["Q", "GF(3)", "K_12", "K_105"])
def test_bottom_echelon_leads_count_the_staircase_ranks(field_name):
    """After each insert, the leads >= r count the rank of rows >= r of the
    columns so far: the one fact both the ss and the Smith route read."""
    rng = random.Random(field_name)
    field, draw = field_and_draw(field_name, rng)
    checked = 0
    for _ in range(15):
        nr = rng.randint(1, 8)
        ech = BottomEchelon(field)
        leads, dense, cols = [], [], []
        for _ in range(rng.randint(1, 10)):
            col = {i: draw() for i in range(nr) if rng.random() < 0.4}
            cols.append(col)
            dense.append([col.get(i, field.zero) for i in range(nr)])
            lead = ech.insert(dict(col))
            if lead is not None:
                leads.append(lead)
            assert len(set(leads)) == len(leads) == len(ech.basis)
            for r in range(nr + 1):
                below = [[c[i] for c in dense] for i in range(r, nr)]
                assert sum(1 for x in leads if x >= r) == dense_rank(field, below)
                checked += 1
        # column_leads with `skip`: the leads of the columns not skipped
        skip = {j for j in range(len(cols)) if rng.random() < 0.3}
        got = column_leads(field, cols, skip)
        assert all(got[j] is None for j in skip)
        kept = [c for j, c in enumerate(dense) if j not in skip]
        assert [x for j, x in enumerate(got) if j not in skip] == column_leads(
            field, [c for j, c in enumerate(cols) if j not in skip])
        for r in range(nr + 1):
            below = [[c[i] for c in kept] for i in range(r, nr)]
            assert sum(1 for x in got if x is not None and x >= r) == dense_rank(field, below)
    assert checked > 200


@pytest.mark.parametrize("field_name", ["Q", "GF(2)", "GF(3)", "K_12", "K_105"])
def test_leads_match_the_store_normalized_echelon(field_name):
    """`BottomEchelon` stores a vector as it reduced and inverts its lead
    only once it reduces another; `NormalizedEchelon` stores every vector
    divided by its lead.  Leads depend only on spans, so `column_leads` and
    `staircase_leads` must give the same values on both, with the columns
    that are combinations of earlier ones skipped or fed."""
    rng = random.Random(f"normalized {field_name}")
    field, draw = field_and_draw(field_name, rng)
    reducers = 0
    for _ in range(30):
        nr, nc = rng.randint(1, 9), rng.randint(0, 12)
        cols, cleared = [], set()
        for j in range(nc):
            if j and rng.random() < 0.3:
                col = {}
                for c in rng.sample(cols, rng.randint(1, j)):
                    a = draw()
                    for i, x in c.items():
                        col[i] = field.add(col.get(i, field.zero), field.mul(a, x))
                cleared.add(j)
            else:
                col = {i: draw() for i in range(nr) if rng.random() < 0.4}
            cols.append(col)
        snapshot_after = sorted(rng.randrange(nc + 2) for _ in range(3))
        for skip in (frozenset(), frozenset(cleared)):
            want, ech = normalized_column_leads(field, cols, skip)
            assert column_leads(field, cols, skip) == want
            assert staircase_leads(field, cols, snapshot_after, skip) == [
                sorted(x for x in want[:n] if x is not None) for n in snapshot_after]
            reducers += len(ech.reducers)
    assert reducers > 20


def _as_pairs(field, cols, current, builds):
    """Each column with a nonzero entry as a pair (lead, build) whose build
    logs (its index, the index being inserted) and returns the nonzero
    part; a column with none stays a dict."""
    def pair(j, col):
        kept = {i: x for i, x in col.items() if not field.is_zero(x)}

        def build():
            builds.append((j, current[0]))
            return dict(kept)
        return (max(kept), build) if kept else col
    return [pair(j, col) for j, col in enumerate(cols)]


def _fed(columns, current):
    """The columns in order, `current[0]` set to the index of the one fed."""
    for j, col in enumerate(columns):
        current[0] = j
        yield col


@pytest.mark.parametrize("field_name", ["Q", "GF(2)", "GF(3)", "GF(5)", "K_12"])
def test_implicit_pairs_match_dict_columns(field_name):
    """Columns given as pairs (lead, build) and as dicts, zero entries
    included, give the same `column_leads`, `rank` (with `leads`) and
    `staircase_leads`, with and without `skip`.  A pair whose lead is new
    when it is fed is stored unbuilt: it is built once if a later reduction
    reads it (its lead is a reducer of `NormalizedEchelon`), else never; a
    pair whose lead is taken is built once, when it is fed."""
    rng = random.Random(f"pairs {field_name}")
    field, draw = field_and_draw(field_name, rng)
    seen = dict.fromkeys(("zero entry", "stored unbuilt", "built when read",
                          "built when fed"), 0)
    for _ in range(40):
        nr, nc = rng.randint(1, 9), rng.randint(0, 12)
        cols, cleared = [], set()
        for j in range(nc):
            if j and rng.random() < 0.3:
                col = {}
                for c in rng.sample(cols, rng.randint(1, j)):
                    a = draw()
                    for i, x in c.items():
                        col[i] = field.add(col.get(i, field.zero), field.mul(a, x))
                cleared.add(j)
            else:
                col = {i: draw() for i in range(nr) if rng.random() < 0.4}
            cols.append(col)
            seen["zero entry"] += any(map(field.is_zero, col.values()))
        snapshot_after = sorted(rng.randrange(nc + 2) for _ in range(3))
        for skip in (frozenset(), frozenset(cleared)):
            current, builds = [None], []
            pairs = _as_pairs(field, cols, current, builds)
            want = column_leads(field, cols, skip)
            assert column_leads(field, _fed(pairs, current), skip) == want
            got = list(builds)
            assert want == normalized_column_leads(field, cols, skip)[0]
            want_leads, got_leads = set(), set()
            assert (rank(field, cols, skip, want_leads)
                    == rank(field, pairs, skip, got_leads) == len(got_leads))
            assert got_leads == want_leads
            assert (staircase_leads(field, pairs, snapshot_after, skip)
                    == staircase_leads(field, cols, snapshot_after, skip))
            # replay the leads: (j, True) for a pair built when fed, (j, False) when read
            reducers = normalized_column_leads(field, cols, skip)[1].reducers
            taken, want_builds = set(), Counter()
            for j, (pair, lead) in enumerate(zip(pairs, want)):
                if j not in skip and type(pair) is tuple:
                    if pair[0] in taken:
                        want_builds[j, True] += 1
                    elif lead in reducers:
                        want_builds[j, False] += 1
                    else:
                        seen["stored unbuilt"] += 1
                taken.add(lead)
            assert Counter((j, at == j) for j, at in got) == want_builds
            seen["built when fed"] += sum(fed for _, fed in want_builds)
            seen["built when read"] += sum(not fed for _, fed in want_builds)
    assert all(n > 10 for n in seen.values()), seen


@pytest.mark.parametrize("fault", ["lead off by one", "zero entry"])
@pytest.mark.parametrize("field_name", ["Q", "GF(2)", "GF(3)"])
def test_a_stored_pair_is_checked_when_a_reduction_builds_it(field_name, fault):
    """A pair stored under a lead row that is not its column's bottom-most
    row, or built with a zero entry, raises ArithmeticError as soon as a
    reduction reads it, and not before: the kernel trusts a pair's lead
    only until it builds the pair."""
    field = QQ if field_name == "Q" else PrimeField(int(field_name[3]))
    one = field.one
    col = {0: one, 2: one}
    doctored = ((3, lambda: dict(col)) if fault == "lead off by one"
                else (2, lambda: {**col, 1: field.zero}))
    ech = BottomEchelon(field)
    assert ech.insert(doctored) == doctored[0]
    assert ech.insert({1: one}) == 1
    with pytest.raises(ArithmeticError, match=f"lead row {doctored[0]} "):
        ech.insert({0: one, doctored[0]: one})


def test_ss_sweeps_invert_only_the_leads_that_reduce(monkeypatch):
    """Over the ss sweeps of K_6 with the label-4 matching ab, cd, ef,
    `CyclotomicField.inv` runs once per basis vector that reduces another
    column, never when a vector is stored: the reducers are counted by
    replaying every sweep on `NormalizedEchelon`."""
    matching = {("a", "b"), ("c", "d"), ("e", "f")}
    g = LabeledGraph(list("abcdef"), [(u, v, 4 if (u, v) in matching else 2)
                                      for u, v in combinations("abcdef", 2)])
    chi = Character(g, dict(zip("abcdef", (2, 5, 1, 3, 1, 4))))
    fc = build_flag_complex(g)
    tc = BoundaryTables(fc, chi, QQ)
    wcs = [weighted_complex(tc, d) for d in torsion_support(g, chi)]
    sweeps, inverted = [], []

    def spy(field, columns, cleared=frozenset()):
        sweeps.append((field, columns, cleared))
        return column_leads(field, columns, cleared)

    def counted_inv(self, a, _inv=CyclotomicField.inv):
        inverted.append(self.d)
        return _inv(self, a)

    monkeypatch.setattr(spectral, "column_leads", spy)
    monkeypatch.setattr(CyclotomicField, "inv", counted_inv)
    for wc in wcs:
        page_dims(wc)
    monkeypatch.undo()
    reducers = stored = 0
    for field, columns, cleared in sweeps:
        leads, ech = normalized_column_leads(field, columns, cleared)
        reducers += len(ech.reducers)
        stored += sum(lead is not None for lead in leads)
    assert len(inverted) == reducers
    assert 0 < reducers < stored / 4, (reducers, stored)


@pytest.mark.parametrize("field_name", ["Q", "GF(2)", "GF(3)"])
def test_staircase_leads_snapshots_count_the_staircase_ranks(field_name):
    """Each snapshot n holds the leads of the first n columns: #leads >= r
    is the rank of rows >= r over those columns.  Cleared columns are
    combinations of the columns before them, so skipping them changes no
    snapshot."""
    rng = random.Random(f"staircase {field_name}")
    field = QQ if field_name == "Q" else PrimeField(int(field_name[3]))
    seen = set()
    for _ in range(25):
        nr, nc = rng.randint(1, 7), rng.randint(0, 9)
        cols, cleared = [], set()
        for j in range(nc):
            if j and rng.random() < 0.3:
                col = {}
                for c in rng.sample(cols, rng.randint(1, j)):
                    a = field.from_int(rng.randint(-2, 2))
                    for i, x in c.items():
                        col[i] = field.add(col.get(i, field.zero), field.mul(a, x))
                cleared.add(j)
            else:
                col = {i: field.from_int(rng.randint(-2, 2)) for i in range(nr)
                       if rng.random() < 0.5}
            cols.append(col)
        snapshot_after = sorted(rng.choice(range(nc + 3)) for _ in range(rng.randint(1, 6)))
        if rng.random() < 0.3:
            snapshot_after.insert(0, 0)
        dense = [[c.get(i, field.zero) for i in range(nr)] for c in cols]
        for skip in (frozenset(), frozenset(cleared)):
            snaps = staircase_leads(field, cols, snapshot_after, skip)
            assert len(snaps) == len(snapshot_after)
            for n, leads in zip(snapshot_after, snaps):
                assert leads == sorted(leads)
                for r in range(nr + 1):
                    below = [[c[i] for c in dense[:n]] for i in range(r, nr)]
                    assert sum(1 for x in leads if x >= r) == dense_rank(field, below)
        seen.update(k for k, hit in (
            ("n = 0", 0 in snapshot_after), ("n past the end", snapshot_after[-1] > nc),
            ("repeated n", len(set(snapshot_after)) < len(snapshot_after)),
            ("cleared", bool(cleared))) if hit)
    assert seen == {"n = 0", "n past the end", "repeated n", "cleared"}


int_columns = st.integers(1, 7).flatmap(lambda nr: st.tuples(st.just(nr), st.lists(
    st.dictionaries(st.integers(0, nr - 1), st.integers(-4, 4)), min_size=1, max_size=8)))


@settings(max_examples=80, deadline=None)
@given(int_columns)
def test_int_and_fraction_elimination_agree(case):
    """Over Q an integer matrix and its Fraction copy give the same rank and
    the same leads, every stored value exact, and match `fraction_rank`."""
    nr, cols = case
    copies = (cols, [{i: Fraction(x) for i, x in col.items()} for col in cols])
    leads = []
    for cs in copies:
        rows = [[col.get(i, 0) for col in cs] for i in range(nr)]
        assert rank(QQ, sparse(rows)) == fraction_rank(rows)
        ech = BottomEchelon(QQ)
        leads.append([ech.insert(dict(col)) for col in cs])
        assert all(type(x) in (int, Fraction) for v in ech.basis.values() for x in v.values())
        for r in range(nr + 1):
            assert (sum(1 for x in leads[-1] if x is not None and x >= r)
                    == fraction_rank(rows[r:]))
    assert leads[0] == leads[1]


# ---------------------------------------------------------------------------
# local exponents
# ---------------------------------------------------------------------------

def test_local_exponents_match_the_block_reference():
    rng = random.Random(17)
    checked = deep = 0
    for _ in range(20):
        g, chi = random_case(rng, max_vertices=5, labels=(2, 4))
        t = BoundaryTables(build_flag_complex(g), chi, QQ)
        for k in range(0, t.fc.dim + 2):
            m = twisted_boundary(t, k)
            snf = boundary_smith_form(t, k)
            if snf.rank == 0:
                continue
            for d in cyclotomic_candidates(g, chi):
                exps = snf.exponents.get(d, [0] * snf.rank)
                assert exps == block_exponents(m, d, snf.rank), (g.edge_list, k, d)
                checked += 1
                deep += exps[-1] >= 2
    assert checked > 100 and deep > 0


def test_more_pivots_than_the_rank_raises(monkeypatch):
    g = LabeledGraph(["u", "v"], [("u", "v", 4)])
    chi = Character(g, {"u": 1, "v": 2})
    t = BoundaryTables(build_flag_complex(g), chi, QQ)
    assert boundary_smith_form(t, 1).rank == 1
    with monkeypatch.context() as mp:
        mp.setattr(smith, "specialized_rank", lambda field, at_point, cleared, leads: 0)
        with pytest.raises(ArithmeticError, match="pivots"):
            boundary_smith_form(t, 1)
    # on the run path: degree 0 clears the t = 2 lead of degree 1, and a
    # cleared rank one short still raises
    real, calls = smith.specialized_rank, []

    def short_when_cleared(field, at_point, cleared, leads):
        calls.append(len(cleared))
        return real(field, at_point, cleared, leads) - bool(cleared)

    monkeypatch.setattr(smith, "specialized_rank", short_when_cleared)
    with pytest.raises(ArithmeticError, match="pivots"):
        homology_modules(t, range(2))
    assert calls == [0, 0, 1]
