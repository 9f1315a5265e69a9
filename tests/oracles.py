"""Reference implementations the tests compare the package against.

None of these run in the pipeline: they are slow, naive or written for
small audit sizes, and each one checks a faster route of the package.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from artinkernels.flag import FlagComplex
from artinkernels.graphs import (Character, LabeledGraph, connected_components,
                                 resonance_sets)
from artinkernels.laurent import (LaurentPoly, ZeroPolynomialError, cyclotomic,
                                  cyclotomic_field, cyclotomic_int,
                                  cyclotomic_product, dense_divmod,
                                  dense_mul, dense_sub,
                                  t_minus_one_multiplicities)
from artinkernels.linalg import rank as field_rank, staircase_leads
from artinkernels.scalars import QQ, Field, Rationals
from artinkernels.smith import _clear_to_polys, taylor_block
from artinkernels.spectral import (DisconnectedGraphError, NegativeMultiplicityError,
                                   PageTable, ResonantCharacterError,
                                   WeightedComplex, edge_weight, vertex_weight)
from artinkernels.twisted import BoundaryTables, PolyMatrix, factor_poly, twisted_boundary


# ---------------------------------------------------------------------------
# cliques and sphericity
# ---------------------------------------------------------------------------

def is_complete(g: LabeledGraph, vertex_set) -> bool:
    vs = list(vertex_set)
    return all(b in g.adjacency[a] for i, a in enumerate(vs) for b in vs[i + 1:])


def is_spherical(g: LabeledGraph, vertex_set) -> bool:
    """A complete even subgraph is spherical iff its label >= 4 edges form a
    matching (it is then a 2-join of vertices and dihedral edges)."""
    vs = list(dict.fromkeys(vertex_set))
    if not is_complete(g, vs):
        return False
    covered = set()
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if g.ell(a, b) >= 4:
                if a in covered or b in covered:
                    return False
                covered.add(a)
                covered.add(b)
    return True


# ---------------------------------------------------------------------------
# scalar and polynomial matrices
# ---------------------------------------------------------------------------

def components_by_bfs(vertices, pairs) -> list[tuple]:
    """The classes `graphs.components` should return, by breadth-first
    search from each vertex not yet reached, in the order of `vertices`."""
    nbrs = {v: [] for v in vertices}
    for (u, v) in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen: set = set()
    out = []
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        reached = [start]
        for x in reached:
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
        out.append(tuple(v for v in vertices if v in set(reached)))
    return out


def compose_int_columns(a: list[dict], b: list[dict]) -> list[dict]:
    """a * b over Z for matrices given as sparse integer columns, where
    b's row i is a's column i."""
    out = []
    for col in b:
        acc: dict = {}
        for mid, x in col.items():
            for row, y in a[mid].items():
                acc[row] = acc.get(row, 0) + x * y
        out.append(acc)
    return out


def matmul(field: Field, a: list[list], b: list[list]) -> list[list]:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        for kk in range(k):
            c = a[i][kk]
            if field.is_zero(c):
                continue
            brow = b[kk]
            orow = out[i]
            for j in range(m):
                if not field.is_zero(brow[j]):
                    orow[j] = field.add(orow[j], field.mul(c, brow[j]))
    return out


def fraction_rank(rows: list[list]) -> int:
    """Rank over Q by dense elimination on Fraction copies with the native
    operators, so it shares no arithmetic with `scalars.Rationals`."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for j in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][j]:
                f = m[i][j] / m[r][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def dense(m) -> list[list]:
    """The rows of a matrix of sparse columns (`flag.IncidenceMatrix`),
    zeros filled in."""
    rows = [[m.field.zero] * len(m.cols) for _ in m.rows]
    for j, col in enumerate(m.columns):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def sparse(rows: list[list]) -> list[dict]:
    """Dense rows as the sparse rows `linalg.rank` takes."""
    return [dict(enumerate(row)) for row in rows]


class NormalizedEchelon:
    """`linalg.BottomEchelon` with every basis vector stored divided by its
    lead, so each one pays its inverse when it is stored.  `reducers` holds
    the leads whose vectors reduced another vector."""

    def __init__(self, field: Field):
        self.field = field
        self.basis: dict = {}
        self.reducers: set = set()

    def insert(self, vec: dict):
        f = self.field
        vec = {r: c for r, c in vec.items() if not f.is_zero(c)}
        while vec:
            lead = max(vec)
            other = self.basis.get(lead)
            if other is None:
                inv = f.inv(vec[lead])
                self.basis[lead] = {r: f.mul(c, inv) for r, c in vec.items()}
                return lead
            self.reducers.add(lead)
            factor = vec.pop(lead)
            for r, c in other.items():
                if r != lead:
                    newc = f.sub(vec.get(r, f.zero), f.mul(factor, c))
                    if f.is_zero(newc):
                        vec.pop(r, None)
                    else:
                        vec[r] = newc
        return None


def normalized_column_leads(field: Field, columns, skip=frozenset()):
    """`linalg.column_leads` on `NormalizedEchelon`: the leads, and the
    echelon for its `reducers`."""
    ech = NormalizedEchelon(field)
    return [None if j in skip else ech.insert(col) for j, col in enumerate(columns)], ech


def poly_matrix(rows, cols, entries, field, k: int = 0) -> PolyMatrix:
    """The `PolyMatrix` with dense rows `entries` (LaurentPoly, zeros
    included); every test that builds one densely goes through here."""
    return PolyMatrix(rows, cols, [{i: row[j] for i, row in enumerate(entries) if row[j]}
                                   for j in range(len(cols))], field, k)


def evaluate(m: PolyMatrix, x) -> list[dict]:
    """The matrix m at x as sparse columns, each entry evaluated in full."""
    return [{i: e.evaluate(x) for i, e in col.items()} for col in m.columns]


def compose(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Matrix product a @ b (boundary-of-boundary checks)."""
    assert len(a.cols) == len(b.rows)
    a_entries, b_entries = a.entries, b.entries
    zero = LaurentPoly.zero(a.field)
    out = [[zero for _ in b.cols] for _ in a.rows]
    for i in range(len(a.rows)):
        for kk in range(len(a.cols)):
            e = a_entries[i][kk]
            if e.is_zero():
                continue
            for j in range(len(b.cols)):
                o = b_entries[kk][j]
                if not o.is_zero():
                    out[i][j] = out[i][j] + e * o
    return poly_matrix(a.rows, b.cols, out, a.field, a.k)


def submatrix(m: PolyMatrix, row_simplices, col_simplices) -> PolyMatrix:
    ri = [m.rows.index(tuple(r)) for r in row_simplices]
    ci = [m.cols.index(tuple(c)) for c in col_simplices]
    entries = m.entries
    ent = [[entries[i][j] for j in ci] for i in ri]
    return poly_matrix([m.rows[i] for i in ri], [m.cols[j] for j in ci], ent, m.field, m.k)


def det(m: PolyMatrix) -> LaurentPoly:
    n = len(m.rows)
    assert n == len(m.cols), "determinant of a non-square matrix"
    if n == 0:
        return LaurentPoly.one(m.field)
    return _det_cofactor(m.field, m.entries, list(range(n)), list(range(n)))


def _det_cofactor(field, entries, rows, cols) -> LaurentPoly:
    if len(rows) == 1:
        return entries[rows[0]][cols[0]]
    acc = LaurentPoly.zero(field)
    top = rows[0]
    rest = rows[1:]
    for idx, j in enumerate(cols):
        e = entries[top][j]
        if e.is_zero():
            continue
        minor_det = _det_cofactor(field, entries, rest, cols[:idx] + cols[idx + 1:])
        term = e * minor_det
        acc = acc + term if idx % 2 == 0 else acc - term
    return acc


def poly_matrix_rank(m: PolyMatrix) -> int:
    """Rank over the fraction field K(t), by fraction-free elimination.

    One-step Bareiss: every intermediate entry is a minor of the input, so
    degrees and coefficient sizes stay polynomially bounded.
    """
    field = m.field
    a = _clear_to_polys(m)
    nr, nc = m.shape
    r = 0
    prev = [field.one]
    for _ in range(min(nr, nc)):
        piv = None
        for i in range(r, nr):
            for j in range(r, nc):
                if a[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        a[r], a[pi] = a[pi], a[r]
        if pj != r:
            for row in a:
                row[r], row[pj] = row[pj], row[r]
        pivot = a[r][r]
        for i in range(r + 1, nr):
            for j in range(r + 1, nc):
                num = dense_sub(field, dense_mul(field, a[i][j], pivot),
                                dense_mul(field, a[i][r], a[r][j]))
                q, rem = dense_divmod(field, num, prev) if num else ([], [])
                assert not rem, "fraction-free step must divide exactly"
                a[i][j] = q
            a[i][r] = []
        prev = pivot
        r += 1
    return r


# ---------------------------------------------------------------------------
# weight polynomials and minors of the twisted boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplexWeights:
    p: LaurentPoly
    q: LaurentPoly


def simplex_weights(fc: FlagComplex, c: Character, field: Field, X) -> SimplexWeights:
    """p_X and q_X; resonant vertices and edges are excluded, so p_X q_X != 0."""
    g = fc.graph
    X = tuple(sorted(X, key=g.index.__getitem__))
    assert X in fc, f"{X} is not a simplex of the complex"
    res = resonance_sets(g, c, field)
    p = LaurentPoly.one(field)
    for v in X:
        if v not in res.resonant_vertices:
            p = p * factor_poly((None, c.m(v)), field)
    q = LaurentPoly.one(field)
    for i, u in enumerate(X):
        for v in X[i + 1:]:
            if (u, v) not in res.resonant_edges:
                q = q * factor_poly((g.ell_tilde(u, v), c.m_edge(u, v)), field)
    return SimplexWeights(p, q)


def list_weights(fc: FlagComplex, c: Character, field: Field, simplices) -> SimplexWeights:
    """Products p_{Xbar}, q_{Xbar} over a list of simplices."""
    p = LaurentPoly.one(field)
    q = LaurentPoly.one(field)
    for X in simplices:
        w = simplex_weights(fc, c, field, X)
        p = p * w.p
        q = q * w.q
    return SimplexWeights(p, q)


def minor(fc: FlagComplex, c: Character, field: Field, k: int,
          xbar, ybar) -> LaurentPoly:
    """Determinant of the square submatrix of the degree-k twisted boundary
    on columns xbar (k-simplices) and rows ybar ((k-1)-simplices)."""
    xbar = [tuple(sorted(x, key=fc.graph.index.__getitem__)) for x in xbar]
    ybar = [tuple(sorted(y, key=fc.graph.index.__getitem__)) for y in ybar]
    if len(xbar) != len(ybar):
        raise ValueError("minor needs equally many rows and columns")
    m = twisted_boundary(BoundaryTables(fc, c, field), k)
    return det(submatrix(m, ybar, xbar))


def simplex_weight(g, c: Character, X, d: int) -> int:
    """mult_d(p_X q_X), summed over the vertices and edges of X."""
    w = sum(vertex_weight(c, v, d) for v in X)
    for i, u in enumerate(X):
        for v in X[i + 1:]:
            w += edge_weight(g, c, u, v, d)
    return w


# ---------------------------------------------------------------------------
# Phi_d-exponents with every weight vector reduced
# ---------------------------------------------------------------------------

def exponents_every_vector(columns: list, row_weights: tuple, col_weights: tuple,
                           field: Field, cleared: dict | None = None) -> tuple:
    """`smith.cyclotomic_invariant_factors` as it was before its pivot-minor
    certificate: one reduction for every distinct weight vector, none
    skipped, on `NormalizedEchelon`.  The weights are as
    `BoundaryTables.weights` gives them.  Returns the rank, the ascending
    gaps of the orders d with a nonzero gap, and the pivot rows per row
    weight tuple, for the degree below to clear with; each reduction skips
    the columns `cleared` holds under its column weight tuple."""
    (row_zeros, row_arrays), (col_zeros, col_arrays) = row_weights, col_weights
    ranks, exponents, pivot_rows, gaps_of = set(), {}, {}, {}
    for d in sorted(set(row_arrays) | set(col_arrays)) or [None]:
        row_w = tuple(row_arrays.get(d, [0] * len(row_zeros)))
        col_w = tuple(col_arrays.get(d, [0] * len(col_zeros)))
        if (row_w, col_w) not in gaps_of:
            skip = (cleared or {}).get(col_w, ())
            rows = sorted(range(len(row_w)), key=lambda i: row_w[i])
            slot = {i: s for s, i in enumerate(rows)}
            order = [j for j in sorted(range(len(col_w)), key=lambda j: col_w[j])
                     if j not in skip]
            leads, _ = normalized_column_leads(
                field, [{slot[i]: x for i, x in columns[j].items()} for j in order])
            pivots = [(j, rows[low]) for j, low in zip(order, leads) if low is not None]
            gaps_of[row_w, col_w] = sorted(col_w[j] - row_w[i] for j, i in pivots)
            pivot_rows[row_w] = {i for _, i in pivots}
            ranks.add(len(pivots))
        if any(gaps_of[row_w, col_w]):
            exponents[d] = gaps_of[row_w, col_w]
    assert len(ranks) == 1, f"reductions disagree on the rank: {sorted(ranks)}"
    return ranks.pop(), exponents, pivot_rows


# ---------------------------------------------------------------------------
# cyclotomic multiplicities and truncated homology
# ---------------------------------------------------------------------------

def mult_d(f: LaurentPoly, d: int) -> int:
    """Largest m with Phi_d^m | f.  Characteristic zero only."""
    if f.is_zero():
        raise ZeroPolynomialError("mult_d of the zero polynomial")
    if f.field.char != 0:
        raise ValueError("mult_d is defined for characteristic zero; "
                         "use factor_invariant over GF(p)")
    field = f.field
    phi = [field.from_int(c) for c in cyclotomic_int(d)]
    cs, _ = f.dense()
    count = 0
    while len(cs) >= len(phi):
        q, r = dense_divmod(field, cs, phi)
        if r:
            break
        cs = q
        count += 1
    return count


def cyclotomic_exponent(f: LaurentPoly, d: int, field: Field) -> int:
    """Largest a with Phi_d^a | f over field, by exact division: the
    Phi_d-exponent when char K does not divide d, as Phi_d is then
    squarefree over K."""
    phi, a = cyclotomic(d, field), 0
    while True:
        try:
            f = f.exact_div(phi)
        except ValueError:
            return a
        a += 1


def truncated_homology_dims(fc: FlagComplex, c: Character, d: int, s: int) -> dict:
    """dim over K_d of the homology with coefficients in K_d[tau]/(tau^s),
    the twisted boundary entries expanded as truncated series at a root of
    Phi_d.  Equals the partial sums h^1 + ... + h^s of the page rows, which
    is what the tests check.
    """
    kd = cyclotomic_field(d)
    dims = {}
    big_rank = {}
    t = BoundaryTables(fc, c, QQ)
    for n in range(0, fc.dim + 2):
        tb = twisted_boundary(t, n)
        rows = taylor_block(tb, d, s)
        big_rank[n] = field_rank(kd, sparse(rows))
    for k in range(0, fc.dim + 1):
        dims[k] = s * len(fc.simplices_of(k)) - big_rank[k] - big_rank[k + 1]
    return dims


# ---------------------------------------------------------------------------
# weighted complexes decoded, and page tables with every page computed
# ---------------------------------------------------------------------------

def wc_basis(wc: WeightedComplex, n: int) -> list:
    """The n-simplices of `wc` as vertex tuples, in its (weight, position) order."""
    return [wc.t.fc.simplices_of(n)[j] for j in wc.order[n]]


def wc_weights(wc: WeightedComplex) -> dict:
    """{simplex: weight} over every chain degree of `wc`, decoded from positions."""
    return {X: w for n in wc.order for X, w in zip(wc_basis(wc, n), wc.weights[n])}


# The reference for `spectral.page_dims`, which counts persistence pairs and
# computes pages only up to max_weight + 1, where the sequence degenerates.

def page_dims_every_page(wc: WeightedComplex) -> PageTable:
    """Dimensions of every page position, by staircase ranks, with the page
    formula evaluated on every page through s_max + 1:

        h^s_(p,q) = dim Z^s_(p,q) - dim Z^(s-1)_(p-1,q+1)
                  - dim Z^(s-1)_(p+s-1,q-s+2) + dim Z^s_(p+s-1,q-s+2),

    with Z^s_(p,q) = F_p C_(p+q) fed through the boundary into F_(p-s).
    Pages are computed through max(dim + 3, max_weight + 2); the last two
    agree entrywise (the sequence has degenerated), and the table keeps
    every page through s_max, the last of them the stable one, with the
    gap counts differenced from the pages and the unpaired counts read off
    the stable page.  The sweeps run from the top degree down, each
    clearing the columns that lead the sweep above (`spectral` module
    docstring).
    """
    kd = wc.field
    wmax = wc.max_weight
    top = wc.t.fc.dim
    s_hi = max(top + 3, wmax + 2)

    # n -> cumulative column counts per weight 0..wmax
    counts = {n: [sum(1 for w in ws if w <= p) for p in range(wmax + 1)]
              for n, ws in wc.weights.items()}
    # n -> per column weight p, per a = -1 .. wmax: the rank of the boundary
    # of degree n on columns of weight <= p and rows of weight > a, which is
    # the number of leads of the snapshot p whose row weight exceeds a
    above = {}
    cleared = frozenset()
    for n in range(top, -2, -1):
        lead_snaps = staircase_leads(kd, wc.columns[n], counts[n], cleared)
        row_ws = wc.weights.get(n - 1, [])
        above[n] = []
        for leads in lead_snaps:
            per_weight = [0] * (wmax + 2)
            for i in leads:
                per_weight[row_ws[i]] += 1
            above[n].append(list(accumulate(reversed(per_weight)))[::-1])
        cleared = frozenset(lead_snaps[-1])

    def z_dim(s: int, p: int, n: int) -> int:
        if p < 0 or n < -1 or n > top:
            return 0
        a = min(max(p - s, -1), wmax)
        p = min(p, wmax)
        return counts[n][p] - above[n][p][a + 1]

    dims = {}
    for n in range(-1, top + 1):
        for p in range(0, wmax + 1):
            q = n - p
            e0 = counts[n][p] - (counts[n][p - 1] if p else 0)
            if e0:
                dims[(0, p, q)] = e0
            for s in range(1, s_hi + 2):
                val = (z_dim(s, p, n) - z_dim(s - 1, p - 1, n)
                       - z_dim(s - 1, p + s - 1, n + 1) + z_dim(s, p + s - 1, n + 1))
                if val:
                    dims[(s, p, q)] = val

    pages = [{(p, q): val for (t, p, q), val in dims.items() if t == s}
             for s in range(s_hi + 2)]
    if pages[s_hi] != pages[s_hi + 1]:
        raise NegativeMultiplicityError(
            f"pages {s_hi} and {s_hi + 1} differ for d={wc.d}: not stabilized")

    # the gap counts by differencing the pages: from page j to j + 1, row k
    # loses the simplices of its (k-1, k) and (k, k+1) pairs of gap j, and
    # row -1 has no pairs below it
    def row(s, k):
        return sum(v for (p, q), v in pages[s].items() if p + q == k)
    gaps, below = {}, [0] * (s_hi + 1)
    for k in range(-1, top):
        below = [row(j, k) - row(j + 1, k) - below[j] for j in range(s_hi + 1)]
        gaps.update(((k, j), v) for j, v in enumerate(below) if v)
    # the unpaired counts are the stable page's rows, and the table holds
    # these pages as given: with no pairs, it builds none
    pt = PageTable(wc.orders, s_hi, wmax, top, gaps,
                   {k: row(s_hi, k) for k in range(-1, top + 1)}, wc.weights, None)
    pt.pages = pages[:s_hi + 1]
    return pt


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the residue field K_d
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def cyclotomic_by_division(d: int) -> tuple:
    """Phi_d by its definition: t^d - 1 divided by every Phi_e, e | d, e < d,
    by integer long division (each Phi_e is monic)."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            phi = cyclotomic_by_division(e)
            k = len(phi) - 1
            q = [0] * (len(num) - k)
            for top in range(len(num) - 1, k - 1, -1):
                q[top - k] = c = num[top]
                for i in range(k + 1):
                    num[top - k + i] -= c * phi[i]
            assert not any(num)
            num = q
    return tuple(num)


def kd_coordinates(kd, a) -> list:
    """An element of K_d as its phi(d) rational coordinates."""
    nums, den = a
    return [Fraction(x, den) for x in nums]


def kd_reduce(kd, cs: list) -> list:
    """A rational polynomial mod Phi_d, as phi(d) coordinates, by dense
    division over Q."""
    qq = Rationals()
    rem = dense_divmod(qq, list(cs), [Fraction(c) for c in cyclotomic_by_division(kd.d)])[1]
    return rem + [Fraction(0)] * (kd.deg - len(rem))


def trunc_mul(kd, a: list, b: list, order: int) -> list:
    """Product of K_d[tau]/(tau^order) elements as coefficient lists."""
    out = [kd.zero] * order
    for i, x in enumerate(a):
        if kd.is_zero(x):
            continue
        for j, y in enumerate(b):
            if i + j >= order:
                break
            if not kd.is_zero(y):
                out[i + j] = kd.add(out[i + j], kd.mul(x, y))
    return out


def trunc_inv(kd, a: list, order: int) -> list:
    """Inverse of a unit in K_d[tau]/(tau^order)."""
    inv0 = kd.inv(a[0])
    out = [kd.zero] * order
    out[0] = inv0
    for i in range(1, order):
        acc = kd.zero
        for j in range(1, i + 1):
            if j < len(a):
                acc = kd.add(acc, kd.mul(a[j], out[i - j]))
        out[i] = kd.neg(kd.mul(inv0, acc))
    return out


def int_divmod_popping(a: list[int], b: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, b monic: the former
    `laurent._int_divmod_poly`, which pops the cancelled top after every
    step and trims the remainder (when a is at least as long as b)."""
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    terms = [(i, c) for i, c in enumerate(b[:-1]) if c]
    while len(r) >= len(b):
        c = r[-1]
        shift = len(r) - len(b)
        q[shift] = c
        for i, x in terms:
            r[shift + i] -= c * x
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return q, r


def quotient_residue_unfolded(f: LaurentPoly, d: int, drop: int):
    """The class of f / Phi_d^drop in K_d: the former `laurent.quotient_residue`,
    which divides the whole numerator, of degree about deg f, drop times by
    Phi_d, with no fold mod (t^d - 1)^(drop + 1) first."""
    if f.field.char != 0:
        raise ValueError("residue fields are only used in characteristic zero")
    kd = cyclotomic_field(d)
    if not f.coeffs:
        return kd.zero
    terms, den = f.coeffs.items(), 1
    if not all(type(c) is int for _, c in terms):
        den = math.lcm(*(c.denominator for _, c in terms))
        terms = [(e, c.numerator * (den // c.denominator)) for e, c in terms]
    if drop:
        val = min(f.coeffs)
        nums = [0] * (max(f.coeffs) - val + 1)
        for e, c in terms:
            nums[e - val] = c
        phi = cyclotomic_int(d)
        for _ in range(drop):
            nums, rem = int_divmod_popping(nums, phi)
            if rem:
                raise ArithmeticError("division by Phi_d is not exact")
        terms = enumerate(nums, val)
    return kd._reduce(terms, den)


def cyclotomic_product_by_powers(mults: dict, field: Field) -> LaurentPoly:
    """The product of Phi_d^k over the (d, k) in mults, as products of
    `LaurentPoly` powers over the field (the former
    `laurent.cyclotomic_product`)."""
    out = LaurentPoly.one(field)
    for d, k in sorted(mults.items()):
        out = out * cyclotomic(d, field) ** k
    return out


def evaluate_by_multiplication(f: LaurentPoly, x):
    """f at an invertible x, each term c t^e as e multiplications of c by x
    (by x^-1 when e < 0): the former `LaurentPoly.evaluate`."""
    field = f.field
    acc, xinv = field.zero, None
    for e, c in f.coeffs.items():
        if e < 0 and xinv is None:
            xinv = field.inv(x)
        p, term = (x if e >= 0 else xinv), c
        for _ in range(abs(e)):
            term = field.mul(term, p)
        acc = field.add(acc, term)
    return acc


def horner_taylor(f, d, order):
    """f(zeta_d + tau) mod tau^order by Horner in K_d[tau]/(tau^order)."""
    kd = cyclotomic_field(d)
    if f.is_zero():
        return [kd.zero] * order
    lin = ([kd.root_combination({1: 1}), kd.one] + [kd.zero] * max(0, order - 2))[:order]
    cs, val = f.dense()
    acc = [kd.zero] * order
    for coeff in reversed(cs):
        acc = trunc_mul(kd, acc, lin, order)
        acc[0] = kd.add(acc[0], kd.root_combination({0: coeff}))
    step = lin if val > 0 else trunc_inv(kd, lin, order)
    for _ in range(abs(val)):
        acc = trunc_mul(kd, acc, step, order)
    return acc


# ---------------------------------------------------------------------------
# rooted spanning forests, listed one by one
# ---------------------------------------------------------------------------

# The reference for `spectral.forest_fitting_h1`, which takes one minimum
# spanning tree computation per order d instead: here every spanning forest
# is built by recursion over the edges, and its exponent vector is folded
# into the per-tree-count minimum at its leaf, so the work grows with the
# number of forests and stops at `cap` of them.

class TooManyForests(RuntimeError):
    pass


def forest_fitting_h1_enumerated(g, c: Character, field: Field,
                                 cap: int = 200_000) -> list:
    """Invariant factors of the degree-1 twisted boundary from rooted
    spanning forests; the nontrivial ones are the torsion of H_1.

    Returns the full chain d_1 | d_2 | ... (trivial factors included) so
    callers can compare against the Smith normal form directly.  Every
    forest weight is, up to a unit, a product of Phi_d over orders d prime
    to char K, and these are pairwise coprime (`spectral` module
    docstring).  So a forest is one integer exponent per order d, the gcd
    over the forests with s trees is the elementwise minimum, and a
    polynomial is expanded only once per s.
    """
    res = resonance_sets(g, c, field)
    if not res.is_K_nonresonant:
        raise ResonantCharacterError("forest Fitting ideals need a K non-resonant "
                                     "character")
    if len(connected_components(g)) != 1:
        raise DisconnectedGraphError("spanning forests need a connected graph")
    p = field.char
    n = len(g.vertices)
    edges = g.edge_list

    def q_mults(u, v) -> dict:
        # q_lt(t^0) = lt is a unit off resonance
        me = c.m_edge(u, v)
        if me == 0:
            return {}
        below = t_minus_one_multiplicities(me, p)
        above = t_minus_one_multiplicities(g.ell_tilde(u, v) * me, p)
        return {d: k - below.get(d, 0) for d, k in above.items()}

    # tree gcds divide the m_v, so these are all the orders that occur
    orders = sorted(set().union(
        *(t_minus_one_multiplicities(c.m(v), p) for v in g.vertices),
        *(q_mults(u, v) for (u, v) in edges)))

    def vec(mults: dict) -> tuple:
        return tuple(mults.get(d, 0) for d in orders)

    @functools.cache
    def tm1(m: int) -> tuple:
        return vec(t_minus_one_multiplicities(m, p))

    # A forest's exponent vector sums q_e over its edges, (deg v - 1) times
    # t^(m_v) - 1 over the vertices and t^(gcd of the m_v in T) - 1 over
    # its trees T.  A one-vertex tree contributes -1 + 1 = 0, so the empty
    # forest has vector 0, and joining trees of gcds ga and gb by edge i
    # adds q_e, t^(m_u) - 1 and t^(m_v) - 1 for the two degrees that grow,
    # and the change of the tree terms.
    @functools.cache
    def step(i: int, ga: int, gb: int) -> tuple:
        u, v = edges[i]
        return tuple(q + mu + mv + m - a - b for q, mu, mv, m, a, b in zip(
            vec(q_mults(u, v)), tm1(c.m(u)), tm1(c.m(v)),
            tm1(math.gcd(ga, gb)), tm1(ga), tm1(gb)))

    ends = [(g.vertices.index(u), g.vertices.index(v)) for (u, v) in edges]
    parent = list(range(n))
    root_gcd = [abs(c.m(v)) for v in g.vertices]
    # vectors built by map are lists: tuple(map(...)) allocates for a
    # guessed length and shrinks, so freed tuples pile up on a free list
    best = {}   # number of trees -> least exponent vector so far
    count = 0

    def rec(i, acc, trees):
        nonlocal count
        if i == len(edges):
            count += 1
            if count > cap:
                raise TooManyForests(f"more than {cap} spanning forests")
            best[trees] = list(map(min, best.get(trees, acc), acc))
            return
        rec(i + 1, acc, trees)
        ru, rv = _find(parent, ends[i][0]), _find(parent, ends[i][1])
        if ru == rv:
            return
        ga, gb = root_gcd[ru], root_gcd[rv]
        parent[ru] = rv
        root_gcd[rv] = math.gcd(ga, gb)
        rec(i + 1, list(map(int.__add__, acc, step(i, ga, gb))), trees - 1)
        parent[ru] = ru
        root_gcd[rv] = gb

    rec(0, vec({}), n)

    factors = []
    for s in range(n - 1, 0, -1):
        drop = {d: a - b for d, a, b in zip(orders, best[s], best[s + 1])}
        if any(k < 0 for k in drop.values()):
            raise ValueError(f"forest gcds with {s} and {s + 1} trees do not "
                             "form a divisibility chain")
        fac = cyclotomic_product(drop, field)
        # p_e and q_e have simple roots in characteristic zero, so removing
        # a forest edge moves any multiplicity by at most 2 and Jordan
        # blocks of the degree-0 torsion have size at most 2; mod p the
        # roots can repeat (p | m_v or p | lt(e)) and larger blocks occur
        if field.char == 0 and any(k > 2 for k in drop.values()):
            raise NegativeMultiplicityError(
                f"forest invariant factor {fac} has a cube factor; "
                "degree-0 Jordan blocks are bounded by 2")
        factors.append(fac)
    return factors


def least_forest_costs_listed(n: int, edges, root_costs) -> list:
    """For s = 1 .. n, the least cost over the spanning forests with s trees,
    each forest's n - s edges listed as a combination: the costs of its
    edges (u, v, cost) plus, per tree, the least root cost of its vertices.
    The reference for `spectral.least_forest_costs`."""
    best = []
    for s in range(1, n + 1):
        costs = []
        for forest in itertools.combinations(edges, n - s):
            parent = list(range(n))
            for u, v, _ in forest:
                ru, rv = _find(parent, u), _find(parent, v)
                if ru == rv:
                    break
                parent[ru] = rv
            else:
                trees = {}
                for v, r in enumerate(root_costs):
                    x = _find(parent, v)
                    trees[x] = min(trees.get(x, r), r)
                costs.append(sum(cost for _, _, cost in forest) + sum(trees.values()))
        best.append(min(costs))
    return best


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x
