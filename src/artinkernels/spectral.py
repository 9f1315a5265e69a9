"""Multiplicity filtration, page dimensions and torsion multiplicities.

Fix a cyclotomic order d from the torsion support (characteristic zero,
non-resonant character).  The weight of a simplex X is

    w(X) = mult_d(p_X q_X),

the multiplicity of Phi_d in its weight polynomial.  Weights are monotone
along faces, so "weight <= p" filters the flag complex.  Working over the
residue field K_d = Q[z]/(Phi_d), each facet coefficient of the twisted
boundary factors as (leading unit) * Phi_d^(weight drop); the associated
graded differential keeps the unit and records the drop in the filtration.
The spectral sequence of that filtered complex is fixed by its
persistence pairs (Zomorodian and Carlsson, "Computing persistent
homology", 2005).  With rows and columns in (weight, position) order, one
bottom-echelon sweep of the unit columns of each chain degree pairs each
column X that adds a lead with its lead row Y, at gap w(X) - w(Y), and
d^s cancels exactly the pairs of gap s.  So the page dimension

    h^s_(p,q) = the number of simplices of weight p and degree p + q that
                are unpaired or whose pair has gap >= s,

and page s + 1 is page s less both simplices of each pair of gap s.
Gaps lie in 0..w_max, so the sequence degenerates at page w_max + 1,
which holds the unpaired simplices only.  `page_dims` keeps what
`solve_torsion` reads; its `PageTable` builds the pages on first read.

`weighted_complex` reads the facet coefficients off the boundaries of the
run's twisted complex over Q (`twisted_boundary`, built once for every d)
and its weights from the rule above, not from the Smith route's tables:
the leading unit of an entry is its quotient by Phi_d^(weight drop) at
zeta_d (`quotient_residue`), and the elimination runs on K_d elements of
integer numerators over one denominator.  Each sweep builds its own
`CyclotomicField(d)`, with memos of inverses and products, and a memo of
units by drop per entry object, all dying with the sweep, and takes its
weights from the grouping in `shared_page_tables`, computed once per d.

Clearing (Chen and Kerber, "Persistent homology computation with a twist",
2011): the unit at (Y, X) is +-W'(X)/W'(Y) at zeta_d, W' the part of W
prime to Phi_d, so the unit matrices are E^-1 S_n E for the signed
boundaries S_n and compose to zero.  A lead row sigma of the sweep of
degree n+1 thus makes column sigma of degree n a combination of the
columns before it in `order[n]`, which orders both: `page_dims` sweeps
from the top degree down and skips those columns, which are paired as
rows already.  Almost every column left becomes a new pivot, so
`BottomEchelon` inverts a lead in K_d only when its vector reduces
another column.

Orders with equal weights share their pages (`shared_page_tables`).  E
is diagonal and nonzero, so the rank of any submatrix of the unit matrix
over K_d is that of the same submatrix of the integer S_n over Q, and
the pairs depend on those ranks only: orders whose weights agree simplex
by simplex have equal pairs, pages and multiplicities, and each group is
swept once, at its least order, where K_d is cheapest.  This needs every
unit of every order to exist and be nonzero, so each other order still
reads at its own root the unit of each (entry, drop) the sweep read, a
remainder or a zero raising as there; equal weights give equal drops, so
these are the pairs its own pass would read.

A pair of gap j between a k-simplex and a (k+1)-simplex is a torsion
summand K[t^{+-1}]/(Phi_d^j) of the degree-k homology, so the number
n_(k,j) of those summands is the number of (k, k+1) pairs of gap j.  The
unpaired simplices of degree k number r_k, the reduced flag homology,
and Jordan blocks are bounded by j <= k+2.

An independent route to the degree-0 torsion uses rooted spanning
forests: the gcd of the forest weight polynomials with s trees is the
s-th Fitting ideal of the degree-1 boundary, and successive quotients are
its invariant factors.  Over any field K every forest weight is a unit
times a product of factors t^N - 1 and q-factors
(t^(lt m_e) - 1)/(t^(m_e) - 1).  With p = char K and N = p^a N' where p
does not divide N' (p^a = 1 in characteristic zero), t^N - 1 is the
product of Phi_d^(p^a) over d | N'.  The Phi_d with p not dividing d are
pairwise coprime, because they all divide a separable t^L - 1, so each
gcd is the product of Phi_d raised to the least exponent over the
forests, and the route needs only integer exponents per order d.

Those least exponents come from one minimum spanning tree computation per
order d.  Write b_v for the exponent of Phi_d in t^(m_v) - 1 and a_e for
its exponent in q_e.  A forest's exponent sums a_e over its edges,
(deg v - 1) b_v over the vertices and, over its trees, the exponent in
t^g - 1 for g the gcd of the tree's m_v, which is the least b_v in the
tree: Phi_d divides t^g - 1 only if d divides the part of every m_v prime
to p, and then to the power of the least p-part.  As the sum of
(deg v - 1) b_v is the sum over the forest's edges uv of b_u + b_v less
the sum of all b_v, the exponent is the cost of the forest, with edge
costs c_e = a_e + b_u + b_v and each tree paying the least b_v of its
vertices, less the sum of all b_v.  Join each tree to a new root at its
cheapest vertex: a forest with s trees becomes a spanning tree of the
graph plus the root with s root edges, the one at v costing b_v, and
every such tree gives a forest that costs no more.  So the least cost f(s) is that
of a least-cost base of a graphic matroid with s elements from a fixed
set, which is convex in s (Gabow and Tarjan, "Efficient algorithms for a
family of matroid intersection problems", J. Algorithms 1984).  With
every root edge dearer by lam, a minimum spanning tree costs
MST(lam) = min over s of f(s) + lam s, and convexity makes
f(s) = max over lam of MST(lam) - lam s.  MST(lam) changes slope only
where a root edge ties an edge of the graph, at some lam = c_e - b_v, so
the maximum is taken over those values, one Kruskal pass each.  Nothing
is listed and nothing grows exponentially: K_8 has 561 948 spanning
forests, and each order d takes a handful of passes over its 28 edges
and 8 root edges.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate

from .graphs import Character, connected_components, resonance_sets
from .laurent import (CyclotomicField, cyclotomic_field, cyclotomic_product,
                      quotient_residue, t_minus_one_multiplicities)
from .linalg import column_leads
from .scalars import Field
from .twisted import BoundaryTables, twisted_boundary


class ResonantCharacterError(ValueError):
    pass


class DisconnectedGraphError(ValueError):
    pass


class NegativeMultiplicityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def vertex_weight(c: Character, v, d: int) -> int:
    return 1 if c.m(v) % d == 0 else 0


def edge_weight(g, c: Character, u, v, d: int) -> int:
    """mult_d of p_e q_e beyond the endpoint weights: the q-factor is 1
    exactly when d | lt(e) m_e but d does not divide m_e."""
    me = c.m_edge(u, v)
    q_mult = 1 if (g.ell_tilde(u, v) * me) % d == 0 and me % d != 0 else 0
    return q_mult


@dataclass
class WeightedComplex:
    """The twisted complex `t` over Q filtered by weight for one d, each chain
    degree's simplices, boundary rows and columns in (weight, position) order."""

    t: BoundaryTables
    d: int
    field: object                     # CyclotomicField(d), this sweep's own
    order: dict                       # n -> positions sorted by (weight, position)
    weights: dict                     # n -> the weights of order[n], ascending
    columns: dict                     # n -> sparse boundary columns
    max_weight: int
    orders: tuple                     # d, then the orders whose units were also checked


def position_weights(t: BoundaryTables, d: int) -> tuple:
    """The weights w(X) for order d of the simplices of degree n by
    position, one tuple per degree n = -1 .. t.fc.dim."""
    if d < 2:
        raise ValueError("the multiplicity filtration needs d >= 2")
    fc, c, g = t.fc, t.c, t.fc.graph
    if any(c.m(v) == 0 for v in g.vertices):
        raise ResonantCharacterError("the multiplicity filtration needs a "
                                     "non-resonant character")
    # w(X) summed from tables by position: a simplex adds its last vertex
    # and the edges to it onto its prefix, the last entry of its facets.
    # Only an edge of label >= 4 can weigh 1 (a label-2 edge has q = 1), so
    # `heavy[v]` masks, per vertex index v, the other ends of the edges that do
    vertex_w = [vertex_weight(c, v, d) for v in g.vertices]
    heavy = [sum(1 << g.index[w] for w, label in g.adjacency[v].items()
                 if label > 2 and edge_weight(g, c, v, w, d)) for v in g.vertices]
    by_position = [(0,)]
    for n in range(0, fc.dim + 1):
        ws = by_position[-1]
        by_position.append(tuple([ws[fs[-1]] + vertex_w[v := m.bit_length() - 1]
                                  + (m & heavy[v]).bit_count()
                                  for m, fs in zip(fc.masks[n], fc.facets(n))]))
    return tuple(by_position)


def weighted_complex(t: BoundaryTables, d: int, shared=(), weights=None) -> WeightedComplex:
    """The filtration for order d, read off the twisted boundaries of t over
    Q in chain degrees 0 .. t.fc.dim, with `weights` as
    `position_weights(t, d)` gives them, computed when not given.  Each
    order in `shared`, whose weights must equal d's, has every unit that d
    reads read and checked at its own root too (module docstring)."""
    by_position = dict(zip(range(-1, t.fc.dim + 1), weights or position_weights(t, d)))
    # the sweep's own K_d, whose memos of inverses and products die with it
    kd = CyclotomicField(d)
    # each degree in (weight, position) order: a stable sort of the positions;
    # slot[n] is the inverse permutation, position -> index in order[n]
    order = {n: sorted(range(len(ws)), key=ws.__getitem__) for n, ws in by_position.items()}
    slot = {n: sorted(range(len(js)), key=js.__getitem__) for n, js in order.items()}

    # entries with equal factors and sign are one shared object, with one memo
    # of units by drop: each (entry, drop) has its unit read and checked once,
    # at d and at each shared order, as `or` calls new_unit on a miss only (a
    # unit is a nonempty tuple) and a failed check ends the sweep
    units = defaultdict(dict)

    def new_unit(entry, drop, tb, i, j):
        if drop < 0:
            raise ArithmeticError(f"weights must not increase along faces: "
                                  f"{tb.rows[i]}, {tb.cols[j]}")
        unit = units[id(entry)][drop] = quotient_residue(entry, d, drop)
        if kd.is_zero(unit) or any(cyclotomic_field(e).is_zero(quotient_residue(entry, e, drop))
                                   for e in shared):
            raise ArithmeticError(f"leading unit vanished at {tb.rows[i]}, {tb.cols[j]}")
        return unit

    columns = {-1: [{}]}
    for n in range(0, t.fc.dim + 1):
        tb, col_w, row_w, row_slot = (twisted_boundary(t, n), by_position[n],
                                      by_position[n - 1], slot[n - 1])
        columns[n] = [{row_slot[i]: units[id(entry)].get(col_w[j] - row_w[i])
                       or new_unit(entry, col_w[j] - row_w[i], tb, i, j)
                       for i, entry in tb.columns[j].items()} for j in order[n]]
    weights = {n: sorted(ws) for n, ws in by_position.items()}
    return WeightedComplex(t, d, kd, order, weights, columns,
                           max(w[-1] for w in weights.values()), (d, *shared))


def shared_page_tables(t: BoundaryTables, orders):
    """One PageTable per distinct filtration among the orders, in the order
    of its least order d, where K_d is cheapest; `pt.orders` lists the
    orders that share it (module docstring).  The weights that group the
    orders are the ones the sweep reads, computed once per order."""
    groups = {}
    for d in sorted(orders):
        groups.setdefault(position_weights(t, d), []).append(d)
    for weights, (d, *shared) in groups.items():
        yield page_dims(weighted_complex(t, d, shared, weights))


# ---------------------------------------------------------------------------
# page dimensions
# ---------------------------------------------------------------------------

@dataclass
class PageTable:
    orders: tuple                    # the orders d whose filtration this is
    s_max: int
    max_weight: int
    top_degree: int
    gaps: dict                       # (k, j) -> the pairs of a k-row and a (k+1)-column at gap j
    unpaired: dict                   # k -> the unpaired k-simplices, the stable page's row k
    weights: dict                    # n -> the weights of the n-simplices, ascending
    pairs: dict                      # n -> per n-column in weight order, its lead row or None

    def __post_init__(self):
        # the label names every order in the check errors
        self.label = "d=" + ",".join(map(str, self.orders))

    @functools.cached_property
    def pages(self) -> list:
        """pages[s]: (p, q) -> dim, nonzero only, for s = 0 .. max_weight + 1,
        built from the pairs (module docstring) on the first read."""
        ws = self.weights
        drops = [Counter() for _ in range(self.max_weight + 1)]
        for n, leads in self.pairs.items():
            for x, y in enumerate(leads):
                if y is not None:
                    p, r = ws[n][x], ws[n - 1][y]
                    drops[p - r].update(((p, n - p), (r, n - 1 - r)))
        first = Counter((w, n - w) for n in ws for w in ws[n])
        return list(map(dict, accumulate(drops, Counter.__sub__, initial=first)))

    @property
    def stable(self) -> dict:
        return self.pages[-1]

    def page(self, s: int) -> dict:
        return self.pages[min(s, len(self.pages) - 1)]

    def h(self, s: int, p: int, q: int) -> int:
        return self.page(s).get((p, q), 0)

    def h_row(self, s: int, k: int) -> int:
        return sum(v for (p, q), v in self.page(s).items() if p + q == k)

    def stable_row(self, k: int) -> int:
        return self.unpaired.get(k, 0)

    def nonzero(self) -> dict:
        return {(s, p, q): v for s in range(self.s_max + 1)
                for (p, q), v in sorted(self.page(s).items())}


def page_dims(wc: WeightedComplex) -> PageTable:
    """The persistence pairs of wc, their gap counts and each degree's
    unpaired simplices (module docstring); the pages follow on request.

    The table runs through page s_max = max(dim + 3, max_weight + 2).  No
    gap exceeds max_weight, so pages 0 .. max_weight + 1 are kept and the
    last is the stable page.  The sweeps run from the top degree down,
    each clearing the columns that lead the sweep above (module docstring).
    """
    wmax, top, ws = wc.max_weight, wc.t.fc.dim, wc.weights
    gaps, pairs, unpaired = {}, {}, {n: len(w) for n, w in ws.items()}
    cleared = frozenset()
    for n in range(top, -1, -1):
        leads = pairs[n] = column_leads(wc.field, wc.columns[n], cleared)
        col_w, row_w = ws[n], ws[n - 1]
        found = Counter([col_w[x] - row_w[y] for x, y in enumerate(leads) if y is not None])
        gaps.update(((n - 1, j), count) for j, count in found.items())
        cleared = frozenset(leads) - {None}
        unpaired[n] -= len(cleared)
        unpaired[n - 1] -= len(cleared)
    return PageTable(wc.orders, max(top + 3, wmax + 2), wmax, top, gaps, unpaired, ws, pairs)


# ---------------------------------------------------------------------------
# solving for the torsion multiplicities
# ---------------------------------------------------------------------------

def solve_torsion(pt: PageTable, r_list, k_max: int | None = None) -> dict:
    """n_(k,j) for j = 1..k+2: the pairs of a k-row and a (k+1)-column at gap j.

    Verifies that the unpaired simplices of each degree k, the stable
    page's row k, number r_k, and that no pair of degree k has a gap above
    the Jordan bound k + 2.
    """
    if k_max is None:
        k_max = pt.top_degree
    out = {}
    for k in range(0, k_max + 1):
        r_k = r_list[k] if k < len(r_list) else 0
        if pt.stable_row(k) != r_k:
            raise NegativeMultiplicityError(
                f"stable page row {k} is {pt.stable_row(k)} for {pt.label}, expected r_{k}={r_k}")
        gap = max((j for i, j in pt.gaps if i == k), default=0)
        if gap > k + 2:
            raise NegativeMultiplicityError(
                f"a pair of degree {k} for {pt.label} has gap {gap}, "
                "violating the Jordan bound")
        out[k] = [pt.gaps.get((k, j), 0) for j in range(1, k + 3)]
    return out


# ---------------------------------------------------------------------------
# rooted spanning forests: the independent degree-0 route
# ---------------------------------------------------------------------------

def least_forest_costs(n: int, edges, root_costs) -> list:
    """For s = 1 .. n, the least cost of a spanning forest with s trees of
    the connected graph on the vertices 0 .. n - 1: the costs of its edges,
    given as triples (u, v, cost), plus per tree the least root cost of its
    vertices.

    The greatest of MST(lam) - lam s over the tie values lam, MST(lam) being
    a minimum spanning tree of the graph plus a root joined to each vertex v
    at root_costs[v] + lam (module docstring).  The tie values pair every
    edge with every vertex, not only with its ends: the root edge that a tie
    trades for an edge can be at any vertex of the trees the edge joins.
    """
    graph = sorted((cost, u, v) for u, v, cost in edges)
    msts = []
    for lam in {cost - r for cost, _, _ in graph for r in root_costs} or {0}:
        parent = list(range(n + 1))
        total = 0
        for cost, u, v in sorted(graph + [(r + lam, v, n) for v, r in enumerate(root_costs)]):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                total += cost
        msts.append((total, lam))
    return [max(total - lam * s for total, lam in msts) for s in range(1, n + 1)]


def forest_fitting_h1(g, c: Character, field: Field) -> list:
    """Invariant factors of the degree-1 twisted boundary from rooted
    spanning forests; the nontrivial ones are the torsion of H_1.

    Returns the full chain d_1 | d_2 | ... (trivial factors included) so
    callers can compare against the Smith normal form directly.  Every
    forest weight is, up to a unit, a product of Phi_d over orders d prime
    to char K, and these are pairwise coprime (module docstring).  So a
    forest is one integer exponent per order d, the gcd over the forests
    with s trees is the least exponent order by order, one call of
    `least_forest_costs` per order gives it for every s, and a polynomial
    is expanded only once per s.
    """
    res = resonance_sets(g, c, field)
    if not res.is_K_nonresonant:
        raise ResonantCharacterError("needs a K non-resonant character")
    if len(connected_components(g)) != 1:
        raise DisconnectedGraphError("needs a connected graph")
    p = field.char
    n = len(g.vertices)

    def q_mults(u, v) -> dict:
        # q_lt(t^0) = lt is a unit off resonance
        me = c.m_edge(u, v)
        if me == 0:
            return {}
        below = t_minus_one_multiplicities(me, p)
        above = t_minus_one_multiplicities(g.ell_tilde(u, v) * me, p)
        return {d: k - below.get(d, 0) for d, k in above.items()}

    vertex_mults = [t_minus_one_multiplicities(c.m(v), p) for v in g.vertices]
    edge_mults = [(g.index[u], g.index[v], q_mults(u, v)) for (u, v) in g.edge_list]
    # tree gcds divide the m_v, so these are all the orders that occur
    orders = sorted(set().union(*vertex_mults, *(q for _, _, q in edge_mults)))

    # least[d][s - 1]: the least exponent of Phi_d over the forests with s
    # trees, the least cost with edge costs a_e + b_u + b_v and root costs
    # b_v less the sum of the b_v (module docstring)
    least = {}
    for d in orders:
        b = [mults.get(d, 0) for mults in vertex_mults]
        costs = [(i, j, q.get(d, 0) + b[i] + b[j]) for i, j, q in edge_mults]
        base = sum(b)
        least[d] = [cost - base for cost in least_forest_costs(n, costs, b)]

    factors = []
    for s in range(n - 1, 0, -1):
        drop = {d: least[d][s - 1] - least[d][s] for d in orders}
        if any(k < 0 for k in drop.values()):
            raise NegativeMultiplicityError(f"forest gcds with {s} and {s + 1} trees "
                                            "do not form a divisibility chain")
        fac = cyclotomic_product(drop, field)
        # p_e and q_e have simple roots in characteristic zero, so removing
        # a forest edge moves any multiplicity by at most 2 and Jordan
        # blocks of the degree-0 torsion have size at most 2; mod p the
        # roots can repeat (p | m_v or p | lt(e)) and larger blocks occur
        if p == 0 and any(k > 2 for k in drop.values()):
            raise NegativeMultiplicityError(
                f"forest invariant factor {fac} has a cube factor; "
                "degree-0 Jordan blocks are bounded by 2")
        factors.append(fac)
    return factors
