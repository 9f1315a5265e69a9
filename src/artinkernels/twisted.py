"""Twisted boundary matrices of the equivariant chain complex.

With respect to the basis of flag simplices, the boundary of sigma_X in
chain degree k sends it to

    sum over v in X of  <X_v|X> * (t^{m_v} - 1) * prod_{w in X_v} q_{lt(v,w)}(t^{m_v+m_w})

where X_v drops the vertex v and q_k(x) = 1 + x + ... + x^{k-1}.  The
homology of this complex of free K[t^{+-1}]-modules in degree k is the
(k+1)-st homology of the kernel subgroup, so degree 0 carries H_1.

The weight polynomials of a simplex X,

    p_X = prod over non-resonant vertices of (t^{m_v} - 1),
    q_X = prod over non-resonant edges of q_{lt(e)}(t^{m_e}),

are never zero and control both the minors (every minor of the twisted
matrix is the matching untwisted minor times p_X q_X ratios) and the
multiplicity filtration.  The coefficient at (X_v, X) is the sign times
p_X q_X / p_{X_v} q_{X_v} when X and X_v have the same resonant (zero)
factors, and 0 when v brings in one of its own.  `BoundaryTables`, the
twisted complex every boundary is read from, lists the factors; its
`entry` reads them as polynomials (`factor_poly`) and its `weights` as
Phi_d-exponents (`factor_multiplicities`), one integer array per order d.
Each is memoised on (v, X & wide[v]) for a simplex mask X, wide[v] the
mask of v's label >= 4 neighbours (an entry also on its sign's parity).
The Smith route walks the cells of each boundary once, reading both; a
`PolyMatrix` is built (`twisted_boundary`) only for ss and matrix dumps.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .flag import FlagComplex, SimplexNames, bits
from .graphs import Character
from .laurent import LaurentPoly, q_poly, t_minus_one_multiplicities
from .scalars import Field


@dataclass
class PolyMatrix:
    """Sparse matrix of Laurent polynomials with simplex-labeled axes (on a
    twisted boundary, `flag.SimplexNames`): columns[j] maps a row index to
    the nonzero entry there."""

    rows: list
    cols: list
    columns: list
    field: Field
    k: int = 0

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    @property
    def entries(self) -> tuple:
        """The dense view: a tuple of row tuples, zeros filled in."""
        grid = [[LaurentPoly.zero(self.field)] * len(self.cols) for _ in range(len(self.rows))]
        for j, col in enumerate(self.columns):
            for i, e in col.items():
                grid[i][j] = e
        return tuple(map(tuple, grid))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def dump(self) -> str:
        """Deterministic text dump for debugging and matrix dumps."""
        lines = [f"degree {self.k}: {len(self.rows)} x {len(self.cols)}"]
        for i, j, e in sorted((i, j, e) for j, col in enumerate(self.columns)
                              for i, e in col.items()):
            lines.append(f"  [{'.'.join(map(str, self.rows[i])) or 'empty'} | "
                         f"{'.'.join(map(str, self.cols[j]))}] = {e}")
        return "\n".join(lines)


def factor_poly(factor, field) -> LaurentPoly:
    """A `facet_factors` pair as a Laurent polynomial over `field`."""
    lt, m = factor
    if lt is None:
        return LaurentPoly.t_power(field, m) - LaurentPoly.one(field)
    return q_poly(lt, m, field)


@functools.lru_cache(maxsize=None)
def factor_multiplicities(factor, char: int) -> tuple | None:
    """The pairs (d, exponent of Phi_d) of the factor over a field of
    characteristic `char`, orders folded as in `t_minus_one_multiplicities`;
    None when the factor is zero: t^0 - 1, or q_lt(t^0) = lt with char | lt."""
    lt, m = factor
    if m == 0:
        return None if lt is None or (char and lt % char == 0) else ()
    out = Counter(t_minus_one_multiplicities(m if lt is None else lt * m, char))
    if lt is not None:
        out.subtract(t_minus_one_multiplicities(m, char))
    return tuple((d, e) for d, e in out.items() if e)


class BoundaryTables:
    """The twisted complex of c on fc over one field and what its boundaries
    are made of, each computed once: edge factor pairs, simplex weights by
    position, entry polynomials and the `boundaries` asked for, all read
    off fc's simplex masks.  A run keeps one."""

    def __init__(self, fc: FlagComplex, c: Character, field: Field):
        g = fc.graph
        self.fc, self.c, self.field = fc, c, field
        self.boundaries = {}
        # by vertex index v: {w: (lt(vw), m_vw)} for lt(vw) > 1, and the mask of those w
        self._wide = [{g.index[w]: (g.ell_tilde(v, w), c.m_edge(v, w))
                       for w, label in g.adjacency[v].items() if label >= 4} for v in g.vertices]
        self._wide_mask = [sum(1 << w for w in wide) for wide in self._wide]
        self._weights = {-1: ([0], {})}
        self._adds, self._entries = {}, {}
        one = LaurentPoly.one(self.field)
        self._products = {(0,): one, (1,): -one}

    def facet_factors(self, v: int, face: int) -> list:
        """The factors of the coefficient at (face, face + v), v a vertex
        index and face a mask, as pairs (lt, m): (None, m_v) stands for
        t^{m_v} - 1 and (lt(vw), m_vw) for q_{lt(vw)}(t^{m_vw}), one per w
        in face with label >= 4.  A label-2 edge gives q_1 = 1, which is
        never zero and has no Phi_d-exponent over any field, so it is not
        listed.  This is the one place that says which factors make
        W(X) = p_X q_X: it is their product along X[:1], X[:2], ..., X, so
        the coefficient at (X minus v, X) is +-W(X)/W(X minus v)."""
        wide, m_v = self._wide[v], self.c.m(self.fc.graph.vertices[v])
        return [(None, m_v)] + [wide[w] for w in bits(face & self._wide_mask[v])]

    def weights(self, k: int) -> tuple[list, dict]:
        """The k-simplices' weights by position: the number of zero factors
        of each W(X), and {d: [w_d(X) per X]}, the exponent of Phi_d in the
        product of the nonzero factors, for the d with a nonzero w_d.  A
        simplex adds `facet_factors` of its last vertex v onto the weights
        of its prefix X[:-1]; what those factors add is worked out once per
        key (v, X & wide[v]), wide[v] the mask of v's label >= 4 neighbours."""
        if k not in self._weights:
            zeros, below = self.weights(k - 1) if self.fc.masks.get(k) else ([], {})
            prefixes = [fs[-1] for fs in self.fc.facets(k)]
            adds = [self._added(m) for m in self.fc.masks.get(k, ())]
            arrays = {}
            for d in sorted(set(below).union(*{id(a): a for _, a in adds}.values())):
                ws = below.get(d, [0] * len(zeros))
                ws = [ws[i] + a.get(d, 0) for i, (_, a) in zip(prefixes, adds)]
                if any(ws):
                    arrays[d] = ws
            self._weights[k] = ([zeros[i] + z for i, (z, _) in zip(prefixes, adds)], arrays)
        return self._weights[k]

    def _added(self, m: int) -> tuple:
        """(zero factors, {d: exponent}) of what m's last vertex v adds, keyed (v, m & wide[v])."""
        v = m.bit_length() - 1
        key = (v, m & self._wide_mask[v])
        if key not in self._adds:
            mults = [factor_multiplicities(f, self.field.char) for f in self.facet_factors(*key)]
            added = Counter()
            for mult in mults:
                added.update(dict(mult or ()))
            self._adds[key] = (mults.count(None), dict(added))
        return self._adds[key]

    def entry_keys(self, m: int) -> list:
        """`entry`'s memo keys (i % 2, v, m & wide[v]), v the i-th vertex of m."""
        wide, keys, rest = self._wide_mask, [], m
        while rest:
            v = (rest & -rest).bit_length() - 1
            keys.append((len(keys) & 1, v, m & wide[v]))
            rest &= rest - 1
        return keys

    def entry(self, m: int, i: int, v: int) -> LaurentPoly:
        """The coefficient at (m minus v, m), v the index of the i-th vertex
        of the simplex mask m: (-1)^i times `facet_factors(v, m)`, memoised
        on its key from `entry_keys`.  Entries with the same sign and
        factors, up to order, are one object, so a vertex with no label >= 4
        edge gives two entries per weight m_v."""
        key = (i & 1, v, m & self._wide_mask[v])
        e = self._entries.get(key)
        if e is None:
            first, *rest = self.facet_factors(v, m)
            e = self._entries[key] = self._product((i & 1, first, *sorted(rest)))
        return e

    def _product(self, key: tuple) -> LaurentPoly:
        """(-1)^key[0] times the factors key[1:], one multiply onto the
        memoised product of the key's prefix."""
        p = self._products.get(key)
        if p is None:
            p = self._products[key] = self._product(key[:-1]) * factor_poly(key[-1], self.field)
        return p


def twisted_boundary(t: BoundaryTables, k: int) -> PolyMatrix:
    """The matrix of the equivariant boundary in chain degree k of the
    twisted complex `t`, built on the first request and kept by `t`.

    Columns are the k-simplices, rows the (k-1)-simplices; degree 0 is the
    augmentation column map sigma_v -> (t^{m_v} - 1) sigma_empty.
    """
    if k not in t.boundaries:
        columns = [{f: e for i, (f, v) in enumerate(zip(fs, bits(m))) if (e := t.entry(m, i, v))}
                   for m, fs in zip(t.fc.masks.get(k, ()), t.fc.facets(k))]
        t.boundaries[k] = PolyMatrix(SimplexNames(t.fc, k - 1), SimplexNames(t.fc, k),
                                     columns, t.field, k)
    return t.boundaries[k]

