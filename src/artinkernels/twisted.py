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
factors, and 0 when v brings in one of its own: `facet_factors` lists the
factors, `factor_poly` reads them as polynomials (twisted_boundary) and
`factor_multiplicities` as Phi_d-exponents (signed_boundary).
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass

from .flag import FlagComplex
from .graphs import Character
from .laurent import LaurentPoly, q_poly, t_minus_one_multiplicities
from .scalars import Field, FieldSpec


@dataclass
class PolyMatrix:
    """Dense matrix of Laurent polynomials with simplex-labeled axes."""

    rows: list
    cols: list
    entries: list
    field: Field
    k: int = 0

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def evaluate(self, x) -> list[list]:
        """The matrix at x; entries that are one shared object (see
        `twisted_boundary`) are evaluated once."""
        distinct = {id(e): e for row in self.entries for e in row}
        values = {k: e.evaluate(x) for k, e in distinct.items()}
        return [[values[id(e)] for e in row] for row in self.entries]

    def dump(self) -> str:
        """Deterministic text dump for debugging and matrix dumps."""
        lines = [f"degree {self.k}: {len(self.rows)} x {len(self.cols)}"]
        for i, r in enumerate(self.rows):
            for j, c in enumerate(self.cols):
                e = self.entries[i][j]
                if not e.is_zero():
                    lines.append(f"  [{'.'.join(map(str, r)) or 'empty'} | "
                                 f"{'.'.join(map(str, c))}] = {e}")
        return "\n".join(lines)


def facet_factors(g, c: Character, v, face) -> list:
    """The factors of the coefficient at (face, face + v), as pairs (lt, m):
    (None, m_v) stands for t^{m_v} - 1 and (lt(vw), m_vw) for
    q_{lt(vw)}(t^{m_vw}), one per w in face.  This is the one place that
    says which factors make W(X) = p_X q_X: it is their product along
    X[:1], X[:2], ..., X, so the coefficient at (X minus v, X) is
    +-W(X)/W(X minus v)."""
    return [(None, c.m(v))] + [(g.ell_tilde(v, w), c.m_edge(v, w)) for w in face]


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


def twisted_boundary(fc: FlagComplex, c: Character, fspec: FieldSpec, k: int) -> PolyMatrix:
    """The matrix of the equivariant boundary in chain degree k.

    Columns are the k-simplices, rows the (k-1)-simplices; degree 0 is the
    augmentation column map sigma_v -> (t^{m_v} - 1) sigma_empty.
    """
    field = fspec.scalars()
    g = fc.graph
    rows = fc.simplices_of(k - 1)
    cols = fc.simplices_of(k)
    zero = LaurentPoly.zero(field)
    entries = [[zero for _ in cols] for _ in rows]
    # many entries share their factors up to order: multiply each distinct
    # (t^{m_v} - 1, sorted q-factors, sign) out once
    products = {}
    for j, simplex in enumerate(cols):
        for i, v in enumerate(simplex):
            face = simplex[:i] + simplex[i + 1:]
            tm1, *qs = facet_factors(g, c, v, face)
            key = (tm1, tuple(sorted(qs)), i % 2)
            coeff = products.get(key)
            if coeff is None:
                coeff = functools.reduce(operator.mul, [factor_poly(f, field)
                                                        for f in (tm1, *key[1])])
                products[key] = coeff = -coeff if i % 2 else coeff
            entries[fc.position(face)][j] = coeff
    return PolyMatrix(rows, cols, entries, field, k)


def simplex_weights(fc: FlagComplex, c: Character, char: int, simplices) -> dict:
    """X -> (number of zero factors, {d: w_d(X)}) for each simplex X, where
    w_d(X) is the exponent of Phi_d in the product of the nonzero factors
    of W(X), read off `facet_factors` along X[:1], ..., X."""
    out = {}
    for X in simplices:
        mults = [factor_multiplicities(f, char) for i, v in enumerate(X)
                 for f in facet_factors(fc.graph, c, v, X[:i])]
        w = Counter()
        for mult in mults:
            for d, e in mult or ():
                w[d] += e
        out[X] = (mults.count(None), w)
    return out


def signed_boundary(fc: FlagComplex, c: Character, fspec: FieldSpec,
                    k: int) -> tuple[list, list, list]:
    """The degree-k boundary as the weights see it: sparse columns
    {row: (-1)^i} over the prime field, one entry per face X minus its i-th
    vertex with as many zero factors as X, and the weights {d: w_d} of rows
    and columns.  A face's factors are among X's, so equal counts mean the
    same zero factors; otherwise the coefficient has a zero factor and is 0.
    """
    field = fspec.scalars()
    rows = fc.simplices_of(k - 1)
    cols = fc.simplices_of(k)
    w = simplex_weights(fc, c, fspec.char, rows + cols)
    signs = (field.one, field.neg(field.one))
    columns = [{fc.position(X[:i] + X[i + 1:]): signs[i % 2]
                for i in range(len(X)) if w[X[:i] + X[i + 1:]][0] == w[X][0]}
               for X in cols]
    return columns, [w[Y][1] for Y in rows], [w[X][1] for X in cols]
