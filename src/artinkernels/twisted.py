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
multiplicity filtration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flag import FlagComplex
from .graphs import Character
from .laurent import LaurentPoly, q_poly
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

    def evaluate(self, x, field: Field | None = None) -> list[list]:
        f = field if field is not None else self.field
        return [[e.evaluate(x, f) for e in row] for row in self.entries]

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


def _vertex_factor(c: Character, v, field) -> LaurentPoly:
    return LaurentPoly.t_power(field, c.m(v)) - LaurentPoly.one(field)


def _edge_factor(g, c: Character, u, v, field) -> LaurentPoly:
    return q_poly(g.ell_tilde(u, v), c.m_edge(u, v), field)


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
    for j, simplex in enumerate(cols):
        for i, v in enumerate(simplex):
            face = simplex[:i] + simplex[i + 1:]
            coeff = _vertex_factor(c, v, field)
            for w in face:
                coeff = coeff * _edge_factor(g, c, v, w, field)
            if i % 2 == 1:
                coeff = -coeff
            entries[fc.position(face)][j] = coeff
    return PolyMatrix(rows, cols, entries, field, k)
