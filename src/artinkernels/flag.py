"""The finite type flag complex and its incidence boundary.

Simplices are the spherical cliques of the graph, stored as vertex tuples
sorted by the canonical order.  The complex is kept augmented: the empty
simplex sits in dimension -1, so the chain degree of a simplex on k+1
vertices is k and the degree-0 boundary is the augmentation map onto the
empty simplex.

The incidence sign of dropping the i-th vertex of a simplex is (-1)^i.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .graphs import LabeledGraph
from .scalars import Field, FieldSpec

Simplex = tuple


class FlagComplex:
    __slots__ = ("graph", "by_dim", "_pos")

    def __init__(self, graph: LabeledGraph, by_dim: dict):
        self.graph = graph
        self.by_dim = by_dim
        self._pos = {}
        for sims in by_dim.values():
            for i, s in enumerate(sims):
                self._pos[s] = i

    @property
    def dim(self) -> int:
        return max(k for k, sims in self.by_dim.items() if sims)

    def simplices_of(self, k: int) -> list:
        return self.by_dim.get(k, [])

    def all_simplices(self):
        for k in sorted(self.by_dim):
            yield from self.by_dim[k]

    def position(self, simplex: Simplex) -> int:
        return self._pos[simplex]

    def __contains__(self, simplex) -> bool:
        return tuple(simplex) in self._pos

    def counts(self) -> dict:
        return {k: len(v) for k, v in sorted(self.by_dim.items())}

    def __repr__(self):
        return f"FlagComplex({self.counts()})"


def build_flag_complex(g: LabeledGraph) -> FlagComplex:
    """Enumerate every spherical clique once, in sorted vertex order.  A
    clique carries the vertices its label >= 4 edges cover, so extending it
    by w checks only the edges at w against `graphs.is_spherical`'s rule."""
    n = len(g.vertices)
    by_dim: dict[int, list] = {-1: [()]}
    stack = [((v,), i, frozenset()) for i, v in enumerate(g.vertices)]
    while stack:
        simplex, last, covered = stack.pop()
        by_dim.setdefault(len(simplex) - 1, []).append(simplex)
        for j in range(last + 1, n):
            w = g.vertices[j]
            if all(g.has_edge(v, w) for v in simplex):
                wide = [v for v in simplex if g.ell(v, w) >= 4]
                if not wide:
                    stack.append((simplex + (w,), j, covered))
                elif len(wide) == 1 and wide[0] not in covered:
                    stack.append((simplex + (w,), j, covered | {wide[0], w}))
    for sims in by_dim.values():
        sims.sort(key=lambda s: tuple(g.index(v) for v in s))
    return FlagComplex(g, by_dim)


@dataclass
class IncidenceMatrix:
    """Sparse columns {row index: sign} with simplex-labeled axes."""

    rows: list
    cols: list
    columns: list
    field: Field


def boundary_matrix(fc: FlagComplex, k: int, fspec: FieldSpec) -> IncidenceMatrix:
    """The boundary from k-simplices to (k-1)-simplices over K.

    Out-of-range k yields an empty matrix of the correct shape.  k = 0 is
    the augmentation: every vertex maps to the empty simplex with sign +1.
    """
    field = fspec.scalars()
    signs = (field.one, field.neg(field.one))
    columns = [{fc.position(X[:i] + X[i + 1:]): signs[i % 2] for i in range(len(X))}
               for X in fc.simplices_of(k)]
    return IncidenceMatrix(fc.simplices_of(k - 1), fc.simplices_of(k), columns, field)


def image_dims(fc: FlagComplex, fspec: FieldSpec) -> list[int]:
    """dim_K im(boundary_k) for k = 0 .. dim+1 (the last one is 0)."""
    field = fspec.scalars()
    out = []
    for k in range(0, fc.dim + 2):
        m = boundary_matrix(fc, k, fspec)
        out.append(linalg.rank(field, m.columns))
    return out


def reduced_homology_ranks(fc: FlagComplex, fspec: FieldSpec) -> list[int]:
    """Reduced homology dimensions r_k of the flag complex, k = 0 .. dim.

    Computed in the augmented complex, so r_k = dim ker d_k - dim im d_{k+1}
    with d_0 the augmentation.
    """
    return ranks_from_image_dims(fc, image_dims(fc, fspec))


def ranks_from_image_dims(fc: FlagComplex, ims: list[int]) -> list[int]:
    """r_k = (n_k - dim im d_k) - dim im d_{k+1} from an `image_dims` list."""
    return [len(fc.simplices_of(k)) - ims[k] - ims[k + 1]
            for k in range(0, fc.dim + 1)]
