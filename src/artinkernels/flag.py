"""The finite type flag complex and its incidence boundary.

Simplices are the spherical cliques of the graph, stored as vertex tuples
sorted by the canonical order.  The complex is kept augmented: the empty
simplex sits in dimension -1, so the chain degree of a simplex on k+1
vertices is k and the degree-0 boundary is the augmentation map onto the
empty simplex.

The incidence sign of dropping the i-th vertex of a simplex is (-1)^i.
Every boundary reads the facets of a simplex by position (`facets`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .graphs import LabeledGraph
from .scalars import Field, FieldSpec


class FlagComplex:
    __slots__ = ("graph", "by_dim", "_pos", "_facets")

    def __init__(self, graph: LabeledGraph, by_dim: dict):
        self.graph = graph
        self.by_dim = by_dim
        self._pos = {}
        self._facets = {}
        for sims in by_dim.values():
            for i, s in enumerate(sims):
                self._pos[s] = i

    @property
    def dim(self) -> int:
        return max(k for k, sims in self.by_dim.items() if sims)

    def simplices_of(self, k: int) -> list:
        return self.by_dim.get(k, [])

    def facets(self, k: int) -> list:
        """Per k-simplex X, the positions of X[:i] + X[i+1:], i = 0 .. k;
        the last one is the prefix X[:-1].  Built on first use."""
        table = self._facets.get(k)
        if table is None:
            pos = self._pos
            table = self._facets[k] = [tuple(pos[X[:i] + X[i + 1:]] for i in range(len(X)))
                                       for X in self.simplices_of(k)]
        return table

    def __contains__(self, simplex) -> bool:
        return tuple(simplex) in self._pos

    def counts(self) -> dict:
        return {k: len(v) for k, v in sorted(self.by_dim.items())}

    def __repr__(self):
        return f"FlagComplex({self.counts()})"


def build_flag_complex(g: LabeledGraph) -> FlagComplex:
    """Enumerate every spherical clique once, depth first with vertices in
    the canonical order, so that each degree comes out sorted.  A clique
    carries the later vertices adjacent to all of it and the vertices its
    label >= 4 edges cover, so extending it by w checks only the edges at w
    (a clique is spherical iff its label >= 4 edges form a matching)."""
    label = g.adjacency
    by_dim: dict[int, list] = {-1: [()]}
    stack = [((v,), [w for w in g.vertices[i + 1:] if w in label[v]], frozenset())
             for i, v in reversed(list(enumerate(g.vertices)))]
    while stack:
        simplex, later, covered = stack.pop()
        by_dim.setdefault(len(simplex) - 1, []).append(simplex)
        for i in range(len(later) - 1, -1, -1):
            w = later[i]
            wide = [v for v in simplex if label[v][w] >= 4]
            if len(wide) > 1 or wide and wide[0] in covered:
                continue
            stack.append((simplex + (w,), [x for x in later[i + 1:] if x in label[w]],
                          covered | {wide[0], w} if wide else covered))
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
    columns = [{f: signs[i % 2] for i, f in enumerate(fs)} for fs in fc.facets(k)]
    return IncidenceMatrix(fc.simplices_of(k - 1), fc.simplices_of(k), columns, field)


def image_dims(fc: FlagComplex, fspec: FieldSpec) -> list[int]:
    """dim_K im(boundary_k) for k = 0 .. dim+1 (the last one is 0), from
    the top degree down, each skipping the lead rows of its own reduction
    one degree up: boundary_k kills the reduced column of boundary_(k+1)
    with lead row X, so column X adds no rank (clearing, see `linalg`)."""
    field = fspec.scalars()
    out, cleared = [0], frozenset()
    for k in range(fc.dim, -1, -1):
        leads = set()
        out.append(linalg.rank(field, boundary_matrix(fc, k, fspec).columns, cleared, leads))
        cleared = leads
    return out[::-1]


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
