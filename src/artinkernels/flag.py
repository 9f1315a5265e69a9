"""The finite type flag complex and its incidence boundary.

Simplices are the spherical cliques of the graph, stored as int masks, bit
i for the i-th vertex in the canonical order, so a facet is a bit cleared;
their vertex tuples are decoded only where a simplex is named.  The
complex is kept augmented: the empty simplex (mask 0) sits in dimension
-1, so the chain degree of a simplex on k+1 vertices is k and the degree-0
boundary is the augmentation map onto the empty simplex.

The incidence sign of dropping the i-th vertex of a simplex is (-1)^i.
Every boundary reads the facets of a simplex by position (`facets`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import linalg
from .graphs import LabeledGraph
from .scalars import Field


def bits(m: int) -> list:
    """The set bits of m, ascending: the vertex indices of a simplex mask."""
    out = []
    while m:
        out.append((m & -m).bit_length() - 1)
        m &= m - 1
    return out


class FlagComplex:
    __slots__ = ("graph", "masks", "_pos", "_facets", "_tuples")

    def __init__(self, graph: LabeledGraph, masks: dict):
        self.graph, self.masks = graph, masks
        self._pos = {m: i for ms in masks.values() for i, m in enumerate(ms)}
        self._facets, self._tuples = {}, {}

    @property
    def dim(self) -> int:
        return max(k for k, ms in self.masks.items() if ms)

    def simplices_of(self, k: int) -> list:
        if k not in self._tuples:
            vs = self.graph.vertices
            self._tuples[k] = [tuple(map(vs.__getitem__, bits(m))) for m in self.masks.get(k, ())]
        return self._tuples[k]

    def facets(self, k: int) -> list:
        """Per k-simplex X, the positions of X minus its i-th vertex,
        i = 0 .. k; the last one is the prefix X[:-1].  Built on first use."""
        if k not in self._facets:
            pos, table = self._pos, self._facets.setdefault(k, [])
            for m in self.masks.get(k, ()):
                fs, rest = [], m
                while rest:
                    fs.append(pos[m ^ (rest & -rest)])
                    rest &= rest - 1
                table.append(tuple(fs))
        return self._facets[k]

    def __contains__(self, simplex) -> bool:
        """Whether the vertices of `simplex`, distinct and known, span one."""
        found = {self.graph.index.get(v, len(self.graph.vertices)) for v in simplex}
        return len(found) == len(simplex) and sum(1 << b for b in found) in self._pos

    def counts(self) -> dict:
        return {k: len(v) for k, v in sorted(self.masks.items())}

    def __repr__(self):
        return f"FlagComplex({self.counts()})"


class SimplexNames(Sequence):
    """A sequence equal to `fc.simplices_of(k)` that calls it only when an
    item is read, so the axes of a matrix that no one names decode nothing."""

    def __init__(self, fc: FlagComplex, k: int):
        self.fc, self.k = fc, k

    def __len__(self) -> int:
        return len(self.fc.masks.get(self.k, ()))

    def __getitem__(self, i):
        return self.fc.simplices_of(self.k)[i]

    def __eq__(self, other) -> bool:
        return self.fc.simplices_of(self.k) == other


def build_flag_complex(g: LabeledGraph) -> FlagComplex:
    """Enumerate every spherical clique once, depth first with vertices in
    the canonical order, so that each degree comes out sorted.  A clique
    carries the later vertices adjacent to all of it and the vertices its
    label >= 4 edges cover, all as masks, so extending it by w checks only
    the edges at w (a clique is spherical iff its label >= 4 edges form a
    matching): w may have one label >= 4 neighbour in it, not yet covered."""
    adj = [sum(1 << g.index[w] for w in g.adjacency[v]) for v in g.vertices]
    heavy = [sum(1 << g.index[w] for w, label in g.adjacency[v].items() if label >= 4)
             for v in g.vertices]
    masks: dict[int, list] = {-1: [0]}
    stack = [(1 << i, adj[i] >> i + 1 << i + 1, 0) for i in reversed(range(len(adj)))]
    while stack:
        m, later, covered = stack.pop()
        masks.setdefault(m.bit_count() - 1, []).append(m)
        above = 0                       # the candidates after w, as a mask
        while later:
            w = later.bit_length() - 1
            later ^= 1 << w
            wm = m & heavy[w]
            if not (wm & (wm - 1) or wm & covered):
                stack.append((m | 1 << w, above & adj[w], covered | wm | 1 << w if wm else covered))
            above |= 1 << w
    return FlagComplex(g, masks)


@dataclass
class IncidenceMatrix:
    """Sparse columns {row index: sign} with simplex-labeled axes."""

    rows: list
    cols: list
    columns: list
    field: Field


def boundary_matrix(fc: FlagComplex, k: int, field: Field) -> IncidenceMatrix:
    """The boundary from k-simplices to (k-1)-simplices over K.

    Out-of-range k yields an empty matrix of the correct shape.  k = 0 is
    the augmentation: every vertex maps to the empty simplex with sign +1.
    """
    signs = (field.one, field.neg(field.one))
    columns = [{f: signs[i % 2] for i, f in enumerate(fs)} for fs in fc.facets(k)]
    return IncidenceMatrix(fc.simplices_of(k - 1), fc.simplices_of(k), columns, field)


def image_dims(fc: FlagComplex, field: Field) -> list[int]:
    """dim_K im(boundary_k) for k = 0 .. dim+1 (the last one is 0), from
    the top degree down, each skipping the lead rows of its own reduction
    one degree up: boundary_k kills the reduced column of boundary_(k+1)
    with lead row X, so column X adds no rank (clearing, see `linalg`).
    A column goes in as a pair (lead, build), built if a reduction reads it."""
    signs = (field.one, field.neg(field.one))
    out, cleared = [0], frozenset()
    for k in range(fc.dim, -1, -1):
        leads = set()
        columns = [(max(fs), lambda fs=fs: {f: signs[i % 2] for i, f in enumerate(fs)})
                   for fs in fc.facets(k)]
        out.append(linalg.rank(field, columns, cleared, leads))
        cleared = leads
    return out[::-1]


def reduced_homology_ranks(fc: FlagComplex, field: Field) -> list[int]:
    """Reduced homology dimensions r_k of the flag complex, k = 0 .. dim.

    Computed in the augmented complex, so r_k = dim ker d_k - dim im d_{k+1}
    with d_0 the augmentation.
    """
    return ranks_from_image_dims(fc, image_dims(fc, field))


def ranks_from_image_dims(fc: FlagComplex, ims: list[int]) -> list[int]:
    """r_k = (n_k - dim im d_k) - dim im d_{k+1} from an `image_dims` list."""
    return [len(fc.masks[k]) - ims[k] - ims[k + 1]
            for k in range(0, fc.dim + 1)]
