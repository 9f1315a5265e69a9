"""Free ranks of H_1 and H_2 in the resonant case via reduced complexes.

The reduced graph drops the cells whose twisted boundary degenerates:

* edges with both endpoints resonant, and resonant edges, are deleted;
* a resonant vertex whose link meets a non-resonant vertex is deleted
  (taking its incident edges with it); isolated resonant vertices stay.

The free rank of H_1 is then the number of components minus one;
`h1_free_rank` reads it off the `ReducedGraph` that `build_gamma1` returns.

For H_2, the quotient 2-complex starts from the 2-skeleton of the flag
complex and

* removes 2-cells {u,v,w} with {u,v} resonant and w weight-zero, or all
  three vertices weight-zero;
* removes 1-cells that are resonant (as edges, or via both endpoints)
  when their link meets a non-resonant vertex -- any 2-cell losing a face
  this way goes with it;
* finally identifies the endpoints of each surviving resonant 1-cell,
  which may create loops and parallel cells, so the result is a CW
  complex with integer boundary matrices rather than a simplicial one.

Both builders read the run's `ResonanceSets`, the dead vertices and edges
the report prints; `build_f2` works on the flag complex the caller already
built, and the free rank of H_2 is the first reduced Betti number of the
complex it returns, which `h2_free_rank` takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .flag import FlagComplex
from .graphs import (LabeledGraph, ResonanceSets, ZeroCharacterError, components,
                     connected_components)
from .scalars import Field


@dataclass
class ReducedGraph:
    graph: LabeledGraph          # the reduced graph
    removed_edges: list          # (edge, reason)
    removed_vertices: list       # (vertex, reason)

    def removal_log(self) -> list[str]:
        log = [f"vertex {v}: {why}" for v, why in self.removed_vertices]
        log += [f"edge {u}-{v}: {why}" for (u, v), why in self.removed_edges]
        return log


def build_gamma1(g: LabeledGraph, res: ResonanceSets) -> ReducedGraph:
    if len(res.resonant_vertices) == len(g.vertices):   # every weight is zero
        raise ZeroCharacterError("free ranks need a nonzero character")
    vr = res.resonant_vertices
    removed_edges = []
    removed_vertices = []
    for (u, v) in g.edge_list:
        if u in vr and v in vr:
            removed_edges.append(((u, v), "both endpoints resonant"))
        elif (u, v) in res.resonant_edges:
            removed_edges.append(((u, v), "resonant edge"))
    gone_edges = {e for e, _ in removed_edges}
    for v in g.vertices:
        if v in vr and any(w not in vr for w in g.neighbors(v)):
            removed_vertices.append((v, "resonant vertex with non-resonant neighbor"))
    gone_vertices = {v for v, _ in removed_vertices}
    for (u, v) in g.edge_list:
        if (u, v) not in gone_edges and (u in gone_vertices or v in gone_vertices):
            removed_edges.append(((u, v), "endpoint deleted"))
            gone_edges.add((u, v))
    vertices = [v for v in g.vertices if v not in gone_vertices]
    edges = [(u, v, g.ell(u, v)) for (u, v) in g.edge_list if (u, v) not in gone_edges]
    return ReducedGraph(LabeledGraph(vertices, edges), removed_edges, removed_vertices)


def h1_free_rank(reduced: ReducedGraph) -> int:
    return len(connected_components(reduced.graph)) - 1


@dataclass
class QuotientComplex:
    cells0: list                       # class ids
    cells1: list                       # surviving edges (u, v)
    cells2: list                       # surviving triangles (a, b, c)
    d1: list = field(default_factory=list)  # sparse columns: per 1-cell, {0-cell: +-1}
    d2: list = field(default_factory=list)  # sparse columns: per 2-cell, {1-cell: +-1}
    removal_log: list = field(default_factory=list)
    identifications: list = field(default_factory=list)


def build_f2(fc: FlagComplex, res: ResonanceSets) -> QuotientComplex:
    g = fc.graph
    if len(res.resonant_vertices) == len(g.vertices):   # every weight is zero
        raise ZeroCharacterError("free ranks need a nonzero character")
    vr = res.resonant_vertices
    triangles = list(fc.simplices_of(2))
    edges = list(fc.simplices_of(1))
    log = []

    def edge_resonant(u, v):
        return (u, v) in res.resonant_edges or (u in vr and v in vr)

    removed_tris = set()
    for tri in triangles:
        pairs = [(tri[0], tri[1], tri[2]), (tri[0], tri[2], tri[1]), (tri[1], tri[2], tri[0])]
        if all(v in vr for v in tri):
            removed_tris.add(tri)
            log.append(f"2-cell {tri}: all vertices resonant")
        elif any((u, v) in res.resonant_edges and w in vr for (u, v, w) in pairs):
            removed_tris.add(tri)
            log.append(f"2-cell {tri}: resonant edge with resonant opposite vertex")

    removed_edges = set()
    for (u, v) in edges:
        if not edge_resonant(u, v):
            continue
        link = [w for w in g.adjacency[u]
                if w in g.adjacency[v] and (u, v, w) in fc]
        if any(w not in vr for w in link):
            removed_edges.add((u, v))
            log.append(f"1-cell {(u, v)}: resonant with non-resonant link")
    for tri in triangles:
        if tri in removed_tris:
            continue
        faces = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
        if any(f in removed_edges for f in faces):
            removed_tris.add(tri)
            log.append(f"2-cell {tri}: lost a face")

    kept_edges = [e for e in edges if e not in removed_edges]
    kept_tris = [t for t in triangles if t not in removed_tris]

    # identify endpoints of the surviving resonant 1-cells
    identifications = [(u, v) for (u, v) in kept_edges if edge_resonant(u, v)]
    classes = components(g.vertices, identifications)
    vertex_class = {v: i for i, cl in enumerate(classes) for v in cl}

    ends = [(vertex_class[u], vertex_class[v]) for (u, v) in kept_edges]
    d1 = [{} if a == b else {a: -1, b: 1} for a, b in ends]     # a loop's column is empty
    edge_pos = {e: j for j, e in enumerate(kept_edges)}
    d2 = [{edge_pos[tri[:i] + tri[i + 1:]]: (-1) ** i for i in range(3)} for tri in kept_tris]
    return QuotientComplex(list(range(len(classes))), kept_edges, kept_tris, d1, d2,
                           log, identifications)


def h2_free_rank(qc: QuotientComplex, field: Field) -> int:
    """dim of the first reduced homology of the quotient 2-complex over
    `field`.  d1 d2 = 0, loops included, so d1 is ranked skipping the lead
    rows of d2's reduction (clearing, see `linalg`)."""
    def columns(d):
        return [{i: field.from_int(x) for i, x in col.items()} for col in d]

    leads = set()
    r2 = linalg.rank(field, columns(qc.d2), leads=leads)
    r1 = linalg.rank(field, columns(qc.d1), leads)
    return (len(qc.cells1) - r1) - r2
