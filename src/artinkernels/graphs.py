"""Labeled even graphs, characters, resonance and torsion support.

A labeled graph Gamma = (V, E, ell) has even labels ell(e) = 2*lt(e) with
lt(e) >= 1.  The declaration order of the vertices is the canonical total
order; every orientation sign downstream derives from it.  A graph builds
its one neighbour map, `adjacency`, and its sorted `edge_list` once; every
module reads those.

The only connected spherical Coxeter diagrams with even labels are the
single edges I_2(2k), so a complete subgraph is spherical iff its
label >= 4 edges form a matching, and the graph is of FC type iff no
triangle carries two label >= 4 edges.

A character assigns an integer weight m_v to each vertex; for an edge
e = {v, w} we write m_e = m_v + m_w.  Resonance over a field K:

    V_R = {v : m_v = 0},   E_R = {e : m_e = 0 and lt(e)*1_K = 0},

and the character is K non-resonant when both sets are empty.

The torsion support T of (Gamma, chi) is the finite set of orders d > 1
with d | m_v for some vertex, or d | lt(e)*m_e but d not| m_e for some
edge; it bounds which cyclotomic orders can carry torsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .scalars import Field, divisors


class GraphError(ValueError):
    pass


class ZeroCharacterError(ValueError):
    pass


class ResonantVertexError(ValueError):
    pass


def edge_problem(known, seen: set, u, v, label: int) -> str | None:
    """The rule the edge (u, v, label) breaks, or None: the one statement of
    the edge rules, for `LabeledGraph` and the input parser.  `known` holds
    the declared vertices; `seen` collects the pairs met so far, one with a
    bad label included, so a later edge on that pair is a duplicate."""
    for w in (u, v):
        if w not in known:
            return f"edge ({u},{v}): unknown vertex {w!r}"
    if u == v:
        return f"edge ({u},{v}): loop"
    pair = frozenset((u, v))
    if pair in seen:
        return f"edge ({u},{v}): duplicate edge"
    seen.add(pair)
    if label < 2:
        return f"edge ({u},{v}): label {label} is < 2"
    if label % 2 != 0:
        return f"edge ({u},{v}): odd label {label}"
    return None


def vertex_problem(known, v) -> str | None:
    """The rule a vertex declaration breaks given the earlier ones, or None."""
    return f"duplicate vertex {v!r}" if v in known else None


class LabeledGraph:
    """Finite simplicial graph with even labels and a fixed vertex order.

    Built once: `index`, {v: position}; `edge_list`, the pairs (u, v) with
    u before v, sorted in the vertex order; and `adjacency`, {v: {w: label}}
    with neighbours in the vertex order.  Raises GraphError on a duplicate
    vertex, or listing every edge that breaks a rule of `edge_problem`.
    """

    __slots__ = ("vertices", "index", "raw_edges", "edge_list", "adjacency")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.index = index = {}
        for i, v in enumerate(self.vertices):
            problem = vertex_problem(index, v)
            if problem:
                raise GraphError(problem)
            index[v] = i
        self.raw_edges = tuple((u, v, int(l)) for u, v, l in edges)
        seen: set = set()
        problems = [edge_problem(index, seen, *e) for e in self.raw_edges]
        if any(problems):
            raise GraphError("; ".join(p for p in problems if p))
        ordered = sorted(((u, v, l) if index[u] < index[v] else (v, u, l)
                          for u, v, l in self.raw_edges),
                         key=lambda e: (index[e[0]], index[e[1]]))
        self.edge_list = [(u, v) for u, v, _ in ordered]
        self.adjacency = {v: {} for v in self.vertices}
        for u, v, l in ordered:
            self.adjacency[u][v] = self.adjacency[v][u] = l

    def ell(self, u, v) -> int:
        return self.adjacency[u][v]

    def ell_tilde(self, u, v) -> int:
        return self.ell(u, v) // 2

    def neighbors(self, v):
        return tuple(self.adjacency[v])

    def __repr__(self):
        return f"LabeledGraph({len(self.vertices)} vertices, {len(self.edge_list)} edges)"


def validate_graph(g: LabeledGraph) -> tuple[str, ...]:
    """The graph-level rules a constructed graph can still break (the
    constructor enforces the vertex and edge rules): an empty vertex set."""
    return () if g.vertices else ("empty graph: no vertices declared",)


class Character:
    """Integer weights m_v on the vertices of a fixed graph."""

    __slots__ = ("graph", "weights")

    def __init__(self, graph: LabeledGraph, weights: dict):
        missing = [v for v in graph.vertices if v not in weights]
        extra = [v for v in weights if v not in graph.index]
        if missing or extra:
            raise GraphError(f"character domain mismatch: missing={missing} extra={extra}")
        self.graph = graph
        self.weights = {v: int(weights[v]) for v in graph.vertices}

    def m(self, v) -> int:
        return self.weights[v]

    def m_edge(self, u, v) -> int:
        return self.weights[u] + self.weights[v]

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self.weights[v] for v in self.graph.vertices)

    @property
    def is_zero(self) -> bool:
        return all(m == 0 for m in self.values)

    @property
    def gcd(self) -> int:
        return math.gcd(*self.values) if self.values else 0

    @property
    def is_normalized(self) -> bool:
        return self.gcd == 1

    def normalize(self) -> tuple["Character", int]:
        if self.is_zero:
            raise ZeroCharacterError("character is identically zero")
        d = self.gcd
        return Character(self.graph, {v: m // d for v, m in self.weights.items()}), d

    def restrict(self, graph: LabeledGraph) -> "Character":
        return Character(graph, {v: self.weights[v] for v in graph.vertices})

    def __repr__(self):
        return f"Character({dict(self.weights)})"


# ---------------------------------------------------------------------------
# sphericity and FC type
# ---------------------------------------------------------------------------

def is_fc_type(g: LabeledGraph) -> bool:
    """Every complete subgraph spherical.  An even clique is spherical iff
    its label >= 4 edges form a matching, so the graph is FC type iff no
    triangle carries two label >= 4 edges: no vertex has two label >= 4
    neighbours adjacent to each other."""
    adj = g.adjacency
    for nbrs in adj.values():
        wide = [w for w, l in nbrs.items() if l >= 4]
        if any(b in adj[a] for i, a in enumerate(wide) for b in wide[i + 1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# resonance and torsion support
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceSets:
    resonant_vertices: frozenset
    resonant_edges: frozenset

    @property
    def is_K_nonresonant(self) -> bool:
        return not self.resonant_vertices and not self.resonant_edges


def resonance_sets(g: LabeledGraph, c: Character, field: Field) -> ResonanceSets:
    vr = frozenset(v for v in g.vertices if c.m(v) == 0)
    p = field.char
    er = []
    for (u, v) in g.edge_list:
        if c.m_edge(u, v) == 0 and p != 0 and g.ell_tilde(u, v) % p == 0:
            er.append((u, v))
    return ResonanceSets(vr, frozenset(er))


@dataclass(frozen=True)
class TorsionSupport:
    values: tuple[int, ...]
    provenance: dict = field(compare=False, default_factory=dict)

    def __iter__(self):
        return iter(self.values)


def torsion_support(g: LabeledGraph, c: Character) -> TorsionSupport:
    """Orders d > 1 with d | m_v, or d | lt(e)*m_e while d not| m_e.

    Requires every m_v != 0 (a vertex with m_v = 0 would make the vertex
    part infinite) and a normalized character.
    """
    for v in g.vertices:
        if c.m(v) == 0:
            raise ResonantVertexError(f"m_{v} = 0 makes the vertex torsion support infinite")
    if not c.is_normalized:
        raise ValueError("torsion support is only computed for normalized characters")
    prov: dict[int, set] = {}
    for v in g.vertices:
        for d in divisors(abs(c.m(v)))[1:]:
            prov.setdefault(d, set()).add("vertex")
    for (u, v) in g.edge_list:
        me = c.m_edge(u, v)
        if me == 0:
            continue  # d | lt*0 always, but d | m_e too, so nothing qualifies
        for d in divisors(abs(g.ell_tilde(u, v) * me))[1:]:
            if me % d != 0:
                prov.setdefault(d, set()).add("edge")
    values = tuple(sorted(prov))
    return TorsionSupport(values, {d: frozenset(s) for d, s in prov.items()})


def components(vertices, pairs) -> list[tuple]:
    """The classes of the equivalence on `vertices` that `pairs` generates,
    by union-find: each lists its members in the order of `vertices`, and
    the classes stand in the order of their first members."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    classes: dict = {}
    for v in vertices:
        classes.setdefault(find(v), []).append(v)
    return [tuple(vs) for vs in classes.values()]


def connected_components(g: LabeledGraph) -> list[tuple]:
    return components(g.vertices, g.edge_list)
