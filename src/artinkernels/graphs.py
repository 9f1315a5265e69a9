"""Labeled even graphs, characters, resonance and torsion support.

A labeled graph Gamma = (V, E, ell) has even labels ell(e) = 2*lt(e) with
lt(e) >= 1.  The declaration order of the vertices is the canonical total
order; every orientation sign downstream derives from it.

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

from .scalars import FieldSpec, divisors


class GraphError(ValueError):
    pass


class ZeroCharacterError(ValueError):
    pass


class ResonantVertexError(ValueError):
    pass


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


class LabeledGraph:
    """Finite simplicial graph with even labels and a fixed vertex order."""

    __slots__ = ("vertices", "_index", "labels", "raw_edges", "issues")

    def __init__(self, vertices, edges, strict: bool = True):
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self.raw_edges = tuple((u, v, int(l)) for u, v, l in edges)
        if len(self._index) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        labels = {}
        seen = set()
        problems = []
        for u, v, l in self.raw_edges:
            if u not in self._index or v not in self._index:
                problems.append(f"edge ({u},{v}): unknown endpoint")
                continue
            if u == v:
                problems.append(f"edge ({u},{v}): loop")
                continue
            key = self._pair(u, v)
            if key in seen:
                problems.append(f"edge ({u},{v}): duplicate edge")
                continue
            seen.add(key)
            if l < 2:
                problems.append(f"edge ({u},{v}): label {l} is < 2")
                continue
            if l % 2 != 0:
                problems.append(f"edge ({u},{v}): odd label {l}")
                continue
            labels[key] = l
        self.labels = labels
        self.issues = tuple(problems)
        if strict and problems:
            raise GraphError("; ".join(problems))

    def _pair(self, u, v):
        iu, iv = self._index[u], self._index[v]
        return (u, v) if iu < iv else (v, u)

    def index(self, v) -> int:
        return self._index[v]

    @property
    def edge_list(self):
        return sorted(self.labels, key=lambda p: (self._index[p[0]], self._index[p[1]]))

    def has_edge(self, u, v) -> bool:
        return u != v and self._pair(u, v) in self.labels

    def ell(self, u, v) -> int:
        return self.labels[self._pair(u, v)]

    def ell_tilde(self, u, v) -> int:
        return self.ell(u, v) // 2

    def neighbors(self, v):
        return tuple(w for w in self.vertices if w != v and self.has_edge(v, w))

    def is_complete(self, vertex_set) -> bool:
        vs = list(vertex_set)
        return all(self.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1:])

    def sort_vertices(self, vertex_set) -> tuple:
        return tuple(sorted(vertex_set, key=self._index.__getitem__))

    def __repr__(self):
        return f"LabeledGraph({len(self.vertices)} vertices, {len(self.labels)} edges)"


def validate_graph(g: LabeledGraph) -> ValidationReport:
    """The edge problems the constructor found (report style), and an empty
    vertex set."""
    return ValidationReport(g.issues + (() if g.vertices else ("empty vertex set",)))


class Character:
    """Integer weights m_v on the vertices of a fixed graph."""

    __slots__ = ("graph", "weights")

    def __init__(self, graph: LabeledGraph, weights: dict):
        missing = [v for v in graph.vertices if v not in weights]
        extra = [v for v in weights if v not in graph._index]
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


def normalize_character(c: Character) -> tuple[Character, int]:
    return c.normalize()


# ---------------------------------------------------------------------------
# sphericity and FC type
# ---------------------------------------------------------------------------

def is_spherical(g: LabeledGraph, vertex_set) -> bool:
    """A complete even subgraph is spherical iff its label >= 4 edges form a
    matching (it is then a 2-join of vertices and dihedral edges)."""
    vs = list(dict.fromkeys(vertex_set))
    if not g.is_complete(vs):
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


def maximal_cliques(g: LabeledGraph):
    """Bron-Kerbosch with pivoting; fine for the graph sizes handled here."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(g.sort_vertices(r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(g.vertices), set())
    return out


def is_fc_type(g: LabeledGraph) -> bool:
    """Every complete subgraph spherical; sphericity is hereditary, so the
    maximal cliques suffice."""
    return all(is_spherical(g, clique) for clique in maximal_cliques(g))


# ---------------------------------------------------------------------------
# resonance and torsion support
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceSets:
    resonant_vertices: frozenset
    resonant_edges: frozenset
    fspec: FieldSpec

    @property
    def is_K_nonresonant(self) -> bool:
        return not self.resonant_vertices and not self.resonant_edges


def resonance_sets(g: LabeledGraph, c: Character, fspec: FieldSpec) -> ResonanceSets:
    vr = frozenset(v for v in g.vertices if c.m(v) == 0)
    p = fspec.char
    er = []
    for (u, v) in g.edge_list:
        if c.m_edge(u, v) == 0 and p != 0 and g.ell_tilde(u, v) % p == 0:
            er.append((u, v))
    return ResonanceSets(vr, frozenset(er), fspec)


def _divisors_gt1(n: int) -> list[int]:
    """The divisors d > 1 of n != 0."""
    return divisors(abs(n))[1:]


@dataclass(frozen=True)
class TorsionSupport:
    values: tuple[int, ...]
    provenance: dict = field(compare=False, default_factory=dict)

    def __contains__(self, d):
        return d in self.values

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
        for d in _divisors_gt1(c.m(v)):
            prov.setdefault(d, set()).add("vertex")
    for (u, v) in g.edge_list:
        me = c.m_edge(u, v)
        if me == 0:
            continue  # d | lt*0 always, but d | m_e too, so nothing qualifies
        for d in _divisors_gt1(g.ell_tilde(u, v) * me):
            if me % d != 0:
                prov.setdefault(d, set()).add("edge")
    values = tuple(sorted(prov))
    return TorsionSupport(values, {d: frozenset(s) for d, s in prov.items()})


def connected_components(g: LabeledGraph) -> list[tuple]:
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in g.edge_list:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps: dict = {}
    for v in g.vertices:
        comps.setdefault(find(v), []).append(v)
    return [g.sort_vertices(vs) for vs in comps.values()]
