"""Shared fixtures: the worked example graphs and a random graph source."""

from __future__ import annotations

import random

import pytest

from artinkernels import Character, LabeledGraph, connected_components, is_fc_type
from artinkernels.scalars import QQ, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)


def dihedral_graph():
    g = LabeledGraph(["u", "v"], [("u", "v", 4)])
    return g, Character(g, {"u": 1, "v": -1})


def square_graph():
    g = LabeledGraph(
        ["v1", "v2", "v3", "v4"],
        [("v1", "v2", 4), ("v2", "v3", 4), ("v3", "v4", 4), ("v1", "v4", 2)])
    return g, Character(g, {"v1": 1, "v2": 2, "v3": 1, "v4": 2})


def square_diagonal_graph():
    g = LabeledGraph(
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1", 2), ("v1", "v2", 2), ("v2", "v3", 2), ("v0", "v3", 2),
         ("v0", "v2", 4)])
    chi = Character(g, {"v0": -1, "v1": 1, "v2": 1, "v3": 1})
    chi2 = Character(g, {"v0": -1, "v1": 0, "v2": 1, "v3": 0})
    return g, chi, chi2


@pytest.fixture
def dihedral():
    return dihedral_graph()


@pytest.fixture
def square():
    return square_graph()


@pytest.fixture
def square_diagonal():
    return square_diagonal_graph()


def random_even_graph(rng: random.Random, max_vertices=6, labels=(2, 4, 6),
                      edge_prob=0.55, require_fc=True, require_connected=False):
    while True:
        n = rng.randint(2, max_vertices)
        names = [f"a{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < edge_prob:
                    edges.append((names[i], names[j], rng.choice(labels)))
        g = LabeledGraph(names, edges)
        if require_fc and not is_fc_type(g):
            continue
        if require_connected and len(connected_components(g)) != 1:
            continue
        return g


def random_matching_graph(rng: random.Random, max_vertices=7, edge_prob=0.8,
                          heavy=(4, 6, 10)):
    """An FC-type graph with large cliques: label-2 edges drawn with
    `edge_prob`, then labels from `heavy` on a random matching of them."""
    n = rng.randint(3, max_vertices)
    names = [f"a{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    labels = dict.fromkeys(pairs, 2)
    covered = set()
    for i, j in rng.sample(pairs, len(pairs)):
        if i not in covered and j not in covered and rng.random() < 0.5:
            labels[i, j] = rng.choice(heavy)
            covered.update((i, j))
    return LabeledGraph(names, [(names[i], names[j], lab) for (i, j), lab in labels.items()])


def random_character(rng: random.Random, g: LabeledGraph, max_weight=3,
                     allow_zero=False):
    while True:
        weights = {}
        for v in g.vertices:
            m = rng.randint(-max_weight, max_weight)
            if not allow_zero:
                while m == 0:
                    m = rng.randint(-max_weight, max_weight)
            weights[v] = m
        c = Character(g, weights)
        if c.is_zero:
            continue
        return c.normalize()[0]


def random_case(rng: random.Random, **kwargs):
    """A normalized non-resonant character on a random FC-type graph."""
    allow_zero = kwargs.pop("allow_zero", False)
    max_weight = kwargs.pop("max_weight", 3)
    g = random_even_graph(rng, **kwargs)
    c = random_character(rng, g, max_weight=max_weight, allow_zero=allow_zero)
    return g, c
