"""Graph corpora and builders shared by the tests.

The structural corpus enumerates connected graphs up to isomorphism via
the networkx atlas (complete through 7 vertices) and assigns labels
deterministically by cycling {2,3,4,5,6} over the sorted edge list.
Random corpora use seeded generators only.
"""

from __future__ import annotations

import random

import networkx as nx

from artin import LabelledGraph, parse_graph

LABELS = (2, 3, 4, 5, 6)

_atlas_cache: dict[int, list[LabelledGraph]] = {}


def from_networkx(nxg) -> LabelledGraph:
    nodes = sorted(nxg.nodes())
    name = {u: f"v{i}" for i, u in enumerate(nodes)}
    pairs = sorted(tuple(sorted((name[u], name[v]))) for u, v in nxg.edges())
    return LabelledGraph.from_edges(
        [(u, v, LABELS[i % len(LABELS)]) for i, (u, v) in enumerate(pairs)],
        vertices=[name[u] for u in nodes],
    )


def connected_atlas(max_n: int) -> list[LabelledGraph]:
    """One labelled representative per connected graph structure, 1..max_n <= 7 vertices."""
    if max_n not in _atlas_cache:
        out = []
        for G in nx.graph_atlas_g()[1:]:
            if 1 <= len(G) <= max_n and nx.is_connected(G):
                out.append(from_networkx(G))
        _atlas_cache[max_n] = out
    return _atlas_cache[max_n]


def random_connected_graph(rng: random.Random, n: int, extra_p: float = 0.3,
                           labels=LABELS) -> LabelledGraph:
    """Random spanning tree plus random extra edges; labels drawn from ``labels``.

    Vertex i > 0 hangs from ``parent[i] < i``; each other pair draws one
    ``rng.random()`` against ``extra_p``. Names are built only for edges.
    """
    names = [f"v{i}" for i in range(n)]
    parent = [-1] * n
    edges: dict[tuple[str, str], int] = {}
    for i in range(1, n):
        parent[i] = j = rng.randrange(i)
        edges[tuple(sorted((names[j], names[i])))] = rng.choice(labels)
    for i in range(n):
        for j in range(i + 1, n):
            if parent[j] != i and rng.random() < extra_p:
                edges[tuple(sorted((names[i], names[j])))] = rng.choice(labels)
    return LabelledGraph.from_edges([(u, v, m) for (u, v), m in sorted(edges.items())])


def relabelled_copy(rng: random.Random, g: LabelledGraph) -> LabelledGraph:
    """Same graph under a random renaming of the vertices."""
    fresh = [f"w{i}" for i in range(len(g.vertices))]
    rng.shuffle(fresh)
    mapping = dict(zip(g.vertices, fresh))
    return LabelledGraph.from_edges(
        [(mapping[u], mapping[v], m) for u, v, m in g.edges],
        vertices=list(mapping.values()),
    )


# named fixtures

FAN_TEXT = """\
# triangle with a toral and a braided leaf at a
e a c 3
e c e 2
e a e 4
e a b 2
e a d 6
"""


def fan_graph() -> LabelledGraph:
    return parse_graph(FAN_TEXT)


def path3() -> LabelledGraph:
    return parse_graph("e a b 3\ne b c 2\n")


def triangle() -> LabelledGraph:
    return parse_graph("e a b 3\ne b c 3\ne a c 3\n")


def star(m1: int, m2: int, m3: int) -> LabelledGraph:
    return LabelledGraph.from_edges(
        [("p", "s", m1), ("q", "s", m2), ("r", "s", m3)]
    )
