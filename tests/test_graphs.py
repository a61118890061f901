import random
import sys

import networkx as nx
import pytest

from artin import (
    DisconnectedGraphError,
    GraphFormatError,
    LabelledGraph,
    PreconditionError,
    Word,
    big_chunks,
    canonical_form,
    classify_chunk,
    odd_components,
    parse_graph,
    retract_word,
    splits_over_cyclic,
)
from artin.graphs import _blocks, _Partition

from corpus import (
    LABELS,
    connected_atlas,
    fan_graph,
    path3,
    random_connected_graph,
    relabelled_copy,
    triangle,
)
from oracles import (
    label_matrix,
    oracle_big_chunks,
    oracle_brute_canonical_form,
    oracle_canonical_form,
    oracle_edge_stack_blocks,
    oracle_random_connected_graph,
    oracle_reached,
    oracle_retraction,
    oracle_separating,
    oracle_wl_classes,
)


# parsing


def test_parse_basics():
    g = parse_graph("# comment\n\nv z\ne a b 3\ne b c 2\n")
    assert g.vertices == ("a", "b", "c", "z")
    assert g.edges == (("a", "b", 3), ("b", "c", 2))
    assert g.valence("z") == 0
    assert g.label("b", "a") == 3
    with pytest.raises(KeyError, match="no edge a-z"):
        g.label("a", "z")


def test_parse_edge_declares_endpoints():
    g = parse_graph("e q p 5\n")
    assert g.vertices == ("p", "q")
    assert g.edges == (("p", "q", 5),)


def test_to_text_round_trip():
    g = fan_graph()
    assert parse_graph(g.to_text()) == g


@pytest.mark.parametrize(
    "text,line",
    [
        ("e a b 1\n", 1),
        ("e a b 3\ne b a 4\n", 2),
        ("e a a 2\n", 1),
        ("x a b\n", 1),
        ("v a b\n", 1),
        ("e a b two\n", 1),
        ("e a b\n", 1),
        ("v 1bad\n", 1),
        ("e a b 3\ne b c 3\ne c 1x 3\ne 1x d 2\n", 3),
        ("e a b 1_0\n", 1),
        ("e a b 3\ne b c \uff13\n", 2),
        ("e a b \u0663\n", 1),
        ("e a b 0x3\n", 1),
        ("e a b -3\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == line


def test_induced_subgraph():
    g = fan_graph()
    h = g.induced({"a", "c", "e"})
    assert h.vertices == ("a", "c", "e")
    assert h.edges == (("a", "c", 3), ("a", "e", 4), ("c", "e", 2))
    with pytest.raises(PreconditionError):
        g.induced({"a", "nope"})


# chunks


def test_fan_graph_decomposition():
    d = big_chunks(fan_graph())
    assert [c.vertices for c in d.chunks] == [("a", "b"), ("a", "d"), ("a", "c", "e")]
    assert d.separating == ("a",)
    assert d.incidence == (("a", (0, 1, 2)),)
    assert [str(k) for k in d.classes()] == [
        "ToralLeaf(2, tip=b)",
        "BraidedLeaf(6, tip=d)",
        "BigBig",
    ]


def test_path3_decomposition():
    d = big_chunks(path3())
    assert [c.vertices for c in d.chunks] == [("a", "b"), ("b", "c")]
    assert d.separating == ("b",)


def test_triangle_is_single_chunk():
    d = big_chunks(triangle())
    assert [c.vertices for c in d.chunks] == [("a", "b", "c")]
    assert d.separating == ()


def test_single_vertex_graph_is_its_own_chunk():
    d = big_chunks(parse_graph("v a\n"))
    assert [c.vertices for c in d.chunks] == [("a",)]


def test_disconnected_reports_components():
    g = parse_graph("e a b 2\nv z\n")
    with pytest.raises(DisconnectedGraphError) as exc:
        big_chunks(g)
    assert exc.value.components == (("a", "b"), ("z",))


def test_chunks_match_oracle_on_atlas():
    for g in connected_atlas(7):
        got = [c.vertices for c in big_chunks(g).chunks]
        assert got == oracle_big_chunks(g), g.edges


def test_chunks_match_oracle_on_random_graphs():
    rng = random.Random(11)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(2, 8))
        got = [c.vertices for c in big_chunks(g).chunks]
        assert got == oracle_big_chunks(g), g.edges


def _random_graph(rng, n):
    """A seeded graph on v0..v(n-1), of any edge density; it may be disconnected."""
    names = [f"v{i}" for i in range(n)]
    p = rng.random()
    edges = [(u, v, rng.choice(LABELS)) for i, u in enumerate(names) for v in names[i + 1:]
             if rng.random() < p]
    if rng.random() < 0.1:  # an isolated first vertex
        edges = [e for e in edges if names[0] not in e[:2]]
    return LabelledGraph.from_edges(edges, vertices=names)


def test_blocks_match_the_edge_stack_search():
    # the earlier search, which pops each block's edges off an edge stack,
    # as a second method; on disconnected graphs both stop at the first component
    rng = random.Random(13)
    graphs = connected_atlas(6) + [_random_graph(rng, rng.randint(1, 14)) for _ in range(2000)]
    assert sum(not g.is_connected() for g in graphs) > 500
    assert sum(g.valence(g.vertices[0]) == 0 and len(g.vertices) > 1 for g in graphs) > 100
    for g in graphs:
        assert sorted(_blocks(g)) == sorted(oracle_edge_stack_blocks(g)), g.edges


def test_separating_matches_oracle_and_incidence():
    rng = random.Random(12)
    graphs = connected_atlas(6) + [
        random_connected_graph(rng, rng.randint(2, 8)) for _ in range(60)
    ]
    for g in graphs:
        d = big_chunks(g)
        assert oracle_separating(g) == d.separating
        for v, idxs in d.incidence:
            assert len(idxs) >= 2
            assert idxs == tuple(i for i, c in enumerate(d.chunks) if v in c.vertices)


def test_tree_walk_matches_oracle():
    # reached(j, s) against the components of g - s, for every chunk j and vertex s
    rng = random.Random(12)
    graphs = connected_atlas(6) + [
        random_connected_graph(rng, rng.randint(2, 8)) for _ in range(60)
    ]
    pairs = 0
    for g in graphs:
        d = big_chunks(g)
        chunks = [c.vertices for c in d.chunks]
        for j in range(len(chunks)):
            for s in g.vertices:
                assert d.reached(j, s) == oracle_reached(g, chunks, j, s), (g.edges, j, s)
                pairs += 1
    assert pairs > 2000


def test_decomposition_is_its_four_fields():
    # a decomposition rebuilt from graph, chunks, separating and incidence
    # equals the one big_chunks built
    rng = random.Random(14)
    graphs = connected_atlas(5) + [
        random_connected_graph(rng, rng.randint(2, 12)) for _ in range(60)
    ]
    for g in graphs:
        d = big_chunks(g)
        assert type(d)(d.graph, d.chunks, d.separating, d.incidence) == d


def test_edge_partition_property():
    # every edge lies in exactly one chunk
    rng = random.Random(13)
    graphs = connected_atlas(6) + [
        random_connected_graph(rng, rng.randint(2, 8)) for _ in range(40)
    ]
    for g in graphs:
        d = big_chunks(g)
        for u, v, m in g.edges:
            holders = [
                i
                for i, c in enumerate(d.chunks)
                if u in c.vertices and v in c.vertices
            ]
            assert len(holders) == 1
            c = d.chunks[holders[0]]
            assert c.graph.label(u, v) == m


def test_block_cut_incidence_is_a_tree():
    rng = random.Random(14)
    graphs = connected_atlas(6) + [
        random_connected_graph(rng, rng.randint(3, 8)) for _ in range(40)
    ]
    for g in graphs:
        d = big_chunks(g)
        nodes = len(d.chunks) + len(d.separating)
        edge_count = sum(len(idxs) for _, idxs in d.incidence)
        assert edge_count == nodes - 1  # connected bipartite incidence with no cycle
        # connectivity: walk the incidence
        if len(d.chunks) > 1:
            reach = {0}
            frontier = [0]
            adj = {i: set() for i in range(len(d.chunks))}
            for _, idxs in d.incidence:
                for i in idxs:
                    for j in idxs:
                        if i != j:
                            adj[i].add(j)
            while frontier:
                nxt = []
                for i in frontier:
                    for j in adj[i]:
                        if j not in reach:
                            reach.add(j)
                            nxt.append(j)
                frontier = nxt
            assert reach == set(range(len(d.chunks)))


def _to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from((u, v) for u, v, _ in g.edges)
    return h


@pytest.mark.parametrize("n", [1, 9, 60, 200])
def test_random_connected_graph_matches_the_earlier_loop(n):
    # the same graph from the same rng calls, so every seeded corpus stays as it was
    for extra_p in (0.0, 0.04, 0.3, 1.0):
        fast, slow = random.Random(n), random.Random(n)
        assert random_connected_graph(fast, n, extra_p) == (
            oracle_random_connected_graph(slow, n, extra_p, LABELS)
        )
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n", [200, 2000])
def test_chunks_match_networkx_on_large_graphs(n):
    # the brute-force oracles stop near 8 vertices; networkx checks real sizes
    rng = random.Random(n)
    for mean_extra_degree in (0.5, 2.0):
        g = random_connected_graph(rng, n, extra_p=mean_extra_degree / n)
        h = _to_networkx(g)
        d = big_chunks(g)
        assert sorted(_blocks(g)) == sorted(oracle_edge_stack_blocks(g))
        blocks = sorted(
            (tuple(sorted(b)) for b in nx.biconnected_components(h)),
            key=lambda t: (t[0], len(t), t),
        )
        assert [c.vertices for c in d.chunks] == blocks
        assert d.separating == tuple(sorted(nx.articulation_points(h)))
        # each edge in exactly one chunk graph, so each is the induced subgraph
        assert sorted(e for c in d.chunks for e in c.graph.edges) == list(g.edges)
        assert all(c.graph.vertices == c.vertices for c in d.chunks)
        # the split sides: v plus the component of G - v holding chunk 0
        verdict = splits_over_cyclic(g)
        v = verdict.vertex
        assert v == d.separating[0]
        start = next(u for u in d.chunks[0].vertices if u != v)
        h.remove_node(v)
        assert verdict.left == tuple(sorted(nx.node_connected_component(h, start) | {v}))
        assert set(verdict.left) | set(verdict.right) == set(g.vertices)


def test_separating_vertices_match_networkx_on_disconnected_graphs():
    rng = random.Random(21)
    for _ in range(30):
        edges = []
        names = []
        for k in range(rng.randint(2, 4)):
            part = random_connected_graph(rng, rng.randint(1, 60), extra_p=0.04)
            names += [f"p{k}{v}" for v in part.vertices]
            edges += [(f"p{k}{u}", f"p{k}{v}", m) for u, v, m in part.edges]
        names += [f"z{i}" for i in range(rng.randint(1, 3))]
        g = LabelledGraph.from_edges(edges, vertices=names)
        assert len(g.components()) > 1
        got = tuple(sorted(
            v for c in g.components() for v in big_chunks(g.induced(c)).separating
        ))
        assert got == tuple(sorted(nx.articulation_points(_to_networkx(g))))
        if len(g.vertices) <= 9:
            assert got == oracle_separating(g)


def _path(n):
    return LabelledGraph.from_edges(
        [(f"p{i:05d}", f"p{i + 1:05d}", 3) for i in range(n - 1)]
    )


def _triangle_chain(k):
    # triangles {c_i, m_i, c_(i+1)} glued at the cut vertices c_1 .. c_(k-1)
    edges = []
    for i in range(k):
        c, m, nxt = f"c{i:05d}", f"m{i:05d}", f"c{i + 1:05d}"
        edges += [(c, m, 2), (m, nxt, 3), (c, nxt, 4)]
    return LabelledGraph.from_edges(edges)


@pytest.mark.parametrize(
    "build,chunk_count",
    [(lambda: _path(20_000), 19_999), (lambda: _triangle_chain(5_000), 5_000)],
    ids=["path-20000", "triangle-chain-5000"],
)
def test_long_graphs_need_no_recursion(build, chunk_count):
    g = build()
    d = big_chunks(g)
    assert len(d.chunks) == chunk_count
    assert len(d.separating) == chunk_count - 1
    verdict = splits_over_cyclic(g)
    assert verdict.vertex == d.separating[0]
    assert set(verdict.left) & set(verdict.right) == {verdict.vertex}
    chunk = d.chunks[chunk_count // 2]
    ends = Word(((g.vertices[0], 1), (g.vertices[-1], -1)))
    out = retract_word(d, chunk_count // 2, ends)
    assert out.support() <= set(chunk.vertices)
    assert len(out.letters) == 2


# classification


def test_classify_nonleaf_edges():
    # path on four vertices: middle edge is a non-leaf chunk
    g = parse_graph("e a b 2\ne b c 5\ne c d 2\n")
    d = big_chunks(g)
    kinds = [str(k) for k in d.classes()]
    assert kinds == ["ToralLeaf(2, tip=a)", "OddNonLeafEdge(5)", "ToralLeaf(2, tip=d)"]
    g2 = parse_graph("e a b 2\ne b c 2\ne c d 2\n")
    assert str(big_chunks(g2).classes()[1]) == "Label2NonLeafEdge(2)"
    g3 = parse_graph("e a b 2\ne b c 6\ne c d 2\n")
    assert str(big_chunks(g3).classes()[1]) == "EvenNonLeafEdge(6)"


def test_classify_whole_edge_graph_counts_as_leaf():
    g = parse_graph("e a b 4\n")
    c = big_chunks(g).chunks[0]
    k = classify_chunk(g, c)
    assert k.kind == "BraidedLeaf" and k.label == 4


def test_classify_singleton_rejected():
    g = parse_graph("v a\n")
    c = big_chunks(g).chunks[0]
    with pytest.raises(PreconditionError):
        classify_chunk(g, c)


# odd components


def test_odd_components_fan():
    assert odd_components(fan_graph()) == (("a", "c"), ("b",), ("d",), ("e",))


def test_odd_components_path3():
    assert odd_components(path3()) == (("a", "b"), ("c",))


# retraction


def test_retract_fan_example():
    out = retract_word(big_chunks(fan_graph()), 2, Word.from_text("b c d^-1"))
    assert out.to_text() == "a c a^-1"


def test_retract_path3_example():
    assert retract_word(big_chunks(path3()), 0, Word.from_text("c")).to_text() == "b"


def test_retract_fixes_chunk_letters_and_is_idempotent():
    rng = random.Random(15)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(3, 7))
        d = big_chunks(g)
        i = rng.randrange(len(d.chunks))
        chunk = d.chunks[i]
        letters = tuple(
            (rng.choice(g.vertices), rng.choice((-2, -1, 1, 2))) for _ in range(8)
        )
        w = Word(letters)
        once = retract_word(d, i, w)
        assert retract_word(d, i, once) == once
        assert once.support() <= set(chunk.vertices)
        for (n1, e1), (n2, e2) in zip(w.letters, once.letters):
            assert e1 == e2
            if n1 in chunk.vertices:
                assert n2 == n1


def test_retract_rejects_chunk_index_out_of_range():
    d = big_chunks(fan_graph())
    for index in (len(d.chunks), -1):
        with pytest.raises(
            PreconditionError,
            match=f"^chunk index {index} out of range; the graph has 3 chunks$",
        ):
            retract_word(d, index, Word.from_text("a"))


def _retraction_corpus():
    rng = random.Random(17)
    return connected_atlas(7) + [
        random_connected_graph(rng, rng.randint(2, 12), extra_p=0.2) for _ in range(150)
    ]


def _retraction_map(d, i):
    every_vertex = Word(tuple((v, 1) for v in d.graph.vertices))
    return {v: n for v, (n, _) in zip(d.graph.vertices, retract_word(d, i, every_vertex).letters)}


def test_retract_matches_oracle_on_every_chunk():
    for g in _retraction_corpus():
        d = big_chunks(g)
        for i, chunk in enumerate(d.chunks):
            nearest = oracle_retraction(g, chunk.vertices)
            assert all(len(t) == 1 for t in nearest.values()), g.edges
            assert _retraction_map(d, i) == {v: nearest[v][0] for v in g.vertices}, g.edges


def test_retraction_collapses_outside_edges_and_keeps_chunk_edges():
    # the property that makes the vertex map a group retraction onto the chunk
    for g in _retraction_corpus():
        d = big_chunks(g)
        for i, chunk in enumerate(d.chunks):
            rho = _retraction_map(d, i)
            for u, v, m in g.edges:
                if chunk.graph.has_edge(u, v):
                    assert (rho[u], rho[v]) == (u, v) and chunk.graph.label(u, v) == m
                else:
                    assert rho[u] == rho[v], (g.edges, chunk, u, v)
            assert all(rho[rho[v]] == rho[v] for v in g.vertices)


# canonical form


def test_canonical_form_invariant_under_renaming():
    rng = random.Random(16)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(1, 8))
        assert canonical_form(g) == canonical_form(relabelled_copy(rng, g))


def test_canonical_form_separates_structures():
    seen = {}
    for g in connected_atlas(5):
        form = canonical_form(g)
        assert form not in seen, (g.edges, seen[form])
        seen[form] = g.edges


def test_canonical_form_sees_labels():
    g1 = parse_graph("e a b 2\ne b c 3\n")
    g2 = parse_graph("e a b 3\ne b c 2\n")
    g3 = parse_graph("e a b 2\ne b c 4\n")
    assert canonical_form(g1) == canonical_form(g2)
    assert canonical_form(g1) != canonical_form(g3)


def test_canonical_form_past_twelve_vertices():
    rng = random.Random(13)
    path13 = LabelledGraph.from_edges(
        [(f"v{i:02d}", f"v{i + 1:02d}", 2) for i in range(12)]
    )
    ring13 = LabelledGraph.from_edges(
        [(f"v{i:02d}", f"v{(i + 1) % 13:02d}", 2) for i in range(13)]
    )
    assert len(path13.vertices) == len(ring13.vertices) == 13
    forms = set()
    for g in (path13, ring13):
        form = canonical_form(g)
        assert form.startswith(b"13|")
        assert form.count(b";") == len(g.edges) - 1
        for _ in range(4):
            assert canonical_form(relabelled_copy(rng, g)) == form
        forms.add(form)
    assert len(forms) == 2
    ring12 = LabelledGraph.from_edges(
        [(f"v{i:02d}", f"v{(i + 1) % 12:02d}", 2) for i in range(12)]
    )
    form12 = canonical_form(ring12)
    assert form12.startswith(b"12|") and form12.count(b";") == 11  # one format for every size


def test_canonical_form_of_empty_and_tiny():
    assert canonical_form(LabelledGraph((), ())) == b"0|"
    assert canonical_form(parse_graph("v a\n")) == b"1|"
    assert canonical_form(parse_graph("e a b 7\n")) == b"2|0,1,7"


def test_canonical_form_pins_the_root_cell_order():
    # the root's cells come in the order the search's refinement lays them
    # out; a change to that order changes these bytes, though not which
    # graphs share a form
    path5 = LabelledGraph.from_edges([("v4", "v0", 2), ("v0", "v1", 2), ("v1", "v2", 2), ("v2", "v3", 2)])
    assert canonical_form(path5) == b"5|0,4,2;1,3,2;2,3,2;2,4,2"
    path6 = LabelledGraph.from_edges([(f"v{i}", f"v{i + 1}", 2) for i in range(5)])
    assert canonical_form(path6) == b"6|0,5,2;1,4,2;2,3,2;2,4,2;3,5,2"
    spider = parse_graph("e c a 2\ne a x 2\ne c b 2\ne b y 2\ne c d 2\n")
    assert canonical_form(spider) == b"6|0,5,2;1,4,2;2,3,2;3,5,2;4,5,2"


def _one_label(nxg, m: int) -> LabelledGraph:
    return LabelledGraph.from_edges([(f"v{u:02d}", f"v{v:02d}", m) for u, v in nxg.edges()])


def _vertex_transitive(m: int) -> list[LabelledGraph]:
    structures = [nx.cycle_graph(k) for k in range(3, 13)]
    structures += [nx.complete_graph(k) for k in range(3, 13)]
    structures += [nx.circular_ladder_graph(k) for k in range(3, 7)]  # prisms, 6-12 vertices
    structures += [
        nx.petersen_graph(),
        nx.cubical_graph(),
        nx.icosahedral_graph(),
        nx.complete_bipartite_graph(3, 3),
        nx.complete_bipartite_graph(6, 6),
        nx.circulant_graph(12, [1, 3]),
        nx.circulant_graph(12, [1, 5]),
        nx.truncated_tetrahedron_graph(),
    ]
    return [_one_label(s, m) for s in structures]


def _twin_heavy(m: int) -> list[LabelledGraph]:
    """Graphs with many vertices of equal neighbourhoods, whose symmetric
    siblings the search skips through the orbits of tied leaves alone."""
    structures = [
        nx.star_graph(11),
        nx.complete_multipartite_graph(4, 4, 4),
        nx.complete_multipartite_graph(3, 3, 3, 3),
        nx.complete_multipartite_graph(2, 2, 2, 2, 2, 2),
        nx.complete_multipartite_graph(1, 1, 10),
        nx.wheel_graph(12),
    ]
    return [_one_label(s, m) for s in structures]


class _SameClasses:
    """Checks that canonical_form and oracle_canonical_form split the graphs
    added so far into the same isomorphism classes: equal forms exactly when
    the oracle's forms are equal, across every pair of graphs added. A
    relabelled copy is isomorphic to its original by construction, so it is
    added with the original's oracle form."""

    def __init__(self):
        self.to_oracle: dict[bytes, bytes] = {}
        self.from_oracle: dict[bytes, bytes] = {}

    def add(self, g: LabelledGraph, oracle_form: bytes) -> None:
        form = canonical_form(g)
        assert self.to_oracle.setdefault(form, oracle_form) == oracle_form, g.edges
        assert self.from_oracle.setdefault(oracle_form, form) == form, g.edges

    def __len__(self) -> int:
        return len(self.to_oracle)


def test_canonical_form_matches_oracles_on_the_atlas():
    rng = random.Random(41)
    same = _SameClasses()
    atlas = connected_atlas(6)
    for g in atlas:
        form = oracle_canonical_form(g)
        assert oracle_brute_canonical_form(g) == form
        same.add(g, form)
        same.add(relabelled_copy(rng, g), form)
    assert len(same) == len(atlas)  # the atlas lists each graph once


def test_canonical_form_matches_oracles_on_random_graphs():
    rng = random.Random(42)
    same = _SameClasses()
    for _ in range(2000):
        n = rng.randint(3, 12)
        labels = rng.sample(range(2, 7), rng.randint(1, 4))
        g = random_connected_graph(rng, n, rng.choice((0.1, 0.3, 0.6, 0.9)), labels)
        assert _root_cells(g) == sorted(oracle_wl_classes(n, label_matrix(g)))
        form = oracle_canonical_form(g)
        if n <= 7:
            assert oracle_brute_canonical_form(g) == form
        same.add(g, form)
        same.add(relabelled_copy(rng, g), form)
    assert len(same) > 1500


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_canonical_form_matches_oracle_on_vertex_transitive_graphs(m):
    rng = random.Random(43 + m)
    same = _SameClasses()
    for g in _vertex_transitive(m) + _twin_heavy(m):
        form = oracle_canonical_form(g)
        same.add(g, form)
        for _ in range(4):
            same.add(relabelled_copy(rng, g), form)


def test_canonical_forms_agree_with_networkx_isomorphism():
    rng = random.Random(44)
    same = differ = 0
    for _ in range(400):
        g = random_connected_graph(rng, rng.randint(3, 12), rng.choice((0.2, 0.5)), (2, 3))
        h = relabelled_copy(rng, g)
        if rng.random() < 0.5:  # change one label or drop one edge
            edges = list(h.edges)
            k = rng.randrange(len(edges))
            u, v, lab = edges[k]
            edges[k:k + 1] = [(u, v, 5 - lab)] if rng.random() < 0.5 else []
            h = LabelledGraph.from_edges(edges, vertices=h.vertices)
        iso = _networkx_iso(g, h)
        assert (canonical_form(g) == canonical_form(h)) == iso, (g.edges, h.edges)
        same += iso
        differ += not iso
    assert same > 100 and differ > 100


def _perturbed(rng: random.Random, g: LabelledGraph, relabel: bool) -> LabelledGraph:
    """g with one edge relabelled from 2 to 3 or back, or else moved to a
    non-adjacent pair (dropped when there is none)."""
    edges = list(g.edges)
    k = rng.randrange(len(edges))
    u, v, m = edges[k]
    if relabel:
        edges[k] = (u, v, 5 - m)
        return LabelledGraph.from_edges(edges, vertices=g.vertices)
    missing = [
        (a, b) for i, a in enumerate(g.vertices) for b in g.vertices[i + 1:] if not g.has_edge(a, b)
    ]
    edges[k:k + 1] = [(*rng.choice(missing), m)] if missing else []
    return LabelledGraph.from_edges(edges, vertices=g.vertices)


def _symmetric_13_to_60(rng: random.Random) -> list[LabelledGraph]:
    """One-label graphs of 13 to 60 vertices whose refinement is not discrete."""
    structures = [nx.cycle_graph(n) for n in (13, 17, 31, 60)]
    structures += [nx.complete_graph(n) for n in (13, 16, 24)]
    structures += [nx.circulant_graph(n, jumps) for n, jumps in
                   ((13, [1, 5]), (20, [1, 4]), (24, [2, 3, 7]), (40, [1, 9]), (60, [1, 11]))]
    structures += [
        nx.circular_ladder_graph(15),
        nx.complete_bipartite_graph(8, 8),
        nx.hypercube_graph(5),
        nx.grid_2d_graph(5, 6),
        nx.dodecahedral_graph(),
        nx.random_regular_graph(3, 40, seed=rng.randrange(1000)),
    ]
    return [_one_label(nx.convert_node_labels_to_integers(s), rng.choice((2, 3))) for s in structures]


def _networkx_iso(g: LabelledGraph, h: LabelledGraph) -> bool:
    return nx.is_isomorphic(
        _to_networkx(g), _to_networkx(h), edge_match=lambda a, b: a["label"] == b["label"]
    )


def test_canonical_forms_past_twelve_vertices_agree_with_networkx_on_symmetric_graphs():
    # no relabelled edges here: networkx's VF2 search can take factorial time
    # to refuse a complete graph with one edge of another label
    rng = random.Random(45)
    for g in _symmetric_13_to_60(rng):
        assert len(_root_cells(g)) < len(g.vertices)
        form = canonical_form(g)
        assert form.startswith(b"%d|" % len(g.vertices))
        for _ in range(2):
            h = relabelled_copy(rng, g)
            assert canonical_form(h) == form and _networkx_iso(g, h), g.edges
            h = _perturbed(rng, h, relabel=False)
            assert (canonical_form(h) == form) == _networkx_iso(g, h), g.edges


def test_canonical_forms_past_twelve_vertices_agree_with_networkx_on_random_graphs():
    rng = random.Random(46)
    same = differ = 0
    for _ in range(150):
        n = rng.randint(13, 60)
        g = random_connected_graph(rng, n, rng.choice((1.5 / n, 3 / n, 0.3)), (2, 3))
        h = relabelled_copy(rng, g)
        if rng.random() < 0.5:
            h = _perturbed(rng, h, relabel=rng.random() < 0.5)
        iso = _networkx_iso(g, h)
        assert (canonical_form(g) == canonical_form(h)) == iso, (g.edges, h.edges)
        same += iso
        differ += not iso
    assert same > 50 and differ > 50


def test_canonical_forms_of_cubic_graphs_agree_with_networkx():
    # one label and one degree: the refinement cannot start, so every form
    # comes from the search, whose children differ only in their traces
    rng = random.Random(48)
    same = differ = 0
    for _ in range(30):
        n = rng.randrange(14, 31, 2)
        g, h = (_one_label(nx.random_regular_graph(3, n, seed=rng.randrange(10**6)), 3)
                for _ in range(2))
        if rng.random() < 0.5:
            h = relabelled_copy(rng, g)
        iso = _networkx_iso(g, h)
        assert (canonical_form(g) == canonical_form(h)) == iso, (g.edges, h.edges)
        same += iso
        differ += not iso
    assert same > 5 and differ > 5


def _hubs_and_twins(n: int, threes) -> LabelledGraph:
    """K_{2,n} on hubs a, b and twins x000..., with the (hub, twin index)
    edges of ``threes`` labelled 3 and the others 2."""
    return LabelledGraph.from_edges(
        [(h, f"x{i:03d}", 3 if (h, i) in threes else 2) for h in "ab" for i in range(n)]
    )


@pytest.mark.parametrize("n", [20, 60, 150])
def test_canonical_forms_past_twelve_vertices_on_large_twin_classes(n):
    # the twins form one cell that individualization empties one vertex at a
    # time: the search runs about n levels deep and finds n automorphisms
    rng = random.Random(49 + n)
    form = canonical_form(_hubs_and_twins(n, {("a", 0)}))
    assert form.startswith(b"%d|" % (n + 2))
    assert canonical_form(_hubs_and_twins(n, {("b", 5)})) == form
    assert canonical_form(_hubs_and_twins(n, ())) != form
    pair = canonical_form(_hubs_and_twins(n, {("a", 0), ("a", 1)}))
    split = canonical_form(_hubs_and_twins(n, {("a", 0), ("b", 1)}))
    assert len({form, pair, split}) == 3
    assert canonical_form(_hubs_and_twins(n, {("b", 3), ("a", 7)})) == split
    for g, f in ((_hubs_and_twins(n, {("a", 0)}), form),
                 (_hubs_and_twins(n, {("b", 0), ("b", 9)}), pair)):
        assert canonical_form(relabelled_copy(rng, g)) == f


_LATIN_SQUARE = [[5, 0, 4, 1, 2, 3], [1, 5, 3, 0, 4, 2], [2, 1, 0, 3, 5, 4],
                 [3, 4, 1, 2, 0, 5], [0, 2, 5, 4, 3, 1], [4, 3, 2, 5, 1, 0]]


def _latin_square_graph(perm) -> LabelledGraph:
    """Cell (i, j) of ``_LATIN_SQUARE`` is vertex v{perm[6i + j]}; two cells
    sharing a row, a column or a symbol are joined by an edge labelled 2."""
    cells = [(i, j, _LATIN_SQUARE[i][j]) for i in range(6) for j in range(6)]
    return LabelledGraph.from_edges([
        (f"v{perm[a]}", f"v{perm[b]}", 2)
        for a in range(36) for b in range(a + 1, 36)
        if any(x == y for x, y in zip(cells[a], cells[b]))
    ])


def test_canonical_form_of_a_latin_square_graph_needs_path_fixing_orbits():
    # a strongly regular graph, SRG(36, 15, 6, 6): refinement after
    # individualization leaves cells coarser than the orbits of the path's
    # stabilizer, so orbits joined by automorphisms that move the path
    # (``_Node.next_child`` without its fixed-path check) skip children that
    # no path-fixing automorphism reaches, and this renaming gets another form
    g = _latin_square_graph(range(36))
    assert len(g.vertices) == 36 and len(g.edges) == 270
    assert {g.valence(v) for v in g.vertices} == {15}
    form = canonical_form(g)
    perm = [23, 13, 30, 34, 21, 25, 27, 10, 17, 29, 20, 8, 31, 26, 16, 2, 32, 33,
            12, 7, 4, 9, 6, 1, 15, 3, 35, 5, 11, 14, 0, 22, 24, 18, 28, 19]
    assert canonical_form(_latin_square_graph(perm)) == form
    rng = random.Random(53)
    for _ in range(8):
        assert canonical_form(relabelled_copy(rng, g)) == form


def test_canonical_form_of_a_large_sparse_graph_needs_no_recursion():
    # about 1200 vertices and 2400 edges, with trees hanging off one giant
    # block; the twin leaves there leave the refinement short of discrete, so
    # the search runs, and the giant block alone is read off its refinement
    rng = random.Random(47)
    g = random_connected_graph(rng, 1200, 2 / 1200, (2, 3))
    giant = max(big_chunks(g).chunks, key=lambda c: len(c.vertices)).graph
    assert len(giant.vertices) > max(1000, sys.getrecursionlimit())
    assert len(_root_cells(g)) < len(g.vertices)
    assert len(_root_cells(giant)) == len(giant.vertices)
    for graph in (g, giant):
        form = canonical_form(graph)
        assert form.startswith(b"%d|" % len(graph.vertices))
        assert form.count(b";") == len(graph.edges) - 1
        for _ in range(2):
            assert canonical_form(relabelled_copy(rng, graph)) == form


def _tagged_chain(n: int, closed: bool, tags: dict[int, int]) -> LabelledGraph:
    """The path (or, closed, the cycle) on n vertices, edge i labelled ``tags.get(i, 2)``."""
    return LabelledGraph.from_edges(
        [(f"v{i}", f"v{(i + 1) % n}", tags.get(i, 2)) for i in range(n if closed else n - 1)]
    )


@pytest.mark.parametrize("closed", [True, False])
def test_canonical_form_of_a_long_diameter_chunk(closed):
    # a refinement that re-ranks every vertex once per round needs about
    # n / 2 rounds here; the splitter queue touches each vertex a few times
    rng = random.Random(54 + closed)
    g = _tagged_chain(3000, closed, {700: 4, 1900: 4})
    form = canonical_form(g)
    assert form.startswith(b"3000|") and (form + b";").count(b",4;") == 2
    for _ in range(2):
        assert canonical_form(relabelled_copy(rng, g)) == form
    assert canonical_form(_tagged_chain(3000, closed, {700: 4, 1901: 4})) != form
    assert canonical_form(_tagged_chain(3000, closed, {701: 4, 1900: 4})) != form


def _neighbour_lists(g: LabelledGraph):
    idx = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [[] for _ in g.vertices]
    for u, v, m in g.edges:
        nbrs[idx[u]].append((m, idx[v]))
        nbrs[idx[v]].append((m, idx[u]))
    return nbrs


def _root_cells(g: LabelledGraph) -> list[list[int]]:
    """The cells of the search's root partition, as sorted lists, in sorted order."""
    root = _Partition.root(_neighbour_lists(g))
    return sorted(sorted(root.lab[p : p + k]) for p, k in enumerate(root.size) if k)


def _to_networkx(g: LabelledGraph):
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from((u, v, {"label": m}) for u, v, m in g.edges)
    return nxg
