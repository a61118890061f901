import random
import re

import pytest

from artin import (
    AbelianShape,
    LabelledGraph,
    NoJsjExistsError,
    PreconditionError,
    Presentation,
    Word,
    WordFormatError,
    abelianize,
    alternating,
    artin_abelianization,
    artin_presentation,
    build_jsj,
    collapse_jsj,
    dihedral_jsj,
    gog_presentation,
    odd_components,
    parse_presentation,
    render_presentation,
    simplify_identifications,
    smith_normal_form,
)
from artin.gog import (
    BLACK,
    RED,
    WHITE,
    ChunkParabolic,
    CyclicOnGenerator,
    CyclicOnWord,
    FreeAbelianPair,
    GoGEdge,
    GoGVertex,
    GraphOfGroups,
)
from artin.graphs import big_chunks

from corpus import connected_atlas, path3, random_connected_graph, triangle
from oracles import (
    oracle_artin_relator,
    oracle_dense_snf,
    oracle_expanded,
    oracle_invariant_factors,
    oracle_power_of,
    oracle_simplify_identifications,
    oracle_word,
)
from artin.gog import _power_of
from artin.presentations import _ArtinRelator
from artin.words import _Alternating


def test_artin_presentation_path3():
    pres = artin_presentation(path3())
    assert pres.generators == ("a", "b", "c")
    assert [r.to_text() for r in pres.relators] == [
        "a b a b^-1 a^-1 b^-1",
        "b c b^-1 c^-1",
    ]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 1000, 1001])
def test_artin_relator_is_alternating_word_times_inverse(m):
    # the relator is held as (u, v, m); its letters, text, exponent sums
    # and support are those of the word it stands for
    g = LabelledGraph(("u", "v"), (("u", "v", m),))
    (relator,) = artin_presentation(g).relators
    want = alternating("u", "v", m) * alternating("v", "u", m).inverse()
    assert relator.letters == want.letters
    assert relator.to_text() == want.to_text() == str(relator)
    assert relator.exponent_sums() == want.exponent_sums()
    assert relator.support() == want.support()
    # it is that word: it compares, hashes and multiplies as one
    assert isinstance(relator, Word)
    assert relator == want and want == relator and hash(relator) == hash(want)
    assert relator.inverse().letters == want.inverse().letters
    assert relator.units() == want.units()
    assert (relator * want).letters == (want * want).letters


def test_render_parse_round_trip():
    pres = artin_presentation(triangle())
    text = render_presentation(pres)
    back = parse_presentation(text)
    assert back == pres
    assert back.generators == pres.generators
    assert [r.letters for r in back.relators] == [r.letters for r in pres.relators]
    assert [r.to_text() for r in back.relators] == [r.to_text() for r in pres.relators]
    assert render_presentation(back) == text
    assert text.splitlines()[0].startswith("gen:")


def test_parse_presentation_skips_comments_and_blank_lines():
    text = "# a comment\n\ngen: a b\n  # indented\nrel: a b a^-1 b^-1\n\n"
    assert parse_presentation(text) == Presentation(("a", "b"), (Word.from_text("a b a^-1 b^-1"),))


@pytest.mark.parametrize("text, message", [
    ("gen: a\ngen: b\n", "second gen: line"),
    ("rel: a\ngen: a\n", "rel: before gen:"),
    ("gen: a\nrelator a\n", "bad presentation line 'relator a'"),
    ("# only a comment\n", "missing gen: line"),
])
def test_parse_presentation_errors(text, message):
    with pytest.raises(WordFormatError, match="^" + re.escape(message) + "$"):
        parse_presentation(text)


def test_presentation_validates_support():
    with pytest.raises(WordFormatError):
        Presentation(("a",), (Word.from_text("a b"),))


def test_snf_frozen_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == (2, 2, 156)
    assert smith_normal_form([[1]]) == (1,)
    assert smith_normal_form([[6, 4]]) == (2,)
    assert smith_normal_form([[6], [4]]) == (2,)
    assert smith_normal_form([]) == () and smith_normal_form([[], []]) == ()


@pytest.mark.parametrize("matrix, message", [
    ([[1, 2], [3]], "matrix rows have unequal lengths"),
    ([[1, 2.0]], "matrix entries must be integers"),
    ([[1], ["x"]], "matrix entries must be integers"),
])
def test_snf_refuses_ragged_rows_and_non_integers(matrix, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        smith_normal_form(matrix)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(99)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        got = smith_normal_form(m)
        assert got == oracle_invariant_factors(m), m


def test_snf_shape_properties():
    rng = random.Random(5)
    for _ in range(80):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        d = smith_normal_form(m)
        assert len(d) == min(rows, cols)
        assert all(x >= 0 for x in d)
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
            if d[i] == 0:
                assert d[i + 1] == 0


def test_abelianize_edge_cases():
    free = Presentation(("a", "b"), ())
    assert abelianize(free) == AbelianShape(2, ())
    torsion = Presentation(("a",), (Word.from_text("a^2"),))
    assert abelianize(torsion) == AbelianShape(0, (2,))
    assert abelianize(torsion).describe() == "Z/2"
    assert AbelianShape(2, ()).describe() == "Z^2"
    assert AbelianShape(1, (2, 6)).describe() == "Z x Z/2 x Z/6"
    assert AbelianShape(1, (6,)) == AbelianShape(1, (6,))
    assert AbelianShape(1, ()) != AbelianShape(0, ())
    trivial = Presentation(("a",), (Word.from_text("a"),))
    assert abelianize(trivial) == AbelianShape(0, ())
    # no generators, or no relators as in free: the relation matrix has no entries
    assert abelianize(Presentation((), ())) == AbelianShape(0, ())
    assert abelianize(Presentation((), (Word(),))) == AbelianShape(0, ())


def test_gog_presentation_path3_simplifies_to_artin():
    pres = simplify_identifications(gog_presentation(build_jsj(path3())))
    assert pres.generators == ("a", "b", "c")
    texts = {r.to_text() for r in pres.relators}
    assert texts == {"a b a b^-1 a^-1 b^-1", "c b c^-1 b^-1"}


def test_abelianization_rank_law_on_corpus():
    rng = random.Random(17)
    graphs = [g for g in connected_atlas(5) if len(g.vertices) >= 3]
    graphs += [random_connected_graph(rng, rng.randint(3, 7)) for _ in range(40)]
    for g in graphs:
        want = AbelianShape(len(odd_components(g)), ())
        assert abelianize(artin_presentation(g)) == want
        jsj = build_jsj(g)
        assert abelianize(gog_presentation(jsj)) == want
        assert abelianize(gog_presentation(collapse_jsj(jsj))) == want


def test_simplify_preserves_abelianization():
    rng = random.Random(71)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 6))
        pres = gog_presentation(build_jsj(g))
        simp = simplify_identifications(pres)
        assert abelianize(simp) == abelianize(pres)
        assert len(simp.generators) <= len(pres.generators)


def test_gog_presentation_spanning_tree_takes_edges_in_index_order():
    # a base with a triangle, parallel edges and a loop: the tree takes the
    # first edges in index order that close no cycle, 0 and 1, so edge 2
    # closes the triangle and edge 3 doubles edge 2, and both get stable
    # letters, as does the loop
    vertices = tuple(GoGVertex(v.upper(), BLACK, CyclicOnGenerator(v)) for v in "abc")
    edges = tuple(
        GoGEdge(ends, CyclicOnGenerator(ends[0].lower()),
                (Word.from_text(left), Word.from_text(right)))
        for ends, left, right in [
            (("B", "C"), "b", "c"),
            (("A", "C"), "a", "c^2"),
            (("A", "B"), "a^3", "b"),
            (("B", "A"), "b^5", "a"),
            (("C", "C"), "c", "c^-1"),
        ]
    )
    p = gog_presentation(GraphOfGroups(vertices, edges))
    assert abelianize(p) == AbelianShape(3, ())  # the same group for every maximal tree
    assert render_presentation(p) == (
        "gen: a b c t2 t3 t4\n"
        "rel: b c^-1\n"
        "rel: a c^-2\n"
        "rel: t2 a^3 t2^-1 b^-1\n"
        "rel: t3 b^5 t3^-1 a^-1\n"
        "rel: t4 c t4^-1 c\n"
    )


def _four_kinds_gog():
    """A hand-built graph of groups with one vertex of each group kind.

    The defining graph has a vertex z_a_d, so the centre of <a, a d a d>
    is named z_a_d_; the generator a is taken by three vertices, and two
    loops share the stable letter t.
    """
    g = LabelledGraph.from_edges(
        [("a", "b", 3), ("b", "c", 3), ("a", "c", 3), ("a", "d", 4), ("c", "z_a_d", 2)]
    )
    chunk = next(c for c in big_chunks(g).chunks if c.vertices == ("a", "b", "c"))
    w = Word.from_text
    vertices = (
        GoGVertex("P", BLACK, ChunkParabolic(chunk), chunk),
        GoGVertex("F", BLACK, FreeAbelianPair("a", alternating("a", "d", 4))),
        GoGVertex("R", RED, CyclicOnWord(w("a d"))),
        GoGVertex("A", WHITE, CyclicOnGenerator("a")),
    )
    central_inverse = w("d^-1 a^-1 d^-1 a^-1")
    edges = (
        GoGEdge(("A", "P"), CyclicOnGenerator("a"), (w("a"), w("a"))),
        GoGEdge(("A", "F"), CyclicOnGenerator("a"), (w("a^3"), w("a a^2"))),
        GoGEdge(("F", "R"), CyclicOnWord(w("a d a d")), (central_inverse, central_inverse)),
        GoGEdge(("A", "A"), CyclicOnGenerator("a"), (w("a"), w("a^-1")), stable_letter="t"),
        GoGEdge(("P", "P"), CyclicOnGenerator("b"), (w("b"), w("c b c^-1")), stable_letter="t"),
    )
    return GraphOfGroups(vertices, edges, graph=g)


def test_gog_presentation_bytes_per_group_kind():
    # chunk relators, the commutator of <a, z>, a^3 -> a_F^3, the central
    # word's inverse -> z^-1, (a d)^-2 -> r^-2, and loop letters t, t_loop4
    assert render_presentation(gog_presentation(_four_kinds_gog())) == (
        "gen: a a_A a_F b c r_a_d t t_loop4 z_a_d_\n"
        "rel: a b a b^-1 a^-1 b^-1\n"
        "rel: a c a c^-1 a^-1 c^-1\n"
        "rel: b c b c^-1 b^-1 c^-1\n"
        "rel: a_F z_a_d_ a_F^-1 z_a_d_^-1\n"
        "rel: a_A a^-1\n"
        "rel: a_A^3 a_F^-3\n"
        "rel: z_a_d_^-1 r_a_d^2\n"
        "rel: t a_A t^-1 a_A\n"
        "rel: t_loop4 b t_loop4^-1 c b^-1 c^-1\n"
    )


def test_free_abelian_pair_centre_avoids_its_own_base():
    # the base is named like the centre, z_a_d, and is no defining-graph
    # vertex: the centre is z_a_d_, and the one relator is their commutator,
    # so the vertex group is Z^2 and not free
    pair = FreeAbelianPair("z_a_d", alternating("a", "d", 4))
    gog = GraphOfGroups((GoGVertex("F", BLACK, pair),), ())
    pres = gog_presentation(gog)
    assert render_presentation(pres) == (
        "gen: z_a_d z_a_d_\n"
        "rel: z_a_d z_a_d_ z_a_d^-1 z_a_d_^-1\n"
    )
    assert all(r.free_reduce().letters for r in pres.relators)


@pytest.mark.parametrize(
    "vid, word, message",
    [
        ("A", "b", "'b' does not lie in the cyclic group on a"),
        ("P", "a d", "'a d' does not lie in the chunk {a,b,c}"),
        ("F", "d", "'d' does not lie in <a, a d a d>"),
        ("R", "a", "'a' is not a power of a d"),
    ],
)
def test_gog_presentation_embed_messages(vid, word, message):
    gog = _four_kinds_gog()
    vertex = gog.vertex(vid)
    loop = GoGEdge((vid, vid), CyclicOnGenerator("a"), (Word.from_text(word),) * 2)
    with pytest.raises(PreconditionError, match="^" + re.escape(message) + "$"):
        gog_presentation(GraphOfGroups((vertex,), (loop,), graph=gog.graph))


def test_chunk_injection_is_free_reduced_as_it_is_renamed():
    gog = _four_kinds_gog()
    w = Word.from_text
    loop = GoGEdge(("P", "P"), CyclicOnGenerator("b"), (w("b c c^-1"), w("b")), stable_letter="t")
    pres = gog_presentation(GraphOfGroups((gog.vertex("P"),), (loop,), graph=gog.graph))
    assert pres.relators[-1].to_text() == "t b t^-1 b^-1"


def test_vertex_id_that_makes_a_bad_generator_name_fails_as_a_bad_name():
    gog = _four_kinds_gog()
    p = gog.vertex("P")
    twin = GoGVertex("Q-1", BLACK, p.group, p.chunk)
    edge = GoGEdge(("P", "Q-1"), CyclicOnGenerator("a"), (Word.from_text("a"),) * 2)
    with pytest.raises(WordFormatError, match="^bad generator name 'a_Q-1'$"):
        gog_presentation(GraphOfGroups((p, twin), (edge,), graph=gog.graph))


def test_gog_presentation_requires_connected_base():
    gog = build_jsj(path3())
    broken = type(gog)(gog.vertices, (), graph=gog.graph, legend=gog.legend)
    with pytest.raises(PreconditionError, match="disconnected base"):
        gog_presentation(broken)


def _relation_matrix(p):
    """Dense exponent-sum matrix: one row per relator, one column per generator."""
    col = {g: i for i, g in enumerate(p.generators)}
    rows = []
    for rel in p.relators:
        row = [0] * len(p.generators)
        for name, exp in rel.letters:
            row[col[name]] += exp
        rows.append(row)
    return rows


def _shape_from_factors(ncols, factors):
    nonzero = [d for d in factors if d]
    return AbelianShape(ncols - len(nonzero), tuple(d for d in nonzero if d > 1))


def _mostly_units(rng, rows, cols):
    return [[rng.choice((0, 0, 0, 1, -1, 1, -1, 2, -3)) for _ in range(cols)]
            for _ in range(rows)]


def _zero_lines(rng, rows, cols):
    m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    for i in rng.sample(range(rows), rng.randint(0, rows)):
        m[i] = [0] * cols
    for j in rng.sample(range(cols), rng.randint(0, cols)):
        for row in m:
            row[j] = 0
    return m


def _no_units(rng, rows, cols):
    return [[rng.choice((0, 0, 2, -2, 3, -4, 6, 9, -10, 15)) for _ in range(cols)]
            for _ in range(rows)]


def _large(rng, rows, cols):
    big = 10**12
    return [[rng.choice((0, 1, -1, rng.randint(-big, big), rng.randint(-9, 9)))
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("kind", [_mostly_units, _zero_lines, _no_units, _large])
def test_sparse_snf_matches_minor_gcd_oracle(kind):
    rng = random.Random(kind.__name__)
    for _ in range(150):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = kind(rng, rows, cols)
        if kind is _no_units:
            assert all(abs(x) != 1 for row in m for x in row)
        assert smith_normal_form(m) == oracle_invariant_factors(m), m


@pytest.mark.parametrize("kind", [_no_units, _mostly_units, _large])
def test_snf_matches_dense_oracle_on_larger_matrices(kind):
    rng = random.Random(f"larger/{kind.__name__}")
    for _ in range(30):
        size, other = rng.randint(7, 14), rng.randint(1, 14)
        rows, cols = (size, other) if rng.random() < 0.5 else (other, size)
        m = kind(rng, rows, cols)
        assert smith_normal_form(m) == oracle_dense_snf(m), m


def test_snf_brings_the_diagonal_to_a_divisor_chain():
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == (2, 2, 60)
    assert smith_normal_form([[0, 0, 0], [0, 6, 0], [0, 0, 4]]) == (2, 12, 0)


def test_snf_reaches_a_unit_through_column_remainders():
    # no entry is a unit: 6 leaves the remainders 4 and 3 in its row,
    # then 3 leaves 1
    assert smith_normal_form([[6, 10, 15]]) == (1,)
    assert smith_normal_form([[6], [10], [15]]) == (1,)


def _presentation_corpus():
    rng = random.Random(404)
    graphs = [g for g in connected_atlas(5) if len(g.vertices) >= 3][::3]
    for n in (12, 20, 30, 40, 50, 60):
        for p in (1.5 / n, 3.0 / n):
            graphs.append(random_connected_graph(rng, n, extra_p=p))
    for g in graphs:
        jsj = build_jsj(g)
        yield g, gog_presentation(jsj)
        yield g, gog_presentation(collapse_jsj(jsj))


def test_sparse_snf_matches_dense_oracle_on_gog_presentations():
    for g, pres in _presentation_corpus():
        m = _relation_matrix(pres)
        want = oracle_dense_snf(m)
        assert smith_normal_form(m) == want, g.to_text()
        assert abelianize(pres) == _shape_from_factors(len(pres.generators), want)


def test_sparse_snf_matches_dense_oracle_on_dihedral_jsj():
    with pytest.raises(NoJsjExistsError):
        dihedral_jsj(2)
    for n in range(3, 41):
        pres = gog_presentation(dihedral_jsj(n))
        m = _relation_matrix(pres)
        want = oracle_dense_snf(m)
        assert smith_normal_form(m) == want, n
        assert abelianize(pres) == _shape_from_factors(len(pres.generators), want)


def test_simplify_matches_rescanning_oracle_byte_for_byte():
    rng = random.Random(303)
    graphs = [g for g in connected_atlas(5) if len(g.vertices) >= 3]
    graphs += [random_connected_graph(rng, rng.randint(3, 9)) for _ in range(60)]
    graphs += [random_connected_graph(rng, n, extra_p=2.0 / n) for n in (15, 30, 45)]
    for g in graphs:
        jsj = build_jsj(g)
        for pres in (gog_presentation(jsj), gog_presentation(collapse_jsj(jsj))):
            want = render_presentation(oracle_simplify_identifications(pres))
            assert render_presentation(simplify_identifications(pres)) == want, g.to_text()
    for n in range(3, 12):
        pres = gog_presentation(dihedral_jsj(n))
        want = render_presentation(oracle_simplify_identifications(pres))
        assert render_presentation(simplify_identifications(pres)) == want


def test_simplify_takes_identifications_in_order():
    # eliminating d (from "d b") turns the first relator into the
    # identification "a^-1 b^-1", which comes before "d a" (now "b^-1 a")
    # and must be taken first; taking "b^-1 a" first leaves a^-2
    pres = parse_presentation("gen: a b c d e\nrel: a^-1 b^-1 d b\nrel: d b\nrel: d a\n")
    want = "gen: a c e\nrel: a^2\n"
    assert render_presentation(oracle_simplify_identifications(pres)) == want
    assert render_presentation(simplify_identifications(pres)) == want


def test_closed_form_abelianization_matches_snf():
    rng = random.Random(23)
    graphs = list(connected_atlas(5))
    graphs += [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(60)]
    for g in graphs:
        assert artin_abelianization(g) == abelianize(artin_presentation(g)), g.to_text()
    # huge labels: one per graph, so the relators stay a few million letters
    for big in (10**6, 10**6 + 1):
        g = random_connected_graph(rng, 5)
        u, v, _ = g.edges[0]
        h = type(g).from_edges([(u, v, big)] + list(g.edges[1:]), vertices=g.vertices)
        assert artin_abelianization(h) == abelianize(artin_presentation(h)), h.to_text()


# closed-form Artin relators against the expanded words


def _relator_corpus():
    """Gog presentations of the atlas and of seeded graphs with labels 2..9, 1000 and 1001."""
    rng = random.Random(1212)
    graphs = [g for g in connected_atlas(5) if len(g.vertices) >= 3]
    for labels, count in (((2, 3, 4, 5, 6, 7, 8, 9), 30), ((2, 3, 1000, 1001), 8)):
        graphs += [random_connected_graph(rng, rng.randint(3, 9), labels=labels)
                   for _ in range(count)]
    for g in graphs:
        yield g, artin_presentation(g)
        jsj = build_jsj(g)
        yield g, gog_presentation(jsj)
        yield g, gog_presentation(collapse_jsj(jsj))


def test_relators_render_and_abelianize_as_their_expanded_words():
    for g, pres in _relator_corpus():
        expanded = oracle_expanded(pres)
        assert render_presentation(pres) == render_presentation(expanded), g.to_text()
        assert pres.to_json_dict() == expanded.to_json_dict(), g.to_text()
        assert abelianize(pres) == abelianize(expanded), g.to_text()
        for r, w in zip(pres.relators, expanded.relators):
            assert r.exponent_sums() == w.exponent_sums() and r.support() == w.support()
        m = _relation_matrix(expanded)
        assert abelianize(pres) == _shape_from_factors(len(pres.generators), oracle_dense_snf(m))


def test_simplify_matches_the_expanded_path_byte_for_byte():
    for g, pres in _relator_corpus():
        want = render_presentation(oracle_simplify_identifications(oracle_expanded(pres)))
        got = simplify_identifications(pres)
        assert render_presentation(got) == want, g.to_text()
        assert render_presentation(simplify_identifications(oracle_expanded(pres))) == want
        assert abelianize(got) == abelianize(pres), g.to_text()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 1000, 1001])
def test_substituting_an_inverse_matches_the_expanded_path(m):
    # the identification "b c" eliminates c as b^-1 (sign -1): the relator
    # of b-c becomes b^2 for odd m and vanishes for even m, while that of
    # a-c keeps c's place with b^-1
    g = LabelledGraph.from_edges([("a", "b", m), ("b", "c", m), ("a", "c", 3), ("c", "d", m)])
    artin = artin_presentation(g)
    cases = [
        Presentation(artin.generators, artin.relators + (Word.from_text("b c"),)),
        Presentation(artin.generators, (Word.from_text("c^-1 b^-1"),) + artin.relators),
        Presentation(artin.generators,
                     artin.relators + (Word.from_text("d b"), Word.from_text("a c"))),
        Presentation(artin.generators, artin.relators + (Word.from_text("d^-1 c"),)),
    ]
    for pres in cases:
        want = oracle_simplify_identifications(oracle_expanded(pres))
        got = simplify_identifications(pres)
        assert render_presentation(got) == render_presentation(want), render_presentation(pres)
        assert [oracle_word(r).letters for r in got.relators] == [r.letters for r in want.relators]
        assert abelianize(got) == abelianize(want)
    texts = render_presentation(simplify_identifications(cases[0])).splitlines()
    assert ("rel: b^2" in texts) == (m % 2 == 1)


@pytest.mark.parametrize("m", [2, 3, 1000, 1001])
def test_renamed_relator_matches_the_renamed_word(m):
    r = _ArtinRelator("u", "v", m)
    expanded = oracle_artin_relator("u", "v", m)
    for rename, sign in [({"u": "x"}, 1), ({"v": "x"}, -1), ({"u": "v"}, 1), ({"u": "v"}, -1),
                         ({"v": "u"}, -1), ({"u": "y", "v": "x"}, 1)]:
        word = Word(tuple((rename[n], e * sign) if n in rename else (n, e)
                          for n, e in expanded.letters)).free_reduce()
        # the closed form and the word layer's own renaming
        for got in (r._renamed(rename, sign), expanded._renamed(rename, sign)):
            if not word.letters:
                assert got is None
                continue
            assert got.to_text() == word.to_text()
            assert oracle_word(got).letters == word.letters
            assert got.exponent_sums() == word.exponent_sums()
            assert got.support() == word.support()


def test_library_never_expands_an_artin_relator(monkeypatch, capsys, tmp_path):
    def refuse(self):
        raise AssertionError("Artin relator expanded")

    monkeypatch.setattr(_ArtinRelator, "letters", property(refuse))
    from artin.cli import main

    texts = ["e a b 1000000001\ne b c 3\ne a c 3\n", "e p s 3\ne q s 300000\ne r s 2\n",
             "e a b 1000000000\ne b c 3\ne c d 5\ne a c 2\ne d e 2\n"]
    for i, text in enumerate(texts):
        path = tmp_path / f"g{i}.graph"
        path.write_text(text)
        for argv in (["abelianize", "--of-jsj"], ["abelianize", "--of-jsj", "--json"]):
            assert main([argv[0], str(path), *argv[1:]]) == 0
    small = tmp_path / "small.graph"
    small.write_text("e a b 1001\ne b c 3\ne a c 4\ne c d 7\ne d e 2\n")
    for argv in (["presentation"], ["presentation", "--of-jsj"],
                 ["presentation", "--of-jsj", "--simplify"],
                 ["presentation", "--of-jsj", "--simplify", "--json"], ["abelianize", "--of-jsj"]):
        assert main([argv[0], str(small), *argv[1:]]) == 0
    capsys.readouterr()


def test_library_never_expands_an_alternating_word(monkeypatch, capsys, tmp_path):
    # a braided leaf's central word z = Pi(s, q, label) is held in closed
    # form: the decomposition's presentation reads it as r^(label/2) and as
    # the centre z without its letters
    def refuse(self):
        raise AssertionError("alternating word expanded")

    monkeypatch.setattr(_Alternating, "letters", property(refuse))
    from artin.cli import main

    for big in (10**9, 10**9 + 1):
        for label in (big, 2 * big):  # 10^9 + 1 is an odd leaf, 2 * big a braided one
            path = tmp_path / f"star{label}.graph"
            path.write_text(f"e p s 3\ne q s {label}\ne r s 2\n")
            commands = [["abelianize", "--of-jsj"], ["profile"]]
            if label % 2 == 0:  # an odd leaf's relator prints its 2 * label letters
                commands += [["presentation", "--of-jsj"], ["presentation", "--of-jsj", "--simplify"]]
            for argv in commands:
                for extra in ([], ["--json"]):
                    assert main([argv[0], str(path), *argv[1:], *extra]) == 0, (label, argv, extra)
                    out = capsys.readouterr().out
                    if argv[0] == "presentation" and not extra:
                        assert f"rel: z_q_s r_s_q^-{label // 2}\n" in out


def _random_unit_word(rng, names, units):
    letters = []
    while units > 0:
        e = min(units, rng.choice((1, 1, 2, 3)))
        letters.append((rng.choice(names), e if rng.random() < 0.5 else -e))
        units -= e
    return Word(tuple(letters))


def _split_runs(rng, w):
    """The same unit sequence with its runs cut or merged at random."""
    units = list(w.units())
    letters = []
    for name, sign in units:
        same_run = letters and letters[-1][0] == name and (letters[-1][1] > 0) == (sign > 0)
        if same_run and rng.random() < 0.5:
            letters[-1] = (name, letters[-1][1] + sign)
        else:
            letters.append((name, sign))
    return Word(tuple(letters))


def test_power_of_matches_unit_comparison_oracle():
    rng = random.Random(31)
    pairs = [("a a", "a^2"), ("a^2", "a"), ("", "a"), ("a", ""), ("", ""), ("a^-2 b^-1", "b a^2"),
             ("a b a b", "a b"), ("b^-1 a^-1 b^-1 a^-1", "a b"), ("a^3 a^-3", "a a^-1")]
    cases = [(Word.from_text(w), Word.from_text(base)) for w, base in pairs]
    for _ in range(400):
        base = _random_unit_word(rng, "ab", rng.randint(1, 6))
        k = rng.choice((1, 2, 3, 5, -1, -2, -4))
        w = _split_runs(rng, base ** k)
        cases.append((w, _split_runs(rng, base)))
        cases.append((Word(w.letters + (("a", 1),)), base))
        cases.append((_split_runs(rng, base ** -k), base))
        cases.append((_random_unit_word(rng, "abc", rng.randint(1, 12)), base))
    # alternating words in closed form, as either argument, against their letters
    for _ in range(400):
        u, v = rng.choice(("ab", "ba", "aa")), rng.choice(("ab", "ba", "aa", "ac"))
        x = alternating(*u, rng.randint(0, 8)) ** rng.choice((1, -1))
        y = alternating(*v, rng.randint(0, 4)) ** rng.choice((1, -1))
        w = x ** rng.choice((1, 2, 3, -1, -2))
        cases += [(w, y), (w, x), (y, w), (w, Word(y.letters)), (Word(w.letters), y)]
    hits = 0
    for w, base in cases:
        want = oracle_power_of(w, base)
        assert _power_of(w, base) == want, (w, base)
        hits += want not in (None, 0)
    assert hits > 1000
