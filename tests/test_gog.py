import random
from dataclasses import replace

import pytest

from artin import (
    NoJsjExistsError,
    PreconditionError,
    Word,
    big_chunks,
    build_jsj,
    collapse_jsj,
    dihedral_jsj,
    gog_presentation,
    parse_graph,
    profile,
    simplify_identifications,
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
    betti_number,
)
from artin.graphs import CHUNK_BRAIDED_LEAF, CHUNK_TORAL_LEAF

from corpus import connected_atlas, fan_graph, path3, random_connected_graph, triangle
from oracles import oracle_dihedral_jsj_certificate


def test_fan_jsj_structure():
    gog = build_jsj(fan_graph())
    ids = [v.id for v in gog.vertices]
    assert ids == ["B_a_b", "B_a_d", "B_a_c_e", "W_a", "R_a_d"]
    colors = {v.id: v.color for v in gog.vertices}
    assert colors["W_a"] == WHITE and colors["R_a_d"] == RED
    assert all(colors[i] == BLACK for i in ("B_a_b", "B_a_d", "B_a_c_e"))
    assert [e.ends for e in gog.edges] == [
        ("W_a", "B_a_b"),
        ("W_a", "B_a_d"),
        ("W_a", "B_a_c_e"),
        ("B_a_d", "R_a_d"),
        ("B_a_b", "B_a_b"),
    ]

    by_id = {v.id: v for v in gog.vertices}
    # the toral leaf {a, b} is <a> with a loop, the braided leaf {a, d} is <a, z>
    assert by_id["B_a_b"].group == CyclicOnGenerator("a")
    assert isinstance(by_id["B_a_d"].group, FreeAbelianPair)
    assert by_id["B_a_d"].group.base == "a"
    assert by_id["B_a_d"].group.central.to_text() == "a d a d a d"
    assert isinstance(by_id["B_a_c_e"].group, ChunkParabolic)

    loops = gog.loops()
    assert len(loops) == 1 and loops[0].stable_letter == "b"
    assert loops[0].ends == ("B_a_b", "B_a_b")
    red_edges = [e for e in gog.edges if "R_a_d" in e.ends]
    assert len(red_edges) == 1
    inj = red_edges[0].injections
    assert inj[0].to_text() == "a d a d a d"
    assert inj[1].to_text() == "a d a d a d"
    assert red_edges[0].edge_group.word.to_text() == "a d a d a d"
    assert betti_number(gog) == 1


def test_jsj_without_leaves_is_bipartite():
    g = parse_graph("e a b 3\ne b c 5\ne c d 3\n")
    gog = build_jsj(g)
    assert not gog.loops()
    assert all(v.color in (BLACK, WHITE) for v in gog.vertices)
    for e in gog.edges:
        c0 = gog.vertex(e.ends[0]).color
        c1 = gog.vertex(e.ends[1]).color
        assert {c0, c1} == {BLACK, WHITE}


def test_collapse_structure_and_idempotence():
    gog = build_jsj(fan_graph())
    flat = collapse_jsj(gog)
    assert [v.id for v in flat.vertices] == ["B_a_b", "B_a_d", "B_a_c_e", "W_a"]
    assert all(
        isinstance(v.group, ChunkParabolic) for v in flat.vertices if v.color == BLACK
    )
    assert len(flat.edges) == 3
    assert not flat.loops()
    again = collapse_jsj(flat)
    assert [v.id for v in again.vertices] == [v.id for v in flat.vertices]
    assert len(again.edges) == len(flat.edges)


def test_betti_equals_toral_leaf_count_on_corpus():
    rng = random.Random(33)
    graphs = [g for g in connected_atlas(6) if len(g.vertices) >= 3]
    graphs += [random_connected_graph(rng, rng.randint(3, 7)) for _ in range(60)]
    for g in graphs:
        gog = build_jsj(g)
        toral = sum(
            1
            for c in big_chunks(g).classes()
            if c.kind == CHUNK_TORAL_LEAF
        )
        assert betti_number(gog) == toral
        assert betti_number(collapse_jsj(gog)) == 0
        # profile reads the Betti number off the block-cut tree instead
        assert profile(g).betti == betti_number(gog)


def test_betti_number_requires_connected_base():
    gog = build_jsj(path3())
    broken = type(gog)(gog.vertices, (), graph=gog.graph, legend=gog.legend)
    empty = type(gog)((), ())
    for base in (broken, empty):
        for call in (betti_number, gog_presentation):
            with pytest.raises(PreconditionError, match="disconnected base"):
                call(base)
    # the base is searched before any vertex group is expanded
    groupless = tuple(replace(v, group=None) for v in gog.vertices)
    with pytest.raises(PreconditionError, match="disconnected base"):
        gog_presentation(type(gog)(groupless, (), graph=gog.graph))


def test_presentation_refuses_missing_groups_and_injections():
    # a hand-built graph of groups may leave out what build_jsj always sets
    gog = build_jsj(path3())
    vertices = list(gog.vertices)
    vertices[0] = replace(vertices[0], group=None)
    with pytest.raises(PreconditionError, match="unknown group descriptor None"):
        gog_presentation(type(gog)(tuple(vertices), gog.edges, graph=gog.graph))
    edges = list(gog.edges)
    edges[-1] = replace(edges[-1], injections=None)
    with pytest.raises(PreconditionError, match="carries no injections"):
        gog_presentation(type(gog)(gog.vertices, tuple(edges), graph=gog.graph))


def test_preconditions():
    with pytest.raises(PreconditionError):
        build_jsj(parse_graph("e a b 4\n"))
    with pytest.raises(Exception):
        build_jsj(parse_graph("e a b 3\nv z\n"))


def test_dihedral_jsj_shapes():
    odd = dihedral_jsj(5)
    assert [v.id for v in odd.vertices] == ["B_x", "B_y"]
    assert len(odd.edges) == 1 and not odd.loops()
    inj = odd.edges[0].injections
    assert inj[0].to_text() == "x^2" and inj[1].to_text() == "y^5"

    even = dihedral_jsj(6)
    assert [v.id for v in even.vertices] == ["B_y"]
    assert len(even.edges) == 1 and even.edges[0].is_loop
    assert even.edges[0].stable_letter == "x"
    inj = even.edges[0].injections
    assert inj[0].to_text() == "y^3" and inj[1].to_text() == "y^3"

    legend = dict(odd.legend)
    assert legend["x"].to_text() == "a b a b a"
    assert legend["y"].to_text() == "a b"


@pytest.mark.parametrize("n", [*range(3, 41), 1000, 1001])
def test_dihedral_jsj_presents_the_dihedral_artin_group(n):
    # inverse maps between the JSJ's presentation and the Artin group's
    jsj = dihedral_jsj(n)
    verdicts = oracle_dihedral_jsj_certificate(n, gog_presentation(jsj), jsj.legend)
    assert all(verdicts.values()), verdicts


def test_dihedral_jsj_rejects_small_labels():
    with pytest.raises(NoJsjExistsError):
        dihedral_jsj(2)
    with pytest.raises(PreconditionError):
        dihedral_jsj(1)


def test_generator_coverage_after_simplify():
    rng = random.Random(7)
    graphs = [fan_graph(), path3(), triangle()]
    graphs += [random_connected_graph(rng, rng.randint(3, 7)) for _ in range(40)]
    for g in graphs:
        decomp = big_chunks(g)
        tips = {
            cls.tip
            for cls in decomp.classes()
            if cls.kind == CHUNK_BRAIDED_LEAF
        }
        pres = simplify_identifications(gog_presentation(build_jsj(g)))
        expected = set(g.vertices) - tips
        extras = {n for n in pres.generators if n.startswith(("z_", "r_"))}
        assert set(pres.generators) == expected | extras
        assert len(extras) == 2 * len(tips)


def test_dot_output_mentions_structure():
    dot = build_jsj(fan_graph()).to_dot()
    assert "fillcolor=black" in dot
    assert "fillcolor=red" in dot
    assert "r^3 = z" in dot
    assert "stable letter b" in dot
    assert dot.startswith("graph gog {") and dot.rstrip().endswith("}")


@pytest.mark.parametrize("injection, label", [
    ("a b a b", 'label="r^2 = z"'),
    ("b^-1 a^-1", 'label="r^-1 = z"'),
    ("a b a", None),
])
def test_dot_red_label_reads_the_power_the_presentation_reads(injection, label):
    # m in r^m = z is the exponent gog_presentation embeds, and no label
    # is printed when the injection is no power of the red word
    word = Word.from_text(injection)
    red = GoGVertex("R", RED, CyclicOnWord(Word.from_text("a b")))
    pair = GoGVertex("F", BLACK, FreeAbelianPair("a", word))
    gog = GraphOfGroups((pair, red), (GoGEdge(("F", "R"), CyclicOnWord(word), (word, word)),))
    edge = gog.to_dot().splitlines()[-2]
    if label is None:
        assert edge == '  "F" -- "R";'
        with pytest.raises(PreconditionError, match="^'a b a' is not a power of a b$"):
            gog_presentation(gog)
    else:
        assert edge == f'  "F" -- "R" [{label}];'
        gog_presentation(gog)


def test_json_shape():
    d = build_jsj(path3()).to_json_dict()
    assert set(d) == {"vertices", "edges", "betti"}
    assert d["betti"] == 1
    kinds = {v["color"] for v in d["vertices"]}
    assert kinds == {"black", "white"}
    for e in d["edges"]:
        assert set(e) == {"ends", "edge_group", "injections", "stable_letter"}
