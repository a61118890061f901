import random

import pytest

from artin import (
    AbelianShape,
    Presentation,
    Word,
    abelianize,
    artin_presentation,
    build_jsj,
    collapse_jsj,
    gog_presentation,
    odd_components,
    parse_presentation,
    render_presentation,
    simplify_identifications,
    smith_normal_form,
)

from corpus import connected_atlas, path3, random_connected_graph, triangle
from oracles import oracle_invariant_factors


def test_artin_presentation_path3():
    pres = artin_presentation(path3())
    assert pres.generators == ("a", "b", "c")
    assert [r.to_text() for r in pres.relators] == [
        "a b a b^-1 a^-1 b^-1",
        "b c b^-1 c^-1",
    ]


def test_render_parse_round_trip():
    pres = artin_presentation(triangle())
    text = render_presentation(pres)
    back = parse_presentation(text)
    assert back == pres
    assert text.splitlines()[0].startswith("gen:")


def test_presentation_validates_support():
    with pytest.raises(Exception):
        Presentation(("a",), (Word.from_text("a b"),))


def test_snf_frozen_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == (2, 2, 156)
    assert smith_normal_form([[1]]) == (1,)
    assert smith_normal_form([[6, 4]]) == (2,)
    assert smith_normal_form([[6], [4]]) == (2,)


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


def test_gog_presentation_requires_connected_base():
    gog = build_jsj(path3())
    broken = type(gog)(gog.vertices, (), graph=gog.graph, legend=gog.legend)
    with pytest.raises(Exception):
        gog_presentation(broken)
