import enum
import json
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

import artin.cli
from artin import (
    Word, alternating, artin_abelianization, artin_presentation, build_jsj, collapse_jsj, errors,
    normal_form, parse_graph,
)
from artin.cli import _build_parser, _json_pieces, _word_text, main
from artin.dihedral import ROOT_SEARCH_MAX_DEGREE, ROOT_SEARCH_MAX_PUSHES
from artin.words import _Alternating, _Pairs

from corpus import FAN_TEXT, random_connected_graph
from oracles import oracle_normal_form_text


@pytest.fixture
def fan_file(tmp_path):
    p = tmp_path / "fan.graph"
    p.write_text(FAN_TEXT)
    return str(p)


@pytest.fixture
def path_file(tmp_path):
    p = tmp_path / "p3.graph"
    p.write_text("e a b 3\ne b c 2\n")
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    if "--json" in argv and code == 0:
        # the bytes of json.dumps(..., indent=2), not merely equal JSON
        assert out.out == json.dumps(json.loads(out.out), indent=2) + "\n"
    return code, out.out, out.err


def test_validate_text_and_json(capsys, fan_file):
    code, out, _ = _run(capsys, ["validate", fan_file])
    assert code == 0
    assert "5 vertices" in out and "connected" in out

    code, out, _ = _run(capsys, ["validate", fan_file, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["a", "b", "c", "d", "e"]
    assert data["connected"] is True


def test_chunks_output(capsys, fan_file):
    code, out, _ = _run(capsys, ["chunks", fan_file])
    assert code == 0
    assert "chunk 0: {a,b} ToralLeaf(2, tip=b)" in out
    assert "chunk 1: {a,d} BraidedLeaf(6, tip=d)" in out
    assert "chunk 2: {a,c,e} BigBig" in out
    assert "separating: a" in out

    code, out, _ = _run(capsys, ["chunks", fan_file, "--json"])
    data = json.loads(out)
    assert data["separating"] == ["a"]
    assert len(data["chunks"]) == 3


def test_split_output(capsys, path_file):
    code, out, _ = _run(capsys, ["split", path_file, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "VisualSplit"
    assert data["witness"]["vertex"] == "b"
    assert data["ends"] == "OneEnded"

    code, out, _ = _run(capsys, ["split", path_file])
    assert code == 0
    assert out == (
        "verdict: VisualSplit\nends: OneEnded\n"
        "witness: amalgam over <b> of the parabolics on {a,b} and {b,c}\n"
    )


def test_split_of_one_edge_has_its_label_as_witness(capsys, tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text("e a b 5\n")
    assert _run(capsys, ["split", str(path)]) == (0, (
        "verdict: DihedralSplit\nends: OneEnded\nwitness: single edge with label 5\n"
    ), "")
    code, out, _ = _run(capsys, ["split", str(path), "--json"])
    assert code == 0
    assert json.loads(out) == {"verdict": "DihedralSplit", "witness": {"label": 5}, "ends": "OneEnded"}


def test_jsj_text_json_and_dot(capsys, tmp_path, fan_file):
    code, out, _ = _run(capsys, ["jsj", fan_file])
    assert code == 0
    assert "black vertex B_a_c_e" in out
    assert "betti: 1" in out

    code, out, _ = _run(capsys, ["jsj", fan_file, "--json"])
    data = json.loads(out)
    assert data["betti"] == 1
    assert len(data["vertices"]) == 5

    dot_path = tmp_path / "fan.dot"
    assert _run(capsys, ["jsj", fan_file, "--dot", str(dot_path)]) == (0, f"wrote {dot_path}\n", "")
    dot = dot_path.read_text()
    assert dot.startswith("graph gog {") and "stable letter b" in dot
    assert _run(capsys, ["jsj", fan_file, "--dot", "-"]) == (0, dot, "")

    code, out, _ = _run(capsys, ["jsj", fan_file, "--collapsed", "--json"])
    data = json.loads(out)
    assert data["betti"] == 0
    assert len(data["vertices"]) == 4


def test_jsj_text_is_to_text(capsys, tmp_path):
    # main writes the decomposition's text pieces; to_text joins the same pieces
    rng = random.Random(30)
    graphs = [parse_graph(FAN_TEXT)] + [random_connected_graph(rng, rng.randint(3, 7)) for _ in range(8)]
    for i, g in enumerate(graphs):
        p = tmp_path / f"g{i}.graph"
        p.write_text(g.to_text())
        gog = build_jsj(g)
        assert _run(capsys, ["jsj", str(p)]) == (0, gog.to_text(), ""), i
        assert _run(capsys, ["jsj", str(p), "--collapsed"]) == (0, collapse_jsj(gog).to_text(), ""), i


def test_dihedral_jsj_text(capsys):
    code, out, _ = _run(capsys, ["dihedral-jsj", "3"])
    assert code == 0
    assert "rel: x^2 y^-3" in out
    assert "where x = a b a" in out
    assert "where y = a b" in out

    code, out, _ = _run(capsys, ["dihedral-jsj", "6", "--json"])
    data = json.loads(out)
    assert data["presentation"]["relators"] == ["x y^3 x^-1 y^-3"]


def _output_and_peak(monkeypatch, argv) -> tuple[int, int]:
    """The characters ``main(argv)`` writes, and its tracemalloc peak."""
    class Sink:
        chars = 0

        def writelines(self, pieces):
            for piece in pieces:
                self.chars += len(piece)

        def write(self, piece):
            self.chars += len(piece)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sink.chars, peak


def test_dihedral_jsj_prints_its_legend_in_its_output_plus_a_constant(monkeypatch):
    # x = Pi(a, b, n) is 2n characters: it is built once, in pieces, and
    # written in slices, never joined into its line or encoded whole
    for label in (100001, 1000001):
        chars, peak = _output_and_peak(monkeypatch, ["dihedral-jsj", str(label)])
        assert chars > 2 * label and peak - chars < 1 << 20, (label, chars, peak)


def test_jsj_prints_a_braided_leaf_z_in_its_output_plus_a_constant(monkeypatch, tmp_path):
    # z = Pi(s, q, L) is 2L characters and printed four times as text and
    # JSON, in its vertex, its edge group and both images, and once in DOT:
    # each line is written in pieces, z's kept pieces among them, never
    # copied into the line. The Artin relator of a-b L is 7L characters in
    # a presentation, text or JSON, spliced in the same way
    for label in (100002, 1000002):
        star = tmp_path / f"star{label}.graph"
        star.write_text(f"e p s 3\ne q s {label}\ne r s 2\n")
        edge = tmp_path / f"edge{label}.graph"
        edge.write_text(f"e a b {label}\n")
        for argv, least in (
            (["jsj", str(star)], 8 * label), (["jsj", str(star), "--json"], 8 * label),
            (["jsj", str(star), "--dot", "-"], 2 * label),
            (["presentation", str(edge)], 7 * label),
            (["presentation", str(edge), "--json"], 7 * label),
        ):
            chars, peak = _output_and_peak(monkeypatch, argv)
            assert chars > least and peak - chars < 1 << 20, (argv, chars, peak)


@pytest.mark.parametrize("argv", [
    ["jsj", "FAN", "--dot", "PATH", "--json"],
    ["jsj", "FAN", "--json", "--collapsed", "--dot", "-"],
    ["dihedral-jsj", "5", "--dot", "-", "--json"],
    ["dihedral-jsj", "5", "--json", "--dot", "PATH"],
])
def test_json_and_dot_are_refused_together(capsys, tmp_path, fan_file, argv):
    # one rendering per run: the pair is a usage error, and no file is written
    dot_path = tmp_path / "out.dot"
    argv = [{"FAN": fan_file, "PATH": str(dot_path)}.get(a, a) for a in argv]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    _assert_one_error_line(argv, out, err)
    assert "not allowed with argument" in err and not dot_path.exists()


def test_dihedral_jsj_dot(capsys, tmp_path):
    dot = (
        'graph gog {\n'
        '  "B_x" [label="<x>", style=filled, fillcolor=black, fontcolor=white];\n'
        '  "B_y" [label="<y>", style=filled, fillcolor=black, fontcolor=white];\n'
        '  "B_x" -- "B_y";\n'
        '}\n'
    )
    assert _run(capsys, ["dihedral-jsj", "5", "--dot", "-"]) == (0, dot, "")
    path = tmp_path / "d5.dot"
    assert _run(capsys, ["dihedral-jsj", "5", "--dot", str(path)]) == (0, f"wrote {path}\n", "")
    assert path.read_text() == dot


def test_dihedral_jsj_label_two_fails(capsys):
    code, _, err = _run(capsys, ["dihedral-jsj", "2"])
    assert code == 2
    assert "error" in err


FAN_JSJ_TEXT = """\
black vertex B_a_b: <a>
black vertex B_a_d: <a, a d a d a d>
black vertex B_a_c_e: <a, c, e>
white vertex W_a: <a>
red vertex R_a_d: <a d>
edge W_a -- B_a_b: <a> with images a, a
edge W_a -- B_a_d: <a> with images a, a
edge W_a -- B_a_c_e: <a> with images a, a
edge B_a_d -- R_a_d: <a d a d a d> with images a d a d a d, a d a d a d
edge B_a_b -- B_a_b: <a> with images a, a (stable letter b)
betti: 1
"""
DIHEDRAL_JSJ_6_TEXT = """\
black vertex B_y: <y>
edge B_y -- B_y: <y^3> with images y^3, y^3 (stable letter x)
betti: 1
where x = a
where y = a b
presentation: gen: x y
rel: x y^3 x^-1 y^-3
"""


def _on_generator(name):
    return {"kind": "cyclic_on_generator", "generator": name}


def _vertex(vid, color, group):
    return {"id": vid, "color": color, "group": group}


def _edge(ends, group, images, stable=None):
    return {"ends": list(ends), "edge_group": group, "injections": list(images),
            "stable_letter": stable}


def _parabolic(*names):
    return {"kind": "chunk_parabolic", "vertices": list(names)}


A_EDGES = [
    _edge(("W_a", b), _on_generator("a"), ["a", "a"]) for b in ("B_a_b", "B_a_d", "B_a_c_e")
]
FAN_JSJ_JSON = {
    "vertices": [
        _vertex("B_a_b", "black", _on_generator("a")),
        _vertex("B_a_d", "black",
                {"kind": "free_abelian_pair", "base": "a", "central": "a d a d a d"}),
        _vertex("B_a_c_e", "black", _parabolic("a", "c", "e")),
        _vertex("W_a", "white", _on_generator("a")),
        _vertex("R_a_d", "red", {"kind": "cyclic_on_word", "word": "a d"}),
    ],
    "edges": A_EDGES + [
        _edge(("B_a_d", "R_a_d"), {"kind": "cyclic_on_word", "word": "a d a d a d"},
              ["a d a d a d"] * 2),
        _edge(("B_a_b", "B_a_b"), _on_generator("a"), ["a", "a"], "b"),
    ],
    "betti": 1,
}
FAN_COLLAPSED_JSON = {
    "vertices": [
        _vertex("B_a_b", "black", _parabolic("a", "b")),
        _vertex("B_a_d", "black", _parabolic("a", "d")),
        _vertex("B_a_c_e", "black", _parabolic("a", "c", "e")),
        _vertex("W_a", "white", _on_generator("a")),
    ],
    "edges": A_EDGES,
    "betti": 0,
}
DIHEDRAL_JSJ_5_JSON = {
    "vertices": [_vertex("B_x", "black", _on_generator("x")),
                 _vertex("B_y", "black", _on_generator("y"))],
    "edges": [_edge(("B_x", "B_y"), {"kind": "cyclic_on_word", "word": "x^2"}, ["x^2", "y^5"])],
    "betti": 0,
    "presentation": {"generators": ["x", "y"], "relators": ["x^2 y^-5"]},
}


def test_gog_output_bytes_are_pinned(capsys, fan_file):
    # every descriptor kind, as text and as JSON, byte for byte
    cases = [
        (["jsj", fan_file], FAN_JSJ_TEXT),
        (["jsj", fan_file, "--json"], json.dumps(FAN_JSJ_JSON, indent=2) + "\n"),
        (["jsj", fan_file, "--collapsed", "--json"],
         json.dumps(FAN_COLLAPSED_JSON, indent=2) + "\n"),
        (["dihedral-jsj", "5", "--json"], json.dumps(DIHEDRAL_JSJ_5_JSON, indent=2) + "\n"),
        (["dihedral-jsj", "6"], DIHEDRAL_JSJ_6_TEXT),
    ]
    for argv, expected in cases:
        assert _run(capsys, argv) == (0, expected, ""), argv


def test_abelianize_both_sources_agree(capsys, fan_file):
    code, out1, _ = _run(capsys, ["abelianize", fan_file])
    assert code == 0 and out1.startswith("Z^4")
    code, out2, _ = _run(capsys, ["abelianize", fan_file, "--of-jsj"])
    assert code == 0 and out2.startswith("Z^4")

    for flags, source in (([], "vertex presentation"),
                          (["--of-jsj"], "fundamental group of the decomposition")):
        code, out, _ = _run(capsys, ["abelianize", fan_file, *flags, "--json"])
        assert code == 0
        assert json.loads(out) == {
            "source": source,
            "abelianization": {"free_rank": 4, "torsion": []},
        }


def test_presentation_simplify(capsys, path_file):
    code, out, _ = _run(
        capsys, ["presentation", path_file, "--of-jsj", "--simplify", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["a", "b", "c"]
    assert "a b a b^-1 a^-1 b^-1" in data["relators"]


def test_presentation_simplify_leaves_the_artin_presentation(capsys, tmp_path, fan_file):
    # the vertex presentation has no identification relator to eliminate
    edge = tmp_path / "edge.graph"
    edge.write_text("e a b 1000001\n")
    for path in (fan_file, str(edge)):
        for flags in ([], ["--json"]):
            plain = _run(capsys, ["presentation", path, *flags])
            assert plain[0] == 0
            assert _run(capsys, ["presentation", path, "--simplify", *flags]) == plain


def test_profile_and_compare(capsys, tmp_path, fan_file):
    code, out, _ = _run(capsys, ["profile", fan_file, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["chunk_count"] == 3

    other = tmp_path / "other.graph"
    other.write_text("e a b 5\n")
    code, out, _ = _run(capsys, ["compare", fan_file, str(other), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NonIsomorphic"
    assert "ChunkCountMismatch" in data["reasons"]

    code, out, _ = _run(capsys, ["compare", fan_file, str(other)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: NonIsomorphic"
    assert [line for line in lines if line.startswith("reason: ")] == [
        f"reason: {r}" for r in data["reasons"]
    ]
    assert [line for line in lines if line.startswith("note: ")] == [
        f"note: {n}" for n in data["notes"]
    ]
    assert len(lines) == 1 + len(data["reasons"]) + len(data["notes"])


def test_acylindrical(capsys, path_file):
    code, out, _ = _run(capsys, ["acylindrical", path_file])
    assert code == 0
    assert "acylindrically hyperbolic: yes" in out
    assert "witness: (b, a)" in out

    code, out, _ = _run(capsys, ["acylindrical", path_file, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["acylindrically_hyperbolic"] is True
    assert data["witness"] == ["b", "a"]
    assert data["reason"].startswith("separating vertex b and vertex a generate")


def test_acylindrical_without_the_criterion_claims_nothing(capsys, tmp_path):
    # the (3,3,3) triangle has no separating vertex, and the criterion is
    # only sufficient: the answer is open, not "no"
    p = tmp_path / "triangle.graph"
    p.write_text("e a b 3\ne b c 3\ne a c 3\n")
    code, out, _ = _run(capsys, ["acylindrical", str(p)])
    assert code == 0
    assert out == (
        "acylindrically hyperbolic: not established\n"
        "reason: no separating vertex (assuming torsion-free)\n"
    )
    code, out, _ = _run(capsys, ["acylindrical", str(p), "--json"])
    assert code == 0 and json.loads(out)["acylindrically_hyperbolic"] is False


def test_dihedral_nf_and_eq(capsys):
    code, out, _ = _run(capsys, ["dihedral-nf", "3", "a b a"])
    assert code == 0 and out.strip() == "x"

    code, out, _ = _run(capsys, ["dihedral-eq", "3", "a b a", "b a b"])
    assert code == 0 and out.strip() == "equal"
    code, out, _ = _run(capsys, ["dihedral-eq", "3", "a b", "b a"])
    assert code == 0 and out.strip() == "different"

    code, out, _ = _run(capsys, ["dihedral-nf", "3", "a b a", "--json"])
    assert code == 0
    assert json.loads(out) == {"label": 3, "central": 0, "syllables": [["x", 1]]}
    code, out, _ = _run(capsys, ["dihedral-nf", "2", "a b a^-1", "--json"])
    assert code == 0
    assert json.loads(out) == {"label": 2, "a_exp": 0, "b_exp": 1}
    for u, v, equal in (("a b a", "b a b", True), ("a b", "b a", False)):
        code, out, _ = _run(capsys, ["dihedral-eq", "3", u, v, "--json"])
        assert code == 0 and json.loads(out) == {"equal": equal}


NORMAL_FORM_BYTES = [
    # odd, central exponent 1: the c^k prefix keeps its exponent
    (3, "a b a b a b a b", "c^1 y", {"label": 3, "central": 1, "syllables": [["y", 1]]}),
    # even: the centre z = y^2 folds into the trailing y, 2 * 2 + 1 = 5
    (4, "a b a b a b a^-2 b a b a b", "y x^-3 y^5",
     {"label": 4, "central": 2, "syllables": [["y", 1], ["x", -3], ["y", 1]]}),
    (2, "a^2 b^-3 a", "a^3 b^-3", {"label": 2, "a_exp": 3, "b_exp": -3}),
    (3, "a b a b^-1 a^-1 b^-1", "1", {"label": 3, "central": 0, "syllables": []}),
]


@pytest.mark.parametrize("label, word, text, payload", NORMAL_FORM_BYTES)
def test_dihedral_nf_text_and_json_bytes(capsys, label, word, text, payload):
    assert str(normal_form(label, Word.from_text(word))) == text
    assert _run(capsys, ["dihedral-nf", str(label), word]) == (0, text + "\n", "")
    assert _run(capsys, ["dihedral-nf", str(label), word, "--json"]) == (
        0, json.dumps(payload, indent=2) + "\n", ""
    )


@pytest.mark.parametrize("n", [3, 4, 7, 1000, 1001])
def test_dihedral_nf_prints_the_oracle_text(capsys, n):
    rng = random.Random(n + 5)
    exponents = (1, -1, 1, -1, 2, -2, 3, -3, 40, -40)
    for k in (10, 100, 1000, 10_000):
        w = Word(tuple((rng.choice("ab"), rng.choice(exponents)) for _ in range(k)))
        text = oracle_normal_form_text(n, w)
        assert _run(capsys, ["dihedral-nf", str(n), w.to_text()]) == (0, text + "\n", ""), (n, k)


def test_retract(capsys, fan_file):
    code, out, _ = _run(capsys, ["retract", fan_file, "2", "a b c"])
    assert code == 0 and out.strip() == "a a c"
    code, out, _ = _run(capsys, ["retract", fan_file, "2", "a b c", "--json"])
    assert code == 0 and json.loads(out) == {"word": "a a c"}

    code, _, err = _run(capsys, ["retract", fan_file, "9", "a"])
    assert code == 2 and "out of range" in err


def test_retract_refuses_a_letter_that_is_not_a_vertex(capsys, path_file):
    argv = ["retract", path_file, "0", "a x"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    _assert_one_error_line(argv, out, err)
    assert err == "error: letter 'x' is not a vertex of the graph\n"


def test_root_search(capsys):
    code, out, _ = _run(capsys, ["root-search", "4", "3", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["counterexamples"] == []

    assert _run(capsys, ["root-search", "4", "3", "3"]) == (0, (
        "no counterexamples: no primitive element of <a, z> has a root of degree"
        " 3..3 among words up to length 3\n"
    ), "")


def test_root_search_negative_length(capsys):
    for extra in ([], ["--json"]):
        code, out, err = _run(capsys, ["root-search", "4", "-1", "5"] + extra)
        assert (code, out, err) == (2, "", "error: word length must be nonnegative, got -1\n")


def test_root_search_empty_degree_range(capsys):
    for args in (["4", "3", "2"], ["4", "3", "0"], ["6", "2", "-5"]):
        for extra in ([], ["--json"]):
            code, out, err = _run(capsys, ["root-search", *args] + extra)
            low = int(args[0]) // 2 + 1
            assert (code, out) == (2, "")
            assert err.startswith(f"error: degree range {low}..{args[2]} is empty"), err


def test_root_search_prints_its_counterexamples(capsys, monkeypatch):
    # no search has found one, so the rendering of hits is pinned on made-up ones
    hits = [(Word.from_text("a z^-1"), 3, (1, -2)), (alternating("a", "z", 4), 2, (0, 1))]
    monkeypatch.setattr(artin.cli, "root_bound_search", lambda *args: hits)
    assert _run(capsys, ["root-search", "4", "3", "3"]) == (0, (
        "counterexample: (a z^-1)^3 = a^1 z^-2\ncounterexample: (a z a z)^2 = a^0 z^1\n"), "")
    code, out, _ = _run(capsys, ["root-search", "4", "3", "3", "--json"])
    assert code == 0 and json.loads(out)["counterexamples"] == [
        {"word": "a z^-1", "degree": 3, "a_exp": 1, "z_exp": -2},
        {"word": "a z a z", "degree": 2, "a_exp": 0, "z_exp": 1},
    ]


def test_root_search_length_cap(capsys):
    message = "error: word length 11 is above the root search cap ROOT_SEARCH_MAX_LEN = 10\n"
    for extra in ([], ["--json"]):
        code, out, err = _run(capsys, ["root-search", "4", "11", "5"] + extra)
        assert (code, out, err) == (2, "", message)


def test_root_search_degree_cap(capsys):
    # each degree pushes w once more, so a degree of 10^12 would run for weeks;
    # above the cap the search is refused before it starts, at any label
    cap = ROOT_SEARCH_MAX_DEGREE
    assert cap == 10**5  # as the README's root-search row reads
    for argv in (["4", "1", str(10**12)], ["4", "1", str(cap + 1)], [str(10**30), "3", str(10**30 + 2)]):
        message = f"error: degree {argv[2]} is above the root search cap ROOT_SEARCH_MAX_DEGREE = {cap}\n"
        for extra in ([], ["--json"]):
            assert _run(capsys, ["root-search", *argv] + extra) == (2, "", message), argv
    code, out, err = _run(capsys, ["root-search", "4", "1", str(cap)])
    assert (code, err) == (0, "") and out.startswith("no counterexamples:")


def test_root_search_push_cap(capsys, monkeypatch):
    # each word of a distinct normal form is pushed DEG times, so the two caps
    # alone would allow 5 * 10^9 pushes; the product has a cap of its own
    cap = ROOT_SEARCH_MAX_PUSHES
    assert cap == 10**6  # as the README's root-search row reads
    # the refusal comes as soon as the forms kept so far pass the cap: at the
    # 11th distinct form for DEG 10^5, at the 1,001st for DEG 1000
    for argv, pushes in ((["4", "10", "100000"], 1100000), (["4", "6", "1000"], 1001000)):
        message = (f"error: word length {argv[1]} and degree {argv[2]} need at least {pushes}"
                   f" pushes, above the root search cap ROOT_SEARCH_MAX_PUSHES = {cap}\n")
        for extra in ([], ["--json"]):
            assert _run(capsys, ["root-search", *argv] + extra) == (2, "", message), argv
    # at the cap the search runs: LEN 4 has 152 distinct forms of its 160 words,
    # so 152 * 5 = 760 pushes, though the 160 words would count 800
    monkeypatch.setattr(artin.dihedral, "ROOT_SEARCH_MAX_PUSHES", 760)
    for extra in ([], ["--json"]):
        code, out, err = _run(capsys, ["root-search", "4", "4", "5"] + extra)
        assert (code, err) == (0, "") and out, extra
    monkeypatch.setattr(artin.dihedral, "ROOT_SEARCH_MAX_PUSHES", 759)
    message = ("error: word length 4 and degree 5 need at least 760 pushes,"
               " above the root search cap ROOT_SEARCH_MAX_PUSHES = 759\n")
    for extra in ([], ["--json"]):
        assert _run(capsys, ["root-search", "4", "4", "5"] + extra) == (2, "", message), extra


def _random_payload(rng, depth):
    leaves = [True, False, None, 0, 1, -7, 10**30, 1.0, 0.5, -2.25, 1e300, "", "x",
              'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "caf\u00e9 \u2203 \U0001f600"]
    kind = rng.randrange(5) if depth < 4 else 0
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return {rng.choice(leaves[11:]) + str(i): _random_payload(rng, depth + 1)
                for i in range(rng.randrange(4))}
    if kind == 2:
        return [_random_payload(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 3:  # tuples that repeat, some of them equal but typed apart
        pool = [(rng.choice("xy"), rng.choice([1, True, 1.0, 2, None])) for _ in range(3)]
        return [rng.choice(pool) for _ in range(rng.randrange(8))]
    return tuple(_random_payload(rng, depth + 1) for _ in range(rng.randrange(4)))


def test_json_writer_matches_json_dumps():
    explicit = [
        [("x", 1), ("x", True)], [("x", True), ("x", 1)], [1, True, 1.0], [(1,), (True,), (1.0,)],
        [], {}, [[]], [{}], (), {"": ()}, [("x", 1), ["x", 1], ("x", 1)], [(("x", 1),), (("x", True),)],
        {"nested": {"deep": [("a", -1), ("a", -1), {"k": ("a", -1)}]}}, "\u2028", 3, None,
        {1: [("x", 1)], None: 2, 2.5: True},
    ]
    # lists of tuples whose members are equal but not of one type, lists
    # mixing tuples with other items, and one long list of syllables
    explicit += [
        [("x", 1), ("x", True), ("x", 1.0)], [("x", 1.0), ("x", 1), ("x", True), ("x", 1)],
        {"s": [("x", 1), ("y", -2), ("x", 1)]}, [("x", 1), ("x", 1)], [(), ("x",), ()],
        [("x", 1), "x", ("x", 1)], [1, ("x", 1)], [("x", 1), None], [("x", [1]), ("x", [1])],
        [("x", ("y", 1)), ("x", ("y", 1))], [("x", 1), {"k": ("x", 1)}, ("x", 1)],
    ]
    rng = random.Random(9)
    syllables = [(rng.choice("xy"), rng.choice((1, -1, 2, 7, 10**20))) for _ in range(10**5)]
    explicit.append({"label": 1001, "central": -3, "syllables": syllables})
    # words are written as their text, in pieces: plain, alternating of odd
    # and even length and their inverses, an Artin relator and the empty word
    words = [Word.from_text("a b^-2 c_1"), Word(), _Alternating("a", "b", 5),
             _Alternating("a", "b", 6), artin_presentation(parse_graph("e x y 7\n")).relators[0]]
    words += [w.inverse() for w in words[2:4]]
    explicit += [words, {"word": words[2], "nested": [{"w": w, "n": 1} for w in words]}, ("x", words[0])]
    for payload in explicit + [_random_payload(rng, 0) for _ in range(500)]:
        got = "".join(_json_pieces(payload))
        assert got == json.dumps(payload, indent=2, default=_word_text), payload
    # a payload is one piece between its words: a container of scalars is
    # never split, and a word is its kept pieces
    assert _json_pieces({"v": ["a", "b"], "e": [["a", "b", 3]], "c": True}) == [
        '{\n  "v": [\n    "a",\n    "b"\n  ],\n  "e": [\n    [\n      "a",\n      "b",\n'
        '      3\n    ]\n  ],\n  "c": true\n}']
    assert _json_pieces([1, words[2], 2]) == ['[\n  1,\n  "', *words[2]._text_pieces(), '",\n  2\n]']
    # a word under a key that is not a string reaches json.dumps itself;
    # any other value that JSON cannot encode is refused, as by json.dumps
    assert json.loads("".join(_json_pieces({1: words[0]}))) == {"1": "a b^-2 c_1"}
    for bad in ({1, 2}, b"x", object(), {"k": [{"x"}]}, {1: {2.5: {"x"}}}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json_pieces(bad)


class _Exponent(enum.IntEnum):
    TWO = 2
    MINUS_THREE = -3


@pytest.mark.parametrize("n", [2, 3, 4, 7, 1000, 1001])
def test_normal_form_json_skips_its_type_pass_exactly(n):
    # the reduction builds a normal form's syllables as exact (str, int) pairs,
    # so the JSON writer renders them unchecked, with the bytes of json.dumps,
    # also for words whose exponents are True or an IntEnum
    rng = random.Random(n)
    words = [Word(tuple((rng.choice("ab"), rng.choice((1, -1, 2, -2, 3, -3, 50)))
                        for _ in range(k))) for k in (0, 1, 10, 100, 1000, 10**4)]
    words += [Word((("a", True), ("b", _Exponent.TWO), ("a", _Exponent.MINUS_THREE), ("b", True))),
              Word((("b", _Exponent.MINUS_THREE),) * 7 + (("a", True), ("b", _Exponent.TWO)) * 5)]
    for w in words:
        payload = vars(normal_form(n, w))
        assert "".join(_json_pieces(payload)) == json.dumps(payload, indent=2), (n, w)
        if n > 2:
            syllables = payload["syllables"]
            assert type(syllables) is _Pairs and type(payload["central"]) is int
            assert all(type(s) is tuple and len(s) == 2 and type(s[0]) is str and type(s[1]) is int
                       for s in syllables)


TINY_GRAPHS = {"empty": "", "one": "v a\n", "two": "v a\nv b\n"}
GRAPH_COMMANDS = [
    ["validate"], ["chunks"], ["split"], ["jsj"], ["jsj", "--collapsed"], ["abelianize"],
    ["abelianize", "--of-jsj"], ["presentation"], ["presentation", "--of-jsj", "--simplify"],
    ["profile"], ["compare", None], ["acylindrical"], ["retract", "0", "a"],
]


def _assert_one_error_line(argv, out, err):
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert "Traceback" not in err + out


@pytest.mark.parametrize("name", list(TINY_GRAPHS))
def test_graph_commands_on_tiny_graphs(capsys, tmp_path, name):
    # every graph command answers or fails with one error line, never a traceback
    p = tmp_path / f"{name}.graph"
    p.write_text(TINY_GRAPHS[name])
    for command in GRAPH_COMMANDS:
        for extra in ([], ["--json"]):
            argv = [command[0], str(p)] + [str(p) if a is None else a for a in command[1:]]
            code, out, err = _run(capsys, argv + extra)
            assert code in (0, 1, 2), argv
            if code:
                _assert_one_error_line(argv, out, err)
            if name == "empty" and command[0] in ("profile", "compare", "acylindrical"):
                assert (code, err) == (2, "error: empty graph\n"), argv


WORD_COMMANDS = [
    ["dihedral-jsj", "5"], ["dihedral-jsj", "6", "--dot", "-"], ["dihedral-nf", "3", "a b^-2"],
    ["dihedral-eq", "3", "a b a", "b a b"], ["root-search", "4", "3", "3"],
]


def test_every_text_rendering_is_a_list_of_pieces(fan_file, tmp_path):
    # one rendering protocol: main writes a list (or tuple) of strings, never a bare string
    parser = _build_parser()
    argvs = [[c[0], fan_file] + [fan_file if a is None else a for a in c[1:]] for c in GRAPH_COMMANDS]
    argvs += WORD_COMMANDS + [["jsj", fan_file, "--dot", "-"],
                              ["jsj", fan_file, "--dot", str(tmp_path / "fan.dot")]]
    for argv in argvs:
        args = parser.parse_args(argv)
        out = args.fn(args)[1]()
        assert type(out) in (list, tuple) and out, argv
        assert all(type(piece) is str for piece in out), argv
    covered = {argv[0] for argv in argvs}
    assert covered == set(parser._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_error_raised_while_rendering_exits_with_one_line(capsys, tmp_path, extra):
    # the text of a singleton chunk's class is built only while printing;
    # its error still exits 2 and prints nothing to stdout
    p = tmp_path / "one.graph"
    p.write_text("v a\n")
    assert _run(capsys, ["chunks", str(p)] + extra) == (
        2, "", "error: singleton chunk has no classification\n"
    )


# integer arguments: malformed, non-ASCII, past Python's 4300-digit conversion
# limit, and past sys.maxsize (these fail before anything is allocated; sizes
# between about 10^8 and sys.maxsize would really be allocated)
PAST_MAXSIZE = (str(10**30), str(10**30 + 1))
BAD_INTS = ("x", "1_0", "\u0663", "\uff13", "3" * 5000) + PAST_MAXSIZE
INT_COMMANDS = [
    ["dihedral-nf", "X", "a"], ["dihedral-nf", "3", "a^X"], ["dihedral-eq", "X", "a", "b"],
    ["dihedral-eq", "3", "b", "a^X"], ["dihedral-jsj", "X"], ["retract", None, "X", "a"],
    ["root-search", "X", "3", "X"], ["root-search", "4", "X", "5"],
]


def test_integer_arguments_fail_with_one_error_line(capsys, path_file):
    assert all(int(v) > sys.maxsize for v in PAST_MAXSIZE)
    for command in INT_COMMANDS:
        for value in BAD_INTS:
            argv = [path_file if a is None else a.replace("X", value) for a in command]
            for extra in ([], ["--json"]):
                code, out, err = _run(capsys, argv + extra)
                if (code, err) == (0, "") and value in PAST_MAXSIZE and command[1] == "X":
                    continue  # a huge label is valid: a short word or an even label answers
                assert code in (1, 2), argv
                _assert_one_error_line(argv, out, err)
                assert len(err) < 200, argv  # never the 5000 digits
    # the digits past the limit are counted, not echoed
    code, _, err = _run(capsys, ["dihedral-jsj", "3" * 5000])
    assert (code, err) == (
        1, "error: argument label: invalid int value: (5000 digits, more than 4300)\n"
    )
    code, _, err = _run(capsys, ["dihedral-nf", "3", "a^" + "3" * 5000])
    assert (code, err) == (1, "error: bad exponent (5000 digits, more than 4300) of a\n")
    code, _, err = _run(capsys, ["retract", path_file, "1_0", "a"])
    assert (code, err) == (1, "error: argument chunk: invalid int value: '1_0'\n")


def test_sizes_past_maxsize_print_one_error_line(capsys, tmp_path):
    huge = 10**30
    edge = tmp_path / "edge.graph"
    edge.write_text(f"e a b {huge + 1}\n")
    star = tmp_path / "star.graph"
    star.write_text(f"e p s 3\ne q s {huge}\ne r s 2\n")
    message = "error: cannot fit 'int' into an index-sized integer\n"
    for argv in (
        ["presentation", str(edge)], ["jsj", str(star)], ["dihedral-nf", "3", f"a^{huge + 1}"],
        ["dihedral-eq", "3", f"a^{huge + 1}", "b"],
    ):
        for extra in ([], ["--json"]):
            assert _run(capsys, argv + extra) == (2, "", message), argv
    # alternating words are held in closed form: only printing one fails, so
    # dihedral-jsj fails as text, which prints its legend word x, and answers as JSON
    assert _run(capsys, ["dihedral-jsj", str(huge + 1)]) == (2, "", message)
    code, out, err = _run(capsys, ["dihedral-jsj", str(huge + 1), "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["presentation"]["relators"] == [f"x^2 y^-{huge + 1}"]
    assert _run(capsys, ["abelianize", str(star), "--of-jsj"]) == (
        0, "Z^3 (from the fundamental group of the decomposition)\n", "")
    code, out, err = _run(capsys, ["presentation", str(star), "--of-jsj", "--simplify"])
    assert (code, err) == (0, "") and f"rel: z_q_s r_s_q^-{huge // 2}\n" in out


def test_out_of_memory_prints_one_error_line(capsys, monkeypatch):
    # a normal form of a^N has about 2N syllables; nothing that large is built here
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(artin.cli, "normal_form", out_of_memory)
    for extra in ([], ["--json"]):
        assert _run(capsys, ["dihedral-nf", "3", "a^100000000", *extra]) == (
            2, "", "error: out of memory\n")


def test_dihedral_eq_checks_both_words_and_reduces_only_where_they_differ(capsys):
    # a shared a^H past sys.maxsize cancels before anything is built
    power = f"a^{10**30}"
    for extra in ([], ["--json"]):
        equal = "{\n  \"equal\": true\n}\n" if extra else "equal\n"
        different = "{\n  \"equal\": false\n}\n" if extra else "different\n"
        assert _run(capsys, ["dihedral-eq", "3", power, power] + extra) == (0, equal, "")
        assert _run(capsys, ["dihedral-eq", "3", f"b {power}", power] + extra) == (0, different, "")
        # both words are checked before either is reduced
        stray = "error: dihedral words use generators a, b only; got ['q']\n"
        assert _run(capsys, ["dihedral-eq", "3", power, "a q"] + extra) == (1, "", stray)
        # a stray generator in the shared part is still refused
        assert _run(capsys, ["dihedral-eq", "3", "a q b", "a q b a"] + extra) == (1, "", stray)
        assert _run(capsys, ["dihedral-eq", "3", "b q", "a q"] + extra) == (1, "", stray)


def test_exit_codes(capsys, tmp_path, path_file):
    code, _, err = _run(capsys, ["no-such-command"])
    assert code == 64 and "invalid choice" in err

    code, _, err = _run(capsys, ["validate", str(tmp_path / "missing.graph")])
    assert code == 1

    bad = tmp_path / "bad.graph"
    bad.write_text("e a a 3\n")
    code, _, err = _run(capsys, ["validate", str(bad)])
    assert code == 1 and "line 1" in err

    disc = tmp_path / "disc.graph"
    disc.write_text("v a\nv b\n")
    code, _, err = _run(capsys, ["chunks", str(disc)])
    assert code == 2

    two = tmp_path / "two.graph"
    two.write_text("e a b 4\n")
    code, _, err = _run(capsys, ["jsj", str(two)])
    assert code == 2

    code, _, err = _run(capsys, ["dihedral-nf", "3", "a q"])
    assert code == 1

    code, _, err = _run(capsys, ["dihedral-jsj", "2"])
    assert code == 2 and "no JSJ" in err

    code, _, err = _run(capsys, ["dihedral-nf", "x", "a"])
    assert code == 1 and "invalid int value" in err

    cycle = tmp_path / "c13.graph"
    cycle.write_text("".join(f"e v{i} v{(i + 1) % 13} 3\n" for i in range(13)))
    code, out, err = _run(capsys, ["profile", str(cycle), "--json"])
    assert code == 0 and err == ""
    assert json.loads(out)["bigbig_canonical_forms"][0].startswith("13|0,")

    code, _, _ = _run(capsys, [])
    assert code == 1


def test_error_classes_carry_documented_exit_codes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {
        name: int(code)
        for name, code in re.findall(r"^\| `(\w+)`[^|]*\| (\d+) \|$", readme, re.MULTILINE)
    }
    classes = {
        name: obj
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ArtinError)
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == documented


def test_output_is_byte_stable(capsys, fan_file):
    first = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["profile", fan_file, "--json"])
        assert code == 0
        first.append(out)
    assert first[0] == first[1]
    for _ in range(2):
        code, out, _ = _run(capsys, ["jsj", fan_file, "--json"])
        first.append(out)
    assert first[2] == first[3]


# graph text -> (rank of H_1, betti, braided leaf labels)
HUGE_LABEL_CASES = {
    "e a b 1000000001\n": (1, 0, []),
    "e a b 1000000001\ne b c 3\n": (1, 0, []),
    "e a b 2000000\ne b c 3\n": (2, 0, [2000000]),
}


@pytest.mark.parametrize("text", list(HUGE_LABEL_CASES))
def test_huge_odd_label_needs_no_alternating_words(capsys, tmp_path, monkeypatch, text):
    # only the parity of the label matters for H_1, and the Betti number is
    # read off the block-cut tree: no relator and no braided leaf word is built
    rank, betti, braided = HUGE_LABEL_CASES[text]
    import artin.gog
    import artin.presentations
    import artin.words

    def refuse(*args):
        raise AssertionError("alternating word built")

    # presentations holds each relator as (u, v, m) and no longer imports it
    for module in (artin.words, artin.gog):
        monkeypatch.setattr(module, "alternating", refuse)
    p = tmp_path / "huge.graph"
    p.write_text(text)
    shape = "Z" if rank == 1 else f"Z^{rank}"
    code, out, _ = _run(capsys, ["abelianize", str(p)])
    assert (code, out) == (0, f"{shape} (from the vertex presentation)\n")
    code, out, _ = _run(capsys, ["profile", str(p), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["abelianization"] == {"free_rank": rank, "torsion": []}
    assert data["betti"] == betti
    assert data["braided_leaf_labels"] == braided


# graph of groups commands, each with and without --json where it has one
GOG_COMMANDS = [
    ["jsj"], ["jsj", "--json"], ["jsj", "--collapsed"], ["jsj", "--collapsed", "--json"],
    ["jsj", "--dot", "-"], ["abelianize", "--of-jsj"], ["abelianize", "--of-jsj", "--json"],
    ["presentation", "--of-jsj"], ["presentation", "--of-jsj", "--json"],
    ["presentation", "--of-jsj", "--simplify"], ["presentation", "--of-jsj", "--simplify", "--json"],
]
# vertex names with underscores, whose chunk and red vertex ids would coincide
# if joined naively: B_a_b_c names both the chunk {a, b_c} and the chunk {a_b, c}
COLLIDING_GRAPHS = {
    "e a b_c 3\ne a a_b 3\ne a_b c 3\n": "Z",
    "e a b_c 4\ne a a_b 3\ne a_b c 4\n": "Z^3",
}


def _gog_commands_agree_with_artin_abelianization(capsys, path):
    g = parse_graph(path.read_text())
    for command in GOG_COMMANDS:
        code, out, err = _run(capsys, [command[0], str(path), *command[1:]])
        assert (code, err) == (0, ""), (g.edges, command, err)
    code, out, _ = _run(capsys, ["abelianize", str(path), "--of-jsj", "--json"])
    shape = artin_abelianization(g)
    assert json.loads(out)["abelianization"] == shape.to_json_dict(), g.edges
    return shape


@pytest.mark.parametrize("text", list(COLLIDING_GRAPHS))
def test_gog_vertex_ids_are_distinct(capsys, tmp_path, text):
    path = tmp_path / "colliding.graph"
    path.write_text(text)
    assert _gog_commands_agree_with_artin_abelianization(capsys, path).describe() == (
        COLLIDING_GRAPHS[text]
    )
    for collapsed in ([], ["--collapsed"]):
        code, out, _ = _run(capsys, ["jsj", str(path), "--json", *collapsed])
        ids = [v["id"] for v in json.loads(out)["vertices"]]
        assert code == 0 and len(set(ids)) == len(ids) and "B_a_b_c" in ids, ids
        code, out, _ = _run(capsys, ["jsj", str(path), *collapsed])
        listed = [line.split()[2].rstrip(":") for line in out.splitlines() if " vertex " in line]
        assert listed == ids


def test_gog_commands_on_underscored_names(capsys, tmp_path):
    # the first pool makes chunks such as {a, b_c} and {a_b, c} likely
    pools = (
        ["a", "b", "c", "a_b", "b_c"],
        ["a", "b", "a_", "c_", "a_b", "b_c", "z_a_b", "R_a_b", "B_a", "W_a"],
    )
    rng = random.Random(61)
    path = tmp_path / "names.graph"
    for k in range(60):
        names = pools[k % 2]
        g = random_connected_graph(rng, rng.randint(4, min(6, len(names))), 0.1, (2, 3, 4, 6))
        rename = dict(zip(g.vertices, rng.sample(names, len(g.vertices))))
        path.write_text("".join(f"e {rename[u]} {rename[v]} {m}\n" for u, v, m in g.edges))
        _gog_commands_agree_with_artin_abelianization(capsys, path)


# vertices named like the generators gog_presentation makes for the braided leaf a-d
COLLIDING_NAMES_TEXT = "e a b 3\ne a d 4\ne a r_a_d 3\ne b r_a_d 3\ne b z_a_d 2\n"


def test_gog_presentation_names_avoid_graph_vertices(capsys, tmp_path):
    path = tmp_path / "names.graph"
    path.write_text(COLLIDING_NAMES_TEXT)
    assert _run(capsys, ["presentation", str(path), "--of-jsj"]) == (0, (
        "gen: a a_B_a_b_r_a_d a_W_a b b_B_b_z_a_d b_W_b r_a_d r_a_d_ z_a_d z_a_d_\n"
        "rel: a z_a_d_ a^-1 z_a_d_^-1\n"
        "rel: a_B_a_b_r_a_d b a_B_a_b_r_a_d b^-1 a_B_a_b_r_a_d^-1 b^-1\n"
        "rel: a_B_a_b_r_a_d r_a_d a_B_a_b_r_a_d r_a_d^-1 a_B_a_b_r_a_d^-1 r_a_d^-1\n"
        "rel: b r_a_d b r_a_d^-1 b^-1 r_a_d^-1\n"
        "rel: a_W_a a^-1\n"
        "rel: a_W_a a_B_a_b_r_a_d^-1\n"
        "rel: b_W_b b^-1\n"
        "rel: b_W_b b_B_b_z_a_d^-1\n"
        "rel: z_a_d_ r_a_d_^-2\n"
        "rel: z_a_d b_B_b_z_a_d z_a_d^-1 b_B_b_z_a_d^-1\n"
    ), "")
    assert _run(capsys, ["presentation", str(path), "--of-jsj", "--simplify"]) == (0, (
        "gen: a b r_a_d r_a_d_ z_a_d z_a_d_\n"
        "rel: a z_a_d_ a^-1 z_a_d_^-1\n"
        "rel: a b a b^-1 a^-1 b^-1\n"
        "rel: a r_a_d a r_a_d^-1 a^-1 r_a_d^-1\n"
        "rel: b r_a_d b r_a_d^-1 b^-1 r_a_d^-1\n"
        "rel: z_a_d_ r_a_d_^-2\n"
        "rel: z_a_d b z_a_d^-1 b^-1\n"
    ), "")


# every command that reads a graph file, with the file's place in its arguments
FILE_COMMANDS = [
    ["validate", None], ["chunks", None], ["split", None], ["jsj", None],
    ["abelianize", None], ["presentation", None], ["profile", None],
    ["compare", None, "good"], ["compare", "good", None], ["acylindrical", None],
    ["retract", None, "0", "a"],
]


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: " ".join(map(str, c)))
def test_file_that_is_not_utf8_fails_with_one_error_line(capsys, tmp_path, command):
    bad, good = tmp_path / "bad.graph", tmp_path / "good.graph"
    bad.write_bytes(b"e a b 2\n\xff\n")
    good.write_text("e a b 2\n")
    argv = [command[0]] + [
        str(bad) if a is None else str(good) if a == "good" else a for a in command[1:]
    ]
    for extra in ([], ["--json"]):
        assert _run(capsys, argv + extra) == (
            1, "", f"error: {bad}: not UTF-8 text (byte 8)\n"
        ), argv


def test_file_with_byte_order_mark_is_read(capsys, tmp_path):
    path = tmp_path / "bom.graph"
    path.write_bytes(b"\xef\xbb\xbfe a b 2\n")
    assert _run(capsys, ["validate", str(path)]) == (0, "ok: 2 vertices, 1 edges, connected\n", "")
    # the offset of a bad byte counts the mark
    path.write_bytes(b"\xef\xbb\xbfe a b 2\n\xff\n")
    assert _run(capsys, ["validate", str(path)]) == (
        1, "", f"error: {path}: not UTF-8 text (byte 11)\n"
    )
