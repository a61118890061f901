"""Output checks for the benchmark, against facts that do not come from artin.

Each check receives the exit code, stdout and stderr of one ``artin``
command and returns ``OK`` or ``REFUSED`` (a documented refusal the
input justifies), or raises :class:`CheckFailed`. The facts come from
the generator (the blocks it built) or from code here: an iterative
Hopcroft-Tarjan block finder, union-find over odd-labelled edges, a
rank computation over a prime field, and the abelianization of the
dihedral Artin group. The only library calls are in the normal-form
round trip, which runs ``normal_form`` on the printed form written over
a, b and compares short expansions with ``as_defining_generators``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

OK = "ok"
REFUSED = "refused"

CANONICAL_FORM_CAP = 12
ROUND_TRIP_MAX_LETTERS = 200_000
ROUND_TRIP_MAX_SYLLABLES = 64
PRIME = (1 << 61) - 1


class CheckFailed(Exception):
    """The output contradicts a known fact about the input."""


def _expect(condition: bool, what: str):
    if not condition:
        raise CheckFailed(what)


def _json(code: int, out: str):
    _expect(code == 0, f"exit code {code}")
    try:
        return json.loads(out)
    except ValueError:
        raise CheckFailed("stdout is not JSON") from None


# words as token lists: (name, exponent)


def word_text(tokens) -> str:
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in tokens)


def parse_tokens(text: str):
    out = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out


def alternating(u: str, v: str, n: int):
    return [((u, v)[i % 2], 1) for i in range(n)]


def inverse(tokens):
    return [(n, -e) for n, e in reversed(tokens)]


def artin_relator(u: str, v: str, m: int):
    """The relator u v u ... (v u v ...)^-1 of an edge with label m."""
    return alternating(u, v, m) + inverse(alternating(v, u, m))


# graph facts


def find_blocks(vertices, adj) -> list[frozenset]:
    """Blocks of a graph by an iterative Hopcroft-Tarjan edge-stack DFS."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    blocks: list[frozenset] = []
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        if not adj[root]:
            blocks.append(frozenset([root]))
            continue
        stack = [(root, None, iter(adj[root]))]
        edges: list[tuple[str, str]] = []
        while stack:
            v, parent, neighbours = stack[-1]
            for w in neighbours:
                if w == parent:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    edges.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if index[w] < index[v]:
                    low[v] = min(low[v], index[w])
                    edges.append((v, w))
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= index[parent]:
                    block: set[str] = set()
                    while True:
                        e = edges.pop()
                        block.update(e)
                        if e == (parent, v):
                            break
                    blocks.append(frozenset(block))
    return blocks


@dataclass
class GraphFacts:
    """What the benchmark knows about one generated graph."""

    vertices: list[str]
    edges: list[tuple[str, str, int]]
    blocks: list[frozenset] = None
    adj: dict = field(init=False)
    label: dict = field(init=False)

    def __post_init__(self):
        self.vertices = sorted(self.vertices)
        self.edges = sorted((min(u, v), max(u, v), m) for u, v, m in self.edges)
        self.adj = {v: [] for v in self.vertices}
        self.label = {}
        for u, v, m in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
            self.label[frozenset((u, v))] = m
        if self.blocks is None:
            self.blocks = find_blocks(self.vertices, self.adj)
        count: dict[str, int] = {}
        for b in self.blocks:
            for v in b:
                count[v] = count.get(v, 0) + 1
        self.cuts = sorted(v for v, k in count.items() if k > 1)
        self.block_order = sorted(
            (tuple(sorted(b)) for b in self.blocks), key=lambda t: (t[0], len(t), t)
        )

    def block_kind(self, block) -> tuple[str, int | None]:
        """Chunk class name and label, from the definitions in the paper."""
        if len(block) >= 3:
            return "BigBig", None
        u, v = sorted(block)
        m = self.label[frozenset((u, v))]
        if len(self.adj[u]) == 1 or len(self.adj[v]) == 1:
            kind = "ToralLeaf" if m == 2 else "BraidedLeaf" if m % 2 == 0 else "OddLeaf"
        else:
            kind = "OddNonLeafEdge" if m % 2 else "Label2NonLeafEdge" if m == 2 else "EvenNonLeafEdge"
        return kind, m

    def kinds(self) -> list[tuple[str, int | None]]:
        return [self.block_kind(b) for b in self.blocks]

    def odd_components(self) -> int:
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, m in self.edges:
            if m % 2:
                parent[find(u)] = find(v)
        return sum(1 for v in self.vertices if find(v) == v)

    def largest_big_block(self) -> int:
        return max((len(b) for b in self.blocks if len(b) >= 3), default=0)

    def retraction(self, chunk) -> dict[str, str]:
        """Nearest chunk vertex of every vertex, by multi-source BFS."""
        rho = {c: c for c in chunk}
        queue = deque(chunk)
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if y not in rho:
                    rho[y] = rho[x]
                    queue.append(y)
        return rho


def _shape(facts: GraphFacts) -> dict:
    return {"free_rank": facts.odd_components(), "torsion": []}


# graph operations


def validate(facts: GraphFacts, code, out, err):
    d = _json(code, out)
    _expect(d["vertices"] == facts.vertices, "vertex list")
    _expect([tuple(e) for e in d["edges"]] == facts.edges, "edge list")
    _expect(d["connected"] is True, "connectivity")
    return OK


def chunks(facts: GraphFacts, code, out, err):
    d = _json(code, out)
    got = [frozenset(c) for c in d["chunks"]]
    _expect(sorted(map(sorted, got)) == sorted(map(sorted, facts.blocks)), "chunk vertex sets")
    _expect(d["separating"] == facts.cuts, "separating vertices")
    kinds = [cls.split("(")[0] for cls in d["classes"]]
    _expect(kinds == [facts.block_kind(c)[0] for c in got], "chunk classes")
    return OK


def split(facts: GraphFacts, code, out, err):
    d = _json(code, out)
    if not facts.cuts:
        _expect(d["verdict"] == "NoSplit", "verdict without a separating vertex")
        return OK
    _expect(d["verdict"] == "VisualSplit" and d["ends"] == "OneEnded", "verdict")
    w = d["witness"]
    v, left, right = w["vertex"], set(w["left"]), set(w["right"])
    _expect(v in facts.cuts, "witness vertex is not separating")
    _expect(left & right == {v}, "sides meet outside the witness vertex")
    _expect(left | right == set(facts.vertices), "sides do not cover the graph")
    _expect(len(left) > 1 and len(right) > 1, "a side is only the witness vertex")
    for a, b, _ in facts.edges:
        _expect({a, b} <= left or {a, b} <= right, f"edge {a}-{b} crosses the sides")
    return OK


def jsj(facts: GraphFacts, collapsed: bool, code, out, err):
    d = _json(code, out)
    kinds = [k for k, _ in facts.kinds()]
    toral = kinds.count("ToralLeaf")
    braided = 0 if collapsed else kinds.count("BraidedLeaf")
    colors = [v["color"] for v in d["vertices"]]
    _expect(colors.count("black") == len(facts.blocks), "black vertices")
    _expect(colors.count("white") == len(facts.cuts), "white vertices")
    _expect(colors.count("red") == braided, "red vertices")
    incidences = sum(len(b) for b in facts.blocks) - len(facts.vertices) + len(facts.cuts)
    loops = 0 if collapsed else toral
    _expect(len(d["edges"]) == incidences + braided + loops, "edge count")
    _expect(d["betti"] == loops, "Betti number differs from the toral leaf count")
    return OK


def acylindrical(facts: GraphFacts, code, out, err):
    d = _json(code, out)

    def witnesses(s, t):
        key = frozenset((s, t))
        return t != s and (key not in facts.label or facts.label[key] >= 3)

    expected = any(witnesses(s, t) for s in facts.cuts for t in facts.vertices)
    _expect(d["acylindrically_hyperbolic"] is expected, "verdict")
    if expected:
        s, t = d["witness"]
        _expect(s in facts.cuts and witnesses(s, t), "witness pair")
    return OK


def retract(facts: GraphFacts, chunk, word, code, out, err):
    d = _json(code, out)
    rho = facts.retraction(chunk)
    _expect(d["word"] == word_text([(rho[n], e) for n, e in word]), "retracted word")
    return OK


def profile(facts: GraphFacts, code, out, err):
    if facts.largest_big_block() > CANONICAL_FORM_CAP and code != 0:
        _expect(code == 2 and "canonical form capped" in err, f"exit {code}: {err.strip()}")
        return REFUSED
    d = _json(code, out)
    kinds = facts.kinds()
    toral = sum(1 for k, _ in kinds if k == "ToralLeaf")
    _expect(d["chunk_count"] == len(facts.blocks), "chunk count")
    _expect(d["toral_leaf_count"] == toral, "toral leaf count")
    _expect(d["betti"] == toral, "Betti number differs from the toral leaf count")
    _expect(
        d["braided_leaf_labels"] == sorted(m for k, m in kinds if k == "BraidedLeaf"),
        "braided leaf labels",
    )
    _expect(
        d["odd_leaf_labels"] == sorted(m for k, m in kinds if k == "OddLeaf"),
        "odd leaf labels",
    )
    _expect(
        d["label2_nonleaf_edge_count"]
        == sum(1 for k, _ in kinds if k == "Label2NonLeafEdge"),
        "label 2 non-leaf edge count",
    )
    _expect(d["abelianization"] == _shape(facts), "abelianization")
    _expect(
        len(d["bigbig_canonical_forms"]) == sum(1 for k, _ in kinds if k == "BigBig"),
        "canonical form count",
    )
    return OK


def abelianize(facts: GraphFacts, code, out, err):
    d = _json(code, out)
    _expect(d["abelianization"] == _shape(facts), "abelianization")
    return OK


def rank_mod_prime(rows) -> int:
    """Rank over GF(PRIME) of sparse rows given as {column: value} dicts."""
    pivots: list[tuple[object, dict]] = []
    for row in rows:
        row = {c: v % PRIME for c, v in row.items() if v % PRIME}
        for col, prow in pivots:
            f = row.get(col)
            if f:
                for c, v in prow.items():
                    x = (row.get(c, 0) - f * v) % PRIME
                    if x:
                        row[c] = x
                    else:
                        row.pop(c, None)
        if row:
            col = min(row)
            inv = pow(row[col], PRIME - 2, PRIME)
            pivots.append((col, {c: v * inv % PRIME for c, v in row.items()}))
    return len(pivots)


def presentation_rank(facts: GraphFacts, code, out, err):
    """The printed presentation abelianizes to Z^(odd components)."""
    d = _json(code, out)
    rows = []
    for text in d["relators"]:
        row: dict[str, int] = {}
        for name, e in parse_tokens(text):
            row[name] = row.get(name, 0) + e
        rows.append(row)
    free_rank = len(d["generators"]) - rank_mod_prime(rows)
    _expect(free_rank == facts.odd_components(), "abelian rank of the presentation")
    return OK


def presentation_exact(facts: GraphFacts, code, out, err):
    """One generator per vertex and one relator per edge, by definition."""
    d = _json(code, out)
    _expect(d["generators"] == facts.vertices, "generators")
    expected = [word_text(artin_relator(u, v, m)) for u, v, m in facts.edges]
    _expect(d["relators"] == expected, "relators")
    return OK


def compare(verdict: str, reasons, code, out, err):
    d = _json(code, out)
    _expect(d["verdict"] == verdict, f"verdict {d['verdict']}, expected {verdict}")
    _expect(d["reasons"] == list(reasons), "certified reasons")
    return OK


# dihedral operations


def _abelian_image(n: int, tokens) -> tuple[int, int]:
    """Image in H1 of the dihedral Artin group: Z for odd n, Z^2 otherwise."""
    a = sum(e for name, e in tokens if name == "a")
    b = sum(e for name, e in tokens if name == "b")
    return (a + b, 0) if n % 2 else (a, b)


def _nf_image(n: int, d: dict) -> tuple[int, int]:
    if n == 2:
        return d["a_exp"], d["b_exp"]
    if n % 2:
        total = d["central"] * 2 * n
        total += sum(e * (n if s == "x" else 2) for s, e in d["syllables"])
        return total, 0
    m = n // 2
    a = b = d["central"] * m
    for s, e in d["syllables"]:
        a += e
        b += e if s == "y" else 0
    return a, b


def _reduced(n: int, syllables) -> bool:
    """Syllables alternate and lie in the free factors' ranges."""
    names = [s for s, _ in syllables]
    if any(p == q for p, q in zip(names, names[1:])):
        return False
    if n % 2:
        return all(e == 1 if s == "x" else 0 < e < n for s, e in syllables)
    m = n // 2
    return all(e != 0 if s == "x" else 0 < e < m for s, e in syllables)


def _defining_word(n: int, d: dict):
    """The normal form written over a, b: x, y and the central c as in the theory."""
    if n % 2:
        x, c = alternating("a", "b", n), alternating("a", "b", n) * 2
    else:
        x, c = [("a", 1)], alternating("a", "b", n)
    y = [("a", 1), ("b", 1)]
    word = (c if d["central"] >= 0 else inverse(c)) * abs(d["central"])
    for s, e in d["syllables"]:
        piece = x if s == "x" else y
        word += (piece if e > 0 else inverse(piece)) * abs(e)
    return word


def dihedral_nf(n: int, tokens, code, out, err):
    """Abelian image and reducedness always; round trip where the expansion is small.

    The round trip expands the printed form over a, b, runs normal_form on
    the expansion and expects the printed form back. For short forms the
    expansion must also equal as_defining_generators.
    """
    d = _json(code, out)
    _expect(d["label"] == n, "label")
    _expect(_nf_image(n, d) == _abelian_image(n, tokens), "abelianization of the normal form")
    if n == 2:
        return OK
    _expect(_reduced(n, d["syllables"]), "syllables are not reduced")
    x_len, c_len = (n, 2 * n) if n % 2 else (1, n)
    letters = abs(d["central"]) * c_len + sum(
        abs(e) * (x_len if s == "x" else 2) for s, e in d["syllables"]
    )
    if letters > ROUND_TRIP_MAX_LETTERS:
        return OK
    from artin.dihedral import EvenNormalForm, OddNormalForm, as_defining_generators, normal_form
    from artin.words import Word

    nf = (OddNormalForm if n % 2 else EvenNormalForm)(
        n, d["central"], tuple((s, e) for s, e in d["syllables"])
    )
    word = Word(tuple(_defining_word(n, d)))
    _expect(normal_form(n, word) == nf, "normal form round trip")
    if len(nf.syllables) <= ROUND_TRIP_MAX_SYLLABLES:
        expanded = as_defining_generators(nf).letters
        _expect(expanded == word.letters, "as_defining_generators expansion")
    return OK


def dihedral_eq(expected: bool, code, out, err):
    d = _json(code, out)
    _expect(d["equal"] is expected, f"equal is {d['equal']}, expected {expected}")
    return OK


def dihedral_jsj_text(n: int) -> str:
    """The JSJ of the dihedral Artin group on label n >= 3, from the theory."""
    if n % 2:
        lines = [
            "black vertex B_x: <x>",
            "black vertex B_y: <y>",
            f"edge B_x -- B_y: <x^2> with images x^2, y^{n}",
            "betti: 0",
            "where x = " + word_text(alternating("a", "b", n)),
            "where y = a b",
            "presentation: gen: x y",
            f"rel: x^2 y^-{n}",
        ]
    else:
        m = n // 2
        lines = [
            "black vertex B_y: <y>",
            f"edge B_y -- B_y: <y^{m}> with images y^{m}, y^{m} (stable letter x)",
            "betti: 1",
            "where x = a",
            "where y = a b",
            "presentation: gen: x y",
            f"rel: x y^{m} x^-1 y^-{m}",
        ]
    return "\n".join(lines) + "\n"


def dihedral_jsj(n: int, code, out, err):
    _expect(code == 0, f"exit code {code}")
    _expect(out == dihedral_jsj_text(n), "decomposition text")
    return OK
