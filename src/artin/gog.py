"""Graphs of groups: the JSJ decomposition of an Artin group.

The decomposition of a connected defining graph on at least three
vertices is built from the block-cut structure. Black vertices carry the
chunks, white vertices the separating vertices, every white-black
incidence is an edge over the cyclic group on the separating vertex. Two
kinds of leaf chunk get special treatment:

* a toral leaf (label 2 at a valence-1 tip t with base a) contributes a
  black vertex <a> with a loop whose stable letter is t, realizing the
  Z^2 chunk as an HNN extension of <a>;
* a braided leaf (even label 2m >= 4, m >= 2) contributes a black vertex
  <a, z> (free abelian of rank 2, z the generator of the centre of the
  chunk group) and a red vertex <r> with r = a t, glued along r^m = z.
  The central word z = Pi(a, t, 2m) is an alternating word in closed
  form (see ``artin.words``), read as r^m and as z without its letters,
  so only printing it costs O(m).

Collapsing the loops and red edges gives the coarser decomposition with
one black vertex per chunk carrying the full chunk group.

Dihedral Artin groups (a single edge, label n >= 3) have their own JSJ:
an amalgam <x> *_{x^2 = y^n} <y> for odd n, and for even n = 2m an HNN
extension of <y> with stable letter x conjugating y^m to itself. The
label 2 group is Z^2 and has no JSJ over cyclic subgroups.

Each group descriptor presents itself. ``generators(avoid)`` gives its
raw generator names: the generator of <w> is ``r_...`` and the centre of
<a, z> is ``z_...``, each made distinct from ``avoid``. ``relators(names)``
gives its relators, with ``names`` mapping each raw name to the generator
it becomes: an Artin relator per chunk edge, the commutator of <a, z>,
none for a cyclic group. ``embed(w, names)`` writes a word in the
defining generators in those generators, or raises PreconditionError
when w does not lie in the group. ``presentations.gog_presentation``
puts the vertex groups together. ``_text_pieces`` gives a descriptor's
text in pieces, a word as its kept pieces, as do the text and the
Graphviz graph of a graph of groups, so no line copies a long word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .dihedral import _check_label, _new_generators
from .errors import NoJsjExistsError, PreconditionError
from .graphs import (
    CHUNK_BRAIDED_LEAF,
    CHUNK_TORAL_LEAF,
    BigChunk,
    LabelledGraph,
    _find,
    big_chunks,
)
from .words import Word, _ArtinRelator, alternating

BLACK = "black"
WHITE = "white"
RED = "red"
_DOT_STYLE = {BLACK: ", style=filled, fillcolor=black, fontcolor=white",
              RED: ", style=filled, fillcolor=red"}  # Graphviz attributes after a vertex's label


class _Described:
    """A group descriptor's text, ``describe()``, joined from its pieces."""

    def describe(self) -> str:
        return "".join(self._text_pieces())


@dataclass(frozen=True)
class CyclicOnGenerator(_Described):
    """Infinite cyclic group on one vertex generator."""

    generator: str

    def _text_pieces(self) -> tuple[str, ...]:
        return (f"<{self.generator}>",)

    def to_json_dict(self) -> dict:
        return {"kind": "cyclic_on_generator", "generator": self.generator}

    def generators(self, avoid: set[str]) -> tuple[str, ...]:
        return (self.generator,)

    def relators(self, names: dict[str, str]) -> tuple:
        return ()

    def embed(self, w: Word, names: dict[str, str]) -> Word:
        if w.support() <= {self.generator}:
            return _single(names[self.generator], w.exponent_sums().get(self.generator, 0))
        raise PreconditionError(
            f"{w.to_text()!r} does not lie in the cyclic group on {self.generator}"
        )


@dataclass(frozen=True)
class CyclicOnWord(_Described):
    """Infinite cyclic group on a word in the vertex generators."""

    word: Word

    def _text_pieces(self) -> tuple[str, ...]:
        return ("<", *self.word._text_pieces(), ">")

    def to_json_dict(self) -> dict:
        return {"kind": "cyclic_on_word", "word": self.word}

    def generators(self, avoid: set[str]) -> tuple[str, ...]:
        return (_fresh("r_" + "_".join(n for n, _ in self.word.letters), avoid),)

    def relators(self, names: dict[str, str]) -> tuple:
        return ()

    def embed(self, w: Word, names: dict[str, str]) -> Word:
        k = _power_of(w, self.word)
        if k is not None:
            (r,) = names.values()
            return _single(r, k)
        raise PreconditionError(f"{w.to_text()!r} is not a power of {self.word.to_text()}")


@dataclass(frozen=True)
class FreeAbelianPair(_Described):
    """Rank-2 free abelian group on a vertex generator and a central word."""

    base: str
    central: Word

    def _text_pieces(self) -> tuple[str, ...]:
        return (f"<{self.base}, ", *self.central._text_pieces(), ">")

    def to_json_dict(self) -> dict:
        return {"kind": "free_abelian_pair", "base": self.base, "central": self.central}

    def generators(self, avoid: set[str]) -> tuple[str, ...]:
        z = "z_" + "_".join(sorted(self.central.support()))
        return (self.base, _fresh(z, avoid | {self.base}))

    def relators(self, names: dict[str, str]) -> tuple:
        base = Word.generator(names[self.base])
        z = Word.generator(next(reversed(names.values())))  # the centre is named last
        return (base * z * base.inverse() * z.inverse(),)

    def embed(self, w: Word, names: dict[str, str]) -> Word:
        if w.support() <= {self.base}:
            return _single(names[self.base], w.exponent_sums().get(self.base, 0))
        k = _power_of(w, self.central)
        if k is not None:
            return _single(next(reversed(names.values())), k)
        raise PreconditionError(f"{w.to_text()!r} does not lie in {self.describe()}")


@dataclass(frozen=True)
class ChunkParabolic(_Described):
    """The full Artin group on a chunk of the defining graph."""

    chunk: BigChunk

    def _text_pieces(self) -> tuple[str, ...]:
        return ("<" + ", ".join(self.chunk.vertices) + ">",)

    def to_json_dict(self) -> dict:
        return {"kind": "chunk_parabolic", "vertices": list(self.chunk.vertices)}

    def generators(self, avoid: set[str]) -> tuple[str, ...]:
        return self.chunk.graph.vertices

    def relators(self, names: dict[str, str]) -> tuple:
        return tuple(_ArtinRelator(names[u], names[v], m) for u, v, m in self.chunk.graph.edges)

    def embed(self, w: Word, names: dict[str, str]) -> Word:
        if w.support() <= set(self.chunk.vertices):
            return w._renamed(names) or Word()
        raise PreconditionError(f"{w.to_text()!r} does not lie in the chunk {self.chunk}")


GroupDescriptor = Union[CyclicOnGenerator, CyclicOnWord, FreeAbelianPair, ChunkParabolic]


@dataclass(frozen=True)
class GoGVertex:
    id: str
    color: str
    group: GroupDescriptor
    chunk: BigChunk | None = None

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "color": self.color,
            "group": self.group.to_json_dict(),
        }


@dataclass(frozen=True)
class GoGEdge:
    """Edge with its cyclic edge group and the two boundary injections.

    ``injections[k]`` is the image, written in the vertex generators of
    the defining graph, of the edge-group generator inside the vertex
    group at ``ends[k]``. Loops carry a stable letter.
    """

    ends: tuple[str, str]
    edge_group: GroupDescriptor
    injections: tuple[Word, Word]
    stable_letter: str | None = None

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]

    def to_json_dict(self) -> dict:
        return {
            "ends": list(self.ends),
            "edge_group": self.edge_group.to_json_dict(),
            "injections": list(self.injections),
            "stable_letter": self.stable_letter,
        }


@dataclass(frozen=True)
class GraphOfGroups:
    """A graph of groups with deterministic vertex and edge order."""

    vertices: tuple[GoGVertex, ...]
    edges: tuple[GoGEdge, ...]
    graph: LabelledGraph | None = None
    legend: tuple[tuple[str, Word], ...] = ()
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        by_id = {}
        for v in self.vertices:
            if v.id in by_id:
                raise PreconditionError(f"duplicate vertex id {v.id!r}")
            by_id[v.id] = v
        for e in self.edges:
            for end in e.ends:
                if end not in by_id:
                    raise PreconditionError(f"edge end {end!r} is not a vertex")
        object.__setattr__(self, "_by_id", by_id)

    def vertex(self, vid: str) -> GoGVertex:
        return self._by_id[vid]

    def count(self, color: str) -> int:
        return sum(1 for v in self.vertices if v.color == color)

    def loops(self) -> tuple[GoGEdge, ...]:
        return tuple(e for e in self.edges if e.is_loop)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [v.to_json_dict() for v in self.vertices],
            "edges": [e.to_json_dict() for e in self.edges],
            "betti": betti_number(self),
        }

    def to_text(self) -> str:
        """One line per vertex and edge, the Betti number, then the legend."""
        return "".join(self._text_pieces())

    def _text_pieces(self) -> list[str]:
        """The pieces of ``to_text``: each word's are its kept pieces, so no
        line copies a long word."""
        pieces = []
        for v in self.vertices:
            pieces += (f"{v.color} vertex {v.id}: ", *v.group._text_pieces(), "\n")
        for e in self.edges:
            left, right = e.injections
            pieces += (f"edge {e.ends[0]} -- {e.ends[1]}: ", *e.edge_group._text_pieces())
            pieces += (" with images ", *left._text_pieces(), ", ", *right._text_pieces())
            pieces.append(f" (stable letter {e.stable_letter})\n" if e.stable_letter else "\n")
        pieces.append(f"betti: {betti_number(self)}\n")
        for sym, word in self.legend:
            pieces += (f"where {sym} = ", *word._text_pieces(), "\n")
        return pieces

    def to_dot(self) -> str:
        """Render in Graphviz format.

        Black vertices are filled black with white text, white vertices
        are unfilled, red vertices are filled red. Loops are annotated
        with their stable letter, red edges with the relation r^m = z
        when their injection is the m-th power of the red word r.
        """
        return "".join(self._dot_pieces())

    def _dot_pieces(self) -> list[str]:
        """The pieces of ``to_dot``, a vertex label's words among them."""
        pieces = ["graph gog {\n"]
        for v in self.vertices:
            style = _DOT_STYLE.get(v.color, "")
            pieces += (f'  "{v.id}" [label="', *v.group._text_pieces(), f'"{style}];\n')
        for e in self.edges:
            attrs = []
            if e.is_loop and e.stable_letter is not None:
                attrs.append(f'label="stable letter {e.stable_letter}"')
            if RED in (self.vertex(e.ends[0]).color, self.vertex(e.ends[1]).color):
                red_end = next(k for k in (0, 1) if self.vertex(e.ends[k]).color == RED)
                desc = self.vertex(e.ends[red_end]).group
                other = self.vertex(e.ends[1 - red_end]).group
                if isinstance(desc, CyclicOnWord) and isinstance(other, FreeAbelianPair):
                    m = _power_of(e.injections[red_end], desc.word)
                    if m is not None:
                        attrs.append(f'label="r^{m} = z"')
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            pieces.append(f'  "{e.ends[0]}" -- "{e.ends[1]}"{suffix};\n')
        pieces.append("}\n")
        return pieces


def betti_number(gog: GraphOfGroups) -> int:
    """First Betti number of the underlying graph (loops count)."""
    _spanning_tree(gog)
    return len(gog.edges) - len(gog.vertices) + 1


def _spanning_tree(gog: GraphOfGroups) -> set[int]:
    """Indexes of the edges of a maximal tree of the base: the first edges
    in index order that close no cycle, kept by a union-find over the
    vertex ids (a loop joins a root to itself and is never kept).

    Raises ``PreconditionError`` when the base is empty or disconnected,
    that is, when fewer than V - 1 edges were kept.
    """
    index = {v.id: i for i, v in enumerate(gog.vertices)}
    parent = list(range(len(index)))
    tree_edges: set[int] = set()
    for idx, e in enumerate(gog.edges):
        a, b = (_find(parent, index[end]) for end in e.ends)
        if a != b:
            parent[a] = b
            tree_edges.add(idx)
    if len(tree_edges) != len(gog.vertices) - 1:
        raise PreconditionError("graph of groups has a disconnected base")
    return tree_edges


def _fresh(candidate: str, used: set[str]) -> str:
    """``candidate``, with underscores appended until it is not in ``used``."""
    while candidate in used:
        candidate += "_"
    return candidate


def _single(name: str, exp: int) -> Word:
    return Word.generator(name, exp) if exp else Word()


def _power_of(w: Word, base: Word) -> int | None:
    """Exponent k with w = base^k as unit sequences, or None.

    Each word is read as a root repeated (``_unit_root``). A root is
    primitive or the whole unit sequence, so w = base^k exactly when the
    lengths are k to 1 and the shorter root, repeated, spells the longer.
    An alternating word of even length is its first two letters
    repeated, so a braided leaf's z = Pi(a, t, 2m) reads as (a t)^m and
    as z^1 without its letters. a a and a^2 are the same unit sequence.
    """
    root, r = w._unit_root()
    n = len(root) * r
    if not n:
        return 0
    for sign, b in ((1, base), (-1, base.inverse())):
        step, s = b._unit_root()
        d = len(step) * s
        if not d or n % d:
            return None
        short, long = sorted((root, step), key=len)
        if not len(long) % len(short) and long == short * (len(long) // len(short)):
            return sign * (n // d)
    return None


def build_jsj(g: LabelledGraph) -> GraphOfGroups:
    """The JSJ graph of groups of the Artin group on a connected graph, |V| >= 3.

    Vertices come in the order black, white, red; edges in the order
    white-black, black-red, loops.
    """
    if len(g.vertices) < 3:
        raise PreconditionError(
            "the decomposition is defined for graphs on at least 3 vertices;"
            " use the dihedral decomposition for a single edge"
        )
    decomp = big_chunks(g)
    black: list[GoGVertex] = []
    red: list[GoGVertex] = []
    red_edges: list[GoGEdge] = []
    loops: list[GoGEdge] = []
    used: set[str] = set()  # vertex names may hold "_", so ids can collide
    for chunk, kind in zip(decomp.chunks, decomp.classes()):
        bid = _fresh("B_" + "_".join(chunk.vertices), used)
        used.add(bid)
        base = next(v for v in chunk.vertices if v != kind.tip)
        if kind.kind == CHUNK_TORAL_LEAF:
            group: GroupDescriptor = CyclicOnGenerator(base)
            word = Word.generator(base)
            loops.append(GoGEdge((bid, bid), group, (word, word), stable_letter=kind.tip))
        elif kind.kind == CHUNK_BRAIDED_LEAF:
            z_word = alternating(base, kind.tip, kind.label)
            group = FreeAbelianPair(base, z_word)
            rid = _fresh(f"R_{base}_{kind.tip}", used)
            used.add(rid)
            red.append(GoGVertex(rid, RED, CyclicOnWord(Word(((base, 1), (kind.tip, 1))))))
            red_edges.append(GoGEdge((bid, rid), CyclicOnWord(z_word), (z_word, z_word)))
        else:
            group = ChunkParabolic(chunk)
        black.append(GoGVertex(bid, BLACK, group, chunk))
    white = [GoGVertex(f"W_{v}", WHITE, CyclicOnGenerator(v)) for v in decomp.separating]
    cyclic = []
    for v, idxs in decomp.incidence:
        word = Word.generator(v)
        for i in idxs:
            cyclic.append(GoGEdge((f"W_{v}", black[i].id), CyclicOnGenerator(v), (word, word)))
    return GraphOfGroups(tuple(black + white + red), tuple(cyclic + red_edges + loops), graph=g)


def collapse_jsj(gog: GraphOfGroups) -> GraphOfGroups:
    """Collapse loops and red edges: one black vertex per chunk, full chunk group.

    Idempotent; the result has only white-black edges over cyclic groups
    on separating vertices.
    """
    vertices: list[GoGVertex] = []
    for v in gog.vertices:
        if v.color == RED:
            continue
        if v.color == BLACK:
            if v.chunk is None:
                raise PreconditionError(
                    "collapse needs chunk data on black vertices"
                )
            vertices.append(GoGVertex(v.id, BLACK, ChunkParabolic(v.chunk), v.chunk))
        else:
            vertices.append(v)
    red_ids = {v.id for v in gog.vertices if v.color == RED}
    edges = tuple(
        e
        for e in gog.edges
        if not e.is_loop and not (set(e.ends) & red_ids)
    )
    return GraphOfGroups(tuple(vertices), edges, graph=gog.graph, legend=gog.legend)


def dihedral_jsj(n: int) -> GraphOfGroups:
    """The JSJ decomposition of the dihedral Artin group on label n >= 3.

    Odd n: amalgam <x> *_{x^2 = y^n} <y> with x the length-n alternating
    word and y the product of the generators. Even n = 2m: HNN extension
    of <y> with stable letter x = a conjugating y^m to itself. For n = 2
    the group is Z^2 and no JSJ exists; NoJsjExistsError is raised.
    """
    _check_label(n)
    if n == 2:
        raise NoJsjExistsError(
            "the label 2 group is free abelian of rank 2 and has no JSJ"
            " decomposition over cyclic subgroups"
        )
    g = LabelledGraph.from_edges([("a", "b", n)])
    if n % 2 == 1:
        vertices = (
            GoGVertex("B_x", BLACK, CyclicOnGenerator("x")),
            GoGVertex("B_y", BLACK, CyclicOnGenerator("y")),
        )
        edges = (
            GoGEdge(
                ("B_x", "B_y"),
                CyclicOnWord(Word.generator("x", 2)),
                (Word.generator("x", 2), Word.generator("y", n)),
            ),
        )
    else:
        m = n // 2
        vertices = (GoGVertex("B_y", BLACK, CyclicOnGenerator("y")),)
        edges = (
            GoGEdge(
                ("B_y", "B_y"),
                CyclicOnWord(Word.generator("y", m)),
                (Word.generator("y", m), Word.generator("y", m)),
                stable_letter="x",
            ),
        )
    x, y = _new_generators(n)
    return GraphOfGroups(vertices, edges, graph=g, legend=(("x", x), ("y", y)))
