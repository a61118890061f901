"""Labelled simplicial graphs and their chunk decompositions.

A labelled graph is a finite simple graph with integer edge labels >= 2.
Each graph defines an Artin group: one generator per vertex, and for each
edge {u, v} with label m the relation that the two length-m alternating
words u v u ... and v u v ... are equal.

The central structure here is the decomposition of a connected graph into
big chunks: maximal connected induced subgraphs without separating
vertices. These coincide with the blocks of the graph (biconnected
components, bridges, and isolated vertices), which is how they are
computed; a brute-force maximality oracle in the test suite enforces the
equivalence. The blocks, with their edges, come from one iterative
Hopcroft-Tarjan depth-first search in O(V + E) (Hopcroft & Tarjan,
"Algorithm 447", CACM 16(6), 1973); the separating vertices, the
block-cut tree and connectivity are read off it, and the retractions onto
chunks and the sides of a splitting walk that tree's edges.

Input checks: ``LabelledGraph(...)``, ``LabelledGraph.from_edges`` and
``parse_graph`` (with line numbers) check what they are given. Graphs
derived from checked ones (chunk graphs, induced subgraphs) are built by
the private ``LabelledGraph._trusted`` and are not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    PreconditionError,
    WordFormatError,
)
from .words import NAME_RE, Word, _ascii_int


@dataclass(frozen=True)
class LabelledGraph:
    """Immutable labelled simple graph.

    ``vertices`` is lexicographically sorted; ``edges`` holds (u, v, label)
    with u < v, sorted. Construct via :meth:`from_edges` or
    :func:`parse_graph`.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if not NAME_RE.fullmatch(v):
                raise GraphFormatError(f"bad vertex name {v!r}")
            if v in seen:
                raise GraphFormatError(f"duplicate vertex {v!r}")
            seen.add(v)
        if tuple(sorted(self.vertices)) != self.vertices:
            raise GraphFormatError("vertices must be sorted")
        prev = None
        for u, v, m in self.edges:
            if u not in seen or v not in seen:
                raise GraphFormatError(f"edge {u}-{v} on unknown vertex")
            if u == v:
                raise GraphFormatError(f"self loop at {u!r}")
            if u > v:
                raise GraphFormatError(f"edge {u}-{v} not in canonical order")
            if not isinstance(m, int) or m < 2:
                raise GraphFormatError(f"edge {u}-{v} label must be an integer >= 2")
            if (u, v) == prev:
                raise GraphFormatError(f"duplicate edge {u}-{v}")
            if prev is not None and (u, v) < prev:
                raise GraphFormatError("edges must be sorted")
            prev = (u, v)

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], edges) -> "LabelledGraph":
        """A graph on vertices and edges derived from checked ones; they are not checked again."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @cached_property
    def _adj(self) -> dict[str, dict[str, int]]:
        adj: dict[str, dict[str, int]] = {v: {} for v in self.vertices}
        for u, v, m in self.edges:
            adj[u][v] = m
            adj[v][u] = m
        return adj

    @classmethod
    def from_edges(cls, edges, vertices=()) -> "LabelledGraph":
        """Build from an iterable of (u, v, label); extra isolated vertices allowed."""
        names = set(vertices)
        canon = {}
        for u, v, m in edges:
            names.add(u)
            names.add(v)
            key = (u, v) if u <= v else (v, u)
            if key in canon:
                raise GraphFormatError(f"duplicate edge {key[0]}-{key[1]}")
            canon[key] = m
        return cls(
            tuple(sorted(names)),
            tuple((u, v, canon[(u, v)]) for u, v in sorted(canon)),
        )

    # basic queries

    def valence(self, v: str) -> int:
        return len(self._adj[v])

    def label(self, u: str, v: str) -> int:
        try:
            return self._adj[u][v]
        except KeyError:
            raise KeyError(f"no edge {u}-{v}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def induced(self, subset) -> "LabelledGraph":
        keep = set(subset)
        missing = keep - set(self.vertices)
        if missing:
            raise PreconditionError(f"not vertices of the graph: {sorted(missing)}")
        return LabelledGraph._trusted(
            tuple(sorted(keep)),
            tuple((u, v, m) for u, v, m in self.edges if u in keep and v in keep),
        )

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components as sorted vertex tuples, sorted by first vertex."""
        return _components(self.vertices, self._adj)

    def is_connected(self) -> bool:
        return len(self.vertices) > 0 and len(self.components()) == 1

    def to_text(self) -> str:
        """Serialize in the line-based graph format (round-trips through parse_graph)."""
        lines = [f"v {v}" for v in self.vertices]
        lines += [f"e {u} {v} {m}" for u, v, m in self.edges]
        return "\n".join(lines) + "\n"


def parse_graph(text: str) -> LabelledGraph:
    """Parse the line-based labelled graph format.

    Lines: ``# comment``, blank, ``v NAME``, or ``e NAME NAME LABEL``.
    Edge lines declare their endpoints implicitly; ``v`` lines are only
    needed for isolated vertices. Labels are ASCII decimal integers >= 2,
    with an optional sign.
    """
    vertices: set[str] = set()
    edges: dict[tuple[str, str], int] = {}
    labels: dict[str, int] = {}  # each distinct label text, read once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] == "v":
            if len(parts) != 2:
                raise GraphFormatError("vertex line must be 'v NAME'", lineno)
            if not NAME_RE.fullmatch(parts[1]):
                raise GraphFormatError(f"bad vertex name {parts[1]!r}", lineno)
            vertices.add(parts[1])
        elif parts[0] == "e":
            if len(parts) != 4:
                raise GraphFormatError("edge line must be 'e NAME NAME LABEL'", lineno)
            u, v, raw_label = parts[1], parts[2], parts[3]
            for name in (u, v):
                if name not in vertices and not NAME_RE.fullmatch(name):
                    raise GraphFormatError(f"bad vertex name {name!r}", lineno)
            if u == v:
                raise GraphFormatError(f"self loop at {u!r}", lineno)
            m = labels.get(raw_label)
            if m is None:
                try:
                    m = _ascii_int(raw_label)
                except ValueError as err:
                    raise GraphFormatError(f"bad label {err}", lineno) from None
                if m < 2:
                    raise GraphFormatError(f"label must be >= 2, got {m}", lineno)
                labels[raw_label] = m
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise GraphFormatError(f"duplicate edge {key[0]}-{key[1]}", lineno)
            edges[key] = m
            vertices.add(u)
            vertices.add(v)
        else:
            raise GraphFormatError(f"unknown line type {parts[0]!r}", lineno)
    return LabelledGraph._trusted(
        tuple(sorted(vertices)), tuple(sorted((u, v, m) for (u, v), m in edges.items()))
    )


# chunk decomposition


@dataclass(frozen=True)
class BigChunk:
    """A maximal connected induced subgraph without separating vertices."""

    vertices: tuple[str, ...]
    graph: LabelledGraph

    def __str__(self) -> str:
        return "{" + ",".join(self.vertices) + "}"


CHUNK_BIG_BIG = "BigBig"
CHUNK_TORAL_LEAF = "ToralLeaf"
CHUNK_BRAIDED_LEAF = "BraidedLeaf"
CHUNK_ODD_LEAF = "OddLeaf"
CHUNK_ODD_NONLEAF = "OddNonLeafEdge"
CHUNK_LABEL2_NONLEAF = "Label2NonLeafEdge"
CHUNK_EVEN_NONLEAF = "EvenNonLeafEdge"


@dataclass(frozen=True)
class ChunkClass:
    """Classification of a chunk inside its ambient graph.

    ``label`` and ``tip`` are set for two-vertex chunks only; ``tip`` is the
    valence-1 endpoint when the chunk is a leaf edge.
    """

    kind: str
    label: int | None = None
    tip: str | None = None

    def __str__(self) -> str:
        if self.kind == CHUNK_BIG_BIG:
            return self.kind
        if self.tip is not None:
            return f"{self.kind}({self.label}, tip={self.tip})"
        return f"{self.kind}({self.label})"


@dataclass(frozen=True)
class BlockDecomposition:
    """Chunks, separating vertices, and their incidence for a connected graph.

    Chunks are sorted by (least vertex, size, vertex tuple). ``incidence``
    pairs each separating vertex with the sorted indexes of the chunks
    containing it. Chunks and separating vertices are the two node kinds
    of the block-cut tree, and the incidence pairs are its edges; all of
    it comes from one linear depth-first search (:func:`big_chunks`).
    The walks over the tree read those edges alone: a vertex that does
    not separate lies in one chunk, so it leads nowhere else.
    """

    graph: LabelledGraph
    chunks: tuple[BigChunk, ...]
    separating: tuple[str, ...]
    incidence: tuple[tuple[str, tuple[int, ...]], ...]

    @cached_property
    def _tree(self) -> dict[str, tuple[int, ...]]:
        """Each separating vertex mapped to the sorted indexes of its chunks."""
        return dict(self.incidence)

    def reached(self, j: int, s: str) -> set[int]:
        """Indexes of the chunks reached from chunk j over the block-cut tree without passing s."""
        tree = self._tree
        reached = {j}
        todo = [j]
        while todo:
            for w in self.chunks[todo.pop()].vertices:
                if w != s and w in tree:
                    for k in tree[w]:
                        if k not in reached:
                            reached.add(k)
                            todo.append(k)
        return reached

    def classes(self) -> tuple[ChunkClass, ...]:
        return tuple(classify_chunk(self.graph, c) for c in self.chunks)

    def to_json_dict(self) -> dict:
        return {
            "chunks": [list(c.vertices) for c in self.chunks],
            "separating": list(self.separating),
            "classes": [str(k) for k in self.classes()],
        }


def _blocks(g: LabelledGraph) -> list[tuple[tuple[str, ...], tuple]]:
    """Blocks (sorted vertices, sorted edges) of the component of the first vertex, in no order.

    One iterative Hopcroft-Tarjan search: ``low[v]`` is the least
    discovery index reachable from v's subtree by one back edge. Tree and
    back edges go on an edge stack; when a child w of u finishes with
    low[w] >= disc[u], the edges down to (u, w) form a block. An isolated
    vertex is a singleton block.
    """
    adj = g._adj
    root = g.vertices[0]
    if not adj[root]:
        return [((root,), ())]
    disc = {root: 0}
    low = {root: 0}
    out = []
    edge_stack: list[tuple[str, str]] = []
    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, parent, todo = stack[-1]
        for w in todo:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                edge_stack.append((v, w))
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and disc[w] < disc[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] < disc[u]:
                continue
            verts: set[str] = set()
            edges = []
            while True:
                a, b = edge_stack.pop()
                verts.update((a, b))
                edges.append((a, b, adj[a][b]) if a < b else (b, a, adj[a][b]))
                if (a, b) == (u, v):
                    break
            out.append((tuple(sorted(verts)), tuple(sorted(edges))))
    return out


def big_chunks(g: LabelledGraph) -> BlockDecomposition:
    """Decompose a connected graph into big chunks.

    Each chunk's graph is built from the edges its block popped off the
    search's edge stack (a block's vertex set induces exactly those).
    The search starts from one vertex; when its blocks miss a vertex,
    :class:`DisconnectedGraphError` is raised with the components. The
    vertices in two or more blocks separate, and with their blocks they
    are the tree's edges, ``incidence``.
    """
    if not g.vertices:
        raise PreconditionError("empty graph")
    blocks = sorted(_blocks(g), key=lambda b: (b[0][0], len(b[0]), b[0]))
    at: dict[str, list[int]] = {}
    for i, (t, _) in enumerate(blocks):
        for v in t:
            at.setdefault(v, []).append(i)
    if len(at) < len(g.vertices):
        raise DisconnectedGraphError(g.components())
    chunks = tuple(BigChunk(t, LabelledGraph._trusted(t, e)) for t, e in blocks)
    incidence = tuple((v, tuple(at[v])) for v in g.vertices if len(at[v]) > 1)
    return BlockDecomposition(g, chunks, tuple(v for v, _ in incidence), incidence)


def classify_chunk(g: LabelledGraph, chunk: BigChunk) -> ChunkClass:
    """Classify a chunk of g by size, label parity, and leaf position.

    A two-vertex chunk is a leaf when an endpoint has valence 1 in g; that
    endpoint is the tip. Label 2 leaves are toral (the chunk group is
    Z^2), even labels >= 4 give braided leaves, odd labels odd leaves.
    """
    if len(chunk.vertices) == 1:
        raise PreconditionError("singleton chunk has no classification")
    if len(chunk.vertices) >= 3:
        return ChunkClass(CHUNK_BIG_BIG)
    u, v = chunk.vertices
    m = g.label(u, v)
    tips = [w for w in (u, v) if g.valence(w) == 1]
    if tips:
        tip = tips[-1]
        if m == 2:
            return ChunkClass(CHUNK_TORAL_LEAF, m, tip)
        if m % 2 == 0:
            return ChunkClass(CHUNK_BRAIDED_LEAF, m, tip)
        return ChunkClass(CHUNK_ODD_LEAF, m, tip)
    if m % 2 == 1:
        return ChunkClass(CHUNK_ODD_NONLEAF, m)
    if m == 2:
        return ChunkClass(CHUNK_LABEL2_NONLEAF, m)
    return ChunkClass(CHUNK_EVEN_NONLEAF, m)


def _components(vertices, adj) -> tuple[tuple[str, ...], ...]:
    """Components as sorted tuples, in ``vertices`` order; ``adj[v]`` holds v's neighbours."""
    seen: set[str] = set()
    out = []
    for start in vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return tuple(out)


def odd_components(g: LabelledGraph) -> tuple[tuple[str, ...], ...]:
    """Components of the subgraph keeping only odd-labelled edges.

    Their number equals the rank of the abelianization of the Artin group
    (generators of an odd edge are identified there).
    """
    odd = {v: [w for w, m in near.items() if m % 2] for v, near in g._adj.items()}
    return _components(g.vertices, odd)


def retract_word(decomp: BlockDecomposition, i: int, w: Word) -> Word:
    """Retract a word in the vertex generators onto chunk ``i`` of ``decomp``.

    Each vertex outside the chunk maps to the chunk vertex s its branch
    of the block-cut tree hangs from; the branches at s are the chunks
    reached from each other chunk at s without passing s. An edge
    outside the chunk lies in one branch and collapses, and the chunk's
    edges stay with their labels, so the map is a group retraction onto
    the chunk's Artin group.

    >>> fan = LabelledGraph.from_edges(
    ...     [("a", "c", 3), ("c", "e", 2), ("a", "e", 4), ("a", "b", 2), ("a", "d", 6)]
    ... )
    >>> [c.vertices for c in big_chunks(fan).chunks]
    [('a', 'b'), ('a', 'd'), ('a', 'c', 'e')]
    >>> retract_word(big_chunks(fan), 2, Word.from_text("b c d^-1")).to_text()
    'a c a^-1'
    """
    if not 0 <= i < len(decomp.chunks):
        raise PreconditionError(
            f"chunk index {i} out of range; the graph has {len(decomp.chunks)} chunks"
        )
    chunk = decomp.chunks[i].vertices
    rho = {v: v for v in chunk}
    for s in chunk:
        for j in decomp._tree.get(s, ()):
            if j != i:
                for k in decomp.reached(j, s):
                    rho.update(dict.fromkeys(decomp.chunks[k].vertices, s))
    for name, _ in w.letters:
        if name not in rho:
            raise WordFormatError(f"letter {name!r} is not a vertex of the graph")
    return Word._trusted(tuple((rho[n], e) for n, e in w.letters))


# canonical form

def _wl_classes(nbrs) -> list[list[int]]:
    """Partition vertex indexes by iterated neighbourhood refinement.

    ``nbrs[i]`` lists the (edge label, neighbour index) pairs of vertex i.
    Colours start from the sorted multiset of incident labels and refine
    by (own colour, sorted multiset of (edge label, neighbour colour)),
    until a round splits no class or every vertex has a class of its own.
    A round writes the pair (m, c) as the one integer m * count + c, where
    count exceeds every colour c, which orders the pairs the same way.
    The refinement is isomorphism-invariant, as is the order of the
    resulting classes.
    """
    colors = _rank([tuple(sorted([m for m, _ in nb])) for nb in nbrs])
    count = max(colors, default=-1) + 1
    while count < len(nbrs):
        colors = _rank([
            (c, tuple(sorted([m * count + colors[j] for m, j in nb])))
            for c, nb in zip(colors, nbrs)
        ])
        if max(colors) + 1 == count:
            break
        count = max(colors) + 1
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    return [classes[c] for c in sorted(classes)]


def _rank(sigs):
    order = {s: k for k, s in enumerate(sorted(set(sigs)))}
    return [order[s] for s in sigs]


def _find(parent: list[int], i: int) -> int:
    """Root of i in a union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def canonical_form(g: LabelledGraph) -> bytes:
    """Canonical byte string: equal for exactly the isomorphic labelled graphs.

    The form is ``n|``, the vertex count, followed by the sorted
    ``i,j,label`` triples (i < j, separated by ``;``) of the edges under
    a canonical order of the vertices (``_least_certificate``). It is
    O(V + E) long.

    >>> square = LabelledGraph.from_edges(
    ...     [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)]
    ... )
    >>> canonical_form(square)
    b'4|0,2,2;0,3,2;1,2,2;1,3,2'
    >>> ring = LabelledGraph.from_edges([(f"v{i}", f"v{(i + 1) % 13}", 3) for i in range(13)])
    >>> canonical_form(ring)
    b'13|0,11,3;0,12,3;1,2,3;1,4,3;2,3,3;3,5,3;4,6,3;5,7,3;6,8,3;7,9,3;8,10,3;9,11,3;10,12,3'
    """
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    edges = [(idx[u], idx[v], m) for u, v, m in g.edges]
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, m in edges:
        nbrs[i].append((m, j))
        nbrs[j].append((m, i))
    payload = ";".join(map("%d,%d,%d".__mod__, _least_certificate(nbrs, edges)))
    return f"{n}|{payload}".encode("ascii")


def _certificate(edges, pos: list[int]) -> list[tuple[int, int, int]]:
    """The sorted (i, j, label) triples, i < j, of the edges with vertex v at position ``pos[v]``."""
    out = []
    for i, j, m in edges:
        a, b = pos[i], pos[j]
        out.append((a, b, m) if a < b else (b, a, m))
    out.sort()
    return out


class _Partition:
    """An ordered partition of the vertex indexes, refined in place.

    The cells are laid out one after another in ``lab``, and ``pos`` is
    its inverse; ``cell[v]`` is the position where v's cell starts and
    ``size[p]`` the size of the cell starting at p (0 elsewhere).
    """

    __slots__ = ("lab", "pos", "cell", "size")

    def __init__(self, lab, pos, cell, size):
        self.lab, self.pos, self.cell, self.size = lab, pos, cell, size

    @classmethod
    def of(cls, classes) -> "_Partition":
        lab = [v for c in classes for v in c]
        pos = [0] * len(lab)
        cell = [0] * len(lab)
        size = [0] * len(lab)
        for p, v in enumerate(lab):
            pos[v] = p
        p = 0
        for c in classes:
            size[p] = len(c)
            for v in c:
                cell[v] = p
            p += len(c)
        return cls(lab, pos, cell, size)

    def individualized(self, u: int) -> "_Partition":
        """A copy in which u is a cell of its own at the start of its old cell."""
        lab, pos, cell, size = self.lab.copy(), self.pos.copy(), self.cell.copy(), self.size.copy()
        c = cell[u]
        w = lab[c]
        lab[c], lab[pos[u]] = u, w
        pos[w], pos[u] = pos[u], c
        size[c + 1] = size[c] - 1
        size[c] = 1
        for v in lab[c + 1 : c + 1 + size[c + 1]]:
            cell[v] = c + 1
        return _Partition(lab, pos, cell, size)

    def target(self, start: int = 0) -> list[int] | None:
        """The vertices of the first cell of two or more, None when every cell is a singleton.

        The cells before position ``start`` must be singletons.
        """
        size = self.size
        for p in range(start, len(size)):
            if size[p] > 1:
                return self.lab[p : p + size[p]]
        return None

    def refine(self, nbrs, todo: list[int], trace: list[tuple[int, ...]],
               bound: list[tuple[int, ...]] | None) -> int:
        """Refine until equitable, from the splitter cells starting at ``todo``.

        Taking the splitters first in, first out, each cell is split by the
        sorted labels of the edges from its vertices into the splitter;
        the parts are laid out in the order of those label tuples, so the
        vertices with no such edge keep the cell's start, and the others
        are swapped to its end first. Every part joins the splitters,
        except the largest when the split cell was not waiting itself:
        the labels into that part are those into the cell less those into
        the other parts (Hopcroft's "smaller half"), and without the
        omission a large cell that sheds a few vertices at a time is
        requeued whole each time. Nothing depends on the order of the
        vertices inside a cell, so the result is isomorphism-invariant,
        and so is ``trace``, which receives one (start, part sizes...)
        tuple per split.

        Returns -1, 0 or 1 as ``trace`` compares with ``bound``, -1 when
        ``bound`` is None. At 1 it stops as soon as the trace is known to
        be the larger, and the partition is left half refined.
        """
        lab, pos, cell, size = self.lab, self.pos, self.cell, self.size
        order = -1 if bound is None else 0
        waiting = set(todo)
        k = 0
        while k < len(todo):
            s = todo[k]
            k += 1
            waiting.discard(s)
            hits: dict[int, list[int]] = {}
            for w in lab[s : s + size[s]]:
                for m, u in nbrs[w]:
                    hits.setdefault(u, []).append(m)
            touched: dict[int, list[int]] = {}
            for u in hits:
                touched.setdefault(cell[u], []).append(u)
            for c in sorted(touched):
                if size[c] == 1:
                    continue
                parts: dict[tuple[int, ...], list[int]] = {}
                for u in touched[c]:
                    parts.setdefault(tuple(sorted(hits[u])), []).append(u)
                rest = size[c] - len(touched[c])
                if not rest and len(parts) == 1:
                    continue
                end = c + size[c]
                for u in touched[c]:  # the touched vertices to the end of the cell
                    end -= 1
                    w = lab[end]
                    lab[pos[u]], lab[end] = w, u
                    pos[w], pos[u] = pos[u], end
                starts = [c] if rest else []
                size[c] = rest
                p = end
                for key in sorted(parts):
                    part = parts[key]
                    lab[p : p + len(part)] = part
                    for q, v in enumerate(part, p):
                        pos[v] = q
                        cell[v] = p
                    size[p] = len(part)
                    starts.append(p)
                    p += len(part)
                event = (c, *map(size.__getitem__, starts))
                if order == 0:
                    if len(trace) == len(bound) or event > bound[len(trace)]:
                        return 1
                    if event < bound[len(trace)]:
                        order = -1
                trace.append(event)
                if c not in waiting:
                    starts.remove(max(starts, key=size.__getitem__))
                for p in starts:
                    if p not in waiting:
                        waiting.add(p)
                        todo.append(p)
        return -1 if order == 0 and len(trace) < len(bound) else order


class _Node:
    """A node of the individualization-refinement search, kept on its stack.

    ``target`` is the partition's first cell of two or more vertices,
    whose vertices are the children; ``orbit`` is a union-find of the
    orbits of the recorded automorphisms that fix the path to the node
    pointwise, None until a second child is looked for, and ``merged``
    counts the recorded automorphisms looked at. ``tied`` says whether
    the traces down to the node equal the best leaf's.
    """

    __slots__ = ("part", "target", "next", "searched", "orbit", "merged", "tied")

    def __init__(self, part: _Partition, target: list[int], tied: bool):
        self.part, self.target, self.tied = part, target, tied
        self.next = 0
        self.searched: list[int] = []
        self.orbit: list[int] | None = None
        self.merged = 0

    def next_child(self, fixed: set[int], automorphisms) -> int | None:
        """The next child not in the orbit of a searched one, None when there is none left.

        Each automorphism recorded since the last call that fixes each
        vertex of ``fixed`` first joins, in ``orbit``, every point it
        moves with its image; an automorphism is given as the list of
        (point, image) pairs of the points it moves. The check on ``fixed``
        is needed: refinement can leave a target cell coarser than the
        orbits of the path's stabilizer (a Latin square graph does), so an
        automorphism that moves the path can join two children that no
        path-fixing automorphism joins.
        """
        while self.next < len(self.target):
            v = self.target[self.next]
            self.next += 1
            if self.searched:
                if self.orbit is None:
                    self.orbit = list(range(len(self.part.lab)))
                orbit = self.orbit
                for moved in automorphisms[self.merged:]:
                    if not any(i in fixed for i, _ in moved):
                        for i, j in moved:
                            orbit[_find(orbit, i)] = _find(orbit, j)
                self.merged = len(automorphisms)
                root = _find(orbit, v)
                if any(_find(orbit, s) == root for s in self.searched):
                    continue
            self.searched.append(v)
            return v
        return None


def _least_certificate(nbrs, edges) -> list[tuple[int, int, int]]:
    """A canonical ``_certificate``: the least over the leaves of the
    individualization-refinement tree with the least refinement traces.

    A node of the tree is an equitable ordered partition; the root is
    the classes of ``_wl_classes``. When they are singletons, the root
    is the only leaf, and its order is read off without a search.
    Otherwise a node's children individualize each vertex of its
    first cell of two or more vertices, and refine from that vertex,
    leaving a trace (``_Partition.refine``). A node whose cells are all
    singletons is a leaf and orders the vertices. Leaves compare by the
    traces along their paths, then by certificate; all of it is
    isomorphism-invariant, so the least leaf's certificate is canonical.
    The tree is searched depth first on an explicit stack, and three
    exact prunings keep it small (McKay & Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 60, 2014):

    - traces: a child whose trace exceeds the best leaf's at that depth,
      its path's earlier traces being equal, only leads to larger leaves;
      its refinement stops there;
    - orbits: a leaf that ties the best gives an automorphism,
      ``best_lab[p] -> lab[p]``. A child that the recorded automorphisms
      fixing the node's individualized vertices map from a searched
      sibling is skipped, as its subtree is the image of the sibling's
      (``_Node.next_child``);
    - unwinding: the automorphism of a tie fixes the individualized
      vertices before the first level where the two paths part, and
      maps the best's fully searched subtree there onto the current one,
      so the search returns to that level at once.
    """
    best: list[tuple[int, int, int]] | None = None
    best_lab: list[int] = []
    best_path: list[int] = []
    best_traces: list[list[tuple[int, ...]]] = []
    automorphisms: list[list[tuple[int, int]]] = []
    path: list[int] = []  # path[d] is the vertex individualized by stack[d]'s current child
    traces: list[list[tuple[int, ...]]] = []  # traces[d] is the trace of that child
    root = _Partition.of(_wl_classes(nbrs))
    target = root.target()
    if target is None:
        return _certificate(edges, root.pos)
    stack = [_Node(root, target, False)]
    while stack:
        node = stack[-1]
        depth = len(stack) - 1
        u = node.next_child(set(path[:depth]), automorphisms)
        if u is None:
            stack.pop()
            continue
        del path[depth:], traces[depth:]
        path.append(u)
        child = node.part.individualized(u)
        trace: list[tuple[int, ...]] = []
        bound = best_traces[depth] if node.tied else None
        order = child.refine(nbrs, [child.cell[u]], trace, bound)
        if order > 0:
            continue
        traces.append(trace)
        tied = node.tied and order == 0
        target = child.target(node.part.cell[u])
        if target is not None:
            stack.append(_Node(child, target, tied))
            continue
        cert = _certificate(edges, child.pos)
        if not tied or cert < best:
            best, best_lab, best_path, best_traces = cert, child.lab, path.copy(), traces.copy()
            for ancestor in stack:
                ancestor.tied = True
        elif cert == best:
            automorphisms.append([(b, o) for b, o in zip(best_lab, child.lab) if b != o])
            level = next(d for d, (a, b) in enumerate(zip(path, best_path)) if a != b)
            del stack[level + 1 :]
    assert best is not None
    return best
