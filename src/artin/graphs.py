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
chunks and the sides of a splitting walk that tree.

Input checks: ``LabelledGraph(...)``, ``LabelledGraph.from_edges`` and
``parse_graph`` (with line numbers) check what they are given. Graphs
derived from checked ones (chunk graphs, induced subgraphs) are built by
the private ``LabelledGraph._trusted`` and are not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    GraphTooLargeError,
    PreconditionError,
    WordFormatError,
)
from .words import NAME_RE, Word, _ascii_int

CANONICAL_FORM_CAP = 12


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
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
            try:
                m = _ascii_int(raw_label)
            except ValueError as err:
                raise GraphFormatError(f"bad label {err}", lineno) from None
            if m < 2:
                raise GraphFormatError(f"label must be >= 2, got {m}", lineno)
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise GraphFormatError(f"duplicate edge {key[0]}-{key[1]}", lineno)
            edges[key] = m
            vertices.add(u)
            vertices.add(v)
        else:
            raise GraphFormatError(f"unknown line type {parts[0]!r}", lineno)
    return LabelledGraph._trusted(
        tuple(sorted(vertices)),
        tuple((u, v, edges[(u, v)]) for u, v in sorted(edges)),
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
    """

    graph: LabelledGraph
    chunks: tuple[BigChunk, ...]
    separating: tuple[str, ...]
    incidence: tuple[tuple[str, tuple[int, ...]], ...]
    _at: dict[str, tuple[int, ...]] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def chunks_at(self) -> dict[str, tuple[int, ...]]:
        """Each vertex of the chunks mapped to the sorted indexes of its chunks.

        ``big_chunks`` hands over the map its search built; it is derived
        from the chunks only for a decomposition built without it.
        """
        if self._at is not None:
            return self._at
        return _chunks_at(c.vertices for c in self.chunks)

    def reached(self, j: int, s: str) -> set[int]:
        """Indexes of the chunks reached from chunk j over the block-cut tree without passing s."""
        reached = {j}
        todo = [j]
        while todo:
            for w in self.chunks[todo.pop()].vertices:
                if w != s:
                    for k in self.chunks_at[w]:
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


def _chunks_at(vertex_sets) -> dict[str, tuple[int, ...]]:
    at: dict[str, list[int]] = {}
    for i, vertices in enumerate(vertex_sets):
        for v in vertices:
            at.setdefault(v, []).append(i)
    return {v: tuple(idxs) for v, idxs in at.items()}


def big_chunks(g: LabelledGraph) -> BlockDecomposition:
    """Decompose a connected graph into big chunks.

    Each chunk's graph is built from the edges its block popped off the
    search's edge stack (a block's vertex set induces exactly those).
    The search starts from one vertex; when its blocks miss a vertex,
    :class:`DisconnectedGraphError` is raised with the components.
    """
    if not g.vertices:
        raise PreconditionError("empty graph")
    blocks = sorted(_blocks(g), key=lambda b: (b[0][0], len(b[0]), b[0]))
    at = _chunks_at(t for t, _ in blocks)
    if len(at) < len(g.vertices):
        raise DisconnectedGraphError(g.components())
    chunks = tuple(BigChunk(t, LabelledGraph._trusted(t, e)) for t, e in blocks)
    incidence = tuple((v, at[v]) for v in g.vertices if len(at[v]) > 1)
    return BlockDecomposition(g, chunks, tuple(v for v, _ in incidence), incidence, at)


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
        for j in decomp.chunks_at[s]:
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
    by (own colour, sorted multiset of (edge label, neighbour colour)).
    The refinement is isomorphism-invariant, as is the order of the
    resulting classes.
    """
    colors = _rank([tuple(sorted(m for m, _ in nb)) for nb in nbrs])
    while True:
        new = _rank([
            (colors[i], tuple(sorted((m, colors[j]) for m, j in nb)))
            for i, nb in enumerate(nbrs)
        ])
        if len(set(new)) == len(set(colors)):
            colors = new
            break
        colors = new
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

    The form is ``n|`` and the least flattened lower-triangle label matrix
    (row i lists the labels from the i-th vertex to the earlier ones, 0
    for no edge) over the vertex orderings that list the classes of
    ``_wl_classes`` one after another. The search places one vertex per
    level and reaches that least matrix with these exact prunings, after
    McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic
    Comput. 60 (2014):

    - prefix: a partial matrix larger than the best one's prefix only
      leads to larger matrices;
    - least row only: the candidates at a level add rows of one length,
      so one whose row is larger than the least row loses at that row;
      only the least-row candidates are searched;
    - orbits, the one pruning by automorphisms: a leaf whose matrix ties
      the best gives an automorphism, ``best_order[i] -> order[i]``. A
      candidate that the recorded automorphisms fixing the placed
      vertices pointwise map from a searched sibling is skipped: such an
      automorphism maps the sibling's subtree onto the candidate's,
      matrix for matrix;
    - unwinding: the automorphism of a tie fixes the levels before the
      first one where ``order`` departs from ``best_order``, and maps the
      best's subtree there onto the subtree being searched, so the search
      returns to that level at once.

    Graphs of more than ``CANONICAL_FORM_CAP`` vertices raise
    ``GraphTooLargeError``.

    >>> square = LabelledGraph.from_edges(
    ...     [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)]
    ... )
    >>> canonical_form(square)
    b'4|0,2,2,2,2,0'
    """
    n = len(g.vertices)
    if n > CANONICAL_FORM_CAP:
        raise GraphTooLargeError(
            f"canonical form capped at {CANONICAL_FORM_CAP} vertices, got {n}"
        )
    if n == 0:
        return b"0|"
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = [[0] * n for _ in range(n)]
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, m in g.edges:
        i, j = idx[u], idx[v]
        adj[i][j] = adj[j][i] = m
        nbrs[i].append((m, j))
        nbrs[j].append((m, i))

    classes = _wl_classes(nbrs)
    class_for_pos: list[int] = []
    for k, cls in enumerate(classes):
        class_for_pos += [k] * len(cls)

    best: list[int] | None = None
    best_order: list[int] = []
    automorphisms: list[list[int]] = []
    order: list[int] = []
    flat: list[int] = []
    placed = [False] * n

    def dfs(pos: int) -> int:
        """Search below ``order``; return the level to unwind to, n for none."""
        nonlocal best, best_order
        if pos == n:
            if best is None or flat < best:
                best, best_order = flat.copy(), order.copy()
                return n
            gamma = [0] * n
            for b, o in zip(best_order, order):
                gamma[b] = o
            automorphisms.append(gamma)
            return next(i for i in range(n) if order[i] != best_order[i])
        least: list[int] | None = None
        candidates: list[int] = []
        for u in classes[class_for_pos[pos]]:
            if placed[u]:
                continue
            row = [adj[u][w] for w in order]
            if least is None or row < least:
                least, candidates = row, [u]
            elif row == least:
                candidates.append(u)
        assert least is not None
        flat.extend(least)
        back = n
        if best is None or flat <= best[: len(flat)]:
            searched: list[int] = []
            orbit = list(range(n))  # orbits of the automorphisms fixing ``order``
            merged = 0
            for u in candidates:
                if searched:
                    for gamma in automorphisms[merged:]:
                        if all(gamma[v] == v for v in order):
                            for i, j in enumerate(gamma):
                                orbit[_find(orbit, i)] = _find(orbit, j)
                    merged = len(automorphisms)
                    root = _find(orbit, u)
                    if any(_find(orbit, s) == root for s in searched):
                        continue
                placed[u] = True
                order.append(u)
                back = dfs(pos + 1)
                order.pop()
                placed[u] = False
                if back < pos:
                    break
                searched.append(u)
        del flat[len(flat) - len(least):]
        return back if back < pos else n

    dfs(0)
    assert best is not None
    payload = ",".join(str(x) for x in best)
    return f"{n}|{payload}".encode("ascii")
