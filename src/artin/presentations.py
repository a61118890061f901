"""Finite presentations, abelianization, and integer Smith normal form.

The presentation of the fundamental group of a graph of groups follows
the standard recipe (Serre, *Trees*, I.5.1): vertex groups contribute
disjoint generator copies and their relators, edges of a maximal tree
identify the two images of the edge-group generator, and every other
edge (loops included) contributes a stable letter t with relator
t a t^-1 w^-1 for the two images a, w. The tree is the first edges in
index order that close no cycle. Vertex-group copies are kept duplicated
and identified, a separate simplification step eliminates the
identification relators.

Each vertex group presents itself (see ``artin.gog``). Every relator
is a ``Word``, printed as its kept text pieces and held as itself in
``to_json_dict``; the relator of an Artin edge u-v labelled m is the
product of its two alternating halves, held as (u, v, m) and answered
in closed form (see ``artin.words``), so no consumer walks its 2m letters:

>>> from artin import LabelledGraph
>>> (r,) = artin_presentation(LabelledGraph.from_edges([("a", "b", 5)])).relators
>>> r.to_text()
'a b a b a b^-1 a^-1 b^-1 a^-1 b^-1'
>>> r.exponent_sums()
{'a': 1, 'b': -1}
>>> artin_presentation(LabelledGraph.from_edges([("a", "b", 10**9)])).relators[0].exponent_sums()
{}

All linear algebra is exact over the integers. The Smith normal form is
one sparse Euclidean elimination to a diagonal, whose entries above 1
are then made a divisor chain pairwise by gcd and lcm.

Input checks: ``Presentation(...)`` and ``parse_presentation`` check
generator names and that relators use only the generators;
``artin_presentation`` and ``simplify_identifications`` build from
checked values through the private ``Presentation._trusted``.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd

from .errors import PreconditionError, WordFormatError
from .gog import GraphOfGroups, GroupDescriptor, _fresh, _spanning_tree
from .graphs import LabelledGraph, odd_components
from .words import NAME_RE, Word, _ArtinRelator


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: generator names and relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        seen = set()
        for gen in self.generators:
            if not NAME_RE.fullmatch(gen):
                raise WordFormatError(f"bad generator name {gen!r}")
            if gen in seen:
                raise WordFormatError(f"duplicate generator {gen!r}")
            seen.add(gen)
        for rel in self.relators:
            stray = rel.support() - seen
            if stray:
                raise WordFormatError(f"relator uses unknown generators {sorted(stray)}")

    @classmethod
    def _trusted(cls, generators: tuple[str, ...], relators: tuple) -> "Presentation":
        """A presentation derived from checked names and words; it is not checked again."""
        p = object.__new__(cls)
        object.__setattr__(p, "generators", generators)
        object.__setattr__(p, "relators", relators)
        return p

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": list(self.relators),
        }


def render_presentation(p: Presentation) -> str:
    """Serialize as a ``gen:`` line followed by one ``rel:`` line per relator."""
    return "".join(_presentation_pieces(p))


def _presentation_pieces(p: Presentation) -> list[str]:
    """The pieces of ``render_presentation``, a relator's kept pieces among them."""
    pieces = ["gen: " + " ".join(p.generators) + "\n"]
    for r in p.relators:
        pieces += ("rel: ", *r._text_pieces(), "\n")
    return pieces


def parse_presentation(text: str) -> Presentation:
    gens: tuple[str, ...] | None = None
    rels: list[Word] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gen:"):
            if gens is not None:
                raise WordFormatError("second gen: line")
            gens = tuple(line[4:].split())
        elif line.startswith("rel:"):
            if gens is None:
                raise WordFormatError("rel: before gen:")
            rels.append(Word.from_text(line[4:]))
        else:
            raise WordFormatError(f"bad presentation line {line!r}")
    if gens is None:
        raise WordFormatError("missing gen: line")
    return Presentation(gens, tuple(rels))


def artin_presentation(g: LabelledGraph) -> Presentation:
    """One generator per vertex; per edge the two alternating words agree.

    The relator of an edge u-v labelled m is alternating(u, v, m) times
    the inverse of alternating(v, u, m), held as (u, v, m): its cost does
    not grow with m.
    """
    relators = tuple(_ArtinRelator(u, v, m) for u, v, m in g.edges)
    return Presentation._trusted(g.vertices, relators)


# Smith normal form


class _SparseRow:
    """A matrix row of ``width`` entries held as {column: nonzero value}.

    ``abelianize`` hands these to ``smith_normal_form`` so that a
    relation matrix is never built densely.
    """

    def __init__(self, entries: dict[int, int], width: int):
        self.entries = entries
        self.width = width

    def __len__(self) -> int:
        return self.width


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors of an integer matrix, zeros trailing.

    Returns a tuple of length min(rows, cols) with d_1 | d_2 | ... and
    all entries nonnegative. Exact arbitrary-precision arithmetic.

    The rows are held sparse, as {column: value} with a column-to-rows
    index, and ``_diagonalize`` brings them to a diagonal by one
    Euclidean elimination. Its entries above 1 are then made a divisor
    chain by replacing pairs diag(a, b) with diag(gcd, lcm), which is
    equivalent over Z (Newman, Integral Matrices, 1972); the 1s already
    divide everything and are left out of that step:

    >>> smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    (2, 2, 60)
    >>> smith_normal_form([[2, 0], [0, 3]])
    (1, 6)
    """
    matrix = [r if isinstance(r, _SparseRow) else list(r) for r in matrix]
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rows: list[dict[int, int]] = []
    for r in matrix:
        if len(r) != ncols:
            raise PreconditionError("matrix rows have unequal lengths")
        if isinstance(r, _SparseRow):
            rows.append(dict(r.entries))
            continue
        for x in r:
            if not isinstance(x, int):
                raise PreconditionError("matrix entries must be integers")
        rows.append({j: x for j, x in enumerate(r) if x})
    k = min(nrows, ncols)
    diagonal = _diagonalize(rows)
    chain = [d for d in diagonal if d != 1]
    for s in range(len(chain)):
        for t in range(s + 1, len(chain)):
            a, b = chain[s], chain[t]
            chain[s] = gcd(a, b)
            chain[t] = a // chain[s] * b
    diag = (1,) * (len(diagonal) - len(chain)) + tuple(chain)
    return diag + (0,) * (k - len(diag))


def _diagonalize(rows: list[dict[int, int]]) -> list[int]:
    """Reduce sparse rows to a diagonal in place; return its nonzero entries, positive.

    The rows wait in a heap keyed by length; a row pushes itself again
    when an elimination changes it, and a popped key whose length is out
    of date is skipped. The pivot is the popped row's least entry, in
    its sparsest column (a local Markowitz choice; after Havas, Majewski
    & Matthews, Exp. Math. 7(2), 1998). Row operations reduce the pivot's
    column, then column operations, which touch no other row because the
    column is clear, reduce its row. A nonzero remainder is a smaller
    pivot, and the reduction starts again from it (Euclid), so a +-1
    pivot is finished in one step and touches only the rows of its column.
    """
    where: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    diagonal = []
    while heap:
        size, i = heapq.heappop(heap)
        row = rows[i]
        if len(row) != size:
            continue
        c = min((abs(x), len(where[j]), j) for j, x in row.items())[2]
        while True:
            p = row[c]
            for o in where[c] - {i}:  # row operations reduce the column
                other = rows[o]
                f = other[c] // p
                for j, x in row.items():
                    y = other.get(j, 0) - f * x
                    if y:
                        if j not in other:
                            where[j].add(o)
                        other[j] = y
                    elif j in other:
                        del other[j]
                        where[j].discard(o)
                if other:
                    heapq.heappush(heap, (len(other), o))
            if len(where[c]) > 1:  # a remainder is the next pivot
                i = min((abs(rows[o][c]), o) for o in where[c] - {i})[1]
                row = rows[i]
                continue
            if p == 1 or p == -1:  # a unit leaves no remainder in its row
                break
            rest = {j: r for j, x in row.items() if (r := x % p)}  # column operations
            if not rest:
                break
            for j in row.keys() - rest.keys() - {c}:
                del row[j]
                where[j].discard(i)
            row.update(rest)
            c = min((abs(x), len(where[j]), j) for j, x in rest.items())[2]
        diagonal.append(abs(p))
        for j in row:
            where[j].discard(i)
        rows[i] = {}
    return diagonal


@dataclass(frozen=True)
class AbelianShape:
    """Isomorphism type of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...]

    def describe(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts += [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "trivial"

    def to_json_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def abelianize(p: Presentation) -> AbelianShape:
    """Abelianization of the presented group, via Smith normal form.

    The relation matrix has one row of exponent sums per relator; it is
    passed to ``smith_normal_form`` as sparse rows, so its cost follows
    the nonzero entries rather than relators times generators. For the
    vertex presentation of an Artin group, ``artin_abelianization``
    gives the same answer in closed form.
    """
    gens = p.generators
    col = {g: i for i, g in enumerate(gens)}
    rows = [
        _SparseRow({col[name]: e for name, e in rel.exponent_sums().items()}, len(gens))
        for rel in p.relators
    ]
    factors = smith_normal_form(rows)
    nonzero = [d for d in factors if d != 0]
    return AbelianShape(len(gens) - len(nonzero), tuple(d for d in nonzero if d > 1))


def artin_abelianization(g: LabelledGraph) -> AbelianShape:
    """Abelianization of the Artin group on ``g``, in closed form.

    An edge with odd label m identifies its two generators in H_1 and an
    even label imposes nothing, so H_1 is free abelian of rank the number
    of odd-label components. O(V+E), and only the parity of a label is
    read: no relator is built.
    """
    return AbelianShape(len(odd_components(g)), ())


# fundamental group of a graph of groups


def gog_presentation(gog: GraphOfGroups) -> Presentation:
    """Presentation of the fundamental group of a graph of groups.

    Vertex-group generator copies stay duplicated; the edges of the
    maximal tree, the first edges in index order that close no cycle,
    contribute identification relators, remaining edges stable letters.
    Generators are sorted; relator order follows vertices then edges.
    """
    tree_edges = _spanning_tree(gog)

    graph_vertices = set(gog.graph.vertices) if gog.graph is not None else set()
    taken: set[str] = set()

    def claim(raw: str, suffix: str) -> str:
        final = raw if raw not in taken else _fresh(f"{raw}_{suffix}", taken)
        taken.add(final)
        return final

    names: dict[str, dict[str, str]] = {}  # vertex id -> raw name -> generator
    relators: list[Word] = []
    for v in gog.vertices:
        if not isinstance(v.group, GroupDescriptor):
            raise PreconditionError(f"unknown group descriptor {v.group!r}")
        own = names[v.id] = {raw: claim(raw, v.id) for raw in v.group.generators(graph_vertices)}
        relators += v.group.relators(own)

    for idx, e in enumerate(gog.edges):
        if e.injections is None:
            raise PreconditionError(f"edge {e.ends[0]} -- {e.ends[1]} carries no injections")
        left, right = (
            gog.vertex(end).group.embed(w, names[end]) for end, w in zip(e.ends, e.injections)
        )
        if idx in tree_edges:
            relators.append(left * right.inverse())
            continue
        raw = e.stable_letter if e.stable_letter is not None else f"t{idx}"
        t = Word.generator(claim(raw, f"loop{idx}"))
        relators.append(t * left * t.inverse() * right.inverse())

    return Presentation(tuple(sorted(taken)), tuple(relators))


def simplify_identifications(p: Presentation) -> Presentation:
    """Eliminate relators identifying one generator with another.

    Repeatedly takes the first two-letter relator s^e t^f with
    |e| = |f| = 1 and s distinct from t, substitutes the longer-named
    generator away, and free-reduces. This undoes the duplication in
    gog_presentation while leaving every other relation intact.

    Relators stay keyed by their position, with an index from each
    generator to the relators holding it and a min-heap of positions
    that hold identifications; an elimination rewrites only the relators
    holding the generator it drops. Relators rename themselves (``_renamed``,
    which with ``{}`` only free-reduces): an Artin relator in closed form,
    a word letter by letter. An Artin relator is never an identification.
    """
    rels: dict[int, Word] = {}
    holding: dict[str, set[int]] = {}
    pending: list[int] = []
    for i, r in enumerate(r._renamed({}) for r in p.relators):  # None when trivial
        if r is not None:
            rels[i] = r
            for name in r.support():
                holding.setdefault(name, set()).add(i)
            if _is_identification(r):
                pending.append(i)
    dropped: set[str] = set()
    while pending:
        target = heapq.heappop(pending)
        if target not in rels or not _is_identification(rels[target]):
            continue
        (n1, e1), (n2, e2) = rels.pop(target).letters
        sign = -e1 * e2
        keep, drop = sorted((n1, n2), key=lambda s: (len(s), s))
        holding[keep].discard(target)
        for i in holding.pop(drop):
            if i == target:
                continue
            old = rels.pop(i)
            for name in old.support():
                if name != drop:
                    holding[name].discard(i)
            reduced = old._renamed({drop: keep}, sign)
            if reduced is not None:
                rels[i] = reduced
                for name in reduced.support():
                    holding[name].add(i)
                if _is_identification(reduced):
                    heapq.heappush(pending, i)
        dropped.add(drop)
    gens = tuple(g for g in p.generators if g not in dropped)
    return Presentation._trusted(gens, tuple(rels[i] for i in sorted(rels)))


def _is_identification(r: Word) -> bool:
    if isinstance(r, _ArtinRelator) or len(r.letters) != 2:  # its letters would expand
        return False
    (n1, e1), (n2, e2) = r.letters
    return n1 != n2 and abs(e1) == 1 and abs(e2) == 1
