"""Deciding whether an Artin group splits over a (virtually) cyclic subgroup.

For a connected defining graph on at least three vertices the group
splits over an infinite cyclic subgroup exactly when the graph has a
separating vertex v, and then A = A_left *_<v> A_right is a visual
witness. With no separating vertex there is no splitting over any
virtually cyclic subgroup, trivial or not. Small and disconnected graphs
get the degenerate verdicts: a single vertex gives Z, a single edge gives
Z^2 (label 2) or a dihedral Artin group with its edge-label splitting,
a disconnected graph gives a free product (free of rank two when both
pieces are single vertices). One-endedness matches connectivity on at
least two vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedGraphError, PreconditionError
from .graphs import LabelledGraph, big_chunks

NO_SPLIT = "NoSplit"
VISUAL_SPLIT = "VisualSplit"
DIHEDRAL_SPLIT = "DihedralSplit"
ABELIAN_RANK_TWO = "AbelianRankTwo"
FREE_PRODUCT_SPLIT = "FreeProductSplit"
FREE_RANK_TWO = "FreeRankTwo"
INFINITE_CYCLIC = "InfiniteCyclic"

ONE_ENDED = "OneEnded"
MORE_THAN_ONE_END = "MoreThanOneEnd"


@dataclass(frozen=True)
class SplitVerdict:
    """Splittability verdict with witness data.

    ``vertex``/``left``/``right`` are set for visual splittings: the
    amalgam over <vertex> of the parabolic subgroups on the two sides,
    which intersect exactly in the vertex. ``label`` is set for a single
    dihedral edge, ``components`` for free products of the components.
    """

    verdict: str
    ends: str
    vertex: str | None = None
    left: tuple[str, ...] | None = None
    right: tuple[str, ...] | None = None
    label: int | None = None
    components: tuple[tuple[str, ...], ...] | None = None

    def to_json_dict(self) -> dict:
        witness: dict = {}
        if self.vertex is not None:
            witness = {
                "vertex": self.vertex,
                "left": list(self.left),
                "right": list(self.right),
            }
        elif self.label is not None:
            witness = {"label": self.label}
        elif self.components is not None:
            witness = {"components": [list(c) for c in self.components]}
        return {"verdict": self.verdict, "witness": witness, "ends": self.ends}


def splits_over_cyclic(g: LabelledGraph) -> SplitVerdict:
    """Decide splittability of the Artin group over (virtually) cyclic subgroups."""
    n = len(g.vertices)
    if n == 0:
        raise PreconditionError("empty graph has no associated group")
    try:
        decomp = big_chunks(g)
    except DisconnectedGraphError as e:
        verdict = FREE_RANK_TWO if n == 2 else FREE_PRODUCT_SPLIT
        return SplitVerdict(verdict, MORE_THAN_ONE_END, components=e.components)
    if n == 1:
        return SplitVerdict(INFINITE_CYCLIC, MORE_THAN_ONE_END)
    if n == 2:
        m = g.edges[0][2]
        return SplitVerdict(ABELIAN_RANK_TWO if m == 2 else DIHEDRAL_SPLIT, ONE_ENDED, label=m)
    if len(decomp.chunks) == 1:
        return SplitVerdict(NO_SPLIT, ONE_ENDED)

    v = decomp.separating[0]
    left, right = _sides(decomp, v)
    return SplitVerdict(VISUAL_SPLIT, ONE_ENDED, vertex=v, left=left, right=right)


def _sides(decomp, v: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split the chunks at v: the side of the first chunk versus the rest.

    The first side holds the chunks that the block-cut tree reaches from
    chunk 0 without passing v; both sides contain v and intersect only
    in it.
    """
    reached = decomp.reached(0, v)
    left_set: set[str] = set()
    right_set: set[str] = set()
    for i, chunk in enumerate(decomp.chunks):
        (left_set if i in reached else right_set).update(chunk.vertices)
    assert v in left_set and v in right_set
    assert left_set & right_set == {v}
    return tuple(sorted(left_set)), tuple(sorted(right_set))
