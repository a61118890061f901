"""Isomorphism invariants of Artin groups read off the chunk decomposition.

For connected defining graphs the following data is an invariant of the
group, not just the graph: the number of chunks, the number of toral
leaves (equal to the first Betti number of the decomposition), the
multiset of braided leaf labels, the number of label 2 non-leaf edge
chunks, and the abelianization. Comparing two profiles therefore gives a
certified NonIsomorphic verdict when any of those disagree.

Graph-level data that is not known to be a group invariant (canonical
forms of the big chunks, odd leaf labels) is carried along and reported
as inconclusive notes only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import (
    CHUNK_BIG_BIG,
    CHUNK_BRAIDED_LEAF,
    CHUNK_LABEL2_NONLEAF,
    CHUNK_ODD_LEAF,
    CHUNK_TORAL_LEAF,
    LabelledGraph,
    big_chunks,
    canonical_form,
)
from .presentations import AbelianShape, artin_abelianization

VERDICT_NON_ISOMORPHIC = "NonIsomorphic"
VERDICT_CONSISTENT = "Consistent"

CHUNK_COUNT_MISMATCH = "ChunkCountMismatch"
TORAL_LEAF_COUNT_MISMATCH = "ToralLeafCountMismatch"
BRAIDED_LEAF_LABEL_MISMATCH = "BraidedLeafLabelMismatch"
LABEL2_NONLEAF_MISMATCH = "Label2NonLeafEdgeCountMismatch"
ABELIANIZATION_MISMATCH = "AbelianizationMismatch"

TORSION_FREE_NOTE = "assuming torsion-free"

# the certified fields of a profile, in the order of their mismatch reasons
_CERTIFIED = (
    ("chunk_count", CHUNK_COUNT_MISMATCH),
    ("toral_leaf_count", TORAL_LEAF_COUNT_MISMATCH),
    ("braided_leaf_labels", BRAIDED_LEAF_LABEL_MISMATCH),
    ("label2_nonleaf_edge_count", LABEL2_NONLEAF_MISMATCH),
    ("abelianization", ABELIANIZATION_MISMATCH),
)


@dataclass(frozen=True)
class InvariantProfile:
    """Certified invariants plus inconclusive graph-level extras."""

    chunk_count: int
    toral_leaf_count: int
    braided_leaf_labels: tuple[int, ...]
    label2_nonleaf_edge_count: int
    abelianization: AbelianShape
    betti: int
    bigbig_canonical_forms: tuple[bytes, ...]
    odd_leaf_labels: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "chunk_count": self.chunk_count,
            "toral_leaf_count": self.toral_leaf_count,
            "braided_leaf_labels": list(self.braided_leaf_labels),
            "label2_nonleaf_edge_count": self.label2_nonleaf_edge_count,
            "abelianization": self.abelianization.to_json_dict(),
            "betti": self.betti,
            "bigbig_canonical_forms": [f.decode("ascii") for f in self.bigbig_canonical_forms],
            "odd_leaf_labels": list(self.odd_leaf_labels),
        }


def profile(g: LabelledGraph) -> InvariantProfile:
    """Invariant profile of the Artin group on a connected graph."""
    decomp = big_chunks(g)
    if len(g.vertices) < 2:
        raise PreconditionError("profiles need at least two vertices")
    classes = decomp.classes()
    toral = sum(1 for k in classes if k.kind == CHUNK_TORAL_LEAF)
    braided = tuple(sorted(k.label for k in classes if k.kind == CHUNK_BRAIDED_LEAF))
    label2_nonleaf = sum(1 for k in classes if k.kind == CHUNK_LABEL2_NONLEAF)
    odd_leaf = tuple(sorted(k.label for k in classes if k.kind == CHUNK_ODD_LEAF))
    bigbig = tuple(
        sorted(
            canonical_form(c.graph)
            for c, k in zip(decomp.chunks, classes)
            if k.kind == CHUNK_BIG_BIG
        )
    )
    shape = artin_abelianization(g)
    # Betti number of gog.build_jsj(g) off the block-cut tree: an edge per incidence and
    # a loop per toral leaf, a vertex per chunk and per separating vertex (a braided
    # leaf's red vertex and red edge cancel); it equals toral when the incidence is a tree.
    incidences = sum(len(idxs) for _, idxs in decomp.incidence)
    betti = incidences + toral - len(decomp.chunks) - len(decomp.separating) + 1
    assert betti == toral, "the block-cut incidence must be a tree"
    return InvariantProfile(
        chunk_count=len(decomp.chunks),
        toral_leaf_count=toral,
        braided_leaf_labels=braided,
        label2_nonleaf_edge_count=label2_nonleaf,
        abelianization=shape,
        betti=betti,
        bigbig_canonical_forms=bigbig,
        odd_leaf_labels=odd_leaf,
    )


@dataclass(frozen=True)
class CompareVerdict:
    """Certified comparison outcome.

    ``reasons`` lists certified group-level mismatches (nonempty exactly
    for NonIsomorphic); ``notes`` lists graph-level differences that do
    not certify anything.
    """

    verdict: str
    reasons: tuple[str, ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "notes": list(self.notes),
        }


def compare(p: InvariantProfile, q: InvariantProfile) -> CompareVerdict:
    """Compare two profiles; NonIsomorphic only on certified invariants."""
    reasons = [reason for field, reason in _CERTIFIED if getattr(p, field) != getattr(q, field)]

    notes = []
    if p.bigbig_canonical_forms != q.bigbig_canonical_forms:
        notes.append(
            "inconclusive: big chunk canonical forms differ"
            " (a graph-level difference, not a certified group invariant)"
        )
    if p.odd_leaf_labels != q.odd_leaf_labels:
        notes.append(
            "inconclusive: odd leaf labels differ"
            " (not a certified group invariant)"
        )

    if reasons:
        return CompareVerdict(VERDICT_NON_ISOMORPHIC, tuple(reasons), tuple(notes))
    return CompareVerdict(VERDICT_CONSISTENT, (), tuple(notes))


@dataclass(frozen=True)
class AcylindricityVerdict:
    """Acylindrical hyperbolicity of Aut of the Artin group.

    ``value`` says whether the criterion certifies it; False proves
    nothing. ``witness`` is a pair (s, t): s a separating vertex and t a
    vertex generating with s a non-abelian dihedral or free subgroup (no
    edge, or an edge labelled at least 3).
    """

    value: bool
    witness: tuple[str, str] | None
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "acylindrically_hyperbolic": self.value,
            "witness": None if self.witness is None else list(self.witness),
            "reason": self.reason,
        }


def aut_acylindrically_hyperbolic(g: LabelledGraph) -> AcylindricityVerdict:
    """Decide the acylindrical hyperbolicity criterion for Aut.

    True when some separating vertex s fails to be central in the group:
    some vertex t has no edge to s, or an edge labelled at least 3. The
    verdict applies to the automorphism group of the Artin group,
    assuming torsion-free throughout. The criterion is sufficient, not
    necessary: False means only that it does not apply, and the question
    stays open (the CLI prints "not established").
    """
    decomp = big_chunks(g)
    if len(g.vertices) < 3:
        raise PreconditionError("the criterion applies to graphs on >= 3 vertices")
    for s in decomp.separating:
        for t in g.vertices:
            if t == s:
                continue
            if not g.has_edge(s, t) or g.label(s, t) >= 3:
                return AcylindricityVerdict(
                    True,
                    (s, t),
                    f"separating vertex {s} and vertex {t} generate a"
                    f" non-abelian dihedral or free subgroup ({TORSION_FREE_NOTE})",
                )
    if decomp.separating:
        return AcylindricityVerdict(
            False,
            None,
            "every separating vertex is central: all other vertices are"
            f" adjacent with label 2 ({TORSION_FREE_NOTE})",
        )
    return AcylindricityVerdict(
        False,
        None,
        f"no separating vertex ({TORSION_FREE_NOTE})",
    )
