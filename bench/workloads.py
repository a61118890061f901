"""Seeded inputs and operation lists for the benchmark workloads.

``build(workload, seed, directory)`` writes the generated graph files into
``directory`` and returns the workload's fixed list of operations. Each
operation is one ``artin`` command line with its input size and the
check its output must pass. Only the generated text reaches the
program: no artin code runs here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks
from checks import GraphFacts, artin_relator, word_text

WORKLOADS = ("sparse-sweep", "block-trees", "dihedral-long")

# Sweeps as (smallest, largest, inputs per operation kind, power); the
# second entry is the tiny variant used by the benchmark's own tests.
SPARSE_SWEEP = ((50, 400, 13, 3), (12, 24, 2, 1))  # vertices
BLOCK_SWEEP = ((40, 200, 13, 4), (20, 36, 2, 1))  # vertices
WORD_SWEEP = ((1000, 100_000, 30, 4), (40, 200, 4, 1))  # letters
LABEL_SWEEP = ((1000, 300_000, 8, 3), (11, 61, 2, 1))  # edge label
WORD_LABELS = (2, 3, 4, 7, 1001, 1000)

LABELS = (2, 3, 4, 5, 6)
UNIFORM_BLOCKS = (("cycle", 8), ("complete", 4), ("cycle", 10), ("cycle", 6), ("complete", 5), ("cycle", 9))


@dataclass
class Op:
    """One command: ``kind`` names it for the per-kind statistics."""

    kind: str
    argv: list[str]
    size: int
    check: Callable[[int, str, str], str]


def build(workload: str, seed: int, directory: str, tiny: bool = False) -> list[Op]:
    """The operations in a seeded order that mixes sizes, so that a slow
    stretch of the machine does not land on one end of the sweep."""
    rng = random.Random(f"{workload}/{seed}")
    writer = _Writer(directory)
    if workload == "sparse-sweep":
        ops = _sparse_sweep(rng, writer, SPARSE_SWEEP[tiny])
    elif workload == "block-trees":
        ops = _block_trees(rng, writer, BLOCK_SWEEP[tiny])
    elif workload == "dihedral-long":
        ops = _dihedral_long(rng, writer, WORD_SWEEP[tiny], LABEL_SWEEP[tiny])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def stagger(sweep, kinds: int, kind: int) -> list[int]:
    """Input sizes of operation kind ``kind`` (0-based) out of ``kinds``.

    Each kind gets ``per_kind`` sizes from ``lo`` to ``hi``; log(size)
    grows as t ** power for equally spaced t, so power 2 puts more of them
    at the small end. The kinds are offset from each other, so their sizes
    interleave and the workload's latencies spread without the gaps
    between clusters that would make its percentiles jump between runs.
    """
    lo, hi, per_kind, power = sweep
    span = per_kind - 1 + (kinds - 1) / kinds
    return [round(lo * (hi / lo) ** (((i + kind / kinds) / span) ** power)) for i in range(per_kind)]


class _Writer:
    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def graph(self, edges, rng: random.Random | None = None) -> str:
        """Write a graph file; with ``rng`` its lines come in shuffled order."""
        lines = [f"e {u} {v} {m}" for u, v, m in edges]
        if rng is not None:
            rng.shuffle(lines)
        self.count += 1
        path = os.path.join(self.directory, f"g{self.count}.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path


def _random_word(rng: random.Random, names, letters: int):
    """Tokens name^e with e in +-1..3 until the letters (sum of |e|) reach ``letters``."""
    tokens = []
    total = 0
    while total < letters:
        e = rng.choice((1, -1, 2, -2, 3, -3))
        tokens.append((rng.choice(names), e))
        total += abs(e)
    return tokens


# sparse-sweep


def sparse_graph(rng: random.Random, n: int) -> list[tuple[str, str, int]]:
    """Random spanning tree plus n + 1 extra edges: mean degree about 4."""
    names = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        edges[frozenset((names[rng.randrange(i)], names[i]))] = rng.choice(LABELS)
    while len(edges) < 2 * n:
        u, v = rng.sample(names, 2)
        edges.setdefault(frozenset((u, v)), rng.choice(LABELS))
    return [(*sorted(k), m) for k, m in edges.items()]


SPARSE_KINDS = ("validate", "chunks", "split", "jsj", "jsj --collapsed", "acylindrical",
                "retract", "profile")


def _sparse_op(kind: str, path: str, facts: GraphFacts, size: int, rng) -> Op:
    if kind == "retract":
        giant = max(facts.blocks, key=len)
        word = _random_word(rng, facts.vertices, len(facts.vertices))
        argv = ["retract", path, str(facts.block_order.index(tuple(sorted(giant)))),
                word_text(word), "--json"]
        return Op(kind, argv, size, partial(checks.retract, facts, giant, word))
    check = {
        "validate": partial(checks.validate, facts),
        "chunks": partial(checks.chunks, facts),
        "split": partial(checks.split, facts),
        "jsj": partial(checks.jsj, facts, False),
        "jsj --collapsed": partial(checks.jsj, facts, True),
        "acylindrical": partial(checks.acylindrical, facts),
        "profile": partial(checks.profile, facts),
    }[kind]
    return Op(kind, kind.split()[:1] + [path] + kind.split()[1:] + ["--json"], size, check)


def _sparse_sweep(rng, writer, sweep) -> list[Op]:
    ops = []
    for k, kind in enumerate(SPARSE_KINDS):
        for n in stagger(sweep, len(SPARSE_KINDS), k):
            edges = sparse_graph(rng, n)
            facts = GraphFacts([f"v{i}" for i in range(n)], edges)
            ops.append(_sparse_op(kind, writer.graph(edges), facts, n + len(edges), rng))
    return ops


# block-trees


def block_tree(rng: random.Random, n: int):
    """A tree of 2-connected blocks with pendant leaves; returns (edges, blocks, toral leaves).

    Per 20 vertices there is one toral, one braided and one odd leaf, per
    40 vertices one block from UNIFORM_BLOCKS (vertex-transitive, one
    label), and random blocks fill the rest: a cycle plus up to k // 3 chords,
    with k drawn from shuffled decks of 3..12. Only labels, chord
    positions and attachment points vary much with the seed, so the
    cost of a graph of a given size does not.
    """
    leaves = max(1, n // 20)
    pieces = [("leaf", 2)] * leaves
    pieces += [("leaf", rng.choice((4, 6, 8))) for _ in range(leaves)]
    pieces += [("leaf", rng.choice((3, 5, 7))) for _ in range(leaves)]
    pieces += [UNIFORM_BLOCKS[i % len(UNIFORM_BLOCKS)] for i in range(max(1, n // 40))]
    deck: list[int] = []

    def draw() -> int:
        if not deck:
            deck.extend(range(3, 13))
            rng.shuffle(deck)
        return deck.pop()

    budget = n - 3 * leaves - sum(k - 1 for kind, k in pieces if kind != "leaf")
    first = draw()
    budget -= first
    while budget > 0:
        k = min(draw(), max(3, budget + 1))
        pieces.append(("random", k))
        budget -= k - 1
    rng.shuffle(pieces)

    names = iter(f"v{i}" for i in range(10 * n))
    edges: list[tuple[str, str, int]] = []
    blocks: list[frozenset] = []
    toral: list[tuple[str, str]] = []
    attachable: list[str] = []
    for kind, k in [("random", first)] + pieces:
        root = [rng.choice(attachable)] if attachable else []
        if kind == "leaf":
            tip = next(names)
            edges.append((root[0], tip, k))
            blocks.append(frozenset((root[0], tip)))
            if k == 2:
                toral.append((root[0], tip))
            continue
        members = root + [next(names) for _ in range(k - len(root))]
        rng.shuffle(members)
        if kind == "complete":
            m = rng.choice(LABELS)
            pairs = {(i, j): m for i in range(k) for j in range(i + 1, k)}
        else:
            m = rng.choice(LABELS) if kind == "cycle" else None
            pairs = {(i, (i + 1) % k) if i < k - 1 else (0, k - 1): m or rng.choice(LABELS)
                     for i in range(k)}
            if kind == "random":
                chords = [(i, j) for i in range(k) for j in range(i + 2, k) if (i, j) not in pairs]
                for key in rng.sample(chords, min(k // 3, len(chords))):
                    pairs[key] = rng.choice(LABELS)
        edges += [(members[i], members[j], lab) for (i, j), lab in pairs.items()]
        blocks.append(frozenset(members))
        attachable += [v for v in members if v not in root]
    return edges, blocks, toral


# The costliest kinds come first: stagger gives them the lowest sizes.
BLOCK_KINDS = ("compare relabelled", "compare toral-to-braided", "profile",
               "presentation --of-jsj --simplify", "abelianize", "split", "retract",
               "abelianize --of-jsj")


def _block_op(kind: str, rng, writer, n: int) -> Op:
    edges, blocks, toral = block_tree(rng, n)
    vertices = sorted({v for e in edges for v in e[:2]})
    facts = GraphFacts(vertices, edges, blocks)
    path = writer.graph(edges)
    size = len(vertices) + len(edges)
    if kind == "retract":
        chunk = rng.choice([b for b in blocks if len(b) >= 3])
        word = _random_word(rng, vertices, n)
        argv = ["retract", path, str(facts.block_order.index(tuple(sorted(chunk)))),
                word_text(word), "--json"]
        return Op(kind, argv, size, partial(checks.retract, facts, chunk, word))
    if kind == "compare relabelled":
        fresh = [f"w{i}" for i in range(len(vertices))]
        rng.shuffle(fresh)
        rename = dict(zip(vertices, fresh))
        other = writer.graph([(rename[u], rename[v], m) for u, v, m in edges], rng)
        return Op(kind, ["compare", path, other, "--json"], size,
                  partial(checks.compare, "Consistent", ()))
    if kind == "compare toral-to-braided":
        leaf = set(rng.choice(toral))
        other = writer.graph([(u, v, 4 if {u, v} == leaf else m) for u, v, m in edges], rng)
        return Op(kind, ["compare", path, other, "--json"], size,
                  partial(checks.compare, "NonIsomorphic",
                          ("ToralLeafCountMismatch", "BraidedLeafLabelMismatch")))
    check = {
        "abelianize": partial(checks.abelianize, facts),
        "abelianize --of-jsj": partial(checks.abelianize, facts),
        "presentation --of-jsj --simplify": partial(checks.presentation_rank, facts),
        "profile": partial(checks.profile, facts),
        "split": partial(checks.split, facts),
    }[kind]
    return Op(kind, kind.split()[:1] + [path] + kind.split()[1:] + ["--json"], size, check)


def _block_trees(rng, writer, sweep) -> list[Op]:
    return [_block_op(kind, rng, writer, n)
            for k, kind in enumerate(BLOCK_KINDS)
            for n in stagger(sweep, len(BLOCK_KINDS), k)]


# dihedral-long


LABEL_KINDS = ("dihedral-jsj", "profile", "abelianize", "jsj", "presentation")


def _dihedral_long(rng, writer, word_sweep, label_sweep) -> list[Op]:
    """Words cycle through WORD_LABELS; dihedral-eq pairs alternate between
    a relator inserted (equal) and one letter appended (different) every
    six words, so every label meets both. Label operations use odd labels,
    so that the dihedral JSJ prints its length-m legend word."""
    ops = []
    for i, letters in enumerate(stagger(word_sweep, 2, 0)):
        n = WORD_LABELS[i % len(WORD_LABELS)]
        u = _random_word(rng, "ab", letters)
        ops.append(Op("dihedral-nf", ["dihedral-nf", str(n), word_text(u), "--json"],
                      letters, partial(checks.dihedral_nf, n, u)))
    for i, letters in enumerate(stagger(word_sweep, 2, 1)):
        n = WORD_LABELS[i % len(WORD_LABELS)]
        u = _random_word(rng, "ab", letters)
        equal = (i // len(WORD_LABELS)) % 2 == 0
        if equal:
            at = rng.randrange(len(u) + 1)
            v = u[:at] + artin_relator("a", "b", n) + u[at:]
        else:
            v = u + [(rng.choice("ab"), 1)]
        ops.append(Op("dihedral-eq", ["dihedral-eq", str(n), word_text(u), word_text(v), "--json"],
                      letters, partial(checks.dihedral_eq, equal)))
    for k, kind in enumerate(LABEL_KINDS):
        for m in stagger(label_sweep, len(LABEL_KINDS), k):
            m |= 1
            if kind == "dihedral-jsj":
                ops.append(Op(kind, [kind, str(m)], m, partial(checks.dihedral_jsj, m)))
                continue
            if kind == "jsj":
                # a star with an odd, a braided and a toral leaf at s
                facts = GraphFacts(["p", "q", "r", "s"], [("p", "s", m), ("q", "s", m - 1), ("r", "s", 2)])
            else:
                facts = GraphFacts(["a", "b"], [("a", "b", m)])
            check = {
                "profile": partial(checks.profile, facts),
                "abelianize": partial(checks.abelianize, facts),
                "jsj": partial(checks.jsj, facts, False),
                "presentation": partial(checks.presentation_exact, facts),
            }[kind]
            ops.append(Op(kind, [kind, writer.graph(facts.edges), "--json"], m, check))
    return ops
