"""
Chunk decompositions and splittability
======================================

A labelled graph defines an Artin group: one generator per vertex, and
for each edge with label m the relation that the two endpoint
generators satisfy an alternating braid relation of length m. This
script walks through the chunk decomposition of a few graphs and the
splittability verdicts it certifies.
"""

from artin import big_chunks, parse_graph, retract_word, splits_over_cyclic, Word

# A fan: a triangle {a, c, e} with two extra leaves hanging off a.
FAN = """
# triangle with two leaves at a
e a b 2
e a c 3
e a d 6
e a e 4
e c e 2
"""

g = parse_graph(FAN)
print("graph:")
print(g.to_text())

# The chunks are the pieces left after cutting at separating vertices:
# maximal connected subgraphs with no internal cut vertex.
decomp = big_chunks(g)
for i, (chunk, cls) in enumerate(zip(decomp.chunks, decomp.classes())):
    print(f"chunk {i}: {{{','.join(chunk.vertices)}}} classified {cls}")
print("separating vertices:", ", ".join(decomp.separating))

# Each chunk subgroup is a retract of the whole group: any word over the
# vertex generators can be pushed onto a chunk letter by letter.
w = Word.from_text("b c d^2 e^-1")
chunk = decomp.chunks[2]
print(f"retract of {w.to_text()} onto {{{','.join(chunk.vertices)}}}:",
      retract_word(decomp, 2, w).to_text())

# The splitting verdict explains whether (and how) the group splits
# over a cyclic subgroup.
verdict = splits_over_cyclic(g)
print("verdict:", verdict.verdict)
print("split at:", verdict.vertex, "with sides",
      "{" + ",".join(verdict.left) + "}", "{" + ",".join(verdict.right) + "}")
print("number of ends:", verdict.ends)

# A triangle has no separating vertex, so it admits no such splitting.
tri = parse_graph("e a b 3\ne b c 4\ne a c 5\n")
print("triangle verdict:", splits_over_cyclic(tri).verdict)

# Degenerate shapes get their own names. A single vertex is Z; a single
# edge splits as an amalgam witnessed by the dihedral decomposition.
print("single vertex:", splits_over_cyclic(parse_graph("v a\n")).verdict)
print("single edge, label 2:", splits_over_cyclic(parse_graph("e a b 2\n")).verdict)
print("single edge, label 7:", splits_over_cyclic(parse_graph("e a b 7\n")).verdict)
