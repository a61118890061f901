"""
Graphs of groups: the decomposition gallery
===========================================

The chunk decomposition refines into a graph of groups over cyclic
edge groups. Black vertices carry chunk data, white vertices carry the
separating vertices, and the two kinds of leaf edge get special
treatment: a label-2 leaf becomes a loop (an HNN extension of Z), and
an even leaf with label 2m >= 4 grows a red vertex <r> glued along
r^m = z into the free abelian pair <base, z>.
"""

import os

from artin import build_jsj, collapse_jsj, dihedral_jsj, parse_graph
from artin.gog import betti_number

FAN = "e a b 2\ne a c 3\ne a d 6\ne a e 4\ne c e 2\n"

g = parse_graph(FAN)
gog = build_jsj(g)

print("vertices:")
for v in gog.vertices:
    print(f"  {v.color:5s} {v.id:8s} {v.group.describe()}")
print("edges:")
for e in gog.edges:
    stable = f" stable letter {e.stable_letter}" if e.stable_letter else ""
    images = ", ".join(w.to_text() for w in e.injections)
    print(f"  {e.ends[0]} -- {e.ends[1]}: images {images}{stable}")
print("betti number (loops in the base graph):", betti_number(gog))

# Collapsing forgets loops and red vertices; the black vertices then
# carry the whole chunk parabolic. The result is a tree.
flat = collapse_jsj(gog)
print("collapsed:", len(flat.vertices), "vertices,", len(flat.edges), "edges,",
      "betti", betti_number(flat))

# DOT output for rendering with Graphviz.
out = os.path.join(os.path.dirname(__file__) or ".", "fan_jsj.dot")
with open(out, "w", encoding="utf-8") as fh:
    fh.write(gog.to_dot())
print("wrote", out)

# Dihedral Artin groups have their own decomposition, depending on the
# parity of the label. Odd: an amalgam of two copies of Z. Even: an
# HNN extension of Z. Label 2 is Z^2, which admits no such splitting.
for n in (3, 6):
    dg = dihedral_jsj(n)
    kind = "amalgam" if len(dg.vertices) == 2 else "HNN extension"
    print(f"label {n}: {kind};", "legend:",
          "; ".join(f"{s} = {w.to_text()}" for s, w in dg.legend))
