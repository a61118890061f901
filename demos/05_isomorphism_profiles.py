"""
Isomorphism-invariant profiles and certified comparison
=======================================================

Two labelled graphs can present isomorphic Artin groups even when the
graphs differ, so naive graph comparison proves nothing. The profile
collects quantities that are invariant under group isomorphism; the
comparison then either certifies non-isomorphism with named reasons or
stays agnostic.
"""

from artin import aut_acylindrically_hyperbolic, compare, parse_graph, profile


def star(m1, m2, m3):
    return parse_graph(f"e s p {m1}\ne s q {m2}\ne s r {m3}\n")


base = profile(star(2, 4, 5))
print("profile of the (2,4,5) star:")
for key, value in base.to_json_dict().items():
    print(f"  {key}: {value}")

# Changing an odd leaf label is invisible to the certified invariants:
# the comparison stays consistent but points out the uncertainty.
res = compare(base, profile(star(2, 4, 7)))
print("\n(2,4,5) vs (2,4,7):", res.verdict)
for note in res.notes:
    print("  note:", note)

# Changing the braided leaf label is certified.
res = compare(base, profile(star(2, 6, 5)))
print("(2,4,5) vs (2,6,5):", res.verdict, "| reasons:", ", ".join(res.reasons))

# So is changing the toral leaf count, which also moves the
# abelianization.
res = compare(base, profile(star(3, 4, 5)))
print("(2,4,5) vs (3,4,5):", res.verdict, "| reasons:", ", ".join(res.reasons))

# Acylindrical hyperbolicity of the automorphism group: certified by a
# separating vertex s together with a vertex t that is not forced to
# commute with it. Without such a pair the criterion proves nothing.
for text, name in (
    ("e a b 3\ne b c 2\n", "path"),
    ("e s p 2\ne s q 2\ne s r 2\n", "star with all labels 2"),
    ("e a b 3\ne b c 4\ne a c 5\n", "triangle"),
):
    res = aut_acylindrically_hyperbolic(parse_graph(text))
    answer = "yes" if res.value else "not established"
    extra = f", witness {res.witness}" if res.witness else ""
    print(f"{name}: {answer}{extra}")
