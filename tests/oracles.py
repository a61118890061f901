"""Brute-force oracles, independent of the library implementations.

The chunk oracle enumerates every induced subgraph and applies the
definition of a big chunk literally: connected, no separating vertex,
maximal among such. The Smith oracle recovers invariant factors from
gcds of k-by-k minors. The retraction oracle measures every distance by
breadth-first search from every vertex. These are written against plain
adjacency data, not the library graph algorithms.

Three more are the library's earlier, simpler algorithms, kept as second
methods for the fast ones: the dense Smith normal form that rescans the
matrix for each pivot, identification elimination that rewrites every
relator after each step, the recursive enumeration of freely reduced
words, the dihedral normal form with one engine per label parity,
which settles an even label's powers of y only when an x follows, and
the root bound search that rebuilds and reduces w^k for each degree k.

The Artin relator of an edge is expanded letter by letter from two
alternating words, as the library once built it, and powers of a word
are recognised by comparing unit by unit.

The canonical form has two: the earlier depth-first search with prefix
pruning and interchangeable pairs only, over a refinement that scans the
full label matrix, and for 7 or fewer vertices a brute force that tries
every ordering fitting the refinement classes.

The dihedral JSJ is certified by a pair of inverse maps between its
presentation and the Artin group's, checked on generators and relators
by free reduction and the dihedral normal form oracle.

The corpus's random connected graph keeps its earlier loop here, which
builds the sorted name pair of every vertex pair before testing it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd

from artin import LabelledGraph, Presentation, Word, alternating, membership_a_z, normal_form
from artin.dihedral import AbelianNormalForm, EvenNormalForm, OddNormalForm
from artin.presentations import _ArtinRelator


def _adjacency_masks(g):
    verts = list(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v, _ in g.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return verts, adj


def _mask_connected(mask: int, adj) -> bool:
    if mask == 0:
        return False
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        reach = 0
        m = frontier
        while m:
            bit = m & -m
            m ^= bit
            reach |= adj[bit.bit_length() - 1]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


def oracle_big_chunks(g):
    """All maximal connected induced subgraphs without separating vertices."""
    verts, adj = _adjacency_masks(g)
    n = len(verts)
    good = []
    for mask in range(1, 1 << n):
        if not _mask_connected(mask, adj):
            continue
        ok = True
        probe = mask
        while probe:
            bit = probe & -probe
            probe ^= bit
            rest = mask ^ bit
            if rest and not _mask_connected(rest, adj):
                ok = False
                break
        if ok:
            good.append(mask)
    good.sort(key=lambda m: -bin(m).count("1"))
    maximal = []
    for mask in good:
        if not any(mask | kept == kept for kept in maximal):
            maximal.append(mask)
    out = [
        tuple(verts[i] for i in range(n) if mask >> i & 1)
        for mask in maximal
    ]
    return sorted(out, key=lambda t: (t[0], len(t), t))


def oracle_separating(g):
    """Vertices whose removal increases the component count."""
    verts, adj = _adjacency_masks(g)
    n = len(verts)
    full = (1 << n) - 1

    def comp_count(mask):
        count = 0
        left = mask
        while left:
            start = left & -left
            seen = start
            frontier = start
            while frontier:
                reach = 0
                m = frontier
                while m:
                    bit = m & -m
                    m ^= bit
                    reach |= adj[bit.bit_length() - 1]
                frontier = reach & mask & ~seen
                seen |= frontier
            left &= ~seen
            count += 1
        return count

    base = comp_count(full)
    out = []
    for i in range(n):
        rest = full ^ (1 << i)
        if rest == 0:
            continue
        isolated = adj[i] == 0
        if comp_count(rest) > base - (1 if isolated else 0):
            out.append(verts[i])
    return tuple(out)


def oracle_reached(g, chunks, j: int, s: str) -> set[int]:
    """Indexes of the chunks whose vertices other than s lie in the
    component of g - s holding chunk j's other vertices (j alone when it
    has none). ``chunks`` lists each chunk's vertex tuple."""
    verts, adj = _adjacency_masks(g)
    index = {v: i for i, v in enumerate(verts)}
    rest = (1 << len(verts)) - 1 & ~(1 << index[s])

    def others(vertices):
        return sum(1 << index[v] for v in vertices if v != s)

    start = others(chunks[j])
    if not start:
        return {j}
    seen = frontier = start & -start
    while frontier:
        reach = 0
        for i in range(len(verts)):
            if frontier >> i & 1:
                reach |= adj[i]
        frontier = reach & rest & ~seen
        seen |= frontier
    return {k for k, c in enumerate(chunks) if others(c) and others(c) | seen == seen}


def oracle_retraction(g, chunk_vertices):
    """Each vertex mapped to the sorted tuple of its nearest chunk vertices.

    Breadth-first search from every vertex of the graph (all pairs), the
    nearest chunk vertices being those at least distance.
    """
    adj = {v: [] for v in g.vertices}
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    out = {}
    for start in g.vertices:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        best = min(dist[c] for c in chunk_vertices)
        out[start] = tuple(sorted(c for c in chunk_vertices if dist[c] == best))
    return out


def oracle_invariant_factors(matrix):
    """Invariant factors via gcds of k-by-k minors: d_k = g_k / g_{k-1}."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    k_max = min(nrows, ncols)
    if k_max == 0:
        return ()
    entries = tuple(tuple(row) for row in matrix)

    @lru_cache(maxsize=None)
    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = 0
        sign = 1
        rest = rows[1:]
        for i, c in enumerate(cols):
            a = entries[rows[0]][c]
            if a:
                total += sign * a * det(rest, cols[:i] + cols[i + 1:])
            sign = -sign
        return total

    factors = []
    g_prev = 1
    for k in range(1, k_max + 1):
        g_k = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                g_k = gcd(g_k, det(rows, cols))
                if g_k == 1:
                    break
            if g_k == 1:
                break
        if g_k == 0:
            factors += [0] * (k_max - k + 1)
            break
        factors.append(g_k // g_prev)
        g_prev = g_k
    det.cache_clear()
    return tuple(factors)


def oracle_dense_snf(matrix):
    """Invariant factors by dense pivoting on a least nonzero entry, zeros trailing.

    The whole matrix is rescanned for every pivot.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    k = min(nrows, ncols)
    if k == 0:
        return ()
    m = rows
    diag = []
    t = 0
    while t < k:
        pivot_pos = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                val = abs(m[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot_pos = (i, j)
        if pivot_pos is None:
            break
        pi, pj = pivot_pos
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
            p = m[t][t]
            restart = False
            for i in range(nrows):
                if i != t and m[i][t]:
                    q = m[i][t] // p
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(ncols):
                if j != t and m[t][j]:
                    q = m[t][j] // p
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        restart = True
                        break
            if restart:
                continue
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if m[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
        diag.append(m[t][t])
        t += 1
    return tuple(diag) + (0,) * (k - len(diag))


def oracle_artin_relator(u: str, v: str, m: int, a: int = 1, b: int = 1) -> Word:
    """The relator of an edge u-v labelled m, expanded letter by letter.

    alternating(u, v, m) * alternating(v, u, m).inverse(), with every
    letter of u raised to the sign a and every letter of v to b.
    """
    word = alternating(u, v, m) * alternating(v, u, m).inverse()
    sign = {u: a, v: b}
    return Word(tuple((n, e * sign[n]) for n, e in word.letters))


def oracle_word(r) -> Word:
    """A relator as a word: closed-form Artin relators are expanded, words kept."""
    if isinstance(r, _ArtinRelator):
        return oracle_artin_relator(r.u, r.v, r.m, r.a, r.b)
    return r


def oracle_expanded(p) -> Presentation:
    """The presentation with every relator expanded to a word."""
    return Presentation(p.generators, tuple(map(oracle_word, p.relators)))


def oracle_power_of(w: Word, base: Word):
    """Exponent k with w = base^k, comparing unit by unit, or None."""

    def units(word):
        out = []
        for name, exp in word.letters:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                out.append((name, sign))
        return out

    lw = len(units(w))
    lb = len(units(base))
    if lw == 0:
        return 0
    if lb == 0 or lw % lb:
        return None
    k = lw // lb
    if units(w) == units(base) * k:
        return k
    if units(w) == units(base.inverse()) * k:
        return -k
    return None


def oracle_simplify_identifications(p):
    """Identification elimination by rescanning every relator after each step.

    Takes the first two-letter relator s^e t^f (|e| = |f| = 1, s != t),
    substitutes the shortlex-larger name away in every relator, and
    free-reduces, until no such relator is left. Artin relators are
    expanded to words first.
    """
    gens = list(p.generators)
    rels = [oracle_word(r).free_reduce() for r in p.relators]
    rels = [r for r in rels if r.letters]
    while True:
        target = None
        for i, r in enumerate(rels):
            if len(r.letters) != 2:
                continue
            (n1, e1), (n2, e2) = r.letters
            if n1 != n2 and abs(e1) == 1 and abs(e2) == 1:
                target = i
                break
        if target is None:
            break
        (n1, e1), (n2, e2) = rels[target].letters
        sign = -e1 * e2
        keep, drop = sorted((n1, n2), key=lambda s: (len(s), s))
        rels.pop(target)
        out = []
        for r in rels:
            letters = tuple(
                (keep, e * sign) if n == drop else (n, e) for n, e in r.letters
            )
            reduced = Word(letters).free_reduce()
            if reduced.letters:
                out.append(reduced)
        rels = out
        gens.remove(drop)
    return Presentation(tuple(gens), tuple(rels))


def oracle_reduced_words(max_len: int):
    """Freely reduced nonempty words over a, b up to max_len, by recursion."""
    units = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]

    def extend(prefix: list):
        if prefix:
            yield Word(tuple(prefix))
        if len(prefix) == max_len:
            return
        for name, exp in units:
            if prefix and prefix[-1][0] == name and prefix[-1][1] == -exp:
                continue
            prefix.append((name, exp))
            yield from extend(prefix)
            prefix.pop()

    yield from extend([])


def oracle_root_bound_search(n: int, max_len: int, max_degree: int):
    """The root bound search on an even label n >= 4, with w^k rebuilt
    and reduced from scratch for each degree k.

    Returns the hits (w, k, (i, j)) for degrees n/2 < k <= max_degree
    with gcd(i, j) = 1, and the membership of every w^k in <a, z> keyed
    by (w, k) for 1 <= k <= max_degree, over the words up to max_len
    deduplicated by normal form.
    """
    m = n // 2
    seen: set = set()
    hits, memberships = [], {}
    for w in oracle_reduced_words(max_len):
        nf = normal_form(n, w)
        key = (nf.central, nf.syllables)
        if key in seen:
            continue
        seen.add(key)
        for k in range(1, max_degree + 1):
            res = memberships[w, k] = membership_a_z(n, w ** k)
            if k > m and res is not None and gcd(res[0], res[1]) == 1:
                hits.append((w, k, res))
    return tuple(hits), memberships


class _OddEngine:
    """Reduced form in Z/2 * Z/n with the central exponent of c tracked."""

    def __init__(self, n: int):
        self.n = n
        self.central = 0
        self.stack: list[list] = []

    def push(self, sym: str, exp: int):
        if self.stack and self.stack[-1][0] == sym:
            self.stack[-1][1] += exp
        else:
            self.stack.append([sym, exp])
        modulus = 2 if sym == "x" else self.n
        e = self.stack[-1][1]
        r = e % modulus
        self.central += (e - r) // modulus
        if r == 0:
            self.stack.pop()
        else:
            self.stack[-1][1] = r

    def result(self, label: int) -> OddNormalForm:
        return OddNormalForm(label, self.central, tuple((s, e) for s, e in self.stack))


class _EvenEngine:
    """Reduced form in Z/m * Z with the central exponent of z = y^m tracked."""

    def __init__(self, m: int):
        self.m = m
        self.central = 0
        self.stack: list[list] = []

    def _settle_y(self):
        top = self.stack[-1]
        r = top[1] % self.m
        self.central += (top[1] - r) // self.m
        if r == 0:
            self.stack.pop()
        else:
            top[1] = r

    def push(self, sym: str, exp: int):
        if sym == "y":
            if self.stack and self.stack[-1][0] == "y":
                self.stack[-1][1] += exp
                if self.stack[-1][1] == 0:
                    self.stack.pop()
            else:
                self.stack.append(["y", exp])
            return
        if self.stack and self.stack[-1][0] == "y":
            self._settle_y()
        if self.stack and self.stack[-1][0] == "x":
            self.stack[-1][1] += exp
            if self.stack[-1][1] == 0:
                self.stack.pop()
        else:
            self.stack.append(["x", exp])

    def result(self, label: int) -> EvenNormalForm:
        if self.stack and self.stack[-1][0] == "y":
            self._settle_y()
        return EvenNormalForm(label, self.central, tuple((s, e) for s, e in self.stack))


def oracle_normal_form(n: int, w: Word):
    """Dihedral normal form of a valid word over a, b on a label n >= 2."""
    if n == 2:
        sums = w.exponent_sums()
        return AbelianNormalForm(2, sums.get("a", 0), sums.get("b", 0))
    if n % 2 == 1:
        h = (n - 1) // 2
        eng = _OddEngine(n)
        for name, exp in w.letters:
            steps = abs(exp)
            if name == "a":
                seq = ((("y", -h), ("x", 1)) if exp > 0 else (("x", -1), ("y", h)))
            else:
                seq = ((("x", -1), ("y", h + 1)) if exp > 0 else (("y", -h - 1), ("x", 1)))
            for _ in range(steps):
                for s, e in seq:
                    eng.push(s, e)
        return eng.result(n)
    meng = _EvenEngine(n // 2)
    for name, exp in w.letters:
        if name == "a":
            meng.push("x", exp)
            continue
        seq = (("x", -1), ("y", 1)) if exp > 0 else (("y", -1), ("x", 1))
        for _ in range(abs(exp)):
            for s, e in seq:
                meng.push(s, e)
    return meng.result(n)


def _substituted(w: Word, images: dict) -> Word:
    """The word with each letter n^e replaced by images[n] ** e, not reduced."""
    return Word(tuple(u for name, exp in w.letters for u in (images[name] ** exp).letters))


def _cyclic_units(w: Word) -> list[tuple[str, int]]:
    """The unit letters of w, freely and then cyclically reduced."""
    units = list(w.free_reduce().units())
    while len(units) > 1 and units[0] == (units[-1][0], -units[-1][1]):
        del units[0], units[-1]
    return units


def _is_rotation(u: list, v: list) -> bool:
    def text(units):
        return " ".join(f"{n}{'+' if e > 0 else '-'}" for n, e in units)
    return len(u) == len(v) and f" {text(v)} " in f" {text(u)} {text(u)} "


def oracle_dihedral_jsj_certificate(n: int, pres, legend) -> dict[str, bool]:
    """Check that ``pres``, on x and y, and the legend psi: x, y -> words in
    a, b present the dihedral Artin group on label n >= 3 (von Dyck's theorem,
    Lyndon & Schupp II.2), against phi: a -> y^-(n-1)/2 x, b -> phi(a)^-1 y
    for odd n and a -> x, b -> x^-1 y for even n.

    psi phi and phi psi fix the generators after free reduction; phi of
    the Artin relator, freely and cyclically reduced, is a cyclic
    permutation of a relator or of its inverse; psi of every relator is
    trivial by ``oracle_normal_form``. Returns each check's verdict.
    """
    x, y = Word.generator("x"), Word.generator("y")
    phi_a = y ** -((n - 1) // 2) * x if n % 2 else x
    phi = {"a": phi_a, "b": phi_a.inverse() * y}
    psi = dict(legend)
    relators = [oracle_word(r) for r in pres.relators]
    artin = _cyclic_units(_substituted(oracle_artin_relator("a", "b", n), phi))
    one = oracle_normal_form(n, Word())
    return {
        "generators": pres.generators == ("x", "y") and sorted(psi) == ["x", "y"],
        "psi phi": all(_substituted(phi[g], psi).free_reduce() == Word.generator(g) for g in "ab"),
        "phi psi": all(_substituted(psi[g], phi).free_reduce() == Word.generator(g) for g in "xy"),
        "phi relator": any(
            _is_rotation(_cyclic_units(r), artin) or _is_rotation(_cyclic_units(r.inverse()), artin)
            for r in relators
        ),
        "psi relators": all(oracle_normal_form(n, _substituted(r, psi)) == one for r in relators),
    }


# canonical form: the library's earlier depth-first search, verbatim, and
# a brute force over every ordering for small graphs


def oracle_wl_classes(n: int, adj_label) -> list[list[int]]:
    """Partition vertex indexes by iterated neighbourhood refinement.

    Colours start from the sorted multiset of incident labels and refine
    by (own colour, sorted multiset of (edge label, neighbour colour)).
    The refinement is isomorphism-invariant, as is the order of the
    resulting classes.
    """
    sigs = [tuple(sorted(adj_label[i][j] for j in range(n) if adj_label[i][j])) for i in range(n)]
    colors = _rank(sigs)
    while True:
        sigs = [
            (
                colors[i],
                tuple(
                    sorted(
                        (adj_label[i][j], colors[j])
                        for j in range(n)
                        if adj_label[i][j]
                    )
                ),
            )
            for i in range(n)
        ]
        new = _rank(sigs)
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


def label_matrix(g):
    """Symmetric matrix of edge labels in vertex order, 0 for no edge."""
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = [[0] * n for _ in range(n)]
    for u, v, m in g.edges:
        adj[idx[u]][idx[v]] = m
        adj[idx[v]][idx[u]] = m
    return adj


def oracle_canonical_form(g) -> bytes:
    """The earlier depth-first search: prefix pruning and interchangeable pairs only."""
    n = len(g.vertices)
    if n == 0:
        return b"0|"
    adj = label_matrix(g)

    classes = oracle_wl_classes(n, adj)
    class_for_pos: list[int] = []
    for k, cls in enumerate(classes):
        class_for_pos += [k] * len(cls)

    # interchangeable pairs: swapping them fixes the labelled graph
    swap_class = list(range(n))

    def sfind(i):
        while swap_class[i] != i:
            swap_class[i] = swap_class[swap_class[i]]
            i = swap_class[i]
        return i

    for cls in classes:
        for a, b in combinations(cls, 2):
            if all(adj[a][k] == adj[b][k] for k in range(n) if k not in (a, b)):
                swap_class[sfind(a)] = sfind(b)

    best: list[int] | None = None
    order: list[int] = []
    flat: list[int] = []
    placed = [False] * n

    def dfs(pos: int):
        nonlocal best
        if pos == n:
            if best is None or flat < best:
                best = flat.copy()
            return
        seen_swap: set[int] = set()
        for u in classes[class_for_pos[pos]]:
            if placed[u]:
                continue
            root = sfind(u)
            if root in seen_swap:
                continue
            seen_swap.add(root)
            row = [adj[u][w] for w in order]
            flat.extend(row)
            if best is None or flat <= best[: len(flat)]:
                placed[u] = True
                order.append(u)
                dfs(pos + 1)
                order.pop()
                placed[u] = False
            del flat[len(flat) - len(row):]

    dfs(0)
    assert best is not None
    payload = ",".join(str(x) for x in best)
    return f"{n}|{payload}".encode("ascii")


def oracle_brute_canonical_form(g) -> bytes:
    """Least flattened lower triangle over every ordering that fits the classes.

    The classes are those of ``oracle_wl_classes``, taken in order; every
    ordering of each class is tried, so this is for 7 or fewer vertices.
    """
    n = len(g.vertices)
    if n > 7:
        raise ValueError("brute-force canonical form is for 7 or fewer vertices")
    if n == 0:
        return b"0|"
    adj = label_matrix(g)
    best = None
    for parts in product(*(permutations(c) for c in oracle_wl_classes(n, adj))):
        order = [v for part in parts for v in part]
        flat = [adj[order[i]][order[j]] for i in range(n) for j in range(i)]
        if best is None or flat < best:
            best = flat
    return f"{n}|{','.join(map(str, best))}".encode("ascii")


def oracle_random_connected_graph(rng, n: int, extra_p: float, labels) -> LabelledGraph:
    """The earlier ``corpus.random_connected_graph``: a name pair for every vertex pair."""
    names = [f"v{i}" for i in range(n)]
    edges: dict[tuple[str, str], int] = {}
    for i in range(1, n):
        j = rng.randrange(i)
        key = tuple(sorted((names[j], names[i])))
        edges[key] = rng.choice(labels)
    for i in range(n):
        for j in range(i + 1, n):
            key = tuple(sorted((names[i], names[j])))
            if key not in edges and rng.random() < extra_p:
                edges[key] = rng.choice(labels)
    return LabelledGraph.from_edges([(u, v, m) for (u, v), m in sorted(edges.items())])
