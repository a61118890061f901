"""The word problem in dihedral Artin groups, solved by normal forms.

The dihedral Artin group on label n is generated by a, b subject to the
equality of the two length-n alternating words. Its centre is generated
by z = Delta^2 for odd n and z = Delta for even n, where Delta is the
alternating word of length n starting with a.

Change of generators, writing m = n // 2 (``_new_generators``):

* odd n:  x = Delta, y = a b. The group becomes the amalgam
  <x, y | x^2 = y^n>, with a = y^-m x and b = x^-1 y^(m+1). The centre
  is generated by c = x^2 = y^n.
* even n: x = a, y = a b. The group becomes the HNN extension
  <x, y | x y^m x^-1 = y^m>, with a = x and b = x^-1 y. The centre is
  generated by z = y^m = Delta.

Killing the centre leaves a free product (Z/2 * Z/n for odd n, Z/m * Z
for even n, with x spanning the infinite factor). Group elements
correspond bijectively to pairs (central exponent, reduced syllable
sequence in the free product). One reduction finds the pair for both
parities from the images of a, b and the modulus of each symbol (x mod
2, y mod n; or y mod m, x free): a syllable merges into the top one,
the quotient by the modulus is carried into the central exponent at
once and a zero residue is dropped. Eager carrying is sound because the
carried power is central, so the carries add up to the same total:
floor((s + t)/q) = floor(s/q) + floor((s mod q + t)/q) for a modulus q.
Every residue lies in 1..q-1, so two of them sum to 2..2q-2 and a merge
carries at most one: it subtracts q once when the sum reaches q. Label
2 is Z^2 and is handled by exponent pairs.

The reduction applies a whole letter name^e at a time. The image of
each of a^±1, b^±1, its residues nonzero, is a closed form of n
(``_letter_image``):

* odd n:  a -> y^(m+1) x, a^-1 -> x y^m, b -> x y^(m+1) and
  b^-1 -> y^m x, each with a carry of c^-1;
* even n: a^±1 -> x^±1, a power of the free x; b -> x^-1 y carries
  nothing and b^-1 -> y^(m-1) x carries z^-1.

A two-syllable image starts and ends with different symbols, so its |e|
repeats meet without merging: the image of name^e is that image
repeated |e| times, with |e| times its carry. Applying it merges only
at the stack top, and only while each merge cancels; the rest is
appended as it is, so a merge is the one place a residue is reduced.
Each distinct letter's image is built once per state, by a
``words._Memo`` of its image, carry and first symbol. The label and
exponents are read as exact ints (``operator.index``), so every
syllable is an exact (str, int) pair, and a normal form's syllables are
a ``words._Pairs`` built from the stack, whose distinct pairs the JSON
writer renders once each.

The reduction is a state that can be resumed (``_Reduction``): pushing
more letters continues where the last push stopped. ``words_equal``
cancels the longest common prefix of its two words and then the longest
common suffix of what is left, since p u' s = p v' s exactly when
u' = v', and reduces only the middles. ``root_bound_search`` pushes w
once per degree onto one state, so its cost is linear in the degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import compress, count
from operator import index, ne
from typing import Iterator, Union

from .errors import PreconditionError, WordFormatError
from .words import Word, _Memo, _Pairs, alternating

GENERATORS = ("a", "b")
ROOT_SEARCH_MAX_LEN = 10  # root_bound_search grows about 3x per unit of length
ROOT_SEARCH_MAX_DEGREE = 10**5  # and linearly in the degree: it pushes w once per degree
ROOT_SEARCH_MAX_PUSHES = 10**6  # and pushes each word of a distinct normal form max_degree times


@dataclass(frozen=True)
class OddNormalForm:
    """Central exponent of c = x^2 = y^n plus a reduced word in Z/2 * Z/n.

    Syllables alternate between ("x", 1) and ("y", r) with 0 < r < n.
    """

    label: int
    central: int
    syllables: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        parts = [f"c^{self.central}"] if self.central else []  # c^1 keeps its exponent
        if self.syllables:
            parts.append(Word._trusted(self.syllables).to_text())
        return " ".join(parts) or "1"


@dataclass(frozen=True)
class EvenNormalForm:
    """Central exponent of z = y^m plus a reduced word in Z/m * Z.

    Syllables alternate between ("y", r) with 0 < r < m and ("x", t)
    with t nonzero. Printing folds the centre into a trailing power
    of y, giving the Britton-reduced shape y^s0 x^t1 y^s1 ... y^s_last.
    """

    label: int
    central: int
    syllables: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        tail = self.central * (self.label // 2)
        body = self.syllables
        if body and body[-1][0] == "y":
            tail += body[-1][1]
            body = body[:-1]
        if tail:
            body += (("y", tail),)
        return Word._trusted(body).to_text() or "1"


@dataclass(frozen=True)
class AbelianNormalForm:
    """Exponent pair in Z^2, the label 2 case."""

    label: int
    a_exp: int
    b_exp: int

    def __str__(self) -> str:
        return as_defining_generators(self).to_text() or "1"


NormalForm = Union[OddNormalForm, EvenNormalForm, AbelianNormalForm]


@dataclass(frozen=True)
class GarsideData:
    label: int
    delta: Word
    z: Word


def _check_word(w: Word):
    stray = w.support() - set(GENERATORS)
    if stray:
        raise WordFormatError(
            f"dihedral words use generators a, b only; got {sorted(stray)}"
        )


def _check_label(n: int):
    if not isinstance(n, int) or n < 2:
        raise PreconditionError("edge labels start at 2")


def _new_generators(n: int) -> tuple[Word, Word]:
    """The words in a, b for x and y on label n. y = a b and, for odd n,
    x = Delta are alternating words in closed form, so they cost the same
    for every n and only printing x costs O(n)."""
    y = alternating("a", "b", 2)
    if n % 2:
        return alternating("a", "b", n), y
    return Word.generator("a"), y


def _letter_image(n: int, letter: tuple[str, int]) -> tuple[tuple, int, str]:
    """The image of the letter name^exp, its central carry and its first symbol, n >= 3:
    the closed-form image of name^±1, its residues nonzero, repeated |exp|
    times, whose repeats meet without merging (see the module docstring)."""
    name, exp = letter
    exp = index(exp)  # an exact int, whatever int subclass exp is
    k, m = abs(exp), n // 2
    if n % 2:  # a = y^-m x, b = x^-1 y^(m+1), and y^-m = y^(m+1) c^-1, x^-1 = x c^-1:
        # each image reduces one negative exponent, so each letter carries c^-1
        if name == "a":
            image = (("y", m + 1), ("x", 1)) if exp > 0 else (("x", 1), ("y", m))
        else:
            image = (("x", 1), ("y", m + 1)) if exp > 0 else (("y", m), ("x", 1))
        return image * k, -k, image[0][0]
    if name == "a":  # a = x, a power of the free x
        return (("x", exp),), 0, "x"
    if exp > 0:  # b = x^-1 y
        return (("x", -1), ("y", 1)) * k, 0, "x"
    return (("y", m - 1), ("x", 1)) * k, -k, "y"  # b^-1 = y^-1 x = y^(m-1) x z^-1


class _Reduction:
    """The pair (central exponent, syllable stack) of the letters pushed so far, n >= 3.

    Pushing more letters resumes the reduction where it stopped; each
    distinct letter's image is built once per state, from its closed form
    in n (for odd n every letter carries c^-1). A merge adds two
    residues in 1..q-1 for a modulus q, so it carries at most one, by one
    compare and subtract; a power of the free x has no modulus and never
    carries. ``form`` takes the stack's exact (str, int) pairs as a
    ``words._Pairs``.
    """

    def __init__(self, n: int, letters=()):
        self.label = n
        n = index(n)
        self.moduli = {"x": 2, "y": n} if n % 2 else {"x": 0, "y": n // 2}
        self.images = _Memo(partial(_letter_image, n))  # letter -> (image, carry, first)
        self.central = 0
        self.stack: list[tuple[str, int]] = []
        self.push(letters)

    def push(self, letters) -> None:
        """Multiply on the right by the letters, in order."""
        moduli, images = self.moduli, self.images
        central = self.central
        stack = self.stack
        push, pop, extend = stack.append, stack.pop, stack.extend
        for letter in letters:
            image, carry, first = images[letter]
            central += carry
            if not stack or stack[-1][0] != first:
                extend(image)
                continue
            # Merge at the top while each merge cancels. Stack and image both
            # alternate between the two symbols, so after a cancelling merge
            # the new top has the symbol of the next image syllable.
            i = 0
            while True:
                sym, e = image[i]
                e += pop()[1]
                q = moduli[sym]
                if q and e >= q:  # two residues in 1..q-1 carry at most one
                    e -= q
                    central += 1
                i += 1
                if e:
                    push((sym, e))
                    break
                if i == len(image) or not stack:
                    break
            extend(image[i:])
        self.central = central

    def form(self) -> NormalForm:
        n = self.label
        return (OddNormalForm if n % 2 else EvenNormalForm)(n, self.central, _Pairs(self.stack))

    def a_z_exponents(self) -> tuple[int, int] | None:
        """(i, j) with the element equal to x^i z^j, when its syllables are
        at most one power of x; else None. For even n, x = a."""
        stack = self.stack
        if not stack:
            return (0, self.central)
        if len(stack) == 1 and stack[0][0] == "x":
            return (stack[0][1], self.central)
        return None


def normal_form(n: int, w: Word) -> NormalForm:
    """Normal form of a word over a, b in the dihedral group on label n.

    >>> str(normal_form(3, Word.from_text("a b a b^-1 a^-1 b^-1")))
    '1'
    >>> str(normal_form(3, Word.from_text("a b")))
    'y'
    """
    _check_label(n)
    _check_word(w)
    if n == 2:
        sums = w.exponent_sums()
        return AbelianNormalForm(2, sums.get("a", 0), sums.get("b", 0))
    return _Reduction(n, w.letters).form()


def words_equal(n: int, u: Word, v: Word) -> bool:
    """Whether two words represent the same element.

    Both words are checked before anything is reduced. A common prefix
    p and then a common suffix s of the two letter sequences cancel,
    since p u' s = p v' s exactly when u' = v', so only the middles are
    reduced.

    >>> words_equal(4, Word.from_text("a b a b"), Word.from_text("b a b a"))
    True
    >>> relator = "a b a b^-1 a^-1 b^-1"  # label 3
    >>> words_equal(3, Word.from_text(f"b^5 {relator} a^-2"), Word.from_text("b^5 a^-2"))
    True
    """
    _check_label(n)
    _check_word(u)
    _check_word(v)
    if n == 2:
        return normal_form(n, u) == normal_form(n, v)
    a, b = u.letters, v.letters
    shorter = min(len(a), len(b))
    start = next(compress(count(), map(ne, a, b)), shorter)
    left = shorter - start  # the suffix scan stops where the prefix ends
    end = next(compress(range(left), map(ne, reversed(a), reversed(b))), left)
    middle = _Reduction(n, a[start:len(a) - end]).form()
    return middle == _Reduction(n, b[start:len(b) - end]).form()


def is_central(n: int, w: Word) -> bool:
    """Whether the word commutes with both generators."""
    a = Word.generator("a")
    b = Word.generator("b")
    return words_equal(n, w * a, a * w) and words_equal(n, w * b, b * w)


def garside(n: int) -> GarsideData:
    """The Garside element Delta and the centre generator z.

    Delta, and z = Delta for even n, are alternating words in closed form;
    z = Delta^2 for odd n is not alternating and is written out.
    """
    _check_label(n)
    x, y = _new_generators(n)
    if n % 2:
        return GarsideData(n, x, x ** 2)  # Delta = x, z = Delta^2
    z = y ** (n // 2)
    return GarsideData(n, z, z)  # Delta = z = (a b)^(n/2)


def delta_conjugates_generators(n: int) -> bool:
    """For odd n, conjugation by Delta swaps the generators."""
    _check_label(n)
    if n % 2 == 0:
        raise PreconditionError("generator swap under Delta is an odd-label property")
    delta = garside(n).delta
    a = Word.generator("a")
    b = Word.generator("b")
    return words_equal(n, delta * a * delta.inverse(), b) and words_equal(
        n, delta * b * delta.inverse(), a
    )


def as_defining_generators(nf: NormalForm) -> Word:
    """Rewrite a normal form as a word over a, b again."""
    if isinstance(nf, AbelianNormalForm):
        return Word._trusted(tuple(p for p in (("a", nf.a_exp), ("b", nf.b_exp)) if p[1]))
    x, y = _new_generators(nf.label)
    c = x ** 2 if nf.label % 2 else y ** (nf.label // 2)
    letters = list((c ** nf.central).letters)
    for s, e in nf.syllables:
        letters += ((x if s == "x" else y) ** e).letters
    return Word._trusted(tuple(letters))


def membership_a_z(n: int, w: Word) -> tuple[int, int] | None:
    """Solve membership of w in the subgroup <a, z>, for even n >= 4.

    Returns (i, j) with w = a^i z^j when w lies in the subgroup, else
    None. In normal form coordinates <a, z> is exactly the set of forms
    with at most one syllable, a power of x.
    """
    _check_label(n)
    if n % 2 or n < 4:
        raise PreconditionError("membership in <a, z> is an even-label operation")
    _check_word(w)
    return _Reduction(n, w.letters).a_z_exponents()


def reduced_words(max_len: int) -> Iterator[Word]:
    """Freely reduced nonempty words over a, b up to the given length.

    Depth first from an explicit stack, each word right before its
    extensions, which add a, a^-1, b, b^-1 in that order.
    """
    if max_len < 0:
        raise PreconditionError(f"word length must be nonnegative, got {max_len}")
    units = (("b", -1), ("b", 1), ("a", -1), ("a", 1))
    stack: list[tuple] = [()]
    while stack:
        prefix = stack.pop()
        if prefix:
            yield Word._trusted(prefix)  # letters from the four units, freely reduced
        if len(prefix) < max_len:
            stack += [prefix + (u,) for u in units if not prefix or prefix[-1] != (u[0], -u[1])]


def root_bound_search(n: int, max_len: int, max_degree: int) -> tuple:
    """Search for primitive elements of <a, z> with roots of degree above m.

    For even n = 2m, scans all freely reduced words w up to max_len
    (deduplicated by normal form) and all degrees m < k <= max_degree
    for w^k = a^i z^j with gcd(i, j) = 1. Any hit (w, k, (i, j)) would
    contradict the root bound, so the expected result is empty; degree
    m itself is achieved by r = a b with r^m = z. An empty degree range,
    max_degree <= m, is refused, and so are a max_len above
    ``ROOT_SEARCH_MAX_LEN``, since there are about 3^max_len words, and a
    max_degree above ``ROOT_SEARCH_MAX_DEGREE``, since each degree pushes
    w once more; as m < max_degree, that cap bounds the push of w^(m-1) too.
    One pass reduces each of the 2 (3^max_len - 1) words once and keeps
    the first word of each distinct normal form. Each kept word is then
    pushed max_degree times in all, and a search of more pushes than
    ``ROOT_SEARCH_MAX_PUSHES`` is refused in that pass, as soon as the
    words kept so far need more.
    """
    _check_label(n)
    if n % 2 or n < 4:
        raise PreconditionError("the root bound search needs an even label >= 4")
    m = n // 2
    if max_degree <= m:
        raise PreconditionError(
            f"degree range {m + 1}..{max_degree} is empty: the maximum degree must exceed {m}"
        )
    if max_len > ROOT_SEARCH_MAX_LEN:
        raise PreconditionError(
            f"word length {max_len} is above the root search cap"
            f" ROOT_SEARCH_MAX_LEN = {ROOT_SEARCH_MAX_LEN}"
        )
    if max_degree > ROOT_SEARCH_MAX_DEGREE:
        raise PreconditionError(
            f"degree {max_degree} is above the root search cap"
            f" ROOT_SEARCH_MAX_DEGREE = {ROOT_SEARCH_MAX_DEGREE}"
        )
    forms: dict = {}  # each distinct normal form, with the first word that has it
    for w in reduced_words(max_len):
        forms.setdefault(_Reduction(n, w.letters).form(), w)
        if len(forms) * max_degree > ROOT_SEARCH_MAX_PUSHES:
            raise PreconditionError(
                f"word length {max_len} and degree {max_degree} need at least"
                f" {len(forms) * max_degree} pushes, above the root search cap"
                f" ROOT_SEARCH_MAX_PUSHES = {ROOT_SEARCH_MAX_PUSHES}"
            )
    hits = []
    for w in forms.values():
        state = _Reduction(n, w.letters * m)  # the state of w^k, resumed for each degree k
        for k in range(m + 1, max_degree + 1):
            state.push(w.letters)
            res = state.a_z_exponents()
            if res is not None and math.gcd(res[0], res[1]) == 1:
                hits.append((w, k, res))
    return tuple(hits)
