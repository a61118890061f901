"""Words in named generators with integer exponents.

A word is a finite sequence of letters (generator name, nonzero exponent).
Words are not freely reduced on construction; reduction is explicit.
Text syntax: whitespace-separated tokens ``sym`` or ``sym^k`` with k a
nonzero integer in ASCII digits, e.g. ``a b^-1 a^3``. A word keeps its
text pieces once rendered, which printers splice and ``to_text`` joins,
and a parsed word keeps its support, read from its distinct tokens. Each
distinct token, and each distinct letter of a printed word, is worked
out once, by ``_Memo``, the package's one memo type.

Words compare, hash and print by their letters. Two kinds of word are
held in closed form, and each is a ``Word`` that equals the word it
stands for, with its letters expanded only when something reads them.

The alternating word Pi(u^a, v^b, m) = u^a v^b u^a ... of length m,
with signs a, b = +-1, is held as (u, v, m, a, b); this is what
``alternating`` returns. Its inverse is alternating again (it starts
with the last letter, inverted), and so is a power of it when m is even.
Its exponent sums and support read only m and its two letters, and as a
sequence of single steps it is its first two letters repeated m/2 times
when m is even. Its text is built by string repetition, in two pieces.

The relator of an Artin edge u-v labelled m is Pi(u, v, m) times the
inverse of Pi(v, u, m), held as (u, v, m): its letters and text pieces
are those halves', the pieces read off (u, v, m) without building them;
its exponent sums read only the parity of m, and renaming touches two
names. No consumer walks its 2m letters. Every word renames itself by
``_renamed``: substitute, free-reduce, and give None for the trivial word.

Input checks: ``Word(...)``, ``Word.generator``, ``Word.from_text`` and
``alternating`` check what they are given; words derived from checked
ones come from the private ``Word._trusted`` unchecked, and words in
closed form from the private ``_Alternating`` and ``_ArtinRelator``
constructors.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import WordFormatError

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?$")
_INT_RE = re.compile(r"[+-]?[0-9]+")  # int() alone also takes '1_0' and non-ASCII digits

Letter = tuple[str, int]
_NAME = itemgetter(0)
_EXP = itemgetter(1)
_UNIT_EXPONENTS = frozenset((1, -1))


def _ascii_int(text: str) -> int:
    """``text`` read as ASCII decimal digits with an optional sign.

    The ValueError raised otherwise names the text in its message, or
    past Python's conversion limit only the count of its digits.
    """
    if not _INT_RE.fullmatch(text):
        raise ValueError(repr(text))
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        digits = len(text.lstrip("+-"))
        raise ValueError(f"({digits} digits, more than {sys.get_int_max_str_digits()})") from None


class _Memo(dict):
    """``memo[key]`` is ``work(key)``, worked out on its first lookup. Later
    lookups run at C speed, so a long input is worked out once per distinct item."""

    __slots__ = ("work",)

    def __init__(self, work):
        self.work = work

    def __missing__(self, key):
        value = self[key] = self.work(key)
        return value


class _Pairs(tuple):
    """A tuple of exact ``(str, int)`` pairs, built only where that holds by
    construction (a dihedral normal form's syllables). Equal pairs of exact
    types render alike, so a JSON writer renders each distinct one once."""

    __slots__ = ()


def _letter_text(letter: Letter) -> str:
    """The token of one letter: ``a`` or ``a^-2``. The exponent is written by
    its value, as ``int`` writes it, so equal letters have one text."""
    name, exp = letter
    return name if exp == 1 else f"{name}^{int.__repr__(exp)}"


def _alternating_pieces(u: str, v: str, m: int, a: int, b: int) -> tuple[str, ...]:
    """The text of Pi(u^a, v^b, m): its leading pairs, by string repetition, and its last ones."""
    if not m:
        return ()
    x, y = _letter_text((u, a)), _letter_text((v, b))
    k, odd = divmod(m, 2)
    return f"{x} {y} " * (k - 1 + odd), x if odd else f"{x} {y}"


def _inverse_args(u: str, v: str, m: int, a: int, b: int) -> tuple:
    """The (u, v, m, a, b) of Pi(u^a, v^b, m)^-1: it starts with the last letter, inverted."""
    return (u, v, m, -a, -b) if m % 2 else (v, u, m, -b, -a)


def _parse_token(token: str) -> Letter:
    """The letter of one token ``a`` or ``a^-2``."""
    m = TOKEN_RE.fullmatch(token)
    if not m:
        raise WordFormatError(f"bad word token {token!r}")
    try:
        exp = _ascii_int(m.group(2)) if m.group(2) is not None else 1
    except ValueError as err:
        raise WordFormatError(f"bad exponent {err} of {m.group(1)}") from None
    if exp == 0:
        raise WordFormatError(f"zero exponent in token {token!r}")
    return m.group(1), exp


@dataclass(frozen=True, eq=False, repr=False)
class Word:
    """Immutable word; ``letters`` holds (name, exponent) pairs, exponents nonzero."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        for item in self.letters:
            if not (isinstance(item, tuple) and len(item) == 2):
                raise WordFormatError(f"bad letter {item!r}")
            name, exp = item
            if not (isinstance(name, str) and NAME_RE.fullmatch(name)):
                raise WordFormatError(f"bad generator name {name!r}")
            if not isinstance(exp, int) or exp == 0:
                raise WordFormatError(f"exponent of {name} must be a nonzero integer")

    @classmethod
    def _trusted(cls, letters: tuple[Letter, ...]) -> "Word":
        """A word on letters derived from checked ones; they are not checked again."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse ``a b^-1 a^3``. The empty string is the empty word.

        >>> Word.from_text("a b^-1").letters
        (('a', 1), ('b', -1))
        """
        parsed = _Memo(_parse_token)  # each distinct token, parsed once
        w = cls._trusted(tuple(map(parsed.__getitem__, text.split())))
        w.__dict__["_support"] = frozenset(map(_NAME, parsed.values()))
        return w

    @classmethod
    def generator(cls, name: str, exp: int = 1) -> "Word":
        return cls(((name, exp),))

    def to_text(self) -> str:
        """Render as text: the join of the kept pieces, which is not kept beside
        them. The join of one piece is that piece, so such a word's text is kept.

        >>> Word((("a", 1), ("b", -2), ("a", 1))).to_text()
        'a b^-2 a'
        """
        return "".join(self._text_pieces())

    def _text_pieces(self) -> tuple[str, ...]:
        """The text in pieces, kept after the first call, so a long word is written unjoined."""
        pieces = self.__dict__.get("_pieces")
        if pieces is None:
            pieces = self.__dict__["_pieces"] = self._render()
        return pieces

    def _render(self) -> tuple[str, ...]:
        """One piece, with each distinct letter formatted once, by a ``_Memo``."""
        return (" ".join(map(_Memo(_letter_text).__getitem__, self.letters)),)

    def __str__(self) -> str:
        return self.to_text()

    def __eq__(self, other):
        return self.letters == other.letters if isinstance(other, Word) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word(letters={self.letters!r})"

    def __mul__(self, other: "Word") -> "Word":
        return Word._trusted(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return Word._trusted(base.letters * abs(k))

    def inverse(self) -> "Word":
        return Word._trusted(tuple((n, -e) for n, e in reversed(self.letters)))

    def free_reduce(self) -> "Word":
        """Merge adjacent letters on the same generator, dropping zero exponents."""
        out: list[list] = []
        for name, exp in self.letters:
            if out and out[-1][0] == name:
                out[-1][1] += exp
                if out[-1][1] == 0:
                    out.pop()
            else:
                out.append([name, exp])
        return Word._trusted(tuple((n, e) for n, e in out))

    def units(self) -> tuple[Letter, ...]:
        """The single steps (name, +1 or -1), exponents expanded: the
        word's own ``letters`` when every exponent is +-1.
        """
        if _UNIT_EXPONENTS.issuperset(map(_EXP, self.letters)):
            return self.letters
        return tuple((n, 1 if e > 0 else -1) for n, e in self.letters for _ in range(abs(e)))

    def exponent_sums(self) -> dict[str, int]:
        sums: dict[str, int] = {}
        for name, exp in self.letters:
            sums[name] = sums.get(name, 0) + exp
        return {n: e for n, e in sums.items() if e != 0}

    def support(self) -> frozenset[str]:
        """The generators the word uses, kept after the first call."""
        support = self.__dict__.get("_support")
        if support is None:
            support = self.__dict__["_support"] = frozenset(map(_NAME, self.letters))
        return support

    def _unit_root(self) -> tuple[tuple[Letter, ...], int]:
        """(root, k) with ``units()`` the root repeated k times, where the
        root is primitive or all of ``units()``; here it is all of them.
        """
        return self.units(), 1

    def syllable_length(self) -> int:
        return sum(map(abs, map(_EXP, self.letters)))

    def _renamed(self, rename: dict[str, str], sign: int = 1) -> Word | None:
        """Substitute rename[n]^sign for each generator n that ``rename``
        maps, and free-reduce. The trivial word is returned as None.
        """
        renamed = ((rename[n], e * sign) if n in rename else (n, e) for n, e in self.letters)
        reduced = (Word._trusted(tuple(renamed)) if rename else self).free_reduce()
        return reduced if reduced.letters else None


class _Alternating(Word):
    """Pi(u^a, v^b, m), the length-m word u^a v^b u^a ..., held as (u, v, m, a, b).

    The signs a, b are +-1: ``alternating`` gives a = b = 1, and only an
    inverse flips them. It is a ``Word``: it compares equal to the word
    with the same letters, and its ``letters`` are expanded only when
    read. Its inverse, its powers when m is even, its exponent sums,
    support, unit root and text are closed forms that never read them.
    """

    def __init__(self, u: str, v: str, m: int, a: int = 1, b: int = 1):
        self.__dict__.update(u=u, v=v, m=m, a=a, b=b)

    @property
    def _pair(self) -> tuple[Letter, Letter]:
        return (self.u, self.a), (self.v, self.b)

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        return self._pair * (self.m // 2) + self._pair[: self.m % 2]

    def _render(self) -> tuple[str, ...]:
        return _alternating_pieces(self.u, self.v, self.m, self.a, self.b)

    def inverse(self) -> Word:
        """Alternating again (``_inverse_args``)."""
        return _Alternating(*_inverse_args(self.u, self.v, self.m, self.a, self.b))

    def __pow__(self, k: int) -> Word:
        if k < 0:
            return self.inverse() ** -k
        if self.m % 2 and k > 1:  # the copies meet in two equal letters
            return super().__pow__(k)
        return _Alternating(self.u, self.v, self.m * k, self.a, self.b)

    def exponent_sums(self) -> dict[str, int]:
        k, odd = divmod(self.m, 2)
        sums = {self.u: self.a * (k + odd)}
        sums[self.v] = sums.get(self.v, 0) + self.b * k
        return {n: e for n, e in sums.items() if e != 0}

    def support(self) -> frozenset[str]:
        return frozenset((self.u, self.v)[: self.m])

    def _unit_root(self) -> tuple[tuple[Letter, ...], int]:
        x, y = self._pair
        if x == y:
            return (x,), self.m
        if self.m % 2:
            return self.letters, 1
        return (x, y), self.m // 2


def alternating(u: str, v: str, n: int) -> Word:
    """The length-n alternating word u v u v ... starting with u, in closed form.

    >>> alternating("a", "b", 3).to_text()
    'a b a'
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    Word(((u, 1), (v, 1))[:n])  # checks only the names used
    return _Alternating(u, v, n)


class _ArtinRelator(Word):
    """The relator of an edge u-v labelled m, held as (u, v, m, a, b).

    It is the word Pi(u^a, v^b, m) Pi(v^b, u^a, m)^-1, with the signs
    a, b = +-1; an Artin presentation has a = b = 1, and only
    substituting a generator's inverse flips a sign. Its two halves are
    alternating words, and its text pieces and its 2m ``letters`` are theirs;
    the letters are expanded only when read, and the library never reads
    them. u and v alternate, so the word is freely reduced, and its
    exponent sums, support and renamings are closed forms: for odd m the
    exponent sums are a and -b, while for even m they vanish.
    """

    def __init__(self, u: str, v: str, m: int, a: int = 1, b: int = 1):
        self.__dict__.update(u=u, v=v, m=m, a=a, b=b)

    def _halves(self) -> tuple[Word, Word]:
        """Pi(u^a, v^b, m) and Pi(v^b, u^a, m)^-1."""
        u, v, m, a, b = self.u, self.v, self.m, self.a, self.b
        return _Alternating(u, v, m, a, b), _Alternating(*_inverse_args(v, u, m, b, a))

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        left, right = self._halves()
        return left.letters + right.letters

    def _render(self) -> tuple[str, ...]:
        u, v, m, a, b = self.u, self.v, self.m, self.a, self.b
        right = _inverse_args(v, u, m, b, a)  # Pi(v^b, u^a, m)^-1
        return (*_alternating_pieces(u, v, m, a, b), " ", *_alternating_pieces(*right))

    def exponent_sums(self) -> dict[str, int]:
        return {self.u: self.a, self.v: -self.b} if self.m % 2 else {}

    def support(self) -> frozenset[str]:
        return frozenset((self.u, self.v))

    def _renamed(self, rename: dict[str, str], sign: int = 1) -> Word | None:
        """Substitute rename[n]^sign for each generator n that ``rename`` maps.

        When u and v land on one generator x, the word is a power of x
        and reduces to x^e with e its exponent sum: (a - b) for odd m, 0
        for even m. The trivial word is returned as None.
        """
        if not rename:
            return self
        u, a, v, b = self.u, self.a, self.v, self.b
        if u in rename:
            u, a = rename[u], a * sign
        if v in rename:
            v, b = rename[v], b * sign
        if u != v:
            return _ArtinRelator(u, v, self.m, a, b)
        e = (a - b) * (self.m % 2)
        return Word.generator(u, e) if e else None
