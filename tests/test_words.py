import enum
import random
import tracemalloc

import pytest

from artin import Word, WordFormatError, alternating, words
from artin.words import _Alternating, _ArtinRelator

from oracles import oracle_alternating


def test_parse_and_render_round_trip():
    w = Word.from_text("a b^-1 a^3 c_1^-2")
    assert w.letters == (("a", 1), ("b", -1), ("a", 3), ("c_1", -2))
    assert Word.from_text(w.to_text()) == w


def test_empty_word():
    assert Word.from_text("").letters == ()
    assert Word.from_text("   ").to_text() == ""


@pytest.mark.parametrize(
    "bad",
    ["a^0", "^2", "a^", "1a", "a b^x", "a^-", "a^\u0663", "a^-\uff13", "a^1_0", "a^+2"]
    + [pytest.param(f"b a^-{'3' * 5000}", id="a^-5000-digits")],
)
def test_bad_tokens_rejected(bad):
    with pytest.raises(WordFormatError):
        Word.from_text(bad)


def test_zero_exponent_letter_rejected():
    with pytest.raises(WordFormatError):
        Word((("a", 0),))


def test_inverse_and_product():
    w = Word.from_text("a b^2")
    assert w.inverse().to_text() == "b^-2 a^-1"
    assert (w * w.inverse()).free_reduce() == Word()
    assert (w ** 3).free_reduce().to_text() == "a b^2 a b^2 a b^2"
    assert (w ** -1) == w.inverse()
    assert (w ** 0) == Word()


def test_free_reduce_merges_and_cancels():
    w = Word.from_text("a a^2 b b^-1 a^-3")
    assert w.free_reduce() == Word()
    w2 = Word.from_text("a b b a^-1 a b")
    assert w2.free_reduce().to_text() == "a b^3"
    # adjacent same-generator letters merge even when written separately
    assert Word.from_text("b b").free_reduce().letters == (("b", 2),)


def test_units_expand_exponents():
    w = Word.from_text("a^2 b^-2")
    assert list(w.units()) == [("a", 1), ("a", 1), ("b", -1), ("b", -1)]


def test_exponent_sums_and_support():
    w = Word.from_text("a b a^-1 c^2 b^-1")
    assert w.exponent_sums() == {"c": 2}
    assert w.support() == {"a", "b", "c"}
    assert w.syllable_length() == 6


def test_alternating():
    assert alternating("a", "b", 0) == Word()
    assert alternating("a", "b", 3).to_text() == "a b a"
    assert alternating("b", "a", 4).to_text() == "b a b a"


def _per_letter_text(w: Word) -> str:
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in w.letters)


def test_to_text_matches_per_letter_join():
    rng = random.Random(23)
    words = [Word(), alternating("a", "b", 100_001), alternating("b", "a", 50_000),
             alternating("x_1", "y", 7) ** -3]
    for _ in range(300):
        words.append(Word(tuple(
            (rng.choice(("a", "b", "c_2")), rng.choice((1, 2, 3, -1, -2, -3)))
            for _ in range(rng.randint(1, 40))
        )))
    for w in words:
        assert w.to_text() == _per_letter_text(w)


def test_text_is_rendered_once_and_kept():
    # the pieces are kept; a word of several pieces joins them on each call and
    # keeps no second copy, and a one-piece word's text is its kept piece
    w = alternating("a", "b", 1001)
    pieces = w._text_pieces()
    assert w._text_pieces() is pieces and len(pieces) == 2
    assert w.to_text() == str(w) == "".join(pieces) == "a b " * 500 + "a"
    one = Word.from_text("a b^-2")
    assert one.to_text() is one._text_pieces()[0] and str(one) is one.to_text()
    assert w == alternating("a", "b", 1001) and hash(w) == hash(alternating("a", "b", 1001))
    assert repr(w) == repr(Word(w.letters))


class _Formatted(int, enum.Enum):
    """An int whose ``format`` is its member name, not its value."""

    TWO = 2


@pytest.mark.parametrize("length", [4, 1200])
@pytest.mark.parametrize("pair", [(2, _Formatted.TWO), (_Formatted.TWO, 2)], ids=["int-first", "enum-first"])
def test_letter_text_reads_the_exponent_by_value(length, pair):
    # equal letters print alike at every length, so the text parses back to the word
    w = Word(tuple(("a", e) for e in pair) * (length // 2))
    assert w.to_text() == " ".join(["a^2"] * length)
    assert Word.from_text(w.to_text()) == w


def test_each_distinct_letter_is_formatted_once(monkeypatch):
    calls = []

    def counted(letter, _letter_text=words._letter_text):
        calls.append(letter)
        return _letter_text(letter)

    monkeypatch.setattr(words, "_letter_text", counted)
    w = Word(((("a", 1), ("b", -2), ("c_1", 3)) * 167)[:500])
    assert w.to_text() == _per_letter_text(w)
    assert sorted(calls) == [("a", 1), ("b", -2), ("c_1", 3)]


@pytest.mark.parametrize("word", [alternating("a", "b", 10**6), _ArtinRelator("a", "b", 10**6)],
                         ids=["alternating", "relator"])
def test_to_text_keeps_no_second_copy(word):
    # a word of several pieces keeps them, and to_text returns their join
    # without keeping it too (2 MB per million letters)
    size = sum(map(len, word._text_pieces()))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(word.to_text()) == size
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2**16, kept


def test_units_match_per_unit_expansion():
    rng = random.Random(29)
    unit_words = 0
    for _ in range(200):
        w = Word(tuple((rng.choice("abc"), rng.choice((1, -1, 2, -3, 5)))
                       for _ in range(rng.randint(0, 30))))
        want = [(n, 1 if e > 0 else -1) for n, e in w.letters for _ in range(abs(e))]
        assert type(w.units()) is tuple and list(w.units()) == want
        if all(abs(e) == 1 for _, e in w.letters):  # the word's own letters, not a copy
            assert w.units() is w.letters
            unit_words += 1
        assert w.syllable_length() == len(want)
        assert w.support() == {n for n, _ in w.letters}
    assert unit_words > 0


@pytest.mark.parametrize("text, message", [
    ("a b^x c^0", "bad word token 'b^x'"),
    ("a c^0 b^x", "zero exponent in token 'c^0'"),
])
def test_from_text_reports_the_bad_token_that_comes_first(text, message):
    with pytest.raises(WordFormatError) as exc:
        Word.from_text(text)
    assert str(exc.value) == message


def test_parsed_support_is_the_support_of_the_letters():
    rng = random.Random(37)
    texts = ["", "  "] + [
        " ".join(rng.choice(("a", "b^-2", "c_1", "a^3", "B", "b")) for _ in range(rng.randint(1, 30)))
        for _ in range(200)
    ]
    for text in texts:
        w = Word.from_text(text)
        assert w.support() == frozenset(n for n, _ in w.letters)
        assert w.support() is w.support()


def test_alternating_closed_forms_match_its_letters():
    # every closed form of Pi(u^a, v^b, m) against the word written out letter by letter
    rng = random.Random(41)
    cases = [("a", "b", m, 1, 1) for m in range(7)] + [("a", "a", 5, 1, -1), ("a", "a", 4, 1, 1)]
    for _ in range(300):
        cases.append((rng.choice("ab"), rng.choice("bc"), rng.randint(0, 9),
                      rng.choice((1, -1)), rng.choice((1, -1))))
    for u, v, m, a, b in cases:
        w = _Alternating(u, v, m, a, b)
        want = oracle_alternating(u, v, m, a, b)
        assert w.letters == want.letters and w == want and want == w
        assert w.to_text() == want.to_text() and hash(w) == hash(want)
        assert w.exponent_sums() == want.exponent_sums()
        assert w.support() == want.support()
        assert w.inverse().letters == want.inverse().letters
        for k in (-3, -2, -1, 0, 1, 2, 3):
            assert (w ** k).letters == (want ** k).letters
        root, r = w._unit_root()
        assert root * r == want.units()
        for rename, sign in [({}, 1), ({u: "x"}, -1), ({v: u}, 1), ({u: v}, -1), ({u: "y", v: "x"}, 1)]:
            got, expected = w._renamed(rename, sign), want._renamed(rename, sign)
            assert (got and got.letters) == (expected and expected.letters), (u, v, m, a, b, rename)
    assert alternating("a", "b", 6) == alternating("a", "b", 2) ** 3 != alternating("b", "a", 6)
