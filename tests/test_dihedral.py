import itertools
import random

import pytest

from artin import (
    PreconditionError,
    Word,
    WordFormatError,
    alternating,
    as_defining_generators,
    delta_conjugates_generators,
    garside,
    is_central,
    membership_a_z,
    normal_form,
    root_bound_search,
    words_equal,
)
from artin import dihedral
from artin.dihedral import (
    ROOT_SEARCH_MAX_LEN,
    AbelianNormalForm,
    EvenNormalForm,
    OddNormalForm,
    reduced_words,
)

from oracles import (
    oracle_normal_form, oracle_normal_form_text, oracle_reduced_words, oracle_root_bound_search,
)


W = Word.from_text


def test_normal_form_frozen_examples():
    assert str(normal_form(3, W("a b a b^-1 a^-1 b^-1"))) == "1"
    assert str(normal_form(3, W("a b"))) == "y"
    assert str(normal_form(3, W("a b a"))) == "x"
    assert str(normal_form(3, W("a"))) == "c^-1 y^2 x"
    assert str(normal_form(3, W("b"))) == "c^-1 x y^2"
    assert str(normal_form(5, W("a"))) == "c^-1 y^3 x"
    assert str(normal_form(4, W("a"))) == "x"
    assert str(normal_form(4, W("a b"))) == "y"
    assert str(normal_form(4, W("a b a b"))) == "y^2"
    assert str(normal_form(6, W("a b a b a b"))) == "y^3"
    assert str(normal_form(4, W("b a b a"))) == "y^2"
    assert str(normal_form(4, W(""))) == "1"
    # a = c^-1 y^2 x for n = 3 (m = 1), and the repeats of y^2 x meet without merging
    assert normal_form(3, W("a^6")) == OddNormalForm(3, -6, (("y", 2), ("x", 1)) * 6)


def test_normal_form_label_two_is_abelian():
    nf = normal_form(2, W("a b a^-1 b^2"))
    assert isinstance(nf, AbelianNormalForm)
    assert (nf.a_exp, nf.b_exp) == (0, 3)
    assert words_equal(2, W("a b"), W("b a"))
    assert not words_equal(2, W("a"), W("b"))


def test_words_equal_braid_instances():
    assert words_equal(3, W("a b a"), W("b a b"))
    assert words_equal(4, W("a b a b"), W("b a b a"))
    assert not words_equal(3, W("a b"), W("b a"))
    assert not words_equal(5, W("a"), W("b"))


def _random_word(rng, max_len):
    n = rng.randint(0, max_len)
    letters = []
    for _ in range(n):
        letters.append((rng.choice("ab"), rng.choice((-2, -1, 1, 1, 2))))
    return Word(tuple(letters)).free_reduce() if letters else Word(())


ORACLE_LABELS = list(range(2, 14)) + [1000, 1001, 10**5, 10**5 + 1]


def _oracle_words(rng):
    exponents = [e for e in range(-5, 6) if e]
    for _ in range(60):
        yield Word(tuple((rng.choice("ab"), rng.choice(exponents)) for _ in range(rng.randint(1, 30))))
    for text in ("a^500 b^-500", "b^500 a^-500", "a^-499 b^501 a^3", "b^-1000", "a^2 b^-2",
                 "a^100000 b^-99999", "b a^1000 b^-1 a^-999"):
        yield W(text)
    yield Word(())


@pytest.mark.parametrize("n", ORACLE_LABELS)
def test_normal_form_matches_two_engine_oracle(n):
    rng = random.Random(n)
    for w in _oracle_words(rng):
        assert normal_form(n, w) == oracle_normal_form(n, w), (n, w.to_text())


def _merge_sums(state, letter):
    """(e + r, q) for each merge that pushing ``letter`` onto ``state`` makes,
    read off its stack without pushing: image syllables meet the top while
    each merge cancels, and only symbols with a modulus q are listed."""
    image = state.images[letter][0]
    stack = state.stack
    sums = []
    for (sym, e), (top, r) in zip(image, reversed(stack)):
        if sym != top:
            break
        q = state.moduli[sym]
        if q:
            sums.append((e + r, q))
        if (e + r) % q if q else e + r:
            break
    return sums


@pytest.mark.parametrize("n", list(range(3, 13)) + [1000, 1001])
def test_carry_at_and_past_the_modulus_matches_oracle(n):
    # Two residues in 1..q-1 sum to at most 2q - 2, so a merge carries at most
    # one. Words whose merges sum to exactly q and to q + 1, found by a seeded
    # search, reduce as the oracle says, pushed whole and letter by letter. On
    # label 4 every residue of y (mod 2) is 1 and of x (free) has no modulus,
    # so no merge sums past q.
    rng = random.Random(n)
    wanted = (0, 1) if n != 4 else (0,)  # the merge sum minus q
    found = dict.fromkeys(wanted, 0)
    for _ in range(20000):
        letters = tuple(
            (rng.choice("ab"), rng.choice((1, -1)) * rng.choice((1, 1, 2, 3, rng.randint(1, 50))))
            for _ in range(rng.randint(2, 12))
        )
        state = dihedral._Reduction(n)
        hits = set()
        for letter in letters:
            hits.update(total - q for total, q in _merge_sums(state, letter))
            state.push((letter,))
        hits.intersection_update(wanted)
        if not hits:
            continue
        w = Word(letters)
        assert normal_form(n, w) == state.form() == oracle_normal_form(n, w), (n, w.to_text())
        for k in hits:
            found[k] += 1
        if min(found.values()) >= 20:
            break
    assert min(found.values()) >= 20, found


@pytest.mark.parametrize("n", [k for k in ORACLE_LABELS if k > 2])
def test_normal_form_shape(n):
    # the shapes stated in the OddNormalForm and EvenNormalForm docstrings
    m = n // 2
    for w in _oracle_words(random.Random(n + 1)):
        nf = normal_form(n, w)
        assert isinstance(nf, OddNormalForm if n % 2 else EvenNormalForm)
        symbols = [s for s, _ in nf.syllables]
        assert all(s != t for s, t in zip(symbols, symbols[1:])), nf
        for s, e in nf.syllables:
            if n % 2:
                assert (s, e) == ("x", 1) or (s == "y" and 1 <= e <= n - 1), nf
            else:
                assert (s == "x" and e != 0) or (s == "y" and 1 <= e <= m - 1), nf


# The reduction applies a whole letter name^e at once: the reduced image
# of name^±1 repeated |e| times, with |e| times its central carry, merged
# at the stack top only while each merge cancels.

LETTER_LABELS = [k for k in ORACLE_LABELS if k > 2]


def _identity(n):
    return (OddNormalForm if n % 2 else EvenNormalForm)(n, 0, ())


def _long_word(rng, letters):
    exponents = (1, -1, 1, -1, 2, -2, 3, -3, 40, -40)
    return Word(tuple((rng.choice("ab"), rng.choice(exponents)) for _ in range(letters)))


TEXT_LABELS = [3, 4, 7, 1000, 1001]
TEXT_LENGTHS = [10, 100, 1000, 10_000]


@pytest.mark.parametrize("n", TEXT_LABELS)
def test_normal_form_text_matches_oracle_letter_by_letter(n):
    rng = random.Random(n + 5)
    for k in TEXT_LENGTHS:
        w = _long_word(rng, k)
        assert str(normal_form(n, w)) == oracle_normal_form_text(n, w), (n, k)


@pytest.mark.parametrize("n", LETTER_LABELS)
def test_word_times_inverse_cascades_to_identity(n):
    # every letter of w^-1 cancels the stack top left by w, all the way down
    w = _long_word(random.Random(n), 10_000)
    assert normal_form(n, w) == oracle_normal_form(n, w)
    assert normal_form(n, w * w.inverse()) == _identity(n)
    assert normal_form(n, w.inverse() * w) == _identity(n)


@pytest.mark.parametrize("n", LETTER_LABELS)
def test_conjugated_relator_is_trivial(n):
    relator = alternating("a", "b", n) * alternating("b", "a", n).inverse()
    u = _long_word(random.Random(n + 7), 300)
    assert normal_form(n, u * relator * u.inverse()) == _identity(n)
    assert normal_form(n, u * relator) == normal_form(n, u) == oracle_normal_form(n, u)


# words_equal cancels the longest common prefix of the two letter
# sequences, then the longest common suffix of what is left, and reduces
# only the middles

EQUAL_LABELS = list(range(2, 13)) + [1000, 1001]


def _relator(n):
    return alternating("a", "b", n) * alternating("b", "a", n).inverse()


def _shared_pairs(rng, n):
    """(u, v, expected or None) pairs that share a prefix or a suffix."""
    relator = _relator(n)
    for _ in range(12):
        p = _long_word(rng, rng.randint(0, 30))
        s = _long_word(rng, rng.randint(0, 30))
        t = _long_word(rng, rng.randint(1, 5))
        letter = Word.generator(rng.choice("ab"), rng.choice((1, -1)))
        square = rng.choice("ab")
        yield p, p * t, None  # one word a prefix of the other
        yield s, t * s, None  # one word a suffix of the other
        yield p * s, p * s, True
        yield p * W(f"{square}^2") * s, p * W(f"{square} {square}") * s, True
        yield p * s, p * relator * s, True
        yield p * relator.inverse() * s, p * s, True
        yield p * s, p * s * letter, False
        yield p * t * s, p * _long_word(rng, rng.randint(0, 5)) * s, None


@pytest.mark.parametrize("n", EQUAL_LABELS)
def test_words_equal_on_shared_parts_matches_oracle(n):
    for u, v, expected in _shared_pairs(random.Random(n), n):
        want = oracle_normal_form(n, u) == oracle_normal_form(n, v)
        assert expected in (None, want), (n, u.to_text(), v.to_text())
        assert words_equal(n, u, v) == want == words_equal(n, v, u), (n, u.to_text(), v.to_text())


@pytest.mark.parametrize("n", [7, 1000])
def test_words_equal_reduces_only_the_middles(n, monkeypatch):
    # 10^5 shared letters on each side of an inserted relator: the
    # reductions receive the relator's 2n letters and nothing else
    rng = random.Random(n)
    p, s = _long_word(rng, 10**5), _long_word(rng, 10**5)
    received = []
    push = dihedral._Reduction.push

    def spy(state, letters):
        received.append(len(letters))
        push(state, letters)

    monkeypatch.setattr(dihedral._Reduction, "push", spy)
    assert words_equal(n, p * _relator(n) * s, p * s)
    assert sum(received) <= 2 * n
    received.clear()
    assert not words_equal(n, p * W("a") * s, p * W("b") * s)
    assert sum(received) == 2


def test_round_trip_through_defining_generators():
    rng = random.Random(2024)
    for n in range(3, 9):
        for _ in range(200):
            w = _random_word(rng, 6)
            nf = normal_form(n, w)
            back = as_defining_generators(nf)
            assert normal_form(n, back) == nf, (n, w.to_text())


def test_long_normal_form_expands_letter_by_letter():
    # x, y and the central power spelled out one letter at a time, per the
    # change of generators in the dihedral module docstring
    rng = random.Random(31)
    for n in (5, 6):
        w = Word(tuple((rng.choice("ab"), rng.choice((-2, -1, 1, 2))) for _ in range(15_000)))
        nf = normal_form(n, w)
        assert len(nf.syllables) >= 10_000
        x = ["a", "b"] * (n // 2) + ["a"] if n % 2 else ["a"]
        central = x * 2 if n % 2 else ["a", "b"] * (n // 2)
        expected = []
        for names, e in [(central, nf.central)] + [
            (x if s == "x" else ["a", "b"], e) for s, e in nf.syllables
        ]:
            for _ in range(abs(e)):
                for name in names if e > 0 else reversed(names):
                    expected.append((name, 1 if e > 0 else -1))
        back = as_defining_generators(nf)
        assert back.letters == tuple(expected)
        assert normal_form(n, back) == nf


def test_product_soundness():
    rng = random.Random(77)
    for n in range(3, 9):
        for _ in range(120):
            u = _random_word(rng, 5)
            v = _random_word(rng, 5)
            direct = normal_form(n, u * v)
            recomposed = normal_form(
                n, as_defining_generators(normal_form(n, u)) * v
            )
            assert direct == recomposed, (n, u.to_text(), v.to_text())


def test_relator_insertion_invariance():
    rng = random.Random(13)
    for n in range(3, 9):
        relator = alternating("a", "b", n) * alternating("b", "a", n).inverse()
        for _ in range(100):
            w = _random_word(rng, 6)
            cut = rng.randint(0, len(w.letters))
            head = Word(w.letters[:cut])
            tail = Word(w.letters[cut:])
            stuffed = head * relator * tail
            assert normal_form(n, stuffed) == normal_form(n, w), (n, w.to_text())


def test_exponent_sums_respected():
    rng = random.Random(40)
    for n in range(3, 9):
        for _ in range(80):
            w = _random_word(rng, 6)
            back = as_defining_generators(normal_form(n, w))
            s1 = w.exponent_sums()
            s2 = back.exponent_sums()
            if n % 2 == 0:
                assert s1.get("a", 0) == s2.get("a", 0)
                assert s1.get("b", 0) == s2.get("b", 0)
            else:
                total1 = sum(s1.values())
                total2 = sum(s2.values())
                assert total1 == total2


def test_garside_and_centre():
    for n in range(3, 11):
        data = garside(n)
        assert data.delta == alternating("a", "b", n)
        assert is_central(n, data.z)
        assert is_central(n, data.delta) == (n % 2 == 0)
    assert garside(3).z.to_text() == "a b a a b a"
    assert garside(4).z.to_text() == "a b a b"


def test_delta_swaps_generators_odd():
    for n in (3, 5, 7, 9):
        assert delta_conjugates_generators(n)
    with pytest.raises(PreconditionError):
        delta_conjugates_generators(4)


def test_membership_examples():
    assert membership_a_z(4, W("a")) == (1, 0)
    assert membership_a_z(4, W("a b a b")) == (0, 1)
    assert membership_a_z(4, W("a b")) is None
    assert membership_a_z(6, W("a b a b a b")) == (0, 1)
    assert membership_a_z(6, W("b")) is None
    assert membership_a_z(4, W("a^3 b a b a^-1")) == (1, 1)
    assert membership_a_z(4, W("a^3 b a b")) == (2, 1)


def test_membership_consistency():
    rng = random.Random(31)
    for n in (4, 6, 8):
        z = garside(n).z
        for _ in range(60):
            i = rng.randint(-3, 3)
            k = rng.randint(-2, 2)
            w = Word.generator("a", i) * z**k if i else z**k
            got = membership_a_z(n, w.free_reduce())
            assert got == (i, k), (n, i, k)


def test_membership_requires_even_label():
    with pytest.raises(PreconditionError):
        membership_a_z(5, W("a"))
    with pytest.raises(PreconditionError):
        membership_a_z(2, W("a"))


def test_root_bound_holds_on_small_searches():
    assert root_bound_search(4, 4, 3) == ()
    assert root_bound_search(6, 3, 4) == ()


def test_root_bound_search_refuses_empty_degree_range():
    for n, max_degree in ((4, 2), (4, 0), (6, -5), (6, 3)):
        with pytest.raises(PreconditionError, match=f"^degree range {n // 2 + 1}..{max_degree} is empty"):
            root_bound_search(n, 3, max_degree)
    assert root_bound_search(4, 3, 3) == ()


def test_root_bound_search_length_cap():
    # about 3^max_len words: above the cap the search is refused before it starts
    assert ROOT_SEARCH_MAX_LEN == 10
    for max_len in (11, 1500):
        message = f"^word length {max_len} is above the root search cap ROOT_SEARCH_MAX_LEN = 10$"
        with pytest.raises(PreconditionError, match=message):
            root_bound_search(4, max_len, 5)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_root_bound_search_matches_oracle(n, monkeypatch):
    # every membership of w^k in <a, z> agrees with w^k reduced from scratch
    m = n // 2
    hits, memberships = oracle_root_bound_search(n, 4, 40)
    assert memberships[W("a b"), m] == (0, 1)  # r = a b with r^m = z
    for w in dict.fromkeys(w for w, _ in memberships):
        state = dihedral._Reduction(n)
        for k in range(1, 41):  # the degrees k <= m too
            state.push(w.letters)
            assert state.a_z_exponents() == memberships[w, k], (w.to_text(), k)
    seen = []
    a_z_exponents = dihedral._Reduction.a_z_exponents

    def spy(state):
        seen.append(a_z_exponents(state))
        return seen[-1]

    monkeypatch.setattr(dihedral._Reduction, "a_z_exponents", spy)
    assert root_bound_search(n, 4, 40) == hits
    assert seen == [res for (w, k), res in memberships.items() if k > m]


def test_tight_witness_root_of_degree_m():
    for n in (4, 6):
        m = n // 2
        r = W("a b")
        assert membership_a_z(n, r**m) == (0, 1)
        assert membership_a_z(n, r) is None


def test_reduced_words_enumeration():
    seen = list(reduced_words(2))
    texts = [w.to_text() for w in seen]
    assert "a" in texts and "a b" in texts and "a^-1 b" in texts
    assert "a a^-1" not in texts and "b^-1 b" not in texts
    assert len(texts) == len(set(texts))
    for w in seen:
        units = list(w.units())
        for (u, e), (v, f) in zip(units, units[1:]):
            assert not (u == v and e == -f)


@pytest.mark.parametrize("max_len", range(7))
def test_reduced_words_match_recursive_oracle(max_len):
    assert list(reduced_words(max_len)) == list(oracle_reduced_words(max_len))


def test_reduced_words_go_deep_without_recursion():
    # depth first: the first 1500 words are a, a a, ..., a^1500 letter by letter
    words = list(itertools.islice(reduced_words(1500), 1501))
    assert words[1499].letters == (("a", 1),) * 1500
    assert words[1500].letters == (("a", 1),) * 1499 + (("b", 1),)


def test_negative_word_length_refused():
    with pytest.raises(PreconditionError, match="^word length must be nonnegative, got -1$"):
        next(reduced_words(-1))
    with pytest.raises(PreconditionError):
        root_bound_search(4, -1, 5)


def test_invalid_letters_rejected():
    with pytest.raises(WordFormatError):
        normal_form(3, W("a q"))
    with pytest.raises(PreconditionError):
        normal_form(1, W("a"))
