"""Totality of the dihedral commands on seeded hostile input, run through ``cli.main``.

Every run must end in one of two ways: exit 0 with an empty stderr and
output that ``json.loads`` reads (``--json``) or text that ends in a
newline; or an empty stdout and exactly one ``error:`` line, with the exit
code that README gives for the class of the error ``main`` caught. A
traceback fails the test.

Labels, exponents and the root search's LEN and DEG are drawn around the
sizes where the code changes behaviour: small labels of both parities,
labels past 10^6 and past ``sys.maxsize``, exponents past the letters a
normal form can hold (10^18 fails before anything is allocated) and past
``sys.maxsize``, and every root-search cap with a value on each side.
Inputs that pass Python's size checks but would really allocate
gigabytes, such as the normal form of a^(10^9), are left out.
"""

import builtins
import json
import random
import sys

import pytest

import artin.cli
from artin import errors
from artin.cli import main
from artin.dihedral import ROOT_SEARCH_MAX_DEGREE, ROOT_SEARCH_MAX_LEN, ROOT_SEARCH_MAX_PUSHES

HUGE = sys.maxsize + 1
LABELS = (1, 2, 3, 4, 7, 10**6 + 1, 10**6 + 2, HUGE, HUGE + 1)
EXPONENTS = (1, 2, 3, -1, -2, -3, 10**5, 10**18, -10**18, HUGE)

# README: the exit code of each error class, and of a bad argument (1)
EXIT_CODES = {
    errors.WordFormatError: 1,
    errors.PreconditionError: 2,
    OverflowError: 2,
    MemoryError: 2,
    artin.cli._UsageError: 1,
}


def _word(rng):
    tokens = []
    for _ in range(rng.randint(0, 5)):
        name = rng.choice("ab" * 9 + "c")  # now and then a stray generator
        e = rng.choice(EXPONENTS)
        tokens.append(name if e == 1 and rng.random() < 0.5 else f"{name}^{e}")
    if rng.random() < 0.03:
        tokens.append(rng.choice(("a^", "b^x", "^2")))
    return tokens


def _words_pair(rng):
    u = _word(rng)
    if rng.random() < 0.4:  # a common prefix and suffix around different middles
        return u, u[: rng.randint(0, len(u))] + _word(rng) + u[rng.randint(0, len(u)):]
    return u, _word(rng)


def _cases(command, rng):
    if command == "dihedral-nf":
        for _ in range(100):
            yield [command, str(rng.choice(LABELS)), " ".join(_word(rng))]
    elif command == "dihedral-eq":
        for _ in range(100):
            u, v = _words_pair(rng)
            yield [command, str(rng.choice(LABELS)), " ".join(u), " ".join(v)]
    elif command == "dihedral-jsj":
        for label in LABELS + (0, -5):
            yield [command, str(label)]
            yield [command, str(label), "--dot", "-"]
    else:
        yield from _root_search_cases(rng)


def _root_search_cases(rng):
    max_len, max_degree = ROOT_SEARCH_MAX_LEN, ROOT_SEARCH_MAX_DEGREE
    boundary = (  # each cap with a value on each side, and negative values
        (4, max_len, 3), (4, max_len + 1, 3), (4, max_len, 4 * 10**12),
        (4, 1, max_degree), (4, 1, max_degree + 1), (4, 0, max_degree), (4, 0, max_degree + 1),
        (4, 2, ROOT_SEARCH_MAX_PUSHES // 16), (4, 2, ROOT_SEARCH_MAX_PUSHES // 16 + 1),
        (4, max_len, 100000), (4, 6, 1000), (4, -1, 5), (4, -10**30, 5), (4, 3, -5),
        (4, -1, -1), (6, 3, 3), (4, 3, 2),
    )
    for n, length, degree in boundary:
        yield ["root-search", str(n), str(length), str(degree)]
    for _ in range(60):
        n = rng.choice((4, 6, 10) * 3 + LABELS)  # every third label an even one above 2
        length = rng.choice((-1, 0, 1, 2, 3, max_len + 1))
        degree = rng.choice((-5, 0, 2, 3, 4, 6, 50, max_degree, max_degree + 1, 10**18))
        yield ["root-search", str(n), str(length), str(degree)]


@pytest.mark.parametrize("command", ["dihedral-nf", "dihedral-eq", "dihedral-jsj", "root-search"])
def test_dihedral_commands_are_total(capsys, monkeypatch, command):
    caught = []

    def spy(*args, **kwargs):  # main prints an error line inside the arm that caught it
        caught.append(sys.exc_info()[1])
        builtins.print(*args, **kwargs)

    monkeypatch.setattr(artin.cli, "print", spy, raising=False)
    rng = random.Random(f"totality {command}")
    for argv in _cases(command, rng):
        for extra in ([], ["--json"]):
            caught.clear()
            try:
                code = main(argv + extra)
            except Exception as err:  # a traceback from the command line
                pytest.fail(f"{argv + extra}: {err!r}")
            out, err = capsys.readouterr()
            if code == 0:
                assert err == "", argv + extra
                if extra:
                    json.loads(out)
                else:
                    assert out.endswith("\n"), argv
                continue
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv + extra, err)
            assert len(caught) == 1, argv + extra
            kind = next((k for k in type(caught[0]).__mro__ if k in EXIT_CODES), None)
            assert kind is not None and code == EXIT_CODES[kind], (argv + extra, code, caught[0])


def test_the_harness_runs_at_least_500_cases():
    commands = ("dihedral-nf", "dihedral-eq", "dihedral-jsj", "root-search")
    cases = sum(len(list(_cases(c, random.Random(f"totality {c}")))) for c in commands)
    assert 2 * cases >= 500  # each with and without --json
