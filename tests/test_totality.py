"""Totality of the dihedral and the block-cut commands on seeded hostile input, run through ``cli.main``.

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

The commands that read the block-cut tree (``validate``, ``chunks``,
``split``, ``jsj`` with each of its renderings, ``acylindrical`` and
``retract``) run on graphs of 1 to 7 vertices, disconnected ones and
isolated vertices included, whose names collide with the names the
decompositions generate (``z_a_b``, ``r_s``, ``a_``, ``B_x``, ``W_a``),
and on malformed and missing files. ``retract`` also gets chunk indexes
out of range and letters that are not vertices.
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
    errors.GraphFormatError: 1,
    errors.WordFormatError: 1,
    errors.PreconditionError: 2,
    errors.DisconnectedGraphError: 2,
    OSError: 1,
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


def _assert_total(capsys, monkeypatch, cases):
    caught = []

    def spy(*args, **kwargs):  # main prints an error line inside the arm that caught it
        caught.append(sys.exc_info()[1])
        builtins.print(*args, **kwargs)

    monkeypatch.setattr(artin.cli, "print", spy, raising=False)
    for argv in cases:
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


DIHEDRAL_COMMANDS = ("dihedral-nf", "dihedral-eq", "dihedral-jsj", "root-search")


@pytest.mark.parametrize("command", DIHEDRAL_COMMANDS)
def test_dihedral_commands_are_total(capsys, monkeypatch, command):
    _assert_total(capsys, monkeypatch, _cases(command, random.Random(f"totality {command}")))


# names the decompositions generate: central words z_<support>, red-edge
# roots r_<vertex>, freshened names with a trailing _, and the JSJ's black
# and white vertex names B_<...> and W_<...>
NAMES = ("a", "b", "c", "s", "z_a_b", "r_s", "a_", "B_x", "W_a", "z_a", "r_b")
GRAPH_LABELS = (2, 3, 4, 5, 6, 7)
MALFORMED = (
    "", "# only a comment\n", "e a b 1\n", "e a a 3\n", "e a b x\n", "e a b 2.5\n",
    "v 1a\n", "v a b\n", "e a b\n", "q a\n", "e a b 2\ne b a 3\n", "e a b 2\nv\n",
    "e z_a_b a- 2\n", "e a b " + "3" * 5000 + "\n",
)
GRAPH_COMMANDS = ("validate", "chunks", "split", "jsj", "acylindrical", "retract")


def _graph_text(rng):
    """Connected three times in four: a random tree plus random edges; else any density."""
    names = rng.sample(NAMES, rng.randint(1, 7))
    connected = rng.random() < 0.75
    p = rng.choice((0.0, 0.2, 0.4, 0.6, 1.0))
    pairs = {(names[rng.randrange(i)], names[i]) for i in range(1, len(names))} if connected else set()
    pairs |= {(u, v) for i, u in enumerate(names) for v in names[i + 1:] if rng.random() < p}
    lines = [f"e {u} {v} {rng.choice(GRAPH_LABELS)}" for u, v in sorted(pairs)]
    lines += [f"v {v}" for v in names if rng.random() < 0.3 or not any(v in uv for uv in pairs)]
    rng.shuffle(lines)
    return names, "\n".join(lines) + "\n"


def _graph_files(directory):
    """(path, vertex names) of each seeded graph file, the malformed ones and a missing one."""
    rng = random.Random("totality graphs")
    files = []
    for i in range(70):
        names, text = _graph_text(rng)
        files.append((directory / f"g{i}.txt", names))
        files[-1][0].write_text(text)
    for i, text in enumerate(MALFORMED):
        files.append((directory / f"bad{i}.txt", ["a", "b"]))
        files[-1][0].write_text(text)
    files.append((directory / "missing.txt", ["a"]))
    return files


def _graph_cases(command, files, rng):
    for path, names in files:
        f = str(path)
        if command == "jsj":
            for flags in ([], ["--collapsed"], ["--dot", "-"], ["--collapsed", "--dot", "-"]):
                yield [command, f, *flags]
        elif command == "retract":
            for _ in range(3):
                chunk = rng.choice((0, 0, 1, 2, 6, -1, 10**18))
                letters = [rng.choice(names + ["q"] * (rng.random() < 0.3)) for _ in range(rng.randint(0, 4))]
                word = " ".join(f"{v}^{rng.choice((1, -1, 2, -3, 10**18))}" for v in letters)
                yield [command, f, str(chunk), word]
        else:
            yield [command, f]


@pytest.mark.parametrize("command", GRAPH_COMMANDS)
def test_block_cut_commands_are_total(capsys, monkeypatch, tmp_path, command):
    files = _graph_files(tmp_path)
    _assert_total(capsys, monkeypatch, _graph_cases(command, files, random.Random(f"totality {command}")))


def test_the_harness_runs_at_least_500_cases():
    cases = sum(len(list(_cases(c, random.Random(f"totality {c}")))) for c in DIHEDRAL_COMMANDS)
    assert 2 * cases >= 500  # each with and without --json


def test_the_block_cut_slice_runs_at_least_600_cases(tmp_path):
    files = _graph_files(tmp_path)
    cases = sum(len(list(_graph_cases(c, files, random.Random(f"totality {c}")))) for c in GRAPH_COMMANDS)
    assert 2 * cases >= 600  # each with and without --json
