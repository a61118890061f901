"""Where input is checked: every public constructor keeps every message,
derived values are not checked again, and only listed call sites build
values through the private constructors."""

import ast
import builtins
import re
from collections import Counter
from itertools import takewhile
from pathlib import Path

import pytest

from artin import (
    DisconnectedGraphError,
    GraphFormatError,
    LabelledGraph,
    Presentation,
    Word,
    WordFormatError,
    alternating,
    aut_acylindrically_hyperbolic,
    big_chunks,
    odd_components,
    parse_graph,
    parse_presentation,
    profile,
    splits_over_cyclic,
)
from artin import errors, graphs, presentations, words
from artin.cli import main

from corpus import FAN_TEXT

SRC = Path(__file__).resolve().parents[1] / "src" / "artin"
README = SRC.parents[1] / "README.md"


def _exact(message):
    return "^" + re.escape(message) + "$"


GRAPH_MESSAGES = [
    (("1a",), (), "bad vertex name '1a'"),
    (("a", "a"), (), "duplicate vertex 'a'"),
    (("b", "a"), (), "vertices must be sorted"),
    (("a",), (("a", "b", 2),), "edge a-b on unknown vertex"),
    (("a",), (("a", "a", 2),), "self loop at 'a'"),
    (("a", "b"), (("b", "a", 2),), "edge b-a not in canonical order"),
    (("a", "b"), (("a", "b", 1),), "edge a-b label must be an integer >= 2"),
    (("a", "b"), (("a", "b", 3.0),), "edge a-b label must be an integer >= 2"),
    (("a", "b"), (("a", "b", 2), ("a", "b", 3)), "duplicate edge a-b"),
    (("a", "b", "c"), (("a", "c", 2), ("a", "b", 2)), "edges must be sorted"),
]


@pytest.mark.parametrize("vertices, edges, message", GRAPH_MESSAGES)
def test_graph_constructor_messages(vertices, edges, message):
    with pytest.raises(GraphFormatError, match=_exact(message)):
        LabelledGraph(vertices, edges)


PARSE_MESSAGES = [
    ("e a b two\n", "line 1: bad label 'two'"),
    ("e a b 1_0\n", "line 1: bad label '1_0'"),
    ("e a b \uff13\n", "line 1: bad label '\uff13'"),
    ("e a b 3\ne b c \u0663\n", "line 2: bad label '\u0663'"),
    ("e a b -3\n", "line 1: label must be >= 2, got -3"),
    # past Python's 4300-digit conversion limit the digits are counted, not echoed
    pytest.param(
        f"e a b {'3' * 5000}\n", "line 1: bad label (5000 digits, more than 4300)",
        id="5000-digit-label",
    ),
]


@pytest.mark.parametrize("text, message", PARSE_MESSAGES)
def test_parse_graph_messages(capsys, tmp_path, text, message):
    with pytest.raises(GraphFormatError, match=_exact(message)):
        parse_graph(text)
    path = tmp_path / "bad.graph"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_graph_reads_signed_ascii_labels():
    assert parse_graph("e a b +3\ne b c 04\n").edges == (("a", "b", 3), ("b", "c", 4))


def test_from_edges_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match=_exact("duplicate edge a-b")):
        LabelledGraph.from_edges([("a", "b", 2), ("b", "a", 3)])


WORD_MESSAGES = [
    (("a",), "bad letter 'a'"),
    ((("a", 1, 2),), "bad letter ('a', 1, 2)"),
    ((("1a", 1),), "bad generator name '1a'"),
    (((3, 1),), "bad generator name 3"),
    ((("a", 0),), "exponent of a must be a nonzero integer"),
    ((("a", 1.0),), "exponent of a must be a nonzero integer"),
]


@pytest.mark.parametrize("letters, message", WORD_MESSAGES)
def test_word_constructor_messages(letters, message):
    with pytest.raises(WordFormatError, match=_exact(message)):
        Word(letters)


def test_generator_and_alternating_messages():
    with pytest.raises(WordFormatError, match=_exact("bad generator name '1a'")):
        Word.generator("1a")
    with pytest.raises(WordFormatError, match=_exact("exponent of a must be a nonzero integer")):
        Word.generator("a", 0)
    with pytest.raises(WordFormatError, match=_exact("bad generator name '1b'")):
        alternating("a", "1b", 2)
    with pytest.raises(WordFormatError, match=_exact("bad generator name '1a'")):
        alternating("1a", "1b", 5)
    with pytest.raises(ValueError, match=_exact("length must be nonnegative")):
        alternating("a", "b", -1)
    # only the names a word uses are checked
    assert alternating("1a", "1b", 0) == Word()
    assert alternating("a", "1b", 1) == Word.generator("a")


PRESENTATION_MESSAGES = [
    (("1a",), (), "gen: 1a\n", "bad generator name '1a'"),
    (("a", "b", "a"), (), "gen: a b a\n", "duplicate generator 'a'"),
    (
        ("a",),
        ("a c b^2",),
        "gen: a\nrel: a c b^2\n",
        "relator uses unknown generators ['b', 'c']",
    ),
]


@pytest.mark.parametrize("generators, relators, text, message", PRESENTATION_MESSAGES)
def test_presentation_messages(generators, relators, text, message):
    with pytest.raises(WordFormatError, match=_exact(message)):
        Presentation(generators, tuple(Word.from_text(r) for r in relators))
    with pytest.raises(WordFormatError, match=_exact(message)):
        parse_presentation(text)


def _count_name_checks(monkeypatch, capsys, argv):
    pattern = words.NAME_RE
    calls = []

    class Counting:
        def fullmatch(self, s):
            calls.append(s)
            return pattern.fullmatch(s)

    for module in (words, graphs, presentations):
        monkeypatch.setattr(module, "NAME_RE", Counting())
    assert main(argv) == 0
    capsys.readouterr()
    return len(calls)


def test_relator_names_are_not_checked_per_letter(monkeypatch, capsys, tmp_path):
    small, large = tmp_path / "small.graph", tmp_path / "large.graph"
    small.write_text("e a b 3\n")
    large.write_text("e a b 100001\n")
    assert _count_name_checks(monkeypatch, capsys, ["presentation", str(small)]) == (
        _count_name_checks(monkeypatch, capsys, ["presentation", str(large)])
    )


def test_chunk_graphs_are_not_checked_again(monkeypatch, capsys, tmp_path):
    n = 400
    edges = [f"e v{i} v{(i + 1) % n} 3" for i in range(n)]
    edges += [f"e v{i} v{i + 7} 2" for i in range(0, n - 7, 5)]
    big = tmp_path / "big.graph"
    big.write_text("\n".join(edges) + "\n")
    assert _count_name_checks(monkeypatch, capsys, ["chunks", str(big)]) <= n


# command -> (searches over the input graph's edges, other searches)
COMPONENT_SEARCHES = {
    ("validate",): (1, 0),
    ("split",): (0, 0),
    ("chunks",): (0, 0),
    ("jsj",): (0, 0),
    ("acylindrical",): (0, 0),
    ("retract", "0", "a"): (0, 0),
    ("profile",): (0, 1),
}


@pytest.mark.parametrize("command", list(COMPONENT_SEARCHES), ids=" ".join)
def test_components_searched_at_most_once(monkeypatch, capsys, tmp_path, command):
    fan = parse_graph(FAN_TEXT)
    path = tmp_path / "fan.graph"
    path.write_text(FAN_TEXT)
    real = graphs._components
    seen = []

    def counting(vertices, edges):
        seen.append(tuple(edges) == fan.edges)
        return real(vertices, edges)

    monkeypatch.setattr(graphs, "_components", counting)
    assert main([command[0], str(path), *command[1:]]) == 0
    capsys.readouterr()
    assert (seen.count(True), seen.count(False)) == COMPONENT_SEARCHES[command]


def test_connectivity_reads_the_edges_only():
    g = parse_graph(FAN_TEXT)
    assert g.is_connected() and len(odd_components(g)) == 4
    assert "_adj" not in vars(g)


@pytest.mark.parametrize("text", ["e a b 2\nv z\n", "e a b 3\ne b c 2\ne c a 4\ne x y 3\n"])
def test_disconnected_graphs_report_components(text):
    g = parse_graph(text)
    comps = g.components()
    for call in (
        lambda: big_chunks(g),
        lambda: profile(g),
        lambda: aut_acylindrically_hyperbolic(g),
    ):
        with pytest.raises(DisconnectedGraphError) as exc:
            call()
        assert exc.value.components == comps
    assert splits_over_cyclic(g).components == comps


# (module, function) sites allowed to build unchecked values
PRIVATE_CONSTRUCTOR_SITES = {
    ("words", "Word.from_text"),
    ("words", "Word.__mul__"),
    ("words", "Word.__pow__"),
    ("words", "Word.inverse"),
    ("words", "Word.free_reduce"),
    ("graphs", "LabelledGraph.induced"),
    ("graphs", "parse_graph"),
    ("graphs", "big_chunks"),
    ("graphs", "retract_word"),
    ("words", "Word._renamed"),
    ("dihedral", "OddNormalForm.__str__"),
    ("dihedral", "EvenNormalForm.__str__"),
    ("dihedral", "as_defining_generators"),
    ("dihedral", "reduced_words"),
    ("presentations", "artin_presentation"),
    ("presentations", "simplify_identifications"),
}


def _uses(name):
    """(module, enclosing qualified name) of every use of ``name`` in the package."""
    found = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr == name:
            found.add((module, ".".join(scope)))
        if isinstance(node, ast.Name) and node.id == name:
            found.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return found


def test_private_constructors_only_at_listed_sites():
    assert _uses("_trusted") == PRIVATE_CONSTRUCTOR_SITES
    # an alternating word's constructor skips the letter checks too: only
    # ``alternating``, after checking its names, and values derived from one
    assert _uses("_Alternating") == {
        ("words", "alternating"),
        ("words", "_Alternating.inverse"),
        ("words", "_Alternating.__pow__"),
        ("words", "_ArtinRelator._halves"),
    }
    # so does an Artin relator's: only on the edges of a checked graph, and
    # when one renames itself; the identification test names the class
    assert _uses("_ArtinRelator") == {
        ("presentations", "artin_presentation"),
        ("presentations", "_is_identification"),
        ("gog", "ChunkParabolic.relators"),
        ("words", "_ArtinRelator._renamed"),
    }
    # each class has one private constructor, and nothing else makes bare instances
    assert _uses("__new__") == {
        ("words", "Word._trusted"),
        ("graphs", "LabelledGraph._trusted"),
        ("presentations", "Presentation._trusted"),
    }


def test_memo_and_pairs_only_at_listed_sites():
    # the JSON writer renders a _Pairs by a memo, with no check of its members:
    # only the reduction, whose pairs are exact (str, int) by construction, builds one
    assert _uses("_Pairs") == {("dihedral", "_Reduction.form"), ("cli", "_json_pieces.text")}
    # each memo is exact because its work reads only the key's value
    assert _uses("_Memo") == {
        ("words", "Word.from_text"),
        ("words", "Word._render"),
        ("dihedral", "_Reduction.__init__"),
        ("graphs", "parse_graph"),
        ("cli", "_json_pieces.text"),
    }


def _imported_and_used(tree):
    """(names a module binds by import, names it reads) from its syntax tree."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def test_modules_import_only_names_they_use():
    # __init__ imports to re-export
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            imported, used = _imported_and_used(ast.parse(path.read_text(encoding="utf-8")))
            if imported - used:
                unused[path.stem] = sorted(imported - used)
    assert unused == {}


def _modules_naming(names) -> set[str]:
    """The modules of the package that name any of ``names``, imported or read."""
    return {
        path.stem
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    }


def test_group_descriptor_kinds_are_named_only_in_gog():
    # each descriptor presents itself; no other module tells the kinds apart
    descriptors = ("CyclicOnGenerator", "CyclicOnWord", "FreeAbelianPair", "ChunkParabolic")
    assert _modules_naming(descriptors) == {"gog", "__init__"}


def test_the_only_memo_is_words_memo():
    # work each distinct item out once through words._Memo, not a memo of its own
    defining = {
        f"{path.stem}.{node.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__missing__"
    }
    assert defining == {"words._Memo"}


def test_normal_form_kinds_are_named_only_in_dihedral():
    # each normal form prints and serializes itself; no other module tells the kinds apart
    normal_forms = ("AbelianNormalForm", "OddNormalForm", "EvenNormalForm")
    assert _modules_naming(normal_forms) == {"dihedral", "__init__"}


def test_dihedral_reduces_residues_only_in_push():
    # the letter images are closed forms of the label, and _Reduction.push is
    # the one place that reduces a residue and carries: dihedral has no divmod
    assert "dihedral" not in {module for module, _ in _uses("divmod")}


def _names_read(node) -> Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))
    )


def test_module_private_names_are_used():
    # a private helper left behind when the path that called it is deleted
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    reads = sum((_names_read(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                # reads inside the definition itself, such as a recursive call, do not count
                if name.startswith("_") and not name.startswith("__") \
                        and reads[name] == _names_read(node)[name]:
                    unused.append(f"{module}.{name}")
    assert unused == []


def _without_nested_functions(fn: ast.FunctionDef):
    """The nodes of fn's own body, not those of functions or lambdas defined in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_cli_commands_only_return_their_renderings():
    # main alone writes a result to stdout and sets the success exit code;
    # every command returns its (payload, text) pair and nothing else
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    offences = []
    for fn in tree.body:
        name = getattr(fn, "name", "module level")
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and name != "main" \
                    and ast.unparse(node.func) in ("print", "sys.stdout.write"):
                offences.append(f"{name} calls {ast.unparse(node.func)}")
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_"):
            for node in _without_nested_functions(fn):
                if isinstance(node, ast.Return) and not (
                        isinstance(node.value, ast.Tuple) and len(node.value.elts) == 2):
                    offences.append(f"{fn.name} returns {ast.unparse(node.value)}")
    assert offences == []


def test_readme_exit_codes_match_the_code():
    # each row of the README's table gives its class's exit_code, and the
    # paragraph after the table names every error that main catches without
    # it being an ArtinError
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| class | `exit_code` |") + 2
    rows = list(takewhile(lambda line: line.startswith("|"), lines[start:]))
    table = dict(re.fullmatch(r"\| `(\w+)`[^|]*\| (\d+) \|", row).groups() for row in rows)
    assert len(table) == len(rows) > 0
    assert table == {name: str(getattr(errors, name).exit_code) for name in table}
    paragraph = " ".join(takewhile(bool, lines[start + len(rows) + 1:]))
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    main_fn = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main")
    caught = {ast.unparse(h.type) for h in ast.walk(main_fn) if isinstance(h, ast.ExceptHandler)}
    builtin = {name for name in caught if isinstance(getattr(builtins, name, None), type)}
    assert builtin == {"OSError", "OverflowError", "MemoryError"}
    assert [name for name in sorted(builtin) if f"`{name}`" not in paragraph] == []


def _self_calls():
    """Qualified names of the functions in the package whose body calls the function itself.

    A plain function calls itself by its name, unless the name is rebound
    in it; a method calls itself through its first argument or its class.
    A call through a local alias, such as ``push = stack.append`` in a
    method named ``push``, is not a call of the function.
    """
    found = set()

    def visit(node, module, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, scope + (child.name,), child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if cls is None:
                    bound = set(params) | {n.id for n in ast.walk(child)
                                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
                    calls_itself = child.name not in bound and any(
                        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == child.name
                        for n in ast.walk(child))
                else:
                    owners = {cls} | set(params[:1])
                    calls_itself = any(
                        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr == child.name and isinstance(n.func.value, ast.Name)
                        and n.func.value.id in owners
                        for n in ast.walk(child))
                if calls_itself:
                    found.add(f"{module}.{'.'.join(scope + (child.name,))}")
                visit(child, module, scope + (child.name,), None)
            else:
                visit(child, module, scope, cls)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, (), None)
    return found


def test_no_function_calls_itself():
    # no operation may stop at Python's recursion limit: every search walks an
    # explicit stack. The JSON writer's nested ``text`` recurses only as deep
    # as the payload's own nesting, which the commands build a few levels deep
    assert _self_calls() == {"cli._json_pieces.text"}
