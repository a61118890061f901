"""Command line interface.

A ``_cmd_*`` function returns its result's two renderings, (JSON
payload, text), as zero-argument callables; ``main`` alone writes the
one ``--json`` selects, a list of string pieces built whole, words'
kept pieces among them, and exits 0. A long piece is written in slices,
so a long word is never copied whole. With ``--dot``, which excludes
``--json``, the text is the Graphviz graph or ``wrote PATH``.

Exit codes: 0 success, 1 invalid input (unreadable files, parse errors,
bad arguments), 2 precondition violations (wrong graph shape for an
operation), 64 unknown subcommand. An error raised by the toolkit exits
with the ``exit_code`` of its class in :mod:`artin.errors`. Three errors
that are not the toolkit's have arms of their own, each printing one
``error:`` line: ``OSError`` (a file that cannot be read or written)
exits 1; ``OverflowError`` (a size past ``sys.maxsize``) and
``MemoryError`` (a result too large to build) exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from .dihedral import normal_form, root_bound_search, words_equal
from .errors import ArtinError, GraphFormatError
from .gog import GraphOfGroups, build_jsj, collapse_jsj, dihedral_jsj
from .graphs import big_chunks, parse_graph, retract_word
from .invariants import aut_acylindrically_hyperbolic, compare, profile
from .presentations import (
    abelianize,
    artin_abelianization,
    artin_presentation,
    gog_presentation,
    _presentation_pieces,
    simplify_identifications,
)
from .splitting import splits_over_cyclic
from .words import Word, _Memo, _Pairs, _ascii_int

_encode_str = json.encoder.encode_basestring_ascii
_SLICE = 1 << 16  # characters written at a time from a longer piece
# (JSON payload, text); the text is a list of its pieces
_Renderings = tuple[Callable[[], object], Callable[[], "list[str] | tuple[str, ...]"]]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_arg(text: str) -> int:
    """An integer argument, read by the same rule as graph labels and exponents."""
    try:
        return _ascii_int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"invalid int value: {err}") from None


def _load_graph(path: str):
    """The graph in a UTF-8 file; a leading byte-order mark is skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:  # err.object is data after any byte-order mark
        offset = err.start + len(data) - len(err.object)
        raise GraphFormatError(f"{path}: not UTF-8 text (byte {offset})") from None
    return parse_graph(text)


def _word_text(value) -> str:
    """``json.dumps``'s ``default``: a word's text; any other value raises json's TypeError."""
    return value.to_text() if isinstance(value, Word) else json.JSONEncoder().default(value)


def _json_pieces(value) -> list[str]:
    """Exactly ``json.dumps(value, indent=2, default=_word_text)``, in pieces.
    ``json.dumps`` leaves its C encoder when ``indent`` is set; ``text`` renders
    strings and ints by the encoder's own functions, and None and the two
    bools as their literals. It renders each distinct pair of a
    ``words._Pairs``, such as a normal form's syllables, once, by a ``_Memo``:
    its pairs are exact ``(str, int)`` by construction, and equal ones render
    alike (values of other types can differ: ``True == 1 == 1.0``). Every other
    list is rendered item by item. A word is its kept pieces and a
    memo-rendered list its own pieces, each written as a ``\\0`` between the
    pieces of the rest of the document, so no enclosing container copies
    them. Anything else is ``json.dumps``'d, re-indented."""
    spliced = []  # the pieces of each word and memo-rendered list, in order

    def text(value, newline: str) -> str:
        kind = type(value)
        if kind is str:
            return _encode_str(value)
        if kind is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if kind is bool:
            return "true" if value else "false"
        inner = newline + "  "
        if kind is dict and all(type(key) is str for key in value):
            if not value:
                return "{}"
            items = (_encode_str(k) + ": " + text(v, inner) for k, v in value.items())
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        if kind is list or kind is tuple or kind is _Pairs:
            if not value:
                return "[]"
            if kind is _Pairs:  # each distinct pair rendered once, then looked up
                parts = map(_Memo(lambda item: text(item, inner)).__getitem__, value)
                spliced.append(("[" + inner, ("," + inner).join(parts), newline + "]"))
                return "\0"
            parts = [text(item, inner) for item in value]
            return "[" + inner + ("," + inner).join(parts) + newline + "]"
        if isinstance(value, Word):
            spliced.append(value._text_pieces())
            return '"\0"'
        return json.dumps(value, indent=2, default=_word_text).replace("\n", newline)

    doc = text(value, "\n")
    head, *tails = doc.split("\0") if spliced else (doc,)  # the encoder escapes any other \0
    pieces = [head]
    for spliced_pieces, tail in zip(spliced, tails):
        pieces += (*spliced_pieces, tail)
    return pieces


def _write_dot(gog: GraphOfGroups, path: str) -> list[str]:
    """The Graphviz text for ``-``; otherwise write it to ``path`` and say so."""
    pieces = gog._dot_pieces()
    if path == "-":
        return pieces
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
    return [f"wrote {path}"]


def _cmd_validate(args) -> _Renderings:
    g = _load_graph(args.file)
    connected = g.is_connected()
    return (
        lambda: {
            "vertices": list(g.vertices),
            "edges": [[u, v, m] for u, v, m in g.edges],
            "connected": connected,
        },
        lambda: [f"ok: {len(g.vertices)} vertices, {len(g.edges)} edges, "
                 + ("connected" if connected else "disconnected")],
    )


def _cmd_chunks(args) -> _Renderings:
    decomp = big_chunks(_load_graph(args.file))

    def text():
        lines = [
            f"chunk {i}: {{{','.join(c.vertices)}}} {cls}"
            for i, (c, cls) in enumerate(zip(decomp.chunks, decomp.classes()))
        ]
        lines.append("separating: " + (" ".join(decomp.separating) or "(none)"))
        return ["\n".join(lines)]

    return decomp.to_json_dict, text


def _cmd_split(args) -> _Renderings:
    verdict = splits_over_cyclic(_load_graph(args.file))

    def text():
        lines = [f"verdict: {verdict.verdict}", f"ends: {verdict.ends}"]
        if verdict.vertex is not None:
            lines.append(
                f"witness: amalgam over <{verdict.vertex}> of the parabolics"
                f" on {{{','.join(verdict.left)}}} and {{{','.join(verdict.right)}}}"
            )
        if verdict.label is not None:
            lines.append(f"witness: single edge with label {verdict.label}")
        if verdict.components is not None:
            lines.append(
                "witness: free product over components "
                + " ".join("{" + ",".join(c) + "}" for c in verdict.components)
            )
        return ["\n".join(lines)]

    return verdict.to_json_dict, text


def _cmd_jsj(args) -> _Renderings:
    gog = build_jsj(_load_graph(args.file))
    if args.collapsed:
        gog = collapse_jsj(gog)
    text = (lambda: _write_dot(gog, args.dot)) if args.dot else gog._text_pieces
    return gog.to_json_dict, text


def _cmd_dihedral_jsj(args) -> _Renderings:
    gog = dihedral_jsj(args.label)
    if args.dot:
        return gog.to_json_dict, lambda: _write_dot(gog, args.dot)
    pres = gog_presentation(gog)
    return (
        lambda: {**gog.to_json_dict(), "presentation": pres.to_json_dict()},
        lambda: [*gog._text_pieces(), "presentation: ", *_presentation_pieces(pres)],
    )


def _cmd_abelianize(args) -> _Renderings:
    g = _load_graph(args.file)
    if args.of_jsj:
        shape = abelianize(gog_presentation(build_jsj(g)))
        source = "fundamental group of the decomposition"
    else:
        shape = artin_abelianization(g)
        source = "vertex presentation"
    return (
        lambda: {"source": source, "abelianization": shape.to_json_dict()},
        lambda: [f"{shape.describe()} (from the {source})"],
    )


def _cmd_presentation(args) -> _Renderings:
    g = _load_graph(args.file)
    pres = gog_presentation(build_jsj(g)) if args.of_jsj else artin_presentation(g)
    if args.simplify:
        pres = simplify_identifications(pres)
    return pres.to_json_dict, lambda: _presentation_pieces(pres)


def _cmd_profile(args) -> _Renderings:
    p = profile(_load_graph(args.file))
    return p.to_json_dict, lambda: ["\n".join(
        f"{key}: {value}" for key, value in p.to_json_dict().items()
    )]


def _cmd_compare(args) -> _Renderings:
    verdict = compare(profile(_load_graph(args.file1)), profile(_load_graph(args.file2)))
    return verdict.to_json_dict, lambda: ["\n".join(
        [f"verdict: {verdict.verdict}"]
        + [f"reason: {r}" for r in verdict.reasons]
        + [f"note: {n}" for n in verdict.notes]
    )]


def _cmd_acylindrical(args) -> _Renderings:
    verdict = aut_acylindrically_hyperbolic(_load_graph(args.file))

    def text():
        lines = [f"acylindrically hyperbolic: {'yes' if verdict.value else 'not established'}"]
        if verdict.witness:
            lines.append(f"witness: ({verdict.witness[0]}, {verdict.witness[1]})")
        lines.append(f"reason: {verdict.reason}")
        return ["\n".join(lines)]

    return verdict.to_json_dict, text


def _cmd_dihedral_nf(args) -> _Renderings:
    nf = normal_form(args.label, Word.from_text(args.word))
    return lambda: vars(nf), lambda: [str(nf)]  # its fields, in declaration order


def _cmd_dihedral_eq(args) -> _Renderings:
    equal = words_equal(args.label, Word.from_text(args.word1), Word.from_text(args.word2))
    return lambda: {"equal": equal}, lambda: ["equal" if equal else "different"]


def _cmd_retract(args) -> _Renderings:
    decomp = big_chunks(_load_graph(args.file))
    out = retract_word(decomp, args.chunk, Word.from_text(args.word))
    return lambda: {"word": out}, out._text_pieces


def _cmd_root_search(args) -> _Renderings:
    hits = root_bound_search(args.label, args.max_len, args.max_degree)

    def text():
        pieces = [] if hits else [
            f"no counterexamples: no primitive element of <a, z> has a root of degree"
            f" {args.label // 2 + 1}..{args.max_degree} among words up to length {args.max_len}"
        ]
        for w, k, (i, j) in hits:
            pieces += ("counterexample: (", *w._text_pieces(), f")^{k} = a^{i} z^{j}\n")
        return pieces

    return (
        lambda: {
            "label": args.label,
            "max_length": args.max_len,
            "max_degree": args.max_degree,
            "counterexamples": [
                {"word": w, "degree": k, "a_exp": i, "z_exp": j}
                for w, k, (i, j) in hits
            ],
        },
        text,
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="artin", description="Artin group splittings toolkit")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name, fn, help_text, dot=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        output = p.add_mutually_exclusive_group() if dot else p
        output.add_argument("--json", action="store_true", help="emit JSON")
        if dot:
            output.add_argument(
                "--dot", metavar="PATH", help="write Graphviz output to PATH ('-' for stdout)"
            )
        return p

    p = add("validate", _cmd_validate, "parse a graph file and summarize it")
    p.add_argument("file")

    p = add("chunks", _cmd_chunks, "chunk decomposition with classification")
    p.add_argument("file")

    p = add("split", _cmd_split, "decide splittability over cyclic subgroups")
    p.add_argument("file")

    p = add("jsj", _cmd_jsj, "JSJ graph of groups of the Artin group", dot=True)
    p.add_argument("file")
    p.add_argument("--collapsed", action="store_true", help="collapse loops and red edges")

    p = add("dihedral-jsj", _cmd_dihedral_jsj, "JSJ of the dihedral group on a label", dot=True)
    p.add_argument("label", type=_int_arg)

    p = add("abelianize", _cmd_abelianize, "abelianization of the Artin group")
    p.add_argument("file")
    p.add_argument("--of-jsj", action="store_true", help="use the decomposition's fundamental group")

    p = add("presentation", _cmd_presentation, "print a finite presentation")
    p.add_argument("file")
    p.add_argument("--of-jsj", action="store_true", help="fundamental group of the decomposition")
    p.add_argument("--simplify", action="store_true", help="eliminate identification relators")

    p = add("profile", _cmd_profile, "isomorphism-invariant profile")
    p.add_argument("file")

    p = add("compare", _cmd_compare, "compare two profiles with certified reasons")
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("acylindrical", _cmd_acylindrical, "acylindrical hyperbolicity of Aut")
    p.add_argument("file")

    p = add("dihedral-nf", _cmd_dihedral_nf, "normal form in a dihedral Artin group")
    p.add_argument("label", type=_int_arg)
    p.add_argument("word")

    p = add("dihedral-eq", _cmd_dihedral_eq, "equality of two dihedral words")
    p.add_argument("label", type=_int_arg)
    p.add_argument("word1")
    p.add_argument("word2")

    p = add("retract", _cmd_retract, "retract a word onto a chunk")
    p.add_argument("file")
    p.add_argument("chunk", type=_int_arg)
    p.add_argument("word")

    p = add("root-search", _cmd_root_search, "search for roots violating the root bound")
    p.add_argument("label", type=_int_arg)
    p.add_argument("max_len", type=_int_arg)
    p.add_argument("max_degree", type=_int_arg)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 64 if "invalid choice" in str(err) else 1
    if not getattr(args, "fn", None):
        parser.print_help()
        return 1
    try:
        payload, text = args.fn(args)
        pieces = _json_pieces(payload()) if args.json else text()  # built whole, then written
        end = "" if next(filter(None, reversed(pieces)), "").endswith("\n") else "\n"
        if max(map(len, pieces), default=0) > _SLICE:  # the stream encodes a piece in one copy
            pieces = (p[i : i + _SLICE] for p in pieces for i in range(0, len(p), _SLICE))
        sys.stdout.writelines(pieces)
        sys.stdout.write(end)
    except ArtinError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OverflowError as err:  # a size past sys.maxsize
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:  # a result too large to build, such as a normal form of 10^9 syllables
        print("error: out of memory", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
