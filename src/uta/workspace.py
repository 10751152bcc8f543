"""Workspace files: named symbol tables, algebras, recognizers, morphisms.

One file holds any number of sections::

    symbols sym { operators: f g; leaves: x y; }
    algebra parity {
      symbols: sym;
      elements: 0 1;
      op f {
        states: q0 q1; start: q0;
        out: q0 -> 0, q1 -> 1;
        delta: q0 0 -> q0, q0 1 -> q1, q1 0 -> q1, q1 1 -> q0;
      }
    }
    recognizer odd { algebra: parity; valuation: x -> 1; finals: 1; }
    gmorphism relab { from: sym2; to: sym; iota: h -> f; alpha: y -> f(x); }

``#`` starts a comment, which ends at any line break ``str.splitlines``
knows.  Every (state, letter) pair must appear exactly once in a delta
block.  Errors carry file and line.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .algebra import RegularAlgebra
from .horizon import MachineError, MooreMachine
from .recognizer import Recognizer
from .trees import SymbolTable, TermGMorphism, parse_term

_NAME = r"[A-Za-z0-9_]+(?:-[A-Za-z0-9_]+)*"
_TOKEN = re.compile(_NAME + r"|->|[{};:,()@]")
_PUNCTUATION = frozenset(["->", *"{};:,()@"])  # every other token is a name
# a comment runs up to the next line break that str.splitlines knows
_COMMENT = re.compile("#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
# a name as _TOKEN cuts it: no name character, nor '-' and one, follows it
_WORD = rf"(?:{_NAME})(?![A-Za-z0-9_]|-[A-Za-z0-9_])"
# A field's list of names and '->'s, from its ':' to its ';', is one token;
# any other text is cut by _TOKEN, and a character no token holds gives an
# empty one.
_LIST_TOKEN = re.compile(rf":[\s,]*(?:(?:{_WORD}|->)[\s,]*)*;|{_TOKEN.pattern}|(?=\S)")
# An entry of a '->' list of one- or two-name keys, each name a group
_ARROW_ENTRY = {
    width: re.compile(r"\s+".join([f"({_WORD})"] * width) + rf"\s*->\s*({_WORD})")
    for width in (1, 2)
}


class WorkspaceError(ValueError):
    def __init__(self, message, path=None, line=None):
        where = f"{path}:{line}: " if path else ""
        super().__init__(where + message)
        self.path = path
        self.line = line


@dataclass
class Workspace:
    symbols: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    recognizers: dict = field(default_factory=dict)
    gmorphisms: dict = field(default_factory=dict)
    algebra_symbols: dict = field(default_factory=dict)

    def symbols_of_algebra(self, name: str) -> SymbolTable:
        return self.symbols[self.algebra_symbols[name]]


class _Tokens:
    def __init__(self, text: str, path: str):
        """The tokens of the text, comments stripped, as one flat list read
        by one ``findall``; a field's list of names, from its ':' to its
        ';', is one token (``list_body``), and None ends the list.  ``idx``
        is the next one to read.  A token's line is worked out from its
        index only when a message needs it.  Text the tokens do not cover
        (an empty token) goes through the per-line scan of ``items``, which
        reports the fault."""
        self.path = path
        self.text = _COMMENT.sub("", text)
        self.tokens = _LIST_TOKEN.findall(self.text)
        if "" in self.tokens:
            self.items  # the per-line scan raises at the fault
        self.tokens.append(None)
        self.idx = 0

    @functools.cached_property
    def items(self) -> list:
        """Every token with its line, read line by line; the first character
        of a line that no token starts at and is no space is a fault."""
        items = []
        for lineno, body in enumerate(self.text.splitlines(), start=1):
            pos = 0
            for m in [*_TOKEN.finditer(body), None]:
                bad = body[pos : m and m.start()].lstrip()
                if bad:
                    raise WorkspaceError(f"unexpected character {bad[0]!r}", self.path, lineno)
                if m:
                    items.append((m.group(0), lineno))
                    pos = m.end()
        return items

    def error(self, message, i=None):
        """A fault at the token at index ``i``: the next one by default, the
        last one past the end.  A list read as one token stands for the
        tokens of ``items`` it holds."""
        i = self.idx if i is None else i
        i += sum(len(_TOKEN.findall(tok)) - 1 for tok in self.tokens[:i] if tok[0] == ":")
        return WorkspaceError(message, self.path, self.items[min(i, len(self.items) - 1)][1] if self.items else 1)

    def peek(self):
        return self.tokens[self.idx]

    def take(self, expected=None):
        tok = self.tokens[self.idx]
        if tok is None:
            raise self.error(f"unexpected end of file (wanted {expected!r})")
        if tok[0] == ":" and tok != ":":  # a list, met where one token is read
            self.tokens[self.idx : self.idx + 1] = _TOKEN.findall(tok)
            tok = ":"
        if expected is not None and tok != expected:
            raise self.error(f"expected {expected!r}, got {tok!r}")
        self.idx += 1
        return tok

    def take_name(self, what="name"):
        tok = self.take()
        if tok in _PUNCTUATION:
            raise self.error(f"expected {what}, got {tok!r}", self.idx - 1)
        return tok

    def list_body(self):
        """The text between the ':' and the ';' of the next token if it is a
        list read as one token, else None; nothing is taken.  A list that is
        not read whole is read token by token from ``take(':')`` on."""
        tok = self.peek()
        return tok[1:-1] if tok is not None and tok[0] == ":" and tok != ":" else None


def _fields(toks: _Tokens, what="field"):
    """The key and token index of each field of a ``{ ... }`` block, braces
    taken; the caller reads the rest of each field."""
    toks.take("{")
    while toks.peek() != "}":
        yield toks.take_name(what), toks.idx - 1
    toks.take("}")


def _names(toks: _Tokens) -> list:
    """The names of a field's list, its ':' and ';' taken; commas between
    them are optional.  A list read as one token is split at once; else, or
    if it holds a '->', it is read token by token, which reports the fault."""
    body = toks.list_body()
    if body is not None and "->" not in body:
        toks.idx += 1
        return body.replace(",", " ").split()
    toks.take(":")
    names = []
    while toks.peek() is not None and toks.peek() != ";":
        if toks.peek() == ",":
            toks.take(",")
            continue
        names.append(toks.take_name())
    toks.take(";")
    return names


def _arrows(toks: _Tokens, into: dict, duplicate: str, left, right):
    """Reads the ``left... -> right`` entries of a field's list, its ':' and
    ';' taken, into ``into``, keyed by the left name or the pair of them;
    commas between entries are optional.  ``left`` says what each name
    before the arrow is, ``right`` what the name after it is, or None for
    a term.  A key already in ``into`` raises ``duplicate % key``.  A list
    of names read as one token is cut at its entries by one ``split``; a
    term list, or a list with more than commas and spaces between entries
    or with a repeated key, is read token by token, which reports the fault."""
    body = toks.list_body()
    if body is not None and right:
        # [between, key name(s), value, between, ...]: stride len(left) + 2
        width = len(left)
        parts = _ARROW_ENTRY[width].split(body)
        keys = parts[1::3] if width == 1 else list(zip(parts[1::4], parts[2::4]))
        entries = dict(zip(keys, parts[width + 1 :: width + 2]))
        between = "".join(parts[:: width + 2]).replace(",", " ")
        if len(entries) == len(keys) and not between.strip() and into.keys().isdisjoint(entries):
            into.update(entries)
            toks.idx += 1
            return
    toks.take(":")
    while (tok := toks.peek()) != ";":
        if tok == ",":
            toks.take(",")
            continue
        at = toks.idx
        key = toks.take_name(left[0])
        if len(left) == 2:
            key = key, toks.take_name(left[1])
        toks.take("->")
        value = toks.take_name(right) if right else _collect_term(toks)
        if key in into:
            raise toks.error(duplicate % key, at)
        into[key] = value
    toks.take(";")


def _parse_machine_body(toks: _Tokens, elements, opname, opat):
    """The machine of an ``op`` body; faults found after the body are
    reported at the ``op`` line.  ``MooreMachine`` checks the maps once;
    only a machine it refuses goes through the loader's own checks, which
    name the fault first, in their order."""
    states = []
    start = None
    out = {}
    delta = {}
    for key, at in _fields(toks, "machine field"):
        if key == "states":
            states = _names(toks)
        elif key == "start":
            toks.take(":")
            start = toks.take_name()
            toks.take(";")
        elif key == "out":
            _arrows(toks, out, "duplicate output for state %s", ("state",), "element")
        elif key == "delta":
            _arrows(toks, delta, "duplicate transition (%s, %s)", ("state", "letter"), "state")
        else:
            toks.take(":")  # a field lacking its ':' is refused for that first
            raise toks.error(f"unknown machine field {key!r}", at)
    try:
        return MooreMachine(tuple(states), tuple(elements), start, delta, out)
    except MachineError as e:
        fault = e
    if not states:
        raise toks.error(f"op {opname}: no states", opat)
    if start is None:
        raise toks.error(f"op {opname}: no start state", opat)
    for q in states:
        if q not in out:
            raise toks.error(f"op {opname}: no output for state {q}", opat)
        for a in elements:
            if (q, a) not in delta:
                raise toks.error(
                    f"op {opname}: incomplete machine, missing transition ({q}, {a})", opat
                )
    extra = set(delta) - {(q, a) for q in states for a in elements}
    if extra:
        q, a = sorted(extra)[0]
        raise toks.error(
            f"op {opname}: transition ({q}, {a}) uses an unknown state or letter", opat
        )
    raise toks.error(f"op {opname}: {fault}", opat) from fault


def _parse_reference(toks: _Tokens, where, key, at):
    """The one name a ``key: name;`` field refers to."""
    names = _names(toks)
    if len(names) != 1:
        problem = "empty" if not names else f"{len(names)} names in"
        raise toks.error(f"{where}: {problem} {key!r} field", at)
    return names[0]


def _collect_term(toks: _Tokens) -> str:
    """Slurp tokens of a term up to the closing ';', or a ',' outside its
    brackets, back into text."""
    parts, depth = [], 0
    while (tok := toks.peek()) not in (";", ",") or depth:
        if tok is None:
            raise toks.error("unterminated term")
        depth += (tok == "(") - (tok == ")")
        parts.append(toks.take())
    return "".join(parts)


def load_workspace(paths) -> Workspace:
    """Load and cross-validate one or more workspace files."""
    ws = Workspace()
    for path in paths:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
        _load_text(ws, text, str(path))
    return ws


def load_workspace_text(text: str, path: str = "<text>") -> Workspace:
    ws = Workspace()
    _load_text(ws, text, path)
    return ws


def _register(ws_dict, kind, name, value, toks, at):
    if name in ws_dict:
        raise toks.error(f"duplicate {kind} name {name!r}", at)
    ws_dict[name] = value


def _load_text(ws: Workspace, text: str, path: str):
    """Adds the sections of the text to ``ws``.  Section and field headers
    are taken token by token, each list of names or of ``->`` entries as one
    token from its ':' to its ';'; positions are token indices, turned into
    lines only for an error."""
    toks = _Tokens(text, path)
    while toks.peek() is not None:
        section = toks.take_name("section")
        at = toks.idx - 1
        name = toks.take_name(f"{section} name")
        where = f"{section} {name}"
        if section == "symbols":
            operators, leaves = [], []
            for key, kat in _fields(toks):
                values = _names(toks)
                if key == "operators":
                    operators = values
                elif key == "leaves":
                    leaves = values
                else:
                    raise toks.error(f"unknown symbols field {key!r}", kat)
            try:
                table = SymbolTable(tuple(operators), tuple(leaves))
            except ValueError as e:
                raise toks.error(str(e), at) from e
            _register(ws.symbols, "symbols", name, table, toks, at)
        elif section == "algebra":
            symref = None
            elements = []
            machines = {}
            for key, kat in _fields(toks):
                if key == "symbols":
                    symref = _parse_reference(toks, where, key, kat)
                elif key == "elements":
                    elements = _names(toks)
                elif key == "op":
                    opname = toks.take_name("operator")
                    opat = toks.idx - 1
                    if not elements:
                        raise toks.error(
                            f"algebra {name}: declare elements before op {opname}", opat
                        )
                    machines[opname] = _parse_machine_body(toks, elements, opname, opat)
                else:
                    raise toks.error(f"unknown algebra field {key!r}", kat)
            if symref is None or symref not in ws.symbols:
                raise toks.error(f"algebra {name}: unknown symbols reference {symref!r}", at)
            table = ws.symbols[symref]
            missing = set(table.operators) - set(machines)
            if missing:
                raise toks.error(
                    f"algebra {name}: no machine for operator {sorted(missing)[0]}", at
                )
            extra = set(machines) - set(table.operators)
            if extra:
                raise toks.error(
                    f"algebra {name}: machine for unknown operator {sorted(extra)[0]}", at
                )
            try:
                alg = RegularAlgebra(tuple(elements), table.operators, machines)
            except ValueError as e:
                raise toks.error(f"algebra {name}: {e}", at) from e
            _register(ws.algebras, "algebra", name, alg, toks, at)
            ws.algebra_symbols[name] = symref
        elif section == "recognizer":
            algref = None
            valuation = {}
            finals = []
            for key, kat in _fields(toks):
                if key == "algebra":
                    algref = _parse_reference(toks, where, key, kat)
                elif key == "finals":
                    finals = _names(toks)
                elif key == "valuation":
                    _arrows(toks, valuation, "duplicate valuation for %s", ("leaf",), "element")
                else:
                    raise toks.error(f"unknown recognizer field {key!r}", kat)
            if algref is None or algref not in ws.algebras:
                raise toks.error(f"recognizer {name}: unknown algebra reference {algref!r}", at)
            try:
                rec = Recognizer(
                    ws.algebras[algref],
                    ws.symbols_of_algebra(algref),
                    valuation,
                    frozenset(finals),
                )
            except ValueError as e:
                raise toks.error(f"recognizer {name}: {e}", at) from e
            _register(ws.recognizers, "recognizer", name, rec, toks, at)
        elif section == "gmorphism":
            src = dst = None
            iota = {}
            alpha_text = {}
            for key, kat in _fields(toks):
                if key == "from":
                    src = _parse_reference(toks, where, key, kat)
                elif key == "to":
                    dst = _parse_reference(toks, where, key, kat)
                elif key == "iota":
                    _arrows(toks, iota, "duplicate iota for %s", ("operator",), "operator")
                elif key == "alpha":
                    _arrows(toks, alpha_text, "duplicate alpha for %s", ("leaf",), None)
                else:
                    raise toks.error(f"unknown gmorphism field {key!r}", kat)
            if src is None or src not in ws.symbols:
                raise toks.error(f"gmorphism {name}: unknown source table {src!r}", at)
            if dst is None or dst not in ws.symbols:
                raise toks.error(f"gmorphism {name}: unknown target table {dst!r}", at)
            src_t, dst_t = ws.symbols[src], ws.symbols[dst]
            try:
                alpha = {
                    x: parse_term(text, dst_t) for x, text in alpha_text.items()
                }
                m = TermGMorphism(src_t, dst_t, iota, alpha)
            except ValueError as e:
                raise toks.error(f"gmorphism {name}: {e}", at) from e
            _register(ws.gmorphisms, "gmorphism", name, m, toks, at)
        else:
            raise toks.error(f"unknown section {section!r}", at)


# ---------------------------------------------------------------------------
# Dumping (re-parseable, deterministic)


def _fresh_names(values, prefix):
    return {v: f"{prefix}{i}" for i, v in enumerate(values)}


def dump_algebra(alg: RegularAlgebra, name: str, symbols_name: str) -> str:
    """Workspace-syntax dump; carrier renamed e0.. and states q0.. so that
    product or quotient algebras stay parseable."""
    el = _fresh_names(alg.elements, "e")
    lines = [f"algebra {name} {{", f"  symbols: {symbols_name};"]
    lines.append("  elements: " + " ".join(el[a] for a in alg.elements) + ";")
    for f in alg.sigma:
        m = alg.ops[f]
        st = _fresh_names(m.states, "q")
        lines.append(f"  op {f} {{")
        lines.append("    states: " + " ".join(st[q] for q in m.states) + ";")
        lines.append(f"    start: {st[m.start]};")
        lines.append(
            "    out: "
            + ", ".join(f"{st[q]} -> {el[m.out[q]]}" for q in m.states)
            + ";"
        )
        lines.append(
            "    delta: "
            + ", ".join(
                f"{st[q]} {el[a]} -> {st[m.delta[(q, a)]]}"
                for q in m.states
                for a in alg.elements
            )
            + ";"
        )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def dump_symbols(table: SymbolTable, name: str) -> str:
    lines = [f"symbols {name} {{", "  operators: " + " ".join(table.operators) + ";"]
    if table.leaves:
        lines.append("  leaves: " + " ".join(table.leaves) + ";")
    lines.append("}")
    return "\n".join(lines)


def dump_recognizer(rec: Recognizer, name: str, symbols_name: str = "sym") -> str:
    """Symbols, algebra, and recognizer sections for one recognizer."""
    el = _fresh_names(rec.algebra.elements, "e")
    parts = [
        dump_symbols(rec.table, symbols_name),
        dump_algebra(rec.algebra, f"{name}_algebra", symbols_name),
        f"recognizer {name} {{",
    ]
    parts[-1] += f"\n  algebra: {name}_algebra;"
    if rec.table.leaves:
        parts[-1] += "\n  valuation: " + ", ".join(
            f"{x} -> {el[rec.valuation[x]]}" for x in rec.table.leaves
        ) + ";"
    finals = [el[a] for a in rec.algebra.elements if a in rec.finals]
    parts[-1] += "\n  finals: " + " ".join(finals) + ";\n}"
    return "\n\n".join(parts)
