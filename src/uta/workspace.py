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

``#`` starts a comment.  Every (state, letter) pair must appear exactly
once in a delta block.  Errors carry file and line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .algebra import RegularAlgebra
from .horizon import MachineError, MooreMachine
from .recognizer import Recognizer
from .trees import SymbolTable, TermGMorphism, parse_term

_TOKEN = re.compile(r"[A-Za-z0-9_]+(?:-[A-Za-z0-9_]+)*|->|[{};:,()@]")
_PUNCTUATION = frozenset(["->", *"{};:,()@"])  # every other token is a name


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
        """One ``findall`` per line; the character scan reports a fault."""
        self.path = path
        self.items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            tokens = _TOKEN.findall(body)
            if "".join(tokens) == "".join(body.split()):
                self.items += [(tok, lineno) for tok in tokens]
                continue
            pos = 0
            while pos < len(body):
                if body[pos].isspace():
                    pos += 1
                    continue
                m = _TOKEN.match(body, pos)
                if not m:
                    raise WorkspaceError(
                        f"unexpected character {body[pos]!r}", path, lineno
                    )
                self.items.append((m.group(0), lineno))
                pos = m.end()
        self.idx = 0

    def peek(self):
        return self.items[self.idx][0] if self.idx < len(self.items) else None

    def line(self):
        if self.idx < len(self.items):
            return self.items[self.idx][1]
        return self.items[-1][1] if self.items else 1

    def take(self, expected=None):
        if self.idx >= len(self.items):
            raise WorkspaceError(
                f"unexpected end of file (wanted {expected!r})", self.path, self.line()
            )
        tok, line = self.items[self.idx]
        if expected is not None and tok != expected:
            raise WorkspaceError(f"expected {expected!r}, got {tok!r}", self.path, line)
        self.idx += 1
        return tok, line

    def take_name(self, what="name"):
        tok, line = self.take()
        if tok in _PUNCTUATION:
            raise WorkspaceError(f"expected {what}, got {tok!r}", self.path, line)
        return tok, line

    def names_until(self, stops=(";",)):
        names = []
        while self.peek() is not None and self.peek() not in stops:
            if self.peek() == ",":
                self.take(",")
                continue
            names.append(self.take_name()[0])
        return names


def _fields(toks: _Tokens, what="field"):
    """The key and line of each field of a ``{ ... }`` block, braces taken;
    the caller reads the rest of each field."""
    toks.take("{")
    while toks.peek() != "}":
        yield toks.take_name(what)
    toks.take("}")


def _arrows(toks: _Tokens, into: dict, duplicate: str, left, right):
    """Reads the ``left... -> right`` entries of a list up to its ';', which
    is taken, into ``into``, keyed by the left name or the pair of them;
    commas between entries are optional.  ``left`` says what each name
    before the arrow is, ``right`` what the name after it is, or None for
    a term.  A key already in ``into`` raises ``duplicate % key``."""
    while (tok := toks.peek()) != ";":
        if tok == ",":
            toks.take(",")
            continue
        key, line = toks.take_name(left[0])
        if len(left) == 2:
            key = key, toks.take_name(left[1])[0]
        toks.take("->")
        value = toks.take_name(right)[0] if right else _collect_term(toks)
        if key in into:
            raise WorkspaceError(duplicate % key, toks.path, line)
        into[key] = value
    toks.take(";")


def _parse_machine_body(toks: _Tokens, elements, opname, opline):
    """The machine of an ``op`` body; faults found after the body are
    reported at the ``op`` line."""
    states = []
    start = None
    out = {}
    delta = {}
    for key, line in _fields(toks, "machine field"):
        toks.take(":")
        if key == "states":
            states = toks.names_until()
            toks.take(";")
        elif key == "start":
            start = toks.take_name()[0]
            toks.take(";")
        elif key == "out":
            _arrows(toks, out, "duplicate output for state %s", ("state",), "element")
        elif key == "delta":
            _arrows(toks, delta, "duplicate transition (%s, %s)", ("state", "letter"), "state")
        else:
            raise WorkspaceError(f"unknown machine field {key!r}", toks.path, line)
    if not states:
        raise WorkspaceError(f"op {opname}: no states", toks.path, opline)
    if start is None:
        raise WorkspaceError(f"op {opname}: no start state", toks.path, opline)
    for q in states:
        if q not in out:
            raise WorkspaceError(
                f"op {opname}: no output for state {q}", toks.path, opline
            )
        for a in elements:
            if (q, a) not in delta:
                raise WorkspaceError(
                    f"op {opname}: incomplete machine, missing transition ({q}, {a})",
                    toks.path,
                    opline,
                )
    extra = set(delta) - {(q, a) for q in states for a in elements}
    if extra:
        q, a = sorted(extra)[0]
        raise WorkspaceError(
            f"op {opname}: transition ({q}, {a}) uses an unknown state or letter",
            toks.path,
            opline,
        )
    try:
        return MooreMachine(tuple(states), tuple(elements), start, delta, out)
    except MachineError as e:
        raise WorkspaceError(f"op {opname}: {e}", toks.path, opline) from e


def _parse_field_value(toks: _Tokens):
    toks.take(":")
    names = toks.names_until()
    toks.take(";")
    return names


def _parse_reference(toks: _Tokens, where, key, line):
    """The one name a ``key: name;`` field refers to."""
    names = _parse_field_value(toks)
    if len(names) != 1:
        problem = "empty" if not names else f"{len(names)} names in"
        raise WorkspaceError(f"{where}: {problem} {key!r} field", toks.path, line)
    return names[0]


def _collect_term(toks: _Tokens) -> str:
    """Slurp tokens of a term up to the closing ';' back into text."""
    parts = []
    depth = 0
    while True:
        tok = toks.peek()
        if tok is None:
            raise WorkspaceError("unterminated term", toks.path, toks.line())
        if tok == ";" and depth == 0:
            break
        if tok == ",":
            if depth == 0:
                break
            parts.append(tok)
        elif tok == "(":
            depth += 1
            parts.append(tok)
        elif tok == ")":
            depth -= 1
            parts.append(tok)
        else:
            parts.append(tok)
        toks.take()
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


def _register(ws_dict, kind, name, value, path, line):
    if name in ws_dict:
        raise WorkspaceError(f"duplicate {kind} name {name!r}", path, line)
    ws_dict[name] = value


def _load_text(ws: Workspace, text: str, path: str):
    toks = _Tokens(text, path)
    while toks.peek() is not None:
        section, line = toks.take_name("section")
        name, _ = toks.take_name(f"{section} name")
        where = f"{section} {name}"
        if section == "symbols":
            operators, leaves = [], []
            for key, kline in _fields(toks):
                values = _parse_field_value(toks)
                if key == "operators":
                    operators = values
                elif key == "leaves":
                    leaves = values
                else:
                    raise WorkspaceError(f"unknown symbols field {key!r}", path, kline)
            try:
                table = SymbolTable(tuple(operators), tuple(leaves))
            except ValueError as e:
                raise WorkspaceError(str(e), path, line) from e
            _register(ws.symbols, "symbols", name, table, path, line)
        elif section == "algebra":
            symref = None
            elements = []
            machines = {}
            for key, kline in _fields(toks):
                if key == "symbols":
                    symref = _parse_reference(toks, where, key, kline)
                elif key == "elements":
                    elements = _parse_field_value(toks)
                elif key == "op":
                    opname, opline = toks.take_name("operator")
                    if not elements:
                        raise WorkspaceError(
                            f"algebra {name}: declare elements before op {opname}",
                            path,
                            opline,
                        )
                    machines[opname] = _parse_machine_body(toks, elements, opname, opline)
                else:
                    raise WorkspaceError(f"unknown algebra field {key!r}", path, kline)
            if symref is None or symref not in ws.symbols:
                raise WorkspaceError(
                    f"algebra {name}: unknown symbols reference {symref!r}", path, line
                )
            table = ws.symbols[symref]
            missing = set(table.operators) - set(machines)
            if missing:
                raise WorkspaceError(
                    f"algebra {name}: no machine for operator {sorted(missing)[0]}",
                    path,
                    line,
                )
            extra = set(machines) - set(table.operators)
            if extra:
                raise WorkspaceError(
                    f"algebra {name}: machine for unknown operator {sorted(extra)[0]}",
                    path,
                    line,
                )
            try:
                alg = RegularAlgebra(tuple(elements), table.operators, machines)
            except ValueError as e:
                raise WorkspaceError(f"algebra {name}: {e}", path, line) from e
            _register(ws.algebras, "algebra", name, alg, path, line)
            ws.algebra_symbols[name] = symref
        elif section == "recognizer":
            algref = None
            valuation = {}
            finals = []
            for key, kline in _fields(toks):
                if key == "algebra":
                    algref = _parse_reference(toks, where, key, kline)
                elif key == "finals":
                    finals = _parse_field_value(toks)
                elif key == "valuation":
                    toks.take(":")
                    _arrows(toks, valuation, "duplicate valuation for %s", ("leaf",), "element")
                else:
                    raise WorkspaceError(
                        f"unknown recognizer field {key!r}", path, kline
                    )
            if algref is None or algref not in ws.algebras:
                raise WorkspaceError(
                    f"recognizer {name}: unknown algebra reference {algref!r}",
                    path,
                    line,
                )
            try:
                rec = Recognizer(
                    ws.algebras[algref],
                    ws.symbols_of_algebra(algref),
                    valuation,
                    frozenset(finals),
                )
            except ValueError as e:
                raise WorkspaceError(f"recognizer {name}: {e}", path, line) from e
            _register(ws.recognizers, "recognizer", name, rec, path, line)
        elif section == "gmorphism":
            src = dst = None
            iota = {}
            alpha_text = {}
            for key, kline in _fields(toks):
                if key == "from":
                    src = _parse_reference(toks, where, key, kline)
                elif key == "to":
                    dst = _parse_reference(toks, where, key, kline)
                elif key == "iota":
                    toks.take(":")
                    _arrows(toks, iota, "duplicate iota for %s", ("operator",), "operator")
                elif key == "alpha":
                    toks.take(":")
                    _arrows(toks, alpha_text, "duplicate alpha for %s", ("leaf",), None)
                else:
                    raise WorkspaceError(
                        f"unknown gmorphism field {key!r}", path, kline
                    )
            if src is None or src not in ws.symbols:
                raise WorkspaceError(
                    f"gmorphism {name}: unknown source table {src!r}", path, line
                )
            if dst is None or dst not in ws.symbols:
                raise WorkspaceError(
                    f"gmorphism {name}: unknown target table {dst!r}", path, line
                )
            src_t, dst_t = ws.symbols[src], ws.symbols[dst]
            try:
                alpha = {
                    x: parse_term(text, dst_t) for x, text in alpha_text.items()
                }
                m = TermGMorphism(src_t, dst_t, iota, alpha)
            except ValueError as e:
                raise WorkspaceError(f"gmorphism {name}: {e}", path, line) from e
            _register(ws.gmorphisms, "gmorphism", name, m, path, line)
        else:
            raise WorkspaceError(f"unknown section {section!r}", path, line)


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
