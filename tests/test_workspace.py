import random
from pathlib import Path

import pytest

from uta import membership, parse_term
from uta.workspace import (
    _PUNCTUATION,
    _TOKEN,
    WorkspaceError,
    _Tokens,
    dump_algebra,
    dump_recognizer,
    load_workspace,
    load_workspace_text,
)

from helpers import machine_data, parity_odd, recognizer_data, ref_load_workspace_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PARITY_TEXT = """
# comment line
symbols sym { operators: f; leaves: x; }
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
"""


def test_load_parity():
    ws = load_workspace_text(PARITY_TEXT)
    assert set(ws.symbols) == {"sym"}
    assert set(ws.algebras) == {"parity"}
    assert set(ws.recognizers) == {"odd"}
    rec = ws.recognizers["odd"]
    assert membership(rec, parse_term("x", rec.table))
    assert not membership(rec, parse_term("f(x,x)", rec.table))


def test_missing_delta_row():
    text = PARITY_TEXT.replace("q1 1 -> q0, ", "").replace("q1 1 -> q0,", "")
    bad = """
symbols sym { operators: f; leaves: x; }
algebra parity {
  symbols: sym;
  elements: 0 1;
  op f {
    states: q0 q1; start: q0;
    out: q0 -> 0, q1 -> 1;
    delta: q0 0 -> q0, q0 1 -> q1, q1 0 -> q1;
  }
}
"""
    with pytest.raises(WorkspaceError, match=r"missing transition \(q1, 1\)"):
        load_workspace_text(bad)


def test_duplicate_names():
    text = PARITY_TEXT + "\nsymbols sym { operators: g; }\n"
    with pytest.raises(WorkspaceError, match="duplicate symbols name"):
        load_workspace_text(text)


def test_duplicate_transition():
    bad = """
symbols sym { operators: f; }
algebra a {
  symbols: sym;
  elements: 0;
  op f { states: q0; start: q0; out: q0 -> 0; delta: q0 0 -> q0, q0 0 -> q0; }
}
"""
    with pytest.raises(WorkspaceError, match="duplicate transition"):
        load_workspace_text(bad)


def test_a_repeated_field_accumulates():
    text = (PARITY_TEXT.replace("leaves: x;", "leaves: x y;")
            .replace("valuation: x -> 1;", "valuation: x -> 1; valuation: y -> 0;")
            .replace("out: q0 -> 0, q1 -> 1;", "out: q0 -> 0; out: q1 -> 1;")
            .replace("q0 1 -> q1, ", "q0 1 -> q1; delta: "))
    ws, parity = load_workspace_text(text), load_workspace_text(PARITY_TEXT)
    assert ws.recognizers["odd"].valuation == {"x": "1", "y": "0"}
    assert ws.algebras["parity"] == parity.algebras["parity"]


@pytest.mark.parametrize(
    "old, new, repeated, message",
    [
        ("valuation: x -> 1;", "valuation: x -> 1;\n  valuation: x -> 0;", "x -> 0", "duplicate valuation for x"),
        ("out: q0 -> 0, q1 -> 1;", "out: q0 -> 0, q1 -> 1;\n    out: q1 -> 0;", "q1 -> 0", "duplicate output for state q1"),
        ("q1 1 -> q0;", "q1 1 -> q0;\n    delta: q1 1 -> q1;", "q1 1 -> q1", r"duplicate transition \(q1, 1\)"),
    ],
)
def test_a_repeated_field_refuses_a_repeated_key(old, new, repeated, message):
    text = PARITY_TEXT.replace(old, new)
    line = next(i for i, s in enumerate(text.splitlines(), 1) if repeated in s)
    with pytest.raises(WorkspaceError, match=message) as exc:
        load_workspace_text(text, "w.uta")
    assert (exc.value.path, exc.value.line) == ("w.uta", line)


def test_dangling_reference():
    bad = "recognizer r { algebra: nope; finals: 0; }"
    with pytest.raises(WorkspaceError, match="unknown algebra reference"):
        load_workspace_text(bad)


def test_error_carries_line():
    bad = "symbols sym { operators: f; }\nsymbols sym { operators: g; }"
    with pytest.raises(WorkspaceError) as exc:
        load_workspace_text(bad)
    assert exc.value.line == 2


def test_a_byte_order_mark_may_start_a_workspace_file(tmp_path):
    text = (FIXTURES / "xml.uta").read_text(encoding="utf-8")
    path = tmp_path / "xml.uta"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert load_workspace([path]) == load_workspace([FIXTURES / "xml.uta"])
    # anywhere else it is an unexpected character, as before
    path.write_text(text + "\ufeff\n", encoding="utf-8")
    line = text.count("\n") + 1
    with pytest.raises(WorkspaceError) as exc:
        load_workspace([path])
    assert str(exc.value) == f"{path}:{line}: unexpected character '\\ufeff'"


def test_gmorphism_section():
    text = PARITY_TEXT + """
symbols hsym { operators: h; leaves: y; }
gmorphism hm { from: hsym; to: sym; iota: h -> f; alpha: y -> f(x,x); }
"""
    ws = load_workspace_text(text)
    m = ws.gmorphisms["hm"]
    assert m.iota == {"h": "f"}
    from uta import render

    assert render(m.alpha["y"]) == "f(x,x)"


def test_dump_roundtrip():
    rec = parity_odd()
    text = dump_recognizer(rec, "odd")
    ws = load_workspace_text(text)
    back = ws.recognizers["odd"]
    for term in ("x", "f", "f(x,x)", "f(x,f(x))"):
        t = parse_term(term, rec.table)
        assert membership(back, t) == membership(rec, t)
    # dumps are deterministic
    assert dump_recognizer(rec, "odd") == text
    assert dump_algebra(rec.algebra, "a", "s") == dump_algebra(rec.algebra, "a", "s")


def test_empty_valuation_allowed():
    text = """
symbols s { operators: f; }
algebra a {
  symbols: s;
  elements: 0;
  op f { states: q0; start: q0; out: q0 -> 0; delta: q0 0 -> q0; }
}
recognizer r { algebra: a; finals: 0; }
"""
    ws = load_workspace_text(text)
    rec = ws.recognizers["r"]
    assert membership(rec, parse_term("f", rec.table))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("symbols: sym;", "symbols: ;", "algebra parity: empty 'symbols' field"),
        ("algebra: parity;", "algebra: ;", "recognizer odd: empty 'algebra' field"),
        ("from: hsym;", "from: ;", "gmorphism hm: empty 'from' field"),
        ("to: sym;", "to: ;", "gmorphism hm: empty 'to' field"),
    ],
)
def test_empty_reference_field(old, new, message):
    text = PARITY_TEXT + "symbols hsym { operators: h; }\ngmorphism hm { from: hsym; to: sym; iota: h -> f; }\n"
    line = next(i for i, s in enumerate(text.splitlines(), 1) if old in s)
    with pytest.raises(WorkspaceError, match=message) as exc:
        load_workspace_text(text.replace(old, new), "w.uta")
    assert (exc.value.path, exc.value.line) == ("w.uta", line)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("states: q0 q1;", "states: q0 q1 q0;", "op f: duplicate state or letter"),
        ("start: q0;", "start: q9;", "op f: start state 'q9' not a state"),
        ("q1 1 -> q0;", "q1 1 -> zz;", "op f: transition into unknown state 'zz'"),
    ],
)
def test_machine_error_carries_line(old, new, message):
    with pytest.raises(WorkspaceError, match=message) as exc:
        load_workspace_text(PARITY_TEXT.replace(old, new), "w.uta")
    assert (exc.value.path, exc.value.line) == ("w.uta", 7)  # the op line


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("    states: q0 q1;\n", "", "op f: no states"),
        ("    start: q0;\n", "", "op f: no start state"),
        ("start: q0;", "start: q9;", "op f: start state 'q9' not a state"),
        ("out: q0 -> 0, q1 -> 1;", "out: q0 -> 0;", "op f: no output for state q1"),
        ("q1 1 -> q0;", ";", r"op f: incomplete machine, missing transition \(q1, 1\)"),
        ("q1 1 -> q0;", "q1 1 -> q0, q2 1 -> q0;", r"op f: transition \(q2, 1\) uses an unknown"),
        ("q1 1 -> q0;", "q1 1 -> zz;", "op f: transition into unknown state 'zz'"),
    ],
)
def test_op_body_errors_point_at_the_op_line_of_the_fixture(old, new, message):
    text = (FIXTURES / "parity.uta").read_text(encoding="utf-8")
    assert text.count(old) == 1
    op_line = text.splitlines().index("  op f {") + 1
    with pytest.raises(WorkspaceError, match=message) as exc:
        load_workspace_text(text.replace(old, new), "parity.uta")
    assert (exc.value.path, exc.value.line) == ("parity.uta", op_line)


GMORPHISM_TEXT = PARITY_TEXT + """symbols hsym { operators: h; leaves: y; }
gmorphism hm {
  from: hsym;
  to: sym;
  iota: h -> f;
  alpha: y -> x;
}
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("from: hsym;", "from: hsym junk;", "gmorphism hm: 2 names in 'from' field"),
        ("to: sym;", "to: sym, sym;", "gmorphism hm: 2 names in 'to' field"),
        ("symbols: sym;", "symbols: sym hsym;", "algebra parity: 2 names in 'symbols' field"),
        ("algebra: parity;", "algebra: parity x;", "recognizer odd: 2 names in 'algebra' field"),
        ("iota: h -> f;", "iota: h -> f, h -> g;", "duplicate iota for h"),
        ("alpha: y -> x;", "alpha: y -> x, y -> f(x);", "duplicate alpha for y"),
    ],
)
def test_loader_rejects_what_it_used_to_drop(old, new, message):
    assert load_workspace_text(GMORPHISM_TEXT).gmorphisms["hm"].iota == {"h": "f"}
    line = next(i for i, s in enumerate(GMORPHISM_TEXT.splitlines(), 1) if old in s)
    with pytest.raises(WorkspaceError, match=message) as exc:
        load_workspace_text(GMORPHISM_TEXT.replace(old, new), "w.uta")
    assert (exc.value.path, exc.value.line) == ("w.uta", line)


# ---------------------------------------------------------------------------
# The line scanner against the character scanner it replaced


def _scan_reference(text, path):
    """The workspace tokens as the character-at-a-time scanner made them."""
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            if body[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(body, pos)
            if not m:
                raise WorkspaceError(f"unexpected character {body[pos]!r}", path, lineno)
            items.append((m.group(0), lineno))
            pos = m.end()
    return items


def _scan_outcome(fn, text):
    try:
        return ("ok", fn(text))
    except WorkspaceError as e:
        return (str(e), e.line)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.uta")), ids=lambda p: p.name)
def test_line_scanner_matches_the_character_scanner_on_fixtures(path):
    text = path.read_text(encoding="utf-8")
    assert _Tokens(text, str(path)).items == _scan_reference(text, str(path))


def test_line_scanner_reports_what_the_character_scanner_reports():
    rng = random.Random(20261020)
    texts = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.uta"))] + [PARITY_TEXT]
    pieces = ["$", "!", "-", "a-", "-b", "->", "->-", "--", " ", " ", "\f", "\v", "é", "#", " ", "\t", "\n", "x"]
    seen = set()
    for _ in range(400):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            text = text[:i] + rng.choice(pieces) + text[i:]
        got = _scan_outcome(lambda s: _Tokens(s, "w.uta").items, text)
        assert got == _scan_outcome(lambda s: _scan_reference(s, "w.uta"), text)
        seen.add(got[0] == "ok")
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# The loader against the token-by-token reader it replaced


def _workspace_data(ws):
    """A workspace as data, each dict in its order."""
    return (
        list(ws.symbols.items()),
        [(name, alg.elements, alg.sigma, [machine_data(alg.ops[f]) for f in alg.sigma])
         for name, alg in ws.algebras.items()],
        [(name, rec.table, recognizer_data(rec)) for name, rec in ws.recognizers.items()],
        [(name, m.src, m.dst, list(m.iota.items()), list(m.alpha.items()))
         for name, m in ws.gmorphisms.items()],
        list(ws.algebra_symbols.items()),
    )


def _load_outcome(load, text):
    try:
        return ("ok", _workspace_data(load(text, "w.uta")))
    except WorkspaceError as e:
        return (str(e), e.line)


def _mutation_spots(text):
    """(start, end, token) of each token of the fields in LISTED_FIELDS, from
    the field's name to its ';'."""
    spots, field, offset = [], None, 0
    for line in text.splitlines(keepends=True):
        for m in _TOKEN.finditer(line.split("#", 1)[0]):
            tok = m.group(0)
            if tok in LISTED_FIELDS and field is None:
                field = tok
            if field is not None:
                spots.append((offset + m.start(), offset + m.end(), tok))
            if tok == ";":
                field = None
        offset += len(line)
    return spots


LISTED_FIELDS = ("states", "delta", "out", "valuation", "iota", "alpha")
PUNCTUATION = ["{", "}", ";", ":", ",", "->", "(", ")"]


def _mutate(rng, text):
    """The text with one token of a listed field dropped, duplicated,
    swapped with the next or replaced by punctuation or a name of the text;
    spaces keep the tokens around the change apart."""
    spots = _mutation_spots(text)
    i = rng.randrange(len(spots))
    start, end, tok = spots[i]
    how = rng.choice(["drop", "duplicate", "swap", "replace"])
    if how == "drop":
        return text[:start] + " " + text[end:]
    if how == "duplicate":
        return text[:end] + " " + tok + " " + text[end:]
    if how == "swap" and i + 1 < len(spots):
        start2, end2, tok2 = spots[i + 1]
        return f"{text[:start]} {tok2} {text[end:start2]} {tok} {text[end2:]}"
    names = [t for _, _, t in spots if t not in _PUNCTUATION]
    return text[:start] + " " + rng.choice(PUNCTUATION + names) + " " + text[end:]


LOADER_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.uta"))] + [
    (FIXTURES / "root.uta").read_text(encoding="utf-8") + (FIXTURES / "morphisms.uta").read_text(encoding="utf-8"),
    PARITY_TEXT,
    GMORPHISM_TEXT,
    GMORPHISM_TEXT.replace("alpha: y -> x;", "alpha: y -> f(x, f(x,x), f);"),
]


@pytest.mark.parametrize("text", LOADER_TEXTS, ids=range(len(LOADER_TEXTS)))
def test_loader_reads_each_text_as_the_token_by_token_reader(text):
    assert _load_outcome(load_workspace_text, text) == _load_outcome(ref_load_workspace_text, text)


def test_loader_reads_mutated_texts_as_the_token_by_token_reader():
    rng = random.Random(20261021)
    texts = [text for text in LOADER_TEXTS if _mutation_spots(text)]
    seen = set()
    for _ in range(500):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text)
        got = _load_outcome(load_workspace_text, text)
        assert got == _load_outcome(ref_load_workspace_text, text), text
        seen.add(got[0] == "ok")
    assert seen == {True, False}
