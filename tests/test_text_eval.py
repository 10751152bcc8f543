"""One-pass text evaluation against the tree pipeline it stands in for.

``text_evaluator(rec)`` reads a term's tokens once and builds no tree.  The
reference is the path ``uta recognize`` and ``uta eval`` took before it:
``parse_term``, then ``eval_of``, then ``render``.  On valid text, spaced
at random, the one-pass reader must give the reference's value and
canonical text without falling back to it; on malformed text it must raise
the reference's exception with the same message.  The CLI commands must
print and exit as the reference commands do.
"""

import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import uta.cli
from uta.algebra import AlgebraError
from uta.cli import main
from uta.horizon import MachineError
from uta.recognizer import eval_of, membership, text_evaluator
from uta.trees import TermError, _tokenize, parse_term, render
from uta.workspace import load_workspace

from helpers import random_tree

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
WORKSPACES = {
    "parity-odd": "parity.uta",
    "rootf": "root.uta",
    "booltrue": "bool.uta",
    "xmldoc": "xml.uta",
}
RECS = {
    name: load_workspace([FIXTURES / file]).recognizers[name]
    for name, file in WORKSPACES.items()
}


def reference(rec, text):
    t = parse_term(text, rec.table)
    return eval_of(rec, t), render(t)


def outcome(fn, *args):
    """("ok", result) or (exception type, message) of one call."""
    try:
        return ("ok", fn(*args))
    except (TermError, AlgebraError, MachineError) as e:
        return (type(e), str(e))


SPACES = ["", "", "", " ", "\t", "\n", "\r", "\r\n", "  "]


def spaced(rng, tokens):
    """The tokens with spaces, tabs and line breaks slipped in around them."""
    return "".join(rng.choice(SPACES) + tok for tok in tokens) + rng.choice(SPACES)


def valid_text(rng, rec):
    """A random term over the recognizer's table; for xmldoc, often a
    document of the schema, so both verdicts come up."""
    if rec.table.operators[0] == "invoices" and rng.random() < 0.5:
        invoices = [
            "invoice(" + ",".join(["line(text)"] * rng.randint(1, 3)) + ")"
            for _ in range(rng.randint(1, 3))
        ]
        return "invoices(" + ",".join(invoices) + ")"
    return render(random_tree(rng, rec.table, rng.randint(1, 40)))


@seed(20261018)
@given(st.integers(0, 2**32), st.sampled_from(sorted(RECS)))
@settings(max_examples=200, deadline=None)
def test_valid_terms_are_read_in_one_pass(n, name):
    rec = RECS[name]
    rng = random.Random(n)
    canonical = valid_text(rng, rec)
    text = spaced(rng, _tokenize(canonical))
    want = reference(rec, text)
    assert want[1] == canonical
    with mock.patch("uta.recognizer.parse_term", side_effect=AssertionError("fell back")):
        got = text_evaluator(rec)(text)
    assert got == want
    assert (got[0] in rec.finals) == membership(rec, parse_term(text, rec.table))


def _unknown_name(rng, rec, tokens):
    i = rng.randrange(len(tokens))
    if tokens[i] not in "(),":
        tokens[i] = rng.choice(["h", "zz", "f_", "Text"])
    else:
        tokens.insert(i, "zz")


def _replace(rng, rec, tokens):
    names = rec.table.operators + rec.table.leaves
    tokens[rng.randrange(len(tokens))] = rng.choice(["(", ")", ",", "@", rng.choice(names)])


def _leaf_with_children(rng, rec, tokens):
    x = rng.choice(rec.table.leaves)
    tokens.insert(rng.randrange(len(tokens) + 1), x + "(" + x + ")")


MUTATIONS = {
    "drop": lambda rng, rec, tokens: tokens.pop(rng.randrange(len(tokens))),
    "extra": lambda rng, rec, tokens: tokens.insert(
        rng.randrange(len(tokens) + 1), rng.choice(["(", ")", ","])
    ),
    "unknown": _unknown_name,
    "replace": _replace,
    "hole": lambda rng, rec, tokens: tokens.insert(rng.randrange(len(tokens) + 1), "@"),
    "empty call": lambda rng, rec, tokens: tokens.insert(
        rng.randrange(len(tokens) + 1), rng.choice(rec.table.operators) + "()"
    ),
    "leaf with children": _leaf_with_children,
    "trailing": lambda rng, rec, tokens: tokens.append(
        rng.choice([" " + rec.table.operators[0], ",x", ")", "(", "@", " zz"])
    ),
    "bad character": lambda rng, rec, tokens: tokens.insert(
        rng.randrange(len(tokens) + 1), rng.choice(["#", ";", "\f", "\v", " ", "é", "[", "-", "9"])
    ),
}


@seed(20261019)
@given(st.integers(0, 2**32), st.sampled_from(sorted(RECS)), st.sampled_from(sorted(MUTATIONS)))
@settings(max_examples=300, deadline=None)
def test_malformed_text_raises_what_the_tree_pipeline_raises(n, name, mutation):
    rec = RECS[name]
    rng = random.Random(n)
    tokens = _tokenize(valid_text(rng, rec))
    MUTATIONS[mutation](rng, rec, tokens)
    text = spaced(rng, tokens)
    assert outcome(text_evaluator(rec), text) == outcome(reference, rec, text)


@pytest.mark.parametrize("name", sorted(RECS))
@pytest.mark.parametrize(
    "text",
    ["", " ", "\t\r\n", "\f", "\u3000", "@", "f()", "x(y)", "text(text)", "f(x", "f(x))",
     "f(x,)", "f(,x)", "(x)", ")", ",", "f x", "f(x) x", "f(x),", "h(x)", "f(x;y)", "f(x)\f",
     "\vx", "9", "f(x x", "f(x @", "f(x f"],
)
def test_edge_text_gives_what_the_tree_pipeline_gives(name, text):
    rec = RECS[name]
    assert outcome(text_evaluator(rec), text) == outcome(reference, rec, text)


# ---------------------------------------------------------------------------
# The CLI commands against the commands as they read before


def _reference_eval(ws, args):
    rec = uta.cli._get_rec(ws, args)
    value = eval_of(rec, parse_term(args.term, rec.table))
    ok = value in rec.finals
    print(uta.cli.element_label(value))
    print("accept" if ok else "reject")
    return 0 if ok else 1


def _reference_recognize(ws, args):
    rec = uta.cli._get_rec(ws, args)
    with open(args.file, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    all_ok = True
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        t = parse_term(line, rec.table)
        ok = membership(rec, t)
        all_ok = all_ok and ok
        print(("accept" if ok else "reject") + "\t" + render(t))
    return 0 if all_ok else 1


def _both(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of main and of the reference command."""
    runs = []
    for commands in ({}, {"eval": _reference_eval, "recognize": _reference_recognize}):
        with monkeypatch.context() as m:
            for name, fn in commands.items():
                m.setitem(uta.cli._COMMANDS, name, fn)
            code = main(argv)
        out = capsys.readouterr()
        runs.append((code, out.out, out.err))
    return runs


FAN_BITS = "".join(random.Random(5).choice("xf") for _ in range(10**5))
FAN = "f(" + ",".join(FAN_BITS) + ")"
CHAIN = "f(" * 10**5 + "x" + ")" * 10**5
TERM_FILES = {
    "terms": (FIXTURES / "terms.txt").read_text(encoding="utf-8"),
    "faulty": "invoice(line(text))\n  line( text )\n\n# note\ninvoices(invoice(line(text))\nline(text)\n",
    "spaced": "invoices ( invoice ( line ( text ) ) )\n\tline(text,\ttext)\n",
}


@pytest.mark.parametrize("file", sorted(TERM_FILES))
def test_recognize_prints_what_the_tree_pipeline_printed(capsys, monkeypatch, tmp_path, file):
    path = tmp_path / "terms.txt"
    path.write_text(TERM_FILES[file], encoding="utf-8")
    argv = ["-w", str(FIXTURES / "xml.uta"), "recognize", "--rec", "xmldoc", str(path)]
    got, want = _both(capsys, monkeypatch, argv)
    assert got == want
    assert got[0] == {"terms": 1, "faulty": 2, "spaced": 1}[file]


def test_recognize_and_eval_on_a_deep_chain_and_a_wide_fan(capsys, monkeypatch, tmp_path):
    # the reference takes about a second on the chain, so the chain's lines
    # are checked against what it printed (see also test_cli.py)
    parity = str(FIXTURES / "parity.uta")
    fan_ok = FAN_BITS.count("x") % 2 == 1
    verdict = "accept" if fan_ok else "reject"
    fan_file, both_file = tmp_path / "fan.txt", tmp_path / "both.txt"
    fan_file.write_text(FAN + "\n", encoding="utf-8")
    both_file.write_text(CHAIN + "\n" + FAN + "\n", encoding="utf-8")
    got, want = _both(capsys, monkeypatch, ["-w", parity, "recognize", "--rec", "parity-odd", str(fan_file)])
    assert got == want == (0 if fan_ok else 1, verdict + "\t" + FAN + "\n", "")
    got, want = _both(capsys, monkeypatch, ["-w", parity, "eval", "--rec", "parity-odd", FAN])
    assert got == want == (0 if fan_ok else 1, ("1" if fan_ok else "0") + "\n" + verdict + "\n", "")
    code = main(["-w", parity, "recognize", "--rec", "parity-odd", str(both_file)])
    assert (code, *capsys.readouterr()) == (got[0], "accept\t" + CHAIN + "\n" + verdict + "\t" + FAN + "\n", "")
    assert main(["-w", parity, "eval", "--rec", "parity-odd", CHAIN]) == 0
    assert capsys.readouterr() == ("1\naccept\n", "")
    got, want = _both(capsys, monkeypatch, ["-w", parity, "eval", "--rec", "parity-odd", CHAIN.replace("x", "z")])
    assert got == want == (2, "", "error: unknown symbol 'z'\n")
