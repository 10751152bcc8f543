"""One-pass text evaluation against the tree pipeline it stands in for.

``text_evaluator(rec)`` reads a term's tokens once and builds no tree.  The
reference is the path ``uta recognize`` and ``uta eval`` took before it:
``parse_term``, then ``eval_of``, then ``render``.  On valid text, spaced
at random, the one-pass reader must give the reference's value and
canonical text without falling back to it, reading each group it has seen
before from its memo (an innermost group, or a group of innermost groups,
written without spaces); on malformed text it must raise the
reference's exception with the same message.  The CLI commands must print
and exit as the reference commands do.
"""

import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import uta.cli
import uta.recognizer
from uta.algebra import AlgebraError
from uta.cli import main
from uta.horizon import MachineError
from uta.recognizer import eval_of, membership, size_at_least_recognizer, text_evaluator
from uta.trees import TermError, _tokenize, parse_term, render
from uta.workspace import load_workspace

from helpers import random_tree, ref_text_evaluator

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


INNERMOST = r"[A-Za-z_][A-Za-z0-9_]*\([A-Za-z0-9_,]*\)"
INNERMOST_GROUP = re.compile(INNERMOST)
# a group without spaces whose children are all innermost groups, or else
# an innermost group: the units the evaluator keeps in its memo
MEMO_UNIT = re.compile(rf"[A-Za-z_][A-Za-z0-9_]*\((?:{INNERMOST},)*{INNERMOST}\)|{INNERMOST}")


def memo_units(text):
    """Each group the evaluator works out once: every unit, and the
    innermost groups inside a group of them."""
    units = set()
    for m in MEMO_UNIT.finditer(text):
        units.add(m[0])
        units.update(INNERMOST_GROUP.findall(m[0]))
    return units


def valid_text(rng, rec):
    """A random term over the recognizer's table whose innermost groups come
    from a pool of three, so they repeat; for xmldoc, often a document of
    the schema, so both verdicts come up."""
    if rec.table.operators[0] == "invoices" and rng.random() < 0.5:
        invoices = [
            "invoice(" + ",".join(["line(text)"] * rng.randint(1, 3)) + ")"
            for _ in range(rng.randint(1, 3))
        ]
        return "invoices(" + ",".join(invoices) + ")"
    names = rec.table.operators + rec.table.leaves
    pool = [
        rng.choice(rec.table.operators) + "(" + ",".join(rng.choices(names, k=rng.randint(1, 3))) + ")"
        for _ in range(3)
    ]
    text = render(random_tree(rng, rec.table, rng.randint(1, 40)))
    return INNERMOST_GROUP.sub(lambda m: rng.choice(pool), text)


@seed(20261018)
@given(st.integers(0, 2**32), st.sampled_from(sorted(RECS)))
@settings(max_examples=200, deadline=None)
def test_valid_terms_are_read_in_one_pass(n, name):
    rec = RECS[name]
    rng = random.Random(n)
    canonical = valid_text(rng, rec)
    # spaces inside a group split it into tokens, read in the same pass
    text = canonical if rng.random() < 0.3 else spaced(rng, _tokenize(canonical))
    want = reference(rec, text)
    assert want[1] == canonical
    group_value = mock.Mock(wraps=uta.recognizer._group_value)
    with mock.patch("uta.recognizer.parse_term", side_effect=AssertionError("fell back")), \
            mock.patch("uta.recognizer._group_value", group_value):
        evaluate = text_evaluator(rec)
        got = evaluate(text)
        # each distinct memoized group is worked out once, its repeats (and
        # a group of groups' children seen before) read off the memo
        assert group_value.call_count == len(memo_units(text))
        assert evaluate(canonical) == got
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


def _group_fault(rng, rec, tokens):
    """A faulty innermost group, written without spaces, in place of a
    childless node (or of the whole term)."""
    f = rng.choice(rec.table.operators)
    x, y = rng.choices(rec.table.operators + rec.table.leaves, k=2)
    head = rng.choice(rec.table.leaves or ("zz",))
    group = rng.choice([
        f"{f}()", f"{f}(,{x})", f"{f}({x},)", f"{f}({x},,{y})", f"{head}({x})", f"{f}(@)",
        f"{f}({x})({y})", f"{f}({x}){y}", f"{f}({x},zz)", f"{f}(9{x})", f"{f}({x},9)",
    ])
    spots = [i for i, tok in enumerate(tokens) if tok not in "()," and tokens[i + 1 : i + 2] != ["("]]
    if spots:
        tokens[rng.choice(spots)] = group
    else:
        tokens[:] = [group]


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
    "group fault": _group_fault,
}


@seed(20261019)
@given(st.integers(0, 2**32), st.sampled_from(sorted(RECS)), st.sampled_from(sorted(MUTATIONS)))
@settings(max_examples=400, deadline=None)
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
     "\vx", "9", "f(x x", "f(x @", "f(x f", "f(x,9)", "f(,)", "f(x)\xa0", "f(x\u2028)", "\x85x",
     "f(x,\x1cy)"],
)
def test_edge_text_gives_what_the_tree_pipeline_gives(name, text):
    rec = RECS[name]
    assert outcome(text_evaluator(rec), text) == outcome(reference, rec, text)


def test_each_evaluator_keeps_its_own_groups():
    # three recognizers over one table, their machines differing: a memo
    # shared beyond one evaluator would hand one recognizer another's values
    parity = RECS["parity-odd"]
    recs = [parity, size_at_least_recognizer(parity.table, 3), size_at_least_recognizer(parity.table, 5)]
    evaluators = [text_evaluator(rec) for rec in recs]
    texts = ["f(x,x,x)", "f(f(x,x,x),f(x,x,x))", "f(x,f)", "f(f(x,f),x,f(x,x,x))", "f(x,x,x)"]
    for text in texts * 2:
        values = []
        for rec, evaluate in zip(recs, evaluators):
            t = parse_term(text, rec.table)
            assert evaluate(text) == (eval_of(rec, t), render(t))
            values.append(evaluate(text)[0])
        assert values[1] != values[2] or text == "f(x,f)"


def _group_of(f, kids):
    return f + "(" + ",".join(kids) + ")"


def _groups_of_groups(rec):
    """Groups over the table whose children are all innermost groups."""
    ops = st.sampled_from(rec.table.operators)
    names = st.sampled_from(rec.table.operators + rec.table.leaves)
    innermost = st.builds(_group_of, ops, st.lists(names, min_size=1, max_size=3))
    return st.builds(_group_of, ops, st.lists(innermost, min_size=1, max_size=3))


@given(st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_repeated_groups_of_groups_read_as_the_tree_pipeline_reads_them(data):
    # terms over a small pool of groups of innermost groups, each one
    # written without spaces (one memo unit) or spaced (read token by token)
    rec = RECS[data.draw(st.sampled_from(sorted(RECS)))]
    pool = data.draw(st.lists(_groups_of_groups(rec), min_size=1, max_size=3))
    rng = data.draw(st.randoms(use_true_random=False))
    kids = []
    for _ in range(data.draw(st.integers(1, 6))):
        kid = rng.choice(pool)
        if rng.random() < 0.3:
            kid = _group_of(rng.choice(rec.table.operators), rng.choices(pool, k=rng.randint(1, 3)))
        kids.append(spaced(rng, _tokenize(kid)) if rng.random() < 0.3 else kid)
    text = _group_of(rng.choice(rec.table.operators), kids)
    with mock.patch("uta.recognizer.parse_term", side_effect=AssertionError("fell back")):
        evaluate = text_evaluator(rec)
        got = [evaluate(text), evaluate(text), evaluate("".join(text.split()))]
    assert got == [reference(rec, text)] * 3


def _xml_line(rng):
    """A document of the xmldoc schema, at times with one defect in it."""
    invoices = [["line(text)"] * rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
    inv = invoices[rng.randrange(len(invoices))]
    defect = rng.choice(["", "", "line(text,text)", "line", "text", "line()", "line(zz)"])
    if defect:
        inv.insert(rng.randrange(len(inv) + 1), defect)
    return "invoices(" + ",".join("invoice(" + ",".join(lines) + ")" for lines in invoices) + ")"


def _bool_line(rng, depth=4):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["zero", "one"])
    kids = [_bool_line(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return rng.choice(["and", "or"]) + ("(" + ",".join(kids) + ")" if kids else "")


def test_corpus_style_files_read_as_the_parent_evaluator_reads_them():
    # one evaluator per file, as `uta recognize` makes it, so the memo
    # carries from line to line; each line at times corrupted by one edit
    rng = random.Random(20261021)
    files = [("xmldoc", _xml_line)] * 30 + [("booltrue", _bool_line)] * 30
    seen = set()
    for name, line in files:
        rec = RECS[name]
        evaluate, parent = text_evaluator(rec), ref_text_evaluator(rec)
        for _ in range(20):
            text = line(rng)
            if rng.random() < 0.2:
                i = rng.randrange(len(text) + 1)
                text = text[:i] + rng.choice(["(", ")", ",", "", " ", "zz", "line(text)"]) + text[i + rng.randint(0, 1):]
            got = outcome(evaluate, text)
            assert got == outcome(parent, text), text
            seen.add(got[0])
    assert seen == {"ok", TermError}


def test_the_pattern_without_possessive_runs_reads_the_same_tokens():
    # Python 3.10 has no possessive quantifiers, so there the pattern is
    # built with plain runs; both must cut every text alike
    pattern = uta.recognizer._GROUPED_TOKENS_RE.pattern
    plain = re.compile(pattern.replace("*+", "*"))
    rng = random.Random(7)
    alphabet = ["f", "g", "x", "9", "_", "(", ")", ",", "@", " ", "\t", "#", "é", "f(x)", "g(f(x),f(y))"]
    for _ in range(3000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
        assert plain.findall(text) == uta.recognizer._GROUPED_TOKENS_RE.findall(text), text


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
BOOL_GROUPS = "or(and(one,one),and(one,zero)),and(or(zero,one),or(zero,one))"
BOOL_LINES = [
    f"and({BOOL_GROUPS})", f"or({BOOL_GROUPS})", "and(or(zero,one), or( zero,one),or(zero,zero))",
    f"and({BOOL_GROUPS},and({BOOL_GROUPS}))", "or(and(one,one))",
]
# file: (recognizer, text, exit code)
TERM_FILES = {
    "terms": ("xmldoc", (FIXTURES / "terms.txt").read_text(encoding="utf-8"), 1),
    "faulty": ("xmldoc", "invoice(line(text))\n  line( text )\n\n# note\ninvoices(invoice(line(text))\nline(text)\n", 2),
    "spaced": ("xmldoc", "invoices ( invoice ( line ( text ) ) )\n\tline(text,\ttext)\n", 1),
    "bool_groups": ("booltrue", "\n".join(BOOL_LINES) + "\n", 1),
    "repeated_group": ("xmldoc", "invoices(invoice(" + ",".join(["line(text)"] * 10**4) + "))\n", 0),
}


@pytest.mark.parametrize("file", sorted(TERM_FILES))
def test_recognize_prints_what_the_tree_pipeline_printed(capsys, monkeypatch, tmp_path, file):
    rec, text, code = TERM_FILES[file]
    path = tmp_path / "terms.txt"
    path.write_text(text, encoding="utf-8")
    argv = ["-w", str(FIXTURES / WORKSPACES[rec]), "recognize", "--rec", rec, str(path)]
    got, want = _both(capsys, monkeypatch, argv)
    assert got == want
    assert got[0] == code


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
