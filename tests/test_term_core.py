"""The recursion-free term pipeline against the recursive one it replaced.

The ``ref_*`` functions are the earlier recursive tokenizer, parser,
renderer and evaluator, kept as references: on seeded random input, valid
and malformed, the library must return what they return and raise what
they raise, with the same message.  The hypothesis properties then run the
pipeline at depths and widths the references cannot reach.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uta import SymbolTable, leaf, op
from uta.algebra import AlgebraError, apply_symbol, eval_term
from uta.horizon import MachineError
from uta.oracle import _hole_eval
from uta.recognizer import membership
from uta.trees import HOLE, HOLE_LEAF, TermError, Tree, parse_term, render, validate_tree

from helpers import bool_true, parity_odd, random_recognizer, random_tree

# ---------------------------------------------------------------------------
# References: the recursive pipeline as it was

_REF_TOKEN_RE = re.compile(r"[ \t\r\n]*([A-Za-z_][A-Za-z0-9_]*|[(),@])")


def ref_tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise TermError(f"unexpected character {rest[0]!r} at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def ref_hole_count(t):
    if t.is_leaf:
        return 1 if t.label == HOLE else 0
    return sum(ref_hole_count(c) for c in t.children)


def ref_parse(text, table, allow_hole=False):
    if not text or not text.strip():
        raise TermError("empty term")
    tokens = ref_tokenize(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = peek()
        idx += 1
        return tok

    def term():
        tok = take()
        if tok is None:
            raise TermError("unexpected end of term")
        if tok in "(),":
            raise TermError(f"unexpected {tok!r}")
        if tok == HOLE:
            if not allow_hole:
                raise TermError("hole '@' not allowed in a tree")
            if peek() == "(":
                raise TermError("hole cannot take children")
            return HOLE_LEAF
        if peek() == "(":
            if tok in table.leaves:
                raise TermError(f"leaf symbol {tok!r} used with children")
            if tok not in table.operators:
                raise TermError(f"unknown symbol {tok!r}")
            take()  # "("
            children = [term()]
            while peek() == ",":
                take()
                children.append(term())
            if take() != ")":
                raise TermError("expected ')'")
            return op(tok, children)
        if tok in table.operators:
            return op(tok)
        if tok in table.leaves:
            return leaf(tok)
        raise TermError(f"unknown symbol {tok!r}")

    t = term()
    if idx != len(tokens):
        raise TermError(f"trailing input after term: {tokens[idx]!r}")
    if allow_hole:
        n = ref_hole_count(t)
        if n != 1:
            raise TermError(f"a context needs exactly one hole, found {n}")
    return t


def ref_render(t):
    if not t.children:
        return t.label
    return t.label + "(" + ",".join(ref_render(c) for c in t.children) + ")"


def ref_eval(alg, valuation, t):
    if t.is_leaf:
        try:
            return valuation[t.label]
        except KeyError:
            raise AlgebraError(f"leaf {t.label!r} has no value") from None
    return apply_symbol(alg, t.label, [ref_eval(alg, valuation, c) for c in t.children])


def outcome(fn, *args):
    """("ok", result) or (exception type, message) of one call."""
    try:
        return ("ok", fn(*args))
    except (TermError, AlgebraError, MachineError) as e:
        return (type(e), str(e))


# ---------------------------------------------------------------------------
# Parsing: seeded random text, valid and malformed

TABLE = SymbolTable(("f", "g"), ("x", "y"))

PIECES = (
    ["f", "g", "x", "y", "@", "(", ")", ",", "(", ")", ",", "f(", "x,", ")"]
    + ["h", "fx", "_a", "g1", "9x", "7", "x9"]
    + [" ", "\t", "\n", "\r", "  ", "\f", "\v", "\u00a0", "\u3000"]
    + ["\u00e9", "\u03bb", "\uff46", "\u0301", ";", "#", "-", "."]
)
SPACES = [" ", "\t", "\n", "\r", "\r\n", "\f", "\v", "\u00a0", "\u2028"]


def random_text(rng):
    """A random string of pieces, or a random term's text with spaces
    slipped between its tokens and, half the time, one piece put in, taken
    out or swapped."""
    if rng.random() < 0.4:
        return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 14)))
    t = random_tree(rng, TABLE, rng.randint(1, 12))
    if rng.random() < 0.4:
        nodes = [t]
        path = []
        while nodes[-1].children and rng.random() < 0.7:
            i = rng.randrange(len(nodes[-1].children))
            path.append(i)
            nodes.append(nodes[-1].children[i])
        sub = HOLE_LEAF
        for u, i in zip(reversed(nodes[:-1]), reversed(path)):
            sub = op(u.label, u.children[:i] + (sub,) + u.children[i + 1:])
        t = sub
    tokens = ref_tokenize(ref_render(t))
    text = "".join(tok + (rng.choice(SPACES) if rng.random() < 0.2 else "") for tok in tokens)
    if rng.random() < 0.5:
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(0, 2))
        text = text[:i] + rng.choice(["", *PIECES]) + text[j:]
    return text


def test_random_text_parses_as_the_reference_does():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(4000):
        text = random_text(rng)
        for allow_hole in (False, True):
            got = outcome(parse_term, text, TABLE, allow_hole)
            want = outcome(ref_parse, text, TABLE, allow_hole)
            assert got == want, (text, allow_hole)
            seen.add(got[0] if got[0] == "ok" else got[1].split(" ")[0])
    # the sweep reaches every kind of outcome, not just one
    assert seen >= {"ok", "unexpected", "hole", "leaf", "unknown", "expected", "trailing", "a", "empty"}


@pytest.mark.parametrize(
    "text",
    [
        "f(x,y)\f",
        "f(\fx)",
        "\vf(x)",
        "f(x\v)",
        "f(x) ",
        "\u3000x",
        "x\u00a0",
        "f(\u00e9)",
        "\u03bb(x)",
        "f(x,\uff46)",
        "9x",
        "f(9x)",
        "f(x9,x)",
        "f(x",
        "f(x))",
        "f((x)",
        ")",
        "f(x,)",
        "f(x,,y)",
        "f(,x)",
        "f(x),",
        "@(x)",
        "f(@(x))",
        "f(@,@)",
        "f(@)",
        "f(x)",
        "@",
        "x(f)",
        "h(x)",
        "h",
        "f x",
        "",
        " \t\r\n",
        "\f",
    ],
)
@pytest.mark.parametrize("allow_hole", [False, True])
def test_edge_text_parses_as_the_reference_does(text, allow_hole):
    assert outcome(parse_term, text, TABLE, allow_hole) == outcome(ref_parse, text, TABLE, allow_hole)


# ---------------------------------------------------------------------------
# Rendering, evaluation and membership on seeded random trees


def test_random_trees_render_and_evaluate_as_the_references_do():
    rng = random.Random(7)
    for _ in range(400):
        rec = random_recognizer(rng)
        t = random_tree(rng, rec.table, rng.randint(1, 40))
        assert render(t) == ref_render(t)
        assert parse_term(render(t), rec.table) == t
        value = eval_term(rec.algebra, rec.valuation, t)
        assert value == ref_eval(rec.algebra, rec.valuation, t)
        assert value == _hole_eval(rec, t, None)
        assert membership(rec, t) == (_hole_eval(rec, t, None) in rec.finals)


def test_one_fault_is_reported_as_the_reference_reports_it():
    # with one fault both find it; with several, the reference reports the
    # first one it meets after a node's children, the library the first in
    # pre-order
    rec = bool_true()
    alg, valuation = rec.algebra, rec.valuation
    rng = random.Random(11)
    for _ in range(200):
        t = random_tree(rng, rec.table, rng.randint(1, 20))
        nodes = [(t, ())]
        spots = []
        while nodes:
            u, path = nodes.pop()
            spots.append(path)
            nodes += [(c, path + (i,)) for i, c in enumerate(u.children)]
        path = rng.choice(spots)
        bad = rng.choice([leaf("z"), op("h"), op("h", [leaf(rec.table.leaves[0])])])
        broken = _replace(t, path, bad)
        want = outcome(ref_eval, alg, valuation, broken)
        assert want[0] is AlgebraError
        assert outcome(eval_term, alg, valuation, broken) == want
    # a value outside a machine's alphabet is the machine's own fault
    x = rec.table.leaves[0]
    odd = {**valuation, x: "no such element"}
    t = op(rec.table.operators[0], [leaf(x)])
    assert outcome(eval_term, alg, odd, t) == outcome(ref_eval, alg, odd, t)
    assert outcome(eval_term, alg, odd, t)[0] is MachineError


def _replace(t, path, new):
    if not path:
        return new
    i = path[0]
    return Tree(t.label, t.children[:i] + (_replace(t.children[i], path[1:], new),) + t.children[i + 1:])


# ---------------------------------------------------------------------------
# Depth and width past any recursion limit

DEEP, WIDE = 10**4, 10**5


def chain(rng, table, depth):
    """A path of `depth` operator nodes, each with a few atoms beside the
    spine, over a leaf or a bare operator."""
    atoms = [leaf(x) for x in table.leaves] + [op(f) for f in table.operators]
    t = rng.choice(atoms)
    for _ in range(depth):
        kids = [rng.choice(atoms) for _ in range(rng.randint(0, 2))]
        kids.insert(rng.randint(0, len(kids)), t)
        t = op(rng.choice(table.operators), kids)
    return t


def fan(rng, table, width):
    """One operator node over `width` children, some of them small trees."""
    atoms = [leaf(x) for x in table.leaves] + [op(f) for f in table.operators]
    kids = [rng.choice(atoms) for _ in range(width)]
    for i in rng.sample(range(width), 50):
        kids[i] = op(rng.choice(table.operators), [rng.choice(atoms), rng.choice(atoms)])
    return op(rng.choice(table.operators), kids)


RECOGNIZERS = [parity_odd(), bool_true()]


@given(st.integers(0, 10**6), st.sampled_from(RECOGNIZERS), st.integers(DEEP - 50, DEEP))
@settings(max_examples=4, deadline=None)
def test_deep_chains_round_trip_and_evaluate(seed, rec, depth):
    t = chain(random.Random(seed), rec.table, depth)
    text = render(t)
    assert parse_term(text, rec.table) == t
    assert render(parse_term(" " + text.replace(",", " , ") + "\n", rec.table)) == text
    validate_tree(rec.table, t)
    value = eval_term(rec.algebra, rec.valuation, t)
    assert value == _hole_eval(rec, t, None)
    assert membership(rec, t) == (value in rec.finals)


@given(st.integers(0, 10**6), st.sampled_from(RECOGNIZERS))
@settings(max_examples=3, deadline=None)
def test_wide_fans_round_trip_and_evaluate(seed, rec):
    t = fan(random.Random(seed), rec.table, WIDE)
    assert parse_term(render(t), rec.table) == t
    value = eval_term(rec.algebra, rec.valuation, t)
    assert value == _hole_eval(rec, t, None)
    assert membership(rec, t) == (value in rec.finals)


def test_deep_chain_with_a_fault_at_the_bottom():
    rec = parity_odd()
    text = "f(" * DEEP + "z" + ")" * DEEP
    with pytest.raises(TermError, match="unknown symbol 'z'"):
        parse_term(text, rec.table)
    with pytest.raises(TermError, match=r"expected '\)'"):
        parse_term(text.replace("z", "x")[:-1], rec.table)
    t = parse_term(text.replace("z", "x"), rec.table)
    assert eval_term(rec.algebra, rec.valuation, t) == "1"  # one x under unary f's: odd
    with pytest.raises(AlgebraError, match="leaf 'x' has no value"):
        eval_term(rec.algebra, {}, t)
