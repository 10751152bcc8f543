import random
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uta import (
    EMPTY_ROOT,
    Definite,
    GenDefinite,
    LocTestable,
    PwTestable,
    ReverseDefinite,
    SymbolTable,
    TermGMorphism,
    abstraction_key,
    apply_term_gmorphism,
    bounded_subtrees,
    compose,
    embeds,
    enumerate_contexts,
    enumerate_trees,
    forks,
    height,
    identity_gmorphism,
    leaf,
    op,
    parse_term,
    pieces,
    plug,
    relabel_gmorphism,
    render,
    root_segment,
    size,
    tree_measures,
)
from uta.trees import KeyParts, TermError, TreeBank, _compositions, hole_count, is_context

from helpers import random_gmorphism, random_tree

TAB = SymbolTable(("f", "g"), ("x", "y"))
FX = SymbolTable(("f",), ("x",))


def rset(ts):
    return sorted(render(t) for t in ts)


def test_parse_roundtrip():
    t = parse_term(" f( g( y ) , x , f ) ", TAB)
    assert render(t) == "f(g(y),x,f)"
    assert t.children[0].label == "g"
    assert parse_term("x", TAB) == leaf("x")
    assert parse_term("f", TAB) == op("f")


def test_parse_context():
    p = parse_term("f(@,f(g))", TAB, allow_hole=True)
    assert is_context(p)
    assert render(p) == "f(@,f(g))"


@pytest.mark.parametrize(
    "text,allow_hole",
    [
        ("", False),
        ("f(", False),
        ("f(x", False),
        ("h(x)", False),
        ("x(y)", False),
        ("f(x))", False),
        ("f(@)", False),
        ("f(x)", True),          # no hole
        ("f(@,@)", True),        # two holes
        ("@(x)", True),
        ("f x", False),
    ],
)
def test_parse_errors(text, allow_hole):
    with pytest.raises(TermError):
        parse_term(text, TAB, allow_hole=allow_hole)


def test_measures():
    assert tree_measures(parse_term("f(g(y),x,f)", TAB)) == (2, "f", 5)
    assert tree_measures(parse_term("x", TAB)) == (0, "x", 1)
    # direct recursion: nodes are f, x, f, y
    assert tree_measures(parse_term("f(x,f(y))", TAB)) == (2, "f", 4)


def test_plug_and_compose():
    p = parse_term("f(@,f(g))", TAB, allow_hole=True)
    t = parse_term("f(g(y),x,f)", TAB)
    q = parse_term("g(@)", TAB, allow_hole=True)
    assert render(plug(p, t)) == "f(f(g(y),x,f),f(g))"
    assert render(plug(p, q)) == "f(g(@),f(g))"
    assert render(compose(p, q)) == "g(f(@,f(g)))"
    # monoid identity and associativity on samples
    hole = parse_term("@", TAB, allow_hole=True)
    assert compose(p, hole) == p
    assert compose(hole, p) == p
    r = parse_term("f(x,@)", TAB, allow_hole=True)
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_root_segment():
    t = parse_term("f(g(y),x,f)", TAB)
    assert root_segment(t, 0) is EMPTY_ROOT
    assert render(root_segment(t, 1)) == "f"
    assert render(root_segment(t, 2)) == "f(g,x,f)"
    small = parse_term("f(x,f(y))", TAB)
    assert root_segment(small, 3) == small
    # idempotence
    for k in range(0, 4):
        rk = root_segment(t, k)
        if k > 0:
            assert root_segment(rk, k) == rk


def test_bounded_subtrees():
    t = parse_term("f(g(y),x,f)", TAB)
    assert rset(bounded_subtrees(t, 1)) == ["f", "x", "y"]
    assert rset(bounded_subtrees(t, 2)) == ["f", "g(y)", "x", "y"]
    assert bounded_subtrees(t, 0) == frozenset()


def test_forks():
    t = parse_term("f(x,f(y))", TAB)
    assert rset(forks(t, 2)) == ["f(x,f)", "f(y)"]
    assert rset(forks(t, 3)) == ["f(x,f(y))"]
    assert forks(t, 4) == frozenset()
    assert forks(t, 5) == frozenset()
    with pytest.raises(ValueError):
        forks(t, 1)
    # every fork has height exactly k-1
    rng = random.Random(7)
    for _ in range(50):
        u = random_tree(rng, TAB, 8)
        for k in (2, 3):
            assert all(height(v) == k - 1 for v in forks(u, k))


def test_embeds():
    t = parse_term("f(x,f(y))", TAB)
    assert embeds(parse_term("f(y)", TAB), t)
    assert not embeds(parse_term("f", TAB), t)
    assert embeds(parse_term("x", TAB), t)
    assert embeds(t, t)


def test_pieces():
    t = parse_term("f(x,f(y))", TAB)
    assert rset(pieces(t, 2)) == ["f(x,y)", "f(y)", "x", "y"]
    assert pieces(parse_term("x", TAB), 1) == frozenset({leaf("x")})
    assert pieces(t, 0) == frozenset()


def test_pieces_against_embedding_bruteforce():
    # occurring symbols only can appear in an embedded piece
    rng = random.Random(3)
    universe = list(enumerate_trees(TAB, 4, 3))
    for _ in range(30):
        t = random_tree(rng, TAB, 7)
        for k in (1, 2, 3):
            brute = {s for s in universe if height(s) < k and embeds(s, t)}
            assert {s for s in pieces(t, k) if size(s) <= 4} == brute


def test_embeds_partial_order():
    universe = list(enumerate_trees(FX, 5, 3))
    for s in universe:
        assert embeds(s, s)
    for s in universe:
        for t in universe:
            if embeds(s, t) and embeds(t, s):
                assert s == t
    rng = random.Random(5)
    for _ in range(300):
        a, b, c = (rng.choice(universe) for _ in range(3))
        if embeds(a, b) and embeds(b, c):
            assert embeds(a, c)


def test_abstraction_keys():
    t = parse_term("f(x,f(y))", TAB)
    st1, rt1, fk2 = abstraction_key(t, LocTestable(2))
    # subtrees of f(x,f(y)) are itself, x, f(y), y; height < 1 keeps the leaves
    assert rset(st1) == ["x", "y"]
    assert render(rt1) == "f"
    assert rset(fk2) == ["f(x,f)", "f(y)"]
    assert abstraction_key(leaf("x"), PwTestable(1)) == frozenset({leaf("x")})
    assert abstraction_key(t, Definite(0)) is EMPTY_ROOT
    assert abstraction_key(t, GenDefinite(1, 1)) == (
        bounded_subtrees(t, 1),
        root_segment(t, 1),
    )
    with pytest.raises(ValueError):
        abstraction_key(t, LocTestable(1))
    with pytest.raises(ValueError):
        abstraction_key(t, Definite(None))


def test_apply_term_gmorphism():
    dst = SymbolTable(("h",), ("x", "y"))
    m = TermGMorphism(
        TAB, dst, {"f": "h", "g": "h"}, {"x": leaf("y"), "y": parse_term("h(y)", dst)}
    )
    t = parse_term("f(g(y),x,f)", TAB)
    assert render(apply_term_gmorphism(m, t)) == "h(h(h(y)),y,h)"
    ident = identity_gmorphism(TAB)
    assert apply_term_gmorphism(ident, t) == t
    rel = relabel_gmorphism(TAB, SymbolTable(("g", "f"), ("x", "y")), {"f": "g", "g": "g"})
    assert render(apply_term_gmorphism(rel, parse_term("f(x,f)", TAB))) == "g(x,g)"


def test_gmorphism_validation():
    with pytest.raises(TermError):
        TermGMorphism(TAB, FX, {"f": "f"}, {"x": leaf("x"), "y": leaf("x")})  # iota partial
    with pytest.raises(TermError):
        TermGMorphism(TAB, FX, {"f": "f", "g": "f"}, {"x": leaf("x")})  # alpha partial


def test_enumerate_trees():
    assert [render(t) for t in enumerate_trees(FX, 2, 2)] == ["f", "x", "f(f)", "f(x)"]
    assert [render(t) for t in enumerate_trees(SymbolTable(("f",)), 1, 2)] == ["f"]
    got = list(enumerate_trees(TAB, 4, 3))
    assert len(got) == len(set(got))
    keys = [(size(t), render(t)) for t in got]
    assert keys == sorted(keys)
    assert all(size(t) <= 4 for t in got)
    # arity bound respected everywhere
    def arities(t):
        yield len(t.children)
        for c in t.children:
            yield from arities(c)
    assert all(max(arities(t)) <= 3 for t in got)


def test_enumerate_contexts():
    assert [render(p) for p in enumerate_contexts(SymbolTable(("f",)), 2, 2)] == [
        "@",
        "f(@)",
    ]
    got = list(enumerate_contexts(TAB, 4, 3))
    assert all(hole_count(p) == 1 for p in got)
    assert len(got) == len(set(got))
    # cross-check against filtering the hole-extended tree enumeration
    extended = SymbolTable(TAB.operators, TAB.leaves + ("hole_stub",))
    alt = set()
    for t in enumerate_trees(extended, 4, 3):
        txt = render(t).replace("hole_stub", "@")
        if txt.count("@") == 1:
            alt.add(txt)
    assert {render(p) for p in got} == alt


def test_enumeration_is_lazy():
    bank = TreeBank(TAB, 3)
    first = list(islice(bank.trees(40), 20))
    # only the buckets of sizes 1 to 3 (4 + 8 + 48 trees) were built
    assert first == list(range(20)) and len(bank.label) == 60
    got = list(islice(enumerate_trees(TAB, 40, 3), 20))
    assert got == list(enumerate_trees(TAB, 3, 3))[:20]
    assert list(islice(enumerate_contexts(TAB, 40, 3), 5)) == list(enumerate_contexts(TAB, 3, 3))[:5]


def test_tree_bank_ids_follow_the_enumeration():
    bank = TreeBank(TAB, 3)
    ids = list(bank.trees(4))
    trees = list(enumerate_trees(TAB, 4, 3))
    assert ids == list(range(len(trees)))
    assert [bank.tree(i) for i in ids] == trees
    assert [bank.text[i] for i in ids] == [render(t) for t in trees]
    assert [bank.height[i] for i in ids] == [height(t) for t in trees]
    assert all(_id_of(bank, t) == i for i, t in enumerate(trees))


def test_tree_ids_read_each_bucket_as_a_range():
    """A bucket's ids are one range of consecutive ids, also in a bank that
    holds contexts between its tree buckets; an empty bucket has none."""
    bank = TreeBank(TAB, 3)
    sizes = [size(bank.tree(i)) for i in bank.trees(4)]
    for s in range(1, 5):
        assert bank.tree_ids(s) == [i for i, n in enumerate(sizes) if n == s]
    mixed = TreeBank(TAB, 2)
    list(mixed.contexts(3))
    for s in range(1, 5):
        ids = mixed.tree_ids(s)
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        assert [mixed.text[i] for i in ids] == [render(t) for t in enumerate_trees(TAB, s, 2) if size(t) == s]
    flat = TreeBank(SymbolTable(("f",), ("x",)), 0)  # no node has a child
    assert flat.tree_ids(1) == [0, 1] and flat.tree_ids(3) == []


def test_tree_bank_rebuilds_trees_without_recursion():
    bank = TreeBank(TAB, 3)
    assert [bank.tree(i) for i in bank.trees(5)] == list(enumerate_trees(TAB, 5, 3))
    chains = TreeBank(SymbolTable(("f",), ("x",)), 1)
    *_, deepest = chains.trees(1500)
    assert render(chains.tree(deepest)) == "f(" * 1499 + "x" + ")" * 1499


def _id_of(bank, t):
    return bank.index[(t.label, t.is_leaf, tuple(_id_of(bank, c) for c in t.children))]


def test_key_parts_match_the_per_tree_functions():
    trees = list(enumerate_trees(TAB, 5, 3))
    for k in range(5):
        kinds = [Definite(k), ReverseDefinite(k), PwTestable(k)] + ([LocTestable(k)] if k >= 2 else [])
        for kind in kinds:
            bank = TreeBank(TAB, 3)
            parts = KeyParts(bank, kind)
            keys = [parts.add(i) for i in bank.trees(5)]
            assert len(keys) == len(trees)

            def ids(ts):
                return frozenset(_id_of(bank, s) for s in ts)

            for i, t in enumerate(trees):
                for j, segments in enumerate(parts.segments):
                    seg = root_segment(t, j)
                    assert segments[i] == (None if seg is EMPTY_ROOT else _id_of(bank, seg))
                if parts.low_height is not None:
                    assert parts.sets[parts.low[i]] == ids(bounded_subtrees(t, parts.low_height))
                if parts.fork_depth is not None:
                    assert parts.sets[parts.forks[i]] == ids(forks(t, parts.fork_depth))
                for j, pcs in enumerate(parts.pieces):
                    assert parts.sets[pcs[i]] == ids(pieces(t, j))
            # the id keys partition the trees as abstraction_key does
            first_ref: dict = {}
            first_ids: dict = {}
            for i, t in enumerate(trees):
                assert first_ref.setdefault(abstraction_key(t, kind), i) == first_ids.setdefault(keys[i], i)
    for bad in (LocTestable(1), Definite(None), PwTestable(-1)):
        with pytest.raises(ValueError):
            KeyParts(TreeBank(TAB), bad)


# ---------------------------------------------------------------------------
# Morphism lemmas, checked on seeded random instances


def _instances(n, seed, max_size=8):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        m = random_gmorphism(rng)
        t = random_tree(rng, m.src, max_size)
        out.append((m, t))
    return out


@pytest.mark.parametrize("m,t", _instances(60, 101))
def test_root_segment_commutes_with_morphisms(m, t):
    # the image's top k levels depend only on the source's top k levels
    for k in (1, 2, 3, 4):
        img = apply_term_gmorphism(m, t)
        cut = apply_term_gmorphism(m, root_segment(t, k))
        assert root_segment(img, k) == root_segment(cut, k)


@pytest.mark.parametrize("m,t", _instances(60, 102))
def test_bounded_subtrees_commute_with_morphisms(m, t):
    for k in (0, 1, 2, 3):
        img = apply_term_gmorphism(m, t)
        expected = frozenset(
            s
            for u in bounded_subtrees(t, k)
            for s in bounded_subtrees(apply_term_gmorphism(m, u), k)
        )
        assert bounded_subtrees(img, k) == expected


@pytest.mark.parametrize("m,t", _instances(60, 103))
def test_forks_commute_with_morphisms(m, t):
    for k in (2, 3):
        img = apply_term_gmorphism(m, t)
        part1 = {
            root_segment(apply_term_gmorphism(m, u), k) for u in forks(t, k)
        }
        part2 = frozenset(
            v
            for s in bounded_subtrees(t, k - 1)
            for v in forks(apply_term_gmorphism(m, s), k)
        )
        assert forks(img, k) == frozenset(part1) | part2


@pytest.mark.parametrize("m,t", _instances(40, 104, max_size=6))
def test_pieces_lift_through_morphisms(m, t):
    for k in (1, 2, 3):
        img = apply_term_gmorphism(m, t)
        for u in pieces(img, k):
            assert any(
                u in pieces(apply_term_gmorphism(m, s), k) for s in pieces(t, k)
            )


@pytest.mark.parametrize("seed", [105, 106])
def test_abstraction_keys_consistent_under_morphisms(seed):
    rng = random.Random(seed)
    kinds = [
        Definite(1),
        Definite(2),
        ReverseDefinite(1),
        ReverseDefinite(2),
        GenDefinite(1, 1),
        LocTestable(2),
        PwTestable(1),
        PwTestable(2),
    ]
    for _ in range(40):
        m = random_gmorphism(rng)
        s = random_tree(rng, m.src, 6)
        t = random_tree(rng, m.src, 6)
        for kind in kinds:
            if abstraction_key(s, kind) == abstraction_key(t, kind):
                assert abstraction_key(
                    apply_term_gmorphism(m, s), kind
                ) == abstraction_key(apply_term_gmorphism(m, t), kind)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_root_segment_monotone(j, k, data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    t = random_tree(rng, TAB, 8)
    lo, hi = min(j, k), max(j, k)
    if lo == 0:
        assert root_segment(root_segment(t, hi), lo) is EMPTY_ROOT if hi > 0 else True
    elif hi > 0:
        assert root_segment(root_segment(t, hi), lo) == root_segment(t, lo)


def _compositions_recursive(total, max_parts):
    """The recursive composition generator that ``_compositions`` replaced."""
    if total == 0:
        yield ()
        return
    if max_parts <= 0:
        return
    for first in range(1, total + 1):
        for rest in _compositions_recursive(total - first, max_parts - 1):
            yield (first,) + rest


def test_compositions_match_the_recursive_version():
    for total in range(11):
        for max_parts in range(-1, total + 2):
            assert list(_compositions(total, max_parts)) == list(
                _compositions_recursive(total, max_parts)
            )
    assert next(_compositions(5000, 5000)) == (1,) * 5000  # no RecursionError


# ---------------------------------------------------------------------------
# Recursion-free hashing, keys and morphism images


def _forks_recursive(t, k):
    if height(t) < k - 1:
        return frozenset()
    acc = {root_segment(t, k)}
    for c in t.children:
        acc |= _forks_recursive(c, k)
    return frozenset(acc)


def _pieces_recursive(t, k):
    def go(u, j):
        if j <= 0:
            return frozenset()
        if not u.children:
            return frozenset((u,))
        acc = set()
        for c in u.children:
            acc |= go(c, j)
        for combo in product(*(go(c, j - 1) for c in u.children)):
            acc.add(op(u.label, combo))
        return frozenset(acc)

    return go(t, k)


def _image_recursive(m, t):
    if t.is_leaf:
        if t.label == "@":
            return t
        if t.label not in m.alpha:
            raise TermError(f"leaf {t.label!r} outside morphism domain")
        return m.alpha[t.label]
    if t.label not in m.iota:
        raise TermError(f"operator {t.label!r} outside morphism domain")
    return op(m.iota[t.label], [_image_recursive(m, c) for c in t.children])


def _chain(depth, top="f", bottom="x"):
    t = leaf(bottom)
    for _ in range(depth):
        t = op(top, [t])
    return t


def test_hash_of_a_deep_chain():
    t = _chain(10_000)
    again = parse_term(render(t), FX)
    assert t is not again and hash(t) == hash(again)
    assert again in {t} and {t: 1}[again] == 1
    assert _chain(10_000, bottom="y") not in {t}
    assert len({t, again, _chain(9_999)}) == 2


def test_equal_trees_built_apart_hash_equal():
    trees = list(enumerate_trees(TAB, 5, 3))
    rebuilt = [parse_term(render(t), TAB) for t in trees]
    assert [hash(t) for t in trees] == [hash(u) for u in rebuilt]
    assert len(set(trees) | set(rebuilt)) == len(trees)


def test_keys_and_images_of_a_deep_chain():
    t = _chain(10_000)
    kinds = [Definite(3), ReverseDefinite(3), GenDefinite(2, 3), LocTestable(3), PwTestable(3)]
    for kind in kinds:
        assert abstraction_key(t, kind) == abstraction_key(_chain(10_000), kind)
    assert abstraction_key(t, Definite(3)) != abstraction_key(_chain(2), Definite(3))
    assert forks(t, 3) == _forks_recursive(_chain(10), 3) == {_chain(2), parse_term("f(f(f))", FX)}
    assert pieces(t, 3) == _pieces_recursive(_chain(10), 3)
    assert apply_term_gmorphism(identity_gmorphism(FX), t) == t


def test_keys_and_images_match_the_recursive_versions():
    trees = list(enumerate_trees(TAB, 5, 3))
    rng = random.Random(113)
    morphisms = [identity_gmorphism(TAB)] + [random_gmorphism(rng, src=TAB) for _ in range(4)]
    for t in trees:
        for k in (2, 3, 4):
            assert forks(t, k) == _forks_recursive(t, k)
        for k in range(5):
            assert pieces(t, k) == _pieces_recursive(t, k)
        for m in morphisms:
            assert apply_term_gmorphism(m, t) == _image_recursive(m, t)
    narrow = identity_gmorphism(SymbolTable(("f",), ("x",)))
    for t in trees:
        try:
            want = _image_recursive(narrow, t)
        except TermError as e:
            with pytest.raises(TermError, match=str(e)):
                apply_term_gmorphism(narrow, t)
        else:
            assert apply_term_gmorphism(narrow, t) == want


def _root_segment_recursive(t, k):
    if k == 0:
        return EMPTY_ROOT
    if k == 1:
        return t if not t.children else op(t.label)
    if height(t) < k:
        return t
    return op(t.label, [_root_segment_recursive(c, k - 1) for c in t.children])


def _embeds_recursive(s, t, memo):
    """The recursive definition; ``memo`` holds the pairs met before, by
    identity, since enumerated trees share their subtrees."""
    key = (id(s), id(t))
    if key not in memo:
        memo[key] = (
            s == t
            or (
                not s.is_leaf
                and not t.is_leaf
                and s.label == t.label
                and len(s.children) == len(t.children)
                and all(_embeds_recursive(a, b, memo) for a, b in zip(s.children, t.children))
            )
            or any(_embeds_recursive(s, c, memo) for c in t.children)
        )
    return memo[key]


def test_root_segment_and_embeds_match_the_recursive_versions():
    trees = list(enumerate_trees(TAB, 4, 3))
    memo: dict = {}
    assert [embeds(s, t) for s in trees for t in trees] == [
        _embeds_recursive(s, t, memo) for s in trees for t in trees
    ]
    for t in enumerate_trees(TAB, 5, 3):
        for k in range(6):
            assert root_segment(t, k) == _root_segment_recursive(t, k)


def test_root_segment_and_embeds_on_deep_chains():
    t = _chain(10_000)
    for k in (1, 2, 1_500, 9_999, 10_000):
        top = op("f")  # k levels of f, the lowest one cut bare
        for _ in range(k - 1):
            top = op("f", [top])
        assert root_segment(t, k) == top
    assert root_segment(t, 10_001) is t and root_segment(t, 20_000) is t
    assert abstraction_key(t, Definite(1_500)) == abstraction_key(_chain(10_000), Definite(1_500))
    assert abstraction_key(t, Definite(1_500)) != abstraction_key(_chain(1_498), Definite(1_500))
    assert embeds(leaf("x"), t) and embeds(op("f", [leaf("x")]), t) and not embeds(op("f"), t)
    assert embeds(_chain(5_000), t) and embeds(t, _chain(10_000))
    assert not embeds(t, _chain(9_999))
    assert not embeds(_chain(5_000, bottom="y"), t)
    assert not embeds(op("f", [leaf("x"), leaf("x")]), t)
    fork = op("f", [t, _chain(3, bottom="y")])
    assert embeds(op("f", [leaf("x"), leaf("y")]), fork)
    assert not embeds(op("f", [leaf("y"), leaf("x")]), fork)
