import random
from itertools import product as cartesian

import pytest

from uta import (
    GCongruence,
    NotACongruenceError,
    Partition,
    SymbolTable,
    apply_symbol,
    derived_algebra,
    eval_term,
    g_product,
    g_quotient,
    generated_closure,
    is_congruence,
    is_g_congruence,
    kernel,
    leaf,
    m_operator,
    parse_term,
    quotient_algebra,
    translations,
    trivial_algebra,
    verify_algebra_gmorphism,
)
from uta.algebra import AlgebraError

from helpers import (
    PARITY_TABLE,
    parity_algebra,
    random_algebra,
    random_table,
    root_algebra,
)


def all_words(alphabet, up_to):
    for n in range(up_to + 1):
        yield from cartesian(alphabet, repeat=n)


def enumerate_partitions(universe):
    """All partitions of a small universe."""
    universe = tuple(universe)
    if not universe:
        yield Partition.universal(universe)
        return

    def go(rest, blocks):
        if not rest:
            yield [list(b) for b in blocks]
            return
        x, rest2 = rest[0], rest[1:]
        for i in range(len(blocks)):
            yield from go(rest2, blocks[:i] + [blocks[i] + [x]] + blocks[i + 1 :])
        yield from go(rest2, blocks + [[x]])

    for blocks in go(universe[1:], [[universe[0]]]):
        yield Partition.from_blocks(universe, blocks)


def test_apply_symbol():
    par = parity_algebra()
    assert apply_symbol(par, "f", ["1", "1", "1"]) == "1"
    assert apply_symbol(par, "f", []) == "0"
    rt = root_algebra()
    assert apply_symbol(rt, "f", ["0", "1"]) == "1"
    with pytest.raises(AlgebraError):
        apply_symbol(par, "h", [])


def test_eval_term():
    par = parity_algebra()
    assert eval_term(par, {"x": "1"}, parse_term("f(x,x)", PARITY_TABLE)) == "0"
    assert eval_term(par, {"x": "1"}, parse_term("f(x,f(x))", PARITY_TABLE)) == "0"
    assert eval_term(par, {"x": "1"}, parse_term("f", PARITY_TABLE)) == "0"
    with pytest.raises(AlgebraError):
        eval_term(par, {}, leaf("x"))


def test_eval_g_matches_relabel():
    par = parity_algebra()
    htab = SymbolTable(("h",), ("x",))
    t = parse_term("h(x,h(x))", htab)
    der = derived_algebra({"h": "f"}, par)
    assert eval_term(der, {"x": "1"}, t) == "0"


def test_generated_closure():
    par = parity_algebra()
    assert generated_closure(par, ("f",), ()) == ("0",)
    assert generated_closure(par, ("f",), ("1",)) == ("0", "1")
    assert generated_closure(par, ("f",), ("0", "1")) == ("0", "1")


def test_g_product():
    par = parity_algebra()
    prod = g_product({"f": ("f", "f")}, [par, par])
    assert apply_symbol(prod, "f", [("1", "0"), ("1", "1")]) == ("0", "1")
    # mixing operators of the two-operator algebra with parity
    mixed = g_product({"h": ("g", "f")}, [root_algebra(), par])
    assert apply_symbol(mixed, "h", [("0", "1"), ("1", "1")]) == ("0", "0")
    assert apply_symbol(mixed, "h", [("0", "1")]) == ("0", "1")


def test_empty_g_product_is_trivial():
    triv = g_product({"f": ()}, [])
    assert len(triv.elements) == 1
    assert apply_symbol(triv, "f", []) == triv.elements[0]
    assert trivial_algebra(("f",)).elements == triv.elements


def test_derived_algebra():
    par = parity_algebra()
    der = derived_algebra({"h": "f"}, par)
    assert apply_symbol(der, "h", ["1", "1"]) == "0"
    same = derived_algebra({"f": "f"}, par)
    assert same.ops["f"] == par.ops["f"]
    rt = root_algebra()
    collapsed = derived_algebra({"f": "g", "g": "g"}, rt)
    assert apply_symbol(collapsed, "f", []) == "0"


def test_is_congruence():
    par = parity_algebra()
    ok, _ = is_congruence(par, Partition.universal(("0", "1")))
    assert ok
    ok, _ = is_congruence(par, Partition.discrete(("0", "1")))
    assert ok
    rt = root_algebra()
    sigma = Partition.universal(("f", "g"))
    ok, witness = is_g_congruence(rt, GCongruence(sigma, Partition.discrete(("0", "1"))))
    assert not ok
    f, g, (w1, w2) = witness
    assert {f, g} == {"f", "g"} and w1 == () and w2 == ()


def test_congruence_matches_bruteforce():
    rng = random.Random(21)
    for _ in range(15):
        alg = random_algebra(rng, random_table(rng).operators)
        for theta in enumerate_partitions(alg.elements):
            ok, _ = is_congruence(alg, theta)
            brute = True
            for f in alg.sigma:
                for w1 in all_words(alg.elements, 3):
                    for w2 in all_words(alg.elements, 3):
                        if len(w1) == len(w2) and all(
                            theta.related(a, b) for a, b in zip(w1, w2)
                        ):
                            if not theta.related(
                                apply_symbol(alg, f, w1), apply_symbol(alg, f, w2)
                            ):
                                brute = False
            # exact check can only be stricter than the depth-3 brute force
            if ok:
                assert brute
            if not brute:
                assert not ok


def _successor_algebra():
    """Value of a word is (last letter + 1) mod 3, and 0 for the empty word."""
    from uta import MooreMachine, RegularAlgebra

    elements = ("0", "1", "2")
    states = ("s",) + tuple(f"s{a}" for a in elements)
    delta = {(q, a): f"s{a}" for q in states for a in elements}
    out = {"s": "0"} | {f"s{a}": str((int(a) + 1) % 3) for a in elements}
    m = MooreMachine(states, elements, "s", delta, out)
    return RegularAlgebra(elements, ("f",), {"f": m})


def test_m_operator():
    rt = root_algebra()
    assert m_operator(rt, Partition.discrete(("0", "1"))).blocks == (("f",), ("g",))
    assert m_operator(rt, Partition.universal(("0", "1"))).blocks == (("f", "g"),)
    # duplicated operator merges
    par = parity_algebra()
    dup = g_product({"f": ("f",), "f2": ("f",)}, [par])
    assert m_operator(dup, Partition.discrete(dup.elements)).blocks == (("f", "f2"),)
    # merging 0,1 but not 2 breaks under the successor operation
    succ = _successor_algebra()
    bad = Partition.from_blocks(("0", "1", "2"), [["0", "1"], ["2"]])
    ok_bad, witness = is_congruence(succ, bad)
    assert not ok_bad and witness is not None
    with pytest.raises(NotACongruenceError, match="^theta is not a congruence for f$") as err:
        m_operator(succ, bad)
    assert err.value.witness == witness


def test_quotient_refusal_carries_the_congruence_witness():
    succ = _successor_algebra()
    bad = Partition.from_blocks(("0", "1", "2"), [["0", "1"], ["2"]])
    with pytest.raises(NotACongruenceError, match="^theta is not a congruence for f$") as err:
        quotient_algebra(succ, bad)
    assert err.value.witness == is_congruence(succ, bad)[1]


def test_quotient_algebra():
    par = parity_algebra()
    one = quotient_algebra(par, Partition.universal(("0", "1")))
    assert len(one.elements) == 1
    same = quotient_algebra(par, Partition.discrete(("0", "1")))
    for w in all_words(("0", "1"), 5):
        classed = [f"[{a}]" for a in w]
        assert apply_symbol(same, "f", classed) == f"[{apply_symbol(par, 'f', w)}]"


def test_quotient_correctness_random():
    rng = random.Random(23)
    checked = 0
    for _ in range(12):
        alg = random_algebra(rng, random_table(rng).operators)
        for theta in enumerate_partitions(alg.elements):
            ok, _ = is_congruence(alg, theta)
            if not ok:
                continue
            quot = quotient_algebra(alg, theta)
            for f in alg.sigma:
                for w in all_words(alg.elements, 3):
                    lhs = theta.class_name(apply_symbol(alg, f, w))
                    rhs = apply_symbol(quot, f, [theta.class_name(a) for a in w])
                    assert lhs == rhs
            checked += 1
    assert checked > 5


def test_g_quotient():
    rt = root_algebra()
    ident = g_quotient(
        rt,
        GCongruence(Partition.discrete(("f", "g")), Partition.discrete(("0", "1"))),
    )
    assert len(ident.elements) == 2 and len(ident.sigma) == 2
    merged = g_quotient(
        rt,
        GCongruence(Partition.universal(("f", "g")), Partition.universal(("0", "1"))),
    )
    assert len(merged.elements) == 1 and len(merged.sigma) == 1
    with pytest.raises(NotACongruenceError):
        g_quotient(
            rt,
            GCongruence(
                Partition.universal(("f", "g")), Partition.discrete(("0", "1"))
            ),
        )


def test_verify_gmorphism():
    par = parity_algebra()
    prod = g_product({"f": ("f", "f")}, [par, par])
    phi = {e: e[0] for e in prod.elements}
    ok, _ = verify_algebra_gmorphism(prod, par, {"f": "f"}, phi)
    assert ok
    ker = kernel(prod, {"f": "f"}, phi)
    okk, _ = is_g_congruence(prod, ker)
    assert okk
    # collapse to a point always works
    triv = trivial_algebra(("f", "g"))
    rt = root_algebra()
    ok, _ = verify_algebra_gmorphism(
        rt, triv, {"f": "f", "g": "g"}, {"0": "⊥", "1": "⊥"}
    )
    assert ok
    # swapping the root algebra's values breaks the constants
    ok, witness = verify_algebra_gmorphism(
        rt, rt, {"f": "f", "g": "g"}, {"0": "1", "1": "0"}
    )
    assert not ok
    assert witness[1] == ()


def test_translations_parity_and_root():
    tm = translations(parity_algebra())
    assert {tr.table for tr in tm.members} == {("0", "1"), ("1", "0")}
    tm2 = translations(root_algebra())
    assert {tr.table for tr in tm2.members} == {
        ("0", "1"),
        ("1", "1"),
        ("0", "0"),
    }
    triv = trivial_algebra(("f",))
    assert len(translations(triv).members) == 1


def test_elementary_translations_match_word_enumeration():
    rng = random.Random(29)
    for _ in range(12):
        alg = random_algebra(rng, random_table(rng).operators)
        tm = translations(alg)
        for f in alg.sigma:
            m = alg.ops[f]
            bound = len(m.states) ** 2 + 1
            # states reachable within the word-length bound
            frontier, ustates = {m.start}, {m.start}
            for _ in range(bound):
                frontier = {m.delta[(q, a)] for q in frontier for a in alg.elements}
                ustates |= frontier
            pos = {q: i for i, q in enumerate(m.states)}
            letter = {
                a: tuple(m.delta[(q, a)] for q in m.states) for a in alg.elements
            }
            maps, mfront = {tuple(m.states)}, {tuple(m.states)}
            for _ in range(bound):
                mfront = {
                    tuple(letter[a][pos[s]] for s in g)
                    for g in mfront
                    for a in alg.elements
                }
                maps |= mfront
            enum = {
                tuple(m.out[g[pos[m.delta[(q, a)]]]] for a in alg.elements)
                for q in ustates
                for g in maps
            }
            assert {tr.table for tr in tm.elementary[f]} == enum


def test_translation_provenance_reproduces_map():
    rng = random.Random(107)
    for _ in range(10):
        alg = random_algebra(rng, random_table(rng).operators)
        tm = translations(alg)
        pos = {a: i for i, a in enumerate(alg.elements)}
        for tr in tm.members:
            for a in alg.elements:
                b = a
                for f, u, v in tr.provenance:
                    b = apply_symbol(alg, f, list(u) + [b] + list(v))
                assert b == tr.table[pos[a]]


def test_congruences_invariant_under_translations():
    rng = random.Random(31)
    for _ in range(10):
        alg = random_algebra(rng, random_table(rng).operators)
        tm = translations(alg)
        pos = {a: i for i, a in enumerate(alg.elements)}
        for theta in enumerate_partitions(alg.elements):
            ok, _ = is_congruence(alg, theta)
            if not ok:
                continue
            for tr in tm.members:
                for a in alg.elements:
                    for b in alg.elements:
                        if theta.related(a, b):
                            assert theta.related(tr.table[pos[a]], tr.table[pos[b]])


def test_free_extension_property():
    # evaluation respects node application on enumerated trees
    from uta import enumerate_trees

    par = parity_algebra()
    tab = PARITY_TABLE
    for t in enumerate_trees(tab, 5, 3):
        if t.children:
            childvals = [eval_term(par, {"x": "1"}, c) for c in t.children]
            assert eval_term(par, {"x": "1"}, t) == apply_symbol(par, t.label, childvals)


def test_g_product_projections_are_morphisms():
    rng = random.Random(37)
    for _ in range(8):
        a1 = random_algebra(rng, ("f", "g"))
        a2 = random_algebra(rng, ("f",))
        kappa = {"h": ("f", "f"), "k": ("g", "f")}
        prod = g_product(kappa, [a1, a2])
        ok1, _ = verify_algebra_gmorphism(
            prod, a1, {"h": "f", "k": "g"}, {e: e[0] for e in prod.elements}
        )
        ok2, _ = verify_algebra_gmorphism(
            prod, a2, {"h": "f", "k": "f"}, {e: e[1] for e in prod.elements}
        )
        assert ok1 and ok2
