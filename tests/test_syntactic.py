import random

from uta import (
    Partition,
    is_congruence,
    is_disjunctive,
    is_g_congruence,
    GCongruence,
    m_operator,
    reduced_syntactic,
    syntactic_algebra,
    syntactic_congruence,
    translations,
    trivial_algebra,
    verify_algebra_gmorphism,
)

from helpers import parity_algebra, random_algebra, random_table, root_algebra, subsets


def enumerate_partitions(universe):
    universe = tuple(universe)

    def go(rest, blocks):
        if not rest:
            yield [list(b) for b in blocks]
            return
        x, rest2 = rest[0], rest[1:]
        for i in range(len(blocks)):
            yield from go(rest2, blocks[:i] + [blocks[i] + [x]] + blocks[i + 1 :])
        yield from go(rest2, blocks + [[x]])

    if not universe:
        return
    for blocks in go(universe[1:], [[universe[0]]]):
        yield Partition.from_blocks(universe, blocks)


def saturates(theta: Partition, H: frozenset) -> bool:
    return all(set(b) <= H or not (set(b) & H) for b in theta.blocks)


def test_syntactic_congruence_examples():
    par = parity_algebra()
    assert syntactic_congruence(par, {"1"}).is_discrete
    assert syntactic_congruence(par, set()).is_universal
    rt = root_algebra()
    assert syntactic_congruence(rt, {"0", "1"}).is_universal
    assert syntactic_congruence(rt, {"1"}).is_discrete


def test_syntactic_is_greatest_saturating_congruence():
    rng = random.Random(41)
    for _ in range(10):
        alg = random_algebra(rng, random_table(rng).operators)
        for H in subsets(alg.elements):
            theta_H = syntactic_congruence(alg, H)
            ok, _ = is_congruence(alg, theta_H)
            assert ok
            assert saturates(theta_H, H)
            for theta in enumerate_partitions(alg.elements):
                ok, _ = is_congruence(alg, theta)
                if ok and saturates(theta, H):
                    assert theta.refines(theta_H)


def test_complement_and_intersection_properties():
    rng = random.Random(43)
    for _ in range(10):
        alg = random_algebra(rng, random_table(rng).operators)
        elements = set(alg.elements)
        for H in subsets(alg.elements):
            assert syntactic_congruence(alg, elements - H) == syntactic_congruence(
                alg, H
            )
        for H in subsets(alg.elements):
            for K in subsets(alg.elements):
                inter = syntactic_congruence(alg, H).intersect(
                    syntactic_congruence(alg, K)
                )
                assert inter.refines(syntactic_congruence(alg, H & K))


def test_translation_preimage_property():
    rng = random.Random(47)
    for _ in range(10):
        alg = random_algebra(rng, random_table(rng).operators)
        tm = translations(alg)
        pos = {a: i for i, a in enumerate(alg.elements)}
        for H in subsets(alg.elements):
            theta_H = syntactic_congruence(alg, H)
            for tr in tm.members:
                pre = frozenset(a for a in alg.elements if tr.table[pos[a]] in H)
                assert theta_H.refines(syntactic_congruence(alg, pre))


def test_morphism_image_property():
    # for a surjective morphism, preimages of syntactic classes match
    from uta import g_product

    rng = random.Random(53)
    for _ in range(8):
        alg = random_algebra(rng, ("f",))
        prod = g_product({"f": ("f", "f")}, [alg, alg])
        phi = {e: e[0] for e in prod.elements}
        ok, _ = verify_algebra_gmorphism(prod, alg, {"f": "f"}, phi)
        assert ok
        # phi is surjective onto alg
        for H in subsets(alg.elements):
            pre = frozenset(e for e in prod.elements if phi[e] in H)
            theta_pre = syntactic_congruence(prod, pre)
            theta_H = syntactic_congruence(alg, H)
            for e1 in prod.elements:
                for e2 in prod.elements:
                    assert theta_pre.related(e1, e2) == theta_H.related(
                        phi[e1], phi[e2]
                    )


def test_syntactic_algebra_examples():
    par = parity_algebra()
    res = syntactic_algebra(par, {"1"})
    assert len(res.algebra.elements) == 2
    res0 = syntactic_algebra(par, set())
    assert len(res0.algebra.elements) == 1
    rt = root_algebra()
    res1 = syntactic_algebra(rt, {"1"})
    assert len(res1.algebra.elements) == 2


def test_quotient_finals_disjunctive():
    rng = random.Random(59)
    for _ in range(10):
        alg = random_algebra(rng, random_table(rng).operators)
        for H in subsets(alg.elements):
            res = syntactic_algebra(alg, H)
            assert is_disjunctive(res.algebra, res.finals_image)


def test_is_disjunctive():
    par = parity_algebra()
    assert is_disjunctive(par, {"1"})
    assert not is_disjunctive(par, set())
    assert is_disjunctive(trivial_algebra(("f",)), set())


def test_reduced_syntactic():
    rt = root_algebra()
    res = reduced_syntactic(rt, {"1"})
    assert res.sigma.blocks == (("f",), ("g",))
    ident_ok, _ = verify_algebra_gmorphism(
        rt, res.reduced, res.iota, {a: res.morphism[a] for a in rt.elements}
    )
    # reduced algebra here coincides with the quotient (no operator merge)
    assert ident_ok
    res_empty = reduced_syntactic(rt, set())
    assert res_empty.sigma.is_universal
    assert len(res_empty.reduced.elements) == 1
    # duplicate operators merge in the reduced form
    from uta import g_product

    par = parity_algebra()
    dup = g_product({"f": ("f",), "f2": ("f",)}, [par])
    res_dup = reduced_syntactic(dup, {("1",)})
    assert res_dup.sigma.blocks == (("f", "f2"),)


def test_reduced_morphism_verifies_random():
    rng = random.Random(61)
    for _ in range(10):
        alg = random_algebra(rng, random_table(rng).operators)
        for H in subsets(alg.elements):
            res = reduced_syntactic(alg, H)
            ok, _ = verify_algebra_gmorphism(
                alg, res.reduced, res.iota, res.morphism
            )
            assert ok
            okg, _ = is_g_congruence(alg, GCongruence(res.sigma, res.theta))
            assert okg
            assert res.sigma == m_operator(alg, res.theta)
