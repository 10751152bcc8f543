import random

import pytest

from uta import (
    Definite,
    Partition,
    ReverseDefinite,
    apply_symbol,
    eval_of,
    syntactic_of,
    trim,
    trivial_algebra,
)
from uta.algebra import AlgebraError
from uta.oracle import (
    brute_syntactic_partition,
    brute_variety_check,
    covers_search,
    make_universe,
    subalgebra,
)

from helpers import (
    PARITY_TABLE,
    all_trees_rec,
    parity_algebra,
    parity_odd,
    random_recognizer,
    root_f,
    singleton_x3,
)


def test_universe_contents():
    uni = make_universe(PARITY_TABLE, (3, 2), (3, 2))
    assert len(uni.trees) == len(set(uni.trees))
    assert len(uni.contexts) == len(set(uni.contexts))
    assert uni.trees[0].label in ("f", "x")


def test_brute_partition_examples():
    uni = make_universe(PARITY_TABLE, (4, 3), (4, 3))
    assert brute_syntactic_partition(parity_odd(), uni).block_count == 2
    assert brute_syntactic_partition(all_trees_rec(), uni).block_count == 1
    uni3 = make_universe(PARITY_TABLE, (3, 3), (3, 3))
    part = brute_syntactic_partition(singleton_x3(), uni3)
    assert part.block_count == 2
    x_block = part.class_of(uni3.trees[1] if uni3.trees[1].is_leaf else uni3.trees[0])
    assert len([b for b in part.blocks if len(b) == 1]) == 1


def test_fast_path_equals_literal():
    rng = random.Random(97)
    for _ in range(6):
        rec = random_recognizer(rng)
        uni = make_universe(rec.table, (3, 2), (3, 2))
        fast = brute_syntactic_partition(rec, uni)
        slow = brute_syntactic_partition(rec, uni, literal=True)
        assert fast.blocks == slow.blocks


def test_sa_refines_brute_partition():
    rng = random.Random(101)
    for _ in range(10):
        rec = random_recognizer(rng)
        uni = make_universe(rec.table, (4, 3), (4, 3))
        brute = brute_syntactic_partition(rec, uni)
        _res, srec = syntactic_of(rec)
        sa_part = Partition.from_key(uni.trees, lambda t: eval_of(srec, t))
        assert sa_part.refines(brute)


def test_brute_variety_check():
    uni = make_universe(root_f().table, (4, 3), (1, 1))
    ok, _ = brute_variety_check(root_f(), Definite(1), uni)
    assert ok
    uni_p = make_universe(PARITY_TABLE, (4, 3), (1, 1))
    for k in (0, 1, 2):
        ok, pair = brute_variety_check(parity_odd(), Definite(k), uni_p)
        assert not ok and pair is not None
    ok, _ = brute_variety_check(all_trees_rec(), ReverseDefinite(2), uni_p)
    assert ok


def test_subalgebra():
    par = parity_algebra()
    sub = subalgebra(par, ("0",))
    assert sub.elements == ("0",)
    assert apply_symbol(sub, "f", ["0", "0"]) == "0"
    with pytest.raises(AlgebraError):
        subalgebra(par, ("1",))  # f() = 0 escapes


def test_covers_search():
    _res, srec = syntactic_of(parity_odd())
    assert covers_search(srec.algebra, trim(parity_odd()).algebra)
    assert not covers_search(srec.algebra, trivial_algebra(("f",)))
    # an algebra always covers itself
    assert covers_search(srec.algebra, srec.algebra)
    with pytest.raises(ValueError):
        covers_search(srec.algebra, trivial_algebra(("h",)))


def test_covers_search_minimality_random():
    rng = random.Random(103)
    for _ in range(10):
        rec = random_recognizer(rng)
        _res, srec = syntactic_of(rec)
        assert covers_search(srec.algebra, trim(rec).algebra)
