import random
from itertools import product as cartesian

import pytest

from uta import (
    MooreMachine,
    Partition,
    WellDefinednessError,
    class_quotient_machine,
    machine_disagreement,
    machines_equivalent,
    minimize_moore,
    run_word,
    transition_monoid,
)
from uta.horizon import MachineError, tuple_product_machine

from helpers import const_machine, parity_machine, random_machine


def all_words(alphabet, up_to):
    for n in range(up_to + 1):
        yield from cartesian(alphabet, repeat=n)


def test_run_word():
    m = parity_machine()
    assert run_word(m, ["1", "1"]) == "0"
    assert run_word(m, []) == "0"
    assert run_word(m, ["0", "1", "1", "1"]) == "1"
    with pytest.raises(MachineError):
        run_word(m, ["2"])


def test_machine_validation():
    with pytest.raises(MachineError):
        MooreMachine(("a",), ("0",), "a", {}, {"a": "0"})  # missing transition
    with pytest.raises(MachineError):
        MooreMachine(("a",), ("0",), "b", {("a", "0"): "a"}, {"a": "0"})
    with pytest.raises(MachineError):
        MooreMachine(("a",), ("0",), "a", {("a", "0"): "a"}, {})


def test_product_machine():
    pairs = tuple(cartesian(("0", "1"), ("0", "1")))
    m = tuple_product_machine([parity_machine(), parity_machine()], pairs)
    assert run_word(m, [("1", "1"), ("1", "0")]) == ("0", "1")
    assert run_word(m, []) == ("0", "0")
    one = const_machine("c", ("0", "1"))
    p = tuple_product_machine([parity_machine(), one], pairs)
    for w in all_words(("0", "1"), 5):
        paired = [(a, a) for a in w]
        assert run_word(p, paired)[0] == run_word(parity_machine(), w)


def test_minimize():
    # duplicated odd state
    dup = MooreMachine(
        ("a", "b", "c"),
        ("0", "1"),
        "a",
        {
            ("a", "0"): "a",
            ("a", "1"): "b",
            ("b", "0"): "c",
            ("b", "1"): "a",
            ("c", "0"): "b",
            ("c", "1"): "a",
        },
        {"a": "0", "b": "1", "c": "1"},
    )
    m = minimize_moore(dup)
    assert len(m.states) == 2
    for w in all_words(("0", "1"), 8):
        assert run_word(m, w) == run_word(dup, w)
    assert machines_equivalent(m, dup)


def test_minimize_drops_unreachable():
    m = MooreMachine(
        ("a", "dead"),
        ("0",),
        "a",
        {("a", "0"): "a", ("dead", "0"): "a"},
        {"a": "0", "dead": "1"},
    )
    assert len(minimize_moore(m).states) == 1


def test_equivalence_and_witness():
    assert machines_equivalent(parity_machine(), parity_machine())
    w = machine_disagreement(parity_machine(), const_machine("0", ("0", "1")))
    assert w == ("1",)
    with pytest.raises(MachineError):
        machine_disagreement(parity_machine(), const_machine("0", ("0",)))


def test_transition_monoid_parity():
    mon = transition_monoid(parity_machine())
    assert len(mon) == 2
    tables = {sf.table for sf in mon}
    assert ("q0", "q1") in tables  # identity
    assert ("q1", "q0") in tables  # swap
    witnesses = {sf.table: sf.witness for sf in mon}
    assert witnesses[("q0", "q1")] == ()
    assert witnesses[("q1", "q0")] == ("1",)


def test_transition_monoid_constant_and_cycle():
    assert len(transition_monoid(const_machine("c", ("0", "1")))) == 1  # identity only
    loop = MooreMachine(
        ("a",), ("0", "1"), "a", {("a", "0"): "a", ("a", "1"): "a"}, {"a": "0"}
    )
    assert len(transition_monoid(loop)) == 1
    cyc = MooreMachine(
        ("a", "b", "c"),
        ("s",),
        "a",
        {("a", "s"): "b", ("b", "s"): "c", ("c", "s"): "a"},
        {"a": "0", "b": "1", "c": "2"},
    )
    mon = transition_monoid(cyc)
    assert len(mon) == 3


def test_transition_monoid_closed_and_witnessed():
    rng = random.Random(11)
    for _ in range(20):
        m = random_machine(rng, ("0", "1", "2"))
        mon = transition_monoid(m)
        assert len(mon) <= len(m.states) ** len(m.states)
        pos = {q: i for i, q in enumerate(m.states)}
        tables = {sf.table for sf in mon}
        assert tuple(m.states) in tables
        for p in mon:
            # witness reproduces the map
            recomputed = []
            for q in m.states:
                cur = q
                for a in p.witness:
                    cur = m.delta[(cur, a)]
                recomputed.append(cur)
            assert tuple(recomputed) == p.table
            for q in mon:
                comp = tuple(q.table[pos[s]] for s in p.table)
                assert comp in tables


def test_class_quotient_universal():
    m = parity_machine()
    q = class_quotient_machine(
        m, Partition.universal(("0", "1")), Partition.universal(("0", "1"))
    )
    assert len(q.states) == 1


def test_class_quotient_identity():
    m = parity_machine()
    q = class_quotient_machine(
        m, Partition.discrete(("0", "1")), Partition.discrete(("0", "1"))
    )
    assert len(q.states) == 2
    for w in all_words(("0", "1"), 6):
        classed = [f"[{a}]" for a in w]
        assert run_word(q, classed) == f"[{run_word(m, w)}]"


def test_class_quotient_rejects_non_congruence():
    with pytest.raises(WellDefinednessError):
        class_quotient_machine(
            parity_machine(),
            Partition.universal(("0", "1")),
            Partition.discrete(("0", "1")),
        )


def test_minimized_machines_canonical():
    rng = random.Random(13)
    for _ in range(20):
        m = random_machine(rng, ("0", "1"))
        m1 = minimize_moore(m)
        m2 = minimize_moore(m1)
        assert m1 == m2
        for w in all_words(("0", "1"), 7):
            assert run_word(m1, w) == run_word(m, w)
