import random
from collections import deque
from itertools import product as cartesian

import pytest

from uta import (
    MooreMachine,
    NotACongruenceError,
    Partition,
    RegularAlgebra,
    machine_disagreement,
    quotient_algebra,
    run_word,
    syntactic_algebra,
    syntactic_congruence,
    transition_monoid,
)
from uta.horizon import MachineError, reachable_with_witnesses, tuple_product_machine

from helpers import const_machine, parity_machine, random_algebra, random_machine, subsets


def all_words(alphabet, up_to):
    for n in range(up_to + 1):
        yield from cartesian(alphabet, repeat=n)


# ---------------------------------------------------------------------------
# The subset construction and minimizer that quotient machines replaced,
# kept as references


class WellDefinednessError(MachineError):
    """A reachable state set whose outputs span two classes."""


def minimize_moore(m: MooreMachine) -> MooreMachine:
    """Minimal machine for the same word function, states renamed q0..qn in
    breadth-first order over the alphabet (reference implementation)."""
    states, _ = reachable_with_witnesses(m)
    ids: dict = {}
    cls = {q: ids.setdefault(m.out[q], len(ids)) for q in states}
    while True:
        ids2: dict = {}
        nxt = {
            q: ids2.setdefault(
                (cls[q], tuple(cls[m.delta[(q, a)]] for a in m.alphabet)), len(ids2)
            )
            for q in states
        }
        if len(ids2) == len(set(cls.values())):
            break
        cls = nxt
    name = {cls[m.start]: "q0"}
    order = [(cls[m.start], m.start)]
    queue = deque([m.start])
    while queue:
        q = queue.popleft()
        for a in m.alphabet:
            q2 = m.delta[(q, a)]
            if cls[q2] not in name:
                name[cls[q2]] = f"q{len(name)}"
                order.append((cls[q2], q2))
                queue.append(q2)
    delta = {(name[c], a): name[cls[m.delta[(q, a)]]] for c, q in order for a in m.alphabet}
    out = {name[c]: m.out[q] for c, q in order}
    return MooreMachine(tuple(name[c] for c, _ in order), m.alphabet, "q0", delta, out)


def class_quotient_machine(m, theta_alphabet: Partition, theta_output: Partition):
    """Machine over letter classes by the subset construction, minimized: a
    state is the set of m-states that the representatives of one class word
    reach (reference implementation)."""
    blocks = {theta_alphabet.class_name(b[0]): b for b in theta_alphabet.blocks}
    start = frozenset((m.start,))
    states, seen, delta = [start], {start}, {}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for cname, block in blocks.items():
            nxt = frozenset(m.delta[(q, a)] for q in s for a in block)
            delta[(s, cname)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
                queue.append(nxt)
    out = {}
    for s in states:
        names = {theta_output.class_name(m.out[q]) for q in s}
        if len(names) != 1:
            raise WellDefinednessError(f"outputs span {sorted(names)}")
        out[s] = names.pop()
    return minimize_moore(MooreMachine(tuple(states), tuple(blocks), start, delta, out))


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
    assert machine_disagreement(m, dup) is None


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
    assert machine_disagreement(parity_machine(), parity_machine()) is None
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
    alg = RegularAlgebra(("0", "1"), ("f",), {"f": m})
    assert quotient_algebra(alg, Partition.universal(("0", "1"))).ops["f"] == q


def test_class_quotient_identity():
    m = parity_machine()
    q = class_quotient_machine(
        m, Partition.discrete(("0", "1")), Partition.discrete(("0", "1"))
    )
    assert len(q.states) == 2
    for w in all_words(("0", "1"), 6):
        classed = [f"[{a}]" for a in w]
        assert run_word(q, classed) == f"[{run_word(m, w)}]"
    alg = RegularAlgebra(("0", "1"), ("f",), {"f": m})
    assert quotient_algebra(alg, Partition.discrete(("0", "1"))).ops["f"] == q


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


# ---------------------------------------------------------------------------
# Quotient machines against the references


def reference_quotient(alg: RegularAlgebra, theta: Partition):
    """The quotient algebra, or the first operator that refuses theta."""
    ops = {}
    for f in alg.sigma:
        try:
            ops[f] = class_quotient_machine(alg.ops[f], theta, theta)
        except WellDefinednessError:
            return f
    carrier = tuple(theta.class_name(b[0]) for b in theta.blocks)
    return RegularAlgebra(carrier, alg.sigma, ops)


def test_quotients_match_the_subset_construction():
    rng = random.Random(20261019)
    quotients = refused = 0
    for _ in range(200):
        sigma = ("f", "g", "h")[: rng.randint(1, 3)]
        alg = random_algebra(rng, sigma, max_elements=rng.randint(2, 5), max_states=4)
        for H in subsets(alg.elements):
            theta = syntactic_congruence(alg, H)
            assert syntactic_algebra(alg, H).algebra == reference_quotient(alg, theta)
        for _ in range(6):
            labels = {a: rng.randrange(3) for a in alg.elements}
            universe = rng.sample(alg.elements, len(alg.elements))
            theta = Partition.from_key(universe, labels.__getitem__)
            expected = reference_quotient(alg, theta)
            if isinstance(expected, str):
                with pytest.raises(NotACongruenceError) as err:
                    quotient_algebra(alg, theta)
                assert str(err.value) == f"theta is not a congruence for {expected}"
                refused += 1
            else:
                # machines compare with their state tuples, so state order too
                assert quotient_algebra(alg, theta) == expected
                quotients += 1
    assert quotients > 500 and refused > 200
