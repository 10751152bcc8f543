import random
from collections import deque
from dataclasses import replace
from itertools import product as cartesian

import pytest

from uta import (
    MooreMachine,
    NotACongruenceError,
    Partition,
    RegularAlgebra,
    g_product,
    machine_disagreement,
    quotient_algebra,
    run_word,
    syntactic_algebra,
    syntactic_congruence,
)
from uta.horizon import (
    MachineError,
    _breadth_first,
    _state_walk,
    reachable_with_witnesses,
)
from uta.recognizer import _word_to

from helpers import (
    _product_reach,
    const_machine,
    parity_machine,
    random_algebra,
    random_machine,
    ref_reachable_with_witnesses,
    ref_word_to,
    subsets,
    transition_monoid,
)


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


def test_machine_validation_messages():
    """Each fault is reported as it was when every (state, letter) pair was
    looked up: a short transition count names its first missing pair, in
    state and then letter order, and a key outside states x letters is
    reported before any count."""
    full = {(q, a): "b" for q in "ab" for a in "01"}
    out = {"a": "0", "b": "1"}
    cases = [
        ({k: v for k, v in full.items() if k != ("b", "0")}, "incomplete machine: no transition ('b', '0')"),
        ({k: v for k, v in full.items() if k[1] != "1"}, "incomplete machine: no transition ('a', '1')"),
        ({**full, ("c", "0"): "a"}, "transition from unknown ('c', '0')"),
        ({**{k: v for k, v in full.items() if k != ("a", "0")}, ("a", "2"): "a"}, "transition from unknown ('a', '2')"),
        ({**full, ("a", "0"): "c"}, "transition into unknown state 'c'"),
    ]
    for delta, message in cases:
        with pytest.raises(MachineError) as err:
            MooreMachine(("a", "b"), ("0", "1"), "a", delta, out)
        assert str(err.value) == message
    assert MooreMachine(("a", "b"), ("0", "1"), "a", full, out).delta == full


def test_product_machine():
    """The synchronous product of ``g_product``: letters fed componentwise."""
    par = RegularAlgebra(("0", "1"), ("f",), {"f": parity_machine()})
    m = g_product({"f": ("f", "f")}, [par, par]).ops["f"]
    assert run_word(m, [("1", "1"), ("1", "0")]) == ("0", "1")
    assert run_word(m, []) == ("0", "0")
    one = RegularAlgebra(("0", "1"), ("f",), {"f": const_machine("1", ("0", "1"))})
    p = g_product({"f": ("f", "f")}, [par, one]).ops["f"]
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


# ---------------------------------------------------------------------------
# The walk over one machine's state tuples


class CountedReads(dict):
    """A column of a machine that counts its reads in ``reads[0]``, a count
    it shares with the machine's other columns."""

    def __init__(self, column, reads):
        super().__init__(column)
        self.reads = reads

    def __getitem__(self, key):
        self.reads[0] += 1
        return super().__getitem__(key)


def counted(m: MooreMachine) -> MooreMachine:
    """The machine with its columns counting their reads in ``m.reads``."""
    object.__setattr__(m, "reads", [0])
    m.columns.update((a, CountedReads(col, m.reads)) for a, col in list(m.columns.items()))
    return m


def walk_draws(seed, n):
    """Seeded machines over two to four letters, each with a random start
    state and a random nonempty subset of its letters, in random order."""
    rng = random.Random(seed)
    for _ in range(n):
        elements = tuple(str(i) for i in range(rng.randint(2, 4)))
        m = random_machine(rng, elements, max_states=rng.randint(1, 7))
        letters = rng.sample(elements, rng.randint(1, len(elements)))
        yield rng, m, rng.choice(m.states), letters


def test_walk_yields_each_tuple_before_reading_on_from_it():
    m = counted(random_machine(random.Random(3), ("0", "1", "2"), max_states=4))
    walk = _state_walk(m, (m.start, m.states[-1]), {})
    assert next(walk) == ((m.start, m.states[-1]), ())
    assert m.reads == [0]
    rest = list(walk)
    # each tuple met reads each letter once per entry, and no more
    assert m.reads == [(1 + len(rest)) * 3 * 2]


def test_walk_from_a_tuple_met_before_yields_nothing():
    m = parity_machine()
    words: dict = {}
    assert [s for s, _ in _state_walk(m, ("q0", "q1"), words)] == [("q0", "q1"), ("q1", "q0")]
    assert list(_state_walk(m, ("q1", "q0"), words)) == []
    assert words == {("q0", "q1"): (), ("q1", "q0"): ("1",)}


def test_a_shared_map_walks_only_what_the_first_starts_left():
    for rng, m, q, letters in walk_draws(20261020, 300):
        starts = [tuple(rng.choice(m.states) for _ in range(rng.randint(1, 3))) for _ in range(3)]
        words: dict = {}
        for start in starts:
            before = dict(words)
            fresh = dict(_state_walk(m, start, {}, letters))
            walked = dict(_state_walk(m, start, words, letters))
            # a tuple met before, and so all it leads to, is not met again
            assert walked == {s: w for s, w in fresh.items() if s not in before}
            # the map keeps each tuple with the word of the start that met it
            assert words == {**before, **walked}
            for s, w in walked.items():
                assert tuple(run_word(replace(m, out={p: p for p in m.states}, start=p), w)
                             for p in start) == s


def test_walks_match_the_searches_they_replaced():
    targets = 0
    for rng, m, q, letters in walk_draws(20261021, 400):
        words = _breadth_first(m.start, lambda q: [m.delta[q, a] for a in letters], letters)
        assert (tuple(words), words) == ref_reachable_with_witnesses(m, letters)
        assert reachable_with_witnesses(m) == ref_reachable_with_witnesses(m)
        states, words = ref_reachable_with_witnesses(replace(m, start=q), letters)
        assert list(_state_walk(m, (q,), {}, letters)) == [((p,), words[p]) for p in states]
        for b in dict.fromkeys(m.out[p] for p in ref_reachable_with_witnesses(replace(m, start=q))[0]):
            assert _word_to(m, q, b) == ref_word_to(m, q, b)
            targets += 1
        # a tuple of k states walks as the product of k copies of the machine
        start = tuple(rng.choice(m.states) for _ in range(rng.randint(2, 3)))
        copies = [replace(m, start=p) for p in start]
        pairs = [(s, w) for s, w, _ in _product_reach(copies, [(a,) * len(start) for a in letters])]
        assert list(_state_walk(m, start, {}, letters)) == [
            (s, tuple(a for a, *_ in w)) for s, w in pairs
        ]
    assert targets > 400
