"""Every state-pair search with words runs on one kernel, ``horizon._state_walk``
over a tuple of machines.

The hand-written breadth-first loops it replaced are kept here as
references: the machine disagreement search, the related-pair violation
search behind the congruence checks, one level of the definiteness chain,
the synchronous product, and the morphism check through rebuilt machines.
On seeded draws the library must give the same witnesses and machines.
The definiteness chain runs on bitsets and keeps no words: its relations
are checked against the loop's, and its verdicts against the decider
that built them from the loop.
"""

import random
from collections import deque
from itertools import product as cartesian

import pytest

from uta import (
    GCongruence,
    MooreMachine,
    Partition,
    Recognizer,
    RegularAlgebra,
    SymbolTable,
    decide_definite,
    g_product,
    is_congruence,
    is_g_congruence,
    m_operator,
    machine_disagreement,
    reduced_syntactic,
    syntactic_congruence,
    syntactic_of,
    trim,
    verify_algebra_gmorphism,
)
from uta import varieties
from uta.algebra import NotACongruenceError, _class_algebra, _refine
from uta.horizon import MachineError, reachable_with_witnesses
from uta.recognizer import RecognizerError

import helpers
from helpers import random_machine, ref_decide_definite, subsets


# ---------------------------------------------------------------------------
# The loops the kernel replaced


def ref_disagreement(m1, m2):
    if set(m1.alphabet) != set(m2.alphabet):
        raise MachineError("alphabet mismatch")
    start = (m1.start, m2.start)
    words = {start: ()}
    queue = deque([start])
    while queue:
        q1, q2 = queue.popleft()
        if m1.out[q1] != m2.out[q2]:
            return words[(q1, q2)]
        for a in m1.alphabet:
            nxt = (m1.delta[(q1, a)], m2.delta[(q2, a)])
            if nxt not in words:
                words[nxt] = words[(q1, q2)] + (a,)
                queue.append(nxt)
    return None


def ref_pair_violation(mf, mg, letter_pairs, theta):
    start = (mf.start, mg.start)
    words = {start: ((), ())}
    queue = deque([start])
    while queue:
        q1, q2 = queue.popleft()
        if not theta.related(mf.out[q1], mg.out[q2]):
            return words[(q1, q2)]
        for a, b in letter_pairs:
            nxt = (mf.delta[(q1, a)], mg.delta[(q2, b)])
            if nxt not in words:
                w1, w2 = words[(q1, q2)]
                words[nxt] = (w1 + (a,), w2 + (b,))
                queue.append(nxt)
    return None


def ref_tuple_product(machines, alphabet):
    machines = list(machines)
    alphabet = tuple(alphabet)
    start = tuple(m.start for m in machines)
    states = [start]
    seen = {start}
    queue = deque([start])
    delta = {}
    while queue:
        qs = queue.popleft()
        for letter in alphabet:
            nxt = tuple(m.delta[(q, a)] for m, q, a in zip(machines, qs, letter))
            delta[(qs, letter)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
                queue.append(nxt)
    out = {qs: tuple(m.out[q] for m, q in zip(machines, qs)) for qs in states}
    return MooreMachine(tuple(states), alphabet, start, delta, out)


def map_outputs(m, fn):
    return MooreMachine(
        m.states, m.alphabet, m.start, m.delta, {q: fn(m.out[q]) for q in m.states}
    )


def premap_letters(m, new_alphabet, fn):
    new_alphabet = tuple(new_alphabet)
    delta = {(q, a): m.delta[(q, fn(a))] for q in m.states for a in new_alphabet}
    return MooreMachine(m.states, new_alphabet, m.start, delta, m.out)


def ref_gmorphism(src, dst, iota, phi):
    for f in src.sigma:
        lhs = map_outputs(src.ops[f], phi.__getitem__)
        rhs = premap_letters(dst.ops[iota[f]], src.elements, phi.__getitem__)
        w = ref_disagreement(lhs, rhs)
        if w is not None:
            return False, (f, w)
    return True, None


def related_pairs(elements, theta):
    return tuple((a, b) for a in elements for b in elements if theta.related(a, b))


def ref_is_congruence(alg, theta):
    pairs = related_pairs(alg.elements, theta)
    for f in alg.sigma:
        w = ref_pair_violation(alg.ops[f], alg.ops[f], pairs, theta)
        if w is not None:
            return False, (f, f, w)
    return True, None


def ref_is_g_congruence(alg, gcong):
    theta = gcong.theta_part
    pairs = related_pairs(alg.elements, theta)
    for block in gcong.sigma_part.blocks:
        for i, f in enumerate(block):
            for g in block[i:]:
                w = ref_pair_violation(alg.ops[f], alg.ops[g], pairs, theta)
                if w is not None:
                    return False, (f, g, w)
    return True, None


def ref_m_operator(alg, theta):
    """Each operator joins the first operator it is compatible with;
    compatibility is an equivalence once theta is a congruence."""
    pairs = related_pairs(alg.elements, theta)

    def first_compatible(g):
        return next(
            f
            for f in alg.sigma
            if ref_pair_violation(alg.ops[f], alg.ops[g], pairs, theta) is None
        )

    return Partition.from_key(alg.sigma, first_compatible)


def ref_definite_chain(srec, min_levels=0):
    alg = srec.algebra
    V = alg.elements
    pos = {a: i for i, a in enumerate(V)}
    levels = [None]
    r1 = {}
    for f in alg.sigma:
        m = alg.ops[f]
        states, witness = reachable_with_witnesses(m)
        out_word = {}
        for q in states:
            out_word.setdefault(m.out[q], witness[q])
        for a, ua in out_word.items():
            for b, ub in out_word.items():
                r1.setdefault((a, b), ("sym", f, ua, ub))
    for a in V:
        r1.setdefault((a, a), ("diag", a))
    levels.append(r1)
    stable_at = None
    j = 1
    while True:
        cur = levels[j]
        if all(a == b for (a, b) in cur):
            return levels, ("diagonal", j)
        if stable_at is not None and j >= min_levels:
            return levels, ("stable", stable_at)
        pairs = tuple(sorted(cur, key=lambda ab: (pos[ab[0]], pos[ab[1]])))
        nxt = {}
        for f in alg.sigma:
            m = alg.ops[f]
            start = (m.start, m.start)
            words = {start: ()}
            queue = deque([start])
            while queue:
                q1, q2 = queue.popleft()
                nxt.setdefault((m.out[q1], m.out[q2]), ("step", f, words[(q1, q2)]))
                for a, b in pairs:
                    t = (m.delta[(q1, a)], m.delta[(q2, b)])
                    if t not in words:
                        words[t] = words[(q1, q2)] + ((a, b),)
                        queue.append(t)
        for a in V:
            nxt.setdefault((a, a), ("diag", a))
        if stable_at is None and set(nxt) == set(cur):
            stable_at = j
        levels.append(nxt)
        j += 1
        if j > len(V) * len(V) + max(min_levels, 0) + 2:
            raise RecognizerError("definiteness chain failed to stabilize")


# ---------------------------------------------------------------------------
# Seeded draws


def draw_algebra(rng, n, max_states, sigma=("f", "g"), permute=False):
    """n elements; with ``permute`` each machine reads the carrier in a
    shuffled letter order, so alphabet order and carrier order differ."""
    elements = tuple(str(i) for i in range(n))
    ops = {}
    for f in sigma:
        letters = list(elements)
        if permute:
            rng.shuffle(letters)
        ops[f] = random_machine(rng, tuple(letters), max_states)
    return RegularAlgebra(elements, tuple(sigma), ops)


def draw_partition(rng, xs, k):
    return Partition.from_key(xs, lambda a: rng.randrange(k))


def permuted_algebra():
    """A fixed algebra whose machines read the carrier in another order."""
    elements = ("a", "b", "c")
    letters = ("c", "a", "b")
    states = ("s0", "s1", "s2")
    step = {"a": 1, "b": 2, "c": 0}
    m = MooreMachine(
        states,
        letters,
        "s0",
        {(q, x): states[(i + step[x]) % 3] for i, q in enumerate(states) for x in letters},
        {"s0": "a", "s1": "b", "s2": "c"},
    )
    return RegularAlgebra(elements, ("f",), {"f": m})


def test_disagreement_matches_the_reference():
    for seed in range(300):
        rng = random.Random(seed)
        alphabet = tuple("abc"[: rng.randint(1, 3)])
        m1 = random_machine(rng, alphabet, rng.randint(1, 5))
        shuffled = list(alphabet)
        rng.shuffle(shuffled)
        m2 = random_machine(rng, tuple(shuffled), rng.randint(1, 5))
        assert machine_disagreement(m1, m2) == ref_disagreement(m1, m2)
        assert machine_disagreement(m1, m1) is None
    with pytest.raises(MachineError):
        machine_disagreement(m1, random_machine(rng, alphabet + ("z",)))


def test_congruence_checks_match_the_reference():
    algebras = [permuted_algebra()]
    for seed in range(200):
        rng = random.Random(1000 + seed)
        algebras.append(
            draw_algebra(rng, rng.randint(1, 5), rng.randint(1, 4), permute=seed % 3 == 0)
        )
    rng = random.Random(7)
    refuted = 0
    for alg in algebras:
        thetas = [draw_partition(rng, alg.elements, rng.randint(1, 3)) for _ in range(3)]
        thetas += [syntactic_congruence(alg, H) for H in list(subsets(alg.elements))[:4]]
        for theta in thetas:
            got = is_congruence(alg, theta)
            assert got == ref_is_congruence(alg, theta)
            refuted += not got[0]
            gcong = GCongruence(draw_partition(rng, alg.sigma, 2), theta)
            assert is_g_congruence(alg, gcong) == ref_is_g_congruence(alg, gcong)
            if got[0]:
                assert m_operator(alg, theta) == ref_m_operator(alg, theta)
            else:
                with pytest.raises(NotACongruenceError) as err:
                    m_operator(alg, theta)
                assert err.value.witness == got[1]
    assert refuted > 100


def test_morphism_check_matches_the_reference():
    algebras = [permuted_algebra()]
    for seed in range(200):
        rng = random.Random(2000 + seed)
        algebras.append(
            draw_algebra(rng, rng.randint(1, 5), rng.randint(1, 4), permute=seed % 2 == 0)
        )
    rng = random.Random(8)
    outcomes = set()
    for alg in algebras:
        dst = draw_algebra(rng, rng.randint(1, 4), 3, sigma=("f", "g", "h"), permute=True)
        cases = []
        for _ in range(3):
            iota = {f: rng.choice(dst.sigma) for f in alg.sigma}
            phi = {a: rng.choice(dst.elements) for a in alg.elements}
            cases.append((dst, iota, phi))
        for H in list(subsets(alg.elements))[:3]:
            res = reduced_syntactic(alg, H)
            cases.append((res.algebra, {f: f for f in alg.sigma}, res.morphism))
            classes = {a: res.theta.class_name(a) for a in alg.elements}
            cases.append((res.reduced, res.iota, classes))
        for dst_alg, iota, phi in cases:
            got = verify_algebra_gmorphism(alg, dst_alg, iota, phi)
            assert got == ref_gmorphism(alg, dst_alg, iota, phi)
            outcomes.add(got[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize("factors", [1, 2, 3])
def test_product_machines_match_the_reference(factors):
    for seed in range(60):
        rng = random.Random(3000 + 10 * seed + factors)
        algs = [permuted_algebra()] if seed == 0 else []
        while len(algs) < factors:
            algs.append(draw_algebra(rng, rng.randint(1, 3), 3, permute=rng.random() < 0.5))
        kappa = {
            g: tuple(rng.choice(a.sigma) for a in algs) for g in ("p", "q")
        }
        prod = g_product(kappa, algs)
        for g, fs in kappa.items():
            machines = [a.ops[f] for f, a in zip(fs, algs)]
            # equal machines have equal state tuples, so the discovery order is checked too
            assert prod.ops[g] == ref_tuple_product(machines, prod.elements)
        assert prod.elements == tuple(cartesian(*(a.elements for a in algs)))


def test_definite_chain_and_verdicts_match_the_reference(monkeypatch):
    table = SymbolTable(("f", "g"), ("x", "y"))
    recs = []
    for seed in range(120):
        rng = random.Random(4000 + seed)
        n, s = [(2, 2), (2, 3), (4, 2), (4, 3), (6, 2)][seed % 5]
        alg = draw_algebra(rng, n, s, permute=seed % 2 == 1)
        valuation = {x: rng.choice(alg.elements) for x in table.leaves}
        finals = frozenset(a for a in alg.elements if rng.random() < 0.5)
        recs.append(trim(Recognizer(alg, table, valuation, finals)))
    perm = permuted_algebra()
    recs.append(Recognizer(perm, SymbolTable(("f",), ("x",)), {"x": "b"}, {"a"}))
    monkeypatch.setattr(helpers, "walked_definite_chain", ref_definite_chain)
    refuted = 0
    for rec in recs:
        srec = syntactic_of(rec)[1]
        names = srec.algebra.elements
        theta, table = _refine(rec.algebra, rec.finals.__contains__, rec.valuation.values())
        levels, outcome = varieties._definite_chain(_class_algebra(rec.algebra, theta, table))
        got = [{(names[a], names[b]) for a, row in enumerate(lv) for b in range(len(lv)) if row >> b & 1}
               for lv in levels[1:]]
        for min_levels in (0, 3):
            ref_levels, ref_outcome = ref_definite_chain(srec, min_levels)
            want = [set(lv) for lv in ref_levels[1:]]
            # past a stable level the loop repeats it; the bitsets stop there
            assert outcome == ref_outcome and want[:len(got)] == got
            assert all(lv == got[-1] for lv in want[len(got):])
        verdicts = [decide_definite(rec, k) for k in (None, 1, 2, 3)]
        assert verdicts == [ref_decide_definite(rec, k, srec) for k in (None, 1, 2, 3)]
        refuted += sum(not v.holds for v in verdicts)
    assert refuted > 50
