"""The syntactic congruence by partition refinement, checked three ways:
against the translation-monoid profiles it replaced, against the
brute-force oracle, and by an explicit proof of coarseness on 100-element
algebras that never lists the translation monoid."""

import random
import time
from collections import deque
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from uta import (
    Partition,
    Recognizer,
    RegularAlgebra,
    decide_aperiodic,
    eval_of,
    is_congruence,
    membership,
    plug,
    run_word,
    syntactic_congruence,
    syntactic_of,
    translations,
)
from uta.algebra import _refine
from uta.horizon import reachable_with_witnesses
from uta.oracle import BruteUniverse, brute_syntactic_partition, make_universe
from uta.varieties import VarietyVerdict, _context_of_translation, _separating_context

from helpers import (
    least_value_trees,
    random_algebra,
    random_machine,
    random_recognizer,
    random_table,
    subsets,
)


# ---------------------------------------------------------------------------
# The monoid scans that the refinement and the pair search replaced


def monoid_profile_congruence(tm, subset) -> Partition:
    """Group elements by their membership profile under every translation."""
    H = frozenset(subset)
    return Partition.from_key(
        tm.elements, lambda a: tuple(tm.apply(tr, a) in H for tr in tm.members)
    )


def monoid_separating_context(srec, a, b, value_trees):
    """The context of the first translation of the monoid splitting a and b."""
    tm = translations(srec.algebra)
    for tr in tm.members:
        if (tm.apply(tr, a) in srec.finals) != (tm.apply(tr, b) in srec.finals):
            return _context_of_translation(tr.provenance, value_trees)
    return None


def monoid_aperiodic(rec) -> VarietyVerdict:
    """Aperiodicity from the fully listed monoid, powers taken by compose."""
    _res, srec = syntactic_of(rec)
    tm = translations(srec.algebra)
    ia = 0
    for tr in tm.members:
        prev, n = tm.identity(), 0
        seen = {prev.table}
        while True:
            cur = tm.compose(prev, tr)
            if cur.table == prev.table:
                break
            if cur.table in seen:
                return VarietyVerdict(
                    "Ap",
                    False,
                    "exact",
                    counterexample=tr,
                    detail="translation with a proper cycle",
                )
            seen.add(cur.table)
            prev, n = cur, n + 1
        ia = max(ia, n)
    return VarietyVerdict("Ap", True, "exact", parameter=ia)


def test_refinement_matches_the_monoid_scans():
    """400 seeded untrimmed algebras: equal partitions for every subset;
    every separating context splits its pair by membership and is the one
    the monoid scan gives; the lazy aperiodicity walk gives the verdict and
    counterexample of the full scan."""
    rng = random.Random(131)
    pairs = refuted = 0
    for _ in range(400):
        table = random_table(rng)
        alg = random_algebra(rng, table.operators, max_elements=4, max_states=3)
        tm = translations(alg)
        for H in subsets(alg.elements):
            assert syntactic_congruence(alg, H) == monoid_profile_congruence(tm, H)
        valuation = {x: rng.choice(alg.elements) for x in table.leaves}
        finals = frozenset(a for a in alg.elements if rng.random() < 0.5)
        rec = Recognizer(alg, table, valuation, finals)
        _res, srec = syntactic_of(rec)
        value_trees = least_value_trees(srec)
        for a, b in combinations(srec.algebra.elements, 2):
            p = _separating_context(srec.algebra, srec.finals, a, b, value_trees)
            assert p == monoid_separating_context(srec, a, b, value_trees)
            assert membership(rec, plug(p, value_trees[a])) != membership(
                rec, plug(p, value_trees[b])
            )
            pairs += 1
        verdict = decide_aperiodic(rec)
        assert verdict == monoid_aperiodic(rec)
        refuted += not verdict.holds
    assert pairs >= 200 and refuted >= 20


# ---------------------------------------------------------------------------
# The oracle


@lru_cache(maxsize=8)
def _universe(table):
    return make_universe(table, (3, 2), (5, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_syntactic_partition_equals_the_oracle(seed):
    """The syntactic_of partition of small trees equals the oracle's context
    profiles.  Some classes are split only by contexts past the enumerated
    bound, so the oracle also gets the library's separating contexts: they
    can only split more, so a wrong merge or a context that fails to
    separate both show as a mismatch."""
    rec = random_recognizer(random.Random(seed))
    uni = _universe(rec.table)
    _res, srec = syntactic_of(rec)
    computed = Partition.from_key(uni.trees, lambda t: eval_of(srec, t))
    value_trees = least_value_trees(srec)
    values = [eval_of(srec, b[0]) for b in computed.blocks]
    extra = tuple(
        _separating_context(srec.algebra, srec.finals, a, b, value_trees) for a, b in combinations(values, 2)
    )
    brute = brute_syntactic_partition(rec, BruteUniverse(uni.trees, uni.contexts + extra))
    assert computed.blocks == brute.blocks


# ---------------------------------------------------------------------------
# Scale: a proof of coarseness without the monoid


def separation_chains(alg: RegularAlgebra, H: frozenset) -> dict:
    """For each ordered pair of elements some translation splits relative
    to H, one chain of elementary translations (f, u, v) that leads the
    pair to a pair split by H.

    Backward breadth-first search over element pairs and pairs of states of
    one machine: an element pair is split if H splits it or if, for some
    reachable q of some f, the states it leads q to are split; a state pair
    is split if its outputs are, or if some letter leads it to a split
    state pair.  Each pair keeps the reason it was found by, which points
    to a pair found before it, so following reasons terminates.
    """
    elements = alg.elements
    reach = {f: reachable_with_witnesses(alg.ops[f]) for f in alg.sigma}
    preds: dict = {}
    for f in alg.sigma:
        m, (states, _witness) = alg.ops[f], reach[f]
        for q in states:
            row = [m.delta[(q, a)] for a in elements]
            for x, p in zip(elements, row):
                for y, p2 in zip(elements, row):
                    preds.setdefault(("s", f, p, p2), []).append((("e", x, y), q))
        for p in states:
            for p2 in states:
                node = ("s", f, p, p2)
                preds.setdefault(("e", m.out[p], m.out[p2]), []).append((node, None))
                for c in elements:
                    nxt = ("s", f, m.delta[(p, c)], m.delta[(p2, c)])
                    preds.setdefault(nxt, []).append((node, c))
    reason: dict = {}
    queue = deque()
    for x in elements:
        for y in elements:
            if (x in H) != (y in H):
                reason[("e", x, y)] = None
                queue.append(("e", x, y))
    while queue:
        node = queue.popleft()
        for src, label in preds.get(node, ()):
            if src not in reason:
                reason[src] = (node, label)
                queue.append(src)
    chains = {}
    for x in elements:
        for y in elements:
            node = ("e", x, y)
            if node not in reason:
                continue
            chain = []
            while reason[node] is not None:
                snode, q = reason[node]
                f, v = snode[1], []
                while True:
                    nxt, c = reason[snode]
                    if c is None:
                        break
                    v.append(c)
                    snode = nxt
                chain.append((f, reach[f][1][q], tuple(v)))
                node = nxt
            chains[(x, y)] = chain
    return chains


def _scaled_algebra(rng, n=100, sigma=("f", "g"), max_states=5):
    elements = tuple(str(i) for i in range(n))
    ops = {f: random_machine(rng, elements, max_states) for f in sigma}
    return RegularAlgebra(elements, sigma, ops)


def test_coarsest_congruence_on_100_elements():
    """theta is a congruence, saturates H, and any two of its classes are
    split by an explicit chain of elementary translations, checked by
    applying their tables: so no saturating congruence is coarser."""
    t0 = time.time()
    rng = random.Random(137)
    classes = []
    for _ in range(5):
        alg = _scaled_algebra(rng)
        H = frozenset(a for a in alg.elements if rng.random() < 0.5)
        theta = syntactic_congruence(alg, H)
        ok, witness = is_congruence(alg, theta)
        assert ok, witness
        assert all(set(b) <= H or not set(b) & H for b in theta.blocks)
        chains = separation_chains(alg, H)
        pos = {a: i for i, a in enumerate(alg.elements)}
        tables: dict = {}
        for b1, b2 in combinations(theta.blocks, 2):
            x, y = b1[0], b2[0]
            for f, u, v in chains[(x, y)]:
                key = (f, u, v)
                if key not in tables:
                    m = alg.ops[f]
                    tables[key] = tuple(run_word(m, u + (a,) + v) for a in alg.elements)
                x, y = tables[key][pos[x]], tables[key][pos[y]]
            assert (x in H) != (y in H)
        classes.append(theta.block_count)
    assert max(classes) >= 10
    assert time.time() - t0 < 60.0


def test_partition_checks_and_the_refinement_s_theta():
    """A ``Partition`` made directly checks its blocks, one message per
    fault.  ``_refine`` builds theta unchecked, as its canonical blocks; on
    seeded draws that theta passes the checks and equals the partition
    ``Partition.from_key`` groups by class."""
    cases = [
        (("a", "a"), (("a",),), "universe has duplicate elements"),
        (("a",), (("a",), ()), "empty block"),
        (("a",), (("a", "b"),), "block element b outside universe"),
        (("a", "b"), (("a",), ("a", "b")), "element a occurs in two blocks"),
        (("a", "b"), (("b", "a"),), "block members not in universe order"),
        (("a", "b"), (("a",),), "blocks do not cover the universe"),
        (("a", "b"), (("b",), ("a",)), "blocks not in canonical order"),
    ]
    for universe, blocks, message in cases:
        with pytest.raises(ValueError) as err:
            Partition(universe, blocks)
        assert str(err.value) == message
    rng = random.Random(23)
    for _ in range(300):
        rec = random_recognizer(rng)
        theta, table = _refine(rec.algebra, rec.finals.__contains__, rec.valuation.values())
        assert theta == Partition(theta.universe, theta.blocks)
        assert theta == Partition.from_key(theta.universe, dict(zip(theta.universe, table[-1])).__getitem__)
