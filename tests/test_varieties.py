import gc
import random
import weakref
from collections import deque
from pathlib import Path

import pytest

from uta import (
    HOLE,
    Aperiodic,
    Definite,
    GenDefinite,
    LocTestable,
    MooreMachine,
    Nilpotent,
    PwTestable,
    Recognizer,
    RegularAlgebra,
    ReverseDefinite,
    abstraction_key,
    complement,
    context_quotient,
    decide_aperiodic,
    decide_definite,
    decide_nil,
    decide_variety,
    enumerate_contexts,
    enumerate_trees,
    equivalent,
    eval_of,
    inverse_gmorphism_image,
    leaf,
    membership,
    nilpotent_recognizer_for_finite,
    op,
    parse_term,
    relabel_gmorphism,
    render,
    saturation_probe,
    size,
    syntactic_of,
    SymbolTable,
)
from uta.trees import TermError, TreeBank, subtrees
from uta.oracle import brute_variety_check, make_universe
from uta.recognizer import size_at_least_recognizer
from uta.horizon import run_word, state_records
from uta.varieties import _PROBE_BANKS, VarietyVerdict, _probe_bank, kind_name
from uta.workspace import load_workspace

from helpers import (
    PARITY_TABLE,
    all_trees_rec,
    contains_x,
    empty_rec,
    parity_algebra,
    parity_odd,
    random_recognizer,
    root_f,
    singleton_x3,
)


def test_decide_definite_examples():
    v = decide_definite(root_f())
    assert v.holds and v.parameter == 1 and v.method == "exact"
    v0 = decide_definite(all_trees_rec())
    assert v0.holds and v0.parameter == 0
    vp = decide_definite(parity_odd())
    assert not vp.holds and vp.method == "exact"
    s, t = vp.counterexample
    assert membership(parity_odd(), s) != membership(parity_odd(), t)


def test_decide_definite_at_k():
    v = decide_definite(root_f(), 1)
    assert v.holds and v.parameter == 1
    v0 = decide_definite(root_f(), 0)
    assert not v0.holds
    s, t = v0.counterexample
    assert membership(root_f(), s) != membership(root_f(), t)
    v5 = decide_definite(root_f(), 5)
    assert v5.holds and v5.parameter == 1  # least witnessing depth reported


def test_definite_counterexamples_share_their_key():
    rng = random.Random(73)
    for _ in range(20):
        rec = random_recognizer(rng)
        for k in (0, 1, 2, 3):
            v = decide_definite(rec, k)
            if not v.holds:
                s, t = v.counterexample
                assert abstraction_key(s, Definite(k)) == abstraction_key(
                    t, Definite(k)
                )
                assert membership(rec, s) != membership(rec, t)


def test_definite_hierarchy():
    rng = random.Random(79)
    for _ in range(20):
        rec = random_recognizer(rng)
        verdicts = [decide_definite(rec, k).holds for k in range(0, 5)]
        # once yes, always yes
        for a, b in zip(verdicts, verdicts[1:]):
            assert (not a) or b
        base = decide_definite(rec)
        if base.holds:
            assert verdicts[base.parameter] if base.parameter <= 4 else True
            if base.parameter > 0 and base.parameter <= 4:
                assert not verdicts[base.parameter - 1]
        else:
            assert not any(verdicts)


def test_decide_aperiodic_examples():
    v = decide_aperiodic(root_f())
    assert v.holds and v.parameter == 1
    va = decide_aperiodic(all_trees_rec())
    assert va.holds and va.parameter == 0
    vp = decide_aperiodic(parity_odd())
    assert not vp.holds


def _context_value_maps(rec, max_size):
    """hole-value maps of all contexts within the size bound"""
    from uta.recognizer import eval_context

    maps = {}
    for p in enumerate_contexts(rec.table, max_size, 3):
        key = tuple(
            eval_context(rec, p, a) for a in rec.algebra.elements
        )
        maps.setdefault(key, p)
    return maps


def test_aperiodicity_matches_context_iteration():
    # iterate q^n inside r for explicit small contexts
    # iterated contexts are simulated on value maps below
    from uta.recognizer import eval_context

    for rec, expect_ia in ((root_f(), 1), (parity_odd(), None)):
        pos = {a: i for i, a in enumerate(rec.algebra.elements)}
        maps = _context_value_maps(rec, 4)
        stable_n = None
        for n in (0, 1, 2, 3):
            ok_n = True
            for qkey in maps:
                powqn = list(rec.algebra.elements)
                for _ in range(n):
                    powqn = [qkey[pos[a]] for a in powqn]
                powqn1 = [qkey[pos[a]] for a in powqn]
                for rkey in maps:
                    for t0 in enumerate_trees(rec.table, 3, 3):
                        v = eval_of(rec, t0)
                        after_n = rkey[pos[powqn[pos[v]]]]
                        after_n1 = rkey[pos[powqn1[pos[v]]]]
                        if (after_n in rec.finals) != (after_n1 in rec.finals):
                            ok_n = False
            if ok_n:
                stable_n = n
                break
        verdict = decide_aperiodic(rec)
        if expect_ia is None:
            assert stable_n is None and not verdict.holds
        else:
            assert verdict.holds and stable_n == verdict.parameter == expect_ia


def test_aperiodic_cycle_witness():
    from uta import translations

    rng = random.Random(81)
    checked = 0
    for rec in [parity_odd()] + [random_recognizer(rng) for _ in range(15)]:
        v = decide_aperiodic(rec)
        if v.holds:
            continue
        _res, srec = syntactic_of(rec)
        tm = translations(srec.algebra)
        tr = v.counterexample
        # the offending map never reaches a fixpoint within the carrier bound
        power = tm.identity()
        for _ in range(len(srec.algebra.elements) + 1):
            nxt = tm.compose(power, tr)
            assert nxt.table != power.table
            power = nxt
        checked += 1
    assert checked >= 1


def test_degenerate_languages_decide_cleanly():
    for rec in (empty_rec(), all_trees_rec()):
        d = decide_definite(rec)
        assert d.holds and d.parameter == 0
        a = decide_aperiodic(rec)
        assert a.holds and a.parameter == 0
        assert decide_nil(rec).holds


def test_aperiodic_agrees_on_complement():
    rng = random.Random(83)
    for _ in range(15):
        rec = random_recognizer(rng)
        assert decide_aperiodic(rec).holds == decide_aperiodic(complement(rec)).holds


def test_decide_nil():
    assert decide_nil(singleton_x3()).holds
    assert decide_nil(all_trees_rec()).holds
    v = decide_nil(root_f())
    assert not v.holds
    w1, w2 = v.counterexample
    assert membership(root_f(), w1) and not membership(root_f(), w2)


def test_nilpotent_recognizer():
    t_x = parse_term("x", PARITY_TABLE)
    rec = nilpotent_recognizer_for_finite([t_x], PARITY_TABLE)
    assert membership(rec, t_x)
    assert not membership(rec, parse_term("f", PARITY_TABLE))
    got = [t for t in enumerate_trees(PARITY_TABLE, 5, 3) if membership(rec, t)]
    assert got == [t_x]

    empty = nilpotent_recognizer_for_finite([], PARITY_TABLE)
    assert len(empty.algebra.elements) == 1
    assert not any(membership(empty, t) for t in enumerate_trees(PARITY_TABLE, 4, 3))

    listed = [parse_term("f", PARITY_TABLE), parse_term("f(x)", PARITY_TABLE)]
    rec3 = nilpotent_recognizer_for_finite(listed, PARITY_TABLE)
    assert membership(rec3, listed[0]) and membership(rec3, listed[1])
    assert not membership(rec3, parse_term("f(f)", PARITY_TABLE))


def test_nilpotent_recognizer_absorbs_large_trees():
    listed = [parse_term("f(x)", PARITY_TABLE)]
    rec = nilpotent_recognizer_for_finite(listed, PARITY_TABLE)
    k = max(size(t) for t in listed) + 1
    for t in enumerate_trees(PARITY_TABLE, 6, 3):
        if size(t) >= k:
            assert eval_of(rec, t) == "⊥"


def enumerated_nilpotent_recognizer(member_trees, table):
    """Reference: the carrier is every tree below one past the largest
    member, plus ``⊥``; each machine rebuilds the tree under construction."""
    members = list({render(t): t for t in member_trees}.values())
    k = max((size(t) for t in members), default=0) + 1
    sink = "⊥"
    small = list(enumerate_trees(table, k - 1, max_arity=max(k, 1))) if k >= 2 else []
    by_render = {render(t): t for t in small}
    carrier = tuple(by_render) + (sink,)
    ops = {}
    for f in table.operators:
        states, queue = [()], deque([()])
        while queue:
            w = queue.popleft()
            used = sum(size(by_render[r]) for r in w)
            for r in by_render:
                if 1 + used + size(by_render[r]) <= k - 1:
                    states.append(w + (r,))
                    queue.append(w + (r,))
        state_set = set(states)
        delta = {("over", a): "over" for a in carrier}
        out = {"over": sink}
        for st in states:
            for a in carrier:
                w2 = st + (a,)
                delta[(st, a)] = w2 if w2 in state_set else "over"
            built = op(f, [by_render[r] for r in st])
            out[st] = render(built) if size(built) <= k - 1 else sink
        ops[f] = MooreMachine(tuple(states) + ("over",), carrier, (), delta, out)
    alg = RegularAlgebra(carrier, tuple(table.operators), ops)
    valuation = {x: (x if k >= 2 else sink) for x in table.leaves}
    return Recognizer(alg, table, valuation, frozenset(map(render, members)))


def seeded_member_sets(table, max_size, count, seed):
    rng = random.Random(seed)
    pool = list(enumerate_trees(table, max_size, 3))
    return [rng.sample(pool, rng.randint(1, 3)) for _ in range(count)]


TWO_BY_TWO = SymbolTable(("f", "g"), ("x", "y"))
MEMBER_SETS = [
    pytest.param(table, members, id=f"{name}-{i}")
    for name, table, max_size, seed in (("fx", PARITY_TABLE, 4, 11), ("fgxy", TWO_BY_TWO, 3, 12))
    for i, members in enumerate(seeded_member_sets(table, max_size, 10, seed))
]


@pytest.mark.parametrize("table, members", MEMBER_SETS)
def test_listed_language_against_enumeration(table, members):
    rec = nilpotent_recognizer_for_finite(members, table)
    listed = {render(t) for t in members}
    parts = {render(s) for t in members for s in subtrees(t)}
    assert len(rec.algebra.elements) == len(parts) + 1
    bound = max((size(t) for t in members), default=0) + 2
    for t in enumerate_trees(table, bound, bound):
        assert membership(rec, t) == (render(t) in listed)
        assert eval_of(rec, t) == (render(t) if render(t) in parts else "⊥")
    ref = enumerated_nilpotent_recognizer(members, table)
    assert equivalent(rec, ref) == (True, None)
    # the carrier keeps the reference's names, in its order
    order = {a: i for i, a in enumerate(ref.algebra.elements)}
    assert sorted(rec.algebra.elements, key=order.get) == list(rec.algebra.elements)


def test_listed_language_rejects_foreign_members():
    with pytest.raises(TermError, match="unknown leaf symbol 'y'"):
        nilpotent_recognizer_for_finite([parse_term("f(y)", TWO_BY_TWO)], PARITY_TABLE)
    with pytest.raises(TermError, match="hole not allowed"):
        nilpotent_recognizer_for_finite([op("f", [leaf(HOLE)])], PARITY_TABLE)


def test_listed_language_of_a_deep_member():
    t = parse_term("x", PARITY_TABLE)
    for _ in range(300):
        t = op("f", [t])
    rec = nilpotent_recognizer_for_finite([t], PARITY_TABLE)
    assert len(rec.algebra.elements) == 302
    assert membership(rec, t) and not membership(rec, t.children[0])
    assert not membership(rec, op("f", [t]))


def test_probe_confirms_genuine_members():
    # containment of the leaf x depends only on the single-node subtree set
    v = saturation_probe(contains_x(), ReverseDefinite(1), (6, 3))
    assert v.holds and v.method == "bounded"
    # the root language depends only on the depth-1 top segment
    v2 = saturation_probe(root_f(), GenDefinite(0, 1), (6, 3))
    assert v2.holds
    assert v2.to_json()["h"] == 0 and v2.to_json()["k"] == 1


def test_saturation_probe():
    v = saturation_probe(parity_odd(), ReverseDefinite(1), (6, 3))
    assert not v.holds and v.method == "refutation"
    t0, t1 = v.counterexample
    assert abstraction_key(t0, ReverseDefinite(1)) == abstraction_key(
        t1, ReverseDefinite(1)
    )
    _res, srec = syntactic_of(parity_odd())
    assert eval_of(srec, t0) != eval_of(srec, t1)

    va = saturation_probe(all_trees_rec(), LocTestable(2), (6, 3))
    assert va.holds and va.method == "bounded"

    vx = saturation_probe(contains_x(), PwTestable(1), (6, 3))
    assert vx.holds and vx.method == "bounded"


def test_probe_refutations_monotone_in_bounds():
    v_small = saturation_probe(parity_odd(), LocTestable(2), (5, 3))
    v_large = saturation_probe(parity_odd(), LocTestable(2), (7, 3))
    assert not v_small.holds and not v_large.holds


def test_decide_variety_dispatch():
    assert decide_variety(root_f(), Definite(1)).holds
    assert not decide_variety(root_f(), Definite(0)).holds
    v = decide_variety(parity_odd(), LocTestable(2))
    assert not v.holds and v.method == "refutation"
    assert decide_variety(root_f(), Aperiodic()).holds
    assert decide_variety(singleton_x3(), Nilpotent()).holds
    assert decide_variety(contains_x(), PwTestable(1), bounds=(6, 3)).holds
    assert not decide_variety(root_f(), Nilpotent()).holds
    with pytest.raises(ValueError):
        decide_variety(root_f(), "weird")


def test_exact_and_brute_agree():
    rng = random.Random(89)
    for _ in range(15):
        rec = random_recognizer(rng)
        for k in (0, 1, 2):
            v = decide_definite(rec, k)
            ms, ma = 5, 3
            if not v.holds:
                s, t = v.counterexample
                ms = max(ms, size(s), size(t))
                ma = max(
                    ma,
                    *(len(u.children) for u in _nodes(s)),
                    *(len(u.children) for u in _nodes(t)),
                )
            uni = make_universe(rec.table, (ms, ma), (1, 1))
            ok, _pair = brute_variety_check(rec, Definite(k), uni)
            assert ok == v.holds
            probe = saturation_probe(rec, Definite(k), (5, 3))
            assert not (v.holds and not probe.holds)


def _nodes(t):
    yield t
    for c in t.children:
        yield from _nodes(c)


def test_closure_preserves_exact_verdicts():
    # complement, context quotient, inverse image keep Def/Ap/Nil behavior
    fixtures = [root_f(), all_trees_rec(), parity_odd(), singleton_x3()]
    for rec in fixtures:
        d = decide_definite(rec)
        a = decide_aperiodic(rec)
        n = decide_nil(rec)
        dc = decide_definite(complement(rec))
        ac = decide_aperiodic(complement(rec))
        nc = decide_nil(complement(rec))
        assert d.holds == dc.holds and a.holds == ac.holds and n.holds == nc.holds
        p = parse_term(
            "f(@)" if "g" not in rec.table.operators else "f(@,x)",
            rec.table,
            allow_hole=True,
        )
        dq = decide_definite(context_quotient(rec, p))
        if d.holds:
            assert dq.holds
        aq = decide_aperiodic(context_quotient(rec, p))
        if a.holds:
            assert aq.holds
        nq = decide_nil(context_quotient(rec, p))
        if n.holds:
            assert nq.holds
        # inverse image under a relabeling from a fresh alphabet
        htab = SymbolTable(("h",), rec.table.leaves)
        m = relabel_gmorphism(htab, rec.table, {"h": rec.table.operators[0]})
        others = [decide_definite, decide_aperiodic, decide_nil]
        for dec, basev in zip(others, (d, a, n)):
            if basev.holds:
                assert dec(inverse_gmorphism_image(rec, m)).holds


def test_definite_chain_relations_wellformed():
    from uta.algebra import _class_algebra, _refine
    from uta.varieties import _definite_chain

    rng = random.Random(91)
    for _ in range(15):
        rec = random_recognizer(rng)
        theta, table = _refine(rec.algebra, rec.finals.__contains__, rec.valuation.values())
        V = range(theta.block_count)
        if len(V) <= 1:
            continue
        levels, outcome = _definite_chain(_class_algebra(rec.algebra, theta, table))
        sets = [{(a, b) for a in V for b in V if lv[a] >> b & 1} for lv in levels[1:]]
        for rel in sets:
            assert all((a, a) in rel for a in V)  # reflexive
            assert all((b, a) in rel for (a, b) in rel)  # symmetric
        for bigger, smaller in zip(sets, sets[1:]):
            assert smaller <= bigger  # shrinking chain
        kind, idx = outcome
        assert idx <= len(V) * len(V) + 1


def test_verdict_json_shapes():
    v = decide_definite(root_f())
    d = v.to_json()
    assert d == {"kind": "Def", "verdict": "yes", "method": "exact", "k": 1}
    vp = decide_variety(parity_odd(), ReverseDefinite(1), bounds=(5, 3))
    d2 = vp.to_json()
    assert d2["kind"] == "RDef" and d2["verdict"] == "no"
    assert d2["method"] == "refutation"
    assert "counterexample" in d2


# ---------------------------------------------------------------------------
# The bottom-up probe against the plain per-tree loop

PROBE_KINDS = (
    [Definite(k) for k in range(4)]
    + [ReverseDefinite(k) for k in (1, 2, 3)]
    + [GenDefinite(1, 2)]
    + [LocTestable(k) for k in (2, 3)]
    + [PwTestable(k) for k in (1, 2, 3)]
)
PROBE_BOUNDS = ((4, 3), (5, 2), (5, 3))
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _reference_probe(rec, kind, bounds, memo):
    """The probe as a plain loop over Tree objects: group every enumerated
    tree by ``abstraction_key`` and compare ``eval_of`` values in each group.

    ``memo`` keeps what the calls share: the table's trees within the
    largest bounds, their keys per kind and the recognizer's values, each
    computed when first needed.  A key is kept as an int, one per distinct
    key of its table and kind, so a group lookup hashes no tree."""
    largest = max(PROBE_BOUNDS)
    trees = _memo(memo, rec.table, lambda: tuple(enumerate_trees(rec.table, *largest)))
    position = _memo(memo, (rec.table, "position"), lambda: {t: n for n, t in enumerate(trees)})
    within = _memo(memo, (rec.table, bounds), lambda: [position[t] for t in enumerate_trees(rec.table, *bounds)])
    keys, ids = _memo(memo, (rec.table, kind), lambda: ({}, {}))  # tree -> key id, key -> id
    values = _memo(memo, id(rec), dict)
    _res, srec = syntactic_of(rec)
    params = dict(bounds=bounds, parameter=getattr(kind, "k", None), low_parameter=getattr(kind, "h", None))
    groups: dict = {}
    for n in within:
        t = trees[n]
        key = _memo(keys, n, lambda: ids.setdefault(abstraction_key(t, kind), len(ids)))
        v = _memo(values, n, lambda: eval_of(srec, t))
        if key in groups:
            t0, v0 = groups[key]
            if v0 != v:
                return VarietyVerdict(kind_name(kind), False, "refutation", counterexample=(t0, t), **params)
        else:
            groups[key] = (t, v)
    return VarietyVerdict(kind_name(kind), True, "bounded", **params)


def _memo(memo, key, make):
    if key not in memo:
        memo[key] = make()
    return memo[key]


def test_probe_matches_the_per_tree_reference():
    rng = random.Random(97)
    recs = [random_recognizer(rng) for _ in range(40)]
    ws = load_workspace([str(FIXTURES / f) for f in ("parity.uta", "root.uta", "bool.uta", "xml.uta")])
    recs += list(ws.recognizers.values())
    memo: dict = {}
    refuted = 0
    for rec in recs:
        for bounds in PROBE_BOUNDS:
            for kind in PROBE_KINDS:
                got = saturation_probe(rec, kind, bounds)
                assert got == _reference_probe(rec, kind, bounds, memo), (rec.table, kind, bounds)
                refuted += not got.holds
    assert refuted > 100


# ---------------------------------------------------------------------------
# The probe's bank and key groups, shared across calls


def _probe_cases(count, seed):
    rng = random.Random(seed)
    return [random_recognizer(rng) for _ in range(count)]


def _one_class(rec):
    """Whether the language has one syntactic class: every tree or none is
    accepted, so a probe answers yes without walking its bank."""
    return len(syntactic_of(rec)[0].algebra.elements) == 1


def _agrees(rec, kind, bounds, memo):
    got = saturation_probe(rec, kind, bounds)
    assert got == _reference_probe(rec, kind, bounds, memo), (rec.table, kind, bounds)
    return got


def test_shared_probe_cold_and_warm():
    memo: dict = {}
    recs = [rec for rec in _probe_cases(40, 131) if not _one_class(rec)][:5]  # the first 5 draws have one class
    assert len(recs) == 5
    for rec in recs:
        for kind in PROBE_KINDS:
            _PROBE_BANKS.clear()
            cold = _agrees(rec, kind, (5, 3), memo)
            bank = _probe_bank(rec.table, 3)[0]
            assert saturation_probe(rec, kind, (5, 3)) == cold
            assert _probe_bank(rec.table, 3)[0] is bank and len(_PROBE_BANKS) == 1


def test_shared_probe_extended_past_an_early_refutation():
    """An early refutation keys only a prefix of the bank; a later probe
    on the same table replays that prefix into its groups, extends it
    past the refutation, and finds the conflicts that span the two."""
    memo: dict = {}
    recs = [rec for rec in _probe_cases(160, 137) if not _one_class(rec)]  # 46 walk the bank
    extended = 0
    for kind in PROBE_KINDS:
        for table in sorted({rec.table for rec in recs}, key=repr):
            same = [rec for rec in recs if rec.table == table]
            small = {id(rec): _reference_probe(rec, kind, (3, 3), memo).holds for rec in same}
            large = {id(rec): _reference_probe(rec, kind, (5, 3), memo).holds for rec in same}
            early = [rec for rec in same if not small[id(rec)]]
            late = [rec for rec in same if small[id(rec)] and not large[id(rec)]]
            yes = [rec for rec in same if large[id(rec)]]
            if not early or not late or not yes:
                continue
            _PROBE_BANKS.clear()
            assert not _agrees(early[0], kind, (3, 3), memo).holds
            bank, firsts_of = _probe_bank(table, 3)
            known = len(firsts_of[kind])
            assert not _agrees(late[0], kind, (5, 3), memo).holds
            assert len(firsts_of[kind]) > known
            assert _agrees(yes[0], kind, (5, 3), memo).holds
            assert len(firsts_of[kind]) == len(bank.label)
            for rec in early[:1] + late[:2]:
                _agrees(rec, kind, (5, 3), memo)
            extended += 1
    assert extended >= 10


def test_shared_probe_warmed_by_another_kind():
    memo: dict = {}
    recs = [rec for rec in _probe_cases(40, 139) if not _one_class(rec)][:4]
    assert len(recs) == 4
    for rec in recs:
        for warm, kind in zip(PROBE_KINDS, PROBE_KINDS[1:] + PROBE_KINDS[:1]):
            _PROBE_BANKS.clear()
            _agrees(rec, warm, (5, 3), memo)
            _agrees(rec, kind, (4, 3), memo)
            _agrees(rec, kind, (5, 3), memo)
            assert len(_PROBE_BANKS) == 1 and list(_PROBE_BANKS[rec.table]) == [3]


def test_shared_probe_keeps_every_table_it_interleaves():
    memo: dict = {}
    recs = _probe_cases(80, 149)
    by_table: dict = {}
    for rec in recs:
        by_table.setdefault(rec.table, []).append(rec)
    tables = sorted(by_table, key=lambda t: (len(t.operators), len(t.leaves)), reverse=True)[:3]
    assert len(tables) == 3
    _PROBE_BANKS.clear()
    banks: dict = {}
    for n in range(4):
        for kind in PROBE_KINDS[::2]:
            for table in (tables[0], tables[1], tables[0], tables[2]):
                rec = by_table[table][n % len(by_table[table])]
                _agrees(rec, kind, (5, 3) if n % 2 else (4, 3), memo)
                bank = _probe_bank(rec.table, 3)[0]
                assert banks.setdefault(table, bank) is bank
    assert len(_PROBE_BANKS) == 3 and len(banks) == 3


def test_probe_bank_is_released_with_its_table():
    table = SymbolTable(("f",), ("lone",))
    rec = Recognizer(parity_algebra(), table, {"lone": "1"}, frozenset({"1"}))
    assert saturation_probe(rec, ReverseDefinite(1), (4, 3)).holds is False
    bank = weakref.ref(_probe_bank(table, 3)[0])
    assert table in _PROBE_BANKS and bank() is not None
    del rec, table
    gc.collect()
    assert bank() is None and not any(t.leaves == ("lone",) for t in _PROBE_BANKS)


def test_prefix_states_give_the_machine_runs():
    """A tree's state, one transition from its prefix's, outputs what the
    machine of its label gives over its children's values."""
    rng = random.Random(151)
    for rec in [random_recognizer(rng) for _ in range(12)]:
        bank = TreeBank(rec.table, 3)
        ops = rec.algebra.ops
        states: list = []
        for i in bank.trees(5):
            label, kids = bank.label[i], bank.kids[i]
            if bank.is_leaf[i]:
                states.append((None, rec.valuation[label]))
                continue
            if kids:
                assert bank.prefix[i] == bank.index[(label, False, kids[:-1])] < i
                state = states[bank.prefix[i]][0][states[kids[-1]][1]]
            else:
                assert bank.prefix[i] is None
                state = state_records(ops[label])[ops[label].start]
            assert state[1] == run_word(ops[label], [states[c][1] for c in kids])
            states.append(state)


def test_dropped_renderings_are_made_again_for_a_larger_bound():
    rec = size_at_least_recognizer(PARITY_TABLE, 2)  # two classes: the probe walks the bank
    _PROBE_BANKS.clear()
    bank = _probe_bank(rec.table, 3)[0]
    for size in (4, 5, 6):
        assert saturation_probe(rec, PwTestable(2), (size, 3)).holds
        assert len(bank.text) == len(bank.label) - len(bank._tree_bucket(size))
    list(bank.trees(7))
    assert bank.text == [render(t) for t in enumerate_trees(rec.table, 7, 3)]


def test_one_class_languages_are_answered_without_the_bank():
    """A language of one syntactic class gets the verdicts that walking the
    bank and the translations gave it (a bounded yes with the bounds and
    parameters, ap yes at index 0), and no tree is enumerated; a bad kind
    is still refused."""
    memo: dict = {}
    for rec in (all_trees_rec(), empty_rec()):
        _PROBE_BANKS.clear()
        bank = _probe_bank(rec.table, 3)[0]
        for kind in PROBE_KINDS:
            got = _agrees(rec, kind, (5, 3), memo)
            assert got.holds and got.method == "bounded" and got.bounds == (5, 3)
        assert not bank.label and list(_PROBE_BANKS[rec.table]) == [3]
        _PROBE_BANKS.clear()
        assert saturation_probe(rec, ReverseDefinite(2), (4, 2)).holds and not _PROBE_BANKS
        assert decide_aperiodic(rec) == VarietyVerdict("Ap", True, "exact", parameter=0)
        for bad in (LocTestable(1), PwTestable(-1), Aperiodic()):
            with pytest.raises(ValueError):
                saturation_probe(rec, bad, (4, 3))
