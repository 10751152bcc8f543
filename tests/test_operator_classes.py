"""Operator classes are read off the canonical quotient machines.

``reduced_syntactic``, ``m_operator`` and ``g_quotient`` group operators by
equal quotient machines.  The pairwise search they replaced (an
``is_congruence`` check, then ``_pair_violation`` on every pair of
operators, then ``g_quotient`` over a second refinement) is kept here as a
reference; on seeded algebras both must give the same results and the
same refusal witnesses.

``uta ra`` reads the classes off the algebra of ``syntactic_of``; the trim
then ``reduced_syntactic`` it ran before is its reference.
"""

import random
from pathlib import Path

import pytest

from uta import (
    GCongruence,
    MooreMachine,
    NotACongruenceError,
    Partition,
    RegularAlgebra,
    is_congruence,
    m_operator,
    machine_disagreement,
    quotient_algebra,
    reduced_syntactic,
    syntactic_algebra,
    syntactic_of,
    trim,
)
from uta import algebra, cli, recognizer, syntactic
from uta.algebra import _operator_classes, _pair_violation, _related_pairs

from helpers import random_machine, random_recognizer, subsets, untrimmed_recognizer

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# The pairwise search the quotient machines replaced


def ref_m_operator(alg, theta):
    ok, witness = is_congruence(alg, theta)
    if not ok:
        raise NotACongruenceError("theta is not a congruence", witness)
    pairs = _related_pairs(alg.elements, theta)
    block = {f: f for f in alg.sigma}
    for i, f in enumerate(alg.sigma):
        for g in alg.sigma[i + 1 :]:
            if _pair_violation(alg.ops[f], alg.ops[g], pairs, theta) is None:
                a, b = block[f], block[g]
                block = {h: a if c == b else c for h, c in block.items()}
    return Partition.from_key(alg.sigma, block.__getitem__)


def ref_g_quotient(alg, gcong):
    sigma_part, theta = gcong.sigma_part, gcong.theta_part
    base = quotient_algebra(alg, theta)
    sigma = tuple(sigma_part.class_name(b[0]) for b in sigma_part.blocks)
    ops = {}
    for block in sigma_part.blocks:
        first = base.ops[block[0]]
        for g in block[1:]:
            w = machine_disagreement(first, base.ops[g])
            if w is not None:
                raise NotACongruenceError(
                    f"operators {block[0]} and {g} disagree on class word", (block[0], g, w)
                )
        ops[sigma_part.class_name(block[0])] = first
    return RegularAlgebra(base.elements, sigma, ops)


def ref_reduced_syntactic(alg, subset):
    res = syntactic_algebra(alg, subset)
    sigma = ref_m_operator(alg, res.theta)
    res.sigma = sigma
    res.reduced = ref_g_quotient(alg, GCongruence(sigma, res.theta))
    res.iota = {f: sigma.class_name(f) for f in alg.sigma}
    return res


# ---------------------------------------------------------------------------
# Seeded draws


def renamed_copy(rng, m):
    """The same word function with its states renamed and listed in a
    shuffled order, so only the quotient can make the two machines equal."""
    order = list(m.states)
    rng.shuffle(order)
    name = {q: f"r{i}" for i, q in enumerate(order)}
    return MooreMachine(
        tuple(name[q] for q in order),
        m.alphabet,
        name[m.start],
        {(name[q], a): name[q2] for (q, a), q2 in m.delta.items()},
        {name[q]: v for q, v in m.out.items()},
    )


def draw_algebra(rng, copy):
    """1-3 operators over up to 5 elements, machines of up to 4 states;
    with ``copy`` one machine also serves a second operator."""
    elements = tuple(str(i) for i in range(rng.randint(1, 5)))
    sigma = ("f", "g", "h")[: rng.randint(2 if copy else 1, 3)]
    ops = {f: random_machine(rng, elements, 4) for f in sigma}
    if copy:
        src, dst = rng.sample(sigma, 2)
        ops[dst] = renamed_copy(rng, ops[src]) if rng.random() < 0.5 else ops[src]
    return RegularAlgebra(elements, sigma, ops)


def draw_partition(rng, xs):
    k = rng.randint(1, len(xs))
    return Partition.from_key(xs, lambda a: rng.randrange(k))


def test_reduced_syntactic_matches_the_pairwise_search():
    merged = cases = refused = 0
    for seed in range(1000):
        rng = random.Random(12000 + seed)
        alg = draw_algebra(rng, copy=seed % 2 == 1)
        hs = list(subsets(alg.elements))
        for H in rng.sample(hs, min(3, len(hs))):
            got, want = reduced_syntactic(alg, H), ref_reduced_syntactic(alg, H)
            for field in ("theta", "sigma", "iota", "algebra", "morphism", "finals_image", "reduced"):
                assert getattr(got, field) == getattr(want, field), (seed, H, field)
            merged += got.sigma.block_count < len(alg.sigma)
            cases += 1
        theta = draw_partition(rng, alg.elements)
        try:
            want = ref_m_operator(alg, theta)
        except NotACongruenceError as err:
            refused += 1
            with pytest.raises(NotACongruenceError) as got:
                m_operator(alg, theta)
            assert got.value.witness == err.witness
            assert str(got.value) == f"theta is not a congruence for {err.witness[0]}"
        else:
            assert m_operator(alg, theta) == want
    assert cases > 2500 and merged > 500 and refused > 200


def test_reduced_syntactic_proves_nothing_twice(monkeypatch):
    def refuse(*args):
        raise AssertionError("the syntactic quotient already settles this")

    for mod, names in (
        (algebra, ("is_congruence", "_pair_violation", "quotient_algebra")),
        (cli, ("is_congruence", "quotient_algebra")),
    ):
        for name in names:
            monkeypatch.setattr(mod, name, refuse)
    refine = algebra._refine
    calls = []

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(algebra, "_refine", counted)
    monkeypatch.setattr(syntactic, "_refine", counted)
    rng = random.Random(5)
    for seed in range(40):
        alg = draw_algebra(rng, copy=seed % 2 == 0)
        H = frozenset(a for a in alg.elements if rng.random() < 0.5)
        calls.clear()
        res = reduced_syntactic(alg, H)
        assert len(calls) == 1
        assert res.reduced.sigma == tuple(res.sigma.class_name(b[0]) for b in res.sigma.blocks)


def test_ra_classes_match_the_trimmed_path():
    """Element count, operator blocks and class names of ``syntactic_of``
    equal those of trim then ``reduced_syntactic``, on seeded recognizers,
    trimmed and not."""
    rng = random.Random(6)
    merged = 0
    for i in range(400):
        rec = untrimmed_recognizer(rng, rng.randint(1, 8), 5) if i % 2 else random_recognizer(rng)
        res, _ = syntactic_of(rec)
        sigma = _operator_classes(res.algebra)
        trec = trim(rec)
        want = reduced_syntactic(trec.algebra, trec.finals)
        assert res.theta.block_count == want.theta.block_count
        assert sigma == want.sigma
        assert [sigma.class_name(b[0]) for b in sigma.blocks] == [
            want.sigma.class_name(b[0]) for b in want.sigma.blocks
        ]
        merged += sigma.block_count < len(rec.algebra.sigma)
    assert merged > 50


def test_ra_closes_once(monkeypatch, capsys):
    """``uta ra`` makes one closure on each fixture recognizer, and no trim."""

    def refuse(*args):
        raise AssertionError("ra needs no trim")

    monkeypatch.setattr(cli, "trim", refuse)
    inner, calls = algebra._closure, []

    def count(*args):
        calls.append(args)
        return inner(*args)

    for mod in (algebra, recognizer):
        monkeypatch.setattr(mod, "_closure", count)
    for workspace, rec in (("parity.uta", "parity-odd"), ("root.uta", "rootf"),
                           ("bool.uta", "booltrue"), ("xml.uta", "xmldoc")):
        calls.clear()
        assert cli.main(["-w", str(FIXTURES / workspace), "ra", "--rec", rec]) == 0
        assert len(calls) == 1
    capsys.readouterr()
