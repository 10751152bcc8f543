"""Machines read off the rows of one closure, checked against the
constructions that walked each machine again after the closure (kept in
``helpers``): ``trim`` against ``restrict_machine``, the pair products and
``g_product`` against ``tuple_product_machine``.  Both must give the same
recognizers and algebras as data: carrier order, each machine's state
order, transitions and outputs, valuation and finals.

On the same draws and fixtures, every object the library builds with its
unchecked constructors is refereed by ``assert_rebuilds``: made again
through the checked constructor, it must come out equal."""

import operator
import random
from pathlib import Path

from uta import (
    Finite,
    complement,
    context_quotient,
    derived_algebra,
    enumerate_contexts,
    g_product,
    identity_gmorphism,
    inverse_gmorphism_image,
    is_finite,
    min_member,
    nilpotent_recognizer_for_finite,
    reduced_syntactic,
    syntactic_of,
    theta_class_recognizer,
    trim,
    trivial_algebra,
)
from uta.recognizer import _least_trees, _pair_recognizer, size_at_least_recognizer
from uta.workspace import load_workspace

from helpers import (
    assert_rebuilds,
    machine_data,
    recognizer_data,
    untrimmed_recognizer,
    walked_g_product,
    walked_pair_recognizer,
    walked_trim,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ACCEPTS = (operator.and_, operator.or_, operator.ne)


def algebra_data(alg):
    return alg.elements, alg.sigma, [machine_data(alg.ops[f]) for f in alg.sigma]


def assert_products_agree(kappa, algebras):
    got = g_product(kappa, algebras)
    assert algebra_data(got) == algebra_data(walked_g_product(kappa, algebras))
    assert_rebuilds(got)


def assert_pairs_agree(rec, other):
    for accept in ACCEPTS:
        got = _pair_recognizer(rec, other, accept)
        assert recognizer_data(got) == recognizer_data(walked_pair_recognizer(rec, other, accept))
        assert_rebuilds(got)


def assert_built_objects_rebuild(rec):
    """The complement, the ``syntactic_of`` and ``reduced_syntactic``
    quotients, each element's least tree, and ``is_finite``'s members with
    their finite-language recognizer, or its pumped witness."""
    assert_rebuilds(complement(rec))
    assert_rebuilds(syntactic_of(rec)[1])
    red = reduced_syntactic(rec.algebra, rec.finals)
    assert_rebuilds(red.algebra)
    assert_rebuilds(red.reduced)
    for _, _, t in _least_trees(rec).values():
        assert_rebuilds(t)
    verdict = is_finite(rec)
    if isinstance(verdict, Finite):
        for t in verdict.members:
            assert_rebuilds(t)
        assert_rebuilds(nilpotent_recognizer_for_finite(verdict.members, rec.table))
    else:
        assert_rebuilds(verdict.witness)


def test_rows_match_the_walked_referees_on_seeded_draws():
    """1,000 seeded untrimmed draws, each with a second draw over its
    table: trim, the three pair products and a product of one, two or
    three factors."""
    rng = random.Random(20261021)
    cut = 0
    for i in range(1000):
        rec = untrimmed_recognizer(rng, rng.randint(1, 8), 5)
        other = untrimmed_recognizer(rng, rng.randint(1, 5), 4, rec.table)
        got = trim(rec)
        assert recognizer_data(got) == recognizer_data(walked_trim(rec))
        assert_rebuilds(got)
        cut += got is not rec
        assert_pairs_agree(rec, other)
        assert_built_objects_rebuild(rec)
        factors = [rec.algebra, other.algebra, rec.algebra][: 1 + i % 3]
        sigma = rec.algebra.sigma
        kappa = {f"h{j}": tuple(rng.choice(sigma) for _ in factors) for j in range(rng.randint(1, 2))}
        assert_products_agree(kappa, factors)
    assert 200 < cut < 800


def test_rows_match_the_walked_referees_on_the_fixtures():
    """Each fixture recognizer trimmed, paired with itself and with its
    complement, and every fixture algebra's product with each other one."""
    ws = load_workspace([str(FIXTURES / f) for f in ("parity.uta", "root.uta", "bool.uta", "xml.uta")])
    for rec in ws.recognizers.values():
        got = trim(rec)
        assert recognizer_data(got) == recognizer_data(walked_trim(rec))
        assert_rebuilds(got)
        for other in (rec, complement(rec)):
            assert_pairs_agree(rec, other)
        assert_built_objects_rebuild(rec)
        table = rec.table
        member = min_member(rec)
        if member is not None:
            assert_rebuilds(theta_class_recognizer(rec, member))
        for p in enumerate_contexts(table, 3, 2):
            assert_rebuilds(p)
            assert_rebuilds(context_quotient(rec, p))
        assert_rebuilds(inverse_gmorphism_image(rec, identity_gmorphism(table)))
        for s in (1, 2, 5):
            assert_rebuilds(size_at_least_recognizer(table, s))
        assert_rebuilds(trivial_algebra(table.operators))
        assert_rebuilds(derived_algebra({f"{f}2": f for f in table.operators}, rec.algebra))
    algebras = list(ws.algebras.values())
    for a1 in algebras:
        for a2 in algebras:
            kappa = {f"{f}_{g}": (f, g) for f in a1.sigma for g in a2.sigma}
            assert_products_agree(kappa, [a1, a2])
