"""Machines read off the rows of one closure, checked against the
constructions that walked each machine again after the closure (kept in
``helpers``): ``trim`` against ``restrict_machine``, the pair products and
``g_product`` against ``tuple_product_machine``.  Both must give the same
recognizers and algebras as data: carrier order, each machine's state
order, transitions and outputs, valuation and finals."""

import operator
import random
from pathlib import Path

from uta import complement, g_product, trim
from uta.recognizer import _pair_recognizer
from uta.workspace import load_workspace

from helpers import (
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
    assert algebra_data(g_product(kappa, algebras)) == algebra_data(walked_g_product(kappa, algebras))


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
        cut += got is not rec
        for accept in ACCEPTS:
            want = walked_pair_recognizer(rec, other, accept)
            assert recognizer_data(_pair_recognizer(rec, other, accept)) == recognizer_data(want)
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
        assert recognizer_data(trim(rec)) == recognizer_data(walked_trim(rec))
        for other in (rec, complement(rec)):
            for accept in ACCEPTS:
                want = walked_pair_recognizer(rec, other, accept)
                assert recognizer_data(_pair_recognizer(rec, other, accept)) == recognizer_data(want)
    algebras = list(ws.algebras.values())
    for a1 in algebras:
        for a2 in algebras:
            kappa = {f"{f}_{g}": (f, g) for f in a1.sigma for g in a2.sigma}
            assert_products_agree(kappa, [a1, a2])
