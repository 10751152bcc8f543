"""The saturation probe over the refinement's rows, checked against the
probe that ran on the syntactic recognizer (``helpers.ref_saturation_probe``):
equal verdicts as data on seeded untrimmed draws, refutations at the edges
of the chunks it works in, and no quotient built."""

import random
from pathlib import Path

from uta import (
    GenDefinite,
    LocTestable,
    PwTestable,
    ReverseDefinite,
    SymbolTable,
    algebra,
    horizon,
    nilpotent_recognizer_for_finite,
    recognizer,
    saturation_probe,
    size,
    syntactic_of,
    varieties,
)
from uta.varieties import _FIRST_CHUNK, _MAX_CHUNK, _PROBE_BANKS, _probe_bank
from uta.workspace import load_workspace

from helpers import ref_saturation_probe, untrimmed_recognizer

ROOT = Path(__file__).resolve().parent.parent
KINDS = (ReverseDefinite(2), GenDefinite(1, 2), LocTestable(2), PwTestable(2))
BOUNDS = ((3, 2), (4, 3), (5, 3))


def tree_id(bank, t):
    return bank.index[(t.label, t.is_leaf, tuple(tree_id(bank, c) for c in t.children))]


def chunk_starts(bank, size):
    """The positions in the bucket of size at which the probe starts a
    chunk: chunk sizes double from the first over the buckets in order."""
    width, starts = _FIRST_CHUNK, []
    for s in range(1, size + 1):
        n, m = 0, len(bank.tree_ids(s))
        while n < m:
            if s == size:
                starts.append(n)
            n, width = n + min(width, m - n), min(2 * width, _MAX_CHUNK)
    return starts


def test_probe_matches_the_quotient_probe_on_seeded_draws():
    """1,000 seeded untrimmed draws (unreachable elements and states
    included), each kind at each bound: the same verdict, method, bounds
    and counterexample trees.  The draws stay alive together, so that
    equal tables share their banks."""
    _PROBE_BANKS.clear()
    rng = random.Random(2210)
    draws = [untrimmed_recognizer(rng, rng.randint(2, 5), rng.randint(1, 4)) for _ in range(1000)]
    answers = {True: 0, False: 0}
    for rec in draws:
        srec = syntactic_of(rec)[1]
        for bounds in BOUNDS:
            for kind in KINDS:
                got = saturation_probe(rec, kind, bounds)
                assert got == ref_saturation_probe(rec, kind, bounds, srec), (rec, kind, bounds)
                answers[got.holds] += 1
    assert min(answers.values()) > 2000


def singleton_refutation(table, arity, size_, offset, kind):
    """The probe on the language of the one tree at ``offset`` in its bucket,
    checked against the referee: it refutes on that tree.  Returns the
    chunk starts and the length of that bucket."""
    bank = _probe_bank(table, arity)[0]
    ids = bank.tree_ids(size_)
    rec = nilpotent_recognizer_for_finite([bank.tree(ids[offset])], table)
    got = saturation_probe(rec, kind, (size_, arity))
    assert got == ref_saturation_probe(rec, kind, (size_, arity))
    assert not got.holds and tree_id(bank, got.counterexample[1]) == ids[offset]
    return chunk_starts(bank, size_), len(ids)


def test_refutations_at_the_edges_of_a_chunk():
    """A refutation on the first tree of a chunk past a bucket's first, and
    one on the last tree of a bucket, at the end of a chunk that started
    in it; each as the referee finds it."""
    f_xy, fg_x, fg_xy = SymbolTable(("f",), ("x", "y")), SymbolTable(("f", "g"), ("x",)), SymbolTable(("f", "g"), ("x", "y"))
    for table, arity, s, offset in ((f_xy, 3, 6, 512), (fg_xy, 3, 5, 1536)):
        starts, _n = singleton_refutation(table, arity, s, offset, GenDefinite(1, 2))
        assert offset in starts[1:]
    for table, arity, s, offset in ((fg_x, 2, 5, 695), (f_xy, 3, 6, 1037)):
        starts, n = singleton_refutation(table, arity, s, offset, GenDefinite(1, 2))
        assert offset == n - 1 and len(starts) > 1


def test_probe_refines_once_and_builds_no_quotient(monkeypatch):
    """One refinement per probe; no quotient algebra, syntactic recognizer
    or machine is built."""
    refines, machines = [], []
    inner_refine, inner_init = algebra._refine, horizon.MooreMachine.__post_init__

    def refine(*args):
        refines.append(args)
        return inner_refine(*args)

    def init(self):
        machines.append(self)
        inner_init(self)

    def refuse(*args):
        raise AssertionError("no quotient")

    monkeypatch.setattr(varieties, "_refine", refine)
    monkeypatch.setattr(horizon.MooreMachine, "__post_init__", init)
    for mod, name in ((algebra, "_quotient"), (recognizer, "syntactic_of")):
        monkeypatch.setattr(mod, name, refuse)
    ws = load_workspace([str(ROOT / "fixtures" / "bool.uta"), str(ROOT / "tests" / "workspaces" / "untrimmed.uta")])
    for rec in ws.recognizers.values():
        for kind in KINDS:
            refines.clear(), machines.clear()
            saturation_probe(rec, kind, (5, 3))
            assert len(refines) == 1 and machines == []
