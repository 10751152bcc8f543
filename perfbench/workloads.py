"""The three workloads: seeded inputs, the op that runs each, and its check.

Every input carries its answer from the way it was made.  Sizes are
stratified (fixed classes with fixed counts); the seed draws the contents
inside each class and the order of the ops, so two seeds cost about the
same and the metrics of different seeds can be compared.

Each builder returns a ``Population``.  An op's ``run`` takes no argument
and looks its ``uta`` functions up at call time, so a tracer that rebinds
them sees the call; its ``check`` raises ``checks.Mismatch`` or returns the
number of tree nodes it verified.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import (
    Mismatch,
    all_tree_texts,
    build_tree,
    check_membership_differs,
    check_same_key,
    expect,
    order_key,
    proper_cycle,
    stated_depth,
    syntactic_classes,
    text_nodes,
    tree_nodes,
    tree_text,
    value,
)


@dataclass
class Op:
    kind: str
    layer: str
    size: str
    run: Callable[[], object]
    check: Callable[[object], int]


@dataclass
class Population:
    ops: list
    digest: str
    notes: list = field(default_factory=list)


def spread(ops, rng) -> list:
    """The ops in a seeded order that spaces each (kind, size) group evenly
    over the pass, so that any prefix of a pass holds every group in about
    its share."""
    groups: dict = {}
    for op in ops:
        groups.setdefault((op.kind, op.size), []).append(op)
    keyed = []
    for key in sorted(groups):
        group = groups[key]
        rng.shuffle(group)
        offset = rng.random()
        keyed.extend(((i + offset) / len(group), op) for i, op in enumerate(group))
    keyed.sort(key=lambda pair: pair[0])
    return [op for _, op in keyed]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# corpus: `uta recognize` on seeded term files

XML_FILES = 80
BOOL_FILES = 40
FILE_NODES = 2500
FANS = 5
FAN_RANGE = (10_000, 100_000)
# Deep, yet within what the recursive tree functions handle at the default
# recursion limit: they fail somewhere between 300 and 350 levels, and
# between 200 and 250 under the tracer, whose wrappers add frames.  A failing op would make the failure
# count, and every percentile, a matter of how far a run got.
CHAIN_DEPTHS = (100, 130, 160)

XML_DEFECTS = ("empty-invoice", "two-texts", "bare-line", "text-in-invoice", "wrong-root")


def _xml_doc(rng):
    """A document for the xmldoc schema and whether it is accepted.

    Accepted documents are ``invoices`` of one or more invoices of one or
    more ``line(text)``; three in ten get one injected defect.
    """
    invoices = [["line(text)"] * rng.randint(1, 15) for _ in range(rng.randint(1, 12))]
    defect = rng.choice(XML_DEFECTS) if rng.random() < 0.3 else None
    inv = rng.randrange(len(invoices))
    if defect == "two-texts":
        invoices[inv][rng.randrange(len(invoices[inv]))] = "line(text,text)"
    elif defect == "bare-line":
        invoices[inv][rng.randrange(len(invoices[inv]))] = "line"
    elif defect == "text-in-invoice":
        invoices[inv].insert(rng.randrange(len(invoices[inv]) + 1), "text")
    parts = ["invoice(" + ",".join(lines) + ")" for lines in invoices]
    if defect == "empty-invoice":
        parts[inv] = "invoice"
    if defect == "wrong-root":
        return parts[inv], False, text_nodes(parts[inv])
    text = "invoices(" + ",".join(parts) + ")"
    return text, defect is None, text_nodes(text)


def _bool_expr(rng, depth):
    """A variadic or/and expression over zero/one, its truth value and size."""
    if depth == 0 or rng.random() < 0.25:
        v = rng.random() < 0.5
        return ("one" if v else "zero"), v, 1
    name = "or" if rng.random() < 0.5 else "and"
    kids = [_bool_expr(rng, depth - 1) for _ in range(int(rng.random() * 6))]
    if not kids:
        return name, name == "and", 1
    values = [v for _, v, _ in kids]
    value = any(values) if name == "or" else all(values)
    return name + "(" + ",".join(k[0] for k in kids) + ")", value, 1 + sum(k[2] for k in kids)


def _fill(rng, make):
    """Documents from ``make`` until the file holds FILE_NODES nodes."""
    docs, nodes = [], 0
    while nodes < FILE_NODES:
        doc = make(rng)
        docs.append(doc)
        nodes += doc[2]
    return docs


def _fan(rng, n):
    """f(...) over n children, each x or a bare f; odd x count accepts."""
    bits = format(rng.getrandbits(n), f"0{n}b")
    return "f(" + ",".join(bits).replace("1", "x").replace("0", "f") + ")", bits.count("1") % 2 == 1, n + 1


def corpus(uta, seed: int, root: Path, workdir: Path) -> Population:
    rng = random.Random(seed)
    fixtures = root / "fixtures"
    spaces = {
        "xml": (fixtures / "xml.uta", "xmldoc"),
        "bool": (fixtures / "bool.uta", "booltrue"),
        "parity": (fixtures / "parity.uta", "parity-odd"),
    }
    ws = uta.workspace.load_workspace([str(p) for p, _ in spaces.values()])
    for path, rec in spaces.values():
        if rec not in ws.recognizers:
            raise SystemExit(f"{path} does not define recognizer {rec}")
    files = []
    for _ in range(XML_FILES):
        files.append(("xml", "xml", _fill(rng, _xml_doc)))
    for _ in range(BOOL_FILES):
        files.append(("bool", "bool", _fill(rng, lambda r: _bool_expr(r, 6))))
    lo, hi = FAN_RANGE
    for i in range(FANS):
        n = lo * (hi / lo) ** (i / (FANS - 1))
        n = int(n * rng.uniform(0.97, 1.03))
        files.append(("fan", "parity", [_fan(rng, n)]))
    for d in CHAIN_DEPTHS:
        files.append(("chain", "parity", [("f(" * d + "x" + ")" * d, True, d + 1)]))

    workdir.mkdir(parents=True, exist_ok=True)
    ops, digest_parts = [], [p.read_text(encoding="utf-8") for p, _ in spaces.values()]
    for i, (kind, space, docs) in enumerate(files):
        path = workdir / f"{i:03d}-{kind}.txt"
        text = f"# {kind} file {i}\n" + "".join(t + "\n" for t, _, _ in docs)
        path.write_text(text, encoding="utf-8")
        digest_parts.append(text)
        ws_path, rec = spaces[space]
        argv = ["-w", str(ws_path), "recognize", "--rec", rec, str(path)]
        expected = "".join(("accept" if ok else "reject") + "\t" + t + "\n" for t, ok, _ in docs)
        code = 0 if all(ok for _, ok, _ in docs) else 1
        nodes = sum(n for _, _, n in docs)
        ops.append(Op(f"corpus.{kind}", "cli", kind, _cli_run(uta, argv), _cli_check(expected, code, nodes)))
    total = sum(n for _, _, docs in files for _, _, n in docs)
    return Population(spread(ops, rng), _digest(digest_parts), [f"{len(files)} term files, {total} nodes"])


def _cli_run(uta, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = uta.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _cli_check(expected: str, expected_code: int, nodes: int):
    def check(result):
        code, out, err = result
        if out != expected:
            got, want = out.splitlines(), expected.splitlines()
            i = next((j for j, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            raise Mismatch(f"line {i + 1} of the output differs; {len(got)} lines for {len(want)}")
        expect(code == expected_code, f"exit code {code}, verdicts say {expected_code}: {err.strip()}")
        return nodes

    return check


# ---------------------------------------------------------------------------
# decide: variety deciders and syntactic algebras on seeded recognizers

# Carrier size x states per machine.  Past four states the random classes
# exceed the per-op limit now and then; that region is covered by SLOW_CASES.
RANDOM_CLASSES = [(2, 2), (2, 3), (2, 4), (4, 2), (4, 3), (4, 4), (6, 2), (6, 3), (8, 2), (8, 3)]
PER_CLASS = 11
RANDOM_BOUNDS = (4, 3)
DECIDE_KINDS = ("def", "ap", "rdef", "gdef", "loc", "pwt", "syntactic", "reduced")
PROBE_KINDS = ("rdef", "gdef", "loc", "pwt")
FIXTURE_BOUNDS = (5, 3)
# Fixture probes also run at HEAVY_BOUNDS: those that take 0.04 to 0.5 s per
# call before any speed-up.  The others take over 1 s there (booltrue pwt,
# xmldoc loc), and at (7, 3) most take from 1 s to over 40 s.  Being
# deterministic, these ops put the tail percentile among ops whose cost no
# seed changes.
HEAVY_BOUNDS = (6, 3)
HEAVY_PROBES = {"rootf": PROBE_KINDS, "booltrue": ("rdef", "gdef", "loc"), "xmldoc": ("rdef", "gdef", "pwt")}
# random_algebra draws (generator seed, elements, states) at 6 elements and up
# to 5 states whose def, ap and syntactic take 0.1 to 0.5 s each before any
# speed-up.  Draws of this class run from 1 ms to over 15 s; the slowest
# would time out, so a failure count would depend on the run.
SLOW_CASES = ((33, 6, 5), (41, 6, 5))
SLOW_KINDS = ("def", "ap", "syntactic")

# Answers for the fixture recognizers: (holds, parameter) for def and ap,
# holds for a probe at the given bounds, and (element classes, operator
# classes) of the reduced syntactic algebra.
FIXTURE_ANSWERS = {
    "parity-odd": {"def": (False, None), "ap": (False, None), "classes": (2, 1),
                   ("rdef", (5, 3)): False, ("gdef", (5, 3)): False,
                   ("loc", (5, 3)): False, ("pwt", (5, 3)): False},
    "rootf": {"def": (True, 1), "ap": (True, 1), "classes": (2, 2),
              ("rdef", (5, 3)): False, ("gdef", (5, 3)): True,
              ("loc", (5, 3)): True, ("pwt", (5, 3)): False,
              # A refutation within (5, 3) lies within (6, 3) too, and rootf's
              # gdef holds within (7, 3), so within (6, 3).
              ("rdef", (6, 3)): False, ("gdef", (6, 3)): True, ("pwt", (6, 3)): False},
    "booltrue": {"def": (False, None), "ap": (True, 1), "classes": (2, 2),
                 ("rdef", (5, 3)): False, ("gdef", (5, 3)): False,
                 ("loc", (5, 3)): True, ("pwt", (5, 3)): True,
                 ("rdef", (6, 3)): False, ("gdef", (6, 3)): False},
    "xmldoc": {"def": (True, 4), "ap": (True, 2), "classes": (5, 3),
               ("rdef", (5, 3)): False, ("gdef", (5, 3)): False,
               ("loc", (5, 3)): True, ("pwt", (5, 3)): False,
               ("rdef", (6, 3)): False, ("gdef", (6, 3)): False, ("pwt", (6, 3)): False},
}


def random_recognizer(uta, rng, n: int, max_states: int):
    """The random_algebra family: n carrier elements, operators f and g with
    1..max_states states each, leaves x and y, random finals."""
    elements = tuple(str(i) for i in range(n))
    ops = {}
    for f in ("f", "g"):
        k = rng.randint(1, max_states)
        states = tuple(f"s{i}" for i in range(k))
        delta = {(q, a): states[rng.randrange(k)] for q in states for a in elements}
        out = {q: elements[rng.randrange(n)] for q in states}
        ops[f] = uta.horizon.MooreMachine(states, elements, states[0], delta, out)
    alg = uta.algebra.RegularAlgebra(elements, ("f", "g"), ops)
    table = uta.trees.SymbolTable(("f", "g"), ("x", "y"))
    valuation = {x: rng.choice(elements) for x in table.leaves}
    finals = frozenset(a for a in elements if rng.random() < 0.5)
    return uta.recognizer.Recognizer(alg, table, valuation, finals)


def _recognizer_text(rec) -> str:
    """A canonical description of a recognizer, for the input digest."""
    alg = rec.algebra
    parts = [repr(alg.elements), repr(rec.table), repr(sorted(rec.valuation.items())), repr(sorted(rec.finals))]
    for f in alg.sigma:
        m = alg.ops[f]
        parts.append(f"{f}:{m.states}:{m.start}:{sorted(m.delta.items())}:{sorted(m.out.items())}")
    return "\n".join(parts)


def _probe_kind(uta, name):
    t = uta.trees
    return {
        "rdef": t.ReverseDefinite(2),
        "gdef": t.GenDefinite(1, 2),
        "loc": t.LocTestable(2),
        "pwt": t.PwTestable(2),
    }[name]


class _Referee:
    """Oracle answers for one recognizer, computed once and kept."""

    def __init__(self, uta, rec):
        self.uta = uta
        self.rec = rec
        self._memo = {}

    def memo(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def variety_ok(self, kind, bounds):
        o = self.uta.oracle
        return self.memo(
            ("variety", repr(kind), bounds),
            lambda: o.brute_variety_check(
                self.rec, kind, o.BruteUniverse(tuple(self.uta.trees.enumerate_trees(self.rec.table, *bounds)), ())
            )[0],
        )

    def universe(self):
        return self.memo("universe", lambda: self.uta.oracle.make_universe(self.rec.table, (4, 2), (3, 2)))

    def brute_classes(self):
        return self.memo(
            "classes", lambda: self.uta.oracle.brute_syntactic_partition(self.rec, self.universe()).block_count
        )

    def members(self):
        member = self.uta.recognizer.membership
        return self.memo("members", lambda: [member(self.rec, t) for t in self.universe().trees])

    def syntactic_order(self):
        """Carrier order of uta's syntactic algebra, to read translations."""
        return self.memo("order", lambda: self.uta.recognizer.syntactic_of(self.rec)[1].algebra.elements)

    def classes(self) -> dict:
        return self.memo("congruence", lambda: syntactic_classes(self.rec))


def _decide_op(uta, rec, kind: str, bounds, known, size):
    v = uta.varieties
    t = uta.trees
    referee = _Referee(uta, rec)
    if kind == "def":
        run = lambda: uta.varieties.decide_variety(rec, t.Definite(None))  # noqa: E731
    elif kind == "ap":
        run = lambda: uta.varieties.decide_variety(rec, v.Aperiodic())  # noqa: E731
    elif kind == "syntactic":
        run = lambda: uta.recognizer.syntactic_of(rec)  # noqa: E731
    elif kind == "reduced":

        def run():
            trimmed = uta.recognizer.trim(rec)
            return uta.syntactic.reduced_syntactic(trimmed.algebra, trimmed.finals)

    else:
        probe = _probe_kind(uta, kind)
        run = lambda: uta.varieties.decide_variety(rec, probe, bounds)  # noqa: E731

    def check(result):
        if kind == "def":
            expect(result.method == "exact", f"def verdict by {result.method}")
            if known is not None:
                expect((result.holds, result.parameter) == known["def"], f"def {result.to_json()}")
            if result.holds:
                expect(referee.variety_ok(t.Definite(result.parameter), (4, 2)), "oracle refutes Def")
                return 0
            pair = result.counterexample
            depth = stated_depth(result.detail)
            expect(depth is not None, f"no depth stated: {result.detail!r}")
            check_membership_differs(uta, rec, pair)
            check_same_key(uta, pair, t.Definite(depth))
            return tree_nodes(pair[0]) + tree_nodes(pair[1])
        if kind == "ap":
            expect(result.method == "exact", f"ap verdict by {result.method}")
            if known is not None:
                expect((result.holds, result.parameter) == known["ap"], f"ap {result.to_json()}")
            if not result.holds:
                expect(
                    proper_cycle(result.counterexample.table, referee.syntactic_order()),
                    "ap witness translation has no proper cycle",
                )
            return 0
        if kind in ("syntactic", "reduced"):
            if kind == "syntactic":
                res, srec = result
                classes = res.theta.block_count
                member = uta.recognizer.membership
                got = [member(srec, u) for u in referee.universe().trees]
                expect(got == referee.members(), "syntactic recognizer changes the language")
            else:
                classes = result.theta.block_count
                expect(len(result.reduced.elements) == classes, "reduced carrier is not the class count")
                if known is not None:
                    expect((classes, result.sigma.block_count) == known["classes"], "reduced class counts")
            if known is not None:
                expect(classes == known["classes"][0], f"{classes} syntactic classes")
            expect(classes == len(set(referee.classes().values())), f"{classes} syntactic classes")
            expect(classes >= referee.brute_classes(), "fewer classes than the oracle separates")
            return 0
        probe = _probe_kind(uta, kind)
        expect(tuple(result.bounds) == tuple(bounds), f"probe ran at {result.bounds}")
        if known is not None and (kind, tuple(bounds)) in known:
            expect(result.holds == known[(kind, tuple(bounds))], f"{kind} {result.to_json()}")
        if result.holds:
            expect(result.method == "bounded", f"probe yes by {result.method}")
            expect(referee.variety_ok(probe, tuple(bounds)), f"oracle refutes {kind} within bounds")
            return 0
        pair = result.counterexample
        check_same_key(uta, pair, probe)
        classes = referee.classes()
        expect(
            classes[value(rec, pair[0])] != classes[value(rec, pair[1])],
            f"refutation pair {tree_text(pair[0])} / {tree_text(pair[1])} is syntactically equal",
        )
        return tree_nodes(pair[0]) + tree_nodes(pair[1])

    layer = "syntactic" if kind == "reduced" else "recognizer" if kind == "syntactic" else "varieties"
    return Op(f"decide.{kind}", layer, size, run, check)


def _sweep(decisions) -> Op:
    """One op of every decide kind, each on a fresh random recognizer of the
    same class.  The draws are independent, so a sweep's cost varies far
    less than one decision's, which keeps the latency percentiles of
    different seeds comparable."""

    def run():
        return [d.run() for d in decisions]

    def check(results):
        nodes = 0
        for d, result in zip(decisions, results):
            try:
                nodes += d.check(result)
            except Mismatch as e:
                raise Mismatch(f"{d.kind}: {e}") from None
        return nodes

    return Op("decide.sweep", "varieties", decisions[0].size, run, check)


def decide(uta, seed: int, root: Path, workdir: Path) -> Population:
    rng = random.Random(seed)
    ops, recs = [], []
    for n, s in RANDOM_CLASSES:
        for _ in range(PER_CLASS):
            sweep = []
            for kind in DECIDE_KINDS:
                rec = random_recognizer(uta, rng, n, s)
                recs.append(rec)
                sweep.append(_decide_op(uta, rec, kind, RANDOM_BOUNDS, None, f"{n}x{s}"))
            ops.append(_sweep(sweep))
    for gen_seed, n, s in SLOW_CASES:
        rec = random_recognizer(uta, random.Random(gen_seed), n, s)
        recs.append(rec)
        ops.extend(_decide_op(uta, rec, kind, RANDOM_BOUNDS, None, f"slow-{n}x{s}") for kind in SLOW_KINDS)
    fixtures = root / "fixtures"
    ws = uta.workspace.load_workspace(
        [str(fixtures / f) for f in ("parity.uta", "root.uta", "bool.uta", "xml.uta")]
    )
    for name, known in FIXTURE_ANSWERS.items():
        rec = ws.recognizers[name]
        recs.append(rec)
        for kind in DECIDE_KINDS:
            if kind not in PROBE_KINDS:
                ops.append(_decide_op(uta, rec, kind, None, known, f"fixture-{name}"))
                continue
            for bounds in (FIXTURE_BOUNDS, HEAVY_BOUNDS):
                if bounds == HEAVY_BOUNDS and kind not in HEAVY_PROBES.get(name, ()):
                    continue
                ops.append(_decide_op(uta, rec, kind, bounds, known, f"fixture-{name}-{bounds[0]}x{bounds[1]}"))
    digest = _digest(_recognizer_text(rec) for rec in recs)
    return Population(spread(ops, rng), digest, [f"{len(recs)} recognizers, {len(ops)} ops"])


# ---------------------------------------------------------------------------
# products: equivalence, finiteness, emptiness on product constructions

COUNTER_SIZES = range(2, 8)
# equivalent takes 0.2 to 0.4 s at s = 4; from s = 5 on it takes from 0.8 s
# to over 20 s, past the per-op limit.
EQUIV_SIZES = range(2, 5)
# The one-node class is large so that the tail percentile falls among the
# eight alike is_finite ops of the two-node class (each 15 to 25 ms before
# any speed-up), not in the sparse stretch between counter sizes, where
# neighbouring ops differ by a quarter.
FINITE_CLASSES = {1: 35, 2: 8, 3: 4}
OPERATORS, LEAVES = ("f",), ("x",)


def products(uta, seed: int, root: Path, workdir: Path) -> Population:
    rng = random.Random(seed)
    r = uta.recognizer
    table = uta.trees.SymbolTable(OPERATORS, LEAVES)
    by_size = all_tree_texts(OPERATORS, LEAVES, max(COUNTER_SIZES) + 1)
    ordered = [t for s in sorted(by_size) for t in by_size[s]]
    tree = {}

    def as_tree(text):
        if text not in tree:
            tree[text] = build_tree(uta, text, LEAVES)
        return tree[text]

    at_least = {s: r.size_at_least_recognizer(table, s) for s in range(1, max(COUNTER_SIZES) + 2)}
    twin = {s: r.size_at_least_recognizer(table, s) for s in COUNTER_SIZES}
    below = {s: r.complement(at_least[s]) for s in at_least}

    def smallest(texts):
        return min(texts, key=order_key) if texts else None

    ops = []

    def add(kind, layer, size, run, check):
        ops.append(Op(f"products.{kind}", layer, size, run, check))

    for s in COUNTER_SIZES:
        size = f"s={s}"
        first_of_size = by_size[s][0]
        if s in EQUIV_SIZES:
            add("equiv", "recognizer", size, _equiv_run(uta, at_least[s], twin[s]),
                _equiv_check(uta, at_least[s], twin[s], None))
            add("equiv", "recognizer", size, _equiv_run(uta, at_least[s], at_least[s + 1]),
                _equiv_check(uta, at_least[s], at_least[s + 1], first_of_size))
        add("finite", "recognizer", size, lambda b=below[s]: uta.recognizer.is_finite(b),
            _finite_check(uta, below[s], [t for t in ordered if order_key(t)[0] < s]))
        add("finite", "recognizer", size, lambda a=at_least[s]: uta.recognizer.is_finite(a),
            _finite_check(uta, at_least[s], None))
        add("nil", "varieties", size, lambda a=at_least[s]: uta.varieties.decide_nil(a), _nil_check)
        add("nil", "varieties", size, lambda b=below[s]: uta.varieties.decide_nil(b), _nil_check)
        add("inter", "recognizer", size, _pair_run(uta, "intersect", at_least[s], below[s + 1]),
            _pair_check(uta, at_least[s], below[s + 1], all, first_of_size))
        add("inter", "recognizer", size, _pair_run(uta, "intersect", at_least[s + 1], below[s]),
            _pair_check(uta, at_least[s + 1], below[s], all, None))
        add("union", "recognizer", size, _pair_run(uta, "union", below[s], at_least[s]),
            _pair_check(uta, below[s], at_least[s], any, ordered[0]))

    # One member of size m and, from m = 2 on, one smaller member.  Each
    # class cycles through its possible languages in a seeded order, so
    # every language of a class appears about equally often: the seed
    # orders them and pairs them, the class fixes what the operations cost.
    languages = []
    for m, count in FINITE_CLASSES.items():
        smaller = [t for t in ordered if order_key(t)[0] < m] or [None]
        possible = [sorted({big, small} - {None}, key=order_key) for big in by_size[m] for small in smaller]
        rng.shuffle(possible)
        languages.extend((m, possible[k % len(possible)]) for k in range(count))

    built = {}
    for i, (m, members) in enumerate(languages):
        trees = [as_tree(t) for t in members]
        built[i] = uta.varieties.nilpotent_recognizer_for_finite(trees, table)
    for i, (m, members) in enumerate(languages):
        size = f"m={m}"
        rec = built[i]
        trees = [as_tree(t) for t in members]
        add("list", "varieties", size,
            lambda trees=trees: uta.recognizer.is_finite(uta.varieties.nilpotent_recognizer_for_finite(trees, table)),
            _finite_check(uta, rec, members))
        add("nil", "varieties", size, lambda rec=rec: uta.varieties.decide_nil(rec), _nil_check)
        big = [t for t in members if order_key(t)[0] >= m]
        add("inter", "recognizer", size, _pair_run(uta, "intersect", rec, at_least[m]),
            _pair_check(uta, rec, at_least[m], all, smallest(big)))
        add("finite", "recognizer", size, lambda rec=rec: uta.recognizer.is_finite(uta.recognizer.complement(rec)),
            _finite_check(uta, r.complement(rec), None))
        same = [k for k, (m2, _) in enumerate(languages) if m2 == m]
        j = same[(same.index(i) + 1) % len(same)]
        other = languages[j][1]
        add("inter", "recognizer", size, _pair_run(uta, "intersect", rec, built[j]),
            _pair_check(uta, rec, built[j], all, smallest(set(members) & set(other))))
        add("union", "recognizer", size, _pair_run(uta, "union", rec, built[j]),
            _pair_check(uta, rec, built[j], any, smallest(set(members) | set(other))))
        if m <= 2:
            # Every other language of two members gets an unequal variant: a
            # seeded coin would change how many of the slow equal-language
            # checks a population holds.
            variant = members[:-1] if len(members) > 1 and i % 2 else members[::-1]
            vrec = uta.varieties.nilpotent_recognizer_for_finite([as_tree(t) for t in variant], table)
            diff = smallest(set(members) ^ set(variant))
            add("equiv", "recognizer", size, _equiv_run(uta, rec, vrec), _equiv_check(uta, rec, vrec, diff))
    ops = spread(ops, rng)
    digest = _digest([repr(languages), repr(list(COUNTER_SIZES)), repr(list(EQUIV_SIZES))])
    return Population(ops, digest, [f"{len(languages)} finite languages, {len(ops)} ops"])


def _equiv_run(uta, a, b):
    return lambda: uta.recognizer.equivalent(a, b)


def _equiv_check(uta, a, b, diff):
    """diff: the smallest tree in exactly one language, None if equal."""

    def check(result):
        equal, cex = result
        expect(equal == (diff is None), f"equivalent says {equal}")
        if equal:
            expect(cex is None, "a counterexample for equal languages")
            return 0
        expect(tree_text(cex) == diff, f"counterexample {tree_text(cex)}, smallest is {diff}")
        member = uta.recognizer.membership
        expect(member(a, cex) != member(b, cex), "counterexample in both or neither")
        return tree_nodes(cex)

    return check


def _pair_run(uta, how, a, b):
    def run():
        rec = getattr(uta.recognizer, how)(a, b)
        if uta.recognizer.is_empty(rec):
            return True, None
        return False, uta.recognizer.min_member(rec)

    return run


def _pair_check(uta, a, b, combine, smallest):
    """smallest: the (size, rendering)-least member of the combination."""

    def check(result):
        empty, witness = result
        expect(empty == (smallest is None), f"is_empty says {empty}")
        if empty:
            return 0
        expect(tree_text(witness) == smallest, f"min_member {tree_text(witness)}, expected {smallest}")
        member = uta.recognizer.membership
        expect(combine([member(a, witness), member(b, witness)]), "min_member is not a member")
        return tree_nodes(witness)

    return check


def _finite_check(uta, rec, members):
    """members: the exact member list in (size, rendering) order, or None
    for an infinite language."""

    def check(result):
        if members is None:
            expect(hasattr(result, "witness"), f"{type(result).__name__} for an infinite language")
            expect(uta.recognizer.membership(rec, result.witness), "pumping witness is not a member")
            return tree_nodes(result.witness)
        expect(hasattr(result, "members"), f"{type(result).__name__} for a finite language")
        got = [tree_text(t) for t in result.members]
        expect(got == list(members), f"{len(got)} members listed, {len(members)} expected")
        return sum(tree_nodes(t) for t in result.members)

    return check


def _nil_check(result):
    expect(result.holds and result.method == "exact", f"nil {result.to_json()}")
    return 0


WORKLOADS = {"corpus": corpus, "decide": decide, "products": products}
