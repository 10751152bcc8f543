"""Command-line front end.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict
(rejected term, inequivalent languages, "no" decisions), 2 for usage or
data errors.  All output is deterministic; ``--json`` switches decision
output to machine-readable JSON.  Set UTA_COLOR=0 to disable styling.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import (
    GCongruence,
    derived_algebra,
    describe_translation,
    g_product,
    is_congruence,
    is_g_congruence,
    kernel,
    quotient_algebra,
    translations,
    verify_algebra_gmorphism,
)
from .oracle import brute_syntactic_partition, brute_variety_check, make_universe
from .partition import Partition, element_label
from .recognizer import (
    Finite,
    Recognizer,
    complement,
    context_quotient,
    equivalent,
    intersect,
    inverse_gmorphism_image,
    is_empty,
    is_finite,
    min_member,
    syntactic_of,
    text_evaluator,
    theta_class_recognizer,
    trim,
    union,
)
from .syntactic import reduced_syntactic
from .trees import (
    Definite,
    GenDefinite,
    LocTestable,
    PwTestable,
    ReverseDefinite,
    check_bounds,
    enumerate_contexts,
    enumerate_trees,
    parse_term,
    pretty,
    render,
    tree_measures,
)
from .varieties import Aperiodic, Nilpotent, decide_variety
from .workspace import WorkspaceError, dump_algebra, dump_recognizer, load_workspace


class CliError(Exception):
    pass


def _color_enabled():
    return os.environ.get("UTA_COLOR", "1") != "0" and sys.stdout.isatty()


def _verdict_word(ok: bool) -> str:
    word = "yes" if ok else "no"
    if _color_enabled():
        return f"\033[32m{word}\033[0m" if ok else f"\033[31m{word}\033[0m"
    return word


def _need(ws_dict, kind, name):
    if name not in ws_dict:
        raise CliError(f"unknown {kind} {name!r}")
    return ws_dict[name]


def _get_rec(ws, args, attr="rec") -> Recognizer:
    return _need(ws.recognizers, "recognizer", getattr(args, attr))


def _parse_map(text, what):
    """Parse "a -> b, c -> d" mapping syntax used by several flags."""
    mapping = {}
    if not text:
        return mapping
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "->" not in piece:
            raise CliError(f"bad {what} entry {piece!r} (want 'a -> b')")
        a, b = (s.strip() for s in piece.split("->", 1))
        mapping[a] = b
    return mapping


def _parse_partition(text, universe, what) -> Partition:
    """Blocks separated by '|', members by ',': "0,1|2"."""
    blocks = []
    for chunk in text.split("|"):
        names = [s.strip() for s in chunk.split(",") if s.strip()]
        blocks.append(names)
    named = {element_label(x): x for x in universe}
    try:
        blocks = [[named[n] for n in b] for b in blocks]
    except KeyError as e:
        raise CliError(f"{what}: unknown element {e.args[0]!r}") from None
    covered = {x for b in blocks for x in b}
    missing = [element_label(x) for x in universe if x not in covered]
    if missing:
        raise CliError(f"{what}: element {missing[0]} not covered")
    return Partition.from_blocks(universe, blocks)


def _kind_from_args(args):
    kind = args.kind
    if kind == "def":
        return Definite(args.k)
    if kind == "rdef":
        if args.k is None:
            raise CliError("--kind rdef needs --k")
        return ReverseDefinite(args.k)
    if kind == "gdef":
        if args.k is None or args.h is None:
            raise CliError("--kind gdef needs --h and --k")
        return GenDefinite(args.h, args.k)
    if kind == "loc":
        if args.k is None:
            raise CliError("--kind loc needs --k (>= 2)")
        return LocTestable(args.k)
    if kind == "pwt":
        if args.k is None:
            raise CliError("--kind pwt needs --k")
        return PwTestable(args.k)
    if kind == "ap":
        return Aperiodic()
    if kind == "nil":
        return Nilpotent()
    raise CliError(f"unknown kind {kind!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uta", description="Unranked tree algebra toolkit"
    )
    ap.add_argument(
        "-w",
        "--workspace",
        action="append",
        default=[],
        metavar="FILE",
        help="workspace file (repeatable)",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and canonicalize a term")
    p.add_argument("--symbols", required=True)
    p.add_argument("--context", action="store_true")
    p.add_argument("--pretty", action="store_true", help="indented tree view")
    p.add_argument("term")

    p = sub.add_parser("eval", help="evaluate a term in a recognizer")
    p.add_argument("--rec", required=True)
    p.add_argument("term")

    p = sub.add_parser("recognize", help="accept/reject terms, one per line")
    p.add_argument("--rec", required=True)
    p.add_argument("file", help="term file, or - for stdin")

    p = sub.add_parser("trim", help="restrict to the reachable carrier")
    p.add_argument("--rec", required=True)
    p.add_argument("--print", dest="print_", action="store_true")

    p = sub.add_parser("bool", help="boolean combinations")
    p.add_argument("operation", choices=["not", "and", "or"])
    p.add_argument("--rec", required=True)
    p.add_argument("--rec2")
    p.add_argument("--print", dest="print_", action="store_true")

    p = sub.add_parser("quotient-ctx", help="language quotient by a context")
    p.add_argument("--rec", required=True)
    p.add_argument("context")
    p.add_argument("--print", dest="print_", action="store_true")

    p = sub.add_parser("inv-image", help="inverse image under a tree morphism")
    p.add_argument("--rec", required=True)
    p.add_argument("--gmorphism", required=True)
    p.add_argument("--print", dest="print_", action="store_true")

    p = sub.add_parser("sa", help="syntactic algebra of a recognizer")
    p.add_argument("--rec", required=True)
    p.add_argument("--print", dest="print_", action="store_true")

    p = sub.add_parser("ra", help="reduced syntactic algebra")
    p.add_argument("--rec", required=True)

    p = sub.add_parser("translations", help="translation monoid of an algebra")
    p.add_argument("--alg", required=True)

    p = sub.add_parser("congruence-check", help="is a partition a congruence?")
    p.add_argument("--alg", required=True)
    p.add_argument("--classes", required=True, help='e.g. "0,1|2"')
    p.add_argument("--sigma", help="operator blocks for a paired check")

    p = sub.add_parser("quotient", help="quotient algebra by a congruence")
    p.add_argument("--alg", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--sigma")

    p = sub.add_parser("product", help="product algebra via an operator map")
    p.add_argument("--alg", required=True)
    p.add_argument("--alg2", required=True)
    p.add_argument(
        "--kappa", required=True, help='e.g. "f -> f f, g -> g f" (one per factor)'
    )

    p = sub.add_parser("derived", help="operator-renamed algebra")
    p.add_argument("--alg", required=True)
    p.add_argument("--iota", required=True, help='e.g. "h -> f"')

    p = sub.add_parser("check-gmorphism", help="verify an algebra morphism")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--iota", required=True)
    p.add_argument("--phi", required=True)

    p = sub.add_parser("empty", help="is the language empty?")
    p.add_argument("--rec", required=True)

    p = sub.add_parser("finite", help="is the language finite?")
    p.add_argument("--rec", required=True)

    p = sub.add_parser("equiv", help="are two languages equal?")
    p.add_argument("--rec", required=True)
    p.add_argument("--rec2", required=True)

    p = sub.add_parser("class-of", help="recognizer of a term's syntactic class")
    p.add_argument("--rec", required=True)
    p.add_argument("term")
    p.add_argument("--print", dest="print_", action="store_true")

    p = sub.add_parser("decide", help="decide a structural language class")
    p.add_argument("--rec", required=True)
    p.add_argument(
        "--kind", required=True, choices=["def", "rdef", "gdef", "loc", "pwt", "ap", "nil"]
    )
    p.add_argument("--k", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--max-size", type=int, default=7)
    p.add_argument("--max-arity", type=int, default=3)

    p = sub.add_parser("enumerate", help="list terms or contexts within bounds")
    p.add_argument("--symbols", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--max-arity", type=int)
    p.add_argument("--contexts", action="store_true")

    p = sub.add_parser("oracle", help="brute-force cross-checks (debugging)")
    p.add_argument("mode", choices=["sa-partition", "variety"])
    p.add_argument("--rec", required=True)
    p.add_argument("--kind", choices=["def", "rdef", "gdef", "loc", "pwt"])
    p.add_argument("--k", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--max-arity", type=int, default=3)

    return ap


def _cmd_parse(ws, args):
    table = _need(ws.symbols, "symbols", args.symbols)
    t = parse_term(args.term, table, allow_hole=args.context)
    hg, rt, sz = tree_measures(t)
    if args.json:
        print(
            json.dumps(
                {"term": render(t), "height": hg, "root": rt, "size": sz},
                sort_keys=True,
            )
        )
    else:
        print(pretty(t) if args.pretty else render(t))
        print(f"height {hg}, root {rt}, size {sz}")
    return 0


def _cmd_eval(ws, args):
    rec = _get_rec(ws, args)
    value, _ = text_evaluator(rec)(args.term)
    ok = value in rec.finals
    if args.json:
        print(
            json.dumps(
                {"value": element_label(value), "accepted": ok}, sort_keys=True
            )
        )
    else:
        print(element_label(value))
        print("accept" if ok else "reject")
    return 0 if ok else 1


def _cmd_recognize(ws, args):
    rec = _get_rec(ws, args)
    if args.file == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    evaluate = text_evaluator(rec)
    all_ok = True
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        value, term = evaluate(line)
        ok = value in rec.finals
        all_ok = all_ok and ok
        print(("accept" if ok else "reject") + "\t" + term)
    return 0 if all_ok else 1


def _cmd_trim(ws, args):
    rec = _get_rec(ws, args)
    trec = trim(rec)
    print(
        f"carrier {len(rec.algebra.elements)} -> {len(trec.algebra.elements)}: "
        + " ".join(element_label(a) for a in trec.algebra.elements)
    )
    if args.print_:
        print(dump_recognizer(trec, f"{args.rec}_trim"))
    return 0


def _cmd_bool(ws, args):
    rec = _get_rec(ws, args)
    if args.operation == "not":
        out = complement(rec)
        name = f"not_{args.rec}"
    else:
        if not args.rec2:
            raise CliError(f"bool {args.operation} needs --rec2")
        rec2 = _get_rec(ws, args, "rec2")
        out = intersect(rec, rec2) if args.operation == "and" else union(rec, rec2)
        name = f"{args.rec}_{args.operation}_{args.rec2}"
    print(f"result carrier: {len(out.algebra.elements)} elements")
    if args.print_:
        print(dump_recognizer(out, name))
    return 0


def _cmd_quotient_ctx(ws, args):
    rec = _get_rec(ws, args)
    p = parse_term(args.context, rec.table, allow_hole=True)
    out = context_quotient(rec, p)
    print(
        "finals: "
        + " ".join(element_label(a) for a in out.algebra.elements if a in out.finals)
    )
    if args.print_:
        print(dump_recognizer(out, f"{args.rec}_quot"))
    return 0


def _cmd_inv_image(ws, args):
    rec = _get_rec(ws, args)
    m = _need(ws.gmorphisms, "gmorphism", args.gmorphism)
    out = inverse_gmorphism_image(rec, m)
    print(f"recognizer over operators {' '.join(out.table.operators)}")
    if args.print_:
        print(dump_recognizer(out, f"{args.rec}_inv"))
    return 0


def _cmd_sa(ws, args):
    rec = _get_rec(ws, args)
    res, srec = syntactic_of(rec)
    print(f"classes: {res.theta.block_count}")
    for block in res.theta.blocks:
        print("  " + res.theta.class_name(block[0]) + " = {" + ", ".join(map(element_label, block)) + "}")
    if args.print_:
        print(dump_recognizer(srec, f"{args.rec}_sa"))
    return 0


def _cmd_ra(ws, args):
    rec = _get_rec(ws, args)
    trec = trim(rec)
    res = reduced_syntactic(trec.algebra, trec.finals)
    print(f"element classes: {res.theta.block_count}")
    print(f"operator classes: {res.sigma.block_count}")
    for block in res.sigma.blocks:
        print("  " + res.sigma.class_name(block[0]) + " = {" + ", ".join(block) + "}")
    return 0


def _cmd_translations(ws, args):
    alg = _need(ws.algebras, "algebra", args.alg)
    tm = translations(alg)
    print(f"{len(tm.members)} translations over {len(alg.elements)} elements")
    for tr in tm.members:
        print("  " + describe_translation(tm, tr))
    return 0


def _cmd_congruence_check(ws, args):
    alg = _need(ws.algebras, "algebra", args.alg)
    theta = _parse_partition(args.classes, alg.elements, "--classes")
    if args.sigma:
        sigma = _parse_partition(args.sigma, alg.sigma, "--sigma")
        ok, witness = is_g_congruence(alg, GCongruence(sigma, theta))
    else:
        ok, witness = is_congruence(alg, theta)
    print(_verdict_word(ok))
    if not ok:
        f, g, (w1, w2) = witness
        print(
            f"witness: {f}({' '.join(map(element_label, w1))}) vs "
            f"{g}({' '.join(map(element_label, w2))})"
        )
    return 0 if ok else 1


def _cmd_quotient(ws, args):
    alg = _need(ws.algebras, "algebra", args.alg)
    theta = _parse_partition(args.classes, alg.elements, "--classes")
    if args.sigma:
        from .algebra import g_quotient

        sigma = _parse_partition(args.sigma, alg.sigma, "--sigma")
        out = g_quotient(alg, GCongruence(sigma, theta))
    else:
        out = quotient_algebra(alg, theta)
    print(dump_algebra(out, f"{args.alg}_quot", "sym"))
    return 0


def _cmd_product(ws, args):
    a1 = _need(ws.algebras, "algebra", args.alg)
    a2 = _need(ws.algebras, "algebra", args.alg2)
    kappa = {}
    for piece in args.kappa.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "->" not in piece:
            raise CliError(f"bad kappa entry {piece!r}")
        g, fs = piece.split("->", 1)
        names = fs.split()
        if len(names) != 2:
            raise CliError(f"kappa({g.strip()}) must pick one operator per factor")
        kappa[g.strip()] = tuple(names)
    out = g_product(kappa, [a1, a2])
    print(dump_algebra(out, f"{args.alg}_x_{args.alg2}", "sym"))
    return 0


def _cmd_derived(ws, args):
    alg = _need(ws.algebras, "algebra", args.alg)
    iota = _parse_map(args.iota, "--iota")
    out = derived_algebra(iota, alg)
    print(dump_algebra(out, f"{args.alg}_derived", "sym"))
    return 0


def _cmd_check_gmorphism(ws, args):
    src = _need(ws.algebras, "algebra", args.src)
    dst = _need(ws.algebras, "algebra", args.dst)
    iota = _parse_map(args.iota, "--iota")
    phi = _parse_map(args.phi, "--phi")
    ok, witness = verify_algebra_gmorphism(src, dst, iota, phi)
    print(_verdict_word(ok))
    if ok:
        ker = kernel(src, iota, phi)
        print(f"kernel: {ker.sigma_part.block_count} operator / {ker.theta_part.block_count} element classes")
    else:
        f, w = witness
        print(f"witness: {f}({' '.join(map(element_label, w))})")
    return 0 if ok else 1


def _cmd_empty(ws, args):
    rec = _get_rec(ws, args)
    if is_empty(rec):
        print("empty")
        return 0
    print(f"nonempty, witness {render(min_member(rec))}")
    return 1


def _cmd_finite(ws, args):
    rec = _get_rec(ws, args)
    verdict = is_finite(rec)
    if isinstance(verdict, Finite):
        print(f"finite ({len(verdict.members)} members)")
        for t in verdict.members:
            print("  " + render(t))
        return 0
    print(f"infinite, witness {render(verdict.witness)} ({verdict.reason})")
    return 1


def _cmd_equiv(ws, args):
    rec = _get_rec(ws, args)
    rec2 = _get_rec(ws, args, "rec2")
    ok, counterexample = equivalent(rec, rec2)
    print(_verdict_word(ok))
    if not ok:
        print(f"counterexample: {render(counterexample)}")
    return 0 if ok else 1


def _cmd_class_of(ws, args):
    rec = _get_rec(ws, args)
    t = parse_term(args.term, rec.table)
    out = theta_class_recognizer(rec, t)
    print(f"class {element_label(next(iter(out.finals)))}")
    if args.print_:
        print(dump_recognizer(out, f"{args.rec}_class"))
    return 0


def _cmd_decide(ws, args):
    rec = _get_rec(ws, args)
    kind = _kind_from_args(args)
    verdict = decide_variety(rec, kind, bounds=(args.max_size, args.max_arity))
    print(json.dumps(verdict.to_json(), sort_keys=True, ensure_ascii=False))
    return 0 if verdict.holds else 1


def _cmd_enumerate(ws, args):
    table = _need(ws.symbols, "symbols", args.symbols)
    check_bounds(args.max_size, args.max_arity)
    gen = enumerate_contexts if args.contexts else enumerate_trees
    for t in gen(table, args.max_size, args.max_arity):
        print(render(t))
    return 0


def _cmd_oracle(ws, args):
    rec = _get_rec(ws, args)
    universe = make_universe(
        rec.table, (args.max_size, args.max_arity), (args.max_size, args.max_arity)
    )
    if args.mode == "sa-partition":
        part = brute_syntactic_partition(rec, universe)
        print(f"{part.block_count} blocks over {len(universe.trees)} trees")
        for block in part.blocks[: 2 ** 6]:
            print("  {" + ", ".join(render(t) for t in block[:8]) + (", ..." if len(block) > 8 else "") + "}")
        return 0
    if not args.kind:
        raise CliError("oracle variety needs --kind")
    kind = _kind_from_args(args)
    ok, pair = brute_variety_check(rec, kind, universe)
    print(_verdict_word(ok))
    if not ok:
        print(f"pair: {render(pair[0])} / {render(pair[1])}")
    return 0 if ok else 1


_COMMANDS = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "recognize": _cmd_recognize,
    "trim": _cmd_trim,
    "bool": _cmd_bool,
    "quotient-ctx": _cmd_quotient_ctx,
    "inv-image": _cmd_inv_image,
    "sa": _cmd_sa,
    "ra": _cmd_ra,
    "translations": _cmd_translations,
    "congruence-check": _cmd_congruence_check,
    "quotient": _cmd_quotient,
    "product": _cmd_product,
    "derived": _cmd_derived,
    "check-gmorphism": _cmd_check_gmorphism,
    "empty": _cmd_empty,
    "finite": _cmd_finite,
    "equiv": _cmd_equiv,
    "class-of": _cmd_class_of,
    "decide": _cmd_decide,
    "enumerate": _cmd_enumerate,
    "oracle": _cmd_oracle,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use; parse_args leaves it
    as it was, so one serves every call of main."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        ws = load_workspace(args.workspace)
        return _COMMANDS[args.command](ws, args)
    except (CliError, WorkspaceError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # exit code 1 means "reject": a crash must not read as one
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
