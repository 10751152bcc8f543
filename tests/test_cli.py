import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uta.cli import main
from uta.recognizer import size_at_least_recognizer
from uta.trees import SymbolTable
from uta.workspace import dump_recognizer

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("UTA_COLOR", "0")


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


# Command lines whose arguments alone fix their output; the CI workflow runs
# the same file through the installed `uta` from the repository root.
PINS = json.loads((Path(__file__).resolve().parent / "cli_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: " ".join(pin["args"][1:]))
def test_pinned_command_line(capsys, monkeypatch, pin):
    monkeypatch.chdir(FIXTURES.parent)
    expected = [pin["code"]] + ["".join(line + "\n" for line in pin[s]) for s in ("stdout", "stderr")]
    assert list(run(capsys, *pin["args"])) == expected


def test_eval(capsys):
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "eval", "--rec", "parity-odd", "f(x,x)"
    )
    assert code == 1
    assert out.splitlines() == ["0", "reject"]
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "eval", "--rec", "parity-odd", "x"
    )
    assert code == 0
    assert out.splitlines() == ["1", "accept"]


def test_parse(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "root.uta"),
        "parse",
        "--symbols",
        "sym2",
        " f( g( x ), x , f ) ",
    )
    assert code == 0
    assert out.splitlines()[0] == "f(g(x),x,f)"


def test_parse_pretty(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "root.uta"),
        "parse",
        "--symbols",
        "sym2",
        "--pretty",
        "f(g(x),x)",
    )
    assert code == 0
    assert out.splitlines()[:4] == ["f", "  g", "    x", "  x"]


def test_parse_error_exit_2(capsys):
    code, _out, err = run(
        capsys, "-w", str(FIXTURES / "root.uta"), "parse", "--symbols", "sym2", "f(("
    )
    assert code == 2
    assert "error:" in err


def test_decide_def_json(capsys):
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "root.uta"), "decide", "--rec", "rootf", "--kind", "def"
    )
    assert code == 0
    assert json.loads(out) == {
        "k": 1,
        "kind": "Def",
        "method": "exact",
        "verdict": "yes",
    }


@pytest.mark.parametrize("bounds", [("--max-size", "0"), ("--max-size", "-3"), ("--max-arity", "-1")])
def test_decide_probe_without_trees_exits_2(capsys, bounds):
    code, out, err = run(
        capsys, "-w", str(FIXTURES / "root.uta"), "decide", "--rec", "rootf", "--kind", "loc", "--k", "2", *bounds
    )
    assert code == 2 and out == ""
    assert err.startswith("error: bounds need max_size >= 1 and max_arity >= 0")


def test_enumerate_without_trees_exits_2(capsys):
    code, out, err = run(capsys, "-w", str(FIXTURES / "root.uta"), "enumerate", "--symbols", "sym2", "--max-size", "-1")
    assert code == 2 and out == ""
    assert err == "error: bounds need max_size >= 1 and max_arity >= 0, not (-1, None)\n"


def test_decide_negative_definite_parameter_exits_2(capsys):
    code, out, err = run(
        capsys, "-w", str(FIXTURES / "root.uta"), "decide", "--rec", "rootf", "--kind", "def", "--k", "-2"
    )
    assert (code, out, err) == (2, "", "error: Definite needs k >= 0\n")


def test_decide_negative_exit(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "decide",
        "--rec",
        "parity-odd",
        "--kind",
        "ap",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "no"


def test_decide_probe_bounds(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "decide",
        "--rec",
        "parity-odd",
        "--kind",
        "rdef",
        "--k",
        "1",
        "--max-size",
        "5",
    )
    assert code == 1
    data = json.loads(out)
    assert data["method"] == "refutation" and data["max_size"] == 5


def test_sa_output(capsys):
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "sa", "--rec", "parity-odd"
    )
    assert code == 0
    assert out.startswith("classes: 2")


def test_translations_format(capsys):
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "translations", "--alg", "parity"
    )
    assert code == 0
    assert '0->1, 1->0 (via f: u="", v="1")' in out


def test_equiv_and_bool(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "equiv",
        "--rec",
        "parity-odd",
        "--rec2",
        "parity-odd",
    )
    assert code == 0 and out.strip() == "yes"


def test_finite(capsys):
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "root.uta"), "finite", "--rec", "rootf"
    )
    assert code == 1
    assert out.startswith("infinite")


@pytest.mark.parametrize(
    "workspace, rec",
    [("root.uta", "rootf"), ("parity.uta", "parity-odd"), ("bool.uta", "booltrue")],
)
def test_finite_witness_parses_and_is_accepted(capsys, workspace, rec):
    code, out, _ = run(capsys, "-w", str(FIXTURES / workspace), "finite", "--rec", rec)
    assert code == 1
    witness = out.split("witness ", 1)[1].split(" (", 1)[0]
    code, out, _ = run(capsys, "-w", str(FIXTURES / workspace), "eval", "--rec", rec, witness)
    assert code == 0 and out.splitlines()[-1] == "accept"


def test_enumerate(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "enumerate",
        "--symbols",
        "sym",
        "--max-size",
        "2",
        "--max-arity",
        "2",
    )
    assert code == 0
    assert out.splitlines() == ["f", "x", "f(f)", "f(x)"]


def test_recognize_file(capsys, tmp_path):
    terms = tmp_path / "terms.txt"
    terms.write_text("x\nf(x,x)\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "recognize",
        "--rec",
        "parity-odd",
        str(terms),
    )
    assert code == 1
    assert out.splitlines() == ["accept\tx", "reject\tf(x,x)"]


def test_recognize_reads_a_term_file_that_starts_with_a_byte_order_mark(capsys, tmp_path):
    terms = tmp_path / "terms.txt"
    terms.write_text("\ufeffinvoices(invoice(line(text)))\nline(text)\n", encoding="utf-8")
    argv = ["-w", str(FIXTURES / "xml.uta"), "recognize", "--rec", "xmldoc", str(terms)]
    want = "accept\tinvoices(invoice(line(text)))\nreject\tline(text)\n"
    assert run(capsys, *argv) == (1, want, "")
    # a mark past the start of the file is an unexpected character, as before
    terms.write_text("line(text)\n\ufeffline(text)\n", encoding="utf-8")
    error = "error: unexpected character '\\ufeff' at position 0\n"
    assert run(capsys, *argv) == (2, "reject\tline(text)\n", error)
    terms.write_text("line(\ufefftext)\n", encoding="utf-8")
    assert run(capsys, *argv) == (2, "", error.replace("0", "5"))


def test_recognize_skips_a_byte_order_mark_on_stdin(capsys, monkeypatch):
    argv = ["-w", str(FIXTURES / "xml.uta"), "recognize", "--rec", "xmldoc", "-"]

    def piped(text):
        data = text.encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        return run(capsys, *argv)

    assert piped("\ufeffline(text)\n") == (1, "reject\tline(text)\n", "")
    want = "accept\tinvoices(invoice(line(text)))\nreject\tline(text)\n"
    assert piped("\ufeffinvoices(invoice(line(text)))\r\nline(text)") == (1, want, "")
    # a mark past the start of the input is an unexpected character, as before
    error = "error: unexpected character '\\ufeff' at position 0\n"
    assert piped("line(text)\n\ufeffline(text)\n") == (2, "reject\tline(text)\n", error)
    assert piped("\ufeff\ufeffline(text)\n") == (2, "", error)


def test_deterministic_output(capsys):
    args = (
        "-w",
        str(FIXTURES / "bool.uta"),
        "decide",
        "--rec",
        "booltrue",
        "--kind",
        "loc",
        "--k",
        "2",
        "--max-size",
        "5",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_inv_image_and_quotient(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "root.uta"),
        "-w",
        str(FIXTURES / "morphisms.uta"),
        "inv-image",
        "--rec",
        "rootf",
        "--gmorphism",
        "h2f",
    )
    assert code == 0 and "operators h" in out
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "quotient-ctx",
        "--rec",
        "parity-odd",
        "f(x,@)",
    )
    assert code == 0 and out.strip() == "finals: 0"


def test_ra_and_quotient_commands(capsys):
    code, out, _ = run(capsys, "-w", str(FIXTURES / "root.uta"), "ra", "--rec", "rootf")
    assert code == 0
    assert "operator classes: 2" in out
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "quotient",
        "--alg",
        "parity",
        "--classes",
        "0,1",
    )
    assert code == 0 and "elements: e0;" in out


def test_quotient_refuses_a_non_congruence(capsys):
    code, out, err = run(
        capsys,
        "-w",
        str(FIXTURES / "xml.uta"),
        "quotient",
        "--alg",
        "xmlalg",
        "--classes",
        "0,2|3,4,5",
    )
    assert (code, out, err) == (2, "", "error: theta is not a congruence for invoices\n")


RA_OUTPUTS = {
    ("parity.uta", "parity-odd"): "element classes: 2\noperator classes: 1\n  [f] = {f}\n",
    ("root.uta", "rootf"): "element classes: 2\noperator classes: 2\n  [f] = {f}\n  [g] = {g}\n",
    ("bool.uta", "booltrue"): (
        "element classes: 2\noperator classes: 2\n  [or] = {or}\n  [and] = {and}\n"
    ),
    ("xml.uta", "xmldoc"): (
        "element classes: 5\noperator classes: 3\n"
        "  [invoices] = {invoices}\n  [invoice] = {invoice}\n  [line] = {line}\n"
    ),
}


@pytest.mark.parametrize("workspace, rec", sorted(RA_OUTPUTS))
def test_ra_output_on_the_fixtures(capsys, workspace, rec):
    got = run(capsys, "-w", str(FIXTURES / workspace), "ra", "--rec", rec)
    assert got == (0, RA_OUTPUTS[(workspace, rec)], "")


DUP_WORKSPACE = """symbols sym {
  operators: f f2;
  leaves: x;
}

algebra dup {
  symbols: sym;
  elements: 0 1;
  op f {
    states: q0 q1;
    start: q0;
    out: q0 -> 0, q1 -> 1;
    delta: q0 0 -> q0, q0 1 -> q1, q1 0 -> q1, q1 1 -> q0;
  }
  op f2 {
    states: p0 p1;
    start: p0;
    out: p0 -> 0, p1 -> 1;
    delta: p0 0 -> p0, p0 1 -> p1, p1 0 -> p1, p1 1 -> p0;
  }
}

recognizer dup-odd {
  algebra: dup;
  valuation: x -> 1;
  finals: 1;
}
"""


def test_ra_merges_operators_that_share_a_machine(capsys, tmp_path):
    path = tmp_path / "dup.uta"
    path.write_text(DUP_WORKSPACE)
    got = run(capsys, "-w", str(path), "ra", "--rec", "dup-odd")
    assert got == (0, "element classes: 2\noperator classes: 1\n  [f] = {f, f2}\n", "")


ROOT_QUOTIENT = """algebra rootalg_quot {
  symbols: sym;
  elements: e0;
  op [f] {
    states: q0;
    start: q0;
    out: q0 -> e0;
    delta: q0 e0 -> q0;
  }
}
"""


def test_quotient_and_congruence_check_with_operator_classes(capsys):
    root = ("-w", str(FIXTURES / "root.uta"))
    args = ("--alg", "rootalg", "--sigma", "f,g", "--classes")
    got = run(capsys, *root, "quotient", *args, "0|1")
    assert got == (2, "", "error: operators f and g disagree on class word\n")
    got = run(capsys, *root, "quotient", *args, "0,1")
    assert got == (0, ROOT_QUOTIENT, "")
    got = run(capsys, *root, "congruence-check", *args, "0|1")
    assert got == (1, "no\nwitness: f() vs g()\n", "")


XMLDOC_SA = """classes: 5
  [0] = {0}
  [2] = {2}
  [3] = {3}
  [4] = {4}
  [5] = {5}
symbols sym {
  operators: invoices invoice line;
  leaves: text;
}

algebra xmldoc_sa_algebra {
  symbols: sym;
  elements: e0 e1 e2 e3 e4;
  op invoices {
    states: q0 q1 q2;
    start: q0;
    out: q0 -> e0, q1 -> e0, q2 -> e4;
    delta: q0 e0 -> q1, q0 e1 -> q1, q0 e2 -> q1, q0 e3 -> q2, q0 e4 -> q1, q1 e0 -> q1, q1 e1 -> q1, q1 e2 -> q1, q1 e3 -> q1, q1 e4 -> q1, q2 e0 -> q1, q2 e1 -> q1, q2 e2 -> q1, q2 e3 -> q2, q2 e4 -> q1;
  }
  op invoice {
    states: q0 q1 q2;
    start: q0;
    out: q0 -> e0, q1 -> e0, q2 -> e3;
    delta: q0 e0 -> q1, q0 e1 -> q1, q0 e2 -> q2, q0 e3 -> q1, q0 e4 -> q1, q1 e0 -> q1, q1 e1 -> q1, q1 e2 -> q1, q1 e3 -> q1, q1 e4 -> q1, q2 e0 -> q1, q2 e1 -> q1, q2 e2 -> q2, q2 e3 -> q1, q2 e4 -> q1;
  }
  op line {
    states: q0 q1 q2;
    start: q0;
    out: q0 -> e0, q1 -> e0, q2 -> e2;
    delta: q0 e0 -> q1, q0 e1 -> q2, q0 e2 -> q1, q0 e3 -> q1, q0 e4 -> q1, q1 e0 -> q1, q1 e1 -> q1, q1 e2 -> q1, q1 e3 -> q1, q1 e4 -> q1, q2 e0 -> q1, q2 e1 -> q1, q2 e2 -> q1, q2 e3 -> q1, q2 e4 -> q1;
  }
}

recognizer xmldoc_sa {
  algebra: xmldoc_sa_algebra;
  valuation: text -> e1;
  finals: e4;
}
"""


def test_sa_print_dump_of_the_xml_fixture(capsys):
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "xml.uta"), "sa", "--rec", "xmldoc", "--print"
    )
    assert (code, out) == (0, XMLDOC_SA)


def test_check_gmorphism_and_product(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "check-gmorphism",
        "--src",
        "parity",
        "--dst",
        "parity",
        "--iota",
        "f -> f",
        "--phi",
        "0 -> 0, 1 -> 1",
    )
    assert code == 0 and out.splitlines()[0] == "yes"
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "root.uta"),
        "product",
        "--alg",
        "rootalg",
        "--alg2",
        "rootalg",
        "--kappa",
        "f -> f f, g -> g g",
    )
    assert code == 0 and "elements: e0 e1 e2 e3;" in out


def test_product_refuses_a_bad_kappa(capsys):
    """--kappa is read as --iota and --phi are, then split per factor."""
    for kappa, message in (
        ("f -> f f, g g", "bad --kappa entry 'g g' (want 'a -> b')"),
        ("f -> f f, g -> g", "kappa(g) must pick one operator per factor"),
    ):
        got = run(capsys, "-w", str(FIXTURES / "root.uta"), "product",
                  "--alg", "rootalg", "--alg2", "rootalg", "--kappa", kappa)
        assert got == (2, "", f"error: {message}\n")


def test_class_of_and_empty(capsys):
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "class-of", "--rec", "parity-odd", "x"
    )
    assert code == 0 and out.startswith("class ")
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "empty", "--rec", "parity-odd"
    )
    assert code == 1 and out.startswith("nonempty")


def test_empty_witness_past_seven_nodes_is_the_least_tree(capsys, tmp_path):
    path = tmp_path / "big.uta"
    path.write_text(dump_recognizer(size_at_least_recognizer(SymbolTable(("f",), ("x",)), 8), "big"))
    got = run(capsys, "-w", str(path), "empty", "--rec", "big")
    assert got == (1, "nonempty, witness f(f(f(f(f(f(f(f)))))))\n", "")


def test_nil_counts_the_complement_of_twenty_nodes(capsys, tmp_path):
    """737,922,992,938 trees have fewer than 20 nodes: counted, not listed."""
    path = tmp_path / "big.uta"
    path.write_text(dump_recognizer(size_at_least_recognizer(SymbolTable(("f",), ("x",)), 20), "big"))
    code, out, err = run(capsys, "-w", str(path), "decide", "--rec", "big", "--kind", "nil")
    assert (code, err) == (0, "")
    assert json.loads(out)["detail"] == "co-finite; complement has 737922992938 members"


def test_bool_binary(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "bool",
        "and",
        "--rec",
        "parity-odd",
        "--rec2",
        "parity-odd",
    )
    assert code == 0 and "result carrier" in out


def test_unknown_recognizer_exit_2(capsys):
    code, _, err = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "eval", "--rec", "nope", "x"
    )
    assert code == 2 and "unknown recognizer" in err


def test_oracle_variety(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "parity.uta"),
        "oracle",
        "variety",
        "--rec",
        "parity-odd",
        "--kind",
        "def",
        "--k",
        "1",
    )
    assert code == 1 and out.splitlines()[0] == "no"


def test_xml_fixture(capsys):
    code, out, _ = run(
        capsys,
        "-w",
        str(FIXTURES / "xml.uta"),
        "recognize",
        "--rec",
        "xmldoc",
        str(FIXTURES / "terms.txt"),
    )
    assert code == 1  # some lines are fragments, not documents
    lines = out.splitlines()
    assert lines[0].startswith("accept\tinvoices(")
    assert lines[1].startswith("reject")


def test_internal_error_exits_2_not_reject(capsys, monkeypatch):
    # exit code 1 means "reject"; a crash inside a command must not read as one
    import uta.cli

    def crash(ws, args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(uta.cli._COMMANDS, "recognize", crash)
    code, out, err = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "recognize", "--rec", "parity-odd", "-"
    )
    assert code == 2
    assert out == ""
    assert err.strip() == "error: internal error: RecursionError: maximum recursion depth exceeded"


DEEP_CHAIN = "f(" * 10**5 + "x" + ")" * 10**5


def test_recognize_eval_parse_on_a_deep_chain(capsys, tmp_path):
    # one x under 10^5 unary f's: f passes the parity through, so it accepts
    terms = tmp_path / "deep.txt"
    terms.write_text(DEEP_CHAIN + "\n", encoding="utf-8")
    parity = str(FIXTURES / "parity.uta")
    code, out, err = run(capsys, "-w", parity, "recognize", "--rec", "parity-odd", str(terms))
    assert (code, err) == (0, "")
    assert out == "accept\t" + DEEP_CHAIN + "\n"
    code, out, err = run(capsys, "-w", parity, "eval", "--rec", "parity-odd", DEEP_CHAIN)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["1", "accept"]
    code, out, err = run(capsys, "-w", parity, "parse", "--symbols", "sym", DEEP_CHAIN)
    assert (code, err) == (0, "")
    assert out.splitlines() == [DEEP_CHAIN, f"height {10**5}, root f, size {10**5 + 1}"]


def test_consecutive_calls_match_fresh_processes(capsys):
    # main() reuses one argument parser; no flag of one call may reach the next
    calls = [
        ["-w", str(FIXTURES / "parity.uta"), "--json", "eval", "--rec", "parity-odd", "f(x,x)"],
        ["-w", str(FIXTURES / "root.uta"), "parse", "--symbols", "sym2"],
        ["-w", str(FIXTURES / "root.uta"), "parse", "--symbols", "sym2", "--pretty", "f(g(x),x)"],
        ["-w", str(FIXTURES / "parity.uta"), "eval", "--rec", "parity-odd", "f(x,x)"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "UTA_COLOR": "0", "PYTHONPATH": src}
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage error
            code = e.code
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "uta", *argv], capture_output=True, text=True, env=env
        )
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
