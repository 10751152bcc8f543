import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uta.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("UTA_COLOR", "0")


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_class_of_and_empty(capsys):
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "class-of", "--rec", "parity-odd", "x"
    )
    assert code == 0 and out.startswith("class ")
    code, out, _ = run(
        capsys, "-w", str(FIXTURES / "parity.uta"), "empty", "--rec", "parity-odd"
    )
    assert code == 1 and out.startswith("nonempty")


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
