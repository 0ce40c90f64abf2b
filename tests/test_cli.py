"""Command line behavior: frozen outputs, exit codes, determinism.

Most cases drive ``main(argv)`` in process and capture stdout; the
determinism cases spawn real subprocesses so that worker-count and
process-boundary effects are covered end to end.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_enumeration import classes_by_direct_generator

import twobridge.cli
import twobridge.enumeration
from twobridge import Fraction, WitnessReport, bound_entry, torus_vector
from twobridge.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "twobridge", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


# The vector of 1/27 negated: not its class representative.
NEG27 = ",".join(["-2,2"] * 13)


# ------------------------------------------------------------------- verbs

def test_convert_text(capsys):
    code, out, _ = run(capsys, "convert", "38/85")
    assert code == 0
    assert out == (
        "fraction: 38/85\n"
        "even-cf: 0+[2,4,4,2]\n"
        "vector: 2,2,0,2,2,0,2,2\n"
        "crossing-number: 12\n"
    )


def test_convert_json(capsys):
    code, out, _ = run(capsys, "convert", "47/85", "--json")
    assert code == 0
    assert json.loads(out) == {
        "fraction": "38/85",
        "even_cf": "0+[2,4,4,2]",
        "vector": [2, 2, 0, 2, 2, 0, 2, 2],
        "crossing_number": 12,
    }


def test_cr_accepts_all_input_forms(capsys):
    for text in ("38/85", "0+[2,4,4,2]", "2,2,0,2,2,0,2,2"):
        code, out, _ = run(capsys, "cr", text)
        assert code == 0
        assert out == "12\n"
    # convert reads its knot through the same three forms
    want = run(capsys, "convert", "38/85")
    assert want[0] == 0
    for text in ("0+[2,4,4,2]", "2,2,0,2,2,0,2,2"):
        assert run(capsys, "convert", text) == want


def test_smaller(capsys):
    code, out, _ = run(capsys, "smaller", "1/27")
    assert code == 0
    assert out == "count: 2\n1/3\n1/9\n"
    code, out, _ = run(capsys, "smaller", "1/27", "--json")
    assert code == 0
    assert json.loads(out) == {
        "count": 2,
        "smaller": ["1/3", "1/9"],
        "vector": [2, -2] * 13,
    }


def test_compare(capsys):
    assert run(capsys, "compare", "1/27", "1/3")[1].endswith("relation: greater\n")
    assert run(capsys, "compare", "1/3", "1/27")[1].endswith("relation: less\n")
    assert run(capsys, "compare", "2/5", "1/3")[1].endswith("relation: incomparable\n")
    assert run(capsys, "compare", "3/7", "2/7")[1].endswith("relation: equal\n")
    code, out, _ = run(capsys, "compare", "1/27", "1/9", "--json")
    assert code == 0
    assert json.loads(out) == {
        "a": "1/27",
        "a_above_b": True,
        "b": "1/9",
        "b_above_a": False,
        "relation": "greater",
    }
    code, out, _ = run(capsys, "compare", "1/27", "1/27", "--json")
    assert code == 0
    assert json.loads(out) == {
        "a": "1/27",
        "a_above_b": False,
        "b": "1/27",
        "b_above_a": False,
        "relation": "equal",
    }


def test_negative_first_entry_is_an_input(capsys):
    # argparse alone reads "-2,2" as an unknown option; the CLI takes it as
    # the vector, with the same output as after a "--" separator
    assert run(capsys, "cr", "-2,2") == (0, "3\n", "")
    assert run(capsys, "cr", "-2,2") == run(capsys, "cr", "--", "-2,2")
    code, out, _ = run(capsys, "compare", "-2,2,-2,2,-2,2,-2,2", "-2,2")
    assert (code, out) == (0, "a: 1/9\nb: 1/3\nrelation: greater\n")
    vectors = ("-2,2,-2,2,-2,2,-2,2", "-2,2")
    assert run(capsys, "compare", *vectors) == run(capsys, "compare", "--", *vectors)
    above = "-2,-2,0,-2,-2,0,-2,-2"
    assert run(capsys, "compare", above, "2,2")[1].endswith("relation: greater\n")
    assert run(capsys, "compare", "2,2", above)[1].endswith("relation: less\n")
    assert run(capsys, "cr", "-1/3") == (0, "3\n", "")


def test_cm(capsys):
    assert run(capsys, "cm", "5") == (0, "105\n", "")
    code, out, _ = run(capsys, "cm", "5", "--json")
    assert json.loads(out) == {"m": 5, "value": 105}
    code, out, _ = run(capsys, "cm", "3", "--table")
    assert out == "0 3\n1 9\n2 15\n3 45\n"
    # the table makes one search per distinct value; its rows match a
    # search per row, in text and in JSON
    rows = [bound_entry(m) for m in range(41)]
    code, out, _ = run(capsys, "cm", "40", "--table")
    assert (code, out) == (0, "".join(f"{e.m} {e.value}\n" for e in rows))
    code, out, _ = run(capsys, "cm", "40", "--table", "--json")
    assert json.loads(out) == {"table": [e.to_json_dict() for e in rows]}


def test_ek(capsys):
    assert run(capsys, "ek", "9") == (0, "1\n", "")
    assert run(capsys, "ek", "9", "--exact") == (0, "1\n", "")
    code, out, _ = run(capsys, "ek", "45", "--assisted")
    assert (code, out) == (0, "4\n")
    code, out, _ = run(capsys, "ek", "45", "--assisted", "--json")
    assert json.loads(out) == {"n": 45, "mode": "assisted", "ek": 4}


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "5")
    assert code == 0
    assert out == (
        "n: 5\n"
        "count: 2\n"
        "ek: 0\n"
        "knot=1/5 vector=2,-2,2,-2 smaller=-\n"
        "knot=2/7 vector=2,0,2,-2 smaller=-\n"
    )


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "9", "--json")
    data = json.loads(out)
    assert data["n"] == 9
    assert data["ek"] == 1
    assert len(data["knots"]) == 24
    assert data["knots"][0] == {
        "p": 1,
        "q": 9,
        "vector": [2, -2, 2, -2, 2, -2, 2, -2],
        "smaller": [{"p": 1, "q": 3}],
    }


def test_enumerate_prints_the_form_asked_for(tmp_path, capsys):
    # a config file's json flag picks the JSON form as --json does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"json": True}))
    as_json = run(capsys, "enumerate", "9", "--json")
    assert run(capsys, "enumerate", "9", "--config", str(cfg)) == as_json
    assert json.loads(as_json[1])["knots"][0]["q"] == 9
    assert run(capsys, "enumerate", "9")[1].splitlines()[:3] == ["n: 9", "count: 24", "ek: 1"]


def test_enumerate_matches_direct_generator(capsys):
    code, out, _ = run(capsys, "enumerate", "8", "--json")
    assert code == 0
    got = {f"{k['p']}/{k['q']}" for k in json.loads(out)["knots"]}
    assert got == {str(k.canonical) for k in classes_by_direct_generator(8)}
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "8", "--engine", "vectors"])
    assert info.value.code == 2


def test_seams_default_bases(capsys):
    code, out, _ = run(capsys, "seams", "1/27")
    assert code == 0
    assert "bases: 1/3 1/9\n" in out
    assert "cuts: 8,9,17,18\n" in out
    assert out.endswith("segments: 1=1..8 2=9..9 3=10..17 4=18..18 5=19..26\n")


def test_seams_explicit_bases_match_default(capsys):
    a = run(capsys, "seams", "1/27")[1]
    b = run(capsys, "seams", "1/27", "--wrt", "1/3", "--wrt", "1/9")[1]
    assert a == b
    # the vector as given need not be its class representative
    c = run(capsys, "seams", NEG27, "--wrt", "1/3", "--wrt", "1/9")[1]
    assert c.startswith(f"vector: {NEG27}\n") and "cuts: 8,9,17,18\n" in c
    assert c.split("\n")[1:] == b.split("\n")[1:]


def test_negate(capsys):
    code, out, _ = run(capsys, "negate", "1/27", "--segments", "5")
    assert code == 0
    assert "fraction: 17/315\n" in out
    assert "crossing-number: 28\n" in out
    assert "still-above: 1/3 1/9\n" in out
    code, out, _ = run(capsys, "negate", "1/27", "--segments", "2,4", "--json")
    data = json.loads(out)
    assert data["fraction"] == "1189/10395"
    assert data["crossing_number"] == 31
    assert data["cuts"] == [8, 9, 17, 18]
    assert run(capsys, "negate", NEG27, "--segments", "3,5") == (
        0,
        "vector: -2,2,-2,2,-2,2,-2,2,-2,-2,2,-2,2,-2,2,-2,2,2,2,-2,2,-2,2,-2,2,-2\n"
        "fraction: 577/5499\n"
        "crossing-number: 30\n"
        "negated-segments: 3,5\n"
        "still-above: 1/3 1/9\n",
        "",
    )


def test_lift(capsys):
    code, out, _ = run(capsys, "lift", "2,-2", "--target", "10")
    assert code == 0
    assert out == (
        "vector: 2,-2,2,2,-2,0,-2,2\n"
        "fraction: 19/69\n"
        "crossing-number: 10\n"
    )
    code, out, _ = run(capsys, "lift", "2,2", "--target", "12", "--json")
    assert code == 0
    assert json.loads(out) == {
        "base": [2, 2],
        "crossing_number": 12,
        "fraction": "38/85",
        "vector": [2, 2, 0, 2, 2, 0, 2, 2],
    }


def test_torus(capsys):
    code, out, _ = run(capsys, "torus", "9")
    assert code == 0
    assert out == (
        "fraction: 1/9\n"
        "vector: 2,-2,2,-2,2,-2,2,-2\n"
        "crossing-number: 9\n"
        "count: 1\n"
        "1/3\n"
    )
    code, out, _ = run(capsys, "torus", "45", "--json")
    assert code == 0
    assert json.loads(out) == {
        "count": 4,
        "crossing_number": 45,
        "fraction": "1/45",
        "smaller": ["1/3", "1/5", "1/9", "1/15"],
        "vector": [2, -2] * 22,
    }


# ------------------------------------------------------------ long vectors

def test_compare_long_torus(capsys):
    # 3 does not divide 3001, so the (2,3001) torus knot is not above 1/3
    code, out, err = run(capsys, "compare", "1/3001", "1/3")
    assert (code, err) == (0, "")
    assert out == "a: 1/3001\nb: 1/3\nrelation: incomparable\n"


def test_seams_long_torus(capsys):
    code, out, err = run(capsys, "seams", "1/3003", "--wrt", "1/3")
    assert (code, err) == (0, "")
    assert "parsings: 1\n" in out
    cuts = ",".join(f"{3 * i + 2},{3 * i + 3}" for i in range(1000))
    assert f"cuts: {cuts}\n" in out
    # the same cut pattern as a short torus knot over the trefoil
    assert "cuts: 2,3,5,6,8,9,11,12,14,15,17,18,20,21,23,24\n" in run(
        capsys, "seams", "1/27", "--wrt", "1/3"
    )[1]


def test_negate_long_torus(capsys):
    code, out, err = run(capsys, "negate", "1/3003", "--wrt", "1/3", "--segments", "3")
    assert (code, err) == (0, "")
    assert "still-above: 1/3\n" in out


def test_verify_runs_green(capsys):
    code, out, _ = run(capsys, "verify-paper", "--budget", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "verify: OK"
    assert len(lines) == 7
    assert all(": OK (" in line for line in lines[:-1])


def test_verify_reports_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(twobridge.cli, "least_odd_with_divisors", lambda m: 1)
    code, out, _ = run(capsys, "verify-paper", "--budget", "10")
    assert code == 1
    lines = out.strip().split("\n")
    assert "cm-table: FAIL (m=0: got 1, want 3)" in lines
    assert lines[-1] == "verify: FAIL"


# verify-paper's report at the parent of the (label, got, want) rewrite;
# {top} is the last n of the EK window, min(budget, 24).
VERIFY_TEXT = """\
cm-table: OK (15 values)
ek-window: OK (n=3..{top})
witnesses: OK (25 rows)
worked-example: OK (38/85)
seam-pipeline: OK (4 negations)
torus-certificates: OK (2 orders, 2 assisted values)
verify: OK
"""
VERIFY_JSON = """\
{{
  "checks": [
    {{
      "detail": "15 values",
      "name": "cm-table",
      "passed": true
    }},
    {{
      "detail": "n=3..{top}",
      "name": "ek-window",
      "passed": true
    }},
    {{
      "detail": "25 rows",
      "name": "witnesses",
      "passed": true
    }},
    {{
      "detail": "38/85",
      "name": "worked-example",
      "passed": true
    }},
    {{
      "detail": "4 negations",
      "name": "seam-pipeline",
      "passed": true
    }},
    {{
      "detail": "2 orders, 2 assisted values",
      "name": "torus-certificates",
      "passed": true
    }}
  ],
  "passed": true
}}
"""


@pytest.mark.parametrize("budget, top", [(["--budget", "10"], 10), ([], 14)])
def test_verify_output_pinned(capsys, budget, top):
    assert run(capsys, "verify-paper", *budget) == (0, VERIFY_TEXT.format(top=top), "")
    assert run(capsys, "verify-paper", "--json", *budget) == (0, VERIFY_JSON.format(top=top), "")


def _epimorphism_number_assisted_zero(n, mode="exact", budget=None):
    if mode == "assisted":
        return 0
    return twobridge.enumeration.epimorphism_number(n, mode=mode, budget=budget)


# One replaced library name per check (cm-table is covered above), and
# the FAIL line it leads to: the first case of the check with got != want.
VERIFY_FAILURES = [
    (
        "epimorphism_number",
        lambda n, mode="exact", budget=None: 7,
        "ek-window: FAIL (n=3: got 7, want 0)",
    ),
    (
        "verify_witness_table",
        lambda: (WitnessReport(27, Fraction(1, 27), 27, 2), WitnessReport(28, Fraction(17, 315), 28, 1)),
        "witnesses: FAIL (17/315 has >= 2 below: got False, want True)",
    ),
    ("smaller_knots", lambda v: set(), "worked-example: FAIL (knots below: got [], want ['2/5'])"),
    (
        "negate_segments",
        lambda seam, segments: torus_vector(27),
        "seam-pipeline: FAIL (negating [5]: got 1/27, want 17/315)",
    ),
    (
        "epimorphism_number",
        _epimorphism_number_assisted_zero,
        "torus-certificates: FAIL (assisted ek(45): got 0, want 4)",
    ),
]


@pytest.mark.parametrize(
    "name, replacement, line", VERIFY_FAILURES, ids=[line.split(":")[0] for *_, line in VERIFY_FAILURES]
)
def test_verify_fail_line_per_check(capsys, monkeypatch, name, replacement, line):
    monkeypatch.setattr(twobridge.cli, name, replacement)
    code, out, err = run(capsys, "verify-paper", "--budget", "10")
    assert (code, err) == (1, "")
    lines = out.split("\n")
    assert line in lines
    assert lines[-2:] == ["verify: FAIL", ""]


def test_verify_stops_each_check_at_its_first_failure(capsys, monkeypatch):
    calls = []

    def wrong(n, mode="exact", budget=None):
        calls.append((n, mode))
        return -1

    monkeypatch.setattr(twobridge.cli, "epimorphism_number", wrong)
    assert run(capsys, "verify-paper", "--budget", "10")[0] == 1
    assert calls == [(3, "exact"), (45, "assisted")]


# -------------------------------------------------------------- exit codes

def test_exit_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["bogus-verb"])
    assert info.value.code == 2


# Each verb with the arguments it needs and the handler it runs.
VERBS = {
    "convert": (["1/3"], "_cmd_convert"),
    "cr": (["1/3"], "_cmd_cr"),
    "smaller": (["1/3"], "_cmd_smaller"),
    "compare": (["1/3", "1/5"], "_cmd_compare"),
    "cm": (["5"], "_cmd_cm"),
    "ek": (["9"], "_cmd_ek"),
    "enumerate": (["9"], "_cmd_enumerate"),
    "seams": (["1/27"], "_cmd_seams"),
    "negate": (["1/27", "--segments", "1"], "_cmd_negate"),
    "lift": (["1/3", "--target", "9"], "_cmd_lift"),
    "torus": (["9"], "_cmd_torus"),
    "verify-paper": ([], "_cmd_verify"),
}


def test_every_verb_takes_the_common_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(VERBS)
    common = ["--json", "--budget", "1", "--workers", "2", "--out", "F", "--config", "C"]
    for verb, (argv, handler) in VERBS.items():
        args = parser.parse_args([verb, *argv, *common])
        assert (args.json, args.budget, args.workers, args.out, args.config) == (True, 1, 2, "F", "C"), verb
        assert args.handler is getattr(twobridge.cli, handler), verb


@pytest.mark.parametrize("argv", [["cm", "x"], ["ek", "1.5"], ["enumerate", "nine"], ["torus", "9/1"]])
def test_integer_positionals_refuse_other_text(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"invalid int value: '{argv[1]}'" in capsys.readouterr().err


def test_verify_default_budget(capsys, monkeypatch):
    monkeypatch.setattr(twobridge.cli, "_cmd_verify", lambda args: (str(args.budget), {}, 0))
    assert run(capsys, "verify-paper") == (0, "14\n", "")
    assert run(capsys, "verify-paper", "--budget", "9") == (0, "9\n", "")
    # no other verb carries a default budget of its own
    parser = build_parser()
    for verb, (argv, _) in VERBS.items():
        if verb != "verify-paper":
            assert not hasattr(parser.parse_args([verb, *argv]), "default_budget"), verb


def test_exit_invalid_fraction(capsys):
    # an even denominator, then an unclosed bracket, an unreadable integer
    # part and an odd term in a continued fraction
    for text in ("4/8", "0+[2,4", "x+[2,2]", "0+[2,3]"):
        code, out, err = run(capsys, "convert", text)
        assert code == 3, text
        assert out == ""
        assert err.startswith("error: invalid-fraction:")
        assert err.count("\n") == 1
    # r+[] is r/1, the unknot: every verb, and --wrt, refuses it as convert does
    argvs = [
        ("convert", "{}"),
        ("cr", "{}"),
        ("smaller", "{}"),
        ("compare", "{}", "1/3"),
        ("seams", "{}"),
        ("negate", "{}", "--segments", "1"),
        ("lift", "{}", "--target", "9"),
        ("seams", "1/27", "--wrt", "{}"),
    ]
    for argv in argvs:
        for r in ("0", "3", "-1"):
            want = f"error: invalid-fraction: {r}/1 does not identify a nontrivial 2-bridge knot\n"
            assert run(capsys, *(a.format(f"{r}+[]") for a in argv)) == (3, "", want), (argv, r)


def test_exit_budget(capsys):
    code, _, err = run(capsys, "ek", "19")
    assert code == 4
    assert err.startswith("error: budget-exceeded:")
    code, _, err = run(capsys, "enumerate", "19")
    assert code == 4


@pytest.mark.parametrize("budget", ["2", "-5"])
def test_verify_budget_below_the_ek_window(capsys, budget):
    # the EK window always starts at n = 3, so a smaller budget is refused
    # as ek 3 refuses it, not passed over an empty window
    _, _, err = run(capsys, "ek", "3", "--budget", budget)
    assert err.startswith("error: budget-exceeded:") and err.count("\n") == 1
    assert run(capsys, "verify-paper", "--budget", budget) == (4, "", err)
    assert run(capsys, "verify-paper", "--json", "--budget", budget) == (4, "", err)


def test_exit_budget_assisted_huge_n(capsys):
    # the divisor bounds are settled by search and trial factorisation;
    # they disagree here, so assisted mode falls back to the budget.  The
    # second n is prime: its factorisation stops once it cannot reach the
    # upper bound, long before trial divisors near sqrt(n)
    for n in ("999999999999999", "999999999999989"):
        code, out, err = run(capsys, "ek", n, "--assisted")
        assert (code, out) == (4, "")
        assert err.startswith("error: budget-exceeded:")
        assert err.count("\n") == 1


def test_exit_value_error(capsys):
    code, _, err = run(capsys, "cr", "2,3")
    assert code == 1
    assert err.startswith("error: ")
    code, _, err = run(capsys, "negate", "1/27", "--segments", "9")
    assert code == 1
    code, _, err = run(capsys, "lift", "2,2", "--target", "5")
    assert code == 1
    code, _, err = run(capsys, "seams", "2,2")
    assert code == 1  # nothing below the trefoil family seed
    assert run(capsys, "seams", "2,2", "--wrt", "1/5") == (
        1, "", "error: the vector has no parsings with respect to 1/5\n"
    )
    # a base must lie strictly below the vector: its own knot is refused
    for argv, knot in ((("seams", "1/27", "--wrt", "1/27"), "1/27"), (("seams", "2,2", "--wrt", "2/5"), "2/5")):
        assert run(capsys, *argv) == (1, "", f"error: the vector has no parsings with respect to {knot}\n")
    assert run(capsys, "cm", "-1") == (1, "", "error: m must be nonnegative, got -1\n")
    code, _, err = run(capsys, "torus", "4")
    assert code == 1


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"), MemoryError()])
def test_exit_resource_exhausted(capsys, monkeypatch, exc):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(twobridge.cli, "crossing_number", exhausted)
    code, out, err = run(capsys, "cr", "2,2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: resource-exhausted: " + type(exc).__name__)
    assert err.count("\n") == 1


# ------------------------------------------------------- config, out, json

def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "cm", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "105\n"


def test_out_unwritable_is_one_error_line(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "report.txt"):
        code, out, err = run(capsys, "cm", "5", "--out", str(target))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


def test_config_defaults_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 8, "json": True}))
    # config json flag applies
    code, out, _ = run(capsys, "cm", "5", "--config", str(cfg))
    assert json.loads(out) == {"m": 5, "value": 105}
    # config budget applies: 9 > 8 is refused
    code, _, err = run(capsys, "ek", "9", "--config", str(cfg))
    assert code == 4
    # explicit flag beats config
    code, out, _ = run(capsys, "ek", "9", "--budget", "9", "--config", str(cfg))
    assert code == 0
    assert json.loads(out) == {"n": 9, "mode": "exact", "ek": 1}
    # a workers value is accepted and changes nothing
    workers_cfg = tmp_path / "workers.json"
    workers_cfg.write_text(json.dumps({"workers": 2}))
    for argv in (["enumerate", "10", "--json"], ["ek", "12"]):
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--config", str(workers_cfg)) == plain


def test_config_rejects_non_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "cm", "5", "--config", str(cfg))
    assert code == 1
    assert "must hold a JSON object" in err


@pytest.mark.parametrize(
    "data", [{"json": "false"}, {"budget": True}, {"budget": 12.9}, {"budget": "20"}]
)
def test_config_rejects_mistyped_values(tmp_path, capsys, data):
    # "json" must be a JSON boolean and "budget" a JSON integer, not a
    # boolean: no string, float or boolean is coerced
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, "ek", "9", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: config file ")


# ------------------------------------------------------------- determinism

def test_verify_byte_identical_across_runs_and_workers():
    runs = [
        run_proc("verify-paper", "--budget", "10"),
        run_proc("verify-paper", "--budget", "10"),
        run_proc("verify-paper", "--budget", "10", "--workers", "2"),
    ]
    for code, _, _ in runs:
        assert code == 0
    outs = {out for _, out, _ in runs}
    assert len(outs) == 1


def test_enumerate_byte_identical_across_workers():
    a = run_proc("enumerate", "10", "--json")
    b = run_proc("enumerate", "10", "--json", "--workers", "2")
    assert a[0] == 0 and b[0] == 0
    assert a[1] == b[1]


def test_cli_import_loads_no_process_pool():
    # class generation runs in one process whatever --workers says
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, twobridge.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_start_up_loads_no_dataclasses_or_json():
    # Every verb is a fresh process, so what the CLI imports is paid on
    # every call.  -S keeps site hooks from importing either module first.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import twobridge.cli\n"
        "twobridge.cli.main(['cr', '2,2'])\n"
        "print(sorted(m for m in ('dataclasses', 'json') if m in sys.modules))\n"
        "twobridge.cli.main(['cr', '2,2', '--json'])\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '4\n[]\n{\n  "crossing_number": 4,\n  "vector": [\n    2,\n    2\n  ]\n}\n'


# Runs a ``[project.scripts]`` target as a console-script wrapper does:
# load ``module:attr``, set ``argv[0]`` to the script name, exit with
# the target's return value.  argv: script name, target, script args.
CONSOLE_SCRIPT_WRAPPER = """
import sys
from importlib.metadata import EntryPoint
name, value, *args = sys.argv[1:]
main = EntryPoint(name, value, "console_scripts").load()
sys.argv = [name, *args]
sys.exit(main())
"""


def test_console_script_help():
    # An installed script is run as it is; tier-1 runs from
    # PYTHONPATH=src with nothing installed, so the declared entry point
    # is run in every case.
    if shutil.which("twobridge"):
        proc = subprocess.run(
            ["twobridge", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "verify-paper" in proc.stdout

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT_WRAPPER,
         "twobridge", scripts["twobridge"], "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify-paper" in proc.stdout
