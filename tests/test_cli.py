"""End-to-end checks of the command-line interface and its exit codes."""

import contextlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from skg import AvmSyntaxError, GrammarError, load_grammar, parse_value
from skg.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT, EXIT_OK, main
from skg.search import default_budget
from test_search import CYCLIC

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, os.pardir)
GRAMMAR = os.path.join(HERE, os.pardir, "grammars", "paper.skg")
NP_SEM = os.path.join(HERE, os.pardir, "grammars", "np.sem")
SENTENCE_SEM = os.path.join(HERE, os.pardir, "grammars", "sentence.sem")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_check_ok(capsys):
    code, payload, _ = run_json(capsys, "check", "--grammar", GRAMMAR)
    assert code == EXIT_OK
    assert payload["start"] == "s"
    assert payload["nonsk_paths"] == ["sem.mod"]
    classes = {r["id"]: r["class"] for r in payload["rules"]}
    assert classes["1a"] == "NonSK" and classes["2"] == "SK"


def test_generate_np(capsys):
    code, payload, _ = run_json(
        capsys, "generate", "--grammar", GRAMMAR, "--sem", NP_SEM)
    assert code == EXIT_OK
    assert payload["outputs"] == ["the complex sentence"]
    assert not payload["budget_exhausted"]


def test_generate_sentence_derivations(capsys):
    code, payload, _ = run_json(
        capsys, "generate", "--grammar", GRAMMAR, "--sem", SENTENCE_SEM,
        "--derivations")
    assert code == EXIT_OK
    assert len(payload["outputs"]) == 3
    assert len(payload["derivations"]) == 4


def test_generate_budget_exhausted(capsys):
    code, payload, _ = run_json(
        capsys, "generate", "--grammar", GRAMMAR, "--sem", NP_SEM,
        "--budget", "5")
    assert code == EXIT_BUDGET
    assert payload["budget_exhausted"]


def test_generate_baseline_flags_partial(capsys):
    code, payload, _ = run_json(
        capsys, "generate", "--grammar", GRAMMAR, "--sem", NP_SEM,
        "--algo", "shdg", "--link", "unify", "--budget", "10000")
    assert code == EXIT_BUDGET  # the baseline regress never stops by itself
    assert "the complex sentence" in payload["outputs"]
    flagged = {p["surface"]: p["failures"] for p in payload["partial_outputs"]}
    assert flagged["the sentence"] == ["incomplete"]


def test_generate_no_output_fails(capsys, tmp_path):
    sem = tmp_path / "goal.sem"
    sem.write_text("[cat: np, sem: [rel: program, def: -, mod: <>]]")
    code, payload, _ = run_json(
        capsys, "generate", "--grammar", GRAMMAR, "--sem", str(sem))
    assert code == EXIT_FAIL
    assert payload["outputs"] == []


def test_bare_sem_wrapped_with_root(capsys, tmp_path):
    sem = tmp_path / "goal.sem"
    sem.write_text("[rel: sentence, def: +, mod: <complex>]")
    code, payload, _ = run_json(
        capsys, "generate", "--grammar", GRAMMAR, "--sem", str(sem),
        "--root", "np")
    assert code == EXIT_OK
    assert payload["outputs"] == ["the complex sentence"]
    assert "roots" not in payload


def test_parse_ok_and_unknown_token(capsys):
    code, payload, _ = run_json(
        capsys, "parse", "the complex sentence", "--grammar", GRAMMAR,
        "--root", "np")
    assert code == EXIT_OK
    assert len(payload["analyses"]) == 1

    code, out, err = run(
        capsys, "parse", "the frobnicated sentence", "--grammar", GRAMMAR)
    assert code == EXIT_INPUT
    assert "unknown token" in err


def test_parse_no_analysis_fails(capsys):
    code, _, _ = run_json(
        capsys, "parse", "sentence the", "--grammar", GRAMMAR, "--root", "np")
    assert code == EXIT_FAIL


def test_roundtrip(capsys):
    code, payload, _ = run_json(
        capsys, "roundtrip", "--grammar", GRAMMAR, "--sem", SENTENCE_SEM)
    assert code == EXIT_OK
    assert payload["ok"] and payload["reason"] == "pass"
    assert all(o["coherent"] and o["complete"] for o in payload["outputs"])
    assert (payload["steps"], payload["check_steps"]) == (367, 364)


def test_compare_disagrees_under_budget(capsys):
    code, payload, _ = run_json(
        capsys, "compare", "--grammar", GRAMMAR, "--sem", NP_SEM,
        "--budget", "10000")
    assert code == EXIT_BUDGET
    assert payload["shdg"]["budget_exhausted"]
    assert not payload["skg"]["budget_exhausted"]


def test_analyze(capsys):
    code, payload, _ = run_json(
        capsys, "analyze", "--grammar", GRAMMAR, "--sem", NP_SEM)
    assert code == EXIT_OK
    assert payload["is_sk"] is False
    assert payload["nonsk_weight"] == 1
    assert payload["nonsk_items"] == [{"path": "sem.mod", "item": "complex"}]
    assert len(payload["expansions"]) == 1

    code, payload, _ = run_json(
        capsys, "analyze", "--grammar", GRAMMAR, "--sem", SENTENCE_SEM)
    assert code == EXIT_OK
    assert payload["nonsk_weight"] == 4


def test_missing_grammar_file(capsys):
    code, _, err = run(
        capsys, "generate", "--grammar", "/no/such/file", "--sem", NP_SEM)
    assert code == EXIT_INPUT
    assert "cannot read grammar" in err


def test_bad_semantics_file(capsys, tmp_path):
    sem = tmp_path / "bad.sem"
    sem.write_text("[unclosed")
    code, _, err = run(
        capsys, "generate", "--grammar", GRAMMAR, "--sem", str(sem))
    assert code == EXIT_INPUT
    assert "bad semantics" in err


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("SKG_BUDGET", "1234")
    assert default_budget() == 1234
    monkeypatch.delenv("SKG_BUDGET")
    assert default_budget() == 10 ** 6
    monkeypatch.setenv("SKG_BUDGET", "junk")
    with pytest.raises(ValueError, match="SKG_BUDGET"):
        default_budget()


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_budget_env_var_exits_3(capsys, monkeypatch, value):
    monkeypatch.setenv("SKG_BUDGET", value)
    code, out, err = run(capsys, "generate", "--grammar", GRAMMAR, "--sem", NP_SEM)
    assert code == EXIT_INPUT
    assert err == f"error: SKG_BUDGET must be a positive integer, got {value!r}\n"
    assert out == ""


def test_budget_env_var_drives_generate(capsys, monkeypatch):
    monkeypatch.setenv("SKG_BUDGET", "5")
    code, payload, _ = run_json(
        capsys, "generate", "--grammar", GRAMMAR, "--sem", NP_SEM)
    assert code == EXIT_BUDGET


def test_trace_output(capsys):
    code, payload, _ = run_json(
        capsys, "generate", "--grammar", GRAMMAR, "--sem", NP_SEM, "--trace")
    assert code == EXIT_OK
    assert any("lex" in line for line in payload["trace"])


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "generate", "--grammar", GRAMMAR,
                      "--sem", SENTENCE_SEM, "--format", "json")
    _, second, _ = run(capsys, "generate", "--grammar", GRAMMAR,
                       "--sem", SENTENCE_SEM, "--format", "json")
    assert first == second


@pytest.mark.parametrize("argv, goal", [
    (["generate", "--grammar", GRAMMAR, "--sem", NP_SEM, "--budget", "0"], None),
    (["generate", "--grammar", GRAMMAR, "--sem", NP_SEM, "--budget", "-5"], None),
    (["generate", "--grammar", GRAMMAR, "--sem", NP_SEM, "--budget", "ten"], None),
    (["parse", "the sentence", "--grammar", GRAMMAR, "--budget", "0"], None),
    (["generate", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: [a: b], sem: [rel: sentence]]"),
    (["roundtrip", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: C, sem: [rel: sentence]]"),
    (["analyze", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: np, sem: [rel: sentence, def: +, mod: complex]]"),
    (["generate", "--grammar", GRAMMAR], None),
    (["frobnicate", "--grammar", GRAMMAR], None),
    ([], None),
    (["roundtrip", "--grammar", GRAMMAR, "--sem", NP_SEM, "--trace"], None),
    (["compare", "--grammar", GRAMMAR, "--sem", NP_SEM, "--trace"], None),
    (["analyze", "--grammar", GRAMMAR, "--sem", NP_SEM, "--trace"], None),
    (["analyze", "--grammar", GRAMMAR, "--sem", NP_SEM, "--budget", "0"], None),
    # a feature written as a variable and as a record (a record with a rest,
    # which only a rule may hold), at the top of sem or nested in it
    (["generate", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: np, sem: X, sem: [mod: <complex>, rel: sentence, def: +]]"),
    (["generate", "--algo", "shdg", "--budget", "1000", "--grammar", GRAMMAR,
      "--sem", "GOAL"], "[cat: np, sem: X, sem: [mod: <complex>, rel: sentence, def: +]]"),
    (["roundtrip", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: np, sem: X, sem: [mod: <complex>, rel: sentence, def: +]]"),
    (["compare", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: np, sem: X, sem: [mod: <complex>, rel: sentence, def: +]]"),
    (["analyze", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: np, sem: X, sem: [mod: <complex>, rel: sentence, def: +]]"),
    (["generate", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: s, sem: [mod: <quick>, pred: generate, arg1: X,"
     " arg1: [def: +, mod: <little, prolog>, rel: program],"
     " arg2: [def: +, mod: <complex>, rel: sentence]]]"),
    # a value other than a list at a non-kernel path, at the top of sem or nested
    (["generate", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: np, sem: [rel: sentence, def: +, mod: complex]]"),
    (["roundtrip", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: np, sem: [rel: sentence, def: +, mod: complex]]"),
    (["compare", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: np, sem: [rel: sentence, def: +, mod: complex]]"),
    (["analyze", "--grammar", GRAMMAR, "--sem", "GOAL"],
     "[cat: s, sem: [mod: <>, pred: generate, arg1: [def: +, mod: <>, rel: program],"
     " arg2: [def: +, mod: complex, rel: sentence]]]"),
    # a category that is not an atom, an open list at a non-kernel path, no sem
    *[([command, "--grammar", GRAMMAR, "--sem", "GOAL"], goal)
      for goal in ("[cat: [a: b], sem: [rel: sentence]]",
                   "[cat: np, sem: [rel: sentence, def: +, mod: <complex | T>]]",
                   "[cat: np]")
      for command in ("generate", "roundtrip", "compare", "analyze")],
    # a grammar or goal file that is not UTF-8
    (["check", "--grammar", "GOAL"], b"start s.\n\xff\n"),
    (["generate", "--grammar", GRAMMAR, "--sem", "GOAL"], b"[cat: np, sem: \xff]"),
    # a surface with whitespace, which parse would split into two tokens
    *[(argv, 'rule 1 head 1: [cat: np, sem: S] -> [cat: n, sem: S].\n'
             'lex "ice cream": [cat: n, sem: [rel: icecream]].\n')
      for argv in (["check", "--grammar", "GOAL"],
                   ["parse", "ice cream", "--grammar", "GOAL"])],
    # a bare variable for sem, written in the goal or wrapped from a bare sem
    # (a budget, since the baseline would search its whole budget on one)
    *[([command, "--grammar", GRAMMAR, "--sem", "GOAL", "--budget", "1000"],
       "[cat: np, sem: X]") for command in ("generate", "roundtrip", "compare")],
    (["analyze", "--grammar", GRAMMAR, "--sem", "GOAL"], "[cat: np, sem: X]"),
    (["generate", "--grammar", GRAMMAR, "--sem", "GOAL", "--budget", "1000"], "X"),
    # a second start category
    (["check", "--grammar", "GOAL"], "start s.\nstart np.\n"),
    # a category the grammar never mentions: a parse root, a bare sem's root, a goal's
    (["parse", "the sentence", "--grammar", GRAMMAR, "--root", "zzz"], None),
    (["generate", "--grammar", GRAMMAR, "--sem", "GOAL", "--root", "zzz"],
     "[rel: sentence, def: +, mod: <>]"),
    *[([*command, "--grammar", GRAMMAR, "--sem", "GOAL"], "[cat: zzz, sem: [rel: sentence]]")
      for command in (["generate", "--algo", "shdg"], ["roundtrip"], ["compare"],
                      ["analyze"])],
])
def test_malformed_input_exits_3_with_one_error_line(capsys, tmp_path, argv, goal):
    if goal is not None:
        (tmp_path / "goal.sem").write_bytes(goal if isinstance(goal, bytes) else goal.encode())
        argv = [str(tmp_path / "goal.sem") if a == "GOAL" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out == ""


def test_cyclic_unary_rule_exits_on_budget(capsys, tmp_path):
    grammar = tmp_path / "cyclic.skg"
    grammar.write_text(CYCLIC)
    sem = tmp_path / "go.sem"
    sem.write_text("[cat: s, sem: [pred: go]]")
    code, payload, _ = run_json(capsys, "parse", "go", "--grammar", str(grammar),
                                "--budget", "5000")
    assert code == EXIT_BUDGET and payload["budget_exhausted"]
    code, payload, _ = run_json(capsys, "generate", "--algo", "shdg",
                                "--grammar", str(grammar), "--sem", str(sem),
                                "--budget", "200")
    assert code == EXIT_BUDGET and payload["budget_exhausted"]


def _nested(depth):
    """A goal whose records are nested ``depth`` deep."""
    return "[cat: np, sem: " + "[f: " * (depth - 1) + "a" + "]" * depth


@pytest.mark.parametrize("command", ["generate", "roundtrip", "compare", "analyze"])
def test_deep_goal_exits_3(capsys, tmp_path, command):
    sem = tmp_path / "deep.sem"
    sem.write_text(_nested(5000))
    code, out, err = run(capsys, command, "--grammar", GRAMMAR, "--sem", str(sem))
    assert code == EXIT_INPUT
    assert err.startswith("error: bad semantics: ") and err.count("\n") == 1, err
    assert "nested deeper than 100" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["generate"], ["roundtrip"], ["compare", "--budget", "1000"], ["analyze"],
])
def test_goal_nested_100_deep_runs(capsys, tmp_path, argv):
    sem = tmp_path / "deep.sem"
    sem.write_text(_nested(100))
    code, out, err = run(capsys, *argv, "--grammar", GRAMMAR, "--sem", str(sem))
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_BUDGET) and err == ""
    assert out


@pytest.mark.parametrize("argv", [["check"], ["generate", "--sem", NP_SEM]])
def test_deep_grammar_rule_exits_3(capsys, tmp_path, argv):
    grammar = tmp_path / "deep.skg"
    grammar.write_text("rule 1 head 1: " + _nested(5000) + " -> [cat: n].\n")
    code, out, err = run(capsys, *argv, "--grammar", str(grammar))
    assert code == EXIT_INPUT
    assert err.startswith("error: bad grammar: ") and err.count("\n") == 1, err
    assert out == ""


def test_overlapping_nonsk_paths_exit_3(capsys, tmp_path):
    grammar = tmp_path / "overlap.skg"
    with open(GRAMMAR, encoding="utf-8") as handle:
        grammar.write_text("nonsk sem.a.b.\nnonsk sem.a.\n" + handle.read())
    code, out, err = run(capsys, "check", "--grammar", str(grammar))
    assert code == EXIT_INPUT
    assert err == ("error: bad grammar: nonsk paths sem.a and sem.a.b overlap:"
                   " a list cannot hold a record (line 2)\n")
    assert out == ""


def test_repeated_lexical_entry_exits_3(capsys, tmp_path):
    grammar = tmp_path / "twice.skg"
    grammar.write_text(CYCLIC + 'lex "go": [cat: v, sem: [pred: go]].\n')
    code, out, err = run(capsys, "check", "--grammar", str(grammar))
    assert code == EXIT_INPUT
    assert err == "error: bad grammar: duplicate lexical entry 'go' (line 5)\n"
    assert out == ""


HOMOGRAPHS = """
start x.
rule r1 head 1: [cat: x, sem: S] -> [cat: y, sem: S].
lex "w": [cat: y, sem: [rel: w]].
lex "w": [cat: y, sem: [rel: w], num: sg].
"""


def test_homograph_derivations_print_apart(capsys, tmp_path):
    grammar = tmp_path / "homographs.skg"
    grammar.write_text(HOMOGRAPHS)
    sem = tmp_path / "w.sem"
    sem.write_text("[cat: x, sem: [rel: w]]")
    argv = ["generate", "--grammar", str(grammar), "--sem", str(sem), "--derivations"]
    code, payload, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert payload["derivations"] == ["rule r1\n  lex 'w' (y) #1",
                                      "rule r1\n  lex 'w' (y) #2"]
    code, out, _ = run(capsys, *argv)
    # each line of a derivation is indented under "derivations:"
    assert out.endswith("derivations:\n  rule r1\n    lex 'w' (y) #1\n"
                        "  rule r1\n    lex 'w' (y) #2\n")


def test_parse_derivations(capsys):
    argv = ["parse", "the complex sentence", "--root", "np", "--grammar", GRAMMAR,
            "--derivations"]
    tree = ("rule 6\n  lex 'the' (det)\n  rule 8\n    lex 'complex' (adj)\n"
            "    rule 7\n      lex 'sentence' (n)")
    code, payload, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert payload["derivations"] == [tree]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == ("1 analysis/analyses\n  [def: +, mod: <complex | #0>, rel: sentence]\n"
                   "derivations:\n  " + tree.replace("\n", "\n  ") + "\n")


def test_roundtrip_flags_an_incomplete_output(capsys, tmp_path):
    sem = tmp_path / "goal.sem"
    sem.write_text("[cat: np, sem: [rel: sentence, def: +, mod: <>, x: b]]")
    argv = ["roundtrip", "--grammar", GRAMMAR, "--sem", str(sem)]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_FAIL
    # no analysis is clean, so the check parse runs to its end
    assert out == ("roundtrip: FAIL (check-failed)\n  the sentence  [incomplete]\n"
                   "check steps: 20\n")
    code, payload, _ = run_json(capsys, *argv)
    assert code == EXIT_FAIL
    assert payload["outputs"] == [
        {"surface": "the sentence", "coherent": True, "complete": False}]


def test_roundtrip_budget_exhausted(capsys):
    code, out, _ = run(capsys, "roundtrip", "--grammar", GRAMMAR, "--sem", NP_SEM,
                       "--budget", "5")
    assert code == EXIT_BUDGET
    assert out == "roundtrip: FAIL (budget-exhausted)\ncheck steps: 0\n"


def test_compare_agrees(capsys, tmp_path):
    grammar = tmp_path / "homographs.skg"
    grammar.write_text(HOMOGRAPHS)
    sem = tmp_path / "w.sem"
    sem.write_text("[cat: x, sem: [rel: w]]")
    code, out, _ = run(capsys, "compare", "--grammar", str(grammar), "--sem", str(sem))
    assert code == EXIT_OK
    assert out.endswith("\nagree\n")


def test_analyze_goal_without_sem_exits_3(capsys, tmp_path):
    sem = tmp_path / "goal.sem"
    sem.write_text("[cat: np]")
    code, out, err = run(capsys, "analyze", "--grammar", GRAMMAR, "--sem", str(sem))
    assert code == EXIT_INPUT
    assert err == "error: goal has no sem feature\n" and out == ""


@pytest.mark.parametrize("command", ["generate", "roundtrip", "analyze"])
def test_goal_whose_sem_is_a_bare_variable_exits_3(capsys, tmp_path, command):
    # generating from it would give every np the lexicon has
    sem = tmp_path / "goal.sem"
    sem.write_text("[cat: np, sem: X]")
    code, out, err = run(capsys, command, "--grammar", GRAMMAR, "--sem", str(sem))
    assert code == EXIT_INPUT
    assert err == "error: goal sem is a bare variable\n" and out == ""


def test_check_warns_without_nonsk_paths(capsys, tmp_path):
    grammar = tmp_path / "homographs.skg"
    grammar.write_text(HOMOGRAPHS)
    code, out, _ = run(capsys, "check", "--grammar", str(grammar))
    assert code == EXIT_OK
    assert out.endswith("nonsk paths: (none)\nrule r1: SK  x -> y\nlexicon: 2 entries\n"
                        "warning: no non-kernel paths declared\n")
    code, payload, _ = run_json(capsys, "check", "--grammar", str(grammar))
    assert payload["warnings"] == ["no non-kernel paths declared"]


def test_check_warns_about_a_unary_rule_cycle(capsys, tmp_path):
    grammar = tmp_path / "cyclic.skg"
    grammar.write_text(CYCLIC)
    code, out, _ = run(capsys, "check", "--grammar", str(grammar))
    assert code == EXIT_OK
    assert [line for line in out.splitlines() if "cycle" in line] == \
        ["warning: unary rule cycle over s: rule 1"]
    code, payload, _ = run_json(capsys, "check", "--grammar", str(grammar))
    assert "unary rule cycle over s: rule 1" in payload["warnings"]
    _, payload, _ = run_json(capsys, "check", "--grammar", GRAMMAR)
    assert payload["warnings"] == []


# The grammar declares sem.mod, but its one rule grows sem.adj.
UNGROWN_PATH = """
nonsk sem.mod.
rule 1 head 2: [cat: np, sem: N, sem: [adj: <M | Ms>]]
  -> [cat: adj, sem: M], [cat: np, sem: N, sem: [adj: Ms]].
lex "dog": [cat: np, sem: [rel: dog, adj: <>]].
lex "big": [cat: adj, sem: big].
"""


def test_check_warns_about_a_non_kernel_path_no_rule_grows(capsys, tmp_path):
    grammar = tmp_path / "ungrown.skg"
    grammar.write_text(UNGROWN_PATH)
    code, out, _ = run(capsys, "check", "--grammar", str(grammar))
    assert code == EXIT_OK
    assert out.endswith("rule 1: SK  np -> adj, np\nlexicon: 2 entries\n"
                        "warning: no rule grows non-kernel path sem.mod\n")
    code, payload, _ = run_json(capsys, "check", "--grammar", str(grammar))
    assert code == EXIT_OK
    assert payload["warnings"] == ["no rule grows non-kernel path sem.mod"]


def test_check_warns_about_a_start_category_nothing_builds(capsys, tmp_path):
    grammar = tmp_path / "nostart.skg"
    grammar.write_text("start x.\nrule 1 head 1: [cat: s, sem: S] -> [cat: v, sem: S].\n"
                       'lex "go": [cat: v, sem: [pred: go]].\n')
    code, payload, _ = run_json(capsys, "check", "--grammar", str(grammar))
    assert code == EXIT_OK
    assert payload["warnings"] == ["no non-kernel paths declared",
                                   "no entry or rule builds category x"]


def test_missing_semantics_file(capsys):
    code, out, err = run(capsys, "generate", "--grammar", GRAMMAR, "--sem", "/no/such.sem")
    assert code == EXIT_INPUT
    assert err.startswith("error: cannot read semantics: ") and err.count("\n") == 1
    assert out == ""


NO_SEMANTICS = """
start s. nonsk sem.mod.
rule r head 1: [cat: s] -> [cat: w].
lex "w": [cat: w].
"""


def test_roundtrip_fails_an_output_whose_parse_has_no_semantics(capsys, tmp_path):
    grammar = tmp_path / "nosem.skg"
    grammar.write_text(NO_SEMANTICS)
    sem = tmp_path / "x.sem"
    sem.write_text("[cat: s, sem: [rel: x]]")
    code, out, _ = run(capsys, "roundtrip", "--grammar", str(grammar), "--sem", str(sem))
    assert code == EXIT_FAIL
    assert out == "roundtrip: FAIL (check-failed)\n  w  [incomplete]\ncheck steps: 8\n"
    code, payload, _ = run_json(capsys, "generate", "--algo", "shdg", "--budget", "1000",
                                "--grammar", str(grammar), "--sem", str(sem))
    assert payload["partial_outputs"] == [{"surface": "w", "failures": ["no-semantics"]}]


def test_json_output_does_not_depend_on_the_hash_seed():
    sentence = "quickly the little prolog program generated the complex sentence"
    runs = [["generate", "--grammar", GRAMMAR, "--sem", sem, "--derivations",
             "--format", "json"] for sem in (NP_SEM, SENTENCE_SEM)]
    # the baseline's budget cuts its search, so its outputs depend on the order
    # in which rules are tried
    runs += [["generate", "--algo", "shdg", "--link", link, "--budget", "10000",
              "--grammar", GRAMMAR, "--sem", NP_SEM, "--format", "json"]
             for link in ("unify", "substructure")]
    runs += [["parse", "the complex sentence", "--root", "np", "--grammar", GRAMMAR,
              "--format", "json"],
             ["parse", sentence, "--grammar", GRAMMAR, "--format", "json"]]
    formats = ([], ["--format", "json"])
    runs += [["check", "--grammar", GRAMMAR] + fmt for fmt in formats]
    runs += [[command, "--grammar", GRAMMAR, "--sem", sem] + extra + fmt
             for command, extra in (("roundtrip", []), ("compare", ["--budget", "10000"]),
                                    ("analyze", []))
             for sem in (NP_SEM, SENTENCE_SEM) for fmt in formats]
    script = ("import json, sys\nfrom skg.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    main(argv)\n")
    src = os.path.join(HERE, os.pardir, "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count('"derivations"') == 2 and outputs[0].count('"analyses"') == 2
    assert outputs[0].count('"partial_outputs"') == 2


def _quick_start():
    """The ``skg`` commands of README's quick start, each with the exit status
    its ``# exits N`` note gives, or 0."""
    readme = pathlib.Path(ROOT, "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("skg "):
            note = re.search(r"# exits (\d)", line)
            yield shlex.split(line, comments=True)[1:], int(note[1]) if note else EXIT_OK


def test_readme_quick_start_exit_statuses(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    commands = list(_quick_start())
    assert {argv[0] for argv, _ in commands} == {
        "generate", "parse", "roundtrip", "compare", "analyze", "check"}
    for argv, status in commands:
        code, _, err = run(capsys, *argv)
        assert code == status, (argv, err)


FUZZ_FILES = {name: pathlib.Path(ROOT, "grammars", name).read_text(encoding="utf-8")
              for name in ("paper.skg", "np.sem", "sentence.sem")}
FUZZ_PIECES = [*"[]<>,:|.()%\"#\n", "->", " ", "start", "nonsk", "rule", "lex", "head",
               "sk", "_"]


@st.composite
def _mutated(draw):
    """A bundled file with spans deleted or duplicated and DSL pieces inserted."""
    name = draw(st.sampled_from(sorted(FUZZ_FILES)))
    text = FUZZ_FILES[name]
    for _ in range(draw(st.integers(1, 4))):
        i, n = draw(st.integers(0, len(text))), draw(st.integers(1, 30))
        edit = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if edit == "delete":
            text = text[:i] + text[i + n:]
        elif edit == "duplicate":
            text = text[:i] + text[i:i + n] + text[i:]
        else:
            text = text[:i] + draw(st.sampled_from(FUZZ_PIECES)) + text[i:]
    return name, text, draw(st.integers(0, 5)) == 0


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=_mutated())
def test_fuzzed_files_load_or_exit_3_with_one_error_line(fuzz_dir, case):
    name, text, through_cli = case
    for load in (load_grammar, parse_value):
        try:
            load(text)
        except (AvmSyntaxError, GrammarError):
            pass
    if not through_cli:
        return
    path = fuzz_dir / name
    path.write_text(text, encoding="utf-8")
    budget = ["--budget", "2000"]
    runs = ([["check", "--grammar", str(path)],
             ["generate", "--grammar", str(path), "--sem", NP_SEM, *budget]]
            if name.endswith(".skg") else
            [["generate", "--grammar", GRAMMAR, "--sem", str(path), *budget]])
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_BUDGET, EXIT_INPUT), argv
        if code == EXIT_INPUT:
            assert err.getvalue().startswith("error: ") \
                and err.getvalue().count("\n") == 1, err.getvalue()


# Adversarial grammars, end to end: no lexicon, two non-kernel paths, and a
# non-kernel path two records deep.
EMPTY_LEXICON = """
start s.
rule 1 head 1: [cat: s, sem: S] -> [cat: v, sem: S].
"""

TWO_NONSK_PATHS = """
start np.
nonsk sem.mod.
nonsk sem.adj.
rule 1 nonsk head 2: [cat: np, sem: N, sem: [mod: <M | Ms>]]
  -> [cat: det, sem: M], [cat: np, sem: N, sem: [mod: Ms]].
rule 2 nonsk head 2: [cat: np, sem: N, sem: [adj: <M | Ms>]]
  -> [cat: adj, sem: M], [cat: np, sem: N, sem: [adj: Ms]].
lex "dog": [cat: np, sem: [rel: dog, mod: <>, adj: <>]].
lex "big": [cat: adj, sem: big].
lex "the": [cat: det, sem: the].
"""

DEEP_NONSK_PATH = """
start np.
nonsk sem.info.mods.
rule 1 nonsk head 2: [cat: np, sem: N, sem: [info: [mods: <M | Ms>]]]
  -> [cat: adj, sem: M], [cat: np, sem: N, sem: [info: [mods: Ms]]].
lex "dog": [cat: np, sem: [rel: dog, info: [mods: <>]]].
lex "big": [cat: adj, sem: big].
lex "old": [cat: adj, sem: old].
"""


def _grammar_and_goal(tmp_path, grammar, sem):
    (tmp_path / "g.skg").write_text(grammar)
    (tmp_path / "goal.sem").write_text(sem)
    return ["--grammar", str(tmp_path / "g.skg"), "--sem", str(tmp_path / "goal.sem")]


def test_a_grammar_with_an_empty_lexicon(capsys, tmp_path):
    files = _grammar_and_goal(tmp_path, EMPTY_LEXICON, "[rel: go]")
    code, out, _ = run(capsys, "check", *files[:2])
    assert code == EXIT_OK and "lexicon: 0 entries\n" in out
    assert "warning: no entry or rule builds category v\n" in out
    code, payload, _ = run_json(capsys, "check", *files[:2])
    assert code == EXIT_OK
    assert payload["warnings"] == ["no non-kernel paths declared",
                                   "no entry or rule builds category v"]
    code, payload, _ = run_json(capsys, "generate", *files)
    assert code == EXIT_FAIL
    assert (payload["outputs"], payload["steps"]) == ([], 0)
    code, payload, _ = run_json(capsys, "roundtrip", *files)
    assert code == EXIT_FAIL
    assert (payload["ok"], payload["reason"]) == (False, "no-output")
    code, out, err = run(capsys, "parse", "go", *files[:2])
    assert code == EXIT_INPUT and err == "error: unknown token 'go'\n" and out == ""


def test_two_non_kernel_paths(capsys, tmp_path):
    files = _grammar_and_goal(tmp_path, TWO_NONSK_PATHS,
                              "[rel: dog, mod: <the>, adj: <big>]")
    code, payload, _ = run_json(capsys, "generate", *files)
    assert code == EXIT_OK
    assert (payload["outputs"], payload["steps"]) == (["big the dog", "the big dog"], 85)
    files = _grammar_and_goal(tmp_path, TWO_NONSK_PATHS,
                              "[rel: dog, mod: <the>, adj: <big, big>]")
    code, payload, _ = run_json(capsys, "roundtrip", *files)
    assert code == EXIT_OK and payload["ok"]
    assert sorted(o["surface"] for o in payload["outputs"]) == [
        "big big the dog", "big the big dog", "the big big dog"]


def test_a_non_kernel_path_two_records_deep(capsys, tmp_path):
    files = _grammar_and_goal(tmp_path, DEEP_NONSK_PATH,
                              "[rel: dog, info: [mods: <big, old>]]")
    code, payload, _ = run_json(capsys, "generate", *files)
    assert code == EXIT_OK
    assert (payload["outputs"], payload["steps"]) == (["big old dog"], 58)
    code, payload, _ = run_json(capsys, "roundtrip", *files)
    assert code == EXIT_OK and payload["ok"]
    assert [o["surface"] for o in payload["outputs"]] == ["big old dog"]
