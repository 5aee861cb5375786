"""End-to-end checks of the command-line interface and its exit codes."""

import json
import os

import pytest

from skg.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_INPUT, EXIT_OK, main
from skg.search import default_budget
from test_search import CYCLIC

HERE = os.path.dirname(__file__)
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
    monkeypatch.setenv("SKG_BUDGET", "junk")
    assert default_budget() == 10 ** 6


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
])
def test_malformed_input_exits_3_with_one_error_line(capsys, tmp_path, argv, goal):
    if goal is not None:
        (tmp_path / "goal.sem").write_text(goal)
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
