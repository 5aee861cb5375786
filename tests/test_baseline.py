"""Baseline (non-kernel-gated) generation tests."""

import tracemalloc

import pytest

from skg import (
    SUBSTRUCTURE_LINK,
    UNIFY_LINK,
    Avm,
    Env,
    GenConfig,
    generate,
    generate_shdg,
    load_grammar,
    parse_value,
)
from skg.baseline import _link_pivot


def P(text):
    return parse_value(text)


def semantic_link(mode, goal_sem, entry_sem):
    """The baseline's link check for an entry with ``entry_sem``."""
    env = Env()
    pivot = env.instantiate(Avm((("sem", entry_sem),)), {})
    return _link_pivot(env, mode, pivot, env.instantiate(goal_sem, {}))


def test_semantic_link_unify():
    assert semantic_link(UNIFY_LINK, P("[rel: sentence, def: +]"),
                         P("[rel: sentence]"))
    assert not semantic_link(UNIFY_LINK, P("[rel: sentence]"),
                             P("[rel: program]"))


def test_semantic_link_substructure():
    goal = P("[pred: generate, arg1: [rel: program]]")
    assert semantic_link(SUBSTRUCTURE_LINK, goal, P("[rel: program]"))
    # records are open, so an entry is rejected only when it clashes with
    # every substructure of the goal
    assert not semantic_link(SUBSTRUCTURE_LINK, P("[rel: program]"),
                             P("[rel: sentence]"))
    # unify-link checks the top level only
    assert not semantic_link(UNIFY_LINK, P("[rel: program]"),
                             P("[rel: sentence]"))
    assert semantic_link(UNIFY_LINK, P("[pred: generate]"),
                         P("[rel: program]"))


def test_semantic_link_unknown_mode():
    with pytest.raises(ValueError):
        generate_shdg(None, P("[cat: s]"), "bogus")  # checked before use


def test_baseline_does_not_terminate_on_modified_np(grammar, np_goal):
    for budget in (10 ** 3, 10 ** 4, 10 ** 5):
        result = generate_shdg(grammar, np_goal, UNIFY_LINK,
                               GenConfig(step_budget=budget))
        assert result.exhausted_budget
        assert result.steps_used >= budget


# Two non-kernel paths, each with its own adverb rule: the regress can
# grow either list.
TWO_LISTS = """
start s.
nonsk sem.mod.
nonsk sem.adj.
rule m nonsk head 1:
  [cat: s, sem: S, sem: [mod: <M | Mods>]]
  -> [cat: s, sem: S, sem: [mod: Mods]], [cat: adv, sem: M].
rule a nonsk head 1:
  [cat: s, sem: S, sem: [adj: <M | Mods>]]
  -> [cat: s, sem: S, sem: [adj: Mods]], [cat: adv, sem: M].
lex "goes": [cat: s, sem: [pred: go]].
lex "fast": [cat: adv, sem: fast].
"""


@pytest.mark.parametrize("case", ["np", "two-lists"])
def test_regress_memory_is_linear(grammar, np_goal, case):
    # each level of the regress adds one modifier; a level that copies the
    # list (instead of sharing its chain of bound tails) makes the peak
    # grow with the square of the depth: 4x the steps took 6.8x the peak
    # on np.sem and 9.4x on two-lists
    goal = np_goal
    if case == "two-lists":
        grammar = load_grammar(TWO_LISTS)
        goal = P("[cat: s, sem: [pred: go, mod: <fast>, adj: <fast>]]")
    peaks = []
    for budget in (25 * 10 ** 3, 10 ** 5):
        tracemalloc.start()
        try:
            result = generate_shdg(grammar, goal, UNIFY_LINK, GenConfig(step_budget=budget))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.exhausted_budget
    assert peaks[1] <= 5 * peaks[0], peaks


def test_baseline_flags_partial_output(grammar, np_goal):
    result = generate_shdg(grammar, np_goal, UNIFY_LINK,
                           GenConfig(step_budget=10 ** 4))
    assert "the sentence" in result.partial_surfaces
    flagged = {" ".join(t): fails for t, _, _, fails in result.partial_outputs}
    assert flagged["the sentence"] == ("incomplete",)
    # the good output is still found (and not flagged)
    assert "the complex sentence" in result.surfaces


def test_baseline_substructure_mode(grammar, np_goal):
    result = generate_shdg(grammar, np_goal, SUBSTRUCTURE_LINK,
                           GenConfig(step_budget=10 ** 4))
    assert result.exhausted_budget
    assert "the complex sentence" in result.surfaces
    assert "the sentence" in result.partial_surfaces


def test_baseline_terminates_on_trivial_goal(grammar):
    result = generate_shdg(grammar, P("[cat: det, sem: [def: +]]"),
                           UNIFY_LINK, GenConfig(step_budget=10 ** 4))
    assert not result.exhausted_budget
    assert sorted(set(result.surfaces)) == ["the"]


def test_baseline_agrees_with_generator_on_kernel_goal(grammar):
    goal = P("""[cat: s, sem: [pred: generate, mod: <>,
                 arg1: [rel: sentence, def: +, mod: <>],
                 arg2: [rel: program, def: +, mod: <>]]]""")
    want = sorted(set(generate(grammar, goal).surfaces))
    assert want == ["the sentence generated the program"]
    for mode in (UNIFY_LINK, SUBSTRUCTURE_LINK):
        result = generate_shdg(grammar, goal, mode,
                               GenConfig(step_budget=3 * 10 ** 4))
        assert sorted(set(result.surfaces)) == want


def test_baseline_trace(grammar, np_goal):
    result = generate_shdg(grammar, np_goal, UNIFY_LINK,
                           GenConfig(step_budget=2000, trace=True))
    log = "\n".join(result.trace_log)
    assert "lex" in log and "local-success" in log
