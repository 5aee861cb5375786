"""Subgoal tabulation in kernel-driven generation.

``generate`` solves each ground daughter goal once per call and replays
its solutions after that; these tests hold it to plain search, pin the
step count it saves, and pin the baseline and the parser, which do not
use the table, to the figures they had before it.
"""

import random

import pytest
from oracle import random_goal

from skg import (
    SUBSTRUCTURE_LINK,
    UNIFY_LINK,
    GenConfig,
    format_derivation,
    generate,
    generate_shdg,
    load_grammar,
    parse,
    parse_value,
)
from skg.generator import _kernel_pivots
from skg.search import Search, distinct_outputs

LADDER = ("[cat: s, sem: [mod: <{}>, pred: generate,"
          " arg1: [def: +, mod: <little, prolog>, rel: program],"
          " arg2: [def: +, mod: <complex>, rel: sentence]]]")


def ladder_goal(k):
    return parse_value(LADDER.format(", ".join(["quick"] * k)))


def untabled(grammar, goal):
    """Outputs of a plain search with the same four settings as ``generate``."""
    search = Search(grammar, GenConfig(), grammar.tables.sk, _kernel_pivots)
    assert search.table is None
    return list(distinct_outputs(search, search.env.instantiate(goal, {})))


def assert_same_outputs(grammar, goal):
    tabled = generate(grammar, goal).outputs
    plain = untabled(grammar, goal)
    assert [t for t, _, _ in tabled] == [t for t, _, _ in plain]
    assert [format_derivation(d) for _, d, _ in tabled] \
        == [format_derivation(d) for _, d, _ in plain]
    assert [r for _, _, r in tabled] == [r for _, _, r in plain]


def test_fixtures_match_plain_search(grammar, np_goal, sentence_goal):
    for goal in (np_goal, sentence_goal):
        assert_same_outputs(grammar, goal)


@pytest.mark.parametrize("k", range(5))
def test_ladder_matches_plain_search(grammar, k):
    assert_same_outputs(grammar, ladder_goal(k))


def test_random_goals_match_plain_search(grammar):
    rng = random.Random(3)
    for _ in range(20):
        assert_same_outputs(grammar, random_goal(rng))


# A sister whose solution is more specific than its ground goal: the np
# rule adds ``num: pl``, which the adverb sister then has to agree with.
# Replaying the np's solutions without that would lose the only output.
REFINING = """
rule 1 head 2: [cat: s, sem: [pred: P, arg: X]]
  -> [cat: np, sem: X], [cat: v, sem: [pred: P, arg: X]], [cat: adv, sem: X].
rule 2 head 1: [cat: np, sem: [rel: R, num: pl]] -> [cat: n, sem: [rel: R]].
lex "dogs": [cat: n, sem: [rel: dog]].
lex "sleep": [cat: v, sem: [pred: sleep]].
lex "alone": [cat: adv, sem: [num: sg]].
lex "together": [cat: adv, sem: [num: pl]].
"""


def test_refining_sister_matches_plain_search():
    grammar = load_grammar(REFINING)
    goal = parse_value("[cat: s, sem: [pred: sleep, arg: [rel: dog]]]")
    assert generate(grammar, goal).surfaces == ["dogs sleep together"]
    assert_same_outputs(grammar, goal)


def test_ladder_steps(grammar):
    result = generate(grammar, ladder_goal(6))
    assert result.steps_used <= 20_000  # 111,936 without the table
    assert len(set(result.surfaces)) == 28
    assert not result.exhausted_budget


# Exact step counts: tier-1 catches a change in the search's work.
@pytest.mark.parametrize("k, steps", enumerate(
    [251, 469, 904, 1_760, 3_428, 6_701, 13_206, 26_300]))
def test_ladder_steps_exact(grammar, k, steps):
    assert generate(grammar, ladder_goal(k)).steps_used == steps


def test_fixture_steps_exact(grammar, np_goal, sentence_goal):
    assert generate(grammar, np_goal).steps_used == 71
    assert generate(grammar, sentence_goal).steps_used == 469


def test_early_outputs_survive(grammar, sentence_goal):
    result = generate(grammar, sentence_goal, GenConfig(step_budget=300))
    assert result.exhausted_budget
    assert result.outputs
    assert len(generate(grammar, sentence_goal, GenConfig(max_results=1)).outputs) == 1


def test_trace_notes_table_reuse(grammar):
    goal = ladder_goal(2)
    log = generate(grammar, goal, GenConfig(trace=True)).trace_log
    assert any(line.startswith("table [cat: adv") for line in log)
    assert not generate(grammar, goal).trace_log


# Figures of the search before the table existed: the baseline and the
# parser do not use it and must not change.
@pytest.mark.parametrize("mode", [UNIFY_LINK, SUBSTRUCTURE_LINK])
def test_baseline_unchanged(grammar, np_goal, sentence_goal, mode):
    cfg = GenConfig(step_budget=10 ** 4)
    np_result = generate_shdg(grammar, np_goal, mode, cfg)
    assert (np_result.steps_used, np_result.surfaces, np_result.partial_surfaces) \
        == (10 ** 4 + 1, ["the complex sentence"], ["the sentence"])
    s_result = generate_shdg(grammar, sentence_goal, mode, cfg)
    assert (s_result.steps_used, s_result.surfaces, s_result.partial_surfaces) \
        == (10 ** 4 + 1, [], ["the program generated the sentence",
                              "quickly the program generated the sentence"])


@pytest.mark.parametrize("sentence, root, steps, analyses", [
    ("the complex sentence", "np", 60, 1),
    ("quickly the little prolog program generated the complex sentence", None, 276, 1),
    ("the little prolog program quickly generated the complex sentence", None, 394, 2),
])
def test_parser_unchanged(grammar, sentence, root, steps, analyses):
    result = parse(grammar, sentence, root_cat=root)
    assert (result.steps_used, len(result.analyses)) == (steps, analyses)
