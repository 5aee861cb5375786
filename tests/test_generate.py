"""Kernel-driven generation tests."""

import json

import pytest
from oracle import oracle_surfaces

import skg
from skg import (
    SUBSTRUCTURE_LINK,
    UNIFY_LINK,
    GenConfig,
    GenerationError,
    generate,
    get,
    nonsk_expansions,
    nonsk_weight,
    parse_value,
    render,
    roundtrip,
)


def P(text):
    return parse_value(text)


def surfaces(result):
    return sorted(set(result.surfaces))


def test_np_goal(grammar, np_goal):
    result = generate(grammar, np_goal)
    assert surfaces(result) == ["the complex sentence"]
    assert not result.exhausted_budget


def test_sentence_goal_three_strings_four_derivations(grammar, sentence_goal):
    result = generate(grammar, sentence_goal)
    assert surfaces(result) == [
        "quickly the little prolog program generated the complex sentence",
        "the little prolog program generated the complex sentence quickly",
        "the little prolog program quickly generated the complex sentence",
    ]
    # the pre-verbal adverb has two structures (attach before or after
    # the object is picked up), so there are four derivations in total
    assert len(result.outputs) == 4


def test_kernel_goal_direct(grammar):
    result = generate(grammar, P("[cat: n2, sem: [rel: sentence]]"))
    assert surfaces(result) == ["sentence"]


def test_kernel_sentence_goal(grammar):
    goal = P("""[cat: s, sem: [pred: generate, mod: <>,
                 arg1: [rel: program, def: +, mod: <>],
                 arg2: [rel: sentence, def: +, mod: <>]]]""")
    result = generate(grammar, goal)
    assert surfaces(result) == ["the program generated the sentence"]


def test_unrealizable_goal_produces_nothing(grammar):
    result = generate(grammar, P("[cat: np, sem: [rel: unicorn, def: +]]"))
    assert result.outputs == []
    assert not result.exhausted_budget


def test_root_description_resolved(grammar, np_goal):
    result = generate(grammar, np_goal)
    (tokens, deriv, root), = result.outputs
    assert tokens == ("the", "complex", "sentence")
    assert get(root, ("sem", "mod")) == P("<complex>")
    assert get(root, ("sem", "def")) == P("+")


def test_budget_exhaustion_reported(grammar, sentence_goal):
    result = generate(grammar, sentence_goal, GenConfig(step_budget=20))
    assert result.exhausted_budget
    assert result.steps_used >= 20


def test_max_results(grammar, sentence_goal):
    result = generate(grammar, sentence_goal, GenConfig(max_results=1))
    assert len(result.outputs) == 1


@pytest.mark.parametrize("limit", [0, -1])
def test_max_results_must_be_positive(limit):
    with pytest.raises(ValueError):
        GenConfig(max_results=limit)


def test_deterministic(grammar, sentence_goal):
    a = generate(grammar, sentence_goal)
    b = generate(grammar, sentence_goal)
    assert [o[0] for o in a.outputs] == [o[0] for o in b.outputs]
    assert a.steps_used == b.steps_used


def test_parity_dump_of_the_fixtures_repeats(grammar):
    import parity
    lines = list(parity.fixture_lines(grammar))
    assert lines == list(parity.fixture_lines(grammar))
    assert [json.loads(line)[4] for line in lines[:3:2]] == [57, 367]  # generate steps


def test_trace_names_rules_and_entries(grammar, np_goal):
    result = generate(grammar, np_goal, GenConfig(trace=True))
    log = "\n".join(result.trace_log)
    for needle in ("8", "6", "7", "the", "complex", "sentence"):
        assert needle in log


def test_nonsk_weight(grammar, np_goal, sentence_goal):
    assert nonsk_weight(P("[rel: sentence]"), grammar) == 0
    assert nonsk_weight(get(np_goal, ("sem",)), grammar) == 1
    assert nonsk_weight(get(sentence_goal, ("sem",)), grammar) == 4


def test_nonsk_expansions_np(grammar, np_goal):
    expansions = nonsk_expansions(grammar, np_goal)
    assert [rule.id for rule, _ in expansions] == ["8"]
    rule, subgoals = expansions[0]
    rendered = [render(s) for s in subgoals]
    # the modifier becomes an adj subgoal; the head loses one list item
    assert any("complex" in r for r in rendered)
    head = subgoals[rule.head_index]
    assert get(head, ("sem", "mod")) == P("<>")
    assert nonsk_weight(get(head, ("sem",)), grammar) == 0


def test_nonsk_expansions_sentence(grammar, sentence_goal):
    expansions = nonsk_expansions(grammar, sentence_goal)
    ids = sorted(rule.id for rule, _ in expansions)
    assert ids == ["1a", "1b", "3"]
    for rule, subgoals in expansions:
        head = subgoals[rule.head_index]
        assert nonsk_weight(get(head, ("sem",)), grammar) == 3


# A PP adjunct whose object NP carries its own adjunct: non-kernel
# elements at depth > 1, which the progress check counts too.
NESTED = """
start np.
nonsk sem.mod.
rule 1 head 2: [cat: np, sem: N, sem: [def: D]] -> [cat: det, sem: [def: D]], [cat: n2, sem: N].
rule 2 head 1: [cat: n2, sem: N] -> [cat: n, sem: N].
rule 3 nonsk head 1: [cat: n2, sem: N, sem: [mod: <M | Mods>]]
  -> [cat: n2, sem: N, sem: [mod: Mods]], [cat: pp, sem: M].
rule 4 nonsk head 2: [cat: n2, sem: N, sem: [mod: <M | Mods>]]
  -> [cat: adj, sem: M], [cat: n2, sem: N, sem: [mod: Mods]].
rule 5 head 1: [cat: pp, sem: [rel: R, obj: O]]
  -> [cat: p, sem: [rel: R, obj: O]], [cat: np, sem: O].
lex "the": [cat: det, sem: [def: +]].
lex "dog": [cat: n, sem: [rel: dog]].
lex "park": [cat: n, sem: [rel: park]].
lex "in": [cat: p, sem: [rel: in]].
lex "big": [cat: adj, sem: big].
"""
IN_THE_BIG_PARK = "[rel: in, obj: [def: +, rel: park, mod: <big>]]"


@pytest.mark.parametrize("mods, surface", [
    (f"<{IN_THE_BIG_PARK}>", "the dog in the big park"),
    (f"<big, {IN_THE_BIG_PARK}>", "the big dog in the big park"),
])
def test_nested_nonkernel_content_generates(mods, surface):
    g = skg.load_grammar(NESTED)
    goal = P(f"[cat: np, sem: [def: +, rel: dog, mod: {mods}]]")
    result = generate(g, goal)
    assert result.surfaces == [surface]
    assert {tokens for tokens, _, _ in result.outputs} \
        == oracle_surfaces(g, goal, len(surface.split()))
    assert roundtrip(g, goal).ok
    for mode in (UNIFY_LINK, SUBSTRUCTURE_LINK):
        baseline = skg.generate_shdg(g, goal, mode, GenConfig(step_budget=10 ** 4))
        assert baseline.exhausted_budget and not baseline.outputs


def test_nested_expansion_makes_progress():
    # the adjunct leaves the head with its own <big>: the head's weight
    # falls by two, which a check for a fall of exactly one rejected
    g = skg.load_grammar(NESTED)
    goal = P(f"[cat: np, sem: [def: +, rel: dog, mod: <{IN_THE_BIG_PARK}>]]")
    assert nonsk_weight(get(goal, ("sem",)), g) == 2
    expansions = nonsk_expansions(g, goal)
    assert [rule.id for rule, _ in expansions] == ["3", "4"]
    for rule, subgoals in expansions:
        assert nonsk_weight(get(subgoals[rule.head_index], ("sem",)), g) == 0


def test_nonsk_expansions_requires_nonsk_goal(grammar):
    with pytest.raises(GenerationError):
        nonsk_expansions(grammar, P("[cat: n2, sem: [rel: sentence]]"))


# A sister daughter with no sem: its goal constrains only the category, so
# an entry with a sem of its own is attached as it is.
PARTICLE = """
rule 1 head 1: [cat: s, sem: S] -> [cat: v, sem: S], [cat: prt].
lex "gave": [cat: v, sem: [pred: give]].
lex "up": [cat: prt, sem: up].
"""


def test_a_daughter_without_sem_takes_an_entry_with_one():
    result = generate(skg.load_grammar(PARTICLE), P("[cat: s, sem: [pred: give]]"))
    assert result.surfaces == ["gave up"]


def test_generation_error_on_missing_cat(grammar):
    with pytest.raises((GenerationError, skg.GrammarError)):
        generate(grammar, P("[sem: [rel: sentence]]"))


@pytest.mark.parametrize("goal, message", [
    ("[cat: np, sem: X, sem: [mod: <complex>, rel: sentence, def: +]]",
     "goal repeats feature sem with a variable"),
    ("[cat: s, sem: [mod: <>, pred: generate, arg1: X, arg1: [def: +, mod: <>, rel: a],"
     " arg2: [def: +, mod: <>, rel: b]]]", "goal repeats feature sem.arg1 with a variable"),
    ("[cat: np, sem: [rel: sentence, def: +, mod: complex]]",
     "non-kernel path mod holds a non-list value"),
    ("[cat: s, sem: [mod: <>, pred: generate, arg1: [def: +, mod: <>, rel: a],"
     " arg2: [def: +, mod: <[mod: M]>, rel: b]]]",
     "non-kernel path arg2.mod.mod holds a non-list value"),
    # the first fault in reading order: the first list item's
    ("[cat: np, sem: [rel: sentence, def: +, mod: <[arg: [mod: a]], [mod: b]>]]",
     "non-kernel path mod.arg.mod holds a non-list value"),
    # a goal that leaves its whole sem open
    ("[cat: np, sem: X]", "goal sem is a bare variable"),
    # a category no rule or entry mentions
    ("[cat: zzz, sem: [rel: sentence, def: +, mod: <>]]", "unknown goal category 'zzz'"),
])
def test_every_generator_rejects_a_malformed_goal(grammar, goal, message):
    goal = P(goal)
    for run in (lambda: generate(grammar, goal),
                lambda: skg.generate_shdg(grammar, goal, UNIFY_LINK),
                lambda: nonsk_expansions(grammar, goal),
                lambda: roundtrip(grammar, goal)):
        with pytest.raises(GenerationError, match=message):
            run()
