"""Subgoal tabulation and completion rows in kernel-driven generation.

``generate`` solves each variant of a daughter goal once per call and
answers it with its derivations packed, one solution per end position
and description, which the output unpacks; these tests hold it to plain
search, pin the step count it saves, and pin the baseline and the
parser, which do not use the table, to their figures.  ``generate`` and
``parse`` complete a pivot only through what its category can match;
they are held to a search that tries every plan of the goal on every
pivot.
"""

import random

import pytest
from oracle import _ADJS, _NOUNS, random_goal

from skg import (
    SUBSTRUCTURE_LINK,
    UNIFY_LINK,
    GenConfig,
    Grammar,
    format_derivation,
    generate,
    generate_shdg,
    load_grammar,
    normalize,
    parse,
    parse_value,
    render,
    roundtrip,
    serialize_grammar,
)
from skg.generator import _kernel_pivots
from skg.grammar import LOCAL, SK, plan_table
from skg.search import PLAIN, Leaf, Node, Packed, Search, distinct_outputs

LADDER = ("[cat: s, sem: [mod: <{}>, pred: generate,"
          " arg1: [def: +, mod: <little, prolog>, rel: program],"
          " arg2: [def: +, mod: <complex>, rel: sentence]]]")


def ladder_goal(k):
    return parse_value(LADDER.format(", ".join(["quick"] * k)))


def multi_adverb_goals():
    """Sentence goals with 2-4 sentence adverbs and 0-2 adjectives in each
    np: goals whose tabled subgoals have several derivations each."""
    rng = random.Random(25)

    def np(n):
        adjectives = ", ".join(rng.choice(_ADJS) for _ in range(n))
        return f"[def: +, mod: <{adjectives}>, rel: {rng.choice(_NOUNS)}]"

    return [parse_value(f"[cat: s, sem: [mod: <{', '.join(['quick'] * k)}>,"
                        f" pred: generate, arg1: {np(a1)}, arg2: {np(a2)}]]")
            for k in (2, 3, 4) for a1 in range(3) for a2 in range(3)]


def unindexed(grammar):
    """A copy of ``grammar`` whose ``generate`` and ``parse`` rows do not
    look at the pivot's category: each tries local success and every plan
    of the goal on every pivot, as the baseline's rows do."""
    def rows(link, corner, keep):
        plans = plan_table(grammar.rules, link, corner)
        return {(g, p): [LOCAL] + [plan for plan in plans[g] if keep(plan[0])]
                for g, p in link}

    copy = Grammar(grammar.rules, grammar.lexicon, grammar.nonsk_paths, grammar.start)
    copy.tables = grammar.tables._replace(
        sk=rows(grammar.link, lambda r: r.head_index, lambda r: r.sk_class == SK),
        left=rows(grammar.left_corner, lambda r: 0, lambda r: True))
    return copy


def untabled(grammar, goal, cfg=None):
    """Outputs and steps of a plain search with the same four settings as
    ``generate``; on an :func:`unindexed` grammar, an unindexed search."""
    search = Search(grammar, cfg or GenConfig(), grammar.tables.sk, _kernel_pivots)
    assert search.table is None
    outputs = list(distinct_outputs(search, search.env.instantiate(goal, {})))
    return outputs, search.env.steps


def assert_same_outputs(grammar, goal):
    tabled = generate(grammar, goal).outputs
    plain, _ = untabled(grammar, goal)
    assert_same(tabled, plain)


def assert_same(outputs, others):
    """Same surfaces, derivations and roots, in the same order."""
    assert [t for t, _, _ in outputs] == [t for t, _, _ in others]
    assert [format_derivation(d) for _, d, _ in outputs] \
        == [format_derivation(d) for _, d, _ in others]
    assert [r for _, _, r in outputs] == [r for _, _, r in others]


def test_fixtures_match_plain_search(grammar, np_goal, sentence_goal):
    for goal in (np_goal, sentence_goal):
        assert_same_outputs(grammar, goal)


@pytest.mark.parametrize("k", range(6))
def test_ladder_matches_plain_search(grammar, k):
    assert_same_outputs(grammar, ladder_goal(k))


def test_multi_adverb_goals_match_plain_search(grammar):
    for goal in multi_adverb_goals():
        assert_same_outputs(grammar, goal)


def tabled_search(grammar, goal, cfg=None):
    """A search run to exhaustion as ``generate`` runs it, with its table."""
    search = Search(grammar, cfg or GenConfig(), grammar.tables.sk, _kernel_pivots,
                    table={})
    for _ in search.run(search.env.instantiate(goal, {})):
        pass
    return search


def packed_answers(grammar, goal):
    """The Packed nodes in the table of a search run as ``generate`` runs it,
    with the steps of the search alone, before any unpacking."""
    search = tabled_search(grammar, goal)
    return [deriv for answers in search.table.values() if answers is not PLAIN
            for deriv, _, _ in answers if isinstance(deriv, Packed)], search.env.steps


def test_multi_adverb_goals_pack(grammar):
    # the goals above exercise packing; the ladder packs from two adverbs on
    assert all(packed_answers(grammar, goal)[0] for goal in multi_adverb_goals())
    assert [bool(packed_answers(grammar, ladder_goal(k))[0]) for k in range(3)] \
        == [False, False, True]


def test_unpacking_takes_no_step(grammar):
    for goal in [ladder_goal(7)] + multi_adverb_goals()[-3:]:
        assert generate(grammar, goal).steps_used == packed_answers(grammar, goal)[1]


def test_no_packed_node_reaches_the_outputs(grammar):
    for goal in [ladder_goal(k) for k in range(8)] + multi_adverb_goals():
        for _, deriv, _ in generate(grammar, goal).outputs:
            stack = [deriv]
            while stack:
                node = stack.pop()
                assert type(node) in (Leaf, Node)
                if type(node) is Node:
                    stack.extend(node.children)


def test_first_result_is_plain_search_first(grammar):
    # a packed solution unpacks in plain search's order, so the first
    # output is plain search's first
    goal = ladder_goal(6)
    first = generate(grammar, goal, GenConfig(max_results=1)).outputs
    assert_same(first, untabled(grammar, goal)[0][:1])
    assert format_derivation(first[0][1]).splitlines()[:13:2] \
        == [" " * 2 * i + "rule 1a" for i in range(6)] + [" " * 12 + "rule 2"]


def test_random_goals_match_plain_search(grammar):
    rng = random.Random(3)
    for _ in range(20):
        assert_same_outputs(grammar, random_goal(rng))


def generate_runs(grammar, goal):
    """(outputs, steps) of ``generate`` and of its plain search."""
    result = generate(grammar, goal)
    return [(result.outputs, result.steps_used), untabled(grammar, goal)]


def assert_indexing_changes_no_output(grammar, plain, goal):
    """``generate``, its plain search and ``parse`` give on ``grammar`` what
    they give on the unindexed ``plain``, in the same order, never with more
    steps; returns the (indexed, unindexed) steps of each run."""
    steps = []
    for (outputs, used), (others, plain_used) in zip(generate_runs(grammar, goal),
                                                     generate_runs(plain, goal)):
        assert_same(outputs, others)
        assert used <= plain_used
        steps.append((used, plain_used))
    cat = goal.get("cat").name
    for surface in dict.fromkeys(" ".join(t) for t, _, _ in outputs):
        for root in (cat, None):
            indexed, unsplit = (parse(g, surface, root_cat=root) for g in (grammar, plain))
            assert [(s, format_derivation(d)) for s, d in indexed.analyses] \
                == [(s, format_derivation(d)) for s, d in unsplit.analyses]
            assert indexed.steps_used <= unsplit.steps_used
            steps.append((indexed.steps_used, unsplit.steps_used))
    return steps


def test_indexed_rows_match_unindexed_search(grammar, np_goal, sentence_goal):
    plain = unindexed(grammar)
    rng = random.Random(5)
    goals = [ladder_goal(k) for k in range(7)] + [np_goal, sentence_goal] \
        + [random_goal(rng) for _ in range(12)]
    steps = [pair for goal in goals
             for pair in assert_indexing_changes_no_output(grammar, plain, goal)]
    assert sum(i for i, _ in steps) < sum(u for _, u in steps)


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


# Synonyms of an adjective, of the determiner and of the adverb.  Every
# daughter goal is tabled, the determiner's too, so the np goal and the
# ladder up to one adverb come in plain search's order.  From two adverbs
# on, the vp goal with one adverb has two answers, and its search goes on
# in both ways after its packed adverb subgoal: rule 3's mother succeeds
# at the goal, and it takes the object through rule 4.  Plain search takes
# both ways once per derivation of the adverb, so their derivations
# interleave; the packed search takes each way once, so each way's
# derivations come as a block.
SYNONYMS = """
lex "tiny": [cat: adj, sem: little].
lex "this": [cat: det, sem: [def: +]].
lex "fast": [cat: adv, sem: quick].
"""


def test_synonyms_keep_plain_search_derivations(grammar):
    with_synonyms = load_grammar(serialize_grammar(grammar) + SYNONYMS)
    goal = parse_value("[cat: np, sem: [def: +, mod: <little, prolog>, rel: program]]")
    assert generate(with_synonyms, goal).surfaces == [
        "the little prolog program", "this little prolog program",
        "the tiny prolog program", "this tiny prolog program"]
    for goal in [goal, ladder_goal(0), ladder_goal(1)]:
        assert_same_outputs(with_synonyms, goal)
    outputs = generate(with_synonyms, ladder_goal(2)).outputs
    plain, _ = untabled(with_synonyms, ladder_goal(2))
    assert len(outputs) == len(plain) == 352
    assert_same(outputs[:272], plain[:272])
    assert outputs[272][0] != plain[272][0]
    assert sorted((t, format_derivation(d), r) for t, d, r in outputs) \
        == sorted((t, format_derivation(d), r) for t, d, r in plain)


def test_synonym_nouns_match_plain_search(grammar):
    # Both nps have two derivations, each packed as a sister goal.  Plain
    # search picks the object (inside the head daughter of rule 2) before
    # the subject, so the head daughter's derivations vary slowest.
    synonyms = load_grammar(serialize_grammar(grammar)
                            + 'lex "code": [cat: n, sem: [rel: program]].\n'
                            + 'lex "text": [cat: n, sem: [rel: sentence]].\n')
    for k in range(3):
        assert_same_outputs(synonyms, ladder_goal(k))
    assert generate(synonyms, ladder_goal(0)).surfaces[:2] == [
        "the little prolog program generated the complex sentence",
        "the little prolog code generated the complex sentence"]


def test_refining_sister_matches_plain_search():
    grammar = load_grammar(REFINING)
    goal = parse_value("[cat: s, sem: [pred: sleep, arg: [rel: dog]]]")
    assert generate(grammar, goal).surfaces == ["dogs sleep together"]
    assert_same_outputs(grammar, goal)
    # the np's one answer is more specific than its goal, and is replayed
    table = tabled_search(grammar, goal).table
    [(_, _, answer)] = table[parse_value("[cat: np, sem: [rel: dog]]"), None]
    assert answer == parse_value("[cat: np, sem: [num: pl, rel: dog]]")


def test_goals_with_variables_are_tabled(grammar, sentence_goal):
    keys = {render(goal) for goal, _ in tabled_search(grammar, sentence_goal).table}
    # rule 6's determiner, whose def reaches it only through the mother
    assert "[cat: det, sem: [def: #0]]" in keys
    # rule 3's vp, whose subcat stays open until the rule's mother completes
    assert ("[cat: vp, sem: [arg1: [def: +, mod: <little, prolog>, rel: program],"
            " arg2: [def: +, mod: <complex>, rel: sentence], mod: <>,"
            " pred: generate], subcat: #0]") in keys


# Rule 1's sister goal is the goal it is a sister for, so it comes back
# while its table entry is still being filled, and plain search solves it
# there: "a", "b a", "b b a" and so on, without end.
RECURRING = """
rule 1 head 1: [cat: a, sem: S] -> [cat: b, sem: S], [cat: a, sem: S].
lex "a": [cat: a, sem: x].
lex "b": [cat: b, sem: x].
"""


def test_a_goal_that_recurs_while_it_is_filled_gets_plain_search():
    grammar = load_grammar(RECURRING)
    goal = parse_value("[cat: a, sem: x]")
    cfg = GenConfig(step_budget=2_000)
    result = generate(grammar, goal, cfg)
    assert result.exhausted_budget and result.steps_used == 2_001
    plain, _ = untabled(grammar, goal, cfg)
    assert [" ".join(t) for t, _, _ in plain[:3]] == ["a", "b a", "b b a"]
    assert_same(result.outputs, plain[:1])
    search = tabled_search(grammar, goal, cfg)
    assert search.exhausted and search.table == {(normalize(goal), None): PLAIN}


def test_ladder_steps(grammar):
    result = generate(grammar, ladder_goal(6))
    assert result.steps_used <= 20_000  # 71,305 with plain search
    assert len(set(result.surfaces)) == 28
    assert not result.exhausted_budget


# Exact step counts: tier-1 catches a change in the search's work.
@pytest.mark.parametrize("k, steps", enumerate(
    [181, 367, 597, 838, 1_090, 1_353, 1_627, 1_912]))
def test_ladder_steps_exact(grammar, k, steps):
    assert generate(grammar, ladder_goal(k)).steps_used == steps


# The round-trip check's parses stop at the first clean analysis.
@pytest.mark.parametrize("k, steps", enumerate(
    [110, 364, 802, 1_460, 2_375, 3_584, 5_124, 7_032]))
def test_ladder_check_steps_exact(grammar, k, steps):
    report = roundtrip(grammar, ladder_goal(k))
    assert report.ok and report.check_steps == steps


def test_fixture_steps_exact(grammar, np_goal, sentence_goal):
    assert generate(grammar, np_goal).steps_used == 57
    assert generate(grammar, sentence_goal).steps_used == 367


def test_random_goal_step_totals_exact(grammar):
    """The steps ``generate`` takes on distinct random goals, the round-trip
    check's parses of their outputs, and ``parse`` on every distinct output,
    with and without the root category."""
    rng = random.Random(7)
    goals = list({normalize(g): g for g in (random_goal(rng) for _ in range(200))}.values())
    outputs, generated, checked = set(), 0, 0
    for goal in goals:
        report = roundtrip(grammar, goal)
        assert report.ok
        generated += report.generation.steps_used
        checked += report.check_steps
        outputs.update((s, goal.get("cat").name) for s in report.generation.surfaces)
    parses = [parse(grammar, s, root_cat=root).steps_used
              for s, cat in sorted(outputs) for root in (None, cat)]
    assert (len(goals), generated) == (135, 25_828)
    assert checked == 21_837  # 27,468 when each check parse read every analysis
    assert (len(parses), sum(parses)) == (454, 54_979)


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


# The baseline and the parser do not use the table; the baseline keeps
# the figures it had before the table existed.
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


@pytest.mark.parametrize("mode", [UNIFY_LINK, SUBSTRUCTURE_LINK])
def test_baseline_tries_every_rule_on_every_pivot(grammar, np_goal, mode):
    # classical SHDG: the baseline's rows are not split by pivot category;
    # split rows would make 185 trace lines here, 30 of them for rule 8
    log = generate_shdg(grammar, np_goal, mode,
                        GenConfig(step_budget=10 ** 3, trace=True)).trace_log
    assert len(log) == 127
    assert sum(line.startswith("hc_complete rule 8 ") for line in log) == 20


@pytest.mark.parametrize("sentence, root, steps, analyses", [
    ("the complex sentence", "np", 30, 1),
    ("quickly the little prolog program generated the complex sentence", None, 135, 1),
    ("the little prolog program quickly generated the complex sentence", None, 208, 2),
])
def test_parser_unchanged(grammar, sentence, root, steps, analyses):
    result = parse(grammar, sentence, root_cat=root)
    assert (result.steps_used, len(result.analyses)) == (steps, analyses)
