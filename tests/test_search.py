"""The shared search engine: flat search loop, trace cost, baseline cost per step, budgets on cyclic grammars, each derivation once, rule copies, search tables, no reference cycles."""

import gc
import pathlib
import random
import sys
import weakref

import pytest
from oracle import random_goal
from test_tabling import REFINING, ladder_goal

import skg
from skg import (
    SUBSTRUCTURE_LINK,
    UNIFY_LINK,
    Env,
    GenConfig,
    Leaf,
    LexEntry,
    Node,
    format_derivation,
    generate,
    generate_shdg,
    load_grammar,
    parse,
    parse_value,
    roundtrip,
    yield_tokens,
)

CYCLIC = """
rule 1 head 1: [cat: s, sem: S] -> [cat: s, sem: S].
rule 2 head 1: [cat: s, sem: S] -> [cat: v, sem: S].
lex "go": [cat: v, sem: [pred: go]].
"""


def test_searches_leave_the_recursion_limit_alone(grammar, np_goal):
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        generate(grammar, np_goal)
        assert sys.getrecursionlimit() == 1000
        for mode in (UNIFY_LINK, SUBSTRUCTURE_LINK):
            result = generate_shdg(grammar, np_goal, mode,
                                   GenConfig(step_budget=10 ** 5))
            assert result.exhausted_budget
            assert sys.getrecursionlimit() == 1000
        parse(grammar, "the complex sentence", root_cat="np")
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_generate_renders_nothing_with_trace_off(grammar, sentence_goal, np_goal,
                                                 monkeypatch):
    calls = []
    original = skg.avm.render

    def counting(value):
        calls.append(value)
        return original(value)

    for name, module in list(sys.modules.items()):
        if (name == "skg" or name.startswith("skg.")) \
                and module.__dict__.get("render") is original:
            monkeypatch.setattr(module, "render", counting)
    generate(grammar, sentence_goal)
    assert calls == []
    assert generate(grammar, np_goal, GenConfig(trace=True)).trace_log
    assert calls


@pytest.mark.parametrize("mode", [UNIFY_LINK, SUBSTRUCTURE_LINK])
def test_baseline_cost_per_step_stays_flat(grammar, np_goal, monkeypatch, mode):
    # each level of the modifier regress makes the list one item longer;
    # occurs and resolve must not walk it again, so 4x the steps costs
    # about 4x the calls (walking it costs about 15x), and 4x the lines
    # occurs runs, which follow the values it visits (walking the chain of
    # bound tails inside one call costs about 15x)
    occurs_code = Env.occurs.__code__
    calls = {"occurs": 0, "resolve": 0, "occurs lines": 0}
    for name in ("occurs", "resolve"):
        original = getattr(Env, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Env, name, counting)

    def count_lines(frame, event, arg):
        calls["occurs lines"] += event == "line"
        return count_lines

    counts = []
    for budget in (10 ** 4, 4 * 10 ** 4):
        calls.update({name: 0 for name in calls})
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg:
                     count_lines if frame.f_code is occurs_code else None)
        try:
            result = generate_shdg(grammar, np_goal, mode, GenConfig(step_budget=budget))
        finally:
            sys.settrace(previous)
        assert result.exhausted_budget
        counts.append(dict(calls))
    for name in calls:
        assert counts[1][name] <= 5 * counts[0][name], counts


def test_derivation_walks_do_not_recurse():
    entry = LexEntry("go", parse_value("[cat: v]"))
    deep = Leaf(entry)
    for _ in range(5 * sys.getrecursionlimit()):
        deep = Node("1", (deep,))
    assert yield_tokens(deep) == ("go",)
    assert format_derivation(deep).endswith("lex 'go' (v)")


@pytest.mark.parametrize("run", [
    lambda g: parse(g, "go", GenConfig(step_budget=5 * 10 ** 3)),
    lambda g: generate_shdg(g, parse_value("[cat: s, sem: [pred: go]]"),
                            UNIFY_LINK, GenConfig(step_budget=10 ** 3)),
])
def test_cyclic_unary_rule_ends_with_the_budget(run):
    assert run(load_grammar(CYCLIC)).exhausted_budget


def _derivations_come_once(grammar, goal, budget=None):
    """No result of the three searches on ``goal`` lists a derivation twice.

    ``budget`` bounds every search; without it, the baseline gets 10^4
    steps and the others the default budget.
    """
    cat = goal.get("cat").name

    def once(derivations):
        shown = [format_derivation(d) for d in derivations]
        assert len(shown) == len(set(shown)), goal
        return shown

    cfg = GenConfig(step_budget=budget) if budget else GenConfig()
    result = generate(grammar, goal, cfg)
    once(d for _, d, _ in result.outputs)
    for mode in (UNIFY_LINK, SUBSTRUCTURE_LINK):
        base = generate_shdg(grammar, goal, mode, GenConfig(step_budget=budget or 10 ** 4))
        once([d for _, d, _ in base.outputs] + [d for _, d, _, _ in base.partial_outputs])
    for surface in set(result.surfaces):
        assert once(d for _, d in parse(grammar, surface, cfg, cat).analyses)


def test_each_derivation_comes_once(grammar, np_goal, sentence_goal):
    rng = random.Random(11)
    for goal in [np_goal, sentence_goal] + [ladder_goal(k) for k in range(5)] \
            + [random_goal(rng) for _ in range(8)]:
        _derivations_come_once(grammar, goal)
    _derivations_come_once(load_grammar(REFINING),
                           parse_value("[cat: s, sem: [pred: sleep, arg: [rel: dog]]]"))
    cyclic = load_grammar(CYCLIC)
    _derivations_come_once(cyclic, parse_value("[cat: s, sem: [pred: go]]"), 10 ** 3)
    analyses = parse(cyclic, "go", GenConfig(step_budget=5 * 10 ** 3)).analyses
    assert len({format_derivation(d) for _, d in analyses}) == len(analyses) == 624


def _count_copies(monkeypatch):
    """Record the value of every ``Env.instantiate`` call from now on."""
    copied = []
    original = Env.instantiate

    def counting(self, value, *args):
        copied.append(value)
        return original(self, value, *args)

    monkeypatch.setattr(Env, "instantiate", counting)
    return copied


def test_copies_of_generate_and_parse_are_pinned(grammar, sentence_goal, monkeypatch):
    # a rule is copied whole only after its corner daughter takes the
    # pivot, and its corner only when it has the pivot's category; copying
    # it whole before the corner test made 649 copies here, and trying
    # every rule the goal links to on every pivot 375
    copied = _count_copies(monkeypatch)
    result = generate(grammar, sentence_goal)
    for surface in sorted(set(result.surfaces)):
        parse(grammar, surface)
    assert len(copied) == 224


# every rule's corner daughter clashes with the one entry on ``form``
NO_CORNER = """
start s.
rule r1 head 1: [cat: s, sem: S] -> [cat: v, sem: S, form: fin].
rule r2 head 1: [cat: s, sem: S] -> [cat: v, sem: S, form: inf], [cat: x, sem: S].
rule r3 head 2: [cat: s, sem: S] -> [cat: x, sem: S], [cat: v, sem: S, form: part].
lex "go": [cat: v, sem: [pred: go], form: base].
"""


def test_a_corner_that_fails_copies_only_the_corner(monkeypatch):
    g = load_grammar(NO_CORNER)
    parts = {id(v) for r in g.rules for v in (r.mother,) + r.daughters}
    copied = _count_copies(monkeypatch)

    def rule_copies():
        made = [v for v in copied if id(v) in parts]
        copied.clear()
        return made

    r1, r2, r3 = g.rules
    result = generate(g, parse_value("[cat: s, sem: [pred: go]]"))
    assert not result.outputs
    assert rule_copies() == [r1.daughters[0], r2.daughters[0], r3.daughters[1]]
    assert not parse(g, "go").analyses
    # r3's left corner has category x, so the pivot "go" (v) skips it
    assert rule_copies() == [r1.daughters[0], r2.daughters[0]]
    generate_shdg(g, parse_value("[cat: s, sem: [pred: go]]"))
    assert rule_copies() == [r1.daughters[0], r2.daughters[0], r3.daughters[1]]


def test_search_tables_are_built_once_per_grammar(np_goal, monkeypatch):
    calls = []
    original = skg.grammar.plan_table

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(skg.grammar, "plan_table", counting)
    text = (pathlib.Path(__file__).parent.parent / "grammars" / "paper.skg").read_text()
    for g in (load_grammar(text), load_grammar(text)):
        before = len(calls)
        for _ in range(2):
            generate(g, np_goal)
            generate_shdg(g, np_goal, UNIFY_LINK, GenConfig(step_budget=10 ** 3))
            parse(g, "the complex sentence", root_cat="np")
            assert len(calls) == before + 2  # built by the first search only


def test_lexical_pivots_come_from_the_tables(grammar, sentence_goal, monkeypatch):
    # the head-corner link filter on lexical entries is a table row, so
    # only the parser's left-corner filter reads an entry's category
    assert [e.surface for e in grammar.tables.lexicon["np"]] == ["sentence", "program"]
    assert [e.surface for e in grammar.tables.lexicon["s"]] == ["generated"]
    reads = []
    original = LexEntry.cat
    monkeypatch.setattr(LexEntry, "cat",
                        property(lambda e: reads.append(e) or original.fget(e)))
    generate(grammar, sentence_goal)
    assert reads == []  # 80 when the search tested every entry of the lexicon
    parse(grammar, "the complex sentence", root_cat="np")
    assert len(reads) == 3


def test_a_finished_search_frees_its_environment(grammar, np_goal, monkeypatch):
    # with no reference cycle through an Env, its bindings go when the
    # search ends, not at some later run of the cycle collector
    envs = []
    original = Env.__init__

    def recording(self, *args):
        original(self, *args)
        envs.append(weakref.ref(self))

    monkeypatch.setattr(Env, "__init__", recording)
    gc.collect()
    gc.disable()
    try:
        generate(grammar, np_goal)
        generate_shdg(grammar, np_goal, UNIFY_LINK, GenConfig(step_budget=10 ** 3))
        parse(grammar, "the complex sentence", root_cat="np")
        assert len(envs) > 3 and [ref() for ref in envs if ref() is not None] == []
    finally:
        gc.enable()


def test_value_walks_leave_no_cycles(grammar, np_goal, sentence_goal):
    # normalize and subsumes recurse through module-level helpers, and
    # substructures and normalize_nonsk walk with generators; a recursive
    # closure is a reference cycle per call, which only the cycle
    # collector frees
    def calls():
        roundtrip(grammar, sentence_goal)
        generate_shdg(grammar, np_goal, SUBSTRUCTURE_LINK, GenConfig(step_budget=10 ** 3))

    calls()
    gc.collect()
    gc.disable()
    try:
        calls()
        assert gc.collect() == 0
    finally:
        gc.enable()
