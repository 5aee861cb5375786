"""The shared search engine: flat search loop, trace cost, budgets on cyclic grammars."""

import sys

import pytest

import skg
from skg import (
    SUBSTRUCTURE_LINK,
    UNIFY_LINK,
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
    signature,
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


def test_derivation_walks_do_not_recurse():
    entry = LexEntry("go", parse_value("[cat: v]"))
    deep = Leaf(entry)
    for _ in range(5 * sys.getrecursionlimit()):
        deep = Node("1", (deep,))
    assert yield_tokens(deep) == ("go",)
    assert len(signature(deep)) == 5 * sys.getrecursionlimit() + 1
    assert format_derivation(deep).endswith("lex 'go' (v)")


@pytest.mark.parametrize("run", [
    lambda g: parse(g, "go", GenConfig(step_budget=5 * 10 ** 3)),
    lambda g: generate_shdg(g, parse_value("[cat: s, sem: [pred: go]]"),
                            UNIFY_LINK, GenConfig(step_budget=10 ** 3)),
])
def test_cyclic_unary_rule_ends_with_the_budget(run):
    assert run(load_grammar(CYCLIC)).exhausted_budget
