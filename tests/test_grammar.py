"""Grammar DSL loading, rule classification and the link relation."""

import re

import pytest

import skg
from skg import (
    NONSK,
    SK,
    GrammarError,
    ListVal,
    Rule,
    classify_rule,
    load_grammar,
    normalize,
    parse_value,
    serialize_grammar,
)

EXPECTED_CLASSES = {
    "1a": NONSK, "1b": NONSK, "3": NONSK, "8": NONSK,
    "2": SK, "4": SK, "5": SK, "6": SK, "7": SK,
}


def test_rule_classification(grammar):
    assert {r.id: r.sk_class for r in grammar.rules} == EXPECTED_CLASSES


def test_nonsk_rules_record_their_path(grammar):
    for r in grammar.rules:
        if r.sk_class == NONSK:
            assert r.nonsk_path == ("mod",)
        else:
            assert r.nonsk_path is None


def test_start_and_paths(grammar):
    assert grammar.start == "s"
    assert grammar.nonsk_paths == [("mod",)]


def test_link_relation(grammar):
    link = grammar.link
    assert ("s", "s") in link
    assert ("s", "vp") in link
    assert ("s", "v") in link
    assert ("np", "n2") in link
    assert ("np", "n") in link
    assert ("n2", "n") in link
    assert ("s", "np") not in link
    assert ("np", "s") not in link
    assert ("n", "n2") not in link
    # only head-reachable categories; det is generated as a sister
    assert ("np", "det") not in link
    assert {e.cat for e in grammar.lexicon if ("np", e.cat) in link} == {"n"}


def test_lexicon_lookup(grammar):
    assert len(grammar.entries_for("the")) == 1
    assert grammar.entries_for("the")[0].cat == "det"
    assert grammar.entries_for("nothing") == []


def test_rule_accessors(grammar):
    r = grammar.rule_by_id("2")
    assert r.mother_cat == "s"
    assert r.head_index == 1
    assert r.daughter_cat(0) == "np"
    assert r.daughter_cat(1) == "vp"
    with pytest.raises(KeyError):
        grammar.rule_by_id("99")


def test_serialize_reload_roundtrip(grammar, np_goal):
    text = serialize_grammar(grammar)
    again = load_grammar(text)
    assert {r.id: r.sk_class for r in again.rules} == EXPECTED_CLASSES
    assert again.nonsk_paths == grammar.nonsk_paths
    assert len(again.lexicon) == len(grammar.lexicon)
    a = sorted(set(skg.generate(grammar, np_goal).surfaces))
    b = sorted(set(skg.generate(again, np_goal).surfaces))
    assert a == b == ["the complex sentence"]
    # the text is a fixed point, and no rule loses or moves a record's rest
    assert serialize_grammar(again) == text
    for r, s in zip(grammar.rules, again.rules):
        assert normalize(ListVal((r.mother,) + r.daughters)) == \
            normalize(ListVal((s.mother,) + s.daughters)), r.id


MINI = """
start x.
nonsk sem.mod.
rule r1 head 1: [cat: x, sem: S] -> [cat: y, sem: S].
lex "w": [cat: y, sem: [rel: w]].
"""


def test_minimal_grammar_loads():
    g = load_grammar(MINI)
    assert g.start == "x"
    assert g.rules[0].sk_class == SK


def test_a_second_start_category_is_rejected():
    # MINI declares x on line 2 and ends with line 5
    with pytest.raises(GrammarError,
                       match=r"^start category y after start category x \(line 6\)$"):
        load_grammar(MINI + "start y.\n")


def test_the_same_start_category_twice_loads():
    assert load_grammar(MINI + "start x.\n").start == "x"


def test_duplicate_rule_id_rejected():
    bad = MINI + 'rule r1 head 1: [cat: x, sem: S] -> [cat: y, sem: S].\n'
    with pytest.raises(GrammarError, match="duplicate"):
        load_grammar(bad)


def test_repeated_lexical_entry_rejected():
    # the same entry again, with its features reordered and a variable
    # renamed, would give every derivation through it twice
    bad = (MINI + 'lex "v": [cat: y, sem: [rel: v, arg: A]].\n'
           + 'lex "v": [sem: [arg: B, rel: v], cat: y].\n')
    with pytest.raises(GrammarError, match="duplicate lexical entry 'v'"):
        load_grammar(bad)


def test_homographs_are_distinct_derivations():
    g = load_grammar(MINI + 'lex "w": [cat: y, sem: [rel: w], num: sg].\n')
    result = skg.generate(g, parse_value("[cat: x, sem: [rel: w]]"))
    assert result.surfaces == ["w", "w"]
    assert [d.children[0].entry for _, d, _ in result.outputs] == g.lexicon


def test_head_index_out_of_range_rejected():
    bad = MINI.replace("head 1", "head 2")
    with pytest.raises(GrammarError, match="head index"):
        load_grammar(bad)


def test_missing_category_rejected():
    bad = MINI.replace("[cat: y, sem: S].", "[sem: S].")
    with pytest.raises(GrammarError, match="category"):
        load_grammar(bad)


def test_nonsk_path_must_be_under_sem():
    with pytest.raises(GrammarError, match="sem"):
        load_grammar("nonsk mod.\n" + MINI)


@pytest.mark.parametrize("first, second", [("a.b", "a"), ("a", "a.b"),
                                           ("mod", "mod.x.y")])
def test_nonsk_paths_that_are_prefixes_of_each_other_rejected(first, second):
    # a list at one path cannot hold a record with the other path in it
    shorter, longer = sorted((first, second), key=len)
    with pytest.raises(GrammarError, match=re.escape(
            f"nonsk paths sem.{shorter} and sem.{longer} overlap")):
        load_grammar(f"nonsk sem.{first}.\nnonsk sem.{second}.\n" + MINI)
    # sibling paths, and a path declared twice, still load
    assert load_grammar("nonsk sem.a.b.\nnonsk sem.a.c.\nnonsk sem.a.b.\n"
                        + MINI).nonsk_paths == [("a", "b"), ("a", "c"), ("mod",)]


def test_declared_class_checked():
    bad = MINI.replace("rule r1 head 1", "rule r1 nonsk head 1")
    with pytest.raises(GrammarError, match="declared"):
        load_grammar(bad)


def test_growth_by_two_rejected():
    bad = MINI + (
        "rule r2 head 2: [cat: x, sem: S, sem: [mod: <A, B | M>]]"
        " -> [cat: y, sem: A], [cat: x, sem: S, sem: [mod: M]].\n")
    with pytest.raises(GrammarError, match="grows"):
        load_grammar(bad)


def test_classify_rule_directly():
    g = load_grammar(MINI)
    rule = g.rules[0]
    assert classify_rule(rule, [("mod",)]) == (SK, None)
    grow = Rule(
        "g",
        parse_value("[cat: x, sem: R, sem: [mod: <M | Ms>]]"),
        (parse_value("[cat: y, sem: M]"),
         parse_value("[cat: x, sem: R, sem: [mod: Ms]]")),
        1,
    )
    assert classify_rule(grow, [("mod",)]) == (NONSK, ("mod",))


def test_nonsk_path_through_feature_named_like_a_dsl_word():
    # a path part may be any name: the statement's final dot does not touch
    # the next statement, so it never joins it to the path
    g = load_grammar(MINI.replace("nonsk sem.mod.", "nonsk sem.head.") + (
        "rule r2 head 2: [cat: x, sem: S, sem: [head: <M | Hs>]]"
        " -> [cat: y, sem: M], [cat: x, sem: S, sem: [head: Hs]].\n"))
    assert g.nonsk_paths == [("head",)]
    assert [(r.id, r.sk_class, r.nonsk_path) for r in g.rules] == [
        ("r1", SK, None), ("r2", NONSK, ("head",))]
    for path in ("adj.lex", "x.sk", "start", "rule"):
        g = load_grammar(f"nonsk sem.{path}.\n" + MINI)
        assert g.nonsk_paths == [tuple(path.split(".")), ("mod",)]


@pytest.mark.parametrize("statement", ["sk.", "head."])
def test_rule_words_do_not_start_a_statement(statement):
    with pytest.raises(skg.AvmSyntaxError,
                       match=f"expected a statement keyword, found '{statement[:-1]}'"):
        load_grammar(MINI + statement + "\n")


def test_dotted_path_has_no_spaces():
    # a dot joins two names only when it touches both
    assert parse_value("[sem.mod: x]") == parse_value("[sem: [mod: x]]")
    for spaced in ("[sem . mod: x]", "[sem .mod: x]", "[sem. mod: x]"):
        with pytest.raises(skg.AvmSyntaxError, match=r"expected ':', found '\.'"):
            parse_value(spaced)
    with pytest.raises(GrammarError, match="nonsk path must go below 'sem'"):
        load_grammar("nonsk sem. mod.\n" + MINI)


def test_head_index_must_be_a_decimal_number():
    for index in ("one", "²"):  # '²' is a digit that int() rejects
        with pytest.raises(skg.AvmSyntaxError, match="head index must be a number"):
            load_grammar(MINI.replace("head 1", f"head {index}"))
