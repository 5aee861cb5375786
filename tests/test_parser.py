"""Left-corner parser and round-trip checking tests."""

import gc
import itertools

import pytest

import skg.parser
from skg import (
    Atom,
    Avm,
    GenConfig,
    ParseError,
    check_output,
    equal_modulo_renaming,
    generate,
    get,
    left_corner_table,
    normalize,
    parse,
    parse_value,
    roundtrip,
    tokenize_sentence,
)
from skg.kernel import normalize_nonsk
from skg.search import DEFAULT_BUDGET, Search


def P(text):
    return parse_value(text)


def test_tokenize_sentence():
    assert tokenize_sentence("The Complex  sentence") == (
        "the", "complex", "sentence")


def test_left_corner_table(grammar):
    lc = left_corner_table(grammar)
    assert ("s", "np") in lc        # via rule 2
    assert ("s", "det") in lc       # np -> det transitively
    assert ("np", "det") in lc
    assert ("n2", "adj") in lc
    assert ("n2", "n") in lc
    assert ("s", "adv") in lc       # rule 1a starts with the adverb
    assert ("np", "adv") not in lc


def test_parse_np(grammar):
    result = parse(grammar, "the complex sentence", root_cat="np")
    assert len(result.analyses) == 1
    sem = normalize_nonsk(result.analyses[0][0], grammar)
    assert sem == normalize_nonsk(
        P("[rel: sentence, def: +, mod: <complex>]"), grammar)


def test_parse_simple_sentence(grammar):
    result = parse(grammar, "the program generated the sentence")
    assert len(result.analyses) == 1
    sem = result.analyses[0][0]
    assert get(sem, ("pred",)) == P("generate")
    assert get(sem, ("arg1", "rel")) == P("program")
    assert get(sem, ("arg2", "rel")) == P("sentence")


def test_parse_preverbal_adverb_is_ambiguous(grammar):
    # pre-verbal "quickly" attaches below or above the object pickup;
    # two derivations, one semantics
    result = parse(grammar, "the program quickly generated the sentence")
    assert len(result.analyses) == 2
    a, b = (normalize(s) for s, _ in result.analyses)
    assert equal_modulo_renaming(a, b)


def test_parse_rejects_unknown_token(grammar):
    with pytest.raises(ParseError, match="unknown token"):
        parse(grammar, "the blue sentence")
    with pytest.raises(ParseError, match="empty"):
        parse(grammar, "")


def test_parse_rejects_a_root_category_the_grammar_never_mentions(grammar):
    with pytest.raises(ParseError, match="unknown root category 'zzz'"):
        parse(grammar, "the sentence", root_cat="zzz")
    assert check_output(grammar, ("the", "sentence"), "zzz",
                        P("[rel: sentence, def: +, mod: <>]")) == ["no-parse"]


def test_parse_no_analysis(grammar):
    result = parse(grammar, "sentence the", root_cat="np")
    assert result.analyses == []
    assert not result.exhausted_budget


def test_parse_respects_root_cat(grammar):
    assert parse(grammar, "the sentence", root_cat="np").analyses
    assert not parse(grammar, "the sentence", root_cat="s").analyses


def test_parse_budget(grammar, np_goal):
    result = parse(grammar, "the complex sentence", GenConfig(step_budget=3),
                   root_cat="np")
    assert result.exhausted_budget
    # a check whose parse runs out of budget is not a failed parse
    sem = get(np_goal, ("sem",))
    assert check_output(grammar, ("the", "complex", "sentence"), "np", sem,
                        GenConfig(step_budget=5)) == ["budget-exhausted"]


def test_check_output_clean(grammar, np_goal):
    sem = get(np_goal, ("sem",))
    assert check_output(grammar, ("the", "complex", "sentence"), "np", sem) == []
    assert check_output(grammar, ("the", "complex", "sentence"), "np", sem,
                        GenConfig(step_budget=10 ** 6)) == []


def test_check_output_incomplete(grammar, np_goal):
    sem = get(np_goal, ("sem",))
    assert check_output(grammar, ("the", "sentence"), "np", sem) == [
        "incomplete"]


def test_check_output_incoherent(grammar, np_goal):
    sem = get(np_goal, ("sem",))
    fails = check_output(grammar, ("the", "complex", "program"), "np", sem)
    assert "incoherent" in fails


def test_check_output_no_parse(grammar, np_goal):
    sem = get(np_goal, ("sem",))
    assert check_output(grammar, ("sentence", "the"), "np", sem) == ["no-parse"]
    assert check_output(grammar, ("gibberish",), "np", sem) == ["no-parse"]


def test_roundtrip_np(grammar, np_goal):
    report = roundtrip(grammar, np_goal)
    assert report.ok
    assert report.entries == [("the complex sentence", True, True)]


def test_roundtrip_reports_an_exhausted_check(grammar, np_goal, monkeypatch):
    # generation here always takes more steps than parsing its output, so
    # only the check parse is given the small budget
    full = skg.parser.parse
    monkeypatch.setattr(skg.parser, "parse", lambda g, tokens, cfg, root_cat, until: full(
        g, tokens, GenConfig(step_budget=5), root_cat, until))
    report = roundtrip(grammar, np_goal)
    assert (report.ok, report.reason) == (False, "budget-exhausted")
    assert report.entries == []
    assert report.check_steps == 6  # the step that passed the budget included


def test_roundtrip_sentence(grammar, sentence_goal):
    report = roundtrip(grammar, sentence_goal)
    assert report.ok
    assert len(report.entries) == 3
    assert all(c and k for _, c, k in report.entries)


def test_roundtrip_no_output(grammar):
    report = roundtrip(grammar, P("[cat: np, sem: [rel: unicorn, def: +]]"))
    assert not report.ok
    assert report.reason == "no-output"


# "quickly" before the verb attaches below or above the object, so this
# output of the sentence goal with one adverb has two analyses with one
# semantics
TWO_ANALYSES = ("the", "program", "quickly", "generated", "the", "sentence")
TWO_ANALYSES_SEM = P("[mod: <quick>, pred: generate, arg1: [def: +, mod: <>, rel: program],"
                     " arg2: [def: +, mod: <>, rel: sentence]]")


def test_check_stops_at_the_first_clean_analysis(grammar):
    full = parse(grammar, TWO_ANALYSES)
    assert len(full.analyses) == 2 and not full.exhausted_budget
    assert check_output(grammar, TWO_ANALYSES, "s", TWO_ANALYSES_SEM) == []
    failures, steps = skg.parser._check(grammar, TWO_ANALYSES, "s", TWO_ANALYSES_SEM,
                                        GenConfig())
    assert failures == [] and steps < full.steps_used


def test_check_without_a_clean_analysis_reads_them_all(grammar, np_goal):
    # "the sentence" is not complete for "the complex sentence"
    sem = get(np_goal, ("sem",))
    full = parse(grammar, "the sentence", root_cat="np")
    assert full.analyses and not full.exhausted_budget
    failures, steps = skg.parser._check(grammar, ("the", "sentence"), "np", sem,
                                        GenConfig())
    assert failures == ["incomplete"] and steps == full.steps_used


def test_an_early_stop_closes_the_search(grammar, monkeypatch):
    runs = []
    original = Search.run
    monkeypatch.setattr(Search, "run", lambda search, goal, pos=None: runs.append(
        original(search, goal, pos)) or runs[-1])
    assert check_output(grammar, TWO_ANALYSES, "s", TWO_ANALYSES_SEM) == []
    # closed, so drive has closed the sub-searches it held
    assert [run.gi_frame for run in runs] == [None]
    runs.clear()
    gc.collect()
    gc.disable()
    try:
        assert check_output(grammar, TWO_ANALYSES, "s", TWO_ANALYSES_SEM) == []
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_parse_regenerates(grammar):
    """Reversibility the other way round (Shieber 1988): every analysis of
    every string of up to 5 words, as an ``s`` or an ``np``, generates its
    string back within the default budget."""
    cfg = GenConfig(DEFAULT_BUDGET)
    surfaces = sorted({e.surface for e in grammar.lexicon})
    pairs = parses = analyses = regenerated = 0
    for length in range(1, 6):
        for tokens in itertools.product(surfaces, repeat=length):
            for root in ("s", "np"):
                pairs += 1
                result = parse(grammar, tokens, cfg, root_cat=root)
                assert not result.exhausted_budget
                parses += bool(result.analyses)
                for sem, _ in result.analyses:
                    analyses += 1
                    goal = Avm((("cat", Atom(root)), ("sem", normalize_nonsk(sem, grammar))))
                    back = generate(grammar, goal, cfg)
                    assert not back.exhausted_budget
                    assert " ".join(tokens) in back.surfaces, (tokens, root)
                    regenerated += 1
    assert (pairs, parses, analyses, regenerated) == (74896, 84, 84, 84)
