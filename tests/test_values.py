"""Contracts of the value and record classes: immutability, equality,
hashing, copying, pickling, ``repr`` and constructor signatures."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from skg import (Atom, Avm, BaselineResult, Decomposition, GenConfig, GenResult,
                 Grammar, Leaf, LexEntry, ListVal, Node, ParseResult, RoundTripReport,
                 Rule, Var, load_grammar, parse_value)
from skg.search import Packed

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
MINI = ('start np.\nrule 1 head 1: [cat: np, sem: S] -> [cat: n, sem: S].\n'
        'lex "x": [cat: n, sem: [rel: x]].\n')


def entry():
    return LexEntry("sentence", parse_value("[cat: n, sem: [rel: sentence]]"))


def rule():
    return Rule("1", parse_value("[cat: np, sem: S]"),
                (parse_value("[cat: n, sem: S]"),), 0)


def value():
    return parse_value("[f: <a, #1 | T>, g: X, h: [i: b]]")


def immutables():
    """(instance, its field names) for every immutable class."""
    return [
        (Atom("a"), ("name",)),
        (Var("X"), ("tag",)),
        (Avm((("f", Atom("a")),), Var("R")), ("pairs", "rest")),
        (ListVal((Atom("a"),), Var("T")), ("items", "tail")),
        (entry(), ("surface", "description", "sense")),
        (rule(), ("id", "mother", "daughters", "head_index", "sk_class", "nonsk_path")),
        (Leaf(entry()), ("entry",)),
        (Node("1", (Leaf(entry()),)), ("rule_id", "children")),
        (Packed((Leaf(entry()), Leaf(entry()))), ("alternatives",)),
        (Decomposition(parse_value("[rel: x]"), ((("mod",), Atom("a")),)),
         ("kernel", "nonsk_items")),
    ]


@pytest.mark.parametrize("obj, fields", immutables(),
                         ids=[type(obj).__name__ for obj, _ in immutables()])
def test_fields_cannot_be_assigned_or_deleted(obj, fields):
    for name in fields + ("unlisted",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    for name in fields:
        getattr(obj, name)  # still readable


def test_value_kinds_are_kept_apart():
    assert Avm(()) != ListVal(())
    assert ListVal(()) != Avm(())
    assert Atom("x") != Var("x")
    assert Var("x") != Atom("x")
    assert Avm(()) == Avm(()) and ListVal(()) == ListVal(())
    assert Avm((), Var("R")) != Avm(())
    assert ListVal((Atom("a"),), Var("T")) != ListVal((Atom("a"),))


@pytest.mark.parametrize("make", [
    lambda: Atom("a"), lambda: Var("X"), value, entry, rule,
    lambda: Leaf(entry()), lambda: Node("1", (Leaf(entry()),)),
    lambda: Decomposition(parse_value("[rel: x]"), ((("mod",), Atom("a")),)),
])
def test_equal_values_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_packed_compares_by_identity():
    alternatives = (Leaf(entry()), Leaf(entry()))
    p, q = Packed(alternatives), Packed(alternatives)
    assert p == p and p != q
    assert hash(p) == object.__hash__(p)
    assert len({p, q}) == 2


@pytest.mark.parametrize("make", [
    value, entry, rule, lambda: Node("1", (Leaf(entry()),)),
    lambda: GenConfig(step_budget=7, max_results=2, trace=True),
])
@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(make, duplicate):
    original = make()
    twin = duplicate(original)
    assert type(twin) is type(original)
    assert twin == original


LEAF = ("Leaf(entry=LexEntry(surface='sentence', description=Avm[cat: Atom('n'),"
        " sem: Avm[rel: Atom('sentence')]], sense=0))")


@pytest.mark.parametrize("obj, text", [
    (value(), "Avm[f: ListVal<Atom('a'), Var('#1') | Var('T')>, g: Var('X'),"
              " h: Avm[i: Atom('b')]]"),
    (ListVal(()), "ListVal<>"),
    (entry(), LEAF[11:-1]),
    (rule(), "Rule(id='1', mother=Avm[cat: Atom('np'), sem: Var('S')],"
             " daughters=(Avm[cat: Atom('n'), sem: Var('S')],), head_index=0,"
             " sk_class='SK', nonsk_path=None)"),
    (Node("1", (Leaf(entry()),)), f"Node(rule_id='1', children=({LEAF},))"),
    (Packed((Leaf(entry()), Leaf(entry()))), f"Packed(alternatives=({LEAF}, {LEAF}))"),
    (Decomposition(parse_value("[rel: x]"), ((("mod",), Atom("a")),)),
     "Decomposition(kernel=Avm[rel: Atom('x')], nonsk_items=((('mod',), Atom('a')),))"),
    (GenConfig(5), "GenConfig(step_budget=5, max_results=None, trace=False)"),
    (GenResult([], 3, False),
     "GenResult(outputs=[], steps_used=3, exhausted_budget=False, trace_log=[])"),
    (BaselineResult([], 3, False), "BaselineResult(outputs=[], steps_used=3,"
     " exhausted_budget=False, trace_log=[], partial_outputs=[])"),
    (ParseResult([], 3, False),
     "ParseResult(analyses=[], steps_used=3, exhausted_budget=False)"),
    (RoundTripReport(True, "pass"), "RoundTripReport(ok=True, reason='pass', entries=[],"
     " generation=None, check_steps=0)"),
])
def test_repr_is_unchanged(obj, text):
    assert repr(obj) == text


def test_results_keep_their_positional_order():
    out, partial = (("x",), None, None), (("y",), None, None, ["incomplete"])
    result = GenResult([out], 5, True, ["t"])
    assert (result.outputs, result.steps_used, result.exhausted_budget,
            result.trace_log) == ([out], 5, True, ["t"])
    result = BaselineResult([out], 5, True, ["t"], [partial])
    assert (result.outputs, result.steps_used, result.exhausted_budget,
            result.trace_log, result.partial_outputs) == ([out], 5, True, ["t"], [partial])
    assert result.surfaces == ["x"] and result.partial_surfaces == ["y"]
    a, b = BaselineResult([], 0, False), BaselineResult([], 0, False)
    assert a.trace_log == a.partial_outputs == [] and a.trace_log is not b.trace_log
    assert a.partial_outputs is not b.partial_outputs


def test_records_compare_field_by_field_and_stay_mutable():
    assert GenConfig(5, 2, True) == GenConfig(step_budget=5, max_results=2, trace=True)
    assert GenConfig(5) != GenConfig(6)
    assert GenResult([], 3, False) == GenResult([], 3, False)
    assert GenResult([], 3, False) != BaselineResult([], 3, False)
    assert ParseResult([], 3, False) != ParseResult([], 4, False)
    assert RoundTripReport(True, "pass") == RoundTripReport(True, "pass", [], None, 0)
    assert load_grammar(MINI) == load_grammar(MINI)
    cfg = GenConfig(5)
    cfg.trace = True
    assert cfg.trace
    with pytest.raises(TypeError):
        hash(cfg)


def test_grammar_constructor_computes_its_link():
    loaded = load_grammar(MINI)
    built = Grammar(loaded.rules, loaded.lexicon, loaded.nonsk_paths, loaded.start)
    assert built == loaded
    assert built.link == frozenset({("n", "n"), ("np", "np"), ("np", "n")})
    assert built.tables is built.tables  # built once, on first use


def test_gen_config_reads_the_budget_when_constructed(monkeypatch):
    monkeypatch.setenv("SKG_BUDGET", "77")
    assert GenConfig().step_budget == 77
    monkeypatch.setenv("SKG_BUDGET", "5")
    assert GenConfig().step_budget == 5
    assert GenConfig(9).step_budget == 9
    monkeypatch.setenv("SKG_BUDGET", "0")
    with pytest.raises(ValueError):
        GenConfig()


@pytest.mark.parametrize("kwargs", [
    dict(step_budget=0), dict(step_budget=-3), dict(max_results=0),
    dict(step_budget=5, max_results=-1),
])
def test_gen_config_rejects_bad_limits(kwargs):
    with pytest.raises(ValueError):
        GenConfig(**kwargs)


def test_import_loads_no_dataclasses_or_inspect():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import skg; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, SRC],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
