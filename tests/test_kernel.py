"""Kernel / non-kernel decomposition tests."""

import ast
import pathlib
import random

import pytest

import skg
from skg import ABSENT, Atom, Avm, get, load_grammar, normalize, parse_value
from skg.kernel import (
    decompose,
    is_sk,
    lexically_grounded,
    nonsk_sites,
    nonsk_weight,
    normalize_nonsk,
    sk_of,
)
from skg.search import check_goal
from oracle import random_goal, recompose
from test_avm import READING, deep_value

TWO_PATHS = "nonsk sem.a.b.\nnonsk sem.mod.\n"


def P(text):
    return parse_value(text)


def test_nonsk_sites_reach_records_inside_list_items(grammar):
    sem = P("[rel: r, mod: <[rel: s, mod: <a | T>], b>, arg: [mod: <>]]")
    assert list(nonsk_sites(sem, grammar)) == [
        ((), ("mod",), get(sem, ("mod",))),
        (("mod", 0), ("mod",), P("<a | T>")),
        (("arg",), ("mod",), P("<>")),
    ]
    assert list(nonsk_sites(P("<[mod: <c>], d>"), grammar)) == [
        ((0,), ("mod",), P("<c>"))]
    assert list(nonsk_sites(P("atom"), grammar)) == []


def test_nonsk_sites_come_in_reading_order(grammar):
    sem = P(READING)
    assert list(nonsk_sites(sem, grammar)) == [
        ((), ("mod",), ABSENT),
        (("g", 0), ("mod",), P("<b>")),
        (("sem",), ("mod",), get(sem, ("sem", "mod"))),
    ]


def test_goal_check_and_sites_of_a_5000_deep_value(grammar):
    sem = deep_value(5000)
    check_goal(Avm((("cat", Atom("np")), ("sem", sem))), grammar)
    sites = list(nonsk_sites(sem, grammar))
    assert len(sites) == 2500 and all(at is ABSENT for _, _, at in sites)
    assert len(sites[-1][0]) == 4998


def test_nonsk_sites_of_a_two_segment_path():
    g = load_grammar(TWO_PATHS)
    sem = P("[a: [b: <x>], mod: <[a: y]>, c: [a: <w>]]")
    assert list(nonsk_sites(sem, g)) == [
        ((), ("a", "b"), P("<x>")),
        ((), ("mod",), P("<[a: y]>")),
        (("a",), ("a", "b"), ABSENT),        # missing
        (("a",), ("mod",), ABSENT),
        (("mod", 0), ("a", "b"), ABSENT),    # runs into the atom y
        (("mod", 0), ("mod",), ABSENT),
        (("c",), ("a", "b"), ABSENT),        # runs into a list
        (("c",), ("mod",), ABSENT),
    ]


def test_weight_split_and_minimal_reading_under_two_paths():
    g = load_grammar(TWO_PATHS)
    sem = P("[a: [b: <x, y>], mod: <[a: [b: <z | T>]], w>, c: [a: v]]")
    assert nonsk_weight(sem, g) == 5
    assert not is_sk(sem, g)
    d = decompose(sem, g)
    assert d.kernel == normalize(P("[a: [b: <>], c: [a: v], mod: <>]"))
    assert d.nonsk_items == (
        (("a", "b"), P("x")), (("a", "b"), P("y")),
        (("mod",), P("[a: [b: <z | T>]]")), (("mod",), P("w")))
    assert normalize_nonsk(sem, g) == normalize(P(
        "[a: [a: [b: <>], b: <x, y>, mod: <>], c: [a: v, mod: <>],"
        " mod: <[a: [a: [b: <>], b: <z>, mod: <>], mod: <>], w>]"))


def test_only_the_kernel_module_reads_the_nonsk_paths():
    # The non-kernel view is skg.kernel's walk; besides it, only the loader
    # and serializer (grammar.py) and `skg check`'s report (cli.py) may
    # read Grammar.nonsk_paths, so a change to what the paths mean (paths
    # inferred from the rules, set-valued paths) stays in one module.
    readers = {
        path.name for path in pathlib.Path(skg.__file__).parent.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "nonsk_paths"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}
    assert readers <= {"kernel.py", "grammar.py", "cli.py"}


def test_is_sk_cases(grammar):
    assert is_sk(P("[rel: sentence]"), grammar)
    assert is_sk(P("[rel: sentence, mod: <>]"), grammar)
    assert not is_sk(P("[rel: sentence, mod: <complex>]"), grammar)
    assert not is_sk(P("[rel: sentence, mod: <X | T>]"), grammar)
    assert is_sk(P("atom"), grammar)


def test_is_sk_ignores_embedded_structures(grammar):
    # only the structure's own non-kernel paths count; embedded
    # substructures are re-examined when they become goals
    sem = P("[pred: generate, mod: <>, arg1: [rel: program, mod: <little>]]")
    assert is_sk(sem, grammar)


def test_decompose_strips_top_level_items(grammar, np_goal):
    sem = get(np_goal, ("sem",))
    d = decompose(sem, grammar)
    assert d.kernel == normalize(P("[def: +, mod: <>, rel: sentence]"))
    assert d.nonsk_items == ((("mod",), P("complex")),)


def test_decompose_keeps_embedded_mods(grammar, sentence_goal):
    sem = get(sentence_goal, ("sem",))
    d = decompose(sem, grammar)
    assert [x for _, x in d.nonsk_items] == [P("quick")]
    assert get(d.kernel, ("mod",)) == P("<>")
    assert get(d.kernel, ("arg1", "mod")) == P("<little, prolog>")


def test_decompose_rejects_non_list(grammar):
    with pytest.raises(ValueError):
        decompose(P("[mod: oops]"), grammar)


def test_recompose_inverts_decompose(grammar):
    rng = random.Random(11)
    for _ in range(50):
        sem = get(random_goal(rng), ("sem",))
        d = decompose(sem, grammar)
        assert recompose(d) == normalize(sem)


def test_sk_of(grammar, np_goal):
    sem = get(np_goal, ("sem",))
    assert sk_of(sem, P("[rel: sentence]"), grammar)
    assert sk_of(sem, P("[def: +]"), grammar)
    assert not sk_of(sem, P("[rel: program]"), grammar)
    # a candidate mentioning the stripped modifier is not kernel info
    assert not sk_of(sem, P("[mod: <complex>]"), grammar)


def test_normalize_nonsk_fills_and_closes(grammar):
    v = normalize_nonsk(P("[rel: sentence]"), grammar)
    assert get(v, ("mod",)) == P("<>")
    v = normalize_nonsk(P("[rel: sentence, mod: <complex | T>]"), grammar)
    assert get(v, ("mod",)) == P("<complex>")
    v = normalize_nonsk(P("[arg1: [rel: program]]"), grammar)
    assert get(v, ("arg1", "mod")) == P("<>")


def test_lexically_grounded(grammar):
    assert lexically_grounded(P("[rel: sentence]"), grammar)
    assert lexically_grounded(P("quick"), grammar)
    assert not lexically_grounded(P("[rel: nothing]"), grammar)
