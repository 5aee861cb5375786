"""Kernel / non-kernel decomposition tests."""

import random

import pytest

from skg import get, normalize, parse_value
from skg.kernel import (
    decompose,
    is_sk,
    lexically_grounded,
    normalize_nonsk,
    sk_of,
)
from oracle import random_goal, recompose


def P(text):
    return parse_value(text)


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
