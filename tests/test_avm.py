"""Core value type, unification, subsumption and syntax tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from skg import (
    ABSENT,
    Atom,
    Avm,
    AvmSyntaxError,
    Env,
    ListVal,
    Overlay,
    Var,
    equal_modulo_renaming,
    get,
    normalize,
    parse_value,
    put,
    render,
    substructures,
    subsumes,
    unify,
    variables,
)
from oracle import ground_subsumes, ground_unify, universe

UNIVERSE = universe()


def P(text):
    return parse_value(text)


# ---------------------------------------------------------------------------
# Syntax.
# ---------------------------------------------------------------------------


def test_parse_atom_and_var():
    assert P("hello") == Atom("hello")
    assert P("X") == Var("X")
    assert P("#1") == Var("#1")


def test_parse_record_and_paths():
    v = P("[cat: np, sem.rel: dog, sem.def: +]")
    assert get(v, ("cat",)) == Atom("np")
    assert get(v, ("sem", "rel")) == Atom("dog")
    assert get(v, ("sem", "def")) == Atom("+")


def test_parse_lists():
    assert P("<>") == ListVal((), None)
    assert P("<a, b>") == ListVal((Atom("a"), Atom("b")), None)
    v = P("<a | T>")
    assert v.items == (Atom("a"),) and v.tail == Var("T")


def test_parse_repeated_feature_makes_overlay():
    v = P("[sem: X, sem: [mod: M]]")
    sem = get(v, ("sem",))
    assert isinstance(sem, Overlay)
    assert sem.rest == Var("X")
    assert sem.over == Avm((("mod", Var("M")),))


def test_parse_repeated_record_features_merge():
    v = P("[sem: [rel: dog], sem: [def: +]]")
    sem = get(v, ("sem",))
    assert get(sem, ("rel",)) == Atom("dog")
    assert get(sem, ("def",)) == Atom("+")


def test_parse_errors():
    for bad in ("[a b]", "<a | b>", "[f:", "#", '"unterminated'):
        with pytest.raises(AvmSyntaxError):
            P(bad)


@settings(max_examples=200)
@given(st.sampled_from(UNIVERSE))
def test_render_parse_roundtrip_ground(v):
    assert P(render(v)) == v


def test_render_parse_roundtrip_with_vars():
    samples = [
        "[cat: s, sem: X, sem: [mod: <M | Mods>]]",
        "[subcat: <[cat: np, sem: A1], [cat: np, sem: A2]>]",
        "<a, [f: X] | T>",
    ]
    for text in samples:
        v = P(text)
        assert equal_modulo_renaming(P(render(v)), v)


# ---------------------------------------------------------------------------
# Unification against the ground oracle.
# ---------------------------------------------------------------------------


@settings(max_examples=300)
@given(st.sampled_from(UNIVERSE), st.sampled_from(UNIVERSE))
def test_unify_matches_ground_oracle(a, b):
    expect = ground_unify(a, b)
    got = unify(a, b)
    if expect is None:
        assert got is None
    else:
        assert got is not None
        assert normalize(got) == normalize(expect)


@settings(max_examples=300)
@given(st.sampled_from(UNIVERSE), st.sampled_from(UNIVERSE))
def test_unify_commutative_ground(a, b):
    x, y = unify(a, b), unify(b, a)
    assert (x is None) == (y is None)
    if x is not None:
        assert normalize(x) == normalize(y)


@settings(max_examples=200)
@given(st.sampled_from(UNIVERSE))
def test_unify_idempotent_ground(a):
    assert normalize(unify(a, a)) == normalize(a)


@settings(max_examples=300)
@given(st.sampled_from(UNIVERSE), st.sampled_from(UNIVERSE))
def test_unify_result_subsumed_by_args(a, b):
    u = unify(a, b)
    if u is not None:
        u = normalize(u)
        assert subsumes(a, u) and subsumes(b, u)
        assert ground_subsumes(a, u) and ground_subsumes(b, u)


@settings(max_examples=300)
@given(st.sampled_from(UNIVERSE), st.sampled_from(UNIVERSE))
def test_subsumes_matches_ground_oracle(a, b):
    assert subsumes(a, b) == ground_subsumes(a, b)


def test_unify_variable_binding_and_reentrancy():
    u = unify(P("[f: X, g: X]"), P("[f: a]"))
    assert get(normalize(u), ("g",)) == Atom("a")


def test_unify_reentrancy_clash():
    assert unify(P("[f: X, g: X]"), P("[f: a, g: b]")) is None


def test_occurs_check():
    # pure unify renames the sides apart, so share an Env instead
    env = Env()
    x = P("X")
    assert env.unify(x, Avm((("f", x),))) is None
    # within one side, a cyclic constraint still fails
    assert unify(P("[f: X, g: X]"), P("[f: Y, g: [h: Y]]")) is None


def test_unify_open_lists():
    u = unify(P("<a | T>"), P("<a, b, c>"))
    assert normalize(u) == P("<a, b, c>")
    assert unify(P("<a, b>"), P("<a>")) is None
    assert unify(P("<a | T>"), P("<b | S>")) is None


def test_unify_list_tail_reentrancy():
    u = unify(P("[l: <a | T>, t: T]"), P("[l: <a, b>]"))
    assert get(normalize(u), ("t",)) == P("<b>")


def test_unify_open_records():
    u = normalize(unify(P("[f: a]"), P("[g: b]")))
    assert u == P("[f: a, g: b]")


def test_overlay_forcing():
    # the rest variable stands for the remaining features
    a = P("[sem: X, sem: [mod: <m>], copy: X]")
    b = P("[sem: [rel: dog, mod: <>]]")
    u = unify(a, b)
    assert u is None  # mod <m> clashes with mod <>
    b2 = P("[sem: [rel: dog, mod: <m>]]")
    u2 = normalize(unify(a, b2))
    assert get(u2, ("copy",)) == P("[rel: dog]")
    assert get(u2, ("sem", "mod")) == P("<m>")


def test_overlay_rest_excludes_overlaid_features():
    a = P("[sem: R, sem: [mod: M]]")
    b = P("[sem: [rel: dog, def: +, mod: <x>]]")
    u = unify(Avm((("x", a), ("r", get(a, ("sem",)).rest))), Avm((("x", b),)))
    rest = get(normalize(u), ("r",))
    assert rest == P("[def: +, rel: dog]")


# ---------------------------------------------------------------------------
# Subsumption specifics.
# ---------------------------------------------------------------------------


def test_subsumes_variables_one_way():
    assert subsumes(P("X"), P("[f: a]"))
    assert not subsumes(P("[f: a]"), P("X"))
    assert subsumes(P("[f: X]"), P("[f: a, g: b]"))
    assert not subsumes(P("[f: a, g: b]"), P("[f: a]"))


def test_subsumes_respects_reentrancy():
    assert subsumes(P("[f: X, g: X]"), P("[f: a, g: a]"))
    assert not subsumes(P("[f: X, g: X]"), P("[f: a, g: b]"))
    # the specific side's reentrancy need not be claimed by the general side
    assert subsumes(P("[f: X, g: Y]"), P("[f: a, g: a]"))


def test_subsumes_specific_side_vars_stay():
    # a variable on the specific side carries no information
    assert not subsumes(P("[f: a]"), P("[f: X]"))
    assert subsumes(P("[f: X]"), P("[f: Y]"))


# ---------------------------------------------------------------------------
# Helpers: normalize, get/put, substructures, variables.
# ---------------------------------------------------------------------------


def test_normalize_sorts_and_renames():
    v = P("[b: Q, a: [z: Q, y: R]]")
    n = normalize(v)
    assert [f for f, _ in n.pairs] == ["a", "b"]
    # shared var renamed consistently, distinct from the other var
    assert get(n, ("a", "z")) == get(n, ("b",))
    assert get(n, ("a", "y")) != get(n, ("b",))


def test_equal_modulo_renaming():
    assert equal_modulo_renaming(P("[f: A, g: A]"), P("[f: B, g: B]"))
    assert not equal_modulo_renaming(P("[f: A, g: A]"), P("[f: A, g: B]"))


def test_get_put():
    v = P("[sem: [mod: <a>]]")
    assert get(v, ("sem", "mod")) == P("<a>")
    assert get(v, ("sem", "nope")) is ABSENT
    w = put(v, ("sem", "mod"), P("<>"))
    assert get(w, ("sem", "mod")) == P("<>")
    assert get(v, ("sem", "mod")) == P("<a>")  # original untouched


def test_substructures():
    v = P("[f: [g: a], h: <[i: b]>]")
    subs = list(substructures(v))
    assert P("[g: a]") in subs
    assert P("[i: b]") in subs
    assert v in subs


def test_variables():
    v = P("[f: X, g: <Y | X>]")
    tags = {x.tag for x in variables(v)}
    assert tags == {"X", "Y"}


# ---------------------------------------------------------------------------
# Env-level behavior.
# ---------------------------------------------------------------------------


def test_env_trail_undo():
    env = Env()
    x = P("X")
    mark = env.mark()
    assert env.unify(x, P("a")) is not None
    assert env.resolve(x) == Atom("a")
    env.undo(mark)
    assert env.resolve(x) == x


def test_env_instantiate_renames_apart():
    env = Env()
    v = P("[f: X, g: X]")
    a = env.instantiate(v, {})
    b = env.instantiate(v, {})
    assert not ({x.tag for x in variables(a)}
                & {x.tag for x in variables(b)})
    # reentrancy inside one instantiation is kept
    assert get(a, ("f",)) == get(a, ("g",))


def test_env_step_hook_counts_work():
    env = Env()
    counter = []
    env.on_step = lambda: counter.append(1)
    env.unify(P("[f: a, g: [h: b]]"), P("[f: a, g: [h: b]]"))
    assert len(counter) >= 1


def test_random_ground_triples_associative():
    rng = random.Random(7)
    for _ in range(2000):
        a, b, c = rng.choice(UNIVERSE), rng.choice(UNIVERSE), rng.choice(UNIVERSE)
        ab = ground_unify(a, b)
        bc = ground_unify(b, c)
        left = ground_unify(ab, c) if ab is not None else None
        right = ground_unify(a, bc) if bc is not None else None
        got_left = unify(ab, c) if ab is not None else None
        got_right = unify(a, bc) if bc is not None else None
        assert (left is None) == (got_left is None)
        assert (right is None) == (got_right is None)
        if left is not None and right is not None:
            assert left == right
            assert normalize(got_left) == normalize(got_right) == normalize(left)


def test_package_attribute_avm_is_the_module():
    import skg
    assert skg.avm.Env is Env
