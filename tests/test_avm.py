"""Core value type, unification, subsumption and syntax tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from skg import (
    ABSENT,
    Atom,
    Avm,
    AvmSyntaxError,
    BudgetExhausted,
    Env,
    ListVal,
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
from skg.avm import parts
from oracle import (ground_subsumes, ground_unify, reference_occurs,
                    reference_resolve, universe)

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
    # a variable written with a record becomes the record's rest
    v = P("[sem: X, sem: [mod: M]]")
    assert get(v, ("sem",)) == Avm((("mod", Var("M")),), Var("X"))
    assert Avm((("mod", Var("M")),)).rest is None


def test_parse_repeated_record_features_merge():
    v = P("[sem: [rel: dog], sem: [def: +]]")
    sem = get(v, ("sem",))
    assert get(sem, ("rel",)) == Atom("dog")
    assert get(sem, ("def",)) == Atom("+")


def test_repeated_features_keep_first_order_and_report_the_later_one():
    v = P("[b: [c: y], a: x, b.d: z, b: [c: y]]")
    assert v == Avm((("b", P("[c: y, d: z]")), ("a", Atom("x"))))
    with pytest.raises(AvmSyntaxError) as error:
        P("[a: x,\n b: y,\n a: z]")
    assert (error.value.line, error.value.column) == (3, 2)


def test_parse_errors():
    for bad in ("[a b]", "<a | b>", "[f:", "#", '"unterminated', "[a: b % note"):
        with pytest.raises(AvmSyntaxError):
            P(bad)
    # the end of input is where the text ends, also after a trailing comment
    with pytest.raises(AvmSyntaxError, match=r"found '' \(line 1, column 13\)"):
        P("[a: b % note")
    with pytest.raises(AvmSyntaxError, match=r"\(line 2, column 15\)"):
        P("% only\n   % a comment")


def test_nesting_is_bounded():
    assert P("[f: " * 50 + "<" * 50 + "a" + ">" * 50 + "]" * 50) is not None
    for deep in ("<" * 101 + ">" * 101, "[f: " * 60 + "<" * 41 + ">" * 41 + "]" * 60):
        with pytest.raises(AvmSyntaxError, match="nested deeper than 100"):
            P(deep)


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


# Env.resolve flattens a chain of bound list tails through Env._onward,
# and Env.occurs jumps across one through the Env.ends memo; the
# references in oracle.py walk every item and tail themselves.
N_VARS = 5


def _tails(lo):
    """None, or one of the variables V<lo> .. V<N_VARS - 1>."""
    return st.sampled_from([None] + [Var(f"V{i}") for i in range(lo, N_VARS)])


def _items(lo):
    """Values over the variables V<lo> .. V<N_VARS - 1>."""
    leaves = st.sampled_from([Atom("a"), Atom("b")]
                             + [Var(f"V{i}") for i in range(lo, N_VARS)])

    def compound(children):
        lists = st.builds(ListVal, st.lists(children, max_size=3).map(tuple),
                          _tails(lo))
        return _records(children, lo) | lists

    return st.recursive(leaves, compound, max_leaves=4)


def _records(values, lo):
    """Records listing f, g, both or neither, with a rest from V<lo> .. or none."""
    return st.builds(lambda f, g, rest: Avm(tuple(p for p in (("f", f), ("g", g))
                                                  if p[1] is not None), rest),
                     st.none() | values, st.none() | values, _tails(lo))


ITEMS = [_items(lo) for lo in range(N_VARS + 1)]  # ITEMS[N_VARS]: variable-free
TAILS = [_tails(lo) for lo in range(N_VARS + 1)]
RECORDS = [_records(ITEMS[lo], lo) for lo in range(N_VARS + 1)]
VARS = st.sampled_from([Var(f"V{i}") for i in range(N_VARS)])


def _lists(items):
    return st.builds(ListVal, st.lists(items, max_size=3).map(tuple), TAILS[0])


#: Lists whose items are atoms, variables or such lists.
LISTS = _lists(st.recursive(st.sampled_from([Atom("a"), Atom("b")]) | VARS, _lists,
                            max_leaves=4))


def _segment(draw, lo, tails):
    """A list over V<lo> ..; half of them have variable-free items."""
    items = ITEMS[N_VARS] if draw(st.booleans()) else ITEMS[lo]
    return ListVal(tuple(draw(st.lists(items, max_size=4))), draw(tails))


@st.composite
def bound_values(draw):
    """An Env binding each V<i> (or not) to a value over V<i+1> .., and a value.

    A variable bound to a list makes a chain of bound list tails, mixing
    variable-free and non-variable-free segments; one bound to an atom
    or a record makes an ill-typed tail.  A record's rest may be unbound,
    bound to a record (which may list the same feature, or have a bound
    rest of its own) or ill-typed.  V<i+1> .. are bound before V<i>, as a
    search binds a list's tail before the list.
    """
    env = Env()
    for i in reversed(range(N_VARS)):
        kind = draw(st.sampled_from(["unbound", "list", "list", "record", "other"]))
        if kind == "list":
            env.bind(f"V{i}", _segment(draw, i + 1, TAILS[i + 1]))
        elif kind == "record":
            env.bind(f"V{i}", draw(RECORDS[i + 1]))
        elif kind == "other":
            env.bind(f"V{i}", draw(ITEMS[i + 1]))
    value = _segment(draw, 0, st.sampled_from([Var("V0"), Var("V1"), None]))
    if draw(st.booleans()):
        value = Avm((("f", value),), draw(st.sampled_from([None, Var("V0"), Var("V1")])))
    return env, value


def _apart(value, tags):
    """``value`` with each variable occurrence renamed to a new one, added to ``tags``."""
    if isinstance(value, Var):
        tags.append(f"F{len(tags)}")
        return Var(tags[-1])
    if isinstance(value, Avm):
        pairs = tuple((f, _apart(v, tags)) for f, v in value.pairs)
        return Avm(pairs, value.rest and _apart(value.rest, tags))
    if isinstance(value, ListVal):
        items = tuple(_apart(v, tags) for v in value.items)
        return ListVal(items, value.tail and _apart(value.tail, tags))
    return value


def _check_occurs(env, tags, values):
    for v in values:
        for tag in tags:
            assert env.occurs(tag, v) == reference_occurs(env, tag, v), (tag, v)


@settings(max_examples=200, deadline=None)
@given(bound_values(),
       st.lists(st.tuples(VARS | ITEMS[0], ITEMS[0], st.booleans()), max_size=4),
       st.lists(st.tuples(LISTS, LISTS, st.booleans()), max_size=3))
def test_resolve_and_occurs_match_the_references(case, steps, list_steps):
    env, value = case
    expected = reference_resolve(env, value)
    # the second pass resolves a value that is already resolved
    for v in (value, env.resolve(value)):
        got = env.resolve(v)
        assert got == expected
        assert hash(got) == hash(expected) and repr(got) == repr(expected)
        for i in range(N_VARS):
            assert env.occurs(f"V{i}", v) == reference_occurs(env, f"V{i}", v)
    # Then bindings made by unification, which rebinds the variables it
    # walks through (often a bare variable on the left), kept or undone.
    # Each right-hand side has its variables renamed apart, as a rule copy
    # has: unify does not check that a rebinding keeps the bindings acyclic.
    tags = [f"V{i}" for i in range(N_VARS)]
    values = [value]
    for a, b, keep in steps:
        b = _apart(b, tags)
        values += [a, b]
        mark = env.mark()
        unified = env.unify(a, b) is not None
        _check_occurs(env, tags, values)
        if not (unified and keep):
            env.undo(mark)
            _check_occurs(env, tags, values)
    # A kept unification of two lists makes both sides and the result
    # resolve to one value.
    for a, b, keep in list_steps:
        b = _apart(b, tags)
        mark = env.mark()
        result = env.unify(a, b)
        if result is None or not keep:
            env.undo(mark)
            continue
        a, b, result = (normalize(reference_resolve(env, v)) for v in (a, b, result))
        assert a == b == result
        _check_occurs(env, tags, values)


def test_occurs_memo_follows_rebinding_and_undo():
    env = Env()
    # a list whose open end a rebinding closes, then undone
    env.bind("V", P("<a | T>"))
    mark = env.mark()
    assert env.unify(Var("V"), P("<a>")) is not None
    assert not env.occurs("T", Var("V"))
    env.undo(mark)
    assert env.occurs("T", Var("V"))
    # a record item that unification extends with a variable
    env.bind("R", P("[f: a]"))
    env.bind("W", ListVal((Var("R"),), Var("U")))
    assert env.unify(Var("R"), P("[g: X]")) is not None
    assert env.occurs("X", Var("W"))


def test_unify_rebinds_the_last_variable_of_a_chain():
    env = Env()
    env.bind("V1", Var("V2"))
    env.bind("V2", P("[f: a]"))
    assert env.unify(Var("V1"), P("[g: b]")) == Var("V1")
    assert env.bindings["V2"] == P("[f: a, g: b]")
    assert env.bindings["V1"] == Var("V2")


def test_unify_rebinds_both_chains_to_one_record():
    env = Env()
    for tag, value in (("A1", Var("A2")), ("A2", P("[f: a]")),
                       ("B1", Var("B2")), ("B2", P("[g: b]"))):
        env.bind(tag, value)
    mark = env.mark()
    assert env.unify(Var("A1"), Var("B1")) == Var("B1")
    assert env.bindings["A2"] is env.bindings["B2"]
    assert env.bindings["A2"] == P("[f: a, g: b]")
    assert env.mark() == mark + 2


def test_unify_of_two_variables_bound_to_one_object_binds_nothing():
    env = Env()
    record = P("[f: a]")
    env.bind("X1", record)
    env.bind("Y1", record)
    mark = env.mark()
    assert env.unify(Var("X1"), Var("Y1")) == Var("X1")
    assert (env.steps, env.mark()) == (1, mark)


def test_unify_of_one_unbound_variable_with_itself_binds_nothing():
    env = Env()
    a, b = Var("X"), Var("X")
    assert a is not b
    assert env.unify(a, b) == Var("X")
    assert env.bindings == {} and env.trail == []


def test_unify_open_lists():
    u = unify(P("<a | T>"), P("<a, b, c>"))
    assert normalize(u) == P("<a, b, c>")
    assert unify(P("<a, b>"), P("<a>")) is None
    assert unify(P("<a | T>"), P("<b | S>")) is None


def test_unify_list_tail_reentrancy():
    u = unify(P("[l: <a | T>, t: T]"), P("[l: <a, b>]"))
    assert get(normalize(u), ("t",)) == P("<b>")
    # a tail that an item takes, or that is bound to a non-list, is not open
    assert unify(P("<X | X>"), P("<a, b>")) is None
    assert normalize(unify(P("<X | X>"), P("<<b>, b>"))) == P("<<b>, b>")
    assert unify(P("[t: T, l: <a | T>]"), P("[t: b, l: <a, c>]")) is None


def test_unify_list_tail_outcomes():
    # a closed end takes an open end that has nothing left: the open end closes
    assert normalize(unify(P("<a>"), P("<a | T>"))) == P("<a>")
    # two open ends with nothing left become one variable
    u = unify(P("[l: <a | T>, m: <a | U>, t: T, u: U]"), P("[l: L, m: L, u: <b>]"))
    assert get(normalize(u), ("t",)) == P("<b>")
    # an open end may not take a rest that holds the end itself
    env = Env()
    assert env.unify(P("[l: <a | T>, m: <a, b | T>]"), P("[l: L, m: L]")) is None


def test_unify_open_records():
    u = normalize(unify(P("[f: a]"), P("[g: b]")))
    assert u == P("[f: a, g: b]")
    # the first record's features, then the second's others
    env = Env()
    u = env.unify(P("[g: a, f: X]"), P("[h: c, f: b, g: a]"))
    assert [f for f, _ in u.pairs] == ["g", "f", "h"] and u.rest is None
    # shared features unify in the second record's order: h, then f fails
    env = Env()
    assert env.unify(P("[f: a, g: b, h: c]"), P("[h: c, f: x, g: b]")) is None
    assert env.steps == 3
    # a record whose rest is bound to a record folds to a plain record
    env = Env()
    row = get(P("[r: R, r: [f: a]]"), ("r",))
    assert env.unify(Var("R"), P("[g: b]")) is not None
    u = env.unify(row, P("[h: c, f: a]"))
    assert u == Avm((("g", Atom("b")), ("f", Atom("a")), ("h", Atom("c"))))


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
    # a plain record against a record with a rest, on either side: the rest
    # takes the plain record's other features, in the plain record's order
    for flip in (False, True):
        env = Env()
        row, plain = get(P("[r: R, r: [mod: M]]"), ("r",)), P("[rel: dog, mod: <>, def: +]")
        u = env.unify(*((plain, row) if flip else (row, plain)))
        assert u == Avm((("mod", Var("M")),), Var("R"))
        assert env.resolve(Var("R")) == P("[rel: dog, def: +]")
        assert env.resolve(u) == P("[rel: dog, def: +, mod: <>]")


def test_overlay_rest_excludes_overlaid_features():
    a = P("[sem: R, sem: [mod: M]]")
    b = P("[sem: [rel: dog, def: +, mod: <x>]]")
    u = unify(Avm((("x", a), ("r", get(a, ("sem",)).rest))), Avm((("x", b),)))
    rest = get(normalize(u), ("r",))
    assert rest == P("[def: +, rel: dog]")


def test_independent_rests_share_a_fresh_rest():
    env = Env()
    u = env.unify(P("[x: [f: R, f: [a: x]], r: R]"), P("[x: [f: S, f: [b: y]], s: S]"))
    assert u is not None
    r, s = env.resolve(Var("R")), env.resolve(Var("S"))
    assert r.pairs == (("b", Atom("y")),) and s.pairs == (("a", Atom("x")),)
    assert r.rest == s.rest and env.walk(r.rest) == r.rest  # one fresh, unbound rest
    assert normalize(env.resolve(u)) == normalize(
        P("[x: [f: T, f: [a: x, b: y]], r: [b: y], r: T, s: [a: x], s: T]"))


def test_one_rest_with_different_features_clashes():
    env = Env()
    assert env.unify(P("[f: R, f: [a: x]]"), P("[f: R, f: [b: y]]")) is None
    assert env.unify(P("[f: R, f: [a: X]]"), P("[f: R, f: [a: x]]")) is not None
    assert env.resolve(Var("X")) == Atom("x")


def test_a_rest_that_would_contain_itself_fails():
    env = Env()
    v = P("[s: R, s: [a: x], t: [b: [c: R]]]")
    assert env.unify(get(v, ("s",)), get(v, ("t",))) is None


def test_a_rest_keeps_what_a_listed_feature_binds_it_to():
    # R is bound to the features only [g: ..] lists (none) before g unifies
    # and binds R to [h: x]; the merged record shows that through its rest
    env = Env()
    u = env.unify(get(P("[f: R, f: [g: R]]"), ("f",)), P("[g: [h: x]]"))
    assert normalize(env.resolve(u)) == P("[g: [h: x], h: x]")


def test_resolve_folds_a_rest_by_restriction_without_unifying():
    env = Env()
    v = P("[s: N, s: [def: D], n: N]")
    assert env.unify(get(v, ("n",)), P("[def: +, rel: x]")) is not None
    steps, trail = env.steps, len(env.trail)
    # the record's own def wins over its rest's; nothing is unified or bound
    assert env.resolve(get(v, ("s",))) == Avm((("def", Var("D")), ("rel", Atom("x"))))
    assert (env.steps, len(env.trail)) == (steps, trail)
    assert env.resolve(Var("D")) == Var("D")


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


#: A value with a rest, a tail and a record inside a list, for the walk orders.
READING = "[f: X, g: <[h: Y, mod: <b>] | T>, sem: S, sem: [mod: <a | M>]]"


def test_substructures():
    v = P("[f: [g: a], h: <[i: b]>]")
    subs = list(substructures(v))
    assert P("[g: a]") in subs
    assert P("[i: b]") in subs
    assert v in subs
    # each normal form once, in reading order
    assert [render(s) for s in substructures(P(READING))] == [
        "[f: #0, g: <[h: #2, mod: <b>] | #1>, sem: #4, sem: [mod: <a | #3>]]",
        "#0",
        "<[h: #1, mod: <b>] | #0>",
        "[h: #0, mod: <b>]",
        "<b>",
        "b",
        "#1 & [mod: <a | #0>]",
        "<a | #0>",
        "a",
    ]


def test_variables():
    v = P("[f: X, g: <Y | X>]")
    tags = {x.tag for x in variables(v)}
    assert tags == {"X", "Y"}
    # in reading order: a record's rest and a list's tail after its items
    assert [x.tag for x in variables(P(READING))] == ["X", "Y", "T", "M", "S"]


def test_parts_come_in_reading_order():
    v = P(READING)
    assert [(where, render(part)) for where, part in parts(v)][1:] == [
        (("f",), "X"),
        (("g",), "<[h: Y, mod: <b>] | T>"),
        (("g", 0), "[h: Y, mod: <b>]"),
        (("g", 0, "h"), "Y"),
        (("g", 0, "mod"), "<b>"),
        (("g", 0, "mod", 0), "b"),
        (("g", "|"), "T"),
        (("sem",), "S & [mod: <a | M>]"),
        (("sem", "mod"), "<a | M>"),
        (("sem", "mod", 0), "a"),
        (("sem", "mod", "|"), "M"),
        (("sem", "|"), "S"),
    ]


def deep_value(depth):
    """Records and lists alternating ``depth`` deep around one variable."""
    v = Var("X")
    for level in range(depth):
        v = Avm((("f", v),)) if level % 2 else ListVal((v,))
    return v


def test_variables_of_a_5000_deep_value():
    try:
        tags = [x.tag for x in variables(deep_value(5000))]
    except RecursionError:  # failed here, since pytest's report of it takes minutes
        pytest.fail("variables recursed")
    assert tags == ["X"]


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
    env.unify(P("[f: a, g: [h: b]]"), P("[f: a, g: [h: b]]"))
    assert env.steps >= 1


@pytest.mark.parametrize("budget", [1, 3])
def test_env_budget_raises_on_the_step_after_it(budget):
    env = Env(budget)
    for _ in range(budget):
        env.tick()
    assert env.steps == budget
    with pytest.raises(BudgetExhausted):
        env.tick()
    assert env.steps == budget + 1
    # every unification node is a step
    env = Env(budget)
    with pytest.raises(BudgetExhausted):
        env.unify(P("[f: [g: [h: a]]]"), P("[f: [g: [h: a]]]"))
    assert env.steps == budget + 1


def test_env_without_budget_never_raises():
    env = Env()
    for _ in range(10 ** 4):
        env.tick()
    assert env.steps == 10 ** 4


def test_budget_exhausted_is_one_class():
    import skg.search
    assert skg.BudgetExhausted is skg.search.BudgetExhausted is BudgetExhausted


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
