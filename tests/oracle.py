"""Oracles used by the test suite.

Nothing here shares search logic with the package: the generation
oracle is a brute-force bottom-up chart enumeration bounded by yield
length, and the unification oracle is a direct recursive meet on
variable-free values.  The enumerator builds its constituents with the
package's ``Env``, so it cannot see a fault in ``Env.unify``.  The element-by-element ``reference_resolve`` and
``reference_occurs`` use only ``Env``'s variable lookup, not its walker
of bound list tails or its occurs memo, and fold a record's bound rests
themselves.
"""

from __future__ import annotations

import itertools
import random

from skg import (
    ABSENT,
    Atom,
    Avm,
    Env,
    Grammar,
    Leaf,
    ListVal,
    Node,
    Var,
    get,
    normalize,
    put,
    render,
)
from skg.kernel import Decomposition, normalize_nonsk


# ---------------------------------------------------------------------------
# Brute-force generation oracle.
# ---------------------------------------------------------------------------


def enumerate_constituents(grammar: Grammar, max_tokens: int):
    """All derivable (cat, value, tokens) triples with bounded yield.

    Values are fully resolved and normalized; duplicates (same category,
    same yield, same value) are collapsed.  Finite because every rule
    cycle in the bundled grammar consumes at least one token.
    """
    items = []
    by_cat_len: dict = {}  # (cat, yield length) -> list of items
    seen = set()

    def add(cat, value, tokens):
        key = (cat, tokens, render(value))
        if key in seen:
            return None
        seen.add(key)
        item = (cat, value, tokens)
        items.append(item)
        by_cat_len.setdefault((cat, len(tokens)), []).append(item)
        return item

    def pool(cat, max_len):
        for ln in range(1, max_len + 1):
            yield from by_cat_len.get((cat, ln), ())

    agenda = []
    for entry in grammar.lexicon:
        item = add(entry.cat, normalize(entry.description), (entry.surface,))
        if item:
            agenda.append(item)

    while agenda:
        new = agenda.pop()
        for rule in grammar.rules:
            n = len(rule.daughters)
            for i in range(n):
                if rule.daughter_cat(i) != new[0]:
                    continue
                room = max_tokens - len(new[2])
                pools = [
                    (new,) if j == i else
                    tuple(pool(rule.daughter_cat(j), room))
                    for j in range(n)
                ]
                for combo in itertools.product(*pools):
                    tokens = tuple(t for it in combo for t in it[2])
                    if len(tokens) > max_tokens:
                        continue
                    value = _apply(rule, combo)
                    if value is None:
                        continue
                    item = add(rule.mother_cat, value, tokens)
                    if item:
                        agenda.append(item)
    return items


def _apply(rule, combo):
    env = Env()
    mapping = {}
    mother = env.instantiate(rule.mother, mapping)
    daughters = [env.instantiate(d, mapping) for d in rule.daughters]
    for d, (_, value, _) in zip(daughters, combo):
        if env.unify(d, env.instantiate(value, {})) is None:
            return None
    resolved = env.resolve(mother)
    if env.unify(resolved, resolved) is None:
        return None
    return normalize(env.resolve(mother))


def oracle_surfaces(grammar: Grammar, goal, max_tokens: int):
    """Yields realizing exactly the goal semantics (minimal reading)."""
    goal_cat = get(goal, ("cat",)).name
    goal_sem = get(goal, ("sem",))
    want = normalize_nonsk(goal_sem, grammar)
    out = set()
    for cat, value, tokens in enumerate_constituents(grammar, max_tokens):
        if cat != goal_cat:
            continue
        sem = get(value, ("sem",))
        if sem is ABSENT:
            continue
        if normalize_nonsk(sem, grammar) == want:
            out.add(tokens)
    return out


# ---------------------------------------------------------------------------
# Kernel decomposition inverse.
# ---------------------------------------------------------------------------


def recompose(d: Decomposition):
    """Append the stripped elements back at their paths (inverts decompose)."""
    sem = d.kernel
    for path, element in d.nonsk_items:
        current = get(sem, path)
        if not isinstance(current, ListVal):
            current = ListVal((), None)
        sem = put(sem, path, ListVal(current.items + (element,), current.tail))
    return normalize(sem)


# ---------------------------------------------------------------------------
# Ground unification oracle (information meet on variable-free values).
# ---------------------------------------------------------------------------


def ground_unify(a, b):
    """Least upper bound in the information order, or None on clash."""
    if isinstance(a, Atom) and isinstance(b, Atom):
        return a if a.name == b.name else None
    if isinstance(a, Avm) and isinstance(b, Avm):
        feats = sorted(set(f for f, _ in a.pairs) | set(f for f, _ in b.pairs))
        pairs = []
        for f in feats:
            av, bv = a.get(f), b.get(f)
            if av is ABSENT:
                pairs.append((f, bv))
            elif bv is ABSENT:
                pairs.append((f, av))
            else:
                u = ground_unify(av, bv)
                if u is None:
                    return None
                pairs.append((f, u))
        return Avm(tuple(pairs))
    if isinstance(a, ListVal) and isinstance(b, ListVal):
        if a.tail is not None or b.tail is not None:
            raise ValueError("ground oracle: closed lists only")
        if len(a.items) != len(b.items):
            return None
        items = []
        for x, y in zip(a.items, b.items):
            u = ground_unify(x, y)
            if u is None:
                return None
            items.append(u)
        return ListVal(tuple(items), None)
    return None


def ground_subsumes(a, b) -> bool:
    """a is at least as general as b (ground values)."""
    return ground_unify(a, b) == b


def universe(atoms=("a", "b"), features=("f", "g"), depth=2):
    """All variable-free atom/record values of bounded depth."""
    level = [Atom(n) for n in atoms]
    values = list(level)
    prev = list(level)
    for _ in range(depth):
        choices = [ABSENT] + prev
        records = []
        for combo in itertools.product(choices, repeat=len(features)):
            pairs = tuple((f, v) for f, v in zip(features, combo)
                          if v is not ABSENT)
            records.append(Avm(pairs))
        # records over shallower values are rebuilt each level; dedup
        for r in records:
            if r not in values:
                values.append(r)
        prev = [Atom(n) for n in atoms] + records
    return values


# ---------------------------------------------------------------------------
# Element-by-element resolution and occurs check (references for Env's).
# ---------------------------------------------------------------------------


def reference_spread(env: Env, lst: ListVal) -> ListVal:
    """Flatten a list whose tail variable is bound to another list."""
    items = lst.items
    tail = lst.tail
    while tail is not None:
        walked = env.walk(tail)
        if isinstance(walked, ListVal):
            items = items + walked.items
            tail = walked.tail
        elif isinstance(walked, Var):
            return ListVal(items, walked)
        else:
            return ListVal(items, tail if isinstance(tail, Var) else None)
    return ListVal(items, None)


def reference_fold(env: Env, record: Avm) -> Avm:
    """Fold a record's bound rest in, innermost rest first, by restriction.

    A feature the record lists replaces the folded rest's value in place;
    the others follow.  The result's rest is None, an unbound variable, or
    the variable bound to a non-record.
    """
    if record.rest is None:
        return record
    row = env.walk(record.rest)
    if isinstance(row, Var):
        return Avm(record.pairs, row)
    if not isinstance(row, Avm):
        return record
    inner = reference_fold(env, row)
    pairs = tuple((f, record.get(f) if record.get(f) is not ABSENT else v)
                  for f, v in inner.pairs)
    pairs += tuple((f, v) for f, v in record.pairs if inner.get(f) is ABSENT)
    return Avm(pairs, inner.rest)


def reference_occurs(env: Env, tag: str, value) -> bool:
    """Whether variable ``tag`` occurs in ``value``, visiting every item."""
    value = env.walk(value)
    if isinstance(value, Var):
        return value.tag == tag
    if isinstance(value, Avm):
        value = reference_fold(env, value)
        if value.rest is not None and reference_occurs(env, tag, value.rest):
            return True
        return any(reference_occurs(env, tag, v) for _, v in value.pairs)
    if isinstance(value, ListVal):
        if any(reference_occurs(env, tag, v) for v in value.items):
            return True
        return value.tail is not None and reference_occurs(env, tag, value.tail)
    return False


def reference_resolve(env: Env, value):
    """Substitute all bindings, resolving every list item one by one."""
    value = env.walk(value)
    if isinstance(value, (Atom, Var)):
        return value
    if isinstance(value, Avm):
        value = reference_fold(env, value)
        return Avm(tuple((f, reference_resolve(env, v)) for f, v in value.pairs),
                   value.rest)
    if isinstance(value, ListVal):
        value = reference_spread(env, value)
        return ListVal(tuple(reference_resolve(env, v) for v in value.items),
                       value.tail)
    raise TypeError(value)


# ---------------------------------------------------------------------------
# Random goal semantics for the bundled grammar.
# ---------------------------------------------------------------------------

_NOUNS = ("sentence", "program")
_ADJS = ("complex", "little", "prolog")
_ADVS = ("quick",)


def random_np_sem(rng: random.Random, max_mods: int):
    mods = tuple(Atom(rng.choice(_ADJS)) for _ in range(rng.randint(0, max_mods)))
    return Avm((("def", Atom("+")),
                ("mod", ListVal(mods, None)),
                ("rel", Atom(rng.choice(_NOUNS))))), len(mods)


def random_goal(rng: random.Random, max_total_mods: int = 4):
    """A random realizable goal description with bounded non-kernel load."""
    if rng.random() < 0.4:
        sem, _ = random_np_sem(rng, min(3, max_total_mods))
        return Avm((("cat", Atom("np")), ("sem", sem)))
    budget = max_total_mods
    n_top = rng.randint(0, min(1, budget))
    budget -= n_top
    arg1, used = random_np_sem(rng, min(2, budget))
    budget -= used
    arg2, _ = random_np_sem(rng, min(2, budget))
    top = tuple(Atom(rng.choice(_ADVS)) for _ in range(n_top))
    sem = Avm((("arg1", arg1),
               ("arg2", arg2),
               ("mod", ListVal(top, None)),
               ("pred", Atom("generate"))))
    return Avm((("cat", Atom("s")), ("sem", sem)))
