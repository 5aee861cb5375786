"""Grammar and lexicon: DSL loading, rule classification, link relations.

The DSL is statement-oriented; every statement ends with ``.`` and ``%``
starts a line comment::

    start s.
    nonsk sem.mod.
    rule 1a nonsk head 2: [cat: s, ...] -> [cat: adv, ...], [cat: s, ...].
    lex "sentence": [cat: n, lex: sentence, sem: [rel: sentence]].

Feature paths may be written dotted, without spaces (``sem.mod: X``), and
a repeated feature merges with the earlier value.  A variable written with
a record (``sem: S, sem: [mod: M]``) becomes the record's rest: the value
is S restricted by ``mod``, with ``mod: M`` in its place (see
:class:`skg.avm.Avm`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import NamedTuple, Optional

from .avm import (
    ABSENT,
    Atom,
    Avm,
    AvmSyntaxError,
    Fields,
    Frozen,
    ListVal,
    TokenStream,
    Value,
    Var,
    _Parser,
    get,
    normalize,
    render,
    tokenize,
)

SK = "SK"
NONSK = "NonSK"

_KEYWORDS = {"start", "nonsk", "rule", "lex"}
LOCAL = "local-success"  # a completion row's entry for unifying pivot and goal


class GrammarError(ValueError):
    """Semantic error in a grammar definition."""


class LexEntry(Frozen):
    __slots__ = ("surface", "description", "sense")  # sense: 0, or k for homograph k

    def __init__(self, surface: str, description: Value, sense: int = 0):
        self._init(surface, description, sense)

    @property
    def cat(self) -> str:
        c = get(self.description, ("cat",))
        assert isinstance(c, Atom)
        return c.name

    @property
    def sem(self):
        return get(self.description, ("sem",))


class Rule(Frozen):
    __slots__ = ("id", "mother", "daughters", "head_index", "sk_class", "nonsk_path")

    def __init__(self, id: str, mother: Value, daughters: tuple, head_index: int,
                 sk_class: str = SK, nonsk_path: Optional[tuple] = None):
        # head_index: into daughters, from 0; nonsk_path: the sem path it extends, or None
        self._init(id, mother, daughters, head_index, sk_class, nonsk_path)

    @property
    def mother_cat(self) -> str:
        c = get(self.mother, ("cat",))
        assert isinstance(c, Atom)
        return c.name

    @property
    def head(self) -> Value:
        return self.daughters[self.head_index]

    def daughter_cat(self, i: int) -> str:
        c = get(self.daughters[i], ("cat",))
        assert isinstance(c, Atom)
        return c.name


class Tables(NamedTuple):
    """What a search looks up, so that it does no per-rule work itself.

    ``sk``, ``head`` and ``left`` hold completion rows (see
    :func:`completion_rows`), keyed by linked (goal cat, pivot cat) pairs.
    """
    sk: dict  # generate's rows: the SK rules, by the head, split by pivot cat
    head: dict  # the baseline's rows: every rule, by the head, for any pivot cat
    left: dict  # the parser's rows: every rule, by the leftmost daughter, split
    nonsk: dict  # goal cat -> the NonSK rules' plans (plan_table), by the head
    entries: dict  # surface -> its lexical entries
    lexicon: dict  # goal category -> the entries it head-links to, in lexicon order


class Grammar(Fields):
    _fields = ("rules", "lexicon", "nonsk_paths", "start", "link")

    def __init__(self, rules: list, lexicon: list, nonsk_paths: list, start: str):
        self.rules = rules
        self.lexicon = lexicon
        self.nonsk_paths = nonsk_paths  # list[tuple[str, ...]], relative to a node's sem
        self.start = start
        # head-corner (goal cat, pivot cat) pairs
        self.link = link_closure(rules, lexicon, lambda r: r.head_index)

    @cached_property
    def left_corner(self) -> frozenset:
        """The parser's link relation: the leftmost daughter is the corner."""
        return link_closure(self.rules, self.lexicon, lambda r: 0)

    @cached_property
    def tables(self) -> Tables:
        """The grammar's search tables, built on its first search."""
        head = plan_table(self.rules, self.link, lambda r: r.head_index)
        left = plan_table(self.rules, self.left_corner, lambda r: 0)
        sk, nonsk = ({g: [p for p in ps if p[0].sk_class == c]
                      for g, ps in head.items()} for c in (SK, NONSK))
        entries = {}
        for e in self.lexicon:
            entries.setdefault(e.surface, []).append(e)
        linked = {g: [e for e in self.lexicon if (g, e.cat) in self.link] for g in head}
        # the baseline tries local success and every rule on every pivot,
        # as classical SHDG does, so its rows are not split by pivot cat
        unsplit = {g: [LOCAL] + ps for g, ps in head.items()}
        return Tables(completion_rows(sk, self.link),
                      {(g, p): unsplit[g] for g, p in self.link},
                      completion_rows(left, self.left_corner),
                      nonsk, entries, linked)

    def rule_by_id(self, rule_id: str) -> Rule:
        for r in self.rules:
            if r.id == rule_id:
                return r
        raise KeyError(rule_id)

    def entries_for(self, surface: str) -> list:
        return self.tables.entries.get(surface, [])


# ---------------------------------------------------------------------------
# Link relation and rule classification.
# ---------------------------------------------------------------------------


def link_closure(rules, lexicon, corner) -> frozenset:
    """Reflexive-transitive closure of (mother cat, corner daughter cat).

    ``corner(rule)`` is the index of the daughter a pivot enters the rule
    by: the head daughter for generation, the leftmost one for parsing.
    Every category a rule or lexical entry mentions links to itself.
    """
    cats = {e.cat for e in lexicon}
    pairs = set()
    for r in rules:
        cats.add(r.mother_cat)
        cats.update(r.daughter_cat(i) for i in range(len(r.daughters)))
        pairs.add((r.mother_cat, r.daughter_cat(corner(r))))
    pairs |= {(c, c) for c in cats}
    while True:
        new = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not new:
            return frozenset(pairs)
        pairs |= new


def unary_cycles(rules) -> list:
    """``(categories, rule ids)`` per cycle of one-daughter rules, on which a
    search can project forever; off-line parsability (Pereira & Warren 1983,
    *Parsing as deduction*) asks for none."""
    unary = [r for r in rules if len(r.daughters) == 1]
    reach = link_closure(unary, (), lambda r: 0)
    cycles = {}
    for r in unary:
        if (r.daughter_cat(0), r.mother_cat) in reach:
            cats = tuple(sorted(c for m, c in reach
                                if m == r.mother_cat and (c, m) in reach))
            cycles.setdefault(cats, []).append(r.id)
    return list(cycles.items())


def plan_table(rules, link, corner) -> dict:
    """Per goal category, the plans of the rules whose mother it links to.

    A plan is ``(rule, corner index, sister indices)``; each category's
    plans keep the order of ``rules``.
    """
    plans = [(r, corner(r), [i for i in range(len(r.daughters)) if i != corner(r)])
             for r in rules]
    return {goal: [p for p in plans if (goal, p[0].mother_cat) in link]
            for goal in sorted({goal for goal, _ in link})}


def completion_rows(plans, link) -> dict:
    """What the head-corner step tries, per linked (goal cat, pivot cat) pair.

    A row holds :data:`LOCAL` (unify the pivot with the goal) when the two
    categories are the same, then the goal's plans whose corner daughter
    has the pivot's category, in grammar order.  Every rule and lexical
    ``cat`` is an atom, so what a row leaves out could only fail to unify
    (the pre-unification filter of Kiefer et al. 1999, by category).
    """
    return {(g, p): [LOCAL] * (g == p)
            + [plan for plan in plans[g] if plan[0].daughter_cat(plan[1]) == p]
            for g, p in sorted(link)}


def _list_pattern(value, path):
    """List shape at a sem-relative path: (prefix length, tail key) or None.

    The tail key identifies what the open end of the list is shared
    with: a variable tag, or ``"$closed"`` for a closed list.  A bare
    variable at the path counts as a zero-prefix open list, and a value
    shared entirely through a record's rest counts the same way.
    """
    v = value
    for feature in path:
        if isinstance(v, Var):
            break
        if not isinstance(v, Avm):
            return None
        nxt = v.get(feature)
        if nxt is ABSENT:
            if v.rest is None:
                return None
            v = v.rest
            break
        v = nxt
    if isinstance(v, Var):
        return (0, v.tag)
    if isinstance(v, ListVal):
        return (len(v.items), v.tail.tag if v.tail is not None else "$closed")
    return None


def classify_rule(rule: Rule, nonsk_paths):
    """Infer SK/NonSK status; returns (class, path or None).

    A rule is NonSK when, at some declared path, the mother's list has
    exactly one more element than the head daughter's list at the
    reentrancy-linked position.
    """
    mother_sem = get(rule.mother, ("sem",))
    head_sem = get(rule.head, ("sem",))
    for path in nonsk_paths:
        mp = _list_pattern(mother_sem, path) if mother_sem is not ABSENT else None
        hp = _list_pattern(head_sem, path) if head_sem is not ABSENT else None
        if mp is None or hp is None:
            continue
        if mp[1] != hp[1]:
            continue
        growth = mp[0] - hp[0]
        if growth == 0:
            continue
        if growth == 1:
            return NONSK, path
        raise GrammarError(
            f"rule {rule.id}: list at path {'.'.join(path)} grows by "
            f"{growth} elements; only single-element growth is supported")
    return SK, None


# ---------------------------------------------------------------------------
# DSL loader.
# ---------------------------------------------------------------------------


def load_grammar(text: str) -> Grammar:
    stream = TokenStream(tokenize(text))
    fresh = itertools.count()
    rules = []
    lexicon = []
    nonsk_paths = []
    start = None
    seen_ids = set()
    seen_entries = set()

    while not stream.at("eof"):
        _, word, line, _ = stream.peek()
        if not (stream.at("name") and word in _KEYWORDS):
            stream.error(f"expected a statement keyword, found {word!r}")
        stream.next()
        if word == "start":
            cat = stream.expect("name")
            stream.expect("punct", ".")
            if start not in (None, cat):
                raise GrammarError(
                    f"start category {cat} after start category {start} (line {line})")
            start = cat
        elif word == "nonsk":
            path = stream.path()
            stream.expect("punct", ".")
            if path[0] != "sem":
                raise GrammarError(
                    f"nonsk path must start with 'sem', got {'.'.join(path)} "
                    f"(line {line})")
            rel = tuple(path[1:])
            if not rel:
                raise GrammarError(f"nonsk path must go below 'sem' (line {line})")
            for other in nonsk_paths:
                shorter, longer = sorted((rel, other), key=len)
                if shorter != longer and longer[:len(shorter)] == shorter:
                    raise GrammarError(
                        f"nonsk paths sem.{'.'.join(shorter)} and "
                        f"sem.{'.'.join(longer)} overlap: a list cannot hold "
                        f"a record (line {line})")
            if rel not in nonsk_paths:
                nonsk_paths.append(rel)
        elif word == "rule":
            rule = _read_rule(stream, fresh, line)
            if rule.id in seen_ids:
                raise GrammarError(f"duplicate rule id {rule.id!r} (line {line})")
            seen_ids.add(rule.id)
            rules.append(rule)
        else:
            if not (stream.at("string") or stream.at("name")):
                stream.error("expected a surface form")
            _, surface, _, _ = stream.next()
            surface = surface.lower()
            if not surface:
                raise GrammarError(f"empty surface form (line {line})")
            # parse splits its input at whitespace, so it could not read this entry
            if surface.split() != [surface]:
                raise GrammarError(
                    f"lexical entry {surface!r} has whitespace in its surface form "
                    f"(line {line})")
            stream.expect("punct", ":")
            desc = _Parser(stream, fresh).value()
            stream.expect("punct", ".")
            cat = get(desc, ("cat",))
            if not isinstance(cat, Atom):
                raise GrammarError(
                    f"lexical entry {surface!r} lacks a category atom (line {line})")
            # a repeated entry would give every derivation through it twice
            key = (surface, normalize(desc))
            if key in seen_entries:
                raise GrammarError(f"duplicate lexical entry {surface!r} (line {line})")
            seen_entries.add(key)
            lexicon.append(LexEntry(surface, desc))

    if start is None:
        start = rules[0].mother_cat if rules else "s"
    senses = Counter((e.surface, e.cat) for e in lexicon)
    numbered = Counter()  # homographs get numbers, so their derivations print apart
    for i, e in enumerate(lexicon):
        if senses[e.surface, e.cat] > 1:
            numbered[e.surface, e.cat] += 1
            lexicon[i] = LexEntry(e.surface, e.description, numbered[e.surface, e.cat])

    # validate and finalize classification
    final_rules = []
    for r in rules:
        inferred, path = classify_rule(r, nonsk_paths)
        if r.sk_class is not None and r.sk_class != inferred:
            raise GrammarError(
                f"rule {r.id}: declared {r.sk_class} but inferred {inferred}")
        final_rules.append(Rule(r.id, r.mother, r.daughters, r.head_index,
                                inferred, path))
    return Grammar(final_rules, lexicon, nonsk_paths, start)


def _read_rule(stream, fresh, line) -> Rule:
    if not stream.at("name"):
        stream.error("expected a rule id")
    rid = stream.expect("name")
    declared = (NONSK if stream.accept("name", "nonsk")
                else SK if stream.accept("name", "sk") else None)
    stream.expect("name", "head")
    _, index, *where = stream.peek()
    stream.expect("name")
    if not index.isdecimal():
        raise AvmSyntaxError("head index must be a number", *where)
    head_index = int(index) - 1
    stream.expect("punct", ":")
    parser = _Parser(stream, fresh)
    mother = parser.value()
    stream.expect("arrow")
    daughters = parser.sequence(parser.value)
    stream.expect("punct", ".")
    if not 0 <= head_index < len(daughters):
        raise GrammarError(
            f"rule {rid}: head index {head_index + 1} out of range "
            f"for {len(daughters)} daughters (line {line})")
    for d, desc in enumerate([mother] + daughters):
        if not isinstance(get(desc, ("cat",)), Atom):
            raise GrammarError(
                f"rule {rid}: node {d} lacks a category atom (line {line})")
    return Rule(rid, mother, tuple(daughters), head_index, declared, None)


def serialize_grammar(g: Grammar) -> str:
    """Emit a Grammar back into DSL text (load/serialize round-trips)."""
    out = [f"start {g.start}."]
    for p in g.nonsk_paths:
        out.append(f"nonsk sem.{'.'.join(p)}.")
    out.append("")
    for r in g.rules:
        cls = "nonsk " if r.sk_class == NONSK else ""
        daughters = ",\n    ".join(render(d) for d in r.daughters)
        out.append(f"rule {r.id} {cls}head {r.head_index + 1}:\n"
                   f"  {render(r.mother)}\n  -> {daughters}.")
    out.append("")
    for e in g.lexicon:
        out.append(f'lex "{e.surface}": {render(e.description)}.')
    return "\n".join(out) + "\n"
