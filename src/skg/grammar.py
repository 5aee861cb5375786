"""Grammar and lexicon: DSL loading, rule classification, link relation.

The DSL is statement-oriented; every statement ends with ``.`` and ``%``
starts a line comment::

    start s.
    nonsk sem.mod.
    rule 1a nonsk head 2: [cat: s, ...] -> [cat: adv, ...], [cat: s, ...].
    lex "sentence": [cat: n, lex: sentence, sem: [rel: sentence]].

Feature paths may be written dotted (``sem.mod: X``) and a repeated
feature merges with the earlier value; merging a variable with a record
makes the variable stand for the remaining features (see
:class:`skg.avm.Overlay`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .avm import (
    ABSENT,
    Atom,
    Avm,
    AvmSyntaxError,
    ListVal,
    Overlay,
    TokenStream,
    Value,
    Var,
    _Parser,
    get,
    render,
    tokenize,
)

SK = "SK"
NONSK = "NonSK"

_KEYWORDS = {"start", "nonsk", "rule", "lex", "head", "sk"}


class GrammarError(ValueError):
    """Semantic error in a grammar definition."""


@dataclass(frozen=True)
class LexEntry:
    surface: str
    description: Value

    @property
    def cat(self) -> str:
        c = get(self.description, ("cat",))
        assert isinstance(c, Atom)
        return c.name

    @property
    def sem(self):
        return get(self.description, ("sem",))


@dataclass(frozen=True)
class Rule:
    id: str
    mother: Value
    daughters: tuple
    head_index: int  # 0-based position into daughters
    sk_class: str = SK
    nonsk_path: Optional[tuple] = None  # sem-relative path the rule extends

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


@dataclass(frozen=True)
class CategoryLinkRelation:
    pairs: frozenset  # frozenset[(goal cat, pivot cat)]

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def reachable(self, goal_cat: str, pivot_cat: str) -> bool:
        return (goal_cat, pivot_cat) in self.pairs


@dataclass
class Grammar:
    rules: list
    lexicon: list
    nonsk_paths: list  # list[tuple[str, ...]], relative to a node's sem
    start: str
    link: CategoryLinkRelation = field(init=False)

    def __post_init__(self):
        self.link = compute_link(self.rules, self.lexicon)

    def rule_by_id(self, rule_id: str) -> Rule:
        for r in self.rules:
            if r.id == rule_id:
                return r
        raise KeyError(rule_id)

    def entries_for(self, surface: str):
        return [e for e in self.lexicon if e.surface == surface]


# ---------------------------------------------------------------------------
# Link relation and rule classification.
# ---------------------------------------------------------------------------


def categories(rules, lexicon) -> set:
    """Every category a rule or lexical entry mentions."""
    cats = {e.cat for e in lexicon}
    for r in rules:
        cats.add(r.mother_cat)
        cats.update(r.daughter_cat(i) for i in range(len(r.daughters)))
    return cats


def closure(pairs) -> frozenset:
    """Transitive closure of a relation given as (a, b) pairs."""
    pairs = set(pairs)
    while True:
        new = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not new:
            return frozenset(pairs)
        pairs |= new


def compute_link(rules, lexicon) -> CategoryLinkRelation:
    """Reflexive-transitive closure of the mother -> head-daughter relation."""
    return CategoryLinkRelation(closure(
        {(c, c) for c in categories(rules, lexicon)}
        | {(r.mother_cat, r.daughter_cat(r.head_index)) for r in rules}))


def _list_pattern(value, path):
    """List shape at a sem-relative path: (prefix length, tail key) or None.

    The tail key identifies what the open end of the list is shared
    with: a variable tag, or ``"$closed"`` for a closed list.  A bare
    variable at the path counts as a zero-prefix open list, and a value
    shared entirely through an overlay rest counts the same way.
    """
    v = value
    for feature in path:
        if isinstance(v, Overlay):
            nxt = v.over.get(feature)
            if nxt is ABSENT:
                v = v.rest
                break
            v = nxt
        elif isinstance(v, Avm):
            nxt = v.get(feature)
            if nxt is ABSENT:
                return None
            v = nxt
        elif isinstance(v, Var):
            break
        else:
            return None
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


def lexical_candidates(grammar: Grammar, goal: Value):
    """Lexicon entries whose category is link-reachable from the goal's."""
    cat = get(goal, ("cat",))
    if not isinstance(cat, Atom):
        raise GrammarError("goal has no category atom")
    return [e for e in grammar.lexicon if grammar.link.reachable(cat.name, e.cat)]


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

    while stream.peek()[0] != "eof":
        kind, word, line, col = stream.peek()
        if kind != "name" or word not in _KEYWORDS:
            raise AvmSyntaxError(f"expected a statement keyword, found {word!r}",
                                 line, col)
        stream.next()
        if word == "start":
            tok = stream.expect("name")
            start = tok[1]
            stream.expect("punct", ".")
        elif word == "nonsk":
            path = _read_path(stream)
            stream.expect("punct", ".")
            if path[0] != "sem":
                raise GrammarError(
                    f"nonsk path must start with 'sem', got {'.'.join(path)} "
                    f"(line {line})")
            rel = tuple(path[1:])
            if not rel:
                raise GrammarError(f"nonsk path must go below 'sem' (line {line})")
            if rel not in nonsk_paths:
                nonsk_paths.append(rel)
        elif word == "rule":
            rule = _read_rule(stream, fresh, line)
            if rule.id in seen_ids:
                raise GrammarError(f"duplicate rule id {rule.id!r} (line {line})")
            seen_ids.add(rule.id)
            rules.append(rule)
        elif word == "lex":
            surface_tok = stream.next()
            if surface_tok[0] not in ("string", "name"):
                raise AvmSyntaxError("expected a surface form", *surface_tok[2:])
            surface = surface_tok[1].lower()
            if not surface:
                raise GrammarError(f"empty surface form (line {line})")
            stream.expect("punct", ":")
            desc = _Parser(stream, fresh).value()
            stream.expect("punct", ".")
            cat = get(desc, ("cat",))
            if not isinstance(cat, Atom):
                raise GrammarError(
                    f"lexical entry {surface!r} lacks a category atom (line {line})")
            lexicon.append(LexEntry(surface, desc))
        else:  # pragma: no cover - keyword set is exhaustive
            raise AvmSyntaxError(f"unexpected keyword {word!r}", line, col)

    if start is None:
        start = rules[0].mother_cat if rules else "s"

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


def _read_path(stream):
    path = [stream.expect("name")[1]]
    while (stream.peek()[0] == "punct" and stream.peek()[1] == "."
           and stream.peek(1)[0] == "name"
           and stream.peek(1)[1] not in _KEYWORDS):
        stream.next()
        path.append(stream.expect("name")[1])
    return path


def _read_rule(stream, fresh, line) -> Rule:
    rid = stream.next()
    if rid[0] != "name":
        raise AvmSyntaxError("expected a rule id", *rid[2:])
    declared = None
    if stream.peek()[0] == "name" and stream.peek()[1] in ("nonsk", "sk"):
        declared = NONSK if stream.next()[1] == "nonsk" else SK
    stream.expect("name", "head")
    idx_tok = stream.expect("name")
    if not idx_tok[1].isdigit():
        raise AvmSyntaxError("head index must be a number", *idx_tok[2:])
    head_index = int(idx_tok[1]) - 1
    stream.expect("punct", ":")
    parser = _Parser(stream, fresh)
    mother = parser.value()
    stream.expect("arrow")
    daughters = [parser.value()]
    while stream.peek()[0] == "punct" and stream.peek()[1] == ",":
        stream.next()
        daughters.append(parser.value())
    stream.expect("punct", ".")
    if not 0 <= head_index < len(daughters):
        raise GrammarError(
            f"rule {rid[1]}: head index {head_index + 1} out of range "
            f"for {len(daughters)} daughters (line {line})")
    for d, desc in enumerate([mother] + daughters):
        if not isinstance(get(desc, ("cat",)), Atom):
            raise GrammarError(
                f"rule {rid[1]}: node {d} lacks a category atom (line {line})")
    return Rule(rid[1], mother, tuple(daughters), head_index, declared, None)


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
