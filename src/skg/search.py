"""The head-corner search engine, budgets, derivations, run configuration.

One engine serves generation, the baseline and parsing, as in van
Noord (1997, *An efficient implementation of the head-corner parser*),
where one head-corner step does both.  A goal is solved by taking
pivots from a pivot source and completing each bottom-up: a rule whose
corner daughter unifies with the pivot is applied, its other daughters
are solved left to right, and its mother becomes the next pivot, until
a pivot unifies with the goal.  The searches differ only in their
completion rows and their pivot source.  A row, keyed by the goal's and
the pivot's categories, lists what the step tries in order: local
success, and the rules the pivot can enter by their corner daughter.
Generation and parsing try only what the pivot's category can match;
the baseline, as classical SHDG, tries local success and every rule the
goal links to on every pivot.

Searches are generators run by one flat loop, :func:`drive`.  A search
yields a sub-search to pull that sub-search's next solution, and is sent
:data:`DONE` once it is exhausted; it yields any other value to hand a
solution to whoever pulled it.  No Python frame or C stack grows with the
depth of the search, so a budget-bounded regress ends with its budget.
:meth:`Search.run` is the one loop every entry point reads solutions
from; it ends them when the step budget runs out and records that on the
search.

Generation also memoises its daughter goals by variant in a per-call
table (:meth:`Search.tabled`), as van Noord's memo tables, Warren (1992,
*Memoing for logic programs*) and Kay (1996, *Chart generation*) do.
Kernel gating gives every generator subgoal a finite solution set; the
baseline has none, and neither it nor the parser uses the table.
Answers are packed (Billot & Lang 1989), so what the search does above a
subgoal is done once per answer, not once per derivation beneath it;
:func:`distinct_outputs` unpacks them at no cost in steps.
"""

from __future__ import annotations

import os
from itertools import product
from types import GeneratorType
from typing import Optional

from .avm import (ABSENT, Atom, Avm, BudgetExhausted, Env, Fields, Frozen, ListVal,
                  Value, Var, get, parts, render)
from .grammar import LOCAL, LexEntry
from .kernel import nonsk_sites

DEFAULT_BUDGET = 10 ** 6
DONE = object()  # sent to a search when the sub-search it pulled is exhausted
PLAIN = object()  # a subgoal table entry that asks for plain search


def default_budget() -> int:
    """``SKG_BUDGET`` when it is set and not empty, else ``DEFAULT_BUDGET``.

    A value that is not a positive integer is a ``ValueError``.
    """
    env = os.environ.get("SKG_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"SKG_BUDGET must be a positive integer, got {env!r}")
    return budget


class Leaf(Frozen):
    __slots__ = ("entry",)

    def __init__(self, entry: LexEntry):
        _leaf_entry(self, entry)


class Node(Frozen):
    __slots__ = ("rule_id", "children")

    def __init__(self, rule_id: str, children: tuple):
        _node_rule_id(self, rule_id)
        _node_children(self, children)  # derivations in daughter order


# a derivation node is built per unpacked output, so it skips Frozen._init's loop
(_leaf_entry,), (_node_rule_id, _node_children) = Leaf._setters, Node._setters


class Packed(Frozen):
    """Derivations of one tabled goal that end at one position with one
    description, in the order they were found; only inside a search,
    never in an output.  Packed nodes compare by identity."""
    __slots__ = ("alternatives",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, alternatives: tuple):
        self._init(alternatives)  # tuple[Derivation, ...], two or more


Derivation = object  # Leaf | Node, and Packed inside a search


def _preorder(derivation):
    """(depth, node) pairs of a derivation in preorder, without recursion."""
    stack = [(0, derivation)]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        if isinstance(node, Node):
            stack.extend((depth + 1, c) for c in reversed(node.children))


def yield_tokens(derivation) -> tuple:
    """Left-to-right sequence of leaf surface tokens; None for a derivation
    that holds a :class:`Packed` node."""
    tokens = []
    stack = [derivation]
    while stack:
        node = stack.pop()
        if type(node) is Leaf:
            tokens.append(node.entry.surface)
        elif type(node) is Node:
            stack.extend(reversed(node.children))
        else:
            return None
    return tuple(tokens)


def format_derivation(derivation, indent: int = 0) -> str:
    return "\n".join(
        "  " * (indent + depth)
        + (f"lex {n.entry.surface!r} ({n.entry.cat})"
           + (f" #{n.entry.sense}" if n.entry.sense else "") if isinstance(n, Leaf)
           else f"rule {n.rule_id}")
        for depth, n in _preorder(derivation))


class GenerationError(ValueError):
    """Invalid generation goal (for example, no category)."""


class GenConfig(Fields):
    _fields = ("step_budget", "max_results", "trace")

    def __init__(self, step_budget: Optional[int] = None,
                 max_results: Optional[int] = None, trace: bool = False):
        self.step_budget = default_budget() if step_budget is None else step_budget
        self.max_results = max_results
        self.trace = trace
        if self.step_budget < 1:
            raise ValueError(f"step_budget must be positive, got {self.step_budget}")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError("max_results must be positive")


class GenResult(Fields):
    _fields = ("outputs", "steps_used", "exhausted_budget", "trace_log")

    def __init__(self, outputs: list, steps_used: int, exhausted_budget: bool,
                 trace_log: list = None):
        self.outputs = outputs  # list[(surface tuple, Derivation, root description)]
        self.steps_used = steps_used
        self.exhausted_budget = exhausted_budget
        self.trace_log = [] if trace_log is None else trace_log

    @property
    def surfaces(self):
        return [" ".join(out[0]) for out in self.outputs]


def goal_category(goal: Value, env: Env) -> str:
    """The name of the goal's ``cat`` atom, read without resolving the goal."""
    cat = env.walk(get(env.walk(goal), ("cat",)))
    if not isinstance(cat, Atom):
        raise GenerationError("generation goal has no category atom")
    return cat.name


def check_goal(goal: Value, grammar) -> None:
    """Raise ``GenerationError`` for a goal without a ``cat`` atom or with a
    category no rule or entry mentions, without a ``sem`` or with a bare
    variable for it, for a record with a rest anywhere in it (only rules may
    share a record that way), or for a value other than a closed list at a
    non-kernel path of any record in its ``sem``."""
    cat = get(goal, ("cat",))
    if not isinstance(cat, Atom):
        raise GenerationError("generation goal has no category atom")
    if (cat.name, cat.name) not in grammar.link:
        raise GenerationError(f"unknown goal category {cat.name!r}")
    sem = get(goal, ("sem",))
    if sem is ABSENT:
        raise GenerationError("goal has no sem feature")
    if type(sem) is Var:
        raise GenerationError("goal sem is a bare variable")
    for where, part in parts(goal):
        if type(part) is Avm and part.rest is not None:
            where = ".".join(f for f in where if isinstance(f, str))
            raise GenerationError(f"goal repeats feature {where} with a variable")
    for where, path, at in nonsk_sites(sem, grammar):
        if at is not ABSENT and not (isinstance(at, ListVal) and at.tail is None):
            where = ".".join(f for f in where + path if isinstance(f, str))
            what = "an open list" if isinstance(at, ListVal) else "a non-list value"
            raise GenerationError(f"non-kernel path {where} holds {what}")


def drive(search):
    """Iterate the solutions of a search, running sub-searches on a flat stack."""
    stack = [search]
    value = None
    try:
        while stack:
            try:
                out = stack[-1].send(value)
            except StopIteration:
                stack.pop()
                value = DONE
                continue
            if type(out) is GeneratorType:
                stack.append(out)
                value = None
            elif len(stack) > 1:
                stack.pop()
                value = out
            else:
                yield out
                value = None
    finally:
        # innermost first, so that no search is finalised inside another
        while stack:
            stack.pop().close()


class Search:
    """One head-corner search over a grammar (see the module docstring).

    ``rows`` maps a (goal category, pivot category) pair to what the
    head-corner step tries on such a pivot, in order: :data:`LOCAL` and
    ``(rule, corner index, sister indices)`` plans (one of the grammar's
    tables); ``pivots(search, goal, goal_cat, pos)`` returns a
    search that yields ``(pivot, derivation, end)`` triples, where ``pos``
    is the parser's input position (``None`` in generation).  Solutions
    are ``(derivation, end, merged goal)`` triples, read through
    :meth:`run`.

    With a ``table`` (a dict), each variant of a daughter goal is solved
    once per search and answers with one solution per end position and
    description, its derivations packed (see :meth:`tabled`);
    :func:`distinct_outputs` unpacks them.
    """

    def __init__(self, grammar, cfg: GenConfig, rows, pivots, table=None):
        self.g = grammar
        self.pivots = pivots
        self.rows = rows
        self.env = Env(cfg.step_budget)
        self.tracing = cfg.trace
        self.log = []
        self.table = table
        self.exhausted = False  # set by run when the step budget ran out

    def note(self, *parts):
        """Add a trace line; each call site tests ``tracing`` first."""
        self.log.append(" ".join(
            p if isinstance(p, str)
            else render(self.env.canonical(p)) for p in parts))

    def run(self, goal: Value, pos=None):
        """The solutions of ``goal``, until the search or its budget ends."""
        try:
            yield from drive(self.solve(goal, pos))
        except BudgetExhausted:
            self.exhausted = True

    def solve(self, goal: Value, pos=None):
        goal_cat = goal_category(goal, self.env)
        source = self.pivots(self, goal, goal_cat, pos)
        while (found := (yield source)) is not DONE:
            pivot, deriv, end = found
            up = self.complete(pivot, deriv, end, goal, goal_cat)
            while (solution := (yield up)) is not DONE:
                yield solution

    def complete(self, pivot, deriv, end, goal, goal_cat):
        """The head-corner step: succeed locally, or project the pivot.

        What it tries is the row of the goal's and the pivot's categories.
        """
        env = self.env
        # a pivot is a lexical entry or a rule mother, so its cat is an atom
        record = env.walk(pivot)
        pivot_cat = env.walk(record.get("cat")).name
        for plan in self.rows.get((goal_cat, pivot_cat), ()):
            if (goal_cat if plan is LOCAL else plan[3]) != pivot_cat:
                # a clash, only in the baseline's unsplit rows: unify fails at cat
                # in three steps (the plan's, then the records', then the cats'), if
                # neither record has a rest and b, whose features _merge_records
                # walks, lists cat first; then it is charged them, untried
                a, b = (record, env.walk(goal)) if plan is LOCAL \
                    else (plan[0].daughters[plan[1]], record)
                if a.rest is None and b.rest is None and b.pairs[0][0] == "cat":
                    env.tick()
                    env.tick()
                    env.tick()
                    continue
            env.tick()
            mark = env.mark()
            if plan is LOCAL:
                merged = env.unify(pivot, goal)
                if merged is not None:
                    if self.tracing:
                        self.note("local-success at", goal)
                    yield deriv, end, merged
                env.undo(mark)
                continue
            rule, corner, sisters, _ = plan
            # copy the rest only once the corner takes the pivot (Tomabechi 1991)
            fresh = {}
            if env.unify(env.instantiate(rule.daughters[corner], fresh),
                         pivot) is not None:
                if self.tracing:
                    self.note("hc_complete rule", rule.id, "over pivot", pivot)
                mother = env.instantiate(rule.mother, fresh)
                copies = {}
                for i in sisters:
                    copies[i] = env.instantiate(rule.daughters[i], fresh)
                children = [None] * len(rule.daughters)
                children[corner] = deriv
                rest = self.daughters(copies, sisters, end, children)
                while (found := (yield rest)) is not DONE:
                    env.tick()  # one step for projecting the mother
                    up = self.complete(mother, Node(rule.id, found[0]),
                                       found[1], goal, goal_cat)
                    while (solution := (yield up)) is not DONE:
                        yield solution
            env.undo(mark)

    def daughters(self, daughters, order, pos, children):
        """Solve ``daughters[i]`` for each i in ``order``, threading the position.

        Yields ``(children, end)``: the derivations by daughter index,
        with the slots not in ``order`` taken from ``children``.
        """
        if not order:
            yield tuple(children), pos
            return
        subgoal = self.solve if self.table is None else self.tabled
        pending = [subgoal(daughters[order[0]], pos)]
        while pending:
            found = yield pending[-1]
            if found is DONE:
                pending.pop()
                continue
            deriv, end, _ = found
            children[order[len(pending) - 1]] = deriv
            if len(pending) == len(order):
                yield tuple(children), end
            else:
                pending.append(subgoal(daughters[order[len(pending)]], end))

    def tabled(self, goal: Value, pos=None):
        """A search for a daughter goal, answered from the table.

        The key is the goal's variant (its canonical value, see
        :meth:`Env.canonical`) and the position; the goal is resolved only
        to fill a new key.  The first search for a key solves the resolved goal
        to exhaustion and stores one ``(derivation, end, description)``
        answer per end and description (the normalized merged goal, None
        if it is the key's) in the order first found, the derivation a
        :class:`Packed` node if several solutions share both.  Every search
        for the key replays them: an answer with the key's description as
        it is, any other instantiated and unified with the caller's goal.
        A key that comes back while it is being filled gets plain search.
        """
        key = (self.env.canonical(goal), pos)
        answers = self.table.get(key)
        if answers is PLAIN:
            return self.solve(goal, pos)
        if answers is not None and self.tracing:
            self.note("table", goal)
        return self._replay(key, goal, answers)

    def _replay(self, key, goal, answers):
        """Fill the key's entry if ``answers`` is None, then replay it."""
        env = self.env
        if answers is None:
            self.table[key] = PLAIN  # until it is filled
            groups = {}  # (end, description) -> its derivations, in the order found
            sub = self.solve(env.resolve(goal), key[1])
            while (found := (yield sub)) is not DONE:
                groups.setdefault((found[1], env.canonical(found[2])), []).append(found[0])
            answers = self.table[key] = []
            for (end, answer), derivs in groups.items():
                answers.append((derivs[0] if len(derivs) == 1 else Packed(tuple(derivs)),
                                end, None if answer == key[0] else answer))
        for deriv, end, answer in answers:
            mark = env.mark()
            merged = goal if answer is None else env.unify(env.instantiate(answer), goal)
            if merged is not None:
                yield deriv, end, merged
            env.undo(mark)

    def lexical(self, entries, goal, end, attach):
        """Pivots from lexical entries, which the pivot source has linked to the goal.

        ``attach(entry)`` returns the instantiated pivot, or None to skip
        the entry; its bindings last until the next entry is tried.
        """
        env = self.env
        for entry in entries:
            env.tick()
            mark = env.mark()
            pivot = attach(entry)
            if pivot is not None:
                if self.tracing:
                    self.note("lex", entry.surface, "for goal", goal)
                yield pivot, Leaf(entry), end
            env.undo(mark)


def distinct_outputs(search: Search, goal: Value):
    """The (surface tokens, derivation, resolved goal) solutions of a goal.

    Each derivation comes once: a pivot source yields each lexical entry
    or NonSK expansion once, a pivot completes through each rule once,
    sister solutions are distinct by induction, and a packed answer holds
    each derivation of its goal once.  The loader rejects a repeated
    lexical entry, the one way two solutions could share a derivation.

    A solution that holds :class:`Packed` nodes is unpacked here (see
    :func:`_unpacked`), its resolved goal computed once for all of its
    derivations.  Unpacking ticks no step.  Each solution's derivations
    come together: where the search goes on in more than one way after a
    packed subgoal (a later sister goal with several answers, or a mother
    that completes in more than one way), plain search takes every way
    once per derivation of the subgoal, so the ways' derivations
    interleave, and here each way's come as a block.
    """
    memo = {}
    heads = None
    for deriv, _, _ in search.run(goal):
        root = search.env.canonical(goal)
        tokens = yield_tokens(deriv)
        if tokens is not None:
            yield tokens, deriv, root
            continue
        heads = heads or {rule.id: rule.head_index for rule in search.g.rules}
        for tokens, plain in _unpacked(deriv, heads, memo):
            yield tokens, plain, root


def _unpacked(deriv: Node, heads: dict, memo: dict):
    """The plain ``(tokens, derivation)`` pairs packed in ``deriv``.

    They come in the order in which plain search finds them among this
    solution's derivations, the order in which generation makes its
    choices: a :class:`Packed` node's alternatives in the order found,
    and a node's daughters varying in the order they were solved, the
    head daughter (``heads`` by rule id) slowest, then the others left
    to right.  The daughters' pairs are made bottom-up with an explicit
    stack, each Packed node's once per ``memo``; the root's are made
    lazily, one per request.
    """
    pairs = {}  # id(node) -> its pairs, for the nodes below the root
    stack = list(deriv.children)
    while stack:
        node = stack[-1]
        if id(node) in pairs:
            stack.pop()
        elif type(node) is Leaf:
            pairs[id(node)] = [((node.entry.surface,), node)]
        elif type(node) is Packed and node in memo:
            pairs[id(node)] = memo[node]
        else:
            below = node.children if type(node) is Node else node.alternatives
            todo = [b for b in below if id(b) not in pairs]
            if todo:
                stack.extend(todo)
                continue
            if type(node) is Node:
                pairs[id(node)] = list(_combined(
                    node, [pairs[id(b)] for b in below], heads[node.rule_id]))
            else:
                pairs[id(node)] = memo[node] = [
                    pair for b in below for pair in pairs[id(b)]]
    yield from _combined(deriv, [pairs[id(b)] for b in deriv.children],
                         heads[deriv.rule_id])


def _combined(node: Node, daughters: list, head: int):
    """The pairs of ``node`` from its daughters' pairs, the head daughter's
    varying slowest, then the others' from left to right."""
    order = [head, *range(head), *range(head + 1, len(daughters))]
    chosen = [None] * len(daughters)
    for picks in product(*map(daughters.__getitem__, order)):
        for i, pick in zip(order, picks):
            chosen[i] = pick
        tokens, children = [], []
        for pick_tokens, deriv in chosen:
            tokens.extend(pick_tokens)
            children.append(deriv)
        yield tuple(tokens), Node(node.rule_id, tuple(children))
