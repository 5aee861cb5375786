"""The head-corner search engine, budgets, derivations, run configuration.

One engine serves generation, the baseline and parsing, as in van
Noord (1997, *An efficient implementation of the head-corner parser*),
where one head-corner step does both.  A goal is solved by taking
pivots from a pivot source and completing each bottom-up: a rule whose
corner daughter unifies with the pivot is applied, its other daughters
are solved left to right, and its mother becomes the next pivot, until
a pivot unifies with the goal.  The searches differ only in the
completion rules, the category link relation, the corner daughter and
the pivot source.

Searches are generators run by one flat loop, :func:`drive`.  A search
yields a sub-search to pull that sub-search's next solution, and is sent
:data:`DONE` once it is exhausted; it yields any other value to hand a
solution to whoever pulled it.  No Python frame or C stack grows with the
depth of the search, so a budget-bounded regress ends with its budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Optional

from .avm import Atom, Env, Value, get, normalize, render
from .grammar import LexEntry

DEFAULT_BUDGET = 10 ** 6
DONE = object()  # sent to a search when the sub-search it pulled is exhausted


def default_budget() -> int:
    env = os.environ.get("SKG_BUDGET")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return DEFAULT_BUDGET


@dataclass(frozen=True)
class Leaf:
    entry: LexEntry


@dataclass(frozen=True)
class Node:
    rule_id: str
    children: tuple  # tuple[Derivation, ...] in daughter order


Derivation = object  # Leaf | Node


def _preorder(derivation):
    """(depth, node) pairs of a derivation in preorder, without recursion."""
    stack = [(0, derivation)]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        if isinstance(node, Node):
            stack.extend((depth + 1, c) for c in reversed(node.children))


def yield_tokens(derivation) -> tuple:
    """Left-to-right sequence of leaf surface tokens."""
    return tuple(n.entry.surface for _, n in _preorder(derivation)
                 if isinstance(n, Leaf))


def signature(derivation):
    """Hashable identity of a derivation: its nodes in preorder with arities."""
    return tuple(("lex", n.entry.surface, n.entry.cat) if isinstance(n, Leaf)
                 else ("rule", n.rule_id, len(n.children))
                 for _, n in _preorder(derivation))


def format_derivation(derivation, indent: int = 0) -> str:
    return "\n".join(
        "  " * (indent + depth)
        + (f"lex {n.entry.surface!r} ({n.entry.cat})" if isinstance(n, Leaf)
           else f"rule {n.rule_id}")
        for depth, n in _preorder(derivation))


class BudgetExhausted(Exception):
    """Raised internally when a search runs out of steps."""


class GenerationError(ValueError):
    """Invalid generation goal (for example, no category)."""


@dataclass
class GenConfig:
    step_budget: int = field(default_factory=default_budget)
    max_results: Optional[int] = None
    trace: bool = False

    def __post_init__(self):
        if self.step_budget < 1:
            raise ValueError("step_budget must be positive")


class StepCounter:
    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0

    def tick(self):
        self.used += 1
        if self.used > self.budget:
            raise BudgetExhausted()


@dataclass
class GenResult:
    outputs: list  # list[(surface tuple, Derivation, root description)]
    steps_used: int
    exhausted_budget: bool
    trace_log: list = field(default_factory=list)

    @property
    def surfaces(self):
        return [" ".join(out[0]) for out in self.outputs]


def goal_category(goal: Value, env: Env) -> str:
    cat = env.walk(get(env.resolve(goal), ("cat",)))
    if not isinstance(cat, Atom):
        raise GenerationError("generation goal has no category atom")
    return cat.name


def instantiate_rule(env: Env, rule):
    """Fresh copies of a rule's mother and daughters, sharing variables."""
    mapping = {}
    return (env.instantiate(rule.mother, mapping),
            [env.instantiate(d, mapping) for d in rule.daughters])


def resolve_node(env: Env, description):
    """Force overlays in an instantiated mother description; None on clash.

    Resolving substitutes bindings and merges any overlay whose rest
    variable got bound by unification; the self-unify turns a latent
    overlay clash into an explicit failure.
    """
    resolved = env.resolve(description)
    return env.unify(resolved, resolved)


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

    ``rules`` are the completion rules; ``link`` holds the (goal
    category, pivot category) pairs a goal may reach; ``corner(rule)`` is
    the index of the daughter a pivot unifies with; and
    ``pivots(search, goal, goal_cat, pos)`` returns a search that yields
    ``(pivot, derivation, end)`` triples.  ``pos`` is the parser's input
    position and ``None`` in generation.  Solutions are
    ``(derivation, end, merged goal)`` triples.
    """

    def __init__(self, grammar, cfg: GenConfig, rules, link, corner, pivots):
        self.g = grammar
        self.link = link
        self.pivots = pivots
        self.plans = []
        for rule in rules:
            c = corner(rule)
            sisters = [i for i in range(len(rule.daughters)) if i != c]
            self.plans.append((rule, rule.mother_cat, c, sisters))
        self.env = Env()
        self.steps = StepCounter(cfg.step_budget)
        self.env.on_step = self.steps.tick
        self.tracing = cfg.trace
        self.log = []

    def note(self, *parts):
        """Add a trace line; values are rendered only when tracing is on."""
        if self.tracing:
            self.log.append(" ".join(
                p if isinstance(p, str)
                else render(normalize(self.env.resolve(p))) for p in parts))

    def solve(self, goal: Value, pos=None):
        goal_cat = goal_category(goal, self.env)
        source = self.pivots(self, goal, goal_cat, pos)
        while (found := (yield source)) is not DONE:
            pivot, deriv, end = found
            up = self.complete(pivot, deriv, end, goal, goal_cat)
            while (solution := (yield up)) is not DONE:
                yield solution

    def complete(self, pivot, deriv, end, goal, goal_cat):
        """The head-corner step: succeed locally, or project the pivot."""
        env = self.env
        self.steps.tick()
        mark = env.mark()
        merged = env.unify(pivot, goal)
        if merged is not None:
            self.note("local-success at", goal)
            yield deriv, end, merged
        env.undo(mark)
        for rule, mother_cat, corner, sisters in self.plans:
            if (goal_cat, mother_cat) not in self.link:
                continue
            self.steps.tick()
            mark = env.mark()
            mother, daughters = instantiate_rule(env, rule)
            if env.unify(daughters[corner], pivot) is not None:
                self.note("hc_complete rule", rule.id, "over pivot", pivot)
                children = [None] * len(daughters)
                children[corner] = deriv
                rest = self.daughters(daughters, sisters, end, children)
                while (found := (yield rest)) is not DONE:
                    mother_value = resolve_node(env, mother)
                    if mother_value is None:
                        continue
                    up = self.complete(mother_value, Node(rule.id, found[0]),
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
        pending = [self.solve(daughters[order[0]], pos)]
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
                pending.append(self.solve(daughters[order[len(pending)]], end))

    def lexical(self, entries, goal, goal_cat, end, attach):
        """Pivots from the lexical entries whose category the goal links to.

        ``attach(entry)`` returns the instantiated pivot, or None to skip
        the entry; its bindings last until the next entry is tried.
        """
        env = self.env
        for entry in entries:
            if (goal_cat, entry.cat) not in self.link:
                continue
            self.steps.tick()
            mark = env.mark()
            pivot = attach(entry)
            if pivot is not None:
                self.note("lex", entry.surface, "for goal", goal)
                yield pivot, Leaf(entry), end
            env.undo(mark)


def distinct_outputs(search: Search, goal: Value):
    """Distinct (surface tokens, derivation, resolved goal) solutions of a goal."""
    seen = set()
    for deriv, _, _ in drive(search.solve(goal)):
        tokens = yield_tokens(deriv)
        key = (tokens, signature(deriv))
        if key not in seen:
            seen.add(key)
            yield tokens, deriv, normalize(search.env.resolve(goal))
