"""Kernel-driven surface generation.

The generator runs head-corner search in two modes, chosen per goal by
whether the goal's semantics still carries non-kernel list elements:

- kernel-only goals are generated bottom-up: a lexical pivot is
  predicted through the category link relation and a kernel check, then
  completed upward through kernel-preserving (SK) rules until the pivot
  unifies with the goal;
- goals with non-kernel elements are expanded top-down through a
  list-extending (NonSK) rule whose mother is link-reachable from the
  goal.  The rule consumes exactly the head of one non-kernel list; its
  instantiated mother then becomes a pivot completed bottom-up as
  above.

Only SK rules ever take part in bottom-up completion, which is what
makes the search terminate: a kernel-only pivot can never start growing
a modifier list.
"""

from __future__ import annotations

from .avm import ABSENT, Avm, Env, ListVal, Value, get, normalize, variables
from .grammar import NONSK, SK, Grammar
from .kernel import is_sk, sk_of
from .search import (
    DONE,
    BudgetExhausted,
    GenConfig,
    GenerationError,
    GenResult,
    Node,
    Search,
    distinct_outputs,
    goal_category,
    instantiate_rule,
    resolve_node,
)


def nonsk_weight(sem: Value, grammar: Grammar) -> int:
    """Total element count of non-kernel lists, at every depth of sem."""
    if sem is ABSENT:
        return 0
    total = 0
    if isinstance(sem, Avm):
        for path in grammar.nonsk_paths:
            v = get(sem, path)
            if isinstance(v, ListVal):
                total += len(v.items)
        for _, v in sem.pairs:
            total += nonsk_weight(v, grammar)
    elif isinstance(sem, ListVal):
        for item in sem.items:
            total += nonsk_weight(item, grammar)
    return total


def _sem(env: Env, value):
    sem = get(value, ("sem",))
    return env.resolve(sem) if sem is not ABSENT else ABSENT


def _expansions(env, grammar, goal_cat, sem_raw, sem, tick):
    """The NonSK expansion step for a goal with non-kernel elements.

    Yields ``(rule, mother, daughters)`` for each NonSK rule whose mother
    takes the goal's semantics and whose head daughter carries one
    non-kernel element fewer (the progress check that keeps generation
    terminating); the bindings last until the next expansion is asked for.
    """
    weight = nonsk_weight(sem, grammar)
    for rule in grammar.rules:
        if rule.sk_class != NONSK or not grammar.link.reachable(goal_cat,
                                                                rule.mother_cat):
            continue
        tick()
        mark = env.mark()
        mother, daughters = instantiate_rule(env, rule)
        mother_sem = get(mother, ("sem",))
        if mother_sem is not ABSENT and env.unify(mother_sem, sem_raw) is not None:
            mother = resolve_node(env, mother)
            if mother is not None and nonsk_weight(
                    _sem(env, daughters[rule.head_index]), grammar) == weight - 1:
                yield rule, mother, daughters
        env.undo(mark)


def _expansion_pivots(search, goal, goal_cat, sem_raw, sem, pos):
    for rule, mother, daughters in _expansions(search.env, search.g, goal_cat,
                                               sem_raw, sem, search.steps.tick):
        search.note("hc_complete(NonSK) rule", rule.id, "for goal", goal)
        head = rule.head_index
        order = [head] + [i for i in range(len(daughters)) if i != head]
        solved = search.daughters(daughters, order, pos, [None] * len(daughters))
        while (found := (yield solved)) is not DONE:
            yield mother, Node(rule.id, found[0]), found[1]


def _kernel_pivots(search, goal, goal_cat, pos):
    """NonSK expansions for a non-kernel goal, else kernel-checked entries."""
    env, grammar = search.env, search.g
    sem_raw = get(goal, ("sem",))
    sem = _sem(env, goal)
    if sem is not ABSENT and not is_sk(sem, grammar):
        return _expansion_pivots(search, goal, goal_cat, sem_raw, sem, pos)
    # The kernel filter is a prune; with unbound variables in the goal (a
    # sister instantiated before its bindings arrive) it would reject
    # sound pivots, so it defers to unification in that case.
    ground = sem is not ABSENT and next(variables(sem), None) is None

    def attach(entry):
        if ground and entry.sem is not ABSENT \
                and not sk_of(sem, normalize(entry.sem), grammar):
            return None
        pivot = env.instantiate(entry.description, {})
        if sem is not ABSENT and get(pivot, ("sem",)) is not ABSENT:
            # Entry sems are variable-free literals, so the merged value is
            # kept: information from the goal (definiteness, closed
            # modifier lists) has to travel up the completion.
            pivot = env.unify(pivot, Avm((("sem", sem_raw),)))
        return pivot

    return search.lexical(grammar.lexicon, goal, goal_cat, pos, attach)


def generate(grammar: Grammar, goal: Value, cfg: GenConfig = None) -> GenResult:
    """Enumerate all derivations for a goal description, up to cfg limits.

    Output entries are (surface tokens, derivation, root description)
    triples; duplicates (same surface and same derivation) are dropped.
    """
    cfg = cfg or GenConfig()
    search = Search(grammar, cfg, [r for r in grammar.rules if r.sk_class == SK],
                    grammar.link.pairs, lambda rule: rule.head_index,
                    _kernel_pivots)
    outputs = []
    exhausted = False
    try:
        for output in distinct_outputs(search, search.env.instantiate(goal, {})):
            outputs.append(output)
            if cfg.max_results is not None and len(outputs) >= cfg.max_results:
                break
    except BudgetExhausted:
        exhausted = True
    return GenResult(outputs, search.steps.used, exhausted, search.log)


def nonsk_expansions(grammar: Grammar, goal: Value):
    """Top-down expansions of a non-kernel goal: (rule, subgoals) pairs."""
    env = Env()
    goal = env.instantiate(goal, {})
    goal_cat = goal_category(goal, env)
    sem = _sem(env, goal)
    if sem is ABSENT or is_sk(sem, grammar):
        raise GenerationError("goal has kernel-only semantics")
    return [(rule, [normalize(env.resolve(d)) for d in daughters])
            for rule, _, daughters in _expansions(
                env, grammar, goal_cat, get(goal, ("sem",)), sem, lambda: None)]
