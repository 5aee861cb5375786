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

from itertools import islice

from .avm import ABSENT, Avm, Env, Value, get, normalize, variables
from .grammar import Grammar
from .kernel import decompose, is_sk, nonsk_weight, sk_of
from .search import (
    DONE,
    GenConfig,
    GenerationError,
    GenResult,
    Node,
    Search,
    check_goal,
    distinct_outputs,
    goal_category,
)


def _sem(env: Env, value):
    sem = get(value, ("sem",))
    return env.resolve(sem) if sem is not ABSENT else ABSENT


def _expansions(env, grammar, goal_cat, sem_raw, sem):
    """The NonSK expansion step for a goal with non-kernel elements.

    Yields ``(plan, mother, daughters)`` for each NonSK rule whose mother
    takes the goal's semantics and whose head daughter has fewer non-kernel
    elements, counted at every depth (the progress check that keeps generation
    terminating); the bindings last until the next expansion is asked for.
    The plan is the rule's ``(rule, head, sisters)`` entry in ``Tables.nonsk``.
    """
    weight = nonsk_weight(sem, grammar)
    for plan in grammar.tables.nonsk.get(goal_cat, ()):
        rule, head, _ = plan
        env.tick()
        mark = env.mark()
        fresh = {}  # the daughters are copied only if the mother fits
        mother = env.instantiate(rule.mother, fresh)
        mother_sem = get(mother, ("sem",))
        if mother_sem is not ABSENT and env.unify(mother_sem, sem_raw) is not None:
            env.tick()  # one step for projecting the mother, as in Search.complete
            daughters = [env.instantiate(d, fresh) for d in rule.daughters]
            head_sem = _sem(env, daughters[head])
            if nonsk_weight(head_sem, grammar) < weight:
                yield plan, mother, daughters
        env.undo(mark)


def _expansion_pivots(search, goal, goal_cat, sem_raw, sem, pos):
    for (rule, head, sisters), mother, daughters in _expansions(
            search.env, search.g, goal_cat, sem_raw, sem):
        search.note("hc_complete(NonSK) rule", rule.id, "for goal", goal)
        solved = search.daughters(daughters, [head, *sisters], pos,
                                  [None] * len(daughters))
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
    kernel = decompose(sem, grammar) if ground else None

    def attach(entry):
        if kernel is not None and entry.sem is not ABSENT \
                and not sk_of(kernel, entry.sem, grammar):
            return None
        pivot = env.instantiate(entry.description, {})
        if sem is not ABSENT and get(pivot, ("sem",)) is not ABSENT:
            # Entry sems are variable-free literals, so the merged value is
            # kept: information from the goal (definiteness, closed
            # modifier lists) has to travel up the completion.
            pivot = env.unify(pivot, Avm((("sem", sem_raw),)))
        return pivot

    return search.lexical(grammar.tables.lexicon.get(goal_cat, ()), goal, pos, attach)


def generate(grammar: Grammar, goal: Value, cfg: GenConfig = None) -> GenResult:
    """Enumerate all derivations for a goal description, up to cfg limits.

    Output entries are (surface tokens, derivation, root description)
    triples, one per derivation.  Homographs (lexical entries with the
    same surface and category but different descriptions) give distinct
    derivations, so a surface can come more than once.
    """
    check_goal(goal, grammar)
    cfg = cfg or GenConfig()
    search = Search(grammar, cfg, grammar.tables.sk, _kernel_pivots, table={})
    outputs = list(islice(distinct_outputs(search, search.env.instantiate(goal, {})),
                          cfg.max_results))
    return GenResult(outputs, search.env.steps, search.exhausted, search.log)


def nonsk_expansions(grammar: Grammar, goal: Value):
    """Top-down expansions of a non-kernel goal: (rule, subgoals) pairs."""
    check_goal(goal, grammar)
    env = Env()
    goal = env.instantiate(goal, {})
    goal_cat = goal_category(goal, env)
    sem = _sem(env, goal)
    if sem is ABSENT or is_sk(sem, grammar):
        raise GenerationError("goal has kernel-only semantics")
    return [(rule, [normalize(env.resolve(d)) for d in daughters])
            for (rule, _, _), _, daughters in _expansions(
                env, grammar, goal_cat, get(goal, ("sem",)), sem)]
