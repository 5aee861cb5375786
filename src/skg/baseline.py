"""Head-corner baseline generator (no kernel gating).

This is the classical semantic-head-driven search: predict a lexical
pivot through the category link relation plus a semantic link, then
complete bottom-up through *any* rule whose head daughter unifies with
the pivot.  Two semantic link readings are supported:

- ``unify``: the goal semantics and the entry semantics must unify;
- ``substructure``: the entry semantics must unify with some
  substructure of the goal semantics.

On inputs whose modifier lists are non-empty this search does not
terminate (list-extending rules can always apply once more), and it can
also succeed on trees covering only part of the input.  Outputs are
therefore split by a round-trip parse check into coherent/complete ones
and flagged partial ones; reproducing that split is the point of this
module.
"""

from __future__ import annotations

from .avm import ABSENT, Value, get, substructures
from .grammar import Grammar
from .parser import check_output
from .search import (GenConfig, GenResult, Search, check_goal, distinct_outputs,
                     goal_category)

UNIFY_LINK = "unify"
SUBSTRUCTURE_LINK = "substructure"


class BaselineResult(GenResult):
    """``outputs`` are the coherent and complete outputs; the others are
    ``partial_outputs``: (surface, deriv, root, failed checks)."""
    _fields = GenResult._fields + ("partial_outputs",)

    def __init__(self, outputs: list, steps_used: int, exhausted_budget: bool,
                 trace_log: list = None, partial_outputs: list = None):
        super().__init__(outputs, steps_used, exhausted_budget, trace_log)
        self.partial_outputs = [] if partial_outputs is None else partial_outputs

    @property
    def partial_surfaces(self):
        return [" ".join(out[0]) for out in self.partial_outputs]


def _link_pivot(env, mode, pivot, sem_raw) -> bool:
    """Check the semantic link and keep the resulting bindings."""
    if sem_raw is ABSENT:
        return True
    pivot_sem = get(pivot, ("sem",))
    if pivot_sem is ABSENT:
        return True
    if mode == UNIFY_LINK:
        return env.unify(pivot_sem, sem_raw) is not None
    for sub in substructures(env.resolve(sem_raw)):
        mark = env.mark()
        if env.unify(pivot_sem, env.instantiate(sub, {})) is not None:
            return True
        env.undo(mark)
    return False


def _linked_pivots(mode):
    def pivots(search, goal, goal_cat, pos):
        env = search.env
        sem_raw = get(goal, ("sem",))

        def attach(entry):
            pivot = env.instantiate(entry.description, {})
            return pivot if _link_pivot(env, mode, pivot, sem_raw) else None

        return search.lexical(search.g.tables.lexicon.get(goal_cat, ()), goal, pos,
                              attach)
    return pivots


def generate_shdg(grammar: Grammar, goal: Value, mode: str = UNIFY_LINK,
                  cfg: GenConfig = None) -> BaselineResult:
    """Baseline enumeration with round-trip classification of outputs."""
    if mode not in (UNIFY_LINK, SUBSTRUCTURE_LINK):
        raise ValueError(f"unknown link mode {mode!r}")
    check_goal(goal, grammar)
    cfg = cfg or GenConfig()
    search = Search(grammar, cfg, grammar.tables.head, _linked_pivots(mode))
    goal_inst = search.env.instantiate(goal, {})
    goal_cat = goal_category(goal_inst, search.env)
    sem_raw = get(goal_inst, ("sem",))
    input_sem = search.env.resolve(sem_raw) if sem_raw is not ABSENT else ABSENT
    outputs = []
    partial = []
    for tokens, deriv, root in distinct_outputs(search, goal_inst):
        failures = check_output(grammar, tokens, goal_cat, input_sem, cfg)
        if failures:
            partial.append((tokens, deriv, root, tuple(failures)))
        else:
            outputs.append((tokens, deriv, root))
            if len(outputs) == cfg.max_results:
                break
    return BaselineResult(outputs, search.env.steps, search.exhausted, search.log,
                          partial)
