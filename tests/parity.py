"""Print what the program does on fixed goal sets, one line per operation and goal.

Two checkouts that print the same lines behave the same on these goals:
the same outputs in the same order, the same derivations, analyses, trace
lines and step counts.  To compare a change with its parent:

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    cp tests/parity.py /tmp/parent/tests/
    python3 /tmp/parent/tests/parity.py > before.txt
    python3 tests/parity.py > after.txt
    diff before.txt after.txt

Each copy imports the ``skg`` under its own checkout's ``src``.  Every line
is a JSON list: goal set, goal index, operation, then the operation's
results.  ``generate`` is read from ``roundtrip``'s report, which holds the
generation it checked.  After a goal set's goals come the parses of its
distinct outputs, each with and without its root category, then a totals
line.  pytest does not collect this file (its name has no ``test_``).
"""

import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import skg  # noqa: E402
from oracle import random_goal  # noqa: E402
from test_tabling import ladder_goal, multi_adverb_goals  # noqa: E402
from workloads import goal_value, mix_goals  # noqa: E402

from skg import (ABSENT, SUBSTRUCTURE_LINK, UNIFY_LINK, GenConfig,  # noqa: E402
                 format_derivation, generate_shdg, load_grammar, normalize,
                 parse, parse_value, render, roundtrip)

#: The baseline's budgets, each with whether its trace is printed.
BASELINE_RUNS = ((10 ** 3, True), (10 ** 4, True), (10 ** 5, False))


def _line(*fields) -> str:
    return json.dumps(fields, ensure_ascii=False)


def _outputs(outputs):
    return [(" ".join(tokens), format_derivation(d), render(root))
            for tokens, d, root in outputs]


def goal_lines(grammar, name, goals):
    """``generate``, ``roundtrip`` and ``parse`` lines for a goal set, and its totals."""
    generated = checked = 0
    outputs = set()
    for i, goal in enumerate(goals):
        report = roundtrip(grammar, goal)
        result = report.generation
        generated += result.steps_used
        checked += report.check_steps
        outputs.update((s, goal.get("cat").name) for s in result.surfaces)
        yield _line(name, i, "generate", render(goal), result.steps_used,
                    result.exhausted_budget, _outputs(result.outputs))
        yield _line(name, i, "roundtrip", report.ok, report.reason, report.entries,
                    report.check_steps)
    parses = 0
    for i, (surface, cat) in enumerate(sorted(outputs)):
        for root in (None, cat):
            result = parse(grammar, surface, root_cat=root)
            parses += result.steps_used
            analyses = [(None if sem is ABSENT else render(sem), format_derivation(d))
                        for sem, d in result.analyses]
            yield _line(name, i, "parse", surface, root, result.steps_used,
                        result.exhausted_budget, analyses)
    yield _line(name, "totals", "goals", len(goals), "steps", generated,
                "check steps", checked, "parses", 2 * len(outputs), "parse steps", parses)


def fixture_lines(grammar):
    goals = [parse_value((ROOT / "grammars" / f).read_text())
             for f in ("np.sem", "sentence.sem")]
    return goal_lines(grammar, "fixtures", goals)


def baseline_lines(grammar):
    goal = parse_value((ROOT / "grammars" / "np.sem").read_text())
    for mode in (UNIFY_LINK, SUBSTRUCTURE_LINK):
        for budget, trace in BASELINE_RUNS:
            result = generate_shdg(grammar, goal, mode,
                                   GenConfig(step_budget=budget, trace=trace))
            partial = [(" ".join(tokens), list(failures))
                       for tokens, _, _, failures in result.partial_outputs]
            yield _line("baseline", f"{mode} {budget}", "generate_shdg",
                        result.steps_used, result.exhausted_budget,
                        _outputs(result.outputs), partial, result.trace_log)


def lines(grammar):
    rng = random.Random(7)
    draws = [random_goal(rng) for _ in range(200)]
    yield from fixture_lines(grammar)
    yield from goal_lines(grammar, "ladder", [ladder_goal(k) for k in range(8)])
    yield from goal_lines(grammar, "multi-adverb", multi_adverb_goals())
    # the distinct draws, as the pinned seed-7 totals count them
    yield from goal_lines(grammar, "seed-7", list(
        {normalize(g): g for g in draws}.values()))
    yield from goal_lines(grammar, "mix", [goal_value(skg, g) for g in mix_goals(1)])
    yield from baseline_lines(grammar)


if __name__ == "__main__":
    paper = load_grammar((ROOT / "grammars" / "paper.skg").read_text())
    for text in lines(paper):
        print(text)
