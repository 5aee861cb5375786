"""The three benchmark workloads, each one round of operations.

A round is a fixed list of operations.  Each operation has a ``call``,
which is the only part that is timed and the only part that runs
program code on the goal, and a ``judge``, which checks the result
against ``model`` (never against stored output) and returns a verdict
and a fingerprint.  Verdicts: ``ok``; ``failed`` when the program itself
reports a failure; ``wrong`` when it reports success with the wrong
output.  The fingerprint must repeat exactly from round to round.

The program receives only the goal values built by ``goal_value``.
roundtrip-mix draws its goals from ``--seed``.  The adverb ladder and the
baseline regress have fixed goals by definition and run them in a fixed
order: the order decides where the interpreter's garbage collections
fall, and a seeded order moved single-goal times by 10% from seed to
seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from model import ADJECTIVES, NOUNS, NP, S, ladder_size, surfaces

GENERATE_BUDGET = 10 ** 6
BASELINE_BUDGET = 10 ** 5
BASELINE_CLI_BUDGET = 10 ** 3
# CLI calls are a few ms each; repeating the fixture pair in every round
# gives cli_ms enough samples to be steady
CLI_REPEATS = 5
LADDER_MAX = 6
MIX_ROUND = 360  # goals per roundtrip-mix round

# the bundled fixtures, as model goals; checked against the files at start
NP_FIXTURE = NP("sentence", ("complex",))
S_FIXTURE = S(NP("program", ("little", "prolog")), NP("sentence", ("complex",)),
              ("quick",))
FIXTURES = (("grammars/np.sem", NP_FIXTURE), ("grammars/sentence.sem", S_FIXTURE))


@dataclass
class Op:
    kind: str          # "goal" or "cli"
    call: Callable     # () -> result; timed
    judge: Callable    # result -> (verdict, fingerprint); not timed


def goal_value(skg, goal):
    """The feature structure for a model goal (the shape of tests/oracle.py)."""
    Atom, Avm, ListVal = skg.Atom, skg.Avm, skg.ListVal

    def np_sem(np):
        return Avm((("def", Atom("+")),
                    ("mod", ListVal(tuple(Atom(a) for a in np.adjectives), None)),
                    ("rel", Atom(np.noun))))

    if isinstance(goal, NP):
        return Avm((("cat", Atom("np")), ("sem", np_sem(goal))))
    sem = Avm((("arg1", np_sem(goal.subject)),
               ("arg2", np_sem(goal.object)),
               ("mod", ListVal(tuple(Atom(a) for a in goal.adverbs), None)),
               ("pred", Atom("generate"))))
    return Avm((("cat", Atom("s")), ("sem", sem)))


def check_fixtures(skg, root):
    """Raise if a bundled fixture no longer means what the model assumes."""
    for rel, goal in FIXTURES:
        text = (root / rel).read_text(encoding="utf-8")
        if skg.normalize(skg.parse_value(text)) != skg.normalize(goal_value(skg, goal)):
            raise SystemExit(f"perfbench: {rel} differs from the goal the "
                             f"benchmark model expects ({goal})")


def mix_goals(seed: int) -> list:
    """One roundtrip-mix round: the distribution of tests/oracle.py:random_goal.

    The shape counts are that distribution's exact shares of 360 goals
    (np 40% with 0-3 adjectives evenly; s with 0 or 1 adverb evenly, then
    subject and object adjective counts as random_goal draws them under a
    total non-kernel load of 4).  The seed picks every word and the order,
    so all seeds do comparable work.
    """
    rng = random.Random(seed)

    def np(k):
        return NP(rng.choice(NOUNS), tuple(rng.choice(ADJECTIVES) for _ in range(k)))

    goals = []
    for k in range(4):
        goals += [np(k) for _ in range(36)]
    for n_adverbs in (0, 1):
        load = 4 - n_adverbs
        for a1 in range(3):
            a2_max = min(2, load - a1)
            for a2 in range(a2_max + 1):
                goals += [S(np(a1), np(a2), ("quick",) * n_adverbs)
                          for _ in range(36 // (a2_max + 1))]
    assert len(goals) == MIX_ROUND
    rng.shuffle(goals)
    return goals


def ladder_goals() -> list:
    """Sentence goals with k = 0..6 adverbs, in that order."""
    return [S(S_FIXTURE.subject, S_FIXTURE.object, ("quick",) * k)
            for k in range(LADDER_MAX + 1)]


# -- judges -----------------------------------------------------------------


def _judge_roundtrip(want):
    def judge(report):
        if not report.ok:
            return "failed", ("failed", report.reason)
        got = {s for s, _, _ in report.entries}
        clean = all(c and k for _, c, k in report.entries)
        generated = set(report.generation.surfaces)
        verdict = "ok" if got == want and generated == want and clean else "wrong"
        return verdict, (tuple(report.generation.surfaces),
                         report.generation.steps_used, tuple(report.entries))
    return judge


def _judge_generate(want):
    def judge(result):
        if result.exhausted_budget:
            return "failed", ("exhausted", result.steps_used)
        verdict = "ok" if set(result.surfaces) == want else "wrong"
        return verdict, (tuple(result.surfaces), result.steps_used)
    return judge


def _judge_baseline(np_goal, budget):
    coherent = surfaces(np_goal)
    bare = " ".join(surfaces(NP(np_goal.noun)))  # the np without its adjectives

    def judge(result):
        flagged = {" ".join(t): set(f) for t, _, _, f in result.partial_outputs}
        good = (result.exhausted_budget
                and result.steps_used == budget + 1
                and set(result.surfaces) == coherent
                and flagged.get(bare) == {"incomplete"})
        return ("ok" if good else "wrong"), (
            tuple(result.surfaces),
            tuple(sorted((s, tuple(sorted(f))) for s, f in flagged.items())),
            result.steps_used)
    return judge


def _judge_cli(expect_rc, check_payload):
    def judge(result):
        rc, text = result
        if rc != expect_rc:
            return "failed", ("exit", rc)
        try:
            payload = json.loads(text)
        except ValueError:
            return "wrong", text
        return ("ok" if check_payload(payload) else "wrong"), text
    return judge


def _cli_op(skg, argv, expect_rc, check_payload):
    cli = importlib.import_module(skg.__name__ + ".cli")

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()
    return Op("cli", call, _judge_cli(expect_rc, check_payload))


# -- workloads ----------------------------------------------------------------


def roundtrip_mix(skg, grammar, root, seed):
    cfg = skg.GenConfig(step_budget=GENERATE_BUDGET)
    ops = []
    for goal in mix_goals(seed):
        value = goal_value(skg, goal)
        ops.append(Op("goal",
                      lambda value=value: skg.roundtrip(grammar, value, cfg),
                      _judge_roundtrip(surfaces(goal))))
    cli_ops = []
    for rel, goal in FIXTURES:
        want = surfaces(goal)

        def check(payload, want=want):
            outs = payload.get("outputs", [])
            return (payload.get("ok") is True
                    and {o["surface"] for o in outs} == want
                    and all(o["coherent"] and o["complete"] for o in outs))

        argv = ["roundtrip", "--grammar", str(root / "grammars/paper.skg"),
                "--sem", str(root / rel), "--budget", str(GENERATE_BUDGET),
                "--format", "json"]
        cli_ops.append(_cli_op(skg, argv, 0, check))
    return ops + cli_ops * CLI_REPEATS


def adverb_ladder(skg, grammar, root, seed):
    cfg = skg.GenConfig(step_budget=GENERATE_BUDGET)
    ops = []
    for goal in ladder_goals():
        want = surfaces(goal)
        if len(want) != ladder_size(len(goal.adverbs)):
            raise SystemExit("perfbench: ladder model size is off")
        value = goal_value(skg, goal)
        ops.append(Op("goal",
                      lambda value=value: skg.generate(grammar, value, cfg),
                      _judge_generate(want)))
    cli_ops = []
    for rel, goal in FIXTURES:
        want = sorted(surfaces(goal))
        argv = ["generate", "--grammar", str(root / "grammars/paper.skg"),
                "--sem", str(root / rel), "--budget", str(GENERATE_BUDGET),
                "--format", "json"]
        cli_ops.append(_cli_op(skg, argv, 0,
                               lambda p, want=want: p.get("outputs") == want
                               and p.get("budget_exhausted") is False))
    return ops + cli_ops * CLI_REPEATS


def baseline_regress(skg, grammar, root, seed):
    modes = [skg.UNIFY_LINK, skg.SUBSTRUCTURE_LINK]
    value = goal_value(skg, NP_FIXTURE)
    cfg = skg.GenConfig(step_budget=BASELINE_BUDGET)
    ops = [Op("goal",
              lambda mode=mode: skg.generate_shdg(grammar, value, mode, cfg),
              _judge_baseline(NP_FIXTURE, BASELINE_BUDGET))
           for mode in modes]
    coherent = sorted(surfaces(NP_FIXTURE))
    bare = " ".join(surfaces(NP(NP_FIXTURE.noun)))
    cli_ops = []
    for mode in modes:
        argv = ["generate", "--algo", "shdg", "--link", mode,
                "--grammar", str(root / "grammars/paper.skg"),
                "--sem", str(root / "grammars/np.sem"),
                "--budget", str(BASELINE_CLI_BUDGET), "--format", "json"]
        cli_ops.append(_cli_op(
            skg, argv, 2,
            lambda p: p.get("outputs") == coherent
            and p.get("budget_exhausted") is True
            and {"surface": bare, "failures": ["incomplete"]}
            in p.get("partial_outputs", [])))
    return ops + cli_ops * CLI_REPEATS


WORKLOADS = {
    "roundtrip-mix": roundtrip_mix,
    "adverb-ladder": adverb_ladder,
    "baseline-regress": baseline_regress,
}
