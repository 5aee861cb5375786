"""The realisation model against the brute-force chart oracle.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

import skg  # noqa: E402
from model import NP, S, ladder_size, surfaces  # noqa: E402
from oracle import oracle_surfaces  # noqa: E402
from workloads import (MIX_ROUND, adverb_ladder, check_fixtures,  # noqa: E402
                       goal_value, ladder_goals, mix_goals)

GRAMMAR = skg.load_grammar((ROOT / "grammars" / "paper.skg").read_text())

SMALL_GOALS = [
    NP("sentence"),
    NP("program", ("little",)),
    NP("sentence", ("complex", "prolog")),
    NP("program", ("prolog", "little", "complex")),
    NP("sentence", ("little", "little")),
    S(NP("program"), NP("sentence")),
    S(NP("sentence"), NP("program"), ("quick",)),
    S(NP("program", ("little",)), NP("sentence"), ("quick",)),
    S(NP("program"), NP("sentence", ("complex",)), ("quick",)),
    S(NP("program"), NP("sentence"), ("quick", "quick")),
    S(NP("sentence", ("prolog",)), NP("program", ("complex",)), ("quick", "quick")),
    S(NP("program"), NP("sentence"), ("quick", "quick", "quick")),
]


@pytest.mark.parametrize("goal", SMALL_GOALS, ids=repr)
def test_model_equals_oracle(goal):
    want = surfaces(goal)
    # every realisation spells each word once, so one more token than the
    # model's strings is room enough for a longer one to show up
    room = max(len(s.split()) for s in want) + 1
    got = oracle_surfaces(GRAMMAR, goal_value(skg, goal), max_tokens=room)
    assert {" ".join(t) for t in got} == want


def test_ladder_sizes():
    for goal in ladder_goals():
        assert len(surfaces(goal)) == ladder_size(len(goal.adverbs))
    assert [ladder_size(k) for k in range(7)] == [1, 3, 6, 10, 15, 21, 28]


def test_sentence_fixture_placements():
    goal = S(NP("program", ("little", "prolog")), NP("sentence", ("complex",)),
             ("quick",))
    assert surfaces(goal) == {
        "quickly the little prolog program generated the complex sentence",
        "the little prolog program quickly generated the complex sentence",
        "the little prolog program generated the complex sentence quickly",
    }


def test_mix_goals_follow_random_goal_space():
    goals = mix_goals(7)
    assert len(goals) == MIX_ROUND
    assert mix_goals(7) == goals and mix_goals(8) != goals
    nps = [g for g in goals if isinstance(g, NP)]
    assert len(nps) == 144
    for g in goals:
        if isinstance(g, NP):
            assert len(g.adjectives) <= 3
        else:
            assert len(g.adverbs) <= 1
            assert len(g.subject.adjectives) <= 2 and len(g.object.adjectives) <= 2
            assert (len(g.adverbs) + len(g.subject.adjectives)
                    + len(g.object.adjectives)) <= 4


def test_fixtures_match_model_goals():
    check_fixtures(skg, ROOT)


def test_ladder_operations_pass_their_own_checks():
    for op in adverb_ladder(skg, GRAMMAR, ROOT, seed=0):
        verdict, _ = op.judge(op.call())
        assert verdict == "ok"
