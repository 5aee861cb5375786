"""Expected realisations of benchmark goals under ``grammars/paper.skg``.

This model is written from the grammar's rules, not from the program's
search code, so the benchmark can check every output it times:

- a noun phrase is "the", then its adjectives in list order, then the
  noun (rule 8 peels the modifier list from the front, outermost first);
- a sentence is ``subject [preverbal adverbs] generated object``, wrapped
  in sentence-level adverbs.  The sentence rules (1a initial, 1b final)
  consume a prefix of the modifier list, outermost first; the rest goes
  to the verb phrase, where rule 3 puts each adverb before the verb in
  list order.  So for a split after ``j`` adverbs, each of the first
  ``j`` goes sentence-initial or sentence-final: initial ones read in
  list order, final ones in reverse list order.

Goals are plain tuples of words; ``workloads.goal_value`` turns them into
the feature structures the program receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

NOUNS = ("sentence", "program")
ADJECTIVES = ("complex", "little", "prolog")

# semantic atom -> surface word, as in the lexicon of paper.skg
_WORD = {"sentence": "sentence", "program": "program", "complex": "complex",
         "little": "little", "prolog": "prolog", "quick": "quickly"}


@dataclass(frozen=True)
class NP:
    noun: str
    adjectives: tuple = ()


@dataclass(frozen=True)
class S:
    subject: NP
    object: NP
    adverbs: tuple = ()


def np_tokens(np: NP) -> tuple:
    return ("the",) + tuple(_WORD[a] for a in np.adjectives) + (_WORD[np.noun],)


def surfaces(goal) -> frozenset:
    """The set of surface strings the grammar realises for ``goal``."""
    if isinstance(goal, NP):
        return frozenset({" ".join(np_tokens(goal))})
    subject, obj = np_tokens(goal.subject), np_tokens(goal.object)
    adverbs = [_WORD[a] for a in goal.adverbs]
    out = set()
    for j in range(len(adverbs) + 1):
        outer, preverbal = adverbs[:j], tuple(adverbs[j:])
        for sides in product("IF", repeat=j):
            initial = tuple(a for a, s in zip(outer, sides) if s == "I")
            final = tuple(a for a, s in zip(outer, sides) if s == "F")[::-1]
            tokens = initial + subject + preverbal + ("generated",) + obj + final
            out.add(" ".join(tokens))
    return frozenset(out)


def ladder_size(k: int) -> int:
    """Distinct placements of k identical adverbs: initial/final/preverbal counts."""
    return comb(k + 2, 2)
