"""Left-corner parsing and parse/generate round-trip checks.

The parser works bottom-up from the leftmost word, projecting completed
constituents upward through rules whose leftmost daughter they match,
and filters projections top-down with a precomputed left-corner link
table (the reflexive-transitive closure of the mother-to-leftmost-
daughter category relation).  A step budget guards against grammars
with cyclic unary projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .avm import ABSENT, Atom, Avm, Value, get, normalize, subsumes
from .grammar import Grammar, categories, closure
from .kernel import normalize_nonsk
from .search import BudgetExhausted, GenConfig, Search, drive, signature


class ParseError(ValueError):
    """Unparseable request (unknown token, empty input)."""


@dataclass
class ParseResult:
    analyses: list  # list[(semantics, Derivation)]
    steps_used: int
    exhausted_budget: bool


def left_corner_table(grammar: Grammar) -> frozenset:
    """Closure of (mother cat, leftmost daughter cat), plus reflexivity."""
    return closure({(c, c) for c in categories(grammar.rules, grammar.lexicon)}
                   | {(r.mother_cat, r.daughter_cat(0)) for r in grammar.rules})


def tokenize_sentence(sentence: str):
    """Whitespace-split, lowercase token sequence."""
    return tuple(t.lower() for t in sentence.split())


def _token_pivots(tokens):
    """Pivots for a goal at a position: the entries for the token there."""
    def pivots(search, goal, goal_cat, pos):
        entries = search.g.entries_for(tokens[pos]) if pos < len(tokens) else ()
        return search.lexical(
            entries, goal, goal_cat, pos + 1,
            lambda entry: search.env.instantiate(entry.description, {}))
    return pivots


def parse(grammar: Grammar, tokens, cfg: GenConfig = None,
          root_cat: str = None) -> ParseResult:
    """All complete analyses of the token sequence under the grammar."""
    cfg = cfg or GenConfig()
    if isinstance(tokens, str):
        tokens = tokenize_sentence(tokens)
    tokens = tuple(t.lower() for t in tokens)
    if not tokens:
        raise ParseError("empty input")
    for t in tokens:
        if not grammar.entries_for(t):
            raise ParseError(f"unknown token {t!r}")
    root_cat = root_cat or grammar.start
    search = Search(grammar, cfg, grammar.rules, left_corner_table(grammar),
                    lambda rule: 0, _token_pivots(tokens))
    env = search.env
    goal = env.instantiate(Avm((("cat", Atom(root_cat)),)), {})
    analyses = []
    seen = set()
    exhausted = False
    try:
        for deriv, end, merged in drive(search.solve(goal, 0)):
            if end != len(tokens):
                continue
            sem = get(env.resolve(merged), ("sem",))
            sem = normalize(sem) if sem is not ABSENT else ABSENT
            key = (sem, signature(deriv))
            if key in seen:
                continue
            seen.add(key)
            analyses.append((sem, deriv))
    except BudgetExhausted:
        exhausted = True
    return ParseResult(analyses, search.steps.used, exhausted)


# ---------------------------------------------------------------------------
# Round-trip checking.
# ---------------------------------------------------------------------------


def check_output(grammar: Grammar, tokens, root_cat: str,
                 input_sem: Value, cfg: GenConfig = None):
    """Failed round-trip checks for one generated string; [] when clean.

    Coherence: some parse of the string means no more than the input.
    Completeness: some parse means no less.  Both must hold for a single
    analysis for the output to count as clean.
    """
    if input_sem is ABSENT:
        return []
    try:
        result = parse(grammar, tokens, cfg or GenConfig(), root_cat)
    except ParseError:
        return ["no-parse"]
    if not result.analyses:
        return ["no-parse"]
    want = normalize_nonsk(input_sem, grammar)
    best = None
    for sem, _ in result.analyses:
        if sem is ABSENT:
            continue
        failures = []
        # Coherent: the analysis claims nothing beyond the input.  The
        # raw reading is used, so an absent or open modifier list makes
        # no claim.
        if not subsumes(sem, want):
            failures.append("incoherent")
        # Complete: under the minimal reading the analysis still covers
        # everything the input specified.
        if not subsumes(want, normalize_nonsk(sem, grammar)):
            failures.append("incomplete")
        if not failures:
            return []
        if best is None or len(failures) < len(best):
            best = failures
    return best if best is not None else ["no-semantics"]


@dataclass
class RoundTripReport:
    ok: bool
    reason: str
    entries: list = field(default_factory=list)
    # entries: (surface string, coherent, complete)
    generation: object = None


def roundtrip(grammar: Grammar, goal: Value, cfg: GenConfig = None) -> RoundTripReport:
    """Generate from a goal, re-parse every output, verify both directions."""
    from .generator import generate

    cfg = cfg or GenConfig()
    result = generate(grammar, goal, cfg)
    if result.exhausted_budget:
        return RoundTripReport(False, "budget-exhausted", [], result)
    if not result.outputs:
        return RoundTripReport(False, "no-output", [], result)
    cat = get(goal, ("cat",))
    root_cat = cat.name if isinstance(cat, Atom) else grammar.start
    input_sem = get(goal, ("sem",))
    entries = []
    ok = True
    checked = set()
    for tokens, _deriv, _root in result.outputs:
        if tokens in checked:
            continue
        checked.add(tokens)
        failures = check_output(grammar, tokens, root_cat, input_sem, cfg)
        coherent = "incoherent" not in failures and "no-parse" not in failures
        complete = "incomplete" not in failures and "no-parse" not in failures
        entries.append((" ".join(tokens), coherent, complete))
        ok = ok and coherent and complete
    return RoundTripReport(ok, "pass" if ok else "check-failed", entries, result)
