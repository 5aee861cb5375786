"""Left-corner parsing and parse/generate round-trip checks.

The parser works bottom-up from the leftmost word, projecting completed
constituents upward through rules whose leftmost daughter they match,
and filters projections top-down with a precomputed left-corner link
table (the reflexive-transitive closure of the mother-to-leftmost-
daughter category relation).  A step budget guards against grammars
with cyclic unary projections.
"""

from __future__ import annotations

from .avm import ABSENT, Atom, Avm, Fields, Value, _match, get, normalize
from .generator import generate
from .grammar import Grammar
from .kernel import normalize_nonsk
from .search import GenConfig, Search


class ParseError(ValueError):
    """Unparseable request (unknown token or root category, empty input)."""


class ParseResult(Fields):
    _fields = ("analyses", "steps_used", "exhausted_budget")

    def __init__(self, analyses: list, steps_used: int, exhausted_budget: bool):
        self.analyses = analyses  # list[(semantics, Derivation)]
        self.steps_used = steps_used
        self.exhausted_budget = exhausted_budget


def left_corner_table(grammar: Grammar) -> frozenset:
    """The grammar's left-corner table (:attr:`Grammar.left_corner`), built once."""
    return grammar.left_corner


def tokenize_sentence(sentence: str):
    """Whitespace-split, lowercase token sequence."""
    return tuple(t.lower() for t in sentence.split())


def _token_pivots(tokens, link):
    """Pivots for a goal at a position: the token's entries the goal left-links to."""
    def pivots(search, goal, goal_cat, pos):
        entries = search.g.entries_for(tokens[pos]) if pos < len(tokens) else ()
        return search.lexical(
            [e for e in entries if (goal_cat, e.cat) in link], goal, pos + 1,
            lambda entry: search.env.instantiate(entry.description, {}))
    return pivots


def parse(grammar: Grammar, tokens, cfg: GenConfig = None,
          root_cat: str = None, until=None) -> ParseResult:
    """All complete analyses of the token sequence under the grammar, in the
    order found; with ``until``, those up to the first whose normalized sem
    ``until`` accepts, where the search stops."""
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
    if (root_cat, root_cat) not in grammar.link:
        raise ParseError(f"unknown root category {root_cat!r}")
    search = Search(grammar, cfg, grammar.tables.left,
                    _token_pivots(tokens, left_corner_table(grammar)))
    env = search.env
    goal = env.instantiate(Avm((("cat", Atom(root_cat)),)), {})
    analyses = []
    solutions = search.run(goal, 0)
    for deriv, end, merged in solutions:
        if end == len(tokens):
            analyses.append((normalize(get(env.resolve(merged), ("sem",))), deriv))
            if until is not None and until(analyses[-1][0]):
                solutions.close()  # drive's finally closes the sub-searches
    return ParseResult(analyses, search.env.steps, search.exhausted)


# ---------------------------------------------------------------------------
# Round-trip checking.
# ---------------------------------------------------------------------------


def check_output(grammar: Grammar, tokens, root_cat: str,
                 input_sem: Value, cfg: GenConfig = None):
    """Failed round-trip checks for one generated string; [] when clean.

    Coherence: some parse of the string means no more than the input.
    Completeness: some parse means no less.  Both must hold for a single
    analysis for the output to count as clean; a parse that runs out of
    budget without one gives ``["budget-exhausted"]``.  The analyses are
    read one at a time, and the parse stops at the first clean one.
    """
    return _check(grammar, tokens, root_cat, input_sem, cfg or GenConfig())[0]


def _check(grammar, tokens, root_cat, input_sem, cfg):
    """:func:`check_output`'s failures, and the steps its parse took."""
    if input_sem is ABSENT:
        return [], 0
    want = normalize_nonsk(input_sem, grammar)
    found = []  # the failures of each analysis with a sem, in the order found

    def clean(sem):
        if sem is ABSENT:
            return False
        # the values compared are normal forms already, so none is normalized again
        failures = []
        # Coherent: the analysis claims nothing beyond the input.  The
        # raw reading is used, so an absent or open modifier list makes
        # no claim.
        if not _match(sem, want, {}):
            failures.append("incoherent")
        # Complete: under the minimal reading the analysis still covers
        # everything the input specified.
        if not _match(want, normalize_nonsk(sem, grammar), {}):
            failures.append("incomplete")
        found.append(failures)
        return not failures

    try:
        result = parse(grammar, tokens, cfg, root_cat, clean)
    except ParseError:
        return ["no-parse"], 0
    if result.exhausted_budget:  # a clean analysis stops the search first
        return ["budget-exhausted"], result.steps_used
    best = min(found, key=len, default=["no-semantics" if result.analyses else "no-parse"])
    return best, result.steps_used


class RoundTripReport(Fields):
    _fields = ("ok", "reason", "entries", "generation", "check_steps")

    def __init__(self, ok: bool, reason: str, entries: list = None,
                 generation: object = None, check_steps: int = 0):
        self.ok = ok
        self.reason = reason
        self.entries = [] if entries is None else entries  # (surface, coherent, complete)
        self.generation = generation
        self.check_steps = check_steps  # the check parses' steps, budgeted one by one


def roundtrip(grammar: Grammar, goal: Value, cfg: GenConfig = None) -> RoundTripReport:
    """Generate from a goal, re-parse every output, verify both directions."""
    cfg = cfg or GenConfig()
    result = generate(grammar, goal, cfg)
    if result.exhausted_budget:
        return RoundTripReport(False, "budget-exhausted", [], result)
    if not result.outputs:
        return RoundTripReport(False, "no-output", [], result)
    root_cat = get(goal, ("cat",)).name  # generate has checked it is an atom
    input_sem = get(goal, ("sem",))
    entries, reason, check_steps = [], "pass", 0
    for tokens in dict.fromkeys(tokens for tokens, _, _ in result.outputs):
        failures, steps = _check(grammar, tokens, root_cat, input_sem, cfg)
        check_steps += steps
        if failures == ["budget-exhausted"]:  # as for generation: no verdict
            reason = "budget-exhausted"
            break
        coherent = not {"incoherent", "no-parse"}.intersection(failures)
        complete = not {"incomplete", "no-parse", "no-semantics"}.intersection(failures)
        entries.append((" ".join(tokens), coherent, complete))
        reason = "check-failed" if failures else reason
    return RoundTripReport(reason == "pass", reason, entries, result, check_steps)
