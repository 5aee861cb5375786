"""Semantic-kernel-driven generation from feature-structure semantics."""

from .avm import (
    ABSENT,
    Atom,
    Avm,
    AvmSyntaxError,
    Env,
    ListVal,
    Var,
    equal_modulo_renaming,
    get,
    normalize,
    parse_value,
    put,
    render,
    substructures,
    subsumes,
    unify,
    variables,
)
from .grammar import (
    NONSK,
    SK,
    Grammar,
    GrammarError,
    LexEntry,
    Rule,
    classify_rule,
    load_grammar,
    serialize_grammar,
)
from .kernel import (
    Decomposition,
    decompose,
    is_sk,
    lexically_grounded,
    nonsk_weight,
    normalize_nonsk,
    sk_of,
)
from .search import (
    BudgetExhausted,
    GenConfig,
    GenResult,
    Leaf,
    Node,
    default_budget,
    format_derivation,
    yield_tokens,
)
from .generator import GenerationError, generate, nonsk_expansions
from .baseline import (
    SUBSTRUCTURE_LINK,
    UNIFY_LINK,
    BaselineResult,
    generate_shdg,
)
from .parser import (
    ParseError,
    ParseResult,
    RoundTripReport,
    check_output,
    left_corner_table,
    parse,
    roundtrip,
    tokenize_sentence,
)

__version__ = "0.1.0"
