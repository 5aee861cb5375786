"""Kernel / non-kernel decomposition of semantic structures.

The generator distinguishes two kinds of semantic information: kernel
information, which some lexical entry can supply, and non-kernel
information, which only grammar rules introduce.  Non-kernel positions
are the declared list-valued paths of the grammar (the modifier list in
the bundled grammar).  Decomposition strips the top-level non-kernel
lists of a structure; embedded structures are not touched here because
they are inspected again when they become goals of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .avm import ABSENT, Avm, ListVal, Value, get, normalize, put, subsumes
from .grammar import Grammar


@dataclass(frozen=True)
class Decomposition:
    kernel: Value
    nonsk_items: tuple  # tuple[(path, element), ...] in declaration order


def is_sk(sem: Value, grammar: Grammar) -> bool:
    """True iff every declared non-kernel path is absent or empty here."""
    if sem is ABSENT:
        return True
    for path in grammar.nonsk_paths:
        v = get(sem, path)
        if v is ABSENT:
            continue
        if isinstance(v, ListVal) and not v.items and v.tail is None:
            continue
        return False
    return True


def decompose(sem: Value, grammar: Grammar) -> Decomposition:
    """Split off the top-level non-kernel list elements.

    The kernel is the input with every non-kernel path set to the empty
    list; the stripped elements are kept in order so that appending them
    back reproduces the input.
    """
    kernel = sem
    items = []
    for path in grammar.nonsk_paths:
        v = get(sem, path)
        if v is ABSENT:
            if isinstance(kernel, Avm):
                kernel = put(kernel, path, ListVal((), None))
            continue
        if not isinstance(v, ListVal):
            raise ValueError(
                f"non-kernel path {'.'.join(path)} holds a non-list value")
        for element in v.items:
            items.append((path, element))
        kernel = put(kernel, path, ListVal((), None))
    return Decomposition(normalize(kernel), tuple(items))


def sk_of(sem, candidate: Value, grammar: Grammar) -> bool:
    """True iff ``candidate`` carries only kernel information of ``sem``.

    ``sem`` may also be given as its :class:`Decomposition`, so that
    checking many candidates against one value decomposes it once.
    """
    if not isinstance(sem, Decomposition):
        sem = decompose(sem, grammar)
    return subsumes(candidate, sem.kernel)


def normalize_nonsk(value: Value, grammar: Grammar) -> Value:
    """Recursively take the minimal reading of non-kernel features.

    Used for comparisons (round-trip checks, lexical grounding): an
    absent non-kernel feature counts as the empty list, and an
    open-tailed non-kernel list (a parse that would accept further
    modifiers) counts as the listed elements only.
    """
    return normalize(_minimal(value, grammar.nonsk_paths))


def _minimal(v: Value, paths) -> Value:
    """``normalize_nonsk``'s walk (not a closure; see ``skg.avm._copy``)."""
    if isinstance(v, Avm):
        v = Avm(tuple((f, _minimal(x, paths)) for f, x in v.pairs), v.rest)
        for path in paths:
            at = get(v, path)
            if at is ABSENT:
                try:
                    v = put(v, path, ListVal((), None))
                except ValueError:
                    pass
            elif isinstance(at, ListVal) and at.tail is not None:
                v = put(v, path, ListVal(at.items, None))
        return v
    if isinstance(v, ListVal):
        return ListVal(tuple(_minimal(x, paths) for x in v.items), v.tail)
    return v


def lexically_grounded(sem: Value, grammar: Grammar) -> bool:
    """True iff some lexical entry's semantics subsumes ``sem``."""
    target = normalize_nonsk(sem, grammar)
    for entry in grammar.lexicon:
        entry_sem = entry.sem
        if entry_sem is ABSENT:
            continue
        if subsumes(normalize_nonsk(entry_sem, grammar), target):
            return True
    return False
