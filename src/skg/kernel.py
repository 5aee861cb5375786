"""Kernel / non-kernel decomposition of semantic structures.

The generator distinguishes two kinds of semantic information: kernel
information, which some lexical entry can supply, and non-kernel
information, which only grammar rules introduce.  Non-kernel positions
are the declared list-valued paths of the grammar (the modifier list in
the bundled grammar), found in a value by one walk, :func:`nonsk_sites`.
Decomposition strips the top-level non-kernel lists of a structure;
embedded structures are not touched here because they are inspected
again when they become goals of their own.
"""

from __future__ import annotations

from contextlib import suppress

from .avm import ABSENT, Avm, Frozen, ListVal, Value, get, normalize, parts, put, subsumes
from .grammar import Grammar


class Decomposition(Frozen):
    __slots__ = ("kernel", "nonsk_items")

    def __init__(self, kernel: Value, nonsk_items: tuple):
        # nonsk_items: ((path, element), ...) in declaration order
        self._init(kernel, nonsk_items)


def nonsk_sites(value: Value, grammar: Grammar):
    """Yield ``(where, path, at)`` for each declared non-kernel path of each
    record in ``value``: ``where`` locates the record (see :func:`avm.parts`),
    ``at`` is what it holds at ``path`` or ``ABSENT``.
    Records come in reading order, at every depth, a record before those in it.
    """
    paths = grammar.nonsk_paths
    for where, part in parts(value):
        if type(part) is Avm:
            for path in paths:
                yield where, path, get(part, path)


def _top_sites(sem: Value, grammar: Grammar) -> list:
    """The ``(path, at)`` pairs of ``sem``'s own record."""
    if type(sem) is not Avm:
        return []
    return [(path, get(sem, path)) for path in grammar.nonsk_paths]


def nonsk_weight(sem: Value, grammar: Grammar) -> int:
    """Total element count of non-kernel lists, at every depth of sem."""
    weight = 0
    for _, _, at in nonsk_sites(sem, grammar):
        if type(at) is ListVal:
            weight += len(at.items)
    return weight


def is_sk(sem: Value, grammar: Grammar) -> bool:
    """True iff every declared non-kernel path is absent or empty here."""
    for _, at in _top_sites(sem, grammar):
        if at is not ABSENT and not (type(at) is ListVal and not at.items
                                     and at.tail is None):
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
    for path, at in _top_sites(sem, grammar):
        if at is not ABSENT:
            if not isinstance(at, ListVal):
                raise ValueError(
                    f"non-kernel path {'.'.join(path)} holds a non-list value")
            items.extend((path, element) for element in at.items)
        kernel = put(kernel, path, ListVal(()))
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
    """Take the minimal reading of non-kernel features, at every depth.

    Used for comparisons (round-trip checks, lexical grounding): an
    absent non-kernel feature counts as the empty list, and an
    open-tailed non-kernel list (a parse that would accept further
    modifiers) counts as the listed elements only.
    """
    out = value
    for where, path, at in nonsk_sites(value, grammar):
        if at is ABSENT:
            with suppress(ValueError):  # the path may run into a non-record
                out = put(out, where + path, ListVal(()))
        elif isinstance(at, ListVal) and at.tail is not None:
            out = put(out, where + path, ListVal(at.items, None))
    return normalize(out)


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
