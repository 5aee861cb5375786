"""Attribute-value feature structures: values, unification, subsumption.

A feature structure is an acyclic attribute-value graph built from four
kinds of immutable values:

- ``Atom``: a bare symbol such as ``sentence`` or ``+``.
- ``Avm``: a finite map from feature names to values (an open record;
  unification may extend it with new features), with an optional rest
  variable (a row variable; Wand 1987, Rémy 1989) that stands for the
  features the record does not list.
- ``ListVal``: an ordered sequence, optionally open-ended with a tail
  variable, written ``<a, b>`` or ``<H | T>`` in the textual syntax.
- ``Var``: an unbound variable / reentrancy tag, written ``#1``, ``_``,
  or a capitalized identifier.

A record with a rest is what a repeated feature such as ``sem: S, sem:
[mod: Mods]`` parses to, and it is how a rule shares all of a value
except one feature between mother and daughter: the restriction of
Kaplan & Wedekind (1993, *Restriction and correspondence-based
translation*).  A feature the record lists wins over its rest's.  Values
are slotted and immutable: assigning or deleting a field raises
``AttributeError``, and ``copy``, ``deepcopy`` and ``pickle`` rebuild a
value through ``__init__`` (:class:`Frozen`, as for the package's other
immutable classes).

All public operations are pure: they never mutate their inputs and
return normalized results.  Destructive, trailed unification (used by
the generators and the parser) lives in :class:`Env`.  Its bindings
share structure instead of copying it (Boyer & Moore 1972, *The sharing
of structure in theorem-proving programs*): a list that unification
lengthens stays a chain of segments joined through bound tail variables,
and a record's bound rest stays a chain of records.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import itemgetter
from typing import Iterator, Optional, Union

Value = Union["Atom", "Var", "Avm", "ListVal"]

#: Sentinel distinct from any Value, returned by get() for missing paths.
ABSENT = object()


class Fields:
    """Field-wise ``==`` and ``repr`` over the attributes named in ``_fields``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Fields):
    """Hashable :class:`Fields` whose fields are its ``__slots__``, set once
    in ``__init__`` through the slot descriptors (``_setters``); assigning or
    deleting an attribute raises ``AttributeError``, and ``copy``, ``deepcopy``
    and ``pickle`` rebuild an instance through ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__slots__
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)

    def _init(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


class Atom(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _atom_name(self, name)

    def __eq__(self, other):
        return type(other) is Atom and self.name == other.name

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return f"Atom({self.name!r})"


class Var(Frozen):
    __slots__ = ("tag",)

    def __init__(self, tag: str):
        _var_tag(self, tag)

    def __eq__(self, other):
        return type(other) is Var and self.tag == other.tag

    def __hash__(self):
        return hash((self.tag,))

    def __repr__(self):
        return f"Var({self.tag!r})"


class Avm(Frozen):
    __slots__ = ("pairs", "rest")  # ((feature, Value), ...), unique features; None or a Var

    def __init__(self, pairs: tuple, rest: Optional[Var] = None):
        _avm_pairs(self, pairs)
        _avm_rest(self, rest)

    def __eq__(self, other):
        return (type(other) is Avm and self.pairs == other.pairs
                and self.rest == other.rest)

    def __hash__(self):
        return hash((self.pairs, self.rest))

    def get(self, feature: str):
        """The value the record lists for ``feature``, or ABSENT."""
        for f, v in self.pairs:
            if f == feature:
                return v
        return ABSENT

    def __repr__(self):
        inner = ", ".join(f"{f}: {v!r}" for f, v in self.pairs)
        if self.rest is not None:
            return f"Avm[{inner} | {self.rest!r}]"
        return f"Avm[{inner}]"


class ListVal(Frozen):
    __slots__ = ("items", "tail")  # a tuple of values; None (a closed list) or a Var

    def __init__(self, items: tuple, tail: Optional[Var] = None):
        _list_items(self, items)
        _list_tail(self, tail)

    def __eq__(self, other):
        return (type(other) is ListVal and self.items == other.items
                and self.tail == other.tail)

    def __hash__(self):
        return hash((self.items, self.tail))

    def __repr__(self):
        body = ", ".join(repr(i) for i in self.items)
        if self.tail is not None:
            return f"ListVal<{body} | {self.tail!r}>"
        return f"ListVal<{body}>"


(_atom_name,), (_var_tag,), (_avm_pairs, _avm_rest), (_list_items, _list_tail) = (
    Atom._setters, Var._setters, Avm._setters, ListVal._setters)


# ---------------------------------------------------------------------------
# Environments: trailed, destructive variable bindings for search.
# ---------------------------------------------------------------------------


def _copy(v: Value, mapping: dict, fresh) -> Value:
    """``Env.instantiate``'s copy; not a closure, since a recursive closure is a
    reference cycle that keeps its ``Env`` alive until the cycle collector runs."""
    kind = type(v)
    if kind is Atom:
        return v
    if kind is Var:
        if v.tag not in mapping:
            mapping[v.tag] = fresh()
        return mapping[v.tag]
    if kind is Avm:
        pairs = []
        for f, x in v.pairs:
            pairs.append((f, _copy(x, mapping, fresh)))
        return Avm(tuple(pairs), v.rest and _copy(v.rest, mapping, fresh))
    if kind is ListVal:
        tail = _copy(v.tail, mapping, fresh) if v.tail is not None else None
        items = []
        for x in v.items:
            items.append(_copy(x, mapping, fresh))
        return ListVal(tuple(items), tail)
    raise TypeError(v)


class BudgetExhausted(Exception):
    """Raised by :meth:`Env.tick` when a search runs out of steps."""


class Env:
    """Variable bindings with a trail for chronological backtracking.

    Unifying a list with a longer one binds the shorter list's open tail
    to the rest of the longer one, so a list grows as a chain of segments
    joined through bound tails, and nothing is copied.  :meth:`_onward`
    is the one walker of such a chain: ``unify`` walks two chains with it
    side by side, only as far as the shorter list goes, and only
    ``resolve`` flattens one.  :meth:`_merge_records`, the one merge of
    two records, binds each unbound rest to the features only the other
    record lists, so a record's rest can be bound to a record with a rest
    of its own; :meth:`_fold` reads such a chain.  :meth:`_bind_acyclic`
    makes the bindings that get an occurs check.  After ``unify`` merges
    two values, the last bound variable on each side is rebound to the
    merged value, with no occurs check (ROADMAP item 10).

    ``ends`` is the occurs check's memo, kept per binding: a variable
    bound to an atom, or to a list whose items are atoms or variables
    with the end None, has an end.  It is None if no unbound variable can
    be reached from the variable, else the variable at which its chain of
    list tails goes on, so that :meth:`occurs` crosses a chain in one
    step.  :meth:`bind` sets it and :meth:`undo` restores it with the
    binding.  A record never has one, since unification can extend it.

    ``steps`` counts the work done in the environment: one step per
    unification node visited, plus the steps a search takes itself
    (:meth:`tick`).  Once the count passes ``budget``, :meth:`tick`
    raises :class:`BudgetExhausted`.

    :meth:`canonical` is ``normalize(resolve(value))`` in one walk, the
    form of every table key, answer description, output root and parse
    analysis.  The walkers dispatch on a value's exact type, never on
    ``isinstance``: the value classes are never subclassed.  They build
    their values with plain loops, never comprehensions: on CPython 3.10
    and 3.11 a comprehension is a nested function, a call per node.
    """

    def __init__(self, budget=math.inf):
        self.bindings: dict = {}
        self.ends: dict = {}  # the occurs check's memo; see the class docstring
        self.trail: list = []
        self._fresh = itertools.count()
        self.budget = budget
        self.steps = 0

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExhausted()

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            tag, old, end = self.trail.pop()
            if old is ABSENT:
                del self.bindings[tag]
            else:
                self.bindings[tag] = old
            if end is ABSENT:
                self.ends.pop(tag, None)
            else:
                self.ends[tag] = end

    def bind(self, tag: str, value: Value) -> None:
        ends = self.ends
        self.trail.append((tag, self.bindings.get(tag, ABSENT), ends.pop(tag, ABSENT)))
        self.bindings[tag] = value
        kind = type(value)
        if kind is Atom:
            ends[tag] = None
        elif kind is ListVal:
            end = self._end(value)
            if end is not ABSENT:
                ends[tag] = end

    def _end(self, value: ListVal):
        """The end of a variable bound to the list ``value`` (see ``ends``), or ABSENT."""
        ends = self.ends
        for item in value.items:
            kind = type(item)
            if not (kind is Atom or kind is Var and ends.get(item.tag, ABSENT) is None):
                return ABSENT
        tail = value.tail
        return None if tail is None else ends.get(tail.tag, tail)

    def fresh_var(self) -> Var:
        return Var(f"_G{next(self._fresh)}")

    def walk(self, v: Value) -> Value:
        bindings = self.bindings
        while type(v) is Var and v.tag in bindings:
            v = bindings[v.tag]
        return v

    # -- renaming-apart -----------------------------------------------------

    def instantiate(self, value: Value, mapping: Optional[dict] = None) -> Value:
        """Copy ``value`` with every variable renamed to a fresh one.

        A shared ``mapping`` keeps reentrancy across several values
        instantiated together (e.g. a rule's mother and daughters).
        """
        return _copy(value, {} if mapping is None else mapping, self.fresh_var)

    # -- occurs check -------------------------------------------------------

    def occurs(self, tag: str, value: Value) -> bool:
        """Whether the unbound variable ``tag`` occurs in ``value``.

        A bound variable with an end jumps to it, so a chain of bound list
        tails costs one step, however long it has grown.
        """
        bindings, ends = self.bindings, self.ends
        stack = [value]
        while stack:
            v = stack.pop()
            while type(v) is Var:
                if v.tag not in bindings:
                    if v.tag == tag:
                        return True
                    break
                end = ends.get(v.tag, ABSENT)
                v = bindings[v.tag] if end is ABSENT else end
            kind = type(v)
            if kind is Avm:
                if v.rest is not None:
                    v = self._fold(v)
                for _, x in v.pairs:
                    stack.append(x)
                if v.rest is not None:
                    stack.append(v.rest)
            elif kind is ListVal:
                stack.extend(v.items)
                if v.tail is not None:
                    stack.append(v.tail)
        return False

    def _bind_acyclic(self, var: Var, value: Value) -> bool:
        """Bind the unbound ``var`` to ``value`` unless ``var`` occurs in it."""
        if type(value) is not Atom and self.occurs(var.tag, value):
            return False
        self.bind(var.tag, value)
        return True

    # -- list chains --------------------------------------------------------

    def _onward(self, segment: ListVal, pos: int):
        """Move ``(segment, pos)`` past segment ends through bound list tails.

        Returns the segment, the position and, while the position is at an
        item, ABSENT; at the end of the chain, the list's end instead: None
        if it is closed, else its unbound tail variable, or the tail bound
        to a non-list (ill-typed; unification fails on it).
        """
        while pos == len(segment.items):
            tail = segment.tail
            walked = tail and self.walk(tail)
            kind = type(walked)
            if kind is not ListVal:
                return segment, pos, tail if kind is Atom or kind is Avm else walked
            segment, pos = walked, 0
        return segment, pos, ABSENT

    # -- unification --------------------------------------------------------

    def unify(self, a: Value, b: Value) -> Optional[Value]:
        """Destructively unify two values; None on failure.

        On failure the caller is responsible for undoing via the trail
        mark it took beforehand.  The returned value preserves variable
        links so reentrant positions keep co-evolving.
        """
        steps = self.steps = self.steps + 1  # as tick() counts and checks it
        if steps > self.budget:
            raise BudgetExhausted()
        bindings, a_arg, b_arg = self.bindings, a, b
        a_last = b_last = None  # the last bound variable walked on each side
        while type(a) is Var and a.tag in bindings:
            a_last, a = a, bindings[a.tag]
        while type(b) is Var and b.tag in bindings:
            b_last, b = b, bindings[b.tag]
        if a is b:
            return b_arg if a_last is None and b_last is not None else a_arg
        kind = type(a)
        if kind is Var:
            if type(b) is Var:
                if a.tag != b.tag:
                    self.bind(b.tag, a)
                return a
            return a if self._bind_acyclic(a, b) else None
        if type(b) is Var:
            return b if self._bind_acyclic(b, a) else None
        if kind is not type(b):
            return None
        if kind is Atom:
            merged = a if a.name == b.name else None
        elif kind is Avm:
            merged = self._merge_records(a, b)
        else:
            merged = self._merge_lists(a, b) if kind is ListVal else None
        if merged is None:
            return None
        # Rebind the last walked variable of each side, so every reentrant
        # occurrence sees the merged value.
        if a_last is not None:
            self.bind(a_last.tag, merged)
        if b_last is not None:
            self.bind(b_last.tag, merged)
            return b_arg
        return merged if a_last is None else a_arg

    def _fold(self, record: Avm) -> Avm:
        """``record`` with its bound rests folded in by restriction: a feature the
        record lists wins over the rest's, in the rest's place.  The result's rest
        is None, unbound, or bound to a non-record (ill-typed, so it fails)."""
        pairs, rest = record.pairs, record.rest
        while rest is not None:
            row = self.walk(rest)
            if type(row) is not Avm:
                rest = row if type(row) is Var else rest
                break
            listed = dict(pairs)
            folded = []
            for f, v in row.pairs:
                folded.append((f, listed.pop(f, v)))
            pairs = tuple(folded) + tuple(listed.items())
            rest = row.rest
        return Avm(pairs, rest)

    def _merge_records(self, a: Avm, b: Avm) -> Optional[Avm]:
        """Unify two records; a record with a rest is folded first.  If a rest
        is left, ``a`` is made the side with one, and each unbound rest is bound
        to the features only the other record lists, and to a fresh rest they
        share if both have one; a shared rest must list the same features on
        both sides.  The shared features then unify in ``b``'s order.  ``b``'s
        other features are appended only if no rest is left; else the result
        keeps a rest, which stands for them and sees what that rest gains later."""
        if a.rest is not None:
            a = self._fold(a)
        if b.rest is not None:
            b = self._fold(b)
        if a.rest is None and b.rest is not None:
            a, b = b, a
        if a.rest is not None:
            bindings = self.bindings
            if a.rest.tag in bindings or b.rest is not None and b.rest.tag in bindings:
                return None  # a rest bound to a non-record
            only_a, only_b = [], []
            for side, other, only in ((a, b, only_a), (b, a, only_b)):
                for p in side.pairs:
                    if other.get(p[0]) is ABSENT:
                        only.append(p)
            if b.rest is not None and a.rest.tag == b.rest.tag:
                if only_a or only_b:
                    return None
            else:  # bound before the listed features unify, which may reach them
                rest = None if b.rest is None else self.fresh_var()
                for side, extra in ((a, only_b), (b, only_a)):
                    if side.rest is not None and not self._bind_acyclic(
                            side.rest, Avm(tuple(extra), rest)):
                        return None
        pairs = list(a.pairs)
        index = {}
        for i, (f, _) in enumerate(pairs):
            index[f] = i
        for f, bv in b.pairs:
            if f in index:
                u = self.unify(pairs[index[f]][1], bv)
                if u is None:
                    return None
                pairs[index[f]] = (f, u)
            elif a.rest is None:
                index[f] = len(pairs)
                pairs.append((f, bv))
        return Avm(tuple(pairs), a.rest)  # a.rest: only_b, then b.rest's row

    def _merge_lists(self, a: ListVal, b: ListVal) -> Optional[Value]:
        """Unify two lists item by item through their bound tails.

        Both chains are walked side by side, only as far as the shorter
        list goes.  Then the end of the side that ran out is bound to what
        the other side has left (its end, or the rest of one segment and
        that segment's tail), which stays shared, not copied.
        """
        merged = []
        a, i, a_end = self._onward(a, 0)
        b, j, b_end = self._onward(b, 0)
        while a_end is ABSENT and b_end is ABSENT:
            u = self.unify(a.items[i], b.items[j])
            if u is None:
                return None
            merged.append(u)
            a, i, a_end = self._onward(a, i + 1)
            b, j, b_end = self._onward(b, j + 1)
        if b_end is ABSENT:  # a ran out first: its end takes b's rest
            a, i, a_end, b_end = b, j, ABSENT, a_end
        rest = a_end if a_end is not ABSENT else a if i == 0 else ListVal(a.items[i:], a.tail)
        end = b_end
        if end is None:  # a closed end takes only an empty rest
            end, rest = rest, None
        bindings = self.bindings
        if type(end) is ListVal or type(end) is Var and end.tag in bindings \
                or type(rest) is Var and rest.tag in bindings:
            return None  # items left for a closed end, or an ill-typed tail
        if end is not None and end != rest \
                and not self._bind_acyclic(end, ListVal(()) if rest is None else rest):
            return None
        return ListVal(tuple(merged), b_end)

    # -- resolution ---------------------------------------------------------

    def resolve(self, value: Value) -> Value:
        """Substitute all bindings, yielding a standalone value; never unifies,
        binds or ticks."""
        bindings = self.bindings
        while type(value) is Var:
            if value.tag not in bindings:
                return value
            value = bindings[value.tag]
        kind = type(value)
        if kind is Atom:
            return value
        if kind is Avm:
            if value.rest is not None:
                value = self._fold(value)
            pairs = []
            for f, v in value.pairs:
                pairs.append((f, self.resolve(v)))
            return Avm(tuple(pairs), value.rest)
        if kind is ListVal:
            items = []
            segment, _, end = self._onward(value, 0)
            while end is ABSENT:
                for v in segment.items:
                    items.append(self.resolve(v))
                segment, _, end = self._onward(segment, len(segment.items))
            return ListVal(tuple(items), end)
        raise TypeError(value)

    def canonical(self, value: Value) -> Value:
        """``normalize(self.resolve(value))`` in one walk; ABSENT passes through."""
        return self._canonical(value, {})

    def _canonical(self, v: Value, seen: dict) -> Value:
        """``canonical``'s walk, in ``_normalize``'s order; ``seen`` is the renaming."""
        bindings = self.bindings
        while type(v) is Var:
            if v.tag not in bindings:
                return _renamed(v, seen)
            v = bindings[v.tag]
        kind = type(v)
        if kind is Avm:
            if v.rest is not None:
                v = self._fold(v)
            pairs = []
            for f, x in sorted(v.pairs, key=itemgetter(0)):
                pairs.append((f, self._canonical(x, seen)))
            return Avm(tuple(pairs), v.rest and _renamed(v.rest, seen))
        if kind is ListVal:
            items = []
            segment, _, end = self._onward(v, 0)
            while end is ABSENT:
                items += segment.items
                segment, _, end = self._onward(segment, len(segment.items))
            end = end and _renamed(end, seen)  # the end before the items
            for i, x in enumerate(items):
                items[i] = self._canonical(x, seen)
            return ListVal(tuple(items), end)
        return v


# ---------------------------------------------------------------------------
# Pure operations.
# ---------------------------------------------------------------------------


def normalize(value: Value) -> Value:
    """Canonical form: features sorted, variables renamed by visit order."""
    return _normalize(value, {})


def _normalize(v: Value, seen: dict) -> Value:
    """``normalize``'s walk (not a closure; see ``_copy``); ``seen`` is the renaming."""
    kind = type(v)
    if kind is Var:
        return _renamed(v, seen)
    if kind is Avm:
        pairs = []
        for f, x in sorted(v.pairs, key=itemgetter(0)):
            pairs.append((f, _normalize(x, seen)))
        return Avm(tuple(pairs), v.rest and _normalize(v.rest, seen))
    if kind is ListVal:
        tail = _normalize(v.tail, seen) if v.tail is not None else None
        items = []
        for x in v.items:
            items.append(_normalize(x, seen))
        return ListVal(tuple(items), tail)
    return v


def _renamed(var: Var, seen: dict) -> Var:
    """``var`` renamed by ``seen``, which gives a new variable the next ``#<n>``."""
    tag = var.tag
    if tag not in seen:
        seen[tag] = Var(f"#{len(seen)}")
    return seen[tag]


def unify(a: Value, b: Value) -> Optional[Value]:
    """Least upper bound of two feature structures, or None on clash."""
    env = Env()
    a = env.instantiate(a, {})
    b = env.instantiate(b, {})
    result = env.unify(a, b)
    if result is None:
        return None
    return env.canonical(result)


def subsumes(a: Value, b: Value) -> bool:
    """True iff every piece of information in ``a`` is present in ``b``."""
    return _match(normalize(a), normalize(b), {})


def _match(x: Value, y: Value, binding: dict) -> bool:
    """``subsumes``'s walk; ``binding`` maps ``x``'s variables to parts of ``y``."""
    if isinstance(x, Var):
        if x.tag in binding:
            return binding[x.tag] == y
        binding[x.tag] = y
        return True
    if isinstance(y, Var):
        return False
    if isinstance(x, Atom):
        return isinstance(y, Atom) and x.name == y.name
    if isinstance(x, Avm):
        if not isinstance(y, Avm):
            return False
        for f, xv in x.pairs:
            yv = y.get(f)
            if yv is ABSENT or not _match(xv, yv, binding):
                return False
        # x's rest stands for what y has beyond the features x lists
        return x.rest is None or _match(x.rest, Avm(
            tuple(p for p in y.pairs if x.get(p[0]) is ABSENT), y.rest), binding)
    if isinstance(x, ListVal):
        if not isinstance(y, ListVal):
            return False
        if len(x.items) > len(y.items):
            return False
        for xv, yv in zip(x.items, y.items):
            if not _match(xv, yv, binding):
                return False
        rest = y.items[len(x.items):]
        if x.tail is None:
            return not rest and y.tail is None
        return _match(x.tail, ListVal(rest, y.tail), binding)
    return False


def equal_modulo_renaming(a: Value, b: Value) -> bool:
    return normalize(a) == normalize(b)


def get(value: Value, path) -> object:
    """Value at a feature path, or ABSENT."""
    v = value
    for feature in path:
        if not isinstance(v, Avm):
            return ABSENT
        v = v.get(feature)
        if v is ABSENT:
            return ABSENT
    return v


def put(value: Value, path, new: Value) -> Value:
    """Copy of ``value`` with the feature path set to ``new``.

    Intermediate records are created as needed; an integer step picks a
    list item; other non-record positions on the way are an error.
    """
    if not path:
        return new
    f, rest = path[0], path[1:]
    if isinstance(f, int) and isinstance(value, ListVal):
        items = value.items
        return ListVal(items[:f] + (put(items[f], rest, new),) + items[f + 1:], value.tail)
    if value is ABSENT:
        value = Avm(())
    if not isinstance(value, Avm):
        raise ValueError(f"cannot set feature {f!r} on non-record value")
    old = value.get(f)
    child = put(old, rest, new)
    pairs = tuple((g, child if g == f else v) for g, v in value.pairs)
    return Avm(pairs if old is not ABSENT else pairs + ((f, child),), value.rest)


def parts(value: Value):
    """Yield ``(where, part)`` for ``value`` and every value inside it, in
    reading order, each value before the values it contains.  ``where`` is the
    step tuple to ``part``: feature names and list item indices, and ``"|"``
    for a record's rest or a list's tail.  The walk keeps its own stack."""
    stack = [((), value)]
    while stack:
        where, v = stack.pop()
        yield where, v
        kind = type(v)
        if kind is Avm:
            if v.rest is not None:
                stack.append((where + ("|",), v.rest))
            for step, x in reversed(v.pairs):
                stack.append((where + (step,), x))
        elif kind is ListVal:
            items = v.items
            if v.tail is not None:
                stack.append((where + ("|",), v.tail))
            for i in range(len(items) - 1, -1, -1):
                stack.append((where + (i,), items[i]))


def substructures(value: Value) -> list:
    """Every value reachable from the root, normalized, each once, in reading order."""
    return list(dict.fromkeys(normalize(part) for _, part in parts(value)))


def variables(value: Value) -> Iterator[Var]:
    """The variables of ``value`` in reading order, with repeats."""
    return (part for _, part in parts(value) if type(part) is Var)


# ---------------------------------------------------------------------------
# Textual syntax.
# ---------------------------------------------------------------------------


class AvmSyntaxError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


#: One token per match: a newline, blanks or a ``%`` comment (no kind,
#: skipped), a token of the named kind, or one character no token starts with.
_TOKEN = re.compile(r"""(?P<newline>\n) | [ \t\r]+ | %[^\n]*
    | (?P<arrow>->) | (?P<punct>[\[\]<>,:|.()]) | (?P<tag>\#\w+)
    | "(?P<string>[^"\n]*)" | (?P<name>[\w+'-]+) | (?P<bad>.)""", re.VERBOSE)
_BAD = {"#": "bare '#'", '"': "unterminated string"}


def tokenize(text: str):
    """Yield (kind, text, line, column); % starts a line comment."""
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            c = m.group()
            raise AvmSyntaxError(_BAD.get(c, f"unexpected character {c!r}"),
                                 line, m.start() - line_start + 1)
        elif kind:
            yield (kind, m.group(kind), line, m.start() - line_start + 1)
    yield ("eof", "", line, len(text) - line_start + 1)


class TokenStream:
    def __init__(self, tokens):
        self.tokens = list(tokens)
        self.pos = 0  # never past the eof token

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def at(self, kind, text=None, ahead: int = 0) -> bool:
        tok = self.peek(ahead) if ahead else self.tokens[self.pos]
        return tok[0] == kind and (text is None or tok[1] == text)

    def accept(self, kind, text=None):
        """The next token, consumed, if ``at(kind, text)``; else None."""
        return self.next() if self.at(kind, text) else None

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, text=None) -> str:
        """The next token's text, if ``at(kind, text)``; else a syntax error."""
        if not self.at(kind, text):
            self.error(f"expected {text or kind!r}, found {self.peek()[1]!r}")
        return self.next()[1]

    def path(self) -> list:
        """A feature path such as ``sem.mod``: a dot joins two names only
        when it touches both, so the dot that ends ``nonsk sem.mod.`` does
        not join the next line's keyword to the path."""
        path = [self.expect("name")]
        while (self.at("punct", ".") and self.at("name", ahead=1)
               and _touching(self.peek(-1), self.peek())
               and _touching(self.peek(), self.peek(1))):
            self.next()
            path.append(self.next()[1])
        return path

    def error(self, message):
        tok = self.peek()
        raise AvmSyntaxError(message, tok[2], tok[3])


def _touching(a, b) -> bool:
    """Whether token ``b`` starts where name or punctuation ``a`` ends."""
    return a[2] == b[2] and a[3] + len(a[1]) == b[3]


def _is_var_name(name: str) -> bool:
    return name == "_" or name[0].isupper()


def _record(written, rest=None) -> Avm:
    """A record from (feature, value, position) triples, in first-written order;
    a repeated feature merges with its earlier value, a clash is at the later one."""
    merged: dict = {}
    for f, v, where in written:
        merged[f] = _merge_static(merged[f], v, where) if f in merged else v
    return Avm(tuple(merged.items()), rest)


def _merge_static(a: Value, b: Value, where) -> Value:
    """Merge two values written for the same feature in one record; a variable
    written with a record becomes the record's rest."""
    if a == b:
        return a
    a, b = (Avm((), v) if isinstance(v, Var) else v for v in (a, b))
    if isinstance(a, Avm) and isinstance(b, Avm) and (a.rest is None or b.rest is None):
        return _record(((f, v, where) for f, v in a.pairs + b.pairs), a.rest or b.rest)
    raise AvmSyntaxError(f"cannot merge repeated feature values", where[0], where[1])


#: Deepest nesting of records and lists the reader accepts.  The value
#: operations recurse, so deeper input would exhaust the interpreter's
#: stack instead of being rejected.
MAX_NESTING = 100


class _Parser:
    """Recursive-descent parser for the textual AVM syntax."""

    def __init__(self, stream: TokenStream, fresh):
        self.stream = stream
        self.fresh = fresh
        self.depth = 0  # records and lists open around the current value

    def value(self) -> Value:
        s = self.stream
        if s.at("name"):
            text = s.next()[1]
            if text == "_":
                return Var(f"_A{next(self.fresh)}")
            return Var(text) if _is_var_name(text) else Atom(text)
        if s.at("tag"):
            return Var(s.next()[1])
        if not (s.at("punct", "[") or s.at("punct", "<")):
            s.error("expected a value")
        if self.depth == MAX_NESTING:
            s.error(f"records and lists nested deeper than {MAX_NESTING}")
        self.depth += 1
        v = self.record() if s.at("punct", "[") else self.list_value()
        self.depth -= 1
        return v

    def sequence(self, item) -> list:
        """``item()`` once, and again after each comma."""
        items = [item()]
        while self.stream.accept("punct", ","):
            items.append(item())
        return items

    def record(self) -> Avm:
        self.stream.expect("punct", "[")
        written = [] if self.stream.at("punct", "]") else self.sequence(self.feature)
        self.stream.expect("punct", "]")
        return _record(written)

    def feature(self):
        """One ``path: value`` of a record, as (feature, value, position)."""
        where = self.stream.peek()[2:]
        path = self.stream.path()
        self.stream.expect("punct", ":")
        v = self.value()
        for feature in reversed(path[1:]):
            v = Avm(((feature, v),))
        return path[0], v, where

    def list_value(self) -> ListVal:
        self.stream.expect("punct", "<")
        items, tail = [], None
        if not self.stream.at("punct", ">"):
            items = self.sequence(self.value)
            if self.stream.accept("punct", "|"):
                tail = self.value()
                if not isinstance(tail, Var):
                    self.stream.error("list tail must be a variable")
        self.stream.expect("punct", ">")
        return ListVal(tuple(items), tail)


def parse_value(text: str) -> Value:
    """Parse a single value from the textual AVM syntax."""
    stream = TokenStream(tokenize(text))
    v = _Parser(stream, itertools.count()).value()
    stream.accept("punct", ".")
    stream.expect("eof")
    return v


def render(value: Value) -> str:
    """Inverse of parse_value (modulo whitespace and variable names), except
    for a record with a rest at the top level: it renders as ``R & [f: v]``,
    which parse_value rejects, since only a feature's value can hold a rest."""
    if isinstance(value, Atom):
        return value.name
    if isinstance(value, Var):
        return value.tag if value.tag.startswith("#") or _is_var_name(value.tag) \
            else f"#{value.tag}"
    if isinstance(value, Avm):
        parts = []
        for f, v in value.pairs:
            if isinstance(v, Avm) and v.rest is not None:
                # emit the rest as a repeated feature so the text round-trips
                parts.append(f"{f}: {render(v.rest)}")
                v = Avm(v.pairs)
            parts.append(f"{f}: {render(v)}")
        record = "[" + ", ".join(parts) + "]"
        # a record with a rest has no syntax of its own outside a feature
        return record if value.rest is None else f"{render(value.rest)} & {record}"
    if isinstance(value, ListVal):
        inner = ", ".join(render(v) for v in value.items)
        if value.tail is not None:
            return f"<{inner} | {render(value.tail)}>"
        return f"<{inner}>"
    raise TypeError(value)
