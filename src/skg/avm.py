"""Attribute-value feature structures: values, unification, subsumption.

A feature structure is an acyclic attribute-value graph built from four
kinds of immutable values:

- ``Atom``: a bare symbol such as ``sentence`` or ``+``.
- ``Avm``: a finite map from feature names to values (an open record;
  unification may extend it with new features).
- ``ListVal``: an ordered sequence, optionally open-ended with a tail
  variable, written ``<a, b>`` or ``<H | T>`` in the textual syntax.
- ``Var``: an unbound variable / reentrancy tag, written ``#1``, ``_``,
  or a capitalized identifier.

A fifth, ``Overlay``, appears only inside grammar rule descriptions: it
pairs a "rest" variable with an explicit record and denotes a record
whose listed features come from the record and whose remaining features
are shared through the variable.  It is what a repeated feature such as
``sem: #1, sem: [mod: Mods]`` parses to, and it is how a rule can share
all of a value except one feature between mother and daughter.

All public operations are pure: they never mutate their inputs and
return normalized results.  Destructive, trailed unification (used by
the generators and the parser) lives in :class:`Env`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

Value = Union["Atom", "Var", "Avm", "ListVal", "Overlay"]

#: Sentinel distinct from any Value, returned by get() for missing paths.
ABSENT = object()


@dataclass(frozen=True)
class Atom:
    name: str

    def __repr__(self):
        return f"Atom({self.name!r})"


@dataclass(frozen=True)
class Var:
    tag: str

    def __repr__(self):
        return f"Var({self.tag!r})"


@dataclass(frozen=True)
class Avm:
    pairs: tuple  # tuple[(feature, Value), ...], unique features

    def get(self, feature: str):
        for f, v in self.pairs:
            if f == feature:
                return v
        return ABSENT

    def features(self):
        return [f for f, _ in self.pairs]

    def without(self, features) -> "Avm":
        return Avm(tuple((f, v) for f, v in self.pairs if f not in features))

    def __repr__(self):
        inner = ", ".join(f"{f}: {v!r}" for f, v in self.pairs)
        return f"Avm[{inner}]"


@dataclass(frozen=True)
class ListVal:
    items: tuple  # tuple[Value, ...]
    tail: Optional["Var"] = None  # None means the list is closed

    def __repr__(self):
        body = ", ".join(repr(i) for i in self.items)
        if self.tail is not None:
            return f"ListVal<{body} | {self.tail!r}>"
        return f"ListVal<{body}>"


@dataclass(frozen=True)
class Overlay:
    rest: Var
    over: Avm

    def __repr__(self):
        return f"Overlay({self.rest!r} + {self.over!r})"


# ---------------------------------------------------------------------------
# Environments: trailed, destructive variable bindings for search.
# ---------------------------------------------------------------------------


class Env:
    """Variable bindings with a trail for chronological backtracking."""

    def __init__(self):
        self.bindings: dict = {}
        self.trail: list = []
        self._fresh = itertools.count()
        # Optional callback invoked once per unification node visit;
        # searches install a step counter here so budgets measure work.
        self.on_step = None

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            tag, old = self.trail.pop()
            if old is ABSENT:
                del self.bindings[tag]
            else:
                self.bindings[tag] = old

    def bind(self, tag: str, value: Value) -> None:
        self.trail.append((tag, self.bindings.get(tag, ABSENT)))
        self.bindings[tag] = value

    def fresh_var(self) -> Var:
        return Var(f"_G{next(self._fresh)}")

    def walk(self, v: Value) -> Value:
        while isinstance(v, Var) and v.tag in self.bindings:
            v = self.bindings[v.tag]
        return v

    # -- renaming-apart -----------------------------------------------------

    def instantiate(self, value: Value, mapping: Optional[dict] = None) -> Value:
        """Copy ``value`` with every variable renamed to a fresh one.

        A shared ``mapping`` keeps reentrancy across several values
        instantiated together (e.g. a rule's mother and daughters).
        """
        if mapping is None:
            mapping = {}

        def go(v):
            if isinstance(v, Atom):
                return v
            if isinstance(v, Var):
                if v.tag not in mapping:
                    mapping[v.tag] = self.fresh_var()
                return mapping[v.tag]
            if isinstance(v, Avm):
                return Avm(tuple((f, go(x)) for f, x in v.pairs))
            if isinstance(v, ListVal):
                tail = go(v.tail) if v.tail is not None else None
                return ListVal(tuple(go(x) for x in v.items), tail)
            if isinstance(v, Overlay):
                return Overlay(go(v.rest), go(v.over))
            raise TypeError(v)

        return go(value)

    # -- occurs check -------------------------------------------------------

    def occurs(self, tag: str, value: Value) -> bool:
        value = self.walk(value)
        if isinstance(value, Var):
            return value.tag == tag
        if isinstance(value, Avm):
            return any(self.occurs(tag, v) for _, v in value.pairs)
        if isinstance(value, ListVal):
            if any(self.occurs(tag, v) for v in value.items):
                return True
            return value.tail is not None and self.occurs(tag, value.tail)
        if isinstance(value, Overlay):
            return self.occurs(tag, value.rest) or self.occurs(tag, value.over)
        return False

    # -- list normalization -------------------------------------------------

    def _spread(self, lst: ListVal) -> ListVal:
        """Flatten a list whose tail variable is bound to another list."""
        items = lst.items
        tail = lst.tail
        while tail is not None:
            walked = self.walk(tail)
            if isinstance(walked, ListVal):
                items = items + walked.items
                tail = walked.tail
            elif isinstance(walked, Var):
                return ListVal(items, walked)
            else:
                # Ill-typed tail; surfaces as a unification failure later.
                return ListVal(items, tail if isinstance(tail, Var) else None)
        return ListVal(items, None)

    # -- unification --------------------------------------------------------

    def unify(self, a: Value, b: Value) -> Optional[Value]:
        """Destructively unify two values; None on failure.

        On failure the caller is responsible for undoing via the trail
        mark it took beforehand.  The returned value preserves variable
        links so reentrant positions keep co-evolving.
        """
        if self.on_step is not None:
            self.on_step()
        a_chain, a = self._walk_chain(a)
        b_chain, b = self._walk_chain(b)
        if a is b and not isinstance(a, Overlay):
            if a_chain:
                return a_chain[0]
            return b_chain[0] if b_chain else a
        if isinstance(a, Var) and isinstance(b, Var):
            if a.tag != b.tag:
                self.bind(b.tag, a)
            return a
        if isinstance(a, Var):
            if self.occurs(a.tag, b):
                return None
            self.bind(a.tag, b)
            return a
        if isinstance(b, Var):
            if self.occurs(b.tag, a):
                return None
            self.bind(b.tag, a)
            return b

        merged = self._merge(a, b)
        if merged is None:
            return None
        # Rebind the variables we walked through so every reentrant
        # occurrence sees the merged value.
        result = merged
        for chain in (a_chain, b_chain):
            if chain:
                self.bind(chain[-1].tag, merged)
                result = chain[0]
        return result

    def _walk_chain(self, v: Value):
        chain = []
        while isinstance(v, Var) and v.tag in self.bindings:
            chain.append(v)
            v = self.bindings[v.tag]
        return chain, v

    def _merge(self, a: Value, b: Value) -> Optional[Value]:
        if isinstance(a, Overlay):
            a = self._force_overlay(a)
            if a is None:
                return None
        if isinstance(b, Overlay):
            b = self._force_overlay(b)
            if b is None:
                return None
        if isinstance(a, Overlay) or isinstance(b, Overlay):
            return self._merge_overlay(a, b)
        if isinstance(a, Atom) and isinstance(b, Atom):
            return a if a.name == b.name else None
        if isinstance(a, Avm) and isinstance(b, Avm):
            pairs = list(a.pairs)
            index = {f: i for i, (f, _) in enumerate(pairs)}
            for f, bv in b.pairs:
                if f in index:
                    u = self.unify(pairs[index[f]][1], bv)
                    if u is None:
                        return None
                    pairs[index[f]] = (f, u)
                else:
                    index[f] = len(pairs)
                    pairs.append((f, bv))
            return Avm(tuple(pairs))
        if isinstance(a, ListVal) and isinstance(b, ListVal):
            return self._merge_lists(a, b)
        return None

    def _force_overlay(self, o: Overlay):
        """Resolve an overlay whose rest variable is already bound."""
        rest = self.walk(o.rest)
        if isinstance(rest, Var):
            return o
        if not isinstance(rest, Avm):
            return None
        pairs = list(rest.pairs)
        index = {f: i for i, (f, _) in enumerate(pairs)}
        for f, v in o.over.pairs:
            if f in index:
                u = self.unify(pairs[index[f]][1], v)
                if u is None:
                    return None
                pairs[index[f]] = (f, u)
            else:
                index[f] = len(pairs)
                pairs.append((f, v))
        return Avm(tuple(pairs))

    def _merge_overlay(self, a: Value, b: Value) -> Optional[Value]:
        if isinstance(a, Overlay) and isinstance(b, Overlay):
            if a.rest.tag != b.rest.tag:
                return None  # independent rests: unsupported, treated as clash
            if sorted(a.over.features()) != sorted(b.over.features()):
                return None
            over = self._merge(a.over, b.over)
            if over is None:
                return None
            return Overlay(a.rest, over)
        o, other = (a, b) if isinstance(a, Overlay) else (b, a)
        if not isinstance(other, Avm):
            return None
        over_feats = set(o.over.features())
        merged_over = []
        for f, v in o.over.pairs:
            ov = other.get(f)
            if ov is ABSENT:
                merged_over.append((f, v))
            else:
                u = self.unify(v, ov)
                if u is None:
                    return None
                merged_over.append((f, u))
        remainder = other.without(over_feats)
        if self.occurs(o.rest.tag, remainder):
            return None
        self.bind(o.rest.tag, remainder)
        return Avm(remainder.pairs + tuple(merged_over))

    def _merge_lists(self, a: ListVal, b: ListVal) -> Optional[Value]:
        a = self._spread(a)
        b = self._spread(b)
        if len(a.items) > len(b.items):
            a, b = b, a
        merged = []
        for x, y in zip(a.items, b.items):
            u = self.unify(x, y)
            if u is None:
                return None
            merged.append(u)
        extra = b.items[len(a.items):]
        if extra:
            if a.tail is None:
                return None
            tail_val = ListVal(extra, b.tail)
            if any(self.occurs(a.tail.tag, x) for x in extra):
                return None
            if b.tail is not None and a.tail.tag == b.tail.tag:
                return None
            self.bind(a.tail.tag, tail_val)
            return ListVal(tuple(merged) + extra, b.tail)
        # equal item counts: reconcile tails
        if a.tail is None and b.tail is None:
            return ListVal(tuple(merged), None)
        if a.tail is None:
            self.bind(b.tail.tag, ListVal((), None))
            return ListVal(tuple(merged), None)
        if b.tail is None:
            self.bind(a.tail.tag, ListVal((), None))
            return ListVal(tuple(merged), None)
        if a.tail.tag != b.tail.tag:
            self.bind(b.tail.tag, a.tail)
        return ListVal(tuple(merged), a.tail)

    # -- resolution ---------------------------------------------------------

    def resolve(self, value: Value) -> Value:
        """Substitute all bindings, yielding a standalone value."""
        value = self.walk(value)
        if isinstance(value, (Atom, Var)):
            return value
        if isinstance(value, Avm):
            return Avm(tuple((f, self.resolve(v)) for f, v in value.pairs))
        if isinstance(value, ListVal):
            value = self._spread(value)
            items = tuple(self.resolve(v) for v in value.items)
            return ListVal(items, value.tail)
        if isinstance(value, Overlay):
            forced = self._force_overlay(value)
            if forced is None or isinstance(forced, Overlay):
                rest = self.walk(value.rest)
                rest = rest if isinstance(rest, Var) else Var(value.rest.tag)
                return Overlay(rest, self.resolve(value.over))
            return self.resolve(forced)
        raise TypeError(value)


# ---------------------------------------------------------------------------
# Pure operations.
# ---------------------------------------------------------------------------


def normalize(value: Value) -> Value:
    """Canonical form: features sorted, variables renamed by visit order."""
    seen: dict = {}

    def sort(v):
        if isinstance(v, Avm):
            return Avm(tuple(sorted(((f, sort(x)) for f, x in v.pairs))))
        if isinstance(v, ListVal):
            tail = v.tail
            return ListVal(tuple(sort(x) for x in v.items), tail)
        if isinstance(v, Overlay):
            return Overlay(v.rest, sort(v.over))
        return v

    def rename(v):
        if isinstance(v, Var):
            if v.tag not in seen:
                seen[v.tag] = Var(f"#{len(seen)}")
            return seen[v.tag]
        if isinstance(v, Avm):
            return Avm(tuple((f, rename(x)) for f, x in v.pairs))
        if isinstance(v, ListVal):
            tail = rename(v.tail) if v.tail is not None else None
            return ListVal(tuple(rename(x) for x in v.items), tail)
        if isinstance(v, Overlay):
            return Overlay(rename(v.rest), rename(v.over))
        return v

    return rename(sort(value))


def unify(a: Value, b: Value) -> Optional[Value]:
    """Least upper bound of two feature structures, or None on clash."""
    env = Env()
    a = env.instantiate(a, {})
    b = env.instantiate(b, {})
    result = env.unify(a, b)
    if result is None:
        return None
    return normalize(env.resolve(result))


def subsumes(a: Value, b: Value) -> bool:
    """True iff every piece of information in ``a`` is present in ``b``."""
    a = normalize(a)
    b = normalize(b)
    binding: dict = {}

    def match(x, y) -> bool:
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
                if yv is ABSENT or not match(xv, yv):
                    return False
            return True
        if isinstance(x, ListVal):
            if not isinstance(y, ListVal):
                return False
            if len(x.items) > len(y.items):
                return False
            for xv, yv in zip(x.items, y.items):
                if not match(xv, yv):
                    return False
            rest = y.items[len(x.items):]
            if x.tail is None:
                return not rest and y.tail is None
            return match(x.tail, ListVal(rest, y.tail))
        if isinstance(x, Overlay):
            return x == y
        return False

    return match(a, b)


def equal_modulo_renaming(a: Value, b: Value) -> bool:
    return normalize(a) == normalize(b)


def get(value: Value, path) -> object:
    """Value at a feature path, or ABSENT."""
    v = value
    for feature in path:
        if isinstance(v, Overlay):
            nxt = v.over.get(feature)
            if nxt is ABSENT:
                return ABSENT
            v = nxt
            continue
        if not isinstance(v, Avm):
            return ABSENT
        nxt = v.get(feature)
        if nxt is ABSENT:
            return ABSENT
        v = nxt
    return v


def put(value: Value, path, new: Value) -> Value:
    """Copy of ``value`` with the feature path set to ``new``.

    Intermediate records are created as needed; non-record positions on
    the way are an error.
    """
    if not path:
        return new
    f, rest = path[0], path[1:]
    if value is ABSENT:
        value = Avm(())
    if not isinstance(value, Avm):
        raise ValueError(f"cannot set feature {f!r} on non-record value")
    old = value.get(f)
    child = put(old if old is not ABSENT else ABSENT, rest, new)
    pairs = []
    replaced = False
    for g, v in value.pairs:
        if g == f:
            pairs.append((g, child))
            replaced = True
        else:
            pairs.append((g, v))
    if not replaced:
        pairs.append((f, child))
    return Avm(tuple(pairs))


def substructures(value: Value):
    """Every value reachable from the root, normalized, root first."""
    out = []
    seen = set()

    def visit(v):
        n = normalize(v)
        if n not in seen:
            seen.add(n)
            out.append(n)
        if isinstance(v, Avm):
            for _, x in v.pairs:
                visit(x)
        elif isinstance(v, ListVal):
            for x in v.items:
                visit(x)
            if v.tail is not None:
                visit(v.tail)
        elif isinstance(v, Overlay):
            visit(v.rest)
            for _, x in v.over.pairs:
                visit(x)

    visit(value)
    return out


def variables(value: Value) -> Iterator[Var]:
    if isinstance(value, Var):
        yield value
    elif isinstance(value, Avm):
        for _, v in value.pairs:
            yield from variables(v)
    elif isinstance(value, ListVal):
        for v in value.items:
            yield from variables(v)
        if value.tail is not None:
            yield value.tail
    elif isinstance(value, Overlay):
        yield value.rest
        yield from variables(value.over)


# ---------------------------------------------------------------------------
# Textual syntax.
# ---------------------------------------------------------------------------


class AvmSyntaxError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_PUNCT = "[]<>,:|.()"


def tokenize(text: str):
    """Yield (kind, text, line, column); % starts a line comment."""
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("->", i):
            yield ("arrow", "->", line, col)
            i += 2
            col += 2
        elif c in _PUNCT:
            yield ("punct", c, line, col)
            i += 1
            col += 1
        elif c == "#":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise AvmSyntaxError("bare '#'", line, col)
            yield ("tag", text[i:j], line, col)
            col += j - i
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise AvmSyntaxError("unterminated string", line, col)
                j += 1
            if j >= n:
                raise AvmSyntaxError("unterminated string", line, col)
            yield ("string", text[i + 1:j], line, col)
            col += j - i + 1
            i = j + 1
        elif c.isalnum() or c in "_+'-":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_+'-"):
                j += 1
            yield ("name", text[i:j], line, col)
            col += j - i
            i = j
        else:
            raise AvmSyntaxError(f"unexpected character {c!r}", line, col)
    yield ("eof", "", line, col)


class TokenStream:
    def __init__(self, tokens):
        self.tokens = list(tokens)
        self.pos = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            raise AvmSyntaxError(f"expected {want!r}, found {tok[1]!r}",
                                 tok[2], tok[3])
        return tok

    def error(self, message):
        tok = self.peek()
        raise AvmSyntaxError(message, tok[2], tok[3])


def _is_var_name(name: str) -> bool:
    return name == "_" or name[0].isupper()


def _merge_static(a: Value, b: Value, where) -> Value:
    """Merge two values written for the same feature in one record."""
    if isinstance(a, Avm) and isinstance(b, Avm):
        pairs = list(a.pairs)
        index = {f: i for i, (f, _) in enumerate(pairs)}
        for f, v in b.pairs:
            if f in index:
                pairs[index[f]] = (f, _merge_static(pairs[index[f]][1], v, where))
            else:
                index[f] = len(pairs)
                pairs.append((f, v))
        return Avm(tuple(pairs))
    if isinstance(a, Var) and isinstance(b, Avm):
        return Overlay(a, b)
    if isinstance(a, Avm) and isinstance(b, Var):
        return Overlay(b, a)
    if isinstance(a, Overlay) and isinstance(b, Avm):
        return Overlay(a.rest, _merge_static(a.over, b, where))
    if isinstance(a, Avm) and isinstance(b, Overlay):
        return Overlay(b.rest, _merge_static(a, b.over, where))
    if a == b:
        return a
    raise AvmSyntaxError(f"cannot merge repeated feature values", where[0], where[1])


class _Parser:
    """Recursive-descent parser for the textual AVM syntax."""

    def __init__(self, stream: TokenStream, fresh):
        self.stream = stream
        self.fresh = fresh

    def value(self) -> Value:
        kind, text, line, col = self.stream.peek()
        if kind == "punct" and text == "[":
            return self.record()
        if kind == "punct" and text == "<":
            return self.list_value()
        if kind == "tag":
            self.stream.next()
            return Var(text)
        if kind == "name":
            self.stream.next()
            if text == "_":
                return Var(f"_A{next(self.fresh)}")
            if _is_var_name(text):
                return Var(text)
            return Atom(text)
        self.stream.error("expected a value")

    def record(self) -> Avm:
        self.stream.expect("punct", "[")
        collected: list = []
        if not (self.stream.peek()[0] == "punct" and self.stream.peek()[1] == "]"):
            while True:
                where = self.stream.peek()[2:]
                path = self.feature_path()
                self.stream.expect("punct", ":")
                v = self.value()
                for feature in reversed(path[1:]):
                    v = Avm(((feature, v),))
                collected.append((path[0], v, where))
                if self.stream.peek()[0] == "punct" and self.stream.peek()[1] == ",":
                    self.stream.next()
                    continue
                break
        self.stream.expect("punct", "]")
        pairs: list = []
        index: dict = {}
        for f, v, where in collected:
            if f in index:
                pairs[index[f]] = (f, _merge_static(pairs[index[f]][1], v, where))
            else:
                index[f] = len(pairs)
                pairs.append((f, v))
        return Avm(tuple(pairs))

    def feature_path(self):
        path = [self.stream.expect("name")[1]]
        while (self.stream.peek()[0] == "punct" and self.stream.peek()[1] == "."
               and self.stream.peek(1)[0] == "name"):
            self.stream.next()
            path.append(self.stream.expect("name")[1])
        return path

    def list_value(self) -> ListVal:
        self.stream.expect("punct", "<")
        items = []
        tail = None
        if not (self.stream.peek()[0] == "punct" and self.stream.peek()[1] == ">"):
            items.append(self.value())
            while self.stream.peek()[0] == "punct" and self.stream.peek()[1] == ",":
                self.stream.next()
                items.append(self.value())
            if self.stream.peek()[0] == "punct" and self.stream.peek()[1] == "|":
                self.stream.next()
                t = self.value()
                if not isinstance(t, Var):
                    self.stream.error("list tail must be a variable")
                tail = t
        self.stream.expect("punct", ">")
        return ListVal(tuple(items), tail)


def parse_value(text: str) -> Value:
    """Parse a single value from the textual AVM syntax."""
    stream = TokenStream(tokenize(text))
    parser = _Parser(stream, itertools.count())
    v = parser.value()
    if stream.peek()[0] == "punct" and stream.peek()[1] == ".":
        stream.next()
    stream.expect("eof")
    return v


def render(value: Value) -> str:
    """Inverse of parse_value (modulo whitespace and variable names)."""
    if isinstance(value, Atom):
        return value.name
    if isinstance(value, Var):
        return value.tag if value.tag.startswith("#") or _is_var_name(value.tag) \
            else f"#{value.tag}"
    if isinstance(value, Avm):
        parts = []
        for f, v in value.pairs:
            if isinstance(v, Overlay):
                # emit as a repeated feature so the text round-trips
                parts.append(f"{f}: {render(v.rest)}")
                parts.append(f"{f}: {render(v.over)}")
            else:
                parts.append(f"{f}: {render(v)}")
        return "[" + ", ".join(parts) + "]"
    if isinstance(value, ListVal):
        inner = ", ".join(render(v) for v in value.items)
        if value.tail is not None:
            return f"<{inner} | {render(value.tail)}>"
        return f"<{inner}>"
    if isinstance(value, Overlay):
        # re-emittable as a repeated feature at the enclosing position;
        # standalone rendering shows both parts
        return f"{render(value.rest)} & {render(value.over)}"
    raise TypeError(value)
