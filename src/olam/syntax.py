"""Abstract syntax for the calculus: terms, type constructors, kinds.

Three levels share one node protocol (children/rebuild) so that paths,
substitution and alpha-equality are generic.  Each node class states its
shape once, in its decorator: its fields in order, the children among them
marked.  The children are read in field order, and the other fields are data
that equality and alpha-equality compare with ==.  Nodes are immutable by
convention, equal when their trees are, and hashable; equality, hashing and
repr take a node of any depth.  Probabilities are exact Fractions.  The
package's other records (tokens, oracle rules, steps, trust rows, ...) state
their fields the same way, in a @record decorator, and share Record's
equality, hash and repr.
"""
from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from itertools import chain
from operator import attrgetter

from .errors import ReductionError

Rational = Fraction

DEFAULT_FUEL = 100_000


class Fuel:
    """Shared step budget for one normalization or enumeration session."""

    def __init__(self, steps: int = DEFAULT_FUEL):
        self.left = steps

    def spend(self, units: int = 1) -> None:
        if self.left < units:
            raise ReductionError("FuelExhausted", "step budget exhausted")
        self.left -= units


# ---------------------------------------------------- node and record shapes
#
# A node class names its fields once, in its decorator, as in
# `@_node("var *var_type *body")`: a field marked * is a child, and one
# marked ? defaults to None.  Its children are its fields marked *, in field
# order, which is also printed order.  _node builds the class from them and
# enters it in the tables below; only the recorded computations, whose
# children sit in tuples, have entries written by hand.  A record class
# names its fields the same way, in `@record("guard output line?~")`, where
# a field marked ~ is one that equality, hash and repr leave out.

_CHILDREN: dict[type, Callable[[Node], tuple[Node, ...]]] = {}
_REBUILD: dict[type, Callable[[Node, tuple[Node, ...]], Node]] = {}
# the fields that are not children, compared with == by equality and
# alpha-equality; for evidence, also the shape its children are read in;
# for a record, the fields not marked ~
_DATA: dict[type, Callable[[Node], tuple]] = {}


def _getter(names: list[str]) -> Callable[[Node], tuple]:
    """The named fields of a node as a tuple."""
    if not names:
        return lambda node: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names)


def _rebuilder(
    cls: type, names: tuple[str, ...], kid_at: list[int]
) -> Callable[[Node, tuple[Node, ...]], Node]:
    if not kid_at:
        return lambda node, kids: node
    if len(kid_at) == len(names):
        return lambda node, kids: cls(*kids)
    every = attrgetter(*names)

    def make(node: Node, kids: tuple[Node, ...]) -> Node:
        args = list(every(node))
        for i, kid in zip(kid_at, kids):
            args[i] = kid
        return cls(*args)

    return make


def _slotted(cls: type, marked: list[str]) -> type:
    """cls rebuilt with the marked fields as its __slots__ and
    __match_args__ and an __init__ taking them in order, where a field
    marked ? defaults to None."""
    names = tuple(f.strip("*?~") for f in marked)
    ns = dict(vars(cls))
    del ns["__dict__"], ns["__weakref__"]  # the class gets slots instead
    if names:
        params = ", ".join(
            n + "=None" if "?" in f else n for f, n in zip(marked, names)
        )
        code = "".join([f"    self.{n} = {n}\n" for n in names])
        scope: dict = {}
        exec(f"def __init__(self, {params}):\n{code}", scope)
        ns["__init__"] = scope["__init__"]
        ns["__init__"].__qualname__ = f"{cls.__name__}.__init__"
    ns["__slots__"] = ns["__match_args__"] = names
    return type(cls.__name__, cls.__bases__, ns)


def _node(fields: str) -> Callable[[type], type]:
    """A decorator that rebuilds a node class from its fields and enters it
    in the shape tables."""

    def build(cls: type) -> type:
        marked = fields.split()
        cls = _slotted(cls, marked)
        names = cls.__match_args__
        kid_at = [i for i, f in enumerate(marked) if f[0] == "*"]
        _CHILDREN[cls] = _getter([names[i] for i in kid_at])
        _REBUILD[cls] = _rebuilder(cls, names, kid_at)
        _DATA[cls] = _getter([n for i, n in enumerate(names) if i not in kid_at])
        return cls

    return build


def record(fields: str) -> Callable[[type], type]:
    """A decorator that rebuilds a Record class from its fields; the fields
    not marked ~ are the ones it compares, hashes and shows."""

    def build(cls: type) -> type:
        marked = fields.split()
        cls = _slotted(cls, marked)
        cls._shown = tuple(f.strip("?") for f in marked if "~" not in f)
        _DATA[cls] = _getter(list(cls._shown))
        return cls

    return build


class Record:
    """A value of named fields, built by @record.  Equal to a record of its
    own class with equal fields, hashed by them, and shown as
    Name(field=value, ...)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        fields = _DATA[type(self)]
        return fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(_DATA[type(self)](self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__name__}({shown})"


class Node:
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        """Both trees have the same classes and data at every position; one
        walk, on an explicit stack."""
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            cls = type(a)
            if cls is not type(b) or _DATA[cls](a) != _DATA[cls](b):
                return False
            stack += zip(_CHILDREN[cls](a), _CHILDREN[cls](b))
        return True

    def __hash__(self) -> int:
        """The hash of the class and data of every node below, in one walk."""
        parts: list = []
        stack = [self]
        while stack:
            node = stack.pop()
            cls = type(node)
            parts += (cls, _DATA[cls](node))
            stack += _CHILDREN[cls](node)
        return hash(tuple(parts))

    def __str__(self) -> str:
        from . import printer

        return printer.show(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Term(Node):
    __slots__ = ()


class TypeCon(Node):
    __slots__ = ()


class Kind(Node):
    __slots__ = ()


# ---------------------------------------------------------------- terms


@_node("name")
class Var(Term):
    """Term variable (also signature constants declared with `atom n : T`)."""


@_node("oracle")
class OracleRef(Term):
    """Nullary oracle constant `#name`."""


@_node("oracle *arg")
class OracleCall(Term):
    """Unary oracle applied to an argument, `#name t`."""


@_node("var *var_type *body")
class Lam(Term):
    """Abstraction `\\x:T. t`; the annotation is outside the binder scope."""


@_node("*fun *arg")
class App(Term):
    pass


@_node("*left prob *right")
class Choice(Term):
    """Transparent probabilistic choice: left with probability prob, a
    Rational, right with 1-prob."""


@_node("*body")
class Force(Term):
    """Postfix `!`: forces a choice or an oracle computation to yield a value."""


@_node("*left *right")
class Pair(Term):
    pass


@_node("*pair index")
class Proj(Term):
    """Projection of component index, 0 or 1."""


@_node("*body *target")
class Efq(Term):
    """`efq(t : T)`: from absurdity t, any quantifier-free type T."""


# A step's label: the path of the redex it fires and the rule it takes
# (beta, proj, left, right or oracle).
StepLabel = tuple[tuple[int, ...], str]


@_node("steps prob? labels?")
class TraceTerm(Term):
    """Recorded computation [t1, ..., tn]: the produced term sequence of one
    reduction path, a tuple.  prob None means the probability is not yet
    derived.

    labels, one StepLabel per step, are a hint for the checker, which
    verifies them; they are never printed, and equality and alpha-equality
    ignore them."""


@_node("source branches target prob? labels?")
class MergeTerm(Term):
    """Recorded merge [t, [k1 / ... / kn], s]: several reduction paths from t
    to s; each branch, a tuple, holds the intermediate terms only.  labels,
    when present, hold one step label tuple per branch, as for TraceTerm."""


# ------------------------------------------------------- type constructors


@_node("name")
class TypeName(TypeCon):
    """Atomic constructor declared in the signature."""


@_node("var *var_type *body")
class TypeAbs(TypeCon):
    """Constructor-level abstraction `\\\\x:T. phi` over a term variable."""


@_node("*con *arg")
class TypeApp(TypeCon):
    """Constructor applied to a term argument."""


@_node("var *var_type *body")
class Forall(TypeCon):
    pass


@_node("*body")
class ChoiceType(TypeCon):
    """Type of transparent probabilistic choices over the body type."""


@_node("*body")
class OpaqueType(TypeCon):
    """Type of opaque oracle computations yielding the body type."""


@_node("*left *right")
class Conj(TypeCon):
    pass


@_node("")
class Bottom(TypeCon):
    pass


# ---------------------------------------------------------------- kinds


@_node("")
class Star(Kind):
    pass


@_node("var *var_type *body")
class KindPi(Kind):
    """Kind of constructors abstracting over a term of the annotated type."""


# A binder node owns exactly one bound name; the annotation sits outside it.
# All four share the field layout (var, var_type, body).
BINDERS = (Lam, TypeAbs, Forall, KindPi)
assert all(b.__match_args__ == ("var", "var_type", "body") for b in BINDERS)


def _merge_rebuild(node: MergeTerm, kids: tuple[Node, ...]) -> MergeTerm:
    out: list[tuple[Term, ...]] = []
    i = 1
    for br in node.branches:
        out.append(tuple(kids[i : i + len(br)]))
        i += len(br)
    return MergeTerm(kids[0], tuple(out), kids[i], node.prob)


# the recorded computations' children sit in tuples, so their entries are
# written by hand
_CHILDREN[TraceTerm] = attrgetter("steps")
_CHILDREN[MergeTerm] = lambda node: (node.source, *chain(*node.branches), node.target)
# rebuilt evidence drops its labels, which named the redexes of the old terms
_REBUILD[TraceTerm] = lambda node, kids: TraceTerm(tuple(kids), node.prob)
_REBUILD[MergeTerm] = _merge_rebuild
_DATA[TraceTerm] = lambda node: (node.prob, len(node.steps))
_DATA[MergeTerm] = lambda node: (node.prob, tuple(map(len, node.branches)))


def children(node: Node) -> tuple[Node, ...]:
    """Child nodes in printed order; the basis for paths and traversal."""
    get = _CHILDREN.get(type(node))
    if get is None:
        raise TypeError(f"unknown node {type(node).__name__}")
    return get(node)


def rebuild(node: Node, kids: tuple[Node, ...]) -> Node:
    """The node with its children replaced, in the order children gives."""
    make = _REBUILD.get(type(node))
    if make is None:
        raise TypeError(f"unknown node {type(node).__name__}")
    return make(node, kids)


# ---------------------------------------------------------------- walks
#
# Every walk runs in one Python frame, on an explicit stack or list, so it
# takes a node of any depth: subnodes for the folds, rewrite for the rebuilds.


def subnodes(node: Node) -> list[Node]:
    """node and every node below it, each after its parent, for the folds
    that need no order."""
    nodes = [node]
    for n in nodes:  # the loop reads the children it appends
        nodes += children(n)
    return nodes


def rewrite(node: Node, ctx, enter: Callable, leave: Callable | None = None) -> Node:
    """node rebuilt top-down by enter and bottom-up by leave; an unchanged
    subtree comes back as the same object.

    enter(node, ctx) returns a node to stand in node's place, which is not
    walked; or None, to walk node's children under ctx; or a tuple of
    contexts, one per child.  leave, if given, maps each walked node once
    its children are rebuilt."""
    got = enter(node, ctx)
    if got is not None and type(got) is not tuple:
        return got
    kids = children(node)
    if not kids:
        return node if leave is None else leave(node)
    # the frames above the current node: (node, kids, contexts, ctx, new, i)
    stack: list[tuple] = []
    ctxs, new, i = got, None, 0
    while True:
        if i < len(kids):
            kid = kids[i]
            i += 1
            kid_ctx = ctx if ctxs is None else ctxs[i - 1]
            got = enter(kid, kid_ctx)
            if got is None or type(got) is tuple:
                below = children(kid)
                if below:
                    stack.append((node, kids, ctxs, ctx, new, i))
                    node, kids, ctxs, ctx, new, i = kid, below, got, kid_ctx, None, 0
                    continue
                got = kid if leave is None else leave(kid)
        else:
            got = node if new is None else rebuild(node, tuple(new))
            if leave is not None:
                got = leave(got)
            if not stack:
                return got
            kid = node
            node, kids, ctxs, ctx, new, i = stack.pop()
        if got is not kid:
            if new is None:
                new = list(kids)
            new[i - 1] = got


def free_term_vars(node: Node) -> frozenset[str]:
    """The term variables free in node.  A binder's name is pushed above
    its annotation and below its body: popping it closes the scope, and the
    annotation, outside the scope, is read after."""
    free: set[str] = set()
    bound: dict[str, int] = {}
    stack: list[Node | str] = [node]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Var:
            if not bound.get(node.name):  # type: ignore[union-attr]
                free.add(node.name)  # type: ignore[union-attr]
        elif cls is str:
            bound[node] -= 1  # type: ignore[index]
        elif cls in BINDERS:
            x = node.var  # type: ignore[union-attr]
            bound[x] = bound.get(x, 0) + 1
            stack += (node.var_type, x, node.body)  # type: ignore[union-attr]
        else:
            stack += children(node)  # type: ignore[arg-type]
    return frozenset(free)


def oracle_names(node: Node) -> frozenset[str]:
    oracles = (OracleRef, OracleCall)
    return frozenset([n.oracle for n in subnodes(node) if type(n) in oracles])  # type: ignore


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


# ----------------------------------------------------------- substitution


def substitute(node: Node, name: str, replacement: Term) -> Node:
    """Capture-avoiding substitution of a term for a free term variable, at
    any of the three levels."""
    return substitute_all(node, {name: replacement})


def substitute_all(
    node: Node,
    mapping: dict[str, Term],
    free_names: dict[str, frozenset[str]] | None = None,
) -> Node:
    """Capture-avoiding substitution of each name in mapping by its term,
    in one walk of node: the same tree, binder names included, as
    substituting the entries one at a time in mapping order, provided no
    replacement has a later entry's name free.  The replacements are
    spliced in, not walked, and a subtree where nothing changed is
    returned as the same object.  free_names, when the caller knows them,
    maps each entry's name to its replacement's free names; otherwise they
    are read from the replacements at the first binder that needs them.

    A binder is renamed only where substitution of one entry would rename
    it: where its name is free in that entry's replacement and the entry's
    name is free in its body.  So the walk passes every other binder on
    its one stack.  At a binder to rename it takes the entries in order,
    renames the binder where one of them would, and substitutes each run of
    entries between two renamings in one nested walk of the body."""
    # the union of the replacements' free names, read at the first binder:
    # a binder-free node never walks a replacement
    free: frozenset[str] | None = None

    def enter(node: Node, names: dict[str, Term]) -> object:
        # the substitution rule at one node, under the entries in scope there
        nonlocal free, free_names
        cls = type(node)
        if cls is Var:
            return names.get(node.name, node)  # type: ignore[attr-defined]
        if not names:
            return node
        if cls not in BINDERS:
            return None
        x = node.var  # type: ignore[attr-defined]
        if free is None:
            if free_names is None:
                free_names = {n: free_term_vars(r) for n, r in mapping.items()}
            free = frozenset().union(*free_names.values())
        if x in free:
            b, below = node.body, set(free_term_vars(node.body))  # type: ignore[attr-defined]
            if any(x in free_names[n] for n in names if n != x and n in below):
                # an entry would capture x
                run: dict[str, Term] = {}
                for n, r in names.items():
                    if n == x or n not in below:
                        continue  # shadowed, or not free: it changes nothing
                    replaced = free_names[n]
                    if x in replaced:
                        b, run = rewrite(b, run, enter), {}
                        fresh = fresh_name(x, replaced | below)
                        if x in below:
                            b = substitute(b, x, Var(fresh))
                            below.discard(x)
                            below.add(fresh)
                        x = fresh
                    run[n] = r
                    below.discard(n)
                    below |= replaced
                a = rewrite(node.var_type, names, enter)  # type: ignore[attr-defined]
                return cls(x, a, rewrite(b, run, enter))
        if x in names:
            return names, {n: r for n, r in names.items() if n != x}
        return None

    return rewrite(node, mapping, enter)


# --------------------------------------------------------- alpha-equality


def alpha_eq(a: Node, b: Node) -> bool:
    """Each pair on the stack carries same: every binder pair above binds
    one name on both sides, so one shared subterm means the same on both.
    A binder pair numbers its names in the two binder maps; an item pushed
    between its body and its annotation restores their outer numbers."""
    env_a: dict[str, int | None] = {}
    env_b: dict[str, int | None] = {}
    binders = 0
    stack: list[tuple] = [(a, b, True)]
    while stack:
        a, b, same = stack.pop()
        cls = type(a)
        if cls is str:  # a restore item: two names, and same their numbers
            env_a[a], env_b[b] = same  # type: ignore[index]
        elif a is b and same:
            continue
        elif cls is not type(b):
            return False
        elif cls is Var:
            n, m = a.name, b.name  # type: ignore[attr-defined]
            ia = env_a.get(n)
            if ia != env_b.get(m) or (ia is None and n != m):
                return False
        elif cls in BINDERS:
            # binders share one field layout, so b reads like a
            x, y = a.var, b.var  # type: ignore[attr-defined]
            stack.append((a.var_type, b.var_type, same))  # type: ignore[attr-defined]
            stack.append((x, y, (env_a.get(x), env_b.get(y))))
            binders += 1
            env_a[x] = env_b[y] = binders
            stack.append((a.body, b.body, same and x == y))  # type: ignore[attr-defined]
        else:
            data = _DATA[cls]
            if data(a) != data(b):
                return False
            stack += [(u, v, same) for u, v in zip(children(a), children(b))]
    return True


# -------------------------------------------------------------- contexts


def hole_var(index: int) -> Var:
    """Context hole index as a term variable.  `[_i]` is not an identifier,
    so no parsed name and no fresh_name result is spelled that way."""
    return Var(f"[_{index}]")


@record("skeleton count _fingerprint?~")
class HoleContext(Record):
    """A term whose holes 1..count, the variables hole_var(i), stand at the
    extracted redex positions.  Two are equal when their skeletons and
    counts are; _fingerprint caches the fingerprint."""

    @property
    def fingerprint(self) -> str:
        """Printed skeleton after canonical bound renaming, holes as [_i];
        printed on first use only."""
        if self._fingerprint is None:
            from . import printer

            self._fingerprint = printer.term_key(self.skeleton)
        return self._fingerprint

    def fill(self, contents: dict[int, Term]) -> Term:
        """The skeleton with hole i substituted by contents[i], in index
        order.  Substituting all holes in one walk is sound because no
        content has a hole free: a binder is renamed only where a hole below
        it has the binder's name free in its own content."""
        holes = {hole_var(i).name: contents[i] for i in range(1, self.count + 1)}
        return substitute_all(self.skeleton, holes)  # type: ignore[return-value]


def forced_oracle_form(t: Term) -> tuple[str, Term | None] | None:
    """Oracle name and argument when t is a forced oracle, else None."""
    match t:
        case Force(OracleRef(o)):
            return o, None
        case Force(OracleCall(o, arg)):
            return o, arg
    return None


def decompose_oracle_context(
    t: Term, oracle: str
) -> tuple[HoleContext, tuple[Term | None, ...]]:
    """Extract every outermost forced redex of the oracle, numbering holes
    1..n in left-to-right preorder: the context, and each hole's argument
    (None for the nullary form).  fill() with the original redexes gives t
    back when none of them has free a name bound around it.  A variable or
    binder the walk meets spelled like a hole, with hole_var's `[_` prefix,
    raises ReductionError ReservedName, and so does such a free variable of
    a type annotation or recorded computation, which the walk passes over
    whole but fill substitutes in."""
    args: list[Term | None] = []

    def enter(node: Node, _) -> object:
        cls = type(node)
        if cls is Force:
            form = forced_oracle_form(node)  # type: ignore[arg-type]
            if form is not None and form[0] == oracle:
                args.append(form[1])
                return hole_var(len(args))
            return None  # walk the children
        if cls is Var or cls is Lam:
            name = node.name if cls is Var else node.var  # type: ignore[attr-defined]
            names, passed = (name,), None
        elif isinstance(node, (TypeCon, TraceTerm, MergeTerm)):
            names, passed = free_term_vars(node), node
        else:
            return None
        for name in names:
            if name.startswith("[_"):
                raise ReductionError("ReservedName", f"{name} is spelled like a hole")
        return passed

    skeleton = rewrite(t, None, enter)
    return HoleContext(skeleton, len(args)), tuple(args)  # type: ignore[arg-type]


# ---------------------------------------------------------------- tuples


def make_tuple(parts: list[Term]) -> Term:
    """Right-nested n-tuple; a 1-tuple is the term itself."""
    if not parts:
        raise ValueError("empty tuple")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Pair(p, out)
    return out


def pair_spine(t: Term) -> list[Term]:
    """Maximal unfolding of a right-nested tuple."""
    parts: list[Term] = []
    while isinstance(t, Pair):
        parts.append(t.left)
        t = t.right
    parts.append(t)
    return parts


def tuple_components(t: Term, n: int) -> list[Term]:
    """Unfold a right-nested tuple into exactly n components."""
    parts: list[Term] = []
    for _ in range(n - 1):
        if not isinstance(t, Pair):
            raise ValueError(f"not an {n}-tuple")
        parts.append(t.left)
        t = t.right
    parts.append(t)
    return parts
