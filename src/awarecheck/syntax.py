"""Formula language: AST, concrete grammar, and substitution operators.

Core connectives are Top, Prop, Var, Not, And, the modal operators K/A/X and
the propositional quantifier Forall.  Everything else (Or, Implies, Iff,
Exists, AStar, APrime) is sugar that is erased at construction time, so a
single evaluator suffices downstream.
"""

import re
import weakref
from _weakref import _remove_dead_weakref

__all__ = [
    "Formula", "Top", "TOP", "Prop", "Var", "Not", "And", "K", "A", "X",
    "Forall", "Or", "Implies", "Iff", "Exists", "AStar", "APrime",
    "ParseError", "parse", "pretty", "vocabulary", "free_vars", "bound_vars",
    "is_sentence", "is_quantifier_free", "subformulas", "subst_var",
    "subst_prop", "swap_props", "map_props",
]

# (class, *fields) -> weak reference to the node of that formula.  An entry
# leaves with its node; its key holds the node's children, as the node does.
_TABLE = {}
_set = object.__setattr__
_EMPTY = frozenset()


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _drop(ref):
    _remove_dead_weakref(_TABLE, ref.key)  # only a dead entry, atomically


class Formula:
    """Base class for AST nodes.  Constructors return one shared node per
    formula, so `is` and `==` agree and hashing is by identity; building
    formulas is thread-safe.  Nodes are immutable and carry their
    vocabulary (vocab) and free variables (fvars) as frozensets of names;
    str() gives their concrete syntax."""

    __slots__ = ("vocab", "fvars", "__weakref__")

    def __new__(cls, *fields):
        key = cls, *fields
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is not None:
            return node
        node = object.__new__(cls)
        vocab, fvars = node._init(*fields)
        _set(node, "vocab", vocab)
        _set(node, "fvars", fvars)
        ref = _Ref(node, _drop)
        ref.key = key
        # one atomic insertion decides between threads building the same
        # formula; a dead entry whose callback has not run yet is replaced
        while (got := _TABLE.setdefault(key, ref)) is not ref:
            if (other := got()) is not None:
                return other
            _remove_dead_weakref(_TABLE, key)
        return node

    def _init(self):
        """Sets the node's fields; returns its (vocab, fvars)."""
        return _EMPTY, _EMPTY

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the table
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__,
                           ", ".join(map(repr, self.__reduce__()[1])))

    def __str__(self):
        return pretty(self)


class Top(Formula):
    """The vacuously true constant (the empty conjunction)."""

    __slots__ = _fields = ()


class Prop(Formula):
    __slots__ = _fields = ("name",)

    def _init(self, name):
        _set(self, "name", name)
        return frozenset((name,)), _EMPTY


class Var(Formula):
    __slots__ = _fields = ("name",)

    def _init(self, name):
        _set(self, "name", name)
        return _EMPTY, frozenset((name,))


class Not(Formula):
    __slots__ = _fields = ("body",)

    def _init(self, body):
        _set(self, "body", body)
        return body.vocab, body.fvars


class And(Formula):
    __slots__ = _fields = ("left", "right")

    def _init(self, left, right):
        _set(self, "left", left)
        _set(self, "right", right)
        return _union(left.vocab, right.vocab), _union(left.fvars, right.fvars)


def _union(s, t):
    """s | t, as s or t itself where it holds the other."""
    return s if t <= s else t if s <= t else s | t


class _Modal(Formula):
    __slots__ = _fields = ("agent", "body")

    def __new__(cls, agent, body):
        # interning keys on field values, and True == 1 == 1.0: only an
        # exact int, or a str in a schema pattern, names an agent
        if type(agent) is not int and type(agent) is not str:
            raise TypeError(f"agent must be an int or a str, not {agent!r}")
        return Formula.__new__(cls, agent, body)

    def _init(self, agent, body):
        _set(self, "agent", agent)
        _set(self, "body", body)
        return body.vocab, body.fvars


# the modal operators: one node class each, over the same fields
K, A, X = (type(op, (_Modal,), {"__slots__": ()}) for op in "KAX")


class Forall(Formula):
    __slots__ = _fields = ("var", "body")

    def _init(self, var, body):
        _set(self, "var", var)
        _set(self, "body", body)
        return body.vocab, body.fvars - {var}


TOP = Top()


# Derived connectives, desugared on construction.

def Or(left, right):
    return Not(And(Not(left), Not(right)))


def Implies(left, right):
    return Or(Not(left), right)


def Iff(left, right):
    return And(Implies(left, right), Implies(right, left))


def Exists(var, body):
    return Not(Forall(var, Not(body)))


def AStar(agent, body):
    """K_i(phi | !phi): phi is defined at every world agent i considers possible."""
    return K(agent, Or(body, Not(body)))


def APrime(agent, body):
    """K_i phi | K_i !K_i phi, the MR/HMS-style defined awareness operator."""
    return Or(K(agent, body), K(agent, Not(K(agent, body))))


def _children(f):
    """The immediate subformulas of f, left to right."""
    if isinstance(f, And):
        return f.left, f.right
    return (f.body,) if hasattr(f, "body") else ()


def _rebuild(f, sub, *args):
    """f with each immediate subformula g replaced by sub(g, *args); a body
    is its node's last field."""
    if isinstance(f, And):
        return And(sub(f.left, *args), sub(f.right, *args))
    if not hasattr(f, "body"):
        return f
    cls, fields = f.__reduce__()
    return cls(*fields[:-1], sub(f.body, *args))


def subformulas(f):
    """Yields f and every subformula, preorder."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(_children(g)))


def vocabulary(f):
    """The set of primitive propositions occurring in f.  Variables and Top
    contribute nothing."""
    return f.vocab


def free_vars(f):
    return f.fvars


def bound_vars(f):
    return frozenset(g.var for g in subformulas(f) if isinstance(g, Forall))


def is_sentence(f):
    return not f.fvars


def is_quantifier_free(f):
    return not any(isinstance(g, Forall) for g in subformulas(f))


def _replacement(psi):
    """psi, which must be a quantifier-free sentence."""
    if not isinstance(psi, Formula):
        raise TypeError("replacement must be a formula")
    if not is_quantifier_free(psi):
        raise ValueError("replacement must be quantifier-free")
    if psi.fvars:
        raise ValueError("replacement must be a sentence")
    return psi


def subst_var(f, x, psi):
    """f[x/psi]: replace free occurrences of the variable x by psi.

    psi must be a quantifier-free sentence (the quantifier domain), which
    rules out capture.
    """
    return _subst_var(f, x, _replacement(psi))


def _subst_var(f, x, psi):
    if x not in f.fvars:
        return f
    return psi if isinstance(f, Var) else _rebuild(f, _subst_var, x, psi)


def map_props(f, mapping):
    """Replace every occurrence of each proposition p by mapping[p].

    Values may be propositions (renaming) or arbitrary formulas; propositions
    are never bound, so this is plain textual replacement.
    """
    if f.vocab.isdisjoint(mapping):
        return f
    if isinstance(f, Prop):
        g = mapping[f.name]
        return g if isinstance(g, Formula) else Prop(g)
    return _rebuild(f, map_props, mapping)


def subst_prop(f, q, psi):
    """f[q/psi]: replace every occurrence of the proposition q by psi.

    psi must be a quantifier-free sentence.
    """
    return map_props(f, {q: _replacement(psi)})


def swap_props(f, p, p2):
    """Exchange the propositions p and p2 throughout f.  An involution."""
    return map_props(f, {p: p2, p2: p})


# --- concrete syntax -------------------------------------------------------
#
# true | p | #x | !f | f & f | f "|" f | f -> f | f <-> f
# K1 f | A1 f | X1 f | Astar1 f | Aprime1 f
# forall #x . f | exists #x . f | ( f )
#
# Precedence: unary > & > | > -> (right assoc) > <->.  A quantifier may start
# any operand and its body extends maximally to the right.

class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<modal>(Astar|Aprime|K|A|X)(\d+))"
    r"|(?P<var>\#[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<ident>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<op><->|->|[!&|().])"
    r")"
)

_KEYWORDS = ("true", "forall", "exists")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             pos + len(text[pos:]) - len(stripped))
        if m.group("modal"):
            tokens.append(("modal", (m.group(2), int(m.group(3))), m.start(1)))
        elif m.group("var"):
            tokens.append(("var", m.group("var")[1:], m.start("var")))
        elif m.group("ident"):
            word = m.group("ident")
            kind = "kw" if word in _KEYWORDS else "prop"
            tokens.append((kind, word, m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, n_agents):
        self.tokens = tokens
        self.i = 0
        self.n_agents = n_agents

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def expr(self):
        f = self.implies()
        while self.peek()[:2] == ("op", "<->"):
            self.next()
            f = Iff(f, self.implies())
        return f

    def implies(self):
        f = self.disj()
        if self.peek()[:2] == ("op", "->"):
            self.next()
            return Implies(f, self.implies())
        return f

    def disj(self):
        f = self.conj()
        while self.peek()[:2] == ("op", "|"):
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek()[:2] == ("op", "&"):
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "!":
            self.next()
            return Not(self.unary())
        if kind == "modal":
            self.next()
            op, agent = value
            if agent < 1 or (self.n_agents is not None and agent > self.n_agents):
                raise ParseError(f"agent index {agent} out of range", pos)
            body = self.unary()
            ctor = {"K": K, "A": A, "X": X, "Astar": AStar, "Aprime": APrime}[op]
            return ctor(agent, body)
        if kind == "kw" and value in ("forall", "exists"):
            return self.quantified()
        return self.primary()

    def quantified(self):
        kind, value, pos = self.next()
        vkind, vname, vpos = self.next()
        if vkind != "var":
            raise ParseError("expected a #variable after quantifier", vpos)
        self.expect_op(".")
        body = self.expr()
        return Forall(vname, body) if value == "forall" else Exists(vname, body)

    def primary(self):
        kind, value, pos = self.next()
        if kind == "kw" and value == "true":
            return TOP
        if kind == "prop":
            return Prop(value)
        if kind == "var":
            return Var(value)
        if kind == "op" and value == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text, n_agents=None):
    """Parses text to a (desugared) Formula.

    n_agents, when given, bounds the agent indices accepted in modal
    operators.  Raises ParseError for malformed input and for nesting too
    deep for the recursive descent (about a thousand prefix operators).
    """
    parser = _Parser(_tokenize(text), n_agents)
    try:
        f = parser.expr()
    except RecursionError:
        raise ParseError("formula nested too deeply to parse", 0) from None
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting with {value!r}", pos)
    return f


def pretty(f):
    """Prints f using base connectives only; parse(pretty(f)) is f."""
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Var):
        return "#" + f.name
    if isinstance(f, (Not, K, A, X)):
        op = "!" if isinstance(f, Not) else f"{type(f).__name__}{f.agent} "
        body = pretty(f.body)
        return op + ("(%s)" % body if isinstance(f.body, (And, Forall))
                     else body)
    if isinstance(f, And):
        left = "(%s)" if isinstance(f.left, Forall) else "%s"
        right = "(%s)" if isinstance(f.right, (And, Forall)) else "%s"
        return f"{left} & {right}" % (pretty(f.left), pretty(f.right))
    if isinstance(f, Forall):
        return f"forall #{f.var} . {pretty(f.body)}"
    raise TypeError(f"not a formula: {f!r}")
