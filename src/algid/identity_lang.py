"""A tiny language for polynomial identities on a nonassociative algebra.

Grammar (whitespace-insensitive)::

    identity := sum ("=" sum)?          missing right side means "= 0"
    sum      := ("-")? term (("+"|"-") term)*  |  "0"
    term     := INT? factor             an integer weight, never a product
    factor   := atom ("*" atom)?        "*" does not associate: a*b*c is an error
    atom     := NAME | "(" sum ")" | "[" sum "," sum ("," sum)? "]"
    atom     := atom "^2"               square, expands to atom*atom

Names are letters followed by letters, digits or primes (u, v', w2).  Brackets
of two arguments are commutators [a,b] = ab - ba, of three associators
[a,b,c] = (ab)c - a(bc).  A bare integer is only legal as the literal 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Tuple, Union

from .errors import IdentitySyntaxError, UnknownIdentity


class _Node:
    """A frozen tree node that hashes once, at construction.  A square shares
    its operand node, so hashing by walking the tree would take time
    exponential in the nesting; here it costs one tuple hash per node.

    Each subclass lists its fields, in constructor order, as its __slots__."""

    __slots__ = ("_hash",)

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError("%s takes %d fields, got %d"
                            % (type(self).__name__, len(self.__slots__), len(fields)))
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((type(self), *fields)))

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._fields() == other._fields()

    def __reduce__(self):
        # Rebuild through the constructor: string hashes differ per process.
        return type(self), self._fields()


class Var(_Node):
    __slots__ = ("name",)
    name: str


class Prod(_Node):
    __slots__ = ("left", "right")
    left: "Node"
    right: "Node"


class Comm(_Node):
    __slots__ = ("left", "right")
    left: "Node"
    right: "Node"


class Assoc(_Node):
    __slots__ = ("a", "b", "c")
    a: "Node"
    b: "Node"
    c: "Node"


class Sum(_Node):
    __slots__ = ("terms",)
    terms: Tuple[Tuple[int, "Node"], ...]


Node = Union[Var, Prod, Comm, Assoc, Sum]


class Identity(NamedTuple):
    name: str
    lhs: Sum
    rhs: Sum

    def render(self) -> str:
        return f"{render(self.lhs)} = {render(self.rhs) if self.rhs.terms else '0'}"


# -- parsing -------------------------------------------------------------------

# Bracket nesting allowed in parsed text (both parsers).  Deeper input is a
# syntax error rather than a RecursionError in the parser or in the tree
# walks after it.
MAX_NESTING = 100
# Operations one above another in a scalar expression, whose tree a flat
# chain such as 1+1+...+1 makes as deep as it is long.  Every walk of the
# tree takes at most two interpreter frames a level, so deeper text is a
# syntax error rather than a RecursionError in compiling or evaluating it.
MAX_DEPTH = 300
# Largest exponent in the scalar-expression language; powers are computed by
# repeated squaring, so this bounds their cost.
MAX_EXPONENT = 64
MAX_DIGITS = 4300


def tokenize(text: str, ops: str):
    """(position, kind, text) tokens: integers, names and the single-character
    operators in `ops`; any other non-space character is a syntax error."""
    toks, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":  # str.isdigit also takes other scripts' digits
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append((i, "int", text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "'"):
                j += 1
            toks.append((i, "name", text[i:j]))
            i = j
        elif ch in ops:
            toks.append((i, ch, ch))
            i += 1
        else:
            raise IdentitySyntaxError(i, f"unexpected character {ch!r}")
    return toks


def literal_int(tok) -> int:
    """An "int" token's value; by default Python's int() refuses more digits."""
    if len(tok[2]) > MAX_DIGITS:
        raise IdentitySyntaxError(tok[0], f"integer longer than {MAX_DIGITS} digits")
    return int(tok[2])


def _mk_sum(terms: List[Tuple[int, Node]]) -> Sum:
    return Sum(tuple((w, f) for w, f in terms if w != 0))


def _unwrap(s: Sum) -> Node:
    if len(s.terms) == 1 and s.terms[0][0] == 1:
        return s.terms[0][1]
    return s


class TokenCursor:
    """A position in the tokens of one text, shared by the parsers of both
    text languages (the identities here, the scalar expressions of
    `multipoly`): the next token, taking it, nesting within MAX_NESTING and
    the end of input, a token of kind "end" whose text is 'end of input'.
    `nesting` names what nests in the language's error message."""

    def __init__(self, text: str, ops: str, nesting: str):
        self.toks = tokenize(text, ops)
        self.end = (len(text), "end", "end of input")
        self.nesting = nesting
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else self.end

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[1] != kind:
            raise IdentitySyntaxError(tok[0], f"expected {kind!r}, got {tok[2]!r}")
        self.pos += 1
        return tok

    def nested(self, tok, parse):
        """parse() one level deeper than `tok`, within MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise IdentitySyntaxError(
                tok[0], f"{self.nesting} nested deeper than {MAX_NESTING} levels")
        node = parse()
        self.depth -= 1
        return node

    def finish(self, node):
        """`node`, parsed from the whole text: a token left over is an error."""
        tok = self.peek()
        if tok[1] != "end":
            raise IdentitySyntaxError(tok[0], f"trailing input {tok[2]!r}")
        return node


class _Parser(TokenCursor):
    def __init__(self, text: str):
        super().__init__(text, "+-*^=()[],", "brackets")

    def nested_sum(self, opener) -> Node:
        """A bracketed sub-sum; `opener` is the bracket's token."""
        return _unwrap(self.nested(opener, self.sum))

    def identity(self, name: str) -> Identity:
        lhs = self.sum()
        rhs = Sum(())
        if self.peek()[1] == "=":
            self.take()
            rhs = self.sum()
        return self.finish(Identity(name, lhs, rhs))

    def sum(self) -> Sum:
        terms: List[Tuple[int, Node]] = []
        sign = 1
        if self.peek()[1] == "-":
            self.take()
            sign = -1
        terms.append(self.term(sign))
        while self.peek()[1] in ("+", "-"):
            sign = 1 if self.take()[1] == "+" else -1
            terms.append(self.term(sign))
        if len(terms) == 1 and terms[0] == (0, None):
            return Sum(())
        if any(f is None for _, f in terms):
            raise IdentitySyntaxError(self.peek()[0], "a bare integer other than a lone 0 is not a term")
        return _mk_sum(terms)

    def term(self, sign: int) -> Tuple[int, Node]:
        weight = 1
        tok = self.peek()
        if tok[1] == "int":
            self.take()
            weight = literal_int(tok)
            if self.peek()[1] not in ("name", "(", "["):
                if weight == 0:
                    return (0, None)
                raise IdentitySyntaxError(tok[0], "integer weight must be followed by a factor")
        return (sign * weight, self.factor())

    def factor(self) -> Node:
        node = self.atom()
        if self.peek()[1] == "*":
            self.take()
            node = Prod(node, self.atom())
        tok = self.peek()
        if tok[1] == "*":
            raise IdentitySyntaxError(tok[0], "the product is not associative; add parentheses")
        if tok[1] in ("name", "(", "[", "int"):
            raise IdentitySyntaxError(tok[0], "adjacent factors need an explicit *")
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok[1] == "name":
            self.take()
            node: Node = Var(tok[2])
        elif tok[1] == "(":
            self.take()
            node = self.nested_sum(tok)
            self.take(")")
        elif tok[1] == "[":
            self.take()
            args = [self.nested_sum(tok)]
            self.take(",")
            args.append(self.nested_sum(tok))
            if self.peek()[1] == ",":
                self.take()
                args.append(self.nested_sum(tok))
            self.take("]")
            node = Comm(*args) if len(args) == 2 else Assoc(*args)
        else:
            raise IdentitySyntaxError(tok[0], f"expected a factor, got {tok[2]!r}")
        if self.peek()[1] == "^":
            self.take()
            etok = self.take("int")
            if etok[2] != "2":
                raise IdentitySyntaxError(etok[0], "only squares are defined without an association order")
            node = Prod(node, node)
        return node


def parse_identity(text: str, name: str = "") -> Identity:
    return _Parser(text).identity(name or text)


# -- rendering -----------------------------------------------------------------


def render(node: Node) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Prod):
        return f"{_atom_text(node.left)}*{_atom_text(node.right)}"
    if isinstance(node, Comm):
        return f"[{render(node.left)},{render(node.right)}]"
    if isinstance(node, Assoc):
        return f"[{render(node.a)},{render(node.b)},{render(node.c)}]"
    if isinstance(node, Sum):
        if not node.terms:
            return "0"
        parts = []
        for w, f in node.terms:
            mag = abs(w)
            body = _atom_text(f) if isinstance(f, Sum) else render(f)
            text = body if mag == 1 else f"{mag} {body}"
            if not parts:
                parts.append(("-" if w < 0 else "") + text)
            else:
                parts.append(("- " if w < 0 else "+ ") + text)
        return " ".join(parts)
    raise TypeError(f"not an identity node: {node!r}")


def _atom_text(node: Node) -> str:
    if isinstance(node, (Prod, Sum)):
        return f"({render(node)})"
    return render(node)


# -- structural queries ----------------------------------------------------------


def variables(node: Node) -> List[str]:
    """Variable names in order of first appearance."""
    out: List[str] = []
    _collect_variables(node, out)
    return out


def _collect_variables(n: Node, out: List[str]) -> None:
    if isinstance(n, Var):
        if n.name not in out:
            out.append(n.name)
    elif isinstance(n, Prod) or isinstance(n, Comm):
        _collect_variables(n.left, out)
        _collect_variables(n.right, out)
    elif isinstance(n, Assoc):
        _collect_variables(n.a, out)
        _collect_variables(n.b, out)
        _collect_variables(n.c, out)
    elif isinstance(n, Sum):
        for _, f in n.terms:
            _collect_variables(f, out)


def identity_variables(ident: Identity) -> List[str]:
    out = variables(ident.lhs)
    _collect_variables(ident.rhs, out)
    return out


Word = Union[Var, Prod]


def word_terms(node: Node) -> Dict[Word, int]:
    """Expand brackets and sums into a signed combination of plain words.

    Words are binary trees built from Var and Prod only; the result maps each
    word to its integer coefficient (zero coefficients dropped).
    """
    out: Dict[Word, int] = {}
    _add_words(node, 1, out)
    return out


def _add_word(out: Dict[Word, int], w: Word, c: int) -> None:
    n = out.get(w, 0) + c
    if n:
        out[w] = n
    else:
        out.pop(w, None)


def _add_words(n: Node, c: int, out: Dict[Word, int]) -> None:
    """Add c times the words of n to out."""
    if isinstance(n, Var):
        _add_word(out, n, c)
    elif isinstance(n, Prod):
        for lw, lc in word_terms(n.left).items():
            for rw, rc in word_terms(n.right).items():
                _add_word(out, Prod(lw, rw), c * lc * rc)
    elif isinstance(n, Comm):
        _add_words(Prod(n.left, n.right), c, out)
        _add_words(Prod(n.right, n.left), -c, out)
    elif isinstance(n, Assoc):
        _add_words(Prod(Prod(n.a, n.b), n.c), c, out)
        _add_words(Prod(n.a, Prod(n.b, n.c)), -c, out)
    elif isinstance(n, Sum):
        for w, f in n.terms:
            _add_words(f, c * w, out)
    else:
        raise TypeError(f"not an identity node: {n!r}")


def word_leaves(w: Word) -> Iterator[str]:
    if isinstance(w, Var):
        yield w.name
    else:
        yield from word_leaves(w.left)
        yield from word_leaves(w.right)


# -- the standard catalogue of identities ---------------------------------------

IDENTITY_TEXTS: Dict[str, str] = {
    "I1": "u*v = v*u",
    "I2": "u*v = -v*u",
    "I3": "(u*v)*w = u*(v*w)",
    "I4": "(u*v)*w = -u*(v*w)",
    "I5": "u^2*u = u*u^2",
    "I6": "[u,v]*w = w*[u,v]",
    "I7": "[u,v]*w = -w*[u,v]",
    "I8": "[u,v]*w = u*[v,w]",
    "I9": "[u,v]*w = -u*[v,w]",
    "I10": "u*(v*u) = (u*v)*u",
    "I11": "u*(v*u) = -(u*v)*u",
    "I12": "u*[v,u] = [u,v]*u",
    "I13": "u*[v,u] = -[u,v]*u",
    "I14": "u*(v*w) = (u*v)*w + v*(u*w)",
    "I15": "u*(v*w) = -(u*v)*w - v*(u*w)",
    "I16": "u*[v,w] = [u,v]*w + v*[u,w]",
    "I17": "u*[v,w] = -[u,v]*w - v*[u,w]",
    "I18": "(u*v)*w + (v*w)*u + (w*u)*v = 0",
    "I19": "(u*v)*u^2 = u*(v*u^2)",
    "I20": "(u*v)*u^2 = -u*(v*u^2)",
    "I21": "[u,v]*u^2 = u*[v,u^2]",
    "I22": "[u,v]*u^2 = -u*[v,u^2]",
    "I23": "((u*v)*w + (v*w)*u + (w*u)*v)*u = (u*v)*(u*w) + (v*(u*w))*u + ((u*w)*u)*v",
    "I24": "((u*v)*w + (v*w)*u + (w*u)*v)*u = -(u*v)*(u*w) - (v*(u*w))*u - ((u*w)*u)*v",
    "I25": "(u*v)*w = u*(v*w + w*v)",
    "I26": "(u*v)*w = -u*(v*w + w*v)",
    "I27": "[u,v,w] = [v,u,w]",
    "I28": "[u,v,w] = -[v,u,w]",
    "I29": "[u,v,w] = [w,v,u]",
    "I30": "[u,v,w] = -[w,v,u]",
    # derived expressions checked to vanish on particular algebras
    "comm-of-comms": "[[u,v],[u',v']]",
    "comm-times-comm": "[u,v]*[u',v']",
    "assoc-times-assoc": "[u,v,w]*[u',v',w']",
    "jacobi-left": "[u,v]*w + [v,w]*u + [w,u]*v",
    "jacobi-right": "w*[u,v] + u*[v,w] + v*[w,u]",
    "weighted-comm-mix": "2[u,v]*w + w*[u,v]",
    "assoc-cycle-minus": "[u,v,w] + [v,w,u] - [w,u,v]",
    "assoc-cycle-plus": "[u,v,w] + [v,w,u] + [w,u,v]",
    "left-assoc-word": "(u*v)*w",
    "right-assoc-word": "u*(v*w)",
}

NUMBERED_IDENTITIES = tuple(f"I{k}" for k in range(1, 31))


@lru_cache(maxsize=None)  # at most one entry per catalogued name
def get_identity(name: str) -> Identity:
    try:
        text = IDENTITY_TEXTS[name]
    except KeyError:
        raise UnknownIdentity(name) from None
    return parse_identity(text, name)
