"""Abstract syntax, parser, and pretty-printer for pGCL programs.

The concrete grammar (comments run from '#' to end of line):

    program := stmt (";" stmt)*
    stmt    := "skip" | "exit" | "bot" | IDENT ":=" aexpr
             | "while" "(" bexpr ")" "{" program "}"
             | "if" "(" bexpr ")" "{" program "}" ("else" "{" program "}")?
             | "{" program "}" "[]" "{" program "}"
             | "{" program "}" "<" aexpr ">" "{" program "}"
    aexpr   := rational | IDENT | "-" aexpr | aexpr ("+"|"-"|"*") aexpr
             | "(" aexpr ")"
    rational:= INT ("/" INT)?
    bexpr   := "true" | "false" | aexpr cmp aexpr | "not" bexpr
             | bexpr ("and"|"or") bexpr | "(" bexpr ")"
    cmp     := "=" | "!=" | "<" | "<=" | ">" | ">="

"bot" is the empty program (the terminal residue of execution); it is
accepted so that every run-time program term, not just source programs,
survives a print/parse round trip.

Statement sequences are right-nested, so structural equality of parsed
terms is well defined.  Probabilities in a probabilistic choice are
arithmetic expressions evaluated at run time; rational literals are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Union

# CPython's default limit on the digits of an int converted from or to text
# (sys.int_info.default_max_str_digits); longer literals are refused.
MAX_DIGITS = 4300

# Field annotations of the values in a term that are not terms themselves.
_ATOMS = ("str", "bool", "Fraction")


def _term(cls):
    """A frozen dataclass whose structural hash, and (for a program node
    other than Seq) whose printed text, are computed at most once and kept
    on the node: the memo half of hash-consing (Filliâtre and Conchon,
    "Type-Safe Modular Hash-Consing", ML Workshop 2006).  A program node
    also keeps the step plan semantics computes for it (`_plan`).

    The hash is that of the field tuple, as the generated dataclass hash
    is, so every dict and set keeps its order.  Its first computation
    recurses one Python frame per level of the term, as that one does.
    The names of the fields that hold terms are kept on the class, in
    declaration order (`_term_fields`)."""
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(tuple([getattr(self, name) for name in names]))
            object.__setattr__(self, "_hash", value)
        return value

    cls.__hash__ = __hash__
    cls._term_fields = tuple(f.name for f in fields(cls)
                             if f.type not in _ATOMS)
    cls._hash = None
    cls._text = None
    cls._plan = None
    return cls


# ---------------------------------------------------------------------------
# Arithmetic and boolean expressions
# ---------------------------------------------------------------------------

@_term
class RatLit:
    value: Fraction

    def __repr__(self):
        return f"RatLit({self.value})"


@_term
class Var:
    name: str


@_term
class Neg:
    operand: "AExpr"


@_term
class ABin:
    op: str  # '+', '-', '*'
    left: "AExpr"
    right: "AExpr"


AExpr = Union[RatLit, Var, Neg, ABin]


@_term
class BoolLit:
    value: bool


@_term
class Cmp:
    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: AExpr
    right: AExpr


@_term
class Not:
    operand: "BExpr"


@_term
class BBin:
    op: str  # 'and', 'or'
    left: "BExpr"
    right: "BExpr"


BExpr = Union[BoolLit, Cmp, Not, BBin]


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

@_term
class Empty:
    """The empty program: execution has nothing left to do."""


@_term
class Skip:
    pass


@_term
class Exit:
    pass


@_term
class Assign:
    var: str
    expr: AExpr


@_term
class Seq:
    first: "Program"
    rest: "Program"


@_term
class ProbChoice:
    left: "Program"
    prob: AExpr
    right: "Program"


@_term
class NondetChoice:
    left: "Program"
    right: "Program"


@_term
class While:
    guard: BExpr
    body: "Program"


@_term
class If:
    guard: BExpr
    then: "Program"
    orelse: "Program"


Program = Union[Empty, Skip, Exit, Assign, Seq, ProbChoice, NondetChoice, While, If]

EMPTY = Empty()
SKIP = Skip()
EXIT = Exit()


def term_fields(term) -> list:
    """(name, value) for each field of a term that holds a term."""
    return [(name, getattr(term, name)) for name in term._term_fields]


def subterms(term):
    """Yield a term and every term below it, parents before children and
    left before right.  The walk keeps its own stack, so a program of any
    length or nesting is walked without recursion."""
    stack = [term]
    while stack:
        term = stack.pop()
        yield term
        stack.extend([getattr(term, name)
                      for name in reversed(term._term_fields)])


def seq_of(stmts) -> Program:
    """Right-nest a non-empty list of statements into a Seq chain."""
    stmts = list(stmts)
    if not stmts:
        return EMPTY
    prog = stmts[-1]
    for s in reversed(stmts[:-1]):
        prog = Seq(s, prog)
    return prog


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Syntax error with position and the set of tokens that were expected."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        loc = f"line {line}, column {column}"
        if expected:
            message = f"{message} at {loc} (expected one of: {', '.join(expected)})"
        else:
            message = f"{message} at {loc}"
        super().__init__(message)


KEYWORDS = {"skip", "exit", "bot", "while", "if", "else", "true", "false",
            "not", "and", "or"}

# One named group per token kind, tried in order; the classes are ASCII
# only.  Two-character punctuation comes before its one-character prefix,
# and `bad` takes any character nothing else does.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<punct>\[\]|:=|!=|<=|>=|[;{}()<>=+\-*/])
  | (?P<bad>.)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str   # 'ident', 'int', 'punct', 'kw', 'eof'
    text: str
    line: int
    column: int


def tokenize(source: str):
    """The tokens of `source`, ending with an 'eof' token.  Columns count
    characters from 1, except that a comment does not advance them: the
    'eof' token after a trailing comment sits where the comment starts."""
    tokens = []
    line, line_start = 1, 0
    end = 0  # where the last token, space or newline ended
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        column = match.start() - line_start + 1
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}",
                             line, column)
        elif kind != "space" and kind != "comment":
            text = match.group()
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, text, line, column))
        if kind != "comment":
            end = match.end()
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The statements that are a single keyword.
_KEYWORD_STATEMENTS = {"skip": SKIP, "exit": EXIT, "bot": EMPTY}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, expected):
        tok = self.cur
        what = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise ParseError(f"unexpected {what}", tok.line, tok.column, expected)

    def accept(self, text) -> bool:
        """Step over the current token if its text is `text`, a keyword or
        punctuation, which no identifier, integer or 'eof' token has."""
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def eat(self, text):
        if not self.accept(text):
            self.error([repr(text)])

    # -- programs ----------------------------------------------------------

    def program(self, close=None) -> Program:
        """Statements, then the token `close` (a block's '}') if given."""
        stmts = [self.stmt()]
        while self.accept(";"):
            stmts.append(self.stmt())
        if close is not None:
            self.eat(close)
        return seq_of(stmts)

    def stmt(self) -> Program:
        tok = self.cur
        node = _KEYWORD_STATEMENTS.get(tok.text)
        if node is not None:
            self.pos += 1
            return node
        if self.accept("while"):
            self.eat("(")
            guard = self.bexpr()
            self.eat(")")
            self.eat("{")
            return While(guard, self.program("}"))
        if self.accept("if"):
            self.eat("(")
            guard = self.bexpr()
            self.eat(")")
            self.eat("{")
            then = self.program("}")
            orelse: Program = EMPTY
            if self.accept("else"):
                self.eat("{")
                orelse = self.program("}")
            return If(guard, then, orelse)
        if self.accept("{"):
            left = self.program("}")
            if self.accept("[]"):
                self.eat("{")
                return NondetChoice(left, self.program("}"))
            if self.accept("<"):
                prob = self.aexpr()
                self.eat(">")
                self.eat("{")
                return ProbChoice(left, prob, self.program("}"))
            self.error(["'[]'", "'<'"])
        if tok.kind == "ident":
            self.pos += 1
            self.eat(":=")
            return Assign(tok.text, self.aexpr())
        self.error(["statement"])

    # -- arithmetic expressions (precedence: unary -, then *, then + -) -----

    def aexpr(self) -> AExpr:
        left = self.multiplicative()
        while self.cur.text in ("+", "-"):
            op = self.cur.text
            self.pos += 1
            left = ABin(op, left, self.multiplicative())
        return left

    def multiplicative(self) -> AExpr:
        left = self.unary()
        while self.accept("*"):
            left = ABin("*", left, self.unary())
        return left

    def unary(self) -> AExpr:
        if self.accept("-"):
            return Neg(self.unary())
        return self.atom()

    def integer(self, tok) -> int:
        if len(tok.text) > MAX_DIGITS:
            raise ParseError(f"integer literal of {len(tok.text)} digits "
                             f"exceeds {MAX_DIGITS}", tok.line, tok.column)
        return int(tok.text)

    def atom(self) -> AExpr:
        tok = self.cur
        if tok.kind == "int":
            self.pos += 1
            num = self.integer(tok)
            if self.accept("/"):
                dtok = self.cur
                if dtok.kind != "int":
                    self.error(["integer denominator"])
                self.pos += 1
                den = self.integer(dtok)
                if den == 0:
                    raise ParseError("malformed rational literal: zero denominator",
                                     dtok.line, dtok.column)
                return RatLit(Fraction(num, den))
            return RatLit(Fraction(num))
        if tok.kind == "ident":
            self.pos += 1
            return Var(tok.text)
        if self.accept("("):
            inner = self.aexpr()
            self.eat(")")
            return inner
        self.error(["rational", "identifier", "'-'", "'('"])

    # -- boolean expressions (precedence: not, and, or) ----------------------

    def bexpr(self) -> BExpr:
        left = self.b_and()
        while self.accept("or"):
            left = BBin("or", left, self.b_and())
        return left

    def b_and(self) -> BExpr:
        left = self.b_not()
        while self.accept("and"):
            left = BBin("and", left, self.b_not())
        return left

    def b_not(self) -> BExpr:
        if self.accept("not"):
            return Not(self.b_not())
        return self.b_atom()

    def b_atom(self) -> BExpr:
        if self.accept("true"):
            return BoolLit(True)
        if self.accept("false"):
            return BoolLit(False)
        mark = self.pos
        if self.accept("("):
            # Could be a parenthesised bexpr or the left arm of a comparison.
            try:
                inner = self.bexpr()
                self.eat(")")
                return inner
            except ParseError:
                self.pos = mark
        left = self.aexpr()
        for op in ("!=", "<=", ">=", "=", "<", ">"):
            if self.accept(op):
                return Cmp(op, left, self.aexpr())
        self.error(["comparison operator"])


def _parse_all(source: str, rule, expected):
    """rule's tree for all of source; `expected` may follow the tree."""
    parser = _Parser(tokenize(source))
    tree = rule(parser)
    if parser.cur.kind != "eof":
        parser.error(expected)
    return tree


def parse(source: str) -> Program:
    """Parse pGCL source text into a Program, or raise ParseError."""
    return _parse_all(source, _Parser.program, ["';'", "end of input"])


def parse_aexpr(source: str) -> AExpr:
    return _parse_all(source, _Parser.aexpr, ["end of input"])


def parse_bexpr(source: str) -> BExpr:
    return _parse_all(source, _Parser.bexpr, ["end of input"])


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

class TooManyDigits(ValueError):
    """A rational whose numerator or denominator has more than MAX_DIGITS
    digits, which CPython can neither read from nor write to text."""

    def __init__(self):
        super().__init__(f"rational of more than {MAX_DIGITS} digits")


_DIGIT_LIMIT = 10 ** MAX_DIGITS  # the least integer of MAX_DIGITS + 1 digits
_DIGIT_LIMIT_BITS = _DIGIT_LIMIT.bit_length()


def print_rational(q: Fraction) -> str:
    """num/den, or num alone when den is 1; TooManyDigits when either has
    more than MAX_DIGITS digits.  The bit length test is O(1) and only
    numbers of at least the limit's bit length are compared with it."""
    num, den = q.numerator, q.denominator
    if (num.bit_length() >= _DIGIT_LIMIT_BITS
            or den.bit_length() >= _DIGIT_LIMIT_BITS) \
            and max(abs(num), den) >= _DIGIT_LIMIT:
        raise TooManyDigits()
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def read_rational(value) -> Fraction:
    """Fraction(value), except that a text whose numerator or denominator
    would have more than MAX_DIGITS digits is refused with TooManyDigits
    before any conversion: converting one can take seconds, printing it
    fails."""
    if isinstance(value, str):
        mantissa, _, exponent = value.lower().partition("e")
        digits = max(sum(c.isdigit() for c in part)
                     for part in mantissa.split("/"))
        shift = exponent.strip().lstrip("+-").lstrip("0_")
        if len(shift) > 8 or digits + int(shift or 0) > MAX_DIGITS:
            raise TooManyDigits()
    return Fraction(value)


def _paren_if(text, cond):
    return f"({text})" if cond else text


def print_aexpr(e: AExpr) -> str:
    if isinstance(e, RatLit):
        if e.value < 0:
            return f"(0 - {print_rational(-e.value)})"
        return print_rational(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"-{_paren_if(print_aexpr(e.operand), isinstance(e.operand, ABin))}"
    if isinstance(e, ABin):
        left = _paren_if(print_aexpr(e.left),
                         isinstance(e.left, ABin) and e.op == "*"
                         and e.left.op in ("+", "-"))
        # Parenthesise right operands whenever reparsing could reassociate.
        right_needs = isinstance(e.right, ABin) and (
            e.op in ("-", "*") or e.right.op in ("+", "-"))
        right = _paren_if(print_aexpr(e.right), right_needs)
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an arithmetic expression: {e!r}")


def print_bexpr(b: BExpr) -> str:
    if isinstance(b, BoolLit):
        return "true" if b.value else "false"
    if isinstance(b, Cmp):
        return f"{print_aexpr(b.left)} {b.op} {print_aexpr(b.right)}"
    if isinstance(b, Not):
        inner = print_bexpr(b.operand)
        if isinstance(b.operand, (BBin, Cmp)):
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(b, BBin):
        left = print_bexpr(b.left)
        if isinstance(b.left, BBin) and b.op == "and" and b.left.op == "or":
            left = f"({left})"
        right = print_bexpr(b.right)
        if isinstance(b.right, BBin):
            right = f"({right})"
        return f"{left} {b.op} {right}"
    raise TypeError(f"not a boolean expression: {b!r}")


def print_program(p: Program) -> str:
    """Render a Program as canonical single-line concrete syntax.

    A Seq prints as the texts of its statements joined by "; ", however it
    nests, so its spine is walked with an explicit stack and a sequence of
    any length prints.  Each statement's text is computed once."""
    texts = []
    rests = []  # the rests still to print, the next one last
    while True:
        while type(p) is Seq:
            rests.append(p.rest)
            p = p.first
        try:
            text = p._text
        except AttributeError:
            raise TypeError(f"not a program: {p!r}") from None
        if text is None:
            text = _print_statement(p)
            object.__setattr__(p, "_text", text)
        texts.append(text)
        if not rests:
            break
        p = rests.pop()
    return "; ".join(texts)


def _print_statement(p: Program) -> str:
    """The text of a program node other than Seq."""
    if isinstance(p, Empty):
        return "bot"
    if isinstance(p, Skip):
        return "skip"
    if isinstance(p, Exit):
        return "exit"
    if isinstance(p, Assign):
        return f"{p.var} := {print_aexpr(p.expr)}"
    if isinstance(p, ProbChoice):
        return (f"{{ {print_program(p.left)} }} <{print_aexpr(p.prob)}> "
                f"{{ {print_program(p.right)} }}")
    if isinstance(p, NondetChoice):
        return f"{{ {print_program(p.left)} }} [] {{ {print_program(p.right)} }}"
    if isinstance(p, While):
        return f"while ({print_bexpr(p.guard)}) {{ {print_program(p.body)} }}"
    if isinstance(p, If):
        text = f"if ({print_bexpr(p.guard)}) {{ {print_program(p.then)} }}"
        if not isinstance(p.orelse, Empty):
            text += f" else {{ {print_program(p.orelse)} }}"
        return text
    raise TypeError(f"not a program: {p!r}")
